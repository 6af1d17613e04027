//! Ablation experiments: isolating the design choices DESIGN.md calls out.
//!
//! * **abl-border** — the Section 5.2 MIDAS structural optimisation
//!   (border-pattern link targets) on vs. off, for skyline queries.
//! * **abl-priority** — `sortLinks` prioritisation on vs. off for `slow`
//!   top-k and skyline (the "meticulous guidance" of Section 3.1).
//! * **abl-split** — midpoint vs. data-median zone splits (the `SplitRule`
//!   choice discussed in DESIGN.md D3), for skyline queries.
//! * **ext-chord** — RIPPLE-over-Chord top-k vs. overlay size: the
//!   substrate-genericity demonstration measured.
//! * **ext-churn** — Figure-4-style top-k metrics measured during the
//!   *decreasing* churn stage the paper omits ("analogous and omitted").

use crate::config::Scale;
use crate::output::{Figure, Series, SeriesPoint};
use crate::runner::{merge_summaries, midas_uniform_with_data, midas_with_data, parallel_queries};
use ripple_chord::ChordNetwork;
use ripple_core::framework::{Mode, Unprioritized};
use ripple_core::skyline::{run_skyline, SkylineQuery};
use ripple_core::topk::run_topk;
use ripple_core::Executor;
use ripple_data::workload::{data_query_point, query_seeds};
use ripple_data::{nba, synth, SynthConfig};
use ripple_geom::{Norm, PeakScore, Tuple};
use ripple_midas::{MidasNetwork, SplitRule};
use ripple_net::rng::rngs::SmallRng;
use ripple_net::rng::SeedableRng;
use ripple_net::{PointSummary, QueryMetrics, Substrate};

fn sky_series_point(net: &MidasNetwork, mode: Mode, seeds: &[u64]) -> PointSummary {
    parallel_queries(seeds, |qseed| {
        let mut rng = SmallRng::seed_from_u64(qseed);
        let initiator = net.random_peer(&mut rng);
        run_skyline(net, initiator, mode).1
    })
}

/// Section 5.2 border link policy on/off (skyline over MIDAS).
pub fn ablation_border(scale: Scale, seed: u64) -> Figure {
    let mut rng = SmallRng::seed_from_u64(seed);
    let data = nba::project4(&nba::paper(&mut rng));
    let per_net = (scale.queries() / scale.networks()).max(1);
    let mut series = Vec::new();
    for (name, policy, mode) in [
        ("fast, §5.2 on", true, Mode::Fast),
        ("fast, §5.2 off", false, Mode::Fast),
        ("slow, §5.2 on", true, Mode::Slow),
        ("slow, §5.2 off", false, Mode::Slow),
    ] {
        let points = scale
            .overlay_sizes()
            .into_iter()
            .map(|n| {
                eprintln!("  abl-border {name} n={n}");
                let parts: Vec<PointSummary> = (0..scale.networks() as u64)
                    .map(|i| {
                        let net = midas_with_data(4, n, policy, &data, seed ^ ((i + 1) * 0xB0));
                        let seeds = query_seeds(seed ^ (0xAB + i), per_net);
                        sky_series_point(&net, mode, &seeds)
                    })
                    .collect();
                SeriesPoint {
                    x: n as f64,
                    summary: merge_summaries(&parts),
                }
            })
            .collect();
        series.push(Series {
            name: name.into(),
            points,
        });
    }
    Figure {
        id: "abl-border".into(),
        title: "Ablation: §5.2 border link optimisation (skyline, NBA)".into(),
        x_label: "network size".into(),
        series,
    }
}

/// `sortLinks` prioritisation on/off for `slow` (skyline over MIDAS).
pub fn ablation_priority(scale: Scale, seed: u64) -> Figure {
    let mut rng = SmallRng::seed_from_u64(seed);
    let data = nba::project4(&nba::paper(&mut rng));
    let per_net = (scale.queries() / scale.networks()).max(1);
    let mut series = Vec::new();
    for (name, prioritized) in [
        ("slow, prioritized", true),
        ("slow, arbitrary order", false),
    ] {
        let points = scale
            .overlay_sizes()
            .into_iter()
            .map(|n| {
                eprintln!("  abl-priority {name} n={n}");
                let parts: Vec<PointSummary> = (0..scale.networks() as u64)
                    .map(|i| {
                        let net = midas_with_data(4, n, true, &data, seed ^ ((i + 1) * 0xB1));
                        let seeds = query_seeds(seed ^ (0xAC + i), per_net);
                        parallel_queries(&seeds, |qseed| -> QueryMetrics {
                            let mut rng = SmallRng::seed_from_u64(qseed);
                            let initiator = net.random_peer(&mut rng);
                            if prioritized {
                                Executor::new(&net)
                                    .run(initiator, &SkylineQuery::new(), Mode::Slow)
                                    .metrics
                            } else {
                                Executor::new(&net)
                                    .run(initiator, &Unprioritized(SkylineQuery::new()), Mode::Slow)
                                    .metrics
                            }
                        })
                    })
                    .collect();
                SeriesPoint {
                    x: n as f64,
                    summary: merge_summaries(&parts),
                }
            })
            .collect();
        series.push(Series {
            name: name.into(),
            points,
        });
    }
    Figure {
        id: "abl-priority".into(),
        title: "Ablation: sortLinks prioritisation (slow skyline, NBA)".into(),
        x_label: "network size".into(),
        series,
    }
}

/// Midpoint vs. median zone splits (skyline over MIDAS).
pub fn ablation_split(scale: Scale, seed: u64) -> Figure {
    let mut rng = SmallRng::seed_from_u64(seed);
    let data = nba::project4(&nba::paper(&mut rng));
    let per_net = (scale.queries() / scale.networks()).max(1);
    let mut series = Vec::new();
    for (name, rule) in [
        ("slow, midpoint splits", SplitRule::Midpoint),
        ("slow, median splits", SplitRule::Median),
    ] {
        let points = scale
            .overlay_sizes()
            .into_iter()
            .map(|n| {
                eprintln!("  abl-split {name} n={n}");
                let parts: Vec<PointSummary> = (0..scale.networks() as u64)
                    .map(|i| {
                        let mut rng = SmallRng::seed_from_u64(seed ^ ((i + 1) * 0xB2));
                        let mut net = MidasNetwork::new(4, true).with_split_rule(rule);
                        net.insert_all(data.iter().cloned());
                        while net.peer_count() < n {
                            use ripple_net::rng::Rng as _;
                            let t = &data[rng.gen_range(0..data.len())];
                            net.join(&t.point.clone());
                        }
                        let seeds = query_seeds(seed ^ (0xAD + i), per_net);
                        sky_series_point(&net, Mode::Slow, &seeds)
                    })
                    .collect();
                SeriesPoint {
                    x: n as f64,
                    summary: merge_summaries(&parts),
                }
            })
            .collect();
        series.push(Series {
            name: name.into(),
            points,
        });
    }
    Figure {
        id: "abl-split".into(),
        title: "Ablation: zone split rule (slow skyline, NBA)".into(),
        x_label: "network size".into(),
        series,
    }
}

/// RIPPLE-over-Chord top-k vs. overlay size (genericity demo, measured).
pub fn ext_chord(scale: Scale, seed: u64) -> Figure {
    let per_net = (scale.queries() / scale.networks()).max(1);
    let mut rng = SmallRng::seed_from_u64(seed);
    let data: Vec<Tuple> = synth::generate(&SynthConfig::scaled(1, scale.records()), &mut rng);
    let mut series = Vec::new();
    for (name, mode) in [
        ("chord fast", Mode::Fast),
        ("chord ripple(2)", Mode::Ripple(2)),
        ("chord slow", Mode::Slow),
    ] {
        let points = scale
            .overlay_sizes()
            .into_iter()
            .map(|n| {
                eprintln!("  ext-chord {name} n={n}");
                let parts: Vec<PointSummary> = (0..scale.networks() as u64)
                    .map(|i| {
                        let mut rng = SmallRng::seed_from_u64(seed ^ ((i + 1) * 0xB3));
                        let mut net = ChordNetwork::build(n, &mut rng);
                        net.insert_all(data.iter().cloned());
                        let seeds = query_seeds(seed ^ (0xAE + i), per_net);
                        parallel_queries(&seeds, |qseed| {
                            let mut rng = SmallRng::seed_from_u64(qseed);
                            let q = data_query_point(&data, 0.05, &mut rng);
                            let initiator = net.random_peer(&mut rng);
                            run_topk(&net, initiator, PeakScore::new(q, Norm::L1), 10, mode).1
                        })
                    })
                    .collect();
                SeriesPoint {
                    x: n as f64,
                    summary: merge_summaries(&parts),
                }
            })
            .collect();
        series.push(Series {
            name: name.into(),
            points,
        });
    }
    Figure {
        id: "ext-chord".into(),
        title: "Extension: RIPPLE top-k over Chord (1-d SYNTH)".into(),
        x_label: "network size".into(),
        series,
    }
}

/// Skyframe \[19\] against DSL and SSP: the third related-work skyline
/// method (border-peer rounds), measured on the Figure 7 workload.
pub fn ext_skyframe(scale: Scale, seed: u64) -> Figure {
    use crate::runner::{baton_with_data, can_with_data};
    use ripple_baton::ssp_skyline;
    use ripple_can::{dsl_skyline, skyframe_skyline};
    let mut rng = SmallRng::seed_from_u64(seed);
    let data = nba::project4(&nba::paper(&mut rng));
    let per_net = (scale.queries() / scale.networks()).max(1);
    let mut series = Vec::new();
    for name in ["skyframe (can)", "dsl (can)", "ssp (baton)"] {
        let points = scale
            .overlay_sizes()
            .into_iter()
            .map(|n| {
                eprintln!("  ext-skyframe {name} n={n}");
                let parts: Vec<PointSummary> = (0..scale.networks() as u64)
                    .map(|i| {
                        let net_seed = seed ^ ((i + 1) * 0xB4);
                        let seeds = query_seeds(seed ^ (0xAF + i), per_net);
                        match name {
                            "ssp (baton)" => {
                                let net = baton_with_data(4, n, &data, net_seed);
                                parallel_queries(&seeds, |qseed| {
                                    let mut rng = SmallRng::seed_from_u64(qseed);
                                    ssp_skyline(&net, net.random_peer(&mut rng)).metrics
                                })
                            }
                            method => {
                                let net = can_with_data(4, n, &data, net_seed);
                                parallel_queries(&seeds, |qseed| {
                                    let mut rng = SmallRng::seed_from_u64(qseed);
                                    let initiator = net.random_peer(&mut rng);
                                    if method.starts_with("skyframe") {
                                        skyframe_skyline(&net, initiator).metrics
                                    } else {
                                        dsl_skyline(&net, initiator).metrics
                                    }
                                })
                            }
                        }
                    })
                    .collect();
                SeriesPoint {
                    x: n as f64,
                    summary: merge_summaries(&parts),
                }
            })
            .collect();
        series.push(Series {
            name: name.into(),
            points,
        });
    }
    Figure {
        id: "ext-skyframe".into(),
        title: "Extension: Skyframe vs DSL vs SSP (skyline, NBA)".into(),
        x_label: "network size".into(),
        series,
    }
}

/// Top-k metrics during the *decreasing* churn stage (the paper reports
/// only the increasing stage and says the rest is "analogous").
///
/// Two passes over the same shrink schedule: the baseline pass departs
/// gracefully with no replication (the `r=0` / `r=Δ` series), and a
/// replicas-on pass (`k=2`) where two peers at every checkpoint crash
/// *ungracefully* with anti-entropy keeping pace — its `replica_hits` /
/// `replica_bytes` CSV columns show the recovery traffic that keeps recall
/// at 1.0 through the crashes.
pub fn ext_churn(scale: Scale, seed: u64) -> Figure {
    use ripple_core::topk::run_topk_with;
    use ripple_net::churn::{run_stage, ChurnOverlay, ChurnStage};
    use ripple_net::FaultPlane;
    let mut rng = SmallRng::seed_from_u64(seed);
    let data = nba::paper(&mut rng);
    let sizes = scale.overlay_sizes();
    let top = *sizes.last().expect("non-empty size grid");
    let per_point = (scale.queries() / 2).max(8);

    let mut series: Vec<Series> = ["r=0", "r=Δ", "r=0 (k=2, crashes)", "r=Δ (k=2, crashes)"]
        .iter()
        .map(|name| Series {
            name: (*name).into(),
            points: Vec::new(),
        })
        .collect();

    // Pass 1 (baseline) fills series 0–1, pass 2 (replicated, crashy)
    // fills series 2–3: grow to the top size with data-steered joins, then
    // shrink while measuring at each checkpoint.
    for pass in 0..2usize {
        let mut net = midas_uniform_with_data(nba::DIMS, top, false, &data, seed);
        if pass == 1 {
            net.enable_replication(2);
        }
        let mut shrink_rng = SmallRng::seed_from_u64(seed ^ 0xC0FFEE);
        let mut crash_rng = SmallRng::seed_from_u64(seed ^ 0xC4A54);
        let mut checkpoints = sizes.clone();
        checkpoints.sort_unstable();
        let series = &mut series;
        run_stage(
            &mut net,
            ChurnStage::Decreasing,
            sizes[0],
            &checkpoints,
            &mut shrink_rng,
            |net, cp| {
                eprintln!("  ext-churn checkpoint n={cp} (pass {pass})");
                if pass == 1 && cp > sizes[0] {
                    // Ungraceful failures ride the schedule (skipping the
                    // terminal checkpoint, which *is* the stage target);
                    // the failure detector — one anti-entropy pass per
                    // crash — keeps pace. Earlier dead zones stay orphaned,
                    // so recovery traffic shows at every later checkpoint.
                    for _ in 0..8 {
                        net.churn_crash(&mut crash_rng);
                        net.refresh_replicas();
                    }
                }
                for (si, mode) in [(0usize, Mode::Fast), (1, Mode::Slow)] {
                    let seeds = query_seeds(seed ^ cp as u64, per_point);
                    let summary = parallel_queries(&seeds, |qseed| {
                        let mut rng = SmallRng::seed_from_u64(qseed);
                        let q = data_query_point(&data, 0.1, &mut rng);
                        let initiator = net.random_peer(&mut rng);
                        let score = PeakScore::new(q, Norm::L1);
                        if pass == 0 {
                            run_topk(net, initiator, score, 10, mode).1
                        } else {
                            // Stale links point at the crashed peers; a
                            // crash-aware plane (timeout + failover +
                            // replica recovery) is required to route.
                            let plane = FaultPlane {
                                crash_fraction: 1.0,
                                timeout_hops: 2,
                                max_retries: 1,
                                seed: 3,
                                ..FaultPlane::none()
                            };
                            let exec = Executor::with_faults(net, plane, qseed);
                            run_topk_with(&exec, initiator, score, 10, mode).1
                        }
                    });
                    series[pass * 2 + si].points.push(SeriesPoint {
                        x: cp as f64,
                        summary,
                    });
                }
            },
        );
    }
    // points were recorded at descending sizes; flip to ascending x
    for s in &mut series {
        s.points.reverse();
    }
    Figure {
        id: "ext-churn".into(),
        title: "Extension: top-k during the decreasing churn stage (NBA)".into(),
        x_label: "network size".into(),
        series,
    }
}
