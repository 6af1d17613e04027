//! Property tests for the fault plane.
//!
//! Two families of guarantees are enforced here (the Chord-side twins live
//! in `ripple-chord`'s `tests/fault.rs`):
//!
//! 1. **No-fault observational identity.** An executor driven by
//!    [`FaultPlane::none`] must be indistinguishable — equal answers, equal
//!    coverage, and *bit-identical* cost ledgers including the per-peer
//!    visit sequence — from the historical fault-unaware executor, for every
//!    propagation mode and every query type. The fault plane is a strict
//!    superset of the old behaviour, not a parallel code path.
//!
//! 2. **Graceful, honest degradation.** On an overlay damaged by ungraceful
//!    crashes, queries never panic and never silently drop data: every
//!    surviving tuple is still found (answers equal the centralized oracle
//!    over the survivors), the abandoned orphan volume is reported in
//!    [`Coverage`], restriction areas stay intact (`duplicate_visits == 0`),
//!    and running the repair protocol restores complete coverage.
//!
//! [`Coverage`]: crate::framework::Coverage

use crate::exec::Executor;
use crate::framework::{Mode, RankQuery};
use crate::skyline::{centralized_skyline, run_skyline_query_with, SkylineQuery};
use crate::topk::TopKQuery;
use crate::topk::{centralized_topk, run_topk_with};
use ripple_geom::{LinearScore, Norm, PeakScore, Rect, ScoreFn, Tuple};
use ripple_midas::MidasNetwork;
use ripple_net::rng::rngs::SmallRng;
use ripple_net::rng::{Rng, SeedableRng};
use ripple_net::{FaultPlane, Substrate};

const MODES: [Mode; 4] = [Mode::Fast, Mode::Slow, Mode::Ripple(2), Mode::Broadcast];

fn random_tuple(id: u64, dims: usize, rng: &mut SmallRng) -> Tuple {
    Tuple::new(id, (0..dims).map(|_| rng.gen::<f64>()).collect::<Vec<_>>())
}

fn loaded_net(dims: usize, peers: usize, tuples: u64, seed: u64) -> (MidasNetwork, SmallRng) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut net = MidasNetwork::build(dims, peers, false, &mut rng);
    for i in 0..tuples {
        let t = random_tuple(i, dims, &mut rng);
        net.insert_tuple(t);
    }
    (net, rng)
}

/// All tuples still stored at live peers.
fn survivors(net: &MidasNetwork) -> Vec<Tuple> {
    net.live_peers()
        .iter()
        .flat_map(|&p| net.peer(p).store.tuples().to_vec())
        .collect()
}

fn ids(tuples: &[Tuple]) -> Vec<u64> {
    tuples.iter().map(|t| t.id).collect()
}

/// A plane that is *active* (so dead targets are detected, timed out and
/// failed over) but injects no drops and no slowness: it isolates the
/// crash-handling machinery.
fn crash_aware() -> FaultPlane {
    FaultPlane {
        crash_fraction: 1.0,
        timeout_hops: 2,
        max_retries: 1,
        seed: 3,
        ..FaultPlane::none()
    }
}

/// Runs `query` through the plain and the `FaultPlane::none` executor in
/// every mode and asserts observational identity.
fn assert_none_identical<Q>(net: &MidasNetwork, query: &Q, rng: &mut SmallRng, label: &str)
where
    Q: RankQuery<Rect>,
{
    for mode in MODES {
        let initiator = net.random_peer(rng);
        let plain = Executor::new(net).run(initiator, query, mode);
        let none = Executor::with_faults(net, FaultPlane::none(), 7).run(initiator, query, mode);
        assert_eq!(
            plain.metrics, none.metrics,
            "{label} [{mode:?}]: a FaultPlane::none executor must produce a \
             bit-identical ledger (including the visit sequence)"
        );
        assert_eq!(
            plain.answers, none.answers,
            "{label} [{mode:?}]: answers must be identical"
        );
        assert!(none.coverage.is_complete(), "{label} [{mode:?}]");
        assert_eq!(none.coverage.answered_fraction, 1.0, "{label} [{mode:?}]");
        assert_eq!(none.metrics.duplicate_visits, 0, "{label} [{mode:?}]");
    }
}

#[test]
fn none_plane_is_observationally_identical() {
    for (dims, peers, tuples, seed) in [(2usize, 48usize, 600u64, 41u64), (3, 32, 400, 42)] {
        let (net, mut rng) = loaded_net(dims, peers, tuples, seed);
        for k in [1usize, 5, 64] {
            let q = TopKQuery::new(LinearScore::uniform(dims), k);
            assert_none_identical(&net, &q, &mut rng, &format!("topk-linear k={k}"));
            let peak: Vec<f64> = (0..dims).map(|_| rng.gen::<f64>()).collect();
            let q = TopKQuery::new(PeakScore::new(peak, Norm::L2), k);
            assert_none_identical(&net, &q, &mut rng, &format!("topk-peak k={k}"));
        }
        assert_none_identical(&net, &SkylineQuery::new(), &mut rng, "skyline");
        let c = Rect::new(vec![0.2; dims], vec![0.9; dims]);
        assert_none_identical(
            &net,
            &SkylineQuery::constrained(c),
            &mut rng,
            "skyline-constrained",
        );
    }
}

#[test]
fn trace_off_preserves_every_counter() {
    let (net, mut rng) = loaded_net(2, 40, 500, 43);
    let q = TopKQuery::new(LinearScore::uniform(2), 10);
    for mode in MODES {
        let initiator = net.random_peer(&mut rng);
        let traced = Executor::new(&net).run(initiator, &q, mode);
        let lean = Executor::new(&net).without_trace().run(initiator, &q, mode);
        assert!(!traced.metrics.visited.is_empty());
        assert!(
            lean.metrics.visited.is_empty(),
            "trace must not be retained"
        );
        let mut expect = traced.metrics.clone();
        expect.visited.clear();
        expect.trace_off = true;
        assert_eq!(
            expect, lean.metrics,
            "[{mode:?}] every counter must survive trace-off unchanged"
        );
        assert_eq!(traced.answers, lean.answers);
    }
}

#[test]
fn crashed_overlay_degrades_gracefully_and_repair_restores() {
    let (mut net, mut rng) = loaded_net(2, 48, 600, 44);
    let score = LinearScore::uniform(2);
    for round in 0..3u64 {
        // A crash wave: ungraceful departures, zones orphaned, data lost.
        for _ in 0..5 {
            if net.peer_count() > 1 {
                let victim = net.random_peer(&mut rng);
                net.crash(victim);
            }
        }
        net.check_invariants();
        let alive = survivors(&net);
        let orphan_vol: f64 = net.orphan_regions().iter().map(Rect::volume).sum();
        assert!(orphan_vol > 0.0, "crashes must orphan volume");

        for mode in MODES {
            let initiator = net.random_peer(&mut rng);
            let exec = Executor::with_faults(&net, crash_aware(), round);
            let (got, metrics, cov) = run_topk_with(&exec, initiator, score.clone(), 10, mode);
            // Never silently wrong: every surviving tuple is still ranked.
            assert_eq!(
                ids(&got),
                ids(&centralized_topk(&alive, &score, 10)),
                "[{mode:?}] top-k over the damaged overlay must equal the \
                 oracle over the surviving tuples"
            );
            assert_eq!(metrics.duplicate_visits, 0, "[{mode:?}]");
            // Coverage is honest: at most the orphaned volume is missing
            // (pruned subtrees are answered by proof, not abandoned), and
            // under Broadcast — no pruning — the loss is exactly it.
            assert!(
                cov.answered_fraction >= 1.0 - orphan_vol - 1e-9,
                "[{mode:?}] answered {} with orphan volume {orphan_vol}",
                cov.answered_fraction
            );
            if mode == Mode::Broadcast {
                assert!(
                    (cov.answered_fraction - (1.0 - orphan_vol)).abs() < 1e-9,
                    "broadcast coverage must report exactly the orphan volume: \
                     {} vs {}",
                    cov.answered_fraction,
                    1.0 - orphan_vol
                );
                assert!(!cov.is_complete());
                assert!(metrics.timeouts > 0, "dead targets must trip timeouts");
            }
            let exec = Executor::with_faults(&net, crash_aware(), round);
            let (sky, _, scov) =
                run_skyline_query_with(&exec, initiator, SkylineQuery::new(), mode);
            assert_eq!(sky, centralized_skyline(&alive), "[{mode:?}] skyline");
            assert!(scov.answered_fraction >= 1.0 - orphan_vol - 1e-9);
        }

        // Repair reclaims the orphans; coverage is complete again and the
        // fault-free executor agrees with the oracle.
        net.repair_all();
        net.check_invariants();
        assert!(net.orphan_regions().is_empty());
        let initiator = net.random_peer(&mut rng);
        let exec = Executor::with_faults(&net, crash_aware(), round);
        let (got, _, cov) = run_topk_with(&exec, initiator, score.clone(), 10, Mode::Slow);
        assert!(cov.is_complete(), "repair must restore full coverage");
        assert_eq!(
            ids(&got),
            ids(&centralized_topk(&survivors(&net), &score, 10))
        );
    }
}

#[test]
fn faulty_runs_are_deterministic_and_recover_through_retries() {
    let (net, mut rng) = loaded_net(2, 48, 600, 45);
    let score = LinearScore::uniform(2);
    let plane = FaultPlane::drops(0.1, 99);
    for (stream, mode) in MODES.into_iter().enumerate() {
        let initiator = net.random_peer(&mut rng);
        let run = |s: u64| {
            Executor::with_faults(&net, plane, s).run(
                initiator,
                &TopKQuery::new(score.clone(), 10),
                mode,
            )
        };
        let a = run(stream as u64);
        let b = run(stream as u64);
        assert_eq!(a.metrics, b.metrics, "[{mode:?}] replay must be exact");
        assert_eq!(a.answers, b.answers);
        assert_eq!(a.coverage, b.coverage);
        assert_eq!(a.metrics.duplicate_visits, 0);
        // Complete coverage under drops means the answer is *exact*, not
        // merely close: retries and failover fully masked the faults.
        if a.coverage.is_complete() {
            let mut answers = a.answers;
            answers.sort_by(|x, y| {
                score
                    .score(&y.point)
                    .total_cmp(&score.score(&x.point))
                    .then_with(|| x.id.cmp(&y.id))
            });
            answers.truncate(10);
            assert_eq!(
                ids(&answers),
                ids(&centralized_topk(&survivors(&net), &score, 10)),
                "[{mode:?}] complete coverage must imply an exact answer"
            );
        }
    }
    // At p = 0.1 over a broadcast's many messages, drops certainly occurred
    // and the retry counters must have registered them.
    let initiator = net.random_peer(&mut rng);
    let out = Executor::with_faults(&net, plane, 1234).run(
        initiator,
        &TopKQuery::new(score.clone(), 10),
        Mode::Broadcast,
    );
    assert!(out.metrics.messages_dropped > 0);
    assert!(out.metrics.retries > 0);
    assert!(out.metrics.timeouts >= out.metrics.retries);
    assert!(out.metrics.latency > 0);
}

/// Property: the retry budget is *monotone*. Because drop verdicts are keyed
/// by `(sender, target, attempt)` — not drawn from a shared stream — raising
/// `max_retries` can only extend each edge's attempt sequence: every edge
/// that delivered within budget `m` delivers verbatim within budget `m + 1`.
/// The executor inherits the monotonicity: across a ladder of budgets the
/// answered fraction never shrinks and a large-enough budget recovers exact
/// answers.
#[test]
fn retry_budgets_are_monotone() {
    // 1. The session-level subset property, over a grid of edges.
    for seed in [7u64, 19, 23] {
        let plane = FaultPlane {
            drop_probability: 0.4,
            timeout_hops: 2,
            max_retries: 0,
            seed,
            ..FaultPlane::none()
        };
        let session = plane.session(1);
        let delivers_within = |s: u64, t: u64, budget: u32| -> bool {
            (0..=budget).any(|a| {
                !session.drops_message(
                    ripple_net::PeerId::new(s as u32),
                    ripple_net::PeerId::new(t as u32),
                    a,
                )
            })
        };
        for s in 0..12u64 {
            for t in 0..12u64 {
                if s == t {
                    continue;
                }
                for budget in 0..4u32 {
                    if delivers_within(s, t, budget) {
                        assert!(
                            delivers_within(s, t, budget + 1),
                            "edge {s}->{t}: delivery within budget {budget} must \
                             be preserved by budget {}",
                            budget + 1
                        );
                    }
                }
            }
        }
    }

    // 2. The executor-level consequence: a deterministic budget ladder over
    // a lossy overlay never loses coverage as the budget grows, and the
    // counters stay within the budget's arithmetic bounds.
    let (net, mut rng) = loaded_net(2, 40, 500, 47);
    let score = LinearScore::uniform(2);
    let q = TopKQuery::new(score.clone(), 10);
    for mode in MODES {
        let initiator = net.random_peer(&mut rng);
        let mut prev = -1.0f64;
        for max_retries in 0..=4u32 {
            let plane = FaultPlane {
                drop_probability: 0.3,
                timeout_hops: 2,
                max_retries,
                seed: 13,
                ..FaultPlane::none()
            };
            let out = Executor::with_faults(&net, plane, 2).run(initiator, &q, mode);
            assert!(
                out.coverage.answered_fraction >= prev,
                "[{mode:?}] coverage must be monotone in the retry budget: \
                 {} < {prev} at max_retries={max_retries}",
                out.coverage.answered_fraction
            );
            prev = out.coverage.answered_fraction;
            assert!(
                out.metrics.retries <= out.metrics.timeouts,
                "[{mode:?}] every retry is preceded by a timeout"
            );
            if max_retries == 0 {
                assert_eq!(
                    out.metrics.retries, 0,
                    "[{mode:?}] a zero budget must never retry"
                );
            }
            if max_retries == 4 {
                // p=0.3 with five attempts per edge and failover behind it:
                // the budget fully masks the losses on this schedule.
                assert!(out.coverage.is_complete(), "[{mode:?}]");
                let mut answers = out.answers.clone();
                answers.sort_by(|x, y| {
                    score
                        .score(&y.point)
                        .total_cmp(&score.score(&x.point))
                        .then_with(|| x.id.cmp(&y.id))
                });
                answers.truncate(10);
                assert_eq!(
                    ids(&answers),
                    ids(&centralized_topk(&survivors(&net), &score, 10)),
                    "[{mode:?}] a generous budget must recover exact answers"
                );
            }
        }
    }
}

/// Certificates across a crash → repair → query lifecycle: before repair the
/// tiling closes over honestly-declared unreachable tiles and the generation
/// stamp pins the damaged snapshot; after `repair_all` a fresh certificate
/// carries the *new* generation, tiles the domain with no unreachable
/// volume, and the stale pre-repair certificate is rejected with a
/// generation mismatch — it certifies an answer about an overlay that no
/// longer exists.
#[test]
fn certificates_span_crash_repair_query_lifecycle() {
    use crate::topk::run_topk_certified;
    use ripple_verify::{verify_coverage, verify_generation, verify_topk, VerifyError};
    let (mut net, mut rng) = loaded_net(2, 48, 600, 48);
    let score = LinearScore::uniform(2);
    for _ in 0..5 {
        if net.peer_count() > 1 {
            let victim = net.random_peer(&mut rng);
            net.crash(victim);
        }
    }
    net.check_invariants();
    assert!(!net.orphan_regions().is_empty());
    let damaged_epoch = net.epoch();
    let initiator = net.random_peer(&mut rng);
    for mode in MODES {
        let exec = Executor::with_faults(&net, crash_aware(), 5);
        let (got, _, cov, cert) = run_topk_certified(&exec, initiator, score.clone(), 10, mode);
        let cert = cert.expect("certificates are on by default");
        verify_topk(&cert, &got, &score, 10, damaged_epoch)
            .unwrap_or_else(|e| panic!("[{mode:?}] damaged-overlay certificate rejected: {e}"));
        verify_coverage(&cert, cov.answered_fraction, &cov.unreachable)
            .unwrap_or_else(|e| panic!("[{mode:?}] coverage rejected: {e}"));
        if mode == Mode::Broadcast {
            assert!(
                cert.regions
                    .iter()
                    .any(|r| matches!(r, ripple_verify::CertRegion::Unreachable { .. })),
                "broadcast over a damaged overlay must declare unreachable tiles"
            );
        }
    }
    // The stale certificate is pinned to the damaged snapshot.
    let exec = Executor::with_faults(&net, crash_aware(), 5);
    let (_, _, _, stale) = run_topk_certified(&exec, initiator, score.clone(), 10, Mode::Slow);
    let stale = stale.expect("certificates are on by default");

    net.repair_all();
    net.check_invariants();
    assert!(net.orphan_regions().is_empty());
    let repaired_epoch = net.epoch();
    assert!(
        repaired_epoch > damaged_epoch,
        "repair must advance the overlay generation"
    );
    assert!(
        matches!(
            verify_generation(&stale, repaired_epoch),
            Err(VerifyError::GenerationMismatch { .. })
        ),
        "a pre-repair certificate must not verify against the repaired overlay"
    );
    let initiator = net.random_peer(&mut rng);
    let exec = Executor::with_faults(&net, crash_aware(), 5);
    let (got, _, cov, fresh) = run_topk_certified(&exec, initiator, score.clone(), 10, Mode::Slow);
    let fresh = fresh.expect("certificates are on by default");
    assert!(cov.is_complete(), "repair must restore full coverage");
    verify_topk(&fresh, &got, &score, 10, repaired_epoch)
        .unwrap_or_else(|e| panic!("post-repair certificate rejected: {e}"));
    assert!(
        !fresh
            .regions
            .iter()
            .any(|r| matches!(r, ripple_verify::CertRegion::Unreachable { .. })),
        "a repaired overlay leaves nothing unreachable"
    );
}

#[test]
fn slow_peers_stretch_latency_without_changing_answers() {
    let (net, mut rng) = loaded_net(2, 40, 500, 46);
    let score = LinearScore::uniform(2);
    let initiator = net.random_peer(&mut rng);
    let q = TopKQuery::new(score.clone(), 10);
    let crisp = Executor::new(&net).run(initiator, &q, Mode::Fast);
    let sluggish = Executor::with_faults(
        &net,
        FaultPlane {
            slow_fraction: 0.3,
            slow_penalty_hops: 5,
            seed: 9,
            ..FaultPlane::none()
        },
        0,
    )
    .run(initiator, &q, Mode::Fast);
    assert_eq!(
        crisp.answers, sluggish.answers,
        "delay must not change data"
    );
    assert_eq!(
        crisp.metrics.query_messages, sluggish.metrics.query_messages,
        "no drops, so no extra messages"
    );
    assert!(
        sluggish.metrics.latency > crisp.metrics.latency,
        "slow peers must show up in completion time: {} vs {}",
        sluggish.metrics.latency,
        crisp.metrics.latency
    );
    assert!(sluggish.coverage.is_complete());
}
