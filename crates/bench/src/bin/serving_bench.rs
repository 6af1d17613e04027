//! Multi-tenant serving benchmark (PR acceptance run).
//!
//! Closed-loop load against the [`QueryService`] front door over one MIDAS
//! overlay, in five arms:
//!
//! * **clients** — emulated closed-loop clients (each keeps exactly one
//!   query outstanding) swept 1 → 10 000 at a fixed driver count: the
//!   admission queue and DRR scheduler must absorb four orders of
//!   magnitude of offered concurrency without rejections;
//! * **drivers** — driver threads swept 1 → hardware width at fixed load:
//!   the gated arm — qps must scale with drivers on real multi-core
//!   hardware (hardware-aware gate, see below);
//! * **cache** — a Zipf-hot workload against the generation-keyed result
//!   cache: hits must be message-free;
//! * **identity** — every served response is replayed on a lone
//!   [`Executor`] at the same snapshot and must match bit for bit
//!   (answers, cost ledger, coverage, certificate), and every certificate
//!   must verify through `ripple-verify`;
//! * **churn** — queries race epoch bumps (wave 0 is served before the
//!   first bump, so the arm spans at least two generations); every
//!   certificate must verify against the generation its response claims.
//!
//! The qps-scaling gate is **hardware-aware**, mirroring
//! `parallel_exec_bench`: the 3× target applies only when the host
//! exposes ≥ 8 hardware threads and the sweep reaches that width; on a
//! single-lane host the honest gate is an overhead floor — extra driver
//! threads on one core are time-sliced, not parallel.
//!
//! Writes `results/BENCH_PR8_serving.json` (`--smoke` lands in `target/`
//! instead) and prints a summary table.
//!
//! [`QueryService`]: ripple_core::QueryService
//! [`Executor`]: ripple_core::Executor

use ripple_bench::output::cpu_header_json;
use ripple_bench::runner::midas_uniform_with_data;
use ripple_core::service::{QueryService, ServiceConfig, ServiceQuery, ServiceScore, Ticket};
use ripple_core::topk::run_topk_certified;
use ripple_core::{Executor, Mode};
use ripple_data::zipf::Zipf;
use ripple_geom::{LinearScore, Norm};
use ripple_midas::MidasNetwork;
use ripple_net::rng::rngs::SmallRng;
use ripple_net::rng::SeedableRng;
use ripple_net::PeerId;
use ripple_verify::{verify_coverage, verify_topk};
use std::fmt::Write as _;
use std::time::Instant;

const DIMS: usize = 2;
const K: usize = 16;

struct Config {
    peers: usize,
    records: usize,
    clients_sweep: Vec<usize>,
    drivers_sweep: Vec<usize>,
    smoke: bool,
}

fn parse_args() -> Config {
    let mut smoke = false;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--smoke" => smoke = true,
            other => panic!("unknown flag {other} (supported: --smoke)"),
        }
    }
    let hw = hardware_width();
    let (peers, records, clients_sweep) = if smoke {
        (192, 4_000, vec![1, 10, 100])
    } else {
        (2_000, 20_000, vec![1, 10, 100, 1_000, 10_000])
    };
    // Driver counts: powers of two up to the hardware width (always at
    // least [1, 2] so the sweep exists even on a single-lane host).
    let mut drivers_sweep = vec![1usize];
    let mut d = 2;
    while d <= hw.max(2) {
        drivers_sweep.push(d);
        d *= 2;
    }
    Config {
        peers,
        records,
        clients_sweep,
        drivers_sweep,
        smoke,
    }
}

fn hardware_width() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A distinct (cache-immiscible) top-k shape per index.
fn distinct_shape(i: usize) -> ServiceQuery {
    ServiceQuery::TopK {
        score: ServiceScore::Linear(vec![1.0, 0.25 + i as f64 / 4096.0]),
        k: K,
    }
}

fn service_config(drivers: usize, cache: bool, capacity: usize) -> ServiceConfig {
    ServiceConfig {
        drivers,
        cache,
        queue_capacity: capacity,
        ..ServiceConfig::default()
    }
}

/// One closed-loop round: one query per emulated client (each client has
/// exactly one outstanding query), then a barrier on all tickets. Returns
/// the tickets' responses.
fn round(
    service: &QueryService<MidasNetwork>,
    inits: &[PeerId],
    shapes: &[ServiceQuery],
    mode: Mode,
) -> Vec<ripple_core::ServiceResponse> {
    let tickets: Vec<Ticket> = (0..shapes.len())
        .map(|c| {
            service
                .submit(c as u32, inits[c % inits.len()], shapes[c].clone(), mode)
                .expect("admission (capacity sized to the client count)")
        })
        .collect();
    tickets
        .into_iter()
        .map(|t| t.wait().expect("admitted queries complete"))
        .collect()
}

fn main() {
    let cfg = parse_args();
    let hw = hardware_width();
    eprintln!(
        "building network: {} peers, {} tuples, {DIMS}-d (hardware threads: {hw}) ...",
        cfg.peers, cfg.records
    );
    let mut rng = SmallRng::seed_from_u64(0x5e12e);
    let data = ripple_data::synth::uniform(DIMS, cfg.records, &mut rng);
    let base = midas_uniform_with_data(DIMS, cfg.peers, false, &data, 8);
    let inits: Vec<PeerId> = (0..64).map(|_| base.random_peer(&mut rng)).collect();

    // ---- clients arm: 1 -> 10k closed-loop clients, fixed drivers -------
    let mut clients_json = String::new();
    let clients_drivers = 2usize;
    for &c in &cfg.clients_sweep {
        let rounds = (512 / c).clamp(1, 32);
        let service =
            QueryService::new(base.clone(), service_config(clients_drivers, false, c + 16));
        let shapes: Vec<ServiceQuery> = (0..c).map(distinct_shape).collect();
        let t0 = Instant::now();
        let mut served = 0usize;
        for _ in 0..rounds {
            served += round(&service, &inits, &shapes, Mode::Fast).len();
        }
        let wall = t0.elapsed().as_secs_f64();
        let qps = served as f64 / wall.max(1e-9);
        let stats = service.stats();
        assert_eq!(
            stats.rejected, 0,
            "{c} clients: no rejections at sized capacity"
        );
        assert_eq!(stats.completed, served as u64);
        println!(
            "clients {c:>6}: {served:>6} queries in {:>8.1} ms  ({qps:>9.0} qps)",
            wall * 1e3
        );
        let _ = writeln!(
            clients_json,
            "    {{ \"clients\": {c}, \"drivers\": {clients_drivers}, \"rounds\": {rounds}, \
             \"queries\": {served}, \"wall_ms\": {:.3}, \"qps\": {qps:.1} }},",
            wall * 1e3
        );
        service.shutdown();
    }
    let clients_json = clients_json.trim_end().trim_end_matches(',').to_string();

    // ---- drivers arm: the gated qps-scaling sweep -----------------------
    let scale_clients = if cfg.smoke { 16 } else { 64 };
    let scale_rounds = if cfg.smoke { 4 } else { 8 };
    let shapes: Vec<ServiceQuery> = (0..scale_clients).map(distinct_shape).collect();
    let mut drivers_json = String::new();
    let mut qps_at_1 = 0.0f64;
    let mut best_scaling = 0.0f64;
    for &d in &cfg.drivers_sweep {
        let service = QueryService::new(base.clone(), service_config(d, false, scale_clients + 16));
        // Warm-up round outside the clock.
        round(&service, &inits, &shapes, Mode::Fast);
        let t0 = Instant::now();
        let mut served = 0usize;
        for _ in 0..scale_rounds {
            served += round(&service, &inits, &shapes, Mode::Fast).len();
        }
        let wall = t0.elapsed().as_secs_f64();
        let qps = served as f64 / wall.max(1e-9);
        if d == 1 {
            qps_at_1 = qps;
        }
        let scaling = qps / qps_at_1.max(1e-9);
        best_scaling = best_scaling.max(scaling);
        println!(
            "drivers {d:>2}: {served:>6} queries in {:>8.1} ms  ({qps:>9.0} qps, {scaling:.2}x vs 1 driver)",
            wall * 1e3
        );
        let _ = writeln!(
            drivers_json,
            "    {{ \"drivers\": {d}, \"clients\": {scale_clients}, \"queries\": {served}, \
             \"wall_ms\": {:.3}, \"qps\": {qps:.1}, \"scaling_vs_1\": {scaling:.3} }},",
            wall * 1e3
        );
        service.shutdown();
    }
    let drivers_json = drivers_json.trim_end().trim_end_matches(',').to_string();

    // ---- cache arm: Zipf-hot shapes against the shared result cache -----
    let hot_shapes: Vec<ServiceQuery> = (0..16)
        .map(|i| ServiceQuery::TopK {
            score: ServiceScore::Peak(vec![0.2 + i as f64 / 32.0, 0.7 - i as f64 / 64.0], Norm::L2),
            k: K,
        })
        .collect();
    let zipf = Zipf::new(hot_shapes.len(), 1.0);
    let zipf_queries = if cfg.smoke { 200 } else { 1_000 };
    let service = QueryService::new(base.clone(), service_config(2, true, zipf_queries + 16));
    let workload: Vec<ServiceQuery> = (0..zipf_queries)
        .map(|_| hot_shapes[zipf.sample(&mut rng)].clone())
        .collect();
    let responses = round(&service, &inits, &workload, Mode::Fast);
    let hits = responses.iter().filter(|r| r.cache_hit).count();
    for r in &responses {
        if r.cache_hit {
            assert_eq!(r.metrics.total_messages(), 0, "cache hits are message-free");
        }
    }
    let hit_rate = hits as f64 / responses.len() as f64;
    assert!(
        hit_rate > 0.5,
        "a Zipf-hot workload over 16 shapes must mostly hit ({hit_rate:.2})"
    );
    println!(
        "cache: {} queries, {hits} hits ({:.0}% hit rate)",
        responses.len(),
        hit_rate * 100.0
    );
    service.shutdown();

    // ---- identity arm: every response replays bit-identically -----------
    let id_queries = if cfg.smoke { 24 } else { 60 };
    let service = QueryService::new(base.clone(), service_config(3, true, id_queries + 16));
    let modes = [Mode::Fast, Mode::Slow, Mode::Ripple(2), Mode::Broadcast];
    let mut verified = 0usize;
    let mut submissions = Vec::new();
    for i in 0..id_queries {
        // Every 4th query repeats shape 0 so the arm also replays hits.
        let shape = if i % 4 == 0 {
            distinct_shape(0)
        } else {
            distinct_shape(i)
        };
        let mode = modes[i % modes.len()];
        let w = inits[i % inits.len()];
        let ticket = service
            .submit(i as u32 % 8, w, shape.clone(), mode)
            .expect("admission");
        submissions.push((shape, mode, w, ticket));
    }
    let generation = service.generation();
    for (i, (shape, mode, w, ticket)) in submissions.into_iter().enumerate() {
        let resp = ticket.wait().expect("admitted queries complete");
        assert_eq!(resp.generation, generation, "no churn in this arm");
        let ServiceQuery::TopK {
            score: ServiceScore::Linear(weights),
            k,
        } = &shape
        else {
            unreachable!()
        };
        let score = LinearScore::new(weights.clone());
        let cert = resp.certificate.as_deref().expect("certificates on");
        verify_topk(cert, &resp.answers, &score, *k, generation)
            .unwrap_or_else(|e| panic!("identity q={i} [{mode:?}]: rejected: {e}"));
        verify_coverage(
            cert,
            resp.coverage.answered_fraction,
            &resp.coverage.unreachable,
        )
        .unwrap_or_else(|e| panic!("identity q={i} [{mode:?}]: coverage: {e}"));
        service.with_network(|net| {
            let exec = Executor::new(net);
            let (answers, metrics, coverage, cert2) =
                run_topk_certified(&exec, w, score.clone(), *k, mode);
            assert_eq!(resp.answers, answers, "identity q={i} [{mode:?}]: answers");
            assert_eq!(
                resp.coverage, coverage,
                "identity q={i} [{mode:?}]: coverage"
            );
            if resp.cache_hit {
                // A hit replays the cached answers; its certificate is the
                // original run's and still verifies at this generation.
                assert_eq!(resp.metrics.total_messages(), 0);
            } else {
                assert_eq!(resp.metrics, metrics, "identity q={i} [{mode:?}]: ledger");
                assert_eq!(
                    resp.certificate.as_deref(),
                    cert2.as_ref(),
                    "identity q={i} [{mode:?}]: certificate"
                );
            }
        });
        verified += 1;
    }
    println!(
        "identity: {verified} served queries replayed bit-identically, all certificates verified"
    );
    service.shutdown();

    // ---- churn arm: queries race epoch bumps ----------------------------
    let service = QueryService::new(base.clone(), service_config(3, true, 1_024));
    let waves = if cfg.smoke { 4 } else { 8 };
    let per_wave = 12usize;
    let mut in_flight = Vec::new();
    let mut served = Vec::new();
    let mut churn_rng = SmallRng::seed_from_u64(0xc4a2);
    for wave in 0..waves {
        for i in 0..per_wave {
            let shape = distinct_shape(wave * per_wave + i);
            let mode = modes[i % modes.len()];
            let w = inits[(wave + i) % inits.len()];
            let ticket = service
                .submit(i as u32 % 4, w, shape.clone(), mode)
                .expect("admission");
            in_flight.push((shape, ticket));
        }
        if wave == 0 {
            // Wave 0 is served in full before the first bump, so the run
            // straddles at least two generations; later waves race.
            for (shape, ticket) in in_flight.drain(..) {
                served.push((shape, ticket.wait().expect("admitted queries complete")));
            }
        }
        service.advance_epoch(|net| {
            net.join_random(&mut churn_rng);
        });
    }
    for (shape, ticket) in in_flight {
        served.push((shape, ticket.wait().expect("admitted queries complete")));
    }
    let mut generations = std::collections::HashSet::new();
    for (i, (shape, resp)) in served.into_iter().enumerate() {
        let ServiceQuery::TopK {
            score: ServiceScore::Linear(weights),
            k,
        } = &shape
        else {
            unreachable!()
        };
        let cert = resp.certificate.as_deref().expect("certificates on");
        verify_topk(
            cert,
            &resp.answers,
            &LinearScore::new(weights.clone()),
            *k,
            resp.generation,
        )
        .unwrap_or_else(|e| panic!("churn q={i}: rejected against claimed generation: {e}"));
        generations.insert(resp.generation);
    }
    assert!(
        generations.len() >= 2,
        "churn: queries must straddle an epoch bump (served {} generation(s))",
        generations.len()
    );
    let churn_queries = waves * per_wave;
    println!(
        "churn: {churn_queries} queries raced {waves} epoch bumps, served across {} generation(s), all certificates verified",
        generations.len()
    );
    service.shutdown();

    // ---- hardware-aware acceptance gate ---------------------------------
    let widest = cfg.drivers_sweep.iter().copied().max().unwrap_or(1);
    let wants_3x = hw >= 8 && !cfg.smoke && widest >= 8;
    let (gate_name, gate) = if wants_3x {
        (
            "qps scaling >= 3.0 at >= 8 drivers on >= 8-way hardware",
            3.0,
        )
    } else if hw >= 2 && widest >= 2 {
        (
            "best qps scaling >= 1.0 (multi-core host, tiny/smoke scale)",
            1.0,
        )
    } else {
        (
            "best qps scaling >= 0.85 (single-lane host: scheduler overhead floor only)",
            0.85,
        )
    };

    let clients_list = cfg
        .clients_sweep
        .iter()
        .map(|c| c.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let drivers_list = cfg
        .drivers_sweep
        .iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\n  \"bench\": \"serving\",\n  {cpu},\n  \"config\": {{ \"peers\": {}, \"records\": {}, \
         \"dims\": {DIMS}, \"k\": {K}, \"clients\": [{clients_list}], \"drivers\": [{drivers_list}], \
         \"smoke\": {} }},\n  \"hardware\": {{ \"available_parallelism\": {hw} }},\n  \
         \"equivalence\": \"every served response replayed bit-identically on a lone executor \
         (answers, ledger, coverage, certificate); every certificate verified by ripple-verify \
         against the generation its response claims, including under racing churn\",\n  \
         \"cache\": {{ \"queries\": {}, \"hits\": {hits}, \"hit_rate\": {hit_rate:.3} }},\n  \
         \"identity\": {{ \"queries\": {verified} }},\n  \
         \"churn\": {{ \"queries\": {churn_queries}, \"epoch_bumps\": {waves}, \
         \"generations_served\": {} }},\n  \
         \"acceptance\": {{ \"gate\": \"{gate_name}\", \"best_qps_scaling\": {best_scaling:.3} }},\n  \
         \"clients_sweep\": [\n{clients_json}\n  ],\n  \"drivers_sweep\": [\n{drivers_json}\n  ]\n}}\n",
        cfg.peers,
        cfg.records,
        cfg.smoke,
        zipf_queries,
        generations.len(),
        cpu = cpu_header_json(),
    );
    // Smoke runs land in target/ so repeated gate runs never clobber the
    // committed full-scale numbers.
    let path = if cfg.smoke {
        std::fs::create_dir_all("target").expect("create target dir");
        "target/BENCH_PR8_serving_smoke.json"
    } else {
        std::fs::create_dir_all("results").expect("create results dir");
        "results/BENCH_PR8_serving.json"
    };
    std::fs::write(path, json).expect("write results");
    eprintln!("wrote {path}");

    assert!(
        best_scaling >= gate,
        "acceptance: {gate_name} (best {best_scaling:.3}x on {hw}-way hardware)"
    );
    println!("acceptance: best qps scaling {best_scaling:.2}x  [{gate_name}] — ok");
}
