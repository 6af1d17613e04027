//! Sequential ≡ parallel: the equivalence suite of the intra-query
//! parallel execution engine.
//!
//! [`Executor::run_parallel`] promises an outcome **bit-identical** to
//! [`Executor::run`] — same answers in the same order, same
//! [`QueryMetrics`] including the per-peer visit sequence, same
//! [`Coverage`] — for every propagation mode, query type, fault setting and
//! thread count. That guarantee rests on three mechanisms this suite
//! exercises together (their unit-level properties are tested in
//! `ripple-net`): keyed per-edge fault streams (no global draw order),
//! link-order [`BranchLedger`] reduction (restores the sequential DFS
//! ledger), and the sharded visited set (schedule-free duplicate totals).
//!
//! The Chord-side twins live in `ripple-chord`'s `tests/parallel.rs`,
//! proving the engine is substrate-generic.
//!
//! [`QueryMetrics`]: ripple_net::QueryMetrics
//! [`Coverage`]: crate::framework::Coverage
//! [`BranchLedger`]: ripple_net::BranchLedger

use crate::exec::Executor;
use crate::framework::{Mode, RankQuery};
use crate::skyline::SkylineQuery;
use crate::topk::TopKQuery;
use ripple_geom::{LinearScore, Norm, PeakScore, Rect, Tuple};
use ripple_midas::MidasNetwork;
use ripple_net::rng::rngs::SmallRng;
use ripple_net::rng::{Rng, SeedableRng};
use ripple_net::{FaultPlane, Substrate};

const MODES: [Mode; 5] = [
    Mode::Fast,
    Mode::Broadcast,
    Mode::Ripple(1),
    Mode::Ripple(2),
    Mode::Slow,
];
const THREADS: [usize; 3] = [2, 3, 4];

fn loaded_net(dims: usize, peers: usize, tuples: u64, seed: u64) -> (MidasNetwork, SmallRng) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut net = MidasNetwork::build(dims, peers, false, &mut rng);
    for i in 0..tuples {
        let t = Tuple::new(i, (0..dims).map(|_| rng.gen::<f64>()).collect::<Vec<_>>());
        net.insert_tuple(t);
    }
    (net, rng)
}

/// The fault settings the engine must be equivalent under: the distinguished
/// no-fault policy, pure drops, and a kitchen-sink plane with drops, slow
/// peers and retries all active.
fn planes() -> [FaultPlane; 3] {
    [
        FaultPlane::none(),
        FaultPlane::drops(0.15, 17),
        FaultPlane {
            drop_probability: 0.1,
            slow_fraction: 0.3,
            slow_penalty_hops: 3,
            timeout_hops: 2,
            max_retries: 2,
            seed: 11,
            ..FaultPlane::none()
        },
    ]
}

/// Runs `query` through the sequential and the parallel engine under every
/// mode × plane × thread count and asserts bit-identical outcomes.
fn assert_parallel_identical<Q>(net: &MidasNetwork, query: &Q, rng: &mut SmallRng, label: &str)
where
    Q: RankQuery<Rect> + Sync,
    Q::Global: Send + Sync,
    Q::Local: Send,
{
    for plane in planes() {
        for mode in MODES {
            let initiator = net.random_peer(rng);
            let exec = Executor::with_faults(net, plane, 3);
            let seq = exec.run(initiator, query, mode);
            for threads in THREADS {
                let par = exec.run_parallel(initiator, query, mode, threads);
                assert_eq!(
                    seq.metrics, par.metrics,
                    "{label} [{mode:?}, {threads} threads, drop_p={}]: ledgers must be \
                     bit-identical (incl. the visit sequence)",
                    plane.drop_probability
                );
                assert_eq!(
                    seq.answers, par.answers,
                    "{label} [{mode:?}, {threads} threads]: answer streams must be \
                     identical, element for element"
                );
                assert_eq!(
                    seq.coverage, par.coverage,
                    "{label} [{mode:?}, {threads} threads]: coverage must agree \
                     (incl. the per-area abandonment order)"
                );
                assert_eq!(
                    seq.certificate, par.certificate,
                    "{label} [{mode:?}, {threads} threads]: certificates must be \
                     bit-identical, tile for tile in emission order"
                );
            }
        }
    }
}

#[test]
fn parallel_equals_sequential_for_every_query_type() {
    let (net, mut rng) = loaded_net(2, 48, 600, 141);
    for k in [1usize, 10] {
        let q = TopKQuery::new(LinearScore::uniform(2), k);
        assert_parallel_identical(&net, &q, &mut rng, &format!("topk-linear k={k}"));
    }
    let peak: Vec<f64> = vec![0.3, 0.7];
    let q = TopKQuery::new(PeakScore::new(peak, Norm::L2), 8);
    assert_parallel_identical(&net, &q, &mut rng, "topk-peak");
    assert_parallel_identical(&net, &SkylineQuery::new(), &mut rng, "skyline");
    let c = Rect::new(vec![0.2, 0.2], vec![0.9, 0.9]);
    assert_parallel_identical(
        &net,
        &SkylineQuery::constrained(c),
        &mut rng,
        "skyline-constrained",
    );
}

#[test]
fn parallel_equals_sequential_in_three_dims() {
    let (net, mut rng) = loaded_net(3, 32, 400, 142);
    let q = TopKQuery::new(LinearScore::uniform(3), 12);
    assert_parallel_identical(&net, &q, &mut rng, "topk-3d");
    assert_parallel_identical(&net, &SkylineQuery::new(), &mut rng, "skyline-3d");
}

#[test]
fn parallel_equals_sequential_on_a_crash_damaged_overlay() {
    let (mut net, mut rng) = loaded_net(2, 48, 600, 143);
    for _ in 0..6 {
        if net.peer_count() > 1 {
            let victim = net.random_peer(&mut rng);
            net.crash(victim);
        }
    }
    net.check_invariants();
    let crash_aware = FaultPlane {
        crash_fraction: 1.0,
        timeout_hops: 2,
        max_retries: 1,
        seed: 3,
        ..FaultPlane::none()
    };
    let q = TopKQuery::new(LinearScore::uniform(2), 10);
    for mode in MODES {
        let initiator = net.random_peer(&mut rng);
        let exec = Executor::with_faults(&net, crash_aware, 9);
        let seq = exec.run(initiator, &q, mode);
        for threads in THREADS {
            let par = exec.run_parallel(initiator, &q, mode, threads);
            assert_eq!(seq.metrics, par.metrics, "[{mode:?}, {threads} threads]");
            assert_eq!(seq.answers, par.answers, "[{mode:?}, {threads} threads]");
            assert_eq!(seq.coverage, par.coverage, "[{mode:?}, {threads} threads]");
            assert_eq!(
                seq.certificate, par.certificate,
                "[{mode:?}, {threads} threads]: certificates must survive crash \
                 damage bit-identically"
            );
        }
        // Crash damage abandons areas; the parallel engine must report the
        // same honest partial coverage, not silently full coverage.
        if mode == Mode::Broadcast {
            assert!(!seq.coverage.is_complete(), "crashes must cost coverage");
        }
    }
}

/// Property sweep: across random networks, initiators and seeds, parallel
/// and sequential runs produce identical ledgers — including visit
/// sequences, retries and coverage — and repeated parallel runs replay
/// exactly (no dependence on thread scheduling whatsoever).
#[test]
fn parallel_determinism_property_sweep() {
    for seed in 200u64..206 {
        let dims = 2 + (seed % 2) as usize;
        let (net, mut rng) = loaded_net(dims, 24 + (seed % 3) as usize * 8, 300, seed);
        let k = 1 + (seed % 7) as usize;
        let q = TopKQuery::new(LinearScore::uniform(dims), k);
        let plane = if seed % 2 == 0 {
            FaultPlane::none()
        } else {
            FaultPlane::drops(0.2, seed)
        };
        let mode = MODES[(seed % MODES.len() as u64) as usize];
        let initiator = net.random_peer(&mut rng);
        let exec = Executor::with_faults(&net, plane, seed);
        let seq = exec.run(initiator, &q, mode);
        let par1 = exec.run_parallel(initiator, &q, mode, 4);
        let par2 = exec.run_parallel(initiator, &q, mode, 4);
        assert_eq!(seq.metrics, par1.metrics, "seed {seed} [{mode:?}]");
        assert_eq!(seq.answers, par1.answers, "seed {seed} [{mode:?}]");
        assert_eq!(seq.coverage, par1.coverage, "seed {seed} [{mode:?}]");
        assert_eq!(
            par1.metrics, par2.metrics,
            "seed {seed}: replay must be exact"
        );
        assert_eq!(par1.answers, par2.answers, "seed {seed}");
        assert_eq!(par1.metrics.retries, seq.metrics.retries, "seed {seed}");
    }
}

/// `threads <= 1` *is* the sequential engine (the same code path, not an
/// equivalent one), and `Mode::Slow` always delegates — the degenerate
/// cases the `parallel_exec_bench --threads 1` gate leans on.
#[test]
fn single_thread_and_slow_mode_delegate_to_sequential() {
    let (net, mut rng) = loaded_net(2, 32, 400, 144);
    let q = TopKQuery::new(LinearScore::uniform(2), 5);
    for mode in MODES {
        let initiator = net.random_peer(&mut rng);
        let exec = Executor::new(&net);
        let seq = exec.run(initiator, &q, mode);
        for threads in [0usize, 1] {
            let par = exec.run_parallel(initiator, &q, mode, threads);
            assert_eq!(seq.metrics, par.metrics, "[{mode:?}, {threads} threads]");
            assert_eq!(seq.answers, par.answers);
        }
    }
    // Slow with many threads still takes the sequential path.
    let initiator = net.random_peer(&mut rng);
    let exec = Executor::new(&net);
    let seq = exec.run(initiator, &q, Mode::Slow);
    let par = exec.run_parallel(initiator, &q, Mode::Slow, 8);
    assert_eq!(seq.metrics, par.metrics);
    assert_eq!(seq.answers, par.answers);
}

/// The naive (scan-path) executor and the trace-off executor parallelise
/// identically too — the engine composes with every executor flavour.
#[test]
fn parallel_composes_with_naive_and_trace_off() {
    let (net, mut rng) = loaded_net(2, 40, 500, 145);
    let q = TopKQuery::new(LinearScore::uniform(2), 10);
    let initiator = net.random_peer(&mut rng);
    for mode in [Mode::Fast, Mode::Broadcast] {
        let naive = Executor::new(&net).naive();
        assert_eq!(
            naive.run(initiator, &q, mode).metrics,
            naive.run_parallel(initiator, &q, mode, 3).metrics,
            "[{mode:?}] naive"
        );
        let lean = Executor::new(&net).without_trace();
        let seq = lean.run(initiator, &q, mode);
        let par = lean.run_parallel(initiator, &q, mode, 3);
        assert_eq!(seq.metrics, par.metrics, "[{mode:?}] trace-off");
        assert!(par.metrics.visited.is_empty(), "trace must stay off");
        assert_eq!(seq.answers, par.answers);
    }
}
