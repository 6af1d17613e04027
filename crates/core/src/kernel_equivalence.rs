//! Equivalence suite for the columnar block layer and its scan kernels.
//!
//! The block mirror is a *data layout*, not a semantics change. Every query
//! runs three ways over one network: the indexed executor with its blocked
//! scans forced onto the scalar kernels (`KernelDispatch::ForcedScalar`),
//! the same with the SIMD kernels (`ForcedSimd`), and the plain-scan oracle
//! ([`Executor::naive`], every peer scans its tuple slice as the paper's
//! peers do). The two dispatch arms must produce
//!
//! 1. **identical answer streams, element for element** — the kernels
//!    perform the same floating-point operations in the same order as
//!    their scalar references;
//! 2. **bit-identical cost ledgers** — block pruning only skips blocks
//!    that provably cannot contribute (`QueryMetrics` equality excludes
//!    the data-plane scan counters, which are *expected* to differ: that
//!    is the optimisation);
//! 3. **identical coverage and certificates**, under fault planes, replica
//!    failover and the parallel engine.
//!
//! Against the oracle, ledgers, coverage and certificates are bit-identical
//! too; answers are compared as id-sorted sets, because an indexed top-k
//! walk over a cached projection emits in score order rather than store
//! order.
//!
//! The checks run the `AdHoc` score wrapper (no cache key, so top-k takes
//! the blocked kernel scan instead of the memoised projection) alongside
//! cacheable scores (whose projections are *rebuilt* through the kernels),
//! across every mode, fault plane, and the parallel engine — and repeat
//! under churn so generation bumps invalidate and rebuild the mirror.
//!
//! The Chord-side suite lives in `ripple-chord`'s `tests/kernels.rs`.

use crate::exec::Executor;
use crate::framework::{Mode, RankQuery};
use crate::index_equivalence::by_id;
use crate::skyline::SkylineQuery;
use crate::topk::TopKQuery;
use ripple_geom::{AdHoc, KernelDispatch, LinearScore, Norm, PeakScore, Rect, Tuple};
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
const THREADS: [usize; 2] = [2, 4];

fn loaded_net(dims: usize, peers: usize, tuples: u64, seed: u64) -> (MidasNetwork, SmallRng) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut net = MidasNetwork::build(dims, peers, false, &mut rng);
    for i in 0..tuples {
        let t = Tuple::new(i, (0..dims).map(|_| rng.gen::<f64>()).collect::<Vec<_>>());
        net.insert_tuple(t);
    }
    (net, rng)
}

/// The fault settings the blocked paths must be invisible under: none, and
/// drops with retries (whose failover recovery paths call the query
/// functions over replica views).
fn planes() -> [FaultPlane; 2] {
    [FaultPlane::none(), FaultPlane::drops(0.15, 17)]
}

/// Runs `query` under the forced-scalar and forced-SIMD indexed executors
/// and the plain-scan oracle across every plane × mode, sequential and
/// parallel, and asserts observational equality (see the module docs).
/// On hosts without a vector unit `ForcedSimd` degrades to scalar, so the
/// dispatch comparison stays meaningful (trivially) everywhere; CI also
/// drives both arms through the `RIPPLE_KERNEL_DISPATCH` override.
fn assert_kernels_invisible<Q>(net: &MidasNetwork, query: &Q, rng: &mut SmallRng, label: &str)
where
    Q: RankQuery<Rect> + Sync,
    Q::Global: Send + Sync,
    Q::Local: Send,
{
    for plane in planes() {
        for mode in MODES {
            let initiator = net.random_peer(rng);
            let scalar =
                Executor::with_faults(net, plane, 7).with_dispatch(KernelDispatch::ForcedScalar);
            let simd =
                Executor::with_faults(net, plane, 7).with_dispatch(KernelDispatch::ForcedSimd);
            let s = scalar.run(initiator, query, mode);
            let v = simd.run(initiator, query, mode);
            let o = Executor::with_faults(net, plane, 7)
                .naive()
                .run(initiator, query, mode);
            let at = format!("{label} [{mode:?}, drop_p={}]", plane.drop_probability);
            assert_eq!(
                s.metrics, v.metrics,
                "{at}: forced-scalar and forced-simd ledgers must be bit-identical"
            );
            assert_eq!(
                s.answers, v.answers,
                "{at}: dispatch arms must emit identical answer streams"
            );
            assert_eq!(s.coverage, v.coverage, "{at}: coverage");
            assert_eq!(
                s.certificate, v.certificate,
                "{at}: dispatch arms must emit bit-identical certificates \
                 (the bound witnesses are control-plane folds, never SIMD-kernel output)"
            );
            assert_eq!(
                s.metrics, o.metrics,
                "{at}: blocked and oracle ledgers must be bit-identical (incl. the visit sequence)"
            );
            assert_eq!(
                by_id(&s.answers),
                by_id(&o.answers),
                "{at}: oracle answer set"
            );
            assert_eq!(s.coverage, o.coverage, "{at}: oracle coverage");
            assert_eq!(
                s.certificate, o.certificate,
                "{at}: the data layout must not leak into the certificate"
            );
            for threads in THREADS {
                for (arm, exec) in [("scalar", &scalar), ("simd", &simd)] {
                    let p = exec.run_parallel(initiator, query, mode, threads);
                    let at = format!("{at}, {arm}, {threads} threads");
                    assert_eq!(s.metrics, p.metrics, "{at}: parallel ledger");
                    assert_eq!(s.answers, p.answers, "{at}: parallel answers");
                    assert_eq!(s.coverage, p.coverage, "{at}: parallel coverage");
                    assert_eq!(s.certificate, p.certificate, "{at}: parallel certificate");
                }
            }
        }
    }
}

/// The query battery: ad-hoc (kernel-scanned) and cacheable (projection)
/// score families for top-k, with small and large `k` so both the
/// heap-pruning and the `m < k` top-up paths run, plus unconstrained and
/// constrained skyline (the latter is the blocked fold path).
fn check_all_queries(net: &MidasNetwork, dims: usize, rng: &mut SmallRng) {
    for k in [1usize, 8, 64] {
        let q = TopKQuery::new(AdHoc(LinearScore::uniform(dims)), k);
        assert_kernels_invisible(net, &q, rng, &format!("topk-adhoc-linear k={k}"));
    }
    let peak: Vec<f64> = (0..dims).map(|_| rng.gen::<f64>()).collect();
    let q = TopKQuery::new(AdHoc(PeakScore::new(peak, Norm::L2)), 8);
    assert_kernels_invisible(net, &q, rng, "topk-adhoc-peak");
    let q = TopKQuery::new(LinearScore::uniform(dims), 8);
    assert_kernels_invisible(net, &q, rng, "topk-cached-linear");
    assert_kernels_invisible(net, &SkylineQuery::new(), rng, "skyline");
    let c = Rect::new(vec![0.15; dims], vec![0.85; dims]);
    assert_kernels_invisible(
        net,
        &SkylineQuery::constrained(c),
        rng,
        "skyline-constrained",
    );
}

#[test]
fn blocked_equals_scalar_on_static_networks() {
    for (dims, peers, tuples, seed) in [(2, 40, 2200, 51u64), (4, 24, 1600, 52)] {
        let (net, mut rng) = loaded_net(dims, peers, tuples, seed);
        check_all_queries(&net, dims, &mut rng);
    }
}

#[test]
fn blocked_equals_scalar_under_churn() {
    let dims = 3;
    let (mut net, mut rng) = loaded_net(dims, 20, 1200, 53);
    let mut next_id = 1200u64;
    for round in 0..3 {
        // Inserts bump store generations: stale mirrors must be rebuilt,
        // never consulted.
        for _ in 0..50 {
            let t = Tuple::new(
                next_id,
                (0..dims).map(|_| rng.gen::<f64>()).collect::<Vec<_>>(),
            );
            next_id += 1;
            net.insert_tuple(t);
        }
        // Splits drain tuples across stores; departures re-insert them.
        let key = ripple_geom::Point::new((0..dims).map(|_| rng.gen::<f64>()).collect::<Vec<_>>());
        net.join(&key);
        if round % 2 == 1 {
            let victim = net.random_peer(&mut rng);
            net.leave(victim);
        }
        net.check_invariants();
        let q = TopKQuery::new(AdHoc(LinearScore::uniform(dims)), 8);
        assert_kernels_invisible(&net, &q, &mut rng, "churn topk-adhoc");
        let c = Rect::new(vec![0.1; dims], vec![0.9; dims]);
        assert_kernels_invisible(
            &net,
            &SkylineQuery::constrained(c),
            &mut rng,
            "churn skyline-constrained",
        );
    }
}

#[test]
fn forced_simd_equals_forced_scalar_across_modes_and_planes() {
    // 4-d exercises full vector lanes plus a tail on AVX2; 3-d is all-tail.
    for (dims, peers, tuples, seed) in [(3, 28, 1800, 61u64), (4, 24, 1600, 62)] {
        let (net, mut rng) = loaded_net(dims, peers, tuples, seed);
        for k in [1usize, 8, 64] {
            let q = TopKQuery::new(AdHoc(LinearScore::uniform(dims)), k);
            assert_kernels_invisible(&net, &q, &mut rng, &format!("topk-adhoc-linear k={k}"));
        }
        let peak: Vec<f64> = (0..dims).map(|_| rng.gen::<f64>()).collect();
        let q = TopKQuery::new(AdHoc(PeakScore::new(peak, Norm::L2)), 8);
        assert_kernels_invisible(&net, &q, &mut rng, "topk-adhoc-peak");
        assert_kernels_invisible(&net, &SkylineQuery::new(), &mut rng, "skyline");
        let c = Rect::new(vec![0.15; dims], vec![0.85; dims]);
        assert_kernels_invisible(
            &net,
            &SkylineQuery::constrained(c),
            &mut rng,
            "skyline-constrained",
        );
    }
}

#[test]
fn planner_runs_are_dispatch_invariant() {
    use crate::planner::{run_planned, PlanInputs, Planner, QueryHint};
    let (net, mut rng) = loaded_net(4, 24, 1600, 63);
    let exec_s = Executor::new(&net).with_dispatch(KernelDispatch::ForcedScalar);
    let exec_v = Executor::new(&net).with_dispatch(KernelDispatch::ForcedSimd);
    let query = TopKQuery::new(AdHoc(LinearScore::uniform(4)), 8);
    let inputs = PlanInputs {
        peers: net.peer_count(),
        delta: net.delta(),
        hint: QueryHint::TopK { k: 8 },
    };
    // Separate planners, same deterministic probe order: both arms must
    // walk the same plan sequence (wall-clock feedback may differ, but the
    // message/latency EWMAs that dominate the choice are bit-identical).
    let mut planner_s = Planner::new(1);
    let mut planner_v = Planner::new(1);
    let initiator = net.random_peer(&mut rng);
    for round in 0..6 {
        let s = run_planned(&mut planner_s, &exec_s, initiator, &query, &inputs);
        let v = run_planned(&mut planner_v, &exec_v, initiator, &query, &inputs);
        let (ps, pv) = (
            s.metrics.plan.clone().expect("plan stamped"),
            v.metrics.plan.clone().expect("plan stamped"),
        );
        // Probe rounds are fully deterministic; afterwards the choice could
        // in principle diverge on wall-clock noise, so only pin the probes.
        if ps.source == ripple_net::PlanSource::Probe {
            assert_eq!(ps, pv, "round {round}: probe sequences must match");
            assert_eq!(s.answers, v.answers, "round {round}");
            assert_eq!(s.metrics, v.metrics, "round {round}: ledgers");
        }
        // Each arm's planned run must be bit-identical to a static run of
        // whatever mode its planner picked, on the *opposite* dispatch arm
        // (this is dispatch- and planner-invisibility at once).
        let s_static = exec_v.run(initiator, &query, ps.mode.into());
        assert_eq!(s.answers, s_static.answers, "round {round}: planned≡static");
        assert_eq!(
            s.metrics, s_static.metrics,
            "round {round}: planned≡static ledgers"
        );
        let v_static = exec_s.run(initiator, &query, pv.mode.into());
        assert_eq!(v.answers, v_static.answers, "round {round}: planned≡static");
        assert_eq!(
            v.metrics, v_static.metrics,
            "round {round}: planned≡static ledgers"
        );
    }
}

#[test]
fn scan_counters_report_blocked_work() {
    // The oracle scans plain slices and never reads the mirror, so one
    // network serves both arms and the oracle's scan count is the full
    // scalar effort.
    let (net, mut rng) = loaded_net(2, 32, 4000, 57);
    let q = TopKQuery::new(AdHoc(LinearScore::new(vec![0.9, 0.1])), 4);
    let initiator = net.random_peer(&mut rng);
    let b = Executor::new(&net).run(initiator, &q, Mode::Fast);
    let s = Executor::new(&net).naive().run(initiator, &q, Mode::Fast);
    assert!(
        b.metrics.tuples_scanned > 0,
        "blocked run must report data-plane work"
    );
    assert!(
        s.metrics.blocks_pruned == 0,
        "the scalar path never prunes blocks"
    );
    assert!(
        b.metrics.blocks_pruned > 0,
        "a selective top-k over thousands of tuples must prune whole blocks"
    );
    assert!(
        b.metrics.tuples_scanned < s.metrics.tuples_scanned,
        "pruned blocks are rows the blocked scan never touched \
         (blocked {} vs scalar {})",
        b.metrics.tuples_scanned,
        s.metrics.tuples_scanned
    );
    // The optimisation changes the work accounting and nothing else.
    assert_eq!(b.metrics, s.metrics, "ledgers (excl. scan counters)");
    assert_eq!(b.answers, s.answers);
}

#[test]
fn tracing_off_reports_zero_scan_work() {
    let (net, mut rng) = loaded_net(2, 16, 800, 58);
    let q = TopKQuery::new(AdHoc(LinearScore::uniform(2)), 4);
    let initiator = net.random_peer(&mut rng);
    let on = Executor::new(&net).run(initiator, &q, Mode::Fast);
    let off = Executor::new(&net)
        .without_trace()
        .run(initiator, &q, Mode::Fast);
    assert!(on.metrics.tuples_scanned > 0);
    assert_eq!(off.metrics.tuples_scanned, 0, "no brackets, no accounting");
    assert_eq!(off.metrics.blocks_pruned, 0);
    assert_eq!(on.answers, off.answers);
}
