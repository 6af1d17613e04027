//! Chord-side kernel equivalence, the ring counterpart of `ripple-core`'s
//! `kernel_equivalence` suite. The columnar block mirror and its scan
//! kernels live entirely below the substrate boundary, so the indexed
//! executor on either forced dispatch arm and the plain-scan oracle
//! (`Executor::naive`) must be observationally identical over ring-arc
//! regions exactly as over MIDAS boxes — including under fault planes,
//! failover and the parallel engine. The two dispatch arms agree element
//! for element; the oracle's answers are compared as id-sorted sets.

use ripple_chord::ChordNetwork;
use ripple_core::framework::Mode;
use ripple_core::topk::TopKQuery;
use ripple_core::Executor;
use ripple_geom::{AdHoc, KernelDispatch, LinearScore, Tuple};
use ripple_net::rng::rngs::SmallRng;
use ripple_net::rng::{Rng, SeedableRng};
use ripple_net::FaultPlane;

const MODES: [Mode; 4] = [Mode::Fast, Mode::Broadcast, Mode::Ripple(2), Mode::Slow];

fn loaded_ring(peers: usize, tuples: u64, seed: u64) -> (ChordNetwork, SmallRng) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut net = ChordNetwork::build(peers, &mut rng);
    let data: Vec<Tuple> = (0..tuples)
        .map(|i| Tuple::new(i, vec![rng.gen::<f64>()]))
        .collect();
    net.insert_all(data);
    (net, rng)
}

/// Runs `q` under the forced-scalar and forced-SIMD indexed executors and
/// the plain-scan oracle across every plane × mode, sequential and on the
/// pool, and asserts observational equality (see the module docs).
fn assert_kernels_invisible(net: &ChordNetwork, k: usize, rng: &mut SmallRng) {
    // No cache key: peers take the blocked kernel scan, not the memoised
    // projection.
    let q = TopKQuery::new(AdHoc(LinearScore::uniform(1)), k);
    for plane in [FaultPlane::none(), FaultPlane::drops(0.15, 23)] {
        for mode in MODES {
            let initiator = net.random_peer(rng);
            let scalar =
                Executor::with_faults(net, plane, 9).with_dispatch(KernelDispatch::ForcedScalar);
            let simd =
                Executor::with_faults(net, plane, 9).with_dispatch(KernelDispatch::ForcedSimd);
            let s = scalar.run(initiator, &q, mode);
            let v = simd.run(initiator, &q, mode);
            let o = Executor::with_faults(net, plane, 9)
                .naive()
                .run(initiator, &q, mode);
            let at = format!("k={k} [{mode:?}, drop_p={}]", plane.drop_probability);
            assert_eq!(
                s.metrics, v.metrics,
                "{at}: dispatch arms must produce bit-identical ledgers"
            );
            assert_eq!(s.answers, v.answers, "{at}: answer streams");
            assert_eq!(s.coverage, v.coverage, "{at}: coverage");
            assert_eq!(s.certificate, v.certificate, "{at}: certificate");
            assert_eq!(s.metrics, o.metrics, "{at}: oracle ledger");
            assert_eq!(by_id(&s.answers), by_id(&o.answers), "{at}: oracle answers");
            assert_eq!(s.coverage, o.coverage, "{at}: oracle coverage");
            assert_eq!(s.certificate, o.certificate, "{at}: oracle certificate");
            for (arm, exec) in [("scalar", &scalar), ("simd", &simd)] {
                let p = exec.run_parallel(initiator, &q, mode, 4);
                assert_eq!(s.metrics, p.metrics, "{at}: parallel {arm} ledger");
                assert_eq!(s.answers, p.answers, "{at}: parallel {arm} answers");
                assert_eq!(s.coverage, p.coverage, "{at}: parallel {arm} coverage");
            }
        }
    }
}

/// Answers as an id-sorted set: the oracle comparison's answer order.
fn by_id(answers: &[Tuple]) -> Vec<Tuple> {
    let mut v = answers.to_vec();
    v.sort_by_key(|t| t.id);
    v
}

#[test]
fn blocked_equals_scalar_on_the_ring() {
    let (net, mut rng) = loaded_ring(64, 3000, 71);
    for k in [1usize, 12] {
        assert_kernels_invisible(&net, k, &mut rng);
    }
}

#[test]
fn forced_simd_equals_forced_scalar_on_the_ring() {
    let (net, mut rng) = loaded_ring(48, 2400, 73);
    for k in [1usize, 12] {
        assert_kernels_invisible(&net, k, &mut rng);
    }
}

#[test]
fn planner_probes_and_exploits_on_the_ring() {
    use ripple_core::planner::{run_planned, PlanInputs, Planner, QueryHint};
    use ripple_net::PlanSource;
    let (net, mut rng) = loaded_ring(48, 2400, 74);
    let exec = Executor::new(&net);
    let query = TopKQuery::new(AdHoc(LinearScore::uniform(1)), 8);
    // Chord has no tree depth; log2 of the ring size is the radius scale.
    let delta = (net.peer_count() as f64).log2().ceil() as u32;
    let inputs = PlanInputs {
        peers: net.peer_count(),
        delta,
        hint: QueryHint::TopK { k: 8 },
    };
    let mut planner = Planner::new(1);
    let initiator = net.random_peer(&mut rng);
    let probes = Planner::candidates(delta).len();
    for round in 0..probes + 4 {
        let out = run_planned(&mut planner, &exec, initiator, &query, &inputs);
        let plan = out.metrics.plan.clone().expect("plan stamped");
        if round < probes {
            assert_eq!(plan.source, PlanSource::Probe, "round {round}");
        } else if !(round as u64).is_multiple_of(ripple_core::planner::REPROBE_PERIOD) {
            // Periodic frontier re-probes are legitimately Probe-sourced;
            // every other post-probe round must come from the model.
            assert_ne!(plan.source, PlanSource::Probe, "round {round}");
        }
        // Planned runs are bit-identical to a static run of the same mode.
        let fixed = exec.run(initiator, &query, plan.mode.into());
        assert_eq!(out.answers, fixed.answers, "round {round}");
        assert_eq!(out.metrics, fixed.metrics, "round {round}: ledgers");
    }
}

#[test]
fn blocked_scan_prunes_on_the_ring() {
    // The oracle scans plain slices and never reads the mirror, so its
    // scan count is the true scalar effort. Few peers, many tuples: every
    // store spans several blocks, which is what gives the bounded heap
    // blocks to skip.
    let (net, mut rng) = loaded_ring(8, 12000, 72);
    let q = TopKQuery::new(AdHoc(LinearScore::new(vec![1.0])), 4);
    let initiator = net.random_peer(&mut rng);
    let b = Executor::new(&net).run(initiator, &q, Mode::Fast);
    let s = Executor::new(&net).naive().run(initiator, &q, Mode::Fast);
    assert!(b.metrics.blocks_pruned > 0, "selective top-k prunes blocks");
    assert_eq!(s.metrics.blocks_pruned, 0, "scalar path never prunes");
    assert!(b.metrics.tuples_scanned < s.metrics.tuples_scanned);
    assert_eq!(b.metrics, s.metrics, "ledgers (excl. scan counters)");
    assert_eq!(b.answers, s.answers);
}
