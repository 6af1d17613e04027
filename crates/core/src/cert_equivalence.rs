//! The certificate plane's two contracts, tested together:
//!
//! 1. **Every query type issues a verifiable certificate.** Fault-free,
//!    across every propagation mode, the `ripple-verify` checker — a
//!    dependency-free second oracle that never talks to the overlay —
//!    accepts the certificate attached to top-k, skyline (plain and
//!    constrained), range and single-tuple diversification outcomes: the
//!    tiling closes over the domain, every pruned region's witness holds
//!    against the final answer, and the generation stamp matches the
//!    overlay epoch the query ran against.
//!
//! 2. **Emission is plan-invisible.** An executor built with
//!    [`Executor::without_certificates`] must be *bit-identical* — answers,
//!    coverage, full cost ledger including the visit sequence — to the
//!    default certifying executor, for every mode, fault plane and thread
//!    count. Certificates are an observation of the run, never an input to
//!    it; the ablated outcome simply carries `certificate: None`.
//!
//! The mutation-harness twin (`verify_mutation`) checks the converse:
//! corrupted runs are *rejected*. The Chord-side integration lives in
//! `ripple-chord`'s `tests/replica.rs`.

use crate::diversify::run_single_tuple_certified;
use crate::exec::Executor;
use crate::framework::{Mode, RankQuery};
use crate::range::run_range_certified;
use crate::skyline::{run_skyline_certified, SkylineQuery};
use crate::topk::{run_topk_certified, TopKQuery};
use ripple_geom::{DiversityQuery, LinearScore, Norm, PeakScore, Rect, Tuple};
use ripple_midas::MidasNetwork;
use ripple_net::rng::rngs::SmallRng;
use ripple_net::rng::{Rng, SeedableRng};
use ripple_net::{FaultPlane, Substrate};
use ripple_verify::{
    verify_coverage, verify_diversify, verify_range, verify_skyline, verify_tiling, verify_topk,
};

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

#[test]
fn every_query_type_issues_a_verifiable_certificate() {
    for (dims, peers, tuples, seed) in [(2usize, 48usize, 600u64, 71u64), (3, 32, 400, 72)] {
        let (net, mut rng) = loaded_net(dims, peers, tuples, seed);
        let generation = net.epoch();
        for mode in MODES {
            let initiator = net.random_peer(&mut rng);
            let exec = Executor::new(&net);

            for k in [1usize, 10] {
                let score = LinearScore::uniform(dims);
                let (got, _, cov, cert) =
                    run_topk_certified(&exec, initiator, score.clone(), k, mode);
                let cert = cert.expect("certificates are on by default");
                verify_topk(&cert, &got, &score, k, generation)
                    .unwrap_or_else(|e| panic!("[{mode:?}, k={k}] top-k rejected: {e}"));
                verify_coverage(&cert, cov.answered_fraction, &cov.unreachable)
                    .unwrap_or_else(|e| panic!("[{mode:?}, k={k}] coverage rejected: {e}"));
                if mode != Mode::Broadcast && k == 1 {
                    assert!(
                        cert.regions
                            .iter()
                            .any(|r| matches!(r, ripple_verify::CertRegion::Pruned { .. })),
                        "[{mode:?}] a selective top-1 must prune somewhere"
                    );
                }
            }
            let peak = PeakScore::new(vec![0.3; dims], Norm::L2);
            let (got, _, _, cert) = run_topk_certified(&exec, initiator, peak.clone(), 8, mode);
            let cert = cert.expect("certificates are on by default");
            verify_topk(&cert, &got, &peak, 8, generation)
                .unwrap_or_else(|e| panic!("[{mode:?}] top-k peak rejected: {e}"));

            let (sky, _, _, cert) =
                run_skyline_certified(&exec, initiator, SkylineQuery::new(), mode);
            let cert = cert.expect("certificates are on by default");
            verify_skyline(&cert, &sky, None, generation)
                .unwrap_or_else(|e| panic!("[{mode:?}] skyline rejected: {e}"));

            let c = Rect::new(vec![0.2; dims], vec![0.9; dims]);
            let (sky, _, _, cert) =
                run_skyline_certified(&exec, initiator, SkylineQuery::constrained(c.clone()), mode);
            let cert = cert.expect("certificates are on by default");
            verify_skyline(&cert, &sky, Some(&c), generation)
                .unwrap_or_else(|e| panic!("[{mode:?}] constrained skyline rejected: {e}"));

            let div = DiversityQuery::new(vec![0.5; dims], 0.5, Norm::L1);
            let set = vec![Tuple::new(u64::MAX, vec![0.5; dims])];
            let (_, candidates, _, _, cert) =
                run_single_tuple_certified(&exec, initiator, &div, &set, f64::INFINITY, mode);
            let cert = cert.expect("certificates are on by default");
            verify_diversify(&cert, &candidates, &div, &set, f64::INFINITY, generation)
                .unwrap_or_else(|e| panic!("[{mode:?}] diversify rejected: {e}"));
        }
        // Range is the degenerate stateless instantiation — always fast.
        let initiator = net.random_peer(&mut rng);
        let exec = Executor::new(&net);
        let range = Rect::new(vec![0.2; dims], vec![0.7; dims]);
        let (got, _, _, cert) = run_range_certified(&exec, initiator, range.clone());
        let cert = cert.expect("certificates are on by default");
        verify_range(&cert, &got, &range, generation)
            .unwrap_or_else(|e| panic!("range rejected: {e}"));
        verify_tiling(&cert, cert.default_tolerance()).expect("range tiling");
        assert!(cert.size_bytes() > 0);
    }
}

/// The ablation sweep: certificate emission must not perturb a single bit
/// of the observable outcome, under every mode × fault plane × thread
/// count, sequentially and in parallel.
#[test]
fn emission_is_plan_invisible_under_ablation() {
    fn sweep<Q>(net: &MidasNetwork, query: &Q, rng: &mut SmallRng, label: &str)
    where
        Q: RankQuery<Rect> + Sync,
        Q::Global: Send + Sync,
        Q::Local: Send,
    {
        let planes = [
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
        ];
        for plane in planes {
            for mode in MODES {
                let initiator = net.random_peer(rng);
                let certifying = Executor::with_faults(net, plane, 7);
                let ablated = Executor::with_faults(net, plane, 7).without_certificates();
                let on = certifying.run(initiator, query, mode);
                let off = ablated.run(initiator, query, mode);
                assert!(
                    on.certificate.is_some(),
                    "{label} [{mode:?}]: the default executor certifies"
                );
                assert!(
                    off.certificate.is_none(),
                    "{label} [{mode:?}]: the ablated executor must not certify"
                );
                assert_eq!(
                    on.metrics, off.metrics,
                    "{label} [{mode:?}, drop_p={}]: ledgers must be bit-identical \
                     with certificates on and off (incl. the visit sequence)",
                    plane.drop_probability
                );
                assert_eq!(
                    on.answers, off.answers,
                    "{label} [{mode:?}]: answers must be identical, element for element"
                );
                assert_eq!(on.coverage, off.coverage, "{label} [{mode:?}]: coverage");
                for threads in THREADS {
                    let off_par = ablated.run_parallel(initiator, query, mode, threads);
                    assert!(off_par.certificate.is_none(), "{label} [{mode:?}]");
                    assert_eq!(
                        on.metrics, off_par.metrics,
                        "{label} [{mode:?}, {threads} threads]: parallel ablated ledger"
                    );
                    assert_eq!(
                        on.answers, off_par.answers,
                        "{label} [{mode:?}, {threads} threads]: parallel ablated answers"
                    );
                    assert_eq!(on.coverage, off_par.coverage, "{label} [{mode:?}]");
                }
            }
        }
    }

    let (net, mut rng) = loaded_net(2, 48, 600, 73);
    let q = TopKQuery::new(LinearScore::uniform(2), 10);
    sweep(&net, &q, &mut rng, "topk-linear");
    sweep(&net, &SkylineQuery::new(), &mut rng, "skyline");
    let c = Rect::new(vec![0.2, 0.2], vec![0.9, 0.9]);
    sweep(
        &net,
        &SkylineQuery::constrained(c),
        &mut rng,
        "skyline-constrained",
    );

    // And on a crash-damaged, replicated overlay: the failover tiles
    // (replica-served, unreachable) are still pure observation.
    let (mut net, mut rng) = loaded_net(2, 48, 600, 74);
    net.enable_replication(1);
    for _ in 0..6 {
        if net.peer_count() > 1 {
            let victim = net.random_peer(&mut rng);
            net.crash(victim);
            net.refresh_replicas();
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
        let on = Executor::with_faults(&net, crash_aware, 9).run(initiator, &q, mode);
        let off = Executor::with_faults(&net, crash_aware, 9)
            .without_certificates()
            .run(initiator, &q, mode);
        assert!(on.certificate.is_some() && off.certificate.is_none());
        assert_eq!(on.metrics, off.metrics, "[{mode:?}] crash-damaged ledger");
        assert_eq!(on.answers, off.answers, "[{mode:?}]");
        assert_eq!(on.coverage, off.coverage, "[{mode:?}]");
    }
}
