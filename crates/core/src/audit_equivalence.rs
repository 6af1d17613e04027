//! The commission-fault plane's two contracts, tested together:
//!
//! 1. **Auditing is bit-invisible when nothing is corrupted.** The default
//!    auditing executor, an executor with auditing ablated
//!    ([`Executor::without_audit`]) and one with an explicitly inert plane
//!    ([`CorruptionPlane::none`]) must produce *bit-identical* outcomes —
//!    answers, full cost ledger, coverage, certificate — for every mode ×
//!    fault plane × thread count, on healthy and on crash-damaged
//!    replicated overlays. The audit is an observation of the response
//!    stream, never an input to the walk.
//!
//! 2. **Corruption handling is deterministic.** With an *active* corruption
//!    plane the sequential and parallel engines must still agree bit for
//!    bit: corruption verdicts are keyed by `(sender, initiator, attempt)`,
//!    audit verdicts ride the branch ledgers and merge in link order, and
//!    the quarantine registry is only flushed after the walk — so thread
//!    scheduling can never change which lies are told or caught.
//!
//! The file closes with the worst-case liveness property (100% corruption,
//! zero replicas: every mode still terminates with an honest, degraded
//! coverage report) and the two-peer pathological-ring regression for the
//! failover bookkeeping fix in [`Executor::deliver`].
//!
//! The poisoning direction — corrupted answers demonstrably admitted
//! unaudited and audited out — lives in `verify_mutation`.

use crate::exec::Executor;
use crate::framework::{Mode, RippleOverlay};
use crate::skyline::SkylineQuery;
use crate::topk::TopKQuery;
use ripple_geom::{LinearScore, Rect, Tuple};
use ripple_midas::MidasNetwork;
use ripple_net::rng::rngs::SmallRng;
use ripple_net::rng::{Rng, SeedableRng};
use ripple_net::{CorruptionPlane, FaultPlane, PeerId, Substrate};
use ripple_verify::{verify_coverage, verify_tiling};

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

/// A crash-damaged, replicated overlay (same shape as the certificate
/// equivalence suite's churn section), built deterministically from `seed`.
fn damaged_net(seed: u64) -> (MidasNetwork, SmallRng) {
    let (mut net, mut rng) = loaded_net(2, 48, 600, seed);
    net.enable_replication(1);
    for _ in 0..6 {
        if net.peer_count() > 1 {
            let victim = net.random_peer(&mut rng);
            net.crash(victim);
            net.refresh_replicas();
        }
    }
    net.check_invariants();
    (net, rng)
}

/// Contract 1: with corruption off, the three executor configurations are
/// indistinguishable at the bit level, sequentially and in parallel.
#[test]
fn auditing_is_bit_invisible_with_corruption_off() {
    fn sweep(net: &MidasNetwork, rng: &mut SmallRng, planes: &[FaultPlane], label: &str) {
        let q = TopKQuery::new(LinearScore::uniform(2), 10);
        for &plane in planes {
            for mode in MODES {
                let initiator = net.random_peer(rng);
                let base = Executor::with_faults(net, plane, 7).run(initiator, &q, mode);
                let unaudited = Executor::with_faults(net, plane, 7)
                    .without_audit()
                    .run(initiator, &q, mode);
                let inert = Executor::with_faults(net, plane, 7)
                    .with_corruption(CorruptionPlane::none())
                    .run(initiator, &q, mode);
                for (arm, got) in [("without_audit", &unaudited), ("inert plane", &inert)] {
                    assert_eq!(
                        base.answers, got.answers,
                        "{label} [{mode:?}] {arm} answers"
                    );
                    assert_eq!(base.metrics, got.metrics, "{label} [{mode:?}] {arm} ledger");
                    assert_eq!(
                        base.coverage, got.coverage,
                        "{label} [{mode:?}] {arm} coverage"
                    );
                    assert_eq!(
                        base.certificate, got.certificate,
                        "{label} [{mode:?}] {arm} certificate"
                    );
                }
                assert_eq!(
                    base.metrics.audits_run, 0,
                    "{label} [{mode:?}]: a clean run must not spend a single audit"
                );
                for threads in THREADS {
                    let par = Executor::with_faults(net, plane, 7)
                        .run_parallel(initiator, &q, mode, threads);
                    assert_eq!(base.answers, par.answers, "{label} [{mode:?}] par answers");
                    assert_eq!(base.metrics, par.metrics, "{label} [{mode:?}] par ledger");
                    assert_eq!(base.certificate, par.certificate, "{label} [{mode:?}] par");
                }
                assert_eq!(
                    Substrate::quarantine(net).len(),
                    0,
                    "{label} [{mode:?}]: nobody to quarantine on a clean overlay"
                );
            }
        }
    }

    let (net, mut rng) = loaded_net(2, 48, 600, 91);
    sweep(
        &net,
        &mut rng,
        &[FaultPlane::none(), FaultPlane::drops(0.15, 17)],
        "healthy",
    );
    // A crashed overlay needs a crash-aware plane: the fault-free fast path
    // would deliver into departed peers.
    let crash_aware = FaultPlane {
        crash_fraction: 1.0,
        timeout_hops: 2,
        max_retries: 1,
        seed: 3,
        ..FaultPlane::none()
    };
    let (net, mut rng) = damaged_net(92);
    sweep(&net, &mut rng, &[crash_aware], "crash-damaged");
}

/// Contract 2: an *active* corruption plane is handled identically by the
/// sequential and parallel engines. Runs on twin overlays built from the
/// same seed, because each audited run flushes its verdicts into its own
/// overlay's quarantine registry — sharing one overlay would let the first
/// run's quarantine leak into the second's snapshot.
#[test]
fn corruption_handling_is_identical_sequential_and_parallel() {
    for seed in [93u64, 94] {
        let (net_seq, mut rng) = loaded_net(2, 48, 600, seed);
        let q = TopKQuery::new(LinearScore::uniform(2), 10);
        let plane = CorruptionPlane::flat(0.35, 19);
        for mode in MODES {
            for threads in THREADS {
                let (net_par, _) = loaded_net(2, 48, 600, seed);
                let initiator = net_seq.random_peer(&mut rng);
                let (fresh_seq, _) = loaded_net(2, 48, 600, seed);
                let seq = Executor::with_faults(&fresh_seq, FaultPlane::none(), 7)
                    .with_corruption(plane)
                    .run(initiator, &q, mode);
                let par = Executor::with_faults(&net_par, FaultPlane::none(), 7)
                    .with_corruption(plane)
                    .run_parallel(initiator, &q, mode, threads);
                assert_eq!(seq.answers, par.answers, "[{mode:?}, {threads}t] answers");
                assert_eq!(seq.metrics, par.metrics, "[{mode:?}, {threads}t] ledger");
                assert_eq!(
                    seq.coverage, par.coverage,
                    "[{mode:?}, {threads}t] coverage"
                );
                assert_eq!(
                    seq.certificate, par.certificate,
                    "[{mode:?}, {threads}t] certificate"
                );
                assert_eq!(
                    Substrate::quarantine(&fresh_seq).quarantined(),
                    Substrate::quarantine(&net_par).quarantined(),
                    "[{mode:?}, {threads}t] both engines quarantine the same peers"
                );
            }
        }
    }
}

/// The worst-case liveness property: 100% corruption and not a single
/// replica to recover from. Every mode must still terminate, report
/// degraded coverage honestly, and emit a certificate whose tiling closes
/// and whose coverage claim the independent checker accepts. (`verify_topk`
/// would rightly refuse — the answer is missing tuples — so the property
/// pins the *honesty* layers only.)
#[test]
fn full_corruption_with_no_replicas_terminates_with_honest_coverage() {
    let (net, mut rng) = loaded_net(2, 48, 600, 95);
    let q = TopKQuery::new(LinearScore::uniform(2), 10);
    let plane = CorruptionPlane::flat(1.0, 29);
    for mode in MODES {
        for threads in [0usize, 2] {
            let initiator = net.random_peer(&mut rng);
            let exec = Executor::new(&net).with_corruption(plane);
            let out = if threads == 0 {
                exec.run(initiator, &q, mode)
            } else {
                exec.run_parallel(initiator, &q, mode, threads)
            };
            assert!(
                out.coverage.answered_fraction < 1.0,
                "[{mode:?}, {threads}t]: every remote answer is tainted and \
                 unrecoverable — coverage must degrade"
            );
            assert!(
                !out.coverage.unreachable.is_empty(),
                "[{mode:?}, {threads}t]: the lost volume must be itemized"
            );
            let cert = out.certificate.expect("certs on");
            verify_tiling(&cert, cert.default_tolerance())
                .unwrap_or_else(|e| panic!("[{mode:?}, {threads}t] tiling rejected: {e}"));
            verify_coverage(
                &cert,
                out.coverage.answered_fraction,
                &out.coverage.unreachable,
            )
            .unwrap_or_else(|e| panic!("[{mode:?}, {threads}t] coverage rejected: {e}"));
        }
    }
    // Across the sweep the registry accumulated the liars.
    assert!(Substrate::quarantine(&net).quarantined() > 0);

    // The same sweep on a skyline query: the property is query-agnostic.
    let initiator = net.random_peer(&mut rng);
    let out =
        Executor::new(&net)
            .with_corruption(plane)
            .run(initiator, &SkylineQuery::new(), Mode::Fast);
    assert!(out.coverage.answered_fraction < 1.0);
    let cert = out.certificate.expect("certs on");
    verify_coverage(
        &cert,
        out.coverage.answered_fraction,
        &out.coverage.unreachable,
    )
    .expect("degraded skyline coverage is honest");
}

/// A two-peer pathological overlay whose `failover_target` ignores the
/// `tried` exclusion list — the class of substrate bug the deliver fix
/// defends against. Peer 1 is dead; the overlay keeps nominating it as its
/// own failover forever.
struct PathologicalRing {
    tuples: [Vec<Tuple>; 2],
}

impl RippleOverlay for PathologicalRing {
    type Region = Rect;

    fn full_region(&self) -> Rect {
        Rect::unit(1)
    }

    fn region_intersect(&self, region: &Rect, restriction: &Rect) -> Option<Rect> {
        region.intersection(restriction)
    }

    fn peer_links(&self, peer: PeerId) -> Vec<(PeerId, Rect)> {
        // Peer 0 owns [0, 0.5) and links to peer 1's half, and vice versa.
        if peer.index() == 0 {
            vec![(PeerId::new(1), Rect::new(vec![0.5], vec![1.0]))]
        } else {
            vec![(PeerId::new(0), Rect::new(vec![0.0], vec![0.5]))]
        }
    }

    fn peer_count(&self) -> usize {
        2
    }

    fn peer_tuples(&self, peer: PeerId) -> &[Tuple] {
        &self.tuples[peer.index()]
    }

    fn region_volume(&self, region: &Rect) -> f64 {
        region.volume()
    }

    fn region_rects(&self, region: &Rect) -> Vec<Rect> {
        vec![region.clone()]
    }

    fn is_peer_live(&self, peer: PeerId) -> bool {
        peer.index() == 0
    }

    /// The bug under test: the `tried` list is ignored, so the dead peer 1
    /// is re-nominated on every failover round. Without the executor-side
    /// re-selection guard this livelocks `deliver` forever.
    fn failover_target(&self, region: &Rect, _tried: &[PeerId]) -> Option<(PeerId, Rect)> {
        Some((PeerId::new(1), region.clone()))
    }
}

#[test]
fn deliver_terminates_on_a_ring_whose_failover_ignores_tried() {
    let net = PathologicalRing {
        tuples: [
            vec![Tuple::new(0, vec![0.25])],
            vec![Tuple::new(1, vec![0.75])],
        ],
    };
    let plane = FaultPlane {
        crash_fraction: 1.0,
        timeout_hops: 1,
        max_retries: 1,
        seed: 5,
        ..FaultPlane::none()
    };
    let q = TopKQuery::new(LinearScore::uniform(1), 2);
    // Without the `tried` re-selection filter in `Executor::deliver` this
    // call never returns: transmit to the dead peer 1 fails, the overlay
    // nominates peer 1 again, forever.
    let out = Executor::with_faults(&net, plane, 3).run(PeerId::new(0), &q, Mode::Broadcast);
    assert_eq!(
        out.answers.iter().map(|t| t.id).collect::<Vec<_>>(),
        vec![0],
        "only the live half answers"
    );
    assert!(
        (out.coverage.answered_fraction - 0.5).abs() < 1e-9,
        "the dead half is honestly reported unreachable"
    );
    let cert = out.certificate.expect("certs on");
    verify_tiling(&cert, cert.default_tolerance()).expect("the degraded tiling still closes");
    verify_coverage(
        &cert,
        out.coverage.answered_fraction,
        &out.coverage.unreachable,
    )
    .expect("the degraded coverage is honest");
}
