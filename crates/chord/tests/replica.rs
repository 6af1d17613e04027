//! Chord-side replica-recovery properties: the twins of `ripple-core`'s
//! `replica_equivalence` suite, proving the recovery path is substrate-
//! generic. On the ring the failover adopter *trims* the abandoned arc to
//! its clockwise-reachable part, so recovery exercises the trim branch of
//! the delivery loop (MIDAS, whose failover adopts whole boxes, only
//! exercises the fully-abandoned branch) — the two suites together cover
//! both code paths.

use ripple_chord::ChordNetwork;
use ripple_core::framework::Mode;
use ripple_core::topk::{centralized_topk, run_topk_with, TopKQuery};
use ripple_core::Executor;
use ripple_geom::{LinearScore, Tuple};
use ripple_net::rng::rngs::SmallRng;
use ripple_net::rng::{Rng, SeedableRng};
use ripple_net::{FaultPlane, Substrate};

const MODES: [Mode; 4] = [Mode::Fast, Mode::Slow, Mode::Ripple(2), Mode::Broadcast];
const THREADS: [usize; 2] = [2, 4];

fn loaded_ring(peers: usize, tuples: u64, seed: u64) -> (ChordNetwork, SmallRng) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut net = ChordNetwork::build(peers, &mut rng);
    let data: Vec<Tuple> = (0..tuples)
        .map(|i| Tuple::new(i, vec![rng.gen::<f64>()]))
        .collect();
    net.insert_all(data);
    (net, rng)
}

fn all_tuples(net: &ChordNetwork) -> Vec<Tuple> {
    net.live_peers()
        .iter()
        .flat_map(|&p| net.peer(p).store.tuples().to_vec())
        .collect()
}

fn ids(tuples: &[Tuple]) -> Vec<u64> {
    tuples.iter().map(|t| t.id).collect()
}

fn crash_aware() -> FaultPlane {
    FaultPlane {
        crash_fraction: 1.0,
        timeout_hops: 2,
        max_retries: 1,
        seed: 5,
        ..FaultPlane::none()
    }
}

/// Crashes `n` non-anchor peers one at a time, one anti-entropy pass after
/// each (failure detector keeping pace with the repair daemon).
fn crash_wave(net: &mut ChordNetwork, rng: &mut SmallRng, n: usize) {
    for _ in 0..n {
        let candidates: Vec<_> = net
            .live_peers()
            .into_iter()
            .filter(|&p| p != net.ring()[0])
            .collect();
        if candidates.is_empty() || net.peer_count() <= 2 {
            break;
        }
        let victim = candidates[rng.gen_range(0..candidates.len())];
        net.crash(victim);
        net.refresh_replicas();
    }
    net.check_invariants();
}

#[test]
fn k_zero_is_bit_identical_to_unreplicated_on_chord() {
    // Twin rings from the same seed, same crash schedule; one never enables
    // replication, the other carries a k = 0 set.
    let (mut plain, mut rng_a) = loaded_ring(64, 400, 61);
    let (mut replicated, mut rng_b) = loaded_ring(64, 400, 61);
    replicated.enable_replication(0);
    for _ in 0..6 {
        let ca: Vec<_> = plain
            .live_peers()
            .into_iter()
            .filter(|&p| p != plain.ring()[0])
            .collect();
        let va = ca[rng_a.gen_range(0..ca.len())];
        let cb: Vec<_> = replicated
            .live_peers()
            .into_iter()
            .filter(|&p| p != replicated.ring()[0])
            .collect();
        let vb = cb[rng_b.gen_range(0..cb.len())];
        assert_eq!(va, vb, "twins must stay in lockstep");
        plain.crash(va);
        replicated.crash(vb);
        replicated.refresh_replicas();
    }
    let q = TopKQuery::new(LinearScore::uniform(1), 8);
    let initiator = plain.random_peer(&mut rng_a);
    let ea = Executor::with_faults(&plain, crash_aware(), 7);
    let eb = Executor::with_faults(&replicated, crash_aware(), 7);
    for mode in MODES {
        let oa = ea.run(initiator, &q, mode);
        let ob = eb.run(initiator, &q, mode);
        assert_eq!(oa.metrics, ob.metrics, "[{mode:?}] k=0 must be inert");
        assert_eq!(oa.answers, ob.answers, "[{mode:?}]");
        assert_eq!(oa.coverage, ob.coverage, "[{mode:?}]");
        assert_eq!(ob.metrics.replica_hits, 0, "[{mode:?}]");
        for threads in THREADS {
            let par = eb.run_parallel(initiator, &q, mode, threads);
            assert_eq!(oa.metrics, par.metrics, "[{mode:?}, {threads} threads]");
            assert_eq!(oa.answers, par.answers, "[{mode:?}, {threads} threads]");
        }
    }
}

#[test]
fn replication_restores_recall_on_a_crashed_ring() {
    for k in [1usize, 2] {
        // k = 2 survives *any* single-crash sequence with anti-entropy in
        // between (one holder can always re-shed); k = 1 additionally needs
        // no crash to hit the sole holder of an already-dead owner inside
        // the run — a deterministic schedule that satisfies it (the fragility
        // itself is exercised in the resilience bench's k-sweep).
        let seed = if k == 1 { 66 } else { 64 };
        let (mut net, mut rng) = loaded_ring(64, 400, seed);
        let oracle_data = all_tuples(&net);
        assert_eq!(oracle_data.len(), 400);
        net.enable_replication(k);
        // ~20 % of the ring crashes at the gated operating point.
        crash_wave(&mut net, &mut rng, 12);
        assert!(net.tuples_lost() > 0, "crashes must have destroyed data");
        let orphan_len: f64 = net.orphan_segments().iter().map(|s| s.side(0)).sum();
        assert!(orphan_len > 0.0);
        let score = LinearScore::uniform(1);
        for mode in MODES {
            let initiator = net.random_peer(&mut rng);
            let exec = Executor::with_faults(&net, crash_aware(), 21);
            let (got, metrics, cov) = run_topk_with(&exec, initiator, score.clone(), 8, mode);
            assert_eq!(
                ids(&got),
                ids(&centralized_topk(&oracle_data, &score, 8)),
                "[k={k}, {mode:?}] recall must equal the oracle over the FULL \
                 initial dataset, dead arcs included"
            );
            assert!(
                cov.is_complete(),
                "[k={k}, {mode:?}] every dead arc must be recovered: {cov:?}"
            );
            assert_eq!(metrics.duplicate_visits, 0, "[k={k}, {mode:?}]");
            if mode == Mode::Broadcast {
                assert!(metrics.replica_hits > 0, "[k={k}]");
                assert!(metrics.replica_bytes > 0, "[k={k}]");
            }
        }
    }
}

#[test]
fn recovery_is_thread_deterministic_on_chord() {
    let (mut net, mut rng) = loaded_ring(64, 400, 65);
    net.enable_replication(2);
    crash_wave(&mut net, &mut rng, 12);
    let q = TopKQuery::new(LinearScore::uniform(1), 8);
    for mode in MODES {
        let initiator = net.random_peer(&mut rng);
        let exec = Executor::with_faults(&net, crash_aware(), 23);
        let seq = exec.run(initiator, &q, mode);
        for threads in THREADS {
            let par = exec.run_parallel(initiator, &q, mode, threads);
            assert_eq!(
                seq.metrics, par.metrics,
                "[{mode:?}, {threads} threads]: recovery is keyed by the \
                 failed edge, not the schedule"
            );
            assert_eq!(seq.answers, par.answers, "[{mode:?}, {threads} threads]");
            assert_eq!(seq.coverage, par.coverage, "[{mode:?}, {threads} threads]");
        }
    }
}

/// Property: the certificate tiling invariant holds on the ring through
/// interleaved churn (inserts, joins) and crash × replica failover waves,
/// for both replica depths and every mode — and the independent checker
/// accepts every certificate against the epoch the query ran at. This is
/// the Chord twin of `ripple-core`'s lifecycle test; arcs wrap, so the
/// tiles here are multi-rect regions, exercising the `Vec<Rect>` geometry
/// path of `ripple-verify`.
#[test]
fn certificates_tile_the_ring_through_churn_and_failover() {
    use ripple_core::topk::run_topk_certified;
    use ripple_verify::{verify_coverage, verify_generation, verify_topk, VerifyError};
    for k in [1usize, 2] {
        let (mut net, mut rng) = loaded_ring(64, 400, 67 + k as u64);
        net.enable_replication(k);
        let mut next_id = 10_000u64;
        let mut stale_cert = None;
        for round in 0..3 {
            // Churn: fresh tuples land on the ring, a peer joins (splitting
            // an arc), then a crash wave with anti-entropy keeping pace.
            for _ in 0..25 {
                net.insert_tuple(Tuple::new(next_id, vec![rng.gen::<f64>()]));
                next_id += 1;
            }
            net.join(rng.gen::<f64>());
            crash_wave(&mut net, &mut rng, 4);
            let epoch = net.epoch();
            let score = LinearScore::uniform(1);
            for mode in MODES {
                let initiator = net.random_peer(&mut rng);
                let exec = Executor::with_faults(&net, crash_aware(), 31);
                let (got, _, cov, cert) =
                    run_topk_certified(&exec, initiator, score.clone(), 8, mode);
                let cert = cert.expect("certificates are on by default");
                verify_topk(&cert, &got, &score, 8, epoch).unwrap_or_else(|e| {
                    panic!("[k={k}, round {round}, {mode:?}] certificate rejected: {e}")
                });
                verify_coverage(&cert, cov.answered_fraction, &cov.unreachable).unwrap_or_else(
                    |e| panic!("[k={k}, round {round}, {mode:?}] coverage rejected: {e}"),
                );
                stale_cert = Some(cert);
            }
        }
        // Churn moved the ring on: the last certificate is pinned to the
        // epoch it was issued at and must not verify against a later one.
        net.insert_tuple(Tuple::new(next_id, vec![0.5]));
        let stale = stale_cert.expect("at least one round ran");
        assert!(
            matches!(
                verify_generation(&stale, net.epoch()),
                Err(VerifyError::GenerationMismatch { .. })
            ),
            "[k={k}] a certificate must not outlive its snapshot"
        );
    }
}

#[test]
fn promotion_at_repair_restores_the_data_itself() {
    let (mut net, mut rng) = loaded_ring(64, 400, 66);
    let initial = all_tuples(&net).len() as u64;
    net.enable_replication(2);
    crash_wave(&mut net, &mut rng, 12);
    let lost = net.tuples_lost();
    assert!(lost > 0);
    net.repair_all();
    net.check_invariants();
    assert!(net.orphan_segments().is_empty());
    let recovered = net.tuples_recovered();
    assert!(recovered > 0, "repair must promote surviving copies");
    let stored = all_tuples(&net).len() as u64;
    assert_eq!(
        stored + lost - recovered,
        initial,
        "ledger: stored + lost - recovered must balance the initial count"
    );
    // After promotion the fault-free oracle over the stored data is served
    // exactly, with no replica reads needed.
    let score = LinearScore::uniform(1);
    let initiator = net.random_peer(&mut rng);
    let exec = Executor::with_faults(&net, crash_aware(), 29);
    let (got, metrics, cov) = run_topk_with(&exec, initiator, score.clone(), 8, Mode::Broadcast);
    assert!(cov.is_complete());
    assert_eq!(metrics.replica_hits, 0, "no dead zones remain");
    assert_eq!(
        ids(&got),
        ids(&centralized_topk(&all_tuples(&net), &score, 8))
    );
}
