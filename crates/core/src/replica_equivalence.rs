//! Property tests for replica-aware failover.
//!
//! Two families of guarantees (the Chord-side twins live in `ripple-chord`'s
//! `tests/replica.rs`, proving the recovery path is substrate-generic):
//!
//! 1. **k = 0 observational identity.** With replication disabled — no
//!    [`ReplicaSet`] at all, a set with `k = 0`, or an executor built with
//!    [`Executor::without_replicas`] — the executor must be *bit-identical*
//!    (answers, coverage, full cost ledger including the visit sequence) to
//!    the historical replica-unaware executor, for every mode, query type,
//!    fault plane and thread count. Recovery is a strict superset of the old
//!    behaviour, not a parallel code path.
//!
//! 2. **k ≥ 1 restores recall 1.0.** On an overlay damaged by ungraceful
//!    crashes (up to 20 % of peers, anti-entropy keeping pace with the
//!    failure detector), every dead zone is answered from a surviving
//!    replica: query answers equal the centralized oracle over the *full*
//!    initial dataset — not merely the survivors — coverage is complete, and
//!    the recovery metrics (`replica_hits`, `stale_reads`, `replica_bytes`)
//!    are deterministic across thread counts because recovery is keyed by
//!    the failed edge, not by the schedule that discovered it.
//!
//! [`ReplicaSet`]: ripple_net::ReplicaSet

use crate::exec::Executor;
use crate::framework::{Mode, RankQuery};
use crate::skyline::{centralized_skyline, run_skyline_query_with, SkylineQuery};
use crate::topk::{centralized_topk, run_topk_with, TopKQuery};
use ripple_geom::{LinearScore, Norm, PeakScore, Rect, Tuple};
use ripple_midas::MidasNetwork;
use ripple_net::rng::rngs::SmallRng;
use ripple_net::rng::{Rng, SeedableRng};
use ripple_net::{FaultPlane, Substrate};

const MODES: [Mode; 4] = [Mode::Fast, Mode::Slow, Mode::Ripple(2), Mode::Broadcast];
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

fn all_tuples(net: &MidasNetwork) -> Vec<Tuple> {
    net.live_peers()
        .iter()
        .flat_map(|&p| net.peer(p).store.tuples().to_vec())
        .collect()
}

fn ids(tuples: &[Tuple]) -> Vec<u64> {
    tuples.iter().map(|t| t.id).collect()
}

/// A plane that detects dead targets (times out, fails over) but injects no
/// drops and no slowness: it isolates crash handling.
fn crash_aware() -> FaultPlane {
    FaultPlane {
        crash_fraction: 1.0,
        timeout_hops: 2,
        max_retries: 1,
        seed: 3,
        ..FaultPlane::none()
    }
}

/// Crashes `n` peers one at a time, running one anti-entropy pass after each
/// — the failure detector and the repair daemon keeping pace, the regime the
/// replication design targets (a copy is lost only when an owner *and* all
/// `k` of its holders die inside one detection window).
fn crash_wave(net: &mut MidasNetwork, rng: &mut SmallRng, n: usize) {
    for _ in 0..n {
        if net.peer_count() > 1 {
            let victim = net.random_peer(rng);
            net.crash(victim);
            net.refresh_replicas();
        }
    }
    net.check_invariants();
}

/// Bit-identity of two outcomes, across every mode × thread count, for one
/// (net_a exec-builder, net_b exec-builder) pair.
fn assert_execs_identical<Q>(
    a: &Executor<'_, MidasNetwork>,
    b: &Executor<'_, MidasNetwork>,
    query: &Q,
    initiator: ripple_net::PeerId,
    label: &str,
) where
    Q: RankQuery<Rect> + Sync,
    Q::Global: Send + Sync,
    Q::Local: Send,
{
    for mode in MODES {
        let oa = a.run(initiator, query, mode);
        let ob = b.run(initiator, query, mode);
        assert_eq!(
            oa.metrics, ob.metrics,
            "{label} [{mode:?}]: ledgers must be bit-identical"
        );
        assert_eq!(oa.answers, ob.answers, "{label} [{mode:?}]");
        assert_eq!(oa.coverage, ob.coverage, "{label} [{mode:?}]");
        // The twins are distinct overlays with distinct mutation histories,
        // so their generation stamps legitimately differ; everything else in
        // the certificate must match tile for tile.
        match (&oa.certificate, &ob.certificate) {
            (Some(ca), Some(cb)) => {
                assert_eq!(
                    ca.regions, cb.regions,
                    "{label} [{mode:?}]: certificate tiles must be bit-identical"
                );
                assert_eq!(ca.domain_volume, cb.domain_volume, "{label} [{mode:?}]");
            }
            (a, b) => assert_eq!(
                a.is_some(),
                b.is_some(),
                "{label} [{mode:?}]: both or neither run certifies"
            ),
        }
        for threads in THREADS {
            let par = b.run_parallel(initiator, query, mode, threads);
            assert_eq!(
                oa.metrics, par.metrics,
                "{label} [{mode:?}, {threads} threads]"
            );
            assert_eq!(oa.answers, par.answers, "{label} [{mode:?}, {threads}]");
            assert_eq!(oa.coverage, par.coverage, "{label} [{mode:?}, {threads}]");
            assert_eq!(
                ob.certificate, par.certificate,
                "{label} [{mode:?}, {threads}]: certificate"
            );
        }
    }
}

/// Builds the same damaged overlay twice (same seed, same crash schedule):
/// once without any replica machinery and once with `enable_replication(k)`.
fn damaged_twins(k: usize, seed: u64) -> (MidasNetwork, MidasNetwork, SmallRng) {
    let (mut plain, mut rng_a) = loaded_net(2, 48, 600, seed);
    let (mut replicated, mut rng_b) = loaded_net(2, 48, 600, seed);
    replicated.enable_replication(k);
    for _ in 0..8 {
        let va = plain.random_peer(&mut rng_a);
        let vb = replicated.random_peer(&mut rng_b);
        assert_eq!(va, vb, "twin construction must stay in lockstep");
        plain.crash(va);
        replicated.crash(vb);
        replicated.refresh_replicas();
    }
    plain.check_invariants();
    replicated.check_invariants();
    (plain, replicated, rng_a)
}

#[test]
fn k_zero_is_bit_identical_to_unreplicated() {
    let (plain, replicated, mut rng) = damaged_twins(0, 51);
    assert!(replicated.replicas().is_some(), "set exists, but k = 0");
    let initiator = plain.random_peer(&mut rng);
    let _ = replicated.random_peer(&mut rng); // keep twin rngs aligned (unused)
    let ea = Executor::with_faults(&plain, crash_aware(), 5);
    let eb = Executor::with_faults(&replicated, crash_aware(), 5);
    let q = TopKQuery::new(LinearScore::uniform(2), 10);
    assert_execs_identical(&ea, &eb, &q, initiator, "k=0 topk");
    assert_execs_identical(&ea, &eb, &SkylineQuery::new(), initiator, "k=0 skyline");
}

#[test]
fn without_replicas_is_bit_identical_to_unreplicated() {
    let (plain, replicated, mut rng) = damaged_twins(2, 52);
    let initiator = plain.random_peer(&mut rng);
    let ea = Executor::with_faults(&plain, crash_aware(), 6);
    let eb = Executor::with_faults(&replicated, crash_aware(), 6).without_replicas();
    let q = TopKQuery::new(LinearScore::uniform(2), 10);
    assert_execs_identical(&ea, &eb, &q, initiator, "ablated topk");
    let peak = TopKQuery::new(PeakScore::new(vec![0.4, 0.6], Norm::L2), 5);
    assert_execs_identical(&ea, &eb, &peak, initiator, "ablated topk-peak");
}

#[test]
fn replication_restores_recall_on_a_crashed_overlay() {
    for k in [1usize, 2] {
        let (mut net, mut rng) = loaded_net(2, 48, 600, 53 + k as u64);
        let oracle_data = all_tuples(&net);
        assert_eq!(oracle_data.len(), 600);
        net.enable_replication(k);
        // 20 % of the overlay crashes (p = 0.2, the gated operating point).
        crash_wave(&mut net, &mut rng, 9);
        assert!(net.tuples_lost() > 0, "crashes must have destroyed data");
        assert!(
            !net.orphan_regions().is_empty(),
            "crashes must orphan volume"
        );
        let score = LinearScore::uniform(2);
        for mode in MODES {
            let initiator = net.random_peer(&mut rng);
            let exec = Executor::with_faults(&net, crash_aware(), 11);
            let (got, metrics, cov) = run_topk_with(&exec, initiator, score.clone(), 10, mode);
            assert_eq!(
                ids(&got),
                ids(&centralized_topk(&oracle_data, &score, 10)),
                "[k={k}, {mode:?}] recall must be 1.0: the answer equals the \
                 oracle over the FULL initial dataset, dead zones included"
            );
            assert!(
                cov.is_complete(),
                "[k={k}, {mode:?}] every dead zone must be recovered: {:?}",
                cov
            );
            assert_eq!(metrics.duplicate_visits, 0, "[k={k}, {mode:?}]");
            if mode == Mode::Broadcast {
                assert!(
                    metrics.replica_hits > 0,
                    "[k={k}] broadcast reaches every dead zone via replicas"
                );
                assert!(metrics.replica_bytes > 0, "[k={k}] payloads are charged");
            }
            let exec = Executor::with_faults(&net, crash_aware(), 11);
            let (sky, _, scov) =
                run_skyline_query_with(&exec, initiator, SkylineQuery::new(), mode);
            assert_eq!(
                sky,
                centralized_skyline(&oracle_data),
                "[k={k}, {mode:?}] skyline recall"
            );
            assert!(scov.is_complete(), "[k={k}, {mode:?}]");
        }
    }
}

#[test]
fn recovery_metrics_are_deterministic_across_thread_counts() {
    let (mut net, mut rng) = loaded_net(2, 48, 600, 57);
    net.enable_replication(2);
    crash_wave(&mut net, &mut rng, 9);
    let q = TopKQuery::new(LinearScore::uniform(2), 10);
    for mode in MODES {
        let initiator = net.random_peer(&mut rng);
        let exec = Executor::with_faults(&net, crash_aware(), 13);
        let seq = exec.run(initiator, &q, mode);
        for threads in THREADS {
            let par = exec.run_parallel(initiator, &q, mode, threads);
            assert_eq!(
                seq.metrics, par.metrics,
                "[{mode:?}, {threads} threads]: replica_hits / stale_reads / \
                 replica_bytes are keyed by the failed edge, not the schedule"
            );
            assert_eq!(seq.answers, par.answers, "[{mode:?}, {threads} threads]");
            assert_eq!(seq.coverage, par.coverage, "[{mode:?}, {threads} threads]");
            assert_eq!(
                seq.certificate, par.certificate,
                "[{mode:?}, {threads} threads]: certificate"
            );
        }
        if mode == Mode::Broadcast {
            assert!(seq.metrics.replica_hits > 0);
        }
    }
}

/// The second oracle over the failover path: certificates issued on a
/// crash-damaged, replicated overlay must verify independently — the
/// replica-served tiles close the tiling over the dead zones, the τ bound
/// witnesses hold for every pruned region, and the generation stamp pins the
/// snapshot the answer was computed against.
#[test]
fn certificates_verify_under_replica_failover() {
    use crate::skyline::run_skyline_certified;
    use crate::topk::run_topk_certified;
    for k in [1usize, 2] {
        let (mut net, mut rng) = loaded_net(2, 48, 600, 61 + k as u64);
        net.enable_replication(k);
        // Churn interleaved with the crash wave: fresh tuples and a join
        // move the snapshot on while replicas absorb the failures.
        for i in 0..40u64 {
            net.insert_tuple(Tuple::new(10_000 + i, vec![rng.gen(), rng.gen()]));
        }
        net.join(&ripple_geom::Point::new(vec![rng.gen(), rng.gen()]));
        net.refresh_replicas();
        crash_wave(&mut net, &mut rng, 9);
        assert!(net.tuples_lost() > 0);
        let score = LinearScore::uniform(2);
        for mode in MODES {
            let initiator = net.random_peer(&mut rng);
            let exec = Executor::with_faults(&net, crash_aware(), 11);
            let (got, _, cov, cert) = run_topk_certified(&exec, initiator, score.clone(), 10, mode);
            let cert = cert.expect("certificates are on by default");
            ripple_verify::verify_topk(&cert, &got, &score, 10, net.epoch())
                .unwrap_or_else(|e| panic!("[k={k}, {mode:?}] top-k certificate rejected: {e}"));
            ripple_verify::verify_coverage(&cert, cov.answered_fraction, &cov.unreachable)
                .unwrap_or_else(|e| panic!("[k={k}, {mode:?}] coverage rejected: {e}"));
            if mode == Mode::Broadcast {
                assert!(
                    cert.regions
                        .iter()
                        .any(|r| matches!(r, ripple_verify::CertRegion::Replica { .. })),
                    "[k={k}] broadcast over dead zones must tile them as replica-served"
                );
            }
            let (sky, _, _, scert) =
                run_skyline_certified(&exec, initiator, SkylineQuery::new(), mode);
            let scert = scert.expect("certificates are on by default");
            ripple_verify::verify_skyline(&scert, &sky, None, net.epoch())
                .unwrap_or_else(|e| panic!("[k={k}, {mode:?}] skyline certificate rejected: {e}"));
        }
    }
}

#[test]
fn stale_copies_are_read_honestly_and_anti_entropy_freshens_them() {
    // Two identical overlays; both gain a late tuple after the initial
    // capture. `fresh` runs one anti-entropy pass before the owner crashes,
    // `stale` does not — its surviving copy predates the insert.
    let (mut stale, mut rng_a) = loaded_net(2, 32, 300, 58);
    let (mut fresh, mut rng_b) = loaded_net(2, 32, 300, 58);
    stale.enable_replication(1);
    fresh.enable_replication(1);
    let late = Tuple::new(9_999, vec![0.515, 0.485]);
    let victim = stale.responsible(&late.point);
    assert_eq!(victim, fresh.responsible(&late.point));
    stale.insert_tuple(late.clone());
    fresh.insert_tuple(late.clone());
    fresh.refresh_replicas(); // the pass `stale` never got
    stale.crash(victim);
    fresh.crash(victim);

    let score = PeakScore::new(late.point.clone(), Norm::L2);
    let run = |net: &MidasNetwork, rng: &mut SmallRng| {
        let initiator = net.random_peer(rng);
        let exec = Executor::with_faults(net, crash_aware(), 17);
        run_topk_with(&exec, initiator, score.clone(), 1, Mode::Broadcast)
    };
    let (got, metrics, cov) = run(&stale, &mut rng_a);
    assert!(cov.is_complete(), "volume is covered even by a stale copy");
    assert!(metrics.replica_hits > 0);
    assert!(
        metrics.stale_reads > 0,
        "a copy behind the owner's generation must be counted stale"
    );
    assert_ne!(
        ids(&got),
        vec![late.id],
        "the stale copy predates the late tuple — honest, visible loss"
    );
    let (got, metrics, cov) = run(&fresh, &mut rng_b);
    assert!(cov.is_complete());
    assert_eq!(metrics.stale_reads, 0, "anti-entropy refreshed the copy");
    assert_eq!(
        ids(&got),
        vec![late.id],
        "the refreshed copy carries the late tuple: recall restored"
    );
}

#[test]
fn ablated_executor_loses_coverage_where_default_recovers() {
    let (mut net, mut rng) = loaded_net(2, 48, 600, 59);
    net.enable_replication(2);
    crash_wave(&mut net, &mut rng, 9);
    let orphan_vol: f64 = net.orphan_regions().iter().map(Rect::volume).sum();
    assert!(orphan_vol > 0.0);
    let q = TopKQuery::new(LinearScore::uniform(2), 10);
    let initiator = net.random_peer(&mut rng);
    let with = Executor::with_faults(&net, crash_aware(), 19).run(initiator, &q, Mode::Broadcast);
    let without = Executor::with_faults(&net, crash_aware(), 19)
        .without_replicas()
        .run(initiator, &q, Mode::Broadcast);
    assert!(with.coverage.is_complete());
    assert!(with.metrics.replica_hits > 0);
    assert!(!without.coverage.is_complete());
    assert_eq!(without.metrics.replica_hits, 0);
    assert!(
        (without.coverage.answered_fraction - (1.0 - orphan_vol)).abs() < 1e-9,
        "ablated broadcast reports exactly the orphan volume: {} vs {}",
        without.coverage.answered_fraction,
        1.0 - orphan_vol
    );
}
