//! Chord-side fault-plane properties: the twins of `ripple-core`'s
//! `fault_equivalence` tests, proving the fault machinery is substrate-
//! generic. A `FaultPlane::none` executor is bit-identical to the plain
//! one over the ring; crashes degrade queries gracefully (survivor-exact
//! answers, honest coverage, no duplicate visits); successor-list repair
//! restores complete coverage; invariants hold across arbitrary
//! crash → repair → query interleavings.

use ripple_chord::ChordNetwork;
use ripple_core::framework::Mode;
use ripple_core::topk::{centralized_topk, run_topk_with, TopKQuery};
use ripple_core::Executor;
use ripple_geom::{LinearScore, Tuple};
use ripple_net::rng::rngs::SmallRng;
use ripple_net::rng::{Rng, SeedableRng};
use ripple_net::{ChurnOverlay, ChurnStage, FaultPlane, Substrate};

const MODES: [Mode; 4] = [Mode::Fast, Mode::Slow, Mode::Ripple(2), Mode::Broadcast];

fn loaded_ring(peers: usize, tuples: u64, seed: u64) -> (ChordNetwork, SmallRng) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut net = ChordNetwork::build(peers, &mut rng);
    let data: Vec<Tuple> = (0..tuples)
        .map(|i| Tuple::new(i, vec![rng.gen::<f64>()]))
        .collect();
    net.insert_all(data);
    (net, rng)
}

fn survivors(net: &ChordNetwork) -> Vec<Tuple> {
    net.live_peers()
        .iter()
        .flat_map(|&p| net.peer(p).store.tuples().to_vec())
        .collect()
}

fn ids(tuples: &[Tuple]) -> Vec<u64> {
    tuples.iter().map(|t| t.id).collect()
}

/// Active plane that only exposes crash handling (no drops, no slowness).
fn crash_aware() -> FaultPlane {
    FaultPlane {
        crash_fraction: 1.0,
        timeout_hops: 2,
        max_retries: 1,
        seed: 5,
        ..FaultPlane::none()
    }
}

#[test]
fn none_plane_is_observationally_identical_on_chord() {
    let (net, mut rng) = loaded_ring(80, 500, 51);
    let score = LinearScore::uniform(1);
    for k in [1usize, 5, 40] {
        let q = TopKQuery::new(score.clone(), k);
        for mode in MODES {
            let initiator = net.random_peer(&mut rng);
            let plain = Executor::new(&net).run(initiator, &q, mode);
            let none = Executor::with_faults(&net, FaultPlane::none(), 3).run(initiator, &q, mode);
            assert_eq!(
                plain.metrics, none.metrics,
                "k={k} [{mode:?}]: ledgers must be bit-identical"
            );
            assert_eq!(plain.answers, none.answers, "k={k} [{mode:?}]");
            assert!(none.coverage.is_complete());
            assert_eq!(none.metrics.duplicate_visits, 0);
        }
    }
}

#[test]
fn crash_repair_query_interleavings_stay_sound() {
    let (mut net, mut rng) = loaded_ring(64, 400, 52);
    let score = LinearScore::uniform(1);
    for round in 0..4u64 {
        // Crash a wave of non-anchor peers (the anchor is immortal).
        for _ in 0..4 {
            let live = net.live_peers();
            let candidates: Vec<_> = live.into_iter().filter(|&p| p != net.ring()[0]).collect();
            if candidates.is_empty() || net.peer_count() <= 2 {
                break;
            }
            let victim = candidates[rng.gen_range(0..candidates.len())];
            net.crash(victim);
        }
        net.check_invariants();
        let alive = survivors(&net);
        let orphan_len: f64 = net.orphan_segments().iter().map(|s| s.side(0)).sum();
        assert!(orphan_len > 0.0, "crashes must orphan arc length");

        for mode in MODES {
            let initiator = net.random_peer(&mut rng);
            let exec = Executor::with_faults(&net, crash_aware(), round);
            let (got, metrics, cov) = run_topk_with(&exec, initiator, score.clone(), 8, mode);
            assert_eq!(
                ids(&got),
                ids(&centralized_topk(&alive, &score, 8)),
                "[{mode:?}] answers must equal the oracle over survivors"
            );
            assert_eq!(metrics.duplicate_visits, 0, "[{mode:?}]");
            assert!(
                cov.answered_fraction >= 1.0 - orphan_len - 1e-9,
                "[{mode:?}] answered {} with orphaned arcs {orphan_len}",
                cov.answered_fraction
            );
            if mode == Mode::Broadcast {
                assert!(!cov.is_complete());
                assert!(metrics.timeouts > 0, "stale fingers must trip timeouts");
            }
        }

        // Repair: crashed entries are excised, fingers re-aimed at live
        // successors, coverage complete again.
        let msgs = net.repair_all();
        assert!(msgs > 0);
        net.check_invariants();
        assert!(net.orphan_segments().is_empty());
        let initiator = net.random_peer(&mut rng);
        let exec = Executor::with_faults(&net, crash_aware(), round);
        let (got, _, cov) = run_topk_with(&exec, initiator, score.clone(), 8, Mode::Fast);
        assert!(cov.is_complete(), "repair must restore full coverage");
        assert_eq!(
            ids(&got),
            ids(&centralized_topk(&survivors(&net), &score, 8))
        );

        // Keep the ring evolving between rounds.
        for _ in 0..3 {
            net.join(rng.gen::<f64>());
        }
        net.check_invariants();
    }
}

/// Property: arbitrary interleavings of the two churn stages with crash
/// waves and repairs — join → crash → repair → depart, in every rotation —
/// keep the ring invariants, the tuple ledger (`stored + lost − recovered ==
/// inserted`) and query soundness intact, with the replica ledger riding
/// along through every transition.
#[test]
fn churn_stages_interleaved_with_crashes_stay_sound() {
    use ripple_net::churn::run_stage;
    let (mut net, mut rng) = loaded_ring(48, 400, 54);
    let inserted = 400u64;
    net.enable_replication(2);
    let score = LinearScore::uniform(1);
    let mut checkpoints_hit = 0usize;

    let audit = |net: &mut ChordNetwork, rng: &mut SmallRng, label: &str| {
        net.check_invariants();
        let stored: u64 = net
            .live_peers()
            .iter()
            .map(|&p| net.peer(p).store.tuples().len() as u64)
            .sum();
        assert_eq!(
            stored + net.tuples_lost() - net.tuples_recovered(),
            inserted,
            "{label}: tuple ledger must balance"
        );
        let initiator = net.random_peer(rng);
        let exec = Executor::with_faults(&*net, crash_aware(), 31);
        let (got, metrics, cov) = run_topk_with(&exec, initiator, score.clone(), 8, Mode::Fast);
        assert_eq!(metrics.duplicate_visits, 0, "{label}");
        if cov.is_complete() {
            assert_eq!(
                ids(&got),
                ids(&centralized_topk(&survivors(net), &score, 8)),
                "{label}: complete coverage must imply survivor-exact answers"
            );
        }
    };

    for round in 0..3 {
        // Increasing stage, crash waves injected at each checkpoint.
        let grow_to = net.peer_count() + 12;
        let cps = [net.peer_count() + 4, net.peer_count() + 8, grow_to];
        let mut wave_rng = SmallRng::seed_from_u64(540 + round);
        run_stage(
            &mut net,
            ChurnStage::Increasing,
            grow_to,
            &cps,
            &mut rng,
            |net, _| {
                checkpoints_hit += 1;
                for _ in 0..2 {
                    net.churn_crash(&mut wave_rng);
                }
                net.anti_entropy();
            },
        );
        audit(&mut net, &mut rng, "after increasing stage + crash waves");

        // Repair mid-schedule: promotes surviving copies, reclaims arcs.
        net.repair_all();
        audit(&mut net, &mut rng, "after mid-schedule repair");
        assert!(net.orphan_segments().is_empty());

        // Decreasing stage: graceful departures drop obsolete copies.
        let shrink_to = (net.peer_count().saturating_sub(10)).max(8);
        run_stage(
            &mut net,
            ChurnStage::Decreasing,
            shrink_to,
            &[shrink_to],
            &mut rng,
            |net, _| {
                checkpoints_hit += 1;
                if let Some(set) = net.replicas() {
                    for owner in set.owners() {
                        assert!(
                            net.is_live(owner),
                            "graceful departures must drop their obsolete copies"
                        );
                    }
                }
            },
        );
        audit(&mut net, &mut rng, "after decreasing stage");
    }
    assert!(checkpoints_hit >= 9, "the schedule must actually fire");
    assert!(net.tuples_lost() > 0, "crashes must have destroyed data");
    assert!(
        net.tuples_recovered() > 0,
        "repairs must have promoted copies"
    );
}

#[test]
fn drop_recovery_is_deterministic_on_chord() {
    let (net, mut rng) = loaded_ring(64, 400, 53);
    let score = LinearScore::uniform(1);
    let plane = FaultPlane::drops(0.1, 77);
    let initiator = net.random_peer(&mut rng);
    let exec_a = Executor::with_faults(&net, plane, 11);
    let exec_b = Executor::with_faults(&net, plane, 11);
    let (a, am, ac) = run_topk_with(&exec_a, initiator, score.clone(), 8, Mode::Broadcast);
    let (b, bm, bc) = run_topk_with(&exec_b, initiator, score.clone(), 8, Mode::Broadcast);
    assert_eq!(am, bm, "replay must be exact");
    assert_eq!(a, b);
    assert_eq!(ac, bc);
    assert!(am.messages_dropped > 0, "p=0.1 over a broadcast must drop");
    assert!(am.retries > 0);
    if ac.is_complete() {
        assert_eq!(ids(&a), ids(&centralized_topk(&survivors(&net), &score, 8)));
    }
}
