//! Chord-side smoke for the commission-fault plane: corrupted responses on
//! the ring are audited out, the liars quarantined, and the audited answer
//! stays exact — proving the audit/quarantine/re-query path is substrate-
//! generic (the MIDAS-side depth lives in `ripple-core`'s
//! `audit_equivalence` and `verify_mutation` suites).

use ripple_chord::ChordNetwork;
use ripple_core::framework::Mode;
use ripple_core::topk::{centralized_topk, run_topk_certified};
use ripple_core::Executor;
use ripple_geom::{LinearScore, Tuple};
use ripple_net::rng::rngs::SmallRng;
use ripple_net::rng::{Rng, SeedableRng};
use ripple_net::{CorruptionPlane, Substrate};
use ripple_verify::verify_topk;

const MODES: [Mode; 4] = [Mode::Fast, Mode::Slow, Mode::Ripple(2), Mode::Broadcast];

fn loaded_ring(peers: usize, tuples: u64, seed: u64) -> (ChordNetwork, SmallRng, Vec<Tuple>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut net = ChordNetwork::build(peers, &mut rng);
    let data: Vec<Tuple> = (0..tuples)
        .map(|i| Tuple::new(i, vec![rng.gen::<f64>()]))
        .collect();
    net.insert_all(data.clone());
    (net, rng, data)
}

fn ids(tuples: &[Tuple]) -> Vec<u64> {
    tuples.iter().map(|t| t.id).collect()
}

/// Poisoned responses on a replicated ring: the audited executor keeps
/// recall at 1.0 in every mode, quarantines the corrupting peers, and its
/// certificate still verifies against the overlay epoch.
#[test]
fn audited_ring_survives_corruption_with_exact_recall() {
    let (mut net, mut rng, data) = loaded_ring(64, 800, 31);
    net.enable_replication(1);
    net.refresh_replicas();
    net.check_invariants();
    let score = LinearScore::uniform(1);
    let k = 10;
    let oracle = ids(&centralized_topk(&data, &score, k));
    let plane = CorruptionPlane::flat(0.4, 13);
    for mode in MODES {
        let initiator = net.random_peer(&mut rng);
        let exec = Executor::new(&net).with_corruption(plane);
        let (got, m, cov, cert) = run_topk_certified(&exec, initiator, score.clone(), k, mode);
        assert_eq!(ids(&got), oracle, "[{mode:?}] audited recall must be 1.0");
        assert!(m.audits_run > 0, "[{mode:?}] remote deposits are audited");
        assert!(cov.is_complete(), "[{mode:?}] replicas keep coverage whole");
        verify_topk(&cert.expect("certs on"), &got, &score, k, net.epoch())
            .unwrap_or_else(|e| panic!("[{mode:?}] audited certificate rejected: {e}"));
    }
    assert!(
        net.quarantine().quarantined() > 0,
        "the sweep must have caught and quarantined at least one liar"
    );
}

/// The invisibility gate on the ring: with corruption off, the auditing
/// executor and the audit-ablated one are bit-identical.
#[test]
fn auditing_is_invisible_on_a_clean_ring() {
    let (net, mut rng, _) = loaded_ring(64, 800, 32);
    let score = LinearScore::uniform(1);
    for mode in MODES {
        let initiator = net.random_peer(&mut rng);
        let on = run_topk_certified(&Executor::new(&net), initiator, score.clone(), 10, mode);
        let off = run_topk_certified(
            &Executor::new(&net).without_audit(),
            initiator,
            score.clone(),
            10,
            mode,
        );
        assert_eq!(on.0, off.0, "[{mode:?}] answers");
        assert_eq!(on.1, off.1, "[{mode:?}] ledger");
        assert_eq!(on.2, off.2, "[{mode:?}] coverage");
        assert_eq!(on.3, off.3, "[{mode:?}] certificate");
        assert_eq!(on.1.audits_run, 0, "[{mode:?}] no audit is ever spent");
    }
    assert_eq!(net.quarantine().len(), 0, "nobody to quarantine");
}
