//! Chord-side ingest equivalence, the ring counterpart of `ripple-core`'s
//! `ingest_equivalence` suite. The LSM write path lives entirely below the
//! substrate boundary, so after every step of an interleaved insert →
//! compact → delete schedule, queries over the ring's LSM stores must be
//! observationally identical to the plain-scan oracle (`Executor::naive`)
//! over the same ring, which rescans each peer's logical tuple vector as a
//! freshly rebuilt store would hold it. Answers are compared as id-sorted
//! sets; ledgers, coverage and certificates bit for bit.

use ripple_chord::ChordNetwork;
use ripple_core::framework::Mode;
use ripple_core::topk::TopKQuery;
use ripple_core::Executor;
use ripple_geom::{AdHoc, LinearScore, Tuple};
use ripple_net::rng::rngs::SmallRng;
use ripple_net::rng::{Rng, SeedableRng};
use ripple_net::{FaultPlane, Substrate};

const MODES: [Mode; 4] = [Mode::Fast, Mode::Broadcast, Mode::Ripple(2), Mode::Slow];

/// Answers as an id-sorted set: the oracle comparison's answer order.
fn by_id(answers: &[Tuple]) -> Vec<Tuple> {
    let mut v = answers.to_vec();
    v.sort_by_key(|t| t.id);
    v
}

#[test]
fn lsm_matches_rebuilt_twin_on_the_ring() {
    let mut rng = SmallRng::seed_from_u64(81);
    let mut net = ChordNetwork::build(12, &mut rng);
    let planes = [FaultPlane::none(), FaultPlane::drops(0.15, 23)];
    let mut next_id = 0u64;
    let mut live: Vec<u64> = Vec::new();
    for round in 0..3 {
        let batch: Vec<Tuple> = (0..800)
            .map(|_| {
                let id = next_id;
                next_id += 1;
                live.push(id);
                Tuple::new(id, vec![rng.gen::<f64>()])
            })
            .collect();
        net.insert_batch(batch);
        if round % 2 == 1 {
            // Compaction is a physical reorganisation; it must stay
            // invisible to every comparison below.
            net.compact_stores();
        }
        let mut doomed: Vec<u64> = Vec::new();
        let mut kept = Vec::with_capacity(live.len());
        for &id in &live {
            if rng.gen::<f64>() < 0.2 {
                doomed.push(id);
            } else {
                kept.push(id);
            }
        }
        live = kept;
        let present = doomed.len();
        doomed.push(u64::MAX); // absent id: must not bump any generation
        assert_eq!(
            net.delete_tuples(&doomed),
            present,
            "round {round}: every live doomed row goes"
        );
        net.check_invariants();
        for k in [1usize, 12] {
            let q = TopKQuery::new(AdHoc(LinearScore::uniform(1)), k);
            for plane in planes {
                for mode in MODES {
                    let initiator = net.random_peer(&mut rng);
                    let lsm = Executor::with_faults(&net, plane, 9);
                    let l = lsm.run(initiator, &q, mode);
                    let r = Executor::with_faults(&net, plane, 9)
                        .naive()
                        .run(initiator, &q, mode);
                    assert_eq!(
                        l.metrics, r.metrics,
                        "k={k} [{mode:?}, drop_p={}]: ledgers must be bit-identical",
                        plane.drop_probability
                    );
                    assert_eq!(
                        by_id(&l.answers),
                        by_id(&r.answers),
                        "k={k} [{mode:?}]: answers"
                    );
                    assert_eq!(l.coverage, r.coverage, "k={k} [{mode:?}]: coverage");
                    assert_eq!(
                        l.certificate, r.certificate,
                        "k={k} [{mode:?}]: certificate"
                    );
                    let lp = lsm.run_parallel(initiator, &q, mode, 4);
                    assert_eq!(r.metrics, lp.metrics, "k={k} [{mode:?}]: parallel ledger");
                    assert_eq!(l.answers, lp.answers, "k={k} [{mode:?}]: parallel answers");
                }
            }
        }
    }
}
