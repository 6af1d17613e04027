//! Chord-side parallel-execution equivalence: the twins of `ripple-core`'s
//! `parallel_equivalence` suite, proving the intra-query parallel engine is
//! substrate-generic. Ring-arc regions (`Vec<Rect>` with wrap-around
//! segments) exercise a different region algebra than MIDAS boxes, and the
//! clockwise failover discipline trims restrictions — the parallel engine
//! must reproduce all of it bit-for-bit.

use ripple_chord::ChordNetwork;
use ripple_core::framework::Mode;
use ripple_core::topk::TopKQuery;
use ripple_core::Executor;
use ripple_geom::{LinearScore, Tuple};
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

#[test]
fn parallel_equals_sequential_on_the_ring() {
    let (net, mut rng) = loaded_ring(80, 500, 61);
    let planes = [FaultPlane::none(), FaultPlane::drops(0.15, 23)];
    for k in [1usize, 10] {
        let q = TopKQuery::new(LinearScore::uniform(1), k);
        for plane in planes {
            for mode in MODES {
                let initiator = net.random_peer(&mut rng);
                let exec = Executor::with_faults(&net, plane, 5);
                let seq = exec.run(initiator, &q, mode);
                for threads in [2usize, 4] {
                    let par = exec.run_parallel(initiator, &q, mode, threads);
                    assert_eq!(
                        seq.metrics, par.metrics,
                        "k={k} [{mode:?}, {threads} threads, drop_p={}]",
                        plane.drop_probability
                    );
                    assert_eq!(seq.answers, par.answers, "k={k} [{mode:?}]");
                    assert_eq!(seq.coverage, par.coverage, "k={k} [{mode:?}]");
                }
            }
        }
    }
}

#[test]
fn parallel_equals_sequential_on_a_crashed_ring() {
    let (mut net, mut rng) = loaded_ring(64, 400, 62);
    for _ in 0..6 {
        let live = net.live_peers();
        if live.len() > 2 {
            let victim = live[rng.gen_range(1..live.len())];
            net.crash(victim);
        }
    }
    net.check_invariants();
    let crash_aware = FaultPlane {
        crash_fraction: 1.0,
        timeout_hops: 2,
        max_retries: 1,
        seed: 5,
        ..FaultPlane::none()
    };
    let q = TopKQuery::new(LinearScore::uniform(1), 10);
    for mode in MODES {
        let initiator = net.random_peer(&mut rng);
        let exec = Executor::with_faults(&net, crash_aware, 13);
        let seq = exec.run(initiator, &q, mode);
        let par = exec.run_parallel(initiator, &q, mode, 4);
        assert_eq!(seq.metrics, par.metrics, "[{mode:?}]");
        assert_eq!(seq.answers, par.answers, "[{mode:?}]");
        assert_eq!(
            seq.coverage, par.coverage,
            "[{mode:?}] trimmed failover restrictions must be reported \
             identically"
        );
    }
}

/// FNV-1a over the bit patterns of a ring execution's answers, ledger
/// (the fields in `QueryMetrics` equality, visit trace included),
/// coverage and certificate — the ring-region twin of `ripple-core`'s
/// pinned outcome digest.
fn fold_outcome<L>(h: &mut u64, out: &ripple_core::framework::QueryOutcome<L>) {
    use ripple_verify::{CertRegion, PruneWitness};
    let mut u = |x: u64| {
        for b in x.to_le_bytes() {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    u(out.answers.len() as u64);
    for t in &out.answers {
        u(t.id);
        t.point.coords().iter().for_each(|c| u(c.to_bits()));
    }
    let m = &out.metrics;
    for x in [
        m.latency,
        m.query_messages,
        m.response_messages,
        m.peers_visited,
        m.tuples_transferred,
        m.retries,
        m.timeouts,
        m.messages_dropped,
        m.repair_messages,
        m.replica_hits,
        m.stale_reads,
        m.replica_bytes,
        m.repair_transfers,
        m.duplicate_visits,
        u64::from(m.trace_off),
        m.visited.len() as u64,
    ] {
        u(x);
    }
    m.visited.iter().for_each(|p| u(p.index() as u64));
    u(out.coverage.answered_fraction.to_bits());
    u(out.coverage.unreachable.len() as u64);
    out.coverage.unreachable.iter().for_each(|v| u(v.to_bits()));
    let cert = out.certificate.as_ref().expect("certificates on");
    u(cert.generation);
    u(cert.domain_volume.to_bits());
    u(cert.regions.len() as u64);
    for region in &cert.regions {
        match region {
            CertRegion::Scanned { peer, volume } => [0, *peer, volume.to_bits()].map(&mut u),
            CertRegion::Replica { owner, volume } => [2, *owner, volume.to_bits()].map(&mut u),
            CertRegion::Unreachable { volume } => [3, 3, volume.to_bits()].map(&mut u),
            CertRegion::Pruned {
                rects,
                volume,
                witness,
            } => {
                u(rects.len() as u64);
                for r in rects {
                    u(r.lo().coord(0).to_bits());
                    u(r.hi().coord(0).to_bits());
                }
                let w = match witness {
                    PruneWitness::ScoreBound { bound } => bound.to_bits(),
                    other => panic!("top-k witness expected, got {other:?}"),
                };
                [1, w, volume.to_bits()].map(&mut u)
            }
        };
    }
}

/// Pins the exact outcomes of seeded top-k queries over ring-arc regions
/// (wrap-around segment lists, failover-trimmed restrictions on a crashed
/// ring) under every mode and both fan-outs, as one FNV-1a digest.
#[test]
fn ring_outcome_digest_is_pinned() {
    let (mut net, mut rng) = loaded_ring(256, 2000, 0xc4);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let crash_aware = FaultPlane {
        crash_fraction: 1.0,
        timeout_hops: 2,
        max_retries: 1,
        seed: 7,
        ..FaultPlane::none()
    };
    for crashed in [false, true] {
        if crashed {
            for _ in 0..12 {
                let live = net.live_peers();
                net.crash(live[rng.gen_range(1..live.len())]);
            }
        }
        for k in [10usize, 50] {
            let q = TopKQuery::new(LinearScore::uniform(1), k);
            for mode in MODES {
                let initiator = net.random_peer(&mut rng);
                let exec = Executor::with_faults(&net, crash_aware, 3);
                fold_outcome(&mut h, &exec.run(initiator, &q, mode));
                fold_outcome(&mut h, &exec.run_parallel(initiator, &q, mode, 2));
            }
        }
    }
    assert_eq!(
        h, 0xd847_1769_1470_f425,
        "ring outcome digest moved: {h:#018x}"
    );
}
