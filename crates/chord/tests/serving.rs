//! Chord behind the [`QueryService`]: the substrate-genericity of the
//! serving plane. Top-k queries are admitted, scheduled and served over
//! the ring exactly as over MIDAS — pinned generations, verifiable
//! certificates, generation-keyed cache hits — while skyline, which has
//! no `Vec<Rect>` instantiation, is rejected at admission with
//! [`ServiceError::Unsupported`] instead of panicking a driver thread.

use ripple_chord::ChordNetwork;
use ripple_core::framework::Mode;
use ripple_core::service::{QueryService, ServiceConfig, ServiceError, ServiceQuery, ServiceScore};
use ripple_geom::{LinearScore, Rect, Tuple};
use ripple_net::rng::rngs::SmallRng;
use ripple_net::rng::{Rng, SeedableRng};
use ripple_net::Substrate;
use ripple_verify::{verify_coverage, verify_topk};

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

fn topk_shape(weight: f64, k: usize) -> ServiceQuery {
    ServiceQuery::TopK {
        score: ServiceScore::Linear(vec![weight]),
        k,
    }
}

/// Top-k served through the frontier across churn rounds: every response
/// pins the round's generation and its certificate verifies against it.
#[test]
fn served_topk_over_chord_verifies_across_churn() {
    let (net, mut rng) = loaded_ring(64, 500, 91);
    let service = QueryService::new(
        net,
        ServiceConfig {
            drivers: 2,
            cache: false,
            ..ServiceConfig::default()
        },
    );

    for round in 0..6u64 {
        let pinned = service.generation();
        let mut batch = Vec::new();
        for (i, &mode) in MODES.iter().enumerate() {
            let k = 1 + (round as usize + i) % 10;
            let query = topk_shape(1.0 + round as f64 / 4.0, k);
            let initiator = service.with_network(|net| net.random_peer(&mut rng));
            let ticket = service
                .submit(i as u32, initiator, query.clone(), mode)
                .expect("top-k is supported on the ring");
            batch.push((query, mode, ticket));
        }
        for (query, mode, ticket) in batch {
            let resp = ticket.wait().expect("admitted queries complete");
            assert_eq!(resp.generation, pinned, "[round {round}, {mode:?}]");
            let cert = resp.certificate.as_deref().expect("certificates on");
            let (ServiceQuery::TopK {
                score: ServiceScore::Linear(w),
                k,
            },) = (query,)
            else {
                unreachable!()
            };
            verify_topk(cert, &resp.answers, &LinearScore::new(w), k, pinned)
                .unwrap_or_else(|e| panic!("[round {round}, {mode:?}] rejected: {e}"));
            verify_coverage(
                cert,
                resp.coverage.answered_fraction,
                &resp.coverage.unreachable,
            )
            .unwrap_or_else(|e| panic!("[round {round}, {mode:?}] coverage: {e}"));
        }
        // Churn the ring between rounds: join / graceful leave / insert.
        let before = service.generation();
        service.advance_epoch(|net| match round % 3 {
            0 => {
                let pos = rng.gen::<f64>();
                net.join(pos);
            }
            1 => {
                let live = net.live_peers();
                let anchor = net.ring()[0];
                let victim = live.into_iter().find(|&p| p != anchor).expect("live peer");
                net.leave(victim);
            }
            _ => {
                net.insert_tuple(Tuple::new(30_000 + round, vec![rng.gen::<f64>()]));
            }
        });
        assert!(service.generation() > before, "round {round} must bump");
    }
    let stats = service.stats();
    assert_eq!(stats.admitted, 24);
    assert_eq!(stats.completed, 24);
}

/// The cache is generation-keyed on the ring too: a repeated shape hits
/// for free, and a bump after crash + repair forces a recompute.
#[test]
fn chord_cache_hits_and_crash_repair_invalidation() {
    let (mut net, mut rng) = loaded_ring(48, 400, 92);
    net.enable_replication(1);
    let service = QueryService::new(net, ServiceConfig::default());

    let query = topk_shape(1.0, 10);
    let initiator = service.with_network(|net| net.random_peer(&mut rng));
    let first = service
        .submit(0, initiator, query.clone(), Mode::Fast)
        .unwrap()
        .wait()
        .unwrap();
    assert!(!first.cache_hit);
    // Different tenant, initiator and mode: same shape + generation → hit.
    let other = service.with_network(|net| net.random_peer(&mut rng));
    let hit = service
        .submit(1, other, query.clone(), Mode::Slow)
        .unwrap()
        .wait()
        .unwrap();
    assert!(hit.cache_hit, "repeated shape at a stable generation hits");
    assert_eq!(hit.answers, first.answers);
    assert_eq!(hit.metrics.total_messages(), 0);

    // Crash + repair bumps the generation and purges the cache.
    service.advance_epoch(|net| {
        let anchor = net.ring()[0];
        let victim = net
            .live_peers()
            .into_iter()
            .find(|&p| p != anchor)
            .expect("live peer");
        net.crash(victim);
        net.repair_all();
        net.refresh_replicas();
        net.check_invariants();
    });
    let after = service
        .submit(0, initiator, query, Mode::Fast)
        .unwrap()
        .wait()
        .unwrap();
    assert!(
        !after.cache_hit,
        "a stale-generation hit must be impossible"
    );
    assert!(after.generation > first.generation);
    assert!(after.metrics.total_messages() > 0);
    let cert = after.certificate.as_deref().expect("certificates on");
    verify_topk(
        cert,
        &after.answers,
        &LinearScore::new(vec![1.0]),
        10,
        after.generation,
    )
    .expect("post-repair certificate verifies against the new generation");
    assert!(service.stats().cache_invalidated >= 1);
}

/// Skyline has no ring instantiation: admission rejects it synchronously
/// and the rejection is visible in both the tenant and global ledgers.
#[test]
fn skyline_is_rejected_at_admission_on_chord() {
    let (net, mut rng) = loaded_ring(24, 200, 93);
    let service = QueryService::new(net, ServiceConfig::default());
    let initiator = service.with_network(|net| net.random_peer(&mut rng));
    for constraint in [None, Some(Rect::new(vec![0.1], vec![0.8]))] {
        let err = service
            .submit(
                7,
                initiator,
                ServiceQuery::Skyline { constraint },
                Mode::Fast,
            )
            .unwrap_err();
        assert_eq!(err, ServiceError::Unsupported);
    }
    assert_eq!(service.tenant_stats(7).rejected, 2);
    assert_eq!(service.stats().rejected, 2);
    assert_eq!(service.queue_len(), 0, "rejected queries never enqueue");
}
