//! The serving plane's property tests: interleaved concurrent queries ×
//! churn bumps × crash/repair, with `ripple-verify` as the second oracle.
//!
//! Two schedules over a replicated MIDAS overlay:
//!
//! 1. **Pinned rounds** — batches of multi-tenant queries (every query
//!    type, every mode, real driver threads + intra-query workers) are
//!    drained to completion between mutations. Every response must be
//!    pinned to exactly the generation that was current at submission,
//!    every certificate must verify against that generation, and every
//!    outcome must be bit-identical (answers, ledger, coverage,
//!    certificate) to a standalone [`Executor`] run at the same
//!    generation. Mutations cycle join / leave / crash+repair / insert,
//!    so the dataset-vs-overlay generation coupling is exercised on every
//!    edge the overlay has.
//!
//! 2. **Racing churn** — queries are submitted concurrently with epoch
//!    bumps and never quiesced: drivers race `advance_epoch`. No
//!    assumption is made about *which* generation a query lands on — only
//!    the serving contract: it is one of the generations that actually
//!    existed (never a torn in-between state), the attached certificate
//!    verifies against the generation the response claims, and cache hits
//!    replay certificates that still verify.
//!
//! The Chord-side twin lives in `ripple-chord`'s `tests/serving.rs`.

use crate::exec::Executor;
use crate::framework::Mode;
use crate::service::{QueryService, ServiceConfig, ServiceQuery, ServiceScore};
use crate::skyline::{run_skyline_certified, SkylineQuery};
use crate::topk::run_topk_certified;
use ripple_geom::{LinearScore, Norm, PeakScore, Rect, Tuple};
use ripple_midas::MidasNetwork;
use ripple_net::rng::rngs::SmallRng;
use ripple_net::rng::{Rng, SeedableRng};
use ripple_net::{PeerId, Substrate};
use ripple_verify::{verify_coverage, verify_skyline, verify_topk, Certificate};
use std::collections::HashSet;

const MODES: [Mode; 4] = [Mode::Fast, Mode::Slow, Mode::Ripple(2), Mode::Broadcast];

fn shapes(round: u64) -> Vec<ServiceQuery> {
    vec![
        ServiceQuery::TopK {
            score: ServiceScore::Linear(vec![1.0, 0.5 + round as f64 / 8.0]),
            k: 10,
        },
        ServiceQuery::TopK {
            score: ServiceScore::Peak(vec![0.3, 0.6], Norm::L2),
            k: 5,
        },
        ServiceQuery::Skyline { constraint: None },
        ServiceQuery::Skyline {
            constraint: Some(Rect::new(vec![0.2, 0.2], vec![0.9, 0.9])),
        },
    ]
}

/// Checks the response-level contract: the certificate verifies — via the
/// dependency-free checker — against the query shape, the final answers
/// and the generation the response claims.
fn verify_response(
    query: &ServiceQuery,
    answers: &[Tuple],
    cert: &Certificate,
    coverage: &crate::framework::Coverage,
    generation: u64,
    label: &str,
) {
    match query {
        ServiceQuery::TopK { score, k } => match score {
            ServiceScore::Linear(w) => {
                verify_topk(cert, answers, &LinearScore::new(w.clone()), *k, generation)
                    .unwrap_or_else(|e| panic!("{label}: linear top-k rejected: {e}"));
            }
            ServiceScore::Peak(p, norm) => {
                verify_topk(
                    cert,
                    answers,
                    &PeakScore::new(p.clone(), *norm),
                    *k,
                    generation,
                )
                .unwrap_or_else(|e| panic!("{label}: peak top-k rejected: {e}"));
            }
        },
        ServiceQuery::Skyline { constraint } => {
            verify_skyline(cert, answers, constraint.as_ref(), generation)
                .unwrap_or_else(|e| panic!("{label}: skyline rejected: {e}"));
        }
    }
    verify_coverage(cert, coverage.answered_fraction, &coverage.unreachable)
        .unwrap_or_else(|e| panic!("{label}: coverage rejected: {e}"));
}

/// Re-runs `query` standalone — a lone [`Executor`] over the same overlay
/// snapshot — and returns the certified outcome for bit-comparison.
#[allow(clippy::type_complexity)]
fn standalone(
    net: &MidasNetwork,
    initiator: PeerId,
    query: &ServiceQuery,
    mode: Mode,
) -> (
    Vec<Tuple>,
    ripple_net::QueryMetrics,
    crate::framework::Coverage,
    Option<Certificate>,
) {
    let exec = Executor::new(net);
    match query {
        ServiceQuery::TopK { score, k } => match score {
            ServiceScore::Linear(w) => {
                run_topk_certified(&exec, initiator, LinearScore::new(w.clone()), *k, mode)
            }
            ServiceScore::Peak(p, norm) => {
                run_topk_certified(&exec, initiator, PeakScore::new(p.clone(), *norm), *k, mode)
            }
        },
        ServiceQuery::Skyline { constraint } => {
            let q = match constraint {
                Some(c) => SkylineQuery::constrained(c.clone()),
                None => SkylineQuery::new(),
            };
            run_skyline_certified(&exec, initiator, q, mode)
        }
    }
}

/// Schedule 1: quiesced rounds between mutations. Every query of round
/// `r` must be served at exactly generation `g_r`, verify against it, and
/// match a standalone executor bit for bit.
#[test]
fn pinned_rounds_verify_and_match_standalone_across_churn_and_repair() {
    let mut rng = SmallRng::seed_from_u64(81);
    let mut net = MidasNetwork::build(2, 40, false, &mut rng);
    for i in 0..600u64 {
        net.insert_tuple(Tuple::new(i, vec![rng.gen(), rng.gen()]));
    }
    net.enable_replication(1);

    let service = QueryService::new(
        net,
        ServiceConfig {
            drivers: 2,
            intra_query_threads: 2,
            cache: false,
            ..ServiceConfig::default()
        },
    );

    for round in 0..8u64 {
        let pinned = service.generation();
        let mut batch = Vec::new();
        for (i, query) in shapes(round).into_iter().enumerate() {
            let mode = MODES[(round as usize + i) % MODES.len()];
            let initiator = service.with_network(|net| net.random_peer(&mut rng));
            let tenant = i as u32 % 3;
            let ticket = service
                .submit(tenant, initiator, query.clone(), mode)
                .expect("admission");
            batch.push((initiator, query, mode, ticket));
        }
        for (i, (initiator, query, mode, ticket)) in batch.into_iter().enumerate() {
            let resp = ticket.wait().expect("admitted queries complete");
            let label = format!("round {round} query {i} [{mode:?}]");
            assert_eq!(
                resp.generation, pinned,
                "{label}: a quiesced round must pin the submission generation"
            );
            assert!(!resp.cache_hit, "{label}: cache is off");
            let cert = resp.certificate.as_deref().expect("certificates on");
            verify_response(
                &query,
                &resp.answers,
                cert,
                &resp.coverage,
                resp.generation,
                &label,
            );
            // Bit-identity against a lone executor at the same snapshot:
            // answers, full cost ledger (the eq contract excludes the
            // serving provenance stamps), coverage and certificate.
            service.with_network(|net| {
                let (answers, metrics, coverage, cert2) = standalone(net, initiator, &query, mode);
                assert_eq!(resp.answers, answers, "{label}: answers");
                assert_eq!(resp.metrics, metrics, "{label}: ledger");
                assert_eq!(resp.coverage, coverage, "{label}: coverage");
                assert_eq!(
                    resp.certificate.as_deref(),
                    cert2.as_ref(),
                    "{label}: certificate"
                );
            });
        }

        // Quiesced mutation: every overlay edge in rotation. Crash repairs
        // in the same epoch step so queries never see a damaged net
        // without a fault plane.
        let before = service.generation();
        service.advance_epoch(|net| match round % 4 {
            0 => {
                net.join_random(&mut rng);
            }
            1 => {
                let live = net.live_peers().to_vec();
                net.leave(live[rng.gen_range(0..live.len())]);
            }
            2 => {
                let live = net.live_peers().to_vec();
                net.crash(live[rng.gen_range(0..live.len())]);
                net.repair_all();
                net.refresh_replicas();
                net.check_invariants();
            }
            _ => {
                net.insert_tuple(Tuple::new(10_000 + round, vec![rng.gen(), rng.gen()]));
            }
        });
        assert!(
            service.generation() > before,
            "round {round}: every mutation kind must bump the generation"
        );
    }
    let stats = service.stats();
    assert_eq!(stats.admitted, 32);
    assert_eq!(stats.completed, 32);
    assert_eq!(stats.rejected, 0);
}

/// Schedule 2: drivers race epoch bumps — no quiescing. Each response
/// must land on a generation that actually existed (pinned, never torn),
/// and its certificate must verify against the generation it claims.
#[test]
fn racing_churn_every_certificate_verifies_against_its_claimed_generation() {
    let mut rng = SmallRng::seed_from_u64(82);
    let mut net = MidasNetwork::build(2, 32, false, &mut rng);
    for i in 0..400u64 {
        net.insert_tuple(Tuple::new(i, vec![rng.gen(), rng.gen()]));
    }

    let service = QueryService::new(
        net,
        ServiceConfig {
            drivers: 3,
            cache: true,
            ..ServiceConfig::default()
        },
    );

    let mut valid_generations: HashSet<u64> = HashSet::new();
    valid_generations.insert(service.generation());
    let mut in_flight = Vec::new();
    for wave in 0..6u64 {
        for (i, query) in shapes(wave).into_iter().enumerate() {
            let mode = MODES[(wave as usize + i) % MODES.len()];
            let initiator = service.with_network(|net| net.random_peer(&mut rng));
            let ticket = service
                .submit(i as u32 % 5, initiator, query.clone(), mode)
                .expect("admission");
            in_flight.push((query, mode, ticket));
        }
        // Bump while the previous wave may still be in flight. Only
        // additive mutations here (join, insert): a racing schedule must
        // not invalidate a pending query's initiator.
        service.advance_epoch(|net| {
            if wave % 2 == 0 {
                net.join_random(&mut rng);
            } else {
                net.insert_tuple(Tuple::new(20_000 + wave, vec![rng.gen(), rng.gen()]));
            }
        });
        valid_generations.insert(service.generation());
    }

    let total = in_flight.len() as u64;
    let mut hits = 0u64;
    for (i, (query, mode, ticket)) in in_flight.into_iter().enumerate() {
        let resp = ticket.wait().expect("admitted queries complete");
        let label = format!("racing query {i} [{mode:?}]");
        assert!(
            valid_generations.contains(&resp.generation),
            "{label}: generation {} was never a published snapshot",
            resp.generation
        );
        let cert = resp.certificate.as_deref().expect("certificates on");
        verify_response(
            &query,
            &resp.answers,
            cert,
            &resp.coverage,
            resp.generation,
            &label,
        );
        if resp.cache_hit {
            hits += 1;
            assert_eq!(
                resp.metrics.total_messages(),
                0,
                "{label}: a cache hit costs no network"
            );
        }
    }
    let stats = service.stats();
    assert_eq!(stats.admitted, total);
    assert_eq!(stats.completed, total);
    assert_eq!(
        stats.cache_hits, hits,
        "ledger hits match the global counter"
    );
}
