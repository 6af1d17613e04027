//! Mutation tests for the certificate checker: each test models one
//! *corrupted executor* — an engine with a specific, realistic bug — by
//! applying the corruption the bug would have produced to an honest run's
//! `(answer, certificate)` pair, and pins the exact [`VerifyError`] the
//! independent checker raises. Every mutation is first shown to verify
//! cleanly *before* corruption, so no test can pass vacuously.
//!
//! The modelled fault planes:
//!
//! * an executor that silently **drops a sub-region** (forgets to forward
//!   to one link) → the tiling has a hole → [`VerifyError::TilingGap`];
//! * an executor that **duplicates an answer tuple** (double-delivery on a
//!   retried edge) → [`VerifyError::DuplicateAnswer`];
//! * an executor serving from a **stale snapshot** (the overlay mutated
//!   after the run) → [`VerifyError::GenerationMismatch`];
//! * an executor that prunes with a **stale threshold** (a τ from a
//!   generation whose k-th score was higher) → the pruned region's honest
//!   `f⁺` no longer falls below the final τ →
//!   [`VerifyError::BoundNotBelowThreshold`];
//! * a **wrong-arc failover** (a replica read adopted for a different
//!   region than the one that died) → the adopted volume disagrees with
//!   the dead zone → [`VerifyError::TilingGap`];
//! * an engine **lying about a bound** it never evaluated →
//!   [`VerifyError::WitnessMismatch`];
//! * a **fabricated skyline dominator** no delivered member justifies →
//!   [`VerifyError::WitnessUnsupported`];
//! * an executor that **hides abandoned volume** from the coverage report
//!   → [`VerifyError::CoverageMismatch`] (and a tiling hole).
//!
//! The second half of the file moves from post-hoc mutation to **in-flight
//! corruption**: the [`CorruptionPlane`] forges responses on the wire while
//! the query runs, and each test contrasts the unaudited executor (which
//! demonstrably admits the poison, or emits a certificate the offline
//! checker rejects) with the audited one (which discards the taint,
//! re-answers from replicas, quarantines the liar, and still produces the
//! honest answer with a verifying certificate).

use crate::exec::Executor;
use crate::framework::Mode;
use crate::skyline::{run_skyline_certified, SkylineQuery};
use crate::topk::run_topk_certified;
use ripple_geom::{LinearScore, Point, Rect, ScoreFn, Tuple};
use ripple_midas::MidasNetwork;
use ripple_net::rng::rngs::SmallRng;
use ripple_net::rng::{Rng, SeedableRng};
use ripple_net::{CorruptionMode, CorruptionPlane, FaultPlane, Substrate};
use ripple_verify::{
    verify_coverage, verify_skyline, verify_tiling, verify_topk, CertRegion, Certificate,
    PruneWitness, VerifyError,
};

fn loaded_net(seed: u64) -> (MidasNetwork, SmallRng) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut net = MidasNetwork::build(2, 48, false, &mut rng);
    for i in 0..600u64 {
        net.insert_tuple(Tuple::new(i, vec![rng.gen::<f64>(), rng.gen::<f64>()]));
    }
    (net, rng)
}

/// An honest top-k run whose certificate contains at least one pruned tile
/// (the mutations below need prunes to corrupt).
fn honest_topk(
    net: &MidasNetwork,
    rng: &mut SmallRng,
) -> (Vec<Tuple>, Certificate, LinearScore, usize) {
    let score = LinearScore::uniform(2);
    let k = 10;
    let initiator = net.random_peer(rng);
    let (answers, _, _, cert) =
        run_topk_certified(&Executor::new(net), initiator, score.clone(), k, Mode::Slow);
    let cert = cert.expect("certificates are on by default");
    assert!(
        cert.regions
            .iter()
            .any(|r| matches!(r, CertRegion::Pruned { .. })),
        "slow-mode top-k over a loaded overlay must prune something"
    );
    verify_topk(&cert, &answers, &score, k, net.epoch()).expect("the honest run must verify");
    (answers, cert, score, k)
}

#[test]
fn dropped_subregion_is_caught() {
    let (net, mut rng) = loaded_net(71);
    let (answers, mut cert, score, k) = honest_topk(&net, &mut rng);
    // The corrupted executor forgets one peer's zone: its Scanned tile
    // never reaches the certificate and its answers never reach the
    // initiator. The remaining tiles no longer cover the domain.
    let dropped = cert
        .regions
        .iter()
        .position(|r| matches!(r, CertRegion::Scanned { volume, .. } if *volume > 1e-6))
        .expect("some peer owns visible volume");
    cert.regions.remove(dropped);
    assert!(matches!(
        verify_topk(&cert, &answers, &score, k, net.epoch()),
        Err(VerifyError::TilingGap { .. })
    ));
}

#[test]
fn duplicated_answer_tuple_is_caught() {
    let (net, mut rng) = loaded_net(72);
    let (mut answers, cert, score, k) = honest_topk(&net, &mut rng);
    // A retried edge double-delivers: the same tuple arrives twice and the
    // corrupted initiator forgets to dedup.
    answers.truncate(k - 1);
    let dup = answers[0].clone();
    answers.insert(1, dup.clone());
    assert_eq!(
        verify_topk(&cert, &answers, &score, k, net.epoch()),
        Err(VerifyError::DuplicateAnswer { id: dup.id })
    );
}

#[test]
fn stale_snapshot_is_caught() {
    let (mut net, mut rng) = loaded_net(73);
    let (answers, cert, score, k) = honest_topk(&net, &mut rng);
    let issued_at = net.epoch();
    // The overlay mutates after the run: a reader checking against the
    // current snapshot must reject the old certificate...
    net.insert_tuple(Tuple::new(9_999, vec![0.99, 0.99]));
    assert!(net.epoch() > issued_at, "every mutation bumps the epoch");
    assert_eq!(
        verify_topk(&cert, &answers, &score, k, net.epoch()),
        Err(VerifyError::GenerationMismatch {
            expected: net.epoch(),
            found: issued_at,
        })
    );
    // ...while a reader pinned to the issuing snapshot still accepts it.
    verify_topk(&cert, &answers, &score, k, issued_at).unwrap();
}

#[test]
fn stale_tau_prune_is_caught() {
    let (net, mut rng) = loaded_net(74);
    let (answers, mut cert, score, k) = honest_topk(&net, &mut rng);
    // A corrupted executor prunes a peak-adjacent region using a τ from a
    // stale generation in which the k-th score was higher. The witness is
    // honest about the region's f⁺ (it recomputes exactly), but that bound
    // does not fall below the final τ — the region could have held a
    // better answer.
    let hot = vec![Rect::new(vec![0.9, 0.9], vec![1.0, 1.0])];
    let bound = hot
        .iter()
        .map(|r| score.upper_bound(r))
        .fold(f64::NEG_INFINITY, f64::max);
    let tau = score.score(&answers[k - 1].point);
    assert!(bound >= tau, "the peak corner beats any attainable τ");
    let target = cert
        .regions
        .iter()
        .position(|r| matches!(r, CertRegion::Pruned { .. }))
        .unwrap();
    let CertRegion::Pruned { volume, .. } = cert.regions[target] else {
        unreachable!()
    };
    // Claimed volume unchanged, so the tiling still balances: only the
    // bound check can catch this corruption.
    cert.regions[target] = CertRegion::Pruned {
        rects: hot,
        volume,
        witness: PruneWitness::ScoreBound { bound },
    };
    assert!(matches!(
        verify_topk(&cert, &answers, &score, k, net.epoch()),
        Err(VerifyError::BoundNotBelowThreshold { .. })
    ));
}

#[test]
fn wrong_arc_failover_is_caught() {
    // An overlay with replicas and real crash failover, so the honest
    // certificate carries Replica tiles.
    let (mut net, mut rng) = loaded_net(75);
    net.enable_replication(2);
    for _ in 0..6 {
        let victim = net.random_peer(&mut rng);
        net.crash(victim);
        net.refresh_replicas();
    }
    net.check_invariants();
    let score = LinearScore::uniform(2);
    let k = 10;
    let plane = FaultPlane {
        crash_fraction: 1.0,
        timeout_hops: 2,
        max_retries: 1,
        seed: 3,
        ..FaultPlane::none()
    };
    let initiator = net.random_peer(&mut rng);
    let exec = Executor::with_faults(&net, plane, 11);
    let (answers, _, _, cert) =
        run_topk_certified(&exec, initiator, score.clone(), k, Mode::Broadcast);
    let mut cert = cert.unwrap();
    let target = cert
        .regions
        .iter()
        .position(|r| matches!(r, CertRegion::Replica { .. }))
        .expect("broadcast over a crashed replicated overlay must fail over");
    verify_topk(&cert, &answers, &score, k, net.epoch()).expect("the honest failover verifies");
    // The corrupted failover adopts the wrong arc: the region it claims to
    // have recovered is not the zone that died, so the adopted volume
    // disagrees with the hole the dead peer left.
    let CertRegion::Replica { owner, volume } = cert.regions[target] else {
        unreachable!()
    };
    cert.regions[target] = CertRegion::Replica {
        owner,
        volume: volume * 0.5,
    };
    assert!(matches!(
        verify_topk(&cert, &answers, &score, k, net.epoch()),
        Err(VerifyError::TilingGap { .. })
    ));
}

#[test]
fn lying_bound_witness_is_caught() {
    let (net, mut rng) = loaded_net(76);
    let (answers, mut cert, score, k) = honest_topk(&net, &mut rng);
    // The engine reports a bound it never evaluated: the checker recomputes
    // f⁺ from the region geometry and the claim does not match.
    let target = cert
        .regions
        .iter()
        .position(|r| matches!(r, CertRegion::Pruned { .. }))
        .unwrap();
    let CertRegion::Pruned {
        ref rects,
        volume,
        witness: PruneWitness::ScoreBound { bound },
    } = cert.regions[target]
    else {
        panic!("top-k prunes carry score bounds");
    };
    cert.regions[target] = CertRegion::Pruned {
        rects: rects.clone(),
        volume,
        witness: PruneWitness::ScoreBound {
            bound: bound - 0.125,
        },
    };
    assert!(matches!(
        verify_topk(&cert, &answers, &score, k, net.epoch()),
        Err(VerifyError::WitnessMismatch { .. })
    ));
}

#[test]
fn fabricated_skyline_dominator_is_caught() {
    let (net, mut rng) = loaded_net(77);
    let initiator = net.random_peer(&mut rng);
    let (sky, _, _, cert) = run_skyline_certified(
        &Executor::new(&net),
        initiator,
        SkylineQuery::new(),
        Mode::Slow,
    );
    let mut cert = cert.unwrap();
    let target = cert
        .regions
        .iter()
        .position(|r| {
            matches!(
                r,
                CertRegion::Pruned {
                    witness: PruneWitness::Dominator { .. },
                    ..
                }
            )
        })
        .expect("skyline over a loaded overlay must prune by domination");
    verify_skyline(&cert, &sky, None, net.epoch()).expect("the honest run must verify");
    // The engine invents a dominator no delivered tuple supports. The
    // near-origin point dominates the region, so the geometric test passes
    // — only the answer-support test can expose the fabrication.
    let CertRegion::Pruned {
        ref rects, volume, ..
    } = cert.regions[target]
    else {
        unreachable!()
    };
    let fake = Point::new(vec![1e-9, 1e-9]);
    assert!(!sky.iter().any(|m| m.point == fake));
    cert.regions[target] = CertRegion::Pruned {
        rects: rects.clone(),
        volume,
        witness: PruneWitness::Dominator { point: fake },
    };
    assert_eq!(
        verify_skyline(&cert, &sky, None, net.epoch()),
        Err(VerifyError::WitnessUnsupported)
    );
}

#[test]
fn hidden_abandoned_volume_is_caught() {
    // A crashed, unreplicated overlay: the honest run abandons the orphan
    // volume and declares it, in the coverage report and the certificate.
    let (mut net, mut rng) = loaded_net(78);
    for _ in 0..5 {
        let victim = net.random_peer(&mut rng);
        net.crash(victim);
    }
    net.check_invariants();
    let score = LinearScore::uniform(2);
    let plane = FaultPlane {
        crash_fraction: 1.0,
        timeout_hops: 2,
        max_retries: 1,
        seed: 3,
        ..FaultPlane::none()
    };
    let initiator = net.random_peer(&mut rng);
    let exec = Executor::with_faults(&net, plane, 13);
    let (answers, _, cov, cert) =
        run_topk_certified(&exec, initiator, score.clone(), 10, Mode::Broadcast);
    let mut cert = cert.unwrap();
    assert!(
        !cov.is_complete(),
        "crashes without replicas must lose volume"
    );
    verify_topk(&cert, &answers, &score, 10, net.epoch()).unwrap();
    verify_coverage(&cert, cov.answered_fraction, &cov.unreachable).unwrap();
    // The corrupted executor drops the loss from both reports, presenting
    // a degraded answer as complete. The unreachable tiles no longer match
    // the coverage claim, and the tiling has a hole where the zone died.
    let target = cert
        .regions
        .iter()
        .position(|r| matches!(r, CertRegion::Unreachable { .. }))
        .unwrap();
    cert.regions.remove(target);
    assert!(matches!(
        verify_coverage(&cert, 1.0, &[]),
        Err(VerifyError::CoverageMismatch { .. })
    ));
    assert!(matches!(
        verify_tiling(&cert, cert.default_tolerance()),
        Err(VerifyError::TilingGap { .. })
    ));
}

// ---- in-flight corruption: the CorruptionPlane forges on the wire ----

/// A replicated, fully-live overlay: the audited arms below re-answer every
/// tainted zone from a fresh replica, so recall stays perfect even at 100%
/// corruption.
fn replicated_net(seed: u64) -> (MidasNetwork, SmallRng) {
    let (mut net, rng) = loaded_net(seed);
    net.enable_replication(1);
    net.refresh_replicas();
    net.check_invariants();
    (net, rng)
}

fn ids(answers: &[Tuple]) -> Vec<u64> {
    answers.iter().map(|t| t.id).collect()
}

/// Runs the three arms of one in-flight corruption experiment — honest,
/// corrupted-unaudited, corrupted-audited, in that order (the audited arm
/// goes last because its flush populates the quarantine registry) — and
/// asserts the audited arm's universal guarantees: honest answer, failed
/// audits on the ledger, complete coverage, verifying certificate,
/// populated quarantine. Returns the honest and unaudited answers for the
/// per-mode poisoning asserts.
fn corruption_arms(
    net: &MidasNetwork,
    rng: &mut SmallRng,
    plane: CorruptionPlane,
    k: usize,
    mode: Mode,
) -> (Vec<Tuple>, Vec<Tuple>, ripple_net::QueryMetrics) {
    let score = LinearScore::uniform(2);
    let initiator = net.random_peer(rng);
    let (honest, ..) = run_topk_certified(&Executor::new(net), initiator, score.clone(), k, mode);

    let ablation = Executor::new(net).with_corruption(plane).without_audit();
    let (poisoned, pm, _, _) = run_topk_certified(&ablation, initiator, score.clone(), k, mode);
    assert_eq!(pm.audits_run, 0, "the ablation arm must not audit");
    assert_eq!(net.quarantine().len(), 0, "nor quarantine anyone");

    let audited = Executor::new(net).with_corruption(plane);
    let (clean, m, cov, cert) = run_topk_certified(&audited, initiator, score.clone(), k, mode);
    assert_eq!(
        ids(&clean),
        ids(&honest),
        "audit + replica re-query must restore the honest answer"
    );
    assert!(m.audits_run > 0, "remote deposits must be audited");
    assert!(m.audits_failed > 0, "100% corruption must fail audits");
    assert!(
        cov.is_complete(),
        "every tainted zone has a live replica: coverage stays complete"
    );
    verify_topk(&cert.expect("certs on"), &clean, &score, k, net.epoch())
        .expect("the audited certificate must verify");
    assert!(
        net.quarantine().quarantined() > 0,
        "tainted peers must be quarantined at flush"
    );
    (honest, poisoned, m)
}

#[test]
fn in_flight_fabrication_poisons_unaudited_and_is_audited_out() {
    let (net, mut rng) = replicated_net(81);
    let plane = CorruptionPlane::only(CorruptionMode::Fabricate, 1.0, 21);
    let (_, poisoned, m) = corruption_arms(&net, &mut rng, plane, 10, Mode::Broadcast);
    // The forgery sits at the hi corner of the forger's restriction area:
    // the best corner beats every real tuple under a monotone score, so the
    // unaudited merge must rank at least one fabricated id into the top-k.
    assert!(
        poisoned.iter().any(|t| t.id >= 600),
        "the unaudited executor must admit a fabricated tuple: {:?}",
        ids(&poisoned)
    );
    // The audit catches the forgery as a tuple the responder's
    // authoritative store does not contain.
    assert!(m.tainted_tuples_discarded > 0);
}

#[test]
fn in_flight_score_flip_corrupts_unaudited_and_is_audited_out() {
    let (net, mut rng) = replicated_net(82);
    let plane = CorruptionPlane::only(CorruptionMode::ScoreFlip, 1.0, 22);
    let (honest, poisoned, _) = corruption_arms(&net, &mut rng, plane, 10, Mode::Broadcast);
    // The flip drives each deposit's best tuple negative: the true winners
    // vanish from the unaudited merge and the tail is promoted.
    assert_ne!(
        ids(&poisoned),
        ids(&honest),
        "the unaudited answer must lose flipped winners"
    );
}

#[test]
fn in_flight_truncation_is_caught_by_the_declared_length() {
    let (net, mut rng) = replicated_net(83);
    let plane = CorruptionPlane::only(CorruptionMode::Truncate, 1.0, 23);
    // k = 1: every remote deposit carries exactly its local best, so the
    // truncation empties it and the unaudited answer degrades to whatever
    // the initiator holds locally.
    let (honest, poisoned, _) = corruption_arms(&net, &mut rng, plane, 1, Mode::Broadcast);
    assert_ne!(
        ids(&poisoned),
        ids(&honest),
        "truncated deposits must cost the unaudited run its top-1"
    );
}

#[test]
fn in_flight_stale_generation_replay_is_pinned_out() {
    let (net, mut rng) = replicated_net(84);
    let plane = CorruptionPlane::only(CorruptionMode::StaleGeneration, 1.0, 24);
    let (honest, poisoned, _) = corruption_arms(&net, &mut rng, plane, 10, Mode::Broadcast);
    // The replayed payload is byte-identical to the honest one — replay
    // only poisons once the data changes underneath it — so the unaudited
    // answer happens to be right. The audited arm still rejects and
    // quarantines: the generation pin is what makes the next mutation safe.
    assert_eq!(ids(&poisoned), ids(&honest));
}

#[test]
fn in_flight_lying_witness_fails_cert_unaudited_and_is_recomputed_audited() {
    let (net, mut rng) = replicated_net(85);
    let score = LinearScore::uniform(2);
    let k = 10;
    let initiator = net.random_peer(&mut rng);
    let plane = CorruptionPlane::only(CorruptionMode::LyingWitness, 1.0, 25);
    let (honest, ..) = run_topk_certified(
        &Executor::new(&net),
        initiator,
        score.clone(),
        k,
        Mode::Slow,
    );

    // Witness corruption never touches answers — only the certificate.
    let ablation = Executor::new(&net).with_corruption(plane).without_audit();
    let (answers, _, _, cert) =
        run_topk_certified(&ablation, initiator, score.clone(), k, Mode::Slow);
    let cert = cert.expect("certs on");
    assert_eq!(ids(&answers), ids(&honest));
    assert!(
        cert.regions
            .iter()
            .any(|r| matches!(r, CertRegion::Pruned { .. })),
        "slow mode must prune (and therefore lie) somewhere"
    );
    assert!(
        matches!(
            verify_topk(&cert, &answers, &score, k, net.epoch()),
            Err(VerifyError::WitnessMismatch { .. })
        ),
        "the offline checker must reject the forged bound"
    );

    // The online audit recomputes each claimed bound before it enters the
    // certificate: the audited cert carries honest witnesses and verifies.
    let audited = Executor::new(&net).with_corruption(plane);
    let (answers, m, _, cert) =
        run_topk_certified(&audited, initiator, score.clone(), k, Mode::Slow);
    assert_eq!(ids(&answers), ids(&honest));
    assert!(m.audits_failed > 0, "every witness lie must be caught");
    verify_topk(&cert.expect("certs on"), &answers, &score, k, net.epoch())
        .expect("the audited certificate must verify");
    assert!(net.quarantine().quarantined() > 0, "liars are quarantined");
}
