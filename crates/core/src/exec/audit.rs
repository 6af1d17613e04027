//! Commission faults and the online audit of remote contributions.
//!
//! A [`CorruptionPlane`] makes peers lie: answer deposits are corrupted on
//! the way to the initiator (score flips, truncation, stale generations,
//! fabricated tuples) and prune witnesses claim drifted bounds. Every draw
//! is keyed by `(responder, initiator)` on the executor's stream, so both
//! fan-outs see the same lies. With auditing on, each remote contribution
//! is checked against the responder's authoritative store before it is
//! merged; a failed audit discards it, taints the peer, and re-answers its
//! zone from a replica or honestly reports it unreachable.
//!
//! [`CorruptionPlane`]: ripple_net::CorruptionPlane

use super::{Executor, QuerySession};
use crate::framework::{RankQuery, RippleOverlay};
use ripple_geom::{neumaier, Tuple};
use ripple_net::{BranchLedger, CorruptionMode, PeerId};
use ripple_verify::{audit_response, audit_witness, CertRegion, PruneWitness, ResponseEnvelope};

impl<'a, O: RippleOverlay> Executor<'a, O> {
    /// Records a pruned-link tile with the query's evidence that skipping
    /// the region was sound. No-op when certificate emission is off.
    ///
    /// The commission-fault plane taps this path: a lying peer reports a
    /// corrupted numeric bound for the witness. When auditing is on the
    /// claimed bound is checked against the honestly recomputed one — a
    /// mismatch taints the peer and the *honest* witness is emitted (the
    /// pruned region itself needs no re-query: pruning soundness depends
    /// only on the recomputed bound). When auditing is off the corrupted
    /// witness lands in the certificate, where the offline verifier fails
    /// it with `WitnessMismatch`.
    pub(super) fn certify_pruned<Q: RankQuery<O::Region>>(
        &self,
        query: &Q,
        w: PeerId,
        region: &O::Region,
        global: &Q::Global,
        sess: &QuerySession,
        ledger: &mut BranchLedger,
    ) {
        if ledger.cert.is_none() {
            return;
        }
        let honest = query.prune_witness(region, global);
        let witness = if w != sess.initiator && sess.corrupt.lies_about_witness(w, sess.initiator) {
            corrupt_witness(&honest)
        } else {
            honest.clone()
        };
        let emitted = if self.audit && sess.corrupt.active() {
            ledger.metrics.audits_run += 1;
            if audit_witness(&witness, &honest).is_err() {
                ledger.metrics.audits_failed += 1;
                ledger.audits.push((w, true));
                honest
            } else {
                witness
            }
        } else {
            witness
        };
        let entry = CertRegion::Pruned {
            rects: self.net.region_rects(region),
            volume: self.net.region_volume(region),
            witness: emitted,
        };
        ledger.certify(|| entry);
    }

    /// The coordinates of a fabricated tuple: the max corner of the first
    /// rectangle of the restriction area the lying peer was handed. The
    /// corner maximizes monotone scores, so an unaudited executor ranks the
    /// forgery at the top — the worst-case poisoning.
    fn fabricated_point(&self, restriction: &O::Region) -> Option<Vec<f64>> {
        self.net
            .region_rects(restriction)
            .first()
            .map(|r| r.hi().coords().to_vec())
    }

    /// Deposits a peer's local answer into the branch ledger, passing it
    /// through the commission-fault plane and the online audit on the way.
    ///
    /// The initiator's own deposit is merged directly, and with no active
    /// corruption plane and no probation peer to probe the whole path
    /// collapses to the historical `ledger.answer(...)` — the clean-path
    /// invisibility gate. Otherwise the deposit is wrapped in a response
    /// envelope, possibly corrupted by the session's keyed stream, and —
    /// when auditing is on — checked against the responder's authoritative
    /// store: a failed audit discards the payload, taints the peer, and
    /// re-answers its zone from a replica (or honestly reports it
    /// unreachable). `recompute` runs the query's local functions the way
    /// an honest responder would, under the global state the peer was
    /// handed.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn deposit_answer<F: Fn(&[Tuple]) -> Vec<Tuple>>(
        &self,
        w: PeerId,
        restriction: &O::Region,
        scan_tile: Option<usize>,
        sess: &QuerySession,
        ledger: &mut BranchLedger,
        answer: Vec<Tuple>,
        recompute: &F,
    ) {
        if w == sess.initiator || (!sess.corrupt.active() && !sess.qsnap.has_probation()) {
            ledger.answer(answer);
            return;
        }
        let expected = self.net.snapshot_generation();
        let mut payload = answer;
        let mut declared = payload.len();
        let mut generation = expected;
        if let Some(mode) = sess.corrupt.corrupts(w, sess.initiator, 0) {
            corrupt_payload(
                mode,
                &mut payload,
                &mut declared,
                &mut generation,
                w,
                || self.fabricated_point(restriction),
            );
        }
        if !self.audit {
            // Ablation arm: the (possibly poisoned) payload is merged
            // unchallenged.
            ledger.answer(payload);
            return;
        }
        ledger.metrics.audits_run += 1;
        let env = ResponseEnvelope {
            payload: &payload,
            declared_len: declared,
            generation,
        };
        if audit_response(&env, self.net.peer_tuples(w), expected).is_ok() {
            if sess.qsnap.is_probation(w) {
                ledger.audits.push((w, false));
            }
            ledger.answer(payload);
        } else {
            ledger.metrics.audits_failed += 1;
            ledger.metrics.tainted_tuples_discarded += payload.len() as u64;
            ledger.audits.push((w, true));
            self.audit_recover(w, restriction, scan_tile, ledger, recompute);
        }
    }

    /// Re-answers the zone of an audited-out peer: its tainted contribution
    /// covered the part of `restriction` no intersected link claims — the
    /// same arithmetic as the peer's `Scanned` tile. A live replica of the
    /// peer's tuples answers the zone (charged like any failover replica
    /// read); with none, the zone is honestly unreachable. Either way the
    /// scanned tile is rewritten in place; the unreachable case also
    /// inserts the volume into the ledger's coverage stream at the tile's
    /// ordinal, keeping the 1:1 in-order pairing between `Unreachable`
    /// tiles and coverage entries that both fan-outs and the coverage
    /// verifier rely on.
    fn audit_recover<F: Fn(&[Tuple]) -> Vec<Tuple>>(
        &self,
        w: PeerId,
        restriction: &O::Region,
        scan_tile: Option<usize>,
        ledger: &mut BranchLedger,
        recompute: &F,
    ) {
        let covered = neumaier(
            self.net
                .links_within(w, restriction)
                .iter()
                .map(|(_, rr)| self.net.region_volume(rr)),
        );
        let volume = self.net.region_volume(restriction) - covered;
        if let Some(set) = self.replica_set() {
            if self.read_replica(set, w, ledger, recompute) {
                if let (Some(idx), Some(cert)) = (scan_tile, ledger.cert.as_mut()) {
                    cert[idx] = CertRegion::Replica {
                        owner: w.index() as u64,
                        volume,
                    };
                }
                return;
            }
        }
        match (scan_tile, ledger.cert.as_mut()) {
            (Some(idx), Some(cert)) => {
                let ordinal = cert[..idx]
                    .iter()
                    .filter(|r| matches!(r, CertRegion::Unreachable { .. }))
                    .count();
                cert[idx] = CertRegion::Unreachable { volume };
                ledger.unreachable.insert(ordinal, volume);
            }
            _ => ledger.unreachable.push(volume),
        }
    }
}

/// Applies one commission-fault mode to an answer envelope in place.
/// `fabricate` supplies the coordinates of a forged tuple (`None` when the
/// restriction has no geometry to forge into).
fn corrupt_payload(
    mode: CorruptionMode,
    payload: &mut Vec<Tuple>,
    declared: &mut usize,
    generation: &mut u64,
    w: PeerId,
    fabricate: impl FnOnce() -> Option<Vec<f64>>,
) {
    match mode {
        CorruptionMode::ScoreFlip => {
            if let Some(t) = payload.first_mut() {
                let mut coords = t.point.coords().to_vec();
                coords[0] = -(coords[0].abs() + 1.0);
                *t = Tuple::new(t.id, coords);
            }
        }
        CorruptionMode::Truncate => {
            // The declared length stays honest while the payload loses its
            // last tuple (an empty answer has nothing to truncate).
            payload.pop();
        }
        CorruptionMode::StaleGeneration => *generation = generation.wrapping_sub(1),
        CorruptionMode::Fabricate => {
            if let Some(coords) = fabricate() {
                // A fresh id no store ever issued; length re-declared so
                // only store membership can catch the forgery.
                payload.push(Tuple::new(u64::MAX - w.index() as u64, coords));
                *declared = payload.len();
            }
        }
        CorruptionMode::LyingWitness => {
            unreachable!("witness lies are drawn on the witness stream, never on deposits")
        }
    }
}

/// A corrupted numeric prune witness: the claimed bound drifts off the
/// honestly recomputed one. Structural witnesses have no number to lie
/// about and pass through unchanged.
fn corrupt_witness(honest: &PruneWitness) -> PruneWitness {
    match honest {
        PruneWitness::ScoreBound { bound } => PruneWitness::ScoreBound { bound: bound + 1.0 },
        PruneWitness::PhiBound { bound } => PruneWitness::PhiBound { bound: bound - 1.0 },
        other => other.clone(),
    }
}
