//! Fault-aware delivery of query forwards.
//!
//! The executor is optionally driven by a [`FaultPlane`]: each query-forward
//! transmission then passes through [`Executor::deliver`], which simulates
//! message drops, per-hop timeouts with exponentially backed-off
//! retransmissions, slow-peer delivery penalties, and — when a target stays
//! unreachable — failover to an alternate live peer inside the same
//! restriction area. When no candidate is left the area is *abandoned* and
//! its domain volume is reported in [`QueryOutcome::coverage`]: execution
//! degrades gracefully, never panics, and never pretends a partial answer is
//! complete. With [`FaultPlane::none`] the delivery path short-circuits to
//! exactly one `forward()` and one hop, making the fault-aware executor
//! observationally identical to the historical fault-unaware one (enforced
//! bit-for-bit by the equivalence tests).
//!
//! When the overlay maintains a [`ReplicaSet`], the dead zones of an
//! abandoned area are answered from replicas before any volume is reported
//! unreachable.
//!
//! [`FaultPlane`]: ripple_net::FaultPlane
//! [`FaultPlane::none`]: ripple_net::FaultPlane::none
//! [`QueryOutcome::coverage`]: crate::framework::QueryOutcome::coverage

use super::{with_scan, Executor, QuerySession};
use crate::framework::RippleOverlay;
use ripple_geom::Tuple;
use ripple_net::{BranchLedger, FaultSession, PeerId, ReplicaSet};
use ripple_verify::CertRegion;

/// Records `volume` of a restriction area as unreachable: in the coverage
/// stream and as an `Unreachable` certificate tile.
fn abandon(ledger: &mut BranchLedger, volume: f64) {
    ledger.unreachable.push(volume);
    ledger.certify(|| CertRegion::Unreachable { volume });
}

impl<'a, O: RippleOverlay> Executor<'a, O> {
    /// Simulates the retransmission loop of the edge `sender → target`:
    /// `1 + max_retries` send attempts, each lost to the network with the
    /// plane's drop probability (or unacknowledged outright when the target
    /// is dead), each loss costing the sender a timeout wait that backs off
    /// exponentially. Returns `(elapsed, delivered)` — the simulated hops
    /// that passed at the sender and whether the message was eventually
    /// processed (in which case `elapsed` includes the final transit hop and
    /// the target's slow-peer penalty).
    ///
    /// Each attempt's drop verdict comes from the fault session's stream
    /// keyed by `(sender, target, attempt)` — no draw-order state exists, so
    /// both fan-outs see the same losses on the same tree.
    fn transmit(
        &self,
        sender: PeerId,
        target: PeerId,
        faults: &FaultSession,
        ledger: &mut BranchLedger,
    ) -> (u64, bool) {
        let alive = self.net.is_peer_live(target);
        let mut elapsed = 0u64;
        let mut attempt = 0u32;
        loop {
            ledger.metrics.forward();
            // `&&` short-circuits: sends to a dead peer are lost without
            // consulting the drop stream (the keyed verdict for that edge is
            // simply never asked for).
            if alive && !faults.drops_message(sender, target, attempt) {
                return (elapsed + 1 + faults.slow_penalty(target), true);
            }
            if alive {
                ledger.metrics.messages_dropped += 1;
            }
            ledger.metrics.timeouts += 1;
            elapsed += faults.timeout() << attempt.min(16);
            if attempt >= faults.max_retries() {
                return (elapsed, false);
            }
            attempt += 1;
            ledger.metrics.retries += 1;
        }
    }

    /// The overlay's replica set when failover may read from it: replicas
    /// enabled on this executor and at least one copy maintained.
    pub(super) fn replica_set(&self) -> Option<&'a ReplicaSet> {
        self.net
            .replicas()
            .filter(|set| self.use_replicas && set.k() > 0 && !set.is_empty())
    }

    /// Answers `owner`'s zone from its replica when a live holder keeps
    /// one: the adopter fetches the copy (one forward message, the payload
    /// charged to `replica_bytes`, a lagging copy counted in `stale_reads`)
    /// and runs the query's local functions over it via `answer`, appending
    /// the result to the ledger exactly where a live peer's answer would
    /// land. Returns whether a replica was read.
    pub(super) fn read_replica<F: Fn(&[Tuple]) -> Vec<Tuple>>(
        &self,
        set: &ReplicaSet,
        owner: PeerId,
        ledger: &mut BranchLedger,
        answer: &F,
    ) -> bool {
        let Some(rep) = set
            .get(owner)
            .filter(|rep| rep.holders().iter().any(|&h| self.net.is_peer_live(h)))
        else {
            return false;
        };
        ledger.metrics.forward();
        ledger.metrics.replica_hits += 1;
        if set.is_stale(rep) {
            ledger.metrics.stale_reads += 1;
        }
        ledger.metrics.replica_bytes += rep.payload_bytes();
        let ans = with_scan(self.trace, &mut ledger.metrics, || answer(rep.tuples()));
        ledger.answer(ans);
        true
    }

    /// Answers the dead zones of an abandoned (part of a) restriction area
    /// from the overlay's replica set, if one is maintained. For each dead
    /// zone inside `region` whose owner has a fresh-enough copy on a live
    /// holder, the adopter fetches the copy (one forward message, the
    /// payload charged to `replica_bytes`) and runs the query's local
    /// functions over it via `answer`, appending the result to the branch
    /// ledger exactly where a live peer's answer would land. `kept` is the
    /// part of the region failover *did* cover — dead zones falling inside
    /// it will be answered by the adopted subtree itself and are skipped
    /// here, so no tuple is recovered twice. Returns the total dead-zone
    /// volume recovered; the caller subtracts it from the would-be
    /// unreachable volume.
    ///
    /// Replica fetches add messages and bytes but no simulated hops: the
    /// adopter overlaps the fetch with the waits already charged by the
    /// failed retransmissions.
    fn recover_region<F: Fn(&[Tuple]) -> Vec<Tuple>>(
        &self,
        region: &O::Region,
        kept: Option<&O::Region>,
        excluded: &[PeerId],
        ledger: &mut BranchLedger,
        answer: &F,
    ) -> f64 {
        let Some(set) = self.replica_set() else {
            return 0.0;
        };
        // Owners whose dead (or quarantined) zone survives in the kept
        // part: the adopted subtree recovers those itself (its own deliver
        // failures will land here again with the smaller region).
        let downstream: Vec<PeerId> = match kept {
            Some(kept) => self
                .net
                .dead_zones_in(kept)
                .into_iter()
                .chain(self.net.peer_zones_in(excluded, kept))
                .map(|(owner, _)| owner)
                .collect(),
            None => Vec::new(),
        };
        // Dead zones first, quarantined zones after — a fixed order on data
        // that cannot change mid-query (orphans under the epoch handshake,
        // `excluded` from the immutable session snapshot), so both fan-outs'
        // recoveries agree tile for tile.
        let candidates = self
            .net
            .dead_zones_in(region)
            .into_iter()
            .chain(self.net.peer_zones_in(excluded, region));
        let mut recovered = 0.0;
        for (owner, vol) in candidates {
            if downstream.contains(&owner) || !self.read_replica(set, owner, ledger, answer) {
                continue;
            }
            ledger.certify(|| CertRegion::Replica {
                owner: owner.index() as u64,
                volume: vol,
            });
            recovered += vol;
        }
        recovered
    }

    /// Delivers a query-forward from `sender` into `restriction`, starting
    /// at the link target `first` and failing over across the overlay's
    /// alternate live candidates when retransmissions are exhausted. Returns
    /// the simulated hops spent at the sender and the peer that ended up
    /// processing the message together with the (possibly failover-trimmed)
    /// restriction it covers — or `None` when every candidate failed. Both
    /// the trimmed-off parts and fully abandoned areas are first offered to
    /// [`Executor::recover_region`] — when the overlay replicates, the dead
    /// zones inside them are answered from replicas — and only the volume
    /// that stays unanswered is recorded as unreachable (graceful
    /// degradation, honestly accounted).
    ///
    /// With an inactive fault session this is exactly one `forward()` and
    /// one hop — bit-identical to the historical fault-unaware executor.
    /// With no replica set (or `k = 0`) the recovery call returns zero and
    /// the unreachable accounting is bit-identical to the replica-unaware
    /// executor.
    pub(super) fn deliver<F: Fn(&[Tuple]) -> Vec<Tuple>>(
        &self,
        sender: PeerId,
        first: PeerId,
        restriction: O::Region,
        sess: &QuerySession,
        ledger: &mut BranchLedger,
        answer: &F,
    ) -> (u64, Option<(PeerId, O::Region)>) {
        if !sess.faults.active() && sess.qsnap.no_exclusions() {
            ledger.metrics.forward();
            return (1, Some((first, restriction)));
        }
        let mut elapsed = 0u64;
        let mut tried: Vec<PeerId> = sess.qsnap.excluded().to_vec();
        let mut target = first;
        let mut restriction = restriction;
        loop {
            // A quarantined target is refused outright — no send, no
            // timeout wait: the sender treats it like a known-dead peer.
            let (spent, delivered) = if sess.qsnap.is_excluded(target) {
                (0, false)
            } else {
                self.transmit(sender, target, &sess.faults, ledger)
            };
            elapsed += spent;
            if delivered {
                return (elapsed, Some((target, restriction)));
            }
            if !tried.contains(&target) {
                tried.push(target);
            }
            // The filter guards against overlays whose `failover_target`
            // ignores the `tried` exclusion: re-selecting an already-tried
            // peer would loop forever once quarantine (or the overlay's own
            // candidate logic) shrinks the candidate set. A filtered-out
            // candidate means candidates are exhausted, not retryable.
            match self
                .net
                .failover_target(&restriction, &tried)
                .filter(|(next, _)| !tried.contains(next))
            {
                Some((next, sub)) => {
                    let lost = self.net.region_volume(&restriction) - self.net.region_volume(&sub);
                    if lost > 1e-12 {
                        let recovered = self.recover_region(
                            &restriction,
                            Some(&sub),
                            sess.qsnap.excluded(),
                            ledger,
                            answer,
                        );
                        let remaining = lost - recovered;
                        if remaining > 1e-12 {
                            abandon(ledger, remaining);
                        }
                    }
                    restriction = sub;
                    target = next;
                }
                None => {
                    let vol = self.net.region_volume(&restriction);
                    let recovered = self.recover_region(
                        &restriction,
                        None,
                        sess.qsnap.excluded(),
                        ledger,
                        answer,
                    );
                    if recovered == 0.0 {
                        // Bit-identical to the replica-unaware executor: the
                        // whole region is reported, even if its volume is
                        // (numerically) zero.
                        abandon(ledger, vol);
                    } else {
                        let remaining = vol - recovered;
                        if remaining > 1e-12 {
                            abandon(ledger, remaining);
                        }
                    }
                    return (elapsed, None);
                }
            }
        }
    }
}
