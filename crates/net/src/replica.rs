//! Replica-backed durability: k read-only copies of every peer's tuples.
//!
//! The fault plane makes data loss *visible* (honest [`Coverage`] on query
//! outcomes); this layer makes it *recoverable*. The placement rule follows
//! directly from RIPPLE's region contract (Section 3.1): a peer's
//! responsibility region is exactly what its overlay neighbours must be able
//! to answer for it when it dies, so each replicated substrate re-uses its
//! own link structure as the replica topology — successor lists in Chord,
//! sibling/buddy boxes in MIDAS. The amount of redundancy is bounded by
//! `k`, in the spirit of Akbarinia et al.'s budgeted redundancy for
//! distributed top-k, and the constant-degree fault tolerance of the
//! Rainbow Skip Graph.
//!
//! The set is deliberately a *simulation-level* ledger: it lives in the
//! overlay's [`PeerTable`](crate::table::PeerTable), which also runs the
//! anti-entropy and promotion policy over it; it is keyed by **owner**,
//! with each entry remembering the owner's [`PeerStore`] generation at
//! capture time and the live peers currently holding the copy. Queries never
//! mutate it — the executor only *reads* replicas when a failover target
//! adopts a dead peer's sub-region — so replica hits stay deterministic
//! under the parallel executor (they are keyed by the failed edge, not by
//! thread schedule).
//!
//! [`Coverage`]: QueryMetrics
//! [`PeerStore`]: crate::store::PeerStore
//! [`QueryMetrics`]: crate::metrics::QueryMetrics

use crate::peer::PeerId;
use ripple_geom::Tuple;
use std::collections::BTreeMap;

/// One owner's replicated tuple set, captured at a specific store
/// generation.
#[derive(Clone, Debug, PartialEq)]
pub struct Replica {
    /// The peer whose tuples this copy preserves.
    owner: PeerId,
    /// The owner's [`PeerStore`](crate::store::PeerStore) generation at
    /// capture time. Compared against the latest generation the set has
    /// *seen* for the owner to decide staleness.
    generation: u64,
    /// The replicated tuples (read-only; queries never mutate a replica).
    tuples: Vec<Tuple>,
    /// Live peers currently holding the copy, in placement order.
    holders: Vec<PeerId>,
}

impl Replica {
    /// The replicated tuples.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// The peers holding this copy, in placement order.
    pub fn holders(&self) -> &[PeerId] {
        &self.holders
    }

    /// The store generation the copy was captured at.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The owner whose tuples this copy preserves.
    pub fn owner(&self) -> PeerId {
        self.owner
    }

    /// Simulated wire size of shipping this copy once: 8 bytes of id plus
    /// 8 bytes per coordinate, per tuple.
    pub fn payload_bytes(&self) -> u64 {
        self.tuples
            .iter()
            .map(|t| 8 + 8 * t.dims() as u64)
            .sum::<u64>()
    }
}

/// The network-wide replica ledger: up to `k` read-only copies of each
/// peer's tuples, keyed by `(owner, generation)`.
///
/// `BTreeMap` keys keep every iteration order deterministic — repair sweeps,
/// anti-entropy passes and the executor's dead-zone recovery all walk
/// owners in ascending [`PeerId`] order regardless of insertion history.
#[derive(Clone, Debug, Default)]
pub struct ReplicaSet {
    /// Replication degree: how many live holders each owner should have.
    k: usize,
    /// The current copy per owner (a single logical copy placed on up to
    /// `k` holders; the simulation does not model divergent holder states).
    entries: BTreeMap<PeerId, Replica>,
    /// The latest store generation *observed* per owner — bumped on every
    /// insert into a replicated owner even when no re-capture happens, so
    /// an entry can be recognised as stale.
    latest: BTreeMap<PeerId, u64>,
    /// Total simulated bytes shipped to create/refresh copies so far.
    replica_bytes: u64,
    /// Replica capture/promotion transfers performed since the last drain.
    repair_transfers: u64,
}

impl ReplicaSet {
    /// An empty set with replication degree `k`.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            ..Self::default()
        }
    }

    /// The replication degree.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of owners with a current copy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no owner has a copy.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Captures (or refreshes) the copy of `owner`'s tuples at store
    /// generation `generation`, placed on `holders`. Counts one repair
    /// transfer and the payload bytes shipped to every holder.
    pub fn capture(
        &mut self,
        owner: PeerId,
        generation: u64,
        tuples: Vec<Tuple>,
        holders: Vec<PeerId>,
    ) {
        let rep = Replica {
            owner,
            generation,
            tuples,
            holders,
        };
        self.replica_bytes += rep.payload_bytes() * rep.holders.len().max(1) as u64;
        self.repair_transfers += 1;
        self.latest.insert(owner, generation);
        self.entries.insert(owner, rep);
    }

    /// Notes that `owner`'s store has advanced to `generation` without
    /// re-capturing — the existing copy (if any) becomes stale. Anti-entropy
    /// sweeps use the gap between noted and captured generations to decide
    /// what to refresh.
    pub fn note_generation(&mut self, owner: PeerId, generation: u64) {
        let g = self.latest.entry(owner).or_insert(generation);
        *g = (*g).max(generation);
    }

    /// The current copy for `owner`, if one exists.
    pub fn get(&self, owner: PeerId) -> Option<&Replica> {
        self.entries.get(&owner)
    }

    /// The owners with a current copy, in ascending order.
    pub fn owners(&self) -> Vec<PeerId> {
        self.entries.keys().copied().collect()
    }

    /// True when `rep` was captured before the latest generation observed
    /// for its owner (the copy may be missing recent inserts).
    pub fn is_stale(&self, rep: &Replica) -> bool {
        self.latest
            .get(&rep.owner)
            .is_some_and(|&g| g != rep.generation)
    }

    /// Owners whose copy is stale (captured generation behind the latest
    /// observed one), in ascending owner order — the anti-entropy worklist.
    pub fn stale_owners(&self) -> Vec<PeerId> {
        self.entries
            .values()
            .filter(|r| self.is_stale(r))
            .map(|r| r.owner)
            .collect()
    }

    /// Removes and returns `owner`'s copy (departure promoted it, or the
    /// owner left gracefully and the copy is obsolete).
    pub fn drop_owner(&mut self, owner: PeerId) -> Option<Replica> {
        self.latest.remove(&owner);
        self.entries.remove(&owner)
    }

    /// Promotes `owner`'s copy after the owner crashed: the copy is removed
    /// from the ledger and handed to the repair protocol, which re-inserts
    /// the tuples at their live responsible peers. Counts one repair
    /// transfer and the payload shipped once (holder → adopter).
    pub fn promote(&mut self, owner: PeerId) -> Option<Replica> {
        let rep = self.drop_owner(owner)?;
        self.replica_bytes += rep.payload_bytes();
        self.repair_transfers += 1;
        Some(rep)
    }

    /// Owners (ascending) that list `holder` among their holders — the
    /// entries that must be re-shed when `holder` crashes or departs.
    pub fn owners_held_by(&self, holder: PeerId) -> Vec<PeerId> {
        self.entries
            .values()
            .filter(|r| r.holders.contains(&holder))
            .map(|r| r.owner)
            .collect()
    }

    /// Replaces `dead` in `owner`'s holder list with `fresh` (if the entry
    /// exists and actually listed `dead`), shipping the payload to the new
    /// holder. Counts one repair transfer. No-op when `fresh` already holds
    /// the copy.
    pub fn replace_holder(&mut self, owner: PeerId, dead: PeerId, fresh: Option<PeerId>) {
        if let Some(rep) = self.entries.get_mut(&owner) {
            let Some(pos) = rep.holders.iter().position(|&h| h == dead) else {
                return;
            };
            match fresh {
                Some(f) if !rep.holders.contains(&f) => {
                    rep.holders[pos] = f;
                    self.replica_bytes += rep.payload_bytes();
                    self.repair_transfers += 1;
                }
                _ => {
                    rep.holders.remove(pos);
                }
            }
        }
    }

    /// Total simulated bytes shipped to create/refresh copies so far.
    pub fn replica_bytes(&self) -> u64 {
        self.replica_bytes
    }

    /// Takes (and resets) the transfer counter — harnesses drain this into
    /// the per-query `repair_transfers` metric, like overlay
    /// `repair_messages`.
    pub fn drain_repair_transfers(&mut self) -> u64 {
        std::mem::take(&mut self.repair_transfers)
    }

    /// Takes (and resets) the byte counter.
    pub fn drain_replica_bytes(&mut self) -> u64 {
        std::mem::take(&mut self.replica_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuples(n: u64, dims: usize) -> Vec<Tuple> {
        (0..n).map(|i| Tuple::new(i, vec![0.5; dims])).collect()
    }

    #[test]
    fn capture_get_and_staleness() {
        let mut set = ReplicaSet::new(2);
        assert!(set.is_empty());
        set.capture(
            PeerId::new(3),
            7,
            tuples(4, 2),
            vec![PeerId::new(1), PeerId::new(2)],
        );
        let rep = set.get(PeerId::new(3)).expect("captured");
        assert_eq!(rep.owner(), PeerId::new(3));
        assert_eq!(rep.generation(), 7);
        assert_eq!(rep.tuples().len(), 4);
        assert_eq!(rep.holders(), &[PeerId::new(1), PeerId::new(2)]);
        assert!(!set.is_stale(rep), "fresh right after capture");
        assert!(set.stale_owners().is_empty());
        set.note_generation(PeerId::new(3), 9);
        let rep = set.get(PeerId::new(3)).unwrap();
        assert!(set.is_stale(rep), "observed generation moved past capture");
        assert_eq!(set.stale_owners(), vec![PeerId::new(3)]);
        // Re-capture at the latest generation clears staleness.
        set.capture(PeerId::new(3), 9, tuples(5, 2), vec![PeerId::new(1)]);
        assert!(!set.is_stale(set.get(PeerId::new(3)).unwrap()));
    }

    #[test]
    fn byte_and_transfer_accounting() {
        let mut set = ReplicaSet::new(1);
        // 4 tuples × (8 + 8·2) bytes × 2 holders
        set.capture(
            PeerId::new(0),
            1,
            tuples(4, 2),
            vec![PeerId::new(1), PeerId::new(2)],
        );
        assert_eq!(set.replica_bytes(), 4 * 24 * 2);
        assert_eq!(set.drain_repair_transfers(), 1);
        assert_eq!(set.drain_repair_transfers(), 0, "drain resets");
        // Replacing a holder ships one more copy.
        set.replace_holder(PeerId::new(0), PeerId::new(1), Some(PeerId::new(5)));
        assert_eq!(set.drain_repair_transfers(), 1);
        assert_eq!(
            set.get(PeerId::new(0)).unwrap().holders(),
            &[PeerId::new(5), PeerId::new(2)]
        );
        assert_eq!(set.drain_replica_bytes(), 4 * 24 * 2 + 4 * 24);
        assert_eq!(set.replica_bytes(), 0);
    }

    #[test]
    fn holder_maintenance() {
        let mut set = ReplicaSet::new(2);
        set.capture(PeerId::new(0), 1, tuples(1, 2), vec![PeerId::new(8)]);
        set.capture(
            PeerId::new(4),
            1,
            tuples(1, 2),
            vec![PeerId::new(8), PeerId::new(9)],
        );
        set.capture(PeerId::new(6), 1, tuples(1, 2), vec![PeerId::new(9)]);
        assert_eq!(
            set.owners_held_by(PeerId::new(8)),
            vec![PeerId::new(0), PeerId::new(4)]
        );
        // No fresh target: the dead holder is simply dropped.
        set.replace_holder(PeerId::new(0), PeerId::new(8), None);
        assert!(set.get(PeerId::new(0)).unwrap().holders().is_empty());
        // Fresh target already holding: dead holder dropped, no transfer.
        set.drain_repair_transfers();
        set.replace_holder(PeerId::new(4), PeerId::new(8), Some(PeerId::new(9)));
        assert_eq!(
            set.get(PeerId::new(4)).unwrap().holders(),
            &[PeerId::new(9)]
        );
        assert_eq!(set.drain_repair_transfers(), 0);
        // Dropping an owner removes entry and generation tracking.
        assert!(set.drop_owner(PeerId::new(6)).is_some());
        assert!(set.get(PeerId::new(6)).is_none());
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn promotion_counts_one_transfer() {
        let mut set = ReplicaSet::new(1);
        set.capture(PeerId::new(2), 1, tuples(3, 2), vec![PeerId::new(7)]);
        set.drain_repair_transfers();
        set.drain_replica_bytes();
        let rep = set.promote(PeerId::new(2)).expect("copy existed");
        assert_eq!(rep.tuples().len(), 3);
        assert_eq!(set.drain_repair_transfers(), 1);
        assert_eq!(set.drain_replica_bytes(), 3 * 24);
        assert!(set.get(PeerId::new(2)).is_none(), "copy consumed");
        assert!(
            set.promote(PeerId::new(2)).is_none(),
            "second promote no-op"
        );
    }
}
