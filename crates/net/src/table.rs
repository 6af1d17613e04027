//! The peer table: the store and replica plumbing every replicated
//! substrate shares.
//!
//! RIPPLE's templates run over any overlay whose links partition the domain
//! (Section 3.1); what differs between overlays is the zone type, the link
//! rule and the repair protocol. The rest lives here once: the peers and
//! their stores, the write path (epoch bump, owner store write, replica
//! generation note, lost-tuple count), the anti-entropy policy over the
//! [`ReplicaSet`], the maintenance counters and the [`Quarantine`]. A
//! substrate owns a [`PeerTable`] and implements [`Substrate`].

use crate::peer::PeerId;
use crate::quarantine::Quarantine;
use crate::replica::ReplicaSet;
use crate::store::PeerStore;
use ripple_geom::{Tuple, TupleId};
use std::collections::BTreeMap;

/// A peer a [`PeerTable`] can hold: anything with a tuple store.
pub trait TablePeer {
    /// The peer's tuple store.
    fn store(&self) -> &PeerStore;
    /// Mutable access to the peer's tuple store.
    fn store_mut(&mut self) -> &mut PeerStore;
}

/// The peers of one overlay plus the bookkeeping every replicated
/// substrate keeps about them.
#[derive(Clone, Debug)]
pub struct PeerTable<P> {
    /// One slot per id ever allocated; a departed peer's slot is `None`.
    peers: Vec<Option<P>>,
    tuples_lost: u64,
    tuples_recovered: u64,
    repair_messages: u64,
    replicas: Option<ReplicaSet>,
    quarantine: Quarantine,
    epoch: u64,
}

impl<P> Default for PeerTable<P> {
    fn default() -> Self {
        Self {
            peers: Vec::new(),
            tuples_lost: 0,
            tuples_recovered: 0,
            repair_messages: 0,
            replicas: None,
            quarantine: Quarantine::new(),
            epoch: 0,
        }
    }
}

impl<P> PeerTable<P> {
    /// The id the next [`push`](Self::push) allocates.
    pub fn next_id(&self) -> PeerId {
        PeerId::new(self.peers.len() as u32)
    }

    /// Adds a peer under [`next_id`](Self::next_id) and returns that id.
    pub fn push(&mut self, peer: P) -> PeerId {
        let id = self.next_id();
        self.peers.push(Some(peer));
        id
    }

    /// Empties a departed peer's slot (its id is never reused).
    pub fn remove(&mut self, id: PeerId) {
        self.peers[id.index()] = None;
    }

    /// True if `id`'s slot holds a peer.
    pub fn contains(&self, id: PeerId) -> bool {
        self.peers.get(id.index()).is_some_and(|p| p.is_some())
    }

    /// Borrows a peer.
    ///
    /// # Panics
    /// Panics if the peer departed.
    pub fn peer(&self, id: PeerId) -> &P {
        self.peers[id.index()].as_ref().expect("peer departed")
    }

    /// Mutably borrows a peer.
    ///
    /// # Panics
    /// Panics if the peer departed.
    pub fn peer_mut(&mut self, id: PeerId) -> &mut P {
        self.peers[id.index()].as_mut().expect("peer departed")
    }

    /// Records one structural mutation (join, leave, crash, repair).
    pub fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Counts `n` tuples lost to a crash.
    pub fn count_lost(&mut self, n: u64) {
        self.tuples_lost += n;
    }

    /// Counts `n` maintenance messages spent by a repair.
    pub fn count_repair_messages(&mut self, n: u64) {
        self.repair_messages += n;
    }
}

impl<P: TablePeer> PeerTable<P> {
    /// Marks `owner`'s copy (if any) as behind its store: the next
    /// anti-entropy pass refreshes it, and a recovery read in between is
    /// counted as stale.
    fn note_write(&mut self, owner: PeerId) {
        let generation = self.peer(owner).store().generation();
        if let Some(set) = self.replicas.as_mut() {
            set.note_generation(owner, generation);
        }
    }
}

/// The key to [`Substrate::table_mut`]. Only this module can make one, so a
/// substrate's table is mutated by the substrate itself (through its own
/// field) and by [`Substrate`]'s provided methods, never by a caller:
///
/// ```compile_fail
/// let key = ripple_net::TableAccess(());
/// ```
pub struct TableAccess(());

/// An overlay built on a [`PeerTable`]: supplies what differs between
/// substrates (tuple owner, replica placement, liveness, the crashed-owner
/// test) and gets the write path, the replica policy and the counters.
pub trait Substrate {
    /// The substrate's peer type.
    type Peer: TablePeer;

    /// The peer table.
    fn table(&self) -> &PeerTable<Self::Peer>;

    /// Mutable access to the peer table, for the provided methods only (see
    /// [`TableAccess`]).
    fn table_mut(&mut self, key: TableAccess) -> &mut PeerTable<Self::Peer>;

    /// The live peer responsible for `t`, or `None` when its key lies in a
    /// crashed, not-yet-repaired zone (maintenance-side; not charged to
    /// query metrics).
    ///
    /// # Panics
    /// Panics if `t` lies outside the substrate's domain.
    fn owner_of(&self, t: &Tuple) -> Option<PeerId>;

    /// The peers that should hold `id`'s replicas, in placement order.
    /// Deterministic; never contains `id`; shorter than `k` only when fewer
    /// than `k` other live peers exist; empty for a dead `id`.
    fn replica_targets(&self, id: PeerId, k: usize) -> Vec<PeerId>;

    /// True if `id` crashed and its zone still awaits repair: its replica
    /// is then the recovery substrate and must be kept.
    fn is_crashed(&self, id: PeerId) -> bool;

    /// The live peers in ascending id order.
    fn live_ids(&self) -> Vec<PeerId>;

    /// True if the peer is live. By default, every peer in the table is.
    fn is_live(&self, id: PeerId) -> bool {
        self.table().contains(id)
    }

    /// Snapshot generation: bumped by every mutation (joins, leaves,
    /// crashes, repairs, inserts, replication changes). Answer certificates
    /// are stamped with it so a verifier can tell which overlay state a
    /// query ran against.
    fn epoch(&self) -> u64 {
        self.table().epoch
    }

    /// Peers caught lying by the executor's online response audit. Always
    /// present (an empty registry costs one snapshot check per query); the
    /// executor snapshots and flushes it, the serving layer grants
    /// probation on epoch advances.
    fn quarantine(&self) -> &Quarantine {
        &self.table().quarantine
    }

    /// The replica ledger, when replication is enabled.
    fn replicas(&self) -> Option<&ReplicaSet> {
        self.table().replicas.as_ref()
    }

    /// Mutable access to the replica ledger (harnesses drain its transfer
    /// and byte counters into their metrics).
    fn replicas_mut(&mut self) -> Option<&mut ReplicaSet> {
        self.table_mut(TableAccess(())).replicas.as_mut()
    }

    /// Tuples lost to crashes so far (dead stores + inserts into crashed
    /// zones).
    fn tuples_lost(&self) -> u64 {
        self.table().tuples_lost
    }

    /// Tuples restored from replicas by repair-time promotion so far (a
    /// subset of [`tuples_lost`](Self::tuples_lost), which keeps counting
    /// the raw crash damage).
    fn tuples_recovered(&self) -> u64 {
        self.table().tuples_recovered
    }

    /// Drains the count of maintenance messages spent by repairs (explicit
    /// and lazy) since the last call.
    fn take_repair_messages(&mut self) -> u64 {
        std::mem::take(&mut self.table_mut(TableAccess(())).repair_messages)
    }

    /// Stores a tuple at its owner. A tuple whose key falls in a crashed
    /// zone has no live owner: it is counted as lost rather than panicking.
    fn insert_tuple(&mut self, t: Tuple) {
        let owner = self.owner_of(&t);
        let table = self.table_mut(TableAccess(()));
        table.epoch += 1;
        match owner {
            Some(owner) => {
                table.peer_mut(owner).store_mut().insert(t);
                table.note_write(owner);
            }
            None => table.tuples_lost += 1,
        }
    }

    /// Bulk-loads a dataset.
    fn insert_all(&mut self, tuples: impl IntoIterator<Item = Tuple>) {
        for t in tuples {
            self.insert_tuple(t);
        }
    }

    /// Stores a batch of tuples as **one** logical mutation: the epoch
    /// advances once and each owning peer's store generation bumps once, no
    /// matter how many tuples land there. Tuples routed into crashed zones
    /// are counted as lost, like [`insert_tuple`](Self::insert_tuple).
    fn insert_batch(&mut self, tuples: impl IntoIterator<Item = Tuple>) {
        let mut by_owner: BTreeMap<PeerId, Vec<Tuple>> = BTreeMap::new();
        let mut lost = 0;
        for t in tuples {
            match self.owner_of(&t) {
                Some(owner) => by_owner.entry(owner).or_default().push(t),
                None => lost += 1,
            }
        }
        let table = self.table_mut(TableAccess(()));
        table.epoch += 1;
        table.tuples_lost += lost;
        for (owner, batch) in by_owner {
            table.peer_mut(owner).store_mut().insert_batch(batch);
            table.note_write(owner);
        }
    }

    /// Deletes tuples by id across all live peers as **one** logical
    /// mutation per affected store (one epoch step, one generation bump per
    /// store that actually loses rows). Returns how many rows were removed.
    fn delete_tuples(&mut self, ids: &[TupleId]) -> usize {
        let live = self.live_ids();
        let table = self.table_mut(TableAccess(()));
        table.epoch += 1;
        let mut removed = 0;
        for id in live {
            let n = table
                .peer_mut(id)
                .store_mut()
                .delete_batch(ids.iter().copied());
            if n > 0 {
                removed += n;
                table.note_write(id);
            }
        }
        removed
    }

    /// Compacts every live peer's store (folding tombstoned runs into fresh
    /// ones). Compaction is a physical reorganisation, not a logical
    /// mutation: the epoch and store generations are untouched, so cached
    /// results and certificates stay valid. Returns total rows rewritten.
    fn compact_stores(&mut self) -> u64 {
        let live = self.live_ids();
        let table = self.table_mut(TableAccess(()));
        live.into_iter()
            .map(|id| table.peer_mut(id).store_mut().compact())
            .sum()
    }

    /// Enables k-replication onto [`replica_targets`](Self::replica_targets).
    /// Captures the initial copies immediately and returns how many were
    /// shipped; the ledger is kept fresh by
    /// [`refresh_replicas`](Self::refresh_replicas).
    fn enable_replication(&mut self, k: usize) -> u64 {
        let table = self.table_mut(TableAccess(()));
        table.epoch += 1;
        table.replicas = Some(ReplicaSet::new(k));
        self.refresh_replicas()
    }

    /// One anti-entropy pass over the replica ledger. Re-captures every live
    /// owner whose copy is missing, behind its store generation, short of
    /// holders, or placed on a dead holder; re-sheds crashed owners' copies
    /// from a surviving holder (dropping them when no holder survived — the
    /// copy itself died); prunes entries of gracefully departed owners.
    /// Returns the number of copies shipped or re-shed. No-op (0) when
    /// replication is disabled.
    fn refresh_replicas(&mut self) -> u64 {
        let table = self.table_mut(TableAccess(()));
        let Some(mut set) = table.replicas.take() else {
            return 0;
        };
        table.epoch += 1;
        let k = set.k();
        let mut refreshed = 0u64;
        if k > 0 {
            let live = self.live_ids();
            let want = k.min(live.len().saturating_sub(1));
            for &id in &live {
                let generation = self.table().peer(id).store().generation();
                let needs = match set.get(id) {
                    None => want > 0,
                    Some(rep) => {
                        rep.generation() != generation
                            || rep.holders().len() < want
                            || rep.holders().iter().any(|&h| !self.is_live(h))
                    }
                };
                if !needs {
                    continue;
                }
                let holders = self.replica_targets(id, k);
                if holders.is_empty() {
                    set.note_generation(id, generation);
                    continue;
                }
                let tuples = self.table().peer(id).store().tuples().to_vec();
                set.capture(id, generation, tuples, holders);
                refreshed += 1;
            }
            // Owners that are no longer live: graceful departures handed
            // their data over, so the copy is obsolete; crashed owners'
            // copies are the recovery substrate and must be kept on live
            // holders as long as one survives to re-shed from.
            for owner in set.owners() {
                if self.is_live(owner) {
                    continue;
                }
                if !self.is_crashed(owner) {
                    set.drop_owner(owner);
                    continue;
                }
                let rep = set.get(owner).expect("iterating current owners");
                if !rep.holders().iter().any(|&h| self.is_live(h)) {
                    // every holder died before re-shedding: the copy is lost
                    set.drop_owner(owner);
                    continue;
                }
                let dead: Vec<PeerId> = rep
                    .holders()
                    .iter()
                    .copied()
                    .filter(|&h| !self.is_live(h))
                    .collect();
                for h in dead {
                    let current = set.get(owner).expect("entry kept").holders();
                    let fresh = live
                        .iter()
                        .copied()
                        .find(|&p| p != owner && !current.contains(&p));
                    set.replace_holder(owner, h, fresh);
                    refreshed += 1;
                }
            }
        }
        self.table_mut(TableAccess(())).replicas = Some(set);
        refreshed
    }

    /// Promotes the replicas of `dead_owners` after a structural repair:
    /// each copy with a surviving holder is read back and its tuples
    /// re-inserted at their (now live again) owners; copies without a live
    /// holder are dropped as lost. Ends with a refresh pass so the restored
    /// stores are re-replicated. No-op when replication is disabled.
    ///
    /// # Panics
    /// Panics if an owner in `dead_owners` is live: its copy would be
    /// inserted next to the tuples its store still holds.
    fn promote_replicas(&mut self, dead_owners: &[PeerId]) {
        let Some(mut set) = self.table_mut(TableAccess(())).replicas.take() else {
            return;
        };
        for &owner in dead_owners {
            assert!(!self.is_live(owner), "promoting a live owner's copy");
            let has_live_holder = set
                .get(owner)
                .is_some_and(|r| r.holders().iter().any(|&h| self.is_live(h)));
            if has_live_holder {
                let rep = set.promote(owner).expect("entry checked");
                self.table_mut(TableAccess(())).tuples_recovered += rep.tuples().len() as u64;
                for t in rep.tuples().iter().cloned() {
                    self.insert_tuple(t);
                }
            } else {
                set.drop_owner(owner);
            }
        }
        self.table_mut(TableAccess(())).replicas = Some(set);
        self.refresh_replicas();
    }
}
