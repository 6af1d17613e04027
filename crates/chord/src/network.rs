//! The Chord overlay (Stoica et al. \[15\]) over a one-dimensional domain.
//!
//! Chord arranges peers on a ring. Each peer owns the arc from its position
//! to its successor's, and keeps *fingers*: links to the owners of the
//! positions `pos + 2^{-j}` for `j = 1..m`, enabling `O(log n)` greedy
//! routing.
//!
//! Rank queries need the key space to preserve order, so — unlike a classic
//! DHT deployment — tuples are placed by their (one-dimensional) value
//! directly, not by a cryptographic hash; this is the arrangement Section
//! 3.1 of the RIPPLE paper assumes when it defines finger *regions*: "the
//! region of `w`'s `i`-th neighbor is the area of the domain stretching from
//! the beginning of the `i`-th neighbor zone until the beginning of the
//! `(i+1)`-th neighbor zone (or `w`'s zone if `i`-th is the last neighbor)".

//!
//! **Crash + repair**: an ungraceful departure ([`ChordNetwork::crash`])
//! leaves the dead node *in the ring* — exactly the real-world failure mode
//! where successors and finger tables go stale — with its arc unreachable
//! and its data lost until [`ChordNetwork::repair_all`] patches successor
//! lists, at which point the predecessor's arc extends over the gap.
//!
//! The peers, their stores, the write path, the replica ledger and the
//! maintenance counters live in a [`PeerTable`]; this module supplies the
//! [`Substrate`] hooks (arc owner, successor-list placement, liveness and
//! the crashed-owner test).

use ripple_geom::{Rect, Tuple};
use ripple_net::rng::Rng;
use ripple_net::{ChurnOverlay, PeerId, PeerStore, PeerTable, Substrate, TableAccess, TablePeer};
use std::collections::BTreeSet;

/// A Chord peer: a ring position and the tuples of its arc.
#[derive(Clone, Debug)]
pub struct ChordPeer {
    /// Stable handle.
    pub id: PeerId,
    /// Ring position in `[0, 1)`; the peer owns `[position, successor)`.
    pub position: f64,
    /// Locally stored tuples (keys in the owned arc).
    pub store: PeerStore,
}

/// A simulated Chord ring.
#[derive(Clone, Debug)]
pub struct ChordNetwork {
    /// The peers and the shared store/replica bookkeeping. The replica
    /// ledger places copies on the owner's first `k` live ring successors —
    /// Chord's successor list reused as the replica topology.
    table: PeerTable<ChordPeer>,
    /// Peers sorted by ring position. Crashed-but-unrepaired peers *stay*
    /// in the ring (their position still shapes everyone's stale view);
    /// repair removes them.
    ring: Vec<PeerId>,
    /// The ring index: `pos[i]` is the position of `ring[i]`, so positions
    /// are unique and strictly increasing. Rank lookups binary-search this
    /// flat vector instead of dereferencing a peer per probe.
    pos: Vec<f64>,
    /// Crashed peers not yet repaired (`BTreeSet` for deterministic
    /// repair order).
    crashed: BTreeSet<PeerId>,
}

impl ChordNetwork {
    /// Creates a single-peer ring anchored at position 0.
    pub fn new() -> Self {
        let mut table = PeerTable::default();
        let id = table.next_id();
        table.push(ChordPeer {
            id,
            position: 0.0,
            store: PeerStore::new(),
        });
        Self {
            table,
            ring: vec![id],
            pos: vec![0.0],
            crashed: BTreeSet::new(),
        }
    }

    /// Builds a ring of `n` peers at uniformly random positions.
    pub fn build<R: Rng>(n: usize, rng: &mut R) -> Self {
        let mut net = Self::new();
        while net.peer_count() < n {
            net.join(rng.gen::<f64>());
        }
        net
    }

    /// Number of live peers (crashed-but-unrepaired peers do not count).
    pub fn peer_count(&self) -> usize {
        self.ring.len() - self.crashed.len()
    }

    /// The peers in ring order, *including* crashed-but-unrepaired entries
    /// (everyone's view of the ring is stale until repair).
    pub fn ring(&self) -> &[PeerId] {
        &self.ring
    }

    /// The live peers in ring order.
    pub fn live_peers(&self) -> Vec<PeerId> {
        self.ring
            .iter()
            .copied()
            .filter(|&p| self.is_live(p))
            .collect()
    }

    /// A uniformly random live peer.
    pub fn random_peer<R: Rng>(&self, rng: &mut R) -> PeerId {
        // Rejection sampling keeps the RNG stream identical to the
        // pre-fault implementation whenever nobody is crashed (one draw).
        loop {
            let p = self.ring[rng.gen_range(0..self.ring.len())];
            if self.is_live(p) {
                return p;
            }
        }
    }

    /// Borrows a peer (live, or crashed-but-unrepaired — its position still
    /// shapes the ring until repair).
    pub fn peer(&self, id: PeerId) -> &ChordPeer {
        self.table.peer(id)
    }

    fn peer_mut(&mut self, id: PeerId) -> &mut ChordPeer {
        self.table.peer_mut(id)
    }

    /// Ring index of the peer owning `key ∈ [0,1)`.
    fn rank_of_key(&self, key: f64) -> usize {
        match self.pos.binary_search_by(|p| p.total_cmp(&key)) {
            Ok(r) => r,
            Err(0) => self.ring.len() - 1, // wraps to the last peer
            Err(ins) => ins - 1,
        }
    }

    /// Ring index of a ring member (live, or crashed-but-unrepaired): its
    /// own position, looked up in the ring index.
    fn rank_of_peer(&self, id: PeerId) -> usize {
        let rank = self.rank_of_key(self.peer(id).position);
        assert_eq!(self.ring[rank], id, "peer is a ring member");
        rank
    }

    /// The peer owning `key`.
    pub fn responsible(&self, key: f64) -> PeerId {
        self.ring[self.rank_of_key(key)]
    }

    /// The successor position of the peer at ring index `rank` (1.0 when it
    /// wraps — positions are reported *unwrapped from 0* so arcs read as
    /// plain intervals except the single wrapping one).
    fn arc_of_rank(&self, rank: usize) -> (f64, f64) {
        (
            self.pos[rank],
            self.pos.get(rank + 1).copied().unwrap_or(1.0),
        )
    }

    /// The owned arc of a peer as up to two `[lo, hi)` segments (the peer at
    /// the largest position owns a segment ending at 1.0; only rank 0's arc
    /// could wrap and by construction position 0 is always occupied by the
    /// founding anchor, so arcs never actually wrap).
    pub fn zone_segments(&self, id: PeerId) -> Vec<Rect> {
        let (lo, hi) = self.arc_of_rank(self.rank_of_peer(id));
        vec![Rect::new(vec![lo], vec![hi])]
    }

    /// Number of fingers a peer keeps: `⌈log₂ n⌉ + 1`.
    pub fn finger_count(&self) -> u32 {
        (self.ring.len().max(2) as f64).log2().ceil() as u32 + 1
    }

    /// The fingers of `id`: the immediate successor plus the owners of
    /// `position + 2^{-j}` for `j = 1..=finger_count()`, deduplicated,
    /// ordered nearest-first (successor first, halfway-across last).
    ///
    /// A Chord node always knows its successor; without it, greedy routing
    /// could stall when the smallest finger offset lands inside the node's
    /// own arc, and the finger regions would leave the gap between the
    /// node's arc and the first finger uncovered.
    pub fn fingers(&self, id: PeerId) -> Vec<PeerId> {
        self.finger_ranks(id)
            .into_iter()
            .map(|r| self.ring[r])
            .collect()
    }

    /// [`fingers`](Self::fingers) as ring indices.
    pub(crate) fn finger_ranks(&self, id: PeerId) -> Vec<usize> {
        if self.ring.len() < 2 {
            return Vec::new();
        }
        let rank = self.rank_of_peer(id);
        let pos = self.pos[rank];
        let count = self.finger_count();
        let mut out = Vec::with_capacity(count as usize + 1);
        out.push((rank + 1) % self.ring.len());
        for j in (1..=count).rev() {
            let target = (pos + (0.5f64).powi(j as i32)).fract();
            let f = self.rank_of_key(target);
            if f != rank && !out.contains(&f) {
                out.push(f);
            }
        }
        out
    }

    /// Ring position of the peer at ring index `rank`.
    pub(crate) fn position_at(&self, rank: usize) -> f64 {
        self.pos[rank]
    }

    /// Greedy finger routing from `from` to the owner of `key`; returns the
    /// reached peer and the hop count. With crash damage present the route
    /// may dead-end at the last *live* peer before a stale finger (or a
    /// crashed owner); it never steps onto — and never panics at — a dead
    /// node.
    pub fn route(&self, from: PeerId, key: f64) -> (PeerId, u32) {
        let target = self.responsible(key);
        let mut cur = from;
        let mut hops = 0u32;
        // clockwise distance from the peer at a ring index to the key
        let dist = |r: usize| {
            let d = key - self.pos[r];
            if d < 0.0 {
                d + 1.0
            } else {
                d
            }
        };
        while cur != target {
            // move to the finger (or successor) closest behind the key
            let next = self
                .finger_ranks(cur)
                .into_iter()
                .min_by(|&a, &b| {
                    dist(a)
                        .total_cmp(&dist(b))
                        .then_with(|| self.ring[a].cmp(&self.ring[b]))
                })
                .map(|r| self.ring[r])
                .expect("multi-peer ring has fingers");
            debug_assert_ne!(next, cur);
            if !self.is_live(next) {
                return (cur, hops);
            }
            cur = next;
            hops += 1;
            debug_assert!((hops as usize) <= 4 * self.ring.len());
        }
        (cur, hops)
    }

    /// [`Substrate::insert_all`].
    pub fn insert_all(&mut self, tuples: impl IntoIterator<Item = Tuple>) {
        Substrate::insert_all(self, tuples)
    }

    /// A new peer joins at ring position `pos`, taking the tail of the
    /// owner's arc.
    pub fn join(&mut self, pos: f64) -> PeerId {
        self.table.bump_epoch();
        let pos = pos.fract().abs();
        let rank = self.rank_of_key(pos);
        let owner = self.ring[rank];
        if !self.is_live(owner) {
            // A joiner cannot take over the tail of a dead peer's arc; the
            // contact attempt triggers repair (lazily), then the join
            // proceeds against the patched ring.
            self.repair_all();
            return self.join(pos);
        }
        if self.pos[rank] == pos {
            // occupied position: nudge deterministically
            return self.join((pos + 1e-9).fract());
        }
        let new_id = self.table.next_id();
        let moved = self
            .peer_mut(owner)
            .store
            .drain_where(|p| p.coord(0) >= pos);
        let mut store = PeerStore::new();
        store.extend(moved);
        self.table.push(ChordPeer {
            id: new_id,
            position: pos,
            store,
        });
        self.ring.insert(rank + 1, new_id);
        self.pos.insert(rank + 1, pos);
        // The split moved tuples between stores; re-capture what changed.
        self.refresh_replicas();
        new_id
    }

    /// Graceful departure: the predecessor absorbs the arc (the founding
    /// anchor at position 0 never leaves, keeping arcs unwrapped). The
    /// handover needs a live predecessor, so pending crash damage is
    /// repaired first (cost booked to the repair ledger).
    pub fn leave(&mut self, id: PeerId) {
        assert!(self.is_live(id), "peer already departed");
        assert!(self.peer_count() > 1, "cannot remove the last peer");
        self.table.bump_epoch();
        if !self.crashed.is_empty() {
            self.repair_all();
        }
        let rank = self.rank_of_peer(id);
        assert!(rank > 0, "the founding anchor cannot leave");
        let tuples = self.peer_mut(id).store.drain_all();
        let heir = self.ring[rank - 1];
        self.peer_mut(heir).store.extend(tuples);
        self.ring.remove(rank);
        self.pos.remove(rank);
        self.table.remove(id);
        // Handover done: the departed owner's copy is obsolete and the
        // heir's grown store needs a fresh capture.
        self.refresh_replicas();
    }

    /// Ungraceful departure: `id` dies without handover. It *stays in the
    /// ring* (successor pointers and finger tables go stale, exactly the
    /// deployment failure mode), its arc is unreachable and its tuples are
    /// lost until [`repair_all`](ChordNetwork::repair_all) patches the
    /// successor lists. Distinct from [`leave`](ChordNetwork::leave).
    /// Returns the number of tuples lost.
    ///
    /// # Panics
    /// Panics if `id` is not live, is the founding anchor, or is the last
    /// live peer.
    pub fn crash(&mut self, id: PeerId) -> usize {
        assert!(self.is_live(id), "peer already departed");
        assert!(self.peer_count() > 1, "cannot crash the last live peer");
        assert_ne!(id, self.ring[0], "the founding anchor cannot crash");
        self.table.bump_epoch();
        let lost = self.peer_mut(id).store.drain_all().len();
        self.table.count_lost(lost as u64);
        self.crashed.insert(id);
        lost
    }

    /// Runs the repair protocol: every crashed node is removed from the
    /// ring (its predecessor's arc extends over the gap, mirroring
    /// successor-list stabilization), charging `finger_count() + 1`
    /// messages per removal — the predecessor learns its new successor and
    /// the peers holding a stale finger refresh it. Returns the messages
    /// spent (also accumulated for [`Substrate::take_repair_messages`]).
    /// Orphaned data comes back only from replicas
    /// ([`Substrate::promote_replicas`]).
    pub fn repair_all(&mut self) -> u64 {
        self.table.bump_epoch();
        let mut msgs = 0u64;
        let dead: Vec<PeerId> = std::mem::take(&mut self.crashed).into_iter().collect();
        for &id in &dead {
            // Crashed peers stay in the ring (and its index) until here.
            let rank = self.rank_of_peer(id);
            self.ring.remove(rank);
            self.pos.remove(rank);
            self.table.remove(id);
            msgs += u64::from(self.finger_count()) + 1;
        }
        self.table.count_repair_messages(msgs);
        // Ring patched: read the crashed owners' copies back into the (now
        // fully live) ring and re-replicate the grown stores.
        self.promote_replicas(&dead);
        msgs
    }

    /// The orphaned (crashed, unrepaired) arcs as `[lo, hi)` segments.
    pub fn orphan_segments(&self) -> Vec<Rect> {
        self.ring
            .iter()
            .enumerate()
            .filter(|&(_, &id)| !self.is_live(id))
            .map(|(rank, _)| {
                let (lo, hi) = self.arc_of_rank(rank);
                Rect::new(vec![lo], vec![hi])
            })
            .collect()
    }

    /// The dead peers whose orphaned arcs overlap `segments`, each with the
    /// total overlap length, in ring order (deterministic).
    pub fn dead_zones_in(&self, segments: &[Rect]) -> Vec<(PeerId, f64)> {
        self.ring
            .iter()
            .enumerate()
            .filter(|&(_, &p)| !self.is_live(p))
            .filter_map(|(rank, &p)| {
                let (lo, hi) = self.arc_of_rank(rank);
                let overlap: f64 = segments
                    .iter()
                    .map(|s| {
                        let a = s.lo().coord(0).max(lo);
                        let b = s.hi().coord(0).min(hi);
                        (b - a).max(0.0)
                    })
                    .sum();
                (overlap > 0.0).then_some((p, overlap))
            })
            .collect()
    }

    /// The arcs of the listed live peers inside `segments` — the
    /// quarantine twin of [`dead_zones_in`](ChordNetwork::dead_zones_in):
    /// a quarantined peer still sits on the ring (its arc is no dead zone)
    /// but delivery routes around it, so recovery needs its arc geometry
    /// explicitly. Ring order, like its twin.
    pub fn peer_zones_in(&self, peers: &[PeerId], segments: &[Rect]) -> Vec<(PeerId, f64)> {
        if peers.is_empty() {
            return Vec::new();
        }
        self.ring
            .iter()
            .filter(|&&p| peers.contains(&p) && self.is_live(p))
            .filter_map(|&p| {
                let overlap: f64 = self
                    .zone_segments(p)
                    .iter()
                    .flat_map(|z| {
                        segments.iter().map(|s| {
                            let a = s.lo().coord(0).max(z.lo().coord(0));
                            let b = s.hi().coord(0).min(z.hi().coord(0));
                            (b - a).max(0.0)
                        })
                    })
                    .sum();
                (overlap > 0.0).then_some((p, overlap))
            })
            .collect()
    }

    /// A live peer positioned inside one of `segments` and not in `tried`,
    /// if any (smallest id, for determinism). The executor's failover
    /// primitive: the peers *positioned inside* a finger region are exactly
    /// the peers reachable through that finger, so entering the region
    /// through one of them cannot double-visit peers owned by other links.
    pub fn live_peer_in_segments(&self, segments: &[Rect], tried: &[PeerId]) -> Option<PeerId> {
        self.ring
            .iter()
            .zip(&self.pos)
            .filter(|&(&p, _)| self.is_live(p) && !tried.contains(&p))
            .filter(|&(_, &pos)| {
                segments
                    .iter()
                    .any(|s| s.lo().coord(0) <= pos && pos < s.hi().coord(0))
            })
            .map(|(&p, _)| p)
            .min()
    }

    /// The executor's failover primitive: the first live, untried peer
    /// *clockwise from the arc's start* adopts the arc, trimmed to the part
    /// clockwise-reachable from it.
    ///
    /// Ring propagation is order-sensitive: a peer can only cover what lies
    /// clockwise between itself and the arc's end — its wrapping finger
    /// regions would hand the arc's *prefix* to peers outside the arc,
    /// breaking the visit-once guarantee. Trimming instead is sound and
    /// honest: segments arrive in clockwise order (a wrapped arc is listed
    /// origin-suffix first), the adopter is the first live candidate in that
    /// order (within a segment, lowest position), so everything trimmed off
    /// holds only dead or already-tried peers and is reported as
    /// unreachable by the caller.
    pub fn adopt_segments(
        &self,
        segments: &[Rect],
        tried: &[PeerId],
    ) -> Option<(PeerId, Vec<Rect>)> {
        for (i, seg) in segments.iter().enumerate() {
            let (lo, hi) = (seg.lo().coord(0), seg.hi().coord(0));
            // Ring order is position order: the first live, untried peer at
            // or after `lo` is the lowest-positioned candidate.
            let adopter = (self.pos.partition_point(|&p| p < lo)..self.ring.len())
                .take_while(|&r| self.pos[r] < hi)
                .find(|&r| self.is_live(self.ring[r]) && !tried.contains(&self.ring[r]));
            if let Some(r) = adopter {
                let (p, pos) = (self.ring[r], self.pos[r]);
                let mut sub = Vec::with_capacity(segments.len() - i);
                sub.push(Rect::new(vec![pos], vec![hi]));
                sub.extend(segments[i + 1..].iter().cloned());
                return Some((p, sub));
            }
        }
        None
    }

    /// Checks structural invariants (tests), crash-aware: positions stay
    /// strictly sorted (dead entries included — they shape the stale ring),
    /// the anchor is live at 0, crashed peers are ring members with drained
    /// stores, and every stored tuple sits inside its owner's arc.
    pub fn check_invariants(&self) {
        assert_eq!(self.peer(self.ring[0]).position, 0.0, "anchor at 0");
        assert!(self.is_live(self.ring[0]), "anchor must be live");
        assert_eq!(
            self.pos.len(),
            self.ring.len(),
            "ring index covers the ring"
        );
        for (&p, &id) in self.pos.iter().zip(&self.ring) {
            assert_eq!(p, self.peer(id).position, "ring index holds positions");
        }
        for w in self.pos.windows(2) {
            assert!(w[0] < w[1], "ring positions strictly increase");
        }
        for &c in &self.crashed {
            assert!(self.ring.contains(&c), "crashed peers stay in the ring");
            assert!(
                self.peer(c).store.is_empty(),
                "crashed stores must be drained (data lost)"
            );
        }
        for (rank, &id) in self.ring.iter().enumerate() {
            let (lo, hi) = self.arc_of_rank(rank);
            for t in self.peer(id).store.iter() {
                let k = t.point.coord(0);
                assert!(lo <= k && (k < hi || (hi == 1.0 && k <= 1.0)));
            }
        }
    }
}

impl Default for ChordNetwork {
    fn default() -> Self {
        Self::new()
    }
}

impl Substrate for ChordNetwork {
    type Peer = ChordPeer;

    fn table(&self) -> &PeerTable<ChordPeer> {
        &self.table
    }

    fn table_mut(&mut self, _: TableAccess) -> &mut PeerTable<ChordPeer> {
        &mut self.table
    }

    /// The owner of the tuple's first coordinate, if it is live.
    fn owner_of(&self, t: &Tuple) -> Option<PeerId> {
        let key = t.point.coord(0);
        assert!((0.0..=1.0).contains(&key), "key outside the ring domain");
        let owner = self.responsible(key.min(1.0 - f64::EPSILON));
        self.is_live(owner).then_some(owner)
    }

    /// The peers that should hold `id`'s replicas: its first `k` live ring
    /// successors, clockwise.
    fn replica_targets(&self, id: PeerId, k: usize) -> Vec<PeerId> {
        let mut out = Vec::new();
        if k == 0 || !self.is_live(id) {
            return out;
        }
        let rank = self.rank_of_peer(id);
        let n = self.ring.len();
        for step in 1..n {
            if out.len() >= k {
                break;
            }
            let p = self.ring[(rank + step) % n];
            if self.is_live(p) {
                out.push(p);
            }
        }
        out
    }

    /// Present and not crashed.
    fn is_live(&self, id: PeerId) -> bool {
        self.table.contains(id) && !self.crashed.contains(&id)
    }

    fn is_crashed(&self, id: PeerId) -> bool {
        self.crashed.contains(&id)
    }

    fn live_ids(&self) -> Vec<PeerId> {
        let mut ids = self.live_peers();
        ids.sort_unstable();
        ids
    }
}

impl TablePeer for ChordPeer {
    fn store(&self) -> &PeerStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut PeerStore {
        &mut self.store
    }
}

impl ChurnOverlay for ChordNetwork {
    fn peer_count(&self) -> usize {
        self.peer_count()
    }

    fn churn_join(&mut self, rng: &mut dyn ripple_net::rng::RngCore) {
        let pos = ripple_net::rng::Rng::gen::<f64>(&mut &mut *rng);
        self.join(pos);
    }

    fn churn_leave(&mut self, rng: &mut dyn ripple_net::rng::RngCore) {
        if self.peer_count() <= 1 {
            return;
        }
        // Never remove the anchor (rank 0) and never pick a dead entry.
        // With no crash damage this draws the same stream and picks the
        // same peer as the pre-fault implementation.
        let live: Vec<PeerId> = self.ring[1..]
            .iter()
            .copied()
            .filter(|&p| self.is_live(p))
            .collect();
        if live.is_empty() {
            return;
        }
        let idx = ripple_net::rng::Rng::gen_range(&mut &mut *rng, 0..live.len());
        self.leave(live[idx]);
    }

    fn churn_crash(&mut self, rng: &mut dyn ripple_net::rng::RngCore) -> Option<u32> {
        if self.peer_count() <= 1 {
            return None;
        }
        let live: Vec<PeerId> = self.ring[1..]
            .iter()
            .copied()
            .filter(|&p| self.is_live(p))
            .collect();
        if live.is_empty() {
            return None;
        }
        let idx = ripple_net::rng::Rng::gen_range(&mut &mut *rng, 0..live.len());
        let id = live[idx];
        self.crash(id);
        Some(id.index() as u32)
    }

    fn anti_entropy(&mut self) -> u64 {
        self.refresh_replicas()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_net::rng::rngs::SmallRng;
    use ripple_net::rng::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn build_and_invariants() {
        let mut r = rng(1);
        let net = ChordNetwork::build(64, &mut r);
        assert_eq!(net.peer_count(), 64);
        net.check_invariants();
    }

    #[test]
    fn responsibility_is_predecessor_style() {
        let mut net = ChordNetwork::new();
        net.join(0.5);
        net.join(0.25);
        assert_eq!(net.responsible(0.1), net.ring()[0]);
        assert_eq!(net.responsible(0.25), net.ring()[1]);
        assert_eq!(net.responsible(0.3), net.ring()[1]);
        assert_eq!(net.responsible(0.9), net.ring()[2]);
    }

    #[test]
    fn routing_reaches_owner_logarithmically() {
        let mut r = rng(2);
        let net = ChordNetwork::build(256, &mut r);
        let mut total = 0u32;
        for _ in 0..50 {
            let key = r.gen::<f64>();
            let from = net.random_peer(&mut r);
            let (owner, hops) = net.route(from, key);
            assert_eq!(owner, net.responsible(key));
            total += hops;
        }
        let mean = total as f64 / 50.0;
        assert!(mean < 16.0, "mean hops {mean} too high for 256 peers");
    }

    #[test]
    fn tuples_follow_arcs_under_churn() {
        let mut r = rng(3);
        let mut net = ChordNetwork::build(16, &mut r);
        for i in 0..100 {
            net.insert_tuple(Tuple::new(i, vec![r.gen::<f64>()]));
        }
        for _ in 0..40 {
            if r.gen_bool(0.5) {
                net.churn_join(&mut r);
            } else {
                net.churn_leave(&mut r);
            }
        }
        net.check_invariants();
        let total: usize = net.ring().iter().map(|&p| net.peer(p).store.len()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn crash_keeps_stale_ring_until_repair() {
        let mut r = rng(5);
        let mut net = ChordNetwork::build(32, &mut r);
        for i in 0..100 {
            net.insert_tuple(Tuple::new(i, vec![r.gen::<f64>()]));
        }
        let stored: usize = net.ring().iter().map(|&p| net.peer(p).store.len()).sum();
        let victim = {
            let live = net.live_peers();
            live[5] // never the anchor
        };
        let held = net.peer(victim).store.len();
        let lost = net.crash(victim);
        assert_eq!(lost, held);
        assert_eq!(net.tuples_lost(), held as u64);
        assert!(!net.is_live(victim));
        assert_eq!(net.peer_count(), 31);
        assert_eq!(net.ring().len(), 32, "dead entry stays in the stale ring");
        assert_eq!(net.orphan_segments().len(), 1);
        net.check_invariants();
        let msgs = net.repair_all();
        assert!(msgs > 0);
        assert_eq!(net.take_repair_messages(), msgs);
        assert_eq!(net.ring().len(), 31, "repair removes the dead entry");
        assert!(net.orphan_segments().is_empty());
        net.check_invariants();
        let after: usize = net.ring().iter().map(|&p| net.peer(p).store.len()).sum();
        assert_eq!(after, stored - held, "orphaned data is lost, not recovered");
    }

    #[test]
    fn routing_never_panics_with_dead_ring_entries() {
        let mut r = rng(6);
        let mut net = ChordNetwork::build(64, &mut r);
        for _ in 0..16 {
            net.churn_crash(&mut r);
        }
        net.check_invariants();
        for _ in 0..100 {
            let key = r.gen::<f64>();
            let from = net.random_peer(&mut r);
            assert!(net.is_live(from));
            let (reached, _hops) = net.route(from, key);
            assert!(net.is_live(reached), "routes end at live peers");
        }
    }

    #[test]
    fn crash_repair_churn_interleaving_holds_invariants() {
        let mut r = rng(7);
        let mut net = ChordNetwork::build(24, &mut r);
        for i in 0..60 {
            net.insert_tuple(Tuple::new(i, vec![r.gen::<f64>()]));
        }
        for step in 0..150 {
            match step % 5 {
                0 | 1 => net.churn_join(&mut r),
                2 => {
                    net.churn_crash(&mut r);
                }
                3 => net.churn_leave(&mut r), // repairs lazily first
                _ => {
                    net.repair_all();
                }
            }
            net.check_invariants();
        }
        net.repair_all();
        net.check_invariants();
        assert!(net.orphan_segments().is_empty());
    }

    #[test]
    fn join_into_dead_arc_triggers_lazy_repair() {
        let mut r = rng(8);
        let mut net = ChordNetwork::build(8, &mut r);
        let victim = net.live_peers()[3];
        let pos = net.peer(victim).position;
        net.crash(victim);
        // joining just above the dead peer's position lands in its arc
        let id = net.join(pos + 1e-6);
        assert!(net.is_live(id));
        assert!(net.orphan_segments().is_empty(), "join repaired first");
        assert!(net.take_repair_messages() > 0);
        net.check_invariants();
    }

    #[test]
    fn failover_candidates_sit_inside_segments() {
        let mut r = rng(9);
        let mut net = ChordNetwork::build(32, &mut r);
        let victim = net.live_peers()[10];
        net.crash(victim);
        let segs = vec![Rect::new(vec![0.0], vec![1.0])];
        let c = net
            .live_peer_in_segments(&segs, &[])
            .expect("whole domain has live peers");
        assert!(net.is_live(c));
        let narrow = net.zone_segments(victim);
        if let Some(alt) = net.live_peer_in_segments(&narrow, &[]) {
            let pos = net.peer(alt).position;
            assert!(narrow
                .iter()
                .any(|s| s.lo().coord(0) <= pos && pos < s.hi().coord(0)));
        }
    }

    fn stored_total(net: &ChordNetwork) -> usize {
        net.ring().iter().map(|&p| net.peer(p).store.len()).sum()
    }

    #[test]
    fn replication_targets_are_ring_successors() {
        let mut r = rng(40);
        let net = ChordNetwork::build(32, &mut r);
        for &id in &net.live_peers() {
            let rank = net.ring().iter().position(|&p| p == id).unwrap();
            let targets = net.replica_targets(id, 2);
            assert_eq!(targets.len(), 2);
            assert_eq!(targets[0], net.ring()[(rank + 1) % 32]);
            assert_eq!(targets[1], net.ring()[(rank + 2) % 32]);
        }
    }

    #[test]
    fn crash_then_repair_promotes_replicas() {
        let mut r = rng(41);
        let mut net = ChordNetwork::build(16, &mut r);
        for i in 0..100 {
            net.insert_tuple(Tuple::new(i, vec![r.gen::<f64>()]));
        }
        let shipped = net.enable_replication(2);
        assert_eq!(shipped, 16);
        let victim = net.live_peers()[5];
        let arc = net.zone_segments(victim);
        let held = net.crash(victim);
        // the dead owner's copy survives on its successors
        let rep = net.replicas().unwrap().get(victim).expect("copy kept");
        assert_eq!(rep.tuples().len(), held);
        let zones = net.dead_zones_in(&arc);
        assert_eq!(zones.len(), 1);
        assert_eq!(zones[0].0, victim);
        assert!((zones[0].1 - arc[0].side(0)).abs() < 1e-12);
        // repair promotes: the predecessor ends up owning the tuples again
        net.repair_all();
        assert_eq!(net.tuples_recovered(), held as u64);
        assert_eq!(stored_total(&net), 100, "promotion restored every tuple");
        assert!(net.replicas().unwrap().get(victim).is_none());
        net.check_invariants();
    }

    #[test]
    fn anti_entropy_replaces_dead_holders() {
        let mut r = rng(42);
        let mut net = ChordNetwork::build(12, &mut r);
        for i in 0..50 {
            net.insert_tuple(Tuple::new(i, vec![r.gen::<f64>()]));
        }
        net.enable_replication(1);
        // crash a peer that holds someone's copy
        let holder = net
            .live_peers()
            .into_iter()
            .skip(1)
            .find(|&p| !net.replicas().unwrap().owners_held_by(p).is_empty())
            .expect("every successor holds a copy");
        let owners = net.replicas().unwrap().owners_held_by(holder);
        net.crash(holder);
        ChurnOverlay::anti_entropy(&mut net);
        let set = net.replicas().unwrap();
        for o in owners {
            if net.is_live(o) {
                let rep = set.get(o).expect("live owner stays covered");
                assert!(rep.holders().iter().all(|&h| net.is_live(h)));
                assert!(!rep.holders().contains(&holder));
            }
        }
        // churn cycle with replication stays consistent
        for _ in 0..20 {
            if r.gen_bool(0.4) {
                net.churn_join(&mut r);
            } else if r.gen_bool(0.5) {
                net.churn_crash(&mut r);
            } else {
                net.churn_leave(&mut r);
            }
            ChurnOverlay::anti_entropy(&mut net);
            net.check_invariants();
        }
        net.repair_all();
        assert_eq!(
            stored_total(&net) as u64 + net.tuples_lost() - net.tuples_recovered(),
            50
        );
    }

    #[test]
    fn ring_index_matches_linear_scan_under_churn() {
        let mut r = rng(12);
        let mut net = ChordNetwork::build(8, &mut r);
        for step in 0..400 {
            match r.gen_range(0..4u32) {
                0 => net.churn_join(&mut r),
                1 => net.churn_leave(&mut r),
                2 => {
                    net.churn_crash(&mut r);
                }
                _ => {
                    net.repair_all();
                }
            }
            net.check_invariants();
            for (rank, &id) in net.ring().iter().enumerate() {
                assert_eq!(net.rank_of_peer(id), rank, "step {step}: peer {id:?}");
            }
            for _ in 0..16 {
                let key = r.gen::<f64>();
                let scan = net
                    .ring()
                    .iter()
                    .rposition(|&p| net.peer(p).position <= key)
                    .expect("the anchor sits at 0");
                assert_eq!(net.rank_of_key(key), scan, "step {step}: key {key}");
            }
        }
    }

    #[test]
    fn fingers_are_deduplicated_and_remote() {
        let mut r = rng(4);
        let net = ChordNetwork::build(64, &mut r);
        let p = net.random_peer(&mut r);
        let fingers = net.fingers(p);
        assert!(!fingers.is_empty());
        assert!(!fingers.contains(&p));
        let mut dedup = fingers.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), fingers.len());
    }
}
