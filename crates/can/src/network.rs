//! The CAN overlay (Ratnasamy et al. \[13\]).
//!
//! CAN partitions a d-dimensional torus-less coordinate space into zones;
//! two peers are neighbors when their zones overlap along `d − 1` dimensions
//! and abut along one. We realise zones with the same binary midpoint splits
//! as the other overlays (each zone is a k-d cell), which makes graceful
//! departures exact: a departing zone is absorbed by its split-tree sibling,
//! or a deepest leaf pair is merged and the freed peer takes the vacant
//! position — the standard background zone-reassignment CAN performs to keep
//! zones rectangular.
//!
//! Routing is greedy: forward to the neighbor whose zone is closest to the
//! key, `O(d · n^{1/d})` hops. DSL \[20\] and the adapted baseline
//! diversification \[12\] run over this substrate, exactly as in the paper's
//! evaluation.

use ripple_geom::kdspace::BitPath;
use ripple_geom::{Norm, Point, Rect, Tuple};
use ripple_net::rng::Rng;
use ripple_net::{ChurnOverlay, PeerId, PeerStore};
use std::collections::{BTreeMap, BTreeSet};

/// A CAN peer: a rectangular zone plus its adjacency set.
#[derive(Clone, Debug)]
pub struct CanPeer {
    /// Stable handle.
    pub id: PeerId,
    /// Position of the zone in the split tree (drives merges).
    pub path: BitPath,
    /// The zone.
    pub zone: Rect,
    /// Face-adjacent peers (symmetric).
    pub neighbors: BTreeSet<PeerId>,
    /// Locally stored tuples.
    pub store: PeerStore,
    live_idx: usize,
}

/// A simulated CAN overlay.
#[derive(Clone, Debug)]
pub struct CanNetwork {
    dims: usize,
    peers: Vec<Option<CanPeer>>,
    live: Vec<PeerId>,
    /// Leaf index keyed like the MIDAS one (subtree = contiguous range).
    leaves: BTreeMap<(u128, u32), PeerId>,
}

impl CanNetwork {
    /// Creates a single-peer overlay.
    pub fn new(dims: usize) -> Self {
        assert!(dims > 0);
        let id = PeerId::new(0);
        let root = CanPeer {
            id,
            path: BitPath::root(),
            zone: Rect::unit(dims),
            neighbors: BTreeSet::new(),
            store: PeerStore::new(),
            live_idx: 0,
        };
        let mut leaves = BTreeMap::new();
        leaves.insert(Self::key(&BitPath::root()), id);
        Self {
            dims,
            peers: vec![Some(root)],
            live: vec![id],
            leaves,
        }
    }

    fn key(path: &BitPath) -> (u128, u32) {
        (path.aligned(), path.len())
    }

    /// Builds an overlay of `n` peers via random joins.
    pub fn build<R: Rng>(dims: usize, n: usize, rng: &mut R) -> Self {
        let mut net = Self::new(dims);
        while net.peer_count() < n {
            net.join_random(rng);
        }
        net
    }

    /// Dimensionality of the coordinate space.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of live peers.
    pub fn peer_count(&self) -> usize {
        self.live.len()
    }

    /// The live peers.
    pub fn live_peers(&self) -> &[PeerId] {
        &self.live
    }

    /// A uniformly random live peer.
    pub fn random_peer<R: Rng>(&self, rng: &mut R) -> PeerId {
        self.live[rng.gen_range(0..self.live.len())]
    }

    /// Borrows a live peer.
    pub fn peer(&self, id: PeerId) -> &CanPeer {
        self.peers[id.index()].as_ref().expect("peer departed")
    }

    fn peer_mut(&mut self, id: PeerId) -> &mut CanPeer {
        self.peers[id.index()].as_mut().expect("peer departed")
    }

    /// True if the peer is live.
    pub fn is_live(&self, id: PeerId) -> bool {
        self.peers.get(id.index()).is_some_and(|p| p.is_some())
    }

    /// The peer responsible for `key` (index descent; maintenance-side).
    pub fn responsible(&self, key: &Point) -> PeerId {
        let mut prefix = BitPath::root();
        loop {
            if let Some(&p) = self.leaves.get(&Self::key(&prefix)) {
                return p;
            }
            let left = prefix.child(false);
            prefix = if left.rect(self.dims).contains_key(key) {
                left
            } else {
                prefix.child(true)
            };
        }
    }

    /// Greedy CAN routing from `from` toward `key`; returns the responsible
    /// peer and the hop count.
    pub fn route(&self, from: PeerId, key: &Point) -> (PeerId, u32) {
        let mut cur = from;
        let mut hops = 0;
        loop {
            let p = self.peer(cur);
            if p.zone.contains_key(key) {
                return (cur, hops);
            }
            // forward to the neighbor closest to the key
            let next = p
                .neighbors
                .iter()
                .copied()
                .min_by(|&a, &b| {
                    let da = Norm::L2.min_dist(&self.peer(a).zone, key);
                    let db = Norm::L2.min_dist(&self.peer(b).zone, key);
                    da.total_cmp(&db).then_with(|| a.cmp(&b))
                })
                .expect("multi-peer CAN always has neighbors");
            debug_assert_ne!(next, cur);
            // greedy progress is guaranteed because zones tile the domain
            cur = next;
            hops += 1;
        }
    }

    /// Stores a tuple at the responsible peer.
    pub fn insert_tuple(&mut self, t: Tuple) {
        assert_eq!(t.dims(), self.dims);
        let owner = self.responsible(&t.point);
        self.peer_mut(owner).store.insert(t);
    }

    /// Bulk-loads a dataset.
    pub fn insert_all(&mut self, tuples: impl IntoIterator<Item = Tuple>) {
        for t in tuples {
            self.insert_tuple(t);
        }
    }

    /// A new peer joins at a uniformly random point.
    pub fn join_random<R: Rng>(&mut self, rng: &mut R) -> PeerId {
        let key = Point::new((0..self.dims).map(|_| rng.gen::<f64>()).collect::<Vec<_>>());
        self.join(&key)
    }

    /// A new peer joins at `key`: the responsible zone splits at the
    /// midpoint of the cyclic dimension; the joiner takes the half holding
    /// its key. Neighbor sets of the two halves and all ex-neighbors are
    /// updated locally.
    pub fn join(&mut self, key: &Point) -> PeerId {
        let old_id = self.responsible(key);
        let new_id = PeerId::new(self.peers.len() as u32);
        let old_path = self.peer(old_id).path;
        self.leaves.remove(&Self::key(&old_path));
        let dim = old_path.len() as usize % self.dims;

        let (lo_zone, hi_zone) = self.peer(old_id).zone.split_mid(dim);
        let new_takes_hi = hi_zone.contains_key(key);
        let (old_zone, new_zone) = if new_takes_hi {
            (lo_zone, hi_zone)
        } else {
            (hi_zone, lo_zone)
        };
        let old_new_path = old_path.child(!new_takes_hi);
        let new_path = old_new_path.sibling().expect("child has sibling");

        let moved = {
            let w = self.peer_mut(old_id);
            w.path = old_new_path;
            w.zone = old_zone.clone();
            let nz = new_zone.clone();
            w.store.drain_where(|p| nz.contains_key(p))
        };

        // Re-split the old adjacency between the halves.
        let ex_neighbors: Vec<PeerId> = self.peer(old_id).neighbors.iter().copied().collect();
        let mut new_neighbors = BTreeSet::new();
        for x in ex_neighbors {
            let xz = self.peer(x).zone.clone();
            let keeps_old = xz.abuts(&old_zone);
            let gets_new = xz.abuts(&new_zone);
            if !keeps_old {
                self.peer_mut(old_id).neighbors.remove(&x);
                self.peer_mut(x).neighbors.remove(&old_id);
            }
            if gets_new {
                new_neighbors.insert(x);
                self.peer_mut(x).neighbors.insert(new_id);
            }
        }
        new_neighbors.insert(old_id);
        self.peer_mut(old_id).neighbors.insert(new_id);

        let mut store = PeerStore::new();
        store.extend(moved);
        let peer = CanPeer {
            id: new_id,
            path: new_path,
            zone: new_zone,
            neighbors: new_neighbors,
            store,
            live_idx: self.live.len(),
        };
        self.peers.push(Some(peer));
        self.live.push(new_id);
        self.leaves.insert(Self::key(&old_new_path), old_id);
        self.leaves.insert(Self::key(&new_path), new_id);
        new_id
    }

    /// Rebuilds `keeper`'s adjacency after it absorbed `gone`'s zone.
    fn merge_adjacency(&mut self, keeper: PeerId, gone: PeerId) {
        let union: BTreeSet<PeerId> = self
            .peer(keeper)
            .neighbors
            .iter()
            .chain(self.peer(gone).neighbors.iter())
            .copied()
            .filter(|&x| x != keeper && x != gone)
            .collect();
        let kz = self.peer(keeper).zone.clone();
        self.peer_mut(keeper).neighbors.clear();
        for x in union {
            self.peer_mut(x).neighbors.remove(&gone);
            if self.peer(x).zone.abuts(&kz) {
                self.peer_mut(x).neighbors.insert(keeper);
                self.peer_mut(keeper).neighbors.insert(x);
            } else {
                self.peer_mut(x).neighbors.remove(&keeper);
            }
        }
    }

    /// Merges sibling leaf `gone` into `keeper` (zone, tuples, adjacency).
    fn absorb_sibling(&mut self, keeper: PeerId, gone: PeerId) {
        let keeper_path = self.peer(keeper).path;
        let gone_path = self.peer(gone).path;
        debug_assert_eq!(keeper_path.sibling(), Some(gone_path));
        let parent = keeper_path.parent().expect("depth >= 1");
        self.leaves.remove(&Self::key(&keeper_path));
        self.leaves.remove(&Self::key(&gone_path));
        let tuples = self.peer_mut(gone).store.drain_all();
        let parent_zone = parent.rect(self.dims);
        {
            let k = self.peer_mut(keeper);
            k.path = parent;
            k.zone = parent_zone;
            k.store.extend(tuples);
        }
        self.merge_adjacency(keeper, gone);
        self.leaves.insert(Self::key(&parent), keeper);
    }

    fn deepest(&self) -> PeerId {
        *self
            .leaves
            .iter()
            .max_by_key(|((_, len), _)| *len)
            .map(|(_, p)| p)
            .expect("non-empty overlay")
    }

    fn remove_live(&mut self, id: PeerId) {
        let idx = self.peer(id).live_idx;
        self.live.swap_remove(idx);
        if let Some(&moved) = self.live.get(idx) {
            self.peer_mut(moved).live_idx = idx;
        }
    }

    /// Graceful departure: sibling merge when possible, otherwise a deepest
    /// leaf pair merges and the freed peer takes over the vacant zone.
    pub fn leave(&mut self, id: PeerId) {
        assert!(self.is_live(id), "peer already departed");
        assert!(self.peer_count() > 1, "cannot remove the last peer");
        let path = self.peer(id).path;
        let sibling_path = path.sibling().expect("non-root leaf");
        if let Some(&sib) = self.leaves.get(&Self::key(&sibling_path)) {
            self.absorb_sibling(sib, id);
            self.remove_live(id);
            self.peers[id.index()] = None;
            return;
        }
        let u = self.deepest();
        debug_assert_ne!(u, id);
        let su = *self
            .leaves
            .get(&Self::key(&self.peer(u).path.sibling().expect("deep leaf")))
            .expect("sibling of a deepest leaf is a leaf");
        debug_assert_ne!(su, id);
        self.absorb_sibling(su, u);

        // `u` takes over the departing zone.
        self.leaves.remove(&Self::key(&path));
        let dep_zone = self.peer(id).zone.clone();
        let dep_tuples = self.peer_mut(id).store.drain_all();
        let dep_neighbors: Vec<PeerId> = self.peer(id).neighbors.iter().copied().collect();
        {
            let up = self.peer_mut(u);
            up.path = path;
            up.zone = dep_zone;
            debug_assert!(up.store.is_empty());
            up.store.extend(dep_tuples);
            up.neighbors.clear();
        }
        for x in dep_neighbors {
            if x == u {
                continue;
            }
            self.peer_mut(x).neighbors.remove(&id);
            self.peer_mut(x).neighbors.insert(u);
            self.peer_mut(u).neighbors.insert(x);
        }
        self.leaves.insert(Self::key(&path), u);
        self.remove_live(id);
        self.peers[id.index()] = None;
    }

    /// Average neighbor count (grows with dimensionality — the effect the
    /// paper discusses for DSL in Figure 8).
    pub fn mean_degree(&self) -> f64 {
        let total: usize = self
            .live
            .iter()
            .map(|&p| self.peer(p).neighbors.len())
            .sum();
        total as f64 / self.live.len() as f64
    }

    /// Checks structural invariants (tests): zones tile the domain and
    /// adjacency is exactly face-adjacency, symmetric.
    pub fn check_invariants(&self) {
        let mut volume = 0.0;
        for &a in &self.live {
            let pa = self.peer(a);
            assert_eq!(pa.zone, pa.path.rect(self.dims));
            volume += pa.zone.volume();
            for t in pa.store.iter() {
                assert!(pa.zone.contains_key(&t.point));
            }
            for &b in &self.live {
                if a == b {
                    continue;
                }
                let adjacent = pa.zone.abuts(&self.peer(b).zone);
                assert_eq!(
                    pa.neighbors.contains(&b),
                    adjacent,
                    "adjacency mismatch between {a} and {b}"
                );
                assert_eq!(
                    self.peer(b).neighbors.contains(&a),
                    adjacent,
                    "asymmetric adjacency between {a} and {b}"
                );
            }
        }
        assert!((volume - 1.0).abs() < 1e-9, "zones must tile the domain");
    }
}

impl ChurnOverlay for CanNetwork {
    fn peer_count(&self) -> usize {
        self.live.len()
    }

    fn churn_join(&mut self, rng: &mut dyn ripple_net::rng::RngCore) {
        let key = Point::new(
            (0..self.dims)
                .map(|_| ripple_net::rng::Rng::gen::<f64>(&mut &mut *rng))
                .collect::<Vec<_>>(),
        );
        self.join(&key);
    }

    fn churn_leave(&mut self, rng: &mut dyn ripple_net::rng::RngCore) {
        if self.peer_count() <= 1 {
            return;
        }
        let idx = ripple_net::rng::Rng::gen_range(&mut &mut *rng, 0..self.live.len());
        self.leave(self.live[idx]);
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
        let net = CanNetwork::build(2, 32, &mut r);
        assert_eq!(net.peer_count(), 32);
        net.check_invariants();
    }

    #[test]
    fn higher_dims_mean_more_neighbors() {
        let mut r = rng(2);
        let low = CanNetwork::build(2, 128, &mut r);
        let mut r = rng(2);
        let high = CanNetwork::build(6, 128, &mut r);
        assert!(
            high.mean_degree() > low.mean_degree(),
            "{} vs {}",
            high.mean_degree(),
            low.mean_degree()
        );
    }

    #[test]
    fn routing_reaches_owner() {
        let mut r = rng(3);
        let net = CanNetwork::build(3, 64, &mut r);
        for _ in 0..40 {
            let key = Point::new(vec![r.gen(), r.gen(), r.gen()]);
            let from = net.random_peer(&mut r);
            let (found, _hops) = net.route(from, &key);
            assert!(net.peer(found).zone.contains_key(&key));
        }
    }

    #[test]
    fn tuples_follow_zones_under_churn() {
        let mut r = rng(4);
        let mut net = CanNetwork::build(2, 24, &mut r);
        for i in 0..120 {
            net.insert_tuple(Tuple::new(i, vec![r.gen(), r.gen()]));
        }
        for _ in 0..60 {
            if r.gen_bool(0.5) {
                net.join_random(&mut r);
            } else if net.peer_count() > 2 {
                let v = net.random_peer(&mut r);
                net.leave(v);
            }
        }
        net.check_invariants();
        let total: usize = net
            .live_peers()
            .iter()
            .map(|&p| net.peer(p).store.len())
            .sum();
        assert_eq!(total, 120);
    }

    #[test]
    fn leave_to_single_peer() {
        let mut r = rng(5);
        let mut net = CanNetwork::build(2, 16, &mut r);
        while net.peer_count() > 1 {
            let v = net.random_peer(&mut r);
            net.leave(v);
            net.check_invariants();
        }
        assert_eq!(net.peer(net.live_peers()[0]).zone, Rect::unit(2));
    }

    #[test]
    fn churn_trait_works() {
        let mut r = rng(6);
        let mut net = CanNetwork::new(2);
        for _ in 0..15 {
            net.churn_join(&mut r);
        }
        assert_eq!(net.peer_count(), 16);
        for _ in 0..5 {
            net.churn_leave(&mut r);
        }
        assert_eq!(net.peer_count(), 11);
        net.check_invariants();
    }
}
