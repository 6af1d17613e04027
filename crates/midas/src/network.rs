//! The MIDAS overlay: construction, routing, churn.
//!
//! MIDAS \[16\] organises peers as the leaves of a virtual k-d tree over the
//! domain. This module implements the full life cycle:
//!
//! * **join** — a new peer routes a random key to the responsible leaf and
//!   splits its zone in two (midpoint, cyclic dimension);
//! * **leave** — the departing leaf's zone is absorbed by its sibling if the
//!   sibling is a leaf; otherwise a deepest leaf (whose sibling is provably a
//!   leaf) is merged away and takes over the departing peer's position;
//! * **routing** — hop-by-hop greedy descent using the link regions, with
//!   O(log n) expected hops;
//! * the **Section 5.2 link policy** (optional): link targets and back-link
//!   reassignments prefer peers whose ids match a lower-border pattern,
//!   which steers skyline query propagation toward peers that can actually
//!   own skyline tuples;
//! * **crash + repair** — *ungraceful* departure ([`MidasNetwork::crash`])
//!   orphans the dead peer's zone (tuples lost, links stale) until the
//!   repair protocol ([`MidasNetwork::repair_all`]) reclaims it by sibling
//!   absorption or deepest-leaf takeover, reusing the same merge machinery
//!   as graceful leaves.
//!
//! The peers, their stores, the write path, the replica ledger and the
//! maintenance counters live in a [`PeerTable`]; this module supplies the
//! [`Substrate`] hooks (tuple owner, replica placement, crashed-owner test).

use crate::path_index::PathIndex;
use crate::peer::{Link, MidasPeer};
use ripple_geom::kdspace::BitPath;
use ripple_geom::{Point, Rect, Tuple};
use ripple_net::rng::Rng;
use ripple_net::{ChurnOverlay, PeerId, PeerStore, PeerTable, Substrate, TableAccess};
use std::collections::{BTreeMap, HashMap, HashSet};

/// How a splitting peer picks the split plane ("at some value along some
/// dimension, decided by MIDAS").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SplitRule {
    /// Halve the zone. Sparse areas stay covered by few large zones, which
    /// is what keeps the skyline-relevant peer count low (the default).
    #[default]
    Midpoint,
    /// Split at the local data median (per-peer load balancing). Ablation
    /// option: equalizes storage but tiles sparse envelopes with many small
    /// zones, inflating rank-query search frontiers.
    Median,
}

/// The zone of a crashed peer: unreachable (and its data lost) until the
/// repair protocol reclaims it.
#[derive(Clone, Debug)]
pub struct Orphan {
    /// The orphaned zone (exactly the dead peer's zone).
    pub zone: Rect,
    /// The crashed peer. Links toward it are stale but deliberately kept:
    /// queries must *detect* the failure (timeout + coverage loss), not
    /// silently skip the region.
    pub dead: PeerId,
}

/// A simulated MIDAS overlay.
#[derive(Clone, Debug)]
pub struct MidasNetwork {
    dims: usize,
    /// The peers and the shared store/replica bookkeeping. The replica
    /// ledger places copies on the peers behind the owner's *deepest* links
    /// first — the sibling/buddy boxes, MIDAS's natural analogue of a
    /// successor list.
    table: PeerTable<MidasPeer>,
    live: Vec<PeerId>,
    index: PathIndex,
    border_policy: bool,
    split_rule: SplitRule,
    /// Split value of each *internal* node of the virtual tree, keyed by its
    /// id (the split dimension is `depth mod dims`). Maintenance-side
    /// bookkeeping standing in for routed lookups during joins.
    splits: HashMap<BitPath, f64>,
    /// Orphaned tree positions (crashed, not yet repaired), keyed by path.
    /// A `BTreeMap` so repair iteration order is deterministic.
    orphans: BTreeMap<BitPath, Orphan>,
}

impl MidasNetwork {
    /// Creates a single-peer overlay over a `dims`-dimensional domain.
    /// `border_policy` enables the Section 5.2 link-selection optimisation.
    pub fn new(dims: usize, border_policy: bool) -> Self {
        assert!(dims > 0, "dimensionality must be positive");
        let id = PeerId::new(0);
        let root = MidasPeer {
            id,
            path: BitPath::root(),
            zone: Rect::unit(dims),
            links: Vec::new(),
            store: PeerStore::new(),
            backlinks: HashSet::new(),
            live_idx: 0,
        };
        let mut index = PathIndex::new(dims);
        index.insert(BitPath::root(), id);
        let mut table = PeerTable::default();
        table.push(root);
        Self {
            dims,
            table,
            live: vec![id],
            index,
            border_policy,
            split_rule: SplitRule::default(),
            splits: HashMap::new(),
            orphans: BTreeMap::new(),
        }
    }

    /// [`Substrate::epoch`].
    pub fn epoch(&self) -> u64 {
        Substrate::epoch(self)
    }

    /// Selects the zone-splitting rule (see [`SplitRule`]).
    pub fn with_split_rule(mut self, rule: SplitRule) -> Self {
        self.split_rule = rule;
        self
    }

    /// The active zone-splitting rule.
    pub fn split_rule(&self) -> SplitRule {
        self.split_rule
    }

    /// Builds an overlay of `n` peers by `n − 1` uniformly random joins.
    pub fn build<R: Rng>(dims: usize, n: usize, border_policy: bool, rng: &mut R) -> Self {
        assert!(n >= 1);
        let mut net = Self::new(dims, border_policy);
        while net.peer_count() < n {
            net.join_random(rng);
        }
        net
    }

    /// Dimensionality of the indexed domain.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of live peers.
    pub fn peer_count(&self) -> usize {
        self.live.len()
    }

    /// `Δ`: the maximum number of links (= depth) over all live peers. This
    /// is the overlay diameter bound of Lemma 1 and the saturation point of
    /// the ripple parameter `r`.
    pub fn delta(&self) -> u32 {
        self.index.max_depth()
    }

    /// Whether the Section 5.2 border link policy is active.
    pub fn border_policy(&self) -> bool {
        self.border_policy
    }

    /// The live peers, in no particular order.
    pub fn live_peers(&self) -> &[PeerId] {
        &self.live
    }

    /// A uniformly random live peer.
    pub fn random_peer<R: Rng>(&self, rng: &mut R) -> PeerId {
        self.live[rng.gen_range(0..self.live.len())]
    }

    /// Borrow a live peer.
    ///
    /// # Panics
    /// Panics if the peer departed.
    pub fn peer(&self, id: PeerId) -> &MidasPeer {
        self.table.peer(id)
    }

    fn peer_mut(&mut self, id: PeerId) -> &mut MidasPeer {
        self.table.peer_mut(id)
    }

    /// Resolves a link to a live peer inside its subtree.
    ///
    /// Normally this is just the stored target; if churn invalidated it, a
    /// substitute inside the subtree is found (this models MIDAS link
    /// maintenance and is not charged to query metrics). If the whole
    /// subtree is orphaned by crashes, the *stale dead target* is returned —
    /// callers detect the failure via [`is_live`](MidasNetwork::is_live)
    /// exactly as a real sender would via a timeout.
    pub fn resolve(&self, link: &Link) -> PeerId {
        if self.is_live(link.target) && link.subtree.is_prefix_of(&self.peer(link.target).path) {
            return link.target;
        }
        self.try_fresh_target(&link.subtree).unwrap_or(link.target)
    }

    /// Picks a link target inside `subtree` per the active policy, or `None`
    /// if the subtree holds no live leaf (fully orphaned by crashes).
    fn try_fresh_target(&self, subtree: &BitPath) -> Option<PeerId> {
        if self.border_policy {
            if let Some(p) = self.index.border_in_subtree(subtree) {
                return Some(p);
            }
        }
        self.index.any_in_subtree(subtree)
    }

    /// The peer responsible for `key`, or `Err` with the orphaned tree
    /// position when the key lies in a crashed, not-yet-repaired zone
    /// (maintenance-side operation; not charged to query metrics).
    pub fn try_responsible(&self, key: &Point) -> Result<PeerId, BitPath> {
        let mut prefix = BitPath::root();
        loop {
            if let Some(p) = self.index.leaf_at(&prefix) {
                return Ok(p);
            }
            if self.orphans.contains_key(&prefix) {
                return Err(prefix);
            }
            let split = *self
                .splits
                .get(&prefix)
                .expect("internal nodes carry a split value");
            let dim = prefix.len() as usize % self.dims;
            prefix = prefix.child(key.coord(dim) >= split);
        }
    }

    /// The peer responsible for `key`.
    ///
    /// # Panics
    /// Panics if the key lies in an orphaned zone; fault-aware callers use
    /// [`try_responsible`](MidasNetwork::try_responsible).
    pub fn responsible(&self, key: &Point) -> PeerId {
        self.try_responsible(key)
            .expect("key lies in an orphaned zone")
    }

    /// Routes `key` hop-by-hop from `from`, returning the reached peer and
    /// the hop count — the DHT lookup primitive. With crash damage present
    /// the route may dead-end before the responsible zone (the next hop is a
    /// stale link into an orphaned subtree); the last *live* peer reached is
    /// returned, never a panic.
    pub fn route(&self, from: PeerId, key: &Point) -> (PeerId, u32) {
        let mut cur = from;
        let mut hops = 0;
        loop {
            let peer = self.peer(cur);
            match peer.link_for_key(key) {
                None => return (cur, hops),
                Some(i) => {
                    let next = self.resolve(&peer.links[i]);
                    if !self.is_live(next) {
                        return (cur, hops);
                    }
                    cur = next;
                    hops += 1;
                }
            }
        }
    }

    /// [`Substrate::insert_batch`].
    pub fn insert_batch(&mut self, tuples: impl IntoIterator<Item = Tuple>) {
        Substrate::insert_batch(self, tuples)
    }

    /// [`Substrate::delete_tuples`].
    pub fn delete_tuples(&mut self, ids: &[ripple_geom::TupleId]) -> usize {
        Substrate::delete_tuples(self, ids)
    }

    /// [`Substrate::compact_stores`].
    pub fn compact_stores(&mut self) -> u64 {
        Substrate::compact_stores(self)
    }

    /// A new peer joins at a uniformly random key; returns its id.
    pub fn join_random<R: Rng>(&mut self, rng: &mut R) -> PeerId {
        let key = Point::new((0..self.dims).map(|_| rng.gen::<f64>()).collect::<Vec<_>>());
        self.join(&key)
    }

    /// The split value for a zone along `dim`: the median of the local
    /// tuples' coordinates (MIDAS's load-balancing choice — "at some value
    /// along some dimension, decided by MIDAS"), with a midpoint fallback
    /// when the peer stores too little data to define one strictly inside
    /// the zone.
    fn split_value(&self, id: PeerId, dim: usize) -> f64 {
        let p = self.peer(id);
        let (lo, hi) = (p.zone.lo().coord(dim), p.zone.hi().coord(dim));
        let mid = 0.5 * (lo + hi);
        if self.split_rule == SplitRule::Midpoint || p.store.len() < 2 {
            return mid;
        }
        let mut coords: Vec<f64> = p.store.iter().map(|t| t.point.coord(dim)).collect();
        coords.sort_by(f64::total_cmp);
        let median = coords[coords.len() / 2];
        if median > lo && median < hi {
            median
        } else {
            mid
        }
    }

    /// A new peer joins: the leaf responsible for `key` splits its zone at
    /// the local data median of the cyclic dimension; the joining peer takes
    /// the half containing its own key. Returns the new peer's id.
    pub fn join(&mut self, key: &Point) -> PeerId {
        self.table.bump_epoch();
        // Lazy repair: a joiner routed into a crash-orphaned zone cannot
        // split a dead peer, so it triggers the repair protocol first (cost
        // booked to the repair ledger).
        if !self.orphans.is_empty() && self.try_responsible(key).is_err() {
            self.repair_all();
        }
        let old_id = self.responsible(key);
        let new_id = self.table.next_id();

        let old_path = self.peer(old_id).path;
        self.index.remove(&old_path);
        let dim = old_path.len() as usize % self.dims;

        // Split the zone; the joining peer takes the half containing its own
        // key, the splitter keeps the other half.
        let split = self.split_value(old_id, dim);
        self.splits.insert(old_path, split);
        let (lo_zone, hi_zone) = self.peer(old_id).zone.split_at(dim, split);
        let new_takes_hi = hi_zone.contains_key(key);
        let (old_zone, new_zone) = if new_takes_hi {
            (lo_zone, hi_zone)
        } else {
            (hi_zone, lo_zone)
        };
        let old_new_path = old_path.child(!new_takes_hi);
        let new_path = old_new_path.sibling().expect("child has a sibling");
        let moved = {
            let w = self.peer_mut(old_id);
            w.path = old_new_path;
            w.zone = old_zone;
            let nz = new_zone.clone();
            w.store.drain_where(|p| nz.contains_key(p))
        };

        // The new peer copies the splitter's links (their sibling subtrees
        // are shared prefixes), then the two siblings link to each other.
        let copied: Vec<Link> = self.peer(old_id).links.clone();
        let mut new_links = Vec::with_capacity(copied.len() + 1);
        for l in copied {
            let target = if self.border_policy {
                // Policy: (re-)establish links toward border-pattern peers
                // inside the subtree whenever possible.
                self.try_fresh_target(&l.subtree).unwrap_or(l.target)
            } else if self.is_live(l.target) {
                l.target
            } else {
                // The copied target crashed; pick a live substitute, or keep
                // the stale dead target if the subtree is fully orphaned.
                self.try_fresh_target(&l.subtree).unwrap_or(l.target)
            };
            if self.is_live(target) {
                self.peer_mut(target).backlinks.insert(new_id);
            }
            new_links.push(Link { target, ..l });
        }
        let old_zone_now = self.peer(old_id).zone.clone();
        new_links.push(Link {
            depth: new_path.len(),
            target: old_id,
            subtree: old_new_path,
            region: old_zone_now,
        });
        let mut store = PeerStore::new();
        store.extend(moved);
        let new_peer = MidasPeer {
            id: new_id,
            path: new_path,
            zone: new_zone,
            links: new_links,
            store,
            backlinks: HashSet::new(),
            live_idx: self.live.len(),
        };
        self.table.push(new_peer);
        self.live.push(new_id);
        self.peer_mut(old_id).backlinks.insert(new_id);

        // The splitter gains a link to its new sibling.
        let new_zone_now = self.peer(new_id).zone.clone();
        self.peer_mut(old_id).links.push(Link {
            depth: new_path.len(),
            target: new_id,
            subtree: new_path,
            region: new_zone_now,
        });
        self.peer_mut(new_id).backlinks.insert(old_id);

        self.index.insert(old_new_path, old_id);
        self.index.insert(new_path, new_id);

        // Section 5.2 back-link reassignment: if exactly one of the two
        // siblings matches a border pattern, the splitter's back-links are
        // handed to the matching peer.
        if self.border_policy {
            let old_match = old_new_path.on_any_lower_border(self.dims);
            let new_match = new_path.on_any_lower_border(self.dims);
            if new_match && !old_match {
                self.retarget_backlinks(old_id, new_id);
            }
            // the splitter matching (or both/neither) keeps back-links put
        }
        // The split moved tuples between stores; re-capture what changed.
        self.refresh_replicas();
        new_id
    }

    /// Repoints every back-link of `from` (except the mutual sibling link)
    /// to `to`. Valid whenever `to` lies in every subtree a back-link refers
    /// to, which holds for split/merge siblings and position takeovers.
    fn retarget_backlinks(&mut self, from: PeerId, to: PeerId) {
        let holders: Vec<PeerId> = self
            .peer(from)
            .backlinks
            .iter()
            .copied()
            .filter(|&h| h != to)
            .collect();
        for h in holders {
            if !self.is_live(h) {
                self.peer_mut(from).backlinks.remove(&h);
                continue;
            }
            let to_path = self.peer(to).path;
            let holder = self.peer_mut(h);
            let mut moved = false;
            for l in &mut holder.links {
                if l.target == from && l.subtree.is_prefix_of(&to_path) {
                    l.target = to;
                    moved = true;
                }
            }
            if moved {
                self.peer_mut(from).backlinks.remove(&h);
                self.peer_mut(to).backlinks.insert(h);
            }
        }
    }

    /// Merges leaf `gone` into its sibling leaf `keeper`: the keeper's path
    /// shrinks to the parent, it absorbs the zone and tuples, and the
    /// departing leaf's back-links are handed over.
    fn absorb_sibling(&mut self, keeper: PeerId, gone: PeerId) {
        let keeper_path = self.peer(keeper).path;
        let gone_path = self.peer(gone).path;
        debug_assert_eq!(keeper_path.sibling(), Some(gone_path));
        let parent = keeper_path.parent().expect("leaves at depth >= 1");

        self.index.remove(&keeper_path);
        self.index.remove(&gone_path);

        // Move data and zone. The parent zone is the box hull of the two
        // sibling zones (they abut along the split plane).
        let tuples = self.peer_mut(gone).store.drain_all();
        let parent_zone = {
            let (a, b) = (&self.peer(keeper).zone, &self.peer(gone).zone);
            let lo: Vec<f64> = (0..self.dims)
                .map(|d| a.lo().coord(d).min(b.lo().coord(d)))
                .collect();
            let hi: Vec<f64> = (0..self.dims)
                .map(|d| a.hi().coord(d).max(b.hi().coord(d)))
                .collect();
            Rect::new(lo, hi)
        };
        self.splits.remove(&parent);
        {
            let k = self.peer_mut(keeper);
            k.path = parent;
            k.zone = parent_zone;
            k.store.extend(tuples);
            // The deepest link pointed into the sibling subtree (now merged
            // into the keeper itself); drop it.
            let dropped = k.links.pop().expect("leaf at depth >= 1 has links");
            debug_assert_eq!(dropped.subtree, gone_path);
        }
        self.peer_mut(gone).backlinks.remove(&keeper);

        // Hand the departing leaf's back-links to the keeper.
        self.retarget_backlinks(gone, keeper);

        // Unregister the departing peer's own links.
        let links = std::mem::take(&mut self.peer_mut(gone).links);
        for l in links {
            if self.is_live(l.target) {
                self.peer_mut(l.target).backlinks.remove(&gone);
            }
        }

        self.index.insert(parent, keeper);
    }

    /// Removes `id` from the live vector (O(1) swap-remove).
    fn remove_live(&mut self, id: PeerId) {
        let idx = self.peer(id).live_idx;
        self.live.swap_remove(idx);
        if let Some(&moved) = self.live.get(idx) {
            self.peer_mut(moved).live_idx = idx;
        }
    }

    /// Graceful departure of `id` (Section 2.3 / 7.1 dynamics).
    ///
    /// If the departing leaf's sibling is a leaf, the sibling absorbs its
    /// zone. Otherwise a deepest leaf `u` — whose sibling is necessarily a
    /// leaf — is merged into *its* sibling and `u` takes over the departing
    /// peer's position (path, zone, tuples, links).
    ///
    /// # Panics
    /// Panics if `id` is not live or is the last remaining peer.
    pub fn leave(&mut self, id: PeerId) {
        assert!(self.is_live(id), "peer already departed");
        assert!(self.peer_count() > 1, "cannot remove the last peer");
        self.table.bump_epoch();

        // A graceful departure hands zone and data to live neighbours; the
        // handover protocol needs a repaired neighbourhood, so pending
        // crash damage is reclaimed first (cost booked to the repair
        // ledger). Repairs may relocate `id` but never remove it.
        if !self.orphans.is_empty() {
            self.repair_all();
        }

        let path = self.peer(id).path;
        let sibling_path = path.sibling().expect("non-root leaf");
        if let Some(sib) = self.index.leaf_at(&sibling_path) {
            self.absorb_sibling(sib, id);
            self.remove_live(id);
            self.table.remove(id);
            // Handover done: the departed owner's copy is obsolete and the
            // absorber's grown store needs a fresh capture.
            self.refresh_replicas();
            return;
        }

        // The sibling subtree is internal: merge away a deepest leaf pair,
        // then move the freed peer into the departing position.
        let u = self.index.deepest().expect("non-empty overlay");
        debug_assert_ne!(u, id, "departing peer cannot be deepest here");
        let u_sibling_path = self.peer(u).path.sibling().expect("deep leaf");
        let su = self
            .index
            .leaf_at(&u_sibling_path)
            .expect("sibling of a deepest leaf is a leaf");
        debug_assert_ne!(su, id);
        // Merging `u` into `su` also removed `u` from the index.
        self.absorb_sibling(su, u);

        // `u` assumes the departing peer's identity in the tree.
        let dep_zone = self.peer(id).zone.clone();
        let dep_tuples = self.peer_mut(id).store.drain_all();
        let dep_links = std::mem::take(&mut self.peer_mut(id).links);
        {
            let up = self.peer_mut(u);
            up.path = path;
            up.zone = dep_zone;
            debug_assert!(up.store.is_empty(), "u's tuples moved to its sibling");
            up.store.extend(dep_tuples);
            debug_assert!(up.links.is_empty(), "u's links dropped by absorb");
            up.links = dep_links;
        }
        // Link registrations follow the links to their new holder.
        let targets: Vec<PeerId> = self.peer(u).links.iter().map(|l| l.target).collect();
        for t in targets {
            if self.is_live(t) {
                self.peer_mut(t).backlinks.remove(&id);
                self.peer_mut(t).backlinks.insert(u);
            }
        }
        self.retarget_backlinks(id, u);
        self.index.remove(&path);
        self.index.insert(path, u);
        self.remove_live(id);
        self.table.remove(id);
        self.refresh_replicas();
    }

    /// Ungraceful departure: `id` dies without handover. Its zone is
    /// orphaned (unreachable, its tuples lost) and links held by other
    /// peers toward it go stale until [`repair_all`](MidasNetwork::repair_all)
    /// reclaims the position. Distinct from [`leave`](MidasNetwork::leave),
    /// which migrates zone and data gracefully. Returns the number of
    /// tuples lost.
    ///
    /// # Panics
    /// Panics if `id` is not live or is the last remaining peer.
    pub fn crash(&mut self, id: PeerId) -> usize {
        assert!(self.is_live(id), "peer already departed");
        assert!(self.peer_count() > 1, "cannot crash the last peer");
        self.table.bump_epoch();
        let path = self.peer(id).path;
        let zone = self.peer(id).zone.clone();
        let lost = self.peer(id).store.len();
        self.table.count_lost(lost as u64);
        self.index.remove(&path);
        self.remove_live(id);
        self.table.remove(id);
        self.orphans.insert(path, Orphan { zone, dead: id });
        lost
    }

    /// The orphaned (crashed, unrepaired) tree positions, in path order.
    pub fn orphans(&self) -> impl Iterator<Item = (&BitPath, &Orphan)> {
        self.orphans.iter()
    }

    /// The orphaned regions of the domain (empty once repaired).
    pub fn orphan_regions(&self) -> Vec<Rect> {
        self.orphans.values().map(|o| o.zone.clone()).collect()
    }

    /// The dead peers whose orphaned zones intersect `region`, with the
    /// volume of each intersection, in (deterministic) orphan path order.
    pub fn dead_zones_in(&self, region: &Rect) -> Vec<(PeerId, f64)> {
        self.orphans
            .values()
            .filter_map(|o| {
                o.zone
                    .intersection(region)
                    .map(|i| (o.dead, i.volume()))
                    .filter(|&(_, v)| v > 0.0)
            })
            .collect()
    }

    /// The zones of the listed live peers inside `region` — the quarantine
    /// twin of [`dead_zones_in`](MidasNetwork::dead_zones_in): a
    /// quarantined peer is alive (its zone is no orphan) but routed around,
    /// so recovery needs its zone geometry explicitly.
    pub fn peer_zones_in(&self, peers: &[PeerId], region: &Rect) -> Vec<(PeerId, f64)> {
        peers
            .iter()
            .filter(|&&p| self.is_live(p))
            .filter_map(|&p| {
                self.peer(p)
                    .zone
                    .intersection(region)
                    .map(|i| (p, i.volume()))
                    .filter(|&(_, v)| v > 0.0)
            })
            .collect()
    }

    /// A live peer whose zone lies inside `region` and is not in `tried`,
    /// if any (smallest id, for determinism). The executor's failover
    /// primitive: after a link target is found dead, an alternate entry
    /// point into the link's sibling subtree — whose zones are exactly the
    /// rectangles inside the link region — keeps the restriction area
    /// reachable.
    pub fn live_peer_in_region(&self, region: &Rect, tried: &[PeerId]) -> Option<PeerId> {
        self.live
            .iter()
            .copied()
            .filter(|&p| !tried.contains(&p) && region.contains_rect(&self.peer(p).zone))
            .min()
    }

    /// The box of an arbitrary virtual-tree node, reconstructed by replaying
    /// the recorded split values from the root (the repair protocol's way
    /// of rebuilding link regions for a takeover position).
    fn node_box(&self, path: &BitPath) -> Rect {
        let mut prefix = BitPath::root();
        let mut bx = Rect::unit(self.dims);
        for (d, bit) in path.iter_bits().enumerate() {
            let split = *self
                .splits
                .get(&prefix)
                .expect("ancestors of a tree node are internal");
            let (lo, hi) = bx.split_at(d % self.dims, split);
            bx = if bit { hi } else { lo };
            prefix = prefix.child(bit);
        }
        bx
    }

    /// Box hull of two sibling zones (they abut along the split plane).
    fn hull_zone(&self, a: &Rect, b: &Rect) -> Rect {
        let lo: Vec<f64> = (0..self.dims)
            .map(|d| a.lo().coord(d).min(b.lo().coord(d)))
            .collect();
        let hi: Vec<f64> = (0..self.dims)
            .map(|d| a.hi().coord(d).max(b.hi().coord(d)))
            .collect();
        Rect::new(lo, hi)
    }

    /// A link target for `subtree`: a live leaf per the active policy, or —
    /// when the subtree is fully orphaned — the dead owner of the covering
    /// orphan, kept stale on purpose so queries *detect* the failure.
    fn link_target_for(&self, subtree: &BitPath) -> PeerId {
        if let Some(t) = self.try_fresh_target(subtree) {
            return t;
        }
        self.orphans
            .iter()
            .find(|(p, _)| subtree.is_prefix_of(p) || p.is_prefix_of(subtree))
            .map(|(_, o)| o.dead)
            .expect("a subtree without live leaves must be orphaned")
    }

    /// The full link vector for a peer placed at `path` (one link per
    /// depth, regions replayed from the split bookkeeping).
    fn rebuild_links_for(&self, path: &BitPath) -> Vec<Link> {
        (1..=path.len())
            .map(|d| {
                let subtree = path.sibling_at(d);
                Link {
                    depth: d,
                    target: self.link_target_for(&subtree),
                    subtree,
                    region: self.node_box(&subtree),
                }
            })
            .collect()
    }

    /// Runs the repair protocol to completion, reclaiming every orphaned
    /// position; returns the number of maintenance messages spent (also
    /// accumulated for [`Substrate::take_repair_messages`]).
    ///
    /// Two phases, both deterministic:
    ///
    /// 1. **Consolidation** — sibling orphan pairs merge into a parent
    ///    orphan, bottom-up, until every maximal all-orphan subtree is a
    ///    single orphan (1 message per merge: the probe that discovers the
    ///    sibling is dead too).
    /// 2. **Reclaim**, deepest orphan first:
    ///    * if the orphan's sibling is a *live leaf*, it absorbs the zone
    ///      (2 messages: probe + index update) — the crash mirror of the
    ///      graceful sibling merge;
    ///    * otherwise the sibling subtree is internal and holds a live
    ///      leaf, so a deepest live leaf — whose own sibling is provably a
    ///      live leaf once consolidation ran and deeper orphans were
    ///      reclaimed first — is merged away and takes over the orphan
    ///      position with links rebuilt from the split bookkeeping
    ///      (3 + depth messages: merge, move, index update, one per link).
    ///
    /// Repair restores the structure; the orphaned tuples come back only
    /// from replicas ([`Substrate::promote_replicas`]).
    pub fn repair_all(&mut self) -> u64 {
        self.table.bump_epoch();
        // Snapshot the individual crashed owners before consolidation merges
        // them (`dead` becomes the min of each merged pair): these are the
        // owners whose replicas promotion must read back.
        let mut dead_owners: Vec<PeerId> = self.orphans.values().map(|o| o.dead).collect();
        dead_owners.sort_unstable();
        let mut msgs = 0u64;

        // Phase 1: consolidate sibling orphan pairs bottom-up.
        loop {
            let mut by_depth: Vec<BitPath> = self.orphans.keys().copied().collect();
            by_depth.sort_by_key(|p| std::cmp::Reverse(p.len()));
            let mut merged = false;
            for p in by_depth {
                if !self.orphans.contains_key(&p) {
                    continue; // consumed as a sibling earlier in this pass
                }
                let Some(sib) = p.sibling() else { continue };
                if self.orphans.contains_key(&sib) {
                    let a = self.orphans.remove(&p).expect("checked");
                    let b = self.orphans.remove(&sib).expect("checked");
                    let parent = p.parent().expect("non-root orphan");
                    self.splits.remove(&parent);
                    self.orphans.insert(
                        parent,
                        Orphan {
                            zone: self.hull_zone(&a.zone, &b.zone),
                            dead: a.dead.min(b.dead),
                        },
                    );
                    msgs += 1;
                    merged = true;
                }
            }
            if !merged {
                break;
            }
        }

        // Phase 2: reclaim, deepest first.
        while let Some(p) = self
            .orphans
            .keys()
            .copied()
            .max_by_key(|p| (p.len(), std::cmp::Reverse(*p)))
        {
            let orphan = self.orphans.remove(&p).expect("just found");
            let sib_path = p.sibling().expect("root is never orphaned");
            if let Some(sib) = self.index.leaf_at(&sib_path) {
                // The live sibling leaf absorbs the orphaned zone.
                let parent = p.parent().expect("non-root orphan");
                self.index.remove(&sib_path);
                self.splits.remove(&parent);
                let hull = self.hull_zone(&self.peer(sib).zone, &orphan.zone);
                let dropped_target = {
                    let k = self.peer_mut(sib);
                    k.path = parent;
                    k.zone = hull;
                    let dropped = k.links.pop().expect("leaf at depth >= 1 has links");
                    debug_assert_eq!(dropped.subtree, p);
                    dropped.target
                };
                if self.is_live(dropped_target) {
                    self.peer_mut(dropped_target).backlinks.remove(&sib);
                }
                self.index.insert(parent, sib);
                msgs += 2;
            } else {
                // The sibling subtree is internal (and, post-consolidation,
                // holds a live leaf): free a deepest live leaf and move it
                // into the orphaned position. Its data stays with its old
                // sibling; the orphan's data is gone.
                let u = self.index.deepest().expect("live peers exist");
                let u_sib_path = self.peer(u).path.sibling().expect("deep leaf");
                let su = self
                    .index
                    .leaf_at(&u_sib_path)
                    .expect("deepest live leaf's sibling is a live leaf");
                self.absorb_sibling(su, u);
                let links = self.rebuild_links_for(&p);
                let targets: Vec<PeerId> = links.iter().map(|l| l.target).collect();
                {
                    let up = self.peer_mut(u);
                    up.path = p;
                    up.zone = orphan.zone.clone();
                    debug_assert!(up.store.is_empty(), "u's tuples moved to its sibling");
                    debug_assert!(up.links.is_empty(), "u's links dropped by absorb");
                    up.links = links;
                }
                for t in targets {
                    if self.is_live(t) {
                        self.peer_mut(t).backlinks.insert(u);
                    }
                }
                self.index.insert(p, u);
                msgs += 3 + u64::from(p.len());
            }
        }
        self.table.count_repair_messages(msgs);
        // Structure restored: read the crashed owners' copies back into the
        // (now fully tiled) overlay and re-replicate the changed stores.
        self.promote_replicas(&dead_owners);
        msgs
    }

    /// Checks global structural invariants (test support): live zones plus
    /// orphaned zones tile the domain, link regions plus the zone partition
    /// it per peer, links point into their subtrees and regions contain
    /// their targets' zones (stale dead targets are permitted only for
    /// fully orphaned subtrees). Quadratic; intended for tests, not hot
    /// paths.
    pub fn check_invariants(&self) {
        let mut volume = 0.0;
        for &id in &self.live {
            let p = self.peer(id);
            assert_eq!(p.id, id);
            assert_eq!(p.links.len() as u32, p.depth(), "one link per depth");
            let mut cover = p.zone.volume();
            for (i, l) in p.links.iter().enumerate() {
                assert_eq!(l.depth as usize, i + 1);
                assert_eq!(l.subtree, p.path.sibling_at(l.depth));
                let t = self.resolve(l);
                if self.is_live(t) {
                    assert!(
                        l.subtree.is_prefix_of(&self.peer(t).path),
                        "resolved target must live in the link subtree"
                    );
                    assert!(
                        l.region.contains_rect(&self.peer(t).zone),
                        "link region must contain the resolved target's zone"
                    );
                } else {
                    assert!(
                        self.index.any_in_subtree(&l.subtree).is_none(),
                        "stale dead targets are allowed only for fully orphaned subtrees"
                    );
                    assert!(
                        self.orphans
                            .keys()
                            .any(|o| l.subtree.is_prefix_of(o) || o.is_prefix_of(&l.subtree)),
                        "a live-leaf-free subtree must be covered by an orphan"
                    );
                }
                cover += l.region.volume();
            }
            assert!(
                (cover - 1.0).abs() < 1e-9,
                "zone + link regions must partition the domain (got {cover})"
            );
            for t in p.store.iter() {
                assert!(p.zone.contains_key(&t.point), "tuple outside zone");
            }
            volume += p.zone.volume();
        }
        for o in self.orphans.values() {
            assert!(
                !self.is_live(o.dead),
                "orphan owners must be dead (peer {})",
                o.dead
            );
            volume += o.zone.volume();
        }
        assert!(
            (volume - 1.0).abs() < 1e-9,
            "live + orphaned zones must tile the domain (got {volume})"
        );
        // zones (live and orphaned alike) are pairwise disjoint
        let zones: Vec<&Rect> = self
            .live
            .iter()
            .map(|&id| &self.peer(id).zone)
            .chain(self.orphans.values().map(|o| &o.zone))
            .collect();
        for (i, a) in zones.iter().enumerate() {
            for b in zones.iter().skip(i + 1) {
                assert!(!a.intersects(b), "zones overlap under crash damage");
            }
        }
    }
}

impl Substrate for MidasNetwork {
    type Peer = MidasPeer;

    fn table(&self) -> &PeerTable<MidasPeer> {
        &self.table
    }

    fn table_mut(&mut self, _: TableAccess) -> &mut PeerTable<MidasPeer> {
        &mut self.table
    }

    fn owner_of(&self, t: &Tuple) -> Option<PeerId> {
        assert_eq!(t.dims(), self.dims, "tuple dimensionality mismatch");
        self.try_responsible(&t.point).ok()
    }

    /// The peers that should hold `id`'s replicas: the fresh targets of its
    /// links, deepest first — the sibling/buddy-box peers, MIDAS's analogue
    /// of a successor list — topped up with the smallest live ids when the
    /// overlay is too shallow to provide `k` distinct link targets.
    fn replica_targets(&self, id: PeerId, k: usize) -> Vec<PeerId> {
        let mut out = Vec::new();
        if k == 0 || !self.is_live(id) {
            return out;
        }
        for l in self.peer(id).links.iter().rev() {
            if out.len() >= k {
                break;
            }
            if let Some(t) = self.try_fresh_target(&l.subtree) {
                if t != id && !out.contains(&t) {
                    out.push(t);
                }
            }
        }
        if out.len() < k {
            for p in self.live_ids() {
                if out.len() >= k {
                    break;
                }
                if p != id && !out.contains(&p) {
                    out.push(p);
                }
            }
        }
        out
    }

    fn is_crashed(&self, id: PeerId) -> bool {
        self.orphans.values().any(|o| o.dead == id)
    }

    fn live_ids(&self) -> Vec<PeerId> {
        let mut ids = self.live.clone();
        ids.sort_unstable();
        ids
    }
}

impl ChurnOverlay for MidasNetwork {
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

    fn churn_crash(&mut self, rng: &mut dyn ripple_net::rng::RngCore) -> Option<u32> {
        if self.peer_count() <= 1 {
            return None;
        }
        let idx = ripple_net::rng::Rng::gen_range(&mut &mut *rng, 0..self.live.len());
        let id = self.live[idx];
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
    fn single_peer_overlay() {
        let net = MidasNetwork::new(2, false);
        assert_eq!(net.peer_count(), 1);
        assert_eq!(net.delta(), 0);
        net.check_invariants();
    }

    #[test]
    fn growth_preserves_invariants() {
        let mut r = rng(7);
        let net = MidasNetwork::build(3, 64, false, &mut r);
        assert_eq!(net.peer_count(), 64);
        net.check_invariants();
        assert!(net.delta() >= 6, "64 leaves need depth >= 6");
    }

    #[test]
    fn growth_with_border_policy() {
        let mut r = rng(8);
        let net = MidasNetwork::build(2, 64, true, &mut r);
        net.check_invariants();
    }

    #[test]
    fn expected_depth_is_logarithmic() {
        let mut r = rng(9);
        let net = MidasNetwork::build(2, 1024, false, &mut r);
        // Expected depth O(log n); allow a generous constant.
        assert!(
            net.delta() <= 40,
            "delta {} too deep for 1024 peers",
            net.delta()
        );
    }

    #[test]
    fn routing_reaches_responsible_peer() {
        let mut r = rng(10);
        let net = MidasNetwork::build(2, 128, false, &mut r);
        for _ in 0..50 {
            let key = Point::new(vec![r.gen::<f64>(), r.gen::<f64>()]);
            let from = net.random_peer(&mut r);
            let (found, hops) = net.route(from, &key);
            assert!(net.peer(found).zone.contains_key(&key));
            assert_eq!(found, net.responsible(&key));
            assert!(hops <= net.delta(), "route must not exceed diameter");
        }
    }

    #[test]
    fn tuples_land_in_their_zone() {
        let mut r = rng(11);
        let mut net = MidasNetwork::build(2, 32, false, &mut r);
        for i in 0..200 {
            net.insert_tuple(Tuple::new(i, vec![r.gen::<f64>(), r.gen::<f64>()]));
        }
        net.check_invariants();
        let total: usize = net
            .live_peers()
            .iter()
            .map(|&p| net.peer(p).store.len())
            .sum();
        assert_eq!(total, 200);
    }

    #[test]
    fn joins_move_tuples_to_new_owner() {
        let mut net = MidasNetwork::new(1, false);
        net.insert_tuple(Tuple::new(1, vec![0.2]));
        net.insert_tuple(Tuple::new(2, vec![0.8]));
        let new = net.join(&Point::new(vec![0.9]));
        assert_eq!(net.peer(new).store.len(), 1);
        assert_eq!(net.peer(new).store.tuples()[0].id, 2);
        net.check_invariants();
    }

    #[test]
    fn leave_simple_sibling_merge() {
        let mut net = MidasNetwork::new(2, false);
        let b = net.join(&Point::new(vec![0.9, 0.5]));
        net.insert_tuple(Tuple::new(1, vec![0.9, 0.9]));
        net.leave(b);
        assert_eq!(net.peer_count(), 1);
        net.check_invariants();
        // the survivor owns everything again
        let survivor = net.live_peers()[0];
        assert_eq!(net.peer(survivor).store.len(), 1);
    }

    #[test]
    fn leave_with_takeover() {
        let mut r = rng(12);
        let mut net = MidasNetwork::build(2, 32, false, &mut r);
        for i in 0..100 {
            net.insert_tuple(Tuple::new(i, vec![r.gen(), r.gen()]));
        }
        // Remove peers until few remain, checking invariants throughout.
        while net.peer_count() > 2 {
            let victim = net.random_peer(&mut r);
            net.leave(victim);
            net.check_invariants();
        }
        let total: usize = net
            .live_peers()
            .iter()
            .map(|&p| net.peer(p).store.len())
            .sum();
        assert_eq!(total, 100, "no tuples may be lost by churn");
    }

    #[test]
    fn full_churn_cycle() {
        let mut r = rng(13);
        let mut net = MidasNetwork::build(2, 16, true, &mut r);
        for i in 0..50 {
            net.insert_tuple(Tuple::new(i, vec![r.gen(), r.gen()]));
        }
        for _ in 0..100 {
            if r.gen_bool(0.5) {
                net.join_random(&mut r);
            } else if net.peer_count() > 1 {
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
        assert_eq!(total, 50);
    }

    #[test]
    fn churn_overlay_trait() {
        let mut r = rng(14);
        let mut net = MidasNetwork::new(2, false);
        for _ in 0..20 {
            ChurnOverlay::churn_join(&mut net, &mut r);
        }
        assert_eq!(ChurnOverlay::peer_count(&net), 21);
        for _ in 0..10 {
            ChurnOverlay::churn_leave(&mut net, &mut r);
        }
        assert_eq!(ChurnOverlay::peer_count(&net), 11);
        net.check_invariants();
    }

    #[test]
    fn crash_orphans_zone_and_counts_losses() {
        let mut r = rng(20);
        let mut net = MidasNetwork::build(2, 16, false, &mut r);
        for i in 0..64 {
            net.insert_tuple(Tuple::new(i, vec![r.gen(), r.gen()]));
        }
        let victim = net.random_peer(&mut r);
        let held = net.peer(victim).store.len();
        let zone = net.peer(victim).zone.clone();
        let lost = net.crash(victim);
        assert_eq!(lost, held);
        assert_eq!(net.tuples_lost(), held as u64);
        assert!(!net.is_live(victim));
        assert_eq!(net.peer_count(), 15);
        assert_eq!(net.orphan_regions(), vec![zone.clone()]);
        net.check_invariants();
        // inserting into the orphaned zone loses the tuple, no panic
        let mid: Vec<f64> = (0..2)
            .map(|d| 0.5 * (zone.lo().coord(d) + zone.hi().coord(d)))
            .collect();
        net.insert_tuple(Tuple::new(999, mid.clone()));
        assert_eq!(net.tuples_lost(), held as u64 + 1);
        assert!(net.try_responsible(&Point::new(mid)).is_err());
    }

    #[test]
    fn repair_restores_full_tiling() {
        let mut r = rng(21);
        let mut net = MidasNetwork::build(2, 32, false, &mut r);
        for _ in 0..8 {
            let v = net.random_peer(&mut r);
            net.crash(v);
        }
        net.check_invariants();
        let msgs = net.repair_all();
        assert!(msgs > 0, "repair must cost messages");
        assert_eq!(net.take_repair_messages(), msgs);
        assert_eq!(net.take_repair_messages(), 0, "drained");
        assert_eq!(net.orphan_regions().len(), 0);
        assert_eq!(net.peer_count(), 24);
        net.check_invariants();
        // the domain is fully reachable again
        for _ in 0..20 {
            let key = Point::new(vec![r.gen::<f64>(), r.gen::<f64>()]);
            assert!(net.try_responsible(&key).is_ok());
        }
    }

    #[test]
    fn routing_never_panics_under_crash_damage() {
        let mut r = rng(22);
        let net = {
            let mut net = MidasNetwork::build(2, 64, false, &mut r);
            for _ in 0..16 {
                let v = net.random_peer(&mut r);
                net.crash(v);
            }
            net
        };
        for _ in 0..100 {
            let key = Point::new(vec![r.gen::<f64>(), r.gen::<f64>()]);
            let from = net.random_peer(&mut r);
            let (reached, hops) = net.route(from, &key);
            assert!(net.is_live(reached), "routes end at live peers");
            assert!(hops <= net.delta());
            if let Ok(resp) = net.try_responsible(&key) {
                // live destinations remain reachable or the route dead-ends
                // at a live peer whose stale link failed — never a panic
                let _ = resp;
            }
        }
    }

    #[test]
    fn crash_repair_interleaving_holds_invariants() {
        // Randomized crash → repair → churn interleavings (the property the
        // issue's acceptance criteria name) for both link policies.
        for policy in [false, true] {
            let mut r = rng(23);
            let mut net = MidasNetwork::build(2, 24, policy, &mut r);
            for i in 0..60 {
                net.insert_tuple(Tuple::new(i, vec![r.gen(), r.gen()]));
            }
            for step in 0..120 {
                match step % 6 {
                    0 | 1 => {
                        net.join_random(&mut r);
                    }
                    2 => {
                        if net.peer_count() > 2 {
                            let v = net.random_peer(&mut r);
                            net.crash(v);
                        }
                    }
                    3 => {
                        if net.peer_count() > 1 {
                            let v = net.random_peer(&mut r);
                            net.leave(v); // repairs lazily first
                        }
                    }
                    4 => {
                        net.repair_all();
                    }
                    _ => {
                        if net.peer_count() > 2 && r.gen_bool(0.5) {
                            let v = net.random_peer(&mut r);
                            net.crash(v);
                        }
                    }
                }
                net.check_invariants();
            }
            net.repair_all();
            net.check_invariants();
            assert!(net.orphan_regions().is_empty());
        }
    }

    #[test]
    fn join_into_orphan_triggers_lazy_repair() {
        let mut r = rng(24);
        let mut net = MidasNetwork::build(2, 8, false, &mut r);
        let victim = net.random_peer(&mut r);
        let zone = net.peer(victim).zone.clone();
        net.crash(victim);
        let key = Point::new(
            (0..2)
                .map(|d| 0.5 * (zone.lo().coord(d) + zone.hi().coord(d)))
                .collect::<Vec<_>>(),
        );
        let id = net.join(&key);
        assert!(net.is_live(id));
        assert!(net.orphan_regions().is_empty(), "join repaired first");
        assert!(net.take_repair_messages() > 0);
        net.check_invariants();
        assert_eq!(net.responsible(&key), id);
    }

    #[test]
    fn live_peer_in_region_finds_substitutes() {
        let mut r = rng(25);
        let mut net = MidasNetwork::build(2, 32, false, &mut r);
        let victim = net.random_peer(&mut r);
        // any link region of the victim still has live peers inside unless
        // fully orphaned; crashing one peer orphans only its own zone
        let region = net.peer(victim).links[0].region.clone();
        net.crash(victim);
        let sub = net.live_peer_in_region(&region, &[]);
        if let Some(s) = sub {
            assert!(net.is_live(s));
            assert!(region.contains_rect(&net.peer(s).zone));
            assert!(net
                .live_peer_in_region(&region, &[s])
                .is_none_or(|t| t != s));
        }
        // a region equal to the whole domain always has a live substitute
        let all = net.live_peer_in_region(&Rect::unit(2), &[]);
        assert!(all.is_some());
    }

    fn stored_total(net: &MidasNetwork) -> usize {
        net.live_peers()
            .iter()
            .map(|&p| net.peer(p).store.len())
            .sum()
    }

    #[test]
    fn replication_captures_every_live_owner() {
        let mut r = rng(30);
        let mut net = MidasNetwork::build(2, 16, false, &mut r);
        for i in 0..64 {
            net.insert_tuple(Tuple::new(i, vec![r.gen(), r.gen()]));
        }
        let shipped = net.enable_replication(2);
        assert_eq!(shipped, 16, "one capture per live peer");
        let set = net.replicas().expect("enabled");
        for &id in net.live_peers() {
            let rep = set.get(id).expect("every live owner captured");
            assert_eq!(rep.generation(), net.peer(id).store.generation());
            assert_eq!(rep.holders().len(), 2);
            assert!(!rep.holders().contains(&id), "owner never holds its copy");
            assert_eq!(rep.tuples().len(), net.peer(id).store.len());
        }
        // a fresh ledger needs no work
        assert_eq!(net.refresh_replicas(), 0);
        // an insert marks exactly one owner stale; the next pass re-captures
        net.insert_tuple(Tuple::new(999, vec![0.5, 0.5]));
        assert_eq!(net.replicas().unwrap().stale_owners().len(), 1);
        assert_eq!(net.refresh_replicas(), 1);
        assert!(net.replicas().unwrap().stale_owners().is_empty());
    }

    #[test]
    fn replica_targets_prefer_deepest_links() {
        let mut r = rng(31);
        let net = MidasNetwork::build(2, 32, false, &mut r);
        for &id in net.live_peers() {
            let targets = net.replica_targets(id, 2);
            assert_eq!(targets.len(), 2);
            assert!(!targets.contains(&id));
            // the first target lives in the deepest link's subtree (the
            // sibling/buddy box)
            let deepest = net.peer(id).links.last().expect("depth >= 1");
            assert!(
                deepest.subtree.is_prefix_of(&net.peer(targets[0]).path),
                "first replica goes to the buddy box"
            );
        }
    }

    #[test]
    fn crash_then_repair_promotes_replicas() {
        let mut r = rng(32);
        let mut net = MidasNetwork::build(2, 16, false, &mut r);
        for i in 0..80 {
            net.insert_tuple(Tuple::new(i, vec![r.gen(), r.gen()]));
        }
        net.enable_replication(2);
        let victim = net.random_peer(&mut r);
        let zone = net.peer(victim).zone.clone();
        let held = net.crash(victim);
        // the dead owner's copy survives on its (live) holders
        let rep = net.replicas().unwrap().get(victim).expect("copy kept");
        assert_eq!(rep.tuples().len(), held);
        assert_eq!(
            net.dead_zones_in(&Rect::unit(2)),
            vec![(victim, zone.volume())]
        );
        assert!(net.dead_zones_in(&zone).len() == 1);
        // anti-entropy re-sheds copies the victim held for others
        let set = net.replicas().unwrap();
        let orphaned_holders: Vec<PeerId> = set.owners_held_by(victim);
        ChurnOverlay::anti_entropy(&mut net);
        let set = net.replicas().unwrap();
        for o in orphaned_holders {
            assert!(
                !set.get(o).is_some_and(|r| r.holders().contains(&victim)),
                "dead holders are replaced by anti-entropy"
            );
        }
        // repair promotes the copy: no tuple stays lost
        net.repair_all();
        assert_eq!(net.tuples_recovered(), held as u64);
        assert_eq!(stored_total(&net), 80, "promotion restored every tuple");
        assert!(net.replicas().unwrap().get(victim).is_none());
        assert!(net.dead_zones_in(&Rect::unit(2)).is_empty());
        net.check_invariants();
    }

    #[test]
    #[should_panic(expected = "promoting a live owner's copy")]
    fn promoting_a_live_owners_copy_panics() {
        // Its tuples are still in its store: re-inserting the copy would
        // duplicate every one of them.
        let mut r = rng(33);
        let mut net = MidasNetwork::build(2, 8, false, &mut r);
        net.insert_tuple(Tuple::new(0, vec![0.5, 0.5]));
        net.enable_replication(1);
        let owner = net.responsible(&Point::new(vec![0.5, 0.5]));
        net.promote_replicas(&[owner]);
    }

    #[test]
    fn graceful_leave_drops_obsolete_copy() {
        let mut r = rng(33);
        let mut net = MidasNetwork::build(2, 8, false, &mut r);
        for i in 0..40 {
            net.insert_tuple(Tuple::new(i, vec![r.gen(), r.gen()]));
        }
        net.enable_replication(1);
        let victim = net.random_peer(&mut r);
        net.leave(victim);
        assert!(
            net.replicas().unwrap().get(victim).is_none(),
            "handover made the copy obsolete"
        );
        assert_eq!(stored_total(&net), 40);
        // the ledger still covers every live owner, freshly
        assert_eq!(net.refresh_replicas(), 0);
        for &id in net.live_peers() {
            assert!(net.replicas().unwrap().get(id).is_some());
        }
    }

    #[test]
    fn churn_cycle_keeps_ledger_consistent() {
        let mut r = rng(34);
        let mut net = MidasNetwork::build(2, 12, false, &mut r);
        for i in 0..60 {
            net.insert_tuple(Tuple::new(i, vec![r.gen(), r.gen()]));
        }
        net.enable_replication(2);
        for step in 0..40 {
            match step % 4 {
                0 => {
                    net.join_random(&mut r);
                }
                1 | 2 => {
                    if net.peer_count() > 2 {
                        let v = net.random_peer(&mut r);
                        if step % 2 == 0 {
                            net.crash(v);
                        } else {
                            net.leave(v);
                        }
                    }
                }
                _ => {
                    net.repair_all();
                }
            }
            ChurnOverlay::anti_entropy(&mut net);
            let set = net.replicas().unwrap();
            for owner in set.owners() {
                let rep = set.get(owner).unwrap();
                assert!(!rep.holders().contains(&owner));
                if net.is_live(owner) {
                    assert_eq!(rep.generation(), net.peer(owner).store.generation());
                    for &h in rep.holders() {
                        assert!(net.is_live(h), "post-refresh holders are live");
                    }
                }
            }
            net.check_invariants();
        }
        net.repair_all();
        // every tuple is either stored live or honestly accounted as lost
        // (losses and recoveries both accumulate, so the balance holds even
        // when a tuple is lost and recovered more than once)
        assert_eq!(
            stored_total(&net) as u64 + net.tuples_lost() - net.tuples_recovered(),
            60
        );
    }

    #[test]
    fn border_policy_prefers_border_targets() {
        let mut r = rng(15);
        let net = MidasNetwork::build(2, 256, true, &mut r);
        // Count links targeting border-pattern peers under the policy, and
        // compare with the plain overlay: the policy should clearly win.
        let frac = |net: &MidasNetwork| {
            let (mut hits, mut total) = (0usize, 0usize);
            for &id in net.live_peers() {
                for l in &net.peer(id).links {
                    let t = net.resolve(l);
                    total += 1;
                    if net.peer(t).path.on_any_lower_border(2) {
                        hits += 1;
                    }
                }
            }
            hits as f64 / total as f64
        };
        let with = frac(&net);
        let mut r2 = rng(15);
        let plain = MidasNetwork::build(2, 256, false, &mut r2);
        let without = frac(&plain);
        assert!(
            with > without,
            "policy should increase border targeting ({with:.3} vs {without:.3})"
        );
    }
}
