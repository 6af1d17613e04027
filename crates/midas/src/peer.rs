//! MIDAS peer state: zone, links and their regions.

use ripple_geom::kdspace::BitPath;
use ripple_geom::Rect;
use ripple_net::{PeerId, PeerStore};
use std::collections::HashSet;

/// One routing-table entry of a MIDAS peer.
///
/// The `depth`-th link of peer `w` points to *some* peer inside the sibling
/// subtree of `w` rooted at `depth` (Section 2.3). The **region** RIPPLE
/// associates with the link (Section 3.1) is the box of that whole sibling
/// subtree — a much larger area than the target's zone, but always
/// containing it.
///
/// The region is stored rather than derived from the path: MIDAS picks
/// split points adaptively (we use the local data median), so subtree boxes
/// are not a function of the id alone. A subtree's box never changes once
/// the subtree exists — further splits subdivide *inside* it — so stored
/// regions stay valid under churn.
#[derive(Clone, Debug)]
pub struct Link {
    /// Depth of the sibling subtree this link covers (1-based).
    pub depth: u32,
    /// The peer currently targeted inside that subtree.
    pub target: PeerId,
    /// Root id of the sibling subtree.
    pub subtree: BitPath,
    /// The box of the sibling subtree (the RIPPLE region).
    pub region: Rect,
}

/// A MIDAS peer: a leaf of the virtual k-d tree.
#[derive(Clone, Debug)]
pub struct MidasPeer {
    /// The peer's stable handle.
    pub id: PeerId,
    /// The peer's leaf id in the virtual k-d tree.
    pub path: BitPath,
    /// The peer's zone: the box of its leaf.
    pub zone: Rect,
    /// Routing table; `links[i]` has depth `i + 1`. Together with the zone,
    /// the link regions partition the whole domain.
    pub links: Vec<Link>,
    /// Locally stored tuples.
    pub store: PeerStore,
    /// Peers whose routing tables point at this peer (maintenance-side
    /// bookkeeping for the Section 5.2 back-link reassignment policy).
    pub(crate) backlinks: HashSet<PeerId>,
    /// Position in the network's live-peer vector (O(1) random removal).
    pub(crate) live_idx: usize,
}

impl MidasPeer {
    /// Depth of the peer's leaf (= number of links).
    pub fn depth(&self) -> u32 {
        self.path.len()
    }

    /// The region of the `i`-th link (0-based).
    pub fn link_region(&self, i: usize) -> &Rect {
        &self.links[i].region
    }

    /// The link (index) whose region claims `key`, or `None` if the peer's
    /// own zone does. Exactly one of the two holds because the link regions
    /// plus the zone partition the domain.
    pub fn link_for_key(&self, key: &ripple_geom::Point) -> Option<usize> {
        if self.zone.contains_key(key) {
            return None;
        }
        let idx = self
            .links
            .iter()
            .position(|l| l.region.contains_key(key))
            .expect("link regions and zone partition the domain");
        Some(idx)
    }
}

impl ripple_net::TablePeer for MidasPeer {
    fn store(&self) -> &PeerStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut PeerStore {
        &mut self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_geom::Point;

    fn peer(path: &str, dims: usize) -> MidasPeer {
        // midpoint-split geometry keeps subtree boxes derivable in tests
        let path = BitPath::parse(path);
        let mut links = Vec::new();
        for d in 1..=path.len() {
            let subtree = path.sibling_at(d);
            links.push(Link {
                depth: d,
                target: PeerId::new(d),
                region: subtree.rect(dims),
                subtree,
            });
        }
        MidasPeer {
            id: PeerId::new(0),
            zone: path.rect(dims),
            path,
            links,
            store: PeerStore::new(),
            backlinks: HashSet::new(),
            live_idx: 0,
        }
    }

    #[test]
    fn regions_partition_domain() {
        let p = peer("0110", 2);
        let mut vol = p.zone.volume();
        for i in 0..p.links.len() {
            vol += p.link_region(i).volume();
        }
        assert!((vol - 1.0).abs() < 1e-12);
    }

    #[test]
    fn key_claims_are_exclusive() {
        let p = peer("010", 2);
        for key in [
            Point::new(vec![0.1, 0.9]),
            Point::new(vec![0.9, 0.1]),
            Point::new(vec![0.2, 0.6]),
            Point::new(vec![0.0, 0.0]),
            Point::new(vec![1.0, 1.0]),
        ] {
            match p.link_for_key(&key) {
                None => assert!(p.zone.contains_key(&key)),
                Some(i) => {
                    assert!(p.link_region(i).contains_key(&key));
                    assert!(!p.zone.contains_key(&key));
                }
            }
        }
    }

    #[test]
    fn depth_equals_link_count() {
        let p = peer("10110", 3);
        assert_eq!(p.depth(), 5);
        assert_eq!(p.links.len(), 5);
    }
}
