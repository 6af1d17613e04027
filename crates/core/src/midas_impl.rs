//! RIPPLE over MIDAS: the substrate adapter.
//!
//! In MIDAS "the regions and the restriction areas ... are subtrees"
//! (Section 3.2): the region of peer `w`'s `i`-th link is the box of the
//! sibling subtree rooted at depth `i`. Because sibling-subtree boxes are
//! nested or disjoint, a link region intersected with a restriction area is
//! either empty or the link region itself, so restriction intersections stay
//! exact rectangles and every peer is reached at most once.

use crate::framework::RippleOverlay;
use ripple_geom::{Rect, Tuple};
use ripple_midas::MidasNetwork;
use ripple_net::{LocalView, PeerId, Substrate};

impl RippleOverlay for MidasNetwork {
    type Region = Rect;

    fn full_region(&self) -> Rect {
        Rect::unit(self.dims())
    }

    fn region_intersect(&self, region: &Rect, restriction: &Rect) -> Option<Rect> {
        region.intersection(restriction)
    }

    fn peer_links(&self, peer: PeerId) -> Vec<(PeerId, Rect)> {
        let p = self.peer(peer);
        p.links
            .iter()
            .map(|l| (self.resolve(l), l.region.clone()))
            .collect()
    }

    /// Intersects each stored link region by reference: a kept link costs
    /// one box (the inner one, shared when the boxes nest), a disjoint one
    /// costs nothing, and only kept links are resolved.
    fn links_within(&self, peer: PeerId, restriction: &Rect) -> Vec<(PeerId, Rect)> {
        self.peer(peer)
            .links
            .iter()
            .filter_map(|l| {
                l.region
                    .intersection(restriction)
                    .map(|r| (self.resolve(l), r))
            })
            .collect()
    }

    fn peer_count(&self) -> usize {
        MidasNetwork::peer_count(self)
    }

    fn peer_tuples(&self, peer: PeerId) -> &[Tuple] {
        self.peer(peer).store.tuples()
    }

    fn peer_view(&self, peer: PeerId) -> LocalView<'_> {
        LocalView::Indexed(&self.peer(peer).store, ripple_geom::KernelDispatch::Auto)
    }

    fn route_lookup(&self, from: PeerId, key: &ripple_geom::Point) -> Option<(PeerId, u32)> {
        Some(self.route(from, key))
    }

    fn region_volume(&self, region: &Rect) -> f64 {
        region.volume()
    }

    fn region_rects(&self, region: &Rect) -> Vec<Rect> {
        vec![region.clone()]
    }

    fn snapshot_generation(&self) -> u64 {
        self.epoch()
    }

    fn is_peer_live(&self, peer: PeerId) -> bool {
        Substrate::is_live(self, peer)
    }

    /// Sibling-subtree regions are boxes and boxes are entry-order-free:
    /// any live peer whose zone lies inside the restriction box can adopt
    /// the *whole* box, because its restricted links are exactly the
    /// sibling boxes nested inside it (subtree nesting), each with its
    /// target inside — nothing outside is ever re-entered and no part of
    /// the box needs trimming.
    fn failover_target(&self, region: &Rect, tried: &[PeerId]) -> Option<(PeerId, Rect)> {
        self.live_peer_in_region(region, tried)
            .map(|p| (p, region.clone()))
    }

    fn replica_targets(&self, peer: PeerId, k: usize) -> Vec<PeerId> {
        Substrate::replica_targets(self, peer, k)
    }

    fn replicas(&self) -> Option<&ripple_net::ReplicaSet> {
        Substrate::replicas(self)
    }

    fn quarantine(&self) -> Option<&ripple_net::Quarantine> {
        Some(Substrate::quarantine(self))
    }

    fn dead_zones_in(&self, region: &Rect) -> Vec<(PeerId, f64)> {
        MidasNetwork::dead_zones_in(self, region)
    }

    fn peer_zones_in(&self, peers: &[PeerId], region: &Rect) -> Vec<(PeerId, f64)> {
        MidasNetwork::peer_zones_in(self, peers, region)
    }
}

/// MIDAS serves the full wire-form query set: its regions are plain boxes,
/// so both the top-k and the skyline instantiations apply.
impl crate::service::Servable for MidasNetwork {
    fn supports(_query: &crate::service::ServiceQuery) -> bool {
        true
    }

    fn serve(
        exec: &crate::exec::Executor<'_, Self>,
        initiator: PeerId,
        query: &crate::service::ServiceQuery,
        mode: crate::framework::Mode,
        threads: usize,
    ) -> crate::service::Served {
        use crate::service::{Served, ServiceQuery};
        match query {
            ServiceQuery::TopK { score, k } => {
                crate::service::serve_topk(exec, initiator, score, *k, mode, threads)
            }
            ServiceQuery::Skyline { constraint } => {
                let q = match constraint {
                    Some(c) => crate::skyline::SkylineQuery::constrained(c.clone()),
                    None => crate::skyline::SkylineQuery::new(),
                };
                let (answers, metrics, coverage, certificate) =
                    crate::skyline::run_skyline_certified_par(exec, initiator, q, mode, threads);
                Served {
                    answers,
                    metrics,
                    coverage,
                    certificate,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::Mode;
    use ripple_geom::LinearScore;
    use ripple_net::rng::rngs::SmallRng;
    use ripple_net::rng::{Rng, SeedableRng};
    use std::cell::RefCell;

    /// The default `links_within`: `peer_links` filtered through
    /// `region_intersect`.
    fn composed(net: &MidasNetwork, peer: PeerId, restriction: &Rect) -> Vec<(PeerId, Rect)> {
        net.peer_links(peer)
            .into_iter()
            .filter_map(|(t, r)| net.region_intersect(&r, restriction).map(|i| (t, i)))
            .collect()
    }

    /// Links with their boxes as coordinate bits, for bit-exact comparison.
    fn exact(links: Vec<(PeerId, Rect)>) -> Vec<(PeerId, Vec<u64>)> {
        links
            .into_iter()
            .map(|(t, r)| {
                let corners = r.lo().coords().iter().chain(r.hi().coords());
                (t, corners.map(|c| c.to_bits()).collect())
            })
            .collect()
    }

    fn assert_same_links(net: &MidasNetwork, peer: PeerId, restriction: &Rect) {
        assert_eq!(
            exact(net.links_within(peer, restriction)),
            exact(composed(net, peer, restriction)),
            "{peer:?} in {restriction:?}"
        );
    }

    fn random_box(rng: &mut SmallRng, dims: usize) -> Rect {
        let (mut lo, mut hi) = (Vec::new(), Vec::new());
        for _ in 0..dims {
            let (a, b): (f64, f64) = (rng.gen(), rng.gen());
            lo.push(a.min(b));
            hi.push(a.max(b));
        }
        Rect::new(lo, hi)
    }

    /// Asserts the override equals the default composition for every live
    /// peer under the full domain, every link region of every peer (nested
    /// or disjoint boxes) and `boxes` random sub-boxes.
    fn assert_links_within_composes(net: &MidasNetwork, rng: &mut SmallRng, boxes: usize) {
        let mut restrictions = vec![net.full_region()];
        for &p in net.live_peers() {
            restrictions.extend(net.peer(p).links.iter().map(|l| l.region.clone()));
        }
        restrictions.extend((0..boxes).map(|_| random_box(rng, net.dims())));
        for &p in net.live_peers() {
            for r in &restrictions {
                assert_same_links(net, p, r);
            }
        }
    }

    /// MIDAS behind the forwarding defaults, recording every restriction a
    /// walk asks the overlay to restrict links to.
    struct Recording<'a> {
        net: &'a MidasNetwork,
        asked: RefCell<Vec<(PeerId, Rect)>>,
    }

    impl RippleOverlay for Recording<'_> {
        type Region = Rect;

        fn full_region(&self) -> Rect {
            self.net.full_region()
        }

        fn region_intersect(&self, region: &Rect, restriction: &Rect) -> Option<Rect> {
            self.net.region_intersect(region, restriction)
        }

        fn peer_links(&self, peer: PeerId) -> Vec<(PeerId, Rect)> {
            self.net.peer_links(peer)
        }

        fn links_within(&self, peer: PeerId, restriction: &Rect) -> Vec<(PeerId, Rect)> {
            self.asked.borrow_mut().push((peer, restriction.clone()));
            self.net.links_within(peer, restriction)
        }

        fn peer_count(&self) -> usize {
            RippleOverlay::peer_count(self.net)
        }

        fn peer_tuples(&self, peer: PeerId) -> &[Tuple] {
            self.net.peer_tuples(peer)
        }

        fn peer_view(&self, peer: PeerId) -> LocalView<'_> {
            self.net.peer_view(peer)
        }

        fn region_volume(&self, region: &Rect) -> f64 {
            self.net.region_volume(region)
        }

        fn region_rects(&self, region: &Rect) -> Vec<Rect> {
            self.net.region_rects(region)
        }
    }

    #[test]
    fn links_within_matches_composition_on_fast_walk_restrictions() {
        let mut rng = SmallRng::seed_from_u64(19);
        let mut net = MidasNetwork::build(2, 128, false, &mut rng);
        net.insert_all((0..2000u64).map(|i| Tuple::new(i, vec![rng.gen::<f64>(), rng.gen()])));
        let rec = Recording {
            net: &net,
            asked: RefCell::new(Vec::new()),
        };
        for _ in 0..8 {
            let initiator = net.random_peer(&mut rng);
            let score = LinearScore::new(vec![rng.gen::<f64>() + 0.1, rng.gen::<f64>() + 0.1]);
            crate::topk::run_topk(&rec, initiator, score, 10, Mode::Fast);
        }
        let asked = rec.asked.into_inner();
        assert!(asked.len() > 100, "the walks visited {} peers", asked.len());
        assert!(asked.iter().any(|(_, r)| *r != net.full_region()));
        for (p, r) in &asked {
            assert_same_links(&net, *p, r);
        }
    }

    #[test]
    fn links_within_matches_composition_on_random_boxes() {
        let mut rng = SmallRng::seed_from_u64(20);
        for dims in [2, 3] {
            let net = MidasNetwork::build(dims, 64, false, &mut rng);
            assert_links_within_composes(&net, &mut rng, 40);
        }
    }

    /// After leaves and crashes, `resolve` substitutes live targets for
    /// stale ones (and keeps dead ones for orphaned subtrees); the override
    /// must resolve exactly the links the composition keeps, to the same
    /// targets.
    #[test]
    fn links_within_matches_composition_after_churn() {
        let mut rng = SmallRng::seed_from_u64(21);
        let mut net = MidasNetwork::build(2, 96, false, &mut rng);
        for round in 0..12 {
            let victim = net.random_peer(&mut rng);
            if round % 3 == 0 {
                net.crash(victim);
            } else {
                net.leave(victim);
            }
        }
        let substituted = net
            .live_peers()
            .iter()
            .flat_map(|&p| net.peer(p).links.iter())
            .filter(|l| net.resolve(l) != l.target)
            .count();
        assert!(substituted > 0, "churn left some link to be re-resolved");
        assert_links_within_composes(&net, &mut rng, 40);
    }

    #[test]
    fn links_partition_with_zone() {
        let mut rng = SmallRng::seed_from_u64(3);
        let net = MidasNetwork::build(2, 32, false, &mut rng);
        for &id in net.live_peers() {
            let links = net.peer_links(id);
            let vol: f64 =
                links.iter().map(|(_, r)| r.volume()).sum::<f64>() + net.peer(id).zone.volume();
            assert!((vol - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn subtree_intersection_is_all_or_nothing() {
        let mut rng = SmallRng::seed_from_u64(4);
        let net = MidasNetwork::build(2, 64, false, &mut rng);
        let a = net.random_peer(&mut rng);
        for (_, region) in net.peer_links(a) {
            let full = net.full_region();
            // intersect with the full domain: identity
            assert_eq!(net.region_intersect(&region, &full), Some(region.clone()));
        }
    }
}
