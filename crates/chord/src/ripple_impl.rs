//! RIPPLE over Chord: the substrate adapter (Section 3.1's Chord example).
//!
//! The region of `w`'s `i`-th finger stretches from the beginning of that
//! finger's zone to the beginning of the next finger's zone (wrapping back
//! to `w`'s own zone after the last finger). A clockwise arc that wraps the
//! ring origin is represented as two `[lo, hi)` segments, so regions are
//! `Vec<Rect>` (one-dimensional rectangles) and the standard [`TopKQuery`]
//! runs unchanged — the genericity claim of the paper, demonstrated.
//!
//! [`TopKQuery`]: ripple_core::topk::TopKQuery

use crate::network::ChordNetwork;
use ripple_core::framework::RippleOverlay;
use ripple_geom::{Rect, Tuple};
use ripple_net::{LocalView, PeerId, Substrate};

/// Clockwise arc `[from, to)` as up to two linear `(lo, hi)` pieces.
fn arc_pieces(from: f64, to: f64) -> impl Iterator<Item = (f64, f64)> {
    let pieces = if from < to {
        [Some((from, to)), None]
    } else {
        // wraps the origin
        [
            (from < 1.0).then_some((from, 1.0)),
            (to > 0.0).then_some((0.0, to)),
        ]
    };
    pieces.into_iter().flatten()
}

/// Clockwise arc `[from, to)` as up to two linear segments.
fn arc_segments(from: f64, to: f64) -> Vec<Rect> {
    arc_pieces(from, to)
        .map(|(lo, hi)| Rect::new(vec![lo], vec![hi]))
        .collect()
}

/// `[lo, hi]` intersected with the segment `seg`: exactly
/// `Rect::intersection` of the two boxes, without building the first one
/// unless it is the answer.
fn clip(lo: f64, hi: f64, seg: &Rect) -> Option<Rect> {
    let (slo, shi) = (seg.lo().coord(0), seg.hi().coord(0));
    if !(lo < shi && slo < hi) {
        return None;
    }
    if slo <= lo && hi <= shi {
        return Some(Rect::new(vec![lo], vec![hi]));
    }
    if lo <= slo && shi <= hi {
        return Some(seg.clone());
    }
    Some(Rect::new(vec![lo.max(slo)], vec![hi.min(shi)]))
}

/// The finger links of `peer` as `(target, from, to)` arcs: finger `i`'s
/// region runs from its zone start to the next finger's zone start; the
/// last one closes the ring at `peer`'s own zone start.
fn finger_arcs(net: &ChordNetwork, peer: PeerId) -> impl Iterator<Item = (PeerId, f64, f64)> + '_ {
    let fingers = net.finger_ranks(peer);
    let own_start = net.peer(peer).position;
    (0..fingers.len()).map(move |i| {
        let from = net.position_at(fingers[i]);
        let to = fingers
            .get(i + 1)
            .map_or(own_start, |&next| net.position_at(next));
        (net.ring()[fingers[i]], from, to)
    })
}

impl RippleOverlay for ChordNetwork {
    type Region = Vec<Rect>;

    fn full_region(&self) -> Vec<Rect> {
        vec![Rect::new(vec![0.0], vec![1.0])]
    }

    fn region_intersect(&self, region: &Vec<Rect>, restriction: &Vec<Rect>) -> Option<Vec<Rect>> {
        let mut out = Vec::new();
        for a in region {
            for b in restriction {
                if let Some(i) = a.intersection(b) {
                    out.push(i);
                }
            }
        }
        (!out.is_empty()).then_some(out)
    }

    fn peer_links(&self, peer: PeerId) -> Vec<(PeerId, Vec<Rect>)> {
        finger_arcs(self, peer)
            .map(|(t, from, to)| (t, arc_segments(from, to)))
            .collect()
    }

    /// Clips each finger arc's pieces against the restriction segments
    /// directly, building boxes only for the kept pieces.
    fn links_within(&self, peer: PeerId, restriction: &Vec<Rect>) -> Vec<(PeerId, Vec<Rect>)> {
        finger_arcs(self, peer)
            .filter_map(|(t, from, to)| {
                let segs: Vec<Rect> = arc_pieces(from, to)
                    .flat_map(|(lo, hi)| restriction.iter().filter_map(move |b| clip(lo, hi, b)))
                    .collect();
                (!segs.is_empty()).then_some((t, segs))
            })
            .collect()
    }

    fn peer_count(&self) -> usize {
        ChordNetwork::peer_count(self)
    }

    fn peer_tuples(&self, peer: PeerId) -> &[Tuple] {
        self.peer(peer).store.tuples()
    }

    fn peer_view(&self, peer: PeerId) -> LocalView<'_> {
        LocalView::Indexed(&self.peer(peer).store, ripple_geom::KernelDispatch::Auto)
    }

    fn region_volume(&self, region: &Vec<Rect>) -> f64 {
        region.iter().map(|seg| seg.side(0)).sum()
    }

    fn region_rects(&self, region: &Vec<Rect>) -> Vec<Rect> {
        region.clone()
    }

    fn snapshot_generation(&self) -> u64 {
        self.epoch()
    }

    fn is_peer_live(&self, peer: PeerId) -> bool {
        Substrate::is_live(self, peer)
    }

    /// The first live peer clockwise from the arc start adopts the arc,
    /// trimmed to its clockwise-reachable part (see
    /// [`ChordNetwork::adopt_segments`]): the trimmed restriction then
    /// starts exactly at the adopter's zone start — the same shape a
    /// fault-free forward produces — so every deeper link target lies
    /// inside its restricted region and no peer outside the arc is ever
    /// re-entered.
    fn failover_target(&self, region: &Vec<Rect>, tried: &[PeerId]) -> Option<(PeerId, Vec<Rect>)> {
        self.adopt_segments(region, tried)
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

    fn dead_zones_in(&self, region: &Vec<Rect>) -> Vec<(PeerId, f64)> {
        ChordNetwork::dead_zones_in(self, region)
    }

    fn peer_zones_in(&self, peers: &[PeerId], region: &Vec<Rect>) -> Vec<(PeerId, f64)> {
        ChordNetwork::peer_zones_in(self, peers, region)
    }
}

/// Chord serves top-k (the [`TopKQuery`] segment impl); skyline has no
/// `Vec<Rect>` instantiation, so skyline submissions are rejected at
/// admission with `ServiceError::Unsupported` instead of panicking a
/// driver thread.
impl ripple_core::service::Servable for ChordNetwork {
    fn supports(query: &ripple_core::service::ServiceQuery) -> bool {
        matches!(query, ripple_core::service::ServiceQuery::TopK { .. })
    }

    fn serve(
        exec: &ripple_core::Executor<'_, Self>,
        initiator: PeerId,
        query: &ripple_core::service::ServiceQuery,
        mode: ripple_core::framework::Mode,
        threads: usize,
    ) -> ripple_core::service::Served {
        use ripple_core::service::ServiceQuery;
        match query {
            ServiceQuery::TopK { score, k } => {
                ripple_core::service::serve_topk(exec, initiator, score, *k, mode, threads)
            }
            ServiceQuery::Skyline { .. } => {
                unreachable!("skyline is rejected at admission: supports() returned false")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_core::framework::Mode;
    use ripple_core::topk::{centralized_topk, run_topk};
    use ripple_geom::{LinearScore, Norm, PeakScore};
    use ripple_net::rng::rngs::SmallRng;
    use ripple_net::rng::{Rng, SeedableRng};

    #[test]
    fn arc_segment_wrapping() {
        assert_eq!(arc_segments(0.2, 0.7).len(), 1);
        let wrapped = arc_segments(0.7, 0.2);
        assert_eq!(wrapped.len(), 2);
        let total: f64 = wrapped.iter().map(|r| r.side(0)).sum();
        assert!((total - 0.5).abs() < 1e-12);
    }

    #[test]
    fn arc_pieces_cover_the_arc() {
        let pieces: Vec<(f64, f64)> = arc_pieces(0.2, 0.7).collect();
        assert_eq!(pieces, vec![(0.2, 0.7)]);
        let wrapped: Vec<(f64, f64)> = arc_pieces(0.7, 0.2).collect();
        assert_eq!(wrapped, vec![(0.7, 1.0), (0.0, 0.2)]);
        assert_eq!(arc_pieces(0.0, 0.0).collect::<Vec<_>>(), vec![(0.0, 1.0)]);
    }

    /// The default `links_within`: `peer_links` filtered through
    /// `region_intersect`.
    fn composed(
        net: &ChordNetwork,
        peer: PeerId,
        restriction: &Vec<Rect>,
    ) -> Vec<(PeerId, Vec<Rect>)> {
        net.peer_links(peer)
            .into_iter()
            .filter_map(|(t, r)| net.region_intersect(&r, restriction).map(|i| (t, i)))
            .collect()
    }

    /// Links with their segments as `(lo, hi)` bits, for bit-exact
    /// comparison.
    fn exact(links: Vec<(PeerId, Vec<Rect>)>) -> Vec<(PeerId, Vec<(u64, u64)>)> {
        links
            .into_iter()
            .map(|(t, segs)| {
                let bits = segs
                    .iter()
                    .map(|s| (s.lo().coord(0).to_bits(), s.hi().coord(0).to_bits()))
                    .collect();
                (t, bits)
            })
            .collect()
    }

    /// The override equals the default composition under the restrictions
    /// a ring walk forwards (finger arcs, wrapping ones included), the
    /// trimmed arcs `adopt_segments` hands a failover target (two segments
    /// when the arc wraps), and random wrapping arcs.
    #[test]
    fn links_within_matches_composition() {
        let mut rng = SmallRng::seed_from_u64(22);
        let mut net = ChordNetwork::build(48, &mut rng);
        for _ in 0..4 {
            let victim = net.random_peer(&mut rng);
            if victim != net.ring()[0] {
                net.crash(victim);
            }
        }
        let mut restrictions = vec![net.full_region()];
        for &p in net.ring() {
            for (_, region) in net.peer_links(p) {
                let mut tried = Vec::new();
                while let Some((adopter, sub)) = net.adopt_segments(&region, &tried) {
                    restrictions.push(sub);
                    tried.push(adopter);
                    if tried.len() == 3 {
                        break;
                    }
                }
                restrictions.push(region);
            }
        }
        for _ in 0..40 {
            let (a, b) = (rng.gen::<f64>(), rng.gen::<f64>());
            restrictions.push(arc_segments(a.max(b), a.min(b)));
        }
        let wrapping = restrictions.iter().filter(|r| r.len() == 2).count();
        assert!(wrapping > 40, "{wrapping} two-segment restrictions");
        for &p in net.ring() {
            for r in &restrictions {
                assert_eq!(
                    exact(net.links_within(p, r)),
                    exact(composed(&net, p, r)),
                    "{p:?} in {r:?}"
                );
            }
        }
    }

    #[test]
    fn regions_partition_the_ring() {
        let mut rng = SmallRng::seed_from_u64(5);
        let net = ChordNetwork::build(64, &mut rng);
        for &p in net.ring().iter().take(10) {
            let links = net.peer_links(p);
            let link_len: f64 = links
                .iter()
                .flat_map(|(_, segs)| segs.iter().map(|s| s.side(0)))
                .sum();
            let zone_len: f64 = net.zone_segments(p).iter().map(|s| s.side(0)).sum();
            assert!(
                (link_len + zone_len - 1.0).abs() < 1e-9,
                "regions + zone must cover the ring: {}",
                link_len + zone_len
            );
        }
    }

    #[test]
    fn topk_over_chord_matches_centralized() {
        let mut rng = SmallRng::seed_from_u64(6);
        let mut net = ChordNetwork::build(80, &mut rng);
        let data: Vec<Tuple> = (0..500u64)
            .map(|i| Tuple::new(i, vec![rng.gen::<f64>()]))
            .collect();
        net.insert_all(data.clone());
        let score = LinearScore::uniform(1);
        let oracle = centralized_topk(&data, &score, 10);
        for mode in [Mode::Fast, Mode::Slow, Mode::Ripple(2), Mode::Broadcast] {
            let initiator = net.random_peer(&mut rng);
            let (got, metrics) = run_topk(&net, initiator, score.clone(), 10, mode);
            let got_ids: Vec<u64> = got.iter().map(|t| t.id).collect();
            let want_ids: Vec<u64> = oracle.iter().map(|t| t.id).collect();
            assert_eq!(got_ids, want_ids, "{mode:?}");
            assert!(metrics.peers_visited > 0);
        }
    }

    #[test]
    fn unimodal_topk_over_chord() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut net = ChordNetwork::build(40, &mut rng);
        let data: Vec<Tuple> = (0..300u64)
            .map(|i| Tuple::new(i, vec![rng.gen::<f64>()]))
            .collect();
        net.insert_all(data.clone());
        let score = PeakScore::new(vec![0.37], Norm::L1);
        let oracle = centralized_topk(&data, &score, 5);
        let initiator = net.random_peer(&mut rng);
        let (got, _) = run_topk(&net, initiator, score.clone(), 5, Mode::Fast);
        assert_eq!(
            got.iter().map(|t| t.id).collect::<Vec<_>>(),
            oracle.iter().map(|t| t.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn pruned_modes_visit_fewer_peers_than_broadcast() {
        let mut rng = SmallRng::seed_from_u64(8);
        let mut net = ChordNetwork::build(100, &mut rng);
        let data: Vec<Tuple> = (0..600u64)
            .map(|i| Tuple::new(i, vec![rng.gen::<f64>()]))
            .collect();
        net.insert_all(data);
        let initiator = net.random_peer(&mut rng);
        let score = LinearScore::uniform(1);
        let (_, bcast) = run_topk(&net, initiator, score.clone(), 5, Mode::Broadcast);
        let (_, slow) = run_topk(&net, initiator, score.clone(), 5, Mode::Slow);
        assert_eq!(bcast.peers_visited as usize, net.peer_count());
        assert!(
            slow.peers_visited < bcast.peers_visited / 2,
            "slow should prune hard on a 1-d ring: {} vs {}",
            slow.peers_visited,
            bcast.peers_visited
        );
    }
}
