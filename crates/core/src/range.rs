//! Range queries as a RIPPLE instantiation.
//!
//! The paper's introduction contrasts rank queries with range queries,
//! whose search area is *explicitly defined in the query* ("all objects
//! within a particular range"). In RIPPLE terms a range query is the
//! degenerate instantiation with **no state at all**: a link is relevant
//! exactly when its region overlaps the requested box, every overlapped
//! peer answers its local matches, and no information needs to flow between
//! branches — `fast` is always the right mode and `slow` buys nothing.
//! Implementing it through the same six abstract functions both documents
//! that contrast and gives the library a useful primitive.

use crate::exec::Executor;
use crate::framework::{Coverage, Mode, QueryOutcome, RankQuery, RippleOverlay};
use ripple_geom::{Rect, Tuple};
use ripple_net::{LocalView, PeerId, QueryMetrics};
use ripple_verify::{Certificate, PruneWitness};

/// A range query: retrieve every tuple inside `range`.
#[derive(Clone, Debug)]
pub struct RangeQuery {
    /// The requested box.
    pub range: Rect,
}

impl RangeQuery {
    /// Creates a range query.
    pub fn new(range: Rect) -> Self {
        Self { range }
    }
}

impl RankQuery<Rect> for RangeQuery {
    /// Range queries carry no evolving state.
    type Global = ();
    type Local = ();

    fn initial_global(&self) {}

    fn compute_local_state(&self, _view: &LocalView<'_>, _global: &()) {}

    fn compute_global_state(&self, _global: &(), _local: &()) {}

    fn update_local_state(&self, _states: Vec<()>) {}

    /// Every local tuple inside the requested box.
    fn compute_local_answer(&self, view: &LocalView<'_>, _local: &()) -> Vec<Tuple> {
        view.tuples()
            .iter()
            .filter(|t| self.range.contains(&t.point))
            .cloned()
            .collect()
    }

    /// The search area is explicit: only overlap matters.
    fn is_link_relevant(&self, region: &Rect, _global: &()) -> bool {
        region.intersects(&self.range)
    }

    /// All relevant links are equal — there is nothing to prioritise.
    fn priority(&self, _region: &Rect) -> f64 {
        0.0
    }

    /// Pruned regions are exactly the ones disjoint from the requested box;
    /// the checker re-tests the disjointness geometrically.
    fn prune_witness(&self, _region: &Rect, _global: &()) -> PruneWitness {
        PruneWitness::Disjoint
    }
}

/// Runs a range query (always `fast`: with no state to refine, waiting
/// cannot reduce communication). Returns the matches sorted by id.
pub fn run_range<O>(net: &O, initiator: PeerId, range: Rect) -> (Vec<Tuple>, QueryMetrics)
where
    O: RippleOverlay<Region = Rect>,
{
    let (answers, metrics, _, _) = run_range_certified(&Executor::new(net), initiator, range);
    (answers, metrics)
}

/// [`run_range`] through a pre-configured executor, additionally returning
/// the coverage report and the answer certificate for `ripple-verify`'s
/// `verify_range`.
pub fn run_range_certified<O>(
    exec: &Executor<'_, O>,
    initiator: PeerId,
    range: Rect,
) -> (Vec<Tuple>, QueryMetrics, Coverage, Option<Certificate>)
where
    O: RippleOverlay<Region = Rect>,
{
    let query = RangeQuery::new(range);
    let QueryOutcome {
        mut answers,
        metrics,
        coverage,
        certificate,
        ..
    } = exec.run(initiator, &query, Mode::Fast);
    answers.sort_by_key(|t| t.id);
    answers.dedup_by_key(|t| t.id);
    (answers, metrics, coverage, certificate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_midas::MidasNetwork;
    use ripple_net::rng::rngs::SmallRng;
    use ripple_net::rng::{Rng, SeedableRng};
    use ripple_net::Substrate;

    #[test]
    fn range_returns_exactly_the_contained_tuples() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut net = MidasNetwork::build(2, 64, false, &mut rng);
        let data: Vec<Tuple> = (0..400u64)
            .map(|i| Tuple::new(i, vec![rng.gen::<f64>(), rng.gen::<f64>()]))
            .collect();
        net.insert_all(data.clone());
        let range = Rect::new(vec![0.2, 0.3], vec![0.6, 0.7]);
        let initiator = net.random_peer(&mut rng);
        let (got, metrics) = run_range(&net, initiator, range.clone());
        let mut want: Vec<u64> = data
            .iter()
            .filter(|t| range.contains(&t.point))
            .map(|t| t.id)
            .collect();
        want.sort_unstable();
        assert_eq!(got.iter().map(|t| t.id).collect::<Vec<_>>(), want);
        assert!(metrics.latency <= net.delta() as u64);
    }

    #[test]
    fn small_ranges_touch_few_peers() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut net = MidasNetwork::build(2, 256, false, &mut rng);
        for i in 0..800u64 {
            net.insert_tuple(Tuple::new(i, vec![rng.gen(), rng.gen()]));
        }
        let tiny = Rect::new(vec![0.40, 0.40], vec![0.45, 0.45]);
        let initiator = net.random_peer(&mut rng);
        let (_, m) = run_range(&net, initiator, tiny);
        assert!(
            (m.peers_visited as usize) < net.peer_count() / 4,
            "a tiny range must not sweep the network ({} of {})",
            m.peers_visited,
            net.peer_count()
        );
    }

    #[test]
    fn whole_domain_range_is_a_broadcast() {
        let mut rng = SmallRng::seed_from_u64(3);
        let net = MidasNetwork::build(2, 32, false, &mut rng);
        let initiator = net.random_peer(&mut rng);
        let (_, m) = run_range(&net, initiator, Rect::unit(2));
        assert_eq!(m.peers_visited as usize, net.peer_count());
    }

    #[test]
    fn empty_region_returns_nothing() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut net = MidasNetwork::build(2, 16, false, &mut rng);
        net.insert_tuple(Tuple::new(1, vec![0.9, 0.9]));
        let initiator = net.random_peer(&mut rng);
        let (got, _) = run_range(&net, initiator, Rect::new(vec![0.1, 0.1], vec![0.2, 0.2]));
        assert!(got.is_empty());
    }
}
