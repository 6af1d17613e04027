//! Baseline distributed k-diversification over CAN.
//!
//! Section 7.1: "we adapt the algorithm of \[12\] (Minack et al., incremental
//! diversification — a *streaming-based* approach), termed *baseline*, for
//! a distributed setting based on CAN. For fairness, we force both
//! heuristic diversification algorithms to produce the same result at each
//! step."
//!
//! The adaptation keeps the greedy loop identical to the RIPPLE-based
//! solver (same initialization, same swap rule — hence the same result at
//! every step), but answers each best-tuple search the way a streaming
//! algorithm must: the candidate state **streams through the network** on a
//! depth-first token tour of the CAN adjacency graph. Every peer folds its
//! local best into the token and passes it on; backtracking edges cost hops
//! like any other. One search therefore visits all `n` peers with latency
//! proportional to the tour length (≤ 2(n−1) hops) — no state-based
//! pruning ever happens, which is exactly what makes the baseline's
//! latency *and* congestion orders of magnitude worse than RIPPLE's.

use crate::network::CanNetwork;
use ripple_geom::{DiversityQuery, Tuple};
use ripple_net::{PeerId, QueryMetrics};
use std::collections::HashSet;

/// Streams a single best-tuple search through the network on a DFS token
/// tour from `initiator`. Returns the best insertion tuple (with φ score)
/// beating `tau`, if any, plus the tour's cost.
pub fn stream_single_tuple(
    net: &CanNetwork,
    initiator: PeerId,
    div: &DiversityQuery,
    set: &[Tuple],
    tau: f64,
) -> (Option<(Tuple, f64)>, QueryMetrics) {
    let mut metrics = QueryMetrics::new();
    let stats = div.stats(set);
    let mut best: Option<(Tuple, f64)> = None;

    // Iterative DFS with explicit backtracking: the token physically
    // travels every tree edge twice, so hops = tour length.
    let mut visited: HashSet<PeerId> = HashSet::new();
    let mut stack: Vec<PeerId> = vec![initiator];
    let mut path: Vec<PeerId> = Vec::new(); // current token position trail
    visited.insert(initiator);

    while let Some(peer) = stack.pop() {
        // move the token: from the current position, hops to `peer` are
        // the backtrack distance along the DFS path plus one forward edge
        if let Some(&current) = path.last() {
            if !net.peer(current).neighbors.contains(&peer) {
                // backtrack until a neighbor of `peer` is on top
                while let Some(&top) = path.last() {
                    if net.peer(top).neighbors.contains(&peer) {
                        break;
                    }
                    path.pop();
                    metrics.forward();
                    metrics.latency += 1;
                }
            }
            metrics.forward();
            metrics.latency += 1;
        }
        path.push(peer);
        metrics.visit(peer);

        // fold the local best candidate into the streamed state
        let local_best = net
            .peer(peer)
            .store
            .iter()
            .filter(|t| !set.iter().any(|o| o.id == t.id))
            .map(|t| (t, div.phi_with_stats(&t.point, set, stats)))
            .min_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.id.cmp(&b.0.id)));
        if let Some((t, phi)) = local_best {
            let better = match &best {
                None => phi < tau,
                Some((bt, bphi)) => phi < tau && (phi < *bphi || (phi == *bphi && t.id < bt.id)),
            };
            if better {
                best = Some((t.clone(), phi));
            }
        }

        for &next in &net.peer(peer).neighbors {
            if visited.insert(next) {
                stack.push(next);
            }
        }
    }
    // the token returns to the initiator with the final state
    metrics.respond(1);
    (best, metrics)
}

/// The full baseline k-diversification: greedy initialization and
/// improvement identical to the RIPPLE solver, every search a streaming
/// tour of the whole network.
pub fn baseline_diversify(
    net: &CanNetwork,
    initiator: PeerId,
    div: &DiversityQuery,
    k: usize,
    max_iters: usize,
) -> (Vec<Tuple>, QueryMetrics) {
    let mut metrics = QueryMetrics::new();
    let mut o: Vec<Tuple> = Vec::with_capacity(k);
    for _ in 0..k {
        let (found, m) = stream_single_tuple(net, initiator, div, &o, f64::INFINITY);
        metrics.absorb_sequential(&m);
        match found {
            Some((t, _)) => o.push(t),
            None => break,
        }
    }

    for _ in 0..max_iters {
        let mut t_in: Option<Tuple> = None;
        let mut t_out: Option<usize> = None;
        let mut best_objective = f64::INFINITY;
        let mut order: Vec<usize> = (0..o.len()).collect();
        let phi_without: Vec<f64> = (0..o.len())
            .map(|i| {
                let rest: Vec<Tuple> = o
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .map(|(_, t)| t.clone())
                    .collect();
                div.phi(&o[i].point, &rest)
            })
            .collect();
        order.sort_by(|&a, &b| phi_without[b].total_cmp(&phi_without[a]));
        for i in order {
            let rest: Vec<Tuple> = o
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, t)| t.clone())
                .collect();
            let f_rest = div.objective(&rest);
            let target = div.objective(&o).min(best_objective);
            let tau = target - f_rest;
            if tau <= 0.0 {
                continue;
            }
            let (found, m) = stream_single_tuple(net, initiator, div, &rest, tau);
            metrics.absorb_sequential(&m);
            if let Some((t, phi)) = found {
                best_objective = f_rest + phi;
                t_in = Some(t);
                t_out = Some(i);
            }
        }
        match (t_in, t_out) {
            (Some(tin), Some(ti)) => {
                let mut improved: Vec<Tuple> = o
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != ti)
                    .map(|(_, t)| t.clone())
                    .collect();
                improved.push(tin);
                o = improved;
            }
            _ => break,
        }
    }
    o.sort_by_key(|t| t.id);
    (o, metrics)
}

/// Back-compat alias: the flooding entry point of earlier drafts now
/// streams; kept so the name in the paper discussion ("flooding the
/// network") remains discoverable.
pub use stream_single_tuple as flood_single_tuple;

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_geom::Norm;
    use ripple_net::rng::rngs::SmallRng;
    use ripple_net::rng::{Rng, SeedableRng};

    fn setup(seed: u64) -> (CanNetwork, Vec<Tuple>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut net = CanNetwork::build(2, 32, &mut rng);
        let data: Vec<Tuple> = (0..200u64)
            .map(|i| Tuple::new(i, vec![rng.gen::<f64>(), rng.gen::<f64>()]))
            .collect();
        net.insert_all(data.clone());
        (net, data)
    }

    #[test]
    fn tour_reaches_everyone() {
        let (net, _) = setup(30);
        let div = DiversityQuery::new(vec![0.5, 0.5], 0.5, Norm::L1);
        let mut rng = SmallRng::seed_from_u64(31);
        let initiator = net.random_peer(&mut rng);
        let (found, m) = stream_single_tuple(&net, initiator, &div, &[], f64::INFINITY);
        assert!(found.is_some());
        assert_eq!(m.peers_visited as usize, net.peer_count());
        // a DFS token tour: at least n−1 hops, at most 2(n−1)
        assert!(m.latency as usize >= net.peer_count() - 1);
        assert!(m.latency as usize <= 2 * (net.peer_count() - 1));
    }

    #[test]
    fn tour_finds_global_best() {
        let (net, data) = setup(32);
        let div = DiversityQuery::new(vec![0.3, 0.3], 0.6, Norm::L1);
        let set = vec![data[0].clone(), data[1].clone()];
        let stats = div.stats(&set);
        let oracle = data
            .iter()
            .filter(|t| set.iter().all(|o| o.id != t.id))
            .map(|t| div.phi_with_stats(&t.point, &set, stats))
            .fold(f64::INFINITY, f64::min);
        let mut rng = SmallRng::seed_from_u64(33);
        let initiator = net.random_peer(&mut rng);
        let (found, _) = stream_single_tuple(&net, initiator, &div, &set, f64::INFINITY);
        let (_, phi) = found.unwrap();
        assert!((phi - oracle).abs() < 1e-12);
    }

    #[test]
    fn threshold_suppresses_non_improvements() {
        let (net, data) = setup(34);
        let div = DiversityQuery::new(vec![0.5, 0.5], 0.5, Norm::L1);
        let set = vec![data[0].clone()];
        let mut rng = SmallRng::seed_from_u64(35);
        let initiator = net.random_peer(&mut rng);
        let (found, _) = stream_single_tuple(&net, initiator, &div, &set, 0.0);
        assert!(found.is_none(), "nothing strictly beats τ = 0");
    }

    #[test]
    fn baseline_is_reproducible_across_identical_networks() {
        // Two networks built from one seed must walk their neighbours in the
        // same order, so the baseline's tour (and its cost) is a function of
        // the seed alone.
        let run = || {
            let (net, _) = setup(38);
            let div = DiversityQuery::new(vec![0.5, 0.5], 0.5, Norm::L1);
            let initiator = net.random_peer(&mut SmallRng::seed_from_u64(39));
            baseline_diversify(&net, initiator, &div, 5, 5)
        };
        let (set_a, metrics_a) = run();
        let (set_b, metrics_b) = run();
        assert_eq!(set_a, set_b);
        assert_eq!(metrics_a, metrics_b);
    }

    #[test]
    fn baseline_diversify_runs_and_is_expensive() {
        let (net, _) = setup(36);
        let div = DiversityQuery::new(vec![0.5, 0.5], 0.5, Norm::L1);
        let mut rng = SmallRng::seed_from_u64(37);
        let initiator = net.random_peer(&mut rng);
        let (set, m) = baseline_diversify(&net, initiator, &div, 5, 5);
        assert_eq!(set.len(), 5);
        // at least k tours, each visiting everyone
        assert!(m.peers_visited as usize >= 5 * net.peer_count());
        // the token travels sequentially: latency scales with n per pass
        assert!(m.latency as usize >= 5 * (net.peer_count() - 1));
    }
}
