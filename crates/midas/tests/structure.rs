//! Structural integration tests for the MIDAS overlay: depth scaling, link
//! repair under churn, storage balance with data-steered joins, and the
//! §5.2 policy's effect on link targets.

use ripple_geom::{Point, Tuple};
use ripple_midas::{MidasNetwork, SplitRule};
use ripple_net::rng::rngs::SmallRng;
use ripple_net::rng::{Rng, SeedableRng};
use ripple_net::{Distribution, Substrate};

fn rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

#[test]
fn expected_depth_scales_logarithmically() {
    // E[depth] = O(log n): growing the overlay 4× should add only a few
    // levels, nowhere near 4× the depth.
    let mut r = rng(1);
    let small = MidasNetwork::build(2, 256, false, &mut r);
    let mut r = rng(1);
    let large = MidasNetwork::build(2, 1024, false, &mut r);
    assert!(large.delta() > small.delta());
    assert!(
        large.delta() <= small.delta() + 8,
        "depth grew from {} to {} for a 4x size increase",
        small.delta(),
        large.delta()
    );
}

#[test]
fn routes_survive_dangling_link_targets() {
    // Remove a third of the network, then route from every survivor: lazy
    // link repair must always find a live substitute inside the subtree.
    let mut r = rng(2);
    let mut net = MidasNetwork::build(2, 128, false, &mut r);
    for _ in 0..42 {
        let victim = net.random_peer(&mut r);
        net.leave(victim);
    }
    net.check_invariants();
    for &from in net.live_peers() {
        let key = Point::new(vec![r.gen(), r.gen()]);
        let (owner, hops) = net.route(from, &key);
        assert!(net.peer(owner).zone.contains_key(&key));
        assert!(hops <= 2 * net.delta(), "routing blew up after churn");
    }
}

#[test]
fn data_steered_joins_balance_storage() {
    // Heavily skewed data: all tuples inside a small corner box. Uniform
    // joiners leave one peer holding everything; data-steered joiners with
    // median splits spread the load.
    let mut r = rng(3);
    let data: Vec<Tuple> = (0..2000u64)
        .map(|i| {
            Tuple::new(
                i,
                vec![0.9 + 0.1 * r.gen::<f64>(), 0.9 + 0.1 * r.gen::<f64>()],
            )
        })
        .collect();

    // uniform joins, midpoint splits
    let mut uniform = MidasNetwork::build(2, 64, false, &mut r);
    uniform.insert_all(data.clone());
    let u = Distribution::of(
        uniform
            .live_peers()
            .iter()
            .map(|&p| uniform.peer(p).store.len() as f64),
    );

    // data-steered joins, median splits
    let mut steered = MidasNetwork::new(2, false).with_split_rule(SplitRule::Median);
    steered.insert_all(data.clone());
    while steered.peer_count() < 64 {
        let at = data[r.gen_range(0..data.len())].point.clone();
        steered.join(&at);
    }
    let s = Distribution::of(
        steered
            .live_peers()
            .iter()
            .map(|&p| steered.peer(p).store.len() as f64),
    );

    assert!(
        s.gini < u.gini,
        "steered joins must be more balanced (gini {} vs {})",
        s.gini,
        u.gini
    );
    assert!(s.imbalance() < u.imbalance());
}

#[test]
fn median_splits_balance_better_than_midpoint() {
    let mut r = rng(4);
    // clustered data
    let data: Vec<Tuple> = (0..3000u64)
        .map(|i| {
            let c = if i % 3 == 0 { 0.2 } else { 0.8 };
            Tuple::new(
                i,
                vec![c + 0.05 * r.gen::<f64>(), c + 0.05 * r.gen::<f64>()],
            )
        })
        .collect();
    let build = |rule: SplitRule, seed: u64| {
        let mut r = rng(seed);
        let mut net = MidasNetwork::new(2, false).with_split_rule(rule);
        net.insert_all(data.clone());
        while net.peer_count() < 64 {
            let at = data[r.gen_range(0..data.len())].point.clone();
            net.join(&at);
        }
        Distribution::of(
            net.live_peers()
                .iter()
                .map(|&p| net.peer(p).store.len() as f64),
        )
    };
    let median = build(SplitRule::Median, 5);
    let midpoint = build(SplitRule::Midpoint, 5);
    assert!(
        median.gini <= midpoint.gini + 1e-9,
        "median splits must not be less balanced: {} vs {}",
        median.gini,
        midpoint.gini
    );
}

#[test]
fn border_policy_steers_most_possible_links() {
    let mut r = rng(6);
    let net = MidasNetwork::build(2, 512, true, &mut r);
    let (mut steered, mut possible) = (0usize, 0usize);
    for &id in net.live_peers() {
        for l in &net.peer(id).links {
            // the subtree contains a border peer iff its prefix lies on a
            // border (prefix-closure property of the patterns)
            if l.subtree.on_any_lower_border(2) {
                let has_border_leaf = net.live_peers().iter().any(|&q| {
                    l.subtree.is_prefix_of(&net.peer(q).path)
                        && net.peer(q).path.on_any_lower_border(2)
                });
                if has_border_leaf {
                    possible += 1;
                    let t = net.resolve(l);
                    if net.peer(t).path.on_any_lower_border(2) {
                        steered += 1;
                    }
                }
            }
        }
    }
    assert!(possible > 0);
    assert_eq!(
        steered, possible,
        "every link whose subtree holds a border peer must target one"
    );
}

#[test]
fn deep_churn_cycles_keep_roundtrip_lookups_exact() {
    let mut r = rng(7);
    let mut net = MidasNetwork::new(3, false);
    let data: Vec<Tuple> = (0..300u64)
        .map(|i| Tuple::new(i, vec![r.gen(), r.gen(), r.gen()]))
        .collect();
    net.insert_all(data.clone());
    for round in 0..6 {
        // grow then shrink, checking lookups each round
        for _ in 0..40 {
            net.join_random(&mut r);
        }
        for _ in 0..40 {
            if net.peer_count() > 1 {
                let v = net.random_peer(&mut r);
                net.leave(v);
            }
        }
        for t in data.iter().step_by(37) {
            let owner = net.responsible(&t.point);
            assert!(
                net.peer(owner).store.iter().any(|s| s.id == t.id),
                "round {round}: tuple {} not at its responsible peer",
                t.id
            );
        }
    }
    net.check_invariants();
}

#[test]
fn split_rule_accessor_roundtrip() {
    let net = MidasNetwork::new(2, false);
    assert_eq!(net.split_rule(), SplitRule::Midpoint);
    let net = MidasNetwork::new(2, false).with_split_rule(SplitRule::Median);
    assert_eq!(net.split_rule(), SplitRule::Median);
}
