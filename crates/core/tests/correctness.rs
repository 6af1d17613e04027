//! End-to-end correctness: every RIPPLE mode must return exactly the
//! centralized answer, from any initiator, for all three query types.

use ripple_core::diversify::{diversify, greedy_trace, run_single_tuple, Initialize};
use ripple_core::framework::Mode;
use ripple_core::skyline::{centralized_skyline, run_skyline};
use ripple_core::topk::{centralized_topk, run_topk};
use ripple_geom::{DiversityQuery, LinearScore, Norm, PeakScore, Point, ScoreFn, Tuple};
use ripple_midas::MidasNetwork;
use ripple_net::rng::rngs::SmallRng;
use ripple_net::rng::{Rng, SeedableRng};
use ripple_net::Substrate;

fn build(dims: usize, peers: usize, tuples: usize, seed: u64) -> (MidasNetwork, Vec<Tuple>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut net = MidasNetwork::build(dims, peers, false, &mut rng);
    let data: Vec<Tuple> = (0..tuples as u64)
        .map(|i| Tuple::new(i, (0..dims).map(|_| rng.gen::<f64>()).collect::<Vec<_>>()))
        .collect();
    net.insert_all(data.clone());
    (net, data)
}

fn all_modes(delta: u32) -> Vec<Mode> {
    vec![
        Mode::Fast,
        Mode::Slow,
        Mode::Ripple(1),
        Mode::Ripple(2),
        Mode::Ripple(delta / 2),
        Mode::Broadcast,
    ]
}

fn ids(ts: &[Tuple]) -> Vec<u64> {
    let mut v: Vec<u64> = ts.iter().map(|t| t.id).collect();
    v.sort_unstable();
    v
}

#[test]
fn topk_matches_centralized_in_all_modes() {
    let (net, data) = build(3, 100, 600, 42);
    let mut rng = SmallRng::seed_from_u64(7);
    let score = LinearScore::new(vec![1.0, 0.5, 2.0]);
    let oracle = centralized_topk(&data, &score, 10);
    let oracle_scores: Vec<f64> = oracle.iter().map(|t| score.score(&t.point)).collect();
    for mode in all_modes(net.delta()) {
        for _ in 0..3 {
            let initiator = net.random_peer(&mut rng);
            let (ans, _) = run_topk(&net, initiator, score.clone(), 10, mode);
            let got: Vec<f64> = ans.iter().map(|t| score.score(&t.point)).collect();
            assert_eq!(got.len(), 10, "{mode:?}");
            for (g, o) in got.iter().zip(&oracle_scores) {
                assert!(
                    (g - o).abs() < 1e-12,
                    "{mode:?}: scores {got:?} vs {oracle_scores:?}"
                );
            }
        }
    }
}

#[test]
fn topk_with_unimodal_score() {
    let (net, data) = build(2, 64, 400, 43);
    let mut rng = SmallRng::seed_from_u64(8);
    let score = PeakScore::new(vec![0.3, 0.7], Norm::L2);
    let oracle = centralized_topk(&data, &score, 5);
    for mode in [Mode::Fast, Mode::Slow, Mode::Ripple(2)] {
        let initiator = net.random_peer(&mut rng);
        let (ans, _) = run_topk(&net, initiator, score.clone(), 5, mode);
        assert_eq!(ids(&ans), ids(&oracle), "{mode:?}");
    }
}

#[test]
fn topk_k_larger_than_dataset() {
    let (net, data) = build(2, 16, 8, 44);
    let score = LinearScore::uniform(2);
    let mut rng = SmallRng::seed_from_u64(9);
    let initiator = net.random_peer(&mut rng);
    for mode in [Mode::Fast, Mode::Slow] {
        let (ans, _) = run_topk(&net, initiator, score.clone(), 20, mode);
        assert_eq!(ans.len(), 8, "{mode:?}: every tuple must be returned");
        assert_eq!(ids(&ans), ids(&data));
    }
}

#[test]
fn skyline_matches_centralized_in_all_modes() {
    let (net, data) = build(3, 80, 500, 45);
    let mut rng = SmallRng::seed_from_u64(10);
    let oracle = centralized_skyline(&data);
    assert!(!oracle.is_empty());
    for mode in all_modes(net.delta()) {
        let initiator = net.random_peer(&mut rng);
        let (sky, _) = run_skyline(&net, initiator, mode);
        assert_eq!(ids(&sky), ids(&oracle), "{mode:?}");
    }
}

#[test]
fn skyline_with_border_policy_overlay() {
    let mut rng = SmallRng::seed_from_u64(46);
    let mut net = MidasNetwork::build(2, 64, true, &mut rng);
    let data: Vec<Tuple> = (0..300u64)
        .map(|i| Tuple::new(i, vec![rng.gen::<f64>(), rng.gen::<f64>()]))
        .collect();
    net.insert_all(data.clone());
    let oracle = centralized_skyline(&data);
    for mode in [Mode::Fast, Mode::Slow, Mode::Ripple(3)] {
        let initiator = net.random_peer(&mut rng);
        let (sky, _) = run_skyline(&net, initiator, mode);
        assert_eq!(ids(&sky), ids(&oracle), "{mode:?}");
    }
}

#[test]
fn constrained_skyline_matches_centralized() {
    use ripple_core::skyline::run_skyline_query;
    use ripple_core::SkylineQuery;
    use ripple_geom::{constrained_skyline, Rect};
    let (net, data) = build(2, 64, 500, 46);
    let mut rng = SmallRng::seed_from_u64(99);
    let constraint = Rect::new(vec![0.25, 0.1], vec![0.8, 0.75]);
    let mut oracle = constrained_skyline(&data, &constraint);
    oracle.sort_by_key(|t| t.id);
    assert!(!oracle.is_empty());
    for mode in [Mode::Fast, Mode::Slow, Mode::Ripple(2)] {
        let initiator = net.random_peer(&mut rng);
        let (sky, m) = run_skyline_query(
            &net,
            initiator,
            SkylineQuery::constrained(constraint.clone()),
            mode,
        );
        assert_eq!(ids(&sky), ids(&oracle), "{mode:?}");
        // constraining must not widen the search
        let (_, unconstrained) = run_skyline(&net, initiator, mode);
        assert!(m.peers_visited <= unconstrained.peers_visited, "{mode:?}");
    }
}

#[test]
fn single_tuple_query_matches_centralized() {
    let (net, data) = build(2, 60, 300, 47);
    let mut rng = SmallRng::seed_from_u64(11);
    let div = DiversityQuery::new(vec![0.5, 0.5], 0.5, Norm::L1);
    // a current set of three tuples
    let set = vec![data[0].clone(), data[1].clone(), data[2].clone()];
    let stats = div.stats(&set);
    let oracle = data
        .iter()
        .filter(|t| set.iter().all(|o| o.id != t.id))
        .map(|t| (t.clone(), div.phi_with_stats(&t.point, &set, stats)))
        .min_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.id.cmp(&b.0.id)))
        .unwrap();
    for mode in all_modes(net.delta()) {
        let initiator = net.random_peer(&mut rng);
        let (found, _) = run_single_tuple(&net, initiator, &div, &set, f64::INFINITY, mode);
        let (_t, phi) = found.expect("a best tuple exists");
        assert!(
            (phi - oracle.1).abs() < 1e-12,
            "{mode:?}: φ {phi} vs oracle {}",
            oracle.1
        );
    }
}

#[test]
fn single_tuple_query_respects_threshold() {
    let (net, data) = build(2, 40, 200, 48);
    let mut rng = SmallRng::seed_from_u64(12);
    let div = DiversityQuery::new(vec![0.2, 0.8], 0.7, Norm::L2);
    let set = vec![data[5].clone()];
    let initiator = net.random_peer(&mut rng);
    // with τ = 0 no tuple can strictly improve, so nothing is returned
    let (found, _) = run_single_tuple(&net, initiator, &div, &set, 0.0, Mode::Fast);
    assert!(found.is_none());
}

/// The distributed single-tuple search is *exact*: at every step of the
/// centralized greedy trajectory it finds a tuple attaining the same best
/// insertion score φ. (Identity of the returned tuple is not asserted — φ
/// clamps at 0, so exact ties are common, and any minimizer is a correct
/// answer per Section 6; Section 7.1 fixes the trajectory centrally for
/// exactly this reason.)
#[test]
fn diversify_matches_centralized_greedy() {
    let (net, data) = build(2, 50, 250, 49);
    let mut rng = SmallRng::seed_from_u64(13);
    let div = DiversityQuery::new(vec![0.5, 0.5], 0.5, Norm::L1);
    let trace = greedy_trace(&data, &div, 6, 10);
    assert!(trace.len() >= 6, "trace covers init and improvement steps");
    for mode in [Mode::Fast, Mode::Slow, Mode::Ripple(2)] {
        let initiator = net.random_peer(&mut rng);
        for (i, step) in trace.iter().enumerate() {
            let stats = div.stats(&step.set);
            let oracle = data
                .iter()
                .filter(|t| !step.set.iter().any(|m| m.id == t.id))
                .map(|t| div.phi_with_stats(&t.point, &step.set, stats))
                .filter(|phi| *phi < step.tau)
                .fold(f64::INFINITY, f64::min);
            let (found, _) = run_single_tuple(&net, initiator, &div, &step.set, step.tau, mode);
            match found {
                Some((_, phi)) => {
                    assert!(
                        (phi - oracle).abs() < 1e-12,
                        "{mode:?} step {i}: φ {phi} vs oracle {oracle}"
                    );
                }
                None => assert!(
                    oracle.is_infinite(),
                    "{mode:?} step {i}: found nothing but oracle has φ {oracle}"
                ),
            }
        }
        // End to end, the greedy wrapper still returns a full set of k
        // distinct members whose objective never worsens with iterations.
        let (got, _) = diversify(&net, initiator, &div, 6, mode, Initialize::Greedy, 10);
        assert_eq!(got.len(), 6, "{mode:?}");
        assert_eq!(ids(&got).len(), 6, "{mode:?}: members distinct");
        let (init_only, _) = diversify(&net, initiator, &div, 6, mode, Initialize::Greedy, 0);
        assert!(
            div.objective(&got) <= div.objective(&init_only) + 1e-12,
            "{mode:?}"
        );
    }
}

#[test]
fn diversify_objective_never_worsens_with_iterations() {
    let (net, _) = build(2, 40, 200, 50);
    let mut rng = SmallRng::seed_from_u64(14);
    let div = DiversityQuery::new(vec![0.4, 0.6], 0.5, Norm::L1);
    let initiator = net.random_peer(&mut rng);
    let (init_only, _) = diversify(&net, initiator, &div, 5, Mode::Fast, Initialize::Greedy, 0);
    let (improved, _) = diversify(&net, initiator, &div, 5, Mode::Fast, Initialize::Greedy, 8);
    assert!(div.objective(&improved) <= div.objective(&init_only) + 1e-12);
}

#[test]
fn metrics_are_sane() {
    let (net, _) = build(2, 64, 400, 51);
    let mut rng = SmallRng::seed_from_u64(15);
    let initiator = net.random_peer(&mut rng);
    let score = LinearScore::uniform(2);

    let (_, fast) = run_topk(&net, initiator, score.clone(), 10, Mode::Fast);
    let (_, slow) = run_topk(&net, initiator, score.clone(), 10, Mode::Slow);
    let (_, bcast) = run_topk(&net, initiator, score.clone(), 10, Mode::Broadcast);

    // Fast latency: the Lemma 1 bound (Δ) covers the propagation phase;
    // `run_topk` additionally routes the query to the peer owning the
    // score's peak first (at most Δ more hops), so the end-to-end bound
    // is 2Δ.
    assert!(fast.latency <= 2 * net.delta() as u64);
    // broadcast reaches everybody
    assert_eq!(bcast.peers_visited as usize, net.peer_count());
    // pruned modes never visit more peers than broadcast
    assert!(fast.peers_visited <= bcast.peers_visited);
    assert!(slow.peers_visited <= fast.peers_visited);
    // slow is at least as slow as fast
    assert!(slow.latency >= fast.latency);
    // messages: one query message per visited peer beyond the starting
    // peer, plus the hops of the initial route to the score's peak
    assert!(fast.query_messages >= fast.peers_visited - 1);
}

#[test]
fn ripple_interpolates_between_fast_and_slow() {
    let (net, _) = build(2, 128, 600, 52);
    let mut rng = SmallRng::seed_from_u64(16);
    let initiator = net.random_peer(&mut rng);
    let score = LinearScore::uniform(2);
    let delta = net.delta();

    let latency_of = |mode| {
        let (_, m) = run_topk(&net, initiator, score.clone(), 10, mode);
        m.latency
    };
    let fast = latency_of(Mode::Fast);
    let slow = latency_of(Mode::Slow);
    let r_delta = latency_of(Mode::Ripple(delta));
    assert_eq!(r_delta, slow, "r = Δ degenerates to slow");
    let r0 = latency_of(Mode::Ripple(0));
    assert_eq!(r0, fast, "r = 0 degenerates to fast");
}

#[test]
fn every_initiator_gets_the_same_answer() {
    let (net, data) = build(2, 48, 240, 53);
    let oracle = centralized_skyline(&data);
    for &initiator in net.live_peers().iter().take(12) {
        let (sky, _) = run_skyline(&net, initiator, Mode::Ripple(1));
        assert_eq!(ids(&sky), ids(&oracle), "initiator {initiator}");
    }
}

#[test]
fn queries_survive_churn() {
    let mut rng = SmallRng::seed_from_u64(54);
    let mut net = MidasNetwork::build(2, 64, false, &mut rng);
    let data: Vec<Tuple> = (0..400u64)
        .map(|i| Tuple::new(i, vec![rng.gen::<f64>(), rng.gen::<f64>()]))
        .collect();
    net.insert_all(data.clone());
    // heavy churn
    for _ in 0..80 {
        if rng.gen_bool(0.5) {
            net.join_random(&mut rng);
        } else if net.peer_count() > 2 {
            let v = net.random_peer(&mut rng);
            net.leave(v);
        }
    }
    net.check_invariants();
    let oracle = centralized_skyline(&data);
    let initiator = net.random_peer(&mut rng);
    let (sky, _) = run_skyline(&net, initiator, Mode::Fast);
    assert_eq!(ids(&sky), ids(&oracle));
    let score = LinearScore::uniform(2);
    let top_oracle = centralized_topk(&data, &score, 10);
    let (top, _) = run_topk(&net, initiator, score.clone(), 10, Mode::Slow);
    assert_eq!(ids(&top), ids(&top_oracle));
}

#[test]
fn single_peer_network_answers_locally() {
    let mut net = MidasNetwork::new(2, false);
    let data: Vec<Tuple> = (0..20u64)
        .map(|i| Tuple::new(i, vec![(i as f64) / 20.0, 1.0 - (i as f64) / 20.0]))
        .collect();
    net.insert_all(data.clone());
    let initiator = net.live_peers()[0];
    let (top, m) = run_topk(&net, initiator, LinearScore::uniform(2), 3, Mode::Fast);
    assert_eq!(top.len(), 3);
    assert_eq!(m.latency, 0);
    assert_eq!(m.query_messages, 0);
    let point_query = Point::new(vec![0.5, 0.5]);
    assert!(net.peer(initiator).zone.contains_key(&point_query));
}
