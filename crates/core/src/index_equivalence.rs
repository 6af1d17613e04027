//! Equivalence property tests for the per-peer index layer.
//!
//! The local index is a *cache*: it must be invisible to the protocol. We
//! check that for every query type and every propagation mode, an indexed
//! run ([`Executor::new`]) and a plain-scan oracle run ([`Executor::naive`]) over
//! the same network produce
//!
//! 1. the same answer *set* (order may differ for top-k, whose indexed
//!    answer walk emits in score order rather than store order), and
//! 2. **bit-identical** cost ledgers — latency, message counts, tuples
//!    shipped, and the exact per-peer visit *sequence* (`QueryMetrics`
//!    derives `PartialEq` over all of these, including `visited`).
//!
//! The checks are repeated under churn: tuple inserts (incremental skyline
//! folds), data-steered joins (zone splits `drain_where` tuples out of
//! stores), and peer departures (stores are drained and re-inserted), so
//! every cache-invalidation path in `PeerStore` is exercised end to end.

use crate::diversify::SingleTupleQuery;
use crate::exec::Executor;
use crate::framework::{Mode, RankQuery};
use crate::skyline::SkylineQuery;
use crate::topk::TopKQuery;
use ripple_geom::{DiversityQuery, LinearScore, Norm, PeakScore, Rect, Tuple};
use ripple_midas::MidasNetwork;
use ripple_net::rng::rngs::SmallRng;
use ripple_net::rng::{Rng, SeedableRng};
use ripple_net::Substrate;

const MODES: [Mode; 4] = [Mode::Fast, Mode::Slow, Mode::Ripple(2), Mode::Broadcast];

fn random_tuple(id: u64, dims: usize, rng: &mut SmallRng) -> Tuple {
    Tuple::new(id, (0..dims).map(|_| rng.gen::<f64>()).collect::<Vec<_>>())
}

fn loaded_net(dims: usize, peers: usize, tuples: u64, seed: u64) -> (MidasNetwork, SmallRng) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut net = MidasNetwork::build(dims, peers, false, &mut rng);
    for i in 0..tuples {
        let t = random_tuple(i, dims, &mut rng);
        net.insert_tuple(t);
    }
    (net, rng)
}

/// Answers as an id-sorted set: how the suites compare an indexed run's
/// answers with the plain-scan oracle's (an indexed top-k walk emits in
/// score order, the scan in store order).
pub(crate) fn by_id(answers: &[Tuple]) -> Vec<Tuple> {
    let mut v = answers.to_vec();
    v.sort_by_key(|t| t.id);
    v
}

/// Runs `query` both ways in every mode and asserts observational equality.
fn assert_equivalent<Q>(net: &MidasNetwork, query: &Q, rng: &mut SmallRng, label: &str)
where
    Q: RankQuery<Rect>,
{
    for mode in MODES {
        let initiator = net.random_peer(rng);
        let indexed = Executor::new(net).run(initiator, query, mode);
        let naive = Executor::new(net).naive().run(initiator, query, mode);
        assert_eq!(
            indexed.metrics, naive.metrics,
            "{label} [{mode:?}]: indexed and naive ledgers must be bit-identical \
             (including the visit sequence)"
        );
        assert_eq!(
            by_id(&indexed.answers),
            by_id(&naive.answers),
            "{label} [{mode:?}]: answer sets must agree"
        );
    }
}

/// The battery of queries the equivalence property is checked against:
/// both score families for top-k (small and large k, so both the pruning
/// and the `m < k` top-up paths run), unconstrained and constrained
/// skyline, and the diversification single-tuple search.
fn check_all_queries(net: &MidasNetwork, dims: usize, rng: &mut SmallRng) {
    for k in [1usize, 5, 64] {
        let q = TopKQuery::new(LinearScore::uniform(dims), k);
        assert_equivalent(net, &q, rng, &format!("topk-linear k={k}"));
        let peak: Vec<f64> = (0..dims).map(|_| rng.gen::<f64>()).collect();
        let q = TopKQuery::new(PeakScore::new(peak, Norm::L2), k);
        assert_equivalent(net, &q, rng, &format!("topk-peak k={k}"));
    }
    assert_equivalent(net, &SkylineQuery::new(), rng, "skyline");
    let lo: Vec<f64> = vec![0.2; dims];
    let hi: Vec<f64> = vec![0.9; dims];
    assert_equivalent(
        net,
        &SkylineQuery::constrained(Rect::new(lo, hi)),
        rng,
        "skyline-constrained",
    );
    let div = DiversityQuery::new(vec![0.5; dims], 0.7, Norm::L2);
    let set: Vec<Tuple> = (0..3)
        .map(|i| random_tuple(u64::MAX - i, dims, rng))
        .collect();
    let q = SingleTupleQuery::new(&div, &set);
    assert_equivalent(net, &q, rng, "diversify-single-tuple");
}

#[test]
fn indexed_equals_naive_on_static_network() {
    for (dims, peers, tuples, seed) in [(2, 48, 600, 11u64), (3, 32, 400, 12)] {
        let (net, mut rng) = loaded_net(dims, peers, tuples, seed);
        check_all_queries(&net, dims, &mut rng);
    }
}

#[test]
fn indexed_equals_naive_under_churn() {
    let dims = 2;
    let (mut net, mut rng) = loaded_net(dims, 24, 300, 21);
    let mut next_id = 300u64;
    for round in 0..4 {
        // inserts: exercises the incremental skyline fold and projection
        // invalidation on loaded stores
        for _ in 0..40 {
            let t = random_tuple(next_id, dims, &mut rng);
            next_id += 1;
            net.insert_tuple(t);
        }
        // data-steered joins: splits drain tuples out of existing stores
        for _ in 0..3 {
            let key = ripple_geom::Point::new(vec![rng.gen::<f64>(), rng.gen::<f64>()]);
            net.join(&key);
        }
        // departures: the leaver's store is drained and re-inserted
        if round % 2 == 1 {
            let victim = net.random_peer(&mut rng);
            net.leave(victim);
        }
        net.check_invariants();
        check_all_queries(&net, dims, &mut rng);
    }
}

#[test]
fn warm_caches_do_not_change_results() {
    // Run the same query twice on the indexed path (cold, then warm cache)
    // and against the naive path: all three ledgers must agree.
    let (net, mut rng) = loaded_net(2, 40, 500, 31);
    let q = TopKQuery::new(LinearScore::new(vec![0.8, 0.2]), 10);
    let initiator = net.random_peer(&mut rng);
    let cold = Executor::new(&net).run(initiator, &q, Mode::Fast);
    let warm = Executor::new(&net).run(initiator, &q, Mode::Fast);
    let naive = Executor::new(&net).naive().run(initiator, &q, Mode::Fast);
    assert_eq!(cold.metrics, warm.metrics);
    assert_eq!(cold.metrics, naive.metrics);
    assert_eq!(cold.answers, warm.answers);
}
