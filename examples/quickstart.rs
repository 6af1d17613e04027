//! Quickstart: build a MIDAS overlay, load data, and run all three rank
//! query types at several ripple parameters.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ripple::core::diversify::{diversify, Initialize};
use ripple::core::framework::Mode;
use ripple::core::skyline::run_skyline;
use ripple::core::topk::run_topk;
use ripple::geom::{DiversityQuery, Norm, PeakScore, Tuple};
use ripple::midas::MidasNetwork;
use ripple_net::rng::rngs::SmallRng;
use ripple_net::rng::{Rng, SeedableRng};
use ripple_net::Substrate;

fn main() {
    let mut rng = SmallRng::seed_from_u64(7);

    // A 512-peer overlay over a 2-d domain.
    println!("building a 512-peer MIDAS overlay…");
    let mut net = MidasNetwork::build(2, 512, true, &mut rng);

    // 5,000 random tuples, stored at the peers responsible for their keys.
    let data: Vec<Tuple> = (0..5_000u64)
        .map(|i| Tuple::new(i, vec![rng.gen::<f64>(), rng.gen::<f64>()]))
        .collect();
    net.insert_all(data.clone());
    println!(
        "loaded {} tuples across {} peers (Δ = {})\n",
        data.len(),
        net.peer_count(),
        net.delta()
    );

    // --- Top-k: the 5 tuples nearest the centre of the domain ------------
    let initiator = net.random_peer(&mut rng);
    println!("top-5 around (0.5, 0.5), posed at {initiator}:");
    for mode in [Mode::Fast, Mode::Ripple(2), Mode::Slow] {
        let score = PeakScore::new(vec![0.5, 0.5], Norm::L2);
        let (top, m) = run_topk(&net, initiator, score, 5, mode);
        println!(
            "  {mode:?}: ids {:?} — {} hops, {} peers processed, {} messages",
            top.iter().map(|t| t.id).collect::<Vec<_>>(),
            m.latency,
            m.peers_visited,
            m.total_messages()
        );
    }

    // --- Skyline ----------------------------------------------------------
    println!("\nskyline (lower is better on both dimensions):");
    for mode in [Mode::Fast, Mode::Slow] {
        let (sky, m) = run_skyline(&net, initiator, mode);
        println!(
            "  {mode:?}: {} skyline tuples — {} hops, {} peers, {} tuples shipped",
            sky.len(),
            m.latency,
            m.peers_visited,
            m.tuples_transferred
        );
    }

    // --- k-diversification -------------------------------------------------
    println!("\n5-diversified set around (0.3, 0.7), λ = 0.5:");
    let div = DiversityQuery::new(vec![0.3, 0.7], 0.5, Norm::L1);
    let (set, m) = diversify(&net, initiator, &div, 5, Mode::Fast, Initialize::Greedy, 5);
    println!(
        "  objective {:.4}, members {:?} — {} hops total, {} peer visits",
        div.objective(&set),
        set.iter().map(|t| t.id).collect::<Vec<_>>(),
        m.latency,
        m.peers_visited
    );
}
