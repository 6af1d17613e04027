//! NBA scouting: the paper's motivating top-k / skyline scenario on the
//! NBA-like dataset (Section 7.1), distributed over MIDAS.
//!
//! * top-k — "the best all-around players", a unimodal aggregate over six
//!   per-game statistics;
//! * skyline — "the players who excel in particular or combinations of
//!   statistics".
//!
//! ```text
//! cargo run --release --example nba_scouting
//! ```

use ripple::core::framework::Mode;
use ripple::core::skyline::{centralized_skyline, run_skyline};
use ripple::core::topk::{centralized_topk, run_topk};
use ripple::data::nba;
use ripple::geom::{Norm, PeakScore, Point};
use ripple::midas::MidasNetwork;
use ripple_net::rng::rngs::SmallRng;
use ripple_net::rng::{Rng, SeedableRng};
use ripple_net::Substrate;

fn main() {
    let mut rng = SmallRng::seed_from_u64(1946);
    println!("generating {} NBA-like player seasons…", nba::PAPER_RECORDS);
    let data = nba::paper(&mut rng);

    // Load the data first, then let 1,024 peers join where the load is.
    let mut net = MidasNetwork::new(nba::DIMS, true);
    net.insert_all(data.clone());
    while net.peer_count() < 1024 {
        let at = data[rng.gen_range(0..data.len())].point.clone();
        net.join(&at);
    }
    println!("overlay: {} peers, Δ = {}\n", net.peer_count(), net.delta());

    // --- Best all-around players -------------------------------------------
    // Stored statistics are "1 − normalized performance", so the best
    // all-around players minimize the L1 distance to the origin.
    let score = PeakScore::new(Point::origin(nba::DIMS), Norm::L1);
    let initiator = net.random_peer(&mut rng);
    let (top, m) = run_topk(&net, initiator, score.clone(), 10, Mode::Ripple(2));
    println!("top-10 all-around players (ripple r=2):");
    for t in &top {
        let perf: Vec<String> = t
            .point
            .coords()
            .iter()
            .map(|c| format!("{:.0}%", (1.0 - c) * 100.0))
            .collect();
        println!(
            "  player {:>5}: [pts reb ast stl blk min] = {:?}",
            t.id, perf
        );
    }
    println!(
        "  cost: {} hops, {} peers processed, {} messages",
        m.latency,
        m.peers_visited,
        m.total_messages()
    );
    assert_eq!(
        top.iter().map(|t| t.id).collect::<Vec<_>>(),
        centralized_topk(&data, &score, 10)
            .iter()
            .map(|t| t.id)
            .collect::<Vec<_>>(),
        "distributed answer must equal the centralized one"
    );

    // --- Players who excel somewhere ---------------------------------------
    let (sky, m) = run_skyline(&net, initiator, Mode::Fast);
    println!(
        "\nskyline: {} players excel in some statistic combination",
        sky.len()
    );
    println!(
        "  cost: {} hops, {} peers processed, {} tuples shipped",
        m.latency, m.peers_visited, m.tuples_transferred
    );
    assert_eq!(sky.len(), centralized_skyline(&data).len());

    // A couple of profile examples from the skyline:
    for t in sky.iter().take(3) {
        let best_dim = (0..nba::DIMS)
            .min_by(|&a, &b| t.point.coord(a).total_cmp(&t.point.coord(b)))
            .expect("six dimensions");
        let label = [
            "scorer",
            "rebounder",
            "playmaker",
            "ball thief",
            "rim protector",
            "iron man",
        ][best_dim];
        println!(
            "  e.g. player {:>5}: {} ({:.0}% of the all-time best)",
            t.id,
            label,
            (1.0 - t.point.coord(best_dim)) * 100.0
        );
    }
}
