//! Diversified image retrieval: the paper's k-diversification scenario
//! (Section 7.2.3) on MIRFLICKR-like edge-histogram descriptors.
//!
//! Given a query image, find k images that are *relevant* (similar edge
//! structure) yet *diverse* (not near-duplicates) — the first distributed
//! solution to this problem. Compares the RIPPLE-based solver against the
//! flooding baseline over CAN; both produce the same set by construction.
//!
//! ```text
//! cargo run --release --example image_diversify
//! ```

use ripple::can::{baseline_diversify, CanNetwork};
use ripple::core::diversify::{diversify, Initialize};
use ripple::core::framework::Mode;
use ripple::data::mirflickr;
use ripple::geom::{DiversityQuery, Norm};
use ripple::midas::MidasNetwork;
use ripple_net::rng::rngs::SmallRng;
use ripple_net::rng::{Rng, SeedableRng};
use ripple_net::Substrate;

fn main() {
    let mut rng = SmallRng::seed_from_u64(2014);
    let records = 30_000;
    println!("generating {records} edge-histogram descriptors…");
    let data = mirflickr::generate(records, &mut rng);

    // The query image: a building-like shot (strong vertical edges).
    let query = vec![0.68, 0.18, 0.12, 0.11, 0.22];
    let div = DiversityQuery::new(query.clone(), 0.5, Norm::L1);
    let k = 8;

    // --- RIPPLE over MIDAS ---------------------------------------------------
    let mut midas = MidasNetwork::new(mirflickr::DIMS, false);
    midas.insert_all(data.clone());
    while midas.peer_count() < 512 {
        let at = data[rng.gen_range(0..data.len())].point.clone();
        midas.join(&at);
    }
    let initiator = midas.random_peer(&mut rng);
    let (set, m) = diversify(
        &midas,
        initiator,
        &div,
        k,
        Mode::Fast,
        Initialize::Greedy,
        5,
    );
    println!("\nRIPPLE (fast) over {} MIDAS peers:", midas.peer_count());
    println!(
        "  {k}-diversified set {:?}",
        set.iter().map(|t| t.id).collect::<Vec<_>>()
    );
    println!("  objective f(O,q) = {:.4}", div.objective(&set));
    println!(
        "  cost: {} hops, {} peer visits, {} messages",
        m.latency,
        m.peers_visited,
        m.total_messages()
    );

    // --- Flooding baseline over CAN -----------------------------------------
    let mut can = CanNetwork::new(mirflickr::DIMS);
    can.insert_all(data.clone());
    while can.peer_count() < 512 {
        let at = data[rng.gen_range(0..data.len())].point.clone();
        can.join(&at);
    }
    let initiator = can.random_peer(&mut rng);
    let (base_set, bm) = baseline_diversify(&can, initiator, &div, k, 5);
    println!("\nbaseline (flooding) over {} CAN peers:", can.peer_count());
    println!(
        "  {k}-diversified set {:?}",
        base_set.iter().map(|t| t.id).collect::<Vec<_>>()
    );
    println!(
        "  cost: {} hops, {} peer visits, {} messages",
        bm.latency,
        bm.peers_visited,
        bm.total_messages()
    );

    // Both heuristics run the same greedy rule; members can differ when
    // several candidates tie on φ (any argmin is equally good), steering
    // the runs to different — comparable — local optima. The experiment
    // harness pins a shared greedy trace for exact cost comparisons
    // (Section 7.1's fairness methodology); here we just report both.
    let (f_rip, f_base) = (div.objective(&set), div.objective(&base_set));
    println!(
        "\nobjectives: ripple {f_rip:.4} vs baseline {f_base:.4} \
         (ties may steer the greedy runs apart)"
    );
    println!(
        "cost ratio: {:.0}× fewer peer visits and {:.0}× lower latency for RIPPLE",
        bm.peers_visited as f64 / m.peers_visited as f64,
        bm.latency as f64 / m.latency as f64,
    );
}
