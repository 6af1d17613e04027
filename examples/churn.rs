//! Network dynamics: the two-stage churn schedule of Section 7.1, with live
//! queries verifying correctness at every checkpoint.
//!
//! The overlay grows from 64 to 1,024 peers (increasing stage), then
//! shrinks back (decreasing stage). At every power-of-two checkpoint a
//! skyline and a top-k query are answered and checked against centralized
//! oracles — churn must never lose tuples or corrupt routing state.
//!
//! ```text
//! cargo run --release --example churn
//! ```

use ripple::core::framework::Mode;
use ripple::core::skyline::{centralized_skyline, run_skyline};
use ripple::core::topk::{centralized_topk, run_topk};
use ripple::geom::{Norm, PeakScore, Tuple};
use ripple::midas::MidasNetwork;
use ripple::net::churn::{run_stage, ChurnStage};
use ripple_net::rng::rngs::SmallRng;
use ripple_net::rng::{Rng, SeedableRng};
use ripple_net::Substrate;

fn main() {
    let mut rng = SmallRng::seed_from_u64(131_072);
    let mut net = MidasNetwork::build(3, 64, false, &mut rng);
    let data: Vec<Tuple> = (0..4_000u64)
        .map(|i| Tuple::new(i, vec![rng.gen(), rng.gen(), rng.gen()]))
        .collect();
    net.insert_all(data.clone());

    let sky_oracle = centralized_skyline(&data);
    let score = PeakScore::new(vec![0.2, 0.8, 0.5], Norm::L2);
    let top_oracle: Vec<u64> = centralized_topk(&data, &score, 10)
        .iter()
        .map(|t| t.id)
        .collect();
    let checkpoints = [64, 128, 256, 512, 1024];

    let verify = |net: &mut MidasNetwork, stage: &str, cp: usize| {
        let mut rng = SmallRng::seed_from_u64(cp as u64);
        let initiator = net.random_peer(&mut rng);
        let (sky, sm) = run_skyline(net, initiator, Mode::Fast);
        let (top, tm) = run_topk(net, initiator, score.clone(), 10, Mode::Slow);
        assert_eq!(sky.len(), sky_oracle.len(), "skyline broken at {cp}");
        assert_eq!(
            top.iter().map(|t| t.id).collect::<Vec<_>>(),
            top_oracle,
            "top-k broken at {cp}"
        );
        println!(
            "  [{stage}] {cp:>5} peers (Δ={:>2}): skyline {} tuples in {} hops; top-10 in {} hops / {} visits",
            net.delta(),
            sky.len(),
            sm.latency,
            tm.latency,
            tm.peers_visited,
        );
    };

    println!("increasing stage: 64 → 1024 peers");
    let mut grow_rng = SmallRng::seed_from_u64(1);
    run_stage(
        &mut net,
        ChurnStage::Increasing,
        1024,
        &checkpoints,
        &mut grow_rng,
        |net, cp| verify(net, "grow", cp),
    );

    println!("decreasing stage: 1024 → 64 peers");
    let mut shrink_rng = SmallRng::seed_from_u64(2);
    run_stage(
        &mut net,
        ChurnStage::Decreasing,
        64,
        &checkpoints,
        &mut shrink_rng,
        |net, cp| verify(net, "shrink", cp),
    );

    net.check_invariants();
    println!("\nall checkpoints verified; overlay invariants hold.");
}
