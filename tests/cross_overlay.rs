//! Cross-crate integration: the same dataset and queries over every
//! substrate and algorithm must agree with the centralized oracles.

use ripple::baton::{ssp_skyline, BatonNetwork};
use ripple::can::{baseline_diversify, dsl_skyline, CanNetwork};
use ripple::chord::ChordNetwork;
use ripple::core::diversify::{centralized_diversify, diversify, Initialize};
use ripple::core::framework::Mode;
use ripple::core::skyline::{centralized_skyline, run_skyline};
use ripple::core::topk::{centralized_topk, run_topk};
use ripple::data::synth::{self, SynthConfig};
use ripple::geom::{DiversityQuery, Norm, PeakScore, Tuple};
use ripple::midas::MidasNetwork;
use ripple_net::rng::rngs::SmallRng;
use ripple_net::rng::SeedableRng;
use ripple_net::Substrate;

fn dataset(dims: usize, n: usize, seed: u64) -> Vec<Tuple> {
    let mut rng = SmallRng::seed_from_u64(seed);
    synth::generate(&SynthConfig::scaled(dims, n), &mut rng)
}

fn ids(ts: &[Tuple]) -> Vec<u64> {
    let mut v: Vec<u64> = ts.iter().map(|t| t.id).collect();
    v.sort_unstable();
    v
}

#[test]
fn all_skyline_methods_agree() {
    let data = dataset(3, 400, 1);
    let oracle = ids(&centralized_skyline(&data));
    let mut rng = SmallRng::seed_from_u64(2);

    let mut midas = MidasNetwork::build(3, 64, true, &mut rng);
    midas.insert_all(data.clone());
    let (sky, _) = run_skyline(&midas, midas.random_peer(&mut rng), Mode::Fast);
    assert_eq!(ids(&sky), oracle, "ripple-fast over MIDAS");
    let (sky, _) = run_skyline(&midas, midas.random_peer(&mut rng), Mode::Slow);
    assert_eq!(ids(&sky), oracle, "ripple-slow over MIDAS");

    let mut can = CanNetwork::build(3, 64, &mut rng);
    can.insert_all(data.clone());
    let out = dsl_skyline(&can, can.random_peer(&mut rng));
    assert_eq!(ids(&out.skyline), oracle, "DSL over CAN");

    let mut baton = BatonNetwork::build(3, 10, 64, &mut rng);
    baton.insert_all(data.clone());
    baton.refresh_layout();
    let out = ssp_skyline(&baton, baton.random_peer(&mut rng));
    assert_eq!(ids(&out.skyline), oracle, "SSP over BATON");
}

#[test]
fn topk_agrees_across_midas_and_chord() {
    // MIDAS on the multidimensional data…
    let data = dataset(2, 300, 3);
    let mut rng = SmallRng::seed_from_u64(4);
    let score = PeakScore::new(vec![0.4, 0.6], Norm::L2);
    let oracle = ids(&centralized_topk(&data, &score, 8));
    let mut midas = MidasNetwork::build(2, 48, false, &mut rng);
    midas.insert_all(data.clone());
    let (top, _) = run_topk(
        &midas,
        midas.random_peer(&mut rng),
        score.clone(),
        8,
        Mode::Ripple(1),
    );
    assert_eq!(ids(&top), oracle, "MIDAS");

    // …and Chord on its 1-d projection: same framework, different substrate.
    let data1: Vec<Tuple> = data
        .iter()
        .map(|t| Tuple::new(t.id, vec![t.point.coord(0)]))
        .collect();
    let score1 = PeakScore::new(vec![0.4], Norm::L2);
    let oracle1 = ids(&centralized_topk(&data1, &score1, 8));
    let mut chord = ChordNetwork::build(48, &mut rng);
    chord.insert_all(data1);
    let (top, _) = run_topk(&chord, chord.random_peer(&mut rng), score1, 8, Mode::Slow);
    assert_eq!(ids(&top), oracle1, "Chord");
}

#[test]
fn diversification_methods_take_identical_greedy_steps() {
    let data = dataset(2, 250, 5);
    let mut rng = SmallRng::seed_from_u64(6);
    let div = DiversityQuery::new(vec![0.5, 0.5], 0.5, Norm::L1);
    let oracle = centralized_diversify(&data, &div, 5, 6);

    let mut midas = MidasNetwork::build(2, 40, false, &mut rng);
    midas.insert_all(data.clone());
    let (rip, rip_m) = diversify(
        &midas,
        midas.random_peer(&mut rng),
        &div,
        5,
        Mode::Slow,
        Initialize::Greedy,
        6,
    );
    // Candidates can tie on φ (e.g. several "free" insertions with φ = 0);
    // any argmin is a correct answer to Eq. 2, so the greedy runs may pick
    // different — equally good — members. The objective must agree.
    assert_eq!(rip.len(), oracle.len(), "RIPPLE diversification size");
    assert!(
        div.objective(&rip) <= div.objective(&oracle) + 1e-9,
        "RIPPLE objective {} vs centralized {}",
        div.objective(&rip),
        div.objective(&oracle)
    );

    let mut can = CanNetwork::build(2, 40, &mut rng);
    can.insert_all(data.clone());
    let (base, base_m) = baseline_diversify(&can, can.random_peer(&mut rng), &div, 5, 6);
    // the streaming baseline scans exhaustively with the same id
    // tie-breaking as the centralized oracle: identical sets
    assert_eq!(ids(&base), ids(&oracle), "baseline diversification");

    // the baseline floods: it must be doing strictly more work
    assert!(
        base_m.peers_visited > rip_m.peers_visited,
        "baseline {} vs ripple {}",
        base_m.peers_visited,
        rip_m.peers_visited
    );
}

#[test]
fn churn_stages_preserve_answers_on_all_overlays() {
    use ripple::net::churn::{run_stage, ChurnStage};
    let data = dataset(2, 300, 7);
    let sky_oracle = ids(&centralized_skyline(&data));
    let mut rng = SmallRng::seed_from_u64(8);

    let mut net = MidasNetwork::build(2, 32, false, &mut rng);
    net.insert_all(data.clone());
    run_stage(
        &mut net,
        ChurnStage::Increasing,
        256,
        &[64, 128, 256],
        &mut rng,
        |net, cp| {
            let mut r = SmallRng::seed_from_u64(cp as u64);
            let (sky, _) = run_skyline(net, net.random_peer(&mut r), Mode::Fast);
            assert_eq!(ids(&sky), sky_oracle, "grow checkpoint {cp}");
        },
    );
    run_stage(
        &mut net,
        ChurnStage::Decreasing,
        32,
        &[32, 64, 128],
        &mut rng,
        |net, cp| {
            let mut r = SmallRng::seed_from_u64(cp as u64);
            let (sky, _) = run_skyline(net, net.random_peer(&mut r), Mode::Slow);
            assert_eq!(ids(&sky), sky_oracle, "shrink checkpoint {cp}");
        },
    );
    net.check_invariants();
}

#[test]
fn broadcast_is_an_upper_bound_on_every_overlay() {
    let data = dataset(2, 200, 9);
    let mut rng = SmallRng::seed_from_u64(10);
    let score = PeakScore::new(vec![0.7, 0.3], Norm::L1);

    let mut midas = MidasNetwork::build(2, 64, false, &mut rng);
    midas.insert_all(data.clone());
    let initiator = midas.random_peer(&mut rng);
    let (_, bc) = run_topk(&midas, initiator, score.clone(), 5, Mode::Broadcast);
    assert_eq!(bc.peers_visited as usize, midas.peer_count());
    for mode in [Mode::Fast, Mode::Slow, Mode::Ripple(2)] {
        let (_, m) = run_topk(&midas, initiator, score.clone(), 5, mode);
        assert!(m.peers_visited <= bc.peers_visited, "{mode:?}");
        assert!(m.tuples_transferred <= bc.tuples_transferred, "{mode:?}");
    }
}
