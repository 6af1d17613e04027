//! Property-style tests (seeded deterministic case loops) for the core
//! invariants the distributed algorithms rest on.

use ripple::core::framework::Mode;
use ripple::core::skyline::{centralized_skyline, run_skyline};
use ripple::core::topk::{centralized_topk, run_topk};
use ripple::geom::kdspace::BitPath;
use ripple::geom::zorder::ZCurve;
use ripple::geom::{
    dominance, DiversityQuery, LinearScore, Norm, PeakScore, Point, Rect, ScoreFn, Tuple,
};
use ripple::midas::MidasNetwork;
use ripple_net::rng::rngs::SmallRng;
use ripple_net::rng::{Rng, SeedableRng};
use ripple_net::Substrate;

/// Coordinate on the 1/1000 grid (mirrors the historical proptest strategy).
fn coord(rng: &mut SmallRng) -> f64 {
    rng.gen_range(0..1001u32) as f64 / 1000.0
}

fn point(rng: &mut SmallRng, dims: usize) -> Point {
    Point::new((0..dims).map(|_| coord(rng)).collect::<Vec<_>>())
}

fn tuples(rng: &mut SmallRng, dims: usize, max: usize) -> Vec<Tuple> {
    let n = rng.gen_range(1..max);
    (0..n)
        .map(|i| Tuple::new(i as u64, point(rng, dims)))
        .collect()
}

const CASES: u64 = 64;

/// `f⁺` really is an upper bound over any region for both score types.
#[test]
fn score_upper_bounds_hold() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let p = point(&mut rng, 3);
        let (lo, hi) = (point(&mut rng, 3), point(&mut rng, 3));
        let peak = point(&mut rng, 3);
        let r = Rect::new(
            (0..3)
                .map(|d| lo.coord(d).min(hi.coord(d)))
                .collect::<Vec<_>>(),
            (0..3)
                .map(|d| lo.coord(d).max(hi.coord(d)))
                .collect::<Vec<_>>(),
        );
        let inside = r.nearest_point(&p);
        let linear = LinearScore::new(vec![0.5, 1.0, 2.0]);
        assert!(linear.upper_bound(&r) >= linear.score(&inside) - 1e-9);
        let peaked = PeakScore::new(peak, Norm::L2);
        assert!(peaked.upper_bound(&r) >= peaked.score(&inside) - 1e-9);
    }
}

/// Skyline identities: no member dominated; every non-member dominated or
/// duplicated; idempotent.
#[test]
fn skyline_identities() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(100 + seed);
        let data = tuples(&mut rng, 3, 60);
        let sky = dominance::skyline(&data);
        for s in &sky {
            assert!(!data
                .iter()
                .any(|t| dominance::dominates(&t.point, &s.point)));
        }
        for t in &data {
            if sky.iter().any(|s| s.id == t.id) {
                continue;
            }
            assert!(sky
                .iter()
                .any(|s| dominance::dominates(&s.point, &t.point) || s.point == t.point));
        }
        let again = dominance::skyline(&sky);
        assert_eq!(again.len(), sky.len());
    }
}

/// φ equals the objective delta, and φ⁻ lower-bounds φ over a region.
#[test]
fn diversification_bounds() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(200 + seed);
        let data = tuples(&mut rng, 2, 20);
        let q = point(&mut rng, 2);
        let cand = point(&mut rng, 2);
        let lambda = coord(&mut rng);
        let div = DiversityQuery::new(q, lambda, Norm::L1);
        let set: Vec<Tuple> = data.iter().take(5).cloned().collect();
        // φ = Δf
        let mut bigger = set.clone();
        bigger.push(Tuple::new(9999, cand.clone()));
        let delta = div.objective(&bigger) - div.objective(&set);
        assert!((div.phi(&cand, &set) - delta).abs() < 1e-9);
        // φ⁻ sound on a region containing the candidate
        let r = Rect::new(
            (0..2)
                .map(|d| (cand.coord(d) - 0.1).max(0.0))
                .collect::<Vec<_>>(),
            (0..2)
                .map(|d| (cand.coord(d) + 0.1).min(1.0))
                .collect::<Vec<_>>(),
        );
        let stats = div.stats(&set);
        assert!(div.phi_lower(&r, &set, stats) <= div.phi(&cand, &set) + 1e-9);
    }
}

/// Z-curve: cell decompositions tile their interval exactly.
#[test]
fn zcurve_decomposition_tiles() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(300 + seed);
        let lo = rng.gen_range(0..256u128);
        let len = rng.gen_range(0..256u128);
        let curve = ZCurve::new(2, 4); // key space [0, 256)
        let hi = (lo + len).min(255);
        let lo = lo.min(hi);
        let cells = curve.interval_to_cells(lo, hi);
        let mut next = lo;
        for c in &cells {
            let (clo, chi) = curve.cell_range(c);
            assert_eq!(clo, next);
            next = chi + 1;
        }
        assert_eq!(next, hi + 1);
    }
}

/// BitPath geometry: sibling-subtree boxes plus the leaf box always
/// partition the unit cube (midpoint splits).
#[test]
fn bitpath_partition() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(400 + seed);
        let len = rng.gen_range(0..12usize);
        let bits: Vec<bool> = (0..len).map(|_| rng.gen::<bool>()).collect();
        let p = BitPath::from_bits(&bits);
        let dims = 3;
        let mut vol = p.rect(dims).volume();
        for i in 1..=p.len() {
            vol += p.sibling_at(i).rect(dims).volume();
        }
        assert!((vol - 1.0).abs() < 1e-9);
    }
}

/// End-to-end: distributed top-k and skyline equal their oracles on
/// arbitrary data and overlay sizes.
#[test]
fn distributed_equals_centralized() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(500 + seed);
        let data = tuples(&mut rng, 2, 80);
        let peers = rng.gen_range(2..40usize);
        let peak = point(&mut rng, 2);
        let mut net = MidasNetwork::build(2, peers, seed % 2 == 0, &mut rng);
        net.insert_all(data.clone());
        let initiator = net.random_peer(&mut rng);

        let score = PeakScore::new(peak, Norm::L1);
        let k = 1 + (seed as usize % 7);
        let (top, _) = run_topk(
            &net,
            initiator,
            score.clone(),
            k,
            Mode::Ripple((seed % 4) as u32),
        );
        let oracle = centralized_topk(&data, &score, k);
        let top_scores: Vec<i64> = top
            .iter()
            .map(|t| (score.score(&t.point) * 1e9) as i64)
            .collect();
        let oracle_scores: Vec<i64> = oracle
            .iter()
            .map(|t| (score.score(&t.point) * 1e9) as i64)
            .collect();
        assert_eq!(top_scores, oracle_scores);

        let (sky, _) = run_skyline(&net, initiator, Mode::Fast);
        let mut sky_ids: Vec<u64> = sky.iter().map(|t| t.id).collect();
        sky_ids.sort_unstable();
        let mut want: Vec<u64> = centralized_skyline(&data).iter().map(|t| t.id).collect();
        want.sort_unstable();
        assert_eq!(sky_ids, want);
    }
}

/// Churn never loses tuples and keeps zones a partition.
#[test]
fn churn_preserves_structure() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(600 + seed);
        let ops: Vec<bool> = {
            let n = rng.gen_range(1..60usize);
            (0..n).map(|_| rng.gen::<bool>()).collect()
        };
        let mut net = MidasNetwork::build(2, 8, false, &mut rng);
        for i in 0..50u64 {
            net.insert_tuple(Tuple::new(i, vec![rng.gen::<f64>(), rng.gen::<f64>()]));
        }
        for &grow in &ops {
            if grow {
                net.join_random(&mut rng);
            } else if net.peer_count() > 1 {
                let victim = net.random_peer(&mut rng);
                net.leave(victim);
            }
        }
        net.check_invariants();
        let total: usize = net
            .live_peers()
            .iter()
            .map(|&p| net.peer(p).store.len())
            .sum();
        assert_eq!(total, 50);
    }
}
