//! Property-based invariants of the geometric foundations.
//!
//! `ripple-geom` is dependency-free (it sits below `ripple-net`, home of the
//! workspace RNG), so these tests drive their case generation with a local
//! splitmix64 — 128 seeded cases per property, fully deterministic.

use ripple_geom::kdspace::BitPath;
use ripple_geom::zorder::ZCurve;
use ripple_geom::{dominance, Norm, PeakScore, Point, Rect, ScoreFn, Tuple};

/// Minimal deterministic generator (splitmix64).
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Coordinate on the 1/1000 grid (matches the old proptest strategy).
    fn coord(&mut self) -> f64 {
        (self.next_u64() % 1001) as f64 / 1000.0
    }

    fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() as usize) % (hi - lo)
    }

    fn point(&mut self, dims: usize) -> Point {
        Point::new((0..dims).map(|_| self.coord()).collect::<Vec<_>>())
    }

    fn rect(&mut self, dims: usize) -> Rect {
        let a = self.point(dims);
        let b = self.point(dims);
        let lo: Vec<f64> = (0..dims).map(|d| a.coord(d).min(b.coord(d))).collect();
        let hi: Vec<f64> = (0..dims).map(|d| a.coord(d).max(b.coord(d))).collect();
        Rect::new(lo, hi)
    }

    fn bools(&mut self, max_len: usize) -> Vec<bool> {
        let len = (self.next_u64() as usize) % max_len.max(1);
        (0..len).map(|_| self.next_u64() & 1 == 1).collect()
    }
}

const CASES: u64 = 128;

/// All three norms satisfy the metric axioms on sampled triples.
#[test]
fn norms_are_metrics() {
    for seed in 0..CASES {
        let mut g = Gen::new(seed);
        let (a, b, c) = (g.point(4), g.point(4), g.point(4));
        for n in [Norm::L1, Norm::L2, Norm::Linf] {
            assert!(n.dist(&a, &b) >= 0.0);
            assert!((n.dist(&a, &b) - n.dist(&b, &a)).abs() < 1e-12);
            assert!(n.dist(&a, &a) < 1e-12);
            assert!(n.dist(&a, &c) <= n.dist(&a, &b) + n.dist(&b, &c) + 1e-9);
        }
    }
}

/// min_dist and max_dist bracket the distance to any point of the box.
#[test]
fn rect_distances_bracket() {
    for seed in 0..CASES {
        let mut g = Gen::new(1000 + seed);
        let r = g.rect(3);
        let q = g.point(3);
        let inside = r.nearest_point(&g.point(3));
        for n in [Norm::L1, Norm::L2, Norm::Linf] {
            let d = n.dist(&inside, &q);
            assert!(n.min_dist(&r, &q) <= d + 1e-9);
            assert!(n.max_dist(&r, &q) >= d - 1e-9);
        }
    }
}

/// A box with some zero-width dimensions, and a probe point whose every
/// coordinate lies inside the box, on one of its faces, or outside the
/// unit cube altogether.
fn box_and_probe(g: &mut Gen, dims: usize) -> (Rect, Point) {
    let r = g.rect(dims);
    let (lo, mut hi) = (r.lo().coords().to_vec(), r.hi().coords().to_vec());
    let mut p = Vec::with_capacity(dims);
    for d in 0..dims {
        if g.next_u64().is_multiple_of(3) {
            hi[d] = lo[d];
        }
        p.push(match g.next_u64() % 5 {
            0 => lo[d] + (hi[d] - lo[d]) * g.coord(),
            1 => lo[d],
            2 => hi[d],
            3 => -1.0 - g.coord(),
            _ => 1.0 + g.coord(),
        });
    }
    (Rect::new(lo, hi), Point::new(p))
}

/// The allocation-free `min_dist` / `max_dist` are the distances to the
/// materialised nearest / farthest box points, bit for bit, in every norm.
#[test]
fn rect_distances_match_materialised_points() {
    for seed in 0..CASES {
        let mut g = Gen::new(1500 + seed);
        let dims = g.usize_in(1, 6);
        let (r, p) = box_and_probe(&mut g, dims);
        for n in [Norm::L1, Norm::L2, Norm::Linf] {
            let near = n.dist(&r.nearest_point(&p), &p);
            let far = n.dist(&r.farthest_point(&p), &p);
            assert_eq!(n.min_dist(&r, &p).to_bits(), near.to_bits(), "{n:?}");
            assert_eq!(n.max_dist(&r, &p).to_bits(), far.to_bits(), "{n:?}");
        }
    }
}

/// A peak score's box bound is the same number whether it is asked of the
/// rect or of its raw corner slices.
#[test]
fn peak_bound_matches_corner_bound() {
    for seed in 0..CASES {
        let mut g = Gen::new(1700 + seed);
        let dims = g.usize_in(1, 6);
        let (r, peak) = box_and_probe(&mut g, dims);
        for n in [Norm::L1, Norm::L2, Norm::Linf] {
            let f = PeakScore::new(peak.clone(), n);
            let corners = f.upper_bound_corners(r.lo().coords(), r.hi().coords());
            assert_eq!(f.upper_bound(&r).to_bits(), corners.to_bits(), "{n:?}");
        }
    }
}

/// Rect intersection is commutative and contained in both operands.
#[test]
fn rect_intersection_properties() {
    for seed in 0..CASES {
        let mut g = Gen::new(2000 + seed);
        let a = g.rect(3);
        let b = g.rect(3);
        match (a.intersection(&b), b.intersection(&a)) {
            (Some(x), Some(y)) => {
                assert_eq!(x, y);
                assert!(a.contains_rect(&x));
                assert!(b.contains_rect(&x));
            }
            (None, None) => {}
            _ => panic!("intersection must be symmetric"),
        }
    }
}

/// Splitting and key-containment partition exactly.
#[test]
fn split_partitions_keys() {
    for seed in 0..CASES {
        let mut g = Gen::new(3000 + seed);
        let r = g.rect(2);
        if r.volume() == 0.0 {
            continue;
        }
        let t = g.coord();
        let dim = usize::from(t >= 0.5);
        let value = r.lo().coord(dim) + (r.hi().coord(dim) - r.lo().coord(dim)) * t;
        let (a, b) = r.split_at(dim, value);
        let keys: Vec<Point> = (0..g.usize_in(1, 20)).map(|_| g.point(2)).collect();
        for k in &keys {
            if r.contains_key(k) {
                assert!(a.contains_key(k) ^ b.contains_key(k));
            } else {
                assert!(!a.contains_key(k) && !b.contains_key(k));
            }
        }
    }
}

/// `skyline_insert` always equals a fresh skyline of the union.
#[test]
fn skyline_insert_equivalence() {
    for seed in 0..CASES {
        let mut g = Gen::new(4000 + seed);
        let base_tuples: Vec<Tuple> = (0..g.usize_in(0, 30))
            .map(|i| Tuple::new(i as u64, g.point(3)))
            .collect();
        let add_tuples: Vec<Tuple> = (0..g.usize_in(0, 10))
            .map(|i| Tuple::new(1000 + i as u64, g.point(3)))
            .collect();
        let base_sky = dominance::skyline(&base_tuples);
        let merged = dominance::skyline_insert(base_sky, &add_tuples);
        let mut union = base_tuples;
        union.extend(add_tuples);
        let direct = dominance::skyline(&union);
        assert_eq!(merged.len(), direct.len());
        for m in &merged {
            assert!(direct.iter().any(|d| d.point == m.point));
        }
    }
}

/// Dominance is a strict partial order: irreflexive, asymmetric, transitive.
#[test]
fn dominance_is_strict_partial_order() {
    for seed in 0..CASES {
        let mut g = Gen::new(5000 + seed);
        let (a, b, c) = (g.point(3), g.point(3), g.point(3));
        assert!(!dominance::dominates(&a, &a));
        if dominance::dominates(&a, &b) {
            assert!(!dominance::dominates(&b, &a));
        }
        if dominance::dominates(&a, &b) && dominance::dominates(&b, &c) {
            assert!(dominance::dominates(&a, &c));
        }
    }
}

/// Z-encoding maps every point into the rect of any cell that covers its
/// z-value.
#[test]
fn zcurve_point_in_covering_cell() {
    for seed in 0..CASES {
        let mut g = Gen::new(6000 + seed);
        let p = g.point(2);
        let curve = ZCurve::new(2, 6);
        let z = curve.encode(&p);
        let cells = curve.interval_to_cells(z, z);
        assert_eq!(cells.len(), 1);
        assert!(curve.cell_rect(&cells[0]).contains_key(&p));
    }
}

/// BitPath: prefix ordering agrees with aligned-range containment.
#[test]
fn bitpath_prefix_vs_aligned() {
    for seed in 0..CASES {
        let mut g = Gen::new(7000 + seed);
        let a = BitPath::from_bits(&g.bools(16));
        let b = BitPath::from_bits(&g.bools(16));
        let range_contains = a.aligned() <= b.aligned()
            && b.aligned() <= a.aligned() | a.aligned_suffix_mask()
            && a.len() <= b.len();
        assert_eq!(a.is_prefix_of(&b), range_contains);
    }
}

/// Zone volumes halve with depth (midpoint splits).
#[test]
fn bitpath_volume_by_depth() {
    for seed in 0..CASES {
        let mut g = Gen::new(8000 + seed);
        let p = BitPath::from_bits(&g.bools(20));
        let vol = p.rect(4).volume();
        let expect = 0.5f64.powi(p.len() as i32);
        assert!((vol - expect).abs() < 1e-12);
    }
}

/// Tuples on a coarse grid (many coordinate-sum ties and exact duplicate
/// points), ids starting at `first_id`.
fn grid_tuples(g: &mut Gen, n: usize, dims: usize, first_id: u64) -> Vec<Tuple> {
    (0..n)
        .map(|i| {
            let c: Vec<f64> = (0..dims).map(|_| (g.next_u64() % 9) as f64 / 8.0).collect();
            Tuple::new(first_id + i as u64, c)
        })
        .collect()
}

/// A base skyline and a strict-skyline addition, some of whose members sit
/// exactly on base points (under other ids).
fn skyline_pair(g: &mut Gen) -> (Vec<Tuple>, Vec<Tuple>) {
    let dims = g.usize_in(2, 5);
    let base_n = g.usize_in(0, 40);
    let add_n = g.usize_in(0, 12);
    let base = dominance::skyline(&grid_tuples(g, base_n, dims, 0));
    let mut add = grid_tuples(g, add_n, dims, 1000);
    for (i, b) in base.iter().enumerate().filter(|(i, _)| i % 3 == 0) {
        add.push(Tuple::new(2000 + i as u64, b.point.clone()));
    }
    (base, dominance::skyline(&add))
}

/// The skyline-input merges equal the general-input inserts member for
/// member and in order — across exact duplicates between base and add,
/// and coordinate-sum ties — and the flat state answers dominance probes
/// like a scan over its members.
#[test]
fn skyline_input_merges_equal_general_inserts() {
    for seed in 0..CASES {
        let mut g = Gen::new(9000 + seed);
        let (base, add) = skyline_pair(&mut g);
        let owned = dominance::skyline_insert(base.clone(), &add);
        assert_eq!(
            dominance::merge_skylines(base.clone(), add.clone()),
            owned,
            "seed {seed}"
        );

        let flat = dominance::FlatSkyline::new(&base).merged(&add);
        let borrowed = dominance::skyline_insert_ref(&base, &add);
        let ids: Vec<u64> = borrowed.iter().map(|t| t.id).collect();
        assert_eq!(flat.ids(), &ids[..], "seed {seed}");
        assert!(flat.rows().eq(borrowed.iter().map(|t| t.point.coords())));

        let dims = add.first().or(base.first()).map_or(2, Tuple::dims);
        for _ in 0..16 {
            let q = g.point(dims);
            let first = borrowed
                .iter()
                .find(|m| dominance::dominates(&m.point, &q))
                .map(|m| m.point.coords());
            assert_eq!(flat.first_dominator(q.coords()), first, "seed {seed}");
            assert_eq!(flat.dominates(q.coords()), first.is_some(), "seed {seed}");
        }
    }
}

/// The flat-window SFS skyline equals a naive definition: the
/// non-dominated tuples, one minimum-id representative per point, ordered
/// by `(coordinate sum, id)`.
#[test]
fn skyline_equals_naive_reference() {
    for seed in 0..CASES {
        let mut g = Gen::new(10_000 + seed);
        let dims = g.usize_in(1, 5);
        let n = g.usize_in(0, 60);
        let data = grid_tuples(&mut g, n, dims, 0);
        let mut naive: Vec<Tuple> = data
            .iter()
            .filter(|t| {
                data.iter().all(|o| {
                    !dominance::dominates(&o.point, &t.point)
                        && (o.point != t.point || o.id >= t.id)
                })
            })
            .cloned()
            .collect();
        let sum = |t: &Tuple| -> f64 { t.point.coords().iter().sum() };
        naive.sort_by(|a, b| sum(a).total_cmp(&sum(b)).then(a.id.cmp(&b.id)));
        assert_eq!(dominance::skyline(&data), naive, "seed {seed}");
    }
}

/// `Rect::intersection` agrees with the coordinate-wise max/min definition
/// on nested boxes (the containment shortcut), on overlapping ones, and
/// yields `None` on face contact.
#[test]
fn rect_intersection_paths_agree() {
    let general = |a: &Rect, b: &Rect| {
        let lo: Vec<f64> = (0..a.dims())
            .map(|d| a.lo().coord(d).max(b.lo().coord(d)))
            .collect();
        let hi: Vec<f64> = (0..a.dims())
            .map(|d| a.hi().coord(d).min(b.hi().coord(d)))
            .collect();
        Rect::new(lo, hi)
    };
    for seed in 0..CASES {
        let mut g = Gen::new(11_000 + seed);
        let dims = g.usize_in(1, 5);
        let a = g.rect(dims);
        let b = g.rect(dims);
        // a box nested in `a`: a random box scaled into a's extent
        let inner = Rect::new(
            (0..dims)
                .map(|d| a.lo().coord(d) + a.side(d) * b.lo().coord(d))
                .collect::<Vec<_>>(),
            (0..dims)
                .map(|d| a.lo().coord(d) + a.side(d) * b.hi().coord(d))
                .collect::<Vec<_>>(),
        );
        for (x, y) in [(&a, &b), (&a, &inner), (&inner, &a), (&a, &a)] {
            let expect = x.intersects(y).then(|| general(x, y));
            assert_eq!(x.intersection(y), expect, "seed {seed}");
        }
        // face contact: b shifted to start where a ends on one dimension
        let d = g.usize_in(0, dims);
        let mut lo = a.lo().coords().to_vec();
        let mut hi = a.hi().coords().to_vec();
        lo[d] = a.hi().coord(d);
        hi[d] = a.hi().coord(d) + 0.5;
        let touching = Rect::new(lo, hi);
        assert_eq!(a.intersection(&touching), None, "seed {seed}");
        assert_eq!(touching.intersection(&a), None, "seed {seed}");
    }
}
