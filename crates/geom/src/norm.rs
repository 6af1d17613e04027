//! Distance functions over the domain.
//!
//! The diversification query (Section 6) is parameterised by user-defined
//! distances `d_r` (relevance) and `d_v` (diversity); the paper's MIRFLICKR
//! experiments use the L1 norm. We additionally support L2 and L∞.
//!
//! Besides point-to-point distances, query pruning needs the *minimum* and
//! *maximum* possible distance between a point and any point of a rectangle
//! (used by `d⁻` in Algorithm 15 and by the `φ⁻` bound of Algorithm 20).

use crate::point::Point;
use crate::rect::Rect;

/// A Minkowski-style distance norm.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Norm {
    /// Manhattan distance (the paper's choice for MIRFLICKR).
    #[default]
    L1,
    /// Euclidean distance.
    L2,
    /// Chebyshev distance.
    Linf,
}

impl Norm {
    /// The norm of a difference vector given coordinate by coordinate: the
    /// one accumulation every distance below shares, so two of them agree
    /// bit for bit whenever their differences do.
    fn of_diffs(&self, diffs: impl Iterator<Item = f64>) -> f64 {
        match self {
            Norm::L1 => diffs.map(f64::abs).sum(),
            Norm::L2 => diffs.map(|x| x.powi(2)).sum::<f64>().sqrt(),
            Norm::Linf => diffs.map(f64::abs).fold(0.0, f64::max),
        }
    }

    /// Distance between two points.
    pub fn dist(&self, a: &Point, b: &Point) -> f64 {
        debug_assert_eq!(a.dims(), b.dims());
        let (a, b) = (a.coords(), b.coords());
        self.of_diffs(a.iter().zip(b).map(|(x, y)| x - y))
    }

    /// Minimum distance from the point with coordinates `p` to the box with
    /// corners `lo` and `hi`: the distance to the coordinate-wise clamp of
    /// `p` (`Rect::nearest_point`), computed without building that point.
    /// Bit for bit `dist(&r.nearest_point(p), p)`.
    pub fn min_dist_corners(
        &self,
        lo: &[f64],
        hi: &[f64],
        p: impl IntoIterator<Item = f64>,
    ) -> f64 {
        debug_assert_eq!(lo.len(), hi.len());
        let box_dims = lo.iter().zip(hi);
        self.of_diffs(box_dims.zip(p).map(|((&l, &h), c)| c.clamp(l, h) - c))
    }

    /// Minimum distance from `p` to any point of `r` (0 if `p ∈ r`).
    pub fn min_dist(&self, r: &Rect, p: &Point) -> f64 {
        debug_assert_eq!(r.dims(), p.dims());
        let (lo, hi) = (r.lo().coords(), r.hi().coords());
        self.min_dist_corners(lo, hi, p.coords().iter().copied())
    }

    /// Maximum distance from `p` to any point of `r`: the distance to the
    /// coordinate-wise farthest end (`Rect::farthest_point`), computed
    /// without building that point. Bit for bit
    /// `dist(&r.farthest_point(p), p)`.
    pub fn max_dist(&self, r: &Rect, p: &Point) -> f64 {
        debug_assert_eq!(r.dims(), p.dims());
        let (lo, hi) = (r.lo().coords(), r.hi().coords());
        let box_dims = lo.iter().zip(hi);
        self.of_diffs(box_dims.zip(p.coords()).map(|((&l, &h), &c)| {
            let far = if (c - l).abs() >= (c - h).abs() { l } else { h };
            far - c
        }))
    }

    /// Diameter of the whole unit cube under this norm — a safe "infinite"
    /// distance bound for `dims`-dimensional data.
    pub fn unit_diameter(&self, dims: usize) -> f64 {
        self.dist(&Point::origin(dims), &Point::splat(dims, 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(c: &[f64]) -> Point {
        Point::new(c.to_vec())
    }

    #[test]
    fn point_distances() {
        let a = p(&[0.0, 0.0]);
        let b = p(&[0.3, 0.4]);
        assert!((Norm::L1.dist(&a, &b) - 0.7).abs() < 1e-12);
        assert!((Norm::L2.dist(&a, &b) - 0.5).abs() < 1e-12);
        assert!((Norm::Linf.dist(&a, &b) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn distances_are_symmetric() {
        let a = p(&[0.1, 0.9, 0.5]);
        let b = p(&[0.7, 0.2, 0.4]);
        for n in [Norm::L1, Norm::L2, Norm::Linf] {
            assert_eq!(n.dist(&a, &b), n.dist(&b, &a));
            assert_eq!(n.dist(&a, &a), 0.0);
        }
    }

    #[test]
    fn rect_min_max_dist() {
        let r = Rect::new(vec![0.2, 0.2], vec![0.4, 0.4]);
        let q = p(&[0.0, 0.3]);
        assert!((Norm::L2.min_dist(&r, &q) - 0.2).abs() < 1e-12);
        // farthest corner from q is (0.4, 0.2): dist = sqrt(0.16+0.01)
        assert!((Norm::L2.max_dist(&r, &q) - (0.17f64).sqrt()).abs() < 1e-12);
        // a point inside has zero min distance
        assert_eq!(Norm::L1.min_dist(&r, &p(&[0.3, 0.3])), 0.0);
    }

    #[test]
    fn min_le_max_everywhere() {
        let r = Rect::new(vec![0.1, 0.5, 0.0], vec![0.3, 0.9, 0.2]);
        for q in [
            p(&[0.0, 0.0, 0.0]),
            p(&[0.2, 0.7, 0.1]),
            p(&[1.0, 1.0, 1.0]),
        ] {
            for n in [Norm::L1, Norm::L2, Norm::Linf] {
                assert!(n.min_dist(&r, &q) <= n.max_dist(&r, &q) + 1e-12);
            }
        }
    }

    #[test]
    fn unit_diameter() {
        assert_eq!(Norm::L1.unit_diameter(5), 5.0);
        assert!((Norm::L2.unit_diameter(4) - 2.0).abs() < 1e-12);
        assert_eq!(Norm::Linf.unit_diameter(9), 1.0);
    }
}
