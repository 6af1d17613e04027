//! Pareto dominance and centralized skyline computation.
//!
//! Section 5: a tuple `t` dominates `t'` (`t ≺ t'` with lower-is-better
//! convention, written `t ⪰ t'` in the paper) if `t` is no worse on every
//! dimension and strictly better on at least one. The skyline is the set of
//! non-dominated tuples.
//!
//! These operators run *inside* peers (local skylines, state merges) and at
//! the query initiator, so they are heavily exercised; `skyline` uses a
//! sort-by-sum sweep so that most dominance tests hit early-exit.

use crate::point::{Point, Tuple, TupleId};
use crate::rect::Rect;
use std::borrow::Borrow;

/// True if `a` dominates `b`: `a` is ≤ on all dimensions and < on at least
/// one. Lower values are better (the paper's convention).
pub fn dominates(a: &Point, b: &Point) -> bool {
    dominates_coords(a.coords(), b.coords())
}

/// [`dominates`] over raw coordinate slices (rows of a flat buffer).
#[inline]
pub(crate) fn dominates_coords(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut strictly = false;
    for (x, y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        if x < y {
            strictly = true;
        }
    }
    strictly
}

/// True if `a` dominates *or equals* `b` (≤ on every dimension): the test
/// that keeps `b` out of a skyline already holding `a`, since a skyline
/// keeps one representative per point. Coordinates are finite, so "≤
/// everywhere" is exactly "dominates, or equal on every dimension".
#[inline]
fn covers(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y)
}

/// True if `s` dominates *every possible tuple* inside `region`
/// (Algorithm 14's pruning test). Since lower is better, the hardest point
/// to dominate is the region's lower corner.
pub fn dominates_rect(s: &Point, region: &Rect) -> bool {
    dominates(s, region.lo())
}

/// Computes the skyline (maximal set under Pareto dominance) of `tuples`.
///
/// Sorting by coordinate sum first guarantees that a tuple can only be
/// dominated by one that precedes it in the scan, so a single forward pass
/// over a growing window suffices (the classic SFS algorithm).
pub fn skyline(tuples: &[Tuple]) -> Vec<Tuple> {
    skyline_refs(tuples).into_iter().cloned().collect()
}

/// [`skyline`] over borrowed tuples, returning references in the same
/// order: callers that go on to thin the result clone only what they keep.
pub fn skyline_refs<'t>(tuples: impl IntoIterator<Item = &'t Tuple>) -> Vec<&'t Tuple> {
    skyline_sorted(canonical_keys(tuples).into_iter().map(|(_, t)| t))
}

/// `tuples` keyed by coordinate sum and stably sorted into the canonical
/// skyline order: ascending `(coordinate sum, id)`, the sum a left fold in
/// dimension order. The keys are computed once — O(n·d) sums plus an
/// O(n log n) sort over ready-made keys, instead of recomputing both sums
/// inside every comparator call. Equal keys keep input order.
fn canonical_keys<T: Borrow<Tuple>>(tuples: impl IntoIterator<Item = T>) -> Vec<(f64, T)> {
    let mut keyed: Vec<(f64, T)> = tuples
        .into_iter()
        .map(|t| (coord_sum(t.borrow().point.coords()), t))
        .collect();
    keyed.sort_by(|a, b| {
        a.0.total_cmp(&b.0)
            .then_with(|| a.1.borrow().id.cmp(&b.1.borrow().id))
    });
    keyed
}

/// The SFS pass of [`skyline`] over tuples already in canonical order (see
/// [`skyline`]): keeps each tuple no kept one dominates or equals, so exact
/// duplicates keep their first — minimum-id — representative. The window
/// is a flat row-major coordinate buffer, so each test walks contiguous
/// memory instead of chasing one pointer per member. Returns references;
/// callers clone only what they keep.
pub fn skyline_sorted<'t>(sorted: impl IntoIterator<Item = &'t Tuple>) -> Vec<&'t Tuple> {
    let mut window: Vec<f64> = Vec::new();
    let mut sky = Vec::new();
    for t in sorted {
        let c = t.point.coords();
        if !window.chunks_exact(c.len()).any(|s| covers(s, c)) {
            window.extend_from_slice(c);
            sky.push(t);
        }
    }
    sky
}

/// Canonical insertion position of `(sum, id)` in a skyline slice sorted by
/// ascending `(coordinate sum, id)` — the order [`skyline`] produces.
fn canonical_pos(members: &[(f64, Tuple)], sum: f64, id: u64) -> usize {
    members.partition_point(|(ms, m)| ms.total_cmp(&sum).then_with(|| m.id.cmp(&id)).is_lt())
}

/// Folds one tuple (with its coordinate sum precomputed by the caller —
/// e.g. a whole block at a time via [`crate::kernels::coord_sums`]) into a
/// canonical `(sum, tuple)` skyline, preserving exactly the set, order and
/// duplicate representatives a full [`skyline`] recompute would produce.
/// Folding any tuple sequence from an empty vector *is* the recompute;
/// incremental maintainers (the peer store) and blocked scans share this
/// one implementation.
pub fn skyline_fold(members: &mut Vec<(f64, Tuple)>, t: &Tuple, sum: f64) {
    // Only members with a smaller coordinate sum can dominate `t`, and only
    // members with an equal sum can equal it point-wise; the canonical order
    // lets the scan stop early.
    let mut i = 0;
    while i < members.len() && members[i].0 <= sum {
        let m = &members[i].1;
        if dominates(&m.point, &t.point) {
            return;
        }
        if m.point == t.point {
            if t.id < m.id {
                // A full recompute keeps the min-id representative of an
                // exact duplicate; replace and reposition within the
                // equal-sum block.
                members.remove(i);
                let pos = canonical_pos(members, sum, t.id);
                members.insert(pos, (sum, t.clone()));
            }
            return;
        }
        i += 1;
    }
    // `t` enters the skyline: evict members it dominates (all have a larger
    // sum, so they sit at or after `i`) and insert at the canonical spot.
    members.retain(|(ms, m)| *ms <= sum || !dominates(&t.point, &m.point));
    let pos = canonical_pos(members, sum, t.id);
    members.insert(pos, (sum, t.clone()));
}

/// Merges several partial skylines into the skyline of their union
/// (Algorithms 11 and 13 both reduce to this operation).
pub fn skyline_merge<I>(parts: I) -> Vec<Tuple>
where
    I: IntoIterator,
    I::Item: IntoIterator<Item = Tuple>,
{
    let all: Vec<Tuple> = parts.into_iter().flatten().collect();
    skyline(&all)
}

/// Computes the skyline of the tuples falling inside `constraint` — the
/// *constrained* skyline query DSL was designed for (Section 2.2: the
/// query anchors at "the region containing the lower-left corner of the
/// constraint").
pub fn constrained_skyline(tuples: &[Tuple], constraint: &Rect) -> Vec<Tuple> {
    let inside: Vec<Tuple> = tuples
        .iter()
        .filter(|t| constraint.contains(&t.point))
        .cloned()
        .collect();
    skyline(&inside)
}

/// Folds the tuples of `add` into the skyline `base` (which must already be
/// a skyline — no member dominating another).
///
/// Equivalent to `skyline(base ∪ add)` but `O(|base|·|add| + |add|²)`
/// instead of re-deriving from scratch — the shape the per-peer state
/// merges of distributed processing need, where `base` is a large
/// accumulated skyline and `add` a small local one.
pub fn skyline_insert(mut base: Vec<Tuple>, add: &[Tuple]) -> Vec<Tuple> {
    if add.is_empty() {
        return base;
    }
    // thin the additions against each other first
    let add_sky = skyline(add);
    // drop base members dominated by an addition (in place — no realloc)
    base.retain(|b| !add_sky.iter().any(|a| dominates(&a.point, &b.point)));
    // keep additions not dominated by (nor duplicating) the surviving base
    for a in add_sky {
        if !base
            .iter()
            .any(|b| dominates(&b.point, &a.point) || b.point == a.point)
        {
            base.push(a);
        }
    }
    base
}

/// [`skyline_insert`] over a *borrowed* base: builds the merged skyline
/// directly, cloning only the surviving members (a reference-count bump per
/// tuple). This is the shape `computeGlobalState` needs — the caller must
/// keep its global state, so an owned `skyline_insert` would force a full
/// clone of `base` up front even though some members are then discarded.
pub fn skyline_insert_ref(base: &[Tuple], add: &[Tuple]) -> Vec<Tuple> {
    if add.is_empty() {
        return base.to_vec();
    }
    let add_sky = skyline(add);
    let mut out: Vec<Tuple> = base
        .iter()
        .filter(|b| !add_sky.iter().any(|a| dominates(&a.point, &b.point)))
        .cloned()
        .collect();
    for a in add_sky {
        if !out
            .iter()
            .any(|b| dominates(&b.point, &a.point) || b.point == a.point)
        {
            out.push(a);
        }
    }
    out
}

/// Coordinate sum in dimension order — the canonical sort key.
fn coord_sum(c: &[f64]) -> f64 {
    c.iter().sum()
}

/// Points held flat for dominance scans: one row `[sum, c₀, …, c_{d−1}]`
/// per point (the coordinate sum first, then the coordinates), plus the
/// per-dimension minimum over all rows.
#[derive(Clone, Debug, Default)]
struct Rows {
    data: Vec<f64>,
    lo: Vec<f64>,
}

impl Rows {
    fn with_capacity(rows: usize, dims: usize) -> Self {
        Self {
            data: Vec::with_capacity(rows * (dims + 1)),
            lo: Vec::with_capacity(dims),
        }
    }

    fn len(&self) -> usize {
        self.data.len() / (self.lo.len() + 1)
    }

    fn push(&mut self, sum: f64, c: &[f64]) {
        if self.data.is_empty() {
            self.lo.clear();
            self.lo.extend_from_slice(c);
        } else {
            debug_assert_eq!(self.lo.len(), c.len());
            for (l, x) in self.lo.iter_mut().zip(c) {
                *l = l.min(*x);
            }
        }
        self.data.push(sum);
        self.data.extend_from_slice(c);
    }

    /// `(sum, coordinates)` of each row, in order.
    fn iter(&self) -> impl Iterator<Item = (f64, &[f64])> + '_ {
        self.data
            .chunks_exact(self.lo.len() + 1)
            .map(|r| (r[0], &r[1..]))
    }

    /// True if `test(row, c)` holds for one of the first `n` rows, where
    /// `test` implies the row is ≤ `c` on every dimension (dominance, or
    /// dominance-or-equality) and `sum` is the sum of `c`. A point below
    /// the rows' minimum on some dimension passes no such test, and only
    /// rows with a sum at most `sum` can pass (fp left-fold sums are
    /// monotone), so both bounds skip the coordinate comparisons.
    fn any_below(&self, n: usize, c: &[f64], sum: f64, test: fn(&[f64], &[f64]) -> bool) -> bool {
        if c.iter().zip(&self.lo).any(|(x, l)| x < l) {
            return false;
        }
        self.iter().take(n).any(|(s, row)| s <= sum && test(row, c))
    }

    /// True if no row dominates or equals another.
    fn is_strict_skyline(&self) -> bool {
        let rows: Vec<&[f64]> = self.iter().map(|(_, r)| r).collect();
        rows.iter()
            .enumerate()
            .all(|(i, a)| rows[i + 1..].iter().all(|b| !covers(a, b) && !covers(b, a)))
    }
}

/// [`canonical_keys`] of `members`, plus their [`Rows`] in that order. The
/// members must form a strict skyline (checked in debug builds).
fn canonical_rows<T: Borrow<Tuple>>(members: impl IntoIterator<Item = T>) -> (Vec<(f64, T)>, Rows) {
    let keyed = canonical_keys(members);
    let dims = keyed.first().map_or(0, |(_, t)| t.borrow().dims());
    let mut rows = Rows::with_capacity(keyed.len(), dims);
    for (sum, t) in &keyed {
        rows.push(*sum, t.borrow().point.coords());
    }
    debug_assert!(
        rows.is_strict_skyline(),
        "merge input is not a strict skyline"
    );
    (keyed, rows)
}

/// [`skyline_insert`] for an `add` that is itself a skyline with no two
/// members at the same point (as is `base`).
///
/// On such an input the SFS pass of [`skyline_insert`] removes nothing and
/// only sorts, so this skips the quadratic pass and keeps the canonical
/// sort: the result equals [`skyline_insert`] member for member and in
/// order — `base` survivors in `base` order, then the admitted additions in
/// canonical `(sum, id)` order. Both dominance phases scan flat rows, and
/// admitted additions are moved, not cloned.
pub fn merge_skylines(mut base: Vec<Tuple>, add: Vec<Tuple>) -> Vec<Tuple> {
    if add.is_empty() {
        return base;
    }
    let (add, adds) = canonical_rows(add);
    let mut kept = Rows::with_capacity(base.len(), adds.lo.len());
    base.retain(|b| {
        let c = b.point.coords();
        let sum = coord_sum(c);
        let survives = !adds.any_below(add.len(), c, sum, dominates_coords);
        if survives {
            kept.push(sum, c);
        }
        survives
    });
    // Additions never cover one another, so testing the base survivors
    // alone is the same as testing the growing result.
    for ((sum, a), (_, row)) in add.into_iter().zip(adds.iter()) {
        if !kept.any_below(kept.len(), row, sum, covers) {
            base.push(a);
        }
    }
    base
}

/// An immutable partial skyline held flat: member ids, and one row of
/// coordinate sum plus coordinates per member, in state order. Dominance
/// scans walk one contiguous buffer, and building or dropping a state
/// touches no shared tuple storage.
///
/// No member dominates or equals another (checked in debug builds), which
/// lets [`merged`](FlatSkyline::merged) skip the SFS pass.
#[derive(Clone, Debug, Default)]
pub struct FlatSkyline {
    ids: Vec<TupleId>,
    rows: Rows,
}

impl FlatSkyline {
    /// The partial skyline of `members`, kept in the given order.
    ///
    /// # Panics
    /// In debug builds, if a member dominates or equals another.
    pub fn new(members: &[Tuple]) -> Self {
        let mut out = Self::default();
        for m in members {
            let c = m.point.coords();
            out.ids.push(m.id);
            out.rows.push(coord_sum(c), c);
        }
        debug_assert!(out.rows.is_strict_skyline(), "not a strict skyline");
        out
    }

    /// The member ids, in state order.
    pub fn ids(&self) -> &[TupleId] {
        &self.ids
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    /// The members' coordinates, one row per member in state order.
    pub fn rows(&self) -> impl Iterator<Item = &[f64]> + '_ {
        self.rows.iter().map(|(_, row)| row)
    }

    /// True if some member dominates the point `q`.
    pub fn dominates(&self, q: &[f64]) -> bool {
        self.rows
            .any_below(self.len(), q, coord_sum(q), dominates_coords)
    }

    /// The coordinates of the first member, in state order, that dominates
    /// the point `q`.
    pub fn first_dominator(&self, q: &[f64]) -> Option<&[f64]> {
        self.rows().find(|m| dominates_coords(m, q))
    }

    /// [`skyline_insert_ref`] of this state and `add`, where `add` is a
    /// skyline with no two members at the same point: the same members in
    /// the same order (survivors in state order, then the admitted
    /// additions in canonical order), without the SFS pass over `add`.
    pub fn merged(&self, add: &[Tuple]) -> Self {
        if add.is_empty() {
            return self.clone();
        }
        let (add, adds) = canonical_rows(add);
        let mut out = Self {
            ids: Vec::with_capacity(self.len() + add.len()),
            rows: Rows::with_capacity(self.len() + add.len(), adds.lo.len()),
        };
        for (&id, (sum, row)) in self.ids.iter().zip(self.rows.iter()) {
            if !adds.any_below(add.len(), row, sum, dominates_coords) {
                out.ids.push(id);
                out.rows.push(sum, row);
            }
        }
        // Additions never cover one another: test the survivors only.
        let kept = out.len();
        for ((sum, a), (_, row)) in add.into_iter().zip(adds.iter()) {
            if !out.rows.any_below(kept, row, sum, covers) {
                out.ids.push(a.id);
                out.rows.push(sum, row);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(id: u64, c: &[f64]) -> Tuple {
        Tuple::new(id, c.to_vec())
    }

    #[test]
    fn dominance_basics() {
        let a = Point::new(vec![0.1, 0.1]);
        let b = Point::new(vec![0.2, 0.2]);
        let c = Point::new(vec![0.05, 0.3]);
        assert!(dominates(&a, &b));
        assert!(!dominates(&b, &a));
        assert!(!dominates(&a, &c) && !dominates(&c, &a), "incomparable");
        assert!(!dominates(&a, &a), "no self-domination");
    }

    #[test]
    fn dominance_requires_strict_improvement() {
        let a = Point::new(vec![0.5, 0.5]);
        let b = Point::new(vec![0.5, 0.5]);
        assert!(!dominates(&a, &b));
        let c = Point::new(vec![0.5, 0.4]);
        assert!(dominates(&c, &a));
    }

    #[test]
    fn rect_domination_uses_best_corner() {
        let s = Point::new(vec![0.1, 0.1]);
        let dominated = Rect::new(vec![0.2, 0.2], vec![0.9, 0.9]);
        let safe = Rect::new(vec![0.0, 0.2], vec![0.9, 0.9]);
        assert!(dominates_rect(&s, &dominated));
        assert!(!dominates_rect(&s, &safe));
    }

    #[test]
    fn skyline_simple() {
        let data = vec![
            t(1, &[0.1, 0.9]),
            t(2, &[0.9, 0.1]),
            t(3, &[0.5, 0.5]),
            t(4, &[0.6, 0.6]),  // dominated by 3
            t(5, &[0.1, 0.95]), // dominated by 1
        ];
        let sky = skyline(&data);
        let mut ids: Vec<u64> = sky.iter().map(|t| t.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn skyline_no_dominated_members_and_complete() {
        // brute-force cross-check on a fixed grid of points
        let mut data = Vec::new();
        let mut id = 0;
        for i in 0..6 {
            for j in 0..6 {
                data.push(t(id, &[i as f64 / 5.0, ((j * 7) % 6) as f64 / 5.0]));
                id += 1;
            }
        }
        let sky = skyline(&data);
        // no member dominated by any data point
        for s in &sky {
            for d in &data {
                assert!(!dominates(&d.point, &s.point));
            }
        }
        // every non-member is dominated or a duplicate of a member
        for d in &data {
            if sky.iter().any(|s| s.id == d.id) {
                continue;
            }
            assert!(
                sky.iter()
                    .any(|s| dominates(&s.point, &d.point) || s.point == d.point),
                "{d:?} unaccounted for"
            );
        }
    }

    #[test]
    fn skyline_dedups_equal_points() {
        let data = vec![t(1, &[0.3, 0.3]), t(2, &[0.3, 0.3])];
        assert_eq!(skyline(&data).len(), 1);
    }

    #[test]
    fn merge_equals_skyline_of_union() {
        let a = vec![t(1, &[0.1, 0.9]), t(2, &[0.8, 0.8])];
        let b = vec![t(3, &[0.2, 0.2]), t(4, &[0.9, 0.05])];
        let merged = skyline_merge([a.clone(), b.clone()]);
        let mut union = a;
        union.extend(b);
        let direct = skyline(&union);
        let mut m: Vec<u64> = merged.iter().map(|t| t.id).collect();
        let mut d: Vec<u64> = direct.iter().map(|t| t.id).collect();
        m.sort_unstable();
        d.sort_unstable();
        assert_eq!(m, d);
        assert_eq!(m, vec![1, 3, 4]);
    }

    #[test]
    fn skyline_of_empty_is_empty() {
        assert!(skyline(&[]).is_empty());
    }

    /// Regression for the precomputed-key sort: the output order must equal
    /// the historical implementation that recomputed coordinate sums inside
    /// the comparator, including sum ties broken by id and duplicate points.
    #[test]
    fn skyline_order_matches_comparator_recompute_reference() {
        fn reference(tuples: &[Tuple]) -> Vec<Tuple> {
            let mut order: Vec<&Tuple> = tuples.iter().collect();
            order.sort_by(|a, b| {
                let sa: f64 = a.point.coords().iter().sum();
                let sb: f64 = b.point.coords().iter().sum();
                sa.total_cmp(&sb).then_with(|| a.id.cmp(&b.id))
            });
            let mut sky: Vec<Tuple> = Vec::new();
            'outer: for t in order {
                for s in &sky {
                    if dominates(&s.point, &t.point) || s.point == t.point {
                        continue 'outer;
                    }
                }
                sky.push(t.clone());
            }
            sky
        }
        let mut state: u64 = 0x5DEECE66D;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 16) as f64 / 16.0 // coarse grid: many ties
        };
        let mut data: Vec<Tuple> = (0..300)
            .map(|i| Tuple::new(i, vec![next(), next(), next()]))
            .collect();
        // exact duplicates and sum-ties across distinct points
        data.push(Tuple::new(900, data[0].point.coords().to_vec()));
        data.push(Tuple::new(901, vec![0.0, 0.5, 0.25]));
        data.push(Tuple::new(902, vec![0.5, 0.0, 0.25]));
        let fast = skyline(&data);
        let slow = reference(&data);
        assert_eq!(fast, slow, "same members, same order, same representatives");
    }

    /// Folding every tuple of a sequence into an empty canonical skyline is
    /// the recompute — same members, order and duplicate representatives —
    /// regardless of the fold order of the input (store order here).
    #[test]
    fn fold_from_empty_equals_recompute() {
        let mut state: u64 = 0x2545F4914F6CDD1D;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) % 12) as f64 / 12.0 // coarse grid: ties + dups
        };
        let mut data: Vec<Tuple> = (0..250)
            .map(|i| Tuple::new(i, vec![next(), next(), next()]))
            .collect();
        data.push(Tuple::new(990, data[3].point.coords().to_vec()));
        data.insert(0, Tuple::new(991, data[7].point.coords().to_vec()));
        let mut folded: Vec<(f64, Tuple)> = Vec::new();
        for t in &data {
            let sum: f64 = t.point.coords().iter().sum();
            skyline_fold(&mut folded, t, sum);
        }
        let folded: Vec<Tuple> = folded.into_iter().map(|(_, t)| t).collect();
        assert_eq!(folded, skyline(&data));
    }

    #[test]
    fn constrained_skyline_restricts_first() {
        let data = vec![
            t(1, &[0.1, 0.1]), // global skyline, outside constraint
            t(2, &[0.5, 0.5]),
            t(3, &[0.6, 0.7]), // dominated by 2 inside the constraint
        ];
        let c = Rect::new(vec![0.4, 0.4], vec![1.0, 1.0]);
        let sky = constrained_skyline(&data, &c);
        assert_eq!(sky.len(), 1);
        assert_eq!(sky[0].id, 2);
        // empty constraint region
        let empty = constrained_skyline(&data, &Rect::new(vec![0.2, 0.2], vec![0.3, 0.3]));
        assert!(empty.is_empty());
    }

    #[test]
    fn insert_ref_matches_owned_insert() {
        let base = skyline(&[t(1, &[0.1, 0.9]), t(2, &[0.9, 0.1]), t(3, &[0.5, 0.5])]);
        for add in [
            vec![],
            vec![t(10, &[0.05, 0.05])],
            vec![t(12, &[0.3, 0.6]), t(13, &[0.6, 0.3])],
        ] {
            assert_eq!(
                skyline_insert_ref(&base, &add),
                skyline_insert(base.clone(), &add)
            );
        }
    }

    #[test]
    fn insert_equals_full_recompute() {
        let base_data = vec![t(1, &[0.1, 0.9]), t(2, &[0.9, 0.1]), t(3, &[0.5, 0.5])];
        let base = skyline(&base_data);
        for add in [
            vec![],
            vec![t(10, &[0.05, 0.05])], // dominates everything
            vec![t(11, &[0.6, 0.6])],   // dominated
            vec![t(12, &[0.3, 0.6]), t(13, &[0.6, 0.3])], // mixed
            vec![t(14, &[0.5, 0.5])],   // duplicate point
        ] {
            let merged = skyline_insert(base.clone(), &add);
            let mut union = base_data.clone();
            union.extend(add.clone());
            let direct = skyline(&union);
            let mut a: Vec<u64> = merged.iter().map(|t| t.id).collect();
            let mut b: Vec<u64> = direct.iter().map(|t| t.id).collect();
            a.sort_unstable();
            b.sort_unstable();
            // ids may differ on exact duplicates; compare point sets instead
            assert_eq!(merged.len(), direct.len(), "add = {add:?}");
            for m in &merged {
                assert!(direct.iter().any(|d| d.point == m.point));
            }
        }
    }
}
