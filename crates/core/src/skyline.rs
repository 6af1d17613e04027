//! Skyline queries over RIPPLE (Section 5, Algorithms 10–15).
//!
//! The abstract query is empty; the abstract state is a *partial skyline* —
//! a set of tuples none of which dominates another. A link region is pruned
//! as soon as some state tuple dominates the entire region (its best
//! corner), and `slow`/`ripple` prioritise regions closer to the origin,
//! where skyline tuples live.

use crate::exec::Executor;
use crate::framework::{Mode, QueryOutcome, RankQuery, RippleOverlay};
use ripple_geom::{dominance, kernels, FlatSkyline, KernelDispatch, Norm, Point, Rect, Tuple};
use ripple_net::{scan, LocalView, PeerId, PeerStore, QueryMetrics};
use ripple_verify::{Certificate, PruneWitness};
use std::sync::Arc;

/// A skyline query (lower values better on every dimension), optionally
/// restricted to a *constraint* box — the query DSL was designed around
/// (Section 2.2: processing anchors at the region containing the
/// constraint's lower-left corner).
#[derive(Clone, Debug, Default)]
pub struct SkylineQuery {
    /// When set, only tuples inside this box participate.
    pub constraint: Option<Rect>,
}

impl SkylineQuery {
    /// The unconstrained skyline query.
    pub fn new() -> Self {
        Self { constraint: None }
    }

    /// A skyline query over the tuples inside `constraint`.
    pub fn constrained(constraint: Rect) -> Self {
        Self {
            constraint: Some(constraint),
        }
    }

    /// The constrained local state over the store's columnar mirror.
    ///
    /// A three-pass sort-filter-skyline over the columnar blocks: collect
    /// the constraint-qualifying rows (by index — no clones), sort them by
    /// the canonical `(coordinate sum, id)` key, run the insert-only SFS
    /// loop of [`dominance::skyline`] over references, and only then thin
    /// by the global state, cloning nothing but the survivors.
    ///
    /// This equals the scalar `skyline(Q)` thinned by the global state,
    /// member for member and in the same canonical order. Blocks are
    /// skipped wholesale when they are disjoint from the constraint (no row
    /// qualifies) or when a global tuple dominates the lower corner (it
    /// dominates every row in the block): a corner-dominated block cannot
    /// change the thinned result, because any `skyline(Q)` member it holds
    /// is thinned at the end anyway, and any tuple such a member shielded
    /// from the skyline is — by transitivity through that member — also
    /// globally dominated, so its spurious survival is thinned too. Exact
    /// duplicates are dominated together, so min-id representatives agree,
    /// and both sides emit in ascending `(sum, id)` order.
    fn blocked_constrained_state(
        &self,
        store: &PeerStore,
        dispatch: KernelDispatch,
        c: &Rect,
        global: &FlatSkyline,
    ) -> Vec<Tuple> {
        let blocks = store.blocks_at(dispatch);
        let (clo, chi) = (c.lo().coords(), c.hi().coords());
        let mut cols: Vec<&[f64]> = Vec::new();
        let mut idx: Vec<u32> = Vec::new();
        let mut cand: Vec<(f64, &Tuple)> = Vec::new();
        for b in 0..blocks.num_blocks() {
            let blo = blocks.block_min(b);
            let bhi = blocks.block_max(b);
            let disjoint = (0..blocks.dims()).any(|d| blo[d] > chi[d] || bhi[d] < clo[d]);
            if disjoint || kernels::dominated_by_any(dispatch, global.rows(), blo) {
                scan::add_pruned(1);
                continue;
            }
            blocks.block_cols(b, &mut cols);
            scan::add_scanned(blocks.block_live(b) as u64);
            scan::add_masked((blocks.block_rows(b) - blocks.block_live(b)) as u64);
            if blocks.is_memtable(b) {
                scan::add_memtable(blocks.block_live(b) as u64);
            }
            kernels::filter_in_box(dispatch, clo, chi, &cols, &mut idx);
            let rows = blocks.block_tuples(b);
            let dead = blocks.block_dead(b);
            for &off in &idx {
                if dead.is_some_and(|d| d[off as usize]) {
                    continue;
                }
                // Left-fold coordinate sum in dimension order — bit-identical
                // to the canonical key of `dominance::skyline`.
                let mut s = 0.0;
                for col in &cols {
                    s += col[off as usize];
                }
                cand.push((s, &rows[off as usize]));
            }
        }
        cand.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.id.cmp(&b.1.id)));
        dominance::skyline_sorted(cand.into_iter().map(|(_, t)| t))
            .into_iter()
            .filter(|t| !kernels::dominated_by_any(dispatch, global.rows(), t.point.coords()))
            .cloned()
            .collect()
    }
}

impl RankQuery<Rect> for SkylineQuery {
    /// A partial skyline, shared: forwarding it to many links, or passing
    /// it on unchanged, is a reference-count bump.
    type Global = Arc<FlatSkyline>;
    /// The local tuples that survive the partial skyline, plus any remote
    /// states folded in by `slow`/`ripple`.
    ///
    /// Every `Local` and `Global` value is a skyline with no two members at
    /// the same point: [`compute_local_state`](RankQuery::compute_local_state)
    /// returns a subset of one, and both merges keep the property. The
    /// merges rely on it to skip the SFS pass over their input.
    type Local = Vec<Tuple>;

    fn initial_global(&self) -> Arc<FlatSkyline> {
        Arc::default()
    }

    /// Algorithm 10: local skyline (of the constraint-qualifying tuples),
    /// thinned by the received global state.
    ///
    /// On an indexed view the unconstrained local skyline is read in place
    /// from the store's incrementally-maintained cache (identical set and
    /// order to a recompute), cloning only the members that survive the
    /// thinning; constrained queries over a blocked view run the columnar
    /// fold of [`Self::blocked_constrained_state`]; otherwise they filter
    /// and scan.
    fn compute_local_state(&self, view: &LocalView<'_>, global: &Arc<FlatSkyline>) -> Vec<Tuple> {
        let survives = |t: &&Tuple| !global.dominates(t.point.coords());
        match (view.store(), &self.constraint) {
            // Already thinned by the global state (see the method docs).
            (Some((store, dispatch)), Some(c)) => {
                self.blocked_constrained_state(store, dispatch, c, global)
            }
            (Some((store, dispatch)), None) => store.with_skyline_at(dispatch, |members| {
                members.filter(survives).cloned().collect()
            }),
            (None, _) => {
                scan::add_scanned(view.tuples().len() as u64);
                let inside = |t: &&Tuple| {
                    self.constraint
                        .as_ref()
                        .is_none_or(|c| c.contains(&t.point))
                };
                dominance::skyline_refs(view.tuples().iter().filter(inside))
                    .into_iter()
                    .filter(survives)
                    .cloned()
                    .collect()
            }
        }
    }

    /// Algorithm 11: skyline of the union. Both inputs are duplicate-free
    /// skylines, so the merge needs only the canonical sort of `local`, and
    /// an empty `local` hands `global` on by reference.
    fn compute_global_state(
        &self,
        global: &Arc<FlatSkyline>,
        local: &Vec<Tuple>,
    ) -> Arc<FlatSkyline> {
        if local.is_empty() {
            return Arc::clone(global);
        }
        Arc::new(global.merged(local))
    }

    /// Algorithm 13: skyline of the union of the states, folded
    /// incrementally without an SFS pass (every input is a duplicate-free
    /// skyline).
    fn update_local_state(&self, states: Vec<Vec<Tuple>>) -> Vec<Tuple> {
        let mut it = states.into_iter();
        let first = it.next().unwrap_or_default();
        it.fold(first, dominance::merge_skylines)
    }

    /// Algorithm 12: the local tuples among the state. Indexed views answer
    /// the membership test from the store's cached id set.
    fn compute_local_answer(&self, view: &LocalView<'_>, local: &Vec<Tuple>) -> Vec<Tuple> {
        if let Some((store, _)) = view.store() {
            return local
                .iter()
                .filter(|s| store.contains_id(s.id))
                .cloned()
                .collect();
        }
        local
            .iter()
            .filter(|s| view.tuples().iter().any(|t| t.id == s.id))
            .cloned()
            .collect()
    }

    /// Algorithm 14: prune regions dominated in their entirety, plus — for
    /// constrained queries — regions disjoint from the constraint box.
    fn is_link_relevant(&self, region: &Rect, global: &Arc<FlatSkyline>) -> bool {
        if let Some(c) = &self.constraint {
            if !c.intersects(region) {
                return false;
            }
        }
        !global.dominates(region.lo().coords())
    }

    /// Algorithm 15: regions closer to the origin first (`d⁻`).
    fn priority(&self, region: &Rect) -> f64 {
        let origin = std::iter::repeat(0.0);
        -Norm::L2.min_dist_corners(region.lo().coords(), region.hi().coords(), origin)
    }

    /// Skyline states ship their member tuples.
    fn state_payload(&self, local: &Vec<Tuple>) -> usize {
        local.len()
    }

    /// Why Algorithm 14 pruned the region: constraint disjointness, or the
    /// first partial-skyline tuple dominating the whole region. The checker
    /// re-tests the domination geometrically and requires the witness point
    /// to be supported by the final skyline (equal to a member or dominated
    /// by one — dominance chains always end in the skyline).
    fn prune_witness(&self, region: &Rect, global: &Arc<FlatSkyline>) -> PruneWitness {
        if let Some(c) = &self.constraint {
            if !c.intersects(region) {
                return PruneWitness::Disjoint;
            }
        }
        global
            .first_dominator(region.lo().coords())
            .map(|row| PruneWitness::Dominator {
                point: Point::from(row),
            })
            .unwrap_or(PruneWitness::Opaque)
    }
}

/// Runs a skyline query and merges the received answers into the global
/// skyline at the initiator.
pub fn run_skyline<O>(net: &O, initiator: PeerId, mode: Mode) -> (Vec<Tuple>, QueryMetrics)
where
    O: RippleOverlay<Region = Rect>,
{
    run_skyline_query(net, initiator, SkylineQuery::new(), mode)
}

/// Runs a (possibly constrained) skyline query.
pub fn run_skyline_query<O>(
    net: &O,
    initiator: PeerId,
    query: SkylineQuery,
    mode: Mode,
) -> (Vec<Tuple>, QueryMetrics)
where
    O: RippleOverlay<Region = Rect>,
{
    let (sky, metrics, _) = run_skyline_query_with(&Executor::new(net), initiator, query, mode);
    (sky, metrics)
}

/// Runs a (possibly constrained) skyline query through a pre-configured
/// executor — typically a fault-aware one ([`Executor::with_faults`]) —
/// additionally returning the coverage report. With a default executor this
/// is exactly [`run_skyline_query`].
pub fn run_skyline_query_with<O>(
    exec: &Executor<'_, O>,
    initiator: PeerId,
    query: SkylineQuery,
    mode: Mode,
) -> (Vec<Tuple>, QueryMetrics, crate::framework::Coverage)
where
    O: RippleOverlay<Region = Rect>,
{
    let (sky, metrics, coverage, _) = run_skyline_certified(exec, initiator, query, mode);
    (sky, metrics, coverage)
}

/// [`run_skyline_query_with`], additionally returning the answer
/// certificate (when the executor emits them), so the caller can hand
/// skyline + certificate to `ripple-verify`'s `verify_skyline` as an
/// independent second oracle.
pub fn run_skyline_certified<O>(
    exec: &Executor<'_, O>,
    initiator: PeerId,
    query: SkylineQuery,
    mode: Mode,
) -> (
    Vec<Tuple>,
    QueryMetrics,
    crate::framework::Coverage,
    Option<Certificate>,
)
where
    O: RippleOverlay<Region = Rect>,
{
    let QueryOutcome {
        answers,
        metrics,
        coverage,
        certificate,
        ..
    } = exec.run(initiator, &query, mode);
    let mut sky = dominance::skyline(&answers);
    sky.sort_by_key(|t| t.id);
    (sky, metrics, coverage, certificate)
}

/// [`run_skyline_certified`] on the parallel intra-query executor: the same
/// initiator-side dominance thinning around [`Executor::run_parallel`], so
/// the outcome is bit-identical to the sequential runner's for any thread
/// count (the serving layer's N drivers × M workers composition relies on
/// this).
pub fn run_skyline_certified_par<O>(
    exec: &Executor<'_, O>,
    initiator: PeerId,
    query: SkylineQuery,
    mode: Mode,
    threads: usize,
) -> (
    Vec<Tuple>,
    QueryMetrics,
    crate::framework::Coverage,
    Option<Certificate>,
)
where
    O: RippleOverlay<Region = Rect> + Sync,
{
    let QueryOutcome {
        answers,
        metrics,
        coverage,
        certificate,
        ..
    } = exec.run_parallel(initiator, &query, mode, threads);
    let mut sky = dominance::skyline(&answers);
    sky.sort_by_key(|t| t.id);
    (sky, metrics, coverage, certificate)
}

/// Reference answer: centralized skyline, sorted by id (test oracle).
pub fn centralized_skyline(tuples: &[Tuple]) -> Vec<Tuple> {
    let mut sky = dominance::skyline(tuples);
    sky.sort_by_key(|t| t.id);
    sky
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(id: u64, c: &[f64]) -> Tuple {
        Tuple::new(id, c.to_vec())
    }

    fn g(members: Vec<Tuple>) -> Arc<FlatSkyline> {
        Arc::new(FlatSkyline::new(&members))
    }

    #[test]
    fn local_state_is_thinned_by_global() {
        let q = SkylineQuery::new();
        let tuples = vec![t(1, &[0.5, 0.5]), t(2, &[0.9, 0.9])];
        let global = g(vec![t(10, &[0.4, 0.4])]); // dominates both
        let s = q.compute_local_state(&LocalView::Plain(&tuples), &global);
        assert!(s.is_empty(), "dominated local tuples must not survive");
        let s2 = q.compute_local_state(&LocalView::Plain(&tuples), &g(Vec::new()));
        assert_eq!(s2.len(), 1);
        assert_eq!(s2[0].id, 1);
    }

    #[test]
    fn global_state_merges() {
        let q = SkylineQuery::new();
        let global = g(vec![t(1, &[0.1, 0.9])]);
        // a local state is itself a skyline; 3 is dominated by global 1
        let l = vec![t(2, &[0.9, 0.1]), t(3, &[0.15, 0.95])];
        let merged = q.compute_global_state(&global, &l);
        let mut ids: Vec<u64> = merged.ids().to_vec();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn link_pruning_by_domination() {
        let q = SkylineQuery::new();
        let global = g(vec![t(1, &[0.2, 0.2])]);
        let dominated = Rect::new(vec![0.5, 0.5], vec![0.9, 0.9]);
        let alive = Rect::new(vec![0.0, 0.5], vec![0.5, 1.0]);
        assert!(!q.is_link_relevant(&dominated, &global));
        assert!(q.is_link_relevant(&alive, &global));
        assert!(
            q.is_link_relevant(&dominated, &g(Vec::new())),
            "empty state prunes nothing"
        );
    }

    #[test]
    fn priority_prefers_origin() {
        let q = SkylineQuery::new();
        let near = Rect::new(vec![0.0, 0.0], vec![0.5, 0.5]);
        let far = Rect::new(vec![0.5, 0.5], vec![1.0, 1.0]);
        assert!(q.priority(&near) > q.priority(&far));
    }

    #[test]
    fn local_answer_keeps_only_local_tuples() {
        let q = SkylineQuery::new();
        let tuples = vec![t(1, &[0.5, 0.5])];
        let state = vec![t(1, &[0.5, 0.5]), t(9, &[0.1, 0.9])];
        let a = q.compute_local_answer(&LocalView::Plain(&tuples), &state);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].id, 1);
    }

    #[test]
    fn state_payload_counts_tuples() {
        let q = SkylineQuery::new();
        assert_eq!(
            q.state_payload(&vec![t(1, &[0.1, 0.1]), t(2, &[0.2, 0.05])]),
            2
        );
    }
}
