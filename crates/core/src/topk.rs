//! Top-k over RIPPLE (Section 4, Algorithms 4–9).
//!
//! The query is `(f, k)` for a unimodal scoring function `f` (higher is
//! better). The abstract state is the pair `(m, τ)`: "`m` tuples with score
//! at or above `τ` have already been retrieved". Pruning uses the region
//! upper bound `f⁺`: a link is irrelevant once `k` tuples are known and its
//! region cannot beat the current threshold.

use crate::exec::Executor;
use crate::framework::{Coverage, Mode, QueryOutcome, RankQuery, RippleOverlay};
use ripple_geom::{kernels, KernelDispatch, Rect, ScoreFn, Tuple, TupleId};
use ripple_net::{scan, LocalView, PeerId, PeerStore, QueryMetrics};
use ripple_verify::{Certificate, PruneWitness};

/// The `(m, τ)` state of top-k processing. Invariant: at least `m` tuples
/// with score `≥ τ` exist among the tuples examined so far.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TopKState {
    /// Number of qualifying tuples known.
    pub m: usize,
    /// Score threshold those tuples meet.
    pub tau: f64,
}

impl TopKState {
    /// The neutral state: zero tuples vacuously at threshold +∞. The
    /// threshold must start *high* because states merge by `min(τ_G, τ_L)`
    /// (Algorithm 5) — a low initial value would poison every later merge
    /// and disable pruning. While `m < k`, `isLinkRelevant` keeps all links
    /// alive regardless of the threshold.
    pub fn empty() -> Self {
        Self {
            m: 0,
            tau: f64::INFINITY,
        }
    }
}

/// A top-k query over rectangle regions.
pub struct TopKQuery<F> {
    /// The scoring function (provides `f` and `f⁺`).
    pub score: F,
    /// Number of results requested.
    pub k: usize,
}

impl<F: ScoreFn> TopKQuery<F> {
    /// Creates a top-k query.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(score: F, k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        Self { score, k }
    }

    /// Scores of the peer's tuples, best first.
    fn ranked<'t>(&self, tuples: &'t [Tuple]) -> Vec<(&'t Tuple, f64)> {
        let mut scored: Vec<(&Tuple, f64)> = tuples
            .iter()
            .map(|t| (t, self.score.score(&t.point)))
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        scored
    }

    /// Algorithm 4 on an already-ranked score stream, in one pass: count
    /// the scores at or above `τ_G`; while the global count falls short of
    /// `k`, keep walking to position `min(k − m_G, total)`. The threshold
    /// is the last score walked.
    ///
    /// At most the best `k` scores are ever inspected, so a lazy iterator
    /// from a cached projection makes this a truncated walk instead of a
    /// full sort.
    fn state_from_ranked(
        &self,
        scores_desc: impl Iterator<Item = f64>,
        total: usize,
        global: &TopKState,
    ) -> TopKState {
        let mut scores = scores_desc.take(self.k);
        let mut above = 0;
        let mut last = f64::INFINITY;
        let mut below = None;
        for s in scores.by_ref() {
            if s >= global.tau {
                above += 1;
                last = s;
            } else {
                below = Some(s);
                break;
            }
        }
        let m = if global.m + above < self.k {
            (self.k - global.m).min(total)
        } else {
            above
        };
        if m == 0 {
            // No local contribution: an infinitely high threshold over zero
            // tuples keeps `min(τ_G, τ_L)` and the local answer neutral.
            return TopKState::empty();
        }
        if m > above {
            let mut walked = above;
            for s in below.into_iter().chain(scores).take(m - above) {
                last = s;
                walked += 1;
            }
            debug_assert_eq!(walked, m, "the ranked stream holds min(k, total) scores");
        }
        TopKState { m, tau: last }
    }

    /// Algorithm 4 over the store's columnar mirror: score whole blocks
    /// through the [`ScoreFn::score_block`] kernel, keep the best `k` scores
    /// in a bounded heap, and skip any block whose region bound `f⁺` (over
    /// the block's bounding box) falls strictly below the current `k`-th
    /// best score. The heap minimum only ever rises, so a skipped block's
    /// scores all sit strictly below the *final* `k`-th value and cannot
    /// change the top-`k` score multiset — the resulting `(m, τ)` state is
    /// bit-identical to the scalar sort's.
    fn blocked_state(
        &self,
        store: &PeerStore,
        dispatch: KernelDispatch,
        global: &TopKState,
    ) -> TopKState {
        let blocks = store.blocks_at(dispatch);
        let mut heap = kernels::TopScores::new(self.k);
        let mut cols: Vec<&[f64]> = Vec::new();
        let mut scores: Vec<f64> = Vec::new();
        for b in 0..blocks.num_blocks() {
            if let Some(min) = heap.min() {
                let ub = self
                    .score
                    .upper_bound_corners(blocks.block_min(b), blocks.block_max(b));
                if ub < min {
                    scan::add_pruned(1);
                    continue;
                }
            }
            blocks.block_cols(b, &mut cols);
            self.score.score_block(&cols, &mut scores, dispatch);
            scan::add_scanned(blocks.block_live(b) as u64);
            scan::add_masked((blocks.block_rows(b) - blocks.block_live(b)) as u64);
            if blocks.is_memtable(b) {
                scan::add_memtable(blocks.block_live(b) as u64);
            }
            // The kernel scores every physical row (whole-column SIMD);
            // tombstoned rows are dropped at the offer, exactly like the
            // scalar path never sees them.
            match blocks.block_dead(b) {
                None => heap.offer_all(&scores),
                Some(dead) => {
                    for (off, &s) in scores.iter().enumerate() {
                        if !dead[off] {
                            heap.offer(s);
                        }
                    }
                }
            }
        }
        self.state_from_ranked(heap.into_sorted_desc().into_iter(), store.len(), global)
    }

    /// Algorithm 6 over the columnar mirror: a per-block threshold filter
    /// via [`kernels::filter_at_least`], skipping blocks whose upper bound
    /// falls strictly below `τ` — every row there scores `≤ f⁺ < τ` and
    /// would fail the scalar filter too. Rows are emitted in ascending
    /// store order, so the answer matches the scalar scan element for
    /// element.
    fn blocked_answer(
        &self,
        store: &PeerStore,
        dispatch: KernelDispatch,
        local: &TopKState,
    ) -> Vec<Tuple> {
        let blocks = store.blocks_at(dispatch);
        let mut cols: Vec<&[f64]> = Vec::new();
        let mut scores: Vec<f64> = Vec::new();
        let mut idx: Vec<u32> = Vec::new();
        let mut answer = Vec::new();
        for b in 0..blocks.num_blocks() {
            let ub = self
                .score
                .upper_bound_corners(blocks.block_min(b), blocks.block_max(b));
            if ub < local.tau {
                scan::add_pruned(1);
                continue;
            }
            blocks.block_cols(b, &mut cols);
            self.score.score_block(&cols, &mut scores, dispatch);
            scan::add_scanned(blocks.block_live(b) as u64);
            scan::add_masked((blocks.block_rows(b) - blocks.block_live(b)) as u64);
            if blocks.is_memtable(b) {
                scan::add_memtable(blocks.block_live(b) as u64);
            }
            idx.clear();
            kernels::filter_at_least(dispatch, &scores, local.tau, &mut idx);
            let rows = blocks.block_tuples(b);
            let dead = blocks.block_dead(b);
            answer.extend(
                idx.iter()
                    .filter(|&&i| !dead.is_some_and(|d| d[i as usize]))
                    .map(|&i| rows[i as usize].clone()),
            );
        }
        answer
    }
}

impl<F: ScoreFn> RankQuery<Rect> for TopKQuery<F> {
    type Global = TopKState;
    type Local = TopKState;

    fn initial_global(&self) -> TopKState {
        TopKState::empty()
    }

    /// Algorithm 4: take up to `k` local tuples at or above the global
    /// threshold; if the global count still falls short of `k`, top up with
    /// the best remaining local tuples.
    ///
    /// On an indexed view with a cacheable score this is a truncated walk
    /// over the peer's memoised score projection; with a non-cacheable
    /// score it runs the blocked kernel scan over the store's columnar
    /// mirror; otherwise a scalar scan + sort.
    fn compute_local_state(&self, view: &LocalView<'_>, global: &TopKState) -> TopKState {
        if let Some((store, dispatch)) = view.store() {
            return store
                .with_ranked(&self.score, |it| {
                    self.state_from_ranked(it.map(|(_, s)| s), store.len(), global)
                })
                .unwrap_or_else(|| self.blocked_state(store, dispatch, global));
        }
        let ranked = self.ranked(view.tuples());
        scan::add_scanned(ranked.len() as u64);
        self.state_from_ranked(ranked.iter().map(|(_, s)| *s), ranked.len(), global)
    }

    /// Algorithm 5, strengthened with the Algorithm 7 merge.
    ///
    /// The paper prints `(m_G + m_L, min(τ_G, τ_L))`. The plain `min` keeps
    /// the invariant but makes the threshold *monotonically non-improving*
    /// along a forwarding path: a peer that locally finds `k` excellent
    /// tuples cannot raise `τ` above an ancestor's poor threshold, so
    /// `isLinkRelevant` (Alg. 8) never gains pruning power and `fast`
    /// degenerates to a broadcast. Merging the two states with the
    /// `updateLocalState` rule instead (sort by threshold, accumulate counts
    /// until `k` — Alg. 7) is sound for the same reason Alg. 7 is: the
    /// global and local states describe disjoint tuple sets, and "`m_1`
    /// tuples ≥ τ_1 plus `m_2` tuples ≥ τ_2 ≥ τ_1" supports the threshold
    /// `τ_1` with `m_1 + m_2` tuples. This is strictly tighter than the
    /// printed `min` and is what gives the paper's Figure 4–6 behaviour.
    fn compute_global_state(&self, global: &TopKState, local: &TopKState) -> TopKState {
        RankQuery::<Rect>::update_local_state(self, vec![*global, *local])
    }

    /// Algorithm 7: find the highest threshold guaranteeing `k` tuples.
    fn update_local_state(&self, mut states: Vec<TopKState>) -> TopKState {
        states.sort_by(|a, b| b.tau.total_cmp(&a.tau));
        let mut m = 0;
        let mut tau = f64::INFINITY;
        for s in &states {
            if s.m == 0 {
                continue;
            }
            m += s.m;
            tau = s.tau;
            if m >= self.k {
                break;
            }
        }
        if m == 0 {
            return TopKState {
                m: 0,
                tau: f64::INFINITY,
            };
        }
        TopKState { m, tau }
    }

    /// Algorithm 6: every local tuple at or above the local threshold.
    ///
    /// Indexed path: walk the cached projection best-first and stop at the
    /// first score below `τ` — same tuple set as the scan, different order
    /// (the initiator re-sorts, and metrics count only lengths).
    fn compute_local_answer(&self, view: &LocalView<'_>, local: &TopKState) -> Vec<Tuple> {
        if local.m == 0 {
            return Vec::new();
        }
        if let Some((store, dispatch)) = view.store() {
            return store
                .with_ranked(&self.score, |it| {
                    it.take_while(|(_, s)| *s >= local.tau)
                        .map(|(t, _)| t.clone())
                        .collect()
                })
                .unwrap_or_else(|| self.blocked_answer(store, dispatch, local));
        }
        scan::add_scanned(view.tuples().len() as u64);
        view.tuples()
            .iter()
            .filter(|t| self.score.score(&t.point) >= local.tau)
            .cloned()
            .collect()
    }

    /// Algorithm 8: relevant while short of `k` or the region can beat `τ`.
    fn is_link_relevant(&self, region: &Rect, global: &TopKState) -> bool {
        global.m < self.k || self.score.upper_bound(region) >= global.tau
    }

    /// Algorithm 9: regions with higher `f⁺` first.
    fn priority(&self, region: &Rect) -> f64 {
        self.score.upper_bound(region)
    }

    /// The pruned region's `f⁺`: the certificate checker recomputes it from
    /// the region boxes and requires it below the final `τ` (Alg. 8 run in
    /// reverse).
    fn prune_witness(&self, region: &Rect, _global: &TopKState) -> PruneWitness {
        PruneWitness::ScoreBound {
            bound: self.score.upper_bound(region),
        }
    }
}

/// Top-k over *multi-segment* regions (e.g. ring arcs that wrap the origin,
/// represented as up to two disjoint intervals). A segmented region is
/// relevant if any of its segments is, and its priority is the best segment
/// bound — this is what lets the same [`TopKQuery`] run unchanged over
/// Chord, demonstrating the framework's substrate-genericity (Section 3.1).
impl<F: ScoreFn> RankQuery<Vec<Rect>> for TopKQuery<F> {
    type Global = TopKState;
    type Local = TopKState;

    fn initial_global(&self) -> TopKState {
        RankQuery::<Rect>::initial_global(self)
    }

    fn compute_local_state(&self, view: &LocalView<'_>, global: &TopKState) -> TopKState {
        RankQuery::<Rect>::compute_local_state(self, view, global)
    }

    fn compute_global_state(&self, global: &TopKState, local: &TopKState) -> TopKState {
        RankQuery::<Rect>::compute_global_state(self, global, local)
    }

    fn update_local_state(&self, states: Vec<TopKState>) -> TopKState {
        RankQuery::<Rect>::update_local_state(self, states)
    }

    fn compute_local_answer(&self, view: &LocalView<'_>, local: &TopKState) -> Vec<Tuple> {
        RankQuery::<Rect>::compute_local_answer(self, view, local)
    }

    fn is_link_relevant(&self, region: &Vec<Rect>, global: &TopKState) -> bool {
        region
            .iter()
            .any(|seg| RankQuery::<Rect>::is_link_relevant(self, seg, global))
    }

    fn priority(&self, region: &Vec<Rect>) -> f64 {
        region
            .iter()
            .map(|seg| self.score.upper_bound(seg))
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The best `f⁺` over the segments — the same maximum the checker
    /// recomputes from the certificate's segment boxes.
    fn prune_witness(&self, region: &Vec<Rect>, _global: &TopKState) -> PruneWitness {
        PruneWitness::ScoreBound {
            bound: region
                .iter()
                .map(|seg| self.score.upper_bound(seg))
                .fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// Runs a top-k query and extracts the final answer at the initiator: the
/// `k` best received tuples, best first.
///
/// When the score is unimodal with a known peak and the substrate supports
/// point lookups, the query is first *routed to the peer owning the peak*
/// (an ordinary DHT lookup, charged to the metrics), and processing ripples
/// outward from there. Starting at the most promising peer is what lets the
/// very first local state carry a tight threshold — without it, the
/// initiator's arbitrary local tuples anchor the threshold and `fast`
/// degenerates toward a broadcast.
pub fn run_topk<O, F>(
    net: &O,
    initiator: PeerId,
    score: F,
    k: usize,
    mode: Mode,
) -> (Vec<Tuple>, QueryMetrics)
where
    O: RippleOverlay,
    F: ScoreFn,
    TopKQuery<F>: RankQuery<O::Region>,
{
    let (answers, metrics, _) = run_topk_with(&Executor::new(net), initiator, score, k, mode);
    (answers, metrics)
}

/// Runs a top-k query through a pre-configured executor — typically a
/// fault-aware one ([`Executor::with_faults`]) — additionally returning the
/// coverage report, so degraded answers are never mistaken for complete
/// ones. With a default executor this is exactly [`run_topk`].
pub fn run_topk_with<O, F>(
    exec: &Executor<'_, O>,
    initiator: PeerId,
    score: F,
    k: usize,
    mode: Mode,
) -> (Vec<Tuple>, QueryMetrics, Coverage)
where
    O: RippleOverlay,
    F: ScoreFn,
    TopKQuery<F>: RankQuery<O::Region>,
{
    let (answers, metrics, coverage, _) = run_topk_certified(exec, initiator, score, k, mode);
    (answers, metrics, coverage)
}

/// [`run_topk_with`], additionally returning the answer certificate (when
/// the executor emits them — see [`Executor::without_certificates`]), so the
/// caller can hand answer + certificate to `ripple-verify`'s `verify_topk`
/// as an independent second oracle.
pub fn run_topk_certified<O, F>(
    exec: &Executor<'_, O>,
    initiator: PeerId,
    score: F,
    k: usize,
    mode: Mode,
) -> (Vec<Tuple>, QueryMetrics, Coverage, Option<Certificate>)
where
    O: RippleOverlay,
    F: ScoreFn,
    TopKQuery<F>: RankQuery<O::Region>,
{
    let query = TopKQuery::new(score, k);
    let (start, route_hops) = route_to_peak(exec.network(), initiator, &query.score, mode);
    let outcome = exec.run(start, &query, mode);
    finish_topk(&query, outcome, route_hops)
}

/// [`run_topk_certified`] on the parallel intra-query executor: identical
/// routing and initiator post-processing around [`Executor::run_parallel`],
/// so the outcome — answers, ledger, coverage, certificate — is
/// bit-identical to the sequential runner's for any thread count (the
/// serving layer's N drivers × M workers composition relies on this).
pub fn run_topk_certified_par<O, F>(
    exec: &Executor<'_, O>,
    initiator: PeerId,
    score: F,
    k: usize,
    mode: Mode,
    threads: usize,
) -> (Vec<Tuple>, QueryMetrics, Coverage, Option<Certificate>)
where
    O: RippleOverlay + Sync,
    O::Region: Send,
    F: ScoreFn,
    TopKQuery<F>: RankQuery<O::Region> + Sync,
    <TopKQuery<F> as RankQuery<O::Region>>::Global: Send + Sync,
    <TopKQuery<F> as RankQuery<O::Region>>::Local: Send,
{
    let query = TopKQuery::new(score, k);
    let (start, route_hops) = route_to_peak(exec.network(), initiator, &query.score, mode);
    let outcome = exec.run_parallel(start, &query, mode, threads);
    finish_topk(&query, outcome, route_hops)
}

/// Resolves the processing start peer: for a unimodal score on a routable
/// substrate the query first travels to the peak owner (an ordinary DHT
/// lookup); broadcasts and peakless scores start at the initiator.
fn route_to_peak<O: RippleOverlay, F: ScoreFn>(
    net: &O,
    initiator: PeerId,
    score: &F,
    mode: Mode,
) -> (PeerId, u32) {
    match score
        .peak_point()
        .and_then(|p| net.route_lookup(initiator, &p))
    {
        Some((owner, hops)) if mode != Mode::Broadcast => (owner, hops),
        _ => (initiator, 0),
    }
}

/// Initiator-side post-processing shared by the sequential and parallel
/// runners: charge the routing transit, then rank the answer stream and
/// keep its best `k` distinct tuples.
///
/// The answer equals a stable sort of the stream on (score descending, id
/// ascending), removal of consecutive tuples with equal ids, and
/// truncation to `k` — [`centralized_topk`]'s order plus duplicate
/// removal — but each tuple is scored once and only the best `k` are
/// sorted.
pub fn finish_topk<F: ScoreFn, L>(
    query: &TopKQuery<F>,
    outcome: QueryOutcome<L>,
    route_hops: u32,
) -> (Vec<Tuple>, QueryMetrics, Coverage, Option<Certificate>) {
    let QueryOutcome {
        answers,
        mut metrics,
        coverage,
        certificate,
        ..
    } = outcome;
    // Routing transit forwards the lookup but does not process the query:
    // hops count as messages and latency, not as peer visits.
    metrics.latency += route_hops as u64;
    metrics.query_messages += route_hops as u64;
    let answers = best_distinct(&query.score, answers, query.k);
    (answers, metrics, coverage, certificate)
}

/// The best `k` tuples of an answer stream, consecutive equal ids removed
/// (see [`finish_topk`]).
///
/// Each tuple becomes one `(score, id, arrival index)` key; the index
/// makes the order total, so an unstable selection and sort reproduce the
/// stable sort exactly. When the sorted best `k` hold no two adjacent equal
/// ids, removal keeps all of them and they are the answer. Otherwise — a
/// replica re-answer, say — removal may pull later keys forward, so the
/// rest is sorted too.
fn best_distinct<F: ScoreFn>(score: &F, answers: Vec<Tuple>, k: usize) -> Vec<Tuple> {
    let mut keys: Vec<(f64, TupleId, usize)> = answers
        .iter()
        .enumerate()
        .map(|(i, t)| (score.score(&t.point), t.id, i))
        .collect();
    let order = |a: &(f64, TupleId, usize), b: &(f64, TupleId, usize)| {
        b.0.total_cmp(&a.0)
            .then_with(|| a.1.cmp(&b.1))
            .then_with(|| a.2.cmp(&b.2))
    };
    if keys.len() > k {
        keys.select_nth_unstable_by(k - 1, order);
        keys[..k].sort_unstable_by(order);
        if keys[..k].windows(2).any(|w| w[0].1 == w[1].1) {
            // The best `k` already precede every other key.
            keys[k..].sort_unstable_by(order);
        } else {
            keys.truncate(k);
        }
    } else {
        keys.sort_unstable_by(order);
    }
    keys.dedup_by_key(|key| key.1);
    keys.truncate(k);
    keys.iter().map(|&(_, _, i)| answers[i].clone()).collect()
}

/// Reference answer: centralized top-k over a full dataset, by a naive full
/// sort (the test oracle).
pub fn centralized_topk<F: ScoreFn>(tuples: &[Tuple], score: &F, k: usize) -> Vec<Tuple> {
    let mut all: Vec<Tuple> = tuples.to_vec();
    all.sort_by(|a, b| {
        score
            .score(&b.point)
            .total_cmp(&score.score(&a.point))
            .then_with(|| a.id.cmp(&b.id))
    });
    all.truncate(k);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_geom::LinearScore;
    use ripple_net::rng::rngs::SmallRng;
    use ripple_net::rng::{Rng, SeedableRng};

    fn t(id: u64, c: &[f64]) -> Tuple {
        Tuple::new(id, c.to_vec())
    }

    fn q(k: usize) -> TopKQuery<LinearScore> {
        TopKQuery::new(LinearScore::uniform(2), k)
    }

    #[test]
    fn local_state_takes_top_k() {
        let query = q(2);
        let tuples = vec![t(1, &[0.9, 0.9]), t(2, &[0.1, 0.1]), t(3, &[0.5, 0.5])];
        let s = RankQuery::<Rect>::compute_local_state(
            &query,
            &LocalView::Plain(&tuples),
            &TopKState::empty(),
        );
        assert_eq!(s.m, 2);
        assert!(
            (s.tau - 1.0).abs() < 1e-12,
            "threshold is the 2nd best score"
        );
    }

    #[test]
    fn local_state_respects_global_threshold() {
        let query = q(2);
        let tuples = vec![t(1, &[0.9, 0.9]), t(2, &[0.1, 0.1])];
        // two tuples already known globally at τ = 1.5
        let g = TopKState { m: 2, tau: 1.5 };
        let s = RankQuery::<Rect>::compute_local_state(&query, &LocalView::Plain(&tuples), &g);
        assert_eq!(s.m, 1, "only the 1.8-scoring tuple beats τ");
        assert!((s.tau - 1.8).abs() < 1e-12);
    }

    #[test]
    fn local_state_tops_up_when_global_short() {
        let query = q(3);
        let tuples = vec![t(1, &[0.4, 0.4]), t(2, &[0.2, 0.2])];
        let g = TopKState {
            m: 1,
            tau: 1.9, // one excellent tuple known, but we need 3
        };
        let s = RankQuery::<Rect>::compute_local_state(&query, &LocalView::Plain(&tuples), &g);
        assert_eq!(s.m, 2, "both local tuples are needed to reach k");
        assert!((s.tau - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_peer_is_neutral() {
        let query = q(2);
        let s = RankQuery::<Rect>::compute_local_state(
            &query,
            &LocalView::Plain(&[]),
            &TopKState::empty(),
        );
        assert_eq!(s.m, 0);
        let g = RankQuery::<Rect>::compute_global_state(&query, &TopKState { m: 2, tau: 0.7 }, &s);
        assert_eq!(g.m, 2);
        assert_eq!(g.tau, 0.7);
        assert!(
            RankQuery::<Rect>::compute_local_answer(&query, &LocalView::Plain(&[]), &s).is_empty()
        );
    }

    #[test]
    fn merge_finds_highest_threshold_with_k() {
        let query = q(7);
        let merged = RankQuery::<Rect>::update_local_state(
            &query,
            vec![
                TopKState { m: 5, tau: 0.9 },
                TopKState { m: 3, tau: 0.85 },
                TopKState { m: 5, tau: 0.8 },
            ],
        );
        assert_eq!(merged.m, 8);
        assert!((merged.tau - 0.85).abs() < 1e-12);
    }

    #[test]
    fn merge_with_insufficient_total() {
        let query = q(10);
        let merged = RankQuery::<Rect>::update_local_state(
            &query,
            vec![TopKState { m: 2, tau: 0.9 }, TopKState { m: 3, tau: 0.5 }],
        );
        assert_eq!(merged.m, 5);
        assert!((merged.tau - 0.5).abs() < 1e-12);
    }

    #[test]
    fn relevance_pruning() {
        let query = q(1);
        let region = Rect::new(vec![0.0, 0.0], vec![0.3, 0.3]); // f⁺ = 0.6
        assert!(
            RankQuery::<Rect>::is_link_relevant(&query, &region, &TopKState { m: 0, tau: 1.5 }),
            "still short of k"
        );
        assert!(
            !RankQuery::<Rect>::is_link_relevant(&query, &region, &TopKState { m: 1, tau: 1.5 }),
            "k reached and the region cannot beat τ"
        );
        assert!(RankQuery::<Rect>::is_link_relevant(
            &query,
            &region,
            &TopKState { m: 1, tau: 0.5 }
        ));
    }

    #[test]
    fn priority_orders_by_upper_bound() {
        let query = q(1);
        let good = Rect::new(vec![0.5, 0.5], vec![1.0, 1.0]);
        let bad = Rect::new(vec![0.0, 0.0], vec![0.4, 0.4]);
        assert!(
            RankQuery::<Rect>::priority(&query, &good) > RankQuery::<Rect>::priority(&query, &bad)
        );
    }

    #[test]
    fn centralized_oracle() {
        let score = LinearScore::uniform(2);
        let data = vec![t(1, &[0.9, 0.9]), t(2, &[0.1, 0.1]), t(3, &[0.5, 0.5])];
        let top = centralized_topk(&data, &score, 2);
        assert_eq!(top.iter().map(|t| t.id).collect::<Vec<_>>(), vec![1, 3]);
    }

    /// The initiator's ranking in its naive form: a stable sort on (score
    /// descending, id ascending), removal of consecutive equal ids, then
    /// truncation to `k`.
    fn naive_rank(score: &LinearScore, mut answers: Vec<Tuple>, k: usize) -> Vec<Tuple> {
        answers.sort_by(|a, b| {
            score
                .score(&b.point)
                .total_cmp(&score.score(&a.point))
                .then_with(|| a.id.cmp(&b.id))
        });
        answers.dedup_by_key(|t| t.id);
        answers.truncate(k);
        answers
    }

    /// The final answer `finish_topk` ranks out of a received stream.
    fn ranked_at_initiator(query: &TopKQuery<LinearScore>, answers: Vec<Tuple>) -> Vec<Tuple> {
        let outcome = QueryOutcome {
            answers,
            state: (),
            metrics: QueryMetrics::default(),
            coverage: Coverage::full(),
            certificate: None,
        };
        finish_topk(query, outcome, 0).0
    }

    fn shuffle(rng: &mut SmallRng, v: &mut [Tuple]) {
        for i in (1..v.len()).rev() {
            v.swap(i, rng.gen_range(0..i + 1));
        }
    }

    /// A received answer stream: distinct ids on a coarse grid (score ties
    /// across ids are common), some tuples delivered twice (replica
    /// re-answers), some ids re-delivered with other coordinates (what an
    /// unaudited score flip delivers), in shuffled arrival order.
    fn answer_stream(rng: &mut SmallRng, n: usize) -> Vec<Tuple> {
        let grid = |rng: &mut SmallRng| rng.gen_range(0..5u32) as f64 * 0.25;
        let mut stream: Vec<Tuple> = (0..n as u64)
            .map(|id| t(id, &[grid(rng), grid(rng)]))
            .collect();
        if n > 0 {
            for _ in 0..rng.gen_range(0..4usize) {
                let copy = stream[rng.gen_range(0..n)].clone();
                stream.push(copy);
            }
            for _ in 0..rng.gen_range(0..3usize) {
                let id = stream[rng.gen_range(0..n)].id;
                stream.push(t(id, &[grid(rng), grid(rng)]));
            }
        }
        shuffle(rng, &mut stream);
        stream
    }

    #[test]
    fn initiator_ranking_matches_naive_reference() {
        let mut rng = SmallRng::seed_from_u64(18);
        for round in 0..400 {
            let n = rng.gen_range(0..40usize);
            let stream = answer_stream(&mut rng, n);
            let w = [rng.gen_range(0..4u32) as f64, rng.gen_range(1..4u32) as f64];
            let score = LinearScore::new(w.to_vec());
            let len = stream.len();
            let mut ks = vec![1, len + 5, rng.gen_range(1..len + 6)];
            if len >= 1 {
                ks.push(len);
            }
            if len >= 2 {
                ks.push(len - 1);
            }
            for k in ks {
                let query = TopKQuery::new(score.clone(), k);
                assert_eq!(
                    ranked_at_initiator(&query, stream.clone()),
                    naive_rank(&score, stream.clone(), k),
                    "round {round}, k {k}, stream {stream:?}"
                );
            }
        }
    }

    #[test]
    fn initiator_ranking_edge_streams() {
        let score = LinearScore::uniform(2);
        let query = |k| TopKQuery::new(score.clone(), k);
        assert!(ranked_at_initiator(&query(3), Vec::new()).is_empty());
        // A tuple delivered twice is ranked once.
        let twice = vec![t(1, &[0.9, 0.9]), t(2, &[0.5, 0.5]), t(1, &[0.9, 0.9])];
        let ids = |v: Vec<Tuple>| v.iter().map(|t| t.id).collect::<Vec<_>>();
        assert_eq!(ids(ranked_at_initiator(&query(2), twice.clone())), [1, 2]);
        assert_eq!(ids(ranked_at_initiator(&query(5), twice)), [1, 2]);
        // Score ties across ids rank by id.
        let ties = vec![t(3, &[0.5, 0.5]), t(1, &[0.2, 0.8]), t(2, &[0.8, 0.2])];
        assert_eq!(ids(ranked_at_initiator(&query(2), ties)), [1, 2]);
        // One id with two coordinates whose copies rank apart: both survive.
        let flipped = vec![t(1, &[0.9, 0.9]), t(2, &[0.5, 0.5]), t(1, &[0.1, 0.1])];
        let got = ranked_at_initiator(&query(3), flipped.clone());
        assert_eq!(got, naive_rank(&score, flipped, 3));
        assert_eq!(ids(got), [1, 2, 1]);
        // One id with two coordinates at the same score: the first to
        // arrive is kept.
        let same_score = vec![t(4, &[0.3, 0.7]), t(4, &[0.7, 0.3])];
        let got = ranked_at_initiator(&query(2), same_score);
        assert_eq!(got, vec![t(4, &[0.3, 0.7])]);
    }

    /// Algorithm 4 in its prefix form: collect the best `k` scores, count
    /// those at or above `τ_G`, top up, index the prefix.
    fn prefix_state(k: usize, scores_desc: &[f64], total: usize, global: &TopKState) -> TopKState {
        let prefix: Vec<f64> = scores_desc.iter().copied().take(k).collect();
        let mut above: usize = prefix.iter().take_while(|s| **s >= global.tau).count();
        if global.m + above < k {
            let missing = k - global.m - above;
            above = (above + missing).min(total);
        }
        if above == 0 {
            return TopKState::empty();
        }
        TopKState {
            m: above,
            tau: prefix[above - 1],
        }
    }

    #[test]
    fn single_pass_state_matches_prefix_form() {
        let mut rng = SmallRng::seed_from_u64(4);
        let grid = |rng: &mut SmallRng| rng.gen_range(0..8u32) as f64 * 0.125;
        for round in 0..2_000 {
            let total = rng.gen_range(0..30usize);
            let k = rng.gen_range(1..36usize);
            let raw: Vec<f64> = (0..total).map(|_| grid(&mut rng)).collect();
            let mut desc = raw.clone();
            desc.sort_by(|a, b| b.total_cmp(a));
            let global = TopKState {
                m: rng.gen_range(0..k + 4),
                tau: if rng.gen_bool(0.25) {
                    f64::INFINITY
                } else {
                    grid(&mut rng)
                },
            };
            let query = TopKQuery::new(LinearScore::uniform(1), k);
            let want = prefix_state(k, &desc, total, &global);
            // A full ranked stream, as a cached projection walks it.
            let got = query.state_from_ranked(desc.iter().copied(), total, &global);
            assert_eq!(got, want, "round {round}: projection, {global:?}, k {k}");
            // The blocked path's bounded heap: at most `k` scores.
            let mut heap = kernels::TopScores::new(k);
            heap.offer_all(&raw);
            let best = heap.into_sorted_desc();
            let got = query.state_from_ranked(best.into_iter(), total, &global);
            assert_eq!(got, want, "round {round}: heap, {global:?}, k {k}");
        }
        // The neutral state tops up to min(k, total); `m_G ≥ k` keeps only
        // the scores at or above `τ_G`.
        let query = TopKQuery::new(LinearScore::uniform(1), 3);
        let desc = [0.9, 0.8, 0.7, 0.6];
        let s = query.state_from_ranked(desc.into_iter(), 4, &TopKState::empty());
        assert_eq!(s, TopKState { m: 3, tau: 0.7 });
        let s = query.state_from_ranked(desc.into_iter(), 2, &TopKState::empty());
        assert_eq!(s, TopKState { m: 2, tau: 0.8 });
        let g = TopKState { m: 5, tau: 0.75 };
        let s = query.state_from_ranked(desc.into_iter(), 4, &g);
        assert_eq!(s, TopKState { m: 2, tau: 0.8 });
        let g = TopKState { m: 5, tau: 0.95 };
        let s = query.state_from_ranked(desc.into_iter(), 4, &g);
        assert_eq!(s, TopKState::empty());
    }
}
