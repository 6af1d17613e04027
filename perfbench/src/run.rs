//! Query runners written against the library's public items.
//!
//! They repeat the steps of the certified runners (`run_topk_certified`,
//! `run_skyline_certified`, `run_single_tuple_certified` and the `_par`
//! twins): route, execute, post-process at the initiator. Written out here
//! so the same steps can run with a [`TracedQuery`] in place of the query,
//! and so a planned query can be routed and finished like a static one.
//! The paper workload checks that these runners, traced, reproduce the
//! library's own runners bit for bit.

use crate::trace::{span, Kind, TracedQuery};
use ripple_core::diversify::SingleTupleQuery;
use ripple_core::service::{ServiceQuery, ServiceScore};
use ripple_core::topk::TopKQuery;
use ripple_core::{
    run_planned, Coverage, Executor, Mode, PlanInputs, Planner, QueryOutcome, RankQuery,
    RippleOverlay, SkylineQuery,
};
use ripple_geom::{dominance, DiversityQuery, LinearScore, PeakScore, Rect, ScoreFn, Tuple};
use ripple_net::{PeerId, QueryMetrics};
use ripple_verify::Certificate;

/// How one query is executed.
pub enum How<'p> {
    /// `Executor::run` in the given mode.
    Seq(Mode),
    /// `Executor::run_parallel` in the given mode with the given threads.
    Par(Mode, usize),
    /// `run_planned` with the shape's planner.
    Planned(&'p mut Planner, &'p PlanInputs),
}

impl How<'_> {
    /// True when the query runs as a broadcast. For a planned query that is
    /// the planner's choice: `plan` takes `&self`, so asking it here gives
    /// the decision `run_planned` makes next.
    fn is_broadcast(&self) -> bool {
        let mode = match self {
            How::Seq(mode) | How::Par(mode, _) => *mode,
            How::Planned(planner, inputs) => planner.plan(inputs).mode.into(),
        };
        mode == Mode::Broadcast
    }
}

/// A finished query as the initiator sees it.
pub struct Outcome {
    /// The final answer; for single-tuple diversification the raw
    /// delivered candidate stream, which `verify_diversify` needs.
    pub answers: Vec<Tuple>,
    /// The cost ledger.
    pub metrics: QueryMetrics,
    /// The coverage report.
    pub coverage: Coverage,
    /// The answer certificate.
    pub cert: Option<Certificate>,
}

fn dispatch<O, Q>(
    exec: &Executor<'_, O>,
    start: PeerId,
    query: &Q,
    how: How<'_>,
    qid: Option<u32>,
) -> QueryOutcome<Q::Local>
where
    O: RippleOverlay + Sync,
    O::Region: Send,
    Q: RankQuery<O::Region> + Sync,
    Q::Global: Send + Sync,
    Q::Local: Send,
{
    match how {
        How::Seq(mode) => exec.run(start, query, mode),
        How::Par(mode, threads) => exec.run_parallel(start, query, mode, threads),
        How::Planned(planner, inputs) => {
            if let Some(qid) = qid {
                // `plan` takes `&self`: timing an extra call cannot change
                // the decision `run_planned` makes next.
                span(Kind::Plan, qid, || planner.plan(inputs));
            }
            run_planned(planner, exec, start, query, inputs)
        }
    }
}

/// Executes `query`, decorated when `qid` is set.
fn execute<O, Q>(
    exec: &Executor<'_, O>,
    start: PeerId,
    query: &Q,
    how: How<'_>,
    qid: Option<u32>,
) -> QueryOutcome<Q::Local>
where
    O: RippleOverlay + Sync,
    O::Region: Send,
    Q: RankQuery<O::Region> + Sync,
    Q::Global: Send + Sync,
    Q::Local: Send,
{
    match qid {
        None => dispatch(exec, start, query, how, None),
        Some(id) => dispatch(exec, start, &TracedQuery::new(query, id), how, qid),
    }
}

/// Top-k: route to the score's peak owner (not for broadcasts), execute,
/// charge the routing hops, rank and truncate at the initiator.
pub fn topk<O, F>(
    exec: &Executor<'_, O>,
    initiator: PeerId,
    score: F,
    k: usize,
    how: How<'_>,
    qid: Option<u32>,
) -> Outcome
where
    O: RippleOverlay + Sync,
    O::Region: Send,
    F: ScoreFn,
    TopKQuery<F>: RankQuery<O::Region> + Sync,
    <TopKQuery<F> as RankQuery<O::Region>>::Global: Send + Sync,
    <TopKQuery<F> as RankQuery<O::Region>>::Local: Send,
{
    let query = TopKQuery::new(score, k);
    let routed = query
        .score
        .peak_point()
        .and_then(|p| exec.network().route_lookup(initiator, &p));
    let (start, hops) = match routed {
        Some((owner, hops)) if !how.is_broadcast() => (owner, hops),
        _ => (initiator, 0),
    };
    let QueryOutcome {
        mut answers,
        mut metrics,
        coverage,
        certificate,
        ..
    } = execute(exec, start, &query, how, qid);
    metrics.latency += u64::from(hops);
    metrics.query_messages += u64::from(hops);
    answers.sort_by(|a, b| {
        query
            .score
            .score(&b.point)
            .total_cmp(&query.score.score(&a.point))
            .then_with(|| a.id.cmp(&b.id))
    });
    answers.dedup_by_key(|t| t.id);
    answers.truncate(k);
    Outcome {
        answers,
        metrics,
        coverage,
        cert: certificate,
    }
}

/// Skyline: execute from the initiator, thin the received tuples to the
/// final skyline, id order.
pub fn skyline<O>(
    exec: &Executor<'_, O>,
    initiator: PeerId,
    query: &SkylineQuery,
    how: How<'_>,
    qid: Option<u32>,
) -> Outcome
where
    O: RippleOverlay<Region = Rect> + Sync,
{
    let out = execute(exec, initiator, query, how, qid);
    let mut answers = dominance::skyline(&out.answers);
    answers.sort_by_key(|t| t.id);
    Outcome {
        answers,
        metrics: out.metrics,
        coverage: out.coverage,
        cert: out.certificate,
    }
}

/// Single-tuple diversification: route to the query point's owner,
/// execute, charge the routing hops. The answer is the raw candidate
/// stream; [`div_best`] picks the winner.
pub fn single_tuple<O>(
    exec: &Executor<'_, O>,
    initiator: PeerId,
    div: &DiversityQuery,
    set: &[Tuple],
    initial_tau: f64,
    how: How<'_>,
    qid: Option<u32>,
) -> Outcome
where
    O: RippleOverlay<Region = Rect> + Sync,
{
    let query = SingleTupleQuery::with_tau(div, set, initial_tau);
    let (start, hops) = exec
        .network()
        .route_lookup(initiator, &div.q)
        .unwrap_or((initiator, 0));
    let out = execute(exec, start, &query, how, qid);
    let mut metrics = out.metrics;
    metrics.latency += u64::from(hops);
    metrics.query_messages += u64::from(hops);
    Outcome {
        answers: out.answers,
        metrics,
        coverage: out.coverage,
        cert: out.certificate,
    }
}

/// The winning insertion among `candidates`: least φ below `initial_tau`,
/// ties on id — the selection `run_single_tuple_certified` makes.
pub fn div_best(
    div: &DiversityQuery,
    set: &[Tuple],
    initial_tau: f64,
    candidates: &[Tuple],
) -> Option<(Tuple, f64)> {
    let stats = div.stats(set);
    candidates
        .iter()
        .filter(|t| !set.iter().any(|o| o.id == t.id))
        .map(|t| (t.clone(), div.phi_with_stats(&t.point, set, stats)))
        .filter(|(_, phi)| *phi < initial_tau)
        .min_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.id.cmp(&b.0.id)))
}

/// A wire-form service query, executed like `MidasNetwork`'s `serve`.
pub fn serve_query<O>(
    exec: &Executor<'_, O>,
    initiator: PeerId,
    query: &ServiceQuery,
    how: How<'_>,
    qid: Option<u32>,
) -> Outcome
where
    O: RippleOverlay<Region = Rect> + Sync,
{
    match query {
        ServiceQuery::TopK {
            score: ServiceScore::Linear(w),
            k,
        } => topk(exec, initiator, LinearScore::new(w.clone()), *k, how, qid),
        ServiceQuery::TopK {
            score: ServiceScore::Peak(p, norm),
            k,
        } => topk(
            exec,
            initiator,
            PeakScore::new(p.clone(), *norm),
            *k,
            how,
            qid,
        ),
        ServiceQuery::Skyline { constraint } => {
            let q = match constraint {
                Some(c) => SkylineQuery::constrained(c.clone()),
                None => SkylineQuery::new(),
            };
            skyline(exec, initiator, &q, how, qid)
        }
    }
}
