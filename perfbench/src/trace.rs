//! Outside-in tracing through forwarding decorators.
//!
//! [`Traced`] wraps an overlay and [`TracedQuery`] wraps a rank query. Both
//! forward *every* trait method — the defaulted ones included — to the
//! wrapped value, so a traced execution computes exactly what an untraced
//! one does; the decorators only observe. Calls that do real work are
//! recorded as spans (query id, thread id, start, end); tiny calls are
//! counted, not timed. Spans stay in one process-wide buffer until the run
//! drains it with [`take`].
//!
//! Query ids travel with [`TracedQuery`] (every timed query call stamps its
//! id on the calling thread) and with the benchmark's own query spans;
//! overlay calls pick up the id last stamped on their thread, which is the
//! query the thread is working for.

use ripple_core::service::{Servable, Served, ServiceQuery};
use ripple_core::{Executor, Mode, RankQuery, RippleOverlay};
use ripple_geom::{Point, Rect, Tuple};
use ripple_midas::MidasNetwork;
use ripple_net::{LocalView, PeerId, Quarantine, ReplicaSet};
use ripple_verify::PruneWitness;
use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// What a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One whole query execution (the benchmark's runner, or `serve`).
    Query,
    /// `RippleOverlay::peer_links`.
    PeerLinks,
    /// `RippleOverlay::route_lookup`.
    RouteLookup,
    /// `RankQuery::compute_local_state`.
    LocalState,
    /// `RankQuery::compute_local_answer`.
    LocalAnswer,
    /// `RankQuery::update_local_state` and `compute_global_state`.
    Merge,
    /// `Planner::plan`.
    Plan,
    /// The substrate's `insert_batch` inside `advance_epoch`.
    Insert,
    /// The substrate's `delete_tuples` inside `advance_epoch`.
    Delete,
    /// The substrate's `compact_stores` inside `advance_epoch`.
    Compact,
    /// One whole `QueryService::advance_epoch` call, lock wait included.
    Epoch,
}

impl Kind {
    /// Spans of `RankQuery` calls (the ones the pool may run off-driver).
    pub fn is_query_fn(self) -> bool {
        matches!(self, Kind::LocalState | Kind::LocalAnswer | Kind::Merge)
    }
}

/// One recorded call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The query the call worked for ([`NO_QUERY`] outside queries).
    pub qid: u32,
    /// Small per-thread id.
    pub tid: u32,
    /// What was called.
    pub kind: Kind,
    /// Start, in nanoseconds since the first span of the process.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Calls that are counted, not timed.
#[derive(Clone, Copy, Debug)]
pub enum Count {
    /// Links returned by `peer_links`.
    LinksReturned,
    /// `region_intersect` calls.
    Intersects,
    /// Hops reported by `route_lookup`.
    RouteHops,
    /// `is_link_relevant` calls.
    RelevanceChecks,
    /// `is_link_relevant` calls that answered "irrelevant".
    Pruned,
    /// Every other forwarded trait call.
    OtherCalls,
}

const COUNTS: usize = 6;

/// The query id of calls made outside any query.
pub const NO_QUERY: u32 = u32::MAX;

static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static COUNTERS: [AtomicU64; COUNTS] = [const { AtomicU64::new(0) }; COUNTS];
static NEXT_QID: AtomicU32 = AtomicU32::new(0);
static NEXT_TID: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static QID: Cell<u32> = const { Cell::new(NO_QUERY) };
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn clock() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    clock().elapsed().as_nanos() as u64
}

/// Allocates a fresh query id and stamps it on the calling thread.
pub fn new_query() -> u32 {
    let qid = NEXT_QID.fetch_add(1, Ordering::Relaxed);
    enter(qid);
    qid
}

fn enter(qid: u32) {
    QID.with(|q| q.set(qid));
}

fn current_query() -> u32 {
    QID.with(|q| q.get())
}

/// The calling thread's small id.
pub fn thread_id() -> u32 {
    TID.with(|t| *t)
}

/// Runs `f` and records it as a span of `kind` for query `qid`.
pub fn span<T>(kind: Kind, qid: u32, f: impl FnOnce() -> T) -> T {
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    let s = Span {
        qid,
        tid: thread_id(),
        kind,
        start_ns,
        end_ns,
    };
    SPANS.lock().expect("span buffer poisoned").push(s);
    out
}

/// Adds `n` to a counter.
pub fn count(c: Count, n: u64) {
    COUNTERS[c as usize].fetch_add(n, Ordering::Relaxed);
}

fn other() {
    count(Count::OtherCalls, 1);
}

/// Drained trace of one run.
pub struct Trace {
    /// Every span, in recording order.
    pub spans: Vec<Span>,
    counts: [u64; COUNTS],
}

impl Trace {
    /// The value of a counter.
    pub fn count(&self, c: Count) -> u64 {
        self.counts[c as usize]
    }
}

/// Drains the span buffer and resets the counters.
pub fn take() -> Trace {
    let spans = std::mem::take(&mut *SPANS.lock().expect("span buffer poisoned"));
    let counts = std::array::from_fn(|i| COUNTERS[i].swap(0, Ordering::Relaxed));
    Trace { spans, counts }
}

/// A forwarding decorator for an overlay.
pub struct Traced<O>(pub O);

impl<O: RippleOverlay> RippleOverlay for Traced<O> {
    type Region = O::Region;

    fn full_region(&self) -> Self::Region {
        other();
        self.0.full_region()
    }

    fn region_intersect(
        &self,
        region: &Self::Region,
        restriction: &Self::Region,
    ) -> Option<Self::Region> {
        count(Count::Intersects, 1);
        self.0.region_intersect(region, restriction)
    }

    fn peer_links(&self, peer: PeerId) -> Vec<(PeerId, Self::Region)> {
        let links = span(Kind::PeerLinks, current_query(), || self.0.peer_links(peer));
        count(Count::LinksReturned, links.len() as u64);
        links
    }

    fn peer_count(&self) -> usize {
        other();
        self.0.peer_count()
    }

    fn peer_tuples(&self, peer: PeerId) -> &[Tuple] {
        other();
        self.0.peer_tuples(peer)
    }

    fn peer_view(&self, peer: PeerId) -> LocalView<'_> {
        other();
        self.0.peer_view(peer)
    }

    fn route_lookup(&self, from: PeerId, key: &Point) -> Option<(PeerId, u32)> {
        let routed = span(Kind::RouteLookup, current_query(), || {
            self.0.route_lookup(from, key)
        });
        if let Some((_, hops)) = routed {
            count(Count::RouteHops, u64::from(hops));
        }
        routed
    }

    fn region_volume(&self, region: &Self::Region) -> f64 {
        other();
        self.0.region_volume(region)
    }

    fn region_rects(&self, region: &Self::Region) -> Vec<Rect> {
        other();
        self.0.region_rects(region)
    }

    fn snapshot_generation(&self) -> u64 {
        other();
        self.0.snapshot_generation()
    }

    fn is_peer_live(&self, peer: PeerId) -> bool {
        other();
        self.0.is_peer_live(peer)
    }

    fn failover_target(
        &self,
        region: &Self::Region,
        tried: &[PeerId],
    ) -> Option<(PeerId, Self::Region)> {
        other();
        self.0.failover_target(region, tried)
    }

    fn replica_targets(&self, peer: PeerId, k: usize) -> Vec<PeerId> {
        other();
        self.0.replica_targets(peer, k)
    }

    fn replicas(&self) -> Option<&ReplicaSet> {
        other();
        self.0.replicas()
    }

    fn quarantine(&self) -> Option<&Quarantine> {
        other();
        self.0.quarantine()
    }

    fn dead_zones_in(&self, region: &Self::Region) -> Vec<(PeerId, f64)> {
        other();
        self.0.dead_zones_in(region)
    }

    fn peer_zones_in(&self, peers: &[PeerId], region: &Self::Region) -> Vec<(PeerId, f64)> {
        other();
        self.0.peer_zones_in(peers, region)
    }
}

/// A forwarding decorator for a rank query, tagged with its query id.
pub struct TracedQuery<'q, Q> {
    inner: &'q Q,
    qid: u32,
}

impl<'q, Q> TracedQuery<'q, Q> {
    /// Wraps `inner` for query `qid`.
    pub fn new(inner: &'q Q, qid: u32) -> Self {
        Self { inner, qid }
    }

    fn timed<T>(&self, kind: Kind, f: impl FnOnce() -> T) -> T {
        enter(self.qid);
        span(kind, self.qid, f)
    }
}

impl<R, Q: RankQuery<R>> RankQuery<R> for TracedQuery<'_, Q> {
    type Global = Q::Global;
    type Local = Q::Local;

    fn initial_global(&self) -> Self::Global {
        other();
        self.inner.initial_global()
    }

    fn compute_local_state(&self, view: &LocalView<'_>, global: &Self::Global) -> Self::Local {
        self.timed(Kind::LocalState, || {
            self.inner.compute_local_state(view, global)
        })
    }

    fn compute_global_state(&self, global: &Self::Global, local: &Self::Local) -> Self::Global {
        self.timed(Kind::Merge, || {
            self.inner.compute_global_state(global, local)
        })
    }

    fn update_local_state(&self, states: Vec<Self::Local>) -> Self::Local {
        self.timed(Kind::Merge, || self.inner.update_local_state(states))
    }

    fn compute_local_answer(&self, view: &LocalView<'_>, local: &Self::Local) -> Vec<Tuple> {
        self.timed(Kind::LocalAnswer, || {
            self.inner.compute_local_answer(view, local)
        })
    }

    fn is_link_relevant(&self, region: &R, global: &Self::Global) -> bool {
        let relevant = self.inner.is_link_relevant(region, global);
        count(Count::RelevanceChecks, 1);
        if !relevant {
            count(Count::Pruned, 1);
        }
        relevant
    }

    fn priority(&self, region: &R) -> f64 {
        other();
        self.inner.priority(region)
    }

    fn state_payload(&self, local: &Self::Local) -> usize {
        other();
        self.inner.state_payload(local)
    }

    fn prune_witness(&self, region: &R, global: &Self::Global) -> PruneWitness {
        other();
        self.inner.prune_witness(region, global)
    }
}

/// The traced service path: `serve` runs the same runner steps as the
/// substrate's own `serve`, with the query decorated and the whole call
/// recorded as the query's span.
impl Servable for Traced<MidasNetwork> {
    fn supports(query: &ServiceQuery) -> bool {
        MidasNetwork::supports(query)
    }

    fn serve(
        exec: &Executor<'_, Self>,
        initiator: PeerId,
        query: &ServiceQuery,
        mode: Mode,
        threads: usize,
    ) -> Served {
        let qid = new_query();
        span(Kind::Query, qid, || {
            let out = crate::run::serve_query(
                exec,
                initiator,
                query,
                crate::run::How::Par(mode, threads),
                Some(qid),
            );
            Served {
                answers: out.answers,
                metrics: out.metrics,
                coverage: out.coverage,
                certificate: out.cert,
            }
        })
    }
}
