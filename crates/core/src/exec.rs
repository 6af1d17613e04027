//! The three RIPPLE propagation templates (Algorithms 1–3).
//!
//! The executor walks the overlay *recursively in simulation*: a recursive
//! call stands for a query message, and the return stands for the response.
//! Latency is accounted exactly as the proofs of Lemmas 1–3 count hops:
//!
//! * `fast` (Alg. 1) forwards to all relevant links at once, so a peer's
//!   completion time is `1 + max(children)`; no peer sends a state back;
//! * `ripple` (Alg. 3) visits one link at a time while the hop budget `r`
//!   lasts, waiting for each state response before the next, so completion
//!   is `Σ (1 + child)`; below the budget it runs `fast`, whose peers report
//!   their local states to the last slow-phase ancestor;
//! * `slow` (Alg. 2) is `ripple` with a budget no walk exhausts (`r ≥ Δ`),
//!   so `Mode::Slow` runs `ripple(u32::MAX)`.
//!
//! Response messages (local states, local answers) are tallied in the
//! message counters but add no hops, mirroring the Lemma accounting.
//!
//! Each template does only the state work its algorithm reads: subtree
//! states are merged (`update_local_state`) by the slow phase of `ripple`
//! and by the fast phase of Alg. 3, whose merged states stand for the
//! reports to the slow-phase ancestor; a pure Alg. 1 or broadcast peer
//! merges nothing and returns its own local state.
//!
//! Restriction areas are threaded through every forwarding step, so each
//! peer processes a query at most once; a second visit is counted as an
//! always-on anomaly ([`QueryMetrics::duplicate_visits`]) instead of being
//! audited only in debug builds.
//!
//! Every query forward passes through fault-aware delivery (the `deliver`
//! submodule: drops, retransmissions, failover, replica recovery), and
//! every remote answer deposit and prune witness through the commission
//! fault plane and the online audit (the `audit` submodule).
//!
//! # One engine, two fan-outs
//!
//! `fast` and `broadcast` are *defined* as contacting all relevant links in
//! parallel, so the subtrees below those links are independent. Each
//! template is written once, generic over a `FanOut` that decides where
//! the subtrees run:
//!
//! * the **inline** fan-out ([`Executor::run`]) recurses on the caller's
//!   thread, depth first, straight into the parent's [`BranchLedger`];
//! * the **pool** fan-out ([`Executor::run_parallel`]) forks one task per
//!   relevant link onto a scoped work-stealing pool ([`ripple_net::pool`]),
//!   gives each task its own ledger, and merges the children back **in
//!   link order** (a single relevant link recurses inline: forking buys
//!   nothing).
//!
//! Both fan-outs produce **bit-identical** outcomes:
//!
//! * fault decisions are *addressable*: [`FaultSession`] keys every drop
//!   verdict by `(query stream, sender, target, attempt)`, so no global
//!   draw order exists for scheduling to perturb;
//! * link-order merging of the children's ledgers restores the depth-first
//!   visit trace (pre-order), answer stream (post-order), abandonment
//!   order, certificate tiles and counters exactly;
//! * the pool's duplicate-visit detection runs against a [`ShardedVisited`]
//!   set whose total anomaly count (`visits − distinct peers`) is
//!   schedule-free.
//!
//! The slow phase of `ripple` never forks (each link waits for the previous
//! state response), so it runs on the calling thread under either fan-out.

mod audit;
mod deliver;

use crate::framework::{Coverage, Mode, QueryOutcome, RankQuery, RippleOverlay};
use ripple_geom::{neumaier, KernelDispatch, Tuple};
use ripple_net::hash::{fx_set_with_capacity, FxHashSet};
use ripple_net::pool::{self, Pool};
use ripple_net::{
    scan, BranchLedger, CorruptionPlane, CorruptionSession, FaultPlane, FaultSession, LocalView,
    PeerId, QuarantineSnapshot, QueryMetrics, ShardedVisited,
};
use ripple_verify::{CertRegion, Certificate};
use std::borrow::Borrow;
use std::sync::Arc;

/// The local answer a failover adopter computes *on behalf of* a dead peer
/// from a replica of its tuples: the same two query functions a live peer
/// would run, over a plain view of the copy, under the global state the
/// failed forward carried. Answering with a (possibly weaker) upstream
/// global state can only widen the answer — never drop a qualifying tuple —
/// so recovery is recall-safe for every query type.
fn replica_answer<R, Q: RankQuery<R>>(
    query: &Q,
    tuples: &[Tuple],
    global: &Q::Global,
) -> Vec<Tuple> {
    let view = LocalView::Plain(tuples);
    let local = query.compute_local_state(&view, global);
    query.compute_local_answer(&view, &local)
}

/// Runs `f` with the thread-local scan accounting of [`ripple_net::scan`]
/// bracketed around it, draining the tuples-scanned / blocks-pruned counts
/// into `metrics`. When `trace` is off the bracket is skipped entirely and
/// the `scan::add_*` calls inside the query functions stay no-ops — the
/// data-plane counters are strictly zero-cost for aggregate-only sweeps.
fn with_scan<T>(trace: bool, metrics: &mut QueryMetrics, f: impl FnOnce() -> T) -> T {
    if !trace {
        return f();
    }
    scan::begin();
    let out = f();
    let c = scan::end();
    metrics.tuples_scanned += c.tuples_scanned;
    metrics.blocks_pruned += c.blocks_pruned;
    metrics.memtable_hits += c.memtable_hits;
    metrics.tombstones_masked += c.tombstones_masked;
    metrics.compactions_run += c.compactions_run;
    metrics.write_amplification += c.rows_rewritten;
    out
}

/// Everything one query execution needs to decide per-edge fault and
/// corruption outcomes and per-peer quarantine standing. Immutable for the
/// whole walk — both fault streams are keyed (not drawn in order) and the
/// quarantine snapshot is frozen before the first hop — so both fan-outs
/// observe identical decisions.
struct QuerySession {
    /// Omission faults: drops, slow peers, timeouts.
    faults: FaultSession,
    /// Commission faults: the per-edge corrupted-response stream.
    corrupt: CorruptionSession,
    /// The peer the query started at; its own deposits are never audited
    /// (a peer cannot usefully lie to itself).
    initiator: PeerId,
    /// The quarantine registry frozen at query start.
    qsnap: QuarantineSnapshot,
}

/// Executes RIPPLE queries over an overlay.
pub struct Executor<'a, O> {
    net: &'a O,
    /// When set, peers are handed plain tuple slices even on indexed
    /// substrates: every peer scans its tuples as the paper's do. This is
    /// the one reference oracle the equivalence suites and baseline benches
    /// compare the indexed, blocked and LSM paths against; results and
    /// metrics must not differ.
    naive: bool,
    /// The fault-injection policy ([`FaultPlane::none`] by default).
    plane: FaultPlane,
    /// The per-query decision stream opened on the plane by each `run`.
    stream: u64,
    /// Whether ledgers retain the visit trace (on by default; sweeps that
    /// only aggregate turn it off to keep ledgers O(1) in network size).
    trace: bool,
    /// Whether failover may answer an abandoned region from a replica when
    /// the overlay maintains a [`ripple_net::ReplicaSet`] (on by default;
    /// with no replica set configured this flag is inert, so the executor
    /// stays bit-identical to the replica-unaware one).
    use_replicas: bool,
    /// The kernel dispatch arm (scalar / SIMD / auto) every blocked view
    /// handed out by this executor runs its scans on. `Auto` by default;
    /// the equivalence suites pin both forced arms against each other.
    dispatch: KernelDispatch,
    /// Whether executions emit an answer [`Certificate`] (on by default).
    /// Emission is plan-invisible: answers, metrics and coverage are
    /// bit-identical with certificates on or off — the ablation suite
    /// enforces it against [`Executor::without_certificates`].
    certificates: bool,
    /// The commission-fault policy ([`CorruptionPlane::none`] by default):
    /// remote answer deposits and prune witnesses pass through a seeded,
    /// per-edge-keyed corruption stream before the initiator sees them.
    corruption: CorruptionPlane,
    /// Whether every remote contribution is audited against the responder's
    /// authoritative store before merging (on by default). Off is the
    /// ablation arm that demonstrates poisoning: corrupted responses land
    /// in the final answer unchallenged.
    audit: bool,
}

/// One query's walk: the executor, the query and the session that every
/// visit reads and none writes, shared by both fan-outs.
struct Walk<'a, O, Q> {
    exec: &'a Executor<'a, O>,
    query: &'a Q,
    sess: QuerySession,
}

impl<'a, O: RippleOverlay> Executor<'a, O> {
    /// Creates an executor over `net`.
    pub fn new(net: &'a O) -> Self {
        Self {
            net,
            naive: false,
            plane: FaultPlane::none(),
            stream: 0,
            trace: true,
            use_replicas: true,
            dispatch: KernelDispatch::Auto,
            certificates: true,
            corruption: CorruptionPlane::none(),
            audit: true,
        }
    }

    /// Creates a fault-aware executor. Each `run` opens the plane's decision
    /// stream `stream`, so a given (plane, stream, query) triple replays
    /// bit-identically; sweeps vary `stream` per query.
    pub fn with_faults(net: &'a O, plane: FaultPlane, stream: u64) -> Self {
        Self {
            plane,
            stream,
            ..Self::new(net)
        }
    }

    /// Disables visit-trace retention in the produced ledgers (counts are
    /// unaffected). For aggregate-only sweeps over large overlays.
    pub fn without_trace(mut self) -> Self {
        self.trace = false;
        self
    }

    /// Disables replica recovery even when the overlay maintains a replica
    /// set: abandoned regions are reported unreachable exactly as the
    /// replica-unaware executor reports them. Used by equivalence tests and
    /// ablation sweeps.
    pub fn without_replicas(mut self) -> Self {
        self.use_replicas = false;
        self
    }

    /// Ignores per-peer indexes: every peer is handed a plain view of its
    /// tuples and scans it (Algorithms 4/6/10/12 as printed). The reference
    /// oracle of the equivalence suites and the baseline arm of the kernel
    /// and local-index benchmarks; it composes with every other modifier,
    /// e.g. `Executor::with_faults(net, plane, s).naive()`. Answers (as
    /// sets), ledgers, coverage and certificates must be bit-identical to
    /// the indexed executor's.
    pub fn naive(mut self) -> Self {
        self.naive = true;
        self
    }

    /// Disables answer-certificate emission: [`QueryOutcome::certificate`]
    /// is `None` and no tile or witness is ever constructed. The ablation
    /// arm of the certificate suite — answers, metrics and coverage must be
    /// bit-identical to the certifying executor — and the baseline arm of
    /// the certificate-overhead benchmark.
    pub fn without_certificates(mut self) -> Self {
        self.certificates = false;
        self
    }

    /// Drives remote responses through a commission-fault plane: each
    /// non-initiator answer deposit and prune witness is corrupted with the
    /// plane's probability, keyed by `(responder, initiator)` on the
    /// executor's stream — replayable and schedule-free exactly like the
    /// omission-fault streams. With [`CorruptionPlane::none`] (the default)
    /// the corruption path short-circuits entirely.
    pub fn with_corruption(mut self, plane: CorruptionPlane) -> Self {
        self.corruption = plane;
        self
    }

    /// Disables the online response audit: remote contributions are merged
    /// as received, so an active corruption plane poisons the final answer.
    /// The ablation arm of the poisoning benchmark and mutation harness.
    pub fn without_audit(mut self) -> Self {
        self.audit = false;
        self
    }

    /// Pins the kernel dispatch arm of every blocked scan this executor's
    /// views perform (`Auto` by default). Results, answers and ledgers are
    /// bit-identical on every arm — the kernel contract — which the
    /// equivalence suites verify by running forced-scalar against
    /// forced-SIMD executors.
    pub fn with_dispatch(mut self, dispatch: KernelDispatch) -> Self {
        self.dispatch = dispatch;
        self
    }

    /// The overlay this executor runs over.
    pub fn network(&self) -> &'a O {
        self.net
    }

    /// Opens one query's immutable fault/corruption/quarantine session on
    /// this executor's stream.
    fn session(&self, initiator: PeerId) -> QuerySession {
        QuerySession {
            faults: self.plane.session(self.stream),
            corrupt: self.corruption.session(self.stream),
            initiator,
            qsnap: self
                .net
                .quarantine()
                .map(|q| q.snapshot())
                .unwrap_or_default(),
        }
    }

    /// Flushes a finished query's merged audit verdicts into the overlay's
    /// quarantine registry (tainted-wins per peer, order-free), crediting
    /// newly quarantined peers to the ledger. A no-op for clean runs and
    /// for overlays without a registry.
    fn flush_audits(&self, ledger: &mut BranchLedger) {
        if ledger.audits.is_empty() {
            return;
        }
        if let Some(q) = self.net.quarantine() {
            ledger.metrics.quarantined_peers += q.apply(&ledger.audits);
        }
    }

    /// The view of `peer`'s tuples handed to the query functions: plain
    /// under [`naive`](Self::naive), otherwise the overlay's view with
    /// indexed ones re-stamped with this executor's kernel dispatch arm.
    fn view_of(&self, peer: PeerId) -> LocalView<'_> {
        if self.naive {
            return LocalView::Plain(self.net.peer_tuples(peer));
        }
        match self.net.peer_view(peer) {
            LocalView::Indexed(store, _) => LocalView::Indexed(store, self.dispatch),
            view => view,
        }
    }

    /// Turns the absolute abandoned volumes of a finished execution into
    /// the outcome's [`Coverage`].
    fn coverage_of(&self, unreachable: &[f64]) -> Coverage {
        if unreachable.is_empty() {
            return Coverage::full();
        }
        let full_vol = self.net.region_volume(&self.net.full_region());
        Coverage::from_unreachable(unreachable.iter().map(|v| v / full_vol).collect())
    }

    /// Records the *zone* tile of a visited peer: the part of its
    /// restriction area covered by no intersected link. Links plus zone
    /// partition the whole domain, so within the restriction the zone's
    /// volume is exactly the restriction volume minus the link volumes
    /// (compensated sum — tile counts run into the thousands under
    /// broadcast). No-op when certificate emission is off.
    ///
    /// Returns the tile's index in the branch's certificate stream so a
    /// later failed deposit audit can rewrite the tile in place (the
    /// audited-out zone becomes replica-served or unreachable).
    fn certify_scan(
        &self,
        w: PeerId,
        restriction: &O::Region,
        links: &[(PeerId, O::Region)],
        ledger: &mut BranchLedger,
    ) -> Option<usize> {
        ledger.cert.as_ref()?;
        let covered = neumaier(links.iter().map(|(_, r)| self.net.region_volume(r)));
        let volume = self.net.region_volume(restriction) - covered;
        ledger.certify(|| CertRegion::Scanned {
            peer: w.index() as u64,
            volume,
        });
        ledger.cert.as_ref().map(|c| c.len() - 1)
    }

    /// Seals a finished execution's tile stream into the outcome's
    /// [`Certificate`], stamped with the overlay's snapshot generation.
    fn seal_certificate(&self, regions: Option<Vec<CertRegion>>) -> Option<Certificate> {
        regions.map(|regions| Certificate {
            generation: self.net.snapshot_generation(),
            domain_volume: self.net.region_volume(&self.net.full_region()),
            regions,
        })
    }

    /// Processes `query` from `initiator` in the given mode, returning the
    /// collected answers, the initiator's final state and the cost ledger.
    pub fn run<Q>(&self, initiator: PeerId, query: &Q, mode: Mode) -> QueryOutcome<Q::Local>
    where
        Q: RankQuery<O::Region>,
    {
        self.drive(initiator, query, |walk, ledger| {
            // Worst case every peer is visited (broadcast); pre-sizing from
            // the overlay keeps the hot set from rehashing mid-query.
            let mut fan = Inline(fx_set_with_capacity(self.net.peer_count()));
            walk.start(&mut fan, mode, ledger)
        })
    }

    /// Processes `query` like [`run`](Executor::run), but executes the
    /// independent restriction-area subtrees of the *fast* templates
    /// (`Fast`, `Broadcast`, and the fast phase of `Ripple(r)`) concurrently
    /// on a scoped work-stealing pool of `threads` participants.
    ///
    /// The outcome is **bit-identical** to the sequential one — same
    /// answers, same [`QueryMetrics`] including the visit trace, same
    /// [`Coverage`] — for every mode, fault plane and thread count; the
    /// equivalence suite enforces this. With `threads <= 1`, or for
    /// `Mode::Slow` (which never forks), no pool is spun up and this *is*
    /// [`run`](Executor::run).
    ///
    /// [`QueryMetrics`]: ripple_net::QueryMetrics
    pub fn run_parallel<Q>(
        &self,
        initiator: PeerId,
        query: &Q,
        mode: Mode,
        threads: usize,
    ) -> QueryOutcome<Q::Local>
    where
        O: Sync,
        O::Region: Send,
        Q: RankQuery<O::Region> + Sync,
        Q::Global: Send + Sync,
        Q::Local: Send,
    {
        if threads <= 1 || matches!(mode, Mode::Slow) {
            return self.run(initiator, query, mode);
        }
        self.drive(initiator, query, |walk, ledger| {
            let visited = ShardedVisited::new(self.net.peer_count(), threads * 4);
            pool::scope(threads - 1, |pool| {
                let mut fan = Pooled {
                    pool,
                    visited: &visited,
                };
                walk.start(&mut fan, mode, ledger)
            })
        })
    }

    /// What both entry points share: checks the initiator, opens the
    /// query's session, lets `walk` run the templates into a fresh ledger,
    /// then flushes the audit verdicts and seals coverage and certificate.
    fn drive<Q: RankQuery<O::Region>>(
        &self,
        initiator: PeerId,
        query: &Q,
        walk: impl FnOnce(&Walk<'_, O, Q>, &mut BranchLedger) -> (Q::Local, u64),
    ) -> QueryOutcome<Q::Local> {
        assert!(
            self.net.is_peer_live(initiator),
            "query initiated at a crashed peer {initiator}"
        );
        let sess = self.session(initiator);
        let mut ledger = BranchLedger::with_certificates(self.trace, self.certificates);
        let (state, latency) = walk(
            &Walk {
                exec: self,
                query,
                sess,
            },
            &mut ledger,
        );
        self.flush_audits(&mut ledger);
        let mut metrics = ledger.metrics;
        metrics.latency = latency;
        QueryOutcome {
            answers: ledger.answers,
            state,
            metrics,
            coverage: self.coverage_of(&ledger.unreachable),
            certificate: self.seal_certificate(ledger.cert),
        }
    }
}

/// A peer's links intersected with its restriction area: each link's
/// target and restricted region, in link order.
type Links<R> = Vec<(PeerId, R)>;

/// The template a forked subtree runs.
#[derive(Clone, Copy)]
enum Child {
    /// Algorithm 1; `report_states` charges each peer's state response to
    /// the last slow-phase ancestor and hands the subtree states back for
    /// it to merge (the fast phase of Algorithm 3).
    Fast { report_states: bool },
    /// Naive broadcast.
    Broadcast,
}

/// Where the subtrees below a peer's relevant links run (see the module
/// docs). Whichever fan-out runs them, their results and ledger entries
/// come back in link order.
trait FanOut<'a, O: RippleOverlay, Q: RankQuery<O::Region>> {
    /// How a peer holds the global state its subtrees share: by value on
    /// one thread, behind an `Arc` when subtrees may run on other threads.
    type Shared: Borrow<Q::Global>;

    fn share(global: Q::Global) -> Self::Shared;

    /// Adds `peer` to the walk's visited set; `false` if it was there.
    fn first_visit(&mut self, peer: PeerId) -> bool;

    /// Delivers the query from `w` along each of `links` and walks the
    /// subtrees as `child` under `global`. Returns the completion latency
    /// of the fan-out (`max` over the links, which are contacted at once)
    /// and, for the fast phase of Alg. 3 only (`report_states`), the
    /// subtrees' states in link order.
    fn fork(
        &mut self,
        walk: &'a Walk<'a, O, Q>,
        w: PeerId,
        child: Child,
        links: Links<O::Region>,
        global: &Self::Shared,
        ledger: &mut BranchLedger,
    ) -> (u64, Vec<Q::Local>);
}

/// The inline fan-out: every subtree runs on the calling thread, depth
/// first, straight into the parent's ledger; the visited set is a plain
/// hash set.
struct Inline(FxHashSet<PeerId>);

impl<'a, O: RippleOverlay, Q: RankQuery<O::Region>> FanOut<'a, O, Q> for Inline {
    type Shared = Q::Global;

    fn share(global: Q::Global) -> Q::Global {
        global
    }

    fn first_visit(&mut self, peer: PeerId) -> bool {
        self.0.insert(peer)
    }

    fn fork(
        &mut self,
        walk: &'a Walk<'a, O, Q>,
        w: PeerId,
        child: Child,
        links: Links<O::Region>,
        global: &Q::Global,
        ledger: &mut BranchLedger,
    ) -> (u64, Vec<Q::Local>) {
        walk.fork_here(self, w, child, links, global, ledger)
    }
}

/// The pool fan-out: one task per relevant link on a work-stealing pool,
/// each filling its own [`BranchLedger`], which the parent merges back in
/// link order. The global state is shared behind an `Arc`, never cloned.
struct Pooled<'p, 'a> {
    pool: &'p Pool<'a>,
    visited: &'a ShardedVisited,
}

impl<'a, O, Q> FanOut<'a, O, Q> for Pooled<'_, 'a>
where
    O: RippleOverlay + Sync,
    O::Region: Send + 'a,
    Q: RankQuery<O::Region> + Sync,
    Q::Global: Send + Sync + 'a,
    Q::Local: Send + 'a,
{
    type Shared = Arc<Q::Global>;

    fn share(global: Q::Global) -> Arc<Q::Global> {
        Arc::new(global)
    }

    fn first_visit(&mut self, peer: PeerId) -> bool {
        self.visited.insert(peer)
    }

    fn fork(
        &mut self,
        walk: &'a Walk<'a, O, Q>,
        w: PeerId,
        child: Child,
        links: Links<O::Region>,
        global: &Arc<Q::Global>,
        ledger: &mut BranchLedger,
    ) -> (u64, Vec<Q::Local>) {
        if links.len() <= 1 {
            // A chain: forking buys nothing, recurse on this thread.
            return walk.fork_here(self, w, child, links, global, ledger);
        }
        let visited = self.visited;
        let tasks = links.into_iter().map(|link| {
            let global = Arc::clone(global);
            move |pool: &Pool<'a>| {
                let (trace, certs) = (walk.exec.trace, walk.exec.certificates);
                let mut branch = BranchLedger::with_certificates(trace, certs);
                let mut fan = Pooled { pool, visited };
                let result = walk.descend(&mut fan, w, child, link, &global, &mut branch);
                (result, branch)
            }
        });
        let mut out = (0, Vec::new());
        for (result, branch) in self.pool.join_all(tasks.collect()) {
            ledger.merge_child(branch);
            absorb(&mut out, child, result);
        }
        out
    }
}

/// Folds one subtree (its delivery delay, and its state and latency unless
/// every delivery candidate failed) into a fan-out's running result. The
/// state is kept only where a reader waits for it: a fast-phase subtree of
/// Alg. 3 (`report_states`). Pure Alg. 1 and broadcast subtrees report no
/// state, so theirs is dropped here.
fn absorb<L>(
    (latency, states): &mut (u64, Vec<L>),
    child: Child,
    (delay, result): (u64, Option<(L, u64)>),
) {
    match result {
        // subtree unreachable: the time wasted waiting still counts
        None => *latency = (*latency).max(delay),
        Some((state, child_latency)) => {
            *latency = (*latency).max(delay + child_latency);
            if let Child::Fast {
                report_states: true,
            } = child
            {
                states.push(state);
            }
        }
    }
}

/// `sortLinks`: `links` in decreasing priority of their restricted
/// regions, tied links in link order. Each priority is computed once and
/// the links are stable-sorted on it, which yields exactly the permutation
/// of a stable comparator sort that calls `priority` on both sides of
/// every comparison.
pub(crate) fn sort_links<R, Q: RankQuery<R>>(
    q: &Q,
    links: Links<R>,
) -> impl Iterator<Item = (PeerId, R)> {
    let mut ranked: Vec<(f64, (PeerId, R))> = links
        .into_iter()
        .map(|link| (q.priority(&link.1), link))
        .collect();
    ranked.sort_by(|a, b| b.0.total_cmp(&a.0));
    ranked.into_iter().map(|(_, link)| link)
}

/// A peer mid-visit: what its epilogue needs once its links are done.
struct Visit<'v, R, L> {
    w: PeerId,
    view: LocalView<'v>,
    restriction: R,
    /// The peer's links intersected with `restriction`; each template
    /// takes them over.
    links: Links<R>,
    /// The peer's `Scanned` certificate tile, if certificates are on.
    scan_tile: Option<usize>,
    /// The peer's local state; `ripple` refines it link by link.
    local: L,
}

impl<'a, O: RippleOverlay, Q: RankQuery<O::Region>> Walk<'a, O, Q> {
    /// Runs `mode` from the session's initiator over the whole domain.
    fn start<F: FanOut<'a, O, Q>>(
        &'a self,
        fan: &mut F,
        mode: Mode,
        ledger: &mut BranchLedger,
    ) -> (Q::Local, u64) {
        let w = self.sess.initiator;
        let full = self.exec.net.full_region();
        let global = self.query.initial_global();
        match mode {
            Mode::Fast | Mode::Ripple(0) => self.fast(fan, w, &global, full, false, ledger),
            // Algorithm 2 is Algorithm 3 with a hop budget no walk exhausts.
            Mode::Slow => self.ripple(fan, w, &global, full, u32::MAX, ledger),
            Mode::Ripple(r) => self.ripple(fan, w, &global, full, r, ledger),
            Mode::Broadcast => self.broadcast(fan, w, &F::share(global), full, ledger),
        }
    }

    /// Marks a peer visited. The restriction areas guarantee each peer
    /// processes a query at most once; a second visit is a correctness
    /// anomaly, counted in [`QueryMetrics::duplicate_visits`] and surfaced
    /// all the way into the figure CSVs rather than tolerated silently.
    fn visit<F: FanOut<'a, O, Q>>(fan: &mut F, peer: PeerId, ledger: &mut BranchLedger) {
        if !fan.first_visit(peer) {
            ledger.metrics.duplicate_visits += 1;
        }
        ledger.metrics.visit(peer);
    }

    /// The prologue of every template: visit `w`, compute its local state
    /// over its view, and intersect its links with the restriction area in
    /// link order. Links plus the peer's zone tile the restriction area;
    /// the zone's `Scanned` tile is recorded here, ahead of every tile the
    /// links produce.
    fn arrive<F: FanOut<'a, O, Q>>(
        &'a self,
        fan: &mut F,
        w: PeerId,
        global: &Q::Global,
        restriction: O::Region,
        ledger: &mut BranchLedger,
    ) -> Visit<'a, O::Region, Q::Local> {
        let (exec, net) = (self.exec, self.exec.net);
        Self::visit(fan, w, ledger);
        let view = exec.view_of(w);
        let local = with_scan(exec.trace, &mut ledger.metrics, || {
            self.query.compute_local_state(&view, global)
        });
        let links = net.links_within(w, &restriction);
        let scan_tile = exec.certify_scan(w, &restriction, &links, ledger);
        Visit {
            w,
            view,
            restriction,
            links,
            scan_tile,
            local,
        }
    }

    /// The epilogue of every template: answer from the final local state
    /// and deposit the answer (through the commission-fault plane and the
    /// audit). An honest responder answers its zone from the state it
    /// *received*, `global` — exactly what a replica re-query reproduces
    /// after a failed audit. Returns the local state.
    fn depart(
        &self,
        at: Visit<'_, O::Region, Q::Local>,
        global: &Q::Global,
        ledger: &mut BranchLedger,
    ) -> Q::Local {
        let q = self.query;
        let answer = with_scan(self.exec.trace, &mut ledger.metrics, || {
            q.compute_local_answer(&at.view, &at.local)
        });
        let recompute = |t: &[Tuple]| replica_answer::<O::Region, Q>(q, t, global);
        self.exec.deposit_answer(
            at.w,
            &at.restriction,
            at.scan_tile,
            &self.sess,
            ledger,
            answer,
            &recompute,
        );
        at.local
    }

    /// Delivers the query from `w` along `link` and walks the subtree of
    /// the peer that adopts it as `child`. Returns the delivery delay and
    /// the subtree's state and latency (`None` when every delivery
    /// candidate failed).
    fn descend<F: FanOut<'a, O, Q>>(
        &'a self,
        fan: &mut F,
        w: PeerId,
        child: Child,
        (target, restricted): (PeerId, O::Region),
        global: &F::Shared,
        ledger: &mut BranchLedger,
    ) -> (u64, Option<(Q::Local, u64)>) {
        let g: &Q::Global = global.borrow();
        let answer = |t: &[Tuple]| replica_answer::<O::Region, Q>(self.query, t, g);
        let (delay, adopted) = self
            .exec
            .deliver(w, target, restricted, &self.sess, ledger, &answer);
        let result = adopted.map(|(dest, restricted)| match child {
            Child::Fast { report_states } => {
                self.fast(fan, dest, g, restricted, report_states, ledger)
            }
            Child::Broadcast => self.broadcast(fan, dest, global, restricted, ledger),
        });
        (delay, result)
    }

    /// Walks the subtrees below `links` on the calling thread, in link
    /// order, straight into `ledger`: the inline fan-out, and the pool's
    /// for a single link.
    fn fork_here<F: FanOut<'a, O, Q>>(
        &'a self,
        fan: &mut F,
        w: PeerId,
        child: Child,
        links: Links<O::Region>,
        global: &F::Shared,
        ledger: &mut BranchLedger,
    ) -> (u64, Vec<Q::Local>) {
        let mut out = (0, Vec::new());
        for link in links {
            let result = self.descend(fan, w, child, link, global, ledger);
            absorb(&mut out, child, result);
        }
        out
    }

    /// Algorithm 1 — and the fast phase of Algorithm 3 (a slow-phase peer
    /// with one hop of budget left hands each link to it) when
    /// `report_states` is set. Returns the peer's state and the completion
    /// latency of its restriction area.
    ///
    /// Under Algorithm 3 every fast-phase peer sends its local state
    /// directly to the last slow-phase ancestor `u` (Alg. 3 line 19, with
    /// `u` forwarded unchanged at line 15); the recursive return value
    /// models the union of those states (merged with `update_local_state`),
    /// and `report_states` charges one state-response message per peer.
    /// Under pure Algorithm 1 no state responses exist: none are charged,
    /// no subtree state is merged, and the returned state is the peer's own
    /// local state.
    fn fast<F: FanOut<'a, O, Q>>(
        &'a self,
        fan: &mut F,
        w: PeerId,
        global: &Q::Global,
        restriction: O::Region,
        report_states: bool,
        ledger: &mut BranchLedger,
    ) -> (Q::Local, u64) {
        let q = self.query;
        let mut at = self.arrive(fan, w, global, restriction, ledger);
        let intersected = std::mem::take(&mut at.links);
        let global_w = F::share(q.compute_global_state(global, &at.local));
        // `fast` never refines `global_w` between links, so relevance — and
        // the pruned tiles — is decided before any subtree runs.
        let mut links = Vec::with_capacity(intersected.len());
        for (target, restricted) in intersected {
            if q.is_link_relevant(&restricted, global_w.borrow()) {
                links.push((target, restricted));
            } else {
                self.exec
                    .certify_pruned(q, w, &restricted, global_w.borrow(), &self.sess, ledger);
            }
        }
        let child = Child::Fast { report_states };
        let (latency, mut states) = fan.fork(self, w, child, links, &global_w, ledger);
        let local = self.depart(at, global, ledger);
        if report_states {
            ledger.metrics.respond(q.state_payload(&local));
        }
        // Empty under pure Alg. 1: no subtree reports a state.
        let merged = if states.is_empty() {
            local
        } else {
            states.push(local);
            q.update_local_state(states)
        };
        (merged, latency)
    }

    /// Algorithm 3 with hop budget `r`: links are visited one at a time in
    /// decreasing priority, each waiting for the previous state response,
    /// until the budget runs out and `fast` takes over. With `r ≥ Δ` this
    /// is Algorithm 2. Returns the final local state and completion latency.
    fn ripple<F: FanOut<'a, O, Q>>(
        &'a self,
        fan: &mut F,
        w: PeerId,
        global: &Q::Global,
        restriction: O::Region,
        r: u32,
        ledger: &mut BranchLedger,
    ) -> (Q::Local, u64) {
        // `start` runs `Ripple(0)` as `fast`, and the recursion hands the
        // last hop of budget to `fast` directly.
        debug_assert!(r > 0, "ripple entered with no hop budget");
        let q = self.query;
        let mut at = self.arrive(fan, w, global, restriction, ledger);
        let links = sort_links(q, std::mem::take(&mut at.links));
        let mut global_w = q.compute_global_state(global, &at.local);

        let mut latency = 0u64;
        for (target, restricted) in links {
            if !q.is_link_relevant(&restricted, &global_w) {
                // pruned under the *refined* state, so certified mid-loop
                self.exec
                    .certify_pruned(q, w, &restricted, &global_w, &self.sess, ledger);
                continue;
            }
            // Re-created each iteration: recovery answers under the *current*
            // refined global state, exactly what this forward carried.
            let answer = |t: &[Tuple]| replica_answer::<O::Region, Q>(q, t, &global_w);
            let (delay, adopted) = self
                .exec
                .deliver(w, target, restricted, &self.sess, ledger, &answer);
            let Some((dest, restricted)) = adopted else {
                // unreachable: sequential mode pays the wait in full
                latency += delay;
                continue;
            };
            let (remote, child_latency) = if r == 1 {
                // Fast-phase peers charge their own state responses (they
                // report directly to this peer).
                self.fast(fan, dest, &global_w, restricted, true, ledger)
            } else {
                let out = self.ripple(fan, dest, &global_w, restricted, r - 1, ledger);
                ledger.metrics.respond(q.state_payload(&out.0));
                out
            };
            latency += delay + child_latency;
            at.local = q.update_local_state(vec![at.local, remote]);
            global_w = q.compute_global_state(global, &at.local);
        }
        (self.depart(at, global, ledger), latency)
    }

    /// Naive broadcast (Section 1): reach *every* peer in the restriction
    /// area in parallel, ignoring states; every peer answers from purely
    /// local knowledge, so one global state is shared down the whole tree.
    fn broadcast<F: FanOut<'a, O, Q>>(
        &'a self,
        fan: &mut F,
        w: PeerId,
        global: &F::Shared,
        restriction: O::Region,
        ledger: &mut BranchLedger,
    ) -> (Q::Local, u64) {
        let mut at = self.arrive(fan, w, global.borrow(), restriction, ledger);
        let links = std::mem::take(&mut at.links);
        let (latency, _) = fan.fork(self, w, Child::Broadcast, links, global, ledger);
        (self.depart(at, global.borrow(), ledger), latency)
    }
}
