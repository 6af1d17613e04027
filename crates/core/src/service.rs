//! The multi-tenant query frontier: a concurrent [`QueryService`] that
//! admits many in-flight rank queries against one shared overlay.
//!
//! The paper's framework answers one rank query well; a serving system
//! multiplexes thousands of concurrent ones. This module layers three
//! mechanisms over the single-query [`Executor`]:
//!
//! * **Inter-query scheduling** — N driver threads drain a bounded
//!   admission queue under *deficit round-robin* over per-tenant queues, so
//!   a flooding tenant cannot starve a light one beyond the configured
//!   quantum. Each driver runs its query through the existing intra-query
//!   pool ([`Executor::run_parallel`]), so N drivers × M workers compose:
//!   total live workers never exceed `drivers × (1 + intra_query_threads)`.
//! * **The epoch handshake** — the overlay sits behind an `RwLock`: queries
//!   execute under a read guard and pin `snapshot_generation()` once, while
//!   mutations ([`QueryService::advance_epoch`]) take the write lock. A
//!   query can therefore never straddle a generation bump — structurally,
//!   not by convention — and every certificate's generation stamp equals
//!   the pinned one (asserted after every execution).
//! * **A shared, sharded result cache** — keyed by
//!   `ScoreFn::cache_key` × query shape × *generation*, so a stale-
//!   generation hit is impossible by construction; bumps additionally purge
//!   wholesale so dead entries do not accumulate. Only complete-coverage
//!   outcomes are installed, and the final answer of a served query type is
//!   a pure function of (dataset, query) — initiator- and mode-invariant —
//!   which is what makes cross-tenant reuse sound.
//!
//! Queries run by the service are *bit-identical* to a lone
//! [`Executor::run`] at the same generation: the serving counters the
//! service stamps on the ledger ([`queue_wait_ns`], [`cache_hit`],
//! [`served_generation`]) are excluded from `QueryMetrics` equality, so the
//! equivalence gates keep comparing with `==`.
//!
//! [`queue_wait_ns`]: QueryMetrics::queue_wait_ns
//! [`cache_hit`]: QueryMetrics::cache_hit
//! [`served_generation`]: QueryMetrics::served_generation

use crate::exec::Executor;
use crate::framework::{Coverage, Mode, RankQuery, RippleOverlay};
use crate::topk::{run_topk_certified_par, TopKQuery, TopKState};
use ripple_geom::{LinearScore, Norm, PeakScore, Rect, ScoreFn, Tuple};
use ripple_net::{PeerId, QueryMetrics};
use ripple_verify::Certificate;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::Instant;

/// A scoring function in wire form: the closed set of score families the
/// service accepts (ad-hoc closures cannot cross an admission queue).
#[derive(Clone, Debug, PartialEq)]
pub enum ServiceScore {
    /// `LinearScore` with the given weights.
    Linear(Vec<f64>),
    /// `PeakScore` with the given peak and norm.
    Peak(Vec<f64>, Norm),
}

/// A rank query in wire form.
#[derive(Clone, Debug, PartialEq)]
pub enum ServiceQuery {
    /// Top-k under a unimodal score.
    TopK {
        /// The scoring function.
        score: ServiceScore,
        /// Number of results requested.
        k: usize,
    },
    /// Skyline, optionally constrained to a box.
    Skyline {
        /// The constraint box, or `None` for the full domain.
        constraint: Option<Rect>,
    },
}

impl ServiceQuery {
    /// The cache key of this query's *shape*, or `None` when the query is
    /// not cacheable (ad-hoc parameters would be, had the wire form any).
    /// Two queries with equal shape keys have equal final answers at equal
    /// generations: the served answer is a pure function of (dataset,
    /// shape) — ranked by (score desc, id asc) for top-k, id-sorted for
    /// skyline — independent of initiator, mode and thread count.
    pub fn shape_key(&self) -> Option<u64> {
        let mut h = DefaultHasher::new();
        match self {
            ServiceQuery::TopK { score, k } => {
                0u8.hash(&mut h);
                match score {
                    ServiceScore::Linear(w) => ripple_geom::LinearScore::new(w.clone())
                        .cache_key()?
                        .hash(&mut h),
                    ServiceScore::Peak(p, norm) => ripple_geom::PeakScore::new(p.clone(), *norm)
                        .cache_key()?
                        .hash(&mut h),
                }
                k.hash(&mut h);
            }
            ServiceQuery::Skyline { constraint } => {
                1u8.hash(&mut h);
                if let Some(c) = constraint {
                    for v in c.lo().coords().iter().chain(c.hi().coords()) {
                        v.to_bits().hash(&mut h);
                    }
                }
            }
        }
        Some(h.finish())
    }
}

/// One executed (or cache-served) query outcome, as produced by a
/// substrate's [`Servable::serve`].
#[derive(Clone, Debug)]
pub struct Served {
    /// The final answer, in the query type's canonical order.
    pub answers: Vec<Tuple>,
    /// The cost ledger of the execution.
    pub metrics: QueryMetrics,
    /// The coverage report.
    pub coverage: Coverage,
    /// The answer certificate, when the executor emits them.
    pub certificate: Option<Certificate>,
}

/// What an overlay must provide to sit behind a [`QueryService`]: execute a
/// wire-form query through an executor. Substrates advertise which query
/// types they support (Chord, whose regions are ring segments, serves
/// top-k but not skyline), and unsupported queries are rejected at
/// admission instead of panicking a driver.
pub trait Servable: RippleOverlay + Sync + Sized {
    /// True when this substrate can execute `query`.
    fn supports(query: &ServiceQuery) -> bool;

    /// Executes `query` through `exec`, with up to `threads` extra
    /// intra-query workers (0 or 1 = sequential). Implementations must be
    /// bit-identical to the corresponding sequential certified runner.
    fn serve(
        exec: &Executor<'_, Self>,
        initiator: PeerId,
        query: &ServiceQuery,
        mode: Mode,
        threads: usize,
    ) -> Served;
}

/// The [`ServiceQuery::TopK`] arm of [`Servable::serve`], for every
/// substrate with a top-k instantiation over its regions: runs the
/// certified top-k under the wire-form score.
pub fn serve_topk<O>(
    exec: &Executor<'_, O>,
    initiator: PeerId,
    score: &ServiceScore,
    k: usize,
    mode: Mode,
    threads: usize,
) -> Served
where
    O: RippleOverlay + Sync,
    O::Region: Send,
    TopKQuery<LinearScore>: RankQuery<O::Region, Global = TopKState, Local = TopKState>,
    TopKQuery<PeakScore>: RankQuery<O::Region, Global = TopKState, Local = TopKState>,
{
    let (answers, metrics, coverage, certificate) = match score {
        ServiceScore::Linear(w) => {
            let score = LinearScore::new(w.clone());
            run_topk_certified_par(exec, initiator, score, k, mode, threads)
        }
        ServiceScore::Peak(p, norm) => {
            let score = PeakScore::new(p.clone(), *norm);
            run_topk_certified_par(exec, initiator, score, k, mode, threads)
        }
    };
    Served {
        answers,
        metrics,
        coverage,
        certificate,
    }
}

/// Why the service declined or abandoned a query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// The admission queue is at capacity; the caller should back off.
    QueueFull,
    /// The substrate does not support this query type.
    Unsupported,
    /// The service shut down before the query ran.
    Shutdown,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::QueueFull => write!(f, "admission queue full"),
            ServiceError::Unsupported => write!(f, "query type unsupported by substrate"),
            ServiceError::Shutdown => write!(f, "service shut down"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// A completed query as delivered to the submitting client.
#[derive(Clone, Debug)]
pub struct ServiceResponse {
    /// The final answer, in the query type's canonical order.
    pub answers: Vec<Tuple>,
    /// The cost ledger, with the serving counters stamped.
    pub metrics: QueryMetrics,
    /// The coverage report.
    pub coverage: Coverage,
    /// The answer certificate (shared when served from cache).
    pub certificate: Option<Arc<Certificate>>,
    /// The overlay generation the query was pinned to.
    pub generation: u64,
    /// True when the answer came from the shared result cache.
    pub cache_hit: bool,
}

type ServiceResult = Result<ServiceResponse, ServiceError>;

/// The rendezvous for one admitted query: the driver deposits the result,
/// the client blocks on [`Ticket::wait`].
struct TicketInner {
    slot: Mutex<Option<ServiceResult>>,
    ready: Condvar,
}

/// A claim on one admitted query's eventual result.
pub struct Ticket(Arc<TicketInner>);

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Ticket")
    }
}

impl Ticket {
    /// Blocks until the query completes and returns its result.
    pub fn wait(self) -> ServiceResult {
        let mut slot = self.0.slot.lock().expect("ticket poisoned");
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self.0.ready.wait(slot).expect("ticket poisoned");
        }
    }
}

fn complete(ticket: &Arc<TicketInner>, result: ServiceResult) {
    let mut slot = ticket.slot.lock().expect("ticket poisoned");
    *slot = Some(result);
    ticket.ready.notify_all();
}

/// Serving configuration.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Driver threads draining the frontier. `0` spawns none: queries are
    /// executed by explicit [`QueryService::step`] calls (deterministic
    /// single-threaded mode, used by the fairness and property tests).
    pub drivers: usize,
    /// Extra intra-query workers per driver (`Executor::run_parallel`'s
    /// thread budget; 0 or 1 = sequential). Total live workers are bounded
    /// by `drivers × (1 + intra_query_threads)` — size the product to the
    /// host's cores to avoid oversubscription.
    pub intra_query_threads: usize,
    /// Admission queue capacity across all tenants; submissions beyond it
    /// are rejected with [`ServiceError::QueueFull`].
    pub queue_capacity: usize,
    /// Deficit-round-robin quantum: queries a tenant may run per ring
    /// visit. With `T` active tenants, a light tenant's head-of-queue wait
    /// is bounded by `(T - 1) × quantum` dequeues.
    pub quantum: u64,
    /// Number of result-cache shards (rounded up to a power of two).
    pub cache_shards: usize,
    /// Master switch for the shared result cache.
    pub cache: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            drivers: 1,
            intra_query_threads: 0,
            queue_capacity: 1024,
            quantum: 4,
            cache_shards: 8,
            cache: true,
        }
    }
}

/// Lifetime counters of one tenant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Queries accepted into the frontier.
    pub admitted: u64,
    /// Queries rejected at admission (queue full or unsupported).
    pub rejected: u64,
    /// Queries completed (executed or cache-served).
    pub completed: u64,
    /// Completed queries answered from the shared result cache.
    pub cache_hits: u64,
    /// Total nanoseconds the tenant's completed queries waited in the
    /// frontier.
    pub queue_wait_ns: u64,
}

/// Lifetime counters of the whole service.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Queries accepted across all tenants.
    pub admitted: u64,
    /// Queries rejected across all tenants.
    pub rejected: u64,
    /// Queries completed across all tenants.
    pub completed: u64,
    /// Completed queries answered from the cache.
    pub cache_hits: u64,
    /// Cache entries dropped by generation-bump purges.
    pub cache_invalidated: u64,
    /// Peers currently quarantined by the overlay's commission-fault
    /// registry (0 when the substrate has no quarantine).
    pub quarantined_peers: u64,
    /// Peers currently on probation (quarantined peers granted one audited
    /// re-trial by an epoch advance).
    pub probation_peers: u64,
}

/// One admitted query waiting in (or popped from) the frontier.
struct PendingQuery {
    tenant: u32,
    initiator: PeerId,
    query: ServiceQuery,
    mode: Mode,
    enqueued: Instant,
    ticket: Arc<TicketInner>,
}

/// One tenant's queue plus its deficit-round-robin account.
#[derive(Default)]
struct TenantQueue {
    q: VecDeque<PendingQuery>,
    /// Remaining serve credit for the current ring visit; recharged by
    /// `quantum` when the tenant reaches the ring head with zero credit.
    deficit: u64,
    stats: TenantStats,
}

/// The admission queue: per-tenant FIFOs drained deficit-round-robin.
struct Frontier {
    tenants: HashMap<u32, TenantQueue>,
    /// Tenants with queued work, in service order.
    ring: VecDeque<u32>,
    len: usize,
    shutdown: bool,
    stats: ServiceStats,
}

impl Frontier {
    fn new() -> Self {
        Self {
            tenants: HashMap::new(),
            ring: VecDeque::new(),
            len: 0,
            shutdown: false,
            stats: ServiceStats::default(),
        }
    }

    fn push(&mut self, item: PendingQuery, capacity: usize) -> Result<(), ServiceError> {
        if self.shutdown {
            return Err(ServiceError::Shutdown);
        }
        let id = item.tenant;
        let tenant = self.tenants.entry(id).or_default();
        if self.len >= capacity {
            tenant.stats.rejected += 1;
            self.stats.rejected += 1;
            return Err(ServiceError::QueueFull);
        }
        let was_empty = tenant.q.is_empty();
        tenant.q.push_back(item);
        tenant.stats.admitted += 1;
        self.stats.admitted += 1;
        self.len += 1;
        if was_empty {
            self.ring.push_back(id);
        }
        Ok(())
    }

    /// Deficit round-robin: the head tenant recharges `quantum` credit on
    /// arrival, spends one credit per query, and rotates to the ring back
    /// when its credit runs out (or leaves the ring when its queue drains).
    fn pop(&mut self, quantum: u64) -> Option<PendingQuery> {
        while let Some(&head) = self.ring.front() {
            let tq = self.tenants.get_mut(&head).expect("ring tenant exists");
            if tq.q.is_empty() {
                tq.deficit = 0;
                self.ring.pop_front();
                continue;
            }
            if tq.deficit == 0 {
                tq.deficit = quantum.max(1);
            }
            let item = tq.q.pop_front().expect("non-empty queue");
            tq.deficit -= 1;
            self.len -= 1;
            if tq.q.is_empty() {
                tq.deficit = 0;
                self.ring.pop_front();
            } else if tq.deficit == 0 {
                self.ring.rotate_left(1);
            }
            return Some(item);
        }
        None
    }
}

/// One cached answer; shared by every hit at its generation.
struct CacheEntry {
    answers: Vec<Tuple>,
    coverage: Coverage,
    certificate: Option<Arc<Certificate>>,
}

/// One cache shard: (shape, generation) → shared entry.
type CacheShard = Mutex<HashMap<(u64, u64), Arc<CacheEntry>>>;

/// The shared result cache: sharded by key hash, keyed by
/// (shape, generation). The generation in the key is what makes a
/// stale-generation hit structurally impossible; the wholesale purge on
/// bumps merely reclaims memory.
struct ResultCache {
    shards: Box<[CacheShard]>,
    mask: u64,
}

impl ResultCache {
    fn new(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        Self {
            shards: (0..n).map(|_| Mutex::new(HashMap::new())).collect(),
            mask: (n - 1) as u64,
        }
    }

    fn shard(&self, shape: u64) -> &CacheShard {
        &self.shards[(shape & self.mask) as usize]
    }

    fn get(&self, shape: u64, generation: u64) -> Option<Arc<CacheEntry>> {
        self.shard(shape)
            .lock()
            .expect("cache shard poisoned")
            .get(&(shape, generation))
            .cloned()
    }

    fn insert(&self, shape: u64, generation: u64, entry: Arc<CacheEntry>) {
        self.shard(shape)
            .lock()
            .expect("cache shard poisoned")
            .insert((shape, generation), entry);
    }

    /// Drops every entry, returning how many were purged.
    fn purge(&self) -> u64 {
        let mut dropped = 0u64;
        for shard in self.shards.iter() {
            let mut map = shard.lock().expect("cache shard poisoned");
            dropped += map.len() as u64;
            map.clear();
        }
        dropped
    }
}

/// Shared state between the service handle and its driver threads.
struct ServiceInner<O> {
    net: RwLock<O>,
    frontier: Mutex<Frontier>,
    work: Condvar,
    cache: Option<ResultCache>,
    config: ServiceConfig,
}

impl<O: Servable> ServiceInner<O> {
    /// Executes (or cache-serves) one popped query and completes its
    /// ticket. Runs under the overlay read lock: the pinned generation
    /// cannot change for the duration.
    fn execute(&self, pending: PendingQuery) {
        let wait_ns = pending.enqueued.elapsed().as_nanos() as u64;
        let net = self.net.read().expect("overlay lock poisoned");
        let generation = net.snapshot_generation();
        let shape = self.cache.as_ref().and_then(|_| pending.query.shape_key());

        let (mut served, certificate, cache_hit) =
            match shape.and_then(|s| self.cache.as_ref().and_then(|c| c.get(s, generation))) {
                Some(entry) => {
                    // A hit replays the cached outcome: zero network cost. The
                    // certificate is the original execution's and still
                    // verifies — it carries this same generation.
                    let served = Served {
                        answers: entry.answers.clone(),
                        metrics: QueryMetrics::new(),
                        coverage: entry.coverage.clone(),
                        certificate: None,
                    };
                    (served, entry.certificate.clone(), true)
                }
                None => {
                    let exec = Executor::new(&*net);
                    let served = O::serve(
                        &exec,
                        pending.initiator,
                        &pending.query,
                        pending.mode,
                        self.config.intra_query_threads,
                    );
                    if let Some(cert) = &served.certificate {
                        assert_eq!(
                            cert.generation, generation,
                            "epoch handshake violated: a query straddled a generation bump"
                        );
                    }
                    let certificate = served.certificate.clone().map(Arc::new);
                    if let (Some(shape), Some(cache)) = (shape, self.cache.as_ref()) {
                        // Only complete answers are reusable: a degraded answer
                        // is initiator-dependent (it reflects which restriction
                        // areas that particular walk abandoned).
                        if served.coverage.is_complete() {
                            cache.insert(
                                shape,
                                generation,
                                Arc::new(CacheEntry {
                                    answers: served.answers.clone(),
                                    coverage: served.coverage.clone(),
                                    certificate: certificate.clone(),
                                }),
                            );
                        }
                    }
                    (served, certificate, false)
                }
            };
        drop(net);

        served.metrics.queue_wait_ns = wait_ns;
        served.metrics.cache_hit = cache_hit;
        served.metrics.served_generation = Some(generation);
        {
            let mut frontier = self.frontier.lock().expect("frontier poisoned");
            let tq = frontier.tenants.entry(pending.tenant).or_default();
            tq.stats.completed += 1;
            tq.stats.cache_hits += u64::from(cache_hit);
            tq.stats.queue_wait_ns += wait_ns;
            frontier.stats.completed += 1;
            frontier.stats.cache_hits += u64::from(cache_hit);
        }
        complete(
            &pending.ticket,
            Ok(ServiceResponse {
                answers: served.answers,
                metrics: served.metrics,
                coverage: served.coverage,
                certificate,
                generation,
                cache_hit,
            }),
        );
    }

    /// Driver loop: drain the frontier, sleeping on the condvar when idle;
    /// exit once shut down *and* drained (admitted queries always
    /// complete).
    fn drive(&self) {
        loop {
            let pending = {
                let mut frontier = self.frontier.lock().expect("frontier poisoned");
                loop {
                    if let Some(p) = frontier.pop(self.config.quantum) {
                        break Some(p);
                    }
                    if frontier.shutdown {
                        break None;
                    }
                    frontier = self.work.wait(frontier).expect("frontier poisoned");
                }
            };
            match pending {
                Some(p) => self.execute(p),
                None => return,
            }
        }
    }
}

/// The multi-tenant query frontier (see the module docs).
pub struct QueryService<O: Servable> {
    inner: Arc<ServiceInner<O>>,
    drivers: Vec<std::thread::JoinHandle<()>>,
}

impl<O: Servable + Send + 'static> QueryService<O> {
    /// Wraps `net` in a service and spawns the configured driver threads.
    pub fn new(net: O, config: ServiceConfig) -> Self {
        let inner = Arc::new(ServiceInner {
            net: RwLock::new(net),
            frontier: Mutex::new(Frontier::new()),
            work: Condvar::new(),
            cache: config.cache.then(|| ResultCache::new(config.cache_shards)),
            config,
        });
        let drivers = (0..inner.config.drivers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("ripple-driver-{i}"))
                    .spawn(move || inner.drive())
                    .expect("spawn driver")
            })
            .collect();
        Self { inner, drivers }
    }

    /// Submits a query for `tenant`. Admission is synchronous: unsupported
    /// query types and a full queue are rejected here; an `Ok` ticket is a
    /// promise that the query will complete (executed, cache-served, or —
    /// if the service is dropped first — failed with
    /// [`ServiceError::Shutdown`]).
    pub fn submit(
        &self,
        tenant: u32,
        initiator: PeerId,
        query: ServiceQuery,
        mode: Mode,
    ) -> Result<Ticket, ServiceError> {
        let mut frontier = self.inner.frontier.lock().expect("frontier poisoned");
        if !O::supports(&query) {
            let tq = frontier.tenants.entry(tenant).or_default();
            tq.stats.rejected += 1;
            frontier.stats.rejected += 1;
            return Err(ServiceError::Unsupported);
        }
        let ticket = Arc::new(TicketInner {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        });
        frontier.push(
            PendingQuery {
                tenant,
                initiator,
                query,
                mode,
                enqueued: Instant::now(),
                ticket: Arc::clone(&ticket),
            },
            self.inner.config.queue_capacity,
        )?;
        drop(frontier);
        self.inner.work.notify_one();
        Ok(Ticket(ticket))
    }

    /// Pops and executes one queued query on the calling thread. Returns
    /// `false` when the frontier is empty. This is the `drivers: 0`
    /// execution mode: deterministic, single-threaded, used by the
    /// fairness and property tests (it observes exactly the same DRR order
    /// a lone driver would).
    pub fn step(&self) -> bool {
        let pending = {
            let mut frontier = self.inner.frontier.lock().expect("frontier poisoned");
            frontier.pop(self.inner.config.quantum)
        };
        match pending {
            Some(p) => {
                self.inner.execute(p);
                true
            }
            None => false,
        }
    }

    /// Runs [`step`](QueryService::step) until the frontier is empty.
    pub fn drain(&self) {
        while self.step() {}
    }

    /// Applies a mutation to the overlay under the write lock — no query
    /// is in flight while `f` runs, so none can straddle the bump — and
    /// purges the result cache if the generation changed. Returns `f`'s
    /// result.
    pub fn advance_epoch<T>(&self, f: impl FnOnce(&mut O) -> T) -> T {
        let mut net = self.inner.net.write().expect("overlay lock poisoned");
        let before = net.snapshot_generation();
        let out = f(&mut net);
        let after = net.snapshot_generation();
        if after != before {
            // An epoch advance is the quarantine amnesty point: quarantined
            // peers move to probation and earn their way back by passing
            // one audited query. Done under the write lock, so no query
            // observes a half-granted registry.
            if let Some(q) = net.quarantine() {
                q.grant_probation();
            }
        }
        drop(net);
        if after != before {
            if let Some(cache) = self.inner.cache.as_ref() {
                let dropped = cache.purge();
                let mut frontier = self.inner.frontier.lock().expect("frontier poisoned");
                frontier.stats.cache_invalidated += dropped;
            }
        }
        out
    }

    /// Read access to the overlay (shares the epoch read lock with
    /// executing queries).
    pub fn with_network<T>(&self, f: impl FnOnce(&O) -> T) -> T {
        f(&self.inner.net.read().expect("overlay lock poisoned"))
    }

    /// The overlay's current generation.
    pub fn generation(&self) -> u64 {
        self.with_network(|net| net.snapshot_generation())
    }

    /// Number of queries currently waiting in the frontier.
    pub fn queue_len(&self) -> usize {
        self.inner.frontier.lock().expect("frontier poisoned").len
    }

    /// Lifetime counters of the whole service, with the overlay's current
    /// quarantine standing overlaid (frontier lock and overlay lock are
    /// taken in sequence, never nested).
    pub fn stats(&self) -> ServiceStats {
        let mut stats = self.inner.frontier.lock().expect("frontier poisoned").stats;
        let net = self.inner.net.read().expect("overlay lock poisoned");
        if let Some(q) = net.quarantine() {
            stats.quarantined_peers = q.quarantined() as u64;
            stats.probation_peers = q.on_probation() as u64;
        }
        stats
    }

    /// Lifetime counters of one tenant (all-zero for unknown tenants).
    pub fn tenant_stats(&self, tenant: u32) -> TenantStats {
        self.inner
            .frontier
            .lock()
            .expect("frontier poisoned")
            .tenants
            .get(&tenant)
            .map(|t| t.stats)
            .unwrap_or_default()
    }

    /// Shuts down: drivers finish draining every admitted query, then
    /// exit; with no drivers, remaining queued queries are failed with
    /// [`ServiceError::Shutdown`]. Dropping the service does the same.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl<O: Servable> Drop for QueryService<O> {
    fn drop(&mut self) {
        {
            let mut frontier = self.inner.frontier.lock().expect("frontier poisoned");
            frontier.shutdown = true;
        }
        self.inner.work.notify_all();
        for handle in self.drivers.drain(..) {
            let _ = handle.join();
        }
        let mut frontier = self.inner.frontier.lock().expect("frontier poisoned");
        while let Some(p) = frontier.pop(self.inner.config.quantum) {
            complete(&p.ticket, Err(ServiceError::Shutdown));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_midas::MidasNetwork;
    use ripple_net::rng::rngs::SmallRng;
    use ripple_net::rng::{Rng, SeedableRng};
    use ripple_net::Substrate;
    use ripple_verify::verify_topk;

    fn loaded_net(dims: usize, peers: usize, tuples: u64, seed: u64) -> (MidasNetwork, SmallRng) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut net = MidasNetwork::build(dims, peers, false, &mut rng);
        for i in 0..tuples {
            let t = Tuple::new(i, (0..dims).map(|_| rng.gen::<f64>()).collect::<Vec<_>>());
            net.insert_tuple(t);
        }
        (net, rng)
    }

    fn manual_config() -> ServiceConfig {
        ServiceConfig {
            drivers: 0,
            ..ServiceConfig::default()
        }
    }

    fn linear_topk(seed: u64, k: usize) -> ServiceQuery {
        // distinct weights per seed: distinct shape keys, so no cache reuse
        let w = vec![1.0, 1.0 + seed as f64 / 64.0];
        ServiceQuery::TopK {
            score: ServiceScore::Linear(w),
            k,
        }
    }

    /// Satellite (f): deficit round-robin bounds a flooding tenant. Tenant
    /// 0 floods 60 queries, tenant 1 submits 6 afterwards; with quantum Q
    /// the light tenant's whole batch completes within the first
    /// `ceil(6/Q) * 2Q` dequeues, and its queue waits sit far below the
    /// flood tenant's upper percentiles.
    #[test]
    fn fairness_flood_tenant_cannot_starve_light_tenant() {
        let (net, mut rng) = loaded_net(2, 24, 200, 41);
        let initiator = net.random_peer(&mut rng);
        let quantum = 4u64;
        let service = QueryService::new(
            net,
            ServiceConfig {
                drivers: 0,
                quantum,
                cache: false, // every query must really execute
                queue_capacity: 1 << 12,
                ..ServiceConfig::default()
            },
        );
        let flood_n = 60u64;
        let light_n = 6u64;
        let mut tickets = Vec::new();
        for i in 0..flood_n {
            tickets.push(
                service
                    .submit(0, initiator, linear_topk(i, 5), Mode::Fast)
                    .expect("admit flood"),
            );
        }
        for i in 0..light_n {
            tickets.push(
                service
                    .submit(1, initiator, linear_topk(100 + i, 5), Mode::Fast)
                    .expect("admit light"),
            );
        }
        // step one query at a time, recording which tenant completed
        let mut order = Vec::new();
        let mut prev = (
            service.tenant_stats(0).completed,
            service.tenant_stats(1).completed,
        );
        while service.step() {
            let now = (
                service.tenant_stats(0).completed,
                service.tenant_stats(1).completed,
            );
            order.push(if now.0 > prev.0 { 0u32 } else { 1u32 });
            prev = now;
        }
        assert_eq!(order.len() as u64, flood_n + light_n);
        let last_light = order
            .iter()
            .rposition(|&t| t == 1)
            .expect("light tenant ran") as u64;
        // DRR bound: the light tenant needs ceil(6/Q) ring visits; each
        // full round serves at most Q flood queries before returning.
        let rounds = light_n.div_ceil(quantum);
        let bound = rounds * 2 * quantum;
        assert!(
            last_light < bound,
            "light tenant finished at position {last_light}, deficit bound {bound}"
        );

        // queue_wait percentiles: light p95 must sit well below flood p95
        let mut flood_waits = Vec::new();
        let mut light_waits = Vec::new();
        for (i, t) in tickets.into_iter().enumerate() {
            let r = t.wait().expect("completed");
            if (i as u64) < flood_n {
                flood_waits.push(r.metrics.queue_wait_ns);
            } else {
                light_waits.push(r.metrics.queue_wait_ns);
            }
        }
        flood_waits.sort_unstable();
        light_waits.sort_unstable();
        let f_p95 = flood_waits[((flood_waits.len() - 1) as f64 * 0.95) as usize];
        let l_p95 = light_waits[((light_waits.len() - 1) as f64 * 0.95) as usize];
        assert!(
            l_p95 < f_p95,
            "light tenant p95 wait {l_p95}ns must undercut flood p95 {f_p95}ns"
        );
        let s0 = service.tenant_stats(0);
        let s1 = service.tenant_stats(1);
        assert_eq!(s0.admitted, flood_n);
        assert_eq!(s0.completed, flood_n);
        assert_eq!(s1.admitted, light_n);
        assert_eq!(s1.completed, light_n);
    }

    #[test]
    fn drr_pop_interleaves_by_quantum() {
        // pure frontier check, no network: quantum 2, tenants A=6, B=2
        let mut f = Frontier::new();
        let ticket = || {
            Arc::new(TicketInner {
                slot: Mutex::new(None),
                ready: Condvar::new(),
            })
        };
        let item = |tenant: u32| PendingQuery {
            tenant,
            initiator: PeerId::new(0),
            query: ServiceQuery::Skyline { constraint: None },
            mode: Mode::Fast,
            enqueued: Instant::now(),
            ticket: ticket(),
        };
        for _ in 0..6 {
            f.push(item(0), usize::MAX).unwrap();
        }
        for _ in 0..2 {
            f.push(item(1), usize::MAX).unwrap();
        }
        let mut order = Vec::new();
        while let Some(p) = f.pop(2) {
            order.push(p.tenant);
            complete(&p.ticket, Err(ServiceError::Shutdown));
        }
        assert_eq!(order, vec![0, 0, 1, 1, 0, 0, 0, 0]);
    }

    #[test]
    fn admission_queue_capacity_rejects() {
        let (net, mut rng) = loaded_net(2, 16, 100, 43);
        let initiator = net.random_peer(&mut rng);
        let service = QueryService::new(
            net,
            ServiceConfig {
                drivers: 0,
                queue_capacity: 2,
                ..ServiceConfig::default()
            },
        );
        let _a = service
            .submit(7, initiator, linear_topk(0, 3), Mode::Fast)
            .unwrap();
        let _b = service
            .submit(7, initiator, linear_topk(1, 3), Mode::Fast)
            .unwrap();
        let err = service
            .submit(7, initiator, linear_topk(2, 3), Mode::Fast)
            .unwrap_err();
        assert_eq!(err, ServiceError::QueueFull);
        assert_eq!(service.tenant_stats(7).rejected, 1);
        assert_eq!(service.stats().rejected, 1);
        service.drain();
        assert_eq!(service.stats().completed, 2);
    }

    #[test]
    fn cache_hits_are_free_and_generation_keyed() {
        let (net, mut rng) = loaded_net(2, 32, 300, 45);
        let initiator = net.random_peer(&mut rng);
        let other = net.random_peer(&mut rng);
        let service = QueryService::new(net, manual_config());
        let g0 = service.generation();
        let q = ServiceQuery::TopK {
            score: ServiceScore::Peak(vec![0.4, 0.6], Norm::L2),
            k: 8,
        };

        let t1 = service.submit(1, initiator, q.clone(), Mode::Fast).unwrap();
        // different tenant, different initiator, different mode: still a hit
        let t2 = service
            .submit(2, other, q.clone(), Mode::Ripple(2))
            .unwrap();
        service.drain();
        let r1 = t1.wait().unwrap();
        let r2 = t2.wait().unwrap();
        assert!(!r1.cache_hit);
        assert!(r2.cache_hit, "same shape at same generation must hit");
        assert_eq!(r2.metrics.total_messages(), 0, "hits are free");
        assert_eq!(r2.metrics.latency, 0);
        assert_eq!(r1.answers, r2.answers);
        assert_eq!(r1.generation, g0);
        assert_eq!(r2.generation, g0);
        // the shared certificate still verifies against the claimed generation
        let cert = r2
            .certificate
            .as_ref()
            .expect("hit carries the certificate");
        let score = ripple_geom::PeakScore::new(vec![0.4, 0.6], Norm::L2);
        verify_topk(cert, &r2.answers, &score, 8, r2.generation).expect("cached cert verifies");
        assert_eq!(service.stats().cache_hits, 1);
        assert_eq!(service.tenant_stats(2).cache_hits, 1);

        // a generation bump purges and re-keys: the same shape misses
        service.advance_epoch(|net| {
            net.insert_tuple(Tuple::new(10_000, vec![0.41, 0.59]));
        });
        assert!(service.stats().cache_invalidated >= 1);
        let t3 = service.submit(1, initiator, q, Mode::Fast).unwrap();
        service.drain();
        let r3 = t3.wait().unwrap();
        assert!(!r3.cache_hit, "stale-generation hit must be impossible");
        assert!(r3.generation > g0);
        assert!(
            r3.answers.iter().any(|t| t.id == 10_000),
            "post-bump answer sees the new tuple"
        );
    }

    /// The epoch handshake: a served certificate's generation always equals
    /// the response's pinned generation, before and after bumps.
    #[test]
    fn served_queries_pin_one_generation() {
        let (net, mut rng) = loaded_net(2, 24, 200, 47);
        let initiator = net.random_peer(&mut rng);
        let service = QueryService::new(net, manual_config());
        for round in 0..3u64 {
            let g = service.generation();
            let t = service
                .submit(0, initiator, linear_topk(round, 5), Mode::Fast)
                .unwrap();
            service.drain();
            let r = t.wait().unwrap();
            assert_eq!(r.generation, g);
            assert_eq!(r.certificate.as_ref().unwrap().generation, g);
            assert_eq!(r.metrics.served_generation, Some(g));
            service.advance_epoch(|net| {
                let mut rng = SmallRng::seed_from_u64(round);
                net.join_random(&mut rng);
            });
            assert!(service.generation() > g);
        }
    }

    /// N drivers × M workers: a concurrently-driven batch is bit-identical
    /// (answers, ledger, coverage, certificate) to lone sequential
    /// `Executor::run`s at the same generation.
    #[test]
    fn concurrent_drivers_match_standalone_execution() {
        let (net, mut rng) = loaded_net(2, 32, 400, 49);
        let initiators: Vec<PeerId> = (0..12).map(|_| net.random_peer(&mut rng)).collect();
        let service = QueryService::new(
            net,
            ServiceConfig {
                drivers: 3,
                intra_query_threads: 2,
                cache: false, // every query executes: full ledger comparison
                ..ServiceConfig::default()
            },
        );
        let modes = [Mode::Fast, Mode::Ripple(1), Mode::Broadcast];
        let tickets: Vec<(u64, PeerId, Mode, Ticket)> = initiators
            .iter()
            .enumerate()
            .map(|(i, &init)| {
                let mode = modes[i % modes.len()];
                let t = service
                    .submit(i as u32 % 4, init, linear_topk(i as u64, 7), mode)
                    .expect("admit");
                (i as u64, init, mode, t)
            })
            .collect();
        for (i, init, mode, ticket) in tickets {
            let r = ticket.wait().expect("completed");
            service.with_network(|net| {
                let exec = Executor::new(net);
                let w = vec![1.0, 1.0 + i as f64 / 64.0];
                let (answers, metrics, coverage, cert) = crate::topk::run_topk_certified(
                    &exec,
                    init,
                    ripple_geom::LinearScore::new(w),
                    7,
                    mode,
                );
                assert_eq!(r.answers, answers, "answers (query {i})");
                assert_eq!(r.metrics, metrics, "ledger incl. visit trace (query {i})");
                assert_eq!(r.coverage, coverage, "coverage (query {i})");
                assert_eq!(
                    r.certificate.as_deref(),
                    cert.as_ref(),
                    "certificate (query {i})"
                );
            });
        }
    }

    #[test]
    fn drop_fails_undrained_tickets_with_shutdown() {
        let (net, mut rng) = loaded_net(2, 16, 100, 51);
        let initiator = net.random_peer(&mut rng);
        let service = QueryService::new(net, manual_config());
        let t = service
            .submit(0, initiator, linear_topk(0, 3), Mode::Fast)
            .unwrap();
        drop(service);
        assert_eq!(t.wait().unwrap_err(), ServiceError::Shutdown);
    }

    #[test]
    fn shape_keys_separate_query_shapes() {
        let a = linear_topk(1, 5).shape_key();
        let b = linear_topk(2, 5).shape_key();
        let c = linear_topk(1, 6).shape_key();
        assert_ne!(a, b, "weights key");
        assert_ne!(a, c, "k keys");
        assert_eq!(a, linear_topk(1, 5).shape_key(), "deterministic");
        let s1 = ServiceQuery::Skyline { constraint: None }.shape_key();
        let s2 = ServiceQuery::Skyline {
            constraint: Some(Rect::new(vec![0.1, 0.1], vec![0.9, 0.9])),
        }
        .shape_key();
        assert_ne!(s1, s2, "constraint keys");
        assert_ne!(a, s1, "query kind keys");
    }
}
