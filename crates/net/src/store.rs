//! Per-peer tuple storage with an LSM-shaped write path and a lazily-built
//! local index layer.
//!
//! Every DHT peer "stores all tuples falling in" its zone (Section 1). The
//! paper's algorithms scan a peer's local tuples per query (local top-k /
//! local skyline / local best-φ); local scans are not part of the reported
//! metrics (hops and messages), but at simulation scale they dominate
//! wall-clock time — and so does rebuilding indexes when data mutates. The
//! store therefore keeps the plain vector as the logical source of truth
//! and layers a physical log-structured organisation underneath:
//!
//! * **Frozen runs** ([`RunData`]): immutable columnar runs of at most
//!   [`BLOCK_ROWS`] rows each, cut off the front of the vector as it grows.
//!   A run is built once and shared (`Arc`) with every snapshot and
//!   projection that references it; deletions never edit a run — they set
//!   bits in a copy-on-write **tombstone mask** layered on top.
//! * **The memtable**: the unfrozen tail of the vector (fewer than
//!   [`BLOCK_ROWS`] recent inserts). Memtable mutations are plain vector
//!   edits; once the tail reaches a full block it freezes into a new run.
//! * **Compaction** ([`PeerStore::compact`]): when tombstones accumulate
//!   (≥ ¼ of frozen rows), masked runs are rewritten into dense mask-free
//!   runs. Untouched runs keep their allocation. Compaction is a *logical
//!   no-op*: it does not advance the generation, because the tuple set is
//!   unchanged — equivalence suites assert it is unobservable.
//!
//! The payoff is incremental invalidation. The caches on top —
//! score-sorted projections ([`PeerStore::with_ranked`]), the incremental
//! local skyline ([`PeerStore::skyline`]), and the columnar [`BlockSet`]
//! snapshot ([`PeerStore::blocks`]) — are keyed per run: after an insert,
//! only the memtable part rebuilds (O(memtable), not O(store)); after a
//! delete, masks update in place and nothing rescores. The `generation`
//! counter still advances on every *logical* mutation, so epoch handshakes,
//! result caches, certificates and replica keying upstream keep their exact
//! semantics; a separate `runs_version` tracks *physical* reorganisations
//! (freeze, compaction), which change no observable result.
//!
//! Queries read a merged view: kernel scans over frozen runs (corner-bound
//! pruning and SIMD arms intact) ∪ a scalar memtable scan, with
//! tombstone-masked rows filtered out of every emission. All caches remain
//! *behaviour-invisible*: they reproduce byte-for-byte what a scan of the
//! logical vector computes (the skyline in the canonical ascending
//! (coordinate-sum, id) order with min-id duplicate representatives;
//! ranked walks with the store-order tie-break of a stable descending
//! sort; blocked scans bit-identical to scalar ones by the kernel
//! contract). Equivalence is property-tested in `ripple-core` against the
//! plain-scan oracle (`Executor::naive`), and here against a flat
//! `Vec<Tuple>` model of the store.
//!
//! [`cache_key`]: ripple_geom::ScoreFn::cache_key

use crate::block::{BlockEntry, BlockSet, RunData, BLOCK_ROWS};
use crate::hash::{FxHashMap, FxHashSet};
use crate::scan;
use ripple_geom::{dominance, kernels, KernelDispatch, Point, ScoreFn, Tuple, TupleId};
use std::collections::{BinaryHeap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Retain at most this many score projections per peer. Stale entries are
/// dropped first; if a workload really uses more *live* scoring functions
/// than this per peer, the least-recently-hit live projection is evicted —
/// correctness never depends on a cache hit. The slots are few enough that
/// a linear scan of their keys finds one faster than hashing would.
const MAX_PROJECTIONS: usize = 16;

/// One frozen run of the store: an immutable columnar block of rows plus
/// the mutable deletion state layered over it.
#[derive(Clone, Debug)]
struct Run {
    /// Stable identity, never reused — projections key per-run score
    /// orders by it, so an unchanged run keeps its sorted entries across
    /// arbitrary mutations elsewhere in the store.
    id: u64,
    data: Arc<RunData>,
    /// Copy-on-write tombstone mask: `Some` once a row of this run was
    /// deleted. Shared with in-flight [`BlockSet`] snapshots; a deletion
    /// under a live snapshot clones the mask instead of mutating it.
    dead: Option<Arc<Vec<bool>>>,
    /// Unmasked rows (`data.rows() - #dead`).
    live: usize,
}

/// A memoised descending score order of the peer's tuples, kept as one
/// sorted entry list **per frozen run** plus one for the memtable tail.
/// Run entries are score-sorted over *all* physical rows of the run (the
/// merge skips masked rows at read time), so deletions never rescore; the
/// tail entries rebuild whenever the store's generation moves — O(memtable)
/// work per mutation instead of O(store).
#[derive(Debug)]
struct Projection {
    /// Logical timestamp of the most recent hit (from [`IndexCache::clock`]),
    /// driving least-recently-hit eviction. Atomic so the shared-read hit
    /// path can bump it without taking the write lock.
    last_hit: AtomicU64,
    /// [`PeerStore::runs_version`] the run entries reflect.
    runs_stamp: u64,
    /// Store generation the tail entries were computed at.
    tail_built_at: u64,
    /// `(score, row index within the run)`, best first; ties keep row
    /// order (stable sort). Keyed by [`Run::id`].
    runs: FxHashMap<u64, Arc<Vec<(f64, u32)>>>,
    /// `(score, offset within the memtable tail)`, best first, ties keep
    /// store order.
    tail: Arc<Vec<(f64, u32)>>,
}

impl Clone for Projection {
    fn clone(&self) -> Self {
        Self {
            last_hit: AtomicU64::new(self.last_hit.load(Ordering::Relaxed)),
            runs_stamp: self.runs_stamp,
            tail_built_at: self.tail_built_at,
            runs: self.runs.clone(),
            tail: self.tail.clone(),
        }
    }
}

/// The lazily-populated caches of one peer store.
#[derive(Debug, Default)]
struct IndexCache {
    /// Score-sorted projections as `(ScoreFn::cache_key, projection)`
    /// slots, at most [`MAX_PROJECTIONS`], keys unique, in no particular
    /// order.
    projections: Vec<(u64, Projection)>,
    /// Monotone logical clock stamping projection hits (LRU order).
    clock: AtomicU64,
    /// The local skyline in canonical order, as `(coordinate sum, tuple)`.
    /// `None` until first requested or after an invalidating removal.
    skyline: Option<Vec<(f64, Tuple)>>,
    /// The columnar snapshot, shared with in-flight blocked scans via
    /// `Arc` so a rebuild never invalidates a reader mid-block.
    blocks: Option<Arc<BlockSet>>,
}

impl IndexCache {
    /// The slot holding the projection for `key`, if any.
    fn slot(&self, key: u64) -> Option<usize> {
        self.projections.iter().position(|(k, _)| *k == key)
    }

    /// Stamps `proj` as hit now. Callable under the shared read lock.
    fn touch(&self, proj: &Projection) {
        let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        proj.last_hit.store(now, Ordering::Relaxed);
    }

    /// The columnar snapshot, only if it reflects `generation` — rebuild
    /// paths use this so they *reuse* a fresh snapshot but never build one.
    fn fresh_blocks(&self, generation: u64) -> Option<Arc<BlockSet>> {
        self.blocks
            .as_ref()
            .filter(|b| b.built_at() == generation)
            .map(Arc::clone)
    }
}

impl Clone for IndexCache {
    fn clone(&self) -> Self {
        Self {
            projections: self.projections.clone(),
            clock: AtomicU64::new(self.clock.load(Ordering::Relaxed)),
            skyline: self.skyline.clone(),
            blocks: self.blocks.clone(),
        }
    }
}

/// Cumulative write-path effort counters (monotone over the store's life).
#[derive(Clone, Copy, Debug, Default)]
struct IngestCounters {
    rows_ingested: u64,
    rows_deleted: u64,
    rows_frozen: u64,
    rows_compacted: u64,
    compactions_run: u64,
}

/// A point-in-time report of the store's write path: cumulative effort
/// counters plus the current physical layout. See
/// [`PeerStore::ingest_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IngestStats {
    /// Tuples ever inserted (single or batched).
    pub rows_ingested: u64,
    /// Tuples ever removed (tombstoned or physically dropped).
    pub rows_deleted: u64,
    /// Rows copied out of the memtable into frozen runs.
    pub rows_frozen: u64,
    /// Rows rewritten by compactions.
    pub rows_compacted: u64,
    /// Compaction passes that rewrote at least one run.
    pub compactions_run: u64,
    /// Current number of frozen runs.
    pub runs: usize,
    /// Current memtable (unfrozen tail) size in rows.
    pub memtable_rows: usize,
    /// Current tombstoned (masked, not yet compacted) rows.
    pub tombstones: usize,
}

impl IngestStats {
    /// Rows physically rewritten by the write path (freezes + compactions)
    /// — the extra writes beyond the user's own inserts.
    pub fn rows_rewritten(&self) -> u64 {
        self.rows_frozen + self.rows_compacted
    }

    /// Write amplification: physical rows written per ingested row
    /// (`1.0` = no extra writes; the LSM shape keeps this a small
    /// constant, ~2 for insert-only workloads).
    pub fn write_amplification(&self) -> f64 {
        if self.rows_ingested == 0 {
            0.0
        } else {
            (self.rows_ingested + self.rows_rewritten()) as f64 / self.rows_ingested as f64
        }
    }
}

/// The tuples held by one peer.
///
/// Logically a flat vector ([`tuples`](PeerStore::tuples) — the source of
/// truth every scan-path consumer sees); physically a sequence of frozen
/// columnar runs mirroring a prefix of the vector, plus the memtable tail
/// (see the module docs for the write path).
///
/// The caches sit behind a per-peer [`RwLock`] (not a `RefCell`) because
/// both the benchmark harness and the intra-query parallel executor hit a
/// shared network from several threads. The workload is read-mostly —
/// once a projection or skyline is built at the current generation, every
/// later query only *reads* it — so cache hits take the shared read path
/// and run concurrently; only a rebuild after a mutation (or a first
/// build) takes the exclusive write path, with a double-checked generation
/// test so racing readers rebuild at most once.
#[derive(Debug, Default)]
pub struct PeerStore {
    /// The logical tuple sequence: live rows of `runs` in order, then the
    /// memtable tail (`tuples[frozen_live..]`).
    tuples: Vec<Tuple>,
    /// Bumped on every *logical* mutation; lazily-validated caches compare
    /// against it. Physical reorganisation (freeze, compaction) does not
    /// move it — upstream generation consumers (epoch handshake, result
    /// cache, certificates, replicas) see only logical changes.
    generation: u64,
    /// Frozen runs, mirroring `tuples[..frozen_live]` (live rows, in order).
    runs: Vec<Run>,
    /// Length of the run-mirrored prefix of `tuples`.
    frozen_live: usize,
    /// Bumped whenever the run *layout* changes (freeze, compaction,
    /// drain); per-run projection entries validate against it.
    runs_version: u64,
    /// Next [`Run::id`] to assign (never reused).
    next_run_id: u64,
    /// Eager id-multiset of the stored tuples (lock-free membership).
    id_counts: FxHashMap<TupleId, u32>,
    /// Cumulative write-path effort.
    ingest: IngestCounters,
    cache: RwLock<IndexCache>,
}

impl Clone for PeerStore {
    fn clone(&self) -> Self {
        Self {
            tuples: self.tuples.clone(),
            generation: self.generation,
            runs: self.runs.clone(),
            frozen_live: self.frozen_live,
            runs_version: self.runs_version,
            next_run_id: self.next_run_id,
            id_counts: self.id_counts.clone(),
            ingest: self.ingest,
            cache: RwLock::new(self.cache.read().expect("peer cache poisoned").clone()),
        }
    }
}

fn coord_sum(p: &Point) -> f64 {
    p.coords().iter().sum()
}

/// Folds one tuple into a canonical skyline, preserving exactly the set and
/// order a full [`dominance::skyline`] recompute would produce (the shared
/// implementation lives in [`dominance::skyline_fold`]).
fn skyline_fold(members: &mut Vec<(f64, Tuple)>, t: &Tuple) {
    dominance::skyline_fold(members, t, coord_sum(&t.point));
}

impl PeerStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True if no tuples are stored.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Logical mutation counter; every insert/delete/drain/extend bumps it
    /// (once per call, however many tuples the call touches). Cache entries
    /// remember the generation they were built at and rebuild when it
    /// moved. Freezes and compactions do **not** bump it: they change the
    /// physical layout, never the tuple set.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Inserts a tuple (one generation bump; may freeze a full memtable
    /// into a new run).
    pub fn insert(&mut self, t: Tuple) {
        self.generation += 1;
        self.stage(t);
        self.maybe_freeze();
    }

    /// Inserts a batch of tuples under a **single** generation bump, so
    /// bulk loaders (data-gen, churn stages, anti-entropy repair) pay one
    /// cache invalidation per batch instead of one per tuple.
    pub fn insert_batch(&mut self, batch: impl IntoIterator<Item = Tuple>) {
        self.generation += 1;
        for t in batch {
            self.stage(t);
        }
        self.maybe_freeze();
    }

    /// Appends one tuple to the memtable, maintaining the eager caches.
    /// Callers bump the generation and trigger freezing.
    fn stage(&mut self, t: Tuple) {
        if let Some(members) = &mut self.cache.get_mut().expect("peer cache poisoned").skyline {
            skyline_fold(members, &t);
        }
        *self.id_counts.entry(t.id).or_insert(0) += 1;
        self.ingest.rows_ingested += 1;
        self.tuples.push(t);
    }

    /// Freezes full blocks off the front of the memtable into new runs.
    /// Purely physical: no generation bump (the triggering mutation already
    /// bumped it), but the run layout moves, so `runs_version` advances.
    fn maybe_freeze(&mut self) {
        while self.tuples.len() - self.frozen_live >= BLOCK_ROWS {
            let start = self.frozen_live;
            let rows = self.tuples[start..start + BLOCK_ROWS].to_vec();
            let data = Arc::new(RunData::build(rows, KernelDispatch::Auto));
            self.runs.push(Run {
                id: self.next_run_id,
                data,
                dead: None,
                live: BLOCK_ROWS,
            });
            self.next_run_id += 1;
            self.frozen_live += BLOCK_ROWS;
            self.runs_version += 1;
            self.ingest.rows_frozen += BLOCK_ROWS as u64;
            scan::add_rewritten(BLOCK_ROWS as u64);
        }
    }

    /// Iterates the stored tuples.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }

    /// All stored tuples as a slice (the logical view — live run rows in
    /// order, then the memtable tail).
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// A point-in-time report of the write path: cumulative ingest /
    /// delete / freeze / compaction effort plus the current physical
    /// layout (runs, memtable size, outstanding tombstones).
    pub fn ingest_stats(&self) -> IngestStats {
        IngestStats {
            rows_ingested: self.ingest.rows_ingested,
            rows_deleted: self.ingest.rows_deleted,
            rows_frozen: self.ingest.rows_frozen,
            rows_compacted: self.ingest.rows_compacted,
            compactions_run: self.ingest.compactions_run,
            runs: self.runs.len(),
            memtable_rows: self.tuples.len() - self.frozen_live,
            tombstones: self.runs.iter().map(|r| r.data.rows() - r.live).sum(),
        }
    }

    /// Removes every tuple matching `pred`, preserving the order of the
    /// survivors. Frozen matches are tombstoned in their run's
    /// copy-on-write mask; memtable matches are dropped physically. One
    /// generation bump for the whole sweep.
    fn remove_where(&mut self, mut pred: impl FnMut(&Tuple) -> bool) -> Vec<Tuple> {
        self.generation += 1;
        let tuples = std::mem::take(&mut self.tuples);
        let mut kept = Vec::with_capacity(tuples.len());
        let mut moved = Vec::new();
        // Cursor over the physical run rows mirroring the frozen prefix:
        // advance past already-masked rows to find the physical home of
        // each logical position.
        let (mut run_idx, mut row) = (0usize, 0usize);
        let mut removed_frozen = 0usize;
        for (pos, t) in tuples.into_iter().enumerate() {
            let in_frozen = pos < self.frozen_live;
            if in_frozen {
                loop {
                    let run = &self.runs[run_idx];
                    if row >= run.data.rows() {
                        run_idx += 1;
                        row = 0;
                        continue;
                    }
                    if run.dead.as_ref().is_some_and(|d| d[row]) {
                        row += 1;
                        continue;
                    }
                    break;
                }
            }
            if pred(&t) {
                if in_frozen {
                    let run = &mut self.runs[run_idx];
                    let mask = run
                        .dead
                        .get_or_insert_with(|| Arc::new(vec![false; run.data.rows()]));
                    // Clone-on-write: a snapshot holding the old mask keeps
                    // seeing its point-in-time state.
                    Arc::make_mut(mask)[row] = true;
                    run.live -= 1;
                    removed_frozen += 1;
                }
                if let Some(c) = self.id_counts.get_mut(&t.id) {
                    *c -= 1;
                    if *c == 0 {
                        self.id_counts.remove(&t.id);
                    }
                }
                self.ingest.rows_deleted += 1;
                moved.push(t);
            } else {
                kept.push(t);
            }
            if in_frozen {
                row += 1;
            }
        }
        self.frozen_live -= removed_frozen;
        self.tuples = kept;
        moved
    }

    /// Drops the cached skyline if any removed tuple was a member
    /// (dominated tuples may resurface); removals of non-members keep the
    /// cache exact.
    fn invalidate_skyline_if_member_removed(&mut self, moved: &[Tuple]) {
        let cache = self.cache.get_mut().expect("peer cache poisoned");
        if let Some(members) = &cache.skyline {
            let member_ids: HashSet<TupleId> = members.iter().map(|(_, m)| m.id).collect();
            if moved.iter().any(|t| member_ids.contains(&t.id)) {
                cache.skyline = None;
            }
        }
    }

    /// Removes and returns every tuple satisfying `pred` — used when a zone
    /// split hands part of the key range to a new peer. Survivors keep
    /// their order; removal cost is a tombstone bit per frozen match.
    pub fn drain_where(&mut self, mut pred: impl FnMut(&Point) -> bool) -> Vec<Tuple> {
        let moved = self.remove_where(|t| pred(&t.point));
        self.invalidate_skyline_if_member_removed(&moved);
        self.maybe_compact();
        moved
    }

    /// Deletes the tuples with the given ids (tombstoning frozen rows,
    /// dropping memtable rows), returning how many were removed. The whole
    /// batch costs **one** generation bump — and none at all when no given
    /// id is present, so blind anti-entropy deletes of absent tuples stay
    /// free.
    pub fn delete_batch(&mut self, ids: impl IntoIterator<Item = TupleId>) -> usize {
        let targets: FxHashSet<TupleId> = ids
            .into_iter()
            .filter(|id| self.id_counts.contains_key(id))
            .collect();
        if targets.is_empty() {
            return 0;
        }
        let moved = self.remove_where(|t| targets.contains(&t.id));
        self.invalidate_skyline_if_member_removed(&moved);
        self.maybe_compact();
        moved.len()
    }

    /// Runs a compaction when tombstones have accumulated to ≥ ¼ of the
    /// physical frozen rows — amortised O(1) rewrites per delete.
    fn maybe_compact(&mut self) {
        let physical: usize = self.runs.iter().map(|r| r.data.rows()).sum();
        let dead = physical - self.frozen_live;
        if dead > 0 && dead * 4 >= physical {
            self.compact();
        }
    }

    /// Rewrites every tombstone-carrying run into dense mask-free runs,
    /// leaving clean runs untouched (their `Arc`s survive, as do their
    /// projection entries). Returns the number of rows rewritten.
    ///
    /// Compaction is a **logical no-op**: the tuple sequence is unchanged,
    /// the generation does not move, and every query answer — answers,
    /// ledgers, certificates — is bit-identical before and after. Only the
    /// physical layout (and future scan effort) changes.
    pub fn compact(&mut self) -> u64 {
        if self.runs.iter().all(|r| r.dead.is_none()) {
            return 0;
        }
        let old = std::mem::take(&mut self.runs);
        let mut pending: Vec<Tuple> = Vec::new();
        let mut rewritten = 0u64;
        for run in old {
            match run.dead {
                None => {
                    // A clean run keeps its identity; pending rewritten
                    // rows flush first to preserve the row order.
                    Self::flush_pending(
                        &mut pending,
                        &mut self.runs,
                        &mut self.next_run_id,
                        &mut rewritten,
                    );
                    self.runs.push(run);
                }
                Some(ref dead) => {
                    pending.extend(
                        run.data
                            .tuples()
                            .iter()
                            .zip(dead.iter())
                            .filter(|(_, &d)| !d)
                            .map(|(t, _)| t.clone()),
                    );
                }
            }
        }
        Self::flush_pending(
            &mut pending,
            &mut self.runs,
            &mut self.next_run_id,
            &mut rewritten,
        );
        self.runs_version += 1;
        self.ingest.rows_compacted += rewritten;
        self.ingest.compactions_run += 1;
        scan::add_compactions(1);
        scan::add_rewritten(rewritten);
        // The snapshot's contents stay valid (masked rows were already
        // filtered) but its layout references retired runs; drop it so the
        // next query assembles the compacted shape.
        self.cache.get_mut().expect("peer cache poisoned").blocks = None;
        rewritten
    }

    /// Builds dense runs out of the accumulated live rows of rewritten
    /// runs (at most one trailing partial run per flush).
    fn flush_pending(
        pending: &mut Vec<Tuple>,
        runs: &mut Vec<Run>,
        next_run_id: &mut u64,
        rewritten: &mut u64,
    ) {
        for chunk in pending.chunks(BLOCK_ROWS) {
            let data = Arc::new(RunData::build(chunk.to_vec(), KernelDispatch::Auto));
            *rewritten += chunk.len() as u64;
            runs.push(Run {
                id: *next_run_id,
                data,
                dead: None,
                live: chunk.len(),
            });
            *next_run_id += 1;
        }
        pending.clear();
    }

    /// Removes and returns all tuples — used when a departing peer hands its
    /// data to the peer absorbing its zone.
    pub fn drain_all(&mut self) -> Vec<Tuple> {
        self.generation += 1;
        self.ingest.rows_deleted += self.tuples.len() as u64;
        self.runs.clear();
        self.frozen_live = 0;
        self.runs_version += 1;
        self.id_counts.clear();
        let cache = self.cache.get_mut().expect("peer cache poisoned");
        cache.skyline = Some(Vec::new());
        cache.projections.clear();
        cache.blocks = None;
        std::mem::take(&mut self.tuples)
    }

    /// Absorbs a batch of tuples (alias of
    /// [`insert_batch`](PeerStore::insert_batch): one generation bump).
    pub fn extend(&mut self, batch: impl IntoIterator<Item = Tuple>) {
        self.insert_batch(batch);
    }

    /// The local skyline of the stored tuples, in the canonical order of
    /// [`dominance::skyline`] (ascending coordinate sum, ties by id; exact
    /// duplicates represented by their minimum id).
    ///
    /// Built once, then maintained incrementally across inserts and
    /// invalidated only when a skyline member is removed. Cloning the
    /// members is cheap: points share their coordinate storage.
    ///
    /// Concurrent queries over an already-built skyline share a read lock;
    /// only the first build after an invalidation takes the write lock.
    ///
    /// When a fresh columnar snapshot exists (a blocked query path called
    /// [`blocks`](PeerStore::blocks) since the last mutation), the rebuild
    /// runs over it: whole blocks whose min corner is dominated by a member
    /// found so far are skipped without touching a row, and the surviving
    /// rows fold with kernel-computed coordinate sums. Both produce the
    /// identical canonical skyline (dominated rows fold to no-ops and
    /// kernel sums are bit-identical), so which rebuild ran is unobservable.
    pub fn skyline(&self) -> Vec<Tuple> {
        self.skyline_at(KernelDispatch::Auto)
    }

    /// [`skyline`](PeerStore::skyline) with an explicit kernel dispatch arm
    /// for any rebuild the call triggers. Bit-identical results either way
    /// (the kernel contract); the equivalence suites use the forced arms.
    pub fn skyline_at(&self, dispatch: KernelDispatch) -> Vec<Tuple> {
        self.with_skyline_at(dispatch, |members| members.cloned().collect())
    }

    /// Hands `f` the cached local skyline of [`skyline_at`] by reference,
    /// in the same canonical order, so a caller that keeps only some
    /// members (a query thinning the skyline by its state) clones just
    /// those. Runs under the cache lock (shared once the skyline is built):
    /// `f` must not call back into cache-using methods of the same store
    /// (`skyline`, `with_ranked`).
    ///
    /// [`skyline_at`]: PeerStore::skyline_at
    pub fn with_skyline_at<R>(
        &self,
        dispatch: KernelDispatch,
        f: impl FnOnce(&mut dyn Iterator<Item = &Tuple>) -> R,
    ) -> R {
        {
            let cache = self.cache.read().expect("peer cache poisoned");
            if let Some(members) = &cache.skyline {
                return f(&mut members.iter().map(|(_, t)| t));
            }
        }
        let mut cache = self.cache.write().expect("peer cache poisoned");
        if cache.skyline.is_none() {
            let members = if let Some(blocks) = cache.fresh_blocks(self.generation) {
                Self::blocked_skyline(&blocks, dispatch)
            } else {
                scan::add_scanned(self.tuples.len() as u64);
                dominance::skyline(&self.tuples)
                    .into_iter()
                    .map(|t| (coord_sum(&t.point), t))
                    .collect()
            };
            cache.skyline = Some(members);
        }
        let members = cache.skyline.as_ref().expect("just built");
        f(&mut members.iter().map(|(_, t)| t))
    }

    /// The columnar (structure-of-arrays) snapshot of this store at the
    /// current generation, built on first use after a mutation and shared
    /// (`Arc`) with in-flight scans. Frozen runs are *referenced* (zero
    /// copy — assembling a snapshot costs O(runs + memtable), not
    /// O(store)); only the memtable tail is laid out fresh. Blocked query
    /// paths call this; the store's own rebuilds only ever *reuse* a fresh
    /// snapshot, so executions that never ask for blocks stay purely
    /// scalar.
    pub fn blocks(&self) -> Arc<BlockSet> {
        self.blocks_at(KernelDispatch::Auto)
    }

    /// [`blocks`](PeerStore::blocks) with an explicit kernel dispatch arm
    /// for the memtable build pass. The snapshot's contents are
    /// bit-identical on either arm, so the shared cache never depends on
    /// who built it.
    pub fn blocks_at(&self, dispatch: KernelDispatch) -> Arc<BlockSet> {
        {
            let cache = self.cache.read().expect("peer cache poisoned");
            if let Some(blocks) = cache.fresh_blocks(self.generation) {
                return blocks;
            }
        }
        let mut cache = self.cache.write().expect("peer cache poisoned");
        // Double-check: a racing reader may have rebuilt while we waited.
        if cache.fresh_blocks(self.generation).is_none() {
            cache.blocks = Some(Arc::new(self.assemble_blocks(dispatch)));
        }
        cache.fresh_blocks(self.generation).expect("just built")
    }

    /// Assembles the columnar snapshot: every live frozen run (shared,
    /// with its current tombstone mask), then the memtable tail cut into
    /// fresh blocks.
    fn assemble_blocks(&self, dispatch: KernelDispatch) -> BlockSet {
        let mut entries = Vec::with_capacity(self.runs.len() + 1);
        for run in &self.runs {
            if run.live > 0 {
                entries.push(BlockEntry::frozen(
                    Arc::clone(&run.data),
                    run.dead.clone(),
                    run.live,
                ));
            }
        }
        for chunk in self.tuples[self.frozen_live..].chunks(BLOCK_ROWS) {
            entries.push(BlockEntry::memtable(Arc::new(RunData::build(
                chunk.to_vec(),
                dispatch,
            ))));
        }
        BlockSet::assemble(entries, self.generation)
    }

    /// Skyline rebuild over the columnar snapshot. Produces exactly the
    /// canonical `(sum, tuple)` members a [`dominance::skyline`] recompute
    /// would: folding live rows in store order from an empty skyline is the
    /// recompute (the fold preserves set and order, property-tested under
    /// churn), and a skipped block contains only rows strictly dominated by
    /// an already-folded member — each of which folds to a no-op. Masked
    /// rows are skipped at emission; the run bounds are superset bounds, so
    /// the corner prune stays conservative.
    fn blocked_skyline(blocks: &BlockSet, dispatch: KernelDispatch) -> Vec<(f64, Tuple)> {
        let mut members: Vec<(f64, Tuple)> = Vec::new();
        let mut buf = Vec::new();
        let mut sums = Vec::new();
        for b in 0..blocks.num_blocks() {
            // Only members whose coordinate sum is at or below the block's
            // minimum row sum can dominate its min corner (a dominator is
            // coordinate-wise ≤ the corner, and the fp left-fold sum is
            // monotone), so the corner test scans a canonical-order prefix.
            let prefix = members.partition_point(|(s, _)| *s <= blocks.block_min_sum(b));
            let corner = blocks.block_min(b);
            if members[..prefix]
                .iter()
                .any(|(_, m)| kernels::dominates_raw(dispatch, m.point.coords(), corner))
            {
                scan::add_pruned(1);
                continue;
            }
            blocks.block_cols(b, &mut buf);
            kernels::coord_sums(dispatch, &buf, &mut sums);
            let rows = blocks.block_tuples(b);
            let dead = blocks.block_dead(b);
            scan::add_scanned(blocks.block_live(b) as u64);
            scan::add_masked((blocks.block_rows(b) - blocks.block_live(b)) as u64);
            if blocks.is_memtable(b) {
                scan::add_memtable(blocks.block_live(b) as u64);
            }
            for (off, t) in rows.iter().enumerate() {
                if dead.is_some_and(|d| d[off]) {
                    continue;
                }
                dominance::skyline_fold(&mut members, t, sums[off]);
            }
        }
        members
    }

    /// True if a tuple with this id is stored here. Answered from the
    /// eagerly-maintained id multiset — lock-free, never stale.
    pub fn contains_id(&self, id: TupleId) -> bool {
        self.id_counts.contains_key(&id)
    }

    /// Visits the stored tuples in *descending score order* under `score`,
    /// handing the closure a lazy `(tuple, score)` iterator (ties keep store
    /// order, exactly like a stable descending sort over [`tuples`]).
    ///
    /// Returns `None` when `score` exposes no [`ScoreFn::cache_key`] — the
    /// caller falls back to a scan. The projection is memoised per key as
    /// one sorted entry list per frozen run plus one for the memtable, so
    /// after a mutation only the affected parts rescore (O(memtable) per
    /// insert batch, nothing per delete); the walk itself is a lazy k-way
    /// merge that skips tombstoned rows. A fresh projection is walked under
    /// a shared read lock, so the many concurrent visits of one parallel
    /// query never serialise on a hit.
    ///
    /// The closure must not call back into cache-using methods of the same
    /// store (`skyline`, `with_ranked`).
    ///
    /// Projection builds are scalar scoring passes, which the kernel
    /// contract makes bit-identical to every dispatch arm, so the shared
    /// cache never depends on which arm the caller runs.
    ///
    /// [`tuples`]: PeerStore::tuples
    pub fn with_ranked<R>(
        &self,
        score: &dyn ScoreFn,
        f: impl FnOnce(&mut dyn Iterator<Item = (&Tuple, f64)>) -> R,
    ) -> Option<R> {
        let key = score.cache_key()?;
        debug_assert!(self.tuples.len() < u32::MAX as usize);
        let fresh = |p: &Projection| {
            p.runs_stamp == self.runs_version && p.tail_built_at == self.generation
        };
        {
            let cache = self.cache.read().expect("peer cache poisoned");
            if let Some(i) = cache.slot(key) {
                let proj = &cache.projections[i].1;
                if fresh(proj) {
                    cache.touch(proj);
                    let mut it = self.ranked_merge(proj);
                    return Some(f(&mut it));
                }
            }
        }
        let mut guard = self.cache.write().expect("peer cache poisoned");
        let cache = &mut *guard;
        // Re-find under the write lock: another thread may have added or
        // refreshed the projection while we waited for exclusivity. A stale
        // slot is refreshed in place.
        let i = match cache.slot(key) {
            Some(i) => i,
            None => {
                if cache.projections.len() >= MAX_PROJECTIONS {
                    cache.projections.retain(|(_, p)| fresh(p));
                    while cache.projections.len() >= MAX_PROJECTIONS {
                        // Every survivor is live: evict the least-recently-
                        // hit one (ties broken by key for determinism).
                        let lru = (0..cache.projections.len())
                            .min_by_key(|&j| {
                                let (k, p) = &cache.projections[j];
                                (p.last_hit.load(Ordering::Relaxed), *k)
                            })
                            .expect("len >= MAX_PROJECTIONS > 0");
                        cache.projections.swap_remove(lru);
                    }
                }
                cache.projections.push((
                    key,
                    Projection {
                        last_hit: AtomicU64::new(0),
                        runs_stamp: u64::MAX,
                        tail_built_at: u64::MAX,
                        runs: FxHashMap::default(),
                        tail: Arc::new(Vec::new()),
                    },
                ));
                cache.projections.len() - 1
            }
        };
        if !fresh(&cache.projections[i].1) {
            self.refresh_projection(&mut cache.projections[i].1, score);
        }
        let proj = &cache.projections[i].1;
        cache.touch(proj);
        let mut it = self.ranked_merge(proj);
        Some(f(&mut it))
    }

    /// Brings a projection up to date: keeps entry lists of unchanged runs
    /// (the common case — they dominate the store), scores and sorts any
    /// new run, and rebuilds the memtable entries. Scoring is the plain
    /// scalar pass — bit-identical to every kernel arm by contract. Run
    /// entries cover *all* physical rows (masks are applied by the merge),
    /// so deletions never rescore anything.
    fn refresh_projection(&self, proj: &mut Projection, score: &dyn ScoreFn) {
        let live_ids: FxHashSet<u64> = self.runs.iter().map(|r| r.id).collect();
        proj.runs.retain(|id, _| live_ids.contains(id));
        for run in &self.runs {
            proj.runs
                .entry(run.id)
                .or_insert_with(|| Arc::new(Self::score_entries(run.data.tuples(), score)));
        }
        proj.tail = Arc::new(Self::score_entries(&self.tuples[self.frozen_live..], score));
        proj.runs_stamp = self.runs_version;
        proj.tail_built_at = self.generation;
    }

    /// Scores `rows` and sorts the entries best-first; ties keep row order
    /// (stable descending sort).
    fn score_entries(rows: &[Tuple], score: &dyn ScoreFn) -> Vec<(f64, u32)> {
        scan::add_scanned(rows.len() as u64);
        let mut entries: Vec<(f64, u32)> = rows
            .iter()
            .enumerate()
            .map(|(i, t)| (score.score(&t.point), i as u32))
            .collect();
        entries.sort_by(|a, b| b.0.total_cmp(&a.0));
        entries.shrink_to_fit();
        entries
    }

    /// The lazy k-way merge over a fresh projection's per-run and memtable
    /// entry lists. Sources are ordered by store position (runs in order,
    /// memtable last) and the heap breaks score ties toward the earliest
    /// source; entries within a source already break ties by position — so
    /// the merged sequence is *exactly* the stable descending sort of the
    /// logical tuple vector. A store with no live run row (memtable only,
    /// or every run fully tombstoned) walks the memtable entries directly,
    /// without a heap.
    fn ranked_merge<'a>(&'a self, proj: &'a Projection) -> RankedMerge<'a> {
        let tail = self.tail_cursor(proj);
        if self.runs.iter().all(|run| run.live == 0) {
            return RankedMerge::Single(tail);
        }
        let mut sources = Vec::with_capacity(self.runs.len() + 1);
        for run in &self.runs {
            if run.live == 0 {
                continue;
            }
            let entries = proj
                .runs
                .get(&run.id)
                .expect("fresh projection covers every run");
            sources.push(RankedCursor {
                entries,
                pos: 0,
                dead: run.dead.as_ref().map(|d| d.as_slice()),
                rows: run.data.tuples(),
                memtable: false,
            });
        }
        sources.push(tail);
        RankedMerge::merge(sources)
    }

    /// The ranked-walk source over the memtable tail's entries.
    fn tail_cursor<'a>(&'a self, proj: &'a Projection) -> RankedCursor<'a> {
        RankedCursor {
            entries: &proj.tail,
            pos: 0,
            dead: None,
            rows: &self.tuples[self.frozen_live..],
            memtable: true,
        }
    }
}

/// One source of a [`RankedMerge`]: a sorted entry list over one run (or
/// the memtable tail) plus the tombstone mask to skip by.
struct RankedCursor<'a> {
    entries: &'a [(f64, u32)],
    pos: usize,
    dead: Option<&'a [bool]>,
    rows: &'a [Tuple],
    memtable: bool,
}

impl<'a> RankedCursor<'a> {
    /// Advances past tombstoned entries; returns the score now at the
    /// cursor, or `None` when exhausted.
    fn settle(&mut self) -> Option<f64> {
        while let Some(&(score, i)) = self.entries.get(self.pos) {
            if self.dead.is_some_and(|d| d[i as usize]) {
                scan::add_masked(1);
                self.pos += 1;
                continue;
            }
            return Some(score);
        }
        None
    }

    /// Emits the settled entry at the cursor and steps past it.
    fn take(&mut self) -> (&'a Tuple, f64) {
        let (score, i) = self.entries[self.pos];
        if self.memtable {
            scan::add_memtable(1);
        }
        self.pos += 1;
        (&self.rows[i as usize], score)
    }
}

/// Heap head of the ranked merge: max-orders by score (`total_cmp`), ties
/// toward the smaller source index — sources are store-ordered, so this
/// reproduces the store-order tie-break of a stable descending sort.
struct Head {
    score: f64,
    src: usize,
}

impl PartialEq for Head {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for Head {}

impl PartialOrd for Head {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Head {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score
            .total_cmp(&other.score)
            .then_with(|| other.src.cmp(&self.src))
    }
}

/// Lazy descending-score walk over a store's merged (runs ∪ memtable)
/// view; see [`PeerStore::with_ranked`].
enum RankedMerge<'a> {
    /// The only source with live rows: its entries are the walk, in order.
    Single(RankedCursor<'a>),
    /// A k-way merge over the live runs and the memtable.
    Merge {
        sources: Vec<RankedCursor<'a>>,
        heap: BinaryHeap<Head>,
    },
}

impl<'a> RankedMerge<'a> {
    /// The heap-driven merge over store-ordered `sources`.
    fn merge(mut sources: Vec<RankedCursor<'a>>) -> Self {
        let mut heap = BinaryHeap::with_capacity(sources.len());
        for (src, cur) in sources.iter_mut().enumerate() {
            if let Some(score) = cur.settle() {
                heap.push(Head { score, src });
            }
        }
        RankedMerge::Merge { sources, heap }
    }
}

impl<'a> Iterator for RankedMerge<'a> {
    type Item = (&'a Tuple, f64);

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            RankedMerge::Single(cur) => {
                cur.settle()?;
                Some(cur.take())
            }
            RankedMerge::Merge { sources, heap } => {
                let head = heap.pop()?;
                let cur = &mut sources[head.src];
                let item = cur.take();
                debug_assert_eq!(item.1.to_bits(), head.score.to_bits());
                if let Some(next_score) = cur.settle() {
                    heap.push(Head {
                        score: next_score,
                        src: head.src,
                    });
                }
                Some(item)
            }
        }
    }
}

/// A peer's tuples as seen by query-side code.
///
/// `Plain` is the scan view every substrate supports, and the reference
/// the paper's peers implement: query functions scan the slice. `Indexed`
/// additionally exposes the store's local index layer and its columnar
/// block mirror, which query implementations use as fast paths. Both views
/// describe the same tuples — query results and all hop/message metrics
/// are identical either way (only wall-clock time differs), which is what
/// keeps the indexed simulation an honest reproduction of the paper's
/// scan-based peers.
#[derive(Clone, Copy)]
pub enum LocalView<'a> {
    /// A bare tuple slice.
    Plain(&'a [Tuple]),
    /// A full peer store with its caches, running its blocked scans on the
    /// given kernel dispatch arm.
    Indexed(&'a PeerStore, KernelDispatch),
}

impl<'a> LocalView<'a> {
    /// The underlying tuples, regardless of view flavour.
    pub fn tuples(&self) -> &'a [Tuple] {
        match self {
            LocalView::Plain(t) => t,
            LocalView::Indexed(s, _) => s.tuples(),
        }
    }

    /// The store behind an indexed view and the kernel dispatch arm its
    /// scans must run; `None` for a plain view.
    pub fn store(&self) -> Option<(&'a PeerStore, KernelDispatch)> {
        match self {
            LocalView::Plain(_) => None,
            LocalView::Indexed(s, d) => Some((s, *d)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::ScanCounts;
    use ripple_geom::LinearScore;

    fn t(id: u64, x: f64) -> Tuple {
        Tuple::new(id, vec![x, x])
    }

    fn t2(id: u64, a: f64, b: f64) -> Tuple {
        Tuple::new(id, vec![a, b])
    }

    #[test]
    fn insert_and_len() {
        let mut s = PeerStore::new();
        assert!(s.is_empty());
        s.insert(t(1, 0.5));
        s.insert(t(2, 0.7));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn drain_where_partitions() {
        let mut s = PeerStore::new();
        for i in 0..10 {
            s.insert(t(i, i as f64 / 10.0));
        }
        let moved = s.drain_where(|p| p.coord(0) >= 0.5);
        assert_eq!(moved.len(), 5);
        assert_eq!(s.len(), 5);
        assert!(s.iter().all(|t| t.point.coord(0) < 0.5));
        assert!(moved.iter().all(|t| t.point.coord(0) >= 0.5));
        // Order-preserving on both sides (tombstone masking never reorders).
        assert!(s.tuples().windows(2).all(|w| w[0].id < w[1].id));
        assert!(moved.windows(2).all(|w| w[0].id < w[1].id));
    }

    #[test]
    fn drain_all_empties() {
        let mut s = PeerStore::new();
        s.insert(t(1, 0.1));
        let all = s.drain_all();
        assert_eq!(all.len(), 1);
        assert!(s.is_empty());
    }

    #[test]
    fn extend_absorbs() {
        let mut a = PeerStore::new();
        a.extend(vec![t(1, 0.1), t(2, 0.2)]);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn generation_tracks_mutations() {
        let mut s = PeerStore::new();
        let g0 = s.generation();
        s.insert(t(1, 0.3));
        assert!(s.generation() > g0);
        let g1 = s.generation();
        s.extend(vec![t(2, 0.4)]);
        assert!(s.generation() > g1);
        let g2 = s.generation();
        s.drain_where(|p| p.coord(0) < 0.35);
        assert!(s.generation() > g2);
    }

    #[test]
    fn insert_batch_is_one_generation_bump() {
        let mut s = PeerStore::new();
        let g0 = s.generation();
        s.insert_batch((0..700u64).map(|i| t(i, (i as f64 * 0.137) % 1.0)));
        assert_eq!(s.generation(), g0 + 1, "one bump for the whole batch");
        assert_eq!(s.len(), 700);
        let stats = s.ingest_stats();
        assert_eq!(stats.rows_ingested, 700);
        assert_eq!(stats.runs, 2, "two full runs froze");
        assert_eq!(stats.memtable_rows, 700 - 2 * BLOCK_ROWS);
        assert_eq!(stats.rows_frozen, 2 * BLOCK_ROWS as u64);
    }

    #[test]
    fn delete_batch_removes_and_skips_absent() {
        let mut s = PeerStore::new();
        s.insert_batch((0..600u64).map(|i| t(i, (i as f64 * 0.31) % 1.0)));
        let g = s.generation();
        // No target present: free, no generation bump.
        assert_eq!(s.delete_batch([9000, 9001]), 0);
        assert_eq!(s.generation(), g);
        // Mixed present/absent: one bump, only present ids removed.
        let n = s.delete_batch([5, 300, 599, 9000]);
        assert_eq!(n, 3);
        assert_eq!(s.generation(), g + 1);
        assert_eq!(s.len(), 597);
        assert!(!s.contains_id(5));
        assert!(!s.contains_id(300));
        assert!(s.contains_id(4));
        assert_eq!(s.ingest_stats().rows_deleted, 3);
    }

    /// The cached skyline must equal a from-scratch recompute — same set,
    /// same order, same duplicate representatives — through any interleaving
    /// of inserts, batch extends and drains.
    #[test]
    fn skyline_matches_recompute_under_churn() {
        let mut s = PeerStore::new();
        let mut state: u64 = 0x9E3779B97F4A7C15;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64) / ((1u64 << 31) as f64)
        };
        let mut id = 0u64;
        for round in 0..30 {
            match round % 5 {
                0..=2 => {
                    for _ in 0..7 {
                        s.insert(Tuple::new(id, vec![next(), next(), next()]));
                        id += 1;
                    }
                }
                3 => {
                    let batch: Vec<Tuple> = (0..5)
                        .map(|_| {
                            id += 1;
                            Tuple::new(id - 1, vec![next(), next(), next()])
                        })
                        .collect();
                    s.extend(batch);
                }
                _ => {
                    let cut = next();
                    s.drain_where(|p| p.coord(0) < cut * 0.3);
                }
            }
            let cached = s.skyline();
            let fresh = dominance::skyline(s.tuples());
            assert_eq!(cached, fresh, "round {round}");
        }
    }

    #[test]
    fn skyline_keeps_min_id_duplicate_representative() {
        let mut s = PeerStore::new();
        s.insert(t2(5, 0.3, 0.3));
        assert_eq!(s.skyline()[0].id, 5);
        // Lower id duplicate arrives after the cache is built: the
        // representative must switch, as a recompute would.
        s.insert(t2(2, 0.3, 0.3));
        let sky = s.skyline();
        assert_eq!(sky.len(), 1);
        assert_eq!(sky[0].id, 2);
        // Higher id duplicate leaves it untouched.
        s.insert(t2(9, 0.3, 0.3));
        assert_eq!(s.skyline(), sky);
        assert_eq!(s.skyline(), dominance::skyline(s.tuples()));
    }

    #[test]
    fn skyline_survives_non_member_removal_and_rebuilds_on_member_removal() {
        let mut s = PeerStore::new();
        s.insert(t2(1, 0.1, 0.9));
        s.insert(t2(2, 0.9, 0.1));
        s.insert(t2(3, 0.5, 0.5));
        s.insert(t2(4, 0.6, 0.6)); // dominated by 3
        assert_eq!(s.skyline().len(), 3);
        // removing the dominated tuple keeps the skyline
        s.drain_where(|p| p.coord(0) == 0.6);
        assert_eq!(s.skyline(), dominance::skyline(s.tuples()));
        // removing member 3 resurfaces nothing here, but must still rebuild
        s.insert(t2(5, 0.55, 0.55)); // dominated by 3 only
        s.drain_where(|p| p.coord(0) == 0.5);
        let sky = s.skyline();
        assert!(sky.iter().any(|t| t.id == 5), "5 resurfaces once 3 left");
        assert_eq!(sky, dominance::skyline(s.tuples()));
    }

    #[test]
    fn ranked_walk_matches_stable_sort() {
        let mut s = PeerStore::new();
        // include a score tie (ids 10 and 11) to pin the tie-break order
        s.insert(t2(10, 0.4, 0.2));
        s.insert(t2(11, 0.2, 0.4));
        s.insert(t2(12, 0.9, 0.9));
        s.insert(t2(13, 0.1, 0.1));
        let score = LinearScore::uniform(2);
        let walked: Vec<(u64, f64)> = s
            .with_ranked(&score, |it| it.map(|(t, sc)| (t.id, sc)).collect())
            .expect("LinearScore has a cache key");
        let mut manual: Vec<(u64, f64)> = s
            .tuples()
            .iter()
            .map(|t| (t.id, score.score(&t.point)))
            .collect();
        manual.sort_by(|a, b| b.1.total_cmp(&a.1));
        assert_eq!(walked, manual);
        // ties kept store order
        assert_eq!(walked[1].0, 10);
        assert_eq!(walked[2].0, 11);
    }

    #[test]
    fn ranked_projection_invalidates_on_mutation() {
        let mut s = PeerStore::new();
        s.insert(t2(1, 0.2, 0.2));
        let score = LinearScore::uniform(2);
        let first: Vec<u64> = s
            .with_ranked(&score, |it| it.map(|(t, _)| t.id).collect())
            .unwrap();
        assert_eq!(first, vec![1]);
        s.insert(t2(2, 0.8, 0.8));
        let second: Vec<u64> = s
            .with_ranked(&score, |it| it.map(|(t, _)| t.id).collect())
            .unwrap();
        assert_eq!(second, vec![2, 1]);
    }

    #[test]
    fn contains_id_tracks_store() {
        let mut s = PeerStore::new();
        s.insert(t(7, 0.7));
        assert!(s.contains_id(7));
        assert!(!s.contains_id(8));
        s.drain_where(|_| true);
        assert!(!s.contains_id(7));
    }

    /// Many threads hammering the read-mostly cache paths of one store must
    /// agree with the single-threaded answers (the `RwLock` swap must not
    /// change observable behaviour, only concurrency).
    #[test]
    fn concurrent_readers_agree_with_sequential() {
        let mut s = PeerStore::new();
        for i in 0..200u64 {
            let x = (i as f64 * 0.37) % 1.0;
            let y = (i as f64 * 0.61) % 1.0;
            s.insert(t2(i, x, y));
        }
        let score = LinearScore::uniform(2);
        let expect_sky = s.skyline();
        let expect_top: Vec<u64> = s
            .with_ranked(&score, |it| it.take(10).map(|(t, _)| t.id).collect())
            .unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        assert_eq!(s.skyline(), expect_sky);
                        let top: Vec<u64> = s
                            .with_ranked(&score, |it| it.take(10).map(|(t, _)| t.id).collect())
                            .unwrap();
                        assert_eq!(top, expect_top);
                        assert!(s.contains_id(17));
                        assert!(!s.contains_id(9999));
                    }
                });
            }
        });
    }

    #[test]
    fn local_view_flavours_agree() {
        let mut s = PeerStore::new();
        s.insert(t(1, 0.5));
        let plain = LocalView::Plain(s.tuples());
        let indexed = LocalView::Indexed(&s, KernelDispatch::ForcedSimd);
        assert_eq!(plain.tuples(), indexed.tuples());
        assert!(plain.store().is_none());
        let (store, dispatch) = indexed.store().expect("indexed view has a store");
        assert!(std::ptr::eq(store, &s));
        assert_eq!(dispatch, KernelDispatch::ForcedSimd);
    }

    /// Deterministic multi-block store: enough tuples for several blocks,
    /// with a strong early tuple so later blocks get corner-pruned.
    fn blocky_store(n: usize, dims: usize) -> PeerStore {
        let mut s = PeerStore::new();
        // A near-origin point that dominates most of the space.
        s.insert(Tuple::new(0, vec![0.01; dims]));
        let mut state: u64 = 0xD1B54A32D192ED03;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            0.05 + 0.95 * ((state >> 33) as f64) / ((1u64 << 31) as f64)
        };
        for i in 1..n as u64 {
            s.insert(Tuple::new(i, (0..dims).map(|_| next()).collect::<Vec<_>>()));
        }
        s
    }

    #[test]
    fn blocks_mirror_tracks_generation() {
        let mut s = blocky_store(600, 3);
        let b1 = s.blocks();
        assert_eq!(b1.built_at(), s.generation());
        assert_eq!(b1.rows(), 600);
        let b2 = s.blocks();
        assert!(Arc::ptr_eq(&b1, &b2), "fresh mirror is reused");
        s.insert(Tuple::new(9999, vec![0.5, 0.5, 0.5]));
        let b3 = s.blocks();
        assert!(!Arc::ptr_eq(&b1, &b3), "mutation invalidates the mirror");
        assert_eq!(b3.rows(), 601);
    }

    /// An insert invalidates the snapshot but the frozen runs are shared:
    /// rebuilding costs O(memtable), not O(store).
    #[test]
    fn snapshot_rebuild_shares_frozen_runs() {
        let mut s = blocky_store(600, 3);
        let before = s.blocks();
        s.insert(Tuple::new(9999, vec![0.5, 0.5, 0.5]));
        let after = s.blocks();
        assert_eq!(after.rows(), 601);
        // The two frozen runs are the same allocations in both snapshots.
        for b in 0..2 {
            assert!(std::ptr::eq(
                before.block_tuples(b).as_ptr(),
                after.block_tuples(b).as_ptr()
            ));
            assert!(!before.is_memtable(b));
        }
        assert!(after.is_memtable(after.num_blocks() - 1));
    }

    /// The blocked skyline rebuild (fresh mirror present) and the scalar
    /// rebuild produce the identical skyline — same set, order and
    /// duplicate representatives — and the blocked one actually prunes.
    #[test]
    fn blocked_skyline_rebuild_matches_scalar() {
        for n in [1usize, 255, 256, 257, 1500] {
            let s = blocky_store(n, 3);
            let scalar = dominance::skyline(s.tuples());
            s.blocks(); // make the mirror fresh before the skyline builds
            crate::scan::begin();
            let blocked = s.skyline();
            let c = crate::scan::end();
            assert_eq!(blocked, scalar, "n={n}");
            if n >= 3 * BLOCK_ROWS {
                assert!(
                    c.blocks_pruned > 0,
                    "dominating head tuple prunes later blocks"
                );
            }
            assert!(
                c.tuples_scanned + c.blocks_pruned * BLOCK_ROWS as u64
                    >= (n as u64).saturating_sub(255)
            );
        }
    }

    #[test]
    fn blocked_projection_rebuild_matches_scalar() {
        let scalar_store = blocky_store(900, 3);
        let blocked_store = blocky_store(900, 3);
        blocked_store.blocks();
        let score = LinearScore::new(vec![0.7, 0.2, 0.1]);
        let via_scalar: Vec<(u64, u64)> = scalar_store
            .with_ranked(&score, |it| it.map(|(t, s)| (t.id, s.to_bits())).collect())
            .unwrap();
        let via_blocks: Vec<(u64, u64)> = blocked_store
            .with_ranked(&score, |it| it.map(|(t, s)| (t.id, s.to_bits())).collect())
            .unwrap();
        assert_eq!(via_scalar, via_blocks, "bit-identical projections");
    }

    /// The LSM store against a flat `Vec<Tuple>` model of it, checked after
    /// every operation (compaction included): the tuple sequence, the
    /// skyline, the ranked walk against a stable descending sort of the
    /// model, membership and generation bumps. Each checkpoint also
    /// compares against a store built fresh from the model in one batch.
    #[test]
    fn lsm_agrees_with_model_under_churn() {
        let mut lsm = PeerStore::new();
        let mut model: Vec<Tuple> = Vec::new();
        let score = LinearScore::new(vec![0.9, 0.4]);
        let mut state: u64 = 0xA076_1D64_78BD_642F;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64) / ((1u64 << 31) as f64)
        };
        let walk = |s: &PeerStore| -> Vec<(u64, u64)> {
            s.with_ranked(&score, |it| it.map(|(t, s)| (t.id, s.to_bits())).collect())
                .unwrap()
        };
        let check = |lsm: &PeerStore, model: &[Tuple], what: &str| {
            assert_eq!(lsm.len(), model.len(), "{what}");
            assert_eq!(lsm.tuples(), model, "{what}: tuple order");
            assert_eq!(lsm.skyline(), dominance::skyline(model), "{what}: skyline");
            let mut ranked: Vec<(u64, f64)> = model
                .iter()
                .map(|t| (t.id, score.score(&t.point)))
                .collect();
            ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
            let ranked: Vec<(u64, u64)> = ranked.iter().map(|&(id, s)| (id, s.to_bits())).collect();
            assert_eq!(walk(lsm), ranked, "{what}: ranked walk");
            assert!(model.iter().all(|t| lsm.contains_id(t.id)), "{what}");
            let mut fresh = PeerStore::new();
            fresh.insert_batch(model.to_vec());
            assert_eq!(lsm.tuples(), fresh.tuples(), "{what}: fresh store");
            assert_eq!(lsm.skyline(), fresh.skyline(), "{what}: fresh skyline");
            assert_eq!(walk(lsm), walk(&fresh), "{what}: fresh ranked walk");
        };
        let mut id = 0u64;
        for round in 0..12 {
            let batch: Vec<Tuple> = (0..137)
                .map(|_| {
                    id += 1;
                    Tuple::new(id - 1, vec![next(), next()])
                })
                .collect();
            let gen = lsm.generation();
            model.extend(batch.iter().cloned());
            lsm.insert_batch(batch);
            assert_eq!(
                lsm.generation(),
                gen + 1,
                "round {round}: one bump per batch"
            );
            check(&lsm, &model, &format!("round {round} insert"));
            if round % 3 == 2 {
                let doomed: Vec<u64> = (0..id).filter(|i| i % 7 == round % 7).collect();
                let before = model.len();
                model.retain(|t| !doomed.contains(&t.id));
                let gen = lsm.generation();
                assert_eq!(lsm.delete_batch(doomed), before - model.len());
                assert_eq!(
                    lsm.generation(),
                    gen + 1,
                    "round {round}: one bump per delete"
                );
                check(&lsm, &model, &format!("round {round} delete"));
            }
            if round % 4 == 3 {
                let gen = lsm.generation();
                lsm.compact();
                assert_eq!(
                    lsm.generation(),
                    gen,
                    "round {round}: compaction never bumps"
                );
                check(&lsm, &model, &format!("round {round} compact"));
            }
        }
        assert!(lsm.ingest_stats().runs > 0, "the LSM store actually froze");
    }

    /// Compaction is a logical no-op: same tuples, same generation, same
    /// skyline and ranked walks — only the physical layout (runs,
    /// tombstones) changes.
    #[test]
    fn compaction_is_invisible() {
        let mut s = blocky_store(1000, 3);
        let doomed: Vec<u64> = (0..1000).filter(|i| i % 3 == 0).collect();
        s.delete_batch(doomed);
        let gen = s.generation();
        let tuples_before = s.tuples().to_vec();
        let sky_before = s.skyline();
        let score = LinearScore::new(vec![0.5, 0.3, 0.2]);
        let walk = |s: &PeerStore| -> Vec<(u64, u64)> {
            s.with_ranked(&score, |it| it.map(|(t, s)| (t.id, s.to_bits())).collect())
                .unwrap()
        };
        let walk_before = walk(&s);
        // The quarter-dead trigger already ran a compaction inside
        // delete_batch; force another full pass explicitly (idempotent on
        // a clean store).
        let rewritten = s.compact();
        assert_eq!(s.generation(), gen, "no generation bump");
        assert_eq!(s.tuples(), &tuples_before[..]);
        assert_eq!(s.skyline(), sky_before);
        assert_eq!(walk(&s), walk_before);
        assert_eq!(s.ingest_stats().tombstones, 0, "masks rewritten away");
        let blocks = s.blocks();
        assert_eq!(blocks.rows(), s.len());
        for b in 0..blocks.num_blocks() {
            assert!(blocks.block_dead(b).is_none(), "compacted runs are dense");
        }
        // Either the trigger compacted everything already (second pass is
        // a no-op) or the explicit pass rewrote the remaining masks.
        let stats = s.ingest_stats();
        assert!(stats.compactions_run >= 1);
        assert!(stats.rows_compacted >= rewritten);
    }

    /// Write amplification stays a small constant: each row is written
    /// once on insert and once on freeze (plus compaction rewrites).
    #[test]
    fn ingest_stats_track_write_amplification() {
        let mut s = PeerStore::new();
        s.insert_batch((0..1024u64).map(|i| t(i, (i as f64 * 0.617) % 1.0)));
        let stats = s.ingest_stats();
        assert_eq!(stats.rows_ingested, 1024);
        assert_eq!(stats.rows_frozen, 1024, "4 full runs");
        assert_eq!(stats.memtable_rows, 0);
        assert_eq!(stats.rows_rewritten(), 1024);
        assert!((stats.write_amplification() - 2.0).abs() < 1e-12);
        // A store that never fills a block never rewrites: WA stays 1.
        let mut l = PeerStore::new();
        l.insert_batch((0..BLOCK_ROWS as u64 - 1).map(|i| t(i, (i as f64 * 0.617) % 1.0)));
        assert!((l.ingest_stats().write_amplification() - 1.0).abs() < 1e-12);
    }

    /// The merge walk reports memtable reads and tombstone skips through
    /// the scan bracket; a store with frozen runs, a tail and tombstones
    /// exercises all three counters.
    #[test]
    fn ranked_walk_reports_memtable_and_tombstones() {
        let mut s = PeerStore::new();
        s.insert_batch((0..600u64).map(|i| t(i, (i as f64 * 0.473) % 1.0)));
        s.delete_batch((0..600).filter(|i| i % 10 == 0));
        let score = LinearScore::uniform(2);
        // Build the projection outside the bracket; measure the walk only.
        let _ = s.with_ranked(&score, |it| it.count());
        crate::scan::begin();
        let n = s.with_ranked(&score, |it| it.count()).unwrap();
        let c = crate::scan::end();
        assert_eq!(n, s.len());
        assert_eq!(
            c.memtable_hits,
            (s.len() - s.frozen_live) as u64,
            "every tail row surfaced through the memtable source"
        );
        assert!(
            c.tombstones_masked > 0,
            "masked entries were skipped during the merge"
        );
        assert_eq!(
            c.tuples_scanned, 0,
            "walking a fresh projection rescans nothing"
        );
    }

    /// Overflowing MAX_PROJECTIONS evicts the least-recently-hit live
    /// projection and never changes any query result.
    #[test]
    fn projection_eviction_is_lru_and_invisible() {
        let mut s = PeerStore::new();
        for i in 0..50u64 {
            let x = (i as f64 * 0.37) % 1.0;
            let y = (i as f64 * 0.61) % 1.0;
            s.insert(t2(i, x, y));
        }
        let scores: Vec<LinearScore> = (0..MAX_PROJECTIONS as u64 + 8)
            .map(|i| LinearScore::new(vec![1.0 + i as f64, 2.0]))
            .collect();
        let expected: Vec<Vec<u64>> = scores
            .iter()
            .map(|sc| {
                let mut manual: Vec<(f64, u64)> = s
                    .tuples()
                    .iter()
                    .map(|t| (sc.score(&t.point), t.id))
                    .collect();
                manual.sort_by(|a, b| b.0.total_cmp(&a.0));
                manual.into_iter().map(|(_, id)| id).collect()
            })
            .collect();
        let walk = |sc: &LinearScore| -> Vec<u64> {
            s.with_ranked(sc, |it| it.map(|(t, _)| t.id).collect())
                .unwrap()
        };
        // Fill the cache, keep score 0 hot, then overflow: the cold entries
        // get evicted, score 0 survives, and every answer stays correct.
        for (i, sc) in scores.iter().enumerate() {
            assert_eq!(walk(sc), expected[i], "fill {i}");
            assert_eq!(walk(&scores[0]), expected[0], "hot entry stays right");
        }
        let live = s.cache.read().unwrap().projections.len();
        assert!(live <= MAX_PROJECTIONS, "eviction caps the cache: {live}");
        assert!(
            s.cache
                .read()
                .unwrap()
                .slot(scores[0].cache_key().unwrap())
                .is_some(),
            "the always-hit projection survives LRU eviction"
        );
        // Revisiting everything (including evicted entries) still agrees.
        for (i, sc) in scores.iter().enumerate() {
            assert_eq!(walk(sc), expected[i], "revisit {i}");
        }
    }

    /// Store-path scan accounting: rebuilds report rows scanned / blocks
    /// pruned inside a bracket and stay silent outside one.
    #[test]
    fn store_rebuilds_report_scan_effort() {
        let s = blocky_store(700, 3);
        s.blocks();
        crate::scan::begin();
        let _ = s.skyline();
        let c = crate::scan::end();
        assert!(c.tuples_scanned > 0);
        assert!(c.tuples_scanned as usize + c.blocks_pruned as usize * BLOCK_ROWS >= 700 - 256);
        crate::scan::begin();
        let _ = s.skyline(); // cache hit: no scan work
        assert_eq!(crate::scan::end(), ScanCounts::default());
    }

    /// After an insert, refreshing a projection rescans only the memtable
    /// tail — the frozen runs keep their sorted entries.
    #[test]
    fn projection_refresh_is_proportional_to_the_delta() {
        let mut s = PeerStore::new();
        s.insert_batch((0..2048u64).map(|i| t(i, (i as f64 * 0.731) % 1.0)));
        let score = LinearScore::uniform(2);
        let _ = s.with_ranked(&score, |it| it.count());
        s.insert(t(5000, 0.42));
        crate::scan::begin();
        let _ = s.with_ranked(&score, |it| it.count());
        let c = crate::scan::end();
        assert_eq!(
            c.tuples_scanned, 1,
            "only the 1-row memtable rescored ({} frozen rows untouched)",
            s.frozen_live
        );
    }

    /// The naive reference for a ranked walk: a stable descending sort of
    /// the logical tuple vector, as `(id, score bits)`.
    fn naive_ranked(s: &PeerStore, score: &LinearScore) -> Vec<(u64, u64)> {
        let mut manual: Vec<(u64, f64)> = s
            .tuples()
            .iter()
            .map(|t| (t.id, score.score(&t.point)))
            .collect();
        manual.sort_by(|a, b| b.1.total_cmp(&a.1));
        manual
            .into_iter()
            .map(|(id, sc)| (id, sc.to_bits()))
            .collect()
    }

    /// Walks the fresh projection of `score` twice, each inside a scan
    /// bracket: as `ranked_merge` serves it (which must be the
    /// single-source walk) and through the heap merge over the same lone
    /// memtable source — the walk every store took before the
    /// single-source path existed.
    fn single_and_heap_walks(
        s: &PeerStore,
        score: &LinearScore,
    ) -> [(Vec<(u64, u64)>, ScanCounts); 2] {
        let _ = s.with_ranked(score, |it| it.count());
        let cache = s.cache.read().unwrap();
        let proj = &cache.projections[cache.slot(score.cache_key().unwrap()).unwrap()].1;
        let walk = |it: RankedMerge<'_>| {
            crate::scan::begin();
            let v: Vec<(u64, u64)> = it.map(|(t, sc)| (t.id, sc.to_bits())).collect();
            (v, crate::scan::end())
        };
        let single = s.ranked_merge(proj);
        assert!(
            matches!(single, RankedMerge::Single(_)),
            "no live run row: the walk takes the single-source path"
        );
        [
            walk(single),
            walk(RankedMerge::merge(vec![s.tail_cursor(proj)])),
        ]
    }

    /// With no live run row, the ranked walk reads the memtable entries
    /// directly — no heap, no cursor vector — and must still be the stable
    /// descending sort, with the scan counters the heap merge reports.
    #[test]
    fn single_source_walk_matches_sort_and_heap_merge() {
        // Ids `i` and `i + 10` share a point: exact score ties.
        let row = |i: u64| {
            t2(
                i,
                ((i * 7) % 10) as f64 / 10.0,
                ((i * 3) % 10) as f64 / 10.0,
            )
        };
        let mut memtable_only = PeerStore::new();
        memtable_only.insert_batch((0..40).map(row));
        assert!(memtable_only.runs.is_empty());
        // Runs whose every row is tombstoned: the removal without the
        // compaction `delete_batch` would follow it with.
        let mut all_dead = PeerStore::new();
        all_dead.insert_batch((0..2 * BLOCK_ROWS as u64 + 30).map(row));
        let frozen: FxHashSet<u64> = all_dead.tuples()[..all_dead.frozen_live]
            .iter()
            .map(|t| t.id)
            .collect();
        all_dead.remove_where(|t| frozen.contains(&t.id));
        assert_eq!(all_dead.runs.len(), 2);
        assert!(all_dead.runs.iter().all(|r| r.live == 0));
        assert_eq!(all_dead.len(), 30);
        let score = LinearScore::new(vec![1.0, 2.0]);
        for s in [&memtable_only, &all_dead] {
            let [(single, c_single), (heap, c_heap)] = single_and_heap_walks(s, &score);
            assert_eq!(single, naive_ranked(s, &score), "stable descending sort");
            assert_eq!(single, heap, "same walk as the heap merge");
            assert_eq!(c_single, c_heap, "same scan counters as the heap merge");
            assert_eq!(c_single.memtable_hits, s.len() as u64);
            assert_eq!(c_single.tombstones_masked, 0, "dead runs are skipped whole");
            assert_eq!(c_single.tuples_scanned, 0);
        }
    }

    /// A thousand distinct scoring functions, interleaved with inserts,
    /// deletes and compactions, never grow the projection slots past
    /// `MAX_PROJECTIONS`, keep their keys unique, and every walk stays the
    /// stable descending sort; a stale projection is refreshed in its own
    /// slot rather than added again.
    #[test]
    fn projection_slots_stay_capped_and_refresh_in_place() {
        let mut s = PeerStore::new();
        s.insert_batch((0..300u64).map(|i| t(i, (i as f64 * 0.377) % 1.0)));
        let (mut next_id, mut oldest) = (300u64, 0u64);
        let scores: Vec<LinearScore> = (0..1000u64)
            .map(|i| LinearScore::new(vec![1.0 + i as f64, 2.0]))
            .collect();
        let keys = |s: &PeerStore| -> Vec<u64> {
            s.cache
                .read()
                .unwrap()
                .projections
                .iter()
                .map(|(k, _)| *k)
                .collect()
        };
        for (i, sc) in scores.iter().enumerate() {
            match i % 7 {
                0 => {
                    s.insert(t(next_id, (next_id as f64 * 0.611) % 1.0));
                    next_id += 1;
                }
                3 => {
                    s.delete_batch([oldest]);
                    oldest += 1;
                }
                5 => {
                    s.compact();
                }
                _ => {}
            }
            let walked: Vec<(u64, u64)> = s
                .with_ranked(sc, |it| it.map(|(t, x)| (t.id, x.to_bits())).collect())
                .unwrap();
            assert_eq!(walked, naive_ranked(&s, sc), "walk {i}");
            let held = keys(&s);
            assert!(
                held.len() <= MAX_PROJECTIONS,
                "step {i}: {} slots",
                held.len()
            );
            let unique: HashSet<u64> = held.iter().copied().collect();
            assert_eq!(unique.len(), held.len(), "step {i}: duplicate key");
            assert!(held.contains(&sc.cache_key().unwrap()));
        }
        let hot = &scores[999];
        let key = hot.cache_key().unwrap();
        s.insert(t(next_id, 0.5));
        let before = keys(&s);
        {
            let cache = s.cache.read().unwrap();
            let proj = &cache.projections[cache.slot(key).unwrap()].1;
            assert_ne!(proj.tail_built_at, s.generation, "the insert left it stale");
        }
        let walked: Vec<(u64, u64)> = s
            .with_ranked(hot, |it| it.map(|(t, x)| (t.id, x.to_bits())).collect())
            .unwrap();
        assert_eq!(walked, naive_ranked(&s, hot));
        assert_eq!(
            keys(&s),
            before,
            "refreshed in its own slot, nothing evicted"
        );
        let cache = s.cache.read().unwrap();
        assert_eq!(
            cache.projections[cache.slot(key).unwrap()].1.tail_built_at,
            s.generation
        );
    }
}
