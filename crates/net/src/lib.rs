//! Simulation fabric shared by every overlay in the RIPPLE reproduction.
//!
//! The paper evaluates RIPPLE by *simulating* a dynamic decentralized network
//! (Section 7.1) and reporting two metrics: **latency** (hops on the critical
//! path of a query) and **congestion** (average number of queries a peer
//! processes when `n` uniform queries are issued). This crate provides the
//! process-local machinery those measurements rest on:
//!
//! * [`PeerId`] — stable handles for simulated peers (never reused, so churn
//!   cannot confuse link targets).
//! * [`QueryMetrics`] — the per-query cost ledger each distributed algorithm
//!   fills in (hops, query messages, response messages, tuples shipped).
//! * [`MetricsAggregator`] — turns many [`QueryMetrics`] into the paper's
//!   metrics for one experimental point.
//! * [`PeerStore`] — per-peer tuple storage with the key-movement operations
//!   joins and leaves need.
//! * [`block`] — the generation-validated columnar (structure-of-arrays)
//!   mirror of a store, cut into fixed-size blocks with per-block pruning
//!   bounds; the data layout the `ripple_geom::kernels` scan paths consume.
//! * [`scan`] — thread-local accounting of local data-plane work (tuples
//!   scanned, blocks pruned), bracketed by the executor and off by default.
//! * [`churn`] — the two-stage (increasing / decreasing) network dynamics
//!   driver of Section 7.1.
//! * [`fault`] — the seeded, deterministic fault-injection policies:
//!   omission faults ([`FaultPlane`] — message drops, slow peers,
//!   ungraceful crashes) and commission faults ([`CorruptionPlane`] —
//!   corrupted responses audited online by the executor).
//! * [`quarantine`] — the registry of peers caught lying by the online
//!   response audit ([`Quarantine`]), with the probation lifecycle that
//!   re-admits them only after an audited-clean probe.
//! * [`pool`] — the scoped work-stealing fork–join pool the intra-query
//!   parallel executor runs on.
//! * [`replica`] — the k-replication ledger ([`ReplicaSet`]) that lets a
//!   failover target answer for a crashed peer's region from a read-only
//!   copy instead of abandoning it.
//! * [`hash`] — a vendored deterministic FxHash for hot-path collections.
//! * [`table`] — the peer table ([`PeerTable`]) a replicated substrate
//!   keeps its peers in, and the [`Substrate`] trait that gives it the
//!   shared write path, replica policy and maintenance counters.

#![warn(missing_docs)]

pub mod block;
pub mod churn;
pub mod fault;
pub mod hash;
pub mod metrics;
pub mod peer;
pub mod pool;
pub mod quarantine;
pub mod replica;
pub mod rng;
pub mod scan;
pub mod stats;
pub mod store;
pub mod table;

pub use block::{BlockEntry, BlockSet, RunData, BLOCK_ROWS};
pub use churn::{ChurnOverlay, ChurnStage};
pub use fault::{CorruptionMode, CorruptionPlane, CorruptionSession, FaultPlane, FaultSession};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use metrics::{BranchLedger, MetricsAggregator, PointSummary, QueryMetrics, ShardedVisited};
pub use peer::PeerId;
pub use quarantine::{Quarantine, QuarantineSnapshot, Standing};
pub use replica::{Replica, ReplicaSet};
pub use scan::ScanCounts;
pub use stats::{Distribution, Ewma, ModeStats, Plan, PlanSource, PlannedMode, QueryStats};
pub use store::{IngestStats, LocalView, PeerStore};
pub use table::{PeerTable, Substrate, TableAccess, TablePeer};
