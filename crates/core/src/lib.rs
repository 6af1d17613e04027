//! RIPPLE: a scalable framework for distributed processing of rank queries
//! (Tsatsanifos, Sacharidis, Sellis — EDBT 2014).
//!
//! This crate is the paper's primary contribution: the generic propagation
//! framework of Section 3 and its three instantiations.
//!
//! * [`framework`] — the abstract interfaces: [`RankQuery`] (the six
//!   query-specific functions of Algorithms 1–3) and [`RippleOverlay`] (what
//!   RIPPLE assumes from a DHT: links annotated with domain *regions*).
//! * [`exec`] — the three propagation templates: `fast` (Alg. 1), `slow`
//!   (Alg. 2) and `ripple(r)` (Alg. 3), plus the naive broadcast baseline,
//!   with hop/message accounting that matches Lemmas 1–3.
//! * [`topk`] — top-k queries (Section 4, Algs. 4–9).
//! * [`skyline`] — skyline queries (Section 5, Algs. 10–15).
//! * [`diversify`] — k-diversification (Section 6, Algs. 16–23), the first
//!   distributed solution for this query type.
//! * [`latency`] — the worst-case latency recurrences of Lemmas 1–3.
//! * [`range`] — range queries as the degenerate (state-free) RIPPLE
//!   instantiation the introduction contrasts rank queries with.
//! * The [`RippleOverlay`] implementation for MIDAS lives in
//!   [`midas_impl`]; the Chord implementation lives in the `ripple-chord`
//!   crate, demonstrating the framework's substrate-genericity.
//!
//! # Quick example
//!
//! ```
//! use ripple_net::rng::SeedableRng;
//! use ripple_core::framework::Mode;
//! use ripple_core::topk::run_topk;
//! use ripple_geom::{LinearScore, Tuple};
//! use ripple_midas::MidasNetwork;
//! use ripple_net::Substrate;
//!
//! let mut rng = ripple_net::rng::rngs::SmallRng::seed_from_u64(1);
//! let mut net = MidasNetwork::build(2, 64, false, &mut rng);
//! for i in 0..500u64 {
//!     let p = vec![ripple_net::rng::Rng::gen::<f64>(&mut rng), ripple_net::rng::Rng::gen::<f64>(&mut rng)];
//!     net.insert_tuple(Tuple::new(i, p));
//! }
//! let initiator = net.random_peer(&mut rng);
//! let (top, metrics) = run_topk(&net, initiator, LinearScore::uniform(2), 10, Mode::Fast);
//! assert_eq!(top.len(), 10);
//! assert!(metrics.latency <= net.delta() as u64);
//! ```

#![warn(missing_docs)]

#[cfg(test)]
mod audit_equivalence;
#[cfg(test)]
mod cert_equivalence;
pub mod diversify;
pub mod exec;
#[cfg(test)]
mod exec_tests;
#[cfg(test)]
mod fault_equivalence;
pub mod framework;
#[cfg(test)]
mod index_equivalence;
#[cfg(test)]
mod ingest_equivalence;
#[cfg(test)]
mod kernel_equivalence;
pub mod latency;
pub mod midas_impl;
#[cfg(test)]
mod parallel_equivalence;
pub mod planner;
pub mod range;
#[cfg(test)]
mod replica_equivalence;
pub mod service;
#[cfg(test)]
mod service_equivalence;
pub mod skyline;
pub mod topk;
#[cfg(test)]
mod verify_mutation;

pub use exec::Executor;
pub use framework::{Coverage, Mode, QueryOutcome, RankQuery, RippleOverlay};
pub use planner::{box_selectivity, run_planned, CostWeights, PlanInputs, Planner, QueryHint};
pub use range::{run_range, run_range_certified, RangeQuery};
pub use ripple_verify::{CertRegion, Certificate, PruneWitness, VerifyError};
pub use service::{
    QueryService, Servable, Served, ServiceConfig, ServiceError, ServiceQuery, ServiceResponse,
    ServiceScore, ServiceStats, TenantStats, Ticket,
};
pub use skyline::{
    run_skyline, run_skyline_certified, run_skyline_certified_par, run_skyline_query,
    run_skyline_query_with, SkylineQuery,
};
pub use topk::{run_topk, run_topk_certified, run_topk_certified_par, run_topk_with, TopKQuery};
