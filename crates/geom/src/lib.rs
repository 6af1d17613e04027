//! Geometric and order-theoretic foundations for the RIPPLE reproduction.
//!
//! This crate is substrate-free: it knows nothing about peers or overlays.
//! It provides the multidimensional domain model shared by every other crate:
//!
//! * [`Point`] / [`Tuple`] — keys and data records in the unit cube `[0,1]^d`.
//! * [`Rect`] — axis-aligned boxes, used for peer *zones*, link *regions* and
//!   restriction areas (Section 3.1 of the paper).
//! * [`Norm`] — the L1 / L2 / L∞ distance functions used by queries
//!   (the paper uses L1 for the MIRFLICKR diversification workload).
//! * [`score`] — monotone/unimodal top-k scoring functions together with the
//!   region upper bound `f⁺` required by Algorithms 8–9.
//! * [`dominance`] — Pareto dominance, centralized skyline operators and the
//!   region-dominance test required by Algorithm 14.
//! * [`kernels`] — batched, auto-vectorization-friendly scan kernels over
//!   columnar (structure-of-arrays) coordinate data, bit-identical to their
//!   scalar references; the local data plane of the blocked scan paths.
//! * [`diversity`] — the k-diversification objective (Eq. 1), the single tuple
//!   insertion score `φ` (Eq. 3) and its region lower bound `φ⁻`
//!   (Algorithms 20–21).
//! * [`zorder`] — the Z-order space-filling curve used by the SSP baseline
//!   over BATON, including the interval→maximal-cell decomposition its pruning needs.
//! * [`kdspace`] — bit-path ↔ rectangle arithmetic for the MIDAS virtual
//!   k-d tree, including the Section 5.2 lower-border bit patterns.

#![warn(missing_docs)]

pub mod diversity;
pub mod dominance;
pub mod kdspace;
pub mod kernels;
pub mod norm;
pub mod point;
pub mod rect;
pub mod score;
pub mod sum;
pub mod zorder;

pub use diversity::{DiversityQuery, SetStats};
pub use dominance::{
    constrained_skyline, dominates, dominates_rect, skyline, skyline_fold, skyline_insert,
    skyline_merge, FlatSkyline,
};
pub use kernels::KernelDispatch;
pub use norm::Norm;
pub use point::{Point, Tuple, TupleId};
pub use rect::Rect;
pub use score::{AdHoc, LinearScore, PeakScore, ScoreFn};
pub use sum::neumaier;
