//! # RIPPLE — distributed processing of rank queries over DHTs
//!
//! A comprehensive Rust reproduction of *"RIPPLE: A Scalable Framework for
//! Distributed Processing of Rank Queries"* (Tsatsanifos, Sacharidis,
//! Sellis — EDBT 2014).
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`geom`] | `ripple-geom` | points, boxes, norms, scoring (`f`/`f⁺`), dominance & skylines, the diversification objective (`f`, `φ`, `φ⁻`), Z-order curve, k-d bit paths |
//! | [`data`] | `ripple-data` | SYNTH / NBA-like / MIRFLICKR-like dataset generators and query workloads |
//! | [`net`] | `ripple-net` | peer ids, metric ledgers (latency/congestion), tuple stores, the peer table (write path, replica ledger, maintenance counters), churn driver |
//! | [`midas`] | `ripple-midas` | the MIDAS virtual-k-d-tree DHT (RIPPLE's showcase substrate) |
//! | [`can`] | `ripple-can` | the CAN DHT + the DSL skyline and flooding-diversification baselines |
//! | [`baton`] | `ripple-baton` | the BATON tree DHT + the SSP skyline baseline |
//! | [`chord`] | `ripple-chord` | a Chord ring with a RIPPLE adapter (genericity demo) |
//! | [`core`] | `ripple-core` | the RIPPLE framework itself: `fast`/`slow`/`ripple(r)` templates and the top-k, skyline and k-diversification instantiations |
//!
//! ## Quickstart
//!
//! ```
//! use ripple_net::rng::SeedableRng;
//! use ripple::core::framework::Mode;
//! use ripple::core::skyline::{centralized_skyline, run_skyline};
//! use ripple::geom::Tuple;
//! use ripple::midas::MidasNetwork;
//! use ripple::net::Substrate;
//!
//! // Build a 256-peer MIDAS overlay over a 2-d domain and load data.
//! let mut rng = ripple_net::rng::rngs::SmallRng::seed_from_u64(42);
//! let mut net = MidasNetwork::build(2, 256, true, &mut rng);
//! let data: Vec<Tuple> = (0..2_000u64)
//!     .map(|i| {
//!         let x = ripple_net::rng::Rng::gen::<f64>(&mut rng);
//!         let y = ripple_net::rng::Rng::gen::<f64>(&mut rng);
//!         Tuple::new(i, vec![x, y])
//!     })
//!     .collect();
//! net.insert_all(data.clone());
//!
//! // Any peer can pose a skyline query; the answer equals the centralized one.
//! let initiator = net.random_peer(&mut rng);
//! let (skyline, metrics) = run_skyline(&net, initiator, Mode::Fast);
//! assert_eq!(skyline, centralized_skyline(&data));
//! assert!(metrics.latency <= net.delta() as u64); // Lemma 1
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and `ripple-bench` for
//! the harness that regenerates every table and figure of the paper.

#![warn(missing_docs)]

pub use ripple_baton as baton;
pub use ripple_can as can;
pub use ripple_chord as chord;
pub use ripple_core as core;
pub use ripple_data as data;
pub use ripple_geom as geom;
pub use ripple_midas as midas;
pub use ripple_net as net;
