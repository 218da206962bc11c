//! # hotpath-netsim
//!
//! The workload substrate of the EDBT 2008 evaluation: a synthetic
//! Athens-like road network (1125 nodes / 1831 links / 250 km² with four
//! weighted road classes) and the moving-object generator that walks it
//! (weighted link choice, agility `alpha`, displacement `s`, uniform
//! white measurement noise `err`).
//!
//! The hot-path algorithms never see the network — they only receive
//! noisy timepoint streams — exactly as in the paper's setup.
//!
//! ```
//! use hotpath_netsim::network::{generate, NetworkParams};
//! use hotpath_netsim::mobility::{Population, PopulationParams};
//! use hotpath_core::time::Timestamp;
//!
//! let net = generate(NetworkParams::tiny(42));
//! let mut pop = Population::new(&net, PopulationParams::paper_defaults(100, 42));
//! let measurements = pop.tick_collect(&net, Timestamp(1));
//! assert!(measurements.len() <= 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod mobility;
pub mod network;
pub mod scenario;
