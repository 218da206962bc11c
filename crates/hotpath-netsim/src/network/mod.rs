//! Road-network substrate: graph model and synthetic Athens-like
//! generator.

pub mod generator;
mod graph;

pub use generator::{generate, NetworkParams};
pub use graph::{ClosureSet, Link, LinkId, Node, NodeId, RoadClass, RoadNetwork};
