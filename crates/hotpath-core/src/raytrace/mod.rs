//! The client-side RayTrace filter (Section 4): SSA maintenance and the
//! Algorithm 1 state machine.

mod filter;
mod ssa;

pub use filter::{ClientState, FilterStats, RayTraceCore, RayTraceFilter, UncertainRayTraceFilter};
pub use ssa::Ssa;
