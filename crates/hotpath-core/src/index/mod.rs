//! The grid-based MotionPath index of Section 5.1.

mod grid;
mod motion_path_index;
mod vertex_groups;

pub use grid::{CellKey, EndpointGrid, Entry};
pub use motion_path_index::{point_lt, MotionPathIndex, OutEdge, VertexKey};
pub use vertex_groups::VertexGroups;
