//! The path table: the grid-based MotionPath index of Section 5.1 and
//! the sliding-window hotness of Section 5.2, over one slab.

mod grid;
mod path_table;
mod vertex_groups;

pub use grid::{CellKey, EndpointGrid, Entry};
pub use path_table::{ExpiryEvent, OutEdge, PathTable, VertexKey};
pub use vertex_groups::VertexGroups;

/// Tests of the table's MotionPath-index side: storage, dedup, removal
/// and the Case-1 / Case-2 queries (Section 5.1).
#[cfg(test)]
mod motion_path_index {
    mod tests;
}
