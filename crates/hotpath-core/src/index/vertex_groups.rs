//! Reusable vertex-group accumulator for the Case-2 query.
//!
//! Phase B groups the end vertices inside each deferred state's FSA.
//! [`VertexGroups`] keeps the allocations of that grouping alive across
//! calls — the grouping map and the per-group id vectors are
//! capacity-retaining pools — so steady-state epochs regroup vertices
//! without touching the heap. Groups stay in first-seen order, ids in
//! push order: Phase B picks its vertex by a strict total order over
//! distinct vertices and sums each group's hotness, so neither order is
//! observable, and only the [`VertexGroups::to_vec`] copy is sorted.

use super::path_table::{point_lt, VertexKey};
use crate::fxhash::FxHashMap;
use crate::geometry::Point;
use crate::motion_path::PathId;

/// A reusable accumulator of end-vertex groups: distinct vertices (by
/// quantized key) with the paths converging to each.
#[derive(Clone, Debug, Default)]
pub struct VertexGroups {
    /// Quantized key -> slot position for the current batch.
    by_key: FxHashMap<VertexKey, u32>,
    /// Slot pool; only the first `len` slots are live. Inner vectors
    /// keep their capacity when a batch is cleared.
    slots: Vec<(Point, Vec<PathId>)>,
    /// Live slot count for the current batch.
    len: usize,
}

impl VertexGroups {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of groups in the current batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the current batch has no groups.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Starts a new batch, retaining every allocation.
    pub fn clear(&mut self) {
        self.by_key.clear();
        self.len = 0;
    }

    /// Adds one `(vertex, path)` observation. Observations sharing a
    /// quantized key join one group whose representative point is the
    /// lexicographically smallest raw endpoint seen — the canonical
    /// choice that keeps answers independent of visit order (grid cell
    /// order and each cell's insert/remove history).
    pub fn push(&mut self, key: VertexKey, point: Point, id: PathId) {
        let slot = match self.by_key.get(&key) {
            Some(&s) => {
                let slot = &mut self.slots[s as usize];
                if point_lt(&point, &slot.0) {
                    slot.0 = point;
                }
                slot
            }
            None => {
                let s = self.len;
                self.by_key.insert(key, s as u32);
                self.len += 1;
                if s == self.slots.len() {
                    self.slots.push((point, Vec::new()));
                } else {
                    let slot = &mut self.slots[s];
                    slot.0 = point;
                    slot.1.clear();
                }
                &mut self.slots[s]
            }
        };
        slot.1.push(id);
    }

    /// Iterates the batch's groups in first-seen order, each group's ids
    /// in push order.
    pub fn iter(&self) -> impl Iterator<Item = (&Point, &[PathId])> {
        self.slots[..self.len].iter().map(|(p, ids)| (p, ids.as_slice()))
    }

    /// Copies the batch out in canonical order — groups by
    /// representative point `(x, y)`, ids ascending within each group —
    /// for tests and the allocating [`super::PathTable::end_vertices_in`].
    pub fn to_vec(&self) -> Vec<(Point, Vec<PathId>)> {
        let mut out: Vec<(Point, Vec<PathId>)> =
            self.iter().map(|(p, ids)| (*p, ids.to_vec())).collect();
        out.sort_by(|(pa, _), (pb, _)| pa.x.total_cmp(&pb.x).then(pa.y.total_cmp(&pb.y)));
        for (_, ids) in &mut out {
            ids.sort_unstable();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_sort_and_canonicalize() {
        let mut g = VertexGroups::new();
        g.push((1, 0), Point::new(10.0, 0.0), PathId(5));
        g.push((0, 0), Point::new(0.0, 0.0), PathId(3));
        g.push((1, 0), Point::new(10.0, 0.0), PathId(1));
        assert_eq!(g.len(), 2);
        let got = g.to_vec();
        assert_eq!(got[0], (Point::new(0.0, 0.0), vec![PathId(3)]));
        assert_eq!(got[1], (Point::new(10.0, 0.0), vec![PathId(1), PathId(5)]));
    }

    #[test]
    fn representative_point_is_lexicographic_min() {
        for (first, second) in [
            (Point::new(5.0, 5.0), Point::new(5.0 + 1e-4, 5.0)),
            (Point::new(5.0 + 1e-4, 5.0), Point::new(5.0, 5.0)),
        ] {
            let mut g = VertexGroups::new();
            g.push((9, 9), first, PathId(0));
            g.push((9, 9), second, PathId(1));
            assert_eq!(g.to_vec()[0].0, Point::new(5.0, 5.0));
        }
    }

    #[test]
    fn clear_reuses_slots_without_bleeding_state() {
        let mut g = VertexGroups::new();
        g.push((0, 0), Point::new(0.0, 0.0), PathId(0));
        g.push((0, 0), Point::new(0.0, 0.0), PathId(1));
        assert_eq!(g.to_vec()[0].1.len(), 2);

        g.clear();
        assert!(g.is_empty());
        g.push((2, 2), Point::new(2.0, 2.0), PathId(9));
        assert_eq!(g.to_vec(), vec![(Point::new(2.0, 2.0), vec![PathId(9)])]);
    }
}
