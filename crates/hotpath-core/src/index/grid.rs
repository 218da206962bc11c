//! The lightweight uniform grid underlying the MotionPath index
//! (Section 5.1).
//!
//! Space is partitioned into square cells; each cell is a flat vector
//! of *end-vertex* entries. Only end vertices are indexed because only
//! they are ever range-queried (the Case-2 "available vertices" query);
//! "paths leaving a vertex" (Case 1) is an exact-match lookup the
//! [`PathTable`](super::PathTable) answers from its adjacency lists. The cell side is on the order of an FSA's side, so
//! a range query probes at most a handful of cells and scans only
//! entries near the FSA.
//!
//! Insertion appends and removal `swap_remove`s by position — both
//! constant time however crowded a cell is. The caller keeps each
//! entry's position (returned by [`EndpointGrid::insert`], updated from
//! [`EndpointGrid::remove`]'s return value), which is what lets the grid
//! skip any per-cell id lookup structure. A cell that empties leaves the
//! map, but its buffer is kept and handed to the next new cell, so
//! paths coming and going through empty cells do not touch the heap.

use crate::fxhash::FxHashMap;
use crate::geometry::{Point, Rect};
use crate::motion_path::PathId;

/// One grid entry: a path's end vertex and the path's id.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Entry {
    /// The indexed end vertex.
    pub endpoint: Point,
    /// The path ending there.
    pub path: PathId,
}

/// Integer cell coordinates.
pub type CellKey = (i64, i64);

/// A uniform grid of end-vertex entries.
#[derive(Clone, Debug)]
pub struct EndpointGrid {
    cell: f64,
    cells: FxHashMap<CellKey, Vec<Entry>>,
    /// Emptied cells' buffers, kept for the next new cell.
    spare: Vec<Vec<Entry>>,
    len: usize,
}

impl EndpointGrid {
    /// Creates a grid with square cells of side `cell` meters.
    pub fn new(cell: f64) -> Self {
        assert!(cell > 0.0 && cell.is_finite(), "cell side must be positive");
        EndpointGrid { cell, cells: FxHashMap::default(), spare: Vec::new(), len: 0 }
    }

    /// Number of stored entries (one per indexed path).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The cell containing `p`.
    #[inline]
    pub fn key_of(&self, p: &Point) -> CellKey {
        ((p.x / self.cell).floor() as i64, (p.y / self.cell).floor() as i64)
    }

    /// Appends `entry` to its cell and returns its position there, which
    /// the caller must remember to [`remove`](Self::remove) it. No
    /// duplicate check: each path is inserted once by construction.
    pub fn insert(&mut self, entry: Entry) -> u32 {
        let key = self.key_of(&entry.endpoint);
        let slot = self.cells.entry(key).or_insert_with(|| self.spare.pop().unwrap_or_default());
        slot.push(entry);
        self.len += 1;
        (slot.len() - 1) as u32
    }

    /// Removes the entry at position `pos` of the cell containing
    /// `endpoint`. The cell's last entry takes the vacated position;
    /// returns that entry's path (whose recorded position the caller
    /// must update to `pos`), or `None` when the removed entry was last.
    ///
    /// # Panics
    /// When `(endpoint, pos)` does not address a stored entry — the
    /// caller's position bookkeeping is broken.
    pub fn remove(&mut self, endpoint: &Point, pos: u32) -> Option<PathId> {
        let key = self.key_of(endpoint);
        let slot = self.cells.get_mut(&key).expect("no grid cell at a stored entry's endpoint");
        slot.swap_remove(pos as usize);
        self.len -= 1;
        let moved = slot.get(pos as usize).map(|e| e.path);
        if slot.is_empty() {
            self.spare.extend(self.cells.remove(&key));
        }
        moved
    }

    /// The entry at position `pos` of the cell containing `endpoint`.
    pub fn get(&self, endpoint: &Point, pos: u32) -> Option<&Entry> {
        self.cells.get(&self.key_of(endpoint))?.get(pos as usize)
    }

    /// Visits every entry whose endpoint lies inside `range` (closed
    /// set): the Case-2 query Phase B issues once per deferred state
    /// through [`PathTable::end_vertices_into`](super::PathTable::end_vertices_into)
    /// (Alg. 2 line 51). Visit order is cell by cell, then each cell's
    /// insert/remove history — not canonical, so callers group and rank
    /// by order-free rules.
    pub fn for_each_in(&self, range: &Rect, mut f: impl FnMut(&Entry)) {
        let lo = self.key_of(&range.lo());
        let hi = self.key_of(&range.hi());
        for cx in lo.0..=hi.0 {
            for cy in lo.1..=hi.1 {
                let Some(slot) = self.cells.get(&(cx, cy)) else { continue };
                for entry in slot {
                    if range.contains(&entry.endpoint) {
                        f(entry);
                    }
                }
            }
        }
    }

    /// Collects entries in `range` into a vector (convenience for tests).
    pub fn query(&self, range: &Rect) -> Vec<Entry> {
        let mut out = Vec::new();
        self.for_each_in(range, |e| out.push(*e));
        out
    }

    /// Number of non-empty cells (diagnostics).
    pub fn occupied_cells(&self) -> usize {
        self.cells.len()
    }

    /// Audits the grid for the path table's consistency check: the
    /// entry count matches the cells, no empty cell is left in the map,
    /// and every kept buffer of an emptied cell is empty.
    pub(super) fn check(&self) -> Result<(), String> {
        let held: usize = self.cells.values().map(Vec::len).sum();
        if held != self.len {
            return Err(format!("grid counts {} entries, its cells hold {held}", self.len));
        }
        if self.cells.values().any(Vec::is_empty) {
            return Err("an empty grid cell is left in the map".into());
        }
        if !self.spare.iter().all(Vec::is_empty) {
            return Err("a kept buffer of an emptied grid cell is not empty".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: u64, x: f64, y: f64) -> Entry {
        Entry { endpoint: Point::new(x, y), path: PathId(id) }
    }

    #[test]
    fn insert_query_remove_roundtrip() {
        let mut g = EndpointGrid::new(10.0);
        assert_eq!(g.insert(entry(1, 5.0, 5.0)), 0);
        assert_eq!(g.insert(entry(2, 15.0, 5.0)), 0);
        assert_eq!(g.insert(entry(3, 6.0, 6.0)), 1); // same cell as path 1
        assert_eq!(g.len(), 3);

        let hits = g.query(&Rect::new(Point::new(0.0, 0.0), Point::new(9.0, 9.0)));
        assert_eq!(hits.len(), 2);

        // Removing position 0 moves the cell's last entry (path 3) there.
        assert_eq!(g.remove(&Point::new(5.0, 5.0), 0), Some(PathId(3)));
        assert_eq!(g.get(&Point::new(6.0, 6.0), 0), Some(&entry(3, 6.0, 6.0)));
        assert_eq!(g.remove(&Point::new(6.0, 6.0), 0), None);
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn range_query_matches_linear_scan() {
        let mut g = EndpointGrid::new(7.0);
        let mut all = Vec::new();
        // A deterministic scatter of entries.
        for i in 0..200u64 {
            let x = ((i * 37) % 100) as f64 - 50.0;
            let y = ((i * 53) % 90) as f64 - 45.0;
            let e = entry(i, x, y);
            g.insert(e);
            all.push(e);
        }
        let ranges = [
            Rect::new(Point::new(-10.0, -10.0), Point::new(10.0, 10.0)),
            Rect::new(Point::new(-50.0, -45.0), Point::new(49.0, 44.0)),
            Rect::new(Point::new(30.0, 30.0), Point::new(31.0, 31.0)),
            Rect::point(Point::new(0.0, 0.0)),
        ];
        for r in ranges {
            let mut got: Vec<u64> = g.query(&r).iter().map(|e| e.path.0).collect();
            got.sort_unstable();
            let mut want: Vec<u64> =
                all.iter().filter(|e| r.contains(&e.endpoint)).map(|e| e.path.0).collect();
            want.sort_unstable();
            assert_eq!(got, want, "range {r:?}");
        }
    }

    #[test]
    fn negative_coordinates_bucket_correctly() {
        let g = EndpointGrid::new(10.0);
        assert_eq!(g.key_of(&Point::new(-0.1, -0.1)), (-1, -1));
        assert_eq!(g.key_of(&Point::new(0.0, 0.0)), (0, 0));
        assert_eq!(g.key_of(&Point::new(-10.0, 5.0)), (-1, 0));
        assert_eq!(g.key_of(&Point::new(-10.1, 5.0)), (-2, 0));
    }

    #[test]
    fn boundary_points_are_found() {
        let mut g = EndpointGrid::new(10.0);
        // Exactly on a cell boundary.
        g.insert(entry(9, 10.0, 10.0));
        let r = Rect::new(Point::new(9.5, 9.5), Point::new(10.0, 10.0));
        assert_eq!(g.query(&r).len(), 1);
        let r2 = Rect::new(Point::new(10.0, 10.0), Point::new(11.0, 11.0));
        assert_eq!(g.query(&r2).len(), 1);
    }

    #[test]
    fn empty_cells_are_pruned() {
        let mut g = EndpointGrid::new(10.0);
        let pos = g.insert(entry(1, 5.0, 5.0));
        assert_eq!(g.occupied_cells(), 1);
        g.remove(&Point::new(5.0, 5.0), pos);
        assert_eq!(g.occupied_cells(), 0);
        assert!(g.is_empty());
    }
}
