//! The MotionPath index (Section 5.1): path storage plus the queries the
//! SinglePath strategy needs.
//!
//! * *available motion paths*: paths starting at a given vertex whose
//!   end falls inside an FSA (Case 1) — answered from the start
//!   vertex's exact out-adjacency list, whose entries carry the end
//!   vertex, so it costs one hash probe plus the vertex's out-degree,
//!   not the population of the cells around the FSA;
//! * *available vertices*: end vertices of stored paths inside an FSA,
//!   each with its converging paths (Case 2) — the one true range
//!   query, answered from the end-vertex grid;
//! * exact-match adjacency (paths leaving a vertex) for the hinted
//!   feedback extension.
//!
//! Vertex identity is quantized to a configurable grain: vertices are
//! only ever minted by the coordinator, so equality is exact in practice
//! and the grain merely guards against float noise.

use super::grid::{EndpointGrid, Entry};
use super::vertex_groups::VertexGroups;
use crate::fxhash::FxHashMap;
use crate::geometry::{Point, Rect};
use crate::motion_path::{MotionPath, PathId};

/// Quantized vertex key.
pub type VertexKey = (i64, i64);

/// Lexicographic `(x, y)` order on raw points (total, NaN-safe).
#[inline]
pub fn point_lt(a: &Point, b: &Point) -> bool {
    a.x.total_cmp(&b.x).then(a.y.total_cmp(&b.y)).is_lt()
}

/// One out-adjacency entry: a stored path's id with copies of its end
/// vertex and length, so the Case-1 filter and ranking read the
/// adjacency list alone — no per-entry slab lookup. Both copies are
/// bit-equal to the slab record's ([`MotionPathIndex::check_consistency`]
/// audits it); path geometry is immutable, so they never go stale.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct OutEdge {
    /// The path.
    pub id: PathId,
    /// Its end vertex ([`MotionPath::end`]).
    pub end: Point,
    /// Its length ([`MotionPath::length`]).
    pub len: f64,
}

impl OutEdge {
    fn of(path: &MotionPath) -> Self {
        OutEdge { id: path.id, end: path.end(), len: path.length() }
    }
}

/// Where one path's records live in the derived structures.
#[derive(Clone, Copy, Debug)]
struct Loc {
    /// Slot in the `paths` slab.
    slot: u32,
    /// Position of the path's end-vertex entry within its grid cell.
    cell_pos: u32,
}

/// The coordinator's path store.
///
/// Paths live in a contiguous slab (`repr(C)` [`MotionPath`] records)
/// so a checkpoint serializes the section with one memcpy; the grid,
/// adjacency lists, and id->slot map are derived structures rebuilt on
/// restore.
#[derive(Clone, Debug)]
pub struct MotionPathIndex {
    grid: EndpointGrid,
    /// Contiguous path records; order is maintenance order (inserts
    /// append, removals `swap_remove`) and is checkpointed verbatim.
    paths: Vec<MotionPath>,
    /// Path id -> where its derived records live.
    loc_of: FxHashMap<PathId, Loc>,
    /// Outgoing adjacency: start vertex -> paths leaving it.
    out_adj: FxHashMap<VertexKey, Vec<OutEdge>>,
    /// Emptied adjacency lists, kept for the next new start vertex.
    spare_adj: Vec<Vec<OutEdge>>,
    vertex_grain: f64,
    next_id: u64,
}

impl MotionPathIndex {
    /// Creates an empty index with the given end-vertex grid cell side
    /// and vertex quantization grain (meters). The cell side affects
    /// performance only; about one FSA side keeps a Case-2 query to at
    /// most four cells.
    pub fn new(cell: f64, vertex_grain: f64) -> Self {
        assert!(vertex_grain > 0.0, "vertex grain must be positive");
        MotionPathIndex {
            grid: EndpointGrid::new(cell),
            paths: Vec::new(),
            loc_of: FxHashMap::default(),
            out_adj: FxHashMap::default(),
            spare_adj: Vec::new(),
            vertex_grain,
            next_id: 0,
        }
    }

    /// Number of stored motion paths (the paper's *index size* metric).
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// True when no paths are stored.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Quantized identity key of a vertex.
    #[inline]
    pub fn vertex_key(&self, p: &Point) -> VertexKey {
        p.quantize(self.vertex_grain)
    }

    /// Looks up a path by id.
    pub fn get(&self, id: PathId) -> Option<&MotionPath> {
        self.loc_of.get(&id).map(|loc| &self.paths[loc.slot as usize])
    }

    /// Iterates over all stored paths (slab order).
    pub fn iter(&self) -> impl Iterator<Item = &MotionPath> {
        self.paths.iter()
    }

    /// Inserts a new path `start -> end` and returns its id. If an
    /// identical path (same quantized endpoints, same direction) already
    /// exists, returns the existing id instead — crossings of an
    /// identical geometry belong to one path, not duplicates.
    pub fn insert(&mut self, start: Point, end: Point) -> (PathId, bool) {
        let (edge, created) = self.insert_edge(start, end);
        (edge.id, created)
    }

    /// [`MotionPathIndex::insert`] returning the stored path's whole
    /// adjacency entry — on a dedup hit the *existing* path's end vertex
    /// and length, which is what the caller must respond with and
    /// record. Ids come from the index's own counter, advanced only when
    /// a path is actually created.
    pub fn insert_edge(&mut self, start: Point, end: Point) -> (OutEdge, bool) {
        let grain = self.vertex_grain;
        let ekey = end.quantize(grain);
        let id = PathId(self.next_id);
        // One probe finds the start vertex's list for both the dedup
        // scan and the push.
        let outs = self.outs_mut(start.quantize(grain));
        if let Some(existing) = outs.iter().find(|e| e.end.quantize(grain) == ekey) {
            return (*existing, false);
        }
        let path = MotionPath::new(id, start, end);
        let edge = OutEdge::of(&path);
        outs.push(edge);
        self.next_id += 1;
        self.place(path);
        (edge, true)
    }

    /// The adjacency list of start vertex `key`, created from a kept
    /// buffer when the vertex has none.
    fn outs_mut(&mut self, key: VertexKey) -> &mut Vec<OutEdge> {
        self.out_adj.entry(key).or_insert_with(|| self.spare_adj.pop().unwrap_or_default())
    }

    /// Appends `path` to the slab and enters it into every derived
    /// structure.
    fn link(&mut self, path: MotionPath) {
        self.outs_mut(self.vertex_key(&path.start())).push(OutEdge::of(&path));
        self.place(path);
    }

    /// Appends `path`, already in its adjacency list, to the slab, the
    /// end-vertex grid and the location map.
    fn place(&mut self, path: MotionPath) {
        let cell_pos = self.grid.insert(Entry { endpoint: path.end(), path: path.id });
        self.loc_of.insert(path.id, Loc { slot: self.paths.len() as u32, cell_pos });
        self.paths.push(path);
    }

    /// Removes a path (when its hotness expires to zero, Section 5.2).
    pub fn remove(&mut self, id: PathId) -> bool {
        let Some(Loc { slot, cell_pos }) = self.loc_of.remove(&id) else { return false };
        let path = self.paths.swap_remove(slot as usize);
        if let Some(moved) = self.paths.get(slot as usize) {
            self.loc_of.get_mut(&moved.id).expect("slab record without a location").slot = slot;
        }
        if let Some(moved) = self.grid.remove(&path.end(), cell_pos) {
            self.loc_of.get_mut(&moved).expect("grid entry without a location").cell_pos = cell_pos;
        }
        let skey = self.vertex_key(&path.start());
        if let Some(v) = self.out_adj.get_mut(&skey) {
            v.retain(|e| e.id != id);
            if v.is_empty() {
                self.spare_adj.extend(self.out_adj.remove(&skey));
            }
        }
        true
    }

    /// Case-1 query (Alg. 2 GetCandidatePaths): paths starting at the
    /// vertex of `start` whose end vertex lies inside `fsa`.
    pub fn paths_from_into(&self, start: &Point, fsa: &Rect) -> Vec<PathId> {
        let mut out = Vec::new();
        self.paths_from_into_buf(start, fsa, &mut out);
        out.iter().map(|e| e.id).collect()
    }

    /// [`MotionPathIndex::paths_from_into`] appending into a caller
    /// buffer — the allocation-free form the epoch hot loop uses (the
    /// buffer lives in the coordinator's scratch arena and is reused
    /// across states and epochs). Entries are appended in adjacency-list order;
    /// the strategy's selection is a strict total order over candidates,
    /// so candidate order is unobservable.
    pub fn paths_from_into_buf(&self, start: &Point, fsa: &Rect, out: &mut Vec<OutEdge>) {
        out.extend(self.paths_starting_at(start).iter().filter(|e| fsa.contains(&e.end)));
    }

    /// Case-2 query (Alg. 2 GetCandidateVertices): distinct end vertices
    /// inside `fsa`, each with the ids of the paths converging to it.
    ///
    /// When float-noisy copies of one vertex (same quantized key,
    /// different raw coordinates) converge, the group's representative
    /// point is the lexicographically smallest raw endpoint — canonical,
    /// so the answer is independent of grid visit order. Groups come
    /// sorted by representative `(x, y)`, ids ascending within each.
    pub fn end_vertices_in(&self, fsa: &Rect) -> Vec<(Point, Vec<PathId>)> {
        let mut groups = VertexGroups::new();
        self.end_vertices_into(fsa, &mut groups);
        groups.to_vec()
    }

    /// [`MotionPathIndex::end_vertices_in`] writing into a reusable
    /// [`VertexGroups`] accumulator (cleared here) instead of
    /// materializing a fresh vector of vectors per call — unsorted: the
    /// form `phase_b` uses, which cannot observe group or id order.
    pub fn end_vertices_into(&self, fsa: &Rect, out: &mut VertexGroups) {
        out.clear();
        self.grid.for_each_in(fsa, |entry| {
            out.push(self.vertex_key(&entry.endpoint), entry.endpoint, entry.path);
        });
    }

    /// Paths leaving the vertex of `p` (hinted-extension adjacency).
    pub fn paths_starting_at(&self, p: &Point) -> &[OutEdge] {
        self.out_adj.get(&self.vertex_key(p)).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Internal-consistency audit used by tests and debug assertions:
    /// grid entries, adjacency lists, and the path table must agree.
    pub fn check_consistency(&self) -> Result<(), String> {
        if self.loc_of.len() != self.paths.len() || self.grid.len() != self.paths.len() {
            return Err(format!(
                "{} locations and {} grid entries for {} slab records",
                self.loc_of.len(),
                self.grid.len(),
                self.paths.len()
            ));
        }
        for (slot, p) in self.paths.iter().enumerate() {
            let Some(loc) = self.loc_of.get(&p.id) else {
                return Err(format!("location map lost {} (slab slot {slot})", p.id));
            };
            if loc.slot as usize != slot {
                return Err(format!("{} located at slot {} not {slot}", p.id, loc.slot));
            }
            let entry = Entry { endpoint: p.end(), path: p.id };
            if self.grid.get(&p.end(), loc.cell_pos) != Some(&entry) {
                return Err(format!("grid position {} does not hold {}", loc.cell_pos, p.id));
            }
        }
        if !self.grid.spare_is_clear() || self.spare_adj.iter().any(|v| !v.is_empty()) {
            return Err("a kept buffer of an emptied cell or list is not empty".into());
        }
        let out_total: usize = self.out_adj.values().map(Vec::len).sum();
        if out_total != self.paths.len() {
            return Err(format!("adjacency size {out_total} vs {} paths", self.paths.len()));
        }
        for (key, edges) in &self.out_adj {
            for e in edges {
                let id = e.id;
                let p = self.get(id).ok_or(format!("dangling out id {id}"))?;
                if self.vertex_key(&p.start()) != *key {
                    return Err(format!("out-adjacency key mismatch for {id}"));
                }
                let bits = |e: &OutEdge| [e.end.x, e.end.y, e.len].map(f64::to_bits);
                if bits(e) != bits(&OutEdge::of(p)) {
                    return Err(format!("out-adjacency copy of {id} differs from its record"));
                }
            }
        }
        Ok(())
    }

    // ---- checkpoint surface -------------------------------------------

    /// The contiguous path slab (checkpoint section source; slab order is
    /// state and must be restored verbatim).
    pub fn paths_slice(&self) -> &[MotionPath] {
        &self.paths
    }

    /// The index's id counter: the id the next created path gets.
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Rebuilds an index from a checkpointed path slab: the slab is
    /// adopted verbatim; the grid, adjacency lists, and location map
    /// are derived from it.
    ///
    /// # Errors
    /// Returns a description when the slab is structurally invalid
    /// (duplicate or out-of-counter ids, non-finite endpoints) — possible
    /// only for a checkpoint written by a buggy or hostile producer,
    /// since CRC validation happens before this runs.
    pub fn from_checkpoint_parts(
        cell: f64,
        vertex_grain: f64,
        paths: Vec<MotionPath>,
        next_id: u64,
    ) -> Result<Self, String> {
        let mut idx = MotionPathIndex::new(cell, vertex_grain);
        idx.paths.reserve(paths.len());
        for path in paths {
            if !path.start().is_finite() || !path.end().is_finite() {
                return Err(format!("path {} has non-finite endpoints", path.id));
            }
            if idx.loc_of.contains_key(&path.id) {
                return Err(format!("duplicate path slab entry for {}", path.id));
            }
            if path.id.0 >= next_id {
                return Err(format!("path {} is not below the id counter {next_id}", path.id));
            }
            idx.link(path);
        }
        idx.next_id = next_id;
        Ok(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx() -> MotionPathIndex {
        MotionPathIndex::new(50.0, 1e-3)
    }

    #[test]
    fn insert_assigns_fresh_ids_and_dedups() {
        let mut i = idx();
        let (a, created_a) = i.insert(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        let (b, created_b) = i.insert(Point::new(0.0, 0.0), Point::new(0.0, 10.0));
        assert!(created_a && created_b);
        assert_ne!(a, b);
        assert_eq!(i.len(), 2);
        // Identical geometry dedups.
        let (c, created_c) = i.insert(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        assert_eq!(c, a);
        assert!(!created_c);
        assert_eq!(i.len(), 2);
        // Reversed direction is a different path.
        let (d, created_d) = i.insert(Point::new(10.0, 0.0), Point::new(0.0, 0.0));
        assert!(created_d);
        assert_ne!(d, a);
        i.check_consistency().unwrap();
    }

    #[test]
    fn case1_query_filters_by_start_vertex() {
        let mut i = idx();
        let s = Point::new(0.0, 0.0);
        let (a, _) = i.insert(s, Point::new(20.0, 0.0));
        let (_b, _) = i.insert(Point::new(5.0, 5.0), Point::new(21.0, 1.0)); // other start
        let (_c, _) = i.insert(s, Point::new(200.0, 0.0)); // ends outside fsa

        let fsa = Rect::new(Point::new(15.0, -5.0), Point::new(25.0, 5.0));
        let hits = i.paths_from_into(&s, &fsa);
        assert_eq!(hits, vec![a]);
    }

    #[test]
    fn case2_query_groups_converging_paths() {
        let mut i = idx();
        let v = Point::new(50.0, 50.0);
        let (a, _) = i.insert(Point::new(0.0, 0.0), v);
        let (b, _) = i.insert(Point::new(100.0, 0.0), v);
        let (_far, _) = i.insert(Point::new(0.0, 0.0), Point::new(500.0, 500.0));

        let fsa = Rect::new(Point::new(40.0, 40.0), Point::new(60.0, 60.0));
        let verts = i.end_vertices_in(&fsa);
        assert_eq!(verts.len(), 1);
        let (p, ids) = &verts[0];
        assert_eq!(*p, v);
        let mut got = ids.clone();
        got.sort_unstable();
        let mut want = vec![a, b];
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn start_vertices_are_not_candidate_vertices() {
        let mut i = idx();
        // A path *starting* inside the FSA contributes no candidate
        // vertex (the paper only considers end vertices).
        i.insert(Point::new(50.0, 50.0), Point::new(500.0, 0.0));
        let fsa = Rect::new(Point::new(40.0, 40.0), Point::new(60.0, 60.0));
        assert!(i.end_vertices_in(&fsa).is_empty());
    }

    #[test]
    fn remove_cleans_everything() {
        let mut i = idx();
        let s = Point::new(0.0, 0.0);
        let e = Point::new(30.0, 0.0);
        let (id, _) = i.insert(s, e);
        assert!(i.remove(id));
        assert!(!i.remove(id));
        assert_eq!(i.len(), 0);
        assert!(i.paths_starting_at(&s).is_empty());
        assert!(i.paths_from_into(&s, &Rect::point(e)).is_empty());
        let everywhere = Rect::new(Point::new(-1e6, -1e6), Point::new(1e6, 1e6));
        assert!(i.end_vertices_in(&everywhere).is_empty());
        i.check_consistency().unwrap();
    }

    #[test]
    fn consistency_audit_catches_a_stale_adjacency_copy() {
        let mut i = idx();
        let s = Point::new(0.0, 0.0);
        i.insert(s, Point::new(30.0, 0.0));
        i.check_consistency().unwrap();
        let key = i.vertex_key(&s);
        i.out_adj.get_mut(&key).unwrap()[0].len = 31.0;
        assert!(i.check_consistency().is_err());
        i.out_adj.get_mut(&key).unwrap()[0].len = 30.0;
        i.out_adj.get_mut(&key).unwrap()[0].end.y = -0.0; // equal, but not bit-equal
        assert!(i.check_consistency().is_err());
    }

    #[test]
    fn removal_from_a_crowded_cell_keeps_positions_straight() {
        // Twelve paths end in one grid cell; removing them in a
        // scrambled order exercises the swap-remove position fix-up.
        let mut i = idx();
        let ids: Vec<PathId> = (0..12)
            .map(|k| i.insert(Point::new(k as f64 * 100.0, 500.0), Point::new(k as f64, 1.0)).0)
            .collect();
        let cell = Rect::new(Point::new(0.0, 0.0), Point::new(49.0, 49.0));
        for (n, k) in [5, 0, 11, 3, 7, 1, 10, 2, 9, 4, 8, 6].into_iter().enumerate() {
            assert!(i.remove(ids[k]));
            i.check_consistency().unwrap();
            assert_eq!(i.end_vertices_in(&cell).len(), 11 - n);
        }
    }

    #[test]
    fn adjacency_lookups() {
        let mut i = idx();
        let v = Point::new(10.0, 10.0);
        let (a, _) = i.insert(v, Point::new(50.0, 10.0));
        let (b, _) = i.insert(v, Point::new(10.0, 60.0));
        i.insert(Point::new(-40.0, 10.0), v);
        let mut outs: Vec<PathId> = i.paths_starting_at(&v).iter().map(|e| e.id).collect();
        outs.sort_unstable();
        assert_eq!(outs, vec![a, b]);
        // Quantized identity: a float-noisy copy of v matches.
        let noisy = Point::new(10.0 + 1e-5, 10.0 - 1e-5);
        assert_eq!(i.paths_starting_at(&noisy).len(), 2);
    }

    #[test]
    fn noisy_vertex_group_representative_is_canonical() {
        // Two paths end at float-noisy copies of one vertex (same
        // quantized key): the group's representative must be the
        // lexicographically smallest raw point regardless of insertion
        // order, so Phase B's choice never depends on visit order.
        let lo = Point::new(50.0, 50.0);
        let hi = Point::new(50.0 + 2e-4, 50.0);
        let fsa = Rect::new(Point::new(40.0, 40.0), Point::new(60.0, 60.0));
        for (first, second) in [(lo, hi), (hi, lo)] {
            let mut i = idx();
            i.insert(Point::new(0.0, 0.0), first);
            i.insert(Point::new(100.0, 0.0), second);
            let verts = i.end_vertices_in(&fsa);
            assert_eq!(verts.len(), 1, "noisy copies must share a group");
            assert_eq!(verts[0].0, lo, "representative not canonical");
            assert_eq!(verts[0].1.len(), 2);
        }
    }

    #[test]
    fn checkpoint_parts_reject_ids_the_counter_would_reissue() {
        let mut i = idx();
        i.insert(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        i.insert(Point::new(0.0, 0.0), Point::new(0.0, 10.0));
        let slab = i.paths_slice().to_vec();
        let back = MotionPathIndex::from_checkpoint_parts(50.0, 1e-3, slab.clone(), i.next_id());
        back.unwrap().check_consistency().unwrap();
        assert!(MotionPathIndex::from_checkpoint_parts(50.0, 1e-3, slab, 1).is_err());
    }

    #[test]
    fn vertex_ordering_is_deterministic() {
        let mut i = idx();
        i.insert(Point::new(0.0, 0.0), Point::new(5.0, 1.0));
        i.insert(Point::new(0.0, 0.0), Point::new(3.0, 2.0));
        i.insert(Point::new(0.0, 0.0), Point::new(3.0, 1.0));
        let fsa = Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
        let verts = i.end_vertices_in(&fsa);
        let xs: Vec<(f64, f64)> = verts.iter().map(|(p, _)| (p.x, p.y)).collect();
        assert_eq!(xs, vec![(3.0, 1.0), (3.0, 2.0), (5.0, 1.0)]);
    }
}
