//! What the coordinator learns about each pending state as it arrives.
//!
//! Between a state's `submit` and its epoch boundary the path table can
//! only *lose* paths: expiry removes them, and only Phase B creates
//! them. So the two spatial answers Phase B needs about a state are
//! gathered when it arrives, off the boundary's latency window:
//!
//! * the earlier pending FSAs meeting its FSA, from [`FsaSet::push`] —
//!   one half of the symmetric overlap list, the other half arriving
//!   with the later states;
//! * the end vertices inside its FSA, from
//!   [`PathTable::gather_end_vertices`].
//!
//! At the boundary Phase B keeps the gathered end vertices whose path is
//! still stored and adds the paths earlier deferred states created in
//! the same pass; their creators are among the state's earlier
//! neighbours, since a created path ends inside its creator's FSA.

use super::overlap::{FsaSet, QueryScratch};
use crate::geometry::Rect;
use crate::index::{EndVertex, PathTable};

/// The pending batch's gathered rows, one per state in arrival order,
/// aligned with the coordinator's pending states. Every buffer is kept
/// across epochs. Not checkpointed: a restore gathers the restored
/// pending states again.
#[derive(Clone, Debug)]
pub struct Arrivals {
    /// The pending FSAs with their overlap grid.
    fsas: FsaSet,
    /// Stamps and hits of [`FsaSet::push`].
    query: QueryScratch,
    /// CSR: the earlier states whose FSAs meet state `i`'s are
    /// `near[near_off[i]..near_off[i + 1]]`.
    near: Vec<u32>,
    near_off: Vec<u32>,
    /// CSR: the end vertices inside state `i`'s FSA at its arrival.
    ends: Vec<EndVertex>,
    ends_off: Vec<u32>,
    /// The table's path-id counter at the last gather: no path may be
    /// created while states are pending.
    next_id: u64,
}

impl Arrivals {
    /// No pending state; the overlap grid rasterizes at `cell` (see
    /// [`FsaSet::new`]).
    pub fn new(cell: f64) -> Self {
        Arrivals {
            fsas: FsaSet::new(cell),
            query: QueryScratch::default(),
            near: Vec::new(),
            near_off: vec![0],
            ends: Vec::new(),
            ends_off: vec![0],
            next_id: 0,
        }
    }

    /// Number of gathered states.
    pub fn len(&self) -> usize {
        self.fsas.len()
    }

    /// True when no state is gathered.
    pub fn is_empty(&self) -> bool {
        self.fsas.is_empty()
    }

    /// Gathers the next state, whose FSA is `fsa`, against `table`.
    pub fn gather(&mut self, fsa: &Rect, table: &PathTable) {
        debug_assert!(
            self.is_empty() || self.next_id == table.next_id(),
            "a path was created while states were pending"
        );
        self.next_id = table.next_id();
        self.near.extend_from_slice(self.fsas.push(*fsa, &mut self.query));
        self.near_off.push(self.near.len() as u32);
        table.gather_end_vertices(fsa, &mut self.ends);
        self.ends_off.push(self.ends.len() as u32);
    }

    /// Forgets every gathered state, keeping the buffers.
    pub fn clear(&mut self) {
        self.fsas.clear();
        self.near.clear();
        self.near_off.truncate(1);
        self.ends.clear();
        self.ends_off.truncate(1);
    }

    /// Keeps the states `keep` marks, renumbered in order: the rows of
    /// the ejected states go, and so do the ejected states in the kept
    /// states' neighbour lists.
    pub(crate) fn retain(&mut self, keep: &[bool]) {
        debug_assert_eq!(keep.len(), self.len());
        let mut renumbered = Vec::with_capacity(keep.len());
        let mut kept = 0;
        for &k in keep {
            renumbered.push(kept);
            kept += u32::from(k);
        }
        self.fsas.retain(|i| keep[i]);
        retain_rows(&mut self.near_off, &mut self.near, keep, |j| {
            keep[j as usize].then(|| renumbered[j as usize])
        });
        retain_rows(&mut self.ends_off, &mut self.ends, keep, Some);
    }

    /// The gathered FSAs, numbered like the pending states.
    pub(crate) fn fsas(&self) -> &FsaSet {
        &self.fsas
    }

    /// The earlier states whose FSAs meet state `i`'s.
    pub(crate) fn earlier(&self, i: usize) -> &[u32] {
        &self.near[self.near_off[i] as usize..self.near_off[i + 1] as usize]
    }

    /// The end vertices that were inside state `i`'s FSA when it
    /// arrived; some may have expired since.
    pub(crate) fn ends(&self, i: usize) -> &[EndVertex] {
        &self.ends[self.ends_off[i] as usize..self.ends_off[i + 1] as usize]
    }

    /// The table's path-id counter when the states were gathered.
    pub(crate) fn next_id(&self) -> u64 {
        self.next_id
    }

    /// The other half of every neighbour list: into the CSR
    /// `(off, later)`, for each state the later states whose FSAs meet
    /// its own, ascending.
    pub(crate) fn later_into(&self, off: &mut Vec<u32>, later: &mut Vec<u32>) {
        let n = self.len();
        // Counts land two slots up, so that after the prefix sum
        // `off[j + 1]` is where state `j`'s list starts; the fill then
        // advances it to where the list ends, which is `j + 1`'s start.
        off.clear();
        off.resize(n + 2, 0);
        for &j in &self.near {
            off[j as usize + 2] += 1;
        }
        for k in 2..off.len() {
            off[k] += off[k - 1];
        }
        later.clear();
        later.resize(self.near.len(), 0);
        for i in 0..n {
            for &j in self.earlier(i) {
                let at = &mut off[j as usize + 1];
                later[*at as usize] = i as u32;
                *at += 1;
            }
        }
        off.pop();
    }
}

/// Keeps the rows `keep` selects of the CSR `(off, vals)` and, within
/// them, the values `map` returns `Some` for, rewritten to its answer.
fn retain_rows<T: Copy>(
    off: &mut Vec<u32>,
    vals: &mut Vec<T>,
    keep: &[bool],
    mut map: impl FnMut(T) -> Option<T>,
) {
    let (mut rows, mut written, mut lo) = (0, 0, 0);
    for (i, &kept) in keep.iter().enumerate() {
        let hi = off[i + 1] as usize;
        if kept {
            for r in lo..hi {
                if let Some(v) = map(vals[r]) {
                    vals[written] = v;
                    written += 1;
                }
            }
            rows += 1;
            off[rows] = written as u32;
        }
        lo = hi;
    }
    off.truncate(rows + 1);
    vals.truncate(written);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;
    use crate::time::{SlidingWindow, Timestamp};

    fn r(ax: f64, ay: f64, bx: f64, by: f64) -> Rect {
        Rect::new(Point::new(ax, ay), Point::new(bx, by))
    }

    /// Neighbour lists, both halves, against the brute-force pairs.
    fn assert_neighbours_match(arrivals: &Arrivals, rects: &[Rect]) {
        let (mut off, mut later) = (Vec::new(), Vec::new());
        arrivals.later_into(&mut off, &mut later);
        for (i, a) in rects.iter().enumerate() {
            let mut got = arrivals.earlier(i).to_vec();
            got.sort_unstable();
            got.extend_from_slice(&later[off[i] as usize..off[i + 1] as usize]);
            let want: Vec<u32> = (0..rects.len() as u32)
                .filter(|&j| j as usize != i && rects[j as usize].intersects(a))
                .collect();
            assert_eq!(got, want, "neighbours of {i}");
        }
    }

    #[test]
    fn gathered_neighbours_and_ends_survive_compaction() {
        let mut table = PathTable::new(SlidingWindow::new(100), 4.0, 1e-3);
        table.insert_edge(Point::new(-50.0, 0.0), Point::new(1.0, 1.0), Timestamp(1));
        table.insert_edge(Point::new(-50.0, 9.0), Point::new(9.0, 9.0), Timestamp(1));
        let rects = [
            r(0.0, 0.0, 2.0, 2.0),
            r(1.0, 1.0, 10.0, 10.0),
            r(20.0, 20.0, 21.0, 21.0),
            r(2.0, 2.0, 3.0, 3.0),
            r(8.0, 8.0, 9.0, 9.0),
        ];
        let mut arrivals = Arrivals::new(4.0);
        for _ in 0..2 {
            arrivals.clear();
            for rect in &rects {
                arrivals.gather(rect, &table);
            }
            assert_neighbours_match(&arrivals, &rects);
            let ids = |i| arrivals.ends(i).iter().map(|e| e.id.0).collect::<Vec<_>>();
            assert_eq!((ids(0), ids(2), ids(4)), (vec![0], vec![], vec![1]));
        }
        let keep = [true, false, true, true, true];
        arrivals.retain(&keep);
        let kept: Vec<Rect> = rects.iter().zip(keep).filter(|(_, k)| *k).map(|(r, _)| *r).collect();
        assert_eq!(arrivals.len(), 4);
        assert_neighbours_match(&arrivals, &kept);
        assert_eq!(arrivals.ends(3)[0].id.0, 1, "state 4 is state 3 now");
    }
}
