use crate::geometry::{Point, Rect};
use crate::index::vertex_groups::tests::canonical;
use crate::index::{PathTable, VertexGroups};
use crate::motion_path::PathId;
use crate::time::{SlidingWindow, Timestamp};

fn idx() -> PathTable {
    PathTable::new(SlidingWindow::new(100), 50.0, 1e-3)
}

/// The Case-1 query as Phase A runs it: ids of the paths leaving the
/// vertex of `start` and ending inside `fsa`.
fn paths_from_into(i: &PathTable, start: &Point, fsa: &Rect) -> Vec<PathId> {
    let mut out = Vec::new();
    i.paths_from_into_buf(start, fsa, &mut out);
    out.iter().map(|e| e.id).collect()
}

/// The Case-2 query as the coordinator runs it: the end vertices inside
/// `fsa`, gathered and then grouped, in canonical order.
fn end_vertices_in(i: &PathTable, fsa: &Rect) -> Vec<(Point, Vec<PathId>)> {
    let mut ends = Vec::new();
    i.gather_end_vertices(fsa, &mut ends);
    let mut groups = VertexGroups::new();
    for e in &ends {
        groups.push(e.key, e.end, e.id);
    }
    canonical(&groups)
}

/// Stores `start -> end` (or finds it) with one crossing exiting at 0.
fn insert(i: &mut PathTable, start: Point, end: Point) -> (PathId, bool) {
    let (edge, created) = i.insert_edge(start, end, Timestamp(0));
    (edge.id, created)
}

#[test]
fn insert_assigns_fresh_ids_and_dedups() {
    let mut i = idx();
    let (a, created_a) = insert(&mut i, Point::new(0.0, 0.0), Point::new(10.0, 0.0));
    let (b, created_b) = insert(&mut i, Point::new(0.0, 0.0), Point::new(0.0, 10.0));
    assert!(created_a && created_b);
    assert_ne!(a, b);
    assert_eq!(i.len(), 2);
    // Identical geometry dedups, and the crossing lands on the stored path.
    let (c, created_c) = insert(&mut i, Point::new(0.0, 0.0), Point::new(10.0, 0.0));
    assert_eq!(c, a);
    assert!(!created_c);
    assert_eq!(i.len(), 2);
    assert_eq!(i.hotness(a), 2);
    // Reversed direction is a different path.
    let (d, created_d) = insert(&mut i, Point::new(10.0, 0.0), Point::new(0.0, 0.0));
    assert!(created_d);
    assert_ne!(d, a);
    i.check_consistency().unwrap();
}

#[test]
fn case1_query_filters_by_start_vertex() {
    let mut i = idx();
    let s = Point::new(0.0, 0.0);
    let (a, _) = insert(&mut i, s, Point::new(20.0, 0.0));
    let (_b, _) = insert(&mut i, Point::new(5.0, 5.0), Point::new(21.0, 1.0)); // other start
    let (_c, _) = insert(&mut i, s, Point::new(200.0, 0.0)); // ends outside fsa

    let fsa = Rect::new(Point::new(15.0, -5.0), Point::new(25.0, 5.0));
    let hits = paths_from_into(&i, &s, &fsa);
    assert_eq!(hits, vec![a]);
}

#[test]
fn case2_query_groups_converging_paths() {
    let mut i = idx();
    let v = Point::new(50.0, 50.0);
    let (a, _) = insert(&mut i, Point::new(0.0, 0.0), v);
    let (b, _) = insert(&mut i, Point::new(100.0, 0.0), v);
    let (_far, _) = insert(&mut i, Point::new(0.0, 0.0), Point::new(500.0, 500.0));

    let fsa = Rect::new(Point::new(40.0, 40.0), Point::new(60.0, 60.0));
    let verts = end_vertices_in(&i, &fsa);
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
    // A path *starting* inside the FSA contributes no candidate vertex
    // (the paper only considers end vertices).
    insert(&mut i, Point::new(50.0, 50.0), Point::new(500.0, 0.0));
    let fsa = Rect::new(Point::new(40.0, 40.0), Point::new(60.0, 60.0));
    assert!(end_vertices_in(&i, &fsa).is_empty());
}

#[test]
fn remove_cleans_everything() {
    // A path leaves by expiry: the advance that drops its last crossing
    // takes it out of the slab, the grid and its adjacency list.
    let mut i = idx();
    let s = Point::new(0.0, 0.0);
    let e = Point::new(30.0, 0.0);
    let (id, _) = insert(&mut i, s, e);
    assert!(i.advance(Timestamp(99)).is_empty());
    assert_eq!(i.advance(Timestamp(100)), [id]);
    assert!(i.advance(Timestamp(100)).is_empty());
    assert_eq!(i.len(), 0);
    assert!(i.get(id).is_none());
    assert!(i.paths_starting_at(&s).is_empty());
    assert!(paths_from_into(&i, &s, &Rect::point(e)).is_empty());
    let everywhere = Rect::new(Point::new(-1e6, -1e6), Point::new(1e6, 1e6));
    assert!(end_vertices_in(&i, &everywhere).is_empty());
    i.check_consistency().unwrap();
}

#[test]
fn consistency_audit_catches_a_stale_adjacency_copy() {
    let mut i = idx();
    let s = Point::new(0.0, 0.0);
    insert(&mut i, s, Point::new(30.0, 0.0));
    i.check_consistency().unwrap();
    let key = i.vertex_key(&s);
    i.out_adj_mut().get_mut(&key).unwrap()[0].len = 31.0;
    assert!(i.check_consistency().is_err());
    i.out_adj_mut().get_mut(&key).unwrap()[0].len = 30.0;
    i.out_adj_mut().get_mut(&key).unwrap()[0].end.y = -0.0; // equal, but not bit-equal
    assert!(i.check_consistency().is_err());
}

#[test]
fn removal_from_a_crowded_cell_keeps_positions_straight() {
    // Twelve paths end in one grid cell; their crossings expire in a
    // scrambled order, exercising the swap-remove position fix-up.
    let order = [5, 0, 11, 3, 7, 1, 10, 2, 9, 4, 8, 6];
    let mut i = idx();
    let ids: Vec<PathId> = (0..12)
        .map(|k| {
            let te = order.iter().position(|&o| o == k).unwrap() as u64;
            let start = Point::new(k as f64 * 100.0, 500.0);
            i.insert_edge(start, Point::new(k as f64, 1.0), Timestamp(te)).0.id
        })
        .collect();
    let cell = Rect::new(Point::new(0.0, 0.0), Point::new(49.0, 49.0));
    for (n, k) in order.into_iter().enumerate() {
        assert_eq!(i.advance(Timestamp(100 + n as u64)), [ids[k]]);
        i.check_consistency().unwrap();
        assert_eq!(end_vertices_in(&i, &cell).len(), 11 - n);
    }
}

#[test]
fn adjacency_lookups() {
    let mut i = idx();
    let v = Point::new(10.0, 10.0);
    let (a, _) = insert(&mut i, v, Point::new(50.0, 10.0));
    let (b, _) = insert(&mut i, v, Point::new(10.0, 60.0));
    insert(&mut i, Point::new(-40.0, 10.0), v);
    let mut outs: Vec<PathId> = i.paths_starting_at(&v).iter().map(|e| e.id).collect();
    outs.sort_unstable();
    assert_eq!(outs, vec![a, b]);
    // Quantized identity: a float-noisy copy of v matches.
    let noisy = Point::new(10.0 + 1e-5, 10.0 - 1e-5);
    assert_eq!(i.paths_starting_at(&noisy).len(), 2);
}

#[test]
fn noisy_vertex_group_representative_is_canonical() {
    // Two paths end at float-noisy copies of one vertex (same quantized
    // key): the group's representative must be the lexicographically
    // smallest raw point regardless of insertion order, so Phase B's
    // choice never depends on visit order.
    let lo = Point::new(50.0, 50.0);
    let hi = Point::new(50.0 + 2e-4, 50.0);
    let fsa = Rect::new(Point::new(40.0, 40.0), Point::new(60.0, 60.0));
    for (first, second) in [(lo, hi), (hi, lo)] {
        let mut i = idx();
        insert(&mut i, Point::new(0.0, 0.0), first);
        insert(&mut i, Point::new(100.0, 0.0), second);
        let verts = end_vertices_in(&i, &fsa);
        assert_eq!(verts.len(), 1, "noisy copies must share a group");
        assert_eq!(verts[0].0, lo, "representative not canonical");
        assert_eq!(verts[0].1.len(), 2);
    }
}

#[test]
fn checkpoint_parts_reject_ids_the_counter_would_reissue() {
    let mut i = idx();
    insert(&mut i, Point::new(0.0, 0.0), Point::new(10.0, 0.0));
    insert(&mut i, Point::new(0.0, 0.0), Point::new(0.0, 10.0));
    let restore = |next_id| idx().restore(&i.paths_by_id(), &i.events_vec(), next_id, 2, i.clock());
    restore(i.next_id()).unwrap().check_consistency().unwrap();
    assert!(restore(1).is_err());
}

#[test]
fn vertex_ordering_is_deterministic() {
    let mut i = idx();
    insert(&mut i, Point::new(0.0, 0.0), Point::new(5.0, 1.0));
    insert(&mut i, Point::new(0.0, 0.0), Point::new(3.0, 2.0));
    insert(&mut i, Point::new(0.0, 0.0), Point::new(3.0, 1.0));
    let fsa = Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
    let verts = end_vertices_in(&i, &fsa);
    let xs: Vec<(f64, f64)> = verts.iter().map(|(p, _)| (p.x, p.y)).collect();
    assert_eq!(xs, vec![(3.0, 1.0), (3.0, 2.0), (5.0, 1.0)]);
}
