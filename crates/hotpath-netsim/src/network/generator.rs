//! Synthetic "Athens-like" road-network generator.
//!
//! The paper's data generator ran on the real greater-Athens graph
//! (1125 nodes, 1831 links, 250 km², four road classes). That dataset is
//! not available, so we synthesize a network with the same node/link
//! counts, area, and class structure: a jittered grid of crossroads with
//! motorway/highway arterial corridors and primary/secondary fill — the
//! statistical shape (a few heavy corridors capturing most traffic) is
//! what the hot-path experiments actually depend on. The substitution
//! rationale is in docs/ARCHITECTURE.md, "Workload model: what the
//! simulator substitutes".

use super::graph::{Link, LinkId, Node, NodeId, RoadClass, RoadNetwork};
use hotpath_core::geometry::Point;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Generator parameters. Defaults reproduce the evaluation network.
#[derive(Clone, Copy, Debug)]
pub struct NetworkParams {
    /// Number of crossroads.
    pub nodes: usize,
    /// Number of links; must satisfy `nodes - 1 <= links <= grid capacity`.
    pub links: usize,
    /// Side of the square coverage area in meters.
    pub area_side: f64,
    /// RNG seed (the network is fully deterministic given the seed).
    pub seed: u64,
    /// Radial density exponent `gamma >= 1`: node positions are pulled
    /// toward the center by `(r/R)^(gamma-1)`, making central links
    /// short (dense downtown) and peripheral links long (suburbs), as in
    /// the real Athens graph. `1.0` keeps the uniform grid.
    pub central_compression: f64,
}

impl NetworkParams {
    /// The evaluation network of Section 6.1: 1125 nodes, 1831 links,
    /// 250 km² (side ≈ 15.81 km), densified toward the center.
    pub fn athens() -> Self {
        NetworkParams {
            nodes: 1125,
            links: 1831,
            area_side: 15_811.0,
            seed: 2008,
            central_compression: 2.0,
        }
    }

    /// A small network for fast tests (keeps the same structure).
    pub fn tiny(seed: u64) -> Self {
        NetworkParams { nodes: 100, links: 160, area_side: 2_000.0, seed, central_compression: 1.5 }
    }
}

/// Generates the synthetic road network.
///
/// Construction:
/// 1. lay out `nodes` crossroads on a jittered near-square grid;
/// 2. collect candidate links between grid neighbors;
/// 3. keep a random spanning tree (connectivity), then add random
///    candidates until exactly `links` links exist;
/// 4. classify links: a handful of full rows/columns become arterial
///    motorway/highway corridors, every third row/column is primary,
///    the rest secondary.
pub fn generate(params: NetworkParams) -> RoadNetwork {
    assert!(params.nodes >= 4, "need at least 4 nodes");
    assert!(
        params.links >= params.nodes - 1,
        "links {} cannot connect {} nodes",
        params.links,
        params.nodes
    );
    let mut rng = SmallRng::seed_from_u64(params.seed);

    // --- 1. jittered grid layout ------------------------------------
    let rows = (params.nodes as f64).sqrt().floor() as usize;
    let cols = params.nodes.div_ceil(rows);
    let sx = params.area_side / cols as f64;
    let sy = params.area_side / rows as f64;
    let jitter = 0.3;
    let mut nodes = Vec::with_capacity(params.nodes);
    let mut grid_pos = Vec::with_capacity(params.nodes); // (col, row) per node
    for i in 0..params.nodes {
        let col = i % cols;
        let row = i / cols;
        let jx = rng.gen_range(-jitter..jitter) * sx;
        let jy = rng.gen_range(-jitter..jitter) * sy;
        nodes.push(Node {
            id: NodeId(i as u32),
            pos: Point::new((col as f64 + 0.5) * sx + jx, (row as f64 + 0.5) * sy + jy),
        });
        grid_pos.push((col, row));
    }
    // Radial densification: pull positions toward the center so that
    // downtown links are short and suburban links long.
    if params.central_compression > 1.0 {
        let c = Point::new(params.area_side * 0.5, params.area_side * 0.5);
        // Normalizing radius slightly past the corner distance keeps the
        // scale factor <= 1 everywhere (nodes only move inward).
        let r_max = params.area_side * 0.75;
        let gamma = params.central_compression;
        for n in &mut nodes {
            let d = n.pos - c;
            let r = d.norm();
            if r > 1e-9 {
                let factor = (r / r_max).powf(gamma - 1.0).min(1.0);
                n.pos = c + d * factor;
            }
        }
    }
    let node_at = |col: usize, row: usize| -> Option<usize> {
        let idx = row * cols + col;
        (col < cols && idx < params.nodes).then_some(idx)
    };

    // --- 2. candidate links (grid neighbors) ------------------------
    let mut candidates: Vec<(usize, usize)> = Vec::new();
    for (i, &(col, row)) in grid_pos.iter().enumerate() {
        if col + 1 < cols {
            if let Some(j) = node_at(col + 1, row) {
                candidates.push((i, j));
            }
        }
        if let Some(j) = node_at(col, row + 1) {
            candidates.push((i, j));
        }
    }
    assert!(
        candidates.len() >= params.links,
        "grid capacity {} below requested links {}",
        candidates.len(),
        params.links
    );

    // --- 3. spanning tree + random fill ------------------------------
    let mut shuffled = candidates.clone();
    shuffled.shuffle(&mut rng);
    let mut dsu = DisjointSet::new(params.nodes);
    let mut chosen: Vec<(usize, usize)> = Vec::with_capacity(params.links);
    let mut leftovers: Vec<(usize, usize)> = Vec::new();
    for (a, b) in shuffled {
        if dsu.union(a, b) {
            chosen.push((a, b));
        } else {
            leftovers.push((a, b));
        }
    }
    assert_eq!(chosen.len(), params.nodes - 1, "grid must be connected");
    leftovers.shuffle(&mut rng);
    while chosen.len() < params.links {
        let extra = leftovers.pop().expect("capacity checked above");
        chosen.push(extra);
    }
    // Deterministic link order regardless of set construction order.
    chosen.sort_unstable();

    // --- 4. classification -------------------------------------------
    // Arterial corridors: 3 motorway columns, 3 highway rows, evenly
    // spaced; every 3rd remaining row/col is primary.
    let m_cols: Vec<usize> = (1..=3).map(|k| k * cols / 4).collect();
    let h_rows: Vec<usize> = (1..=3).map(|k| k * rows / 4).collect();
    let classify = |a: usize, b: usize, rng: &mut SmallRng| -> RoadClass {
        let (ca, ra) = grid_pos[a];
        let (cb, rb) = grid_pos[b];
        if ca == cb && m_cols.contains(&ca) {
            return RoadClass::Motorway; // vertical link on a motorway column
        }
        if ra == rb && h_rows.contains(&ra) {
            return RoadClass::Highway; // horizontal link on a highway row
        }
        if (ca == cb && ca % 3 == 0) || (ra == rb && ra % 3 == 0) {
            return RoadClass::Primary;
        }
        // Sprinkle a few extra primaries for texture.
        if rng.gen_bool(0.08) {
            RoadClass::Primary
        } else {
            RoadClass::Secondary
        }
    };

    let links: Vec<Link> = chosen
        .iter()
        .enumerate()
        .map(|(i, &(a, b))| Link {
            id: LinkId(i as u32),
            a: NodeId(a as u32),
            b: NodeId(b as u32),
            class: classify(a, b, &mut rng),
        })
        .collect();

    RoadNetwork::new(nodes, links)
}

/// Union-find for spanning-tree construction.
struct DisjointSet {
    parent: Vec<usize>,
}

impl DisjointSet {
    fn new(n: usize) -> Self {
        DisjointSet { parent: (0..n).collect() }
    }

    fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Unions the sets; returns true when they were distinct.
    fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.parent[ra] = rb;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn athens_has_paper_counts() {
        let net = generate(NetworkParams::athens());
        assert_eq!(net.node_count(), 1125);
        assert_eq!(net.link_count(), 1831);
        assert!(net.is_connected());
        // Area: all nodes within the declared square (plus jitter slack).
        let b = net.bounds();
        assert!(b.hi().x <= 15_811.0 * 1.05);
        assert!(b.hi().y <= 15_811.0 * 1.05);
        assert!(b.lo().x >= -15_811.0 * 0.05);
    }

    #[test]
    fn class_mix_is_skewed_toward_secondary() {
        let net = generate(NetworkParams::athens());
        let [m, h, p, s] = net.class_histogram();
        assert!(m > 0, "no motorways");
        assert!(h > 0, "no highways");
        assert!(p > 0, "no primaries");
        assert!(s > m + h, "secondary roads must dominate: {m} {h} {p} {s}");
        assert_eq!(m + h + p + s, 1831);
        // Arterials are a small minority, as in a real network.
        assert!((m + h) as f64 / 1831.0 < 0.25);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(NetworkParams::athens());
        let b = generate(NetworkParams::athens());
        assert_eq!(a.node_count(), b.node_count());
        for (na, nb) in a.nodes().iter().zip(b.nodes()) {
            assert_eq!(na.pos, nb.pos);
        }
        for (la, lb) in a.links().iter().zip(b.links()) {
            assert_eq!((la.a, la.b, la.class), (lb.a, lb.b, lb.class));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(NetworkParams { seed: 1, ..NetworkParams::athens() });
        let b = generate(NetworkParams { seed: 2, ..NetworkParams::athens() });
        let same = a.nodes().iter().zip(b.nodes()).filter(|(x, y)| x.pos == y.pos).count();
        assert!(same < a.node_count() / 10, "seeds produced near-identical layouts");
    }

    #[test]
    fn tiny_network_is_valid() {
        let net = generate(NetworkParams::tiny(7));
        assert_eq!(net.node_count(), 100);
        assert_eq!(net.link_count(), 160);
        assert!(net.is_connected());
    }

    #[test]
    #[should_panic(expected = "cannot connect")]
    fn rejects_too_few_links() {
        let _ = generate(NetworkParams {
            nodes: 100,
            links: 50,
            area_side: 1000.0,
            seed: 0,
            central_compression: 1.0,
        });
    }

    #[test]
    fn central_links_are_shorter_than_peripheral() {
        let net = generate(NetworkParams::athens());
        let c = net.bounds().centroid();
        let half = net.bounds().width().max(net.bounds().height()) * 0.5;
        let (mut central, mut peripheral) = (Vec::new(), Vec::new());
        for l in net.links() {
            let mid = net.node(l.a).pos.lerp(&net.node(l.b).pos, 0.5);
            let len = net.link_length(l.id);
            if mid.dist_l2(&c) < 0.25 * half {
                central.push(len);
            } else if mid.dist_l2(&c) > 0.7 * half {
                peripheral.push(len);
            }
        }
        assert!(!central.is_empty() && !peripheral.is_empty());
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&central) * 1.8 < mean(&peripheral),
            "downtown links should be much shorter: central {:.0} m vs peripheral {:.0} m",
            mean(&central),
            mean(&peripheral)
        );
    }

    #[test]
    fn node_degrees_are_road_like() {
        let net = generate(NetworkParams::athens());
        let mut max_deg = 0;
        let mut sum = 0usize;
        for n in net.nodes() {
            let d = net.incident(n.id).len();
            max_deg = max_deg.max(d);
            sum += d;
        }
        // Grid topology: degree at most 4, average 2 * links / nodes.
        assert!(max_deg <= 4);
        let avg = sum as f64 / net.node_count() as f64;
        assert!((avg - 2.0 * 1831.0 / 1125.0).abs() < 1e-9);
    }
}
