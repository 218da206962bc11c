//! The road-network graph.
//!
//! The paper's evaluation (Section 6.1) uses a simplified graph of the
//! greater-Athens road network: 1125 nodes (major crossroads) connected
//! by 1831 straight links over 250 km², with links ranked into four
//! weight classes — motorways, highways, primary and secondary roads —
//! reflecting their significance in vehicle circulation.

use hotpath_core::geometry::{Point, Rect};

/// Node (crossroad) identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

/// Link (road segment) identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkId(pub u32);

/// The four road classes of the evaluation network.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RoadClass {
    /// Ring/backbone roads with the heaviest traffic share.
    Motorway,
    /// Major arterials.
    Highway,
    /// Distributor roads.
    Primary,
    /// Local streets.
    Secondary,
}

impl RoadClass {
    /// The link weight used by the weighted random walk: the probability
    /// of following a link is its weight over the sum of weights at the
    /// node, so heavier classes capture proportionally more traffic.
    pub fn weight(self) -> f64 {
        match self {
            RoadClass::Motorway => 16.0,
            RoadClass::Highway => 8.0,
            RoadClass::Primary => 3.0,
            RoadClass::Secondary => 1.0,
        }
    }

    /// All classes, heaviest first.
    pub const ALL: [RoadClass; 4] =
        [RoadClass::Motorway, RoadClass::Highway, RoadClass::Primary, RoadClass::Secondary];
}

/// A crossroad.
#[derive(Clone, Copy, Debug)]
pub struct Node {
    /// Identifier (dense, equals the index).
    pub id: NodeId,
    /// Position in meters.
    pub pos: Point,
}

/// A straight, bidirectionally traversable road link.
#[derive(Clone, Copy, Debug)]
pub struct Link {
    /// Identifier (dense, equals the index).
    pub id: LinkId,
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Road class (determines the walk weight).
    pub class: RoadClass,
}

/// The road network: nodes, links, and per-node incidence lists.
#[derive(Clone, Debug)]
pub struct RoadNetwork {
    nodes: Vec<Node>,
    links: Vec<Link>,
    incident: Vec<Vec<LinkId>>,
}

impl RoadNetwork {
    /// Assembles a network from parts, building incidence lists.
    ///
    /// # Panics
    /// Panics when ids are not dense/in-range or a link is a self-loop.
    pub fn new(nodes: Vec<Node>, links: Vec<Link>) -> Self {
        for (i, n) in nodes.iter().enumerate() {
            assert_eq!(n.id.0 as usize, i, "node ids must be dense");
        }
        let mut incident = vec![Vec::new(); nodes.len()];
        for (i, l) in links.iter().enumerate() {
            assert_eq!(l.id.0 as usize, i, "link ids must be dense");
            assert_ne!(l.a, l.b, "self-loop link {i}");
            assert!((l.a.0 as usize) < nodes.len(), "link endpoint out of range");
            assert!((l.b.0 as usize) < nodes.len(), "link endpoint out of range");
            incident[l.a.0 as usize].push(l.id);
            incident[l.b.0 as usize].push(l.id);
        }
        RoadNetwork { nodes, links, incident }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Node accessor.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Link accessor.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Links incident to `node`.
    pub fn incident(&self, node: NodeId) -> &[LinkId] {
        &self.incident[node.0 as usize]
    }

    /// The endpoint of `link` that is not `from`.
    pub fn other_end(&self, link: LinkId, from: NodeId) -> NodeId {
        let l = self.link(link);
        if l.a == from {
            l.b
        } else {
            debug_assert_eq!(l.b, from, "node not on link");
            l.a
        }
    }

    /// Euclidean length of a link in meters.
    pub fn link_length(&self, link: LinkId) -> f64 {
        let l = self.link(link);
        self.node(l.a).pos.dist_l2(&self.node(l.b).pos)
    }

    /// Bounding box of all node positions.
    pub fn bounds(&self) -> Rect {
        let mut lo = self.nodes[0].pos;
        let mut hi = self.nodes[0].pos;
        for n in &self.nodes {
            lo = lo.min(&n.pos);
            hi = hi.max(&n.pos);
        }
        Rect::new(lo, hi)
    }

    /// Per-class link counts, in [`RoadClass::ALL`] order.
    pub fn class_histogram(&self) -> [usize; 4] {
        let mut h = [0usize; 4];
        for l in &self.links {
            let idx = RoadClass::ALL.iter().position(|&c| c == l.class).expect("known class");
            h[idx] += 1;
        }
        h
    }

    /// True when every node can reach every other (BFS from node 0).
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut queue = std::collections::VecDeque::from([NodeId(0)]);
        seen[0] = true;
        let mut visited = 1;
        while let Some(n) = queue.pop_front() {
            for &l in self.incident(n) {
                let m = self.other_end(l, n);
                if !seen[m.0 as usize] {
                    seen[m.0 as usize] = true;
                    visited += 1;
                    queue.push_back(m);
                }
            }
        }
        visited == self.nodes.len()
    }
}

/// A set of closed (impassable) links — road works, accidents, or the
/// authorities sealing an area mid-evacuation. Walkers already on a
/// closed link finish it (they are physically there) but never choose a
/// closed link at a crossroad while an open alternative exists.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClosureSet {
    closed: Vec<bool>,
}

impl ClosureSet {
    /// An empty closure set sized for `net` (everything open).
    pub fn none(net: &RoadNetwork) -> Self {
        ClosureSet { closed: vec![false; net.link_count()] }
    }

    /// Closes a link (idempotent).
    pub fn close(&mut self, link: LinkId) {
        self.closed[link.0 as usize] = true;
    }

    /// Reopens a link (idempotent).
    pub fn open(&mut self, link: LinkId) {
        self.closed[link.0 as usize] = false;
    }

    /// True when `link` is closed.
    pub fn is_closed(&self, link: LinkId) -> bool {
        self.closed.get(link.0 as usize).copied().unwrap_or(false)
    }

    /// Number of closed links.
    pub fn closed_count(&self) -> usize {
        self.closed.iter().filter(|&&c| c).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 2x2 grid: 4 nodes, 4 links (a square).
    fn square() -> RoadNetwork {
        let nodes = vec![
            Node { id: NodeId(0), pos: Point::new(0.0, 0.0) },
            Node { id: NodeId(1), pos: Point::new(100.0, 0.0) },
            Node { id: NodeId(2), pos: Point::new(100.0, 100.0) },
            Node { id: NodeId(3), pos: Point::new(0.0, 100.0) },
        ];
        let links = vec![
            Link { id: LinkId(0), a: NodeId(0), b: NodeId(1), class: RoadClass::Motorway },
            Link { id: LinkId(1), a: NodeId(1), b: NodeId(2), class: RoadClass::Highway },
            Link { id: LinkId(2), a: NodeId(2), b: NodeId(3), class: RoadClass::Primary },
            Link { id: LinkId(3), a: NodeId(3), b: NodeId(0), class: RoadClass::Secondary },
        ];
        RoadNetwork::new(nodes, links)
    }

    #[test]
    fn incidence_and_traversal() {
        let net = square();
        assert_eq!(net.node_count(), 4);
        assert_eq!(net.link_count(), 4);
        assert_eq!(net.incident(NodeId(0)), &[LinkId(0), LinkId(3)]);
        assert_eq!(net.other_end(LinkId(0), NodeId(0)), NodeId(1));
        assert_eq!(net.other_end(LinkId(0), NodeId(1)), NodeId(0));
        assert_eq!(net.link_length(LinkId(1)), 100.0);
    }

    #[test]
    fn bounds_and_histogram() {
        let net = square();
        let b = net.bounds();
        assert_eq!(b.lo(), Point::new(0.0, 0.0));
        assert_eq!(b.hi(), Point::new(100.0, 100.0));
        assert_eq!(net.class_histogram(), [1, 1, 1, 1]);
    }

    #[test]
    fn connectivity_detection() {
        let net = square();
        assert!(net.is_connected());
        // Two disconnected nodes.
        let disconnected = RoadNetwork::new(
            vec![
                Node { id: NodeId(0), pos: Point::new(0.0, 0.0) },
                Node { id: NodeId(1), pos: Point::new(1.0, 0.0) },
                Node { id: NodeId(2), pos: Point::new(2.0, 0.0) },
            ],
            vec![Link { id: LinkId(0), a: NodeId(0), b: NodeId(1), class: RoadClass::Primary }],
        );
        assert!(!disconnected.is_connected());
    }

    #[test]
    fn class_weights_are_strictly_decreasing() {
        let w: Vec<f64> = RoadClass::ALL.iter().map(|c| c.weight()).collect();
        for pair in w.windows(2) {
            assert!(pair[0] > pair[1]);
        }
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loops() {
        let _ = RoadNetwork::new(
            vec![Node { id: NodeId(0), pos: Point::ORIGIN }],
            vec![Link { id: LinkId(0), a: NodeId(0), b: NodeId(0), class: RoadClass::Primary }],
        );
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn rejects_sparse_node_ids() {
        let _ = RoadNetwork::new(vec![Node { id: NodeId(5), pos: Point::ORIGIN }], vec![]);
    }

    #[test]
    fn closure_set_tracks_links() {
        let net = square();
        let mut closed = ClosureSet::none(&net);
        assert_eq!(closed.closed_count(), 0);
        assert!(!closed.is_closed(LinkId(2)));
        closed.close(LinkId(2));
        closed.close(LinkId(2)); // idempotent
        assert!(closed.is_closed(LinkId(2)));
        assert_eq!(closed.closed_count(), 1);
        closed.open(LinkId(2));
        assert_eq!(closed.closed_count(), 0);
    }
}
