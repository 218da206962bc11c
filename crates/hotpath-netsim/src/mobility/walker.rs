//! A single object walking the road network.
//!
//! The paper's generator (Section 6.1): an object sits on a node, picks
//! an outgoing link with probability proportional to the link's weight
//! relative to all links at that node, then advances in fixed
//! displacements `s` — "the next location will be along that link or at
//! the opposite end node (at most)".

use crate::network::{ClosureSet, LinkId, NodeId, RoadNetwork};
use hotpath_core::geometry::Point;
use rand::Rng;

/// How a walker chooses the next link at a crossroad.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ChoicePolicy {
    /// The paper's rule: probability proportional to link weight.
    /// `avoid_u_turn` excludes the arrival link when alternatives exist
    /// (a realism refinement; the paper is silent on U-turns).
    Weighted {
        /// Exclude immediate back-tracking when possible.
        avoid_u_turn: bool,
    },
    /// Prefer links that lead closer to a target point (weight-scaled);
    /// models crowds converging on a venue.
    Toward(Point),
    /// Prefer links that lead away from a point; models evacuation.
    Away(Point),
}

impl Default for ChoicePolicy {
    fn default() -> Self {
        ChoicePolicy::Weighted { avoid_u_turn: true }
    }
}

/// A moving object bound to the network.
#[derive(Clone, Debug)]
pub struct Walker {
    /// The node the current link was entered from.
    from: NodeId,
    /// The link being traversed.
    link: LinkId,
    /// Meters advanced along the link from `from`.
    offset: f64,
    /// The true position `(from, link, offset)` stands for, computed
    /// whenever they change, so a walker standing still costs a read.
    pos: Point,
    policy: ChoicePolicy,
}

impl Walker {
    /// Creates a walker at `start`, immediately choosing a first link.
    pub fn new<R: Rng>(
        net: &RoadNetwork,
        start: NodeId,
        policy: ChoicePolicy,
        rng: &mut R,
    ) -> Self {
        let link = choose_link(net, start, None, policy, rng);
        let pos = locate(net, start, link, 0.0);
        Walker { from: start, link, offset: 0.0, pos, policy }
    }

    /// Current true position (before measurement noise).
    pub fn position(&self) -> Point {
        self.pos
    }

    /// The position recomputed from `(from, link, offset)`: what
    /// [`Self::position`] must equal.
    #[cfg(test)]
    pub(crate) fn located(&self, net: &RoadNetwork) -> Point {
        locate(net, self.from, self.link, self.offset)
    }

    /// The link currently being traversed.
    pub fn link(&self) -> LinkId {
        self.link
    }

    /// Replaces the link-choice policy; takes effect at the next
    /// crossroad (the current link is finished first).
    pub fn set_policy(&mut self, policy: ChoicePolicy) {
        self.policy = policy;
    }

    /// Advances by at most `displacement` meters: either along the
    /// current link or stopping at the far node (at most), per the
    /// paper. When a node is reached, the next link is chosen so the
    /// following move continues immediately.
    pub fn advance<R: Rng>(&mut self, net: &RoadNetwork, displacement: f64, rng: &mut R) -> Point {
        self.advance_avoiding(net, displacement, None, rng)
    }

    /// Like [`Self::advance`], but link choice at crossroads skips
    /// `closed` links while an open incident link exists. A walker
    /// already on a link that closes under it finishes that link first
    /// (it is physically there); a fully sealed crossroad falls back to
    /// the ordinary choice so nobody is stranded forever.
    pub fn advance_avoiding<R: Rng>(
        &mut self,
        net: &RoadNetwork,
        displacement: f64,
        closed: Option<&ClosureSet>,
        rng: &mut R,
    ) -> Point {
        debug_assert!(displacement > 0.0);
        let len = net.link_length(self.link);
        let remaining = len - self.offset;
        if displacement < remaining {
            self.offset += displacement;
        } else {
            // Arrive at the far node and pick the next link; movement
            // stops at the node for this step ("at most").
            let arrived = net.other_end(self.link, self.from);
            let came_from = self.link;
            self.from = arrived;
            self.link =
                choose_link_avoiding(net, arrived, Some(came_from), self.policy, closed, rng);
            self.offset = 0.0;
        }
        self.pos = locate(net, self.from, self.link, self.offset);
        self.pos
    }
}

/// The point `offset` meters along `link` from its end `from`.
fn locate(net: &RoadNetwork, from: NodeId, link: LinkId, offset: f64) -> Point {
    let a = net.node(from).pos;
    let b = net.node(net.other_end(link, from)).pos;
    let len = a.dist_l2(&b);
    if len == 0.0 {
        return a;
    }
    a.lerp(&b, (offset / len).clamp(0.0, 1.0))
}

/// Weighted link choice at `node`. `arrived_by` is excluded under
/// `avoid_u_turn` when the node has alternatives.
fn choose_link<R: Rng>(
    net: &RoadNetwork,
    node: NodeId,
    arrived_by: Option<LinkId>,
    policy: ChoicePolicy,
    rng: &mut R,
) -> LinkId {
    choose_link_avoiding(net, node, arrived_by, policy, None, rng)
}

/// [`choose_link`] with an additional closure exclusion: closed links
/// are ineligible while at least one open incident link exists (a fully
/// sealed crossroad ignores the closures rather than strand the walker).
fn choose_link_avoiding<R: Rng>(
    net: &RoadNetwork,
    node: NodeId,
    arrived_by: Option<LinkId>,
    policy: ChoicePolicy,
    closed: Option<&ClosureSet>,
    rng: &mut R,
) -> LinkId {
    let incident = net.incident(node);
    assert!(!incident.is_empty(), "isolated node {node:?}");
    // Honor closures only when an open link remains at this node.
    let closed = closed.filter(|c| incident.iter().any(|&l| !c.is_closed(l)));
    let is_closed = |l: LinkId| closed.is_some_and(|c| c.is_closed(l));
    let open_count = incident.iter().filter(|&&l| !is_closed(l)).count();
    let exclude = match policy {
        ChoicePolicy::Weighted { avoid_u_turn: true } if open_count > 1 => arrived_by,
        _ => None,
    };
    let eligible = |l: LinkId| Some(l) != exclude && !is_closed(l);
    let here = net.node(node).pos;
    let weight_of = |l: LinkId| -> f64 {
        let base = net.link(l).class.weight();
        match policy {
            ChoicePolicy::Weighted { .. } => base,
            ChoicePolicy::Toward(target) | ChoicePolicy::Away(target) => {
                let next = net.node(net.other_end(l, node)).pos;
                let now = here.dist_l2(&target);
                let then = next.dist_l2(&target);
                let improves = match policy {
                    ChoicePolicy::Toward(_) => then < now,
                    _ => then > now,
                };
                // Strong bias toward improving links, but never zero so
                // walkers cannot dead-end.
                if improves {
                    base * 20.0
                } else {
                    base * 0.05
                }
            }
        }
    };
    let total: f64 = incident.iter().filter(|&&l| eligible(l)).map(|&l| weight_of(l)).sum();
    debug_assert!(total > 0.0);
    let mut pick = rng.gen_range(0.0..total);
    for &l in incident {
        if !eligible(l) {
            continue;
        }
        let w = weight_of(l);
        if pick < w {
            return l;
        }
        pick -= w;
    }
    // Floating-point slack: fall back to the last eligible link.
    *incident.iter().rev().find(|&&l| eligible(l)).expect("at least one eligible link")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{generate, NetworkParams, RoadClass};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn net() -> RoadNetwork {
        generate(NetworkParams::tiny(11))
    }

    #[test]
    fn walker_starts_on_its_node() {
        let net = net();
        let mut rng = SmallRng::seed_from_u64(1);
        let w = Walker::new(&net, NodeId(0), ChoicePolicy::default(), &mut rng);
        assert_eq!(w.position(), net.node(NodeId(0)).pos);
    }

    #[test]
    fn advance_moves_exactly_displacement_along_link() {
        let net = net();
        let mut rng = SmallRng::seed_from_u64(2);
        let mut w = Walker::new(&net, NodeId(0), ChoicePolicy::default(), &mut rng);
        let start = w.position();
        let p = w.advance(&net, 10.0, &mut rng);
        let moved = start.dist_l2(&p);
        // Either 10 m along the link or stopped at the node (short link).
        assert!(moved <= 10.0 + 1e-9, "moved {moved}");
        assert!(moved > 0.0);
    }

    #[test]
    fn position_stays_on_some_link() {
        let net = net();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut w = Walker::new(&net, NodeId(5), ChoicePolicy::default(), &mut rng);
        for _ in 0..500 {
            let p = w.advance(&net, 10.0, &mut rng);
            // The point lies on the current link within float noise.
            let l = net.link(w.link());
            let a = net.node(l.a).pos;
            let b = net.node(l.b).pos;
            let seg = hotpath_core::geometry::Segment::new(a, b);
            assert!(seg.dist_l2_point(&p) < 1e-6, "off-link at {p:?}");
        }
    }

    #[test]
    fn steps_never_exceed_displacement() {
        let net = net();
        let mut rng = SmallRng::seed_from_u64(4);
        let mut w = Walker::new(&net, NodeId(9), ChoicePolicy::default(), &mut rng);
        let mut prev = w.position();
        for _ in 0..300 {
            let p = w.advance(&net, 10.0, &mut rng);
            assert!(prev.dist_l2(&p) <= 10.0 + 1e-9);
            prev = p;
        }
    }

    #[test]
    fn weighted_choice_prefers_heavy_links() {
        // Find a node with both an arterial and a secondary link; the
        // arterial must be chosen far more often.
        let net = net();
        let mut rng = SmallRng::seed_from_u64(5);
        let node = net
            .nodes()
            .iter()
            .map(|n| n.id)
            .find(|&id| {
                let classes: Vec<RoadClass> =
                    net.incident(id).iter().map(|&l| net.link(l).class).collect();
                classes.iter().any(|c| c.weight() >= 8.0)
                    && classes.iter().any(|c| c.weight() <= 1.0)
            })
            .expect("tiny network should have a mixed node");
        let mut heavy = 0;
        let trials = 2000;
        for _ in 0..trials {
            let l = choose_link(
                &net,
                node,
                None,
                ChoicePolicy::Weighted { avoid_u_turn: false },
                &mut rng,
            );
            if net.link(l).class.weight() >= 8.0 {
                heavy += 1;
            }
        }
        assert!(heavy as f64 / trials as f64 > 0.6, "heavy links picked only {heavy}/{trials}");
    }

    #[test]
    fn toward_policy_reduces_distance_over_time() {
        let net = net();
        let mut rng = SmallRng::seed_from_u64(6);
        let target = net.node(NodeId(99)).pos;
        let mut w = Walker::new(&net, NodeId(0), ChoicePolicy::Toward(target), &mut rng);
        let start_dist = w.position().dist_l2(&target);
        let mut best = start_dist;
        for _ in 0..2000 {
            let p = w.advance(&net, 10.0, &mut rng);
            best = best.min(p.dist_l2(&target));
        }
        assert!(
            best < start_dist * 0.25,
            "walker never approached the target: start {start_dist}, best {best}"
        );
    }

    #[test]
    fn away_policy_increases_distance_over_time() {
        let net = net();
        let mut rng = SmallRng::seed_from_u64(7);
        // Flee from the network center.
        let c = net.bounds().centroid();
        let start = net
            .nodes()
            .iter()
            .min_by(|a, b| a.pos.dist_l2(&c).total_cmp(&b.pos.dist_l2(&c)))
            .unwrap()
            .id;
        let mut w = Walker::new(&net, start, ChoicePolicy::Away(c), &mut rng);
        let d0 = w.position().dist_l2(&c);
        let mut dmax = d0;
        for _ in 0..2000 {
            let p = w.advance(&net, 10.0, &mut rng);
            dmax = dmax.max(p.dist_l2(&c));
        }
        assert!(dmax > d0 + 500.0, "walker never fled: d0={d0} dmax={dmax}");
    }

    #[test]
    fn deterministic_given_seed() {
        let net = net();
        let run = || {
            let mut rng = SmallRng::seed_from_u64(42);
            let mut w = Walker::new(&net, NodeId(3), ChoicePolicy::default(), &mut rng);
            (0..100).map(|_| w.advance(&net, 10.0, &mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn closed_links_are_never_chosen_while_alternatives_exist() {
        use crate::network::ClosureSet;
        let net = net();
        // Close roughly a third of the network; walkers must keep moving
        // and, once their current link is finished, never enter a closed
        // link from a crossroad that still has an open one.
        let mut closed = ClosureSet::none(&net);
        for i in (0..net.link_count()).step_by(3) {
            closed.close(LinkId(i as u32));
        }
        let mut rng = SmallRng::seed_from_u64(8);
        let mut w = Walker::new(&net, NodeId(2), ChoicePolicy::default(), &mut rng);
        // Let the walker clear whatever link it spawned on.
        let spawn_link = w.link();
        for _ in 0..1000 {
            w.advance_avoiding(&net, 10.0, Some(&closed), &mut rng);
            if w.link() != spawn_link {
                break;
            }
        }
        for _ in 0..2000 {
            w.advance_avoiding(&net, 10.0, Some(&closed), &mut rng);
            if closed.is_closed(w.link()) {
                // Only legal when the crossroad it came through had no
                // open exit at all.
                let node = w.from;
                let all_sealed = net.incident(node).iter().all(|&l| closed.is_closed(l));
                assert!(all_sealed, "entered closed link {:?} at open node {node:?}", w.link());
            }
        }
    }

    #[test]
    fn closures_at_fully_sealed_nodes_do_not_strand() {
        use crate::network::ClosureSet;
        let net = net();
        let mut closed = ClosureSet::none(&net);
        for i in 0..net.link_count() {
            closed.close(LinkId(i as u32));
        }
        let mut rng = SmallRng::seed_from_u64(9);
        let mut w = Walker::new(&net, NodeId(4), ChoicePolicy::default(), &mut rng);
        // Everything closed: walkers behave as if nothing were.
        let mut moved = 0.0;
        let mut prev = w.position();
        for _ in 0..50 {
            let p = w.advance_avoiding(&net, 10.0, Some(&closed), &mut rng);
            moved += prev.dist_l2(&p);
            prev = p;
        }
        assert!(moved > 0.0, "walker stranded by total closure");
    }
}
