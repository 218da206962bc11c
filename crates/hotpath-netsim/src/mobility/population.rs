//! The full moving-object population.
//!
//! Reproduces the paper's workload (Section 6.1): `N` objects initially
//! at random nodes; a fraction `alpha` of them (the *agility*) is in
//! motion, each mover advancing by displacement `s` per timestamp;
//! location devices take one noisy measurement per timestamp.
//!
//! **Agility interpretation** (argued in docs/ARCHITECTURE.md,
//! "Workload model: what the simulator substitutes"): the paper's prose
//! admits two readings of "at each timestamp, only a portion alpha of
//! the objects is allowed to move". The population keeps a fixed
//! alpha*N subset moving at constant speed — the only reading
//! consistent with the evaluation's link-long motion paths, scores in
//! the thousands, and SinglePath/DP index parity. Redrawing the moving
//! subset each timestamp would match the "inter-arrival fluctuates"
//! sentence literally, but under the time-parameterized path definition
//! it shreds every trajectory into near-`2 eps` fragments, which
//! contradicts Figures 7-10. Every object measures every timestamp (the
//! paper's device model).

use super::noise::UniformNoise;
use super::walker::{ChoicePolicy, Walker};
use crate::network::{ClosureSet, NodeId, RoadNetwork};
use hotpath_core::geometry::{Point, TimePoint};
use hotpath_core::time::Timestamp;
use hotpath_core::ObjectId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Workload parameters. Defaults mirror Table 2 of the paper.
#[derive(Clone, Copy, Debug)]
pub struct PopulationParams {
    /// Number of moving objects `N`.
    pub n: usize,
    /// Agility `alpha`: the fraction of objects that move every
    /// timestamp.
    pub agility: f64,
    /// Displacement `s` per move, meters.
    pub displacement: f64,
    /// Positional error `err` (uniform white noise half-range), meters.
    pub err: f64,
    /// RNG seed.
    pub seed: u64,
    /// Link-choice policy at crossroads.
    pub policy: ChoicePolicy,
}

impl PopulationParams {
    /// The paper's defaults: `alpha = 0.1`, `s = 10` m, `err = 1` m
    /// (with `N` chosen per experiment).
    pub fn paper_defaults(n: usize, seed: u64) -> Self {
        PopulationParams {
            n,
            agility: 0.1,
            displacement: 10.0,
            err: 1.0,
            seed,
            policy: ChoicePolicy::default(),
        }
    }
}

/// One measurement emitted by a moving object.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// The reporting object.
    pub object: ObjectId,
    /// The noisy measured timepoint.
    pub observed: TimePoint,
    /// The true position (ground truth for validation; not visible to
    /// the algorithms).
    pub truth: Point,
}

/// The population of walkers.
///
/// A tick costs one advance per mover plus one noise draw per
/// measurement: a parked walker's position is stored, not recomputed.
pub struct Population {
    walkers: Vec<Walker>,
    /// The walkers `0..movers` move and the rest stand.
    movers: usize,
    params: PopulationParams,
    noise: UniformNoise,
    rng: SmallRng,
}

impl Population {
    /// Spawns `n` walkers at random nodes of `net`.
    pub fn new(net: &RoadNetwork, params: PopulationParams) -> Self {
        assert!(params.n > 0, "population must be non-empty");
        assert!((0.0..=1.0).contains(&params.agility), "agility must be a probability");
        let mut rng = SmallRng::seed_from_u64(params.seed);
        let walkers: Vec<Walker> = (0..params.n)
            .map(|_| {
                let start = NodeId(rng.gen_range(0..net.node_count() as u32));
                Walker::new(net, start, params.policy, &mut rng)
            })
            .collect();
        // The first round(alpha * n) walkers move; starts are already
        // random, so the subset is unbiased.
        let movers = (params.agility * params.n as f64).round() as usize;
        Population { walkers, movers, noise: UniformNoise::new(params.err), params, rng }
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.walkers.len()
    }

    /// True when empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.walkers.is_empty()
    }

    /// The workload parameters.
    pub fn params(&self) -> &PopulationParams {
        &self.params
    }

    /// Flips every walker's link-choice policy in place (positions and
    /// mover assignments are preserved) — e.g. the evening rush
    /// reversing the morning's destination.
    pub fn set_policy(&mut self, policy: ChoicePolicy) {
        self.params.policy = policy;
        for w in &mut self.walkers {
            w.set_policy(policy);
        }
    }

    /// Retargets walkers individually: `f` receives each object id and
    /// returns the new policy, or `None` to leave that walker alone.
    /// Positions and mover assignments are preserved — this is how a
    /// rush-hour scenario points different commuters at different hubs.
    pub fn retarget(&mut self, mut f: impl FnMut(ObjectId) -> Option<ChoicePolicy>) {
        for (i, w) in self.walkers.iter_mut().enumerate() {
            if let Some(policy) = f(ObjectId(i as u64)) {
                w.set_policy(policy);
            }
        }
    }

    /// Number of objects currently moving.
    pub fn movers(&self) -> usize {
        self.movers
    }

    /// Sets the number of concurrently moving objects (clamped to `N`):
    /// the first `movers` walkers move, the rest stand, so the movers
    /// are always a prefix of the population and a tick advances only
    /// that prefix. Lets scenarios model time-varying load (rush-hour
    /// surges, overnight lulls).
    pub fn set_movers(&mut self, movers: usize) {
        self.movers = movers.min(self.walkers.len());
    }

    /// Initial (seed) timepoint of an object at simulation start: its
    /// exact position at `t`, used to seed the RayTrace filters. The
    /// position is stored, so `_net` is not consulted.
    pub fn seed_timepoint(&self, _net: &RoadNetwork, obj: ObjectId, t: Timestamp) -> TimePoint {
        TimePoint::new(self.walkers[obj.0 as usize].position(), t)
    }

    /// The link `obj` currently stands or travels on (ground truth; the
    /// algorithms never see it — scenarios use it to verify invariants
    /// such as "nobody drives a closed road").
    pub fn walker_link(&self, obj: ObjectId) -> crate::network::LinkId {
        self.walkers[obj.0 as usize].link()
    }

    /// True when `obj` is currently in the moving subset.
    pub fn is_mover(&self, obj: ObjectId) -> bool {
        (obj.0 as usize) < self.movers
    }

    /// Advances one timestamp: every mover advances by the
    /// displacement, and every object emits one noisy measurement.
    /// `out` is cleared and filled (reused across ticks to avoid
    /// per-tick allocation).
    pub fn tick(&mut self, net: &RoadNetwork, t: Timestamp, out: &mut Vec<Measurement>) {
        self.tick_avoiding(net, t, None, out)
    }

    /// [`Self::tick`] with road closures: movers finish their current
    /// link but never choose a `closed` link at a crossroad that still
    /// has an open exit. `None` behaves exactly like [`Self::tick`].
    pub fn tick_avoiding(
        &mut self,
        net: &RoadNetwork,
        t: Timestamp,
        closed: Option<&ClosureSet>,
        out: &mut Vec<Measurement>,
    ) {
        out.clear();
        for (i, w) in self.walkers.iter_mut().enumerate() {
            let truth = if i < self.movers {
                w.advance_avoiding(net, self.params.displacement, closed, &mut self.rng)
            } else {
                w.position()
            };
            let observed = self.noise.apply(truth, &mut self.rng);
            out.push(Measurement {
                object: ObjectId(i as u64),
                observed: TimePoint::new(observed, t),
                truth,
            });
        }
    }

    /// Convenience wrapper allocating a fresh vector.
    pub fn tick_collect(&mut self, net: &RoadNetwork, t: Timestamp) -> Vec<Measurement> {
        let mut out = Vec::new();
        self.tick(net, t, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{generate, NetworkParams};

    fn net() -> RoadNetwork {
        generate(NetworkParams::tiny(21))
    }

    /// Ticks once and returns the ids of the objects whose true
    /// position changed.
    fn tick_moved(pop: &mut Population, net: &RoadNetwork, t: Timestamp) -> Vec<u64> {
        let before: Vec<Point> =
            (0..pop.len() as u64).map(|i| pop.seed_timepoint(net, ObjectId(i), t).p).collect();
        let out = pop.tick_collect(net, t);
        out.iter().filter(|m| m.truth != before[m.object.0 as usize]).map(|m| m.object.0).collect()
    }

    #[test]
    fn tick_respects_agility_statistically() {
        // The share of objects whose true position changes per tick is
        // the agility alpha.
        let net = net();
        let mut pop = Population::new(&net, PopulationParams::paper_defaults(1000, 5));
        let mut total = 0usize;
        let ticks = 50;
        for t in 1..=ticks {
            total += tick_moved(&mut pop, &net, Timestamp(t)).len();
        }
        let rate = total as f64 / (ticks as usize * pop.len()) as f64;
        assert!((rate - 0.1).abs() < 0.02, "move rate {rate} far from alpha=0.1");
    }

    #[test]
    fn dense_sampling_measures_everyone_every_tick() {
        let net = net();
        let mut pop = Population::new(&net, PopulationParams::paper_defaults(200, 5));
        let mut out = Vec::new();
        for t in 1..=5 {
            pop.tick(&net, Timestamp(t), &mut out);
            assert_eq!(out.len(), 200, "dense sampling must measure all objects");
        }
        // Most measurements are of standing objects (alpha = 0.1): the
        // same object's consecutive positions rarely change.
        let mut prev: Vec<_> = Vec::new();
        pop.tick(&net, Timestamp(6), &mut out);
        prev.extend(out.iter().map(|m| m.truth));
        pop.tick(&net, Timestamp(7), &mut out);
        let still = out.iter().zip(prev.iter()).filter(|(m, p)| m.truth == **p).count();
        assert!(still > 150, "expected most objects standing, got {still}/200");
    }

    #[test]
    fn measurements_are_noisy_but_bounded() {
        let net = net();
        let mut pop = Population::new(&net, PopulationParams::paper_defaults(200, 6));
        let mut out = Vec::new();
        let mut any_noise = false;
        for t in 1..=20 {
            pop.tick(&net, Timestamp(t), &mut out);
            for m in &out {
                let gap = m.observed.p.dist_linf(&m.truth);
                assert!(gap <= 1.0 + 1e-12, "noise beyond err: {gap}");
                if gap > 0.0 {
                    any_noise = true;
                }
            }
        }
        assert!(any_noise, "noise never applied");
    }

    #[test]
    fn object_ids_are_stable_and_in_range() {
        let net = net();
        let mut pop = Population::new(&net, PopulationParams::paper_defaults(50, 7));
        let mut out = Vec::new();
        for t in 1..=10 {
            pop.tick(&net, Timestamp(t), &mut out);
            for m in &out {
                assert!((m.object.0 as usize) < 50);
                assert_eq!(m.observed.t, Timestamp(t));
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let net = net();
        let run = || {
            let mut pop = Population::new(&net, PopulationParams::paper_defaults(100, 99));
            let mut all = Vec::new();
            let mut out = Vec::new();
            for t in 1..=30 {
                pop.tick(&net, Timestamp(t), &mut out);
                all.extend(out.iter().map(|m| (m.object.0, m.observed.p)));
            }
            all
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn seed_timepoints_sit_on_the_network() {
        let net = net();
        let pop = Population::new(&net, PopulationParams::paper_defaults(20, 8));
        let bounds = net.bounds();
        for i in 0..20u64 {
            let tp = pop.seed_timepoint(&net, ObjectId(i), Timestamp(0));
            assert!(bounds.expand(1.0).contains(&tp.p));
        }
    }

    #[test]
    fn zero_agility_freezes_everyone() {
        let net = net();
        let mut params = PopulationParams::paper_defaults(50, 9);
        params.agility = 0.0;
        let mut pop = Population::new(&net, params);
        assert!(tick_moved(&mut pop, &net, Timestamp(1)).is_empty());
    }

    #[test]
    fn full_agility_moves_everyone() {
        let net = net();
        let mut params = PopulationParams::paper_defaults(50, 10);
        params.agility = 1.0;
        let mut pop = Population::new(&net, params);
        assert_eq!(tick_moved(&mut pop, &net, Timestamp(1)).len(), 50);
    }

    #[test]
    fn set_movers_scales_the_moving_subset() {
        let net = net();
        let mut pop = Population::new(&net, PopulationParams::paper_defaults(100, 11));
        assert_eq!(pop.movers(), 10); // alpha = 0.1
        pop.set_movers(60);
        assert_eq!(pop.movers(), 60);
        assert_eq!(tick_moved(&mut pop, &net, Timestamp(1)), (0..60).collect::<Vec<_>>());
        pop.set_movers(5);
        assert_eq!(tick_moved(&mut pop, &net, Timestamp(2)), (0..5).collect::<Vec<_>>());
        // Clamped at N.
        pop.set_movers(10_000);
        assert_eq!(pop.movers(), 100);
        assert!(pop.is_mover(ObjectId(99)));
    }

    #[test]
    fn retarget_changes_individual_policies() {
        let net = net();
        let mut pop = Population::new(&net, PopulationParams::paper_defaults(10, 12));
        let target = net.bounds().centroid();
        // Point the even walkers at the center, leave the odd ones.
        pop.retarget(|obj| (obj.0 % 2 == 0).then_some(ChoicePolicy::Toward(target)));
        // No panic, and the population still ticks deterministically.
        let a = pop.tick_collect(&net, Timestamp(1));
        assert_eq!(a.len(), 10);
    }

    #[test]
    fn tick_avoiding_none_matches_tick() {
        let net = net();
        let run = |avoid: bool| {
            let mut pop = Population::new(&net, PopulationParams::paper_defaults(80, 13));
            let mut out = Vec::new();
            let mut all = Vec::new();
            for t in 1..=40 {
                if avoid {
                    pop.tick_avoiding(&net, Timestamp(t), None, &mut out);
                } else {
                    pop.tick(&net, Timestamp(t), &mut out);
                }
                all.extend(out.iter().map(|m| (m.object.0, m.observed.p)));
            }
            all
        };
        assert_eq!(run(false), run(true));
    }
}

/// The generator checked against a reference that keeps a per-walker
/// mover mask and recomputes every position from `(from, link, offset)`
/// each tick: stored positions and the mover prefix must not move a bit.
#[cfg(test)]
mod oracle {
    use super::*;
    use crate::network::{generate, LinkId, NetworkParams};
    use proptest::prelude::*;

    /// [`Population`] as a mask-and-recompute generator.
    struct Reference {
        walkers: Vec<Walker>,
        is_mover: Vec<bool>,
        params: PopulationParams,
        noise: UniformNoise,
        rng: SmallRng,
    }

    impl Reference {
        fn new(net: &RoadNetwork, params: PopulationParams) -> Self {
            let mut rng = SmallRng::seed_from_u64(params.seed);
            let walkers: Vec<Walker> = (0..params.n)
                .map(|_| {
                    let start = NodeId(rng.gen_range(0..net.node_count() as u32));
                    Walker::new(net, start, params.policy, &mut rng)
                })
                .collect();
            let movers = (params.agility * params.n as f64).round() as usize;
            let is_mover = (0..params.n).map(|i| i < movers).collect();
            Reference { walkers, is_mover, noise: UniformNoise::new(params.err), params, rng }
        }

        fn set_movers(&mut self, movers: usize) {
            for (i, m) in self.is_mover.iter_mut().enumerate() {
                *m = i < movers;
            }
        }

        fn retarget(&mut self, mut f: impl FnMut(ObjectId) -> Option<ChoicePolicy>) {
            for (i, w) in self.walkers.iter_mut().enumerate() {
                if let Some(policy) = f(ObjectId(i as u64)) {
                    w.set_policy(policy);
                }
            }
        }

        fn tick_avoiding(
            &mut self,
            net: &RoadNetwork,
            t: Timestamp,
            closed: Option<&ClosureSet>,
            out: &mut Vec<Measurement>,
        ) {
            out.clear();
            for (i, w) in self.walkers.iter_mut().enumerate() {
                if self.is_mover[i] {
                    w.advance_avoiding(net, self.params.displacement, closed, &mut self.rng);
                }
                let truth = w.located(net);
                let observed = self.noise.apply(truth, &mut self.rng);
                out.push(Measurement {
                    object: ObjectId(i as u64),
                    observed: TimePoint::new(observed, t),
                    truth,
                });
            }
        }
    }

    /// A measurement as exact bits.
    fn bits(m: &Measurement) -> (u64, u64, u64, u64, u64, u64) {
        let (o, p) = (m.observed.p, m.truth);
        (m.object.0, m.observed.t.0, o.x.to_bits(), o.y.to_bits(), p.x.to_bits(), p.y.to_bits())
    }

    /// The policy op `arg` gives object `obj`: a venue, a point to flee,
    /// plain wandering, or no change.
    fn policy_for(net: &RoadNetwork, arg: u32, obj: ObjectId) -> Option<ChoicePolicy> {
        let at = net.node(NodeId(arg % net.node_count() as u32)).pos;
        match (obj.0 + u64::from(arg)) % 4 {
            0 => Some(ChoicePolicy::Toward(at)),
            1 => Some(ChoicePolicy::Away(at)),
            2 => Some(ChoicePolicy::Weighted { avoid_u_turn: arg.is_multiple_of(2) }),
            _ => None,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn population_matches_the_recomputing_reference(
            n in 1usize..40,
            agility in 0.0f64..=1.0,
            displacement in 5.0f64..120.0,
            seed in 0u64..1_000_000,
            ops in prop::collection::vec((0u8..4, 0u32..10_000), 1..60),
        ) {
            let net = generate(NetworkParams::tiny(seed % 4));
            let params = PopulationParams {
                agility,
                displacement,
                ..PopulationParams::paper_defaults(n, seed)
            };
            let mut pop = Population::new(&net, params);
            let mut reference = Reference::new(&net, params);
            let (mut got, mut want) = (Vec::new(), Vec::new());
            let mut t = 0;
            for (op, arg) in ops {
                match op {
                    0 => {
                        // Up to N + 1, so the clamp is exercised.
                        let movers = arg as usize % (n + 2);
                        pop.set_movers(movers);
                        reference.set_movers(movers);
                    }
                    1 => {
                        pop.retarget(|obj| policy_for(&net, arg, obj));
                        reference.retarget(|obj| policy_for(&net, arg, obj));
                    }
                    _ => {
                        // Op 3 closes a third of the links, chosen by `arg`.
                        let closed = (op == 3).then(|| {
                            let mut c = ClosureSet::none(&net);
                            for l in (0..net.link_count() as u32).filter(|l| (l + arg) % 3 == 0) {
                                c.close(LinkId(l));
                            }
                            c
                        });
                        t += 1;
                        pop.tick_avoiding(&net, Timestamp(t), closed.as_ref(), &mut got);
                        reference.tick_avoiding(&net, Timestamp(t), closed.as_ref(), &mut want);
                        prop_assert_eq!(
                            got.iter().map(bits).collect::<Vec<_>>(),
                            want.iter().map(bits).collect::<Vec<_>>()
                        );
                    }
                }
            }
            for i in 0..n as u64 {
                prop_assert_eq!(pop.is_mover(ObjectId(i)), reference.is_mover[i as usize]);
            }
        }
    }
}
