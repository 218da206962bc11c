//! Deterministic fault injection for scenario runs.
//!
//! Scenarios *declare* faults ([`FaultWindow`]s); this module
//! *executes* them inside the simulation driver. A [`FaultPlan`] is a
//! pure function of `(fault seed, window salt, object, timestamp)`:
//! the same seed always fails the same clients at the same ticks, so
//! faulted runs are reproducible and the restart-parity probe can
//! restore mid-storm and land on the identical continuation.

use hotpath_core::time::Timestamp;
use hotpath_core::ObjectId;
use hotpath_netsim::scenario::{FaultKind, FaultWindow, Scenario};

/// An executable set of fault windows under one seed.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    windows: Vec<FaultWindow>,
}

impl FaultPlan {
    /// The fault seed runs use unless told otherwise.
    pub const DEFAULT_SEED: u64 = 0xFA17;

    /// A plan over explicit windows.
    pub fn new(seed: u64, windows: Vec<FaultWindow>) -> Self {
        FaultPlan { seed, windows }
    }

    /// The plan a scenario declares for itself (empty for fault-free
    /// scenarios — execution then costs nothing).
    pub fn for_scenario(seed: u64, scenario: &dyn Scenario) -> Self {
        FaultPlan::new(seed, scenario.fault_windows())
    }

    /// True when no window is declared: the driver skips fault checks
    /// entirely.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The fault afflicting `obj` at `t`, when any. Where windows
    /// overlap, [`FaultKind::Disconnect`] dominates [`FaultKind::Stall`]
    /// (a vanished client cannot also be merely slow).
    pub fn verdict(&self, obj: ObjectId, t: Timestamp) -> Option<FaultKind> {
        let mut verdict = None;
        for w in &self.windows {
            if w.suppresses(self.seed, obj, t) {
                if w.kind == FaultKind::Disconnect {
                    return Some(FaultKind::Disconnect);
                }
                verdict = Some(FaultKind::Stall);
            }
        }
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(kind: FaultKind, from: u64, until: u64, fraction: f64, salt: u64) -> FaultWindow {
        FaultWindow { kind, from: Timestamp(from), until: Timestamp(until), fraction, salt }
    }

    #[test]
    fn empty_plan_never_faults() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        assert_eq!(plan.verdict(ObjectId(3), Timestamp(10)), None);
    }

    #[test]
    fn verdicts_are_deterministic_per_seed_and_respect_windows() {
        let plan = FaultPlan::new(7, vec![window(FaultKind::Disconnect, 10, 20, 0.5, 0xA)]);
        let other = FaultPlan::new(8, vec![window(FaultKind::Disconnect, 10, 20, 0.5, 0xA)]);
        let hits = |p: &FaultPlan| -> Vec<u64> {
            (0..200).filter(|&i| p.verdict(ObjectId(i), Timestamp(15)).is_some()).collect()
        };
        assert_eq!(hits(&plan), hits(&plan), "same seed must fail the same clients");
        assert_ne!(hits(&plan), hits(&other), "different seeds must pick different victims");
        assert!(!hits(&plan).is_empty());
        // Outside the window nobody faults.
        for i in 0..200 {
            assert_eq!(plan.verdict(ObjectId(i), Timestamp(9)), None);
            assert_eq!(plan.verdict(ObjectId(i), Timestamp(20)), None);
        }
    }

    #[test]
    fn disconnect_dominates_stall_on_overlap() {
        let plan = FaultPlan::new(
            1,
            vec![
                window(FaultKind::Stall, 0, 100, 1.0, 0xB),
                window(FaultKind::Disconnect, 40, 60, 1.0, 0xC),
            ],
        );
        assert_eq!(plan.verdict(ObjectId(0), Timestamp(10)), Some(FaultKind::Stall));
        assert_eq!(plan.verdict(ObjectId(0), Timestamp(50)), Some(FaultKind::Disconnect));
        assert_eq!(plan.verdict(ObjectId(0), Timestamp(70)), Some(FaultKind::Stall));
    }
}
