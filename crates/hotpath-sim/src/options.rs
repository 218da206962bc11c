//! The shared execution-knob cluster every driver takes.
//!
//! The run driver ([`ScenarioRunParams`]) and the serving stack
//! (`hotpathd` / `client_swarm` in `hotpath-serve`) need the same
//! choices: what checkpoint policy, and which fault seed.
//! [`RunOptions`] is that cluster, embedded by each params struct
//! instead of re-declared — one type to thread through a CLI, one
//! meaning everywhere.
//!
//! [`ScenarioRunParams`]: crate::scenario_run::ScenarioRunParams

use crate::engine_loop::CheckpointPolicy;

/// Execution knobs shared by every run driver. Defaults are
/// checkpointing off and the standard fault seed.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Checkpoint controls: periodic image writes, warm-start restore,
    /// and the restart-parity probe. Default: all off.
    pub checkpoint: CheckpointPolicy,
    /// Seed for fault-victim selection wherever a driver executes a
    /// [`FaultPlan`](crate::fault::FaultPlan) (the scenario driver and
    /// the swarm generator). Runs are deterministic per seed; drivers
    /// without declared faults ignore it.
    pub fault_seed: u64,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions { checkpoint: CheckpointPolicy::default(), fault_seed: 0xFA17 }
    }
}

impl RunOptions {
    /// Chainable checkpoint-policy override.
    pub fn with_checkpoint(mut self, checkpoint: CheckpointPolicy) -> Self {
        self.checkpoint = checkpoint;
        self
    }

    /// Chainable fault-seed override.
    pub fn with_fault_seed(mut self, fault_seed: u64) -> Self {
        self.fault_seed = fault_seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sequential_sync_with_no_checkpointing() {
        let o = RunOptions::default();
        assert!(!o.checkpoint.is_active());
        assert_eq!(o.fault_seed, 0xFA17);
    }

    #[test]
    fn chainable_overrides_compose() {
        let policy = CheckpointPolicy { restart_at: Some(3), ..CheckpointPolicy::default() };
        let o = RunOptions::default().with_checkpoint(policy).with_fault_seed(9182);
        assert!(o.checkpoint.is_active());
        assert_eq!(o.fault_seed, 9182);
    }
}
