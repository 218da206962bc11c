//! The shared execution-knob cluster every driver takes.
//!
//! The figure simulation ([`SimulationParams`]), the scenario driver
//! ([`ScenarioRunParams`]), and the serving stack (`hotpathd` /
//! `client_swarm` in `hotpath-serve`) all need the same choices: how
//! many shards, what checkpoint policy, and which fault seed.
//! [`RunOptions`] is that cluster, embedded by each params struct
//! instead of re-declared — one type to thread through a CLI, one
//! meaning everywhere.
//!
//! [`SimulationParams`]: crate::simulation::SimulationParams
//! [`ScenarioRunParams`]: crate::scenario_run::ScenarioRunParams

use crate::engine_loop::CheckpointPolicy;

/// Execution knobs shared by every run driver. Defaults are one shard,
/// checkpointing off and the standard fault seed.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Coordinator shards (1 = sequential; results are identical at
    /// every shard count).
    pub shards: usize,
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
        RunOptions { shards: 1, checkpoint: CheckpointPolicy::default(), fault_seed: 0xFA17 }
    }
}

impl RunOptions {
    /// Chainable shard-count override.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

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
        assert_eq!(o.shards, 1);
        assert!(!o.checkpoint.is_active());
        assert_eq!(o.fault_seed, 0xFA17);
    }

    #[test]
    fn chainable_overrides_compose() {
        let o = RunOptions::default().with_shards(4).with_fault_seed(9182);
        assert_eq!(o.shards, 4);
        assert_eq!(o.fault_seed, 9182);
    }
}
