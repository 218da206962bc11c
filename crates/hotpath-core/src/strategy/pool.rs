//! The one place a worker count is decided.
//!
//! Parallel epoch stages used to derive their own thread counts, each
//! clamped its own way. [`WorkerPool`] centralizes the decision: the
//! coordinator resolves the configured `phase_b_workers` against the
//! machine once, and every stage that fans out asks the same pool —
//! including the break-even degrade for batches too small to amortize
//! a thread launch.

/// A resolved worker-count budget for scoped-thread fan-out.
///
/// This is a *decision*, not a thread container: stages that fan out
/// spawn scoped threads per use (matching the sharded Phase A pattern,
/// where one slice always runs inline on the caller's thread), so an
/// idle pool holds no OS resources at all.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WorkerPool {
    workers: usize,
}

impl WorkerPool {
    /// Resolves a requested worker count against the machine: clamped
    /// to `available_parallelism()` so a single-core host degrades to
    /// the sequential path (break-even) instead of paying thread-launch
    /// and merge overhead for nothing. `0` is treated as `1`.
    pub fn new(requested: usize) -> Self {
        let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        WorkerPool { workers: requested.max(1).min(hw) }
    }

    /// A pool of exactly `n` workers, bypassing the hardware clamp.
    /// For tests and benches that must exercise the multi-worker code
    /// paths (chunk queues, stealing, merge order) on a single-core
    /// machine; production callers go through [`WorkerPool::new`].
    pub fn exact(n: usize) -> Self {
        WorkerPool { workers: n.max(1) }
    }

    /// The resolved worker count.
    #[inline]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// True when this pool runs stages sequentially.
    #[inline]
    pub fn is_sequential(&self) -> bool {
        self.workers == 1
    }

    /// The worker count to actually use for a stage over `items` work
    /// items: the pool's budget, degraded to sequential below the
    /// break-even batch size (thread launches plus result merging cost
    /// more than they save on tiny epochs), and never more workers than
    /// items.
    pub fn for_items(&self, items: usize) -> usize {
        /// Minimum items per worker before fanning out pays for itself.
        const BREAK_EVEN: usize = 32;
        if self.workers == 1 || items < 2 * BREAK_EVEN {
            return 1;
        }
        self.workers.min(items / BREAK_EVEN).max(1)
    }
}

impl Default for WorkerPool {
    /// The sequential pool — the pre-parallel-Phase-B code path.
    fn default() -> Self {
        WorkerPool { workers: 1 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_clamps_to_the_machine_and_never_below_one() {
        let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        assert_eq!(WorkerPool::new(0).workers(), 1);
        assert_eq!(WorkerPool::new(1).workers(), 1);
        assert!(WorkerPool::new(usize::MAX).workers() <= hw);
    }

    #[test]
    fn exact_bypasses_the_clamp() {
        assert_eq!(WorkerPool::exact(8).workers(), 8);
        assert_eq!(WorkerPool::exact(0).workers(), 1);
        assert!(!WorkerPool::exact(2).is_sequential());
        assert!(WorkerPool::exact(1).is_sequential());
    }

    #[test]
    fn for_items_degrades_small_batches_to_sequential() {
        let pool = WorkerPool::exact(8);
        assert_eq!(pool.for_items(0), 1);
        assert_eq!(pool.for_items(63), 1, "below break-even stays sequential");
        assert!(pool.for_items(64) >= 2, "past break-even fans out");
        assert_eq!(pool.for_items(10_000), 8, "large batches get the full budget");
        // Never more workers than can each hold a break-even share.
        assert_eq!(pool.for_items(96), 3);
    }

    #[test]
    fn sequential_pool_is_the_default() {
        assert_eq!(WorkerPool::default(), WorkerPool::exact(1));
        assert_eq!(WorkerPool::default().for_items(1_000_000), 1);
    }
}
