//! Publication of [`HotSnapshot`]s: the serving-side read path.
//!
//! A [`SnapshotCell`] holds the published snapshot as a
//! `Mutex<(u64, Arc<HotSnapshot>)>` beside an `AtomicU64` publish
//! counter. The writer (the engine's publish stage) installs a new
//! snapshot with [`SnapshotCell::publish`], which swaps the pair under
//! the lock and then bumps the counter. Readers go through a
//! [`SnapshotHandle`] that caches the `(counter, Arc)` pair it last
//! took, so [`read`](SnapshotHandle::read) costs one `Acquire` load
//! while nothing new is published and one lock-and-clone on the first
//! read after a publish. Neither allocates. The lock guards a pointer
//! copy and a refcount increment, so a publish waits for readers at
//! most that long; the old snapshot is dropped outside the lock.
//!
//! The cache is keyed on the publish counter, not on the snapshot's
//! epoch: a restore republishes an older epoch, and every reader must
//! see it.

use crate::coordinator::HotSnapshot;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// The publication point for [`HotSnapshot`]s.
///
/// One writer (the engine) publishes; any number of [`SnapshotHandle`]
/// readers observe. Each publish is seen whole: a reader gets either
/// the old `Arc` or the new one, never a mix.
#[derive(Debug)]
pub struct SnapshotCell {
    /// Publishes so far; equals `current.0` once a publish returns.
    published: AtomicU64,
    /// The published snapshot and the publish count that installed it.
    /// Every update is one `mem::replace`, so a poisoned lock still
    /// guards a valid pair and is recovered with `into_inner`.
    current: Mutex<(u64, Arc<HotSnapshot>)>,
}

impl SnapshotCell {
    /// A cell publishing the empty epoch-0 snapshot.
    pub fn new() -> Arc<Self> {
        Arc::new(SnapshotCell {
            published: AtomicU64::new(0),
            current: Mutex::new((0, Arc::new(HotSnapshot::empty()))),
        })
    }

    /// Registers a new reader, caching the snapshot published now.
    pub fn register(self: &Arc<Self>) -> SnapshotHandle {
        let (seen, snap) = self.current();
        SnapshotHandle { cell: Arc::clone(self), seen, snap }
    }

    /// Installs `snap` as the published snapshot. Writer side only.
    pub fn publish(&self, snap: Arc<HotSnapshot>) {
        let old = {
            let mut current = self.current.lock().unwrap_or_else(PoisonError::into_inner);
            let count = current.0 + 1;
            let old = std::mem::replace(&mut *current, (count, snap));
            // Pairs with the `Acquire` in `SnapshotHandle::read`: a reader
            // that sees `count` then finds this pair (or a newer one).
            self.published.store(count, Ordering::Release);
            old
        };
        // A snapshot no reader still holds is freed here, off the lock.
        drop(old);
    }

    /// The published snapshot as an owned `Arc` (one lock-and-clone).
    pub fn load(&self) -> Arc<HotSnapshot> {
        self.current().1
    }

    /// Epoch stamp of the published snapshot.
    pub fn epoch(&self) -> u64 {
        self.load().epoch
    }

    fn current(&self) -> (u64, Arc<HotSnapshot>) {
        self.current.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }
}

/// A registered reader of a [`SnapshotCell`]: it keeps the last
/// snapshot it took, so [`read`](Self::read) touches the lock only
/// after a publish. Holding that `Arc` keeps one superseded snapshot
/// alive per idle handle until its next read.
///
/// `read` takes `&mut self`; spawn one handle per reader thread.
#[derive(Debug)]
pub struct SnapshotHandle {
    cell: Arc<SnapshotCell>,
    /// The publish count `snap` was installed by.
    seen: u64,
    snap: Arc<HotSnapshot>,
}

impl SnapshotHandle {
    /// The published snapshot: one `Acquire` load when nothing was
    /// published since the last read, one lock-and-clone otherwise. The
    /// borrow adds no refcount of its own.
    pub fn read(&mut self) -> &HotSnapshot {
        if self.cell.published.load(Ordering::Acquire) != self.seen {
            (self.seen, self.snap) = self.cell.current();
        }
        &self.snap
    }

    /// The published snapshot as an owned `Arc`, for readers that need
    /// to hold it past the next read.
    pub fn load(&mut self) -> Arc<HotSnapshot> {
        self.read();
        Arc::clone(&self.snap)
    }

    /// Epoch stamp of the published snapshot.
    pub fn epoch(&mut self) -> u64 {
        self.read().epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Timestamp;

    /// A snapshot whose every stamped field is a function of `epoch`,
    /// so readers can detect torn or stale-mixed images.
    fn stamped(epoch: u64) -> Arc<HotSnapshot> {
        let mut s = HotSnapshot::empty();
        s.epoch = epoch;
        s.timestamp = Timestamp(epoch * 10);
        s.top_k_score = epoch as f64;
        s.index_size = (epoch * 3) as usize;
        Arc::new(s)
    }

    #[test]
    fn publish_and_read_round_trip() {
        let cell = SnapshotCell::new();
        let mut handle = cell.register();
        assert_eq!(handle.read().epoch, 0);
        cell.publish(stamped(7));
        let snap = handle.read();
        assert_eq!(snap.epoch, 7);
        assert_eq!(snap.timestamp, Timestamp(70));
        assert_eq!(cell.epoch(), 7);
        assert_eq!(handle.load().epoch, 7);
    }

    #[test]
    fn reads_do_not_touch_the_refcount() {
        let cell = SnapshotCell::new();
        let snap = stamped(1);
        cell.publish(snap.clone());
        let mut handle = cell.register();
        let read = handle.read();
        let during = Arc::strong_count(&snap);
        assert_eq!(read.epoch, 1);
        // The cell and the handle's cache hold their counts; the
        // borrow itself holds none.
        assert_eq!(Arc::strong_count(&snap), during, "a read bumped the refcount");
    }

    #[test]
    fn an_owned_load_outlives_later_publishes() {
        let cell = SnapshotCell::new();
        let mut handle = cell.register();
        cell.publish(stamped(1));
        let held = handle.load();
        for e in 2..=20 {
            cell.publish(stamped(e));
        }
        // Nineteen newer publishes did not free the held image.
        assert_eq!(held.epoch, 1);
        assert_eq!(held.index_size, 3);
        assert_eq!(handle.read().epoch, 20);
    }

    #[test]
    fn retired_snapshots_are_freed_once_unprotected() {
        let cell = SnapshotCell::new();
        let snap = stamped(1);
        let weak = Arc::downgrade(&snap);
        cell.publish(snap);
        cell.publish(stamped(2)); // no reader holds epoch 1
        assert!(weak.upgrade().is_none(), "unprotected retired snapshot leaked");

        let snap = stamped(3);
        let weak = Arc::downgrade(&snap);
        cell.publish(snap);
        let mut handle = cell.register();
        cell.publish(stamped(4));
        assert!(weak.upgrade().is_some(), "the handle still caches epoch 3");
        assert_eq!(handle.read().epoch, 4);
        assert!(weak.upgrade().is_none(), "retired snapshot outlived its last reader");
    }

    #[test]
    fn dropping_the_cell_frees_everything() {
        let cell = SnapshotCell::new();
        let a = stamped(1);
        let b = stamped(2);
        let (wa, wb) = (Arc::downgrade(&a), Arc::downgrade(&b));
        cell.publish(a);
        cell.publish(b);
        drop(cell);
        assert!(wa.upgrade().is_none() && wb.upgrade().is_none(), "cell leaked snapshots");
    }

    /// The spawn-and-hammer consistency pin: reader threads spin on
    /// `read()` while the writer publishes continuously. Every observed
    /// image must be internally consistent (all fields agree with its
    /// epoch stamp — no torn or mixed snapshots) and each reader's
    /// epoch sequence must be monotone non-decreasing.
    #[test]
    fn hammered_readers_always_see_consistent_monotone_snapshots() {
        let cell = SnapshotCell::new();
        let readers = 4;
        let publishes = 3_000u64;
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|scope| {
            let mut joins = Vec::new();
            for _ in 0..readers {
                let mut handle = cell.register();
                let stop = stop.clone();
                joins.push(scope.spawn(move || {
                    let mut last = 0u64;
                    let mut reads = 0u64;
                    // Read before testing `stop`: on a loaded host the
                    // writer can finish before a reader is scheduled.
                    loop {
                        let snap = handle.read();
                        let e = snap.epoch;
                        assert_eq!(snap.timestamp, Timestamp(e * 10), "torn read at epoch {e}");
                        assert_eq!(snap.top_k_score, e as f64, "torn read at epoch {e}");
                        assert_eq!(snap.index_size, (e * 3) as usize, "torn read at epoch {e}");
                        assert!(e >= last, "epoch went backwards: {last} -> {e}");
                        last = e;
                        reads += 1;
                        if stop.load(Ordering::Relaxed) {
                            break reads;
                        }
                    }
                }));
            }
            for e in 1..=publishes {
                cell.publish(stamped(e));
            }
            stop.store(true, Ordering::Relaxed);
            let total: u64 = joins.into_iter().map(|j| j.join().expect("reader panicked")).sum();
            assert!(total > 0, "readers never ran");
        });
        assert_eq!(cell.epoch(), publishes);
    }
}
