//! Lock-free publication of [`HotSnapshot`]s: the serving-side read
//! path.
//!
//! A [`SnapshotCell`] holds the currently published snapshot behind one
//! `AtomicPtr`. The writer (the engine's publish stage) installs a new
//! snapshot with [`SnapshotCell::publish`]; readers go through a
//! [`SnapshotHandle`] whose [`read`](SnapshotHandle::read) is
//! *lock-free and allocation-free*: two atomic loads and one atomic
//! store on the fast path, no reference-count traffic, no mutex, and no
//! way for any number of readers to block the publish stage.
//!
//! ## How reclamation works (hazard pointers)
//!
//! The published pointer is a leaked `Arc<HotSnapshot>`. A reader
//! cannot simply bump the refcount after loading the pointer — between
//! the load and the increment the writer may have swapped and dropped
//! the snapshot (the classic use-after-free window). Instead every
//! handle owns one *hazard slot*:
//!
//! 1. the reader loads the published pointer and stores it in its slot;
//! 2. it re-loads the published pointer; if unchanged, the slot is
//!    visible to any future publish and the snapshot cannot be freed
//!    while the guard lives — the read is done (no retry in the absence
//!    of a concurrent publish);
//! 3. dropping the [`SnapshotGuard`] clears the slot.
//!
//! The writer retires swapped-out pointers to a graveyard and, on each
//! publish, frees every retired snapshot no hazard slot still protects.
//! Both the slot registry and the graveyard live behind `Mutex`es, but
//! those are touched only by the writer and by handle registration —
//! never on the read path.
//!
//! A seqlock was rejected: validating *after* cloning a non-`Copy`
//! payload (the snapshot's `Arc` fields) already touches freed memory
//! on a torn read, so it cannot be made sound here without the same
//! deferred reclamation this design provides anyway.

use crate::coordinator::HotSnapshot;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::{Arc, Mutex};

/// One reader's hazard slot: the snapshot pointer it is currently
/// dereferencing (null when idle). `active` is cleared when the owning
/// handle drops, letting the writer prune the registry.
struct HazardSlot {
    protected: AtomicPtr<HotSnapshot>,
    active: std::sync::atomic::AtomicBool,
}

/// The atomically swapped publication point for [`HotSnapshot`]s.
///
/// One writer (the engine) publishes; any number of [`SnapshotHandle`]
/// readers observe, wait-free in the absence of a concurrent publish
/// and lock-free always. Publishing never waits for readers: an old
/// snapshot still under a guard is parked in the graveyard and freed by
/// a later publish (or by the cell's drop).
pub struct SnapshotCell {
    /// The published snapshot, as a leaked `Arc` pointer. Never null.
    current: AtomicPtr<HotSnapshot>,
    /// Every hazard slot ever registered (writer/registration only).
    slots: Mutex<Vec<Arc<HazardSlot>>>,
    /// Swapped-out snapshots awaiting reclamation (writer only).
    graveyard: Mutex<Vec<*const HotSnapshot>>,
}

// SAFETY: the raw pointers are leaked `Arc<HotSnapshot>`s (HotSnapshot
// is Send + Sync); all cross-thread access goes through atomics or the
// mutexes, and reclamation only frees pointers no hazard slot protects.
unsafe impl Send for SnapshotCell {}
unsafe impl Sync for SnapshotCell {}

impl SnapshotCell {
    /// A cell publishing the empty epoch-0 snapshot.
    pub fn new() -> Arc<Self> {
        Arc::new(SnapshotCell {
            current: AtomicPtr::new(Arc::into_raw(Arc::new(HotSnapshot::empty())) as *mut _),
            slots: Mutex::new(Vec::new()),
            graveyard: Mutex::new(Vec::new()),
        })
    }

    /// Registers a new reader. Registration takes a lock (it is not the
    /// read path); the returned handle reads without ever locking.
    pub fn register(self: &Arc<Self>) -> SnapshotHandle {
        let slot = Arc::new(HazardSlot {
            protected: AtomicPtr::new(std::ptr::null_mut()),
            active: std::sync::atomic::AtomicBool::new(true),
        });
        self.slots.lock().expect("slot registry poisoned").push(slot.clone());
        SnapshotHandle { cell: self.clone(), slot }
    }

    /// Installs `snap` as the published snapshot and reclaims every
    /// previously retired snapshot no reader still protects. Writer
    /// side only; never blocks on readers.
    pub fn publish(&self, snap: Arc<HotSnapshot>) {
        let fresh = Arc::into_raw(snap) as *mut HotSnapshot;
        // SeqCst pairs with the readers' protect/validate sequence: a
        // reader that validated against the old pointer has its slot
        // store ordered before our scan below observes the slots.
        let old = self.current.swap(fresh, Ordering::SeqCst);
        let mut graveyard = self.graveyard.lock().expect("graveyard poisoned");
        graveyard.push(old as *const HotSnapshot);
        let mut slots = self.slots.lock().expect("slot registry poisoned");
        slots.retain(|s| {
            s.active.load(Ordering::Acquire) || !s.protected.load(Ordering::SeqCst).is_null()
        });
        graveyard.retain(|&retired| {
            let hazarded =
                slots.iter().any(|s| std::ptr::eq(s.protected.load(Ordering::SeqCst), retired));
            if !hazarded {
                // SAFETY: `retired` came from Arc::into_raw in publish
                // or new, was removed from `current`, and no hazard
                // slot protects it — this drop is the last reference
                // the cell holds.
                unsafe { drop(Arc::from_raw(retired)) };
            }
            hazarded
        });
    }

    /// The published snapshot as an owned `Arc` (refcounted; allocates
    /// nothing but does touch the count). For the hot path, prefer
    /// [`SnapshotHandle::read`].
    pub fn load(self: &Arc<Self>) -> Arc<HotSnapshot> {
        // Borrow protection from a throwaway slot: registration locks,
        // so this is the convenience path, not the serving path.
        let mut handle = self.register();
        let guard = handle.read();
        let ptr = guard.ptr;
        // SAFETY: the hazard guard keeps `ptr` alive across the
        // increment; from_raw then adopts the new count.
        unsafe {
            Arc::increment_strong_count(ptr);
            Arc::from_raw(ptr)
        }
    }

    /// Epoch stamp of the published snapshot (a full hazard-protected
    /// read, exposed for cheap progress checks).
    pub fn epoch(self: &Arc<Self>) -> u64 {
        self.load().epoch
    }
}

impl Drop for SnapshotCell {
    fn drop(&mut self) {
        // Handles hold an Arc to the cell, so no reader can be active
        // here; everything retired plus the current snapshot is ours.
        let current = *self.current.get_mut();
        // SAFETY: sole owner at drop; both pointers came from into_raw.
        unsafe { drop(Arc::from_raw(current as *const HotSnapshot)) };
        for &retired in self.graveyard.lock().expect("graveyard poisoned").iter() {
            unsafe { drop(Arc::from_raw(retired)) };
        }
    }
}

impl std::fmt::Debug for SnapshotCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotCell").finish_non_exhaustive()
    }
}

/// A registered reader of a [`SnapshotCell`]. Cheap to create (one
/// registration lock), free to read: [`read`](Self::read) is
/// lock-free, allocation-free, and leaves the `Arc` count untouched.
///
/// One handle serves one thread at a time (`read` takes `&mut self` so
/// at most one guard per handle exists); spawn one handle per reader
/// thread.
#[derive(Debug)]
pub struct SnapshotHandle {
    cell: Arc<SnapshotCell>,
    slot: Arc<HazardSlot>,
}

impl std::fmt::Debug for HazardSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HazardSlot").finish_non_exhaustive()
    }
}

impl SnapshotHandle {
    /// The published snapshot, borrowed under hazard protection. Two
    /// atomic loads and one store on the uncontended path; retries only
    /// while a publish races the protect/validate pair.
    pub fn read(&mut self) -> SnapshotGuard<'_> {
        loop {
            let ptr = self.cell.current.load(Ordering::SeqCst);
            self.slot.protected.store(ptr, Ordering::SeqCst);
            if std::ptr::eq(self.cell.current.load(Ordering::SeqCst), ptr) {
                // The slot was visible before any publish that could
                // retire `ptr` scans — the snapshot is pinned.
                return SnapshotGuard { slot: &self.slot, ptr };
            }
            // A publish won the race; drop the stale protection and
            // try again against the new pointer.
            self.slot.protected.store(std::ptr::null_mut(), Ordering::SeqCst);
        }
    }

    /// The published snapshot as an owned `Arc`, for readers that need
    /// to hold it past the guard (refcount traffic, still no lock).
    pub fn load(&mut self) -> Arc<HotSnapshot> {
        let guard = self.read();
        let ptr = guard.ptr;
        // SAFETY: the guard pins `ptr` across the increment.
        unsafe {
            Arc::increment_strong_count(ptr);
            Arc::from_raw(ptr)
        }
    }

    /// Epoch stamp of the published snapshot.
    pub fn epoch(&mut self) -> u64 {
        self.read().epoch
    }
}

impl Drop for SnapshotHandle {
    fn drop(&mut self) {
        self.slot.protected.store(std::ptr::null_mut(), Ordering::SeqCst);
        self.slot.active.store(false, Ordering::Release);
    }
}

/// A hazard-protected borrow of the published snapshot. Dereferences to
/// [`HotSnapshot`]; dropping it releases the protection. While any
/// guard lives, its snapshot cannot be reclaimed — but the writer never
/// waits: it publishes past the guard and defers the free.
pub struct SnapshotGuard<'a> {
    slot: &'a Arc<HazardSlot>,
    ptr: *const HotSnapshot,
}

impl std::ops::Deref for SnapshotGuard<'_> {
    type Target = HotSnapshot;

    fn deref(&self) -> &HotSnapshot {
        // SAFETY: `ptr` is a live leaked Arc pinned by this guard's
        // hazard slot until drop.
        unsafe { &*self.ptr }
    }
}

impl Drop for SnapshotGuard<'_> {
    fn drop(&mut self) {
        self.slot.protected.store(std::ptr::null_mut(), Ordering::SeqCst);
    }
}

impl std::fmt::Debug for SnapshotGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotGuard").field("epoch", &self.epoch).finish_non_exhaustive()
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
        s.hot_count = epoch as usize;
        s.index_size = (epoch * 3) as usize;
        Arc::new(s)
    }

    #[test]
    fn publish_and_read_round_trip() {
        let cell = SnapshotCell::new();
        let mut handle = cell.register();
        assert_eq!(handle.read().epoch, 0);
        cell.publish(stamped(7));
        let guard = handle.read();
        assert_eq!(guard.epoch, 7);
        assert_eq!(guard.timestamp, Timestamp(70));
        drop(guard);
        assert_eq!(cell.epoch(), 7);
        assert_eq!(handle.load().epoch, 7);
    }

    #[test]
    fn guard_reads_do_not_touch_the_refcount() {
        let cell = SnapshotCell::new();
        let snap = stamped(1);
        let baseline = Arc::strong_count(&snap);
        cell.publish(snap.clone());
        let mut handle = cell.register();
        let guard = handle.read();
        assert_eq!(guard.epoch, 1);
        // The cell leaked one count for its published pointer; the
        // guard itself added none.
        assert_eq!(Arc::strong_count(&snap), baseline + 1, "guard bumped the refcount");
        drop(guard);
        assert_eq!(Arc::strong_count(&snap), baseline + 1);
    }

    #[test]
    fn held_guard_pins_its_snapshot_across_publishes() {
        let cell = SnapshotCell::new();
        let mut handle = cell.register();
        cell.publish(stamped(1));
        let guard = handle.read();
        for e in 2..=20 {
            cell.publish(stamped(e));
        }
        // The pinned snapshot is intact even though 19 newer ones were
        // published over it (its memory must not have been reclaimed).
        assert_eq!(guard.epoch, 1);
        assert_eq!(guard.index_size, 3);
        drop(guard);
        assert_eq!(handle.read().epoch, 20);
        // The next publish may now reclaim epoch 1's snapshot.
        cell.publish(stamped(21));
        assert_eq!(handle.read().epoch, 21);
    }

    #[test]
    fn retired_snapshots_are_freed_once_unprotected() {
        let cell = SnapshotCell::new();
        let snap = stamped(1);
        let weak = Arc::downgrade(&snap);
        cell.publish(snap);
        assert!(weak.upgrade().is_some());
        cell.publish(stamped(2)); // retires epoch 1
        cell.publish(stamped(3)); // reclaims it (no hazards)
        assert!(weak.upgrade().is_none(), "unprotected retired snapshot leaked");
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
                        assert_eq!(snap.hot_count, e as usize, "torn read at epoch {e}");
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
