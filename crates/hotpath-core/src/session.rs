//! Client-session lifecycle: heartbeat leases over the shared timer
//! wheel.
//!
//! The serving front door tracks every reporting client in a
//! [`SessionTable`] with a three-state machine:
//!
//! ```text
//!            heartbeat                lease expires
//!   (new) ──────────────▶ Healthy ───────────────────▶ Dropped
//!                            ▲                            │
//!                            │  heartbeat (Reconnected)   │ grace expires
//!                            └────────────────────────────┤
//!                                                         ▼
//!                                                      Ejected
//!                                              (record removed; a later
//!                                               heartbeat re-admits as a
//!                                               fresh session)
//! ```
//!
//! Every admitted state message is a heartbeat: it re-arms the client's
//! lease (`deadline = heartbeat + lease`). Leases expire through the
//! same hierarchical [`TimerWheel`] the path table uses — re-armed
//! leases leave their old wheel events in place as *stale* entries
//! that are skipped when they fire (the record's current deadline no
//! longer matches), so re-arming is O(1).
//!
//! Transitions are surfaced as typed [`SessionEvent`]s (drained into
//! each epoch's published `HotSnapshot`) and counted in monotone
//! [`SessionCounters`]. The table is checkpointed as a section of
//! sorted [`SessionRecord`]s; stale wheel events are *not* serialized
//! (the deadline in each record is the only live one), which keeps the
//! image a pure function of the table's logical state.

use crate::fxhash::FxHashMap;
use crate::time::Timestamp;
use crate::wheel::{TimerWheel, WheelEvent};
use crate::ObjectId;

/// Lifecycle state of one client session.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum SessionState {
    /// Heartbeating within its lease.
    Healthy = 0,
    /// Lease expired; within the ejection grace period.
    Dropped = 1,
    /// Grace expired: the session record was removed. Records never
    /// hold this state — it only appears in transition events.
    Ejected = 2,
}

impl std::fmt::Display for SessionState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SessionState::Healthy => "healthy",
            SessionState::Dropped => "dropped",
            SessionState::Ejected => "ejected",
        })
    }
}

/// A typed lifecycle transition.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SessionTransition {
    /// First heartbeat of an unknown client: a fresh Healthy session.
    Connected,
    /// Lease expired: Healthy → Dropped.
    Dropped,
    /// Heartbeat from a Dropped client: Dropped → Healthy.
    Reconnected,
    /// Grace expired (or admission forced it): session removed.
    Ejected,
}

impl std::fmt::Display for SessionTransition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SessionTransition::Connected => "connected",
            SessionTransition::Dropped => "dropped",
            SessionTransition::Reconnected => "reconnected",
            SessionTransition::Ejected => "ejected",
        })
    }
}

/// One lifecycle transition, stamped with when it logically happened
/// (lease-driven transitions carry the deadline that expired, not the
/// clock value that happened to observe it — so the stream is
/// independent of how coarsely time advances).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SessionEvent {
    /// The client.
    pub object: ObjectId,
    /// When the transition logically happened.
    pub at: Timestamp,
    /// What happened.
    pub transition: SessionTransition,
}

/// Monotone session-lifecycle counters.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct SessionCounters {
    /// Fresh sessions admitted.
    pub connects: u64,
    /// Healthy → Dropped transitions.
    pub drops: u64,
    /// Dropped → Healthy transitions.
    pub reconnects: u64,
    /// Sessions removed (grace expiry or admission ejection).
    pub ejections: u64,
}

/// Checkpoint form of one session: four little-endian `u64`s, 32 bytes,
/// no padding. `state` is 0 (Healthy, `deadline` = lease expiry) or
/// 1 (Dropped, `deadline` = ejection time).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(C)]
pub struct SessionRecord {
    /// The client id.
    pub object: u64,
    /// Encoded [`SessionState`] (0 or 1; Ejected records don't exist).
    pub state: u64,
    /// The live deadline: lease expiry while Healthy, ejection time
    /// while Dropped.
    pub deadline: u64,
    /// Largest heartbeat timestamp seen (the eject-slowest victim key).
    pub last_heartbeat: u64,
}

/// A pending lease deadline on the wheel. Stale once the record's
/// deadline moves past it.
#[derive(Clone, Copy, Debug)]
struct LeaseEvent {
    expiry: u64,
    object: ObjectId,
}

impl WheelEvent for LeaseEvent {
    type Key = (u64, u64);

    #[inline]
    fn expiry_raw(&self) -> u64 {
        self.expiry
    }

    #[inline]
    fn sort_key(&self) -> Self::Key {
        (self.expiry, self.object.0)
    }
}

/// Live per-client record.
#[derive(Clone, Copy, Debug)]
struct Record {
    state: SessionState,
    deadline: u64,
    last_heartbeat: u64,
}

/// The session table: per-client lifecycle records plus the lease
/// wheel. All operations are deterministic in the order they are
/// applied — heartbeats in submission order, expiries in canonical
/// `(deadline, object)` order — so a run and its restart from a
/// checkpoint produce the identical event stream.
#[derive(Clone, Debug)]
pub struct SessionTable {
    lease: u64,
    grace: u64,
    records: FxHashMap<ObjectId, Record>,
    wheel: TimerWheel<LeaseEvent>,
    /// Transitions since the last [`SessionTable::drain_events`].
    events: Vec<SessionEvent>,
    counters: SessionCounters,
    /// Count of records in `Healthy` state.
    healthy: usize,
}

impl SessionTable {
    /// An empty table with the given lease and grace (timestamps),
    /// whose wheel clock starts at `clock`.
    pub fn new(lease: u64, grace: u64, clock: Timestamp) -> Self {
        assert!(lease > 0, "session table requires a positive lease");
        SessionTable {
            lease,
            grace,
            records: FxHashMap::default(),
            wheel: TimerWheel::new(clock.raw()),
            events: Vec::new(),
            counters: SessionCounters::default(),
            healthy: 0,
        }
    }

    /// The lease in force.
    pub fn lease(&self) -> u64 {
        self.lease
    }

    /// The ejection grace in force.
    pub fn grace(&self) -> u64 {
        self.grace
    }

    /// Tracked sessions (Healthy + Dropped).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no sessions are tracked.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Sessions currently Healthy.
    pub fn healthy_count(&self) -> usize {
        self.healthy
    }

    /// Sessions currently Dropped (lease expired, inside grace).
    pub fn dropped_count(&self) -> usize {
        self.records.len() - self.healthy
    }

    /// Cumulative lifecycle counters.
    pub fn counters(&self) -> SessionCounters {
        self.counters
    }

    /// Current state of a client, if tracked.
    pub fn state_of(&self, object: ObjectId) -> Option<SessionState> {
        self.records.get(&object).map(|r| r.state)
    }

    /// Largest heartbeat timestamp seen for a client, if tracked (the
    /// eject-slowest victim key).
    pub fn last_heartbeat(&self, object: ObjectId) -> Option<u64> {
        self.records.get(&object).map(|r| r.last_heartbeat)
    }

    /// Registers a heartbeat at `at`: admits unknown clients as fresh
    /// Healthy sessions, revives Dropped ones, and re-arms the lease to
    /// `at + lease` (monotone — a late heartbeat never shortens it).
    pub fn heartbeat(&mut self, object: ObjectId, at: Timestamp) {
        let at_raw = at.raw();
        let deadline = at_raw.saturating_add(self.lease);
        match self.records.get_mut(&object) {
            None => {
                self.records.insert(
                    object,
                    Record { state: SessionState::Healthy, deadline, last_heartbeat: at_raw },
                );
                self.wheel.insert(LeaseEvent { expiry: deadline, object });
                self.healthy += 1;
                self.counters.connects += 1;
                self.events.push(SessionEvent {
                    object,
                    at,
                    transition: SessionTransition::Connected,
                });
            }
            Some(r) => {
                r.last_heartbeat = r.last_heartbeat.max(at_raw);
                if r.state == SessionState::Dropped {
                    r.state = SessionState::Healthy;
                    r.deadline = deadline;
                    self.wheel.insert(LeaseEvent { expiry: deadline, object });
                    self.healthy += 1;
                    self.counters.reconnects += 1;
                    self.events.push(SessionEvent {
                        object,
                        at,
                        transition: SessionTransition::Reconnected,
                    });
                } else if deadline > r.deadline {
                    // Re-arm: the old wheel event goes stale (skipped
                    // when it fires — the deadline no longer matches).
                    r.deadline = deadline;
                    self.wheel.insert(LeaseEvent { expiry: deadline, object });
                }
            }
        }
    }

    /// Advances the lease clock to `now`, applying every due deadline
    /// in canonical `(deadline, object)` order: Healthy sessions drop,
    /// Dropped sessions eject. Stale events (re-armed or already
    /// removed sessions) are skipped. Amortized O(expired).
    pub fn advance(&mut self, now: Timestamp) {
        self.wheel.advance_collect(now.raw());
        let mut fired = self.wheel.take_expired();
        fired.sort_unstable_by_key(|e| e.sort_key());
        for ev in &fired {
            let Some(r) = self.records.get(&ev.object).copied() else {
                continue; // ejected before this stale event fired
            };
            if ev.expiry != r.deadline {
                continue; // re-armed: a fresher deadline supersedes this
            }
            match r.state {
                SessionState::Healthy => {
                    self.healthy -= 1;
                    self.counters.drops += 1;
                    self.events.push(SessionEvent {
                        object: ev.object,
                        at: Timestamp(ev.expiry),
                        transition: SessionTransition::Dropped,
                    });
                    let eject_at = ev.expiry.saturating_add(self.grace);
                    if eject_at <= now.raw() {
                        // Grace already elapsed within this advance.
                        self.records.remove(&ev.object);
                        self.counters.ejections += 1;
                        self.events.push(SessionEvent {
                            object: ev.object,
                            at: Timestamp(eject_at),
                            transition: SessionTransition::Ejected,
                        });
                    } else {
                        let rec = self.records.get_mut(&ev.object).expect("record exists");
                        rec.state = SessionState::Dropped;
                        rec.deadline = eject_at;
                        self.wheel.insert(LeaseEvent { expiry: eject_at, object: ev.object });
                    }
                }
                SessionState::Dropped => {
                    self.records.remove(&ev.object);
                    self.counters.ejections += 1;
                    self.events.push(SessionEvent {
                        object: ev.object,
                        at: Timestamp(ev.expiry),
                        transition: SessionTransition::Ejected,
                    });
                }
                SessionState::Ejected => unreachable!("records never hold Ejected"),
            }
        }
        self.wheel.give_expired(fired);
    }

    /// Forcibly removes a session (admission's eject-slowest policy).
    /// Unknown clients are a no-op. The ejection is stamped `at`.
    pub fn eject_now(&mut self, object: ObjectId, at: Timestamp) {
        let Some(r) = self.records.remove(&object) else { return };
        if r.state == SessionState::Healthy {
            self.healthy -= 1;
        }
        self.counters.ejections += 1;
        self.events.push(SessionEvent { object, at, transition: SessionTransition::Ejected });
        // Its wheel events are now stale: skipped when they fire.
    }

    /// Takes the transitions accumulated since the last drain (the
    /// epoch publish stage moves them into the snapshot).
    pub fn drain_events(&mut self) -> Vec<SessionEvent> {
        std::mem::take(&mut self.events)
    }

    /// Transitions accumulated since the last drain, without taking.
    pub fn pending_events(&self) -> &[SessionEvent] {
        &self.events
    }

    // ---- checkpoint surface -------------------------------------------

    /// Serializes the table as records sorted by object id — a pure
    /// function of the logical session state (stale wheel events are
    /// not serialized), so checkpoint-of-restore is byte-identical.
    pub fn records_vec(&self) -> Vec<SessionRecord> {
        let mut out: Vec<SessionRecord> = self
            .records
            .iter()
            .map(|(&object, r)| SessionRecord {
                object: object.0,
                state: r.state as u64,
                deadline: r.deadline,
                last_heartbeat: r.last_heartbeat,
            })
            .collect();
        out.sort_unstable_by_key(|r| r.object);
        out
    }

    /// Rebuilds a table from a checkpoint section: records are adopted
    /// verbatim and exactly one wheel event per record is scheduled at
    /// its live deadline. Counters are restored by the caller (they
    /// live in the stats record). Undrained events are impossible by
    /// construction — checkpoints are taken at quiescent boundaries,
    /// after the publish stage drained them.
    ///
    /// # Errors
    /// Returns a description when the section is structurally invalid
    /// (unsorted/duplicate objects, bad state encoding) — possible only
    /// for a buggy or hostile producer, since CRC validation happens
    /// before this runs.
    pub fn from_checkpoint_parts(
        lease: u64,
        grace: u64,
        records: Vec<SessionRecord>,
        counters: SessionCounters,
        clock: Timestamp,
    ) -> Result<Self, String> {
        let mut table = SessionTable::new(lease, grace, clock);
        table.counters = counters;
        for pair in records.windows(2) {
            if pair[0].object >= pair[1].object {
                return Err(format!(
                    "session section not sorted by object ({} then {})",
                    pair[0].object, pair[1].object
                ));
            }
        }
        for rec in &records {
            let state = match rec.state {
                0 => SessionState::Healthy,
                1 => SessionState::Dropped,
                other => return Err(format!("session obj{} has state {other}", rec.object)),
            };
            if state == SessionState::Healthy {
                table.healthy += 1;
            }
            let object = ObjectId(rec.object);
            table.records.insert(
                object,
                Record { state, deadline: rec.deadline, last_heartbeat: rec.last_heartbeat },
            );
            table.wheel.insert(LeaseEvent { expiry: rec.deadline, object });
        }
        Ok(table)
    }

    /// Audits structural invariants: the wheel's internal consistency,
    /// the healthy ledger, and that every record's live deadline has a
    /// wheel event backing it.
    pub fn check(&self) -> Result<(), String> {
        self.wheel.check()?;
        let healthy = self.records.values().filter(|r| r.state == SessionState::Healthy).count();
        if healthy != self.healthy {
            return Err(format!("healthy ledger says {}, records hold {healthy}", self.healthy));
        }
        let scheduled: std::collections::HashSet<(u64, u64)> =
            self.wheel.sorted_events().iter().map(|e| (e.expiry, e.object.0)).collect();
        for (object, r) in &self.records {
            if !scheduled.contains(&(r.deadline, object.0)) {
                return Err(format!("session {object} deadline {} has no wheel event", r.deadline));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(lease: u64, grace: u64) -> SessionTable {
        SessionTable::new(lease, grace, Timestamp(0))
    }

    fn transitions(events: &[SessionEvent]) -> Vec<(u64, u64, SessionTransition)> {
        events.iter().map(|e| (e.object.0, e.at.raw(), e.transition)).collect()
    }

    #[test]
    fn heartbeats_keep_a_session_healthy() {
        let mut t = table(10, 5);
        for at in (0..100).step_by(5) {
            t.heartbeat(ObjectId(1), Timestamp(at));
            t.advance(Timestamp(at));
        }
        assert_eq!(t.state_of(ObjectId(1)), Some(SessionState::Healthy));
        assert_eq!(t.healthy_count(), 1);
        assert_eq!(t.counters().connects, 1);
        assert_eq!(t.counters().drops, 0);
        // One Connected event total; re-arms are silent.
        assert_eq!(t.drain_events().len(), 1);
        t.check().unwrap();
    }

    #[test]
    fn lease_then_grace_expire_with_exact_timestamps() {
        let mut t = table(10, 5);
        t.heartbeat(ObjectId(7), Timestamp(3)); // lease ends 13, eject 18
        t.advance(Timestamp(12));
        assert_eq!(t.state_of(ObjectId(7)), Some(SessionState::Healthy));
        t.advance(Timestamp(13));
        assert_eq!(t.state_of(ObjectId(7)), Some(SessionState::Dropped));
        assert_eq!(t.dropped_count(), 1);
        t.advance(Timestamp(17));
        assert_eq!(t.state_of(ObjectId(7)), Some(SessionState::Dropped));
        t.advance(Timestamp(18));
        assert_eq!(t.state_of(ObjectId(7)), None);
        assert_eq!(
            transitions(&t.drain_events()),
            vec![
                (7, 3, SessionTransition::Connected),
                (7, 13, SessionTransition::Dropped),
                (7, 18, SessionTransition::Ejected),
            ]
        );
        let c = t.counters();
        assert_eq!((c.connects, c.drops, c.reconnects, c.ejections), (1, 1, 0, 1));
        t.check().unwrap();
    }

    #[test]
    fn one_coarse_advance_drops_and_ejects_in_one_pass() {
        // The epoch clock can jump far past both deadlines at once; the
        // transitions still carry the logical deadline timestamps.
        let mut t = table(10, 5);
        t.heartbeat(ObjectId(1), Timestamp(0));
        t.advance(Timestamp(1_000));
        assert!(t.is_empty());
        assert_eq!(
            transitions(&t.drain_events())[1..],
            vec![(1, 10, SessionTransition::Dropped), (1, 15, SessionTransition::Ejected)][..]
        );
        t.check().unwrap();
    }

    #[test]
    fn reconnect_within_grace_revives_the_session() {
        let mut t = table(10, 20);
        t.heartbeat(ObjectId(4), Timestamp(0));
        t.advance(Timestamp(10)); // dropped at 10, eject deadline 30
        assert_eq!(t.state_of(ObjectId(4)), Some(SessionState::Dropped));
        t.heartbeat(ObjectId(4), Timestamp(15));
        assert_eq!(t.state_of(ObjectId(4)), Some(SessionState::Healthy));
        assert_eq!(t.counters().reconnects, 1);
        // The stale grace event at 30 must not eject the revived session.
        t.advance(Timestamp(30));
        assert_eq!(t.state_of(ObjectId(4)), Some(SessionState::Dropped), "dropped again at 25");
        assert_eq!(t.counters().ejections, 0);
        t.check().unwrap();
    }

    #[test]
    fn readmission_after_ejection_is_a_fresh_connect() {
        let mut t = table(5, 0);
        t.heartbeat(ObjectId(9), Timestamp(0));
        t.advance(Timestamp(5)); // grace 0: drop + eject in one pass
        assert!(t.is_empty());
        t.heartbeat(ObjectId(9), Timestamp(6));
        assert_eq!(t.counters().connects, 2);
        assert_eq!(t.counters().reconnects, 0);
        assert_eq!(t.state_of(ObjectId(9)), Some(SessionState::Healthy));
        t.check().unwrap();
    }

    #[test]
    fn rearm_makes_old_wheel_events_stale() {
        let mut t = table(10, 5);
        t.heartbeat(ObjectId(2), Timestamp(0)); // deadline 10
        t.heartbeat(ObjectId(2), Timestamp(8)); // deadline 18
        t.advance(Timestamp(10)); // stale event fires, must be skipped
        assert_eq!(t.state_of(ObjectId(2)), Some(SessionState::Healthy));
        assert_eq!(t.counters().drops, 0);
        t.advance(Timestamp(18));
        assert_eq!(t.state_of(ObjectId(2)), Some(SessionState::Dropped));
        t.check().unwrap();
    }

    #[test]
    fn late_heartbeat_never_shortens_the_lease() {
        let mut t = table(10, 5);
        t.heartbeat(ObjectId(3), Timestamp(20)); // deadline 30
        t.heartbeat(ObjectId(3), Timestamp(5)); // out-of-order: no-op
        t.advance(Timestamp(29));
        assert_eq!(t.state_of(ObjectId(3)), Some(SessionState::Healthy));
        assert_eq!(t.last_heartbeat(ObjectId(3)), Some(20));
        t.check().unwrap();
    }

    #[test]
    fn eject_now_removes_and_counts() {
        let mut t = table(10, 5);
        t.heartbeat(ObjectId(1), Timestamp(0));
        t.heartbeat(ObjectId(2), Timestamp(0));
        t.eject_now(ObjectId(1), Timestamp(4));
        assert_eq!(t.len(), 1);
        assert_eq!(t.counters().ejections, 1);
        // Its stale lease event at 10 fires harmlessly.
        t.advance(Timestamp(10));
        assert_eq!(t.counters().ejections, 1);
        assert_eq!(t.state_of(ObjectId(2)), Some(SessionState::Dropped));
        let evs = transitions(&t.drain_events());
        assert!(evs.contains(&(1, 4, SessionTransition::Ejected)));
        t.check().unwrap();
    }

    #[test]
    fn expiries_apply_in_deadline_then_object_order() {
        let mut t = table(10, 100);
        // Same deadline for 3 clients, inserted out of object order.
        for id in [9u64, 1, 5] {
            t.heartbeat(ObjectId(id), Timestamp(0));
        }
        t.heartbeat(ObjectId(3), Timestamp(2)); // later deadline 12
        t.advance(Timestamp(50));
        let evs: Vec<_> = t
            .drain_events()
            .into_iter()
            .filter(|e| e.transition == SessionTransition::Dropped)
            .map(|e| (e.at.raw(), e.object.0))
            .collect();
        assert_eq!(evs, vec![(10, 1), (10, 5), (10, 9), (12, 3)]);
        t.check().unwrap();
    }

    #[test]
    fn checkpoint_roundtrip_continues_identically_and_is_idempotent() {
        let mut t = table(13, 7);
        let mut s = 41u64;
        let mut rand = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            s >> 33
        };
        let mut now = 0u64;
        for _ in 0..400 {
            now += rand() % 4;
            t.advance(Timestamp(now));
            if rand() % 3 != 0 {
                t.heartbeat(ObjectId(rand() % 24), Timestamp(now));
            }
        }
        let _ = t.drain_events();
        let restore = |t: &SessionTable| {
            SessionTable::from_checkpoint_parts(
                t.lease(),
                t.grace(),
                t.records_vec(),
                t.counters(),
                Timestamp(now),
            )
            .unwrap()
        };
        let mut copy = restore(&t);
        copy.check().unwrap();
        assert_eq!(copy.records_vec(), t.records_vec());
        assert_eq!(restore(&copy).records_vec(), t.records_vec(), "restore not idempotent");
        // Both copies must now evolve in lock-step: same events, same
        // records, despite the restored wheel holding no stale events.
        for _ in 0..400 {
            now += rand() % 4;
            t.advance(Timestamp(now));
            copy.advance(Timestamp(now));
            if rand() % 3 != 0 {
                let (id, at) = (ObjectId(rand() % 24), Timestamp(now));
                t.heartbeat(id, at);
                copy.heartbeat(id, at);
            }
            assert_eq!(t.drain_events(), copy.drain_events());
            assert_eq!(t.records_vec(), copy.records_vec());
        }
        t.check().unwrap();
        copy.check().unwrap();
    }

    #[test]
    fn checkpoint_parts_reject_structural_corruption() {
        let rec = |object: u64, state: u64| SessionRecord {
            object,
            state,
            deadline: 100,
            last_heartbeat: 90,
        };
        // Unsorted.
        assert!(SessionTable::from_checkpoint_parts(
            10,
            5,
            vec![rec(2, 0), rec(1, 0)],
            SessionCounters::default(),
            Timestamp(0)
        )
        .is_err());
        // Duplicate.
        assert!(SessionTable::from_checkpoint_parts(
            10,
            5,
            vec![rec(1, 0), rec(1, 1)],
            SessionCounters::default(),
            Timestamp(0)
        )
        .is_err());
        // Bad state encoding (2 = Ejected records must not exist).
        assert!(SessionTable::from_checkpoint_parts(
            10,
            5,
            vec![rec(1, 2)],
            SessionCounters::default(),
            Timestamp(0)
        )
        .is_err());
    }

    #[test]
    fn record_layout_is_padding_free() {
        assert_eq!(std::mem::size_of::<SessionRecord>(), 32);
        assert_eq!(std::mem::align_of::<SessionRecord>(), 8);
    }
}
