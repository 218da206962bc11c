//! Open-loop pacing: requests are due on a fixed schedule whatever the
//! system does, and each is timed from when it was *due*, not from when
//! the generator got round to sending it. A stall therefore charges its
//! wait to every request queued behind it, and the generator's own
//! lateness is reported so a noisy run is recognisable.

use std::time::{Duration, Instant};

/// A fixed-period schedule in nanoseconds from its start.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Schedule {
    period_ns: u64,
}

impl Schedule {
    pub fn per_second(rate: f64) -> Schedule {
        assert!(rate > 0.0, "rate must be positive");
        Schedule { period_ns: (1e9 / rate).round() as u64 }
    }

    /// When request `i` (from 0) is due.
    pub fn due_ns(&self, i: u64) -> u64 {
        i * self.period_ns
    }
}

/// How one paced request is accounted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Paced {
    /// How late the generator sent it (0 when on time or early).
    pub lag_ns: u64,
    /// Completion minus due time: the latency a user on the schedule saw.
    pub latency_ns: u64,
}

/// Accounts a request due at `due_ns`, actually sent at `sent_ns` and
/// completed at `done_ns` (all from the schedule's start).
pub fn account(due_ns: u64, sent_ns: u64, done_ns: u64) -> Paced {
    Paced { lag_ns: sent_ns.saturating_sub(due_ns), latency_ns: done_ns.saturating_sub(due_ns) }
}

/// Sleeps until `due_ns` after `start` (returns at once when already
/// late) and reports the time since `start` on waking.
pub fn wait_until(start: Instant, due_ns: u64) -> u64 {
    let due = Duration::from_nanos(due_ns);
    let now = start.elapsed();
    if now < due {
        std::thread::sleep(due - now);
    }
    start.elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_fixed_whatever_happened_before() {
        let s = Schedule::per_second(100.0);
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(3), 30_000_000);
        assert_eq!(Schedule::per_second(200.0).due_ns(1), 5_000_000);
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_queued_behind_it() {
        // 10 ms period, 1 ms service time; request 1 stalls for 30 ms.
        let s = Schedule::per_second(100.0);
        let service = 1_000_000;
        let mut free_at = 0u64; // when the single connection is free again
        let mut out = Vec::new();
        for i in 0..6u64 {
            let due = s.due_ns(i);
            let sent = due.max(free_at);
            let done = sent + if i == 1 { 30_000_000 } else { service };
            free_at = done;
            out.push(account(due, sent, done));
        }
        // On time before the stall.
        assert_eq!(out[0], Paced { lag_ns: 0, latency_ns: 1_000_000 });
        // The stalled request itself.
        assert_eq!(out[1], Paced { lag_ns: 0, latency_ns: 30_000_000 });
        // Requests 2 and 3 were due at 20 and 30 ms but could only go at
        // 40 and 41 ms: timed from due, they carry the stall's wait.
        assert_eq!(out[2], Paced { lag_ns: 20_000_000, latency_ns: 21_000_000 });
        assert_eq!(out[3], Paced { lag_ns: 11_000_000, latency_ns: 12_000_000 });
        // A closed-loop clock (sent -> done) would have hidden it.
        assert_eq!(out[4], Paced { lag_ns: 2_000_000, latency_ns: 3_000_000 });
        assert_eq!(out[5], Paced { lag_ns: 0, latency_ns: 1_000_000 });
    }

    #[test]
    fn wait_until_returns_at_once_when_late() {
        let start = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        let woke = wait_until(start, 1_000_000);
        assert!(woke >= 2_000_000);
        let woke = wait_until(start, 5_000_000);
        assert!(woke >= 5_000_000);
    }
}
