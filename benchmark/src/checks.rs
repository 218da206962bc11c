//! Output checks, run on every rep and fatal on mismatch.
//!
//! 1. Every endpoint response answers exactly one state of its epoch:
//!    same object, the state's exit time, endpoint inside the state's
//!    FSA; and every state gets its response.
//! 2. Every published top-k is ordered by (hotness desc, length desc,
//!    id asc).
//! 3. Every published top-k hotness equals a brute-force recount of the
//!    response crossings of that path inside the window. The boundary
//!    rule is the repository's `SlidingWindow::is_live` — a crossing
//!    that exited at `te` counts at publish time `now` iff
//!    `now < te + W`, it expires exactly when the clock reaches
//!    `te + W` — **plus one case where the program differs from that
//!    definition**: a crossing recorded when its window has already
//!    passed (`te + W <= now`; a client working through a backlog of
//!    buffered measurements, one report per epoch, can lag that far)
//!    is still counted in the snapshot of the epoch that recorded it,
//!    because its expiry event only fires at the next clock advance.
//!    The recount follows the program: `now < te + W || recorded == now`.
//! 4. Fingerprints of the published sequence agree across reps (see
//!    [`Fingerprint`]).

use std::collections::HashMap;

use crate::sut::{self, ClientState, EndpointResponse, PathKey, Published};

/// Keeps at most this many messages; the count keeps running.
const MAX_MESSAGES: usize = 8;

/// FNV-1a over the published sequence: equal fingerprints mean equal
/// outputs, bit for bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint(pub u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn published(&mut self, p: &Published) {
        for w in [p.epoch, p.timestamp, p.index_size, p.hot_count, p.top_k_score.to_bits()] {
            self.word(w);
        }
        for e in &p.top {
            self.word(e.id);
            self.word(u64::from(e.hotness));
            for k in [e.key.0, e.key.1, e.key.2, e.key.3] {
                self.word(k as u64);
            }
        }
    }
}

/// The running checker of one rep.
#[derive(Debug)]
pub struct Checker {
    grain: f64,
    window: u64,
    n: usize,
    /// `(te, recorded)` of every crossing still possibly counted: its
    /// exit time, and the boundary timestamp of the epoch that
    /// recorded it.
    crossings: HashMap<PathKey, Vec<(u64, u64)>>,
    /// Crossings recorded with their window already passed.
    pub late_crossings: u64,
    /// Scratch: object -> position of its state in the epoch's batch.
    slot: Vec<u32>,
    pub violations: u64,
    pub messages: Vec<String>,
    /// States that never got a response (counted as failed operations).
    pub unanswered: u64,
}

impl Checker {
    pub fn new(n: usize, window: u64) -> Checker {
        Checker {
            grain: sut::default_config().vertex_grain,
            window,
            n,
            crossings: HashMap::new(),
            late_crossings: 0,
            slot: vec![u32::MAX; n],
            violations: 0,
            messages: Vec::new(),
            unanswered: 0,
        }
    }

    /// Records a violation (the count keeps running past the cap on
    /// kept messages).
    pub fn fail(&mut self, msg: String) {
        self.violations += 1;
        if self.messages.len() < MAX_MESSAGES {
            self.messages.push(msg);
        }
    }

    /// Checks the responses of the epoch ending at timestamp `now`
    /// against the states the epoch ingested, and logs the crossings
    /// they commit.
    pub fn responses(
        &mut self,
        epoch: u64,
        now: u64,
        states: &[ClientState],
        responses: &[EndpointResponse],
    ) {
        for (i, s) in states.iter().enumerate() {
            let obj = sut::reporter(s);
            if obj >= self.n || self.slot[obj] != u32::MAX {
                self.fail(format!("epoch {epoch}: object {obj} reported twice or is unknown"));
                continue;
            }
            self.slot[obj] = i as u32;
        }
        let mut answered = 0u64;
        for r in responses {
            let obj = sut::addressee(r);
            let at = if obj < self.n { self.slot[obj] } else { u32::MAX };
            if at == u32::MAX {
                self.fail(format!("epoch {epoch}: response to object {obj}, which sent no state"));
                continue;
            }
            let s = &states[at as usize];
            self.slot[obj] = u32::MAX;
            answered += 1;
            if !sut::answers(r, s) {
                self.fail(format!("epoch {epoch}: endpoint for object {obj} is outside its FSA"));
            }
            let (key, te) = sut::crossing(s, r, self.grain);
            self.crossings.entry(key).or_default().push((te, now));
            self.late_crossings += u64::from(te + self.window <= now);
        }
        let missing = states.len() as u64 - answered.min(states.len() as u64);
        if missing > 0 {
            self.unanswered += missing;
            self.fail(format!("epoch {epoch}: {missing} state(s) without a response"));
            for s in states {
                self.slot[sut::reporter(s)] = u32::MAX;
            }
        }
    }

    /// Whether a crossing counts at publish time `now` (module docs).
    fn counts(&self, (te, recorded): (u64, u64), now: u64) -> bool {
        now < te + self.window || recorded == now
    }

    /// Crossings of `key` the program counts at publish time `now`.
    fn recount(&self, key: &PathKey, now: u64) -> u32 {
        self.crossings.get(key).map_or(0, |t| t.iter().filter(|&&c| self.counts(c, now)).count())
            as u32
    }

    /// Checks one published snapshot: top-k order, and hotness against
    /// the brute-force recount.
    pub fn published(&mut self, p: &Published) {
        if let Err(msg) = top_k_ordered(p) {
            self.fail(msg);
        }
        for e in &p.top {
            let recount = self.recount(&e.key, p.timestamp);
            if recount != e.hotness {
                self.fail(format!(
                    "epoch {}: path {} published hotness {} but {} crossing(s) are inside the window",
                    p.epoch, e.id, e.hotness, recount
                ));
            }
        }
        // Keep the log bounded: drop what can never count again.
        if p.epoch.is_multiple_of(10) {
            let (now, w) = (p.timestamp, self.window);
            self.crossings.retain(|_, t| {
                t.retain(|&(te, _)| now < te + w);
                !t.is_empty()
            });
        }
    }
}

/// The published order: hotness descending, then length descending,
/// then id ascending.
pub fn top_k_ordered(p: &Published) -> Result<(), String> {
    for pair in p.top.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        let in_order = b
            .hotness
            .cmp(&a.hotness)
            .then_with(|| b.length.total_cmp(&a.length))
            .then_with(|| a.id.cmp(&b.id))
            .is_lt();
        if !in_order {
            return Err(format!(
                "epoch {}: top-k out of order at paths {} (hotness {}, length {}) and {} ({}, {})",
                p.epoch, a.id, a.hotness, a.length, b.id, b.hotness, b.length
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sut::TopEntry;

    fn entry(id: u64, hotness: u32, length: f64) -> TopEntry {
        TopEntry { id, key: (id as i64, 0, 0, 0), hotness, length, score: hotness as f64 * length }
    }

    fn published(top: Vec<TopEntry>) -> Published {
        Published { epoch: 3, timestamp: 30, index_size: 9, hot_count: 4, top_k_score: 1.0, top }
    }

    #[test]
    fn order_is_hotness_then_length_then_id() {
        assert!(top_k_ordered(&published(vec![
            entry(5, 9, 10.0),
            entry(2, 7, 30.0),
            entry(3, 7, 20.0),
            entry(1, 7, 20.0 - 1e-9),
            entry(4, 1, 99.0),
        ]))
        .is_ok());
        // Equal hotness and length: the lower id comes first.
        assert!(top_k_ordered(&published(vec![entry(1, 7, 20.0), entry(3, 7, 20.0)])).is_ok());
        assert!(top_k_ordered(&published(vec![entry(3, 7, 20.0), entry(1, 7, 20.0)])).is_err());
        assert!(top_k_ordered(&published(vec![entry(1, 6, 20.0), entry(2, 7, 20.0)])).is_err());
        assert!(top_k_ordered(&published(vec![entry(1, 7, 10.0), entry(2, 7, 20.0)])).is_err());
        // A duplicate id is never in order.
        assert!(top_k_ordered(&published(vec![entry(1, 7, 20.0), entry(1, 7, 20.0)])).is_err());
    }

    #[test]
    fn fingerprint_tells_outputs_apart() {
        let mut a = Fingerprint::default();
        let mut b = Fingerprint::default();
        a.published(&published(vec![entry(1, 7, 20.0)]));
        b.published(&published(vec![entry(1, 7, 20.0)]));
        assert_eq!(a, b);
        b.published(&published(vec![]));
        assert_ne!(a, b);
        let mut c = Fingerprint::default();
        c.published(&published(vec![entry(1, 8, 20.0)]));
        assert_ne!(a, c);
    }

    #[test]
    fn a_well_formed_epoch_passes_and_its_crossings_are_recounted() {
        use crate::sut::testing::{response, state};
        let mut c = Checker::new(4, 100);
        // Objects 0 and 2 cross the same path; object 1 another one.
        let states = [
            state(0, (0.0, 0.0), (50.0, 0.0), 5.0, 8),
            state(1, (0.0, 0.0), (0.0, 50.0), 5.0, 9),
            state(2, (0.0, 0.0), (50.0, 0.0), 5.0, 7),
        ];
        // Responses need not come in batch order.
        let responses =
            [response(1, (0.0, 50.0), 9), response(0, (50.0, 1.0), 8), response(2, (50.0, 1.0), 7)];
        c.responses(1, 10, &states, &responses);
        assert_eq!((c.violations, c.unanswered), (0, 0), "{:?}", c.messages);
        let (shared, _) =
            sut::crossing(&states[0], &responses[1], sut::default_config().vertex_grain);
        assert_eq!(c.recount(&shared, 10), 2);
        let mut top = entry(1, 2, 50.0);
        top.key = shared;
        let mut p = published(vec![top]);
        p.timestamp = 10;
        c.published(&p);
        assert_eq!(c.violations, 0, "{:?}", c.messages);
        // The same objects may report again next epoch.
        c.responses(2, 20, &states[..1], &responses[1..2]);
        assert_eq!(c.violations, 0, "{:?}", c.messages);
    }

    #[test]
    fn wrong_outputs_are_caught() {
        use crate::sut::testing::{response, state};
        let s0 = state(0, (0.0, 0.0), (50.0, 0.0), 5.0, 8);
        let s1 = state(1, (0.0, 0.0), (0.0, 50.0), 5.0, 9);

        // An endpoint outside the state's FSA.
        let mut c = Checker::new(4, 100);
        c.responses(1, 10, &[s0], &[response(0, (56.0, 0.0), 8)]);
        assert_eq!(c.violations, 1);
        // The wrong exit time.
        let mut c = Checker::new(4, 100);
        c.responses(1, 10, &[s0], &[response(0, (50.0, 0.0), 7)]);
        assert_eq!(c.violations, 1);
        // A state without a response is a failed operation.
        let mut c = Checker::new(4, 100);
        c.responses(1, 10, &[s0, s1], &[response(1, (0.0, 50.0), 9)]);
        assert_eq!((c.violations, c.unanswered), (1, 1));
        // ...and does not poison the next epoch.
        c.responses(2, 20, &[s0], &[response(0, (50.0, 0.0), 8)]);
        assert_eq!((c.violations, c.unanswered), (1, 1), "{:?}", c.messages);
        // A response nobody asked for; an unknown object.
        let mut c = Checker::new(4, 100);
        c.responses(1, 10, &[s0], &[response(0, (50.0, 0.0), 8), response(3, (1.0, 1.0), 8)]);
        assert_eq!(c.violations, 1);
        c.responses(2, 20, &[], &[response(9, (1.0, 1.0), 8)]);
        assert_eq!(c.violations, 2);
        // One object reporting twice in an epoch.
        let mut c = Checker::new(4, 100);
        c.responses(1, 10, &[s0, s0], &[response(0, (50.0, 0.0), 8)]);
        assert!(c.violations >= 1);
    }

    #[test]
    fn recount_uses_the_half_open_window() {
        let mut c = Checker::new(4, 100);
        c.crossings.insert((1, 0, 0, 0), vec![(10, 10), (20, 20), (30, 30)]);
        // At now = 110 the crossing that exited at 10 has just expired.
        assert_eq!(c.recount(&(1, 0, 0, 0), 109), 3);
        assert_eq!(c.recount(&(1, 0, 0, 0), 110), 2);
        assert_eq!(c.recount(&(9, 9, 9, 9), 50), 0);
        let mut p = published(vec![entry(1, 2, 5.0)]);
        p.timestamp = 110;
        p.epoch = 10;
        c.published(&p);
        assert_eq!(c.violations, 0, "{:?}", c.messages);
        assert_eq!(
            c.crossings[&(1, 0, 0, 0)],
            vec![(20, 20), (30, 30)],
            "expired exits are pruned"
        );
        p.top[0].hotness = 3;
        c.published(&p);
        assert_eq!(c.violations, 1);
    }

    #[test]
    fn a_crossing_recorded_past_its_window_counts_for_that_one_snapshot() {
        use crate::sut::testing::{response, state};
        let mut c = Checker::new(2, 100);
        // A client 103 ticks behind: exited at 7, recorded at boundary 110.
        let late = state(0, (0.0, 0.0), (50.0, 0.0), 5.0, 7);
        let answer = response(0, (50.0, 0.0), 7);
        c.responses(11, 110, &[late], &[answer]);
        assert_eq!(c.late_crossings, 1);
        let (key, _) = sut::crossing(&late, &answer, sut::default_config().vertex_grain);
        assert_eq!(c.recount(&key, 110), 1, "counted by the snapshot that recorded it");
        assert_eq!(c.recount(&key, 120), 0, "gone at the next boundary");
        // An in-window crossing recorded at the same boundary lives on.
        let fresh = state(1, (0.0, 0.0), (50.0, 0.0), 5.0, 105);
        c.responses(11, 110, &[fresh], &[response(1, (50.0, 0.0), 105)]);
        assert_eq!((c.recount(&key, 110), c.recount(&key, 120), c.recount(&key, 205)), (2, 1, 0));
        assert_eq!(c.late_crossings, 1);
    }
}
