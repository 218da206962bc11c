//! In-memory span recording for the traced pass.
//!
//! The benchmark records a span around every call it makes into a
//! layer's public functions — from its own files only; spans inside the
//! program are the ROADMAP ledger's job. A span carries its name,
//! start, end, the span that caused it, and the epoch number, which is
//! the identifier all spans of one epoch share. Spans stay in memory
//! and are written out once, when the benchmark ends. With tracing off
//! `begin`/`end` do nothing, not even read the clock, so the untraced
//! pass measures the program alone.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span. `parent == 0` marks a root.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub epoch: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span recorder. Ids are `(thread << 40) | sequence`, so
/// recorders of different threads merge without collisions.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    thread: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder for `thread` (numbered from 1) whose timestamps count
    /// from `origin`; records only while `on`.
    pub fn new(on: bool, origin: Instant, thread: u64) -> Tracer {
        Tracer { on, origin, thread, spans: Vec::new(), open: Vec::new() }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switches recording; only legal between spans.
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside an open span");
        self.on = on;
    }

    /// Opens a span under the innermost open one.
    #[inline]
    pub fn begin(&mut self, name: &'static str, epoch: u64) {
        if !self.on {
            return;
        }
        let id = (self.thread << 40) | (self.spans.len() as u64 + 1);
        let parent = self.open.last().map_or(0, |&i| self.spans[i].id);
        let now = self.origin.elapsed().as_nanos() as u64;
        self.open.push(self.spans.len());
        self.spans.push(Span { id, parent, name, start_ns: now, end_ns: now, epoch });
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let i = self.open.pop().expect("end without begin");
        self.spans[i].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Closes every open span now (an error path is unwinding).
    pub fn abandon(&mut self) {
        while !self.open.is_empty() {
            self.end();
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        debug_assert!(self.open.is_empty(), "recorder dropped inside an open span");
        self.spans
    }
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTime {
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of span durations minus what their child spans cover.
    pub self_ns: u64,
}

/// A layer's self time is its span's duration minus the part of that
/// interval its child spans cover. Children of one parent never overlap
/// (a recorder nests strictly), so the covered part is the sum of the
/// children's durations clipped to the parent's interval.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let bounds: HashMap<u64, (u64, u64)> =
        spans.iter().map(|s| (s.id, (s.start_ns, s.end_ns))).collect();
    let mut covered: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if let Some(&(ps, pe)) = bounds.get(&s.parent) {
            let clipped = s.end_ns.min(pe).saturating_sub(s.start_ns.max(ps));
            *covered.entry(s.parent).or_insert(0) += clipped;
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        let d = s.duration_ns();
        e.count += 1;
        e.total_ns += d;
        e.self_ns += d.saturating_sub(covered.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Durations (ns) of every span called `name`.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64).collect()
}

/// Writes one JSON object per line: `id`, `parent`, `name`, `start_ns`,
/// `end_ns`, `epoch`.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"epoch\":{}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, s.epoch
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span { id, parent, name, start_ns: start, end_ns: end, epoch: 1 }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = vec![
            span(1, 0, "block", 0, 100),
            span(2, 1, "observe", 10, 40),
            span(3, 1, "process_epoch", 50, 90),
            span(4, 3, "publish", 80, 90),
            // A second block with no children keeps all of its time.
            span(5, 0, "block", 200, 230),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["block"], LayerTime { count: 2, total_ns: 130, self_ns: 60 });
        assert_eq!(t["observe"], LayerTime { count: 1, total_ns: 30, self_ns: 30 });
        assert_eq!(t["process_epoch"], LayerTime { count: 1, total_ns: 40, self_ns: 30 });
        assert_eq!(t["publish"].self_ns, 10);
        // Self times of a tree sum to the roots' durations.
        let self_sum: u64 = t.values().map(|l| l.self_ns).sum();
        assert_eq!(self_sum, 130);
    }

    #[test]
    fn a_child_running_past_its_parent_is_clipped() {
        let spans = vec![span(1, 0, "wait", 0, 50), span(2, 1, "query", 40, 70)];
        let t = layer_times(&spans);
        assert_eq!(t["wait"].self_ns, 40);
        assert_eq!(t["query"].self_ns, 30);
    }

    #[test]
    fn recorder_nests_and_goes_quiet_when_off() {
        let mut tr = Tracer::new(true, Instant::now(), 2);
        tr.begin("outer", 7);
        tr.begin("inner", 7);
        tr.end();
        tr.end();
        tr.set_on(false);
        tr.begin("ignored", 8);
        tr.end();
        let spans = tr.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, 0);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[0].id >> 40, 2);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[1].epoch, 7);
        assert_eq!(durations_ns(&spans, "inner").len(), 1);
    }
}
