//! Checkpoints: the coordinator's logical state, and one byte codec for
//! it.
//!
//! A [`CoordinatorImage`] is everything a restart needs (Section 5): the
//! counters, the configuration echo, the pending batch, the stored
//! paths sorted by id and one sliding-window expiry event per unexpired
//! crossing, sorted by `(expiry, id)`. Both orders are canonical, so an
//! image is a function of the coordinator's logical state, not of its
//! slab or wheel layout, and `image(from_image(image)) == image`.
//! [`Coordinator::image`](crate::coordinator::Coordinator::image) builds
//! one and
//! [`Coordinator::from_image`](crate::coordinator::Coordinator::from_image)
//! adopts one, validating its structure.
//!
//! A [`Checkpoint`] is an image plus its bytes. The encoding is a run of
//! little-endian 8-byte words in a fixed order — the scalars, then each
//! of the pending, paths and events lists as a count followed by its
//! records — with no header, version or checksum: images are made and
//! consumed in one process. [`Checkpoint::from_bytes`] accepts exactly
//! the strings [`Checkpoint::new`] can produce and reports anything
//! else as a typed [`CheckpointError`], never a panic.

use crate::config::{Admission, Config, Tolerance};
use crate::geometry::{Point, Rect, Segment};
use crate::index::ExpiryEvent;
use crate::motion_path::{MotionPath, PathId};
use crate::raytrace::ClientState;
use crate::stats::{AdmissionStats, CommStats, ProcessingStats};
use crate::time::{EpochClock, SlidingWindow, Timestamp};
use crate::ObjectId;
use std::fmt;
use std::time::Duration;

/// Typed failure of checkpoint decoding or adoption.
#[derive(Debug)]
pub enum CheckpointError {
    /// The bytes end before the structure they promise.
    Truncated {
        /// Bytes the structure needs.
        needed: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The image is not one a coordinator could have produced (trailing
    /// bytes, an unknown tolerance kind, ids out of order, an event
    /// without its path, ...).
    Malformed(String),
    /// The image's configuration differs from the one the restoring
    /// coordinator was asked to run.
    ConfigMismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated { needed, got } => {
                write!(f, "checkpoint truncated: need {needed} bytes, have {got}")
            }
            CheckpointError::Malformed(msg) => write!(f, "malformed checkpoint: {msg}"),
            CheckpointError::ConfigMismatch(msg) => {
                write!(f, "checkpoint configuration mismatch: {msg}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// The coordinator's logical state. The epoch count is
/// `processing.epochs`; wall-clock durations ride along as diagnostics
/// and are never part of parity comparisons.
#[derive(Clone, Debug)]
pub struct CoordinatorImage {
    /// The coordinator clock when the image was taken.
    pub clock: Timestamp,
    /// The path table's id counter: the id the next created path gets.
    pub next_path_id: u64,
    /// The configuration the image was taken under.
    pub config: Config,
    /// Communication counters.
    pub comm: CommStats,
    /// Processing counters, the epoch count among them.
    pub processing: ProcessingStats,
    /// Admission counters.
    pub admission: AdmissionStats,
    /// Crossings ever recorded by the path table.
    pub recorded: u64,
    /// The pending batch, in submission order.
    pub pending: Vec<ClientState>,
    /// Every stored path, sorted by id.
    pub paths: Vec<MotionPath>,
    /// Every pending expiry event, sorted by `(expiry, id)`: one per
    /// unexpired crossing, so a path's hotness is its number of events.
    pub events: Vec<ExpiryEvent>,
}

impl CoordinatorImage {
    /// Epochs processed when the image was taken.
    pub fn epoch(&self) -> u64 {
        self.processing.epochs
    }
}

/// An image and its encoding: what an engine checkpoint hands out and a
/// restore takes back.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    image: CoordinatorImage,
    bytes: Vec<u8>,
}

impl Checkpoint {
    /// Encodes `image`.
    pub fn new(image: CoordinatorImage) -> Self {
        let bytes = encode(&image);
        Checkpoint { image, bytes }
    }

    /// Decodes a byte image.
    ///
    /// # Errors
    /// [`CheckpointError::Truncated`] when the bytes end early or a count
    /// promises more records than follow, and
    /// [`CheckpointError::Malformed`] on trailing bytes, an unknown
    /// tolerance kind or an FSA with its corners out of order. The
    /// structure of the decoded state is checked when a coordinator
    /// adopts it.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, CheckpointError> {
        let image = decode(&bytes)?;
        Ok(Checkpoint { image, bytes })
    }

    /// The decoded state.
    pub fn image(&self) -> &CoordinatorImage {
        &self.image
    }

    /// The encoding.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

// ---------------------------------------------------------------------
// The codec
// ---------------------------------------------------------------------

/// Words before the first list: the epoch, clock and id counter, 9
/// config fields and 11 counters.
const SCALAR_WORDS: usize = 23;
/// Words per pending state, stored path and expiry event.
const STATE_WORDS: usize = 9;
const PATH_WORDS: usize = 5;
const EVENT_WORDS: usize = 2;

fn put(out: &mut Vec<u8>, words: impl IntoIterator<Item = u64>) {
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

fn encode(image: &CoordinatorImage) -> Vec<u8> {
    let CoordinatorImage { config: c, processing: p, .. } = image;
    // The scalars, then each list's count and records.
    let words = SCALAR_WORDS
        + 3
        + image.pending.len() * STATE_WORDS
        + image.paths.len() * PATH_WORDS
        + image.events.len() * EVENT_WORDS;
    let mut out = Vec::with_capacity(words * 8);
    let (kind, delta) = match c.tolerance {
        Tolerance::Crisp { .. } => (0, 0.0),
        Tolerance::Uncertain { delta, .. } => (1, delta),
    };
    put(&mut out, [p.epochs, image.clock.raw(), image.next_path_id]);
    put(
        &mut out,
        [
            kind,
            c.tolerance.eps().to_bits(),
            delta.to_bits(),
            c.window.len,
            c.epochs.lambda,
            c.k as u64,
            c.vertex_grain.to_bits(),
            c.admission.queue_cap as u64,
            c.admission.degrade_threshold as u64,
        ],
    );
    put(
        &mut out,
        [
            image.comm.uplink_msgs,
            p.states_processed,
            nanos(p.strategy_time),
            nanos(p.expiry_time),
            nanos(p.publish_time),
            p.case1,
            p.case2,
            p.case3,
            image.admission.ejected,
            image.admission.degraded_epochs,
            image.recorded,
        ],
    );
    put(&mut out, [image.pending.len() as u64]);
    for s in &image.pending {
        let (lo, hi) = (s.fsa.lo(), s.fsa.hi());
        put(
            &mut out,
            [
                s.object.0,
                s.start.x.to_bits(),
                s.start.y.to_bits(),
                s.ts.raw(),
                lo.x.to_bits(),
                lo.y.to_bits(),
                hi.x.to_bits(),
                hi.y.to_bits(),
                s.te.raw(),
            ],
        );
    }
    put(&mut out, [image.paths.len() as u64]);
    for path in &image.paths {
        let Segment { a, b } = path.seg;
        put(&mut out, [path.id.0, a.x.to_bits(), a.y.to_bits(), b.x.to_bits(), b.y.to_bits()]);
    }
    put(&mut out, [image.events.len() as u64]);
    for e in &image.events {
        put(&mut out, [e.expiry.raw(), e.id.0]);
    }
    out
}

/// A cursor over an encoding's words.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    fn u64(&mut self) -> Result<u64, CheckpointError> {
        let end = self.at + 8;
        let word: [u8; 8] = self
            .bytes
            .get(self.at..end)
            .and_then(|w| w.try_into().ok())
            .ok_or(CheckpointError::Truncated { needed: end, got: self.bytes.len() })?;
        self.at = end;
        Ok(u64::from_le_bytes(word))
    }

    fn usize(&mut self) -> Result<usize, CheckpointError> {
        let w = self.u64()?;
        usize::try_from(w).map_err(|_| CheckpointError::Malformed(format!("{w} overflows usize")))
    }

    fn f64(&mut self) -> Result<f64, CheckpointError> {
        self.u64().map(f64::from_bits)
    }

    /// Built field by field, not by [`Point::new`]: a decoded point may
    /// be non-finite, which adoption then refuses where it matters.
    fn point(&mut self) -> Result<Point, CheckpointError> {
        Ok(Point { x: self.f64()?, y: self.f64()? })
    }

    /// A list's record count, refused before anything is allocated when
    /// its records of `words` words each would overrun the bytes left.
    fn count(&mut self, words: usize) -> Result<usize, CheckpointError> {
        let n = self.u64()?;
        let needed = usize::try_from(n)
            .ok()
            .and_then(|n| n.checked_mul(words * 8))
            .and_then(|len| len.checked_add(self.at))
            .unwrap_or(usize::MAX);
        if needed > self.bytes.len() {
            return Err(CheckpointError::Truncated { needed, got: self.bytes.len() });
        }
        Ok(n as usize)
    }

    fn state(&mut self) -> Result<ClientState, CheckpointError> {
        let (object, start, ts) = (ObjectId(self.u64()?), self.point()?, Timestamp(self.u64()?));
        let (lo, hi) = (self.point()?, self.point()?);
        if !(lo.x <= hi.x && lo.y <= hi.y) {
            return Err(CheckpointError::Malformed(format!(
                "pending FSA corners out of order: {lo:?} {hi:?}"
            )));
        }
        Ok(ClientState { object, start, ts, fsa: Rect::new(lo, hi), te: Timestamp(self.u64()?) })
    }
}

fn decode(bytes: &[u8]) -> Result<CoordinatorImage, CheckpointError> {
    let mut r = Reader { bytes, at: 0 };
    let (epochs, clock, next_path_id) = (r.u64()?, Timestamp(r.u64()?), r.u64()?);
    let (kind, eps, delta) = (r.u64()?, r.f64()?, r.f64()?);
    let tolerance = match kind {
        0 if delta.to_bits() == 0 => Tolerance::Crisp { eps },
        1 => Tolerance::Uncertain { eps, delta },
        _ => {
            return Err(CheckpointError::Malformed(format!(
                "tolerance kind {kind} with delta {delta}"
            )))
        }
    };
    let config = Config {
        tolerance,
        window: SlidingWindow { len: r.u64()? },
        epochs: EpochClock { lambda: r.u64()? },
        k: r.usize()?,
        vertex_grain: r.f64()?,
        admission: Admission { queue_cap: r.usize()?, degrade_threshold: r.usize()? },
    };
    let comm = CommStats { uplink_msgs: r.u64()? };
    let processing = ProcessingStats {
        epochs,
        states_processed: r.u64()?,
        strategy_time: Duration::from_nanos(r.u64()?),
        expiry_time: Duration::from_nanos(r.u64()?),
        publish_time: Duration::from_nanos(r.u64()?),
        case1: r.u64()?,
        case2: r.u64()?,
        case3: r.u64()?,
    };
    let admission = AdmissionStats { ejected: r.u64()?, degraded_epochs: r.u64()? };
    let recorded = r.u64()?;

    let mut pending = Vec::with_capacity(r.count(STATE_WORDS)?);
    for _ in 0..pending.capacity() {
        pending.push(r.state()?);
    }
    let mut paths = Vec::with_capacity(r.count(PATH_WORDS)?);
    for _ in 0..paths.capacity() {
        let id = PathId(r.u64()?);
        paths.push(MotionPath { id, seg: Segment { a: r.point()?, b: r.point()? } });
    }
    let mut events = Vec::with_capacity(r.count(EVENT_WORDS)?);
    for _ in 0..events.capacity() {
        events.push(ExpiryEvent { expiry: Timestamp(r.u64()?), id: PathId(r.u64()?) });
    }
    if r.at != bytes.len() {
        return Err(CheckpointError::Malformed(format!(
            "{} trailing bytes after the last event",
            bytes.len() - r.at
        )));
    }
    Ok(CoordinatorImage {
        clock,
        next_path_id,
        config,
        comm,
        processing,
        admission,
        recorded,
        pending,
        paths,
        events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::Coordinator;

    /// A small image with every list non-empty.
    fn sample() -> Checkpoint {
        let config = Config::builder().k(4).admission_cap(50).build().unwrap();
        let mut c = Coordinator::new(config);
        let state = |obj: u64, te: u64| ClientState {
            object: ObjectId(obj),
            start: Point::new(0.0, obj as f64 * 300.0),
            ts: Timestamp(te - 5),
            fsa: Rect::tolerance_square(Point::new(50.0, obj as f64 * 300.0), 2.0),
            te: Timestamp(te),
        };
        c.submit_batch((0..3).map(|o| state(o, 8)));
        let _ = c.process_epoch(Timestamp(10));
        c.submit(state(7, 15));
        Checkpoint::new(c.image())
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let ck = sample();
        let back = Checkpoint::from_bytes(ck.as_bytes().to_vec()).unwrap();
        let (a, b) = (ck.image(), back.image());
        assert_eq!(back.as_bytes(), ck.as_bytes());
        assert_eq!((a.epoch(), a.clock, a.next_path_id, a.recorded), (1, Timestamp(10), 3, 3));
        assert_eq!((b.epoch(), b.clock, b.next_path_id, b.recorded), (1, Timestamp(10), 3, 3));
        assert_eq!(b.config, a.config);
        assert_eq!((b.comm, b.admission), (a.comm, a.admission));
        assert_eq!(b.processing.case3, 3);
        assert_eq!(b.pending, a.pending);
        assert_eq!(b.paths, a.paths);
        assert_eq!(b.events, a.events);
        assert_eq!(Checkpoint::new(b.clone()).as_bytes(), ck.as_bytes());
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let full = sample().as_bytes().to_vec();
        for cut in 0..full.len() {
            let err = Checkpoint::from_bytes(full[..cut].to_vec()).unwrap_err();
            assert!(matches!(err, CheckpointError::Truncated { .. }), "cut at {cut}: {err:?}");
        }
    }

    #[test]
    fn config_mismatch_is_typed() {
        let image = sample().image().clone();
        let other = Config::builder().k(99).build().unwrap();
        assert!(matches!(
            Coordinator::from_image(other, &image),
            Err(CheckpointError::ConfigMismatch(_))
        ));
    }
}
