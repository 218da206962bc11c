//! The out-of-process wire protocol and unix-socket transport.
//!
//! Frames are `u32` little-endian length prefixes followed by a 1-byte
//! opcode and a fixed-layout payload — no self-describing serialization,
//! every field at a known offset, every frame bounded. Three requests:
//!
//! | opcode | payload | reply |
//! |---|---|---|
//! | [`OP_QUERY`] | empty | [`OP_SNAPSHOT`] + [`SnapshotWire`] |
//! | [`OP_SUBMIT_BATCH`] | `n x 72`-byte [`ClientState`]s | [`OP_ACK`] + accepted count |
//! | [`OP_ADVANCE`] | `u64` timestamp | [`OP_ACK`] + `0` |
//!
//! The server side ([`serve_unix`]) registers one lock-free
//! [`SnapshotHandle`](hotpath_core::snapshot::SnapshotHandle) per
//! connection: queries never touch the engine, they read the cell the
//! writer thread publishes into. Submissions and advances are forwarded
//! onto the writer channel and acknowledged as accepted (open loop —
//! the ack means *enqueued*, not *processed*).

use std::io::{self, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};

use hotpath_core::coordinator::HotSnapshot;
use hotpath_core::geometry::{Point, Rect};
use hotpath_core::raytrace::ClientState;
use hotpath_core::snapshot::SnapshotCell;
use hotpath_core::time::Timestamp;
use hotpath_core::ObjectId;

use crate::server::{ServerHandle, ServerMsg};

/// Query the latest published snapshot.
pub const OP_QUERY: u8 = 0x01;
/// Submit a batch of client states.
pub const OP_SUBMIT_BATCH: u8 = 0x02;
/// Advance the server clock.
pub const OP_ADVANCE: u8 = 0x03;
/// Reply: request accepted; payload is the accepted count (`u32`).
pub const OP_ACK: u8 = 0x80;
/// Reply: an encoded [`SnapshotWire`].
pub const OP_SNAPSHOT: u8 = 0x81;

/// Wire size of one [`ClientState`] (matches `ClientState::WIRE_BYTES`).
pub const STATE_WIRE_BYTES: usize = 72;
/// Largest batch a single frame may carry.
pub const MAX_BATCH: usize = 4096;
/// Top-k entries a snapshot reply is truncated to.
pub const MAX_TOPK: usize = 64;
/// Upper bound on any frame body (opcode + payload).
pub const MAX_FRAME_BYTES: usize = 1 + MAX_BATCH * STATE_WIRE_BYTES;

/// One top-k entry as serialized: identity, geometry, and scores.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TopEntryWire {
    /// Path id within the coordinator index.
    pub id: u64,
    /// Segment start `(x, y)` in meters.
    pub a: (f64, f64),
    /// Segment end `(x, y)` in meters.
    pub b: (f64, f64),
    /// Crossings within the window.
    pub hotness: u32,
    /// `hotness x length` score.
    pub score: f64,
}

const TOP_ENTRY_BYTES: usize = 8 + 4 * 8 + 4 + 8;

/// The bounded serialized form of a [`HotSnapshot`]: the scalar summary
/// plus at most [`MAX_TOPK`] top-k entries.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotWire {
    /// Epochs processed at publish time.
    pub epoch: u64,
    /// Publish-time clock value.
    pub timestamp: Timestamp,
    /// Top-k set score.
    pub top_k_score: f64,
    /// Paths with positive hotness.
    pub hot_count: u64,
    /// Paths stored in the index.
    pub index_size: u64,
    /// The hottest paths, hottest first, truncated to [`MAX_TOPK`].
    pub top: Vec<TopEntryWire>,
}

impl SnapshotWire {
    /// Projects a published snapshot onto the wire form.
    pub fn from_snapshot(snap: &HotSnapshot) -> SnapshotWire {
        SnapshotWire {
            epoch: snap.epoch,
            timestamp: snap.timestamp,
            top_k_score: snap.top_k_score,
            hot_count: snap.hot_count as u64,
            index_size: snap.index_size as u64,
            top: snap
                .top_k
                .iter()
                .take(MAX_TOPK)
                .map(|hp| TopEntryWire {
                    id: hp.path.id.0,
                    a: (hp.path.seg.a.x, hp.path.seg.a.y),
                    b: (hp.path.seg.b.x, hp.path.seg.b.y),
                    hotness: hp.hotness,
                    score: hp.score,
                })
                .collect(),
        }
    }

    /// Serializes to the fixed layout.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(44 + self.top.len() * TOP_ENTRY_BYTES);
        buf.extend_from_slice(&self.epoch.to_le_bytes());
        buf.extend_from_slice(&self.timestamp.0.to_le_bytes());
        buf.extend_from_slice(&self.top_k_score.to_le_bytes());
        buf.extend_from_slice(&self.hot_count.to_le_bytes());
        buf.extend_from_slice(&self.index_size.to_le_bytes());
        buf.extend_from_slice(&(self.top.len() as u32).to_le_bytes());
        for e in &self.top {
            buf.extend_from_slice(&e.id.to_le_bytes());
            buf.extend_from_slice(&e.a.0.to_le_bytes());
            buf.extend_from_slice(&e.a.1.to_le_bytes());
            buf.extend_from_slice(&e.b.0.to_le_bytes());
            buf.extend_from_slice(&e.b.1.to_le_bytes());
            buf.extend_from_slice(&e.hotness.to_le_bytes());
            buf.extend_from_slice(&e.score.to_le_bytes());
        }
        buf
    }

    /// Parses the fixed layout back; rejects truncated or oversized
    /// payloads.
    pub fn decode(buf: &[u8]) -> io::Result<SnapshotWire> {
        let mut c = Cursor::new(buf);
        let epoch = c.u64()?;
        let timestamp = Timestamp(c.u64()?);
        let top_k_score = c.f64()?;
        let hot_count = c.u64()?;
        let index_size = c.u64()?;
        let n = c.u32()? as usize;
        if n > MAX_TOPK {
            return Err(invalid(format!("top-k length {n} exceeds {MAX_TOPK}")));
        }
        let mut top = Vec::with_capacity(n);
        for _ in 0..n {
            top.push(TopEntryWire {
                id: c.u64()?,
                a: (c.f64()?, c.f64()?),
                b: (c.f64()?, c.f64()?),
                hotness: c.u32()?,
                score: c.f64()?,
            });
        }
        c.done()?;
        Ok(SnapshotWire { epoch, timestamp, top_k_score, hot_count, index_size, top })
    }
}

/// Serializes one client state into its 72-byte wire layout.
pub fn encode_state(s: &ClientState, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&s.object.0.to_le_bytes());
    buf.extend_from_slice(&s.start.x.to_le_bytes());
    buf.extend_from_slice(&s.start.y.to_le_bytes());
    buf.extend_from_slice(&s.ts.0.to_le_bytes());
    buf.extend_from_slice(&s.fsa.lo().x.to_le_bytes());
    buf.extend_from_slice(&s.fsa.lo().y.to_le_bytes());
    buf.extend_from_slice(&s.fsa.hi().x.to_le_bytes());
    buf.extend_from_slice(&s.fsa.hi().y.to_le_bytes());
    buf.extend_from_slice(&s.te.0.to_le_bytes());
}

/// Parses one 72-byte client state; rejects malformed rectangles.
pub fn decode_state(buf: &[u8]) -> io::Result<ClientState> {
    let mut c = Cursor::new(buf);
    let object = ObjectId(c.u64()?);
    let start = Point::new(c.f64()?, c.f64()?);
    let ts = Timestamp(c.u64()?);
    let (lx, ly, hx, hy) = (c.f64()?, c.f64()?, c.f64()?, c.f64()?);
    let te = Timestamp(c.u64()?);
    c.done()?;
    let well_formed = lx <= hx && ly <= hy && [lx, ly, hx, hy].iter().all(|v| v.is_finite());
    if !well_formed {
        return Err(invalid(format!("malformed FSA rect [{lx},{ly}]..[{hx},{hy}]")));
    }
    Ok(ClientState {
        object,
        start,
        ts,
        fsa: Rect::new(Point::new(lx, ly), Point::new(hx, hy)),
        te,
    })
}

/// Writes one `length || opcode || payload` frame.
pub fn write_frame(w: &mut impl Write, opcode: u8, payload: &[u8]) -> io::Result<()> {
    let body = 1 + payload.len();
    if body > MAX_FRAME_BYTES {
        return Err(invalid(format!("frame body {body} exceeds {MAX_FRAME_BYTES}")));
    }
    w.write_all(&(body as u32).to_le_bytes())?;
    w.write_all(&[opcode])?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame; `Ok(None)` on a clean EOF at a frame boundary.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<(u8, Vec<u8>)>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let body = u32::from_le_bytes(len) as usize;
    if body == 0 || body > MAX_FRAME_BYTES {
        return Err(invalid(format!("frame body {body} out of bounds")));
    }
    let mut buf = vec![0u8; body];
    r.read_exact(&mut buf)?;
    let opcode = buf[0];
    buf.drain(..1);
    Ok(Some((opcode, buf)))
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// A bounds-checked little-endian reader over a payload slice.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.buf.len());
        let end = end.ok_or_else(|| invalid("truncated payload".into()))?;
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn done(&self) -> io::Result<()> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(invalid(format!("{} trailing bytes", self.buf.len() - self.at)))
        }
    }
}

/// A running unix-socket listener bound to a `hotpathd`.
///
/// Accepts connections until [`UnixServer::stop`] (or drop); each
/// connection gets its own lock-free snapshot reader.
#[derive(Debug)]
pub struct UnixServer {
    path: PathBuf,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

/// Binds `path` and serves the wire protocol for `handle`'s server.
/// The socket file is created fresh (a stale one is removed first) and
/// unlinked again on [`UnixServer::stop`].
pub fn serve_unix(handle: &ServerHandle, path: &Path) -> io::Result<UnixServer> {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    let stop = Arc::new(AtomicBool::new(false));
    let accept = {
        let stop = Arc::clone(&stop);
        let cell = handle.cell();
        let tx = handle.sender();
        thread::spawn(move || accept_loop(listener, &stop, &cell, &tx))
    };
    Ok(UnixServer { path: path.to_path_buf(), stop, accept: Some(accept) })
}

fn accept_loop(
    listener: UnixListener,
    stop: &AtomicBool,
    cell: &Arc<SnapshotCell>,
    tx: &mpsc::Sender<ServerMsg>,
) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let cell = Arc::clone(cell);
        let tx = tx.clone();
        thread::spawn(move || {
            let _ = serve_connection(stream, &cell, &tx);
        });
    }
}

fn serve_connection(
    stream: UnixStream,
    cell: &Arc<SnapshotCell>,
    tx: &mpsc::Sender<ServerMsg>,
) -> io::Result<()> {
    let mut reader = cell.register();
    let mut input = stream.try_clone()?;
    let mut output = io::BufWriter::new(stream);
    while let Some((opcode, payload)) = read_frame(&mut input)? {
        match opcode {
            OP_QUERY => {
                let wire = SnapshotWire::from_snapshot(&reader.read());
                write_frame(&mut output, OP_SNAPSHOT, &wire.encode())?;
            }
            OP_SUBMIT_BATCH => {
                if !payload.len().is_multiple_of(STATE_WIRE_BYTES) {
                    return Err(invalid(format!(
                        "batch payload {} not state-aligned",
                        payload.len()
                    )));
                }
                let batch: Vec<ClientState> = payload
                    .chunks_exact(STATE_WIRE_BYTES)
                    .map(decode_state)
                    .collect::<io::Result<_>>()?;
                let n = batch.len() as u32;
                let _ = tx.send(ServerMsg::SubmitBatch(batch));
                write_frame(&mut output, OP_ACK, &n.to_le_bytes())?;
            }
            OP_ADVANCE => {
                let mut c = Cursor::new(&payload);
                let t = Timestamp(c.u64()?);
                c.done()?;
                let _ = tx.send(ServerMsg::Advance(t));
                write_frame(&mut output, OP_ACK, &0u32.to_le_bytes())?;
            }
            other => return Err(invalid(format!("unknown opcode {other:#04x}"))),
        }
    }
    Ok(())
}

impl UnixServer {
    /// Stops accepting, unblocks the accept loop, and removes the
    /// socket file. In-flight connections finish on their own threads.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        if let Some(accept) = self.accept.take() {
            self.stop.store(true, Ordering::SeqCst);
            // Wake the blocking accept with a throwaway connection.
            let _ = UnixStream::connect(&self.path);
            let _ = accept.join();
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

impl Drop for UnixServer {
    fn drop(&mut self) {
        self.halt();
    }
}

/// A blocking wire-protocol client over a unix socket.
#[derive(Debug)]
pub struct UnixClient {
    stream: UnixStream,
}

impl UnixClient {
    /// Connects to a serving socket.
    pub fn connect(path: &Path) -> io::Result<UnixClient> {
        Ok(UnixClient { stream: UnixStream::connect(path)? })
    }

    fn request(&mut self, opcode: u8, payload: &[u8]) -> io::Result<(u8, Vec<u8>)> {
        write_frame(&mut self.stream, opcode, payload)?;
        read_frame(&mut self.stream)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed connection"))
    }

    /// Fetches the latest published snapshot.
    pub fn query(&mut self) -> io::Result<SnapshotWire> {
        let (op, payload) = self.request(OP_QUERY, &[])?;
        if op != OP_SNAPSHOT {
            return Err(invalid(format!("expected snapshot reply, got opcode {op:#04x}")));
        }
        SnapshotWire::decode(&payload)
    }

    /// Submits a batch; returns the accepted count.
    pub fn submit_batch(&mut self, batch: &[ClientState]) -> io::Result<u32> {
        if batch.len() > MAX_BATCH {
            return Err(invalid(format!("batch of {} exceeds {MAX_BATCH}", batch.len())));
        }
        let mut payload = Vec::with_capacity(batch.len() * STATE_WIRE_BYTES);
        for s in batch {
            encode_state(s, &mut payload);
        }
        let (op, reply) = self.request(OP_SUBMIT_BATCH, &payload)?;
        if op != OP_ACK {
            return Err(invalid(format!("expected ack, got opcode {op:#04x}")));
        }
        let mut c = Cursor::new(&reply);
        let n = c.u32()?;
        c.done()?;
        Ok(n)
    }

    /// Advances the server clock to `t` (ack means enqueued).
    pub fn advance(&mut self, t: Timestamp) -> io::Result<()> {
        let (op, _) = self.request(OP_ADVANCE, &t.0.to_le_bytes())?;
        if op != OP_ACK {
            return Err(invalid(format!("expected ack, got opcode {op:#04x}")));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Hotpathd;
    use hotpath_core::coordinator::Coordinator;
    use hotpath_core::engine::EngineKind;
    use hotpath_core::prelude::Config;
    use std::sync::atomic::AtomicU32;

    fn state(obj: u64, end_x: f64, te: u64) -> ClientState {
        ClientState {
            object: ObjectId(obj),
            start: Point::new(0.0, 0.0),
            ts: Timestamp(te.saturating_sub(8)),
            fsa: Rect::new(Point::new(end_x - 2.0, -2.0), Point::new(end_x + 2.0, 2.0)),
            te: Timestamp(te),
        }
    }

    fn socket_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("hotpathd-{tag}-{}-{seq}.sock", std::process::id()))
    }

    #[test]
    fn client_state_codec_round_trips_at_fixed_width() {
        let s = state(42, 50.0, 19);
        let mut buf = Vec::new();
        encode_state(&s, &mut buf);
        assert_eq!(buf.len(), STATE_WIRE_BYTES);
        assert_eq!(buf.len(), ClientState::WIRE_BYTES);
        assert_eq!(decode_state(&buf).unwrap(), s);
        assert!(decode_state(&buf[..70]).is_err(), "truncation must be rejected");
        // Corrupt the rect so lo > hi: must be rejected, not asserted on.
        let mut bad = buf.clone();
        bad[32..40].copy_from_slice(&1e9f64.to_le_bytes());
        assert!(decode_state(&bad).is_err());
    }

    #[test]
    fn snapshot_wire_codec_round_trips_and_bounds_topk() {
        let wire = SnapshotWire {
            epoch: 7,
            timestamp: Timestamp(70),
            top_k_score: 350.0,
            hot_count: 3,
            index_size: 12,
            top: (0..3)
                .map(|i| TopEntryWire {
                    id: i,
                    a: (i as f64, 0.0),
                    b: (i as f64 + 50.0, 0.0),
                    hotness: 7 - i as u32,
                    score: 50.0 * (7 - i as u32) as f64,
                })
                .collect(),
        };
        let buf = wire.encode();
        assert_eq!(SnapshotWire::decode(&buf).unwrap(), wire);
        assert!(SnapshotWire::decode(&buf[..buf.len() - 1]).is_err());
        // An absurd declared length must be rejected before allocation.
        let mut bad = buf.clone();
        bad[40..44].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(SnapshotWire::decode(&bad).is_err());
    }

    #[test]
    fn frames_reject_oversize_and_pass_clean_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_QUERY, &[1, 2, 3]).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), Some((OP_QUERY, vec![1, 2, 3])));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF at boundary");

        let huge = vec![0u8; MAX_FRAME_BYTES];
        assert!(write_frame(&mut Vec::new(), OP_QUERY, &huge).is_err());
        let mut oversize = ((MAX_FRAME_BYTES + 1) as u32).to_le_bytes().to_vec();
        oversize.extend_from_slice(&[0; 8]);
        assert!(read_frame(&mut &oversize[..]).is_err());
    }

    #[test]
    fn unix_socket_round_trip_submits_advances_and_queries() {
        let config = Config::paper_defaults().with_epoch(10).with_window(10_000);
        let handle = Hotpathd::spawn(EngineKind::Sync.build(Coordinator::new(config)));
        let path = socket_path("rt");
        let server = serve_unix(&handle, &path).expect("bind unix socket");

        let mut client = UnixClient::connect(&path).expect("connect");
        assert_eq!(client.query().unwrap().epoch, 0, "epoch-0 image pre-published");

        // Three traversals of the same corridor, then one epoch.
        let batch: Vec<ClientState> = (1..=3).map(|o| state(o, 50.0, 9)).collect();
        assert_eq!(client.submit_batch(&batch).unwrap(), 3);
        client.advance(Timestamp(10)).unwrap();

        // Open loop: poll until the publish lands in the cell.
        let snap = loop {
            let snap = client.query().unwrap();
            if snap.epoch >= 1 {
                break snap;
            }
            std::thread::yield_now();
        };
        assert_eq!(snap.epoch, 1);
        assert_eq!(snap.timestamp, Timestamp(10));
        assert_eq!(snap.top.len(), 1, "one shared corridor");
        assert_eq!(snap.top[0].hotness, 3);

        // A second client sees the same image through its own reader.
        let mut other = UnixClient::connect(&path).expect("second client");
        assert_eq!(other.query().unwrap().epoch, snap.epoch);

        server.stop();
        assert!(UnixClient::connect(&path).is_err(), "socket must be unlinked after stop");
        assert_eq!(handle.shutdown().epoch, 1);
    }

    #[test]
    fn malformed_frames_close_the_connection_with_an_error() {
        let config = Config::paper_defaults();
        let handle = Hotpathd::spawn(EngineKind::Sync.build(Coordinator::new(config)));
        let path = socket_path("bad");
        let server = serve_unix(&handle, &path).expect("bind unix socket");

        let mut stream = UnixStream::connect(&path).expect("connect");
        write_frame(&mut stream, 0x7F, &[]).unwrap();
        let reply = read_frame(&mut stream).unwrap();
        assert_eq!(reply, None, "server closes on unknown opcode");

        server.stop();
        drop(handle);
    }
}
