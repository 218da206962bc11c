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
//! A frame is built in a buffer its sender reuses and leaves in one
//! `write_all` ([`write_frame`]): one syscall per frame, however many
//! states it carries. Both ends read through a default-capacity
//! [`io::BufReader`] with [`read_frame_into`], which fills a
//! caller-owned payload buffer, so one request wakes the server's
//! connection thread once and no frame allocates.
//!
//! The server side ([`serve_unix`]) registers one
//! [`SnapshotHandle`](hotpath_core::snapshot::SnapshotHandle) per
//! connection: queries never touch the engine, they read the cell the
//! writer thread publishes into (one atomic load when nothing new was
//! published). Submissions and advances are forwarded
//! onto the writer channel and acknowledged as accepted (open loop —
//! the ack means *enqueued*, not *processed*). A request the writer can
//! no longer receive (the server has shut down) is not acknowledged:
//! the connection closes with an error instead.

use std::io::{self, BufReader, Read, Write};
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

/// The wire projection of `snap`'s top-k, truncated to [`MAX_TOPK`].
fn top_entries(snap: &HotSnapshot) -> impl ExactSizeIterator<Item = TopEntryWire> + '_ {
    snap.top_k.iter().take(MAX_TOPK).map(|hp| TopEntryWire {
        id: hp.path.id.0,
        a: (hp.path.seg.a.x, hp.path.seg.a.y),
        b: (hp.path.seg.b.x, hp.path.seg.b.y),
        hotness: hp.hotness,
        score: hp.score,
    })
}

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
        SnapshotWire { top: top_entries(snap).collect(), ..SnapshotWire::summary(snap) }
    }

    /// `snap`'s scalar summary with an empty (unallocated) top-k.
    fn summary(snap: &HotSnapshot) -> SnapshotWire {
        SnapshotWire {
            epoch: snap.epoch,
            timestamp: snap.timestamp,
            top_k_score: snap.top_k_score,
            hot_count: snap.hot_count as u64,
            index_size: snap.index_size as u64,
            top: Vec::new(),
        }
    }

    /// Serializes to the fixed layout.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(44 + self.top.len() * TOP_ENTRY_BYTES);
        self.put(&mut buf, self.top.iter().copied());
        buf
    }

    /// Appends `SnapshotWire::from_snapshot(snap).encode()` to `buf`
    /// without building the intermediate (the server's query reply).
    pub fn encode_snapshot(snap: &HotSnapshot, buf: &mut Vec<u8>) {
        SnapshotWire::summary(snap).put(buf, top_entries(snap));
    }

    /// The fixed layout: this summary, then `top` as the top-k entries.
    fn put(&self, buf: &mut Vec<u8>, top: impl ExactSizeIterator<Item = TopEntryWire>) {
        buf.extend_from_slice(&self.epoch.to_le_bytes());
        buf.extend_from_slice(&self.timestamp.0.to_le_bytes());
        buf.extend_from_slice(&self.top_k_score.to_le_bytes());
        buf.extend_from_slice(&self.hot_count.to_le_bytes());
        buf.extend_from_slice(&self.index_size.to_le_bytes());
        buf.extend_from_slice(&(top.len() as u32).to_le_bytes());
        for e in top {
            buf.extend_from_slice(&e.id.to_le_bytes());
            buf.extend_from_slice(&e.a.0.to_le_bytes());
            buf.extend_from_slice(&e.a.1.to_le_bytes());
            buf.extend_from_slice(&e.b.0.to_le_bytes());
            buf.extend_from_slice(&e.b.1.to_le_bytes());
            buf.extend_from_slice(&e.hotness.to_le_bytes());
            buf.extend_from_slice(&e.score.to_le_bytes());
        }
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

/// Writes one `length || opcode || payload` frame with a single
/// `write_all`. The frame is built in `buf` (cleared first, so its
/// capacity is reused frame after frame); `payload` appends the payload
/// bytes to it.
pub fn write_frame(
    w: &mut impl Write,
    buf: &mut Vec<u8>,
    opcode: u8,
    payload: impl FnOnce(&mut Vec<u8>),
) -> io::Result<()> {
    buf.clear();
    buf.extend_from_slice(&[0; 4]);
    buf.push(opcode);
    payload(buf);
    let body = buf.len() - 4;
    if body > MAX_FRAME_BYTES {
        return Err(invalid(format!("frame body {body} exceeds {MAX_FRAME_BYTES}")));
    }
    buf[..4].copy_from_slice(&(body as u32).to_le_bytes());
    w.write_all(buf)?;
    w.flush()
}

/// Reads one frame, leaving its payload in `buf` (cleared first; never
/// grown past [`MAX_FRAME_BYTES`]) and returning its opcode. `Ok(None)`
/// on a clean EOF at a frame boundary; a frame cut short or declaring
/// an out-of-bounds length is an error, raised before any allocation.
pub fn read_frame_into(r: &mut impl Read, buf: &mut Vec<u8>) -> io::Result<Option<u8>> {
    let mut len = [0u8; 4];
    let first = loop {
        match r.read(&mut len[..1]) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            read => break read?,
        }
    };
    if first == 0 {
        return Ok(None);
    }
    r.read_exact(&mut len[1..])?;
    let body = u32::from_le_bytes(len) as usize;
    if body == 0 || body > MAX_FRAME_BYTES {
        return Err(invalid(format!("frame body {body} out of bounds")));
    }
    let mut opcode = [0u8];
    r.read_exact(&mut opcode)?;
    buf.clear();
    // Exact: `resize` alone may double the capacity past the frame bound.
    buf.reserve_exact(body - 1);
    buf.resize(body - 1, 0);
    r.read_exact(buf)?;
    Ok(Some(opcode[0]))
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
/// connection gets its own snapshot reader.
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
    let mut conn = Conn::new(stream);
    while let Some(opcode) = conn.recv()? {
        match opcode {
            OP_QUERY => {
                let snap = reader.read();
                conn.send(OP_SNAPSHOT, |b| SnapshotWire::encode_snapshot(snap, b))?;
            }
            OP_SUBMIT_BATCH => {
                let payload = &conn.buf;
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
                forward(tx, ServerMsg::SubmitBatch(batch))?;
                conn.send(OP_ACK, |b| b.extend_from_slice(&n.to_le_bytes()))?;
            }
            OP_ADVANCE => {
                let mut c = Cursor::new(&conn.buf);
                let t = Timestamp(c.u64()?);
                c.done()?;
                forward(tx, ServerMsg::Advance(t))?;
                conn.send(OP_ACK, |b| b.extend_from_slice(&0u32.to_le_bytes()))?;
            }
            other => return Err(invalid(format!("unknown opcode {other:#04x}"))),
        }
    }
    Ok(())
}

/// Hands `msg` to the writer thread; an error once it has shut down,
/// so nothing is acknowledged that the writer never received.
fn forward(tx: &mpsc::Sender<ServerMsg>, msg: ServerMsg) -> io::Result<()> {
    tx.send(msg)
        .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "server writer has shut down"))
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

/// One end of a wire connection, the server's or a client's: frames
/// are read through a default-capacity [`BufReader`] and written to the
/// stream beneath it, each with one `write_all`, both through one
/// reused buffer.
#[derive(Debug)]
struct Conn<S> {
    stream: BufReader<S>,
    /// The last frame read (payload only) or written (whole frame).
    buf: Vec<u8>,
}

impl<S: Read + Write> Conn<S> {
    fn new(stream: S) -> Conn<S> {
        Conn { stream: BufReader::new(stream), buf: Vec::new() }
    }

    /// Reads the next frame; its payload is left in `self.buf`.
    fn recv(&mut self) -> io::Result<Option<u8>> {
        read_frame_into(&mut self.stream, &mut self.buf)
    }

    /// Writes one frame whose payload `payload` appends.
    fn send(&mut self, opcode: u8, payload: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
        write_frame(self.stream.get_mut(), &mut self.buf, opcode, payload)
    }

    /// One round trip: sends a request and returns the reply's payload,
    /// failing unless the reply's opcode is `expect`.
    fn request(
        &mut self,
        opcode: u8,
        payload: impl FnOnce(&mut Vec<u8>),
        expect: u8,
    ) -> io::Result<&[u8]> {
        self.send(opcode, payload)?;
        let op = self.recv()?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed connection")
        })?;
        if op != expect {
            return Err(invalid(format!("expected opcode {expect:#04x}, got {op:#04x}")));
        }
        Ok(&self.buf)
    }

    fn query(&mut self) -> io::Result<SnapshotWire> {
        SnapshotWire::decode(self.request(OP_QUERY, |_| {}, OP_SNAPSHOT)?)
    }

    fn submit_batch(&mut self, batch: &[ClientState]) -> io::Result<u32> {
        if batch.len() > MAX_BATCH {
            return Err(invalid(format!("batch of {} exceeds {MAX_BATCH}", batch.len())));
        }
        let encode = |b: &mut Vec<u8>| batch.iter().for_each(|s| encode_state(s, b));
        let mut c = Cursor::new(self.request(OP_SUBMIT_BATCH, encode, OP_ACK)?);
        let n = c.u32()?;
        c.done()?;
        Ok(n)
    }

    fn advance(&mut self, t: Timestamp) -> io::Result<()> {
        let encode = |b: &mut Vec<u8>| b.extend_from_slice(&t.0.to_le_bytes());
        self.request(OP_ADVANCE, encode, OP_ACK).map(drop)
    }
}

/// A blocking wire-protocol client over a unix socket.
#[derive(Debug)]
pub struct UnixClient {
    conn: Conn<UnixStream>,
}

impl UnixClient {
    /// Connects to a serving socket.
    pub fn connect(path: &Path) -> io::Result<UnixClient> {
        Ok(UnixClient { conn: Conn::new(UnixStream::connect(path)?) })
    }

    /// Fetches the latest published snapshot.
    pub fn query(&mut self) -> io::Result<SnapshotWire> {
        self.conn.query()
    }

    /// Submits a batch; returns the accepted count.
    pub fn submit_batch(&mut self, batch: &[ClientState]) -> io::Result<u32> {
        self.conn.submit_batch(batch)
    }

    /// Advances the server clock to `t` (ack means enqueued).
    pub fn advance(&mut self, t: Timestamp) -> io::Result<()> {
        self.conn.advance(t)
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

    /// A `Write` that counts its `write` calls.
    #[derive(Default)]
    struct CountingWrite {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWrite {
        fn write(&mut self, b: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(b);
            Ok(b.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A stream whose reads replay canned reply frames and whose writes
    /// are counted.
    struct Duplex {
        replies: io::Cursor<Vec<u8>>,
        out: CountingWrite,
    }

    impl Read for Duplex {
        fn read(&mut self, b: &mut [u8]) -> io::Result<usize> {
            self.replies.read(b)
        }
    }

    impl Write for Duplex {
        fn write(&mut self, b: &[u8]) -> io::Result<usize> {
            self.out.write(b)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A `Read` that yields at most one byte per call.
    struct OneByte<'a>(&'a [u8]);

    impl Read for OneByte<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.0.len().min(out.len()).min(1);
            out[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    /// `write_frame` over a fresh buffer, payload given as bytes.
    fn frame(w: &mut impl Write, opcode: u8, payload: &[u8]) -> io::Result<()> {
        write_frame(w, &mut Vec::new(), opcode, |b| b.extend_from_slice(payload))
    }

    /// Parses every frame in `r` until a clean EOF.
    fn read_all(r: &mut impl Read) -> io::Result<Vec<(u8, Vec<u8>)>> {
        let mut buf = Vec::new();
        let mut frames = Vec::new();
        while let Some(op) = read_frame_into(r, &mut buf)? {
            frames.push((op, buf.clone()));
        }
        Ok(frames)
    }

    #[test]
    fn frames_reject_oversize_and_pass_clean_eof() {
        let mut bytes = Vec::new();
        frame(&mut bytes, OP_QUERY, &[1, 2, 3]).unwrap();
        let mut r = &bytes[..];
        let mut buf = Vec::new();
        assert_eq!(read_frame_into(&mut r, &mut buf).unwrap(), Some(OP_QUERY));
        assert_eq!(buf, [1, 2, 3]);
        assert_eq!(read_frame_into(&mut r, &mut buf).unwrap(), None, "clean EOF at boundary");

        let huge = vec![0u8; MAX_FRAME_BYTES];
        assert!(frame(&mut Vec::new(), OP_QUERY, &huge).is_err());
        let mut oversize = ((MAX_FRAME_BYTES + 1) as u32).to_le_bytes().to_vec();
        oversize.extend_from_slice(&[0; 8]);
        let err = read_frame_into(&mut &oversize[..], &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(buf.capacity() < 64, "an oversize length must not allocate");

        // A frame cut inside its header is an error, not a clean EOF.
        let err = read_frame_into(&mut &bytes[..2], &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn write_frame_makes_one_write_per_frame() {
        let mut w = CountingWrite::default();
        let mut buf = Vec::new();
        write_frame(&mut w, &mut buf, OP_QUERY, |_| {}).unwrap();
        assert_eq!(w.writes, 1);
        let batch: Vec<ClientState> = (1..=52).map(|o| state(o, 50.0, 9)).collect();
        write_frame(&mut w, &mut buf, OP_SUBMIT_BATCH, |b| {
            batch.iter().for_each(|s| encode_state(s, b))
        })
        .unwrap();
        assert_eq!(w.writes, 2);
        write_frame(&mut w, &mut buf, OP_ADVANCE, |b| b.extend_from_slice(&9u64.to_le_bytes()))
            .unwrap();
        assert_eq!(w.writes, 3);
        let frames = read_all(&mut &w.bytes[..]).unwrap();
        let ops: Vec<u8> = frames.iter().map(|f| f.0).collect();
        assert_eq!(ops, [OP_QUERY, OP_SUBMIT_BATCH, OP_ADVANCE]);
        assert_eq!(frames[1].1.len(), 52 * STATE_WIRE_BYTES);
    }

    #[test]
    fn each_client_request_is_one_write() {
        let snap = SnapshotWire {
            epoch: 1,
            timestamp: Timestamp(10),
            top_k_score: 0.0,
            hot_count: 0,
            index_size: 0,
            top: Vec::new(),
        };
        let mut replies = Vec::new();
        frame(&mut replies, OP_ACK, &52u32.to_le_bytes()).unwrap();
        frame(&mut replies, OP_ACK, &0u32.to_le_bytes()).unwrap();
        frame(&mut replies, OP_SNAPSHOT, &snap.encode()).unwrap();
        let mut conn =
            Conn::new(Duplex { replies: io::Cursor::new(replies), out: CountingWrite::default() });
        let writes = |conn: &Conn<Duplex>| conn.stream.get_ref().out.writes;

        let batch: Vec<ClientState> = (1..=52).map(|o| state(o, 50.0, 9)).collect();
        assert_eq!(conn.submit_batch(&batch).unwrap(), 52);
        assert_eq!(writes(&conn), 1, "submit_batch");
        conn.advance(Timestamp(10)).unwrap();
        assert_eq!(writes(&conn), 2, "advance");
        assert_eq!(conn.query().unwrap(), snap);
        assert_eq!(writes(&conn), 3, "query");

        let sent = read_all(&mut &conn.stream.get_ref().out.bytes[..]).unwrap();
        let ops: Vec<u8> = sent.iter().map(|f| f.0).collect();
        assert_eq!(ops, [OP_SUBMIT_BATCH, OP_ADVANCE, OP_QUERY]);
        assert_eq!(conn.submit_batch(&batch).unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn frames_parse_one_byte_at_a_time_and_back_to_back() {
        let mut bytes = Vec::new();
        frame(&mut bytes, OP_QUERY, &[]).unwrap();
        let mut states = Vec::new();
        (1..=3).for_each(|o| encode_state(&state(o, 50.0, 9), &mut states));
        frame(&mut bytes, OP_SUBMIT_BATCH, &states).unwrap();
        frame(&mut bytes, OP_ADVANCE, &10u64.to_le_bytes()).unwrap();
        let want = vec![
            (OP_QUERY, vec![]),
            (OP_SUBMIT_BATCH, states),
            (OP_ADVANCE, 10u64.to_le_bytes().to_vec()),
        ];
        assert_eq!(read_all(&mut &bytes[..]).unwrap(), want, "back to back in one buffer");
        assert_eq!(read_all(&mut OneByte(&bytes)).unwrap(), want, "one byte per read");
        assert_eq!(read_all(&mut BufReader::new(OneByte(&bytes))).unwrap(), want, "buffered");
    }

    #[test]
    fn frame_layout_is_pinned_by_golden_bytes() {
        let s = ClientState {
            object: ObjectId(7),
            start: Point::new(1.5, -2.0),
            ts: Timestamp(3),
            fsa: Rect::new(Point::new(10.0, -1.0), Point::new(12.0, 1.0)),
            te: Timestamp(11),
        };
        let mut submit = Vec::new();
        write_frame(&mut submit, &mut Vec::new(), OP_SUBMIT_BATCH, |b| encode_state(&s, b))
            .unwrap();
        #[rustfmt::skip]
        let golden_submit: [u8; 77] = [
            0x49, 0, 0, 0,                               // body length 73
            0x02,                                        // OP_SUBMIT_BATCH
            7, 0, 0, 0, 0, 0, 0, 0,                      // object 7
            0, 0, 0, 0, 0, 0, 0xF8, 0x3F,                // start.x 1.5
            0, 0, 0, 0, 0, 0, 0x00, 0xC0,                // start.y -2.0
            3, 0, 0, 0, 0, 0, 0, 0,                      // ts 3
            0, 0, 0, 0, 0, 0, 0x24, 0x40,                // fsa.lo.x 10.0
            0, 0, 0, 0, 0, 0, 0xF0, 0xBF,                // fsa.lo.y -1.0
            0, 0, 0, 0, 0, 0, 0x28, 0x40,                // fsa.hi.x 12.0
            0, 0, 0, 0, 0, 0, 0xF0, 0x3F,                // fsa.hi.y 1.0
            11, 0, 0, 0, 0, 0, 0, 0,                     // te 11
        ];
        assert_eq!(submit, golden_submit);

        let mut advance = Vec::new();
        write_frame(&mut advance, &mut Vec::new(), OP_ADVANCE, |b| {
            b.extend_from_slice(&Timestamp(300).0.to_le_bytes())
        })
        .unwrap();
        #[rustfmt::skip]
        let golden_advance: [u8; 13] = [
            0x09, 0, 0, 0,                               // body length 9
            0x03,                                        // OP_ADVANCE
            0x2C, 0x01, 0, 0, 0, 0, 0, 0,                // t 300
        ];
        assert_eq!(advance, golden_advance);
    }

    #[test]
    fn snapshot_reply_encodes_as_the_projection_does() {
        let config = Config::builder().window(10_000).build().unwrap();
        let mut engine = EngineKind::Sync.build(Coordinator::new(config));
        let batch: Vec<ClientState> = (1..=3).map(|o| state(o, 50.0 * o as f64, 9)).collect();
        engine.submit_batch(&mut batch.into_iter());
        engine.advance_time(Timestamp(10));
        engine.process_epoch(Timestamp(10));
        let snap = engine.snapshot();
        assert!(!snap.top_k.is_empty());
        let mut direct = Vec::new();
        SnapshotWire::encode_snapshot(&snap, &mut direct);
        assert_eq!(direct, SnapshotWire::from_snapshot(&snap).encode());
    }

    #[test]
    fn unix_socket_round_trip_submits_advances_and_queries() {
        let config = Config::builder().window(10_000).build().unwrap();
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
        let snap = crate::wait_for_epoch(1, || {
            let snap = client.query().unwrap();
            (snap.epoch, snap)
        });
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
        frame(&mut stream, 0x7F, &[]).unwrap();
        let reply = read_frame_into(&mut stream, &mut Vec::new()).unwrap();
        assert_eq!(reply, None, "server closes on unknown opcode");

        server.stop();
        drop(handle);
    }

    #[test]
    fn requests_after_shutdown_are_refused_not_acknowledged() {
        let config = Config::builder().window(10_000).build().unwrap();
        let handle = Hotpathd::spawn(EngineKind::Sync.build(Coordinator::new(config)));
        let path = socket_path("down");
        let server = serve_unix(&handle, &path).expect("bind unix socket");
        let mut submitter = UnixClient::connect(&path).expect("connect");
        let mut advancer = UnixClient::connect(&path).expect("connect");
        assert_eq!(submitter.query().unwrap().epoch, 0);

        handle.shutdown();
        let batch: Vec<ClientState> = (1..=3).map(|o| state(o, 50.0, 9)).collect();
        assert!(submitter.submit_batch(&batch).is_err(), "no writer received the batch");
        assert!(advancer.advance(Timestamp(10)).is_err(), "no writer received the advance");
        server.stop();
    }
}
