//! Epoch-stamped, versioned checkpoints of the full coordinator state.
//!
//! # Format
//!
//! A checkpoint is a flat byte image:
//!
//! ```text
//! [CheckpointHeader]            56 bytes: magic, version, epoch,
//!                               clock, path-id counter, section
//!                               count, flags, section-table CRC
//! [SectionDesc x section_count] 32 bytes each: kind, record count,
//!                               byte length, payload CRC
//! [payload 0][payload 1]...     raw record arrays, in table order
//! ```
//!
//! Every payload is an array of a `repr(C)` padding-free record type
//! ([`MotionPath`], [`ExpiryEvent`], [`ClientState`], or one of the
//! fixed header-like records below), so writing a
//! section is one bounded memcpy — there is no per-record encoding, no
//! serde. Multi-byte fields
//! are native-endian; the magic doubles as an endianness sentinel (a
//! byte-swapped reader sees a wrong magic, not silent garbage).
//!
//! Every section is canonical: paths by id, events by `(expiry, id)`.
//! An image is therefore a function of the
//! coordinator's logical state, not of its slab or wheel layout, and
//! `checkpoint(restore(image)) == image` byte for byte.
//!
//! # Versioning policy
//!
//! [`FORMAT_VERSION`] increments on any layout change (header fields,
//! record layouts, section kinds, CRC polynomial). Readers accept
//! exactly their own version — checkpoints are recovery state, not
//! archival data, so there is no cross-version migration path; a
//! version mismatch is the typed [`CheckpointError::BadVersion`].
//!
//! # Integrity
//!
//! A CRC in the header covers the header itself plus the section
//! table, and every payload carries a CRC in its descriptor (CRC-32,
//! IEEE polynomial).
//! [`Checkpoint::from_bytes`] verifies all of them before any state is
//! rebuilt; corruption surfaces as a typed [`CheckpointError`], never a
//! panic or silently wrong state. Structural validation (id order,
//! event order, events without paths and paths without events) happens
//! when the coordinator adopts the sections and also reports through
//! [`CheckpointError`].

use crate::config::{Config, Tolerance};
use crate::index::ExpiryEvent;
use crate::motion_path::MotionPath;
use crate::raytrace::ClientState;
use std::fmt;
use std::mem::size_of;

/// Magic sentinel leading every checkpoint (`b"HOTPCKPT"`, native
/// byte order — a byte-swapped or foreign file fails the magic check).
pub const MAGIC: u64 = u64::from_le_bytes(*b"HOTPCKPT");

/// Current checkpoint format version. Readers accept exactly this.
///
/// History: v1 serialized the expiry-event section in binary-heap
/// array order; v2 serializes it in canonical `(expiry, id)` order,
/// independent of the timer wheel's layout; v3 adds the client-session layer:
/// a section of session records (kind 8), admission
/// knobs in [`ConfigRecord`] (72 → 112 bytes), and admission/session
/// counters in [`StatsRecord`] (96 → 168 bytes); v4 drops the shard
/// axis of the one-coordinator design: the header's shard count and
/// each [`SectionDesc`]'s shard become reserved zeros, section kind 7
/// (per-shard meta) is retired, the index's id counter moves into
/// [`CheckpointHeader::next_path_id`] and the crossings-recorded total
/// into [`StatsRecord`] (168 → 176 bytes), and [`ConfigRecord`] loses
/// its shard count and routing cell (112 → 96 bytes); v5 stores each
/// path once, in one table: the Paths section is sorted by id, and the
/// per-path hotness (kind 4) and tombstone (kind 6) sections are
/// retired — a restore counts each path's events instead; v6 drops the
/// client-session layer: section kind 8 (session records) is retired,
/// [`ConfigRecord`] loses the lease and grace (96 → 80 bytes), and
/// [`StatsRecord`] loses the tail-drop count and the four session
/// counters (176 → 136 bytes); v7 keeps one admission rule:
/// [`ConfigRecord`] loses the policy word (80 → 72 bytes) and
/// [`StatsRecord`] loses the admitted and shed counts (136 → 120
/// bytes); v8 keeps each counter once: [`StatsRecord`] loses the uplink
/// bytes, the downlink count and bytes (fixed message sizes times the
/// uplink and processed-state counts) and the epoch count (the header's
/// `epoch` is the copy), 120 → 88 bytes. Images of every earlier version
/// are rejected with the typed [`CheckpointError::BadVersion`].
pub const FORMAT_VERSION: u32 = 8;

// ---------------------------------------------------------------------
// Pod casting
// ---------------------------------------------------------------------

/// Marker for the plain-old-data record types checkpoint sections are
/// made of.
///
/// # Safety
///
/// Implementors must be `repr(C)` or `repr(transparent)` with **no
/// padding bytes**, and every field must tolerate any bit pattern
/// (integers and floats only — no references, no niches). Semantic
/// invariants (rect corner order, event sort order) are *not* part of the
/// contract; they are checked by the adopting structure after CRC
/// validation.
pub unsafe trait Pod: Copy + 'static {}

// Record types with compile-time size pins: a layout change that
// introduces padding (or resizes a record) fails the build, not the
// restore path.
unsafe impl Pod for MotionPath {}
unsafe impl Pod for ExpiryEvent {}
unsafe impl Pod for ClientState {}
unsafe impl Pod for SectionDesc {}
unsafe impl Pod for CheckpointHeader {}
unsafe impl Pod for ConfigRecord {}
unsafe impl Pod for StatsRecord {}

const _: () = {
    assert!(size_of::<MotionPath>() == 40);
    assert!(size_of::<ExpiryEvent>() == 16);
    assert!(size_of::<ClientState>() == 72);
    assert!(size_of::<SectionDesc>() == 32);
    assert!(size_of::<CheckpointHeader>() == 56);
    assert!(size_of::<ConfigRecord>() == 72);
    assert!(size_of::<StatsRecord>() == 88);
};

/// The raw bytes of a record slice (the write-side memcpy source).
fn bytes_of<T: Pod>(records: &[T]) -> &[u8] {
    // SAFETY: T is Pod (no padding, any bit pattern valid as bytes);
    // the slice is contiguous and the length is exact.
    unsafe { std::slice::from_raw_parts(records.as_ptr().cast::<u8>(), size_of_val(records)) }
}

/// Copies a byte payload into a fresh, properly aligned record vector.
fn records_from_bytes<T: Pod>(bytes: &[u8]) -> Result<Vec<T>, CheckpointError> {
    let stride = size_of::<T>();
    if stride == 0 || !bytes.len().is_multiple_of(stride) {
        return Err(CheckpointError::Malformed(format!(
            "payload of {} bytes is not a whole number of {stride}-byte records",
            bytes.len()
        )));
    }
    let n = bytes.len() / stride;
    let mut out: Vec<T> = Vec::with_capacity(n);
    // SAFETY: the destination has capacity for n records; T is Pod so
    // arbitrary (CRC-validated) bytes form valid values; the copy is
    // exact and non-overlapping (fresh allocation).
    unsafe {
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr().cast::<u8>(), bytes.len());
        out.set_len(n);
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// CRC-32 (IEEE)
// ---------------------------------------------------------------------

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3 polynomial) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// The combined CRC over the header (its `table_crc` field zeroed) and
/// the section-table bytes: every header scalar and every descriptor is
/// integrity-checked.
fn table_crc(header: &CheckpointHeader, descs: &[SectionDesc]) -> u32 {
    let mut zeroed = *header;
    zeroed.table_crc = 0;
    let mut buf = Vec::with_capacity(size_of::<CheckpointHeader>() + std::mem::size_of_val(descs));
    buf.extend_from_slice(bytes_of(std::slice::from_ref(&zeroed)));
    buf.extend_from_slice(bytes_of(descs));
    crc32(&buf)
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Typed failure of checkpoint encoding, decoding, or adoption. Every
/// corruption mode is a variant — loading a damaged checkpoint never
/// panics and never yields silently wrong state.
#[derive(Debug)]
pub enum CheckpointError {
    /// The byte image ends before the structure it promises.
    Truncated {
        /// Bytes the structure needs.
        needed: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The leading magic is not [`MAGIC`] (not a checkpoint, or one
    /// written on a foreign-endian machine).
    BadMagic {
        /// The value found in place of the magic.
        found: u64,
    },
    /// The format version is not [`FORMAT_VERSION`].
    BadVersion {
        /// The version recorded in the header.
        found: u32,
    },
    /// A CRC did not match: the named part of the image is corrupt.
    CrcMismatch {
        /// Which part failed (`"section table"` or a section kind).
        what: &'static str,
    },
    /// The image is structurally inconsistent (bad section layout,
    /// duplicate ids, event-order violation, counter imbalance, ...).
    Malformed(String),
    /// The checkpoint's embedded configuration conflicts with what the
    /// restoring coordinator was asked to run.
    ConfigMismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated { needed, got } => {
                write!(f, "checkpoint truncated: need {needed} bytes, have {got}")
            }
            CheckpointError::BadMagic { found } => {
                write!(f, "not a checkpoint: magic {found:#018x} != {MAGIC:#018x}")
            }
            CheckpointError::BadVersion { found } => {
                write!(
                    f,
                    "unsupported checkpoint format version {found} (expected {FORMAT_VERSION})"
                )
            }
            CheckpointError::CrcMismatch { what } => {
                write!(f, "checkpoint corrupt: CRC mismatch in {what}")
            }
            CheckpointError::Malformed(msg) => write!(f, "malformed checkpoint: {msg}"),
            CheckpointError::ConfigMismatch(msg) => {
                write!(f, "checkpoint configuration mismatch: {msg}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

// ---------------------------------------------------------------------
// On-disk records
// ---------------------------------------------------------------------

/// The fixed 56-byte header leading every checkpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(C)]
pub struct CheckpointHeader {
    /// [`MAGIC`].
    pub magic: u64,
    /// [`FORMAT_VERSION`].
    pub version: u32,
    /// Reserved, written as zero (the shard count through v3).
    pub reserved0: u32,
    /// Epochs processed when the checkpoint was taken.
    pub epoch: u64,
    /// The coordinator clock (raw timestamp) at checkpoint time.
    pub clock: u64,
    /// The path table's id counter: the id the next created path gets.
    pub next_path_id: u64,
    /// Number of [`SectionDesc`] entries following the header.
    pub section_count: u32,
    /// No bit is live. Bits 0 (hot-path hints) and 1 (the `Own`
    /// overlap switch) are retired; a restore refuses any non-zero
    /// word as a config mismatch.
    pub flags: u32,
    /// CRC-32 over the header (this field zeroed) and the section
    /// table, so every header scalar is integrity-checked too.
    pub table_crc: u32,
    /// Reserved, written as zero.
    pub reserved1: u32,
}

/// What a section holds. The discriminants are the on-disk `kind`.
/// Retired and never reused: 8 (session records), through v5; 4
/// (per-path hotness) and 6 (tombstones), through v4; 7 (per-shard
/// meta), through v3.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u32)]
pub enum SectionKind {
    /// One [`ConfigRecord`].
    Config = 0,
    /// One [`StatsRecord`].
    Stats = 1,
    /// The pending [`ClientState`] batch.
    Pending = 2,
    /// Every stored [`MotionPath`], sorted by id.
    Paths = 3,
    /// The pending [`ExpiryEvent`]s in canonical `(expiry, id)` order —
    /// one per unexpired crossing, so each path's hotness is its number
    /// of events.
    Events = 5,
}

impl SectionKind {
    fn from_raw(raw: u32) -> Option<SectionKind> {
        Some(match raw {
            0 => SectionKind::Config,
            1 => SectionKind::Stats,
            2 => SectionKind::Pending,
            3 => SectionKind::Paths,
            5 => SectionKind::Events,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            SectionKind::Config => "config section",
            SectionKind::Stats => "stats section",
            SectionKind::Pending => "pending section",
            SectionKind::Paths => "paths section",
            SectionKind::Events => "events section",
        }
    }
}

/// One section-table entry (32 bytes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(C)]
pub struct SectionDesc {
    /// [`SectionKind`] discriminant.
    pub kind: u32,
    /// Reserved, written as zero (the owning shard through v3).
    pub reserved0: u32,
    /// Record count in the payload.
    pub count: u64,
    /// Payload byte length (`count * record size`).
    pub bytes: u64,
    /// CRC-32 of the payload bytes.
    pub crc: u32,
    /// Reserved, written as zero.
    pub reserved1: u32,
}

/// The embedded [`Config`] echo (one 72-byte record): a checkpoint can
/// only restore into a coordinator running the identical configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
#[repr(C)]
pub struct ConfigRecord {
    /// 0 = crisp tolerance, 1 = uncertain.
    pub tolerance_kind: u64,
    /// Tolerance radius `eps`.
    pub eps: f64,
    /// Failure probability `delta` (0 when crisp).
    pub delta: f64,
    /// Sliding window `W`.
    pub window: u64,
    /// Epoch length `Lambda`.
    pub lambda: u64,
    /// Top-`k` size.
    pub k: u64,
    /// Vertex quantization grain.
    pub vertex_grain: f64,
    /// Admission queue cap (0 = unbounded).
    pub queue_cap: u64,
    /// Degraded-epoch threshold (0 = never degrade).
    pub degrade_threshold: u64,
}

impl ConfigRecord {
    /// Encodes a [`Config`].
    pub fn from_config(c: &Config) -> Self {
        ConfigRecord {
            tolerance_kind: match c.tolerance {
                Tolerance::Crisp { .. } => 0,
                Tolerance::Uncertain { .. } => 1,
            },
            eps: c.tolerance.eps(),
            delta: c.tolerance.delta().unwrap_or(0.0),
            window: c.window.len,
            lambda: c.epochs.lambda,
            k: c.k as u64,
            vertex_grain: c.vertex_grain,
            queue_cap: c.admission.queue_cap as u64,
            degrade_threshold: c.admission.degrade_threshold as u64,
        }
    }

    /// Checks the record against a live configuration field by field.
    pub fn matches(&self, c: &Config) -> Result<(), CheckpointError> {
        let other = ConfigRecord::from_config(c);
        if self == &other {
            Ok(())
        } else {
            Err(CheckpointError::ConfigMismatch(format!(
                "checkpoint was taken under {self:?}, coordinator runs {other:?}"
            )))
        }
    }
}

/// Communication/processing/admission counters (one 88-byte record).
/// Durations are nanoseconds; they are wall-clock diagnostics and are
/// never part of parity comparisons. `recorded` is the path table's
/// total of crossings ever recorded. The epoch count is the header's.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[repr(C)]
#[allow(missing_docs)]
pub struct StatsRecord {
    pub uplink_msgs: u64,
    pub states_processed: u64,
    pub strategy_ns: u64,
    pub expiry_ns: u64,
    pub publish_ns: u64,
    pub case1: u64,
    pub case2: u64,
    pub case3: u64,
    pub adm_ejected: u64,
    pub degraded_epochs: u64,
    pub recorded: u64,
}

// ---------------------------------------------------------------------
// Builder (write side)
// ---------------------------------------------------------------------

/// Assembles a checkpoint image: header fields up front, then one
/// bounded memcpy per [`CheckpointBuilder::section`] call.
pub struct CheckpointBuilder {
    header: CheckpointHeader,
    descs: Vec<SectionDesc>,
    payload: Vec<u8>,
}

impl CheckpointBuilder {
    /// Starts an image for the given header fields.
    pub fn new(epoch: u64, clock: u64, next_path_id: u64, flags: u32) -> Self {
        CheckpointBuilder {
            header: CheckpointHeader {
                magic: MAGIC,
                version: FORMAT_VERSION,
                reserved0: 0,
                epoch,
                clock,
                next_path_id,
                section_count: 0,
                flags,
                table_crc: 0,
                reserved1: 0,
            },
            descs: Vec::new(),
            payload: Vec::new(),
        }
    }

    /// Appends a section: one `extend_from_slice` of the record bytes
    /// (the bounded memcpy) plus a descriptor with its CRC.
    pub fn section<T: Pod>(&mut self, kind: SectionKind, records: &[T]) -> &mut Self {
        let bytes = bytes_of(records);
        self.descs.push(SectionDesc {
            kind: kind as u32,
            reserved0: 0,
            count: records.len() as u64,
            bytes: bytes.len() as u64,
            crc: crc32(bytes),
            reserved1: 0,
        });
        self.payload.extend_from_slice(bytes);
        self
    }

    /// Seals the image: stamps section count and table CRC, concatenates
    /// header, table, and payloads.
    pub fn finish(mut self) -> Checkpoint {
        self.header.section_count = self.descs.len() as u32;
        self.header.table_crc = table_crc(&self.header, &self.descs);
        let table = bytes_of(&self.descs);
        let mut bytes =
            Vec::with_capacity(size_of::<CheckpointHeader>() + table.len() + self.payload.len());
        bytes.extend_from_slice(bytes_of(std::slice::from_ref(&self.header)));
        bytes.extend_from_slice(table);
        bytes.extend_from_slice(&self.payload);
        Checkpoint { header: self.header, descs: self.descs, bytes }
    }
}

// ---------------------------------------------------------------------
// Checkpoint (read side)
// ---------------------------------------------------------------------

/// A validated checkpoint image: header and section table parsed, every
/// CRC verified. Section payloads decode on demand.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    header: CheckpointHeader,
    descs: Vec<SectionDesc>,
    bytes: Vec<u8>,
}

impl Checkpoint {
    /// Parses and fully validates a byte image: magic, version, table
    /// CRC, known and distinct section kinds, section bounds, every
    /// payload CRC, and no trailing bytes.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, CheckpointError> {
        let header_len = size_of::<CheckpointHeader>();
        if bytes.len() < header_len {
            return Err(CheckpointError::Truncated { needed: header_len, got: bytes.len() });
        }
        let header = records_from_bytes::<CheckpointHeader>(&bytes[..header_len])?[0];
        if header.magic != MAGIC {
            return Err(CheckpointError::BadMagic { found: header.magic });
        }
        if header.version != FORMAT_VERSION {
            return Err(CheckpointError::BadVersion { found: header.version });
        }
        let table_len = header.section_count as usize * size_of::<SectionDesc>();
        let table_end = header_len + table_len;
        if bytes.len() < table_end {
            return Err(CheckpointError::Truncated { needed: table_end, got: bytes.len() });
        }
        let table = &bytes[header_len..table_end];
        let descs = records_from_bytes::<SectionDesc>(table)?;
        if table_crc(&header, &descs) != header.table_crc {
            return Err(CheckpointError::CrcMismatch { what: "section table" });
        }
        let mut offset = table_end;
        // Bit `k` set: a section of kind `k` was seen (known kinds are < 32).
        let mut seen = 0u32;
        for d in &descs {
            let kind = SectionKind::from_raw(d.kind).ok_or_else(|| {
                CheckpointError::Malformed(format!("unknown section kind {}", d.kind))
            })?;
            if seen & 1 << d.kind != 0 {
                return Err(CheckpointError::Malformed(format!("two {}s", kind.name())));
            }
            seen |= 1 << d.kind;
            let end = offset
                .checked_add(d.bytes as usize)
                .ok_or_else(|| CheckpointError::Malformed("section length overflow".into()))?;
            if bytes.len() < end {
                return Err(CheckpointError::Truncated { needed: end, got: bytes.len() });
            }
            if crc32(&bytes[offset..end]) != d.crc {
                return Err(CheckpointError::CrcMismatch { what: kind.name() });
            }
            offset = end;
        }
        if offset != bytes.len() {
            return Err(CheckpointError::Malformed(format!(
                "{} trailing bytes after the last section",
                bytes.len() - offset
            )));
        }
        Ok(Checkpoint { header, descs, bytes })
    }

    /// The parsed header.
    pub fn header(&self) -> &CheckpointHeader {
        &self.header
    }

    /// Epochs processed when this checkpoint was taken.
    pub fn epoch(&self) -> u64 {
        self.header.epoch
    }

    /// The full validated byte image.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Total image size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Decodes the payload of the section of `kind`.
    ///
    /// # Errors
    /// [`CheckpointError::Malformed`] when the section is absent or its
    /// byte length is not its record count times the record size.
    pub fn section<T: Pod>(&self, kind: SectionKind) -> Result<Vec<T>, CheckpointError> {
        let mut offset =
            size_of::<CheckpointHeader>() + self.descs.len() * size_of::<SectionDesc>();
        for d in &self.descs {
            let end = offset + d.bytes as usize;
            if d.kind == kind as u32 {
                if d.count.checked_mul(size_of::<T>() as u64) != Some(d.bytes) {
                    return Err(CheckpointError::Malformed(format!(
                        "{} holds {} bytes for {} records",
                        kind.name(),
                        d.bytes,
                        d.count
                    )));
                }
                return records_from_bytes(&self.bytes[offset..end]);
            }
            offset = end;
        }
        Err(CheckpointError::Malformed(format!("missing {}", kind.name())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::motion_path::PathId;
    use crate::time::Timestamp;

    fn sample() -> Checkpoint {
        let mut b = CheckpointBuilder::new(7, 70, 11, 0x2);
        b.section(SectionKind::Config, &[ConfigRecord::from_config(&Config::paper_defaults())]);
        b.section(SectionKind::Stats, &[StatsRecord::default()]);
        b.section(SectionKind::Events, &[ExpiryEvent { expiry: Timestamp(100), id: PathId(3) }]);
        b.finish()
    }

    /// `ck`'s bytes with the header and section table rewritten by
    /// `edit` and the table CRC recomputed, so the edit is the only
    /// thing wrong with them.
    fn patched(
        ck: &Checkpoint,
        edit: impl FnOnce(&mut CheckpointHeader, &mut [SectionDesc]),
    ) -> Vec<u8> {
        let (mut header, mut descs) = (ck.header, ck.descs.clone());
        edit(&mut header, &mut descs);
        header.table_crc = table_crc(&header, &descs);
        let mut bytes = bytes_of(std::slice::from_ref(&header)).to_vec();
        bytes.extend_from_slice(bytes_of(&descs));
        bytes.extend_from_slice(&ck.as_bytes()[bytes.len()..]);
        bytes
    }

    #[test]
    fn roundtrip_preserves_header_and_sections() {
        let ck = sample();
        let back = Checkpoint::from_bytes(ck.as_bytes().to_vec()).unwrap();
        assert_eq!(back.header(), ck.header());
        assert_eq!(back.epoch(), 7);
        assert_eq!(back.header().flags, 0x2);
        let events: Vec<ExpiryEvent> = back.section(SectionKind::Events).unwrap();
        assert_eq!(events, vec![ExpiryEvent { expiry: Timestamp(100), id: PathId(3) }]);
        let cfg: Vec<ConfigRecord> = back.section(SectionKind::Config).unwrap();
        cfg[0].matches(&Config::paper_defaults()).unwrap();
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let ck = sample();
        let full = ck.as_bytes();
        for cut in 0..full.len() {
            let err = Checkpoint::from_bytes(full[..cut].to_vec()).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated { .. }
                        | CheckpointError::CrcMismatch { .. }
                        | CheckpointError::Malformed(_)
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let ck = sample();
        let mut bytes = ck.as_bytes().to_vec();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            Checkpoint::from_bytes(bytes).unwrap_err(),
            CheckpointError::BadMagic { .. }
        ));

        let mut bytes = ck.as_bytes().to_vec();
        bytes[8] = 99; // version field
        assert!(matches!(
            Checkpoint::from_bytes(bytes).unwrap_err(),
            CheckpointError::BadVersion { found: 99 }
        ));
    }

    /// `sample()` with `edit` applied to its header and the table CRC
    /// recomputed, so the only thing wrong with the image is its
    /// version: the rejection must come from the typed version check,
    /// not ride along on a CRC mismatch.
    fn assert_rejected_by_version(version: u32, edit: impl FnOnce(&mut CheckpointHeader)) {
        let bytes = patched(&sample(), |h, _| {
            h.version = version;
            edit(h);
        });
        let err = Checkpoint::from_bytes(bytes).unwrap_err();
        assert!(
            matches!(err, CheckpointError::BadVersion { found } if found == version),
            "v{version}: unexpected {err:?}"
        );
    }

    #[test]
    fn v2_images_are_rejected_by_the_version_check_itself() {
        assert_rejected_by_version(2, |_| {});
    }

    #[test]
    fn v3_sharded_images_are_rejected_with_a_typed_bad_version() {
        // A v3 header as a four-shard coordinator wrote it: version 3
        // and the shard count in the slot v4 reserves. The reader must
        // name the version, not panic on the layout.
        assert_rejected_by_version(3, |h| h.reserved0 = 4);
    }

    #[test]
    fn v4_images_are_rejected_with_a_typed_bad_version() {
        // A v4 image carried per-path Heat and tombstone sections beside
        // a slab-ordered Paths section.
        assert_rejected_by_version(4, |_| {});
    }

    #[test]
    fn v5_images_are_rejected_with_a_typed_bad_version() {
        // A v5 image could carry a session section and wider config and
        // stats records.
        assert_rejected_by_version(5, |_| {});
    }

    #[test]
    fn v6_images_are_rejected_with_a_typed_bad_version() {
        // A v6 image carries an admission policy word in its config
        // record and `admitted`/`shed` counters in its stats record.
        assert_rejected_by_version(6, |_| {});
    }

    #[test]
    fn v7_images_are_rejected_with_a_typed_bad_version() {
        // A v7 image carries a 120-byte stats record with the derived
        // byte and downlink counters and a second epoch count.
        assert_rejected_by_version(7, |_| {});
    }

    #[test]
    fn retired_shard_meta_kind_is_malformed() {
        // Section kinds 4 (hotness), 6 (tombstones), 7 (per-shard meta)
        // and 8 (session records) are retired: an image carrying one is
        // malformed, never silently skipped.
        for kind in [4, 6, 7, 8] {
            let bytes = patched(&sample(), |_, descs| descs[2].kind = kind);
            assert!(matches!(Checkpoint::from_bytes(bytes), Err(CheckpointError::Malformed(_))));
        }
    }

    #[test]
    fn every_flipped_byte_is_caught() {
        // Flip each byte of the image in turn: the validator must reject
        // every single-byte corruption with a typed error (magic,
        // version, a CRC mismatch, or a malformed layout) — never accept
        // it silently, never panic.
        let ck = sample();
        let full = ck.as_bytes();
        for i in 0..full.len() {
            let mut bytes = full.to_vec();
            bytes[i] ^= 0x01;
            assert!(Checkpoint::from_bytes(bytes).is_err(), "flipped byte {i} was accepted");
        }
    }

    #[test]
    fn config_mismatch_is_typed() {
        let rec = ConfigRecord::from_config(&Config::paper_defaults());
        let other = Config::builder().k(99).build().unwrap();
        assert!(matches!(rec.matches(&other), Err(CheckpointError::ConfigMismatch(_))));
    }

    #[test]
    fn missing_section_is_malformed() {
        let ck = sample();
        assert!(matches!(
            ck.section::<MotionPath>(SectionKind::Paths),
            Err(CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
