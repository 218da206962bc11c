//! The checkpoint trust boundary: `Checkpoint::from_bytes` and then
//! `Coordinator::from_checkpoint` over damaged and forged images.
//!
//! Whatever bytes a restore is handed — a valid image cut short, one
//! with bytes flipped, or a forgery whose CRCs were recomputed so that
//! only the structural checks stand in its way — the result is a
//! coordinator or a typed `CheckpointError`: never a panic. Forgeries
//! the format rules out must be rejected, and not by a CRC.

use hotpath_core::checkpoint::{
    crc32, Checkpoint, CheckpointBuilder, CheckpointError, ConfigRecord, SectionKind, StatsRecord,
};
use hotpath_core::config::Config;
use hotpath_core::coordinator::Coordinator;
use hotpath_core::geometry::{Point, Rect};
use hotpath_core::index::ExpiryEvent;
use hotpath_core::motion_path::MotionPath;
use hotpath_core::raytrace::ClientState;
use hotpath_core::time::Timestamp;
use hotpath_core::ObjectId;
use proptest::prelude::*;

/// Header size, and where its section count, flags, version and table
/// CRC sit.
const HEADER: usize = 56;
const VERSION_AT: usize = 8;
const COUNT_AT: usize = 40;
const FLAGS_AT: usize = 44;
const TABLE_CRC_AT: usize = 48;
/// Section descriptor size, and where its kind, record count, byte
/// length and payload CRC sit.
const DESC: usize = 32;
const KIND_AT: usize = 0;
const RECORDS_AT: usize = 8;
const BYTES_AT: usize = 16;
const CRC_AT: usize = 24;

fn config() -> Config {
    Config::builder().window(60).k(4).build().unwrap()
}

/// A valid v7 image with every section kind: paths that share vertices,
/// their expiry events, and states left pending.
fn image() -> Vec<u8> {
    let mut c = Coordinator::new(config());
    let state = |obj: u64, te: u64| {
        let x = (obj % 3) as f64 * 50.0;
        let end = Point::new(x + 40.0, (obj % 2) as f64 * 30.0);
        ClientState {
            object: ObjectId(obj),
            start: Point::new(x, 0.0),
            ts: Timestamp(te - 5),
            fsa: Rect::new(end - Point::new(3.0, 3.0), end + Point::new(3.0, 3.0)),
            te: Timestamp(te),
        }
    };
    for e in 1..=4u64 {
        c.submit_batch((0..8).map(|o| state(o, e * 10 - 1 - o % 3)));
        let _ = c.process_epoch(Timestamp(e * 10));
    }
    c.submit_batch((0..3).map(|o| state(o, 45)));
    c.checkpoint().as_bytes().to_vec()
}

fn restore(bytes: &[u8]) -> Result<Coordinator, CheckpointError> {
    Coordinator::from_checkpoint(config(), &Checkpoint::from_bytes(bytes.to_vec())?)
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_ne_bytes(bytes[at..at + 4].try_into().unwrap())
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_ne_bytes(bytes[at..at + 8].try_into().unwrap())
}

fn update_u32(bytes: &mut [u8], at: usize, f: impl FnOnce(u32) -> u32) {
    let v = f(read_u32(bytes, at));
    bytes[at..at + 4].copy_from_slice(&v.to_ne_bytes());
}

fn update_u64(bytes: &mut [u8], at: usize, f: impl FnOnce(u64) -> u64) {
    let v = f(read_u64(bytes, at));
    bytes[at..at + 8].copy_from_slice(&v.to_ne_bytes());
}

/// Recomputes every payload CRC the section table can reach and then
/// the table CRC, so the image's CRCs vouch for whatever it now says.
fn reseal(bytes: &mut [u8]) {
    let count = read_u32(bytes, COUNT_AT) as usize;
    let table_end = (HEADER + count * DESC).min(bytes.len());
    let mut offset = table_end;
    for d in (HEADER..table_end).step_by(DESC).filter(|d| d + DESC <= table_end) {
        let end = offset.checked_add(read_u64(bytes, d + BYTES_AT) as usize);
        let Some(end) = end.filter(|&end| end <= bytes.len()) else { break };
        let crc = crc32(&bytes[offset..end]);
        update_u32(bytes, d + CRC_AT, |_| crc);
        offset = end;
    }
    update_u32(bytes, TABLE_CRC_AT, |_| 0);
    let crc = crc32(&bytes[..table_end]);
    update_u32(bytes, TABLE_CRC_AT, |_| crc);
}

/// Offset of descriptor `i`.
fn desc(i: usize) -> usize {
    HEADER + i * DESC
}

#[test]
fn the_unforged_image_restores_and_reseals_to_itself() {
    let bytes = image();
    restore(&bytes).unwrap().check_consistency().unwrap();
    let mut resealed = bytes.clone();
    reseal(&mut resealed);
    assert_eq!(resealed, bytes);
}

#[test]
fn every_truncation_is_a_typed_error() {
    let bytes = image();
    for cut in 0..bytes.len() {
        let err = restore(&bytes[..cut]).err().unwrap_or_else(|| panic!("cut {cut} restored"));
        assert!(
            matches!(
                err,
                CheckpointError::Truncated { .. }
                    | CheckpointError::CrcMismatch { .. }
                    | CheckpointError::Malformed(_)
            ),
            "cut {cut}: {err:?}"
        );
    }
}

/// `bytes` rebuilt with the pending section written twice, every
/// other section as it was: every section a restore needs is present.
fn with_pending_twice(bytes: &[u8]) -> Vec<u8> {
    let ck = Checkpoint::from_bytes(bytes.to_vec()).unwrap();
    let h = ck.header();
    let pending: Vec<ClientState> = ck.section(SectionKind::Pending).unwrap();
    let mut b = CheckpointBuilder::new(h.epoch, h.clock, h.next_path_id, h.flags);
    b.section::<ConfigRecord>(SectionKind::Config, &ck.section(SectionKind::Config).unwrap());
    b.section::<StatsRecord>(SectionKind::Stats, &ck.section(SectionKind::Stats).unwrap());
    b.section(SectionKind::Pending, &pending);
    b.section(SectionKind::Pending, &pending);
    b.section::<MotionPath>(SectionKind::Paths, &ck.section(SectionKind::Paths).unwrap());
    b.section::<ExpiryEvent>(SectionKind::Events, &ck.section(SectionKind::Events).unwrap());
    b.finish().as_bytes().to_vec()
}

fn structural(e: &CheckpointError) -> bool {
    matches!(e, CheckpointError::Malformed(_) | CheckpointError::Truncated { .. })
}

fn bad_version(e: &CheckpointError) -> bool {
    matches!(e, CheckpointError::BadVersion { found: 3 | 4 | 5 | 6 | 7 | 9 })
}

fn config_mismatch(e: &CheckpointError) -> bool {
    matches!(e, CheckpointError::ConfigMismatch(_))
}

/// A forgery: what it does, the edit, and the refusal it must meet.
type Forgery = (&'static str, Box<dyn Fn(&mut Vec<u8>)>, fn(&CheckpointError) -> bool);

/// Forgeries with every CRC recomputed: each must be refused by the
/// structural check it targets, never by a CRC.
#[test]
fn resealed_forgeries_are_rejected_structurally() {
    let bytes = image();
    let last = desc(read_u32(&bytes, COUNT_AT) as usize - 1);
    let forgeries: Vec<Forgery> = vec![
        ("one section more", Box::new(|b| update_u32(b, COUNT_AT, |n| n + 1)), structural),
        ("one section fewer", Box::new(|b| update_u32(b, COUNT_AT, |n| n - 1)), structural),
        (
            "a section count past the image",
            Box::new(|b| update_u32(b, COUNT_AT, |_| u32::MAX)),
            structural,
        ),
        (
            "first length near u64::MAX",
            Box::new(|b| update_u64(b, desc(0) + BYTES_AT, |_| u64::MAX - 7)),
            structural,
        ),
        (
            "last length near u64::MAX",
            Box::new(move |b| update_u64(b, last + BYTES_AT, |_| u64::MAX - 7)),
            structural,
        ),
        ("an unknown kind", Box::new(|b| update_u32(b, desc(0) + KIND_AT, |_| 9)), structural),
        ("a retired kind", Box::new(|b| update_u32(b, desc(1) + KIND_AT, |_| 4)), structural),
        ("a duplicate kind", Box::new(|b| *b = with_pending_twice(b)), structural),
        ("trailing bytes", Box::new(|b| b.extend_from_slice(&[0; 8])), structural),
        (
            "a record count that lies",
            Box::new(move |b| update_u64(b, last + RECORDS_AT, |n| n + 1)),
            structural,
        ),
        ("version 3", Box::new(|b| update_u32(b, VERSION_AT, |_| 3)), bad_version),
        ("version 4", Box::new(|b| update_u32(b, VERSION_AT, |_| 4)), bad_version),
        ("version 5", Box::new(|b| update_u32(b, VERSION_AT, |_| 5)), bad_version),
        ("version 6", Box::new(|b| update_u32(b, VERSION_AT, |_| 6)), bad_version),
        ("version 7", Box::new(|b| update_u32(b, VERSION_AT, |_| 7)), bad_version),
        ("version 9", Box::new(|b| update_u32(b, VERSION_AT, |_| 9)), bad_version),
        (
            "the retired hints bit",
            Box::new(|b| update_u32(b, FLAGS_AT, |f| f | 1)),
            config_mismatch,
        ),
        (
            "the retired overlap bit",
            Box::new(|b| update_u32(b, FLAGS_AT, |f| f | 1 << 1)),
            config_mismatch,
        ),
        ("an unknown flag", Box::new(|b| update_u32(b, FLAGS_AT, |f| f | 1 << 7)), config_mismatch),
    ];
    for (what, forge, refused) in forgeries {
        let mut forged = bytes.clone();
        forge(&mut forged);
        reseal(&mut forged);
        let err = restore(&forged).err().unwrap_or_else(|| panic!("{what}: restored"));
        assert!(refused(&err), "{what}: {err:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// Random byte flips anywhere in the image: a typed error, since a
    /// CRC covers every byte.
    #[test]
    fn flipped_bytes_are_refused_with_a_typed_error(
        flips in prop::collection::vec((0usize..1 << 20, 1u8..=255), 1..6),
    ) {
        let mut bytes = image();
        for (at, mask) in flips {
            let at = at % bytes.len();
            bytes[at] ^= mask;
        }
        prop_assert!(restore(&bytes).is_err());
    }

    /// Random byte flips in the section payloads with every CRC
    /// recomputed, so the image parses and the sections' own checks
    /// (config echo, path order and geometry, events) are all
    /// that stand between the bytes and a running coordinator.
    #[test]
    fn resealed_payload_flips_give_a_coordinator_or_a_typed_error(
        flips in prop::collection::vec((0usize..1 << 20, 1u8..=255), 1..6),
    ) {
        let mut bytes = image();
        let payload = HEADER + read_u32(&bytes, COUNT_AT) as usize * DESC;
        for (at, mask) in flips {
            let at = payload + at % (bytes.len() - payload);
            bytes[at] ^= mask;
        }
        reseal(&mut bytes);
        Checkpoint::from_bytes(bytes.clone()).map_err(|e| TestCaseError::fail(e.to_string()))?;
        if let Ok(c) = restore(&bytes) {
            prop_assert_eq!(c.pending_len(), 3);
        }
    }
}
