//! The checkpoint codec: `Checkpoint::from_bytes` and then
//! `Coordinator::from_image` over damaged bytes.
//!
//! Whatever bytes a restore is handed — arbitrary ones, a valid
//! encoding cut short or extended, or one with bytes flipped — the
//! result is a coordinator or a typed `CheckpointError`: never a panic.
//! Bytes that decode are exactly the encoding of what they decode to.

use hotpath_core::checkpoint::{Checkpoint, CheckpointError};
use hotpath_core::config::Config;
use hotpath_core::coordinator::Coordinator;
use hotpath_core::geometry::{Point, Rect};
use hotpath_core::raytrace::ClientState;
use hotpath_core::time::Timestamp;
use hotpath_core::ObjectId;
use proptest::prelude::*;

fn config() -> Config {
    Config::builder().window(60).k(4).build().unwrap()
}

/// A valid encoding with every list non-empty: paths that share
/// vertices, their expiry events, and states left pending.
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
    Checkpoint::new(c.image()).as_bytes().to_vec()
}

/// Byte offsets in [`image`]'s encoding: the tolerance kind and delta
/// among the scalars, and the pending, paths and events counts. The
/// image holds 3 pending states of 9 words.
const KIND_AT: usize = 3 * 8;
const DELTA_AT: usize = 5 * 8;
const PENDING_AT: usize = 23 * 8;
const PATHS_AT: usize = PENDING_AT + 8 + 3 * 72;

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

fn update_u64(bytes: &mut [u8], at: usize, f: impl FnOnce(u64) -> u64) {
    let v = f(read_u64(bytes, at));
    bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

fn restore(bytes: &[u8]) -> Result<Coordinator, CheckpointError> {
    Coordinator::from_image(config(), Checkpoint::from_bytes(bytes.to_vec())?.image())
}

#[test]
fn the_unforged_image_restores_and_reencodes_to_itself() {
    let bytes = image();
    let c = restore(&bytes).unwrap();
    c.check_consistency().unwrap();
    assert_eq!(c.pending_len(), 3);
    assert_eq!(Checkpoint::new(c.image()).as_bytes(), bytes);
}

#[test]
fn every_truncation_is_a_typed_error() {
    let bytes = image();
    for cut in 0..bytes.len() {
        let err = restore(&bytes[..cut]).err().unwrap_or_else(|| panic!("cut {cut} restored"));
        assert!(matches!(err, CheckpointError::Truncated { .. }), "cut {cut}: {err:?}");
    }
}

fn structural(e: &CheckpointError) -> bool {
    matches!(e, CheckpointError::Malformed(_) | CheckpointError::Truncated { .. })
}

/// A forgery: what it does and the edit.
type Forgery = (&'static str, Box<dyn Fn(&mut Vec<u8>)>);

/// Edits the encoding can express but no coordinator writes: each is
/// refused by the decoder, as malformed or truncated.
#[test]
fn forgeries_are_rejected_structurally() {
    let bytes = image();
    let events_at = PATHS_AT + 8 + 40 * read_u64(&bytes, PATHS_AT) as usize;
    let forgeries: Vec<Forgery> = vec![
        ("one pending state more", Box::new(|b| update_u64(b, PENDING_AT, |n| n + 1))),
        ("one pending state fewer", Box::new(|b| update_u64(b, PENDING_AT, |n| n - 1))),
        ("a path count past the image", Box::new(|b| update_u64(b, PATHS_AT, |_| u64::MAX))),
        (
            "a path count near u64::MAX / 40",
            Box::new(|b| update_u64(b, PATHS_AT, |_| u64::MAX / 40)),
        ),
        ("one event more", Box::new(move |b| update_u64(b, events_at, |n| n + 1))),
        ("trailing bytes", Box::new(|b| b.extend_from_slice(&[0; 8]))),
        ("an unknown tolerance kind", Box::new(|b| update_u64(b, KIND_AT, |_| 2))),
        ("a crisp tolerance with a delta", Box::new(|b| update_u64(b, DELTA_AT, |_| 1))),
        (
            "a pending FSA with its corners swapped",
            Box::new(|b| {
                let fsa = PENDING_AT + 8 + 4 * 8;
                let (lo, hi) = b[fsa..fsa + 32].split_at_mut(16);
                lo.swap_with_slice(hi);
            }),
        ),
    ];
    for (what, forge) in forgeries {
        let mut forged = bytes.clone();
        forge(&mut forged);
        let err = restore(&forged).err().unwrap_or_else(|| panic!("{what}: restored"));
        assert!(structural(&err), "{what}: {err:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// Arbitrary bytes, and a valid encoding with anything appended,
    /// are refused with a typed error.
    #[test]
    fn arbitrary_bytes_and_extensions_are_refused_with_a_typed_error(
        junk in prop::collection::vec(0u8..=255, 0..1024),
        tail in prop::collection::vec(0u8..=255, 1..64),
    ) {
        prop_assert!(Checkpoint::from_bytes(junk).is_err());
        let mut extended = image();
        extended.extend_from_slice(&tail);
        let err = Checkpoint::from_bytes(extended).err();
        prop_assert!(matches!(err, Some(CheckpointError::Malformed(_))), "{:?}", err);
    }

    /// Random byte flips anywhere in the encoding: bytes that still
    /// decode are the encoding of what they decode to, and a restore
    /// from them gives a coordinator or a typed error — the adoption's
    /// own checks (config echo, path order and geometry, events) are
    /// all that stand between the bytes and a running coordinator.
    #[test]
    fn flipped_bytes_give_a_coordinator_or_a_typed_error(
        flips in prop::collection::vec((0usize..1 << 20, 1u8..=255), 1..6),
    ) {
        let mut bytes = image();
        for (at, mask) in flips {
            let at = at % bytes.len();
            bytes[at] ^= mask;
        }
        if let Ok(ck) = Checkpoint::from_bytes(bytes.clone()) {
            let again = Checkpoint::new(ck.image().clone());
            prop_assert_eq!(again.as_bytes(), &bytes[..]);
        }
        if let Ok(c) = restore(&bytes) {
            prop_assert_eq!(c.pending_len(), 3);
        }
    }
}
