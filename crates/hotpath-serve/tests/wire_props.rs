//! The wire trust boundary: `read_frame_into` over hostile byte streams.
//!
//! Whatever arrives on the socket — arbitrary bytes, valid frames cut
//! short, frames whose length prefix lies — each read gives a frame,
//! `Ok(None)` or a typed `io::Error`: never a panic, and never a payload
//! buffer grown past `MAX_FRAME_BYTES`.

use std::io::{self, BufReader};

use hotpath_serve::wire::{read_frame_into, write_frame, MAX_FRAME_BYTES};
use proptest::prelude::*;

/// One parsed frame: opcode and payload.
type Frame = (u8, Vec<u8>);

/// How a stream of frames ended.
#[derive(Debug)]
enum End {
    CleanEof,
    Error(io::ErrorKind),
}

/// Reads frames through a `BufReader` (as both ends of a connection do)
/// until a clean EOF or an error, checking the buffer bound after every
/// read.
fn drain(bytes: &[u8]) -> Result<(Vec<Frame>, End), TestCaseError> {
    let mut r = BufReader::new(bytes);
    let mut buf = Vec::new();
    let mut frames = Vec::new();
    loop {
        let read = read_frame_into(&mut r, &mut buf);
        prop_assert!(buf.capacity() <= MAX_FRAME_BYTES, "buffer grew to {}", buf.capacity());
        match read {
            Ok(Some(op)) => frames.push((op, buf.clone())),
            Ok(None) => return Ok((frames, End::CleanEof)),
            Err(e) => return Ok((frames, End::Error(e.kind()))),
        }
    }
}

/// Frames `(opcode, payload)` back to back, as `write_frame` lays them out.
fn frames(parts: &[Frame]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut buf = Vec::new();
    for (op, payload) in parts {
        write_frame(&mut out, &mut buf, *op, |b| b.extend_from_slice(payload)).unwrap();
    }
    out
}

fn payload() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..=255, 0..200)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_bytes_give_frames_eof_or_a_typed_error(
        bytes in prop::collection::vec(0u8..=255, 0..256),
    ) {
        let (_, end) = drain(&bytes)?;
        if let End::Error(kind) = end {
            prop_assert!(
                matches!(kind, io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof),
                "untyped error {kind:?}"
            );
        }
    }

    #[test]
    fn any_declared_length_is_bounded_before_allocation(
        small in 0u32..600,
        large in 0u32..=(MAX_FRAME_BYTES as u32 + 64),
        use_large in 0u8..2,
        opcode in 0u8..=255,
        tail in prop::collection::vec(0u8..=255, 0..600),
    ) {
        let declared = if use_large == 1 { large } else { small };
        let mut bytes = declared.to_le_bytes().to_vec();
        bytes.push(opcode);
        bytes.extend_from_slice(&tail);
        let (frames, end) = drain(&bytes)?;
        let body = declared as usize;
        if body == 0 || body > MAX_FRAME_BYTES {
            prop_assert!(frames.is_empty());
            prop_assert!(matches!(end, End::Error(io::ErrorKind::InvalidData)), "{end:?}");
        } else if body - 1 > tail.len() {
            prop_assert!(frames.is_empty());
            prop_assert!(matches!(end, End::Error(io::ErrorKind::UnexpectedEof)), "{end:?}");
        } else {
            prop_assert_eq!(&frames[0], &(opcode, tail[..body - 1].to_vec()));
        }
    }

    #[test]
    fn truncated_frames_parse_up_to_the_cut_then_fail_typed(
        parts in prop::collection::vec((0u8..=255, payload()), 1..4),
        cut_seed in 0usize..1_000_000,
    ) {
        let bytes = frames(&parts);
        let cut = cut_seed % (bytes.len() + 1);
        let (got, end) = drain(&bytes[..cut])?;
        // The frames that end at or before the cut parse in order.
        let mut at = 0;
        let mut whole = 0;
        for (_, p) in &parts {
            if at + 5 + p.len() > cut {
                break;
            }
            at += 5 + p.len();
            whole += 1;
        }
        prop_assert_eq!(&got[..], &parts[..whole]);
        if at == cut {
            prop_assert!(matches!(end, End::CleanEof), "cut at a boundary: {end:?}");
        } else {
            prop_assert!(matches!(end, End::Error(io::ErrorKind::UnexpectedEof)), "{end:?}");
        }
    }

    #[test]
    fn a_false_length_gives_a_shorter_frame_or_a_typed_error(
        opcode in 0u8..=255,
        body in payload(),
        lie in 0u32..400,
        huge in 0u8..2,
    ) {
        let mut bytes = frames(&[(opcode, body.clone())]);
        let lie = if huge == 1 { u32::MAX - lie } else { lie };
        bytes[..4].copy_from_slice(&lie.to_le_bytes());
        let (got, end) = drain(&bytes)?;
        let declared = lie as usize;
        if declared == 0 || declared > MAX_FRAME_BYTES {
            prop_assert!(got.is_empty());
            prop_assert!(matches!(end, End::Error(io::ErrorKind::InvalidData)), "{end:?}");
        } else if declared > 1 + body.len() {
            prop_assert!(got.is_empty());
            prop_assert!(matches!(end, End::Error(io::ErrorKind::UnexpectedEof)), "{end:?}");
        } else {
            prop_assert_eq!(&got[0], &(opcode, body[..declared - 1].to_vec()));
        }
    }
}
