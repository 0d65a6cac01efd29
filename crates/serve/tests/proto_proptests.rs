//! Property tests for the wire protocol: the decoder is total (never
//! panics, for any bytes), encode→decode is bit-exact for every frame
//! type the protocol defines, the protocol speaks exactly one version,
//! and the retired type bytes stay retired.

use at_channel::geometry::pt;
use at_config::TopologyOp;
use at_core::health::{ApStatus, LocalizeError};
use at_core::synthesis::ApPose;
use at_core::AoaSpectrum;
use at_serve::codec::CompressedMode;
use at_serve::proto::{decode, ApHealthReport, DecodeError, Frame, HEADER_LEN, MAGIC, VERSION};
use proptest::prelude::*;

/// Type bytes of the frames version 6 retired (the per-connection
/// session's submit, localize, clear, and compressed submit).
const RETIRED_TYPES: [u8; 4] = [0x01, 0x03, 0x04, 0x08];

/// Number of frame types the protocol defines.
const KINDS: u32 = 18;

/// Which frame type `frame` is. The match is exhaustive, so adding a
/// frame type to the protocol (or removing one) fails to compile here
/// until [`frame_of_kind`] generates it too.
fn kind(frame: &Frame) -> u32 {
    match frame {
        Frame::ReportFailure { .. } => 0,
        Frame::Ping { .. } => 1,
        Frame::SubmitKeyed { .. } => 2,
        Frame::LocalizeKey { .. } => 3,
        Frame::SubmitCompressedKeyed { .. } => 4,
        Frame::SubmitAck { .. } => 5,
        Frame::Fix { .. } => 6,
        Frame::Failed { .. } => 7,
        Frame::Overloaded { .. } => 8,
        Frame::DeadlineExceeded => 9,
        Frame::Pong { .. } => 10,
        Frame::ProtocolError { .. } => 11,
        Frame::ShuttingDown => 12,
        Frame::MetricsQuery => 13,
        Frame::MetricsReport { .. } => 14,
        Frame::Reconfigure { .. } => 15,
        Frame::TopologyQuery => 16,
        Frame::TopologyInfo { .. } => 17,
    }
}

/// A deterministic but seed-scrambled spectrum body: arbitrary finite
/// non-negative `f64`s, which the raw and lossless wire forms carry
/// bit-exactly.
fn scrambled_spectrum(bins: usize, seed: u64) -> AoaSpectrum {
    let mut state = seed | 1;
    let values: Vec<f64> = (0..bins)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 10.0
        })
        .collect();
    AoaSpectrum::from_values(values)
}

/// Builds a frame of type `kind` (see [`kind`]) from raw draws: `a`/`b`
/// fill the integer fields, `c` the counts, `x` the floats, and `seed`
/// the spectra and strings.
fn frame_of_kind(kind: u32, a: u32, b: u64, c: usize, x: f64, seed: u64) -> Frame {
    let bins = [8, 64, 360, 720][(seed % 4) as usize];
    let pose = |i: usize| ApPose {
        center: pt(x + i as f64, -x * 0.5),
        axis_angle: (i as f64 * 0.7) % 3.1,
    };
    let status = [ApStatus::Healthy, ApStatus::Degraded, ApStatus::Down][c % 3];
    match kind {
        0 => Frame::ReportFailure { ap_id: a },
        1 => Frame::Ping { token: b },
        2 => Frame::SubmitKeyed {
            key: b,
            ap_id: a % 64,
            age: u64::from(a % 100),
            spectrum: scrambled_spectrum(bins, seed),
        },
        3 => Frame::LocalizeKey {
            key: b,
            deadline_ms: a,
        },
        // Lossless mode carries any spectrum bit-exactly; the quantized
        // mode's round trip lives in the codec property tests.
        4 => Frame::SubmitCompressedKeyed {
            key: b,
            ap_id: a % 64,
            age: u64::from(a % 100),
            mode: CompressedMode::Lossless,
            spectrum: scrambled_spectrum(bins, seed),
        },
        5 => Frame::SubmitAck { observations: a },
        6 => Frame::Fix {
            x,
            y: -x / 3.0,
            likelihood: 1.5f64 * 10f64.powi((c % 600) as i32 - 300),
            health: (0..c % 6)
                .map(|i| ApHealthReport {
                    ap_id: i as u32,
                    status,
                    consecutive_failures: a % 100,
                })
                .collect(),
        },
        7 => Frame::Failed {
            error: match c % 3 {
                0 => LocalizeError::NoObservations,
                1 => LocalizeError::QuorumNotMet {
                    available: c,
                    required: c + 1,
                    stale: c / 2,
                    down: c / 3,
                    degenerate: c / 5,
                },
                _ => LocalizeError::ResolutionMismatch {
                    observation: c,
                    bins: c + 8,
                    expected: c + 16,
                },
            },
        },
        8 => Frame::Overloaded { retry_after_ms: a },
        9 => Frame::DeadlineExceeded,
        10 => Frame::Pong { token: b },
        // ASCII subset: the encoder truncates at u16::MAX and re-reads
        // as lossy UTF-8.
        11 => Frame::ProtocolError {
            code: a as u8,
            message: String::from_utf8(vec![32 + (seed % 95) as u8; c % 200]).unwrap(),
        },
        12 => Frame::ShuttingDown,
        13 => Frame::MetricsQuery,
        14 => Frame::MetricsReport {
            text: format!("at_serve_requests_total {b}\n").repeat(c % 20),
        },
        15 => Frame::Reconfigure {
            op: match c % 3 {
                0 => TopologyOp::Add { pose: pose(c) },
                1 => TopologyOp::Remove { ap_id: a % 10 },
                _ => TopologyOp::Move {
                    ap_id: a % 10,
                    pose: pose(c),
                },
            },
        },
        16 => Frame::TopologyQuery,
        17 => Frame::TopologyInfo {
            epoch: b,
            fingerprint: b.rotate_left(17) ^ seed,
            poses: (0..c % 8).map(pose).collect(),
        },
        _ => unreachable!("frame kind {kind} out of range"),
    }
}

fn frame_strategy() -> impl Strategy<Value = Frame> {
    (
        0..KINDS,
        0u32..u32::MAX,
        0u64..u64::MAX,
        0usize..10_000,
        -1e6f64..1e6,
        0u64..u64::MAX,
    )
        .prop_map(|(k, a, b, c, x, seed)| frame_of_kind(k, a, b, c, x, seed))
}

/// The round-trip generator covers exactly the frame types the protocol
/// defines: [`kind`] is exhaustive over `Frame`, and every kind is
/// generated.
#[test]
fn generator_covers_exactly_the_surviving_frames() {
    for k in 0..KINDS {
        assert_eq!(kind(&frame_of_kind(k, 1, 2, 3, 4.0, 5)), k);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes never panic the decoder: they decode, ask for
    /// more, or fail with a typed error.
    #[test]
    fn decoder_is_total_on_random_bytes(bytes in proptest::collection::vec((0u32..256).prop_map(|v| v as u8), 0..96)) {
        let _ = decode(&bytes);
    }

    /// Random bytes carrying a valid header prefix exercise the payload
    /// parsers without panicking.
    #[test]
    fn decoder_is_total_on_header_shaped_bytes(
        ty_raw in 0u32..256,
        payload in proptest::collection::vec((0u32..256).prop_map(|v| v as u8), 0..64),
    ) {
        let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(ty_raw as u8);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let _ = decode(&bytes);
    }

    /// Truncating or bit-flipping a valid frame never panics, and a
    /// truncation is never misread as a complete frame.
    #[test]
    fn corrupted_frames_fail_cleanly(
        frame in frame_strategy(),
        cut_frac in 0.0f64..1.0,
        flip_frac in 0.0f64..1.0,
        flip_bit in 0u8..8,
    ) {
        let bytes = frame.encode();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        if let Ok(Some((_, used))) = decode(&bytes[..cut.min(bytes.len())]) {
            prop_assert!(used <= cut);
        }
        let mut flipped = bytes.clone();
        let at = ((flipped.len() as f64) * flip_frac) as usize % flipped.len();
        flipped[at] ^= 1 << flip_bit;
        let _ = decode(&flipped);
    }

    /// Every frame type round-trips bit-exactly for arbitrary field
    /// values (f64 payloads compare through `PartialEq`, which the
    /// encoders preserve bit-for-bit via `to_bits`/`from_bits`), and
    /// encodes under the one protocol version.
    #[test]
    fn every_frame_roundtrips_bit_exact(frame in frame_strategy()) {
        let bytes = frame.encode();
        prop_assert_eq!(bytes[2], VERSION);
        let (decoded, used) = decode(&bytes)
            .expect("own encoding must decode")
            .expect("own encoding is complete");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(&decoded, &frame);
    }

    /// Every header version byte other than `VERSION` is `BadVersion`,
    /// whatever the frame type and payload behind it.
    #[test]
    fn every_other_version_is_bad_version(
        frame in frame_strategy(),
        version_raw in 0u32..256,
    ) {
        let version = version_raw as u8;
        prop_assume!(version != VERSION);
        let mut bytes = frame.encode();
        bytes[2] = version;
        prop_assert_eq!(decode(&bytes), Err(DecodeError::BadVersion { got: version }));
    }

    /// The retired type bytes under a valid header are `UnknownType`,
    /// whatever payload follows — never a misparse into a live frame.
    #[test]
    fn retired_type_bytes_are_unknown_types(
        pick in 0usize..4,
        payload in proptest::collection::vec((0u32..256).prop_map(|v| v as u8), 0..64),
    ) {
        let retired = RETIRED_TYPES[pick];
        let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(retired);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        prop_assert_eq!(decode(&bytes), Err(DecodeError::UnknownType { got: retired }));
    }
}
