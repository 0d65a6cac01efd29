//! Property tests for the topology-epoch machinery: the `Reconfigure`
//! decoder is total (never panics, for any payload bytes), topology
//! frames round-trip bit-exactly, and arbitrary op sequences — valid or
//! not — never panic `SystemConfig::apply` or the session store's remap,
//! while the store's counters stay consistent through every transition.

use std::sync::Arc;

use at_channel::geometry::pt;
use at_config::{SessionPolicy, SystemConfig, TopologyOp};
use at_core::synthesis::{ApPose, SearchRegion};
use at_core::AoaSpectrum;
use at_serve::proto::{decode, Frame, HEADER_LEN, MAGIC, VERSION};
use at_serve::SessionStore;
use proptest::prelude::*;

fn pose_strategy() -> impl Strategy<Value = ApPose> {
    (-50.0f64..50.0, -50.0f64..50.0, -3.2f64..3.2).prop_map(|(x, y, axis_angle)| ApPose {
        center: pt(x, y),
        axis_angle,
    })
}

/// Ops with ids deliberately allowed out of range, so refusal paths get
/// as much coverage as applications.
fn op_strategy() -> impl Strategy<Value = TopologyOp> {
    (0u32..3, 0u32..10, pose_strategy()).prop_map(|(kind, ap_id, pose)| match kind {
        0 => TopologyOp::Add { pose },
        1 => TopologyOp::Remove { ap_id },
        _ => TopologyOp::Move { ap_id, pose },
    })
}

fn base_config(n_aps: usize) -> SystemConfig {
    SystemConfig {
        poses: (0..n_aps)
            .map(|i| ApPose {
                center: pt(i as f64 * 5.0, 0.0),
                axis_angle: 0.1 * i as f64,
            })
            .collect(),
        region: SearchRegion::new(pt(0.0, 0.0), pt(20.0, 10.0)),
        bins: 96,
        health: Default::default(),
        session: SessionPolicy {
            max_resident_spectra: 64,
            ..SessionPolicy::default()
        },
        codec: Default::default(),
    }
}

fn flat_spectrum() -> Arc<AoaSpectrum> {
    Arc::new(AoaSpectrum::from_values(vec![1.0; 16]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A `Reconfigure` frame with arbitrary payload bytes never
    /// panics the decoder: it decodes, asks for more, or fails typed.
    #[test]
    fn reconfigure_payloads_never_panic_decoder(
        payload in proptest::collection::vec((0u32..256).prop_map(|v| v as u8), 0..96),
    ) {
        let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(0x0B); // Reconfigure
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let _ = decode(&bytes);
    }

    /// `Reconfigure` and `TopologyInfo` round-trip bit-exactly for
    /// arbitrary ops and pose lists.
    #[test]
    fn topology_frames_roundtrip_bit_exact(
        op in op_strategy(),
        epoch in 0u64..u64::MAX,
        fingerprint in 0u64..u64::MAX,
        poses in proptest::collection::vec(pose_strategy(), 0..8),
    ) {
        for frame in [
            Frame::Reconfigure { op },
            Frame::TopologyQuery,
            Frame::TopologyInfo { epoch, fingerprint, poses },
        ] {
            let bytes = frame.encode();
            let (decoded, used) = decode(&bytes)
                .expect("own encoding must decode")
                .expect("own encoding is complete");
            prop_assert_eq!(used, bytes.len());
            prop_assert_eq!(&decoded, &frame);
        }
    }

    /// An encoded op round-trips through `TopologyOp::decode` exactly and
    /// consumes every byte it wrote.
    #[test]
    fn topology_ops_roundtrip(op in op_strategy()) {
        let mut bytes = Vec::new();
        op.encode(&mut bytes);
        let (decoded, used) = TopologyOp::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(decoded, op);
    }

    /// Arbitrary op sequences never panic `SystemConfig::apply` or the
    /// store: each op either applies (config re-validates, store remaps,
    /// counters stay consistent, the store keeps accepting submits) or is
    /// refused typed with the config and store untouched.
    #[test]
    fn op_sequences_never_panic_config_or_store(
        n0 in 1usize..6,
        ops in proptest::collection::vec(op_strategy(), 0..12),
        keys in proptest::collection::vec(0u64..8, 0..12),
    ) {
        let mut config = base_config(n0);
        let store = SessionStore::new(config.poses.len(), config.session);
        // Seed some resident sessions so remaps shift real spectra.
        for (i, &key) in keys.iter().enumerate() {
            store.submit(key, i % config.poses.len(), 0, flat_spectrum());
        }
        for op in &ops {
            match config.apply(op) {
                Ok((next, mapping)) => {
                    prop_assert!(next.validate().is_ok(), "applied config must re-validate");
                    prop_assert_eq!(mapping.n_new, next.poses.len());
                    prop_assert_eq!(mapping.old_to_new.len(), config.poses.len());
                    store.remap(&mapping.old_to_new, mapping.n_new);
                    config = next;
                }
                Err(_) => continue, // typed refusal; epoch unchanged
            }
            let stats = store.stats();
            prop_assert!(
                stats.resident_spectra <= config.session.max_resident_spectra as u64,
                "remap must not overflow the resident cap"
            );
            // The store keeps serving the new epoch's id space.
            store.submit(99, config.poses.len() - 1, 0, flat_spectrum());
            prop_assert!(store.snapshot(99).is_some());
            store.clear(99);
        }
    }
}
