//! End-to-end tests of the compressed uplink: lossless replay is
//! bit-exact through the keyed store, quantized ingestion stays inside
//! the 1 mm fix-displacement budget while compressing ≥8×, and the
//! server's uplink accounting sees what actually crossed the wire.

use at_channel::geometry::{pt, Point};
use at_core::health::HealthPolicy;
use at_core::synthesis::{ApPose, SearchRegion};
use at_core::{AoaSpectrum, ArrayTrackServer};
use at_serve::codec;
use at_serve::proto::HEADER_LEN;
use at_serve::{spawn, ApClient, AppClient, ClientConfig, Encoding, ServeConfig, ServiceConfig};

const BINS: usize = 720;
const KEY: u64 = 0xC0DEC;

fn poses() -> Vec<ApPose> {
    vec![
        ApPose {
            center: pt(0.0, 0.0),
            axis_angle: 0.3,
        },
        ApPose {
            center: pt(20.0, 0.0),
            axis_angle: 2.0,
        },
        ApPose {
            center: pt(20.0, 10.0),
            axis_angle: -2.2,
        },
        ApPose {
            center: pt(0.0, 10.0),
            axis_angle: -0.4,
        },
    ]
}

fn region() -> SearchRegion {
    SearchRegion::new(pt(0.0, 0.0), pt(20.0, 10.0))
}

fn service() -> ServiceConfig {
    ServiceConfig {
        poses: poses(),
        region: region(),
        bins: BINS,
        policy: HealthPolicy::default(),
    }
}

/// The loadgen lobe shape: a narrow Gaussian over a 1 % floor, the
/// workload the ≥8× compression bar is defined against.
fn lobe_spectrum(ap: usize, target: Point) -> AoaSpectrum {
    let bearing = poses()[ap].bearing_to(target);
    AoaSpectrum::from_fn(BINS, |t| {
        let d = at_channel::geometry::angle_diff(t, bearing);
        (-(d / 0.22).powi(2)).exp() + 0.01
    })
}

#[test]
fn lossless_uplink_is_bit_exact_with_raw_ingestion() {
    let target = pt(6.5, 3.5);
    let server = spawn(service(), ServeConfig::default(), "127.0.0.1:0").expect("spawn");

    let mut reference = ArrayTrackServer::new(region());
    let mut ap = ApClient::connect_with(
        server.addr(),
        ClientConfig::default(),
        Encoding::LosslessDelta,
    )
    .expect("connect");
    for (i, pose) in poses().into_iter().enumerate() {
        let spectrum = lobe_spectrum(i, target);
        reference.add_observation_from(i, pose, spectrum.clone(), 0);
        let n = ap.submit(KEY, i as u32, 0, &spectrum).expect("submit");
        assert_eq!(n as usize, i + 1);
    }

    let expected = reference.try_localize().expect("reference fix");
    let mut app = AppClient::connect(server.addr(), ClientConfig::default()).expect("connect");
    let fix = app.localize(KEY, None).expect("networked fix");
    assert_eq!(fix.position.x.to_bits(), expected.position.x.to_bits());
    assert_eq!(fix.position.y.to_bits(), expected.position.y.to_bits());
    assert_eq!(fix.likelihood.to_bits(), expected.likelihood.to_bits());

    let stats = server.shutdown();
    assert_eq!(stats.submits_compressed, 4);
    assert_eq!(stats.submits_raw, 0);
    assert!(stats.uplink_compressed_bytes > 0);
    assert!(
        stats.uplink_raw_equiv_bytes > stats.uplink_compressed_bytes,
        "lossless delta must still beat raw on smooth spectra: {} vs {}",
        stats.uplink_raw_equiv_bytes,
        stats.uplink_compressed_bytes
    );
}

#[test]
fn quantized_uplink_compresses_8x_within_the_fix_budget() {
    // The displacement budget is a *median*: quantization noise (~2·10⁻⁴
    // relative) usually perturbs the fused likelihood surface too little
    // to move the refined optimum at all, but near-plateau geometries can
    // wander centimetres. Nine targets around the room; p50 must stay
    // under 1 mm (empirically most fixes are bit-identical to the raw
    // path).
    let server = spawn(service(), ServeConfig::default(), "127.0.0.1:0").expect("spawn");
    let mut ap =
        ApClient::connect_with(server.addr(), ClientConfig::default(), Encoding::Quantized)
            .expect("connect");
    let mut app = AppClient::connect(server.addr(), ClientConfig::default()).expect("connect");

    let mut displacements = Vec::new();
    for t in 0..9u64 {
        let target = pt(
            1.0 + (t as f64 * 3.47) % 18.0,
            1.0 + (t as f64 * 1.83) % 8.0,
        );
        // Two references: the raw-ingestion fix (the accuracy yardstick)
        // and the grid-snapped fix (what the quantized wire path must
        // match bit-for-bit, since the server fuses exactly what it
        // decoded).
        let mut raw_ref = ArrayTrackServer::new(region());
        let mut snapped_ref = ArrayTrackServer::new(region());
        for (i, pose) in poses().into_iter().enumerate() {
            let spectrum = lobe_spectrum(i, target);
            raw_ref.add_observation_from(i, pose, spectrum.clone(), 0);
            snapped_ref.add_observation_from(i, pose, codec::quantized(&spectrum), 0);
            ap.submit(KEY + t, i as u32, 0, &spectrum).expect("submit");
        }
        let raw_fix = raw_ref.try_localize().expect("raw reference fix");
        let snapped_fix = snapped_ref.try_localize().expect("snapped reference fix");

        let fix = app.localize(KEY + t, None).expect("networked fix");
        assert_eq!(fix.position.x.to_bits(), snapped_fix.position.x.to_bits());
        assert_eq!(fix.position.y.to_bits(), snapped_fix.position.y.to_bits());

        let dx = fix.position.x - raw_fix.position.x;
        let dy = fix.position.y - raw_fix.position.y;
        displacements.push((dx * dx + dy * dy).sqrt());
    }
    displacements.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let p50 = displacements[displacements.len() / 2];
    assert!(
        p50 < 1e-3,
        "quantization moved the median fix {p50} m (budget 1 mm); all: {displacements:?}"
    );

    let stats = server.shutdown();
    assert_eq!(stats.submits_compressed, 9 * 4);
    let ratio = stats.uplink_raw_equiv_bytes as f64 / stats.uplink_compressed_bytes as f64;
    assert!(
        ratio >= 8.0,
        "quantized lobe uplink must compress ≥8×, got {ratio:.2}× \
         ({} raw-equivalent vs {} wire bytes)",
        stats.uplink_raw_equiv_bytes,
        stats.uplink_compressed_bytes
    );
}

#[test]
fn raw_ingestion_accounting_still_adds_up() {
    let target = pt(3.0, 7.0);
    let server = spawn(service(), ServeConfig::default(), "127.0.0.1:0").expect("spawn");
    let mut ap = ApClient::connect(server.addr(), ClientConfig::default()).expect("connect");
    for i in 0..4u32 {
        ap.submit(KEY, i, 0, &lobe_spectrum(i as usize, target))
            .expect("submit");
    }
    let stats = server.shutdown();
    assert_eq!(stats.submits_raw, 4);
    assert_eq!(stats.submits_compressed, 0);
    // Each keyed raw submission: header + key + ap_id + age + bins + values.
    let per_frame = (HEADER_LEN + 8 + 4 + 8 + 4 + 8 * BINS) as u64;
    assert_eq!(stats.uplink_raw_bytes, 4 * per_frame);
    assert_eq!(stats.uplink_compressed_bytes, 0);
}
