//! Quickstart: localize one WiFi client with three ArrayTrack APs.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! This walks the whole pipeline in ~40 lines: simulate a client's 802.11
//! preamble through a multipath office channel, capture 10 snapshots per
//! AP, compute MUSIC AoA spectra, and fuse them into a position estimate.

use arraytrack::channel::geometry::pt;
use arraytrack::channel::{AntennaArray, ChannelSim, Floorplan, Material, Transmitter};
use arraytrack::core::pipeline::{process_frame, ApPipelineConfig};
use arraytrack::core::synthesis::{ApPose, SearchRegion};
use arraytrack::core::ArrayTrackServer;
use arraytrack::dsp::preamble::{Preamble, LTS0_START_S};
use arraytrack::dsp::{NoiseSource, SnapshotBlock, SAMPLE_RATE_HZ};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // A 20 m × 12 m open-plan room: drywall shell, one glass partition.
    let floorplan = Floorplan::empty()
        .with_rect(pt(0.0, 0.0), pt(20.0, 12.0), Material::DRYWALL)
        .with_wall(
            arraytrack::channel::seg(pt(15.5, 4.0), pt(15.5, 8.0)),
            Material::GLASS,
        );
    let sim = ChannelSim::new(&floorplan);

    // The client we want to find.
    let client = pt(12.4, 7.4);
    let tx = Transmitter::at(client);
    println!("ground truth: ({:.2}, {:.2})", client.x, client.y);

    // Three APs, each an 8-antenna λ/2 array plus the off-row element,
    // oriented so the client is roughly broadside (a linear array resolves
    // poorly along its own axis — paper §2.3.3).
    let poses = [
        (pt(1.0, 1.0), 2.0),
        (pt(19.0, 2.0), 0.8),
        (pt(10.0, 11.0), 0.7),
    ];

    let mut server = ArrayTrackServer::new(SearchRegion::new(pt(0.0, 0.0), pt(20.0, 12.0)));
    let mut rng = StdRng::seed_from_u64(7);
    let preamble = Preamble::new();
    let noise = NoiseSource::with_power(1e-10);

    for (ap, (center, axis)) in poses.into_iter().enumerate() {
        let array = AntennaArray::ula(center, axis, 8).with_offrow_element();
        // Receive 10 snapshots of the first long training symbol.
        let mut streams = sim.receive(
            &tx,
            &array,
            |t| preamble.eval(t),
            LTS0_START_S + 1.0e-6,
            10.0 / SAMPLE_RATE_HZ,
            SAMPLE_RATE_HZ,
        );
        for s in &mut streams {
            noise.corrupt(s, &mut rng);
        }
        let block = SnapshotBlock::new(streams);

        // MUSIC + smoothing + geometry weighting + symmetry resolution.
        let spectrum = process_frame(&block, &ApPipelineConfig::arraytrack(8));
        let bearing = spectrum.find_peaks(0.3)[0].theta.to_degrees();
        println!(
            "AP at ({:.0}, {:.0}): strongest AoA peak at {bearing:.1}° from the array axis",
            center.x, center.y
        );
        let pose = ApPose {
            center,
            axis_angle: axis,
        };
        server.add_observation_from(ap, pose, spectrum, 0);
    }

    let estimate = server.try_localize().expect("three healthy APs");
    let err = estimate.position.distance(client);
    println!(
        "estimate:     ({:.2}, {:.2})  — error {:.2} m",
        estimate.position.x, estimate.position.y, err
    );
    assert!(err < 1.0, "quickstart should localize within a meter");
}
