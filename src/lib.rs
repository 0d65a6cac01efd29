//! # arraytrack — a full-system reproduction of ArrayTrack (NSDI '13)
//!
//! Fine-grained indoor WiFi localization from angle-of-arrival spectra,
//! after Xiong & Jamieson, *ArrayTrack: A Fine-Grained Indoor Location
//! System*, NSDI 2013.
//!
//! This facade re-exports the workspace crates under stable module names:
//!
//! - [`config`] — the canonical system configuration: `SystemConfig`
//!   with its canonical byte serialization and fingerprint, topology
//!   ops (add / remove / move an AP), and the epoch machinery every
//!   other layer keys off (see DESIGN.md §4l);
//! - [`linalg`] — complex numbers, matrices, Hermitian eigendecomposition;
//! - [`dsp`] — 802.11 preamble synthesis, packet detection, AWGN, CFO,
//!   correlation matrices;
//! - [`channel`] — the image-method indoor multipath simulator and antenna
//!   arrays;
//! - [`frontend`] — the WARP-like radio bank, diversity capture, and phase
//!   calibration;
//! - [`core`] — MUSIC, spatial smoothing, geometry weighting, symmetry
//!   resolution, multipath suppression, likelihood synthesis, SIC,
//!   tracking;
//! - [`testbed`] — the simulated 41-client / 6-AP office, experiment
//!   sweeps, metrics, baselines and the live streaming loop;
//! - [`serve`] — the networked location service: binary wire protocol,
//!   thread-pool TCP server with admission control, deadlines and
//!   request batching, and a blocking client (see DESIGN.md §4g and
//!   `examples/serve_demo.rs`);
//! - [`obs`] — structured tracing spans and the lock-free metrics
//!   registry every pipeline stage reports into (see DESIGN.md
//!   §Observability);
//! - [`replay`] — the deterministic capture-and-replay journal: record
//!   every admitted submission and query at the server's admission tap,
//!   then re-drive them through a fresh pipeline asserting bit-exact fix
//!   parity (see DESIGN.md §4k).
//!
//! ## Minimal example
//!
//! Localize one client with three APs (see `examples/quickstart.rs` for
//! the narrated version):
//!
//! ```
//! use arraytrack::channel::geometry::pt;
//! use arraytrack::channel::{AntennaArray, ChannelSim, Floorplan, Transmitter};
//! use arraytrack::core::pipeline::{process_frame, ApPipelineConfig};
//! use arraytrack::core::synthesis::{ApPose, SearchRegion};
//! use arraytrack::core::ArrayTrackServer;
//! use arraytrack::dsp::{Preamble, SnapshotBlock, SAMPLE_RATE_HZ};
//!
//! let floorplan = Floorplan::empty();
//! let sim = ChannelSim::new(&floorplan);
//! let client = pt(6.0, 4.0);
//! let preamble = Preamble::new();
//! let mut server =
//!     ArrayTrackServer::new(SearchRegion::new(pt(0.0, 0.0), pt(12.0, 8.0)));
//! let aps = [(pt(0.0, 0.0), 0.4), (pt(12.0, 0.0), 2.2), (pt(6.0, 8.0), -0.5)];
//! for (ap, (center, axis)) in aps.into_iter().enumerate() {
//!     let array = AntennaArray::ula(center, axis, 8).with_offrow_element();
//!     let streams = sim.receive(
//!         &Transmitter::at(client),
//!         &array,
//!         |t| preamble.eval(t),
//!         arraytrack::dsp::preamble::LTS0_START_S + 1.0e-6,
//!         10.0 / SAMPLE_RATE_HZ,
//!         SAMPLE_RATE_HZ,
//!     );
//!     let spectrum = process_frame(&SnapshotBlock::new(streams),
//!                                  &ApPipelineConfig::arraytrack(8));
//!     server.add_observation_from(ap, ApPose { center, axis_angle: axis }, spectrum, 0);
//! }
//! let estimate = server.try_localize().expect("three healthy APs");
//! assert!(estimate.position.distance(client) < 0.3);
//! ```

#![forbid(unsafe_code)]

pub use at_channel as channel;
pub use at_config as config;
pub use at_core as core;
pub use at_dsp as dsp;
pub use at_frontend as frontend;
pub use at_linalg as linalg;
pub use at_obs as obs;
pub use at_replay as replay;
pub use at_serve as serve;
pub use at_testbed as testbed;
