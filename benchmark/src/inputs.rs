//! Seeded inputs: the `at-testbed` office deployment and one pool of
//! captures per run.
//!
//! Channel simulation costs milliseconds per captured frame, so a run
//! captures one pool of frame groups up front, reuses it across keys, and
//! keeps that time out of every metric.

use at_channel::geometry::Point;
use at_channel::Transmitter;
use at_core::health::HealthPolicy;
use at_core::{
    process_frame, suppress_multipath, AoaSpectrum, ArrayTrackServer, SuppressionConfig,
};
use at_dsp::awgn::mean_power;
use at_dsp::{db_to_linear, MatchedFilter, NoiseSource, Preamble, SnapshotBlock, SAMPLE_RATE_HZ};
use at_linalg::Complex64;
use at_serve::ServiceConfig;
use at_testbed::{parallel_map, Deployment, ExperimentConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Spectrum resolution of the paper pipeline's MUSIC scan.
pub const BINS: usize = 720;

/// SNR of the synthetic detection bursts, dB.
const BURST_SNR_DB: f64 = 15.0;

/// The deployment a seed describes, with its experiment config and wire
/// service (6 APs, 41 clients, 720-bin spectra, 10 cm grid).
pub struct Site {
    /// Floorplan, APs and client ground truth.
    pub dep: Deployment,
    /// Capture and AP-pipeline settings (the paper's full pipeline).
    pub cfg: ExperimentConfig,
    /// What the server is spawned with.
    pub service: ServiceConfig,
}

impl Site {
    /// The seeded office deployment.
    pub fn office(seed: u64) -> Self {
        let dep = Deployment::office(seed);
        let cfg = ExperimentConfig::arraytrack(seed);
        let service = at_testbed::serve::service_config(&dep, BINS, HealthPolicy::default());
        assert_eq!(
            cfg.pipeline.music.bins, BINS,
            "service and pipeline agree on bins"
        );
        Self { dep, cfg, service }
    }

    /// Number of APs.
    pub fn n_aps(&self) -> usize {
        self.dep.aps.len()
    }

    /// Number of clients with ground truth.
    pub fn n_clients(&self) -> usize {
        self.dep.clients.len()
    }

    /// Ground truth of client `c`.
    pub fn truth(&self, c: usize) -> Point {
        self.dep.clients[c]
    }
}

/// One raw burst as the AP's detector sees it: noise with the preamble
/// somewhere inside.
pub struct Burst {
    /// Baseband samples.
    pub samples: Vec<Complex64>,
    /// Where the preamble starts.
    pub start: usize,
}

/// Everything one AP captured from one client: `frames` snapshot blocks
/// and the burst each was detected in.
pub struct Group {
    /// Client index (ground truth in [`Site::truth`]).
    pub client: usize,
    /// AP index.
    pub ap: usize,
    /// Calibrated snapshot blocks, one per frame.
    pub blocks: Vec<SnapshotBlock>,
    /// Raw bursts, one per frame.
    pub bursts: Vec<Burst>,
}

/// Captures every (client, AP) frame group, client-major, on `threads`
/// threads. Deterministic in `seed`.
pub fn capture(site: &Site, seed: u64, threads: usize) -> Vec<Group> {
    let preamble = Preamble::new();
    let reference = preamble.reference(SAMPLE_RATE_HZ);
    let clients: Vec<usize> = (0..site.n_clients()).collect();
    let per_client = parallel_map(&clients, threads, |_, &c| {
        let mut rng = StdRng::seed_from_u64(seed ^ (1000 + c as u64));
        let truth = site.truth(c);
        let tx = Transmitter {
            position: truth,
            ..site.cfg.tx
        };
        (0..site.n_aps())
            .map(|ap| {
                let blocks = site.dep.capture_frame_group(
                    ap,
                    truth,
                    &tx,
                    &site.cfg.capture,
                    site.cfg.frames,
                    site.cfg.jitter,
                    &mut rng,
                );
                let bursts = (0..site.cfg.frames)
                    .map(|_| burst(&reference, &mut rng))
                    .collect();
                Group {
                    client: c,
                    ap,
                    blocks,
                    bursts,
                }
            })
            .collect::<Vec<_>>()
    });
    per_client.into_iter().flatten().collect()
}

/// Noise twice the preamble's length with the preamble at a random
/// offset in the first half.
fn burst(reference: &[Complex64], rng: &mut StdRng) -> Burst {
    let n = reference.len();
    let start = rng.gen_range(0..n);
    let mut samples = vec![Complex64::ZERO; 2 * n];
    samples[start..start + n].copy_from_slice(reference);
    NoiseSource::with_power(mean_power(reference) / db_to_linear(BURST_SNR_DB))
        .corrupt(&mut samples, rng);
    Burst { samples, start }
}

/// Another independent capture of every client at every AP (`round` ≥ 1),
/// processed in process (`process_frame_group`, no detection or uplink):
/// spectra `[client][ap]` for accuracy scoring only.
pub fn accuracy_round(site: &Site, seed: u64, round: u64, threads: usize) -> Vec<Vec<AoaSpectrum>> {
    let clients: Vec<usize> = (0..site.n_clients()).collect();
    parallel_map(&clients, threads, |_, &c| {
        let mut rng = StdRng::seed_from_u64(seed ^ (round << 32) ^ (0xACC0_0000 + c as u64));
        (0..site.n_aps())
            .map(|ap| {
                at_testbed::compute_spectrum(&site.dep, ap, site.truth(c), &site.cfg, &mut rng)
            })
            .collect()
    })
}

/// The AP side's output for one group.
pub struct ApResult {
    /// The suppressed spectrum the AP submits.
    pub spectrum: AoaSpectrum,
    /// Bursts whose detection landed within one sample of the preamble.
    pub hits: usize,
}

/// The AP pipeline for one group: `MatchedFilter::detect` and
/// `process_frame` per frame, then `suppress_multipath`, each call in its
/// own span.
pub fn ap_process(
    group: &Group,
    site: &Site,
    filter: &MatchedFilter,
    tracer: &mut crate::trace::Tracer,
    request: u64,
) -> ApResult {
    let mut hits = 0;
    let mut spectra = Vec::with_capacity(group.blocks.len());
    for (block, burst) in group.blocks.iter().zip(&group.bursts) {
        let det = tracer.span("dsp.detector.detect", request, |_| {
            filter.detect(&burst.samples)
        });
        if det.is_some_and(|d| d.start.abs_diff(burst.start) <= 1) {
            hits += 1;
        }
        spectra.push(tracer.span("core.music.frame", request, |_| {
            process_frame(block, &site.cfg.pipeline)
        }));
    }
    let spectrum = tracer.span("core.suppression.group", request, |_| {
        suppress_multipath(&spectra, &SuppressionConfig::default())
    });
    ApResult { spectrum, hits }
}

/// The in-process reference fix for one client's spectra (one per AP, in
/// AP order): what `ArrayTrackServer::try_localize` answers on the same
/// inputs. Networked fixes must equal it bit for bit.
pub fn reference_fix(site: &Site, spectra: &[AoaSpectrum]) -> Result<[f64; 3], String> {
    let mut server = ArrayTrackServer::new(site.service.region);
    for (ap, s) in spectra.iter().enumerate() {
        server.add_observation_from(ap, site.service.poses[ap], s.clone(), 0);
    }
    let fix = server
        .try_localize()
        .map_err(|e| format!("in-process reference fix failed: {e}"))?;
    Ok([fix.position.x, fix.position.y, fix.likelihood])
}
