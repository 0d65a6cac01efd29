//! End-to-end observability (tier 1).
//!
//! Lives in its own integration-test binary — one `#[test]`, one process —
//! so assertions against the *global* metrics registry can be strict
//! (exact increments) instead of tolerant of concurrent test traffic.
//!
//! Two claims, in sequence on one seeded scenario:
//!
//! 1. a single healthy `try_localize` over three captured-and-processed
//!    frames increments exactly the stage histograms and outcome counters
//!    the instrumented pipeline is supposed to touch, and nothing else
//!    error-shaped;
//! 2. the per-stage latency budget read back from those histograms agrees
//!    with independent wall-clock measurements of the same code regions,
//!    and feeds [`LatencyModel::observed`] (the model-vs-measurement
//!    unification promised in `at_core::latency`).

use arraytrack::channel::geometry::pt;
use arraytrack::channel::{AntennaArray, ChannelSim, Floorplan, Transmitter};
use arraytrack::core::latency::{frame_airtime, LatencyModel};
use arraytrack::core::pipeline::{process_frame, ApPipelineConfig};
use arraytrack::core::synthesis::{ApPose, SearchRegion};
use arraytrack::core::{AoaSpectrum, ArrayTrackServer, LocalizationEngine};
use arraytrack::dsp::detector::MatchedFilter;
use arraytrack::dsp::preamble::{Preamble, LTS0_START_S};
use arraytrack::dsp::{SnapshotBlock, SAMPLE_RATE_HZ};
use arraytrack::obs::{global, LatencyBudget, MetricsSnapshot};
use std::time::Instant;

const APS: [(f64, f64, f64); 3] = [(0.0, 0.0, 0.3), (12.0, 0.0, 2.0), (6.0, 8.0, 4.5)];

fn capture(center: arraytrack::channel::geometry::Point, axis: f64) -> SnapshotBlock {
    let fp = Floorplan::empty();
    let sim = ChannelSim::new(&fp);
    let array = AntennaArray::ula(center, axis, 8).with_offrow_element();
    let p = Preamble::new();
    let streams = sim.receive(
        &Transmitter::at(pt(6.0, 4.0)),
        &array,
        |t| p.eval(t),
        LTS0_START_S + 1.0e-6,
        10.0 / SAMPLE_RATE_HZ,
        SAMPLE_RATE_HZ,
    );
    SnapshotBlock::new(streams)
}

/// Counter value, treating an absent series as zero (fresh registry).
fn counter(s: &MetricsSnapshot, name: &str, labels: &[(&str, &str)]) -> u64 {
    s.counter(name, labels).unwrap_or(0)
}

/// Observation count of one stage's latency histogram (0 if unobserved).
fn stage_count(s: &MetricsSnapshot, stage: &str) -> u64 {
    s.histogram("at_stage_seconds", &[("stage", stage)])
        .map_or(0, |h| h.count)
}

/// Generous two-sided agreement: each value within 5x of the other plus
/// absolute slack, absorbing span-vs-wall-clock scope differences and
/// single-core scheduler noise.
fn agrees(budget_ms: f64, wall_ms: f64) -> bool {
    budget_ms <= wall_ms * 5.0 + 0.2 && wall_ms <= budget_ms * 5.0 + 0.2
}

fn median_ms(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

#[test]
fn one_localization_increments_exactly_the_expected_metrics() {
    // ---- Claim 1: exact increments for one healthy fix. --------------
    let before = global().snapshot();

    let region = SearchRegion::new(pt(0.0, 0.0), pt(12.0, 8.0));
    let poses = APS.map(|(x, y, axis)| ApPose {
        center: pt(x, y),
        axis_angle: axis,
    });
    let mut server = ArrayTrackServer::new(region);
    let mut spectra: Vec<AoaSpectrum> = Vec::new();
    for (i, pose) in poses.into_iter().enumerate() {
        let block = capture(pose.center, pose.axis_angle);
        let spectrum = process_frame(&block, &ApPipelineConfig::arraytrack(8));
        server.add_observation_from(i, pose, spectrum.clone(), 0);
        spectra.push(spectrum);
    }
    let est = server.try_localize().expect("healthy deployment must fix");
    assert!(est.position.distance(pt(6.0, 4.0)) < 0.3);

    let after = global().snapshot();
    let dc = |name: &str, labels: &[(&str, &str)]| {
        counter(&after, name, labels) - counter(&before, name, labels)
    };
    let ds = |stage: &str| stage_count(&after, stage) - stage_count(&before, stage);

    // Exactly one localization, successful, fusing all three healthy APs.
    assert_eq!(dc("at_localize_total", &[("result", "ok")]), 1);
    assert_eq!(dc("at_localize_total", &[("result", "error")]), 0);
    assert_eq!(
        dc("at_observations_fused_total", &[("health", "healthy")]),
        3
    );
    assert_eq!(
        dc("at_observations_fused_total", &[("health", "degraded")]),
        0
    );
    for reason in ["stale", "degenerate", "down"] {
        assert_eq!(
            dc("at_observations_dropped_total", &[("reason", reason)]),
            0,
            "no observation should be dropped (reason={reason})"
        );
    }
    // Stage histograms: one spectrum per AP frame, one localize wrapping
    // one engine fusion. MUSIC internals run at least once per frame
    // (symmetry resolution may re-enter the estimator, so >=).
    assert_eq!(ds("spectrum"), 3);
    assert_eq!(ds("localize"), 1);
    assert_eq!(ds("fusion"), 1);
    assert!(ds("music_eig") >= 3, "eig ran {}x", ds("music_eig"));
    assert!(ds("music_scan") >= 3, "scan ran {}x", ds("music_scan"));

    // ---- Claim 2: budget read from metrics ~= wall clock. ------------
    // Re-run each gated stage region N times, wall-clocking from outside
    // while the instrumentation records from inside.
    const REPS: usize = 15;
    let p = Preamble::new();
    let mf = MatchedFilter::new(&p, SAMPLE_RATE_HZ);
    let mut rx = vec![arraytrack::linalg::Complex64::ZERO; 200];
    rx.extend(p.reference(SAMPLE_RATE_HZ));
    rx.extend(vec![arraytrack::linalg::Complex64::ZERO; 200]);
    let block = capture(pt(0.0, 0.0), 0.3);
    let cfg = ApPipelineConfig::arraytrack(8);
    let engine = LocalizationEngine::new(&poses, region, spectra[0].bins());
    let obs: Vec<(usize, &AoaSpectrum)> = spectra.iter().enumerate().collect();

    let (mut w_detect, mut w_spectrum, mut w_fusion) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        let t = Instant::now();
        assert!(mf.detect(&rx).is_some());
        w_detect.push(t.elapsed().as_secs_f64() * 1e3);

        let t = Instant::now();
        let s = process_frame(&block, &cfg);
        w_spectrum.push(t.elapsed().as_secs_f64() * 1e3);
        assert!(s.max_value() > 0.0);

        // The engine is built once, before the loop, so the wall clock
        // brackets the fusion stage, not construction.
        let t = Instant::now();
        let e = engine.localize(&obs);
        w_fusion.push(t.elapsed().as_secs_f64() * 1e3);
        assert!(e.position.x.is_finite());
    }

    let snap = global().snapshot();
    let budget = LatencyBudget::from_snapshot(&snap).expect("all gated stages observed");
    for (stage, wall) in [
        ("detect", median_ms(&mut w_detect)),
        ("spectrum", median_ms(&mut w_spectrum)),
        ("fusion", median_ms(&mut w_fusion)),
    ] {
        let got = budget
            .stage_ms()
            .iter()
            .find(|(s, _)| *s == stage)
            .unwrap()
            .1;
        assert!(
            agrees(got, wall),
            "stage {stage}: metric p50 {got:.3} ms vs wall-clock median {wall:.3} ms"
        );
    }

    // The observed budget slots straight into the paper's latency model:
    // measured Td and Tp, paper-model transfer and bus terms.
    let model = LatencyModel::observed(frame_airtime(1500, 54e6), &budget);
    assert!((model.detection - budget.detect_ms * 1e-3).abs() < 1e-15);
    assert!((model.processing - budget.processing_ms() * 1e-3).abs() < 1e-15);
    // This implementation beats the paper's 100 ms Matlab processing stage,
    // so the end-to-end added latency is dominated by the link model terms.
    let matlab = LatencyModel::paper_defaults(model.airtime, 100e-3);
    assert!(model.added_latency() < matlab.added_latency());
}
