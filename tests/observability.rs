//! Observability layer integration tests (tier 1).
//!
//! Cross-crate properties that the `at-obs` unit tests cannot cover alone:
//! snapshot determinism while `at_core::parallel::parallel_map` workers
//! hammer one registry, export validity for snapshots produced by the
//! *real* instrumented pipeline, and trace capture around a live
//! localization. Strict whole-registry increment accounting lives in
//! `tests/obs_end_to_end.rs` (its own process); here every assertion is
//! safe under concurrent tests sharing the global registry.

use arraytrack::channel::geometry::pt;
use arraytrack::core::parallel::parallel_map;
use arraytrack::core::synthesis::{ApPose, SearchRegion};
use arraytrack::core::{AoaSpectrum, ArrayTrackServer};
use arraytrack::obs::{self, Registry, RingBufferSink};
use std::sync::Arc;

/// A tiny synthetic three-AP server whose fix lands on `target`.
fn synthetic_server(target: arraytrack::channel::geometry::Point) -> ArrayTrackServer {
    let mut server = ArrayTrackServer::new(SearchRegion::new(pt(0.0, 0.0), pt(12.0, 8.0)));
    for (i, (x, y, axis)) in [(0.0, 0.0, 0.3), (12.0, 0.0, 2.0), (6.0, 8.0, 4.5)]
        .into_iter()
        .enumerate()
    {
        let pose = ApPose {
            center: pt(x, y),
            axis_angle: axis,
        };
        let theta = pose.bearing_to(target);
        let spectrum = AoaSpectrum::from_fn(720, |t| {
            let d = arraytrack::channel::geometry::angle_diff(t, theta);
            (-(d / 0.08).powi(2)).exp() + 1e-6
        });
        server.add_observation_from(i, pose, spectrum, 0);
    }
    server
}

#[test]
fn snapshot_is_deterministic_under_parallel_map_recording() {
    // A scoped registry (not the global one) so the totals are exact even
    // with other tests running: 4 parallel_map workers × 250 items each
    // record into the same three series concurrently.
    let reg = Registry::new();
    let items: Vec<u64> = (0..1000).collect();
    let _out: Vec<()> = parallel_map(&items, 4, |i, &v| {
        reg.counter("t_ops_total", &[("worker", "any")]).inc();
        reg.histogram("t_latency_seconds", &[])
            .observe(1e-6 * (v % 7 + 1) as f64);
        if i % 2 == 0 {
            reg.gauge("t_depth", &[]).set(v as f64);
        }
    });

    let a = reg.snapshot();
    assert_eq!(a.counter("t_ops_total", &[("worker", "any")]), Some(1000));
    let h = a
        .histogram("t_latency_seconds", &[])
        .expect("histogram exists");
    assert_eq!(h.count, 1000);
    // sum of 1000 observations of (v%7+1) µs: 142 full cycles of 1..=7
    // (each summing 28 µs) plus 1+2+3+4+5+6 for the 994..999 tail.
    let expected_sum = 1e-6 * (142.0 * 28.0 + 21.0);
    assert!((h.sum - expected_sum).abs() < 1e-12, "sum {}", h.sum);

    // Quiescent registry ⇒ identical snapshots and identical exports.
    let b = reg.snapshot();
    assert_eq!(a.to_prometheus(), b.to_prometheus());
    assert_eq!(a.to_json(), b.to_json());
    assert!(a.diff(&b).is_empty(), "no traffic ⇒ empty diff");
}

#[test]
fn real_pipeline_snapshot_exports_are_well_formed() {
    // Drive real instrumented code, then validate the *global* snapshot's
    // export shape (not exact values — other tests share the registry).
    let server = synthetic_server(pt(7.0, 3.0));
    server.try_localize().expect("healthy fix");

    let snap = obs::global().snapshot();
    let prom = snap.to_prometheus();
    assert!(prom.contains("# TYPE at_stage_seconds histogram"));
    assert!(prom.contains("at_stage_seconds_bucket{stage=\"localize\",le=\"+Inf\"}"));
    assert!(prom.contains("# TYPE at_localize_total counter"));
    for line in prom.lines().filter(|l| !l.starts_with('#')) {
        let (series, value) = line.rsplit_once(' ').expect("`series value` lines");
        assert!(!series.is_empty());
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf",
            "unparseable sample value {value:?} in {line:?}"
        );
    }

    let json = snap.to_json();
    assert!(json.contains("\"at_localize_total{result=\\\"ok\\\"}\""));
    // Balanced braces/brackets ⇒ structurally sound for a follow-on parser.
    let balance = |open: char, close: char| {
        json.chars().filter(|&c| c == open).count() == json.chars().filter(|&c| c == close).count()
    };
    assert!(balance('{', '}') && balance('[', ']'));
}

#[test]
fn tracing_captures_localization_spans_when_enabled() {
    // Tracing is off by default; no sink ⇒ zero span delivery. Install a
    // ring buffer, run a fix, and the stage spans show up with fields.
    let sink = Arc::new(RingBufferSink::new(256));
    obs::set_sink(sink.clone());
    let server = synthetic_server(pt(5.0, 5.0));
    server.try_localize().expect("healthy fix");
    obs::clear_sink();

    let records = sink.records();
    let stages: Vec<&str> = records
        .iter()
        .flat_map(|r| &r.fields)
        .filter(|(k, _)| *k == "stage")
        .map(|(_, v)| v.as_str())
        .collect();
    assert!(stages.contains(&"localize"), "stages seen: {stages:?}");
    assert!(stages.contains(&"fusion"), "stages seen: {stages:?}");
    for r in &records {
        let line = r.to_json();
        assert!(line.starts_with('{') && line.ends_with('}'));
    }

    // After clearing the sink, tracing is cold again: no further growth.
    let frozen = sink.len();
    server.try_localize().expect("healthy fix");
    assert_eq!(sink.len(), frozen, "cleared sink must stop receiving spans");
}
