//! End-to-end loopback tests of the location server: bit-exact parity
//! with the in-process `ArrayTrackServer`, health/error semantics over
//! the wire, load shedding, deadline enforcement, graceful drain, and
//! typed refusal of bad runtime configs. Every session is keyed: a test
//! picks an unused `ClientKey`, submits through an `ApClient`, and
//! localizes through an `AppClient`.

use at_channel::geometry::{pt, Point};
use at_config::{ConfigError, TopologyOp};
use at_core::health::{ApStatus, HealthPolicy, LocalizeError};
use at_core::synthesis::{ApPose, SearchRegion};
use at_core::{AoaSpectrum, ArrayTrackServer};
use at_serve::proto::{self, Frame};
use at_serve::{
    spawn, spawn_recorded, ApClient, AppClient, Client, ClientConfig, ClientError, ClientKey,
    RecordTap, ServeConfig, ServiceConfig,
};
use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

const BINS: usize = 360;

/// A four-AP deployment around a 20 m × 10 m room.
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

/// A lobe spectrum for AP `ap` aimed at the true position `target` — not
/// physical MUSIC output, but a valid spectrum whose fusion is
/// well-defined, which is all parity needs.
fn lobe_spectrum(ap: usize, target: Point) -> AoaSpectrum {
    let bearing = poses()[ap].bearing_to(target);
    AoaSpectrum::from_fn(BINS, |t| {
        let d = at_channel::geometry::angle_diff(t, bearing);
        (-(d / 0.25).powi(2)).exp() + 0.01
    })
}

fn service(policy: HealthPolicy) -> ServiceConfig {
    ServiceConfig {
        poses: poses(),
        region: region(),
        bins: BINS,
        policy,
    }
}

fn ingest(addr: std::net::SocketAddr) -> ApClient {
    ApClient::connect(addr, ClientConfig::default()).expect("ap connect")
}

fn app(addr: std::net::SocketAddr) -> AppClient {
    AppClient::connect(addr, ClientConfig::default()).expect("app connect")
}

#[test]
fn networked_fix_is_bit_exact_with_in_process_server() {
    let target = pt(6.5, 3.5);
    let server = spawn(
        service(HealthPolicy::default()),
        ServeConfig::default(),
        "127.0.0.1:0",
    )
    .expect("spawn");

    // In-process reference: same poses, same spectra, same order. The
    // engine's per-pose grids are computed independently, so the
    // deployment-wide engine and the observation-built engine agree
    // bit-for-bit.
    let mut reference = ArrayTrackServer::new(region());
    let (mut ap, mut app) = (ingest(server.addr()), app(server.addr()));
    for i in 0..poses().len() {
        let spectrum = lobe_spectrum(i, target);
        reference.add_observation_from(i, poses()[i], spectrum.clone(), 0);
        let n = ap.submit(1, i as u32, 0, &spectrum).expect("submit");
        assert_eq!(n as usize, i + 1);
    }
    let expected = reference.try_localize().expect("reference fix");
    let fix = app.localize(1, None).expect("networked fix");
    assert_eq!(fix.position.x.to_bits(), expected.position.x.to_bits());
    assert_eq!(fix.position.y.to_bits(), expected.position.y.to_bits());
    assert_eq!(fix.likelihood.to_bits(), expected.likelihood.to_bits());
    // All four APs healthy in the response.
    assert_eq!(fix.health.len(), 4);
    assert!(fix
        .health
        .iter()
        .all(|h| h.status == ApStatus::Healthy && h.consecutive_failures == 0));

    // A subset session (APs 0 and 2, under a fresh key) also matches a
    // subset-built server.
    let mut subset_ref = ArrayTrackServer::new(region());
    for i in [0usize, 2] {
        let spectrum = lobe_spectrum(i, target);
        subset_ref.add_observation_from(i, poses()[i], spectrum.clone(), 0);
        ap.submit(2, i as u32, 0, &spectrum).expect("submit");
    }
    let expected = subset_ref.try_localize().expect("subset fix");
    let fix = app.localize(2, None).expect("networked subset fix");
    assert_eq!(fix.position.x.to_bits(), expected.position.x.to_bits());
    assert_eq!(fix.position.y.to_bits(), expected.position.y.to_bits());
    assert_eq!(fix.likelihood.to_bits(), expected.likelihood.to_bits());

    let stats = server.shutdown();
    assert_eq!(stats.fixes, 2);
    assert_eq!(stats.shed, 0);
}

#[test]
fn degraded_deployment_keeps_typed_semantics_over_the_wire() {
    let target = pt(12.0, 4.0);
    let policy = HealthPolicy {
        min_quorum: 2,
        ..HealthPolicy::default()
    };
    let server = spawn(service(policy), ServeConfig::default(), "127.0.0.1:0").expect("spawn");
    let mut reference = ArrayTrackServer::new(region()).with_policy(policy);
    let (mut ap, mut app) = (ingest(server.addr()), app(server.addr()));

    // A stale AP 1 leaves only one usable observation: quorum not met,
    // with the exact counts the in-process server reports.
    reference.add_observation_from(0, poses()[0], lobe_spectrum(0, target), 0);
    reference.add_observation_from(1, poses()[1], lobe_spectrum(1, target), 10);
    ap.submit(1, 0, 0, &lobe_spectrum(0, target))
        .expect("submit");
    ap.submit(1, 1, 10, &lobe_spectrum(1, target))
        .expect("submit");
    let expected = reference.try_localize().expect_err("stale quorum");
    match app.localize(1, None) {
        Err(ClientError::Localize(e)) => assert_eq!(e, expected),
        other => panic!("wanted the reference LocalizeError, got {other:?}"),
    }
    assert_eq!(
        expected,
        LocalizeError::QuorumNotMet {
            available: 1,
            required: 2,
            stale: 1,
            down: 0,
            degenerate: 0,
        }
    );

    // Failures after submission degrade AP 1: the fix is tempered the
    // same way in-process and its health report says degraded.
    reference.clear();
    for i in 0..2 {
        reference.add_observation_from(i, poses()[i], lobe_spectrum(i, target), 0);
        ap.submit(2, i as u32, 0, &lobe_spectrum(i, target))
            .expect("submit");
    }
    for _ in 0..2 {
        reference.report_acquisition_failure(1);
        ap.report_failure(1).expect("report");
    }
    let expected = reference.try_localize().expect("degraded fix");
    let fix = app.localize(2, None).expect("networked degraded fix");
    assert_eq!(fix.position.x.to_bits(), expected.position.x.to_bits());
    assert_eq!(fix.position.y.to_bits(), expected.position.y.to_bits());
    assert_eq!(fix.likelihood.to_bits(), expected.likelihood.to_bits());
    let ap1 = fix.health.iter().find(|h| h.ap_id == 1).expect("ap 1");
    assert_eq!(ap1.status, ApStatus::Degraded);
    assert_eq!(ap1.consecutive_failures, 2);

    // A key nobody submitted for fails with NoObservations, typed, over
    // the wire.
    match app.localize(3, None) {
        Err(ClientError::Localize(LocalizeError::NoObservations)) => {}
        other => panic!("wanted NoObservations, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn overload_sheds_with_typed_frames_and_server_stays_responsive() {
    let target = pt(3.0, 7.0);
    // One worker, a one-slot admission queue: offered load far beyond
    // capacity must shed, not queue.
    let cfg = ServeConfig {
        workers: 1,
        admission_depth: 1,
        retry_after_ms: 5,
        ..ServeConfig::default()
    };
    let server = spawn(service(HealthPolicy::default()), cfg, "127.0.0.1:0").expect("spawn");
    let addr = server.addr();

    let fixes = Arc::new(AtomicUsize::new(0));
    let sheds = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..32u64)
        .map(|key| {
            let fixes = Arc::clone(&fixes);
            let sheds = Arc::clone(&sheds);
            thread::spawn(move || {
                // No client-side retry: a shed must surface as Overloaded.
                let cfg = ClientConfig {
                    max_attempts: 1,
                    ..ClientConfig::default()
                };
                let mut ap = ApClient::connect(addr, cfg).expect("ap connect");
                for i in 0..4u32 {
                    ap.submit(key, i, 0, &lobe_spectrum(i as usize, target))
                        .expect("submit");
                }
                let mut app = AppClient::connect(addr, cfg).expect("app connect");
                for _ in 0..4 {
                    match app.localize(key, None) {
                        Ok(_) => fixes.fetch_add(1, Ordering::Relaxed),
                        Err(ClientError::Overloaded { .. }) => {
                            sheds.fetch_add(1, Ordering::Relaxed)
                        }
                        Err(e) => panic!("unexpected error under load: {e}"),
                    };
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }

    let fixed = fixes.load(Ordering::Relaxed);
    let shed = sheds.load(Ordering::Relaxed);
    assert_eq!(fixed + shed, 32 * 4);
    assert!(fixed > 0, "some requests must be served");
    assert!(shed > 0, "offered load beyond capacity must shed");

    // The server is still fully responsive after the storm.
    let (mut ap, mut app) = (ingest(addr), app(addr));
    app.ping(42).expect("ping after overload");
    ap.submit(100, 0, 0, &lobe_spectrum(0, target))
        .expect("submit");
    app.localize(100, None).expect("fix after overload");

    let stats = server.shutdown();
    assert_eq!(stats.shed, shed as u64);
    assert!(stats.fixes >= fixed as u64);
}

#[test]
fn queued_past_deadline_requests_are_dropped_before_fusion() {
    // One worker and a burst of concurrent requests with a 1 ms budget:
    // the requests queued behind the worker's current fusion outlive
    // their budget in admission and must be answered before fusion.
    const CLIENTS: u64 = 16;
    let cfg = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let server = spawn(service(HealthPolicy::default()), cfg, "127.0.0.1:0").expect("spawn");
    let addr = server.addr();
    let mut ap = ingest(addr);
    for i in 0..4u32 {
        ap.submit(1, i, 0, &lobe_spectrum(i as usize, pt(5.0, 5.0)))
            .expect("submit");
    }
    let start = Arc::new(Barrier::new(CLIENTS as usize));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let start = Arc::clone(&start);
            thread::spawn(move || {
                let mut app = app(addr);
                start.wait();
                app.localize(1, Some(Duration::from_millis(1)))
            })
        })
        .collect();
    let (mut fixes, mut missed) = (0u64, 0u64);
    for c in clients {
        match c.join().expect("client thread") {
            Ok(_) => fixes += 1,
            Err(ClientError::DeadlineExceeded) => missed += 1,
            other => panic!("wanted a fix or DeadlineExceeded, got {other:?}"),
        }
    }
    assert!(missed > 0, "no 1 ms budget expired behind a busy worker");
    // Without a deadline the same session localizes fine.
    app(addr).localize(1, None).expect("fix without deadline");
    let stats = server.shutdown();
    assert_eq!(stats.shed, 0, "every request was admitted");
    assert_eq!(stats.deadline_missed, missed);
    assert_eq!(stats.fixes, fixes + 1);
    // Each admitted request was fused or dropped, never both: an expired
    // job never reaches fusion.
    assert_eq!(stats.fixes + stats.deadline_missed, CLIENTS + 1);
}

/// Counts the replies to admitted queries: the server calls
/// [`RecordTap::outcome`] exactly once for each request it admitted, and
/// never for one it refused.
#[derive(Default)]
struct OutcomeTap {
    queries: AtomicU64,
    fixes: AtomicUsize,
    other: AtomicUsize,
    /// Set just before shutdown begins.
    draining: AtomicBool,
    fixes_in_drain: AtomicUsize,
}

impl RecordTap for OutcomeTap {
    fn submit(&self, _: ClientKey, _: u32, _: u64, _: &AoaSpectrum) {}
    fn failure(&self, _: u32) {}
    fn query(&self, _: ClientKey, _: u32) -> u64 {
        self.queries.fetch_add(1, Ordering::SeqCst)
    }
    fn outcome(&self, _: u64, reply: &Frame) {
        if matches!(reply, Frame::Fix { .. }) {
            self.fixes.fetch_add(1, Ordering::SeqCst);
            if self.draining.load(Ordering::SeqCst) {
                self.fixes_in_drain.fetch_add(1, Ordering::SeqCst);
            }
        } else {
            self.other.fetch_add(1, Ordering::SeqCst);
        }
    }
    fn tick(&self) {}
    fn idle_reap(&self, _: &[ClientKey]) {}
    fn epoch_change(&self, _: u64, _: u64, _: &TopologyOp) {}
}

#[test]
fn shutdown_drains_in_flight_requests_then_refuses_new_ones() {
    const CONNS: u64 = 4;
    const PER_CONN: usize = 25;
    let target = pt(15.0, 2.0);
    let tap = Arc::new(OutcomeTap::default());
    // One worker: while it fuses, the other connections' requests park in
    // admission.
    let cfg = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let recorder: Arc<dyn RecordTap> = tap.clone();
    let server = spawn_recorded(
        service(HealthPolicy::default()),
        cfg,
        "127.0.0.1:0",
        Some(recorder),
    )
    .expect("spawn");
    let addr = server.addr();
    let mut ap = ingest(addr);
    for key in 0..CONNS {
        for i in 0..4u32 {
            ap.submit(key, i, 0, &lobe_spectrum(i as usize, target))
                .expect("submit");
        }
    }

    // Each connection sends all its requests in one write. The server
    // answers one request per connection at a time, so the rest wait in
    // its socket buffer, and each is read and answered whether it comes
    // before or after admission closes.
    let clients: Vec<_> = (0..CONNS)
        .map(|key| {
            let mut sock = TcpStream::connect(addr).expect("connect");
            sock.set_read_timeout(Some(Duration::from_secs(10)))
                .expect("read timeout");
            let mut burst = Vec::new();
            for _ in 0..PER_CONN {
                proto::write_frame(
                    &mut burst,
                    &Frame::LocalizeKey {
                        key,
                        deadline_ms: 0,
                    },
                )
                .expect("encode");
            }
            sock.write_all(&burst).expect("send burst");
            thread::spawn(move || {
                (0..PER_CONN)
                    .map(|_| proto::read_frame(&mut sock))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    // Pull the plug mid-stream.
    while server.stats().fixes < CONNS {
        thread::sleep(Duration::from_millis(1));
    }
    tap.draining.store(true, Ordering::SeqCst);
    let stats = server.shutdown();

    let mut refused = 0;
    for c in clients {
        let mut shut = false;
        for reply in c.join().expect("client thread") {
            match reply {
                Ok(Some(Frame::Fix { x, y, .. })) => {
                    assert!(!shut, "a fix after ShuttingDown on one connection");
                    assert!(x.is_finite() && y.is_finite());
                }
                Ok(Some(Frame::ShuttingDown)) => {
                    shut = true;
                    refused += 1;
                }
                other => panic!("wanted Fix or ShuttingDown, got {other:?}"),
            }
        }
    }
    let fixes = tap.fixes.load(Ordering::SeqCst);
    assert_eq!(
        tap.other.load(Ordering::SeqCst),
        0,
        "an admitted request got no fix"
    );
    assert_eq!(fixes as u64, stats.fixes);
    assert_eq!(fixes + refused, CONNS as usize * PER_CONN);
    assert!(refused > 0, "shutdown came after every request was served");
    assert!(
        tap.fixes_in_drain.load(Ordering::SeqCst) > 0,
        "no admitted request was left to drain when shutdown began"
    );

    // The listener is gone: a fresh connection is refused outright.
    assert!(Client::connect(
        addr,
        ClientConfig {
            max_attempts: 1,
            connect_timeout: Duration::from_millis(200),
            ..ClientConfig::default()
        },
    )
    .is_err());
}

#[test]
fn metrics_query_returns_a_prometheus_snapshot_on_any_role() {
    let server = spawn(
        service(HealthPolicy::default()),
        ServeConfig::default(),
        "127.0.0.1:0",
    )
    .expect("spawn");

    // An untyped (role-neutral) connection can scrape without ever
    // submitting or localizing.
    let mut c = Client::connect(server.addr(), ClientConfig::default()).expect("connect");
    let text = c.metrics().expect("metrics");
    assert!(
        text.contains("at_serve_connections_total"),
        "scrape missing serve counters: {}",
        &text[..text.len().min(400)]
    );
    assert!(text.contains("# TYPE"), "not Prometheus text format");

    // The scrape is read-only: an app connection that scraped first still
    // takes the App role afterwards and gets the usual typed refusal for
    // an unknown key, and both typed roles can scrape too.
    let mut app = app(server.addr());
    assert!(app.metrics().expect("app metrics").contains("at_serve"));
    assert!(matches!(
        app.localize(7, None),
        Err(ClientError::Localize(LocalizeError::NoObservations))
    ));
    assert!(app
        .metrics()
        .expect("typed app metrics")
        .contains("at_serve"));
    assert!(ingest(server.addr())
        .metrics()
        .expect("ap metrics")
        .contains("at_serve"));
    server.shutdown();
}

/// Spawning with `cfg` must fail with `InvalidInput` — never a panic —
/// and `ServeConfig::validate` must say why with a typed error.
fn assert_refused(cfg: ServeConfig, why: &str) {
    match cfg.validate() {
        Err(ConfigError::Serve(reason)) => assert!(reason.contains(why), "{reason}"),
        other => panic!("wanted ConfigError::Serve({why:?}), got {other:?}"),
    }
    match spawn(service(HealthPolicy::default()), cfg, "127.0.0.1:0") {
        Err(e) => {
            assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
            assert!(e.to_string().contains(why), "{e}");
        }
        Ok(_) => panic!("a server spawned on a bad config"),
    }
}

#[test]
fn zero_workers_is_refused_typed() {
    assert_refused(
        ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        },
        "worker",
    );
}

#[test]
fn zero_admission_depth_is_refused_typed() {
    assert_refused(
        ServeConfig {
            admission_depth: 0,
            ..ServeConfig::default()
        },
        "admission depth",
    );
}

#[test]
fn zero_connect_attempts_is_refused_typed() {
    // Refused before dialing: no listener is needed at the address.
    let cfg = ClientConfig {
        max_attempts: 0,
        ..ClientConfig::default()
    };
    match Client::connect("127.0.0.1:9", cfg) {
        Err(ClientError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::InvalidInput),
        Err(other) => panic!("wanted an InvalidInput I/O error, got {other}"),
        Ok(_) => panic!("connected with zero attempts"),
    }
}
