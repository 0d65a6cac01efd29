//! Connection churn must not leak server resources: the acceptor's
//! registry drops each connection's socket clone and thread handle when
//! the connection ends, not at shutdown. Counted on the process's open
//! file descriptors, so this lives in its own test binary — a parallel
//! test opening sockets would move the count.

use at_channel::geometry::pt;
use at_core::health::HealthPolicy;
use at_core::synthesis::{ApPose, SearchRegion};
use at_serve::{spawn, Client, ClientConfig, ServeConfig, ServiceConfig};
use std::thread;
use std::time::{Duration, Instant};

/// Connect → ping → close cycles to churn through.
const CYCLES: u64 = 1200;

/// Descriptors the count may sit above its pre-churn value once the
/// churn has settled (a late-closing socket or two, a lazily opened
/// runtime fd).
const SLACK: usize = 8;

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("/proc/self/fd is readable")
        .count()
}

#[test]
fn churned_connections_release_their_descriptors() {
    let service = ServiceConfig {
        poses: vec![
            ApPose {
                center: pt(0.0, 0.0),
                axis_angle: 0.3,
            },
            ApPose {
                center: pt(10.0, 0.0),
                axis_angle: 2.0,
            },
        ],
        region: SearchRegion::new(pt(0.0, 0.0), pt(10.0, 10.0)),
        bins: 64,
        policy: HealthPolicy::default(),
    };
    let server = spawn(service, ServeConfig::default(), "127.0.0.1:0").expect("spawn");
    let addr = server.addr();
    // Warm-up: one cycle opens whatever the first connection lazily needs.
    Client::connect(addr, ClientConfig::default())
        .expect("connect")
        .ping(0)
        .expect("ping");
    thread::sleep(Duration::from_millis(50));
    let before = open_fds();

    for token in 1..=CYCLES {
        let mut c = Client::connect(addr, ClientConfig::default()).expect("connect");
        c.ping(token).expect("ping");
    }

    // Connection threads notice the close asynchronously; give them a
    // few seconds to wind down.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut after = open_fds();
    while after > before + SLACK && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(20));
        after = open_fds();
    }
    assert!(
        after <= before + SLACK,
        "{CYCLES} churned connections left {} descriptors open ({before} before, {after} after)",
        after.saturating_sub(before)
    );
    assert_eq!(server.shutdown().connections, CYCLES + 1);
}
