//! Replies on a pipelined connection must not be held back by Nagle's
//! algorithm. A client that writes two requests in one segment gets two
//! replies; the second is written while the first is still unacknowledged
//! (the client has nothing to send, so it delays its ACK). Unless the
//! server's socket has `TCP_NODELAY`, the kernel holds that second reply
//! until the delayed ACK fires (~40 ms on Linux), and every round of the
//! exchange waits for it. In its own test binary so that no parallel test
//! competes for the CPU while the rounds are timed.

use at_channel::geometry::pt;
use at_core::health::HealthPolicy;
use at_core::synthesis::{ApPose, SearchRegion};
use at_serve::proto::{self, Frame};
use at_serve::{spawn, ServeConfig, ServiceConfig};
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Rounds of two pipelined pings.
const ROUNDS: u64 = 40;

/// Budget for all rounds: ~10 ms a round. Held replies cost ~40 ms each;
/// prompt ones well under a millisecond.
const BUDGET: Duration = Duration::from_millis(400);

#[test]
fn pipelined_replies_are_not_held_for_the_peers_ack() {
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
    let mut sock = TcpStream::connect(server.addr()).expect("connect");
    sock.set_nodelay(true).expect("nodelay");
    sock.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");

    let start = Instant::now();
    for round in 0..ROUNDS {
        let tokens = [2 * round, 2 * round + 1];
        let mut pair = Vec::new();
        for token in tokens {
            proto::write_frame(&mut pair, &Frame::Ping { token }).expect("encode");
        }
        sock.write_all(&pair).expect("send pair");
        for token in tokens {
            match proto::read_frame(&mut sock) {
                Ok(Some(Frame::Pong { token: t })) => assert_eq!(t, token),
                other => panic!("wanted Pong {token}, got {other:?}"),
            }
        }
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < BUDGET,
        "{ROUNDS} rounds of two pipelined pings took {elapsed:?} (budget {BUDGET:?}): \
         replies are waiting for the client's delayed ACK"
    );
    server.shutdown();
}
