//! The networked location service end to end: spawn an `at-serve` server
//! for the simulated office deployment on an ephemeral loopback port,
//! then localize three clients over TCP.
//!
//! ```sh
//! cargo run --release --example serve_demo
//! ```
//!
//! The demo runs the paper's Figure 1 topology: six AP processes, each
//! with its own ingestion connection, and one application connection.
//! For each "client" the testbed captures its transmission at all six
//! APs through the full radio + calibration + MUSIC path, each AP streams
//! its processed spectrum into the server's session store under the
//! client's key, and the application asks the server for that key's fix.
//! The server batches concurrent requests, enforces deadlines, and sheds
//! load when its queues fill (none of that triggers here — three polite
//! clients — but the loadgen bench exercises it; see `BENCH_SERVE.json`).

use arraytrack::core::health::HealthPolicy;
use arraytrack::serve::{AppClient, ClientConfig, ServeConfig};
use arraytrack::testbed::{
    ap_clients, serve_deployment, submit_position_keyed, Deployment, ExperimentConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let dep = Deployment::office(42);
    let cfg = ExperimentConfig::arraytrack(42);
    let server = serve_deployment(
        &dep,
        cfg.pipeline.music.bins,
        HealthPolicy::default(),
        ServeConfig::default(),
    )
    .expect("spawn server");
    println!("location service listening on {}", server.addr());
    println!();
    println!("client |    truth (m)    |      fix (m)    |  error | RTT (ms) | AP health");
    println!("-------+-----------------+-----------------+--------+----------+----------");

    let mut aps =
        ap_clients(server.addr(), dep.aps.len(), ClientConfig::default()).expect("connect APs");
    let mut app = AppClient::connect(server.addr(), ClientConfig::default()).expect("connect app");
    let mut rng = StdRng::seed_from_u64(7);
    for (label, &client) in [4usize, 17, 33].iter().enumerate() {
        let truth = dep.clients[client];
        let key = client as u64;
        submit_position_keyed(&mut aps, key, &dep, truth, &cfg, &mut rng).expect("submit spectra");
        let t0 = Instant::now();
        let fix = app.localize(key, None).expect("localize");
        let rtt = t0.elapsed().as_secs_f64() * 1e3;
        let err = fix.position.distance(truth);
        let healthy = fix
            .health
            .iter()
            .filter(|h| h.status == arraytrack::core::health::ApStatus::Healthy)
            .count();
        println!(
            "   {label}   | ({:5.1}, {:5.1})  | ({:5.1}, {:5.1})  | {err:5.2}  |  {rtt:6.1}  | {healthy}/{} healthy",
            truth.x,
            truth.y,
            fix.position.x,
            fix.position.y,
            fix.health.len(),
        );
        assert!(err < 5.0, "office fix should land within a few meters");
    }

    let stats = server.shutdown();
    println!();
    println!(
        "served {} fixes over {} connections; shed {}, deadline misses {}",
        stats.fixes, stats.connections, stats.shed, stats.deadline_missed
    );
}
