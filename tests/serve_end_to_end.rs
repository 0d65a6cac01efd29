//! The networked location service through the facade: simulated office
//! capture → keyed wire submission → batched server fusion, checked
//! bit-exactly against the in-process `ArrayTrackServer` on the same
//! spectra.

use arraytrack::core::health::{ApStatus, HealthPolicy};
use arraytrack::core::ArrayTrackServer;
use arraytrack::serve::{ApClient, AppClient, ClientConfig, ServeConfig};
use arraytrack::testbed::{compute_spectrum, Deployment, ExperimentConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn wire_fix_matches_in_process_server_bit_for_bit() {
    let dep = Deployment::office(3);
    let cfg = ExperimentConfig::arraytrack(3);
    let truth = dep.clients[10];

    // One captured spectrum per AP, shared by both paths.
    let mut rng = StdRng::seed_from_u64(17);
    let spectra: Vec<_> = (0..dep.aps.len())
        .map(|ap| compute_spectrum(&dep, ap, truth, &cfg, &mut rng))
        .collect();

    // In-process reference.
    let mut reference = ArrayTrackServer::new(dep.search_region());
    for (ap, spectrum) in spectra.iter().enumerate() {
        reference.add_observation_from(ap, dep.aps[ap].pose, spectrum.clone(), 0);
    }
    let expected = reference.try_localize().expect("reference fix");

    // The same spectra over the wire.
    let server = arraytrack::testbed::serve_deployment(
        &dep,
        cfg.pipeline.music.bins,
        HealthPolicy::default(),
        ServeConfig::default(),
    )
    .expect("spawn");
    // A private session: one ingestion connection, an unused key.
    let key = 10;
    let mut ingest = ApClient::connect(server.addr(), ClientConfig::default()).expect("connect");
    for (ap, spectrum) in spectra.iter().enumerate() {
        ingest.submit(key, ap as u32, 0, spectrum).expect("submit");
    }
    let mut app = AppClient::connect(server.addr(), ClientConfig::default()).expect("connect");
    let fix = app.localize(key, None).expect("wire fix");

    assert_eq!(fix.position.x.to_bits(), expected.position.x.to_bits());
    assert_eq!(fix.position.y.to_bits(), expected.position.y.to_bits());
    assert_eq!(fix.likelihood.to_bits(), expected.likelihood.to_bits());
    assert!(fix.health.iter().all(|h| h.status == ApStatus::Healthy));

    // Failure reports degrade an AP over the wire with the same policy
    // thresholds the in-process tracker applies (degraded_after = 2).
    ingest.report_failure(2).expect("report");
    ingest.report_failure(2).expect("report");
    let fix = app.localize(key, None).expect("degraded fix");
    let degraded = fix
        .health
        .iter()
        .find(|h| h.ap_id == 2)
        .expect("AP 2 reported");
    assert_eq!(degraded.status, ApStatus::Degraded);
    assert_eq!(degraded.consecutive_failures, 2);

    let stats = server.shutdown();
    assert_eq!(stats.fixes, 2);
    assert_eq!(stats.shed, 0);
}
