//! Robustness tier: seeded fault scenarios against the full office
//! deployment, asserting *graceful* degradation — error grows as hardware
//! fails, the system never panics, never emits NaN, and returns typed
//! errors once the surviving deployment cannot support a fix.
//!
//! Run with the tier-1 suite (`cargo test --test faults`) or via `ci.sh`.

use arraytrack::core::faults::FaultPlan;
use arraytrack::core::health::{HealthPolicy, LocalizeError};
use arraytrack::core::pipeline::ArrayTrackServer;
use arraytrack::core::synthesis::ApPose;
use arraytrack::core::{AoaSpectrum, LocalizationEngine};
use arraytrack::testbed::acquire::{
    acquire_spectrum, localize_under_faults, AcquireConfig, AcquireError,
};
use arraytrack::testbed::{compute_spectrum, Deployment, ExperimentConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

/// Deterministic scenario seed shared by the tier (ci.sh pins it too).
const SEED: u64 = 4242;

/// Clients exercised by the degradation sweeps: a spread of easy corridor
/// positions and harder in-office ones.
const CLIENTS: [usize; 10] = [0, 2, 5, 9, 13, 17, 22, 27, 33, 38];

struct Fixture {
    dep: Deployment,
    cfg: ExperimentConfig,
    /// Healthy-path spectra: `spectra[i][ap]` for client `CLIENTS[i]`.
    spectra: Vec<Vec<AoaSpectrum>>,
}

fn fixture() -> &'static Fixture {
    static FX: OnceLock<Fixture> = OnceLock::new();
    FX.get_or_init(|| {
        let dep = Deployment::office(SEED);
        let mut cfg = ExperimentConfig::arraytrack(SEED);
        cfg.frames = 2;
        let spectra = CLIENTS
            .iter()
            .map(|&ci| {
                let mut rng = StdRng::seed_from_u64(cfg.seed ^ (1000 + ci as u64));
                (0..dep.aps.len())
                    .map(|ap| compute_spectrum(&dep, ap, dep.clients[ci], &cfg, &mut rng))
                    .collect()
            })
            .collect();
        Fixture { dep, cfg, spectra }
    })
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

/// Per-client localization error when only `live` APs contribute, fused
/// through the server's degradation path (down APs reported as failed).
fn errors_with_live(fx: &Fixture, live: &[usize]) -> Vec<f64> {
    let mut server = ArrayTrackServer::new(fx.dep.search_region());
    // Drive the dead APs to Down status once; health persists across
    // clients (as it would across refresh intervals).
    for ap in 0..fx.dep.aps.len() {
        if !live.contains(&ap) {
            for _ in 0..server.policy().down_after {
                server.report_acquisition_failure(ap);
            }
        }
    }
    CLIENTS
        .iter()
        .enumerate()
        .map(|(i, &ci)| {
            server.clear();
            for &ap in live {
                server.add_observation_from(ap, fx.dep.aps[ap].pose, fx.spectra[i][ap].clone(), 0);
            }
            let est = server.try_localize().expect("live quorum must fix");
            let err = est.position.distance(fx.dep.clients[ci]);
            assert!(err.is_finite(), "client {ci}: non-finite error");
            err
        })
        .collect()
}

#[test]
fn all_healthy_fault_layer_is_bit_exact() {
    // Acceptance criterion: with every AP healthy, the fault-injection
    // layer's output is *identical* to the fault-free path — same spectra
    // through `acquire_spectrum`, same estimate through `try_localize`.
    let fx = fixture();
    let plan = FaultPlan::healthy(fx.dep.aps.len());
    let acq = AcquireConfig::default();
    let ci = CLIENTS[3];
    let mut r_fault = StdRng::seed_from_u64(SEED ^ 99);
    let mut r_clean = StdRng::seed_from_u64(SEED ^ 99);
    let mut server = ArrayTrackServer::new(fx.dep.search_region());
    let mut spectra = Vec::new();
    for ap in 0..fx.dep.aps.len() {
        let a = acquire_spectrum(&fx.dep, ap, ci, &fx.cfg, &plan, &acq, &mut r_fault)
            .expect("healthy plan must acquire");
        let b = compute_spectrum(&fx.dep, ap, fx.dep.clients[ci], &fx.cfg, &mut r_clean);
        assert_eq!(a.age, 0);
        for (x, y) in a.spectrum.values().iter().zip(b.values()) {
            assert_eq!(*x, *y, "AP {ap}: healthy fault path must be bit-identical");
        }
        server.add_observation_from(ap, fx.dep.aps[ap].pose, a.spectrum.clone(), a.age);
        spectra.push(a.spectrum);
    }
    let poses: Vec<ApPose> = fx.dep.aps.iter().map(|a| a.pose).collect();
    let engine = LocalizationEngine::new(&poses, fx.dep.search_region(), spectra[0].bins());
    let obs: Vec<(usize, &AoaSpectrum)> = spectra.iter().enumerate().collect();
    let plain = engine.localize(&obs);
    let guarded = server.try_localize().expect("all healthy");
    assert_eq!(plain.position.x.to_bits(), guarded.position.x.to_bits());
    assert_eq!(plain.position.y.to_bits(), guarded.position.y.to_bits());
    assert_eq!(plain.likelihood.to_bits(), guarded.likelihood.to_bits());
}

#[test]
fn error_degrades_monotonically_as_aps_fail() {
    // Fig. 14-style: kill APs one at a time (1 → top-center, 3 →
    // bottom-right, 5 → left wall) and watch the median error grow but
    // stay useful. Acceptance criterion: with 3 of 6 APs healthy the
    // median stays under 2× the healthy baseline.
    let fx = fixture();
    let med6 = median(errors_with_live(fx, &[0, 1, 2, 3, 4, 5]));
    let med5 = median(errors_with_live(fx, &[0, 2, 3, 4, 5]));
    let med4 = median(errors_with_live(fx, &[0, 2, 4, 5]));
    let med3 = median(errors_with_live(fx, &[0, 2, 4]));
    println!(
        "median error: 6 APs {med6:.3} m, 5 APs {med5:.3} m, 4 APs {med4:.3} m, 3 APs {med3:.3} m"
    );
    // Monotone growth, with slack for near-equal neighboring sizes (the
    // paper's Fig. 14 also shows 5 ≈ 6).
    assert!(
        med5 >= med6 - 0.10,
        "5-AP median {med5:.3} below 6-AP {med6:.3}"
    );
    assert!(
        med4 >= med6 - 0.10,
        "4-AP median {med4:.3} below 6-AP {med6:.3}"
    );
    assert!(
        med3 >= med6 - 0.10,
        "3-AP median {med3:.3} below 6-AP {med6:.3}"
    );
    assert!(
        med3 >= med5 - 0.10,
        "3-AP median {med3:.3} below 5-AP {med5:.3}"
    );
    // Graceful: the half-deployment median is bounded.
    assert!(
        med3 < 2.0 * med6,
        "3-AP median {med3:.3} m must stay under 2× the healthy {med6:.3} m"
    );
}

#[test]
fn antenna_dropout_degrades_gracefully() {
    // Two dead in-row elements at half the APs: reduced aperture, finite
    // non-negative spectra, and a fix that is still in the ballpark.
    let fx = fixture();
    let plan = FaultPlan::healthy(fx.dep.aps.len())
        .with_dead_elements(0, &[1, 5])
        .with_dead_elements(2, &[3, 6])
        .with_dead_elements(4, &[0, 7]);
    let acq = AcquireConfig::default();
    let policy = HealthPolicy::default();
    for (i, &ci) in CLIENTS.iter().take(4).enumerate() {
        let mut rng = StdRng::seed_from_u64(SEED ^ (7000 + ci as u64));
        for ap in 0..fx.dep.aps.len() {
            let a = acquire_spectrum(&fx.dep, ap, ci, &fx.cfg, &plan, &acq, &mut rng)
                .expect("dropout is not an acquisition failure");
            assert!(
                a.spectrum
                    .values()
                    .iter()
                    .all(|v| v.is_finite() && *v >= 0.0),
                "AP {ap}: dropout spectrum must stay finite and non-negative"
            );
        }
        let mut rng = StdRng::seed_from_u64(SEED ^ (7000 + ci as u64));
        let est = localize_under_faults(&fx.dep, ci, &fx.cfg, &plan, &acq, &policy, &mut rng)
            .expect("six degraded-aperture APs still fix");
        let err = est.position.distance(fx.dep.clients[ci]);
        let healthy: f64 = {
            let mut server = ArrayTrackServer::new(fx.dep.search_region());
            for ap in 0..fx.dep.aps.len() {
                server.add_observation_from(ap, fx.dep.aps[ap].pose, fx.spectra[i][ap].clone(), 0);
            }
            server
                .try_localize()
                .unwrap()
                .position
                .distance(fx.dep.clients[ci])
        };
        assert!(err.is_finite());
        assert!(
            err <= healthy + 4.0,
            "client {ci}: dropout error {err:.2} m vs healthy {healthy:.2} m"
        );
    }
}

#[test]
fn full_outage_returns_typed_error_not_panic() {
    let fx = fixture();
    let all: Vec<usize> = (0..fx.dep.aps.len()).collect();
    let plan = FaultPlan::healthy(fx.dep.aps.len()).with_outages(&all);
    let mut rng = StdRng::seed_from_u64(SEED);
    let err = localize_under_faults(
        &fx.dep,
        CLIENTS[0],
        &fx.cfg,
        &plan,
        &AcquireConfig::default(),
        &HealthPolicy::default(),
        &mut rng,
    )
    .unwrap_err();
    assert_eq!(err, LocalizeError::NoObservations);
}

#[test]
fn all_antennas_dead_returns_typed_error_not_panic() {
    let fx = fixture();
    let dead: Vec<usize> = (0..fx.cfg.capture.elements).collect();
    let mut plan = FaultPlan::healthy(fx.dep.aps.len());
    for ap in 0..fx.dep.aps.len() {
        plan = plan.with_dead_elements(ap, &dead);
    }
    // Per-AP: a typed NoSignal, not a panic or a NaN spectrum.
    let mut rng = StdRng::seed_from_u64(SEED ^ 1);
    let err = acquire_spectrum(
        &fx.dep,
        0,
        CLIENTS[0],
        &fx.cfg,
        &plan,
        &AcquireConfig::default(),
        &mut rng,
    )
    .unwrap_err();
    assert_eq!(err, AcquireError::NoSignal { ap: 0 });
    // Whole deployment: typed quorum failure.
    let err = localize_under_faults(
        &fx.dep,
        CLIENTS[0],
        &fx.cfg,
        &plan,
        &AcquireConfig::default(),
        &HealthPolicy::default(),
        &mut rng,
    )
    .unwrap_err();
    assert_eq!(err, LocalizeError::NoObservations);
}

#[test]
fn stale_spectra_are_gated_by_quorum() {
    let fx = fixture();
    let policy = HealthPolicy {
        min_quorum: 3,
        ..HealthPolicy::default()
    };
    // Four APs serve spectra older than the policy tolerates: only two
    // fresh ones remain — below quorum, typed error.
    let stale_plan = FaultPlan::healthy(fx.dep.aps.len())
        .with_spectrum_age(0, 9)
        .with_spectrum_age(1, 9)
        .with_spectrum_age(3, 9)
        .with_spectrum_age(5, 9);
    let mut rng = StdRng::seed_from_u64(SEED ^ 2);
    match localize_under_faults(
        &fx.dep,
        CLIENTS[1],
        &fx.cfg,
        &stale_plan,
        &AcquireConfig::default(),
        &policy,
        &mut rng,
    ) {
        Err(LocalizeError::QuorumNotMet {
            available,
            required,
            stale,
            ..
        }) => {
            assert_eq!((available, required, stale), (2, 3, 4));
        }
        other => panic!("expected QuorumNotMet, got {other:?}"),
    }
    // Ages within tolerance: the same deployment fixes fine.
    let fresh_plan = FaultPlan::healthy(fx.dep.aps.len())
        .with_spectrum_age(0, 2)
        .with_spectrum_age(1, 1);
    let mut rng = StdRng::seed_from_u64(SEED ^ 2);
    let est = localize_under_faults(
        &fx.dep,
        CLIENTS[1],
        &fx.cfg,
        &fresh_plan,
        &AcquireConfig::default(),
        &policy,
        &mut rng,
    )
    .expect("fresh-enough spectra meet quorum");
    assert!(est
        .position
        .distance(fx.dep.clients[CLIENTS[1]])
        .is_finite());
}

#[test]
fn drift_and_noise_spikes_are_tolerated() {
    // Calibration drift on two APs plus a 15 dB noise-floor spike on a
    // third: accuracy suffers but the system keeps producing finite,
    // in-region fixes.
    let fx = fixture();
    let plan = FaultPlan::healthy(fx.dep.aps.len())
        .with_phase_drift(1, 0.25)
        .with_phase_drift(4, 0.4)
        .with_noise_spike(2, 15.0);
    let region = fx.dep.search_region();
    for &ci in CLIENTS.iter().take(3) {
        let mut rng = StdRng::seed_from_u64(SEED ^ (8000 + ci as u64));
        let est = localize_under_faults(
            &fx.dep,
            ci,
            &fx.cfg,
            &plan,
            &AcquireConfig::default(),
            &HealthPolicy::default(),
            &mut rng,
        )
        .expect("drifted deployment still fixes");
        let p = est.position;
        assert!(p.x.is_finite() && p.y.is_finite());
        assert!(
            p.x >= region.min.x - 1e-9
                && p.x <= region.max.x + 1e-9
                && p.y >= region.min.y - 1e-9
                && p.y <= region.max.y + 1e-9,
            "client {ci}: fix {p:?} escaped the search region"
        );
    }
}

#[test]
fn seeded_plans_and_runs_are_reproducible() {
    let fx = fixture();
    let a = FaultPlan::seeded(fx.dep.aps.len(), 77);
    let b = FaultPlan::seeded(fx.dep.aps.len(), 77);
    assert_eq!(a, b, "same seed must build the same plan");
    assert_ne!(
        a,
        FaultPlan::seeded(fx.dep.aps.len(), 78),
        "different seeds must differ"
    );
    let plan = FaultPlan::healthy(fx.dep.aps.len())
        .with_outage(3)
        .with_dead_elements(0, &[2])
        .with_miss_rate(5, 0.3);
    let run = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        localize_under_faults(
            &fx.dep,
            CLIENTS[2],
            &fx.cfg,
            &plan,
            &AcquireConfig::default(),
            &HealthPolicy::default(),
            &mut rng,
        )
        .expect("one outage leaves five APs")
    };
    let x = run(123);
    let y = run(123);
    assert_eq!(x.position.x, y.position.x);
    assert_eq!(x.position.y, y.position.y);
}
