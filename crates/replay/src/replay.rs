//! Replay engines: feed a recorded journal back through the location
//! pipeline and check every recorded fix reproduces bit-exactly.
//!
//! Two modes:
//!
//! - [`replay_in_process`] drives a fresh [`SessionStore`] +
//!   [`at_core::LocalizationEngine`] + [`HealthTracker`] directly, with
//!   no network or threads — the regression harness. Because the store's
//!   eviction order is a deterministic function of the submit/snapshot
//!   sequence, a sequentially recorded journal replays to identical
//!   session state and therefore identical fusion inputs.
//! - [`replay_wire`] replays the journal against a *live* server through
//!   real [`ApClient`]/[`AppClient`] sessions, optionally at recorded or
//!   accelerated pacing — a load/soak generator with built-in parity
//!   checking.
//!
//! Recorded outcomes that depend on wall-clock scheduling (`Overloaded`,
//! `DeadlineExceeded`, `ShuttingDown`) are *skipped*, not compared:
//! admission pressure is not part of the deterministic state machine.
//! Journals recorded under concurrent load may also legitimately diverge
//! — interleaving at the tap is racy by construction — which is what the
//! `at_replay_divergence_total` counter is for; the committed golden
//! fixture is recorded sequentially and must replay divergence-free.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use at_config::{SystemConfig, TopologyOp};
use at_core::health::HealthTracker;
use at_core::{fuse, FusedObservation, FusionScratch, LocalizationEngine, LocationEstimate};
use at_obs::names;
use at_serve::{
    ApClient, AppClient, ClientConfig, ClientError, Encoding, KeyedObs, ServiceConfig,
    SessionPolicy, SessionStore,
};

use crate::format::{config_fingerprint, Event, JournalError, Outcome};
use crate::reader::Journal;

/// Cap on retained [`Divergence`] details (totals keep counting past it).
pub const MAX_DIVERGENCE_DETAILS: usize = 16;

/// One query whose replayed result disagreed with the recorded outcome.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// `seq` of the diverging query record.
    pub query_seq: u64,
    /// Session key the query cited.
    pub key: u64,
    /// Human-readable recorded-vs-replayed description.
    pub detail: String,
}

/// What a replay did and found.
#[derive(Clone, Debug, Default)]
pub struct ReplayReport {
    /// Journal records consumed.
    pub records: usize,
    /// Spectrum submissions applied.
    pub submits: usize,
    /// Localize queries driven.
    pub queries: usize,
    /// Queries whose outcome was compared bit-exactly.
    pub compared: usize,
    /// Queries skipped (load-dependent outcome, or no outcome recorded —
    /// e.g. the recorder died mid-exchange).
    pub skipped: usize,
    /// Compared queries that did **not** reproduce the recorded outcome.
    pub divergences: usize,
    /// Details for the first [`MAX_DIVERGENCE_DETAILS`] divergences.
    pub divergence_details: Vec<Divergence>,
    /// Propagated from the journal: it ended in a crash tail.
    pub truncated_tail: bool,
}

impl ReplayReport {
    fn diverge(&mut self, query_seq: u64, key: u64, detail: String) {
        self.divergences += 1;
        if self.divergence_details.len() < MAX_DIVERGENCE_DETAILS {
            self.divergence_details.push(Divergence {
                query_seq,
                key,
                detail,
            });
        }
    }

    fn finish(&mut self) {
        if self.divergences > 0 {
            at_obs::global()
                .counter(names::REPLAY_DIVERGENCE_TOTAL, &[])
                .add(self.divergences as u64);
        }
    }
}

fn fix_matches(x: f64, y: f64, likelihood: f64, est: &LocationEstimate) -> bool {
    x.to_bits() == est.position.x.to_bits()
        && y.to_bits() == est.position.y.to_bits()
        && likelihood.to_bits() == est.likelihood.to_bits()
}

fn describe_fix(est: &LocationEstimate) -> String {
    format!(
        "fix ({:?}, {:?}, likelihood {:?})",
        est.position.x, est.position.y, est.likelihood
    )
}

fn describe_outcome(outcome: &Outcome) -> String {
    match outcome {
        Outcome::Fix { x, y, likelihood } => {
            format!("fix ({x:?}, {y:?}, likelihood {likelihood:?})")
        }
        Outcome::Failed { error } => format!("failed ({error})"),
        Outcome::Overloaded => "overloaded".into(),
        Outcome::DeadlineExceeded => "deadline exceeded".into(),
        Outcome::ShuttingDown => "shutting down".into(),
    }
}

/// True if this recorded outcome is part of the deterministic state
/// machine (comparable), false if it is load-dependent (skipped).
fn comparable(outcome: &Outcome) -> bool {
    matches!(outcome, Outcome::Fix { .. } | Outcome::Failed { .. })
}

fn check_config(
    journal: &Journal,
    service: &ServiceConfig,
    session: SessionPolicy,
) -> Result<(), JournalError> {
    let got = config_fingerprint(service, session);
    if got != journal.meta.fingerprint {
        return Err(JournalError::ConfigMismatch {
            expected: journal.meta.fingerprint,
            got,
        });
    }
    // Guard the invariants the store/engine assert on, so a tampered
    // header surfaces as a typed error instead of a panic.
    if journal.meta.n_aps as usize != service.poses.len()
        || journal.meta.max_resident_spectra != session.max_resident_spectra as u64
        || journal.meta.max_resident_spectra < journal.meta.n_aps as u64
        || journal.meta.n_aps == 0
    {
        return Err(JournalError::Malformed {
            at: 0,
            reason: "journal meta inconsistent with deployment",
        });
    }
    Ok(())
}

/// AP ids are validated against the *current epoch's* AP count, not the
/// epoch-0 count in the journal header — a post-`Add` submit to a new AP
/// is legal, a post-`Remove` submit to the vanished slot is not.
fn check_ap(n_aps: usize, seq: u64, ap_id: u32) -> Result<(), JournalError> {
    if ap_id as usize >= n_aps {
        return Err(JournalError::BadApId { seq, ap_id });
    }
    Ok(())
}

/// Applies a recorded epoch transition to the replayer's system config,
/// refusing to continue if the op no longer applies or the resulting
/// canonical fingerprint disagrees with the recorded pin.
fn apply_epoch(
    system: &SystemConfig,
    op: &TopologyOp,
    recorded_fingerprint: u64,
) -> Result<(SystemConfig, at_config::ApMapping), JournalError> {
    let (next, mapping) = system.apply(op).map_err(|_| JournalError::Malformed {
        at: 0,
        reason: "recorded epoch op does not apply to the current topology",
    })?;
    let got = next.fingerprint();
    if got != recorded_fingerprint {
        return Err(JournalError::ConfigMismatch {
            expected: recorded_fingerprint,
            got,
        });
    }
    Ok((next, mapping))
}

/// Indexes recorded outcomes by the `seq` of their query record.
fn outcome_index(journal: &Journal) -> HashMap<u64, &Outcome> {
    journal
        .records
        .iter()
        .filter_map(|r| match &r.event {
            Event::Outcome { query_seq, outcome } => Some((*query_seq, outcome)),
            _ => None,
        })
        .collect()
}

/// Replays a journal through a fresh in-process store + engine + health
/// tracker, asserting bit-exact parity for every comparable outcome.
///
/// `service` + `session` must be the epoch-0 deployment the journal was
/// recorded under (checked by canonical fingerprint); recorded
/// [`Event::Epoch`] transitions are re-applied, re-fingerprinted against
/// their recorded pin, and the engine/store/health remapped exactly as
/// the live server did. Never panics on journal content: corrupt records
/// were already rejected by the reader, and remaining inconsistencies
/// (out-of-range APs, inconsistent meta, stale epoch ops) return typed
/// errors.
pub fn replay_in_process(
    journal: &Journal,
    service: &ServiceConfig,
    session: SessionPolicy,
) -> Result<ReplayReport, JournalError> {
    check_config(journal, service, session)?;
    let mut system = service.to_system(session);
    let mut engine = LocalizationEngine::for_epoch(&system.poses, system.region, system.bins, 0);
    // Reaper-driven time (idle eviction, staleness ticks) replays from
    // journal events, so the policy's wall-clock knobs are inert here.
    let store = SessionStore::new(system.poses.len(), system.session);
    let mut health = HealthTracker::new(system.poses.len());
    let outcomes = outcome_index(journal);

    let mut report = ReplayReport {
        truncated_tail: journal.truncated_tail,
        ..ReplayReport::default()
    };
    let mut scratch = FusionScratch::new();
    for record in &journal.records {
        report.records += 1;
        match &record.event {
            Event::Submit {
                key,
                ap_id,
                age,
                spectrum,
            } => {
                check_ap(system.poses.len(), record.seq, *ap_id)?;
                report.submits += 1;
                // Mirrors the live admission order: success report, then
                // store insert.
                health.report_success(*ap_id as usize);
                store.submit(*key, *ap_id as usize, *age, Arc::new(spectrum.clone()));
            }
            Event::Failure { ap_id } => {
                check_ap(system.poses.len(), record.seq, *ap_id)?;
                health.report_failure(*ap_id as usize);
            }
            Event::Tick => store.advance_tick(),
            Event::IdleReap { keys } => {
                for key in keys {
                    store.clear(*key);
                }
            }
            Event::Epoch {
                epoch,
                fingerprint,
                op,
            } => {
                let (next, mapping) = apply_epoch(&system, op, *fingerprint)?;
                engine = LocalizationEngine::for_epoch(&next.poses, next.region, next.bins, *epoch);
                store.remap(&mapping.old_to_new, mapping.n_new);
                health.remap(&mapping.old_to_new, mapping.n_new);
                system = next;
            }
            Event::Query { key, .. } => {
                report.queries += 1;
                // Snapshot unconditionally — it advances the store's
                // touch sequence exactly like the live server did, even
                // for queries whose outcome is skipped below.
                let snap = store.snapshot(*key).unwrap_or_default();
                let recorded = outcomes.get(&record.seq).copied();
                let Some(recorded) = recorded.filter(|o| comparable(o)) else {
                    report.skipped += 1;
                    continue;
                };
                let obs: Vec<FusedObservation<'_>> = snap.iter().map(KeyedObs::fused).collect();
                let replayed = fuse(&engine, &obs, &health, &system.health, &mut scratch);
                report.compared += 1;
                match (recorded, &replayed) {
                    (Outcome::Fix { x, y, likelihood }, Ok(est))
                        if fix_matches(*x, *y, *likelihood, est) => {}
                    (Outcome::Failed { error }, Err(e)) if error == e => {}
                    (recorded, replayed) => {
                        let replayed = match replayed {
                            Ok(est) => describe_fix(est),
                            Err(e) => format!("failed ({e})"),
                        };
                        report.diverge(
                            record.seq,
                            *key,
                            format!(
                                "recorded {}, replayed {replayed}",
                                describe_outcome(recorded)
                            ),
                        );
                    }
                }
            }
            Event::Outcome { .. } => {}
        }
    }
    report.finish();
    Ok(report)
}

/// Pacing policy for [`replay_wire`].
#[derive(Clone, Copy, Debug, Default)]
pub enum Pacing {
    /// Fire events back to back, as fast as the server accepts them.
    #[default]
    Unpaced,
    /// Honor recorded inter-event gaps, divided by `speedup` (1.0 =
    /// real-time, 10.0 = ten times faster).
    Recorded {
        /// Time-compression factor; must be finite and positive.
        speedup: f64,
    },
}

/// Options for [`replay_wire`].
#[derive(Clone, Debug, Default)]
pub struct WireOptions {
    /// Event pacing.
    pub pacing: Pacing,
}

fn wire_err(e: ClientError) -> JournalError {
    JournalError::Io(std::io::Error::other(format!("wire replay: {e}")))
}

/// Replays a journal against a live server at `addr` through real client
/// sessions: one lossless-uplink [`ApClient`] per recorded AP plus one
/// [`AppClient`] for queries.
///
/// Queries are driven without deadlines (a recorded deadline re-imposed
/// on a differently loaded server is pure nondeterminism). Comparable
/// recorded outcomes are checked bit-exactly; a live `Overloaded`/
/// `DeadlineExceeded`/`ShuttingDown` answer to a comparable query counts
/// as a divergence only in the sense that it is reported — transport
/// failures abort with a typed error instead.
pub fn replay_wire(
    journal: &Journal,
    addr: &str,
    service: &ServiceConfig,
    session: SessionPolicy,
    opts: &WireOptions,
) -> Result<ReplayReport, JournalError> {
    check_config(journal, service, session)?;
    let mut system = service.to_system(session);
    let cfg = ClientConfig::default();
    let mut aps = Vec::with_capacity(journal.meta.n_aps as usize);
    for _ in 0..journal.meta.n_aps {
        aps.push(ApClient::connect_with(addr, cfg, Encoding::LosslessDelta).map_err(wire_err)?);
    }
    let mut app = AppClient::connect(addr, cfg).map_err(wire_err)?;
    let outcomes = outcome_index(journal);

    let mut report = ReplayReport {
        truncated_tail: journal.truncated_tail,
        ..ReplayReport::default()
    };
    let mut last_t_us: Option<u64> = None;
    for record in &journal.records {
        report.records += 1;
        if let Pacing::Recorded { speedup } = opts.pacing {
            if speedup.is_finite() && speedup > 0.0 {
                let gap = last_t_us.map_or(0, |t| record.t_us.saturating_sub(t));
                let scaled = (gap as f64 / speedup).min(1e9);
                if scaled >= 1.0 {
                    std::thread::sleep(Duration::from_micros(scaled as u64));
                }
            }
            last_t_us = Some(record.t_us);
        }
        match &record.event {
            Event::Submit {
                key,
                ap_id,
                age,
                spectrum,
            } => {
                check_ap(aps.len(), record.seq, *ap_id)?;
                report.submits += 1;
                aps[*ap_id as usize]
                    .submit(*key, *ap_id, *age, spectrum)
                    .map_err(wire_err)?;
            }
            Event::Failure { ap_id } => {
                check_ap(aps.len(), record.seq, *ap_id)?;
                aps[*ap_id as usize]
                    .report_failure(*ap_id)
                    .map_err(wire_err)?;
            }
            // Reaper-driven events cannot be injected over the wire; the
            // server's own reaper owns that clock.
            Event::Tick | Event::IdleReap { .. } | Event::Outcome { .. } => {}
            Event::Epoch {
                fingerprint, op, ..
            } => {
                let (next, _mapping) = apply_epoch(&system, op, *fingerprint)?;
                let info = app.reconfigure(op).map_err(wire_err)?;
                if info.fingerprint != *fingerprint {
                    return Err(JournalError::ConfigMismatch {
                        expected: *fingerprint,
                        got: info.fingerprint,
                    });
                }
                // Mirror the AP-process fleet: the removed AP's uplink
                // goes away, a joining AP dials in fresh.
                match *op {
                    TopologyOp::Remove { ap_id } => {
                        aps.remove(ap_id as usize);
                    }
                    TopologyOp::Add { .. } => {
                        aps.push(
                            ApClient::connect_with(addr, cfg, Encoding::LosslessDelta)
                                .map_err(wire_err)?,
                        );
                    }
                    TopologyOp::Move { .. } => {}
                }
                system = next;
            }
            Event::Query { key, .. } => {
                report.queries += 1;
                let recorded = outcomes.get(&record.seq).copied();
                let Some(recorded) = recorded.filter(|o| comparable(o)) else {
                    report.skipped += 1;
                    continue;
                };
                report.compared += 1;
                match (recorded, app.localize(*key, None)) {
                    (Outcome::Fix { x, y, likelihood }, Ok(fix))
                        if fix_matches(*x, *y, *likelihood, &fix.estimate()) => {}
                    (Outcome::Failed { error }, Err(ClientError::Localize(e))) if *error == e => {}
                    (_, Err(ClientError::Io(e))) => return Err(wire_err(ClientError::Io(e))),
                    (_, Err(e @ ClientError::Protocol(_)))
                    | (_, Err(e @ ClientError::Unexpected(_))) => return Err(wire_err(e)),
                    (recorded, replayed) => {
                        let replayed = match replayed {
                            Ok(fix) => describe_fix(&fix.estimate()),
                            Err(e) => format!("error ({e})"),
                        };
                        report.diverge(
                            record.seq,
                            *key,
                            format!(
                                "recorded {}, replayed {replayed}",
                                describe_outcome(recorded)
                            ),
                        );
                    }
                }
            }
        }
    }
    report.finish();
    Ok(report)
}
