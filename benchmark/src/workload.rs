//! The three workloads and the run that measures one of them.
//!
//! Every run has the same shape:
//!
//! 1. set-up probes: the server is spawned in fresh processes, timed from
//!    the `spawn` call to the first `Pong` (the grid cache is
//!    process-wide, so only a cold process measures it). The end-to-end
//!    run takes them in batches at its start, after the captures and at
//!    its end, so the median spans the whole run;
//! 2. one pool of captures from the seed (untimed);
//! 3. the AP lap: one thread runs every (client, AP) frame group through
//!    detect → `process_frame` × F → `suppress_multipath` → submit, which
//!    primes the keys;
//! 4. in-process references and codec checks;
//! 5. the timed load: a reference phase at the workload's fixed fix rate;
//!    in the traced run, a shorter one, the fix-rate ladder and shadow
//!    calls into each layer.
//!
//! The workloads differ in their traffic mix, not in this shape.

use crate::inputs::{self, Group, Site};
use crate::ledger;
use crate::load::{self, Conn, Kind, Op, Outcome, Reply};
use crate::scrape::Scrape;
use crate::stats;
use crate::trace::{self, Tracer};
use at_core::health::{HealthPolicy, HealthTracker};
use at_core::{AoaSpectrum, FusedObservation, LocalizationEngine};
use at_dsp::{MatchedFilter, Preamble, SAMPLE_RATE_HZ};
use at_replay::{JournalMeta, Recorder, RecorderConfig};
use at_serve::codec::{self, CompressedMode};
use at_serve::proto::{ApHealthReport, Frame};
use at_serve::{
    ApClient, Client, ClientConfig, Encoding, RecordTap, ServeConfig, ServerHandle, SessionPolicy,
    SessionStore, StatsSnapshot,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fix rate of the reference phase, fixes per second, on every workload.
/// One connection is served one request at a time, so each fix holds the
/// connection for its whole server time: ~1 ms on a quiet host, 2 to
/// 3.5 ms while other tenants slow it down. At 500/s and at 300/s runs on
/// a slow host fell behind for good (p50 over 170 ms), and at 500/s the
/// refresh traffic starved until spectra went stale. At this rate the
/// connection stays under half busy at 3.5 ms per fix.
const FIX_RATE: f64 = 150.0;
/// Fix latency limit of the ladder, milliseconds.
const FIX_LIMIT_MS: f64 = 10.0;
/// The fix-rate ladder, fixes per second.
const LADDER: [f64; 8] = [200.0, 400.0, 600.0, 800.0, 1000.0, 1200.0, 1400.0, 1600.0];
/// Timed AP laps over the pool per run.
const TIMED_LAPS: usize = 5;
/// Set-up probes per batch; the end-to-end run takes three batches and
/// reports the median of all of them.
const SETUP_PROBES: usize = 7;
/// Captures of every client per run: the served pool plus rounds fused in
/// process, which widen the accuracy sample to 123 fixes.
const ACCURACY_ROUNDS: u64 = 3;
/// The office deployment every run uses (floorplan, AP calibration and
/// element imperfections). The run's `--seed` drives everything captured
/// in it: channel noise, client jitter, burst offsets and key order.
const SITE_SEED: u64 = 1;
/// Fixes sent at once when the reference phase starts. Accepted sockets
/// lack `TCP_NODELAY`, so a reply written while the previous one is
/// unacknowledged waits for the next request, which carries the ACK. Once
/// a reply is written later than the next request is sent, every reply
/// after it waits one request gap; replies faster than the gap keep the
/// connection out of that state. Which state a run settled in varied from
/// run to run (p50 one gap or ~1 ms); the queue this burst builds puts
/// every run in the held state from its first requests.
const HELD_BURST: usize = 8;
/// Names (as `/proc` shows them, cut to 15 bytes) of the server threads
/// that run only keyed fixes: the batcher and the fusion workers.
const FUSION_THREADS: [&str; 2] = ["at-serve-batche", "at-serve-worker"];
/// Tail rule: the reported percentile keeps this many samples beyond it.
const TAIL_BEYOND: usize = 10;
/// A run whose generator sent its median request later than this fell
/// behind and is invalid. (A host stall of 100 ms delays ~1% of a run's
/// requests by more than the 10 ms fix limit without the generator
/// falling behind, so the p99 is reported, not gated.)
const MAX_LAG_P50_MS: f64 = 1.0;
/// Keys of `mixed_ingest`: its working set (6 spectra of 5.8 KB per key)
/// is ~35 MB, beyond L2.
const MIXED_KEYS: usize = 1024;
/// `mixed_ingest` submissions per second. Every key must be refreshed
/// within the store's staleness horizon (`refresh_interval ×
/// max_spectrum_age`, 3 to 4 s at the defaults); 6144 spectra at this
/// rate cycle every ~2 s, which leaves a second for host stalls.
const MIXED_SUBMIT_RATE: f64 = 3000.0;

/// A named traffic mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Reads dominate: 41 primed keys, fixes at 150/s (900 spectra fused
    /// per second), each key's raw spectra resubmitted once per refresh
    /// interval (246 per second).
    FixStorm,
    /// AP-side compute: a closed-loop AP pipeline with a quantized
    /// uplink, fixes at 150/s beside it.
    ApUplink,
    /// Write-heavy: 1024 keys refreshed with pre-quantized spectra at a
    /// high rate through the replay journal, fixes at 150/s.
    MixedIngest,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "fix_storm" => Some(Self::FixStorm),
            "ap_uplink" => Some(Self::ApUplink),
            "mixed_ingest" => Some(Self::MixedIngest),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Self::FixStorm => "fix_storm",
            Self::ApUplink => "ap_uplink",
            Self::MixedIngest => "mixed_ingest",
        }
    }

    /// The uplink encoding its APs use.
    fn encoding(self) -> Encoding {
        match self {
            Self::FixStorm => Encoding::Raw,
            Self::ApUplink | Self::MixedIngest => Encoding::Quantized,
        }
    }

    /// Keys the fixes are spread over.
    fn keys(self, clients: usize) -> usize {
        match self {
            Self::MixedIngest => MIXED_KEYS,
            Self::FixStorm | Self::ApUplink => clients,
        }
    }
}

/// What the command line asked for.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// How long the timed load runs.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// A finished, correct run.
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// `(name, value, unit)` in output order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

fn io_err<E: std::fmt::Display>(context: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{context}: {e}")
}

/// Where runs write journals and traces: inside the benchmark's own
/// directory of the checkout.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A spawned server, with its journal for `mixed_ingest`.
struct Served {
    handle: Option<ServerHandle>,
    recorder: Option<Arc<Recorder>>,
    journal: Option<PathBuf>,
}

impl Served {
    fn start(site: &Site, workload: Workload, tag: &str) -> Result<Self, String> {
        let cfg = ServeConfig::default();
        let service = site.service.clone();
        if workload != Workload::MixedIngest {
            let handle = at_serve::spawn(service, cfg, "127.0.0.1:0").map_err(io_err("spawn"))?;
            return Ok(Self {
                handle: Some(handle),
                recorder: None,
                journal: None,
            });
        }
        let dir = out_dir().join(format!("journal-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let meta = JournalMeta::for_service(&service, cfg.session);
        let recorder = Arc::new(
            Recorder::create(&dir, meta, RecorderConfig::default()).map_err(io_err("journal"))?,
        );
        let tap: Arc<dyn RecordTap> = recorder.clone();
        let handle = at_serve::spawn_recorded(service, cfg, "127.0.0.1:0", Some(tap))
            .map_err(io_err("spawn_recorded"))?;
        Ok(Self {
            handle: Some(handle),
            recorder: Some(recorder),
            journal: Some(dir),
        })
    }

    fn handle(&self) -> &ServerHandle {
        self.handle.as_ref().expect("server runs until finish")
    }

    /// Shuts the server down and removes its journal; reports whether the
    /// journal writer ever failed.
    fn finish(mut self) -> bool {
        self.stop()
    }

    fn stop(&mut self) -> bool {
        if let Some(h) = self.handle.take() {
            h.shutdown();
        }
        let failed = self.recorder.take().is_some_and(|r| r.finish().failed);
        if let Some(dir) = self.journal.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
        failed
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Child-process body of a set-up probe: CPU seconds the process spends
/// from `spawn` to the first `Pong`. Wall time over the same span swung
/// from 0.02 to 0.1 s with the load other tenants put on the host, and
/// the CPU time repeats within a few percent.
pub fn setup_probe(workload: Workload) -> Result<f64, String> {
    let site = Site::office(SITE_SEED);
    let cpu0 = load::process_cpu_seconds();
    let served = Served::start(&site, workload, "probe")?;
    let mut client = Client::connect(served.handle().addr(), ClientConfig::default())
        .map_err(io_err("connect"))?;
    client.ping(1).map_err(io_err("ping"))?;
    let secs = load::process_cpu_seconds() - cpu0;
    drop(client);
    served.finish();
    Ok(secs)
}

/// Appends one batch of set-up times, each from a fresh process. Only the
/// end-to-end run probes: the traced run does not report `setup_s`.
fn setup_probes(args: &Args, samples: &mut Vec<f64>) -> Result<(), String> {
    if args.trace {
        return Ok(());
    }
    let exe = std::env::current_exe().map_err(io_err("current_exe"))?;
    for _ in 0..SETUP_PROBES {
        let out = std::process::Command::new(&exe)
            .args(["--setup-probe", "--workload", args.workload.name()])
            .output()
            .map_err(io_err("setup probe"))?;
        if !out.status.success() {
            return Err(format!(
                "setup probe failed: {}",
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let v = text
            .lines()
            .find_map(|l| l.strip_prefix("setup_s "))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .ok_or_else(|| format!("setup probe printed no time: {text}"))?;
        samples.push(v);
    }
    Ok(())
}

/// One AP group's pass through the AP thread.
struct GroupRun {
    end: Instant,
    frames: usize,
    /// CPU seconds the AP thread spent on the whole group, pipeline and
    /// submit; the wait for the acknowledgement and any time the host
    /// gave the CPU to other tenants are not in it.
    cpu_secs: f64,
    submit_ms: f64,
}

/// Runs one group through the AP pipeline and submits the result.
fn ap_group(
    site: &Site,
    group: &Group,
    filter: &MatchedFilter,
    ap: &mut ApClient,
    tracer: &mut Tracer,
    request: u64,
) -> Result<(AoaSpectrum, usize, GroupRun), String> {
    let cpu0 = load::thread_cpu_seconds();
    tracer.span("ap.group", request, |t| {
        let r = inputs::ap_process(group, site, filter, t, request);
        let sent = Instant::now();
        t.span("serve.client.submit", request, |_| {
            ap.submit(group.client as u64, group.ap as u32, 0, &r.spectrum)
        })
        .map_err(io_err("AP submit"))?;
        let end = Instant::now();
        let run = GroupRun {
            end,
            frames: group.blocks.len(),
            cpu_secs: load::thread_cpu_seconds() - cpu0,
            submit_ms: (end - sent).as_secs_f64() * 1e3,
        };
        Ok((r.spectrum, r.hits, run))
    })
}

/// Fix ops for one phase: `burst` sent at once when it starts, then
/// `rate` per second for `dur`, evenly spaced; keys uniform.
fn fix_ops(
    rng: &mut StdRng,
    keys: usize,
    rate: f64,
    dur: Duration,
    phase: usize,
    burst: usize,
) -> Vec<Op> {
    let n = (rate * dur.as_secs_f64()).round() as usize;
    std::iter::repeat_n(Duration::ZERO, burst)
        .chain(load::paced(Duration::from_millis(2), rate, n))
        .map(|due| {
            let key = rng.gen_range(0..keys);
            Op {
                due,
                frame: key,
                kind: Kind::Fix,
                tag: key,
                phase,
            }
        })
        .collect()
}

/// Submit ops: the ingest rate for `dur`, evenly spaced, cycling
/// through the frame table.
fn submit_ops(ing: &mut Ingest, dur: Duration, phase: usize) -> Vec<Op> {
    let n = (ing.rate * dur.as_secs_f64()).round() as usize;
    load::paced(Duration::from_millis(1), ing.rate, n)
        .map(|due| {
            let frame = ing.next % ing.frames;
            ing.next += 1;
            Op {
                due,
                frame,
                kind: Kind::Submit,
                tag: frame,
                phase,
            }
        })
        .collect()
}

/// The ingest side of a workload's event loop.
struct Ingest {
    conn: Conn,
    frames: usize,
    rate: f64,
    next: usize,
}

/// Outcomes of one driven phase.
struct Phase {
    fixes: Vec<Outcome>,
    submits: Vec<Outcome>,
    start: Instant,
    end: Instant,
    rss_peak_mb: f64,
    /// The server's adaptive batch window, sampled every 50 ms, ms.
    window_ms: Vec<f64>,
}

fn drive_phase(
    app: &mut Conn,
    ingest: &mut Option<Ingest>,
    fix: Vec<Op>,
    dur: Duration,
    phase: usize,
) -> Result<Phase, String> {
    app.schedule(fix);
    let start = Instant::now();
    let gauge = at_obs::global().gauge(at_serve::BATCH_WINDOW_GAUGE, &[]);
    let mut window_ms = Vec::new();
    let mut tick = || window_ms.push(gauge.get() * 1e3);
    let stall = Duration::from_secs(10);
    let rss_peak_mb = match ingest {
        Some(ing) => {
            let ops = submit_ops(ing, dur, phase);
            ing.conn.schedule(ops);
            load::drive(&mut [app, &mut ing.conn], start, stall, &mut tick)
        }
        None => load::drive(&mut [app], start, stall, &mut tick),
    }
    .map_err(io_err("load generator"))?;
    Ok(Phase {
        fixes: app.outcomes().to_vec(),
        submits: ingest
            .as_ref()
            .map(|i| i.conn.outcomes().to_vec())
            .unwrap_or_default(),
        start,
        end: Instant::now(),
        rss_peak_mb,
        window_ms,
    })
}

/// A ladder rung's verdict.
struct Rung {
    rate: f64,
    tail: Option<stats::Tail>,
    failed: usize,
    backlog_grew: bool,
}

impl Rung {
    fn passed(&self) -> bool {
        self.failed == 0 && !self.backlog_grew && self.tail.is_some_and(|t| t.value <= FIX_LIMIT_MS)
    }
}

/// The generator's backlog grew when the requests outstanding at send
/// time in the rung's last quarter clearly exceed its first quarter's.
fn backlog_grew(fixes: &[Outcome]) -> bool {
    let q = fixes.len() / 4;
    if q == 0 {
        return false;
    }
    let mean = |s: &[Outcome]| s.iter().map(|o| o.outstanding as f64).sum::<f64>() / s.len() as f64;
    let (first, last) = (mean(&fixes[..q]), mean(&fixes[fixes.len() - q..]));
    last > first + 1.0 && last > 2.0 * first
}

fn latencies(outcomes: &[Outcome]) -> Vec<f64> {
    stats::sorted(&outcomes.iter().map(Outcome::latency_ms).collect::<Vec<_>>())
}

/// Failed requests, with the first failure's description.
fn refusals(outcomes: &[Outcome]) -> (usize, Option<String>) {
    let mut first = None;
    let n = outcomes
        .iter()
        .filter(|o| match &o.reply {
            Reply::Refused(why) => {
                first.get_or_insert_with(|| why.clone());
                true
            }
            _ => false,
        })
        .count();
    (n, first)
}

/// Checks every fix against the in-process reference for its key.
fn check_fixes(fixes: &[Outcome], expected: &[[u64; 3]], clients: usize) -> Result<(), String> {
    for o in fixes {
        if let Reply::Fix(bits) = o.reply {
            let want = expected[o.op.tag % clients];
            if bits != want {
                return Err(format!(
                    "networked fix for key {} differs from the in-process fix: {:?} vs {:?}",
                    o.op.tag,
                    bits.map(f64::from_bits),
                    want.map(f64::from_bits)
                ));
            }
        }
    }
    Ok(())
}

/// Pre-encoded frames of one workload.
struct Frames {
    fixes: Vec<Vec<u8>>,
    submits: Vec<Vec<u8>>,
}

fn encode_frames(workload: Workload, spectra: &[Vec<AoaSpectrum>]) -> Frames {
    let clients = spectra.len();
    let keys = workload.keys(clients);
    let fixes = (0..keys)
        .map(|k| {
            Frame::LocalizeKey {
                key: k as u64,
                deadline_ms: 0,
            }
            .encode()
        })
        .collect();
    let submits = match workload {
        Workload::ApUplink => Vec::new(),
        Workload::FixStorm | Workload::MixedIngest => (0..keys)
            .flat_map(|k| {
                spectra[k % clients]
                    .iter()
                    .enumerate()
                    .map(move |(ap, s)| (k, ap, s))
            })
            .map(|(k, ap, s)| {
                let (key, ap_id, age, spectrum) = (k as u64, ap as u32, 0, s.clone());
                match workload.encoding().mode() {
                    None => Frame::SubmitKeyed {
                        key,
                        ap_id,
                        age,
                        spectrum,
                    },
                    Some(mode) => Frame::SubmitCompressedKeyed {
                        key,
                        ap_id,
                        age,
                        mode,
                        spectrum,
                    },
                }
                .encode()
            })
            .collect(),
    };
    Frames { fixes, submits }
}

fn scrape(conn: &mut Conn) -> Result<Scrape, String> {
    match load::request(conn, &Frame::MetricsQuery, Duration::from_secs(10)) {
        Ok(Frame::MetricsReport { text }) => Ok(Scrape::parse(&text)),
        Ok(other) => Err(format!("metrics query answered with {other:?}")),
        Err(e) => Err(format!("metrics query: {e}")),
    }
}

fn uplink_bytes_per_spectrum(before: &StatsSnapshot, after: &StatsSnapshot) -> f64 {
    let bytes = (after.uplink_raw_bytes + after.uplink_compressed_bytes)
        - (before.uplink_raw_bytes + before.uplink_compressed_bytes);
    let n = (after.submits_raw + after.submits_compressed)
        - (before.submits_raw + before.submits_compressed);
    if n == 0 {
        0.0
    } else {
        bytes as f64 / n as f64
    }
}

/// Runs one workload and returns its metrics, or why the run is invalid.
pub fn run(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The host's speed drifts over seconds, so set-up is probed at three
    // points of the run rather than in one burst.
    let mut setup = Vec::with_capacity(3 * SETUP_PROBES);
    setup_probes(args, &mut setup)?;

    let site = Site::office(SITE_SEED);
    let groups = inputs::capture(&site, args.seed, threads);
    // More independent captures of every client, for accuracy only.
    // Captured before the server starts: primed spectra go stale within
    // `refresh_interval × max_spectrum_age` of the laps below.
    let extra_rounds: Vec<Vec<Vec<AoaSpectrum>>> = (1..ACCURACY_ROUNDS)
        .map(|round| inputs::accuracy_round(&site, args.seed, round, threads))
        .collect();
    setup_probes(args, &mut setup)?;
    let clients = site.n_clients();
    let n_aps = site.n_aps();
    let keys = w.keys(clients);
    let served = Served::start(&site, w, "run")?;
    let addr = served.handle().addr();
    let filter = MatchedFilter::new(&Preamble::new(), SAMPLE_RATE_HZ);
    let epoch = Instant::now();
    let mut attempted = 0u64;

    // AP laps over the pool, one thread, closed loop: the first primes
    // every pool client's key and warms the pipeline; the rest are timed
    // (and traced in the traced run) and must reproduce the first bit
    // for bit. Several laps average out second-scale swings in host CPU
    // speed.
    let mut ap = ApClient::connect_with(addr, ClientConfig::default(), w.encoding())
        .map_err(io_err("AP connect"))?;
    let mut ap_tracer = Tracer::new(epoch, false);
    let mut spectra: Vec<Vec<AoaSpectrum>> = vec![Vec::with_capacity(n_aps); clients];
    for (i, g) in groups.iter().enumerate() {
        let (s, _, _) = ap_group(&site, g, &filter, &mut ap, &mut ap_tracer, i as u64)?;
        spectra[g.client].push(s);
        attempted += 1;
    }
    let lap_before = Scrape::parse(&ap.metrics().map_err(io_err("AP metrics"))?);
    let (mut hits, mut bursts) = (0usize, 0usize);
    let mut lap = Vec::with_capacity(TIMED_LAPS * groups.len());
    // Group seconds and groups run untraced and traced: the traced run
    // traces every other group, alternating from lap to lap so each
    // group is seen both ways, and the difference between the two means
    // is the tracing overhead.
    let mut lap_secs = [(0.0f64, 0usize); 2];
    for (i, g) in (0..TIMED_LAPS).flat_map(|_| groups.iter()).enumerate() {
        let traced = args.trace && (i / groups.len() + i % groups.len()).is_multiple_of(2);
        ap_tracer.set_enabled(traced);
        let (s, h, run) = ap_group(&site, g, &filter, &mut ap, &mut ap_tracer, i as u64)?;
        if !same_bits(&s, &spectra[g.client][g.ap]) {
            return Err(format!(
                "AP pipeline not deterministic for client {} at AP {}",
                g.client, g.ap
            ));
        }
        hits += h;
        bursts += g.bursts.len();
        let (secs, n) = &mut lap_secs[usize::from(traced)];
        *secs += run.cpu_secs;
        *n += 1;
        lap.push(run);
        attempted += 1;
    }
    let lap_scrape = Scrape::parse(&ap.metrics().map_err(io_err("AP metrics"))?).delta(&lap_before);
    let [(plain_secs, plain), (traced_secs, traced)] = lap_secs;
    let trace_overhead_us = if plain > 0 && traced > 0 {
        (traced_secs / traced as f64 - plain_secs / plain as f64) * 1e6
    } else {
        0.0
    };
    if ap.encoding() != w.encoding() {
        return Err("the AP uplink fell back to raw frames against its own server".into());
    }
    if hits * 10 < bursts * 9 {
        return Err(format!("detector found only {hits} of {bursts} preambles"));
    }

    // What the server holds is what the uplink delivers.
    let served_form = |s: &AoaSpectrum| match w.encoding() {
        Encoding::Raw => s.clone(),
        _ => codec::quantized(s),
    };
    let served_spectra: Vec<Vec<AoaSpectrum>> = spectra
        .iter()
        .map(|per| per.iter().map(served_form).collect())
        .collect();
    check_codec(&spectra)?;
    let mut expected = Vec::with_capacity(clients);
    let mut errors = Vec::with_capacity(ACCURACY_ROUNDS as usize * clients);
    for (c, per) in served_spectra.iter().enumerate() {
        let fix = inputs::reference_fix(&site, per)?;
        errors.push(fix_error(&site, c, fix)?);
        expected.push(fix.map(f64::to_bits));
    }
    for (c, per) in extra_rounds.iter().flat_map(|r| r.iter().enumerate()) {
        let per: Vec<AoaSpectrum> = per.iter().map(served_form).collect();
        errors.push(fix_error(&site, c, inputs::reference_fix(&site, &per)?)?);
    }

    // The event loop's connections: at most one app and one AP link.
    let mut ap = Some(ap);
    let frames = encode_frames(w, &spectra);
    let connect = || TcpStream::connect(addr).map_err(io_err("connect"));
    let mut app = Conn::new(connect()?, frames.fixes).map_err(io_err("app conn"))?;
    let mut ingest = match w {
        Workload::ApUplink => None,
        Workload::FixStorm | Workload::MixedIngest => {
            ap = None;
            let n = frames.submits.len();
            let rate = match w {
                // Each key's spectra once per refresh interval.
                Workload::FixStorm => {
                    n as f64
                        / ServeConfig::default()
                            .session
                            .refresh_interval
                            .as_secs_f64()
                }
                _ => MIXED_SUBMIT_RATE,
            };
            let conn = Conn::new(connect()?, frames.submits).map_err(io_err("AP conn"))?;
            let mut ing = Ingest {
                conn,
                frames: n,
                rate,
                next: 0,
            };
            // Refresh every key, each frame once, right before the clock
            // starts: spectra go stale `refresh_interval ×
            // max_spectrum_age` after their last submission, and the
            // laps and checks above take a while.
            {
                let ops = (0..n)
                    .map(|frame| Op {
                        due: Duration::from_secs_f64(frame as f64 / 20_000.0),
                        frame,
                        kind: Kind::Submit,
                        tag: frame,
                        phase: 0,
                    })
                    .collect();
                ing.conn.schedule(ops);
                load::drive(
                    &mut [&mut ing.conn],
                    Instant::now(),
                    Duration::from_secs(10),
                    &mut || (),
                )
                .map_err(io_err("priming"))?;
                attempted += ing.conn.outcomes().len() as u64;
                if let (n, Some(why)) = refusals(ing.conn.outcomes()) {
                    return Err(format!("{n} priming submissions failed: {why}"));
                }
            }
            Some(ing)
        }
    };

    if let Some(ap) = ap.as_mut() {
        // ap_uplink: the same refresh through the AP's own link.
        for (c, per) in spectra.iter().enumerate() {
            for (a, s) in per.iter().enumerate() {
                ap.submit(c as u64, a as u32, 0, s)
                    .map_err(io_err("AP submit"))?;
                attempted += 1;
            }
        }
    }

    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x5EED_F1C5);
    let total = Duration::from_secs(args.seconds.max(4));
    // The end-to-end run spends all its time at the reference rate. The
    // traced run spends half there and half on the ladder.
    let (reference, rung) = if args.trace {
        (total / 2, total / 2 / LADDER.len() as u32)
    } else {
        (total, Duration::ZERO)
    };
    let stop = AtomicBool::new(false);
    let mut phases: Vec<Phase> = Vec::new();
    let mut rungs: Vec<Rung> = Vec::new();
    // The server's own counters and stage histograms over the reference
    // phase.
    let mut ref_scrape = Scrape::default();
    let mut fusion_cpu_s = 0.0;
    let mut app_tracer = Tracer::new(epoch, args.trace);
    let stats_before = served.handle().stats();
    let mut stats_after = stats_before;

    let ap_runs: Vec<GroupRun> = std::thread::scope(|s| -> Result<Vec<GroupRun>, String> {
        // ap_uplink: the AP pipeline keeps running, closed loop, on its
        // own thread for the whole timed load.
        let ap_thread = ap.as_mut().map(|ap| {
            let (site, groups, filter, stop) = (&site, &groups, &filter, &stop);
            s.spawn(move || -> Result<Vec<GroupRun>, String> {
                let mut off = Tracer::new(epoch, false);
                let mut runs = Vec::new();
                'laps: loop {
                    for (i, g) in groups.iter().enumerate() {
                        if stop.load(Ordering::Acquire) {
                            break 'laps;
                        }
                        let (_, _, run) = ap_group(site, g, filter, ap, &mut off, i as u64)?;
                        runs.push(run);
                    }
                }
                Ok(runs)
            })
        });
        let result = (|| -> Result<(), String> {
            let before = scrape(&mut app)?;
            let cpu_before = load::threads_cpu_seconds(&FUSION_THREADS);
            let ops = fix_ops(&mut rng, keys, FIX_RATE, reference, 0, HELD_BURST);
            phases.push(drive_phase(&mut app, &mut ingest, ops, reference, 0)?);
            fusion_cpu_s = load::threads_cpu_seconds(&FUSION_THREADS) - cpu_before;
            stats_after = served.handle().stats();
            ref_scrape = scrape(&mut app)?.delta(&before);
            if !args.trace {
                return Ok(());
            }
            let t0 = phases[0].start;
            for (i, o) in phases[0].fixes.iter().enumerate() {
                app_tracer.record("client.fix", i as u64, t0 + o.sent, t0 + o.received);
            }
            for (i, &rate) in LADDER.iter().enumerate() {
                let ops = fix_ops(&mut rng, keys, rate, rung, i + 1, 0);
                let p = drive_phase(&mut app, &mut ingest, ops, rung, i + 1)?;
                let rung = Rung {
                    rate,
                    tail: stats::tail(&latencies(&p.fixes), TAIL_BEYOND),
                    failed: refusals(&p.fixes).0,
                    backlog_grew: backlog_grew(&p.fixes),
                };
                let passed = rung.passed();
                rungs.push(rung);
                phases.push(p);
                if !passed {
                    break;
                }
            }
            Ok(())
        })();
        stop.store(true, Ordering::Release);
        let runs = match ap_thread {
            Some(h) => h.join().map_err(|_| "AP thread panicked".to_string())??,
            None => Vec::new(),
        };
        result.map(|()| runs)
    })?;

    // Correctness over everything the run sent.
    let mut failed = 0u64;
    for p in &phases {
        attempted += (p.fixes.len() + p.submits.len()) as u64;
        for set in [&p.fixes, &p.submits] {
            let (n, why) = refusals(set);
            failed += n as u64;
            if let Some(why) = why {
                return Err(format!(
                    "{n} requests failed in phase {}: {why}",
                    set[0].op.phase
                ));
            }
        }
        check_fixes(&p.fixes, &expected, clients)?;
    }
    attempted += ap_runs.len() as u64;
    if served.finish() {
        return Err("the replay journal hit a write error".into());
    }
    setup_probes(args, &mut setup)?;
    let lag: Vec<f64> = phases
        .iter()
        .flat_map(|p| p.fixes.iter().chain(&p.submits))
        .map(Outcome::lag_ms)
        .collect();
    let lag = stats::sorted(&lag);
    let lag_p99 = stats::nearest_rank(&lag, 0.99);
    let lag_p50 = stats::nearest_rank(&lag, 0.5);
    if lag_p50 > MAX_LAG_P50_MS {
        return Err(format!(
            "the load generator fell behind: send lag p50 {lag_p50:.3} ms > {MAX_LAG_P50_MS} ms"
        ));
    }

    // End-to-end figures come from the untraced reference phase.
    let ref_phase = &phases[0];
    let fix_lat = latencies(&ref_phase.fixes);
    let fix_tail = stats::tail(&fix_lat, TAIL_BEYOND).ok_or("too few fixes for a tail")?;
    let in_window = |p: &Phase| -> Vec<&GroupRun> {
        ap_runs
            .iter()
            .filter(|r| r.end >= p.start && r.end <= p.end)
            .collect()
    };
    // One AP thread's frames per CPU second, from the median group: the
    // groups of the timed phase on ap_uplink, the five timed laps on the
    // others.
    let frames_per_s = |runs: &[&GroupRun]| {
        let secs = stats::median(&runs.iter().map(|r| r.cpu_secs).collect::<Vec<_>>());
        runs[0].frames as f64 / secs
    };
    let (ap_frames_per_s, submit_lat) = match w {
        Workload::ApUplink => {
            let runs = in_window(ref_phase);
            if runs.is_empty() {
                return Err("the AP thread finished no group during the timed phase".into());
            }
            (
                frames_per_s(&runs),
                stats::sorted(&runs.iter().map(|r| r.submit_ms).collect::<Vec<_>>()),
            )
        }
        _ => (
            frames_per_s(&lap.iter().collect::<Vec<_>>()),
            latencies(&ref_phase.submits),
        ),
    };
    let submit_tail =
        stats::tail(&submit_lat, TAIL_BEYOND).ok_or("too few submissions for a tail")?;
    // CPU the server's batcher and workers spent per keyed fix: the
    // coalescing, queue hand-offs and fusion a fix costs, without the
    // time the host gave the CPUs to other tenants.
    let fix_cpu_ms = fusion_cpu_s * 1e3 / ref_phase.fixes.len() as f64;
    if fix_cpu_ms <= 0.0 {
        return Err("no CPU time found for the server's fusion threads".into());
    }
    let sorted_errors = stats::sorted(&errors);
    println!(
        "{} seed {}: {} fixes at {}/s: p50 {:.4} ms, p{:.2} {:.4} ms ({} samples); \
         {} submissions: p50 {:.4} ms, p{:.2} {:.4} ms; send lag p99 {:.4} ms; \
         server {:.4} ms and {:.4} ms of CPU per fix",
        w.name(),
        args.seed,
        fix_lat.len(),
        FIX_RATE,
        stats::nearest_rank(&fix_lat, 0.5),
        fix_tail.percentile,
        fix_tail.value,
        fix_tail.samples,
        submit_lat.len(),
        stats::nearest_rank(&submit_lat, 0.5),
        submit_tail.percentile,
        submit_tail.value,
        lag_p99,
        ref_scrape.stage_mean_us("serve_request") / 1e3,
        fix_cpu_ms
    );

    if !args.trace {
        let rss = phases.iter().map(|p| p.rss_peak_mb).fold(0.0, f64::max);
        return Ok(Report {
            attempted,
            failed,
            metrics: vec![
                ("setup_s", stats::median(&setup), "s"),
                ("fix_p50_ms", stats::nearest_rank(&fix_lat, 0.5), "ms"),
                ("fix_cpu_ms", fix_cpu_ms, "ms"),
                (
                    "fix_error_p50_m",
                    stats::nearest_rank(&sorted_errors, 0.5),
                    "m",
                ),
                (
                    "fix_error_p90_m",
                    stats::nearest_rank(&sorted_errors, 0.9),
                    "m",
                ),
                ("ap_frames_per_s", ap_frames_per_s, "frames/s"),
                (
                    "uplink_bytes_per_spectrum",
                    uplink_bytes_per_spectrum(&stats_before, &stats_after),
                    "B",
                ),
                ("rss_peak_mb", rss, "MiB"),
            ],
        });
    }

    for r in &rungs {
        println!(
            "  ladder {:>6}/s: {} (tail {}, failed {}, backlog {})",
            r.rate,
            if r.passed() { "pass" } else { "FAIL" },
            r.tail.map_or("n/a".into(), |t| format!(
                "p{:.2} {:.3} ms",
                t.percentile, t.value
            )),
            r.failed,
            if r.backlog_grew { "grew" } else { "steady" }
        );
    }
    let fix_rate_max = rungs
        .iter()
        .take_while(|r| r.passed())
        .last()
        .map_or(0.0, |r| r.rate);
    let mut metrics = per_layer(PerLayerInputs {
        site: &site,
        groups: &groups,
        workload: w,
        spectra: &spectra,
        served_spectra: &served_spectra,
        expected: &expected,
        ap_spans: ap_tracer.take(),
        app_spans: app_tracer.take(),
        lap: &lap_scrape,
        server: &ref_scrape,
        phase: ref_phase,
        hits,
        bursts,
        submits: match w {
            Workload::ApUplink => in_window(ref_phase).len(),
            _ => ref_phase.submits.len(),
        },
        stats: (&stats_before, &stats_after),
        trace_overhead_us,
        lag_p99,
        attempted,
        failed,
    })?;
    // Figures a user sees that do not repeat from run to run, so the
    // benchmark reports them here without a bound (see the README).
    metrics.extend([
        ("e2e.fix_tail_ms", fix_tail.value, "ms"),
        ("e2e.fix_tail_percentile", fix_tail.percentile, "%"),
        ("e2e.fix_tail_samples", fix_tail.samples as f64, "count"),
        ("e2e.fix_rate_max", fix_rate_max, "fixes/s"),
        (
            "e2e.submit_p50_ms",
            stats::nearest_rank(&submit_lat, 0.5),
            "ms",
        ),
        ("e2e.submit_tail_ms", submit_tail.value, "ms"),
    ]);
    Ok(Report {
        attempted,
        failed,
        metrics,
    })
}

/// Distance from a fix to client `c`'s ground truth, metres.
fn fix_error(site: &Site, c: usize, fix: [f64; 3]) -> Result<f64, String> {
    let truth = site.truth(c);
    let e = ((fix[0] - truth.x).powi(2) + (fix[1] - truth.y).powi(2)).sqrt();
    if e.is_finite() {
        Ok(e)
    } else {
        Err(format!("fix error for client {c} is not finite"))
    }
}

/// The codec's lossless mode must round-trip every spectrum bit for bit,
/// and its quantized mode must deliver exactly `codec::quantized`.
fn check_codec(spectra: &[Vec<AoaSpectrum>]) -> Result<(), String> {
    for s in spectra.iter().flatten() {
        let (_, back) = codec::decompress(&codec::compress(s, CompressedMode::Lossless))
            .map_err(|e| format!("lossless blob does not decode: {e:?}"))?;
        if !same_bits(&back, s) {
            return Err("lossless codec did not round-trip a spectrum".into());
        }
        let (_, q) = codec::decompress(&codec::compress(s, CompressedMode::Quantized))
            .map_err(|e| format!("quantized blob does not decode: {e:?}"))?;
        if !same_bits(&q, &codec::quantized(s)) {
            return Err("quantized codec disagrees with codec::quantized".into());
        }
    }
    Ok(())
}

fn same_bits(a: &AoaSpectrum, b: &AoaSpectrum) -> bool {
    a.bins() == b.bins()
        && a.values()
            .iter()
            .zip(b.values())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

struct PerLayerInputs<'a> {
    site: &'a Site,
    groups: &'a [Group],
    workload: Workload,
    spectra: &'a [Vec<AoaSpectrum>],
    served_spectra: &'a [Vec<AoaSpectrum>],
    expected: &'a [[u64; 3]],
    ap_spans: Vec<trace::Span>,
    app_spans: Vec<trace::Span>,
    lap: &'a Scrape,
    /// Server counters over the reference phase.
    server: &'a Scrape,
    /// The reference phase.
    phase: &'a Phase,
    hits: usize,
    bursts: usize,
    /// Submissions during the reference phase.
    submits: usize,
    stats: (&'a StatsSnapshot, &'a StatsSnapshot),
    trace_overhead_us: f64,
    lag_p99: f64,
    attempted: u64,
    failed: u64,
}

/// Times `f` `reps` times inside spans named `name`.
fn shadow<R>(t: &mut Tracer, name: &'static str, reps: usize, mut f: impl FnMut() -> R) {
    for i in 0..reps {
        t.span(name, i as u64, |_| std::hint::black_box(f()));
    }
}

/// The traced run's per-layer metrics and the round-trip ledger.
fn per_layer(x: PerLayerInputs<'_>) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let w = x.workload;
    let n_aps = x.site.n_aps();
    let mut t = Tracer::new(Instant::now(), true);
    let pool: Vec<&AoaSpectrum> = x.spectra.iter().flatten().collect();
    let quantized = w.encoding() != Encoding::Raw;

    // Weighting and symmetry resolution run inside `process_frame`; time
    // them as shadow calls on the workload's own frames and spectra.
    for (i, g) in x.groups.iter().enumerate() {
        let block = &g.blocks[0];
        let mut s = x.spectra[g.client][g.ap].clone();
        t.span("core.weighting", i as u64, |_| {
            at_core::weighting::apply_geometry_weighting(&mut s)
        });
        t.span("core.symmetry", i as u64, |_| {
            at_core::symmetry::resolve_mirror_peaks(&mut s, block, x.site.cfg.pipeline.elements)
        });
    }

    // Codec: only on the path of the quantized uplinks.
    let mut blob_bytes = 0usize;
    if quantized {
        for (i, s) in pool.iter().enumerate() {
            let blob = t.span("serve.codec.compress", i as u64, |_| {
                codec::compress(s, CompressedMode::Quantized)
            });
            blob_bytes += blob.len();
            t.span("serve.codec.decompress", i as u64, |_| {
                codec::decompress(&blob)
            })
            .map_err(|e| format!("quantized blob does not decode: {e:?}"))?;
        }
    }
    let codec_ratio = if quantized {
        (codec::raw_wire_bytes(inputs::BINS) as f64) / (blob_bytes as f64 / pool.len() as f64)
    } else {
        1.0
    };

    // Proto: the workload's request frames and the server's replies.
    let localize = Frame::LocalizeKey {
        key: 7,
        deadline_ms: 0,
    };
    let fix_reply = Frame::Fix {
        x: f64::from_bits(x.expected[0][0]),
        y: f64::from_bits(x.expected[0][1]),
        likelihood: f64::from_bits(x.expected[0][2]),
        health: (0..n_aps as u32)
            .map(|ap_id| ApHealthReport {
                ap_id,
                status: at_core::ApStatus::Healthy,
                consecutive_failures: 0,
            })
            .collect(),
    };
    let submit = match w.encoding().mode() {
        None => Frame::SubmitKeyed {
            key: 7,
            ap_id: 0,
            age: 0,
            spectrum: pool[0].clone(),
        },
        Some(mode) => Frame::SubmitCompressedKeyed {
            key: 7,
            ap_id: 0,
            age: 0,
            mode,
            spectrum: pool[0].clone(),
        },
    };
    let ack = Frame::SubmitAck { observations: 6 };
    const REPS: usize = 200;
    let mut bytes = Vec::new();
    for (req, rep, enc_name, dec_name) in [
        (
            &localize,
            &fix_reply,
            "serve.proto.encode.fix",
            "serve.proto.decode.localize",
        ),
        (
            &submit,
            &ack,
            "serve.proto.encode.ack",
            "serve.proto.decode.submit",
        ),
    ] {
        let wire = req.encode();
        bytes.push(wire.len());
        shadow(&mut t, dec_name, REPS, || at_serve::proto::decode(&wire));
        shadow(&mut t, enc_name, REPS, || rep.encode());
    }
    let n_fix = x.phase.fixes.len() as f64;
    let n_sub = x.submits as f64;

    // Store: a shadow `SessionStore` fed the workload's keys.
    let keys = w.keys(x.site.n_clients());
    let store = SessionStore::new(n_aps, SessionPolicy::default());
    let arcs: Vec<Arc<AoaSpectrum>> = x
        .served_spectra
        .iter()
        .flatten()
        .cloned()
        .map(Arc::new)
        .collect();
    let clients = x.site.n_clients();
    for k in 0..keys {
        for ap in 0..n_aps {
            let s = Arc::clone(&arcs[(k % clients) * n_aps + ap]);
            t.span("serve.store.submit", k as u64, |_| {
                store.submit(k as u64, ap, 0, s)
            });
        }
    }
    let mut rng = StdRng::seed_from_u64(11);
    for i in 0..2000 {
        let k = rng.gen_range(0..keys) as u64;
        t.span("serve.store.snapshot", i, |_| {
            std::hint::black_box(store.snapshot(k))
        });
    }

    // Engine and fusion: a shadow engine on the workload's spectra.
    let poses = x.site.service.poses.clone();
    let engine = t.span("core.engine.build", 0, |_| {
        LocalizationEngine::new(&poses, x.site.service.region, inputs::BINS)
    });
    let health = HealthTracker::new(n_aps);
    let policy = HealthPolicy::default();
    for rep in 0..5 {
        for (c, per) in x.served_spectra.iter().enumerate() {
            let obs: Vec<(usize, &AoaSpectrum)> = per.iter().enumerate().collect();
            t.span("core.engine.localize", (rep * clients + c) as u64, |_| {
                std::hint::black_box(engine.localize(&obs))
            });
            let fused: Vec<FusedObservation<'_>> = per
                .iter()
                .enumerate()
                .map(|(ap, s)| FusedObservation {
                    pose_idx: ap,
                    spectrum: s,
                    ap_id: Some(ap),
                    age: 0,
                })
                .collect();
            let plan = t
                .span("core.pipeline.plan", c as u64, |_| {
                    at_core::plan_fusion(&fused, inputs::BINS, &health, &policy)
                })
                .map_err(|e| format!("shadow plan_fusion failed: {e}"))?;
            let fix = t.span("core.pipeline.execute", c as u64, |_| {
                at_core::execute_fusion(&engine, &fused, &plan)
            });
            let bits = [fix.position.x, fix.position.y, fix.likelihood].map(f64::to_bits);
            if bits != x.expected[c] {
                return Err(format!(
                    "shadow execute_fusion differs from the reference for client {c}"
                ));
            }
        }
    }
    let (hits, misses) = at_core::engine::grid_cache_stats();

    let mut spans = x.ap_spans;
    spans.extend(x.app_spans);
    let shadow_spans = t.take();
    let summary = trace::summarize(&spans);
    let shadows = trace::summarize(&shadow_spans);
    let get = |name: &str| {
        summary
            .get(name)
            .or_else(|| shadows.get(name))
            .cloned()
            .unwrap_or_default()
    };
    let dir = out_dir();
    let _ = std::fs::create_dir_all(&dir);
    let mut all = spans.clone();
    all.extend(shadow_spans);
    trace::write_jsonl(
        &dir.join(format!("trace-{}-{}.jsonl", w.name(), std::process::id())),
        &all,
    )
    .map_err(io_err("writing spans"))?;

    // Server-side layers of the reference phase, from the scrape deltas.
    let d = x.server;
    let dwell_ms = d.stage_mean_us("serve_queue") / 1e3;
    let batch_ms = d.stage_mean_us("serve_batch") / 1e3;
    let request_ms = d.stage_mean_us("serve_request") / 1e3;
    // The server's own request span covers queue dwell and the batch;
    // what remains of it is hand-offs between its threads.
    let request_self_ms = (request_ms - dwell_ms - batch_ms).max(0.0);
    // Every admitted request records one queue dwell; every batch one
    // `serve_batch` time.
    let (_, dwells) = d.stage("serve_queue");
    let (_, batches) = d.stage("serve_batch");
    let batch_size = if batches > 0.0 { dwells / batches } else { 0.0 };
    let requests = d.sum("at_serve_requests_total", &[]);
    let shed = d.sum("at_serve_shed_total", &[]);
    let fused = d.sum("at_observations_fused_total", &[]);
    let dropped = d.sum("at_observations_dropped_total", &[]);
    let secs = (x.phase.end - x.phase.start).as_secs_f64();
    let decode_fix_ms = get("serve.proto.decode.localize").mean_us() / 1e3;
    let encode_fix_ms = get("serve.proto.encode.fix").mean_us() / 1e3;
    let snapshot_ms = get("serve.store.snapshot").mean_us() / 1e3;
    let fixes = get("client.fix");
    let rtt_ms = fixes.mean_us() / 1e3;
    let ledger = ledger::attribute(
        rtt_ms,
        &[
            ("serve.proto.decode", decode_fix_ms),
            ("serve.store.snapshot", snapshot_ms),
            ("serve.queue.dwell", dwell_ms),
            ("serve.batch", batch_ms),
            ("serve.request.self", request_self_ms),
            ("serve.proto.encode", encode_fix_ms),
        ],
    );
    print!("{}", ledger.render(w.name()));

    let (before, after) = x.stats;
    let weighted = |a: f64, b: f64| (a * n_fix + b * n_sub) / (n_fix + n_sub).max(1.0);
    let enc_us = weighted(
        get("serve.proto.encode.fix").mean_us(),
        get("serve.proto.encode.ack").mean_us(),
    );
    let dec_us = weighted(
        get("serve.proto.decode.localize").mean_us(),
        get("serve.proto.decode.submit").mean_us(),
    );
    let frame_bytes = weighted(bytes[0] as f64, bytes[1] as f64);
    let detect = get("dsp.detector.detect");
    let engine_loc = get("core.engine.localize");
    let ok = x.attempted - x.failed;
    Ok(vec![
        ("dsp.detector.detect_us", detect.mean_us(), "us"),
        (
            "dsp.detector.detect_p99_us",
            detect.percentile_us(0.99),
            "us",
        ),
        (
            "dsp.detector.hit_ratio",
            x.hits as f64 / x.bursts.max(1) as f64,
            "1",
        ),
        (
            "core.music.frame_us",
            get("core.music.frame").mean_us(),
            "us",
        ),
        ("core.smoothing.us", x.lap.stage_mean_us("smoothing"), "us"),
        ("linalg.eig.us", x.lap.stage_mean_us("music_eig"), "us"),
        (
            "core.steering.scan_us",
            x.lap.stage_mean_us("music_scan"),
            "us",
        ),
        ("core.weighting.us", get("core.weighting").mean_us(), "us"),
        ("core.symmetry.us", get("core.symmetry").mean_us(), "us"),
        (
            "core.suppression.group_us",
            get("core.suppression.group").mean_us(),
            "us",
        ),
        ("ap.group_self_us", get("ap.group").self_mean_us(), "us"),
        (
            "serve.client.submit_us",
            get("serve.client.submit").mean_us(),
            "us",
        ),
        (
            "serve.codec.compress_us",
            get("serve.codec.compress").mean_us(),
            "us",
        ),
        (
            "serve.codec.decompress_us",
            get("serve.codec.decompress").mean_us(),
            "us",
        ),
        ("serve.codec.ratio", codec_ratio, "1"),
        ("serve.proto.encode_us", enc_us, "us"),
        ("serve.proto.decode_us", dec_us, "us"),
        ("serve.proto.frame_bytes", frame_bytes, "B"),
        (
            "serve.store.submit_us",
            get("serve.store.submit").mean_us(),
            "us",
        ),
        (
            "serve.store.snapshot_us",
            get("serve.store.snapshot").mean_us(),
            "us",
        ),
        (
            "serve.store.evictions",
            ((after.sessions_evicted_idle + after.sessions_evicted_cap)
                - (before.sessions_evicted_idle + before.sessions_evicted_cap)) as f64,
            "count",
        ),
        (
            "serve.store.spectra_resident",
            after.spectra_resident as f64,
            "count",
        ),
        ("serve.request_mean_ms", request_ms, "ms"),
        ("serve.request.self_ms", request_self_ms, "ms"),
        ("serve.queue.dwell_mean_ms", dwell_ms, "ms"),
        (
            "serve.shed_ratio",
            if requests > 0.0 { shed / requests } else { 0.0 },
            "1",
        ),
        (
            "serve.deadline_missed",
            d.sum("at_serve_deadline_missed_total", &[]),
            "count",
        ),
        (
            "serve.batch.window_ms",
            stats::mean(&x.phase.window_ms),
            "ms",
        ),
        ("serve.batch.size_mean", batch_size, "requests"),
        ("serve.batch.mean_ms", batch_ms, "ms"),
        (
            "core.pipeline.plan_us",
            get("core.pipeline.plan").mean_us(),
            "us",
        ),
        (
            "core.pipeline.execute_us",
            get("core.pipeline.execute").mean_us(),
            "us",
        ),
        (
            "core.pipeline.fused_ratio",
            if fused + dropped > 0.0 {
                fused / (fused + dropped)
            } else {
                0.0
            },
            "1",
        ),
        ("core.engine.localize_us", engine_loc.mean_us(), "us"),
        (
            "core.engine.localize_p99_us",
            engine_loc.percentile_us(0.99),
            "us",
        ),
        (
            "core.engine.build_ms",
            get("core.engine.build").mean_us() / 1e3,
            "ms",
        ),
        (
            "core.engine.grid_cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "1",
        ),
        (
            "core.engine.scratch_grow_total",
            d.sum("at_localize_scratch_grow_total", &[]),
            "count",
        ),
        (
            "replay.records_per_s",
            d.sum("at_replay_records_total", &[]) / secs,
            "1/s",
        ),
        (
            "replay.bytes_per_s",
            d.sum("at_replay_journal_bytes_total", &[]) / secs,
            "B/s",
        ),
        (
            "replay.write_errors",
            d.sum("at_replay_write_errors_total", &[]),
            "count",
        ),
        ("serve.client.fix_rtt_ms", rtt_ms, "ms"),
        ("serve.unattributed_ms", ledger.unattributed_ms, "ms"),
        ("loadgen.lag_p99_ms", x.lag_p99, "ms"),
        ("loadgen.sent", x.attempted as f64, "count"),
        ("loadgen.ok", ok as f64, "count"),
        ("loadgen.failed", x.failed as f64, "count"),
        ("trace.ap_group_overhead_us", x.trace_overhead_us, "us"),
    ])
}
