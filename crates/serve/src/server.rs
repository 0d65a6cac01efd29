//! The thread-pool TCP location server.
//!
//! Request path (one bounded queue between the connections and the
//! workers, so a full pool applies backpressure to admission):
//!
//! ```text
//! conn threads ──try_push──▶ admission queue ──pop──▶ workers
//!   (1/socket)    shed ⇒ Overloaded              (at_core::fuse per job,
//!                                                 shared engine)
//! ```
//!
//! - **Admission control** is the `try_push` edge: when the admission
//!   queue is full the request is *refused* with a typed
//!   [`Frame::Overloaded`] carrying a retry hint — the server never queues
//!   unboundedly and stays responsive under any offered load.
//! - **Deadlines** travel from the client as a relative budget; the clock
//!   starts at frame receipt and is checked when a worker pops the job,
//!   *before* the expensive fusion sweep, so a request that can no longer
//!   make its deadline costs a queue slot, not an engine walk.
//! - **Workers** pop one job at a time straight from admission and fuse
//!   it on the shared precomputed engine with the worker's own fusion
//!   scratch; the reply goes out as soon as the fix is fused. Every
//!   accepted socket has `TCP_NODELAY`, so a reply written while the
//!   previous one is still unacknowledged is not held back by Nagle's
//!   algorithm until the peer's next request carries the ACK.
//! - **Sessions** live in the keyed [`SessionStore`] only: AP connections
//!   submit into it, application connections localize from it, and every
//!   admitted event passes the [`RecordTap`], so every fix is replayable.
//! - **Shutdown** is drain-then-stop: the admission queue closes (new
//!   requests see [`Frame::ShuttingDown`]), the workers fuse and answer
//!   everything already admitted and exit, then the connections wind down.
//!
//! Each worker fuses through [`at_core::fuse`] on its own
//! [`FusionScratch`], with observations mapped by [`KeyedObs::fused`].
//! `fuse` shares its plan/execute core with the in-process
//! `ArrayTrackServer::try_localize`, so a networked fix over a healthy
//! deployment is bit-exact with the in-process one, and degraded
//! deployments surface the same [`at_core::health::LocalizeError`] values
//! over the wire.

use crate::codec;
use crate::proto::{self, ApHealthReport, ClientKey, Frame, ReadError, HEADER_LEN};
use crate::queue::Bounded;
use crate::store::{KeyedObs, SessionPolicy, SessionStore};
use at_config::{ConfigError, SystemConfig, TopologyOp};
use at_core::health::{HealthPolicy, HealthTracker};
use at_core::synthesis::{ApPose, SearchRegion};
use at_core::{AoaSpectrum, FusedObservation, FusionScratch, LocalizationEngine, LocationEstimate};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, RwLock};
use std::thread;
use std::time::{Duration, Instant};

/// What the service localizes against: the deployment geometry and the
/// degradation policy the server *starts* with — topology epoch 0.
/// [`Frame::Reconfigure`] can change the AP set on a live server; see
/// [`ServerHandle`] and the `at_config` crate for the epoch semantics.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// AP poses, indexed by the wire protocol's `ap_id`.
    pub poses: Vec<ApPose>,
    /// Search region (and grid pitch) fixes are computed over.
    pub region: SearchRegion,
    /// Spectrum resolution submissions must eventually match (mismatches
    /// are accepted at submit and refused at localize with
    /// [`at_core::health::LocalizeError::ResolutionMismatch`], like the
    /// in-process server).
    pub bins: usize,
    /// Health/quorum policy for degraded-deployment fusion.
    pub policy: HealthPolicy,
}

impl ServiceConfig {
    /// Validates the configuration: a typed [`ConfigError`] instead of a
    /// panic, so a bad config arriving over the wire (or from a caller)
    /// is *refused* cleanly — the server never takes it down.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.to_system(SessionPolicy::default()).validate()
    }

    /// The canonical [`SystemConfig`] this service config plus a session
    /// policy describes — the single source every sizing decision
    /// (engine, health tracker, session store) derives from, and the
    /// thing the epoch fingerprint is computed over.
    pub fn to_system(&self, session: SessionPolicy) -> SystemConfig {
        SystemConfig {
            poses: self.poses.clone(),
            region: self.region,
            bins: self.bins,
            health: self.policy,
            session,
            codec: at_config::CodecDefault::default(),
        }
    }
}

/// Server runtime shape: worker count, admission depth, shedding hint and
/// session residency.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Fusion worker threads; each pops one admitted job at a time.
    pub workers: usize,
    /// Admission queue depth — the *only* place requests wait; beyond it
    /// they are shed with [`Frame::Overloaded`].
    pub admission_depth: usize,
    /// Retry hint attached to [`Frame::Overloaded`] responses.
    pub retry_after_ms: u32,
    /// Residency policy of the keyed session store (idle timeout,
    /// resident-spectra cap, reaper cadence).
    pub session: SessionPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            admission_depth: 64,
            retry_after_ms: 10,
            session: SessionPolicy::default(),
        }
    }
}

impl ServeConfig {
    /// Validates the configuration: a typed [`ConfigError`] on zero
    /// workers, a zero admission depth, or an inconsistent session policy.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.workers == 0 {
            return Err(ConfigError::Serve("need at least one worker"));
        }
        if self.admission_depth == 0 {
            return Err(ConfigError::Serve("admission depth must be at least 1"));
        }
        self.session.check()
    }
}

/// One admitted localize request, waiting in admission for a worker.
struct Job {
    /// The key's store snapshot, in ascending AP order. Spectra ride
    /// behind an `Arc`, so a submit racing this request replaces the
    /// store's pointer whole and never touches these bins.
    obs: Vec<KeyedObs>,
    /// Absolute expiry (frame receipt + the client's relative budget).
    deadline: Option<Instant>,
    /// When the request entered the admission queue (queue-dwell metric).
    enqueued: Instant,
    reply: mpsc::SyncSender<Frame>,
}

#[derive(Default)]
struct Stats {
    connections: AtomicU64,
    requests: AtomicU64,
    shed: AtomicU64,
    deadline_missed: AtomicU64,
    fixes: AtomicU64,
    failures: AtomicU64,
    submits_raw: AtomicU64,
    submits_compressed: AtomicU64,
    uplink_raw_bytes: AtomicU64,
    uplink_compressed_bytes: AtomicU64,
    uplink_raw_equiv_bytes: AtomicU64,
    reconfigures: AtomicU64,
}

/// A point-in-time copy of the server's request counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections accepted.
    pub connections: u64,
    /// Localize requests received (including shed ones).
    pub requests: u64,
    /// Localize requests refused by admission control.
    pub shed: u64,
    /// Localize requests dropped because their deadline expired in queue.
    pub deadline_missed: u64,
    /// Fixes produced.
    pub fixes: u64,
    /// Typed localize failures returned (quorum, resolution, empty).
    pub failures: u64,
    /// Keyed sessions currently resident in the session store.
    pub sessions_resident: u64,
    /// Spectra currently resident in the session store (the capped
    /// quantity).
    pub spectra_resident: u64,
    /// Keyed sessions created over the server's lifetime.
    pub sessions_created: u64,
    /// Keyed sessions evicted by the idle-timeout reaper.
    pub sessions_evicted_idle: u64,
    /// Keyed sessions evicted by resident-spectra cap pressure.
    pub sessions_evicted_cap: u64,
    /// Raw (`f64`-bin) spectrum submissions admitted.
    pub submits_raw: u64,
    /// Compressed spectrum submissions admitted.
    pub submits_compressed: u64,
    /// Wire bytes of the raw submissions (header + payload).
    pub uplink_raw_bytes: u64,
    /// Wire bytes of the compressed submissions (header + payload).
    pub uplink_compressed_bytes: u64,
    /// What the compressed submissions would have cost as raw frames —
    /// the numerator of the compression ratio.
    pub uplink_raw_equiv_bytes: u64,
    /// Current topology epoch (0 = the config the server started with).
    pub epoch: u64,
    /// Topology reconfigurations applied over the server's lifetime.
    pub reconfigures: u64,
    /// Keyed sessions evicted because a topology change left them empty.
    pub sessions_evicted_topology: u64,
}

/// The capture tap: a sink for every store-mutating event the server
/// admits, called at admission time (post-decompress, pre-store) so what
/// it sees is exactly what the session store and fusion will see. The
/// `at-replay` recorder implements this to journal keyed traffic for
/// deterministic replay; implementations must be cheap and must never
/// panic — they run on the serving path.
///
/// Every store-mutating path is tapped ([`Frame::SubmitKeyed`] and
/// [`Frame::SubmitCompressedKeyed`], [`Frame::LocalizeKey`],
/// [`Frame::ReportFailure`], the reaper's tick/idle events, and topology
/// epochs): the keyed store is the server's only session model, so every
/// fix the server answers can be replayed.
pub trait RecordTap: Send + Sync {
    /// A keyed spectrum was admitted (about to enter the session store).
    fn submit(&self, key: ClientKey, ap_id: u32, age: u64, spectrum: &AoaSpectrum);
    /// An acquisition failure was reported for `ap_id`.
    fn failure(&self, ap_id: u32);
    /// A keyed localize request was admitted; returns the tap's sequence
    /// number for it, echoed back through [`RecordTap::outcome`] once the
    /// reply is known.
    fn query(&self, key: ClientKey, deadline_ms: u32) -> u64;
    /// The reply produced for the query journaled as `query_seq`.
    fn outcome(&self, query_seq: u64, reply: &Frame);
    /// The reaper advanced the store's staleness tick by one interval.
    fn tick(&self);
    /// The reaper evicted these idle sessions.
    fn idle_reap(&self, keys: &[ClientKey]);
    /// A topology reconfiguration committed: the server is now on
    /// `epoch`, whose canonical config fingerprint is `fingerprint`,
    /// reached by applying `op` to the previous epoch's config. Journaled
    /// *inside* the epoch swap's exclusive section, so every record
    /// before it belongs to the old epoch and every record after it to
    /// the new one — the property replay's bit-exactness rests on.
    fn epoch_change(&self, epoch: u64, fingerprint: u64, op: &TopologyOp);
}

/// One topology epoch's immutable state: the config, its fingerprint,
/// and the engine precomputed from it. Swapped whole (behind
/// [`Shared::topo`]) by a reconfiguration; everything in here is
/// read-only once published, so within an epoch every fix is computed
/// from identical state — the bit-exactness unit.
struct TopoState {
    epoch: u64,
    config: SystemConfig,
    fingerprint: u64,
    engine: Arc<LocalizationEngine>,
}

struct Shared {
    /// The current epoch. Read-locked across every journaled admission
    /// (tap call + store/queue mutation as one unit), write-locked only
    /// by the epoch swap — so the journal's record order is exactly the
    /// order state changed, and replay can reproduce it.
    topo: RwLock<TopoState>,
    health: Mutex<HealthTracker>,
    store: SessionStore,
    draining: AtomicBool,
    /// True while a reconfiguration is draining in-flight localizes; new
    /// localizes are shed with [`Frame::Overloaded`] so the drain
    /// terminates under any offered load.
    swapping: AtomicBool,
    /// Localize requests admitted but not yet replied. The epoch swap
    /// waits for zero before touching state, so no fix ever mixes two
    /// epochs' engines or store contents.
    in_flight: AtomicUsize,
    /// Serializes administrators: one reconfiguration at a time.
    reconfig: Mutex<()>,
    retry_after_ms: u32,
    stats: Stats,
    tap: Option<Arc<dyn RecordTap>>,
}

/// Spawns a location server and returns a handle to it.
///
/// Binds `addr` (use port 0 for an ephemeral loopback port), precomputes
/// the localization engine for the deployment, and starts the acceptor,
/// reaper, and worker threads. The server runs until
/// [`ServerHandle::shutdown`] (or drop).
pub fn spawn(
    service: ServiceConfig,
    cfg: ServeConfig,
    addr: impl ToSocketAddrs,
) -> io::Result<ServerHandle> {
    spawn_recorded(service, cfg, addr, None)
}

/// [`spawn`] with the record toggle on: every admitted keyed event is
/// also fed to `tap` (see [`RecordTap`]) — the hook the `at-replay`
/// journal recorder plugs into. `None` is exactly [`spawn`].
pub fn spawn_recorded(
    service: ServiceConfig,
    cfg: ServeConfig,
    addr: impl ToSocketAddrs,
    tap: Option<Arc<dyn RecordTap>>,
) -> io::Result<ServerHandle> {
    cfg.validate()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    // Every sizing decision below — engine, health tracker, session
    // store — derives from this one canonical config, so the three can
    // never disagree about the AP count, and the epoch-0 fingerprint
    // pins exactly what the server started from.
    let system = service.to_system(cfg.session);
    system
        .validate()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;

    let n_aps = system.n_aps();
    let fingerprint = system.fingerprint();
    let engine = Arc::new(LocalizationEngine::for_epoch(
        &system.poses,
        system.region,
        system.bins,
        0,
    ));
    at_obs::global()
        .gauge(at_obs::names::SERVE_TOPOLOGY_EPOCH, &[])
        .set(0.0);
    let shared = Arc::new(Shared {
        health: Mutex::new(HealthTracker::new(n_aps)),
        store: SessionStore::new(n_aps, system.session),
        topo: RwLock::new(TopoState {
            epoch: 0,
            config: system,
            fingerprint,
            engine,
        }),
        draining: AtomicBool::new(false),
        swapping: AtomicBool::new(false),
        in_flight: AtomicUsize::new(0),
        reconfig: Mutex::new(()),
        retry_after_ms: cfg.retry_after_ms,
        stats: Stats::default(),
        tap,
    });
    let admission = Arc::new(Bounded::new(cfg.admission_depth, "admission"));

    let reaper_stop = Arc::new(ReaperStop::default());
    let reaper = {
        let shared = Arc::clone(&shared);
        let stop = Arc::clone(&reaper_stop);
        thread::Builder::new()
            .name("at-serve-reaper".into())
            .spawn(move || run_reaper(&shared, &stop))?
    };

    let workers = (0..cfg.workers)
        .map(|i| {
            let admission = Arc::clone(&admission);
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name(format!("at-serve-worker-{i}"))
                .spawn(move || run_worker(&admission, &shared))
        })
        .collect::<io::Result<Vec<_>>>()?;

    let accept_stop = Arc::new(AtomicBool::new(false));
    let conns: Arc<Mutex<ConnRegistry>> = Arc::default();
    let acceptor = {
        let shared = Arc::clone(&shared);
        let admission = Arc::clone(&admission);
        let accept_stop = Arc::clone(&accept_stop);
        let conns = Arc::clone(&conns);
        thread::Builder::new()
            .name("at-serve-acceptor".into())
            .spawn(move || {
                let mut next_id = 0u64;
                for stream in listener.incoming() {
                    if accept_stop.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    shared.stats.connections.fetch_add(1, Ordering::Relaxed);
                    at_obs::count!("at_serve_connections_total");
                    // Replies go out as soon as they are written: without
                    // TCP_NODELAY, a reply sent while the previous one is
                    // unacknowledged waits for the ACK that rides on the
                    // peer's next request.
                    let Ok(clone) = stream.set_nodelay(true).and_then(|()| stream.try_clone())
                    else {
                        continue;
                    };
                    let id = next_id;
                    next_id += 1;
                    let shared = Arc::clone(&shared);
                    let admission = Arc::clone(&admission);
                    let registry = Arc::clone(&conns);
                    // Held across spawn + insert: the thread's own removal
                    // takes this lock, so it cannot run before the insert.
                    let mut live = conns.lock().expect("registry poisoned");
                    if let Ok(handle) =
                        thread::Builder::new()
                            .name("at-serve-conn".into())
                            .spawn(move || {
                                run_conn(stream, &shared, &admission);
                                registry.lock().expect("registry poisoned").remove(&id);
                            })
                    {
                        live.insert(id, (clone, handle));
                    }
                }
            })?
    };

    Ok(ServerHandle {
        addr: local_addr,
        shared,
        admission,
        accept_stop,
        acceptor: Some(acceptor),
        reaper: Some(reaper),
        reaper_stop,
        workers,
        conns,
    })
}

/// The live connections, by acceptor-assigned id: a cloned socket (so
/// shutdown can cut its read half) and the thread serving it. A
/// connection thread removes its own entry as it exits, so the registry
/// holds only live connections, never one fd per connection ever
/// accepted.
type ConnRegistry = HashMap<u64, (TcpStream, thread::JoinHandle<()>)>;

/// Stop flag + wakeup for the background reaper thread.
#[derive(Default)]
struct ReaperStop {
    stopped: Mutex<bool>,
    cv: Condvar,
}

/// The background reaper: advances the store's staleness tick every
/// `refresh_interval` (so silent APs' spectra age into
/// `HealthPolicy::max_spectrum_age` staleness) and sweeps idle sessions
/// every `reap_interval`. Wakes immediately on shutdown.
fn run_reaper(shared: &Shared, stop: &ReaperStop) {
    let policy = *shared.store.policy();
    let mut next_tick = Instant::now() + policy.refresh_interval;
    let mut next_reap = Instant::now() + policy.reap_interval;
    let mut stopped = stop.stopped.lock().expect("reaper stop poisoned");
    loop {
        if *stopped {
            return;
        }
        let now = Instant::now();
        // Catch up elapsed intervals even if the thread overslept, so
        // real time maps to tick count. Journal before apply, matching
        // the submit path (tap at admission, then the store mutation).
        while now >= next_tick {
            // Under the topo read guard so the journal record and the
            // store mutation land on the same side of any epoch swap.
            let _topo = shared.topo.read().expect("topo poisoned");
            if let Some(tap) = &shared.tap {
                tap.tick();
            }
            shared.store.advance_tick();
            next_tick += policy.refresh_interval;
        }
        if now >= next_reap {
            let _topo = shared.topo.read().expect("topo poisoned");
            let evicted = shared.store.reap_idle(now);
            if !evicted.is_empty() {
                if let Some(tap) = &shared.tap {
                    tap.idle_reap(&evicted);
                }
            }
            while now >= next_reap {
                next_reap += policy.reap_interval;
            }
        }
        let wake = next_tick.min(next_reap);
        let timeout = wake.saturating_duration_since(Instant::now());
        let (guard, _) = stop
            .cv
            .wait_timeout(stopped, timeout)
            .expect("reaper stop poisoned");
        stopped = guard;
    }
}

/// A running server: its address, live counters, and the shutdown switch.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    admission: Arc<Bounded<Job>>,
    accept_stop: Arc<AtomicBool>,
    acceptor: Option<thread::JoinHandle<()>>,
    reaper: Option<thread::JoinHandle<()>>,
    reaper_stop: Arc<ReaperStop>,
    workers: Vec<thread::JoinHandle<()>>,
    conns: Arc<Mutex<ConnRegistry>>,
}

impl ServerHandle {
    /// The address the server is listening on (resolves port 0 binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current topology epoch and its canonical config fingerprint.
    pub fn epoch(&self) -> (u64, u64) {
        let topo = self.shared.topo.read().expect("topo poisoned");
        (topo.epoch, topo.fingerprint)
    }

    /// Current request counters.
    pub fn stats(&self) -> StatsSnapshot {
        let s = &self.shared.stats;
        let store = self.shared.store.stats();
        let epoch = self.shared.topo.read().expect("topo poisoned").epoch;
        StatsSnapshot {
            epoch,
            reconfigures: s.reconfigures.load(Ordering::Relaxed),
            sessions_evicted_topology: store.evicted_topology,
            connections: s.connections.load(Ordering::Relaxed),
            requests: s.requests.load(Ordering::Relaxed),
            shed: s.shed.load(Ordering::Relaxed),
            deadline_missed: s.deadline_missed.load(Ordering::Relaxed),
            fixes: s.fixes.load(Ordering::Relaxed),
            failures: s.failures.load(Ordering::Relaxed),
            sessions_resident: store.resident_sessions,
            spectra_resident: store.resident_spectra,
            sessions_created: store.created,
            sessions_evicted_idle: store.evicted_idle,
            sessions_evicted_cap: store.evicted_cap,
            submits_raw: s.submits_raw.load(Ordering::Relaxed),
            submits_compressed: s.submits_compressed.load(Ordering::Relaxed),
            uplink_raw_bytes: s.uplink_raw_bytes.load(Ordering::Relaxed),
            uplink_compressed_bytes: s.uplink_compressed_bytes.load(Ordering::Relaxed),
            uplink_raw_equiv_bytes: s.uplink_raw_equiv_bytes.load(Ordering::Relaxed),
        }
    }

    /// Graceful drain-then-stop: refuse new work, finish and answer
    /// everything already admitted, then stop every thread. Idempotent;
    /// also runs on drop.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.shutdown_inner();
        self.stats()
    }

    fn shutdown_inner(&mut self) {
        // 1. New localize requests see ShuttingDown; admitted ones drain.
        self.shared.draining.store(true, Ordering::Release);
        self.admission.close();
        // 2. Stop accepting; a self-connection unblocks the acceptor.
        self.accept_stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // 3. Workers drain the closed admission queue, answering every
        //    in-flight request, then exit. The reaper just stops —
        //    resident sessions die with the store.
        *self
            .reaper_stop
            .stopped
            .lock()
            .expect("reaper stop poisoned") = true;
        self.reaper_stop.cv.notify_all();
        if let Some(h) = self.reaper.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // 4. Only now wind down connections. Workers have *sent* every
        //    admitted reply, but a connection thread may still be writing
        //    one to its socket — so cut only the read half: blocked
        //    readers wake with EOF and exit their loop, while in-flight
        //    reply writes complete. Join outside the lock: exiting
        //    threads take it to remove their own entries.
        let live: Vec<_> = self
            .conns
            .lock()
            .expect("registry poisoned")
            .drain()
            .map(|(_, conn)| conn)
            .collect();
        for (sock, _) in &live {
            let _ = sock.shutdown(std::net::Shutdown::Read);
        }
        for (_, h) in live {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Per-connection protocol-error codes (the `code` of
/// [`Frame::ProtocolError`]).
pub mod errcode {
    /// The frame could not be decoded; the connection is dropped.
    pub const UNDECODABLE: u8 = 0;
    /// `ap_id` does not name a deployment AP.
    pub const BAD_AP: u8 = 1;
    /// A server→client frame type arrived at the server.
    pub const NOT_A_REQUEST: u8 = 2;
    /// A keyed frame crossed the connection's role: an ingestion
    /// connection issued `LocalizeKey`, or a query connection issued
    /// `SubmitKeyed`.
    pub const ROLE_MISMATCH: u8 = 3;
    /// A `Reconfigure` op would produce an invalid topology (bad AP id,
    /// removing the last AP, non-finite pose). The op was refused and
    /// the epoch is unchanged.
    pub const BAD_CONFIG: u8 = 4;
}

/// What a connection has declared itself to be. The first submit or
/// localize types the connection; role-neutral frames (ping, failure
/// reports, metrics, topology) leave it untyped.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    /// No keyed frame seen yet.
    Untyped,
    /// An AP process streaming `SubmitKeyed` (may not query).
    Ingest,
    /// An application issuing `LocalizeKey` (may not submit).
    App,
}

fn role_mismatch(wanted: &str, got: &str) -> Frame {
    Frame::ProtocolError {
        code: errcode::ROLE_MISMATCH,
        message: format!("connection is typed {got}; {wanted} frames are not allowed"),
    }
}

/// Uplink byte accounting at admission: every spectrum submission charges
/// its wire size to the `encoding`-labelled uplink counter; compressed
/// frames additionally record what the same spectrum would have cost raw,
/// which keeps the cumulative compression-ratio gauge honest. Runs before
/// the frame is normalized into its raw twin, because the mode is gone
/// after that.
fn account_uplink(shared: &Shared, frame: &Frame, wire_bytes: usize) {
    let (mode, bins) = match frame {
        Frame::SubmitKeyed { spectrum, .. } => (None, spectrum.bins()),
        Frame::SubmitCompressedKeyed { mode, spectrum, .. } => (Some(*mode), spectrum.bins()),
        _ => return,
    };
    let wire = wire_bytes as u64;
    match mode {
        None => {
            shared.stats.submits_raw.fetch_add(1, Ordering::Relaxed);
            shared
                .stats
                .uplink_raw_bytes
                .fetch_add(wire, Ordering::Relaxed);
            at_obs::global()
                .counter(
                    at_obs::names::SERVE_UPLINK_BYTES_TOTAL,
                    &[("encoding", "raw")],
                )
                .add(wire);
        }
        Some(mode) => {
            // The raw twin of this frame: header + key + ap_id + age + the
            // `u32` bin count + 8 bytes per bin.
            let raw_equiv = (HEADER_LEN + 8 + 4 + 8) as u64 + codec::raw_wire_bytes(bins);
            let label = mode.encoding().label();
            let s = &shared.stats;
            s.submits_compressed.fetch_add(1, Ordering::Relaxed);
            let wire_total = s.uplink_compressed_bytes.fetch_add(wire, Ordering::Relaxed) + wire;
            let raw_total = s
                .uplink_raw_equiv_bytes
                .fetch_add(raw_equiv, Ordering::Relaxed)
                + raw_equiv;
            let obs = at_obs::global();
            obs.counter(
                at_obs::names::SERVE_UPLINK_BYTES_TOTAL,
                &[("encoding", label)],
            )
            .add(wire);
            obs.counter(
                at_obs::names::SERVE_COMPRESSED_FRAMES_TOTAL,
                &[("mode", label)],
            )
            .inc();
            obs.gauge(at_obs::names::SERVE_UPLINK_COMPRESSION_RATIO, &[])
                .set(raw_total as f64 / wire_total as f64);
        }
    }
}

fn run_conn(mut stream: TcpStream, shared: &Shared, admission: &Bounded<Job>) {
    let mut role = Role::Untyped;
    loop {
        let frame = match proto::read_frame_counted(&mut stream) {
            Ok(Some((f, wire_bytes))) => {
                account_uplink(shared, &f, wire_bytes);
                // A compressed submission, once decompressed and
                // accounted, is *exactly* its raw twin: same role typing,
                // same tap record, same store path — the codec is
                // invisible past admission.
                match f {
                    Frame::SubmitCompressedKeyed {
                        key,
                        ap_id,
                        age,
                        spectrum,
                        ..
                    } => Frame::SubmitKeyed {
                        key,
                        ap_id,
                        age,
                        spectrum,
                    },
                    other => other,
                }
            }
            Ok(None) => return, // clean close
            Err(ReadError::Io(_)) => return,
            Err(ReadError::Decode(e)) => {
                // Framing is lost; say why, then hang up.
                let _ = proto::write_frame(
                    &mut stream,
                    &Frame::ProtocolError {
                        code: errcode::UNDECODABLE,
                        message: e.to_string(),
                    },
                );
                return;
            }
        };
        let response = match frame {
            Frame::SubmitKeyed {
                key,
                ap_id,
                age,
                spectrum,
            } => {
                if role == Role::App {
                    role_mismatch("ingestion", "app")
                } else {
                    // One topo read guard around the id check, the
                    // journal record, and the store mutation: the
                    // journal's order is the order the store changed,
                    // and a swap can never interleave.
                    let topo = shared.topo.read().expect("topo poisoned");
                    let n_aps = topo.config.n_aps();
                    if (ap_id as usize) >= n_aps {
                        Frame::ProtocolError {
                            code: errcode::BAD_AP,
                            message: format!("ap {ap_id} out of range (deployment has {n_aps})"),
                        }
                    } else {
                        role = Role::Ingest;
                        if let Some(tap) = &shared.tap {
                            tap.submit(key, ap_id, age, &spectrum);
                        }
                        shared
                            .health
                            .lock()
                            .expect("health poisoned")
                            .report_success(ap_id as usize);
                        let observations =
                            shared
                                .store
                                .submit(key, ap_id as usize, age, Arc::new(spectrum));
                        Frame::SubmitAck {
                            observations: observations as u32,
                        }
                    }
                }
            }
            Frame::LocalizeKey { key, deadline_ms } => {
                if role == Role::Ingest {
                    role_mismatch("query", "ingest")
                } else {
                    role = Role::App;
                    // An unknown (never-submitted or evicted) key fuses an
                    // empty observation set: the normal path answers with
                    // the typed `NoObservations` error.
                    handle_localize(shared, admission, key, deadline_ms)
                }
            }
            Frame::ReportFailure { ap_id } => {
                let topo = shared.topo.read().expect("topo poisoned");
                let n_aps = topo.config.n_aps();
                if (ap_id as usize) >= n_aps {
                    Frame::ProtocolError {
                        code: errcode::BAD_AP,
                        message: format!("ap {ap_id} out of range (deployment has {n_aps})"),
                    }
                } else {
                    if let Some(tap) = &shared.tap {
                        tap.failure(ap_id);
                    }
                    shared
                        .health
                        .lock()
                        .expect("health poisoned")
                        .report_failure(ap_id as usize);
                    Frame::SubmitAck { observations: 0 }
                }
            }
            Frame::Ping { token } => Frame::Pong { token },
            // Read-only and role-neutral: ops scrape from whatever
            // connection is handy without typing it.
            Frame::MetricsQuery => Frame::MetricsReport {
                text: at_obs::global().snapshot().to_prometheus(),
            },
            Frame::TopologyQuery => {
                let topo = shared.topo.read().expect("topo poisoned");
                Frame::TopologyInfo {
                    epoch: topo.epoch,
                    fingerprint: topo.fingerprint,
                    poses: topo.config.poses.clone(),
                }
            }
            Frame::Reconfigure { op } => handle_reconfigure(shared, op),
            // Response-type frames are never valid requests.
            _ => Frame::ProtocolError {
                code: errcode::NOT_A_REQUEST,
                message: "server received a response-type frame".into(),
            },
        };
        if proto::write_frame(&mut stream, &response).is_err() {
            return;
        }
    }
}

fn shed(shared: &Shared) -> Frame {
    shared.stats.shed.fetch_add(1, Ordering::Relaxed);
    at_obs::count!("at_serve_shed_total");
    if shared.draining.load(Ordering::Acquire) {
        Frame::ShuttingDown
    } else {
        Frame::Overloaded {
            retry_after_ms: shared.retry_after_ms,
        }
    }
}

fn handle_localize(
    shared: &Shared,
    admission: &Bounded<Job>,
    key: ClientKey,
    deadline_ms: u32,
) -> Frame {
    let _t = at_obs::time_stage!(at_obs::stages::SERVE_REQUEST);
    shared.stats.requests.fetch_add(1, Ordering::Relaxed);
    at_obs::count!("at_serve_requests_total");
    if shared.draining.load(Ordering::Acquire) {
        return Frame::ShuttingDown;
    }
    // A reconfiguration is draining the pipeline: refuse before touching
    // the topo lock so the drain terminates under any offered load (a
    // shed request is retried by the client after the swap).
    if shared.swapping.load(Ordering::Acquire) {
        return shed(shared);
    }
    let deadline =
        (deadline_ms > 0).then(|| Instant::now() + Duration::from_millis(u64::from(deadline_ms)));
    let (reply_tx, reply_rx) = mpsc::sync_channel(1);
    // Admission happens under the topo read guard: the journal record,
    // the store snapshot, and the queue push (with its in-flight credit)
    // are one atomic unit with respect to an epoch swap, so a query
    // journaled before the epoch record also *executed* before it.
    let admitted = {
        let _topo = shared.topo.read().expect("topo poisoned");
        if shared.swapping.load(Ordering::Acquire) {
            // The flag rose between the check above and the guard.
            None
        } else {
            let query_seq = shared.tap.as_ref().map(|t| t.query(key, deadline_ms));
            let job = Job {
                obs: shared.store.snapshot(key).unwrap_or_default(),
                deadline,
                enqueued: Instant::now(),
                reply: reply_tx,
            };
            shared.in_flight.fetch_add(1, Ordering::SeqCst);
            match admission.try_push(job) {
                Ok(()) => Some(query_seq),
                Err(_refused) => {
                    shared.in_flight.fetch_sub(1, Ordering::SeqCst);
                    None
                }
            }
        }
    };
    match admitted {
        Some(query_seq) => {
            let reply = match reply_rx.recv() {
                Ok(frame) => frame,
                // The job was dropped unanswered (its worker panicked).
                Err(_) => Frame::ShuttingDown,
            };
            shared.in_flight.fetch_sub(1, Ordering::SeqCst);
            if let (Some(tap), Some(seq)) = (&shared.tap, query_seq) {
                tap.outcome(seq, &reply);
            }
            reply
        }
        None => shed(shared),
    }
}

/// Applies a topology change to the live server: validate and build the
/// new epoch *outside* all locks (the engine's per-AP grid cache makes
/// unchanged APs a memcpy), shed-and-drain the localize pipeline, then
/// swap — journal record, store remap, health remap, and the topo
/// publish in one exclusive section. In-flight requests finish on the
/// old epoch; requests admitted after see only the new one.
fn handle_reconfigure(shared: &Shared, op: TopologyOp) -> Frame {
    // One administrator at a time; concurrent ops queue here.
    let _admin = shared.reconfig.lock().expect("reconfig poisoned");
    let (new_config, mapping, new_epoch) = {
        let topo = shared.topo.read().expect("topo poisoned");
        match topo.config.apply(&op) {
            Ok((config, mapping)) => (config, mapping, topo.epoch + 1),
            Err(e) => {
                // Refused cleanly: typed error over the wire, epoch
                // untouched, connection stays usable.
                return Frame::ProtocolError {
                    code: errcode::BAD_CONFIG,
                    message: e.to_string(),
                };
            }
        }
    };
    let fingerprint = new_config.fingerprint();
    // The expensive part, outside every lock: serving continues on the
    // old epoch while the new engine assembles from cached grids.
    let engine = Arc::new(LocalizationEngine::for_epoch(
        &new_config.poses,
        new_config.region,
        new_config.bins,
        new_epoch,
    ));
    // Drain: new localizes shed from here on, so in-flight reaches zero.
    shared.swapping.store(true, Ordering::SeqCst);
    while shared.in_flight.load(Ordering::SeqCst) > 0 {
        thread::sleep(Duration::from_micros(50));
    }
    {
        let mut topo = shared.topo.write().expect("topo poisoned");
        if let Some(tap) = &shared.tap {
            tap.epoch_change(new_epoch, fingerprint, &op);
        }
        shared.store.remap(&mapping.old_to_new, mapping.n_new);
        shared
            .health
            .lock()
            .expect("health poisoned")
            .remap(&mapping.old_to_new, mapping.n_new);
        *topo = TopoState {
            epoch: new_epoch,
            config: new_config,
            fingerprint,
            engine,
        };
    }
    shared.swapping.store(false, Ordering::SeqCst);
    shared.stats.reconfigures.fetch_add(1, Ordering::Relaxed);
    at_obs::count!("at_serve_reconfigures_total");
    at_obs::global()
        .gauge(at_obs::names::SERVE_TOPOLOGY_EPOCH, &[])
        .set(new_epoch as f64);
    let topo = shared.topo.read().expect("topo poisoned");
    Frame::TopologyInfo {
        epoch: topo.epoch,
        fingerprint: topo.fingerprint,
        poses: topo.config.poses.clone(),
    }
}

fn expire_deadline(shared: &Shared, job: &Job, now: Instant) -> bool {
    if job.deadline.is_some_and(|d| d <= now) {
        shared.stats.deadline_missed.fetch_add(1, Ordering::Relaxed);
        at_obs::count!("at_serve_deadline_missed_total");
        let _ = job.reply.send(Frame::DeadlineExceeded);
        return true;
    }
    false
}

fn run_worker(admission: &Bounded<Job>, shared: &Shared) {
    let dwell = at_obs::stages::stage_histogram(at_obs::stages::SERVE_QUEUE);
    // Reused job after job: a warm worker's engine sweep allocates nothing.
    let mut scratch = FusionScratch::new();
    while let Some(job) = admission.pop() {
        let now = Instant::now();
        dwell.observe(now.saturating_duration_since(job.enqueued).as_secs_f64());
        // Last deadline check before the expensive sweep.
        if expire_deadline(shared, &job, now) {
            continue;
        }
        let _t = at_obs::time_stage!(at_obs::stages::SERVE_BATCH);
        // Pin the epoch: engine and policy from one topo read. A swap
        // cannot run concurrently (it drains in-flight first), so this is
        // always the epoch the job was admitted under.
        let (engine, policy) = {
            let topo = shared.topo.read().expect("topo poisoned");
            (Arc::clone(&topo.engine), topo.config.health)
        };
        let health = shared.health.lock().expect("health poisoned").clone();
        let fused: Vec<FusedObservation<'_>> = job.obs.iter().map(KeyedObs::fused).collect();
        // Workers are the parallelism; each fusion runs on this thread.
        let frame = match at_core::fuse(&engine, &fused, &health, &policy, &mut scratch) {
            Ok(estimate) => {
                shared.stats.fixes.fetch_add(1, Ordering::Relaxed);
                at_obs::count!("at_serve_responses_total", "result" => "fix");
                fix_frame(&policy, &health, &job.obs, estimate)
            }
            Err(error) => {
                shared.stats.failures.fetch_add(1, Ordering::Relaxed);
                at_obs::count!("at_serve_responses_total", "result" => "failed");
                Frame::Failed { error }
            }
        };
        let _ = job.reply.send(frame);
    }
}

/// Builds a [`Frame::Fix`] carrying the health of every AP the session
/// cited, as judged by the snapshot the fusion actually used.
fn fix_frame(
    policy: &HealthPolicy,
    health: &HealthTracker,
    obs: &[KeyedObs],
    estimate: LocationEstimate,
) -> Frame {
    let mut ap_ids: Vec<u32> = obs.iter().map(|o| o.ap_id).collect();
    ap_ids.sort_unstable();
    ap_ids.dedup();
    let reports = ap_ids
        .into_iter()
        .map(|ap| ApHealthReport {
            ap_id: ap,
            status: health.status(ap as usize, policy),
            consecutive_failures: health.consecutive_failures(ap as usize),
        })
        .collect();
    Frame::Fix {
        x: estimate.position.x,
        y: estimate.position.y,
        likelihood: estimate.likelihood,
        health: reports,
    }
}
