//! # at-serve — the networked location service
//!
//! ArrayTrack is designed as a *service*: many APs stream processed AoA
//! spectra into a central server, many clients ask it "where am I?" (§1;
//! the §4.4 latency budget is an end-to-end service number). This crate is
//! that network boundary, built entirely on `std::net` + threads:
//!
//! - [`proto`] — a single-version, length-prefixed binary wire protocol
//!   with a total decoder: arbitrary bytes yield a frame, a "need more"
//!   signal, or a typed error, never a panic;
//! - [`codec`] — wire-level spectrum compression: 16-bit log-domain
//!   quantization with a delta/varint/run-length tail for the AP uplink
//!   (~10× smaller), plus a lossless XOR-delta mode for bit-exact replay;
//!   the decompressor is total like the frame decoder;
//! - [`store`] — the sharded keyed session store, the server's only
//!   session model: AP connections submit spectra for a [`ClientKey`],
//!   application connections localize that key;
//! - [`queue`] — the bounded closing admission queue, the backpressure
//!   primitive;
//! - [`server`] — the thread-pool TCP server: admission control that
//!   sheds load with typed `Overloaded` frames instead of queuing
//!   unboundedly, client-propagated deadlines enforced before fusion,
//!   workers that pop each job straight from admission and answer it as
//!   soon as it is fused, a [`RecordTap`] on every store-mutating event
//!   (so every fix replays), and drain-then-stop shutdown;
//! - [`client`] — blocking clients (role-neutral [`Client`], ingestion
//!   [`ApClient`], query [`AppClient`]) with the same bounded-attempts
//!   retry discipline as the testbed's acquisition layer.
//!
//! The server's workers fuse through [`at_core::fuse`], which shares its
//! plan/execute core with the in-process `ArrayTrackServer::try_localize`,
//! so a networked fix is bit-exact with the in-process one and degraded
//! deployments keep their typed `LocalizeError`/health semantics across
//! the wire. Every stage records into `at-obs` (queue-depth gauges, shed
//! and deadline-miss counters, `serve_*` stage histograms).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod codec;
pub mod proto;
pub mod queue;
pub mod server;
pub mod store;

pub use client::{
    ApClient, AppClient, Client, ClientConfig, ClientError, RemoteFix, RemoteTopology,
};
pub use codec::{CodecError, CompressedMode, Encoding};
pub use proto::{ApHealthReport, ClientKey, DecodeError, Frame, ReadError};
pub use server::{
    spawn, spawn_recorded, RecordTap, ServeConfig, ServerHandle, ServiceConfig, StatsSnapshot,
};
pub use store::{KeyedObs, SessionPolicy, SessionStore, StoreStats};

/// Name of the gauge that once reported the request-coalescing window.
/// The server no longer batches, so nothing sets it and it reads 0; it
/// stays only because the benchmark of record still samples it, and goes
/// with the next change to the benchmark.
pub const BATCH_WINDOW_GAUGE: &str = "at_serve_batch_window_seconds";
