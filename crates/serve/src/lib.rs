//! `rfsim-serve` — a memoising simulation service layer over the
//! [`SweepEngine`](rfsim_rf::sweep::SweepEngine).
//!
//! The sweep engine re-solves every point it is given; dashboard and
//! regression traffic, though, asks for the same amplitude × tone-spacing
//! grids over and over (the sweep-tuned spectrum-analyzer shape). This
//! crate adds the missing layer between "a fast engine" and "a service":
//!
//! * [`store`] — a bounded LRU **solution store** keyed by
//!   `(structure fingerprint, quantised job parameters)`
//!   ([`rfsim_rf::key`]). A hit returns the stored samples
//!   byte-for-byte: replay is bit-identical by construction.
//! * [`queue`] + [`service`] — a **priority admission queue** with
//!   backpressure, in-flight request deduplication (concurrent identical
//!   submits coalesce onto one solve), and a scheduler that batches
//!   same-backend jobs into engine runs. The service runs as a **shard
//!   pool**: N independent engine+store+scheduler shards, jobs routed by
//!   rendezvous hashing over the structure-fingerprint slot
//!   ([`rfsim_rf::key::rendezvous_route`]), so shards share no hot lock.
//! * [`wire`] — a dependency-free **line-delimited JSON protocol** over
//!   `std::net` with `submit` / `poll` / `cancel` / `stats` /
//!   `metrics` / `trace` / `evict` / `shutdown` verbs, served by a
//!   **non-blocking front-end** (bounded worker pool multiplexing
//!   nonblocking sockets, parked long-polls, per-connection admission
//!   control), plus the `rfsim-serve` daemon binary.
//! * [`metrics`] + the per-job telemetry inside [`service`] — per-shard
//!   **latency histograms** (queue wait / solve / end-to-end) exposed
//!   as a Prometheus-style text exposition, bounded per-job lifecycle
//!   **timelines** behind the `trace` verb, and an opt-in slow-job log.
//! * [`client`] — a blocking protocol client, plus the `rfsim-client`
//!   CLI that drives grid requests end-to-end.
//!
//! See `docs/serving.md` for the protocol reference and the keying /
//! eviction rules, `docs/scaling.md` for shard sizing, routing math, and
//! the stats field reference, `docs/observability.md` for the telemetry
//! plane (exposition series, timeline events, the slow-job log), and
//! `examples/serve_roundtrip.rs` for a daemon + client round trip in one
//! process.
//!
//! # Quick start (in-process)
//!
//! ```
//! use std::time::Duration;
//! use rfsim_serve::service::{ServeConfig, SimService};
//! use rfsim_serve::spec::JobSpec;
//!
//! let service = SimService::start(ServeConfig {
//!     threads: 1,
//!     ..Default::default()
//! });
//! let spec = JobSpec::mpde("rc_lowpass", 1e6, vec![0.1, 0.2], vec![10e3]);
//! let first = service.submit(&spec).expect("submit");
//! let solved = service.wait(first, Duration::from_secs(60)).expect("solve");
//! // The same request again is a memo hit: no solve, identical bytes.
//! let again = service.submit(&spec).expect("submit");
//! let replayed = service.wait(again, Duration::from_secs(60)).expect("replay");
//! assert_eq!(solved.digest(), replayed.digest());
//! assert_eq!(service.stats().counters.total().memo_hits, 1);
//! ```
//!
//! See `docs/architecture.md` for where this crate sits in the stack and
//! `docs/serving.md` for the protocol and keying/eviction rules.

#![deny(missing_docs)]

pub mod client;
pub mod error;
pub mod metrics;
pub mod queue;
pub mod service;
pub mod spec;
pub mod store;
pub mod wire;

pub use client::ServeClient;
pub use error::{Result, ServeError};
pub use service::{
    JobId, JobStatus, KeyingStats, LatencySnapshot, NetlistSubmission, ServeConfig, ServeStats,
    ShardStats, SimService, TraceView,
};
pub use spec::{BackendKind, FamilyRegistry, JobResult, JobSpec, Priority};
pub use store::SolutionStore;
pub use wire::{FrontEndConfig, WireServer};
