//! # chain2l-service
//!
//! The long-lived service layer on top of the [`chain2l_core::Engine`]: a
//! persistent `chain2l serve` daemon speaking a versioned NDJSON protocol
//! over plain TCP (`std::net` only — no framework dependencies), sharding
//! solve requests across worker **processes** by solving context (rates,
//! costs, algorithm), plus the matching client used by
//! `chain2l batch --remote`.
//!
//! * [`protocol`] — the versioned NDJSON frames (requests, responses, the
//!   shard hello line) and the spec → scenario resolution both sides share;
//! * [`json`] — the hand-rolled flat-object JSON subset the frames use
//!   (strict parsing in place, borrowing from the line; shortest-round-trip
//!   floats);
//! * [`frame`] — incremental NDJSON frame decoding (partial frames,
//!   per-frame error isolation) and the buffered non-blocking connection
//!   with its ordered-delivery inflight window;
//! * [`shard`] — the worker process: one engine per process, one readiness
//!   loop multiplexing loopback connections that answers cache hits itself
//!   and hands only cache misses to a solver-thread pool, exiting on
//!   `shutdown` or parent death;
//! * [`persist`] — warm-start persistence: per-shard crash-consistent
//!   snapshots (`--state-dir`), loaded at boot, written periodically and on
//!   every exit path, so a restarted daemon serves warm;
//! * [`server`] — the parent daemon: one readiness loop for the public
//!   listener and all shard links, context routing with internal-id
//!   re-keying (worker replies are relayed by splicing the client id into
//!   their bytes, not re-encoded), worker supervision (respawn + inflight
//!   replay), graceful shutdown with per-shard statistics;
//! * [`client`] — pipelined remote batch solving with reconnect-and-resend
//!   retry (exponential backoff, deterministic seeded jitter, per-request
//!   deadlines) and the control ops (`ping`/`stats`/`health`/`shutdown`);
//! * [`loadgen`] — the closed-loop load generator and latency report behind
//!   `chain2l bench-load`, including shed-retry accounting under daemon
//!   admission control.
//!
//! Fault tolerance: the daemon sheds load past `--max-inflight` with
//! `error:"overloaded"` responses (protocol v2), supervises and respawns
//! dead workers, and reports it all through the `health` op; the whole
//! serve path is threaded with deterministic failpoints
//! (`chain2l_core::failpoint`, armed by `serve --failpoints` or
//! `CHAIN2L_FAILPOINTS`) so every fault class is reproducible in tests.
//!
//! Determinism contract: every solve is a deterministic pure function of the
//! scenario and algorithm, each context (and so each fingerprint) is owned
//! by exactly one shard, responses are matched by id and every
//! connection's responses are released in request order — so
//! `chain2l batch --remote` output is **byte-identical** to the offline
//! `chain2l batch` for any shard count,
//! any client concurrency, any `RAYON_NUM_THREADS`, and even across a shard
//! worker being killed and respawned mid-stream (enforced by the daemon
//! integration tests in `crates/cli/tests`, which run real
//! `chain2l serve --internal-shard` workers, and the CI smoke job).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod frame;
pub mod json;
pub mod loadgen;
pub mod persist;
pub mod protocol;
pub mod server;
pub mod shard;

pub use client::{BatchReport, ClientConfig, ClientError};
pub use persist::{PersistConfig, Persister};
pub use protocol::{HealthReport, Request, Response, SolveResult, SolveSpec};
pub use server::{ServeConfig, ServeSummary, Server};
