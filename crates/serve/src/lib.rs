//! # mspgemm-serve
//!
//! The serving subsystem of the Masked SpGEMM reproduction: a long-lived
//! `mxm serve` process that keeps datasets **resident** — loaded once,
//! pre-transposed, sidecar-warmed — and answers masked-product and
//! application requests over a **line-delimited JSON protocol** on a TCP
//! or Unix-domain socket.
//!
//! This is the network half of the ROADMAP's serving-mode item. The
//! execution half landed earlier: requests run on the process-wide
//! persistent worker pool and share one [`masked_spgemm::WsPool`], so in
//! steady state a query against a resident dataset spawns no threads and
//! allocates no accumulator scratch — the per-request cost is the kernel
//! itself, which is what a service absorbing heavy traffic wants.
//!
//! * [`json`] — self-contained JSON value/parser/serializer (std-only;
//!   the build environment has no crates.io access).
//! * [`protocol`] — framing, error codes, response shapes; the schema is
//!   documented verb by verb in `docs/SERVE_PROTOCOL.md`.
//! * [`registry`] — [`Registry`]/[`Dataset`]: named resident matrices
//!   with derived operands, behind a `RwLock` (reads clone an `Arc`).
//! * [`server`] — [`Server`]: listener, per-connection threads, request
//!   handlers, cooperative shutdown.
//! * `scheduler` (private) — the admission-controlled request scheduler:
//!   a bounded queue (`--queue-depth`) feeding a fixed pool of executor
//!   workers (`--max-inflight`). Connection threads park on a reply
//!   channel instead of executing heavy verbs themselves; under overload
//!   the server answers a typed `busy` error with a `retry_after_ms`
//!   hint instead of degrading unpredictably. Queued `mxm` requests that
//!   differ only by mask mode are **fused** into one kernel pass, and
//!   per-request `deadline_ms` budgets cancel expired work at phase
//!   boundaries before its most expensive pass.
//! * [`client`] — [`Client`]: the blocking client behind `mxm query`.
//!
//! ## In-process quick start
//!
//! ```no_run
//! use mspgemm_serve::{Json, Server, ServeConfig, client};
//!
//! let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
//! server.preload(&["data/karate.mtx".to_string()]).unwrap();
//! let resp = client::query_once(
//!     server.addr(),
//!     &Json::obj(vec![
//!         ("op", Json::str("mxm")),
//!         ("dataset", Json::str("karate")),
//!         ("algo", Json::str("hash")),
//!     ]),
//! )
//! .unwrap();
//! assert!(resp.get("nnz").is_some());
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod json;
pub mod protocol;
pub mod registry;
mod scheduler;
pub mod server;

pub use client::Client;
pub use json::Json;
pub use protocol::{ErrorCode, MAX_REQUEST_BYTES};
pub use registry::{Dataset, Registry};
pub use server::{ServeConfig, Server, ServerState};

/// The failpoint table is process-global: a lib test that arms one, or
/// that fires or reports one (every `update` passes `serve.update.swap`),
/// holds this lock so no other test consumes or observes its shots.
#[cfg(test)]
pub(crate) fn failpoint_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
