//! The server: listener setup, per-connection threads, and the request
//! handlers that execute protocol verbs against the shared state.
//!
//! One [`ServerState`] is shared by every connection: the dataset
//! [`Registry`] behind its `RwLock`, one [`WsPool`] so accumulator
//! scratch is reused across *all* requests (the second query against a
//! warm dataset allocates nothing), and one [`ExecStats`] recorder
//! feeding the `stats` verb's busy-spread figure. Parallel kernels run on
//! the process-wide persistent worker pool (the rayon layer), so steady
//! state spawns no threads either.
//!
//! The accept loop runs on its own thread; each accepted connection gets
//! a handler thread that loops over request lines until EOF, an oversized
//! payload, or `shutdown`. Connection threads do **not** execute heavy
//! verbs themselves: `mxm`, `app`, and `update` requests are validated at
//! admission
//! and handed to the scheduler's bounded queue, where a fixed
//! pool of executor workers (`--max-inflight`) drains them — so
//! concurrency is a policy knob, overload is answered with a typed
//! `busy` + `retry_after_ms` instead of unbounded queueing, queued
//! requests that differ only by mask mode fuse into one kernel pass, and
//! `deadline_ms` budgets cancel expired work before its numeric phase.
//! Light verbs (ping, list, stats, metrics, load, …) still run inline on
//! the connection thread.
//!
//! Shutdown is cooperative: the flag flips, the accept loop is woken by
//! a self-connection, and in-flight requests finish their response
//! before the process exits.

use crate::json::{self, Json};
use crate::protocol::{
    err_response, err_response_with, ok_response, opt_bool, opt_str, opt_u64, read_frame, req_str,
    write_frame, ErrorCode, Frame, MAX_REQUEST_BYTES,
};
use crate::registry::{Dataset, Registry, RegistryError, TcCache};
use crate::scheduler::{Admission, Job, Scheduler};
use masked_spgemm::{
    masked_mxm_with_bt, masked_mxm_with_opts, Algorithm, ExecOpts, ExecStats, MaskMode, Phases,
    RowSchedule, WsPool,
};
use mspgemm_graph::{bc, ktruss, tricount, App, Scheme};
use mspgemm_harness::{busy_spread, csr_fingerprint, gflops, mb_per_s, with_threads};
use mspgemm_io::{CachePolicy, LoadOpts};
use mspgemm_obs::{HistSnapshot, MetricsRegistry, Series};
use mspgemm_sparse::overlay::DeltaOp;
use mspgemm_sparse::semiring::PlusTimesF64;
use mspgemm_sparse::{Csr, Idx};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::{Duration, Instant};

/// Server-wide defaults a request can override per call.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Row schedule used when a request does not name one.
    pub schedule: RowSchedule,
    /// Parse fan-out for `load` when the request does not pin one
    /// (`0` = all cores).
    pub parse_threads: usize,
    /// Sidecar cache policy for `load` (default: read/write, so the
    /// first text load warms the `.msb` sidecar).
    pub cache: CachePolicy,
    /// Prefer zero-copy mmap residency for v2 `.msb` inputs/sidecars
    /// (`mxm serve --mmap`); requests can override per `load`.
    pub mmap: bool,
    /// Load datasets pattern-only by default (`mxm serve --pattern`):
    /// weights are discarded at ingest and the value section becomes a
    /// view of the process-wide unit arena. Requests can override per
    /// `load`.
    pub pattern: bool,
    /// Executor workers draining the admission queue — the number of
    /// heavy requests executing concurrently (`mxm serve
    /// --max-inflight`). Clamped to at least 1.
    pub max_inflight: usize,
    /// Admission queue capacity: a heavy request arriving when this many
    /// are already waiting is answered with a typed `busy` error
    /// (`mxm serve --queue-depth`). Clamped to at least 1.
    pub queue_depth: usize,
    /// Resident-memory budget across all datasets (`mxm serve
    /// --max-resident-bytes`); a `load` over budget evicts
    /// least-recently-used un-pinned datasets first. `0` = unlimited.
    pub max_resident_bytes: u64,
    /// Kernel panics attributed to one dataset before it is quarantined
    /// (`mxm serve --quarantine-after`). Clamped to at least 1.
    pub quarantine_after: u32,
    /// Pending overlay positions that trigger automatic compaction on the
    /// next `update` (`mxm serve --compact-after-nnz`). `0` disables the
    /// threshold — compaction then happens only when a request asks with
    /// `"compact": true`.
    pub compact_after_nnz: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            schedule: RowSchedule::default(),
            parse_threads: 0,
            cache: CachePolicy::ReadWrite,
            mmap: false,
            pattern: false,
            // Two executor slots keep a second core busy while one
            // request fills the other; 64 queued jobs is roughly a
            // second of backlog at interactive kernel sizes. Both are
            // sized so light workloads never see `busy`.
            max_inflight: 2,
            queue_depth: 64,
            max_resident_bytes: 0,
            // Three strikes: one panic may be cosmic-ray bad luck, three
            // against the same dataset is a pattern worth fencing off.
            quarantine_after: 3,
            // 4096 pending positions before the overlay folds into a
            // fresh base: small enough that incremental-TC edge logs stay
            // cheap to replay, large enough that single-edge drip feeds
            // do not compact every batch.
            compact_after_nnz: 4096,
        }
    }
}

/// Everything the request handlers share across connections.
pub struct ServerState {
    /// The resident datasets.
    pub registry: Registry,
    /// Cross-request accumulator cache: the reason a warm query
    /// allocates nothing.
    pub ws_pool: WsPool,
    /// Cumulative per-thread busy-time recorder behind the `stats`
    /// verb's load-balance figure.
    pub exec_stats: ExecStats,
    /// Named metric series — request counters, per-verb and per-dataset
    /// latency and queue-wait histograms, ingest totals — served by the
    /// `metrics` verb as JSON or Prometheus text.
    pub metrics: MetricsRegistry,
    /// The admission queue feeding the executor workers; heavy verbs go
    /// through here, light verbs bypass it.
    pub(crate) scheduler: Scheduler,
    config: ServeConfig,
    started: Instant,
    requests: AtomicU64,
    /// Requests currently between line-read and response-flush; shutdown
    /// drains this to zero before the process exits.
    active: AtomicU64,
    shutting_down: AtomicBool,
    /// The resolved listen address, for the shutdown self-connection.
    addr: OnceLock<String>,
}

impl ServerState {
    fn new(config: ServeConfig) -> Arc<Self> {
        let state = Arc::new(ServerState {
            registry: Registry::with_limits(config.max_resident_bytes, config.quarantine_after),
            ws_pool: WsPool::new(),
            exec_stats: ExecStats::new(),
            metrics: MetricsRegistry::new(),
            scheduler: Scheduler::new(config.max_inflight, config.queue_depth),
            config,
            started: Instant::now(),
            requests: AtomicU64::new(0),
            active: AtomicU64::new(0),
            shutting_down: AtomicBool::new(false),
            addr: OnceLock::new(),
        });
        // Pre-touch the overload counters so every metrics scrape carries
        // them at zero — an operator alerting on `rejected_busy_total`
        // sees the series exist before the first rejection.
        for name in [
            "rejected_busy_total",
            "deadline_exceeded_total",
            "fused_requests_total",
            "worker_restarts_total",
            "quarantined_total",
            "evictions_total",
            "updates_total",
            "compactions_total",
        ] {
            let _ = state.metrics.counter(name, &[]);
        }
        Scheduler::spawn_workers(&state);
        state
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
    }

    /// Requests handled so far (including ones answered with an error).
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }
}

/// One running server: accept-loop thread plus shared state. Dropping the
/// handle shuts the server down (tests rely on this); the CLI instead
/// parks on [`Server::wait`] until a `shutdown` request arrives.
pub struct Server {
    state: Arc<ServerState>,
    accept: Option<std::thread::JoinHandle<()>>,
}

enum Binding {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, std::path::PathBuf),
}

impl Server {
    /// Bind `listen` and start accepting. `listen` is either a TCP
    /// address (`127.0.0.1:7654`, port `0` picks a free one) or
    /// `unix:/path/to.sock`.
    pub fn start(listen: &str, config: ServeConfig) -> Result<Server, String> {
        let state = ServerState::new(config);
        let (binding, addr) = if let Some(path) = listen.strip_prefix("unix:") {
            #[cfg(unix)]
            {
                let l = UnixListener::bind(path).map_err(|e| format!("bind {listen}: {e}"))?;
                (Binding::Unix(l, path.into()), listen.to_string())
            }
            #[cfg(not(unix))]
            {
                return Err(format!(
                    "bind {listen}: unix sockets are not supported on this platform"
                ));
            }
        } else {
            let l = TcpListener::bind(listen).map_err(|e| format!("bind {listen}: {e}"))?;
            let local = l.local_addr().map_err(|e| e.to_string())?;
            (Binding::Tcp(l), local.to_string())
        };
        state.addr.set(addr).unwrap();
        let st = state.clone();
        let accept = std::thread::Builder::new()
            .name("mxm-serve-accept".into())
            .spawn(move || accept_loop(st, binding))
            .map_err(|e| e.to_string())?;
        Ok(Server {
            state,
            accept: Some(accept),
        })
    }

    /// The resolved listen address (`host:port`, or `unix:/path`).
    pub fn addr(&self) -> &str {
        self.state.addr.get().expect("set at start")
    }

    /// The shared state (registries, pools) — for preloading and tests.
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Load datasets into the registry before (or while) serving, using
    /// the server's default cache policy and parse fan-out. Returns the
    /// registry names in input order. Preloads are **pinned**: the
    /// operator named them on the command line, so the memory budget
    /// never evicts them in favor of an ad-hoc `load`.
    pub fn preload(&self, paths: &[String]) -> Result<Vec<String>, String> {
        paths
            .iter()
            .map(|p| {
                self.state
                    .registry
                    .load(
                        p,
                        None,
                        &LoadOpts {
                            policy: self.state.config.cache,
                            parse_threads: self.state.config.parse_threads,
                            mmap: self.state.config.mmap,
                            pattern: self.state.config.pattern,
                        },
                        true,
                    )
                    .map(|out| out.ds.name.clone())
                    .map_err(|e| e.to_string())
            })
            .collect()
    }

    /// Request shutdown, join the accept thread, and drain in-flight
    /// requests. Idempotent.
    pub fn shutdown(&mut self) {
        self.state.begin_shutdown();
        if let Some(addr) = self.state.addr.get() {
            wake(addr);
        }
        if let Some(h) = self.accept.take() {
            h.join().ok();
        }
        drain_in_flight(&self.state);
    }

    /// Block until a `shutdown` request stops the server, then until
    /// every in-flight request has flushed its response.
    pub fn wait(mut self) {
        if let Some(h) = self.accept.take() {
            h.join().ok();
        }
        drain_in_flight(&self.state);
    }
}

/// Connection handler threads are detached (an idle connection parked on
/// a read would block a join forever), so shutdown instead waits for the
/// *requests* currently executing — kernels always terminate — and lets
/// idle connections die with the process, their responses long since
/// flushed.
fn drain_in_flight(state: &ServerState) {
    while state.active.load(Ordering::SeqCst) > 0 {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Poke the listener so a blocked `accept` observes the shutdown flag.
fn wake(addr: &str) {
    if let Some(_path) = addr.strip_prefix("unix:") {
        #[cfg(unix)]
        {
            let _ = UnixStream::connect(_path);
        }
    } else {
        let _ = TcpStream::connect(addr);
    }
}

fn accept_loop(state: Arc<ServerState>, binding: Binding) {
    match binding {
        Binding::Tcp(listener) => loop {
            let conn = listener.accept();
            if state.is_shutting_down() {
                break;
            }
            match conn {
                Ok((stream, _)) => {
                    // Responses are single writes (`write_frame`); without
                    // NODELAY, Nagle would still hold a frame that follows
                    // an unacknowledged one until the delayed ACK.
                    let _ = stream.set_nodelay(true);
                    let st = state.clone();
                    std::thread::spawn(move || {
                        let reader = match stream.try_clone() {
                            Ok(r) => BufReader::new(r),
                            Err(_) => return,
                        };
                        let _ = serve_connection(&st, reader, stream);
                    });
                }
                // Transient errors (EMFILE under fd exhaustion, ECONNABORTED)
                // return immediately; back off instead of spinning a core.
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
            }
        },
        #[cfg(unix)]
        Binding::Unix(listener, path) => {
            loop {
                let conn = listener.accept();
                if state.is_shutting_down() {
                    break;
                }
                match conn {
                    Ok((stream, _)) => {
                        let st = state.clone();
                        std::thread::spawn(move || {
                            let reader = match stream.try_clone() {
                                Ok(r) => BufReader::new(r),
                                Err(_) => return,
                            };
                            let _ = serve_connection(&st, reader, stream);
                        });
                    }
                    Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
                }
            }
            std::fs::remove_file(&path).ok();
        }
    }
}

/// Drive one connection: read request lines, write response lines, until
/// EOF, an oversized payload, or shutdown.
pub fn serve_connection(
    state: &Arc<ServerState>,
    mut reader: impl BufRead,
    mut writer: impl Write,
) -> std::io::Result<()> {
    loop {
        match read_frame(&mut reader, MAX_REQUEST_BYTES)? {
            Frame::Eof => return Ok(()),
            Frame::Oversized => {
                let resp = err_response(
                    ErrorCode::PayloadTooLarge,
                    format!("request line exceeds {MAX_REQUEST_BYTES} bytes"),
                );
                write_frame(&mut writer, &resp.to_line())?;
                // Swallow the rest of the oversized line (constant
                // memory) before closing: dropping the socket with
                // unread bytes queued would RST the connection and race
                // the error response out of the peer's receive buffer.
                drain_line(&mut reader).ok();
                return Ok(());
            }
            Frame::Line(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                let received = Instant::now();
                // In-flight guard spans compute *and* response flush, so
                // shutdown's drain never cuts a response mid-write.
                let guard = ActiveGuard::new(&state.active);
                let (resp, stop) = handle_request_at(state, &line, received);
                // Failpoint `serve.conn.drop`: the request executed and
                // was *recorded*, but the response is discarded and the
                // connection closed — the client sees its socket die.
                // Firing after recording keeps the metric invariants
                // exact: `hits("serve.conn.drop")` is precisely the gap
                // between requests counted and responses delivered.
                if mspgemm_fault::fire("serve.conn.drop").is_some() {
                    return Ok(());
                }
                write_frame(&mut writer, &resp.to_line())?;
                drop(guard);
                if stop {
                    state.begin_shutdown();
                    if let Some(addr) = state.addr.get() {
                        wake(addr);
                    }
                    return Ok(());
                }
            }
        }
    }
}

/// RAII increment of the in-flight request counter; decrements on drop
/// (including the early-return paths when a response write fails).
struct ActiveGuard<'a>(&'a AtomicU64);

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

impl<'a> ActiveGuard<'a> {
    fn new(counter: &'a AtomicU64) -> Self {
        counter.fetch_add(1, Ordering::SeqCst);
        ActiveGuard(counter)
    }
}

/// Upper bound on bytes swallowed while draining one oversized line. The
/// drain exists only to let the error response escape the peer's receive
/// buffer before the close; a peer streaming gigabytes without a newline
/// is not owed that courtesy, and an unbounded drain would let it hold
/// the connection thread (and the socket) forever.
const DRAIN_CAP_BYTES: usize = 8 * MAX_REQUEST_BYTES;

/// Discard input up to and including the next newline (or EOF), in
/// constant memory, giving up after [`DRAIN_CAP_BYTES`].
fn drain_line(reader: &mut impl BufRead) -> std::io::Result<()> {
    let mut drained = 0usize;
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Ok(());
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(i) => {
                reader.consume(i + 1);
                return Ok(());
            }
            None => {
                let n = buf.len();
                drained += n;
                reader.consume(n);
                if drained >= DRAIN_CAP_BYTES {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "oversized line exceeded the drain cap",
                    ));
                }
            }
        }
    }
}

type OpResult = Result<Json, (ErrorCode, String)>;

fn bad(msg: String) -> (ErrorCode, String) {
    (ErrorCode::BadRequest, msg)
}

fn reg_err(e: RegistryError) -> (ErrorCode, String) {
    let code = match &e {
        RegistryError::AlreadyLoaded(_) => ErrorCode::AlreadyLoaded,
        RegistryError::NotFound(_) => ErrorCode::UnknownDataset,
        RegistryError::Load(_) => ErrorCode::LoadFailed,
        RegistryError::Quarantined(_) => ErrorCode::Quarantined,
        RegistryError::Evicted(_) => ErrorCode::Evicted,
        RegistryError::OverBudget(_) => ErrorCode::OverBudget,
        RegistryError::OutOfBounds(_) => ErrorCode::OutOfBounds,
    };
    (code, e.to_string())
}

/// Parse an optional field into any `FromStr` type, accepting both the
/// string spelling and (for convenience) an integral number — so
/// `"phases": 2` and `"phases": "2"` both work.
fn opt_parse<T: std::str::FromStr<Err = String>>(
    req: &Json,
    field: &str,
    default: &str,
) -> Result<T, (ErrorCode, String)> {
    let spelled = match req.get(field) {
        None | Some(Json::Null) => default.to_string(),
        Some(Json::Str(s)) => s.clone(),
        Some(v @ Json::Num(_)) => match v.as_u64() {
            Some(n) => n.to_string(),
            None => return Err(bad(format!("'{field}' must be a string or integer"))),
        },
        Some(_) => return Err(bad(format!("'{field}' must be a string or integer"))),
    };
    spelled.parse().map_err(|e| bad(format!("'{field}': {e}")))
}

fn mask_name(mode: MaskMode) -> &'static str {
    match mode {
        MaskMode::Mask => "normal",
        MaskMode::Complement => "complement",
    }
}

/// Dispatch one request line. Returns the response and whether the server
/// should stop accepting (the `shutdown` verb).
pub fn handle_request(state: &ServerState, line: &str) -> (Json, bool) {
    handle_request_at(state, line, Instant::now())
}

/// Where a parsed request line was sent.
enum Routed {
    /// Executed (or rejected) synchronously on the connection thread.
    Inline {
        verb: &'static str,
        dataset: Option<String>,
        result: OpResult,
        stop: bool,
    },
    /// Admitted to the scheduler; the reply channel produces the one
    /// response, and the executor worker records its metrics.
    Queued {
        verb: &'static str,
        dataset: Option<String>,
        rx: mpsc::Receiver<Json>,
    },
}

fn inline(verb: &'static str, dataset: Option<String>, result: OpResult, stop: bool) -> Routed {
    Routed::Inline {
        verb,
        dataset,
        result,
        stop,
    }
}

/// [`handle_request`] with an explicit arrival timestamp. Heavy verbs
/// queue behind the scheduler, and the worker charges `arrival →
/// execution start` to the `queue_wait_us` histogram; light verbs run
/// here on the connection thread with a near-zero wait.
fn handle_request_at(state: &ServerState, line: &str, received: Instant) -> (Json, bool) {
    let exec_start = Instant::now();
    match route_request(state, line, received) {
        Routed::Inline {
            verb,
            dataset,
            result,
            stop,
        } => {
            let resp = match result {
                Ok(resp) => resp,
                Err((code, msg)) => err_response(code, msg),
            };
            let latency_us = exec_start.elapsed().as_micros() as u64;
            let queue_us = exec_start.saturating_duration_since(received).as_micros() as u64;
            record_request(state, verb, dataset.as_deref(), &resp, latency_us, queue_us);
            (resp, stop)
        }
        Routed::Queued { verb, dataset, rx } => match rx.recv() {
            // The worker recorded this request before replying.
            Ok(resp) => (resp, false),
            // The sender was dropped without an answer — a worker panic.
            // Answer (and record) here so the connection never hangs.
            Err(_) => {
                let resp = err_response(ErrorCode::ExecFailed, "executor dropped the request");
                let latency_us = exec_start.elapsed().as_micros() as u64;
                record_request(state, verb, dataset.as_deref(), &resp, latency_us, 0);
                (resp, false)
            }
        },
    }
}

/// Fold one finished request into the metrics registry — the single
/// recording point shared by the inline path and the executor workers,
/// so the exact-count invariants (a `metrics` scrape reports precisely
/// the requests answered before it) hold regardless of which side
/// answered.
fn record_request(
    state: &ServerState,
    verb: &'static str,
    dataset: Option<&str>,
    resp: &Json,
    latency_us: u64,
    queue_us: u64,
) {
    let m = &state.metrics;
    m.counter("requests_total", &[]).inc();
    m.counter("requests_total", &[("verb", verb)]).inc();
    if resp.get("ok") != Some(&Json::Bool(true)) {
        m.counter("errors_total", &[]).inc();
        m.counter("errors_total", &[("verb", verb)]).inc();
    }
    m.histogram("request_latency_us", &[]).record(latency_us);
    m.histogram("request_latency_us", &[("verb", verb)])
        .record(latency_us);
    m.histogram("queue_wait_us", &[("verb", verb)])
        .record(queue_us);
    if let Some(ds) = dataset {
        m.histogram("dataset_request_latency_us", &[("dataset", ds)])
            .record(latency_us);
    }
}

/// Parse, validate, and route one request line: light verbs execute
/// inline, heavy verbs (`mxm`, `app`, `update`) go through scheduler
/// admission.
fn route_request(state: &ServerState, line: &str, received: Instant) -> Routed {
    if state.is_shutting_down() {
        return inline(
            "rejected",
            None,
            Err((
                ErrorCode::ShuttingDown,
                "server is shutting down".to_string(),
            )),
            false,
        );
    }
    let req = match json::parse(line) {
        Ok(v @ Json::Obj(_)) => v,
        Ok(_) => {
            return inline(
                "invalid",
                None,
                Err((
                    ErrorCode::BadRequest,
                    "request must be a JSON object".to_string(),
                )),
                false,
            )
        }
        Err(e) => {
            return inline(
                "invalid",
                None,
                Err((ErrorCode::BadRequest, format!("invalid JSON: {e}"))),
                false,
            )
        }
    };
    state.requests.fetch_add(1, Ordering::Relaxed);
    let op = match req.get("op").and_then(Json::as_str) {
        Some(s) => s.to_string(),
        None => {
            return inline(
                "invalid",
                None,
                Err((ErrorCode::BadRequest, "'op' must be a string".to_string())),
                false,
            )
        }
    };
    // The dataset label for per-dataset latency series: `mxm`/`app`
    // address one via "dataset"; `load`/`unload` via "name".
    let dataset = req
        .get("dataset")
        .or_else(|| req.get("name"))
        .and_then(Json::as_str)
        .map(str::to_string);
    if op == "shutdown" {
        return inline(
            "shutdown",
            dataset,
            Ok(ok_response(vec![
                ("op", Json::str("shutdown")),
                ("stopping", true.into()),
            ])),
            true,
        );
    }
    match op.as_str() {
        "ping" => inline("ping", dataset, op_ping(state), false),
        "load" => {
            let r = op_load(state, &req);
            inline("load", dataset, r, false)
        }
        "list" => inline("list", dataset, op_list(state), false),
        "unload" => {
            let r = op_unload(state, &req);
            inline("unload", dataset, r, false)
        }
        "mxm" => schedule_heavy(state, "mxm", req, dataset, received),
        "app" => schedule_heavy(state, "app", req, dataset, received),
        // Updates are heavy verbs: the merge/rebuild is kernel-sized
        // work, so they drain through admission like `mxm`/`app` (and
        // are answered `busy` under overload instead of piling up).
        "update" => schedule_heavy(state, "update", req, dataset, received),
        "stats" => inline("stats", dataset, op_stats(state), false),
        "metrics" => {
            let r = op_metrics(state, &req);
            inline("metrics", dataset, r, false)
        }
        other => inline(
            "unknown",
            dataset,
            Err((
                ErrorCode::UnknownOp,
                format!(
                "unknown op '{other}' (expected ping|load|list|unload|mxm|app|update|stats|metrics|shutdown)"
            ),
            )),
            false,
        ),
    }
}

/// Admit one heavy verb into the scheduler, or answer inline when it
/// cannot be queued: malformed (`bad_request` before a slot is wasted),
/// already past its deadline, or rejected by a full queue (`busy` with a
/// `retry_after_ms` hint).
fn schedule_heavy(
    state: &ServerState,
    verb: &'static str,
    req: Json,
    dataset: Option<String>,
    received: Instant,
) -> Routed {
    // The execution budget counts from arrival, so time spent queued
    // spends it too — that is the point: a client that gave up by its
    // deadline should not have stale work run on its behalf.
    let deadline_ms = match opt_u64(&req, "deadline_ms", 0) {
        Ok(ms) => ms,
        Err(msg) => return inline(verb, dataset, Err(bad(msg)), false),
    };
    let deadline = (deadline_ms > 0).then(|| received + Duration::from_millis(deadline_ms));
    // Validate `mxm` fully at admission: an unknown dataset or a bad
    // parameter never occupies a queue slot, and the fuse key needs the
    // parsed, defaulted parameters anyway. (`app` validates on the
    // worker; its errors still come back on the reply channel.)
    let fuse_key = if verb == "mxm" {
        match parse_mxm(state, &req) {
            Ok(p) => Some(p.fuse_key()),
            Err(e) => return inline(verb, dataset, Err(e), false),
        }
    } else {
        None
    };
    if deadline.is_some_and(|d| Instant::now() >= d) {
        state.metrics.counter("deadline_exceeded_total", &[]).inc();
        return inline(
            verb,
            dataset,
            Err((
                ErrorCode::DeadlineExceeded,
                format!("deadline of {deadline_ms} ms expired before admission"),
            )),
            false,
        );
    }
    let (tx, rx) = mpsc::channel();
    let job = Job {
        verb,
        req,
        fuse_key,
        dataset: dataset.clone(),
        received,
        deadline,
        reply: tx,
    };
    match state.scheduler.submit(job) {
        Admission::Enqueued => Routed::Queued { verb, dataset, rx },
        Admission::Busy {
            retry_after_ms,
            queued,
        } => {
            state.metrics.counter("rejected_busy_total", &[]).inc();
            // `Ok` despite being an error response: the `busy` object
            // carries `retry_after_ms` inside `error`, which the plain
            // `(code, message)` error path cannot express. It still
            // counts as an error (`"ok": false`) in the metrics.
            let resp = err_response_with(
                ErrorCode::Busy,
                format!("admission queue full ({queued} waiting); retry in ~{retry_after_ms} ms"),
                vec![("retry_after_ms", retry_after_ms.into())],
            );
            inline(verb, dataset, Ok(resp), false)
        }
        Admission::Closed => inline(
            verb,
            dataset,
            Err((
                ErrorCode::ShuttingDown,
                "server is shutting down".to_string(),
            )),
            false,
        ),
    }
}

fn op_ping(state: &ServerState) -> OpResult {
    Ok(ok_response(vec![
        ("op", Json::str("ping")),
        ("pong", true.into()),
        ("version", Json::str(env!("CARGO_PKG_VERSION"))),
        ("uptime_s", state.started.elapsed().as_secs_f64().into()),
        ("datasets", state.registry.len().into()),
    ]))
}

fn op_load(state: &ServerState, req: &Json) -> OpResult {
    let path = req_str(req, "path").map_err(bad)?;
    let name = opt_str(req, "name").map_err(bad)?;
    let parse_threads =
        opt_u64(req, "parse_threads", state.config.parse_threads as u64).map_err(bad)? as usize;
    let cache = match opt_str(req, "cache").map_err(bad)? {
        None => state.config.cache,
        Some("readwrite") => CachePolicy::ReadWrite,
        Some("readonly") => CachePolicy::ReadOnly,
        Some("off") => CachePolicy::Off,
        Some(other) => {
            return Err(bad(format!(
                "'cache' must be readwrite|readonly|off, got '{other}'"
            )))
        }
    };
    let mmap = opt_bool(req, "mmap", state.config.mmap).map_err(bad)?;
    let pattern = opt_bool(req, "pattern", state.config.pattern).map_err(bad)?;
    let pin = opt_bool(req, "pin", false).map_err(bad)?;
    let out = state
        .registry
        .load(
            path,
            name,
            &LoadOpts {
                policy: cache,
                parse_threads,
                mmap,
                pattern,
            },
            pin,
        )
        .map_err(reg_err)?;
    if !out.evicted.is_empty() {
        state
            .metrics
            .counter("evictions_total", &[])
            .add(out.evicted.len() as u64);
    }
    let ds = &out.ds;
    let r = &ds.ingest;
    // Absorb the IngestReport into the metrics registry: cumulative
    // totals plus an ingest-latency histogram alongside the request one.
    let m = &state.metrics;
    m.counter("ingest_bytes_total", &[]).add(r.bytes);
    m.counter("ingest_entries_total", &[]).add(r.entries as u64);
    m.histogram("ingest_latency_us", &[])
        .record((r.seconds * 1e6) as u64);
    Ok(ok_response(vec![
        ("op", Json::str("load")),
        ("name", Json::str(&ds.name)),
        ("path", Json::str(&ds.path)),
        ("nrows", ds.matrix.nrows().into()),
        ("ncols", ds.matrix.ncols().into()),
        ("nnz", ds.matrix.nnz().into()),
        ("adj_nnz", ds.adj.nnz().into()),
        ("mem_bytes", ds.mem_bytes().into()),
        ("backend", Json::str(ds.backend().name())),
        ("mapped_bytes", ds.mapped_bytes().into()),
        ("pattern", ds.pattern().into()),
        ("unit_bytes", ds.unit_bytes().into()),
        ("pinned", pin.into()),
        // Full disclosure: which datasets the memory budget pushed out
        // to make room. Their next request gets a typed `evicted` error.
        (
            "evicted",
            Json::Arr(out.evicted.iter().map(Json::str).collect()),
        ),
        (
            "ingest",
            Json::obj(vec![
                ("outcome", Json::Str(format!("{:?}", r.outcome))),
                ("bytes", r.bytes.into()),
                ("entries", r.entries.into()),
                ("seconds", r.seconds.into()),
                ("mb_per_s", mb_per_s(r.bytes, r.seconds).into()),
                ("pattern", r.pattern.into()),
            ]),
        ),
    ]))
}

fn op_list(state: &ServerState) -> OpResult {
    let datasets: Vec<Json> = state
        .registry
        .list()
        .iter()
        .map(|info| {
            let ds = &info.ds;
            Json::obj(vec![
                ("name", Json::str(&ds.name)),
                ("path", Json::str(&ds.path)),
                ("nrows", ds.matrix.nrows().into()),
                ("nnz", ds.matrix.nnz().into()),
                ("adj_nnz", ds.adj.nnz().into()),
                ("mem_bytes", ds.mem_bytes().into()),
                ("backend", Json::str(ds.backend().name())),
                ("mapped_bytes", ds.mapped_bytes().into()),
                ("pattern", ds.pattern().into()),
                ("unit_bytes", ds.unit_bytes().into()),
                ("age_seconds", ds.loaded_at.elapsed().as_secs_f64().into()),
                ("version", info.version.into()),
                ("delta_nnz", info.delta_nnz.into()),
                ("pinned", info.pinned.into()),
                ("quarantined", info.quarantined.into()),
                ("panics", u64::from(info.panics).into()),
            ])
        })
        .collect();
    Ok(ok_response(vec![
        ("op", Json::str("list")),
        ("count", datasets.len().into()),
        ("datasets", Json::Arr(datasets)),
    ]))
}

fn op_unload(state: &ServerState, req: &Json) -> OpResult {
    let name = req_str(req, "name").map_err(bad)?;
    state.registry.unload(name).map_err(reg_err)?;
    Ok(ok_response(vec![
        ("op", Json::str("unload")),
        ("name", Json::str(name)),
    ]))
}

/// A fully parsed and validated `mxm` request, ready to execute.
struct MxmParams {
    dataset: String,
    algo: Algorithm,
    mode: MaskMode,
    phases: Phases,
    schedule: RowSchedule,
    threads: usize,
    reps: usize,
}

impl MxmParams {
    /// Fusion compatibility key: everything that shapes the kernel pass
    /// *except* the mask mode. Jobs sharing a key ride one batch and are
    /// partitioned by mode at execution, so normal and complemented
    /// queries against the same dataset still fuse among themselves.
    fn fuse_key(&self) -> String {
        format!(
            "{}|{}|{}|{}|{}|{}",
            self.dataset,
            self.algo.name(),
            if self.phases == Phases::One { "1" } else { "2" },
            self.schedule.name(),
            self.threads,
            self.reps
        )
    }
}

fn parse_mxm(state: &ServerState, req: &Json) -> Result<MxmParams, (ErrorCode, String)> {
    let name = req_str(req, "dataset").map_err(bad)?;
    // Resolve the dataset now so an unknown name is rejected at
    // admission instead of occupying a queue slot; execution resolves
    // again (the dataset may be unloaded while the job waits).
    let ds = state.registry.get(name).map_err(reg_err)?;
    let algo: Algorithm = opt_parse(req, "algo", "auto")?;
    let mode: MaskMode = opt_parse(req, "mask", "normal")?;
    let phases: Phases = opt_parse(req, "phases", "1")?;
    let schedule: RowSchedule = opt_parse(req, "schedule", state.config.schedule.name())?;
    let threads = opt_u64(req, "threads", 0).map_err(bad)? as usize;
    let reps = opt_u64(req, "reps", 1).map_err(bad)?.max(1) as usize;
    Ok(MxmParams {
        dataset: ds.name.clone(),
        algo,
        mode,
        phases,
        schedule,
        threads,
        reps,
    })
}

/// What one kernel pass produced — shared by every rider in a fused
/// group; the per-job response is layered on by [`mxm_response`].
struct PassOut {
    secs: f64,
    nnz: usize,
    fingerprint: String,
    hits: u64,
    misses: u64,
    is_pull: bool,
}

fn run_mxm_pass(
    state: &ServerState,
    ds: &Dataset,
    p: &MxmParams,
    mode: MaskMode,
    deadline: Option<Instant>,
) -> Result<PassOut, (ErrorCode, String)> {
    let a = &ds.matrix;
    let mask = &ds.mask;
    let opts = ExecOpts {
        schedule: p.schedule,
        ws_pool: Some(&state.ws_pool),
        stats: Some(&state.exec_stats),
        deadline,
    };
    let hits0 = state.ws_pool.hits();
    let misses0 = state.ws_pool.misses();
    let run_one = || -> Result<Csr<f64>, masked_spgemm::Error> {
        if p.algo == Algorithm::Inner {
            // The registry's pre-transposed operand: the pull scheme
            // skips the per-call transpose entirely. (It has no row
            // drive, so no phase-boundary deadline checks either — the
            // budget is still enforced at admission and dequeue.)
            masked_mxm_with_bt::<PlusTimesF64, ()>(mask, a, &ds.matrix_t, mode, p.phases)
        } else {
            masked_mxm_with_opts::<PlusTimesF64, ()>(mask, a, a, p.algo, mode, p.phases, &opts)
        }
    };
    // Exactly `reps` timed passes, best kept, no warm-up: the server's
    // pool is already warm across requests (and `pool.warm` says when it
    // was not). The previous output is dropped before the next pass, so
    // at most one product is alive at a time.
    let work = || -> Result<(f64, Csr<f64>), masked_spgemm::Error> {
        let mut best = f64::INFINITY;
        let mut out = None;
        for _ in 0..p.reps {
            drop(out.take());
            let t0 = Instant::now();
            let c = run_one()?;
            best = best.min(t0.elapsed().as_secs_f64());
            out = Some(c);
        }
        Ok((best, out.expect("reps >= 1")))
    };
    let (secs, c) = if p.threads > 0 {
        with_threads(p.threads, work)
    } else {
        work()
    }
    .map_err(|e| match e {
        masked_spgemm::Error::DeadlineExceeded => (ErrorCode::DeadlineExceeded, e.to_string()),
        other => (ErrorCode::ExecFailed, other.to_string()),
    })?;
    Ok(PassOut {
        secs,
        nnz: c.nnz(),
        fingerprint: format!("{:016x}", csr_fingerprint(&c)),
        hits: state.ws_pool.hits() - hits0,
        misses: state.ws_pool.misses() - misses0,
        // The explicit pull path has no row drive and leases no
        // workspaces; echoing a schedule or claiming a warm pool would
        // be fiction.
        is_pull: p.algo == Algorithm::Inner,
    })
}

/// One rider's view of a (possibly fused) pass: `fused_group` is how
/// many requests shared the kernel execution; `fused` is the flag a
/// client can switch on without comparing counts.
fn mxm_response(
    ds: &Dataset,
    p: &MxmParams,
    mode: MaskMode,
    pass: &PassOut,
    fused_group: usize,
) -> Json {
    ok_response(vec![
        ("op", Json::str("mxm")),
        ("dataset", Json::str(&ds.name)),
        ("algo", Json::str(p.algo.name())),
        ("mask", Json::str(mask_name(mode))),
        (
            "phases",
            Json::str(if p.phases == Phases::One { "1" } else { "2" }),
        ),
        (
            "schedule",
            if pass.is_pull {
                Json::Null
            } else {
                Json::str(p.schedule.name())
            },
        ),
        ("threads", p.threads.into()),
        ("reps", p.reps.into()),
        ("seconds", pass.secs.into()),
        ("gflops", gflops(ds.mxm_flops, pass.secs).into()),
        ("nnz", pass.nnz.into()),
        ("fingerprint", Json::Str(pass.fingerprint.clone())),
        ("fused", (fused_group > 1).into()),
        ("fused_group", fused_group.into()),
        (
            "pool",
            if pass.is_pull {
                Json::Null
            } else {
                Json::obj(vec![
                    ("hits", pass.hits.into()),
                    ("misses", pass.misses.into()),
                    ("warm", (pass.misses == 0).into()),
                ])
            },
        ),
    ])
}

/// Execute one scheduler batch on an executor worker: jobs whose
/// deadline expired while queued are answered without running, `app`
/// jobs run singly, and `mxm` jobs — batched by the scheduler only when
/// their fuse keys match — share one kernel pass per mask mode.
pub(crate) fn execute_batch(state: &Arc<ServerState>, batch: Vec<Job>) {
    let mut mxm = Vec::new();
    for job in batch {
        if job.expired() {
            state.metrics.counter("deadline_exceeded_total", &[]).inc();
            let resp = err_response(
                ErrorCode::DeadlineExceeded,
                "deadline expired while the request was queued",
            );
            finish_job(state, job, resp, Instant::now());
            continue;
        }
        match job.verb {
            "app" => {
                let exec_start = Instant::now();
                let resp = match op_app(state, &job.req) {
                    Ok(resp) => resp,
                    Err((code, msg)) => err_response(code, msg),
                };
                finish_job(state, job, resp, exec_start);
            }
            // Updates never fuse (each batch mutates state), so they run
            // singly like `app` — but still on an executor slot.
            "update" => {
                let exec_start = Instant::now();
                let resp = match op_update(state, &job.req) {
                    Ok(resp) => resp,
                    Err((code, msg)) => err_response(code, msg),
                };
                finish_job(state, job, resp, exec_start);
            }
            _ => mxm.push(job),
        }
    }
    if !mxm.is_empty() {
        exec_mxm_group(state, mxm);
    }
}

/// Run a group of fuse-compatible `mxm` jobs: one kernel pass per
/// distinct mask mode, the output fanned back to every rider with its
/// own fingerprint and timing.
fn exec_mxm_group(state: &ServerState, jobs: Vec<Job>) {
    let exec_start = Instant::now();
    // Re-parse on the worker: parsing is deterministic (admission
    // already vetted it), but the dataset must be resolved fresh — it
    // may have been unloaded while the job waited.
    let mut by_mode: Vec<(MaskMode, Vec<(Job, MxmParams)>)> = Vec::new();
    for job in jobs {
        match parse_mxm(state, &job.req) {
            Ok(p) => match by_mode.iter_mut().find(|(m, _)| *m == p.mode) {
                Some((_, group)) => group.push((job, p)),
                None => by_mode.push((p.mode, vec![(job, p)])),
            },
            Err((code, msg)) => {
                finish_job(state, job, err_response(code, msg), exec_start);
            }
        }
    }
    for (mode, group) in by_mode {
        let k = group.len();
        if k > 1 {
            // k requests shared one pass: k-1 kernel executions saved.
            state
                .metrics
                .counter("fused_requests_total", &[])
                .add((k - 1) as u64);
        }
        // The pass runs once for everyone, so it gets the *loosest*
        // deadline in the group: by the time that one expires, every
        // earlier deadline has expired too. Any rider without a budget
        // disables kernel cancellation for the whole pass.
        let deadline = if group.iter().all(|(job, _)| job.deadline.is_some()) {
            group.iter().filter_map(|(job, _)| job.deadline).max()
        } else {
            None
        };
        let p = &group[0].1;
        let outcome = match state.registry.get(&p.dataset) {
            Ok(ds) => {
                match catch_unwind(AssertUnwindSafe(|| {
                    run_mxm_pass(state, &ds, p, mode, deadline)
                })) {
                    Ok(r) => r.map(|pass| (ds, pass)),
                    Err(payload) => {
                        // A kernel panic. Attribute it to the dataset
                        // (repeat offenders get quarantined), answer every
                        // rider with a typed error, then re-raise: the
                        // worker thread dies and its sentinel respawns a
                        // replacement, so the panic costs one thread spawn
                        // instead of an executor slot. Any *other* mode
                        // groups in this batch have their reply senders
                        // dropped by the unwind; the connection side's
                        // recv-error path answers (and records) those.
                        let msg = panic_msg(payload);
                        let verdict = state.registry.note_panic(&p.dataset);
                        if verdict.newly_quarantined {
                            state.metrics.counter("quarantined_total", &[]).inc();
                        }
                        let text = format!("kernel panicked on dataset '{}': {msg}", p.dataset);
                        for (job, _) in group {
                            finish_job(
                                state,
                                job,
                                err_response(ErrorCode::ExecFailed, text.clone()),
                                exec_start,
                            );
                        }
                        std::panic::resume_unwind(Box::new(msg));
                    }
                }
            }
            Err(e) => Err(reg_err(e)),
        };
        match outcome {
            Ok((ds, pass)) => {
                for (job, p) in group {
                    let resp = mxm_response(&ds, &p, mode, &pass, k);
                    finish_job(state, job, resp, exec_start);
                }
            }
            Err((code, msg)) => {
                if code == ErrorCode::DeadlineExceeded {
                    state
                        .metrics
                        .counter("deadline_exceeded_total", &[])
                        .add(k as u64);
                }
                for (job, _) in group {
                    finish_job(state, job, err_response(code, msg.clone()), exec_start);
                }
            }
        }
    }
}

/// Record one queued job's metrics and send its response. Recording
/// happens *before* the reply, so a client that scrapes `metrics`
/// right after its answer sees its own request already counted — the
/// same exact-count invariant the inline path provides.
fn finish_job(state: &ServerState, job: Job, resp: Json, exec_start: Instant) {
    let latency_us = exec_start.elapsed().as_micros() as u64;
    let queue_us = exec_start
        .saturating_duration_since(job.received)
        .as_micros() as u64;
    record_request(
        state,
        job.verb,
        job.dataset.as_deref(),
        &resp,
        latency_us,
        queue_us,
    );
    let _ = job.reply.send(resp);
}

fn op_app(state: &ServerState, req: &Json) -> OpResult {
    let name = req_str(req, "dataset").map_err(bad)?;
    let ds = state.registry.get(name).map_err(reg_err)?;
    let app: App = opt_parse(req, "app", "tc")?;
    let scheme: Scheme = opt_parse(req, "scheme", "auto")?;
    let schedule: RowSchedule = opt_parse(req, "schedule", state.config.schedule.name())?;
    let threads = opt_u64(req, "threads", 0).map_err(bad)? as usize;
    let k = opt_u64(req, "k", 4).map_err(bad)? as usize;
    let batch = opt_u64(req, "batch", 16).map_err(bad)? as usize;
    if app == App::Ktruss && k < 3 {
        return Err(bad(format!("k-truss needs k >= 3, got {k}")));
    }
    if app == App::Bc && !scheme.supports_complement() {
        return Err((
            ErrorCode::ExecFailed,
            format!(
                "scheme {} cannot run BC (no complemented-mask support)",
                scheme.name()
            ),
        ));
    }
    let opts = ExecOpts {
        schedule,
        ws_pool: Some(&state.ws_pool),
        stats: Some(&state.exec_stats),
        // Apps run many chained passes and map kernel errors to panics;
        // their deadline is enforced at admission and dequeue only.
        deadline: None,
    };
    let hits0 = state.ws_pool.hits();
    let misses0 = state.ws_pool.misses();
    // The application layer asserts/expects on kernel errors rather than
    // returning them; a panic must become a protocol error, not a dead
    // connection with no response.
    let run = || -> Result<Vec<(&'static str, Json)>, String> {
        match app {
            App::Tc => {
                // Snapshot the dataset *with* its update bookkeeping: when
                // cached per-row counts exist and the dataset has moved
                // past them by a known edge batch, the masked-SpGEMM pass
                // shrinks to the affected rows and patches the cache;
                // otherwise (first request, or the edge log overflowed)
                // every row is recounted and the cache stored fresh.
                let snap = state
                    .registry
                    .tc_snapshot(name)
                    .map_err(|e| e.to_string())?;
                match snap.cache {
                    Some(cache) if cache.version < snap.version => {
                        let (rows, patch, perm, secs) = catch_unwind(AssertUnwindSafe(|| {
                            // Replay the *cached* relabeling against the
                            // updated adjacency so the per-row counts stay
                            // comparable across versions.
                            let ops = tricount::prepare_with_perm(&snap.ds.adj, cache.perm.clone());
                            let rows = tricount::affected_rows(&ops, &snap.changed);
                            let (patch, secs) =
                                tricount::recount_rows_with(&ops, &rows, scheme, &opts);
                            (rows, patch, ops.perm, secs)
                        }))
                        .map_err(panic_msg)?;
                        let mut counts = cache.counts;
                        for &i in &rows {
                            counts[i] = patch[i];
                        }
                        let total: u64 = counts.iter().sum();
                        let patched = rows.len();
                        // The store is refused if another update landed
                        // while we counted; the response is still correct
                        // for the version we snapshotted.
                        let stored = state.registry.store_tc_cache(
                            name,
                            TcCache {
                                perm,
                                counts,
                                total,
                                version: snap.version,
                            },
                        );
                        Ok(vec![
                            ("triangles", total.into()),
                            ("mxm_seconds", secs.into()),
                            // A row-subset pass has no honest full-count
                            // FLOP denominator.
                            ("gflops", Json::Null),
                            ("incremental", true.into()),
                            ("patched_rows", patched.into()),
                            ("cached", stored.into()),
                        ])
                    }
                    _ => {
                        let ops = snap.ds.tc_operands();
                        let (counts, secs) = catch_unwind(AssertUnwindSafe(|| {
                            tricount::count_prepared_rows_with(&ops, scheme, &opts)
                        }))
                        .map_err(panic_msg)?;
                        let total: u64 = counts.iter().sum();
                        let stored = state.registry.store_tc_cache(
                            name,
                            TcCache {
                                perm: ops.perm.clone(),
                                counts,
                                total,
                                version: snap.version,
                            },
                        );
                        Ok(vec![
                            ("triangles", total.into()),
                            ("mxm_seconds", secs.into()),
                            ("gflops", gflops(ops.flops, secs).into()),
                            ("incremental", false.into()),
                            ("cached", stored.into()),
                        ])
                    }
                }
            }
            App::Ktruss => {
                let r = catch_unwind(AssertUnwindSafe(|| {
                    ktruss::k_truss_with(&ds.adj, k, scheme, &opts)
                }))
                .map_err(panic_msg)?;
                Ok(vec![
                    ("k", k.into()),
                    ("iterations", r.iterations.into()),
                    ("edges", r.truss.nnz().into()),
                    ("mxm_seconds", r.mxm_seconds.into()),
                    // k-truss has no incremental path: every request runs
                    // against the live matrix from scratch.
                    ("incremental", false.into()),
                ])
            }
            App::Bc => {
                let n = ds.adj.nrows();
                let sources: Vec<usize> = (0..batch.min(n)).collect();
                let nsrc = sources.len();
                let r = catch_unwind(AssertUnwindSafe(|| {
                    bc::betweenness_with(&ds.adj, &sources, scheme, &opts)
                }))
                .map_err(panic_msg)?;
                Ok(vec![
                    ("batch", nsrc.into()),
                    ("depth", r.depth.into()),
                    ("mxm_seconds", r.mxm_seconds.into()),
                    ("total_seconds", r.total_seconds.into()),
                    ("scores_sum", r.scores.iter().sum::<f64>().into()),
                    // BC always recomputes in full, like k-truss.
                    ("incremental", false.into()),
                ])
            }
        }
    };
    let fields = if threads > 0 {
        with_threads(threads, run)
    } else {
        run()
    }
    .map_err(|msg| (ErrorCode::ExecFailed, msg))?;
    let hits = state.ws_pool.hits() - hits0;
    let misses = state.ws_pool.misses() - misses0;
    let mut out = vec![
        ("op", Json::str("app")),
        ("app", Json::str(app.name())),
        ("dataset", Json::str(&ds.name)),
        ("scheme", Json::Str(scheme.name())),
        ("schedule", Json::str(schedule.name())),
    ];
    out.extend(fields);
    out.push((
        "pool",
        Json::obj(vec![
            ("hits", hits.into()),
            ("misses", misses.into()),
            ("warm", (misses == 0).into()),
        ]),
    ));
    Ok(ok_response(out))
}

/// Parse the `"insert"` / `"delete"` arrays of an `update` request into
/// one op batch. Inserts come first, then deletes — a position named in
/// both ends deleted (last write wins in the overlay).
fn parse_update_ops(req: &Json) -> Result<Vec<DeltaOp<f64>>, (ErrorCode, String)> {
    fn idx(v: &Json, what: &str, k: usize) -> Result<Idx, (ErrorCode, String)> {
        v.as_u64()
            .and_then(|n| Idx::try_from(n).ok())
            .ok_or_else(|| bad(format!("{what}[{k}] indices must be 32-bit integers >= 0")))
    }
    let mut ops = Vec::new();
    if let Some(v) = req.get("insert") {
        let arr = v
            .as_arr()
            .ok_or_else(|| bad("'insert' must be an array of [row, col, value] triples".into()))?;
        for (k, e) in arr.iter().enumerate() {
            let t = e
                .as_arr()
                .filter(|t| t.len() == 2 || t.len() == 3)
                .ok_or_else(|| {
                    bad(format!(
                        "'insert'[{k}] must be [row, col] or [row, col, value]"
                    ))
                })?;
            let val = match t.get(2) {
                None => 1.0,
                Some(v) => v
                    .as_f64()
                    .ok_or_else(|| bad(format!("'insert'[{k}] value must be a number")))?,
            };
            ops.push(DeltaOp::Upsert {
                row: idx(&t[0], "'insert'", k)?,
                col: idx(&t[1], "'insert'", k)?,
                val,
            });
        }
    }
    if let Some(v) = req.get("delete") {
        let arr = v
            .as_arr()
            .ok_or_else(|| bad("'delete' must be an array of [row, col] pairs".into()))?;
        for (k, e) in arr.iter().enumerate() {
            let t = e
                .as_arr()
                .filter(|t| t.len() == 2)
                .ok_or_else(|| bad(format!("'delete'[{k}] must be [row, col]")))?;
            ops.push(DeltaOp::Delete {
                row: idx(&t[0], "'delete'", k)?,
                col: idx(&t[1], "'delete'", k)?,
            });
        }
    }
    Ok(ops)
}

fn op_update(state: &ServerState, req: &Json) -> OpResult {
    let name = req_str(req, "dataset").map_err(bad)?;
    let compact = opt_bool(req, "compact", false).map_err(bad)?;
    let ops = parse_update_ops(req)?;
    if ops.is_empty() && !compact {
        return Err(bad(
            "'update' needs 'insert' and/or 'delete' ops (or 'compact': true)".to_string(),
        ));
    }
    let t0 = Instant::now();
    let out = state
        .registry
        .update(name, &ops, compact, state.config.compact_after_nnz)
        .map_err(reg_err)?;
    let secs = t0.elapsed().as_secs_f64();
    let m = &state.metrics;
    m.counter("updates_total", &[]).inc();
    m.counter("updates_total", &[("dataset", name)]).inc();
    if out.compacted {
        m.counter("compactions_total", &[]).inc();
    }
    m.histogram("update_latency_us", &[])
        .record((secs * 1e6) as u64);
    let ds = &out.ds;
    Ok(ok_response(vec![
        ("op", Json::str("update")),
        ("dataset", Json::str(&ds.name)),
        ("version", out.version.into()),
        ("applied", out.applied.into()),
        ("delta_nnz", out.delta_nnz.into()),
        ("compacted", out.compacted.into()),
        ("nrows", ds.matrix.nrows().into()),
        ("nnz", ds.matrix.nnz().into()),
        ("backend", Json::str(ds.backend().name())),
        ("mapped_bytes", ds.mapped_bytes().into()),
        ("seconds", secs.into()),
    ]))
}

fn panic_msg(e: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "kernel panicked".to_string()
    }
}

fn op_stats(state: &ServerState) -> OpResult {
    // One registry snapshot for the array AND the totals, so they always
    // agree even when loads/unloads race this request.
    let resident = state.registry.list();
    let datasets: Vec<Json> = resident
        .iter()
        .map(|info| {
            let ds = &info.ds;
            Json::obj(vec![
                ("name", Json::str(&ds.name)),
                ("mem_bytes", ds.mem_bytes().into()),
                ("backend", Json::str(ds.backend().name())),
                ("mapped_bytes", ds.mapped_bytes().into()),
                ("pattern", ds.pattern().into()),
                ("unit_bytes", ds.unit_bytes().into()),
                ("version", info.version.into()),
                ("delta_nnz", info.delta_nnz.into()),
                ("pinned", info.pinned.into()),
                ("quarantined", info.quarantined.into()),
                ("panics", u64::from(info.panics).into()),
            ])
        })
        .collect();
    let total_mem: u64 = resident.iter().map(|i| i.ds.mem_bytes()).sum();
    let total_mapped: u64 = resident.iter().map(|i| i.ds.mapped_bytes()).sum();
    // The unit arena is one process-wide allocation every pattern dataset
    // views, so its resident cost is reported once, not summed per
    // dataset (the per-dataset `unit_bytes` are view lengths).
    let unit_arena = mspgemm_sparse::unit_arena_bytes() as u64;
    // Active failpoints: empty in production, the injected-fault table
    // under `--fail`/`MXM_FAILPOINTS` — so an operator puzzled by a
    // misbehaving server can ask it whether the faults are intentional.
    let failpoints: Vec<Json> = mspgemm_fault::active()
        .into_iter()
        .map(|(name, task)| Json::obj(vec![("name", Json::Str(name)), ("task", Json::Str(task))]))
        .collect();
    let hits = state.ws_pool.hits();
    let misses = state.ws_pool.misses();
    let takes = hits + misses;
    let busy = match busy_spread(&state.exec_stats.busy_seconds()) {
        Some(sp) => Json::obj(vec![
            ("threads", sp.threads.into()),
            ("max_over_mean", sp.ratio().into()),
        ]),
        None => Json::Null,
    };
    // Overall request-latency quantiles from the unlabeled histogram
    // (the `metrics` verb has the per-verb and per-dataset series).
    let lat = state
        .metrics
        .histogram("request_latency_us", &[])
        .snapshot();
    Ok(ok_response(vec![
        ("op", Json::str("stats")),
        (
            "uptime_seconds",
            state.started.elapsed().as_secs_f64().into(),
        ),
        ("requests", state.requests().into()),
        (
            "requests_total",
            state.metrics.counter("requests_total", &[]).get().into(),
        ),
        (
            "errors_total",
            state.metrics.counter("errors_total", &[]).get().into(),
        ),
        (
            "latency",
            Json::obj(vec![
                ("p50", (lat.quantile(0.50) as f64 / 1e6).into()),
                ("p95", (lat.quantile(0.95) as f64 / 1e6).into()),
                ("p99", (lat.quantile(0.99) as f64 / 1e6).into()),
                ("count", lat.count.into()),
            ]),
        ),
        ("datasets", Json::Arr(datasets)),
        ("total_mem_bytes", total_mem.into()),
        ("total_mapped_bytes", total_mapped.into()),
        ("unit_arena_bytes", unit_arena.into()),
        (
            "max_resident_bytes",
            state.registry.max_resident_bytes().into(),
        ),
        ("failpoints", Json::Arr(failpoints)),
        (
            "scheduler",
            Json::obj(vec![
                ("workers", state.scheduler.workers().into()),
                ("queue_depth", state.scheduler.depth().into()),
                ("queued", state.scheduler.queued().into()),
            ]),
        ),
        (
            "pool",
            Json::obj(vec![
                ("hits", hits.into()),
                ("misses", misses.into()),
                ("retained", state.ws_pool.retained().into()),
                (
                    "hit_rate",
                    if takes > 0 {
                        (hits as f64 / takes as f64).into()
                    } else {
                        Json::Null
                    },
                ),
            ]),
        ),
        ("busy", busy),
    ]))
}

/// Refresh the gauges that mirror state owned elsewhere (`WsPool`
/// counters, `ExecStats` busy spread, registry residency), so every
/// snapshot the `metrics` verb serves is current without those
/// subsystems having to push on each change.
fn publish_gauges(state: &ServerState) {
    let m = &state.metrics;
    m.gauge("uptime_seconds", &[])
        .set(state.started.elapsed().as_secs_f64());
    m.gauge("ws_pool_hits", &[])
        .set(state.ws_pool.hits() as f64);
    m.gauge("ws_pool_misses", &[])
        .set(state.ws_pool.misses() as f64);
    m.gauge("ws_pool_retained", &[])
        .set(state.ws_pool.retained() as f64);
    if let Some(sp) = busy_spread(&state.exec_stats.busy_seconds()) {
        m.gauge("busy_threads", &[]).set(sp.threads as f64);
        m.gauge("busy_max_over_mean", &[]).set(sp.ratio());
    }
    m.gauge("scheduler_queued", &[])
        .set(state.scheduler.queued() as f64);
    let resident = state.registry.list();
    m.gauge("datasets_resident", &[]).set(resident.len() as f64);
    m.gauge("resident_bytes", &[])
        .set(resident.iter().map(|i| i.ds.mem_bytes()).sum::<u64>() as f64);
    m.gauge("mapped_bytes", &[])
        .set(resident.iter().map(|i| i.ds.mapped_bytes()).sum::<u64>() as f64);
    m.gauge("unit_arena_bytes", &[])
        .set(mspgemm_sparse::unit_arena_bytes() as f64);
    m.gauge("datasets_quarantined", &[])
        .set(resident.iter().filter(|i| i.quarantined).count() as f64);
    m.gauge("delta_nnz", &[])
        .set(resident.iter().map(|i| i.delta_nnz as u64).sum::<u64>() as f64);
}

fn series_fields(series: &Series) -> Vec<(&'static str, Json)> {
    vec![
        ("name", Json::str(&series.name)),
        (
            "labels",
            Json::Obj(
                series
                    .labels
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                    .collect(),
            ),
        ),
    ]
}

fn hist_json(series: &Series, h: &HistSnapshot) -> Json {
    let mut fields = series_fields(series);
    fields.extend([
        ("count", h.count.into()),
        ("sum", h.sum.into()),
        ("max", h.max.into()),
        ("mean", h.mean().into()),
        ("p50", h.quantile(0.50).into()),
        ("p95", h.quantile(0.95).into()),
        ("p99", h.quantile(0.99).into()),
        (
            "buckets",
            Json::Arr(
                h.nonzero()
                    .into_iter()
                    .map(|(le, n)| Json::obj(vec![("le", le.into()), ("count", n.into())]))
                    .collect(),
            ),
        ),
    ]);
    Json::obj(fields)
}

fn op_metrics(state: &ServerState, req: &Json) -> OpResult {
    publish_gauges(state);
    let snap = state.metrics.snapshot();
    match opt_str(req, "format").map_err(bad)?.unwrap_or("json") {
        "prometheus" => Ok(ok_response(vec![
            ("op", Json::str("metrics")),
            ("format", Json::str("prometheus")),
            ("content_type", Json::str("text/plain; version=0.0.4")),
            ("text", Json::Str(snap.to_prometheus())),
        ])),
        "json" => {
            let counters: Vec<Json> = snap
                .counters
                .iter()
                .map(|(s, v)| {
                    let mut f = series_fields(s);
                    f.push(("value", (*v).into()));
                    Json::obj(f)
                })
                .collect();
            let gauges: Vec<Json> = snap
                .gauges
                .iter()
                .map(|(s, v)| {
                    let mut f = series_fields(s);
                    f.push(("value", (*v).into()));
                    Json::obj(f)
                })
                .collect();
            let histograms: Vec<Json> = snap
                .histograms
                .iter()
                .map(|(s, h)| hist_json(s, h))
                .collect();
            Ok(ok_response(vec![
                ("op", Json::str("metrics")),
                ("format", Json::str("json")),
                ("counters", Json::Arr(counters)),
                ("gauges", Json::Arr(gauges)),
                ("histograms", Json::Arr(histograms)),
            ]))
        }
        other => Err(bad(format!(
            "'format' must be json|prometheus, got '{other}'"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state_with(dir_tag: &str, n: usize) -> (Arc<ServerState>, String) {
        let dir = std::env::temp_dir().join(format!("mspgemm_serve_server_{dir_tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        let mtx = dir.join("g.mtx");
        let g = mspgemm_gen::er_symmetric(n, 6, 3);
        mspgemm_io::mtx::write_mtx_file(&mtx, &g).unwrap();
        let state = ServerState::new(ServeConfig {
            cache: CachePolicy::Off,
            ..ServeConfig::default()
        });
        (state, mtx.to_str().unwrap().to_string())
    }

    fn ok(state: &ServerState, line: &str) -> Json {
        let (resp, stop) = handle_request(state, line);
        assert!(!stop);
        assert_eq!(
            resp.get("ok"),
            Some(&Json::Bool(true)),
            "expected success: {}",
            resp.to_line()
        );
        resp
    }

    fn err_code(state: &ServerState, line: &str) -> String {
        let (resp, _) = handle_request(state, line);
        assert_eq!(
            resp.get("ok"),
            Some(&Json::Bool(false)),
            "{}",
            resp.to_line()
        );
        resp.get("error")
            .unwrap()
            .get("code")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string()
    }

    #[test]
    fn request_lifecycle_load_mxm_warm_unload() {
        let (state, path) = state_with("lifecycle", 120);
        ok(&state, r#"{"op":"ping"}"#);
        let resp = ok(
            &state,
            &format!(r#"{{"op":"load","path":"{path}","name":"g"}}"#),
        );
        assert_eq!(resp.get("name").unwrap().as_str(), Some("g"));

        let q = r#"{"op":"mxm","dataset":"g","algo":"hash","phases":2,"reps":1}"#;
        let first = ok(&state, q);
        let second = ok(&state, q);
        assert_eq!(
            first.get("fingerprint"),
            second.get("fingerprint"),
            "identical requests must return identical results"
        );
        let pool = second.get("pool").unwrap();
        assert_eq!(pool.get("misses").unwrap().as_u64(), Some(0));
        assert_eq!(pool.get("warm").unwrap().as_bool(), Some(true));

        ok(&state, r#"{"op":"unload","name":"g"}"#);
        assert_eq!(err_code(&state, q), "unknown_dataset");
    }

    #[test]
    fn inner_reports_no_schedule_or_pool() {
        let (state, path) = state_with("inner_null", 90);
        ok(
            &state,
            &format!(r#"{{"op":"load","path":"{path}","name":"g"}}"#),
        );
        let resp = ok(&state, r#"{"op":"mxm","dataset":"g","algo":"inner"}"#);
        assert_eq!(
            resp.get("schedule"),
            Some(&Json::Null),
            "{}",
            resp.to_line()
        );
        assert_eq!(resp.get("pool"), Some(&Json::Null), "{}", resp.to_line());
    }

    #[test]
    fn error_codes_cover_the_protocol() {
        let (state, path) = state_with("errors", 60);
        assert_eq!(err_code(&state, "not json"), "bad_request");
        assert_eq!(err_code(&state, "[1,2]"), "bad_request");
        assert_eq!(err_code(&state, r#"{"op":"frobnicate"}"#), "unknown_op");
        assert_eq!(err_code(&state, r#"{"op":"mxm"}"#), "bad_request");
        assert_eq!(
            err_code(&state, r#"{"op":"mxm","dataset":"nope"}"#),
            "unknown_dataset"
        );
        assert_eq!(
            err_code(&state, r#"{"op":"load","path":"/no/such/file.mtx"}"#),
            "load_failed"
        );
        ok(&state, &format!(r#"{{"op":"load","path":"{path}"}}"#));
        assert_eq!(
            err_code(&state, &format!(r#"{{"op":"load","path":"{path}"}}"#)),
            "already_loaded"
        );
        // MCA × complement is a kernel-level rejection.
        assert_eq!(
            err_code(
                &state,
                r#"{"op":"mxm","dataset":"g","algo":"mca","mask":"complement"}"#
            ),
            "exec_failed"
        );
        // Unknown algo is a request-level rejection.
        assert_eq!(
            err_code(&state, r#"{"op":"mxm","dataset":"g","algo":"quantum"}"#),
            "bad_request"
        );
    }

    #[test]
    fn apps_run_and_reuse_the_pool() {
        let (state, path) = state_with("apps", 100);
        ok(
            &state,
            &format!(r#"{{"op":"load","path":"{path}","name":"g"}}"#),
        );
        let tc = ok(
            &state,
            r#"{"op":"app","dataset":"g","app":"tc","scheme":"hash-1p"}"#,
        );
        assert!(tc.get("triangles").unwrap().as_u64().is_some());
        let tc2 = ok(
            &state,
            r#"{"op":"app","dataset":"g","app":"tc","scheme":"hash-1p"}"#,
        );
        assert_eq!(tc.get("triangles"), tc2.get("triangles"));
        assert_eq!(
            tc2.get("pool").unwrap().get("misses").unwrap().as_u64(),
            Some(0),
            "second tc must be allocation-free"
        );
        let kt = ok(&state, r#"{"op":"app","dataset":"g","app":"ktruss","k":3}"#);
        assert!(kt.get("iterations").unwrap().as_u64().unwrap() >= 1);
        let bc = ok(
            &state,
            r#"{"op":"app","dataset":"g","app":"bc","batch":4,"scheme":"msa-1p"}"#,
        );
        assert_eq!(bc.get("batch").unwrap().as_u64(), Some(4));
        // BC × MCA is rejected before execution.
        assert_eq!(
            err_code(
                &state,
                r#"{"op":"app","dataset":"g","app":"bc","scheme":"mca-1p"}"#
            ),
            "exec_failed"
        );
        assert_eq!(
            err_code(&state, r#"{"op":"app","dataset":"g","app":"ktruss","k":2}"#),
            "bad_request"
        );
    }

    #[test]
    fn pattern_load_parity_and_accounting() {
        // A weighted graph: chained triangles (i, i+1, i+2) with non-unit
        // weights, so a pattern load genuinely discards something.
        let dir = std::env::temp_dir().join("mspgemm_serve_server_pattern_parity");
        std::fs::create_dir_all(&dir).unwrap();
        let n = 30usize;
        let mut body = String::from("%%MatrixMarket matrix coordinate real symmetric\n");
        body.push_str(&format!("{n} {n} {}\n", (n - 1) + (n - 2)));
        for i in 1..n {
            body.push_str(&format!("{} {} {}.5\n", i + 1, i, (i % 7) + 2));
        }
        for i in 1..n - 1 {
            body.push_str(&format!("{} {} 3.25\n", i + 2, i));
        }
        let mtx = dir.join("tri.mtx");
        std::fs::write(&mtx, body).unwrap();
        let path = mtx.to_str().unwrap();
        let state = ServerState::new(ServeConfig {
            cache: CachePolicy::Off,
            ..ServeConfig::default()
        });

        let v = ok(
            &state,
            &format!(r#"{{"op":"load","path":"{path}","name":"v"}}"#),
        );
        assert_eq!(v.get("pattern").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("unit_bytes").unwrap().as_u64(), Some(0));
        let p = ok(
            &state,
            &format!(r#"{{"op":"load","path":"{path}","name":"p","pattern":true}}"#),
        );
        assert_eq!(p.get("pattern").unwrap().as_bool(), Some(true));
        assert!(
            p.get("unit_bytes").unwrap().as_u64().unwrap() > 0,
            "pattern operands must report their arena-backed view bytes"
        );
        assert!(
            p.get("mem_bytes").unwrap().as_u64().unwrap()
                < v.get("mem_bytes").unwrap().as_u64().unwrap(),
            "dropping per-dataset value sections must shrink resident bytes: {} vs {}",
            p.to_line(),
            v.to_line()
        );

        // Structural applications must not notice the missing weights.
        for req in [
            r#"{"op":"app","dataset":"DS","app":"tc"}"#,
            r#"{"op":"app","dataset":"DS","app":"ktruss","k":3}"#,
        ] {
            let rv = ok(&state, &req.replace("DS", "v"));
            let rp = ok(&state, &req.replace("DS", "p"));
            assert_eq!(rv.get("triangles"), rp.get("triangles"), "{req}");
            assert_eq!(rv.get("edges_kept"), rp.get("edges_kept"), "{req}");
        }
        let tc = ok(&state, r#"{"op":"app","dataset":"p","app":"tc"}"#);
        assert_eq!(
            tc.get("triangles").unwrap().as_u64(),
            Some((n - 2) as u64),
            "chained-triangle graph has n-2 triangles"
        );
        // The mxm verb still runs against arena-backed values.
        ok(&state, r#"{"op":"mxm","dataset":"p","algo":"hash"}"#);

        // Disclosure: stats carries the per-dataset pattern flags and the
        // once-per-process arena bytes.
        let stats = ok(&state, r#"{"op":"stats"}"#);
        assert!(stats.get("unit_arena_bytes").unwrap().as_u64().unwrap() > 0);
        let rows = match stats.get("datasets").unwrap() {
            Json::Arr(rows) => rows,
            other => panic!("datasets must be an array, got {}", other.to_line()),
        };
        let by_name = |want: &str| {
            rows.iter()
                .find(|r| r.get("name").unwrap().as_str() == Some(want))
                .unwrap()
        };
        assert_eq!(by_name("v").get("pattern").unwrap().as_bool(), Some(false));
        assert_eq!(by_name("p").get("pattern").unwrap().as_bool(), Some(true));
        publish_gauges(&state);
        let snap = state.metrics.gauge("unit_arena_bytes", &[]).get();
        assert!(snap > 0.0, "unit_arena_bytes gauge must be published");
    }

    #[test]
    fn deadline_expired_before_admission_is_rejected() {
        let (state, path) = state_with("deadline_admission", 60);
        ok(
            &state,
            &format!(r#"{{"op":"load","path":"{path}","name":"g"}}"#),
        );
        // An arrival stamp far in the past: the 1 ms budget is long gone
        // by admission time, deterministically.
        let received = Instant::now()
            .checked_sub(Duration::from_secs(10))
            .expect("monotonic clock is past its first 10 seconds");
        let (resp, stop) = handle_request_at(
            &state,
            r#"{"op":"mxm","dataset":"g","deadline_ms":1}"#,
            received,
        );
        assert!(!stop);
        assert_eq!(
            resp.get("error").unwrap().get("code").unwrap().as_str(),
            Some("deadline_exceeded"),
            "{}",
            resp.to_line()
        );
        assert_eq!(
            state.metrics.counter("deadline_exceeded_total", &[]).get(),
            1
        );
        // Without a budget the same request runs fine.
        ok(&state, r#"{"op":"mxm","dataset":"g","deadline_ms":0}"#);
    }

    #[test]
    fn fused_batch_matches_single_requests_per_mask() {
        let (state, path) = state_with("fusion", 100);
        ok(
            &state,
            &format!(r#"{{"op":"load","path":"{path}","name":"g"}}"#),
        );
        // Reference fingerprints from plain (unfused) requests.
        let normal = ok(&state, r#"{"op":"mxm","dataset":"g","algo":"hash"}"#);
        let comp = ok(
            &state,
            r#"{"op":"mxm","dataset":"g","algo":"hash","mask":"complement"}"#,
        );
        assert_eq!(normal.get("fused").unwrap().as_bool(), Some(false));
        assert_eq!(normal.get("fused_group").unwrap().as_u64(), Some(1));

        // Hand-build a fused batch (two normal riders + one complement)
        // and run it exactly as an executor worker would.
        let mk = |line: &str| {
            let (tx, rx) = mpsc::channel();
            (
                Job {
                    verb: "mxm",
                    req: json::parse(line).unwrap(),
                    fuse_key: Some("k".to_string()),
                    dataset: Some("g".to_string()),
                    received: Instant::now(),
                    deadline: None,
                    reply: tx,
                },
                rx,
            )
        };
        let (j1, r1) = mk(r#"{"op":"mxm","dataset":"g","algo":"hash"}"#);
        let (j2, r2) = mk(r#"{"op":"mxm","dataset":"g","algo":"hash"}"#);
        let (j3, r3) = mk(r#"{"op":"mxm","dataset":"g","algo":"hash","mask":"complement"}"#);
        execute_batch(&state, vec![j1, j2, j3]);
        let a = r1.recv().unwrap();
        let b = r2.recv().unwrap();
        let c = r3.recv().unwrap();
        for resp in [&a, &b] {
            assert_eq!(
                resp.get("ok"),
                Some(&Json::Bool(true)),
                "{}",
                resp.to_line()
            );
            assert_eq!(resp.get("fused").unwrap().as_bool(), Some(true));
            assert_eq!(resp.get("fused_group").unwrap().as_u64(), Some(2));
            assert_eq!(resp.get("mask").unwrap().as_str(), Some("normal"));
            assert_eq!(
                resp.get("fingerprint"),
                normal.get("fingerprint"),
                "fused output must be bit-identical to the unfused one"
            );
        }
        assert_eq!(c.get("fused_group").unwrap().as_u64(), Some(1));
        assert_eq!(c.get("fingerprint"), comp.get("fingerprint"));
        assert_eq!(
            state.metrics.counter("fused_requests_total", &[]).get(),
            1,
            "two riders shared one pass: one kernel execution saved"
        );
    }

    #[test]
    fn stats_reports_the_scheduler_shape() {
        let (state, _) = state_with("sched_stats", 40);
        let stats = ok(&state, r#"{"op":"stats"}"#);
        let sched = stats.get("scheduler").unwrap();
        assert_eq!(sched.get("workers").unwrap().as_u64(), Some(2));
        assert_eq!(sched.get("queue_depth").unwrap().as_u64(), Some(64));
        assert_eq!(sched.get("queued").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn load_and_stats_report_backend_and_mapped_bytes() {
        // Heap-loaded text dataset: backend "heap", zero mapped bytes.
        let (state, path) = state_with("backend_heap", 60);
        let resp = ok(
            &state,
            &format!(r#"{{"op":"load","path":"{path}","name":"g"}}"#),
        );
        assert_eq!(resp.get("backend").unwrap().as_str(), Some("heap"));
        assert_eq!(resp.get("mapped_bytes").unwrap().as_u64(), Some(0));
        let stats = ok(&state, r#"{"op":"stats"}"#);
        let ds = &stats.get("datasets").unwrap().as_arr().unwrap()[0];
        assert_eq!(ds.get("backend").unwrap().as_str(), Some("heap"));
        assert_eq!(stats.get("total_mapped_bytes").unwrap().as_u64(), Some(0));

        // A v2 .msb loaded with "mmap": true comes back mapped (on
        // targets that support zero-copy; elsewhere it stays heap).
        let dir = std::env::temp_dir().join("mspgemm_serve_server_backend_mmap");
        std::fs::create_dir_all(&dir).unwrap();
        let msb = dir.join("m.msb");
        let g = mspgemm_gen::er_symmetric(60, 6, 3);
        let mut buf = Vec::new();
        mspgemm_io::msb::write_msb(&mut buf, &g).unwrap();
        std::fs::write(&msb, &buf).unwrap();
        let resp = ok(
            &state,
            &format!(
                r#"{{"op":"load","path":"{}","name":"m","mmap":true}}"#,
                msb.to_str().unwrap()
            ),
        );
        if cfg!(all(target_endian = "little", target_pointer_width = "64")) {
            assert_eq!(resp.get("backend").unwrap().as_str(), Some("mmap"));
            assert!(resp.get("mapped_bytes").unwrap().as_u64().unwrap() > 0);
            let stats = ok(&state, r#"{"op":"stats"}"#);
            assert!(stats.get("total_mapped_bytes").unwrap().as_u64().unwrap() > 0);
        }
        // Results off a mapped operand agree with the heap-loaded twin.
        let m1 = ok(&state, r#"{"op":"mxm","dataset":"m","algo":"hash"}"#);
        assert!(m1.get("fingerprint").unwrap().as_str().is_some());
        ok(&state, r#"{"op":"unload","name":"m"}"#);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Find the entry with the given name (and label subset) in a
    /// `metrics` response array.
    fn find_series<'a>(arr: &'a Json, name: &str, labels: &[(&str, &str)]) -> Option<&'a Json> {
        arr.as_arr().unwrap().iter().find(|e| {
            e.get("name").unwrap().as_str() == Some(name)
                && labels.iter().all(|(k, v)| {
                    e.get("labels").unwrap().get(k).and_then(Json::as_str) == Some(*v)
                })
        })
    }

    #[test]
    fn ping_reports_version_and_uptime() {
        let (state, _) = state_with("ping_fields", 40);
        let resp = ok(&state, r#"{"op":"ping"}"#);
        assert_eq!(
            resp.get("version").unwrap().as_str(),
            Some(env!("CARGO_PKG_VERSION"))
        );
        assert!(resp.get("uptime_s").unwrap().as_f64().unwrap() >= 0.0);
    }

    #[test]
    fn metrics_verb_counts_requests_and_serves_quantiles() {
        let (state, path) = state_with("metrics", 80);
        ok(&state, r#"{"op":"ping"}"#);
        ok(
            &state,
            &format!(r#"{{"op":"load","path":"{path}","name":"g"}}"#),
        );
        ok(&state, r#"{"op":"mxm","dataset":"g","algo":"hash"}"#);
        ok(&state, r#"{"op":"mxm","dataset":"g","algo":"hash"}"#);
        assert_eq!(err_code(&state, "not json"), "bad_request");

        // 5 requests so far; the metrics request records *after* its own
        // snapshot, so it reports exactly what was issued before it.
        let m = ok(&state, r#"{"op":"metrics"}"#);
        let counters = m.get("counters").unwrap();
        let total = find_series(counters, "requests_total", &[]).unwrap();
        assert_eq!(total.get("value").unwrap().as_u64(), Some(5));
        let mxm = find_series(counters, "requests_total", &[("verb", "mxm")]).unwrap();
        assert_eq!(mxm.get("value").unwrap().as_u64(), Some(2));
        let errors = find_series(counters, "errors_total", &[]).unwrap();
        assert_eq!(errors.get("value").unwrap().as_u64(), Some(1));
        let ingest = find_series(counters, "ingest_bytes_total", &[]).unwrap();
        assert!(ingest.get("value").unwrap().as_u64().unwrap() > 0);

        let hists = m.get("histograms").unwrap();
        let lat = find_series(hists, "request_latency_us", &[("verb", "mxm")]).unwrap();
        assert_eq!(lat.get("count").unwrap().as_u64(), Some(2));
        let p50 = lat.get("p50").unwrap().as_u64().unwrap();
        let p99 = lat.get("p99").unwrap().as_u64().unwrap();
        assert!(p50 <= p99, "quantiles must be monotone");
        assert!(
            find_series(hists, "queue_wait_us", &[("verb", "mxm")]).is_some(),
            "queue-wait series exists per verb"
        );
        assert!(
            find_series(hists, "dataset_request_latency_us", &[("dataset", "g")]).is_some(),
            "per-dataset latency series exists"
        );

        // Gauges mirror the pool and residency at snapshot time.
        let gauges = m.get("gauges").unwrap();
        let resident = find_series(gauges, "datasets_resident", &[]).unwrap();
        assert_eq!(resident.get("value").unwrap().as_f64(), Some(1.0));

        // Prometheus exposition of the same registry.
        let prom = ok(&state, r#"{"op":"metrics","format":"prometheus"}"#);
        let text = prom.get("text").unwrap().as_str().unwrap();
        assert!(text.contains("# TYPE requests_total counter"));
        assert!(
            text.contains("requests_total 6"),
            "json metrics request counted: {text}"
        );
        assert!(text.contains("request_latency_us_bucket"));
        assert!(text.contains("# TYPE ws_pool_hits gauge"));

        assert_eq!(
            err_code(&state, r#"{"op":"metrics","format":"xml"}"#),
            "bad_request"
        );
    }

    #[test]
    fn stats_reports_totals_and_latency_quantiles() {
        let (state, path) = state_with("stats_latency", 70);
        ok(
            &state,
            &format!(r#"{{"op":"load","path":"{path}","name":"g"}}"#),
        );
        ok(&state, r#"{"op":"mxm","dataset":"g","algo":"msa"}"#);
        err_code(&state, r#"{"op":"mxm","dataset":"nope"}"#);
        let stats = ok(&state, r#"{"op":"stats"}"#);
        assert_eq!(stats.get("requests_total").unwrap().as_u64(), Some(3));
        assert_eq!(stats.get("errors_total").unwrap().as_u64(), Some(1));
        let lat = stats.get("latency").unwrap();
        assert_eq!(lat.get("count").unwrap().as_u64(), Some(3));
        let p50 = lat.get("p50").unwrap().as_f64().unwrap();
        let p99 = lat.get("p99").unwrap().as_f64().unwrap();
        assert!(p50 >= 0.0 && p50 <= p99, "seconds, monotone: {p50} {p99}");
    }

    #[test]
    fn memory_budget_evicts_lru_and_answers_typed_errors() {
        // Probe the per-dataset footprint with an unlimited server.
        let (probe, path) = state_with("budget_probe", 120);
        let resp = ok(
            &probe,
            &format!(r#"{{"op":"load","path":"{path}","name":"p"}}"#),
        );
        let one = resp.get("mem_bytes").unwrap().as_u64().unwrap();
        assert_eq!(resp.get("pinned").unwrap().as_bool(), Some(false));
        assert_eq!(resp.get("evicted").unwrap().as_arr().unwrap().len(), 0);
        drop(probe);

        // A budget that fits two of these datasets but not three.
        let state = ServerState::new(ServeConfig {
            cache: CachePolicy::Off,
            max_resident_bytes: 2 * one + one / 2,
            ..ServeConfig::default()
        });
        for name in ["a", "b"] {
            ok(
                &state,
                &format!(r#"{{"op":"load","path":"{path}","name":"{name}"}}"#),
            );
        }
        // Touch "a" so "b" is the least-recently-used victim.
        ok(&state, r#"{"op":"mxm","dataset":"a","algo":"hash"}"#);
        let resp = ok(
            &state,
            &format!(r#"{{"op":"load","path":"{path}","name":"c"}}"#),
        );
        let evicted = resp.get("evicted").unwrap().as_arr().unwrap();
        assert_eq!(evicted.len(), 1, "{}", resp.to_line());
        assert_eq!(evicted[0].as_str(), Some("b"));
        assert_eq!(state.metrics.counter("evictions_total", &[]).get(), 1);
        // The evicted dataset answers its typed error, not
        // unknown_dataset; the survivors still serve.
        assert_eq!(err_code(&state, r#"{"op":"mxm","dataset":"b"}"#), "evicted");
        ok(&state, r#"{"op":"mxm","dataset":"a","algo":"hash"}"#);
        // The gauge stays under budget after a scrape refresh.
        publish_gauges(&state);
        let resident = state.metrics.gauge("resident_bytes", &[]).get();
        assert!(resident <= (2 * one + one / 2) as f64, "{resident}");

        // A budget nothing fits: typed over_budget, nothing loaded.
        let tiny = ServerState::new(ServeConfig {
            cache: CachePolicy::Off,
            max_resident_bytes: one / 2,
            ..ServeConfig::default()
        });
        assert_eq!(
            err_code(
                &tiny,
                &format!(r#"{{"op":"load","path":"{path}","name":"x"}}"#)
            ),
            "over_budget"
        );
        assert!(tiny.registry.is_empty());

        // Pinned datasets are never evicted: a pinned load filling the
        // budget forces over_budget on the next one.
        let pinned = ServerState::new(ServeConfig {
            cache: CachePolicy::Off,
            max_resident_bytes: one + one / 2,
            ..ServeConfig::default()
        });
        let resp = ok(
            &pinned,
            &format!(r#"{{"op":"load","path":"{path}","name":"keep","pin":true}}"#),
        );
        assert_eq!(resp.get("pinned").unwrap().as_bool(), Some(true));
        assert_eq!(
            err_code(
                &pinned,
                &format!(r#"{{"op":"load","path":"{path}","name":"y"}}"#)
            ),
            "over_budget"
        );
        ok(&pinned, r#"{"op":"mxm","dataset":"keep","algo":"hash"}"#);
    }

    #[test]
    fn quarantine_flows_through_the_protocol() {
        let (state, path) = state_with("quarantine", 100);
        ok(
            &state,
            &format!(r#"{{"op":"load","path":"{path}","name":"g"}}"#),
        );
        // Two attributed panics: below the default threshold of 3.
        state.registry.note_panic("g");
        state.registry.note_panic("g");
        ok(&state, r#"{"op":"mxm","dataset":"g","algo":"hash"}"#);
        // The third flips quarantine; requests get the typed error.
        assert!(state.registry.note_panic("g").newly_quarantined);
        assert_eq!(
            err_code(&state, r#"{"op":"mxm","dataset":"g"}"#),
            "quarantined"
        );
        let list = ok(&state, r#"{"op":"list"}"#);
        let entry = &list.get("datasets").unwrap().as_arr().unwrap()[0];
        assert_eq!(entry.get("quarantined").unwrap().as_bool(), Some(true));
        assert_eq!(entry.get("panics").unwrap().as_u64(), Some(3));
        // unload + load is the operator's reset lever.
        ok(&state, r#"{"op":"unload","name":"g"}"#);
        ok(
            &state,
            &format!(r#"{{"op":"load","path":"{path}","name":"g"}}"#),
        );
        ok(&state, r#"{"op":"mxm","dataset":"g","algo":"hash"}"#);
    }

    #[test]
    fn stats_reports_failpoints_and_budget() {
        let _fp = crate::failpoint_lock();
        let (state, _) = state_with("stats_fail", 40);
        let stats = ok(&state, r#"{"op":"stats"}"#);
        // No failpoint is armed while the lock is held (the registry's
        // race test arms one under it); the field must still exist, empty.
        assert_eq!(
            stats.get("failpoints").unwrap().as_arr().unwrap().len(),
            0,
            "{}",
            stats.to_line()
        );
        assert_eq!(stats.get("max_resident_bytes").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn oversized_line_drain_is_bounded() {
        let (state, _) = state_with("drain_cap", 40);
        // A line far past the drain cap, no newline anywhere: the
        // connection must answer payload_too_large and close without
        // consuming the stream forever.
        let big = vec![b'x'; DRAIN_CAP_BYTES + MAX_REQUEST_BYTES];
        let mut out = Vec::new();
        serve_connection(&state, BufReader::new(&big[..]), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("payload_too_large"), "{text}");
        assert_eq!(text.lines().count(), 1, "one response, then close");
    }

    /// A `Write` that keeps every `write` call it receives.
    #[derive(Default)]
    struct WriteLog(Vec<Vec<u8>>);

    impl Write for WriteLog {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_response_frame_is_one_write() {
        // A frame split over two writes lets Nagle wait on the peer's
        // delayed ACK: each response must reach the socket as one write
        // of the JSON line plus its newline.
        let (state, path) = state_with("one_write", 40);
        let input = [
            r#"{"op":"ping"}"#.to_string(),
            format!(r#"{{"op":"load","path":"{path}","name":"g"}}"#),
            r#"{"op":"mxm","dataset":"g","algo":"msa"}"#.to_string(),
            "not json".to_string(),
            r#"{"op":"app","dataset":"g","app":"tc"}"#.to_string(),
            r#"{"op":"stats"}"#.to_string(),
        ]
        .join("\n");
        let mut log = WriteLog::default();
        serve_connection(&state, BufReader::new(input.as_bytes()), &mut log).unwrap();
        assert_eq!(log.0.len(), 6, "one write per response");
        for w in &log.0 {
            assert_eq!(w.last(), Some(&b'\n'), "a write ends its frame");
            assert_eq!(w.iter().filter(|&&b| b == b'\n').count(), 1);
            json::parse(std::str::from_utf8(&w[..w.len() - 1]).unwrap()).unwrap();
        }
        // The oversized-payload error path writes one frame too.
        let mut big = b"{\"op\":\"ping\"}\n".to_vec();
        big.extend(vec![b'x'; MAX_REQUEST_BYTES + 1]);
        let mut log = WriteLog::default();
        serve_connection(&state, BufReader::new(&big[..]), &mut log).unwrap();
        assert_eq!(log.0.len(), 2);
        let last = String::from_utf8(log.0[1].clone()).unwrap();
        assert!(
            last.contains("payload_too_large") && last.ends_with('\n'),
            "{last}"
        );
        assert_eq!(last.matches('\n').count(), 1);
    }

    /// Whether two matrices share every section (an alias, not a copy).
    fn aliases(a: &Csr<f64>, b: &Csr<f64>) -> bool {
        a.rowptr().as_ptr() == b.rowptr().as_ptr()
            && a.colidx().as_ptr() == b.colidx().as_ptr()
            && a.values().as_ptr() == b.values().as_ptr()
    }

    /// Write `m` as `.msb` (mapped on load) or `.mtx` (heap-parsed).
    fn write_input(dir: &std::path::Path, name: &str, m: &Csr<f64>, mmap: bool) -> String {
        let path = if mmap {
            let p = dir.join(format!("{name}.msb"));
            let mut buf = Vec::new();
            mspgemm_io::msb::write_msb(&mut buf, m).unwrap();
            std::fs::write(&p, &buf).unwrap();
            p
        } else {
            let p = dir.join(format!("{name}.mtx"));
            mspgemm_io::mtx::write_mtx_file(&p, m).unwrap();
            p
        };
        path.to_str().unwrap().to_string()
    }

    #[test]
    fn symmetric_unit_datasets_hold_their_matrix_once() {
        let mapped = cfg!(all(target_endian = "little", target_pointer_width = "64"));
        for mmap in [false, true] {
            let dir = std::env::temp_dir().join(format!("mspgemm_serve_server_alias_once_{mmap}"));
            std::fs::create_dir_all(&dir).unwrap();
            let g = mspgemm_gen::er_symmetric(90, 6, 5);
            let path = write_input(&dir, "g", &g, mmap);
            let state = ServerState::new(ServeConfig {
                cache: CachePolicy::Off,
                ..ServeConfig::default()
            });
            ok(
                &state,
                &format!(r#"{{"op":"load","path":"{path}","name":"g","mmap":{mmap}}}"#),
            );
            let ds = state.registry.get("g").unwrap();
            assert!(aliases(&ds.matrix, &ds.matrix_t), "mmap={mmap}");
            assert!(aliases(&ds.matrix, &ds.adj), "mmap={mmap}");
            assert_eq!(ds.mask.colidx().as_ptr(), ds.matrix.colidx().as_ptr());
            assert_eq!(ds.adj_stats, mspgemm_io::AdjacencyStats::default());
            // Before any `app tc`, the dataset costs exactly its matrix.
            let bytes = crate::registry::csr_mem_bytes(&ds.matrix);
            assert_eq!(ds.mem_bytes(), bytes, "mmap={mmap}");
            assert_eq!(ds.unit_bytes(), 0);
            let want_mapped = if mmap && mapped { bytes } else { 0 };
            assert_eq!(ds.mapped_bytes(), want_mapped, "mmap={mmap}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn asymmetric_update_unaliases_and_matches_a_fresh_load() {
        let _fp = crate::failpoint_lock();
        for mmap in [false, true] {
            let dir = std::env::temp_dir().join(format!("mspgemm_serve_server_unalias_{mmap}"));
            std::fs::create_dir_all(&dir).unwrap();
            let n = 90usize;
            let g = mspgemm_gen::er_symmetric(n, 6, 5);
            let path = write_input(&dir, "g", &g, mmap);
            let state = ServerState::new(ServeConfig {
                cache: CachePolicy::Off,
                ..ServeConfig::default()
            });
            let load = |name: &str, path: &str| {
                ok(
                    &state,
                    &format!(r#"{{"op":"load","path":"{path}","name":"{name}","mmap":{mmap}}}"#),
                );
            };
            load("g", &path);
            assert!(aliases(
                &state.registry.get("g").unwrap().matrix,
                &state.registry.get("g").unwrap().matrix_t
            ));
            // Cache triangle counts, so the post-update count is patched.
            ok(&state, r#"{"op":"app","dataset":"g","app":"tc"}"#);

            // Insert one direction of an absent edge: no longer symmetric.
            let (i, j) = (1..n)
                .map(|j| (0usize, j))
                .find(|&(i, j)| g.get(i, j as Idx).is_none())
                .unwrap();
            ok(
                &state,
                &format!(r#"{{"op":"update","dataset":"g","insert":[[{i},{j},1.0]]}}"#),
            );
            let live = state.registry.get("g").unwrap();
            assert!(!aliases(&live.matrix, &live.matrix_t), "mmap={mmap}");
            assert!(!aliases(&live.matrix, &live.adj), "mmap={mmap}");
            assert_eq!(live.matrix_t, mspgemm_sparse::transpose(&live.matrix));
            assert_eq!(live.adj, mspgemm_io::to_adjacency(&live.matrix).0);
            assert_eq!(live.adj_stats.entries_mirrored, 1);
            assert_eq!(live.mapped_bytes(), 0, "updates are heap-owned");

            // A fresh load of the same edge set answers identically.
            let mut coo = mspgemm_sparse::Coo::new(n, n);
            for (r, c, &v) in g.iter() {
                coo.push(r as Idx, c, v);
            }
            coo.push(i as Idx, j as Idx, 1.0);
            let fresh = coo.to_csr(|a, _| a);
            assert_eq!(fresh, live.matrix);
            load("f", &write_input(&dir, "f", &fresh, mmap));
            for algo in ["inner", "hash", "msa"] {
                for mask in ["normal", "complement"] {
                    for phases in ["1", "2"] {
                        let q = format!(
                            r#"{{"op":"mxm","dataset":"DS","algo":"{algo}","mask":"{mask}","phases":{phases}}}"#
                        );
                        let a = ok(&state, &q.replace("DS", "g"));
                        let b = ok(&state, &q.replace("DS", "f"));
                        assert_eq!(a.get("fingerprint"), b.get("fingerprint"), "{q}");
                        assert_eq!(a.get("nnz"), b.get("nnz"), "{q}");
                    }
                }
            }
            let tc = ok(&state, r#"{"op":"app","dataset":"g","app":"tc"}"#);
            assert_eq!(tc.get("incremental").unwrap().as_bool(), Some(true));
            for (q, fields) in [
                (
                    r#"{"op":"app","dataset":"DS","app":"tc"}"#,
                    &["triangles"][..],
                ),
                (
                    r#"{"op":"app","dataset":"DS","app":"ktruss","k":3}"#,
                    &["edges", "iterations"][..],
                ),
                (
                    r#"{"op":"app","dataset":"DS","app":"bc","batch":8,"scheme":"msa-1p"}"#,
                    &["scores_sum", "depth"][..],
                ),
            ] {
                let a = ok(&state, &q.replace("DS", "g"));
                let b = ok(&state, &q.replace("DS", "f"));
                for &f in fields {
                    assert!(a.get(f).is_some(), "{q}: no {f}");
                    assert_eq!(a.get(f), b.get(f), "{q}: {f}");
                }
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn stats_and_shutdown_flow() {
        let (state, path) = state_with("stats", 80);
        ok(
            &state,
            &format!(r#"{{"op":"load","path":"{path}","name":"g"}}"#),
        );
        ok(&state, r#"{"op":"mxm","dataset":"g","algo":"msa"}"#);
        let stats = ok(&state, r#"{"op":"stats"}"#);
        assert!(stats.get("requests").unwrap().as_u64().unwrap() >= 2);
        assert!(stats.get("total_mem_bytes").unwrap().as_u64().unwrap() > 0);
        assert!(stats.get("pool").unwrap().get("hit_rate").is_some());

        let (resp, stop) = handle_request(&state, r#"{"op":"shutdown"}"#);
        assert!(stop);
        assert_eq!(resp.get("stopping").unwrap().as_bool(), Some(true));
        state.begin_shutdown();
        let (resp, stop) = handle_request(&state, r#"{"op":"ping"}"#);
        assert!(!stop);
        assert_eq!(
            resp.get("error").unwrap().get("code").unwrap().as_str(),
            Some("shutting_down")
        );
    }
}
