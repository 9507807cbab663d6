//! `serve-mix`: a real `mxm serve` process under a closed-loop request
//! mix over TCP loopback.
//!
//! Each connection cycles `ping`, `mxm` (MSA, one phase, plain mask),
//! `app tc`, an `update` inserting two edges it owns, and an `update`
//! deleting them again. The edges join pairs of degree-zero vertices, so
//! no insert can change the triangle count or the `mxm` fingerprint and
//! every answer is checked against the library's value on the generated
//! graph.

use crate::report::{Outcome, VERBS};
use crate::spans::{Spans, UNATTRIBUTED_TOL};
use crate::util::{median, quantile, splitmix, vm_hwm_mb};
use crate::{Ctx, THREADS};
use masked_spgemm::{masked_mxm, Algorithm, MaskMode, Phases};
use mspgemm_gen::rmat::{rmat_symmetric, RmatParams};
use mspgemm_graph::tricount::{count_prepared, prepare};
use mspgemm_graph::Scheme;
use mspgemm_harness::csr_fingerprint;
use mspgemm_harness::threads::with_threads;
use mspgemm_io::save_matrix;
use mspgemm_obs::hist::Histogram;
use mspgemm_serve::client::busy_retry_after;
use mspgemm_serve::{Client, Json};
use mspgemm_sparse::semiring::PlusTimesF64;
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// R-MAT scale of the served graph (2,048 vertices).
const SERVE_SCALE: u32 = 11;
/// Closed-loop connections, each with its own `Client`.
const CONNECTIONS: usize = 2;
/// Server admission: executor slots (`mxm serve --max-inflight`).
const MAX_INFLIGHT: usize = 2;
/// Server spawns before and again after the request loop; `setup_s` is
/// the median of all of them, so one noisy moment cannot set it.
const SETUP_REPS: usize = 5;
/// Cycles per connection measured at least.
const MIN_CYCLES: usize = 20;
/// A request slower than this counts as failed (timeout).
const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);
/// Relative resolution of the server's log histograms (8 linear
/// sub-buckets per octave): a server quantile may read this much high.
const HIST_RESOLUTION: f64 = 0.125;
/// The served dataset's registry name (the input file stem).
const DATASET: &str = "graph";

/// One request of the cycle: `(op, verb it is reported under, span name)`.
type Step = (&'static str, &'static str, &'static str);

/// The request cycle; `tc` is sent as `app`, both updates as `update`.
const CYCLE: [Step; 5] = [
    ("ping", "ping", "serve.client.ping"),
    ("mxm", "mxm", "serve.client.mxm"),
    ("tc", "tc", "serve.client.tc"),
    ("insert", "update", "serve.client.update-insert"),
    ("delete", "update", "serve.client.update-delete"),
];

/// The cycle in a seeded per-(connection, cycle) order, insert before
/// delete. A fixed order lets the two closed loops lock into one phase
/// (which heavy request overlaps which) for a whole run, and which phase
/// they lock into differs from run to run; shuffling averages over all.
fn cycle_order(seed: u64, conn: usize, cycle: u64) -> [Step; 5] {
    let mut order = CYCLE;
    let mut state = seed ^ ((conn as u64) << 48) ^ cycle;
    for i in (1..order.len()).rev() {
        state = splitmix(state);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    let pos = |op| order.iter().position(|o| o.0 == op).expect("in cycle");
    let (ins, del) = (pos("insert"), pos("delete"));
    if del < ins {
        order.swap(ins, del);
    }
    order
}

/// A running `mxm serve` child. Dropping it kills a server that did not
/// shut down cleanly, and always reaps it.
struct ServerProc {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl ServerProc {
    /// Spawn, wait for preload and `listening on`, answer one `ping`.
    /// Returns the server, a connected client, and the set-up time.
    fn spawn(mxm: &Path, input: &Path) -> Result<(ServerProc, Client, f64), String> {
        let t0 = Instant::now();
        let mut child = Command::new(mxm)
            .args(["serve", "--listen", "127.0.0.1:0", "--max-inflight"])
            .arg(MAX_INFLIGHT.to_string())
            .arg("--no-cache")
            .arg(input)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", mxm.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped"));
        let addr = match listening_addr(&mut stdout) {
            Ok(addr) => addr,
            Err(e) => {
                child.kill().ok();
                child.wait().ok();
                return Err(e);
            }
        };
        let proc = ServerProc {
            child,
            _stdout: stdout,
            addr,
        };
        let mut client = Client::connect(&proc.addr)?;
        let pong = client.request(&Json::obj(vec![("op", Json::str("ping"))]))?;
        if pong.get("pong").and_then(Json::as_bool) != Some(true) {
            return Err(format!("bad ping answer: {}", pong.to_line()));
        }
        Ok((proc, client, t0.elapsed().as_secs_f64()))
    }

    /// Stop with the `shutdown` verb and wait for the process to exit.
    fn shutdown(mut self, client: &mut Client) -> Result<(), String> {
        client.request(&Json::obj(vec![("op", Json::str("shutdown"))]))?;
        let until = Instant::now() + Duration::from_secs(30);
        while Instant::now() < until {
            if self.child.try_wait().map_err(|e| e.to_string())?.is_some() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("mxm serve did not exit after shutdown".into())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.child.kill().ok();
        }
        self.child.wait().ok();
    }
}

/// One set-up sample: spawn a server until it answers, then stop it.
fn spawn_and_stop(mxm: &Path, input: &Path) -> Result<f64, String> {
    let (proc, mut client, secs) = ServerProc::spawn(mxm, input)?;
    proc.shutdown(&mut client)?;
    Ok(secs)
}

/// Read the server's stdout up to its `listening on ADDR` line.
fn listening_addr(stdout: &mut impl BufRead) -> Result<String, String> {
    let mut line = String::new();
    loop {
        line.clear();
        if stdout.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            return Err("mxm serve exited before listening".into());
        }
        if let Some(addr) = line.trim().strip_prefix("listening on ") {
            return Ok(addr.to_string());
        }
    }
}

/// What every answer must equal.
struct Expected {
    triangles: u64,
    fingerprint: String,
    nnz: u64,
}

/// One request as the client saw it.
struct Sample {
    verb: &'static str,
    secs: f64,
    ok: bool,
    busy: bool,
    wrong: Option<String>,
    resp: Option<Json>,
}

fn request_for(op: &str, edges: &[(usize, usize)]) -> Json {
    // Both directions of each edge: the matrix stays symmetric.
    let pairs = || {
        let entry = |i: usize, j: usize| Json::Arr(vec![(i as u64).into(), (j as u64).into()]);
        Json::Arr(
            edges
                .iter()
                .flat_map(|&(u, v)| [entry(u, v), entry(v, u)])
                .collect(),
        )
    };
    let ds = ("dataset", Json::str(DATASET));
    match op {
        "ping" => Json::obj(vec![("op", Json::str("ping"))]),
        "mxm" => Json::obj(vec![
            ("op", Json::str("mxm")),
            ds,
            ("algo", Json::str("msa")),
            ("phases", Json::str("1")),
            ("mask", Json::str("normal")),
        ]),
        "tc" => Json::obj(vec![("op", Json::str("app")), ds, ("app", Json::str("tc"))]),
        "insert" => Json::obj(vec![("op", Json::str("update")), ds, ("insert", pairs())]),
        _ => Json::obj(vec![("op", Json::str("update")), ds, ("delete", pairs())]),
    }
}

/// Check one response; `Some(reason)` for a wrong answer.
fn check(op: &str, resp: &Json, want: &Expected, applied: u64) -> Option<String> {
    let num = |k: &str| resp.get(k).and_then(Json::as_u64);
    match op {
        "ping" => (resp.get("pong").and_then(Json::as_bool) != Some(true))
            .then(|| "ping without pong".to_string()),
        "mxm" => {
            let fp = resp.get("fingerprint").and_then(Json::as_str).unwrap_or("");
            (fp != want.fingerprint || num("nnz") != Some(want.nnz)).then(|| {
                format!(
                    "mxm fingerprint {fp} nnz {:?}, library {} nnz {}",
                    num("nnz"),
                    want.fingerprint,
                    want.nnz
                )
            })
        }
        "tc" => (num("triangles") != Some(want.triangles)).then(|| {
            format!(
                "tc {:?} triangles, library {}",
                num("triangles"),
                want.triangles
            )
        }),
        _ => (num("applied") != Some(applied))
            .then(|| format!("{op} applied {:?} of {applied} ops", num("applied"))),
    }
}

/// What one connection measured: per-cycle `(seconds, traced)` and every
/// request.
struct ConnRun {
    cycles: Vec<(f64, bool)>,
    samples: Vec<Sample>,
}

/// One closed-loop connection and the edges it owns.
struct Conn<'a> {
    seed: u64,
    id: usize,
    client: Client,
    edges: Vec<(usize, usize)>,
    want: &'a Expected,
    spans: &'a Spans,
}

impl Conn<'_> {
    /// Send one cycle, appending its requests to `out`. `None` when the
    /// connection was lost.
    fn cycle(&mut self, n: u64, traced: bool, out: &mut Vec<Sample>) -> Option<f64> {
        let cycle_id = if traced { self.spans.reserve() } else { 0 };
        let req_base = (self.id as u64) << 32 | n << 3;
        let applied = 2 * self.edges.len() as u64;
        let t_cycle = Instant::now();
        for (k, (op, verb, span)) in cycle_order(self.seed, self.id, n).into_iter().enumerate() {
            let t = Instant::now();
            let resp = self.client.request(&request_for(op, &self.edges));
            let d = t.elapsed();
            if traced {
                self.spans.record(span, cycle_id, req_base | k as u64, t, d);
            }
            let resp = match resp {
                Ok(resp) => resp,
                Err(e) => {
                    eprintln!("perfbench: connection {}: {op}: {e}", self.id);
                    out.push(Sample {
                        verb,
                        secs: d.as_secs_f64(),
                        ok: false,
                        busy: false,
                        wrong: None,
                        resp: None,
                    });
                    return None;
                }
            };
            let ok = resp.get("ok").and_then(Json::as_bool) == Some(true);
            let wrong = ok.then(|| check(op, &resp, self.want, applied)).flatten();
            out.push(Sample {
                verb,
                secs: d.as_secs_f64(),
                ok: ok && wrong.is_none() && d <= REQUEST_TIMEOUT,
                busy: busy_retry_after(&resp).is_some(),
                wrong,
                resp: Some(resp),
            });
        }
        let d = t_cycle.elapsed();
        if traced {
            self.spans
                .record_as(cycle_id, "cycle", 0, req_base, t_cycle, d);
        }
        Some(d.as_secs_f64())
    }

    /// A warm-up cycle, then measured cycles until `seconds` have passed
    /// (and at least `MIN_CYCLES`). The barrier is passed twice between
    /// the two, while the parent snapshots the server's metrics.
    fn run(mut self, seconds: f64, barrier: &Barrier) -> Result<ConnRun, String> {
        let mut warm = Vec::new();
        let warm_ok = self.cycle(0, false, &mut warm).is_some();
        barrier.wait();
        barrier.wait();
        if let Some(bad) = warm.iter().find(|s| !s.ok) {
            return Err(format!(
                "connection {}: warm-up {} failed: {}",
                self.id,
                bad.verb,
                bad.wrong
                    .clone()
                    .or_else(|| bad.resp.as_ref().map(Json::to_line))
                    .unwrap_or_default()
            ));
        }
        if !warm_ok {
            return Err(format!("connection {}: lost during warm-up", self.id));
        }
        let mut run = ConnRun {
            cycles: Vec::new(),
            samples: Vec::new(),
        };
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut n = 1u64;
        while run.cycles.len() < MIN_CYCLES || Instant::now() < deadline {
            // Traced runs alternate traced and untraced cycles.
            let traced = self.spans.enabled() && n % 2 == 1;
            match self.cycle(n, traced, &mut run.samples) {
                Some(d) => run.cycles.push((d, traced)),
                None => break,
            }
            n += 1;
        }
        Ok(run)
    }
}

/// The server's histogram for `name{verb}` in a `metrics` snapshot, as
/// `le → count`, plus its exact sum.
fn hist(snapshot: &Json, name: &str, verb: Option<&str>) -> (HashMap<u64, u64>, u64) {
    let mut out = HashMap::new();
    let mut sum = 0;
    for h in snapshot
        .get("histograms")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
    {
        if h.get("name").and_then(Json::as_str) != Some(name) {
            continue;
        }
        let label = h
            .get("labels")
            .and_then(|l| l.get("verb"))
            .and_then(Json::as_str);
        if label != verb {
            continue;
        }
        sum = h.get("sum").and_then(Json::as_u64).unwrap_or(0);
        for b in h.get("buckets").and_then(Json::as_arr).unwrap_or(&[]) {
            let le = b.get("le").and_then(Json::as_u64).unwrap_or(0);
            *out.entry(le).or_default() += b.get("count").and_then(Json::as_u64).unwrap_or(0);
        }
    }
    (out, sum)
}

/// The window between two snapshots of the histograms `name{verb}` for
/// each of `verbs` (`None` = the unlabeled series), merged into a fresh
/// histogram (bucket upper bounds re-recorded), and their summed µs.
fn hist_window(
    before: &Json,
    after: &Json,
    name: &str,
    verbs: &[Option<&str>],
) -> (Histogram, u64) {
    let h = Histogram::new();
    let mut sum = 0;
    for &verb in verbs {
        let (b, sb) = hist(before, name, verb);
        let (a, sa) = hist(after, name, verb);
        sum += sa - sb;
        for (le, n) in a {
            for _ in 0..n - b.get(&le).copied().unwrap_or(0) {
                h.record(le);
            }
        }
    }
    (h, sum)
}

/// An unlabeled counter's value in a `metrics` snapshot.
fn counter(snapshot: &Json, name: &str) -> u64 {
    snapshot
        .get("counters")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|c| c.get("name").and_then(Json::as_str) == Some(name))
        .filter(|c| matches!(c.get("labels"), Some(Json::Obj(l)) if l.is_empty()))
        .filter_map(|c| c.get("value").and_then(Json::as_u64))
        .next()
        .unwrap_or(0)
}

fn ask(client: &mut Client, op: &str) -> Result<Json, String> {
    mspgemm_serve::client::expect_ok(client.request(&Json::obj(vec![("op", Json::str(op))]))?)
}

/// The measured window of the closed loop, with the server's metrics
/// and stats snapshots on both sides of it.
struct Window {
    before: Json,
    after: Json,
    stats_before: Json,
    stats_after: Json,
    cycles: Vec<(f64, bool)>,
    samples: Vec<Sample>,
    secs: f64,
}

impl Window {
    /// Measured, successful requests of one verb.
    fn ok(&self, verb: &'static str) -> impl Iterator<Item = &Sample> + '_ {
        self.samples.iter().filter(move |s| s.ok && s.verb == verb)
    }
}

/// A response field of a sample as a number.
fn field(s: &Sample, key: &str) -> Option<f64> {
    s.resp
        .as_ref()
        .and_then(|r| r.get(key))
        .and_then(Json::as_f64)
}

/// Generate the graph, write it, compute what every answer must equal.
fn prepare_input(ctx: &Ctx) -> Result<(std::path::PathBuf, Expected, Vec<usize>, u64), String> {
    let adj = with_threads(THREADS, || {
        rmat_symmetric(SERVE_SCALE, RmatParams::default(), ctx.seed)
    });
    let input = ctx.work.join(format!("{DATASET}.mtx"));
    save_matrix(&input, &adj).map_err(|e| format!("{}: {e}", input.display()))?;
    let want = with_threads(THREADS, || {
        let c = masked_mxm::<PlusTimesF64, ()>(
            &adj.pattern(),
            &adj,
            &adj,
            Algorithm::Msa,
            MaskMode::Mask,
            Phases::One,
        )
        .expect("reference mxm");
        Expected {
            triangles: count_prepared(&prepare(&adj), Scheme::SsSaxpy).triangles,
            fingerprint: format!("{:016x}", csr_fingerprint(&c)),
            nnz: c.nnz() as u64,
        }
    });
    let isolated: Vec<usize> = (0..adj.nrows()).filter(|&v| adj.row_nnz(v) == 0).collect();
    if isolated.len() < 4 * CONNECTIONS {
        return Err(format!(
            "seed {} leaves {} degree-zero vertices; the update edges need {}",
            ctx.seed,
            isolated.len(),
            4 * CONNECTIONS
        ));
    }
    Ok((input, want, isolated, adj.nnz() as u64))
}

/// Run the closed loop against a started server.
fn closed_loop(
    ctx: &Ctx,
    proc: &ServerProc,
    control: &mut Client,
    isolated: &[usize],
    want: &Expected,
    spans: &Spans,
) -> Result<Window, String> {
    // Connect before spawning, so a refused connection cannot strand the
    // other threads at the barrier.
    let conns = (0..CONNECTIONS)
        .map(|c| {
            Ok(Conn {
                seed: ctx.seed,
                id: c,
                client: Client::connect(&proc.addr)?,
                edges: vec![
                    (isolated[4 * c], isolated[4 * c + 1]),
                    (isolated[4 * c + 2], isolated[4 * c + 3]),
                ],
                want,
                spans,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let barrier = Barrier::new(CONNECTIONS + 1);
    let (before, stats_before, runs, secs) = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .map(|conn| {
                let barrier = &barrier;
                s.spawn(move || conn.run(ctx.seconds, barrier))
            })
            .collect();
        barrier.wait();
        let before = ask(control, "metrics");
        let stats_before = ask(control, "stats");
        barrier.wait();
        let t0 = Instant::now();
        let runs: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("connection thread"))
            .collect();
        (before, stats_before, runs, t0.elapsed().as_secs_f64())
    });
    let mut w = Window {
        before: before?,
        after: ask(control, "metrics")?,
        stats_before: stats_before?,
        stats_after: ask(control, "stats")?,
        cycles: Vec::new(),
        samples: Vec::new(),
        secs,
    };
    for run in runs {
        let run = run?;
        w.cycles.extend(run.cycles);
        w.samples.extend(run.samples);
    }
    Ok(w)
}

pub fn drive(ctx: &Ctx) -> Result<Outcome, String> {
    // Input and reference answers, in this process, before any server.
    let (input, want, isolated, nnz) = prepare_input(ctx)?;
    let mut o = Outcome::new(ctx.trace);
    o.config = vec![
        ("scale", u64::from(SERVE_SCALE).into()),
        (
            "rmat",
            Json::str("a=0.57 b=0.19 c=0.19 edge_factor=16, symmetrized"),
        ),
        ("nnz", nnz.into()),
        ("degree_zero_vertices", (isolated.len() as u64).into()),
        ("connections", (CONNECTIONS as u64).into()),
        ("loop", Json::str("closed")),
        (
            "cycle",
            Json::str(
                "ping, mxm msa-1p plain, app tc, update +2 edges, update -2 edges; \
                 seeded order per cycle, insert before delete",
            ),
        ),
        (
            "server_flags",
            Json::str(format!(
                "serve --listen 127.0.0.1:0 --max-inflight {MAX_INFLIGHT} --no-cache"
            )),
        ),
        ("setup_spawns", (2 * SETUP_REPS as u64).into()),
        ("reference_triangles", want.triangles.into()),
        ("reference_fingerprint", Json::str(want.fingerprint.clone())),
    ];

    // Setup: spawn → preload → first ping answered, several times; the
    // last server stays up for the request loop.
    let mut setup = Vec::new();
    for _ in 1..SETUP_REPS {
        setup.push(spawn_and_stop(&ctx.mxm, &input)?);
    }
    let (proc, mut control, secs) = ServerProc::spawn(&ctx.mxm, &input)?;
    setup.push(secs);
    let spans = Spans::new(ctx.trace);
    let w = closed_loop(ctx, &proc, &mut control, &isolated, &want, &spans)?;
    let rss = vm_hwm_mb(Some(proc.child.id()))?;
    let ingest = if ctx.trace {
        // The server's own io layer on the same file, after the RSS
        // reading so the extra copy cannot inflate it.
        let req = Json::obj(vec![
            ("op", Json::str("load")),
            ("path", Json::str(input.display().to_string())),
            ("name", Json::str("io-probe")),
            ("cache", Json::str("off")),
        ]);
        Some(mspgemm_serve::client::expect_ok(control.request(&req)?)?)
    } else {
        None
    };
    proc.shutdown(&mut control)?;
    for _ in 0..SETUP_REPS {
        setup.push(spawn_and_stop(&ctx.mxm, &input)?);
    }

    o.attempted = w.samples.len() as u64;
    o.failed = w.samples.iter().filter(|s| !s.ok).count() as u64;
    if o.attempted == 0 {
        return Err("no request completed".into());
    }
    for wrong in w.samples.iter().filter_map(|s| s.wrong.as_deref()) {
        o.correct = false;
        eprintln!("perfbench: wrong answer: {wrong}");
    }
    if ctx.trace {
        layer_metrics(&mut o, &w, &want, ingest.as_ref(), &spans);
        return Ok(o);
    }
    let rtt: Vec<f64> = w
        .samples
        .iter()
        .map(|s| if s.ok { s.secs } else { f64::INFINITY })
        .collect();
    let cycle_s: Vec<f64> = w.cycles.iter().map(|c| c.0).collect();
    let ok = w.samples.iter().filter(|s| s.ok).count();
    o.set("solve_s", median(&cycle_s), cycle_s.len());
    o.set("setup_s", median(&setup), setup.len());
    o.set("rss_peak_mb", rss, 1);
    o.set("rtt_p50_ms", median(&rtt) * 1e3, rtt.len());
    o.set("rtt_p95_ms", quantile(&rtt, 0.95) * 1e3, rtt.len());
    o.set("throughput_rps", ok as f64 / w.secs, ok);
    o.set("success_rate", ok as f64 / o.attempted as f64, rtt.len());
    Ok(o)
}

/// Per-layer metrics of a traced run, and the serve reconciliation.
fn layer_metrics(
    o: &mut Outcome,
    w: &Window,
    want: &Expected,
    ingest: Option<&Json>,
    spans: &Spans,
) {
    // io: the server's ingest report.
    if let Some(ing) = ingest.and_then(|r| r.get("ingest")) {
        let secs = ing.get("seconds").and_then(Json::as_f64).unwrap_or(0.0);
        let bytes = ing.get("bytes").and_then(Json::as_u64).unwrap_or(0) as f64;
        o.set("io.load_s", secs, 1);
        o.set("io.bytes", bytes, 1);
        o.set("io.mb_per_s", bytes / 1e6 / secs, 1);
    }
    // core: the responses' own kernel timings and pool counters.
    let mxm_s: Vec<f64> = w.ok("mxm").filter_map(|s| field(s, "seconds")).collect();
    let mxm_gf: Vec<f64> = w.ok("mxm").filter_map(|s| field(s, "gflops")).collect();
    let (t, gf) = (median(&mxm_s), median(&mxm_gf));
    let flops = gf * 1e9 * t;
    o.set("core.mxm_s.msa-1p", t, mxm_s.len());
    o.set("core.gflops.msa-1p", gf, mxm_gf.len());
    o.set("core.flops", flops.round(), mxm_s.len());
    o.set(
        "core.useful_ratio",
        want.nnz as f64 / (flops / 2.0),
        mxm_s.len(),
    );
    let products = w.ok("mxm").count() + w.ok("tc").count();
    o.set("core.products", products as f64, products);
    let (mut hits, mut misses) = (0u64, 0u64);
    for s in w.ok("mxm").chain(w.ok("tc")) {
        let pool = s.resp.as_ref().and_then(|r| r.get("pool"));
        let n = |k| {
            pool.and_then(|p| p.get(k))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        hits += n("hits");
        misses += n("misses");
    }
    let takes = hits + misses;
    o.set(
        "core.pool_hit_rate",
        hits as f64 / takes.max(1) as f64,
        takes as usize,
    );
    let busy = w
        .stats_after
        .get("busy")
        .and_then(|b| b.get("max_over_mean"));
    if let Some(b) = busy.and_then(Json::as_f64) {
        o.set("core.busy_imbalance", b, 1);
    }
    // serve: client timings against the server's histograms.
    let tc_core: Vec<f64> = w.ok("tc").filter_map(|s| field(s, "mxm_seconds")).collect();
    for &verb in VERBS {
        let server_verb = if verb == "tc" { "app" } else { verb };
        let client: Vec<f64> = w
            .samples
            .iter()
            .filter(|s| s.verb == verb)
            .map(|s| s.secs)
            .collect();
        let (h, sum_us) = hist_window(
            &w.before,
            &w.after,
            "request_latency_us",
            &[Some(server_verb)],
        );
        let client_ms = median(&client) * 1e3;
        let server_ms = h.quantile(0.5) as f64 / 1e3;
        o.set(
            format!("serve.client_p50_ms.{verb}"),
            client_ms,
            client.len(),
        );
        o.set(
            format!("serve.server_p50_ms.{verb}"),
            server_ms,
            h.count() as usize,
        );
        o.set(
            format!("serve.wire_ms.{verb}"),
            client_ms - server_ms,
            client.len(),
        );
        if h.count().abs_diff(client.len() as u64) > CONNECTIONS as u64 {
            o.problems.push(format!(
                "{verb}: server counted {} requests, clients {}",
                h.count(),
                client.len()
            ));
        }
        if server_ms > client_ms * (1.0 + HIST_RESOLUTION) + 1e-3 {
            o.problems.push(format!(
                "{verb}: server p50 {server_ms:.3} ms exceeds client p50 {client_ms:.3} ms"
            ));
        }
        if verb == "tc" && h.count() > 0 && !tc_core.is_empty() {
            let server_mean = sum_us as f64 / h.count() as f64 * 1e-6;
            let core_mean = tc_core.iter().sum::<f64>() / tc_core.len() as f64;
            o.set("graph.self_s", server_mean - core_mean, tc_core.len());
        }
    }
    let heavy = [Some("mxm"), Some("app"), Some("update")];
    let (q, _) = hist_window(&w.before, &w.after, "queue_wait_us", &heavy);
    o.set(
        "serve.queue_wait_p50_ms",
        q.quantile(0.5) as f64 / 1e3,
        q.count() as usize,
    );
    let (u, _) = hist_window(&w.before, &w.after, "update_latency_us", &[None]);
    o.set(
        "serve.update_server_ms",
        u.quantile(0.5) as f64 / 1e3,
        u.count() as usize,
    );
    if let Some(mem) = w.stats_after.get("total_mem_bytes").and_then(Json::as_f64) {
        o.set("serve.resident_mb", mem / 1e6, 1);
    }
    let tcs = w.ok("tc").count();
    let incremental = w
        .ok("tc")
        .filter(|s| s.resp.as_ref().and_then(|r| r.get("incremental")) == Some(&Json::Bool(true)))
        .count();
    o.set(
        "serve.incremental_share",
        incremental as f64 / tcs.max(1) as f64,
        tcs,
    );
    let pool = |st: &Json, k: &str| {
        st.get("pool")
            .and_then(|p| p.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    let dh = pool(&w.stats_after, "hits") - pool(&w.stats_before, "hits");
    let dm = pool(&w.stats_after, "misses") - pool(&w.stats_before, "misses");
    o.set(
        "serve.pool_hit_rate",
        dh as f64 / (dh + dm).max(1) as f64,
        (dh + dm) as usize,
    );
    let rejected =
        counter(&w.after, "rejected_busy_total") - counter(&w.before, "rejected_busy_total");
    let busy_seen = w.samples.iter().filter(|s| s.busy).count() as u64;
    o.set(
        "serve.busy_rejections",
        rejected.max(busy_seen) as f64,
        w.samples.len(),
    );
    // obs: tracing overhead and what the request spans leave uncovered.
    let traced: Vec<f64> = w.cycles.iter().filter(|c| c.1).map(|c| c.0).collect();
    let plain: Vec<f64> = w.cycles.iter().filter(|c| !c.1).map(|c| c.0).collect();
    o.set(
        "obs.trace_overhead",
        median(&traced) / median(&plain) - 1.0,
        w.cycles.len(),
    );
    let gap = spans.self_s("cycle") / spans.total_s("cycle");
    o.set("obs.unattributed_share", gap, traced.len());
    if gap > UNATTRIBUTED_TOL {
        o.problems.push(format!(
            "request spans leave {:.2}% of cycle time unattributed (tolerance {:.0}%)",
            gap * 100.0,
            UNATTRIBUTED_TOL * 100.0
        ));
    }
    o.chrome = Some(spans.chrome_json());
}
