//! `tc-rmat` and `bc-rmat`: the applications linked in-process.
//!
//! The parent process generates the R-MAT graph, writes it as Matrix Market text,
//! computes the reference answer, and spawns `perfbench solve`, which
//! loads the file (setup), then runs timed rounds until `--seconds` have
//! passed. A round is one app prepare (TC) followed by one full solve per
//! scheme of the workload's scheme set, every answer checked.

use crate::report::{Outcome, SCHEMES};
use crate::spans::{Spans, UNATTRIBUTED_TOL};
use crate::util::{csr_bytes, median, quantile, splitmix, vm_hwm_mb, Args};
use crate::{Ctx, THREADS};
use masked_spgemm::{ExecOpts, ExecStats, MaskMode, WsPool};
use mspgemm_gen::rmat::{rmat_symmetric, RmatParams};
use mspgemm_graph::bc::betweenness_with;
use mspgemm_graph::tricount::{count_prepared, count_prepared_with, prepare};
use mspgemm_graph::Scheme;
use mspgemm_harness::threads::with_threads;
use mspgemm_io::{load_graph_opts, save_matrix, CachePolicy, LoadOpts};
use mspgemm_serve::Json;
use mspgemm_sparse::semiring::PlusPairU64;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// R-MAT scale of `tc-rmat` (65,536 vertices).
const TC_SCALE: u32 = 16;
/// R-MAT scale of `bc-rmat` (32,768 vertices).
const BC_SCALE: u32 = 15;
/// BC batch: sources per solve.
const BC_SOURCES: usize = 64;
/// The `tc-rmat` scheme set (every scheme with a per-scheme metric); the
/// first also serves the core probe.
const TC_SCHEMES: &[&str] = SCHEMES;
/// Inner is left out of BC, as in the paper (it takes seconds per solve).
const BC_SCHEMES: &[&str] = &["msa-1p", "hash-1p", "msa-2p", "hash-2p"];
/// Loads of the input before the first round. Every measured round is
/// followed by one more (replacing the adjacency the rounds use), so the
/// set-up samples (`setup_s` is their median) spread over the whole run
/// instead of one noisy moment.
const SETUP_REPS: usize = 3;
/// Rounds measured at least, whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;
/// Relative tolerance between BC scores of different schemes.
const BC_REL_TOL: f64 = 1e-9;

fn schemes(tc: bool) -> Vec<(&'static str, Scheme)> {
    let names = if tc { TC_SCHEMES } else { BC_SCHEMES };
    names
        .iter()
        .map(|&n| (n, n.parse().expect("scheme label")))
        .collect()
}

/// Generate the input, compute the reference, run the measuring child.
pub fn drive(ctx: &Ctx) -> Result<Outcome, String> {
    let tc = ctx.workload == "tc-rmat";
    let scale = if tc { TC_SCALE } else { BC_SCALE };
    let adj = with_threads(THREADS, || {
        rmat_symmetric(scale, RmatParams::default(), ctx.seed)
    });
    let input = ctx.work.join("graph.mtx");
    save_matrix(&input, &adj).map_err(|e| format!("{}: {e}", input.display()))?;
    let mut args: Vec<String> = vec![
        "solve".into(),
        "--workload".into(),
        ctx.workload.clone(),
        "--input".into(),
        input.display().to_string(),
        "--seconds".into(),
        ctx.seconds.to_string(),
        "--trace".into(),
        u8::from(ctx.trace).to_string(),
    ];
    let mut config = vec![
        ("scale", u64::from(scale).into()),
        (
            "rmat",
            Json::str("a=0.57 b=0.19 c=0.19 edge_factor=16, symmetrized"),
        ),
        ("nnz", (adj.nnz() as u64).into()),
        (
            "schemes",
            Json::Arr(schemes(tc).iter().map(|(n, _)| Json::str(*n)).collect()),
        ),
        ("threads", (THREADS as u64).into()),
        (
            "setup_loads",
            Json::str(format!("{SETUP_REPS} + one per measured round")),
        ),
    ];
    if tc {
        // Reference through a path independent of the masked kernels:
        // the full product, then the mask (untimed, in this process).
        let expect = with_threads(THREADS, || count_prepared(&prepare(&adj), Scheme::SsSaxpy));
        args.extend(["--expect".into(), expect.triangles.to_string()]);
        config.push(("reference_triangles", expect.triangles.into()));
    } else {
        let sources = bc_sources(&adj, ctx.seed);
        args.extend([
            "--sources".into(),
            sources
                .iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join(","),
        ]);
        config.push(("bc_sources", (sources.len() as u64).into()));
    }
    drop(adj);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(&args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn solve child: {e}"))?;
    if !out.status.success() {
        return Err(format!("solve child failed: {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("solve child printed nothing")?;
    let mut o = Outcome::from_child_line(line, ctx.trace)?;
    o.config = config;
    Ok(o)
}

/// `BC_SOURCES` distinct non-isolated vertices chosen from the seed.
fn bc_sources(adj: &mspgemm_sparse::Csr<f64>, seed: u64) -> Vec<usize> {
    let candidates: Vec<usize> = (0..adj.nrows()).filter(|&v| adj.row_nnz(v) > 0).collect();
    let mut picked = Vec::with_capacity(BC_SOURCES);
    let mut state = seed ^ 0xbc;
    while picked.len() < BC_SOURCES.min(candidates.len()) {
        state = splitmix(state);
        let v = candidates[(state % candidates.len() as u64) as usize];
        if !picked.contains(&v) {
            picked.push(v);
        }
    }
    picked
}

/// Child entry point: the measured process.
pub fn solve_child(args: &Args) -> Result<(), String> {
    let tc = args.require("workload")? == "tc-rmat";
    let input = std::path::PathBuf::from(args.require("input")?);
    let seconds: f64 = args.num("seconds", 10.0)?;
    let trace = args.num::<u32>("trace", 0)? != 0;
    let expect: u64 = args.num("expect", 0)?;
    let sources: Vec<usize> = args
        .get("sources")
        .unwrap_or("")
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().map_err(|_| format!("bad source '{s}'")))
        .collect::<Result<_, _>>()?;
    let spans = Spans::new(trace);
    let mut o = Outcome::new(trace);
    with_threads(THREADS, || {
        measure(tc, &input, seconds, expect, &sources, &spans, &mut o)
    })?;
    if trace {
        o.chrome = Some(spans.chrome_json());
    }
    println!("{}", o.to_child_line());
    Ok(())
}

/// Per-scheme accumulation across rounds.
#[derive(Default)]
struct PerScheme {
    mxm_s: Vec<f64>,
    first_scores: Option<Vec<f64>>,
}

fn measure(
    tc: bool,
    input: &std::path::Path,
    seconds: f64,
    expect: u64,
    sources: &[usize],
    spans: &Spans,
    m: &mut Outcome,
) -> Result<(), String> {
    // Setup: load the generated file until the adjacency is ready.
    let load_opts = LoadOpts {
        policy: CachePolicy::Off,
        ..LoadOpts::default()
    };
    let mut setup = Vec::new();
    let mut load = || -> Result<_, String> {
        let t0 = Instant::now();
        let (a, _) = load_graph_opts(input, &load_opts).map_err(|e| e.to_string())?;
        let d = t0.elapsed();
        spans.record("io.load", 0, 0, t0, d);
        setup.push(d.as_secs_f64());
        Ok(a)
    };
    for _ in 1..SETUP_REPS {
        drop(load()?);
    }
    let mut adj = load()?;
    let bytes = std::fs::metadata(input).map_or(0, |md| md.len()) as f64;

    let pool = WsPool::new();
    let stats = ExecStats::new();
    let opts = ExecOpts {
        ws_pool: Some(&pool),
        stats: Some(&stats),
        ..ExecOpts::default()
    };
    let set = schemes(tc);
    let mut per: Vec<PerScheme> = set.iter().map(|_| PerScheme::default()).collect();
    // Solve latencies, one inner vector per measured round.
    let mut calls: Vec<Vec<f64>> = Vec::new();
    let mut rounds: Vec<(f64, bool)> = Vec::new();
    let mut prepare_s = Vec::new();
    let mut flops = 0u64;
    let mut depth = 0usize;
    let mut round_products: u64;

    // One warm-up round fills the workspace pool and the caches; its
    // answers are checked like every other.
    let mut round_no = 0u64;
    let mut deadline = None;
    let (mut hits0, mut misses0) = (0, 0);
    loop {
        let measured = round_no > 0;
        if measured && deadline.is_none() {
            deadline = Some(Instant::now() + Duration::from_secs_f64(seconds));
            stats.reset();
            (hits0, misses0) = (pool.hits(), pool.misses());
        }
        // Traced runs alternate traced and untraced rounds; the ratio of
        // their medians is the tracing overhead.
        let traced = spans.enabled() && measured && round_no % 2 == 1;
        let rec = |name, parent, start: Instant, d: Duration| {
            if traced {
                spans.record(name, parent, round_no, start, d)
            } else {
                0
            }
        };
        let round_id = if traced { spans.reserve() } else { 0 };
        let t_round = Instant::now();
        let ops = if tc {
            let t = Instant::now();
            let ops = prepare(&adj);
            let d = t.elapsed();
            rec("graph.prepare", round_id, t, d);
            if measured {
                prepare_s.push(d.as_secs_f64());
            }
            Some(ops)
        } else {
            None
        };
        round_products = 0;
        let mut round_calls = Vec::new();
        for (i, &(name, scheme)) in set.iter().enumerate() {
            let t = Instant::now();
            let (mxm_s, check) = if let Some(ops) = &ops {
                let r = count_prepared_with(ops, scheme, &opts);
                flops = ops.flops;
                round_products += 1;
                let check = if r.triangles == expect {
                    Ok(())
                } else {
                    Err(format!(
                        "{name}: {} triangles, reference {expect}",
                        r.triangles
                    ))
                };
                (r.mxm_seconds, check)
            } else {
                let r = betweenness_with(&adj, sources, scheme, &opts);
                depth = r.depth;
                round_products += 2 * r.depth as u64 - 1;
                let check = check_bc(name, &r.scores, &mut per, i);
                (r.mxm_seconds, check)
            };
            let d = t.elapsed();
            let gid = rec(if tc { "graph.tc" } else { "graph.bc" }, round_id, t, d);
            rec("core.mxm", gid, t, Duration::from_secs_f64(mxm_s));
            m.attempted += 1;
            let failed = check.is_err();
            if let Err(why) = check {
                m.fail(why);
            }
            if measured {
                round_calls.push(if failed {
                    f64::INFINITY
                } else {
                    d.as_secs_f64()
                });
                per[i].mxm_s.push(mxm_s);
            }
        }
        drop(ops);
        let round_d = t_round.elapsed();
        if traced {
            spans.record_as(round_id, "round", 0, round_no, t_round, round_d);
        }
        if measured {
            rounds.push((round_d.as_secs_f64(), traced));
            calls.push(round_calls);
            // The next round works on the freshly loaded copy, so the
            // extra set-up sample never holds two adjacencies at once.
            drop(adj);
            adj = load()?;
        }
        round_no += 1;
        if measured && rounds.len() >= MIN_ROUNDS && Instant::now() >= deadline.unwrap() {
            break;
        }
    }
    let round_s: Vec<f64> = rounds.iter().map(|r| r.0).collect();

    // End-to-end.
    m.set("setup_s", median(&setup), setup.len());
    m.set("solve_s", median(&round_s), round_s.len());
    m.set("rss_peak_mb", vm_hwm_mb(None)?, 1);
    // A round's solves span schemes several times apart in speed, so a
    // percentile pooled over all solves falls between scheme clusters and
    // jumps with their extremes; the median over rounds of each round's
    // percentile is the stable estimate of the same quantity.
    let n_calls = calls.iter().map(Vec::len).sum::<usize>();
    let over_rounds =
        |f: &dyn Fn(&[f64]) -> f64| median(&calls.iter().map(|c| f(c)).collect::<Vec<_>>());
    m.set("rtt_p50_ms", over_rounds(&median) * 1e3, n_calls);
    m.set(
        "rtt_p95_ms",
        over_rounds(&|c| quantile(c, 0.95)) * 1e3,
        n_calls,
    );
    let busy_total: f64 = round_s.iter().sum();
    m.set("throughput_rps", n_calls as f64 / busy_total, n_calls);
    m.set(
        "success_rate",
        (m.attempted - m.failed) as f64 / m.attempted as f64,
        m.attempted as usize,
    );
    if !spans.enabled() {
        return Ok(());
    }

    // Per layer.
    let load_s = median(&setup);
    m.set("io.load_s", load_s, setup.len());
    m.set("io.bytes", bytes, 1);
    m.set("io.mb_per_s", bytes / 1e6 / load_s, setup.len());
    let traced_rounds: Vec<f64> = rounds.iter().filter(|r| r.1).map(|r| r.0).collect();
    let plain_rounds: Vec<f64> = rounds.iter().filter(|r| !r.1).map(|r| r.0).collect();
    let nt = traced_rounds.len();
    let graph_self =
        spans.self_s("graph.prepare") + spans.self_s(if tc { "graph.tc" } else { "graph.bc" });
    let core_self = spans.self_s("core.mxm");
    m.set("graph.self_s", graph_self / nt as f64, nt);
    if tc {
        m.set("graph.prepare_s", median(&prepare_s), prepare_s.len());
    } else {
        m.set("graph.bc_depth", depth as f64, 1);
    }
    for (i, &(name, _)) in set.iter().enumerate() {
        let t = median(&per[i].mxm_s);
        m.set(format!("core.mxm_s.{name}"), t, per[i].mxm_s.len());
        if tc {
            m.set(
                format!("core.gflops.{name}"),
                flops as f64 / t / 1e9,
                per[i].mxm_s.len(),
            );
        }
    }
    m.set("core.products", round_products as f64, 1);
    let ranks = stats.busy_seconds();
    if !ranks.is_empty() {
        let mean = ranks.iter().sum::<f64>() / ranks.len() as f64;
        let max = ranks.iter().cloned().fold(0.0, f64::max);
        m.set("core.busy_imbalance", max / mean, ranks.len());
    }
    let (hits, misses) = (pool.hits() - hits0, pool.misses() - misses0);
    m.set(
        "core.pool_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
        (hits + misses) as usize,
    );
    if tc {
        core_probe(&adj, expect, flops, set.len(), &opts, spans, m);
    }
    m.set(
        "obs.trace_overhead",
        median(&traced_rounds) / median(&plain_rounds) - 1.0,
        rounds.len(),
    );
    // Reconciliation: io + graph + core must cover setup + traced solve
    // time; what the layer spans leave over is the benchmark's own glue.
    let io = spans.self_s("io.load");
    let covered = io + graph_self + core_self;
    let total = setup.iter().sum::<f64>() + traced_rounds.iter().sum::<f64>();
    let gap = 1.0 - covered / total;
    m.set("obs.unattributed_share", gap, nt);
    if gap.abs() > UNATTRIBUTED_TOL {
        m.problems.push(format!(
            "io + graph + core = {covered:.4} s but setup + solve = {total:.4} s \
             ({:.2}% unattributed, tolerance {:.0}%)",
            gap * 100.0,
            UNATTRIBUTED_TOL * 100.0
        ));
    }
    Ok(())
}

/// Scores bit-identical across rounds of one scheme, and within
/// `BC_REL_TOL` relative of the first scheme's.
fn check_bc(name: &str, scores: &[f64], per: &mut [PerScheme], i: usize) -> Result<(), String> {
    match &per[i].first_scores {
        Some(first) => {
            if first
                .iter()
                .zip(scores)
                .any(|(a, b)| a.to_bits() != b.to_bits())
            {
                return Err(format!("{name}: scores differ between rounds"));
            }
        }
        None => per[i].first_scores = Some(scores.to_vec()),
    }
    if let Some(base) = &per[0].first_scores {
        for (v, (a, b)) in base.iter().zip(scores).enumerate() {
            if (a - b).abs() > BC_REL_TOL * a.abs().max(b.abs()) {
                return Err(format!(
                    "{name}: score of vertex {v} is {b}, first scheme {a}"
                ));
            }
        }
    }
    Ok(())
}

/// Traced TC runs also call the core layer directly, once, on the
/// prepared operands — outside the timed rounds — to count what the
/// product computes: output entries (useful work inside the mask) and
/// the bytes of operands and output.
fn core_probe(
    adj: &mspgemm_sparse::Csr<f64>,
    expect: u64,
    flops: u64,
    products: usize,
    opts: &ExecOpts<'_>,
    spans: &Spans,
    m: &mut Outcome,
) {
    let ops = prepare(adj);
    let scheme: Scheme = TC_SCHEMES[0].parse().expect("scheme label");
    let t = Instant::now();
    let c = scheme.run_with::<PlusPairU64, ()>(
        &ops.l,
        &ops.l,
        &ops.l,
        Some(&ops.lt),
        MaskMode::Mask,
        opts,
    );
    spans.record("core.probe", 0, 0, t, t.elapsed());
    let triangles: u64 = c.values().iter().sum();
    if triangles != expect {
        m.fail(format!(
            "core probe: {triangles} triangles, reference {expect}"
        ));
    }
    let n = ops.l.nrows();
    let operands = 3.0 * csr_bytes(n, ops.l.nnz(), 0);
    let output = csr_bytes(n, c.nnz(), std::mem::size_of::<u64>());
    m.set("core.flops", (flops * products as u64) as f64, 1);
    m.set(
        "core.computed_mb",
        (operands + output) * products as f64 / 1e6,
        1,
    );
    m.set(
        "core.useful_ratio",
        c.nnz() as f64 / (flops as f64 / 2.0),
        1,
    );
}
