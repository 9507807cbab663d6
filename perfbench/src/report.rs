//! The metric catalogue, the result line, and the run record with its
//! provenance.

use crate::Ctx;
use mspgemm_serve::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// End-to-end metrics `(name, unit)`, reported by every `--trace 0` run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("solve_s", "s"),
    ("setup_s", "s"),
    ("rss_peak_mb", "MB"),
    ("rtt_p50_ms", "ms"),
    ("rtt_p95_ms", "ms"),
    ("throughput_rps", "req/s"),
    ("success_rate", "ratio"),
];

/// Schemes with a per-scheme `core.*` metric (the union of the workloads'
/// scheme sets).
pub const SCHEMES: &[&str] = &["msa-1p", "hash-1p", "msa-2p", "hash-2p", "inner-1p"];
/// Verbs of the `serve-mix` request cycle (`tc` is the `app` verb).
pub const VERBS: &[&str] = &["ping", "mxm", "tc", "update"];

/// Per-layer metrics `(name, unit)`, reported by every `--trace 1` run.
/// A workload that does not exercise a layer reports 0 for it (see
/// README.md for which workload feeds which metric).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = vec![
        ("io.load_s".into(), "s"),
        ("io.mb_per_s".into(), "MB/s"),
        ("io.bytes".into(), "B"),
        ("graph.prepare_s".into(), "s"),
        ("graph.self_s".into(), "s"),
        ("graph.bc_depth".into(), "count"),
    ];
    m.extend(SCHEMES.iter().map(|s| (format!("core.mxm_s.{s}"), "s")));
    m.extend(
        SCHEMES
            .iter()
            .map(|s| (format!("core.gflops.{s}"), "GFLOPS")),
    );
    m.extend([
        ("core.products".into(), "count"),
        ("core.flops".into(), "count"),
        ("core.computed_mb".into(), "MB"),
        ("core.useful_ratio".into(), "ratio"),
        ("core.busy_imbalance".into(), "ratio"),
        ("core.pool_hit_rate".into(), "ratio"),
    ]);
    for kind in ["client_p50_ms", "server_p50_ms", "wire_ms"] {
        m.extend(VERBS.iter().map(|v| (format!("serve.{kind}.{v}"), "ms")));
    }
    m.extend([
        ("serve.queue_wait_p50_ms".into(), "ms"),
        ("serve.resident_mb".into(), "MB"),
        ("serve.update_server_ms".into(), "ms"),
        ("serve.incremental_share".into(), "ratio"),
        ("serve.pool_hit_rate".into(), "ratio"),
        ("serve.busy_rejections".into(), "count"),
        ("obs.trace_overhead".into(), "ratio"),
        ("obs.unattributed_share".into(), "ratio"),
    ]);
    m
}

/// What one run measured.
pub struct Outcome {
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Measured `(value, sample count)` by metric name; catalogue metrics
    /// absent here are reported as 0 (layer not exercised by the workload).
    pub metrics: BTreeMap<String, (f64, usize)>,
    /// Workload configuration for the run record.
    pub config: Vec<(&'static str, Json)>,
    /// Reconciliation findings (empty when every check held).
    pub problems: Vec<String>,
    /// chrome://tracing document of a traced run.
    pub chrome: Option<String>,
}

impl Outcome {
    pub fn new(trace: bool) -> Outcome {
        Outcome {
            trace,
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            config: Vec::new(),
            problems: Vec::new(),
            chrome: None,
        }
    }

    pub fn set(&mut self, name: impl Into<String>, value: f64, samples: usize) {
        self.metrics.insert(name.into(), (value, samples));
    }

    /// Count one wrong answer; the first is also reported on stderr.
    pub fn fail(&mut self, why: String) {
        if self.correct {
            eprintln!("perfbench: wrong answer: {why}");
        }
        self.correct = false;
        self.failed += 1;
    }

    /// Everything measured, as the one line a `solve` child hands to the
    /// parent process.
    pub fn to_child_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(k, &(v, n))| (k.clone(), Json::Arr(vec![v.into(), (n as u64).into()])))
            .collect();
        let mut fields = vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", Json::Obj(metrics)),
            (
                "problems",
                Json::Arr(self.problems.iter().map(|p| Json::str(p.clone())).collect()),
            ),
        ];
        if let Some(chrome) = &self.chrome {
            fields.push(("chrome", Json::str(chrome.clone())));
        }
        Json::obj(fields).to_line()
    }

    /// Inverse of [`Outcome::to_child_line`].
    pub fn from_child_line(line: &str, trace: bool) -> Result<Outcome, String> {
        let res =
            mspgemm_serve::json::parse(line).map_err(|e| format!("solve child output: {e}"))?;
        let mut o = Outcome::new(trace);
        o.correct = res.get("correct").and_then(Json::as_bool) == Some(true);
        o.attempted = res.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        o.failed = res.get("failed").and_then(Json::as_u64).unwrap_or(0);
        if let Some(Json::Obj(pairs)) = res.get("metrics") {
            for (name, v) in pairs {
                let item = |i| v.as_arr().and_then(|a| a.get(i));
                let value = item(0).and_then(Json::as_f64).unwrap_or(f64::NAN);
                let n = item(1).and_then(Json::as_u64).unwrap_or(0);
                o.set(name.clone(), value, n as usize);
            }
        }
        for p in res.get("problems").and_then(Json::as_arr).unwrap_or(&[]) {
            o.problems.push(p.as_str().unwrap_or("?").to_string());
        }
        o.chrome = res.get("chrome").and_then(Json::as_str).map(str::to_string);
        Ok(o)
    }

    /// The metrics this run reports, in catalogue order.
    fn reported(&self) -> Vec<(String, &'static str, f64)> {
        let catalogue: Vec<(String, &'static str)> = if self.trace {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        catalogue
            .into_iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(&name).map_or(0.0, |m| m.0);
                (name, unit, if v.is_finite() { v } else { 0.0 })
            })
            .collect()
    }

    /// Human-readable table, then the result object as the last line.
    pub fn print(&self) {
        for p in &self.problems {
            println!("reconciliation: {p}");
        }
        println!(
            "attempted {}  succeeded {}  failed {}  correct {}",
            self.attempted,
            self.attempted - self.failed,
            self.failed,
            self.correct
        );
        let mut obj = String::new();
        for (i, (name, unit, v)) in self.reported().iter().enumerate() {
            match self.metrics.get(name).map(|m| m.1) {
                Some(n) => println!("{name:<28} {v:>16.6} {unit:<8} n={n}"),
                None => println!("{name:<28} {:>16} {unit:<8} (not exercised)", "0"),
            }
            if i > 0 {
                obj.push(',');
            }
            obj.push_str(&format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
        }
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{obj}}}}}",
            self.correct, self.attempted, self.failed
        );
    }

    /// Write the run record (provenance, configuration, metrics with
    /// sample counts) and, for traced runs, the chrome trace.
    pub fn save(&self, ctx: &Ctx) -> Result<(), String> {
        let stem = format!(
            "{}-seed{}-trace{}",
            ctx.workload,
            ctx.seed,
            u8::from(ctx.trace)
        );
        let mut metrics = Vec::new();
        for (name, unit, v) in self.reported() {
            metrics.push(Json::obj(vec![
                ("name", Json::str(name.clone())),
                ("unit", Json::str(unit)),
                ("value", v.into()),
                (
                    "samples",
                    self.metrics
                        .get(&name)
                        .map_or(Json::Null, |m| (m.1 as u64).into()),
                ),
            ]));
        }
        let mut fields = vec![
            ("workload", Json::str(ctx.workload.clone())),
            ("seed", ctx.seed.into()),
            ("seconds", ctx.seconds.into()),
            ("trace", Json::Bool(ctx.trace)),
            ("provenance", provenance()),
            ("config", Json::obj(self.config.clone())),
            ("correct", Json::Bool(self.correct)),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            (
                "reconciliation_problems",
                Json::Arr(self.problems.iter().map(|p| Json::str(p.clone())).collect()),
            ),
            ("metrics", Json::Arr(metrics)),
        ];
        if let Some(chrome) = &self.chrome {
            let path = ctx.results.join(format!("{stem}.chrome.json"));
            std::fs::write(&path, chrome).map_err(|e| format!("{}: {e}", path.display()))?;
            fields.push(("chrome_trace", Json::str(path.display().to_string())));
        }
        let path = ctx.results.join(format!("{stem}.json"));
        std::fs::write(&path, Json::obj(fields).to_line() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Host and source identity recorded with every run.
fn provenance() -> Json {
    let cmd = |prog: &str, args: &[&str]| {
        Command::new(prog)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj(vec![
        (
            "git_revision",
            Json::str(cmd("git", &["rev-parse", "HEAD"])),
        ),
        (
            "source_digest",
            Json::str(format!("{:016x}", source_digest(Path::new(".")))),
        ),
        ("nproc", (nproc as u64).into()),
        ("simd_level", Json::str(masked_spgemm::simd::level().name())),
        ("rustc", Json::str(cmd("rustc", &["--version"]))),
        ("threads", (crate::THREADS as u64).into()),
    ])
}

/// FNV-1a over the library sources (`crates/**` `.rs`/`.toml`, sorted by
/// path): identifies the measured code even in a checkout without git.
fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, out);
                }
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn declared(list: &str) -> Vec<(String, String)> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = mspgemm_serve::json::parse(&text).expect("valid JSON");
        doc.get(list)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), layers);
    }
}
