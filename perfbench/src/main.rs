//! `perfbench` — the repository benchmark: masked-SpGEMM applications
//! linked in-process (`tc-rmat`, `bc-rmat`) and a real `mxm serve`
//! process under a closed-loop request mix (`serve-mix`).
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1 --mxm PATH --work DIR
//! ```
//!
//! The parent process generates the workload's input files from the seed,
//! computes the reference answers (untimed), then hands the measurement
//! to a process that did not generate the input: a `perfbench solve`
//! child for the in-process workloads, an `mxm serve` child for
//! `serve-mix`. The last stdout line is the result object; `--trace 1`
//! reports the per-layer metrics instead of the end-to-end ones. See
//! `README.md` for the metric definitions.

mod inproc;
mod report;
mod servemix;
mod spans;
mod util;

use report::Outcome;
use std::path::PathBuf;
use util::Args;

/// Kernel threads for every workload (the benchmark host has 2 vCPUs).
pub const THREADS: usize = 2;

/// Shared settings of one benchmark invocation.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Work directory for generated inputs (removed on exit).
    pub work: PathBuf,
    /// Where the run record and chrome trace are written.
    pub results: PathBuf,
    /// The `mxm` binary `serve-mix` spawns.
    pub mxm: PathBuf,
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("solve") {
        // Child mode: measure an in-process workload on a generated file.
        let args = Args::parse(&argv[1..]);
        std::process::exit(match inproc::solve_child(&args) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("perfbench solve: {e}");
                1
            }
        });
    }
    let args = Args::parse(&argv);
    let code = match drive(&args) {
        Ok(outcome) => {
            outcome.print();
            0
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    };
    std::process::exit(code);
}

fn drive(args: &Args) -> Result<Outcome, String> {
    let results = PathBuf::from(
        args.get("results")
            .unwrap_or(".bench_build/perfbench-results"),
    );
    let ctx = Ctx {
        workload: args.require("workload")?.to_string(),
        seed: args.num("seed", 1)?,
        seconds: args.num::<f64>("seconds", 10.0)?.max(1.0),
        trace: args.num::<u32>("trace", 0)? != 0,
        work: results.join(format!("work-{}", std::process::id())),
        mxm: PathBuf::from(args.require("mxm")?),
        results,
    };
    std::fs::create_dir_all(&ctx.work).map_err(|e| format!("{}: {e}", ctx.work.display()))?;
    let steal0 = util::cpu_steal_ticks();
    let run = match ctx.workload.as_str() {
        "tc-rmat" | "bc-rmat" => inproc::drive(&ctx),
        "serve-mix" => servemix::drive(&ctx),
        other => Err(format!(
            "unknown workload '{other}' (expected tc-rmat|bc-rmat|serve-mix)"
        )),
    };
    // Inputs never outlive the run, whatever happened.
    std::fs::remove_dir_all(&ctx.work).ok();
    let mut outcome = run?;
    // Time the hypervisor gave the host's vCPUs to someone else: the
    // first thing to look at when a run reads slow.
    if let (Some((s0, t0)), Some((s1, t1))) = (steal0, util::cpu_steal_ticks()) {
        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        eprintln!(
            "perfbench: host steal {:.1}% of CPU time during the run",
            share * 100.0
        );
        outcome.config.push(("host_steal_share", share.into()));
    }
    outcome.save(&ctx)?;
    Ok(outcome)
}
