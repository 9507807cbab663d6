//! Scheduling and workspace-pooling invariants: the row schedule and the
//! cross-call workspace pool are pure execution policies — the output CSR
//! must be **byte-identical** to the static schedule for every algorithm,
//! mask mode, phase strategy, thread count, and input skew; and a warm
//! [`WsPool`] must serve steady-state drives without a single fresh
//! accumulator allocation (every take a hit).

use masked_spgemm::{
    masked_mxm, masked_mxm_with_opts, Algorithm, ExecOpts, ExecStats, MaskMode, Phases,
    RowSchedule, WsPool,
};
use mspgemm_sparse::semiring::PlusTimesI64;
use mspgemm_sparse::{Coo, Csr};
use proptest::prelude::*;

fn csr_strategy(nrows: usize, ncols: usize, fill: f64) -> impl Strategy<Value = Csr<i64>> {
    proptest::collection::vec(
        proptest::collection::vec(proptest::option::weighted(fill, -3i64..=3), ncols),
        nrows,
    )
    .prop_map(move |d| Csr::from_dense(&d, ncols))
}

/// An adversarially skewed square matrix: row 0 is dense (the hub), every
/// other row holds a couple of entries — the single-heavy-row case where a
/// contiguous equal-row split is maximally imbalanced.
fn single_heavy_row(n: usize) -> Csr<i64> {
    let mut coo = Coo::new(n, n);
    for j in 0..n as u32 {
        coo.push(0, j, 1 + (j as i64 % 3));
    }
    for i in 1..n as u32 {
        coo.push(i, (i * 7) % n as u32, 2);
        coo.push(i, (i * 13 + 1) % n as u32, -1);
    }
    coo.to_csr(|a, b| a + b)
}

/// Every (algorithm × mode × phases) combination the dispatcher accepts.
fn all_push_combos() -> Vec<(Algorithm, MaskMode, Phases)> {
    let mut combos = Vec::new();
    for algo in Algorithm::ALL_EXTENDED {
        if algo == Algorithm::Inner {
            continue; // pull path: no row-push schedule to vary
        }
        for mode in [MaskMode::Mask, MaskMode::Complement] {
            if mode == MaskMode::Complement && !algo.supports_complement() {
                continue;
            }
            for phases in [Phases::One, Phases::Two] {
                combos.push((algo, mode, phases));
            }
        }
    }
    combos
}

fn run_sched(
    mask: &Csr<()>,
    a: &Csr<i64>,
    combo: (Algorithm, MaskMode, Phases),
    opts: &ExecOpts<'_>,
) -> Csr<i64> {
    let (algo, mode, phases) = combo;
    masked_mxm_with_opts::<PlusTimesI64, ()>(mask, a, a, algo, mode, phases, opts).unwrap()
}

#[test]
fn schedules_identical_on_single_heavy_row() {
    let a = single_heavy_row(300);
    let mask = a.pattern();
    // Pin a multi-thread pool so every schedule actually produces a
    // multi-chunk partition.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .unwrap();
    pool.install(|| {
        for combo in all_push_combos() {
            let baseline = run_sched(
                &mask,
                &a,
                combo,
                &ExecOpts::with_schedule(RowSchedule::Static),
            );
            for sched in [RowSchedule::Guided, RowSchedule::FlopBalanced] {
                let got = run_sched(&mask, &a, combo, &ExecOpts::with_schedule(sched));
                assert_eq!(got, baseline, "{combo:?} diverged under {}", sched.name());
            }
        }
    });
}

#[test]
fn schedules_identical_across_thread_counts() {
    let a = single_heavy_row(200);
    let mask = a.pattern();
    let combo = (Algorithm::Hash, MaskMode::Complement, Phases::One);
    let reference = run_sched(&mask, &a, combo, &ExecOpts::default());
    for threads in [1usize, 2, 3, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            for sched in RowSchedule::ALL {
                let got = run_sched(&mask, &a, combo, &ExecOpts::with_schedule(sched));
                assert_eq!(got, reference, "{}@{threads} threads", sched.name());
            }
        });
    }
}

#[test]
fn ws_pool_steady_state_allocates_nothing() {
    let a = single_heavy_row(250);
    let mask = a.pattern();
    let pool = WsPool::new();
    let opts = ExecOpts {
        schedule: RowSchedule::Guided,
        ws_pool: Some(&pool),
        stats: None,
        deadline: None,
    };
    let combo = (Algorithm::Msa, MaskMode::Mask, Phases::Two);
    let threads = rayon::current_num_threads().max(1);
    let reps = 8usize;
    let cold = run_sched(&mask, &a, combo, &opts);
    assert!(pool.misses() > 0, "cold call must build workspaces");
    assert!(pool.retained() > 0, "workspaces must return to the pool");
    for rep in 0..reps {
        let warm = run_sched(&mask, &a, combo, &opts);
        assert_eq!(warm, cold, "pooled rerun {rep} changed the result");
    }
    // A miss can only happen while the shelf is smaller than the number
    // of concurrently-leasing executors, and that concurrency is bounded
    // by the thread count — so across ANY number of calls, total fresh
    // allocations stay <= threads. Everything else must be a pool hit:
    // steady state performs zero accumulator allocations.
    assert!(
        pool.misses() <= threads as u64,
        "misses {} exceed the executor bound {threads} — steady-state drives are allocating",
        pool.misses()
    );
    // Two-phase = two drives per call; each leases at least one workspace.
    let takes = pool.hits() + pool.misses();
    assert!(
        takes >= 2 * (reps as u64 + 1),
        "expected at least two leases per call, saw {takes}"
    );
    assert!(
        pool.hits() >= takes - threads as u64,
        "steady state must serve every lease beyond warmup from the pool"
    );
}

#[test]
fn repeat_pass_on_a_fresh_pool_never_misses() {
    // An executor builds its workspace only once it claims a chunk, so how
    // many a pass leases depends on timing; a repeat pass that happened to
    // need more executors than the first used to miss. The drive now
    // leases one workspace per executor up front, so the second of two
    // identical passes is miss-free every time.
    let a = single_heavy_row(64);
    let mask = a.pattern();
    let threads = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .unwrap();
    threads.install(|| {
        for combo in [
            (Algorithm::Hash, MaskMode::Mask, Phases::Two),
            (Algorithm::Msa, MaskMode::Mask, Phases::One),
        ] {
            for round in 0..50 {
                let pool = WsPool::new();
                let opts = ExecOpts {
                    schedule: RowSchedule::Guided,
                    ws_pool: Some(&pool),
                    stats: None,
                    deadline: None,
                };
                let first = run_sched(&mask, &a, combo, &opts);
                let misses = pool.misses();
                let second = run_sched(&mask, &a, combo, &opts);
                assert_eq!(first, second);
                assert_eq!(
                    pool.misses(),
                    misses,
                    "{combo:?} round {round}: the repeat pass allocated a workspace"
                );
            }
        }
    });
}

#[test]
fn ws_pool_is_safe_across_kernels_and_modes() {
    // One pool shared by every algorithm and both mask modes: the
    // (type, tag, ncols) shelf key must keep incompatible workspaces
    // apart (e.g. normal vs complemented MSA share a Rust type).
    let a = single_heavy_row(150);
    let mask = a.pattern();
    let pool = WsPool::new();
    let opts = ExecOpts {
        schedule: RowSchedule::FlopBalanced,
        ws_pool: Some(&pool),
        stats: None,
        deadline: None,
    };
    for round in 0..3 {
        for combo in all_push_combos() {
            let want = run_sched(&mask, &a, combo, &ExecOpts::default());
            let got = run_sched(&mask, &a, combo, &opts);
            assert_eq!(got, want, "round {round}: {combo:?} corrupted by pooling");
        }
    }
}

#[test]
fn row_adaptive_workspaces_shared_across_widths() {
    // Hash scratch is row-adaptive (ncols-independent), so one pool must
    // serve matrices of different widths from the same shelf — the
    // cross-dataset amortization a suite sweep relies on.
    let small = single_heavy_row(60);
    let big = single_heavy_row(200);
    let pool = WsPool::new();
    let opts = ExecOpts {
        schedule: RowSchedule::Guided,
        ws_pool: Some(&pool),
        stats: None,
        deadline: None,
    };
    let combo = (Algorithm::Hash, MaskMode::Mask, Phases::One);
    let threads = rayon::current_num_threads().max(1) as u64;
    let w1 = run_sched(&small.pattern(), &small, combo, &opts);
    let w2 = run_sched(&big.pattern(), &big, combo, &opts);
    assert_eq!(
        w1,
        run_sched(&small.pattern(), &small, combo, &ExecOpts::default())
    );
    assert_eq!(
        w2,
        run_sched(&big.pattern(), &big, combo, &ExecOpts::default())
    );
    // Both widths drew from one shelf: total distinct workspaces ever
    // built stays bounded by the executor count, not by width count.
    assert!(
        pool.misses() <= threads,
        "ncols-independent Ws must share shelves: {} misses for {threads} threads",
        pool.misses()
    );
    assert!(
        pool.hits() > 0,
        "the second width must reuse the first's scratch"
    );
}

#[test]
fn exec_stats_record_busy_time() {
    let a = single_heavy_row(400);
    let mask = a.pattern();
    let stats = ExecStats::new();
    let opts = ExecOpts {
        schedule: RowSchedule::Guided,
        ws_pool: None,
        stats: Some(&stats),
        deadline: None,
    };
    let _ = run_sched(
        &mask,
        &a,
        (Algorithm::Hash, MaskMode::Mask, Phases::One),
        &opts,
    );
    let busy = stats.busy_seconds();
    assert!(!busy.is_empty(), "push drive must record busy time");
    assert!(busy.iter().all(|&s| s >= 0.0));
    stats.reset();
    assert!(stats.busy_seconds().is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random rectangular inputs: every schedule must reproduce the
    /// static-schedule CSR bit-for-bit across masks, modes, phases, and
    /// algorithms — with and without a shared workspace pool.
    #[test]
    fn schedules_and_pool_are_result_invariant(
        a in csr_strategy(18, 18, 0.3),
        mask in csr_strategy(18, 18, 0.4),
    ) {
        let mask = mask.pattern();
        let shared_pool = WsPool::new();
        for combo in all_push_combos() {
            let baseline = run_sched(&mask, &a, combo, &ExecOpts::with_schedule(RowSchedule::Static));
            // Sanity: the default entry point agrees too.
            let (algo, mode, phases) = combo;
            let plain = masked_mxm::<PlusTimesI64, ()>(&mask, &a, &a, algo, mode, phases).unwrap();
            prop_assert_eq!(&plain, &baseline);
            for sched in [RowSchedule::Guided, RowSchedule::FlopBalanced] {
                let unpooled = run_sched(&mask, &a, combo, &ExecOpts::with_schedule(sched));
                prop_assert_eq!(&unpooled, &baseline, "{:?} under {}", combo, sched.name());
                let opts = ExecOpts { schedule: sched, ws_pool: Some(&shared_pool), stats: None, deadline: None };
                let pooled = run_sched(&mask, &a, combo, &opts);
                prop_assert_eq!(&pooled, &baseline, "{:?} pooled under {}", combo, sched.name());
            }
        }
    }
}
