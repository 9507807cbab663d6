//! One-phase / two-phase execution of the row-parallel push algorithms
//! (paper §6).
//!
//! * **Two-phase** first runs a *symbolic* pass computing the exact number
//!   of output nonzeros per row, allocates the output tightly, then runs
//!   the *numeric* pass writing in place.
//! * **One-phase** skips the symbolic pass: the mask bounds every output
//!   row (`|c_i| ≤ nnz(m_i)`, or `min(flops_i, ncols − nnz(m_i))` when the
//!   mask is complemented), so slack buffers sized by a prefix sum of those
//!   bounds are filled directly and compacted once. The paper finds this
//!   usually wins for Masked SpGEMM — the mask makes the bound tight enough
//!   that the symbolic pass does not pay for itself.
//!
//! Rows are distributed per the [`crate::schedule::RowSchedule`] policy
//! (§6 distributes rows
//! dynamically for exactly the skewed-input reason): the chunk list built by
//! [`crate::schedule`] is claimed by executors of the persistent worker
//! pool, with one reusable workspace per executor — leased from a
//! [`WsPool`] when [`ExecOpts`] carries one, so iterative callers pay zero
//! accumulator allocations in steady state. Every row writes into an
//! index-addressed range from a prefix sum, so the output is bit-identical
//! across schedules and thread counts.

use crate::dispatch::Error;
use crate::schedule::{row_chunks, ExecOpts, WsPool};
use mspgemm_sparse::semiring::Semiring;
use mspgemm_sparse::util::{par_exclusive_prefix_sum, UnsafeSlice};
use mspgemm_sparse::{Csr, CsrRef, Idx};
use rayon::prelude::*;
use std::any::Any;
use std::ops::Range;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Execution strategy (§6): with (`Two`) or without (`One`) a symbolic
/// phase. Suffixes `-1P`/`-2P` in the paper's plots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phases {
    /// Single numeric pass into mask-bounded slack buffers + compaction.
    One,
    /// Symbolic sizing pass, then an exact numeric pass.
    Two,
}

impl std::str::FromStr for Phases {
    type Err = String;

    /// Parse a phase strategy as the CLI spells it: `1`/`one`/`1p` or
    /// `2`/`two`/`2p` (case-insensitive).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "1" | "one" | "1p" => Ok(Phases::One),
            "2" | "two" | "2p" => Ok(Phases::Two),
            other => Err(format!("unknown phase strategy '{other}' (expected 1|2)")),
        }
    }
}

/// Everything a kernel needs to produce one output row.
pub struct RowCtx<'a, S: Semiring> {
    /// Sorted mask columns of this row.
    pub mask_cols: &'a [Idx],
    /// Sorted column indices of the `A` row.
    pub a_cols: &'a [Idx],
    /// Values of the `A` row.
    pub a_vals: &'a [S::Left],
    /// The full `B` matrix as a borrowed view (kernels fetch rows `B_k*`
    /// for `A_ik ≠ 0`) — storage-agnostic, so mmap-backed operands flow
    /// through the kernels with no copies.
    pub b: CsrRef<'a, S::Right>,
}

/// A push-based Masked SpGEVM kernel: computes one output row given one
/// mask row and one `A` row (§5's row-by-row formulation,
/// `c_i = m_i ⊙ Σ_k a_ik · B_k*`).
pub trait PushKernel<S: Semiring>: Sync {
    /// Per-thread reusable scratch (the accumulator). `'static` so it can
    /// be parked in a [`WsPool`] across calls.
    type Ws: Send + 'static;

    /// Allocate scratch for a matrix with `ncols` output columns.
    fn make_ws(&self, ncols: usize) -> Self::Ws;

    /// Distinguishes kernel configurations whose workspaces share a type
    /// but are **not** interchangeable (e.g. MSA's normal vs complemented
    /// dense-array defaults). [`WsPool`] keys on it; configurations that
    /// produce identical workspaces can share the default `0`.
    fn ws_tag(&self) -> u64 {
        0
    }

    /// Whether [`make_ws`](Self::make_ws) output depends on `ncols`.
    /// Kernels whose scratch is row-adaptive (hash tables, heaps,
    /// mask-rank arrays) return `false`, so a [`WsPool`] shares their
    /// workspaces across output widths — e.g. across the datasets of one
    /// suite sweep.
    fn ws_depends_on_ncols(&self) -> bool {
        true
    }

    /// Symbolic pass: the exact number of entries row `i` will produce.
    fn row_symbolic(&self, ws: &mut Self::Ws, ctx: RowCtx<'_, S>) -> usize;

    /// Numeric pass: write the row into `out_cols`/`out_vals` (sorted by
    /// column); returns the entry count. The slices are large enough for
    /// the row's bound.
    fn row_numeric(
        &self,
        ws: &mut Self::Ws,
        ctx: RowCtx<'_, S>,
        out_cols: &mut [Idx],
        out_vals: &mut [S::Out],
    ) -> usize;
}

/// A leased workspace: taken from the pool (or freshly built) when an
/// executor starts claiming chunks, returned to the pool on drop. Also
/// accumulates the executor's busy seconds locally, reporting the total
/// once at lease end so no shared state sits inside the timed region.
struct WsLease<'a, W: Any + Send> {
    ws: Option<W>,
    pool: Option<&'a WsPool>,
    stats: Option<&'a crate::schedule::ExecStats>,
    busy: f64,
    tag: u64,
    ncols: usize,
}

impl<'a, W: Any + Send> WsLease<'a, W> {
    fn new(
        pool: Option<&'a WsPool>,
        stats: Option<&'a crate::schedule::ExecStats>,
        tag: u64,
        ncols: usize,
        make: impl FnOnce() -> W,
    ) -> Self {
        let ws = match pool {
            Some(p) => p.take(tag, ncols, make),
            None => make(),
        };
        Self {
            ws: Some(ws),
            pool,
            stats,
            busy: 0.0,
            tag,
            ncols,
        }
    }

    fn get(&mut self) -> &mut W {
        self.ws.as_mut().expect("workspace leased out")
    }
}

impl<W: Any + Send> Drop for WsLease<'_, W> {
    fn drop(&mut self) {
        // Never park a workspace while unwinding: a panic mid-row leaves
        // the accumulator dirty, and a pooled dirty accumulator would
        // silently corrupt a later product.
        if std::thread::panicking() {
            return;
        }
        if let (Some(pool), Some(ws)) = (self.pool, self.ws.take()) {
            pool.put(self.tag, self.ncols, ws);
        }
        if let Some(stats) = self.stats {
            if self.busy > 0.0 {
                stats.record(self.busy);
            }
        }
    }
}

/// Drive `row` over every row of every chunk, one leased workspace per
/// executor. `with_max_len(1)` pins every schedule chunk as its own claim
/// unit — the drive must not re-group the work partition the policy
/// computed. Records per-executor busy time (rank-folded at drive end)
/// when `opts.stats` is set.
///
/// With a [`WsPool`], the executors' workspaces are leased *before* the
/// drive: an executor that claims no chunk builds no workspace, so a
/// lazily leasing pass takes a timing-dependent number of them and an
/// identical repeat could still miss. Leased up front, every pass takes
/// `min(threads, chunks)` workspaces, and a pass that follows an
/// identical one is miss-free.
fn run_rows<S, K>(
    chunks: &[Range<usize>],
    opts: &ExecOpts<'_>,
    kernel: &K,
    ncols: usize,
    row: impl Fn(&mut K::Ws, usize) + Sync,
) where
    S: Semiring,
    K: PushKernel<S>,
{
    // ncols-independent workspaces share one shelf across output widths.
    let key_ncols = if kernel.ws_depends_on_ncols() {
        ncols
    } else {
        0
    };
    let lease = || {
        WsLease::new(opts.ws_pool, opts.stats, kernel.ws_tag(), key_ncols, || {
            kernel.make_ws(ncols)
        })
    };
    let ahead: Mutex<Vec<_>> = Mutex::new(match opts.ws_pool {
        Some(_) => {
            let executors = rayon::current_num_threads().min(chunks.len()).max(1);
            (0..executors).map(|_| lease()).collect()
        }
        None => Vec::new(),
    });
    chunks.par_iter().with_max_len(1).for_each_init(
        || {
            let next = ahead.lock().unwrap_or_else(PoisonError::into_inner).pop();
            next.unwrap_or_else(lease)
        },
        |lease, range| {
            let t0 = lease.stats.map(|_| Instant::now());
            let ws = lease.get();
            for i in range.clone() {
                row(ws, i);
            }
            if let Some(t0) = t0 {
                lease.busy += t0.elapsed().as_secs_f64();
            }
        },
    );
    // Leases no executor claimed go back to the pool (with no busy time).
    drop(ahead);
    if let Some(stats) = opts.stats {
        stats.fold_drive();
    }
}

/// Per-row output upper bounds for the one-phase pass.
///
/// Normal mask: the output is a subset of the mask row. Complemented mask:
/// at most one entry per product (`flops_i`, precomputed once in
/// [`run_push_with`] and shared with the flop-balanced schedule) and at
/// most the non-mask columns.
pub(crate) fn one_phase_bounds<M: Send + Sync>(
    mask: &Csr<M>,
    ncols: usize,
    complement: bool,
    flops: Option<&[u64]>,
) -> Vec<usize> {
    if !complement {
        (0..mask.nrows())
            .into_par_iter()
            .map(|i| mask.row_nnz(i))
            .collect()
    } else {
        let flops = flops.expect("complemented one-phase bounds need per-row flops");
        (0..mask.nrows())
            .into_par_iter()
            .map(|i| {
                let f = usize::try_from(flops[i]).unwrap_or(usize::MAX);
                f.min(ncols - mask.row_nnz(i))
            })
            .collect()
    }
}

/// Run a push kernel over all rows with the chosen phase strategy and
/// default execution options (guided schedule, no workspace pool).
pub fn run_push<S, K, M>(
    mask: &Csr<M>,
    a: &Csr<S::Left>,
    b: &Csr<S::Right>,
    complement: bool,
    phases: Phases,
    kernel: &K,
) -> Csr<S::Out>
where
    S: Semiring,
    K: PushKernel<S>,
    M: Send + Sync,
{
    run_push_with(mask, a, b, complement, phases, kernel, &ExecOpts::default())
        .expect("default ExecOpts carries no deadline")
}

/// Whether the options' cancellation deadline has passed.
fn expired(opts: &ExecOpts<'_>) -> bool {
    opts.deadline.is_some_and(|d| Instant::now() >= d)
}

/// [`run_push`] with explicit execution options (row schedule, workspace
/// pool, busy-time stats).
///
/// The per-row flop count `flops_i = Σ_{A_ik≠0} nnz(B_k*)` is computed at
/// most once here and shared between its two consumers: the complemented
/// one-phase bound and the flop-balanced chunk boundaries.
///
/// # Errors
/// [`Error::DeadlineExceeded`] when [`ExecOpts::deadline`] has passed at a
/// phase boundary — before any pass starts, or between the symbolic and
/// numeric passes of a two-phase run. A drive never aborts mid-pass; the
/// output, when produced, is always complete.
pub fn run_push_with<S, K, M>(
    mask: &Csr<M>,
    a: &Csr<S::Left>,
    b: &Csr<S::Right>,
    complement: bool,
    phases: Phases,
    kernel: &K,
    opts: &ExecOpts<'_>,
) -> Result<Csr<S::Out>, Error>
where
    S: Semiring,
    K: PushKernel<S>,
    M: Send + Sync,
{
    if expired(opts) {
        return Err(Error::DeadlineExceeded);
    }
    let threads = rayon::current_num_threads().max(1);
    let need_flops = opts.schedule == crate::schedule::RowSchedule::FlopBalanced
        || (phases == Phases::One && complement);
    let flops = need_flops.then(|| {
        let _span = mspgemm_obs::span("flop-prefix");
        a.row_flops_with(b)
    });
    let chunks = row_chunks(opts.schedule, mask.nrows(), threads, flops.as_deref());
    match phases {
        Phases::One => run_one_phase(
            mask,
            a,
            b,
            complement,
            kernel,
            flops.as_deref(),
            &chunks,
            opts,
        ),
        Phases::Two => run_two_phase(mask, a, b, kernel, &chunks, opts),
    }
}

#[allow(clippy::too_many_arguments)]
fn run_one_phase<S, K, M>(
    mask: &Csr<M>,
    a: &Csr<S::Left>,
    b: &Csr<S::Right>,
    complement: bool,
    kernel: &K,
    flops: Option<&[u64]>,
    chunks: &[Range<usize>],
    opts: &ExecOpts<'_>,
) -> Result<Csr<S::Out>, Error>
where
    S: Semiring,
    K: PushKernel<S>,
    M: Send + Sync,
{
    let nrows = mask.nrows();
    let ncols = b.ncols();
    let bv = b.view();
    let bounds = one_phase_bounds(mask, ncols, complement, flops);
    // Last boundary before the (only) numeric pass: the bound/prefix work
    // above is cheap, the pass below is not.
    if expired(opts) {
        return Err(Error::DeadlineExceeded);
    }
    let offsets = par_exclusive_prefix_sum(&bounds);
    let cap = offsets[nrows];
    let mut tmp_cols = vec![0 as Idx; cap];
    let mut tmp_vals = vec![S::Out::default(); cap];
    let mut sizes = vec![0usize; nrows];
    {
        // Failpoint `kernel.numeric`: an injected panic or stall at the
        // top of the pass. An `err` task panics too — the kernel error
        // enum is closed, and the serve layer catches panics anyway.
        if let Some(msg) = mspgemm_fault::fire("kernel.numeric") {
            panic!("failpoint kernel.numeric: {msg}");
        }
        let _span = mspgemm_obs::span("numeric");
        let cw = UnsafeSlice::new(&mut tmp_cols);
        let vw = UnsafeSlice::new(&mut tmp_vals);
        let sw = UnsafeSlice::new(&mut sizes);
        run_rows::<S, K>(chunks, opts, kernel, ncols, |ws, i| {
            let ctx = RowCtx::<S> {
                mask_cols: mask.row_cols(i),
                a_cols: a.row_cols(i),
                a_vals: a.row_vals(i),
                b: bv,
            };
            // SAFETY: prefix-sum offsets make row ranges disjoint, and
            // each row index is claimed by exactly one chunk.
            let oc = unsafe { cw.slice_mut(offsets[i], bounds[i]) };
            let ov = unsafe { vw.slice_mut(offsets[i], bounds[i]) };
            let n = kernel.row_numeric(ws, ctx, oc, ov);
            debug_assert!(n <= bounds[i], "row {i} overflowed its bound");
            unsafe { sw.write(i, n) };
        });
    }
    let _span = mspgemm_obs::span("compaction");
    Ok(Csr::compact(
        nrows,
        ncols,
        &offsets,
        &sizes,
        tmp_cols,
        tmp_vals,
        S::Out::default(),
    ))
}

fn run_two_phase<S, K, M>(
    mask: &Csr<M>,
    a: &Csr<S::Left>,
    b: &Csr<S::Right>,
    kernel: &K,
    chunks: &[Range<usize>],
    opts: &ExecOpts<'_>,
) -> Result<Csr<S::Out>, Error>
where
    S: Semiring,
    K: PushKernel<S>,
    M: Send + Sync,
{
    let nrows = mask.nrows();
    let ncols = b.ncols();
    let bv = b.view();
    // Symbolic phase: exact per-row sizes.
    let mut sizes = vec![0usize; nrows];
    {
        // Failpoint `kernel.symbolic` — see `kernel.numeric` above.
        if let Some(msg) = mspgemm_fault::fire("kernel.symbolic") {
            panic!("failpoint kernel.symbolic: {msg}");
        }
        let _span = mspgemm_obs::span("symbolic");
        let sw = UnsafeSlice::new(&mut sizes);
        run_rows::<S, K>(chunks, opts, kernel, ncols, |ws, i| {
            let ctx = RowCtx::<S> {
                mask_cols: mask.row_cols(i),
                a_cols: a.row_cols(i),
                a_vals: a.row_vals(i),
                b: bv,
            };
            let n = kernel.row_symbolic(ws, ctx);
            // SAFETY: each row index is claimed by exactly one chunk.
            unsafe { sw.write(i, n) };
        });
    }
    // The boundary this strategy exists for: the symbolic pass sized the
    // output, the numeric pass pays for it — drop expired work here.
    if expired(opts) {
        return Err(Error::DeadlineExceeded);
    }
    let rowptr = par_exclusive_prefix_sum(&sizes);
    let nnz = rowptr[nrows];
    // Numeric phase into the exact allocation, over the same chunk list.
    let mut colidx = vec![0 as Idx; nnz];
    let mut values = vec![S::Out::default(); nnz];
    {
        // Failpoint `kernel.numeric` — see the one-phase drive.
        if let Some(msg) = mspgemm_fault::fire("kernel.numeric") {
            panic!("failpoint kernel.numeric: {msg}");
        }
        let _span = mspgemm_obs::span("numeric");
        let cw = UnsafeSlice::new(&mut colidx);
        let vw = UnsafeSlice::new(&mut values);
        run_rows::<S, K>(chunks, opts, kernel, ncols, |ws, i| {
            let ctx = RowCtx::<S> {
                mask_cols: mask.row_cols(i),
                a_cols: a.row_cols(i),
                a_vals: a.row_vals(i),
                b: bv,
            };
            let len = sizes[i];
            // SAFETY: rowptr ranges are disjoint.
            let oc = unsafe { cw.slice_mut(rowptr[i], len) };
            let ov = unsafe { vw.slice_mut(rowptr[i], len) };
            let n = kernel.row_numeric(ws, ctx, oc, ov);
            debug_assert_eq!(
                n, len,
                "row {i}: symbolic phase predicted {len} entries, numeric produced {n}"
            );
        });
    }
    Ok(Csr::from_parts_unchecked(
        nrows, ncols, rowptr, colidx, values,
    ))
}
