//! MSA push kernel (paper §5.2, Algorithm 2): scale-and-accumulate rows of
//! `B` into a dense [`Msa`] accumulator, filtered by the mask row, then
//! gather in mask order.

use crate::accumulator::msa::Msa;
use crate::accumulator::Accumulator;
use crate::phases::{PushKernel, RowCtx};
use mspgemm_sparse::semiring::Semiring;
use mspgemm_sparse::Idx;

/// Kernel configuration: normal or complemented mask (§5.2's
/// `setNotAllowed` variant).
pub struct MsaKernel {
    /// Interpret the mask as its complement.
    pub complement: bool,
}

impl<S: Semiring> PushKernel<S> for MsaKernel {
    type Ws = Msa<S::Out>;

    fn make_ws(&self, ncols: usize) -> Self::Ws {
        if self.complement {
            Msa::new_complement(ncols)
        } else {
            Msa::new(ncols)
        }
    }

    fn ws_tag(&self) -> u64 {
        // Normal and complemented MSAs share a type but hold opposite
        // dense default states — never interchangeable in a pool.
        self.complement as u64
    }

    fn row_symbolic(&self, ws: &mut Self::Ws, ctx: RowCtx<'_, S>) -> usize {
        ws.begin_row();
        ws.load_mask(ctx.mask_cols);
        for &k in ctx.a_cols {
            for &j in ctx.b.row_cols(k as usize) {
                ws.accumulate_symbolic(j);
            }
        }
        if self.complement {
            ws.count_and_reset_complement(ctx.mask_cols)
        } else {
            ws.count_and_reset(ctx.mask_cols)
        }
    }

    fn row_numeric(
        &self,
        ws: &mut Self::Ws,
        ctx: RowCtx<'_, S>,
        out_cols: &mut [Idx],
        out_vals: &mut [S::Out],
    ) -> usize {
        ws.begin_row();
        ws.load_mask(ctx.mask_cols);
        for (&k, &av) in ctx.a_cols.iter().zip(ctx.a_vals) {
            let (bc, bv) = ctx.b.row(k as usize);
            for (&j, &bvv) in bc.iter().zip(bv) {
                // Lazy value: `S::mul` runs only if the mask admits `j`.
                ws.insert_with(j, || S::mul(av, bvv), S::add);
            }
        }
        if self.complement {
            ws.gather_complement_into(ctx.mask_cols, out_cols, out_vals)
        } else {
            ws.gather_into(ctx.mask_cols, out_cols, out_vals)
        }
    }
}
