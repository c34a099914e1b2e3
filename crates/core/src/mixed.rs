//! §6 extensions: "Ozaki scheme II … can also be extended to matrix
//! multiplication using arbitrary combinations of floating-point formats,
//! including both homogeneous (e.g., double-double) and heterogeneous
//! (e.g., FP16 and FP32) types."
//!
//! * [`dgemm_dd`] — **double-double output**: the CRT fold is evaluated in
//!   DD arithmetic instead of the FMA chain of line 11, so the
//!   reconstruction keeps ~`β + 53` bits of each weight. The result is
//!   accurate beyond FP64: the limit becomes the Step-2 truncation
//!   (~`2·p_fast - log2 k` bits), e.g. ~68 bits at `N = 20`.

use crate::consts::constants;
use crate::facade::{algorithm1, FoldInput};
use crate::pipeline::{Mode, Ozaki2, Workspace};
use crate::prepared::OperandInput;
use crate::scale::scale_by_pow2;
use gemm_dense::{MatF64, Matrix};
use gemm_exact::Dd;
use rayon::prelude::*;

/// Emulated product with a double-double result: `C ≈ A·B` to ~`2·p_fast`
/// bits (beyond FP64 for large `N`).
///
/// Lines 1–7 are the one Algorithm-1 body every entry runs (fused, parallel
/// front end; `k`-blocked past [`crate::K_BLOCK_MAX`]; the fault policy
/// [`Ozaki2::new`] gives the emulator); only the fold differs.
///
/// # Panics
/// On shape mismatch or non-finite input.
pub fn dgemm_dd(a: &MatF64, b: &MatF64, n_moduli: usize, mode: Mode) -> Matrix<Dd> {
    let emu = Ozaki2::new(n_moduli, mode);
    let consts = constants(n_moduli);
    let (m, n) = (a.rows(), b.cols());
    let mut out = Matrix::<Dd>::zeros(m, n);
    let fold = |planes: Option<FoldInput<'_>>| {
        let Some(FoldInput {
            u, exps_a, exps_b, ..
        }) = planes
        else {
            return;
        };
        // DD fold: c = Σ (s1 + s2)·u - P·Q, everything in double-double.
        let plane = m * n;
        let p_dd = Dd::renorm(consts.p1, consts.p2);
        out.as_mut_slice()
            .par_chunks_mut(m)
            .enumerate()
            .for_each(|(j, out_col)| {
                let col_off = j * m;
                for (i, o) in out_col.iter_mut().enumerate() {
                    let idx = col_off + i;
                    let mut c1 = 0.0f64; // exact by the β construction
                    let mut c2 = Dd::ZERO;
                    for s in 0..consts.n {
                        let us = u[s * plane + idx] as f64;
                        c1 += consts.s1[s] * us;
                        c2 = c2.fma_acc(consts.s2[s], us);
                    }
                    let q = (consts.p_inv * c1).round();
                    let cpp = c2.add_f64(c1).sub(p_dd.mul_f64(q));
                    let e = -(exps_a[i] + exps_b[j]);
                    // Exact power-of-two scaling of both components.
                    *o = Dd {
                        hi: scale_by_pow2(cpp.hi, e),
                        lo: scale_by_pow2(cpp.lo, e),
                    };
                }
            });
    };
    algorithm1(
        &emu,
        OperandInput::View(a.view()),
        OperandInput::View(b.view()),
        &mut Workspace::new(),
        true,
        emu.fault_policy(),
        (m, n),
        fold,
    )
    .unwrap_or_else(|e| panic!("dgemm_dd: {e}"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemm_dense::workload::{phi_matrix_f32, phi_matrix_f64};
    use gemm_exact::dd_gemm;

    fn dd_rel_err(got: &Matrix<Dd>, want: &Matrix<Dd>) -> f64 {
        got.iter()
            .zip(want.iter())
            .map(|(g, w)| {
                let denom = w.to_f64().abs().max(1e-300);
                g.sub(*w).to_f64().abs() / denom
            })
            .fold(0.0f64, f64::max)
    }

    #[test]
    fn dd_output_beats_f64_output() {
        let (m, n, k) = (24, 24, 48);
        let a = phi_matrix_f64(m, k, 0.5, 123, 0);
        let b = phi_matrix_f64(k, n, 0.5, 123, 1);
        let oracle = dd_gemm(&a, &b);
        let dd = dgemm_dd(&a, &b, 20, Mode::Fast);
        let plain = crate::Ozaki2::new(20, Mode::Fast).dgemm(&a, &b);
        let e_dd = dd_rel_err(&dd, &oracle);
        let e_plain = gemm_exact::max_rel_error_vs_dd(&plain, &oracle);
        assert!(
            e_dd < 1e-17,
            "DD output should be beyond double precision: {e_dd:e}"
        );
        assert!(
            e_dd < e_plain,
            "DD fold ({e_dd:e}) must beat the f64 fold ({e_plain:e})"
        );
    }

    #[test]
    fn dd_output_converges_with_n() {
        let (m, n, k) = (12, 12, 24);
        let a = phi_matrix_f64(m, k, 0.5, 5, 0);
        let b = phi_matrix_f64(k, n, 0.5, 5, 1);
        let oracle = dd_gemm(&a, &b);
        let mut last = f64::INFINITY;
        for nmod in [10usize, 14, 18, 20] {
            let e = dd_rel_err(&dgemm_dd(&a, &b, nmod, Mode::Fast), &oracle).max(1e-25);
            assert!(e < last * 4.0, "N={nmod}: {e:e} vs {last:e}");
            last = e;
        }
    }

    #[test]
    fn heterogeneous_products_work() {
        // An FP64 × FP32 product runs the DGEMM pipeline over the exactly
        // widened f32 operand; the facade takes it on either side.
        let (m, n, k) = (16, 16, 32);
        let a = phi_matrix_f64(m, k, 0.5, 9, 0);
        let b = phi_matrix_f32(k, n, 0.5, 9, 1).map(|x| x as f64);
        let emu = crate::Ozaki2::new(14, Mode::Fast);
        let c = emu.dgemm(&a, &b);
        let exact = gemm_dense::gemm::gemm_f64_naive(&a, &b);
        let err = gemm_dense::norms::max_relative_error(&c, &exact);
        assert!(err < 1e-9, "err={err:e}");

        let c2 = emu.dgemm(&b.transpose(), &a.transpose());
        assert_eq!(c2.shape(), (n, m));
    }

    #[test]
    fn dd_k_blocked_past_2_pow_17_is_exact_on_integers() {
        // k past the block limit runs the k-blocked plane GEMMs; entries in
        // {-1, 0, 1} make the exact product an integer the DD fold must hit.
        let k = crate::K_BLOCK_MAX + 64;
        let (m, n) = (2usize, 3usize);
        let mut s = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 60) as i64 % 3 - 1) as f64
        };
        let a = Matrix::from_fn(m, k, |_, _| next());
        let b = Matrix::from_fn(k, n, |_, _| next());
        let exact = gemm_dense::gemm::gemm_f64_naive(&a, &b);
        for mode in [Mode::Fast, Mode::Accurate] {
            let dd = dgemm_dd(&a, &b, 10, mode);
            for (g, w) in dd.iter().zip(exact.iter()) {
                assert_eq!((g.hi, g.lo), (*w, 0.0), "{mode:?}");
            }
        }
    }

    #[test]
    fn dd_integer_products_have_zero_lo() {
        // Small integer products are exactly representable: the DD result
        // must be (value, 0).
        let a = Matrix::from_fn(4, 6, |i, j| (i as f64) - (j as f64));
        let b = Matrix::from_fn(6, 4, |i, j| (2 * i) as f64 - j as f64);
        let dd = dgemm_dd(&a, &b, 8, Mode::Fast);
        let exact = gemm_dense::gemm::gemm_f64_naive(&a, &b);
        for (g, w) in dd.iter().zip(exact.iter()) {
            assert_eq!(g.hi, *w);
            assert_eq!(g.lo, 0.0);
        }
    }
}
