//! BLAS semantics of the facade: `C ← α·op(A)·op(B) + β·C`, the
//! `cublasGemmEx` contract GEMMul8 slots into.
//!
//! [`GemmOp`] is the `trans` option of [`crate::GemmArgs::trans_a`] /
//! [`crate::GemmArgs::trans_b`]; `alpha`/`beta` are
//! [`crate::GemmArgs::alpha`] / [`crate::GemmArgs::beta`], and
//! [`crate::Ozaki2::gemm_into`] is the BLAS call. Transposes are
//! **zero-copy** view flips, so no operand is ever cloned or
//! materialised, and the `α`/`β` epilogue runs in the fold tail.

/// Operand transpose option (BLAS `trans` parameter).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GemmOp {
    /// Use the operand as stored.
    N,
    /// Use the operand transposed.
    T,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GemmArgs, Mode, Ozaki2};
    use gemm_dense::workload::{phi_matrix_f32, phi_matrix_f64};
    use gemm_dense::{MatF64, Matrix};

    /// BLAS `?gemm` through the facade: `c ← alpha·op(a)·op(b) + beta·c`.
    #[allow(clippy::too_many_arguments)]
    fn blas(
        emu: &Ozaki2,
        ta: GemmOp,
        tb: GemmOp,
        alpha: f64,
        a: &MatF64,
        b: &MatF64,
        beta: f64,
        c: &mut MatF64,
    ) {
        let args = GemmArgs::new(a, b)
            .trans_a(ta)
            .trans_b(tb)
            .alpha(alpha)
            .beta(beta);
        emu.gemm_into(args, c.view_mut()).unwrap();
    }

    #[test]
    fn transpose_options_consistent() {
        let a = phi_matrix_f64(8, 12, 0.5, 1, 0);
        let b = phi_matrix_f64(12, 6, 0.5, 1, 1);
        let emu = Ozaki2::new(15, Mode::Fast);
        // (A B) computed two ways must agree bitwise: the pipeline sees
        // identical effective operands.
        let mut c_nn = MatF64::zeros(8, 6);
        blas(&emu, GemmOp::N, GemmOp::N, 1.0, &a, &b, 0.0, &mut c_nn);
        let mut c_tt = MatF64::zeros(8, 6);
        let (at, bt) = (a.transpose(), b.transpose());
        blas(&emu, GemmOp::T, GemmOp::T, 1.0, &at, &bt, 0.0, &mut c_tt);
        assert_eq!(c_nn, c_tt);
    }

    #[test]
    fn blas_equals_facade_on_all_transpose_options() {
        // Every (trans_a, trans_b) combination must equal the plain
        // product on the effective operands, bitwise — with no
        // materialization on any path (the facade flips views instead of
        // copying).
        let a = phi_matrix_f64(7, 9, 0.5, 4, 0);
        let b = phi_matrix_f64(9, 5, 0.5, 4, 1);
        let emu = Ozaki2::new(13, Mode::Fast);
        let want = emu.dgemm(&a, &b);
        for (ta, tb, al, bl) in [
            (GemmOp::N, GemmOp::N, &a, &b),
            (GemmOp::T, GemmOp::N, &a.transpose(), &b),
            (GemmOp::N, GemmOp::T, &a, &b.transpose()),
            (GemmOp::T, GemmOp::T, &a.transpose(), &b.transpose()),
        ] {
            let mut c = MatF64::zeros(7, 5);
            blas(&emu, ta, tb, 1.0, al, bl, 0.0, &mut c);
            assert_eq!(c, want, "{ta:?} {tb:?}");
        }
    }

    #[test]
    fn alpha_beta_semantics() {
        let a = phi_matrix_f64(6, 6, 0.5, 2, 0);
        let b = phi_matrix_f64(6, 6, 0.5, 2, 1);
        let emu = Ozaki2::new(12, Mode::Fast);
        let mut c = MatF64::from_fn(6, 6, |i, j| (i == j) as u8 as f64);
        let c0 = c.clone();
        blas(&emu, GemmOp::N, GemmOp::N, 2.0, &a, &b, 3.0, &mut c);
        let prod = emu.dgemm(&a, &b);
        for i in 0..6 {
            for j in 0..6 {
                let want = 2.0 * prod[(i, j)] + 3.0 * c0[(i, j)];
                assert_eq!(c[(i, j)], want);
            }
        }
    }

    #[test]
    fn f32_blas_round_trip() {
        let a = phi_matrix_f32(5, 7, 0.5, 3, 0);
        let b = phi_matrix_f32(7, 4, 0.5, 3, 1);
        let emu = Ozaki2::new(8, Mode::Fast);
        let mut c = Matrix::<f32>::zeros(5, 4);
        let args = GemmArgs::new(&a, &b).alpha(1.0).beta(0.0);
        emu.gemm_into(args, c.view_mut()).unwrap();
        assert_eq!(c, emu.sgemm(&a, &b));
    }

    #[test]
    fn beta_zero_never_reads_c() {
        // BLAS: with beta = 0, C need not be set on entry. NaN or Inf
        // left in the output buffer must not reach the result.
        let emu = Ozaki2::new(15, Mode::Fast);
        let a = phi_matrix_f64(8, 12, 0.5, 5, 0);
        let b = phi_matrix_f64(12, 6, 0.5, 5, 1);
        let want = emu.dgemm(&a, &b);
        for junk in [f64::NAN, f64::INFINITY] {
            let mut c = MatF64::from_fn(8, 6, |_, _| junk);
            blas(&emu, GemmOp::N, GemmOp::N, 2.0, &a, &b, 0.0, &mut c);
            for i in 0..8 {
                for j in 0..6 {
                    assert_eq!(c[(i, j)], 2.0 * want[(i, j)], "f64 ({i},{j}) {junk}");
                }
            }
            // k = 0: the empty product is zero whatever C held.
            let mut c = MatF64::from_fn(8, 6, |_, _| junk);
            let (a0, b0) = (MatF64::zeros(8, 0), MatF64::zeros(0, 6));
            blas(&emu, GemmOp::N, GemmOp::N, 2.0, &a0, &b0, 0.0, &mut c);
            assert!(c.as_slice().iter().all(|&x| x == 0.0), "k = 0 {junk}");
        }
        let emu = Ozaki2::new(8, Mode::Fast);
        let a = phi_matrix_f32(8, 12, 0.5, 5, 0);
        let b = phi_matrix_f32(12, 6, 0.5, 5, 1);
        let want = emu.sgemm(&a, &b);
        for junk in [f32::NAN, f32::INFINITY] {
            let mut c = Matrix::<f32>::from_fn(8, 6, |_, _| junk);
            let args = GemmArgs::new(&a, &b).alpha(2.0).beta(0.0);
            emu.gemm_into(args, c.view_mut()).unwrap();
            for i in 0..8 {
                for j in 0..6 {
                    assert_eq!(c[(i, j)], 2.0 * want[(i, j)], "f32 ({i},{j}) {junk}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "ShapeMismatch")]
    fn shape_check() {
        let a = MatF64::zeros(3, 4);
        let b = MatF64::zeros(4, 5);
        let mut c = MatF64::zeros(3, 4);
        blas(
            &Ozaki2::new(8, Mode::Fast),
            GemmOp::N,
            GemmOp::N,
            1.0,
            &a,
            &b,
            0.0,
            &mut c,
        );
    }
}
