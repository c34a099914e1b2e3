//! Planning repeated products.
//!
//! [`arithmetic_intensity`] is the per-shape signal the batched
//! scheduler and serving admission pick their crossover from. Iterative
//! consumers — LU panel updates, purification iterations, repeated
//! solves — call GEMM many times with one shape; a caller-owned
//! [`crate::Workspace`] passed through [`crate::GemmArgs::workspace`]
//! grows to its high-water mark on the first call and then stays flat,
//! so with [`crate::Ozaki2::gemm_into`] the steady state allocates
//! nothing. A single emulated GEMM needs `2N·mk` bytes of packed i8
//! residue panels for a square product (`N·(mk + kn)` in general, padded
//! to whole panels), plus the lines-6–7 executor's own scratch, which it
//! sizes itself: the `N·mn` bytes of residue planes, and the ABFT buffers
//! under an active fault policy. The INT32 product is never stored whole:
//! each engine worker reduces it one column group at a time in its own
//! grow-only group buffer (at most 256 KiB, or 32 columns past
//! `m = 2048`).

/// Estimated arithmetic intensity of the emulated product's engine phase:
/// INT8 multiply-add operations per byte of memory traffic (packed i8
/// panels streamed per GEMM, UINT8 residue planes written, the folded f64
/// output), plus 4 bytes per residue for an INT32 product write.
///
/// The engine no longer writes the INT32 product to memory (each column
/// group is reduced while in L2), so that last term is not traffic: it is
/// a fixed weight of the classifier. It stays because the batched
/// scheduler's and serving admission's crossover (`INTENSITY_CROSSOVER`
/// in `gemm_batch`) was set against this formula.
///
/// High intensity means one product saturates the engine's compute with
/// intra-GEMM stripe parallelism; low intensity means a single item is
/// memory/latency-bound and a batched runtime is better off running whole
/// items concurrently (inter-GEMM parallelism) — the crossover the
/// `gemm_batch` scheduler picks from, and the same classifier
/// `gemm_serve::Server` applies at admission to decide whether a request
/// waits in the coalesce buffer or dispatches solo.
pub fn arithmetic_intensity(m: usize, n: usize, k: usize, n_moduli: usize) -> f64 {
    if m == 0 || n == 0 || k == 0 {
        return 0.0;
    }
    let nmod = n_moduli as f64;
    let (mf, nf, kf) = (m as f64, n as f64, k as f64);
    let ops = 2.0 * nmod * mf * nf * kf;
    let bytes = nmod * (mf * kf + kf * nf) // i8 panels, read once per GEMM
        + nmod * (4.0 + 1.0) * mf * nf // classifier weight + u8 residue plane
        + 8.0 * mf * nf; // folded f64 output
    ops / bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GemmArgs, Mode, Ozaki2, Workspace};
    use gemm_dense::workload::phi_matrix_f64;
    use gemm_dense::MatF64;

    #[test]
    fn plan_matches_one_shot_bitwise() {
        let (m, n, k) = (24usize, 20, 36);
        let emu = Ozaki2::new(13, Mode::Fast);
        let mut ws = Workspace::new();
        for seed in 0..4u64 {
            let a = phi_matrix_f64(m, k, 0.7, seed, 0);
            let b = phi_matrix_f64(k, n, 0.7, seed, 1);
            let got = emu.gemm(GemmArgs::new(&a, &b).workspace(&mut ws)).unwrap();
            assert_eq!(got.c, emu.dgemm(&a, &b), "seed={seed}");
        }
    }

    #[test]
    fn plan_matches_accurate_mode() {
        let (m, n, k) = (16usize, 16, 24);
        let emu = Ozaki2::new(10, Mode::Accurate);
        let mut ws = Workspace::new();
        let a = phi_matrix_f64(m, k, 2.0, 9, 0);
        let b = phi_matrix_f64(k, n, 2.0, 9, 1);
        let mut c = MatF64::zeros(m, n);
        for _ in 0..2 {
            emu.gemm_into(GemmArgs::new(&a, &b).workspace(&mut ws), c.view_mut())
                .unwrap();
            assert_eq!(c, emu.dgemm(&a, &b));
        }
    }

    #[test]
    fn workspace_reaches_steady_state() {
        let (m, n, k) = (32usize, 24, 40);
        let nmod = 15usize;
        let emu = Ozaki2::new(nmod, Mode::Fast);
        let mut ws = Workspace::new();
        let a = phi_matrix_f64(m, k, 0.5, 3, 0);
        let b = phi_matrix_f64(k, n, 0.5, 3, 1);
        let mut c = MatF64::zeros(m, n);
        let mut run = |ws: &mut Workspace| {
            emu.gemm_into(GemmArgs::new(&a, &b).workspace(ws), c.view_mut())
                .unwrap();
        };
        run(&mut ws);
        let after_first = ws.bytes();
        // At least the dominant buffers must be resident: the packed i8
        // panel sets (one per modulus, padded) and the U planes (u8).
        let floor = nmod * (m * k + k * n) + nmod * m * n;
        assert!(
            after_first >= floor,
            "workspace too small: {after_first} < {floor}"
        );
        for _ in 0..3 {
            run(&mut ws);
            assert_eq!(ws.bytes(), after_first, "steady state must not allocate");
        }
    }

    #[test]
    fn execute_into_bit_identical_and_alloc_free() {
        let (m, n, k) = (20usize, 16, 28);
        let emu = Ozaki2::new(12, Mode::Fast);
        let mut ws = Workspace::new();
        let mut out = MatF64::zeros(m, n);
        let a = phi_matrix_f64(m, k, 0.6, 1, 0);
        let b = phi_matrix_f64(k, n, 0.6, 1, 1);
        emu.gemm_into(GemmArgs::new(&a, &b).workspace(&mut ws), out.view_mut())
            .unwrap();
        assert_eq!(out, emu.dgemm(&a, &b));
        let steady = ws.bytes();
        for seed in 2..5u64 {
            let a = phi_matrix_f64(m, k, 0.6, seed, 0);
            let b = phi_matrix_f64(k, n, 0.6, seed, 1);
            emu.gemm_into(GemmArgs::new(&a, &b).workspace(&mut ws), out.view_mut())
                .unwrap();
            assert_eq!(out, emu.dgemm(&a, &b), "seed={seed}");
            assert_eq!(ws.bytes(), steady, "steady state must not allocate");
        }
    }

    #[test]
    #[should_panic(expected = "ShapeMismatch")]
    fn execute_into_rejects_wrong_output_shape() {
        let emu = Ozaki2::new(8, Mode::Fast);
        let a = MatF64::zeros(8, 8);
        let b = MatF64::zeros(8, 8);
        let mut c = MatF64::zeros(8, 7);
        emu.gemm_into(GemmArgs::new(&a, &b), c.view_mut()).unwrap();
    }

    #[test]
    fn intensity_orders_small_below_large() {
        // The scheduler's crossover signal: small service-sized items sit
        // well below large compute-bound ones.
        let small = arithmetic_intensity(64, 64, 64, 15);
        let large = arithmetic_intensity(1024, 1024, 1024, 15);
        assert!(small > 0.0 && large > 10.0 * small, "{small} vs {large}");
        assert_eq!(arithmetic_intensity(0, 4, 4, 15), 0.0);
    }

    #[test]
    #[should_panic(expected = "ShapeMismatch")]
    fn plan_rejects_wrong_shape() {
        let emu = Ozaki2::new(8, Mode::Fast);
        let a = MatF64::zeros(8, 9);
        let b = MatF64::zeros(8, 8);
        let mut c = MatF64::zeros(8, 8);
        emu.gemm_into(GemmArgs::new(&a, &b), c.view_mut()).unwrap();
    }
}
