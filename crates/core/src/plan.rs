//! Reusable execution plans.
//!
//! A single emulated GEMM needs ~`(5N + 4)·mn` bytes of scratch for a
//! square product (the packed i16 residue panels the fused trunc+convert
//! emits, residue planes, the INT32 product buffer, plus a block-residue
//! accumulator when `k > 2^17` — the integer matrices of the unfused
//! pipeline no longer exist).
//! Iterative consumers — LU panel updates, purification
//! iterations, repeated solves — call GEMM many times with one shape;
//! [`GemmPlan`] keeps a [`Workspace`] alive across calls so the
//! steady-state does no allocation at all (beyond the output matrix).
//! Results are bit-identical to [`crate::Ozaki2::dgemm`]: the plan runs the
//! very same Algorithm-1 body, only with retained scratch.

use crate::pipeline::{emulate_into, EmulationError, EmulationReport, Ozaki2, Workspace};
use gemm_dense::{MatF64, MatView, MatViewMut, Matrix};

/// Estimated arithmetic intensity of the emulated product's engine phase:
/// INT8 multiply-add operations per byte of memory traffic (packed i16
/// panels streamed per GEMM, INT32 product and UINT8 residue planes
/// written, the folded f64 output).
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
    let bytes = 2.0 * nmod * (mf * kf + kf * nf) // i16 panels, read once per GEMM
        + nmod * (4.0 + 1.0) * mf * nf // c32 write + u8 residue plane
        + 8.0 * mf * nf; // folded f64 output
    ops / bytes
}

/// Pre-allocated workspace for repeated emulated DGEMMs of a fixed shape.
pub struct GemmPlan {
    emu: Ozaki2,
    shape: (usize, usize, usize),
    ws: Workspace,
}

impl GemmPlan {
    /// Build a plan for `m x k · k x n` products with the given emulator.
    /// Any `k` is supported; `k > 2^17` products run PK-aligned depth
    /// windows over the prepacked residue panels (no repacking per block).
    pub fn new(emu: Ozaki2, m: usize, n: usize, k: usize) -> Self {
        Self {
            emu,
            shape: (m, n, k),
            ws: Workspace::new(),
        }
    }

    /// The plan's `(m, n, k)`.
    pub fn shape(&self) -> (usize, usize, usize) {
        self.shape
    }

    /// Current workspace footprint in bytes (grows to its high-water mark
    /// on first execution, then stays flat).
    pub fn workspace_bytes(&self) -> usize {
        self.ws.bytes()
    }

    /// Run one product, reusing the workspace. Bit-identical to
    /// [`Ozaki2::dgemm`] on the same inputs.
    ///
    /// # Panics
    /// On shape mismatch or non-finite input.
    pub fn execute(&mut self, a: &MatF64, b: &MatF64) -> MatF64 {
        let (m, n, _) = self.shape;
        let mut out = Matrix::<f64>::zeros(m, n);
        self.execute_into(a, b, &mut out);
        out
    }

    /// Run one product into a caller-owned output matrix (fully
    /// overwritten): with the workspace retained and the output reused,
    /// the steady state performs **zero** heap allocations per call. Used
    /// by the batched runtime's per-item execution. Bit-identical to
    /// [`GemmPlan::execute`] / [`Ozaki2::dgemm`].
    ///
    /// # Panics
    /// On shape mismatch (including `c`) or non-finite input.
    pub fn execute_into(&mut self, a: &MatF64, b: &MatF64, c: &mut MatF64) {
        let (m, n, k) = self.shape;
        assert_eq!(a.shape(), (m, k), "A shape mismatch");
        assert_eq!(b.shape(), (k, n), "B shape mismatch");
        assert_eq!(c.shape(), (m, n), "C shape mismatch");
        assert!(
            a.iter().all(|x| x.is_finite()) && b.iter().all(|x| x.is_finite()),
            "inputs must be finite"
        );
        emulate_into(
            a,
            b,
            self.emu.n_moduli(),
            self.emu.mode(),
            self.emu.fault_policy(),
            &mut self.ws,
            true,
            c.as_mut_slice(),
        );
    }

    /// Run one product over borrowed strided views (any layout / leading
    /// dimension / transpose), writing into a column-major output view —
    /// the zero-copy, zero-alloc steady state for windowed consumers
    /// (LU panels, blocked solvers slicing one parent allocation).
    /// Bit-identical to [`GemmPlan::execute`] on equal elements.
    pub fn execute_views_into(
        &mut self,
        a: MatView<'_, f64>,
        b: MatView<'_, f64>,
        c: MatViewMut<'_, f64>,
    ) -> Result<EmulationReport, EmulationError> {
        let (m, n, k) = self.shape;
        if a.shape() != (m, k) || b.shape() != (k, n) || c.shape() != (m, n) {
            return Err(EmulationError::ShapeMismatch);
        }
        crate::facade::emulate_view_into(
            a,
            b,
            self.emu.n_moduli(),
            self.emu.mode(),
            &mut self.ws,
            true,
            1.0,
            0.0,
            c,
            true,
            true,
            self.emu.fault_policy(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Mode;
    use gemm_dense::workload::phi_matrix_f64;

    #[test]
    fn plan_matches_one_shot_bitwise() {
        let (m, n, k) = (24usize, 20, 36);
        let emu = Ozaki2::new(13, Mode::Fast);
        let mut plan = GemmPlan::new(emu, m, n, k);
        for seed in 0..4u64 {
            let a = phi_matrix_f64(m, k, 0.7, seed, 0);
            let b = phi_matrix_f64(k, n, 0.7, seed, 1);
            assert_eq!(plan.execute(&a, &b), emu.dgemm(&a, &b), "seed={seed}");
        }
    }

    #[test]
    fn plan_matches_accurate_mode() {
        let (m, n, k) = (16usize, 16, 24);
        let emu = Ozaki2::new(10, Mode::Accurate);
        let mut plan = GemmPlan::new(emu, m, n, k);
        let a = phi_matrix_f64(m, k, 2.0, 9, 0);
        let b = phi_matrix_f64(k, n, 2.0, 9, 1);
        assert_eq!(plan.execute(&a, &b), emu.dgemm(&a, &b));
    }

    #[test]
    fn workspace_reaches_steady_state() {
        let (m, n, k) = (32usize, 24, 40);
        let nmod = 15usize;
        let mut plan = GemmPlan::new(Ozaki2::new(nmod, Mode::Fast), m, n, k);
        let a = phi_matrix_f64(m, k, 0.5, 3, 0);
        let b = phi_matrix_f64(k, n, 0.5, 3, 1);
        let _ = plan.execute(&a, &b);
        let after_first = plan.workspace_bytes();
        // At least the dominant buffers must be resident: the packed i16
        // panel sets (one per modulus, padded), U planes (u8) and C32.
        let floor = nmod * 2 * (m * k + k * n) + nmod * m * n + 4 * m * n;
        assert!(
            after_first >= floor,
            "workspace too small: {after_first} < {floor}"
        );
        for _ in 0..3 {
            let _ = plan.execute(&a, &b);
            assert_eq!(
                plan.workspace_bytes(),
                after_first,
                "steady state must not allocate"
            );
        }
    }

    #[test]
    fn execute_into_bit_identical_and_alloc_free() {
        let (m, n, k) = (20usize, 16, 28);
        let emu = Ozaki2::new(12, Mode::Fast);
        let mut plan = GemmPlan::new(emu, m, n, k);
        let mut out = MatF64::zeros(m, n);
        let a = phi_matrix_f64(m, k, 0.6, 1, 0);
        let b = phi_matrix_f64(k, n, 0.6, 1, 1);
        plan.execute_into(&a, &b, &mut out);
        assert_eq!(out, emu.dgemm(&a, &b));
        let steady = plan.workspace_bytes();
        for seed in 2..5u64 {
            let a = phi_matrix_f64(m, k, 0.6, seed, 0);
            let b = phi_matrix_f64(k, n, 0.6, seed, 1);
            plan.execute_into(&a, &b, &mut out);
            assert_eq!(out, emu.dgemm(&a, &b), "seed={seed}");
            assert_eq!(
                plan.workspace_bytes(),
                steady,
                "steady state must not allocate"
            );
        }
    }

    #[test]
    #[should_panic(expected = "C shape mismatch")]
    fn execute_into_rejects_wrong_output_shape() {
        let mut plan = GemmPlan::new(Ozaki2::new(8, Mode::Fast), 8, 8, 8);
        let a = MatF64::zeros(8, 8);
        let b = MatF64::zeros(8, 8);
        let mut c = MatF64::zeros(8, 7);
        plan.execute_into(&a, &b, &mut c);
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
    #[should_panic(expected = "A shape mismatch")]
    fn plan_rejects_wrong_shape() {
        let mut plan = GemmPlan::new(Ozaki2::new(8, Mode::Fast), 8, 8, 8);
        let a = MatF64::zeros(9, 8);
        let b = MatF64::zeros(8, 8);
        let _ = plan.execute(&a, &b);
    }
}
