//! # gemmul8 — Rust reproduction of "High-Performance and Power-Efficient
//! # Emulation of Matrix Multiplication using INT8 Matrix Engines" (SC'25)
//!
//! This umbrella crate re-exports the whole system. The short version:
//!
//! ```
//! use gemmul8::prelude::*;
//!
//! // The paper's workload generator (phi = 0.5 is HPL-like).
//! let a = phi_matrix_f64(64, 64, 0.5, 42, 0);
//! let b = phi_matrix_f64(64, 64, 0.5, 42, 1);
//!
//! // Emulated DGEMM via Ozaki Scheme II on the INT8 engine.
//! let c = Ozaki2::new(15, Mode::Fast).dgemm(&a, &b);
//!
//! // Compare against native DGEMM.
//! let reference = NativeDgemm.matmul_f64(&a, &b);
//! let err = max_relative_error(&c, &reference);
//! assert!(err < 1e-12, "N = 15 is double-precision level: {err:e}");
//! ```
//!
//! Crate map (see docs/ARCHITECTURE.md for the full inventory):
//!
//! * [`ozaki2`] — the paper's contribution (Algorithm 1);
//! * [`gemm_batch`] — batched runtime: prepared-operand cache, workspace
//!   pool, many-GEMM scheduler;
//! * [`gemm_serve`] — many-tenant serving runtime: bounded submission
//!   queue, intensity-driven coalescing, deadline shedding, per-tenant
//!   accounting (see docs/SERVING.md);
//! * [`gemm_dense`] — matrices, native GEMM, Philox RNG, workloads;
//! * [`gemm_engine`] — the simulated INT8 / FP16 / BF16 / TF32 engines;
//! * [`gemm_lowfp`] — software low-precision formats;
//! * [`gemm_exact`] — double-double + 256-bit exact arithmetic (oracles);
//! * [`gemm_baselines`] — ozIMMU, cuMpSGEMM, BF16x9, TF32GEMM;
//! * [`gemm_perfmodel`] — calibrated device model for the paper's figures.

#![warn(missing_docs)]

pub mod apps;

pub use gemm_baselines;
pub use gemm_batch;
pub use gemm_dense;
pub use gemm_engine;
pub use gemm_exact;
pub use gemm_lowfp;
pub use gemm_perfmodel;
pub use gemm_serve;
pub use ozaki2;

/// Everything a typical user needs in scope.
pub mod prelude {
    pub use gemm_baselines::{Bf16x9, CuMpSgemm, OzImmu, Tf32Gemm};
    pub use gemm_batch::{BatchedOzaki2, StridedBatch, WorkspacePool};
    pub use gemm_dense::norms::{max_relative_error, normwise_relative_error};
    pub use gemm_dense::workload::{phi_matrix_f32, phi_matrix_f64, PHI_HPL};
    pub use gemm_dense::{
        Layout, MatF32, MatF64, MatMulF32, MatMulF64, MatView, MatViewMut, Matrix, NativeDgemm,
        NativeSgemm, Philox4x32,
    };
    pub use gemm_exact::{dd_gemm, max_rel_error_vs_dd, Dd};
    pub use gemm_serve::{GemmRequest, JobHandle, Server, TenantStats};
    pub use ozaki2::{
        Accuracy, GemmArgs, GemmOp, GemmOut, Mode, OperandSide, Ozaki2, PreparedOperand, Workspace,
    };
}
