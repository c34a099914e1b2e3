//! # ozaki2 — the paper's contribution
//!
//! DGEMM and SGEMM emulation via **Ozaki Scheme II** on INT8 matrix engines
//! (Uchino, Ozaki, Imamura — SC'25). Instead of splitting significands like
//! Ozaki Scheme I / cuMpSGEMM / BF16x9, the input product is mapped to an
//! exact integer product recovered through the Chinese Remainder Theorem:
//!
//! 1. diagonal power-of-two scaling + truncation turns `A`, `B` into
//!    integer matrices `A'`, `B'` with `2·Σ_h |a'_ih||b'_hj| < P` (§4.2);
//! 2. residues `rmod(A', p_i)`, `rmod(B', p_i)` fit INT8 for the fixed
//!    pairwise-coprime moduli `p_i ≤ 256` (§4.1);
//! 3. the `N` products run on the INT8 engine with INT32 accumulation and
//!    are reduced to UINT8 residues `U_i` (§4.3);
//! 4. a single FP64 pass reconstructs `A'B' = rmod(Σ (P/p_i)q_i U_i, P)`
//!    with a weight split engineered so the hot sum is exact in f64, then
//!    applies the exact inverse scaling.
//!
//! Entry point: [`Ozaki2`] — `gemm`/`gemm_into` for plain products,
//! `prepare`/`execute` to reuse one operand's front end (see the crate
//! examples and `examples/` at the workspace root).
//!
//! ```
//! use ozaki2::{Mode, Ozaki2};
//! use gemm_dense::workload::phi_matrix_f64;
//!
//! let a = phi_matrix_f64(32, 32, 0.5, 42, 0);
//! let b = phi_matrix_f64(32, 32, 0.5, 42, 1);
//! let c = Ozaki2::new(15, Mode::Fast).dgemm(&a, &b);
//! assert_eq!(c.shape(), (32, 32));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abft;
pub mod accumulate;
pub mod blas;
pub mod consts;
pub mod convert;
pub mod element;
pub mod facade;
pub mod mixed;
pub mod moduli;
pub mod nselect;
pub mod pipeline;
pub mod plan;
pub mod prepared;
pub mod scale;

pub use abft::{FaultEvent, FaultPolicy, FaultReport, RecoveryAction};
pub use accumulate::{fold_kernel_name, fold_planes, fold_span, fold_span_scalar, FoldPrecision};
pub use blas::GemmOp;
pub use consts::{constants, Constants};
pub use convert::{
    convert_kernel_name, convert_pack_panels, residue_planes, trunc_convert_pack_panels, ElemSlice,
    TruncSource,
};
pub use element::Element;
pub use facade::{Accuracy, GemmArgs, GemmOut, Ozaki2Builder};
pub use gemm_obs::TimeShare;
pub use mixed::{dgemm_dd, gemm_f32xf64, gemm_f64xf32};
pub use moduli::{moduli, MODULI, N_MAX, N_MAX_SGEMM};
pub use nselect::{
    choose_n, choose_n_checked, n_for_dgemm_level, n_for_sgemm_level, predicted_error,
};
pub use pipeline::{
    EmulationError, EmulationReport, Mode, Ozaki2, PhaseTimes, Workspace, K_BLOCK_MAX,
};
pub use plan::arithmetic_intensity;
pub use prepared::{OperandInput, OperandSide, PreparedOperand};
pub use scale::{
    fast_scale_a_view, fast_scale_b_view, pow2_split, strunc_row, strunc_row_scalar,
    trunc_kernel_name,
};
