//! # gemm-engine
//!
//! Simulated matrix engines — the "hardware" substrate of the reproduction:
//!
//! * [`isa`](mod@isa) — the one CPU-feature probe ([`Isa`], [`isa()`]) every
//!   runtime-dispatched kernel in the workspace derives its level from, with
//!   the `OZAKI_FORCE_SCALAR` override folded in, the thread-local cap
//!   ([`cap_scope`], [`engine_isa`]), and the one safe dispatcher
//!   ([`dispatch`]) every row kernel runs through;
//! * [`int8`] — the INT8 matrix engine (`i8 × i8 → i32`, wrapping INT32
//!   accumulation) that Ozaki Scheme I/II run on: AMX tiles where the CPU
//!   has them, SIMD kernels otherwise. Every call counts into the
//!   `gemm_obs` catalog (`ENGINE_INT8_CALLS`, `ENGINE_INT8_MACS`) when
//!   observability is armed;
//! * [`tensor`] — FP16/BF16/TF32 tensor-core engines with FP32 accumulation
//!   that the SGEMM baselines run on;
//! * [`faultinject`] — deterministic bit-flip injection at named pipeline
//!   sites, the substrate of the `ozaki2` fault-tolerant execution layer.

#![warn(missing_docs)]

pub mod faultinject;
pub mod int8;
pub mod isa;
pub mod tensor;

pub use int8::{
    barrett_addmod_row_u8, barrett_addmod_row_u8_scalar, barrett_mod_row_u8,
    barrett_mod_row_u8_scalar, barrett_mod_u8, int8_gemm_blocked, int8_gemm_naive,
    int8_gemm_prepacked_fused, int8_gemm_rm_cm_scalar, microkernel_name, mod_kernel_name,
    pack_panels, padded_a_rows, padded_b_cols, padded_depth, AddModEpilogue, Epilogue,
    Int8Workspace, NoEpilogue, ReduceEpilogue, MR, NR, PK, PV,
};
pub use isa::{cap_scope, dispatch, dispatch_name, engine_isa, for_each_level, isa, Isa, Kernel};
pub use tensor::{dequantize, lowfp_gemm, quantize};
