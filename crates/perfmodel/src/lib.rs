//! # gemm-perfmodel
//!
//! Analytic device model that regenerates the *shape* of the paper's
//! throughput and power figures. The substitution (documented in
//! docs/ARCHITECTURE.md): the paper measures wall-clock and NVML power on A100 /
//! GH200 / RTX 5080; we have no GPU, so we model each method's kernel
//! schedule (exact flop and byte counts from Algorithm 1 and the baseline
//! definitions — [`ops`]) through a roofline time model and per-operation
//! power levels ([`model`]) parameterised by datasheet constants
//! ([`device`]). Calibration unit tests pin the model to the paper's
//! headline numbers (1.4x / +43% DGEMM, 3.0x / +154% SGEMM on GH200,
//! crossover locations, >2x over ozIMMU).

#![warn(missing_docs)]

pub mod device;
pub mod figures;
pub mod model;
pub mod ops;

pub use device::{a100, evaluation_devices, gh200, rtx5080, DeviceSpec, FIG1_DATASHEET};
pub use figures::{
    breakdown, fig4_dgemm_throughput, fig5_sgemm_throughput, fig8_dgemm_power, fig9_sgemm_power,
    headline, BreakdownBar, Headline, Metric, Series, SWEEP_NS,
};
pub use model::{PerfModel, RunEstimate};
pub use ops::{Op, Os2Input, Os2Mode, Phase};
