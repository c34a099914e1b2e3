//! # gemm-bench
//!
//! Benchmark harness: shared infrastructure for the `fig*` regeneration
//! binaries (one per paper figure, see `src/bin/`), the `bench_int8` perf
//! snapshot and the criterion microbenches (`benches/`). The serving
//! runtime is measured by perfbench's `serve_mixed` workload, and its
//! exact trace properties are checked by `gemm_serve`'s `tests/trace.rs`.
//!
//! * [`report`] — CSV / aligned-table printing used by every binary;
//! * [`accuracy`] — the Fig. 3 experiment: run every method over the
//!   φ-lognormal workloads against the double-double oracle;
//! * [`check`] — the CI perf-regression gate behind
//!   `bench_int8 --check-against`.

#![warn(missing_docs)]

pub mod accuracy;
pub mod check;
pub mod report;
