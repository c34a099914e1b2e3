//! Operation schedules: the kernels each method launches, with exact
//! flop/byte counts derived from Algorithm 1 and the baseline definitions.
//!
//! The schedules are the *structural* ground truth of the time/power
//! figures: who wins and where the crossovers fall is decided by how many
//! INT8 GEMMs and how much elementwise traffic/arithmetic each method
//! needs, which this module encodes — device constants only set the
//! absolute scale. Elementwise kernels carry both a byte count and a flop
//! count with its precision: on datacenter parts they are bandwidth-bound,
//! but on consumer parts the FP64 conversion arithmetic is compute-bound
//! (FP64 = FP32/64), which is exactly the §5.3 observation that non-GEMM
//! phases stay near 50% on RTX 5080 for DGEMM emulation while SGEMM
//! emulation's FP32 conversions are cheap.

/// Phase tag for breakdown figures (maps to Algorithm 1 lines).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Line 1 (scale determination; accurate mode includes `Ā·B̄`).
    Scale,
    /// Lines 2–3 (truncation).
    Trunc,
    /// Lines 4–5 (INT8 conversion).
    Convert,
    /// Line 6 (INT8 GEMMs).
    Int8Gemm,
    /// Line 7 (INT32→UINT8 reduction).
    ModReduce,
    /// Lines 8–12 (accumulation, fold, inverse scale).
    Fold,
    /// A native / baseline GEMM kernel.
    NativeGemm,
    /// Baseline split/combine elementwise work.
    Aux,
}

impl Phase {
    /// Display label in Algorithm-1 terms.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Scale => "scale (line 1)",
            Phase::Trunc => "trunc (lines 2-3)",
            Phase::Convert => "convert (lines 4-5)",
            Phase::Int8Gemm => "int8 GEMM (line 6)",
            Phase::ModReduce => "mod (line 7)",
            Phase::Fold => "fold (lines 8-12)",
            Phase::NativeGemm => "GEMM",
            Phase::Aux => "split/combine",
        }
    }
}

/// GEMM input precision (selects peak rate and power).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GemmPrecision {
    /// FP64 (tensor-core path where available).
    F64,
    /// FP32.
    F32,
    /// TF32 tensor core.
    Tf32,
    /// FP16 tensor core.
    F16,
    /// BF16 tensor core.
    Bf16,
    /// INT8 tensor core.
    Int8,
}

impl GemmPrecision {
    /// Bytes per input element.
    pub fn in_bytes(self) -> f64 {
        match self {
            GemmPrecision::F64 => 8.0,
            GemmPrecision::F32 | GemmPrecision::Tf32 => 4.0,
            GemmPrecision::F16 | GemmPrecision::Bf16 => 2.0,
            GemmPrecision::Int8 => 1.0,
        }
    }

    /// Bytes per output element.
    pub fn out_bytes(self) -> f64 {
        match self {
            GemmPrecision::F64 => 8.0,
            GemmPrecision::Int8 => 4.0, // INT32 accumulator
            _ => 4.0,
        }
    }
}

/// Arithmetic precision of an elementwise kernel's flops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ElemFp {
    /// FP64 arithmetic (runs at the CUDA-core FP64 rate).
    F64,
    /// FP32 / integer ALU arithmetic (runs at the FP32 rate).
    F32,
}

/// One kernel launch.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// A GEMM of the given shape and precision.
    Gemm {
        /// Phase tag.
        phase: Phase,
        /// Input precision.
        precision: GemmPrecision,
        /// Shape.
        m: usize,
        /// Shape.
        n: usize,
        /// Shape.
        k: usize,
    },
    /// An elementwise kernel moving `bytes` and executing `flops`.
    Elementwise {
        /// Phase tag.
        phase: Phase,
        /// Total bytes read + written.
        bytes: f64,
        /// Arithmetic operations executed.
        flops: f64,
        /// Precision of those operations.
        fp: ElemFp,
    },
}

/// Schedule for native DGEMM.
pub fn native_dgemm(m: usize, n: usize, k: usize) -> Vec<Op> {
    vec![Op::Gemm {
        phase: Phase::NativeGemm,
        precision: GemmPrecision::F64,
        m,
        n,
        k,
    }]
}

/// Schedule for native SGEMM.
pub fn native_sgemm(m: usize, n: usize, k: usize) -> Vec<Op> {
    vec![Op::Gemm {
        phase: Phase::NativeGemm,
        precision: GemmPrecision::F32,
        m,
        n,
        k,
    }]
}

/// Schedule for TF32GEMM (quantise + one TF32 GEMM).
pub fn tf32gemm(m: usize, n: usize, k: usize) -> Vec<Op> {
    let elems = (m * k + k * n) as f64;
    vec![
        Op::Elementwise {
            phase: Phase::Aux,
            bytes: 8.0 * elems,
            flops: elems,
            fp: ElemFp::F32,
        },
        Op::Gemm {
            phase: Phase::NativeGemm,
            precision: GemmPrecision::Tf32,
            m,
            n,
            k,
        },
    ]
}

/// Schedule for BF16x9 (3-way split of each operand, 9 BF16 GEMMs).
pub fn bf16x9(m: usize, n: usize, k: usize) -> Vec<Op> {
    let elems = (m * k + k * n) as f64;
    let mut ops = vec![Op::Elementwise {
        // read f32 operands + write 3 bf16 planes each; ~6 flops/element.
        phase: Phase::Aux,
        bytes: (4.0 + 3.0 * 2.0) * elems,
        flops: 6.0 * elems,
        fp: ElemFp::F32,
    }];
    for _ in 0..9 {
        ops.push(Op::Gemm {
            phase: Phase::NativeGemm,
            precision: GemmPrecision::Bf16,
            m,
            n,
            k,
        });
    }
    // Combine: 9 f32 partial reads + 1 write.
    ops.push(Op::Elementwise {
        phase: Phase::Aux,
        bytes: 10.0 * 4.0 * (m * n) as f64,
        flops: 18.0 * (m * n) as f64,
        fp: ElemFp::F32,
    });
    ops
}

/// Schedule for cuMpSGEMM FP16TCEC_SCALING (2-way split, 3 FP16 GEMMs).
pub fn cumpsgemm(m: usize, n: usize, k: usize) -> Vec<Op> {
    let elems = (m * k + k * n) as f64;
    let mut ops = vec![Op::Elementwise {
        phase: Phase::Aux,
        bytes: (4.0 + 2.0 * 2.0) * elems,
        flops: 5.0 * elems,
        fp: ElemFp::F32,
    }];
    for _ in 0..3 {
        ops.push(Op::Gemm {
            phase: Phase::NativeGemm,
            precision: GemmPrecision::F16,
            m,
            n,
            k,
        });
    }
    ops.push(Op::Elementwise {
        phase: Phase::Aux,
        bytes: 4.0 * 4.0 * (m * n) as f64,
        flops: 5.0 * (m * n) as f64,
        fp: ElemFp::F32,
    });
    ops
}

/// Schedule for ozIMMU_EF with `S` slices: `S(S+1)/2` INT8 GEMMs plus f64
/// slicing and f64 accumulation traffic.
pub fn ozimmu(m: usize, n: usize, k: usize, slices: usize) -> Vec<Op> {
    let elems = (m * k + k * n) as f64;
    let pairs = slices * (slices + 1) / 2;
    let mut ops = vec![Op::Elementwise {
        // Slicing: read f64 operands, write S INT8 planes; ~3 f64 ops per
        // slice element.
        phase: Phase::Convert,
        bytes: (8.0 + slices as f64) * elems,
        flops: 3.0 * slices as f64 * elems,
        fp: ElemFp::F64,
    }];
    for _ in 0..pairs {
        ops.push(Op::Gemm {
            phase: Phase::Int8Gemm,
            precision: GemmPrecision::Int8,
            m,
            n,
            k,
        });
        // Each INT32 result folds into the f64 accumulator.
        ops.push(Op::Elementwise {
            phase: Phase::Fold,
            bytes: (4.0 + 2.0 * 8.0) * (m * n) as f64,
            flops: 3.0 * (m * n) as f64,
            fp: ElemFp::F64,
        });
    }
    ops
}

/// Operating mode for the Ozaki Scheme II schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Os2Mode {
    /// Fast (Cauchy–Schwarz) scaling.
    Fast,
    /// Accurate (INT8-estimate) scaling.
    Accurate,
}

/// Input width for the Ozaki Scheme II schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Os2Input {
    /// DGEMM emulation (f64 operands).
    F64,
    /// SGEMM emulation (f32 operands).
    F32,
}

/// Schedule for Ozaki Scheme II (Algorithm 1) with `nmod` moduli.
pub fn ozaki2(
    m: usize,
    n: usize,
    k: usize,
    nmod: usize,
    mode: Os2Mode,
    input: Os2Input,
) -> Vec<Op> {
    let (el, fp) = match input {
        Os2Input::F64 => (8.0, ElemFp::F64),
        Os2Input::F32 => (4.0, ElemFp::F32),
    };
    let mk = (m * k) as f64;
    let kn = (k * n) as f64;
    let mn = (m * n) as f64;
    let nm = nmod as f64;
    let mut ops = Vec::new();

    // Line 1: scale vectors.
    match mode {
        Os2Mode::Fast => {
            // Two passes over each operand (max, then round-up norms):
            // ~4 arithmetic ops per element in the input precision.
            ops.push(Op::Elementwise {
                phase: Phase::Scale,
                bytes: 2.0 * el * (mk + kn),
                flops: 4.0 * (mk + kn),
                fp,
            });
        }
        Os2Mode::Accurate => {
            // Magnitude quantisation + estimation GEMM + C̄ row/col maxima.
            ops.push(Op::Elementwise {
                phase: Phase::Scale,
                bytes: (el + 1.0) * (mk + kn),
                flops: 3.0 * (mk + kn),
                fp,
            });
            ops.push(Op::Gemm {
                phase: Phase::Scale,
                precision: GemmPrecision::Int8,
                m,
                n,
                k,
            });
            ops.push(Op::Elementwise {
                phase: Phase::Scale,
                bytes: 4.0 * mn,
                flops: 2.0 * mn,
                fp: ElemFp::F32,
            });
        }
    }
    // Lines 2–3: truncation (read + write both operands, 2 ops/element).
    ops.push(Op::Elementwise {
        phase: Phase::Trunc,
        bytes: 2.0 * el * (mk + kn),
        flops: 2.0 * (mk + kn),
        fp,
    });
    // Lines 4–5: conversion — GEMMul8 fuses this into one read of the
    // integer matrix and N INT8 plane writes; the fast rmod costs ~10
    // arithmetic ops per plane element in the input precision.
    ops.push(Op::Elementwise {
        phase: Phase::Convert,
        bytes: (el + nm) * (mk + kn),
        flops: 10.0 * nm * (mk + kn),
        fp,
    });
    // Line 6: N INT8 GEMMs; line 7: INT32 read + UINT8 write per plane
    // (~5 integer ALU ops, modelled at the FP32 rate).
    for _ in 0..nmod {
        ops.push(Op::Gemm {
            phase: Phase::Int8Gemm,
            precision: GemmPrecision::Int8,
            m,
            n,
            k,
        });
        ops.push(Op::Elementwise {
            phase: Phase::ModReduce,
            bytes: 5.0 * mn,
            flops: 5.0 * mn,
            fp: ElemFp::F32,
        });
    }
    // Lines 8–12: read N UINT8 planes, write the output once; the
    // accumulation and fold are FP64 regardless of input precision
    // (Algorithm 1 lines 8–11 are F64 for both DGEMM and SGEMM).
    let fold_flops_per_elem = match input {
        Os2Input::F64 => 2.0 * nm + 8.0,
        Os2Input::F32 => nm + 8.0, // s2 = 0
    };
    ops.push(Op::Elementwise {
        phase: Phase::Fold,
        bytes: (nm + el) * mn,
        flops: fold_flops_per_elem * mn,
        fp: ElemFp::F64,
    });
    ops
}

/// Total flops (2mnk) represented by a schedule's *logical* product —
/// the numerator of "equivalent TFLOPS".
pub fn logical_flops(m: usize, n: usize, k: usize) -> f64 {
    2.0 * m as f64 * n as f64 * k as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gemm_count(ops: &[Op]) -> usize {
        ops.iter().filter(|o| matches!(o, Op::Gemm { .. })).count()
    }

    #[test]
    fn ozaki2_issues_n_gemms_fast() {
        let ops = ozaki2(64, 64, 64, 14, Os2Mode::Fast, Os2Input::F64);
        assert_eq!(gemm_count(&ops), 14);
    }

    #[test]
    fn ozaki2_issues_n_plus_one_gemms_accurate() {
        let ops = ozaki2(64, 64, 64, 14, Os2Mode::Accurate, Os2Input::F64);
        assert_eq!(gemm_count(&ops), 15);
    }

    #[test]
    fn ozimmu_issues_triangular_gemms() {
        assert_eq!(gemm_count(&ozimmu(8, 8, 8, 8)), 36);
        assert_eq!(gemm_count(&ozimmu(8, 8, 8, 9)), 45);
    }

    #[test]
    fn scheme2_beats_scheme1_in_gemm_count() {
        // The paper's structural advantage: 14–17 GEMMs vs 36–45.
        assert!(
            gemm_count(&ozaki2(8, 8, 8, 17, Os2Mode::Fast, Os2Input::F64)) * 2
                < gemm_count(&ozimmu(8, 8, 8, 8))
        );
    }

    #[test]
    fn sgemm_baselines_counts() {
        assert_eq!(gemm_count(&bf16x9(8, 8, 8)), 9);
        assert_eq!(gemm_count(&cumpsgemm(8, 8, 8)), 3);
        assert_eq!(gemm_count(&tf32gemm(8, 8, 8)), 1);
        assert_eq!(gemm_count(&native_sgemm(8, 8, 8)), 1);
    }

    #[test]
    fn elementwise_bytes_scale_linearly_with_n_moduli() {
        let b = |nmod| -> f64 {
            ozaki2(128, 128, 128, nmod, Os2Mode::Fast, Os2Input::F64)
                .iter()
                .map(|o| match o {
                    Op::Elementwise { bytes, .. } => *bytes,
                    _ => 0.0,
                })
                .sum()
        };
        let d1 = b(10) - b(8);
        let d2 = b(12) - b(10);
        assert!(
            (d1 - d2).abs() < 1e-6,
            "convert traffic must be linear in N"
        );
    }

    #[test]
    fn sgemm_conversion_flops_run_in_f32() {
        // §5.3: the FP32 conversion path is what rescues SGEMM emulation
        // on consumer silicon.
        let ops = ozaki2(64, 64, 64, 8, Os2Mode::Fast, Os2Input::F32);
        let convert_fp = ops.iter().find_map(|o| match o {
            Op::Elementwise {
                phase: Phase::Convert,
                fp,
                ..
            } => Some(*fp),
            _ => None,
        });
        assert_eq!(convert_fp, Some(ElemFp::F32));
        // While the fold stays F64 in both pipelines.
        let fold_fp = ops.iter().find_map(|o| match o {
            Op::Elementwise {
                phase: Phase::Fold,
                fp,
                ..
            } => Some(*fp),
            _ => None,
        });
        assert_eq!(fold_fp, Some(ElemFp::F64));
    }
}
