//! Simulated low-precision tensor-core engines (FP16 / BF16 / TF32 inputs,
//! FP32 accumulation).
//!
//! NVIDIA tensor cores compute each `a*b` product exactly (the 11-bit x
//! 11-bit significand product fits in FP32's 24 bits) and round once per
//! accumulation into an FP32 accumulator. The software model below has the
//! same two properties, so the baseline emulations built on it (cuMpSGEMM,
//! BF16x9, TF32GEMM) inherit the hardware's rounding behaviour.

use gemm_dense::{MatF32, Matrix};
use gemm_lowfp::LowFloat;
use rayon::prelude::*;

/// Columns of `C` per rayon task.
const COL_CHUNK: usize = 4;

/// GEMM on a low-precision format `T` with FP32 accumulation:
/// `C_f32 = A_T * B_T`.
pub fn lowfp_gemm<T: LowFloat + Default>(a: &Matrix<T>, b: &Matrix<T>) -> MatF32 {
    let (m, k) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(k, kb, "inner dimensions must agree");
    let mut c = Matrix::<f32>::zeros(m, n);
    if m == 0 || n == 0 || k == 0 {
        return c;
    }
    // Widen operands once (the conversion to f32 is exact), pack A row-major.
    let a_rm: Vec<f32> = {
        let mut v = vec![0f32; m * k];
        for h in 0..k {
            let col = a.col(h);
            for (i, &x) in col.iter().enumerate() {
                v[i * k + h] = x.to_f32();
            }
        }
        v
    };
    let b_cm: Vec<f32> = b.iter().map(|&x| x.to_f32()).collect();
    c.as_mut_slice()
        .par_chunks_mut(m * COL_CHUNK)
        .enumerate()
        .for_each(|(chunk_idx, c_chunk)| {
            let j0 = chunk_idx * COL_CHUNK;
            for (dj, c_col) in c_chunk.chunks_exact_mut(m).enumerate() {
                let j = j0 + dj;
                let b_col = &b_cm[j * k..(j + 1) * k];
                for (i, ci) in c_col.iter_mut().enumerate() {
                    let a_row = &a_rm[i * k..(i + 1) * k];
                    // One f32 rounding per accumulate — tensor-core order.
                    let mut acc = 0f32;
                    for (&x, &y) in a_row.iter().zip(b_col.iter()) {
                        acc += x * y;
                    }
                    *ci = acc;
                }
            }
        });
    c
}

/// Round an f32 matrix into format `T` elementwise (RNE), like the GPU
/// conversion kernels that feed tensor cores.
pub fn quantize<T: LowFloat>(a: &MatF32) -> Matrix<T> {
    a.map(T::from_f32)
}

/// Widen a low-precision matrix back to f32 (exact).
pub fn dequantize<T: LowFloat>(a: &Matrix<T>) -> MatF32 {
    a.map(|x| x.to_f32())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemm_lowfp::{Tf32, BF16, F16};

    #[test]
    fn f16_engine_exact_on_small_integers() {
        // Integer inputs |x| <= 64 with k = 16: products <= 4096, sums
        // <= 65536 — everything exact in both f16 inputs and f32 acc.
        let a = Matrix::from_fn(4, 16, |i, j| F16::from_f32((i as f32) - (j % 5) as f32));
        let b = Matrix::from_fn(16, 3, |i, j| {
            F16::from_f32((j as f32) + (i % 7) as f32 - 3.0)
        });
        let c = lowfp_gemm(&a, &b);
        for i in 0..4 {
            for j in 0..3 {
                let mut want = 0f64;
                for h in 0..16 {
                    want += a[(i, h)].to_f32() as f64 * b[(h, j)].to_f32() as f64;
                }
                assert_eq!(c[(i, j)] as f64, want);
            }
        }
    }

    #[test]
    fn bf16_engine_error_within_bound() {
        let a = Matrix::from_fn(8, 32, |i, j| {
            BF16::from_f32(((i * 13 + j * 7) % 17) as f32 / 7.0 - 1.0)
        });
        let b = Matrix::from_fn(32, 8, |i, j| {
            BF16::from_f32(((i * 5 + j * 11) % 13) as f32 / 5.0 - 1.0)
        });
        let c = lowfp_gemm(&a, &b);
        for i in 0..8 {
            for j in 0..8 {
                let mut want = 0f64;
                let mut absmax = 0f64;
                for h in 0..32 {
                    let p = a[(i, h)].to_f32() as f64 * b[(h, j)].to_f32() as f64;
                    want += p;
                    absmax += p.abs();
                }
                // FP32 accumulation error: <= k * eps32 * Σ|products|.
                let bound = 32.0 * 1.2e-7 * absmax + 1e-30;
                assert!(
                    (c[(i, j)] as f64 - want).abs() <= bound,
                    "({i},{j}): got {} want {want}",
                    c[(i, j)]
                );
            }
        }
    }

    #[test]
    fn quantize_dequantize_round_trip_for_representable() {
        let a = Matrix::from_fn(3, 3, |i, j| (i as f32 + 2.0 * j as f32) - 3.0);
        let q = quantize::<Tf32>(&a);
        let back = dequantize(&q);
        assert_eq!(back, a); // small integers are exact in tf32
    }

    #[test]
    fn tf32_engine_loses_precision_vs_f32() {
        // A value needing more than 11 significand bits.
        let x = 1.0 + 2.0_f32.powi(-12);
        let a = Matrix::from_fn(1, 1, |_, _| Tf32::from_f32(x));
        let b = Matrix::from_fn(1, 1, |_, _| Tf32::from_f32(1.0));
        let c = lowfp_gemm(&a, &b);
        assert_eq!(c[(0, 0)], 1.0); // 2^-12 was rounded away on input
    }
}
