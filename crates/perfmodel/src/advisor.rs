//! Shape advisor: should this product be emulated at all?
//!
//! The paper's introduction explicitly scopes the method: "matrix
//! multiplication involving tall-and-skinny or small-scale matrices is not
//! considered … such cases fail to fully utilize the computational
//! capabilities of matrix engines and tend to expose performance
//! bottlenecks in the emulation, resulting in memory-bound behavior."
//! This module turns that scoping rule into a queryable decision: given a
//! shape, a device, and an accuracy target, compare the modelled cost of
//! native GEMM against the emulation and recommend one.

use crate::device::DeviceSpec;
use crate::model::PerfModel;
use crate::ops::{self, Os2Input, Os2Mode};

/// The advisor's verdict.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Recommendation {
    /// Run the native (FP64/FP32) GEMM: emulation would be slower.
    Native,
    /// Emulate with the given moduli count; `speedup` is the modelled
    /// time ratio native/emulated (> 1).
    Emulate {
        /// Moduli count to use.
        n_moduli: usize,
        /// Modelled speedup over the native product.
        speedup: f64,
    },
}

/// Recommend native vs emulated DGEMM for an `m x k · k x n` product.
///
/// `n_moduli` is the accuracy-driven moduli count (e.g. from
/// `ozaki2::n_for_dgemm_level(k)`).
pub fn recommend_dgemm(
    device: DeviceSpec,
    m: usize,
    n: usize,
    k: usize,
    n_moduli: usize,
) -> Recommendation {
    let model = PerfModel::new(device);
    let native = model.run(&ops::native_dgemm(m, n, k)).time_s;
    let emulated = model
        .run(&ops::ozaki2(
            m,
            n,
            k,
            n_moduli,
            Os2Mode::Fast,
            Os2Input::F64,
        ))
        .time_s;
    if emulated < native {
        Recommendation::Emulate {
            n_moduli,
            speedup: native / emulated,
        }
    } else {
        Recommendation::Native
    }
}

/// Recommend native vs emulated SGEMM.
pub fn recommend_sgemm(
    device: DeviceSpec,
    m: usize,
    n: usize,
    k: usize,
    n_moduli: usize,
) -> Recommendation {
    let model = PerfModel::new(device);
    let native = model.run(&ops::native_sgemm(m, n, k)).time_s;
    let emulated = model
        .run(&ops::ozaki2(
            m,
            n,
            k,
            n_moduli,
            Os2Mode::Fast,
            Os2Input::F32,
        ))
        .time_s;
    if emulated < native {
        Recommendation::Emulate {
            n_moduli,
            speedup: native / emulated,
        }
    } else {
        Recommendation::Native
    }
}

/// True if the shape is in the regime the paper excludes (tall-and-skinny
/// or small): any dimension below `min_dim` or an aspect ratio beyond
/// `max_aspect`.
pub fn is_excluded_shape(m: usize, n: usize, k: usize) -> bool {
    const MIN_DIM: usize = 512;
    const MAX_ASPECT: usize = 32;
    let dims = [m, n, k];
    let lo = *dims.iter().min().unwrap();
    let hi = *dims.iter().max().unwrap();
    lo < MIN_DIM || hi / lo.max(1) > MAX_ASPECT
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{gh200, rtx5080};

    #[test]
    fn large_square_dgemm_emulates_on_gh200() {
        match recommend_dgemm(gh200(), 16384, 16384, 16384, 14) {
            Recommendation::Emulate { speedup, .. } => {
                assert!((1.2..1.7).contains(&speedup), "speedup={speedup}")
            }
            r => panic!("expected emulation, got {r:?}"),
        }
    }

    #[test]
    fn small_dgemm_stays_native_on_gh200() {
        assert_eq!(
            recommend_dgemm(gh200(), 1024, 1024, 1024, 15),
            Recommendation::Native
        );
    }

    #[test]
    fn tall_skinny_stays_native_on_gh200() {
        // 1M x 64 * 64 x 1M-ish panels: k tiny => conversion overhead per
        // flop explodes; the model must say native.
        assert_eq!(
            recommend_dgemm(gh200(), 65536, 64, 64, 15),
            Recommendation::Native
        );
    }

    #[test]
    fn rtx5080_always_emulates_dgemm() {
        for &(m, n, k) in &[(1024usize, 1024usize, 1024usize), (8192, 8192, 8192)] {
            assert!(matches!(
                recommend_dgemm(rtx5080(), m, n, k, 14),
                Recommendation::Emulate { .. }
            ));
        }
    }

    #[test]
    fn excluded_shape_predicate() {
        assert!(is_excluded_shape(100, 4096, 4096)); // small m
        assert!(is_excluded_shape(65536, 1024, 1024)); // 64:1 aspect
        assert!(!is_excluded_shape(4096, 4096, 4096));
        assert!(!is_excluded_shape(2048, 1024, 4096));
    }

    #[test]
    fn sgemm_recommendation_flips_with_size_on_gh200() {
        assert_eq!(
            recommend_sgemm(gh200(), 1024, 1024, 1024, 8),
            Recommendation::Native
        );
        assert!(matches!(
            recommend_sgemm(gh200(), 16384, 16384, 16384, 8),
            Recommendation::Emulate { .. }
        ));
    }
}
