//! The engine invocation counters ([`INT8_STATS`], [`LOWFP_STATS`]) are
//! process-global, and these tests reset them and assert exact counts.
//! They live in a test binary of their own, where nothing else calls the
//! engines concurrently; as lib unit tests they raced every other test
//! in that binary that runs a GEMM.

use gemm_dense::{MatI8, Matrix};
use gemm_engine::{int8_gemm, lowfp_gemm, INT8_STATS, LOWFP_STATS};

mod int8 {
    use super::*;

    fn pattern_mat(rows: usize, cols: usize, salt: i32) -> MatI8 {
        Matrix::from_fn(rows, cols, |i, j| {
            (((i as i32 * 31 + j as i32 * 17 + salt) % 255) - 127) as i8
        })
    }

    #[test]
    fn records_stats() {
        INT8_STATS.reset();
        let a = pattern_mat(4, 8, 3);
        let b = pattern_mat(8, 2, 4);
        let _ = int8_gemm(&a, &b);
        assert_eq!(INT8_STATS.calls(), 1);
        assert_eq!(INT8_STATS.macs(), 4 * 8 * 2);
    }
}

mod tensor {
    use super::*;
    use gemm_lowfp::F16;

    #[test]
    fn records_stats() {
        LOWFP_STATS.reset();
        let a = Matrix::from_fn(2, 3, |_, _| F16::from_f32(1.0));
        let b = Matrix::from_fn(3, 2, |_, _| F16::from_f32(1.0));
        let _ = lowfp_gemm(&a, &b);
        assert_eq!(LOWFP_STATS.calls(), 1);
        assert_eq!(LOWFP_STATS.macs(), 12);
    }
}
