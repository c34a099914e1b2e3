//! The engine's invocation counters (`gemm_obs::catalog::ENGINE_INT8_CALLS`
//! and `ENGINE_INT8_MACS`) are process-global, and this test asserts exact
//! deltas. It lives in a test binary of its own, where nothing else calls
//! the engine concurrently; as a lib unit test it would race every other
//! test in that binary that runs a GEMM.

use gemm_engine::{int8_gemm_blocked, Int8Workspace};
use gemm_obs::catalog::{ENGINE_INT8_CALLS, ENGINE_INT8_MACS};

mod int8 {
    use super::*;

    #[test]
    fn records_stats() {
        gemm_obs::set_enabled(true);
        let (m, n, k) = (4usize, 2usize, 8usize);
        let a: Vec<i8> = (0..m * k).map(|i| (i % 7) as i8 - 3).collect();
        let b: Vec<i8> = (0..k * n).map(|i| (i % 5) as i8 - 2).collect();
        let mut c = vec![0i32; m * n];
        let (calls, macs) = (ENGINE_INT8_CALLS.value(), ENGINE_INT8_MACS.value());
        int8_gemm_blocked(m, n, k, &a, &b, &mut c, &mut Int8Workspace::new());
        assert_eq!(ENGINE_INT8_CALLS.value() - calls, 1);
        assert_eq!(ENGINE_INT8_MACS.value() - macs, (m * n * k) as u64);
    }
}
