//! `GemmArgs::parallel(false)` keeps the whole call on the calling
//! thread: no phase submits a task to the worker pool, in either mode.
//! This lives in its own test binary because the pool-task counter is
//! process-global.

use gemm_dense::workload::phi_matrix_f64;
use gemm_dense::Matrix;
use gemm_obs::catalog::POOL_TASKS;
use ozaki2::{GemmArgs, Mode, Ozaki2};

/// Pool tasks submitted while `f` runs (the counter only moves while
/// observability is armed).
fn pool_tasks(f: impl FnOnce()) -> u64 {
    let before = POOL_TASKS.value();
    f();
    POOL_TASKS.value() - before
}

#[test]
fn serial_calls_submit_no_pool_tasks() {
    rayon::set_num_threads(2);
    gemm_obs::set_enabled(true);
    let a = phi_matrix_f64(64, 64, 0.5, 1, 0);
    let b = phi_matrix_f64(64, 64, 0.5, 1, 1);
    for mode in [Mode::Fast, Mode::Accurate] {
        let emu = Ozaki2::new(15, mode);
        let mut want = Matrix::<f64>::zeros(64, 64);
        let parallel = pool_tasks(|| {
            emu.gemm_into(GemmArgs::new(&a, &b), want.view_mut())
                .unwrap();
        });
        assert!(parallel > 0, "{mode:?}: a parallel call uses the pool");
        let mut c = Matrix::<f64>::zeros(64, 64);
        let serial = pool_tasks(|| {
            emu.gemm_into(GemmArgs::new(&a, &b).parallel(false), c.view_mut())
                .unwrap();
        });
        assert_eq!(serial, 0, "{mode:?}: a serial call submitted pool tasks");
        assert_eq!(c, want, "{mode:?}");
    }
    gemm_obs::set_enabled(false);
}
