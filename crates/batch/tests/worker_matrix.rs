//! Worker-count bit-identity matrix for the batched runtime.
//!
//! The batched scheduler's contract is that the **worker count is not
//! observable in the results**: every batched call is bit-identical to the
//! equivalent sequence of per-item `Ozaki2` calls, at any `OZAKI_WORKERS`,
//! under any task interleaving, with ABFT recovery active or not. These
//! tests sweep the pool through `W ∈ {1, 2, 4, 8}` (and repeat a nested
//! mixed group at `W = 4`) and pin that contract against the sequential
//! oracle.
//!
//! Both CI hardening jobs re-run this file: the fault-injection job
//! (`OZAKI_FAULT_INJECT` + `OZAKI_FAULT_POLICY=retry-then-scalar:2`)
//! exercises concurrent ABFT repair on pool workers, and the forced-scalar
//! job pins the same matrix over the scalar kernels.

use gemm_batch::{BatchedOzaki2, StridedBatch};
use gemm_dense::workload::{phi_matrix_f32, phi_matrix_f64};
use gemm_dense::{MatF32, MatF64};
use gemm_engine::faultinject::{self, FaultSite};
use ozaki2::{FaultPolicy, Mode, Ozaki2};
use std::sync::{Mutex, MutexGuard};

mod common;
use common::{batched, group};

/// Worker counts the matrix sweeps (satellite requirement: 1, 2, 4, 8).
const WORKER_MATRIX: [usize; 4] = [1, 2, 4, 8];

/// The pool and the fault injector are process-global, so every test
/// holds this lock for its whole body, oracle included: an armed one-shot
/// fault fires at the first engine hook anywhere in the process, and an
/// oracle computed concurrently under `FaultPolicy::Off` would absorb it.
static POOL_CONFIG: Mutex<()> = Mutex::new(());

fn pool_lock() -> MutexGuard<'static, ()> {
    POOL_CONFIG.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run `f` at each worker count in the matrix, restoring the machine
/// default afterwards. Callers hold
/// [`pool_lock`].
fn for_each_worker_count(f: impl Fn(usize)) {
    for w in WORKER_MATRIX {
        rayon::set_num_threads(w);
        assert_eq!(rayon::current_num_threads(), w);
        f(w);
    }
    rayon::set_num_threads(0);
}

/// Flatten matrices into one packed stream (stride = item footprint).
fn packed_stream(mats: &[MatF64]) -> Vec<f64> {
    let mut data = Vec::new();
    for m in mats {
        data.extend_from_slice(m.as_slice());
    }
    data
}

/// Low-intensity uniform batch (InterItem at W >= 2): every worker owns
/// whole items with its own checked-out workspace.
#[test]
fn interitem_dgemm_batch_is_bit_identical_at_every_worker_count() {
    let _guard = pool_lock();
    let (m, n, k, nmod, count) = (24usize, 20usize, 12usize, 8usize, 13usize);
    let a_mats: Vec<MatF64> = (0..count)
        .map(|i| phi_matrix_f64(m, k, 0.6, 40 + i as u64, 0))
        .collect();
    let b_mats: Vec<MatF64> = (0..count)
        .map(|i| phi_matrix_f64(k, n, 0.6, 140 + i as u64, 1))
        .collect();
    let a_data = packed_stream(&a_mats);
    let b_data = packed_stream(&b_mats);
    let emu = Ozaki2::new(nmod, Mode::Fast);
    let oracle: Vec<MatF64> = (0..count)
        .map(|i| emu.dgemm(&a_mats[i], &b_mats[i]))
        .collect();

    for_each_worker_count(|w| {
        let runtime = BatchedOzaki2::new(nmod, Mode::Fast);
        let got = batched(
            &runtime,
            &StridedBatch::packed(&a_data, m, k, count),
            &StridedBatch::packed(&b_data, k, n, count),
        );
        for i in 0..count {
            assert_eq!(got[i], oracle[i], "item {i} diverged at W={w}");
        }
    });
}

/// High-intensity items (IntraItem: engine column stripes split across
/// the pool) with a broadcast B, so the shared-operand path runs too.
#[test]
fn intraitem_stripes_are_bit_identical_at_every_worker_count() {
    let _guard = pool_lock();
    // Cube 192 at N = 8: intensity 2Ns/(9N+8) ≈ 38 > 32 ⇒ IntraItem.
    let (m, n, k, nmod, count) = (192usize, 192usize, 192usize, 8usize, 2usize);
    let a_mats: Vec<MatF64> = (0..count)
        .map(|i| phi_matrix_f64(m, k, 0.55, 7 + i as u64, 0))
        .collect();
    let b = phi_matrix_f64(k, n, 0.55, 99, 1);
    let a_data = packed_stream(&a_mats);
    let emu = Ozaki2::new(nmod, Mode::Fast);
    let oracle: Vec<MatF64> = a_mats.iter().map(|a| emu.dgemm(a, &b)).collect();

    for_each_worker_count(|w| {
        let runtime = BatchedOzaki2::new(nmod, Mode::Fast);
        let got = batched(
            &runtime,
            &StridedBatch::packed(&a_data, m, k, count),
            &StridedBatch::broadcast(&b, count),
        );
        for i in 0..count {
            assert_eq!(got[i], oracle[i], "stripe item {i} diverged at W={w}");
        }
    });
}

/// Ragged groups straddling the intensity crossover, with repeated
/// operands (the dedup/sharing path), at every worker count.
#[test]
fn ragged_group_is_bit_identical_at_every_worker_count() {
    let _guard = pool_lock();
    let nmod = 9;
    let big_a = phi_matrix_f64(72, 80, 0.5, 1, 0);
    let big_b = phi_matrix_f64(80, 64, 0.5, 2, 1);
    let shared_a = phi_matrix_f64(12, 16, 0.5, 3, 0);
    let smalls: Vec<(MatF64, MatF64)> = (0..9)
        .map(|i| {
            (
                phi_matrix_f64(10 + i, 14, 0.5, 50 + i as u64, 0),
                phi_matrix_f64(14, 8 + i, 0.5, 70 + i as u64, 1),
            )
        })
        .collect();
    let shared_bs: Vec<MatF64> = (0..4)
        .map(|i| phi_matrix_f64(16, 11, 0.5, 90 + i as u64, 1))
        .collect();

    let mut items: Vec<(&MatF64, &MatF64)> = vec![(&big_a, &big_b)];
    for (a, b) in &smalls {
        items.push((a, b));
    }
    for b in &shared_bs {
        items.push((&shared_a, b)); // shared-A identity, dedup path
    }

    let emu = Ozaki2::new(nmod, Mode::Fast);
    let oracle: Vec<MatF64> = items.iter().map(|(a, b)| emu.dgemm(a, b)).collect();

    for_each_worker_count(|w| {
        let runtime = BatchedOzaki2::new(nmod, Mode::Fast);
        let got = group(&runtime, &items);
        for (i, (g, o)) in got.iter().zip(&oracle).enumerate() {
            assert_eq!(g, o, "group item {i} diverged at W={w}");
        }
    });
}

/// SGEMM batches at every worker count.
#[test]
fn sgemm_batch_is_bit_identical_at_every_worker_count() {
    let _guard = pool_lock();
    let (m, n, k, nmod, count) = (18usize, 15usize, 20usize, 7usize, 11usize);
    let a_mats: Vec<MatF32> = (0..count)
        .map(|i| phi_matrix_f32(m, k, 0.5, 5 + i as u64, 0))
        .collect();
    let b = phi_matrix_f32(k, n, 0.5, 321, 1);
    let mut a_data = Vec::new();
    for a in &a_mats {
        a_data.extend_from_slice(a.as_slice());
    }
    let emu = Ozaki2::new(nmod, Mode::Fast);
    let oracle: Vec<MatF32> = a_mats.iter().map(|a| emu.sgemm(a, &b)).collect();

    for_each_worker_count(|w| {
        let runtime = BatchedOzaki2::new(nmod, Mode::Fast);
        let got = batched(
            &runtime,
            &StridedBatch::packed(&a_data, m, k, count),
            &StridedBatch::broadcast(&b, count),
        );
        for i in 0..count {
            assert_eq!(got[i], oracle[i], "sgemm item {i} diverged at W={w}");
        }
    });
}

/// Scheduling-permutation determinism: a fixed workload with nested
/// regions, run repeatedly so each run meets a different interleaving,
/// must produce identical outputs with no lost items.
#[test]
fn repeated_nested_group_runs_are_bit_identical() {
    let _guard = pool_lock();
    let nmod = 8;
    // Ragged group: one striped item (a nested region) plus a tail of small
    // InterItem fodder, so workers and submitter run both kinds at once.
    let big_a = phi_matrix_f64(80, 72, 0.5, 11, 0);
    let big_b = phi_matrix_f64(72, 96, 0.5, 12, 1);
    let smalls: Vec<(MatF64, MatF64)> = (0..12)
        .map(|i| {
            (
                phi_matrix_f64(9 + i % 5, 13, 0.5, 200 + i as u64, 0),
                phi_matrix_f64(13, 7 + i % 4, 0.5, 230 + i as u64, 1),
            )
        })
        .collect();
    let mut items: Vec<(&MatF64, &MatF64)> = vec![(&big_a, &big_b)];
    for (a, b) in &smalls {
        items.push((a, b));
    }
    let emu = Ozaki2::new(nmod, Mode::Fast);
    let oracle: Vec<MatF64> = items.iter().map(|(a, b)| emu.dgemm(a, b)).collect();

    rayon::set_num_threads(4);
    for run in 0..6 {
        let runtime = BatchedOzaki2::new(nmod, Mode::Fast);
        let got = group(&runtime, &items);
        assert_eq!(got.len(), oracle.len(), "lost items in run {run}");
        for (i, (g, o)) in got.iter().zip(&oracle).enumerate() {
            assert_eq!(g, o, "item {i} diverged in run {run}");
        }
    }
    rayon::set_num_threads(0);
}

/// ABFT repair under concurrency: with a retry-then-scalar policy, an
/// armed single-shot fault lands on whichever worker reaches a hook
/// first, is detected by that item's checksums, and is repaired — the
/// batch stays bit-identical to the fault-free oracle at every worker
/// count and site.
#[test]
fn armed_fault_recovery_is_bit_identical_at_every_worker_count() {
    let _guard = pool_lock();
    let (m, n, k, nmod, count) = (16usize, 16usize, 32usize, 8usize, 8usize);
    let a_mats: Vec<MatF64> = (0..count)
        .map(|i| phi_matrix_f64(m, k, 0.5, 60 + i as u64, 0))
        .collect();
    let b_mats: Vec<MatF64> = (0..count)
        .map(|i| phi_matrix_f64(k, n, 0.5, 160 + i as u64, 1))
        .collect();
    let a_data = packed_stream(&a_mats);
    let b_data = packed_stream(&b_mats);
    let emu = Ozaki2::new(nmod, Mode::Fast).with_fault_policy(FaultPolicy::Off);
    let oracle: Vec<MatF64> = (0..count)
        .map(|i| emu.dgemm(&a_mats[i], &b_mats[i]))
        .collect();

    let injected_before = faultinject::injected();
    for_each_worker_count(|w| {
        let runtime = BatchedOzaki2::new(nmod, Mode::Fast)
            .with_fault_policy(FaultPolicy::RetryThenScalar { max_retries: 2 });
        for site in [
            FaultSite::PanelA,
            FaultSite::PanelB,
            FaultSite::Acc,
            FaultSite::Residue,
        ] {
            faultinject::arm_once(site);
            let got = batched(
                &runtime,
                &StridedBatch::packed(&a_data, m, k, count),
                &StridedBatch::packed(&b_data, k, n, count),
            );
            faultinject::disarm();
            for i in 0..count {
                assert_eq!(
                    got[i], oracle[i],
                    "item {i} not repaired at W={w} site={site:?}"
                );
            }
        }
    });
    // The INT8 path visits every armed site; only the forced-scalar CI
    // job (which skips the packed-panel kernels) may leave shots unfired.
    if std::env::var_os("OZAKI_FORCE_SCALAR").is_none() {
        assert!(
            faultinject::injected() > injected_before,
            "armed faults must actually fire somewhere in the matrix"
        );
    }
}
