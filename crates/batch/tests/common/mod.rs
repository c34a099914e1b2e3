//! Helpers shared by the batch integration tests.

use gemm_batch::{BatchedOzaki2, StridedBatch};
use gemm_dense::{MatF64, Matrix};
use ozaki2::Element;

/// [`BatchedOzaki2::try_batched_into`] into freshly zeroed outputs.
///
/// # Panics
/// On any error the entry returns.
pub fn batched<T: Element>(
    runtime: &BatchedOzaki2,
    a: &StridedBatch<'_, T>,
    b: &StridedBatch<'_, T>,
) -> Vec<Matrix<T>> {
    let mut outs = vec![Matrix::zeros(a.rows(), b.cols()); a.count()];
    runtime.try_batched_into(a, b, &mut outs).expect("batched");
    outs
}

/// [`BatchedOzaki2::try_dgemm_group_into`] into freshly zeroed outputs.
///
/// # Panics
/// On any error the entry returns.
pub fn group(runtime: &BatchedOzaki2, items: &[(&MatF64, &MatF64)]) -> Vec<MatF64> {
    let mut outs: Vec<MatF64> = items
        .iter()
        .map(|(a, b)| MatF64::zeros(a.rows(), b.cols()))
        .collect();
    runtime
        .try_dgemm_group_into(items, &mut outs)
        .expect("group");
    outs
}
