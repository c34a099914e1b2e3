//! Strided batch descriptors: the batched-BLAS input convention.
//!
//! A uniform-shape batch is one buffer holding `count` column-major
//! matrices of identical shape, matrix `i` starting at `i * stride`.
//! `stride = 0` broadcasts a single matrix to every item — the idiomatic
//! way to express a shared operand (and what lets the runtime prepare it
//! exactly once). Each matrix may additionally carry a leading dimension
//! `ld > rows` ([`StridedBatch::with_ld`]): items are then windows of a
//! larger parent allocation and are handed to the pipeline as borrowed
//! [`MatView`]s — never copied into owned matrices.

use gemm_dense::{MatView, Matrix};

/// A strided batch of column-major matrices over a borrowed element slice.
#[derive(Clone, Copy, Debug)]
pub struct StridedBatch<'a, T> {
    data: &'a [T],
    rows: usize,
    cols: usize,
    /// Per-matrix leading dimension (`rows` for dense items).
    ld: usize,
    stride: usize,
    count: usize,
}

impl<'a, T> StridedBatch<'a, T> {
    /// Batch of `count` `rows x cols` column-major matrices, matrix `i`
    /// at `data[i * stride ..]`. `stride` must be `0` (broadcast one
    /// matrix to every item) or at least `rows * cols`.
    ///
    /// # Panics
    /// If a nonzero stride is below the matrix footprint or `data` cannot
    /// hold `count` matrices.
    pub fn new(data: &'a [T], rows: usize, cols: usize, stride: usize, count: usize) -> Self {
        Self::with_ld(data, rows, cols, rows, stride, count)
    }

    /// [`StridedBatch::new`] with an explicit per-matrix leading
    /// dimension: element `(i, j)` of item `t` lives at
    /// `data[t * stride + i + j * ld]`. Items with `ld > rows` (windows
    /// of a parent buffer) run through the pipeline as zero-copy strided
    /// views.
    ///
    /// # Panics
    /// If `ld < rows`, a nonzero stride is below the item footprint, or
    /// `data` cannot hold `count` items.
    pub fn with_ld(
        data: &'a [T],
        rows: usize,
        cols: usize,
        ld: usize,
        stride: usize,
        count: usize,
    ) -> Self {
        assert!(ld >= rows, "leading dimension {ld} below rows {rows}");
        let footprint = if rows == 0 || cols == 0 {
            0
        } else {
            (cols - 1) * ld + rows
        };
        assert!(
            stride == 0 || stride >= footprint,
            "stride {stride} below matrix footprint {footprint}"
        );
        if count > 0 {
            let need = (count - 1) * stride + footprint;
            assert!(
                data.len() >= need,
                "batch data too short: {} < {need}",
                data.len()
            );
        }
        Self {
            data,
            rows,
            cols,
            ld,
            stride,
            count,
        }
    }

    /// Contiguous batch: matrices packed back to back
    /// (`stride = rows * cols`).
    pub fn packed(data: &'a [T], rows: usize, cols: usize, count: usize) -> Self {
        Self::new(data, rows, cols, rows * cols, count)
    }

    /// Matrix rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Matrix columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Per-matrix leading dimension (`rows` unless built with
    /// [`StridedBatch::with_ld`]).
    pub fn ld(&self) -> usize {
        self.ld
    }

    /// Element stride between consecutive matrices (`0` = broadcast).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of items in the batch.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether every item reads the same matrix.
    pub fn is_broadcast(&self) -> bool {
        self.stride == 0
    }

    /// Whether items are dense column-major blocks (`ld == rows`).
    pub fn is_contiguous(&self) -> bool {
        self.ld == self.rows || self.cols <= 1
    }

    /// Column-major element slice of item `i`.
    ///
    /// # Panics
    /// If `i` is out of range or the items carry a leading dimension
    /// (`ld > rows`) — use [`StridedBatch::view`] for those.
    pub fn item(&self, i: usize) -> &'a [T] {
        assert!(i < self.count, "item {i} out of {}", self.count);
        assert!(
            self.is_contiguous(),
            "item() on an ld-strided batch; use view()"
        );
        &self.data[i * self.stride..i * self.stride + self.rows * self.cols]
    }
}

impl<'a, T: Copy> StridedBatch<'a, T> {
    /// Broadcast one matrix to every item of a `count`-item batch
    /// (`stride = 0`): the shared-operand form the runtime prepares once
    /// and caches.
    pub fn broadcast(m: &'a Matrix<T>, count: usize) -> Self {
        Self::new(m.as_slice(), m.rows(), m.cols(), 0, count)
    }

    /// Borrowed strided view of item `i` — the canonical, copy-free item
    /// accessor (works for dense and `ld`-strided batches alike).
    pub fn view(&self, i: usize) -> MatView<'a, T> {
        assert!(i < self.count, "item {i} out of {}", self.count);
        MatView::new(
            &self.data[i * self.stride..],
            self.rows,
            self.cols,
            self.ld.max(1),
            gemm_dense::Layout::ColMajor,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemm_dense::MatF64;

    #[test]
    fn packed_items_tile_the_buffer() {
        let data: Vec<f64> = (0..24).map(|i| i as f64).collect();
        let b = StridedBatch::packed(&data, 2, 3, 4);
        assert_eq!(b.item(0), &data[0..6]);
        assert_eq!(b.item(3), &data[18..24]);
        assert!(!b.is_broadcast());
    }

    #[test]
    fn broadcast_repeats_one_matrix() {
        let m = MatF64::from_fn(3, 2, |i, j| (i + 10 * j) as f64);
        let b = StridedBatch::broadcast(&m, 5);
        assert_eq!(b.count(), 5);
        assert!(b.is_broadcast());
        assert_eq!(b.item(0), b.item(4));
        assert_eq!(b.item(2), m.as_slice());
    }

    #[test]
    fn padded_stride_skips_gaps() {
        let data = vec![0f64; 3 * 10 + 6];
        let b = StridedBatch::new(&data, 2, 3, 10, 4);
        assert_eq!(b.item(1).len(), 6);
        assert_eq!(b.item(3).as_ptr(), data[30..].as_ptr());
    }

    #[test]
    fn ld_strided_items_are_views() {
        // 3 items, each a 2x3 window with ld 4 inside its own block.
        let (ld, stride) = (4usize, 4 * 3);
        let data: Vec<f64> = (0..stride * 3).map(|i| i as f64).collect();
        let b = StridedBatch::with_ld(&data, 2, 3, ld, stride, 3);
        assert!(!b.is_contiguous());
        assert_eq!(b.ld(), 4);
        let v = b.view(1);
        assert_eq!(v.shape(), (2, 3));
        assert_eq!(v.get(1, 2), (stride + 1 + 2 * ld) as f64);
        assert!(v.as_col_major_slice().is_none());
        // Dense batches expose contiguous views.
        let dense = StridedBatch::packed(&data, 2, 3, 2);
        assert!(dense.view(1).as_col_major_slice().is_some());
    }

    #[test]
    #[should_panic(expected = "use view()")]
    fn item_rejects_ld_strided() {
        let data = vec![0f64; 64];
        let b = StridedBatch::with_ld(&data, 2, 3, 4, 16, 2);
        let _ = b.item(0);
    }

    #[test]
    #[should_panic(expected = "below rows")]
    fn rejects_undersized_ld() {
        let data = vec![0f64; 64];
        let _ = StridedBatch::with_ld(&data, 4, 3, 3, 16, 2);
    }

    #[test]
    #[should_panic(expected = "batch data too short")]
    fn rejects_short_buffers() {
        let data = vec![0f64; 11];
        let _ = StridedBatch::packed(&data, 2, 3, 2);
    }

    #[test]
    #[should_panic(expected = "below matrix footprint")]
    fn rejects_undersized_stride() {
        let data = vec![0f64; 100];
        let _ = StridedBatch::new(&data, 4, 4, 10, 2);
    }
}
