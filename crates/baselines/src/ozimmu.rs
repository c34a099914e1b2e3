//! ozIMMU: DGEMM emulation via **Ozaki Scheme I** on INT8 matrix engines,
//! with `S` significand slices (Ootomo–Ozaki–Yokota 2024; accelerated
//! variant "ozIMMU_EF" by Uchino 2024 — references [9, 11, 17, 19] of the
//! paper). This is the principal prior-art DGEMM comparator in §5.
//!
//! Each f64 entry is row/column exponent-aligned and its significand cut
//! into `S` signed 7-bit slices; slice products are exact on the INT8
//! engine (7+7 bits + log2 k ≤ 31 for k ≤ 2^17), and the partial products
//! with `s + t ≤ S - 1` are accumulated in f64 — `S(S+1)/2` INT8 GEMMs
//! against Ozaki Scheme II's `N`. That gap (36 GEMMs for S = 8 vs ~15) is
//! exactly the >2x advantage the paper reports for Scheme II.

use gemm_dense::{MatF64, MatMulF64, Matrix};
use gemm_engine::{int8_gemm_prepacked_fused, pack_panels, padded_depth, NoEpilogue, OperandSide};
use rayon::prelude::*;

/// Bits per significand slice (7 magnitude bits fit INT8 with sign).
pub const SLICE_BITS: i32 = 7;

/// Largest `k` with error-free INT8/INT32 slice products.
pub const K_MAX: usize = 1 << 17;

/// Ozaki Scheme I DGEMM emulator with `S` slices.
#[derive(Clone, Copy, Debug)]
pub struct OzImmu {
    slices: usize,
}

impl OzImmu {
    /// `slices` in 2..=13 (13·7 = 91 bits, far beyond f64's 53).
    pub fn new(slices: usize) -> Self {
        assert!((2..=13).contains(&slices), "slices must be in 2..=13");
        Self { slices }
    }

    /// Number of slices.
    pub fn slices(&self) -> usize {
        self.slices
    }

    /// Number of INT8 GEMMs this configuration issues (`S(S+1)/2`).
    pub fn gemm_count(&self) -> usize {
        self.slices * (self.slices + 1) / 2
    }

    /// Emulated DGEMM.
    pub fn dgemm(&self, a: &MatF64, b: &MatF64) -> MatF64 {
        let (m, k) = a.shape();
        let (kb, n) = b.shape();
        assert_eq!(k, kb, "inner dimensions must agree");
        assert!(
            k <= K_MAX,
            "k > 2^17 requires blocking (not exercised by the paper's sweeps)"
        );
        assert!(
            a.iter().all(|x| x.is_finite()) && b.iter().all(|x| x.is_finite()),
            "inputs must be finite"
        );
        let s = self.slices;
        let mut c = Matrix::<f64>::zeros(m, n);
        if m == 0 || n == 0 || k == 0 {
            return c;
        }

        // Row-wise exponent alignment for A (slices taken row-major),
        // column-wise for B.
        let (a_slices, shift_a) = slice_rows(a, s);
        let (b_slices, shift_b) = slice_cols(b, s);

        // Each slice is packed once, into the engine's panels for its side.
        let kp = padded_depth(k);
        let pack = |side: OperandSide, slices: &[Vec<i8>], shape| {
            let (vecs, vecs_pad, _) = side.panel_dims(shape);
            let mut panels = vec![Vec::new(); slices.len()];
            for (p, sl) in panels.iter_mut().zip(slices) {
                pack_panels(p, side, sl, k, vecs, vecs_pad, k, kp);
            }
            panels
        };
        let a_panels = pack(OperandSide::A, &a_slices, (m, k));
        let b_panels = pack(OperandSide::B, &b_slices, (k, n));

        // Accumulate 2^(-7(st+tt+2)) * A_st * B_tt for st + tt <= S - 1,
        // most-significant pairs last so the f64 additions favour accuracy.
        let mut c32 = vec![0i32; m * n];
        let mut pairs: Vec<(usize, usize)> = (0..s)
            .flat_map(|st| (0..s - st).map(move |tt| (st, tt)))
            .collect();
        pairs.sort_by_key(|&(st, tt)| std::cmp::Reverse(st + tt));
        for (st, tt) in pairs {
            let (ap, bp) = (&a_panels[st], &b_panels[tt]);
            int8_gemm_prepacked_fused(m, n, k, ap, bp, kp, 0, &mut c32, &mut [], &NoEpilogue, true);
            let scale_exp = -(SLICE_BITS * (st as i32 + tt as i32 + 2));
            let c_data = c.as_mut_slice();
            c_data
                .par_chunks_mut(m)
                .zip(c32.par_chunks(m))
                .enumerate()
                .for_each(|(j, (c_col, c32_col))| {
                    for (i, (cc, &pc)) in c_col.iter_mut().zip(c32_col).enumerate() {
                        let e = scale_exp + shift_a[i] + shift_b[j];
                        *cc += scale_pow2(pc as f64, e);
                    }
                });
        }
        c
    }
}

impl MatMulF64 for OzImmu {
    fn matmul_f64(&self, a: &MatF64, b: &MatF64) -> MatF64 {
        self.dgemm(a, b)
    }
    fn name(&self) -> String {
        format!("ozIMMU_EF-{}", self.slices)
    }
}

#[inline]
fn scale_pow2(x: f64, e: i32) -> f64 {
    if (-969..=970).contains(&e) {
        x * 2f64.powi(e)
    } else {
        let half = e / 2;
        x * 2f64.powi(half) * 2f64.powi(e - half)
    }
}

#[inline]
fn ilog2_abs(x: f64) -> i32 {
    debug_assert!(x != 0.0 && x.is_finite());
    let bits = x.abs().to_bits();
    let exp_field = (bits >> 52) as i32;
    if exp_field > 0 {
        exp_field - 1023
    } else {
        let mant = bits & ((1u64 << 52) - 1);
        63 - mant.leading_zeros() as i32 - 1074
    }
}

/// Slice the rows of `A`: returns `S` row-major INT8 planes and per-row
/// shift exponents such that
/// `a_ih ≈ 2^{shift_i} · Σ_s slice_s[i,h] · 2^{-7(s+1)}`.
fn slice_rows(a: &MatF64, s: usize) -> (Vec<Vec<i8>>, Vec<i32>) {
    let (m, k) = a.shape();
    let mut shift = vec![0i32; m];
    for i in 0..m {
        let mut mx = 0.0f64;
        for h in 0..k {
            mx = mx.max(a[(i, h)].abs());
        }
        // Normalise so |a| * 2^-shift < 1.
        shift[i] = if mx == 0.0 { 0 } else { ilog2_abs(mx) + 1 };
    }
    let mut planes = vec![vec![0i8; m * k]; s];
    // Parallelise over rows; each row streams its k entries once.
    let shift_ref = &shift;
    let planes_split: Vec<_> = planes.iter_mut().map(|p| p.as_mut_slice()).collect();
    slice_into(planes_split, m, k, s, |i, h| {
        scale_pow2(a[(i, h)], -shift_ref[i])
    });
    (planes, shift)
}

/// Slice the columns of `B`: returns `S` column-major INT8 planes (each
/// `k`-contiguous per output column) and per-column shifts.
fn slice_cols(b: &MatF64, s: usize) -> (Vec<Vec<i8>>, Vec<i32>) {
    let (k, n) = b.shape();
    let mut shift = vec![0i32; n];
    for (j, sh) in shift.iter_mut().enumerate() {
        let mx = b.col(j).iter().fold(0.0f64, |acc, &x| acc.max(x.abs()));
        *sh = if mx == 0.0 { 0 } else { ilog2_abs(mx) + 1 };
    }
    let mut planes = vec![vec![0i8; k * n]; s];
    let shift_ref = &shift;
    let planes_split: Vec<_> = planes.iter_mut().map(|p| p.as_mut_slice()).collect();
    // For B the "row" index of the packing is the output column j and the
    // inner index is h (k-contiguous), matching the engine's B layout.
    slice_into(planes_split, n, k, s, |j, h| {
        scale_pow2(b[(h, j)], -shift_ref[j])
    });
    (planes, shift)
}

/// Shared slicing loop: for outer index `o` and inner index `h`, cut the
/// normalised value into `s` successive 7-bit truncations.
fn slice_into(
    mut planes: Vec<&mut [i8]>,
    outer: usize,
    inner: usize,
    s: usize,
    value: impl Fn(usize, usize) -> f64 + Sync,
) {
    // Split each plane into per-outer chunks so rayon can own them safely.
    let mut chunked: Vec<Vec<&mut [i8]>> = planes
        .iter_mut()
        .map(|p| p.chunks_mut(inner).collect())
        .collect();
    // Transpose the ownership: row o gets its slice from every plane.
    let mut per_outer: Vec<Vec<&mut [i8]>> = (0..outer).map(|_| Vec::with_capacity(s)).collect();
    for plane_chunks in chunked.iter_mut() {
        for (o, chunk) in plane_chunks.drain(..).enumerate() {
            per_outer[o].push(chunk);
        }
    }
    per_outer
        .par_iter_mut()
        .enumerate()
        .for_each(|(o, plane_rows)| {
            for h in 0..inner {
                let mut x = value(o, h);
                debug_assert!(x.abs() < 1.0);
                for plane_row in plane_rows.iter_mut() {
                    let scaled = x * 128.0; // 2^7
                    let d = scaled.trunc();
                    plane_row[h] = d as i8;
                    x = scaled - d; // exact: both are multiples of 2^-46...
                }
            }
        });
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemm_dense::gemm::gemm_f64_naive;
    use gemm_dense::norms::max_relative_error;
    use gemm_dense::workload::{phi_matrix_f64, uniform_matrix_f64};

    #[test]
    fn eight_slices_reach_double_precision() {
        let a = phi_matrix_f64(24, 32, 0.5, 21, 0);
        let b = phi_matrix_f64(32, 20, 0.5, 21, 1);
        let exact = gemm_f64_naive(&a, &b);
        let c = OzImmu::new(8).dgemm(&a, &b);
        let err = max_relative_error(&c, &exact);
        assert!(err < 1e-13, "err={err:e}");
    }

    #[test]
    fn accuracy_improves_with_slices() {
        let a = uniform_matrix_f64(16, 24, 3, 0);
        let b = uniform_matrix_f64(24, 16, 3, 1);
        let exact = gemm_f64_naive(&a, &b);
        let mut last = f64::INFINITY;
        for s in [2usize, 4, 6, 8] {
            let err = max_relative_error(&OzImmu::new(s).dgemm(&a, &b), &exact).max(1e-17);
            assert!(err < last, "S={s}: {err:e} !< {last:e}");
            last = err;
        }
    }

    #[test]
    fn two_slices_roughly_14_bits() {
        let a = uniform_matrix_f64(8, 16, 5, 0);
        let b = uniform_matrix_f64(16, 8, 5, 1);
        let exact = gemm_f64_naive(&a, &b);
        let err = max_relative_error(&OzImmu::new(2).dgemm(&a, &b), &exact);
        // 2 slices keep ~14 bits of each operand: low precision (entries
        // with cancellation inflate the componentwise max further), but
        // nowhere near double precision.
        assert!(err < 1e-1, "err={err:e}");
        assert!(err > 1e-12, "suspiciously exact: {err:e}");
    }

    #[test]
    fn gemm_count_is_triangular() {
        assert_eq!(OzImmu::new(8).gemm_count(), 36);
        assert_eq!(OzImmu::new(3).gemm_count(), 6);
    }

    #[test]
    fn wide_exponent_rows_lose_accuracy() {
        // The known Scheme-I weakness: row-aligned slicing truncates small
        // entries in rows with wide dynamic range.
        let a = gemm_dense::workload::row_graded_matrix_f64(8, 32, 0.0, 9, 0);
        let a_wide = phi_matrix_f64(8, 32, 4.0, 9, 0);
        let b = uniform_matrix_f64(32, 8, 9, 1);
        let narrow_err = max_relative_error(&OzImmu::new(6).dgemm(&a, &b), &gemm_f64_naive(&a, &b));
        let wide_err = max_relative_error(
            &OzImmu::new(6).dgemm(&a_wide, &b),
            &gemm_f64_naive(&a_wide, &b),
        );
        assert!(
            wide_err > narrow_err,
            "wide {wide_err:e} should exceed narrow {narrow_err:e}"
        );
    }

    #[test]
    fn name_matches_paper() {
        assert_eq!(MatMulF64::name(&OzImmu::new(9)), "ozIMMU_EF-9");
    }

    #[test]
    fn zero_matrix() {
        let a = MatF64::zeros(4, 4);
        let b = uniform_matrix_f64(4, 4, 1, 0);
        let c = OzImmu::new(4).dgemm(&a, &b);
        assert!(c.iter().all(|&x| x == 0.0));
    }
}
