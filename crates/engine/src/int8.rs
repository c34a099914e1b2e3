//! The INT8 matrix engine: a blocked GEMM on the AMX tile unit, or a
//! register-tiled SIMD kernel standing in for one.
//!
//! Semantics mirror the GPU unit the paper targets (`mma.s8.s32` /
//! cublasGemmEx with `CUDA_R_8I` inputs and `CUDA_R_32I` accumulation):
//!
//! * inputs are signed 8-bit integers;
//! * every product enters a 32-bit accumulator;
//! * accumulation **wraps** on overflow (two's complement) — the paper
//!   exploits exactly this at `k = 2^17`, where `(A'_1 B'_1)_ij` may reach
//!   `2^31` and wraps to `-2^31` without harming the mod-256 residue.
//!
//! Because wrapping 32-bit addition is associative and commutative, *any*
//! summation order yields the bit-identical result — which is what lets the
//! blocked kernels below reorder the reduction freely while remaining an
//! exact drop-in for [`int8_gemm_naive`].
//!
//! # Kernel structure
//!
//! 1. **Panels.** The engine multiplies `i8` panels: row `i` of the
//!    A-pack is the `i`-th row of `A`, depth padded with zeros to a
//!    multiple of [`PK`] (64, one tile row of bytes), rows padded to a
//!    multiple of [`PV`] (16, one tile's height); the B-pack holds columns
//!    the same way. [`int8_gemm_prepacked_fused`], the one engine entry,
//!    multiplies a [`PK`]-aligned depth window of caller-built panels —
//!    that window is how `k`-blocked callers reuse one panel set across
//!    blocks. Producers that can emit this layout themselves (the `ozaki2`
//!    fused convert phase and its accurate-mode estimate) never hold an
//!    intermediate i8 plane; others pack with [`pack_panels`] (row-major
//!    `A`, column-major `B`, any leading dimension).
//! 2. **Microkernel.** The kernel is selected by [`crate::isa::engine_isa`]
//!    (the one probe, [`crate::isa()`], under the thread's
//!    [`crate::isa::cap_scope`]), read once per call on the calling thread:
//!    * **AMX** (`tdpbssd`, i8·i8 → i32). `tdpbssd` wants its second
//!      source quad-interleaved, so the call first interleaves the A
//!      window once (a vectorized 16×16 dword transpose per 16-row ×
//!      64-byte block) into a grow-only per-thread buffer that every
//!      stripe reads. B tiles load straight from the panels at stride
//!      `kp`. The kernel computes `Cᵀ` tiles (16 B columns × 16 A rows), so
//!      each tile row is one contiguous column segment of the column-major
//!      `C`. It keeps a 2×2 grid of `C` tiles in tile registers over the
//!      whole depth, with a 1-wide loop for edges that are a multiple of 16
//!      but not of 32. Each stripe loads the tile configuration on entry and
//!      releases the tiles on exit, so pool threads carry no tile state.
//!    * **AVX-512 VNNI / AVX-512 BW / AVX2 / scalar**: an [`MR`]`x`[`NR`]
//!      register tile of `C` as `MR * NR` SIMD dot products sharing operand
//!      loads, one vector accumulator per `C` element. Panel bytes are
//!      sign-extended to i16 on load; products of i8 values fit in 15 bits,
//!      so the pairwise i16 multiply-add (`vpmaddwd` / `vpdpwssd`) is exact.
//!      The portable scalar kernel is also the parity-test reference.
//! 3. **Cache blocking** (SIMD arms). Per stripe the tile sweep runs `ic`
//!    ([`MC`] rows, keeps the active A block L2-resident) over `pc` ([`KC`]
//!    depth, keeps one A-panel + one B-panel L1-resident) over the
//!    `jt`/`it` tile grid, accumulating partial tiles into `C` (wrapping
//!    adds commute, so the split over `pc` is exact).
//! 4. **Column stripes.** One driver, [`int8_gemm_prepacked_fused`],
//!    splits the `N` dimension into stripes of whole [`PV`]-column panels
//!    (two per pool worker) and runs one rayon task per stripe over shared
//!    read-only panels. [`int8_gemm_blocked`], the contiguous i8-input
//!    entry, only packs (A serially, B in the same stripes in parallel) and
//!    then calls that driver.
//!
//! # Fused epilogue
//!
//! Ozaki Scheme II immediately reduces every INT32 product plane mod a
//! small prime (Algorithm 1 line 7). Doing that as a second pass over a
//! plane that has left the cache re-streams it from DRAM, so the engine
//! accepts an [`Epilogue`] applied to each completed `C` stripe while it is
//! still cache-resident. Every epilogue writes `u8` residues:
//! [`ReduceEpilogue`] overwrites the plane with `C mod p`, and
//! [`AddModEpilogue`] adds `C mod p` into residues already there, mod `p`
//! (the later depth blocks of the `k`-blocked path). [`NoEpilogue`]
//! compiles the hook away. Their row kernels, [`barrett_mod_row_u8`] and
//! [`barrett_addmod_row_u8`], are portable loops run through
//! [`crate::isa::dispatch`]; only the reducing kernel keeps a hand-written
//! AVX-512 arm, which measured faster than LLVM's vectorization of the
//! loop. That arm, the tile kernels and the AMX arm are the only
//! hand-written SIMD code in the workspace.
//!
//! # Workspace
//!
//! [`int8_gemm_blocked`]'s packing buffers live in an [`Int8Workspace`],
//! which grows on first use and is reused across calls — repeated GEMMs of
//! one shape (the slice products of one Scheme-I product, LU panel
//! updates, …) allocate nothing in steady state.

use crate::isa::{cap_scope, dispatch, dispatch_name, engine_isa, isa, Isa};
use gemm_dense::{MatI32, MatI8, Matrix};
use rayon::prelude::*;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Register-tile rows of the SIMD kernels (independent accumulator
/// chains per column).
pub const MR: usize = 4;
/// Register-tile columns of the SIMD kernels.
pub const NR: usize = 4;
/// Depth padding granularity: one AMX tile row of bytes.
pub const PK: usize = 64;
/// Vector-count padding granularity of the packed panels (rows of A,
/// columns of B): one AMX tile's height. Also the column granularity of
/// the engine's stripes, so a stripe always starts on a whole panel.
pub const PV: usize = 16;
/// Depth (`k`) blocking of the SIMD kernels: one `MR x KC` A-panel plus
/// one `NR x KC` B-panel is 8 KiB of i8, comfortably L1-resident.
pub const KC: usize = 1024;
/// Row blocking of the SIMD kernels: the active `MC x KC` A block
/// (128 KiB) stays L2-resident while the stripe's B-panels stream past it.
pub const MC: usize = 128;

// ---------------------------------------------------------------------------
// Barrett reduction primitive (shared with the modular-reduction epilogues)
// ---------------------------------------------------------------------------

/// `x mod p ∈ [0, p)` for any i32 `x`, via a `__mulhi`-style Barrett
/// estimate with the precomputed reciprocal `pinv = ⌊2^32 / p⌋ - 1`,
/// followed by two conditional fix-ups (`q` is off by at most one in each
/// direction across the full i32 range).
///
/// `pinv < 2^31` for every `p ≥ 2`, so it is sign-extended: the same
/// value as zero-extending, and the signed widening multiply is one
/// `vpmuldq` per lane pair when the row kernels vectorize.
#[inline(always)]
pub fn barrett_mod_u8(x: i32, p: i32, pinv: u32) -> u8 {
    debug_assert!(pinv < 1 << 31, "pinv={pinv} needs p >= 2");
    let q = ((x as i64 * pinv as i32 as i64) >> 32) as i32;
    let mut y = x.wrapping_sub(q.wrapping_mul(p));
    if y >= p {
        y -= p;
    }
    if y < 0 {
        y += p;
    }
    debug_assert!((0..p).contains(&y), "x={x} p={p} y={y}");
    y as u8
}

/// Portable `mod p` row reduction into u8 residues: the one body of
/// [`barrett_mod_row_u8`], and its lane-exact oracle.
#[inline(always)]
pub fn barrett_mod_row_u8_scalar(c: &[i32], out: &mut [u8], p: i32, pinv: u32) {
    for (d, &x) in out.iter_mut().zip(c) {
        *d = barrett_mod_u8(x, p, pinv);
    }
}

/// Portable `u = (u + c mod p) mod p` row update of u8 residues: the one
/// body of [`barrett_addmod_row_u8`], and its oracle. Each `u` must already
/// lie in `[0, p)`, so `u + (c mod p) <= 2p - 2` and one compare-subtract
/// lands it back in `[0, p)`.
#[inline(always)]
pub fn barrett_addmod_row_u8_scalar(c: &[i32], out: &mut [u8], p: i32, pinv: u32) {
    for (d, &x) in out.iter_mut().zip(c) {
        debug_assert!((*d as i32) < p, "u={} not a residue mod {p}", *d);
        let s = *d as i32 + barrett_mod_u8(x, p, pinv) as i32;
        *d = if s >= p { s - p } else { s } as u8;
    }
}

/// Name of the level the mod-reduce row kernels run at on this thread
/// (see [`crate::isa::dispatch_name`]).
pub fn mod_kernel_name() -> &'static str {
    dispatch_name()
}

/// Vectorized `out[i] = mod(c[i], p)` as u8 residues — the row kernel
/// behind [`ReduceEpilogue`] (Algorithm 1 line 7): the portable
/// [`barrett_mod_row_u8_scalar`] run through [`dispatch`], except at the
/// AVX-512 levels, which keep a hand-written arm (LLVM's vectorization of
/// the portable loop measured slower there). Bit-identical to the
/// portable loop at every level.
pub fn barrett_mod_row_u8(c: &[i32], out: &mut [u8], p: i32, pinv: u32) {
    assert!(out.len() >= c.len(), "output row too short");
    #[cfg(target_arch = "x86_64")]
    if engine_isa() >= Isa::Avx512 {
        // SAFETY: `engine_isa() >= Avx512` means the probe verified
        // AVX-512F and AVX-512BW; the length contract is asserted above.
        return unsafe { mod_row_u8_avx512(c, out, p, pinv) };
    }
    dispatch(|| barrett_mod_row_u8_scalar(c, out, p, pinv))
}

/// The AVX-512 arm of [`barrett_mod_row_u8`], 16 lanes at a time. The
/// quotient is the high dword of the signed product `x · pinv`: even
/// lanes multiply in place, odd lanes after a dword shuffle, and a blend
/// puts each high dword back in its lane. The fix-ups are masked
/// subtract/add.
///
/// # Safety
/// AVX-512F and AVX-512BW must be available; `out.len() >= c.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn mod_row_u8_avx512(c: &[i32], out: &mut [u8], p: i32, pinv: u32) {
    use std::arch::x86_64::*;
    /// Dword pattern `[1, 1, 3, 3]` per 128-bit lane: odd dwords (the high
    /// dwords of 64-bit products) into the even slots.
    const ODD_TO_EVEN: i32 = 0b11_11_01_01;
    let pv = _mm512_set1_epi32(p);
    let pinv64 = _mm512_set1_epi64(pinv as i32 as i64);
    let n16 = c.len() / 16 * 16;
    for i in (0..n16).step_by(16) {
        let x = _mm512_loadu_si512(c.as_ptr().add(i).cast());
        let pe = _mm512_mul_epi32(x, pinv64);
        let po = _mm512_mul_epi32(_mm512_shuffle_epi32::<{ ODD_TO_EVEN as _ }>(x), pinv64);
        let qe = _mm512_shuffle_epi32::<{ ODD_TO_EVEN as _ }>(pe);
        let q = _mm512_mask_blend_epi32(0xAAAA, qe, po);
        let y0 = _mm512_sub_epi32(x, _mm512_mullo_epi32(q, pv));
        let y1 = _mm512_mask_sub_epi32(y0, _mm512_cmpge_epi32_mask(y0, pv), y0, pv);
        let lt = _mm512_cmplt_epi32_mask(y1, _mm512_setzero_si512());
        let y = _mm512_mask_add_epi32(y1, lt, y1, pv);
        // Residues are in [0, p) ⊆ [0, 255]: truncating narrow.
        _mm_storeu_si128(out.as_mut_ptr().add(i).cast(), _mm512_cvtepi32_epi8(y));
    }
    barrett_mod_row_u8_scalar(&c[n16..], &mut out[n16..], p, pinv);
}

/// Vectorized `out[i] = (out[i] + mod(c[i], p)) mod p` — the row kernel
/// behind [`AddModEpilogue`] (the later depth blocks of the `k > 2^17`
/// path): the portable [`barrett_addmod_row_u8_scalar`] run through
/// [`dispatch`].
pub fn barrett_addmod_row_u8(c: &[i32], out: &mut [u8], p: i32, pinv: u32) {
    assert!(out.len() >= c.len(), "output row too short");
    dispatch(|| barrett_addmod_row_u8_scalar(c, out, p, pinv))
}

// ---------------------------------------------------------------------------
// Epilogues
// ---------------------------------------------------------------------------

/// A transformation fused into the GEMM call and applied to each completed
/// `C` stripe while it is still cache-resident, folding Algorithm 1 line 7
/// into line 6. Every epilogue writes a `u8` residue plane.
pub trait Epilogue: Sync {
    /// Whether the epilogue does anything (lets [`NoEpilogue`] skip the
    /// output-plane plumbing entirely at compile time).
    const ACTIVE: bool;
    /// Transform the finished stripe `c` into `out` (same geometry:
    /// contiguous column-major columns of the same `m x n` plane).
    fn apply(&self, c: &[i32], out: &mut [u8]);
}

/// No fused epilogue: the GEMM just writes `C`.
pub struct NoEpilogue;

impl Epilogue for NoEpilogue {
    const ACTIVE: bool = false;
    #[inline]
    fn apply(&self, _c: &[i32], _out: &mut [u8]) {}
}

/// Run `f`, recording its elapsed nanoseconds into `nanos` (max across
/// callers: stripe epilogues run concurrently, so the wall-clock cost of
/// the fused reduction is the slowest worker's, not the sum).
#[inline]
fn timed_epilogue<F: FnOnce()>(nanos: Option<&AtomicU64>, f: F) {
    match nanos {
        Some(acc) => {
            let t0 = Instant::now();
            f();
            acc.fetch_max(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        None => f(),
    }
}

/// Fused `U = mod(C, p)` reduction into a `u8` residue plane (a
/// single-block product, or the first depth block of a `k`-blocked one).
pub struct ReduceEpilogue<'t> {
    p: i32,
    pinv: u32,
    nanos: Option<&'t AtomicU64>,
}

impl<'t> ReduceEpilogue<'t> {
    /// Reduce mod `p` with reciprocal `pinv`; if `nanos` is given, the
    /// maximum per-stripe epilogue time is recorded there (nanoseconds) —
    /// stripes run concurrently, so that is the wall-clock contribution.
    pub fn new(p: u64, pinv: u32, nanos: Option<&'t AtomicU64>) -> Self {
        Self {
            p: p as i32,
            pinv,
            nanos,
        }
    }
}

impl Epilogue for ReduceEpilogue<'_> {
    const ACTIVE: bool = true;
    #[inline]
    fn apply(&self, c: &[i32], out: &mut [u8]) {
        timed_epilogue(self.nanos, || {
            barrett_mod_row_u8(c, out, self.p, self.pinv);
        });
    }
}

/// Fused `U = (U + mod(C_blk, p)) mod p` into a `u8` residue plane that
/// already holds residues in `[0, p)` (the later depth blocks of the
/// `k > K_BLOCK_MAX` pipeline path).
pub struct AddModEpilogue<'t>(ReduceEpilogue<'t>);

impl<'t> AddModEpilogue<'t> {
    /// Add residues mod `p` with reciprocal `pinv`; see
    /// [`ReduceEpilogue::new`] for `nanos`.
    pub fn new(p: u64, pinv: u32, nanos: Option<&'t AtomicU64>) -> Self {
        Self(ReduceEpilogue::new(p, pinv, nanos))
    }
}

impl Epilogue for AddModEpilogue<'_> {
    const ACTIVE: bool = true;
    #[inline]
    fn apply(&self, c: &[i32], out: &mut [u8]) {
        let r = &self.0;
        timed_epilogue(r.nanos, || {
            barrett_addmod_row_u8(c, out, r.p, r.pinv);
        });
    }
}

// ---------------------------------------------------------------------------
// Workspace
// ---------------------------------------------------------------------------

/// Reusable packing buffers for the blocked kernel. Grows on demand, never
/// shrinks; repeated calls with one shape allocate nothing.
#[derive(Default)]
pub struct Int8Workspace {
    apack: Vec<i8>,
    bpack: Vec<i8>,
}

impl Int8Workspace {
    /// Fresh, empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current footprint in bytes.
    pub fn bytes(&self) -> usize {
        self.apack.capacity() + self.bpack.capacity()
    }
}

thread_local! {
    /// The AMX arm's interleaved copy of the A window: grow-only, and lent
    /// to one call at a time (a nested call on this thread finds it empty
    /// and allocates its own).
    static AMX_A: Cell<Vec<i8>> = const { Cell::new(Vec::new()) };
}

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

/// Depth (`k`) of a packed panel, padded to a multiple of [`PK`].
pub const fn padded_depth(k: usize) -> usize {
    k.div_ceil(PK) * PK
}

/// Row count of a packed A-panel set, padded to a multiple of [`PV`].
pub const fn padded_a_rows(m: usize) -> usize {
    m.div_ceil(PV) * PV
}

/// Column count of a packed B-panel set, padded to a multiple of [`PV`].
pub const fn padded_b_cols(n: usize) -> usize {
    n.div_ceil(PV) * PV
}

/// Pack `vecs` i8 k-vectors (rows of `A` / columns of `B`, vector `v`
/// starting at `v * ld`) into the engine's `i8` panel layout: vector `v`
/// occupies `pack[v * kp..(v + 1) * kp]`, depth zero-padded from `k` to
/// `kp` (= [`padded_depth`]`(k)`), vector count zero-padded to `vecs_pad`
/// (= [`padded_a_rows`] / [`padded_b_cols`]).
///
/// This is the exact layout [`int8_gemm_prepacked_fused`] consumes, and the
/// layout the fused convert phase of the `ozaki2` pipeline emits directly
/// from f64 data — exposed so producers and tests can build panels without
/// going through an intermediate i8 plane.
pub fn pack_panels(
    pack: &mut Vec<i8>,
    src: &[i8],
    ld: usize,
    vecs: usize,
    vecs_pad: usize,
    k: usize,
    kp: usize,
) {
    let needed = vecs_pad * kp;
    if pack.len() < needed {
        pack.resize(needed, 0);
    }
    pack_into(&mut pack[..needed], src, ld, vecs, vecs_pad, k, kp);
}

/// [`pack_panels`] into a slice already sized for `vecs_pad` vectors.
fn pack_into(
    pack: &mut [i8],
    src: &[i8],
    ld: usize,
    vecs: usize,
    vecs_pad: usize,
    k: usize,
    kp: usize,
) {
    for v in 0..vecs_pad {
        let dst = &mut pack[v * kp..(v + 1) * kp];
        if v < vecs {
            dst[..k].copy_from_slice(&src[v * ld..v * ld + k]);
            dst[k..].fill(0);
        } else {
            dst.fill(0);
        }
    }
}

// ---------------------------------------------------------------------------
// Microkernels (runtime-dispatched)
// ---------------------------------------------------------------------------

/// Human-readable name of the microkernel the running CPU dispatches to.
pub fn microkernel_name() -> &'static str {
    match isa() {
        Isa::Amx => "amx",
        Isa::Avx512Vnni => "avx512-vnni",
        Isa::Avx512 => "avx512-bw",
        Isa::Avx2 => "avx2",
        Isa::Scalar => "scalar",
    }
}

/// Portable tile kernel: `out[c][r] = sum_p a[r*lda + p] * b[c*ldb + p]`
/// over `kc` (wrapping) — the tile is **column-major** so the driver can
/// copy whole columns into `C` contiguously. Also the reference
/// implementation the SIMD paths are tested against.
fn tile_scalar(kc: usize, lda: usize, ldb: usize, a: &[i8], b: &[i8], out: &mut [[i32; MR]; NR]) {
    for (c, ocol) in out.iter_mut().enumerate() {
        let bcol = &b[c * ldb..c * ldb + kc];
        for (r, o) in ocol.iter_mut().enumerate() {
            let arow = &a[r * lda..r * lda + kc];
            let mut acc = 0i32;
            for (&x, &y) in arow.iter().zip(bcol) {
                acc = acc.wrapping_add(x as i32 * y as i32);
            }
            *o = acc;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! AVX2 / AVX-512 tile kernels over i8 panels. Each load sign-extends
    //! its bytes to i16; the `vpmaddwd`-family ops then give each i32 lane
    //! `a[2l]*b[2l] + a[2l+1]*b[2l+1]`, exact for i8 operands
    //! (|product sum| <= 2^15), with wrapping i32 lane accumulation —
    //! bit-compatible with the scalar kernel.

    use super::{MR, NR, PK};
    use std::arch::x86_64::*;

    /// i8 depth elements consumed per 512-bit step (widened to 32 i16).
    const L512: usize = 32;

    /// Reduce four 16-lane accumulators to their four dot products in
    /// one xmm: halve each zmm, then a 3-`hadd` network. The same
    /// wrapping-i32 adds as four `reduce_add` calls, in a different
    /// (immaterial — wrapping addition commutes) order, at a fraction of
    /// the instruction count; grouped per output *column*, the xmm is a
    /// ready-to-store column segment of `C`. This is what keeps short-`k`
    /// microtiles — the batched small-GEMM regime — from being dominated
    /// by horizontal-reduction overhead.
    ///
    /// # Safety
    /// AVX-512F required (implies the AVX2 `hadd` used here).
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn reduce_quad(accs: &[__m512i; MR]) -> __m128i {
        let halve = |v: __m512i| -> __m256i {
            _mm256_add_epi32(_mm512_castsi512_si256(v), _mm512_extracti64x4_epi64::<1>(v))
        };
        let h01 = _mm256_hadd_epi32(halve(accs[0]), halve(accs[1]));
        let h23 = _mm256_hadd_epi32(halve(accs[2]), halve(accs[3]));
        let q = _mm256_hadd_epi32(h01, h23);
        // q lanes: [s0,s1,s2,s3] of the low halves | high halves.
        _mm_add_epi32(_mm256_castsi256_si128(q), _mm256_extracti128_si256::<1>(q))
    }

    /// 32 i8 at `p`, sign-extended to 32 i16 lanes.
    ///
    /// # Safety
    /// AVX-512BW required; `p` valid for 32 bytes.
    #[inline]
    #[target_feature(enable = "avx512bw")]
    unsafe fn load_widen(p: *const i8) -> __m512i {
        _mm512_cvtepi8_epi16(_mm256_loadu_si256(p as *const __m256i))
    }

    /// # Safety
    /// Caller must ensure AVX-512BW + AVX-512VNNI are available, `kc` is a
    /// multiple of [`PK`], and `a`/`b` cover `(MR-1)*lda + kc` /
    /// `(NR-1)*ldb + kc` elements.
    #[target_feature(enable = "avx512bw,avx512vnni")]
    #[allow(clippy::needless_range_loop)]
    pub unsafe fn tile_vnni(
        kc: usize,
        lda: usize,
        ldb: usize,
        a: &[i8],
        b: &[i8],
        out: &mut [[i32; MR]; NR],
    ) {
        debug_assert!(kc.is_multiple_of(PK));
        debug_assert!(a.len() >= (MR - 1) * lda + kc && b.len() >= (NR - 1) * ldb + kc);
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut acc = [[_mm512_setzero_si512(); NR]; MR];
        for s in 0..kc / L512 {
            let off = s * L512;
            let mut av = [_mm512_setzero_si512(); MR];
            for (r, v) in av.iter_mut().enumerate() {
                *v = load_widen(ap.add(r * lda + off));
            }
            for c in 0..NR {
                let bv = load_widen(bp.add(c * ldb + off));
                for r in 0..MR {
                    acc[r][c] = _mm512_dpwssd_epi32(acc[r][c], av[r], bv);
                }
            }
        }
        for (c, ocol) in out.iter_mut().enumerate() {
            let col = [acc[0][c], acc[1][c], acc[2][c], acc[3][c]];
            _mm_storeu_si128(ocol.as_mut_ptr() as *mut __m128i, reduce_quad(&col));
        }
    }

    /// # Safety
    /// As [`tile_vnni`], but only AVX-512BW is required.
    #[target_feature(enable = "avx512bw")]
    #[allow(clippy::needless_range_loop)]
    pub unsafe fn tile_avx512(
        kc: usize,
        lda: usize,
        ldb: usize,
        a: &[i8],
        b: &[i8],
        out: &mut [[i32; MR]; NR],
    ) {
        debug_assert!(kc.is_multiple_of(PK));
        debug_assert!(a.len() >= (MR - 1) * lda + kc && b.len() >= (NR - 1) * ldb + kc);
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut acc = [[_mm512_setzero_si512(); NR]; MR];
        for s in 0..kc / L512 {
            let off = s * L512;
            let mut av = [_mm512_setzero_si512(); MR];
            for (r, v) in av.iter_mut().enumerate() {
                *v = load_widen(ap.add(r * lda + off));
            }
            for c in 0..NR {
                let bv = load_widen(bp.add(c * ldb + off));
                for r in 0..MR {
                    acc[r][c] = _mm512_add_epi32(acc[r][c], _mm512_madd_epi16(av[r], bv));
                }
            }
        }
        for (c, ocol) in out.iter_mut().enumerate() {
            let col = [acc[0][c], acc[1][c], acc[2][c], acc[3][c]];
            _mm_storeu_si128(ocol.as_mut_ptr() as *mut __m128i, reduce_quad(&col));
        }
    }

    /// # Safety
    /// As [`tile_vnni`], but only AVX2 is required.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::needless_range_loop)]
    pub unsafe fn tile_avx2(
        kc: usize,
        lda: usize,
        ldb: usize,
        a: &[i8],
        b: &[i8],
        out: &mut [[i32; MR]; NR],
    ) {
        const L: usize = 16; // i8 depth elements per 256-bit step
        debug_assert!(kc.is_multiple_of(L));
        debug_assert!(a.len() >= (MR - 1) * lda + kc && b.len() >= (NR - 1) * ldb + kc);
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let load_widen = |p: *const i8| _mm256_cvtepi8_epi16(_mm_loadu_si128(p as *const __m128i));
        let mut acc = [[_mm256_setzero_si256(); NR]; MR];
        for s in 0..kc / L {
            let off = s * L;
            let mut av = [_mm256_setzero_si256(); MR];
            for (r, v) in av.iter_mut().enumerate() {
                *v = load_widen(ap.add(r * lda + off));
            }
            for c in 0..NR {
                let bv = load_widen(bp.add(c * ldb + off));
                for r in 0..MR {
                    acc[r][c] = _mm256_add_epi32(acc[r][c], _mm256_madd_epi16(av[r], bv));
                }
            }
        }
        for (c, ocol) in out.iter_mut().enumerate() {
            for (r, o) in ocol.iter_mut().enumerate() {
                let v = acc[r][c];
                let s = _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
                let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b01_00_11_10));
                let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b00_00_00_01));
                *o = _mm_cvtsi128_si32(s);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod amx {
    //! The AMX-INT8 arm: `tdpbssd` over [`PV`]`×`[`PK`]-byte tiles, in
    //! stable inline assembly (tile registers are named in the templates;
    //! the compiler never allocates them).
    //!
    //! `tdpbssd dst, src1, src2` computes, for each 16×16 i32 `dst`,
    //! `dst[r][c] += Σ_{q<16} Σ_{t<4} src1[r][4q+t] · src2[q][4c+t]`, with
    //! wrapping i32 adds. `src1` rows are B panel columns loaded straight
    //! from the panels (K contiguous); `src2` must hold, in row `q`, the
    //! four bytes `4q..4q+4` of each of 16 A rows — the quad-interleaved
    //! layout [`interleave_a`] builds. So `dst` is a `Cᵀ` tile: row `r` is
    //! column `j0 + r` of `C` over rows `i0..i0 + 16`, one contiguous run
    //! of the column-major plane.

    use super::{PK, PV};
    use std::arch::asm;
    use std::arch::x86_64::*;

    /// Bytes of one interleaved A block (16 rows × 64 depth bytes).
    pub const BLOCK: usize = PV * PK;

    /// `ldtilecfg` operand: palette 1, all eight tiles 16 rows × 64 bytes.
    #[repr(C, align(64))]
    struct TileConfig([u8; 64]);

    static CONFIG: TileConfig = {
        let mut b = [0u8; 64];
        b[0] = 1;
        let mut t = 0;
        while t < 8 {
            b[16 + 2 * t] = PK as u8; // colsb[t], bytes per row (u16 LE)
            b[48 + t] = PV as u8; // rows[t]
            t += 1;
        }
        TileConfig(b)
    };

    /// The tile state of one stripe: configured on creation, released on
    /// drop (also when a panic unwinds the stripe), so a pool thread holds
    /// no 8 KiB tile state between stripes.
    struct TileScope(());

    impl TileScope {
        /// # Safety
        /// The CPU and OS must support AMX for this process
        /// ([`crate::Isa::Amx`] was probed).
        unsafe fn enter() -> Self {
            asm!(
                "ldtilecfg [{cfg}]",
                cfg = in(reg) &CONFIG as *const TileConfig,
                options(nostack, readonly, preserves_flags),
            );
            TileScope(())
        }
    }

    impl Drop for TileScope {
        fn drop(&mut self) {
            // SAFETY: a TileScope exists only after `enter`, whose caller
            // guaranteed AMX support.
            unsafe { asm!("tilerelease", options(nostack, nomem, preserves_flags)) };
        }
    }

    /// `tileloadd tmm$t, [ptr + stride]`.
    macro_rules! tileload {
        ($t:literal, $ptr:expr, $stride:expr) => {
            asm!(
                concat!("tileloadd tmm", $t, ", [{p} + {s}*1]"),
                p = in(reg) $ptr,
                s = in(reg) $stride,
                options(nostack, readonly, preserves_flags),
            )
        };
    }

    /// `tdpbssd tmm$c, tmm$b, tmm$a`.
    macro_rules! dp {
        ($c:literal, $b:literal, $a:literal) => {
            asm!(
                concat!("tdpbssd tmm", $c, ", tmm", $b, ", tmm", $a),
                options(nostack, nomem, preserves_flags),
            )
        };
    }

    /// Store `C` tile register `tmm$t` (rows `j..j+16` of `Cᵀ`, columns
    /// `i..i+16`) into the column-major `m x nc` stripe `c`: directly when
    /// the whole tile is inside the stripe, through a stack tile otherwise.
    macro_rules! store {
        ($t:literal, $c:expr, $m:expr, $nc:expr, $j:expr, $i:expr) => {{
            let (c, m, nc, j, i): (&mut [i32], usize, usize, usize, usize) = ($c, $m, $nc, $j, $i);
            debug_assert!(j < nc && i < m);
            if j + PV <= nc && i + PV <= m {
                asm!(
                    concat!("tilestored [{p} + {s}*1], tmm", $t),
                    p = in(reg) c[j * m + i..].as_mut_ptr(),
                    s = in(reg) 4 * m,
                    options(nostack, preserves_flags),
                );
            } else {
                let mut buf = [0i32; PV * PV];
                asm!(
                    concat!("tilestored [{p} + {s}*1], tmm", $t),
                    p = in(reg) buf.as_mut_ptr(),
                    s = in(reg) 4 * PV,
                    options(nostack, preserves_flags),
                );
                let cnt = PV.min(m - i);
                for (r, row) in buf.chunks_exact(PV).take(nc - j).enumerate() {
                    c[(j + r) * m + i..][..cnt].copy_from_slice(&row[..cnt]);
                }
            }
        }};
    }

    /// Interleave the `rows` (a multiple of 16) A-panel rows at `a` (row
    /// stride `lda`, `kp` bytes each, `kp` a multiple of [`PK`]) into
    /// `out`: the block of row strip `s` and depth chunk `ch` sits at
    /// `(s * kp / PK + ch) * BLOCK` and is that 16-row × 64-byte block
    /// transposed as a 16×16 matrix of dwords.
    ///
    /// # Safety
    /// AVX-512F required.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn interleave_a(a: &[i8], lda: usize, rows: usize, kp: usize, out: &mut [i8]) {
        assert!(rows.is_multiple_of(PV) && kp.is_multiple_of(PK));
        assert!(
            rows == 0 || a.len() >= (rows - 1) * lda + kp,
            "A window mismatch"
        );
        assert!(out.len() >= rows * kp, "interleave buffer mismatch");
        let nch = kp / PK;
        for s in 0..rows / PV {
            for ch in 0..nch {
                let src = a.as_ptr().add(s * PV * lda + ch * PK);
                let mut r = [_mm512_setzero_si512(); PV];
                for (i, v) in r.iter_mut().enumerate() {
                    *v = _mm512_loadu_si512(src.add(i * lda).cast());
                }
                let t = transpose16(r);
                let dst = out.as_mut_ptr().add((s * nch + ch) * BLOCK);
                for (q, v) in t.iter().enumerate() {
                    _mm512_storeu_si512(dst.add(q * PK).cast(), *v);
                }
            }
        }
    }

    /// Transpose a 16×16 matrix of dwords held one row per register.
    ///
    /// # Safety
    /// AVX-512F required.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn transpose16(r: [__m512i; 16]) -> [__m512i; 16] {
        // 4×4 transposes inside every 128-bit lane: afterwards u[4g + x]
        // lane l holds rows 4g..4g+4 of column 4l + x.
        let mut t = [_mm512_setzero_si512(); 16];
        for p in 0..8 {
            t[2 * p] = _mm512_unpacklo_epi32(r[2 * p], r[2 * p + 1]);
            t[2 * p + 1] = _mm512_unpackhi_epi32(r[2 * p], r[2 * p + 1]);
        }
        let mut u = [_mm512_setzero_si512(); 16];
        for g in 0..4 {
            u[4 * g] = _mm512_unpacklo_epi64(t[4 * g], t[4 * g + 2]);
            u[4 * g + 1] = _mm512_unpackhi_epi64(t[4 * g], t[4 * g + 2]);
            u[4 * g + 2] = _mm512_unpacklo_epi64(t[4 * g + 1], t[4 * g + 3]);
            u[4 * g + 3] = _mm512_unpackhi_epi64(t[4 * g + 1], t[4 * g + 3]);
        }
        // Gather lane l of u[x], u[4 + x], u[8 + x], u[12 + x] into row
        // 4l + x.
        let mut out = [_mm512_setzero_si512(); 16];
        for x in 0..4 {
            let lo01 = _mm512_shuffle_i32x4::<0x88>(u[x], u[4 + x]);
            let hi01 = _mm512_shuffle_i32x4::<0xdd>(u[x], u[4 + x]);
            let lo23 = _mm512_shuffle_i32x4::<0x88>(u[8 + x], u[12 + x]);
            let hi23 = _mm512_shuffle_i32x4::<0xdd>(u[8 + x], u[12 + x]);
            out[x] = _mm512_shuffle_i32x4::<0x88>(lo01, lo23);
            out[8 + x] = _mm512_shuffle_i32x4::<0xdd>(lo01, lo23);
            out[4 + x] = _mm512_shuffle_i32x4::<0x88>(hi01, hi23);
            out[12 + x] = _mm512_shuffle_i32x4::<0xdd>(hi01, hi23);
        }
        out
    }

    /// A `JW × IW` grid (each 1 or 2) of 16×16 `Cᵀ` tiles, accumulated in
    /// tile registers over all `nch` depth chunks and stored into `c`:
    /// B columns `j..j + 16·JW` of the stripe (panel rows at `b + j·ldb`),
    /// A rows `i..i + 16·IW` (interleaved strips at `ai + (i/16)·nch·BLOCK`).
    /// Tiles: `tmm0..3` accumulate `C`, `tmm4/5` hold B, `tmm6/7` hold A.
    ///
    /// # Safety
    /// Inside a [`TileScope`]; the panel and interleave extents are those
    /// [`stripe`] checks.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    unsafe fn block<const JW: usize, const IW: usize>(
        nch: usize,
        ldb: usize,
        b: &[i8],
        ai: &[i8],
        c: &mut [i32],
        m: usize,
        nc: usize,
        j: usize,
        i: usize,
    ) {
        let bp = b[j * ldb..].as_ptr();
        let ap = ai[i / PV * nch * BLOCK..].as_ptr();
        let strip = nch * BLOCK;
        asm!("tilezero tmm0", options(nostack, nomem, preserves_flags));
        if IW == 2 {
            asm!("tilezero tmm1", options(nostack, nomem, preserves_flags));
        }
        if JW == 2 {
            asm!("tilezero tmm2", options(nostack, nomem, preserves_flags));
            if IW == 2 {
                asm!("tilezero tmm3", options(nostack, nomem, preserves_flags));
            }
        }
        for ch in 0..nch {
            tileload!("4", bp.add(ch * PK), ldb);
            tileload!("6", ap.add(ch * BLOCK), PK);
            dp!("0", "4", "6");
            if IW == 2 {
                tileload!("7", ap.add(strip + ch * BLOCK), PK);
                dp!("1", "4", "7");
            }
            if JW == 2 {
                tileload!("5", bp.add(PV * ldb + ch * PK), ldb);
                dp!("2", "5", "6");
                if IW == 2 {
                    dp!("3", "5", "7");
                }
            }
        }
        store!("0", c, m, nc, j, i);
        if IW == 2 {
            store!("1", c, m, nc, j, i + PV);
        }
        if JW == 2 {
            store!("2", c, m, nc, j + PV, i);
            if IW == 2 {
                store!("3", c, m, nc, j + PV, i + PV);
            }
        }
    }

    /// One stripe on the tile unit: `c = A · B` over `nc` stripe columns,
    /// `b` the stripe's B panels (column `j` at `j * ldb`, offset to the
    /// depth window) and `ai` the call's [`interleave_a`] copy of the A
    /// window, `kp` bytes deep. Each B column pair is swept over all A row
    /// pairs, so it is loaded from cache while the A strips stream past.
    ///
    /// # Safety
    /// The CPU and OS must support AMX for this process
    /// ([`crate::Isa::Amx`] was probed).
    pub unsafe fn stripe(
        m: usize,
        kp: usize,
        ldb: usize,
        ai: &[i8],
        b: &[i8],
        nc: usize,
        c: &mut [i32],
    ) {
        let (mp, np) = (m.div_ceil(PV), nc.div_ceil(PV));
        assert!(kp.is_multiple_of(PK) && kp > 0);
        assert!(ai.len() >= mp * PV * kp, "interleave buffer mismatch");
        assert!(
            b.len() >= (np * PV - 1) * ldb + kp,
            "B panel buffer mismatch"
        );
        assert_eq!(c.len(), m * nc, "C buffer mismatch");
        let nch = kp / PK;
        let _tiles = TileScope::enter();
        for jp in (0..np).step_by(2) {
            let (j, jw2) = (jp * PV, jp + 1 < np);
            for ip in (0..mp).step_by(2) {
                let (i, iw2) = (ip * PV, ip + 1 < mp);
                match (jw2, iw2) {
                    (true, true) => block::<2, 2>(nch, ldb, b, ai, c, m, nc, j, i),
                    (true, false) => block::<2, 1>(nch, ldb, b, ai, c, m, nc, j, i),
                    (false, true) => block::<1, 2>(nch, ldb, b, ai, c, m, nc, j, i),
                    (false, false) => block::<1, 1>(nch, ldb, b, ai, c, m, nc, j, i),
                }
            }
        }
    }
}

/// Run the selected SIMD tile kernel on `kc` depth (a multiple of [`PK`];
/// packing guarantees this).
#[inline]
fn run_tile(
    isa: Isa,
    kc: usize,
    lda: usize,
    ldb: usize,
    a: &[i8],
    b: &[i8],
    out: &mut [[i32; MR]; NR],
) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: variant selected only after runtime feature detection;
        // slice lengths are established by the packed-panel layout.
        Isa::Avx512Vnni | Isa::Amx => unsafe { x86::tile_vnni(kc, lda, ldb, a, b, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        Isa::Avx512 => unsafe { x86::tile_avx512(kc, lda, ldb, a, b, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        Isa::Avx2 => unsafe { x86::tile_avx2(kc, lda, ldb, a, b, out) },
        _ => tile_scalar(kc, lda, ldb, a, b, out),
    }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// The cache-blocked SIMD tile sweep over one column stripe of packed
/// panels: `apack` and `bpack` are panel bases already offset to the depth
/// window (row `i` of A at `i * lda`, stripe-local column `j` of B at
/// `j * ldb`), with `kp_eff` (a multiple of [`PK`]) depth elements to
/// consume.
#[allow(clippy::too_many_arguments)]
fn simd_sweep(
    isa: Isa,
    m: usize,
    kp_eff: usize,
    lda: usize,
    ldb: usize,
    apack: &[i8],
    bpack: &[i8],
    nc: usize,
    c: &mut [i32],
) {
    let mut tile = [[0i32; MR]; NR];
    for ic in (0..m).step_by(MC) {
        let ilim = (ic + MC).min(m);
        let mut pc = 0;
        while pc < kp_eff {
            let kc = KC.min(kp_eff - pc);
            // The first depth chunk assigns C outright (every element of
            // the stripe belongs to some tile), later chunks accumulate —
            // which saves the separate zero-fill sweep over C.
            let first = pc == 0;
            for jt in (0..nc).step_by(NR) {
                let cols = NR.min(nc - jt);
                for it in (ic..ilim).step_by(MR) {
                    let rows = MR.min(m - it);
                    run_tile(
                        isa,
                        kc,
                        lda,
                        ldb,
                        &apack[it * lda + pc..],
                        &bpack[jt * ldb + pc..],
                        &mut tile,
                    );
                    for (cc, tcol) in tile.iter().enumerate().take(cols) {
                        let col = &mut c[(jt + cc) * m + it..(jt + cc) * m + it + rows];
                        if first {
                            col.copy_from_slice(&tcol[..rows]);
                        } else {
                            for (dst, &t) in col.iter_mut().zip(tcol) {
                                *dst = dst.wrapping_add(t);
                            }
                        }
                    }
                }
            }
            pc += kc;
        }
    }
}

/// One column stripe at level `isa`, followed by the fused epilogue on the
/// still-resident stripe. `a` is the A panel base offset to the depth
/// window, or for [`Isa::Amx`] the call's interleaved copy of that window.
#[allow(clippy::too_many_arguments)]
fn stripe_compute<E: Epilogue>(
    isa: Isa,
    m: usize,
    kp_eff: usize,
    lda: usize,
    ldb: usize,
    a: &[i8],
    bpack: &[i8],
    nc: usize,
    c: &mut [i32],
    out: &mut [u8],
    epi: &E,
) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Isa::Amx is reported only after the CPUID, XCR0 and
        // arch_prctl checks in `isa`; `amx::stripe` checks the extents.
        Isa::Amx => unsafe { amx::stripe(m, kp_eff, ldb, a, bpack, nc, c) },
        _ => simd_sweep(isa, m, kp_eff, lda, ldb, a, bpack, nc, c),
    }
    // Fault-injection seam: the completed INT32 stripe, before the fused
    // epilogue consumes it (no-op unless the injector is armed).
    crate::faultinject::corrupt_acc(c);
    if E::ACTIVE {
        epi.apply(c, out);
    }
}

/// Column-stripe count for a parallel sweep over `n_panels` B-panels:
/// two stripes per pool worker (capped at the panel count) so a worker
/// that finishes early takes another stripe from the pool's queue, one
/// stripe when the pool is a single worker (no parallelism to feed, so no
/// reason to split).
fn stripe_count(n_panels: usize) -> usize {
    let workers = rayon::current_num_threads();
    if workers <= 1 {
        1
    } else {
        (2 * workers).clamp(1, n_panels.max(1))
    }
}

/// The blocked INT8 GEMM over **pre-packed i8 panels** — the engine's one
/// entry: every product Algorithm 1 issues in `ozaki2` runs here, over
/// panels its producer wrote directly, and [`int8_gemm_blocked`] packs
/// and calls it.
///
/// `apack` holds [`padded_a_rows`]`(m)` row panels and `bpack`
/// [`padded_b_cols`]`(n)` column panels in the [`pack_panels`] layout
/// with full padded depth `kp_stride`; the call multiplies the depth window
/// `[depth_off, depth_off + k)` (so a `k`-blocked caller passes the same
/// panels with advancing `depth_off`). `C` is column-major `m x n`,
/// contiguous, fully overwritten. If `E::ACTIVE`, `out` must be an
/// `m x n` plane (same layout as `C`) and receives `epi` applied to every
/// element; otherwise pass an empty slice. `parallel = false` forces a
/// single-threaded sweep (microkernel benchmarking, nested-parallel
/// contexts).
///
/// The kernel consumes the window rounded up to [`PK`], so the tail
/// `[depth_off + k, depth_off + `[`padded_depth`]`(k))` must read zeros:
/// pass either a `k` that is a multiple of `PK`, or the *final* window of
/// the panels (whose rounded tail is the global zero padding). Block splits
/// at multiples of `PK` — like the pipeline's `2^17` — satisfy this for
/// every window.
///
/// The level is [`engine_isa`], read once here and carried into every
/// stripe (with the thread's cap), so a [`cap_scope`] on the caller pins
/// parallel stripes too. No packing happens here, so no workspace is
/// needed; the AMX arm's interleaved A copy lives in a grow-only
/// per-thread buffer, so steady-state calls allocate nothing.
///
/// # Panics
/// If `depth_off` is not a multiple of [`PK`], a window over-runs
/// `kp_stride`, or a buffer is too short for its panel geometry.
#[allow(clippy::too_many_arguments)]
pub fn int8_gemm_prepacked_fused<E: Epilogue>(
    m: usize,
    n: usize,
    k: usize,
    apack: &[i8],
    bpack: &[i8],
    kp_stride: usize,
    depth_off: usize,
    c: &mut [i32],
    out: &mut [u8],
    epi: &E,
    parallel: bool,
) {
    let kp_eff = padded_depth(k);
    assert!(
        depth_off.is_multiple_of(PK),
        "depth_off must be PK-aligned, got {depth_off}"
    );
    assert!(
        depth_off + kp_eff <= kp_stride,
        "depth window {depth_off}+{kp_eff} over-runs panel depth {kp_stride}"
    );
    let m_pad = padded_a_rows(m);
    assert!(apack.len() >= m_pad * kp_stride, "A panel buffer mismatch");
    assert!(
        bpack.len() >= padded_b_cols(n) * kp_stride,
        "B panel buffer mismatch"
    );
    assert_eq!(c.len(), m * n, "C buffer mismatch");
    if E::ACTIVE {
        assert_eq!(out.len(), m * n, "epilogue plane mismatch");
    }
    gemm_obs::catalog::ENGINE_INT8_CALLS.inc();
    gemm_obs::catalog::ENGINE_INT8_MACS.add((m as u64) * (n as u64) * (k as u64));
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill(0);
        if E::ACTIVE {
            epi.apply(c, out);
        }
        return;
    }
    // Stripe boundaries never change per-element accumulation order, so
    // the stripe count cannot affect results.
    let n_panels = n.div_ceil(PV);
    let stripes = if parallel { stripe_count(n_panels) } else { 1 };

    let level = engine_isa();
    let a_window = &apack[depth_off..];
    // The AMX arm reads A quad-interleaved: one copy per call, shared by
    // every stripe.
    let interleaved =
        (level == Isa::Amx).then(|| interleave_window(a_window, kp_stride, m_pad, kp_eff, stripes));
    let a_base = interleaved.as_deref().unwrap_or(a_window);

    struct PrepackedJob<'a> {
        j0: usize,
        nc: usize,
        c: &'a mut [i32],
        out: &'a mut [u8],
    }
    let mut jobs: Vec<PrepackedJob<'_>> = Vec::with_capacity(stripes);
    let mut c_rest = c;
    let mut out_rest = out;
    for s in 0..stripes {
        let p0 = s * n_panels / stripes;
        let p1 = (s + 1) * n_panels / stripes;
        let j0 = p0 * PV;
        let nc = n.min(p1 * PV) - j0;
        let (c_stripe, rest) = c_rest.split_at_mut(m * nc);
        c_rest = rest;
        let out_stripe = if E::ACTIVE {
            let (o, rest) = out_rest.split_at_mut(m * nc);
            out_rest = rest;
            o
        } else {
            &mut []
        };
        jobs.push(PrepackedJob {
            j0,
            nc,
            c: c_stripe,
            out: out_stripe,
        });
    }

    let run = |job: PrepackedJob<'_>| {
        // The caller's level, pinned on whichever thread runs the stripe
        // (the epilogue's mod kernel reads it there too).
        let _cap = cap_scope(level);
        stripe_compute(
            level,
            m,
            kp_eff,
            kp_stride,
            kp_stride,
            a_base,
            &bpack[job.j0 * kp_stride + depth_off..],
            job.nc,
            job.c,
            job.out,
            epi,
        )
    };
    if jobs.len() == 1 {
        run(jobs.pop().expect("one stripe"));
    } else {
        jobs.into_par_iter().for_each(run);
    }
    if let Some(buf) = interleaved {
        AMX_A.set(buf);
    }
}

/// The AMX arm's copy of the A window (`rows` panel rows at stride `lda`,
/// `kp` bytes deep), interleaved into the grow-only per-thread buffer,
/// which the caller hands back when the call is done. The copy is split
/// by 16-row strips over `tasks` pool tasks: it streams the whole window
/// once, so it is bandwidth-bound and scales with the workers.
fn interleave_window(a: &[i8], lda: usize, rows: usize, kp: usize, tasks: usize) -> Vec<i8> {
    let mut buf = AMX_A.take();
    if buf.len() < rows * kp {
        buf.resize(rows * kp, 0);
    }
    let strips_per_task = (rows / PV).div_ceil(tasks.max(1));
    buf[..rows * kp]
        .par_chunks_mut((strips_per_task * PV * kp).max(1))
        .enumerate()
        .for_each(|(t, dst)| {
            let r0 = t * strips_per_task * PV;
            #[cfg(target_arch = "x86_64")]
            // SAFETY: called only at Isa::Amx, which implies AVX-512F; the
            // extents are checked inside.
            unsafe {
                amx::interleave_a(&a[r0 * lda..], lda, dst.len() / kp, kp, dst)
            };
        });
    buf
}

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

/// Blocked GEMM over contiguous operands with a caller-owned workspace:
/// `A` row-major `m x k`, `B` column-major `k x n`, `C` column-major
/// `m x n`, fully overwritten.
///
/// Packs both operands into `ws` (A serially, B in as many column chunks
/// as the sweep has stripes, one task each, so packing scales with the
/// workers like the sweep does) and runs [`int8_gemm_prepacked_fused`]
/// over the panels in parallel, with no epilogue.
///
/// # Panics
/// If any buffer length disagrees with the shape.
pub fn int8_gemm_blocked(
    m: usize,
    n: usize,
    k: usize,
    a_rm: &[i8],
    b_cm: &[i8],
    c_cm: &mut [i32],
    ws: &mut Int8Workspace,
) {
    assert_eq!(a_rm.len(), m * k, "A buffer mismatch");
    assert_eq!(b_cm.len(), k * n, "B buffer mismatch");
    let kp = padded_depth(k);
    pack_panels(&mut ws.apack, a_rm, k, m, padded_a_rows(m), k, kp);

    let n_pad = padded_b_cols(n);
    if ws.bpack.len() < n_pad * kp {
        ws.bpack.resize(n_pad * kp, 0);
    }
    let n_panels = n_pad / PV;
    let stripe_cols = n_panels.div_ceil(stripe_count(n_panels)) * PV;
    ws.bpack[..n_pad * kp]
        .par_chunks_mut((stripe_cols * kp).max(1))
        .enumerate()
        .for_each(|(s, dst)| {
            let j0 = s * stripe_cols;
            let nc = stripe_cols.min(n_pad - j0);
            pack_into(dst, &b_cm[j0 * k..], k, nc.min(n - j0), nc, k, kp);
        });

    int8_gemm_prepacked_fused(
        m,
        n,
        k,
        &ws.apack,
        &ws.bpack,
        kp,
        0,
        c_cm,
        &mut [],
        &NoEpilogue,
        true,
    );
}

/// The seed scalar kernel: per-element dot products, no tiling, no SIMD
/// dispatch. Kept as the speedup baseline for the `int8_microkernel` bench
/// and as a structurally independent correctness reference.
pub fn int8_gemm_rm_cm_scalar(
    m: usize,
    n: usize,
    k: usize,
    a_rm: &[i8],
    b_cm: &[i8],
    c_cm: &mut [i32],
) {
    assert_eq!(a_rm.len(), m * k, "A buffer mismatch");
    assert_eq!(b_cm.len(), k * n, "B buffer mismatch");
    assert_eq!(c_cm.len(), m * n, "C buffer mismatch");
    for (j, c_col) in c_cm.chunks_exact_mut(m).enumerate() {
        let b_col = &b_cm[j * k..(j + 1) * k];
        for (i, ci) in c_col.iter_mut().enumerate() {
            let a_row = &a_rm[i * k..(i + 1) * k];
            let mut acc = 0i32;
            for (&x, &y) in a_row.iter().zip(b_col.iter()) {
                acc = acc.wrapping_add(x as i32 * y as i32);
            }
            *ci = acc;
        }
    }
}

/// Naive oracle with the same wrapping semantics (tests only).
pub fn int8_gemm_naive(a: &MatI8, b: &MatI8) -> MatI32 {
    let (m, k) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(k, kb, "inner dimensions must agree");
    Matrix::from_fn(m, n, |i, j| {
        let mut acc = 0i32;
        for h in 0..k {
            acc = acc.wrapping_add(a[(i, h)] as i32 * b[(h, j)] as i32);
        }
        acc
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern_mat(rows: usize, cols: usize, salt: i32) -> MatI8 {
        Matrix::from_fn(rows, cols, |i, j| {
            (((i as i32 * 31 + j as i32 * 17 + salt) % 255) - 127) as i8
        })
    }

    /// `A · B` through [`int8_gemm_blocked`] with a fresh workspace.
    fn gemm(a: &MatI8, b: &MatI8) -> MatI32 {
        let ((m, k), n) = (a.shape(), b.cols());
        let mut c = Matrix::<i32>::zeros(m, n);
        let mut ws = Int8Workspace::new();
        int8_gemm_blocked(
            m,
            n,
            k,
            &a.to_row_major(),
            b.as_slice(),
            c.as_mut_slice(),
            &mut ws,
        );
        c
    }

    /// Pack a full operand set into prepacked panels (test helper).
    fn pack_full(src: &[i8], ld: usize, vecs: usize, vecs_pad: usize, k: usize) -> Vec<i8> {
        let kp = padded_depth(k);
        let mut pack = Vec::new();
        pack_panels(&mut pack, src, ld, vecs, vecs_pad, k, kp);
        pack
    }

    /// `A · B` over panels packed from row-major `a` (row stride `lda`)
    /// and column-major `b` (column stride `ldb`), with epilogue `epi`
    /// into `out`.
    #[allow(clippy::too_many_arguments)]
    fn gemm_strided<E: Epilogue>(
        m: usize,
        n: usize,
        k: usize,
        a: &[i8],
        lda: usize,
        b: &[i8],
        ldb: usize,
        c: &mut [i32],
        out: &mut [u8],
        epi: &E,
    ) {
        let apack = pack_full(a, lda, m, padded_a_rows(m), k);
        let bpack = pack_full(b, ldb, n, padded_b_cols(n), k);
        let kp = padded_depth(k);
        int8_gemm_prepacked_fused(m, n, k, &apack, &bpack, kp, 0, c, out, epi, true);
    }

    #[test]
    fn matches_naive() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 4, 5),
            (17, 33, 9),
            (32, 64, 48),
            (MR, PK, NR),
            (MR + 1, PK + 1, NR + 1),
            (2 * MR - 1, KC + 7, 3 * NR - 2),
            (MC + 3, 2 * KC + 31, 2 * NR + 1),
        ] {
            let a = pattern_mat(m, k, 1);
            let b = pattern_mat(k, n, 2);
            assert_eq!(gemm(&a, &b), int8_gemm_naive(&a, &b), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn simd_tile_matches_scalar_tile() {
        // Drive run_tile directly over padded panels for every kernel the
        // host supports.
        let kc = 2 * PK;
        let lda = kc + PK;
        let a8: Vec<i8> = (0..MR * lda)
            .map(|i| (((i * 37 + 5) % 256) as i16 - 128) as i8)
            .collect();
        let b8: Vec<i8> = (0..NR * lda)
            .map(|i| (((i * 61 + 9) % 256) as i16 - 128) as i8)
            .collect();
        let mut want = [[0i32; NR]; MR];
        tile_scalar(kc, lda, lda, &a8, &b8, &mut want);
        let mut got = [[0i32; NR]; MR];
        run_tile(isa(), kc, lda, lda, &a8, &b8, &mut got);
        assert_eq!(got, want, "kernel={}", microkernel_name());
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn amx_interleave_is_a_dword_transpose() {
        if isa() < Isa::Amx {
            eprintln!("SKIPPED amx_interleave_is_a_dword_transpose: no AMX on this host");
            return;
        }
        // Two 16-row strips, three depth chunks, at a row stride wider
        // than the window.
        let (rows, kp, lda) = (2 * PV, 3 * PK, 4 * PK);
        let a: Vec<i8> = (0..rows * lda).map(|i| (i * 131 % 251) as i8).collect();
        let mut out = vec![0i8; rows * kp];
        // SAFETY: Isa::Amx implies AVX-512F.
        unsafe { amx::interleave_a(&a, lda, rows, kp, &mut out) };
        let nch = kp / PK;
        for s in 0..rows / PV {
            for ch in 0..nch {
                let blk = &out[(s * nch + ch) * amx::BLOCK..][..amx::BLOCK];
                for q in 0..PK / 4 {
                    for i in 0..PV {
                        for t in 0..4 {
                            let want = a[(s * PV + i) * lda + ch * PK + 4 * q + t];
                            assert_eq!(blk[q * PK + 4 * i + t], want, "s={s} ch={ch} q={q} i={i}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn blocked_matches_scalar_seed_kernel() {
        let (m, k, n) = (23usize, 301, 19);
        let a = pattern_mat(m, k, 5).to_row_major();
        let b = pattern_mat(k, n, 6);
        let mut c_blocked = vec![0i32; m * n];
        let mut c_scalar = vec![0i32; m * n];
        let mut ws = Int8Workspace::new();
        int8_gemm_blocked(m, n, k, &a, b.as_slice(), &mut c_blocked, &mut ws);
        int8_gemm_rm_cm_scalar(m, n, k, &a, b.as_slice(), &mut c_scalar);
        assert_eq!(c_blocked, c_scalar);
    }

    #[test]
    fn strided_operands_match_contiguous() {
        // Sub-GEMM over the middle k-block of a larger plane, packed
        // directly from the strided source (the pipeline's k-blocked path).
        let (m, k_full, n, h0, kb) = (9usize, 64, 7, 13, 29);
        let a = pattern_mat(m, k_full, 3).to_row_major();
        let b = pattern_mat(k_full, n, 4);
        let mut want = vec![0i32; m * n];
        {
            // Reference: gather the block contiguously first.
            let a_blk: Vec<i8> = (0..m)
                .flat_map(|i| a[i * k_full + h0..i * k_full + h0 + kb].iter().copied())
                .collect();
            let b_blk: Vec<i8> = (0..n)
                .flat_map(|j| {
                    b.as_slice()[j * k_full + h0..j * k_full + h0 + kb]
                        .iter()
                        .copied()
                })
                .collect();
            int8_gemm_rm_cm_scalar(m, n, kb, &a_blk, &b_blk, &mut want);
        }
        let mut got = vec![0i32; m * n];
        gemm_strided(
            m,
            n,
            kb,
            &a[h0..],
            k_full,
            &b.as_slice()[h0..],
            k_full,
            &mut got,
            &mut [],
            &NoEpilogue,
        );
        assert_eq!(got, want);
    }

    #[test]
    fn fused_reduce_matches_separate() {
        let (m, k, n) = (31usize, 100, 21);
        let p = 251u64;
        let pinv = ((1u64 << 32) / p - 1) as u32;
        let a = pattern_mat(m, k, 7).to_row_major();
        let b = pattern_mat(k, n, 8);
        let mut c = vec![0i32; m * n];
        let mut u_fused = vec![0u8; m * n];
        let epi = ReduceEpilogue::new(p, pinv, None);
        gemm_strided(m, n, k, &a, k, b.as_slice(), k, &mut c, &mut u_fused, &epi);
        for (i, (&u, &x)) in u_fused.iter().zip(&c).enumerate() {
            assert_eq!(u as i64, (x as i64).rem_euclid(p as i64), "elem {i}");
        }
    }

    #[test]
    fn fused_accumulate_adds_residues() {
        let (m, k, n) = (6usize, 40, 5);
        let p = 239u64;
        let pinv = ((1u64 << 32) / p - 1) as u32;
        let a = pattern_mat(m, k, 9).to_row_major();
        let b = pattern_mat(k, n, 10);
        let mut c = vec![0i32; m * n];
        // Residues left by earlier depth blocks, up to p - 1.
        let prior: Vec<u8> = (0..m * n).map(|i| (i * 37 % p as usize) as u8).collect();
        let mut u = prior.clone();
        let epi = AddModEpilogue::new(p, pinv, None);
        gemm_strided(m, n, k, &a, k, b.as_slice(), k, &mut c, &mut u, &epi);
        for (i, ((&s, &x), &u0)) in u.iter().zip(&c).zip(&prior).enumerate() {
            let want = (u0 as i64 + x as i64).rem_euclid(p as i64);
            assert_eq!(s as i64, want, "elem {i}");
        }
    }

    #[test]
    fn prepacked_matches_packed_path() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 4, 5),
            (17, 100, 9),
            (MR + 1, PK + 1, NR + 1),
            (2 * MR - 1, KC + 7, 3 * NR - 2),
        ] {
            let a = pattern_mat(m, k, 11).to_row_major();
            let b = pattern_mat(k, n, 12);
            let kp = padded_depth(k);
            let apack = pack_full(&a, k, m, padded_a_rows(m), k);
            let bpack = pack_full(b.as_slice(), k, n, padded_b_cols(n), k);
            let mut want = vec![0i32; m * n];
            let mut ws = Int8Workspace::new();
            int8_gemm_blocked(m, n, k, &a, b.as_slice(), &mut want, &mut ws);
            let mut got = vec![0i32; m * n];
            int8_gemm_prepacked_fused(
                m,
                n,
                k,
                &apack,
                &bpack,
                kp,
                0,
                &mut got,
                &mut [],
                &NoEpilogue,
                true,
            );
            assert_eq!(got, want, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn prepacked_depth_window_matches_gathered_block() {
        // A sub-product over the trailing k-window of larger panels — the
        // pipeline's k-blocked path — must agree with a contiguous gather.
        // The window is ragged (not a PK multiple), so its rounded-up tail
        // exercises the global zero padding.
        let (m, k_full, n) = (9usize, 4 * PK + 13, 7);
        let (h0, kb) = (2 * PK, 2 * PK + 13); // final window, ragged width
        let a = pattern_mat(m, k_full, 13).to_row_major();
        let b = pattern_mat(k_full, n, 14);
        let kp = padded_depth(k_full);
        let apack = pack_full(&a, k_full, m, padded_a_rows(m), k_full);
        let bpack = pack_full(b.as_slice(), k_full, n, padded_b_cols(n), k_full);
        let mut want = vec![0i32; m * n];
        {
            let a_blk: Vec<i8> = (0..m)
                .flat_map(|i| a[i * k_full + h0..i * k_full + h0 + kb].iter().copied())
                .collect();
            let b_blk: Vec<i8> = (0..n)
                .flat_map(|j| {
                    b.as_slice()[j * k_full + h0..j * k_full + h0 + kb]
                        .iter()
                        .copied()
                })
                .collect();
            int8_gemm_rm_cm_scalar(m, n, kb, &a_blk, &b_blk, &mut want);
        }
        let p = 251u64;
        let pinv = ((1u64 << 32) / p - 1) as u32;
        let mut got = vec![0i32; m * n];
        let mut u = vec![0u8; m * n];
        let epi = ReduceEpilogue::new(p, pinv, None);
        int8_gemm_prepacked_fused(
            m, n, kb, &apack, &bpack, kp, h0, &mut got, &mut u, &epi, true,
        );
        assert_eq!(got, want);
        for (i, (&r, &x)) in u.iter().zip(&want).enumerate() {
            assert_eq!(r as i64, (x as i64).rem_euclid(p as i64), "elem {i}");
        }
    }

    #[test]
    #[should_panic(expected = "depth_off must be PK-aligned")]
    fn prepacked_rejects_unaligned_offset() {
        let apack = vec![0i8; padded_a_rows(1) * PK];
        let bpack = vec![0i8; padded_b_cols(1) * PK];
        let mut c = vec![0i32; 1];
        int8_gemm_prepacked_fused(
            1,
            1,
            1,
            &apack,
            &bpack,
            PK,
            3,
            &mut c,
            &mut [],
            &NoEpilogue,
            true,
        );
    }

    #[test]
    fn full_range_values() {
        // Include the extreme values -128 and 127.
        let a = Matrix::from_fn(2, 3, |i, j| if (i + j) % 2 == 0 { -128 } else { 127 });
        let b = Matrix::from_fn(3, 2, |i, j| if (i * j) % 2 == 0 { 127 } else { -128 });
        let c = gemm(&a, &b);
        assert_eq!(c, int8_gemm_naive(&a, &b));
    }

    #[test]
    fn accumulator_wraps_at_2_pow_31() {
        // k = 2^17 products of (-128)*(-128) = 2^14 each: sum = 2^31,
        // which wraps to i32::MIN — the exact behaviour §4.3 relies on.
        let k = 1 << 17;
        let a = Matrix::from_fn(1, k, |_, _| -128i8);
        let b = Matrix::from_fn(k, 1, |_, _| -128i8);
        let c = gemm(&a, &b);
        assert_eq!(c[(0, 0)], i32::MIN);
        // And the mod-256 residue is unharmed: -2^31 ≡ 0 ≡ 2^31 (mod 256).
        assert_eq!((c[(0, 0)] as i64).rem_euclid(256), 0);
    }

    #[test]
    fn zero_k_gives_zero_matrix() {
        let a = Matrix::<i8>::zeros(3, 0);
        let b = Matrix::<i8>::zeros(0, 2);
        let c = gemm(&a, &b);
        assert!(c.iter().all(|&x| x == 0));
    }

    #[test]
    fn workspace_reused_across_calls() {
        let mut ws = Int8Workspace::new();
        let a = pattern_mat(16, 48, 1).to_row_major();
        let b = pattern_mat(48, 12, 2);
        let mut c = vec![0i32; 16 * 12];
        int8_gemm_blocked(16, 12, 48, &a, b.as_slice(), &mut c, &mut ws);
        let after_first = ws.bytes();
        assert!(after_first > 0);
        for _ in 0..3 {
            int8_gemm_blocked(16, 12, 48, &a, b.as_slice(), &mut c, &mut ws);
            assert_eq!(ws.bytes(), after_first, "steady state must not allocate");
        }
    }

    #[test]
    #[should_panic(expected = "A buffer mismatch")]
    fn buffer_length_checked() {
        let mut c = vec![0i32; 4];
        int8_gemm_blocked(
            2,
            2,
            2,
            &[0i8; 3],
            &[0i8; 4],
            &mut c,
            &mut Int8Workspace::new(),
        );
    }

    #[test]
    fn barrett_mod_boundaries() {
        for &p in &[3u64, 251, 256, 127] {
            let pinv = ((1u64 << 32) / p - 1) as u32;
            for &v in &[i32::MIN, i32::MIN + 1, -1, 0, 1, i32::MAX - 1, i32::MAX] {
                assert_eq!(
                    barrett_mod_u8(v, p as i32, pinv) as i64,
                    (v as i64).rem_euclid(p as i64),
                    "x={v} p={p}"
                );
            }
        }
    }

    /// Rows exercising the SIMD body + scalar tail with wrap-prone values
    /// (extremes, ±p multiples, dense small values).
    fn mod_parity_rows() -> Vec<Vec<i32>> {
        let mut rows = Vec::new();
        for len in [1usize, 7, 8, 15, 16, 17, 33, 100] {
            let mut row = Vec::with_capacity(len);
            for i in 0..len {
                let v = match i % 7 {
                    0 => i32::MIN + i as i32,
                    1 => i32::MAX - i as i32,
                    2 => -(i as i32) * 257,
                    3 => (i as i32) * 256,
                    4 => -1 - i as i32,
                    5 => (i as i32).wrapping_mul(0x0123_4567),
                    _ => i as i32,
                };
                row.push(v);
            }
            rows.push(row);
        }
        rows
    }

    #[test]
    fn dispatched_mod_rows_bit_identical_to_scalar() {
        for &p in &[2u64, 3, 127, 251, 255, 256] {
            let pinv = ((1u64 << 32) / p - 1) as u32;
            for row in mod_parity_rows() {
                let mut got = vec![0u8; row.len()];
                let mut want = vec![0u8; row.len()];
                barrett_mod_row_u8(&row, &mut got, p as i32, pinv);
                barrett_mod_row_u8_scalar(&row, &mut want, p as i32, pinv);
                assert_eq!(got, want, "u8 kernel={} p={p}", mod_kernel_name());

                // Add-mod variant over residues already in [0, p), the
                // top one p - 1.
                let mut got_add: Vec<u8> = (0..row.len())
                    .map(|i| (p as usize - 1 - i % p as usize) as u8)
                    .collect();
                let mut want_add = got_add.clone();
                barrett_addmod_row_u8(&row, &mut got_add, p as i32, pinv);
                barrett_addmod_row_u8_scalar(&row, &mut want_add, p as i32, pinv);
                assert_eq!(
                    got_add,
                    want_add,
                    "add-mod kernel={} p={p}",
                    mod_kernel_name()
                );
            }
        }
    }
}
