//! Algorithm 1 lines 6–7 over packed panels (`execute_panels`, the one
//! executor every entry runs) and its ABFT fault tolerance: checksum
//! construction, per-plane verification, and the recovery state machine.
//! Under [`FaultPolicy::Off`] the executor runs only the plane GEMMs —
//! none of the machinery below.
//!
//! The scheme's inner loop is **exact integer arithmetic mod `p`**, so
//! Huang–Abraham checksums hold *bitwise*: for every residue plane
//! `U_s = (A'_s · B'_s) mod p_s`,
//!
//! ```text
//! rowsum_i(U_s) ≡ (A'_s · chk_b)_i   (mod p_s)      chk_b[h] = Σ_j B'_s[h,j]
//! colsum_j(U_s) ≡ (chk_a · B'_s)_j   (mod p_s)      chk_a[h] = Σ_i A'_s[i,h]
//! ```
//!
//! with **zero tolerance** — a mismatch is a genuine fault (flipped panel
//! byte, corrupted accumulator, bad residue write), never rounding. The
//! checksum vectors are reduced to the same symmetric residue
//! representatives in `[-128, 127]` the regular panels use, so they are
//! i8 panels themselves, every term
//! of the reference products is bounded by `2^14` and the host-side
//! widening dot products that compute them are exact at any depth.
//!
//! Fault axes localize the failure class:
//!
//! * accumulator / residue corruption at `(i, j)` → row `i` **and**
//!   column `j` mismatch → re-run only the panel-aligned column stripe;
//! * a corrupted `A` panel shifts `U` and the row references computed
//!   *from the same corrupt panel* consistently → only the **column**
//!   axis (whose reference predates the corruption) trips → the stripe
//!   re-run would recompute from the same bad panel, so recovery repacks
//!   the panels from the source operand and re-runs the whole plane;
//! * symmetric for a corrupted `B` panel (row axis trips);
//! * a residue byte rewritten to `u + p` (same class, out-of-range
//!   representative) is caught by the `u < p` range check.
//!
//! A flip the checksums *cannot* see is mathematically inert: it left
//! every residue class unchanged, so the folded output is bit-identical
//! anyway. The detection contract is therefore "the output differs from
//! the fault-free run ⟹ the fault was detected".
//!
//! Recovery runs with injection suppressed and on the calling thread
//! (`parallel = false`), escalating stripe re-run → full repack + plane
//! re-run → scalar-kernel re-run ([`FaultPolicy::RetryThenScalar`], under
//! `gemm_engine::cap_scope(Isa::Scalar)`, which pins the engine and every
//! dispatched row kernel, these checksum sweeps included); the scalar
//! kernels are the bit-exact oracle the AMX and SIMD paths are tested
//! against, so a successful recovery reproduces the fault-free result
//! bit-identically.

use crate::consts::Constants;
use crate::convert::{trunc_convert_pack_panels, TruncSource};
use crate::pipeline::{PhaseTimes, K_BLOCK_MAX};
use gemm_engine::faultinject::{self, FaultSite};
use gemm_engine::{
    barrett_mod_row_u8, cap_scope, dispatch, engine_isa, int8_gemm_prepacked_fused, padded_a_rows,
    padded_b_cols, padded_depth, AccumulateEpilogue, Isa, ReduceEpilogue, PV,
};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Policy and report types
// ---------------------------------------------------------------------------

/// What the pipeline does about silent data corruption.
///
/// The default for every [`crate::Ozaki2`] comes from the
/// `OZAKI_FAULT_POLICY` environment variable (`off` | `detect` |
/// `retry[:N]` | `retry-then-scalar[:N]`, unset → `Off`); override per
/// emulator with [`crate::Ozaki2::with_fault_policy`] or per call with
/// [`crate::GemmArgs::fault_policy`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FaultPolicy {
    /// No checksums are built, no verification runs: bit-identical to the
    /// pre-ABFT pipeline with zero overhead.
    #[default]
    Off,
    /// Verify every residue plane and record mismatches in the
    /// [`FaultReport`], but leave the (corrupt) result as computed.
    Detect,
    /// Verify and re-execute on mismatch: first the affected panel-aligned
    /// column stripe, then (for persistent or panel-level faults) a full
    /// repack + plane re-run, up to `max_retries` times per plane.
    Retry {
        /// Re-execution attempts per residue plane before giving up
        /// ([`FaultReport::unrecovered`] counts the give-ups).
        max_retries: u8,
    },
    /// [`FaultPolicy::Retry`], then one final full re-run on the scalar
    /// kernel path (the bit-exact oracle) after `max_retries` SIMD
    /// attempts — graceful degradation instead of a corrupt answer.
    RetryThenScalar {
        /// SIMD re-execution attempts before the scalar fallback.
        max_retries: u8,
    },
}

impl FaultPolicy {
    /// Whether this policy builds checksums and verifies at all.
    pub fn is_active(self) -> bool {
        !matches!(self, FaultPolicy::Off)
    }

    /// The process-wide default: parsed once from `OZAKI_FAULT_POLICY`
    /// (`off` | `detect` | `retry[:N]` | `retry-then-scalar[:N]`,
    /// case-insensitive; unset or unparsable → [`FaultPolicy::Off`]).
    /// This is how CI runs the entire suite under an active policy
    /// without touching a single call site.
    pub fn default_from_env() -> Self {
        static DEFAULT: OnceLock<FaultPolicy> = OnceLock::new();
        *DEFAULT.get_or_init(|| {
            let Ok(raw) = std::env::var("OZAKI_FAULT_POLICY") else {
                return FaultPolicy::Off;
            };
            let raw = raw.to_ascii_lowercase();
            let (name, retries) = match raw.split_once(':') {
                Some((n, r)) => (n, r.parse::<u8>().ok()),
                None => (raw.as_str(), None),
            };
            match name {
                "detect" => FaultPolicy::Detect,
                "retry" => FaultPolicy::Retry {
                    max_retries: retries.unwrap_or(2),
                },
                "retry-then-scalar" => FaultPolicy::RetryThenScalar {
                    max_retries: retries.unwrap_or(2),
                },
                _ => FaultPolicy::Off,
            }
        })
    }
}

/// What recovery did about one detected mismatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Recorded only ([`FaultPolicy::Detect`]).
    Detected,
    /// Re-ran the affected panel-aligned column stripe.
    StripeRetry,
    /// Repacked the repackable operand panels from the source views,
    /// rebuilt the plane's checksums, and re-ran the whole plane.
    FullRepair,
    /// Full repair on the scalar kernel path after exhausting the SIMD
    /// retry budget.
    ScalarFallback,
    /// The plane still failed verification after every permitted
    /// recovery step.
    Unrecovered,
}

/// One detected fault and the recovery step taken.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Residue-plane index `s` (the modulus `p_s`).
    pub plane: usize,
    /// Mismatching column range `[lo, hi]` (inclusive) when the column
    /// axis localized the fault; `None` when only the row axis tripped.
    pub columns: Option<(usize, usize)>,
    /// What was done about it.
    pub action: RecoveryAction,
}

/// ABFT outcome of one emulated GEMM, surfaced through
/// [`crate::EmulationReport::fault`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Failed plane verifications (every verification pass that found a
    /// mismatch, including re-checks after an unsuccessful recovery
    /// step).
    pub detected: usize,
    /// SIMD re-executions performed (stripe re-runs + full repairs).
    pub retries: usize,
    /// Scalar-oracle fallbacks performed.
    pub scalar_fallbacks: usize,
    /// Planes whose verification still failed after the last permitted
    /// recovery step (the output may be corrupt).
    pub unrecovered: usize,
    /// Checksum GEMMs issued for the side channel (kept out of
    /// [`crate::EmulationReport::int8_gemm_calls`] so that count stays
    /// deterministic under fault injection).
    pub checksum_gemms: usize,
    /// Per-fault log in detection order.
    pub events: Vec<FaultEvent>,
}

impl FaultReport {
    /// No fault was detected (and therefore nothing recovered).
    pub fn clean(&self) -> bool {
        self.detected == 0
    }
}

// ---------------------------------------------------------------------------
// Panel sources for recovery
// ---------------------------------------------------------------------------

/// How recovery can reconstruct one side's packed residue panels.
pub(crate) enum PanelsRef<'a> {
    /// Immutable panels (a cached [`crate::prepared::PreparedOperand`]):
    /// never injected into and never repacked — prepared panels are the
    /// trusted source recovery recomputes *from*.
    Fixed(&'a [i8]),
    /// Per-call panels packed into the workspace, with the deterministic
    /// recipe (source view + scale exponents) to repack them from
    /// scratch when a panel-level fault is suspected.
    Repackable {
        panels: &'a mut [i8],
        src: TruncSource<'a>,
        vecs: usize,
        vecs_pad: usize,
    },
}

impl PanelsRef<'_> {
    pub(crate) fn panels(&self) -> &[i8] {
        match self {
            PanelsRef::Fixed(p) => p,
            PanelsRef::Repackable { panels, .. } => panels,
        }
    }

    /// Deterministically rebuild the panels from the source operand
    /// (no-op for [`PanelsRef::Fixed`]). The sweep is bit-reproducible,
    /// so untouched planes come back identical and previously built
    /// checksums stay valid.
    fn repack(&mut self, k: usize, kp: usize, consts: &Constants, b64: bool) {
        if let PanelsRef::Repackable {
            panels,
            src,
            vecs,
            vecs_pad,
        } = self
        {
            trunc_convert_pack_panels(
                *src, *vecs, *vecs_pad, k, kp, consts, b64, false, panels, None,
            );
        }
    }
}

// ---------------------------------------------------------------------------
// SIMD-widened inner sweeps
// ---------------------------------------------------------------------------
// The checksum capture, reference dot products, and verification sweep
// are plain integer reduction loops; compiled for the baseline x86-64
// target they autovectorize at SSE2 width only, which is wide enough to
// show the side channel in the wall clock. Their callers run them through
// `gemm_engine::dispatch`, so LLVM re-autovectorizes them at AVX2 /
// AVX-512 width — bit-identical at every width (integer arithmetic only).

/// Depth-wise accumulation of packed vectors `v0..v1` into `scratch`
/// (the checksum-capture inner loop).
#[inline(always)]
fn accum_vecs(plane: &[i8], kp: usize, v0: usize, v1: usize, scratch: &mut [i32]) {
    for v in v0..v1 {
        for (acc, &x) in scratch.iter_mut().zip(&plane[v * kp..(v + 1) * kp]) {
            *acc += x as i32;
        }
    }
}

/// Widening i8 dot product of one (≤ `2^16`-element) chunk.
#[inline(always)]
fn dot_chunk(x: &[i8], y: &[i8]) -> i32 {
    let mut acc = 0i32;
    for (&a, &b) in x.iter().zip(y) {
        acc += a as i32 * b as i32;
    }
    acc
}

/// One verification column: column sum, row-sum accumulation, and the
/// column maximum for the `u < p` range check.
#[inline(always)]
fn col_sweep(col: &[u8], rowsum: &mut [u32]) -> (u32, u8) {
    let mut cs = 0u32;
    let mut mx = 0u8;
    for (&x, rs) in col.iter().zip(rowsum.iter_mut()) {
        cs += x as u32;
        *rs += x as u32;
        mx = mx.max(x);
    }
    (cs, mx)
}

// ---------------------------------------------------------------------------
// Checksum construction and verification
// ---------------------------------------------------------------------------

/// Build one plane's checksum vector: sum the plane's `vecs` packed
/// vectors depth-wise, reduce mod `p`, and store the symmetric
/// representative (in `[-128, 127]`, the regular panels' i8 range) in
/// the `kp`-element `out`. Accumulation is i32 — `|x| ≤ 128` keeps
/// `2^16` vectors overflow-free, and the running sums are re-reduced
/// mod `p` between chunks for larger `vecs` — so the inner loop
/// vectorizes at twice the width an i64 accumulator would allow.
fn build_checksum_plane(
    plane: &[i8],
    vecs: usize,
    kp: usize,
    p: u64,
    out: &mut [i8],
    scratch: &mut [i32],
) {
    const CHUNK: usize = 1 << 16;
    let scratch = &mut scratch[..kp];
    scratch.fill(0);
    let p = p as i32;
    let mut v0 = 0usize;
    while v0 < vecs {
        let v1 = vecs.min(v0 + CHUNK);
        dispatch(|| accum_vecs(plane, kp, v0, v1, scratch));
        v0 = v1;
        if v0 < vecs {
            for acc in scratch.iter_mut() {
                *acc = acc.rem_euclid(p);
            }
        }
    }
    let half = (p - 1) / 2;
    for (o, &s) in out[..kp].iter_mut().zip(scratch.iter()) {
        let r = s.rem_euclid(p);
        *o = (if r <= half { r } else { r - p }) as i8;
    }
}

/// Exact dot product of two `kp`-element packed vectors, reduced to the
/// canonical `[0, p)` residue — the representative the engine's Barrett
/// epilogue emits, so verification compares bitwise. Terms are bounded
/// by `2^14` (`|x| ≤ 128` on both sides), so `2^16`-element chunks
/// accumulate i32-safely (vectorizing at full width) and spill to an
/// i64 total, exact at any depth.
fn dot_mod(x: &[i8], y: &[i8], p: u64) -> u8 {
    const CHUNK: usize = 1 << 16;
    let mut total = 0i64;
    for (cx, cy) in x.chunks(CHUNK).zip(y.chunks(CHUNK)) {
        total += dispatch(|| dot_chunk(cx, cy)) as i64;
    }
    total.rem_euclid(p as i64) as u8
}

/// Verification outcome for one plane: inclusive index ranges of the
/// mismatching rows / columns (`None` = that axis is consistent).
#[derive(Clone, Copy, Debug)]
struct VerifyOutcome {
    rows: Option<(usize, usize)>,
    cols: Option<(usize, usize)>,
}

impl VerifyOutcome {
    fn clean(&self) -> bool {
        self.rows.is_none() && self.cols.is_none()
    }

    /// Both axes tripped: the fault is in the residue plane itself (not
    /// a panel), so a column-stripe re-run can repair it.
    fn localized(&self) -> bool {
        self.rows.is_some() && self.cols.is_some()
    }
}

fn note(slot: &mut Option<(usize, usize)>, i: usize) {
    *slot = Some(match *slot {
        None => (i, i),
        Some((lo, hi)) => (lo.min(i), hi.max(i)),
    });
}

/// One pass over the plane: row sums, column sums, and the `u < p` range
/// check, compared mod `p` against the checksum references.
fn verify_plane(
    u_plane: &[u8],
    chk_rows: &[u8],
    chk_cols: &[u8],
    m: usize,
    n: usize,
    p: u32,
    rowsum: &mut [u32],
) -> VerifyOutcome {
    let rowsum = &mut rowsum[..m];
    rowsum.fill(0);
    let mut out = VerifyOutcome {
        rows: None,
        cols: None,
    };
    for j in 0..n {
        let col = &u_plane[j * m..(j + 1) * m];
        // Branch-free accumulation (the vectorizable hot path); the range
        // check only tracks the column maximum here and drops to a locate
        // pass in the rare (already-faulted) case.
        let (cs, mx) = dispatch(|| col_sweep(col, rowsum));
        if mx as u32 >= p {
            // Out-of-range representative: same residue class is
            // possible (`u + p`), so the sums alone could miss it.
            for (i, &x) in col.iter().enumerate() {
                if x as u32 >= p {
                    note(&mut out.rows, i);
                    note(&mut out.cols, j);
                }
            }
        }
        if cs % p != chk_cols[j] as u32 {
            note(&mut out.cols, j);
        }
    }
    for (i, &rs) in rowsum.iter().enumerate() {
        if rs % p != chk_rows[i] as u32 {
            note(&mut out.rows, i);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// GEMM helpers
// ---------------------------------------------------------------------------

/// Algorithm 1 lines 6–7 for one residue plane (or column stripe
/// thereof): the INT8 GEMM with fused mod-`p` reduction, k-blocked past
/// [`K_BLOCK_MAX`] (§4.3: each block's residues accumulate in i32 and are
/// reduced once more at the end, split over the workers; every block is a
/// PK-aligned depth window of the same panels). With the accurate-mode
/// estimate in [`crate::scale`], one of the crate's two engine call sites.
/// `a_panels` / `b_panels` start at the operand's (sub)panel origin;
/// `u_out` is the `m * n` destination. With `phases`, each engine call's
/// time is split into `int8_gemm` and `mod_reduce` (the slowest stripe's
/// fused epilogue), and the block-residue finalization counts as
/// `mod_reduce`. Returns the number of engine calls issued.
#[allow(clippy::too_many_arguments)]
fn plane_gemm(
    m: usize,
    n: usize,
    k: usize,
    kp: usize,
    p: u64,
    pinv: u32,
    a_panels: &[i8],
    b_panels: &[i8],
    c32: &mut [i32],
    racc: &mut [i32],
    u_out: &mut [u8],
    parallel: bool,
    mut phases: Option<&mut PhaseTimes>,
) -> usize {
    let c32 = &mut c32[..m * n];
    let mod_nanos = AtomicU64::new(0);
    let nanos = phases.is_some().then_some(&mod_nanos);
    let mut charge = |t0: Instant| {
        if let Some(ph) = phases.as_deref_mut() {
            let modd = Duration::from_nanos(mod_nanos.swap(0, Ordering::Relaxed));
            ph.mod_reduce += modd;
            ph.int8_gemm += t0.elapsed().saturating_sub(modd);
        }
    };
    if k <= K_BLOCK_MAX {
        let t0 = Instant::now();
        let epi = ReduceEpilogue::new(p, pinv, nanos);
        int8_gemm_prepacked_fused(
            m, n, k, a_panels, b_panels, kp, 0, c32, u_out, &epi, parallel,
        );
        charge(t0);
        return 1;
    }
    let racc = &mut racc[..m * n];
    racc.fill(0);
    let mut calls = 0usize;
    let mut h0 = 0usize;
    while h0 < k {
        let kb = K_BLOCK_MAX.min(k - h0);
        let t0 = Instant::now();
        let epi = AccumulateEpilogue::new(p, pinv, nanos);
        int8_gemm_prepacked_fused(
            m, n, kb, a_panels, b_panels, kp, h0, c32, racc, &epi, parallel,
        );
        charge(t0);
        calls += 1;
        h0 += kb;
    }
    let t0 = Instant::now();
    // The caller's level, pinned on whichever thread reduces a chunk.
    let level = engine_isa();
    const CHUNK: usize = 16 * 1024;
    u_out[..m * n]
        .par_chunks_mut(CHUNK)
        .zip(racc.par_chunks(CHUNK))
        .for_each(|(dst, src)| {
            let _cap = cap_scope(level);
            barrett_mod_row_u8(src, dst, p as i32, pinv);
        });
    if let Some(ph) = phases {
        ph.mod_reduce += t0.elapsed();
    }
    calls
}

// ---------------------------------------------------------------------------
// The lines-6–7 executor
// ---------------------------------------------------------------------------

/// Scratch bundle for [`execute_panels`] (the non-panel slices of
/// [`crate::pipeline::WsBuffers`]; the `chk_*` / `uchk` / `vsum` slices
/// are only touched under an active policy).
pub(crate) struct ExecScratch<'w> {
    pub u: &'w mut [u8],
    pub c32: &'w mut [i32],
    pub racc: &'w mut [i32],
    pub chk_a8: &'w mut [i8],
    pub chk_b8: &'w mut [i8],
    pub uchk: &'w mut [u8],
    pub chk_sum: &'w mut [i32],
    pub vsum: &'w mut [u32],
}

/// Algorithm 1 lines 6–7 over already-packed residue panels, the back
/// half of the one Algorithm-1 body (`facade::algorithm1`): the `N`
/// plane GEMMs with fused modular reduction ([`plane_gemm`]) into the
/// residue planes `scratch.u`, which the body's caller then folds
/// (lines 8–12).
///
/// Under [`FaultPolicy::Off`] that is all it does. An active policy adds,
/// per plane: the checksum vectors and both reference products
/// (`A'_s · chk_b` for the row axis, `chk_a · B'_s` for the column axis)
/// captured from the pristine panels before the GEMM, the fault-injection
/// seams, and verification plus recovery per the policy after it.
/// Returns `(int8_gemm_calls, FaultReport)` — recovery re-runs and
/// checksum products are counted in the report, not in the main call
/// count; the report stays empty under `Off`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_panels(
    m: usize,
    n: usize,
    k: usize,
    consts: &Constants,
    b64: bool,
    mut a: PanelsRef<'_>,
    mut b: PanelsRef<'_>,
    scratch: ExecScratch<'_>,
    parallel: bool,
    policy: FaultPolicy,
    phases: &mut PhaseTimes,
) -> (usize, FaultReport) {
    let nmod = consts.n;
    let plane = m * n;
    let kp = padded_depth(k);
    let m_pad = padded_a_rows(m);
    let n_pad = padded_b_cols(n);
    let mut gemm_calls = 0usize;
    let mut report = FaultReport::default();
    let active = policy.is_active();

    // Env-rate fault injection only fires inside this protected region:
    // raw engine calls elsewhere (kernel parity tests, benches) and runs
    // with the policy off have no ABFT to catch a flip, so they stay
    // clean even when CI runs the whole suite with OZAKI_FAULT_INJECT set.
    let _region = active.then(faultinject::region);

    let ExecScratch {
        u,
        c32,
        racc,
        chk_a8,
        chk_b8,
        uchk,
        chk_sum,
        vsum,
    } = scratch;
    let u = &mut u[..nmod * plane];

    // ---- Per plane: [capture, seams,] GEMM, [verify, recover] -----------
    for s in 0..nmod {
        let p = consts.p[s];
        let pinv = consts.p_inv_u32[s];
        let a_lo = s * m_pad * kp;
        let b_lo = s * n_pad * kp;

        if active {
            // Checksum capture + references, from the pristine panels,
            // right before this plane's GEMM: the reference sweeps stream
            // the plane's panels into cache, which the GEMM then reads
            // warm — so the side channel largely pays for its own memory
            // traffic.
            let tv = Instant::now();
            report.checksum_gemms += checksum_refs(
                &a.panels()[a_lo..a_lo + m_pad * kp],
                &b.panels()[b_lo..b_lo + n_pad * kp],
                m,
                n,
                kp,
                p,
                &mut chk_a8[s * kp..(s + 1) * kp],
                &mut chk_b8[s * kp..(s + 1) * kp],
                chk_sum,
                &mut uchk[s * (m + n)..(s + 1) * (m + n)],
            );
            phases.verify += tv.elapsed();

            // Panel fault seams: after this plane's checksum capture, so
            // a flipped panel byte shows up as a checksum mismatch
            // downstream. Prepared (Fixed) panels are deliberately not a
            // seam — they are the trusted source recovery recomputes from.
            if let PanelsRef::Repackable { panels, .. } = &mut a {
                faultinject::corrupt_panel(FaultSite::PanelA, &mut panels[a_lo..a_lo + m_pad * kp]);
            }
            if let PanelsRef::Repackable { panels, .. } = &mut b {
                faultinject::corrupt_panel(FaultSite::PanelB, &mut panels[b_lo..b_lo + n_pad * kp]);
            }
        }

        // Lines 6–7: the plane's GEMM, timed as the int8/mod phases.
        gemm_calls += plane_gemm(
            m,
            n,
            k,
            kp,
            p,
            pinv,
            &a.panels()[s * m_pad * kp..(s + 1) * m_pad * kp],
            &b.panels()[s * n_pad * kp..(s + 1) * n_pad * kp],
            c32,
            racc,
            &mut u[s * plane..(s + 1) * plane],
            parallel,
            Some(&mut *phases),
        );
        if !active {
            continue;
        }

        // Residue-plane fault seam (post-GEMM, pre-verification).
        faultinject::corrupt_residue(&mut u[s * plane..(s + 1) * plane]);

        // Side channel: verification + recovery.
        let tv = Instant::now();
        let mut attempt = 0u8;
        let mut scalar_done = false;
        loop {
            let ver = verify_plane(
                &u[s * plane..(s + 1) * plane],
                &uchk[s * (m + n)..s * (m + n) + m],
                &uchk[s * (m + n) + m..(s + 1) * (m + n)],
                m,
                n,
                p as u32,
                vsum,
            );
            if ver.clean() {
                break;
            }
            report.detected += 1;
            match policy {
                FaultPolicy::Off => unreachable!("verification only runs under an active policy"),
                FaultPolicy::Detect => {
                    report.events.push(FaultEvent {
                        plane: s,
                        columns: ver.cols,
                        action: RecoveryAction::Detected,
                    });
                    break;
                }
                FaultPolicy::Retry { max_retries }
                | FaultPolicy::RetryThenScalar { max_retries } => {
                    let scalar_next = matches!(policy, FaultPolicy::RetryThenScalar { .. })
                        && attempt >= max_retries;
                    if attempt >= max_retries && !scalar_next || scalar_done {
                        report.unrecovered += 1;
                        report.events.push(FaultEvent {
                            plane: s,
                            columns: ver.cols,
                            action: RecoveryAction::Unrecovered,
                        });
                        break;
                    }
                    // All recovery runs with injection suppressed and on
                    // the calling thread, so the thread-local guards hold.
                    let _quiet = faultinject::suppress();
                    if scalar_next {
                        let _scalar = cap_scope(Isa::Scalar);
                        full_repair(
                            s,
                            m,
                            n,
                            k,
                            kp,
                            consts,
                            b64,
                            &mut a,
                            &mut b,
                            chk_a8,
                            chk_b8,
                            m_pad,
                            n_pad,
                            u,
                            c32,
                            racc,
                            chk_sum,
                            uchk,
                            &mut report,
                        );
                        report.scalar_fallbacks += 1;
                        report.events.push(FaultEvent {
                            plane: s,
                            columns: ver.cols,
                            action: RecoveryAction::ScalarFallback,
                        });
                        scalar_done = true;
                    } else if attempt == 0 && ver.localized() {
                        // Fault is in the residue plane itself: re-run
                        // just the stripe of whole PV-column panels
                        // covering the mismatching columns, from the
                        // (good) panels: a window that starts mid-panel
                        // would pad past the panel set's end.
                        let (jlo, jhi) = ver.cols.expect("localized implies cols");
                        let c0 = (jlo / PV) * PV;
                        let c1 = n.min((jhi / PV + 1) * PV);
                        plane_gemm(
                            m,
                            c1 - c0,
                            k,
                            kp,
                            p,
                            pinv,
                            &a.panels()[s * m_pad * kp..(s + 1) * m_pad * kp],
                            &b.panels()[s * n_pad * kp + c0 * kp..(s + 1) * n_pad * kp],
                            c32,
                            racc,
                            &mut u[s * plane + c0 * m..s * plane + c1 * m],
                            false,
                            None,
                        );
                        report.retries += 1;
                        report.events.push(FaultEvent {
                            plane: s,
                            columns: Some((c0, c1 - 1)),
                            action: RecoveryAction::StripeRetry,
                        });
                        attempt += 1;
                    } else {
                        full_repair(
                            s,
                            m,
                            n,
                            k,
                            kp,
                            consts,
                            b64,
                            &mut a,
                            &mut b,
                            chk_a8,
                            chk_b8,
                            m_pad,
                            n_pad,
                            u,
                            c32,
                            racc,
                            chk_sum,
                            uchk,
                            &mut report,
                        );
                        report.retries += 1;
                        report.events.push(FaultEvent {
                            plane: s,
                            columns: ver.cols,
                            action: RecoveryAction::FullRepair,
                        });
                        attempt += 1;
                    }
                }
            }
        }
        phases.verify += tv.elapsed();
    }

    (gemm_calls, report)
}

/// The two side-channel reference products for plane `s`, computed as
/// exact host-side widening dot products rather than engine GEMMs (an
/// `(m, 1, k)` / `(1, n, k)` engine call would spend `PV`-panel padding
/// and epilogue work on a single output vector): row references
/// `A'_s · chk_b` into `uchk_pl[..m]` and column references
/// `chk_a · B'_s` into `uchk_pl[m..]`. Returns the number of checksum
/// products (2) for [`FaultReport::checksum_gemms`].
#[allow(clippy::too_many_arguments)]
fn checksum_refs(
    a_plane: &[i8],
    b_plane: &[i8],
    m: usize,
    n: usize,
    kp: usize,
    p: u64,
    chk_a: &mut [i8],
    chk_b: &mut [i8],
    chk_sum: &mut [i32],
    uchk_pl: &mut [u8],
) -> usize {
    build_checksum_plane(b_plane, n, kp, p, chk_b, chk_sum);
    build_checksum_plane(a_plane, m, kp, p, chk_a, chk_sum);
    let (rows, cols) = uchk_pl.split_at_mut(m);
    for (i, r) in rows.iter_mut().enumerate() {
        *r = dot_mod(&a_plane[i * kp..(i + 1) * kp], chk_b, p);
    }
    for (j, c) in cols.iter_mut().enumerate() {
        *c = dot_mod(chk_a, &b_plane[j * kp..(j + 1) * kp], p);
    }
    2
}

/// Heavy recovery: repack the repackable sides from their source
/// operands (deterministic, so untouched planes and their checksums are
/// unchanged), rebuild plane `s`'s checksum vectors and references, and
/// re-run the plane's GEMM. Caller holds the suppress (and possibly
/// scalar cap) guard.
#[allow(clippy::too_many_arguments)]
fn full_repair(
    s: usize,
    m: usize,
    n: usize,
    k: usize,
    kp: usize,
    consts: &Constants,
    b64: bool,
    a: &mut PanelsRef<'_>,
    b: &mut PanelsRef<'_>,
    chk_a8: &mut [i8],
    chk_b8: &mut [i8],
    m_pad: usize,
    n_pad: usize,
    u: &mut [u8],
    c32: &mut [i32],
    racc: &mut [i32],
    chk_sum: &mut [i32],
    uchk: &mut [u8],
    report: &mut FaultReport,
) {
    let p = consts.p[s];
    let pinv = consts.p_inv_u32[s];
    let plane = m * n;
    a.repack(k, kp, consts, b64);
    b.repack(k, kp, consts, b64);
    report.checksum_gemms += checksum_refs(
        &a.panels()[s * m_pad * kp..(s + 1) * m_pad * kp],
        &b.panels()[s * n_pad * kp..(s + 1) * n_pad * kp],
        m,
        n,
        kp,
        p,
        &mut chk_a8[s * kp..(s + 1) * kp],
        &mut chk_b8[s * kp..(s + 1) * kp],
        chk_sum,
        &mut uchk[s * (m + n)..(s + 1) * (m + n)],
    );
    plane_gemm(
        m,
        n,
        k,
        kp,
        p,
        pinv,
        &a.panels()[s * m_pad * kp..(s + 1) * m_pad * kp],
        &b.panels()[s * n_pad * kp..(s + 1) * n_pad * kp],
        c32,
        racc,
        &mut u[s * plane..(s + 1) * plane],
        false,
        None,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_default_and_parse_shapes() {
        // The OnceLock caches whatever the environment said at first
        // call; both answers are legal depending on the CI job, but the
        // parse must be a valid policy either way.
        let p = FaultPolicy::default_from_env();
        assert_eq!(p, FaultPolicy::default_from_env());
        assert!(matches!(
            p,
            FaultPolicy::Off
                | FaultPolicy::Detect
                | FaultPolicy::Retry { .. }
                | FaultPolicy::RetryThenScalar { .. }
        ));
        assert!(!FaultPolicy::Off.is_active());
        assert!(FaultPolicy::Detect.is_active());
        assert!(FaultPolicy::Retry { max_retries: 1 }.is_active());
    }

    #[test]
    fn checksum_plane_symmetric_representatives() {
        // kp = 32, 3 vectors; the representative must stay within ±128
        // and be congruent to the plain sum mod p.
        let kp = 32usize;
        let mut plane = vec![0i8; 4 * kp];
        for (i, x) in plane.iter_mut().enumerate() {
            *x = ((i as i64 * 37 % 256) - 128) as i8;
        }
        gemm_engine::for_each_level("checksum_plane_symmetric_representatives", |level| {
            for p in [256u64, 255, 251, 193, 131] {
                let mut out = vec![7i8; kp];
                let mut scratch = vec![0i32; kp];
                build_checksum_plane(&plane, 3, kp, p, &mut out, &mut scratch);
                for h in 0..kp {
                    let want: i64 = (0..3).map(|v| plane[v * kp + h] as i64).sum();
                    let got = out[h] as i64;
                    assert_eq!(
                        got.rem_euclid(p as i64),
                        want.rem_euclid(p as i64),
                        "{level:?} p={p} h={h}"
                    );
                    assert!(got.abs() <= 128, "{level:?} p={p} h={h} rep={got}");
                }
            }
        });
    }

    #[test]
    fn dot_mod_matches_wide_reference() {
        let kp = 96usize;
        let x: Vec<i8> = (0..kp)
            .map(|i| ((i as i64 * 53 % 256) - 128) as i8)
            .collect();
        let y: Vec<i8> = (0..kp)
            .map(|i| ((i as i64 * 91 % 256) - 128) as i8)
            .collect();
        gemm_engine::for_each_level("dot_mod_matches_wide_reference", |level| {
            for p in [256u64, 255, 251, 193, 131] {
                let want: i64 = x.iter().zip(&y).map(|(&a, &b)| a as i64 * b as i64).sum();
                let got = dot_mod(&x, &y, p);
                assert_eq!(got as i64, want.rem_euclid(p as i64), "{level:?} p={p}");
                assert!(
                    (got as u64) < p,
                    "{level:?} p={p}: canonical representative"
                );
            }
        });
    }

    #[test]
    fn verify_plane_flags_row_and_column() {
        gemm_engine::for_each_level("verify_plane_flags_row_and_column", |_| {
            verify_plane_flags_row_and_column_once()
        });
    }

    fn verify_plane_flags_row_and_column_once() {
        // 3x4 plane mod 131, consistent references, then corrupt (1, 2).
        let (m, n) = (3usize, 4usize);
        let p = 131u32;
        let mut u: Vec<u8> = (0..m * n).map(|i| (i * 29 % 131) as u8).collect();
        let mut chk_rows = vec![0u8; m];
        let mut chk_cols = vec![0u8; n];
        for i in 0..m {
            let s: u32 = (0..n).map(|j| u[j * m + i] as u32).sum();
            chk_rows[i] = (s % p) as u8;
        }
        for j in 0..n {
            let s: u32 = (0..m).map(|i| u[j * m + i] as u32).sum();
            chk_cols[j] = (s % p) as u8;
        }
        let mut rowsum = vec![0u32; m];
        let ok = verify_plane(&u, &chk_rows, &chk_cols, m, n, p, &mut rowsum);
        assert!(ok.clean());

        u[2 * m + 1] ^= 0x10; // (i=1, j=2)
        let bad = verify_plane(&u, &chk_rows, &chk_cols, m, n, p, &mut rowsum);
        assert!(!bad.clean());
        assert!(bad.localized());
        assert_eq!(bad.rows, Some((1, 1)));
        assert_eq!(bad.cols, Some((2, 2)));

        // Same residue class, out-of-range representative: range check.
        u[2 * m + 1] ^= 0x10;
        let orig = u[0];
        u[0] = orig + p as u8; // u + p < 256 for this data
        let range = verify_plane(&u, &chk_rows, &chk_cols, m, n, p, &mut rowsum);
        assert!(!range.clean(), "u+p must be caught by the range check");
        assert_eq!(range.rows, Some((0, 0)));
        assert_eq!(range.cols, Some((0, 0)));
    }
}
