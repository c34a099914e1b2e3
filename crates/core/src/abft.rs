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
//! Each plane's checksums are captured from its panels right before its
//! GEMM, and the panel fault seams run after the capture, so both
//! references predate any fault. Where the fault lands decides the
//! recovery:
//!
//! * accumulator / residue corruption at `(i, j)` → row `i` **and**
//!   column `j` mismatch → re-run only the panel-aligned column stripe;
//! * a corrupted `A` or `B` panel byte shifts a whole row or column of
//!   `U` away from references that predate it, so it trips both axes too.
//!   To tell it apart, a mismatch rebuilds each repackable side's
//!   depth-wise checksum of the plane and compares it with the captured
//!   one: a flip of bits 0–6 of one byte moves one depth sum by a nonzero
//!   amount below every modulus. If it differs, a stripe re-run would
//!   recompute from the same bad panel, so recovery repacks the panels
//!   from the source operand and re-runs the whole plane at once;
//! * a residue byte rewritten to `u + p` (same class, out-of-range
//!   representative) is caught by the `u < p` range check.
//!
//! A flip the checksums *cannot* see is mathematically inert: it left
//! every residue class unchanged, so the folded output is bit-identical
//! anyway. The detection contract is therefore "the output differs from
//! the fault-free run ⟹ the fault was detected".
//!
//! Recovery runs with injection suppressed and on the calling thread
//! (`parallel = false`). `recovery_action` picks each step: stripe
//! re-run → full repack + plane re-run → scalar-kernel re-run
//! ([`FaultPolicy::RetryThenScalar`], under
//! `gemm_engine::cap_scope(Isa::Scalar)`, which pins the engine and every
//! dispatched row kernel, these checksum sweeps included); the scalar
//! kernels are the bit-exact oracle the AMX and SIMD paths are tested
//! against, so a successful recovery reproduces the fault-free result
//! bit-identically.

use crate::consts::Constants;
use crate::pipeline::{grow, PhaseTimes, K_BLOCK_MAX};
use gemm_engine::faultinject::{self, FaultSite};
use gemm_engine::{
    b_panel_index, cap_scope, dispatch, int8_gemm_prepacked_fused, padded_a_rows, padded_depth,
    transpose_block, AddModEpilogue, Epilogue, Isa, Kernel, ReduceEpilogue, PK, PV,
};
use std::ops::Range;
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
/// `retry[:N]` | `retry-then-scalar[:N]`, unset → `Off`, anything else
/// panics); override per emulator with
/// [`crate::Ozaki2::with_fault_policy`] or per call with
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
    /// case-insensitive; unset or empty → [`FaultPolicy::Off`]). This is
    /// how CI runs the entire suite under an active policy without
    /// touching a single call site.
    ///
    /// # Panics
    /// On any other value, naming the variable, the value and the
    /// grammar — a typo must not silently turn the policy off.
    pub fn default_from_env() -> Self {
        static DEFAULT: OnceLock<FaultPolicy> = OnceLock::new();
        *DEFAULT.get_or_init(|| {
            let raw = std::env::var("OZAKI_FAULT_POLICY").unwrap_or_default();
            FaultPolicy::parse(&raw).unwrap_or_else(|e| {
                panic!("OZAKI_FAULT_POLICY={raw:?}: {e}; expected {POLICY_GRAMMAR}")
            })
        })
    }

    /// Parse one `OZAKI_FAULT_POLICY` value ([`POLICY_GRAMMAR`]; empty
    /// means unset, `N` defaults to 2).
    fn parse(raw: &str) -> Result<Self, String> {
        let raw = raw.trim().to_ascii_lowercase();
        let (name, retries) = match raw.split_once(':') {
            Some((name, n)) => {
                let n = n
                    .parse::<u8>()
                    .map_err(|_| format!("retry count {n:?} is not an integer in 0..=255"))?;
                (name, Some(n))
            }
            None => (raw.as_str(), None),
        };
        let max_retries = retries.unwrap_or(2);
        match (name, retries) {
            ("" | "off", None) => Ok(FaultPolicy::Off),
            ("detect", None) => Ok(FaultPolicy::Detect),
            ("retry", _) => Ok(FaultPolicy::Retry { max_retries }),
            ("retry-then-scalar", _) => Ok(FaultPolicy::RetryThenScalar { max_retries }),
            ("" | "off" | "detect", Some(_)) => Err(format!("{name:?} takes no retry count")),
            _ => Err(format!("unknown policy {name:?}")),
        }
    }
}

/// The values `OZAKI_FAULT_POLICY` accepts.
const POLICY_GRAMMAR: &str =
    "off | detect | retry[:N] | retry-then-scalar[:N] (case-insensitive, N in 0..=255)";

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
    /// recipe to repack them from scratch when a panel-level fault is
    /// suspected: the trunc+convert sweep over the source view and its
    /// scale exponents, as a borrowed closure (so this stays one type for
    /// both precisions).
    Repackable {
        panels: &'a mut [i8],
        repack: &'a dyn Fn(&mut [i8]),
    },
}

impl PanelsRef<'_> {
    /// Plane `s` of these panels: `vecs` packed vectors, padded to whole
    /// `PV` panels, of `kp` bytes each.
    fn plane(&self, s: usize, vecs: usize, kp: usize) -> &[i8] {
        let panels = match self {
            PanelsRef::Fixed(p) => p,
            PanelsRef::Repackable { panels, .. } => &**panels,
        };
        &panels[plane_range(s, vecs, kp)]
    }

    /// Whether `plane`, this side's `vecs` vectors in the B-panel format
    /// (an A plane's [`as_b_format`] copy), still sums to the checksum
    /// vector `chk`
    /// captured from it. A flip of bits 0–6 of one panel byte moves one
    /// depth sum by a nonzero amount below every modulus, so it always
    /// shows here. Fixed panels are never injected into, so they are always
    /// intact.
    fn plane_intact(
        &self,
        plane: &[i8],
        vecs: usize,
        kp: usize,
        p: u64,
        chk: &[i8],
        scratch: &mut [i32],
    ) -> bool {
        matches!(self, PanelsRef::Fixed(_))
            || checksum_sums(plane, vecs, kp, p, scratch)
                .iter()
                .zip(chk)
                .all(|(&r, &c)| r == (c as i32).rem_euclid(p as i32))
    }

    /// The panel fault seam of plane `s`. Fixed panels are deliberately
    /// not a seam: they are the trusted source recovery recomputes from.
    fn seam(&mut self, site: FaultSite, s: usize, vecs: usize, kp: usize) {
        if let PanelsRef::Repackable { panels, .. } = self {
            faultinject::corrupt_panel(site, &mut panels[plane_range(s, vecs, kp)]);
        }
    }

    /// Deterministically rebuild the panels from the source operand
    /// (no-op for [`PanelsRef::Fixed`]). The sweep is bit-reproducible,
    /// so untouched planes come back identical and previously built
    /// checksums stay valid.
    fn repack(&mut self) {
        if let PanelsRef::Repackable { panels, repack } = self {
            repack(panels);
        }
    }
}

/// Byte range of plane `s` in a panel set of `vecs` packed vectors
/// ([`gemm_engine::padded_a_rows`] or [`gemm_engine::padded_b_cols`] of
/// them, `kp` bytes each).
fn plane_range(s: usize, vecs: usize, kp: usize) -> Range<usize> {
    let len = vecs.div_ceil(PV) * PV * kp;
    s * len..(s + 1) * len
}

/// A-panel plane `a` of `vecs` rows, copied into `out` in the B-panel
/// format block by block ([`transpose_block`]): the one format the
/// checksum sweeps read, as B planes already are.
fn as_b_format<'o>(a: &[i8], vecs: usize, kp: usize, out: &'o mut [i8]) -> &'o [i8] {
    let len = padded_a_rows(vecs) * kp;
    for (src, dst) in a[..len]
        .chunks_exact(PV * PK)
        .zip(out[..len].chunks_exact_mut(PV * PK))
    {
        transpose_block(src, dst);
    }
    &out[..len]
}

/// Vector `v` of B-panel-format plane `plane`, its 64-byte runs copied
/// into the `kp`-element `out` in depth order, for the flat dot products
/// of the reference sums.
fn vector<'o>(plane: &[i8], v: usize, kp: usize, out: &'o mut [i8]) -> &'o [i8] {
    for (h, run) in (0..kp).step_by(PK).zip(out.chunks_exact_mut(PK)) {
        let at = b_panel_index(v, h, kp);
        run.copy_from_slice(&plane[at..at + PK]);
    }
    &out[..kp]
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

/// Depth-wise accumulation of B-panel vectors `vecs` (starting on a
/// multiple of [`PV`]) into `scratch` (the checksum-capture inner loop),
/// block by block: a block's vectors are 64-byte rows, each added to the
/// same 64 sums. A [`Kernel`], so every level's copy contains it.
struct AccumVecs<'a> {
    plane: &'a [i8],
    kp: usize,
    vecs: Range<usize>,
    scratch: &'a mut [i32],
}

impl Kernel for AccumVecs<'_> {
    type Out = ();

    #[inline(always)]
    fn run(self) {
        let (plane, kp, vecs, scratch) = (self.plane, self.kp, self.vecs, self.scratch);
        for s0 in vecs.clone().step_by(PV) {
            let rows = PV.min(vecs.end - s0);
            for (h, acc) in (0..kp).step_by(PK).zip(scratch.chunks_exact_mut(PK)) {
                let at = b_panel_index(s0, h, kp);
                for row in plane[at..at + rows * PK].chunks_exact(PK) {
                    for (a, &x) in acc.iter_mut().zip(row) {
                        *a += x as i32;
                    }
                }
            }
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

/// Depth-wise sums of one B-panel-format plane's `vecs` vectors, reduced
/// to `[0, p)`, in `scratch[..kp]`. Accumulation is i32 — `|x| ≤ 128` keeps
/// `2^16` vectors overflow-free, and the running sums are reduced mod `p`
/// after each chunk of that many — so the inner loop vectorizes at twice
/// the width an i64 accumulator would allow.
fn checksum_sums<'s>(
    plane: &[i8],
    vecs: usize,
    kp: usize,
    p: u64,
    scratch: &'s mut [i32],
) -> &'s [i32] {
    const CHUNK: usize = 1 << 16;
    let scratch = &mut scratch[..kp];
    scratch.fill(0);
    let mut v0 = 0usize;
    while v0 < vecs {
        let v1 = vecs.min(v0 + CHUNK);
        dispatch(AccumVecs {
            plane,
            kp,
            vecs: v0..v1,
            scratch,
        });
        v0 = v1;
        for acc in scratch.iter_mut() {
            *acc = acc.rem_euclid(p as i32);
        }
    }
    scratch
}

/// Build one plane's checksum vector: the [`checksum_sums`] of its `vecs`
/// B-panel-format vectors as symmetric representatives (in `[-128, 127]`, the
/// regular panels' i8 range) in the `kp`-element `out`.
fn build_checksum_plane(
    plane: &[i8],
    vecs: usize,
    kp: usize,
    p: u64,
    out: &mut [i8],
    scratch: &mut [i32],
) {
    let p = p as i32;
    let half = (p - 1) / 2;
    for (o, &r) in out[..kp]
        .iter_mut()
        .zip(checksum_sums(plane, vecs, kp, p as u64, scratch))
    {
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
// The lines-6–7 executor
// ---------------------------------------------------------------------------

/// The executor's scratch, owned by [`crate::Workspace`]: the `N·mn`
/// residue planes and, under an active [`FaultPolicy`], the ABFT
/// side-channel buffers. There is no INT32 product here: the engine
/// reduces each column group of it in its own per-worker group buffer.
/// Every buffer grows to the high-water mark of the calls it has served
/// and is then reused.
#[derive(Default)]
pub(crate) struct Scratch {
    /// The `N` UINT8 residue planes `U_s` (plane-major, each `m × n`
    /// column-major) that lines 8–12 fold.
    pub(crate) u: Vec<u8>,
    /// Checksum vectors of `A` and `B` (`N` planes of `kp` i8 each).
    chk_a8: Vec<i8>,
    chk_b8: Vec<i8>,
    /// Checksum references: per plane, `m` row-sum residues followed by
    /// `n` column-sum residues.
    uchk: Vec<u8>,
    /// i32 accumulator for checksum-vector construction (`kp` entries).
    chk_sum: Vec<i32>,
    /// One plane's A panels in the B-panel format (`padded_a_rows(m) *
    /// kp`), which the checksum sweeps read.
    a_copy: Vec<i8>,
    /// One packed vector in depth order (`kp`), for the reference dot
    /// products.
    vec: Vec<i8>,
    /// Row-sum scratch of the verification sweep (`m` u32).
    vsum: Vec<u32>,
}

impl Scratch {
    /// Grow-only sizing for one `m × n × k` call with `nmod` moduli. Under
    /// [`FaultPolicy::Off`] no side-channel buffer is allocated.
    fn reserve(&mut self, m: usize, n: usize, k: usize, nmod: usize, policy: FaultPolicy) {
        grow(&mut self.u, nmod * m * n);
        if policy.is_active() {
            let kp = padded_depth(k);
            grow(&mut self.chk_a8, nmod * kp);
            grow(&mut self.chk_b8, nmod * kp);
            grow(&mut self.uchk, nmod * (m + n));
            grow(&mut self.chk_sum, kp);
            grow(&mut self.a_copy, padded_a_rows(m) * kp);
            grow(&mut self.vec, kp);
            grow(&mut self.vsum, m);
        }
    }

    /// Footprint in bytes (excluding `Vec` headers).
    pub(crate) fn bytes(&self) -> usize {
        self.u.capacity()
            + self.chk_a8.capacity()
            + self.chk_b8.capacity()
            + self.a_copy.capacity()
            + self.vec.capacity()
            + self.uchk.capacity()
            + 4 * (self.chk_sum.capacity() + self.vsum.capacity())
    }

    /// Zero every buffer in place (capacity kept).
    pub(crate) fn scrub(&mut self) {
        self.u.fill(0);
        self.chk_a8.fill(0);
        self.chk_b8.fill(0);
        self.uchk.fill(0);
        self.chk_sum.fill(0);
        self.a_copy.fill(0);
        self.vec.fill(0);
        self.vsum.fill(0);
    }
}

/// The next step of the recovery ladder after a failed verification of
/// one plane: `attempt` SIMD re-executions done so far, whether the scalar
/// fallback already ran, and whether the plane's panels still match their
/// captured checksum vectors. A residue-class fault first gets the cheap
/// stripe re-run; a panel fault, or a fault the stripe did not mend, gets
/// the full repair; [`FaultPolicy::RetryThenScalar`] ends with one repair
/// on the scalar kernels.
fn recovery_action(
    policy: FaultPolicy,
    attempt: u8,
    scalar_done: bool,
    panels_intact: bool,
) -> RecoveryAction {
    let (max_retries, scalar) = match policy {
        FaultPolicy::Off | FaultPolicy::Detect => return RecoveryAction::Detected,
        FaultPolicy::Retry { max_retries } => (max_retries, false),
        FaultPolicy::RetryThenScalar { max_retries } => (max_retries, true),
    };
    if scalar_done {
        RecoveryAction::Unrecovered
    } else if attempt < max_retries {
        if attempt == 0 && panels_intact {
            RecoveryAction::StripeRetry
        } else {
            RecoveryAction::FullRepair
        }
    } else if scalar {
        RecoveryAction::ScalarFallback
    } else {
        RecoveryAction::Unrecovered
    }
}

/// One call's lines 6–7: the geometry, both sides' panels, the scratch
/// and the fault report, with each step of the per-plane state machine
/// written once.
struct Executor<'e> {
    m: usize,
    n: usize,
    k: usize,
    kp: usize,
    consts: &'e Constants,
    a: PanelsRef<'e>,
    b: PanelsRef<'e>,
    scratch: &'e mut Scratch,
    policy: FaultPolicy,
    report: FaultReport,
}

impl Executor<'_> {
    /// Algorithm 1 lines 6–7 for columns `cols` of residue plane `s`: the
    /// INT8 GEMM with fused mod-`p` reduction into `U_s`, k-blocked past
    /// [`K_BLOCK_MAX`] (§4.3; every block is a PK-aligned depth window of
    /// the same panels). A window starts on a whole `PV`-column panel.
    /// With `phases`, each engine call's time is split into `int8_gemm`
    /// and `mod_reduce` (the slowest stripe's fused epilogue). Returns the
    /// number of engine calls issued.
    fn gemm(
        &mut self,
        s: usize,
        cols: Range<usize>,
        parallel: bool,
        mut phases: Option<&mut PhaseTimes>,
    ) -> usize {
        let (m, kp) = (self.m, self.kp);
        let width = cols.len();
        let plane = s * m * self.n;
        let mod_nanos = AtomicU64::new(0);
        let run = Product {
            m,
            width,
            k: self.k,
            kp,
            a: self.a.plane(s, m, kp),
            b: &self.b.plane(s, self.n, kp)[cols.start * kp..],
            p: self.consts.p[s],
            pinv: self.consts.p_inv_u32[s],
            nanos: phases.is_some().then_some(&mod_nanos),
            parallel,
        };
        run.blocks(
            &mut self.scratch.u[plane + cols.start * m..plane + cols.end * m],
            &mut |t0: Instant| {
                if let Some(ph) = phases.as_deref_mut() {
                    let modd = Duration::from_nanos(mod_nanos.swap(0, Ordering::Relaxed));
                    ph.mod_reduce += modd;
                    ph.int8_gemm += t0.elapsed().saturating_sub(modd);
                }
            },
        )
    }

    /// Lines 6–7 for the whole plane `s`. An active policy first captures
    /// the plane's checksums from the pristine panels (timed as
    /// `verify`), then passes the panel fault seams: a flipped panel byte
    /// then trips both verification axes and fails [`Self::panels_intact`].
    /// The capture streams the plane's panels into cache, which the GEMM
    /// then reads warm, so the side channel largely pays for its own
    /// memory traffic.
    fn plane(&mut self, s: usize, parallel: bool, mut phases: Option<&mut PhaseTimes>) -> usize {
        if self.policy.is_active() {
            let tv = Instant::now();
            self.capture(s);
            if let Some(ph) = phases.as_deref_mut() {
                ph.verify += tv.elapsed();
            }
            self.a.seam(FaultSite::PanelA, s, self.m, self.kp);
            self.b.seam(FaultSite::PanelB, s, self.n, self.kp);
        }
        self.gemm(s, 0..self.n, parallel, phases)
    }

    /// Plane `s`'s checksum vectors and both reference products, as exact
    /// host-side widening dot products rather than engine GEMMs (an
    /// `(m, 1, k)` / `(1, n, k)` engine call would spend `PV`-panel padding
    /// and epilogue work on a single output vector): row references
    /// `A'_s · chk_b` and column references `chk_a · B'_s`. Counted as two
    /// [`FaultReport::checksum_gemms`].
    fn capture(&mut self, s: usize) {
        let (m, n, kp, p) = (self.m, self.n, self.kp, self.consts.p[s]);
        let sc = &mut *self.scratch;
        let a = as_b_format(self.a.plane(s, m, kp), m, kp, &mut sc.a_copy);
        let b = self.b.plane(s, n, kp);
        let chk_a = &mut sc.chk_a8[s * kp..(s + 1) * kp];
        let chk_b = &mut sc.chk_b8[s * kp..(s + 1) * kp];
        build_checksum_plane(b, n, kp, p, chk_b, &mut sc.chk_sum);
        build_checksum_plane(a, m, kp, p, chk_a, &mut sc.chk_sum);
        let (rows, cols) = sc.uchk[s * (m + n)..(s + 1) * (m + n)].split_at_mut(m);
        for (i, r) in rows.iter_mut().enumerate() {
            *r = dot_mod(vector(a, i, kp, &mut sc.vec), chk_b, p);
        }
        for (j, c) in cols.iter_mut().enumerate() {
            *c = dot_mod(vector(b, j, kp, &mut sc.vec), chk_a, p);
        }
        self.report.checksum_gemms += 2;
    }

    /// Verify plane `s` against its captured references.
    fn verify(&mut self, s: usize) -> VerifyOutcome {
        let (m, n) = (self.m, self.n);
        let sc = &mut *self.scratch;
        let refs = &sc.uchk[s * (m + n)..(s + 1) * (m + n)];
        let (rows, cols) = refs.split_at(m);
        let u = &sc.u[s * m * n..(s + 1) * m * n];
        verify_plane(u, rows, cols, m, n, self.consts.p[s] as u32, &mut sc.vsum)
    }

    /// Whether both sides' plane `s` panels still match their captured
    /// checksum vectors.
    fn panels_intact(&mut self, s: usize) -> bool {
        let (kp, p) = (self.kp, self.consts.p[s]);
        let sc = &mut *self.scratch;
        let chk = s * kp..(s + 1) * kp;
        let (m, n) = (self.m, self.n);
        let a = as_b_format(self.a.plane(s, m, kp), m, kp, &mut sc.a_copy);
        (self.a).plane_intact(a, m, kp, p, &sc.chk_a8[chk.clone()], &mut sc.chk_sum)
            && (self.b).plane_intact(
                self.b.plane(s, n, kp),
                n,
                kp,
                p,
                &sc.chk_b8[chk],
                &mut sc.chk_sum,
            )
    }

    /// Heavy recovery: repack the repackable sides from their source
    /// operands (deterministic, so untouched planes and their checksums
    /// are unchanged), then capture and run plane `s` again on the calling
    /// thread (its seams are suppressed).
    fn repair(&mut self, s: usize) {
        self.a.repack();
        self.b.repack();
        self.plane(s, false, None);
    }

    /// Verify plane `s` and walk the recovery ladder until it verifies or
    /// [`recovery_action`] gives up, recording each step. Recovery runs
    /// with injection suppressed and on the calling thread, so the
    /// thread-local guards hold.
    fn recover(&mut self, s: usize) {
        let mut attempt = 0u8;
        let mut scalar_done = false;
        loop {
            let ver = self.verify(s);
            if ver.clean() {
                return;
            }
            self.report.detected += 1;
            let action = recovery_action(self.policy, attempt, scalar_done, self.panels_intact(s));
            let mut columns = ver.cols;
            let _quiet = faultinject::suppress();
            match action {
                RecoveryAction::Detected => {}
                RecoveryAction::Unrecovered => self.report.unrecovered += 1,
                RecoveryAction::StripeRetry => {
                    // The stripe of whole PV-column panels covering the
                    // mismatching columns: a window that starts mid-panel
                    // would pad past the panel set's end.
                    let (lo, hi) = ver.cols.unwrap_or((0, self.n - 1));
                    let cols = lo / PV * PV..self.n.min((hi / PV + 1) * PV);
                    columns = Some((cols.start, cols.end - 1));
                    self.gemm(s, cols, false, None);
                    self.report.retries += 1;
                }
                RecoveryAction::FullRepair => {
                    self.repair(s);
                    self.report.retries += 1;
                }
                RecoveryAction::ScalarFallback => {
                    let _scalar = cap_scope(Isa::Scalar);
                    self.repair(s);
                    self.report.scalar_fallbacks += 1;
                }
            }
            self.report.events.push(FaultEvent {
                plane: s,
                columns,
                action,
            });
            match action {
                RecoveryAction::Detected | RecoveryAction::Unrecovered => return,
                RecoveryAction::ScalarFallback => scalar_done = true,
                RecoveryAction::StripeRetry | RecoveryAction::FullRepair => attempt += 1,
            }
        }
    }
}

/// One plane's engine product over a column window: `m` rows by `width`
/// columns at depth `k`, over plane panels `a`, `b` of depth stride `kp`,
/// reduced mod `p` (reciprocal `pinv`) into the window's residues.
struct Product<'p> {
    m: usize,
    width: usize,
    k: usize,
    kp: usize,
    a: &'p [i8],
    b: &'p [i8],
    p: u64,
    pinv: u32,
    nanos: Option<&'p AtomicU64>,
    parallel: bool,
}

impl Product<'_> {
    /// The engine calls, one per [`K_BLOCK_MAX`] depth block: the first
    /// writes `u = C mod p`, each later one `u = (u + C mod p) mod p`, so
    /// `u` holds the canonical residue of the whole product after every
    /// block. `charge` times each call. With the accurate-mode estimate in
    /// [`crate::scale`], one of the crate's two engine call sites.
    fn blocks(&self, u: &mut [u8], charge: &mut impl FnMut(Instant)) -> usize {
        let (p, pinv, nanos) = (self.p, self.pinv, self.nanos);
        let mut calls = 0usize;
        let mut h0 = 0usize;
        while h0 < self.k {
            let kb = K_BLOCK_MAX.min(self.k - h0);
            let t0 = Instant::now();
            if h0 == 0 {
                self.call(kb, h0, u, &ReduceEpilogue::new(p, pinv, nanos));
            } else {
                self.call(kb, h0, u, &AddModEpilogue::new(p, pinv, nanos));
            }
            charge(t0);
            calls += 1;
            h0 += kb;
        }
        calls
    }

    /// One engine call over the depth window `[h0, h0 + kb)`.
    fn call<E: Epilogue>(&self, kb: usize, h0: usize, u: &mut [u8], epi: &E) {
        int8_gemm_prepacked_fused(
            self.m,
            self.width,
            kb,
            self.a,
            self.b,
            self.kp,
            h0,
            &mut [],
            u,
            epi,
            self.parallel,
        );
    }
}

/// Algorithm 1 lines 6–7 over already-packed residue panels, the back
/// half of the one Algorithm-1 body (`facade::algorithm1`): the `N`
/// plane GEMMs with fused modular reduction into the residue planes
/// `scratch.u`, which the body's caller then folds (lines 8–12). The
/// scratch is sized here.
///
/// Under [`FaultPolicy::Off`] that is all it does. An active policy adds,
/// per plane: the checksum vectors and both reference products captured
/// from the pristine panels before the GEMM, the fault-injection seams,
/// and verification plus recovery per the policy after it. Returns
/// `(int8_gemm_calls, FaultReport)` — recovery re-runs and checksum
/// products are counted in the report, not in the main call count; the
/// report stays empty under `Off`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_panels(
    m: usize,
    n: usize,
    k: usize,
    consts: &Constants,
    a: PanelsRef<'_>,
    b: PanelsRef<'_>,
    scratch: &mut Scratch,
    parallel: bool,
    policy: FaultPolicy,
    phases: &mut PhaseTimes,
) -> (usize, FaultReport) {
    let active = policy.is_active();
    scratch.reserve(m, n, k, consts.n, policy);
    // Env-rate fault injection only fires inside this protected region:
    // raw engine calls elsewhere (kernel parity tests, benches) and runs
    // with the policy off have no ABFT to catch a flip, so they stay
    // clean even when CI runs the whole suite with OZAKI_FAULT_INJECT set.
    let _region = active.then(faultinject::region);
    let mut ex = Executor {
        m,
        n,
        k,
        kp: padded_depth(k),
        consts,
        a,
        b,
        scratch,
        policy,
        report: FaultReport::default(),
    };
    let mut gemm_calls = 0usize;
    for s in 0..consts.n {
        gemm_calls += ex.plane(s, parallel, Some(&mut *phases));
        if active {
            faultinject::corrupt_residue(&mut ex.scratch.u[s * m * n..(s + 1) * m * n]);
            let tv = Instant::now();
            ex.recover(s);
            phases.verify += tv.elapsed();
        }
    }
    (gemm_calls, ex.report)
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
    fn policy_parser_accepts_the_grammar_and_rejects_the_rest() {
        let parse = FaultPolicy::parse;
        assert_eq!(parse(""), Ok(FaultPolicy::Off));
        assert_eq!(parse("OFF"), Ok(FaultPolicy::Off));
        assert_eq!(parse("detect"), Ok(FaultPolicy::Detect));
        assert_eq!(parse("retry"), Ok(FaultPolicy::Retry { max_retries: 2 }));
        assert_eq!(
            parse(" Retry-Then-Scalar:7 "),
            Ok(FaultPolicy::RetryThenScalar { max_retries: 7 })
        );
        assert_eq!(parse("retry:0"), Ok(FaultPolicy::Retry { max_retries: 0 }));
        for bad in [
            "retyr",
            "scalar",
            "retry:",
            "retry:x",
            "retry:256",
            "retry:-1",
            "detect:2",
            "off:1",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn recovery_ladder_table() {
        use FaultPolicy::*;
        use RecoveryAction::*;
        // Per policy: attempt 0 with intact panels, attempt 0 with a
        // corrupt panel, then attempts 1, 2 and 3 (either panel state),
        // all before any scalar fallback.
        let table: [(FaultPolicy, [RecoveryAction; 5]); 7] = [
            (Detect, [Detected; 5]),
            (Retry { max_retries: 0 }, [Unrecovered; 5]),
            (
                Retry { max_retries: 1 },
                [
                    StripeRetry,
                    FullRepair,
                    Unrecovered,
                    Unrecovered,
                    Unrecovered,
                ],
            ),
            (
                Retry { max_retries: 2 },
                [
                    StripeRetry,
                    FullRepair,
                    FullRepair,
                    Unrecovered,
                    Unrecovered,
                ],
            ),
            (RetryThenScalar { max_retries: 0 }, [ScalarFallback; 5]),
            (
                RetryThenScalar { max_retries: 1 },
                [
                    StripeRetry,
                    FullRepair,
                    ScalarFallback,
                    ScalarFallback,
                    ScalarFallback,
                ],
            ),
            (
                RetryThenScalar { max_retries: 2 },
                [
                    StripeRetry,
                    FullRepair,
                    FullRepair,
                    ScalarFallback,
                    ScalarFallback,
                ],
            ),
        ];
        for (policy, row) in table {
            assert_eq!(
                recovery_action(policy, 0, false, true),
                row[0],
                "{policy:?}"
            );
            assert_eq!(
                recovery_action(policy, 0, false, false),
                row[1],
                "{policy:?}"
            );
            for attempt in 1..=3u8 {
                for intact in [true, false] {
                    let got = recovery_action(policy, attempt, false, intact);
                    assert_eq!(
                        got,
                        row[1 + attempt as usize],
                        "{policy:?} {attempt} {intact}"
                    );
                }
            }
            // After the scalar fallback, nothing is left to try.
            let last = if policy == Detect {
                Detected
            } else {
                Unrecovered
            };
            for attempt in 0..=3u8 {
                for intact in [true, false] {
                    let got = recovery_action(policy, attempt, true, intact);
                    assert_eq!(got, last, "{policy:?} {attempt} {intact} scalar done");
                }
            }
        }
    }

    #[test]
    fn checksum_plane_symmetric_representatives() {
        // kp = 128, 3 vectors of a B-panel strip; the representative must
        // stay within ±128 and be congruent to the plain sum mod p.
        let kp = 2 * PK;
        let mut plane = vec![0i8; PV * kp];
        for (i, x) in plane.iter_mut().enumerate() {
            *x = ((i as i64 * 37 % 256) - 128) as i8;
        }
        gemm_engine::for_each_level("checksum_plane_symmetric_representatives", |level| {
            for p in [256u64, 255, 251, 193, 131] {
                let mut out = vec![7i8; kp];
                let mut scratch = vec![0i32; kp];
                build_checksum_plane(&plane, 3, kp, p, &mut out, &mut scratch);
                for h in 0..kp {
                    let want: i64 = (0..3).map(|v| plane[b_panel_index(v, h, kp)] as i64).sum();
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
