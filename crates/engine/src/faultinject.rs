//! Deterministic fault injection for the INT8 pipeline.
//!
//! The ABFT layer in `ozaki2` (checksum verification + retry/degrade
//! recovery) is only trustworthy if its detection and recovery paths are
//! *exercised*, not just claimed. This module plants bit flips at named
//! sites of the execution pipeline so CI can run the full test suite with
//! faults occurring at a nonzero rate and prove the stack detects and
//! recovers from them.
//!
//! Two triggering mechanisms, both off by default:
//!
//! * **Environment rate** (the CI mechanism, mirroring
//!   `OZAKI_FORCE_SCALAR` in [`crate::isa()`]):
//!   `OZAKI_FAULT_INJECT=rate,seed,site` arms a
//!   deterministic per-hook-call Bernoulli draw (an LCG seeded by `seed`;
//!   `rate ∈ [0, 1]`; `site ∈ panel-a|panel-b|panel|acc|residue|all`;
//!   rate 0 is off, a malformed value panics). Rate draws
//!   fire only inside a **protected region** (see [`region`]) — the
//!   `ozaki2` fault-tolerant execution path opens one around its GEMMs, so
//!   raw engine calls (benchmarks, kernel parity tests, paths with no ABFT
//!   defending them) stay clean under a suite-wide injection run.
//! * **[`arm_once`]** (the test mechanism): the next hook call matching the
//!   armed site flips bits exactly once, regardless of region — precise,
//!   deterministic single-fault placement for detection/recovery proptests.
//!
//! Both mechanisms respect the thread-local [`suppress`] guard, which the
//! recovery path holds while re-running work: recovery re-executions are
//! the hardened path and must not be re-faulted by the injector that broke
//! the original run (a real transient fault model, and what makes recovery
//! deterministically testable).
//!
//! Flipped bits are chosen so every injected fault is *materializable*:
//! panel flips touch bits 0–6 of one i8 element (never the sign bit, so the
//! fault propagates arithmetically as a changed residue),
//! accumulator and residue flips touch the low byte (bits 0–7, below every
//! supported modulus), so a flip either changes a residue class — and is
//! detected — or is congruent to zero mod `p` and provably cannot alter
//! the folded output.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;

/// A named injection site in the pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// Packed i8 residue panels of operand `A` (after the fused
    /// trunc+convert sweep, before the INT8 GEMMs).
    PanelA,
    /// Packed i8 residue panels of operand `B`.
    PanelB,
    /// The INT32 accumulator stripe of a GEMM, after the tile sweep and
    /// before the fused mod-reduce epilogue.
    Acc,
    /// A UINT8 residue plane, after the GEMM + reduction produced it.
    Residue,
}

impl FaultSite {
    fn mask_bit(self) -> u8 {
        match self {
            FaultSite::PanelA => 1,
            FaultSite::PanelB => 2,
            FaultSite::Acc => 4,
            FaultSite::Residue => 8,
        }
    }
}

#[derive(Debug, PartialEq)]
struct EnvCfg {
    rate_bits: u64,
    site_mask: u8,
    seed: u64,
}

/// The values `OZAKI_FAULT_INJECT` accepts.
const INJECT_GRAMMAR: &str = "rate[,seed[,site]] with rate in [0, 1], seed an unsigned \
     64-bit integer (default 0x5eed), site one of panel-a|panel-b|panel|acc|residue|all \
     (default all)";

/// Parse one `OZAKI_FAULT_INJECT` value ([`INJECT_GRAMMAR`]). Empty or
/// rate 0 means injection off (`Ok(None)`).
fn parse_inject(raw: &str) -> Result<Option<EnvCfg>, String> {
    if raw.trim().is_empty() {
        return Ok(None);
    }
    let mut parts = raw.splitn(3, ',').map(str::trim);
    let rate_s = parts.next().unwrap_or_default();
    let rate: f64 = rate_s
        .parse()
        .ok()
        .filter(|r| (0.0..=1.0).contains(r))
        .ok_or_else(|| format!("rate {rate_s:?} is not a number in [0, 1]"))?;
    let seed = match parts.next() {
        Some(s) => s
            .parse()
            .map_err(|_| format!("seed {s:?} is not an unsigned 64-bit integer"))?,
        None => 0x5eed,
    };
    let site_mask = match parts.next().unwrap_or("all") {
        "panel-a" => FaultSite::PanelA.mask_bit(),
        "panel-b" => FaultSite::PanelB.mask_bit(),
        "panel" => FaultSite::PanelA.mask_bit() | FaultSite::PanelB.mask_bit(),
        "acc" => FaultSite::Acc.mask_bit(),
        "residue" => FaultSite::Residue.mask_bit(),
        "all" => 0xF,
        site => return Err(format!("unknown site {site:?}")),
    };
    if rate == 0.0 {
        return Ok(None);
    }
    Ok(Some(EnvCfg {
        // The fire threshold as a 32-bit fixed-point fraction.
        rate_bits: (rate * (1u64 << 32) as f64) as u64,
        site_mask,
        seed,
    }))
}

/// The environment-rate configuration, parsed once.
///
/// # Panics
/// On a malformed `OZAKI_FAULT_INJECT`, naming the variable, the value
/// and the grammar — a typo must not silently disable injection.
fn env_cfg() -> Option<&'static EnvCfg> {
    static CFG: OnceLock<Option<EnvCfg>> = OnceLock::new();
    CFG.get_or_init(|| {
        let raw = std::env::var("OZAKI_FAULT_INJECT").unwrap_or_default();
        let cfg = parse_inject(&raw).unwrap_or_else(|e| {
            panic!("OZAKI_FAULT_INJECT={raw:?}: {e}; expected {INJECT_GRAMMAR}")
        })?;
        RNG.store(
            cfg.seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1),
            Ordering::Relaxed,
        );
        Some(cfg)
    })
    .as_ref()
}

/// One-shot armed site (`site.mask_bit()`, 0 = none), consumed by the first
/// matching hook call.
static ARMED: AtomicU8 = AtomicU8::new(0);
/// Deterministic draw state shared by rate draws and flip placement.
static RNG: AtomicU64 = AtomicU64::new(0x9e3779b97f4a7c15);
/// Total bit-flip events injected since process start.
static INJECTED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Suppression depth: hooks on this thread no-op while > 0.
    static SUPPRESS: Cell<u32> = const { Cell::new(0) };
    /// Protected-region depth: env-rate draws fire only while > 0.
    static REGION: Cell<u32> = const { Cell::new(0) };
}

/// Whether any injection mechanism is live (one cached-`OnceLock` read and
/// one relaxed load — cheap enough for hot paths).
#[inline]
pub fn enabled() -> bool {
    env_cfg().is_some() || ARMED.load(Ordering::Relaxed) != 0
}

/// Total bit-flip events injected so far in this process.
pub fn injected() -> u64 {
    INJECTED.load(Ordering::Relaxed)
}

/// Arm a one-shot fault: the next hook call at `site` (any thread, any
/// region, unless suppressed) flips bits exactly once. Tests serialize
/// around this — the armed state is process-global.
pub fn arm_once(site: FaultSite) {
    ARMED.store(site.mask_bit(), Ordering::SeqCst);
}

/// Disarm any pending one-shot fault (does not touch the env-rate config).
pub fn disarm() {
    ARMED.store(0, Ordering::SeqCst);
}

/// Whether a one-shot fault armed by [`arm_once`] is still pending (false
/// once a hook consumed it).
pub fn armed_pending() -> bool {
    ARMED.load(Ordering::SeqCst) != 0
}

/// RAII guard suppressing injection on the current thread (recovery runs
/// single-threaded under one of these).
pub struct SuppressGuard(());

impl Drop for SuppressGuard {
    fn drop(&mut self) {
        SUPPRESS.with(|s| s.set(s.get() - 1));
    }
}

/// Suppress injection on this thread until the guard drops.
pub fn suppress() -> SuppressGuard {
    SUPPRESS.with(|s| s.set(s.get() + 1));
    SuppressGuard(())
}

/// RAII guard marking the current thread as inside an ABFT-protected
/// execution; environment-rate faults fire only inside one.
pub struct RegionGuard(());

impl Drop for RegionGuard {
    fn drop(&mut self) {
        REGION.with(|r| r.set(r.get() - 1));
    }
}

/// Open a protected region on this thread (see [`RegionGuard`]).
pub fn region() -> RegionGuard {
    REGION.with(|r| r.set(r.get() + 1));
    RegionGuard(())
}

#[inline]
fn suppressed() -> bool {
    SUPPRESS.with(|s| s.get() > 0)
}

#[inline]
fn in_region() -> bool {
    REGION.with(|r| r.get() > 0)
}

/// Next deterministic draw (an LCG step; the whole word is the draw).
fn next_draw() -> u64 {
    let mut cur = RNG.load(Ordering::Relaxed);
    loop {
        let next = cur
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        match RNG.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return next,
            Err(now) => cur = now,
        }
    }
}

/// Decide whether a hook call at `site` should inject, consuming the armed
/// one-shot if it matches. Returns a draw for flip placement on yes.
fn should_fire(site: FaultSite) -> Option<u64> {
    if suppressed() {
        return None;
    }
    let bit = site.mask_bit();
    // One-shot armed faults fire first (and exactly once).
    if ARMED.load(Ordering::Relaxed) & bit != 0
        && ARMED
            .compare_exchange(bit, 0, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    {
        return Some(next_draw());
    }
    let cfg = env_cfg()?;
    if cfg.site_mask & bit == 0 || !in_region() {
        return None;
    }
    let draw = next_draw();
    if (draw >> 32) < cfg.rate_bits {
        Some(draw)
    } else {
        None
    }
}

/// Hook: maybe flip 1–3 bits among bits 0–6 of one element of a packed i8
/// residue panel (the sign bit is left alone, so the flip is a live
/// residue corruption of the same magnitude class the checksums bound).
/// Returns whether a fault was injected.
pub fn corrupt_panel(site: FaultSite, panel: &mut [i8]) -> bool {
    if !enabled() || panel.is_empty() {
        return false;
    }
    debug_assert!(matches!(site, FaultSite::PanelA | FaultSite::PanelB));
    match should_fire(site) {
        Some(draw) => {
            let idx = (draw % panel.len() as u64) as usize;
            let extra = next_draw();
            let mut mask: i8 = 1 << (extra % 7);
            for shift in 0..(extra >> 8) % 3 {
                mask |= 1 << ((extra >> (16 + 8 * shift)) % 7);
            }
            panel[idx] ^= mask;
            INJECTED.fetch_add(1, Ordering::Relaxed);
            true
        }
        None => false,
    }
}

/// Hook: maybe flip one low-byte bit of one INT32 accumulator element
/// (called by the engine on each completed stripe before the fused
/// epilogue). Returns whether a fault was injected.
pub fn corrupt_acc(c: &mut [i32]) -> bool {
    if !enabled() || c.is_empty() {
        return false;
    }
    match should_fire(FaultSite::Acc) {
        Some(draw) => {
            let idx = (draw % c.len() as u64) as usize;
            c[idx] ^= 1 << (next_draw() % 8);
            INJECTED.fetch_add(1, Ordering::Relaxed);
            true
        }
        None => false,
    }
}

/// Hook: maybe flip one bit of one UINT8 residue-plane element. Returns
/// whether a fault was injected.
pub fn corrupt_residue(u: &mut [u8]) -> bool {
    if !enabled() || u.is_empty() {
        return false;
    }
    match should_fire(FaultSite::Residue) {
        Some(draw) => {
            let idx = (draw % u.len() as u64) as usize;
            u[idx] ^= 1 << (next_draw() % 8);
            INJECTED.fetch_add(1, Ordering::Relaxed);
            true
        }
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inject_parser_accepts_the_grammar_and_rejects_the_rest() {
        let cfg = |rate: f64, seed, site_mask| EnvCfg {
            rate_bits: (rate * (1u64 << 32) as f64) as u64,
            site_mask,
            seed,
        };
        assert_eq!(parse_inject("0.02,42,all"), Ok(Some(cfg(0.02, 42, 0xF))));
        assert_eq!(parse_inject("1"), Ok(Some(cfg(1.0, 0x5eed, 0xF))));
        assert_eq!(parse_inject(" 0.5 , 7 , acc "), Ok(Some(cfg(0.5, 7, 4))));
        assert_eq!(parse_inject("0.5,7,panel"), Ok(Some(cfg(0.5, 7, 3))));
        // Rate 0 and empty keep injection off.
        assert_eq!(parse_inject("0"), Ok(None));
        assert_eq!(parse_inject("0.0,42,residue"), Ok(None));
        assert_eq!(parse_inject(""), Ok(None));
        for bad in [
            "abc",
            "NaN",
            "-0.1",
            "1.5",
            "0.02,x",
            "0.02,-1",
            "0.02,42,alll",
            "0.02,42,all,extra",
            "0,42,nowhere",
        ] {
            assert!(parse_inject(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    // Process-global state: keep every test in one serialized block.
    #[test]
    fn armed_faults_fire_once_and_respect_suppression() {
        let mut panel = vec![0i8; 64];

        // Nothing armed: hooks are inert.
        assert!(!corrupt_panel(FaultSite::PanelA, &mut panel));
        assert!(panel.iter().all(|&x| x == 0));

        // Armed fault fires exactly once, at the armed site only.
        arm_once(FaultSite::PanelA);
        assert!(armed_pending());
        let mut other = vec![0u8; 16];
        assert!(!corrupt_residue(&mut other), "wrong site must not fire");
        assert!(corrupt_panel(FaultSite::PanelA, &mut panel));
        assert!(!armed_pending());
        let flipped: Vec<_> = panel.iter().filter(|&&x| x != 0).collect();
        assert_eq!(flipped.len(), 1, "exactly one element flipped");
        // Panel flips leave the sign bit alone.
        assert!(panel.iter().all(|&x| x >= 0));
        assert!(!corrupt_panel(FaultSite::PanelA, &mut panel), "one-shot");

        // Suppression blocks an armed fault until the guard drops.
        arm_once(FaultSite::Acc);
        let mut acc = vec![0i32; 32];
        {
            let _g = suppress();
            assert!(!corrupt_acc(&mut acc));
            assert!(armed_pending(), "suppressed hook must not consume");
        }
        assert!(corrupt_acc(&mut acc));
        let delta: i32 = acc.iter().sum();
        assert!(delta.abs() < 256 && delta != 0, "low-byte flip: {delta}");

        // Residue flips touch exactly one element.
        arm_once(FaultSite::Residue);
        let mut u = vec![0u8; 40];
        assert!(corrupt_residue(&mut u));
        assert_eq!(u.iter().filter(|&&x| x != 0).count(), 1);

        assert!(injected() >= 3);
        disarm();
    }
}
