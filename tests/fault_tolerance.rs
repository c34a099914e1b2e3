//! Fault-injection integration tests for the ABFT execution layer.
//!
//! Every test arms deterministic single-bit faults via
//! [`gemm_engine::faultinject`] and drives the full `ozaki2` stack
//! through them, pinning the two contracts the fault-tolerant executor
//! claims:
//!
//! 1. **Detection** (`FaultPolicy::Detect` and up): whenever an injected
//!    flip changes the output relative to a fault-free run, the report
//!    records a detection — the checksum arithmetic is exact mod `p`, so
//!    there is no tolerance window for a flip to hide in.
//! 2. **Recovery** (`FaultPolicy::Retry` / `RetryThenScalar`): the final
//!    product is **bit-identical** to the fault-free result, across
//!    modes, element types, shapes, and every injection site.
//!
//! The injector's armed state is process-global, so *all* tests in this
//! file serialize on one mutex (and this is the only test binary that
//! arms faults). The suite also stays correct when CI layers the
//! environment mechanisms on top (`OZAKI_FAULT_INJECT` +
//! `OZAKI_FAULT_POLICY=retry-then-scalar`): references are computed
//! under an explicit `FaultPolicy::Off`, which opens no protected
//! region and therefore sees no environment-rate faults.

use gemm_dense::workload::{phi_matrix_f32, phi_matrix_f64};
use gemm_dense::MatF64;
use gemm_engine::faultinject::{self, FaultSite};
use ozaki2::{
    FaultPolicy, GemmArgs, Mode, OperandSide, Ozaki2, PreparedOperand, RecoveryAction, K_BLOCK_MAX,
};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

static INJECTOR: Mutex<()> = Mutex::new(());

/// Serialize access to the process-global injector (recovering the lock
/// from a previous test's panic — the injector state is still valid).
fn injector_lock() -> MutexGuard<'static, ()> {
    let guard = INJECTOR.lock().unwrap_or_else(|e| e.into_inner());
    faultinject::disarm();
    guard
}

const SITES: [FaultSite; 4] = [
    FaultSite::PanelA,
    FaultSite::PanelB,
    FaultSite::Acc,
    FaultSite::Residue,
];

/// Flips at any site are detected whenever they matter: if the output
/// differs from the fault-free product, the report must say so. Residue
/// flips always land in live plane data, so for that site detection is
/// asserted unconditionally.
#[test]
fn single_faults_are_always_detected() {
    let _g = injector_lock();
    for &(m, n, k) in &[(16usize, 16usize, 32usize), (7, 9, 21), (33, 5, 40)] {
        let a = phi_matrix_f64(m, k, 0.5, 3, 0);
        let b = phi_matrix_f64(k, n, 0.5, 3, 1);
        for mode in [Mode::Fast, Mode::Accurate] {
            let reference = Ozaki2::new(8, mode)
                .with_fault_policy(FaultPolicy::Off)
                .gemm(GemmArgs::new(&a, &b))
                .unwrap()
                .c;
            let emu = Ozaki2::new(8, mode).with_fault_policy(FaultPolicy::Detect);
            for site in SITES {
                faultinject::arm_once(site);
                let out = emu.gemm(GemmArgs::new(&a, &b)).unwrap();
                faultinject::disarm();
                let rep = out.report.fault.expect("active policy must report");
                if out.c != reference {
                    assert!(
                        rep.detected >= 1,
                        "undetected corruption: {site:?} {mode:?} {m}x{n}x{k}"
                    );
                    assert!(!rep.events.is_empty(), "detections must leave events");
                }
                if site == FaultSite::Residue {
                    assert!(
                        rep.detected >= 1,
                        "residue flips always hit live data: {mode:?} {m}x{n}x{k}"
                    );
                }
            }
        }
    }
}

/// Negative control: under `FaultPolicy::Off` nothing verifies — an
/// armed accumulator flip (which bypasses the protected region) lands
/// in live data and silently corrupts the product, and no fault report
/// is attached. This pins both that `Off` really is the pre-ABFT
/// pipeline and that the injected faults are material.
#[test]
fn policy_off_is_silently_corrupted() {
    let _g = injector_lock();
    // Dimensions multiples of the 4x4 tile: every accumulator element
    // is live, so the flip cannot hide in tile padding.
    let (m, n, k) = (16usize, 16usize, 32usize);
    let a = phi_matrix_f64(m, k, 0.5, 11, 0);
    let b = phi_matrix_f64(k, n, 0.5, 11, 1);
    let emu = Ozaki2::new(8, Mode::Fast).with_fault_policy(FaultPolicy::Off);
    let reference = emu.gemm(GemmArgs::new(&a, &b)).unwrap();
    assert!(reference.report.fault.is_none(), "Off must not report");

    faultinject::arm_once(FaultSite::Acc);
    let corrupted = emu.gemm(GemmArgs::new(&a, &b)).unwrap();
    faultinject::disarm();
    assert!(corrupted.report.fault.is_none());
    assert_ne!(
        corrupted.c, reference.c,
        "a live accumulator flip must corrupt the unprotected pipeline"
    );
}

/// A clean (fault-free) run under an active policy is bit-identical to
/// the `Off` path, costs the same number of *main* INT8 GEMMs (checksum
/// products are accounted separately), and reports a clean
/// `FaultReport` with the expected checksum-GEMM count — also on the
/// k-blocked branch (`k > K_BLOCK_MAX`), where each plane takes one
/// engine call per block.
#[test]
fn clean_runs_report_clean_and_match_off_bitwise() {
    let _g = injector_lock();
    let shapes: [(usize, usize, usize, &[usize]); 2] =
        [(24, 18, 40, &[4, 10]), (4, 4, K_BLOCK_MAX + 129, &[4])];
    for (m, n, k, nmods) in shapes {
        let a = phi_matrix_f64(m, k, 0.6, 5, 0);
        let b = phi_matrix_f64(k, n, 0.6, 5, 1);
        let blocks = k.div_ceil(K_BLOCK_MAX);
        for &nmod in nmods {
            for mode in [Mode::Fast, Mode::Accurate] {
                let off = Ozaki2::new(nmod, mode)
                    .with_fault_policy(FaultPolicy::Off)
                    .gemm(GemmArgs::new(&a, &b))
                    .unwrap();
                let det = Ozaki2::new(nmod, mode)
                    .with_fault_policy(FaultPolicy::Detect)
                    .gemm(GemmArgs::new(&a, &b))
                    .unwrap();
                // One engine call per plane and k-block, plus the
                // accurate mode's one estimation GEMM.
                let estimate = usize::from(mode == Mode::Accurate);
                assert_eq!(off.report.int8_gemm_calls, blocks * nmod + estimate);
                assert_eq!(
                    det.report.int8_gemm_calls, off.report.int8_gemm_calls,
                    "checksum GEMMs must not inflate the main call count"
                );
                let rep = det.report.fault.expect("active policy must report");
                // Two checksum products per residue plane, however many
                // k-blocks its GEMM takes.
                assert_eq!(rep.checksum_gemms, 2 * nmod);
                if !faultinject::enabled() {
                    assert_eq!(det.c, off.c, "N={nmod} {mode:?} k={k}");
                    assert!(rep.clean(), "no faults were armed: {rep:?}");
                } else if det.c != off.c {
                    // An env-rate fault fired inside the protected region;
                    // Detect records rather than repairs, so the output
                    // may differ — but then the detection contract must
                    // hold.
                    assert!(rep.detected > 0, "corrupt output went undetected: {rep:?}");
                }
            }
        }
    }
}

/// Prepared (`Fixed`) operands are the trusted repack source: the panel
/// seams are deliberately absent there, so an armed panel fault stays
/// pending, and accumulator faults still recover bit-identically via
/// repair from the prepared panels.
#[test]
fn prepared_operands_have_no_panel_seam_and_recover() {
    let _g = injector_lock();
    let (m, n, k) = (24usize, 12, 32);
    let a = phi_matrix_f64(m, k, 0.5, 7, 0);
    let b = phi_matrix_f64(k, n, 0.5, 7, 1);
    let emu = Ozaki2::new(8, Mode::Fast).with_fault_policy(FaultPolicy::Retry { max_retries: 2 });
    let reference = Ozaki2::new(8, Mode::Fast)
        .with_fault_policy(FaultPolicy::Off)
        .gemm(GemmArgs::new(&a, &b))
        .unwrap()
        .c;
    let pa = emu.prepare(OperandSide::A, &a).unwrap();
    let pb = emu.prepare(OperandSide::B, &b).unwrap();
    let execute = |pa: &PreparedOperand, pb: &PreparedOperand| {
        let mut c = MatF64::zeros(m, n);
        emu.gemm_into(GemmArgs::new(pa, pb), c.view_mut()).unwrap();
        c
    };

    // No Repackable side in the execution: the armed panel fault has no
    // seam to fire at and must still be pending afterwards.
    faultinject::arm_once(FaultSite::PanelA);
    let got = execute(&pa, &pb);
    assert!(
        faultinject::armed_pending(),
        "prepared panels must not be an injection seam"
    );
    faultinject::disarm();
    assert_eq!(got, reference);

    // Downstream faults are still caught and repaired.
    for site in [FaultSite::Acc, FaultSite::Residue] {
        faultinject::arm_once(site);
        let got = execute(&pa, &pb);
        faultinject::disarm();
        assert_eq!(got, reference, "{site:?} must recover bit-identically");
    }
}

/// A flipped panel byte trips both checksum axes (the references were
/// captured before the panel seam), so only the panel-integrity check can
/// tell it from a residue fault. A stripe re-run from the same corrupt
/// panels cannot repair it: one retry must go straight to the repack.
#[test]
fn one_panel_flip_is_repaired_by_one_retry() {
    let _g = injector_lock();
    // Padding-free: every panel byte is live.
    let (m, n, k) = (32usize, 32usize, 64usize);
    let a = phi_matrix_f64(m, k, 0.5, 13, 0);
    let b = phi_matrix_f64(k, n, 0.5, 13, 1);
    let off = Ozaki2::new(8, Mode::Fast)
        .with_fault_policy(FaultPolicy::Off)
        .gemm(GemmArgs::new(&a, &b))
        .unwrap()
        .c;
    let emu = Ozaki2::new(8, Mode::Fast).with_fault_policy(FaultPolicy::Retry { max_retries: 1 });
    for site in [FaultSite::PanelA, FaultSite::PanelB] {
        faultinject::arm_once(site);
        let out = emu.gemm(GemmArgs::new(&a, &b)).unwrap();
        faultinject::disarm();
        let rep = out.report.fault.expect("active policy must report");
        assert_eq!(rep.unrecovered, 0, "{site:?}: {rep:?}");
        assert_eq!(out.c, off, "{site:?}: {rep:?}");
        if !faultinject::enabled() {
            let actions: Vec<_> = rep.events.iter().map(|e| e.action).collect();
            assert_eq!(actions, [RecoveryAction::FullRepair], "{site:?}: {rep:?}");
        }
    }
}

/// The recovery ladder end to end: one armed flip at each site under
/// each policy yields this exact event list, these counters, and the
/// `Off` bits whenever recovery succeeds. A panel flip goes straight to
/// the repack (its plane's checksum vector no longer matches); an
/// accumulator or residue flip is mended by one stripe re-run. The
/// second shape is k-blocked (`k > K_BLOCK_MAX`), so its stripe re-run
/// accumulates block residues over a column window of the plane.
#[test]
fn recovery_ladder_events_counters_and_bits() {
    use gemm_engine::PV;
    use RecoveryAction::*;
    let _g = injector_lock();
    // (policy, actions for a residue-class flip, actions for a panel flip)
    let ladder: [(FaultPolicy, RecoveryAction, RecoveryAction); 7] = [
        (FaultPolicy::Detect, Detected, Detected),
        (
            FaultPolicy::Retry { max_retries: 0 },
            Unrecovered,
            Unrecovered,
        ),
        (
            FaultPolicy::Retry { max_retries: 1 },
            StripeRetry,
            FullRepair,
        ),
        (
            FaultPolicy::Retry { max_retries: 2 },
            StripeRetry,
            FullRepair,
        ),
        (
            FaultPolicy::RetryThenScalar { max_retries: 0 },
            ScalarFallback,
            ScalarFallback,
        ),
        (
            FaultPolicy::RetryThenScalar { max_retries: 1 },
            StripeRetry,
            FullRepair,
        ),
        (
            FaultPolicy::RetryThenScalar { max_retries: 2 },
            StripeRetry,
            FullRepair,
        ),
    ];
    // Rows and columns are whole panels; the second shape's depth pads
    // 63 bytes per packed vector, where a panel flip is inert.
    for (m, n, k, nmod) in [
        (32usize, 32usize, 64usize, 8usize),
        (16, 32, K_BLOCK_MAX + 129, 4),
    ] {
        let a = phi_matrix_f64(m, k, 0.5, 17, 0);
        let b = phi_matrix_f64(k, n, 0.5, 17, 1);
        let off = Ozaki2::new(nmod, Mode::Fast)
            .with_fault_policy(FaultPolicy::Off)
            .gemm(GemmArgs::new(&a, &b))
            .unwrap()
            .c;
        for (policy, residue_action, panel_action) in ladder {
            let emu = Ozaki2::new(nmod, Mode::Fast).with_fault_policy(policy);
            for site in SITES {
                faultinject::arm_once(site);
                let out = emu.gemm(GemmArgs::new(&a, &b)).unwrap();
                faultinject::disarm();
                let rep = out.report.fault.expect("active policy must report");
                let what = format!("{site:?} {policy:?} {m}x{n}x{k}: {rep:?}");
                let recovered = policy != FaultPolicy::Detect && rep.unrecovered == 0;
                if faultinject::enabled() {
                    // Environment-rate faults join the armed one: only the
                    // contracts hold, not the exact ladder.
                    if recovered {
                        assert_eq!(out.c, off, "{what}");
                    } else if out.c != off {
                        assert!(rep.detected > 0, "{what}");
                    }
                    continue;
                }
                let panel = matches!(site, FaultSite::PanelA | FaultSite::PanelB);
                if panel && k > 64 && rep.events.is_empty() {
                    // The flip landed in the depth padding.
                    assert_eq!(out.c, off, "{what}");
                    continue;
                }
                let action = if panel { panel_action } else { residue_action };
                let actions: Vec<_> = rep.events.iter().map(|e| e.action).collect();
                assert_eq!(actions, [action], "{what}");
                assert!(rep.events.iter().all(|e| e.plane == 0), "{what}");
                if action == StripeRetry {
                    let (c0, c1) = rep.events[0].columns.expect("a stripe has columns");
                    assert!(c0 % PV == 0 && c1 == (c0 + PV).min(n) - 1, "{what}");
                }
                let count = |x: RecoveryAction| usize::from(action == x);
                let repairs = count(FullRepair) + count(ScalarFallback);
                assert_eq!(rep.detected, 1, "{what}");
                assert_eq!(
                    rep.retries,
                    count(StripeRetry) + count(FullRepair),
                    "{what}"
                );
                assert_eq!(rep.scalar_fallbacks, count(ScalarFallback), "{what}");
                assert_eq!(rep.unrecovered, count(Unrecovered), "{what}");
                assert_eq!(rep.checksum_gemms, 2 * nmod + 2 * repairs, "{what}");
                assert_eq!(
                    out.report.int8_gemm_calls,
                    nmod * k.div_ceil(K_BLOCK_MAX),
                    "{what}"
                );
                if recovered {
                    assert_eq!(out.c, off, "{what}");
                } else {
                    assert_ne!(out.c, off, "a live flip must show when unrepaired: {what}");
                }
            }
        }
    }
}

/// The accumulator seam over a stripe of several column groups: the
/// engine draws one flip per stripe and the group holding the drawn
/// element applies it before its epilogue, so a flip in any group is one
/// residue-class fault that one stripe re-run over its `PV`-aligned
/// window mends. `m = 2048` makes every group one column pair (32
/// columns), and the width gives every stripe at least three groups, the
/// last of `n` ragged.
#[test]
fn acc_flip_in_any_column_group_is_mended_by_one_stripe_retry() {
    use gemm_engine::PV;
    let _g = injector_lock();
    let stripes = 2 * rayon::current_num_threads();
    let (m, n, k, nmod) = (
        2048usize,
        stripes * 3 * 2 * PV + 2 * PV - 5,
        64usize,
        8usize,
    );
    assert_ne!(n % (2 * PV), 0, "the last group must be ragged");
    let a = phi_matrix_f64(m, k, 0.5, 23, 0);
    let b = phi_matrix_f64(k, n, 0.5, 23, 1);
    let off = Ozaki2::new(nmod, Mode::Fast)
        .with_fault_policy(FaultPolicy::Off)
        .gemm(GemmArgs::new(&a, &b))
        .unwrap()
        .c;
    let emu =
        Ozaki2::new(nmod, Mode::Fast).with_fault_policy(FaultPolicy::Retry { max_retries: 1 });
    for _ in 0..3 {
        faultinject::arm_once(FaultSite::Acc);
        let out = emu.gemm(GemmArgs::new(&a, &b)).unwrap();
        faultinject::disarm();
        let rep = out.report.fault.expect("active policy must report");
        assert_eq!(out.c, off, "{rep:?}");
        if faultinject::enabled() {
            // Environment-rate faults join the armed one: only the bits
            // are pinned.
            continue;
        }
        let actions: Vec<_> = rep.events.iter().map(|e| e.action).collect();
        assert_eq!(actions, [RecoveryAction::StripeRetry], "{rep:?}");
        let (c0, c1) = rep.events[0].columns.expect("a stripe has columns");
        assert!(c0 % PV == 0 && c1 == (c0 + PV).min(n) - 1, "{rep:?}");
        assert_eq!(
            (rep.detected, rep.retries, rep.unrecovered),
            (1, 1, 0),
            "{rep:?}"
        );
    }
}

const POLICIES: [FaultPolicy; 3] = [
    FaultPolicy::Retry { max_retries: 2 },
    FaultPolicy::RetryThenScalar { max_retries: 2 },
    // max_retries = 0: the very first mismatch degrades to the scalar
    // oracle — the deepest recovery path.
    FaultPolicy::RetryThenScalar { max_retries: 0 },
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// DGEMM: a single flip at any site, under any recovering policy,
    /// in either mode, yields a bit-identical product with nothing left
    /// unrecovered.
    #[test]
    fn dgemm_recovers_bit_identical(
        m in 1usize..=24,
        n in 1usize..=24,
        k in 1usize..=32,
        nmod in 4usize..=10,
        site_idx in 0usize..4,
        policy_idx in 0usize..3,
        accurate in 0usize..2,
        seed in 0u64..500,
    ) {
        let _g = injector_lock();
        let mode = if accurate == 1 { Mode::Accurate } else { Mode::Fast };
        let a = phi_matrix_f64(m, k, 0.6, seed, 0);
        let b = phi_matrix_f64(k, n, 0.6, seed + 7, 1);
        let reference = Ozaki2::new(nmod, mode)
            .with_fault_policy(FaultPolicy::Off)
            .gemm(GemmArgs::new(&a, &b))
            .unwrap()
            .c;
        let emu = Ozaki2::new(nmod, mode).with_fault_policy(POLICIES[policy_idx]);
        faultinject::arm_once(SITES[site_idx]);
        let out = emu.gemm(GemmArgs::new(&a, &b)).unwrap();
        faultinject::disarm();
        let rep = out.report.fault.expect("active policy must report");
        prop_assert_eq!(rep.unrecovered, 0, "site {:?}: {:?}", SITES[site_idx], rep);
        prop_assert_eq!(
            &out.c, &reference,
            "site {:?} policy {:?} {:?}", SITES[site_idx], POLICIES[policy_idx], mode
        );
    }

    /// SGEMM (f32 element path, staged output): same recovery contract.
    #[test]
    fn sgemm_recovers_bit_identical(
        m in 1usize..=20,
        n in 1usize..=20,
        k in 1usize..=24,
        site_idx in 0usize..4,
        policy_idx in 0usize..3,
        accurate in 0usize..2,
        seed in 0u64..500,
    ) {
        let _g = injector_lock();
        let mode = if accurate == 1 { Mode::Accurate } else { Mode::Fast };
        let a = phi_matrix_f32(m, k, 0.5, seed, 0);
        let b = phi_matrix_f32(k, n, 0.5, seed + 7, 1);
        let reference = Ozaki2::new(8, mode)
            .with_fault_policy(FaultPolicy::Off)
            .gemm(GemmArgs::new(&a, &b))
            .unwrap()
            .c;
        let emu = Ozaki2::new(8, mode).with_fault_policy(POLICIES[policy_idx]);
        faultinject::arm_once(SITES[site_idx]);
        let out = emu.gemm(GemmArgs::new(&a, &b)).unwrap();
        faultinject::disarm();
        let rep = out.report.fault.expect("active policy must report");
        prop_assert_eq!(rep.unrecovered, 0, "site {:?}: {:?}", SITES[site_idx], rep);
        prop_assert_eq!(
            &out.c, &reference,
            "site {:?} policy {:?} {:?}", SITES[site_idx], POLICIES[policy_idx], mode
        );
    }

    /// The per-call override: `GemmArgs::fault_policy` beats the
    /// emulator-wide setting in both directions (arming on an `Off`
    /// emulator, disarming on a `Retry` one).
    #[test]
    fn per_call_policy_override(
        m in 1usize..=16,
        n in 1usize..=16,
        k in 1usize..=24,
        seed in 0u64..200,
    ) {
        let _g = injector_lock();
        let a = phi_matrix_f64(m, k, 0.6, seed, 0);
        let b = phi_matrix_f64(k, n, 0.6, seed + 7, 1);
        let off_emu = Ozaki2::new(6, Mode::Fast).with_fault_policy(FaultPolicy::Off);
        let reference = off_emu.gemm(GemmArgs::new(&a, &b)).unwrap().c;

        // Arm the policy per call on an Off emulator: recovery works.
        faultinject::arm_once(FaultSite::Residue);
        let out = off_emu
            .gemm(GemmArgs::new(&a, &b).fault_policy(FaultPolicy::Retry { max_retries: 2 }))
            .unwrap();
        faultinject::disarm();
        prop_assert_eq!(&out.c, &reference);
        let rep = out.report.fault.expect("override must activate ABFT");
        prop_assert_eq!(rep.unrecovered, 0);

        // Disarm per call on a protected emulator: no report attached.
        let ret_emu =
            Ozaki2::new(6, Mode::Fast).with_fault_policy(FaultPolicy::Retry { max_retries: 2 });
        let out = ret_emu
            .gemm(GemmArgs::new(&a, &b).fault_policy(FaultPolicy::Off))
            .unwrap();
        prop_assert!(out.report.fault.is_none());
        prop_assert_eq!(&out.c, &reference);
    }
}
