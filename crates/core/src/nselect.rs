//! A-priori accuracy model and automatic moduli-count selection.
//!
//! The accuracy of Ozaki Scheme II is set by the per-side scale budget
//! `p_fast = (log2(P-1) - 1.5)/2` minus what the dot-product length eats
//! (`~0.5·log2 k` per side, condition (3)): each operand keeps about
//! `p_fast - 0.5·log2 k` significant bits after truncation. This module
//! turns that into a usable API: predict the normwise relative error for
//! `(N, k)` and pick the smallest `N` meeting a target — e.g. "DGEMM-level
//! at k = 1024" resolves to `N = 15`, exactly the paper's §5.1 sweet spot.

use crate::consts::constants;
use crate::moduli::{N_MAX, N_MAX_SGEMM};
use crate::pipeline::EmulationError;

/// Empirical offset calibrated against the Fig. 3 measurements (see the
/// `prediction_tracks_measurement` test): the constant-factor gap between
/// the budget bound and the observed normwise error.
const CALIBRATION_BITS: f64 = 0.8;

/// Predicted normwise relative error of `OS II-fast-N` for inner dimension
/// `k` (phi-independent; componentwise errors on cancelling entries can be
/// arbitrarily larger, as with any floating-point GEMM).
pub fn predicted_error(n_moduli: usize, k: usize) -> f64 {
    let c = constants(n_moduli);
    let bits = c.p_fast - 0.5 * (k.max(2) as f64).log2() - CALIBRATION_BITS;
    2f64.powf(-bits)
}

/// The smallest `N` whose predicted error is at or below `target`, within
/// the supported range for the given pipeline.
///
/// Returns `None` when even the largest supported `N` cannot reach the
/// target (e.g. asking for 1e-30 from the f64 pipeline).
pub fn choose_n(target: f64, k: usize, for_sgemm: bool) -> Option<usize> {
    assert!(target > 0.0, "target must be positive");
    let max = if for_sgemm { N_MAX_SGEMM } else { N_MAX };
    (2..=max).find(|&n| predicted_error(n, k) <= target)
}

/// [`choose_n`] with a **typed** failure: when even the largest supported
/// `N` misses the target, returns
/// [`EmulationError::AccuracyUnreachable`] carrying the best achievable
/// point (`best_n` and its predicted error) instead of a silent `None` —
/// what [`crate::facade::Ozaki2Builder`] surfaces.
pub fn choose_n_checked(target: f64, k: usize, for_sgemm: bool) -> Result<usize, EmulationError> {
    let best_n = if for_sgemm { N_MAX_SGEMM } else { N_MAX };
    choose_n(target, k, for_sgemm).ok_or(EmulationError::AccuracyUnreachable {
        target,
        best_n,
        predicted: predicted_error(best_n, k),
    })
}

/// Convenience: `N` for DGEMM-level accuracy (2^-52) at inner dimension `k`.
pub fn n_for_dgemm_level(k: usize) -> usize {
    choose_n(2f64.powi(-52), k, false).expect("DGEMM level is reachable for supported k")
}

/// Convenience: `N` for SGEMM-level accuracy (2^-23) at inner dimension `k`.
pub fn n_for_sgemm_level(k: usize) -> usize {
    choose_n(2f64.powi(-23), k, true).expect("SGEMM level is reachable for supported k")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Accuracy, Mode, Ozaki2};
    use gemm_dense::norms::normwise_relative_error;
    use gemm_dense::workload::phi_matrix_f64;

    #[test]
    fn paper_sweet_spots() {
        // §5.1: "HPL can employ emulation with 14 or 15 moduli" (k = 1024).
        let n = n_for_dgemm_level(1024);
        assert!(
            (14..=16).contains(&n),
            "DGEMM level at k=1024 should need ~15 moduli, got {n}"
        );
        // SGEMM-level at N in {7, 8}.
        let n = n_for_sgemm_level(1024);
        assert!((7..=9).contains(&n), "SGEMM level at k=1024: got {n}");
    }

    #[test]
    fn larger_k_needs_more_moduli() {
        assert!(n_for_dgemm_level(16384) >= n_for_dgemm_level(1024));
        // Fig. 3's k = 16384 dashes sit slightly above the k = 1024 solids.
        assert!(predicted_error(15, 16384) > predicted_error(15, 1024));
    }

    #[test]
    fn prediction_tracks_measurement() {
        // The predictor must stay within ~3 orders of magnitude of the
        // measured normwise error across the usable N range (it is a
        // budget bound, not a statistical estimate).
        let (m, n, k) = (64usize, 64, 256);
        let a = phi_matrix_f64(m, k, 0.5, 17, 0);
        let b = phi_matrix_f64(k, n, 0.5, 17, 1);
        let exact = gemm_dense::gemm::gemm_f64_naive(&a, &b);
        for nmod in [8usize, 10, 12] {
            let got = Ozaki2::new(nmod, Mode::Fast).dgemm(&a, &b);
            let measured = normwise_relative_error(&got, &exact).max(1e-16);
            let predicted = predicted_error(nmod, k);
            let ratio = (predicted / measured).log10().abs();
            assert!(
                ratio < 3.0,
                "N={nmod}: predicted {predicted:e} vs measured {measured:e}"
            );
            assert!(
                predicted >= measured / 4.0,
                "prediction should rarely be optimistic: N={nmod} {predicted:e} < {measured:e}"
            );
        }
    }

    #[test]
    fn choose_n_checked_reports_best_achievable() {
        match choose_n_checked(1e-40, 1024, true).unwrap_err() {
            EmulationError::AccuracyUnreachable {
                target,
                best_n,
                predicted,
            } => {
                assert_eq!(target, 1e-40);
                assert_eq!(best_n, N_MAX_SGEMM);
                assert_eq!(predicted, predicted_error(N_MAX_SGEMM, 1024));
            }
            e => panic!("expected AccuracyUnreachable, got {e:?}"),
        }
        // Reachable targets agree with the Option form.
        assert_eq!(
            choose_n_checked(1e-8, 512, false).unwrap(),
            choose_n(1e-8, 512, false).unwrap()
        );
    }

    #[test]
    fn choose_n_respects_pipeline_caps() {
        // Unreachable target from the SGEMM pipeline cap.
        assert_eq!(choose_n(1e-40, 1024, true), None);
        // Easy target needs few moduli.
        let n = choose_n(1e-2, 256, true).unwrap();
        assert!(n <= 8, "1e-2 should need few moduli: {n}");
    }

    #[test]
    fn auto_emulator_delivers_requested_accuracy() {
        let (m, n, k) = (48usize, 48, 128);
        let a = phi_matrix_f64(m, k, 0.5, 23, 0);
        let b = phi_matrix_f64(k, n, 0.5, 23, 1);
        let exact = gemm_dense::gemm::gemm_f64_naive(&a, &b);
        let target = 1e-8;
        let emu = Ozaki2::builder()
            .accuracy(Accuracy::TargetError(target))
            .k(k)
            .mode(Mode::Fast)
            .build()
            .unwrap();
        let got = emu.dgemm(&a, &b);
        let err = normwise_relative_error(&got, &exact);
        assert!(
            err <= target * 10.0,
            "requested {target:e}, measured {err:e} with N={}",
            emu.n_moduli()
        );
    }

    #[test]
    fn predictions_monotone_in_n() {
        for k in [256usize, 4096] {
            for n in 2..N_MAX {
                assert!(predicted_error(n + 1, k) < predicted_error(n, k));
            }
        }
    }
}
