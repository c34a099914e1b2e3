//! The sealed element trait behind the element-generic GEMM facade.
//!
//! Ozaki Scheme II natively emulates over exact integer products, so both
//! supported precisions run the *same* f64 pipeline: f32 operands are
//! widened **exactly** inside the kernels that read them (line 1's
//! kernels and the fused trunc+convert sweep, all generic over
//! [`Element`] — no widened copy of the operand ever exists; an f32
//! operand's truncated entries are f32 again, and up to `N = 11` they are
//! reduced in f32, see [`crate::convert::rmod_chain`]) and the fold output
//! is narrowed once at the end. [`Element`] captures the handful
//! of precision-specific facts — the conversion-threshold flag
//! `b = 64/32`, the supported moduli range, and the exact widen/narrow
//! hops — and is sealed to `f64` and `f32`: the set of precisions is a
//! property of the scheme (§4), not an extension point.

use crate::moduli::{N_MAX, N_MAX_SGEMM};

mod sealed {
    pub trait Sealed {}
    impl Sealed for f64 {}
    impl Sealed for f32 {}
}

/// A GEMM element type (`f64` or `f32`; sealed — see the module docs).
pub trait Element:
    Copy
    + Default
    + PartialEq
    + Send
    + Sync
    + std::fmt::Debug
    + std::ops::Add<Output = Self>
    + std::ops::Mul<Output = Self>
    + sealed::Sealed
    + 'static
{
    /// Whether the DGEMM (`b = 64`) conversion thresholds apply (`false`
    /// selects the SGEMM `b = 32` thresholds).
    const IS_F64: bool;
    /// Largest supported moduli count for this precision's pipeline.
    const N_MAX: usize;
    /// The multiplicative identity (BLAS `alpha` default).
    const ONE: Self;
    /// The additive identity (BLAS `beta` default).
    const ZERO: Self;

    /// Exact widening into the f64 pipeline domain.
    fn to_f64(self) -> f64;
    /// Narrowing from the f64 fold output (identity for f64, RNE for f32).
    fn from_f64(x: f64) -> Self;
    /// Finite (neither NaN nor infinite)?
    fn is_finite_elem(self) -> bool;
    /// `Some` iff the element type *is* f64 — the zero-copy escape hatch
    /// that lets the generic facade fold directly into an f64 output
    /// buffer without a staging pass.
    fn as_f64_slice_mut(s: &mut [Self]) -> Option<&mut [f64]>;
}

impl Element for f64 {
    const IS_F64: bool = true;
    const N_MAX: usize = N_MAX;
    const ONE: f64 = 1.0;
    const ZERO: f64 = 0.0;

    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline]
    fn from_f64(x: f64) -> f64 {
        x
    }
    #[inline]
    fn is_finite_elem(self) -> bool {
        self.is_finite()
    }
    #[inline]
    fn as_f64_slice_mut(s: &mut [f64]) -> Option<&mut [f64]> {
        Some(s)
    }
}

impl Element for f32 {
    const IS_F64: bool = false;
    const N_MAX: usize = N_MAX_SGEMM;
    const ONE: f32 = 1.0;
    const ZERO: f32 = 0.0;

    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline]
    fn from_f64(x: f64) -> f32 {
        x as f32
    }
    #[inline]
    fn is_finite_elem(self) -> bool {
        self.is_finite()
    }
    #[inline]
    fn as_f64_slice_mut(_: &mut [f32]) -> Option<&mut [f64]> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widening_is_exact_and_narrowing_rounds() {
        assert_eq!(<f32 as Element>::to_f64(0.1f32), 0.1f32 as f64);
        assert_eq!(<f32 as Element>::from_f64(0.1), 0.1f32);
        assert_eq!(<f64 as Element>::from_f64(0.1), 0.1);
        let flags = [<f64 as Element>::IS_F64, <f32 as Element>::IS_F64];
        assert_eq!(flags, [true, false]);
        assert_eq!(<f32 as Element>::N_MAX, N_MAX_SGEMM);
    }

    #[test]
    fn f64_slices_pass_through() {
        let mut d = [1.0f64, 2.0];
        assert!(<f64 as Element>::as_f64_slice_mut(&mut d).is_some());
        let mut s = [1.0f32, 2.0];
        assert!(<f32 as Element>::as_f64_slice_mut(&mut s).is_none());
    }
}
