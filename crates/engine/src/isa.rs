//! The one CPU-feature probe behind every runtime-dispatched kernel.
//!
//! Every SIMD sweep in the workspace — the INT8 tile and mod-reduce
//! kernels here, the `ozaki2` trunc/convert/fold row kernels and the ABFT
//! checksum sweeps — matches on [`isa()`] instead of probing the CPU
//! itself. `OZAKI_FORCE_SCALAR` (any non-empty value other than `0`) pins
//! every one of them to [`Isa::Scalar`], which is how the CI
//! `scalar-fallback` job runs each scalar oracle on AVX-capable runners.

use std::sync::OnceLock;

/// SIMD level of the running CPU. The levels are cumulative, so a kernel
/// that needs level `L` runs on every `isa() >= L`; a kernel family with
/// no variant at some level matches it together with the level below
/// (e.g. `Isa::Avx512 | Isa::Avx512Vnni`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Isa {
    /// Portable code: the bit-exact oracle every SIMD path is tested
    /// against.
    Scalar,
    /// AVX2 and FMA.
    Avx2,
    /// [`Isa::Avx2`] plus AVX-512F and AVX-512BW.
    Avx512,
    /// [`Isa::Avx512`] plus AVX-512 VNNI.
    Avx512Vnni,
}

/// The SIMD level every dispatcher uses: probed once per process, and
/// [`Isa::Scalar`] when `OZAKI_FORCE_SCALAR` is set.
pub fn isa() -> Isa {
    static ISA: OnceLock<Isa> = OnceLock::new();
    *ISA.get_or_init(|| if force_scalar() { Isa::Scalar } else { probe() })
}

fn force_scalar() -> bool {
    std::env::var("OZAKI_FORCE_SCALAR").is_ok_and(|v| !v.is_empty() && v != "0")
}

#[cfg(target_arch = "x86_64")]
fn probe() -> Isa {
    if !(is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")) {
        Isa::Scalar
    } else if !(is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512bw")) {
        Isa::Avx2
    } else if !is_x86_feature_detected!("avx512vnni") {
        Isa::Avx512
    } else {
        Isa::Avx512Vnni
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn probe() -> Isa {
    Isa::Scalar
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered_and_cumulative() {
        assert!(Isa::Scalar < Isa::Avx2 && Isa::Avx2 < Isa::Avx512);
        assert!(Isa::Avx512 < Isa::Avx512Vnni);
        #[cfg(target_arch = "x86_64")]
        {
            let level = isa();
            if level >= Isa::Avx2 {
                assert!(is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"));
            }
            if level >= Isa::Avx512 {
                assert!(
                    is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512bw")
                );
            }
            if level >= Isa::Avx512Vnni {
                assert!(is_x86_feature_detected!("avx512vnni"));
            }
        }
    }
}
