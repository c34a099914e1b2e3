//! The one CPU-feature probe behind every runtime-dispatched kernel.
//!
//! Every SIMD sweep in the workspace — the INT8 tile and mod-reduce
//! kernels here, the `ozaki2` trunc/convert/fold row kernels and the ABFT
//! checksum sweeps — matches on [`isa()`] instead of probing the CPU
//! itself. `OZAKI_FORCE_SCALAR` (any non-empty value other than `0`) pins
//! every one of them to [`Isa::Scalar`], which is how the CI
//! `scalar-fallback` job runs each scalar oracle on AVX-capable runners.
//!
//! The INT8 engine additionally honours a thread-local cap,
//! [`cap_scope`]: inside one, its tile and mod-reduce kernels run at
//! [`engine_isa()`] `= min(isa(), cap)`. The ABFT scalar repair and the
//! level-parity tests use it to pin the engine to one level.

use std::cell::Cell;
use std::sync::OnceLock;

/// SIMD level of the running CPU. The levels are cumulative, so a kernel
/// that needs level `L` runs on every `isa() >= L`; a kernel family with
/// no variant at some level matches it together with the level below
/// (e.g. `Isa::Avx512 | Isa::Avx512Vnni | Isa::Amx`).
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
    /// [`Isa::Avx512Vnni`] plus the AMX tile unit with INT8 dot products
    /// (`amx-tile`, `amx-int8`), with tile state enabled by the OS and
    /// granted to this process.
    Amx,
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
    } else if !(amx_cpuid() && amx_xcr0() && amx_permit()) {
        Isa::Avx512Vnni
    } else {
        Isa::Amx
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn probe() -> Isa {
    Isa::Scalar
}

/// CPUID.(EAX=7,ECX=0):EDX bit 24 (AMX-TILE) and bit 25 (AMX-INT8).
#[cfg(target_arch = "x86_64")]
fn amx_cpuid() -> bool {
    // SAFETY: `cpuid` exists on every x86-64 CPU, and leaf 7 is valid on
    // every CPU that reached this point (it reports AVX-512). Newer
    // toolchains declare the intrinsic safe, hence the allow.
    #[allow(unused_unsafe)]
    let leaf7 = unsafe { std::arch::x86_64::__cpuid_count(7, 0) };
    leaf7.edx & (1 << 24) != 0 && leaf7.edx & (1 << 25) != 0
}

/// XCR0 bits 17 (XTILECFG) and 18 (XTILEDATA): the OS saves tile state.
#[cfg(target_arch = "x86_64")]
fn amx_xcr0() -> bool {
    let xcr0_lo: u32;
    // SAFETY: `xgetbv` faults only when CR4.OSXSAVE is clear. The probe
    // reaches this point only after std reported AVX-512F, which it does
    // only with OSXSAVE set. The instruction touches no memory.
    unsafe {
        std::arch::asm!(
            "xgetbv",
            in("ecx") 0u32,
            out("eax") xcr0_lo,
            out("edx") _,
            options(nomem, nostack, preserves_flags),
        );
    }
    xcr0_lo & (1 << 17) != 0 && xcr0_lo & (1 << 18) != 0
}

/// Ask Linux for permission to use AMX tile data in this process:
/// `arch_prctl(ARCH_REQ_XCOMP_PERM, XFEATURE_XTILEDATA)`, which must
/// return 0 before the first tile instruction. The permission is
/// process-wide, so pool threads started before or after share it.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn amx_permit() -> bool {
    const SYS_ARCH_PRCTL: usize = 158;
    const ARCH_REQ_XCOMP_PERM: usize = 0x1023;
    const XFEATURE_XTILEDATA: usize = 18;
    let ret: isize;
    // SAFETY: a raw `arch_prctl` system call. This request reads and
    // writes no user memory; `syscall` clobbers only rcx and r11, which
    // are declared, and returns in rax.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_ARCH_PRCTL => ret,
            in("rdi") ARCH_REQ_XCOMP_PERM,
            in("rsi") XFEATURE_XTILEDATA,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret == 0
}

#[cfg(all(target_arch = "x86_64", not(target_os = "linux")))]
fn amx_permit() -> bool {
    false
}

thread_local! {
    /// The engine's level cap on this thread (see [`cap_scope`]).
    static CAP: Cell<Isa> = const { Cell::new(Isa::Amx) };
}

/// RAII guard of [`cap_scope`]; restores the previous cap on drop.
pub struct CapGuard {
    prev: Isa,
}

impl Drop for CapGuard {
    fn drop(&mut self) {
        CAP.with(|c| c.set(self.prev));
    }
}

/// Cap the INT8 engine's tile and mod-reduce kernels on this thread at
/// `level` until the guard drops. Caps nest and only ever lower the
/// level. The engine reads the cap once per GEMM call, on the calling
/// thread, and carries it into every parallel stripe. Every level is
/// bit-identical, so a cap changes speed, never results.
pub fn cap_scope(level: Isa) -> CapGuard {
    let prev = CAP.with(|c| c.replace(c.get().min(level)));
    CapGuard { prev }
}

/// The level the INT8 engine runs at on this thread:
/// `min(`[`isa()`]`, cap)`, the cap being [`cap_scope`]'s.
pub fn engine_isa() -> Isa {
    isa().min(CAP.with(Cell::get))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered_and_cumulative() {
        assert!(Isa::Scalar < Isa::Avx2 && Isa::Avx2 < Isa::Avx512);
        assert!(Isa::Avx512 < Isa::Avx512Vnni && Isa::Avx512Vnni < Isa::Amx);
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
            if level == Isa::Amx {
                assert!(amx_cpuid() && amx_xcr0());
            }
        }
    }

    #[test]
    fn cap_scope_nests() {
        let top = isa();
        assert_eq!(engine_isa(), top);
        {
            let _a = cap_scope(Isa::Avx2);
            assert_eq!(engine_isa(), top.min(Isa::Avx2));
            {
                // An inner cap never raises the level.
                let _b = cap_scope(Isa::Amx);
                assert_eq!(engine_isa(), top.min(Isa::Avx2));
                let _c = cap_scope(Isa::Scalar);
                assert_eq!(engine_isa(), Isa::Scalar);
            }
            assert_eq!(engine_isa(), top.min(Isa::Avx2));
        }
        assert_eq!(engine_isa(), top);
    }
}
