//! The one CPU-feature probe behind every runtime-dispatched kernel, and
//! the one safe dispatcher the row kernels run through.
//!
//! Every SIMD sweep in the workspace — the INT8 tile and mod-reduce
//! kernels here, the `ozaki2` trunc/convert/fold row kernels and the ABFT
//! checksum sweeps — runs at a level derived from [`isa()`] instead of
//! probing the CPU itself. `OZAKI_FORCE_SCALAR` (any non-empty value other
//! than `0`) pins every one of them to [`Isa::Scalar`], which is how the
//! CI `scalar-fallback` job runs each scalar oracle on AVX-capable
//! runners.
//!
//! A thread-local cap, [`cap_scope`], lowers the level further: inside
//! one, every kernel runs at [`engine_isa()`] `= min(isa(), cap)`. The
//! ABFT scalar repair and the level-parity tests use it to pin one level.
//!
//! The row kernels are written once, as portable safe loops, and run
//! through [`dispatch`], which compiles each [`Kernel`] (usually a
//! closure) for the AVX-512 and AVX2 levels and picks one at run time;
//! LLVM vectorizes each copy at its width. Only the AMX and tile kernels
//! of [`crate::int8`] are hand-written.

use std::cell::Cell;
use std::io::Write;
use std::sync::{Mutex, OnceLock};

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

/// Cap every dispatched kernel on this thread at `level` until the guard
/// drops: the engine's tile and mod-reduce kernels and every row kernel
/// run through [`dispatch`]. Caps nest and only ever lower the level. The
/// engine reads the cap once per GEMM call, on the calling thread, and
/// carries it into every parallel stripe; a row kernel reads it on the
/// thread it runs on. Every level is bit-identical, so a cap changes
/// speed, never results.
pub fn cap_scope(level: Isa) -> CapGuard {
    let prev = CAP.with(|c| c.replace(c.get().min(level)));
    CapGuard { prev }
}

/// The level every dispatched kernel runs at on this thread:
/// `min(`[`isa()`]`, cap)`, the cap being [`cap_scope`]'s.
pub fn engine_isa() -> Isa {
    isa().min(CAP.with(Cell::get))
}

/// A row kernel with its arguments bound: what [`dispatch`] compiles once
/// per level. Every `FnOnce() -> R` closure is one.
///
/// Each level's copy contains the body only if LLVM inlines `run` into
/// it. A closure is inlined only while LLVM judges it cheap (the cost
/// `-C remark=inline` reports must stay under its threshold, 325 at
/// `opt-level=3`), so a closure should just call one `#[inline(always)]`
/// row loop of a few lines. A larger body is a struct implementing this
/// trait with an `#[inline(always)]` `run`, which every copy contains
/// whatever its size.
pub trait Kernel {
    /// What the kernel returns.
    type Out;
    /// The kernel's body.
    fn run(self) -> Self::Out;
}

impl<R, F: FnOnce() -> R> Kernel for F {
    type Out = R;
    #[inline(always)]
    fn run(self) -> R {
        self()
    }
}

/// Run `kernel` compiled for the level [`engine_isa()`] reports: AVX-512
/// (`avx512f`, `avx512bw`, `avx2`, `fma`), AVX2 (`avx2`, `fma`) or the
/// baseline target. Each call site is compiled once per level, and LLVM
/// vectorizes each copy at its width.
///
/// This is safe to call: it never enables more than the probe verified.
/// The integer and IEEE operations a body uses round the same at every
/// width (`mul_add` is a fused multiply-add, with or without the `fma`
/// feature), so each level gives the bits of the portable loop.
#[inline]
pub fn dispatch<K: Kernel>(kernel: K) -> K::Out {
    match engine_isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `engine_isa() <= isa()`, and `isa()` reports
        // `Avx512` or above only after the probe verified `avx2`, `fma`,
        // `avx512f` and `avx512bw`.
        Isa::Avx512 | Isa::Avx512Vnni | Isa::Amx => unsafe { at_avx512(kernel) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above; `Avx2` means the probe verified `avx2` and `fma`.
        Isa::Avx2 => unsafe { at_avx2(kernel) },
        _ => kernel.run(),
    }
}

/// Run `check` once under [`cap_scope`]`(level)` for every level this
/// thread can run, lowest first, and report the levels once per `name` on
/// standard error, past the test harness's output capture, loudly when
/// the AMX level cannot run here. The level-parity tests of the engine
/// and of every dispatched row kernel use it.
pub fn for_each_level(name: &str, mut check: impl FnMut(Isa)) {
    static REPORTED: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let top = engine_isa();
    let levels: Vec<Isa> = [
        Isa::Scalar,
        Isa::Avx2,
        Isa::Avx512,
        Isa::Avx512Vnni,
        Isa::Amx,
    ]
    .into_iter()
    .filter(|&l| l <= top)
    .collect();
    let mut reported = REPORTED.lock().unwrap_or_else(|e| e.into_inner());
    if !reported.iter().any(|n| n == name) {
        reported.push(name.to_string());
        let mut line = format!("{name}: levels {levels:?}");
        if top < Isa::Amx {
            line += &format!(" !!! Isa::Amx SKIPPED, this host tops out at {top:?} !!!");
        }
        let _ = writeln!(std::io::stderr(), "{line}");
    }
    drop(reported);
    for level in levels {
        let _cap = cap_scope(level);
        check(level);
    }
}

/// Name of the level [`dispatch`] picks on this thread: `"avx512"`,
/// `"avx2"` or `"scalar"`.
pub fn dispatch_name() -> &'static str {
    match engine_isa() {
        Isa::Avx512 | Isa::Avx512Vnni | Isa::Amx => "avx512",
        Isa::Avx2 => "avx2",
        Isa::Scalar => "scalar",
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx2,fma")]
unsafe fn at_avx512<K: Kernel>(kernel: K) -> K::Out {
    kernel.run()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn at_avx2<K: Kernel>(kernel: K) -> K::Out {
    kernel.run()
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
