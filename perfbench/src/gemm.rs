//! The three GEMM workloads: one caller, back-to-back `gemm_into` calls
//! on one reused `Workspace`, with native `gemm_dense` calls interleaved
//! in the same loop for the drift-cancelling speedup.

use crate::layers;
use crate::stats::{mean, median, samples_beyond, Metrics, Part, Tally, MIN_BEYOND};
use crate::{peak_rss_mib, Ctx};
use gemm_dense::workload::{phi_matrix_f32, phi_matrix_f64};
use gemm_dense::{Matrix, Philox4x32};
use gemm_exact::Dd;
use ozaki2::{Accuracy, EmulationReport, GemmArgs, Mode, Ozaki2, PhaseTimes, Workspace};
use std::hint::black_box;
use std::time::Instant;

/// A GEMM workload: shape, accuracy target, and how many emulated calls
/// run per interleaved native call (chosen so the native yardstick takes
/// at most about half of the loop, leaving ~100 emulated calls per traced
/// run for the p90).
pub struct GemmWorkload {
    pub m: usize,
    pub n: usize,
    pub k: usize,
    pub accuracy: Accuracy,
    pub emulated_per_native: usize,
}

/// The paper's DGEMM operating point (k = 1024, N = 15).
pub const DGEMM_SQUARE: GemmWorkload = GemmWorkload {
    m: 1024,
    n: 1024,
    k: 1024,
    accuracy: Accuracy::Fp64Equivalent,
    emulated_per_native: 4,
};

/// The paper's SGEMM claim on a deep inner dimension.
pub const SGEMM_DEEPK: GemmWorkload = GemmWorkload {
    m: 256,
    n: 256,
    k: 8192,
    accuracy: Accuracy::Fp32Equivalent,
    emulated_per_native: 1,
};

/// The rank-k trailing update of a blocked LU (`examples/hpl_lu.rs`).
pub const DGEMM_RANKK: GemmWorkload = GemmWorkload {
    m: 2048,
    n: 2048,
    k: 128,
    accuracy: Accuracy::Fp64Equivalent,
    emulated_per_native: 2,
};

/// Emulated cold set-ups per part; `setup_s` is the median over all
/// parts.
const SETUP_REPS: usize = 2;
/// Output entries checked against the double-double oracle.
const ORACLE_SAMPLES: usize = 4096;
/// Tail percentile of the GEMM workloads' call times.
pub const TAIL: f64 = 0.90;

/// The two element types the emulator serves.
pub trait Float: ozaki2::Element {
    /// Unit roundoff of the output format.
    const UNIT_ROUNDOFF: f64;
    fn phi(rows: usize, cols: usize, seed: u64, stream: u64) -> Matrix<Self>;
    fn native(a: &Matrix<Self>, b: &Matrix<Self>) -> Matrix<Self>;
    fn bits(self) -> u64;
}

impl Float for f64 {
    const UNIT_ROUNDOFF: f64 = f64::EPSILON / 2.0;
    fn phi(rows: usize, cols: usize, seed: u64, stream: u64) -> Matrix<f64> {
        phi_matrix_f64(rows, cols, 0.5, seed, stream)
    }
    fn native(a: &Matrix<f64>, b: &Matrix<f64>) -> Matrix<f64> {
        gemm_dense::gemm::gemm_f64(a, b)
    }
    fn bits(self) -> u64 {
        self.to_bits()
    }
}

impl Float for f32 {
    const UNIT_ROUNDOFF: f64 = f32::EPSILON as f64 / 2.0;
    fn phi(rows: usize, cols: usize, seed: u64, stream: u64) -> Matrix<f32> {
        phi_matrix_f32(rows, cols, 0.5, seed, stream)
    }
    fn native(a: &Matrix<f32>, b: &Matrix<f32>) -> Matrix<f32> {
        gemm_dense::gemm::gemm_f32(a, b)
    }
    fn bits(self) -> u64 {
        u64::from(self.to_bits())
    }
}

pub fn same_bits<T: Float>(x: &Matrix<T>, y: &Matrix<T>) -> bool {
    x.shape() == y.shape()
        && x.as_slice()
            .iter()
            .zip(y.as_slice())
            .all(|(a, b)| a.bits() == b.bits())
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Everything one timed loop recorded.
#[derive(Default)]
pub struct LoopSamples {
    /// Every emulated call, in ms.
    pub emulated_ms: Vec<f64>,
    /// Emulated calls made with observability armed (traced loops only).
    pub traced_ms: Vec<f64>,
    /// Emulated calls made with observability disarmed.
    pub untraced_ms: Vec<f64>,
    pub native_ms: Vec<f64>,
    /// Per round: the native call and the mean of the emulated calls
    /// just before it.
    pub rounds: Vec<(f64, f64)>,
    pub phases: Vec<PhaseTimes>,
    /// Pool counter deltas over the armed calls: (tasks, steals, parks).
    pub pool: (u64, u64, u64),
    pub tally: Tally,
}

/// Back-to-back `gemm_into` calls for `secs`, each checked bitwise
/// against `reference`, with one native call after every `per_native`
/// emulated calls. A traced loop arms observability on every other
/// emulated call, so traced and untraced calls interleave.
#[allow(clippy::too_many_arguments)]
pub fn timed_loop<T: Float>(
    emu: &Ozaki2,
    a: &Matrix<T>,
    b: &Matrix<T>,
    ws: &mut Workspace,
    c: &mut Matrix<T>,
    reference: &Matrix<T>,
    secs: f64,
    per_native: usize,
    trace: bool,
) -> LoopSamples {
    use gemm_obs::catalog::{POOL_PARKS, POOL_STEALS, POOL_TASKS};
    let mut s = LoopSamples::default();
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed().as_secs_f64() < secs {
        let armed = trace && i % 2 == 1;
        let before = (POOL_TASKS.value(), POOL_STEALS.value(), POOL_PARKS.value());
        gemm_obs::set_enabled(armed);
        let t0 = Instant::now();
        let rep = emu.gemm_into(GemmArgs::new(a, b).workspace(ws), c.view_mut());
        let ms = ms_since(t0);
        gemm_obs::set_enabled(false);
        if armed {
            s.pool.0 += POOL_TASKS.value() - before.0;
            s.pool.1 += POOL_STEALS.value() - before.1;
            s.pool.2 += POOL_PARKS.value() - before.2;
            s.traced_ms.push(ms);
        } else {
            s.untraced_ms.push(ms);
        }
        s.emulated_ms.push(ms);
        match rep {
            Ok(rep) => {
                s.phases.push(rep.phases);
                s.tally.record(same_bits(c, reference));
            }
            Err(e) => {
                eprintln!("emulated call failed: {e}");
                s.tally.record(false);
            }
        }
        i += 1;
        if i.is_multiple_of(per_native) {
            let t0 = Instant::now();
            black_box(T::native(black_box(a), black_box(b)));
            let native = ms_since(t0);
            s.native_ms.push(native);
            s.rounds
                .push((native, mean(&s.emulated_ms[i - per_native..])));
        }
    }
    s
}

/// Normwise errors of `c` against the double-double product on a seeded
/// sample of entries: `(frobenius, max_norm)`, i.e.
/// `‖ΔC‖_F / ‖C‖_F` and `max|ΔC| / max|C|` over the sample.
pub fn sampled_errors<T: Float>(
    pairs: &[(&Matrix<T>, &Matrix<T>, &Matrix<T>)],
    samples: usize,
    seed: u64,
) -> (f64, f64) {
    let mut rng = Philox4x32::new_stream(seed, 0x0e44);
    let (mut d2, mut e2, mut dmax, mut emax) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for _ in 0..samples {
        let (a, b, c) = pairs[rng.next_u32() as usize % pairs.len()];
        let (m, k) = a.shape();
        let i = rng.next_u32() as usize % m;
        let j = rng.next_u32() as usize % b.cols();
        let (a, b_col) = (a.as_slice(), b.col(j));
        let mut exact = Dd::from_f64(0.0);
        for (h, &bhj) in b_col.iter().enumerate().take(k) {
            exact = exact.fma_acc(a[i + h * m].to_f64(), bhj.to_f64());
        }
        let got = c.as_slice()[i + j * m].to_f64();
        let diff = Dd::from_f64(got).sub(exact).to_f64().abs();
        let e = exact.to_f64().abs();
        d2 += diff * diff;
        e2 += e * e;
        dmax = dmax.max(diff);
        emax = emax.max(e);
    }
    (
        (d2 / e2.max(f64::MIN_POSITIVE)).sqrt(),
        dmax / emax.max(f64::MIN_POSITIVE),
    )
}

/// The error a result may show: the emulator's a-priori bound
/// (`EmulationReport::predicted_error`, which models the exact integer
/// reconstruction) plus the rounding of every entry to the output format.
/// At small `k` the a-priori bound alone is below the f64 unit roundoff,
/// which no rounded result can meet.
pub fn error_bound<T: Float>(predicted: f64) -> f64 {
    predicted + T::UNIT_ROUNDOFF
}

/// Inputs, emulator, workspace and reference output after set-up.
struct Prepared<T: Float> {
    a: Matrix<T>,
    b: Matrix<T>,
    emu: Ozaki2,
    ws: Workspace,
    c: Matrix<T>,
    /// The output of the first cold call; every later call must match it
    /// bit for bit.
    reference: Matrix<T>,
    first: EmulationReport,
    setup_s: Vec<f64>,
    tally: Tally,
}

/// Generate the inputs and set up: build the emulator, a fresh workspace
/// and output, and make the first (cold) call. Set-up is repeated
/// [`SETUP_REPS`] times and the last one kept.
fn prepare<T: Float>(w: &GemmWorkload, ctx: &Ctx) -> Prepared<T> {
    let (m, n, k) = (w.m, w.n, w.k);
    let a = T::phi(m, k, ctx.seed, 0);
    let b = T::phi(k, n, ctx.seed, 1);
    let mut tally = Tally::default();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    let mut reference: Option<Matrix<T>> = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let emu = Ozaki2::builder()
            .accuracy(w.accuracy)
            .mode(Mode::Fast)
            .k(k)
            .workers(ctx.workers)
            .build()
            .expect("workload accuracy is reachable");
        let mut ws = Workspace::new();
        let mut c = Matrix::<T>::zeros(m, n);
        let rep = emu
            .gemm_into(GemmArgs::new(&a, &b).workspace(&mut ws), c.view_mut())
            .expect("workload inputs are valid");
        setup_s.push(t0.elapsed().as_secs_f64());
        tally.record(reference.as_ref().is_none_or(|r| same_bits(&c, r)));
        reference.get_or_insert_with(|| c.clone());
        state = Some((emu, ws, c, rep));
    }
    let (emu, ws, c, first) = state.expect("at least one set-up");
    println!(
        "{m}x{n}x{k} {} N={} predicted_error={:e}",
        if T::IS_F64 { "f64" } else { "f32" },
        first.n_moduli,
        first.predicted_error
    );
    Prepared {
        a,
        b,
        emu,
        ws,
        c,
        reference: reference.expect("at least one set-up"),
        first,
        setup_s,
        tally,
    }
}

impl<T: Float> Prepared<T> {
    fn measure(&mut self, per_native: usize, secs: f64, trace: bool) -> LoopSamples {
        let s = timed_loop(
            &self.emu,
            &self.a,
            &self.b,
            &mut self.ws,
            &mut self.c,
            &self.reference,
            secs,
            per_native,
            trace,
        );
        self.tally.merge(s.tally);
        println!(
            "{} emulated calls ({} beyond p90), {} native calls",
            s.emulated_ms.len(),
            samples_beyond(s.emulated_ms.len(), TAIL),
            s.native_ms.len()
        );
        s
    }
}

/// The traced run of a GEMM workload: the per-layer ledger.
pub fn ledger<T: Float>(w: &GemmWorkload, ctx: &Ctx) -> (Metrics, Tally) {
    let mut p = prepare::<T>(w, ctx);
    // The layer probes after the loop take about five seconds more.
    let s = p.measure(w.emulated_per_native, ctx.seconds * 0.9, true);
    if samples_beyond(s.emulated_ms.len(), TAIL) < MIN_BEYOND {
        eprintln!("warning: fewer than {MIN_BEYOND} calls beyond p90; run longer");
    }
    let mut out = Metrics::default();
    let shape = layers::Shape {
        m: w.m,
        n: w.n,
        k: w.k,
        n_moduli: p.first.n_moduli,
        elem_bytes: std::mem::size_of::<T>(),
    };
    layers::ledger_gemm(&mut out, &shape, &s, p.ws.bytes(), ctx);
    crate::serve::served_layers(&mut out, &mut p.tally, ctx);
    let overhead = median(&s.traced_ms) / median(&s.untraced_ms) - 1.0;
    layers::pool_and_overhead(&mut out, s.pool, s.traced_ms.len(), overhead);
    (out, p.tally)
}

/// One part of an untraced run of a GEMM workload. Part 0 also checks
/// the error against the double-double oracle.
pub fn part<T: Float>(w: &GemmWorkload, ctx: &Ctx, index: usize) -> Part {
    let mut p = prepare::<T>(w, ctx);
    let s = p.measure(w.emulated_per_native, ctx.seconds, false);
    let rel_err = (index == 0).then(|| {
        let (frob, maxnorm) =
            sampled_errors(&[(&p.a, &p.b, &p.reference)], ORACLE_SAMPLES, ctx.seed);
        let bound = error_bound::<T>(p.first.predicted_error);
        println!("rel_err {frob:e} (max-norm {maxnorm:e}) vs bound {bound:e}");
        p.tally.fail_if(!(frob <= bound && maxnorm <= bound));
        frob
    });
    Part {
        rounds: s.rounds,
        setup_s: p.setup_s,
        rss_mib: peak_rss_mib(),
        rel_err,
        tally: p.tally,
    }
}
