//! The many-GEMM scheduler: inter-item vs intra-item parallelism.
//!
//! A large emulated GEMM saturates the machine from inside one call — the
//! INT8 engine splits `C` into per-worker column stripes and every core
//! streams packed panels at full tilt. A *small* GEMM cannot: its handful
//! of column panels splinters into stripes too thin to amortize the
//! fork/join, and most of the wall clock is latency, not compute. Batched
//! workloads dominated by small items are therefore better served by the
//! opposite assignment — one whole item per worker, engine stripes
//! disabled — which is exactly what batched BLAS implementations do.
//!
//! The crossover is picked from the plan-level arithmetic intensity
//! ([`ozaki2::arithmetic_intensity`], INT8 ops per byte of engine-phase
//! traffic): intensity grows linearly with the problem scale, so it is a
//! clean one-number proxy for "does one item have enough arithmetic to
//! feed every core". Items below [`INTENSITY_CROSSOVER`] run inter-item,
//! the rest intra-item, however many items the call has: a lone small
//! item runs sequentially on the caller, since a stripe split of it costs
//! more in pool regions than it saves (at `W = 2` a lone `64³` call took
//! 0.17–0.23 ms striped against 0.10–0.13 ms sequential; striping pays
//! from about `128³`). Either schedule produces **bit-identical** results
//! — stripe splits never change the accumulation order of any output
//! element, and workers own disjoint items — so the choice is purely a
//! throughput knob.

use ozaki2::arithmetic_intensity;

/// Intensity (INT8 ops / byte) above which one item saturates the engine
/// with intra-GEMM stripes. At `N = 15` a cube crosses this near
/// `m = n = k ≈ 150`; the service-sized `64³` sits at ~13 ops/byte (runs
/// inter-item), the compute-bound `256³` at ~54 (runs intra-item).
pub const INTENSITY_CROSSOVER: f64 = 32.0;

/// How a batched call distributes its items over workers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// One rayon task per item, engine stripes disabled: small items.
    InterItem,
    /// Items run one after another, each striped across workers inside
    /// the engine: large items.
    IntraItem,
}

impl Schedule {
    /// Choose the schedule for products of shape `m x k · k x n` at
    /// `n_moduli`, given `workers` available threads.
    pub fn choose_with(m: usize, n: usize, k: usize, n_moduli: usize, workers: usize) -> Schedule {
        if workers < 2 {
            // No one to spread over: run plainly on the single worker.
            return Schedule::IntraItem;
        }
        if arithmetic_intensity(m, n, k, n_moduli) < INTENSITY_CROSSOVER {
            Schedule::InterItem
        } else {
            Schedule::IntraItem
        }
    }

    /// Whether per-item executions should enable the engine's internal
    /// stripe parallelism.
    pub fn intra_parallel(self) -> bool {
        matches!(self, Schedule::IntraItem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossover_separates_bench_shapes() {
        // The two shapes the batched benchmark records sit on opposite
        // sides of the crossover.
        assert_eq!(
            Schedule::choose_with(64, 64, 64, 15, 8),
            Schedule::InterItem
        );
        assert_eq!(
            Schedule::choose_with(256, 256, 256, 15, 8),
            Schedule::IntraItem
        );
    }

    #[test]
    fn degenerate_batches_run_intra() {
        // A lone item is scheduled by its intensity like any other: a
        // small one runs sequentially, a large one striped.
        assert_eq!(
            Schedule::choose_with(64, 64, 64, 15, 8),
            Schedule::InterItem
        );
        assert_eq!(
            Schedule::choose_with(64, 64, 64, 15, 1),
            Schedule::IntraItem
        );
        // Empty shapes have zero intensity → inter (and no work anyway).
        assert_eq!(Schedule::choose_with(0, 64, 64, 15, 8), Schedule::InterItem);
    }

    #[test]
    fn intensity_is_monotone_in_scale() {
        let mut last = 0.0;
        for s in [16usize, 64, 256, 1024] {
            let i = arithmetic_intensity(s, s, s, 15);
            assert!(i > last, "intensity must grow with scale");
            last = i;
        }
    }
}
