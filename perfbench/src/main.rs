//! The repository's benchmark: four named workloads run through the
//! public API of the emulation stack, every output checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <dgemm_square|sgemm_deepk|dgemm_rankk|serve_mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ledger (see `README.md` for every metric and the layer it belongs to).
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the process exits
//! non-zero when any output check failed.

mod gemm;
mod layers;
mod serve;
mod stats;

use stats::Part;

/// End-to-end metrics (`--trace 0`), the same set on every workload.
pub const END_TO_END: &[&str] = &["speedup_vs_native", "rel_err", "setup_s", "peak_rss_mb"];

/// Per-layer metrics (`--trace 1`), the same set on every workload.
pub const PER_LAYER: &[&str] = &[
    "engine.plane_gops",
    "engine.peak_gops",
    "engine.frac_of_peak",
    "engine.ops",
    "ozaki2.call_ms_p50",
    "ozaki2.call_ms_p90",
    "ozaki2.gflops",
    "ozaki2.scale_ms",
    "ozaki2.trunc_ms",
    "ozaki2.convert_ms",
    "ozaki2.gemm_ms",
    "ozaki2.mod_ms",
    "ozaki2.fold_ms",
    "ozaki2.unattributed_ms",
    "ozaki2.gemm_share",
    "ozaki2.front_share",
    "ozaki2.foldmod_share",
    "ozaki2.workspace_mb",
    "ozaki2.scale_frac_of_stream",
    "ozaki2.convert_frac_of_stream",
    "ozaki2.fold_frac_of_stream",
    "mem.stream_gbps_dram",
    "mem.stream_gbps_l2",
    "native.call_ms_p50",
    "batch.round_ms_p50",
    "batch.cache_hit_rate",
    "batch.cache_misses",
    "serve.req_ms_p50",
    "serve.req_ms_p99",
    "serve.req_per_s",
    "serve.coalesce_rate",
    "serve.rounds",
    "serve.peak_queue_depth",
    "serve.shed",
    "serve.submit_ms_p99",
    "serve.hit_tenant_ms_p50",
    "serve.miss_tenant_ms_p50",
    "serve.large_ms_p50",
    "pool.tasks",
    "pool.steals",
    "pool.parks",
    "gen.late_ms_p99",
    "trace.overhead_pct",
];

/// One run's settings, all from the command line.
#[derive(Clone, Copy, Debug)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub workers: usize,
    /// Set in the processes an untraced run is split into.
    pub part: Option<usize>,
}

const WORKLOADS: &[&str] = &["dgemm_square", "sgemm_deepk", "dgemm_rankk", "serve_mixed"];

/// Processes an untraced run is split into; each measures an equal share
/// of `--seconds`.
const PARTS: usize = 4;

const USAGE: &str =
    "usage: perfbench --workload <dgemm_square|sgemm_deepk|dgemm_rankk|serve_mixed> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<(String, Ctx), String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut part) = (None, None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(bad("unknown workload")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--part" => match value.parse::<usize>() {
                Ok(i) if i < PARTS => part = Some(i),
                _ => return Err(bad("expected a part index")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2);
    Ok((
        workload.ok_or("--workload is required")?,
        Ctx {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            workers,
            part,
        },
    ))
}

/// Run the parts of an untraced run one after another, each in its own
/// process, and collect what they measured.
fn run_parts(args: &[String], ctx: &Ctx) -> Vec<Part> {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut args = args.to_vec();
    if let Some(i) = args.iter().position(|a| a == "--seconds") {
        args[i + 1] = (ctx.seconds / PARTS as f64).to_string();
    }
    (0..PARTS)
        .map(|i| {
            let out = std::process::Command::new(&exe)
                .args(&args)
                .args(["--part", &i.to_string()])
                .stderr(std::process::Stdio::inherit())
                .output()
                .expect("start a part");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or_default();
            for line in stdout.lines().filter(|l| *l != last) {
                println!("  [part {i}] {line}");
            }
            match Part::parse(last) {
                Some(p) if out.status.success() => p,
                _ => {
                    eprintln!("part {i} failed ({})", out.status);
                    std::process::exit(1);
                }
            }
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, ctx) = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    // Untraced unless a traced section arms it explicitly; OZAKI_OBS in
    // the environment must not leak into the end-to-end numbers.
    gemm_obs::set_enabled(false);
    rayon::set_num_threads(ctx.workers);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench {workload} seed={} seconds={} trace={} | microkernel={} trunc={} convert={} \
         mod={} fold={} nproc={nproc} workers={}",
        ctx.seed,
        ctx.seconds,
        ctx.trace as u8,
        gemm_engine::microkernel_name(),
        ozaki2::trunc_kernel_name(),
        ozaki2::convert_kernel_name(),
        gemm_engine::mod_kernel_name(),
        ozaki2::fold_kernel_name(),
        ctx.workers,
    );

    let (metrics, tally) = if ctx.trace {
        match workload.as_str() {
            "dgemm_square" => gemm::ledger::<f64>(&gemm::DGEMM_SQUARE, &ctx),
            "sgemm_deepk" => gemm::ledger::<f32>(&gemm::SGEMM_DEEPK, &ctx),
            "dgemm_rankk" => gemm::ledger::<f64>(&gemm::DGEMM_RANKK, &ctx),
            _ => serve::ledger(&ctx),
        }
    } else if let Some(i) = ctx.part {
        let part = match workload.as_str() {
            "dgemm_square" => gemm::part::<f64>(&gemm::DGEMM_SQUARE, &ctx, i),
            "sgemm_deepk" => gemm::part::<f32>(&gemm::SGEMM_DEEPK, &ctx, i),
            "dgemm_rankk" => gemm::part::<f64>(&gemm::DGEMM_RANKK, &ctx, i),
            _ => serve::part(&ctx, i),
        };
        println!("{}", part.to_line());
        return;
    } else {
        stats::end_to_end(&run_parts(&args, &ctx))
    };

    let mut expected = if ctx.trace { PER_LAYER } else { END_TO_END }.to_vec();
    let mut got: Vec<&str> = metrics.names().collect();
    expected.sort_unstable();
    got.sort_unstable();
    assert_eq!(
        got, expected,
        "metric set of {workload} (trace={})",
        ctx.trace
    );
    print!("{}", metrics.table());
    println!(
        "checks: {} attempted, {} failed (failed_frac {})",
        tally.attempted,
        tally.failed,
        tally.failed_frac()
    );
    println!("{}", metrics.result_json(&tally));
    if tally.failed > 0 {
        std::process::exit(1);
    }
}

/// Peak resident set of this process in MiB (`VmHWM`). Every part of a
/// run is a process of its own, so no other workload's memory is ever
/// counted.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn args_parse_and_reject() {
        let (w, c) = parse_args(&strings(&[
            "--workload",
            "dgemm_square",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(w, "dgemm_square");
        assert_eq!((c.seed, c.seconds, c.trace), (7, 10.0, true));
        assert!((1..=2).contains(&c.workers));
        for bad in [
            &["--seed", "x"][..],
            &["--trace", "2"],
            &["--seconds", "0"],
            &["--bogus", "1"],
            &["--seed"],
            &[
                "--workload",
                "dgemm_square",
                "--seed",
                "1",
                "--seconds",
                "1",
            ],
            &[
                "--workload",
                "w",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ],
            &["--part", "4"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn metric_lists_are_valid_and_distinct() {
        for list in [END_TO_END, PER_LAYER] {
            for (i, name) in list.iter().enumerate() {
                assert!(stats::valid_metric_name(name), "{name}");
                assert!(!list[..i].contains(name), "{name} listed twice");
            }
        }
    }

    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let listed = json.matches("\"unit\"").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        for name in END_TO_END.iter().chain(PER_LAYER) {
            assert!(json.contains(&format!("\"name\": \"{name}\"")), "{name}");
        }
    }
}
