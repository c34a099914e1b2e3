//! The benchmark's own arithmetic: order statistics, the interleaved
//! native/emulated ratio, failure accounting, and the result line.

/// Median of unsorted samples (mean of the two middle values for an even
/// count). Panics on an empty slice: every caller times at least one call.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let s = sorted(samples);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Nearest-rank percentile `p ∈ (0, 1]` of unsorted samples: the smallest
/// sample with at least `p · n` samples at or below it.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    sorted(samples)[rank(samples.len(), p)]
}

/// Samples strictly beyond the nearest-rank `p` percentile of `n`
/// samples. A tail percentile is only reported as such when this is at
/// least [`MIN_BEYOND`].
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank(n, p)
}

/// Minimum number of samples a reported tail percentile must have beyond
/// it.
pub const MIN_BEYOND: usize = 10;

fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Mean of the samples (`0` for none).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The headline ratio (`> 1` means emulation wins): the median over
/// interleaved rounds of `native / emulated`, each round timing the same
/// work both ways back to back. Taking the ratio per round, before the
/// median, cancels drift that lasts longer than a round.
pub fn interleaved_speedup(rounds: &[(f64, f64)]) -> f64 {
    let ratios: Vec<f64> = rounds.iter().map(|&(n, e)| n / e).collect();
    median(&ratios)
}

/// Attempted/failed accounting. Every output check, shed request and
/// error-bound violation is one `record(false)`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Count a check that is not an operation of its own (an error bound
    /// over a whole run): a violation fails one more operation, a pass
    /// adds nothing.
    pub fn fail_if(&mut self, violated: bool) {
        if violated {
            self.failed += 1;
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// What one process of an untraced run measured. An untraced run is
/// split over several processes so that the end-to-end numbers average
/// over process placement and memory layout, not only over time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Part {
    /// Interleaved `(native, emulated)` rounds.
    pub rounds: Vec<(f64, f64)>,
    /// Seconds of each cold set-up.
    pub setup_s: Vec<f64>,
    pub rss_mib: f64,
    /// Normwise error against the oracle; measured by one part only.
    pub rel_err: Option<f64>,
    pub tally: Tally,
}

impl Part {
    /// One line: `part <attempted> <failed> <rss> <rel_err|-> <#setups>
    /// <setup_s...> <native emulated>...`.
    pub fn to_line(&self) -> String {
        let mut f = vec![
            "part".to_string(),
            self.tally.attempted.to_string(),
            self.tally.failed.to_string(),
            self.rss_mib.to_string(),
            self.rel_err.map_or("-".into(), |e| e.to_string()),
            self.setup_s.len().to_string(),
        ];
        f.extend(self.setup_s.iter().map(f64::to_string));
        f.extend(
            self.rounds
                .iter()
                .flat_map(|&(n, e)| [n.to_string(), e.to_string()]),
        );
        f.join(" ")
    }

    /// Inverse of [`Part::to_line`]; `None` for anything else.
    pub fn parse(line: &str) -> Option<Part> {
        let mut it = line.split_whitespace();
        if it.next()? != "part" {
            return None;
        }
        let attempted = it.next()?.parse().ok()?;
        let failed = it.next()?.parse().ok()?;
        let rss_mib = it.next()?.parse().ok()?;
        let rel_err = match it.next()? {
            "-" => None,
            e => Some(e.parse().ok()?),
        };
        let n_setup: usize = it.next()?.parse().ok()?;
        let nums: Vec<f64> = it.map(str::parse).collect::<Result<_, _>>().ok()?;
        if nums.len() < n_setup || !(nums.len() - n_setup).is_multiple_of(2) {
            return None;
        }
        let (setup, rounds) = nums.split_at(n_setup);
        Some(Part {
            rounds: rounds.chunks(2).map(|r| (r[0], r[1])).collect(),
            setup_s: setup.to_vec(),
            rss_mib,
            rel_err,
            tally: Tally { attempted, failed },
        })
    }
}

/// The end-to-end metrics of a run from its parts: the speedup over all
/// rounds pooled, the median set-up and peak RSS, and the one measured
/// error.
pub fn end_to_end(parts: &[Part]) -> (Metrics, Tally) {
    let mut tally = Tally::default();
    for p in parts {
        tally.merge(p.tally);
    }
    let rounds: Vec<(f64, f64)> = parts
        .iter()
        .flat_map(|p| p.rounds.iter().copied())
        .collect();
    let setup: Vec<f64> = parts
        .iter()
        .flat_map(|p| p.setup_s.iter().copied())
        .collect();
    let rss: Vec<f64> = parts.iter().map(|p| p.rss_mib).collect();
    let rel_err = parts
        .iter()
        .find_map(|p| p.rel_err)
        .expect("one part measures the error");
    let mut out = Metrics::default();
    out.add("speedup_vs_native", interleaved_speedup(&rounds), "x");
    out.add("rel_err", rel_err, "ratio");
    out.add("setup_s", median(&setup), "s");
    out.add("peak_rss_mb", median(&rss), "MiB");
    (out, tally)
}

/// Whether `name` is a valid metric name: 1–64 characters of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Whether `unit` is a valid unit: 1–16 characters of
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(ok_char)
}

/// The metrics of one run, in insertion order.
#[derive(Default)]
pub struct Metrics {
    rows: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Add a metric. Panics on an invalid or repeated name or unit, or a
    /// non-finite value: those are bugs in the benchmark, not results.
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        assert!(valid_unit(unit), "invalid unit {unit:?}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.rows.iter().all(|(n, _, _)| n != name),
            "metric {name} reported twice"
        );
        self.rows.push((name.to_string(), value, unit));
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.rows.iter().map(|(n, _, _)| n.as_str())
    }

    /// One line per metric, for the human-readable part of the output.
    pub fn table(&self) -> String {
        self.rows
            .iter()
            .map(|(n, v, u)| match v.abs() {
                x if x != 0.0 && x < 1e-3 => format!("  {n:32} {v:>16.6e} {u}\n"),
                _ => format!("  {n:32} {v:>16.6} {u}\n"),
            })
            .collect()
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    /// Values print with every digit (`{}` on `f64` is the shortest
    /// representation that round-trips).
    pub fn result_json(&self, tally: &Tally) -> String {
        let metrics: Vec<String> = self
            .rows
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            tally.failed == 0,
            tally.attempted,
            tally.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // Nearest rank: p90 of 100 samples is the 90th, leaving 10 beyond.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.90), 90.0);
        assert_eq!(samples_beyond(100, 0.90), MIN_BEYOND);
        assert!(samples_beyond(99, 0.90) < MIN_BEYOND);
        // p99 needs 1000 samples.
        assert_eq!(samples_beyond(1000, 0.99), MIN_BEYOND);
        assert!(samples_beyond(999, 0.99) < MIN_BEYOND);
        assert_eq!(samples_beyond(0, 0.5), 0);
        // Order of the input does not matter.
        let rev: Vec<f64> = xs.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 0.90), 90.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn interleaved_ratio_is_median_of_round_ratios() {
        // The box slows 2x for the last two rounds; every round still
        // reads 1.5, and so does the speedup. The ratio of the medians
        // (7.5 / 6) would not.
        let rounds = [(6.0, 4.0), (6.0, 4.0), (6.0, 4.0), (12.0, 8.0), (12.0, 8.0)];
        assert_eq!(interleaved_speedup(&rounds), 1.5);
        // One disturbed round does not move the median.
        let rounds = [(6.0, 4.0), (60.0, 4.0), (6.0, 4.0)];
        assert_eq!(interleaved_speedup(&rounds), 1.5);
        assert_eq!(interleaved_speedup(&[(2.0, 4.0)]), 0.5);
    }

    #[test]
    fn failed_frac_accounting() {
        let mut t = Tally::default();
        assert_eq!(t.failed_frac(), 0.0);
        for ok in [true, true, false, true] {
            t.record(ok);
        }
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.failed_frac(), 0.25);
        t.fail_if(false);
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 1
            }
        );
        t.fail_if(true);
        assert_eq!(t.failed_frac(), 0.5);
        let mut m = Metrics::default();
        m.add("x", 1.0, "ms");
        assert!(m
            .result_json(&t)
            .starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 2,"));
    }

    #[test]
    fn metric_name_validity() {
        for ok in [
            "speedup_vs_native",
            "ozaki2.scale_ms",
            "pool.tasks",
            "a-b",
            "9x",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "é", "x\"", long.as_str()] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_unit("count/op") && valid_unit("%") && valid_unit("GB/s"));
        assert!(!valid_unit("") && !valid_unit("m s"));
    }

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.add("latency_ms_p50", 1.25, "ms");
        m.add("setup_s", 0.5, "s");
        let t = Tally {
            attempted: 3,
            failed: 0,
        };
        assert_eq!(
            m.result_json(&t),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms_p50\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn part_line_round_trips_and_aggregates() {
        let a = Part {
            rounds: vec![(6.0, 4.0), (3.0, 2.0)],
            setup_s: vec![0.25, 0.125, 0.5],
            rss_mib: 201.5,
            rel_err: Some(9.5e-17),
            tally: Tally {
                attempted: 40,
                failed: 0,
            },
        };
        let b = Part {
            rounds: vec![(0.1 + 0.2, 1.0)],
            setup_s: vec![],
            rss_mib: 199.0,
            rel_err: None,
            tally: Tally {
                attempted: 30,
                failed: 1,
            },
        };
        for p in [&a, &b] {
            assert_eq!(Part::parse(&p.to_line()).as_ref(), Some(p));
        }
        for bad in [
            "",
            "part",
            "part 1 0 2.0 - 3 0.1",
            "part 1 0 2.0 - 0 1.0",
            "x 1 0 2 - 0",
        ] {
            assert_eq!(Part::parse(bad), None, "{bad:?}");
        }
        let (m, t) = end_to_end(&[a, b]);
        assert_eq!(
            t,
            Tally {
                attempted: 70,
                failed: 1
            }
        );
        let json = m.result_json(&t);
        // Round ratios 1.5, 1.5, 0.3 -> 1.5; set-ups 0.125, 0.25, 0.5.
        assert!(
            json.contains("\"speedup_vs_native\": {\"value\": 1.5,"),
            "{json}"
        );
        assert!(json.contains("\"setup_s\": {\"value\": 0.25,"), "{json}");
        assert!(
            json.contains("\"peak_rss_mb\": {\"value\": 200.25,"),
            "{json}"
        );
        assert!(
            json.contains("\"rel_err\": {\"value\": 0.000000000000000095,"),
            "{json}"
        );
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn duplicate_metric_is_a_bug() {
        let mut m = Metrics::default();
        m.add("x", 1.0, "ms");
        m.add("x", 2.0, "ms");
    }
}
