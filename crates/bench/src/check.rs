//! The CI perf-regression gate behind `bench_int8 --check-against`.
//!
//! A checked-in `BENCH_baseline.json` records the best-of-reps throughput
//! of the machine that produced it; the gate re-measures and fails when a
//! tracked metric regresses past `tolerance` (e.g. `0.8` = fail below 80%
//! of baseline throughput, or above 1/0.8 of a baseline time). Best-of-N
//! measurement on both sides keeps the gate noise-tolerant; the tolerance
//! absorbs the rest.
//!
//! The snapshot files are flat, machine-written JSON, so a dependency-free
//! key scanner ([`json_number`], [`json_string`]) is all the parsing the
//! gate needs.

/// Extract the first number following `"key":` in a JSON document.
///
/// Minimal by design: the snapshot files are generated by `bench_int8`
/// itself (flat objects, no escaped quotes in keys), so a substring scan
/// is exact enough — and keeps the gate free of external dependencies.
pub fn json_number(doc: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let pos = doc.find(&pat)? + pat.len();
    let rest = doc[pos..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extract the string following `"key":` in a JSON document (same minimal
/// contract as [`json_number`]: machine-written flat snapshots, no escaped
/// quotes).
pub fn json_string<'a>(doc: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let pos = doc.find(&pat)? + pat.len();
    let rest = doc[pos..].trim_start().strip_prefix('"')?;
    rest.split('"').next()
}

/// One gated metric: the fresh measurement vs its baseline value.
#[derive(Clone, Debug)]
pub struct GateMetric {
    /// Metric name as it appears in the snapshot JSON.
    pub name: &'static str,
    /// Freshly measured value.
    pub current: f64,
    /// Checked-in baseline value.
    pub baseline: f64,
    /// `true` for throughputs (GOPS, Gres/s), `false` for times (ms).
    pub higher_is_better: bool,
}

impl GateMetric {
    /// Whether the metric passes at the given tolerance (`0 < t <= 1`).
    pub fn passes(&self, tolerance: f64) -> bool {
        if self.higher_is_better {
            self.current >= self.baseline * tolerance
        } else {
            self.current <= self.baseline / tolerance
        }
    }
}

/// Evaluate every metric; returns human-readable failure lines (empty =
/// gate passes).
pub fn check_regressions(metrics: &[GateMetric], tolerance: f64) -> Vec<String> {
    assert!(
        tolerance > 0.0 && tolerance <= 1.0,
        "tolerance must be in (0, 1]"
    );
    metrics
        .iter()
        .filter(|m| !m.passes(tolerance))
        .map(|m| {
            let (dir, bound) = if m.higher_is_better {
                ("below", m.baseline * tolerance)
            } else {
                ("above", m.baseline / tolerance)
            };
            format!(
                "PERF REGRESSION: {} = {:.3} is {dir} the gate {:.3} (baseline {:.3}, tolerance {tolerance})",
                m.name, m.current, bound, m.baseline
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
  "shape": [512, 512, 512],
  "blocked_gops": 117.302,
  "convert": { "fused_1t_gres_per_s": 2.35, "speedup_1t": 60.51 },
  "pipeline": { "end_to_end_ms": 45.6, "neg": -1.5e-3 }
}"#;

    #[test]
    fn json_number_extracts_nested_and_scientific() {
        assert_eq!(json_number(DOC, "blocked_gops"), Some(117.302));
        assert_eq!(json_number(DOC, "fused_1t_gres_per_s"), Some(2.35));
        assert_eq!(json_number(DOC, "end_to_end_ms"), Some(45.6));
        assert_eq!(json_number(DOC, "neg"), Some(-1.5e-3));
        assert_eq!(json_number(DOC, "missing"), None);
    }

    #[test]
    fn json_string_extracts_kernel_names() {
        let doc = r#"{ "shape": [512, 512], "microkernel": "avx512-vnni", "kernel": "scalar" }"#;
        assert_eq!(json_string(doc, "microkernel"), Some("avx512-vnni"));
        assert_eq!(json_string(doc, "kernel"), Some("scalar"));
        assert_eq!(json_string(doc, "missing"), None);
        assert_eq!(json_string(doc, "shape"), None); // non-string value
    }

    #[test]
    fn gate_passes_on_baseline_and_fails_on_2x_regression() {
        let mk = |current, baseline, hib| GateMetric {
            name: "m",
            current,
            baseline,
            higher_is_better: hib,
        };
        // Identical measurement: passes at any tolerance.
        assert!(check_regressions(&[mk(100.0, 100.0, true)], 0.8).is_empty());
        assert!(check_regressions(&[mk(50.0, 50.0, false)], 0.8).is_empty());
        // Mild noise inside the tolerance band: passes.
        assert!(check_regressions(&[mk(85.0, 100.0, true)], 0.8).is_empty());
        assert!(check_regressions(&[mk(60.0, 50.0, false)], 0.8).is_empty());
        // A synthetic 2x regression: fails both directions.
        assert_eq!(check_regressions(&[mk(50.0, 100.0, true)], 0.8).len(), 1);
        assert_eq!(check_regressions(&[mk(100.0, 50.0, false)], 0.8).len(), 1);
        // Improvement never fails.
        assert!(check_regressions(&[mk(200.0, 100.0, true)], 0.8).is_empty());
        assert!(check_regressions(&[mk(25.0, 50.0, false)], 0.8).is_empty());
    }

    #[test]
    fn failure_message_names_metric_and_bound() {
        let fails = check_regressions(
            &[GateMetric {
                name: "blocked_gops",
                current: 50.0,
                baseline: 100.0,
                higher_is_better: true,
            }],
            0.8,
        );
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("blocked_gops"));
        assert!(fails[0].contains("80.000"));
    }
}
