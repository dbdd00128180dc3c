//! Bench-regression comparison: fresh experiment records vs committed
//! baselines.
//!
//! Every column of the committed `BENCH_*.json` records is modeled: it is
//! read off the seeded simulated clock, not measured on the host, so a
//! rerun of the same sweep reproduces it digit for digit.  The
//! `bench_check` binary re-reads a freshly generated record from
//! `target/experiments/` and fails CI when any value of any baseline row
//! moves at all — counts must match exactly and every other value within
//! [`EXACT_RELATIVE`] (float rounding).  A baseline changes only by
//! explicit regeneration (`SPECASR_WRITE_BASELINE=1`), never by drifting
//! inside a band.

use specasr_metrics::{ExperimentRecord, ReportRow};

/// Relative difference a non-count value may show and still match its
/// baseline: rounding noise only.
pub const EXACT_RELATIVE: f64 = 1e-9;

/// One baseline value the fresh record does not reproduce, or a row that
/// disappeared from the fresh record.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// The baseline row has no counterpart in the fresh record.
    MissingRow {
        /// The baseline row label.
        label: String,
    },
    /// The baseline row carries a metric the fresh row dropped.
    MissingMetric {
        /// The row label.
        label: String,
        /// The metric name.
        metric: String,
    },
    /// A metric moved away from its baseline value.
    Drift {
        /// The row label.
        label: String,
        /// The metric name.
        metric: String,
        /// The committed baseline value.
        baseline: f64,
        /// The freshly measured value.
        fresh: f64,
        /// `(fresh - baseline) / baseline`.
        relative: f64,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::MissingRow { label } => {
                write!(f, "row `{label}` is missing from the fresh record")
            }
            Violation::MissingMetric { label, metric } => {
                write!(f, "row `{label}` lost metric `{metric}`")
            }
            Violation::Drift {
                label,
                metric,
                baseline,
                fresh,
                relative,
            } => write!(
                f,
                "row `{label}` metric `{metric}` moved {:+.3e}% (baseline {baseline}, fresh \
                 {fresh})",
                relative * 100.0
            ),
        }
    }
}

/// Whether `fresh` reproduces `baseline`: exactly for a count (an integral
/// baseline value), within [`EXACT_RELATIVE`] for anything else.
fn reproduces(baseline: f64, fresh: f64) -> bool {
    if baseline.fract() == 0.0 {
        fresh == baseline
    } else {
        (fresh - baseline).abs() <= EXACT_RELATIVE * baseline.abs()
    }
}

/// `(fresh - baseline) / |baseline|`, with a zero baseline scaled by
/// `f64::EPSILON`.
fn relative(baseline: f64, fresh: f64) -> f64 {
    (fresh - baseline) / baseline.abs().max(f64::EPSILON)
}

/// Compares a fresh record against its committed baseline.
///
/// Every baseline row must still exist, keep every metric, and reproduce
/// each value (see [`EXACT_RELATIVE`]).  Rows or metrics that only exist in
/// the fresh record are fine — adding coverage is not a regression.
///
/// # Example
///
/// ```
/// use specasr_bench::regression::compare_records;
/// use specasr_metrics::{ExperimentRecord, ReportRow};
///
/// let baseline = ExperimentRecord::new("x", "t")
///     .with_row(ReportRow::new("a").with("throughput_utps", 10.5));
/// assert!(compare_records(&baseline, &baseline.clone()).is_empty());
/// let fresh = ExperimentRecord::new("x", "t")
///     .with_row(ReportRow::new("a").with("throughput_utps", 10.6));
/// assert_eq!(compare_records(&baseline, &fresh).len(), 1);
/// ```
pub fn compare_records(baseline: &ExperimentRecord, fresh: &ExperimentRecord) -> Vec<Violation> {
    let mut violations = Vec::new();
    for base_row in &baseline.rows {
        let Some(fresh_row) = fresh.row(&base_row.label) else {
            violations.push(Violation::MissingRow {
                label: base_row.label.clone(),
            });
            continue;
        };
        for (metric, &base_value) in &base_row.values {
            match fresh_row.value(metric) {
                None => violations.push(Violation::MissingMetric {
                    label: base_row.label.clone(),
                    metric: metric.clone(),
                }),
                Some(fresh_value) if !reproduces(base_value, fresh_value) => {
                    violations.push(Violation::Drift {
                        label: base_row.label.clone(),
                        metric: metric.clone(),
                        baseline: base_value,
                        fresh: fresh_value,
                        relative: relative(base_value, fresh_value),
                    })
                }
                Some(_) => {}
            }
        }
    }
    violations
}

/// Formats the full diagnostic table of one breached row: every metric the
/// baseline row carries, with its baseline value, current value, relative
/// delta, and a per-metric verdict (`ok` / `DRIFT` / `MISSING`).
///
/// `bench_check` prints this for each row with at least one violation, so a
/// gate breach shows the whole row's health at a glance instead of only the
/// first metric that moved.  `fresh_row` is `None` when the row vanished
/// from the fresh record entirely.
pub fn breach_table(base_row: &ReportRow, fresh_row: Option<&ReportRow>) -> String {
    let mut lines = vec![format!(
        "{:<26} {:>18} {:>18} {:>11}  status",
        "metric", "baseline", "current", "delta"
    )];
    for (metric, &base_value) in &base_row.values {
        match fresh_row.and_then(|row| row.value(metric)) {
            None => lines.push(format!(
                "{metric:<26} {base_value:>18.6} {:>18} {:>11}  MISSING",
                "-", "-"
            )),
            Some(fresh_value) => {
                let status = if reproduces(base_value, fresh_value) {
                    "ok"
                } else {
                    "DRIFT"
                };
                lines.push(format!(
                    "{metric:<26} {base_value:>18.6} {fresh_value:>18.6} {:>+10.3}%  {status}",
                    relative(base_value, fresh_value) * 100.0
                ));
            }
        }
    }
    lines.join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(throughput: f64, p99: f64) -> ExperimentRecord {
        ExperimentRecord::new("serve", "t").with_row(
            ReportRow::new("w1@q10")
                .with("throughput_utps", throughput)
                .with("e2e_p99_ms", p99)
                .with("completed", 64.0),
        )
    }

    /// The violations of a one-row, one-metric record moved from `base` to
    /// `fresh`.
    fn moved(metric: &str, base: f64, fresh: f64) -> Vec<Violation> {
        let row = |value| {
            ExperimentRecord::new("serve", "t").with_row(ReportRow::new("cell").with(metric, value))
        };
        compare_records(&row(base), &row(fresh))
    }

    #[test]
    fn identical_records_pass() {
        let base = record(20.5, 900.25);
        assert!(compare_records(&base, &base.clone()).is_empty());
    }

    #[test]
    fn rounding_noise_passes_while_counts_match_exactly() {
        // Float rounding below the exact band is not a change.
        let base = record(20.5, 900.25);
        let fresh = record(20.5 * (1.0 + 1e-12), 900.25 * (1.0 - 1e-12));
        assert!(compare_records(&base, &fresh).is_empty());
        // A count (integral baseline) allows no slack at all.
        let violations = moved("completed", 64.0, 64.0 * (1.0 + 1e-12));
        assert_eq!(violations.len(), 1);
        assert!(violations[0].to_string().contains("completed"));
        // No column is exempt: any named metric is compared.
        assert_eq!(moved("some_new_column", 1.25, 1.26).len(), 1);
    }

    #[test]
    fn drift_beyond_tolerance_fails_in_both_directions() {
        let base = record(20.5, 900.25);
        let slow = record(20.5 * (1.0 - 1e-6), 900.25);
        let violations = compare_records(&base, &slow);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].to_string().contains("throughput_utps"));
        assert!(violations[0].to_string().contains("-1.000e-4%"));

        let spiky = record(20.5, 900.25 * (1.0 + 1e-6));
        let violations = compare_records(&base, &spiky);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].to_string().contains("e2e_p99_ms"));
    }

    #[test]
    fn missing_rows_and_metrics_are_violations() {
        let base = record(20.5, 900.25);
        let empty = ExperimentRecord::new("serve", "t");
        assert_eq!(
            compare_records(&base, &empty),
            vec![Violation::MissingRow {
                label: "w1@q10".into()
            }]
        );

        let mut gutted = record(20.5, 900.25);
        gutted.rows[0].values.remove("e2e_p99_ms");
        let violations = compare_records(&base, &gutted);
        assert_eq!(
            violations,
            vec![Violation::MissingMetric {
                label: "w1@q10".into(),
                metric: "e2e_p99_ms".into()
            }]
        );
    }

    #[test]
    fn breach_table_reports_every_gated_metric_with_verdicts() {
        let base = record(20.5, 900.25);
        let fresh = record(20.5 * 0.8, 900.25);
        let table = breach_table(&base.rows[0], fresh.row("w1@q10"));
        let lines: Vec<&str> = table.lines().collect();
        // Header + every metric the row carries, in column order.
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("baseline") && lines[0].contains("delta"));
        assert!(lines[1].contains("completed") && lines[1].ends_with("ok"));
        assert!(lines[2].contains("e2e_p99_ms") && lines[2].ends_with("ok"));
        assert!(lines[3].contains("throughput_utps"));
        assert!(lines[3].contains("-20.000%"));
        assert!(lines[3].ends_with("DRIFT"));
    }

    #[test]
    fn breach_table_marks_missing_metrics_and_rows() {
        let base = record(20.5, 900.25);
        let mut gutted = record(20.5, 900.25);
        gutted.rows[0].values.remove("e2e_p99_ms");
        let table = breach_table(&base.rows[0], gutted.row("w1@q10"));
        assert!(table
            .lines()
            .any(|l| l.contains("e2e_p99_ms") && l.ends_with("MISSING")));

        let vanished = breach_table(&base.rows[0], None);
        assert!(vanished
            .lines()
            .skip(1)
            .all(|line| line.ends_with("MISSING")));
    }

    #[test]
    fn memory_metrics_are_gated_when_present() {
        // A silent growth in peak occupancy is a memory regression even
        // when throughput holds, and a zero-preemption baseline must stay
        // at zero.
        assert_eq!(moved("peak_kv_blocks", 120.0, 121.0).len(), 1);
        assert_eq!(moved("preemptions", 0.0, 1.0).len(), 1);
        assert!(moved("preemptions", 0.0, 0.0).is_empty());
    }

    #[test]
    fn streaming_metrics_are_gated_when_present() {
        // A commit rule that makes partials flickier moves the retraction
        // rate even when first-partial latency holds.
        assert_eq!(moved("retraction_rate", 0.10, 0.1001).len(), 1);
        assert_eq!(moved("first_partial_p99_ms", 400.5, 400.6).len(), 1);
    }

    #[test]
    fn backend_occupancy_is_gated_when_present() {
        // A scheduler that groups verification differently moves the mean
        // requests per backend batch even when throughput holds.
        let violations = moved("backend_batch_occupancy", 3.8068, 3.9645);
        assert_eq!(violations.len(), 1);
        assert!(violations[0]
            .to_string()
            .contains("backend_batch_occupancy"));
    }

    #[test]
    fn rejected_draft_waste_is_gated_when_present() {
        let violations = moved("rejected_draft_device_ms", 40.25, 40.5);
        assert_eq!(violations.len(), 1);
        assert!(violations[0]
            .to_string()
            .contains("rejected_draft_device_ms"));
    }

    #[test]
    fn migrations_and_goodput_are_gated_when_present() {
        let base = ExperimentRecord::new("serve_elastic", "t").with_row(
            ReportRow::new("drain-migrate@q60")
                .with("throughput_utps", 55.25)
                .with("migrations", 8.0)
                .with("goodput_utps", 55.25),
        );
        // A drain that migrates one session fewer fails the gate even when
        // throughput holds, and so does a scaling change that converts
        // in-budget completions into late ones.
        let degraded = ExperimentRecord::new("serve_elastic", "t").with_row(
            ReportRow::new("drain-migrate@q60")
                .with("throughput_utps", 55.25)
                .with("migrations", 7.0)
                .with("goodput_utps", 55.0),
        );
        let violations = compare_records(&base, &degraded);
        assert_eq!(violations.len(), 2);
        let rendered: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
        assert!(rendered.iter().any(|line| line.contains("migrations")));
        assert!(rendered.iter().any(|line| line.contains("goodput_utps")));
    }

    #[test]
    fn extra_fresh_rows_are_not_violations() {
        let base = record(20.5, 900.25);
        let fresh = record(20.5, 900.25)
            .with_row(ReportRow::new("brand-new-cell").with("throughput_utps", 1.0));
        assert!(compare_records(&base, &fresh).is_empty());
    }
}
