//! Exact order statistics and the metric table the benchmark prints.

/// Nearest-rank percentile (`p` in `[0, 1]`) of `values`, computed exactly
/// from the samples (no sketch).  `0` for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (the mean of the two middle samples for an even
/// count).  `0` for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Arithmetic mean; `0` for an empty sample.
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, count) = values
        .into_iter()
        .fold((0.0, 0usize), |(sum, count), v| (sum + v, count + 1));
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// Which clock a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Seeded simulated device time: deterministic, repeats exactly.
    Modeled,
    /// `std::time::Instant` wall time of the control plane.
    Host,
    /// A count or ratio of events.
    Count,
}

impl Clock {
    fn label(self) -> &'static str {
        match self {
            Clock::Modeled => "modeled",
            Clock::Host => "host",
            Clock::Count => "count",
        }
    }
}

/// One measured metric.
#[derive(Debug, Clone)]
pub struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    samples: usize,
    clock: Clock,
}

/// The metrics of one run, in the order they were measured.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
}

impl Report {
    /// Records `name = value unit`, measured over `samples` samples.
    pub fn add(
        &mut self,
        name: &str,
        unit: &'static str,
        value: f64,
        samples: usize,
        clock: Clock,
    ) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
            clock,
        });
    }

    /// Prints every metric with its unit, clock and sample count.
    pub fn print_table(&self) {
        for metric in &self.metrics {
            println!(
                "{:<36} {:>16.4} {:<9} [{}, n={}]",
                metric.name,
                metric.value,
                metric.unit,
                metric.clock.label(),
                metric.samples
            );
        }
    }

    /// The result line: exactly the `declared` metrics, with their units.
    ///
    /// # Panics
    ///
    /// Panics if a declared metric was not measured or its unit differs —
    /// the declaration and the code have drifted apart.
    pub fn json_line(
        &self,
        declared: &[(&str, &str)],
        correct: bool,
        attempted: usize,
        failed: usize,
    ) -> String {
        let metrics: Vec<String> = declared
            .iter()
            .map(|(name, unit)| {
                let metric = self
                    .metrics
                    .iter()
                    .find(|metric| metric.name == *name)
                    .unwrap_or_else(|| panic!("declared metric {name} was not measured"));
                assert_eq!(metric.unit, *unit, "unit of {name}");
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    metric.value
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_exact() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.5), 500.0);
        assert_eq!(percentile(&values, 0.99), 990.0);
        assert_eq!(percentile(&values, 1.0), 1000.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn json_line_holds_exactly_the_declared_metrics() {
        let mut report = Report::default();
        report.add("a_ms", "ms", 1.25, 3, Clock::Modeled);
        report.add("extra", "count", 2.0, 1, Clock::Count);
        let line = report.json_line(&[("a_ms", "ms")], true, 10, 0);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
