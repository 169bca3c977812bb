//! The metric tables and the numeric helpers the workloads share.
//!
//! The tables here are the names and units `BENCHMARK.json` declares, in
//! the same order; a test keeps the two in step. `METRICS.md` says which
//! end-to-end metric each per-layer metric should move, on which workload.

use std::collections::BTreeMap;
use std::time::Duration;

/// End-to-end metrics of an untraced run: every workload reports each.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ready_s", "s"),
    ("serve_rps", "1/s"),
    ("serve_p50_us", "us"),
    ("serve_p99_us", "us"),
    ("peak_rss_mb", "MB"),
    ("dedup_precision", "fraction"),
    ("dedup_recall", "fraction"),
    ("classify_micro_f1", "fraction"),
    ("defect_recall", "fraction"),
];

/// Per-layer metrics of a traced run. A layer a workload does not reach
/// reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("docgen.generate_ms", "ms"),
    ("docgen.seeds_rejected", "count"),
    ("extract.ms", "ms"),
    ("extract.tokenize_calls", "count"),
    ("extract.defects", "count"),
    ("dedup.ms", "ms"),
    ("dedup.tokenize_calls", "count"),
    ("dedup.comparisons_made", "count"),
    ("dedup.cascade_merges", "count"),
    ("classify.ms", "ms"),
    ("classify.tokenize_calls", "count"),
    ("classify.pattern_evals", "count"),
    ("classify.patterns_pruned", "count"),
    ("classify.auto_share", "fraction"),
    ("analysis.assist_ms", "ms"),
    ("analysis.report_ms", "ms"),
    ("analysis.entries_scanned", "count"),
    ("persist.jsonl.load_ms", "ms"),
    ("persist.jsonl.bytes", "bytes"),
    ("persist.binary.save_ms", "ms"),
    ("persist.binary.load_ms", "ms"),
    ("persist.binary.bytes", "bytes"),
    ("index.build_ms", "ms"),
    ("query.selective.exec_p50_us", "us"),
    ("query.selective.exec_p99_us", "us"),
    ("query.broad.exec_p50_us", "us"),
    ("query.broad.exec_p99_us", "us"),
    ("query.entries_scanned", "count"),
    ("query.postings_intersected", "count"),
    ("query.residual_checks", "count"),
    ("query.hit_ratio", "fraction"),
    ("query.battery_entries_scanned", "count"),
    ("serve.selective.route_p50_us", "us"),
    ("serve.selective.route_p99_us", "us"),
    ("serve.broad.route_p50_us", "us"),
    ("serve.broad.route_p99_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.body_bytes", "bytes"),
    ("serve.shed", "count"),
    ("serve.timeouts", "count"),
    ("par.busy_ms", "ms"),
    ("par.imbalance", "ratio"),
    ("trace.wall_ms", "ms"),
    ("trace.unattributed_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// Metric values by name.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Sets a metric's value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Names in `table` that have no value.
    pub fn missing(&self, table: &[(&'static str, &str)]) -> Vec<&'static str> {
        table
            .iter()
            .map(|&(name, _)| name)
            .filter(|name| !self.values.contains_key(name))
            .collect()
    }

    /// `{"name": {"value": v, "unit": u}, ...}` over `table`, in table
    /// order. An unset metric reads 0 (a layer the workload never reached).
    pub fn to_json(&self, table: &[(&str, &str)]) -> String {
        let fields: Vec<String> = table
            .iter()
            .map(|&(name, unit)| {
                let value = self.values.get(name).copied().unwrap_or(0.0);
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// The fastest of a run's samples. Outside load only ever slows a sample
/// down; for an operation of a few milliseconds with a long tail of such
/// slow samples, the fastest of many moves less from run to run than the
/// median does.
pub fn fastest(values: &[f64]) -> f64 {
    quantile(values, 0.0)
}

/// Nearest-rank quantile of a sample (0 for an empty one).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// `min … q10 … median … max` of a sample, scaled, for the stderr log.
pub fn spread(values: &[f64], scale: f64) -> String {
    let at = |q: f64| quantile(values, q) * scale;
    format!(
        "min {:.3} q10 {:.3} median {:.3} max {:.3}",
        at(0.0),
        at(0.1),
        at(0.5),
        at(1.0)
    )
}

/// Median of a sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile of durations, in microseconds (0 when empty).
pub fn quantile_us(sorted: &[Duration], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1].as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quantiles_use_the_nearest_rank() {
        let sample: Vec<Duration> = (1..=100).map(Duration::from_micros).collect();
        assert_eq!(quantile_us(&sample, 0.5), 50.0);
        assert_eq!(quantile_us(&sample, 0.99), 99.0);
    }

    #[test]
    fn fastest_and_quantile_use_the_nearest_rank() {
        let times: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(fastest(&times), 1.0);
        assert_eq!(quantile(&times, 0.1), 2.0);
        assert_eq!(quantile(&times, 1.0), 20.0);
        assert_eq!(fastest(&[]), 0.0);
    }

    #[test]
    fn json_keeps_every_digit_and_defaults_unset_layers_to_zero() {
        let mut metrics = Metrics::default();
        metrics.set("wall_s", 1.234_567_891_2);
        let json = metrics.to_json(&[("wall_s", "s"), ("extract.ms", "ms")]);
        assert_eq!(
            json,
            "{\"wall_s\": {\"value\": 1.2345678912, \"unit\": \"s\"}, \
             \"extract.ms\": {\"value\": 0.0, \"unit\": \"ms\"}}"
        );
    }
}
