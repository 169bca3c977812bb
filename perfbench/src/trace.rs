//! The traced run's recorder.
//!
//! Work is cut into units: a set-up, a batch pass, a daemon start, one
//! sweep of the request mix. A traced unit turns observability on, opens a
//! `bench.*` root span, and each call into a layer inside it opens a child
//! span from this crate and reads the crates' counters through
//! `rememberr_obs::snapshot()` before and after the call. Spans stay in
//! memory until [`Tracer::finish`] writes them out once as a Chrome trace.
//!
//! The primary unit is the one whose wall time is `wall_s`, a pass; in a
//! traced run primary units alternate between
//! traced and untraced, and the difference of their medians is the
//! tracing overhead.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use rememberr_obs::{Snapshot, SpanRecord};

use crate::metrics::{median, Metrics, PER_LAYER};

/// The share of a traced unit's wall time that may fall outside every
/// layer span before the run counts the attribution as broken.
pub const UNATTRIBUTED_TOLERANCE_PCT: f64 = 5.0;

/// Counter movement across one layer call (all zero when untraced).
#[derive(Debug, Default)]
pub struct Delta {
    before: Snapshot,
    after: Snapshot,
}

impl Delta {
    /// How far the named counter moved during the call.
    pub fn counter(&self, name: &str) -> f64 {
        let at = |s: &Snapshot| s.counters.get(name).copied().unwrap_or(0);
        at(&self.after).saturating_sub(at(&self.before)) as f64
    }

    fn worker_busy(&self) -> BTreeMap<String, u64> {
        self.after
            .par
            .iter()
            .map(|(name, w)| {
                let before = self.before.par.get(name).map_or(0, |b| b.busy_ns);
                (name.clone(), w.busy_ns.saturating_sub(before))
            })
            .collect()
    }
}

/// Records layer calls in traced units; a no-op recorder when untraced.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    in_traced_unit: bool,
    in_primary_unit: bool,
    /// Metric values of the unit being run, summed over its calls.
    current: BTreeMap<&'static str, f64>,
    /// Per-worker busy nanoseconds of the primary unit being run.
    current_busy: BTreeMap<String, u64>,
    /// Each finished traced unit's values.
    units: Vec<BTreeMap<&'static str, f64>>,
    traced_walls: Vec<f64>,
    untraced_walls: Vec<f64>,
    /// Per-layer rows for the stderr table: span → (wall ns, busy ns).
    table: BTreeMap<&'static str, (u64, u64)>,
}

impl Tracer {
    /// A recorder for a traced (`enabled`) or untraced run.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            ..Tracer::default()
        }
    }

    /// Whether this is a traced run.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs one unit of work, traced when `traced` and the run is traced.
    /// Returns the unit's result and wall time in seconds.
    pub fn unit<T>(
        &mut self,
        root: &'static str,
        traced: bool,
        primary: bool,
        work: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, f64) {
        let traced = traced && self.enabled;
        if traced {
            rememberr_obs::enable();
        }
        self.in_traced_unit = traced;
        self.in_primary_unit = primary;
        let start = Instant::now();
        let out = {
            let _span = traced.then(|| rememberr_obs::span!(root));
            work(self)
        };
        let wall = start.elapsed().as_secs_f64();
        if traced {
            rememberr_obs::disable();
            let mut values = std::mem::take(&mut self.current);
            if primary {
                let busy = std::mem::take(&mut self.current_busy);
                let total: u64 = busy.values().sum();
                values.insert("par.busy_ms", total as f64 / 1e6);
                let (max, min) = (busy.values().max(), busy.values().min());
                if let (Some(&max), Some(&min)) = (max, min) {
                    if busy.len() >= 2 && min > 0 {
                        values.insert("par.imbalance", max as f64 / min as f64);
                    }
                }
                self.traced_walls.push(wall);
            }
            self.units.push(values);
        } else if primary {
            self.untraced_walls.push(wall);
        }
        self.in_traced_unit = false;
        (out, wall)
    }

    /// Runs one call into a layer. In a traced unit the call gets its own
    /// span, its wall time adds to `ms_metric` (if any), and the returned delta
    /// shows how the crates' counters moved.
    pub fn layer<T>(
        &mut self,
        span: &'static str,
        ms_metric: impl Into<Option<&'static str>>,
        call: impl FnOnce() -> T,
    ) -> (T, Delta) {
        if !self.in_traced_unit {
            return (call(), Delta::default());
        }
        // The counter reads sit inside the span, so the span tree accounts
        // for the recorder's own work; the layer's time excludes them.
        let (out, elapsed, delta) = {
            let _span = rememberr_obs::span!(span);
            let before = rememberr_obs::snapshot();
            let start = Instant::now();
            let out = call();
            let elapsed = start.elapsed();
            let after = rememberr_obs::snapshot();
            (out, elapsed, Delta { before, after })
        };
        if let Some(metric) = ms_metric.into() {
            self.add(metric, elapsed.as_secs_f64() * 1e3);
        }
        let busy = delta.worker_busy();
        let busy_total: u64 = busy.values().sum();
        let row = self.table.entry(span).or_default();
        row.0 += u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        row.1 += busy_total;
        if self.in_primary_unit {
            for (worker, ns) in busy {
                *self.current_busy.entry(worker).or_default() += ns;
            }
        }
        (out, delta)
    }

    /// Adds to a per-layer metric of the current traced unit.
    pub fn add(&mut self, metric: &'static str, value: f64) {
        if self.in_traced_unit {
            *self.current.entry(metric).or_default() += value;
        }
    }

    /// Sets a per-layer metric measured outside any unit (latency
    /// percentiles from timing loops, daemon totals).
    pub fn set(&mut self, metric: &'static str, value: f64) {
        if self.enabled {
            let mut values = BTreeMap::new();
            values.insert(metric, value);
            self.units.push(values);
        }
    }

    /// Writes the spans out once, prints the layer table to stderr, and
    /// fills the per-layer metrics: each is the median over the traced
    /// units that recorded it. Returns the unattributed share of traced
    /// wall time, in percent.
    ///
    /// # Errors
    ///
    /// Fails when the trace file cannot be written.
    pub fn finish(self, trace_file: &Path, metrics: &mut Metrics) -> Result<f64, String> {
        let spans = rememberr_obs::stitch_spans(rememberr_obs::take_spans());
        std::fs::write(trace_file, rememberr_obs::chrome_trace(&spans))
            .map_err(|e| format!("{}: {e}", trace_file.display()))?;

        for &(name, _) in PER_LAYER {
            let values: Vec<f64> = self
                .units
                .iter()
                .filter_map(|u| u.get(name).copied())
                .collect();
            if !values.is_empty() {
                metrics.set(name, median(&values));
            }
        }
        let (root_ns, self_ns) = bench_roots(&spans);
        let unattributed_pct = if root_ns == 0 {
            0.0
        } else {
            100.0 * self_ns as f64 / root_ns as f64
        };
        let traced = median(&self.traced_walls);
        let untraced = median(&self.untraced_walls);
        metrics.set("trace.wall_ms", traced * 1e3);
        metrics.set("trace.unattributed_pct", unattributed_pct);
        if untraced > 0.0 {
            metrics.set("trace.overhead_pct", 100.0 * (traced - untraced) / untraced);
        }

        let mut out = format!(
            "traced layers (wall ms and worker CPU ms summed over every traced call):\n\
             {:<16} {:>12} {:>12}\n",
            "span", "wall ms", "cpu ms"
        );
        for (span, (wall, busy)) in &self.table {
            out.push_str(&format!(
                "{span:<16} {:>12.3} {:>12.3}\n",
                *wall as f64 / 1e6,
                *busy as f64 / 1e6
            ));
        }
        out.push_str(&format!(
            "bench roots {:.3} ms, unattributed {:.3} ms ({unattributed_pct:.2}%); \
             primary unit {:.3} ms traced vs {:.3} ms untraced\n\n",
            root_ns as f64 / 1e6,
            self_ns as f64 / 1e6,
            traced * 1e3,
            untraced * 1e3
        ));
        let rows = rememberr_obs::profile_rows(&spans);
        out.push_str(&rememberr_obs::render_profile(
            &rows,
            rememberr_obs::root_wall_ns(&spans),
        ));
        eprint!("{out}");
        Ok(unattributed_pct)
    }
}

/// Summed wall time of the `bench.*` root spans and their self time (the
/// part no layer span covers).
fn bench_roots(spans: &[SpanRecord]) -> (u64, u64) {
    spans
        .iter()
        .filter(|r| r.name.starts_with("bench."))
        .fold((0, 0), |(total, own), root| {
            let children: u64 = root.children.iter().map(|c| c.elapsed_ns).sum();
            (
                total + root.elapsed_ns,
                own + root.elapsed_ns.saturating_sub(children),
            )
        })
}
