//! End-to-end benchmark of the errata system.
//!
//! Two workloads drive the crates through the public functions the CLI
//! commands use, each at paper scale from a seeded synthetic corpus:
//!
//! * `pipeline` — rendered page streams → extraction → analyzed dedup →
//!   classification → highlight assist → full report → binary snapshot
//!   (what `rememberr profile` runs). Extraction and dedup only work here.
//! * `reannotate` — unannotated JSONL snapshot → classification → full
//!   report → binary snapshot (`rememberr classify` + `report`).
//!
//! Each workload alternates blocks of passes with rounds of serving the
//! snapshot they saved: the query daemon, driven by a closed-loop
//! keep-alive client with a fixed selective/broad mix. So every end-to-end
//! metric has a value on every workload (see `METRICS.md`). An untraced run
//! reports the end-to-end metrics; a traced run (`trace = true`) repeats
//! the workload with observability on, wraps every call into a layer in a
//! benchmark span, and reports the per-layer metrics.

mod affinity;
mod batch;
mod checks;
mod metrics;
pub mod serving;
mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use rememberr_docgen::{CorpusSpec, SyntheticCorpus};

pub use checks::Checks;
pub use metrics::{Metrics, END_TO_END, PER_LAYER};
pub use trace::UNATTRIBUTED_TOLERANCE_PCT;

/// The docgen seed of the paper-calibrated corpus.
pub const PAPER_SEED: u64 = 1_592_598_562;

/// Set-up runs at least this often, and for at least
/// `SETUP_MIN_SECONDS`, per run; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;
const SETUP_MIN_SECONDS: f64 = 2.0;

/// Docgen seeds tried per run: the requested one, then its successors.
const SEED_ATTEMPTS: u64 = 64;

/// Rounds of the measured window: each runs a block of passes, then a
/// round of the daemon phase over the snapshot they saved.
const ROUNDS: usize = 10;

/// Share of each round spent on passes; the rest serves the database the
/// passes produced.
const PASS_SHARE: f64 = 0.5;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The full batch path from rendered documents to a binary snapshot.
    Pipeline,
    /// Classification and reporting over a loaded JSONL snapshot.
    Reannotate,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::Pipeline, Workload::Reannotate];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Pipeline => "pipeline",
            Workload::Reannotate => "reannotate",
        }
    }

    /// Parses a command-line name.
    ///
    /// # Errors
    ///
    /// Names the valid workloads.
    pub fn parse(text: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == text)
            .ok_or_else(|| format!("unknown workload {text:?} (pipeline or reannotate)"))
    }
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload to run.
    pub workload: Workload,
    /// Docgen seed; the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run: per-layer metrics with observability on.
    pub trace: bool,
    /// Corpus scale factor in `(0, 1]`; 1 is paper scale (tests use less).
    pub scale: f64,
    /// Directory for snapshots and the trace file.
    pub work_dir: PathBuf,
}

/// What a run reports: the check tally and the metric values.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub checks: Checks,
    /// Metric values by name.
    pub metrics: Metrics,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed` and the metrics
    /// of the run's kind (end-to-end untraced, per-layer traced).
    pub fn result_line(&self, trace: bool) -> String {
        let table = if trace { PER_LAYER } else { END_TO_END };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.checks.failed == 0,
            self.checks.attempted.max(1),
            self.checks.failed,
            self.metrics.to_json(table)
        )
    }
}

/// The corpus the seed and scale describe.
///
/// # Errors
///
/// An invalid specification is an error, not a panic.
pub fn generate(seed: u64, scale: f64) -> Result<SyntheticCorpus, String> {
    if !(scale > 0.0 && scale <= 1.0) {
        return Err(format!("scale {scale} is outside (0, 1]"));
    }
    let mut spec = if scale == 1.0 {
        CorpusSpec::paper()
    } else {
        CorpusSpec::scaled(scale)
    };
    spec.seed = seed;
    SyntheticCorpus::try_generate(&spec).map_err(|e| format!("corpus spec: {e}"))
}

/// The docgen seed a run uses: `seed` itself, or, where docgen panics on
/// it, the first successor it generates a corpus for, with the number of
/// seeds passed over.
///
/// Docgen's title uniquifier asserts on about one paper-scale seed in six
/// (`cannot find a unique title`, `crates/docgen/src/assemble.rs`); every
/// seed passed over is named on stderr and counted in
/// `docgen.seeds_rejected`, so the defect stays in view until docgen
/// returns an error instead.
///
/// # Errors
///
/// An invalid specification, or no usable seed within the attempts.
pub fn resolve_seed(seed: u64, scale: f64) -> Result<(u64, u64), String> {
    for rejected in 0..SEED_ATTEMPTS {
        let candidate = seed.wrapping_add(rejected);
        match std::panic::catch_unwind(|| generate(candidate, scale)) {
            Ok(corpus) => return corpus.map(|_| (candidate, rejected)),
            Err(_) => eprintln!(
                "docgen panicked on seed {candidate}; trying {}",
                candidate.wrapping_add(1)
            ),
        }
    }
    Err(format!(
        "docgen panicked on seeds {seed} to {}",
        seed.wrapping_add(SEED_ATTEMPTS - 1)
    ))
}

/// Runs one workload.
///
/// # Errors
///
/// Fails when the inputs cannot be built or the daemon cannot start; every
/// later failure is a failed check in the outcome instead.
pub fn run(config: &Config) -> Result<Outcome, String> {
    std::fs::create_dir_all(&config.work_dir)
        .map_err(|e| format!("{}: {e}", config.work_dir.display()))?;
    rememberr_obs::disable();
    rememberr_obs::reset();
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    let mut tracer = trace::Tracer::new(config.trace);
    let (seed, rejected) = resolve_seed(config.seed, config.scale)?;
    tracer.set("docgen.seeds_rejected", rejected as f64);
    let config = &Config {
        seed,
        ..config.clone()
    };

    let mut setup_times = Vec::new();
    let mut inputs = None;
    let setups = Instant::now();
    while setup_times.len() < SETUP_REPEATS || setups.elapsed().as_secs_f64() < SETUP_MIN_SECONDS {
        drop(inputs.take());
        let start = Instant::now();
        inputs = Some(batch::setup(config, &mut tracer)?);
        setup_times.push(start.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("set-up ran at least once");
    metrics.set("setup_s", metrics::median(&setup_times));

    // Passes and daemon rounds alternate, so every metric samples the
    // host across the whole window: on a shared host a slow spell can
    // last tens of seconds, and a phase that fits inside one reads slow.
    let window = Duration::from_secs_f64(config.seconds);
    let mut passes = batch::Passes::new(config, &inputs);
    let mut daemon = serving::Phase::default();
    let start = Instant::now();
    for round in 0..ROUNDS {
        let at = |share: f64| start + window.mul_f64((round as f64 + share) / ROUNDS as f64);
        passes.run_until(at(PASS_SHARE), &mut tracer, &mut checks)?;
        daemon.round(passes.snapshot(), at(1.0), &mut tracer, &mut checks)?;
    }
    let (snapshot, defects) = passes.finish(&mut metrics);
    daemon.finish(config, &mut tracer, &mut metrics);
    batch::quality(
        &inputs.corpus,
        &snapshot,
        defects.as_ref(),
        &mut checks,
        &mut metrics,
    );
    metrics.set("peak_rss_mb", peak_rss_mb());

    if config.trace {
        let unattributed = tracer.finish(&config.work_dir.join("trace.json"), &mut metrics)?;
        checks.record(unattributed <= UNATTRIBUTED_TOLERANCE_PCT, || {
            format!("{unattributed:.2}% of traced wall time lies outside every layer span")
        });
    } else {
        let missing = metrics.missing(END_TO_END);
        checks.record(missing.is_empty(), || {
            format!("metrics not measured: {missing:?}")
        });
    }
    for path in [Some(&snapshot), inputs.snapshot.as_ref()]
        .into_iter()
        .flatten()
    {
        let _ = std::fs::remove_file(path);
    }
    rememberr_obs::disable();
    rememberr_obs::reset();
    Ok(Outcome { checks, metrics })
}

/// Peak resident memory of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
