//! `rememberr` — command-line interface to the RemembERR pipeline.
//!
//! ```sh
//! rememberr-cli generate --out corpus/ --scale 0.2
//! rememberr-cli extract  --docs corpus/ --out db.jsonl
//! rememberr-cli classify --db db.jsonl --out db.jsonl --truth corpus/truth.json
//! rememberr-cli report   --db db.jsonl --csv-dir figures/
//! rememberr-cli query    --db db.jsonl --trigger Trg_CFG_wrg --unique
//! rememberr-cli campaign --db db.jsonl --steps 10
//! rememberr-cli stats    --metrics m.json
//! rememberr-cli profile  --scale 0.25 --jobs 2 --trace-out trace.json
//! ```
//!
//! Every command accepts three observability options:
//!
//! * `--trace` prints the hierarchical span tree of the run to stderr;
//! * `--metrics-out FILE` writes a JSON metrics snapshot (deterministic
//!   event counters plus wall-clock duration histograms) after the run;
//! * `--trace-out FILE` writes the stitched span tree as Chrome
//!   trace-event JSON, loadable in `chrome://tracing` or Perfetto, with
//!   one lane per worker thread.
//!
//! Collection is disabled unless one of the three is given, so normal runs
//! pay only a relaxed atomic load per instrumentation point.
//!
//! Every command also accepts `--jobs N`, the worker-thread count for the
//! parallel pipeline stages (default: all available cores). Databases,
//! dedup statistics, and metric counter sections are byte-identical at any
//! worker count; `--jobs 1` runs the true sequential path.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod args;
mod commands;
mod paths;

use std::process::ExitCode;

use paths::validate_out_path;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match args::parse(raw) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", commands::usage());
            return ExitCode::FAILURE;
        }
    };

    let trace = parsed.has_flag("trace");
    let metrics_out = parsed.get("metrics-out").map(str::to_string);
    let trace_out = parsed.get("trace-out").map(str::to_string);
    for (option, path) in [("metrics-out", &metrics_out), ("trace-out", &trace_out)] {
        if let Some(path) = path {
            if let Err(e) = validate_out_path(option, path) {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if trace || metrics_out.is_some() || trace_out.is_some() {
        rememberr_obs::enable();
    }

    let result = commands::run(&parsed);

    // Emit observability output even when the command failed: a partial
    // trace of a failing run is exactly when it is most wanted.
    if trace {
        eprint!("{}", rememberr_obs::render_trace());
    }
    if let Some(path) = metrics_out {
        let json = rememberr_obs::snapshot().to_json();
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("error: cannot write metrics to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = trace_out {
        let spans = rememberr_obs::take_spans_stitched();
        let json = rememberr_obs::chrome_trace(&spans);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("error: cannot write trace to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    match result {
        Ok(output) => {
            println!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
