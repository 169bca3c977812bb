//! `perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics untraced, the per-layer metrics with `--trace 1`.
//! Snapshots go to `.perfbench/<workload>/` under the working directory,
//! where a traced run also leaves `trace.json` (Chrome trace-event format).

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{Config, Workload, PAPER_SEED};

fn parse_args() -> Result<Config, String> {
    let mut workload = None;
    let mut seed = PAPER_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                }
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Config {
        workload,
        seed,
        seconds,
        trace,
        scale: 1.0,
        work_dir: PathBuf::from(".perfbench").join(workload.name()),
    })
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(config) => config,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match perfbench::run(&config) {
        Ok(outcome) => {
            for note in &outcome.checks.notes {
                eprintln!("check failed: {note}");
            }
            println!("{}", outcome.result_line(config.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
