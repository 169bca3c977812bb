//! Small-input runs of every workload, the metric tables against
//! `BENCHMARK.json`, and the checks that must raise the error rate.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use perfbench::serving::Client;
use perfbench::{run, Checks, Config, Outcome, Workload, END_TO_END, PAPER_SEED, PER_LAYER};
use rememberr::{save_as, Database, SnapshotFormat};
use rememberr_serve::{ServeConfig, Server};
use serde::{Deserialize, Value};

/// Runs share the process-global observability registry.
static GATE: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

const SCALE: f64 = 0.05;

fn work_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{name}"))
}

fn small_run(workload: Workload, trace: bool) -> Outcome {
    let config = Config {
        workload,
        seed: PAPER_SEED,
        seconds: 0.3,
        trace,
        scale: SCALE,
        work_dir: work_dir(&format!("{}-{trace}", workload.name())),
    };
    run(&config).unwrap_or_else(|e| panic!("{} (trace {trace}): {e}", workload.name()))
}

/// Parses a result line and returns its metrics as (name, value, unit).
fn emitted(line: &str) -> (bool, u64, Vec<(String, f64, String)>) {
    let result: Value = serde_json::from_str(line).expect("the result line is JSON");
    let keys: Vec<&str> = result
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let correct = matches!(result.get("correct"), Some(Value::Bool(true)));
    let attempted = u64::from_value(result.get("attempted").expect("attempted")).expect("count");
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let value = f64::from_value(m.get("value").expect("value")).expect("number");
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            (name.clone(), value, unit.to_string())
        })
        .collect();
    (correct, attempted, metrics)
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    let _gate = exclusive();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let outcome = small_run(workload, trace);
            assert!(
                outcome.checks.failed == 0,
                "{} (trace {trace}) failed checks: {:?}",
                workload.name(),
                outcome.checks.notes
            );
            let (correct, attempted, metrics) = emitted(&outcome.result_line(trace));
            assert!(correct && attempted > 0);
            let table = if trace { PER_LAYER } else { END_TO_END };
            let names: Vec<(&str, &str)> = metrics
                .iter()
                .map(|(n, _, u)| (n.as_str(), u.as_str()))
                .collect();
            assert_eq!(names, table, "{} (trace {trace})", workload.name());
            if !trace {
                for (name, value, _) in &metrics {
                    assert!(*value > 0.0, "{}: {name} reads {value}", workload.name());
                }
            }
        }
    }
}

#[test]
fn traced_runs_attribute_work_to_the_layers_that_did_it() {
    let _gate = exclusive();
    let pipeline = small_run(Workload::Pipeline, true).metrics;
    let reannotate = small_run(Workload::Reannotate, true).metrics;
    let get = |m: &perfbench::Metrics, name: &str| m.get(name).unwrap_or(0.0);
    assert!(get(&pipeline, "extract.ms") > 0.0);
    assert!(get(&pipeline, "extract.tokenize_calls") > get(&pipeline, "dedup.tokenize_calls"));
    // The shared analysis arena: classification re-tokenizes nothing.
    assert_eq!(get(&pipeline, "classify.tokenize_calls"), 0.0);
    for name in [
        "extract.ms",
        "extract.tokenize_calls",
        "dedup.ms",
        "dedup.tokenize_calls",
    ] {
        assert_eq!(get(&reannotate, name), 0.0, "reannotate: {name}");
    }
    assert!(get(&reannotate, "classify.ms") > 0.0);
    assert!(get(&reannotate, "persist.jsonl.load_ms") > 0.0);
    for metrics in [&pipeline, &reannotate] {
        assert!(get(metrics, "trace.unattributed_pct") <= perfbench::UNATTRIBUTED_TOLERANCE_PCT);
    }
}

#[test]
fn the_tables_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json is JSON");
    let table = |key: &str| -> Vec<(String, String)> {
        spec.get(key)
            .and_then(Value::as_array)
            .expect("a metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(table("end_to_end"), own(END_TO_END));
    assert_eq!(table("per_layer"), own(PER_LAYER));
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

fn small_snapshot(name: &str) -> (Database, PathBuf, Vec<u8>) {
    let corpus = perfbench::generate(PAPER_SEED, SCALE).expect("small corpus");
    let db = Database::from_documents(&corpus.structured);
    let mut bytes = Vec::new();
    save_as(&db, &mut bytes, SnapshotFormat::Binary).expect("snapshot encodes");
    let dir = work_dir(name);
    std::fs::create_dir_all(&dir).expect("work dir");
    let path = dir.join("db.bin");
    std::fs::write(&path, &bytes).expect("snapshot writes");
    (db, path, bytes)
}

#[test]
fn a_flipped_snapshot_byte_raises_the_error_rate() {
    let (db, _, mut bytes) = small_snapshot("flip");
    let mut checks = Checks::default();
    assert!(checks.snapshot_reloads(&bytes, &db));
    let middle = bytes.len() / 2;
    bytes[middle] ^= 0x01;
    assert!(!checks.snapshot_reloads(&bytes, &db));
    assert_eq!((checks.attempted, checks.failed), (2, 1));
    assert!(checks.error_rate() > 0.0);
}

#[test]
fn a_body_mismatch_and_a_non_200_raise_the_error_rate() {
    let (_, path, _) = small_snapshot("http");
    let server = Server::start(ServeConfig::default(), path).expect("daemon starts");
    let mut client = Client::connect(server.local_addr()).expect("connects");
    let mut checks = Checks::default();

    let target = "/query?vendor=intel&unique=1";
    let (status, indexed) = client.get(target).expect("indexed response");
    let (_, mut scan) = client
        .get(&format!("{target}&engine=scan"))
        .expect("scan response");
    assert!(checks.status_ok(target, status));
    assert!(checks.bodies_match(target, &indexed, &scan));
    let last = scan.len() - 1;
    scan[last] ^= 0x20;
    assert!(!checks.bodies_match(target, &indexed, &scan));

    let (status, _) = client.get("/query?vendor=via").expect("error response");
    assert!(!checks.status_ok("/query?vendor=via", status));
    drop(client);
    let summary = server.stop_and_wait();
    assert_eq!((summary.shed, summary.timeouts), (0, 0));
    assert_eq!((checks.attempted, checks.failed), (4, 2));
    assert!(checks.error_rate() > 0.0);
}
