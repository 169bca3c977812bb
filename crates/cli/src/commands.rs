//! CLI subcommand implementations.
//!
//! Each command is a plain function from parsed arguments to a `Result`
//! with a human-readable error, so they are directly unit-testable without
//! spawning processes.

use std::fs;
use std::path::{Path, PathBuf};

use rememberr::{
    load, save_as, CandidateGen, Database, DedupStrategy, Query, QueryEngine, SnapshotFormat,
};
use rememberr_analysis::{assist_highlights_analyzed, export_csvs, plan_campaign, FullReport};
use rememberr_classify::{
    classify_database, classify_database_analyzed, FourEyesConfig, HumanOracle, MatcherKind, Rules,
};
use rememberr_docgen::{CorpusSpec, GroundTruth, SyntheticCorpus};
use rememberr_extract::{extract_corpus, extract_document};
use rememberr_model::{
    parse_fix, parse_vendor, parse_workaround, Context, Date, Design, Effect, MsrName, Trigger,
    TriggerClass,
};

use crate::args::ParsedArgs;

/// Convenience alias: commands return printable output or an error string.
pub type CmdResult = Result<String, String>;

/// File name of the ground truth inside a generated corpus directory.
pub const TRUTH_FILE: &str = "truth.json";

/// `rememberr generate --out DIR [--scale F] [--seed N]`
///
/// Writes the 28 rendered documents (one `.txt` per design, named by the
/// document reference) plus `truth.json` into `DIR`.
pub fn cmd_generate(args: &ParsedArgs) -> CmdResult {
    let out: PathBuf = args.get("out").ok_or("generate needs --out DIR")?.into();
    let scale = args.scale()?;
    let mut spec = if (scale - 1.0).abs() < f64::EPSILON {
        CorpusSpec::paper()
    } else {
        CorpusSpec::scaled(scale)
    };
    spec.seed = args.get_parsed("seed", spec.seed)?;

    let corpus = SyntheticCorpus::try_generate(&spec)
        .map_err(|e| format!("cannot generate a corpus at --scale {scale}: {e}"))?;
    fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    for rendered in &corpus.rendered {
        let path = out.join(format!("{}.txt", rendered.design.reference()));
        fs::write(&path, &rendered.text)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    let truth = serde_json::to_string(&corpus.truth).map_err(|e| e.to_string())?;
    fs::write(out.join(TRUTH_FILE), truth).map_err(|e| e.to_string())?;
    Ok(format!(
        "wrote {} documents ({} errata) and {TRUTH_FILE} to {}",
        corpus.rendered.len(),
        corpus.total_errata(),
        out.display()
    ))
}

/// `rememberr extract --docs DIR --out DB.jsonl`
///
/// Parses every `<reference>.txt` in `DIR`, runs duplicate keying, and
/// saves the database.
pub fn cmd_extract(args: &ParsedArgs) -> CmdResult {
    let docs_dir: PathBuf = args.get("docs").ok_or("extract needs --docs DIR")?.into();
    let out: PathBuf = args
        .get("out")
        .ok_or("extract needs --out DB.jsonl")?
        .into();
    let format: SnapshotFormat = args.get_parsed("snapshot-format", SnapshotFormat::default())?;

    // Read the page streams sequentially (I/O), then fan the CPU-heavy
    // parsing out across workers; results come back in input (Design::ALL)
    // order, so the database is identical at every worker count, and the
    // first failing document (in that order) wins deterministically.
    let mut inputs: Vec<(Design, PathBuf, String)> = Vec::new();
    for design in Design::ALL {
        let path = docs_dir.join(format!("{}.txt", design.reference()));
        if !path.exists() {
            continue;
        }
        let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        inputs.push((design, path, text));
    }
    if inputs.is_empty() {
        return Err(format!("no documents found in {}", docs_dir.display()));
    }
    let extracted = rememberr_par::par_map(&inputs, |(design, path, text)| {
        extract_document(*design, text).map_err(|e| format!("{}: {e}", path.display()))
    });
    let mut documents = Vec::with_capacity(inputs.len());
    let mut defect_total = 0usize;
    for result in extracted {
        let extracted = result?;
        defect_total += extracted.report.total();
        documents.push(extracted.document);
    }

    let db = Database::from_documents(&documents);
    write_db(&db, &out, format)?;
    Ok(format!(
        "extracted {} documents -> {} entries, {} unique bugs, {} defects; saved {}",
        documents.len(),
        db.len(),
        db.unique_count(),
        defect_total,
        out.display()
    ))
}

/// `rememberr classify --db DB.jsonl --out DB2.jsonl [--truth truth.json]
/// [--no-humans]`
pub fn cmd_classify(args: &ParsedArgs) -> CmdResult {
    let format: SnapshotFormat = args.get_parsed("snapshot-format", SnapshotFormat::default())?;
    let mut db = read_db(args)?;
    let out: PathBuf = args
        .get("out")
        .ok_or("classify needs --out DB.jsonl")?
        .into();

    let truth = match args.get("truth") {
        Some(path) if !args.has_flag("no-humans") => {
            let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            Some(serde_json::from_str::<GroundTruth>(&text).map_err(|e| e.to_string())?)
        }
        _ => None,
    };
    let oracle = match &truth {
        Some(t) => HumanOracle::Simulated(t),
        None => HumanOracle::None,
    };
    let run = classify_database(
        &mut db,
        &Rules::standard(),
        oracle,
        &FourEyesConfig::default(),
    );
    write_db(&db, &out, format)?;
    Ok(format!(
        "classified {} unique errata: {} of {} decisions auto-resolved ({:.1}% reduction); saved {}",
        run.stats.unique_errata,
        run.stats.auto_decided,
        run.stats.raw_decisions,
        100.0 * run.stats.reduction(),
        out.display()
    ))
}

/// `rememberr report --db DB.jsonl [--csv-dir DIR]`
pub fn cmd_report(args: &ParsedArgs) -> CmdResult {
    let db = read_db(args)?;
    let report = FullReport::build(&db, None, None);
    if let Some(dir) = args.get("csv-dir") {
        let written = export_csvs(&report, Path::new(dir)).map_err(|e| e.to_string())?;
        return Ok(format!(
            "{}\nwrote {} CSV files to {dir}",
            report.render_text(),
            written.len()
        ));
    }
    Ok(report.render_text())
}

/// `rememberr query --db DB.jsonl [--vendor intel|amd] [--design NAME]
/// [--trigger CODE]... [--trigger-class CODE] [--context CODE]...
/// [--effect CODE]... [--msr NAME] [--workaround CAT] [--fix STATUS]
/// [--after YYYY-MM-DD] [--before YYYY-MM-DD] [--min-triggers N]
/// [--unique] [--annotated] [--query-engine indexed|scan]`
pub fn cmd_query(args: &ParsedArgs) -> CmdResult {
    let engine: QueryEngine = args.get_parsed("query-engine", QueryEngine::default())?;
    let db = read_db(args)?;
    let mut query = Query::new();
    if let Some(vendor) = args.get("vendor") {
        query = query.vendor(parse_vendor(vendor)?);
    }
    if let Some(design) = args.get("design") {
        let design: Design = design.parse().map_err(|_| {
            format!("unknown design {design:?} (label like \"Core 6\" or reference)")
        })?;
        query = query.design(design);
    }
    for code in args.get_multi("trigger") {
        let trigger: Trigger = code
            .parse()
            .map_err(|_| format!("unknown trigger code {code:?}"))?;
        query = query.trigger(trigger);
    }
    if let Some(code) = args.get("trigger-class") {
        let class: TriggerClass = code
            .parse()
            .map_err(|_| format!("unknown trigger class {code:?}"))?;
        query = query.trigger_class(class);
    }
    for code in args.get_multi("context") {
        let context: Context = code
            .parse()
            .map_err(|_| format!("unknown context code {code:?}"))?;
        query = query.context(context);
    }
    for code in args.get_multi("effect") {
        let effect: Effect = code
            .parse()
            .map_err(|_| format!("unknown effect code {code:?}"))?;
        query = query.effect(effect);
    }
    if let Some(name) = args.get("msr") {
        let msr: MsrName = name
            .parse()
            .map_err(|_| format!("unknown MSR name {name:?}"))?;
        query = query.msr(msr);
    }
    if let Some(text) = args.get("workaround") {
        query = query.workaround(parse_workaround(text)?);
    }
    if let Some(text) = args.get("fix") {
        query = query.fix(parse_fix(text)?);
    }
    if let Some(text) = args.get("after") {
        query = query.disclosed_after(parse_date("after", text)?);
    }
    if let Some(text) = args.get("before") {
        query = query.disclosed_before(parse_date("before", text)?);
    }
    let min: usize = args.get_parsed("min-triggers", 0)?;
    if min > 0 {
        query = query.min_triggers(min);
    }
    if args.has_flag("unique") {
        query = query.unique_only();
    }
    if args.has_flag("annotated") {
        query = query.annotated_only();
    }

    let hits = query.run_with(&db, engine);
    let mut out = format!("{} matching errata\n", hits.len());
    for entry in hits.iter().take(args.get_parsed("limit", 20usize)?) {
        out.push_str(&format!(
            "{}  {}  [{}]\n",
            entry.id(),
            entry.erratum.title,
            entry.provenance.disclosure_date
        ));
    }
    Ok(out)
}

/// `rememberr campaign --db DB.jsonl [--steps N] [--triggers N] [--effects N]`
pub fn cmd_campaign(args: &ParsedArgs) -> CmdResult {
    let db = read_db(args)?;
    let steps: usize = args.get_parsed("steps", 10)?;
    let triggers: usize = args.get_parsed("triggers", 3)?;
    let effects: usize = args.get_parsed("effects", 4)?;
    let plan = plan_campaign(&db, steps, triggers, effects);
    Ok(plan.render_text())
}

/// `rememberr export --db DB.jsonl --out records.txt`
///
/// Writes every unique annotated erratum in the paper's proposed
/// machine-readable format (Table VII), separated by blank lines — the
/// open-data form of the database.
pub fn cmd_export(args: &ParsedArgs) -> CmdResult {
    use rememberr_model::MachineErratum;
    let db = read_db(args)?;
    let out: PathBuf = args.get("out").ok_or("export needs --out FILE")?.into();
    let mut text = String::new();
    let mut count = 0usize;
    for entry in db.unique_entries() {
        let record = MachineErratum {
            key: entry.key.ok_or("database is not deduplicated")?,
            title: entry.erratum.title.clone(),
            annotation: entry.annotation.clone().unwrap_or_default(),
            comments: String::new(),
            root_cause: None,
            workaround: entry.erratum.workaround.clone(),
            status: entry.erratum.status.clone(),
        };
        text.push_str(&record.render());
        text.push('\n');
        count += 1;
    }
    fs::write(&out, text).map_err(|e| format!("{}: {e}", out.display()))?;
    Ok(format!(
        "exported {count} unique errata in Table VII format to {}",
        out.display()
    ))
}

/// `rememberr serve --db DB.jsonl [--addr HOST:PORT] [--workers N]
/// [--queue-depth N] [--request-timeout-ms N]`
///
/// Loads the snapshot once, then blocks serving HTTP until `POST
/// /shutdown` (or the process is killed); the returned string is the exit
/// summary. Option validation happens before the snapshot is read so a
/// typo fails immediately, not after a multi-second load.
pub fn cmd_serve(args: &ParsedArgs) -> CmdResult {
    let addr = args.get("addr").unwrap_or("127.0.0.1:8377").to_string();
    addr.parse::<std::net::SocketAddr>().map_err(|_| {
        format!("invalid --addr {addr:?} (expected HOST:PORT, e.g. 127.0.0.1:8377)")
    })?;
    let workers: usize = args.get_parsed("workers", 4)?;
    if workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    let queue_depth: usize = args.get_parsed("queue-depth", 64)?;
    if queue_depth == 0 {
        return Err("--queue-depth must be at least 1".into());
    }
    let timeout_ms: u64 = args.get_parsed("request-timeout-ms", 2_000)?;
    if timeout_ms == 0 {
        return Err("--request-timeout-ms must be at least 1".into());
    }
    let db_path: PathBuf = args.get("db").ok_or("serve needs --db DB.jsonl")?.into();

    let config = rememberr_serve::ServeConfig {
        addr,
        workers,
        queue_depth,
        request_timeout: std::time::Duration::from_millis(timeout_ms),
        ..rememberr_serve::ServeConfig::default()
    };
    // A daemon must not accumulate span records; counters and the latency
    // histogram stay on and feed `GET /metrics`.
    rememberr_obs::enable();
    rememberr_obs::retain_spans(false);
    let server = rememberr_serve::Server::start(config, db_path)?;
    println!(
        "serving on http://{} ({workers} workers, queue depth {queue_depth}, \
         {timeout_ms} ms deadline); POST /shutdown to stop",
        server.local_addr()
    );
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    let summary = server.wait();
    Ok(format!(
        "served {} requests ({} shed, {} timeouts, {} reloads); generation {} at exit",
        summary.requests, summary.shed, summary.timeouts, summary.reloads, summary.generation
    ))
}

/// `rememberr profile [--scale F] [--seed N] [--jobs N]`
///
/// Runs the full in-process pipeline (generate → extract → dedup →
/// classify → analyze) with profiling on and prints a per-stage
/// self/child-time table plus per-worker utilization. Combine with
/// `--trace-out FILE` to also capture the Chrome trace of the same run.
pub fn cmd_profile(args: &ParsedArgs) -> CmdResult {
    let scale = args.scale()?;
    let mut spec = if (scale - 1.0).abs() < f64::EPSILON {
        CorpusSpec::paper()
    } else {
        CorpusSpec::scaled(scale)
    };
    spec.seed = args.get_parsed("seed", spec.seed)?;

    // The profile owns the run: start from a clean slate so earlier
    // activity (and the CLI root span) does not pollute the table.
    rememberr_obs::reset();
    rememberr_obs::enable();

    let corpus = SyntheticCorpus::try_generate(&spec)
        .map_err(|e| format!("cannot generate a corpus at --scale {scale}: {e}"))?;
    let (documents, defects) =
        extract_corpus(corpus.rendered.iter().map(|r| (r.design, r.text.as_str())))
            .map_err(|e| e.to_string())?;
    // Single-pass mode: one shared analysis arena feeds dedup, classify,
    // and the highlighting assist, so each erratum is tokenized exactly
    // once (the `textkit.tokenize_calls` counter below shows it).
    let rules = Rules::standard();
    let (mut db, arena) = Database::from_documents_analyzed(
        &documents,
        DedupStrategy::default(),
        CandidateGen::default(),
    );
    let run = classify_database_analyzed(
        &mut db,
        &rules,
        HumanOracle::Simulated(&corpus.truth),
        &FourEyesConfig::default(),
        MatcherKind::default(),
        &arena,
    );
    let assist = assist_highlights_analyzed(&db, &rules, &arena);
    drop(assist);
    let report = FullReport::build(&db, run.four_eyes.as_ref(), Some(defects));
    drop(report);

    // Clone rather than take: `--trace-out` still exports the same spans
    // after this command returns.
    let spans = rememberr_obs::stitch_spans(rememberr_obs::completed_spans());
    let rows = rememberr_obs::profile_rows(&spans);
    let wall_ns = rememberr_obs::root_wall_ns(&spans);
    let snap = rememberr_obs::snapshot();

    let mut out = format!(
        "pipeline profile: scale {scale}, seed {}, jobs {} ({} unique errata)\n\n",
        spec.seed,
        rememberr_par::jobs(),
        run.stats.unique_errata,
    );
    out.push_str(&rememberr_obs::render_profile(&rows, wall_ns));
    out.push('\n');
    out.push_str(&render_corpus_counters(&snap));
    out.push('\n');
    out.push_str(&render_worker_utilization(&snap));
    Ok(out)
}

/// Renders the shared-arena counters of the single-pass pipeline: how many
/// documents the corpus analysis covered and how many tokenization passes
/// the whole run paid for. The arena itself contributes exactly one
/// tokenization per entry; the remainder comes from corpus generation and
/// extraction-time title comparisons upstream of the database build.
fn render_corpus_counters(snap: &rememberr_obs::Snapshot) -> String {
    let mut out = String::from("corpus analysis (deterministic):\n");
    let names = ["corpus.docs_analyzed", "textkit.tokenize_calls"];
    let width = names.iter().map(|n| n.len()).max().unwrap_or(0);
    for name in names {
        let value = snap.counters.get(name).copied().unwrap_or(0);
        out.push_str(&format!("  {name:width$}  {value}\n"));
    }
    out
}

/// Renders the snapshot's `par` section: per-worker busy time and task
/// counts plus the max/min busy-time imbalance ratio.
fn render_worker_utilization(snap: &rememberr_obs::Snapshot) -> String {
    let mut out = String::from("workers (wall clock):\n");
    if snap.par.is_empty() {
        out.push_str("  (none — sequential run)\n");
        return out;
    }
    let busiest = snap.par.values().map(|w| w.busy_ns).max().unwrap_or(0);
    for (name, w) in &snap.par {
        let share = if busiest == 0 {
            0.0
        } else {
            100.0 * w.busy_ns as f64 / busiest as f64
        };
        out.push_str(&format!(
            "  {name}  busy {:>10.3} ms  tasks {:>6}  {share:>5.1}% of busiest\n",
            w.busy_ns as f64 / 1e6,
            w.tasks,
        ));
    }
    match snap.worker_imbalance() {
        Some(ratio) => {
            out.push_str(&format!("  imbalance ratio (max/min busy): {ratio:.2}\n"));
        }
        None => out.push_str("  imbalance ratio: n/a (fewer than two workers)\n"),
    }
    out
}

/// `rememberr stats --metrics m.json` or `rememberr stats --db DB.jsonl`
///
/// Pretty-prints a metrics snapshot: either one previously written with
/// `--metrics-out`, or a fresh one collected while loading a database.
pub fn cmd_stats(args: &ParsedArgs) -> CmdResult {
    let (snapshot, db_line) = match (args.get("metrics"), args.get("db")) {
        (Some(path), _) => {
            let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let snap = serde_json::from_str::<rememberr_obs::Snapshot>(&text)
                .map_err(|e| format!("{path}: not a metrics snapshot: {e}"))?;
            (snap, None)
        }
        (None, Some(path)) => {
            let line = describe_snapshot_file(path)?;
            rememberr_obs::enable();
            let db = read_db(args)?;
            let snap = rememberr_obs::snapshot();
            let line = format!("{line}, {} entries\n\n", db.len());
            drop(db);
            (snap, Some(line))
        }
        (None, None) => return Err("stats needs --metrics FILE or --db DB.jsonl".into()),
    };
    Ok(format!(
        "{}{}",
        db_line.unwrap_or_default(),
        render_snapshot(&snapshot)
    ))
}

/// One line naming a snapshot file's format (sniffed from its magic, the
/// same dispatch `load` uses) and its size on disk.
fn describe_snapshot_file(path: &str) -> Result<String, String> {
    use std::io::Read as _;
    let mut file = fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let size = file.metadata().map_err(|e| format!("{path}: {e}"))?.len();
    let mut head = [0u8; 4];
    let mut got = 0;
    while got < head.len() {
        match file
            .read(&mut head[got..])
            .map_err(|e| format!("{path}: {e}"))?
        {
            0 => break,
            n => got += n,
        }
    }
    let format = SnapshotFormat::sniff(&head[..got]);
    Ok(format!("snapshot: {format} format, {size} bytes"))
}

/// Renders a metrics snapshot as aligned text.
fn render_snapshot(snap: &rememberr_obs::Snapshot) -> String {
    let mut out = String::new();
    out.push_str("counters (deterministic):\n");
    if snap.counters.is_empty() {
        out.push_str("  (none)\n");
    }
    let width = snap.counters.keys().map(String::len).max().unwrap_or(0);
    for (name, value) in &snap.counters {
        out.push_str(&format!("  {name:width$}  {value}\n"));
    }
    out.push_str("\ndurations (wall clock):\n");
    if snap.durations.is_empty() {
        out.push_str("  (none)\n");
    }
    let width = snap.durations.keys().map(String::len).max().unwrap_or(0);
    for (name, h) in &snap.durations {
        out.push_str(&format!(
            "  {name:width$}  n={} total={:.3}ms mean={:.3}ms p50={:.3}ms p99={:.3}ms max={:.3}ms\n",
            h.count,
            h.total_ns as f64 / 1e6,
            h.mean_ns() as f64 / 1e6,
            h.quantile_ns(0.50) as f64 / 1e6,
            h.quantile_ns(0.99) as f64 / 1e6,
            h.max_ns as f64 / 1e6,
        ));
    }
    if !snap.par.is_empty() {
        out.push('\n');
        out.push_str(&render_worker_utilization(snap));
    }
    out
}

/// Usage text.
pub fn usage() -> String {
    "rememberr — the RemembERR errata pipeline

USAGE:
  rememberr generate --out DIR [--scale F] [--seed N]
  rememberr extract  --docs DIR --out DB.jsonl [--snapshot-format jsonl|binary]
  rememberr classify --db DB.jsonl --out DB.jsonl [--truth truth.json] [--no-humans]
                     [--snapshot-format jsonl|binary]
  rememberr report   --db DB.jsonl [--csv-dir DIR]
  rememberr query    --db DB.jsonl [--vendor intel|amd] [--design NAME]
                     [--trigger CODE]... [--trigger-class CODE]
                     [--context CODE]... [--effect CODE]... [--msr NAME]
                     [--workaround CAT] [--fix STATUS] [--after YYYY-MM-DD]
                     [--before YYYY-MM-DD] [--min-triggers N] [--unique]
                     [--annotated] [--limit N] [--query-engine indexed|scan]
  rememberr campaign --db DB.jsonl [--steps N] [--triggers N] [--effects N]
  rememberr export   --db DB.jsonl --out records.txt
  rememberr serve    --db DB.jsonl [--addr HOST:PORT] [--workers N]
                     [--queue-depth N] [--request-timeout-ms N]
  rememberr stats    --metrics m.json | --db DB.jsonl
  rememberr profile  [--scale F] [--seed N] [--jobs N]

OBSERVABILITY (any command):
  --trace              print the span tree of the run to stderr
  --metrics-out FILE   write a JSON metrics snapshot after the run
  --trace-out FILE     write a Chrome trace-event JSON of the run (load in
                       chrome://tracing or https://ui.perfetto.dev); one
                       lane per worker thread

PROFILE:
  rememberr profile runs the full in-process pipeline (generate ->
  extract -> dedup -> classify -> analyze) in single-pass mode (one
  shared corpus-analysis arena) with profiling on and prints a per-stage
  self/child-time table, the corpus-analysis counters
  (corpus.docs_analyzed, textkit.tokenize_calls), per-worker utilization,
  and the busy-time imbalance ratio. Combine with --trace-out for a trace
  of the same run.

SNAPSHOTS (extract, classify):
  --snapshot-format jsonl|binary
                       on-disk database format (default: jsonl). \"jsonl\"
                       is the line-oriented interchange format and the
                       correctness oracle; \"binary\" is the
                       rememberr-bin/v1 columnar format (string table +
                       checksummed sections) that loads several times
                       faster. Every reader sniffs the format from the
                       file's magic bytes, so --db accepts either.

SERVE:
  rememberr serve loads the snapshot once (JSONL or binary, sniffed),
  builds the query index, and serves HTTP on --addr (default
  127.0.0.1:8377) from a fixed worker pool:
    GET /query?vendor=intel&trigger=CODE&...   CLI-compatible parameters
    GET /count?...      bare match count       GET /stats   snapshot info
    GET /metrics        obs counters JSON      GET /healthz liveness
    POST /reload        hot-swap the snapshot  POST /shutdown  drain+exit
  Admission is bounded: at most --queue-depth accepted connections wait
  for a worker; beyond that the daemon sheds with 503 Retry-After. Each
  request gets --request-timeout-ms (default 2000) from accept; overruns
  return 504. Identical requests yield byte-identical bodies at any
  worker count; ?engine=scan serves from the full-scan oracle.

QUERY:
  --query-engine indexed|scan
                       query serving engine (default: indexed). \"indexed\"
                       intersects per-facet posting lists driven by the
                       most selective one; \"scan\" is the full-scan
                       correctness oracle. Results are identical either
                       way.

PARALLELISM (any command):
  --jobs N             worker threads for parallel stages (default: all
                       cores; 1 = sequential). Output is identical at any
                       worker count.
"
    .to_string()
}

/// Dispatches a parsed command.
pub fn run(args: &ParsedArgs) -> CmdResult {
    // Worker count for every parallel stage this command reaches (docgen
    // rendering, extraction, the dedup cascade, classification, analysis).
    // Validated up front so `--jobs 0`/garbage fails before any work.
    rememberr_par::set_jobs(args.jobs()?);
    // `profile` owns its own span lifecycle: it resets the collector and
    // reads completed spans before returning, so an enclosing root span
    // (still open at that point) would orphan every stage underneath it.
    if args.command == "profile" {
        return cmd_profile(args);
    }
    // Root span of the trace tree: every stage span nests under the
    // command that triggered it.
    let _span = rememberr_obs::span_with_detail("cli.run", args.command.clone());
    match args.command.as_str() {
        "generate" => cmd_generate(args),
        "extract" => cmd_extract(args),
        "classify" => cmd_classify(args),
        "report" => cmd_report(args),
        "query" => cmd_query(args),
        "campaign" => cmd_campaign(args),
        "export" => cmd_export(args),
        "serve" => cmd_serve(args),
        "stats" => cmd_stats(args),
        "help" => Ok(usage()),
        other => Err(format!("unknown command {other:?}\n\n{}", usage())),
    }
}

fn parse_date(option: &str, text: &str) -> Result<Date, String> {
    text.parse()
        .map_err(|_| format!("invalid value for --{option}: {text:?} (expected YYYY-MM-DD)"))
}

fn read_db(args: &ParsedArgs) -> Result<Database, String> {
    let path = args.get("db").ok_or("this command needs --db DB.jsonl")?;
    let file = fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    load(file).map_err(|e| format!("{path}: {e}"))
}

fn write_db(db: &Database, path: &Path, format: SnapshotFormat) -> Result<(), String> {
    let file = fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    save_as(db, file, format).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("rememberr-cli-{}-{name}", std::process::id()))
    }

    #[test]
    fn generate_extract_classify_report_roundtrip() {
        let dir = tmp("corpus");
        let db_path = tmp("db.jsonl");
        let db2_path = tmp("db2.jsonl");

        let out = cmd_generate(
            &parse([
                "generate",
                "--out",
                dir.to_str().unwrap(),
                "--scale",
                "0.05",
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("wrote 28 documents"));
        assert!(dir.join(TRUTH_FILE).exists());

        let out = cmd_extract(
            &parse([
                "extract",
                "--docs",
                dir.to_str().unwrap(),
                "--out",
                db_path.to_str().unwrap(),
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("unique bugs"));

        let truth = dir.join(TRUTH_FILE);
        let out = cmd_classify(
            &parse([
                "classify",
                "--db",
                db_path.to_str().unwrap(),
                "--out",
                db2_path.to_str().unwrap(),
                "--truth",
                truth.to_str().unwrap(),
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("auto-resolved"));

        let out =
            cmd_report(&parse(["report", "--db", db2_path.to_str().unwrap()]).unwrap()).unwrap();
        assert!(out.contains("Fig. 12"));
        assert!(out.contains("Observations O1-O13"));

        let out = cmd_query(
            &parse([
                "query",
                "--db",
                db2_path.to_str().unwrap(),
                "--trigger",
                "Trg_CFG_wrg",
                "--unique",
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("matching errata"));

        let export_path = tmp("records.txt");
        let out = cmd_export(
            &parse([
                "export",
                "--db",
                db2_path.to_str().unwrap(),
                "--out",
                export_path.to_str().unwrap(),
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("Table VII format"));
        let records = fs::read_to_string(&export_path).unwrap();
        assert!(records.contains("Triggers:"));
        let _ = fs::remove_file(&export_path);

        let out = cmd_campaign(
            &parse([
                "campaign",
                "--db",
                db2_path.to_str().unwrap(),
                "--steps",
                "2",
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("Test campaign plan"));

        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_file(&db_path);
        let _ = fs::remove_file(&db2_path);
    }

    #[test]
    fn helpful_errors() {
        assert!(cmd_generate(&parse(["generate"]).unwrap())
            .unwrap_err()
            .contains("--out"));
        assert!(
            cmd_extract(&parse(["extract", "--docs", "/nonexistent", "--out", "x"]).unwrap())
                .unwrap_err()
                .contains("no documents")
        );
        assert!(run(&parse(["frobnicate"]).unwrap())
            .unwrap_err()
            .contains("unknown command"));
        assert!(run(&parse(["help"]).unwrap()).unwrap().contains("USAGE"));
        assert!(cmd_query(&parse(["query", "--db", "x", "--vendor", "via"]).unwrap()).is_err());
    }

    #[test]
    fn query_rejects_bad_codes() {
        // Build a tiny db first.
        let dir = tmp("q-corpus");
        let db_path = tmp("q-db.jsonl");
        cmd_generate(
            &parse([
                "generate",
                "--out",
                dir.to_str().unwrap(),
                "--scale",
                "0.02",
            ])
            .unwrap(),
        )
        .unwrap();
        cmd_extract(
            &parse([
                "extract",
                "--docs",
                dir.to_str().unwrap(),
                "--out",
                db_path.to_str().unwrap(),
            ])
            .unwrap(),
        )
        .unwrap();
        let err = cmd_query(
            &parse([
                "query",
                "--db",
                db_path.to_str().unwrap(),
                "--trigger",
                "Trg_FAKE_xyz",
            ])
            .unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("unknown trigger"));

        // The new facet flags parse and the two engines print identical
        // results.
        let db = db_path.to_str().unwrap();
        for argv in [
            vec!["query", "--db", db, "--workaround", "bios", "--unique"],
            vec!["query", "--db", db, "--fix", "no-fix-planned"],
            vec!["query", "--db", db, "--design", "Core 6"],
            vec![
                "query",
                "--db",
                db,
                "--after",
                "2016-01-01",
                "--before",
                "2019-01-01",
            ],
            vec!["query", "--db", db, "--msr", "MCx_STATUS"],
            vec!["query", "--db", db, "--trigger-class", "Trg_EXT"],
            vec!["query", "--db", db, "--annotated"],
        ] {
            let indexed = cmd_query(&parse(argv.clone()).unwrap()).unwrap();
            let mut scan_argv = argv.clone();
            scan_argv.extend(["--query-engine", "scan"]);
            let scan = cmd_query(&parse(scan_argv).unwrap()).unwrap();
            assert_eq!(indexed, scan, "{argv:?}");
        }
        let bad =
            cmd_query(&parse(["query", "--db", db, "--workaround", "magic"]).unwrap()).unwrap_err();
        assert!(bad.contains("unknown workaround category"), "{bad}");
        assert!(bad.contains("bios"), "lists the valid values: {bad}");
        let bad = cmd_query(&parse(["query", "--db", db, "--fix", "maybe"]).unwrap()).unwrap_err();
        assert!(bad.contains("unknown fix status"), "{bad}");
        let bad = cmd_query(&parse(["query", "--db", db, "--after", "soon"]).unwrap()).unwrap_err();
        assert!(bad.contains("--after"), "{bad}");
        assert!(bad.contains("YYYY-MM-DD"), "{bad}");

        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_file(&db_path);
    }

    #[test]
    fn query_rejects_bad_engine_before_reading_the_db() {
        // Strict validation like --jobs/--snapshot-format: the engine
        // value fails even though the database path does not exist.
        let err =
            cmd_query(&parse(["query", "--db", "/nonexistent", "--query-engine", "fast"]).unwrap())
                .unwrap_err();
        assert!(err.contains("invalid value for --query-engine"), "{err}");
    }

    #[test]
    fn serve_rejects_bad_options_before_reading_the_db() {
        // Every sizing option fails strict validation even though the
        // database path does not exist — the error names the option, not
        // the missing file.
        for (argv, wanted) in [
            (
                vec!["serve", "--db", "/nonexistent", "--addr", "nonsense"],
                "--addr",
            ),
            (
                vec!["serve", "--db", "/nonexistent", "--workers", "0"],
                "--workers",
            ),
            (
                vec!["serve", "--db", "/nonexistent", "--workers", "many"],
                "--workers",
            ),
            (
                vec!["serve", "--db", "/nonexistent", "--queue-depth", "0"],
                "--queue-depth",
            ),
            (
                vec!["serve", "--db", "/nonexistent", "--request-timeout-ms", "0"],
                "--request-timeout-ms",
            ),
        ] {
            let err = cmd_serve(&parse(argv.clone()).unwrap()).unwrap_err();
            assert!(err.contains(wanted), "{argv:?}: {err}");
            assert!(!err.contains("/nonexistent"), "{argv:?}: {err}");
        }
        // With valid options the snapshot load is what fails.
        let err = cmd_serve(&parse(["serve", "--db", "/nonexistent"]).unwrap()).unwrap_err();
        assert!(err.contains("/nonexistent"), "{err}");
    }
}
