//! Set-up, the two batch passes, and the accuracy metrics.

use std::fs::File;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use rememberr::{
    evaluate_classification, evaluate_dedup, save_as, CandidateGen, Database, DedupStrategy,
    SnapshotFormat,
};
use rememberr_analysis::{assist_highlights_analyzed, FullReport};
use rememberr_classify::{
    classify_database, classify_database_analyzed, ClassificationRun, FourEyesConfig, HumanOracle,
    MatcherKind, Rules,
};
use rememberr_docgen::{DefectLedger, FieldDefect, SyntheticCorpus};
use rememberr_extract::{extract_corpus, ExtractionReport};

use crate::checks::{fnv1a, Checks};
use crate::metrics::{median, spread, Metrics};
use crate::trace::{Delta, Tracer};
use crate::{Config, Workload};

/// What set-up hands the measured window.
pub struct Inputs {
    /// The seeded synthetic corpus (page streams and ground truth).
    pub corpus: SyntheticCorpus,
    /// The snapshot the workload starts from: the unannotated JSONL
    /// database for `reannotate`.
    pub snapshot: Option<PathBuf>,
    /// Extraction's defect report, when set-up extracted.
    pub defects: Option<ExtractionReport>,
}

/// Builds a workload's inputs: the corpus, plus for `reannotate` the JSONL
/// snapshot `rememberr extract` writes.
///
/// # Errors
///
/// Fails on an invalid corpus spec, unparsable documents, or I/O errors.
pub fn setup(config: &Config, tracer: &mut Tracer) -> Result<Inputs, String> {
    let (corpus, _) = tracer.unit("bench.setup", true, false, |t| {
        t.layer("bench.docgen", "docgen.generate_ms", || {
            crate::generate(config.seed, config.scale)
        })
        .0
    });
    let corpus = corpus?;
    match config.workload {
        Workload::Pipeline => Ok(Inputs {
            corpus,
            snapshot: None,
            defects: None,
        }),
        Workload::Reannotate => {
            let (documents, defects) = extract(&corpus)?;
            let db = Database::from_documents_opts(
                &documents,
                DedupStrategy::default(),
                CandidateGen::default(),
            );
            let path = config.work_dir.join("input.jsonl");
            save(&db, &path, SnapshotFormat::Jsonl)?;
            Ok(Inputs {
                corpus,
                snapshot: Some(path),
                defects: Some(defects),
            })
        }
    }
}

/// The measured batch passes, run block by block between rounds of the
/// daemon phase.
pub struct Passes<'a> {
    config: &'a Config,
    inputs: &'a Inputs,
    /// The snapshot every pass saves.
    out: PathBuf,
    /// Untraced pass wall times, seconds.
    walls: Vec<f64>,
    first_hash: Option<u64>,
    defects: Option<ExtractionReport>,
    /// Passes run so far.
    n: usize,
}

impl<'a> Passes<'a> {
    /// No passes yet; the extraction report is set-up's, if any.
    pub fn new(config: &'a Config, inputs: &'a Inputs) -> Self {
        Passes {
            config,
            inputs,
            out: config.work_dir.join("pass.bin"),
            walls: Vec::new(),
            first_hash: None,
            defects: inputs.defects.clone(),
            n: 0,
        }
    }

    /// The snapshot the passes save.
    pub fn snapshot(&self) -> &Path {
        &self.out
    }

    /// Runs passes until `until`, at least one. In a traced run odd
    /// passes are traced.
    ///
    /// # Errors
    ///
    /// Fails only on I/O errors outside the passes; a failing pass is a
    /// failed check.
    pub fn run_until(
        &mut self,
        until: Instant,
        tracer: &mut Tracer,
        checks: &mut Checks,
    ) -> Result<(), String> {
        let (config, inputs, out) = (self.config, self.inputs, &self.out);
        let mut block = 0;
        while block == 0 || Instant::now() < until {
            block += 1;
            let traced = tracer.enabled() && self.n % 2 == 1;
            if !traced {
                checks.obs_off();
            }
            let (result, wall) =
                tracer.unit("bench.pass", traced, true, |t| match config.workload {
                    Workload::Pipeline => pipeline_pass(t, &inputs.corpus, out),
                    Workload::Reannotate => reannotate_pass(t, inputs, out),
                });
            self.n += 1;
            let pass = match result {
                Ok(pass) => pass,
                Err(e) => {
                    let n = self.n;
                    checks.record(false, || format!("pass {n}: {e}"));
                    continue;
                }
            };
            checks.record(true, String::new);
            if !traced {
                self.walls.push(wall);
            }
            let bytes = read_file(out)?;
            let hash = fnv1a(&bytes);
            let first = *self.first_hash.get_or_insert(hash);
            checks.same_hash(&format!("pass {}", self.n), first, hash);
            checks.snapshot_reloads(&bytes, &pass.db);
            if pass.defects.is_some() {
                self.defects = pass.defects;
            }
        }
        Ok(())
    }

    /// Sets `wall_s`; returns the snapshot the passes saved and the
    /// extraction report (from the passes for `pipeline`, from set-up
    /// otherwise).
    pub fn finish(self, metrics: &mut Metrics) -> (PathBuf, Option<ExtractionReport>) {
        metrics.set("wall_s", median(&self.walls));
        eprintln!(
            "{}: {} untraced passes; wall s {}",
            self.config.workload.name(),
            self.walls.len(),
            spread(&self.walls, 1.0)
        );
        (self.out, self.defects)
    }
}

/// What one pass leaves behind for the checks.
struct PassOutput {
    db: Database,
    defects: Option<ExtractionReport>,
}

/// `pipeline`: page streams → extraction → analyzed dedup → classification
/// → assist → full report → binary snapshot.
fn pipeline_pass(
    t: &mut Tracer,
    corpus: &SyntheticCorpus,
    out: &Path,
) -> Result<PassOutput, String> {
    let (extracted, d) = t.layer("bench.extract", "extract.ms", || extract(corpus));
    let (documents, defects) = extracted?;
    t.add(
        "extract.tokenize_calls",
        d.counter("textkit.tokenize_calls"),
    );
    t.add("extract.defects", defects.total() as f64);

    let ((mut db, arena), d) = t.layer("bench.dedup", "dedup.ms", || {
        Database::from_documents_analyzed(
            &documents,
            DedupStrategy::default(),
            CandidateGen::default(),
        )
    });
    t.add("dedup.tokenize_calls", d.counter("textkit.tokenize_calls"));
    t.add(
        "dedup.comparisons_made",
        d.counter("dedup.comparisons_made"),
    );
    t.add("dedup.cascade_merges", d.counter("dedup.cascade_merges"));

    let ((rules, run), d) = t.layer("bench.classify", "classify.ms", || {
        let rules = Rules::standard();
        let run = classify_database_analyzed(
            &mut db,
            &rules,
            HumanOracle::Simulated(&corpus.truth),
            &FourEyesConfig::default(),
            MatcherKind::default(),
            &arena,
        );
        (rules, run)
    });
    add_classify(t, &d, &run);

    let (_, assist) = t.layer("bench.assist", "analysis.assist_ms", || {
        black_box(assist_highlights_analyzed(&db, &rules, &arena));
    });
    let report_defects = defects.clone();
    let (_, report) = t.layer("bench.report", "analysis.report_ms", || {
        black_box(FullReport::build(
            &db,
            run.four_eyes.as_ref(),
            Some(report_defects),
        ));
    });
    t.add(
        "analysis.entries_scanned",
        assist.counter("query.entries_scanned") + report.counter("query.entries_scanned"),
    );
    save_pass(t, &db, out)?;
    Ok(PassOutput {
        db,
        defects: Some(defects),
    })
}

/// `reannotate`: unannotated JSONL snapshot → classification → full report
/// → binary snapshot.
fn reannotate_pass(t: &mut Tracer, inputs: &Inputs, out: &Path) -> Result<PassOutput, String> {
    let input = inputs
        .snapshot
        .as_deref()
        .ok_or("reannotate needs an input snapshot")?;
    let (loaded, _) = t.layer("bench.load", "persist.jsonl.load_ms", || load(input));
    let mut db = loaded?;
    t.add("persist.jsonl.bytes", file_len(input) as f64);

    let ((_, run), d) = t.layer("bench.classify", "classify.ms", || {
        let rules = Rules::standard();
        let run = classify_database(
            &mut db,
            &rules,
            HumanOracle::Simulated(&inputs.corpus.truth),
            &FourEyesConfig::default(),
        );
        (rules, run)
    });
    add_classify(t, &d, &run);

    let (_, report) = t.layer("bench.report", "analysis.report_ms", || {
        black_box(FullReport::build(&db, run.four_eyes.as_ref(), None));
    });
    t.add(
        "analysis.entries_scanned",
        report.counter("query.entries_scanned"),
    );
    save_pass(t, &db, out)?;
    Ok(PassOutput { db, defects: None })
}

fn add_classify(t: &mut Tracer, d: &Delta, run: &ClassificationRun) {
    t.add(
        "classify.tokenize_calls",
        d.counter("textkit.tokenize_calls"),
    );
    t.add(
        "classify.pattern_evals",
        d.counter("classify.pattern_evals"),
    );
    t.add(
        "classify.patterns_pruned",
        d.counter("classify.patterns_pruned"),
    );
    let stats = run.stats;
    t.add(
        "classify.auto_share",
        stats.auto_decided as f64 / stats.raw_decisions.max(1) as f64,
    );
}

fn save_pass(t: &mut Tracer, db: &Database, out: &Path) -> Result<(), String> {
    t.layer("bench.save", "persist.binary.save_ms", || {
        save(db, out, SnapshotFormat::Binary)
    })
    .0?;
    t.add("persist.binary.bytes", file_len(out) as f64);
    Ok(())
}

fn extract(
    corpus: &SyntheticCorpus,
) -> Result<(Vec<rememberr_model::ErrataDocument>, ExtractionReport), String> {
    extract_corpus(corpus.rendered.iter().map(|r| (r.design, r.text.as_str())))
        .map_err(|e| format!("extraction: {e}"))
}

/// Saves a snapshot file the way the CLI's `--out` does.
pub(crate) fn save(db: &Database, path: &Path, format: SnapshotFormat) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    save_as(db, file, format).map_err(|e| format!("{}: {e}", path.display()))
}

/// Loads a snapshot file the way the CLI's `--db` does.
pub(crate) fn load(path: &Path) -> Result<Database, String> {
    let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    rememberr::load(file).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_file(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))
}

pub(crate) fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Scores the database the workload delivers against docgen's ground
/// truth: pairwise dedup precision and recall, classification micro-F1,
/// and the share of injected document defects extraction detected.
pub fn quality(
    corpus: &SyntheticCorpus,
    snapshot: &Path,
    defects: Option<&ExtractionReport>,
    checks: &mut Checks,
    metrics: &mut Metrics,
) {
    let db = match load(snapshot) {
        Ok(db) => db,
        Err(e) => {
            checks.record(false, || format!("quality: {e}"));
            return;
        }
    };
    let dedup = evaluate_dedup(&db, &corpus.truth);
    metrics.set("dedup_precision", dedup.pairs.precision());
    metrics.set("dedup_recall", dedup.pairs.recall());
    let classes = evaluate_classification(&db, &corpus.truth);
    metrics.set("classify_micro_f1", classes.overall.f1());
    match defects {
        Some(report) => metrics.set(
            "defect_recall",
            defect_recall(&corpus.truth.defects, report),
        ),
        None => {
            checks.record(false, || "no extraction report to score".to_string());
        }
    }
}

/// Share of the injected defects the extraction report names (1 when
/// nothing was injected).
pub fn defect_recall(ledger: &DefectLedger, report: &ExtractionReport) -> f64 {
    let found = ledger
        .double_added
        .iter()
        .filter(|id| report.double_added.contains(id))
        .count()
        + ledger
            .unmentioned
            .iter()
            .filter(|id| report.unmentioned.contains(id))
            .count()
        + ledger
            .name_collisions
            .iter()
            .filter(|c| report.name_collisions.contains(c))
            .count()
        + ledger
            .field_defects
            .iter()
            .filter(|(id, kind)| {
                let fields = match kind {
                    FieldDefect::DuplicateWorkaround => &report.duplicate_fields,
                    FieldDefect::MissingImplications | FieldDefect::MissingWorkaround => {
                        &report.missing_fields
                    }
                };
                fields.iter().any(|(e, _)| e == id)
            })
            .count()
        + ledger
            .wrong_msr
            .iter()
            .filter(|id| report.inconsistent_msrs.iter().any(|(e, _)| e == *id))
            .count()
        + ledger
            .intra_doc_pairs
            .iter()
            .filter(|p| report.intra_doc_duplicates.contains(p))
            .count();
    match ledger.total() {
        0 => 1.0,
        total => found as f64 / total as f64,
    }
}
