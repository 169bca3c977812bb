//! One-pass pipeline equivalence: the shared corpus-analysis arena
//! (`Database::from_documents_analyzed` → `classify_database_analyzed` →
//! `assist_highlights_analyzed`) must be indistinguishable from the
//! per-stage pipeline that re-derives lexical features in every stage —
//! byte-identical database JSON, identical `DedupStats`, `DecisionStats`
//! and assist summaries, at single- and multi-worker counts — while
//! tokenizing each database entry exactly once (the
//! `textkit.tokenize_calls` audit counter). Extraction is audited the same
//! way: one title normalization per extracted erratum, and a committed
//! per-scale ceiling on the edit-distance DPs its intra-document duplicate
//! scan runs.

use std::num::NonZeroUsize;
use std::sync::Mutex;

use rememberr::{save, CandidateGen, Database, DedupStats, DedupStrategy};
use rememberr_analysis::{assist_highlights, assist_highlights_analyzed, AssistSummary};
use rememberr_classify::{
    classify_database_analyzed, classify_database_with, DecisionStats, FourEyesConfig, HumanOracle,
    MatcherKind, Rules,
};
use rememberr_docgen::{CorpusSpec, SyntheticCorpus};
use rememberr_extract::extract_corpus;

/// Committed ceilings on `extract.title_dp_runs` (same-document title pairs
/// whose threshold check had to run the edit-distance DP) at corpus scales
/// 0.25 / 0.5 / 1.0. It reads 0 at every scale: the length and trimmed
/// prefix/suffix bounds settle every generated pair. The count is a pure
/// function of the seeded corpus, so any increase is a real change in the
/// scan, not noise.
const TITLE_DP_CEILINGS: [(f64, u64); 3] = [(0.25, 0), (0.5, 0), (1.0, 0)];

/// The tests mutate process-global state (worker count, obs counters), so
/// they serialize on this lock.
static GLOBAL: Mutex<()> = Mutex::new(());

struct RunOutput {
    db_bytes: Vec<u8>,
    dedup_stats: DedupStats,
    decision_stats: DecisionStats,
    assist: AssistSummary,
}

/// One full pipeline run (dedup → classify → assist) in either mode over
/// pre-built documents.
fn run_pipeline(corpus: &SyntheticCorpus, rules: &Rules, one_pass: bool) -> RunOutput {
    let (db, run, assist) = if one_pass {
        let (mut db, arena) = Database::from_documents_analyzed(
            &corpus.structured,
            DedupStrategy::default(),
            CandidateGen::default(),
        );
        let run = classify_database_analyzed(
            &mut db,
            rules,
            HumanOracle::Simulated(&corpus.truth),
            &FourEyesConfig::default(),
            MatcherKind::default(),
            &arena,
        );
        let assist = assist_highlights_analyzed(&db, rules, &arena);
        (db, run, assist)
    } else {
        let mut db = Database::from_documents_opts(
            &corpus.structured,
            DedupStrategy::default(),
            CandidateGen::default(),
        );
        let run = classify_database_with(
            &mut db,
            rules,
            HumanOracle::Simulated(&corpus.truth),
            &FourEyesConfig::default(),
            MatcherKind::default(),
        );
        let assist = assist_highlights(&db, rules);
        (db, run, assist)
    };
    let mut db_bytes = Vec::new();
    save(&db, &mut db_bytes).expect("database serializes");
    RunOutput {
        db_bytes,
        dedup_stats: db.dedup_stats(),
        decision_stats: run.stats,
        assist,
    }
}

#[test]
fn one_pass_pipeline_matches_per_stage_at_every_worker_count() {
    let _guard = GLOBAL.lock().unwrap();
    let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.25));
    let rules = Rules::standard();

    let mut baseline: Option<RunOutput> = None;
    for jobs in [1usize, 8] {
        rememberr_par::set_jobs(NonZeroUsize::new(jobs));
        for one_pass in [false, true] {
            let mode = if one_pass { "one-pass" } else { "per-stage" };
            let out = run_pipeline(&corpus, &rules, one_pass);
            match &baseline {
                None => baseline = Some(out),
                Some(want) => {
                    assert_eq!(
                        out.db_bytes, want.db_bytes,
                        "database JSON diverged ({mode}, jobs={jobs})"
                    );
                    assert_eq!(
                        out.dedup_stats, want.dedup_stats,
                        "DedupStats diverged ({mode}, jobs={jobs})"
                    );
                    assert_eq!(
                        out.decision_stats, want.decision_stats,
                        "DecisionStats diverged ({mode}, jobs={jobs})"
                    );
                    assert_eq!(
                        out.assist, want.assist,
                        "assist summary diverged ({mode}, jobs={jobs})"
                    );
                }
            }
        }
    }
    rememberr_par::set_jobs(None);

    let base = baseline.expect("at least one run");
    assert!(base.dedup_stats.entries > 100, "{:?}", base.dedup_stats);
    assert!(base.assist.total_highlights > 0, "{:?}", base.assist);
}

#[test]
fn one_pass_pipeline_tokenizes_each_entry_exactly_once() {
    let _guard = GLOBAL.lock().unwrap();
    let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.25));
    let rules = Rules::standard();

    rememberr_obs::reset();
    rememberr_obs::enable();
    let (mut db, arena) = Database::from_documents_analyzed(
        &corpus.structured,
        DedupStrategy::default(),
        CandidateGen::default(),
    );
    classify_database_analyzed(
        &mut db,
        &rules,
        HumanOracle::Simulated(&corpus.truth),
        &FourEyesConfig::default(),
        MatcherKind::default(),
        &arena,
    );
    assist_highlights_analyzed(&db, &rules, &arena);
    let snapshot = rememberr_obs::snapshot();
    rememberr_obs::disable();
    rememberr_obs::reset();

    let calls = snapshot
        .counters
        .get("textkit.tokenize_calls")
        .copied()
        .unwrap_or(0);
    assert_eq!(
        calls,
        db.len() as u64,
        "the one-pass pipeline must tokenize each erratum exactly once"
    );
}

#[test]
fn extraction_normalizes_each_title_once_and_stays_under_the_dp_ceilings() {
    let _guard = GLOBAL.lock().unwrap();
    for (scale, dp_ceiling) in TITLE_DP_CEILINGS {
        let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(scale));

        rememberr_obs::reset();
        rememberr_obs::enable();
        let (documents, _) =
            extract_corpus(corpus.rendered.iter().map(|r| (r.design, r.text.as_str())))
                .expect("generated corpora extract");
        let snapshot = rememberr_obs::snapshot();
        rememberr_obs::disable();
        rememberr_obs::reset();

        let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
        let errata: usize = documents.iter().map(|d| d.errata.len()).sum();
        assert_eq!(
            counter("textkit.tokenize_calls"),
            errata as u64,
            "scale {scale}: extraction must normalize each erratum title exactly once"
        );
        let dp_runs = counter("extract.title_dp_runs");
        assert!(
            dp_runs <= dp_ceiling,
            "scale {scale}: extract.title_dp_runs {dp_runs} exceeds the committed ceiling {dp_ceiling}"
        );
    }
}
