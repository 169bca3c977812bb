//! Cascade-scorer equivalence: the bounded (default) and exhaustive
//! scorers produce byte-identical database JSON and identical
//! `cascade_merges` on the full 28-document paper corpus, at every worker
//! count — while the bounded path pays for at least 5× fewer full
//! edit-distance evaluations. Both the bounded path's evaluations and the
//! number of candidate pairs the cascade enumerates stay under committed
//! per-scale ceilings.
//!
//! This is the correctness contract of the dedup fast paths: they are
//! throughput knobs, never semantics knobs.

use std::num::NonZeroUsize;

use rememberr::{save, CandidateGen, Database, DedupStats, DedupStrategy};
use rememberr_docgen::{CorpusSpec, SyntheticCorpus};
use rememberr_extract::extract_corpus;
use rememberr_model::ErrataDocument;

/// Committed ceilings over the generated documents at corpus scales 0.25 /
/// 0.5 / 1.0, as `(scale, bounded comparisons, candidate pairs)`: the
/// bounded scorer's full edit-distance comparisons, and the cascade's
/// candidate pairs (the exhaustive scorer pays one comparison per pair).
/// Both are pure functions of the seeded corpus, so any increase is a real
/// regression, not noise — a grown description group fails the pair
/// ceiling instead of hiding a quadratic.
const COMPARISON_CEILINGS: [(f64, u64, u64); 3] = [(0.25, 0, 33), (0.5, 0, 56), (1.0, 0, 104)];

fn paper_documents() -> Vec<ErrataDocument> {
    let corpus = SyntheticCorpus::generate(&CorpusSpec::paper());
    let (documents, _defects) =
        extract_corpus(corpus.rendered.iter().map(|r| (r.design, r.text.as_str())))
            .expect("seeded corpus extracts");
    documents
}

fn run(documents: &[ErrataDocument], gen: CandidateGen, jobs: usize) -> (Vec<u8>, DedupStats) {
    rememberr_par::set_jobs(NonZeroUsize::new(jobs));
    let db = Database::from_documents_opts(documents, DedupStrategy::default(), gen);
    rememberr_par::set_jobs(None);
    let mut bytes = Vec::new();
    save(&db, &mut bytes).expect("database serializes");
    (bytes, db.dedup_stats())
}

#[test]
fn indexed_matches_exhaustive_bytewise_at_every_worker_count() {
    let documents = paper_documents();
    let (oracle_bytes, oracle_stats) = run(&documents, CandidateGen::Exhaustive, 1);
    assert!(oracle_stats.cascade_merges > 0, "{oracle_stats:?}");

    let mut bounded_stats = None;
    for jobs in [1usize, 8] {
        for gen in [CandidateGen::Bounded, CandidateGen::Exhaustive] {
            let (bytes, stats) = run(&documents, gen, jobs);
            assert_eq!(
                bytes, oracle_bytes,
                "database JSON differs for {gen:?} at jobs={jobs}"
            );
            assert_eq!(
                stats.cascade_merges, oracle_stats.cascade_merges,
                "cascade_merges differ for {gen:?} at jobs={jobs}"
            );
            assert_eq!(stats, oracle_stats, "{gen:?} at jobs={jobs}");
            if gen == CandidateGen::Bounded {
                // Effort diagnostics are themselves jobs-invariant.
                match &bounded_stats {
                    None => bounded_stats = Some(stats),
                    Some(first) => assert_eq!(stats.comparisons_made, first.comparisons_made),
                }
            }
        }
    }

    // The acceptance bar: the bounded path does >= 5x less edit-distance
    // work than the exhaustive reference on the default corpus.
    let bounded = bounded_stats.expect("bounded path ran");
    assert!(
        oracle_stats.comparisons_made >= 5 * bounded.comparisons_made,
        "expected >= 5x reduction: exhaustive {} vs bounded {}",
        oracle_stats.comparisons_made,
        bounded.comparisons_made
    );
}

#[test]
fn obs_counters_report_dedup_effort() {
    let documents = paper_documents();
    rememberr_obs::reset();
    rememberr_obs::enable();
    let _ =
        Database::from_documents_opts(&documents, DedupStrategy::default(), CandidateGen::Bounded);
    let counters = rememberr_obs::snapshot().counters_json();
    rememberr_obs::disable();
    rememberr_obs::reset();
    assert!(counters.contains("dedup.comparisons_made"), "{counters}");
}

#[test]
fn indexed_comparisons_stay_under_the_committed_ceilings() {
    for (scale, ceiling, pair_ceiling) in COMPARISON_CEILINGS {
        let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(scale));
        let stats = |gen| {
            Database::from_documents_opts(&corpus.structured, DedupStrategy::default(), gen)
                .dedup_stats()
        };
        let bounded = stats(CandidateGen::Bounded);
        let exhaustive = stats(CandidateGen::Exhaustive);
        assert_eq!(
            bounded.cascade_merges, exhaustive.cascade_merges,
            "scale {scale}: bounded clustering diverged from the exhaustive reference"
        );
        assert!(
            bounded.comparisons_made <= ceiling,
            "scale {scale}: bounded comparisons_made {} exceeds the committed ceiling {ceiling}",
            bounded.comparisons_made
        );
        assert!(
            exhaustive.comparisons_made <= pair_ceiling,
            "scale {scale}: {} candidate pairs exceed the committed ceiling {pair_ceiling}",
            exhaustive.comparisons_made
        );
    }
}
