//! The intra-document duplicate scan in `detect_defects` against its
//! oracle: the all-pairs loop that scores every same-document pair with
//! `title_similarity`, re-normalizing both titles and running the full
//! Levenshtein each time. Production builds one `TitleKey` per erratum and
//! decides the threshold with `similarity_at_least`; the reported pairs
//! must be identical to the oracle's, order included.

use std::num::NonZeroUsize;
use std::sync::Mutex;

use proptest::prelude::*;
use rememberr_docgen::{CorpusSpec, SyntheticCorpus};
use rememberr_extract::{detect_defects, extract_corpus, INTRA_DOC_SIMILARITY};
use rememberr_model::{Date, Design, ErrataDocument, Erratum, ErratumId, Revision};
use rememberr_textkit::title_similarity;

/// The straightforward all-pairs scan: every pair of distinct numbers whose
/// titles score at least [`INTRA_DOC_SIMILARITY`] or whose bodies are
/// identical, in `(i, j)` order.
fn intra_doc_duplicates_oracle(doc: &ErrataDocument) -> Vec<(Design, u32, u32)> {
    let mut pairs = Vec::new();
    for (i, a) in doc.errata.iter().enumerate() {
        for b in doc.errata.iter().skip(i + 1) {
            if a.id.number == b.id.number {
                continue;
            }
            let near_title = title_similarity(&a.title, &b.title) >= INTRA_DOC_SIMILARITY;
            let same_body = a.description == b.description;
            if near_title || same_body {
                pairs.push((
                    doc.design,
                    a.id.number.min(b.id.number),
                    a.id.number.max(b.id.number),
                ));
            }
        }
    }
    pairs
}

/// `set_jobs` is process-global: the worker-count sweeps serialize on this
/// lock so each extraction really runs at the count it names.
static JOBS: Mutex<()> = Mutex::new(());

/// Extracts the seeded corpus at scales 0.25 and 1.0 under 1, 2 and 8
/// workers; the merged report must list exactly the oracle's pairs over the
/// extracted documents, in document order.
fn assert_corpus_matches_oracle(seed: u64) {
    for scale in [0.25, 1.0] {
        let mut spec = CorpusSpec::scaled(scale);
        spec.seed = seed;
        let corpus = SyntheticCorpus::generate(&spec);
        let mut want: Option<Vec<(Design, u32, u32)>> = None;
        for jobs in [1usize, 2, 8] {
            let (documents, report) = {
                let _guard = JOBS.lock().unwrap();
                rememberr_par::set_jobs(NonZeroUsize::new(jobs));
                let extracted =
                    extract_corpus(corpus.rendered.iter().map(|r| (r.design, r.text.as_str())));
                rememberr_par::set_jobs(None);
                extracted.unwrap()
            };
            let want = want.get_or_insert_with(|| {
                documents
                    .iter()
                    .flat_map(intra_doc_duplicates_oracle)
                    .collect()
            });
            assert!(!want.is_empty(), "seed {seed}, scale {scale}: no pairs");
            assert_eq!(
                &report.intra_doc_duplicates, want,
                "seed {seed}, scale {scale}, jobs {jobs}"
            );
        }
    }
}

#[test]
fn paper_seed_corpora_match_the_oracle() {
    assert_corpus_matches_oracle(CorpusSpec::paper().seed);
}

#[test]
fn seed_7_corpora_match_the_oracle() {
    assert_corpus_matches_oracle(7);
}

#[test]
fn seed_42_corpora_match_the_oracle() {
    assert_corpus_matches_oracle(42);
}

/// Title parts for synthetic documents. A qualifier adds one or two
/// normalized tokens to a base title, and the subject lengths are chosen so
/// that the same qualifier lands just below 0.9 on short titles and just
/// above it on long ones; the modal verbs are stopwords, so swapping them
/// leaves the key unchanged.
const SUBJECTS: [&str; 4] = [
    "USB Transfers",
    "PCIe Link Training at Gen3 Speed",
    "A Warm Reset Issued During Package C6 Entry",
    "Executing VMLAUNCH With Pending Debug Exceptions",
];
const MODALS: [&str; 2] = ["May", "Might"];
const EFFECTS: [&str; 2] = [
    "Drop Packets",
    "Result in Incorrect Machine Check Bank Status Reporting",
];
const QUALIFIERS: [&str; 4] = ["", " in Some Cases", " Rarely", " Intermittently"];
const BODIES: [&str; 3] = [
    "The processor may hang.",
    "A machine check may be logged.",
    "Packets may be lost.",
];

/// Every combination of the title parts.
fn pool_titles() -> Vec<String> {
    let mut titles = Vec::new();
    for subject in SUBJECTS {
        for modal in MODALS {
            for effect in EFFECTS {
                for qualifier in QUALIFIERS {
                    titles.push(format!("{subject} {modal} {effect}{qualifier}"));
                }
            }
        }
    }
    titles
}

const POOL_SIZE: usize = SUBJECTS.len() * MODALS.len() * EFFECTS.len() * QUALIFIERS.len();

#[test]
fn title_pool_straddles_the_threshold() {
    let titles = pool_titles();
    let (mut below, mut above) = (0usize, 0usize);
    for (i, a) in titles.iter().enumerate() {
        for b in &titles[i + 1..] {
            let s = title_similarity(a, b);
            if (0.85..INTRA_DOC_SIMILARITY).contains(&s) {
                below += 1;
            } else if (INTRA_DOC_SIMILARITY..0.95).contains(&s) {
                above += 1;
            }
        }
    }
    assert!(below > 0 && above > 0, "below {below}, above {above}");
}

/// A document whose errata are `(number, title index, body index)`.
fn synthetic_doc(errata: &[(u32, usize, usize)]) -> ErrataDocument {
    let design = Design::Intel6;
    let titles = pool_titles();
    ErrataDocument {
        design,
        revisions: vec![Revision {
            number: 1,
            date: Date::new(2016, 1, 15).unwrap(),
            added: errata.iter().map(|e| e.0).collect(),
        }],
        errata: errata
            .iter()
            .map(|&(number, title, body)| Erratum {
                id: ErratumId::new(design, number),
                title: titles[title].clone(),
                description: BODIES[body].to_string(),
                implications: "System may hang.".to_string(),
                workaround: "None identified.".to_string(),
                status: "No fix planned.".to_string(),
            })
            .collect(),
        fix_summary: Vec::new(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    // Numbers come from a small range so collisions are common; colliding
    // pairs must stay out of the report on both sides.
    #[test]
    fn synthetic_documents_match_the_oracle(
        errata in prop::collection::vec((1u32..12, 0usize..POOL_SIZE, 0usize..BODIES.len()), 0..24),
    ) {
        let doc = synthetic_doc(&errata);
        let got = detect_defects(&doc, &[]).intra_doc_duplicates;
        prop_assert_eq!(got, intra_doc_duplicates_oracle(&doc));
    }
}
