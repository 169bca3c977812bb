//! Document-defect detection ("errata in errata", Section IV-A).
//!
//! After parsing, the extraction pipeline cross-checks the document against
//! itself and reports every inconsistency class the paper catalogued:
//! double-added revision claims, errata missing from the revision summary,
//! reused erratum names, missing/duplicated fields, erroneous MSR numbers,
//! and intra-document duplicate candidates.

use rememberr_model::{Design, ErrataDocument, ErratumId, MsrRef};
use rememberr_textkit::TitleKey;
use serde::{Deserialize, Serialize};

use crate::errata_parse::ParsedErratum;
use crate::msrscan::inconsistent_refs;

/// Title-similarity threshold above which two same-document errata are
/// flagged as intra-document duplicate candidates even when their bodies
/// differ. Body-identical pairs are always flagged; the high bar here keeps
/// qualifier-only title collisions between distinct bugs out of the report.
pub const INTRA_DOC_SIMILARITY: f64 = 0.9;

/// Defects detected while extracting one document.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExtractionReport {
    /// Erratum numbers claimed as added by more than one revision.
    pub double_added: Vec<ErratumId>,
    /// Errata present in the document but absent from every revision's
    /// added-list.
    pub unmentioned: Vec<ErratumId>,
    /// Numbers that identify two different errata in the same document.
    pub name_collisions: Vec<(Design, u32)>,
    /// Errata missing an expected field (field label in the second slot).
    pub missing_fields: Vec<(ErratumId, String)>,
    /// Errata with a duplicated field (field label in the second slot).
    pub duplicate_fields: Vec<(ErratumId, String)>,
    /// MSR references whose printed number contradicts the registry.
    pub inconsistent_msrs: Vec<(ErratumId, MsrRef)>,
    /// Same-document pairs with near-identical titles or identical bodies.
    pub intra_doc_duplicates: Vec<(Design, u32, u32)>,
    /// Errata whose status field and the summary table of changes disagree
    /// (status says fixed but no table row, or a row without the status).
    pub status_summary_mismatches: Vec<ErratumId>,
}

impl ExtractionReport {
    /// Total number of detected defect instances.
    pub fn total(&self) -> usize {
        self.double_added.len()
            + self.unmentioned.len()
            + self.name_collisions.len()
            + self.missing_fields.len()
            + self.duplicate_fields.len()
            + self.inconsistent_msrs.len()
            + self.intra_doc_duplicates.len()
            + self.status_summary_mismatches.len()
    }

    /// Publishes one counter per defect class to the metrics registry
    /// (`extract.defect_*`). Called once per extracted document, so corpus
    /// counters are the sums over all documents.
    pub fn count_metrics(&self) {
        use rememberr_obs::count;
        count(
            "extract.defect_double_added",
            self.double_added.len() as u64,
        );
        count("extract.defect_unmentioned", self.unmentioned.len() as u64);
        count(
            "extract.defect_name_collisions",
            self.name_collisions.len() as u64,
        );
        count(
            "extract.defect_missing_fields",
            self.missing_fields.len() as u64,
        );
        count(
            "extract.defect_duplicate_fields",
            self.duplicate_fields.len() as u64,
        );
        count(
            "extract.defect_inconsistent_msrs",
            self.inconsistent_msrs.len() as u64,
        );
        count(
            "extract.defect_intra_doc_duplicates",
            self.intra_doc_duplicates.len() as u64,
        );
        count(
            "extract.defect_status_summary_mismatches",
            self.status_summary_mismatches.len() as u64,
        );
    }

    /// Merges another report (for corpus-level aggregation).
    pub fn merge(&mut self, other: ExtractionReport) {
        self.double_added.extend(other.double_added);
        self.unmentioned.extend(other.unmentioned);
        self.name_collisions.extend(other.name_collisions);
        self.missing_fields.extend(other.missing_fields);
        self.duplicate_fields.extend(other.duplicate_fields);
        self.inconsistent_msrs.extend(other.inconsistent_msrs);
        self.intra_doc_duplicates.extend(other.intra_doc_duplicates);
        self.status_summary_mismatches
            .extend(other.status_summary_mismatches);
    }
}

/// Inspects a parsed document and produces its defect report.
pub fn detect_defects(doc: &ErrataDocument, parsed: &[ParsedErratum]) -> ExtractionReport {
    let design = doc.design;
    let mut report = ExtractionReport::default();

    // Double-added: a number in the added-list of two or more revisions.
    let mut claim_count: std::collections::BTreeMap<u32, usize> = Default::default();
    for rev in &doc.revisions {
        let mut seen_in_rev = std::collections::BTreeSet::new();
        for &n in &rev.added {
            if seen_in_rev.insert(n) {
                *claim_count.entry(n).or_default() += 1;
            }
        }
    }
    for (&n, &count) in &claim_count {
        if count >= 2 {
            report.double_added.push(ErratumId::new(design, n));
        }
    }

    // Unmentioned: listed erratum never claimed by any revision.
    for e in &doc.errata {
        if !claim_count.contains_key(&e.id.number) {
            report.unmentioned.push(e.id);
        }
    }
    report.unmentioned.dedup();

    // Name collisions: the same number used by two different errata.
    let mut by_number: std::collections::BTreeMap<u32, usize> = Default::default();
    for e in &doc.errata {
        *by_number.entry(e.id.number).or_default() += 1;
    }
    for (&n, &count) in &by_number {
        if count >= 2 {
            report.name_collisions.push((design, n));
        }
    }

    // Field defects from the parser.
    for p in parsed {
        for &label in &p.missing_fields {
            report
                .missing_fields
                .push((p.erratum.id, label.to_string()));
        }
        for &label in &p.duplicated_fields {
            report
                .duplicate_fields
                .push((p.erratum.id, label.to_string()));
        }
    }

    // Inconsistent MSR numbers.
    for e in &doc.errata {
        for bad in inconsistent_refs(&e.description) {
            report.inconsistent_msrs.push((e.id, bad));
        }
    }

    // Status field vs summary-table cross-check.
    for e in &doc.errata {
        let status_fixed =
            rememberr_model::FixStatus::classify(&e.status) == rememberr_model::FixStatus::Fixed;
        let in_table = doc.fixed_in(e.id.number).is_some();
        if status_fixed != in_table {
            report.status_summary_mismatches.push(e.id);
        }
    }

    // Intra-document duplicate candidates. Each title is normalized once
    // for the whole document; the keys drop with this call. A pair with
    // identical bodies needs no title check, and otherwise the threshold
    // check runs the edit-distance DP only when cheap bounds cannot decide
    // it — bit-identical to `title_similarity(a, b) >= INTRA_DOC_SIMILARITY`.
    let keys: Vec<TitleKey> = doc.errata.iter().map(|e| TitleKey::new(&e.title)).collect();
    let mut dp_runs = 0u64;
    for (i, a) in doc.errata.iter().enumerate() {
        for (j, b) in doc.errata.iter().enumerate().skip(i + 1) {
            if a.id.number == b.id.number {
                continue; // that is a name collision, not a duplicate pair
            }
            let duplicate = a.description == b.description || {
                let check = keys[i].similarity_at_least(&keys[j], INTRA_DOC_SIMILARITY);
                dp_runs += u64::from(check.scored);
                check.passes
            };
            if duplicate {
                report.intra_doc_duplicates.push((
                    design,
                    a.id.number.min(b.id.number),
                    a.id.number.max(b.id.number),
                ));
            }
        }
    }
    rememberr_obs::count("extract.title_dp_runs", dp_runs);

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use rememberr_model::{Date, Erratum, Revision};

    fn erratum(design: Design, n: u32, title: &str, description: &str) -> Erratum {
        Erratum {
            id: ErratumId::new(design, n),
            title: title.to_string(),
            description: description.to_string(),
            implications: "System may hang.".to_string(),
            workaround: "None identified.".to_string(),
            status: "No fix planned.".to_string(),
        }
    }

    fn doc_with(errata: Vec<Erratum>, revisions: Vec<Revision>) -> ErrataDocument {
        ErrataDocument {
            design: Design::Intel6,
            revisions,
            errata,
            fix_summary: Vec::new(),
        }
    }

    fn rev(number: u32, added: Vec<u32>) -> Revision {
        Revision {
            number,
            date: Date::new(2016, 1, 15).unwrap(),
            added,
        }
    }

    #[test]
    fn detects_double_added_and_unmentioned() {
        let doc = doc_with(
            vec![
                erratum(Design::Intel6, 1, "Title one", "d1"),
                erratum(Design::Intel6, 2, "Completely different", "d2"),
            ],
            vec![rev(1, vec![1]), rev(2, vec![1])],
        );
        let report = detect_defects(&doc, &[]);
        assert_eq!(report.double_added, vec![ErratumId::new(Design::Intel6, 1)]);
        assert_eq!(report.unmentioned, vec![ErratumId::new(Design::Intel6, 2)]);
    }

    #[test]
    fn repeat_within_one_revision_is_not_double_added() {
        let doc = doc_with(
            vec![erratum(Design::Intel6, 1, "Title", "d")],
            vec![rev(1, vec![1, 1])],
        );
        let report = detect_defects(&doc, &[]);
        assert!(report.double_added.is_empty());
    }

    #[test]
    fn detects_name_collision() {
        let doc = doc_with(
            vec![
                erratum(Design::Intel6, 143, "First unrelated thing", "a"),
                erratum(Design::Intel6, 143, "Second unrelated thing", "b"),
            ],
            vec![rev(1, vec![143])],
        );
        let report = detect_defects(&doc, &[]);
        assert_eq!(report.name_collisions, vec![(Design::Intel6, 143)]);
        // A collision is not also counted as an intra-document duplicate.
        assert!(report.intra_doc_duplicates.is_empty());
    }

    #[test]
    fn detects_intra_doc_duplicates() {
        let doc = doc_with(
            vec![
                // Same body, varied title: always flagged.
                erratum(
                    Design::Intel6,
                    1,
                    "A Warm Reset May Cause the Processor to Hang",
                    "same body",
                ),
                erratum(
                    Design::Intel6,
                    9,
                    "A Warm Reset Might Cause the Processor to Hang in Some Cases",
                    "same body",
                ),
                // Near-identical titles, different bodies: flagged by the
                // high-similarity rule.
                erratum(Design::Intel6, 3, "USB Transfers May Drop Packets", "b1"),
                erratum(Design::Intel6, 7, "USB Transfers Might Drop Packets", "b2"),
                // Merely related titles with different bodies: not flagged.
                erratum(
                    Design::Intel6,
                    5,
                    "USB Controllers May Reset Unexpectedly",
                    "b3",
                ),
            ],
            vec![rev(1, vec![1, 3, 5, 7, 9])],
        );
        let report = detect_defects(&doc, &[]);
        assert_eq!(
            report.intra_doc_duplicates,
            vec![(Design::Intel6, 1, 9), (Design::Intel6, 3, 7)]
        );
    }

    #[test]
    fn detects_identical_bodies() {
        let doc = doc_with(
            vec![
                erratum(Design::Intel6, 1, "Totally unrelated title A", "same body"),
                erratum(Design::Intel6, 2, "Very different subject B", "same body"),
            ],
            vec![rev(1, vec![1, 2])],
        );
        let report = detect_defects(&doc, &[]);
        assert_eq!(report.intra_doc_duplicates.len(), 1);
    }

    #[test]
    fn detects_inconsistent_msr() {
        let doc = doc_with(
            vec![erratum(
                Design::Intel6,
                1,
                "Title",
                "The TSC register (MSR 0x5010) may stop counting.",
            )],
            vec![rev(1, vec![1])],
        );
        let report = detect_defects(&doc, &[]);
        assert_eq!(report.inconsistent_msrs.len(), 1);
    }

    #[test]
    fn status_summary_cross_check() {
        use rememberr_model::FixedIn;
        let mut fixed = erratum(Design::Intel6, 1, "Title one", "d1");
        fixed.status =
            "For the steppings affected, refer to the Summary Table of Changes.".to_string();
        let unfixed = erratum(Design::Intel6, 2, "Totally different", "d2");
        let mut doc = doc_with(vec![fixed, unfixed], vec![rev(1, vec![1, 2])]);
        // Consistent: erratum 1 fixed with a table row.
        doc.fix_summary = vec![FixedIn {
            number: 1,
            stepping: "C0".into(),
        }];
        assert!(detect_defects(&doc, &[])
            .status_summary_mismatches
            .is_empty());
        // Missing row for a fixed status.
        doc.fix_summary.clear();
        assert_eq!(
            detect_defects(&doc, &[]).status_summary_mismatches,
            vec![ErratumId::new(Design::Intel6, 1)]
        );
        // Spurious row for an unfixed status.
        doc.fix_summary = vec![
            FixedIn {
                number: 1,
                stepping: "C0".into(),
            },
            FixedIn {
                number: 2,
                stepping: "C0".into(),
            },
        ];
        assert_eq!(
            detect_defects(&doc, &[]).status_summary_mismatches,
            vec![ErratumId::new(Design::Intel6, 2)]
        );
    }

    #[test]
    fn merge_and_total() {
        let mut a = ExtractionReport::default();
        a.double_added.push(ErratumId::new(Design::Intel6, 1));
        let mut b = ExtractionReport::default();
        b.unmentioned.push(ErratumId::new(Design::Intel6, 2));
        a.merge(b);
        assert_eq!(a.total(), 2);
    }
}
