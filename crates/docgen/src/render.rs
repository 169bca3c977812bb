//! Rendering structured documents into page streams.
//!
//! Vendor errata ship as PDFs; what a text-extraction tool sees is a stream
//! of fixed-width lines with page headers/footers, hyphenated line breaks,
//! and loosely tabular revision histories. This module produces exactly
//! that, so the extraction crate has the same reconstruction work the
//! original study's `pdftotext`/`camelot` pipeline had.

use rememberr_model::{Design, ErrataDocument, ErratumId, Vendor};
use rememberr_textkit::wrap;

use crate::truth::{DefectLedger, FieldDefect};

/// Width of a rendered text column, in characters.
pub const LINE_WIDTH: usize = 78;

/// Number of content lines per page (between header and footer).
pub const PAGE_LINES: usize = 48;

/// Marker line opening the revision-history table.
pub const REVISION_HEADING: &str = "REVISION HISTORY";

/// Marker line opening the errata listing.
pub const ERRATA_HEADING: &str = "ERRATA DETAILS";

/// Marker line opening the summary table of changes (fixed errata).
pub const SUMMARY_HEADING: &str = "SUMMARY TABLE OF CHANGES";

/// A rendered document: the design and its page stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RenderedDocument {
    /// The design the document covers.
    pub design: Design,
    /// Page stream: pages separated by form feeds, each page carrying a
    /// header and footer line.
    pub text: String,
}

/// Compresses a sorted number list into `a-b, c, d-e` range notation, with
/// each number printed in the document's identifier form.
pub fn compress_ranges(design: Design, numbers: &[u32]) -> String {
    let form = |n: u32| ErratumId::new(design, n).document_form();
    let mut parts: Vec<String> = Vec::new();
    let mut i = 0;
    while i < numbers.len() {
        let start = numbers[i];
        let mut end = start;
        while i + 1 < numbers.len() && numbers[i + 1] == end + 1 {
            end = numbers[i + 1];
            i += 1;
        }
        if end > start {
            parts.push(format!("{}-{}", form(start), form(end)));
        } else {
            parts.push(form(start));
        }
        i += 1;
    }
    parts.join(", ")
}

/// Renders the content lines of a document (before pagination).
fn content_lines(doc: &ErrataDocument, ledger: &DefectLedger) -> Vec<String> {
    let mut lines = Vec::new();
    let design = doc.design;

    // Title block.
    lines.push(format!(
        "{} Specification Update",
        match design.vendor() {
            Vendor::Intel => "Intel(R) Processor",
            Vendor::Amd => "AMD Processor",
        }
    ));
    lines.push(format!("Document reference: {}", design.reference()));
    lines.push(format!("Covers: {}", design.label()));
    lines.push(String::new());

    // Revision history table.
    lines.push(REVISION_HEADING.to_string());
    lines.push("Rev   Date             Description".to_string());
    for rev in &doc.revisions {
        let desc = if rev.number == 1 {
            if rev.added.is_empty() {
                "Initial release.".to_string()
            } else {
                format!(
                    "Initial release. Added errata {}.",
                    compress_ranges(design, &rev.added)
                )
            }
        } else if rev.added.is_empty() {
            "Editorial changes only.".to_string()
        } else if rev.added.len() == 1 {
            format!("Added erratum {}.", compress_ranges(design, &rev.added))
        } else {
            format!("Added errata {}.", compress_ranges(design, &rev.added))
        };
        // Wrap long descriptions onto continuation lines indented past the
        // date column (as camelot-extracted tables look).
        let head = format!("{:<5} {:<16} ", rev.number, rev.date.to_document_style());
        let wrapped = wrap(&desc, LINE_WIDTH.saturating_sub(head.len()));
        for (i, piece) in wrapped.iter().enumerate() {
            if i == 0 {
                lines.push(format!("{head}{piece}"));
            } else {
                lines.push(format!("{:width$}{piece}", "", width = head.len()));
            }
        }
    }
    lines.push(String::new());

    // Summary table of changes: fixed errata and their steppings.
    lines.push(SUMMARY_HEADING.to_string());
    if doc.fix_summary.is_empty() {
        lines.push("No errata have been fixed in later steppings.".to_string());
    } else {
        lines.push("Erratum    Fixed in stepping".to_string());
        for row in &doc.fix_summary {
            lines.push(format!(
                "{:<10} {}",
                ErratumId::new(design, row.number).document_form(),
                row.stepping
            ));
        }
    }
    lines.push(String::new());

    // Errata.
    lines.push(ERRATA_HEADING.to_string());
    lines.push(String::new());
    for erratum in &doc.errata {
        let id_form = erratum.id.document_form();
        // Header: identifier, two spaces, title (wrapped with indent).
        let title_lines = wrap(&erratum.title, LINE_WIDTH.saturating_sub(id_form.len() + 2));
        for (i, piece) in title_lines.iter().enumerate() {
            if i == 0 {
                lines.push(format!("{id_form}  {piece}"));
            } else {
                lines.push(format!("{:width$}{piece}", "", width = id_form.len() + 2));
            }
        }

        let mut field = |label: &str, text: &str| {
            if text.trim().is_empty() {
                return; // missing-field defect: section omitted entirely
            }
            let first_prefix = format!("{label}: ");
            let wrapped = wrap(text, LINE_WIDTH.saturating_sub(first_prefix.len()));
            for (i, piece) in wrapped.iter().enumerate() {
                if i == 0 {
                    lines.push(format!("{first_prefix}{piece}"));
                } else {
                    lines.push(format!("{:width$}{piece}", "", width = first_prefix.len()));
                }
            }
        };

        field("Problem", &erratum.description);
        field("Implication", &erratum.implications);
        field("Workaround", &erratum.workaround);
        // Duplicated-field defect: the workaround section appears twice.
        let duplicated = ledger
            .field_defects
            .iter()
            .any(|(id, kind)| *id == erratum.id && *kind == FieldDefect::DuplicateWorkaround);
        if duplicated {
            field("Workaround", &erratum.workaround);
        }
        field("Status", &erratum.status);
        lines.push(String::new());
    }

    lines
}

/// Renders a document to its paginated page stream.
pub fn render_document(doc: &ErrataDocument, ledger: &DefectLedger) -> RenderedDocument {
    let lines = content_lines(doc, ledger);
    let mut out = String::new();
    let total_pages = lines.len().div_ceil(PAGE_LINES).max(1);
    for (page_no, chunk) in lines.chunks(PAGE_LINES).enumerate() {
        if page_no > 0 {
            out.push('\u{c}'); // form feed between pages
        }
        out.push_str(&format!(
            "{}    Specification Update    Rev. {}\n",
            doc.design.reference(),
            doc.revisions.last().map_or(0, |r| r.number)
        ));
        out.push('\n');
        for line in chunk {
            out.push_str(line);
            out.push('\n');
        }
        out.push('\n');
        out.push_str(&format!("Page {} of {}\n", page_no + 1, total_pages));
    }
    RenderedDocument {
        design: doc.design,
        text: out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assemble::assemble;
    use crate::spec::CorpusSpec;

    fn rendered_small() -> Vec<RenderedDocument> {
        let corpus = assemble(&CorpusSpec::scaled(0.05)).unwrap();
        corpus
            .documents
            .iter()
            .map(|d| render_document(d, &corpus.truth.defects))
            .collect()
    }

    #[test]
    fn pages_have_headers_and_footers() {
        for doc in rendered_small() {
            let pages: Vec<&str> = doc.text.split('\u{c}').collect();
            assert!(!pages.is_empty());
            for (i, page) in pages.iter().enumerate() {
                assert!(
                    page.starts_with(doc.design.reference()),
                    "page {i} of {} lacks header",
                    doc.design
                );
                assert!(page.contains(&format!("Page {} of", i + 1)));
            }
        }
    }

    #[test]
    fn lines_respect_width() {
        for doc in rendered_small() {
            for line in doc.text.lines() {
                assert!(
                    line.len() <= LINE_WIDTH + 2,
                    "{}: line too long: {line:?}",
                    doc.design
                );
            }
        }
    }

    #[test]
    fn headings_present() {
        for doc in rendered_small() {
            assert!(doc.text.contains(REVISION_HEADING), "{}", doc.design);
            assert!(doc.text.contains(ERRATA_HEADING), "{}", doc.design);
        }
    }

    #[test]
    fn every_erratum_id_appears() {
        let corpus = assemble(&CorpusSpec::scaled(0.05)).unwrap();
        for doc in &corpus.documents {
            let rendered = render_document(doc, &corpus.truth.defects);
            for e in &doc.errata {
                assert!(
                    rendered.text.contains(&e.id.document_form()),
                    "{} missing {}",
                    doc.design,
                    e.id
                );
            }
        }
    }

    #[test]
    fn summary_table_lists_fixed_errata() {
        let corpus = assemble(&CorpusSpec::paper()).unwrap();
        let doc = corpus
            .documents
            .iter()
            .find(|d| !d.fix_summary.is_empty())
            .expect("some document has fixed errata");
        let rendered = render_document(doc, &corpus.truth.defects);
        assert!(rendered.text.contains(SUMMARY_HEADING));
        let first = &doc.fix_summary[0];
        let form = rememberr_model::ErratumId::new(doc.design, first.number).document_form();
        assert!(
            rendered
                .text
                .contains(&format!("{form:<10} {}", first.stepping)),
            "summary row for {form} missing"
        );
    }

    #[test]
    fn compress_ranges_output() {
        let d = Design::Amd19h;
        assert_eq!(compress_ranges(d, &[]), "");
        assert_eq!(compress_ranges(d, &[5]), "5");
        assert_eq!(compress_ranges(d, &[1, 2, 3]), "1-3");
        assert_eq!(compress_ranges(d, &[1, 2, 4, 7, 8]), "1-2, 4, 7-8");
        let i = Design::Intel6;
        assert_eq!(compress_ranges(i, &[1, 2, 3]), "SKL001-SKL003");
    }

    /// Strips pagination (headers/footers) so block-level assertions are
    /// independent of where page breaks fall.
    fn depaginated(text: &str) -> String {
        let mut content = Vec::new();
        for page in text.split('\u{c}') {
            let mut lines: Vec<&str> = page.split('\n').collect();
            if lines.last() == Some(&"") {
                lines.pop();
            }
            content.extend(lines[2..lines.len() - 2].iter().copied());
        }
        content.join("\n")
    }

    fn erratum_block(text: &str, id_form: &str) -> String {
        let flat = depaginated(text);
        let start = flat.find(&format!("{id_form}  ")).expect("block start");
        let rest = &flat[start..];
        let end = rest.find("\n\n").unwrap_or(rest.len());
        rest[..end].to_string()
    }

    #[test]
    fn duplicated_workaround_renders_twice() {
        let corpus = assemble(&CorpusSpec::paper()).unwrap();
        let dup = corpus
            .truth
            .defects
            .field_defects
            .iter()
            .find(|(_, k)| *k == FieldDefect::DuplicateWorkaround)
            .expect("a duplicate-workaround defect exists");
        let doc = &corpus.documents[dup.0.design.index()];
        let rendered = render_document(doc, &corpus.truth.defects);
        let block = erratum_block(&rendered.text, &dup.0.document_form());
        assert_eq!(block.matches("Workaround: ").count(), 2, "block: {block}");
    }

    #[test]
    fn missing_fields_render_nothing() {
        let corpus = assemble(&CorpusSpec::paper()).unwrap();
        let missing = corpus
            .truth
            .defects
            .field_defects
            .iter()
            .find(|(_, k)| *k == FieldDefect::MissingWorkaround)
            .expect("a missing-workaround defect exists");
        let doc = &corpus.documents[missing.0.design.index()];
        let rendered = render_document(doc, &corpus.truth.defects);
        let block = erratum_block(&rendered.text, &missing.0.document_form());
        assert!(!block.contains("Workaround: "));
    }
}
