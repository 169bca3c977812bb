//! Top-level corpus generation facade.

use rememberr_model::ErrataDocument;

use crate::assemble::{assemble, AssembledCorpus};
use crate::render::{render_document, RenderedDocument};
use crate::spec::CorpusSpec;
use crate::truth::GroundTruth;

/// A complete synthetic corpus: rendered page streams, the structured
/// documents they were rendered from, and ground truth.
///
/// # Examples
///
/// ```
/// use rememberr_docgen::{CorpusSpec, SyntheticCorpus};
///
/// let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.02));
/// assert_eq!(corpus.rendered.len(), 28);
/// assert_eq!(corpus.structured.len(), 28);
/// assert!(corpus.truth.grand_total() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticCorpus {
    /// The specification the corpus was generated from.
    pub spec: CorpusSpec,
    /// Rendered page streams, one per design, in [`rememberr_model::Design::ALL`] order.
    pub rendered: Vec<RenderedDocument>,
    /// The structured documents (what a perfect extraction would recover).
    pub structured: Vec<ErrataDocument>,
    /// Ground truth for evaluation.
    pub truth: GroundTruth,
}

impl SyntheticCorpus {
    /// Generates the corpus for a specification.
    ///
    /// Generation is deterministic: the same spec (including seed) yields a
    /// byte-identical corpus.
    ///
    /// # Panics
    ///
    /// Panics if the specification is not generatable; use
    /// [`SyntheticCorpus::try_generate`] to handle invalid specs gracefully.
    pub fn generate(spec: &CorpusSpec) -> Self {
        Self::try_generate(spec).expect("invalid corpus specification")
    }

    /// Like [`SyntheticCorpus::generate`], but surfaces specification
    /// errors instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns the first violated spec invariant, or why the bug pool
    /// cannot meet the spec's occurrence totals (at very small scales).
    pub fn try_generate(spec: &CorpusSpec) -> Result<Self, crate::spec::SpecError> {
        let _span = rememberr_obs::span!("docgen.generate");
        spec.validate()?;
        let AssembledCorpus { documents, truth } = {
            let _span = rememberr_obs::span!("docgen.assemble");
            assemble(spec)?
        };
        // Rendering is pure per document (all randomness happened during
        // assembly), so documents fan out across workers; par_map returns
        // them in input order, keeping `rendered` aligned with `structured`.
        let rendered: Vec<_> = {
            let _span = rememberr_obs::span!("docgen.render");
            rememberr_par::par_map(&documents, |doc| render_document(doc, &truth.defects))
        };
        rememberr_obs::count("docgen.documents_rendered", rendered.len() as u64);
        rememberr_obs::count(
            "docgen.errata_planted",
            documents.iter().map(|d| d.len() as u64).sum(),
        );
        Ok(Self {
            spec: spec.clone(),
            rendered,
            structured: documents,
            truth,
        })
    }

    /// Generates the full paper-calibrated corpus (2,563 errata).
    pub fn paper() -> Self {
        Self::generate(&CorpusSpec::paper())
    }

    /// Total number of erratum entries across all documents.
    pub fn total_errata(&self) -> usize {
        self.structured.iter().map(|d| d.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rememberr_model::{Design, Vendor};

    #[test]
    fn try_generate_rejects_invalid_specs() {
        let mut spec = CorpusSpec::scaled(0.05);
        spec.intel_propagation = -0.5;
        assert!(SyntheticCorpus::try_generate(&spec).is_err());
        // Valid scales too small to meet the occurrence totals.
        for scale in [0.0001, 0.001, 0.005, 0.01, 0.011, 0.012] {
            let err = SyntheticCorpus::try_generate(&CorpusSpec::scaled(scale))
                .expect_err("the totals cannot be met at this scale");
            assert!(
                matches!(
                    err,
                    crate::SpecError::NoAdjustableBugs(_)
                        | crate::SpecError::TotalUnreachable { .. }
                ),
                "scale {scale}: {err}"
            );
        }
    }

    #[test]
    fn generate_is_deterministic() {
        let spec = CorpusSpec::scaled(0.03);
        let a = SyntheticCorpus::generate(&spec);
        let b = SyntheticCorpus::generate(&spec);
        assert_eq!(a.rendered, b.rendered);
        assert_eq!(a.truth, b.truth);
    }

    #[test]
    fn rendered_and_structured_align() {
        let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.03));
        for (rendered, structured) in corpus.rendered.iter().zip(&corpus.structured) {
            assert_eq!(rendered.design, structured.design);
        }
        assert_eq!(
            corpus
                .structured
                .iter()
                .map(|d| d.design)
                .collect::<Vec<_>>(),
            Design::ALL.to_vec()
        );
    }

    #[test]
    fn paper_scale_totals() {
        // Generating the full corpus is fast enough for a unit test.
        let corpus = SyntheticCorpus::paper();
        assert_eq!(corpus.total_errata(), 2_563);
        assert_eq!(corpus.truth.unique_count(Vendor::Intel), 743);
        assert_eq!(corpus.truth.unique_count(Vendor::Amd), 385);
    }
}
