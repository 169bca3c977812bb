//! Text-processing substrate for the RemembERR pipeline.
//!
//! The original study used Python NLP/PDF tooling (`pdftotext`, `camelot`,
//! regular expressions); this crate provides the equivalent building blocks
//! from scratch:
//!
//! * [`tokenize`] / [`word_tokens`] — offset-preserving tokenization of
//!   erratum prose, aware of numbers, hex constants and register names;
//! * [`normalize`] / [`normalized_key`] — stopword removal and light
//!   stemming for duplicate detection;
//! * [`levenshtein`], [`jaccard`], [`title_similarity`] — the similarity
//!   metrics behind the Intel duplicate-detection cascade
//!   ([`title_similarity`] is the one-off convenience form and the tests'
//!   oracle), and [`TitleKey`], a title normalized once and scored against
//!   many with threshold-gated fast paths
//!   ([`TitleKey::similarity_at_least`]) — what every comparison loop uses;
//! * [`Pattern`] / [`PatternSet`] — a token-phrase pattern engine replacing
//!   the paper's regex rules;
//! * [`RuleMatcher`] — an indexed multi-pattern engine that matches a whole
//!   pattern library against a [`PreparedText`] in one pass, pruning
//!   patterns whose anchor token is absent (its token ids come from an
//!   [`Interner`]);
//! * [`AnalyzedCorpus`] / [`AnalyzedDoc`] — the single-pass analysis arena:
//!   tokenizes, normalizes and stems each document's title/text exactly
//!   once (in parallel, in input order) and hands out the views every
//!   downstream stage consumes;
//! * [`highlights`] — the syntax-highlighting assist used during manual
//!   classification;
//! * [`wrap`] / [`reflow`] — document line rendering and its inverse.
//!
//! # Examples
//!
//! ```
//! use rememberr_textkit::{Pattern, title_similarity};
//!
//! # fn main() -> Result<(), rememberr_textkit::PatternError> {
//! let p = Pattern::parse("machine check <2> exception")?;
//! assert!(p.matches("a Machine Check Architecture exception occurs"));
//!
//! let s = title_similarity(
//!     "X87 FDP Value May be Saved Incorrectly",
//!     "x87 FDP Values Might Be Saved Incorrectly",
//! );
//! assert!(s > 0.9);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::unnecessary_to_owned)]
#![deny(clippy::redundant_clone)]

mod corpus;
mod highlight;
mod intern;
mod matcher;
mod normalize;
mod pattern;
mod similarity;
mod tokenize;
mod wrap;

pub use corpus::{AnalyzedCorpus, AnalyzedDoc, DocText};
pub use highlight::{
    highlights, highlights_prepared, highlights_prepared_filtered, render_ansi, render_markup,
    Highlight,
};
pub use intern::Interner;
pub use matcher::{MatchSet, RuleMatcher};
pub use normalize::{is_stopword, normalize, normalized_key, stem, stem_owned};
pub use pattern::{Pattern, PatternError, PatternSet, PreparedText, Span};
pub use similarity::{
    jaccard, levenshtein, levenshtein_similarity, title_similarity, ThresholdCheck, TitleKey,
};
pub use tokenize::{tokenize, word_tokens, Token, TokenKind};
pub use wrap::{reflow, reflow_counted, wrap, ReflowStats};
