//! String and token-set similarity metrics.
//!
//! The Intel duplicate detector ranks candidate pairs by title similarity
//! (Section IV-A: "title similarity is a strong indicator of potential
//! duplicates"). We provide Levenshtein distance (banded, early-exit),
//! Jaccard similarity over token sets, and their composite blend:
//! [`title_similarity`] on two raw titles, or [`TitleKey`] for titles
//! normalized once and compared many times.

use std::collections::BTreeSet;

use crate::normalize::normalize;

/// Levenshtein edit distance between two strings, by bytes.
///
/// Uses the classic two-row dynamic program. If `cutoff` is `Some(k)` and
/// the distance provably exceeds `k`, returns `k + 1` early.
pub fn levenshtein(a: &str, b: &str, cutoff: Option<usize>) -> usize {
    let a = a.as_bytes();
    let b = b.as_bytes();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    if let Some(k) = cutoff {
        if a.len().abs_diff(b.len()) > k {
            return k + 1;
        }
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        let mut row_min = cur[0];
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
            row_min = row_min.min(cur[j + 1]);
        }
        if let Some(k) = cutoff {
            if row_min > k {
                return k + 1;
            }
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Normalized Levenshtein similarity in `[0, 1]` (1 = identical).
pub fn levenshtein_similarity(a: &str, b: &str) -> f64 {
    let max_len = a.len().max(b.len());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b, None) as f64 / max_len as f64
}

/// Jaccard similarity between two token multiset *supports* (sets).
pub fn jaccard<T: Ord>(a: impl IntoIterator<Item = T>, b: impl IntoIterator<Item = T>) -> f64 {
    let sa: BTreeSet<T> = a.into_iter().collect();
    let sb: BTreeSet<T> = b.into_iter().collect();
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let inter = sa.intersection(&sb).count();
    let union = sa.len() + sb.len() - inter;
    inter as f64 / union as f64
}

/// The composite blend: `0.6 * jaccard + 0.4 * levenshtein_similarity`.
///
/// Every similarity path (direct, [`TitleKey`], threshold-gated) funnels
/// through this one expression, so threshold short-cuts can reason about the exact
/// floating-point value the full computation would produce.
pub(crate) fn composite(jaccard: f64, levenshtein: f64) -> f64 {
    0.6 * jaccard + 0.4 * levenshtein
}

/// Outcome of a threshold-gated similarity check: whether the pair clears
/// the threshold, and whether deciding that required the Levenshtein
/// dynamic program (as opposed to a cheap bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThresholdCheck {
    /// `similarity(a, b) >= threshold`, decided exactly.
    pub passes: bool,
    /// True if the edit-distance dynamic program had to run; false when a
    /// constant-time bound settled the question.
    pub scored: bool,
}

/// Upper bound on the Levenshtein distance: after stripping the longest
/// common prefix and suffix, the remainders can always be aligned with
/// `max(|rem_a|, |rem_b|)` substitutions/insertions/deletions.
fn trimmed_distance_bound(a: &[u8], b: &[u8]) -> usize {
    let prefix = a.iter().zip(b).take_while(|(x, y)| x == y).count();
    let (a, b) = (&a[prefix..], &b[prefix..]);
    let suffix = a
        .iter()
        .rev()
        .zip(b.iter().rev())
        .take_while(|(x, y)| x == y)
        .count();
    (a.len() - suffix).max(b.len() - suffix)
}

/// Decides `composite(j, levenshtein_similarity(a, b)) >= threshold` with
/// the exact result of the full computation, running the edit-distance
/// dynamic program only when cheap bounds cannot settle it.
///
/// Soundness: `composite` is monotone non-increasing in the edit distance
/// `d` (every floating-point step — division, subtraction, scaled blend —
/// is monotone), and `|len(a) - len(b)| <= d <= trimmed_distance_bound`.
/// Evaluating the *same* float expression at the bounds therefore brackets
/// the true value; only when the bracket straddles the threshold does the
/// banded DP run, with its cutoff set to the largest distance that still
/// passes — the exact band [`levenshtein`] exits early on.
pub(crate) fn decide_threshold(jaccard: f64, a: &str, b: &str, threshold: f64) -> ThresholdCheck {
    let max_len = a.len().max(b.len());
    if max_len == 0 {
        return ThresholdCheck {
            passes: composite(jaccard, 1.0) >= threshold,
            scored: false,
        };
    }
    // The exact similarity the full computation would produce for a
    // hypothetical distance d — same expression, same rounding.
    let sim_at = |d: usize| composite(jaccard, 1.0 - d as f64 / max_len as f64);
    let d_lower = a.len().abs_diff(b.len());
    if sim_at(d_lower) < threshold {
        // Even the most favorable distance fails: hopeless pair.
        return ThresholdCheck {
            passes: false,
            scored: false,
        };
    }
    let d_upper = trimmed_distance_bound(a.as_bytes(), b.as_bytes());
    if sim_at(d_upper) >= threshold {
        // Even the least favorable distance passes: certain pair.
        return ThresholdCheck {
            passes: true,
            scored: false,
        };
    }
    // sim_at is monotone non-increasing, sim_at(d_lower) passes and
    // sim_at(d_upper) fails: binary-search the largest passing distance.
    let (mut lo, mut hi) = (d_lower, d_upper);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if sim_at(mid) >= threshold {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let d = levenshtein(a, b, Some(lo));
    ThresholdCheck {
        passes: d <= lo,
        scored: true,
    }
}

/// Composite title similarity in `[0, 1]`, the ranking key of the Intel
/// duplicate-detection cascade.
///
/// Titles are normalized (stopwords out, light stemming), then the score is
/// a blend of token Jaccard and character-level Levenshtein similarity on
/// the normalized keys: Jaccard captures word permutations, Levenshtein
/// captures near-identical phrasing with small in-word edits.
///
/// This is the convenience form, and the oracle the tests check the fast
/// paths against; no pipeline stage calls it. Normalization dominates the
/// cost of a single comparison, so loops (the dedup cascade, the
/// intra-document duplicate scan in extraction) build one [`TitleKey`] per
/// title and decide thresholds with [`TitleKey::similarity_at_least`].
pub fn title_similarity(a: &str, b: &str) -> f64 {
    TitleKey::new(a).similarity(&TitleKey::new(b))
}

/// A title's precomputed similarity key: its normalized token set and
/// joined normalized form, computed once so repeated comparisons skip
/// re-normalization.
///
/// `TitleKey::new(a).similarity(&TitleKey::new(b))` equals
/// `title_similarity(a, b)` exactly; the type only hoists the
/// tokenize/stopword/stem work out of comparison loops.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TitleKey {
    /// Distinct normalized tokens (the Jaccard operand).
    tokens: BTreeSet<String>,
    /// Normalized tokens joined with single spaces (the Levenshtein operand,
    /// identical to [`crate::normalized_key`] of the title).
    joined: String,
}

impl TitleKey {
    /// Normalizes `title` once into its comparison key.
    #[must_use]
    pub fn new(title: &str) -> Self {
        rememberr_obs::count("textkit.tokenize_calls", 1);
        Self::from_normalized(normalize(title))
    }

    /// Builds the key from already-normalized tokens (stopwords removed,
    /// stemmed, in title order) without re-tokenizing. The invariant that
    /// `joined` equals [`crate::normalized_key`] of the original title holds
    /// exactly when `normalized` is what [`crate::normalize`] returned for
    /// it, which is how [`crate::AnalyzedCorpus`] calls this.
    pub(crate) fn from_normalized(normalized: Vec<String>) -> Self {
        let joined = normalized.join(" ");
        Self {
            tokens: normalized.into_iter().collect(),
            joined,
        }
    }

    /// The joined normalized form — byte-identical to
    /// [`crate::normalized_key`] of the original title, so it doubles as the
    /// exact-match clustering key.
    #[must_use]
    pub fn joined(&self) -> &str {
        &self.joined
    }

    /// The distinct normalized tokens (the Jaccard operand), sorted.
    #[must_use]
    pub fn tokens(&self) -> &BTreeSet<String> {
        &self.tokens
    }

    /// Composite similarity against another precomputed key; same blend and
    /// same result as [`title_similarity`] on the original titles.
    #[must_use]
    pub fn similarity(&self, other: &Self) -> f64 {
        let l = levenshtein_similarity(&self.joined, &other.joined);
        composite(self.jaccard(other), l)
    }

    /// Token-set Jaccard similarity against another key (the first operand
    /// of the composite blend).
    #[must_use]
    pub fn jaccard(&self, other: &Self) -> f64 {
        let inter = self.tokens.intersection(&other.tokens).count();
        let union = self.tokens.len() + other.tokens.len() - inter;
        if union == 0 {
            1.0
        } else {
            inter as f64 / union as f64
        }
    }

    /// Decides `self.similarity(other) >= threshold` exactly, without
    /// always paying for the full edit-distance computation.
    ///
    /// The threshold is threaded into [`levenshtein`]'s cutoff band: the
    /// dynamic program runs only when constant-time distance bounds cannot
    /// settle the comparison, and then exits as soon as the distance
    /// provably leaves the band that could still pass. `passes` is
    /// bit-for-bit identical to comparing [`TitleKey::similarity`] against
    /// `threshold`; `scored` reports whether the dynamic program ran.
    #[must_use]
    pub fn similarity_at_least(&self, other: &Self, threshold: f64) -> ThresholdCheck {
        decide_threshold(self.jaccard(other), &self.joined, &other.joined, threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("", "", None), 0);
        assert_eq!(levenshtein("abc", "", None), 3);
        assert_eq!(levenshtein("kitten", "sitting", None), 3);
        assert_eq!(levenshtein("flaw", "lawn", None), 2);
    }

    #[test]
    fn levenshtein_cutoff_early_exit() {
        assert_eq!(levenshtein("aaaaaaaaaa", "bbbbbbbbbb", Some(3)), 4);
        assert_eq!(levenshtein("short", "muchlongerstring", Some(2)), 3);
        // Within cutoff: exact value.
        assert_eq!(levenshtein("kitten", "sitting", Some(5)), 3);
    }

    #[test]
    fn jaccard_basics() {
        assert_eq!(jaccard::<&str>([], []), 1.0);
        assert_eq!(jaccard(["a", "b"], ["a", "b"]), 1.0);
        assert_eq!(jaccard(["a", "b"], ["c", "d"]), 0.0);
        assert!((jaccard(["a", "b", "c"], ["b", "c", "d"]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn title_similarity_ranks_near_duplicates_high() {
        let a = "X87 FDP Value May be Saved Incorrectly";
        let b = "x87 FDP Values Might Be Saved Incorrectly";
        let c = "Processor May Hang When Switching Between Instruction Cache and Op Cache";
        assert!(title_similarity(a, b) > 0.9, "{}", title_similarity(a, b));
        assert!(title_similarity(a, c) < 0.3, "{}", title_similarity(a, c));
        assert!(title_similarity(a, a) > 0.999);
    }

    #[test]
    fn title_key_exposes_the_normalized_key() {
        let title = "X87 FDP Value May be Saved Incorrectly";
        assert_eq!(TitleKey::new(title).joined(), crate::normalized_key(title));
    }

    #[test]
    fn trimmed_bound_brackets_the_distance() {
        for (a, b) in [
            ("warm reset hang", "warm reset hang case"),
            ("kitten", "sitting"),
            ("", "abc"),
            ("same", "same"),
            ("x87 fdp value save incorrectly", "x87 fdp value might save"),
        ] {
            let d = levenshtein(a, b, None);
            assert!(
                d <= trimmed_distance_bound(a.as_bytes(), b.as_bytes()),
                "{a:?} vs {b:?}"
            );
            assert!(d >= a.len().abs_diff(b.len()));
        }
    }

    proptest! {
        #[test]
        fn threshold_check_matches_full_similarity(
            a in ".{0,60}",
            b in ".{0,60}",
            threshold in 0.0f64..1.0,
        ) {
            let (ka, kb) = (TitleKey::new(&a), TitleKey::new(&b));
            let full = ka.similarity(&kb) >= threshold;
            let fast = ka.similarity_at_least(&kb, threshold).passes;
            prop_assert_eq!(fast, full, "threshold {} on {:?} vs {:?}", threshold, a, b);
        }

        #[test]
        fn title_key_similarity_matches_direct_similarity(a in ".{0,60}", b in ".{0,60}") {
            let cached = TitleKey::new(&a).similarity(&TitleKey::new(&b));
            let direct = title_similarity(&a, &b);
            prop_assert!((cached - direct).abs() == 0.0, "cached {cached} != direct {direct}");
        }

        #[test]
        fn levenshtein_is_a_metric(a in "[a-c]{0,12}", b in "[a-c]{0,12}", c in "[a-c]{0,12}") {
            let dab = levenshtein(&a, &b, None);
            let dba = levenshtein(&b, &a, None);
            prop_assert_eq!(dab, dba); // symmetry
            prop_assert_eq!(levenshtein(&a, &a, None), 0); // identity
            let dac = levenshtein(&a, &c, None);
            let dcb = levenshtein(&c, &b, None);
            prop_assert!(dab <= dac + dcb); // triangle inequality
        }

        #[test]
        fn similarity_scores_are_in_unit_interval(a in ".{0,40}", b in ".{0,40}") {
            let t = title_similarity(&a, &b);
            prop_assert!((0.0..=1.0).contains(&t), "title {t}");
            let l = levenshtein_similarity(&a, &b);
            prop_assert!((-1e-9..=1.0 + 1e-9).contains(&l), "lev {l}");
        }

        #[test]
        fn jaccard_symmetric(a in prop::collection::vec("[a-e]{1,3}", 0..8),
                             b in prop::collection::vec("[a-e]{1,3}", 0..8)) {
            let j1 = jaccard(a.iter(), b.iter());
            let j2 = jaccard(b.iter(), a.iter());
            prop_assert!((j1 - j2).abs() < 1e-12);
        }
    }
}
