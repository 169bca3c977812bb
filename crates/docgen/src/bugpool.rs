//! The bug pool: which unique bugs exist and which designs each affects.
//!
//! This module realizes the heredity structure of Section IV-B2:
//! microarchitectural block reuse makes bugs propagate across Intel
//! generations (Desktop/Mobile documents share the vast majority of bugs;
//! generations 6-10 share a salient block of 104 bugs; 6 bugs span Core 1
//! to Core 10; one Core 2 erratum resurfaces 11 generations of documents
//! later), while AMD families — distinct microarchitectures by definition —
//! share far less.

use crate::rng::CorpusRng;
use rand::seq::IndexedRandom;
use rand::Rng;
use rememberr_model::{Design, UniqueKey, Vendor};
use serde::{Deserialize, Serialize};

use crate::spec::{CorpusSpec, SpecError};

/// One unique bug and the documents that list it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BugSeed {
    /// Ground-truth unique key.
    pub key: UniqueKey,
    /// Vendor whose designs the bug affects.
    pub vendor: Vendor,
    /// Affected designs, sorted by canonical design index; each design's
    /// document lists the bug exactly once (intra-document duplicates are
    /// injected later as defects).
    pub affected: Vec<Design>,
    /// The design on which the bug was *first discovered*. Usually the
    /// earliest affected design; for backward-latent bugs, a later one.
    pub discovery: Design,
}

impl BugSeed {
    /// Number of documents listing this bug.
    pub fn occurrence_count(&self) -> usize {
        self.affected.len()
    }

    /// True if the discovery design is not the earliest affected design
    /// (the bug will surface backward-latent confirmations).
    pub fn is_backward_discovery(&self) -> bool {
        self.affected.first().is_some_and(|d| *d != self.discovery)
    }
}

/// Intel document groups used by the heredity constraints.
const INTEL_GEN6_TO_10: [Design; 4] = [
    Design::Intel6,
    Design::Intel7_8,
    Design::Intel8_9,
    Design::Intel10,
];

const INTEL_CORE1_TO_CORE10: [Design; 14] = [
    Design::Intel1D,
    Design::Intel1M,
    Design::Intel2D,
    Design::Intel2M,
    Design::Intel3D,
    Design::Intel3M,
    Design::Intel4D,
    Design::Intel4M,
    Design::Intel5D,
    Design::Intel5M,
    Design::Intel6,
    Design::Intel7_8,
    Design::Intel8_9,
    Design::Intel10,
];

/// Desktop/Mobile sibling of a split-document Intel design, if any.
fn sibling(design: Design) -> Option<Design> {
    use Design::*;
    Some(match design {
        Intel1D => Intel1M,
        Intel1M => Intel1D,
        Intel2D => Intel2M,
        Intel2M => Intel2D,
        Intel3D => Intel3M,
        Intel3M => Intel3D,
        Intel4D => Intel4M,
        Intel4M => Intel4D,
        Intel5D => Intel5M,
        Intel5M => Intel5D,
        _ => return None,
    })
}

/// Next Intel document in generation order (Desktop track for split gens).
fn intel_successor(design: Design) -> Option<Design> {
    use Design::*;
    Some(match design {
        Intel1D | Intel1M => Intel2D,
        Intel2D | Intel2M => Intel3D,
        Intel3D | Intel3M => Intel4D,
        Intel4D | Intel4M => Intel5D,
        Intel5D | Intel5M => Intel6,
        Intel6 => Intel7_8,
        Intel7_8 => Intel8_9,
        Intel8_9 => Intel10,
        Intel10 => Intel11,
        Intel11 => Intel12,
        _ => return None,
    })
}

/// AMD microarchitectural lineages: propagation only follows these chains.
const AMD_CHAINS: [&[Design]; 5] = [
    &[Design::Amd10h, Design::Amd11h],
    &[Design::Amd12h],
    &[Design::Amd14h, Design::Amd16h],
    &[
        Design::Amd15h00,
        Design::Amd15h10,
        Design::Amd15h30,
        Design::Amd15h70,
    ],
    &[Design::Amd17h00, Design::Amd17h30, Design::Amd19h],
];

/// Successor within the AMD lineage chains.
fn amd_successor(design: Design) -> Option<Design> {
    for chain in AMD_CHAINS {
        if let Some(pos) = chain.iter().position(|d| *d == design) {
            return chain.get(pos + 1).copied();
        }
    }
    None
}

/// True if `affected` would violate an exclusivity constraint reserved for
/// the deterministic special bugs (exactly 104 bugs cover all of gens 6-10).
fn violates_reserved_coverage(affected: &[Design]) -> bool {
    INTEL_GEN6_TO_10.iter().all(|d| affected.contains(d))
}

/// Builds the complete bug pool for both vendors.
///
/// The pool is exact: unique-bug counts match the spec per vendor, and the
/// total occurrence count equals the vendor total minus the entries reserved
/// for intra-document duplicate injection (which reuse existing bugs).
///
/// # Errors
///
/// Returns a [`SpecError`] when a vendor's occurrence total cannot be
/// reached, which happens at scales too small to host the spec's fixed
/// bugs.
pub fn build_pool(spec: &CorpusSpec, rng: &mut CorpusRng) -> Result<Vec<BugSeed>, SpecError> {
    let mut pool = Vec::with_capacity(spec.intel_unique + spec.amd_unique);
    let mut next_key = 1u32;
    let mut key = || {
        let k = UniqueKey(next_key);
        next_key += 1;
        k
    };

    // ---- Intel: deterministic special bugs -------------------------------
    let core1_to_10 = spec.core1_to_core10.min(spec.gen6_to_10_shared);
    for _ in 0..core1_to_10 {
        pool.push(BugSeed {
            key: key(),
            vendor: Vendor::Intel,
            affected: INTEL_CORE1_TO_CORE10.to_vec(),
            discovery: Design::Intel1D,
        });
    }
    // The Core 2 erratum resurfacing in Core 12, 11 document-generations on.
    let longevity_bug = spec.intel_unique > core1_to_10 + spec.gen6_to_10_shared;
    if longevity_bug {
        pool.push(BugSeed {
            key: key(),
            vendor: Vendor::Intel,
            affected: vec![
                Design::Intel2D,
                Design::Intel2M,
                Design::Intel6,
                Design::Intel12,
            ],
            discovery: Design::Intel2D,
        });
    }
    // Bugs covering exactly generations 6-10 (the rest of the 104).
    let block_bugs = spec.gen6_to_10_shared.saturating_sub(core1_to_10);
    for _ in 0..block_bugs {
        pool.push(BugSeed {
            key: key(),
            vendor: Vendor::Intel,
            affected: INTEL_GEN6_TO_10.to_vec(),
            discovery: Design::Intel6,
        });
    }

    // ---- Intel: organic bugs ---------------------------------------------
    let special = pool.len();
    let organic = spec.intel_unique.saturating_sub(special);
    let intel_docs: Vec<Design> = Design::intel().collect();
    let weights: Vec<f64> = intel_docs
        .iter()
        .map(|d| spec.document_weight(*d))
        .collect();
    for _ in 0..organic {
        let intro = weighted_choice(&intel_docs, &weights, rng);
        let affected = grow_intel(spec, intro, rng);
        pool.push(BugSeed {
            key: key(),
            vendor: Vendor::Intel,
            affected,
            discovery: intro,
        });
    }

    // ---- AMD bugs ----------------------------------------------------------
    let amd_docs: Vec<Design> = Design::amd().collect();
    let amd_weights: Vec<f64> = amd_docs.iter().map(|d| spec.document_weight(*d)).collect();
    for _ in 0..spec.amd_unique {
        let intro = weighted_choice(&amd_docs, &amd_weights, rng);
        let mut affected = vec![intro];
        let mut cursor = intro;
        while let Some(next) = amd_successor(cursor) {
            if !rng.random_bool(spec.amd_propagation) {
                break;
            }
            affected.push(next);
            cursor = next;
        }
        affected.sort_by_key(|d| d.index());
        pool.push(BugSeed {
            key: key(),
            vendor: Vendor::Amd,
            affected,
            discovery: intro,
        });
    }

    // ---- Repair occurrence totals to exactness ----------------------------
    // Intra-document duplicate entries are reserved out of the Intel total.
    let intel_target = spec
        .intel_total
        .saturating_sub(spec.defects.intra_doc_duplicate_pairs)
        .max(spec.intel_unique);
    repair_totals(&mut pool, Vendor::Intel, intel_target, special, spec, rng)?;
    repair_totals(&mut pool, Vendor::Amd, spec.amd_total, 0, spec, rng)?;

    // ---- Backward-latent discoveries --------------------------------------
    assign_backward_discoveries(&mut pool, spec, rng);

    Ok(pool)
}

/// Grows an Intel affected-set from an introduction document.
fn grow_intel(spec: &CorpusSpec, intro: Design, rng: &mut CorpusRng) -> Vec<Design> {
    let mut affected = vec![intro];
    if let Some(sib) = sibling(intro) {
        if rng.random_bool(spec.desktop_mobile_share) {
            affected.push(sib);
        }
    }
    let mut cursor = intro;
    while let Some(next) = intel_successor(cursor) {
        if !rng.random_bool(spec.intel_propagation) {
            break;
        }
        affected.push(next);
        if let Some(sib) = sibling(next) {
            if rng.random_bool(spec.desktop_mobile_share) {
                affected.push(sib);
            }
        }
        cursor = next;
        // Keep the 104-bug block exact: organic bugs must not cover all of
        // generations 6-10.
        if violates_reserved_coverage(&affected) {
            affected.pop();
            break;
        }
    }
    affected.sort_by_key(|d| d.index());
    affected.dedup();
    affected
}

fn weighted_choice(items: &[Design], weights: &[f64], rng: &mut CorpusRng) -> Design {
    let total: f64 = weights.iter().sum();
    let mut draw = rng.random_range(0.0..total);
    for (item, w) in items.iter().zip(weights) {
        if draw < *w {
            return *item;
        }
        draw -= w;
    }
    *items.last().expect("non-empty item list")
}

/// Adds or removes propagations on organic bugs until the vendor's
/// occurrence total is exact, or reports why it cannot be.
fn repair_totals(
    pool: &mut [BugSeed],
    vendor: Vendor,
    target: usize,
    protected_prefix: usize,
    _spec: &CorpusSpec,
    rng: &mut CorpusRng,
) -> Result<(), SpecError> {
    let indices: Vec<usize> = pool
        .iter()
        .enumerate()
        .filter(|(i, b)| b.vendor == vendor && (vendor == Vendor::Amd || *i >= protected_prefix))
        .map(|(i, _)| i)
        .collect();
    if indices.is_empty() {
        return Err(SpecError::NoAdjustableBugs(vendor));
    }

    let current = |pool: &[BugSeed]| -> usize {
        pool.iter()
            .filter(|b| b.vendor == vendor)
            .map(|b| b.occurrence_count())
            .sum()
    };

    let mut total = current(pool);
    let mut stall = 0usize;
    while total != target {
        let &i = indices.choose(rng).expect("non-empty indices");
        let bug = &mut pool[i];
        if total < target {
            // Extend: add the successor of the last affected doc, or a
            // missing Desktop/Mobile sibling.
            let added = extend_bug(bug, vendor);
            if added {
                total += 1;
                stall = 0;
            } else {
                stall += 1;
            }
        } else {
            // Shrink: drop the last doc of a multi-doc bug.
            if bug.affected.len() > 1 {
                let dropped = bug.affected.pop().expect("len > 1");
                if bug.discovery == dropped {
                    bug.discovery = bug.affected[0];
                }
                total -= 1;
                stall = 0;
            } else {
                stall += 1;
            }
        }
        if stall >= 1_000_000 {
            return Err(SpecError::TotalUnreachable {
                vendor,
                total,
                target,
            });
        }
    }
    Ok(())
}

/// Tries to extend a bug by one more document; returns success.
fn extend_bug(bug: &mut BugSeed, vendor: Vendor) -> bool {
    // Prefer filling in a missing sibling.
    if vendor == Vendor::Intel {
        for d in bug.affected.clone() {
            if let Some(sib) = sibling(d) {
                if !bug.affected.contains(&sib) {
                    bug.affected.push(sib);
                    bug.affected.sort_by_key(|x| x.index());
                    if violates_reserved_coverage(&bug.affected) {
                        bug.affected.retain(|x| *x != sib);
                        continue;
                    }
                    return true;
                }
            }
        }
    }
    let last = *bug.affected.last().expect("non-empty affected");
    let next = match vendor {
        Vendor::Intel => intel_successor(last),
        Vendor::Amd => amd_successor(last),
    };
    if let Some(next) = next {
        if !bug.affected.contains(&next) {
            bug.affected.push(next);
            bug.affected.sort_by_key(|x| x.index());
            if vendor == Vendor::Intel && violates_reserved_coverage(&bug.affected) {
                bug.affected.retain(|x| *x != next);
                return false;
            }
            return true;
        }
    }
    false
}

/// Flips a fraction of multi-document bugs to backward discovery.
fn assign_backward_discoveries(pool: &mut [BugSeed], spec: &CorpusSpec, rng: &mut CorpusRng) {
    for bug in pool.iter_mut() {
        if bug.affected.len() >= 2 && rng.random_bool(spec.backward_latent_fraction) {
            // Discover on a strictly later affected design.
            let later = &bug.affected[1..];
            bug.discovery = *later.choose(rng).expect("len >= 2");
        } else {
            bug.discovery = bug.affected[0];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn pool(spec: &CorpusSpec) -> Vec<BugSeed> {
        let mut rng = CorpusRng::seed_from_u64(spec.seed);
        build_pool(spec, &mut rng).expect("spec builds a pool")
    }

    #[test]
    fn paper_pool_has_exact_unique_counts() {
        let spec = CorpusSpec::paper();
        let p = pool(&spec);
        let intel = p.iter().filter(|b| b.vendor == Vendor::Intel).count();
        let amd = p.iter().filter(|b| b.vendor == Vendor::Amd).count();
        assert_eq!(intel, 743);
        assert_eq!(amd, 385);
    }

    #[test]
    fn paper_pool_has_exact_occurrence_totals() {
        let spec = CorpusSpec::paper();
        let p = pool(&spec);
        let count = |v: Vendor| -> usize {
            p.iter()
                .filter(|b| b.vendor == v)
                .map(|b| b.occurrence_count())
                .sum()
        };
        // 11 entries are reserved for intra-document duplicate injection.
        assert_eq!(count(Vendor::Intel), 2_057 - 11);
        assert_eq!(count(Vendor::Amd), 506);
    }

    #[test]
    fn exactly_104_bugs_cover_all_generations_6_to_10() {
        let spec = CorpusSpec::paper();
        let p = pool(&spec);
        let covered = p
            .iter()
            .filter(|b| INTEL_GEN6_TO_10.iter().all(|d| b.affected.contains(d)))
            .count();
        assert_eq!(covered, 104);
    }

    #[test]
    fn six_bugs_span_core1_to_core10() {
        let spec = CorpusSpec::paper();
        let p = pool(&spec);
        let spanning = p
            .iter()
            .filter(|b| {
                b.affected.contains(&Design::Intel1D) && b.affected.contains(&Design::Intel10)
            })
            .count();
        assert_eq!(spanning, 6);
    }

    #[test]
    fn core2_longevity_bug_exists() {
        let spec = CorpusSpec::paper();
        let p = pool(&spec);
        assert!(p.iter().any(|b| {
            b.affected.contains(&Design::Intel2D) && b.affected.contains(&Design::Intel12)
        }));
    }

    #[test]
    fn amd_respects_lineage_chains() {
        let spec = CorpusSpec::paper();
        let p = pool(&spec);
        for bug in p.iter().filter(|b| b.vendor == Vendor::Amd) {
            // Every affected design must lie in a single chain.
            let in_one_chain = AMD_CHAINS
                .iter()
                .any(|chain| bug.affected.iter().all(|d| chain.contains(d)));
            assert!(in_one_chain, "bug {:?} crosses chains", bug.affected);
        }
    }

    #[test]
    fn amd_shares_less_than_intel() {
        let spec = CorpusSpec::paper();
        let p = pool(&spec);
        let avg = |v: Vendor| {
            let bugs: Vec<_> = p.iter().filter(|b| b.vendor == v).collect();
            bugs.iter().map(|b| b.occurrence_count()).sum::<usize>() as f64 / bugs.len() as f64
        };
        assert!(avg(Vendor::Intel) > avg(Vendor::Amd));
    }

    #[test]
    fn discovery_is_affected_design() {
        let spec = CorpusSpec::paper();
        for bug in pool(&spec) {
            assert!(bug.affected.contains(&bug.discovery));
            // Affected list is sorted and unique.
            let mut sorted = bug.affected.clone();
            sorted.sort_by_key(|d| d.index());
            sorted.dedup();
            assert_eq!(sorted, bug.affected);
            // All designs belong to the bug's vendor.
            assert!(bug.affected.iter().all(|d| d.vendor() == bug.vendor));
        }
    }

    #[test]
    fn some_backward_discoveries_exist() {
        let spec = CorpusSpec::paper();
        let p = pool(&spec);
        let backward = p.iter().filter(|b| b.is_backward_discovery()).count();
        assert!(backward > 0);
        let multi = p.iter().filter(|b| b.affected.len() >= 2).count();
        let fraction = backward as f64 / multi as f64;
        assert!((0.08..0.25).contains(&fraction), "{fraction}");
    }

    #[test]
    fn keys_are_unique_and_dense() {
        let spec = CorpusSpec::paper();
        let p = pool(&spec);
        let mut keys: Vec<u32> = p.iter().map(|b| b.key.value()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), p.len());
        assert_eq!(*keys.first().unwrap(), 1);
        assert_eq!(*keys.last().unwrap(), p.len() as u32);
    }

    #[test]
    fn deterministic_per_seed() {
        let spec = CorpusSpec::paper();
        assert_eq!(pool(&spec), pool(&spec));
        let mut other = CorpusSpec::paper();
        other.seed = 999;
        assert_ne!(pool(&spec), pool(&other));
    }

    #[test]
    fn scaled_pool_remains_exact() {
        let spec = CorpusSpec::scaled(0.08);
        let p = pool(&spec);
        let intel: usize = p
            .iter()
            .filter(|b| b.vendor == Vendor::Intel)
            .map(|b| b.occurrence_count())
            .sum();
        let expected = spec.intel_total - spec.defects.intra_doc_duplicate_pairs;
        assert_eq!(intel, expected.max(spec.intel_unique));
    }
}
