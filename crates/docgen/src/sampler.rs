//! Sampling of ground-truth annotations, workarounds and fix statuses.
//!
//! The weights below encode the frequency profiles the paper reports:
//!
//! * Figure 10 — `Trg_CFG_wrg`, `Trg_POW_tht` and `Trg_POW_pwc` dominate;
//! * Figure 11 — ~49% of errata with clear triggers need two or more, and
//!   14.4% have no clear trigger;
//! * Figure 12 — specific trigger pairs correlate (debug x VM transitions,
//!   PCIe/DRAM x power-state changes, MSR configuration x throttling);
//! * Figure 13 — memory-boundary triggers are absent from the two latest
//!   Intel generations;
//! * Figures 14-16 — trigger-class shares are similar across vendors except
//!   for external stimuli (AMD-heavy) and specific features (Intel-heavy);
//! * Figure 17 — virtual-machine-guest is the dominant context;
//! * Figure 18 — corrupted registers and hangs are the dominant effects;
//! * Figure 19 — machine-check status registers witness most MSR-observable
//!   bugs, followed by IBS registers and performance counters;
//! * Figures 6/7 — workaround mix and (rare) fixes.

use rand::Rng;
use rememberr_model::{
    Annotation, Context, Design, Effect, FixStatus, MsrName, MsrRef, Trigger, TriggerClass, Vendor,
    WorkaroundCategory,
};
use serde::{Deserialize, Serialize};

use crate::bugpool::BugSeed;
use crate::rng::CorpusRng;
use crate::spec::CorpusSpec;

/// Ground-truth labels for one bug.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BugProfile {
    /// The true annotation (concrete strings are filled by the text
    /// renderer, which derives them from the same categories).
    pub annotation: Annotation,
    /// True workaround category.
    pub workaround: WorkaroundCategory,
    /// True fix status.
    pub fix: FixStatus,
}

/// Marginal weight of a trigger for a vendor.
pub(crate) fn trigger_weight(vendor: Vendor, t: Trigger) -> f64 {
    use Trigger::*;
    let base = match t {
        CacheLineBoundary => 1.0,
        PageBoundary => 1.2,
        MemoryMapBoundary => 0.6,
        MemoryMapped => 2.0,
        Atomic => 1.0,
        Fence => 1.2,
        SegmentMode => 0.8,
        PageTableWalk => 1.8,
        NestedTranslation => 1.2,
        Flush => 1.4,
        Speculative => 1.6,
        CounterOverflow => 1.4,
        TimerEvent => 1.2,
        MachineCheck => 1.6,
        IllegalInstruction => 0.8,
        ResumeFromSmm => 1.6,
        VmTransition => 3.4,
        Paging => 2.2,
        VmConfig => 2.8,
        ConfigRegister => 9.0,
        PowerStateChange => 6.5,
        Throttling => 7.0,
        Reset => 2.6,
        Pcie => 3.0,
        Usb => 1.2,
        Dram => 2.6,
        Iommu => 1.4,
        SystemBus => 1.8,
        FloatingPoint => 1.6,
        Debug => 2.6,
        Cpuid => 1.0,
        Monitoring => 1.0,
        Tracing => 2.2,
        CustomFeature => 3.0,
    };
    // Vendor skews (Figures 15 and 16): Intel overrepresents tracing and
    // custom features; AMD overrepresents system-bus (HyperTransport),
    // IOMMU and DRAM stimuli.
    let skew = match (vendor, t) {
        (Vendor::Intel, Tracing) => 1.4,
        (Vendor::Intel, CustomFeature) => 1.3,
        (Vendor::Intel, Usb) => 1.2,
        (Vendor::Intel, SystemBus) => 0.45,
        (Vendor::Amd, Tracing) => 0.4,
        (Vendor::Amd, CustomFeature) => 0.65,
        (Vendor::Amd, SystemBus) => 2.6,
        (Vendor::Amd, Iommu) => 1.5,
        (Vendor::Amd, Dram) => 1.25,
        (Vendor::Amd, Pcie) => 0.9,
        _ => 1.0,
    };
    base * skew
}

/// Correlated trigger pairs (Figure 12): when one member is already chosen,
/// the partner is preferentially added.
pub(crate) const TRIGGER_AFFINITY: &[(Trigger, Trigger, f64)] = &[
    (Trigger::Debug, Trigger::VmTransition, 3.0),
    (Trigger::Pcie, Trigger::PowerStateChange, 2.5),
    (Trigger::Dram, Trigger::PowerStateChange, 2.0),
    (Trigger::ConfigRegister, Trigger::Throttling, 3.0),
    (Trigger::ConfigRegister, Trigger::PowerStateChange, 2.5),
    (Trigger::VmConfig, Trigger::VmTransition, 2.5),
    (Trigger::Paging, Trigger::PageTableWalk, 2.0),
    (Trigger::MachineCheck, Trigger::ConfigRegister, 1.5),
    (Trigger::Reset, Trigger::Pcie, 2.0),
    (Trigger::Speculative, Trigger::Flush, 1.5),
    (Trigger::Monitoring, Trigger::PowerStateChange, 1.5),
    (Trigger::TimerEvent, Trigger::PowerStateChange, 1.2),
];

fn context_weight(c: Context) -> f64 {
    use Context::*;
    match c {
        Boot => 1.6,
        VmGuest => 3.5,
        RealMode => 0.9,
        Hypervisor => 1.4,
        Smm => 1.8,
        SecurityFeature => 1.2,
        SingleCore => 0.7,
        Package => 0.6,
        Temperature => 0.5,
        Voltage => 0.4,
    }
}

fn effect_weight(e: Effect) -> f64 {
    use Effect::*;
    match e {
        Unpredictable => 3.0,
        Hang => 3.2,
        Crash => 1.2,
        BootFailure => 0.8,
        MachineCheck => 2.4,
        Uncorrectable => 1.0,
        SpuriousFault => 1.8,
        MissingFault => 1.0,
        WrongFaultId => 0.8,
        PerfCounter => 1.8,
        MsrValue => 3.6,
        Pcie => 1.4,
        Usb => 0.8,
        Multimedia => 0.9,
        Dram => 1.2,
        Power => 1.0,
    }
}

fn msr_weight(vendor: Vendor, m: MsrName) -> f64 {
    use MsrName::*;
    if !m.available_on(vendor) {
        return 0.0;
    }
    match m {
        McStatus => 5.0,
        McAddr => 2.5,
        McMisc => 0.8,
        McgStatus => 1.5,
        IbsFetchCtl | IbsOpCtl | IbsOpData => 2.2,
        PerfCtr => 2.0,
        PerfEvtSel => 1.2,
        FixedCtr => 0.8,
        Aperf | Mperf => 0.8,
        PStateStatus => 1.2,
        ThermStatus => 1.0,
        SmiCount => 0.6,
        DebugCtl => 0.8,
        LastBranchRecord => 0.7,
        _ => 0.3,
    }
}

fn weighted_pick<T: Copy>(items: &[T], weight: impl Fn(T) -> f64, rng: &mut CorpusRng) -> T {
    let total: f64 = items.iter().map(|&i| weight(i)).sum();
    debug_assert!(total > 0.0, "all weights zero");
    let mut draw = rng.random_range(0.0..total);
    for &item in items {
        let w = weight(item);
        if draw < w {
            return item;
        }
        draw -= w;
    }
    *items.last().expect("non-empty items")
}

fn pick_count(weights: &[f64], rng: &mut CorpusRng) -> usize {
    let total: f64 = weights.iter().sum();
    let mut draw = rng.random_range(0.0..total);
    for (i, w) in weights.iter().enumerate() {
        if draw < *w {
            return i;
        }
        draw -= w;
    }
    weights.len() - 1
}

/// Samples the ground-truth profile of one bug.
pub fn sample_profile(spec: &CorpusSpec, bug: &BugSeed, rng: &mut CorpusRng) -> BugProfile {
    let vendor = bug.vendor;
    // Figure 13: no memory-boundary triggers in the two latest Intel
    // generations — bugs listed there must avoid the MBR class.
    let exclude_mbr = bug
        .affected
        .iter()
        .any(|d| matches!(d, Design::Intel11 | Design::Intel12));
    let candidates: Vec<Trigger> = Trigger::ALL
        .iter()
        .copied()
        .filter(|t| !(exclude_mbr && t.class() == TriggerClass::Mbr))
        .collect();

    let mut annotation = Annotation::new();

    // Triggers (conjunctive).
    if !rng.random_bool(spec.no_clear_trigger_rate) {
        let count = 1 + pick_count(&spec.trigger_count_weights, rng);
        while annotation.triggers.len() < count {
            let chosen: Vec<Trigger> = annotation.triggers.iter().collect();
            let pick = if !chosen.is_empty() && rng.random_bool(0.5) {
                // Prefer an affinity partner of an already-chosen trigger.
                let partners: Vec<(Trigger, f64)> = TRIGGER_AFFINITY
                    .iter()
                    .filter_map(|&(a, b, s)| {
                        if chosen.contains(&a) && !annotation.triggers.contains(b) {
                            Some((b, s))
                        } else if chosen.contains(&b) && !annotation.triggers.contains(a) {
                            Some((a, s))
                        } else {
                            None
                        }
                    })
                    .filter(|(t, _)| candidates.contains(t))
                    .collect();
                if partners.is_empty() {
                    weighted_pick(&candidates, |t| trigger_weight(vendor, t), rng)
                } else {
                    let items: Vec<Trigger> = partners.iter().map(|(t, _)| *t).collect();
                    weighted_pick(
                        &items,
                        |t| {
                            partners
                                .iter()
                                .find(|(p, _)| *p == t)
                                .map_or(1.0, |(_, s)| *s)
                        },
                        rng,
                    )
                }
            } else {
                weighted_pick(&candidates, |t| trigger_weight(vendor, t), rng)
            };
            annotation.triggers.insert(pick);
        }
    }
    if rng.random_bool(spec.complex_conditions_rate.get(vendor)) {
        annotation.complex_conditions = true;
    }

    // Contexts (disjunctive; may be empty = "any context").
    let ctx_count = pick_count(&[0.55, 0.35, 0.10], rng);
    while annotation.contexts.len() < ctx_count {
        annotation
            .contexts
            .insert(weighted_pick(Context::ALL, context_weight, rng));
    }

    // Effects (disjunctive; at least one — an unobservable bug is no bug).
    let eff_count = 1 + pick_count(&[0.6, 0.3, 0.1], rng);
    while annotation.effects.len() < eff_count {
        annotation
            .effects
            .insert(weighted_pick(Effect::ALL, effect_weight, rng));
    }

    // MSR witnesses (Figure 19): attached when the effect set contains a
    // register corruption or machine-check style effect.
    let msr_prone = annotation.effects.contains(Effect::MsrValue)
        || annotation.effects.contains(Effect::MachineCheck)
        || annotation.effects.contains(Effect::PerfCounter);
    if msr_prone && rng.random_bool(0.5) {
        let n = 1 + usize::from(rng.random_bool(0.25));
        while annotation.msrs.len() < n {
            let name = weighted_pick(&MsrName::ALL, |m| msr_weight(vendor, m), rng);
            if annotation.msrs.iter().all(|r| r.name != name) {
                annotation.msrs.push(MsrRef::canonical(name));
            }
        }
    }

    // Workaround (Figure 6).
    let workaround = {
        let u: f64 = rng.random_range(0.0..1.0);
        let none_rate = spec.no_workaround_rate.get(vendor);
        if u < none_rate {
            WorkaroundCategory::None
        } else if u < none_rate + 0.004 {
            WorkaroundCategory::DocumentationFix
        } else {
            let rest: f64 = (u - none_rate - 0.004) / (1.0 - none_rate - 0.004);
            if rest < 0.35 {
                WorkaroundCategory::Bios
            } else if rest < 0.65 {
                WorkaroundCategory::Software
            } else if rest < 0.87 {
                WorkaroundCategory::Absent
            } else {
                WorkaroundCategory::Peripherals
            }
        }
    };

    // Fix status (Figure 7): rarely fixed; weak upward trend in recent Intel
    // generations.
    let recent_intel = bug
        .affected
        .iter()
        .any(|d| matches!(d, Design::Intel10 | Design::Intel11 | Design::Intel12));
    let fix_prob = if recent_intel { 0.22 } else { 0.06 };
    let fix = if workaround == WorkaroundCategory::DocumentationFix {
        FixStatus::DocumentationChange
    } else if rng.random_bool(fix_prob) {
        FixStatus::Fixed
    } else if rng.random_bool(0.03) {
        FixStatus::FixPlanned
    } else {
        FixStatus::NoFixPlanned
    };

    BugProfile {
        annotation,
        workaround,
        fix,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bugpool::build_pool;
    use rand::SeedableRng;
    use rememberr_model::EffectSet;

    fn profiles() -> Vec<(BugSeed, BugProfile)> {
        let spec = CorpusSpec::paper();
        let mut rng = CorpusRng::seed_from_u64(spec.seed);
        let pool = build_pool(&spec, &mut rng).unwrap();
        pool.into_iter()
            .map(|bug| {
                let p = sample_profile(&spec, &bug, &mut rng);
                (bug, p)
            })
            .collect()
    }

    #[test]
    fn every_bug_has_an_effect() {
        for (_, p) in profiles() {
            assert!(!p.annotation.effects.is_empty());
        }
    }

    #[test]
    fn no_clear_trigger_rate_matches_spec() {
        let all = profiles();
        let none = all
            .iter()
            .filter(|(_, p)| p.annotation.has_no_clear_trigger())
            .count();
        let rate = none as f64 / all.len() as f64;
        assert!((0.10..0.19).contains(&rate), "{rate}");
    }

    #[test]
    fn about_half_of_clear_trigger_errata_need_two_or_more() {
        let all = profiles();
        let clear: Vec<_> = all
            .iter()
            .filter(|(_, p)| !p.annotation.has_no_clear_trigger())
            .collect();
        let multi = clear
            .iter()
            .filter(|(_, p)| p.annotation.complexity() >= 2)
            .count();
        let rate = multi as f64 / clear.len() as f64;
        assert!((0.42..0.56).contains(&rate), "{rate}");
    }

    #[test]
    fn config_register_and_power_dominate_triggers() {
        let all = profiles();
        let mut counts = vec![0usize; Trigger::ALL.len()];
        for (_, p) in &all {
            for t in p.annotation.triggers.iter() {
                counts[t.index()] += 1;
            }
        }
        let top3: Vec<Trigger> = {
            let mut order: Vec<usize> = (0..counts.len()).collect();
            order.sort_by_key(|&i| std::cmp::Reverse(counts[i]));
            order[..3].iter().map(|&i| Trigger::ALL[i]).collect()
        };
        assert!(top3.contains(&Trigger::ConfigRegister), "{top3:?}");
        assert!(top3.contains(&Trigger::Throttling), "{top3:?}");
        assert!(top3.contains(&Trigger::PowerStateChange), "{top3:?}");
    }

    #[test]
    fn vm_guest_is_most_frequent_context() {
        let all = profiles();
        let mut counts = vec![0usize; Context::ALL.len()];
        for (_, p) in &all {
            for c in p.annotation.contexts.iter() {
                counts[c.index()] += 1;
            }
        }
        let max = counts.iter().copied().max().unwrap();
        assert_eq!(counts[Context::VmGuest.index()], max);
    }

    #[test]
    fn corrupted_registers_and_hangs_dominate_effects() {
        let all = profiles();
        let mut counts = vec![0usize; Effect::ALL.len()];
        for (_, p) in &all {
            for e in p.annotation.effects.iter() {
                counts[e.index()] += 1;
            }
        }
        let mut order: Vec<usize> = (0..counts.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(counts[i]));
        let top3: Vec<Effect> = order[..3].iter().map(|&i| Effect::ALL[i]).collect();
        assert!(top3.contains(&Effect::MsrValue), "{top3:?}");
        assert!(top3.contains(&Effect::Hang), "{top3:?}");
    }

    #[test]
    fn mc_registers_witness_seven_to_nine_percent_of_unique_errata() {
        // Figure 19 / O13: MCx_STATUS and MCx_ADDR witness a bug in 7.1% to
        // 8.5% of all unique errata.
        let all = profiles();
        let with_mc = all
            .iter()
            .filter(|(_, p)| {
                p.annotation
                    .msrs
                    .iter()
                    .any(|m| matches!(m.name, MsrName::McStatus | MsrName::McAddr))
            })
            .count();
        let rate = with_mc as f64 / all.len() as f64;
        assert!((0.055..0.11).contains(&rate), "{rate}");
    }

    #[test]
    fn msr_vendor_consistency() {
        for (bug, p) in profiles() {
            for m in &p.annotation.msrs {
                assert!(
                    m.name.available_on(bug.vendor),
                    "{:?} sampled for {}",
                    m.name,
                    bug.vendor
                );
            }
        }
    }

    #[test]
    fn no_workaround_rates_match_paper() {
        let all = profiles();
        for vendor in Vendor::ALL {
            let of_vendor: Vec<_> = all.iter().filter(|(b, _)| b.vendor == vendor).collect();
            let none = of_vendor
                .iter()
                .filter(|(_, p)| p.workaround == WorkaroundCategory::None)
                .count();
            let rate = none as f64 / of_vendor.len() as f64;
            let target = CorpusSpec::paper().no_workaround_rate.get(vendor);
            assert!((rate - target).abs() < 0.06, "{vendor}: {rate} vs {target}");
        }
    }

    #[test]
    fn bugs_are_rarely_fixed() {
        let all = profiles();
        let fixed = all
            .iter()
            .filter(|(_, p)| p.fix == FixStatus::Fixed)
            .count();
        let rate = fixed as f64 / all.len() as f64;
        assert!(rate < 0.2, "{rate}");
        assert!(rate > 0.02, "{rate}");
    }

    #[test]
    fn latest_intel_generations_have_no_mbr_triggers() {
        for (bug, p) in profiles() {
            if bug
                .affected
                .iter()
                .any(|d| matches!(d, Design::Intel11 | Design::Intel12))
            {
                assert!(
                    !p.annotation.trigger_classes().contains(&TriggerClass::Mbr),
                    "MBR trigger listed in a gen 11/12 document"
                );
            }
        }
    }

    #[test]
    fn affinity_pairs_are_overrepresented() {
        let all = profiles();
        // debug x vmt should co-occur far more often than debug x fpu.
        let co = |a: Trigger, b: Trigger| {
            all.iter()
                .filter(|(_, p)| {
                    p.annotation.triggers.contains(a) && p.annotation.triggers.contains(b)
                })
                .count()
        };
        assert!(
            co(Trigger::Debug, Trigger::VmTransition) > co(Trigger::Debug, Trigger::FloatingPoint),
        );
        assert!(
            co(Trigger::ConfigRegister, Trigger::Throttling)
                > co(Trigger::ConfigRegister, Trigger::Usb)
        );
    }

    #[test]
    fn complex_condition_rates_follow_vendor() {
        let all = profiles();
        let rate = |v: Vendor| {
            let of: Vec<_> = all.iter().filter(|(b, _)| b.vendor == v).collect();
            of.iter()
                .filter(|(_, p)| p.annotation.complex_conditions)
                .count() as f64
                / of.len() as f64
        };
        assert!(rate(Vendor::Amd) > rate(Vendor::Intel));
    }

    #[test]
    fn detectability_uses_effect_sets() {
        // Smoke-check the model glue: a full watch-set detects everything
        // whose triggers are covered.
        let all = profiles();
        let full_effects = EffectSet::full();
        for (_, p) in all.iter().take(50) {
            assert!(p
                .annotation
                .detectable_by(&p.annotation.triggers, &full_effects));
        }
    }
}
