//! Rendering of erratum prose from ground-truth categories.
//!
//! Each abstract category owns a small bank of English phrases modelled on
//! real vendor errata; a bug's title, description and implication are
//! assembled from the phrases of its true categories. Phrase choice is a
//! pure function of `(corpus seed, bug key, variant)`, so the same bug
//! renders identically in every document that lists it — except for the
//! deliberately varied titles of the near-duplicate pairs, which exercise
//! the similarity-based duplicate detector.

use rand::{Rng, SeedableRng};
use rememberr_model::{Context, Effect, Trigger, Vendor, WorkaroundCategory};

use crate::bugpool::BugSeed;
use crate::rng::CorpusRng;
use crate::sampler::BugProfile;
use crate::spec::CorpusSpec;

/// Fully rendered erratum text for one bug, plus the concrete-level
/// annotation strings derived from the same phrases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BugText {
    /// Erratum title.
    pub title: String,
    /// Description field.
    pub description: String,
    /// Implications field.
    pub implications: String,
    /// Workaround field.
    pub workaround: String,
    /// Status field.
    pub status: String,
    /// Concrete-level trigger snippets (ground truth).
    pub concrete_triggers: Vec<String>,
    /// Concrete-level context snippets (ground truth).
    pub concrete_contexts: Vec<String>,
    /// Concrete-level effect snippets (ground truth).
    pub concrete_effects: Vec<String>,
}

/// Title-position phrases for a trigger ("<trigger phrase> May ...").
fn trigger_title(t: Trigger, pick: usize) -> &'static str {
    use Trigger::*;
    let bank: &[&str] = match t {
        CacheLineBoundary => &[
            "A Load Crossing a Cache Line Boundary",
            "Data Accesses Spanning a Cache Line Boundary",
        ],
        PageBoundary => &[
            "A Misaligned Store Crossing a Page Boundary",
            "An Access Straddling a Page Boundary",
        ],
        MemoryMapBoundary => &[
            "An Access Near the Canonical Address Boundary",
            "Operations at a Memory Map Boundary",
        ],
        MemoryMapped => &[
            "An Access to a Memory-Mapped I/O Range",
            "Reads From Memory-Mapped Registers",
        ],
        Atomic => &[
            "A Locked Atomic Operation",
            "Transactional Memory Operations",
        ],
        Fence => &[
            "Executing a Serializing Instruction",
            "A Memory Fence Instruction",
        ],
        SegmentMode => &[
            "Using an Unusual Segment Configuration",
            "A Segment Limit Violation",
        ],
        PageTableWalk => &["A Page Table Walk", "Concurrent Page Table Walks"],
        NestedTranslation => &[
            "Nested Page Table Translation",
            "A Guest Page Table Walk Using Nested Paging",
        ],
        Flush => &["Flushing a Cache Line", "A TLB Flush Operation"],
        Speculative => &[
            "A Speculative Memory Access",
            "Speculative Execution Past a Branch",
        ],
        CounterOverflow => &[
            "A Performance Counter Overflow",
            "Counter Overflow Conditions",
        ],
        TimerEvent => &["An APIC Timer Event", "Expiration of a Timer"],
        MachineCheck => &["A Machine Check Exception", "Machine Check Events"],
        IllegalInstruction => &["Executing an Undefined Opcode", "An Illegal Instruction"],
        ResumeFromSmm => &[
            "Resuming From System Management Mode",
            "An RSM Instruction Leaving SMM",
        ],
        VmTransition => &[
            "A VM Entry or VM Exit",
            "Transitions Between Hypervisor and Guest",
        ],
        Paging => &["Changing Paging Modes", "Enabling or Disabling Paging"],
        VmConfig => &[
            "Certain Virtual Machine Control Settings",
            "An Unusual VMCS Configuration",
        ],
        ConfigRegister => &[
            "Writing Certain Model Specific Registers",
            "An Inconsistent MSR Configuration",
            "Setting a Reserved Configuration Register Bit",
        ],
        PowerStateChange => &[
            "Resuming From a Core C6 Power State",
            "A Package Power State Transition",
            "Entering a Deep Sleep State",
        ],
        Throttling => &[
            "Thermal Throttling Events",
            "A Change in Power Supply Conditions",
            "Frequency Throttling",
        ],
        Reset => &["A Warm Reset", "Cold Reset Sequences"],
        Pcie => &["Ongoing PCIe Traffic", "A PCIe Link Retraining"],
        Usb => &["USB Device Activity", "A USB Controller Transfer"],
        Dram => &["A Specific DRAM Configuration", "DDR Training Sequences"],
        Iommu => &["An Access Through the IOMMU", "IOMMU Translations"],
        SystemBus => &["Heavy System Bus Activity", "HyperTransport Link Traffic"],
        FloatingPoint => &[
            "Execution of x87 Floating-Point Instructions",
            "An FSAVE or FNSAVE Instruction",
        ],
        Debug => &[
            "Using Hardware Breakpoints",
            "Single-Stepping With Debug Registers",
        ],
        Cpuid => &["A CPUID Request", "Reading Design Identification"],
        Monitoring => &["A MONITOR and MWAIT Sequence", "MWAIT Instruction Usage"],
        Tracing => &["Processor Trace Packet Generation", "Branch Trace Messages"],
        CustomFeature => &[
            "Certain SSE Instruction Sequences",
            "Using Extended Vector Instructions",
        ],
    };
    bank[pick % bank.len()]
}

/// Description-position clauses for a trigger.
fn trigger_clause(t: Trigger, pick: usize) -> &'static str {
    use Trigger::*;
    let bank: &[&str] = match t {
        CacheLineBoundary => &[
            "a data operation crosses a cache line boundary",
            "a load straddles two cache lines",
        ],
        PageBoundary => &[
            "an access crosses a page boundary",
            "a misaligned store spans a page boundary",
        ],
        MemoryMapBoundary => &[
            "an address falls near the canonical boundary of the memory map",
            "a data operation reaches a memory map boundary",
        ],
        MemoryMapped => &[
            "software accesses a memory-mapped I/O range",
            "a read targets a memory-mapped register",
        ],
        Atomic => &[
            "a locked atomic read-modify-write is executed",
            "a transactional memory region is active",
        ],
        Fence => &[
            "a serializing instruction such as MFENCE is executed",
            "a memory fence drains the store buffer",
        ],
        SegmentMode => &[
            "an unusual segment mode is configured",
            "a segment limit check is required",
        ],
        PageTableWalk => &[
            "the core performs a page table walk",
            "a hardware page walk is in progress",
        ],
        NestedTranslation => &[
            "a translation uses nested page tables",
            "a guest physical address is translated through nested paging",
        ],
        Flush => &[
            "a cache line is flushed with CLFLUSH",
            "a TLB entry is invalidated",
        ],
        Speculative => &[
            "a speculative memory operation is issued",
            "execution proceeds speculatively past a branch",
        ],
        CounterOverflow => &[
            "a performance counter overflows",
            "an overflow of an internal counter occurs",
        ],
        TimerEvent => &[
            "an APIC timer event fires",
            "a timer interrupt is delivered",
        ],
        MachineCheck => &[
            "a machine check exception is being delivered",
            "a machine check event is logged",
        ],
        IllegalInstruction => &[
            "an undefined opcode is fetched",
            "an illegal instruction is executed",
        ],
        ResumeFromSmm => &[
            "the processor resumes from System Management Mode",
            "an RSM instruction returns from SMM",
        ],
        VmTransition => &[
            "a transition between the hypervisor and a guest occurs",
            "a VM entry or VM exit is performed",
        ],
        Paging => &[
            "the paging mechanism is reconfigured",
            "paging is enabled or disabled",
        ],
        VmConfig => &[
            "a virtual machine control field holds an unusual value",
            "the VMCS is configured with specific settings",
        ],
        ConfigRegister => &[
            "software writes a specific value to a configuration register",
            "a model specific register is programmed with a reserved encoding",
            "an MSR write changes the operating configuration",
        ],
        PowerStateChange => &[
            "the core resumes from the C6 power state",
            "a package power state transition is in progress",
            "the processor enters a deep sleep state",
        ],
        Throttling => &[
            "thermal throttling engages",
            "power supply conditions change abruptly",
            "the processor is throttling its frequency",
        ],
        Reset => &[
            "a warm reset is applied",
            "a cold reset sequence is initiated",
        ],
        Pcie => &[
            "PCIe traffic is ongoing",
            "a PCIe link retrains to a lower speed",
        ],
        Usb => &[
            "a USB controller transfer is active",
            "USB device activity is present",
        ],
        Dram => &[
            "a specific DRAM configuration is populated",
            "DDR interface training is in progress",
        ],
        Iommu => &[
            "a device access is translated through the IOMMU",
            "an IOMMU translation misses its cache",
        ],
        SystemBus => &[
            "the system bus carries heavy traffic",
            "HyperTransport link activity is sustained",
        ],
        FloatingPoint => &[
            "an x87 floating-point instruction such as FSAVE is executed",
            "floating-point state is saved with FNSAVE",
        ],
        Debug => &[
            "a hardware breakpoint is armed in the debug registers",
            "single-stepping is enabled through debug features",
        ],
        Cpuid => &[
            "a CPUID leaf is queried",
            "design identification is read through CPUID",
        ],
        Monitoring => &[
            "a MONITOR and MWAIT pair is executed",
            "the core is waiting in MWAIT",
        ],
        Tracing => &[
            "processor trace packets are being generated",
            "branch trace messages are enabled",
        ],
        CustomFeature => &[
            "a specific SSE instruction sequence is executed",
            "extended vector instructions are in use",
        ],
    };
    bank[pick % bank.len()]
}

/// Context clauses ("while ...").
fn context_clause(c: Context, pick: usize) -> &'static str {
    use Context::*;
    let bank: &[&str] = match c {
        Boot => &["during BIOS initialization", "while the system is booting"],
        VmGuest => &[
            "while running as a virtual machine guest",
            "inside a virtualized guest environment",
        ],
        RealMode => &[
            "in real-address mode or virtual-8086 mode",
            "while operating in real mode",
        ],
        Hypervisor => &["while operating as a hypervisor", "in VMX root operation"],
        Smm => &["while in System Management Mode", "during SMM execution"],
        SecurityFeature => &[
            "when a security feature such as SGX or SVM is enabled",
            "with memory encryption enabled",
        ],
        SingleCore => &[
            "in a single-core configuration",
            "when only one core is active",
        ],
        Package => &[
            "on specific package types",
            "for certain package configurations",
        ],
        Temperature => &[
            "at elevated operating temperatures",
            "under specific temperature conditions",
        ],
        Voltage => &[
            "at specific supply voltages",
            "under marginal voltage conditions",
        ],
    };
    bank[pick % bank.len()]
}

/// Title-position consequences ("... May <phrase>").
fn effect_title(e: Effect, pick: usize) -> &'static str {
    use Effect::*;
    let bank: &[&str] = match e {
        Unpredictable => &[
            "Lead to Unpredictable System Behavior",
            "Cause Unpredictable Results",
        ],
        Hang => &["Cause the Processor to Hang", "Result in a System Hang"],
        Crash => &["Cause an Unexpected Crash", "Crash the Processor"],
        BootFailure => &["Prevent the System From Booting", "Cause a Boot Failure"],
        MachineCheck => &[
            "Signal a Machine Check Exception",
            "Cause an Erroneous Machine Check",
        ],
        Uncorrectable => &[
            "Report an Uncorrectable Error",
            "Log an Uncorrectable Error",
        ],
        SpuriousFault => &["Cause a Spurious Page Fault", "Raise a Spurious Fault"],
        MissingFault => &[
            "Fail to Deliver an Expected Fault",
            "Suppress a Required Exception",
        ],
        WrongFaultId => &[
            "Report an Incorrect Fault Identifier",
            "Deliver Faults in the Wrong Order",
        ],
        PerfCounter => &[
            "Produce Incorrect Performance Counter Values",
            "Over-Count Performance Events",
        ],
        MsrValue => &[
            "Be Saved Incorrectly",
            "Corrupt a Model Specific Register",
            "Leave a Stale MSR Value",
        ],
        Pcie => &["Degrade the PCIe Link", "Cause PCIe Transaction Errors"],
        Usb => &["Drop USB Transactions", "Cause USB Device Errors"],
        Multimedia => &[
            "Corrupt Audio or Graphics Output",
            "Cause Display Artifacts",
        ],
        Dram => &[
            "Interact Abnormally With DRAM",
            "Cause Memory Interface Errors",
        ],
        Power => &[
            "Increase Power Consumption Abnormally",
            "Prevent Power State Entry",
        ],
    };
    bank[pick % bank.len()]
}

/// Implication sentences.
fn effect_implication(e: Effect, pick: usize) -> &'static str {
    use Effect::*;
    let bank: &[&str] = match e {
        Unpredictable => &[
            "This may result in unpredictable system behavior.",
            "Software relying on this behavior may not operate properly.",
        ],
        Hang => &[
            "System may hang or reset.",
            "The processor may become unresponsive.",
        ],
        Crash => &[
            "The system may crash unexpectedly.",
            "An unexpected shutdown may occur.",
        ],
        BootFailure => &[
            "The system may fail to boot.",
            "A boot failure may be observed.",
        ],
        MachineCheck => &[
            "A machine check exception may be signaled.",
            "An unexpected machine check may occur.",
        ],
        Uncorrectable => &[
            "An uncorrectable error may be reported.",
            "Error containment may report an uncorrectable error.",
        ],
        SpuriousFault => &[
            "A spurious fault may be delivered to software.",
            "Software may observe an unexpected page fault.",
        ],
        MissingFault => &[
            "An expected fault may not be delivered.",
            "A required exception may be missing.",
        ],
        WrongFaultId => &[
            "The reported fault identifier may be incorrect.",
            "Faults may be delivered in the wrong order.",
        ],
        PerfCounter => &[
            "Performance monitoring counters may contain incorrect values.",
            "Performance counter readings may be inaccurate.",
        ],
        MsrValue => &[
            "The affected register may contain an incorrect value.",
            "Software reading the register may observe a corrupted value.",
        ],
        Pcie => &[
            "Errors may be observable on the PCIe side.",
            "PCIe devices may observe malformed transactions.",
        ],
        Usb => &[
            "USB devices may observe dropped transactions.",
            "Issues may be observable on the USB side.",
        ],
        Multimedia => &[
            "Audio or graphics corruption may be visible.",
            "Multimedia output may be disturbed.",
        ],
        Dram => &[
            "Abnormal interaction with DRAM may be observed.",
            "The memory interface may misbehave.",
        ],
        Power => &[
            "Abnormal power consumption may be measured.",
            "The package may fail to reach the requested power state.",
        ],
    };
    bank[pick % bank.len()]
}

/// Trivial-trigger clauses for errata without a clear trigger.
const TRIVIAL_CLAUSES: [&str; 3] = [
    "during normal operation with usual load and store activity",
    "under intense workloads",
    "in the course of ordinary instruction execution",
];

/// The vague preamble marking "complex set of conditions" errata.
const COMPLEX_PREAMBLE: &str =
    "Under a highly specific and detailed set of internal timing conditions";

/// Neutral title qualifiers used to disambiguate otherwise-identical titles
/// of distinct bugs. Deliberately free of category keywords so they never
/// influence classification.
const TITLE_QUALIFIERS: [&str; 16] = [
    " on Some Steppings",
    " Under Rare Timing",
    " in Specific Platform Layouts",
    " Following Repeated Execution",
    " After Extended Uptime",
    " With Certain Microcode Revisions",
    " on Multi-Socket Platforms",
    " During Early Silicon Bring-Up",
    " When Lightly Loaded",
    " Under Sustained Activity",
    " in Corner-Case Sequences",
    " on Selected SKUs",
    " With Legacy Firmware",
    " in Back-to-Back Sequences",
    " Across Consecutive Operations",
    " Within a Narrow Window",
];

/// Styles below this append at most one title qualifier; later styles
/// append an ordered pair of distinct qualifiers. Only corpora with more
/// trigger-less bugs per primary effect than single-qualifier titles ever
/// reach the pairs.
const PAIRED_QUALIFIER_STYLE: u32 = 512;

/// The number of styles title uniquification may try per bug: the
/// single-qualifier range, then four passes over every ordered qualifier
/// pair (each pass redraws the phrase picks).
pub(crate) const TITLE_STYLES: u32 =
    PAIRED_QUALIFIER_STYLE + 4 * (TITLE_QUALIFIERS.len() * (TITLE_QUALIFIERS.len() - 1)) as u32;

/// Derives the deterministic per-bug RNG.
fn bug_rng(spec: &CorpusSpec, bug: &BugSeed, style: u32) -> CorpusRng {
    let mix = spec
        .seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(bug.key.value()) << 8)
        .wrapping_add(u64::from(style).wrapping_mul(0x517C_C1B7_2722_0A95));
    CorpusRng::seed_from_u64(mix)
}

/// Renders the full erratum text for a bug.
///
/// `variant` selects the phrasing of duplicated listings; the near-duplicate
/// pairs render one document with `variant = 1` so titles differ slightly
/// between documents. `style` reshuffles the phrase picks and (for
/// `style > 0`) appends one neutral title qualifier, or a pair of them
/// from `PAIRED_QUALIFIER_STYLE` on — the assembly stage
/// increments it until every unique bug has a distinct normalized title,
/// preserving the study's observation that "identical titles imply
/// identical errata".
pub fn render_bug_text(
    spec: &CorpusSpec,
    bug: &BugSeed,
    profile: &BugProfile,
    variant: u32,
    style: u32,
) -> BugText {
    let mut rng = bug_rng(spec, bug, style);
    let ann = &profile.annotation;

    let triggers: Vec<Trigger> = ann.triggers.iter().collect();
    let contexts: Vec<Context> = ann.contexts.iter().collect();
    let effects: Vec<Effect> = ann.effects.iter().collect();

    // Per-category base picks chosen once (variant shifts them for titles).
    let base_pick: usize = rng.random_range(0..4usize);

    // ---- Title -------------------------------------------------------------
    let title_subject = match triggers.first() {
        Some(&t) => trigger_title(t, base_pick).to_string(),
        None => "The Processor".to_string(),
    };
    let primary_effect = *effects.first().expect("every bug has an effect");
    // Near-duplicate variants keep the title "nearly identical": a modal
    // swap plus a qualifier, like the minor phrasing variations the study
    // found between documents.
    let modal = if variant == 0 { "May" } else { "Might" };
    let variant_qualifier = if variant == 0 { "" } else { " in Some Cases" };
    let n = TITLE_QUALIFIERS.len();
    let style_qualifier = if style == 0 {
        String::new()
    } else if style < PAIRED_QUALIFIER_STYLE {
        TITLE_QUALIFIERS[(style as usize - 1 + rng.random_range(0..n)) % n].to_string()
    } else {
        // Walk the n * (n - 1) ordered pairs of distinct qualifiers.
        let k = (style - PAIRED_QUALIFIER_STYLE) as usize;
        let first = k % n;
        let second = (first + 1 + (k / n) % (n - 1)) % n;
        format!("{}{}", TITLE_QUALIFIERS[first], TITLE_QUALIFIERS[second])
    };
    let title = format!(
        "{} {} {}{}{}",
        title_subject,
        modal,
        effect_title(primary_effect, base_pick),
        style_qualifier,
        variant_qualifier
    );

    // ---- Description ---------------------------------------------------------
    let concrete_triggers: Vec<String> = if triggers.is_empty() {
        vec![TRIVIAL_CLAUSES[base_pick % TRIVIAL_CLAUSES.len()].to_string()]
    } else {
        triggers
            .iter()
            .map(|&t| trigger_clause(t, base_pick).to_string())
            .collect()
    };
    let concrete_contexts: Vec<String> = contexts
        .iter()
        .map(|&c| context_clause(c, base_pick).to_string())
        .collect();
    let concrete_effects: Vec<String> = effects
        .iter()
        .map(|&e| effect_title(e, base_pick).to_string())
        .collect();

    let mut description = String::new();
    if ann.complex_conditions {
        description.push_str(COMPLEX_PREAMBLE);
        description.push_str(", ");
    }
    description.push_str("when ");
    description.push_str(&join_clauses(&concrete_triggers));
    if !concrete_contexts.is_empty() {
        description.push(' ');
        description.push_str(&concrete_contexts.join(" or "));
    }
    description.push_str(", the processor may not behave as expected. ");
    description.push_str(&format!(
        "This erratum may {}.",
        lowercase_first(effect_title(primary_effect, base_pick))
    ));
    // Bug-specific operating parameters, as real errata carry ("a code
    // footprint exceeding 32 KB", "a highly specific window"). The window
    // length is injective in the bug key, which makes descriptions unique
    // per bug — the textual near-identity signal the duplicate-detection
    // cascade verifies, mirroring the study's finding that identical titles
    // come with identical remaining fields.
    description.push_str(&format!(
        " The condition requires a window of approximately {} core cycles and at least {} back-to-back operations.",
        16 + bug.key.value(),
        2 + bug.key.value() % 13
    ));
    for msr in &ann.msrs {
        description.push_str(&format!(
            " The {} register (MSR {:#X}) may contain an incorrect value.",
            msr.name, msr.claimed_address
        ));
    }

    // ---- Implications ----------------------------------------------------------
    let implications = effects
        .iter()
        .map(|&e| effect_implication(e, base_pick))
        .collect::<Vec<_>>()
        .join(" ");

    BugText {
        title,
        description,
        implications,
        workaround: profile.workaround.document_phrase().to_string(),
        status: profile.fix.document_phrase().to_string(),
        concrete_triggers,
        concrete_contexts,
        concrete_effects,
    }
}

/// Joins trigger clauses conjunctively, mirroring real erratum phrasing.
fn join_clauses(clauses: &[String]) -> String {
    match clauses.len() {
        0 => String::new(),
        1 => clauses[0].clone(),
        2 => format!("{} while {}", clauses[0], clauses[1]),
        _ => {
            let head = clauses[..clauses.len() - 1].join(", ");
            format!(
                "{}, in combination with {}",
                head,
                clauses[clauses.len() - 1]
            )
        }
    }
}

fn lowercase_first(s: &str) -> String {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) => c.to_lowercase().collect::<String>() + chars.as_str(),
        None => String::new(),
    }
}

/// Alternative workaround phrase for the AMD near-miss pair (errata like
/// no. 1327 / no. 1329 that differ only in their suggested workaround).
pub fn alternative_workaround(category: WorkaroundCategory) -> &'static str {
    match category {
        WorkaroundCategory::Bios => "BIOS should program the recommended settings at boot.",
        WorkaroundCategory::Software => "The operating system should avoid the listed sequence.",
        WorkaroundCategory::Peripherals => "The device should retry the affected transaction.",
        WorkaroundCategory::Absent => "Contact your field representative for guidance.",
        WorkaroundCategory::None => "None identified at this time.",
        WorkaroundCategory::DocumentationFix => "See the updated documentation.",
    }
}

/// Marker used by classification rules to detect vague errata.
pub fn complex_conditions_marker() -> &'static str {
    COMPLEX_PREAMBLE
}

/// Vendor-flavored boilerplate appended to some implications.
pub fn vendor_boilerplate(vendor: Vendor) -> &'static str {
    match vendor {
        Vendor::Intel => {
            "Intel has not observed this erratum in any commercially available software."
        }
        Vendor::Amd => "AMD is not aware of customer impact at this time.",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bugpool::build_pool;
    use crate::sampler::sample_profile;

    fn first_bugs(n: usize) -> Vec<(BugSeed, BugProfile)> {
        let spec = CorpusSpec::scaled(0.1);
        let mut rng = CorpusRng::seed_from_u64(spec.seed);
        let pool = build_pool(&spec, &mut rng).unwrap();
        pool.into_iter()
            .take(n)
            .map(|b| {
                let p = sample_profile(&spec, &b, &mut rng);
                (b, p)
            })
            .collect()
    }

    #[test]
    fn rendering_is_deterministic_per_bug() {
        let spec = CorpusSpec::scaled(0.1);
        for (bug, profile) in first_bugs(20) {
            let a = render_bug_text(&spec, &bug, &profile, 0, 0);
            let b = render_bug_text(&spec, &bug, &profile, 0, 0);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn variant_changes_title_only_slightly() {
        let spec = CorpusSpec::scaled(0.1);
        for (bug, profile) in first_bugs(20) {
            let a = render_bug_text(&spec, &bug, &profile, 0, 0);
            let b = render_bug_text(&spec, &bug, &profile, 1, 0);
            assert_ne!(a.title, b.title);
            // Same description: still recognizably the same bug.
            assert_eq!(a.description, b.description);
            let sim = rememberr_textkit::title_similarity(&a.title, &b.title);
            assert!(sim > 0.5, "{sim}: {:?} vs {:?}", a.title, b.title);
        }
    }

    #[test]
    fn complex_bugs_carry_the_preamble() {
        let spec = CorpusSpec::scaled(0.2);
        let mut rng = CorpusRng::seed_from_u64(spec.seed);
        let pool = build_pool(&spec, &mut rng).unwrap();
        let mut saw_complex = false;
        for bug in &pool {
            let profile = sample_profile(&spec, bug, &mut rng);
            let text = render_bug_text(&spec, bug, &profile, 0, 0);
            if profile.annotation.complex_conditions {
                saw_complex = true;
                assert!(text.description.contains(complex_conditions_marker()));
            }
        }
        assert!(saw_complex, "corpus should contain complex-condition bugs");
    }

    #[test]
    fn concrete_strings_parallel_categories() {
        let spec = CorpusSpec::scaled(0.1);
        for (bug, profile) in first_bugs(30) {
            let text = render_bug_text(&spec, &bug, &profile, 0, 0);
            if !profile.annotation.has_no_clear_trigger() {
                assert_eq!(
                    text.concrete_triggers.len(),
                    profile.annotation.triggers.len()
                );
            }
            assert_eq!(
                text.concrete_contexts.len(),
                profile.annotation.contexts.len()
            );
            assert_eq!(
                text.concrete_effects.len(),
                profile.annotation.effects.len()
            );
        }
    }

    #[test]
    fn msr_references_render_with_addresses() {
        let spec = CorpusSpec::scaled(0.3);
        let mut rng = CorpusRng::seed_from_u64(spec.seed);
        let pool = build_pool(&spec, &mut rng).unwrap();
        let mut saw_msr = false;
        for bug in &pool {
            let profile = sample_profile(&spec, bug, &mut rng);
            if let Some(msr) = profile.annotation.msrs.first() {
                let text = render_bug_text(&spec, bug, &profile, 0, 0);
                assert!(text.description.contains(msr.name.text()));
                assert!(text.description.contains("MSR 0x"));
                saw_msr = true;
            }
        }
        assert!(saw_msr);
    }

    #[test]
    fn join_clauses_shapes() {
        assert_eq!(join_clauses(&[]), "");
        assert_eq!(join_clauses(&["a".into()]), "a");
        assert_eq!(join_clauses(&["a".into(), "b".into()]), "a while b");
        assert_eq!(
            join_clauses(&["a".into(), "b".into(), "c".into()]),
            "a, b, in combination with c"
        );
    }

    #[test]
    fn phrase_banks_cover_all_categories() {
        for &t in Trigger::ALL {
            assert!(!trigger_title(t, 0).is_empty());
            assert!(!trigger_clause(t, 1).is_empty());
        }
        for &c in Context::ALL {
            assert!(!context_clause(c, 0).is_empty());
        }
        for &e in Effect::ALL {
            assert!(!effect_title(e, 0).is_empty());
            assert!(!effect_implication(e, 1).is_empty());
        }
    }
}
