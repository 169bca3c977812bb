//! Query-engine equivalence: the indexed engine (posting lists + selectivity
//! planner) and the scan engine return byte-identical result id sequences and
//! identical counts for randomly generated query combinations, on databases
//! built at worker counts 1 and 8.
//!
//! This is the correctness contract of the indexed query-serving work:
//! posting lists, galloping intersection, and date-window bracketing are
//! throughput knobs, never semantics knobs. The pinned date test nails the
//! inclusive/exclusive bracket convention (`>= after`, `< before`) on both
//! engines so a planner rewrite cannot silently shift a boundary. The
//! figure-shaped battery pins the planner's effort: the indexed engine
//! scans at least 10x fewer entries than the scan and stays under the
//! committed per-scale ceiling.

use std::num::NonZeroUsize;
use std::sync::{Mutex, OnceLock};

use proptest::prelude::*;
use rememberr::{Database, Query, QueryEngine, QueryIndex};
use rememberr_classify::{classify_database, FourEyesConfig, HumanOracle, Rules};
use rememberr_docgen::{CorpusSpec, SyntheticCorpus};
use rememberr_model::{
    Context, Date, Design, Effect, ErratumId, FixStatus, MsrName, Trigger, TriggerClass, Vendor,
    WorkaroundCategory,
};

/// The battery test reads the process-global `query.entries_scanned`
/// counter, which every query run feeds, so all tests serialize on this
/// lock.
static GLOBAL: Mutex<()> = Mutex::new(());

/// Committed ceilings on the indexed engine's `query.entries_scanned` over
/// the whole [`battery`] at corpus scales 0.25 / 0.5 / 1.0. Entries
/// scanned is a pure function of the seeded corpus and the planner, so any
/// increase is a real regression, not noise.
const BATTERY_SCAN_CEILINGS: [(f64, u64); 3] = [(0.25, 3_154), (0.5, 6_359), (1.0, 12_662)];

/// A database built from a generated corpus and annotated by the rules
/// plus the simulated four-eyes review.
fn annotated_db(corpus: &SyntheticCorpus) -> Database {
    let mut db = Database::from_documents(&corpus.structured);
    classify_database(
        &mut db,
        &Rules::standard(),
        HumanOracle::Simulated(&corpus.truth),
        &FourEyesConfig::default(),
    );
    db
}

/// Annotated databases built from the same corpus at jobs=1 and jobs=8.
fn dbs() -> &'static (Database, Database) {
    static DBS: OnceLock<(Database, Database)> = OnceLock::new();
    DBS.get_or_init(|| {
        let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.15));
        let mut built = Vec::new();
        for jobs in [1usize, 8] {
            rememberr_par::set_jobs(NonZeroUsize::new(jobs));
            built.push(annotated_db(&corpus));
        }
        rememberr_par::set_jobs(None);
        let jobs8 = built.pop().expect("two databases");
        let jobs1 = built.pop().expect("two databases");
        (jobs1, jobs8)
    })
}

/// A serializable description of one query condition; a random `Vec<Cond>`
/// folded over `Query::new()` covers every facet the planner handles plus
/// the residual predicate (`min_triggers`).
#[derive(Debug, Clone)]
enum Cond {
    Vendor(bool),
    Design(usize),
    Trigger(usize),
    TriggerClass(usize),
    Context(usize),
    Effect(usize),
    Msr(usize),
    Workaround(usize),
    Fix(usize),
    After(u16),
    Before(u16),
    MinTriggers(usize),
    Unique,
    Annotated,
}

fn apply(query: Query, cond: &Cond) -> Query {
    match cond {
        Cond::Vendor(intel) => query.vendor(if *intel { Vendor::Intel } else { Vendor::Amd }),
        Cond::Design(i) => query.design(Design::ALL[i % Design::ALL.len()]),
        Cond::Trigger(i) => query.trigger(Trigger::ALL[i % Trigger::ALL.len()]),
        Cond::TriggerClass(i) => {
            query.trigger_class(TriggerClass::ALL[i % TriggerClass::ALL.len()])
        }
        Cond::Context(i) => query.context(Context::ALL[i % Context::ALL.len()]),
        Cond::Effect(i) => query.effect(Effect::ALL[i % Effect::ALL.len()]),
        Cond::Msr(i) => query.msr(MsrName::ALL[i % MsrName::ALL.len()]),
        Cond::Workaround(i) => {
            query.workaround(WorkaroundCategory::ALL[i % WorkaroundCategory::ALL.len()])
        }
        Cond::Fix(i) => query.fix(FixStatus::ALL[i % FixStatus::ALL.len()]),
        Cond::After(day) => query.disclosed_after(date_from_day(*day)),
        Cond::Before(day) => query.disclosed_before(date_from_day(*day)),
        Cond::MinTriggers(n) => query.min_triggers(n % 4),
        Cond::Unique => query.unique_only(),
        Cond::Annotated => query.annotated_only(),
    }
}

/// Spread an arbitrary day offset over the corpus' disclosure span
/// (roughly 2008-2021) so date windows land on populated, boundary, and
/// empty regions alike.
fn date_from_day(day: u16) -> Date {
    let year = 2008 + u32::from(day) / 336;
    let month = 1 + (u32::from(day) / 28) % 12;
    let dom = 1 + u32::from(day) % 28;
    Date::new(year as i32, month as u8, dom as u8).expect("generated date is valid")
}

fn cond_strategy() -> impl Strategy<Value = Cond> {
    prop_oneof![
        any::<bool>().prop_map(Cond::Vendor),
        (0usize..64).prop_map(Cond::Design),
        (0usize..64).prop_map(Cond::Trigger),
        (0usize..64).prop_map(Cond::TriggerClass),
        (0usize..64).prop_map(Cond::Context),
        (0usize..64).prop_map(Cond::Effect),
        (0usize..64).prop_map(Cond::Msr),
        (0usize..64).prop_map(Cond::Workaround),
        (0usize..64).prop_map(Cond::Fix),
        (0u16..4700).prop_map(Cond::After),
        (0u16..4700).prop_map(Cond::Before),
        (0usize..4).prop_map(Cond::MinTriggers),
        Just(Cond::Unique),
        Just(Cond::Annotated),
    ]
}

/// The full identity of a result sequence: ids in order plus dedup keys.
fn fingerprint(query: &Query, db: &Database, engine: QueryEngine) -> Vec<(String, Option<u32>)> {
    query
        .run_with(db, engine)
        .iter()
        .map(|e| (e.id().to_string(), e.key.map(|k| k.value())))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn engines_agree_on_random_queries_at_every_worker_count(
        conds in prop::collection::vec(cond_strategy(), 0..5),
    ) {
        let _guard = GLOBAL.lock().unwrap();
        let query = conds.iter().fold(Query::new(), apply);
        let (jobs1, jobs8) = dbs();
        let oracle = fingerprint(&query, jobs1, QueryEngine::Scan);
        for (jobs, db) in [(1usize, jobs1), (8, jobs8)] {
            let scan = fingerprint(&query, db, QueryEngine::Scan);
            let indexed = fingerprint(&query, db, QueryEngine::Indexed);
            prop_assert_eq!(&scan, &oracle, "scan diverges across jobs={}", jobs);
            prop_assert_eq!(&indexed, &oracle, "indexed diverges at jobs={}", jobs);
            prop_assert_eq!(query.count(db), oracle.len(), "count at jobs={}", jobs);
            prop_assert_eq!(
                query.count_indexed(db.query_index(), db),
                oracle.len(),
                "count_indexed at jobs={}",
                jobs
            );
        }
    }

    #[test]
    fn prebuilt_index_matches_cached_index(conds in prop::collection::vec(cond_strategy(), 0..4)) {
        let _guard = GLOBAL.lock().unwrap();
        // A freshly built index and the database's lazily cached one serve
        // identical results — the cache is pure memoization.
        let query = conds.iter().fold(Query::new(), apply);
        let (db, _) = dbs();
        let fresh = QueryIndex::build(db);
        let via_fresh: Vec<String> = query
            .run_indexed(&fresh, db)
            .iter()
            .map(|e| e.id().to_string())
            .collect();
        let via_cached: Vec<String> = query
            .run_indexed(db.query_index(), db)
            .iter()
            .map(|e| e.id().to_string())
            .collect();
        prop_assert_eq!(via_fresh, via_cached);
    }
}

#[test]
fn date_bounds_are_inclusive_after_exclusive_before_on_both_engines() {
    let _guard = GLOBAL.lock().unwrap();
    let (db, _) = dbs();
    let entry = &db.entries()[db.len() / 2];
    let pivot = entry.provenance.disclosure_date;
    for engine in [QueryEngine::Indexed, QueryEngine::Scan] {
        // `disclosed_after` is inclusive: a window starting exactly at the
        // pivot date still contains the pivot entry.
        let from_pivot = Query::new().disclosed_after(pivot).run_with(db, engine);
        assert!(
            from_pivot.iter().any(|e| e.id() == entry.id()),
            "{engine}: >= after must include the boundary date"
        );
        assert!(from_pivot
            .iter()
            .all(|e| e.provenance.disclosure_date >= pivot));

        // `disclosed_before` is exclusive: a window ending exactly at the
        // pivot date excludes the pivot entry.
        let until_pivot = Query::new().disclosed_before(pivot).run_with(db, engine);
        assert!(
            until_pivot
                .iter()
                .all(|e| e.provenance.disclosure_date < pivot),
            "{engine}: < before must exclude the boundary date"
        );

        // The two windows partition the database exactly.
        assert_eq!(from_pivot.len() + until_pivot.len(), db.len(), "{engine}");

        // An empty window is empty on both engines.
        let empty = Query::new()
            .disclosed_after(pivot)
            .disclosed_before(pivot)
            .run_with(db, engine);
        assert!(empty.is_empty(), "{engine}: [pivot, pivot) must be empty");
    }
}

/// The figure-shaped battery of selective facet queries: per-vendor
/// unique-bug counts for every trigger, context, effect, MSR, and
/// workaround category, plus date-window and composite shapes.
fn battery() -> Vec<Query> {
    let mut queries = Vec::new();
    let after = Date::new(2016, 1, 1).expect("valid date");
    let before = Date::new(2019, 1, 1).expect("valid date");
    for &vendor in &Vendor::ALL {
        let base = Query::new().vendor(vendor).unique_only();
        for &trigger in Trigger::ALL {
            queries.push(base.clone().trigger(trigger));
        }
        for &context in Context::ALL {
            queries.push(base.clone().context(context));
        }
        for &effect in Effect::ALL {
            queries.push(base.clone().effect(effect));
        }
        for name in MsrName::ALL {
            queries.push(base.clone().msr(name));
        }
        for category in WorkaroundCategory::ALL {
            queries.push(base.clone().workaround(category));
        }
        queries.push(base.clone().disclosed_after(after).disclosed_before(before));
        queries.push(
            base.clone()
                .effect(Effect::Hang)
                .fix(FixStatus::NoFixPlanned)
                .disclosed_after(after),
        );
        queries.push(base.clone().trigger(Trigger::Reset).min_triggers(2));
    }
    queries
}

/// Runs the whole battery on one engine: the result ids of every query
/// and the entries the engine scanned for all of them.
fn run_battery(
    db: &Database,
    queries: &[Query],
    engine: QueryEngine,
) -> (Vec<Vec<ErratumId>>, u64) {
    rememberr_obs::reset();
    rememberr_obs::enable();
    let ids = queries
        .iter()
        .map(|q| q.run_with(db, engine).iter().map(|e| e.id()).collect())
        .collect();
    let scanned = rememberr_obs::snapshot()
        .counters
        .get("query.entries_scanned")
        .copied()
        .unwrap_or(0);
    rememberr_obs::disable();
    rememberr_obs::reset();
    (ids, scanned)
}

#[test]
fn battery_scans_stay_under_the_committed_ceilings() {
    let _guard = GLOBAL.lock().unwrap();
    let queries = battery();
    assert_eq!(
        queries.len(),
        190,
        "the ceilings are pinned to this battery"
    );
    for (scale, ceiling) in BATTERY_SCAN_CEILINGS {
        let db = annotated_db(&SyntheticCorpus::generate(&CorpusSpec::scaled(scale)));
        let (indexed_ids, indexed) = run_battery(&db, &queries, QueryEngine::Indexed);
        let (scan_ids, scan) = run_battery(&db, &queries, QueryEngine::Scan);
        for (i, (a, b)) in indexed_ids.iter().zip(&scan_ids).enumerate() {
            assert_eq!(
                a, b,
                "scale {scale}: query #{i} ({:?}) diverged from the scan oracle",
                queries[i]
            );
        }
        assert!(
            indexed <= ceiling,
            "scale {scale}: indexed entries_scanned {indexed} exceeds the committed ceiling {ceiling}"
        );
        assert!(
            scan >= 10 * indexed,
            "scale {scale}: expected >= 10x fewer entries scanned: scan {scan} vs indexed {indexed}"
        );
    }
}
