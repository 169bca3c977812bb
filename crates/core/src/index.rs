//! Indexed query serving: per-database posting lists and a selectivity
//! planner.
//!
//! [`crate::Query::run`] is an `O(entries)` scan per query; every analysis
//! figure is ultimately a batch of facet queries, so at scale the scan is
//! the last unindexed hot loop in the serving path. [`QueryIndex`] makes
//! those batches cheap:
//!
//! * **Posting lists** — for every equality facet a query supports
//!   (vendor, design, workaround, fix, trigger, trigger class, context,
//!   effect, MSR) the index keeps the sorted entry positions matching each
//!   facet value. Two *families* are kept: one over all entries and one
//!   restricted to unique-bug representatives, so `unique_only` queries
//!   intersect representative-sized lists instead of re-deriving the
//!   representative view per query.
//! * **Date bracketing** — entry positions sorted by disclosure date plus
//!   a per-entry date rank turn `disclosed_after`/`disclosed_before` into
//!   two binary searches: a window `[lo, hi)` in date-rank space that is
//!   either materialized as the driving candidate list (when it is the
//!   most selective predicate) or applied as an `O(1)` rank check.
//! * **Planner** — execution drives from the smallest posting list,
//!   intersects the remaining lists with galloping sorted intersection,
//!   and falls back to [`crate::Query::matches`] only for residual
//!   predicates the index cannot decide (`min_triggers`).
//!
//! The scan stays available as the correctness oracle behind
//! [`QueryEngine::Scan`] (`--query-engine scan` on the CLI): the engine is
//! a throughput knob, never a semantics knob. Results come back in exactly
//! the order [`crate::Query::run`] produces (entry order, or
//! representative key order under `unique_only`).
//!
//! Observability: building emits the `query.build_index` span; execution
//! emits `query.execute` plus the counters `query.entries_scanned`
//! (candidates the engine visited), `query.postings_intersected` (lists
//! intersected beyond the driver) and `query.residual_checks` (candidates
//! that went through the residual `matches` fallback).

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;
use std::sync::OnceLock;

use rememberr_model::{
    Context, Date, Design, Effect, FixStatus, MsrName, Trigger, TriggerClass, UniqueKey, Vendor,
    WorkaroundCategory,
};

use crate::db::Database;
use crate::entry::DbEntry;
use crate::query::Query;

/// Which implementation serves a query.
///
/// Both engines return identical results (the equivalence suite asserts
/// byte-identical id sequences); the scan is kept as the correctness
/// oracle for the indexed planner.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum QueryEngine {
    /// Posting-list intersection driven by the most selective facet
    /// (default).
    #[default]
    Indexed,
    /// The original full scan through [`crate::Query::matches`] — the
    /// correctness oracle the indexed planner is checked against.
    Scan,
}

impl FromStr for QueryEngine {
    type Err = String;

    fn from_str(text: &str) -> Result<Self, Self::Err> {
        match text {
            "indexed" => Ok(QueryEngine::Indexed),
            "scan" => Ok(QueryEngine::Scan),
            other => Err(format!(
                "invalid query engine {other:?} (expected \"indexed\" or \"scan\")"
            )),
        }
    }
}

impl fmt::Display for QueryEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            QueryEngine::Indexed => "indexed",
            QueryEngine::Scan => "scan",
        })
    }
}

/// One family of posting lists over a universe of entry positions.
///
/// The `all` family's universe is every entry (implicit `0..entries`); the
/// `unique` family's universe is the unique-bug representatives, so a
/// `unique_only` query never touches non-representative positions.
#[derive(Debug, Default)]
struct PostingFamily {
    vendor: Vec<Vec<u32>>,
    design: Vec<Vec<u32>>,
    workaround: Vec<Vec<u32>>,
    fix: Vec<Vec<u32>>,
    trigger: Vec<Vec<u32>>,
    trigger_class: Vec<Vec<u32>>,
    context: Vec<Vec<u32>>,
    effect: Vec<Vec<u32>>,
    msr: Vec<Vec<u32>>,
    /// Positions with an annotation attached.
    annotated: Vec<u32>,
}

impl PostingFamily {
    fn with_slots() -> Self {
        PostingFamily {
            vendor: vec![Vec::new(); Vendor::ALL.len()],
            design: vec![Vec::new(); Design::ALL.len()],
            workaround: vec![Vec::new(); WorkaroundCategory::ALL.len()],
            fix: vec![Vec::new(); FixStatus::ALL.len()],
            trigger: vec![Vec::new(); Trigger::ALL.len()],
            trigger_class: vec![Vec::new(); TriggerClass::ALL.len()],
            context: vec![Vec::new(); Context::ALL.len()],
            effect: vec![Vec::new(); Effect::ALL.len()],
            msr: vec![Vec::new(); MsrName::ALL.len()],
            annotated: Vec::new(),
        }
    }

    /// Files entry `pos` under every facet value it matches. Positions
    /// arrive in ascending order, so every list stays sorted.
    fn add(&mut self, pos: u32, entry: &DbEntry) {
        self.vendor[slot(&Vendor::ALL, entry.vendor())].push(pos);
        self.design[entry.design().index()].push(pos);
        self.workaround[slot(&WorkaroundCategory::ALL, entry.workaround)].push(pos);
        self.fix[slot(&FixStatus::ALL, entry.fix)].push(pos);
        let Some(ann) = entry.annotation.as_ref() else {
            return;
        };
        self.annotated.push(pos);
        for t in ann.triggers.iter() {
            self.trigger[t.index()].push(pos);
        }
        for class in ann.trigger_classes() {
            self.trigger_class[class.index()].push(pos);
        }
        for c in ann.contexts.iter() {
            self.context[c.index()].push(pos);
        }
        for e in ann.effects.iter() {
            self.effect[e.index()].push(pos);
        }
        for msr in &ann.msrs {
            let list = &mut self.msr[slot(&MsrName::ALL, msr.name)];
            // An annotation may reference the same register more than once
            // (e.g. distinct banks); each entry appears at most once per
            // posting list.
            if list.last() != Some(&pos) {
                list.push(pos);
            }
        }
    }
}

/// Position of `value` in a facet's canonical `ALL` table.
fn slot<T: PartialEq + Copy>(all: &[T], value: T) -> usize {
    all.iter()
        .position(|&v| v == value)
        .expect("facet value is in its ALL table")
}

/// Immutable per-database query index: posting lists for every equality
/// facet, a date-sorted position array, and the unique-representative view.
///
/// Build one with [`QueryIndex::build`] or let the database cache it via
/// [`Database::query_index`]; serve queries with
/// [`crate::Query::run_indexed`] / [`crate::Query::count_indexed`].
///
/// # Examples
///
/// ```
/// use rememberr::{Database, Query, QueryIndex};
/// use rememberr_docgen::{CorpusSpec, SyntheticCorpus};
/// use rememberr_model::Vendor;
///
/// let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.05));
/// let db = Database::from_documents(&corpus.structured);
/// let index = QueryIndex::build(&db);
/// let query = Query::new().vendor(Vendor::Intel).unique_only();
/// assert_eq!(query.run_indexed(&index, &db).len(), query.count(&db));
/// ```
#[derive(Debug)]
pub struct QueryIndex {
    /// Number of entries the index was built over.
    entries: usize,
    /// Posting lists over all entry positions.
    all: PostingFamily,
    /// Posting lists over unique-bug representative positions only.
    unique: PostingFamily,
    /// Representative positions, sorted by position — the unique family's
    /// universe.
    unique_set: Vec<u32>,
    /// Position → output rank among representatives (key order, the order
    /// [`Database::unique_entries`] returns); `u32::MAX` for
    /// non-representatives.
    unique_rank: Vec<u32>,
    /// Entry positions sorted by `(disclosure_date, position)`.
    date_order: Vec<u32>,
    /// Disclosure dates in `date_order` order, for binary bracketing.
    dates_sorted: Vec<Date>,
    /// Position → rank in `date_order`.
    date_rank: Vec<u32>,
}

impl QueryIndex {
    /// Builds the index in one pass over the database (plus two sorts for
    /// the date and representative orders).
    pub fn build(db: &Database) -> Self {
        let _span = rememberr_obs::span!("query.build_index");
        let entries = db.entries();
        let n = entries.len();

        // Representative per cluster: earliest disclosure, ties broken by
        // design order then erratum number, first position on full ties —
        // exactly the choice `Database::unique_entries` makes.
        let mut best: HashMap<UniqueKey, u32> = HashMap::new();
        for (i, e) in entries.iter().enumerate() {
            let Some(key) = e.key else { continue };
            let cand = (
                e.provenance.disclosure_date,
                e.design().index(),
                e.id().number,
            );
            best.entry(key)
                .and_modify(|pos| {
                    let cur = &entries[*pos as usize];
                    let incumbent = (
                        cur.provenance.disclosure_date,
                        cur.design().index(),
                        cur.id().number,
                    );
                    if cand < incumbent {
                        *pos = i as u32;
                    }
                })
                .or_insert(i as u32);
        }
        let mut reps: Vec<(UniqueKey, u32)> = best.into_iter().collect();
        reps.sort_unstable_by_key(|&(key, _)| key);
        let mut unique_rank = vec![u32::MAX; n];
        for (rank, &(_, pos)) in reps.iter().enumerate() {
            unique_rank[pos as usize] = rank as u32;
        }
        let mut unique_set: Vec<u32> = reps.iter().map(|&(_, pos)| pos).collect();
        unique_set.sort_unstable();

        let mut all = PostingFamily::with_slots();
        let mut unique = PostingFamily::with_slots();
        for (i, entry) in entries.iter().enumerate() {
            let pos = i as u32;
            all.add(pos, entry);
            if unique_rank[i] != u32::MAX {
                unique.add(pos, entry);
            }
        }

        let mut date_order: Vec<u32> = (0..n as u32).collect();
        date_order.sort_unstable_by_key(|&i| (entries[i as usize].provenance.disclosure_date, i));
        let dates_sorted: Vec<Date> = date_order
            .iter()
            .map(|&i| entries[i as usize].provenance.disclosure_date)
            .collect();
        let mut date_rank = vec![0u32; n];
        for (rank, &i) in date_order.iter().enumerate() {
            date_rank[i as usize] = rank as u32;
        }

        QueryIndex {
            entries: n,
            all,
            unique,
            unique_set,
            unique_rank,
            date_order,
            dates_sorted,
            date_rank,
        }
    }

    /// Number of entries the index covers.
    pub fn entry_count(&self) -> usize {
        self.entries
    }

    /// Number of unique-bug representatives the index covers.
    pub fn unique_count(&self) -> usize {
        self.unique_set.len()
    }
}

/// Lazily-built [`QueryIndex`] cache living inside [`Database`].
///
/// The cell participates in the database's derived `Clone`/`Debug`/
/// `Default` without leaking into equality or serialization: clones start
/// empty (the clone rebuilds on first use), and two databases compare
/// equal regardless of which of them has built its index.
#[derive(Default)]
pub(crate) struct QueryIndexCell(OnceLock<QueryIndex>);

impl QueryIndexCell {
    /// The cached index, building it on first use. Safe under concurrent
    /// readers: one builds, the rest block and share the result.
    pub(crate) fn get_or_build(&self, build: impl FnOnce() -> QueryIndex) -> &QueryIndex {
        self.0.get_or_init(build)
    }

    /// Drops any built index; the next reader rebuilds. Called by every
    /// database mutator.
    pub(crate) fn invalidate(&mut self) {
        self.0 = OnceLock::new();
    }

    /// Whether an index is currently cached. Mutators debug-assert this
    /// is false after invalidating — a mutation that leaves a built index
    /// behind would serve stale query results.
    pub(crate) fn is_built(&self) -> bool {
        self.0.get().is_some()
    }
}

impl Clone for QueryIndexCell {
    fn clone(&self) -> Self {
        QueryIndexCell::default()
    }
}

impl fmt::Debug for QueryIndexCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self.0.get() {
            Some(_) => "QueryIndexCell(built)",
            None => "QueryIndexCell(empty)",
        })
    }
}

/// Runs `query` through the index, returning entries in the same order the
/// scan produces.
pub(crate) fn execute<'db>(
    query: &Query,
    index: &QueryIndex,
    db: &'db Database,
) -> Vec<&'db DbEntry> {
    let _span = rememberr_obs::span!("query.execute");
    let mut positions = matching_positions(query, index, db);
    if query.unique_only {
        // Scan order for unique queries is representative key order.
        positions.sort_unstable_by_key(|&p| index.unique_rank[p as usize]);
    }
    let entries = db.entries();
    positions.iter().map(|&p| &entries[p as usize]).collect()
}

/// Number of matches, without materializing entry references: for fully
/// indexed queries this is the length of the final intersection.
pub(crate) fn execute_count(query: &Query, index: &QueryIndex, db: &Database) -> usize {
    let _span = rememberr_obs::span!("query.execute");
    matching_positions(query, index, db).len()
}

/// The planner: sorted positions of every entry matching `query`.
///
/// # Panics
///
/// Panics if the index was built over a database with a different entry
/// count (an index is only valid for the exact database it was built
/// from).
fn matching_positions(query: &Query, index: &QueryIndex, db: &Database) -> Vec<u32> {
    assert_eq!(
        index.entries,
        db.len(),
        "QueryIndex was built over a different database (entry counts differ)"
    );

    // Date window in date-rank space: `>= after` is rank >= lo, `< before`
    // is rank < hi (positions are sorted by date, so the cut points come
    // from two binary searches).
    let has_date = query.disclosed_after.is_some() || query.disclosed_before.is_some();
    let lo = match query.disclosed_after {
        Some(after) => index.dates_sorted.partition_point(|&d| d < after),
        None => 0,
    };
    let hi = match query.disclosed_before {
        Some(before) => index.dates_sorted.partition_point(|&d| d < before),
        None => index.entries,
    };
    if has_date && lo >= hi {
        rememberr_obs::count("query.entries_scanned", 0);
        return Vec::new();
    }

    // Posting lists for every equality predicate, drawn from the family
    // matching the query's universe.
    let family = if query.unique_only {
        &index.unique
    } else {
        &index.all
    };
    // Disjunctive facets (any listed context/effect suffices) become one
    // intersectable list: the union of the member lists.
    let context_union = (!query.context_any.is_empty()).then(|| {
        union_of(
            query
                .context_any
                .iter()
                .map(|&c| family.context[c.index()].as_slice()),
        )
    });
    let effect_union = (!query.effect_any.is_empty()).then(|| {
        union_of(
            query
                .effect_any
                .iter()
                .map(|&e| family.effect[e.index()].as_slice()),
        )
    });

    let mut lists: Vec<&[u32]> = Vec::new();
    if let Some(v) = query.vendor {
        lists.push(&family.vendor[slot(&Vendor::ALL, v)]);
    }
    if let Some(d) = query.design {
        lists.push(&family.design[d.index()]);
    }
    if let Some(w) = query.workaround {
        lists.push(&family.workaround[slot(&WorkaroundCategory::ALL, w)]);
    }
    if let Some(f) = query.fix {
        lists.push(&family.fix[slot(&FixStatus::ALL, f)]);
    }
    for &t in &query.triggers_all {
        lists.push(&family.trigger[t.index()]);
    }
    if let Some(class) = query.trigger_class {
        lists.push(&family.trigger_class[class.index()]);
    }
    if let Some(msr) = query.msr {
        lists.push(&family.msr[slot(&MsrName::ALL, msr)]);
    }
    if let Some(union) = &context_union {
        lists.push(union);
    }
    if let Some(union) = &effect_union {
        lists.push(union);
    }
    // `annotated_only` and `min_triggers` require an annotation; the list
    // is only worth intersecting when no annotation-backed predicate above
    // already implies it (every such posting list is a subset of
    // `annotated`).
    let annotation_implied = !query.triggers_all.is_empty()
        || query.trigger_class.is_some()
        || !query.context_any.is_empty()
        || !query.effect_any.is_empty()
        || query.msr.is_some();
    if (query.annotated_only || query.min_triggers.is_some()) && !annotation_implied {
        lists.push(&family.annotated);
    }

    // Drive from the most selective candidate source: the smallest posting
    // list, or the date window itself when it is narrower (all-entries
    // universe only — the window spans both families).
    lists.sort_unstable_by_key(|l| l.len());
    let window = hi - lo;
    let window_drives =
        has_date && !query.unique_only && lists.first().is_none_or(|l| window < l.len());
    let (mut current, rest, mut date_checked): (Vec<u32>, &[&[u32]], bool) = if window_drives {
        let mut slice = index.date_order[lo..hi].to_vec();
        slice.sort_unstable();
        (slice, &lists[..], true)
    } else if let Some((driver, rest)) = lists.split_first() {
        (driver.to_vec(), rest, !has_date)
    } else if query.unique_only {
        (index.unique_set.clone(), &[], !has_date)
    } else {
        ((0..index.entries as u32).collect(), &[], !has_date)
    };
    rememberr_obs::count("query.entries_scanned", current.len() as u64);

    let mut intersected = 0u64;
    for list in rest {
        if current.is_empty() {
            break;
        }
        current = gallop_intersect(&current, list);
        intersected += 1;
    }
    rememberr_obs::count("query.postings_intersected", intersected);

    if !date_checked {
        current.retain(|&p| {
            let rank = index.date_rank[p as usize] as usize;
            lo <= rank && rank < hi
        });
        date_checked = true;
    }
    debug_assert!(date_checked);

    // Residual predicates the index cannot decide fall back to the scan's
    // `matches`; candidates reaching this point already satisfy every
    // indexed predicate, so the residual check decides `min_triggers`.
    if query.min_triggers.is_some() {
        rememberr_obs::count("query.residual_checks", current.len() as u64);
        let entries = db.entries();
        current.retain(|&p| query.matches(&entries[p as usize]));
    }
    current
}

/// Sorted union of sorted lists (disjunctive facets).
fn union_of<'a>(lists: impl Iterator<Item = &'a [u32]>) -> Vec<u32> {
    let mut out: Vec<u32> = lists.flat_map(|l| l.iter().copied()).collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Intersection of two sorted lists: iterate the smaller, gallop
/// (exponential probe + binary search) through the larger. `O(s·log(L/s))`
/// — effectively the smaller list's length when selectivities differ.
fn gallop_intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
    if a.len() > b.len() {
        return gallop_intersect(b, a);
    }
    let mut out = Vec::with_capacity(a.len());
    let mut lo = 0usize;
    for &x in a {
        // Exponential probe for the first b[i] >= x, starting where the
        // previous element left off.
        let mut step = 1usize;
        let mut prev = lo;
        let mut probe = lo;
        while probe < b.len() && b[probe] < x {
            prev = probe + 1;
            probe += step;
            step <<= 1;
        }
        let hi = probe.min(b.len());
        let idx = prev + b[prev..hi].partition_point(|&y| y < x);
        lo = idx;
        if idx < b.len() && b[idx] == x {
            out.push(x);
            lo = idx + 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_engine_parses_and_displays() {
        assert_eq!("indexed".parse::<QueryEngine>(), Ok(QueryEngine::Indexed));
        assert_eq!("scan".parse::<QueryEngine>(), Ok(QueryEngine::Scan));
        assert!("fast".parse::<QueryEngine>().is_err());
        assert_eq!(QueryEngine::default(), QueryEngine::Indexed);
        assert_eq!(QueryEngine::Scan.to_string(), "scan");
    }

    #[test]
    fn gallop_matches_naive_intersection() {
        let cases: &[(&[u32], &[u32])] = &[
            (&[], &[1, 2, 3]),
            (&[2], &[1, 2, 3]),
            (&[0, 4, 9], &[1, 2, 3]),
            (&[1, 3, 5, 7, 9], &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
            (&[5, 6, 7], &[5, 6, 7]),
            (&[1, 100, 1000], &(0..1024).collect::<Vec<u32>>()),
        ];
        for (a, b) in cases {
            let naive: Vec<u32> = a.iter().copied().filter(|x| b.contains(x)).collect();
            assert_eq!(gallop_intersect(a, b), naive, "{a:?} ∩ {b:?}");
            assert_eq!(gallop_intersect(b, a), naive, "commuted {a:?} ∩ {b:?}");
        }
    }

    #[test]
    fn union_of_merges_and_dedups() {
        let lists: Vec<&[u32]> = vec![&[1, 4, 9], &[2, 4, 8], &[]];
        assert_eq!(union_of(lists.into_iter()), vec![1, 2, 4, 8, 9]);
    }

    #[test]
    fn index_cell_clone_is_empty_and_invalidates() {
        let cell = QueryIndexCell::default();
        assert!(!cell.is_built());
        let db = Database::new();
        cell.get_or_build(|| QueryIndex::build(&db));
        assert!(cell.is_built());
        assert!(!cell.clone().is_built());
        let mut cell = cell;
        cell.invalidate();
        assert!(!cell.is_built());
    }

    #[test]
    fn empty_database_index_serves_empty_results() {
        let db = Database::new();
        let index = QueryIndex::build(&db);
        assert_eq!(index.entry_count(), 0);
        assert_eq!(index.unique_count(), 0);
        assert!(Query::new().run_indexed(&index, &db).is_empty());
        assert_eq!(Query::new().count_indexed(&index, &db), 0);
    }

    #[test]
    #[should_panic(expected = "different database")]
    fn foreign_index_is_rejected() {
        use rememberr_model::{Date, Erratum, ErratumId, Provenance};
        let empty = Database::new();
        let index = QueryIndex::build(&empty);
        let mut db = Database::new();
        db.extend([DbEntry::new(
            Erratum {
                id: ErratumId::new(Design::Intel6, 1),
                title: "T".into(),
                description: "D".into(),
                implications: String::new(),
                workaround: "None identified.".into(),
                status: "No fix planned.".into(),
            },
            Provenance::from_revision_log(1, Date::new(2016, 6, 15).unwrap()),
        )]);
        let _ = Query::new().run_indexed(&index, &db);
    }
}
