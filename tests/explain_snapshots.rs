//! Snapshot tests for the executor-tree `explain` rendering.
//!
//! Pins the exact `Prepared::explain_tree()` output for every layout on
//! both generated datasets. These strings are the documentation-of-record
//! for what each layout's tree looks like (ARCHITECTURE.md reproduces
//! one); a diff here means the tree *shape* or a node's self-description
//! changed and the docs must move with it. The rendering draws only on
//! plan-ordered state (never hash-map iteration order), so exact string
//! equality is a stable bar.
//!
//! Also checks the prepare-invocation accounting the prepared-state
//! contract promises: one node-prepare per tree node at prepare time,
//! and **zero** additional node-prepares across any number of executes —
//! plus cache-hit accounting for `prepare_cached` with bit-identical
//! results.

use ifaq_datagen::{favorita, retailer, Dataset};
use ifaq_engine::layout::{execute_with, prepare, prepare_cached};
use ifaq_engine::{exec, ExecConfig, Layout};
use ifaq_query::batch::covar_batch;
use ifaq_query::{JoinTree, ViewPlan};

fn plan_for(ds: &Dataset, n_features: usize) -> ViewPlan {
    let mut features = ds.feature_refs();
    features.truncate(n_features);
    let batch = covar_batch(&features, &ds.label);
    let cat = ds.db.catalog();
    let tree = JoinTree::build(&cat, &ds.relation_names()).expect("join tree");
    ViewPlan::plan(&batch, &tree, &cat).expect("view plan")
}

fn snapshot(ds: &Dataset, layout: Layout) -> String {
    let plan = plan_for(ds, 2);
    prepare(layout, &plan, &ds.db).explain_tree()
}

/// The favorita scan line is shared by every layout's tree: same fact
/// relation, same plan-touched columns, same generation.
const FAVORITA_SCAN: &str =
    "   └─ Scan[Sales: 1000 rows resident, cols [item, date, store, onpromotion, unit_sales], generation 0]\n";
const RETAILER_SCAN: &str =
    "   └─ Scan[Inventory: 1000 rows resident, cols [ksn, dateid, locn, inventoryunits], generation 0]\n";

const FAVORITA_DIMS: &str = "Items via item (3 payloads), Oil via date (1 payload), Holiday via date (1 payload), Stores via store (1 payload)";
const RETAILER_DIMS: &str = "Item via ksn (1 payload), Weather via dateid (1 payload), Location via locn (6 payloads), Census via locn (1 payload)";

/// Expected `(layout, join/view node line)` pairs; the full tree is
/// `Aggregate[10 terms]` + that line + the dataset's scan line.
fn expected_view_lines(dims: &str, trie: &str) -> Vec<(Layout, String)> {
    vec![
        (
            Layout::Materialized,
            format!("└─ MaterializedJoin[resolved join index; {dims}]\n"),
        ),
        (
            Layout::Pushdown,
            format!("└─ PushdownViews[10 term view sets; {dims}]\n"),
        ),
        (
            Layout::BoxedRecords,
            format!("└─ BoxedRecordViews[{dims}]\n"),
        ),
        (
            Layout::BoxedScalars,
            format!("└─ BoxedScalarViews[{dims}]\n"),
        ),
        (Layout::MergedHash, format!("└─ MergedHashViews[{dims}]\n")),
        (Layout::Trie, format!("└─ FactTrie[{trie}; {dims}]\n")),
        (Layout::Array, format!("└─ DenseArrayViews[{dims}]\n")),
        (
            Layout::SortedTrie,
            format!("└─ SortedTrie[{trie}; {dims}]\n"),
        ),
    ]
}

fn check_dataset(ds: &Dataset, scan: &str, dims: &str, trie: &str) {
    let expected = expected_view_lines(dims, trie);
    assert_eq!(expected.len(), Layout::all().len(), "cover every layout");
    for (layout, view_line) in expected {
        let want = format!("Aggregate[10 terms]\n{view_line}{scan}");
        assert_eq!(
            snapshot(ds, layout),
            want,
            "{} / {layout:?} explain tree drifted from the pinned snapshot",
            ds.name
        );
    }
}

#[test]
fn favorita_snapshots_all_layouts() {
    check_dataset(
        &favorita(1_000, 7),
        FAVORITA_SCAN,
        FAVORITA_DIMS,
        "prefix [store, date], 1 per-row dim, 10 row programs",
    );
}

#[test]
fn retailer_snapshots_all_layouts() {
    check_dataset(
        &retailer(1_000, 7),
        RETAILER_SCAN,
        RETAILER_DIMS,
        "prefix [locn, dateid], 1 per-row dim, 3 row programs",
    );
}

/// The unprepared rendering (`exec::explain_tree`) differs from the
/// prepared one in exactly two ways: the aggregate node carries the
/// batch's result names (the batch is in hand before planning strips
/// it), and the scan leaf shows `unprepared` instead of the pinned
/// source identity.
#[test]
fn unprepared_rendering_names_aggregates_and_marks_the_scan() {
    let ds = favorita(1_000, 7);
    let mut features = ds.feature_refs();
    features.truncate(2);
    let batch = covar_batch(&features, &ds.label);
    let cat = ds.db.catalog();
    let tree = JoinTree::build(&cat, &ds.relation_names()).expect("join tree");
    let plan = ViewPlan::plan(&batch, &tree, &cat).expect("view plan");
    assert_eq!(
        exec::explain_tree(&plan, Some(&batch), Layout::MergedHash),
        "Aggregate[10 terms: m_onpromotion_onpromotion, m_onpromotion_perishable, \
         m_onpromotion_unit_sales, m_perishable_perishable, m_perishable_unit_sales, \
         m_unit_sales_unit_sales, m_onpromotion, m_perishable, m_unit_sales, count]\n\
         └─ MergedHashViews[Items via item (3 payloads), Oil via date (1 payload), \
         Holiday via date (1 payload), Stores via store (1 payload)]\n   \
         └─ Scan[Sales: unprepared, cols [item, date, store, onpromotion, unit_sales]]\n"
    );
}

/// `layout::prepare` runs node-prepares exactly once; executing the
/// prepared tree any number of times — at several thread counts — runs
/// zero more, and the results never drift.
#[test]
fn prepare_invocations_are_counted_once_per_prepare() {
    let ds = favorita(1_000, 7);
    let plan = plan_for(&ds, 2);

    let prep = prepare(Layout::SortedTrie, &plan, &ds.db);
    let after_prepare = prep.tree().prepare_invocations();
    assert_eq!(
        after_prepare, 3,
        "one node-prepare per tree node (aggregate, join/view, scan) per layout::prepare"
    );

    let baseline = execute_with(
        Layout::SortedTrie,
        &plan,
        &ds.db,
        &prep,
        ExecConfig::global(),
    );
    for threads in [1, 4, 8] {
        let cfg = ExecConfig::with_threads(threads);
        for _ in 0..3 {
            let got = execute_with(Layout::SortedTrie, &plan, &ds.db, &prep, &cfg);
            assert_eq!(got.len(), plan.terms.len());
            if threads == 1 {
                assert_eq!(got, baseline, "serial chunked run must not drift");
            }
        }
    }
    assert_eq!(
        prep.tree().prepare_invocations(),
        after_prepare,
        "execute_with must never re-prepare"
    );
}

/// Warm preparation through a `PrepCache` must (a) actually hit the
/// cache on the second build and (b) return bit-identical results to the
/// cold preparation — cached θ-free state is shared, not approximated.
#[test]
fn prepare_cached_hits_and_stays_bit_identical() {
    let ds = retailer(1_000, 7);
    let plan = plan_for(&ds, 2);
    let cache = exec::PrepCache::new();

    for &layout in Layout::all() {
        let cold = prepare_cached(layout, &plan, &ds.db, &cache);
        let (hits_cold, _) = (cache.hits(), cache.misses());
        let warm = prepare_cached(layout, &plan, &ds.db, &cache);
        // Resident Materialized is the one layout with nothing cacheable:
        // its prepared state is the resolved join index, which depends on
        // the fact rows the cache deliberately excludes.
        if layout != Layout::Materialized {
            assert!(
                cache.hits() > hits_cold,
                "{layout:?}: second preparation should hit the cache"
            );
        }
        let cfg = ExecConfig::with_threads(4);
        assert_eq!(
            execute_with(layout, &plan, &ds.db, &cold, &cfg),
            execute_with(layout, &plan, &ds.db, &warm, &cfg),
            "{layout:?}: cached preparation must be bit-identical to cold"
        );
    }
}
