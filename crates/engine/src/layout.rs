//! Named physical layouts (§4.4 data-layout synthesis) and the uniform
//! prepare/execute front door over them, used by the benchmark harness
//! to sweep the optimization ladders of Figures 7a and 7b.
//!
//! Since the executor-tree refactor this module is a *façade*: a
//! [`Prepared`] wraps a prepared [`crate::exec::PlanTree`] (built by
//! [`crate::exec::build_tree`], the single construction point for every
//! execution path). [`execute_with`] checks the two things only the
//! caller's arguments reveal — the layout and the plan it asks for —
//! and panics with a message naming both sides on a mismatch; the
//! tree's scan node guards the database's generation and shape. Callers
//! that want the tree itself (node-level explain, prepared-subtree
//! caching, streamed execution) can use [`crate::exec`] directly;
//! nothing here is more than guards plus delegation.

use crate::exec;
use crate::par::ExecConfig;
use crate::star::StarDb;
use ifaq_query::ViewPlan;

/// The [`Layout`] enum lives in `ifaq_query::analysis` (the shared cost
/// oracle both this engine and `ifaq_codegen` consult) and is re-exported
/// here so engine callers keep their `ifaq_engine::Layout` spelling.
pub use ifaq_query::analysis::Layout;

/// All θ-free state a layout needs, built exactly once by [`prepare`]
/// (outside the measured region, like the paper's assumption that
/// relations are pre-indexed by join attributes) and borrowed read-only
/// by any number of [`execute_with`] calls: merged hash views, dense
/// key-indexed views, boxed dictionaries, per-aggregate pushdown views,
/// the resolved join, the fact trie, the sorted order, and the level
/// analysis. The state records the [`Layout`] and the [`ViewPlan`] it
/// was built for; executing under a different layout panics with a
/// message naming both layouts, and executing a different plan panics
/// describing both shapes (a stale preparation would otherwise silently
/// produce wrong results or index out of bounds).
///
/// Prepared state never captures **fact value** columns — executors
/// read those live — so one preparation stays valid across iterative
/// training that rewrites a derived fact column (logistic's `__sigma`).
/// Everything else is baked in at prepare time: dimension payload
/// values live inside the views, and join keys inside the indexes, so
/// mutating either requires a fresh [`prepare`] (the guards catch
/// layout, plan, row-count, and generation drift — see
/// [`StarDb::bump_generation`] for the delta-maintenance epoch; they
/// cannot see content-level dimension edits made without a bump).
///
/// Executing never mutates the tree, so one `Prepared` serves any number
/// of concurrent [`execute_with`] calls from many threads.
#[derive(Debug)]
pub struct Prepared {
    /// The prepared executor tree; it also records the layout and the
    /// plan the state was built for.
    tree: exec::PlanTree,
}

impl Prepared {
    /// The layout this state was built for.
    pub fn layout(&self) -> Layout {
        self.tree.layout()
    }

    /// The prepared executor tree, e.g. for its per-tree
    /// [`exec::PlanTree::prepare_invocations`] accounting.
    pub fn tree(&self) -> &exec::PlanTree {
        &self.tree
    }

    /// Renders the prepared executor tree, one node per line (see
    /// [`crate::exec::PlanTree::explain`]).
    pub fn explain_tree(&self) -> String {
        self.tree.explain()
    }
}

/// Builds every piece of θ-free state `layout` needs over `plan` × `db`.
///
/// # Panics
///
/// If a dimension payload of `plan` references an *iteration column*
/// (the `__`-prefixed derived-per-iteration convention of
/// [`ifaq_ir::analysis::is_iteration_column`], e.g. logistic's
/// `__sigma`). Dimension payload values are baked into the prepared
/// views, so a θ-dependent column there would freeze iteration 0's
/// values into every subsequent iteration. Iteration columns must be
/// fact-owned, where executors read values live — this assertion is the
/// static half of the prepare/execute contract the differential suites
/// check dynamically.
pub fn prepare(layout: Layout, plan: &ViewPlan, db: &StarDb) -> Prepared {
    prepare_inner(layout, plan, db, None)
}

/// [`prepare`] through a [`crate::exec::PrepCache`]: dimension-side
/// state (every hash/dense/boxed/pushdown view) is fetched from the
/// cache by θ-free fingerprint instead of rebuilt, while fact-derived
/// state (join index, fact trie, sort order) is always rebuilt. Safe
/// across any number of *fact* deltas — the fingerprint covers the
/// dimension tables and the plan, which is exactly what
/// `ifaq_ir::analysis::DeltaAnalysis` classifies `Reusable` under a
/// fact-only delta; a changed *dimension* table requires a fresh cache.
pub fn prepare_cached(
    layout: Layout,
    plan: &ViewPlan,
    db: &StarDb,
    cache: &exec::PrepCache,
) -> Prepared {
    prepare_inner(layout, plan, db, Some(cache))
}

fn prepare_inner(
    layout: Layout,
    plan: &ViewPlan,
    db: &StarDb,
    cache: Option<&exec::PrepCache>,
) -> Prepared {
    // build_tree owns the iteration-column assertion (the static half of
    // the prepare/execute contract), so a θ-dependent dimension payload
    // still panics here with the long-standing message.
    let mut tree = exec::build_tree(plan, None, layout, ExecConfig::global());
    let mut state = exec::ExecutionState::new(exec::Source::Resident(db));
    if let Some(cache) = cache {
        state = state.with_cache(cache);
    }
    tree.prepare_with(&mut state)
        .expect("resident preparation is infallible");
    Prepared { tree }
}

/// Executes the batch under the given layout over state built by
/// [`prepare`], with a sharded scan per `cfg` (see [`crate::par`] for the
/// determinism guarantee). Only the θ-dependent work runs here: the fact
/// scan(s), plus the value gather for the materialized baseline.
///
/// # Panics
///
/// If `prep` was built for a different layout than `layout` — the
/// message names both, so a stale preparation is caught at the call
/// site instead of producing wrong results — or for a different plan
/// (per-term view sets, payload orders, and level analyses are all
/// plan-shaped). The tree's scan node panics, naming both sides, when
/// `db`'s generation or shape moved since [`prepare`].
pub fn execute_with(
    layout: Layout,
    plan: &ViewPlan,
    db: &StarDb,
    prep: &Prepared,
    cfg: &ExecConfig,
) -> Vec<f64> {
    if prep.layout() != layout {
        panic!(
            "stale Prepared: state was built for layout `{built}` ({built_dbg:?}) but \
             execute was called under layout `{want}` ({want_dbg:?}); \
             call layout::prepare({want_dbg:?}, …) and pass that instead",
            built = prep.layout(),
            built_dbg = prep.layout(),
            want = layout,
            want_dbg = layout,
        );
    }
    if prep.tree.plan() != plan {
        panic!(
            "stale Prepared: state was built for a different view plan \
             ({built_terms} terms over {built_dims} dimension views, now \
             {want_terms} terms over {want_dims}); per-term views and level \
             analyses are plan-shaped, so rebuild with layout::prepare({layout:?}, …) \
             for the plan being executed",
            built_terms = prep.tree.plan().terms.len(),
            built_dims = prep.tree.plan().dims.len(),
            want_terms = plan.terms.len(),
            want_dims = plan.dims.len(),
        );
    }
    prep.tree
        .execute_with(&mut exec::ExecutionState::new(exec::Source::Resident(db)).with_cfg(*cfg))
        .expect("resident execution is infallible after prepare")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::star::running_example_star;
    use ifaq_query::batch::covar_batch;
    use ifaq_query::JoinTree;

    #[test]
    fn every_layout_executes_and_agrees() {
        let db = running_example_star();
        let cat = db.catalog();
        let tree = JoinTree::build(&cat, &["S", "R", "I"]).unwrap();
        let plan = ViewPlan::plan(&covar_batch(&["city", "price"], "units"), &tree, &cat).unwrap();
        let reference = execute_with(
            Layout::Materialized,
            &plan,
            &db,
            &prepare(Layout::Materialized, &plan, &db),
            ExecConfig::global(),
        );
        for &layout in Layout::all() {
            let prep = prepare(layout, &plan, &db);
            let got = execute_with(layout, &plan, &db, &prep, ExecConfig::global());
            for (a, b) in reference.iter().zip(&got) {
                assert!((a - b).abs() < 1e-9, "{layout}: {a} vs {b}");
            }
        }
    }

    // Thread-count invariance of `execute_with` is covered per executor in
    // `physical::tests` and end to end by `tests/parallel_equivalence.rs`.

    #[test]
    fn repeated_execution_over_one_prepared_is_bit_identical() {
        let db = running_example_star();
        let cat = db.catalog();
        let tree = JoinTree::build(&cat, &["S", "R", "I"]).unwrap();
        let plan = ViewPlan::plan(&covar_batch(&["city", "price"], "units"), &tree, &cat).unwrap();
        for &layout in Layout::all() {
            let prep = prepare(layout, &plan, &db);
            assert_eq!(prep.layout(), layout);
            let fresh = execute_with(
                layout,
                &plan,
                &db,
                &prepare(layout, &plan, &db),
                ExecConfig::global(),
            );
            let first = execute_with(layout, &plan, &db, &prep, ExecConfig::global());
            assert_eq!(first, fresh, "{layout}: reuse != fresh");
            for _ in 0..3 {
                assert_eq!(
                    execute_with(layout, &plan, &db, &prep, ExecConfig::global()),
                    first,
                    "{layout} drifted"
                );
            }
        }
    }

    #[test]
    fn stale_prepared_panics_naming_both_layouts() {
        let db = running_example_star();
        let cat = db.catalog();
        let tree = JoinTree::build(&cat, &["S", "R", "I"]).unwrap();
        let plan = ViewPlan::plan(&covar_batch(&["city", "price"], "units"), &tree, &cat).unwrap();
        let prep = prepare(Layout::Trie, &plan, &db);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_with(Layout::SortedTrie, &plan, &db, &prep, ExecConfig::global())
        }))
        .expect_err("mismatched layout must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        // Anchor on the parenthesized Debug forms: `Trie` is a substring
        // of `SortedTrie`, so a bare contains("Trie") would be vacuous.
        assert!(
            msg.contains("(Trie)") && msg.contains("(SortedTrie)") && msg.contains("stale"),
            "message should name both layouts: {msg}"
        );
    }

    #[test]
    fn plan_mismatched_prepared_panics() {
        // The layout tag alone cannot catch a prepared state reused for a
        // different batch over the same layout; the plan guard must.
        let db = running_example_star();
        let cat = db.catalog();
        let tree = JoinTree::build(&cat, &["S", "R", "I"]).unwrap();
        let plan_a =
            ViewPlan::plan(&covar_batch(&["city", "price"], "units"), &tree, &cat).unwrap();
        let plan_b = ViewPlan::plan(&covar_batch(&["city"], "units"), &tree, &cat).unwrap();
        for &layout in &[Layout::Pushdown, Layout::MergedHash, Layout::Trie] {
            let prep = prepare(layout, &plan_a, &db);
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                execute_with(layout, &plan_b, &db, &prep, ExecConfig::global())
            }))
            .expect_err("plan mismatch must panic");
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            assert!(
                msg.contains("different view plan"),
                "{layout}: unexpected message: {msg}"
            );
        }
    }

    #[test]
    fn db_shape_mismatched_prepared_panics() {
        // Row-index state (join index, trie, sort order) is tied to the
        // database's shape; executing over a truncated fact table must
        // fail fast instead of reading out of bounds.
        let db = running_example_star();
        let cat = db.catalog();
        let tree = JoinTree::build(&cat, &["S", "R", "I"]).unwrap();
        let plan = ViewPlan::plan(&covar_batch(&["city", "price"], "units"), &tree, &cat).unwrap();
        let prep = prepare(Layout::Materialized, &plan, &db);
        let truncated = db.take_fact(2);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_with(
                Layout::Materialized,
                &plan,
                &truncated,
                &prep,
                ExecConfig::global(),
            )
        }))
        .expect_err("shape mismatch must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("database shaped"), "unexpected message: {msg}");
    }

    #[test]
    fn generation_bumped_prepared_panics_naming_both_generations() {
        // A delta that deletes one row and inserts another keeps the
        // database shape, so only the generation guard can catch the
        // stale state. Simulate it with a direct bump: same shape, new
        // epoch.
        let mut db = running_example_star();
        let cat = db.catalog();
        let tree = JoinTree::build(&cat, &["S", "R", "I"]).unwrap();
        let plan = ViewPlan::plan(&covar_batch(&["city", "price"], "units"), &tree, &cat).unwrap();
        let prep = prepare(Layout::Trie, &plan, &db);
        db.bump_generation();
        db.bump_generation();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_with(Layout::Trie, &plan, &db, &prep, ExecConfig::global())
        }))
        .expect_err("generation mismatch must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("generation 0") && msg.contains("generation 2") && msg.contains("stale"),
            "message should name both generations: {msg}"
        );
    }

    #[test]
    fn value_mutation_keeps_prepared_valid() {
        // The `__sigma` contract: rewriting a fact *value* column leaves
        // the shape (and therefore the preparation) intact, and executes
        // see the new values.
        let mut db = running_example_star();
        let cat = db.catalog();
        let tree = JoinTree::build(&cat, &["S", "R", "I"]).unwrap();
        let plan = ViewPlan::plan(&covar_batch(&["city"], "units"), &tree, &cat).unwrap();
        for &layout in Layout::all() {
            let prep = prepare(layout, &plan, &db);
            let before = execute_with(layout, &plan, &db, &prep, ExecConfig::global());
            let units: Vec<f64> = (0..db.fact.len())
                .map(|i| db.fact.columns[2].get_f64(i) * 2.0)
                .collect();
            db.fact.columns[2] = ifaq_storage::Column::F64(units);
            let after = execute_with(layout, &plan, &db, &prep, ExecConfig::global());
            assert_ne!(before, after, "{layout}: mutation must be visible");
            // m_units doubles exactly; find it through the plan.
            db.fact.columns[2] = ifaq_storage::Column::F64(
                (0..db.fact.len())
                    .map(|i| db.fact.columns[2].get_f64(i) / 2.0)
                    .collect(),
            );
        }
    }

    #[test]
    fn prepare_invocations_is_monotonic() {
        // The count lives on each prepared tree, so concurrent tests
        // cannot disturb it: one prepare moves it by the node count, and
        // executes never move it again.
        let db = running_example_star();
        let cat = db.catalog();
        let tree = JoinTree::build(&cat, &["S", "R", "I"]).unwrap();
        let plan = ViewPlan::plan(&covar_batch(&["city"], "units"), &tree, &cat).unwrap();
        let prep = prepare(Layout::MergedHash, &plan, &db);
        assert_eq!(prep.tree().prepare_invocations(), 3);
        let _ = execute_with(Layout::MergedHash, &plan, &db, &prep, ExecConfig::global());
        assert_eq!(prep.tree().prepare_invocations(), 3);
    }

    #[test]
    fn ladders_are_subsets_of_all() {
        for l in Layout::fig7a().iter().chain(Layout::fig7b()) {
            assert!(Layout::all().contains(l));
        }
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::BTreeSet<_> =
            Layout::all().iter().map(|l| l.label()).collect();
        assert_eq!(labels.len(), Layout::all().len());
    }
}
