//! Differential tests for sharded execution: every physical executor, at
//! every parallelism level, must agree with the sequential baseline.
//!
//! The sharding model (see `ifaq_engine::par`) fixes the chunk layout and
//! the partial-merge order as a function of the data size and
//! `chunk_rows` alone, so for a fixed `chunk_rows` the comparison is
//! **exact** (`assert_eq!` on the `f64` vectors) at 1/2/3/8 threads —
//! there is no "parallel tolerance". Changing `chunk_rows` re-associates
//! the floating-point reduction; across *different* chunk sizes (and
//! across executors) results agree within the documented 1e-9 relative
//! tolerance instead.

use ifaq_datagen::{favorita, retailer, Dataset};
use ifaq_engine::layout::{execute_with, prepare, Prepared};
use ifaq_engine::{ExecConfig, Layout};
use ifaq_ml::logreg;
use ifaq_query::analysis;
use ifaq_query::batch::{covar_batch, variance_batch, AggBatch, PredOp, Predicate};
use ifaq_query::{JoinTree, ViewPlan};

/// Parallelism levels required by the acceptance criteria.
const THREADS: [usize; 4] = [1, 2, 3, 8];

fn plan_batch(ds: &Dataset, batch: &AggBatch) -> ViewPlan {
    let cat = ds.db.catalog();
    let tree = JoinTree::build(&cat, &ds.relation_names()).expect("join tree");
    ViewPlan::plan(batch, &tree, &cat).expect("view plan")
}

fn assert_close(layout: Layout, a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            (x - y).abs() <= 1e-9 * (1.0 + x.abs().max(y.abs())),
            "{layout}, term {i}: {x} vs {y}"
        );
    }
}

/// For every executor: the 1-thread run is the baseline; 2/3/8 threads
/// must reproduce it bit-for-bit at the same chunk size, and all
/// executors must agree with the materialized reference within tolerance.
fn check_all_executors(ds: &Dataset, batch: &AggBatch) {
    let plan = plan_batch(ds, batch);
    check_all_executors_with_plan(&ds.db, &plan);
}

fn check_all_executors_with_plan(db: &ifaq_engine::StarDb, plan: &ViewPlan) {
    let reference = {
        let prep = prepare(Layout::Materialized, plan, db);
        execute_with(
            Layout::Materialized,
            plan,
            db,
            &prep,
            &ExecConfig::with_threads(1),
        )
    };
    for &layout in Layout::all() {
        let prep: Prepared = prepare(layout, plan, db);
        let baseline = execute_with(layout, plan, db, &prep, &ExecConfig::with_threads(1));
        assert_close(layout, &baseline, &reference);
        for &threads in &THREADS[1..] {
            let got = execute_with(layout, plan, db, &prep, &ExecConfig::with_threads(threads));
            // Exact: fixed chunk layout ⇒ fixed reduction order.
            assert_eq!(
                baseline, got,
                "{layout} diverged from the sequential baseline at {threads} threads"
            );
        }
    }
}

/// Retailer has 35 features; the full covar batch (703 aggregates) would
/// drown the boxed executors in debug builds. A 4-feature slice exercises
/// the same code paths across all five relations.
fn retailer_features(ds: &Dataset) -> Vec<&str> {
    let mut f = ds.feature_refs();
    f.truncate(4);
    f
}

#[test]
fn favorita_covar_batch_every_executor_every_parallelism() {
    let ds = favorita(4_000, 42);
    let features = ds.feature_refs();
    let batch = covar_batch(&features, &ds.label);
    check_all_executors(&ds, &batch);
}

#[test]
fn retailer_covar_batch_every_executor_every_parallelism() {
    let ds = retailer(3_000, 43);
    let features = retailer_features(&ds);
    let batch = covar_batch(&features, &ds.label);
    check_all_executors(&ds, &batch);
}

#[test]
fn filtered_variance_batch_every_executor_every_parallelism() {
    // δ predicates route to both fact and dimension owners; make sure the
    // sharded scans respect them identically.
    let ds = favorita(3_000, 7);
    let delta = vec![
        Predicate::new("onpromotion", PredOp::Le, 0.5),
        Predicate::new("oilprice", PredOp::Gt, 40.0),
    ];
    let batch = variance_batch(&ds.label, &delta);
    check_all_executors(&ds, &batch);
}

#[test]
fn chunk_size_fixed_results_identical_across_thread_counts() {
    // The determinism guarantee holds for *any* chunk size, including
    // degenerate ones (1 row per chunk, chunks larger than the data).
    let ds = favorita(2_000, 11);
    let features = ds.feature_refs();
    let batch = covar_batch(&features, &ds.label);
    let plan = plan_batch(&ds, &batch);
    for chunk_rows in [1, 97, 100_000] {
        for &layout in Layout::all() {
            let prep = prepare(layout, &plan, &ds.db);
            let baseline = execute_with(
                layout,
                &plan,
                &ds.db,
                &prep,
                &ExecConfig::with_threads(1).with_chunk_rows(chunk_rows),
            );
            for &threads in &THREADS[1..] {
                let got = execute_with(
                    layout,
                    &plan,
                    &ds.db,
                    &prep,
                    &ExecConfig::with_threads(threads).with_chunk_rows(chunk_rows),
                );
                assert_eq!(
                    baseline, got,
                    "{layout}, chunk_rows {chunk_rows}, {threads} threads"
                );
            }
        }
    }
}

/// One `Prepared` serves concurrent executes: for every layout, 4 threads
/// execute the same shared state at once, and each result must bit-equal
/// the serial execute over it.
#[test]
fn shared_prepared_executes_concurrently_from_four_threads() {
    let ds = favorita(1_500, 13);
    let features = ds.feature_refs();
    let batch = covar_batch(&features, &ds.label);
    let plan = plan_batch(&ds, &batch);
    let cfg = ExecConfig::serial();
    for &layout in Layout::all() {
        let prep = prepare(layout, &plan, &ds.db);
        let serial = execute_with(layout, &plan, &ds.db, &prep, &cfg);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            let runs: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        execute_with(layout, &plan, &ds.db, &prep, &cfg)
                    })
                })
                .collect();
            for run in runs {
                assert_eq!(run.join().unwrap(), serial, "{layout}");
            }
        });
    }
}

#[test]
fn chunk_size_changes_stay_within_documented_tolerance() {
    // Different chunk sizes re-associate the reduction; the ULP drift must
    // stay inside the 1e-9 relative tolerance the engines document.
    let ds = favorita(2_000, 11);
    let features = ds.feature_refs();
    let batch = covar_batch(&features, &ds.label);
    let plan = plan_batch(&ds, &batch);
    for &layout in Layout::all() {
        let prep = prepare(layout, &plan, &ds.db);
        let run = |chunk_rows: usize| {
            execute_with(
                layout,
                &plan,
                &ds.db,
                &prep,
                &ExecConfig::with_threads(2).with_chunk_rows(chunk_rows),
            )
        };
        let whole = run(100_000);
        for chunk_rows in [1, 64, 997] {
            assert_close(layout, &run(chunk_rows), &whole);
        }
    }
}

/// Logistic training re-runs its gradient batch (plus a sharded score
/// pass) every iteration, so it exercises the whole sharding stack far
/// harder than a single covar pass: the factorized path must match the
/// materialized reference to ≤1e-6 at every layout and at 1 and 4
/// threads, on both dataset shapes (the acceptance bar for the logistic
/// workload).
#[test]
fn logistic_factorized_matches_materialized_every_layout_and_parallelism() {
    for ds in [
        favorita(2_500, 42).binarize_label(),
        retailer(2_000, 43).binarize_label(),
    ] {
        let features: Vec<&str> = ds.feature_refs().into_iter().take(4).collect();
        let m = ds.db.materialize();
        let reference = logreg::fit_materialized(&m, &features, &ds.label, 0.5, 60);
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-6 * (1.0 + a.abs().max(b.abs()));
        for &layout in Layout::all() {
            for threads in [1usize, 4] {
                let got = logreg::fit_factorized_cfg(
                    &ds.db,
                    &features,
                    &ds.label,
                    layout,
                    0.5,
                    60,
                    &ExecConfig::with_threads(threads),
                );
                assert!(
                    close(got.intercept, reference.intercept),
                    "{} {layout} t{threads}: intercept {} vs {}",
                    ds.name,
                    got.intercept,
                    reference.intercept
                );
                for ((a, b), f) in got.weights.iter().zip(&reference.weights).zip(&features) {
                    assert!(
                        close(*a, *b),
                        "{} {layout} t{threads} weight {f}: {a} vs {b}",
                        ds.name
                    );
                }
            }
        }
    }
}

/// The per-iteration passes inherit the chunk-model determinism: for a
/// fixed chunk size, logistic training is bit-identical at every thread
/// count (the score pass emits disjoint ranges merged in order; the
/// gradient batch uses the executors' guarantee).
#[test]
fn logistic_training_is_thread_count_invariant() {
    let ds = favorita(1_500, 11).binarize_label();
    let features = ds.feature_refs();
    for &layout in &[Layout::MergedHash, Layout::SortedTrie] {
        let run = |threads: usize| {
            logreg::fit_factorized_cfg(
                &ds.db,
                &features,
                &ds.label,
                layout,
                0.5,
                30,
                &ExecConfig::with_threads(threads),
            )
        };
        let base = run(1);
        for threads in [2, 3, 8] {
            assert_eq!(run(threads), base, "{layout} at {threads} threads");
        }
    }
}

/// The cost decision may pick *any* rung of the layout ladder without
/// changing answers: whatever `analysis::choose_layout` selects for a
/// bundled schema × workload pair, its results must match every other
/// layout within 1e-6 at 1 and 4 threads.
#[test]
fn cost_chosen_layout_matches_every_other_layout() {
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-6 * (1.0 + a.abs().max(b.abs()));
    for ds in [favorita(3_000, 21), retailer(2_500, 22)] {
        let features = if ds.name.starts_with("retailer") {
            retailer_features(&ds)
        } else {
            ds.feature_refs()
        };
        let workloads: Vec<(&str, AggBatch)> = vec![
            ("covar", covar_batch(&features, &ds.label)),
            (
                "variance",
                variance_batch(&ds.label, &[Predicate::new(features[0], PredOp::Le, 1.0)]),
            ),
        ];
        for (wname, batch) in workloads {
            let cat = ds.db.catalog();
            let tree = JoinTree::build(&cat, &ds.relation_names()).expect("join tree");
            let plan = ViewPlan::plan(&batch, &tree, &cat).expect("view plan");
            let chosen = analysis::choose_layout(&cat, &plan);
            let chosen_prep = prepare(chosen, &plan, &ds.db);
            for threads in [1usize, 4] {
                let cfg = ExecConfig::with_threads(threads);
                let want = execute_with(chosen, &plan, &ds.db, &chosen_prep, &cfg);
                for &other in Layout::all() {
                    let prep = prepare(other, &plan, &ds.db);
                    let got = execute_with(other, &plan, &ds.db, &prep, &cfg);
                    assert_eq!(want.len(), got.len());
                    for (i, (x, y)) in want.iter().zip(&got).enumerate() {
                        assert!(
                            close(*x, *y),
                            "{} {wname} t{threads}: chosen {chosen} vs {other}, term {i}: \
                             {x} vs {y}",
                            ds.name
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn empty_and_tiny_fact_tables_are_safe_at_every_parallelism() {
    // Plan on the full dataset (tiny catalogs can degenerate the join
    // tree), then execute on truncated fact tables: zero chunks, and
    // fewer rows than threads.
    let ds = favorita(1_000, 3);
    let features = ds.feature_refs();
    let batch = covar_batch(&features, &ds.label);
    let plan = plan_batch(&ds, &batch);
    for rows in [0, 1, 5] {
        check_all_executors_with_plan(&ds.db.take_fact(rows), &plan);
    }
}
