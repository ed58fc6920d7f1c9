//! Cross-crate integration tests: the full Figure 3 pipeline on realistic
//! synthetic data, engine equivalence at scale, and model equality between
//! the factorized and materialized training paths.

use ifaq::{CompileOptions, Pipeline};
use ifaq_datagen::{favorita, retailer};
use ifaq_engine::{ExecConfig, Layout};
use ifaq_ir::Expr;
use ifaq_ml::linreg;
use ifaq_ml::logreg;
use ifaq_ml::metrics::{linreg_rmse, logreg_accuracy, logreg_auc};
use ifaq_ml::tree::{fit_factorized, fit_materialized, thresholds_from_db, Node, TreeConfig};
use ifaq_storage::Value;
use ifaq_transform::highlevel::{linear_regression_program, logistic_regression_program};

#[test]
fn full_pipeline_trains_on_favorita() {
    let ds = favorita(5_000, 21);
    let db = &ds.db;
    let features = ds.feature_refs();
    let program = linear_regression_program(&features, &ds.label, Expr::var("Q"), 0.0001, 10);
    let catalog = db.catalog().with_var_size("Q", db.fact_rows() as u64);
    let options = CompileOptions::for_star_db(db);
    let compiled = Pipeline::new(catalog)
        .compile(&program, &options)
        .expect("compile");

    // The covar matrix was hoisted; the loop is data-free.
    assert!(compiled.stages.high_level_report.memoized >= 1);
    let step = compiled.program.step.to_string();
    assert!(!step.contains("dom(Q)"), "loop still scans data: {step}");

    // Batch: 5 features + label ⇒ 15 pairwise + 5 label-free first moments
    // are not all needed by this gradient; at least the pairwise terms are.
    assert!(
        compiled.batch.len() >= 15,
        "batch has {} aggregates",
        compiled.batch.len()
    );

    let theta = compiled.execute(db, Layout::MergedHash).expect("execute");
    match theta {
        Value::Record(fs) => assert_eq!(fs.len(), features.len()),
        other => panic!("expected parameter record, got {other}"),
    }
}

#[test]
fn all_physical_layouts_agree_on_both_datasets() {
    for ds in [favorita(8_000, 3), retailer(8_000, 4)] {
        let features = ds.feature_refs();
        let reference = linreg::moments_factorized_cfg(
            &ds.db,
            &features,
            &ds.label,
            Layout::Materialized,
            ExecConfig::global(),
        );
        for &layout in Layout::all() {
            let m = linreg::moments_factorized_cfg(
                &ds.db,
                &features,
                &ds.label,
                layout,
                ExecConfig::global(),
            );
            for (a, b) in m.gram.iter().zip(&reference.gram) {
                let tol = 1e-9 * (1.0 + a.abs().max(b.abs()));
                assert!((a - b).abs() <= tol, "{layout} on {}: {a} vs {b}", ds.name);
            }
        }
    }
}

#[test]
fn factorized_linreg_matches_materialized_path() {
    let ds = favorita(6_000, 5);
    let features = ds.feature_refs();
    let fact = linreg::moments_factorized_cfg(
        &ds.db,
        &features,
        &ds.label,
        Layout::MergedHash,
        ExecConfig::global(),
    );
    let matrix = ds.db.materialize();
    let mat = linreg::moments_from_matrix(&matrix, &features, &ds.label);
    // Identical moments ⇒ identical models for any optimizer.
    for (a, b) in fact.gram.iter().zip(&mat.gram) {
        assert!((a - b).abs() <= 1e-7 * (1.0 + a.abs()), "{a} vs {b}");
    }
    let m1 = linreg::fit_bgd(&fact, 0.5, 200);
    let m2 = linreg::fit_bgd(&mat, 0.5, 200);
    for (a, b) in m1.weights.iter().zip(&m2.weights) {
        assert!((a - b).abs() < 1e-6);
    }
}

#[test]
fn factorized_tree_equals_materialized_tree_on_retailer() {
    let ds = retailer(4_000, 6);
    let features: Vec<&str> = ds.feature_refs().into_iter().take(6).collect();
    let config = TreeConfig {
        max_depth: 3,
        min_samples: 5.0,
        thresholds_per_feature: 3,
    };
    let t1 = fit_factorized(&ds.db, &features, &ds.label, &config);
    let matrix = ds.db.materialize();
    let thresholds = thresholds_from_db(&ds.db, &features, config.thresholds_per_feature);
    let t2 = fit_materialized(&matrix, &features, &ds.label, &thresholds, &config);
    // The two paths accumulate the variance batches in different orders
    // (factorized views vs a one-shot matrix scan), so leaf means match
    // only up to fp association; the structure must match exactly.
    assert_trees_match(&t1.root, &t2.root);
    assert_eq!(t1.features, t2.features);
    assert!(t1.depth() <= 3);
}

/// Same splits and thresholds everywhere; leaf predictions/counts equal
/// within fp-reassociation tolerance.
fn assert_trees_match(a: &Node, b: &Node) {
    match (a, b) {
        (
            Node::Leaf {
                prediction: p1,
                count: c1,
            },
            Node::Leaf {
                prediction: p2,
                count: c2,
            },
        ) => {
            assert!((p1 - p2).abs() <= 1e-9 * (1.0 + p1.abs()), "{p1} vs {p2}");
            assert!((c1 - c2).abs() <= 1e-9 * (1.0 + c1.abs()), "{c1} vs {c2}");
        }
        (
            Node::Split {
                attr: a1,
                threshold: t1,
                left: l1,
                right: r1,
            },
            Node::Split {
                attr: a2,
                threshold: t2,
                left: l2,
                right: r2,
            },
        ) => {
            assert_eq!(a1, a2);
            assert_eq!(t1, t2);
            assert_trees_match(l1, l2);
            assert_trees_match(r1, r2);
        }
        (x, y) => panic!("tree shapes diverge: {x:?} vs {y:?}"),
    }
}

#[test]
fn trained_model_beats_predicting_the_mean() {
    let ds = favorita(20_000, 8);
    let train = ds.train();
    let test = ds.test_matrix();
    let features = ds.feature_refs();
    let model = linreg::fit_factorized_cfg(
        &train,
        &features,
        &ds.label,
        Layout::MergedHash,
        0.5,
        300,
        ExecConfig::global(),
    );
    let rmse = linreg_rmse(&model, &test, &ds.label);
    // Baseline: predict the training mean.
    let moments = linreg::moments_factorized_cfg(
        &train,
        &features,
        &ds.label,
        Layout::MergedHash,
        ExecConfig::global(),
    );
    let mean = moments.xty[0] / moments.count;
    let mean_model = linreg::LinearModel {
        features: model.features.clone(),
        intercept: mean,
        weights: vec![0.0; features.len()],
    };
    let rmse_mean = linreg_rmse(&mean_model, &test, &ds.label);
    assert!(
        rmse < rmse_mean * 0.8,
        "model rmse {rmse} should clearly beat mean rmse {rmse_mean}"
    );
}

/// Boxes a materialized matrix as the `Q` dictionary the D-IFAQ
/// interpreter consumes (record tuple → multiplicity).
fn boxed_query(matrix: &ifaq_engine::TrainMatrix) -> Value {
    let mut d = ifaq_storage::Dict::new();
    for i in 0..matrix.rows {
        let row = matrix.row(i);
        let rec = Value::record(
            matrix
                .attrs
                .iter()
                .cloned()
                .zip(row.iter().map(|v| Value::real(*v)))
                .collect::<Vec<_>>(),
        );
        d.insert_add(rec, Value::Int(1)).unwrap();
    }
    Value::Dict(d)
}

/// The D-IFAQ interpreter running the *optimized* logistic program must
/// agree with `ifaq_ml`'s mirror of the same update rule: the high-level
/// optimizations (normalize apart, memoize + hoist the label
/// interaction, keep the sigmoid aggregate in the loop) are semantics
/// preserving on the new model family.
#[test]
fn interpreter_agrees_with_ml_on_the_optimized_logistic_program() {
    let ds = favorita(300, 12).binarize_label();
    let matrix = ds.db.materialize();
    let features = ds.feature_refs();
    let (alpha, iters) = (0.0005, 5);
    let program =
        logistic_regression_program(&features, &ds.label, Expr::var("Q"), alpha, iters as i64);
    let catalog = ds.db.catalog().with_var_size("Q", ds.db.fact_rows() as u64);
    let (optimized, report) = ifaq_transform::highlevel::optimize_program(&program, &catalog);
    // The sigmoid aggregate stays in the loop; the label interaction hoists.
    assert!(optimized.step.to_string().contains("sigmoid"));
    assert_eq!(report.memoized, 1);

    let mut env = ifaq_engine::interp::Env::new();
    env.insert("Q".into(), boxed_query(&matrix));
    let theta = ifaq_engine::Interpreter::with_max_iterations(1_000)
        .run(&env, &optimized)
        .expect("interpret optimized logistic program");
    let mirror = logreg::fit_program_mirror(&matrix, &features, &ds.label, alpha, iters);
    for (f, want) in features.iter().zip(&mirror) {
        let got = match &theta {
            Value::Dict(d) => d
                .get(&Value::Field(ifaq_ir::Sym::new(*f)))
                .unwrap_or_else(|| panic!("θ has no entry for {f}"))
                .as_f64()
                .expect("numeric parameter"),
            other => panic!("expected parameter dictionary, got {other}"),
        };
        assert!(
            (got - want).abs() <= 1e-9 * (1.0 + want.abs()),
            "θ[{f}]: interpreter {got} vs ml {want}"
        );
    }
}

/// Factorized logistic training produces a model that actually ranks the
/// held-out rows (AUC and accuracy clearly above chance) — the logistic
/// analogue of `trained_model_beats_predicting_the_mean`.
#[test]
fn trained_logistic_model_beats_chance() {
    let ds = favorita(20_000, 8).binarize_label();
    let train = ds.train();
    let test = ds.test_matrix();
    let features = ds.feature_refs();
    let model = logreg::fit_factorized_cfg(
        &train,
        &features,
        &ds.label,
        Layout::MergedHash,
        0.5,
        300,
        ExecConfig::global(),
    );
    let auc = logreg_auc(&model, &test, &ds.label);
    let acc = logreg_accuracy(&model, &test, &ds.label);
    assert!(auc > 0.65, "held-out AUC {auc} should clearly beat 0.5");
    assert!(acc > 0.55, "held-out accuracy {acc} should beat chance");
    let loss = model.mean_log_loss(&test, &ds.label);
    assert!(
        loss.is_finite() && loss < 2f64.ln(),
        "held-out log-loss {loss} should beat the coin-flip loss"
    );
}

#[test]
fn interpreter_validates_the_extracted_batch() {
    // The batch computed by the physical engine must equal the aggregates
    // the D-IFAQ interpreter computes over the boxed join dictionary.
    let ds = favorita(800, 12);
    let matrix = ds.db.materialize();
    // Boxed Q.
    let mut d = ifaq_storage::Dict::new();
    for i in 0..matrix.rows {
        let row = matrix.row(i);
        let rec = Value::record(
            matrix
                .attrs
                .iter()
                .cloned()
                .zip(row.iter().map(|v| Value::real(*v)))
                .collect::<Vec<_>>(),
        );
        d.insert_add(rec, Value::Int(1)).unwrap();
    }
    let mut env = ifaq_engine::interp::Env::new();
    env.insert("Q".into(), Value::Dict(d));
    let interp_val = ifaq_engine::interp::eval_expr(
        &env,
        &ifaq_ir::parser::parse_expr("sum(x in dom(Q)) Q(x) * x.oilprice * x.unit_sales").unwrap(),
    )
    .unwrap();
    let m = linreg::moments_factorized_cfg(
        &ds.db,
        &["oilprice"],
        &ds.label,
        Layout::MergedHash,
        ExecConfig::global(),
    );
    // xty[1] = Σ oilprice · unit_sales.
    let engine_val = m.xty[1];
    let interp_f = interp_val.as_f64().unwrap();
    assert!(
        (interp_f - engine_val).abs() <= 1e-6 * (1.0 + engine_val.abs()),
        "{interp_f} vs {engine_val}"
    );
}
