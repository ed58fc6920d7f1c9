//! Binary classification on the Favorita shape: predict *above-median
//! sales days* (`unit_sales_hi`, a churn/promotion-style 0/1 target
//! derived by `Dataset::binarize_label`) with logistic regression.
//!
//! Unlike linear regression, the log-loss gradient is nonlinear in θ, so
//! nothing like the covar matrix can be hoisted: every iteration needs a
//! data pass. The factorized path re-runs that pass over the *unjoined*
//! star schema — a per-dimension weighted score view plus a small
//! aggregate batch — while the conventional pipelines must materialize
//! the join first and then re-scan the wide matrix per iteration.
//!
//! ```sh
//! cargo run --example churn_or_promo --release
//! ```

use ifaq_datagen::favorita;
use ifaq_engine::{ExecConfig, Layout};
use ifaq_ml::baseline::{scikit_like_logreg, tf_like_logreg, MemoryBudget};
use ifaq_ml::logreg;
use ifaq_ml::metrics::{logreg_accuracy, logreg_auc};
use std::time::Instant;

fn main() {
    let (learning_rate, iters) = (0.5, 120);
    let ds = favorita(20_000, 7).binarize_label();
    let train = ds.train();
    let test = ds.test_matrix();
    let features = ds.feature_refs();
    println!(
        "favorita-shaped dataset, binary target `{}`: {} training rows, {} test rows",
        ds.label,
        train.fact_rows(),
        test.rows
    );

    // IFAQ: factorized per-iteration gradient passes; no join materialization.
    let t0 = Instant::now();
    let ifaq_model = logreg::fit_factorized_cfg(
        &train,
        &features,
        &ds.label,
        Layout::MergedHash,
        learning_rate,
        iters,
        ExecConfig::global(),
    );
    let t_ifaq = t0.elapsed();

    // Conventional pipeline: materialize, then learn over the dense matrix.
    let t0 = Instant::now();
    let matrix = train.materialize();
    let t_mat = t0.elapsed();
    let t0 = Instant::now();
    let sk_model = scikit_like_logreg(
        &matrix,
        &features,
        &ds.label,
        learning_rate,
        iters,
        MemoryBudget::unlimited(),
    )
    .expect("within budget");
    let t_sk = t0.elapsed();
    let t0 = Instant::now();
    let tf_model = tf_like_logreg(&matrix, &features, &ds.label, 0.1, 100_000);
    let t_tf = t0.elapsed();

    println!("\ntraining time ({iters} iterations):");
    println!(
        "  ifaq (fused, factorized):        {:>8.3}s",
        t_ifaq.as_secs_f64()
    );
    println!(
        "  materialize join:                {:>8.3}s",
        t_mat.as_secs_f64()
    );
    println!(
        "  scikit-shaped learn (after mat): {:>8.3}s",
        t_sk.as_secs_f64()
    );
    println!(
        "  tf-shaped 1 epoch (after mat):   {:>8.3}s",
        t_tf.as_secs_f64()
    );

    println!("\nheld-out classification quality (last dates):");
    for (name, model) in [
        ("ifaq factorized", &ifaq_model),
        ("scikit-shaped", &sk_model),
        ("tf 1 epoch", &tf_model),
    ] {
        println!(
            "  {name:<16} log-loss {:.4}  accuracy {:.3}  AUC {:.3}",
            model.mean_log_loss(&test, &ds.label),
            logreg_accuracy(model, &test, &ds.label),
            logreg_auc(model, &test, &ds.label)
        );
    }

    println!(
        "\ntrained logistic model (ifaq): intercept {:.4}",
        ifaq_model.intercept
    );
    for (f, w) in ifaq_model.features.iter().zip(&ifaq_model.weights) {
        println!("  {f:<14} {w:>10.5}");
    }
}
