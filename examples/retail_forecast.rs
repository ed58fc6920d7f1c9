//! Retail forecasting on the Favorita-shaped dataset: train linear models
//! with the factorized IFAQ path and compare against the conventional
//! materialize-then-learn pipelines, including held-out RMSE — the §5
//! workload at laptop scale.
//!
//! ```sh
//! cargo run --example retail_forecast --release
//! ```

use ifaq_datagen::favorita;
use ifaq_engine::{ExecConfig, Layout};
use ifaq_ml::baseline::{scikit_like_linreg, tf_like_linreg, MemoryBudget};
use ifaq_ml::linreg;
use ifaq_ml::metrics::linreg_rmse;
use std::time::Instant;

fn main() {
    let ds = favorita(100_000, 7);
    let train = ds.train();
    let test = ds.test_matrix();
    let features = ds.feature_refs();
    println!(
        "favorita-shaped dataset: {} training rows, {} test rows, features {:?}",
        train.fact_rows(),
        test.rows,
        features
    );

    // IFAQ: factorized covar + BGD; the join never materializes.
    let t0 = Instant::now();
    let ifaq_model = linreg::fit_factorized_cfg(
        &train,
        &features,
        &ds.label,
        Layout::MergedHash,
        0.5,
        200,
        ExecConfig::global(),
    );
    let t_ifaq = t0.elapsed();

    // Conventional pipeline: materialize, then learn.
    let t0 = Instant::now();
    let matrix = train.materialize();
    let t_mat = t0.elapsed();
    let t0 = Instant::now();
    let sk_model = scikit_like_linreg(&matrix, &features, &ds.label, MemoryBudget::unlimited())
        .expect("within budget");
    let t_sk = t0.elapsed();
    let t0 = Instant::now();
    let tf_model = tf_like_linreg(&matrix, &features, &ds.label, 0.05, 100_000);
    let t_tf = t0.elapsed();

    println!("\ntraining time:");
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
    if t_ifaq < t_mat {
        println!("  => IFAQ finished before the baselines materialized the join.");
    }

    println!("\nheld-out RMSE (last dates):");
    println!(
        "  ifaq BGD:     {:.4}",
        linreg_rmse(&ifaq_model, &test, &ds.label)
    );
    println!(
        "  closed form:  {:.4}",
        linreg_rmse(&sk_model, &test, &ds.label)
    );
    println!(
        "  tf 1 epoch:   {:.4}",
        linreg_rmse(&tf_model, &test, &ds.label)
    );

    println!(
        "\nlearned model (ifaq): intercept {:.4}",
        ifaq_model.intercept
    );
    for (f, w) in ifaq_model.features.iter().zip(&ifaq_model.weights) {
        println!("  {f:<14} {w:>10.5}");
    }
}
