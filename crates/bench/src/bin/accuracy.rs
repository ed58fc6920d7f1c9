//! §5 accuracy: RMSE on the held-out (last dates) split — IFAQ's BGD vs
//! the closed-form solution vs TensorFlow's single epoch, and the
//! factorized vs materialized regression trees.
//!
//! Expected shape: IFAQ within 1% of closed form; the single TF epoch
//! worse; the two tree paths identical.
//!
//! Run: `cargo run -p ifaq_bench --bin accuracy --release [-- --scale f]`

use ifaq_bench::{print_header, print_row, HarnessArgs};
use ifaq_datagen::{favorita, retailer};
use ifaq_engine::{ExecConfig, Layout};
use ifaq_ml::baseline::{scikit_like_linreg, tf_like_linreg, MemoryBudget};
use ifaq_ml::linreg;
use ifaq_ml::metrics::{linreg_rmse, tree_rmse};
use ifaq_ml::tree::{fit_factorized as fit_tree, fit_materialized, thresholds_from_db, TreeConfig};

fn main() {
    let args = HarnessArgs::parse();
    print_header(
        "RMSE on held-out split",
        &[
            "ifaq-bgd",
            "closed-form",
            "tf 1 epoch",
            "tree-fact",
            "tree-mat",
        ],
    );
    for ds in [
        favorita(args.rows(100_000), 42),
        retailer(args.rows(80_000), 43),
    ] {
        let train = ds.train();
        let test = ds.test_matrix();
        let features = ds.feature_refs();
        let train_matrix = train.materialize();

        let ifaq_model = linreg::fit_factorized_cfg(
            &train,
            &features,
            &ds.label,
            Layout::MergedHash,
            0.5,
            300,
            ExecConfig::global(),
        );
        let closed = scikit_like_linreg(
            &train_matrix,
            &features,
            &ds.label,
            MemoryBudget::unlimited(),
        )
        .expect("closed form");
        let tf = tf_like_linreg(&train_matrix, &features, &ds.label, 0.05, 100_000);

        let config = TreeConfig {
            max_depth: 4,
            min_samples: 2.0,
            thresholds_per_feature: 4,
        };
        let t_fact = fit_tree(&train, &features, &ds.label, &config);
        let thresholds = thresholds_from_db(&train, &features, config.thresholds_per_feature);
        let t_mat = fit_materialized(&train_matrix, &features, &ds.label, &thresholds, &config);
        assert_eq!(
            t_fact, t_mat,
            "factorized and materialized trees must agree"
        );

        let r_ifaq = linreg_rmse(&ifaq_model, &test, &ds.label);
        let r_closed = linreg_rmse(&closed, &test, &ds.label);
        let r_tf = linreg_rmse(&tf, &test, &ds.label);
        print_row(
            ds.name,
            &[
                format!("{r_ifaq:.4}"),
                format!("{r_closed:.4}"),
                format!("{r_tf:.4}"),
                format!("{:.4}", tree_rmse(&t_fact, &test, &ds.label)),
                format!("{:.4}", tree_rmse(&t_mat, &test, &ds.label)),
            ],
        );
        let gap = (r_ifaq - r_closed).abs() / r_closed * 100.0;
        println!("  ifaq vs closed-form gap: {gap:.2}% (paper: within 1%)");
    }
}
