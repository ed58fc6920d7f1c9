//! Baseline competitor pipelines (§5), reimplemented shape-for-shape.
//!
//! The paper benchmarks scikit-learn, TensorFlow, and mlpack, all of which
//! must **materialize the training dataset first** and then learn over the
//! dense matrix. We cannot ship those systems in a Rust workspace; what
//! the experiments measure is the *pipeline architecture* — materialize
//! cost plus dense-matrix learning cost versus IFAQ's fused factorized
//! computation — which these reimplementations preserve; they stand in
//! for the real systems, which this repository does not run:
//!
//! * [`scikit_like_linreg`] / [`scikit_like_tree`] /
//!   [`scikit_like_logreg`]: closed-form least squares over the materialized
//!   matrix (scikit-learn's `LinearRegression`), or CART over the matrix.
//! * [`tf_like_linreg`] / [`tf_like_logreg`]: one epoch of mini-batch SGD
//!   (batch size 100 000, the
//!   paper's setting) over the materialized matrix.
//! * [`mlpack_like_linreg`] / [`mlpack_like_logreg`]: mlpack copies the
//!   matrix to compute its transpose;
//!   the paper reports it running out of memory on every workload. The
//!   reimplementation checks the doubled allocation against a memory
//!   budget and fails the same way.
//!
//! A [`MemoryBudget`] makes the out-of-memory behaviors reproducible at
//! laptop scale: the harness configures a budget proportional to the
//! dataset, mirroring which systems failed in the paper.

use crate::linreg::{fit_closed_form, moments_from_matrix, LinearModel};
use crate::logreg::{self, LogisticModel};
use crate::tree::{fit_materialized, RegressionTree, TreeConfig};
use ifaq_engine::{stable_sigmoid, TrainMatrix};

/// A simulated RAM budget in bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoryBudget {
    /// Maximum bytes a pipeline stage may allocate.
    pub bytes: usize,
}

impl MemoryBudget {
    /// An effectively unlimited budget.
    pub fn unlimited() -> Self {
        MemoryBudget { bytes: usize::MAX }
    }
}

/// Why a baseline failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BaselineError {
    /// The stage would exceed the memory budget.
    OutOfMemory {
        /// Bytes the stage needed.
        needed: usize,
        /// Bytes available.
        budget: usize,
        /// Which stage failed.
        stage: &'static str,
    },
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineError::OutOfMemory {
                needed,
                budget,
                stage,
            } => write!(
                f,
                "out of memory in {stage}: needs {needed} bytes, budget {budget}"
            ),
        }
    }
}

impl std::error::Error for BaselineError {}

/// scikit-learn shape: the full dense matrix must fit in memory; linear
/// regression solves the normal equations in closed form.
pub fn scikit_like_linreg(
    m: &TrainMatrix,
    features: &[&str],
    label: &str,
    budget: MemoryBudget,
) -> Result<LinearModel, BaselineError> {
    // scikit keeps the input matrix plus its own float64 copy.
    let needed = m.bytes() * 2;
    if needed > budget.bytes {
        return Err(BaselineError::OutOfMemory {
            needed,
            budget: budget.bytes,
            stage: "scikit-learn fit",
        });
    }
    Ok(fit_closed_form(&moments_from_matrix(m, features, label)))
}

/// scikit-learn shape for regression trees (CART over the dense matrix).
pub fn scikit_like_tree(
    m: &TrainMatrix,
    features: &[&str],
    label: &str,
    thresholds: &[Vec<f64>],
    config: &TreeConfig,
    budget: MemoryBudget,
) -> Result<RegressionTree, BaselineError> {
    let needed = m.bytes() * 2;
    if needed > budget.bytes {
        return Err(BaselineError::OutOfMemory {
            needed,
            budget: budget.bytes,
            stage: "scikit-learn tree fit",
        });
    }
    Ok(fit_materialized(m, features, label, thresholds, config))
}

/// TensorFlow shape: one epoch of mini-batch SGD with the paper's batch
/// size of 100 000. Streams the matrix batch by batch, so it survives
/// budgets that kill scikit (matching §5's observation), at the cost of a
/// worse single-epoch RMSE.
pub fn tf_like_linreg(
    m: &TrainMatrix,
    features: &[&str],
    label: &str,
    learning_rate: f64,
    batch_size: usize,
) -> LinearModel {
    let d = features.len() + 1;
    let cols: Vec<usize> = features
        .iter()
        .map(|f| m.col(f).expect("feature"))
        .collect();
    let label_col = m.col(label).expect("label");
    // Standardize from a first pass, as tf.feature_column pipelines do.
    let stdz = logreg::Standardizer::from_matrix(m, &cols);
    let mut theta = vec![0.0; d];
    let mut x = vec![0.0; d];
    let batch_size = batch_size.max(1);
    let mut start = 0;
    while start < m.rows {
        let end = (start + batch_size).min(m.rows);
        let bn = (end - start) as f64;
        let mut grad = vec![0.0; d];
        for r in start..end {
            let row = m.row(r);
            x[0] = 1.0;
            for (i, &c) in cols.iter().enumerate() {
                x[i + 1] = (row[c] - stdz.mean[i + 1]) / stdz.std[i + 1];
            }
            let err: f64 = theta.iter().zip(&x).map(|(t, xi)| t * xi).sum::<f64>() - row[label_col];
            for i in 0..d {
                grad[i] += err * x[i];
            }
        }
        for i in 0..d {
            theta[i] -= learning_rate / bn * grad[i];
        }
        start = end;
    }
    let (intercept, weights) = stdz.to_raw(&theta);
    LinearModel {
        features: features.iter().map(|s| s.to_string()).collect(),
        intercept,
        weights,
    }
}

/// scikit-learn shape for logistic regression: the dense matrix (plus
/// scikit's float64 working copy) must fit in memory, then full-batch
/// gradient descent on log-loss over it.
pub fn scikit_like_logreg(
    m: &TrainMatrix,
    features: &[&str],
    label: &str,
    learning_rate: f64,
    iterations: usize,
    budget: MemoryBudget,
) -> Result<LogisticModel, BaselineError> {
    let needed = m.bytes() * 2;
    if needed > budget.bytes {
        return Err(BaselineError::OutOfMemory {
            needed,
            budget: budget.bytes,
            stage: "scikit-learn logistic fit",
        });
    }
    Ok(logreg::fit_materialized(
        m,
        features,
        label,
        learning_rate,
        iterations,
    ))
}

/// TensorFlow shape for logistic regression: one epoch of mini-batch SGD
/// on log-loss over the materialized matrix (batch size 100 000 in the
/// paper's setting), streaming batch by batch like [`tf_like_linreg`].
pub fn tf_like_logreg(
    m: &TrainMatrix,
    features: &[&str],
    label: &str,
    learning_rate: f64,
    batch_size: usize,
) -> LogisticModel {
    let d = features.len() + 1;
    let cols: Vec<usize> = features
        .iter()
        .map(|f| m.col(f).expect("feature"))
        .collect();
    let label_col = m.col(label).expect("label");
    // Standardize from a first pass, as tf.feature_column pipelines do
    // (the same parameters logreg::fit_materialized derives).
    let stdz = logreg::Standardizer::from_matrix(m, &cols);
    let mut theta = vec![0.0; d];
    let mut x = vec![0.0; d];
    let batch_size = batch_size.max(1);
    let mut start = 0;
    while start < m.rows {
        let end = (start + batch_size).min(m.rows);
        let bn = (end - start) as f64;
        let mut grad = vec![0.0; d];
        for r in start..end {
            let row = m.row(r);
            x[0] = 1.0;
            for (i, &c) in cols.iter().enumerate() {
                x[i + 1] = (row[c] - stdz.mean[i + 1]) / stdz.std[i + 1];
            }
            let s: f64 = theta.iter().zip(&x).map(|(t, xi)| t * xi).sum();
            let err = stable_sigmoid(s) - row[label_col];
            for i in 0..d {
                grad[i] += err * x[i];
            }
        }
        for i in 0..d {
            theta[i] -= learning_rate / bn * grad[i];
        }
        start = end;
    }
    let (intercept, weights) = stdz.to_raw(&theta);
    LogisticModel {
        features: features.iter().map(|s| s.to_string()).collect(),
        intercept,
        weights,
    }
}

/// mlpack shape for logistic regression: the transpose copy doubles the
/// allocation before any learning happens, so it fails first — the same
/// ordering the paper reports for the regression workloads.
pub fn mlpack_like_logreg(
    m: &TrainMatrix,
    features: &[&str],
    label: &str,
    learning_rate: f64,
    iterations: usize,
    budget: MemoryBudget,
) -> Result<LogisticModel, BaselineError> {
    let needed = m.bytes() * 3;
    if needed > budget.bytes {
        return Err(BaselineError::OutOfMemory {
            needed,
            budget: budget.bytes,
            stage: "mlpack transpose copy",
        });
    }
    Ok(logreg::fit_materialized(
        m,
        features,
        label,
        learning_rate,
        iterations,
    ))
}

/// mlpack shape: copies the matrix for its transpose before fitting. The
/// paper reports it running out of memory on every experiment (failing at
/// 5% of Favorita); the doubled-allocation check reproduces that mode.
pub fn mlpack_like_linreg(
    m: &TrainMatrix,
    features: &[&str],
    label: &str,
    budget: MemoryBudget,
) -> Result<LinearModel, BaselineError> {
    // Input + transpose copy + solver workspace.
    let needed = m.bytes() * 3;
    if needed > budget.bytes {
        return Err(BaselineError::OutOfMemory {
            needed,
            budget: budget.bytes,
            stage: "mlpack transpose copy",
        });
    }
    Ok(fit_closed_form(&moments_from_matrix(m, features, label)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::linreg_rmse;
    use ifaq_engine::star::running_example_star;

    #[test]
    fn scikit_like_fits_within_budget() {
        let db = running_example_star();
        let m = db.materialize();
        let model =
            scikit_like_linreg(&m, &["city", "price"], "units", MemoryBudget::unlimited()).unwrap();
        assert_eq!(model.weights.len(), 2);
    }

    #[test]
    fn scikit_like_oom_on_tight_budget() {
        let db = running_example_star();
        let m = db.materialize();
        let err = scikit_like_linreg(
            &m,
            &["city", "price"],
            "units",
            MemoryBudget { bytes: m.bytes() },
        )
        .unwrap_err();
        assert!(matches!(err, BaselineError::OutOfMemory { .. }));
        assert!(err.to_string().contains("out of memory"));
    }

    #[test]
    fn mlpack_fails_before_scikit() {
        // mlpack needs 3x, scikit 2x: there is a budget window where only
        // mlpack dies — the paper's observed ordering.
        let db = running_example_star();
        let m = db.materialize();
        let budget = MemoryBudget {
            bytes: m.bytes() * 2,
        };
        assert!(scikit_like_linreg(&m, &["city"], "units", budget).is_ok());
        assert!(mlpack_like_linreg(&m, &["city"], "units", budget).is_err());
    }

    #[test]
    fn tf_like_single_epoch_is_worse_than_closed_form() {
        let db = running_example_star();
        let m = db.materialize();
        let features = ["city", "price"];
        let closed = scikit_like_linreg(&m, &features, "units", MemoryBudget::unlimited()).unwrap();
        let tf = tf_like_linreg(&m, &features, "units", 0.1, 2);
        let rc = linreg_rmse(&closed, &m, "units");
        let rt = linreg_rmse(&tf, &m, "units");
        assert!(rt >= rc - 1e-9, "one epoch should not beat closed form");
    }

    /// Running example with a binary `hot = units > 5` fact column.
    fn binary_example() -> ifaq_engine::TrainMatrix {
        let db = running_example_star();
        let mut m = db.materialize();
        let units = m.col("units").unwrap();
        let width = m.attrs.len();
        let mut data = Vec::with_capacity(m.rows * (width + 1));
        for i in 0..m.rows {
            data.extend_from_slice(m.row(i));
            data.push(if m.row(i)[units] > 5.0 { 1.0 } else { 0.0 });
        }
        m.attrs.push("hot".into());
        m.data = data;
        m
    }

    #[test]
    fn logreg_baselines_respect_the_budget_regime() {
        let m = binary_example();
        let features = ["city", "price"];
        // Unlimited: both succeed and produce finite weights.
        let sk =
            scikit_like_logreg(&m, &features, "hot", 0.5, 50, MemoryBudget::unlimited()).unwrap();
        assert!(sk.weights.iter().all(|w| w.is_finite()));
        // mlpack needs 3x, scikit 2x: the same window where only mlpack
        // dies exists for the logistic pipeline.
        let budget = MemoryBudget {
            bytes: m.bytes() * 2,
        };
        assert!(scikit_like_logreg(&m, &features, "hot", 0.5, 5, budget).is_ok());
        let err = mlpack_like_logreg(&m, &features, "hot", 0.5, 5, budget).unwrap_err();
        assert!(matches!(err, BaselineError::OutOfMemory { .. }));
    }

    #[test]
    fn tf_like_logreg_streams_and_stays_finite() {
        let m = binary_example();
        for bs in [1, 2, 100_000] {
            let model = tf_like_logreg(&m, &["city", "price"], "hot", 0.1, bs);
            assert!(model.weights.iter().all(|w| w.is_finite()), "bs {bs}");
            for i in 0..m.rows {
                let p = model.predict_proba_row(&m, i);
                assert!((0.0..=1.0).contains(&p));
            }
        }
    }

    #[test]
    fn tf_like_streams_any_batch_size() {
        let db = running_example_star();
        let m = db.materialize();
        for bs in [1, 2, 100_000] {
            let model = tf_like_linreg(&m, &["city"], "units", 0.05, bs);
            assert!(model.weights[0].is_finite());
        }
    }
}
