//! In-database machine learning over factorized joins (§3 of the paper).
//!
//! Two training paths for each model, mirroring the systems compared in §5:
//!
//! * **Factorized (IFAQ)** — the data-intensive computation is a batch of
//!   aggregates evaluated *directly over the input database* by the
//!   `ifaq-engine` executors, without materializing the join. For linear
//!   regression the batch is the covar matrix, computed once and reused by
//!   every gradient-descent iteration (the §4.1 hoisting); for logistic
//!   regression the σ-side gradient batch re-runs over the factorized
//!   join every iteration (`σ(θᵀx)` is nonlinear in θ, so only the label
//!   interactions hoist — see [`logreg`]); for regression trees it is a
//!   per-node batch of filtered variance aggregates (the aggregates
//!   depend on the node's δ condition and cannot be hoisted, §3).
//! * **Materialized (baselines)** — the conventional pipeline: materialize
//!   the training matrix first, then learn over it. [`baseline`]
//!   reimplements the *shapes* of scikit-learn (closed form over the dense
//!   matrix), TensorFlow (one epoch of mini-batch SGD), and mlpack (which
//!   copies the matrix for its transpose and exhausts memory first). The
//!   substitution: those systems cannot ship in a Rust workspace, so these
//!   are shape-for-shape reimplementations of their pipelines, not
//!   bindings to them.
//!
//! [`metrics`] provides RMSE/MAE/R², and [`onehot`] the one-hot expansion
//! used in the §5 categorical-attributes discussion.

pub mod baseline;
pub mod linreg;
pub mod logreg;
pub mod metrics;
pub mod onehot;
pub mod tree;

pub use linreg::LinearModel;
pub use logreg::LogisticModel;
pub use tree::RegressionTree;
