//! Logistic regression over factorized joins.
//!
//! The §3 D-IFAQ recipe extends beyond linear models, but with a twist:
//! the log-loss gradient `Σ_x (σ(θᵀx) − y)·x_j` is *nonlinear* in θ, so —
//! unlike the covar matrix — it cannot be hoisted out of the training
//! loop. What still factorizes is each iteration's data pass:
//!
//! 1. the score `θᵀx` is linear over the joined tuple, so a per-row score
//!    pass needs only one weighted view per dimension plus the fact
//!    columns — no join materialization ([`fact_scores_prepared`]);
//! 2. with the scores bound as a derived fact column `__sigma = σ(θᵀx)`,
//!    the gradient aggregates `Σ σ` and `Σ σ·x_j` are ordinary
//!    sum-of-product aggregates ([`ifaq_query::batch::logistic_gradient_batch`])
//!    and run through [`ifaq_engine::layout::execute_with`] under any
//!    physical layout and any [`ExecConfig`] sharding;
//! 3. the loop-invariant side `Σ y·x_j` comes from a one-time covar pass
//!    ([`crate::linreg::moments_factorized_cfg`]) and is hoisted, as are
//!    the standardization moments.
//!
//! So the factorized win for GLMs is re-running a small aggregate batch
//! per iteration over the *factorized* join instead of scanning a
//! materialized matrix — `O(|fact| + Σ|dim|)` per iteration with tiny
//! working state, versus `O(|fact|·width)` after an `O(|fact|·width)`
//! materialization.
//!
//! Numerics: the sign-branched [`stable_sigmoid`] (shared with the
//! interpreter's `UnOp::Sigmoid`) never overflows `exp`, and log-loss is
//! computed from scores via [`log1p_exp`] (`ln(1+eˣ)` without overflow),
//! so ±1e3 scores are exact.
//!
//! Per-iteration gradient scans route through
//! [`ifaq_engine::layout::execute_with`] and therefore through the
//! [`ifaq_engine::exec`] executor tree; the `__sigma` rewrite stays a
//! fact-column substitution at execute time, so prepared θ-free state is
//! reused across iterations exactly as before the refactor.

use crate::linreg::{moments_factorized_cfg, moments_streamed, Moments};
use ifaq_engine::par::run_chunked;
use ifaq_engine::stable_sigmoid;
use ifaq_engine::star::{StarDb, TrainMatrix};
use ifaq_engine::stream::{execute_streaming_map, prepare_streaming, StreamSource};
use ifaq_engine::{layout, ExecConfig, Layout};
use ifaq_ir::Sym;
use ifaq_query::analysis;
use ifaq_query::batch::{covar_batch, logistic_gradient_batch, AggBatch, AggSpec};
use ifaq_query::ViewPlan;
use ifaq_storage::stream::ExportError;
use ifaq_storage::{ColRelation, Column};
use std::collections::HashMap;
use std::convert::Infallible;
use std::ops::Range;

/// Name of the derived fact column holding the per-row `σ(θᵀx)` values
/// during factorized training. Chosen to collide with no generator
/// attribute (double underscore, like the pipeline's `__agg<i>`).
pub const SIGMA_COL: &str = "__sigma";

/// `ln(1 + eˣ)` computed without overflow (the softplus function): for
/// positive `x` the naive form computes `exp(1000) = inf`; rewriting as
/// `x + ln(1 + e⁻ˣ)` keeps `exp` on non-positive arguments.
#[inline]
pub fn log1p_exp(x: f64) -> f64 {
    if x > 0.0 {
        x + (-x).exp().ln_1p()
    } else {
        x.exp().ln_1p()
    }
}

/// A trained logistic model:
/// `P(y=1|x) = σ(intercept + Σ weights[i]·x[fi])`.
#[derive(Clone, Debug, PartialEq)]
pub struct LogisticModel {
    /// Feature names, in weight order.
    pub features: Vec<String>,
    /// Intercept term of the linear score.
    pub intercept: f64,
    /// Per-feature weights of the linear score.
    pub weights: Vec<f64>,
}

impl LogisticModel {
    /// The linear score for a feature vector given in the model's
    /// feature order — the serving-path entry point.
    ///
    /// # Panics
    ///
    /// If `x.len()` differs from the number of features.
    pub fn score(&self, x: &[f64]) -> f64 {
        assert_eq!(
            x.len(),
            self.weights.len(),
            "feature vector has {} values but the model has {} features",
            x.len(),
            self.weights.len()
        );
        self.intercept + self.weights.iter().zip(x).map(|(w, v)| w * v).sum::<f64>()
    }

    /// The predicted probability `σ(score)` for a feature vector in the
    /// model's feature order.
    pub fn predict_proba(&self, x: &[f64]) -> f64 {
        stable_sigmoid(self.score(x))
    }

    /// The linear score `intercept + Σ w·x` for row `i` of a matrix whose
    /// columns include the model's features.
    pub fn score_row(&self, m: &TrainMatrix, i: usize) -> f64 {
        let row = m.row(i);
        let mut s = self.intercept;
        for (w, f) in self.weights.iter().zip(&self.features) {
            s += w * row[m.col(f).expect("feature column")];
        }
        s
    }

    /// The predicted probability `σ(score)` for row `i`.
    pub fn predict_proba_row(&self, m: &TrainMatrix, i: usize) -> f64 {
        stable_sigmoid(self.score_row(m, i))
    }

    /// The predicted 0/1 label for row `i` (threshold 0.5).
    pub fn predict_row(&self, m: &TrainMatrix, i: usize) -> f64 {
        if self.score_row(m, i) >= 0.0 {
            1.0
        } else {
            0.0
        }
    }

    /// All row scores at once, with the feature columns resolved a single
    /// time — use this (not [`Self::score_row`] in a loop) when scoring a
    /// whole matrix: per-row column resolution is a string search per
    /// feature.
    pub fn scores(&self, m: &TrainMatrix) -> Vec<f64> {
        let cols: Vec<usize> = self
            .features
            .iter()
            .map(|f| m.col(f).expect("feature column"))
            .collect();
        (0..m.rows)
            .map(|i| {
                let row = m.row(i);
                self.intercept
                    + self
                        .weights
                        .iter()
                        .zip(&cols)
                        .map(|(w, &c)| w * row[c])
                        .sum::<f64>()
            })
            .collect()
    }

    /// Mean log-loss on a labeled matrix, computed stably from scores
    /// (`loss = softplus(s) − y·s`), so extreme scores cannot produce
    /// infinities through `ln(0)`.
    pub fn mean_log_loss(&self, m: &TrainMatrix, label: &str) -> f64 {
        let label_col = m.col(label).expect("label column");
        if m.rows == 0 {
            return 0.0;
        }
        let total: f64 = self
            .scores(m)
            .iter()
            .enumerate()
            .map(|(i, &s)| log1p_exp(s) - m.row(i)[label_col] * s)
            .sum();
        total / m.rows as f64
    }
}

/// Standardization parameters (mean 0 / variance 1 per feature, intercept
/// untouched) shared by the linear and logistic training paths and the
/// baseline shapes, so a single learning rate works across datasets.
pub(crate) struct Standardizer {
    /// Per-column means; index 0 is the intercept (0.0).
    pub(crate) mean: Vec<f64>,
    /// Per-column standard deviations, floored at 1e-6; index 0 is 1.0.
    pub(crate) std: Vec<f64>,
}

impl Standardizer {
    fn from_stats(d: usize, n: f64, first: &[f64], second_diag: &[f64]) -> Standardizer {
        let mut mean = vec![0.0; d];
        let mut std = vec![1.0; d];
        for i in 1..d {
            mean[i] = first[i] / n;
            let var = second_diag[i] / n - mean[i] * mean[i];
            std[i] = var.max(1e-12).sqrt();
        }
        Standardizer { mean, std }
    }

    pub(crate) fn from_moments(moments: &Moments) -> Standardizer {
        let d = moments.features.len() + 1;
        let n = moments.count.max(1.0);
        let first: Vec<f64> = (0..d).map(|i| moments.gram[i]).collect();
        let diag: Vec<f64> = (0..d).map(|i| moments.gram[i * d + i]).collect();
        Standardizer::from_stats(d, n, &first, &diag)
    }

    pub(crate) fn from_matrix(m: &TrainMatrix, cols: &[usize]) -> Standardizer {
        let d = cols.len() + 1;
        let n = (m.rows as f64).max(1.0);
        let mut first = vec![0.0; d];
        let mut diag = vec![0.0; d];
        for r in 0..m.rows {
            let row = m.row(r);
            for (i, &c) in cols.iter().enumerate() {
                first[i + 1] += row[c];
                diag[i + 1] += row[c] * row[c];
            }
        }
        Standardizer::from_stats(d, n, &first, &diag)
    }

    /// Maps standardized parameters back to raw-attribute space:
    /// `w_j = θ_j/σ_j`, `b = θ_0 − Σ θ_j·μ_j/σ_j`. The same mapping turns
    /// the current θ into the raw-space score weights each iteration uses.
    pub(crate) fn to_raw(&self, theta: &[f64]) -> (f64, Vec<f64>) {
        let mut bias = theta[0];
        let mut weights = Vec::with_capacity(theta.len() - 1);
        for (j, t) in theta.iter().enumerate().skip(1) {
            weights.push(t / self.std[j]);
            bias -= t * self.mean[j] / self.std[j];
        }
        (bias, weights)
    }

    /// The inverse of [`Standardizer::to_raw`]: lifts a raw-space model
    /// `(b, w)` into standardized θ — `θ_j = w_j·σ_j`,
    /// `θ_0 = b + Σ w_j·μ_j`. Warm-started training resumes from here.
    pub(crate) fn to_standardized(&self, intercept: f64, weights: &[f64]) -> Vec<f64> {
        let mut theta = Vec::with_capacity(weights.len() + 1);
        let mut t0 = intercept;
        for (j, w) in weights.iter().enumerate() {
            t0 += w * self.mean[j + 1];
        }
        theta.push(t0);
        for (j, w) in weights.iter().enumerate() {
            theta.push(w * self.std[j + 1]);
        }
        theta
    }
}

/// Batch gradient descent on mean log-loss over a materialized training
/// matrix — the conventional-pipeline path. Features are standardized
/// internally; the returned model is in raw attribute space. Labels must
/// be 0/1 (see `ifaq_datagen::Dataset::binarize_label`).
pub fn fit_materialized(
    m: &TrainMatrix,
    features: &[&str],
    label: &str,
    learning_rate: f64,
    iterations: usize,
) -> LogisticModel {
    let d = features.len() + 1;
    let cols: Vec<usize> = features
        .iter()
        .map(|f| m.col(f).expect("feature column"))
        .collect();
    let label_col = m.col(label).expect("label column");
    let n = (m.rows as f64).max(1.0);
    let stdz = Standardizer::from_matrix(m, &cols);
    let mut theta = vec![0.0; d];
    let mut x = vec![0.0; d];
    for _ in 0..iterations {
        let mut grad = vec![0.0; d];
        for r in 0..m.rows {
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
            theta[i] -= learning_rate / n * grad[i];
        }
    }
    let (intercept, weights) = stdz.to_raw(&theta);
    LogisticModel {
        features: features.iter().map(|s| s.to_string()).collect(),
        intercept,
        weights,
    }
}

/// Which relation stores an attribute.
enum Owner {
    /// The fact table stores it.
    Fact,
    /// Dimension `dims[i]` stores it.
    Dim(usize),
}

/// Resolves attribute ownership with the view planner's rule: the fact
/// table owns everything it stores; any other attribute belongs to the
/// first dimension storing it.
fn owner_of(db: &StarDb, attr: &str) -> Option<Owner> {
    if db.fact.column(attr).is_some() {
        return Some(Owner::Fact);
    }
    db.dims
        .iter()
        .position(|d| d.rel.column(attr).is_some())
        .map(Owner::Dim)
}

/// Sentinel marking a fact row whose key misses a dimension.
const MISS: u32 = u32::MAX;

/// The dimensions owning at least one feature, in ascending index order —
/// the order the score kernel adds their weighted sums in.
fn featured_dims(db: &StarDb, features: &[&str]) -> Vec<usize> {
    let mut featured: Vec<usize> = features
        .iter()
        .filter_map(|f| match owner_of(db, f) {
            Some(Owner::Fact) => None,
            Some(Owner::Dim(di)) => Some(di),
            None => panic!("no relation stores attribute `{f}`"),
        })
        .collect();
    featured.sort_unstable();
    featured.dedup();
    featured
}

/// Resolves `fact`'s join key for dimension `di` through its key index:
/// the dimension row per fact row, or [`MISS`].
fn resolve_keys(
    db: &StarDb,
    di: usize,
    index: &HashMap<i64, usize>,
    fact: &ColRelation,
) -> Vec<u32> {
    fact.column(db.dims[di].key.as_str())
        .expect("fact join key column")
        .as_i64()
        .expect("fact join key must be integer")
        .iter()
        .map(|k| index.get(k).map_or(MISS, |&j| j as u32))
        .collect()
}

/// Loop-invariant preprocessing for the per-iteration score pass: for
/// every dimension owning at least one feature, the fact-row → dimension-
/// row resolution (an index join, resolved once per training run —
/// duplicate dimension keys keep the last row, matching
/// [`StarDb::materialize`]'s key index). With this hoisted, an
/// iteration's score pass is pure dense arithmetic: no hashing.
pub struct ScorePrep {
    /// Featured dimensions, ascending (see [`featured_dims`]).
    featured: Vec<usize>,
    /// Per featured dimension: the per-fact-row dimension row or [`MISS`].
    rows: Vec<Vec<u32>>,
}

/// Builds the [`ScorePrep`] for a feature set over a star database.
pub fn prepare_scores(db: &StarDb, features: &[&str]) -> ScorePrep {
    let featured = featured_dims(db, features);
    let rows = featured
        .iter()
        .map(|&di| resolve_keys(db, di, &db.dims[di].key_index(), &db.fact))
        .collect();
    ScorePrep { featured, rows }
}

/// One θ's raw-space score weights, in the order the score kernel adds
/// them: per featured dimension (ascending) the weighted payload sum of
/// every dimension row, then each fact-owned feature's `(name, w)` in
/// feature order.
struct ScoreWeights<'f> {
    bias: f64,
    dims: Vec<Vec<f64>>,
    fact: Vec<(&'f str, f64)>,
}

impl<'f> ScoreWeights<'f> {
    /// The weights for `bias + Σ weights·features` over `db`'s dimensions
    /// (rebuilt per iteration — the weights change every iteration).
    fn new(
        db: &StarDb,
        featured: &[usize],
        features: &[&'f str],
        weights: &[f64],
        bias: f64,
    ) -> Self {
        assert_eq!(features.len(), weights.len());
        let mut fact = Vec::new();
        let mut per_dim: Vec<Vec<(&Column, f64)>> = vec![Vec::new(); db.dims.len()];
        for (f, &w) in features.iter().zip(weights) {
            match owner_of(db, f) {
                Some(Owner::Fact) => fact.push((*f, w)),
                Some(Owner::Dim(di)) => per_dim[di].push((db.dims[di].rel.column(f).unwrap(), w)),
                None => panic!("no relation stores attribute `{f}`"),
            }
        }
        let dims = featured
            .iter()
            .map(|&di| {
                let feats = &per_dim[di];
                assert!(
                    !feats.is_empty(),
                    "ScorePrep was built for a different feature set"
                );
                (0..db.dims[di].rel.len())
                    .map(|j| feats.iter().map(|(c, w)| w * c.get_f64(j)).sum())
                    .collect()
            })
            .collect();
        debug_assert_eq!(
            featured.len(),
            per_dim.iter().filter(|f| !f.is_empty()).count(),
            "ScorePrep covers a different set of dimensions"
        );
        ScoreWeights { bias, dims, fact }
    }

    /// The fact-owned weights bound to `fact`'s columns.
    fn fact_cols<'r>(&self, fact: &'r ColRelation) -> Vec<(&'r Column, f64)> {
        self.fact
            .iter()
            .map(|(f, w)| (fact.column(f).expect("fact feature column"), *w))
            .collect()
    }

    /// The score kernel both training paths run: for each row `i` in
    /// `range`, `bias`, then `+= wsum[rows[k][i]]` per featured dimension,
    /// then `+= w·x` per fact feature; a row whose key misses a dimension
    /// scores 0.0 — the inner join drops it everywhere the score is
    /// consumed.
    fn score(&self, rows: &[Vec<u32>], fact: &[(&Column, f64)], range: Range<usize>) -> Vec<f64> {
        let mut out = Vec::with_capacity(range.len());
        'row: for i in range {
            let mut s = self.bias;
            for (rows, wsum) in rows.iter().zip(&self.dims) {
                let r = rows[i];
                if r == MISS {
                    out.push(0.0);
                    continue 'row;
                }
                s += wsum[r as usize];
            }
            for (col, w) in fact {
                s += w * col.get_f64(i);
            }
            out.push(s);
        }
        out
    }
}

/// Computes the per-fact-row linear score `bias + Σ w_f·x_f` over the
/// joined tuple without materializing the join: one `dim row → Σ w_f·x_f`
/// weighted vector per featured dimension plus direct fact-column reads,
/// resolved through the hoisted index join in `prep`. The scan shards
/// per `cfg`; chunks emit disjoint ranges merged in ascending order, so
/// results are identical at every thread count. Rows whose key misses a
/// dimension score 0.0.
pub fn fact_scores_prepared(
    db: &StarDb,
    features: &[&str],
    weights: &[f64],
    bias: f64,
    prep: &ScorePrep,
    cfg: &ExecConfig,
) -> Vec<f64> {
    let sw = ScoreWeights::new(db, &prep.featured, features, weights, bias);
    let fact = sw.fact_cols(&db.fact);
    let n = db.fact.len();
    run_chunked(
        cfg,
        n,
        Vec::with_capacity(n),
        |range: Range<usize>| sw.score(&prep.rows, &fact, range),
        |acc: &mut Vec<f64>, p| acc.extend(p),
    )
}

/// Clones the star database with an extra all-zero `__sigma` fact column
/// (replaced in place each training iteration).
fn with_sigma_column(db: &StarDb) -> StarDb {
    let mut attrs = db.fact.attrs.clone();
    assert!(
        !attrs.iter().any(|a| a.as_str() == SIGMA_COL),
        "fact table already has a `{SIGMA_COL}` column"
    );
    attrs.push(Sym::new(SIGMA_COL));
    let mut columns = db.fact.columns.clone();
    columns.push(Column::F64(vec![0.0; db.fact.len()]));
    StarDb::new(
        ColRelation::new(db.fact.name.clone(), attrs, columns),
        db.dims.clone(),
    )
}

/// The IFAQ end-to-end path: per-iteration factorized gradient passes,
/// never materializing the join, with every data pass — the one-time
/// covar pass, the per-iteration score pass, and the per-iteration
/// gradient batch — sharded per `cfg`, composing with the deterministic
/// chunk model of [`ifaq_engine::par`]. The gradient batch runs through
/// [`layout::execute_with`] under `layout_choice`, so logistic training
/// exercises the same physical ladder as the covar workloads. One-shot
/// wrapper over [`FactorizedTrainer`], which exposes the prepare/fit
/// split for timing and reuse.
#[allow(clippy::too_many_arguments)]
pub fn fit_factorized_cfg(
    db: &StarDb,
    features: &[&str],
    label: &str,
    layout_choice: Layout,
    learning_rate: f64,
    iterations: usize,
    cfg: &ExecConfig,
) -> LogisticModel {
    FactorizedTrainer::new(db, features, label, layout_choice, cfg).fit(learning_rate, iterations)
}

/// The cross-batch CSE fact the trainer's hoisting rests on: for each
/// invariant gradient-side aggregate — `Σ y`, then `Σ y·f` per feature —
/// the index of the canonically equal aggregate already computed by
/// [`covar_batch`]`(features, label)`. The covar pass computes the whole
/// `Σ y·x` side (as the `m_{label}` and `m_{f}_{label}` moments), so
/// every entry is `Some` and [`FactorizedTrainer`] reads the side from
/// [`Moments::xty`] instead of re-executing it each iteration —
/// eliminated via [`ifaq_query::analysis::cross_batch_overlap`], not by
/// naming convention.
pub fn invariant_overlap(features: &[&str], label: &str) -> Vec<Option<usize>> {
    let mut needed = AggBatch::new().with(AggSpec::new("y", &[label]));
    for f in features {
        needed = needed.with(AggSpec::new(format!("y_{f}"), &[label, f]));
    }
    analysis::cross_batch_overlap(&needed, &covar_batch(features, label))
}

/// Proves the cross-batch CSE before a trainer leans on it: every
/// invariant aggregate must be covered by the covar pass.
fn assert_invariant_side_covered(features: &[&str], label: &str) {
    assert!(
        invariant_overlap(features, label)
            .iter()
            .all(Option::is_some),
        "covar batch does not cover the invariant `Σ y·x` gradient side"
    );
}

/// The θ-free descent state both logistic trainers share — resident
/// ([`FactorizedTrainer`]) and streamed ([`fit_streamed`]) differ only in
/// the data driver of each iteration's gradient pass.
struct Descent {
    features: Vec<String>,
    stdz: Standardizer,
    /// Standardized invariant gradient side: `B_0 = Σy`, `B_j = Σy·x'_j`.
    b: Vec<f64>,
    n: f64,
    /// The per-iteration gradient batch planned over the `__sigma` schema.
    plan: ViewPlan,
    g0: usize,
    gi: Vec<usize>,
}

impl Descent {
    /// Takes standardization and the invariant `Σy·x` side from `moments`
    /// and plans the gradient batch over `aug` (the `__sigma`-augmented
    /// schema) once: its shape does not depend on θ (θ only enters
    /// through `__sigma`).
    fn new(moments: &Moments, features: &[&str], aug: &StarDb) -> Descent {
        assert!(
            moments
                .features
                .iter()
                .map(String::as_str)
                .eq(features.iter().copied()),
            "moments were computed for features {:?} but the trainer wants {:?}",
            moments.features,
            features
        );
        let d = features.len() + 1;
        let stdz = Standardizer::from_moments(moments);
        let mut b = vec![0.0; d];
        b[0] = moments.xty[0];
        for (j, bj) in b.iter_mut().enumerate().skip(1) {
            *bj = (moments.xty[j] - stdz.mean[j] * moments.xty[0]) / stdz.std[j];
        }
        let cat = aug.catalog();
        let tree = aug.join_tree(&cat).expect("join tree");
        let batch = logistic_gradient_batch(features, SIGMA_COL);
        let plan = ViewPlan::plan(&batch, &tree, &cat).expect("view plan");
        let g0 = batch.index_of("g_sigma").expect("g_sigma");
        let gi: Vec<usize> = features
            .iter()
            .map(|f| batch.index_of(&format!("g_sigma_{f}")).expect("g_sigma_f"))
            .collect();
        Descent {
            features: features.iter().map(|s| s.to_string()).collect(),
            stdz,
            b,
            n: moments.count.max(1.0),
            plan,
            g0,
            gi,
        }
    }

    /// Gradient descent from `theta`: per iteration, `pass(bias, w)` runs
    /// the gradient batch with `__sigma` scored under the raw-space
    /// weights of the current standardized θ.
    fn run<E>(
        &self,
        mut theta: Vec<f64>,
        learning_rate: f64,
        iterations: usize,
        mut pass: impl FnMut(f64, &[f64]) -> Result<Vec<f64>, E>,
    ) -> Result<LogisticModel, E> {
        for _ in 0..iterations {
            let (bias, w) = self.stdz.to_raw(&theta);
            let g = pass(bias, &w)?;
            let s0 = g[self.g0];
            theta[0] -= learning_rate / self.n * (s0 - self.b[0]);
            for j in 1..theta.len() {
                let aj = (g[self.gi[j - 1]] - self.stdz.mean[j] * s0) / self.stdz.std[j];
                theta[j] -= learning_rate / self.n * (aj - self.b[j]);
            }
        }
        let (intercept, weights) = self.stdz.to_raw(&theta);
        Ok(LogisticModel {
            features: self.features.clone(),
            intercept,
            weights,
        })
    }
}

/// The factorized logistic trainer with its θ-free state hoisted:
/// [`FactorizedTrainer::new`] runs the one-time covar pass and builds —
/// exactly once per training run — the gradient-batch view plan, the
/// layout's [`layout::Prepared`] (merged/dense views, trie, sorted
/// order, …), and the score pass's index join ([`ScorePrep`]). Each
/// [`FactorizedTrainer::fit`] iteration is then reduced to the `__sigma`
/// score pass plus the aggregate scan over the cached state (safe
/// because the prepared state never captures fact values — only the
/// `__sigma` column changes between iterations, and executors read it
/// live). `fit` may be called repeatedly; every call starts from θ = 0
/// and reuses the same preparation, bit-identically.
pub struct FactorizedTrainer {
    descent: Descent,
    layout: Layout,
    cfg: ExecConfig,
    /// The input star database plus the derived `__sigma` fact column.
    aug: StarDb,
    prep: layout::Prepared,
    score_prep: ScorePrep,
}

impl FactorizedTrainer {
    /// Runs the loop-invariant passes (§4.1 hoisting): covar moments for
    /// standardization and the `Σy·x` side, then plans and prepares the
    /// per-iteration gradient batch — the only [`layout::prepare`] call
    /// the training loop will ever need.
    pub fn new(
        db: &StarDb,
        features: &[&str],
        label: &str,
        layout_choice: Layout,
        cfg: &ExecConfig,
    ) -> FactorizedTrainer {
        assert_invariant_side_covered(features, label);
        let moments = moments_factorized_cfg(db, features, label, layout_choice, cfg);
        FactorizedTrainer::with_moments(db, features, layout_choice, cfg, &moments)
    }

    /// [`FactorizedTrainer::new`] with the covar pass skipped: the
    /// standardization statistics and the invariant `Σy·x` gradient side
    /// are taken from `moments` instead of being recomputed from `db`.
    /// This is the serving path's refit entry point — a resident engine
    /// maintains the moments incrementally under deltas, so a logistic
    /// refit only pays for the per-iteration passes, never a fresh covar
    /// scan. `moments.features` must match `features` in order.
    pub fn with_moments(
        db: &StarDb,
        features: &[&str],
        layout_choice: Layout,
        cfg: &ExecConfig,
        moments: &Moments,
    ) -> FactorizedTrainer {
        let aug = with_sigma_column(db);
        let descent = Descent::new(moments, features, &aug);
        let prep = layout::prepare(layout_choice, &descent.plan, &aug);
        // The fact-row → dim-row resolution is θ-free: hoist it too.
        let score_prep = prepare_scores(&aug, features);
        FactorizedTrainer {
            descent,
            layout: layout_choice,
            cfg: *cfg,
            aug,
            prep,
            score_prep,
        }
    }

    /// The layout the trainer's state was prepared for.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// The gradient batch's prepared state.
    pub fn prepared(&self) -> &layout::Prepared {
        &self.prep
    }

    /// Trains from θ = 0 over the prepared state: per iteration, one
    /// sharded score pass rewriting `__sigma` and one aggregate scan.
    pub fn fit(&mut self, learning_rate: f64, iterations: usize) -> LogisticModel {
        let theta = vec![0.0; self.descent.features.len() + 1];
        self.fit_from(theta, learning_rate, iterations)
    }

    /// Warm-started training: resumes gradient descent from an existing
    /// raw-space model instead of θ = 0. The serving path uses this after
    /// a delta — the pre-delta model is usually close to the new optimum,
    /// so far fewer iterations reach the same loss. The start model's
    /// parameters are lifted into the trainer's *current* standardized
    /// space (the inverse of the standardizer's raw-space mapping); its feature list must
    /// match the trainer's.
    pub fn fit_warm(
        &mut self,
        start: &LogisticModel,
        learning_rate: f64,
        iterations: usize,
    ) -> LogisticModel {
        assert_eq!(
            start.features, self.descent.features,
            "warm-start model was trained on different features"
        );
        let theta = self
            .descent
            .stdz
            .to_standardized(start.intercept, &start.weights);
        self.fit_from(theta, learning_rate, iterations)
    }

    /// The resident data driver behind [`FactorizedTrainer::fit`] and
    /// [`FactorizedTrainer::fit_warm`]: each gradient pass rewrites the
    /// `__sigma` column in place, then scans the prepared layout.
    fn fit_from(
        &mut self,
        theta: Vec<f64>,
        learning_rate: f64,
        iterations: usize,
    ) -> LogisticModel {
        let FactorizedTrainer {
            descent,
            layout,
            cfg,
            aug,
            prep,
            score_prep,
        } = self;
        let features: Vec<&str> = descent.features.iter().map(String::as_str).collect();
        let pass = |bias: f64, w: &[f64]| {
            let scores = fact_scores_prepared(aug, &features, w, bias, score_prep, cfg);
            let sigma_col = aug.fact.columns.last_mut().expect("sigma column");
            *sigma_col = Column::F64(scores.into_iter().map(stable_sigmoid).collect());
            // σ-side aggregates through the chosen physical layout.
            Ok::<_, Infallible>(layout::execute_with(*layout, &descent.plan, aug, prep, cfg))
        };
        let Ok(model) = descent.run(theta, learning_rate, iterations, pass);
        model
    }
}

/// The out-of-core logistic path: the same descent as
/// [`fit_factorized_cfg`], with every data pass streaming the fact table
/// of an on-disk `IFAQTBL1` star export instead of scanning resident
/// columns. Dimensions stay in memory (the score pass needs their key
/// indexes and weighted payload sums anyway); the per-iteration `__sigma`
/// column is computed chunk by chunk inside the stream — each chunk's
/// keys resolved through key indexes built once per fit, scored by the
/// resident path's kernel, and the sigmoid column appended before the
/// gradient executors see it — so neither the scores nor the fact table
/// ever materialize in full. For any fixed `cfg.chunk_rows` the per-row
/// scores, the gradient batch results, and hence the trained model are
/// bit-identical to the in-memory [`fit_factorized_cfg`] at any thread
/// count.
#[allow(clippy::too_many_arguments)]
pub fn fit_streamed(
    src: &StreamSource,
    features: &[&str],
    label: &str,
    layout_choice: Layout,
    learning_rate: f64,
    iterations: usize,
    cfg: &ExecConfig,
) -> Result<LogisticModel, ExportError> {
    assert_invariant_side_covered(features, label);
    let moments = moments_streamed(src, features, label, layout_choice, cfg)?;
    // The prepared state is θ-free and dimension-only, so it streams.
    let aug = with_sigma_column(src.schema_db());
    let descent = Descent::new(&moments, features, &aug);
    let sprep = prepare_streaming(layout_choice, &descent.plan, &aug, src.fact_rows());
    let featured = featured_dims(&aug, features);
    let key_indexes: Vec<HashMap<i64, usize>> = featured
        .iter()
        .map(|&di| aug.dims[di].key_index())
        .collect();
    let virtual_cols = [Sym::new(SIGMA_COL)];
    let theta = vec![0.0; features.len() + 1];
    descent.run(theta, learning_rate, iterations, |bias, w| {
        let sw = ScoreWeights::new(&aug, &featured, features, w, bias);
        let mut score_chunk = |_start: usize, rel: ColRelation| -> ColRelation {
            let rows: Vec<Vec<u32>> = featured
                .iter()
                .zip(&key_indexes)
                .map(|(&di, index)| resolve_keys(&aug, di, index, &rel))
                .collect();
            let scores = sw.score(&rows, &sw.fact_cols(&rel), 0..rel.len());
            let mut attrs = rel.attrs.clone();
            attrs.push(virtual_cols[0].clone());
            let mut cols = rel.columns;
            cols.push(Column::F64(
                scores.into_iter().map(stable_sigmoid).collect(),
            ));
            ColRelation::new(rel.name.clone(), attrs, cols)
        };
        execute_streaming_map(
            &descent.plan,
            src,
            &sprep,
            cfg,
            &virtual_cols,
            &mut score_chunk,
        )
        .map(|(g, _stats)| g)
    })
}

/// The exact semantics of
/// `ifaq_transform::highlevel::logistic_regression_program`: raw-space
/// (no standardization, no intercept) updates
/// `θ_f ← θ_f − α·Σ_x Q(x)·(σ(Σ_{f'} θ_{f'}·x_{f'}) − y)·x_f`
/// by re-scanning the materialized matrix every iteration. Returns the
/// per-feature θ vector; used to differentially test the D-IFAQ
/// interpreter on the optimized logistic program.
pub fn fit_program_mirror(
    m: &TrainMatrix,
    features: &[&str],
    label: &str,
    alpha: f64,
    iterations: usize,
) -> Vec<f64> {
    let cols: Vec<usize> = features
        .iter()
        .map(|f| m.col(f).expect("feature column"))
        .collect();
    let label_col = m.col(label).expect("label column");
    let mut theta = vec![0.0; features.len()];
    for _ in 0..iterations {
        let mut grad = vec![0.0; features.len()];
        for r in 0..m.rows {
            let row = m.row(r);
            let s: f64 = theta.iter().zip(&cols).map(|(t, &c)| t * row[c]).sum();
            let err = stable_sigmoid(s) - row[label_col];
            for (g, &c) in grad.iter_mut().zip(&cols) {
                *g += err * row[c];
            }
        }
        for (t, g) in theta.iter_mut().zip(&grad) {
            *t -= alpha * g;
        }
    }
    theta
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifaq_engine::star::running_example_star;

    /// A linearly separable-ish binary problem: y = 1 iff 2a - b > 4.5.
    fn binary_matrix() -> TrainMatrix {
        let mut data = Vec::new();
        let mut rows = 0;
        for a in 0..10 {
            for b in 0..10 {
                let (a, b) = (a as f64, b as f64);
                let y = if 2.0 * a - b > 4.5 { 1.0 } else { 0.0 };
                data.extend([a, b, y]);
                rows += 1;
            }
        }
        TrainMatrix {
            attrs: vec!["a".into(), "b".into(), "y".into()],
            rows,
            data,
        }
    }

    /// The running-example star with `units` binarized at its median (5).
    fn binary_star() -> StarDb {
        let mut db = running_example_star();
        let units: Vec<f64> = (0..db.fact.len())
            .map(|i| db.fact.column("units").unwrap().get_f64(i))
            .collect();
        let bin: Vec<f64> = units
            .iter()
            .map(|&u| if u > 5.0 { 1.0 } else { 0.0 })
            .collect();
        let mut attrs = db.fact.attrs.clone();
        attrs.push(Sym::new("hot"));
        let mut cols = db.fact.columns.clone();
        cols.push(Column::F64(bin));
        db.fact = ColRelation::new("S", attrs, cols);
        db
    }

    #[test]
    fn log1p_exp_is_stable_and_correct() {
        assert_eq!(log1p_exp(1000.0), 1000.0);
        assert_eq!(log1p_exp(-1000.0), 0.0);
        assert!((log1p_exp(0.0) - 2f64.ln()).abs() < 1e-15);
        for x in [-30.0f64, -2.0, -0.1, 0.1, 2.0, 30.0] {
            let naive = (1.0 + x.exp()).ln();
            assert!((log1p_exp(x) - naive).abs() < 1e-12, "x = {x}");
        }
    }

    #[test]
    fn materialized_fit_separates_the_classes() {
        let m = binary_matrix();
        let model = fit_materialized(&m, &["a", "b"], "y", 1.0, 500);
        let correct = (0..m.rows)
            .filter(|&i| model.predict_row(&m, i) == m.row(i)[2])
            .count();
        assert!(correct >= 95, "only {correct}/100 correct: {model:?}");
        // Direction: more a ⇒ more likely 1, more b ⇒ less likely.
        assert!(model.weights[0] > 0.0 && model.weights[1] < 0.0);
        // Loss is finite and better than the coin-flip loss ln 2.
        let loss = model.mean_log_loss(&m, "y");
        assert!(loss.is_finite() && loss < 2f64.ln(), "loss {loss}");
    }

    #[test]
    fn extreme_scores_keep_loss_finite() {
        // Weights so large the scores hit ±1e3; the stable σ / softplus
        // forms must return exact 0/1 probabilities and finite loss.
        let m = binary_matrix();
        let model = LogisticModel {
            features: vec!["a".into(), "b".into()],
            intercept: -500.0,
            weights: vec![300.0, -300.0],
        };
        for i in 0..m.rows {
            let p = model.predict_proba_row(&m, i);
            assert!((0.0..=1.0).contains(&p), "p = {p}");
        }
        assert!(model.mean_log_loss(&m, "y").is_finite());
    }

    #[test]
    fn factorized_matches_materialized_on_running_example() {
        let db = binary_star();
        let m = db.materialize();
        let features = ["city", "price"];
        let reference = fit_materialized(&m, &features, "hot", 0.5, 200);
        for &layout_choice in Layout::all() {
            let cfg = ExecConfig::global();
            let got = fit_factorized_cfg(&db, &features, "hot", layout_choice, 0.5, 200, cfg);
            assert!(
                (got.intercept - reference.intercept).abs() < 1e-9,
                "{layout_choice}: {got:?} vs {reference:?}"
            );
            for (a, b) in got.weights.iter().zip(&reference.weights) {
                assert!((a - b).abs() < 1e-9, "{layout_choice}");
            }
        }
    }

    #[test]
    fn factorized_is_thread_count_invariant() {
        let db = binary_star();
        let features = ["city", "price"];
        let chunked = |threads: usize| {
            fit_factorized_cfg(
                &db,
                &features,
                "hot",
                Layout::MergedHash,
                0.5,
                50,
                &ExecConfig::with_threads(threads).with_chunk_rows(2),
            )
        };
        let base = chunked(1);
        for threads in [2, 4] {
            assert_eq!(chunked(threads), base, "{threads} threads");
        }
    }

    #[test]
    fn trainer_refit_over_cached_prep_matches_fresh() {
        // A trainer's θ-free state is built once; refitting over it must
        // reproduce a fresh one-shot fit bit for bit, at every layout.
        let db = binary_star();
        let features = ["city", "price"];
        let cfg = ExecConfig::serial();
        for &layout_choice in Layout::all() {
            let mut trainer = FactorizedTrainer::new(&db, &features, "hot", layout_choice, &cfg);
            assert_eq!(trainer.layout(), layout_choice);
            let first = trainer.fit(0.5, 100);
            let again = trainer.fit(0.5, 100);
            assert_eq!(first, again, "{layout_choice}: refit drifted");
            let fresh = fit_factorized_cfg(&db, &features, "hot", layout_choice, 0.5, 100, &cfg);
            assert_eq!(first, fresh, "{layout_choice}: cached prep != fresh");
        }
    }

    #[test]
    fn fact_scores_factorize_the_linear_score() {
        let db = running_example_star();
        let m = db.materialize();
        let features = ["city", "price", "units"];
        let weights = [0.25, -1.5, 0.125];
        let bias = 0.5;
        let prep = prepare_scores(&db, &features);
        let scores =
            fact_scores_prepared(&db, &features, &weights, bias, &prep, &ExecConfig::serial());
        assert_eq!(scores.len(), db.fact.len());
        for (i, score) in scores.iter().enumerate().take(m.rows) {
            let row = m.row(i);
            let want: f64 = bias
                + weights
                    .iter()
                    .zip(&features)
                    .map(|(w, f)| w * row[m.col(f).unwrap()])
                    .sum::<f64>();
            assert!((score - want).abs() < 1e-12, "row {i}");
        }
    }

    #[test]
    fn fact_scores_zero_on_dangling_keys() {
        let mut db = running_example_star();
        db.fact = ColRelation::new(
            "S",
            db.fact.attrs.clone(),
            vec![
                Column::I64(vec![1, 99]),
                Column::I64(vec![1, 1]),
                Column::F64(vec![10.0, 4.0]),
            ],
        );
        let prep = prepare_scores(&db, &["price"]);
        let scores =
            fact_scores_prepared(&db, &["price"], &[2.0], 1.0, &prep, &ExecConfig::serial());
        assert_eq!(scores, vec![1.0 + 2.0 * 1.5, 0.0]);
    }

    #[test]
    fn program_mirror_moves_parameters_sensibly() {
        let m = binary_matrix();
        let theta = fit_program_mirror(&m, &["a", "b"], "y", 0.001, 50);
        assert_eq!(theta.len(), 2);
        assert!(theta.iter().all(|t| t.is_finite()));
        assert!(theta[0] > theta[1], "a should outweigh b: {theta:?}");
    }

    #[test]
    fn vector_score_and_proba_match_row_paths() {
        let model = LogisticModel {
            features: vec!["a".into(), "b".into()],
            intercept: 0.5,
            weights: vec![2.0, -1.0],
        };
        let x = [3.0, 4.0];
        assert_eq!(model.score(&x), 0.5 + 2.0 * 3.0 - 4.0);
        assert_eq!(model.predict_proba(&x), stable_sigmoid(model.score(&x)));
        let m = binary_matrix();
        for i in [0, 17, 99] {
            let row = m.row(i);
            assert_eq!(model.score(&row[..2]), model.score_row(&m, i), "row {i}");
        }
    }

    #[test]
    #[should_panic(expected = "feature vector has 3 values but the model has 2 features")]
    fn vector_score_rejects_wrong_arity() {
        let model = LogisticModel {
            features: vec!["a".into(), "b".into()],
            intercept: 0.0,
            weights: vec![1.0, 1.0],
        };
        model.score(&[1.0, 2.0, 3.0]);
    }

    #[test]
    fn with_moments_matches_fresh_trainer() {
        // A trainer seeded from externally supplied moments must be
        // indistinguishable from one that ran the covar pass itself —
        // this is what lets a resident engine refit from maintained
        // totals without rescanning the fact table.
        let db = binary_star();
        let features = ["city", "price"];
        let cfg = ExecConfig::serial();
        let moments = moments_factorized_cfg(&db, &features, "hot", Layout::MergedHash, &cfg);
        let fresh =
            FactorizedTrainer::new(&db, &features, "hot", Layout::MergedHash, &cfg).fit(0.5, 100);
        let seeded =
            FactorizedTrainer::with_moments(&db, &features, Layout::MergedHash, &cfg, &moments)
                .fit(0.5, 100);
        assert_eq!(fresh, seeded);
    }

    #[test]
    #[should_panic(expected = "moments were computed for features")]
    fn with_moments_rejects_mismatched_feature_order() {
        let db = binary_star();
        let cfg = ExecConfig::serial();
        let moments =
            moments_factorized_cfg(&db, &["city", "price"], "hot", Layout::Materialized, &cfg);
        FactorizedTrainer::with_moments(
            &db,
            &["price", "city"],
            Layout::Materialized,
            &cfg,
            &moments,
        );
    }

    #[test]
    fn warm_start_from_zero_model_equals_cold_fit() {
        // A warm start from the all-zero raw model is the same θ = 0
        // starting point fit uses, so the runs must agree bitwise.
        let db = binary_star();
        let features = ["city", "price"];
        let cfg = ExecConfig::serial();
        let mut trainer = FactorizedTrainer::new(&db, &features, "hot", Layout::MergedHash, &cfg);
        let zero = LogisticModel {
            features: vec!["city".into(), "price".into()],
            intercept: 0.0,
            weights: vec![0.0, 0.0],
        };
        let cold = trainer.fit(0.5, 80);
        let warm = trainer.fit_warm(&zero, 0.5, 80);
        assert_eq!(cold, warm);
    }

    #[test]
    fn warm_continuation_approximates_one_long_run() {
        // 100 iterations, vs 60 then warm-resume for 40 more: the only
        // difference is a raw↔standardized θ round-trip at the split, so
        // the results agree to fp round-off, not exactly.
        let db = binary_star();
        let features = ["city", "price"];
        let cfg = ExecConfig::serial();
        let mut trainer = FactorizedTrainer::new(&db, &features, "hot", Layout::MergedHash, &cfg);
        let long = trainer.fit(0.5, 100);
        let part = trainer.fit(0.5, 60);
        let resumed = trainer.fit_warm(&part, 0.5, 40);
        assert!(
            (resumed.intercept - long.intercept).abs() <= 1e-9 * long.intercept.abs().max(1.0),
            "intercept {} vs {}",
            resumed.intercept,
            long.intercept
        );
        for (a, b) in resumed.weights.iter().zip(&long.weights) {
            assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn standardizer_round_trip_is_close() {
        let stdz = Standardizer {
            mean: vec![0.0, 3.5, -1.25],
            std: vec![1.0, 2.0, 0.5],
        };
        let theta = vec![0.75, -2.0, 1.5];
        let (b, w) = stdz.to_raw(&theta);
        let back = stdz.to_standardized(b, &w);
        for (a, t) in back.iter().zip(&theta) {
            assert!((a - t).abs() < 1e-12, "{a} vs {t}");
        }
    }

    #[test]
    fn invariant_side_overlaps_the_covar_batch() {
        // Positive: `Σ y` and every `Σ y·f` land on a covar moment.
        let features = ["city", "price"];
        let covar = covar_batch(&features, "hot");
        let overlap = invariant_overlap(&features, "hot");
        assert_eq!(overlap.len(), 3);
        let names: Vec<&str> = overlap
            .iter()
            .map(|i| covar.aggs[i.expect("covered")].name.as_str())
            .collect();
        assert_eq!(names, ["m_hot", "m_city_hot", "m_price_hot"]);
        // Negative: an aggregate over a column the covar pass never saw
        // has no home, and cross_batch_overlap says so instead of
        // silently mapping it somewhere.
        let needed = AggBatch::new().with(AggSpec::new("y_units", &["hot", "units"]));
        let missed = analysis::cross_batch_overlap(&needed, &covar);
        assert_eq!(missed, vec![None]);
    }

    /// The pre-CSE pipeline: the same descent as [`FactorizedTrainer`],
    /// but the invariant `Σ y·x` side is appended to the per-iteration
    /// gradient batch and re-executed every iteration instead of being
    /// hoisted out of the loop via the covar-batch overlap.
    fn fit_pre_cse(
        db: &StarDb,
        features: &[&str],
        label: &str,
        layout_choice: Layout,
        learning_rate: f64,
        iterations: usize,
        cfg: &ExecConfig,
    ) -> LogisticModel {
        let moments = moments_factorized_cfg(db, features, label, layout_choice, cfg);
        let stdz = Standardizer::from_moments(&moments);
        let n = moments.count.max(1.0);
        let d = features.len() + 1;
        let mut aug = with_sigma_column(db);
        let cat = aug.catalog();
        let tree = aug.join_tree(&cat).expect("join tree");
        let mut batch =
            logistic_gradient_batch(features, SIGMA_COL).with(AggSpec::new("y", &[label]));
        for f in features {
            batch = batch.with(AggSpec::new(format!("y_{f}"), &[label, f]));
        }
        let plan = ViewPlan::plan(&batch, &tree, &cat).expect("view plan");
        let prep = layout::prepare(layout_choice, &plan, &aug);
        let g0 = batch.index_of("g_sigma").unwrap();
        let gi: Vec<usize> = features
            .iter()
            .map(|f| batch.index_of(&format!("g_sigma_{f}")).unwrap())
            .collect();
        let y0 = batch.index_of("y").unwrap();
        let yi: Vec<usize> = features
            .iter()
            .map(|f| batch.index_of(&format!("y_{f}")).unwrap())
            .collect();
        let score_prep = prepare_scores(&aug, features);
        let mut theta = vec![0.0; d];
        for _ in 0..iterations {
            let (bias, w) = stdz.to_raw(&theta);
            let scores = fact_scores_prepared(&aug, features, &w, bias, &score_prep, cfg);
            let sigma_col = aug.fact.columns.last_mut().expect("sigma column");
            *sigma_col = Column::F64(scores.into_iter().map(stable_sigmoid).collect());
            let g = layout::execute_with(layout_choice, &plan, &aug, &prep, cfg);
            let s0 = g[g0];
            let b0 = g[y0];
            theta[0] -= learning_rate / n * (s0 - b0);
            for j in 1..d {
                let aj = (g[gi[j - 1]] - stdz.mean[j] * s0) / stdz.std[j];
                let bj = (g[yi[j - 1]] - stdz.mean[j] * b0) / stdz.std[j];
                theta[j] -= learning_rate / n * (aj - bj);
            }
        }
        let (intercept, weights) = stdz.to_raw(&theta);
        LogisticModel {
            features: features.iter().map(|s| s.to_string()).collect(),
            intercept,
            weights,
        }
    }

    #[test]
    fn overlap_elimination_matches_per_iteration_recomputation() {
        // The CSE gate: the production trainer (invariant side hoisted
        // from the covar pass through the cross-batch overlap) against
        // the pre-CSE pipeline that re-executes `Σ y` and `Σ y·f` inside
        // every iteration's batch. Same descent, so the models must
        // agree within 1e-6.
        let db = binary_star();
        let features = ["city", "price"];
        let cfg = ExecConfig::serial();
        for &layout_choice in Layout::all() {
            let post = fit_factorized_cfg(&db, &features, "hot", layout_choice, 0.5, 120, &cfg);
            let pre = fit_pre_cse(&db, &features, "hot", layout_choice, 0.5, 120, &cfg);
            assert!(
                (post.intercept - pre.intercept).abs() <= 1e-6 * pre.intercept.abs().max(1.0),
                "{layout_choice}: intercept {} vs {}",
                post.intercept,
                pre.intercept
            );
            for (a, b) in post.weights.iter().zip(&pre.weights) {
                assert!(
                    (a - b).abs() <= 1e-6 * b.abs().max(1.0),
                    "{layout_choice}: weight {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn sigma_column_name_is_reserved() {
        let db = binary_star();
        let aug = with_sigma_column(&db);
        assert_eq!(aug.fact.attrs.last().unwrap().as_str(), SIGMA_COL);
        assert_eq!(aug.fact.len(), db.fact.len());
    }
}
