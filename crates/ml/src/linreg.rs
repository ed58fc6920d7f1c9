//! Linear regression via batch gradient descent over the covar matrix.
//!
//! The §3 D-IFAQ program, after the §4.1 optimizations, iterates over the
//! *moments* of the training data only: the Gram matrix `XᵀX` (with an
//! intercept column), the vector `XᵀY`, and the row count — exactly the
//! covar aggregate batch of [`ifaq_query::batch::covar_batch`]. This
//! module assembles those moments (from any engine layout, or from a
//! materialized matrix for baselines), standardizes them, and runs BGD or
//! solves the normal equations in closed form.
//!
//! The factorized moment pass goes through [`ifaq_engine::layout`] (and
//! [`ifaq_engine::stream`] for [`moments_streamed`]), which since the
//! executor-tree refactor build and run an [`ifaq_engine::exec`] plan
//! tree per layout — the numeric path is unchanged, so cached-prepare
//! refits stay bit-identical to fresh fits.

use crate::logreg::Standardizer;
use ifaq_engine::star::{StarDb, TrainMatrix};
use ifaq_engine::stream::{execute_streaming, prepare_streaming, StreamSource};
use ifaq_engine::{layout, ExecConfig, Layout};
use ifaq_query::batch::covar_batch;
use ifaq_query::ViewPlan;
use ifaq_storage::stream::ExportError;

/// A trained linear model: `predict(x) = intercept + Σ weights[i]·x[fi]`.
#[derive(Clone, Debug, PartialEq)]
pub struct LinearModel {
    /// Feature names, in weight order.
    pub features: Vec<String>,
    /// Intercept term.
    pub intercept: f64,
    /// Per-feature weights.
    pub weights: Vec<f64>,
}

impl LinearModel {
    /// Predicts the label for a feature vector given in the model's
    /// feature order — the serving-path entry point, with no matrix or
    /// column lookup in sight.
    ///
    /// # Panics
    ///
    /// If `x.len()` differs from the number of features.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(
            x.len(),
            self.weights.len(),
            "feature vector has {} values but the model has {} features",
            x.len(),
            self.weights.len()
        );
        self.intercept + self.weights.iter().zip(x).map(|(w, v)| w * v).sum::<f64>()
    }

    /// Predicts the label for a row of a matrix whose columns include the
    /// model's features.
    pub fn predict_row(&self, m: &TrainMatrix, i: usize) -> f64 {
        let row = m.row(i);
        let mut y = self.intercept;
        for (w, f) in self.weights.iter().zip(&self.features) {
            y += w * row[m.col(f).expect("feature column")];
        }
        y
    }
}

/// The sufficient statistics of least squares: the `(d+1)×(d+1)` Gram
/// matrix over `[1, f1..fd]`, the `XᵀY` vector, and the row count.
#[derive(Clone, Debug, PartialEq)]
pub struct Moments {
    /// Feature names (without the intercept).
    pub features: Vec<String>,
    /// Row-major `(d+1)²` Gram matrix; index 0 is the intercept column.
    pub gram: Vec<f64>,
    /// `(d+1)`-vector `XᵀY`.
    pub xty: Vec<f64>,
    /// Number of training rows.
    pub count: f64,
}

impl Moments {
    fn dim(&self) -> usize {
        self.features.len() + 1
    }

    fn g(&self, i: usize, j: usize) -> f64 {
        self.gram[i * self.dim() + j]
    }

    fn assert_same_shape(&self, other: &Moments, op: &str) {
        assert_eq!(
            self.features, other.features,
            "cannot {op} moments over different feature sets"
        );
    }

    /// Adds another moment set's contribution in place — the moment-space
    /// half of incremental maintenance: every entry of the Gram matrix,
    /// `XᵀY`, and the count is a sum over training rows, so the moments
    /// of `fact ∪ Δ` are the moments of `fact` plus the moments of `Δ`.
    /// After absorbing a delta this way, [`fit_bgd`] / [`fit_closed_form`]
    /// re-fit in `O(d²·iters)` — microseconds, data-size independent.
    ///
    /// # Panics
    ///
    /// If the feature lists differ (the moments describe different
    /// design matrices and adding them entry-wise would be meaningless).
    pub fn add_assign(&mut self, delta: &Moments) {
        self.assert_same_shape(delta, "add");
        for (a, d) in self.gram.iter_mut().zip(&delta.gram) {
            *a += d;
        }
        for (a, d) in self.xty.iter_mut().zip(&delta.xty) {
            *a += d;
        }
        self.count += delta.count;
    }

    /// Subtracts another moment set's contribution in place — the delete
    /// half of [`Moments::add_assign`]'s additivity.
    ///
    /// # Panics
    ///
    /// If the feature lists differ.
    pub fn sub_assign(&mut self, delta: &Moments) {
        self.assert_same_shape(delta, "subtract");
        for (a, d) in self.gram.iter_mut().zip(&delta.gram) {
            *a -= d;
        }
        for (a, d) in self.xty.iter_mut().zip(&delta.xty) {
            *a -= d;
        }
        self.count -= delta.count;
    }
}

/// Assembles [`Moments`] from covar-batch results (as produced by any
/// `ifaq-engine` executor for [`covar_batch`]'s aggregate order).
pub fn moments_from_batch(features: &[&str], label: &str, results: &[f64]) -> Moments {
    let batch = covar_batch(features, label);
    let get = |name: &str| -> f64 {
        results[batch
            .index_of(name)
            .unwrap_or_else(|| panic!("aggregate {name}"))]
    };
    let d = features.len() + 1;
    let mut gram = vec![0.0; d * d];
    let count = get("count");
    let first = |a: &str| get(&format!("m_{a}"));
    let second = |a: &str, b: &str| {
        let (x, y) = if batch.index_of(&format!("m_{a}_{b}")).is_some() {
            (a, b)
        } else {
            (b, a)
        };
        get(&format!("m_{x}_{y}"))
    };
    gram[0] = count;
    for (i, fi) in features.iter().enumerate() {
        gram[i + 1] = first(fi);
        gram[(i + 1) * d] = first(fi);
        for (j, fj) in features.iter().enumerate() {
            gram[(i + 1) * d + (j + 1)] = second(fi, fj);
        }
    }
    let mut xty = vec![first(label)];
    for fi in features {
        xty.push(second(fi, label));
    }
    Moments {
        features: features.iter().map(|s| s.to_string()).collect(),
        gram,
        xty,
        count,
    }
}

/// Computes [`Moments`] directly over the input database through a chosen
/// engine layout — the IFAQ path: no join materialization, one pass over
/// each relation — with the batch scan sharded per `cfg` (one-shot: plans
/// and prepares internally; see [`prepare_moments`] to amortize that over
/// repeated passes).
pub fn moments_factorized_cfg(
    db: &StarDb,
    features: &[&str],
    label: &str,
    layout_choice: Layout,
    cfg: &ExecConfig,
) -> Moments {
    moments_factorized_prepared(
        db,
        &prepare_moments(db, features, label, layout_choice),
        cfg,
    )
}

/// θ-free prepared state for covar-moment passes: the planned covar
/// batch plus the layout's [`layout::Prepared`], built once and reused
/// by every [`moments_factorized_prepared`] call over the same database
/// (repeated fits, cross-validation folds, bench sweeps).
pub struct MomentsPrep {
    features: Vec<String>,
    label: String,
    layout: Layout,
    plan: ViewPlan,
    prep: layout::Prepared,
}

impl MomentsPrep {
    /// The layout the state was built for.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// The layout's prepared state.
    pub fn prepared(&self) -> &layout::Prepared {
        &self.prep
    }
}

/// The covar batch planned over `db`'s star join tree.
fn covar_plan(db: &StarDb, features: &[&str], label: &str) -> ViewPlan {
    let cat = db.catalog();
    let tree = db.join_tree(&cat).expect("join tree");
    ViewPlan::plan(&covar_batch(features, label), &tree, &cat).expect("view plan")
}

/// Plans the covar batch and builds `layout_choice`'s θ-free state.
pub fn prepare_moments(
    db: &StarDb,
    features: &[&str],
    label: &str,
    layout_choice: Layout,
) -> MomentsPrep {
    let plan = covar_plan(db, features, label);
    let prep = layout::prepare(layout_choice, &plan, db);
    MomentsPrep {
        features: features.iter().map(|s| s.to_string()).collect(),
        label: label.to_string(),
        layout: layout_choice,
        plan,
        prep,
    }
}

/// [`moments_factorized_cfg`] over prebuilt state: just the batch scan.
pub fn moments_factorized_prepared(db: &StarDb, mp: &MomentsPrep, cfg: &ExecConfig) -> Moments {
    let results = layout::execute_with(mp.layout, &mp.plan, db, &mp.prep, cfg);
    let features: Vec<&str> = mp.features.iter().map(|s| s.as_str()).collect();
    moments_from_batch(&features, &mp.label, &results)
}

/// Computes [`Moments`] by streaming the fact table of an on-disk
/// `IFAQTBL1` star export through `layout_choice`'s executor — the
/// out-of-core path. Dimensions stay resident; the fact table flows
/// through a bounded chunk buffer, so the peak footprint is
/// `cfg.chunk_rows` × projected columns × the reader-pool depth instead
/// of the full table. For any fixed `cfg.chunk_rows` the moments are
/// bit-identical to [`moments_factorized_cfg`] over the resident
/// database, so [`fit_streamed`] trains the *same* model.
pub fn moments_streamed(
    src: &StreamSource,
    features: &[&str],
    label: &str,
    layout_choice: Layout,
    cfg: &ExecConfig,
) -> Result<Moments, ExportError> {
    let plan = covar_plan(src.schema_db(), features, label);
    let prep = prepare_streaming(layout_choice, &plan, src.schema_db(), src.fact_rows());
    let (results, _stats) = execute_streaming(&plan, src, &prep, cfg)?;
    Ok(moments_from_batch(features, label, &results))
}

/// The out-of-core end-to-end path: streamed moments + BGD. Bit-identical
/// to [`fit_factorized_cfg`] at the same `cfg.chunk_rows` because the
/// moments are.
#[allow(clippy::too_many_arguments)]
pub fn fit_streamed(
    src: &StreamSource,
    features: &[&str],
    label: &str,
    layout_choice: Layout,
    learning_rate: f64,
    iterations: usize,
    cfg: &ExecConfig,
) -> Result<LinearModel, ExportError> {
    let moments = moments_streamed(src, features, label, layout_choice, cfg)?;
    Ok(fit_bgd(&moments, learning_rate, iterations))
}

/// Computes [`Moments`] from a materialized training matrix — the
/// conventional-pipeline path.
pub fn moments_from_matrix(m: &TrainMatrix, features: &[&str], label: &str) -> Moments {
    let d = features.len() + 1;
    let cols: Vec<usize> = features
        .iter()
        .map(|f| m.col(f).expect("feature column"))
        .collect();
    let label_col = m.col(label).expect("label column");
    let mut gram = vec![0.0; d * d];
    let mut xty = vec![0.0; d];
    for r in 0..m.rows {
        let row = m.row(r);
        let mut x = Vec::with_capacity(d);
        x.push(1.0);
        x.extend(cols.iter().map(|&c| row[c]));
        let y = row[label_col];
        for i in 0..d {
            xty[i] += x[i] * y;
            for j in 0..d {
                gram[i * d + j] += x[i] * x[j];
            }
        }
    }
    Moments {
        features: features.iter().map(|s| s.to_string()).collect(),
        gram,
        xty,
        count: m.rows as f64,
    }
}

/// Solves the normal equations `XᵀX·θ = XᵀY` by Gaussian elimination with
/// partial pivoting and a small ridge term for numerical safety — the
/// closed-form reference the paper compares RMSE against.
pub fn fit_closed_form(moments: &Moments) -> LinearModel {
    let d = moments.dim();
    let ridge = 1e-9 * (1.0 + moments.count);
    let mut a = moments.gram.clone();
    for i in 0..d {
        a[i * d + i] += ridge;
    }
    let mut b = moments.xty.clone();
    // Gaussian elimination with partial pivoting.
    for col in 0..d {
        let mut pivot = col;
        for r in col + 1..d {
            if a[r * d + col].abs() > a[pivot * d + col].abs() {
                pivot = r;
            }
        }
        if pivot != col {
            for c in 0..d {
                a.swap(col * d + c, pivot * d + c);
            }
            b.swap(col, pivot);
        }
        let p = a[col * d + col];
        if p.abs() < 1e-12 {
            continue; // singular direction; ridge keeps this rare
        }
        for r in col + 1..d {
            let factor = a[r * d + col] / p;
            if factor == 0.0 {
                continue;
            }
            for c in col..d {
                a[r * d + c] -= factor * a[col * d + c];
            }
            b[r] -= factor * b[col];
        }
    }
    let mut theta = vec![0.0; d];
    for col in (0..d).rev() {
        let mut v = b[col];
        for c in col + 1..d {
            v -= a[col * d + c] * theta[c];
        }
        let p = a[col * d + col];
        theta[col] = if p.abs() < 1e-12 { 0.0 } else { v / p };
    }
    LinearModel {
        features: moments.features.clone(),
        intercept: theta[0],
        weights: theta[1..].to_vec(),
    }
}

/// Batch gradient descent over the moments: each iteration costs `O(d²)`
/// regardless of the data size — the whole point of hoisting the covar
/// matrix out of the loop (§4.1). Features are standardized internally
/// (mean 0, variance 1, derived from the moments themselves) so a single
/// learning rate works across datasets.
pub fn fit_bgd(moments: &Moments, learning_rate: f64, iterations: usize) -> LinearModel {
    let d = moments.dim();
    let n = moments.count.max(1.0);
    // Standardization parameters from the moments.
    let stdz = Standardizer::from_moments(moments);
    // Standardized Gram and XᵀY: x'_i = (x_i - μ_i)/σ_i (x'_0 = 1, as
    // μ_0 = 0 and σ_0 = 1).
    // G'_{ij} = (G_{ij} - μ_i G_{0j} - μ_j G_{0i} + μ_i μ_j n)/(σ_i σ_j).
    let mut g2 = vec![0.0; d * d];
    let mut b2 = vec![0.0; d];
    for i in 0..d {
        let (mi, si) = (stdz.mean[i], stdz.std[i]);
        b2[i] = (moments.xty[i] - mi * moments.xty[0]) / si;
        for j in 0..d {
            let (mj, sj) = (stdz.mean[j], stdz.std[j]);
            g2[i * d + j] = (moments.g(i, j) - mi * moments.g(0, j) - mj * moments.g(i, 0)
                + mi * mj * n)
                / (si * sj);
        }
    }
    // BGD in standardized space: θ ← θ - (α/n)(G'θ - b').
    let mut theta = vec![0.0; d];
    for _ in 0..iterations {
        for i in 0..d {
            let mut grad = -b2[i];
            for j in 0..d {
                grad += g2[i * d + j] * theta[j];
            }
            theta[i] -= learning_rate / n * grad;
        }
    }
    // Map back: w_i = θ'_i/σ_i; intercept = θ'_0 - Σ θ'_i μ_i/σ_i.
    let (intercept, weights) = stdz.to_raw(&theta);
    LinearModel {
        features: moments.features.clone(),
        intercept,
        weights,
    }
}

/// The IFAQ end-to-end path: factorized moments + BGD, with the moment
/// computation sharded per `cfg` (BGD itself iterates over the hoisted
/// moments only — nothing to shard).
#[allow(clippy::too_many_arguments)]
pub fn fit_factorized_cfg(
    db: &StarDb,
    features: &[&str],
    label: &str,
    layout_choice: Layout,
    learning_rate: f64,
    iterations: usize,
    cfg: &ExecConfig,
) -> LinearModel {
    let moments = moments_factorized_cfg(db, features, label, layout_choice, cfg);
    fit_bgd(&moments, learning_rate, iterations)
}

/// The *unoptimized* D-IFAQ shape (the left bar of Figure 6): every BGD
/// iteration re-scans the materialized training matrix to compute the
/// gradient, instead of iterating over hoisted moments.
pub fn fit_bgd_rescan(
    m: &TrainMatrix,
    features: &[&str],
    label: &str,
    learning_rate: f64,
    iterations: usize,
) -> LinearModel {
    let d = features.len() + 1;
    let cols: Vec<usize> = features
        .iter()
        .map(|f| m.col(f).expect("feature"))
        .collect();
    let label_col = m.col(label).expect("label");
    let n = (m.rows as f64).max(1.0);
    // Standardize with a first pass (gives the same trajectory as fit_bgd).
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
            let err: f64 = theta.iter().zip(&x).map(|(t, xi)| t * xi).sum::<f64>() - row[label_col];
            for i in 0..d {
                grad[i] += err * x[i];
            }
        }
        for i in 0..d {
            theta[i] -= learning_rate / n * grad[i];
        }
    }
    let (intercept, weights) = stdz.to_raw(&theta);
    LinearModel {
        features: features.iter().map(|s| s.to_string()).collect(),
        intercept,
        weights,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifaq_engine::star::running_example_star;

    fn line_matrix() -> TrainMatrix {
        // y = 3 + 2a - b over a small grid.
        let mut data = Vec::new();
        let mut rows = 0;
        for a in 0..10 {
            for b in 0..10 {
                let (a, b) = (a as f64, b as f64);
                data.extend([a, b, 3.0 + 2.0 * a - b]);
                rows += 1;
            }
        }
        TrainMatrix {
            attrs: vec!["a".into(), "b".into(), "y".into()],
            rows,
            data,
        }
    }

    #[test]
    fn closed_form_recovers_exact_line() {
        let m = line_matrix();
        let moments = moments_from_matrix(&m, &["a", "b"], "y");
        let model = fit_closed_form(&moments);
        assert!((model.intercept - 3.0).abs() < 1e-6, "{model:?}");
        assert!((model.weights[0] - 2.0).abs() < 1e-6);
        assert!((model.weights[1] + 1.0).abs() < 1e-6);
    }

    #[test]
    fn bgd_converges_to_closed_form() {
        let m = line_matrix();
        let moments = moments_from_matrix(&m, &["a", "b"], "y");
        let closed = fit_closed_form(&moments);
        let bgd = fit_bgd(&moments, 0.5, 3000);
        assert!((bgd.intercept - closed.intercept).abs() < 1e-3, "{bgd:?}");
        for (a, b) in bgd.weights.iter().zip(&closed.weights) {
            assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn rescan_bgd_matches_moment_bgd() {
        // Same standardization, same learning rate, same iterations ⇒ the
        // same model, demonstrating the §4.1 rewriting is semantics
        // preserving: only the cost per iteration changes.
        let m = line_matrix();
        let moments = moments_from_matrix(&m, &["a", "b"], "y");
        let fast = fit_bgd(&moments, 1.0, 50);
        let slow = fit_bgd_rescan(&m, &["a", "b"], "y", 1.0, 50);
        assert!((fast.intercept - slow.intercept).abs() < 1e-8);
        for (a, b) in fast.weights.iter().zip(&slow.weights) {
            assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn factorized_moments_equal_materialized_moments() {
        let db = running_example_star();
        let features = ["city", "price"];
        for layout_choice in ifaq_engine::Layout::all() {
            let cfg = ifaq_engine::ExecConfig::global();
            let fact = moments_factorized_cfg(&db, &features, "units", *layout_choice, cfg);
            let m = db.materialize();
            let mat = moments_from_matrix(&m, &features, "units");
            for (a, b) in fact.gram.iter().zip(&mat.gram) {
                assert!((a - b).abs() < 1e-9, "{layout_choice:?}");
            }
            for (a, b) in fact.xty.iter().zip(&mat.xty) {
                assert!((a - b).abs() < 1e-9);
            }
            assert_eq!(fact.count, mat.count);
        }
    }

    #[test]
    fn prepared_moments_reuse_equals_fresh() {
        let db = running_example_star();
        let features = ["city", "price"];
        let cfg = ifaq_engine::ExecConfig::serial();
        for &layout_choice in ifaq_engine::Layout::all() {
            let mp = prepare_moments(&db, &features, "units", layout_choice);
            assert_eq!(mp.layout(), layout_choice);
            let fresh = moments_factorized_cfg(&db, &features, "units", layout_choice, &cfg);
            for _ in 0..3 {
                assert_eq!(
                    moments_factorized_prepared(&db, &mp, &cfg),
                    fresh,
                    "{layout_choice:?}: cached moments diverged"
                );
            }
        }
    }

    #[test]
    fn moment_deltas_add_and_subtract() {
        // Moments of the whole matrix == moments of a prefix plus
        // moments of the suffix; subtracting the suffix again recovers
        // the prefix — the additivity incremental refits rely on.
        let m = line_matrix();
        let split = 60 * 3;
        let head = TrainMatrix {
            attrs: m.attrs.clone(),
            rows: 60,
            data: m.data[..split].to_vec(),
        };
        let tail = TrainMatrix {
            attrs: m.attrs.clone(),
            rows: m.rows - 60,
            data: m.data[split..].to_vec(),
        };
        let full = moments_from_matrix(&m, &["a", "b"], "y");
        let head_m = moments_from_matrix(&head, &["a", "b"], "y");
        let tail_m = moments_from_matrix(&tail, &["a", "b"], "y");
        let mut acc = head_m.clone();
        acc.add_assign(&tail_m);
        assert_eq!(acc.count, full.count);
        for (a, b) in acc.gram.iter().zip(&full.gram) {
            assert!((a - b).abs() < 1e-9);
        }
        for (a, b) in acc.xty.iter().zip(&full.xty) {
            assert!((a - b).abs() < 1e-9);
        }
        // The refit over summed moments matches the full-data fit.
        let refit = fit_closed_form(&acc);
        let reference = fit_closed_form(&full);
        assert!((refit.intercept - reference.intercept).abs() < 1e-6);
        acc.sub_assign(&tail_m);
        assert_eq!(acc.count, head_m.count);
        for (a, b) in acc.gram.iter().zip(&head_m.gram) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "different feature sets")]
    fn moment_add_rejects_mismatched_features() {
        let m = line_matrix();
        let mut a = moments_from_matrix(&m, &["a", "b"], "y");
        let b = moments_from_matrix(&m, &["a"], "y");
        a.add_assign(&b);
    }

    #[test]
    fn predict_applies_weights_to_a_vector() {
        let model = LinearModel {
            features: vec!["a".into(), "b".into()],
            intercept: 3.0,
            weights: vec![2.0, -1.0],
        };
        assert_eq!(model.predict(&[4.0, 1.0]), 3.0 + 8.0 - 1.0);
        let m = line_matrix();
        for i in [0, 17, 99] {
            let row = m.row(i);
            assert_eq!(model.predict(&row[..2]), model.predict_row(&m, i));
        }
    }

    #[test]
    #[should_panic(expected = "feature vector has")]
    fn predict_rejects_wrong_arity() {
        let model = LinearModel {
            features: vec!["a".into()],
            intercept: 0.0,
            weights: vec![1.0],
        };
        model.predict(&[1.0, 2.0]);
    }

    #[test]
    fn predict_row_applies_weights() {
        let m = line_matrix();
        let model = LinearModel {
            features: vec!["a".into(), "b".into()],
            intercept: 3.0,
            weights: vec![2.0, -1.0],
        };
        for i in [0, 17, 99] {
            let y = m.row(i)[2];
            assert!((model.predict_row(&m, i) - y).abs() < 1e-9);
        }
    }

    #[test]
    fn constant_feature_does_not_blow_up() {
        // A zero-variance feature exercises the std floor and the ridge.
        let mut data = Vec::new();
        for i in 0..20 {
            data.extend([5.0, i as f64, 1.0 + 2.0 * i as f64]);
        }
        let m = TrainMatrix {
            attrs: vec!["k".into(), "x".into(), "y".into()],
            rows: 20,
            data,
        };
        let moments = moments_from_matrix(&m, &["k", "x"], "y");
        let model = fit_closed_form(&moments);
        assert!(model.weights.iter().all(|w| w.is_finite()));
        let bgd = fit_bgd(&moments, 1.0, 200);
        assert!(bgd.weights.iter().all(|w| w.is_finite()));
    }
}
