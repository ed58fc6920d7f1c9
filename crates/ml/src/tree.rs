//! CART regression trees over factorized joins (§3 of the paper).
//!
//! The CART recursion chooses, at each node with path condition δ, the
//! split `c(f, op, t)` minimizing
//! `cost(Q, δ ∧ c(f,≤,t)) + cost(Q, δ ∧ c(f,>,t))` where the cost is the
//! sum of squared errors `Σ Q(x)·y²·δ′ − (Σ Q(x)·y·δ′)²/Σ Q(x)·δ′`.
//!
//! Unlike linear regression, the aggregates depend on node-specific δ
//! conditions and cannot be hoisted (§3); but each node's *candidate
//! evaluation* is still one batch of filtered aggregates — three per
//! `(feature, threshold)` pair — evaluated in a single fused pass over the
//! input database by the factorized engine (or over the materialized
//! matrix by the baseline path). Both paths see identical candidate
//! thresholds and therefore learn identical trees.

use ifaq_engine::exec::{build_tree, Source};
use ifaq_engine::star::{StarDb, TrainMatrix};
use ifaq_engine::{ExecConfig, Layout};
use ifaq_query::batch::{AggBatch, AggSpec, PredOp, Predicate};
use ifaq_query::ViewPlan;

/// Tree-construction parameters.
#[derive(Clone, Debug)]
pub struct TreeConfig {
    /// Maximum tree depth (the paper learns depth 4, ≤ 31 nodes).
    pub max_depth: usize,
    /// Minimum row count to attempt a split.
    pub min_samples: f64,
    /// Candidate thresholds per feature (quantiles of the attribute).
    pub thresholds_per_feature: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 4,
            min_samples: 2.0,
            thresholds_per_feature: 8,
        }
    }
}

/// A regression-tree node.
#[derive(Clone, Debug, PartialEq)]
pub enum Node {
    /// Prediction (the mean label of the node's fragment).
    Leaf {
        /// Predicted value.
        prediction: f64,
        /// Training rows in the fragment.
        count: f64,
    },
    /// An inner split `attr <= threshold ? left : right`.
    Split {
        /// Split attribute.
        attr: String,
        /// Split threshold.
        threshold: f64,
        /// Subtree for `attr <= threshold`.
        left: Box<Node>,
        /// Subtree for `attr > threshold`.
        right: Box<Node>,
    },
}

/// A trained regression tree.
#[derive(Clone, Debug, PartialEq)]
pub struct RegressionTree {
    /// Root node.
    pub root: Node,
    /// Feature names the tree may test.
    pub features: Vec<String>,
}

impl RegressionTree {
    /// Predicts the label for row `i` of a matrix.
    pub fn predict_row(&self, m: &TrainMatrix, i: usize) -> f64 {
        let row = m.row(i);
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { prediction, .. } => return *prediction,
                Node::Split {
                    attr,
                    threshold,
                    left,
                    right,
                } => {
                    let v = row[m.col(attr).expect("split attribute column")];
                    node = if v <= *threshold { left } else { right };
                }
            }
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        fn go(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => 1 + go(left) + go(right),
            }
        }
        go(&self.root)
    }

    /// Depth of the tree (a single leaf has depth 0).
    pub fn depth(&self) -> usize {
        fn go(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + go(left).max(go(right)),
            }
        }
        go(&self.root)
    }
}

/// Candidate split thresholds for a feature: midpoints between distinct
/// quantiles of the attribute's values, read from its *owning relation*
/// (no join needed).
pub fn candidate_thresholds(values: &[f64], k: usize) -> Vec<f64> {
    if values.is_empty() || k == 0 {
        return vec![];
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    sorted.dedup();
    if sorted.len() < 2 {
        return vec![];
    }
    let mut out = Vec::with_capacity(k);
    for q in 1..=k {
        let idx = q * (sorted.len() - 1) / (k + 1);
        let t = (sorted[idx] + sorted[(idx + 1).min(sorted.len() - 1)]) / 2.0;
        if out.last() != Some(&t) {
            out.push(t);
        }
    }
    out.dedup();
    out
}

/// Per-feature candidate thresholds read from the star database.
pub fn thresholds_from_db(db: &StarDb, features: &[&str], k: usize) -> Vec<Vec<f64>> {
    features
        .iter()
        .map(|f| {
            let col = db
                .fact
                .column(f)
                .or_else(|| db.dims.iter().find_map(|d| d.rel.column(f)))
                .unwrap_or_else(|| panic!("feature `{f}` not stored anywhere"));
            let values: Vec<f64> = (0..col.len()).map(|i| col.get_f64(i)).collect();
            candidate_thresholds(&values, k)
        })
        .collect()
}

/// Builds the one-node candidate batch: for the node δ itself (3 stats)
/// and for every (feature, threshold) the *left* child's 3 stats — the
/// right child's stats follow by subtraction.
fn node_batch(
    label: &str,
    delta: &[Predicate],
    features: &[&str],
    thresholds: &[Vec<f64>],
) -> AggBatch {
    let mut batch = ifaq_query::batch::variance_batch(label, delta);
    for (fi, f) in features.iter().enumerate() {
        for (ti, &t) in thresholds[fi].iter().enumerate() {
            let pred = Predicate::new(*f, PredOp::Le, t);
            let mk = |stem: &str, factors: &[&str]| {
                let mut a = AggSpec::new(format!("{stem}_{fi}_{ti}"), factors);
                for d in delta {
                    a = a.filtered(d.clone());
                }
                a.filtered(pred.clone())
            };
            batch = batch
                .with(mk("lsq", &[label, label]))
                .with(mk("ls", &[label]))
                .with(mk("lc", &[]));
        }
    }
    batch
}

/// Sum of squared errors from the three moments.
fn sse(sumsq: f64, sum: f64, count: f64) -> f64 {
    if count <= 0.0 {
        0.0
    } else {
        (sumsq - sum * sum / count).max(0.0)
    }
}

/// Grows a tree given a way to evaluate aggregate batches.
fn grow(
    eval: &mut dyn FnMut(&AggBatch) -> Vec<f64>,
    label: &str,
    features: &[&str],
    thresholds: &[Vec<f64>],
    delta: &[Predicate],
    depth: usize,
    config: &TreeConfig,
) -> Node {
    let batch = node_batch(label, delta, features, thresholds);
    let results = eval(&batch);
    let (node_sumsq, node_sum, node_count) = (results[0], results[1], results[2]);
    let prediction = if node_count > 0.0 {
        node_sum / node_count
    } else {
        0.0
    };
    let node_sse = sse(node_sumsq, node_sum, node_count);
    if depth >= config.max_depth || node_count < config.min_samples || node_sse <= 1e-12 {
        return Node::Leaf {
            prediction,
            count: node_count,
        };
    }
    // Scan candidates.
    let mut best: Option<(f64, usize, f64)> = None; // (cost, feature, threshold)
    let mut idx = 3;
    for (fi, _f) in features.iter().enumerate() {
        for &t in &thresholds[fi] {
            let (lsq, ls, lc) = (results[idx], results[idx + 1], results[idx + 2]);
            idx += 3;
            let (rsq, rs, rc) = (node_sumsq - lsq, node_sum - ls, node_count - lc);
            if lc < config.min_samples / 2.0 || rc < config.min_samples / 2.0 {
                continue;
            }
            let cost = sse(lsq, ls, lc) + sse(rsq, rs, rc);
            let better = match &best {
                None => true,
                Some((c, ..)) => cost < *c - 1e-12,
            };
            if better {
                best = Some((cost, fi, t));
            }
        }
    }
    let Some((cost, fi, t)) = best else {
        return Node::Leaf {
            prediction,
            count: node_count,
        };
    };
    if cost >= node_sse - 1e-12 {
        // No split improves the node.
        return Node::Leaf {
            prediction,
            count: node_count,
        };
    }
    let pred = Predicate::new(features[fi], PredOp::Le, t);
    let mut left_delta = delta.to_vec();
    left_delta.push(pred.clone());
    let mut right_delta = delta.to_vec();
    right_delta.push(pred.negate());
    let left = grow(
        eval,
        label,
        features,
        thresholds,
        &left_delta,
        depth + 1,
        config,
    );
    let right = grow(
        eval,
        label,
        features,
        thresholds,
        &right_delta,
        depth + 1,
        config,
    );
    Node::Split {
        attr: features[fi].to_string(),
        threshold: t,
        left: Box::new(left),
        right: Box::new(right),
    }
}

/// Trains a regression tree *factorized*: every node's candidate batch is
/// evaluated directly over the input database with merged views and a
/// fused fact scan — the join is never materialized.
pub fn fit_factorized(
    db: &StarDb,
    features: &[&str],
    label: &str,
    config: &TreeConfig,
) -> RegressionTree {
    let cat = db.catalog();
    let tree = db.join_tree(&cat).expect("join tree");
    let thresholds = thresholds_from_db(db, features, config.thresholds_per_feature);
    let mut eval = |batch: &AggBatch| {
        let plan = ViewPlan::plan(batch, &tree, &cat).expect("view plan");
        let mut scan = build_tree(&plan, None, Layout::MergedHash, ExecConfig::global());
        scan.prepare(Source::Resident(db))
            .and_then(|()| scan.execute(Source::Resident(db)))
            .expect("resident merged-view execution is infallible")
    };
    let root = grow(&mut eval, label, features, &thresholds, &[], 0, config);
    RegressionTree {
        root,
        features: features.iter().map(|s| s.to_string()).collect(),
    }
}

/// Per-aggregate resolution against a matrix: factor column indices plus
/// `(column, predicate)` pairs for the filters.
type ResolvedAgg<'a> = (Vec<usize>, Vec<(usize, &'a Predicate)>);

/// Evaluates an aggregate batch by scanning a materialized matrix — the
/// baseline path (scikit-learn shape).
pub fn batch_over_matrix(m: &TrainMatrix, batch: &AggBatch) -> Vec<f64> {
    let resolved: Vec<ResolvedAgg> = batch
        .aggs
        .iter()
        .map(|a| {
            (
                a.factors
                    .iter()
                    .map(|f| m.col(f.as_str()).expect("factor column"))
                    .collect(),
                a.filter
                    .iter()
                    .map(|p| (m.col(p.attr.as_str()).expect("filter column"), p))
                    .collect(),
            )
        })
        .collect();
    let mut out = vec![0.0; batch.len()];
    for i in 0..m.rows {
        let row = m.row(i);
        'agg: for (k, (factors, filters)) in resolved.iter().enumerate() {
            for (c, p) in filters {
                if !p.eval(row[*c]) {
                    continue 'agg;
                }
            }
            let mut v = 1.0;
            for &c in factors {
                v *= row[c];
            }
            out[k] += v;
        }
    }
    out
}

/// Trains a regression tree over a *materialized* matrix, with thresholds
/// supplied so baselines can reuse the factorized path's candidates.
pub fn fit_materialized(
    m: &TrainMatrix,
    features: &[&str],
    label: &str,
    thresholds: &[Vec<f64>],
    config: &TreeConfig,
) -> RegressionTree {
    let mut eval = |batch: &AggBatch| batch_over_matrix(m, batch);
    let root = grow(&mut eval, label, features, thresholds, &[], 0, config);
    RegressionTree {
        root,
        features: features.iter().map(|s| s.to_string()).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifaq_engine::star::running_example_star;

    #[test]
    fn thresholds_are_midpoints() {
        let t = candidate_thresholds(&[1.0, 2.0, 3.0, 4.0], 3);
        assert!(!t.is_empty());
        assert!(t.iter().all(|&x| (1.0..=4.0).contains(&x)));
        // Degenerate inputs.
        assert!(candidate_thresholds(&[], 3).is_empty());
        assert!(candidate_thresholds(&[5.0, 5.0], 3).is_empty());
    }

    #[test]
    fn fits_a_step_function_exactly() {
        // y = 10 when x <= 5 else 20: a single split suffices.
        let mut data = Vec::new();
        for i in 0..20 {
            let x = i as f64;
            data.extend([x, if x <= 5.0 { 10.0 } else { 20.0 }]);
        }
        let m = TrainMatrix {
            attrs: vec!["x".into(), "y".into()],
            rows: 20,
            data,
        };
        let thresholds = vec![candidate_thresholds(
            &(0..20).map(|i| i as f64).collect::<Vec<_>>(),
            19,
        )];
        let tree = fit_materialized(&m, &["x"], "y", &thresholds, &TreeConfig::default());
        assert!(tree.depth() >= 1);
        for i in 0..20 {
            let y = m.row(i)[1];
            assert_eq!(tree.predict_row(&m, i), y, "row {i}");
        }
    }

    #[test]
    fn factorized_and_materialized_learn_identical_trees() {
        let db = running_example_star();
        let features = ["city", "price"];
        let config = TreeConfig {
            max_depth: 3,
            min_samples: 1.0,
            thresholds_per_feature: 4,
        };
        let factorized = fit_factorized(&db, &features, "units", &config);
        let thresholds = thresholds_from_db(&db, &features, config.thresholds_per_feature);
        let m = db.materialize();
        let materialized = fit_materialized(&m, &features, "units", &thresholds, &config);
        assert_eq!(factorized, materialized);
    }

    #[test]
    fn depth_limit_is_respected() {
        let db = running_example_star();
        let config = TreeConfig {
            max_depth: 1,
            min_samples: 1.0,
            thresholds_per_feature: 4,
        };
        let tree = fit_factorized(&db, &["city", "price"], "units", &config);
        assert!(tree.depth() <= 1);
        assert!(tree.node_count() <= 3);
    }

    #[test]
    fn pure_node_becomes_leaf() {
        // Constant label: no split improves SSE, tree is a single leaf.
        let mut data = Vec::new();
        for i in 0..10 {
            data.extend([i as f64, 7.0]);
        }
        let m = TrainMatrix {
            attrs: vec!["x".into(), "y".into()],
            rows: 10,
            data,
        };
        let thresholds = vec![candidate_thresholds(
            &(0..10).map(|i| i as f64).collect::<Vec<_>>(),
            5,
        )];
        let tree = fit_materialized(&m, &["x"], "y", &thresholds, &TreeConfig::default());
        assert_eq!(tree.node_count(), 1);
        match tree.root {
            Node::Leaf { prediction, count } => {
                assert_eq!(prediction, 7.0);
                assert_eq!(count, 10.0);
            }
            _ => panic!("expected leaf"),
        }
    }

    #[test]
    fn leaf_prediction_is_fragment_mean() {
        let db = running_example_star();
        let config = TreeConfig {
            max_depth: 0,
            min_samples: 1.0,
            thresholds_per_feature: 4,
        };
        let tree = fit_factorized(&db, &["city"], "units", &config);
        match tree.root {
            Node::Leaf { prediction, count } => {
                assert_eq!(count, 5.0);
                assert!((prediction - 28.0 / 5.0).abs() < 1e-9);
            }
            _ => panic!("expected leaf at depth 0"),
        }
    }
}
