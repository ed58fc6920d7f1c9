//! Independent references the workloads' outputs are checked against.
//! None of them runs the code path under test.

use ifaq_engine::TrainMatrix;

/// Batch gradient descent for least squares, written out over a
/// materialized matrix: the D-IFAQ program's semantics without any of
/// the compiler, the aggregate batch or the interpreter.
///
/// `θ_j ← θ_j − α Σ_i (Σ_k θ_k x_ik − y_i) · x_ij`, from `θ = 0`.
pub fn linreg_bgd(
    m: &TrainMatrix,
    features: &[&str],
    label: &str,
    alpha: f64,
    iterations: usize,
) -> Result<Vec<f64>, String> {
    let col = |a: &str| {
        m.col(a)
            .ok_or_else(|| format!("matrix has no column `{a}`"))
    };
    let fcols: Vec<usize> = features.iter().map(|f| col(f)).collect::<Result<_, _>>()?;
    let ycol = col(label)?;
    let d = features.len();
    let mut theta = vec![0.0; d];
    let mut grad = vec![0.0; d];
    for _ in 0..iterations {
        grad.iter_mut().for_each(|g| *g = 0.0);
        for i in 0..m.rows {
            let row = m.row(i);
            let pred: f64 = fcols.iter().zip(&theta).map(|(&c, t)| t * row[c]).sum();
            let err = pred - row[ycol];
            for (g, &c) in grad.iter_mut().zip(&fcols) {
                *g += err * row[c];
            }
        }
        for (t, g) in theta.iter_mut().zip(&grad) {
            *t -= alpha * g;
        }
    }
    Ok(theta)
}

/// A learning rate that keeps the descent stable: `1 / (n · Σ_j
/// max|x_j|²)` bounds `α · λ_max(XᵀX)` by 1, from column maxima alone
/// (no join needed).
pub fn safe_alpha(rows: usize, feature_max_abs: &[f64]) -> f64 {
    let s: f64 = feature_max_abs.iter().map(|m| m * m).sum();
    1.0 / (rows.max(1) as f64 * s.max(1e-300))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bgd_converges_on_an_exact_fit() {
        // y = 2·a − b, exactly.
        let rows = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 1.0]];
        let mut data = Vec::new();
        for r in rows {
            data.extend_from_slice(&[r[0], r[1], 2.0 * r[0] - r[1]]);
        }
        let m = TrainMatrix {
            attrs: ["a", "b", "y"].map(ifaq_ir::Sym::new).to_vec(),
            rows: 4,
            data,
        };
        let alpha = safe_alpha(4, &[2.0, 1.0]);
        let theta = linreg_bgd(&m, &["a", "b"], "y", alpha, 5_000).unwrap();
        assert!(
            (theta[0] - 2.0).abs() < 1e-6 && (theta[1] + 1.0).abs() < 1e-6,
            "{theta:?}"
        );
        assert!(linreg_bgd(&m, &["zz"], "y", alpha, 1).is_err());
    }
}
