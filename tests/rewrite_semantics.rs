//! Property tests: every rewrite stage preserves interpreter semantics on
//! randomly generated expressions and databases, and the physical engines
//! agree on randomly generated star schemas.

use ifaq_engine::interp::{eval_expr, Env};
use ifaq_engine::star::{Dim, StarDb};
use ifaq_engine::Layout;
use ifaq_ir::schema::running_example_catalog;
use ifaq_ir::Expr;
use ifaq_storage::{ColRelation, Column, Value};
use ifaq_transform::{factorize, generic, licm, normalize, parteval};
use proptest::prelude::*;

/// Random arithmetic/sum expressions over a small environment with
/// variables `a`, `b` (ints) and collection `C` (a set of ints).
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-20i64..20).prop_map(Expr::int),
        Just(Expr::var("a")),
        Just(Expr::var("b")),
    ];
    leaf.prop_recursive(4, 64, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(x, y)| Expr::add(x, y)),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| Expr::mul(x, y)),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| Expr::sub(x, y)),
            inner.clone().prop_map(Expr::neg),
            inner
                .clone()
                .prop_map(|b| Expr::sum("x", Expr::var("C"), b)),
            // Bodies that use the bound variable.
            inner.clone().prop_map(|b| Expr::sum(
                "x",
                Expr::var("C"),
                Expr::mul(Expr::var("x"), b)
            )),
            (inner.clone(), inner).prop_map(|(v, b)| Expr::let_("t", v, b)),
        ]
    })
}

fn env(a: i64, b: i64, coll: &[i64]) -> Env {
    let mut e = Env::new();
    e.insert("a".into(), Value::Int(a));
    e.insert("b".into(), Value::Int(b));
    e.insert(
        "C".into(),
        Value::Set(coll.iter().map(|&v| Value::Int(v)).collect()),
    );
    e
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn normalization_preserves_semantics(
        e in arb_expr(), a in -5i64..5, b in -5i64..5,
        coll in proptest::collection::btree_set(-4i64..4, 0..5)
    ) {
        let coll: Vec<i64> = coll.into_iter().collect();
        let env = env(a, b, &coll);
        let before = eval_expr(&env, &e);
        let (e2, _) = normalize::normalize(&e);
        let after = eval_expr(&env, &e2);
        prop_assert_eq!(before, after);
    }

    #[test]
    fn factorization_preserves_semantics(
        e in arb_expr(), a in -5i64..5, b in -5i64..5,
        coll in proptest::collection::btree_set(-4i64..4, 0..5)
    ) {
        let coll: Vec<i64> = coll.into_iter().collect();
        let env = env(a, b, &coll);
        // Factorization runs on normalized input, as in the pipeline.
        let (e1, _) = normalize::normalize(&e);
        let before = eval_expr(&env, &e1);
        let (e2, _) = factorize::factorize(&e1);
        let after = eval_expr(&env, &e2);
        prop_assert_eq!(before, after);
    }

    #[test]
    fn licm_and_generic_preserve_semantics(
        e in arb_expr(), a in -5i64..5, b in -5i64..5,
        coll in proptest::collection::btree_set(-4i64..4, 0..5)
    ) {
        let coll: Vec<i64> = coll.into_iter().collect();
        let env = env(a, b, &coll);
        let before = eval_expr(&env, &e);
        let (e2, _) = licm::licm_expr(&e);
        prop_assert_eq!(before.clone(), eval_expr(&env, &e2));
        let (e3, _) = generic::cleanup(&e2);
        prop_assert_eq!(before, eval_expr(&env, &e3));
    }

    #[test]
    fn partial_eval_preserves_semantics(
        e in arb_expr(), a in -5i64..5, b in -5i64..5,
        coll in proptest::collection::btree_set(-4i64..4, 0..5)
    ) {
        let coll: Vec<i64> = coll.into_iter().collect();
        let env = env(a, b, &coll);
        let before = eval_expr(&env, &e);
        let (e2, _) = parteval::partial_eval(&e);
        prop_assert_eq!(before, eval_expr(&env, &e2));
    }

    #[test]
    fn loop_scheduling_preserves_semantics(
        e in arb_expr(), a in -5i64..5, b in -5i64..5,
        coll in proptest::collection::btree_set(-4i64..4, 0..5)
    ) {
        let coll: Vec<i64> = coll.into_iter().collect();
        let env = env(a, b, &coll);
        let cat = running_example_catalog(100, 10, 5);
        let before = eval_expr(&env, &e);
        let (e2, _) = ifaq_transform::schedule::schedule(&e, &cat);
        prop_assert_eq!(before, eval_expr(&env, &e2));
    }
}

/// A random star database: one fact table with two key columns and one
/// measure, two dimensions with one payload each.
fn arb_star() -> impl Strategy<Value = StarDb> {
    let n = 1usize..40;
    (
        n,
        2usize..6,
        2usize..6,
        proptest::collection::vec(-3.0f64..3.0, 50),
        proptest::collection::vec(-3.0f64..3.0, 12),
    )
        .prop_flat_map(|(rows, nk1, nk2, measures, payloads)| {
            (
                proptest::collection::vec(0i64..(nk1 as i64 + 1), rows),
                proptest::collection::vec(0i64..(nk2 as i64), rows),
                Just((rows, nk1, nk2, measures, payloads)),
            )
        })
        .prop_map(|(k1, k2, (rows, nk1, nk2, measures, payloads))| {
            // k1 may reference a key one past the dimension: dangling rows
            // exercise inner-join drops.
            let fact = ColRelation::new(
                "F",
                vec!["d1".into(), "d2".into(), "m".into()],
                vec![
                    Column::I64(k1),
                    Column::I64(k2),
                    Column::F64(measures[..rows].to_vec()),
                ],
            );
            let dim1 = ColRelation::new(
                "D1",
                vec!["d1".into(), "p1".into()],
                vec![
                    Column::I64((0..nk1 as i64).collect()),
                    Column::F64(payloads[..nk1].to_vec()),
                ],
            );
            let dim2 = ColRelation::new(
                "D2",
                vec!["d2".into(), "p2".into()],
                vec![
                    Column::I64((0..nk2 as i64).collect()),
                    Column::F64(payloads[..nk2].to_vec()),
                ],
            );
            StarDb::new(fact, vec![Dim::new(dim1, "d1"), Dim::new(dim2, "d2")])
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn engines_agree_on_random_stars(db in arb_star()) {
        use ifaq_query::batch::covar_batch;
        use ifaq_query::{JoinTree, ViewPlan};
        let cat = db.catalog();
        let tree = JoinTree::build_with_root(&cat, "F", &["D1", "D2"]).unwrap();
        let batch = covar_batch(&["p1", "p2"], "m");
        let plan = ViewPlan::plan(&batch, &tree, &cat).unwrap();
        let reference = ifaq_engine::layout::execute_with(
            Layout::Materialized,
            &plan,
            &db,
            &ifaq_engine::layout::prepare(Layout::Materialized, &plan, &db),
            ifaq_engine::ExecConfig::global(),
        );
        for &layout in Layout::all() {
            let prep = ifaq_engine::layout::prepare(layout, &plan, &db);
            let got = ifaq_engine::layout::execute_with(
                layout,
                &plan,
                &db,
                &prep,
                ifaq_engine::ExecConfig::global(),
            );
            for (a, b) in reference.iter().zip(&got) {
                let tol = 1e-9 * (1.0 + a.abs().max(b.abs()));
                prop_assert!((a - b).abs() <= tol, "{:?}: {} vs {}", layout, a, b);
            }
        }
    }
}
