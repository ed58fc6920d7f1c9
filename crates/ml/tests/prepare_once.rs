//! Accounting test for prepared-state training: factorized training must
//! prepare its θ-free state once per run — **independent of the
//! iteration count** — and never again while it iterates. Before the
//! prepared-state refactor, every iteration's `execute_with` rebuilt its
//! merged/dense views; this pins the fix.
//!
//! The counts are the per-tree
//! [`ifaq_engine::exec::PlanTree::prepare_invocations`] of each trainer's
//! prepared state, so concurrent tests cannot disturb them.

use ifaq_engine::{ExecConfig, Layout};
use ifaq_ml::linreg;
use ifaq_ml::logreg::FactorizedTrainer;
use ifaq_storage::{ColRelation, Column};

/// Node-prepares of one prepared tree: aggregate, join/view, scan.
const ONE_PREPARE: usize = 3;

/// The running-example star with a binarized label column, built inline
/// (mirrors `logreg::tests::binary_star`, which is private to the crate).
fn binary_star() -> ifaq_engine::StarDb {
    let fact = ColRelation::new(
        "S",
        vec!["item".into(), "store".into(), "units".into(), "hot".into()],
        vec![
            Column::I64(vec![1, 1, 2, 3, 2]),
            Column::I64(vec![1, 2, 1, 2, 2]),
            Column::F64(vec![10.0, 5.0, 3.0, 8.0, 2.0]),
            Column::F64(vec![1.0, 0.0, 0.0, 1.0, 0.0]),
        ],
    );
    let r = ColRelation::new(
        "R",
        vec!["store".into(), "city".into()],
        vec![Column::I64(vec![1, 2]), Column::F64(vec![100.0, 200.0])],
    );
    let i = ColRelation::new(
        "I",
        vec!["item".into(), "price".into()],
        vec![Column::I64(vec![1, 2, 3]), Column::F64(vec![1.5, 2.5, 3.5])],
    );
    ifaq_engine::StarDb::new(
        fact,
        vec![
            ifaq_engine::Dim::new(r, "store"),
            ifaq_engine::Dim::new(i, "item"),
        ],
    )
}

#[test]
fn training_prepares_exactly_once_per_run_regardless_of_iterations() {
    let db = binary_star();
    let features = ["city", "price"];
    let cfg = ExecConfig::serial();

    for &layout in Layout::all() {
        // Logistic: the gradient batch is prepared once per run, for 1
        // iteration and for 25 alike.
        let mut counts = Vec::new();
        for iterations in [1usize, 25] {
            let mut trainer = FactorizedTrainer::new(&db, &features, "hot", layout, &cfg);
            let _ = trainer.fit(0.5, iterations);
            counts.push(trainer.prepared().tree().prepare_invocations());
        }
        assert_eq!(
            counts[0], counts[1],
            "{layout}: prepare count grew with iterations ({counts:?})"
        );
        assert_eq!(
            counts[0], ONE_PREPARE,
            "{layout}: one gradient-batch prepare"
        );

        // The trainer splits the same run: all preparation in `new`,
        // none in `fit` — however many times and iterations it runs.
        let mut trainer = FactorizedTrainer::new(&db, &features, "hot", layout, &cfg);
        let after_new = trainer.prepared().tree().prepare_invocations();
        assert_eq!(after_new, ONE_PREPARE, "{layout}: trainer::new prepares");
        let _ = trainer.fit(0.5, 1);
        let _ = trainer.fit(0.5, 25);
        assert_eq!(
            trainer.prepared().tree().prepare_invocations(),
            after_new,
            "{layout}: fit must never prepare"
        );

        // Linear: prepared moments amortize the covar pass.
        let mp = linreg::prepare_moments(&db, &features, "units", layout);
        let after_prep = mp.prepared().tree().prepare_invocations();
        assert_eq!(after_prep, ONE_PREPARE, "{layout}: linreg prepare");
        let _ = linreg::moments_factorized_prepared(&db, &mp, &cfg);
        let _ = linreg::moments_factorized_prepared(&db, &mp, &cfg);
        assert_eq!(
            mp.prepared().tree().prepare_invocations(),
            after_prep,
            "{layout}: prepared moments must not re-prepare"
        );
    }
}
