//! `favorita-tree`: a depth-4 CART regression tree trained factorized
//! over favorita — a narrow, long fact table scanned once per node under
//! that node's filters. No compiler, interpreter, stream or serve code
//! runs here, so this is the workload that must *not* move when those
//! layers change.

use crate::{close, Ctx};
use ifaq_engine::{physical, StarDb};
use ifaq_ml::tree::{self, Node, RegressionTree, TreeConfig};
use ifaq_query::batch::{variance_batch, AggBatch, AggSpec, PredOp, Predicate};
use ifaq_query::{JoinTree, ViewPlan};

/// Fact rows generated (the training split keeps 90%).
const FAVORITA_ROWS: usize = 120_000;

fn config() -> TreeConfig {
    TreeConfig {
        max_depth: 4,
        min_samples: 2.0,
        thresholds_per_feature: 4,
    }
}

struct Inputs {
    db: StarDb,
    features: Vec<String>,
    label: String,
}

/// The root node's candidate batch, built with the public batch API: the
/// node's own count/sum/sum-of-squares, then the same three moments of
/// the left child of every `(feature, threshold)` split.
fn root_batch(label: &str, features: &[&str], thresholds: &[Vec<f64>]) -> AggBatch {
    let mut batch = variance_batch(label, &[]);
    for (fi, f) in features.iter().enumerate() {
        for (ti, &t) in thresholds[fi].iter().enumerate() {
            let pred = Predicate::new(*f, PredOp::Le, t);
            for (stem, factors) in [
                ("lsq", &[label, label][..]),
                ("ls", &[label][..]),
                ("lc", &[][..]),
            ] {
                batch = batch.with(
                    AggSpec::new(format!("{stem}_{fi}_{ti}"), factors).filtered(pred.clone()),
                );
            }
        }
    }
    batch
}

/// Same splits (attribute and threshold, exactly) and the same leaves
/// up to floating-point association (1e-9 relative): the factorized and
/// materialized paths sum the same moments in different orders.
fn trees_match(a: &Node, b: &Node) -> Result<(), String> {
    match (a, b) {
        (
            Node::Leaf {
                prediction: p1,
                count: c1,
            },
            Node::Leaf {
                prediction: p2,
                count: c2,
            },
        ) => {
            if close(*p1, *p2, 1e-9) && close(*c1, *c2, 1e-9) {
                Ok(())
            } else {
                Err(format!("leaf {p1}/{c1} vs {p2}/{c2}"))
            }
        }
        (
            Node::Split {
                attr: a1,
                threshold: t1,
                left: l1,
                right: r1,
            },
            Node::Split {
                attr: a2,
                threshold: t2,
                left: l2,
                right: r2,
            },
        ) => {
            if a1 != a2 || t1.to_bits() != t2.to_bits() {
                return Err(format!("split {a1} <= {t1} vs {a2} <= {t2}"));
            }
            trees_match(l1, l2)?;
            trees_match(r1, r2)
        }
        _ => Err("a leaf where the other tree splits".into()),
    }
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let cfg = config();
    let mut last: Option<RegressionTree> = None;
    let (inputs, samples) = ctx.measure(
        3,
        |ctx| {
            let ds = ctx.tracer.span("datagen.generate", || {
                ifaq_datagen::favorita(FAVORITA_ROWS, ctx.seed)
            });
            Ok(Inputs {
                db: ds.train(),
                features: ds.features.clone(),
                label: ds.label.clone(),
            })
        },
        |ctx, inputs| {
            let features: Vec<&str> = inputs.features.iter().map(String::as_str).collect();
            last = Some(ctx.tracer.span("ml.tree.fit", || {
                tree::fit_factorized(&inputs.db, &features, &inputs.label, &cfg)
            }));
            ctx.report.ops(1, 0);
            Ok(())
        },
    )?;
    ctx.account(&samples);
    let features: Vec<&str> = inputs.features.iter().map(String::as_str).collect();
    let (db, label) = (&inputs.db, inputs.label.as_str());
    ctx.desc.num("fact_rows", db.fact_rows() as f64);
    ctx.desc.num("features", features.len() as f64);
    ctx.desc.num("max_depth", cfg.max_depth as f64);
    ctx.desc
        .num("thresholds_per_feature", cfg.thresholds_per_feature as f64);
    ctx.desc
        .text("layout", "MergedHash (fixed by ifaq_ml::tree)");
    let fitted = last.expect("at least one sample");
    ctx.desc.num("tree_nodes", fitted.node_count() as f64);

    if ctx.traced {
        for _ in 0..3 {
            ctx.probe(|ctx| {
                let t = &ctx.tracer;
                let thresholds = t.span("ml.tree.thresholds", || {
                    tree::thresholds_from_db(db, &features, cfg.thresholds_per_feature)
                });
                let batch = root_batch(label, &features, &thresholds);
                let cat = db.catalog();
                let dims: Vec<&str> = db.dims.iter().map(|d| d.rel.name.as_str()).collect();
                let jt = JoinTree::build_with_root(&cat, db.fact.name.as_str(), &dims)
                    .expect("join tree");
                let plan = t.span("query.plan", || {
                    ViewPlan::plan(&batch, &jt, &cat).expect("plan")
                });
                t.span("engine.node_scan", || physical::exec_merged(&plan, db));
            });
        }
        ctx.layer("ml.tree.thresholds_s", &["ml.tree.thresholds"]);
        ctx.layer("query.plan_s", &["query.plan"]);
        ctx.layer("engine.node_scan_s", &["engine.node_scan"]);
        ctx.report.set("ml.tree.nodes", fitted.node_count() as f64);
    }

    // Correctness: the same tree from the materialized join.
    let m = ctx.probe(|ctx| ctx.tracer.span("baseline.materialize", || db.materialize()));
    let thresholds = tree::thresholds_from_db(db, &features, cfg.thresholds_per_feature);
    let reference = ctx.probe(|ctx| {
        ctx.tracer.span("baseline.learn", || {
            tree::fit_materialized(&m, &features, label, &thresholds, &cfg)
        })
    });
    let matched = trees_match(&fitted.root, &reference.root);
    ctx.report.check(
        "tree = fit_materialized(materialized)",
        matched.is_ok() && fitted.features == reference.features,
        match matched {
            Ok(()) => format!("{} nodes, depth {}", fitted.node_count(), fitted.depth()),
            Err(e) => e,
        },
    );
    ctx.report.check(
        "tree splits",
        fitted.node_count() > 1,
        format!("{} nodes", fitted.node_count()),
    );
    if ctx.traced {
        ctx.layer("baseline.materialize_s", &["baseline.materialize"]);
        ctx.layer("baseline.learn_s", &["baseline.learn"]);
    }
    Ok(())
}
