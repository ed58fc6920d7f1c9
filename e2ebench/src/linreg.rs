//! `retailer-linreg`: the paper's headline path on a wide program. The
//! D-IFAQ text of batch-gradient-descent linear regression over 17
//! retailer features goes through parse → §4.1/§4.2 compile → plan
//! analysis → prepare (cost-chosen layout) → one aggregate-batch scan →
//! the residual loop in the interpreter.

use crate::{close, reference, worst, Ctx};
use ifaq::{CompileOptions, Compiled, Pipeline};
use ifaq_datagen::Dataset;
use ifaq_engine::interp::{Env, Interpreter};
use ifaq_engine::{Layout, StarDb};
use ifaq_query::extract::Extraction;
use ifaq_storage::Value;

/// Fact rows generated (the training split keeps 90%).
pub const RETAILER_ROWS: usize = 150_000;
/// The program uses every `FEATURE_STRIDE`-th retailer feature: 17 of
/// the 34, spanning all four dimensions (170 aggregates).
const FEATURE_STRIDE: usize = 2;
/// BGD iterations of the program.
pub const ITERATIONS: usize = 50;
/// Check tolerance (relative).
const TOL: f64 = 1e-6;

/// The generated inputs: the database and the program text.
pub struct Inputs {
    /// Training split of the retailer star.
    pub db: StarDb,
    /// Feature attributes, in program order.
    pub features: Vec<String>,
    /// Label attribute.
    pub label: String,
    /// Learning rate written into the program.
    pub alpha: f64,
    /// The D-IFAQ source text.
    pub source: String,
}

impl Inputs {
    /// Features as `&str`s.
    pub fn feature_refs(&self) -> Vec<&str> {
        self.features.iter().map(String::as_str).collect()
    }
}

/// The D-IFAQ source of BGD linear regression (the §3 running program).
pub fn program_text(features: &[&str], label: &str, alpha: f64, iterations: usize) -> String {
    let set = features
        .iter()
        .map(|f| format!("`{f}`"))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "let Q = Q;\n\
         theta := dict(f in [|{set}|]) 0.0;\n\
         while (_iter < {iterations}) {{\n  \
         theta := dict(f1 in [|{set}|]) theta(f1) - {alpha:e} * (sum(x in dom(Q)) Q(x) * \
         ((sum(f2 in [|{set}|]) theta(f2) * x[f2]) - x[`{label}`]) * x[f1])\n\
         }}\n\
         theta"
    )
}

/// Largest absolute value of each attribute, wherever it is stored.
fn max_abs(db: &StarDb, attrs: &[&str]) -> Vec<f64> {
    attrs
        .iter()
        .map(|a| {
            let col = db
                .fact
                .column(a)
                .or_else(|| db.dims.iter().find_map(|d| d.rel.column(a)))
                .expect("feature is stored");
            (0..col.len())
                .map(|i| col.get_f64(i).abs())
                .fold(0.0, f64::max)
        })
        .collect()
}

/// Generates the retailer star and the program text for `seed`.
pub fn generate(ctx: &Ctx) -> Inputs {
    let ds: Dataset = ctx.tracer.span("datagen.generate", || {
        ifaq_datagen::retailer(RETAILER_ROWS, ctx.seed)
    });
    let db = ds.train();
    let features: Vec<&str> = ds
        .feature_refs()
        .into_iter()
        .step_by(FEATURE_STRIDE)
        .collect();
    let alpha = reference::safe_alpha(db.fact_rows(), &max_abs(&db, &features));
    let source = program_text(&features, &ds.label, alpha, ITERATIONS);
    Inputs {
        features: features.iter().map(|f| f.to_string()).collect(),
        label: ds.label.clone(),
        db,
        alpha,
        source,
    }
}

/// Program text → compiled program and the cost-chosen layout, each
/// layer call in its own span.
pub fn compile(ctx: &Ctx, inputs: &Inputs) -> Result<(Compiled, Layout), String> {
    let t = &ctx.tracer;
    let db = &inputs.db;
    let program = t
        .span("ir.parse", || {
            ifaq_ir::parser::parse_program(&inputs.source)
        })
        .map_err(|e| e.to_string())?;
    let compiled = t
        .span("core.compile", || {
            let catalog = db.catalog().with_var_size("Q", db.fact_rows() as u64);
            Pipeline::new(catalog).compile(&program, &CompileOptions::for_star_db(db))
        })
        .map_err(|e| e.to_string())?;
    let analysis = t
        .span("query.analyze", || compiled.analyze(db))
        .map_err(|e| e.to_string())?
        .ok_or("the program extracted no aggregates")?;
    Ok((compiled, analysis.chosen))
}

/// The residual program over batch results.
fn interpret(compiled: &Compiled, aggs: &[f64]) -> Result<Value, String> {
    let mut env = Env::new();
    for (i, v) in aggs.iter().enumerate() {
        env.insert(Extraction::agg_var(i), Value::real(*v));
    }
    Interpreter::with_max_iterations(1_000_000)
        .run(&env, &compiled.program)
        .map_err(|e| e.to_string())
}

/// The engine's result: batch aggregates and θ in feature order.
pub struct EngineResult {
    /// Aggregate batch, in batch order.
    pub aggs: Vec<f64>,
    /// θ, in feature order.
    pub theta: Vec<f64>,
}

/// One full training run through the engine, from program text.
pub fn train(ctx: &Ctx, inputs: &Inputs) -> Result<(Compiled, Layout, EngineResult), String> {
    let t = &ctx.tracer;
    let db = &inputs.db;
    let (compiled, layout) = compile(ctx, inputs)?;
    let prepared = t
        .span("engine.prepare", || compiled.prepare(db, layout))
        .map_err(|e| e.to_string())?;
    let aggs = t.span("engine.scan", || {
        compiled.run_batch_prepared(db, &prepared, &ctx.cfg)
    });
    let value = t.span("engine.interp", || interpret(&compiled, &aggs))?;
    let theta = theta_values(&value, &inputs.feature_refs())?;
    Ok((compiled, layout, EngineResult { aggs, theta }))
}

/// θ entries of a record value, in feature order.
pub fn theta_values(v: &Value, features: &[&str]) -> Result<Vec<f64>, String> {
    let Value::Record(fields) = v else {
        return Err(format!("expected a θ record, got {v}"));
    };
    features
        .iter()
        .map(|f| {
            fields
                .iter()
                .find(|(n, _)| n.as_str() == *f)
                .and_then(|(_, x)| x.as_f64())
                .ok_or_else(|| format!("θ has no numeric `{f}`"))
        })
        .collect()
}

/// Checks both vectors agree within [`TOL`].
pub fn check_close(ctx: &mut Ctx, what: &str, got: &[f64], want: &[f64]) {
    let ok = got.len() == want.len()
        && got.iter().zip(want).all(|(a, b)| close(*a, *b, TOL))
        && got.iter().all(|v| v.is_finite());
    ctx.report.check(
        what,
        ok,
        format!("{} values, {}", got.len(), worst(got, want)),
    );
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let mut last = None;
    let (inputs, samples) = ctx.measure(
        3,
        |ctx| Ok(generate(ctx)),
        |ctx, inputs| {
            last = Some(train(ctx, inputs)?);
            ctx.report.ops(1, 0);
            Ok(())
        },
    )?;
    ctx.account(&samples);
    let (compiled, layout, result) = last.expect("at least one sample");
    let rows = inputs.db.fact_rows();
    ctx.desc.num("fact_rows", rows as f64);
    ctx.desc.num("features", inputs.features.len() as f64);
    ctx.desc.num("iterations", ITERATIONS as f64);
    ctx.desc.num("alpha", inputs.alpha);
    ctx.desc.text("layout", &format!("{layout:?}"));
    ctx.desc.num("aggregates", compiled.batch.len() as f64);

    if ctx.traced {
        report_layers(ctx, &inputs, &compiled, rows);
    }

    // Correctness, outside the timed region: the materialize-first
    // pipeline is the reference.
    let features = inputs.feature_refs();
    let m = ctx.probe(|ctx| {
        ctx.tracer
            .span("baseline.materialize", || inputs.db.materialize())
    });
    let reference = ctx.probe(|ctx| {
        ctx.tracer.span("baseline.learn", || {
            reference::linreg_bgd(&m, &features, &inputs.label, inputs.alpha, ITERATIONS)
        })
    })?;
    let batch_ref = ifaq_ml::tree::batch_over_matrix(&m, &compiled.batch);
    check_close(
        ctx,
        "batch = batch_over_matrix(materialized)",
        &result.aggs,
        &batch_ref,
    );
    check_close(
        ctx,
        "θ = plain BGD(materialized)",
        &result.theta,
        &reference,
    );
    let moved = result.theta.iter().any(|t| *t != 0.0);
    ctx.report.check(
        "θ moved from 0",
        moved,
        format!("{} entries", result.theta.len()),
    );
    if ctx.traced {
        ctx.layer("baseline.materialize_s", &["baseline.materialize"]);
        ctx.layer("baseline.learn_s", &["baseline.learn"]);
    }
    Ok(())
}

/// Per-layer metrics of the traced samples, plus the transform-stage
/// probes (§4.1 and §4.2 called separately on the parsed program).
fn report_layers(ctx: &mut Ctx, inputs: &Inputs, compiled: &Compiled, rows: usize) {
    for _ in 0..3 {
        ctx.probe(|ctx| {
            let t = &ctx.tracer;
            let program = ifaq_ir::parser::parse_program(&inputs.source).expect("parsed before");
            let catalog = inputs
                .db
                .catalog()
                .with_var_size("Q", inputs.db.fact_rows() as u64);
            let (high, _) = t.span("transform.highlevel", || {
                ifaq_transform::highlevel::optimize_program(&program, &catalog)
            });
            t.span("transform.specialize", || {
                ifaq_transform::specialize::specialize_program(&high)
            });
        });
    }
    ctx.layer("transform.highlevel_s", &["transform.highlevel"]);
    ctx.layer("transform.specialize_s", &["transform.specialize"]);
    ctx.layer("core.compile_s", &["core.compile"]);
    ctx.layer("query.analyze_s", &["query.analyze"]);
    ctx.layer("engine.prepare_s", &["engine.prepare"]);
    ctx.layer("engine.scan_s", &["engine.scan"]);
    ctx.layer("engine.interp_s", &["engine.interp"]);
    ctx.layer("compile_s", &["ir.parse", "core.compile", "query.analyze"]);
    if let Some(interp) = ctx.report.get("engine.interp_s") {
        let per_iter_ms = interp * 1e3 / ITERATIONS as f64;
        ctx.report.set("engine.interp_iter_ms", per_iter_ms);
    }
    if let Some(scan) = ctx.report.get("engine.scan_s") {
        ctx.report.set("engine.scan_rows_per_s", rows as f64 / scan);
    }
    let s = &compiled.stages;
    let r = &s.high_level_report;
    ctx.report
        .set("transform.rule_firings", r.total_firings() as f64);
    ctx.report.set("transform.memoized", r.memoized as f64);
    ctx.report
        .set("transform.hoisted", r.hoisted_out_of_loop as f64);
    ctx.report
        .set("ir.nodes.input", s.input.node_count() as f64);
    ctx.report
        .set("ir.nodes.highlevel", s.high_level.node_count() as f64);
    ctx.report
        .set("ir.nodes.specialized", s.specialized.node_count() as f64);
    ctx.report
        .set("ir.nodes.residual", s.residual.node_count() as f64);
    ctx.report
        .set("query.aggregates", compiled.batch.len() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_text_parses_to_the_library_program() {
        let features = ["a", "b", "c"];
        let alpha = 1.2345678901234567e-9;
        let text = program_text(&features, "y", alpha, 7);
        let parsed = ifaq_ir::parser::parse_program(&text).expect("parses");
        let built = ifaq_transform::highlevel::linear_regression_program(
            &features,
            "y",
            ifaq_ir::Expr::var("Q"),
            alpha,
            7,
        );
        assert_eq!(parsed, built);
    }
}
