//! `favorita-ooc-logreg`: logistic regression trained out of core from an
//! `IFAQTBL1` export of binarized favorita. Set-up writes the export and
//! drops the resident tables; every training iteration re-streams the
//! fact file, so this is the workload where `ifaq_storage::stream` and
//! `ifaq_engine::stream` do the work and where peak memory is the point.

use crate::Ctx;
use ifaq_engine::stream::{execute_streaming, plan_fact_columns, prepare_streaming, StreamSource};
use ifaq_engine::{Layout, StarDb};
use ifaq_ml::logreg::{self, LogisticModel};
use ifaq_query::batch::covar_batch;
use ifaq_query::{analysis, JoinTree, ViewPlan};
use ifaq_storage::stream::ChunkedReader;
use std::path::PathBuf;

/// Fact rows generated (the training split keeps 90%).
const FAVORITA_ROWS: usize = 250_000;
/// Gradient-descent iterations.
const ITERATIONS: usize = 10;
/// Learning rate (the trainer standardizes features).
const LEARNING_RATE: f64 = 0.5;

struct Inputs {
    dir: PathBuf,
    features: Vec<String>,
    label: String,
    layout: Layout,
    rows: usize,
}

/// The covar plan over a star (the trainer's loop-invariant pass).
fn covar_plan(db: &StarDb, features: &[&str], label: &str) -> (ViewPlan, ifaq_query::AggBatch) {
    let cat = db.catalog();
    let dims: Vec<&str> = db.dims.iter().map(|d| d.rel.name.as_str()).collect();
    let jt = JoinTree::build_with_root(&cat, db.fact.name.as_str(), &dims).expect("join tree");
    let batch = covar_batch(features, label);
    (ViewPlan::plan(&batch, &jt, &cat).expect("plan"), batch)
}

fn bits(m: &LogisticModel) -> Vec<u64> {
    std::iter::once(m.intercept)
        .chain(m.weights.iter().copied())
        .map(f64::to_bits)
        .collect()
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let dir = ctx.work.join("export");
    let setup = |ctx: &mut Ctx| {
        let t = &ctx.tracer;
        let ds = t.span("datagen.generate", || {
            ifaq_datagen::favorita(FAVORITA_ROWS, ctx.seed).binarize_label()
        });
        let db = ds.train();
        let features = ds.feature_refs();
        // The layout the cost model picks for the covar pass.
        let (plan, batch) = covar_plan(&db, &features, &ds.label);
        let layout = analysis::analyze(&db.catalog(), &plan, &batch).chosen;
        let _ = std::fs::remove_dir_all(&dir);
        t.span("storage.export", || db.export_dir(&dir))
            .map_err(|e| format!("export to {}: {e}", dir.display()))?;
        Ok(Inputs {
            dir: dir.clone(),
            features: ds.features.clone(),
            label: ds.label.clone(),
            layout,
            rows: db.fact_rows(),
        })
    };
    // Nothing resident survives set-up but names and the file path.
    let mut last: Option<LogisticModel> = None;
    let (inputs, samples) = ctx.measure(3, setup, |ctx, inputs| {
        let t = &ctx.tracer;
        let features: Vec<&str> = inputs.features.iter().map(String::as_str).collect();
        let src = t
            .span("storage.open", || StreamSource::open_dir(&inputs.dir))
            .map_err(|e| e.to_string())?;
        let model = t
            .span("ml.logreg.fit_streamed", || {
                logreg::fit_streamed(
                    &src,
                    &features,
                    &inputs.label,
                    inputs.layout,
                    LEARNING_RATE,
                    ITERATIONS,
                    &ctx.cfg,
                )
            })
            .map_err(|e| e.to_string())?;
        last = Some(model);
        ctx.report.ops(1, 0);
        Ok(())
    })?;
    ctx.account(&samples);
    let features: Vec<&str> = inputs.features.iter().map(String::as_str).collect();
    let (label, layout) = (inputs.label.as_str(), inputs.layout);
    ctx.desc.num("fact_rows", inputs.rows as f64);
    ctx.desc.num("features", features.len() as f64);
    ctx.desc.num("iterations", ITERATIONS as f64);
    ctx.desc.text("layout", &format!("{layout:?}"));
    let model = last.expect("at least one sample");

    if ctx.traced {
        report_layers(ctx, &inputs, &features)?;
    }

    // Correctness: bit-identical to the resident trainer at the same
    // chunk size, over the same data read back from the export.
    let db = StarDb::import_dir(&inputs.dir).map_err(|e| e.to_string())?;
    let resident = logreg::fit_factorized_cfg(
        &db,
        &features,
        label,
        layout,
        LEARNING_RATE,
        ITERATIONS,
        &ctx.cfg,
    );
    ctx.report.check(
        "model = fit_factorized_cfg(resident), bitwise",
        bits(&model) == bits(&resident) && model.features == resident.features,
        format!("intercept {} vs {}", model.intercept, resident.intercept),
    );
    let finite = bits(&model).iter().all(|b| f64::from_bits(*b).is_finite());
    let moved = model.weights.iter().any(|w| *w != 0.0);
    ctx.report.check(
        "model finite and moved",
        finite && moved,
        format!("{:?}", model.weights),
    );
    Ok(())
}

/// Stream-layer probes: an I/O-only pass over the plan's projected fact
/// columns, one streamed covar pass with its `StreamStats`, and the
/// per-iteration cost as the difference between a full fit and a
/// zero-iteration fit.
fn report_layers(ctx: &mut Ctx, inputs: &Inputs, features: &[&str]) -> Result<(), String> {
    let label = inputs.label.as_str();
    let src = StreamSource::open_dir(&inputs.dir).map_err(|e| e.to_string())?;
    let (plan, _) = covar_plan(src.schema_db(), features, label);
    let cols: Vec<String> = plan_fact_columns(&plan)
        .iter()
        .map(|s| s.to_string())
        .collect();
    let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
    let mut stats = None;
    let mut fit0 = Vec::new();
    for _ in 0..3 {
        let r: Result<(), String> = ctx.probe(|ctx| {
            let t = &ctx.tracer;
            let chunk_rows = ctx.cfg.chunk_rows;
            t.span("storage.read_pass", || -> Result<(), String> {
                let mut reader = ChunkedReader::open(src.fact_path()).map_err(|e| e.to_string())?;
                let proj = reader.projection(&col_refs).map_err(|e| e.to_string())?;
                for chunk in reader.chunks(chunk_rows, proj) {
                    std::hint::black_box(chunk.map_err(|e| e.to_string())?);
                }
                Ok(())
            })?;
            let prep = prepare_streaming(inputs.layout, &plan, src.schema_db(), src.fact_rows());
            let (_, s) = t
                .span("engine.stream_pass", || {
                    execute_streaming(&plan, &src, &prep, &ctx.cfg)
                })
                .map_err(|e| e.to_string())?;
            stats = Some(s);
            let start = std::time::Instant::now();
            logreg::fit_streamed(
                &src,
                features,
                label,
                inputs.layout,
                LEARNING_RATE,
                0,
                &ctx.cfg,
            )
            .map_err(|e| e.to_string())?;
            fit0.push(start.elapsed().as_secs_f64());
            Ok(())
        });
        r?;
    }
    ctx.layer("storage.open_s", &["storage.open"]);
    ctx.layer("storage.read_pass_s", &["storage.read_pass"]);
    ctx.layer("engine.stream_pass_s", &["engine.stream_pass"]);
    let fit: Vec<f64> = crate::trace::per_run_secs(&ctx.tracer.spans(), "ml.logreg.fit_streamed")
        .values()
        .copied()
        .collect();
    if let (Some(f), Some(f0)) = (crate::stats::median(&fit), crate::stats::median(&fit0)) {
        ctx.report
            .set("ml.logreg.iter_s", (f - f0) / ITERATIONS as f64);
    }
    let s = stats.expect("three probes");
    ctx.report.set("engine.stream_chunks", s.chunks as f64);
    ctx.report.set("engine.stream_rows", s.rows as f64);
    ctx.report
        .set("engine.peak_live_chunks", s.peak_live_chunks as f64);
    Ok(())
}
