//! `retailer-linreg-cpp`: the `retailer-linreg` program and data through
//! §4.4 instead of the engine — the prepared plan is emitted as C++,
//! compiled with the host compiler at -O3, and run on an `IFAQTBL1`
//! export of the same star. Its inputs match `retailer-linreg`, so the
//! generated code and the engine are compared in one harness.

use crate::linreg::{self, check_close, ITERATIONS};
use crate::Ctx;
use ifaq_codegen::cpp::{emit_program, Workload};
use ifaq_codegen::harness::{self, RunResult};
use std::path::PathBuf;

/// Runs the workload.
pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let cxx = crate::host::require_cxx()?;
    let data = ctx.work.join("export");
    let setup = |ctx: &mut Ctx| {
        let inputs = linreg::generate(ctx);
        let _ = std::fs::remove_dir_all(&data);
        ctx.tracer
            .span("storage.export", || inputs.db.export_dir(&data))
            .map_err(|e| format!("export to {}: {e}", data.display()))?;
        Ok(inputs)
    };
    let mut last: Option<(RunResult, usize)> = None;
    let mut own_times = (Vec::new(), Vec::new());
    let mut layout = None;
    let mut n = 0usize;
    let (inputs, samples) = ctx.measure(1, setup, |ctx, inputs| {
        let t = &ctx.tracer;
        let (compiled, chosen) = linreg::compile(ctx, inputs)?;
        let prepared = t
            .span("engine.prepare", || compiled.prepare(&inputs.db, chosen))
            .map_err(|e| e.to_string())?;
        let plan = prepared.plan().ok_or("empty batch")?;
        let mut program = t.span("codegen.emit", || {
            emit_program(
                plan,
                &compiled.batch,
                &Workload::Linreg {
                    features: inputs.features.clone(),
                    label: inputs.label.clone(),
                    alpha: inputs.alpha,
                    iterations: ITERATIONS,
                },
                &inputs.db.catalog(),
            )
        });
        program.name = "retailer_linreg".into();
        let dir: PathBuf = ctx.work.join(format!("cxx-{n}"));
        n += 1;
        let bin = t
            .span("codegen.cxx", || harness::compile(&program, &dir, &cxx))
            .map_err(|e| e.to_string())?;
        let result = t
            .span("codegen.run", || harness::run(&bin, &data))
            .map_err(|e| e.to_string())?;
        let _ = std::fs::remove_dir_all(&dir);
        own_times.0.push(result.load_time.as_secs_f64());
        own_times.1.push(result.train_time.as_secs_f64());
        last = Some((result, program.source.len()));
        layout = Some(chosen);
        ctx.report.ops(1, 0);
        Ok(())
    })?;
    ctx.account(&samples);
    let features = inputs.feature_refs();
    ctx.desc.num("fact_rows", inputs.db.fact_rows() as f64);
    ctx.desc.num("features", features.len() as f64);
    ctx.desc.num("iterations", ITERATIONS as f64);
    ctx.desc.num("alpha", inputs.alpha);
    ctx.desc
        .text("cxx_command", &format!("{} -O3 -std=c++17", cxx.command));
    let (result, source_bytes) = last.expect("at least one sample");
    let layout = layout.expect("at least one sample");
    ctx.desc.text(
        "layout",
        &format!("{layout:?} (plan source for the emitter)"),
    );

    if ctx.traced {
        for (metric, span) in [
            ("core.compile_s", "core.compile"),
            ("query.analyze_s", "query.analyze"),
            ("engine.prepare_s", "engine.prepare"),
            ("codegen.emit_s", "codegen.emit"),
            ("codegen.cxx_s", "codegen.cxx"),
        ] {
            ctx.layer(metric, &[span]);
        }
        ctx.layer("compile_s", &["codegen.emit", "codegen.cxx"]);
        ctx.report.set("codegen.source_bytes", source_bytes as f64);
        // The generated program times its own load and training.
        let median = |v: &[f64]| crate::stats::median(v).expect("samples");
        ctx.report.set("codegen.load_s", median(&own_times.0));
        ctx.report.set("codegen.train_s", median(&own_times.1));
    }

    // Correctness: the engine on the same program and data.
    let (_, _, engine) = linreg::train(ctx, &inputs)?;
    ctx.report.check(
        "generated program loaded every fact row",
        result.rows as usize == inputs.db.fact_rows(),
        format!("{} rows", result.rows),
    );
    check_close(
        ctx,
        "generated aggregates = engine batch",
        &result.aggregate_values(),
        &engine.aggs,
    );
    let theta: Vec<f64> = result.theta.iter().map(|(_, v)| *v).collect();
    let names_match = result
        .theta
        .iter()
        .map(|(f, _)| f.as_str())
        .eq(features.iter().copied());
    ctx.report.check(
        "generated θ names = features",
        names_match,
        format!("{} entries", theta.len()),
    );
    check_close(ctx, "generated θ = engine θ", &theta, &engine.theta);
    Ok(())
}
