//! `retailer-serve`: a resident `ServeEngine` over retailer under writes
//! and reads at once. An open-loop writer on the main thread applies
//! 10-row deltas (8 inserts, 2 deletes of rows it inserted earlier) and
//! refits after each; an open-loop reader on one more thread calls
//! `predict()`. A closed-loop, writer-only phase then measures the
//! highest delta rate the engine sustains.
//!
//! `train_s` here is the time from a delta being due until the served
//! model reflects it (`apply_delta` + `refit`), median over the deltas.

use crate::stats::{self, open_loop, WallClock};
use crate::{close, worst, Ctx};
use ifaq_engine::{Layout, StarDb};
use ifaq_query::batch::covar_batch;
use ifaq_query::{analysis, JoinTree, ViewPlan};
use ifaq_serve::{DeltaBatch, ServeConfig, ServeEngine};
use ifaq_storage::Column;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Fact rows generated (the training split keeps 90%).
const RETAILER_ROWS: usize = 70_000;
/// Open-loop writer rate, deltas per second (about half of the
/// closed-loop rate on a 2-vCPU host).
const WRITE_RATE: f64 = 15.0;
/// Open-loop reader rate, `predict()` calls per second.
const READ_RATE: f64 = 1_000.0;
/// Inserts and deletes per delta.
const INSERTS: usize = 8;
const DELETES: usize = 2;
/// Share of the measuring window given to the open-loop phase; the rest
/// is the closed-loop saturation phase.
const OPEN_SHARE: f64 = 0.8;
/// Deltas planned per second of the closed-loop phase.
const CLOSED_RATE_CAP: f64 = 400.0;
/// Probe repetitions in the traced run.
const PROBES: usize = 5;

/// SplitMix64: a seeded, dependency-free generator for the inputs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Fresh fact rows: stored rows (so keys join) with perturbed measures.
fn fresh_rows(db: &StarDb, rng: &mut Rng, k: usize) -> Vec<Vec<f64>> {
    let n = db.fact.len();
    (0..k)
        .map(|_| {
            let src = (rng.next() % n as u64) as usize;
            db.fact
                .columns
                .iter()
                .map(|c| match c {
                    Column::I64(_) => c.get_f64(src),
                    Column::F64(_) => c.get_f64(src) + rng.unit(),
                })
                .collect()
        })
        .collect()
}

/// The writer's deltas: each inserts [`INSERTS`] fresh rows and deletes
/// the [`DELETES`] oldest rows inserted earlier (`pool` holds them).
fn plan_deltas(
    db: &StarDb,
    rng: &mut Rng,
    pool: &mut VecDeque<Vec<f64>>,
    n: usize,
) -> Vec<DeltaBatch> {
    (0..n)
        .map(|_| {
            let mut batch = DeltaBatch::new();
            for _ in 0..DELETES {
                batch = batch.delete(pool.pop_front().expect("pool holds earlier inserts"));
            }
            for row in fresh_rows(db, rng, INSERTS) {
                pool.push_back(row.clone());
                batch = batch.insert(row);
            }
            batch
        })
        .collect()
}

struct Setup {
    engine: ServeEngine,
    features: Vec<String>,
    label: String,
    config: ServeConfig,
    layout: Layout,
    rows: usize,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let mut rng = Rng(ctx.seed ^ 0x5EED_5E4E);
    let mut pool = VecDeque::new();
    let setup = ctx.setup(|ctx| {
        let t = &ctx.tracer;
        let ds = t.span("datagen.generate", || {
            ifaq_datagen::retailer(RETAILER_ROWS, ctx.seed)
        });
        let db = ds.train();
        let features = ds.feature_refs();
        let cat = db.catalog();
        let dims: Vec<&str> = db.dims.iter().map(|d| d.rel.name.as_str()).collect();
        let jt = JoinTree::build_with_root(&cat, db.fact.name.as_str(), &dims)
            .map_err(|e| e.to_string())?;
        let batch = covar_batch(&features, &ds.label);
        let plan = ViewPlan::plan(&batch, &jt, &cat).map_err(|e| e.to_string())?;
        let layout = analysis::analyze(&cat, &plan, &batch).chosen;
        let config = ServeConfig::new(layout).with_exec(ctx.cfg);
        let rows = db.fact_rows();
        let engine = t.span("serve.engine_build", || {
            ServeEngine::new(db, &features, &ds.label, config.clone())
        });
        Ok(Setup {
            engine,
            features: ds.features.clone(),
            label: ds.label.clone(),
            config,
            layout,
            rows,
        })
    })?;
    let engine = &setup.engine;
    ctx.desc.num("fact_rows", setup.rows as f64);
    ctx.desc.num("features", setup.features.len() as f64);
    ctx.desc.text("layout", &format!("{:?}", setup.layout));
    ctx.desc.num("write_rate", WRITE_RATE);
    ctx.desc.num("read_rate", READ_RATE);
    ctx.desc.text(
        "delta",
        &format!("{INSERTS} inserts + {DELETES} deletes, refit after each"),
    );

    // Inputs for the whole session, made before the clock starts: a
    // priming insert (so the first deltas have rows to delete), the
    // deltas, and the reader's feature vectors.
    let db = engine.db_snapshot();
    let priming_rows = fresh_rows(&db, &mut rng, INSERTS);
    pool.extend(priming_rows.iter().cloned());
    let priming = DeltaBatch::from_inserts(priming_rows);
    engine
        .apply_delta(&priming)
        .map_err(|e| format!("priming delta: {e}"))?;
    let open_s = ctx.seconds * OPEN_SHARE;
    let closed_s = ctx.seconds - open_s;
    let n_open = (open_s * WRITE_RATE).ceil() as usize + 1;
    let open_deltas = plan_deltas(&db, &mut rng, &mut pool, n_open);
    let d = setup.features.len();
    let reads: Vec<Vec<f64>> = (0..1024)
        .map(|_| (0..d).map(|_| 10.0 * rng.unit()).collect())
        .collect();
    // Enough for the closed loop at [`CLOSED_RATE_CAP`]; running out
    // only ends that phase early.
    let n_closed = (closed_s * CLOSED_RATE_CAP).ceil() as usize;
    let closed_deltas = plan_deltas(&db, &mut rng, &mut pool, n_closed);
    crate::host::reset_peak_rss()?;

    // Open-loop phase: writer here, reader on one more thread.
    let stop = AtomicBool::new(false);
    let mut delta_failures = Vec::new();
    let mut apply_lat = Vec::new();
    let mut runs = Vec::new();
    let (writes, read_timed, read_failed) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut failed = 0u64;
            let timed = open_loop(
                &WallClock,
                Duration::from_secs_f64(1.0 / READ_RATE),
                |_, _| stop.load(Ordering::Relaxed),
                |i, _| {
                    if !engine.predict(&reads[i % reads.len()]).is_finite() {
                        failed += 1;
                    }
                },
            );
            (timed, failed)
        });
        let begin = Instant::now();
        let window = Duration::from_secs_f64(open_s);
        let period = Duration::from_secs_f64(1.0 / WRITE_RATE);
        let writes = open_loop(
            &WallClock,
            period,
            |i, due| i == open_deltas.len() || due.saturating_duration_since(begin) >= window,
            |i, due| {
                let traced = ctx.traced && i % 2 == 1;
                ctx.tracer.set_enabled(traced);
                let run = ctx.tracer.next_run();
                let t = &ctx.tracer;
                match t.span("serve.apply_delta", || engine.apply_delta(&open_deltas[i])) {
                    Ok(r) if r.inserted == INSERTS && r.deleted == DELETES && !r.noop => {}
                    other => delta_failures.push(format!("delta {i}: {other:?}")),
                }
                apply_lat.push(due.elapsed());
                t.span("serve.refit", || engine.refit());
                ctx.tracer.set_enabled(false);
                runs.push((traced, run));
            },
        );
        stop.store(true, Ordering::Relaxed);
        let (read_timed, read_failed) = reader.join().expect("reader thread");
        (writes, read_timed, read_failed)
    });

    // Closed-loop, writer-only phase: deltas back to back.
    let begin = Instant::now();
    let mut closed = 0usize;
    while closed < closed_deltas.len() && begin.elapsed().as_secs_f64() < closed_s {
        match engine.apply_delta(&closed_deltas[closed]) {
            Ok(r) if r.inserted == INSERTS && r.deleted == DELETES => {}
            other => delta_failures.push(format!("closed delta {closed}: {other:?}")),
        }
        closed += 1;
    }
    let rate = closed as f64 / begin.elapsed().as_secs_f64();
    ctx.report
        .set("train_peak_rss_mib", crate::host::peak_rss_mib()?);

    // Metrics: train_s is the refresh latency of untraced deltas.
    let lat = |traced: bool| -> Vec<f64> {
        writes
            .iter()
            .zip(&runs)
            .filter(|(_, (t, _))| *t == traced)
            .map(|(w, _)| w.latency.as_secs_f64())
            .collect()
    };
    let untraced = lat(false);
    let samples = crate::Samples {
        untraced: untraced.clone(),
        traced: writes
            .iter()
            .zip(&runs)
            .filter(|(_, (t, _))| *t)
            .map(|(w, (_, run))| (*run, w.latency.as_secs_f64()))
            .collect(),
    };
    ctx.account(&samples);
    let r = &mut ctx.report;
    let apply_ms: Vec<f64> = apply_lat.iter().map(|d| ms(*d)).collect();
    r.set(
        "serve.delta_p50_ms",
        stats::median(&apply_ms).unwrap_or(0.0),
    );
    if let Some(t) = stats::tail(&apply_ms) {
        r.set("serve.delta_tail_ms", t.value);
        r.set("serve.delta_tail_pct", t.percentile);
    }
    r.set("serve.deltas", writes.len() as f64);
    let read_us: Vec<f64> = read_timed
        .iter()
        .map(|t| t.latency.as_secs_f64() * 1e6)
        .collect();
    r.set("serve.read_p50_us", stats::median(&read_us).unwrap_or(0.0));
    if let Some(t) = stats::tail(&read_us) {
        r.set("serve.read_tail_us", t.value);
        r.set("serve.read_tail_pct", t.percentile);
    }
    r.set("serve.reads", read_timed.len() as f64);
    r.set("serve.max_delta_rate", rate);
    let late = writes
        .iter()
        .chain(&read_timed)
        .map(|t| t.late)
        .max()
        .unwrap_or_default();
    r.set("serve.generator_late_ms", ms(late));
    let (hits, misses) = engine.prep_cache_stats();
    r.set(
        "serve.prep_cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    r.set("serve.prep_cache_lookups", (hits + misses) as f64);
    let n_deltas = (writes.len() + closed) as u64;
    r.ops(n_deltas, delta_failures.len() as u64);
    r.ops(read_timed.len() as u64, read_failed);
    ctx.desc.num("closed_loop_deltas", closed as f64);

    // Correctness: every delta applied as planned, and the maintained
    // totals equal a fresh engine's over the final database.
    ctx.report.check(
        "every delta Ok with 8 inserts + 2 deletes",
        delta_failures.is_empty(),
        delta_failures
            .first()
            .cloned()
            .unwrap_or_else(|| format!("{n_deltas} deltas")),
    );
    ctx.report.check(
        "every predict() finite",
        read_failed == 0,
        format!("{} reads", read_timed.len()),
    );
    let features: Vec<&str> = setup.features.iter().map(String::as_str).collect();
    let fresh = ServeEngine::new(
        engine.db_snapshot(),
        &features,
        &setup.label,
        setup.config.clone(),
    );
    let (got, want) = (engine.totals(), fresh.totals());
    let ok = got.len() == want.len() && got.iter().zip(&want).all(|(a, b)| close(*a, *b, 1e-6));
    ctx.report.check(
        "maintained totals = fresh ServeEngine::new(db_snapshot())",
        ok,
        format!("{} totals, {}", got.len(), worst(&got, &want)),
    );
    ctx.report.check(
        "fact rows grew by the net inserts",
        engine.fact_rows() == setup.rows + INSERTS + (INSERTS - DELETES) * n_deltas as usize,
        format!("{} rows", engine.fact_rows()),
    );

    if ctx.traced {
        probe_phases(ctx, engine, &db, &mut rng)?;
    }
    Ok(())
}

/// Attributes `apply_delta` from the outside: batches that net to
/// nothing (validate + net), insert-only batches (+ Δ-scan + commit),
/// delete-only batches (+ resolving deletes against stored rows), and
/// `refit()` alone.
fn probe_phases(
    ctx: &mut Ctx,
    engine: &ServeEngine,
    db: &StarDb,
    rng: &mut Rng,
) -> Result<(), String> {
    let n = INSERTS + DELETES;
    for _ in 0..PROBES {
        let rows = fresh_rows(db, rng, n);
        let noop = rows.iter().fold(DeltaBatch::new(), |b, r| {
            b.insert(r.clone()).delete(r.clone())
        });
        let inserts = DeltaBatch::from_inserts(rows.clone());
        let deletes = rows
            .iter()
            .fold(DeltaBatch::new(), |b, r| b.delete(r.clone()));
        let r: Result<(), String> = ctx.probe(|ctx| {
            let t = &ctx.tracer;
            let e = |e| format!("probe: {e}");
            let a = t
                .span("serve.noop", || engine.apply_delta(&noop))
                .map_err(e)?;
            let b = t
                .span("serve.insert", || engine.apply_delta(&inserts))
                .map_err(e)?;
            let c = t
                .span("serve.delete", || engine.apply_delta(&deletes))
                .map_err(e)?;
            t.span("serve.refit", || engine.refit());
            if !a.noop || b.inserted != n || c.deleted != n {
                return Err(format!("probe batches misapplied: {a:?} {b:?} {c:?}"));
            }
            Ok(())
        });
        r?;
    }
    ctx.layer("serve.noop_ms", &["serve.noop"]);
    ctx.layer("serve.insert_ms", &["serve.insert"]);
    ctx.layer("serve.delete_ms", &["serve.delete"]);
    ctx.layer("serve.refit_ms", &["serve.refit"]);
    Ok(())
}
