//! End-to-end benchmark of the IFAQ stack.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload (see `README.md` for the list and for
//! which layer each metric belongs to). For `--seconds` it repeats one
//! sample: set the workload up from `--seed`, then train. Afterwards it
//! checks the output against an independent reference outside the timed
//! region, and prints one JSON
//! result as its last line: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. A traced run alternates traced and
//! untraced samples, so it also reports what tracing itself costs.
//!
//! The benchmark drives the system only through public functions of its
//! crates and times each call from the outside; the descriptor, the
//! metrics and the spans of a run are written to
//! `e2ebench/out/<workload>-seed<n>-trace<t>.{json,spans.jsonl}`.

mod cpp;
mod host;
mod linreg;
mod ooc;
mod reference;
mod report;
mod serve;
mod stats;
mod trace;
mod tree;

use host::Descriptor;
use ifaq_engine::ExecConfig;
use report::Report;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 5] = [
    "retailer-linreg",
    "favorita-tree",
    "favorita-ooc-logreg",
    "retailer-serve",
    "retailer-linreg-cpp",
];

/// Rows per chunk for every engine pass (fixed, so results and chunk
/// counts do not depend on the host).
pub const CHUNK_ROWS: usize = 2_048;

/// Set-up repetitions before a session: at least this many ...
const SETUP_MIN_REPS: usize = 3;
/// ... and more, while their total stays under this many seconds.
const SETUP_TARGET_S: f64 = 1.5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing {k}"));
    for k in flags.keys() {
        if !["--workload", "--seed", "--seconds", "--trace"].contains(k) {
            return Err(format!("unknown flag {k}"));
        }
    }
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; one of {WORKLOADS:?}"
        ));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match flags.get("--trace").copied().unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Everything a workload needs while it runs.
pub struct Ctx {
    /// Workload seed: the only source of input variation.
    pub seed: u64,
    /// Length of the measuring window.
    pub seconds: f64,
    /// The engine configuration every pass runs with.
    pub cfg: ExecConfig,
    /// Whether this is the traced run.
    pub traced: bool,
    /// Span recorder (enabled only for traced samples).
    pub tracer: Tracer,
    /// Scratch directory inside the checkout, removed at exit.
    pub work: PathBuf,
    /// Results.
    pub report: Report,
    /// Set-up facts for the record.
    pub desc: Descriptor,
}

/// Timings of the measured samples.
pub struct Samples {
    /// Seconds per untraced sample.
    pub untraced: Vec<f64>,
    /// `(run id, seconds)` per traced sample.
    pub traced: Vec<(u64, f64)>,
}

impl Ctx {
    /// Runs `setup` repeatedly before a session that has no samples to
    /// interleave it with (at least [`SETUP_MIN_REPS`] times, more while
    /// cheap), reports the median as `setup_s`, and returns the last
    /// result. Each repetition is one tracer run, so set-up layer spans
    /// can be read per repetition.
    pub fn setup<T>(
        &mut self,
        mut setup: impl FnMut(&mut Ctx) -> Result<T, String>,
    ) -> Result<T, String> {
        let mut times = Vec::new();
        let mut last = None;
        let begin = Instant::now();
        while times.len() < SETUP_MIN_REPS || begin.elapsed().as_secs_f64() < SETUP_TARGET_S {
            drop(last.take());
            self.tracer.set_enabled(self.traced);
            self.tracer.next_run();
            let t = Instant::now();
            last = Some(setup(self)?);
            times.push(t.elapsed().as_secs_f64());
            self.tracer.set_enabled(false);
        }
        self.report.set("setup_s", median(&times));
        self.desc.num("setup_reps", times.len() as f64);
        Ok(last.expect("at least one set-up"))
    }

    /// Measures for `--seconds`, at least `min_samples` times. Each
    /// sample sets the workload up from its seed (one `setup_s` sample),
    /// resets the peak-RSS mark, and trains (one `train_s` sample, whose
    /// `VmHWM` is one `train_peak_rss_mib` sample); each metric is the
    /// median of its samples. Set-up and training thus alternate through
    /// the whole window, so both are sampled across the same stretch of
    /// host conditions. A traced run alternates untraced and traced
    /// training samples, each a tracer run of its own. Returns the last
    /// sample's inputs, for the checks.
    pub fn measure<T>(
        &mut self,
        min_samples: usize,
        mut setup: impl FnMut(&mut Ctx) -> Result<T, String>,
        mut sample: impl FnMut(&mut Ctx, &T) -> Result<(), String>,
    ) -> Result<(T, Samples), String> {
        let mut out = Samples {
            untraced: Vec::new(),
            traced: Vec::new(),
        };
        let (mut setups, mut peaks) = (Vec::new(), Vec::new());
        let mut last = None;
        let min = if self.traced {
            min_samples.max(2)
        } else {
            min_samples.max(1)
        };
        let begin = Instant::now();
        let mut i = 0usize;
        while i < min || begin.elapsed().as_secs_f64() < self.seconds {
            drop(last.take());
            self.tracer.set_enabled(self.traced);
            self.tracer.next_run();
            let t = Instant::now();
            let inputs = setup(self)?;
            setups.push(t.elapsed().as_secs_f64());
            host::reset_peak_rss()?;
            let traced = self.traced && i % 2 == 1;
            self.tracer.set_enabled(traced);
            let run = self.tracer.next_run();
            let t = Instant::now();
            sample(self, &inputs)?;
            let secs = t.elapsed().as_secs_f64();
            self.tracer.set_enabled(false);
            peaks.push(host::peak_rss_mib()?);
            if traced {
                out.traced.push((run, secs));
            } else {
                out.untraced.push(secs);
            }
            last = Some(inputs);
            i += 1;
        }
        self.report.set("setup_s", median(&setups));
        self.report.set("train_peak_rss_mib", median(&peaks));
        self.desc.num("samples", i as f64);
        Ok((last.expect("at least one sample"), out))
    }

    /// Runs `f` as a request of its own outside the measured samples
    /// (a probe, a reference computation), traced in a traced run.
    pub fn probe<T>(&mut self, f: impl FnOnce(&mut Ctx) -> T) -> T {
        self.tracer.set_enabled(self.traced);
        self.tracer.next_run();
        let out = f(self);
        self.tracer.set_enabled(false);
        out
    }

    /// Sets per-layer metric `metric` to the median, over the runs that
    /// have every span in `spans`, of their summed duration (converted to
    /// the metric's unit, `s` or `ms`).
    pub fn layer(&mut self, metric: &'static str, spans: &[&str]) {
        let all = self.tracer.spans();
        let per: Vec<_> = spans.iter().map(|n| trace::per_run_secs(&all, n)).collect();
        let sums: Vec<f64> = per[0]
            .keys()
            .filter(|run| per.iter().all(|p| p.contains_key(run)))
            .map(|run| per.iter().map(|p| p[run]).sum())
            .collect();
        let scale = if report::unit_of(metric) == "ms" {
            1e3
        } else {
            1.0
        };
        if let Some(m) = stats::median(&sums) {
            self.report.set(metric, m * scale);
        }
    }

    /// Reports `train_s` (untraced median) or, in a traced run, the trace
    /// accounting: the unattributed remainder (sample time minus its
    /// top-level layer spans) and the tracing overhead (traced minus
    /// untraced median).
    pub fn account(&mut self, samples: &Samples) {
        if !self.traced {
            self.report.set("train_s", median(&samples.untraced));
            if let Some([q1, _, q3]) = stats::quartiles(&samples.untraced) {
                self.desc.num("train_q1_s", q1);
                self.desc.num("train_q3_s", q3);
            }
            return;
        }
        let top = trace::top_level_per_run(&self.tracer.spans());
        let unattributed: Vec<f64> = samples
            .traced
            .iter()
            .map(|(run, secs)| secs - top.get(run).copied().unwrap_or(0.0))
            .collect();
        let traced: Vec<f64> = samples.traced.iter().map(|(_, s)| *s).collect();
        if let (Some(u), Some(t), Some(n)) = (
            stats::median(&unattributed),
            stats::median(&traced),
            stats::median(&samples.untraced),
        ) {
            self.report.set("trace.unattributed_s", u);
            self.report.set("trace.overhead_s", t - n);
        }
    }
}

/// Median of a non-empty sample list.
fn median(values: &[f64]) -> f64 {
    stats::median(values).expect("at least one sample")
}

/// Relative agreement used by every numeric check: `|a−b| ≤ tol·(1 +
/// max(|a|, |b|))`.
pub fn close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
}

/// Index and values of the worst disagreement between two vectors, for
/// check details.
pub fn worst(a: &[f64], b: &[f64]) -> String {
    if a.len() != b.len() {
        return format!("length {} vs {}", a.len(), b.len());
    }
    let w = (0..a.len()).max_by(|&i, &j| {
        let d = |k: usize| (a[k] - b[k]).abs() / (1.0 + a[k].abs().max(b[k].abs()));
        d(i).total_cmp(&d(j))
    });
    match w {
        Some(i) => format!("worst at {i}: {} vs {}", a[i], b[i]),
        None => "empty".into(),
    }
}

fn run(args: &Args) -> Result<Ctx, String> {
    let threads = host::nproc();
    let cfg = ExecConfig::with_threads(threads).with_chunk_rows(CHUNK_ROWS);
    // Entry points without a config parameter (the tree trainer, the
    // streaming preparation) read the process-wide config from the
    // environment; pin it to the same explicit one before first use.
    std::env::set_var("IFAQ_THREADS", threads.to_string());
    std::env::set_var("IFAQ_CHUNK_ROWS", CHUNK_ROWS.to_string());
    if *ExecConfig::global() != cfg {
        return Err(format!(
            "process-wide ExecConfig {:?} differs from the benchmark's {cfg:?}",
            ExecConfig::global()
        ));
    }
    let work = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    // Keep the C++ compiler's temporaries inside the checkout too.
    std::env::set_var("TMPDIR", &work);
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        cfg,
        traced: args.trace,
        tracer: Tracer::new(false),
        work,
        report: Report::default(),
        desc: Descriptor::new(&args.workload, args.seed, args.seconds, args.trace, &cfg),
    };
    let outcome = match args.workload.as_str() {
        "retailer-linreg" => linreg::run(&mut ctx),
        "favorita-tree" => tree::run(&mut ctx),
        "favorita-ooc-logreg" => ooc::run(&mut ctx),
        "retailer-serve" => serve::run(&mut ctx),
        "retailer-linreg-cpp" => cpp::run(&mut ctx),
        other => Err(format!("unknown workload `{other}`")),
    };
    if ctx.traced {
        // Set-up layers, timed once per set-up repetition.
        ctx.layer("datagen.generate_s", &["datagen.generate"]);
        ctx.layer("storage.export_s", &["storage.export"]);
        ctx.layer("serve.engine_build_s", &["serve.engine_build"]);
    }
    let _ = std::fs::remove_dir_all(&ctx.work);
    outcome.map(|()| ctx)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let mut ctx = match run(&args) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("e2ebench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let r = &mut ctx.report;
    let error_rate = r.failed as f64 / r.attempted.max(1) as f64;
    r.set("error_rate", error_rate);
    for (what, ok, detail) in &r.checks {
        println!(
            "check {} {what}: {detail}",
            if *ok { "ok  " } else { "FAIL" }
        );
    }
    println!(
        "error_rate {error_rate} ({} of {} operations failed)",
        r.failed, r.attempted
    );
    let desc = ctx.desc.to_json();
    println!("descriptor {desc}");
    for (name, value, unit) in r.measured() {
        println!("metric {name} {value} {unit}");
    }
    let line = match r.result_json(args.trace) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("e2ebench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let record = format!(
        "{{\"descriptor\":{desc},\"metrics\":{},\"result\":{line}}}\n",
        r.all_json()
    );
    let spans = trace::to_json_lines(&ctx.tracer.spans());
    for (file, body) in [
        (format!("{stem}.json"), record),
        (format!("{stem}.spans.jsonl"), spans),
    ] {
        if let Err(e) = std::fs::write(out.join(&file), body) {
            eprintln!("e2ebench: cannot write {file}: {e}");
            std::process::exit(1);
        }
    }
    println!("{line}");
}
