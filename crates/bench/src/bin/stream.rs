//! Out-of-core streaming vs resident execution: the same covar-moment
//! pass over Favorita, once with the fact table resident in memory and
//! once streamed chunk-by-chunk from an `IFAQTBL1` export with only the
//! dimensions resident.
//!
//! The two paths are asserted **bit-identical** (the streamed reader
//! consumes the file in exactly the fixed `chunk_rows` chunks the
//! resident scheduler shards by, and partials merge in the same order),
//! so the table below is a pure cost comparison: resident trades memory
//! proportional to the fact table for multi-threaded scan speed, the
//! streamed path holds at most `READER_DEPTH + 2` chunk buffers live at
//! once regardless of fact size.
//!
//! Run: `cargo run -p ifaq_bench --bin stream --release [-- --scale f]`

use ifaq_bench::{print_header, print_row, secs, time_once, HarnessArgs};
use ifaq_datagen::favorita;
use ifaq_engine::par::ExecConfig;
use ifaq_engine::stream::{
    execute_streaming, plan_fact_columns, prepare_streaming, StreamSource, READER_DEPTH,
};
use ifaq_engine::Layout;
use ifaq_ml::linreg::{fit_streamed, moments_factorized_cfg, moments_streamed};
use ifaq_query::batch::covar_batch;
use ifaq_query::ViewPlan;

/// Best-effort `VmRSS`/`VmHWM` (kB) from `/proc/self/status`; `None`
/// off Linux.
fn proc_mem(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with(field))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

fn mib(bytes: usize) -> String {
    format!("{:.2} MiB", bytes as f64 / (1024.0 * 1024.0))
}

fn main() {
    let args = HarnessArgs::parse();
    let rows = args.rows(1_000_000);
    let ds = favorita(rows, 71);
    let features = ds.feature_refs();
    let db = ds.train();
    let fact_rows = db.fact.len();

    let dir = std::env::temp_dir().join(format!("ifaq_bench_stream_{}", std::process::id()));
    let (_, t_export) = time_once(|| db.export_dir(&dir).expect("export"));
    let disk_bytes: u64 = std::fs::read_dir(&dir)
        .expect("read export dir")
        .flatten()
        .filter_map(|e| e.metadata().ok().map(|m| m.len()))
        .sum();
    let src = StreamSource::open_dir(&dir).expect("open export");
    println!(
        "favorita train split: {fact_rows} fact rows, {} on disk (exported in {}) at {}",
        mib(disk_bytes as usize),
        secs(t_export),
        dir.display()
    );

    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let cfg = ExecConfig::with_threads(threads); // chunk_rows = 2048
    let serial = ExecConfig::serial();

    print_header(
        &format!("Covar moments, resident ({threads} threads) vs streamed (chunk_rows=2048)"),
        &["resident", "streamed", "stream rows/s", "identical"],
    );
    for layout in [Layout::MergedHash, Layout::SortedTrie, Layout::Pushdown] {
        let (resident, t_res) =
            time_once(|| moments_factorized_cfg(&db, &features, &ds.label, layout, &cfg));
        let (streamed, t_str) = time_once(|| {
            moments_streamed(&src, &features, &ds.label, layout, &cfg).expect("stream")
        });
        let identical = resident == streamed;
        assert!(identical, "streamed moments diverged from resident");
        print_row(
            &format!("{layout:?}"),
            &[
                secs(t_res),
                secs(t_str),
                format!("{:.2e}", fact_rows as f64 / t_str.as_secs_f64()),
                identical.to_string(),
            ],
        );
    }

    // One raw covar pass to surface the reader-pool stats and size the
    // live streaming buffer against the resident fact table.
    let cat = db.catalog();
    let tree = db.join_tree(&cat).expect("tree");
    let batch = covar_batch(&features, &ds.label);
    let plan = ViewPlan::plan(&batch, &tree, &cat).expect("plan");
    let prep = prepare_streaming(Layout::MergedHash, &plan, src.schema_db(), src.fact_rows());
    let (_, stats) = execute_streaming(&plan, &src, &prep, &cfg).expect("stream");
    let proj_cols = plan_fact_columns(&plan).len();
    let chunk_rows = 2048usize;
    let buffer_bytes = chunk_rows * proj_cols * 8 * stats.peak_live_chunks;

    print_header(
        "Memory: bounded chunk pool vs resident fact table",
        &["value"],
    );
    print_row("fact table (resident)", &[mib(db.fact.bytes())]);
    print_row("peak stream buffer", &[mib(buffer_bytes)]);
    print_row(
        "peak live chunks",
        &[format!(
            "{} (≤ {})",
            stats.peak_live_chunks,
            READER_DEPTH + 2
        )],
    );
    print_row(
        "chunks / rows",
        &[format!("{} / {}", stats.chunks, stats.rows)],
    );
    if let (Some(rss), Some(hwm)) = (proc_mem("VmRSS"), proc_mem("VmHWM")) {
        print_row("process VmRSS / VmHWM", &[format!("{rss} / {hwm} kB")]);
    }

    // End-to-end out-of-core training, serial compute with I/O overlap —
    // the configuration whose memory bound the tests pin down.
    let (model, t_fit) = time_once(|| {
        fit_streamed(
            &src,
            &features,
            &ds.label,
            Layout::MergedHash,
            0.1,
            200,
            &serial.with_chunk_rows(2048),
        )
        .expect("fit")
    });
    println!(
        "\nlinreg fit_streamed (200 BGD iters over streamed moments): {} — {} weights, peak live chunks from this export {} (bound {})",
        secs(t_fit),
        model.weights.len(),
        src.peak_live_chunks(),
        READER_DEPTH + 2
    );

    std::fs::remove_dir_all(&dir).ok();
}
