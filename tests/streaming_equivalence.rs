//! Differential, fault-injection, and residency gates for out-of-core
//! streaming execution (`ifaq_engine::stream`).
//!
//! The headline claim is **bit-identity**: for any fixed
//! `ExecConfig::chunk_rows`, streaming the fact table from an on-disk
//! `IFAQTBL1` export through a layout's executor returns exactly the
//! `f64`s the resident executor returns — at every thread count, because
//! the resident sharding's chunk layout and ascending partial-merge
//! order depend only on the data size and `chunk_rows`, and the stream
//! reads the fact table in those very chunks. So every comparison here
//! is `assert_eq!` on the vectors, not a tolerance.
//!
//! On top of that: linear and logistic models trained entirely from the
//! export match their materialized-pipeline counterparts within 1e-6
//! (and their resident factorized counterparts bitwise), every disk
//! fault surfaces as a structured `ExportError` without panicking or
//! deadlocking the compute side, and a whole training run never holds
//! more than `READER_DEPTH + 2` chunks of the fact table in memory.

use ifaq_datagen::{favorita, retailer, Dataset};
use ifaq_engine::layout::{execute_with, prepare};
use ifaq_engine::stream::{execute_streaming, prepare_streaming, StreamSource, READER_DEPTH};
use ifaq_engine::{ExecConfig, Layout, StarDb};
use ifaq_ml::{linreg, logreg};
use ifaq_query::batch::covar_batch;
use ifaq_query::{JoinTree, ViewPlan};
use ifaq_storage::export::table_file_name;
use ifaq_storage::stream::ExportError;
use ifaq_storage::Column;
use std::path::PathBuf;

/// Thread counts required by the acceptance criteria. The streamed
/// compute itself is single-threaded (I/O overlaps on the reader
/// thread); the point is that the *resident* result it must equal is the
/// same at every one of these.
const THREADS: [usize; 3] = [1, 4, 8];

/// Chunk sizes: a 1-row chunk, small primes that do not divide the row
/// counts, and one larger than every fact table (single-chunk stream).
const CHUNK_ROWS: [usize; 4] = [1, 7, 193, 1 << 20];

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ifaq_stream_eq_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn covar_plan(db: &StarDb, features: &[&str], label: &str) -> ViewPlan {
    let cat = db.catalog();
    let dim_names: Vec<&str> = db.dims.iter().map(|d| d.rel.name.as_str()).collect();
    let tree = JoinTree::build_with_root(&cat, db.fact.name.as_str(), &dim_names).unwrap();
    ViewPlan::plan(&covar_batch(features, label), &tree, &cat).unwrap()
}

/// The differential core: export `ds`, then for every layout × thread
/// count × chunk size, the streamed covar batch must bit-equal the
/// resident one.
fn check_streamed_equals_resident(ds: &Dataset, dirname: &str) {
    let features = ds.feature_refs();
    let plan = covar_plan(&ds.db, &features, &ds.label);
    let dir = tmpdir(dirname);
    ds.db.export_dir(&dir).unwrap();
    let src = StreamSource::open_dir(&dir).unwrap();
    assert_eq!(src.fact_rows(), ds.db.fact.len());
    for &layout in Layout::all() {
        let resident_prep = prepare(layout, &plan, &ds.db);
        let streamed_prep = prepare_streaming(layout, &plan, src.schema_db(), src.fact_rows());
        for &chunk_rows in &CHUNK_ROWS {
            let stream_cfg = ExecConfig::with_threads(1).with_chunk_rows(chunk_rows);
            let (streamed, stats) =
                execute_streaming(&plan, &src, &streamed_prep, &stream_cfg).unwrap();
            assert!(
                stats.peak_live_chunks <= READER_DEPTH + 2,
                "{layout} chunk_rows {chunk_rows}: {} live chunks",
                stats.peak_live_chunks
            );
            for &threads in &THREADS {
                let cfg = ExecConfig::with_threads(threads).with_chunk_rows(chunk_rows);
                let resident = execute_with(layout, &plan, &ds.db, &resident_prep, &cfg);
                assert_eq!(
                    streamed, resident,
                    "{}: {layout} × {threads} threads × chunk_rows {chunk_rows}",
                    ds.name
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn streamed_covar_bit_equals_resident_on_favorita() {
    // 1201 rows: prime-ish, so 7 and 193 both leave ragged tail chunks.
    check_streamed_equals_resident(&favorita(1_201, 41), "favorita");
}

#[test]
fn streamed_covar_bit_equals_resident_on_retailer() {
    check_streamed_equals_resident(&retailer(1_003, 42), "retailer");
}

#[test]
fn streamed_covar_bit_equals_resident_without_a_trie_prefix() {
    // The running example cut to 3 fact rows: every dimension has more
    // keys than rows/2, so the trie-family level analysis hoists no
    // prefix and the streamed Trie/SortedTrie take their single-leaf path.
    let ds = Dataset {
        name: "running-example-3",
        db: ifaq_engine::star::running_example_star().take_fact(3),
        features: vec!["city".into(), "price".into()],
        label: "units".into(),
        test_fraction: 0.0,
    };
    let plan = covar_plan(&ds.db, &ds.feature_refs(), &ds.label);
    for layout in [Layout::Trie, Layout::SortedTrie] {
        let resident = prepare(layout, &plan, &ds.db).explain_tree();
        let streamed = prepare_streaming(layout, &plan, &ds.db, ds.db.fact.len()).explain_tree();
        for text in [resident, streamed] {
            assert!(text.contains("prefix []"), "{layout}: {text}");
        }
    }
    check_streamed_equals_resident(&ds, "no_prefix");
}

#[test]
fn linreg_trained_from_stream_matches_materialized() {
    let ds = favorita(1_500, 43);
    let features = ds.feature_refs();
    let dir = tmpdir("linreg");
    ds.db.export_dir(&dir).unwrap();
    let src = StreamSource::open_dir(&dir).unwrap();
    let cfg = ExecConfig::with_threads(4).with_chunk_rows(97);
    let m = ds.db.materialize();
    let mat_moments = linreg::moments_from_matrix(&m, &features, &ds.label);
    let materialized = linreg::fit_bgd(&mat_moments, 0.5, 120);
    for layout in [Layout::MergedHash, Layout::SortedTrie, Layout::Pushdown] {
        // Bitwise vs the resident factorized path at the same chunk size…
        let resident =
            linreg::fit_factorized_cfg(&ds.db, &features, &ds.label, layout, 0.5, 120, &cfg);
        let streamed =
            linreg::fit_streamed(&src, &features, &ds.label, layout, 0.5, 120, &cfg).unwrap();
        assert_eq!(streamed, resident, "{layout}");
        // …and within 1e-6 of the conventional materialize-first model.
        assert!(
            (streamed.intercept - materialized.intercept).abs()
                <= 1e-6 * materialized.intercept.abs().max(1.0),
            "{layout}: intercept {} vs {}",
            streamed.intercept,
            materialized.intercept
        );
        for (a, b) in streamed.weights.iter().zip(&materialized.weights) {
            assert!(
                (a - b).abs() <= 1e-6 * b.abs().max(1.0),
                "{layout}: weight {a} vs {b}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn logreg_trained_from_stream_matches_materialized() {
    let ds = favorita(1_200, 44).binarize_label();
    let features: Vec<&str> = ds.feature_refs().into_iter().take(4).collect();
    let dir = tmpdir("logreg");
    ds.db.export_dir(&dir).unwrap();
    let src = StreamSource::open_dir(&dir).unwrap();
    let cfg = ExecConfig::with_threads(4).with_chunk_rows(131);
    let m = ds.db.materialize();
    let materialized = logreg::fit_materialized(&m, &features, &ds.label, 0.5, 60);
    for &layout in Layout::all() {
        let resident =
            logreg::fit_factorized_cfg(&ds.db, &features, &ds.label, layout, 0.5, 60, &cfg);
        let streamed =
            logreg::fit_streamed(&src, &features, &ds.label, layout, 0.5, 60, &cfg).unwrap();
        assert_eq!(streamed, resident, "{layout}");
        assert!(
            (streamed.intercept - materialized.intercept).abs()
                <= 1e-6 * materialized.intercept.abs().max(1.0),
            "{layout}: intercept {} vs {}",
            streamed.intercept,
            materialized.intercept
        );
        for (a, b) in streamed.weights.iter().zip(&materialized.weights) {
            assert!(
                (a - b).abs() <= 1e-6 * b.abs().max(1.0),
                "{layout}: weight {a} vs {b}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();

    // A fact row whose item key no dimension holds: both paths score it
    // 0.0 and the inner join drops it, so they still agree bitwise.
    let small = favorita(200, 46).binarize_label();
    let dangling = with_dangling_key(&small.db, "item");
    let dir = tmpdir("logreg_dangling");
    dangling.export_dir(&dir).unwrap();
    let src = StreamSource::open_dir(&dir).unwrap();
    for &layout in Layout::all() {
        for chunk_rows in [1, 2, 100] {
            let cfg = ExecConfig::with_threads(2).with_chunk_rows(chunk_rows);
            let resident = logreg::fit_factorized_cfg(
                &dangling,
                &features,
                &small.label,
                layout,
                0.5,
                20,
                &cfg,
            );
            let streamed =
                logreg::fit_streamed(&src, &features, &small.label, layout, 0.5, 20, &cfg).unwrap();
            assert_eq!(streamed, resident, "{layout} chunk_rows {chunk_rows}");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `db` with fact row 0's `key` replaced by one past the largest key the
/// dimension joined on `key` holds, so that row joins with nothing.
fn with_dangling_key(db: &StarDb, key: &str) -> StarDb {
    let dim = db.dims.iter().find(|d| d.key.as_str() == key).unwrap();
    let max = dim
        .rel
        .column(key)
        .unwrap()
        .as_i64()
        .unwrap()
        .iter()
        .max()
        .copied();
    let mut fact = db.fact.clone();
    let col = fact.attrs.iter().position(|a| a.as_str() == key).unwrap();
    match &mut fact.columns[col] {
        Column::I64(keys) => keys[0] = max.unwrap_or(0) + 1,
        Column::F64(_) => panic!("join key `{key}` is not an integer column"),
    }
    db.with_fact(fact)
}

#[test]
fn full_training_run_never_holds_the_fact_table() {
    // A complete linreg + logreg training run against the export, at a
    // chunk size that splits the fact table into far more chunks than
    // the reader pool holds — the fact table is never fully resident,
    // and each source's high-water mark proves the buffer stayed at
    // `chunk_rows × (READER_DEPTH + 2)` rows throughout.
    let ds = favorita(1_400, 45);
    let features = ds.feature_refs();
    let dir = tmpdir("bounded");
    ds.db.export_dir(&dir).unwrap();
    let src = StreamSource::open_dir(&dir).unwrap();
    let chunk_rows = 64;
    let total_chunks = src.fact_rows().div_ceil(chunk_rows);
    assert!(
        total_chunks > READER_DEPTH + 2,
        "test needs more chunks ({total_chunks}) than the pool bound"
    );
    let cfg = ExecConfig::with_threads(2).with_chunk_rows(chunk_rows);
    let lin = linreg::fit_streamed(
        &src,
        &features,
        &ds.label,
        Layout::MergedHash,
        0.5,
        40,
        &cfg,
    )
    .unwrap();
    assert!(lin.weights.iter().all(|w| w.is_finite()));
    let bin = ds.binarize_label();
    let bin_dir = tmpdir("bounded_bin");
    bin.db.export_dir(&bin_dir).unwrap();
    let bin_src = StreamSource::open_dir(&bin_dir).unwrap();
    let log = logreg::fit_streamed(
        &bin_src,
        &bin.feature_refs(),
        &bin.label,
        Layout::MergedHash,
        0.5,
        40,
        &cfg,
    )
    .unwrap();
    assert!(log.weights.iter().all(|w| w.is_finite()));
    // Each training run streamed, and the bound held for every one of
    // its passes: never more than the pool.
    for (name, source) in [("linreg", &src), ("logreg", &bin_src)] {
        let peak = source.peak_live_chunks();
        assert!(
            0 < peak && peak <= READER_DEPTH + 2,
            "{name}: peak {peak} live chunks vs pool bound {}",
            READER_DEPTH + 2
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&bin_dir).unwrap();
}

// ---------------------------------------------------------------------
// Fault injection: every disk-level failure is a structured ExportError,
// never a panic, and never a deadlock.
// ---------------------------------------------------------------------

fn export_running_example(name: &str) -> (PathBuf, StarDb, PathBuf) {
    let db = ifaq_engine::star::running_example_star();
    let dir = tmpdir(name);
    db.export_dir(&dir).unwrap();
    let fact_file = dir.join(table_file_name(db.fact.name.as_str()));
    (dir, db, fact_file)
}

#[test]
fn truncated_fact_file_is_a_structured_error() {
    let (dir, _, fact_file) = export_running_example("trunc");
    let bytes = std::fs::read(&fact_file).unwrap();
    std::fs::write(&fact_file, &bytes[..bytes.len() - 9]).unwrap();
    match StreamSource::open_dir(&dir) {
        Err(ExportError::Truncated { .. }) => {}
        other => panic!("expected Truncated, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bad_magic_is_a_structured_error() {
    let (dir, _, fact_file) = export_running_example("magic");
    let mut bytes = std::fs::read(&fact_file).unwrap();
    bytes[..8].copy_from_slice(b"NOTATBL1");
    std::fs::write(&fact_file, &bytes).unwrap();
    match StreamSource::open_dir(&dir) {
        Err(ExportError::BadMagic { .. }) => {}
        other => panic!("expected BadMagic, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn header_row_count_disagreeing_with_file_length_is_a_structured_error() {
    // Trailing garbage: the header parses cleanly but claims fewer bytes
    // than the file holds, so the open-time length audit refuses it.
    let (dir, _, fact_file) = export_running_example("rowcount");
    let mut bytes = std::fs::read(&fact_file).unwrap();
    bytes.extend_from_slice(&[0u8; 8]);
    std::fs::write(&fact_file, &bytes).unwrap();
    match StreamSource::open_dir(&dir) {
        Err(ExportError::RowCountMismatch { .. }) => {}
        other => panic!("expected RowCountMismatch, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn patched_row_count_is_a_structured_error() {
    // Rewriting the header's u64 row count desynchronizes the inline
    // per-column layout; wherever parsing trips, the result must be a
    // structured error, never a panic.
    let (dir, db, fact_file) = export_running_example("rowpatch");
    let mut bytes = std::fs::read(&fact_file).unwrap();
    let off = 8 + 4 + db.fact.name.as_str().len();
    let claimed = (db.fact.len() as u64 - 1).to_le_bytes();
    bytes[off..off + 8].copy_from_slice(&claimed);
    std::fs::write(&fact_file, &bytes).unwrap();
    match StreamSource::open_dir(&dir) {
        Err(
            ExportError::RowCountMismatch { .. }
            | ExportError::Truncated { .. }
            | ExportError::TruncatedHeader { .. },
        ) => {}
        other => panic!("expected a length/parse error, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_manifest_is_a_structured_error() {
    let (dir, _, _) = export_running_example("manifest");
    std::fs::write(
        dir.join("star.manifest"),
        "ifaq-star v1\nfact missing.ifaqtbl S extra-token\n",
    )
    .unwrap();
    match StreamSource::open_dir(&dir) {
        Err(ExportError::Manifest { .. }) => {}
        other => panic!("expected Manifest, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mid_stream_truncation_errors_without_deadlock() {
    // Open the source against a healthy export, then truncate the fact
    // file before executing: the reader thread's reopen fails, the error
    // crosses the channel, and the compute side returns it — no partial
    // results, no hang. (The reader thread exits after sending; dropping
    // the receiver would likewise unblock a parked sender.)
    let (dir, db, fact_file) = export_running_example("midstream");
    let src = StreamSource::open_dir(&dir).unwrap();
    let plan = covar_plan(&db, &["city", "price"], "units");
    let prep = prepare_streaming(Layout::MergedHash, &plan, src.schema_db(), src.fact_rows());
    let bytes = std::fs::read(&fact_file).unwrap();
    std::fs::write(&fact_file, &bytes[..bytes.len() - 8]).unwrap();
    let cfg = ExecConfig::with_threads(1).with_chunk_rows(2);
    match execute_streaming(&plan, &src, &prep, &cfg) {
        Err(ExportError::Truncated { .. }) => {}
        other => panic!("expected Truncated, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn file_changed_under_reader_is_a_structured_error() {
    // Replace the fact table with a *consistent* file of different shape
    // after the source captured its header: the reader's reopen succeeds
    // but the change check refuses to stream it.
    let (dir, db, _) = export_running_example("changed");
    let src = StreamSource::open_dir(&dir).unwrap();
    let plan = covar_plan(&db, &["city", "price"], "units");
    let prep = prepare_streaming(Layout::MergedHash, &plan, src.schema_db(), src.fact_rows());
    let shrunk = db.take_fact(db.fact.len() - 1);
    shrunk.export_dir(&dir).unwrap();
    let cfg = ExecConfig::with_threads(1).with_chunk_rows(2);
    match execute_streaming(&plan, &src, &prep, &cfg) {
        Err(ExportError::Changed { .. }) => {}
        other => panic!("expected Changed, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn pipeline_streams_the_compiled_batch() {
    // `Compiled::run_batch_streamed` must agree bitwise with the resident
    // `run_batch_with`, and `execute_streamed` with `execute_with` —
    // planning over the export's schema database yields the same plan.
    use ifaq::pipeline::{CompileOptions, Pipeline};
    let db = ifaq_engine::star::running_example_star();
    let dir = tmpdir("pipeline");
    db.export_dir(&dir).unwrap();
    let src = StreamSource::open_dir(&dir).unwrap();
    let program = ifaq_ir::parser::parse_program("sum(x in dom(Q)) Q(x) * x.units").unwrap();
    let opts = CompileOptions::for_star_db(&db);
    let compiled = Pipeline::new(db.catalog())
        .compile(&program, &opts)
        .unwrap();
    let cfg = ExecConfig::with_threads(2).with_chunk_rows(3);
    for &layout in Layout::all() {
        assert_eq!(
            compiled.run_batch_streamed(&src, layout, &cfg).unwrap(),
            compiled.run_batch_with(&db, layout, &cfg).unwrap(),
            "{layout}"
        );
        assert_eq!(
            compiled.execute_streamed(&src, layout, &cfg).unwrap(),
            compiled.execute_with(&db, layout, &cfg).unwrap(),
            "{layout}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
