//! Out-of-core streaming execution: aggregate batches over an on-disk
//! `IFAQTBL1` star export with the fact table **never fully resident**.
//!
//! The paper's factorized evaluation already avoids materializing the
//! join; this module removes the remaining residency requirement on the
//! *input*: dimensions stay in memory (they are the small side of a star
//! schema — their views must be random-accessible anyway), while the
//! fact table streams through a bounded buffer of fixed-size column
//! chunks served by [`ifaq_storage::stream::ChunkedReader`] with
//! projection pushdown (only the columns the [`ViewPlan`] touches are
//! decoded).
//!
//! ## The bit-identity guarantee
//!
//! The in-memory sharded executors ([`crate::par`]) split every scan
//! into fixed chunks of `ExecConfig::chunk_rows` work items and merge
//! per-chunk partial sums in ascending chunk order — a layout that
//! depends only on the data size and `chunk_rows`, never on the thread
//! count. [`execute_streaming`] reads the fact table in **exactly those
//! chunks** and merges its per-chunk partials in the same order, so for
//! any fixed `chunk_rows` the streamed result is bit-identical to the
//! in-memory result at *every* thread count. Layouts whose in-memory
//! accumulation is not chunk-shaped get a faithful streaming transcription
//! instead of a per-chunk re-execution:
//!
//! * **Pushdown** accumulates each term in one unbroken sequential fold
//!   over all rows (sharding is per *term*), so the streamed path carries
//!   per-term accumulators across chunk boundaries.
//! * **Materialized** chunks the *joined* matrix, so the streamed path
//!   performs the index join row by row into a pending buffer and flushes
//!   it through [`physical::batch_over_matrix_cfg`] every `chunk_rows`
//!   joined rows.
//! * **Trie / SortedTrie** group rows by the hoistable key prefix; the
//!   streamed path accumulates per-group row programs during the scan and
//!   replays the in-memory group/chunk flush discipline at the end. With
//!   no hoistable prefix the in-memory kernel shards its single group by
//!   `chunk_rows`, so the streamed path runs that kernel per chunk.
//!
//! `tests/streaming_equivalence.rs` asserts `==` (not approximate
//! equality) against the resident executors for every layout.
//!
//! Since the executor-tree refactor, [`prepare_streaming`] builds the
//! same [`crate::exec`] tree as resident preparation — prepared against
//! a [`crate::exec::Source::StreamSchema`] (resident dims, fact schema
//! plus on-disk row count) — and [`execute_streaming`] runs it with a
//! [`crate::exec::Source::Stream`]. Every streamed pass goes through one
//! chunk driver in this module; the row-sharded layouts run their
//! resident kernel on each chunk, and the Materialized/Trie/SortedTrie
//! replays above live here too. A [`StreamPrep`] can render the tree it
//! will run via [`StreamPrep::explain_tree`].
//!
//! ## I/O–compute overlap and memory bound
//!
//! A dedicated reader thread decodes chunks and hands them over a
//! bounded [`std::sync::mpsc::sync_channel`] of depth
//! [`READER_DEPTH`]; decode of chunk `c+1` overlaps compute of chunk
//! `c`. At most `READER_DEPTH + 2` chunks are ever alive (queue +
//! one being decoded + one being computed), so peak fact-side memory is
//! `chunk_rows × projected columns × 8 bytes × (READER_DEPTH + 2)` —
//! asserted by [`StreamStats::peak_live_chunks`] in tests. Note that
//! `ExecConfig::default()` / `serial()` use `chunk_rows = usize::MAX`
//! (one chunk spanning the whole table), which is still correct but
//! defeats the memory bound; pass a finite `chunk_rows` (e.g. via
//! `ExecConfig::with_threads`, whose default is 2 Ki rows) to stream
//! out-of-core.
//!
//! Every disk-level failure — bad magic, truncation, a row count the
//! file length contradicts, a mid-stream short read, a file that changed
//! since [`StreamSource::open_dir`] — surfaces as a structured
//! [`ExportError`] from `execute_streaming`; no partial aggregate state
//! escapes and the reader thread shuts down without deadlocking the
//! compute side (dropping the receiver unblocks any pending send).

use crate::layout::Layout;
use crate::par::ExecConfig;
use crate::physical::{self, KeyPlan};
use crate::star::{StarDb, TrainMatrix};
use ifaq_ir::Sym;
use ifaq_query::ViewPlan;
use ifaq_storage::export::read_relation;
use ifaq_storage::stream::{ChunkedReader, ColKind, ExportError, TableMeta};
use ifaq_storage::{ColRelation, Column};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;

/// Bounded-channel depth of the reader thread: chunks decoded ahead of
/// the compute side. Two is classic double buffering — one chunk in
/// flight either way — and keeps the live-chunk bound at
/// `READER_DEPTH + 2`.
pub const READER_DEPTH: usize = 2;

/// An on-disk star export opened for streaming: resident dimensions, a
/// schema-only (empty) fact relation for planning/preparation, and the
/// fact table's parsed header. Produced by [`StreamSource::open_dir`]
/// from a directory written by [`StarDb::export_dir`].
pub struct StreamSource {
    dir: PathBuf,
    fact_path: PathBuf,
    fact_meta: TableMeta,
    /// Dimensions resident, fact empty (schema only).
    schema: StarDb,
    /// High-water mark of simultaneously-alive chunks over every
    /// streaming execution from this source; only ever grows.
    peak: AtomicUsize,
}

impl std::fmt::Debug for StreamSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamSource")
            .field("dir", &self.dir)
            .field("fact", &self.fact_meta.relation)
            .field("rows", &self.fact_meta.rows)
            .field("dims", &self.schema.dims.len())
            .finish()
    }
}

impl StreamSource {
    /// Opens a directory written by [`StarDb::export_dir`]: parses
    /// `star.manifest`, loads every dimension fully, and opens the fact
    /// table's header *without* reading its data.
    pub fn open_dir(dir: &Path) -> Result<StreamSource, ExportError> {
        let mpath = dir.join("star.manifest");
        let bad = |detail: String| ExportError::Manifest {
            path: mpath.clone(),
            detail,
        };
        let manifest = std::fs::read_to_string(&mpath).map_err(|e| ExportError::Io {
            path: mpath.clone(),
            source: e,
        })?;
        let mut lines = manifest.lines();
        if lines.next() != Some("ifaq-star v1") {
            return Err(bad("not an ifaq-star v1 manifest".into()));
        }
        let mut fact: Option<(PathBuf, String)> = None;
        let mut dims = Vec::new();
        for line in lines {
            let parts: Vec<&str> = line.split_whitespace().collect();
            match parts.as_slice() {
                ["fact", file, name] => fact = Some((dir.join(file), name.to_string())),
                ["dim", file, _name, key] => {
                    let p = dir.join(file);
                    let rel =
                        read_relation(&p).map_err(|e| ExportError::Io { path: p, source: e })?;
                    dims.push(crate::star::Dim::new(rel, *key));
                }
                [] => {}
                other => return Err(bad(format!("bad manifest line: {other:?}"))),
            }
        }
        let (fact_path, fact_name) =
            fact.ok_or_else(|| bad("manifest has no fact entry".into()))?;
        let reader = ChunkedReader::open(&fact_path)?;
        let fact_meta = reader.meta().clone();
        if fact_meta.relation != fact_name {
            return Err(bad(format!(
                "manifest names fact `{fact_name}` but {} holds relation `{}`",
                fact_path.display(),
                fact_meta.relation
            )));
        }
        let schema = StarDb::new(empty_fact(&fact_meta), dims);
        Ok(StreamSource {
            dir: dir.to_path_buf(),
            fact_path,
            fact_meta,
            schema,
            peak: AtomicUsize::new(0),
        })
    }

    /// The schema database: dimensions resident, fact empty. Planning
    /// (catalog, join tree, [`ViewPlan`]) and θ-free preparation run
    /// against this — neither reads fact *values*.
    pub fn schema_db(&self) -> &StarDb {
        &self.schema
    }

    /// Fact row count from the on-disk header.
    pub fn fact_rows(&self) -> usize {
        self.fact_meta.rows
    }

    /// The fact table's parsed header.
    pub fn fact_meta(&self) -> &TableMeta {
        &self.fact_meta
    }

    /// The export directory this source was opened from.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the fact table's `IFAQTBL1` file.
    pub fn fact_path(&self) -> &Path {
        &self.fact_path
    }

    /// The largest [`StreamStats::peak_live_chunks`] of any streaming
    /// execution from this source so far (0 if it never streamed) — lets
    /// a caller assert the `READER_DEPTH + 2` bound held throughout a
    /// multi-pass workload, such as a whole training run, whose
    /// per-execution [`StreamStats`] it never sees.
    pub fn peak_live_chunks(&self) -> usize {
        self.peak.load(Ordering::SeqCst)
    }
}

/// Schema-only fact relation matching an on-disk header: right name,
/// attrs, and column kinds, zero rows.
fn empty_fact(meta: &TableMeta) -> ColRelation {
    ColRelation::new(
        meta.relation.clone(),
        meta.columns.iter().map(|c| Sym::new(&c.name)).collect(),
        meta.columns
            .iter()
            .map(|c| match c.kind {
                ColKind::I64 => Column::I64(vec![]),
                ColKind::F64 => Column::F64(vec![]),
            })
            .collect(),
    )
}

/// θ-free prepared state for one streaming execution path: a prepared
/// [`crate::exec::PlanTree`] whose nodes hold the dimension-side views
/// (always resident) plus, for the trie-family layouts, the level
/// analysis pinned to the *full-table* row count. Built once by
/// [`prepare_streaming`], reused across passes (training iterations).
pub struct StreamPrep {
    tree: crate::exec::PlanTree,
}

impl StreamPrep {
    /// The layout this state was prepared for.
    pub fn layout(&self) -> Layout {
        self.tree.layout()
    }

    /// Renders the prepared executor tree (see
    /// [`crate::exec::PlanTree::explain`]).
    pub fn explain_tree(&self) -> String {
        self.tree.explain()
    }
}

/// Builds the streaming-side θ-free state for `layout` over the schema
/// database (`src.schema_db()`, or a derived schema such as the logistic
/// trainer's `__sigma`-augmented one). `fact_rows` must be the on-disk
/// row count — the trie-family level analysis depends on it.
pub fn prepare_streaming(
    layout: Layout,
    plan: &ViewPlan,
    schema: &StarDb,
    fact_rows: usize,
) -> StreamPrep {
    let mut tree = crate::exec::build_tree(plan, None, layout, ExecConfig::global());
    tree.prepare(crate::exec::Source::StreamSchema { schema, fact_rows })
        .expect("schema-side streaming preparation does not touch the disk");
    StreamPrep { tree }
}

/// Observability of one streaming execution: how much was read and the
/// peak number of chunks simultaneously alive (queued + decoding +
/// computing) — the number the out-of-core memory bound rests on.
#[derive(Debug, Clone, Default)]
pub struct StreamStats {
    /// Chunks decoded (across all passes of the execution).
    pub chunks: usize,
    /// Fact rows decoded (across all passes; a two-pass layout counts
    /// rows once per pass).
    pub rows: usize,
    /// Peak simultaneously-alive chunks; bounded by `READER_DEPTH + 2`.
    pub peak_live_chunks: usize,
    /// The reader-channel depth the bound is stated against.
    pub reader_depth: usize,
}

/// Live/peak chunk accounting shared between the reader thread (which
/// increments at decode) and the compute side (which decrements when a
/// chunk is dropped).
#[derive(Default)]
struct LiveGauge {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl LiveGauge {
    fn inc(&self) {
        let now = self.live.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(now, Ordering::SeqCst);
    }
}

/// Decrements the live-chunk count when the compute side is done with a
/// chunk's data.
struct ChunkGuard {
    gauge: Arc<LiveGauge>,
}

impl Drop for ChunkGuard {
    fn drop(&mut self) {
        self.gauge.live.fetch_sub(1, Ordering::SeqCst);
    }
}

struct TrackedChunk {
    start: usize,
    columns: Vec<Column>,
    guard: ChunkGuard,
}

/// A per-chunk relation transform: `map(start, rel)` may replace the
/// chunk relation, typically appending derived fact columns (logistic's
/// `__sigma`).
pub(crate) type ChunkMap<'m> = dyn FnMut(usize, ColRelation) -> ColRelation + 'm;

/// Spawns the reader thread: reopens the fact file (revalidating its
/// header and checking it still matches what [`StreamSource::open_dir`]
/// captured), then decodes fixed-size chunks of the projected columns
/// into a bounded channel. On any error it sends the error and stops;
/// if the compute side hangs up first, it stops silently.
fn spawn_reader(
    src: &StreamSource,
    proj_names: Vec<String>,
    chunk_rows: usize,
    gauge: Arc<LiveGauge>,
) -> Receiver<Result<TrackedChunk, ExportError>> {
    let (tx, rx) = sync_channel::<Result<TrackedChunk, ExportError>>(READER_DEPTH);
    let path = src.fact_path.clone();
    let expected: Vec<(String, ColKind)> = src
        .fact_meta
        .columns
        .iter()
        .map(|c| (c.name.clone(), c.kind))
        .collect();
    let expected_rows = src.fact_meta.rows;
    std::thread::spawn(move || {
        let mut reader = match ChunkedReader::open(&path) {
            Ok(r) => r,
            Err(e) => {
                let _ = tx.send(Err(e));
                return;
            }
        };
        let now: Vec<(String, ColKind)> = reader
            .meta()
            .columns
            .iter()
            .map(|c| (c.name.clone(), c.kind))
            .collect();
        if reader.meta().rows != expected_rows || now != expected {
            let _ = tx.send(Err(ExportError::Changed {
                path,
                detail: format!(
                    "header was {expected_rows} rows × {} columns when the source \
                     was opened, now {} rows × {} columns",
                    expected.len(),
                    reader.meta().rows,
                    now.len()
                ),
            }));
            return;
        }
        let names: Vec<&str> = proj_names.iter().map(String::as_str).collect();
        let proj = match reader.projection(&names) {
            Ok(p) => p,
            Err(e) => {
                let _ = tx.send(Err(e));
                return;
            }
        };
        for chunk in reader.chunks(chunk_rows, proj) {
            match chunk {
                Ok(c) => {
                    gauge.inc();
                    let tracked = TrackedChunk {
                        start: c.start,
                        columns: c.columns,
                        guard: ChunkGuard {
                            gauge: Arc::clone(&gauge),
                        },
                    };
                    if tx.send(Ok(tracked)).is_err() {
                        return; // compute side hung up
                    }
                }
                Err(e) => {
                    let _ = tx.send(Err(e));
                    return;
                }
            }
        }
    });
    rx
}

/// The columns `plan` touches on the fact side: every dimension's join
/// key plus every term's fact factors and filter attributes.
pub fn plan_fact_columns(plan: &ViewPlan) -> Vec<Sym> {
    let mut cols: Vec<Sym> = Vec::new();
    fn push(cols: &mut Vec<Sym>, s: &Sym) {
        if !cols.iter().any(|c| c == s) {
            cols.push(s.clone());
        }
    }
    for d in &plan.dims {
        push(&mut cols, &d.key_attrs[0]);
    }
    for t in &plan.terms {
        for f in &t.fact_factors {
            push(&mut cols, f);
        }
        for p in &t.fact_filter {
            push(&mut cols, &p.attr);
        }
    }
    cols
}

/// Resolves the file-side projection: the plan's fact columns (plus, for
/// the materialized layout, every schema dimension's join key — its
/// index join resolves *all* dimensions, exactly like
/// [`StarDb::join_index`]), minus `virtual_cols` (columns the caller's
/// chunk transform appends, absent from the file), ordered by file
/// position. A leading file column is kept when the projection would
/// otherwise be empty so chunk relations report their row count.
pub(crate) fn file_projection(
    plan: &ViewPlan,
    src: &StreamSource,
    materialized: bool,
    virtual_cols: &[Sym],
) -> Vec<Sym> {
    let mut wanted = plan_fact_columns(plan);
    if materialized {
        for d in &src.schema.dims {
            if !wanted.contains(&d.key) {
                wanted.push(d.key.clone());
            }
        }
    }
    wanted.retain(|c| !virtual_cols.contains(c));
    let mut file_order: Vec<Sym> = src
        .fact_meta
        .columns
        .iter()
        .filter(|c| wanted.iter().any(|w| w.as_str() == c.name))
        .map(|c| Sym::new(&c.name))
        .collect();
    if file_order.is_empty() {
        if let Some(first) = src.fact_meta.columns.first() {
            file_order.push(Sym::new(&first.name));
        }
    }
    file_order
}

/// Streams the fact table through `prep`'s layout and returns the batch
/// results plus [`StreamStats`]. For any fixed `cfg.chunk_rows` the
/// result is bit-identical to the corresponding in-memory
/// [`crate::layout::execute_with`] call at every
/// thread count (the streamed compute itself is single-threaded; I/O
/// overlaps it via the reader thread).
pub fn execute_streaming(
    plan: &ViewPlan,
    src: &StreamSource,
    prep: &StreamPrep,
    cfg: &ExecConfig,
) -> Result<(Vec<f64>, StreamStats), ExportError> {
    execute_streaming_map(plan, src, prep, cfg, &[], &mut |_, rel| rel)
}

/// [`execute_streaming`] with a per-chunk transform: `map_chunk(start,
/// rel)` may replace the chunk relation, typically appending derived
/// columns named in `virtual_cols` (excluded from the file projection).
/// The logistic trainer uses this to compute `__sigma` per chunk from
/// the resident dimensions.
pub fn execute_streaming_map(
    plan: &ViewPlan,
    src: &StreamSource,
    prep: &StreamPrep,
    cfg: &ExecConfig,
    virtual_cols: &[Sym],
    map_chunk: &mut dyn FnMut(usize, ColRelation) -> ColRelation,
) -> Result<(Vec<f64>, StreamStats), ExportError> {
    let tree = &prep.tree;
    if tree.plan() != plan {
        panic!(
            "stale StreamPrep: state was built for a different view plan ({built_terms} \
             terms over {built_dims} dimension views, executing {want_terms} terms over \
             {want_dims}); rebuild with prepare_streaming for this plan",
            built_terms = tree.plan().terms.len(),
            built_dims = tree.plan().dims.len(),
            want_terms = plan.terms.len(),
            want_dims = plan.dims.len(),
        );
    }
    let mut state = crate::exec::ExecutionState::new(crate::exec::Source::Stream(src))
        .with_cfg(*cfg)
        .with_virtual_cols(virtual_cols)
        .with_map_chunk(map_chunk);
    let acc = tree.execute_with(&mut state).map_err(|e| match e {
        crate::exec::ExecError::Stream(err) => err,
        other => panic!("streaming execution failed outside the I/O layer: {other}"),
    })?;
    let stats = state
        .take_stream_stats()
        .expect("streamed execute records StreamStats");
    Ok((acc, stats))
}

/// The one streaming chunk driver: streams the fact file's `proj`
/// columns in fixed `cfg.chunk_rows` chunks — the same chunk layout as
/// the in-memory sharding, which is what bit-identity rests on — passes
/// each chunk through `map_chunk` when given, and hands `on_chunk` a work
/// database (resident dimensions, the chunk as fact table). The chunk
/// being computed keeps its live-gauge guard until it is fully consumed,
/// so the gauge counts it.
pub(crate) fn run_row_stream(
    src: &StreamSource,
    cfg: &ExecConfig,
    proj: &[Sym],
    mut map_chunk: Option<&mut ChunkMap<'_>>,
    on_chunk: &mut dyn FnMut(&StarDb),
) -> Result<StreamStats, ExportError> {
    let mut stats = StreamStats {
        reader_depth: READER_DEPTH,
        ..StreamStats::default()
    };
    let gauge = Arc::new(LiveGauge::default());
    let rx = spawn_reader(
        src,
        proj.iter().map(|s| s.as_str().to_string()).collect(),
        cfg.chunk_rows.max(1),
        Arc::clone(&gauge),
    );
    let mut work = src.schema.with_fact(empty_fact(&src.fact_meta));
    // `recv` fails once the reader has finished cleanly.
    while let Ok(chunk) = rx.recv() {
        let TrackedChunk {
            start,
            columns,
            guard,
        } = chunk?;
        stats.chunks += 1;
        stats.rows += columns.first().map_or(0, Column::len);
        let mut rel = ColRelation::new(src.schema.fact.name.clone(), proj.to_vec(), columns);
        if let Some(map) = map_chunk.as_mut() {
            rel = map(start, rel);
        }
        work.fact = rel;
        on_chunk(&work);
        drop(guard);
    }
    // Record the gauge's peak and fold it into the source's high-water mark.
    stats.peak_live_chunks = gauge.peak.load(Ordering::SeqCst);
    src.peak.fetch_max(stats.peak_live_chunks, Ordering::SeqCst);
    Ok(stats)
}

/// Streams `plan`'s fact columns and folds `kernel`'s per-chunk partial
/// into the running totals in ascending chunk order: each streamed chunk
/// *is* one in-memory chunk, so this is exactly the fold of
/// `run_chunked_sums` over the resident kernel.
pub(crate) fn fold_chunks(
    plan: &ViewPlan,
    src: &StreamSource,
    cfg: &ExecConfig,
    virtual_cols: &[Sym],
    map_chunk: Option<&mut ChunkMap<'_>>,
    kernel: &mut dyn FnMut(&StarDb) -> Vec<f64>,
) -> Result<(Vec<f64>, StreamStats), ExportError> {
    let mut acc = vec![0.0; plan.terms.len()];
    let proj = file_projection(plan, src, false, virtual_cols);
    let stats = run_row_stream(src, cfg, &proj, map_chunk, &mut |work| {
        for (a, v) in acc.iter_mut().zip(kernel(work)) {
            *a += v;
        }
    })?;
    Ok((acc, stats))
}

/// Streamed index join + chunked matrix aggregation, bit-identical to
/// `exec_materialized_prepared`: resolve every dimension per fact row
/// (resident key indexes; a miss drops the row, as in
/// [`StarDb::join_index`]), gather the surviving joined rows into a
/// pending buffer, and flush it through
/// [`physical::batch_over_matrix_cfg`] every `cfg.chunk_rows` **joined**
/// rows — the exact chunk boundaries the in-memory matrix scan uses.
/// The file projection adds every schema dimension's join key: the index
/// join resolves *all* dimensions, exactly like [`StarDb::join_index`].
pub(crate) fn stream_materialized(
    plan: &ViewPlan,
    src: &StreamSource,
    key_indexes: &[HashMap<i64, usize>],
    cfg: &ExecConfig,
    virtual_cols: &[Sym],
    map_chunk: Option<&mut ChunkMap<'_>>,
) -> Result<(Vec<f64>, StreamStats), ExportError> {
    let dims = &src.schema.dims;
    // Matrix attribute layout mirrors `materialize_via`: fact attributes
    // (here: the projected subset — the plan resolves columns by name and
    // never touches the rest) followed by every dimension's payload
    // attributes in dimension order.
    let mut m_attrs: Vec<Sym> = Vec::new();
    let dim_payload_attrs: Vec<Vec<Sym>> = dims.iter().map(|d| d.payload_attrs()).collect();
    let serial = ExecConfig::serial();
    let w = cfg.chunk_rows.max(1);
    let mut pending: Vec<f64> = Vec::new();
    let mut width = 0usize;
    let mut acc = vec![0.0; plan.terms.len()];
    let proj = file_projection(plan, src, true, virtual_cols);
    let stats = run_row_stream(src, cfg, &proj, map_chunk, &mut |work| {
        if m_attrs.is_empty() {
            // The chunk transform may have appended derived fact columns;
            // include them so plans over virtual columns resolve.
            m_attrs = work.fact.attrs.clone();
            for pa in &dim_payload_attrs {
                m_attrs.extend(pa.iter().cloned());
            }
            width = m_attrs.len();
        }
        let n = work.fact.len();
        let fact_cols: Vec<&Column> = work.fact.columns.iter().collect();
        let key_cols: Vec<&[i64]> = dims
            .iter()
            .map(|d| {
                work.fact
                    .column(d.key.as_str())
                    .expect("fact join key column")
                    .as_i64()
                    .expect("fact join key must be integer")
            })
            .collect();
        let payload_cols: Vec<Vec<&Column>> = dims
            .iter()
            .zip(&dim_payload_attrs)
            .map(|(d, attrs)| {
                attrs
                    .iter()
                    .map(|a| d.rel.column(a.as_str()).expect("dim payload column"))
                    .collect()
            })
            .collect();
        let mut joined_rows: Vec<usize> = Vec::with_capacity(dims.len());
        'row: for i in 0..n {
            joined_rows.clear();
            for (ks, index) in key_cols.iter().zip(key_indexes) {
                match index.get(&ks[i]) {
                    Some(&j) => joined_rows.push(j),
                    None => continue 'row,
                }
            }
            for c in &fact_cols {
                pending.push(c.get_f64(i));
            }
            for (cols, &j) in payload_cols.iter().zip(&joined_rows) {
                for c in cols {
                    pending.push(c.get_f64(j));
                }
            }
            if pending.len() == w.saturating_mul(width) {
                flush_matrix(&mut pending, &m_attrs, width, plan, &serial, &mut acc);
            }
        }
    })?;
    if !pending.is_empty() {
        flush_matrix(&mut pending, &m_attrs, width, plan, &serial, &mut acc);
    }
    Ok((acc, stats))
}

/// Aggregates one pending buffer of joined rows (exactly one in-memory
/// matrix chunk) and merges it, then clears the buffer.
fn flush_matrix(
    pending: &mut Vec<f64>,
    m_attrs: &[Sym],
    width: usize,
    plan: &ViewPlan,
    serial: &ExecConfig,
    acc: &mut [f64],
) {
    let m = TrainMatrix {
        attrs: m_attrs.to_vec(),
        rows: pending.len() / width.max(1),
        data: std::mem::take(pending),
    };
    let partial = physical::batch_over_matrix_cfg(&m, plan, serial);
    for (a, v) in acc.iter_mut().zip(partial) {
        *a += v;
    }
}

/// Streamed trie execution, bit-identical to `exec_trie_parts` over
/// the trie built from the same plan: accumulate each prefix group's
/// row-program sums during the scan (rows arrive in file order — the
/// same order trie leaves hold them), then replay the in-memory flush:
/// subtrees in key order, chunked by the derived groups-per-chunk, with
/// per-level payload hoisting and group-constant multiplication.
pub(crate) fn stream_trie(
    plan: &ViewPlan,
    src: &StreamSource,
    views: &[HashMap<i64, Vec<f64>>],
    kp: &KeyPlan,
    cfg: &ExecConfig,
    virtual_cols: &[Sym],
    map_chunk: Option<&mut ChunkMap<'_>>,
) -> Result<(Vec<f64>, StreamStats), ExportError> {
    if kp.prefix.is_empty() {
        // One leaf holds every row; in memory its rows are sharded by
        // `chunk_rows` — each streamed chunk is one such shard.
        let serial = ExecConfig::serial();
        return fold_chunks(plan, src, cfg, virtual_cols, map_chunk, &mut |work| {
            let trie = physical::build_fact_trie_from(kp, work);
            physical::exec_trie_parts(plan, work, &trie, views, kp, &serial)
        });
    }
    let nterms = plan.terms.len();
    let nrp = kp.rowprogs.len();

    // Scan phase: per-group row-program sums, keyed by the full prefix
    // key tuple (lexicographic order = trie walk order).
    let mut groups: BTreeMap<Vec<i64>, Vec<f64>> = BTreeMap::new();
    let mut keybuf: Vec<i64> = vec![0; kp.prefix.len()];
    let proj = file_projection(plan, src, false, virtual_cols);
    let stats = run_row_stream(src, cfg, &proj, map_chunk, &mut |work| {
        let bounds = physical::bind_dims(plan, work);
        let fa = physical::FactAccess::bind(plan, work);
        let prefix_cols: Vec<&[i64]> = kp
            .prefix
            .iter()
            .map(|(c, _)| {
                work.fact
                    .column(c.as_str())
                    .expect("prefix key column")
                    .as_i64()
                    .expect("int key")
            })
            .collect();
        let n = work.fact.len();
        let mut sigval = vec![0.0; kp.sig_reps.len()];
        let mut hoisted: Vec<Option<&[f64]>> = vec![None; bounds.len()];
        'row: for i in 0..n {
            for (l, col) in prefix_cols.iter().enumerate() {
                keybuf[l] = col[i];
            }
            for &di in &kp.remainder {
                match views[di].get(&bounds[di].fact_keys[i]) {
                    Some(p) => hoisted[di] = Some(p),
                    None => continue 'row,
                }
            }
            for (s, &rep) in kp.sig_reps.iter().enumerate() {
                sigval[s] = fa[rep].eval(i);
            }
            let local = match groups.get_mut(keybuf.as_slice()) {
                Some(l) => l,
                None => groups
                    .entry(keybuf.clone())
                    .or_insert_with(|| vec![0.0; nrp]),
            };
            for (rp, (sig, rem)) in kp.rowprogs.iter().enumerate() {
                let mut v = sigval[*sig];
                if v == 0.0 {
                    continue;
                }
                for (ri, &di) in kp.remainder.iter().enumerate() {
                    v *= hoisted[di].expect("set above")[rem[ri]];
                }
                local[rp] += v;
            }
        }
    })?;

    // Flush phase: replay the in-memory shard-over-subtrees merge. The
    // subtrees are the distinct first-level keys in ascending order;
    // groups-per-chunk is derived exactly as in `exec_trie_parts`.
    let subtree_keys: Vec<i64> = {
        let mut keys: Vec<i64> = groups.keys().map(|k| k[0]).collect();
        keys.dedup(); // BTreeMap iterates sorted
        keys
    };
    let total_rows = src.fact_meta.rows.max(1);
    let groups_per_chunk =
        (cfg.chunk_rows.max(1).saturating_mul(subtree_keys.len()) / total_rows).max(1);
    let ndims = plan.dims.len();
    let mut acc = vec![0.0; nterms];
    let mut s = 0;
    while s < subtree_keys.len() {
        let e = (s + groups_per_chunk).min(subtree_keys.len());
        let mut partial = vec![0.0; nterms];
        for &k0 in &subtree_keys[s..e] {
            let range = groups.range(vec![k0]..);
            let mut hoisted: Vec<Option<&[f64]>> = vec![None; ndims];
            'group: for (keys, local) in range {
                if keys[0] != k0 {
                    break;
                }
                // Hoist each level's payloads; an inner-join miss drops
                // the group (in memory it drops the whole subtree below
                // that node — the same set of groups).
                for (l, (_, dims)) in kp.prefix.iter().enumerate() {
                    for &di in dims {
                        match views[di].get(&keys[l]) {
                            Some(p) => hoisted[di] = Some(p),
                            None => continue 'group,
                        }
                    }
                }
                for (t, term) in plan.terms.iter().enumerate() {
                    let mut v = local[kp.rowprog_of[t]];
                    if v == 0.0 {
                        continue;
                    }
                    for (_, dims) in &kp.prefix {
                        for &di in dims {
                            v *= hoisted[di].expect("prefix payload")[term.dim_payload[di]];
                        }
                    }
                    partial[t] += v;
                }
            }
        }
        for (a, v) in acc.iter_mut().zip(partial) {
            *a += v;
        }
        s = e;
    }
    Ok((acc, stats))
}

/// Per-group state of the streamed sorted-trie pass.
struct SortedGroup {
    /// Lexicographic rank among all groups (= flush order).
    rank: usize,
    /// First position of the group in the sorted row order.
    start: usize,
    /// Rows of the group seen so far.
    seen: usize,
    /// The in-memory chunk index of the fragment being accumulated.
    cur_chunk: usize,
    /// Row-program sums of the current fragment.
    local: Vec<f64>,
    /// Whether every prefix dimension resolves this group's keys.
    ok: bool,
    /// Dense-view base offsets of the prefix dimensions (valid iff `ok`).
    bases: Vec<usize>,
}

/// Streamed sorted-trie execution, bit-identical to
/// `exec_sorted_parts`. The in-memory executor scans rows in sorted
/// prefix-key order, sharded into `chunk_rows` *positions*; a group
/// straddling a boundary is flushed once per chunk. Streaming cannot
/// reorder the file, so it runs two passes: pass 1 counts group sizes
/// (prefix key columns only — a narrower projection), which pins every
/// group's position range in the sorted order; pass 2 accumulates each
/// group's per-fragment row-program sums (within a group, file order *is*
/// sorted order — the sort is stable on row id). The fragments are then
/// flushed in (chunk, group-rank) order and merged per chunk, exactly
/// reproducing the in-memory partials. With no hoistable prefix the
/// sorted order is the file order and a single pass suffices.
pub(crate) fn stream_sorted(
    plan: &ViewPlan,
    src: &StreamSource,
    views: &[physical::DenseView],
    kp: &KeyPlan,
    cfg: &ExecConfig,
    virtual_cols: &[Sym],
    map_chunk: Option<&mut ChunkMap<'_>>,
) -> Result<(Vec<f64>, StreamStats), ExportError> {
    if kp.prefix.is_empty() {
        // Sorted order = file order; one implicitly-open group per chunk.
        let serial = ExecConfig::serial();
        return fold_chunks(plan, src, cfg, virtual_cols, map_chunk, &mut |work| {
            let sorted = physical::build_sorted_from(kp, work);
            physical::exec_sorted_parts(plan, work, &sorted, views, kp, &serial)
        });
    }
    let nterms = plan.terms.len();
    let nrp = kp.rowprogs.len();
    let ndims = plan.dims.len();
    let prefix_dims: Vec<usize> = kp
        .prefix
        .iter()
        .flat_map(|(_, ds)| ds.iter().copied())
        .collect();
    // Dimension index → prefix level (for prefix dims only).
    let mut level_of = vec![usize::MAX; ndims];
    for (l, (_, dims)) in kp.prefix.iter().enumerate() {
        for &di in dims {
            level_of[di] = l;
        }
    }
    let prefix_col_names: Vec<Sym> = kp.prefix.iter().map(|(c, _)| c.clone()).collect();

    // Pass 1: group sizes, streaming only the prefix key columns.
    let mut sizes: BTreeMap<Vec<i64>, usize> = BTreeMap::new();
    let mut keybuf: Vec<i64> = vec![0; prefix_col_names.len()];
    let pass1 = run_row_stream(src, cfg, &prefix_col_names, None, &mut |work| {
        let cols: Vec<&[i64]> = prefix_col_names
            .iter()
            .map(|c| {
                work.fact
                    .column(c.as_str())
                    .expect("prefix key column")
                    .as_i64()
                    .expect("int key")
            })
            .collect();
        for i in 0..work.fact.len() {
            for (l, col) in cols.iter().enumerate() {
                keybuf[l] = col[i];
            }
            match sizes.get_mut(keybuf.as_slice()) {
                Some(c) => *c += 1,
                None => {
                    sizes.insert(keybuf.clone(), 1);
                }
            }
        }
    })?;

    // Pin each group's position range in the sorted order and resolve its
    // prefix-dimension bases once (the in-memory executor re-hoists per
    // fragment, but the values are identical every time).
    let w = cfg.chunk_rows.max(1);
    let mut states: BTreeMap<Vec<i64>, SortedGroup> = BTreeMap::new();
    {
        let mut start = 0usize;
        for (rank, (keys, &size)) in sizes.iter().enumerate() {
            let mut ok = true;
            let mut bases = vec![usize::MAX; ndims];
            for &di in &prefix_dims {
                let k = keys[level_of[di]];
                match views[di].base_of(k) {
                    Some(b) => bases[di] = b,
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            states.insert(
                keys.clone(),
                SortedGroup {
                    rank,
                    start,
                    seen: 0,
                    cur_chunk: start / w,
                    local: vec![0.0; nrp],
                    ok,
                    bases,
                },
            );
            start += size;
        }
    }

    // Pass 2: accumulate per-(group, chunk) fragments.
    let mut frags: Vec<(usize, usize, Vec<f64>)> = Vec::new(); // (chunk, rank, local)
    let mut stats = {
        let mut sigval = vec![0.0; kp.sig_reps.len()];
        let mut row_bases = vec![usize::MAX; ndims];
        let proj = file_projection(plan, src, false, virtual_cols);
        run_row_stream(src, cfg, &proj, map_chunk, &mut |work| {
            let bounds = physical::bind_dims(plan, work);
            let fa = physical::FactAccess::bind(plan, work);
            let prefix_cols: Vec<&[i64]> = prefix_col_names
                .iter()
                .map(|c| {
                    work.fact
                        .column(c.as_str())
                        .expect("prefix key column")
                        .as_i64()
                        .expect("int key")
                })
                .collect();
            let n = work.fact.len();
            for i in 0..n {
                for (l, col) in prefix_cols.iter().enumerate() {
                    keybuf[l] = col[i];
                }
                let g = states
                    .get_mut(keybuf.as_slice())
                    .expect("group from pass 1");
                let pos = g.start + g.seen;
                g.seen += 1;
                let chunk = pos / w;
                if chunk != g.cur_chunk {
                    frags.push((
                        g.cur_chunk,
                        g.rank,
                        std::mem::replace(&mut g.local, vec![0.0; nrp]),
                    ));
                    g.cur_chunk = chunk;
                }
                if !g.ok {
                    continue; // the position still advances, as in memory
                }
                let mut row_ok = true;
                for &di in &kp.remainder {
                    match views[di].base_of(bounds[di].fact_keys[i]) {
                        Some(b) => row_bases[di] = b,
                        None => {
                            row_ok = false;
                            break;
                        }
                    }
                }
                if !row_ok {
                    continue;
                }
                for (s, &rep) in kp.sig_reps.iter().enumerate() {
                    sigval[s] = fa[rep].eval(i);
                }
                for (rp, (sig, rem)) in kp.rowprogs.iter().enumerate() {
                    let mut v = sigval[*sig];
                    if v == 0.0 {
                        continue;
                    }
                    for (ri, &di) in kp.remainder.iter().enumerate() {
                        v *= views[di].data[row_bases[di] + rem[ri]];
                    }
                    g.local[rp] += v;
                }
            }
        })?
    };
    stats.chunks += pass1.chunks;
    stats.rows += pass1.rows;
    stats.peak_live_chunks = stats.peak_live_chunks.max(pass1.peak_live_chunks);
    // Final fragments and per-group metadata, ordered by rank.
    let mut group_meta: Vec<(bool, Vec<usize>)> = vec![(false, Vec::new()); states.len()];
    for (_, g) in states {
        frags.push((g.cur_chunk, g.rank, g.local));
        group_meta[g.rank] = (g.ok, g.bases);
    }
    frags.sort_by_key(|&(chunk, rank, _)| (chunk, rank));

    // Merge: one partial per in-memory chunk, fragments flushed in group
    // order within it, partials added in ascending chunk order.
    let nchunks = src.fact_meta.rows.div_ceil(w);
    let mut acc = vec![0.0; nterms];
    let mut fi = 0usize;
    for c in 0..nchunks {
        let mut partial = vec![0.0; nterms];
        while fi < frags.len() && frags[fi].0 == c {
            let (_, rank, local) = &frags[fi];
            fi += 1;
            let (ok, bases) = &group_meta[*rank];
            if !*ok {
                continue;
            }
            for (t, term) in plan.terms.iter().enumerate() {
                let mut v = local[kp.rowprog_of[t]];
                if v == 0.0 {
                    continue;
                }
                for &di in &prefix_dims {
                    v *= views[di].data[bases[di] + term.dim_payload[di]];
                }
                partial[t] += v;
            }
        }
        for (a, v) in acc.iter_mut().zip(partial) {
            *a += v;
        }
    }
    Ok((acc, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout;
    use crate::star::running_example_star;
    use ifaq_query::batch::covar_batch;
    use ifaq_query::JoinTree;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ifaq_engine_stream_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn plan_for(db: &StarDb) -> ViewPlan {
        let cat = db.catalog();
        let tree = JoinTree::build(&cat, &["S", "R", "I"]).unwrap();
        let batch = covar_batch(&["city", "price"], "units");
        ViewPlan::plan(&batch, &tree, &cat).unwrap()
    }

    #[test]
    fn streamed_equals_resident_for_every_layout_on_the_running_example() {
        let db = running_example_star();
        let plan = plan_for(&db);
        let dir = tmpdir("all_layouts");
        db.export_dir(&dir).unwrap();
        let src = StreamSource::open_dir(&dir).unwrap();
        assert_eq!(src.fact_rows(), db.fact.len());
        for &l in Layout::all() {
            for chunk_rows in [1usize, 2, 3, 5, 100] {
                let cfg = ExecConfig::with_threads(1).with_chunk_rows(chunk_rows);
                let expected =
                    layout::execute_with(l, &plan, &db, &layout::prepare(l, &plan, &db), &cfg);
                let prep = prepare_streaming(l, &plan, src.schema_db(), src.fact_rows());
                let (got, stats) = execute_streaming(&plan, &src, &prep, &cfg).unwrap();
                assert_eq!(got, expected, "layout {l:?} chunk_rows {chunk_rows}");
                assert!(stats.rows >= db.fact.len());
                assert!(stats.peak_live_chunks <= READER_DEPTH + 2);
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_dir_surfaces_manifest_faults() {
        let dir = tmpdir("bad_manifest");
        std::fs::write(dir.join("star.manifest"), "not a manifest\n").unwrap();
        assert!(matches!(
            StreamSource::open_dir(&dir),
            Err(ExportError::Manifest { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
