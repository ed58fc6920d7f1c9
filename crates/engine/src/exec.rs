//! The executor-trait plan-node architecture: aggregate-batch execution
//! as a tree of [`Executor`] nodes instead of a layout-tagged dispatch.
//!
//! The 8 physical layouts (§4.3–4.4 of the paper) are kernels in
//! [`crate::physical`] — a `prepare_*` / `exec_*_prepared` pair each — and
//! this module is the only way to run them: a new capability (iterative
//! logistic training, incremental deltas, out-of-core streaming) touches
//! one tree instead of an 8-way `match` per entry point. This module
//! replaces layout-tagged dispatch with composition, the
//! shape polars' `physical_plan::executors` uses: plan nodes **own their
//! prepared state**, compose into a tree, and thread an
//! [`ExecutionState`] through both phases of execution.
//!
//! ## The tree
//!
//! [`build_tree`] constructs, for any [`ViewPlan`] × [`Layout`], a fixed
//! three-level tree:
//!
//! ```text
//! Aggregate[…]                 ← AggregateNode: term→aggregate mapping, fold discipline
//! └─ MergedHashViews[…]        ← one per-layout join/view node, owns all θ-free state
//!    └─ Scan[…]                ← ScanNode: fact input identity + staleness guards
//! ```
//!
//! The join/view node is one of eight concrete types — [`MaterializedNode`],
//! [`PushdownNode`], [`BoxedRecordsNode`], [`BoxedScalarsNode`],
//! [`MergedHashNode`], [`TrieNode`], [`DenseArrayNode`], [`SortedTrieNode`] —
//! each owning exactly the prepared state its layout needs (merged hash
//! views, dense arrays, the fact trie, the sorted order, …) and knowing
//! how to run its fused multi-aggregate scan over either input mode.
//! The numeric kernels themselves stay in [`crate::physical`]: a node is
//! *state + orchestration*, so resident execution calls the
//! `exec_*_prepared` kernels, the row-sharded streamed paths call the
//! same kernels once per chunk, and every bit-identity guarantee (across
//! thread counts, across prepare reuse, across streaming) holds **by
//! construction** rather than by re-verification. Nodes never mutate in
//! `execute`, so one prepared tree serves concurrent executes.
//!
//! ## prepare / execute
//!
//! [`Executor::prepare`] builds all θ-free state exactly once — views,
//! tries, sort orders, join resolution — mirroring the paper's
//! assumption that relations are pre-indexed outside the measured
//! region. [`Executor::execute`] runs only the θ-dependent scan. Fact
//! *value* columns are never captured at prepare time, so one
//! preparation stays valid across iterative training that rewrites a
//! derived fact column (logistic's `__sigma`); the θ-dependence rules
//! are the shared ones from `ifaq_ir::analysis` (the `__` iteration-
//! column convention), and [`build_tree`] rejects plans whose
//! *dimension* payloads reference iteration columns — baking those into
//! views would freeze iteration 0 forever.
//!
//! ## Input modes
//!
//! The same tree executes over two [`Source`]s:
//!
//! * [`Source::Resident`] — an in-memory [`StarDb`]; nodes run the
//!   in-memory kernels under the [`ExecConfig`] sharding discipline.
//! * [`Source::Stream`] — an on-disk [`StreamSource`]; nodes run their
//!   streaming transcription over fixed `chunk_rows` chunks (prepare
//!   against [`Source::StreamSchema`], which supplies the schema
//!   database and the on-disk row count the trie-family level analysis
//!   needs).
//!
//! Delta maintenance needs no third mode: a Δ scan *is* a resident
//! execution whose fact table happens to hold only the net delta rows
//! (see `ifaq_serve`), and the [`PrepCache`] below is what makes it
//! cheap.
//!
//! ## The prepared-subtree cache
//!
//! [`ExecutionState`] optionally carries a [`PrepCache`]: a map from a
//! **θ-free node fingerprint** (node kind + plan shape + dimension-table
//! identity — never the fact table, never θ) to the prepared state built
//! for it. Dimension-side state — every hash/dense/boxed/pushdown view —
//! depends only on the dimension tables and the plan, exactly the
//! subplans `ifaq_ir::analysis::DeltaAnalysis` classifies `Reusable`
//! under a fact-only delta; fact-derived state (the join index, the fact
//! trie, the sorted order) is rebuilt per preparation and never cached.
//! A long-lived engine (`ifaq_serve::ServeEngine`) holds one cache and
//! re-prepares per delta for the cost of a fingerprint lookup. The
//! cache contract: entries stay valid while the dimension tables are
//! unchanged — fact inserts/deletes/value rewrites are fine; editing a
//! dimension table requires a fresh cache.
//!
//! ## Example
//!
//! ```
//! use ifaq_engine::exec::{build_tree, Source};
//! use ifaq_engine::star::running_example_star;
//! use ifaq_engine::{ExecConfig, Layout};
//! use ifaq_query::{batch::covar_batch, JoinTree, ViewPlan};
//!
//! let db = running_example_star();
//! let cat = db.catalog();
//! let jt = JoinTree::build(&cat, &["S", "R", "I"]).unwrap();
//! let batch = covar_batch(&["city", "price"], "units");
//! let plan = ViewPlan::plan(&batch, &jt, &cat).unwrap();
//!
//! let mut tree = build_tree(&plan, Some(&batch), Layout::MergedHash, ExecConfig::global());
//! tree.prepare(Source::Resident(&db)).unwrap();
//! let totals = tree.execute(Source::Resident(&db)).unwrap();
//! assert_eq!(totals.len(), plan.terms.len());
//! println!("{}", tree.explain());
//! ```

use crate::layout::Layout;
use crate::par::ExecConfig;
use crate::physical;
use crate::star::StarDb;
use crate::stream::{self, ChunkMap, StreamSource, StreamStats};
use ifaq_ir::Sym;
use ifaq_query::batch::AggBatch;
use ifaq_query::ViewPlan;
use ifaq_storage::stream::ExportError;
use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The result of executing a (sub)tree: one f64 per plan term, in term
/// order — the same vector every `exec_*_prepared` kernel produces.
pub type AggResults = Vec<f64>;

/// An execution error. Staleness (wrong layout/plan/generation/shape) is
/// a *panic*, not an error — executing stale state is a caller bug that
/// would silently corrupt results; only genuinely runtime-fallible paths
/// (disk I/O during streaming) surface as `Err`.
#[derive(Debug)]
pub enum ExecError {
    /// A streaming read failed (bad magic, truncation, short read, …).
    Stream(ExportError),
    /// `execute` was called on a node whose `prepare` never ran.
    Unprepared(&'static str),
    /// The node was prepared for one input mode (resident / streamed)
    /// but executed under the other.
    SourceMismatch(&'static str),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Stream(e) => write!(f, "streaming read failed: {e}"),
            ExecError::Unprepared(node) => {
                write!(f, "executor node `{node}` executed before prepare")
            }
            ExecError::SourceMismatch(node) => write!(
                f,
                "executor node `{node}` prepared for one input mode but executed under \
                 the other (resident vs streamed); re-prepare against the source being \
                 executed"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<ExportError> for ExecError {
    fn from(e: ExportError) -> Self {
        ExecError::Stream(e)
    }
}

/// The fact-side input a tree prepares against or executes over.
#[derive(Clone, Copy)]
pub enum Source<'a> {
    /// An in-memory star database: valid for both prepare and execute.
    Resident(&'a StarDb),
    /// Streaming prepare input: the schema database (dimensions
    /// resident, fact empty — possibly augmented with derived fact
    /// columns like logistic's `__sigma`) plus the on-disk fact row
    /// count the trie-family level analysis must see.
    StreamSchema {
        /// Schema database (`StreamSource::schema_db` or a derived one).
        schema: &'a StarDb,
        /// Full on-disk fact row count.
        fact_rows: usize,
    },
    /// Streaming execute input: the opened on-disk export. Also accepted
    /// at prepare time as shorthand for
    /// `StreamSchema { schema: src.schema_db(), fact_rows: src.fact_rows() }`.
    Stream(&'a StreamSource),
}

impl<'a> Source<'a> {
    /// The database holding the dimension tables: the resident database,
    /// or the stream's schema database.
    fn dims_db(&self) -> &'a StarDb {
        match *self {
            Source::Resident(db) => db,
            Source::StreamSchema { schema, .. } => schema,
            Source::Stream(src) => src.schema_db(),
        }
    }

    /// The fact row count: resident rows, or the on-disk count.
    fn fact_rows(&self) -> usize {
        match *self {
            Source::Resident(db) => db.fact.len(),
            Source::StreamSchema { fact_rows, .. } => fact_rows,
            Source::Stream(src) => src.fact_rows(),
        }
    }

    /// The resident database, if this is one.
    fn resident(&self) -> Option<&'a StarDb> {
        match *self {
            Source::Resident(db) => Some(db),
            _ => None,
        }
    }
}

/// A prepared-subtree cache keyed by θ-free node fingerprint: shared,
/// thread-safe, and deliberately ignorant of the fact table. See the
/// [module docs](self) for the validity contract (dimension tables must
/// be unchanged for the cache's lifetime; fact deltas are fine).
#[derive(Default)]
pub struct PrepCache {
    entries: Mutex<HashMap<u64, Arc<dyn Any + Send + Sync>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl PrepCache {
    /// An empty cache.
    pub fn new() -> PrepCache {
        PrepCache::default()
    }

    /// Lookups answered from the cache so far.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to build (and then populate) an entry.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of cached subtree states.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("prep cache lock").len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn get_or_build<T, F>(&self, key: u64, build: F) -> Arc<T>
    where
        T: Send + Sync + 'static,
        F: FnOnce() -> T,
    {
        if let Some(hit) = self
            .entries
            .lock()
            .expect("prep cache lock")
            .get(&key)
            .and_then(|e| Arc::clone(e).downcast::<T>().ok())
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        // Build outside the lock: a racing builder wastes work but never
        // deadlocks, and both racers produce identical (deterministic)
        // state.
        let built = Arc::new(build());
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.entries
            .lock()
            .expect("prep cache lock")
            .insert(key, Arc::clone(&built) as Arc<dyn Any + Send + Sync>);
        built
    }
}

/// Per-call execution context threaded through every node of a tree:
/// the input [`Source`], the sharding [`ExecConfig`], an optional
/// [`PrepCache`], prepare-invocation accounting, and the streaming-only
/// extras (virtual columns, per-chunk transform, run stats).
pub struct ExecutionState<'a> {
    source: Source<'a>,
    cfg: ExecConfig,
    cache: Option<&'a PrepCache>,
    virtual_cols: &'a [Sym],
    map_chunk: Option<&'a mut ChunkMap<'a>>,
    stream_stats: Option<StreamStats>,
    prepares: usize,
}

impl<'a> ExecutionState<'a> {
    /// A state over `source` with the process-wide [`ExecConfig::global`].
    pub fn new(source: Source<'a>) -> ExecutionState<'a> {
        ExecutionState {
            source,
            cfg: *ExecConfig::global(),
            cache: None,
            virtual_cols: &[],
            map_chunk: None,
            stream_stats: None,
            prepares: 0,
        }
    }

    /// Overrides the sharding configuration (builder style).
    pub fn with_cfg(mut self, cfg: ExecConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Attaches a prepared-subtree cache (builder style).
    pub fn with_cache(mut self, cache: &'a PrepCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Declares derived fact columns the chunk transform appends
    /// (streaming only; excluded from the file projection).
    pub fn with_virtual_cols(mut self, cols: &'a [Sym]) -> Self {
        self.virtual_cols = cols;
        self
    }

    /// Attaches a per-chunk relation transform (streaming only), e.g.
    /// the logistic trainer's per-chunk `__sigma` computation.
    pub fn with_map_chunk(mut self, map: &'a mut ChunkMap<'a>) -> Self {
        self.map_chunk = Some(map);
        self
    }

    /// The sharding configuration for this call.
    pub fn cfg(&self) -> &ExecConfig {
        &self.cfg
    }

    /// Node-prepare invocations recorded on this state so far (each node
    /// bumps it once per `prepare` call, cache hit or not).
    pub fn prepares(&self) -> usize {
        self.prepares
    }

    /// The [`StreamStats`] of the last streamed execute through this
    /// state, if one ran.
    pub fn take_stream_stats(&mut self) -> Option<StreamStats> {
        self.stream_stats.take()
    }

    fn note_prepare(&mut self) {
        self.prepares += 1;
    }

    /// Fetches (or builds) θ-free dimension-side state through the
    /// attached cache; with no cache attached, builds directly.
    fn dim_state<T, F>(&self, key: u64, build: F) -> Arc<T>
    where
        T: Send + Sync + 'static,
        F: FnOnce() -> T,
    {
        match self.cache {
            Some(c) => c.get_or_build(key, build),
            None => Arc::new(build()),
        }
    }

    /// Runs a streamed execute with this call's config, virtual columns
    /// and chunk transform, and records its [`StreamStats`].
    fn streamed(
        &mut self,
        run: impl FnOnce(
            &ExecConfig,
            &[Sym],
            Option<&mut ChunkMap<'a>>,
        ) -> Result<(AggResults, StreamStats), ExportError>,
    ) -> Result<AggResults, ExecError> {
        let (acc, stats) = run(&self.cfg, self.virtual_cols, self.map_chunk.as_deref_mut())?;
        self.stream_stats = Some(stats);
        Ok(acc)
    }
}

/// Fingerprint of a node's θ-free, *fact-free* inputs: node kind, layout,
/// plan shape (dims + terms), and each dimension table's identity
/// (relation name, join key, row count). Deliberately excludes the fact
/// table and the database generation — that exclusion is exactly what
/// lets dimension-side state survive fact deltas (`DeltaAnalysis`'s
/// `Reusable` class).
fn dim_fingerprint(kind: &str, layout: Layout, plan: &ViewPlan, db: &StarDb) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut h = DefaultHasher::new();
    kind.hash(&mut h);
    layout.label().hash(&mut h);
    format!("{:?}", plan.dims).hash(&mut h);
    format!("{:?}", plan.terms).hash(&mut h);
    for d in &db.dims {
        d.rel.name.as_str().hash(&mut h);
        d.key.as_str().hash(&mut h);
        d.rel.len().hash(&mut h);
    }
    h.finish()
}

/// A plan node: owns its θ-free prepared state, composes into a tree,
/// and threads the per-call [`ExecutionState`] through both phases.
///
/// `prepare` builds everything θ-free exactly once (idempotent: calling
/// it again rebuilds against the current source). `execute` runs only
/// the θ-dependent scan and may be called any number of times per
/// preparation; it never mutates the node, so one prepared tree serves
/// concurrent executes from many threads (and, holding no interior
/// mutability, stays unwind-safe). `describe` renders the node's
/// one-line summary for [`PlanTree::explain`].
///
/// Trees built by [`build_tree`] drive the trait directly; the root is
/// always an `AggregateNode`, so `execute` on the root returns one value
/// per batch aggregate:
///
/// ```
/// use ifaq_engine::{exec, ExecConfig, Layout};
/// use ifaq_engine::exec::{Executor, Source};
/// use ifaq_engine::star::running_example_star;
/// use ifaq_query::{batch::covar_batch, JoinTree, ViewPlan};
///
/// let db = running_example_star();
/// let cat = db.catalog();
/// let jt = JoinTree::build(&cat, &["S", "R", "I"]).unwrap();
/// let batch = covar_batch(&["city"], "units");
/// let plan = ViewPlan::plan(&batch, &jt, &cat).unwrap();
///
/// let mut tree = exec::build_tree(&plan, Some(&batch), Layout::MergedHash,
///                                 ExecConfig::global());
/// tree.prepare(Source::Resident(&db)).unwrap();   // θ-free state, once
/// let results = tree.execute(Source::Resident(&db)).unwrap();
/// assert_eq!(results.len(), plan.terms.len());    // one value per term
/// // The root node names itself through the trait:
/// assert!(tree.explain().starts_with("Aggregate["));
/// ```
pub trait Executor: Send + Sync + std::panic::RefUnwindSafe {
    /// Stable node-kind name (used in errors and fingerprints).
    fn name(&self) -> &'static str;

    /// Builds the node's θ-free state against `state.source`.
    fn prepare(&mut self, state: &mut ExecutionState<'_>) -> Result<(), ExecError>;

    /// Runs the θ-dependent scan and returns one value per plan term.
    fn execute(&self, state: &mut ExecutionState<'_>) -> Result<AggResults, ExecError>;

    /// One-line self-description for the explain tree.
    fn describe(&self) -> String;

    /// Child nodes, for rendering.
    fn children(&self) -> Vec<&dyn Executor> {
        Vec::new()
    }
}

fn render(node: &dyn Executor, depth: usize, out: &mut String) {
    if depth > 0 {
        out.push_str(&"   ".repeat(depth - 1));
        out.push_str("└─ ");
    }
    out.push_str(&node.describe());
    out.push('\n');
    for c in node.children() {
        render(c, depth + 1, out);
    }
}

/// `R via item (2 payloads), I via store (1 payload)` — the per-dimension
/// summary shared by every join/view node's `describe`.
fn dims_summary(plan: &ViewPlan) -> String {
    plan.dims
        .iter()
        .map(|d| {
            let n = d.payloads.len();
            format!(
                "{} via {} ({} payload{})",
                d.relation,
                d.key_attrs[0],
                n,
                if n == 1 { "" } else { "s" }
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

// ---------------------------------------------------------------------------
// ScanNode
// ---------------------------------------------------------------------------

/// The fact-input leaf: pins *which* fact relation feeds the tree (name,
/// plan-touched columns) and, at prepare time, the input's identity —
/// row counts and mutation epoch for a resident database, the on-disk
/// row count for a stream. Its `execute` is the staleness guard: a
/// resident source whose generation or shape moved since prepare panics
/// with a message naming both sides, because row-index state above this
/// node (join index, trie, sort order) would read out of bounds or
/// silently mis-join.
pub struct ScanNode {
    fact_name: String,
    columns: Vec<Sym>,
    prep: Option<ScanPrep>,
}

enum ScanPrep {
    Resident {
        db_shape: Vec<usize>,
        db_generation: u64,
    },
    Streamed {
        fact_rows: usize,
    },
}

fn db_shape(db: &StarDb) -> Vec<usize> {
    std::iter::once(db.fact.len())
        .chain(db.dims.iter().map(|d| d.rel.len()))
        .collect()
}

impl ScanNode {
    fn new(plan: &ViewPlan) -> ScanNode {
        ScanNode {
            fact_name: plan.tree.root.relation.as_str().to_string(),
            columns: stream::plan_fact_columns(plan),
            prep: None,
        }
    }
}

impl Executor for ScanNode {
    fn name(&self) -> &'static str {
        "scan"
    }

    fn prepare(&mut self, state: &mut ExecutionState<'_>) -> Result<(), ExecError> {
        state.note_prepare();
        self.prep = Some(match state.source {
            Source::Resident(db) => ScanPrep::Resident {
                db_shape: db_shape(db),
                db_generation: db.generation(),
            },
            source => ScanPrep::Streamed {
                fact_rows: source.fact_rows(),
            },
        });
        Ok(())
    }

    fn execute(&self, state: &mut ExecutionState<'_>) -> Result<AggResults, ExecError> {
        let prep = self.prep.as_ref().ok_or(ExecError::Unprepared("scan"))?;
        match (prep, state.source) {
            (
                ScanPrep::Resident {
                    db_shape: shape,
                    db_generation,
                },
                Source::Resident(db),
            ) => {
                if *db_generation != db.generation() {
                    panic!(
                        "stale Prepared: state was built at database generation {built} but \
                         execute was called at generation {now}; a delta was applied in \
                         between, so row-index state (join index, trie, sort order) and \
                         baked views may no longer match the data — rebuild with \
                         layout::prepare over the current database",
                        built = db_generation,
                        now = db.generation(),
                    );
                }
                if *shape != db_shape(db) {
                    panic!(
                        "stale Prepared: state was built over a database shaped {built:?} \
                         (fact rows, then each dimension's rows) but execute was called over \
                         one shaped {want:?}; row-index state (join index, trie, sort order) \
                         would read out of bounds — rebuild with layout::prepare for the \
                         current database",
                        built = shape,
                        want = db_shape(db),
                    );
                }
            }
            (ScanPrep::Streamed { .. }, Source::Stream(_)) => {}
            _ => return Err(ExecError::SourceMismatch("scan")),
        }
        // The fused scans above this node drive the actual row
        // consumption; the scan leaf contributes no partials of its own.
        Ok(Vec::new())
    }

    fn describe(&self) -> String {
        let cols = self
            .columns
            .iter()
            .map(Sym::as_str)
            .collect::<Vec<_>>()
            .join(", ");
        match &self.prep {
            Some(ScanPrep::Resident {
                db_shape,
                db_generation,
            }) => format!(
                "Scan[{}: {} rows resident, cols [{}], generation {}]",
                self.fact_name, db_shape[0], cols, db_generation
            ),
            Some(ScanPrep::Streamed { fact_rows }) => format!(
                "Scan[{}: {} rows streamed (IFAQTBL1), cols [{}]]",
                self.fact_name, fact_rows, cols
            ),
            None => format!("Scan[{}: unprepared, cols [{}]]", self.fact_name, cols),
        }
    }
}

// ---------------------------------------------------------------------------
// Per-layout join/view nodes
// ---------------------------------------------------------------------------

macro_rules! shared_prep_node {
    ($node:ident, $kind:literal, $label:literal, $layout:expr, $prep_ty:ty,
     $prepare_fn:path, $exec_fn:path) => {
        /// A join/view node whose θ-free state is entirely dimension-side
        /// (fact-free), shared verbatim between resident and streamed
        /// execution, and cacheable across fact deltas.
        pub struct $node {
            plan: Arc<ViewPlan>,
            scan: ScanNode,
            prep: Option<Arc<$prep_ty>>,
        }

        impl $node {
            fn new(plan: Arc<ViewPlan>) -> $node {
                let scan = ScanNode::new(&plan);
                $node {
                    plan,
                    scan,
                    prep: None,
                }
            }
        }

        impl Executor for $node {
            fn name(&self) -> &'static str {
                $kind
            }

            fn prepare(&mut self, state: &mut ExecutionState<'_>) -> Result<(), ExecError> {
                self.scan.prepare(state)?;
                state.note_prepare();
                let (plan, schema) = (&self.plan, state.source.dims_db());
                self.prep = Some(
                    state.dim_state(dim_fingerprint($kind, $layout, plan, schema), || {
                        $prepare_fn(plan, schema)
                    }),
                );
                Ok(())
            }

            fn execute(&self, state: &mut ExecutionState<'_>) -> Result<AggResults, ExecError> {
                self.scan.execute(state)?;
                let prep = self.prep.as_ref().ok_or(ExecError::Unprepared($kind))?;
                let plan = &self.plan;
                match state.source {
                    Source::Resident(db) => Ok($exec_fn(plan, db, prep, state.cfg())),
                    Source::Stream(src) => state.streamed(|cfg, vcols, map| {
                        let serial = ExecConfig::serial();
                        stream::fold_chunks(plan, src, cfg, vcols, map, &mut |work| {
                            $exec_fn(plan, work, prep, &serial)
                        })
                    }),
                    Source::StreamSchema { .. } => Err(ExecError::SourceMismatch($kind)),
                }
            }

            fn describe(&self) -> String {
                format!(concat!($label, "[{}]"), dims_summary(&self.plan))
            }

            fn children(&self) -> Vec<&dyn Executor> {
                vec![&self.scan]
            }
        }
    };
}

shared_prep_node!(
    MergedHashNode,
    "merged-hash",
    "MergedHashViews",
    Layout::MergedHash,
    physical::MergedPrep,
    physical::prepare_merged,
    physical::exec_merged_prepared
);

shared_prep_node!(
    DenseArrayNode,
    "dense-array",
    "DenseArrayViews",
    Layout::Array,
    physical::ArrayPrep,
    physical::prepare_array,
    physical::exec_array_prepared
);

shared_prep_node!(
    BoxedRecordsNode,
    "boxed-records",
    "BoxedRecordViews",
    Layout::BoxedRecords,
    physical::BoxedRecordsPrep,
    physical::prepare_boxed_records,
    physical::exec_boxed_records_prepared
);

shared_prep_node!(
    BoxedScalarsNode,
    "boxed-scalars",
    "BoxedScalarViews",
    Layout::BoxedScalars,
    physical::BoxedScalarsPrep,
    physical::prepare_boxed_scalars,
    physical::exec_boxed_scalars_prepared
);

/// The pushdown node: one private view set per (aggregate, dimension)
/// pair — Fig. 7a's deliberately redundant starting rung. Dimension-side
/// only, so the whole state is cacheable; the streamed transcription
/// carries per-term accumulators across chunk boundaries (in memory each
/// term is one unbroken sequential fold, sharded per *term*).
pub struct PushdownNode {
    plan: Arc<ViewPlan>,
    scan: ScanNode,
    prep: Option<Arc<physical::PushdownPrep>>,
}

impl PushdownNode {
    fn new(plan: Arc<ViewPlan>) -> PushdownNode {
        let scan = ScanNode::new(&plan);
        PushdownNode {
            plan,
            scan,
            prep: None,
        }
    }
}

impl Executor for PushdownNode {
    fn name(&self) -> &'static str {
        "pushdown"
    }

    fn prepare(&mut self, state: &mut ExecutionState<'_>) -> Result<(), ExecError> {
        self.scan.prepare(state)?;
        state.note_prepare();
        let (plan, schema) = (&self.plan, state.source.dims_db());
        self.prep = Some(state.dim_state(
            dim_fingerprint("pushdown", Layout::Pushdown, plan, schema),
            || physical::prepare_pushdown(plan, schema),
        ));
        Ok(())
    }

    fn execute(&self, state: &mut ExecutionState<'_>) -> Result<AggResults, ExecError> {
        self.scan.execute(state)?;
        let prep = self
            .prep
            .as_ref()
            .ok_or(ExecError::Unprepared("pushdown"))?;
        let plan = &self.plan;
        match state.source {
            Source::Resident(db) => Ok(physical::exec_pushdown_prepared(
                plan,
                db,
                prep,
                state.cfg(),
            )),
            Source::Stream(src) => state.streamed(|cfg, vcols, map| {
                let mut acc = vec![0.0; plan.terms.len()];
                let proj = stream::file_projection(plan, src, false, vcols);
                let stats = stream::run_row_stream(src, cfg, &proj, map, &mut |work| {
                    // Per-term accumulators carry across chunks — the
                    // unbroken sequential fold.
                    let bounds = physical::bind_dims(plan, work);
                    let fa = physical::FactAccess::bind(plan, work);
                    for (t, a) in acc.iter_mut().enumerate() {
                        *a = physical::pushdown_fold(
                            &bounds,
                            &prep.views[t],
                            &fa[t],
                            work.fact.len(),
                            *a,
                        );
                    }
                })?;
                Ok((acc, stats))
            }),
            Source::StreamSchema { .. } => Err(ExecError::SourceMismatch("pushdown")),
        }
    }

    fn describe(&self) -> String {
        format!(
            "PushdownViews[{} term view sets; {}]",
            self.plan.terms.len(),
            dims_summary(&self.plan)
        )
    }

    fn children(&self) -> Vec<&dyn Executor> {
        vec![&self.scan]
    }
}

/// The materialized baseline node: resolve the star join once into a
/// row-index structure, then gather + aggregate over the joined matrix.
/// The join index holds fact row indices, so it is fact-derived state —
/// rebuilt per preparation, never cached.
pub struct MaterializedNode {
    plan: Arc<ViewPlan>,
    scan: ScanNode,
    state: Option<MatState>,
}

enum MatState {
    Resident(physical::MatPrep),
    /// Streamed index join: per-dimension key → row maps (dimension-side
    /// and cacheable).
    Streamed(Arc<Vec<HashMap<i64, usize>>>),
}

impl MaterializedNode {
    fn new(plan: Arc<ViewPlan>) -> MaterializedNode {
        let scan = ScanNode::new(&plan);
        MaterializedNode {
            plan,
            scan,
            state: None,
        }
    }
}

impl Executor for MaterializedNode {
    fn name(&self) -> &'static str {
        "materialized"
    }

    fn prepare(&mut self, state: &mut ExecutionState<'_>) -> Result<(), ExecError> {
        self.scan.prepare(state)?;
        state.note_prepare();
        self.state = Some(match state.source {
            Source::Resident(db) => MatState::Resident(physical::prepare_materialized(db)),
            source => {
                let schema = source.dims_db();
                MatState::Streamed(state.dim_state(
                    dim_fingerprint("materialized", Layout::Materialized, &self.plan, schema),
                    || schema.dims.iter().map(|d| d.key_index()).collect(),
                ))
            }
        });
        Ok(())
    }

    fn execute(&self, state: &mut ExecutionState<'_>) -> Result<AggResults, ExecError> {
        self.scan.execute(state)?;
        let prep = self
            .state
            .as_ref()
            .ok_or(ExecError::Unprepared("materialized"))?;
        let plan = &self.plan;
        match (prep, state.source) {
            (MatState::Resident(p), Source::Resident(db)) => Ok(
                physical::exec_materialized_prepared(plan, db, p, state.cfg()),
            ),
            (MatState::Streamed(key_indexes), Source::Stream(src)) => {
                state.streamed(|cfg, vcols, map| {
                    stream::stream_materialized(plan, src, key_indexes, cfg, vcols, map)
                })
            }
            _ => Err(ExecError::SourceMismatch("materialized")),
        }
    }

    fn describe(&self) -> String {
        let mode = match &self.state {
            Some(MatState::Resident(_)) => "resolved join index",
            Some(MatState::Streamed(_)) => "streamed index join",
            None => "unprepared",
        };
        format!("MaterializedJoin[{}; {}]", mode, dims_summary(&self.plan))
    }

    fn children(&self) -> Vec<&dyn Executor> {
        vec![&self.scan]
    }
}

/// Summary of a trie-family level analysis for `describe`.
fn kp_summary(kp: &physical::KeyPlan) -> String {
    let prefix = kp
        .prefix
        .iter()
        .map(|(c, _)| c.as_str())
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "prefix [{prefix}], {} per-row dim{}, {} row program{}",
        kp.remainder.len(),
        if kp.remainder.len() == 1 { "" } else { "s" },
        kp.rowprogs.len(),
        if kp.rowprogs.len() == 1 { "" } else { "s" }
    )
}

/// The fact-trie node (Fig. 7a "Dictionary to Trie"): merged hash views
/// (dimension-side, cacheable) plus the fact trie and level analysis
/// (fact-derived, rebuilt per preparation). Streamed execution skips the
/// trie — rows arrive in file order, the order trie leaves hold them —
/// and replays the in-memory group/chunk flush discipline.
pub struct TrieNode {
    plan: Arc<ViewPlan>,
    scan: ScanNode,
    state: Option<TrieState>,
}

struct TrieState {
    views: Arc<Vec<HashMap<i64, Vec<f64>>>>,
    kp: physical::KeyPlan,
    /// The fact trie; `None` when prepared for streaming.
    trie: Option<physical::FactTrie>,
}

impl TrieNode {
    fn new(plan: Arc<ViewPlan>) -> TrieNode {
        let scan = ScanNode::new(&plan);
        TrieNode {
            plan,
            scan,
            state: None,
        }
    }
}

impl Executor for TrieNode {
    fn name(&self) -> &'static str {
        "trie"
    }

    fn prepare(&mut self, state: &mut ExecutionState<'_>) -> Result<(), ExecError> {
        self.scan.prepare(state)?;
        state.note_prepare();
        let (plan, source) = (&self.plan, state.source);
        let schema = source.dims_db();
        let views = state.dim_state(dim_fingerprint("trie", Layout::Trie, plan, schema), || {
            physical::build_merged_views(plan, schema)
        });
        let kp = physical::key_plan(plan, schema, source.fact_rows());
        let trie = source
            .resident()
            .map(|db| physical::build_fact_trie_from(&kp, db));
        self.state = Some(TrieState { views, kp, trie });
        Ok(())
    }

    fn execute(&self, state: &mut ExecutionState<'_>) -> Result<AggResults, ExecError> {
        self.scan.execute(state)?;
        let prep = self.state.as_ref().ok_or(ExecError::Unprepared("trie"))?;
        let (plan, views, kp) = (&self.plan, &prep.views, &prep.kp);
        match (&prep.trie, state.source) {
            (Some(trie), Source::Resident(db)) => Ok(physical::exec_trie_parts(
                plan,
                db,
                trie,
                views,
                kp,
                state.cfg(),
            )),
            (None, Source::Stream(src)) => state.streamed(|cfg, vcols, map| {
                stream::stream_trie(plan, src, views, kp, cfg, vcols, map)
            }),
            _ => Err(ExecError::SourceMismatch("trie")),
        }
    }

    fn describe(&self) -> String {
        let detail = match &self.state {
            Some(s) if s.trie.is_some() => kp_summary(&s.kp),
            Some(s) => format!("streamed, {}", kp_summary(&s.kp)),
            None => "unprepared".to_string(),
        };
        format!("FactTrie[{}; {}]", detail, dims_summary(&self.plan))
    }

    fn children(&self) -> Vec<&dyn Executor> {
        vec![&self.scan]
    }
}

/// The sorted-trie node (Fig. 7b "Sorted Trie"): dense key-indexed views
/// (dimension-side, cacheable) plus the sorted fact order and level
/// analysis (fact-derived, rebuilt per preparation).
pub struct SortedTrieNode {
    plan: Arc<ViewPlan>,
    scan: ScanNode,
    state: Option<SortedState>,
}

struct SortedState {
    views: Arc<Vec<physical::DenseView>>,
    kp: physical::KeyPlan,
    /// The sorted fact order; `None` when prepared for streaming.
    sorted: Option<physical::SortedStar>,
}

impl SortedTrieNode {
    fn new(plan: Arc<ViewPlan>) -> SortedTrieNode {
        let scan = ScanNode::new(&plan);
        SortedTrieNode {
            plan,
            scan,
            state: None,
        }
    }
}

impl Executor for SortedTrieNode {
    fn name(&self) -> &'static str {
        "sorted-trie"
    }

    fn prepare(&mut self, state: &mut ExecutionState<'_>) -> Result<(), ExecError> {
        self.scan.prepare(state)?;
        state.note_prepare();
        let (plan, source) = (&self.plan, state.source);
        let schema = source.dims_db();
        let views = state.dim_state(
            dim_fingerprint("sorted-trie", Layout::SortedTrie, plan, schema),
            || physical::build_dense_views(plan, schema),
        );
        let kp = physical::key_plan(plan, schema, source.fact_rows());
        let sorted = source
            .resident()
            .map(|db| physical::build_sorted_from(&kp, db));
        self.state = Some(SortedState { views, kp, sorted });
        Ok(())
    }

    fn execute(&self, state: &mut ExecutionState<'_>) -> Result<AggResults, ExecError> {
        self.scan.execute(state)?;
        let prep = self
            .state
            .as_ref()
            .ok_or(ExecError::Unprepared("sorted-trie"))?;
        let (plan, views, kp) = (&self.plan, &prep.views, &prep.kp);
        match (&prep.sorted, state.source) {
            (Some(sorted), Source::Resident(db)) => Ok(physical::exec_sorted_parts(
                plan,
                db,
                sorted,
                views,
                kp,
                state.cfg(),
            )),
            (None, Source::Stream(src)) => state.streamed(|cfg, vcols, map| {
                stream::stream_sorted(plan, src, views, kp, cfg, vcols, map)
            }),
            _ => Err(ExecError::SourceMismatch("sorted-trie")),
        }
    }

    fn describe(&self) -> String {
        let detail = match &self.state {
            Some(s) if s.sorted.is_some() => kp_summary(&s.kp),
            Some(s) => format!("streamed, {}", kp_summary(&s.kp)),
            None => "unprepared".to_string(),
        };
        format!("SortedTrie[{}; {}]", detail, dims_summary(&self.plan))
    }

    fn children(&self) -> Vec<&dyn Executor> {
        vec![&self.scan]
    }
}

// ---------------------------------------------------------------------------
// AggregateNode and the tree
// ---------------------------------------------------------------------------

/// The root: pins the term → aggregate mapping (names, when the batch is
/// known) and the fold discipline every child obeys — fixed `chunk_rows`
/// chunks whose partial sums merge by addition in ascending chunk order,
/// which is what makes results bit-identical across thread counts and
/// across the resident/streamed split.
pub struct AggregateNode {
    nterms: usize,
    names: Vec<String>,
    child: Box<dyn Executor>,
}

impl Executor for AggregateNode {
    fn name(&self) -> &'static str {
        "aggregate"
    }

    fn prepare(&mut self, state: &mut ExecutionState<'_>) -> Result<(), ExecError> {
        state.note_prepare();
        self.child.prepare(state)
    }

    fn execute(&self, state: &mut ExecutionState<'_>) -> Result<AggResults, ExecError> {
        let results = self.child.execute(state)?;
        debug_assert_eq!(results.len(), self.nterms, "term/aggregate arity drift");
        Ok(results)
    }

    fn describe(&self) -> String {
        if self.names.is_empty() {
            format!("Aggregate[{} terms]", self.nterms)
        } else {
            format!(
                "Aggregate[{} terms: {}]",
                self.nterms,
                self.names.join(", ")
            )
        }
    }

    fn children(&self) -> Vec<&dyn Executor> {
        vec![self.child.as_ref()]
    }
}

/// A built executor tree: the root [`AggregateNode`], the plan and
/// layout it was built for, and a default [`ExecConfig`]. Construct with
/// [`build_tree`]; drive with [`PlanTree::prepare`] /
/// [`PlanTree::execute`] (or the `_with` variants for an explicit
/// [`ExecutionState`]); render with [`PlanTree::explain`].
pub struct PlanTree {
    layout: Layout,
    plan: Arc<ViewPlan>,
    cfg: ExecConfig,
    root: AggregateNode,
    prepares: usize,
}

impl PlanTree {
    /// The layout this tree executes.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// The plan this tree was built for.
    pub fn plan(&self) -> &ViewPlan {
        &self.plan
    }

    /// Prepares every node against `source` with the tree's default
    /// config (θ-free state, built once; repeat calls rebuild).
    pub fn prepare(&mut self, source: Source<'_>) -> Result<(), ExecError> {
        let cfg = self.cfg;
        self.prepare_with(&mut ExecutionState::new(source).with_cfg(cfg))
    }

    /// [`PlanTree::prepare`] with an explicit [`ExecutionState`] (cache,
    /// config, streaming extras).
    pub fn prepare_with(&mut self, state: &mut ExecutionState<'_>) -> Result<(), ExecError> {
        let before = state.prepares();
        self.root.prepare(state)?;
        self.prepares += state.prepares() - before;
        Ok(())
    }

    /// Executes the θ-dependent scan over `source` with the tree's
    /// default config.
    pub fn execute(&self, source: Source<'_>) -> Result<AggResults, ExecError> {
        self.execute_with(&mut ExecutionState::new(source).with_cfg(self.cfg))
    }

    /// [`PlanTree::execute`] with an explicit [`ExecutionState`].
    pub fn execute_with(&self, state: &mut ExecutionState<'_>) -> Result<AggResults, ExecError> {
        self.root.execute(state)
    }

    /// How many node-prepare invocations this tree has run, cumulatively.
    /// After one [`PlanTree::prepare`] this equals the node count (3:
    /// aggregate, join/view, scan) and — the accounting the differential
    /// suites rely on — **never moves again** across any number of
    /// executes: θ-free state is built exactly once.
    pub fn prepare_invocations(&self) -> usize {
        self.prepares
    }

    /// Renders the tree, one node per line, e.g.:
    ///
    /// ```text
    /// Aggregate[10 terms: m_city_city, m_city_price, …, m_units, count]
    /// └─ MergedHashViews[I via item (3 payloads), R via store (3 payloads)]
    ///    └─ Scan[S: 5 rows resident, cols [item, store, units], generation 0]
    /// ```
    pub fn explain(&self) -> String {
        let mut out = String::new();
        render(&self.root, 0, &mut out);
        out
    }
}

impl fmt::Debug for PlanTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PlanTree({}):\n{}", self.layout, self.explain())
    }
}

/// Builds the executor tree for `plan` under `layout`: an
/// [`AggregateNode`] over the layout's join/view node over a
/// [`ScanNode`]. `batch` (when given) labels the aggregate node with
/// result names for [`PlanTree::explain`]; `cfg` becomes the tree's
/// default sharding config (overridable per call via
/// [`ExecutionState::with_cfg`]).
///
/// This is the single construction point every execution path routes
/// through — `layout::prepare`/`execute_with`, `Compiled`, the ml
/// trainers, `ServeEngine::apply_delta`, and streaming.
///
/// ```
/// use ifaq_engine::{exec, ExecConfig, Layout};
/// use ifaq_engine::star::running_example_star;
/// use ifaq_query::{batch::covar_batch, JoinTree, ViewPlan};
///
/// let db = running_example_star();
/// let cat = db.catalog();
/// let jt = JoinTree::build(&cat, &["S", "R", "I"]).unwrap();
/// let batch = covar_batch(&["city", "price"], "units");
/// let plan = ViewPlan::plan(&batch, &jt, &cat).unwrap();
///
/// let mut tree = exec::build_tree(&plan, Some(&batch), Layout::SortedTrie,
///                                 ExecConfig::global());
/// tree.prepare(exec::Source::Resident(&db)).unwrap();
/// // One node-prepare per node: aggregate, join/view, scan.
/// assert_eq!(tree.prepare_invocations(), 3);
/// // Repeated executes reuse the θ-free state built above.
/// let a = tree.execute(exec::Source::Resident(&db)).unwrap();
/// let b = tree.execute(exec::Source::Resident(&db)).unwrap();
/// assert_eq!(a, b);
/// assert_eq!(tree.prepare_invocations(), 3);
/// ```
///
/// # Panics
///
/// If a dimension payload of `plan` references an *iteration column*
/// (the `__`-prefixed derived-per-iteration convention of
/// [`ifaq_ir::analysis::is_iteration_column`], e.g. logistic's
/// `__sigma`). Dimension payload values are baked into prepared views,
/// so a θ-dependent column there would freeze iteration 0's values into
/// every subsequent iteration — iteration columns must be fact-owned,
/// where executors read values live.
pub fn build_tree(
    plan: &ViewPlan,
    batch: Option<&AggBatch>,
    layout: Layout,
    cfg: &ExecConfig,
) -> PlanTree {
    for dim in &plan.dims {
        for payload in &dim.payloads {
            let theta_dependent = payload
                .factors
                .iter()
                .map(|f| f.as_str())
                .chain(payload.filter.iter().map(|p| p.attr.as_str()))
                .find(|a| ifaq_ir::analysis::is_iteration_column(a));
            if let Some(attr) = theta_dependent {
                panic!(
                    "cannot prepare layout state: dimension `{}` owns iteration column \
                     `{attr}`, which changes per training iteration; prepared views would \
                     bake stale values — iteration columns must live on the fact table",
                    dim.relation
                );
            }
        }
    }
    let plan = Arc::new(plan.clone());
    let child: Box<dyn Executor> = match layout {
        Layout::Materialized => Box::new(MaterializedNode::new(Arc::clone(&plan))),
        Layout::Pushdown => Box::new(PushdownNode::new(Arc::clone(&plan))),
        Layout::BoxedRecords => Box::new(BoxedRecordsNode::new(Arc::clone(&plan))),
        Layout::BoxedScalars => Box::new(BoxedScalarsNode::new(Arc::clone(&plan))),
        Layout::MergedHash => Box::new(MergedHashNode::new(Arc::clone(&plan))),
        Layout::Trie => Box::new(TrieNode::new(Arc::clone(&plan))),
        Layout::Array => Box::new(DenseArrayNode::new(Arc::clone(&plan))),
        Layout::SortedTrie => Box::new(SortedTrieNode::new(Arc::clone(&plan))),
    };
    let names = batch
        .map(|b| b.aggs.iter().map(|a| a.name.clone()).collect())
        .unwrap_or_default();
    PlanTree {
        layout,
        cfg: *cfg,
        root: AggregateNode {
            nterms: plan.terms.len(),
            names,
            child,
        },
        plan,
        prepares: 0,
    }
}

/// Renders the executor tree `plan` × `layout` would execute, without
/// preparing it (nodes show `unprepared` where state-derived detail
/// would go). For a prepared rendering use [`PlanTree::explain`] or
/// `layout::Prepared::explain_tree`.
///
/// ```
/// use ifaq_engine::{exec, Layout};
/// use ifaq_engine::star::running_example_star;
/// use ifaq_query::{batch::covar_batch, JoinTree, ViewPlan};
///
/// let db = running_example_star();
/// let cat = db.catalog();
/// let jt = JoinTree::build(&cat, &["S", "R", "I"]).unwrap();
/// let batch = covar_batch(&["city"], "units");
/// let plan = ViewPlan::plan(&batch, &jt, &cat).unwrap();
/// let text = exec::explain_tree(&plan, Some(&batch), Layout::Array);
/// assert!(text.starts_with("Aggregate["));
/// assert!(text.contains("DenseArrayViews"));
/// ```
pub fn explain_tree(plan: &ViewPlan, batch: Option<&AggBatch>, layout: Layout) -> String {
    build_tree(plan, batch, layout, ExecConfig::global()).explain()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::star::running_example_star;
    use ifaq_query::batch::covar_batch;
    use ifaq_query::JoinTree;

    fn setup() -> (StarDb, AggBatch, ViewPlan) {
        let db = running_example_star();
        let cat = db.catalog();
        let jt = JoinTree::build(&cat, &["S", "R", "I"]).unwrap();
        let batch = covar_batch(&["city", "price"], "units");
        let plan = ViewPlan::plan(&batch, &jt, &cat).unwrap();
        (db, batch, plan)
    }

    #[test]
    fn every_layout_tree_matches_the_kernels() {
        let (db, batch, plan) = setup();
        for &layout in Layout::all() {
            let mut tree = build_tree(&plan, Some(&batch), layout, ExecConfig::global());
            tree.prepare(Source::Resident(&db)).unwrap();
            let got = tree.execute(Source::Resident(&db)).unwrap();
            let direct = crate::layout::execute_with(
                layout,
                &plan,
                &db,
                &crate::layout::prepare(layout, &plan, &db),
                ExecConfig::global(),
            );
            assert_eq!(got, direct, "{layout}: tree != direct kernel");
        }
    }

    #[test]
    fn execute_before_prepare_is_an_error() {
        let (db, batch, plan) = setup();
        let tree = build_tree(
            &plan,
            Some(&batch),
            Layout::MergedHash,
            ExecConfig::global(),
        );
        let err = tree.execute(Source::Resident(&db)).unwrap_err();
        assert!(matches!(err, ExecError::Unprepared(_)), "{err}");
    }

    #[test]
    fn prepare_counts_stand_still_across_executes() {
        let (db, batch, plan) = setup();
        for &layout in Layout::all() {
            let mut tree = build_tree(&plan, Some(&batch), layout, ExecConfig::global());
            tree.prepare(Source::Resident(&db)).unwrap();
            let after_prepare = tree.prepare_invocations();
            assert_eq!(after_prepare, 3, "{layout}: aggregate + join/view + scan");
            let first = tree.execute(Source::Resident(&db)).unwrap();
            for _ in 0..3 {
                assert_eq!(tree.execute(Source::Resident(&db)).unwrap(), first);
            }
            assert_eq!(
                tree.prepare_invocations(),
                after_prepare,
                "{layout}: execute must never re-prepare"
            );
        }
    }

    #[test]
    fn cache_reuses_dim_state_bit_identically() {
        let (db, batch, plan) = setup();
        let cache = PrepCache::new();
        for &layout in Layout::all() {
            let mut cold = build_tree(&plan, Some(&batch), layout, ExecConfig::global());
            cold.prepare_with(&mut ExecutionState::new(Source::Resident(&db)).with_cache(&cache))
                .unwrap();
            let baseline = cold.execute(Source::Resident(&db)).unwrap();

            let hits_before = cache.hits();
            let mut warm = build_tree(&plan, Some(&batch), layout, ExecConfig::global());
            warm.prepare_with(&mut ExecutionState::new(Source::Resident(&db)).with_cache(&cache))
                .unwrap();
            let warm_res = warm.execute(Source::Resident(&db)).unwrap();
            assert_eq!(warm_res, baseline, "{layout}: cached prep drifted");
            if layout != Layout::Materialized {
                // Every layout except the (fully fact-derived) resident
                // materialized baseline caches its dimension-side state.
                assert!(cache.hits() > hits_before, "{layout}: no cache hit");
            }
        }
        assert!(!cache.is_empty());
    }

    #[test]
    fn explain_renders_all_three_levels() {
        let (db, batch, plan) = setup();
        let mut tree = build_tree(
            &plan,
            Some(&batch),
            Layout::SortedTrie,
            ExecConfig::global(),
        );
        tree.prepare(Source::Resident(&db)).unwrap();
        let text = tree.explain();
        assert!(text.contains("Aggregate[10 terms: m_city_city,"), "{text}");
        assert!(text.contains("SortedTrie[prefix ["), "{text}");
        assert!(text.contains("Scan[S: 5 rows resident"), "{text}");
    }
}
