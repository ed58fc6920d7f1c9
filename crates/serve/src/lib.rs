//! A resident IFAQ serving engine with incremental aggregate maintenance.
//!
//! The batch pipeline answers "train a model over this database" by
//! scanning everything once. A serving deployment faces a different
//! shape: the database is *resident*, fact rows trickle in (sales land,
//! returns are voided), and models must stay fresh without paying a full
//! rescan per change. This crate closes that gap with the classic
//! incremental-view-maintenance observation specialized to the
//! factorized-aggregate setting:
//!
//! > Every aggregate the covar/gradient batches compute is a sum of
//! > per-fact-row terms, so for a fact-only delta Δ,
//! > `batch(fact ∪ Δ⁺ ∖ Δ⁻) = batch(fact) + batch(Δ⁺) − batch(Δ⁻)`.
//!
//! [`ServeEngine`] therefore keeps the *accumulated batch totals* as its
//! resident state. [`ServeEngine::apply_delta`] runs the ordinary layout
//! executors over a tiny Δ-database (the unchanged dimensions joined to
//! just the delta rows) and adds/subtracts the partials into the totals
//! — cost `O(|Δ| + Σ|dim|)` instead of `O(|fact| + Σ|dim|)`.
//! [`ServeEngine::refit`] then refreshes the models *from the maintained
//! moments*: linear regression via [`ifaq_ml::linreg::fit_bgd`] (`O(d²)`
//! per iteration — microseconds, no data access at all) and logistic
//! regression via [`FactorizedTrainer::with_moments`] warm-started from
//! the pre-delta θ, skipping the covar pass entirely.
//!
//! Which subplans may be kept and which must be re-run is not assumed —
//! it is *checked* at construction through
//! [`ifaq_ir::analysis::DeltaAnalysis`]: every planned dimension view
//! must classify as [`Maintenance::Reusable`] and the fact scan as
//! [`Maintenance::DeltaAffected`] for a fact-only delta stream, which is
//! exactly the premise the additivity argument rests on.
//!
//! ## Delta semantics
//!
//! A [`DeltaBatch`] is a multiset edit: inserts append rows, deletes
//! remove stored rows matched by exact bitwise value. Matched
//! insert/delete pairs *within* one batch cancel before any execution,
//! so a delete-then-reinsert of the same row is a bitwise no-op — not
//! merely a numerical one. Validation (arity, integer-key domains,
//! finite measures, delete matching) completes before any state is
//! touched: a rejected batch leaves the engine exactly as it was. A NaN
//! or infinite measure is refused because subtracting it back out of
//! the totals cannot undo it.
//!
//! ## Staleness
//!
//! Applying a delta bumps the database's generation counter
//! ([`ifaq_engine::star::StarDb::bump_generation`]); any
//! [`ifaq_engine::layout::Prepared`] built before the delta is rejected
//! by `execute_with` with a panic naming both generations, so resident
//! deployments cannot silently aggregate over stale preparation.
//!
//! While preparations cannot outlive a delta, their θ-free
//! *dimension-side* state can: the engine owns an
//! [`ifaq_engine::exec::PrepCache`] and prepares through
//! [`ifaq_engine::layout::prepare_cached`], so the hash views, dense
//! arrays, and trie/sorted dimension state rebuilt per delta are cache
//! hits — sound precisely because `apply_delta` only ever edits the fact
//! table (the [`DeltaAnalysis`] premise), never the dimensions the
//! fingerprints cover. [`ServeEngine::prep_cache_stats`] exposes the
//! hit/miss counters.
//!
//! ## Concurrency
//!
//! The engine is `Sync`: state lives behind one [`RwLock`], so any
//! number of readers ([`ServeEngine::predict`], [`ServeEngine::theta`],
//! [`ServeEngine::snapshot`], aggregate reads) proceed in parallel while
//! a writer ([`ServeEngine::apply_delta`], [`ServeEngine::refit`])
//! blocks them only for the duration of one delta. [`Snapshot`] is read
//! under a single lock acquisition, so its fields are always mutually
//! consistent — there is no torn state in which the totals belong to one
//! generation and the row count to another.

use std::collections::HashMap;
use std::fmt;
use std::sync::RwLock;

use ifaq_engine::exec::PrepCache;
use ifaq_engine::layout;
use ifaq_engine::star::StarDb;
use ifaq_engine::{ExecConfig, Layout};
use ifaq_ir::analysis::{DeltaAnalysis, Maintenance};
use ifaq_ml::linreg::{fit_bgd, moments_from_batch, LinearModel};
use ifaq_ml::logreg::{FactorizedTrainer, LogisticModel};
use ifaq_query::analysis::{self, Diagnostic};
use ifaq_query::batch::{add_results, covar_batch, sub_results, AggBatch};
use ifaq_query::ViewPlan;
use ifaq_storage::columnar::ColRelationBuilder;
use ifaq_storage::{ColRelation, Column};

/// One edit to the fact table. Rows are given as `f64` vectors in fact
/// attribute order (integer columns as exactly-representable integers —
/// the same convention as [`ifaq_engine::TrainMatrix`] rows).
#[derive(Clone, Debug, PartialEq)]
pub enum DeltaOp {
    /// Append this row to the fact table.
    Insert(Vec<f64>),
    /// Remove one stored fact row equal to this row, bit for bit.
    Delete(Vec<f64>),
}

impl DeltaOp {
    fn row(&self) -> &[f64] {
        match self {
            DeltaOp::Insert(r) | DeltaOp::Delete(r) => r,
        }
    }
}

/// An ordered multiset of fact-table edits, applied atomically by
/// [`ServeEngine::apply_delta`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DeltaBatch {
    /// The edits, in arrival order.
    pub ops: Vec<DeltaOp>,
}

impl DeltaBatch {
    /// An empty batch (applying it is a no-op).
    pub fn new() -> DeltaBatch {
        DeltaBatch::default()
    }

    /// Appends an insert and returns the batch (builder style).
    pub fn insert(mut self, row: Vec<f64>) -> DeltaBatch {
        self.ops.push(DeltaOp::Insert(row));
        self
    }

    /// Appends a delete and returns the batch (builder style).
    pub fn delete(mut self, row: Vec<f64>) -> DeltaBatch {
        self.ops.push(DeltaOp::Delete(row));
        self
    }

    /// A batch of pure inserts.
    pub fn from_inserts(rows: impl IntoIterator<Item = Vec<f64>>) -> DeltaBatch {
        DeltaBatch {
            ops: rows.into_iter().map(DeltaOp::Insert).collect(),
        }
    }

    /// Number of edits in the batch.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the batch has no edits.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Why a [`DeltaBatch`] was rejected. Rejection is transactional: the
/// engine's state is untouched.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// A row's width differs from the fact table's attribute count.
    ArityMismatch {
        /// Values in the offending row.
        got: usize,
        /// Fact-table attribute count.
        want: usize,
    },
    /// A value destined for an integer (key/categorical) column is not
    /// an exactly-representable integer.
    NonIntegerKey {
        /// The integer attribute.
        attr: String,
        /// The offending value.
        value: f64,
    },
    /// A value destined for a measure (non-integer) column is NaN or
    /// infinite.
    NonFinite {
        /// The measure attribute.
        attr: String,
        /// The offending value.
        value: f64,
    },
    /// A delete names a row the fact table does not currently store
    /// (after in-batch cancellation).
    NoSuchRow {
        /// The row that failed to match.
        row: Vec<f64>,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::ArityMismatch { got, want } => {
                write!(
                    f,
                    "delta row has {got} values but the fact table has {want} attributes"
                )
            }
            ServeError::NonIntegerKey { attr, value } => {
                write!(f, "integer column `{attr}` cannot store {value}")
            }
            ServeError::NonFinite { attr, value } => {
                write!(f, "measure column `{attr}` cannot store {value}")
            }
            ServeError::NoSuchRow { row } => {
                write!(f, "delete does not match any stored fact row: {row:?}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// What one [`ServeEngine::apply_delta`] call did.
#[derive(Clone, Debug, PartialEq)]
pub struct DeltaReport {
    /// Net rows appended to the fact table.
    pub inserted: usize,
    /// Net rows removed from the fact table.
    pub deleted: usize,
    /// Insert/delete pairs that canceled within the batch (each pair is
    /// two ops that never reached execution).
    pub canceled_pairs: usize,
    /// Database generation after the call.
    pub generation: u64,
    /// True if the batch netted out to nothing: the engine's state —
    /// totals, fact table, generation — is bitwise unchanged.
    pub noop: bool,
}

/// Engine-construction and refit hyperparameters.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Physical layout for every aggregate pass (full and Δ).
    pub layout: Layout,
    /// Sharding for every aggregate pass.
    pub exec: ExecConfig,
    /// Linear-regression BGD learning rate.
    pub learning_rate: f64,
    /// Linear-regression BGD iterations per (re)fit.
    pub iterations: usize,
    /// When set, the engine also maintains a logistic model over this
    /// 0/1 fact column (the same features).
    pub logistic_label: Option<String>,
    /// Logistic learning rate.
    pub logistic_learning_rate: f64,
    /// Logistic iterations for a cold fit (no previous model).
    pub logistic_iterations: usize,
    /// Logistic iterations for a warm refit (resuming from the pre-delta
    /// θ) — typically much smaller than `logistic_iterations`.
    pub logistic_warm_iterations: usize,
}

impl ServeConfig {
    /// Defaults for a layout: serial execution, 300 BGD iterations at
    /// rate 0.1, no logistic model.
    pub fn new(layout: Layout) -> ServeConfig {
        ServeConfig {
            layout,
            exec: *ExecConfig::global(),
            learning_rate: 0.1,
            iterations: 300,
            logistic_label: None,
            logistic_learning_rate: 0.5,
            logistic_iterations: 200,
            logistic_warm_iterations: 50,
        }
    }

    /// Replaces the execution config (builder style).
    pub fn with_exec(mut self, exec: ExecConfig) -> ServeConfig {
        self.exec = exec;
        self
    }

    /// Enables logistic maintenance over a 0/1 fact column.
    pub fn with_logistic(mut self, label: impl Into<String>) -> ServeConfig {
        self.logistic_label = Some(label.into());
        self
    }
}

/// A mutually consistent view of the engine, read under one lock
/// acquisition.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Database generation the snapshot belongs to.
    pub generation: u64,
    /// Fact-table row count at that generation.
    pub fact_rows: usize,
    /// Accumulated covar-batch totals at that generation.
    pub totals: Vec<f64>,
    /// Current linear model (as of the last refit).
    pub linear: LinearModel,
    /// Current logistic model, when configured.
    pub logistic: Option<LogisticModel>,
}

/// Everything behind the engine's lock: the resident database, the
/// maintained totals, and the fitted models.
struct State {
    /// The resident database. Dimensions never change; the fact table is
    /// rebuilt (and the generation bumped) by every non-no-op delta.
    db: StarDb,
    /// The Δ-view template: the same dimensions (cloned once, at
    /// construction) with the fact slot holding whichever Δ relation is
    /// being executed. Swapping a fact in costs `O(|Δ|)`, not `O(dims)`.
    tpl: StarDb,
    /// Accumulated covar-batch totals for the linear label.
    totals: Vec<f64>,
    /// Accumulated covar-batch totals for the logistic label, when
    /// configured, with their own view plan.
    log_totals: Option<Vec<f64>>,
    /// Current linear model.
    linear: LinearModel,
    /// Current logistic model (None until the first refit when cold).
    logistic: Option<LogisticModel>,
}

/// The resident serving engine. See the crate docs for the maintenance
/// invariant; in short: `state.totals` always equals the covar batch
/// executed from scratch over `state.db` (to fp re-association), and
/// every delta maintains that in time proportional to the delta.
pub struct ServeEngine {
    features: Vec<String>,
    label: String,
    cfg: ServeConfig,
    /// Covar batch for the linear label (defines `totals`' aggregate
    /// order) and its view plan; the plan depends only on schema, so one
    /// plan serves both the resident database and every Δ view.
    batch: AggBatch,
    plan: ViewPlan,
    /// Batch and plan for the logistic label, when configured.
    log_batch: Option<(AggBatch, ViewPlan)>,
    /// Per-fact-column integer flags (delta validation).
    int_cols: Vec<bool>,
    /// Static-analyzer findings from construction (warnings and infos;
    /// error findings refuse construction).
    diagnostics: Vec<Diagnostic>,
    /// Prepared-subtree cache threaded through every `layout::prepare`
    /// this engine runs. Dimension-side view state is θ-free and — per
    /// the `DeltaAnalysis` check at construction — untouched by fact
    /// deltas, so each Δ scan re-prepares for the cost of a fingerprint
    /// lookup instead of rebuilding every view. Sound because the
    /// engine's dimensions never change after construction (the same
    /// invariant `tpl` relies on).
    prep_cache: PrepCache,
    state: RwLock<State>,
}

/// Row identity for delete matching: the exact bit pattern of each value
/// (integer columns by value, real columns by `f64::to_bits`), so two
/// rows match iff they are indistinguishable in storage.
fn row_bits(row: &[f64], int_cols: &[bool]) -> Vec<u64> {
    row.iter()
        .zip(int_cols)
        .map(|(&v, &is_int)| {
            if is_int {
                (v as i64) as u64
            } else {
                v.to_bits()
            }
        })
        .collect()
}

/// The bit pattern of stored fact row `i` (same encoding as [`row_bits`]).
fn stored_bits(fact: &ColRelation, i: usize) -> Vec<u64> {
    fact.columns
        .iter()
        .map(|c| match c {
            Column::I64(v) => v[i] as u64,
            Column::F64(v) => v[i].to_bits(),
        })
        .collect()
}

/// Builds a Δ fact relation (same name, attrs, and column types as the
/// resident fact) from net rows.
fn delta_fact(like: &ColRelation, int_cols: &[bool], rows: &[Vec<f64>]) -> ColRelation {
    let attrs: Vec<&str> = like.attrs.iter().map(|a| a.as_str()).collect();
    let mut b = ColRelationBuilder::new(like.name.clone(), &attrs, int_cols);
    for r in rows {
        b.push_row(r);
    }
    b.build()
}

/// One full or Δ scan over `db`: the covar plan, then the optional
/// logistic covar plan, each prepared through the shared cache and
/// executed under the engine's layout.
fn scan(
    cfg: &ServeConfig,
    plan: &ViewPlan,
    log_plan: Option<&ViewPlan>,
    db: &StarDb,
    cache: &PrepCache,
) -> (Vec<f64>, Option<Vec<f64>>) {
    let run = |p: &ViewPlan| {
        let prep = layout::prepare_cached(cfg.layout, p, db, cache);
        layout::execute_with(cfg.layout, p, db, &prep, &cfg.exec)
    };
    (run(plan), log_plan.map(run))
}

impl ServeEngine {
    /// Builds a resident engine over a star database: plans the covar
    /// batch(es), checks the maintenance classification, runs the one
    /// full pass that seeds the totals, and fits the initial model(s).
    ///
    /// # Panics
    ///
    /// If planning fails, if a feature/label attribute does not exist,
    /// or if the plan's maintenance classification contradicts the
    /// fact-only delta premise (a dimension view depending on the fact
    /// table, or a fact scan that doesn't).
    pub fn new(db: StarDb, features: &[&str], label: &str, cfg: ServeConfig) -> ServeEngine {
        let cat = db.catalog();
        let tree = db.join_tree(&cat).expect("join tree");
        let batch = covar_batch(features, label);
        let plan = ViewPlan::plan(&batch, &tree, &cat).expect("view plan");

        // The additivity argument assumes fact-only deltas leave every
        // dimension view reusable and touch only the fact scan. Check
        // that against the actual plan rather than assuming it.
        let delta = DeltaAnalysis::fact_only(db.fact.name.clone());
        for v in &plan.dims {
            assert_eq!(
                delta.classify_deps([v.relation.as_str()]),
                Maintenance::Reusable,
                "dimension view over `{}` classified delta-affected; \
                 incremental maintenance would be unsound",
                v.relation
            );
        }
        assert_eq!(
            delta.classify_deps([db.fact.name.as_str()]),
            Maintenance::DeltaAffected,
            "fact scan classified reusable under a fact delta"
        );

        // Static plan analysis at construction, under the same fact-only
        // delta premise and the layout this engine will actually run:
        // error findings mean the resident totals would go wrong or
        // stale, so they refuse construction; warnings (e.g. a sparse
        // key domain under a forced dense layout, redundant aggregates)
        // are kept and exposed via [`ServeEngine::diagnostics`].
        let report = analysis::analyze_with(&cat, &plan, &batch, &delta, Some(cfg.layout));
        assert!(
            !report.has_errors(),
            "plan analysis found error diagnostics: {}",
            report
                .errors()
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        );
        let diagnostics = report.diagnostics;

        let log_batch = cfg.logistic_label.as_ref().map(|ll| {
            let b = covar_batch(features, ll);
            let p = ViewPlan::plan(&b, &tree, &cat).expect("logistic view plan");
            (b, p)
        });

        let int_cols: Vec<bool> = db
            .fact
            .columns
            .iter()
            .map(|c| matches!(c, Column::I64(_)))
            .collect();

        // The one full pass: seed the resident totals. The cache starts
        // filling here; every Δ scan reuses the dimension-side state it
        // captures.
        let prep_cache = PrepCache::new();
        let log_plan = log_batch.as_ref().map(|(_, p)| p);
        let (totals, log_totals) = scan(&cfg, &plan, log_plan, &db, &prep_cache);

        let moments = moments_from_batch(features, label, &totals);
        let linear = fit_bgd(&moments, cfg.learning_rate, cfg.iterations);
        let logistic = log_totals.as_ref().map(|lt| {
            let ll = cfg.logistic_label.as_deref().expect("logistic label");
            let m = moments_from_batch(features, ll, lt);
            FactorizedTrainer::with_moments(&db, features, cfg.layout, &cfg.exec, &m)
                .fit(cfg.logistic_learning_rate, cfg.logistic_iterations)
        });

        let tpl = db.with_fact(db.fact.take(0));
        ServeEngine {
            features: features.iter().map(|s| s.to_string()).collect(),
            label: label.to_string(),
            cfg,
            batch,
            plan,
            log_batch,
            int_cols,
            diagnostics,
            prep_cache,
            state: RwLock::new(State {
                db,
                tpl,
                totals,
                log_totals,
                linear,
                logistic,
            }),
        }
    }

    /// The covar batch whose aggregate order `totals` follows.
    pub fn batch(&self) -> &AggBatch {
        &self.batch
    }

    /// Static-analyzer findings recorded at construction (sorted errors
    /// first — though error findings never reach a built engine, which
    /// refuses them). See `ifaq_query::analysis` for the codes.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Prepared-subtree cache counters `(hits, misses)` — how many of
    /// this engine's layout preparations (seeding plus every Δ scan)
    /// reused cached dimension-side state versus building it. After the
    /// first delta on each plan, further deltas should only hit.
    pub fn prep_cache_stats(&self) -> (usize, usize) {
        (self.prep_cache.hits(), self.prep_cache.misses())
    }

    /// Feature attribute names, in model order.
    pub fn features(&self) -> &[String] {
        &self.features
    }

    /// The linear label attribute.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Absorbs a batch of fact-table edits: validates everything, cancels
    /// matched insert/delete pairs, runs the layout executor over the net
    /// Δ rows only, and folds the partials into the resident totals. See
    /// the crate docs for semantics; `Err` leaves the engine untouched.
    pub fn apply_delta(&self, delta: &DeltaBatch) -> Result<DeltaReport, ServeError> {
        let mut st = self.state.write().expect("serve state lock");
        let st = &mut *st;
        let width = st.db.fact.attrs.len();

        // Phase 1 — validate every op before touching anything.
        for op in &delta.ops {
            let row = op.row();
            if row.len() != width {
                return Err(ServeError::ArityMismatch {
                    got: row.len(),
                    want: width,
                });
            }
            for (j, &v) in row.iter().enumerate() {
                let attr = || st.db.fact.attrs[j].to_string();
                if self.int_cols[j] {
                    if !(v.fract() == 0.0 && (v as i64) as f64 == v) {
                        return Err(ServeError::NonIntegerKey {
                            attr: attr(),
                            value: v,
                        });
                    }
                } else if !v.is_finite() {
                    return Err(ServeError::NonFinite {
                        attr: attr(),
                        value: v,
                    });
                }
            }
        }

        // Phase 2 — net out the multiset, preserving first-appearance
        // order (a HashMap iteration order would make the Δ scan's fp
        // accumulation order run-dependent).
        let mut index: HashMap<Vec<u64>, usize> = HashMap::new();
        let mut net: Vec<(isize, Vec<f64>)> = Vec::new();
        for op in &delta.ops {
            let key = row_bits(op.row(), &self.int_cols);
            let slot = *index.entry(key).or_insert_with(|| {
                net.push((0, op.row().to_vec()));
                net.len() - 1
            });
            net[slot].0 += match op {
                DeltaOp::Insert(_) => 1,
                DeltaOp::Delete(_) => -1,
            };
        }
        let mut ins: Vec<Vec<f64>> = Vec::new();
        let mut del: Vec<Vec<f64>> = Vec::new();
        for (count, row) in &net {
            for _ in 0..count.unsigned_abs() {
                if *count > 0 {
                    ins.push(row.clone());
                } else {
                    del.push(row.clone());
                }
            }
        }
        let canceled_pairs = (delta.ops.len() - ins.len() - del.len()) / 2;

        // Phase 3 — resolve deletes against stored rows (still pure
        // validation: the removal set is computed, nothing is removed).
        let mut remove = vec![false; st.db.fact.len()];
        if !del.is_empty() {
            let mut stored: HashMap<Vec<u64>, Vec<usize>> = HashMap::new();
            for i in 0..st.db.fact.len() {
                stored
                    .entry(stored_bits(&st.db.fact, i))
                    .or_default()
                    .push(i);
            }
            for row in &del {
                let key = row_bits(row, &self.int_cols);
                match stored.get_mut(&key).and_then(Vec::pop) {
                    Some(i) => remove[i] = true,
                    None => return Err(ServeError::NoSuchRow { row: row.clone() }),
                }
            }
        }

        // A batch that nets to nothing is a bitwise no-op: no arithmetic
        // touches the totals, no rebuild touches the fact table, and the
        // generation stays put so pre-batch `Prepared` state stays valid.
        if ins.is_empty() && del.is_empty() {
            return Ok(DeltaReport {
                inserted: 0,
                deleted: 0,
                canceled_pairs,
                generation: st.db.generation(),
                noop: true,
            });
        }

        // Phase 4 — execute the Δ scans: the same plan, the same layout
        // executor, over a database whose fact table is just the net
        // delta. Dimensions are shared with the template, so the cost is
        // O(|Δ|) plus the layout's dimension-side preparation.
        let mut delta_scan = |rows: &[Vec<f64>]| {
            if rows.is_empty() {
                return None;
            }
            st.tpl.fact = delta_fact(&st.db.fact, &self.int_cols, rows);
            let log_plan = self.log_batch.as_ref().map(|(_, p)| p);
            Some(scan(
                &self.cfg,
                &self.plan,
                log_plan,
                &st.tpl,
                &self.prep_cache,
            ))
        };
        let add = delta_scan(&ins);
        let sub = delta_scan(&del);

        // Phase 5 — commit: rebuild the fact table (surviving rows in
        // stored order, then inserts in batch order), fold the partials,
        // bump the generation.
        let survivors: Vec<usize> = (0..st.db.fact.len()).filter(|&i| !remove[i]).collect();
        let columns: Vec<Column> = st
            .db
            .fact
            .columns
            .iter()
            .enumerate()
            .map(|(j, c)| match c {
                Column::I64(v) => {
                    let mut out: Vec<i64> = survivors.iter().map(|&i| v[i]).collect();
                    out.extend(ins.iter().map(|r| r[j] as i64));
                    Column::I64(out)
                }
                Column::F64(v) => {
                    let mut out: Vec<f64> = survivors.iter().map(|&i| v[i]).collect();
                    out.extend(ins.iter().map(|r| r[j]));
                    Column::F64(out)
                }
            })
            .collect();
        st.db.fact = ColRelation::new(st.db.fact.name.clone(), st.db.fact.attrs.clone(), columns);
        if let Some((a, log_a)) = &add {
            add_results(&mut st.totals, a);
            if let (Some(lt), Some(la)) = (&mut st.log_totals, log_a) {
                add_results(lt, la);
            }
        }
        if let Some((s, log_s)) = &sub {
            sub_results(&mut st.totals, s);
            if let (Some(lt), Some(ls)) = (&mut st.log_totals, log_s) {
                sub_results(lt, ls);
            }
        }
        let generation = st.db.bump_generation();
        Ok(DeltaReport {
            inserted: ins.len(),
            deleted: del.len(),
            canceled_pairs,
            generation,
            noop: false,
        })
    }

    /// Refreshes the models from the maintained totals: linear BGD over
    /// the moments (`O(d²·iters)`, no data access), and — when configured
    /// — a logistic run that skips the covar pass and warm-starts from
    /// the previous θ. Returns the post-refit snapshot.
    pub fn refit(&self) -> Snapshot {
        let mut st = self.state.write().expect("serve state lock");
        let features: Vec<&str> = self.features.iter().map(String::as_str).collect();
        let moments = moments_from_batch(&features, &self.label, &st.totals);
        st.linear = fit_bgd(&moments, self.cfg.learning_rate, self.cfg.iterations);
        if let Some(lt) = &st.log_totals {
            let ll = self.cfg.logistic_label.as_deref().expect("logistic label");
            let m = moments_from_batch(&features, ll, lt);
            let mut trainer = FactorizedTrainer::with_moments(
                &st.db,
                &features,
                self.cfg.layout,
                &self.cfg.exec,
                &m,
            );
            st.logistic = Some(match &st.logistic {
                Some(prev) => trainer.fit_warm(
                    prev,
                    self.cfg.logistic_learning_rate,
                    self.cfg.logistic_warm_iterations,
                ),
                None => trainer.fit(
                    self.cfg.logistic_learning_rate,
                    self.cfg.logistic_iterations,
                ),
            });
        }
        Self::snapshot_of(&st)
    }

    fn snapshot_of(st: &State) -> Snapshot {
        Snapshot {
            generation: st.db.generation(),
            fact_rows: st.db.fact.len(),
            totals: st.totals.clone(),
            linear: st.linear.clone(),
            logistic: st.logistic.clone(),
        }
    }

    /// A mutually consistent snapshot, read under one lock acquisition.
    pub fn snapshot(&self) -> Snapshot {
        Self::snapshot_of(&self.state.read().expect("serve state lock"))
    }

    /// Current database generation (bumped by every non-no-op delta).
    pub fn generation(&self) -> u64 {
        self.state.read().expect("serve state lock").db.generation()
    }

    /// Current fact-table row count.
    pub fn fact_rows(&self) -> usize {
        self.state.read().expect("serve state lock").db.fact.len()
    }

    /// The accumulated covar-batch totals (aggregate order =
    /// [`ServeEngine::batch`]).
    pub fn totals(&self) -> Vec<f64> {
        self.state.read().expect("serve state lock").totals.clone()
    }

    /// The accumulated covar-batch totals for the logistic label, when
    /// configured (aggregate order = the logistic covar batch).
    pub fn logistic_totals(&self) -> Option<Vec<f64>> {
        self.state
            .read()
            .expect("serve state lock")
            .log_totals
            .clone()
    }

    /// One maintained aggregate by name (e.g. `"count"`, `"m_price"`).
    pub fn aggregate(&self, name: &str) -> Option<f64> {
        let i = self.batch.index_of(name)?;
        Some(self.state.read().expect("serve state lock").totals[i])
    }

    /// The current linear model's parameters.
    pub fn theta(&self) -> LinearModel {
        self.state.read().expect("serve state lock").linear.clone()
    }

    /// The current logistic model, when configured and fitted.
    pub fn logistic(&self) -> Option<LogisticModel> {
        self.state
            .read()
            .expect("serve state lock")
            .logistic
            .clone()
    }

    /// Linear prediction for a feature vector in feature order.
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.state
            .read()
            .expect("serve state lock")
            .linear
            .predict(x)
    }

    /// Logistic probability for a feature vector, when configured.
    pub fn predict_proba(&self, x: &[f64]) -> Option<f64> {
        self.state
            .read()
            .expect("serve state lock")
            .logistic
            .as_ref()
            .map(|m| m.predict_proba(x))
    }

    /// A deep copy of the resident database, generation included — the
    /// rebuild-from-scratch reference the differential suites compare
    /// against, and the handle the staleness tests use to build
    /// `Prepared` state that a later delta must invalidate.
    pub fn db_snapshot(&self) -> StarDb {
        self.state.read().expect("serve state lock").db.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifaq_engine::star::running_example_star;

    fn engine() -> ServeEngine {
        ServeEngine::new(
            running_example_star(),
            &["city", "price"],
            "units",
            ServeConfig::new(Layout::MergedHash),
        )
    }

    /// A fresh fact row joining city 2 / price dimension rows.
    fn row(item: f64, store: f64, units: f64) -> Vec<f64> {
        vec![item, store, units]
    }

    #[test]
    fn seeded_totals_match_a_direct_scan() {
        let db = running_example_star();
        let e = engine();
        let cat = db.catalog();
        let tree = db.join_tree(&cat).unwrap();
        let plan = ViewPlan::plan(e.batch(), &tree, &cat).unwrap();
        let prep = layout::prepare(Layout::MergedHash, &plan, &db);
        let direct =
            layout::execute_with(Layout::MergedHash, &plan, &db, &prep, &ExecConfig::serial());
        assert_eq!(e.totals(), direct);
    }

    #[test]
    fn construction_records_clean_diagnostics() {
        // The running-example covar workload is clean: the analyzer ran
        // at construction (an error would have panicked) and whatever it
        // recorded carries no error findings.
        let e = engine();
        assert!(e
            .diagnostics()
            .iter()
            .all(|d| d.severity < analysis::Severity::Error));
    }

    #[test]
    fn insert_then_delete_it_is_a_bitwise_noop() {
        let e = engine();
        let before = e.snapshot();
        let r = row(1.0, 2.0, 42.0);
        let report = e
            .apply_delta(&DeltaBatch::new().insert(r.clone()).delete(r))
            .unwrap();
        assert!(report.noop);
        assert_eq!(report.canceled_pairs, 1);
        assert_eq!(report.generation, before.generation);
        let after = e.snapshot();
        assert_eq!(before.totals, after.totals);
        assert_eq!(before.fact_rows, after.fact_rows);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let e = engine();
        let report = e.apply_delta(&DeltaBatch::new()).unwrap();
        assert!(report.noop);
        assert_eq!(report.generation, e.generation());
    }

    #[test]
    fn deltas_hit_the_prep_cache_without_changing_results() {
        let e = engine();
        let (_, misses_after_seed) = e.prep_cache_stats();
        assert!(misses_after_seed > 0, "seeding must populate the cache");
        e.apply_delta(&DeltaBatch::from_inserts([row(1.0, 1.0, 7.0)]))
            .unwrap();
        e.apply_delta(&DeltaBatch::new().delete(row(1.0, 1.0, 7.0)))
            .unwrap();
        let (hits, misses) = e.prep_cache_stats();
        assert!(hits >= 2, "each Δ scan must reuse the seeded dim state");
        assert_eq!(
            misses, misses_after_seed,
            "dims never change, so deltas must never rebuild dim-side state"
        );
        // Reusing cached state keeps the maintenance invariant: totals
        // still equal a rebuild from scratch.
        let db = e.db_snapshot();
        let cat = db.catalog();
        let tree = db.join_tree(&cat).unwrap();
        let plan = ViewPlan::plan(e.batch(), &tree, &cat).unwrap();
        let prep = layout::prepare(Layout::MergedHash, &plan, &db);
        let direct =
            layout::execute_with(Layout::MergedHash, &plan, &db, &prep, &ExecConfig::serial());
        for (a, b) in e.totals().iter().zip(&direct) {
            assert!(
                (a - b).abs() < 1e-9,
                "cached-prep totals drifted: {a} vs {b}"
            );
        }
    }

    #[test]
    fn insert_bumps_generation_and_count() {
        let e = engine();
        let rows = e.fact_rows();
        let count = e.aggregate("count").unwrap();
        let report = e
            .apply_delta(&DeltaBatch::from_inserts([row(1.0, 1.0, 7.0)]))
            .unwrap();
        assert!(!report.noop);
        assert_eq!(report.inserted, 1);
        assert_eq!(report.generation, 1);
        assert_eq!(e.fact_rows(), rows + 1);
        assert_eq!(e.aggregate("count").unwrap(), count + 1.0);
    }

    #[test]
    fn arity_mismatch_is_rejected_without_side_effects() {
        let e = engine();
        let before = e.snapshot();
        let err = e
            .apply_delta(&DeltaBatch::new().insert(vec![1.0, 2.0]))
            .unwrap_err();
        assert_eq!(err, ServeError::ArityMismatch { got: 2, want: 3 });
        assert_eq!(e.snapshot().totals, before.totals);
        assert_eq!(e.generation(), before.generation);
    }

    #[test]
    fn non_integer_key_is_rejected() {
        let e = engine();
        let err = e
            .apply_delta(&DeltaBatch::from_inserts([row(1.5, 1.0, 7.0)]))
            .unwrap_err();
        match err {
            ServeError::NonIntegerKey { attr, value } => {
                assert_eq!(attr, "item");
                assert_eq!(value, 1.5);
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn non_finite_measures_are_rejected_without_side_effects() {
        let e = engine();
        let stored = e.db_snapshot();
        let first: Vec<f64> = stored.fact.columns.iter().map(|c| c.get_f64(0)).collect();
        let mut inf_first = first.clone();
        inf_first[2] = f64::INFINITY;
        let before = e.snapshot();
        let bits = |t: &[f64]| t.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (delta, value) in [
            (
                DeltaBatch::from_inserts([row(1.0, 2.0, f64::NAN)]),
                f64::NAN,
            ),
            (DeltaBatch::new().delete(inf_first), f64::INFINITY),
        ] {
            match e.apply_delta(&delta).unwrap_err() {
                ServeError::NonFinite { attr, value: got } => {
                    assert_eq!(attr, "units");
                    assert_eq!(got.to_bits(), value.to_bits());
                }
                other => panic!("wrong error: {other}"),
            }
            let after = e.snapshot();
            assert_eq!(bits(&after.totals), bits(&before.totals));
            assert_eq!(after.generation, before.generation);
            assert_eq!(after.fact_rows, before.fact_rows);
        }
        // The engine still takes a valid delta afterwards.
        let report = e.apply_delta(&DeltaBatch::new().delete(first)).unwrap();
        assert_eq!(report.deleted, 1);
        assert_eq!(e.fact_rows(), before.fact_rows - 1);
        assert!(e.totals().iter().all(|t| t.is_finite()));
    }

    #[test]
    fn deleting_a_missing_row_is_rejected_atomically() {
        let e = engine();
        let before = e.snapshot();
        // A batch mixing a valid insert with an unmatched delete must
        // reject as a whole: the insert must not land.
        let err = e
            .apply_delta(
                &DeltaBatch::new()
                    .insert(row(1.0, 1.0, 7.0))
                    .delete(row(1.0, 1.0, 999.0)),
            )
            .unwrap_err();
        assert!(matches!(err, ServeError::NoSuchRow { .. }));
        let after = e.snapshot();
        assert_eq!(before.totals, after.totals);
        assert_eq!(before.fact_rows, after.fact_rows);
        assert_eq!(before.generation, after.generation);
    }

    #[test]
    fn delete_matches_stored_rows_by_value() {
        let db = running_example_star();
        // Delete the first stored fact row, by value.
        let first: Vec<f64> = db.fact.columns.iter().map(|c| c.get_f64(0)).collect();
        let e = engine();
        let rows = e.fact_rows();
        let report = e.apply_delta(&DeltaBatch::new().delete(first)).unwrap();
        assert_eq!(report.deleted, 1);
        assert_eq!(e.fact_rows(), rows - 1);
    }

    #[test]
    fn maintained_totals_match_rebuild_after_mixed_deltas() {
        let db = running_example_star();
        let first: Vec<f64> = db.fact.columns.iter().map(|c| c.get_f64(0)).collect();
        let e = engine();
        e.apply_delta(
            &DeltaBatch::new()
                .insert(row(1.0, 2.0, 11.0))
                .insert(row(2.0, 1.0, 3.0))
                .delete(first),
        )
        .unwrap();
        // Rebuild from scratch over the engine's own resident database.
        let rebuilt = ServeEngine::new(
            e.db_snapshot(),
            &["city", "price"],
            "units",
            ServeConfig::new(Layout::MergedHash),
        );
        let (a, b) = (e.totals(), rebuilt.totals());
        for (x, y) in a.iter().zip(&b) {
            assert!(
                (x - y).abs() <= 1e-9 * y.abs().max(1.0),
                "maintained {x} vs rebuilt {y}"
            );
        }
    }

    #[test]
    fn refit_matches_fit_over_rebuilt_moments() {
        let e = engine();
        e.apply_delta(&DeltaBatch::from_inserts([
            row(1.0, 2.0, 11.0),
            row(3.0, 1.0, 5.0),
        ]))
        .unwrap();
        let snap = e.refit();
        let features = ["city", "price"];
        let moments = ifaq_ml::linreg::moments_factorized_cfg(
            &e.db_snapshot(),
            &features,
            "units",
            Layout::MergedHash,
            &ExecConfig::serial(),
        );
        let fresh = fit_bgd(&moments, 0.1, 300);
        assert!((snap.linear.intercept - fresh.intercept).abs() < 1e-9);
        for (a, b) in snap.linear.weights.iter().zip(&fresh.weights) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn duplicate_rows_support_multiset_deletes() {
        let e = engine();
        let r = row(1.0, 1.0, 7.0);
        e.apply_delta(&DeltaBatch::from_inserts([r.clone(), r.clone()]))
            .unwrap();
        let rows = e.fact_rows();
        // Two identical stored rows: two deletes must both match…
        e.apply_delta(&DeltaBatch::new().delete(r.clone()).delete(r.clone()))
            .unwrap();
        assert_eq!(e.fact_rows(), rows - 2);
        // …and a third must not.
        let err = e.apply_delta(&DeltaBatch::new().delete(r)).unwrap_err();
        assert!(matches!(err, ServeError::NoSuchRow { .. }));
    }
}
