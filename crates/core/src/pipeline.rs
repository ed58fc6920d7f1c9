//! The staged compilation pipeline (Figure 3).

use ifaq_engine::interp::{Env, Interpreter};
use ifaq_engine::star::StarDb;
use ifaq_engine::{layout, ExecConfig, Layout};
use ifaq_ir::types::TypeEnv;
use ifaq_ir::vars::occurs_free;
use ifaq_ir::verify::{Verifier, VerifyError, VerifyLevel};
use ifaq_ir::{Catalog, Program, ScalarType, Sym, Type, TypeChecker, TypeError};
use ifaq_query::analysis::{self, Analysis};
use ifaq_query::extract::{extract_aggregates, Extraction};
use ifaq_query::{AggBatch, ViewPlan};
use ifaq_storage::Value;
use ifaq_transform::highlevel::{optimize_program, HighLevelReport};
use ifaq_transform::specialize::specialize_program;
use std::fmt;

/// Options controlling compilation.
#[derive(Clone, Debug)]
pub struct CompileOptions {
    /// The variable naming the feature-extraction query result.
    pub q_var: Sym,
    /// Schema of `Q`'s tuples: attribute name and scalar type. Used to
    /// type-check the S-IFAQ program.
    pub q_attrs: Vec<(Sym, ScalarType)>,
    /// Relations joined by `Q`, for join-tree construction. When empty,
    /// every catalog relation participates.
    pub relations: Vec<Sym>,
}

impl CompileOptions {
    /// Builds options for a star database: `Q` is the natural join of the
    /// fact table with every dimension, exposing all attributes.
    pub fn for_star_db(db: &StarDb) -> CompileOptions {
        let mut q_attrs: Vec<(Sym, ScalarType)> = Vec::new();
        let mut push = |rel: &ifaq_storage::ColRelation| {
            for (a, c) in rel.attrs.iter().zip(&rel.columns) {
                if q_attrs.iter().all(|(n, _)| n != a) {
                    let ty = match c {
                        ifaq_storage::Column::I64(_) => ScalarType::Int,
                        ifaq_storage::Column::F64(_) => ScalarType::Real,
                    };
                    q_attrs.push((a.clone(), ty));
                }
            }
        };
        push(&db.fact);
        for d in &db.dims {
            push(&d.rel);
        }
        let mut relations = vec![db.fact.name.clone()];
        relations.extend(db.dims.iter().map(|d| d.rel.name.clone()));
        CompileOptions {
            q_var: Sym::new("Q"),
            q_attrs,
            relations,
        }
    }
}

/// A compilation error, reported to the user as Figure 1 prescribes.
#[derive(Clone, Debug, PartialEq)]
pub enum PipelineError {
    /// The specialized program does not satisfy the S-IFAQ typing rules.
    Type(ifaq_ir::TypeError),
    /// The program failed static verification (scope closure /
    /// well-formedness) before planning.
    Verify(VerifyError),
    /// Join-tree construction failed.
    JoinTree(String),
    /// Planning the aggregate batch failed.
    Plan(String),
    /// The static plan analyzer found error-severity diagnostics (see
    /// `ifaq_query::analysis`); the message carries every finding.
    Analysis(String),
    /// Runtime evaluation failed.
    Eval(String),
    /// A streaming execution failed at the storage layer (bad or
    /// truncated `IFAQTBL1` file, short read, file changed mid-stream);
    /// the message carries the structured
    /// [`ifaq_storage::stream::ExportError`].
    Stream(String),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Type(e) => write!(f, "{e}"),
            PipelineError::Verify(e) => write!(f, "{e}"),
            PipelineError::JoinTree(m) => write!(f, "join tree: {m}"),
            PipelineError::Plan(m) => write!(f, "plan: {m}"),
            PipelineError::Analysis(m) => write!(f, "analysis: {m}"),
            PipelineError::Eval(m) => write!(f, "evaluation: {m}"),
            PipelineError::Stream(m) => write!(f, "streaming: {m}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Intermediate programs captured after each stage, for inspection,
/// debugging, and the `pipeline_stages` example.
#[derive(Clone, Debug)]
pub struct StageSnapshots {
    /// The input D-IFAQ program.
    pub input: Program,
    /// After §4.1 high-level optimizations.
    pub high_level: Program,
    /// What fired during §4.1.
    pub high_level_report: HighLevelReport,
    /// After §4.2 schema specialization (S-IFAQ, type-checked).
    pub specialized: Program,
    /// After §4.3 aggregate extraction: the residual program.
    pub residual: Program,
}

/// The result of compiling a program.
#[derive(Clone, Debug)]
pub struct Compiled {
    /// Per-stage snapshots.
    pub stages: StageSnapshots,
    /// The residual program; aggregate `i` is the variable `__agg<i>`.
    pub program: Program,
    /// The extracted aggregate batch over `Q`.
    pub batch: AggBatch,
    /// Compile options used (needed again at execution time).
    pub options: CompileOptions,
}

/// The pipeline driver.
#[derive(Clone, Debug)]
pub struct Pipeline {
    catalog: Catalog,
}

impl Pipeline {
    /// Creates a pipeline over a catalog.
    pub fn new(catalog: Catalog) -> Self {
        Pipeline { catalog }
    }

    /// Compiles a D-IFAQ program through every stage of Figure 3 (up to,
    /// but not including, physical execution).
    pub fn compile(
        &self,
        program: &Program,
        options: &CompileOptions,
    ) -> Result<Compiled, PipelineError> {
        let input = program.clone();
        // §4.1 high-level optimizations.
        let (high_level, high_level_report) = optimize_program(program, &self.catalog);
        // §4.2 schema specialization, then static verification of the
        // S-IFAQ program (scope closure under the catalog + `Q`) and the
        // S-IFAQ type check — the program must be closed and well-typed
        // before anything downstream plans over it.
        let (specialized, _) = specialize_program(&high_level);
        self.verify(&specialized, options, "specialize", 0, &input)
            .map_err(PipelineError::Verify)?;
        self.type_check(&specialized, options)?;
        // §4.3 aggregate extraction, per expression of the program.
        let mut batch = AggBatch::new();
        let residual = specialized.map_exprs(|e| {
            let Extraction { residual, batch: b } = extract_with(e, &options.q_var, batch.clone());
            batch = b;
            residual
        });
        // Dead bindings (typically the `Q` join definition) drop once no
        // expression scans the query result any more.
        let residual = prune_dead_lets(&residual, &options.q_var);
        // The residual may only reference context the runner provides:
        // the catalog, `Q`, and the `__agg<i>` batch results.
        self.verify(&residual, options, "extract", batch.len(), &input)
            .map_err(PipelineError::Verify)?;
        Ok(Compiled {
            stages: StageSnapshots {
                input,
                high_level,
                high_level_report,
                specialized,
                residual: residual.clone(),
            },
            program: residual,
            batch,
            options: options.clone(),
        })
    }

    /// Statically verifies a program at the `IFAQ_VERIFY` level: every
    /// variable must resolve to a binder, a catalog relation, `Q`, one
    /// of the `n_aggs` batch-result variables, or something already free
    /// in the user's *input* program (opaque functions the interpreter
    /// binds from its environment are context, not a rewrite bug).
    /// Rewrites may only consume scope, never invent it — the optimizer
    /// gates enforce that per phase; this pins the whole-program result.
    fn verify(
        &self,
        program: &Program,
        options: &CompileOptions,
        phase: &str,
        n_aggs: usize,
        input: &Program,
    ) -> Result<(), VerifyError> {
        let level = VerifyLevel::from_env();
        if !level.enabled() {
            return Ok(());
        }
        let mut globals: std::collections::BTreeSet<Sym> =
            self.catalog.relations().map(|r| r.name.clone()).collect();
        globals.insert(options.q_var.clone());
        for i in 0..n_aggs {
            globals.insert(Extraction::agg_var(i));
        }
        globals.extend(ifaq_ir::verify::program_free_vars(input));
        Verifier::new(phase, globals)
            .strict(level == VerifyLevel::Strict)
            .check_program(program)
    }

    /// Type-checks a specialized program under the S-IFAQ rules, with `Q`
    /// bound to its dictionary type and relations bound to theirs.
    fn type_check(&self, program: &Program, options: &CompileOptions) -> Result<(), PipelineError> {
        let checker = TypeChecker::new();
        let mut env = TypeEnv::new();
        for rel in self.catalog.relations() {
            env.insert(
                rel.name.clone(),
                Type::dict(
                    Type::record(
                        rel.attrs
                            .iter()
                            .map(|a| (a.name.clone(), scalar_type(a.ty)))
                            .collect::<Vec<_>>(),
                    ),
                    Type::Int,
                ),
            );
        }
        // `Q` binds last so a same-named statistics entry cannot shadow it.
        env.insert(options.q_var.clone(), query_type(&options.q_attrs));
        // Bindings first, in order.
        for (name, expr) in &program.lets {
            let t = checker.infer(&env, expr).map_err(PipelineError::Type)?;
            env.insert(name.clone(), t);
        }
        let t_init = checker
            .infer(&env, &program.init)
            .map_err(PipelineError::Type)?;
        let mut loop_env = env.clone();
        loop_env.insert(program.var.clone(), t_init.clone());
        loop_env.insert(Sym::new("_iter"), Type::Int);
        loop_env.insert(Sym::new("_prev"), t_init.clone());
        let t_cond = checker
            .infer(&loop_env, &program.cond)
            .map_err(PipelineError::Type)?;
        if t_cond != Type::Bool {
            return Err(PipelineError::Type(TypeError::with_message(
                format!("loop condition has type {t_cond}, expected bool"),
                program.cond.to_string(),
            )));
        }
        let t_step = checker
            .infer(&loop_env, &program.step)
            .map_err(PipelineError::Type)?;
        if t_step != t_init {
            return Err(PipelineError::Type(TypeError::with_message(
                format!("loop step has type {t_step} but the state has type {t_init}"),
                program.step.to_string(),
            )));
        }
        checker
            .infer(&loop_env, &program.result)
            .map_err(PipelineError::Type)?;
        Ok(())
    }
}

/// Extraction helper that threads an accumulated batch through repeated
/// calls (one per program expression).
fn extract_with(e: &ifaq_ir::Expr, q: &Sym, acc: AggBatch) -> Extraction {
    // `extract_aggregates` starts a fresh batch; re-run with the combined
    // one by seeding its result. Aggregates are deduplicated by factor
    // multiset, so re-extraction of an already-seen aggregate reuses its
    // variable.
    let mut ext = Extraction {
        residual: e.clone(),
        batch: acc,
    };
    let fresh = extract_aggregates_with_seed(e, q, &mut ext.batch);
    ext.residual = fresh;
    ext
}

fn extract_aggregates_with_seed(e: &ifaq_ir::Expr, q: &Sym, batch: &mut AggBatch) -> ifaq_ir::Expr {
    // Reuse the public entry point: extract into a local batch, then remap
    // variable indices onto the accumulated batch.
    let local = extract_aggregates(e, q);
    if local.batch.is_empty() {
        return local.residual;
    }
    let mut remap: Vec<Sym> = Vec::with_capacity(local.batch.len());
    for agg in &local.batch.aggs {
        let mut sorted = agg.factors.clone();
        sorted.sort();
        let existing = batch.aggs.iter().position(|a| {
            let mut af = a.factors.clone();
            af.sort();
            af == sorted && a.filter.is_empty()
        });
        let idx = existing.unwrap_or_else(|| {
            let mut renamed = agg.clone();
            renamed.name = format!("__agg{}", batch.len());
            batch.aggs.push(renamed);
            batch.len() - 1
        });
        remap.push(Extraction::agg_var(idx));
    }
    // Rename local __agg<i> variables to the accumulated indices. Renaming
    // must go through temporaries to avoid collisions (e.g. local 0 → 1
    // while local 1 → 0).
    let mut out = local.residual;
    for (i, target) in remap.iter().enumerate() {
        let tmp = Sym::new(format!("__aggtmp{i}"));
        out = ifaq_ir::vars::subst(&out, &Extraction::agg_var(i), &ifaq_ir::Expr::Var(tmp));
        let _ = target;
    }
    for (i, target) in remap.iter().enumerate() {
        let tmp = Sym::new(format!("__aggtmp{i}"));
        out = ifaq_ir::vars::subst(&out, &tmp, &ifaq_ir::Expr::Var(target.clone()));
    }
    out
}

/// Removes program bindings (front to back) that no later expression uses —
/// in particular the `Q` join definition once extraction eliminated every
/// scan of it.
fn prune_dead_lets(program: &Program, _q: &Sym) -> Program {
    let mut out = program.clone();
    loop {
        let mut removed = false;
        for i in 0..out.lets.len() {
            let (name, _) = &out.lets[i];
            let used_later = out.lets[i + 1..].iter().any(|(_, e)| occurs_free(name, e))
                || occurs_free(name, &out.init)
                || occurs_free(name, &out.cond)
                || occurs_free(name, &out.step)
                || occurs_free(name, &out.result);
            if !used_later {
                out.lets.remove(i);
                removed = true;
                break;
            }
        }
        if !removed {
            return out;
        }
    }
}

fn scalar_type(t: ScalarType) -> Type {
    match t {
        ScalarType::Int => Type::Int,
        ScalarType::Real => Type::Real,
        ScalarType::Str => Type::Str,
        ScalarType::Bool => Type::Bool,
    }
}

/// `Q`'s S-IFAQ type: a dictionary from attribute records to integer
/// multiplicities.
pub fn query_type(attrs: &[(Sym, ScalarType)]) -> Type {
    Type::dict(
        Type::record(
            attrs
                .iter()
                .map(|(n, t)| (n.clone(), scalar_type(*t)))
                .collect::<Vec<_>>(),
        ),
        Type::Int,
    )
}

/// A compiled program's aggregate batch, planned and prepared once for a
/// fixed database and layout: the join tree, view plan, and every piece
/// of the layout's θ-free state ([`ifaq_engine::layout::Prepared`]).
/// Build it with [`Compiled::prepare`], then run the batch any number of
/// times with [`Compiled::run_batch_prepared`] /
/// [`Compiled::execute_prepared`] — reuse is bit-identical to fresh
/// prepare+execute. Staleness is guarded at both levels: the runner
/// panics if the preparation came from a different [`Compiled`]
/// (different batch), and the engine guard panics (naming both) on a
/// layout or plan mismatch.
#[derive(Debug)]
pub struct PreparedBatch {
    layout: Layout,
    /// The batch the plan was derived from, kept so a `PreparedBatch`
    /// cannot silently serve a *different* `Compiled`: the runner binds
    /// result `i` to `__agg<i>`, so running program A's plan under
    /// program B would feed B's loop the wrong aggregates with no error.
    batch: AggBatch,
    /// `None` when the compiled batch is empty (nothing to plan).
    planned: Option<(ViewPlan, layout::Prepared)>,
}

impl PreparedBatch {
    /// The layout this batch was prepared for.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// The view plan the engine executes for this batch (`None` when the
    /// compiled batch is empty). This is the exact plan the C++ emitter
    /// must be fed so the generated program computes the same fused scan
    /// in the same aggregate order — see `ifaq_codegen::emit_program` and
    /// the `codegen_equivalence` gate.
    pub fn plan(&self) -> Option<&ViewPlan> {
        self.planned.as_ref().map(|(plan, _)| plan)
    }

    /// Renders the prepared executor tree this batch runs — one line per
    /// plan node, with each node's prepared-state detail (see
    /// [`ifaq_engine::exec::PlanTree::explain`]). `None` when the
    /// compiled batch is empty.
    pub fn explain_tree(&self) -> Option<String> {
        self.planned.as_ref().map(|(_, prep)| prep.explain_tree())
    }
}

impl Compiled {
    /// Executes the compiled program over a star database: evaluates the
    /// aggregate batch with the chosen physical layout (no join
    /// materialization), binds the results, and interprets the residual
    /// program (whose loop no longer touches the data).
    pub fn execute(&self, db: &StarDb, layout_choice: Layout) -> Result<Value, PipelineError> {
        self.execute_with(db, layout_choice, ExecConfig::global())
    }

    /// [`Compiled::execute`] with the batch scan sharded per `cfg` (the
    /// residual program stays on the calling thread — after extraction it
    /// no longer touches the data, so there is nothing left to shard).
    pub fn execute_with(
        &self,
        db: &StarDb,
        layout_choice: Layout,
        cfg: &ExecConfig,
    ) -> Result<Value, PipelineError> {
        let prepared = self.prepare(db, layout_choice)?;
        self.execute_prepared(db, &prepared, cfg)
    }

    /// Plans the compiled batch against a star database (the exact plan
    /// [`Compiled::prepare`] builds state for), or `None` when the batch
    /// is empty.
    fn plan_for(&self, db: &StarDb) -> Result<Option<(Catalog, ViewPlan)>, PipelineError> {
        if self.batch.is_empty() {
            return Ok(None);
        }
        let catalog = db.catalog();
        let tree = db
            .join_tree(&catalog)
            .map_err(|e| PipelineError::JoinTree(e.to_string()))?;
        let plan = ViewPlan::plan(&self.batch, &tree, &catalog)
            .map_err(|e| PipelineError::Plan(e.to_string()))?;
        Ok(Some((catalog, plan)))
    }

    /// Runs the static plan analyzer (`ifaq_query::analysis`) over the
    /// compiled batch as planned for `db`: the per-layout cost table and
    /// cost-driven layout choice, batch CSE, and all lint diagnostics.
    /// Returns `None` when the batch is empty (nothing to analyze).
    pub fn analyze(&self, db: &StarDb) -> Result<Option<Analysis>, PipelineError> {
        Ok(self
            .plan_for(db)?
            .map(|(catalog, plan)| analysis::analyze(&catalog, &plan, &self.batch)))
    }

    /// Plans the batch and builds the layout's θ-free state, once. Hoist
    /// this out of any loop that runs the same compiled batch repeatedly
    /// (training iterations, benchmark sweeps, per-δ tree nodes over an
    /// unchanged plan).
    ///
    /// The static analyzer runs first and error-severity diagnostics
    /// fail the preparation ([`PipelineError::Analysis`]): a plan that
    /// bakes a per-iteration column into a prepared view, or a batch
    /// with shadowed result names, would execute and silently return
    /// wrong or stale numbers.
    pub fn prepare(
        &self,
        db: &StarDb,
        layout_choice: Layout,
    ) -> Result<PreparedBatch, PipelineError> {
        let Some((catalog, plan)) = self.plan_for(db)? else {
            return Ok(PreparedBatch {
                layout: layout_choice,
                batch: self.batch.clone(),
                planned: None,
            });
        };
        let report = analysis::analyze(&catalog, &plan, &self.batch);
        if report.has_errors() {
            let msgs: Vec<String> = report.errors().iter().map(|d| d.to_string()).collect();
            return Err(PipelineError::Analysis(msgs.join("; ")));
        }
        let prep = layout::prepare(layout_choice, &plan, db);
        Ok(PreparedBatch {
            layout: layout_choice,
            batch: self.batch.clone(),
            planned: Some((plan, prep)),
        })
    }

    /// Renders the executor tree the compiled batch would run over `db`
    /// under `layout_choice`, without preparing any state (see
    /// [`ifaq_engine::exec::explain_tree`]). `None` when the batch is
    /// empty. For a rendering that includes prepared-state detail,
    /// prepare first and use [`PreparedBatch::explain_tree`].
    pub fn explain_tree(
        &self,
        db: &StarDb,
        layout_choice: Layout,
    ) -> Result<Option<String>, PipelineError> {
        Ok(self.plan_for(db)?.map(|(_, plan)| {
            ifaq_engine::exec::explain_tree(&plan, Some(&self.batch), layout_choice)
        }))
    }

    /// Runs just the aggregate batch over prepared state (the θ-dependent
    /// scan only).
    ///
    /// # Panics
    ///
    /// If `prepared` was built by a different [`Compiled`] (its batch
    /// differs from this program's) — results are positionally bound to
    /// `__agg<i>` variables, so a foreign preparation would silently
    /// misbind them. The engine guard additionally panics if `prepared`'s
    /// layout or plan mismatches.
    pub fn run_batch_prepared(
        &self,
        db: &StarDb,
        prepared: &PreparedBatch,
        cfg: &ExecConfig,
    ) -> Vec<f64> {
        assert!(
            prepared.batch == self.batch,
            "stale PreparedBatch: prepared for a different compiled program's batch \
             ({} aggregates, this program extracts {}); call Compiled::prepare on \
             the program being run",
            prepared.batch.len(),
            self.batch.len()
        );
        match &prepared.planned {
            Some((plan, prep)) => layout::execute_with(prepared.layout, plan, db, prep, cfg),
            None => vec![],
        }
    }

    /// [`Compiled::execute_with`] over prepared state: batch scan, bind
    /// results, interpret the residual program.
    pub fn execute_prepared(
        &self,
        db: &StarDb,
        prepared: &PreparedBatch,
        cfg: &ExecConfig,
    ) -> Result<Value, PipelineError> {
        let results = self.run_batch_prepared(db, prepared, cfg);
        self.run_residual(&results)
    }

    /// Binds batch result `i` to `__agg<i>` and interprets the residual
    /// program (which never touches the data).
    fn run_residual(&self, results: &[f64]) -> Result<Value, PipelineError> {
        let mut env = Env::new();
        for (i, v) in results.iter().enumerate() {
            env.insert(Extraction::agg_var(i), Value::real(*v));
        }
        Interpreter::with_max_iterations(1_000_000)
            .run(&env, &self.program)
            .map_err(|e| PipelineError::Eval(e.to_string()))
    }

    /// Runs the aggregate batch out of core, streaming the fact table of
    /// an on-disk `IFAQTBL1` star export through `layout_choice`'s
    /// executor with dimensions resident. Planning and the analysis gate
    /// are identical to [`Compiled::prepare`] — both run against the
    /// export's schema database, and the plan shape is statistics-free —
    /// so for any fixed `cfg.chunk_rows` the results are bit-identical
    /// to [`Compiled::run_batch_with`] over the resident database at any
    /// thread count.
    pub fn run_batch_streamed(
        &self,
        src: &ifaq_engine::stream::StreamSource,
        layout_choice: Layout,
        cfg: &ExecConfig,
    ) -> Result<Vec<f64>, PipelineError> {
        let Some((catalog, plan)) = self.plan_for(src.schema_db())? else {
            return Ok(vec![]);
        };
        let report = analysis::analyze(&catalog, &plan, &self.batch);
        if report.has_errors() {
            let msgs: Vec<String> = report.errors().iter().map(|d| d.to_string()).collect();
            return Err(PipelineError::Analysis(msgs.join("; ")));
        }
        let prep = ifaq_engine::stream::prepare_streaming(
            layout_choice,
            &plan,
            src.schema_db(),
            src.fact_rows(),
        );
        let (results, _stats) = ifaq_engine::stream::execute_streaming(&plan, src, &prep, cfg)
            .map_err(|e| PipelineError::Stream(e.to_string()))?;
        Ok(results)
    }

    /// [`Compiled::execute_with`] out of core: streamed batch scan, bind
    /// results, interpret the residual program (which never touches the
    /// data).
    pub fn execute_streamed(
        &self,
        src: &ifaq_engine::stream::StreamSource,
        layout_choice: Layout,
        cfg: &ExecConfig,
    ) -> Result<Value, PipelineError> {
        let results = self.run_batch_streamed(src, layout_choice, cfg)?;
        self.run_residual(&results)
    }

    /// Evaluates just the aggregate batch over the database.
    pub fn run_batch(&self, db: &StarDb, layout_choice: Layout) -> Result<Vec<f64>, PipelineError> {
        self.run_batch_with(db, layout_choice, ExecConfig::global())
    }

    /// [`Compiled::run_batch`] with the scan sharded per `cfg` (one-shot:
    /// plans and prepares internally; see [`Compiled::prepare`] to reuse).
    pub fn run_batch_with(
        &self,
        db: &StarDb,
        layout_choice: Layout,
        cfg: &ExecConfig,
    ) -> Result<Vec<f64>, PipelineError> {
        let prepared = self.prepare(db, layout_choice)?;
        Ok(self.run_batch_prepared(db, &prepared, cfg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifaq_engine::star::running_example_star;
    use ifaq_ir::Expr;
    use ifaq_transform::highlevel::linear_regression_program;

    fn compile_lr(iters: i64) -> (StarDb, Compiled) {
        let db = running_example_star();
        let program =
            linear_regression_program(&["city", "price"], "units", Expr::var("Q"), 0.000001, iters);
        let opts = CompileOptions::for_star_db(&db);
        // Q is data-sized; the loop scheduler needs only its cardinality.
        let catalog = db.catalog().with_var_size("Q", db.fact_rows() as u64);
        let compiled = Pipeline::new(catalog).compile(&program, &opts).unwrap();
        (db, compiled)
    }

    #[test]
    fn lr_compiles_to_dataless_loop_plus_batch() {
        let (_, compiled) = compile_lr(10);
        // The covar aggregates were extracted…
        assert_eq!(
            compiled.batch.len(),
            5,
            "covar entries cc, cp, pp + label interactions cu, pu"
        );
        // …and the program no longer mentions Q anywhere.
        let all = format!(
            "{}{}{}{}",
            compiled
                .program
                .lets
                .iter()
                .map(|(n, e)| format!("{n}={e};"))
                .collect::<String>(),
            compiled.program.init,
            compiled.program.step,
            compiled.program.cond
        );
        assert!(!all.contains("dom(Q)"), "program still scans Q: {all}");
        assert!(
            all.contains("__agg"),
            "program should reference batch results"
        );
        // High-level report saw the memoization fire.
        assert!(compiled.stages.high_level_report.memoized >= 1);
    }

    #[test]
    fn lr_executes_end_to_end() {
        let (db, compiled) = compile_lr(5);
        let theta = compiled.execute(&db, Layout::MergedHash).unwrap();
        // θ is a record over the features with finite real entries.
        match &theta {
            Value::Record(fs) => {
                assert_eq!(fs.len(), 2);
                for (_, v) in fs {
                    let x = v.as_f64().expect("numeric parameter");
                    assert!(x.is_finite());
                }
            }
            other => panic!("expected record, got {other}"),
        }
    }

    #[test]
    fn execution_is_layout_independent() {
        let (db, compiled) = compile_lr(3);
        let reference = compiled.execute(&db, Layout::Materialized).unwrap();
        for &l in Layout::all() {
            assert_eq!(compiled.execute(&db, l).unwrap(), reference, "{l}");
        }
    }

    #[test]
    fn prepared_batch_reuse_matches_fresh() {
        let (db, compiled) = compile_lr(3);
        let cfg = ExecConfig::global();
        for &l in Layout::all() {
            let prepared = compiled.prepare(&db, l).unwrap();
            assert_eq!(prepared.layout(), l);
            let fresh = compiled.run_batch(&db, l).unwrap();
            for _ in 0..3 {
                assert_eq!(
                    compiled.run_batch_prepared(&db, &prepared, cfg),
                    fresh,
                    "{l}: cached batch diverged from fresh"
                );
            }
            assert_eq!(
                compiled.execute_prepared(&db, &prepared, cfg).unwrap(),
                compiled.execute(&db, l).unwrap(),
                "{l}"
            );
        }
    }

    #[test]
    fn analyze_surfaces_the_cost_decision_without_findings() {
        // The bundled linear-regression workload is clean: the analyzer
        // reports the full cost table and a chosen layout, no errors.
        let (db, compiled) = compile_lr(3);
        let report = compiled.analyze(&db).unwrap().expect("nonempty batch");
        assert_eq!(report.costs.len(), Layout::all().len());
        assert!(!report.has_errors(), "{:?}", report.diagnostics);
        assert_eq!(report.chosen, report.ranked()[0].layout);
        assert_eq!(report.dedup.savings(), 0, "covar batch has no duplicates");
        // And an empty batch has nothing to analyze.
        let empty = Pipeline::new(db.catalog())
            .compile(
                &ifaq_ir::parser::parse_program("1 + 2").unwrap(),
                &CompileOptions::for_star_db(&db),
            )
            .unwrap();
        assert!(empty.analyze(&db).unwrap().is_none());
    }

    #[test]
    fn prepare_rejects_theta_dependent_prepared_views() {
        // A per-iteration (`__`-prefixed) column owned by a *dimension*
        // would be baked into the prepared view at iteration 0; the
        // analyzer proves it and `prepare` must refuse.
        use ifaq_engine::star::Dim;
        use ifaq_storage::{ColRelation, Column};
        let fact = ColRelation::new(
            "F",
            vec![Sym::new("k"), Sym::new("m")],
            vec![Column::I64(vec![0, 1, 1]), Column::F64(vec![1.0, 2.0, 3.0])],
        );
        let dim = ColRelation::new(
            "D",
            vec![Sym::new("k"), Sym::new("__sigma")],
            vec![Column::I64(vec![0, 1]), Column::F64(vec![0.5, 0.25])],
        );
        let db = StarDb::new(fact, vec![Dim::new(dim, "k")]);
        let program = ifaq_ir::parser::parse_program("sum(x in dom(Q)) Q(x) * x.__sigma").unwrap();
        let opts = CompileOptions::for_star_db(&db);
        let compiled = Pipeline::new(db.catalog())
            .compile(&program, &opts)
            .unwrap();
        let err = compiled.prepare(&db, Layout::MergedHash).unwrap_err();
        match &err {
            PipelineError::Analysis(m) => {
                assert!(m.contains("IFAQ-T001"), "unexpected findings: {m}")
            }
            other => panic!("expected analysis error, got {other}"),
        }
        // `analyze` reports the same finding without failing.
        let report = compiled.analyze(&db).unwrap().expect("nonempty batch");
        assert!(report.has_errors());
    }

    #[test]
    fn foreign_prepared_batch_is_rejected() {
        // A PreparedBatch from program A must not silently serve program
        // B: results bind positionally to __agg variables.
        let db = running_example_star();
        let opts = CompileOptions::for_star_db(&db);
        let a = Pipeline::new(db.catalog())
            .compile(
                &ifaq_ir::parser::parse_program("sum(x in dom(Q)) Q(x) * x.units").unwrap(),
                &opts,
            )
            .unwrap();
        let b = Pipeline::new(db.catalog())
            .compile(
                &ifaq_ir::parser::parse_program("sum(x in dom(Q)) Q(x) * x.price").unwrap(),
                &opts,
            )
            .unwrap();
        let prep_a = a.prepare(&db, Layout::MergedHash).unwrap();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            b.run_batch_prepared(&db, &prep_a, ExecConfig::global())
        }))
        .expect_err("foreign preparation must be rejected");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("different compiled program"),
            "unexpected message: {msg}"
        );
    }

    #[test]
    fn empty_batch_prepares_and_runs() {
        // A program with no aggregates compiles to an empty batch; the
        // prepared path must mirror `run_batch_with`'s empty result.
        let db = running_example_star();
        let program = ifaq_ir::parser::parse_program("1 + 2").unwrap();
        let opts = CompileOptions::for_star_db(&db);
        let compiled = Pipeline::new(db.catalog())
            .compile(&program, &opts)
            .unwrap();
        assert!(compiled.batch.is_empty());
        let prepared = compiled.prepare(&db, Layout::MergedHash).unwrap();
        assert!(compiled
            .run_batch_prepared(&db, &prepared, ExecConfig::global())
            .is_empty());
        assert_eq!(
            compiled
                .execute_prepared(&db, &prepared, ExecConfig::global())
                .unwrap(),
            Value::Int(3)
        );
    }

    #[test]
    fn execute_with_plumbs_the_config() {
        // Exhaustive thread-count invariance lives in
        // `tests/parallel_equivalence.rs`; here just check the `_with`
        // entry points accept a sharded config and agree with the default.
        let (db, compiled) = compile_lr(3);
        let reference = compiled
            .execute_with(&db, Layout::MergedHash, &ExecConfig::with_threads(1))
            .unwrap();
        let got = compiled
            .execute_with(&db, Layout::MergedHash, &ExecConfig::with_threads(3))
            .unwrap();
        assert_eq!(got, reference);
    }

    #[test]
    fn gradient_descent_moves_parameters() {
        let (db, compiled0) = compile_lr(0);
        let (_, compiled10) = compile_lr(10);
        let t0 = compiled0.execute(&db, Layout::MergedHash).unwrap();
        let t10 = compiled10.execute(&db, Layout::MergedHash).unwrap();
        assert_ne!(t0, t10, "iterations should change θ");
    }

    #[test]
    fn type_errors_are_reported() {
        let db = running_example_star();
        // A program whose loop step changes the state's type: int → string.
        let program =
            ifaq_ir::parser::parse_program("x := 0;\nwhile (_iter < 2) { x := \"oops\" }\nx")
                .unwrap();
        let opts = CompileOptions::for_star_db(&db);
        let err = Pipeline::new(db.catalog())
            .compile(&program, &opts)
            .unwrap_err();
        match err {
            PipelineError::Type(e) => assert!(e.message.contains("loop step")),
            other => panic!("expected type error, got {other}"),
        }
    }

    #[test]
    fn expression_programs_compile_and_run() {
        let db = running_example_star();
        let program = ifaq_ir::parser::parse_program("sum(x in dom(Q)) Q(x) * x.units").unwrap();
        let opts = CompileOptions::for_star_db(&db);
        let compiled = Pipeline::new(db.catalog())
            .compile(&program, &opts)
            .unwrap();
        assert_eq!(compiled.batch.len(), 1);
        let v = compiled.execute(&db, Layout::MergedHash).unwrap();
        assert_eq!(v, Value::real(28.0));
    }

    #[test]
    fn shared_aggregates_are_extracted_once_across_expressions() {
        let db = running_example_star();
        let program = ifaq_ir::parser::parse_program(
            "let a = sum(x in dom(Q)) Q(x) * x.units;\n\
             let b = sum(y in dom(Q)) Q(y) * y.units;\n\
             a + b",
        )
        .unwrap();
        let opts = CompileOptions::for_star_db(&db);
        let compiled = Pipeline::new(db.catalog())
            .compile(&program, &opts)
            .unwrap();
        assert_eq!(compiled.batch.len(), 1, "identical aggregates share");
        let v = compiled.execute(&db, Layout::MergedHash).unwrap();
        assert_eq!(v, Value::real(56.0));
    }
}
