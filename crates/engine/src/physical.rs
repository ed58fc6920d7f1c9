//! Physical executors for aggregate batches — the paper's optimization
//! ladders (Figures 7a and 7b) as concrete engines.
//!
//! Every executor computes the same batch results (`Vec<f64>` aligned with
//! the planned batch); they differ in data layout and loop structure. See
//! the crate docs for the mapping to the paper's measurement points.
//!
//! Each executor is a `prepare_*` / `exec_*_prepared` split: all θ-free
//! state — the merged hash views, dense key-indexed views, boxed
//! dictionaries, per-aggregate pushdown views, the resolved join, the
//! fact trie, the sorted order, and the level analysis — is built exactly
//! once and then borrowed by any number of execute calls, each sharding
//! its scan across threads per an explicit [`ExecConfig`]. The only
//! one-shot form left is [`exec_merged`]. The [`crate::exec`] executor
//! tree composes these kernels into plan nodes — one join/view node per
//! layout owning the matching `*Prep` — and is what
//! [`crate::layout::prepare`] builds and the only way to run a layout;
//! this module stays the kernel library: loops, preps, and nothing that
//! knows about trees or sources. Prepared state never captures fact
//! *value* columns (executors read those live), so iterative training
//! that rewrites a derived fact column (logistic's `__sigma`) can reuse
//! one preparation across every iteration.
//!
//! Sharding follows the [`crate::par`] model: the scan's work items —
//! fact-row chunks for most executors, top-level key groups for the trie,
//! whole aggregates for pushdown — are claimed by workers, each produces
//! a partial result, and partials merge in ascending item order, so
//! results are identical at every thread count for a fixed `chunk_rows`.
//! View building and other preprocessing stay single-threaded: they are
//! the paper's out-of-measurement setup work.

use crate::par::{run_chunked, run_chunked_sums, ExecConfig};
use crate::star::{Dim, StarDb};
use ifaq_query::plan::{DimView, Payload, ViewPlan};
use ifaq_query::Predicate;
use ifaq_storage::{Column, Dict, Value};
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;

/// Resolved references binding a planned dimension view to the physical
/// dimension relation and the fact table's key column.
pub(crate) struct BoundDim<'a> {
    pub(crate) dim: &'a Dim,
    pub(crate) view: &'a DimView,
    pub(crate) fact_keys: &'a [i64],
}

pub(crate) fn bind_dims<'a>(plan: &'a ViewPlan, db: &'a StarDb) -> Vec<BoundDim<'a>> {
    plan.dims
        .iter()
        .map(|view| {
            assert_eq!(
                view.key_attrs.len(),
                1,
                "physical engines require single-attribute join keys"
            );
            let dim = db
                .dims
                .iter()
                .find(|d| d.rel.name == view.relation)
                .unwrap_or_else(|| panic!("dimension `{}` not in database", view.relation));
            let fact_keys = db
                .fact
                .column(view.key_attrs[0].as_str())
                .expect("fact join key column")
                .as_i64()
                .expect("fact join key must be integer");
            BoundDim {
                dim,
                view,
                fact_keys,
            }
        })
        .collect()
}

/// Evaluates one payload for dimension row `j`.
pub(crate) fn payload_value(dim: &Dim, payload: &Payload, j: usize) -> f64 {
    for p in &payload.filter {
        let col = dim.rel.column(p.attr.as_str()).expect("filter column");
        if !p.eval(col.get_f64(j)) {
            return 0.0;
        }
    }
    let mut v = 1.0;
    for f in &payload.factors {
        let col = dim.rel.column(f.as_str()).expect("payload factor column");
        v *= col.get_f64(j);
    }
    v
}

/// Builds the merged view of one dimension: key → payload vector.
pub(crate) fn build_merged_view(b: &BoundDim) -> HashMap<i64, Vec<f64>> {
    let keys = b
        .dim
        .rel
        .column(b.view.key_attrs[0].as_str())
        .expect("dim key column")
        .as_i64()
        .expect("dim key must be integer");
    let mut out: HashMap<i64, Vec<f64>> = HashMap::with_capacity(keys.len());
    for (j, &k) in keys.iter().enumerate() {
        let entry = out
            .entry(k)
            .or_insert_with(|| vec![0.0; b.view.payloads.len()]);
        for (pi, p) in b.view.payloads.iter().enumerate() {
            entry[pi] += payload_value(b.dim, p, j);
        }
    }
    out
}

/// Builds the merged view of every dimension — the dimension-side half
/// of the trie state, split out so `exec` nodes can cache it separately
/// from the fact-derived trie.
pub(crate) fn build_merged_views(plan: &ViewPlan, db: &StarDb) -> Vec<HashMap<i64, Vec<f64>>> {
    bind_dims(plan, db).iter().map(build_merged_view).collect()
}

/// Per-row fact factor product with δ filters, shared by all executors.
#[derive(Clone)]
pub(crate) struct FactAccess<'a> {
    factor_cols: Vec<&'a Column>,
    filter_cols: Vec<(&'a Column, &'a Predicate)>,
}

impl<'a> FactAccess<'a> {
    pub(crate) fn bind(plan: &'a ViewPlan, db: &'a StarDb) -> Vec<FactAccess<'a>> {
        plan.terms
            .iter()
            .map(|t| FactAccess {
                factor_cols: t
                    .fact_factors
                    .iter()
                    .map(|f| db.fact.column(f.as_str()).expect("fact factor column"))
                    .collect(),
                filter_cols: t
                    .fact_filter
                    .iter()
                    .map(|p| {
                        (
                            db.fact.column(p.attr.as_str()).expect("fact filter column"),
                            p,
                        )
                    })
                    .collect(),
            })
            .collect()
    }

    #[inline]
    pub(crate) fn eval(&self, i: usize) -> f64 {
        for (col, p) in &self.filter_cols {
            if !p.eval(col.get_f64(i)) {
                return 0.0;
            }
        }
        let mut v = 1.0;
        for c in &self.factor_cols {
            v *= c.get_f64(i);
        }
        v
    }
}

/// Terms sharing an identical fact-local program (same factors and
/// filters) evaluate it once per row. In wide covar batches most
/// aggregates touch only dimension attributes, so their fact-local value
/// is the constant 1 — deduplication shrinks per-row work dramatically.
pub(crate) fn signature_map(plan: &ViewPlan) -> (Vec<usize>, Vec<usize>) {
    // Returns (term → signature index, representative term per signature).
    let mut sig_of = Vec::with_capacity(plan.terms.len());
    let mut reps: Vec<usize> = Vec::new();
    for (t, term) in plan.terms.iter().enumerate() {
        let found = reps.iter().position(|&r| {
            plan.terms[r].fact_factors == term.fact_factors
                && plan.terms[r].fact_filter == term.fact_filter
        });
        match found {
            Some(s) => sig_of.push(s),
            None => {
                reps.push(t);
                sig_of.push(reps.len() - 1);
            }
        }
    }
    (sig_of, reps)
}

/// θ-free prepared state for the materialized baseline: the resolved
/// project-join row structure ([`crate::star::JoinIndex`]). The index
/// reads only join keys, so it survives fact *value* mutations (e.g. the
/// per-iteration `__sigma` rewrite in logistic training); execute
/// re-gathers current values through it without any hashing.
#[derive(Clone, Debug)]
pub struct MatPrep {
    index: crate::star::JoinIndex,
}

/// Resolves the join once (hash lookups happen only here).
pub fn prepare_materialized(db: &StarDb) -> MatPrep {
    MatPrep {
        index: db.join_index(),
    }
}

/// Baseline: materialize the join, then aggregate over the dense matrix.
/// Gathers the matrix through a prebuilt [`MatPrep`] from the current
/// column values (bit-identical to [`StarDb::materialize`]) and shards
/// the aggregate scan (materialization itself stays single-threaded, as
/// in the conventional pipeline).
pub fn exec_materialized_prepared(
    plan: &ViewPlan,
    db: &StarDb,
    prep: &MatPrep,
    cfg: &ExecConfig,
) -> Vec<f64> {
    let m = db.materialize_via(&prep.index);
    batch_over_matrix_cfg(&m, plan, cfg)
}

/// Computes the batch over an already-materialized training matrix,
/// sharded across matrix row chunks.
pub fn batch_over_matrix_cfg(
    m: &crate::star::TrainMatrix,
    plan: &ViewPlan,
    cfg: &ExecConfig,
) -> Vec<f64> {
    // Resolve every factor/filter to a matrix column; a term's factors are
    // the union of its fact factors and its dimensions' payload factors.
    struct Cols {
        factors: Vec<usize>,
        filters: Vec<(usize, Predicate)>,
    }
    let cols: Vec<Cols> = plan
        .terms
        .iter()
        .map(|t| {
            let mut factors: Vec<usize> = t
                .fact_factors
                .iter()
                .map(|f| m.col(f.as_str()).expect("matrix column"))
                .collect();
            let mut filters: Vec<(usize, Predicate)> = t
                .fact_filter
                .iter()
                .map(|p| (m.col(p.attr.as_str()).expect("matrix column"), p.clone()))
                .collect();
            for (di, &pi) in t.dim_payload.iter().enumerate() {
                let payload = &plan.dims[di].payloads[pi];
                for f in &payload.factors {
                    factors.push(m.col(f.as_str()).expect("matrix column"));
                }
                for p in &payload.filter {
                    filters.push((m.col(p.attr.as_str()).expect("matrix column"), p.clone()));
                }
            }
            Cols { factors, filters }
        })
        .collect();
    let nterms = plan.terms.len();
    run_chunked_sums(cfg, m.rows, nterms, |range: Range<usize>| {
        let mut results = vec![0.0; nterms];
        for i in range {
            let row = m.row(i);
            'term: for (t, c) in cols.iter().enumerate() {
                for (ci, p) in &c.filters {
                    if !p.eval(row[*ci]) {
                        continue 'term;
                    }
                }
                let mut v = 1.0;
                for &ci in &c.factors {
                    v *= row[ci];
                }
                results[t] += v;
            }
        }
        results
    })
}

/// θ-free prepared state for the pushdown executor: one single-payload
/// view per (aggregate, dimension) pair — this rung's defining
/// duplication, built once instead of once per execute call.
///
/// Memory note: all `terms × dims` view sets are resident at once
/// (that is what caching them means), whereas the pre-split executor
/// built each term's views inside its worker and peaked at one set per
/// in-flight term. For very wide batches (a covar batch has O(f²)
/// terms) over large dimensions, prefer a view-sharing layout like
/// [`prepare_merged`] — pushdown is the ladder's deliberately redundant
/// starting rung.
#[derive(Clone, Debug)]
pub struct PushdownPrep {
    /// `views[term][dim]`: key → the term's payload at that dimension.
    pub(crate) views: Vec<Vec<HashMap<i64, f64>>>,
}

/// Builds every term's private view set.
pub fn prepare_pushdown(plan: &ViewPlan, db: &StarDb) -> PushdownPrep {
    let bounds = bind_dims(plan, db);
    let views = plan
        .terms
        .iter()
        .map(|term| {
            bounds
                .iter()
                .zip(&term.dim_payload)
                .map(|(b, &pi)| {
                    let keys = b
                        .dim
                        .rel
                        .column(b.view.key_attrs[0].as_str())
                        .expect("dim key column")
                        .as_i64()
                        .expect("dim key");
                    let payload = &b.view.payloads[pi];
                    let mut out: HashMap<i64, f64> = HashMap::with_capacity(keys.len());
                    for (j, &k) in keys.iter().enumerate() {
                        *out.entry(k).or_insert(0.0) += payload_value(b.dim, payload, j);
                    }
                    out
                })
                .collect()
        })
        .collect();
    PushdownPrep { views }
}

/// Fig. 7a "Pushed Down Aggregates": one view set *per aggregate*, so each
/// dimension is scanned once per aggregate and the fact table is scanned
/// once per aggregate. Sharded across *aggregates* rather than rows:
/// every term's fact scan is already an independent unit of work (the
/// repeated per-aggregate scans are the point of this rung), so each
/// worker computes whole terms — one thread scope for the batch, and
/// since a term is never split its result is the plain sequential
/// accumulation, identical for any thread count *and* any `chunk_rows`.
pub fn exec_pushdown_prepared(
    plan: &ViewPlan,
    db: &StarDb,
    prep: &PushdownPrep,
    cfg: &ExecConfig,
) -> Vec<f64> {
    let bounds = bind_dims(plan, db);
    let fact_access = FactAccess::bind(plan, db);
    let n = db.fact.len();
    let nterms = plan.terms.len();
    // One term per work item (`chunk_rows` measures fact rows, but a term
    // always scans all of them).
    let term_cfg = cfg.with_chunk_rows(1);
    run_chunked(
        &term_cfg,
        nterms,
        vec![0.0; nterms],
        |terms: Range<usize>| {
            terms
                .map(|t| {
                    (
                        t,
                        pushdown_fold(&bounds, &prep.views[t], &fact_access[t], n, 0.0),
                    )
                })
                .collect::<Vec<_>>()
        },
        |results, partial| {
            for (t, v) in partial {
                results[t] = v;
            }
        },
    )
}

/// One pushdown term's sequential fold over rows `0..rows`, continuing
/// from `acc`: the resident executor folds each term over the whole fact
/// table from zero; the streamed one carries `acc` across chunks, which
/// adds the same values in the same order.
pub(crate) fn pushdown_fold(
    bounds: &[BoundDim<'_>],
    views: &[HashMap<i64, f64>],
    fa: &FactAccess<'_>,
    rows: usize,
    mut acc: f64,
) -> f64 {
    'row: for i in 0..rows {
        let mut v = fa.eval(i);
        if v == 0.0 {
            continue;
        }
        for (b, view) in bounds.iter().zip(views) {
            match view.get(&b.fact_keys[i]) {
                Some(&p) => v *= p,
                None => continue 'row,
            }
        }
        acc += v;
    }
    acc
}

/// Fig. 7a "Merged Views + Multi Aggregate" / Fig. 7b "Compilation to C++
/// and Mem Mgt": one merged view per dimension, one fused fact scan
/// computing every aggregate. A one-shot prepare + execute under the
/// process-wide [`ExecConfig::global`].
pub fn exec_merged(plan: &ViewPlan, db: &StarDb) -> Vec<f64> {
    exec_merged_prepared(plan, db, &prepare_merged(plan, db), ExecConfig::global())
}

/// θ-free prepared state for the merged-view executor: one merged hash
/// view per dimension (key → payload vector).
#[derive(Clone, Debug)]
pub struct MergedPrep {
    views: Vec<HashMap<i64, Vec<f64>>>,
}

/// Builds the merged view of every dimension.
pub fn prepare_merged(plan: &ViewPlan, db: &StarDb) -> MergedPrep {
    MergedPrep {
        views: build_merged_views(plan, db),
    }
}

/// [`exec_merged`] over prebuilt merged views, with the fused fact scan
/// sharded across row chunks.
pub fn exec_merged_prepared(
    plan: &ViewPlan,
    db: &StarDb,
    prep: &MergedPrep,
    cfg: &ExecConfig,
) -> Vec<f64> {
    let bounds = bind_dims(plan, db);
    let fact_access = FactAccess::bind(plan, db);
    let views = &prep.views;
    let n = db.fact.len();
    let nterms = plan.terms.len();
    run_chunked_sums(cfg, n, nterms, |range: Range<usize>| {
        let mut results = vec![0.0; nterms];
        let mut payload_refs: Vec<&[f64]> = Vec::with_capacity(bounds.len());
        'row: for i in range {
            payload_refs.clear();
            for (b, view) in bounds.iter().zip(views) {
                match view.get(&b.fact_keys[i]) {
                    Some(p) => payload_refs.push(p),
                    None => continue 'row,
                }
            }
            for (t, term) in plan.terms.iter().enumerate() {
                let mut v = fact_access[t].eval(i);
                if v == 0.0 {
                    continue;
                }
                for (di, &pi) in term.dim_payload.iter().enumerate() {
                    v *= payload_refs[di][pi];
                }
                results[t] += v;
            }
        }
        results
    })
}

/// Level analysis shared by the trie and sorted executors: the distinct
/// fact key *columns* (several dimensions may join on the same column,
/// e.g. Oil and Holiday both on `date`), ordered by ascending dimension
/// cardinality and split into a *hoistable prefix* — levels whose group
/// count stays well below the row count, so per-group work amortizes —
/// and a per-row *remainder*.
#[derive(Debug)]
pub(crate) struct KeyPlan {
    /// Prefix levels: (fact key column name, dims served by this level).
    pub(crate) prefix: Vec<(ifaq_ir::Sym, Vec<usize>)>,
    /// Dims looked up per row (high-cardinality keys).
    pub(crate) remainder: Vec<usize>,
    /// Representative term per signature.
    pub(crate) sig_reps: Vec<usize>,
    /// Term → row-program index. A *row program* is the per-row part of a
    /// term: its fact-local signature plus its payload choices at the
    /// per-row (remainder) dimensions. In wide covar batches most terms
    /// differ only in group-constant payloads and share a row program, so
    /// the per-row inner loop shrinks from |batch| to a few dozen entries
    /// — this is the factorized computation structure of Example 4.11.
    pub(crate) rowprog_of: Vec<usize>,
    /// Distinct row programs: (signature index, remainder payload choices
    /// parallel to `remainder`).
    pub(crate) rowprogs: Vec<(usize, Vec<usize>)>,
}

/// The level analysis of `plan` over `db`'s dimensions for a fact table
/// of `rows` rows, supplied explicitly instead of taken from `db.fact`.
/// The streaming path plans against a schema-only database whose fact
/// table is empty — the real row count comes from the on-disk export's
/// header — and the prefix/remainder split depends on that count (the
/// `groups ≤ rows/2` hoisting threshold), so it must see the
/// *full-table* count or the streamed level analysis would diverge from
/// the in-memory one.
pub(crate) fn key_plan(plan: &ViewPlan, db: &StarDb, rows: usize) -> KeyPlan {
    let bounds = bind_dims(plan, db);
    let rows = rows.max(1);
    // Group dims by fact key column.
    let mut columns: Vec<(ifaq_ir::Sym, usize, Vec<usize>)> = Vec::new(); // (col, card, dims)
    for (di, b) in bounds.iter().enumerate() {
        let col = b.view.key_attrs[0].clone();
        let card = b.dim.rel.len();
        match columns.iter_mut().find(|(c, ..)| *c == col) {
            Some((_, existing_card, dims)) => {
                *existing_card = (*existing_card).min(card);
                dims.push(di);
            }
            None => columns.push((col, card, vec![di])),
        }
    }
    columns.sort_by_key(|(_, card, _)| *card);
    let mut prefix = Vec::new();
    let mut remainder = Vec::new();
    let mut groups: usize = 1;
    for (col, card, dims) in columns {
        let next = groups.saturating_mul(card.max(1));
        if next <= rows / 2 && next > 0 {
            groups = next;
            prefix.push((col, dims));
        } else {
            remainder.extend(dims);
        }
    }
    let (sig_of, sig_reps) = signature_map(plan);
    let mut rowprogs: Vec<(usize, Vec<usize>)> = Vec::new();
    let mut rowprog_of = Vec::with_capacity(plan.terms.len());
    for (t, term) in plan.terms.iter().enumerate() {
        let rem_payloads: Vec<usize> = remainder.iter().map(|&di| term.dim_payload[di]).collect();
        let key = (sig_of[t], rem_payloads);
        match rowprogs.iter().position(|rp| *rp == key) {
            Some(i) => rowprog_of.push(i),
            None => {
                rowprogs.push(key);
                rowprog_of.push(rowprogs.len() - 1);
            }
        }
    }
    KeyPlan {
        prefix,
        remainder,
        sig_reps,
        rowprog_of,
        rowprogs,
    }
}

/// A trie over the fact table, grouped by the low-cardinality join-key
/// columns (the "Dictionary to Trie" representation, Example 4.11): one
/// level per hoistable key column, with leaves holding the row groups.
/// The trie node builds it once at prepare time; the paper's setup
/// likewise assumes relations are indexed by their join attributes
/// beforehand.
///
/// Nodes are key-ordered (`BTreeMap`) so iteration — and therefore the
/// accumulation order of every executor over the trie — is deterministic
/// run-to-run, a prerequisite for the sharded executor's reproducibility
/// guarantee.
#[derive(Debug)]
pub struct FactTrie {
    prefix_cols: Vec<ifaq_ir::Sym>,
    root: TrieNode,
}

#[derive(Debug)]
enum TrieNode {
    Leaf(Vec<u32>),
    Node(BTreeMap<i64, TrieNode>),
}

pub(crate) fn build_fact_trie_from(kp: &KeyPlan, db: &StarDb) -> FactTrie {
    let key_cols: Vec<&[i64]> = kp
        .prefix
        .iter()
        .map(|(c, _)| {
            db.fact
                .column(c.as_str())
                .expect("key column")
                .as_i64()
                .expect("int key")
        })
        .collect();
    let all: Vec<u32> = (0..db.fact.len() as u32).collect();
    fn build(rows: &[u32], level: usize, key_cols: &[&[i64]]) -> TrieNode {
        if level == key_cols.len() {
            return TrieNode::Leaf(rows.to_vec());
        }
        let keys = key_cols[level];
        let mut groups: BTreeMap<i64, Vec<u32>> = BTreeMap::new();
        for &r in rows {
            groups.entry(keys[r as usize]).or_default().push(r);
        }
        TrieNode::Node(
            groups
                .into_iter()
                .map(|(k, rs)| (k, build(&rs, level + 1, key_cols)))
                .collect(),
        )
    }
    FactTrie {
        prefix_cols: kp.prefix.iter().map(|(c, _)| c.clone()).collect(),
        root: build(&all, 0, &key_cols),
    }
}

/// Fig. 7a "Dictionary to Trie": iterate the fact trie level by level,
/// looking up the payload vectors of every dimension keyed at that level
/// *once per group* and factorizing them out of the per-row inner loop;
/// high-cardinality dimensions are looked up per row as before. Sharded
/// across the trie's top-level key groups (the shard unit is a whole
/// subtree, so per-group hoisting is untouched; groups per chunk are
/// scaled so a chunk covers ≈ `chunk_rows` rows). With no hoistable
/// prefix the single leaf's rows are sharded directly. The merged views
/// and the level analysis are prepared separately from the fact trie, so
/// the views can be cached across fact deltas.
pub(crate) fn exec_trie_parts(
    plan: &ViewPlan,
    db: &StarDb,
    trie: &FactTrie,
    views: &[HashMap<i64, Vec<f64>>],
    kp: &KeyPlan,
    cfg: &ExecConfig,
) -> Vec<f64> {
    let bounds = bind_dims(plan, db);
    let fact_access = FactAccess::bind(plan, db);
    debug_assert_eq!(
        kp.prefix.iter().map(|(c, _)| c.clone()).collect::<Vec<_>>(),
        trie.prefix_cols,
        "trie was built for a different plan"
    );
    let nterms = plan.terms.len();

    /// Accumulates one leaf's row group into `results`, with the prefix
    /// dimensions' payloads already hoisted.
    #[allow(clippy::too_many_arguments)]
    fn leaf<'a>(
        rows: &[u32],
        kp: &KeyPlan,
        bounds: &[BoundDim<'_>],
        views: &'a [HashMap<i64, Vec<f64>>],
        fact_access: &[FactAccess<'_>],
        plan: &ViewPlan,
        hoisted: &mut [Option<&'a [f64]>],
        local: &mut [f64],
        results: &mut [f64],
    ) {
        local.iter_mut().for_each(|v| *v = 0.0);
        let mut sigval = vec![0.0; kp.sig_reps.len()];
        'row: for &r in rows {
            let i = r as usize;
            // Per-row lookups for the high-cardinality dims.
            for &di in &kp.remainder {
                match views[di].get(&bounds[di].fact_keys[i]) {
                    Some(p) => hoisted[di] = Some(p),
                    None => continue 'row,
                }
            }
            // One fact-local evaluation per distinct signature…
            for (s, &rep) in kp.sig_reps.iter().enumerate() {
                sigval[s] = fact_access[rep].eval(i);
            }
            // …and one accumulation per distinct row program.
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
        // Group-constant payloads multiply once per term.
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
            results[t] += v;
        }
    }

    /// Hoists the payloads of the dims keyed at `level` for one child
    /// group, then walks its subtree; a missed inner join drops the whole
    /// group. Shared by the recursive walk and the top-level shards.
    #[allow(clippy::too_many_arguments)]
    fn enter_child<'a>(
        k: &i64,
        child: &TrieNode,
        level: usize,
        kp: &KeyPlan,
        bounds: &[BoundDim<'_>],
        views: &'a [HashMap<i64, Vec<f64>>],
        fact_access: &[FactAccess<'_>],
        plan: &ViewPlan,
        hoisted: &mut Vec<Option<&'a [f64]>>,
        local: &mut [f64],
        results: &mut [f64],
    ) {
        for &di in &kp.prefix[level].1 {
            match views[di].get(k) {
                Some(p) => hoisted[di] = Some(p),
                None => return, // inner join drops group
            }
        }
        walk(
            child,
            level + 1,
            kp,
            bounds,
            views,
            fact_access,
            plan,
            hoisted,
            local,
            results,
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn walk<'a>(
        node: &TrieNode,
        level: usize,
        kp: &KeyPlan,
        bounds: &[BoundDim<'_>],
        views: &'a [HashMap<i64, Vec<f64>>],
        fact_access: &[FactAccess<'_>],
        plan: &ViewPlan,
        hoisted: &mut Vec<Option<&'a [f64]>>,
        local: &mut [f64],
        results: &mut [f64],
    ) {
        match node {
            TrieNode::Node(children) => {
                for (k, child) in children {
                    enter_child(
                        k,
                        child,
                        level,
                        kp,
                        bounds,
                        views,
                        fact_access,
                        plan,
                        hoisted,
                        local,
                        results,
                    );
                }
            }
            TrieNode::Leaf(rows) => leaf(
                rows,
                kp,
                bounds,
                views,
                fact_access,
                plan,
                hoisted,
                local,
                results,
            ),
        }
    }

    match &trie.root {
        // No hoistable prefix: one leaf holds every row; shard its rows.
        TrieNode::Leaf(rows) => run_chunked_sums(cfg, rows.len(), nterms, |range: Range<usize>| {
            let mut results = vec![0.0; nterms];
            let mut hoisted: Vec<Option<&[f64]>> = vec![None; bounds.len()];
            let mut local = vec![0.0; kp.rowprogs.len().max(nterms)];
            leaf(
                &rows[range],
                kp,
                &bounds,
                views,
                &fact_access,
                plan,
                &mut hoisted,
                &mut local,
                &mut results,
            );
            results
        }),
        TrieNode::Node(children) => {
            // Shard over top-level subtrees; the per-chunk group count is
            // derived from `chunk_rows` and the data alone (never from the
            // thread count), preserving the deterministic chunk layout.
            let subtrees: Vec<(&i64, &TrieNode)> = children.iter().collect();
            let total_rows = db.fact.len().max(1);
            let groups_per_chunk =
                (cfg.chunk_rows.max(1).saturating_mul(subtrees.len()) / total_rows).max(1);
            let group_cfg = cfg.with_chunk_rows(groups_per_chunk);
            run_chunked_sums(&group_cfg, subtrees.len(), nterms, |range: Range<usize>| {
                let mut results = vec![0.0; nterms];
                let mut hoisted: Vec<Option<&[f64]>> = vec![None; bounds.len()];
                let mut local = vec![0.0; kp.rowprogs.len().max(nterms)];
                for &(k, child) in &subtrees[range] {
                    enter_child(
                        k,
                        child,
                        0,
                        kp,
                        &bounds,
                        views,
                        &fact_access,
                        plan,
                        &mut hoisted,
                        &mut local,
                        &mut results,
                    );
                }
                results
            })
        }
    }
}

/// A merged view stored as a dense key-indexed array: row-major
/// `[key * width + payload]` plus a presence mask (the "Dictionary to
/// Array" layout; valid because the generators produce compact
/// non-negative integer keys).
#[derive(Clone, Debug)]
pub(crate) struct DenseView {
    pub(crate) width: usize,
    pub(crate) data: Vec<f64>,
    present: Vec<bool>,
}

impl DenseView {
    /// Base offset of `key`'s payload row, or `None` when absent.
    #[inline]
    pub(crate) fn base_of(&self, key: i64) -> Option<usize> {
        if key < 0 || key as usize >= self.present.len() || !self.present[key as usize] {
            None
        } else {
            Some(key as usize * self.width)
        }
    }
}

pub(crate) fn build_dense_view(b: &BoundDim) -> DenseView {
    let keys = b
        .dim
        .rel
        .column(b.view.key_attrs[0].as_str())
        .expect("dim key column")
        .as_i64()
        .expect("dim key");
    let max_key = keys.iter().copied().max().unwrap_or(0);
    assert!(max_key >= 0, "array layout requires non-negative keys");
    let width = b.view.payloads.len();
    let mut data = vec![0.0; (max_key as usize + 1) * width];
    let mut present = vec![false; max_key as usize + 1];
    for (j, &k) in keys.iter().enumerate() {
        present[k as usize] = true;
        for (pi, p) in b.view.payloads.iter().enumerate() {
            data[k as usize * width + pi] += payload_value(b.dim, p, j);
        }
    }
    DenseView {
        width,
        data,
        present,
    }
}

/// θ-free prepared state for the array executor: one dense key-indexed
/// view per dimension.
#[derive(Clone, Debug)]
pub struct ArrayPrep {
    views: Vec<DenseView>,
}

/// Builds the dense view of every dimension — the dimension-side half of
/// the sorted-trie state, split out so `exec` nodes can cache it
/// separately from the fact-derived sort order.
pub(crate) fn build_dense_views(plan: &ViewPlan, db: &StarDb) -> Vec<DenseView> {
    bind_dims(plan, db).iter().map(build_dense_view).collect()
}

/// Builds the dense view of every dimension.
pub fn prepare_array(plan: &ViewPlan, db: &StarDb) -> ArrayPrep {
    ArrayPrep {
        views: build_dense_views(plan, db),
    }
}

/// Fig. 7b "Dictionary to Array": merged views stored as dense
/// key-indexed arrays, removing hashing from the fact scan entirely. The
/// fact scan is sharded across row chunks.
pub fn exec_array_prepared(
    plan: &ViewPlan,
    db: &StarDb,
    prep: &ArrayPrep,
    cfg: &ExecConfig,
) -> Vec<f64> {
    let bounds = bind_dims(plan, db);
    let fact_access = FactAccess::bind(plan, db);
    let views = &prep.views;
    let n = db.fact.len();
    let nterms = plan.terms.len();
    run_chunked_sums(cfg, n, nterms, |range: Range<usize>| {
        let mut results = vec![0.0; nterms];
        let mut bases: Vec<usize> = vec![0; bounds.len()];
        'row: for i in range {
            for (d, (b, view)) in bounds.iter().zip(views).enumerate() {
                match view.base_of(b.fact_keys[i]) {
                    Some(base) => bases[d] = base,
                    None => continue 'row,
                }
            }
            for (t, term) in plan.terms.iter().enumerate() {
                let mut v = fact_access[t].eval(i);
                if v == 0.0 {
                    continue;
                }
                for (di, &pi) in term.dim_payload.iter().enumerate() {
                    v *= views[di].data[bases[di] + pi];
                }
                results[t] += v;
            }
        }
        results
    })
}

/// Preprocessed state for the sorted-trie executor: the fact table's row
/// order sorted lexicographically by the hoistable key-column prefix
/// (analogous to the paper's "relations are indexed by their join
/// attributes" setup).
#[derive(Debug)]
pub struct SortedStar {
    order: Vec<u32>,
    prefix_cols: Vec<ifaq_ir::Sym>,
}

/// Sorts the fact table by the level analysis' hoistable key columns.
pub(crate) fn build_sorted_from(kp: &KeyPlan, db: &StarDb) -> SortedStar {
    let key_cols: Vec<&[i64]> = kp
        .prefix
        .iter()
        .map(|(c, _)| {
            db.fact
                .column(c.as_str())
                .expect("key column")
                .as_i64()
                .expect("int key")
        })
        .collect();
    let mut order: Vec<u32> = (0..db.fact.len() as u32).collect();
    order.sort_by(|&a, &b| {
        for col in &key_cols {
            match col[a as usize].cmp(&col[b as usize]) {
                std::cmp::Ordering::Equal => continue,
                other => return other,
            }
        }
        a.cmp(&b)
    });
    SortedStar {
        order,
        prefix_cols: kp.prefix.iter().map(|(c, _)| c.clone()).collect(),
    }
}

/// Fig. 7b "Sorted Trie": scan the fact table in key order. Group
/// boundaries in the sorted prefix replace per-row hashing for the
/// low-cardinality dimensions — their payloads refresh only when the key
/// prefix changes and are factorized out of the per-group inner sums —
/// while the high-cardinality dimensions use dense position-indexed view
/// arrays. This composes the array layout with trie factorization, the
/// paper's final and fastest rung.
///
/// Sharded across chunks of the sorted row order. A key group straddling
/// a chunk boundary is flushed once per chunk; the two partial flushes
/// sum to the whole-group flush (the group-constant payload product
/// distributes over the split local sums), so chunking moves fp
/// association only within the documented tolerance and stays
/// deterministic for a fixed `chunk_rows`. The dense views and the level
/// analysis are prepared separately from the sort order, so the views
/// can be cached across fact deltas.
pub(crate) fn exec_sorted_parts(
    plan: &ViewPlan,
    db: &StarDb,
    sorted: &SortedStar,
    views: &[DenseView],
    kp: &KeyPlan,
    cfg: &ExecConfig,
) -> Vec<f64> {
    let bounds = bind_dims(plan, db);
    let fact_access = FactAccess::bind(plan, db);
    debug_assert_eq!(
        kp.prefix.iter().map(|(c, _)| c.clone()).collect::<Vec<_>>(),
        sorted.prefix_cols,
        "sorted order was built for a different plan"
    );
    let nterms = plan.terms.len();
    let prefix_key_cols: Vec<&[i64]> = kp
        .prefix
        .iter()
        .map(|(c, _)| {
            db.fact
                .column(c.as_str())
                .expect("key column")
                .as_i64()
                .expect("int key")
        })
        .collect();
    let prefix_dims: Vec<usize> = kp
        .prefix
        .iter()
        .flat_map(|(_, ds)| ds.iter().copied())
        .collect();

    run_chunked_sums(cfg, sorted.order.len(), nterms, |range: Range<usize>| {
        let mut results = vec![0.0; nterms];
        let mut local = vec![0.0; kp.rowprogs.len().max(nterms)];
        let mut sigval = vec![0.0; kp.sig_reps.len()];
        let mut current: Vec<i64> = vec![0; prefix_key_cols.len()];
        let mut bases: Vec<usize> = vec![usize::MAX; bounds.len()];
        // `current` holds no sentinel (any i64 is a legal key): `started`
        // marks whether the chunk has opened its first group yet. With no
        // hoistable prefix the whole chunk is one implicitly open group.
        let mut started = prefix_key_cols.is_empty();
        let mut group_ok = prefix_key_cols.is_empty();
        let mut group_live = prefix_key_cols.is_empty();

        let flush = |local: &mut [f64], bases: &[usize], results: &mut [f64]| {
            for (t, term) in plan.terms.iter().enumerate() {
                let mut v = local[kp.rowprog_of[t]];
                if v == 0.0 {
                    continue;
                }
                for &di in &prefix_dims {
                    v *= views[di].data[bases[di] + term.dim_payload[di]];
                }
                results[t] += v;
            }
            local.iter_mut().for_each(|v| *v = 0.0);
        };

        for &r in &sorted.order[range] {
            let i = r as usize;
            let changed = !started
                || prefix_key_cols
                    .iter()
                    .enumerate()
                    .any(|(l, col)| col[i] != current[l]);
            if changed {
                if group_live && group_ok {
                    flush(&mut local, &bases, &mut results);
                }
                started = true;
                local.iter_mut().for_each(|v| *v = 0.0);
                for (l, col) in prefix_key_cols.iter().enumerate() {
                    current[l] = col[i];
                }
                group_ok = true;
                for &di in &prefix_dims {
                    let k = bounds[di].fact_keys[i];
                    match views[di].base_of(k) {
                        Some(b) => bases[di] = b,
                        None => {
                            group_ok = false;
                            break;
                        }
                    }
                }
                group_live = true;
            }
            if !group_ok {
                continue;
            }
            // Per-row dense lookups for the high-cardinality dims.
            let mut row_ok = true;
            for &di in &kp.remainder {
                let k = bounds[di].fact_keys[i];
                match views[di].base_of(k) {
                    Some(b) => bases[di] = b,
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
                sigval[s] = fact_access[rep].eval(i);
            }
            for (rp, (sig, rem)) in kp.rowprogs.iter().enumerate() {
                let mut v = sigval[*sig];
                if v == 0.0 {
                    continue;
                }
                for (ri, &di) in kp.remainder.iter().enumerate() {
                    v *= views[di].data[bases[di] + rem[ri]];
                }
                local[rp] += v;
            }
        }
        if group_live && group_ok {
            flush(&mut local, &bases, &mut results);
        }
        results
    })
}

/// θ-free prepared state for the boxed-record executor: per-dimension
/// ordered dictionaries from boxed key records to boxed payload records.
#[derive(Clone, Debug)]
pub struct BoxedRecordsPrep {
    /// Payload field names, per payload index.
    fields: Vec<ifaq_ir::Sym>,
    views: Vec<Dict>,
}

/// Builds the boxed dictionary view of every dimension.
pub fn prepare_boxed_records(plan: &ViewPlan, db: &StarDb) -> BoxedRecordsPrep {
    let bounds = bind_dims(plan, db);
    // Payload field names, precomputed per payload index.
    let max_payloads = plan
        .dims
        .iter()
        .map(|d| d.payloads.len())
        .max()
        .unwrap_or(0);
    let fields: Vec<ifaq_ir::Sym> = (0..max_payloads)
        .map(|pi| ifaq_ir::Sym::new(format!("p{pi}")))
        .collect();
    // Views: Dict from {key_attr = k} records to records {p0 = …, p1 = …}.
    let views: Vec<Dict> = bounds
        .iter()
        .map(|b| {
            let keys = b
                .dim
                .rel
                .column(b.view.key_attrs[0].as_str())
                .expect("dim key column")
                .as_i64()
                .expect("dim key");
            let key_attr = b.view.key_attrs[0].clone();
            let mut view = Dict::new();
            for (j, &k) in keys.iter().enumerate() {
                let key = Value::record([(key_attr.clone(), Value::Int(k))]);
                let payload = Value::record(
                    b.view
                        .payloads
                        .iter()
                        .enumerate()
                        .map(|(pi, p)| {
                            (fields[pi].clone(), Value::real(payload_value(b.dim, p, j)))
                        })
                        .collect::<Vec<_>>(),
                );
                view.insert_add(key, payload).expect("payload add");
            }
            view
        })
        .collect();
    BoxedRecordsPrep { fields, views }
}

/// Fig. 7b "Optimized Aggregates Compiled to Scala": the merged-view
/// algorithm executed over boxed values — record keys and record payloads
/// in ordered dictionaries, accumulating through the generic ring
/// operations. This models a managed-runtime implementation. The fact
/// scan is sharded across row chunks: each chunk accumulates boxed values
/// and unboxes its partials at the chunk boundary; ring addition on reals
/// is `f64` addition, so the chunked reduction matches the boxed one
/// exactly.
pub fn exec_boxed_records_prepared(
    plan: &ViewPlan,
    db: &StarDb,
    prep: &BoxedRecordsPrep,
    cfg: &ExecConfig,
) -> Vec<f64> {
    let bounds = bind_dims(plan, db);
    let fact_access = FactAccess::bind(plan, db);
    let BoxedRecordsPrep { fields, views } = prep;
    let n = db.fact.len();
    let nterms = plan.terms.len();
    run_chunked_sums(cfg, n, nterms, |range: Range<usize>| {
        let mut results: Vec<Value> = vec![Value::real(0.0); nterms];
        'row: for i in range {
            let mut payload_recs: Vec<&Value> = Vec::with_capacity(bounds.len());
            for (b, view) in bounds.iter().zip(views) {
                let key =
                    Value::record([(b.view.key_attrs[0].clone(), Value::Int(b.fact_keys[i]))]);
                match view.get(&key) {
                    Some(p) => payload_recs.push(p),
                    None => continue 'row,
                }
            }
            for (t, term) in plan.terms.iter().enumerate() {
                let mut v = Value::real(fact_access[t].eval(i));
                for (di, &pi) in term.dim_payload.iter().enumerate() {
                    let pv = payload_recs[di]
                        .get_field(&fields[pi])
                        .expect("payload field");
                    v = v.mul(&pv).expect("boxed multiply");
                }
                results[t] = results[t].add(&v).expect("boxed add");
            }
        }
        results.iter().map(|v| v.as_f64().unwrap_or(0.0)).collect()
    })
}

/// θ-free prepared state for the record-removal executor: per-dimension
/// ordered dictionaries with boxed scalar keys and flat payload vectors.
#[derive(Clone, Debug)]
pub struct BoxedScalarsPrep {
    views: Vec<std::collections::BTreeMap<Value, Vec<f64>>>,
}

/// Builds the scalar-keyed view of every dimension.
pub fn prepare_boxed_scalars(plan: &ViewPlan, db: &StarDb) -> BoxedScalarsPrep {
    let bounds = bind_dims(plan, db);
    let views = bounds
        .iter()
        .map(|b| {
            let keys = b
                .dim
                .rel
                .column(b.view.key_attrs[0].as_str())
                .expect("dim key column")
                .as_i64()
                .expect("dim key");
            let mut view: std::collections::BTreeMap<Value, Vec<f64>> = Default::default();
            for (j, &k) in keys.iter().enumerate() {
                let entry = view
                    .entry(Value::Int(k))
                    .or_insert_with(|| vec![0.0; b.view.payloads.len()]);
                for (pi, p) in b.view.payloads.iter().enumerate() {
                    entry[pi] += payload_value(b.dim, p, j);
                }
            }
            view
        })
        .collect();
    BoxedScalarsPrep { views }
}

/// Fig. 7b "Record Removal": boxed dictionary keys remain, but the
/// single-field key records are replaced by their field (scalar
/// replacement) and payload records by flat `f64` vectors. The fact scan
/// is sharded across row chunks.
pub fn exec_boxed_scalars_prepared(
    plan: &ViewPlan,
    db: &StarDb,
    prep: &BoxedScalarsPrep,
    cfg: &ExecConfig,
) -> Vec<f64> {
    let bounds = bind_dims(plan, db);
    let fact_access = FactAccess::bind(plan, db);
    let views = &prep.views;
    let n = db.fact.len();
    let nterms = plan.terms.len();
    run_chunked_sums(cfg, n, nterms, |range: Range<usize>| {
        let mut results = vec![0.0; nterms];
        'row: for i in range {
            let mut payload_refs: Vec<&[f64]> = Vec::with_capacity(bounds.len());
            for (b, view) in bounds.iter().zip(views) {
                match view.get(&Value::Int(b.fact_keys[i])) {
                    Some(p) => payload_refs.push(p),
                    None => continue 'row,
                }
            }
            for (t, term) in plan.terms.iter().enumerate() {
                let mut v = fact_access[t].eval(i);
                if v == 0.0 {
                    continue;
                }
                for (di, &pi) in term.dim_payload.iter().enumerate() {
                    v *= payload_refs[di][pi];
                }
                results[t] += v;
            }
        }
        results
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{build_tree, Source};
    use crate::layout::Layout;
    use crate::star::running_example_star;
    use ifaq_query::batch::{covar_batch, variance_batch, AggBatch, PredOp};
    use ifaq_query::{JoinTree, Predicate, ViewPlan};

    /// Prepares and executes `layout`'s kernel over `db` through the
    /// executor tree.
    fn run_cfg(layout: Layout, plan: &ViewPlan, db: &StarDb, cfg: &ExecConfig) -> Vec<f64> {
        let mut tree = build_tree(plan, None, layout, cfg);
        tree.prepare(Source::Resident(db)).unwrap();
        tree.execute(Source::Resident(db)).unwrap()
    }

    /// [`run_cfg`] under the process-wide config.
    fn run(layout: Layout, plan: &ViewPlan, db: &StarDb) -> Vec<f64> {
        run_cfg(layout, plan, db, ExecConfig::global())
    }

    fn setup() -> (StarDb, ViewPlan, AggBatch) {
        let db = running_example_star();
        let cat = db.catalog();
        let tree = JoinTree::build(&cat, &["S", "R", "I"]).unwrap();
        let batch = covar_batch(&["city", "price"], "units");
        let plan = ViewPlan::plan(&batch, &tree, &cat).unwrap();
        (db, plan, batch)
    }

    /// Hand-computed covar entries for the running example. Join rows
    /// (units, city, price): (10,100,1.5) (5,200,1.5) (3,100,2.5)
    /// (8,200,3.5) (2,200,2.5).
    fn expected(plan: &ViewPlan, batch: &AggBatch) -> Vec<f64> {
        let rows: [(f64, f64, f64); 5] = [
            (10.0, 100.0, 1.5),
            (5.0, 200.0, 1.5),
            (3.0, 100.0, 2.5),
            (8.0, 200.0, 3.5),
            (2.0, 200.0, 2.5),
        ];
        let val = |name: &str, (u, c, p): (f64, f64, f64)| -> f64 {
            match name {
                "m_city_city" => c * c,
                "m_city_price" => c * p,
                "m_city_units" => c * u,
                "m_price_price" => p * p,
                "m_price_units" => p * u,
                "m_units_units" => u * u,
                "m_city" => c,
                "m_price" => p,
                "m_units" => u,
                "count" => 1.0,
                other => panic!("unexpected aggregate {other}"),
            }
        };
        // Term `t` computes the batch aggregate `plan.terms[t].agg`; look
        // its name up through the plan instead of assuming the batch's
        // construction order.
        plan.terms
            .iter()
            .map(|t| {
                let name = &batch.aggs[t.agg].name;
                rows.iter().map(|r| val(name, *r)).sum()
            })
            .collect()
    }

    fn assert_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= 1e-9 * (1.0 + x.abs().max(y.abs())),
                "term {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn materialized_matches_hand_computation() {
        let (db, plan, batch) = setup();
        assert_close(
            &run(Layout::Materialized, &plan, &db),
            &expected(&plan, &batch),
        );
    }

    #[test]
    fn all_engines_agree() {
        let (db, plan, batch) = setup();
        let want = expected(&plan, &batch);
        assert_close(&run(Layout::Pushdown, &plan, &db), &want);
        assert_close(&exec_merged(&plan, &db), &want);
        assert_close(&run(Layout::MergedHash, &plan, &db), &want);
        assert_close(&run(Layout::BoxedRecords, &plan, &db), &want);
        assert_close(&run(Layout::BoxedScalars, &plan, &db), &want);
        assert_close(&run(Layout::Array, &plan, &db), &want);
        assert_close(&run(Layout::Trie, &plan, &db), &want);
        assert_close(&run(Layout::SortedTrie, &plan, &db), &want);
    }

    #[test]
    fn term_values_follow_the_plan_after_batch_reordering() {
        // Regression for the old test helper, which assumed terms appear
        // in `covar_batch` construction order: reorder the batch and check
        // every engine's terms still line up with the names recovered
        // through `plan.terms[t].agg`.
        let db = running_example_star();
        let cat = db.catalog();
        let tree = JoinTree::build(&cat, &["S", "R", "I"]).unwrap();
        let mut batch = covar_batch(&["city", "price"], "units");
        batch.aggs.reverse();
        let plan = ViewPlan::plan(&batch, &tree, &cat).unwrap();
        assert_eq!(&batch.aggs[plan.terms[0].agg].name, "count");
        let want = expected(&plan, &batch);
        // `count` leads after the reversal: 5 joined rows.
        assert_eq!(want[0], 5.0);
        assert_close(&run(Layout::Materialized, &plan, &db), &want);
        assert_close(&run(Layout::MergedHash, &plan, &db), &want);
        assert_close(&run(Layout::Pushdown, &plan, &db), &want);
        assert_close(&run(Layout::Array, &plan, &db), &want);
        assert_close(&run(Layout::Trie, &plan, &db), &want);
        assert_close(&run(Layout::SortedTrie, &plan, &db), &want);
    }

    #[test]
    fn sharded_execution_is_thread_count_invariant() {
        // For a fixed chunk size every executor must return bit-identical
        // results at any thread count (chunk merge order is fixed).
        let (db, plan, _) = setup();
        for chunk in [1, 2, 1024] {
            let base = ExecConfig::with_threads(1).with_chunk_rows(chunk);
            for &layout in Layout::all() {
                let want = run_cfg(layout, &plan, &db, &base);
                for threads in [2, 3, 8] {
                    let cfg = ExecConfig::with_threads(threads).with_chunk_rows(chunk);
                    let got = run_cfg(layout, &plan, &db, &cfg);
                    assert_eq!(want, got, "{layout} at {threads} threads, chunk {chunk}");
                }
            }
        }
    }

    #[test]
    fn filtered_batch_respects_delta() {
        let (db, _, _) = setup();
        let cat = db.catalog();
        let tree = JoinTree::build(&cat, &["S", "R", "I"]).unwrap();
        // δ: price <= 2.0 — keeps rows with item 1 (price 1.5): units 10, 5.
        let delta = vec![Predicate::new("price", PredOp::Le, 2.0)];
        let batch = variance_batch("units", &delta);
        let plan = ViewPlan::plan(&batch, &tree, &cat).unwrap();
        let want = vec![100.0 + 25.0, 15.0, 2.0];
        assert_close(&run(Layout::MergedHash, &plan, &db), &want);
        assert_close(&run(Layout::Materialized, &plan, &db), &want);
        assert_close(&run(Layout::Pushdown, &plan, &db), &want);
        assert_close(&run(Layout::Trie, &plan, &db), &want);
        assert_close(&run(Layout::SortedTrie, &plan, &db), &want);
        assert_close(&run(Layout::Array, &plan, &db), &want);
    }

    #[test]
    fn fact_filter_on_fact_attr() {
        let (db, _, _) = setup();
        let cat = db.catalog();
        let tree = JoinTree::build(&cat, &["S", "R", "I"]).unwrap();
        let delta = vec![Predicate::new("units", PredOp::Gt, 4.0)];
        let batch = variance_batch("units", &delta);
        let plan = ViewPlan::plan(&batch, &tree, &cat).unwrap();
        // Rows with units > 4: 10, 5, 8.
        let want = vec![100.0 + 25.0 + 64.0, 23.0, 3.0];
        assert_close(&run(Layout::MergedHash, &plan, &db), &want);
        assert_close(&run(Layout::SortedTrie, &plan, &db), &want);
    }

    #[test]
    fn dangling_fact_keys_are_dropped_by_every_engine() {
        let (mut db, plan, _) = setup();
        // Append a fact row with a store key that has no dimension match.
        db.fact = ifaq_storage::ColRelation::new(
            "S",
            db.fact.attrs.clone(),
            vec![
                Column::I64(vec![1, 1, 2, 3, 2, 1]),
                Column::I64(vec![1, 2, 1, 2, 2, 99]),
                Column::F64(vec![10.0, 5.0, 3.0, 8.0, 2.0, 77.0]),
            ],
        );
        let want = run(Layout::Materialized, &plan, &db);
        assert_close(&run(Layout::MergedHash, &plan, &db), &want);
        assert_close(&run(Layout::Pushdown, &plan, &db), &want);
        assert_close(&run(Layout::Array, &plan, &db), &want);
        assert_close(&run(Layout::Trie, &plan, &db), &want);
        assert_close(&run(Layout::SortedTrie, &plan, &db), &want);
        assert_close(&run(Layout::BoxedRecords, &plan, &db), &want);
        assert_close(&run(Layout::BoxedScalars, &plan, &db), &want);
    }

    #[test]
    fn empty_fact_table() {
        let (db, plan, _) = setup();
        let db = db.take_fact(0);
        let want = vec![0.0; plan.terms.len()];
        assert_close(&run(Layout::MergedHash, &plan, &db), &want);
        assert_close(&run(Layout::Materialized, &plan, &db), &want);
        assert_close(&run(Layout::SortedTrie, &plan, &db), &want);
        // Parallel configs on an empty table are fine too (zero chunks).
        let cfg = ExecConfig::with_threads(4);
        assert_close(&run_cfg(Layout::MergedHash, &plan, &db, &cfg), &want);
    }
}
