//! Execution engines for IFAQ programs and aggregate batches.
//!
//! Two execution paths, mirroring the paper's measurement setup:
//!
//! * [`interp`] — a tree-walking interpreter for D-IFAQ/S-IFAQ expressions
//!   and programs over boxed [`ifaq_storage::Value`]s. This is the
//!   reference semantics: every optimization stage is validated by
//!   interpreting before/after expressions, and the Figure 6 high-level
//!   micro-benchmarks run on it.
//! * [`physical`] — specialized executors for aggregate batches over a
//!   star-schema columnar database ([`star::StarDb`]), one per rung of the
//!   paper's optimization ladders. Each runs as a layout node of the
//!   executor tree below, built by [`layout::prepare`] (or
//!   [`exec::build_tree`]) for a [`Layout`]:
//!
//!   | Layout node | Paper point |
//!   |-------------|-------------|
//!   | [`exec::MaterializedNode`] | baseline: materialize the join, then aggregate |
//!   | [`exec::PushdownNode`] | Fig. 7a "Pushed Down Aggregates" (one view set per aggregate, repeated scans) |
//!   | [`exec::BoxedRecordsNode`] | Fig. 7b "Optimized Aggregates Compiled to Scala" (boxed records in ordered dictionaries) |
//!   | [`exec::BoxedScalarsNode`] | Fig. 7b "Record Removal" (boxed keys, unboxed payload vectors) |
//!   | [`exec::MergedHashNode`] | Fig. 7a "Merged Views + Multi Aggregate" / Fig. 7b "Compilation to C++ and Mem Mgt" (native hash views, fused scan) |
//!   | [`exec::TrieNode`] | Fig. 7a "Dictionary to Trie" (factorized per-group lookups) |
//!   | [`exec::DenseArrayNode`] | Fig. 7b "Dictionary to Array" (dense key-indexed views) |
//!   | [`exec::SortedTrieNode`] | Fig. 7b "Sorted Trie" (sorted fact + merge-pointer view lookups) |
//!
//! All layouts compute the same batch results; cross-engine equivalence
//! is property-tested.
//!
//! ## The executor tree
//!
//! [`exec`] composes the physical kernels into trees of plan nodes
//! (`Aggregate` → per-layout join/view node → `Scan`), the uniform
//! prepare/execute architecture every higher layer routes through:
//! [`layout::prepare`]/[`layout::execute_with`] for resident execution,
//! [`stream`] for out-of-core, `ifaq_ml`'s trainers for model fitting,
//! and `ifaq_serve` for incremental maintenance (with a
//! [`exec::PrepCache`] reusing θ-free dimension-side state across
//! deltas). [`exec::explain_tree`] renders the tree a plan × layout
//! executes. See `ARCHITECTURE.md` at the repo root for the full map
//! from paper sections to these modules.
//!
//! ## Sharded execution
//!
//! The aggregate batch over `dom(Q)` is embarrassingly parallel per fact
//! row, so every executor shards its scan across threads according to an
//! [`ExecConfig`] (`threads` × `chunk_rows`), passed per call to
//! [`layout::execute_with`]. Callers without a config of their own use
//! the process-wide [`ExecConfig::global`], read once from
//! `IFAQ_THREADS` / `IFAQ_CHUNK_ROWS` — with neither set that is one
//! thread and one chunk, i.e. exactly the pre-sharding sequential
//! accumulation — so the whole test suite and every bench can be pushed
//! onto the sharded path from the environment. The sharding model, implemented in [`par`]:
//!
//! * the scan splits into fixed-size chunks of `chunk_rows` work items —
//!   a layout that depends **only** on the data size and `chunk_rows`,
//!   never on the thread count;
//! * each chunk computes an independent partial-sum vector (views and
//!   other preprocessing are built once, shared read-only);
//! * partials merge by addition in ascending chunk order on the calling
//!   thread.
//!
//! **Determinism guarantee:** for a fixed `chunk_rows`, results are
//! bit-identical across thread counts and across runs; `threads = 1` runs
//! the very same chunked loop (no separate sequential fork). Changing
//! `chunk_rows` re-associates the floating-point reduction and may move
//! results within ~1e-9 relative tolerance. `tests/parallel_equivalence.rs`
//! at the repo root checks every executor × {1, 2, 3, 8} threads for exact
//! agreement with the sequential baseline.
//!
//! **Picking `chunk_rows`:** leave the default (2 Ki rows) unless chunks
//! are scarcer than threads on your workload; see [`par`] for the
//! trade-off.
//!
//! ## Out-of-core streaming
//!
//! [`stream`] executes the same prepared batches over an on-disk
//! `IFAQTBL1` star export with dimensions resident and the fact table
//! flowing through a bounded chunk buffer — the same fixed-chunk layout
//! as the sharded scan, so streamed results are bit-identical to the
//! in-memory path at any thread count.

pub mod exec;
pub mod interp;
pub mod layout;
pub mod par;
pub mod physical;
pub mod star;
pub mod stream;

pub use exec::{build_tree, explain_tree, ExecutionState, Executor, PlanTree, PrepCache, Source};
pub use interp::{eval_expr, eval_program, stable_sigmoid, Env, Interpreter};
pub use layout::Layout;
pub use par::ExecConfig;
pub use star::{Dim, JoinIndex, StarDb, TrainMatrix};
pub use stream::{execute_streaming, prepare_streaming, StreamPrep, StreamSource, StreamStats};
