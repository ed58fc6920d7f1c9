//! Core intermediate representation for the IFAQ compiler.
//!
//! This crate defines the IFAQ core language of the CGO 2020 paper
//! *"Multi-layer Optimizations for End-to-End Data Analytics"* (Figure 2):
//! a small functional language with ring arithmetic, summation over
//! collections (`Σ`), dictionary comprehension (`λ`), records, variants,
//! sets and dictionaries, together with the machinery every compiler layer
//! needs:
//!
//! * [`expr::Expr`] / [`expr::Program`] — the abstract syntax shared by the
//!   dynamically-typed dialect (D-IFAQ) and the statically-typed dialect
//!   (S-IFAQ). The dialects differ only in the typing discipline, which is
//!   enforced by [`types::TypeChecker`].
//! * [`sym::Sym`] — identifiers (a shared `Arc<str>` compared by
//!   content), plus a `gensym` facility used by capture-avoiding
//!   substitution.
//! * [`vars`] — free variables and capture-avoiding substitution.
//! * [`rewrite`] — a rule-based rewriting framework with bottom-up /
//!   top-down fixpoint drivers and per-rule firing traces. All optimization
//!   layers of the paper (Figure 4) are expressed as [`rewrite::Rule`]s.
//! * [`schema`] — relation schemas and a catalog with cardinality
//!   statistics, consumed by loop scheduling and join-tree construction.
//! * [`parser`] — a recursive-descent parser for a textual surface syntax,
//!   convenient for tests and examples.
//! * [`pretty`] — a pretty-printer; `Display` for [`expr::Expr`] renders
//!   the surface syntax accepted by the parser (round-trip tested).
//! * [`cost`] — static cardinality/cost estimation used by the loop
//!   scheduling optimization (§4.1 of the paper).
//! * [`analysis`] — binding-time / θ-dependence analysis: the one shared
//!   definition of "safe to hoist/memoize/prepare" consumed by the
//!   optimizer and the engine's prepare/execute split.
//! * [`verify`] — phase-gated well-formedness and scope/type-preservation
//!   checking, run after every rewrite phase under `IFAQ_VERIFY`.

pub mod analysis;
pub mod cost;
pub mod expr;
pub mod parser;
pub mod pretty;
pub mod rewrite;
pub mod schema;
pub mod sym;
pub mod types;
pub mod vars;
pub mod verify;

pub use analysis::{BindingTime, ThetaAnalysis};
pub use expr::{BinOp, CmpOp, Const, Expr, Program, UnOp, R};
pub use schema::{Attribute, Catalog, RelSchema, ScalarType};
pub use sym::Sym;
pub use types::{Type, TypeChecker, TypeError};
pub use verify::{Gate, Verifier, VerifyError, VerifyLevel};
