//! # shapdb-kc — knowledge compilation to d-DNNF
//!
//! The paper's exact algorithm (§4) runs on *deterministic and decomposable*
//! Boolean circuits. Its implementation compiles the Tseytin CNF of the
//! endogenous lineage into a d-DNNF with the external `c2d` compiler; this
//! crate plays that role from scratch:
//!
//! * [`Ddnnf`] — the compiled representation (NNF arena with decision-∨
//!   nodes), with model counting, weighted model counting (probability), and
//!   structural verification;
//! * [`compile()`](compile()) — an exhaustive-DPLL compiler (unit propagation, connected-
//!   component decomposition, component caching, branching) with cooperative
//!   deadline / node budgets so the hybrid engine (§6.3) can time out;
//! * [`project()`](project()) — the auxiliary-variable elimination of Lemma 4.6, turning a
//!   d-DNNF over `vars(C') ∪ Z` into one over `vars(C')` only;
//! * [`compile_circuit()`](compile_circuit) — the full middle path of Figure 3
//!   (circuit → Tseytin → compile → project);
//! * [`compile_topdown()`](compile_topdown()) — the sharpSAT/GANAK-style
//!   top-down compiler for wide non-read-once lineages, with VSADS
//!   branching over conflict activity and a [`ComponentCache`] keyed by the
//!   canonical residual-component encoding that can be **shared across
//!   lineages** ([`compile_topdown_shared`], [`compile_circuit_topdown`]).
//!
//! The compilers deliberately do **not** use the pure-literal rule: it
//! preserves satisfiability but not equivalence, and knowledge compilation
//! needs equivalence (all of model counting would silently break).

pub mod compile;
pub mod compile_topdown;
pub mod ddnnf;
pub mod project;
mod scratch;
#[cfg(test)]
mod smooth;

pub use compile::{
    compile, compile_circuit, compile_with, BranchHeuristic, Budget, CircuitCompilation,
    CompileError, CompileStats,
};
pub use compile_topdown::{
    compile_circuit_topdown, compile_topdown, compile_topdown_shared, ComponentCache,
    ComponentCacheStats,
};
pub use ddnnf::{DNode, Ddnnf, DdnnfBuilder, NodeIdx};
pub use project::project;
