//! # shapdb-kc — knowledge compilation to d-DNNF
//!
//! The paper's exact algorithm (§4) runs on *deterministic and decomposable*
//! Boolean circuits. Its implementation compiles the Tseytin CNF of the
//! endogenous lineage into a d-DNNF with the external `c2d` compiler and
//! projects the gate variables away (Lemma 4.6); this crate plays that role
//! from scratch, and adds a shorter route for the monotone DNF lineages
//! every UCQ answer has:
//!
//! * [`compile_negation`] — the engines' KC route: the negation of a
//!   monotone DNF `F = ⋁ₜ ⋀_{x∈t} x` is already a CNF over the facts alone,
//!   `¬F = ⋀ₜ ⋁_{x∈t} ¬x`, so it compiles with no Tseytin auxiliaries and no
//!   projection; the caller negates the values (`φ_f(F) = −φ_f(¬F)` for
//!   every measure linear in the game);
//! * [`Ddnnf`] — the compiled representation (NNF arena with decision-∨
//!   nodes), with model counting, weighted model counting (probability), and
//!   structural verification;
//! * [`compile()`](compile()) — the one CNF → d-DNNF compiler, top-down in
//!   the sharpSAT/GANAK style (unit propagation, dynamic component
//!   decomposition, VSADS branching over conflict activity, component
//!   caching by canonical residual-component encoding), with cooperative
//!   deadline / node budgets so the hybrid engine (§6.3) can time out;
//!   [`compile_topdown_shared`] runs it against a [`ComponentCache`] that
//!   is **shared across lineages**;
//! * [`project()`](project()) — the auxiliary-variable elimination of Lemma 4.6, turning a
//!   d-DNNF over `vars(C') ∪ Z` into one over `vars(C')` only;
//! * [`compile_circuit_topdown()`](compile_circuit_topdown) — the paper's
//!   full middle path of Figure 3 (circuit → Tseytin → compile → project),
//!   kept for circuits that are not monotone DNFs (signed negation
//!   lineages), CNF Proxy's clause view, and the oracles the negation route
//!   is tested against.
//!
//! The compiler deliberately does **not** use the pure-literal rule: it
//! preserves satisfiability but not equivalence, and knowledge compilation
//! needs equivalence (all of model counting would silently break).

pub mod compile;
pub mod compile_topdown;
pub mod ddnnf;
pub mod negation;
pub mod project;
mod scratch;
#[cfg(test)]
mod smooth;

pub use compile::{compile, Budget, CircuitCompilation, CompileError, CompileStats};
pub use compile_topdown::{
    compile_circuit_topdown, compile_topdown_shared, ComponentCache, ComponentCacheStats,
};
pub use ddnnf::{DNode, Ddnnf, DdnnfBuilder, NodeIdx};
pub use negation::{compile_negation, NegationCompilation};
pub use project::project;
