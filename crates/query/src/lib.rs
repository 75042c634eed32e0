//! # shapdb-query — SPJU queries with Boolean provenance
//!
//! The paper's pipeline obtains, for every output tuple `t̄` of a query
//! `q(x̄)`, the Boolean lineage `Lin(q[x̄/t̄], D)` — a Boolean function over
//! the facts of `D` that maps each sub-database to the query's answer
//! (Imielinski–Lipski provenance, §4). ProvSQL plays that role in the paper;
//! this crate plays it here:
//!
//! * [`ast`] — unions of conjunctive queries (≡ SPJU / relational algebra
//!   `σπ⋈∪`, as recalled in §2) with comparison predicates, built through
//!   [`CqBuilder`] or parsed from a Datalog-style text syntax ([`parse_ucq`]);
//! * [`eval`] — a join evaluator that plans each disjunct once by estimated
//!   cost, probes the hash indexes the database keeps (built on first use,
//!   shared by every call over it), enumerates derivations and returns, per
//!   output tuple in ascending tuple order, the monotone DNF lineage over
//!   fact ids (self-joins supported);
//! * [`hierarchical`] — the syntactic *hierarchical* test for self-join-free
//!   CQs, the tractability frontier of both PQE and Shapley computation for
//!   that class (§3);
//! * [`negation`] — CQs with safe negated atoms (the paper's §7 extension):
//!   evaluation producing *signed* lineages over fact literals;
//! * [`stream`] — per-answer streaming extraction: [`LineageStream`] yields
//!   one answer's canonical minimized lineage at a time (bit-identical to
//!   [`evaluate`]'s), full or endogenous ([`LineageKind`]);
//!   [`with_channeled_lineages`] pushes it through a bounded channel so peak
//!   provenance memory is governed by the chunk size, not the answer count,
//!   and [`with_inline_lineages`] pulls it on the caller's thread.

pub mod ast;
pub mod eval;
pub mod hierarchical;
pub mod negation;
pub mod parser;
pub mod stream;

pub use ast::{
    Atom, CmpOp, ConjunctiveQuery, CqBuilder, Predicate, Term, Ucq, Variable, MAX_ATOM_TERMS,
};
pub use eval::{evaluate, evaluate_cq, evaluate_with, LineageKind, OutputTuple, QueryResult};
pub use hierarchical::{is_hierarchical, is_self_join_free};
pub use negation::{evaluate_negated, NegatedQuery, SignedOutputTuple};
pub use parser::{parse_ucq, ParseError};
pub use stream::{
    with_channeled_lineages, with_inline_lineages, with_streamed_lineages, LineageStream,
    StreamStats,
};
