//! # shapdb-circuit — Boolean circuits, lineage, CNF/DNF, Tseytin
//!
//! The paper's pipeline (Figure 3) manipulates the *lineage* `Lin(q[x̄/t̄], D)`
//! of a query answer as a Boolean circuit whose variables are database facts,
//! restricts exogenous facts to ⊤ to obtain the *endogenous lineage*
//! `ELin(q[x̄/t̄], D_x, D_n)`, and converts it to CNF via the Tseytin
//! transformation before knowledge compilation. This crate provides all of
//! those representations and conversions:
//!
//! * [`Circuit`] — an arena-allocated, hash-consed DAG of `∧/∨/¬/var/const`
//!   gates with evaluation, partial evaluation (restriction), variable-set
//!   computation and statistics;
//! * [`Cnf`] / [`Clause`] / [`Lit`] — clausal formulas with evaluation and
//!   well-formedness checks;
//! * [`Dnf`] — monotone disjunctive normal form used to render lineages the
//!   way the paper prints them (Figure 1d);
//! * [`tseytin()`](tseytin()) — the circuit → CNF transformation with the
//!   exactly-one-extension property the projection step (Lemma 4.6) relies
//!   on, including bookkeeping of which CNF variables are circuit inputs and
//!   which are auxiliary;
//! * [`readonce`] — read-once factorization of monotone DNF lineages
//!   (Golumbic–Mintz–Rotics co-occurrence decomposition), the fast path that
//!   sidesteps knowledge compilation entirely when the lineage factors;
//! * [`mod@fingerprint`] — canonical structural fingerprints of lineages (equal
//!   up to fact renaming ⇒ equal key), the interning key the engine layer's
//!   batch executor dedups on.

pub mod circuit;
pub mod cnf;
pub mod dnf;
pub mod fingerprint;
pub mod literal_dnf;
pub mod readonce;
pub mod tseytin;

pub use circuit::{Circuit, Gate, NodeId, VarId};
pub use cnf::{Clause, Cnf, Lit};
pub use dnf::Dnf;
pub use fingerprint::{fingerprint, fingerprint_minimized, Fingerprint, FingerprintKey};
pub use literal_dnf::LiteralDnf;
pub use readonce::{factor, factor_minimized, ReadOnce};
pub use tseytin::{tseytin, TseytinCnf};
