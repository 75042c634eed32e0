//! # shapdb-data — relational storage substrate
//!
//! The paper computes Shapley values of *facts* of a relational database
//! (§2): a database is a finite set of facts `R(a₁,…,a_k)`, partitioned into
//! *endogenous* facts (the players whose contribution we measure) and
//! *exogenous* facts (taken as given). This crate provides that substrate —
//! the role PostgreSQL plays in the paper's implementation (Figure 3):
//!
//! * [`Value`] — constants (integers and interned strings),
//! * [`Schema`] / [`Relation`] — named relations with fixed arity,
//! * [`Database`] — a set of relations whose facts carry stable [`FactId`]s
//!   and an endogenous/exogenous flag, with the hash [`Index`]es queries
//!   probe, built once per database.
//!
//! [`FactId`]s are dense (`0..database.num_facts()`), which lets the
//! provenance machinery map facts directly to Boolean variables.

pub mod database;
pub mod index;
pub mod relation;
pub mod value;

pub use database::{flights_example, Database, FactId, FactRef};
pub use index::Index;
pub use relation::{Relation, Schema, StoredFact};
pub use value::Value;
