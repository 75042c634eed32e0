//! The database: a set of relations with globally identified facts.

use crate::index::{Index, Indexes};
use crate::relation::{Relation, Schema, StoredFact};
use crate::value::Value;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Database-wide dense fact identifier.
///
/// Ids are assigned in insertion order (`0, 1, 2, …`), so they double as
/// Boolean-variable indices in provenance circuits.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct FactId(pub u32);

impl FactId {
    /// The id as a usize index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FactId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Location of a fact: relation index + row index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FactRef {
    pub relation: usize,
    pub row: usize,
}

/// A relational database `D = D_x ∪ D_n` (§2 of the paper).
///
/// The database also keeps the hash indexes queries probe
/// ([`Database::index`]), built on first use and shared by every
/// evaluation over it, on any thread. A clone starts with none.
#[derive(Default)]
pub struct Database {
    relations: Vec<Relation>,
    by_name: HashMap<String, usize>,
    /// `fact_index[id] = (relation, row)` for O(1) fact lookup.
    fact_index: Vec<FactRef>,
    /// `|D_n|`, kept by [`Database::insert`].
    endogenous: usize,
    indexes: Indexes,
}

impl Clone for Database {
    fn clone(&self) -> Database {
        Database {
            relations: self.relations.clone(),
            by_name: self.by_name.clone(),
            fact_index: self.fact_index.clone(),
            endogenous: self.endogenous,
            indexes: Indexes::default(),
        }
    }
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Creates a relation and returns its index. Panics on duplicate names.
    pub fn create_relation(&mut self, name: &str, columns: &[&str]) -> usize {
        assert!(
            !self.by_name.contains_key(name),
            "relation `{name}` already exists"
        );
        let idx = self.relations.len();
        self.relations
            .push(Relation::new(Schema::new(name, columns)));
        self.by_name.insert(name.to_string(), idx);
        idx
    }

    /// Inserts a fact and returns its id.
    ///
    /// `endogenous` marks the fact as a Shapley player (a member of `D_n`).
    /// Drops every index built on `relation`; the indexes of the other
    /// relations stay.
    pub fn insert(&mut self, relation: &str, values: Vec<Value>, endogenous: bool) -> FactId {
        let rel_idx = *self
            .by_name
            .get(relation)
            .unwrap_or_else(|| panic!("unknown relation `{relation}`"));
        let rel = &mut self.relations[rel_idx];
        assert_eq!(
            values.len(),
            rel.schema().arity(),
            "arity mismatch inserting into `{relation}`"
        );
        self.indexes.drop_relation(rel_idx);
        self.endogenous += usize::from(endogenous);
        let id = FactId(self.fact_index.len() as u32);
        self.fact_index.push(FactRef {
            relation: rel_idx,
            row: rel.len(),
        });
        rel.push(StoredFact {
            id,
            values: values.into_boxed_slice(),
            endogenous,
        });
        id
    }

    /// Convenience: insert an endogenous fact.
    pub fn insert_endo(&mut self, relation: &str, values: Vec<Value>) -> FactId {
        self.insert(relation, values, true)
    }

    /// Convenience: insert an exogenous fact.
    pub fn insert_exo(&mut self, relation: &str, values: Vec<Value>) -> FactId {
        self.insert(relation, values, false)
    }

    /// Bag semantics (§7 of the paper): inserts `multiplicity` distinguished
    /// copies of the same tuple and returns their ids.
    ///
    /// The paper observes that the framework works as-is on bag databases
    /// once copies of a tuple are differentiated ("for instance, adding an
    /// identifier attribute"); here the distinguishing identifier is the
    /// [`FactId`] itself. Each copy is an independent Shapley player, so
    /// interchangeable copies split the responsibility the single fact would
    /// have carried — e.g. two copies of the only fact deriving an answer
    /// get 1/2 each instead of 1.
    pub fn insert_copies(
        &mut self,
        relation: &str,
        values: Vec<Value>,
        multiplicity: usize,
        endogenous: bool,
    ) -> Vec<FactId> {
        assert!(multiplicity > 0, "multiplicity must be at least 1");
        (0..multiplicity)
            .map(|_| self.insert(relation, values.clone(), endogenous))
            .collect()
    }

    /// The relation with the given name.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.by_name.get(name).map(|&i| &self.relations[i])
    }

    /// The position in [`Database::relations`] of the relation with the
    /// given name.
    pub fn relation_id(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// All relations in creation order.
    pub fn relations(&self) -> &[Relation] {
        &self.relations
    }

    /// The hash index on relation number `relation` (its position in
    /// [`Database::relations`]) keyed by the columns of `cols`, a bitmask
    /// of positions: built on first use, then shared until an insert into
    /// that relation drops it. Each build counts one
    /// `query.indexes_built`; threads asking for an index under
    /// construction wait for it, so each is built once.
    pub fn index(&self, relation: usize, cols: u64) -> Arc<Index> {
        self.indexes.get(&self.relations[relation], relation, cols)
    }

    /// The column sets (bitmasks, ascending) of the indexes built on
    /// relation number `relation`.
    pub fn indexed_columns(&self, relation: usize) -> Vec<u64> {
        self.indexes.columns(relation)
    }

    /// Bytes the built indexes hold resident: their tables and row ids.
    pub fn index_bytes(&self) -> usize {
        self.indexes.bytes()
    }

    /// Total number of facts.
    pub fn num_facts(&self) -> usize {
        self.fact_index.len()
    }

    /// Number of endogenous facts `|D_n|`.
    pub fn num_endogenous(&self) -> usize {
        self.endogenous
    }

    /// Ids of all endogenous facts in id order.
    pub fn endogenous_facts(&self) -> Vec<FactId> {
        (0..self.fact_index.len() as u32)
            .map(FactId)
            .filter(|&id| self.is_endogenous(id))
            .collect()
    }

    /// Whether a fact is endogenous.
    pub fn is_endogenous(&self, id: FactId) -> bool {
        let r = self.fact_index[id.index()];
        self.relations[r.relation].facts()[r.row].endogenous
    }

    /// The stored fact for an id.
    pub fn fact(&self, id: FactId) -> &StoredFact {
        let r = self.fact_index[id.index()];
        &self.relations[r.relation].facts()[r.row]
    }

    /// The relation a fact belongs to.
    pub fn fact_relation(&self, id: FactId) -> &Relation {
        let r = self.fact_index[id.index()];
        &self.relations[r.relation]
    }

    /// Renders a fact as `Name(v1, …)` for explanations.
    pub fn display_fact(&self, id: FactId) -> String {
        let r = self.fact_index[id.index()];
        self.relations[r.relation].display_fact(r.row)
    }
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Database ({} facts):", self.num_facts())?;
        for rel in &self.relations {
            writeln!(f, "  {} [{} facts]", rel.schema(), rel.len())?;
        }
        Ok(())
    }
}

/// Builds the flights/airports database of the paper's running example
/// (Figure 1a): `Flights` facts `a1..a8` are endogenous, `Airports` facts
/// `b1..b8` are exogenous. Returns the database and the ids `[a1,…,a8]`.
pub fn flights_example() -> (Database, Vec<FactId>) {
    let mut db = Database::new();
    db.create_relation("Flights", &["src", "dest"]);
    db.create_relation("Airports", &["name", "country"]);
    let flights = [
        ("JFK", "CDG"), // a1
        ("EWR", "LHR"), // a2
        ("BOS", "LHR"), // a3
        ("LHR", "CDG"), // a4
        ("LHR", "ORY"), // a5
        ("LAX", "MUC"), // a6
        ("MUC", "ORY"), // a7
        ("LHR", "MUC"), // a8
    ];
    let a_ids: Vec<FactId> = flights
        .iter()
        .map(|(s, d)| db.insert_endo("Flights", vec![Value::str(s), Value::str(d)]))
        .collect();
    let airports = [
        ("JFK", "USA"),
        ("EWR", "USA"),
        ("BOS", "USA"),
        ("LAX", "USA"),
        ("LHR", "EN"),
        ("MUC", "GR"),
        ("ORY", "FR"),
        ("CDG", "FR"),
    ];
    for (n, c) in airports {
        db.insert_exo("Airports", vec![Value::str(n), Value::str(c)]);
    }
    (db, a_ids)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_lookup() {
        let mut db = Database::new();
        db.create_relation("R", &["a", "b"]);
        let f0 = db.insert_endo("R", vec![Value::int(1), Value::int(2)]);
        let f1 = db.insert_exo("R", vec![Value::int(3), Value::int(4)]);
        assert_eq!(f0, FactId(0));
        assert_eq!(f1, FactId(1));
        assert_eq!(db.num_facts(), 2);
        assert_eq!(db.num_endogenous(), 1);
        assert!(db.is_endogenous(f0));
        assert!(!db.is_endogenous(f1));
        assert_eq!(db.fact(f1).values[0], Value::int(3));
        assert_eq!(db.display_fact(f0), "R(1, 2)");
    }

    #[test]
    fn ids_are_dense_across_relations() {
        let mut db = Database::new();
        db.create_relation("R", &["a"]);
        db.create_relation("S", &["b"]);
        let r0 = db.insert_endo("R", vec![Value::int(1)]);
        let s0 = db.insert_endo("S", vec![Value::int(2)]);
        let r1 = db.insert_endo("R", vec![Value::int(3)]);
        assert_eq!((r0.index(), s0.index(), r1.index()), (0, 1, 2));
        assert_eq!(db.endogenous_facts(), vec![r0, s0, r1]);
        assert_eq!(db.fact_relation(s0).schema().name(), "S");
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_checked() {
        let mut db = Database::new();
        db.create_relation("R", &["a", "b"]);
        db.insert_endo("R", vec![Value::int(1)]);
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn duplicate_relation_rejected() {
        let mut db = Database::new();
        db.create_relation("R", &["a"]);
        db.create_relation("R", &["b"]);
    }

    #[test]
    fn flights_example_shape() {
        let (db, a_ids) = flights_example();
        assert_eq!(db.num_facts(), 16);
        assert_eq!(db.num_endogenous(), 8);
        assert_eq!(a_ids.len(), 8);
        assert_eq!(db.display_fact(a_ids[0]), "Flights(JFK, CDG)");
        assert_eq!(db.relation("Airports").unwrap().len(), 8);
    }
}
