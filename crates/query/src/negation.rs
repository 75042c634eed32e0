//! Conjunctive queries with safe negated atoms (set difference).
//!
//! §7 of the paper lists negation as the natural next construct to support;
//! Reshef, Kimelfeld and Livshits (PODS 2020) study its complexity for
//! Shapley values. This module implements the *safe* (range-restricted)
//! fragment: every variable of a negated atom must also appear in a positive
//! atom, so each negated atom is ground once the positive join fixes the
//! binding. Relational-algebra difference `R − S` is the canonical special
//! case.
//!
//! Provenance: a derivation now asserts the presence of the facts its
//! positive atoms join *and the absence* of each existing fact a negated
//! atom matches — a conjunct of literals ([`LiteralDnf`]). A negated atom
//! that matches *no* database fact is vacuously true and contributes
//! nothing. Shapley values over such lineages can be negative: a fact whose
//! presence suppresses an answer carries negative responsibility for it.

use crate::ast::{Atom, ConjunctiveQuery, Term};
use crate::eval::{Answers, Emit, Evaluator};
use shapdb_circuit::{Lit, LiteralDnf};
use shapdb_data::{Database, FactId, Value};
use std::fmt;

/// A conjunctive query with negated atoms: `q(x̄) :- A₁, …, A_m, ¬B₁, …, ¬B_k`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NegatedQuery {
    /// The positive part (atoms, predicates, head).
    pub positive: ConjunctiveQuery,
    /// The negated atoms; all their variables must occur in positive atoms.
    pub negated: Vec<Atom>,
}

impl NegatedQuery {
    /// Builds a negated query; panics if a negated atom uses a variable that
    /// no positive atom binds (the classical safety condition).
    pub fn new(positive: ConjunctiveQuery, negated: Vec<Atom>) -> NegatedQuery {
        let q = NegatedQuery { positive, negated };
        assert!(q.is_safe(), "negated atom uses an unbound variable: {q}");
        q
    }

    /// True iff every variable of every negated atom appears in a positive
    /// atom.
    pub fn is_safe(&self) -> bool {
        self.negated.iter().all(|neg| {
            neg.terms.iter().all(|t| match t {
                Term::Const(_) => true,
                Term::Var(v) => self.positive.atoms.iter().any(|a| {
                    a.terms
                        .iter()
                        .any(|pt| matches!(pt, Term::Var(pv) if pv == v))
                }),
            })
        })
    }
}

impl fmt::Display for NegatedQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.positive)?;
        for neg in &self.negated {
            write!(f, ", ¬{}(", neg.relation)?;
            for (i, t) in neg.terms.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                match t {
                    Term::Var(v) => write!(
                        f,
                        "{}",
                        self.positive
                            .var_names
                            .get(v.index())
                            .cloned()
                            .unwrap_or_else(|| format!("v{}", v.0))
                    )?,
                    Term::Const(c) => write!(f, "{c:?}")?,
                }
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// One output tuple of a negated query, with its signed lineage.
#[derive(Clone, Debug)]
pub struct SignedOutputTuple {
    /// The head values (empty for Boolean queries).
    pub tuple: Vec<Value>,
    /// DNF over fact literals: one conjunct per derivation.
    pub lineage: LiteralDnf,
}

impl SignedOutputTuple {
    /// The *endogenous* signed lineage: exogenous facts are always present,
    /// so their positive literals are dropped and any conjunct demanding
    /// their absence is unsatisfiable and removed.
    pub fn endo_lineage(&self, db: &Database) -> LiteralDnf {
        let mut out = LiteralDnf::new();
        'conj: for conj in self.lineage.conjuncts() {
            let mut lits = Vec::with_capacity(conj.len());
            for l in conj {
                let exo = !db.is_endogenous(FactId(l.var() as u32));
                match (exo, l.is_positive()) {
                    (true, true) => {}               // ⊤: drop the literal
                    (true, false) => continue 'conj, // ⊥: drop the conjunct
                    (false, _) => lits.push(*l),
                }
            }
            out.add_conjunct(lits);
        }
        out.minimize();
        out
    }
}

/// Evaluates a negated query, returning every output tuple with its signed
/// DNF lineage, in ascending head-tuple order. A derivation asserts the
/// absence of every fact matching a negated atom, copies included.
pub fn evaluate_negated(q: &NegatedQuery, db: &Database) -> Vec<SignedOutputTuple> {
    let evaluator = Evaluator::new(db);
    let lookups: Vec<_> = q
        .negated
        .iter()
        .map(|neg| evaluator.exact_index(neg))
        .collect();
    let plan = evaluator.plan(&q.positive);
    let mut answers = Answers::default();
    let mut ground: Vec<&Value> = Vec::new();
    let seed = vec![None; q.positive.num_vars()];
    evaluator.run(&plan, seed, Emit::Facts, |binding, used| {
        let mut lits: Vec<Lit> = used.iter().map(|f| Lit::pos(f.index())).collect();
        for (neg, lookup) in q.negated.iter().zip(&lookups) {
            // No matching fact: the negated atom holds vacuously.
            let Some(lookup) = lookup else { continue };
            ground.clear();
            ground.extend(neg.terms.iter().map(|t| match t {
                Term::Const(c) => c,
                Term::Var(v) => binding[v.index()].expect("safe negation"),
            }));
            lits.extend(
                evaluator
                    .matching(lookup, &ground)
                    .map(|f| Lit::neg(f.index())),
            );
        }
        lits.sort_unstable();
        answers.add(&q.positive.head, binding, lits);
    });

    answers
        .sorted()
        .into_iter()
        .map(|(tuple, mut derivations)| {
            // Enumeration order follows the plan; sorted conjuncts do not.
            derivations.sort_unstable();
            let mut lineage = LiteralDnf::new();
            for lits in derivations {
                lineage.add_conjunct(lits);
            }
            lineage.minimize();
            SignedOutputTuple { tuple, lineage }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::CqBuilder;
    use shapdb_num::Bitset;

    /// R(1), R(2) endo; S(1) endo. q() :- R(x), ¬S(x).
    fn difference_setup() -> (Database, NegatedQuery, FactId, FactId, FactId) {
        let mut db = Database::new();
        db.create_relation("R", &["a"]);
        db.create_relation("S", &["a"]);
        let r1 = db.insert_endo("R", vec![Value::int(1)]);
        let r2 = db.insert_endo("R", vec![Value::int(2)]);
        let s1 = db.insert_endo("S", vec![Value::int(1)]);
        let mut b = CqBuilder::new();
        let x = b.var("x");
        b.atom("R", [x.into()]);
        let pos = b.build();
        let q = NegatedQuery::new(
            pos,
            vec![Atom {
                relation: "S".into(),
                terms: vec![Term::Var(x)],
            }],
        );
        (db, q, r1, r2, s1)
    }

    #[test]
    fn difference_lineage() {
        let (db, q, r1, r2, s1) = difference_setup();
        let out = evaluate_negated(&q, &db);
        assert_eq!(out.len(), 1, "Boolean query");
        // Lineage: (r1 ∧ ¬s1) ∨ r2.
        let lin = &out[0].lineage;
        assert_eq!(lin.len(), 2);
        let mut world = Bitset::new(3);
        world.insert(r1.index());
        assert!(lin.eval_set(&world)); // {R(1)}: answer holds
        world.insert(s1.index());
        assert!(!lin.eval_set(&world)); // {R(1),S(1)}: suppressed
        world.insert(r2.index());
        assert!(lin.eval_set(&world)); // R(2) restores it
    }

    #[test]
    fn vacuous_negation_contributes_nothing() {
        let mut db = Database::new();
        db.create_relation("R", &["a"]);
        db.create_relation("S", &["a"]);
        db.insert_endo("R", vec![Value::int(7)]);
        let mut b = CqBuilder::new();
        let x = b.var("x");
        b.atom("R", [x.into()]);
        let pos = b.build();
        let q = NegatedQuery::new(
            pos,
            vec![Atom {
                relation: "S".into(),
                terms: vec![Term::Var(x)],
            }],
        );
        let out = evaluate_negated(&q, &db);
        // S has no matching fact: lineage is just r.
        assert_eq!(out[0].lineage.len(), 1);
        assert_eq!(out[0].lineage.conjuncts()[0].len(), 1);
        assert!(out[0].lineage.is_monotone());
    }

    #[test]
    fn missing_negated_relation_is_vacuous() {
        let mut db = Database::new();
        db.create_relation("R", &["a"]);
        db.insert_endo("R", vec![Value::int(1)]);
        let mut b = CqBuilder::new();
        let x = b.var("x");
        b.atom("R", [x.into()]);
        let pos = b.build();
        let q = NegatedQuery::new(
            pos,
            vec![Atom {
                relation: "NoSuch".into(),
                terms: vec![Term::Var(x)],
            }],
        );
        let out = evaluate_negated(&q, &db);
        assert_eq!(out.len(), 1);
        assert!(out[0].lineage.is_monotone());
    }

    #[test]
    fn exogenous_negated_fact_kills_conjunct() {
        let mut db = Database::new();
        db.create_relation("R", &["a"]);
        db.create_relation("S", &["a"]);
        let _r1 = db.insert_endo("R", vec![Value::int(1)]);
        let r2 = db.insert_endo("R", vec![Value::int(2)]);
        db.insert_exo("S", vec![Value::int(1)]); // S(1) is always there
        let mut b = CqBuilder::new();
        let x = b.var("x");
        b.atom("R", [x.into()]);
        let pos = b.build();
        let q = NegatedQuery::new(
            pos,
            vec![Atom {
                relation: "S".into(),
                terms: vec![Term::Var(x)],
            }],
        );
        let out = evaluate_negated(&q, &db);
        let endo = out[0].endo_lineage(&db);
        // The r1 ∧ ¬S(1) derivation is impossible; only r2 remains.
        assert_eq!(endo.len(), 1);
        assert_eq!(endo.conjuncts()[0], vec![Lit::pos(r2.index())]);
    }

    #[test]
    fn every_copy_of_a_negated_fact_must_be_absent() {
        // Bag semantics: S(1) twice. R(1) ∧ ¬S(1) needs both copies gone.
        let mut db = Database::new();
        db.create_relation("R", &["a"]);
        db.create_relation("S", &["a"]);
        let r1 = db.insert_endo("R", vec![Value::int(1)]);
        let copies = db.insert_copies("S", vec![Value::int(1)], 2, true);
        let mut b = CqBuilder::new();
        let x = b.var("x");
        b.atom("R", [x.into()]);
        let pos = b.build();
        let q = NegatedQuery::new(
            pos,
            vec![Atom {
                relation: "S".into(),
                terms: vec![Term::Var(x)],
            }],
        );
        let out = evaluate_negated(&q, &db);
        let want = vec![
            Lit::pos(r1.index()),
            Lit::neg(copies[0].index()),
            Lit::neg(copies[1].index()),
        ];
        assert_eq!(out[0].lineage.conjuncts(), &[want]);
    }

    #[test]
    fn non_boolean_heads_group_by_tuple() {
        let mut db = Database::new();
        db.create_relation("R", &["a", "b"]);
        db.create_relation("S", &["a"]);
        db.insert_endo("R", vec![Value::int(1), Value::int(10)]);
        db.insert_endo("R", vec![Value::int(2), Value::int(10)]);
        db.insert_endo("S", vec![Value::int(1)]);
        let mut b = CqBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        b.atom("R", [x.into(), y.into()]);
        b.head([y.into()]);
        let pos = b.build();
        let q = NegatedQuery::new(
            pos,
            vec![Atom {
                relation: "S".into(),
                terms: vec![Term::Var(x)],
            }],
        );
        let out = evaluate_negated(&q, &db);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].tuple, vec![Value::int(10)]);
        assert_eq!(out[0].lineage.len(), 2); // two derivations for y=10
    }

    #[test]
    #[should_panic(expected = "unbound variable")]
    fn unsafe_negation_rejected() {
        let mut b = CqBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        b.atom("R", [x.into()]);
        let pos = b.build();
        NegatedQuery::new(
            pos,
            vec![Atom {
                relation: "S".into(),
                terms: vec![Term::Var(y)],
            }],
        );
    }

    #[test]
    fn display_renders_negated_atoms() {
        let (_, q, _, _, _) = difference_setup();
        assert_eq!(q.to_string(), "q() :- R(x), ¬S(x)");
    }
}
