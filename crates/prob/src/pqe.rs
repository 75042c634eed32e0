//! Probabilistic query evaluation (`PQE`) three ways.
//!
//! * [`pqe_bruteforce`] — exact by enumerating sub-databases restricted to
//!   the lineage's facts (a test oracle, exponential);
//! * [`pqe_ddnnf`] / [`pqe_ddnnf_rational`] — the intensional method: weighted
//!   model counting over a compiled d-DNNF (linear in the circuit), float and
//!   exact variants;
//! * [`pqe_via_compilation`] — end-to-end: lineage → Tseytin → compile →
//!   project → exact WMC, the oracle used by the Proposition 3.1 reduction.

use crate::tid::Tid;
use shapdb_circuit::{Circuit, VarId};
use shapdb_data::{Database, FactId};
use shapdb_kc::{compile_circuit_topdown, Budget, CompileError, Ddnnf};
use shapdb_num::{Bitset, Rational};
use shapdb_query::{evaluate, Ucq};

/// Exact `Pr(q, (D, π))` by enumerating truth assignments of the lineage's
/// facts (facts outside the lineage marginalize out). Panics above 24
/// lineage facts — this is a test oracle.
pub fn pqe_bruteforce(q: &Ucq, db: &Database, tid: &Tid) -> Rational {
    assert!(q.is_boolean(), "PQE is defined for Boolean queries");
    let res = evaluate(q, db);
    let Some(out) = res.outputs.first() else {
        return Rational::zero(); // no derivation on the full database
    };
    let vars = out.lineage.vars();
    assert!(
        vars.len() <= 24,
        "brute-force PQE limited to 24 lineage facts"
    );
    let one = Rational::one();
    let cap = vars.iter().map(|v| v.index() + 1).max().unwrap_or(1);
    let mut total = Rational::zero();
    for mask in 0u64..(1 << vars.len()) {
        let mut set = Bitset::new(cap);
        let mut weight = Rational::one();
        for (i, v) in vars.iter().enumerate() {
            let p = tid.prob(FactId(v.0));
            if mask >> i & 1 == 1 {
                set.insert(v.index());
                weight = &weight * p;
            } else {
                weight = &weight * &(&one - p);
            }
            if weight.is_zero() {
                break;
            }
        }
        if weight.is_zero() || !out.lineage.eval_set(&set) {
            continue;
        }
        total += &weight;
    }
    total
}

/// `Pr(q)` from a compiled d-DNNF whose variable `i` is the fact
/// `fact_vars[i]`, in `f64`.
pub fn pqe_ddnnf(ddnnf: &Ddnnf, fact_vars: &[VarId], tid: &Tid) -> f64 {
    let probs: Vec<f64> = fact_vars
        .iter()
        .map(|v| tid.prob_f64(FactId(v.0)))
        .collect();
    ddnnf.probability_f64(&probs)
}

/// Exact-rational version of [`pqe_ddnnf`].
pub fn pqe_ddnnf_rational(ddnnf: &Ddnnf, fact_vars: &[VarId], tid: &Tid) -> Rational {
    let probs: Vec<Rational> = fact_vars
        .iter()
        .map(|v| tid.prob(FactId(v.0)).clone())
        .collect();
    ddnnf.probability_rational(&probs)
}

/// End-to-end exact PQE of a Boolean UCQ via knowledge compilation — the
/// practical PQE engine the paper's §4 approach is built on.
pub fn pqe_via_compilation(
    q: &Ucq,
    db: &Database,
    tid: &Tid,
    budget: &Budget,
) -> Result<Rational, CompileError> {
    assert!(q.is_boolean(), "PQE is defined for Boolean queries");
    let res = evaluate(q, db);
    let Some(out) = res.outputs.first() else {
        return Ok(Rational::zero());
    };
    let mut circuit = Circuit::new();
    let root = out.lineage.to_circuit(&mut circuit);
    let comp = compile_circuit_topdown(&circuit, root, budget, None)?;
    Ok(pqe_ddnnf_rational(&comp.ddnnf, &comp.fact_vars, tid))
}

#[cfg(test)]
mod tests {
    use super::*;
    use shapdb_data::{flights_example, Value};
    use shapdb_query::ast::flights_query;
    use shapdb_query::CqBuilder;

    #[test]
    fn deterministic_tid_equals_query_answer() {
        let (db, _) = flights_example();
        let q = flights_query();
        let tid = Tid::deterministic(&db);
        assert_eq!(pqe_bruteforce(&q, &db, &tid), Rational::one());
        let p = pqe_via_compilation(&q, &db, &tid, &Budget::unlimited()).unwrap();
        assert_eq!(p, Rational::one());
    }

    #[test]
    fn uniform_half_matches_model_count() {
        // With π ≡ 1/2, Pr(q) = #SAT(lineage) / 2^#vars.
        let (db, _) = flights_example();
        let q = flights_query();
        let tid = Tid::uniform(&db, Rational::from_ratio(1, 2));
        let brute = pqe_bruteforce(&q, &db, &tid);
        let compiled = pqe_via_compilation(&q, &db, &tid, &Budget::unlimited()).unwrap();
        assert_eq!(brute, compiled);
        // The float path agrees to machine precision.
        let res = evaluate(&q, &db);
        let mut c = Circuit::new();
        let root = res.outputs[0].lineage.to_circuit(&mut c);
        let comp = compile_circuit_topdown(&c, root, &Budget::unlimited(), None).unwrap();
        let f = pqe_ddnnf(&comp.ddnnf, &comp.fact_vars, &tid);
        assert!((f - brute.to_f64()).abs() < 1e-12);
    }

    #[test]
    fn single_fact_query_probability() {
        let mut db = Database::new();
        db.create_relation("R", &["a"]);
        let f = db.insert_endo("R", vec![Value::int(1)]);
        let mut b = CqBuilder::new();
        let x = b.var("x");
        b.atom("R", [x.into()]);
        let q: Ucq = b.build().into();
        let mut tid = Tid::deterministic(&db);
        tid.set(f, Rational::from_ratio(2, 7));
        assert_eq!(pqe_bruteforce(&q, &db, &tid), Rational::from_ratio(2, 7));
    }

    #[test]
    fn unsatisfiable_query_probability_zero() {
        let (db, _) = flights_example();
        let mut b = CqBuilder::new();
        let x = b.var("x");
        b.atom("Airports", [x.into(), "MARS".into()]);
        let q: Ucq = b.build().into();
        let tid = Tid::uniform(&db, Rational::from_ratio(1, 2));
        assert_eq!(pqe_bruteforce(&q, &db, &tid), Rational::zero());
        assert_eq!(
            pqe_via_compilation(&q, &db, &tid, &Budget::unlimited()).unwrap(),
            Rational::zero()
        );
    }

    use shapdb_data::Database;
}
