//! Banzhaf values from d-DNNF circuits (extension).
//!
//! The paper's related-work section situates Shapley values among other
//! responsibility measures for query answers (causal responsibility,
//! causal effect [24, 30]). The *Banzhaf value* is the closest cousin:
//!
//! ```text
//! Banzhaf(f) = 2^{-(n-1)} Σ_{E ⊆ D_n\{f}} ( q(D_x∪E∪{f}) − q(D_x∪E) )
//! ```
//!
//! — the same marginal-contribution sum as Equation (1) but with uniform
//! coalition weights. On a deterministic and decomposable circuit it needs
//! no `#SAT_k` stratification at all: it equals
//! `Pr(C | f→1) − Pr(C | f→0)` under independent fact probability ½, i.e.
//! two weighted model counts — an `O(|C|)` computation per fact that shares
//! all of the Shapley pipeline up to the very last step. Unlike the Shapley
//! value it is insensitive to `|D_n|` (null players change nothing), which
//! the tests exercise.

use shapdb_kc::Ddnnf;
use shapdb_num::{BigInt, BigUint, Bitset, Rational};

/// Exact Banzhaf value of every d-DNNF variable.
///
/// Variables absent from the circuit are null players with value 0 (entries
/// are still returned for them, as zero).
///
/// The same numbers are the *causal effect* of Salimi et al. (TaPP 2016):
/// `E[q | f present] − E[q | f absent]` under independent fact probability
/// ½ is exactly `Pr(C | f→1) − Pr(C | f→0)` above, so for Boolean games
/// causal effect and Banzhaf value coincide.
pub fn banzhaf_all_facts(d: &Ddnnf) -> Vec<Rational> {
    let num_vars = d.num_vars();
    let mut out = vec![Rational::zero(); num_vars];
    if num_vars == 0 {
        return out;
    }
    let sets = d.var_sets();
    let root_vars = sets[d.root().index()].clone();
    let half = Rational::from_ratio(1, 2);
    for f in root_vars.iter() {
        let mut p1 = vec![half.clone(); num_vars];
        p1[f] = Rational::one();
        let mut p0 = vec![half.clone(); num_vars];
        p0[f] = Rational::zero();
        out[f] = &d.probability_rational(&p1) - &d.probability_rational(&p0);
    }
    out
}

/// `O(2ⁿ)` ground truth straight from the definition (test oracle).
pub fn banzhaf_naive(f: &impl Fn(&Bitset) -> bool, n: usize) -> Vec<Rational> {
    assert!(n <= 25, "naive enumeration limited to 25 facts");
    if n == 0 {
        return Vec::new();
    }
    let evals: Vec<bool> = (0u64..(1 << n))
        .map(|mask| {
            let mut s = Bitset::new(n);
            for i in 0..n {
                if mask >> i & 1 == 1 {
                    s.insert(i);
                }
            }
            f(&s)
        })
        .collect();
    let denom = BigUint::one() << (n - 1);
    (0..n)
        .map(|target| {
            let bit = 1u64 << target;
            let mut num = BigInt::zero();
            for mask in 0u64..(1 << n) {
                if mask & bit != 0 {
                    continue;
                }
                let with = evals[(mask | bit) as usize];
                let without = evals[mask as usize];
                if with && !without {
                    num += &BigInt::one();
                } else if !with && without {
                    num += &BigInt::from_i64(-1);
                }
            }
            Rational::new(num, denom.clone())
        })
        .collect()
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // parallel-array comparisons read better indexed
mod tests {
    use super::*;
    use crate::engine::{EngineKind, EngineValues, LineageTask, Planner, PlannerConfig};
    use crate::measure::Measure;
    use proptest::prelude::*;
    use shapdb_circuit::{Circuit, Dnf, VarId};
    use shapdb_kc::{compile_circuit_topdown, Budget, DNode};

    fn compile_dense(d: &Dnf, n: usize) -> Ddnnf {
        use shapdb_circuit::Lit;
        let mut c = Circuit::new();
        let root = d.to_circuit(&mut c);
        let comp = compile_circuit_topdown(&c, root, &Budget::unlimited(), None).unwrap();
        let mapping: Vec<usize> = comp.fact_vars.iter().map(|v| v.index()).collect();
        let nodes = comp
            .ddnnf
            .nodes()
            .iter()
            .map(|nd| match nd {
                DNode::Lit(l) => {
                    let v = mapping[l.var()];
                    DNode::Lit(if l.is_positive() {
                        Lit::pos(v)
                    } else {
                        Lit::neg(v)
                    })
                }
                other => other.clone(),
            })
            .collect();
        Ddnnf::new(nodes, comp.ddnnf.root(), n)
    }

    fn running_example() -> Dnf {
        let mut d = Dnf::new();
        d.add_conjunct(vec![VarId(0)]);
        for pair in [[1u32, 3], [1, 4], [2, 3], [2, 4], [5, 6]] {
            d.add_conjunct(pair.iter().map(|&v| VarId(v)).collect());
        }
        d
    }

    #[test]
    fn matches_naive_on_running_example() {
        let dnf = running_example();
        let dd = compile_dense(&dnf, 7);
        let f = |s: &Bitset| dnf.eval_set(s);
        let expect = banzhaf_naive(&f, 7);
        let got = banzhaf_all_facts(&dd);
        assert_eq!(got, expect);
        // a1's Banzhaf: it is critical whenever no other route exists.
        assert!(got[0] > got[1], "a1 dominates as with Shapley");
    }

    /// Banzhaf values of `lineage` through the planner's routing ladder.
    fn planned(lineage: &Dnf, cfg: PlannerConfig) -> (EngineKind, Vec<(VarId, Rational)>) {
        let task = LineageTask::new(lineage, 4).with_measure(Measure::Banzhaf);
        let r = Planner::new(cfg).solve(&task).unwrap();
        let EngineValues::Exact(values) = r.values else {
            panic!("exact planner yields exact values");
        };
        (r.engine, values)
    }

    #[test]
    fn from_lineage_minimizes_before_evaluating() {
        // (x0) ∨ (x0 ∧ x3) ∨ (x1 ∧ x2): the absorbed conjunct names x3,
        // which the function does not depend on; minimization must make the
        // unminimized input indistinguishable from the minimized one.
        let mut raw = Dnf::new();
        raw.add_conjunct(vec![VarId(0)]);
        raw.add_conjunct(vec![VarId(0), VarId(3)]);
        raw.add_conjunct(vec![VarId(1), VarId(2)]);
        let mut min = raw.clone();
        min.minimize();
        let (_, got_raw) = planned(&raw, PlannerConfig::default());
        let (_, got_min) = planned(&min, PlannerConfig::default());
        assert_eq!(got_raw, got_min);
        assert!(got_raw.iter().all(|(v, _)| *v != VarId(3)));
        // And both agree with the enumeration oracle on the same function.
        let expect = banzhaf_naive(&|s: &Bitset| raw.eval_set(s), 3);
        for (v, r) in &got_raw {
            assert_eq!(r, &expect[v.index()], "var {}", v.0);
        }
    }

    #[test]
    fn from_lineage_falls_back_to_compilation() {
        // Non-read-once minimized lineage: (x0x1)∨(x1x2)∨(x0x2). With the
        // naive route off, the planner compiles it.
        let mut d = Dnf::new();
        d.add_conjunct(vec![VarId(0), VarId(1)]);
        d.add_conjunct(vec![VarId(1), VarId(2)]);
        d.add_conjunct(vec![VarId(0), VarId(2)]);
        let cfg = PlannerConfig {
            max_naive_vars: 0,
            ..Default::default()
        };
        let (engine, got) = planned(&d, cfg);
        assert_eq!(engine, EngineKind::Kc);
        let expect = banzhaf_naive(&|s: &Bitset| d.eval_set(s), 3);
        assert_eq!(got.len(), 3);
        for (v, r) in &got {
            assert_eq!(r, &expect[v.index()], "var {}", v.0);
        }
    }

    #[test]
    fn null_player_invariance() {
        // Unlike Shapley's n-dependent weights, Banzhaf values are unchanged
        // by the ambient variable count — declared null players get zero.
        let mut dnf = Dnf::new();
        dnf.add_conjunct(vec![VarId(0), VarId(1)]);
        let d3 = compile_dense(&dnf, 3);
        let d5 = compile_dense(&dnf, 5);
        let v3 = banzhaf_all_facts(&d3);
        let v5 = banzhaf_all_facts(&d5);
        assert_eq!(v3[..2], v5[..2]);
        assert!(v5[2..].iter().all(|v| v.is_zero()));
        assert_eq!(v3[0], Rational::from_ratio(1, 2));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_matches_naive(
            conjuncts in proptest::collection::vec(
                proptest::collection::vec(0u32..6, 1..4), 1..6)
        ) {
            let mut dnf = Dnf::new();
            for c in &conjuncts {
                dnf.add_conjunct(c.iter().map(|&v| VarId(v)).collect());
            }
            let n = 6;
            let dd = compile_dense(&dnf, n);
            let f = |s: &Bitset| dnf.eval_set(s);
            prop_assert_eq!(banzhaf_all_facts(&dd), banzhaf_naive(&f, n));
        }
    }
}
