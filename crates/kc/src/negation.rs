//! The KC route for monotone DNF lineages: compile the lineage's negation.
//!
//! A lineage `F = ⋁ₜ ⋀_{x∈t} x` negates to a CNF over the facts alone,
//! `¬F = ⋀ₜ ⋁_{x∈t} ¬x` — one all-negative clause per conjunct. There are
//! no Tseytin gate variables, so there is nothing to project away
//! (Lemma 4.6 is not needed) and the compiler searches over the facts
//! only. Shapley, Banzhaf and the SHAP-score are linear in the game and
//! give 0 to every player of a constant game, so `φ_f(F) = −φ_f(¬F)`
//! exactly: callers evaluate the compiled `¬F` and negate the values.
//!
//! The paper's path (Tseytin → compile → project,
//! [`compile_circuit_topdown`](crate::compile_circuit_topdown)) stays the
//! entry for circuits that are not monotone DNFs, such as signed negation
//! lineages.

use crate::compile::{compile, Budget, CompileError, CompileStats};
use crate::compile_topdown::{compile_topdown_shared, ComponentCache};
use crate::ddnnf::Ddnnf;
use shapdb_circuit::{Cnf, Dnf, Lit, VarId};

/// A monotone DNF's negation, compiled.
#[derive(Debug)]
pub struct NegationCompilation {
    /// d-DNNF of `¬F` over the dense variables `0..fact_vars.len()`.
    pub ddnnf: Ddnnf,
    /// `fact_vars[i]` is the lineage variable of d-DNNF variable `i`
    /// (ascending).
    pub fact_vars: Vec<VarId>,
    /// Clauses of the negation CNF: one per conjunct.
    pub cnf_clauses: usize,
    /// Compiler counters.
    pub stats: CompileStats,
}

/// The negation CNF of a monotone DNF over its dense variables: one
/// all-negative clause per conjunct (an empty conjunct, `F = ⊤`, gives the
/// empty clause). Returns the CNF and the lineage variable of each CNF
/// variable.
fn negation_cnf(dnf: &Dnf) -> (Cnf, Vec<VarId>) {
    let vars = dnf.vars();
    let mut cnf = Cnf::new(vars.len());
    for conj in dnf.conjuncts() {
        cnf.push_lits(
            conj.iter()
                .map(|v| Lit::neg(vars.binary_search(v).expect("var in lineage")))
                .collect(),
        );
    }
    (cnf, vars)
}

/// Compiles `¬F` for the monotone DNF `F` against `shared` — a component
/// cache and the caller's context digest ([`compile_topdown_shared`]) — or
/// with a cache owned by the call ([`compile()`](crate::compile())) when
/// `None`. The d-DNNF is over the facts only; [`Budget::max_nodes`] caps
/// its nodes.
pub fn compile_negation(
    dnf: &Dnf,
    budget: &Budget,
    shared: Option<(&ComponentCache, u64)>,
) -> Result<NegationCompilation, CompileError> {
    let (cnf, fact_vars) = negation_cnf(dnf);
    let (ddnnf, stats) = match shared {
        None => compile(&cnf, budget)?,
        Some((cache, context)) => compile_topdown_shared(&cnf, budget, cache, context)?,
    };
    Ok(NegationCompilation {
        ddnnf,
        fact_vars,
        cnf_clauses: cnf.len(),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_circuit_topdown;
    use proptest::prelude::*;
    use shapdb_circuit::Circuit;
    use shapdb_num::{BigUint, Bitset};

    fn dnf_of(conjuncts: &[Vec<u32>]) -> Dnf {
        let mut d = Dnf::new();
        for c in conjuncts {
            d.add_conjunct(c.iter().map(|&v| VarId(v)).collect());
        }
        d
    }

    /// `#F` through the paper's path (Tseytin → compile → project), with
    /// the projected variable order.
    fn tseytin_count(d: &Dnf) -> (BigUint, Vec<VarId>) {
        let mut c = Circuit::new();
        let root = d.to_circuit(&mut c);
        let compiled = compile_circuit_topdown(&c, root, &Budget::unlimited(), None).unwrap();
        (compiled.ddnnf.count_models(), compiled.fact_vars)
    }

    /// The two ways to compile: an owned cache, and a shared one under a
    /// context digest.
    fn caches(cache: &ComponentCache) -> [Option<(&ComponentCache, u64)>; 2] {
        [None, Some((cache, 3))]
    }

    /// `#F + #¬F = 2ⁿ` over the lineage's `n` facts, with an owned and a
    /// shared cache against the Tseytin path, and the negation is well
    /// formed.
    fn check_complement(d: &Dnf) {
        let n = d.vars().len();
        let total = BigUint::one() << n;
        let (count_f, vars) = tseytin_count(d);
        let cache = ComponentCache::new();
        for shared in caches(&cache) {
            let label = shared.is_some();
            let neg = compile_negation(d, &Budget::unlimited(), shared).unwrap();
            assert_eq!(neg.fact_vars, d.vars(), "shared={label}");
            assert_eq!(neg.cnf_clauses, d.len(), "shared={label}");
            assert_eq!(neg.ddnnf.num_vars(), n, "shared={label}");
            neg.ddnnf.verify_decomposable().unwrap();
            neg.ddnnf.verify_decisions().unwrap();
            assert_eq!(vars, neg.fact_vars, "shared={label}");
            assert_eq!(
                count_f.clone() + neg.ddnnf.count_models(),
                total,
                "shared={label} on {d:?}"
            );
        }
    }

    #[test]
    fn negation_cnf_has_one_negative_clause_per_conjunct() {
        let d = dnf_of(&[vec![10], vec![20, 30], vec![10, 30]]);
        let (cnf, vars) = negation_cnf(&d);
        assert_eq!(vars, vec![VarId(10), VarId(20), VarId(30)]);
        assert_eq!(cnf.num_vars(), 3);
        assert_eq!(cnf.len(), 3);
        assert!(cnf
            .clauses()
            .iter()
            .all(|c| c.lits().iter().all(|l| !l.is_positive())));
        // ¬F(S) = ¬(F(S)) on every assignment of the three facts.
        for mask in 0u32..8 {
            let mut dense = Bitset::new(3);
            let mut sparse = Bitset::new(31);
            for (i, v) in vars.iter().enumerate() {
                if mask >> i & 1 == 1 {
                    dense.insert(i);
                    sparse.insert(v.0 as usize);
                }
            }
            assert_eq!(cnf.eval_set(&dense), !d.eval_set(&sparse), "mask {mask}");
        }
    }

    #[test]
    fn constant_lineages_negate_to_constants() {
        let cache = ComponentCache::new();
        // ⊥ (no conjuncts) negates to ⊤ over no facts.
        for shared in caches(&cache) {
            let neg = compile_negation(&Dnf::new(), &Budget::unlimited(), shared).unwrap();
            assert_eq!(neg.ddnnf.num_vars(), 0);
            assert_eq!(neg.ddnnf.count_models(), BigUint::one());
        }
        // ⊤ (the empty conjunct) negates to ⊥: the empty clause.
        let mut top = Dnf::new();
        top.add_conjunct(vec![]);
        for shared in caches(&cache) {
            let neg = compile_negation(&top, &Budget::unlimited(), shared).unwrap();
            assert_eq!(neg.cnf_clauses, 1);
            assert!(neg.ddnnf.count_models().is_zero());
        }
    }

    #[test]
    fn complement_counts_on_fixed_lineages() {
        // A single fact, a single conjunct, the running example, and six
        // disjoint majority blocks (one component on the Tseytin side until
        // a gate decision satisfies the root clause; separate components
        // from the start on the negation side).
        check_complement(&dnf_of(&[vec![7]]));
        check_complement(&dnf_of(&[vec![1, 4, 9]]));
        check_complement(&dnf_of(&[
            vec![0],
            vec![1, 3],
            vec![1, 4],
            vec![2, 3],
            vec![2, 4],
            vec![5, 6],
        ]));
        let blocks: Vec<Vec<u32>> = (0..6u32)
            .flat_map(|b| {
                let (x, y, z) = (3 * b, 3 * b + 1, 3 * b + 2);
                [vec![x, y], vec![x, z], vec![y, z]]
            })
            .collect();
        check_complement(&dnf_of(&blocks));
    }

    #[test]
    fn budget_caps_the_negation_circuit() {
        let d = dnf_of(&[vec![0, 1], vec![1, 2], vec![0, 2]]);
        let cache = ComponentCache::new();
        for shared in caches(&cache) {
            let err = compile_negation(&d, &Budget::with_max_nodes(1), shared).unwrap_err();
            assert_eq!(err, CompileError::NodeLimit);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_negation_complements_the_tseytin_count(
            conjuncts in proptest::collection::vec(
                proptest::collection::vec(0u32..12, 1..4),
                1..9,
            )
        ) {
            check_complement(&dnf_of(&conjuncts));
        }
    }
}
