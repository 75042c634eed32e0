//! d-DNNF smoothing — the textbook alternative to arithmetic gap-completion,
//! kept as a test-only oracle.
//!
//! A d-DNNF is *smooth* when every `∨` gate's children mention exactly the
//! gate's variable set. Standard treatments (and the paper's Line 1 of
//! Algorithm 1, which conjoins `f' ∨ ¬f'` for missing variables) smooth the
//! circuit *structurally*, after which model counting degenerates to
//! sum-at-∨ / product-at-∧ with literal count 1. This repository's
//! counting and Shapley DPs instead handle variable gaps *arithmetically*
//! (binomial expansion at `∨`, closed-form completion weights), which keeps
//! circuits small; the structural transformation here is the executable
//! specification that the arithmetic shortcut is equivalent (tested:
//! `count_models` on the original = smooth-count on the smoothed circuit).
//!
//! Smoothing wraps each gap variable `v` in a decision gate `(v ∨ ¬v)`;
//! those gates are shared across all gaps, so the blow-up is
//! `O(|C| + (#gaps) + num_vars)` nodes.

use crate::ddnnf::{DNode, Ddnnf, DdnnfBuilder, NodeIdx};
use shapdb_circuit::Lit;
use shapdb_num::BigUint;

/// Structurally smooths a d-DNNF: every `∨` child is conjoined with
/// `(v ∨ ¬v)` for each variable of the gate it lacks, and the root is
/// completed to mention all `num_vars` variables.
fn smooth(d: &Ddnnf) -> Ddnnf {
    let sets = d.var_sets();
    let mut b = DdnnfBuilder::new();
    // Tautology gate per variable, created on demand and shared.
    let mut taut: Vec<Option<NodeIdx>> = vec![None; d.num_vars()];
    let tautology = |b: &mut DdnnfBuilder, v: usize, taut: &mut Vec<Option<NodeIdx>>| {
        if let Some(t) = taut[v] {
            return t;
        }
        let hi = b.lit(Lit::pos(v));
        let lo = b.lit(Lit::neg(v));
        let t = b.decision(v, hi, lo);
        taut[v] = Some(t);
        t
    };

    let mut map: Vec<NodeIdx> = Vec::with_capacity(d.len());
    for (g, node) in d.nodes().iter().enumerate() {
        let mapped = match node {
            DNode::True => b.true_node(),
            DNode::False => b.false_node(),
            DNode::Lit(l) => b.lit(*l),
            DNode::And(cs) => {
                let kids: Vec<NodeIdx> = cs.iter().map(|c| map[c.index()]).collect();
                b.and(kids)
            }
            DNode::Or(cs, dec) => {
                let mut kids: Vec<NodeIdx> = Vec::with_capacity(cs.len());
                for c in cs.iter() {
                    let mut parts = vec![map[c.index()]];
                    // Conjoin (v ∨ ¬v) for every variable of the gate the
                    // child does not mention.
                    for v in sets[g].iter() {
                        if !sets[c.index()].contains(v) {
                            parts.push(tautology(&mut b, v, &mut taut));
                        }
                    }
                    kids.push(b.and(parts));
                }
                match dec {
                    Some(v) if kids.len() == 2 => b.decision(*v as usize, kids[0], kids[1]),
                    _ => b.or(kids),
                }
            }
        };
        map.push(mapped);
    }

    // Complete the root over the full variable space.
    let root_idx = d.root().index();
    let mut parts = vec![map[root_idx]];
    for v in 0..d.num_vars() {
        if !sets[root_idx].contains(v) {
            parts.push(tautology(&mut b, v, &mut taut));
        }
    }
    let root = b.and(parts);
    b.finish(root, d.num_vars())
}

/// True iff every `∨` gate's children all mention the gate's variable set
/// and the root mentions every variable. The unsatisfiable circuit (root ⊥)
/// is smooth by convention — ⊥ cannot structurally mention anything.
fn is_smooth(d: &Ddnnf) -> bool {
    if matches!(d.nodes()[d.root().index()], DNode::False) {
        return true;
    }
    let sets = d.var_sets();
    for (g, node) in d.nodes().iter().enumerate() {
        if let DNode::Or(cs, _) = node {
            for c in cs.iter() {
                if sets[c.index()] != sets[g] {
                    return false;
                }
            }
        }
    }
    sets[d.root().index()].len() == d.num_vars()
}

/// Model count valid **only on smooth circuits**: literal → 1, `∨` → sum,
/// `∧` → product — no gap correction anywhere. The tests check that
/// [`smooth`] + this simple recurrence equals
/// [`Ddnnf::count_models`]'s arithmetic shortcut on the original circuit.
fn count_models_smooth(d: &Ddnnf) -> BigUint {
    debug_assert!(
        is_smooth(d),
        "count_models_smooth requires a smooth circuit"
    );
    let mut counts: Vec<BigUint> = Vec::with_capacity(d.len());
    for node in d.nodes() {
        let c = match node {
            DNode::True => BigUint::one(),
            DNode::False => BigUint::zero(),
            DNode::Lit(_) => BigUint::one(),
            DNode::And(cs) => {
                let mut acc = BigUint::one();
                for ch in cs.iter() {
                    acc = &acc * &counts[ch.index()];
                }
                acc
            }
            DNode::Or(cs, _) => {
                let mut acc = BigUint::zero();
                for ch in cs.iter() {
                    acc += &counts[ch.index()];
                }
                acc
            }
        };
        counts.push(c);
    }
    counts[d.root().index()].clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, Budget};
    use proptest::prelude::*;
    use shapdb_circuit::Cnf;

    fn cnf_of(clauses: &[&[(usize, bool)]], num_vars: usize) -> Cnf {
        let mut cnf = Cnf::new(num_vars);
        for c in clauses {
            cnf.push_lits(
                c.iter()
                    .map(|&(v, pos)| if pos { Lit::pos(v) } else { Lit::neg(v) })
                    .collect(),
            );
        }
        cnf
    }

    #[test]
    fn smoothing_fixes_gaps_and_preserves_count() {
        // (x0 ∨ x1) ∧ x2 over 5 vars: vars 3, 4 are gaps at the root.
        let cnf = cnf_of(&[&[(0, true), (1, true)], &[(2, true)]], 5);
        let (d, _) = compile(&cnf, &Budget::unlimited()).unwrap();
        assert!(!is_smooth(&d), "root gap expected");
        let s = smooth(&d);
        assert!(is_smooth(&s));
        assert_eq!(count_models_smooth(&s), d.count_models());
        assert_eq!(s.count_models(), d.count_models());
    }

    #[test]
    fn already_smooth_is_idempotent_in_function() {
        let cnf = cnf_of(&[&[(0, true), (1, false)]], 2);
        let (d, _) = compile(&cnf, &Budget::unlimited()).unwrap();
        let s1 = smooth(&d);
        let s2 = smooth(&s1);
        assert!(is_smooth(&s1) && is_smooth(&s2));
        assert_eq!(count_models_smooth(&s1), count_models_smooth(&s2));
    }

    #[test]
    fn constant_circuits() {
        let cnf = cnf_of(&[], 3); // ⊤ over 3 vars
        let (d, _) = compile(&cnf, &Budget::unlimited()).unwrap();
        let s = smooth(&d);
        assert!(is_smooth(&s));
        assert_eq!(count_models_smooth(&s).to_u64(), Some(8));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_smooth_count_equals_arithmetic_count(
            clauses in proptest::collection::vec(
                proptest::collection::vec((0usize..8, any::<bool>()), 1..4),
                0..10,
            )
        ) {
            let mut cnf = Cnf::new(8);
            for c in &clauses {
                cnf.push_lits(
                    c.iter().map(|&(v, pos)| if pos { Lit::pos(v) } else { Lit::neg(v) }).collect(),
                );
            }
            let (d, _) = compile(&cnf, &Budget::unlimited()).unwrap();
            let s = smooth(&d);
            prop_assert!(is_smooth(&s));
            prop_assert!(s.verify_decomposable().is_ok());
            prop_assert_eq!(count_models_smooth(&s), d.count_models());
            // Smoothing never shrinks the circuit.
            prop_assert!(s.len() + 2 >= d.len());
        }
    }
}
