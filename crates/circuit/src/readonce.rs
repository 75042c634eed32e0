//! Read-once factorization of monotone DNF lineages.
//!
//! A Boolean function is *read-once* if it has a formula in which every
//! variable appears exactly once. Read-once lineages are the sweet spot of
//! Shapley computation: the formula itself is already decomposable (all
//! gates have variable-disjoint children), so `#SAT_k` — and hence Algorithm
//! 1's sum — can be evaluated directly on it, with no knowledge compilation
//! at all. This matters in practice because hierarchical self-join-free CQs
//! (the tractable class of Livshits et al. that the paper's §3 discusses)
//! always produce read-once lineages, and so do many non-hierarchical
//! outputs — e.g. the complete-bipartite pattern `⋁ᵢⱼ (xᵢ ∧ yⱼ)` of the
//! running example's `q2`, which factors into `(⋁ᵢxᵢ) ∧ (⋁ⱼyⱼ)`.
//!
//! The factorization here is the classical co-occurrence-graph method
//! (Golumbic–Mintz–Rotics): a minimized monotone DNF is exactly the set of
//! prime implicants of the function, and
//!
//! * the function ∨-decomposes along the connected components of the
//!   co-occurrence graph (two variables adjacent iff they share a prime
//!   implicant), and
//! * it ∧-decomposes along the *co-components* (connected components of the
//!   complement graph), provided the implicant set is exactly the Cartesian
//!   product of its block projections — the normality check that rejects
//!   e.g. the majority function `xy ∨ yz ∨ xz`.
//!
//! A monotone function is read-once iff this recursion reaches single
//! variables, which [`factor`] decides in `O(|D|·|V|²)` time.

use crate::circuit::{Circuit, NodeId, VarId};
use crate::dnf::Dnf;
use shapdb_num::Bitset;
use std::fmt;

/// A read-once formula tree: every variable occurs in exactly one leaf, so
/// all `∧`/`∨` nodes have variable-disjoint children.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ReadOnce {
    /// Constant true (the lineage of a certain tuple).
    True,
    /// Constant false (the empty lineage).
    False,
    /// A single fact.
    Var(VarId),
    /// Conjunction of variable-disjoint subtrees.
    And(Vec<ReadOnce>),
    /// Disjunction of variable-disjoint subtrees.
    Or(Vec<ReadOnce>),
}

impl ReadOnce {
    /// Distinct variables of the tree, sorted.
    pub fn vars(&self) -> Vec<VarId> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out.sort_unstable();
        out
    }

    fn collect_vars(&self, out: &mut Vec<VarId>) {
        match self {
            ReadOnce::True | ReadOnce::False => {}
            ReadOnce::Var(v) => out.push(*v),
            ReadOnce::And(cs) | ReadOnce::Or(cs) => {
                for c in cs {
                    c.collect_vars(out);
                }
            }
        }
    }

    /// Number of tree nodes.
    pub fn len(&self) -> usize {
        match self {
            ReadOnce::True | ReadOnce::False | ReadOnce::Var(_) => 1,
            ReadOnce::And(cs) | ReadOnce::Or(cs) => 1 + cs.iter().map(ReadOnce::len).sum::<usize>(),
        }
    }

    /// True iff the tree is a single leaf.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Evaluates under a set of true variables.
    pub fn eval_set(&self, true_vars: &Bitset) -> bool {
        match self {
            ReadOnce::True => true,
            ReadOnce::False => false,
            ReadOnce::Var(v) => true_vars.contains(v.index()),
            ReadOnce::And(cs) => cs.iter().all(|c| c.eval_set(true_vars)),
            ReadOnce::Or(cs) => cs.iter().any(|c| c.eval_set(true_vars)),
        }
    }

    /// Builds the equivalent circuit and returns its root.
    pub fn to_circuit(&self, circuit: &mut Circuit) -> NodeId {
        match self {
            ReadOnce::True => circuit.constant(true),
            ReadOnce::False => circuit.constant(false),
            ReadOnce::Var(v) => circuit.var(*v),
            ReadOnce::And(cs) => {
                let kids: Vec<NodeId> = cs.iter().map(|c| c.to_circuit(circuit)).collect();
                circuit.and(kids)
            }
            ReadOnce::Or(cs) => {
                let kids: Vec<NodeId> = cs.iter().map(|c| c.to_circuit(circuit)).collect();
                circuit.or(kids)
            }
        }
    }

    /// Structural read-once check: every variable occurs exactly once.
    pub fn is_well_formed(&self) -> bool {
        let mut vars = Vec::new();
        self.collect_vars(&mut vars);
        let n = vars.len();
        vars.sort_unstable();
        vars.dedup();
        vars.len() == n
    }
}

impl fmt::Display for ReadOnce {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadOnce::True => write!(f, "⊤"),
            ReadOnce::False => write!(f, "⊥"),
            ReadOnce::Var(v) => write!(f, "x{}", v.0),
            ReadOnce::And(cs) => {
                write!(f, "(")?;
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∧ ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
            ReadOnce::Or(cs) => {
                write!(f, "(")?;
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∨ ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// Factors a monotone DNF into a read-once tree, or returns `None` if the
/// function is not read-once.
///
/// The input is minimized first (absorption), which for monotone DNFs yields
/// exactly the prime-implicant set the decomposition theory requires.
pub fn factor(dnf: &Dnf) -> Option<ReadOnce> {
    if dnf.is_minimized() {
        return factor_minimized(dnf);
    }
    let mut d = dnf.clone();
    d.minimize();
    factor_minimized(&d)
}

/// [`factor`] for a lineage the caller has **already** absorption-minimized
/// (skips the clone + minimize pass). Feeding an unminimized DNF may miss
/// factorizations that minimization would have exposed.
pub fn factor_minimized(d: &Dnf) -> Option<ReadOnce> {
    shapdb_metrics::counters::CIRCUIT_FACTOR_PASSES.incr();
    if d.is_empty() {
        return Some(ReadOnce::False);
    }
    if d.conjuncts().iter().any(|c| c.is_empty()) {
        // An empty conjunct absorbs everything: the constant-true lineage of
        // a certain tuple.
        return Some(ReadOnce::True);
    }
    // Dense-rank the variables once: the recursion works on ranks (which
    // keep the variables' order) and maps leaves back through `vars`.
    let mut vars: Vec<VarId> = d.conjuncts().iter().flatten().copied().collect();
    vars.sort_unstable();
    vars.dedup();
    let conjuncts: Vec<Vec<u32>> = d
        .conjuncts()
        .iter()
        .map(|c| {
            c.iter()
                .map(|v| vars.binary_search(v).expect("ranked var") as u32)
                .collect()
        })
        .collect();
    factor_rec(&conjuncts, &vars, &mut vec![usize::MAX; vars.len()])
}

/// Recursive Or-split / And-split on a prime-implicant antichain over the
/// ranks of `vars`. `by_rank` is scratch indexed by rank, `usize::MAX`
/// everywhere between uses, so no call pays for the ranks it does not
/// mention.
fn factor_rec(conjuncts: &[Vec<u32>], vars: &[VarId], by_rank: &mut [usize]) -> Option<ReadOnce> {
    debug_assert!(!conjuncts.is_empty());
    let var = |r: u32| ReadOnce::Var(vars[r as usize]);
    // Single conjunct: a plain conjunction of distinct variables.
    if conjuncts.len() == 1 {
        let c = &conjuncts[0];
        return Some(if c.len() == 1 {
            var(c[0])
        } else {
            ReadOnce::And(c.iter().map(|&r| var(r)).collect())
        });
    }

    // ∨-split: connected components of the conjunct graph (two conjuncts
    // adjacent iff they share a variable). Union-find over conjuncts, keyed
    // by per-variable occurrence.
    let groups = or_components(conjuncts, by_rank);
    if groups.len() > 1 {
        let mut kids = Vec::with_capacity(groups.len());
        for g in &groups {
            let sub: Vec<Vec<u32>> = g.iter().map(|&i| conjuncts[i].clone()).collect();
            kids.push(factor_rec(&sub, vars, by_rank)?);
        }
        return Some(ReadOnce::Or(kids));
    }

    // ∧-split: co-components of the variable co-occurrence graph, validated
    // by the Cartesian-product (normality) check.
    let blocks = and_blocks(conjuncts, by_rank);
    if blocks.len() <= 1 {
        return None; // Connected co-occurrence graph *and* connected complement.
    }
    let mut kids = Vec::with_capacity(blocks.len());
    let mut expected = 1usize;
    for block in &blocks {
        // Project the implicants onto the block and deduplicate.
        let mut proj: Vec<Vec<u32>> = Vec::new();
        for c in conjuncts {
            let p: Vec<u32> = c
                .iter()
                .copied()
                .filter(|&r| block.contains(r as usize))
                .collect();
            if p.is_empty() {
                return None; // An implicant missing a block: not a clean ∧.
            }
            if !proj.contains(&p) {
                proj.push(p);
            }
        }
        expected = expected.checked_mul(proj.len())?;
        kids.push(factor_rec(&proj, vars, by_rank)?);
    }
    // Normality: the implicant set must be exactly the product of the block
    // projections (rejects e.g. majority: xy ∨ yz ∨ xz).
    if expected != conjuncts.len() {
        return None;
    }
    Some(ReadOnce::And(kids))
}

/// Connected components of the conjunct-sharing graph, as index groups
/// ordered by their smallest conjunct index. `first` is all `usize::MAX`
/// and is left so.
fn or_components(conjuncts: &[Vec<u32>], first: &mut [usize]) -> Vec<Vec<usize>> {
    let mut parent: Vec<usize> = (0..conjuncts.len()).collect();
    fn find(parent: &mut [usize], x: usize) -> usize {
        let mut r = x;
        while parent[r] != r {
            r = parent[r];
        }
        let mut cur = x;
        while parent[cur] != r {
            let next = parent[cur];
            parent[cur] = r;
            cur = next;
        }
        r
    }
    // Group conjuncts by variable: all conjuncts containing rank r are
    // merged with the first one seen.
    for (i, c) in conjuncts.iter().enumerate() {
        for &r in c {
            match first[r as usize] {
                usize::MAX => first[r as usize] = i,
                j => {
                    let a = find(&mut parent, j);
                    let b = find(&mut parent, i);
                    parent[a] = b;
                }
            }
        }
    }
    for &r in conjuncts.iter().flatten() {
        first[r as usize] = usize::MAX;
    }
    // Components in order of their smallest conjunct index.
    let mut slot = vec![usize::MAX; conjuncts.len()];
    let mut out: Vec<Vec<usize>> = Vec::new();
    for i in 0..conjuncts.len() {
        let r = find(&mut parent, i);
        if slot[r] == usize::MAX {
            slot[r] = out.len();
            out.push(Vec::new());
        }
        out[slot[r]].push(i);
    }
    out
}

/// Co-components (connected components of the complement) of the variable
/// co-occurrence graph, as sets of ranks ordered by their smallest member.
/// `local` is all `usize::MAX` and is left so.
fn and_blocks(conjuncts: &[Vec<u32>], local: &mut [usize]) -> Vec<Bitset> {
    let n = local.len();
    // The ranks these conjuncts mention, ascending, and each one's row.
    let mut members: Vec<u32> = conjuncts.iter().flatten().copied().collect();
    members.sort_unstable();
    members.dedup();
    for (i, &r) in members.iter().enumerate() {
        local[r as usize] = i;
    }

    // Adjacency of the co-occurrence graph as bitset rows.
    let mut adj: Vec<Bitset> = (0..members.len())
        .map(|_| Bitset::new(members.len()))
        .collect();
    for c in conjuncts {
        for (i, &a) in c.iter().enumerate() {
            for &b in &c[i + 1..] {
                let (la, lb) = (local[a as usize], local[b as usize]);
                adj[la].insert(lb);
                adj[lb].insert(la);
            }
        }
    }

    for &r in &members {
        local[r as usize] = usize::MAX;
    }

    // BFS on the complement graph: neighbors of u in Ḡ are the unvisited
    // vertices *not* adjacent to u.
    let mut unvisited: Vec<usize> = (0..members.len()).collect();
    let mut blocks: Vec<Bitset> = Vec::new();
    while let Some(start) = unvisited.pop() {
        let mut block = Bitset::new(n);
        block.insert(members[start] as usize);
        let mut queue = vec![start];
        while let Some(u) = queue.pop() {
            let mut still = Vec::with_capacity(unvisited.len());
            for &w in &unvisited {
                if !adj[u].contains(w) {
                    block.insert(members[w] as usize);
                    queue.push(w);
                } else {
                    still.push(w);
                }
            }
            unvisited = still;
        }
        blocks.push(block);
    }
    // Deterministic order: by smallest member.
    blocks.sort_by_key(|b| b.iter().next().unwrap_or(usize::MAX));
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dnf(conjs: &[&[u32]]) -> Dnf {
        let mut d = Dnf::new();
        for c in conjs {
            d.add_conjunct(c.iter().map(|&v| VarId(v)).collect());
        }
        d
    }

    /// Brute-force equivalence of a tree and a DNF over vars `0..n`.
    fn equivalent(t: &ReadOnce, d: &Dnf, n: usize) -> bool {
        for mask in 0u64..(1 << n) {
            let mut s = Bitset::new(n.max(1));
            for i in 0..n {
                if mask >> i & 1 == 1 {
                    s.insert(i);
                }
            }
            if t.eval_set(&s) != d.eval_set(&s) {
                return false;
            }
        }
        true
    }

    #[test]
    fn single_variable() {
        let d = dnf(&[&[3]]);
        assert_eq!(factor(&d), Some(ReadOnce::Var(VarId(3))));
    }

    #[test]
    fn single_conjunct_is_and_of_vars() {
        let d = dnf(&[&[0, 1, 2]]);
        let t = factor(&d).unwrap();
        assert!(matches!(&t, ReadOnce::And(cs) if cs.len() == 3));
        assert!(t.is_well_formed());
        assert!(equivalent(&t, &d, 3));
    }

    #[test]
    fn constant_cases() {
        assert_eq!(factor(&Dnf::new()), Some(ReadOnce::False));
        let mut top = Dnf::new();
        top.add_conjunct(vec![]);
        assert_eq!(factor(&top), Some(ReadOnce::True));
    }

    #[test]
    fn complete_bipartite_factors_as_and_of_ors() {
        // q2's pattern: ⋁ᵢⱼ xᵢ∧yⱼ = (x₁∨x₂)∧(y₁∨y₂). Vars x={0,1}, y={2,3}.
        let d = dnf(&[&[0, 2], &[0, 3], &[1, 2], &[1, 3]]);
        let t = factor(&d).unwrap();
        assert!(t.is_well_formed());
        assert!(equivalent(&t, &d, 4));
        assert!(matches!(&t, ReadOnce::And(cs) if cs.len() == 2));
    }

    #[test]
    fn running_example_elin_is_read_once() {
        // a1 ∨ (a2∧a4) ∨ (a2∧a5) ∨ (a3∧a4) ∨ (a3∧a5) ∨ (a6∧a7)
        //   = a1 ∨ ((a2∨a3)∧(a4∨a5)) ∨ (a6∧a7).
        let d = dnf(&[&[0], &[1, 3], &[1, 4], &[2, 3], &[2, 4], &[5, 6]]);
        let t = factor(&d).unwrap();
        assert!(t.is_well_formed());
        assert!(equivalent(&t, &d, 7));
        assert!(matches!(&t, ReadOnce::Or(cs) if cs.len() == 3));
    }

    #[test]
    fn majority_is_not_read_once() {
        let d = dnf(&[&[0, 1], &[1, 2], &[0, 2]]);
        assert_eq!(factor(&d), None);
    }

    #[test]
    fn path_lineage_is_not_read_once() {
        // Non-hierarchical R(x),S(x,y),T(y) pattern over a 2×2 "zigzag":
        // r1 s11 t1 ∨ r1 s12 t2 ∨ r2 s22 t2 — vars r={0,1}, s={2,3,4}, t={5,6}.
        let d = dnf(&[&[0, 2, 5], &[0, 3, 6], &[1, 4, 6]]);
        assert_eq!(factor(&d), None);
    }

    #[test]
    fn connected_complement_is_not_read_once() {
        // The path x₁x₂ ∨ x₂x₃ ∨ x₃x₄ (sparse ids): its conjuncts share
        // variables (one ∨ component) and its co-occurrence graph, the path
        // P4, has a connected complement (one ∧ block), so the attempt
        // ends at the connected-complement check.
        let ids = [40u32, 3, 17, 900];
        let d = dnf(&[&[ids[0], ids[1]], &[ids[1], ids[2]], &[ids[2], ids[3]]]);
        let ranked: Vec<Vec<u32>> = vec![vec![0, 2], vec![0, 1], vec![1, 3]];
        let mut by_rank = vec![usize::MAX; 4];
        assert_eq!(or_components(&ranked, &mut by_rank), vec![vec![0, 1, 2]]);
        assert_eq!(and_blocks(&ranked, &mut by_rank).len(), 1);
        assert!(by_rank.iter().all(|&i| i == usize::MAX));
        assert_eq!(factor(&d), None);
        assert!(crate::fingerprint(&d).tree().is_none());
    }

    #[test]
    fn absorption_is_applied_before_factoring() {
        // x ∨ (x∧y) minimizes to x: read-once trivially.
        let d = dnf(&[&[0], &[0, 1]]);
        assert_eq!(factor(&d), Some(ReadOnce::Var(VarId(0))));
    }

    #[test]
    fn nested_alternation() {
        // x ∧ (y ∨ (z ∧ w)): PIs = {x,y}, {x,z,w}.
        let d = dnf(&[&[0, 1], &[0, 2, 3]]);
        let t = factor(&d).unwrap();
        assert!(t.is_well_formed());
        assert!(equivalent(&t, &d, 4));
    }

    #[test]
    fn grid_16x16_factors_instantly() {
        // The case that is intractable for Tseytin+compile: 256 conjuncts.
        let mut d = Dnf::new();
        for i in 0..16u32 {
            for j in 0..16u32 {
                d.add_conjunct(vec![VarId(i), VarId(16 + j)]);
            }
        }
        let t = factor(&d).unwrap();
        assert!(t.is_well_formed());
        assert_eq!(t.vars().len(), 32);
        assert!(matches!(&t, ReadOnce::And(cs) if cs.len() == 2));
    }

    #[test]
    fn display_and_to_circuit_roundtrip() {
        let d = dnf(&[&[0], &[1, 2]]);
        let t = factor(&d).unwrap();
        let mut c = Circuit::new();
        let root = t.to_circuit(&mut c);
        for mask in 0u64..8 {
            let mut s = Bitset::new(3);
            for i in 0..3 {
                if mask >> i & 1 == 1 {
                    s.insert(i);
                }
            }
            assert_eq!(c.eval_set(root, &s), d.eval_set(&s));
        }
        assert!(!t.to_string().is_empty());
    }

    #[test]
    fn sparse_variable_ids_are_preserved() {
        // Non-dense var ids exercise the rank mapping.
        let d = dnf(&[&[100, 7], &[100, 900]]);
        let t = factor(&d).unwrap();
        assert!(t.is_well_formed());
        assert_eq!(t.vars(), vec![VarId(7), VarId(100), VarId(900)]);
    }
}
