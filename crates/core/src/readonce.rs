//! Shapley values directly from read-once lineages — no knowledge
//! compilation.
//!
//! A read-once formula is decomposable at *every* gate: `∧` children are
//! variable-disjoint (the d-DNNF condition) but so are `∨` children. That
//! second property buys exactly what determinism buys in Algorithm 1: a
//! well-defined `#SAT_k` recurrence. At an `∨` gate with variable-disjoint
//! children the *unsatisfying* assignments factor —
//! `UNSAT(g₁ ∨ g₂) = UNSAT(g₁) ⊗ UNSAT(g₂)` — so level-wise counts follow by
//! convolution and complementation (`#UNSAT_ℓ = C(n,ℓ) − #SAT_ℓ`).
//!
//! Hierarchical self-join-free CQs always have read-once lineages, so this
//! module *is* the polynomial-time algorithm of Livshits et al. that the
//! paper cites as the known tractable case — implemented here as a fast path
//! that the [`crate::engine::Planner`] tries before paying for Tseytin +
//! compilation. It also covers many non-hierarchical outputs: the
//! complete-bipartite `q2` pattern of the running example factors as
//! `(⋁xᵢ) ∧ (⋁yⱼ)` and is handled here in linear time, while its Tseytin
//! CNF is exponential for the DPLL compiler.
//!
//! # Cost
//!
//! Conditioning a fact `f → 0` only changes the counts of `f`'s ancestors
//! — a root-to-leaf *path* in a tree. At an ancestor `p` with on-path child
//! `c`, the conditioned array is `cur ⊛ others`, where `others` is the
//! product of `c`'s siblings: their `#SAT` arrays at `∧`, their `#UNSAT`
//! arrays at `∨`. `others` is never rebuilt from the siblings; it is the
//! exact polynomial quotient of `p`'s base array by `c`'s. Constants are
//! folded when the tree is flattened, so every non-root node is a monotone
//! non-constant function: `#SAT_c[n_c] = 1` and `#UNSAT_c[0] = 1`. The
//! divisor is therefore monic — at the top for `∧`, at the bottom for `∨` —
//! and each quotient term is `total[j] − Σ`, where `Σ` is a partial sum of
//! the non-negative terms making up `total[j]`: an unsigned subtraction.
//! A path step costs `O(n_p · n_c) ⊆ O(m · n_c)` coefficient operations
//! (quotient plus one convolution). The `f → 1` array follows from the base
//! root by subtraction (`exact::derive_gamma`), so a fact takes one
//! conditioned pass.
//!
//! Many facts take none. Swapping two isomorphic sibling subtrees — the
//! arms of a star, the variables under one `∨` — maps the lineage to
//! itself, so by the symmetry axiom the facts it exchanges get equal
//! Shapley and Banzhaf values, and equal SHAP-scores under a uniform
//! marginal, whose product distribution the swap also preserves. The
//! orbits under these swaps come from the tree's canonical form
//! ([`ReadOnce::canonical_leaves`], the same AHU classes the fingerprint
//! orders its variables by), mapped onto the arena's leaves.
//! One conditioned pass runs per representative, and the rest of its
//! orbit gets a clone of its value, so a star of `h` arms with `s` spokes
//! each costs two passes, not `h · (1 + s)`. The passes run are counted in
//! `readonce.conditioned_passes`.
//!
//! The arithmetic runs on Algorithm 1's [`Coeff`] tiers. Every count,
//! complement `C(n, ℓ) − #SAT_ℓ`, convolution partial sum and quotient
//! partial sum is at most `C(m, ⌊m/2⌋)` for the root's `m` variables, so
//! [`alpha_cap_bits`]`(m)` picks `Vli<1/2/4/8>` or, past 512 bits,
//! [`BigUint`]. A fixed tier that overflows is a cap bug and panics.

use crate::exact::{derive_gamma, BinomRows, ShapleyTimeout};
use crate::measure::Measure;
use crate::weights::{completion_weights, PowerFold};
use shapdb_circuit::{ReadOnce, VarId};
use shapdb_metrics::counters::READONCE_CONDITIONED_PASSES;
use shapdb_num::{
    combinatorics::{alpha_cap_bits, BinomialTable, FactorialTable},
    BigUint, Coeff, Rational, Vli,
};
use std::collections::HashMap;
use std::time::Instant;

#[cfg(test)]
mod reference;

/// Arena node for the flattened read-once tree.
enum RNode {
    True,
    False,
    Var(VarId),
    And(Vec<usize>),
    Or(Vec<usize>),
}

/// Flattened tree with parent pointers (children precede parents).
///
/// Constants are folded while flattening: a gate holding its absorbing
/// constant (`⊥` under `∧`, `⊤` under `∨`) becomes that constant, neutral
/// constants are dropped, and a gate left with one child is that child. So
/// `True`/`False` only ever appear as the root, and every other node is a
/// monotone non-constant function. The variables of a folded-away subtree
/// are null players; they have no leaf.
struct Arena {
    nodes: Vec<RNode>,
    parent: Vec<Option<usize>>,
    /// Variables under each node.
    nvars: Vec<usize>,
    /// Leaf index of each variable.
    leaf_of: HashMap<VarId, usize>,
    root: usize,
    /// Variables of the subtrees folded into a constant.
    dropped: usize,
}

impl Arena {
    fn build(tree: &ReadOnce) -> Arena {
        let mut a = Arena {
            nodes: Vec::new(),
            parent: Vec::new(),
            nvars: Vec::new(),
            leaf_of: HashMap::new(),
            root: 0,
            dropped: 0,
        };
        a.root = match a.add(tree) {
            Ok(root) => root,
            Err(b) => a.push(if b { RNode::True } else { RNode::False }, 0),
        };
        a
    }

    /// Flattens `t`, returning its node or, if it folds, its constant.
    fn add(&mut self, t: &ReadOnce) -> Result<usize, bool> {
        let (cs, is_and) = match t {
            ReadOnce::True => return Err(true),
            ReadOnce::False => return Err(false),
            ReadOnce::Var(v) => {
                let leaf = self.push(RNode::Var(*v), 1);
                self.leaf_of.insert(*v, leaf);
                return Ok(leaf);
            }
            ReadOnce::And(cs) => (cs, true),
            ReadOnce::Or(cs) => (cs, false),
        };
        let start = self.nodes.len();
        let mut kids = Vec::with_capacity(cs.len());
        let mut absorbed = false;
        for c in cs {
            match self.add(c) {
                Ok(k) => kids.push(k),
                // `⊥` absorbs an `∧`, `⊤` an `∨`.
                Err(b) => absorbed |= b != is_and,
            }
        }
        if absorbed {
            for n in self.nodes.drain(start..) {
                if let RNode::Var(v) = n {
                    self.leaf_of.remove(&v);
                    self.dropped += 1;
                }
            }
            self.parent.truncate(start);
            self.nvars.truncate(start);
            return Err(!is_and);
        }
        match kids[..] {
            [] => Err(is_and),
            [only] => Ok(only),
            _ => {
                let nv = kids.iter().map(|&k| self.nvars[k]).sum();
                let idx = self.nodes.len();
                for &k in &kids {
                    self.parent[k] = Some(idx);
                }
                Ok(self.push(
                    if is_and {
                        RNode::And(kids)
                    } else {
                        RNode::Or(kids)
                    },
                    nv,
                ))
            }
        }
    }

    fn push(&mut self, node: RNode, nvars: usize) -> usize {
        self.nodes.push(node);
        self.parent.push(None);
        self.nvars.push(nvars);
        self.nodes.len() - 1
    }

    /// The value of every variable in `vars`, in order: `solve(leaf)`
    /// once per orbit representative (a conditioned pass, counted as
    /// `passes`), cloned for the rest of its orbit; a variable folded
    /// under a constant is a null player. The orbits are `tree`'s
    /// canonical ones, mapped onto the arena's leaves: leaves swapped by
    /// an automorphism of the tree get equal values, and isomorphic
    /// subtrees fold alike, so an orbit has an arena leaf for each of its
    /// members or for none.
    fn per_orbit(
        &self,
        tree: &ReadOnce,
        vars: Vec<VarId>,
        deadline: Option<Instant>,
        passes: u64,
        mut solve: impl FnMut(usize) -> Rational,
    ) -> Result<Vec<(VarId, Rational)>, ShapleyTimeout> {
        let canon = tree.canonical_leaves();
        let mut rep: Vec<usize> = (0..self.nodes.len()).collect();
        for (v, &r) in canon.order.iter().zip(&canon.orbit) {
            if let Some(&leaf) = self.leaf_of.get(v) {
                rep[leaf] = self.leaf_of[&canon.order[r as usize]];
            }
        }
        let mut solved: Vec<Option<Rational>> = vec![None; self.nodes.len()];
        let mut out = Vec::with_capacity(vars.len());
        for v in vars {
            let Some(&leaf) = self.leaf_of.get(&v) else {
                out.push((v, Rational::zero()));
                continue;
            };
            let rep = rep[leaf];
            if solved[rep].is_none() {
                if deadline.is_some_and(|d| Instant::now() > d) {
                    return Err(ShapleyTimeout);
                }
                READONCE_CONDITIONED_PASSES.add(passes);
                solved[rep] = Some(solve(rep));
            }
            out.push((v, solved[rep].clone().expect("solved above")));
        }
        Ok(out)
    }
}

/// `out = a ⊛ b`: the level-wise product of two variable-disjoint
/// functions' count arrays.
fn convolve_into<C: Coeff>(a: &[C], b: &[C], out: &mut Vec<C>) {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    out.clear();
    out.resize(a.len() + b.len() - 1, C::zero());
    for (i, s) in short.iter().enumerate() {
        if !s.is_zero() {
            C::fold_add_mul(&mut out[i..i + long.len()], long, s);
        }
    }
}

/// `counts[ℓ] ← C(n, ℓ) − counts[ℓ]` over `n = counts.len() − 1`
/// variables: `#SAT` ↔ `#UNSAT` (an involution).
fn complement<C: Coeff>(counts: &mut [C], rows: &mut BinomRows<C>) {
    let row = rows.row(counts.len() - 1);
    for (c, total) in counts.iter_mut().zip(row) {
        *c = total.sub_ref(c);
    }
}

/// The exact quotient `q` of `total = div ⊛ q`. `div` is monic at the top
/// (`from_top`, an `∧` child's `#SAT`) or at the bottom (an `∨` child's
/// `#UNSAT`), so each `q` term is `total[j]` minus the already-known terms
/// — never negative, since all terms of `total[j]` are.
fn quotient<C: Coeff>(total: &[C], div: &[C], from_top: bool, q: &mut Vec<C>) {
    let nd = div.len() - 1;
    let nq = total.len() - nd;
    q.clear();
    q.resize(nq, C::zero());
    if from_top {
        debug_assert!(div[nd] == C::one());
        for k in (0..nq).rev() {
            let mut sum = C::zero();
            for i in (k + nd + 1).saturating_sub(nq)..nd {
                sum.add_mul_assign(&div[i], &q[k + nd - i]);
            }
            q[k] = total[k + nd].sub_ref(&sum);
        }
    } else {
        debug_assert!(div[0] == C::one());
        for k in 0..nq {
            let mut sum = C::zero();
            for i in 1..=k.min(nd) {
                sum.add_mul_assign(&div[i], &q[k - i]);
            }
            q[k] = total[k].sub_ref(&sum);
        }
    }
}

/// The counting DP on one coefficient tier: base `#SAT_ℓ`/`#UNSAT_ℓ`
/// arrays (`ℓ = 0..=nvars`) of every node, and the scratch the
/// conditioned passes reuse.
struct CountDp<C> {
    sat: Vec<Vec<C>>,
    unsat: Vec<Vec<C>>,
    /// Binomial rows in the tier, converted only for the widths used.
    rows: BinomRows<C>,
    cur: Vec<C>,
    next: Vec<C>,
    quot: Vec<C>,
}

impl<C: Coeff> CountDp<C> {
    /// The base pass, bottom-up: `∧` convolves its children's `#SAT`,
    /// `∨` their `#UNSAT`.
    fn new(a: &Arena) -> CountDp<C> {
        let mut dp = CountDp {
            sat: Vec::with_capacity(a.nodes.len()),
            unsat: Vec::with_capacity(a.nodes.len()),
            rows: BinomRows::new(),
            cur: Vec::new(),
            next: Vec::new(),
            quot: Vec::new(),
        };
        for n in &a.nodes {
            let (sat, unsat) = match n {
                RNode::True => (vec![C::one()], vec![C::zero()]),
                RNode::False => (vec![C::zero()], vec![C::one()]),
                RNode::Var(_) => (vec![C::zero(), C::one()], vec![C::one(), C::zero()]),
                RNode::And(kids) | RNode::Or(kids) => {
                    let is_and = matches!(n, RNode::And(_));
                    let arrays = if is_and { &dp.sat } else { &dp.unsat };
                    let mut prod = vec![C::one()];
                    for &k in kids {
                        convolve_into(&prod, &arrays[k], &mut dp.next);
                        std::mem::swap(&mut prod, &mut dp.next);
                    }
                    let mut other = prod.clone();
                    complement(&mut other, &mut dp.rows);
                    if is_and {
                        (prod, other)
                    } else {
                        (other, prod)
                    }
                }
            };
            dp.sat.push(sat);
            dp.unsat.push(unsat);
        }
        dp
    }

    /// `δ`: the root's `#SAT` array with `leaf`'s variable fixed to 0
    /// (over the other `m − 1` variables), into `delta`.
    fn delta_root(&mut self, a: &Arena, leaf: usize, delta: &mut Vec<C>) {
        let CountDp {
            sat,
            unsat,
            rows,
            cur,
            next,
            quot,
        } = self;
        // `cur` is the conditioned child in its parent's product form
        // (`#SAT` under `∧`, `#UNSAT` under `∨`); the leaf starts as `⊥`
        // over no variables.
        cur.clear();
        cur.push(C::zero());
        let mut sat_form = true;
        let mut child = leaf;
        while let Some(p) = a.parent[child] {
            let at_and = matches!(a.nodes[p], RNode::And(_));
            if sat_form != at_and {
                complement(cur, rows);
                sat_form = at_and;
            }
            let base = if at_and { &*sat } else { &*unsat };
            quotient(&base[p], &base[child], at_and, quot);
            convolve_into(cur, quot, next);
            std::mem::swap(cur, next);
            child = p;
        }
        if !sat_form {
            complement(cur, rows);
        }
        std::mem::swap(delta, cur);
    }
}

/// Exact Shapley value of every variable of a read-once lineage.
///
/// Returns `(fact, value)` pairs for the tree's variables, in variable
/// order. Facts of `D_n` outside the tree are null players (value 0) and are
/// omitted, exactly as in [`crate::exact::shapley_all_facts`]; `n_endo` is
/// accepted for interface symmetry and only validated.
pub fn shapley_read_once(
    tree: &ReadOnce,
    n_endo: usize,
    deadline: Option<Instant>,
) -> Result<Vec<(VarId, Rational)>, ShapleyTimeout> {
    power_read_once(tree, n_endo, deadline, Measure::Shapley)
}

/// Exact power index (Shapley or Banzhaf) of every variable of a read-once
/// lineage: one conditioned path pass per orbit of interchangeable facts
/// (see the module's `# Cost`), folded by the measure's
/// `weights::PowerFold`.
///
/// # Panics
///
/// If `measure` is not a power index.
pub fn power_read_once(
    tree: &ReadOnce,
    n_endo: usize,
    deadline: Option<Instant>,
    measure: Measure,
) -> Result<Vec<(VarId, Rational)>, ShapleyTimeout> {
    assert!(
        measure.is_power_index(),
        "{measure} is not a Γ/Δ power index"
    );
    let vars = tree.vars();
    assert!(
        n_endo >= vars.len(),
        "|D_n| = {n_endo} smaller than the {} tree variables",
        vars.len()
    );
    let a = Arena::build(tree);
    let m = a.nvars[a.root];
    if m == 0 {
        // Constant lineage: every variable is a null player.
        return Ok(vars.into_iter().map(|v| (v, Rational::zero())).collect());
    }
    let mut fold = PowerFold::new(measure, m);
    let bits = alpha_cap_bits(m);
    let run = if bits <= 64 {
        power_facts::<Vli<1>>
    } else if bits <= 128 {
        power_facts::<Vli<2>>
    } else if bits <= 256 {
        power_facts::<Vli<4>>
    } else if bits <= 512 {
        power_facts::<Vli<8>>
    } else {
        power_facts::<BigUint>
    };
    run(&a, tree, vars, deadline, &mut fold)
}

/// [`power_read_once`] on one coefficient tier: one conditioned pass per
/// orbit representative (`Arena::per_orbit`).
fn power_facts<C: Coeff>(
    a: &Arena,
    tree: &ReadOnce,
    vars: Vec<VarId>,
    deadline: Option<Instant>,
    fold: &mut PowerFold,
) -> Result<Vec<(VarId, Rational)>, ShapleyTimeout> {
    let mut dp = CountDp::<C>::new(a);
    let base_root = dp.sat[a.root].clone();
    let (mut gamma, mut delta) = (Vec::new(), Vec::new());
    a.per_orbit(tree, vars, deadline, 1, |rep| {
        dp.delta_root(a, rep, &mut delta);
        derive_gamma(&base_root, &delta, &mut gamma);
        fold.value(&gamma, &delta)
    })
}

/// `#SAT_ℓ` array of a read-once tree over its own variables (test oracle
/// and building block for probability computation on factorized lineages).
pub fn sat_k_read_once(tree: &ReadOnce) -> Vec<BigUint> {
    let a = Arena::build(tree);
    let dp = CountDp::<BigUint>::new(&a);
    // Variables folded under a constant are free: each level spreads by
    // `C(dropped, ·)`.
    let mut out = Vec::new();
    convolve_into(
        &dp.sat[a.root],
        BinomialTable::new().row(a.dropped),
        &mut out,
    );
    out
}

// ---------------------------------------------------------------------------
// SHAP-scores on read-once trees: leaf→root conditioned passes like the
// counting DP above (re-convolving the siblings, not dividing them out),
// with probability-weighted rational entries
// `β_g[ℓ] = Σ_{S ⊆ Vars(g), |S| = ℓ} Pr[g | S fixed to 1]` (the read-once
// analogue of `crate::shap_score::ShapDp`). The complement trick survives
// the probabilistic lift: `Σ_{|S|=ℓ} Pr[g | S] + Σ_{|S|=ℓ} Pr[¬g | S] =
// C(n, ℓ)`, so an `∨` gate is still complement → convolve → complement.
// ---------------------------------------------------------------------------

/// `β̄_g[ℓ] = C(n, ℓ) − β_g[ℓ]`: the probabilistic complement (involution).
fn shap_complement(
    betas: &[Rational],
    nvars: usize,
    binomials: &mut BinomialTable,
) -> Vec<Rational> {
    let row = binomials.row(nvars).to_vec();
    betas
        .iter()
        .zip(row)
        .map(|(b, total)| &Rational::from_biguint(total) - b)
        .collect()
}

/// Level-wise product of variable-disjoint events (rational convolution).
fn shap_convolve(arrays: &[&[Rational]]) -> Vec<Rational> {
    let mut acc = vec![Rational::one()];
    for arr in arrays {
        let mut next = vec![Rational::zero(); acc.len() + arr.len() - 1];
        for (i, ai) in acc.iter().enumerate() {
            if ai.is_zero() {
                continue;
            }
            for (j, bj) in arr.iter().enumerate() {
                if bj.is_zero() {
                    continue;
                }
                next[i + j] += &(ai * bj);
            }
        }
        acc = next;
    }
    acc
}

/// `β` arrays for every node, bottom-up, under uniform marginal `p`.
fn shap_base_counts(a: &Arena, p: &Rational, binomials: &mut BinomialTable) -> Vec<Vec<Rational>> {
    let mut betas: Vec<Vec<Rational>> = Vec::with_capacity(a.nodes.len());
    for (i, n) in a.nodes.iter().enumerate() {
        let b = match n {
            RNode::True => vec![Rational::one()],
            RNode::False => vec![Rational::zero()],
            // ℓ=0: Pr[v=1] = p; ℓ=1 (v fixed to 1): satisfied.
            RNode::Var(_) => vec![p.clone(), Rational::one()],
            RNode::And(kids) => {
                let arrays: Vec<&[Rational]> = kids.iter().map(|&k| betas[k].as_slice()).collect();
                shap_convolve(&arrays)
            }
            RNode::Or(kids) => {
                let bars: Vec<Vec<Rational>> = kids
                    .iter()
                    .map(|&k| shap_complement(&betas[k], a.nvars[k], binomials))
                    .collect();
                let refs: Vec<&[Rational]> = bars.iter().map(Vec::as_slice).collect();
                shap_complement(&shap_convolve(&refs), a.nvars[i], binomials)
            }
        };
        debug_assert_eq!(b.len(), a.nvars[i] + 1);
        betas.push(b);
    }
    betas
}

/// Recomputes `β` along the path from `leaf` to the root with the leaf's
/// variable conditioned to `value` (a constant over zero variables), reusing
/// the base arrays for every off-path child.
fn shap_conditioned_root(
    a: &Arena,
    base: &[Vec<Rational>],
    leaf: usize,
    value: bool,
    binomials: &mut BinomialTable,
) -> Vec<Rational> {
    let mut cur = if value {
        vec![Rational::one()]
    } else {
        vec![Rational::zero()]
    };
    let mut child = leaf;
    while let Some(p) = a.parent[child] {
        let kids = match &a.nodes[p] {
            RNode::And(kids) | RNode::Or(kids) => kids,
            _ => unreachable!("leaf parents are gates"),
        };
        let is_and = matches!(&a.nodes[p], RNode::And(_));
        if is_and {
            let mut arrays: Vec<&[Rational]> = Vec::with_capacity(kids.len());
            for &k in kids {
                arrays.push(if k == child {
                    cur.as_slice()
                } else {
                    base[k].as_slice()
                });
            }
            cur = shap_convolve(&arrays);
        } else {
            let mut bars: Vec<Vec<Rational>> = Vec::with_capacity(kids.len());
            for &k in kids {
                if k == child {
                    bars.push(shap_complement(&cur, a.nvars[k] - 1, binomials));
                } else {
                    bars.push(shap_complement(&base[k], a.nvars[k], binomials));
                }
            }
            let refs: Vec<&[Rational]> = bars.iter().map(Vec::as_slice).collect();
            cur = shap_complement(&shap_convolve(&refs), a.nvars[p] - 1, binomials);
        }
        debug_assert_eq!(cur.len(), a.nvars[p]);
        child = p;
    }
    cur
}

/// Exact SHAP-score of every variable of a read-once lineage under the
/// product distribution with uniform marginal `p` per feature — no
/// knowledge compilation, the read-once counterpart of
/// [`crate::shap_score::shap_scores`].
///
/// With `p = 0` the result equals the Shapley values (the paper's §6.2
/// background-`0⃗` adaptation); the engine's `shap-score` measure uses
/// `p = ½`. Facts outside the tree are dummies (score 0) and are omitted;
/// this is sound for any ambient `n_endo` because dummy features are null
/// players of the SHAP game.
pub fn shap_read_once(
    tree: &ReadOnce,
    n_endo: usize,
    deadline: Option<Instant>,
    p: &Rational,
) -> Result<Vec<(VarId, Rational)>, ShapleyTimeout> {
    let vars = tree.vars();
    assert!(
        n_endo >= vars.len(),
        "|D_n| = {n_endo} smaller than the {} tree variables",
        vars.len()
    );
    if vars.is_empty() {
        return Ok(Vec::new());
    }
    let a = Arena::build(tree);
    let m = a.nvars[a.root];
    let mut binomials = BinomialTable::new();
    let base = shap_base_counts(&a, p, &mut binomials);

    let mut facts_table = FactorialTable::new();
    let weights = completion_weights(m, &mut facts_table);
    let denom = Rational::from_biguint(facts_table.get(m).clone());
    let one_minus_p = &Rational::one() - p;

    // One pair of passes per orbit: a uniform marginal makes the product
    // distribution invariant under the tree's automorphisms too. A
    // variable folded under a constant is a dummy feature.
    a.per_orbit(tree, vars, deadline, 2, |rep| {
        let beta1 = shap_conditioned_root(&a, &base, rep, true, &mut binomials);
        let beta0 = shap_conditioned_root(&a, &base, rep, false, &mut binomials);
        debug_assert_eq!(beta1.len(), m);
        debug_assert_eq!(beta0.len(), m);
        // Γ − Δ = (1 − p) · (β¹ − β⁰), folded into the weighted sum.
        let mut numer = Rational::zero();
        for ((b1, b0), w) in beta1.iter().zip(&beta0).zip(&weights) {
            let diff = b1 - b0;
            if diff.is_zero() {
                continue;
            }
            numer += &(&diff * &Rational::from_biguint(w.clone()));
        }
        &(&numer * &one_minus_p) / &denom
    })
}

#[cfg(test)]
mod tests {
    use super::reference::{reference_power, reference_sat_k};
    use super::*;
    use crate::naive::{sat_k_bruteforce, shapley_naive};
    use proptest::prelude::*;
    use shapdb_circuit::{factor, fingerprint, Dnf};
    use shapdb_metrics::counters::Profile;
    use shapdb_num::Bitset;
    use std::sync::Arc;

    fn dnf(conjs: &[&[u32]]) -> Dnf {
        let mut d = Dnf::new();
        for c in conjs {
            d.add_conjunct(c.iter().map(|&v| VarId(v)).collect());
        }
        d
    }

    #[test]
    fn running_example_values_match_example_2_1() {
        let d = dnf(&[&[0], &[1, 3], &[1, 4], &[2, 3], &[2, 4], &[5, 6]]);
        let tree = factor(&d).expect("read-once");
        let got = shapley_read_once(&tree, 8, None).unwrap();
        let by_var: HashMap<u32, Rational> = got.into_iter().map(|(v, r)| (v.0, r)).collect();
        assert_eq!(by_var[&0], Rational::from_ratio(43, 105));
        for v in [1, 2, 3, 4] {
            assert_eq!(by_var[&v], Rational::from_ratio(23, 210), "a{}", v + 1);
        }
        for v in [5, 6] {
            assert_eq!(by_var[&v], Rational::from_ratio(8, 105), "a{}", v + 1);
        }
    }

    #[test]
    fn q2_values_match_example_5_3() {
        // (a2∧a4)∨(a2∧a5)∨(a3∧a4)∨(a3∧a5)∨(a6∧a7): 11/60 ×4, 2/15 ×2.
        let d = dnf(&[&[0, 2], &[0, 3], &[1, 2], &[1, 3], &[4, 5]]);
        let tree = factor(&d).expect("read-once");
        let got = shapley_read_once(&tree, 6, None).unwrap();
        let by_var: HashMap<u32, Rational> = got.into_iter().map(|(v, r)| (v.0, r)).collect();
        for v in 0..4 {
            assert_eq!(by_var[&v], Rational::from_ratio(11, 60));
        }
        assert_eq!(by_var[&4], Rational::from_ratio(2, 15));
        assert_eq!(by_var[&5], Rational::from_ratio(2, 15));
    }

    #[test]
    fn non_read_once_returns_none() {
        let d = dnf(&[&[0, 1], &[1, 2], &[0, 2]]);
        assert!(factor(&d).is_none());
    }

    #[test]
    fn sat_k_matches_bruteforce() {
        let d = dnf(&[&[0], &[1, 3], &[1, 4], &[2, 3], &[2, 4], &[5, 6]]);
        let tree = factor(&d).unwrap();
        let f = |s: &Bitset| d.eval_set(s);
        assert_eq!(sat_k_read_once(&tree), sat_k_bruteforce(&f, 7));
    }

    #[test]
    fn banzhaf_matches_naive_on_running_example() {
        let d = dnf(&[&[0], &[1, 3], &[1, 4], &[2, 3], &[2, 4], &[5, 6]]);
        let tree = factor(&d).unwrap();
        let expect = crate::banzhaf::banzhaf_naive(&|s: &Bitset| d.eval_set(s), 7);
        // n_endo > m exercises the null-player invariance of the uniform
        // weights: the values over 9 endogenous facts equal those over 7.
        for n_endo in [7, 9] {
            let got = power_read_once(&tree, n_endo, None, Measure::Banzhaf).unwrap();
            for (v, r) in got {
                assert_eq!(r, expect[v.index()], "var {} at n_endo {n_endo}", v.0);
            }
        }
    }

    #[test]
    fn shap_read_once_matches_bruteforce_at_half() {
        let d = dnf(&[&[0], &[1, 3], &[1, 4], &[2, 3], &[2, 4], &[5, 6]]);
        let tree = factor(&d).unwrap();
        let half = Rational::from_ratio(1, 2);
        let expect =
            crate::shap_score::shap_naive(&|s: &Bitset| d.eval_set(s), &vec![half.clone(); 7]);
        let got = shap_read_once(&tree, 7, None, &half).unwrap();
        for (v, r) in got {
            assert_eq!(r, expect[v.index()], "var {}", v.0);
        }
    }

    #[test]
    fn shap_read_once_with_zero_background_is_shapley() {
        // p ≡ 0 is the §6.2 adaptation: SHAP-score = Shapley value.
        let d = dnf(&[&[0], &[1, 3], &[1, 4], &[2, 3], &[2, 4], &[5, 6]]);
        let tree = factor(&d).unwrap();
        let got = shap_read_once(&tree, 7, None, &Rational::zero()).unwrap();
        let shapley = shapley_read_once(&tree, 7, None).unwrap();
        assert_eq!(got, shapley);
    }

    #[test]
    fn grid_is_fast_and_exact() {
        // grid(12,12): 144 conjuncts, intractable via Tseytin+compile, but
        // symmetric — each xᵢ gets the same value, checked via efficiency.
        let mut d = Dnf::new();
        for i in 0..12u32 {
            for j in 0..12u32 {
                d.add_conjunct(vec![VarId(i), VarId(12 + j)]);
            }
        }
        let tree = factor(&d).expect("read-once");
        let got = shapley_read_once(&tree, 24, None).unwrap();
        assert_eq!(got.len(), 24);
        let first = got[0].1.clone();
        let mut total = Rational::zero();
        for (_, v) in &got {
            assert_eq!(*v, first, "symmetric facts share the value");
            total += v;
        }
        // Efficiency: the grand coalition satisfies the query, ∅ does not.
        assert_eq!(total, Rational::one());
    }

    #[test]
    fn deadline_is_respected() {
        let d = dnf(&[&[0], &[1, 2]]);
        let past = Instant::now() - std::time::Duration::from_millis(1);
        let tree = factor(&d).expect("read-once");
        let r = shapley_read_once(&tree, 3, Some(past));
        assert_eq!(r, Err(ShapleyTimeout));
    }

    #[test]
    fn constant_trees_have_no_players() {
        assert_eq!(shapley_read_once(&ReadOnce::True, 5, None).unwrap(), vec![]);
        assert_eq!(
            shapley_read_once(&ReadOnce::False, 5, None).unwrap(),
            vec![]
        );
    }

    /// Strategy: a random read-once tree over a permutation of `0..n` vars.
    fn arb_read_once(vars: Vec<u32>) -> ReadOnce {
        let salt = vars
            .iter()
            .fold(1u64, |acc, &v| acc.wrapping_mul(v as u64 + 1));
        random_tree(&vars, true, salt)
    }

    /// A random binary read-once tree over `vars`, alternating gate kinds
    /// from `or_level` down; `salt` drives the (deterministic) split points.
    fn random_tree(vars: &[u32], or_level: bool, salt: u64) -> ReadOnce {
        match vars {
            [] => ReadOnce::True,
            [v] => ReadOnce::Var(VarId(*v)),
            _ => {
                let cut = 1 + (salt as usize % (vars.len() - 1));
                let (l, r) = vars.split_at(cut);
                let kids = vec![
                    random_tree(
                        l,
                        !or_level,
                        salt.wrapping_mul(6364136223846793005).wrapping_add(1),
                    ),
                    random_tree(
                        r,
                        !or_level,
                        salt.wrapping_mul(1442695040888963407).wrapping_add(3),
                    ),
                ];
                if or_level {
                    ReadOnce::Or(kids)
                } else {
                    ReadOnce::And(kids)
                }
            }
        }
    }

    /// A random wide tree over `0..n`: one `∨` (or `∧`) root over random
    /// binary subtrees of 1–12 variables each, whose top gates take either
    /// kind (so `∨` under `∨` occurs too). Paths stay short, which keeps
    /// the debug-build oracle affordable at hundreds of variables.
    fn random_wide_tree(n: usize, seed: u64, or_root: bool) -> ReadOnce {
        let vars = permutation(n, seed);
        let mut state = seed | 1;
        let mut kids = Vec::new();
        let mut rest = &vars[..];
        while !rest.is_empty() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let size = (1 + (state >> 33) as usize % 12).min(rest.len());
            let (chunk, tail) = rest.split_at(size);
            kids.push(random_tree(chunk, (state >> 20) & 1 == 1, state));
            rest = tail;
        }
        if or_root {
            ReadOnce::Or(kids)
        } else {
            ReadOnce::And(kids)
        }
    }

    /// Asserts the tiered DP ≡ the `BigUint` oracle on `tree`: Shapley and
    /// Banzhaf at up to `sample` evenly spaced variables, and the base
    /// root's `#SAT` array. Every Shapley value enters an efficiency check
    /// (Σφ = 1 for a non-constant monotone lineage).
    fn assert_matches_reference(tree: &ReadOnce, sample: usize) {
        let vars = tree.vars();
        let picked: Vec<VarId> = vars
            .iter()
            .copied()
            .step_by(vars.len().div_ceil(sample).max(1))
            .collect();
        for measure in [Measure::Shapley, Measure::Banzhaf] {
            let got = power_read_once(tree, vars.len(), None, measure).unwrap();
            assert_eq!(got.iter().map(|(v, _)| *v).collect::<Vec<_>>(), vars);
            let got: HashMap<VarId, Rational> = got.into_iter().collect();
            let expect = reference_power(tree, &picked, measure);
            for (v, e) in picked.iter().zip(&expect) {
                assert_eq!(&got[v], e, "{measure}: var {} of {}", v.0, vars.len());
            }
            if measure == Measure::Shapley {
                let mut total = Rational::zero();
                for r in got.values() {
                    total += r;
                }
                assert_eq!(total, Rational::one(), "efficiency at m = {}", vars.len());
            }
        }
        assert_eq!(sat_k_read_once(tree), reference_sat_k(tree));
    }

    #[test]
    fn tier_boundaries_are_where_the_tests_expect() {
        for (m, bits) in [(67, 64), (68, 65), (131, 128), (132, 129)] {
            assert_eq!(alpha_cap_bits(m), bits, "m = {m}");
        }
        assert!(alpha_cap_bits(260) <= 256 && alpha_cap_bits(261) > 256);
        assert!(alpha_cap_bits(516) <= 512 && alpha_cap_bits(517) > 512);
    }

    #[test]
    fn flat_shapes_match_reference_at_every_tier() {
        for m in [1, 2, 67, 68, 131, 132, 260, 261, 516, 517] {
            let leaves = || (0..m as u32).map(|v| ReadOnce::Var(VarId(v))).collect();
            assert_matches_reference(&ReadOnce::Or(leaves()), 2);
            assert_matches_reference(&ReadOnce::And(leaves()), 2);
        }
    }

    #[test]
    fn fold_boundaries_match_reference() {
        // The u128 fold covers Shapley up to 28 facts and Banzhaf up to
        // 127; the limb fold takes over past them.
        for m in [28, 29, 127, 128] {
            for (seed, or_root) in [(1, false), (2, true)] {
                assert_matches_reference(&random_wide_tree(m, seed, or_root), 16);
            }
        }
    }

    #[test]
    #[ignore = "48 facts of 516/517-fact trees on the BigUint oracle; run by `make test-release-wide`"]
    fn widest_tier_boundary_matches_reference_on_many_facts() {
        for m in [516, 517] {
            for (seed, or_root) in [(3, false), (4, true)] {
                assert_matches_reference(&random_wide_tree(m, seed, or_root), 48);
            }
        }
    }

    #[test]
    fn star_shapes_match_reference_at_every_tier() {
        // ⋁ᵢ (hᵢ ∧ ⋁ⱼ yᵢⱼ): the lineage of a hierarchical star query.
        for (hubs, spokes) in [(2, 1), (4, 16), (11, 11), (29, 8)] {
            let mut next = 0u32;
            let mut var = || {
                next += 1;
                ReadOnce::Var(VarId(next - 1))
            };
            let tree = ReadOnce::Or(
                (0..hubs)
                    .map(|_| {
                        let hub = var();
                        ReadOnce::And(vec![
                            hub,
                            ReadOnce::Or((0..spokes).map(|_| var()).collect()),
                        ])
                    })
                    .collect(),
            );
            assert_matches_reference(&tree, 8);
        }
    }

    #[test]
    fn deep_alternating_chains_match_reference() {
        // x₀ ∨ (x₁ ∧ (x₂ ∨ (x₃ ∧ …))): every fact's path is long.
        for m in [2u32, 3, 40, 68, 132] {
            let mut tree = ReadOnce::Var(VarId(m - 1));
            for v in (0..m - 1).rev() {
                let kids = vec![ReadOnce::Var(VarId(v)), tree];
                tree = if v % 2 == 0 {
                    ReadOnce::Or(kids)
                } else {
                    ReadOnce::And(kids)
                };
            }
            assert_matches_reference(&tree, 12);
        }
    }

    /// Evaluates a tree on the set of true variables.
    fn eval(t: &ReadOnce, s: &Bitset) -> bool {
        match t {
            ReadOnce::True => true,
            ReadOnce::False => false,
            ReadOnce::Var(v) => s.contains(v.index()),
            ReadOnce::And(cs) => cs.iter().all(|c| eval(c, s)),
            ReadOnce::Or(cs) => cs.iter().any(|c| eval(c, s)),
        }
    }

    #[test]
    fn constant_children_match_naive() {
        use ReadOnce::{And, False, Or, True};
        let x = |v: u32| ReadOnce::Var(VarId(v));
        let trees = [
            Or(vec![True, x(0)]),
            And(vec![False, x(0)]),
            And(vec![True, x(0), x(1)]),
            Or(vec![False, And(vec![x(0), x(1)]), x(2)]),
            Or(vec![
                And(vec![False, x(0), x(1)]),
                x(2),
                And(vec![x(3), Or(vec![True, x(4)])]),
            ]),
            And(vec![Or(vec![]), x(0)]),
            Or(vec![And(vec![]), x(0), x(1)]),
            And(vec![Or(vec![x(0), And(vec![x(1), False])]), x(2)]),
        ];
        let half = Rational::from_ratio(1, 2);
        for tree in &trees {
            let vars = tree.vars();
            let n = vars.iter().map(|v| v.index() + 1).max().unwrap();
            let f = |s: &Bitset| eval(tree, s);
            let shapley = shapley_naive(&f, n);
            let banzhaf = crate::banzhaf::banzhaf_naive(&f, n);
            let shap = crate::shap_score::shap_naive(&f, &vec![half.clone(); n]);
            for (measure, expect) in [(Measure::Shapley, &shapley), (Measure::Banzhaf, &banzhaf)] {
                let got = power_read_once(tree, n, None, measure).unwrap();
                assert_eq!(got.iter().map(|(v, _)| *v).collect::<Vec<_>>(), vars);
                for (v, r) in got {
                    assert_eq!(r, expect[v.index()], "{measure} var {} of {tree:?}", v.0);
                }
            }
            for (v, r) in shap_read_once(tree, n, None, &half).unwrap() {
                assert_eq!(r, shap[v.index()], "shap var {} of {tree:?}", v.0);
            }
            // Over the tree's own variables, renumbered densely.
            let dense = |s: &Bitset| {
                let mut sub = Bitset::new(n);
                for (i, v) in vars.iter().enumerate() {
                    if s.contains(i) {
                        sub.insert(v.index());
                    }
                }
                eval(tree, &sub)
            };
            assert_eq!(
                sat_k_read_once(tree),
                sat_k_bruteforce(&dense, vars.len()),
                "{tree:?}"
            );
        }
    }

    /// Expands a read-once tree to its prime-implicant DNF.
    fn expand(t: &ReadOnce) -> Dnf {
        fn rec(t: &ReadOnce) -> Vec<Vec<VarId>> {
            match t {
                ReadOnce::True => vec![vec![]],
                ReadOnce::False => vec![],
                ReadOnce::Var(v) => vec![vec![*v]],
                ReadOnce::Or(cs) => cs.iter().flat_map(rec).collect(),
                ReadOnce::And(cs) => {
                    let mut acc: Vec<Vec<VarId>> = vec![vec![]];
                    for c in cs {
                        let pis = rec(c);
                        let mut next = Vec::with_capacity(acc.len() * pis.len());
                        for a in &acc {
                            for p in &pis {
                                let mut merged = a.clone();
                                merged.extend_from_slice(p);
                                next.push(merged);
                            }
                        }
                        acc = next;
                    }
                    acc
                }
            }
        }
        let mut d = Dnf::new();
        for c in rec(t) {
            d.add_conjunct(c);
        }
        d
    }

    /// Deterministic pseudo-random permutation of `0..n` from a seed (LCG
    /// Fisher–Yates); keeps the proptest strategy free of extra crates.
    fn permutation(n: usize, seed: u64) -> Vec<u32> {
        let mut v: Vec<u32> = (0..n as u32).collect();
        let mut state = seed | 1;
        for i in (1..v.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            v.swap(i, j);
        }
        v
    }

    /// Next value of a 64-bit LCG (its high 31 bits).
    fn lcg(state: &mut u64) -> usize {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (*state >> 33) as usize
    }

    /// Leaves of a tree, counting repeats.
    fn leaves(t: &ReadOnce) -> usize {
        match t {
            ReadOnce::Var(_) => 1,
            ReadOnce::And(cs) | ReadOnce::Or(cs) => cs.iter().map(leaves).sum(),
            ReadOnce::True | ReadOnce::False => 0,
        }
    }

    /// Renumbers the leaves `next, next + 1, …` left to right, so copies
    /// of a shape get fresh variables.
    fn number(t: &ReadOnce, next: &mut u32) -> ReadOnce {
        match t {
            ReadOnce::Var(_) => {
                *next += 1;
                ReadOnce::Var(VarId(*next - 1))
            }
            ReadOnce::And(cs) => ReadOnce::And(cs.iter().map(|c| number(c, next)).collect()),
            ReadOnce::Or(cs) => ReadOnce::Or(cs.iter().map(|c| number(c, next)).collect()),
            constant => constant.clone(),
        }
    }

    /// A random tree with repeated shapes and at most `budget` leaves:
    /// each gate holds up to three child shapes, each repeated up to four
    /// times, of either gate kind (so `∨` under `∨` occurs), and now and
    /// then (with `constants`) a constant, which drops out or absorbs its
    /// gate. Leaves are unnumbered (see [`number`]).
    fn repeated_shapes(budget: usize, constants: bool, state: &mut u64) -> ReadOnce {
        if lcg(state).is_multiple_of(budget) {
            return ReadOnce::Var(VarId(0));
        }
        let mut kids = Vec::new();
        let mut left = budget;
        let shapes = 1 + lcg(state) % 3;
        for s in 0..shapes {
            let copies = 1 + lcg(state) % 4;
            let share = (left / (shapes - s) / copies).max(1);
            let shape = repeated_shapes(share, constants, state);
            let copies = copies.min(left / leaves(&shape));
            left -= copies * leaves(&shape);
            kids.extend(std::iter::repeat_n(shape, copies));
            if left == 0 {
                break;
            }
        }
        match lcg(state) % 8 {
            0 if constants => kids.push(ReadOnce::True),
            1 if constants => kids.push(ReadOnce::False),
            _ => {}
        }
        random_gate(kids, state)
    }

    /// An `∧` or an `∨` of `kids`, at random.
    fn random_gate(kids: Vec<ReadOnce>, state: &mut u64) -> ReadOnce {
        if lcg(state).is_multiple_of(2) {
            ReadOnce::And(kids)
        } else {
            ReadOnce::Or(kids)
        }
    }

    /// [`repeated_shapes`] with exactly `m` leaves: padded by a flat gate
    /// of fresh variables under a random root kind.
    fn repeated_shapes_of(m: usize, constants: bool, seed: u64) -> ReadOnce {
        let mut state = seed | 1;
        let mut tree = repeated_shapes(m, constants, &mut state);
        let pad = m - leaves(&tree);
        if pad > 0 {
            let flat = random_gate(vec![ReadOnce::Var(VarId(0)); pad], &mut state);
            tree = random_gate(vec![tree, flat], &mut state);
        }
        shuffled(&number(&tree, &mut 0), &mut state)
    }

    /// `t` with every gate's children in random order, so isomorphic
    /// copies list their children differently.
    fn shuffled(t: &ReadOnce, state: &mut u64) -> ReadOnce {
        let shuffle = |cs: &[ReadOnce], state: &mut u64| {
            let mut cs: Vec<ReadOnce> = cs.iter().map(|c| shuffled(c, state)).collect();
            for i in (1..cs.len()).rev() {
                cs.swap(i, lcg(state) % (i + 1));
            }
            cs
        };
        match t {
            ReadOnce::And(cs) => ReadOnce::And(shuffle(cs, state)),
            ReadOnce::Or(cs) => ReadOnce::Or(shuffle(cs, state)),
            leaf => leaf.clone(),
        }
    }

    /// `⋁ᵢ (hᵢ ∧ ⋁ⱼ yᵢⱼ)` with `hubs` isomorphic arms of `spokes` spokes,
    /// numbered from 0.
    fn star_of_stars(hubs: usize, spokes: usize) -> ReadOnce {
        let arm = ReadOnce::And(vec![
            ReadOnce::Var(VarId(0)),
            ReadOnce::Or(vec![ReadOnce::Var(VarId(0)); spokes]),
        ]);
        number(&ReadOnce::Or(vec![arm; hubs]), &mut 0)
    }

    /// `power_read_once`'s values and the conditioned passes its profile
    /// recorded.
    fn solve_counted(tree: &ReadOnce, measure: Measure) -> (Vec<(VarId, Rational)>, u64) {
        let profile = Arc::new(Profile::new());
        let values = {
            let _scope = profile.enter();
            power_read_once(tree, tree.vars().len(), None, measure).unwrap()
        };
        (values, profile.get(&READONCE_CONDITIONED_PASSES))
    }

    #[test]
    fn isomorphic_conjuncts_share_their_passes() {
        let x = |v: u32| ReadOnce::Var(VarId(v));
        for k in [1u32, 2, 5, 9] {
            // ⋁ᵢ (xᵢ ∧ yᵢ): every fact is interchangeable with every other.
            let pairs = ReadOnce::Or(
                (0..k)
                    .map(|i| ReadOnce::And(vec![x(2 * i), x(2 * i + 1)]))
                    .collect(),
            );
            // ⋁ᵢ (xᵢ ∧ (yᵢ ∨ zᵢ)): two orbits, the xᵢ and the rest.
            let arms = ReadOnce::Or(
                (0..k)
                    .map(|i| {
                        ReadOnce::And(vec![
                            x(3 * i),
                            ReadOnce::Or(vec![x(3 * i + 1), x(3 * i + 2)]),
                        ])
                    })
                    .collect(),
            );
            for (tree, passes) in [(pairs, 1), (arms, 2)] {
                for measure in [Measure::Shapley, Measure::Banzhaf] {
                    let (got, ran) = solve_counted(&tree, measure);
                    assert_eq!(ran, passes, "{measure} at k = {k}");
                    let vars = tree.vars();
                    let expect = reference_power(&tree, &vars, measure);
                    assert_eq!(got, vars.into_iter().zip(expect).collect::<Vec<_>>());
                }
            }
        }
    }

    #[test]
    fn only_isomorphic_siblings_share_a_pass() {
        // x₀ ∨ (x₁ ∧ (x₂ ∨ (x₃ ∧ x₄))): no two siblings are isomorphic but
        // x₃ and x₄, so five facts take four passes.
        let x = |v: u32| ReadOnce::Var(VarId(v));
        let chain = ReadOnce::Or(vec![
            x(0),
            ReadOnce::And(vec![
                x(1),
                ReadOnce::Or(vec![x(2), ReadOnce::And(vec![x(3), x(4)])]),
            ]),
        ]);
        assert_eq!(solve_counted(&chain, Measure::Shapley).1, 4);
        assert_eq!(solve_counted(&x(7), Measure::Shapley).1, 1);
        // Two arms of different sizes are not interchangeable: 1 + 2 + 1 passes.
        let uneven = ReadOnce::Or(vec![
            ReadOnce::And(vec![x(0), ReadOnce::Or(vec![x(1), x(2)])]),
            ReadOnce::And(vec![x(3), ReadOnce::Or(vec![x(4), x(5), x(6)])]),
        ]);
        assert_eq!(solve_counted(&uneven, Measure::Banzhaf).1, 4);
        assert_matches_reference(&uneven, 7);
        // Isomorphic arms listing their children in opposite orders still
        // align hub to hub: two passes.
        let mirrored = ReadOnce::Or(vec![
            ReadOnce::And(vec![x(0), ReadOnce::Or(vec![x(1), x(2)])]),
            ReadOnce::And(vec![ReadOnce::Or(vec![x(3), x(4)]), x(5)]),
        ]);
        assert_eq!(solve_counted(&mirrored, Measure::Shapley).1, 2);
        assert_matches_reference(&mirrored, 6);
    }

    #[test]
    fn shap_scores_run_two_passes_per_orbit() {
        let tree = star_of_stars(3, 3);
        let profile = Arc::new(Profile::new());
        let half = Rational::from_ratio(1, 2);
        let got = {
            let _scope = profile.enter();
            shap_read_once(&tree, 12, None, &half).unwrap()
        };
        // Two orbits (hubs, spokes), two conditioned passes each.
        assert_eq!(profile.get(&READONCE_CONDITIONED_PASSES), 4);
        let f = |s: &Bitset| eval(&tree, s);
        let expect = crate::shap_score::shap_naive(&f, &vec![half; 12]);
        for (v, r) in got {
            assert_eq!(r, expect[v.index()], "var {}", v.0);
        }
    }

    #[test]
    fn deadline_is_respected_on_an_orbit_heavy_tree() {
        let tree = star_of_stars(30, 5);
        let past = Instant::now() - std::time::Duration::from_millis(1);
        let profile = Arc::new(Profile::new());
        {
            let _scope = profile.enter();
            for measure in [Measure::Shapley, Measure::Banzhaf] {
                assert_eq!(
                    power_read_once(&tree, 180, Some(past), measure),
                    Err(ShapleyTimeout)
                );
            }
            let half = Rational::from_ratio(1, 2);
            assert_eq!(
                shap_read_once(&tree, 180, Some(past), &half),
                Err(ShapleyTimeout)
            );
        }
        assert_eq!(profile.get(&READONCE_CONDITIONED_PASSES), 0);
        // A far deadline lets all 180 facts through on two passes.
        let far = Instant::now() + std::time::Duration::from_secs(3600);
        let got = power_read_once(&tree, 180, Some(far), Measure::Shapley).unwrap();
        assert_eq!(got, shapley_read_once(&tree, 180, None).unwrap());
        assert_eq!(solve_counted(&tree, Measure::Shapley).1, 2);
    }

    #[test]
    fn stars_of_stars_match_reference_at_every_tier() {
        // m = hubs · (1 + spokes) on both sides of each tier boundary.
        for (hubs, spokes) in [
            (1, 66),
            (4, 16),
            (11, 11),
            (12, 10),
            (20, 12),
            (29, 8),
            (43, 11),
            (47, 10),
        ] {
            let tree = star_of_stars(hubs, spokes);
            assert_matches_reference(&tree, 6);
            assert_eq!(
                solve_counted(&tree, Measure::Shapley).1,
                2.min(hubs * (1 + spokes)) as u64
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_repeated_shapes_match_naive(n in 1usize..10, seed in any::<u64>()) {
            let tree = repeated_shapes_of(n, true, seed);
            let vars = tree.vars();
            let f = |s: &Bitset| eval(&tree, s);
            let half = Rational::from_ratio(1, 2);
            let expect = [
                (Measure::Shapley, shapley_naive(&f, n)),
                (Measure::Banzhaf, crate::banzhaf::banzhaf_naive(&f, n)),
            ];
            for (measure, expect) in expect {
                let (got, passes) = solve_counted(&tree, measure);
                prop_assert!(passes as usize <= vars.len());
                prop_assert_eq!(got.iter().map(|(v, _)| *v).collect::<Vec<_>>(), vars.clone());
                for (v, r) in got {
                    prop_assert_eq!(&r, &expect[v.index()], "{} var {} of {:?}", measure, v.0, tree);
                }
            }
            let shap = crate::shap_score::shap_naive(&f, &vec![half.clone(); n]);
            for (v, r) in shap_read_once(&tree, n, None, &half).unwrap() {
                prop_assert_eq!(&r, &shap[v.index()], "shap var {} of {:?}", v.0, tree);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_orbits_are_automorphism_orbits(n in 1usize..8, constants in any::<bool>(), seed in any::<u64>()) {
            assert_orbits(&repeated_shapes_of(n, constants, seed), seed);
        }
    }

    #[test]
    fn fixed_trees_orbits_are_automorphism_orbits() {
        for (hubs, spokes) in [(2, 1), (3, 1), (2, 2), (2, 3)] {
            assert_orbits(&star_of_stars(hubs, spokes), 7);
        }
        // Siblings of one kind, arity and height that are not isomorphic,
        // with different and with equal leaf counts.
        let x = || ReadOnce::Var(VarId(0));
        let or = |a, b| ReadOnce::Or(vec![a, b]);
        let and = |a, b| ReadOnce::And(vec![a, b]);
        let spokes = ReadOnce::Or(vec![x(), x(), x()]);
        for tree in [
            or(and(x(), or(x(), x())), and(or(x(), x()), or(x(), x()))),
            or(and(or(x(), x()), or(x(), x())), and(x(), spokes)),
        ] {
            assert_orbits(&number(&tree, &mut 0), 11);
        }
    }

    /// Checks `tree`'s canonical orbits against the automorphism group of
    /// its minimized DNF, and that a copy shuffled by `seed` and renamed
    /// has the same canonical form.
    fn assert_orbits(tree: &ReadOnce, seed: u64) {
        let mut d = expand(tree);
        d.minimize();
        let group = automorphism_orbits(&d);
        let reps = |t: &ReadOnce| {
            let c = t.canonical_leaves();
            let order = c.order.clone();
            c.orbit
                .into_iter()
                .zip(order.clone())
                .map(move |(r, v)| (v, order[r as usize]))
        };
        // Sound on any tree: an automorphism maps each leaf onto its
        // representative (leaves folded under a constant are absent from
        // the DNF, and so are their representatives).
        for (v, r) in reps(tree) {
            assert_eq!(
                group.get(&v),
                group.get(&r),
                "x{} → x{} in {tree:?}",
                v.0,
                r.0
            );
        }
        // Exact on the factored tree: one representative per orbit.
        let factored = factor(&d).expect("read-once");
        let mut ours = 0;
        for (v, r) in reps(&factored) {
            assert_eq!(group[&v], group[&r], "x{} → x{} in {factored:?}", v.0, r.0);
            ours += (v == r) as usize;
        }
        let mut theirs: Vec<VarId> = group.values().copied().collect();
        theirs.sort_unstable();
        theirs.dedup();
        assert_eq!(ours, theirs.len(), "orbits of {factored:?}");
        // A shuffled, renamed copy has the same canonical form.
        let mut state = seed.rotate_left(29) | 1;
        let copy = number(&shuffled(tree, &mut state), &mut 0);
        assert_eq!(copy.canonical_leaves().orbit, tree.canonical_leaves().orbit);
        assert_eq!(fingerprint(&expand(&copy)).key(), fingerprint(&d).key());
    }

    /// The orbits of `d`'s automorphism group, by trying every permutation
    /// of its variables (Heap's algorithm): each variable maps to the least
    /// variable an automorphism sends it to.
    fn automorphism_orbits(d: &Dnf) -> HashMap<VarId, VarId> {
        let vars = d.vars();
        let k = vars.len();
        let conjuncts = |p: &[usize]| {
            let mut cs: Vec<Vec<usize>> = d
                .conjuncts()
                .iter()
                .map(|c| {
                    let mut c: Vec<usize> = c
                        .iter()
                        .map(|v| p[vars.binary_search(v).unwrap()])
                        .collect();
                    c.sort_unstable();
                    c
                })
                .collect();
            cs.sort_unstable();
            cs
        };
        let mut p: Vec<usize> = (0..k).collect();
        let base = conjuncts(&p);
        let mut least = p.clone();
        let mut visit = |p: &[usize]| {
            if conjuncts(p) == base {
                for (v, &w) in p.iter().enumerate() {
                    least[v] = least[v].min(w);
                }
            }
        };
        let mut c = vec![0; k];
        let mut i = 1;
        while i < k {
            if c[i] < i {
                p.swap(if i % 2 == 0 { 0 } else { c[i] }, i);
                visit(&p);
                c[i] += 1;
                i = 1;
            } else {
                c[i] = 0;
                i += 1;
            }
        }
        (0..k).map(|v| (vars[v], vars[least[v]])).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn prop_repeated_shapes_match_reference_across_tiers(
            tier in 0usize..6,
            seed in any::<u64>(),
        ) {
            // Every fact below 40, sampled facts on both sides of the
            // Vli<1>/<2>, <2>/<4> and <4>/<8> boundaries.
            let (m, sample) = [(24, 24), (39, 39), (67, 12), (68, 12), (132, 8), (261, 4)][tier];
            assert_matches_reference(&repeated_shapes_of(m, false, seed), sample);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]
        #[test]
        fn prop_vli1_vli2_boundary_matches_reference(m in 67usize..=68, seed in any::<u64>()) {
            assert_matches_reference(&arb_read_once(permutation(m, seed)), 16);
        }

        #[test]
        fn prop_vli2_vli4_boundary_matches_reference(
            m in 131usize..=132,
            seed in any::<u64>(),
            or_root in any::<bool>(),
        ) {
            assert_matches_reference(&random_wide_tree(m, seed, or_root), 12);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]
        #[test]
        fn prop_vli4_vli8_boundary_matches_reference(
            m in 260usize..=261,
            seed in any::<u64>(),
            or_root in any::<bool>(),
        ) {
            assert_matches_reference(&random_wide_tree(m, seed, or_root), 8);
        }
    }

    proptest! {
        // The `BigUint` tier: the exact Shapley fold over `m!` dominates a
        // debug build, so few cases.
        #![proptest_config(ProptestConfig::with_cases(2))]
        #[test]
        fn prop_vli8_biguint_boundary_matches_reference(
            m in 516usize..=517,
            seed in any::<u64>(),
            or_root in any::<bool>(),
        ) {
            assert_matches_reference(&random_wide_tree(m, seed, or_root), 3);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_factor_then_evaluate_matches_naive(n in 1usize..8, seed in any::<u64>()) {
            let perm = permutation(n, seed);
            let tree = arb_read_once(perm);
            let d = expand(&tree);
            // Round-trip: factoring the expansion must succeed and stay
            // equivalent (the factorization may differ structurally).
            let refactored = factor(&d).expect("expansion of read-once is read-once");
            let f = |s: &Bitset| d.eval_set(s);
            let expect = shapley_naive(&f, n);
            let got = shapley_read_once(&refactored, n, None).unwrap();
            for (v, r) in got {
                prop_assert_eq!(&r, &expect[v.index()], "var {}", v.0);
            }
        }

        #[test]
        fn prop_other_measures_match_naive(n in 1usize..7, seed in any::<u64>()) {
            let perm = permutation(n, seed);
            let tree = arb_read_once(perm);
            let d = expand(&tree);
            let refactored = factor(&d).expect("expansion of read-once is read-once");
            let f = |s: &Bitset| d.eval_set(s);
            let banzhaf = power_read_once(&refactored, n, None, Measure::Banzhaf).unwrap();
            let banzhaf_expect = crate::banzhaf::banzhaf_naive(&f, n);
            for (v, r) in banzhaf {
                prop_assert_eq!(&r, &banzhaf_expect[v.index()], "banzhaf var {}", v.0);
            }
            let half = Rational::from_ratio(1, 2);
            let shap = shap_read_once(&refactored, n, None, &half).unwrap();
            let shap_expect = crate::shap_score::shap_naive(&f, &vec![half.clone(); n]);
            for (v, r) in shap {
                prop_assert_eq!(&r, &shap_expect[v.index()], "shap var {}", v.0);
            }
        }
    }
}
