//! Exact SHAP-scores over d-DNNF lineages (Arenas, Barceló, Bertossi &
//! Monet, AAAI 2021).
//!
//! §6.2 of the paper compares its Shapley values against *Kernel SHAP*, the
//! sampling estimator of the SHAP-score. The SHAP-score itself — the
//! game-theoretic attribution used in machine learning — is a *different*
//! quantity from the Shapley value of facts: its game is the conditional
//! expectation `h_ē(S) = E[h(z) | z_S = ē_S]` under a product distribution,
//! not the query's value on a sub-database. Arenas et al. showed it is
//! computable in polynomial time over deterministic and decomposable
//! circuits; this module implements that algorithm, giving the repository
//! both attribution notions exactly:
//!
//! * `probs[i] = 0` for all `i` reproduces the paper's §6.2 adaptation
//!   (background = 0⃗): `h_ē(S) = h(1_S)`, so the SHAP-score *equals* the
//!   Shapley value of the lineage — a strong cross-check of Algorithm 1 and
//!   the yardstick Kernel SHAP is actually estimating;
//! * general `probs` connects to probabilistic databases: the features stay
//!   fixed where observed and are resampled from the TID marginals
//!   elsewhere.
//!
//! The dynamic program mirrors Algorithm 1's `#SAT_k` tables with
//! probability-weighted rational entries
//! `β_g[ℓ] = Σ_{S ⊆ Vars(g), |S| = ℓ} Pr[g | S fixed to 1]`:
//! literals seed `[p, 1]` / `[1−p, 0]`, decomposable `∧` convolves,
//! deterministic `∨` adds with binomial gap-expansion, and for each fact `x`
//! the score is `(1 − p_x) · Σ_j (β¹[j] − β⁰[j]) · j!(m−1−j)!/m!` — the
//! `Γ − Δ = (1−p_x)(β¹ − β⁰)` identity folding the "x unfixed" mixture.

use shapdb_kc::{DNode, Ddnnf};
use shapdb_num::{
    combinatorics::{BinomialTable, FactorialTable},
    Bitset, Rational,
};

/// Per-gate `β` arrays for one pass.
type Betas = Vec<Vec<Rational>>;

struct ShapDp<'a> {
    d: &'a Ddnnf,
    sets: Vec<Bitset>,
    probs: &'a [Rational],
    binomials: BinomialTable,
}

impl<'a> ShapDp<'a> {
    fn new(d: &'a Ddnnf, probs: &'a [Rational]) -> ShapDp<'a> {
        ShapDp {
            d,
            sets: d.var_sets(),
            probs,
            binomials: BinomialTable::new(),
        }
    }

    fn size(&self, g: usize, cond_var: Option<usize>) -> usize {
        let mut s = self.sets[g].len();
        if let Some(v) = cond_var {
            if self.sets[g].contains(v) {
                s -= 1;
            }
        }
        s
    }

    fn gate_beta(
        &mut self,
        g: usize,
        cond: Option<(usize, bool)>,
        child_beta: &impl Fn(usize) -> Vec<Rational>,
    ) -> Vec<Rational> {
        let cond_var = cond.map(|(v, _)| v);
        match &self.d.nodes()[g] {
            DNode::True => vec![Rational::one()],
            DNode::False => vec![Rational::zero()],
            DNode::Lit(l) => {
                if let Some((v, b)) = cond {
                    if l.var() == v {
                        return if l.satisfied_by(b) {
                            vec![Rational::one()]
                        } else {
                            vec![Rational::zero()]
                        };
                    }
                }
                let p = self.probs[l.var()].clone();
                if l.is_positive() {
                    // ℓ=0: Pr[y=1] = p; ℓ=1 (y fixed to 1): satisfied.
                    vec![p, Rational::one()]
                } else {
                    // ℓ=0: Pr[y=0] = 1−p; ℓ=1 (y fixed to 1): falsified.
                    vec![&Rational::one() - &p, Rational::zero()]
                }
            }
            DNode::And(cs) => {
                let mut acc = vec![Rational::one()];
                for c in cs.iter() {
                    let cb = child_beta(c.index());
                    let mut next = vec![Rational::zero(); acc.len() + cb.len() - 1];
                    for (i, ai) in acc.iter().enumerate() {
                        if ai.is_zero() {
                            continue;
                        }
                        for (j, cj) in cb.iter().enumerate() {
                            if cj.is_zero() {
                                continue;
                            }
                            next[i + j] += &(ai * cj);
                        }
                    }
                    acc = next;
                }
                acc
            }
            DNode::Or(cs, _) => {
                let sz = self.size(g, cond_var);
                let mut acc = vec![Rational::zero(); sz + 1];
                for c in cs.iter() {
                    let csz = self.size(c.index(), cond_var);
                    let gap = sz - csz;
                    let cb = child_beta(c.index());
                    debug_assert_eq!(cb.len(), csz + 1);
                    let row = self.binomials.row(gap).to_vec();
                    for (i, ci) in cb.iter().enumerate() {
                        if ci.is_zero() {
                            continue;
                        }
                        for (dgap, b) in row.iter().enumerate() {
                            acc[i + dgap] += &(ci * &Rational::from_biguint(b.clone()));
                        }
                    }
                }
                acc
            }
        }
    }

    fn base_pass(&mut self) -> Betas {
        let mut betas: Betas = Vec::with_capacity(self.d.len());
        for g in 0..self.d.len() {
            let b = {
                let prefix = &betas;
                let lookup = |c: usize| prefix[c].clone();
                self.gate_beta_detached(g, None, &lookup)
            };
            betas.push(b);
        }
        betas
    }

    fn gate_beta_detached(
        &mut self,
        g: usize,
        cond: Option<(usize, bool)>,
        child_beta: &impl Fn(usize) -> Vec<Rational>,
    ) -> Vec<Rational> {
        self.gate_beta(g, cond, child_beta)
    }

    /// Conditioned pass for `(f → b)`, recomputing only the gates whose
    /// variable set contains `f`.
    fn conditioned_root(&mut self, f: usize, b: bool, base: &Betas) -> Vec<Rational> {
        let root = self.d.root().index();
        let n_nodes = self.d.len();
        let mut cond: Vec<Option<Vec<Rational>>> = vec![None; n_nodes];
        for g in 0..n_nodes {
            if !self.sets[g].contains(f) {
                continue;
            }
            let a = {
                let cond_ref = &cond;
                let lookup = |c: usize| match &cond_ref[c] {
                    Some(v) => v.clone(),
                    None => base[c].clone(),
                };
                self.gate_beta_detached(g, Some((f, b)), &lookup)
            };
            cond[g] = Some(a);
        }
        match cond[root].take() {
            Some(v) => v,
            None => base[root].clone(),
        }
    }
}

/// Exact SHAP-score of every d-DNNF variable for the instance `ē = 1⃗` under
/// the product distribution with marginals `probs` (`probs[i] = Pr[zᵢ = 1]`).
///
/// Returns one value per variable `0..d.num_vars()`. Variables absent from
/// the circuit are dummies with score 0. With `probs ≡ 0`, the result equals
/// the Shapley values of the lineage (the §6.2 setting Kernel SHAP
/// estimates).
pub fn shap_scores(d: &Ddnnf, probs: &[Rational]) -> Vec<Rational> {
    let num_vars = d.num_vars();
    assert_eq!(probs.len(), num_vars, "one marginal per variable required");
    let mut out = vec![Rational::zero(); num_vars];
    if num_vars == 0 {
        return out;
    }
    let mut dp = ShapDp::new(d, probs);
    let root = d.root().index();
    let root_vars = dp.sets[root].clone();
    let m = root_vars.len();
    if m == 0 {
        return out; // constant lineage: every feature is a dummy
    }
    let mut facts_table = FactorialTable::new();
    let weights = crate::weights::completion_weights(m, &mut facts_table);
    let denom = facts_table.get(m).clone();
    let base = dp.base_pass();

    for f in root_vars.iter() {
        let beta1 = dp.conditioned_root(f, true, &base);
        let beta0 = dp.conditioned_root(f, false, &base);
        debug_assert_eq!(beta1.len(), m);
        debug_assert_eq!(beta0.len(), m);
        // Γ − Δ = (1 − p_f) · (β¹ − β⁰), folded into the weighted sum.
        let mut numer = Rational::zero();
        for j in 0..m {
            let diff = &beta1[j] - &beta0[j];
            if diff.is_zero() {
                continue;
            }
            numer += &(&diff * &Rational::from_biguint(weights[j].clone()));
        }
        let one_minus_p = &Rational::one() - &probs[f];
        out[f] = &(&numer * &one_minus_p) / &Rational::from_biguint(denom.clone());
    }
    out
}

/// Brute-force SHAP-score oracle (`O(4ⁿ)`), for validation on small inputs.
pub fn shap_naive(f: &impl Fn(&Bitset) -> bool, probs: &[Rational]) -> Vec<Rational> {
    let n = probs.len();
    assert!(n <= 12, "naive SHAP limited to 12 features");
    if n == 0 {
        return Vec::new();
    }
    // h_ē(S) = Σ_{T ⊆ X∖S} Π_{t∈T} p_t Π_{t∉T,∉S} (1−p_t) · f(S ∪ T).
    let cond_exp = |s_mask: u64| -> Rational {
        let mut total = Rational::zero();
        let free: Vec<usize> = (0..n).filter(|i| s_mask >> i & 1 == 0).collect();
        for t_sel in 0u64..(1 << free.len()) {
            let mut weight = Rational::one();
            let mut world = s_mask;
            for (bit, &var) in free.iter().enumerate() {
                if t_sel >> bit & 1 == 1 {
                    weight = &weight * &probs[var];
                    world |= 1 << var;
                } else {
                    weight = &weight * &(&Rational::one() - &probs[var]);
                }
            }
            if weight.is_zero() {
                continue;
            }
            let mut set = Bitset::new(n);
            for i in 0..n {
                if world >> i & 1 == 1 {
                    set.insert(i);
                }
            }
            if f(&set) {
                total += &weight;
            }
        }
        total
    };
    let mut facts = FactorialTable::new();
    let mut out = Vec::with_capacity(n);
    for x in 0..n {
        let bit = 1u64 << x;
        let mut value = Rational::zero();
        for mask in 0u64..(1 << n) {
            if mask & bit != 0 {
                continue;
            }
            let k = mask.count_ones() as usize;
            let coeff = shapdb_num::combinatorics::shapley_coefficient(n, k, &mut facts);
            let marginal = &cond_exp(mask | bit) - &cond_exp(mask);
            if marginal.is_zero() {
                continue;
            }
            value += &(&coeff * &marginal);
        }
        out.push(value);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineKind, EngineValues, LineageTask, Planner, PlannerConfig};
    use crate::exact::{shapley_all_facts, ExactConfig};
    use crate::measure::Measure;
    use proptest::prelude::*;
    use shapdb_circuit::{Circuit, Dnf, VarId};
    use shapdb_kc::{compile_circuit_topdown, Budget};

    /// Compiles a DNF over dense vars `0..n` into a d-DNNF in that space.
    fn compile_dnf(d: &Dnf, n: usize) -> Ddnnf {
        use shapdb_circuit::Lit;
        use shapdb_kc::DNode;
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

    fn running_example_dnf() -> Dnf {
        let mut d = Dnf::new();
        d.add_conjunct(vec![VarId(0)]);
        for pair in [[1u32, 3], [1, 4], [2, 3], [2, 4], [5, 6]] {
            d.add_conjunct(pair.iter().map(|&v| VarId(v)).collect());
        }
        d
    }

    #[test]
    fn zero_background_equals_shapley() {
        // probs ≡ 0 is exactly the §6.2 adaptation: SHAP-score = Shapley.
        let dnf = running_example_dnf();
        let dd = compile_dnf(&dnf, 7);
        let probs = vec![Rational::zero(); 7];
        let shap = shap_scores(&dd, &probs);
        let shapley = shapley_all_facts(&dd, 7, &ExactConfig::default()).unwrap();
        assert_eq!(shap, shapley);
        assert_eq!(shap[0], Rational::from_ratio(43, 105));
    }

    #[test]
    fn matches_bruteforce_with_uniform_marginals() {
        let dnf = running_example_dnf();
        let dd = compile_dnf(&dnf, 7);
        let probs = vec![Rational::from_ratio(1, 2); 7];
        let shap = shap_scores(&dd, &probs);
        let expect = shap_naive(&|s| dnf.eval_set(s), &probs);
        assert_eq!(shap, expect);
    }

    #[test]
    fn matches_bruteforce_with_skewed_marginals() {
        let mut d = Dnf::new();
        d.add_conjunct(vec![VarId(0), VarId(1)]);
        d.add_conjunct(vec![VarId(2)]);
        let dd = compile_dnf(&d, 3);
        let probs = vec![
            Rational::from_ratio(1, 3),
            Rational::from_ratio(3, 4),
            Rational::from_ratio(1, 10),
        ];
        let shap = shap_scores(&dd, &probs);
        let expect = shap_naive(&|s| d.eval_set(s), &probs);
        assert_eq!(shap, expect);
    }

    /// SHAP-scores (uniform `p = ½` background) of `lineage` through the
    /// planner's routing ladder.
    fn planned(lineage: &Dnf, cfg: PlannerConfig) -> (EngineKind, Vec<(VarId, Rational)>) {
        let task = LineageTask::new(lineage, 4).with_measure(Measure::ShapScore);
        let r = Planner::new(cfg).solve(&task).unwrap();
        let EngineValues::Exact(values) = r.values else {
            panic!("exact planner yields exact values");
        };
        (r.engine, values)
    }

    #[test]
    fn from_lineage_minimizes_before_evaluating() {
        // Absorbed conjunct naming a dummy feature x3: unminimized input
        // must produce the same scores as the minimized lineage.
        let mut raw = Dnf::new();
        raw.add_conjunct(vec![VarId(0)]);
        raw.add_conjunct(vec![VarId(0), VarId(3)]);
        raw.add_conjunct(vec![VarId(1), VarId(2)]);
        let mut min = raw.clone();
        min.minimize();
        let half = Rational::from_ratio(1, 2);
        let (_, got_raw) = planned(&raw, PlannerConfig::default());
        let (_, got_min) = planned(&min, PlannerConfig::default());
        assert_eq!(got_raw, got_min);
        assert!(got_raw.iter().all(|(v, _)| *v != VarId(3)));
        let expect = shap_naive(&|s: &Bitset| raw.eval_set(s), &vec![half.clone(); 3]);
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
        let half = Rational::from_ratio(1, 2);
        let cfg = PlannerConfig {
            max_naive_vars: 0,
            ..Default::default()
        };
        let (engine, got) = planned(&d, cfg);
        assert_eq!(engine, EngineKind::Kc);
        let expect = shap_naive(&|s: &Bitset| d.eval_set(s), &vec![half.clone(); 3]);
        assert_eq!(got.len(), 3);
        for (v, r) in &got {
            assert_eq!(r, &expect[v.index()], "var {}", v.0);
        }
    }

    #[test]
    fn efficiency_axiom_for_shap() {
        // Σ_x SHAP(x) = h(ē) − E[h] = 1 − WMC(probs) here.
        let dnf = running_example_dnf();
        let dd = compile_dnf(&dnf, 7);
        let probs: Vec<Rational> = (0..7)
            .map(|i| Rational::from_ratio(i as i64 + 1, 10))
            .collect();
        let shap = shap_scores(&dd, &probs);
        let total = shap.iter().fold(Rational::zero(), |acc, v| &acc + v);
        let expected_h = dd.probability_rational(&probs);
        assert_eq!(total, &Rational::one() - &expected_h);
    }

    #[test]
    fn all_ones_marginals_give_zero_scores() {
        // If every feature is already deterministically 1, fixing adds
        // nothing: every marginal contribution is 0.
        let dnf = running_example_dnf();
        let dd = compile_dnf(&dnf, 7);
        let probs = vec![Rational::one(); 7];
        let shap = shap_scores(&dd, &probs);
        assert!(shap.iter().all(|v| v.is_zero()));
    }

    #[test]
    fn dummy_variable_scores_zero() {
        let mut d = Dnf::new();
        d.add_conjunct(vec![VarId(0)]);
        let dd = compile_dnf(&d, 3); // vars 1, 2 are dummies
        let probs = vec![Rational::from_ratio(1, 4); 3];
        let shap = shap_scores(&dd, &probs);
        assert!(!shap[0].is_zero());
        assert!(shap[1].is_zero());
        assert!(shap[2].is_zero());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_dp_matches_bruteforce(
            conjuncts in proptest::collection::vec(
                proptest::collection::vec(0u32..5, 1..3), 1..4),
            nums in proptest::collection::vec(0i64..=4, 5),
        ) {
            let mut d = Dnf::new();
            for c in &conjuncts {
                d.add_conjunct(c.iter().map(|&v| VarId(v)).collect());
            }
            let n = 5usize;
            let probs: Vec<Rational> =
                nums.iter().map(|&p| Rational::from_ratio(p, 4)).collect();
            let dd = compile_dnf(&d, n);
            let got = shap_scores(&dd, &probs);
            let expect = shap_naive(&|s| d.eval_set(s), &probs);
            prop_assert_eq!(got, expect);
        }
    }
}
