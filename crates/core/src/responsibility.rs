//! Causal responsibility of facts (Meliou, Gatterbauer, Moore & Suciu,
//! PVLDB 2010) — the measure the paper's related work positions Shapley
//! values against.
//!
//! A fact `f` is a *counterfactual cause* of an answer if removing `f` flips
//! the answer off. It is an *actual cause with contingency `Γ`* if, after
//! removing the contingency set `Γ`, it becomes counterfactual. Its
//! responsibility is
//!
//! ```text
//! ρ(f) = 1 / (1 + min { |Γ| : f counterfactual in D ∖ Γ })
//! ```
//!
//! (0 when no contingency works). On a monotone DNF lineage the inner
//! minimization is a constrained minimum hitting set: writing `F` for the
//! conjuncts containing `f` and `G` for those not containing `f`,
//!
//! * `Γ` must hit every conjunct of `G` (so the answer is off without `f`),
//! * some conjunct `C ∈ F` must survive untouched (so adding `f` back turns
//!   the answer on): `Γ ∩ C = ∅`.
//!
//! We solve exactly by iterating over the witness conjunct `C` and running a
//! branch-and-bound minimum hitting set on `G` with the variables of `C`
//! forbidden — exponential in the worst case (the problem is NP-hard) but
//! fast on per-tuple lineages, whose conjuncts are few and short. Computing
//! responsibility is harder to approximate than to rank by, which is exactly
//! the comparison the experiments draw against Shapley values.
//!
//! When the lineage is **read-once** the hitting set untangles:
//! [`responsibility_read_once`] computes every fact's responsibility in one
//! linear pass over the factorization tree — the same compiled structure
//! the other measures' DPs run on — so the engine layer only pays the
//! branch-and-bound on lineages that do not factor.

use shapdb_circuit::{Dnf, ReadOnce, VarId};
use shapdb_num::{Bitset, Rational};

/// Exact responsibility `ρ(f) = 1/(1 + min |Γ|)` of one fact of a monotone
/// DNF lineage, or 0 if `f` is never an actual cause.
pub fn responsibility(lineage: &Dnf, fact: VarId) -> Rational {
    match min_contingency(lineage, fact) {
        Some(k) => Rational::from_ratio(1, 1 + k as u64),
        None => Rational::zero(),
    }
}

/// Exact responsibility of every fact of the lineage, sorted by decreasing
/// value (ties by fact id). Null players get 0 and are omitted.
pub fn responsibility_all(lineage: &Dnf) -> Vec<(VarId, Rational)> {
    let mut d = lineage.clone();
    d.minimize();
    responsibility_all_minimized(&d)
}

/// [`responsibility_all`] of an already absorption-minimized lineage: the
/// engines hand over the form they minimized (or the fingerprint's
/// canonical one), so no fact pays a minimize pass of its own.
pub(crate) fn responsibility_all_minimized(lineage: &Dnf) -> Vec<(VarId, Rational)> {
    let mut out: Vec<(VarId, Rational)> = lineage
        .vars()
        .into_iter()
        .filter_map(|v| {
            min_contingency_minimized(lineage, v)
                .map(|k| (v, Rational::from_ratio(1, 1 + k as u64)))
        })
        .collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    out
}

/// Sentinel for "no contingency set works" in the read-once DP.
const NO_CONTINGENCY: u64 = u64::MAX;

/// Exact responsibility of every fact from a read-once factorization of the
/// (minimized) lineage, in one linear pass over the tree — the same
/// compiled structure the Shapley / Banzhaf / SHAP-score DPs run on.
///
/// On a read-once tree the constrained hitting set collapses: a contingency
/// set only removes facts, and removed facts live in subtrees disjoint from
/// the fact's own leaf, so the minimum contingency for leaf `f` is the sum,
/// over `f`'s `∨`-ancestors, of the cheapest way to falsify every sibling
/// subtree (`∧`-siblings stay true for free — every present fact is true).
/// `falsify_cost` is the bottom-up half; the top-down descent accumulates
/// the per-ancestor sibling sums into each leaf's minimum contingency.
///
/// Output matches [`responsibility_all`] on the factored DNF: sorted by
/// decreasing value (ties by fact id), null players omitted.
pub fn responsibility_read_once(tree: &ReadOnce) -> Vec<(VarId, Rational)> {
    let mut costs: Vec<(VarId, u64)> = Vec::new();
    descend(tree, 0, &mut costs);
    let mut out: Vec<(VarId, Rational)> = costs
        .into_iter()
        .filter(|&(_, k)| k != NO_CONTINGENCY)
        .map(|(v, k)| (v, Rational::from_ratio(1, 1 + k)))
        .collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    out
}

/// Minimum number of fact removals that falsify `t` when every fact is
/// present, or [`NO_CONTINGENCY`] if none do (a certain subformula).
fn falsify_cost(t: &ReadOnce) -> u64 {
    match t {
        ReadOnce::True => NO_CONTINGENCY,
        ReadOnce::False => 0,
        ReadOnce::Var(_) => 1,
        // Falsifying any one conjunct falsifies the conjunction; an empty
        // conjunction is `true`.
        ReadOnce::And(cs) => cs.iter().map(falsify_cost).min().unwrap_or(NO_CONTINGENCY),
        // A disjunction needs every disjunct falsified; an empty one is
        // `false` already.
        ReadOnce::Or(cs) => cs
            .iter()
            .map(falsify_cost)
            .fold(0u64, |a, b| a.saturating_add(b)),
    }
}

/// Whether `t` evaluates true with every fact present (monotone, so this is
/// the starting point every contingency set removes from).
fn holds_outright(t: &ReadOnce) -> bool {
    match t {
        ReadOnce::True | ReadOnce::Var(_) => true,
        ReadOnce::False => false,
        ReadOnce::And(cs) => cs.iter().all(holds_outright),
        ReadOnce::Or(cs) => cs.iter().any(holds_outright),
    }
}

/// Top-down accumulation: `acc` is the minimum number of removals outside
/// `t` that make the rest of the formula equivalent to `t`'s value.
fn descend(t: &ReadOnce, acc: u64, costs: &mut Vec<(VarId, u64)>) {
    match t {
        ReadOnce::True | ReadOnce::False => {}
        ReadOnce::Var(v) => costs.push((*v, acc)),
        ReadOnce::And(cs) => {
            // An `∧`-sibling that never holds pins the conjunction false, so
            // no fact below is ever counterfactual; otherwise siblings are
            // true for free and the accumulator passes through.
            let acc = if cs.iter().all(holds_outright) {
                acc
            } else {
                NO_CONTINGENCY
            };
            for c in cs {
                descend(c, acc, costs);
            }
        }
        ReadOnce::Or(cs) => {
            // Each child's siblings must all be falsified for the child to
            // decide the disjunction.
            let sibling_costs: Vec<u64> = cs.iter().map(falsify_cost).collect();
            let unfalsifiable = sibling_costs
                .iter()
                .filter(|&&c| c == NO_CONTINGENCY)
                .count();
            let finite_total: u64 = sibling_costs
                .iter()
                .filter(|&&c| c != NO_CONTINGENCY)
                .fold(0u64, |a, &b| a.saturating_add(b));
            for (c, &own) in cs.iter().zip(&sibling_costs) {
                let blocked = unfalsifiable - usize::from(own == NO_CONTINGENCY) > 0;
                let acc = if blocked || acc == NO_CONTINGENCY {
                    NO_CONTINGENCY
                } else {
                    let siblings = if own == NO_CONTINGENCY {
                        finite_total
                    } else {
                        finite_total - own
                    };
                    acc.saturating_add(siblings)
                };
                descend(c, acc, costs);
            }
        }
    }
}

/// Size of the smallest contingency set making `fact` counterfactual, or
/// `None` if none exists.
pub fn min_contingency(lineage: &Dnf, fact: VarId) -> Option<usize> {
    let mut d = lineage.clone();
    d.minimize();
    min_contingency_minimized(&d, fact)
}

/// [`min_contingency`] of an already absorption-minimized lineage.
fn min_contingency_minimized(d: &Dnf, fact: VarId) -> Option<usize> {
    if d.conjuncts().iter().any(|c| c.is_empty()) {
        return None; // certain answer: no fact is ever counterfactual
    }
    let (witnesses, others): (Vec<&Vec<VarId>>, Vec<&Vec<VarId>>) =
        d.conjuncts().iter().partition(|c| c.contains(&fact));
    if witnesses.is_empty() {
        return None; // fact not in the lineage
    }

    let mut best: Option<usize> = None;
    for witness in &witnesses {
        let forbidden: Vec<VarId> = witness.iter().copied().filter(|&v| v != fact).collect();
        // Conjuncts of `G` still to hit, minus variables we may never pick.
        let mut to_hit: Vec<Vec<VarId>> = Vec::with_capacity(others.len());
        let mut feasible = true;
        for g in &others {
            let allowed: Vec<VarId> = g
                .iter()
                .copied()
                .filter(|v| !forbidden.contains(v))
                .collect();
            if allowed.is_empty() {
                feasible = false; // this G-conjunct survives whatever we do
                break;
            }
            // A conjunct that is a superset of another (after filtering) is
            // handled by the hitting-set search itself.
            to_hit.push(allowed);
        }
        if !feasible {
            continue;
        }
        let bound = best.map(|b| b.saturating_sub(1));
        if let Some(k) = min_hitting_set(&to_hit, bound) {
            best = Some(best.map_or(k, |b| b.min(k)));
            if best == Some(0) {
                break; // counterfactual outright; cannot improve
            }
        }
    }
    best
}

/// Exact minimum hitting set via branch and bound. `ub` is an exclusive-ish
/// upper bound: solutions of size > `ub` (when given) are not explored.
/// Returns the minimum size, or `None` if every solution exceeds the bound.
fn min_hitting_set(conjuncts: &[Vec<VarId>], ub: Option<usize>) -> Option<usize> {
    // Drop conjuncts that are supersets of others: hitting the subset hits
    // the superset.
    let mut sorted: Vec<&Vec<VarId>> = conjuncts.iter().collect();
    sorted.sort_by_key(|c| c.len());
    let mut kept: Vec<&Vec<VarId>> = Vec::new();
    'outer: for c in sorted {
        for k in &kept {
            if k.iter().all(|v| c.contains(v)) {
                continue 'outer;
            }
        }
        kept.push(c);
    }
    let limit = ub.unwrap_or(usize::MAX);
    let mut best: Option<usize> = None;
    let mut chosen = Bitset::new(
        kept.iter()
            .flat_map(|c| c.iter())
            .map(|v| v.index() + 1)
            .max()
            .unwrap_or(1),
    );
    branch(&kept, &mut chosen, 0, limit, &mut best);
    best
}

fn branch(
    conjuncts: &[&Vec<VarId>],
    chosen: &mut Bitset,
    size: usize,
    limit: usize,
    best: &mut Option<usize>,
) {
    if let Some(b) = *best {
        if size >= b {
            return; // cannot improve
        }
    }
    // First unhit conjunct; if none, we have a hitting set.
    let Some(unhit) = conjuncts
        .iter()
        .find(|c| !c.iter().any(|v| chosen.contains(v.index())))
    else {
        *best = Some(size);
        return;
    };
    if size >= limit {
        return; // bound exhausted and still unhit conjuncts
    }
    for &v in unhit.iter() {
        chosen.insert(v.index());
        branch(conjuncts, chosen, size + 1, limit, best);
        chosen.remove(v.index());
    }
}

/// `O(2ⁿ)` responsibility oracle straight from the definition, for tests:
/// tries every contingency set by increasing size.
pub fn responsibility_naive(lineage: &Dnf, fact: VarId, n: usize) -> Rational {
    assert!(n <= 15, "naive responsibility limited to 15 facts");
    let full: Vec<VarId> = lineage.vars();
    let eval = |present: &Bitset| lineage.eval_set(present);
    let mut best: Option<usize> = None;
    for mask in 0u64..(1 << n) {
        if mask >> fact.index() & 1 == 1 {
            continue; // Γ may not contain f itself
        }
        // E = all facts minus Γ.
        let mut with_f = Bitset::new(n.max(1));
        for v in 0..n {
            if mask >> v & 1 == 0 {
                with_f.insert(v);
            }
        }
        if !with_f.contains(fact.index()) {
            continue;
        }
        let mut without_f = with_f.clone();
        without_f.remove(fact.index());
        if eval(&with_f) && !eval(&without_f) {
            let k = mask.count_ones() as usize;
            best = Some(best.map_or(k, |b| b.min(k)));
        }
    }
    let _ = full;
    match best {
        Some(k) => Rational::from_ratio(1, 1 + k as u64),
        None => Rational::zero(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn dnf(conjs: &[&[u32]]) -> Dnf {
        let mut d = Dnf::new();
        for c in conjs {
            d.add_conjunct(c.iter().map(|&v| VarId(v)).collect());
        }
        d
    }

    fn running_example() -> Dnf {
        dnf(&[&[0], &[1, 3], &[1, 4], &[2, 3], &[2, 4], &[5, 6]])
    }

    #[test]
    fn running_example_responsibilities() {
        let d = running_example();
        // a1: hit {a2,a3}×{a4,a5} (needs 2: one side) + (a6,a7) (1) → Γ=3.
        assert_eq!(responsibility(&d, VarId(0)), Rational::from_ratio(1, 4));
        // a2: witness (a2,a4) forbids a4: hit a1(1), (a3,a4)→a3, (a3,a5)✓, (a6,a7)(1) → 3.
        assert_eq!(responsibility(&d, VarId(1)), Rational::from_ratio(1, 4));
        // a8 (id 7) is not in the lineage.
        assert_eq!(responsibility(&d, VarId(7)), Rational::zero());
    }

    #[test]
    fn read_once_dp_matches_the_hitting_set_on_the_running_example() {
        let mut d = running_example();
        d.minimize();
        let tree = shapdb_circuit::factor_minimized(&d).expect("running example is read-once");
        assert_eq!(responsibility_read_once(&tree), responsibility_all(&d));
    }

    #[test]
    fn read_once_dp_handles_certain_and_blocked_subtrees() {
        // `true ∨ a`: certain answer — removing `a` never flips it.
        let certain = ReadOnce::Or(vec![ReadOnce::True, ReadOnce::Var(VarId(0))]);
        assert!(responsibility_read_once(&certain).is_empty());
        // `a ∧ false`: never holds — `a` is never a cause.
        let blocked = ReadOnce::And(vec![ReadOnce::Var(VarId(0)), ReadOnce::False]);
        assert!(responsibility_read_once(&blocked).is_empty());
        // `a ∨ (b ∧ c)`: every fact needs a one-fact contingency.
        let tree = ReadOnce::Or(vec![
            ReadOnce::Var(VarId(0)),
            ReadOnce::And(vec![ReadOnce::Var(VarId(1)), ReadOnce::Var(VarId(2))]),
        ]);
        let half = Rational::from_ratio(1, 2);
        assert_eq!(
            responsibility_read_once(&tree),
            vec![
                (VarId(0), half.clone()),
                (VarId(1), half.clone()),
                (VarId(2), half)
            ]
        );
    }

    #[test]
    fn counterfactual_fact_has_responsibility_one() {
        // Single witness: f alone derives the answer and nothing else does.
        let d = dnf(&[&[0]]);
        assert_eq!(responsibility(&d, VarId(0)), Rational::one());
    }

    #[test]
    fn certain_answer_has_no_causes() {
        let mut d = Dnf::new();
        d.add_conjunct(vec![]);
        d.add_conjunct(vec![VarId(0)]);
        assert_eq!(responsibility(&d, VarId(0)), Rational::zero());
    }

    #[test]
    fn matches_naive_on_running_example() {
        let d = running_example();
        for v in 0..7u32 {
            assert_eq!(
                responsibility(&d, VarId(v)),
                responsibility_naive(&d, VarId(v), 7),
                "fact a{}",
                v + 1
            );
        }
    }

    #[test]
    fn all_variant_sorts_and_omits_nulls() {
        let d = dnf(&[&[0], &[1, 2]]);
        let all = responsibility_all(&d);
        // x0 is counterfactual after removing one of {x1,x2}? No: removing
        // x1 (or x2) makes (x1∧x2) false, so x0 is counterfactual with
        // Γ = {x1} → ρ = 1/2. x1: witness (x1,x2), hit {x0} → ρ = 1/2.
        assert_eq!(all.len(), 3);
        for (_, r) in &all {
            assert_eq!(*r, Rational::from_ratio(1, 2));
        }
    }

    #[test]
    fn causal_effect_is_banzhaf() {
        // Causal effect is computed as the Banzhaf value (see
        // `banzhaf_all_facts`): the compiled running example must match the
        // naive Banzhaf oracle, and a1 the hand computation below.
        use shapdb_circuit::Circuit;
        use shapdb_kc::{compile_circuit_topdown, Budget};
        let d = running_example();
        let mut c = Circuit::new();
        let root = d.to_circuit(&mut c);
        let comp = compile_circuit_topdown(&c, root, &Budget::unlimited(), None).unwrap();
        let mut values = vec![Rational::zero(); 7];
        for (v, value) in comp
            .fact_vars
            .iter()
            .zip(crate::banzhaf::banzhaf_all_facts(&comp.ddnnf))
        {
            values[v.index()] = value;
        }
        assert_eq!(
            values,
            crate::banzhaf::banzhaf_naive(&|s: &Bitset| d.eval_set(s), 7)
        );
        // CE(a1) = Pr[q | a1] − Pr[q | ¬a1] = 1 − Pr[rest fires]. The rest
        // is ((a2∨a3)∧(a4∨a5)) ∨ (a6∧a7) at p = ½:
        // 1 − (1 − 9/16)(1 − 1/4) = 43/64, so CE(a1) = 21/64.
        assert_eq!(values[0], Rational::from_ratio(21, 64));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]
        #[test]
        fn prop_matches_naive(
            conjuncts in proptest::collection::vec(
                proptest::collection::vec(0u32..6, 1..4), 1..6),
            fact in 0u32..6,
        ) {
            let mut d = Dnf::new();
            for c in &conjuncts {
                d.add_conjunct(c.iter().map(|&v| VarId(v)).collect());
            }
            prop_assert_eq!(
                responsibility(&d, VarId(fact)),
                responsibility_naive(&d, VarId(fact), 6)
            );
        }

        #[test]
        fn prop_read_once_dp_matches_hitting_set(
            conjuncts in proptest::collection::vec(
                proptest::collection::vec(0u32..8, 1..4), 1..7),
        ) {
            let mut d = Dnf::new();
            for c in &conjuncts {
                d.add_conjunct(c.iter().map(|&v| VarId(v)).collect());
            }
            d.minimize();
            if let Some(tree) = shapdb_circuit::factor_minimized(&d) {
                prop_assert_eq!(responsibility_read_once(&tree), responsibility_all(&d));
            }
        }

        #[test]
        fn prop_counterfactual_iff_responsibility_one(
            conjuncts in proptest::collection::vec(
                proptest::collection::vec(0u32..5, 1..3), 1..5),
            fact in 0u32..5,
        ) {
            let mut d = Dnf::new();
            for c in &conjuncts {
                d.add_conjunct(c.iter().map(|&v| VarId(v)).collect());
            }
            let n = 5usize;
            let mut all = Bitset::new(n);
            for i in 0..n { all.insert(i); }
            let mut without = all.clone();
            without.remove(fact as usize);
            let counterfactual = d.eval_set(&all) && !d.eval_set(&without);
            prop_assert_eq!(
                responsibility(&d, VarId(fact)) == Rational::one(),
                counterfactual
            );
        }
    }
}
