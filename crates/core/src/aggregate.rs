//! Shapley values of facts for aggregate queries (COUNT / SUM), via
//! linearity.
//!
//! The paper's implementation removes aggregation from its TPC-H queries
//! because ProvSQL's Boolean provenance cannot express it (§6), and lists
//! aggregates as future work (§7). For the two aggregates whose wealth
//! function is a *linear* combination of per-tuple memberships, the
//! extension is exact and cheap:
//!
//! ```text
//! v_COUNT(E) = |q(D_x ∪ E)|          = Σ_t  [ t̄ ∈ q(D_x ∪ E) ]
//! v_SUM(E)   = Σ_{t ∈ q(D_x∪E)} w_t  = Σ_t  w_t · [ t̄ ∈ q(D_x ∪ E) ]
//! ```
//!
//! Each membership `[t̄ ∈ q(·)]` is a Boolean game — exactly the per-tuple
//! game `q[x̄/t̄]` the paper studies — and the Shapley value is linear in the
//! game, so the aggregate attribution of a fact is the (weighted) sum of its
//! per-tuple Shapley values. Every per-tuple game runs through the usual
//! machinery (read-once fast path, else knowledge compilation), so the whole
//! computation stays polynomial whenever the per-tuple computations are.
//!
//! AVG, MIN and MAX are *not* linear in the memberships; they remain open
//! here, as in the paper.

use crate::engine::{
    AnalysisError, EngineError, EngineValues, LineageTask, Planner, PlannerConfig,
};
use shapdb_circuit::{Dnf, VarId};
use shapdb_kc::Budget;
use shapdb_num::Rational;
use std::collections::HashMap;

/// Per-fact attribution for an aggregate game, sorted by decreasing value.
pub type AggregateAttributions = Vec<(VarId, Rational)>;

/// Shapley values of the COUNT game: `v(E) = |q(D_x ∪ E)|`, given the
/// endogenous lineage of every potential output tuple.
///
/// Facts appearing in none of the lineages are null players and are omitted.
pub fn count_shapley(
    lineages: &[Dnf],
    n_endo: usize,
    budget: &Budget,
) -> Result<AggregateAttributions, AnalysisError> {
    let weighted: Vec<(Dnf, Rational)> = lineages
        .iter()
        .map(|l| (l.clone(), Rational::one()))
        .collect();
    sum_shapley(&weighted, n_endo, budget)
}

/// Shapley values of the weighted-sum game:
/// `v(E) = Σ_t w_t · [t̄ ∈ q(D_x ∪ E)]`.
///
/// `weighted` pairs each potential output tuple's endogenous lineage with
/// its weight (for SUM over a numeric column, the column value; negative
/// weights are fine). By linearity,
/// `Shapley(v, f) = Σ_t w_t · Shapley(q[x̄/t̄], f)`. Every per-tuple solve
/// runs under `budget`, whose deadline bounds compilation and Algorithm 1
/// alike.
pub fn sum_shapley(
    weighted: &[(Dnf, Rational)],
    n_endo: usize,
    budget: &Budget,
) -> Result<AggregateAttributions, AnalysisError> {
    let planner = Planner::new(PlannerConfig::default());
    let mut acc: HashMap<VarId, Rational> = HashMap::new();
    for (lineage, weight) in weighted {
        if weight.is_zero() {
            continue;
        }
        let task = LineageTask::new(lineage, n_endo).with_budget(*budget);
        let result = planner.solve(&task).map_err(|e| match e {
            EngineError::Analysis(a) => a,
            other => unreachable!("the exact-mode planner fails only on budgets: {other}"),
        })?;
        let EngineValues::Exact(pairs) = result.values else {
            unreachable!("exact-mode planner yields exact values");
        };
        for (fact, shapley) in pairs {
            let entry = acc.entry(fact).or_insert_with(Rational::zero);
            *entry += &(&shapley * weight);
        }
    }
    let mut out: Vec<(VarId, Rational)> = acc.into_iter().filter(|(_, v)| !v.is_zero()).collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::shapley_naive_game;
    use proptest::prelude::*;
    use shapdb_num::Bitset;

    fn dnf(conjs: &[&[u32]]) -> Dnf {
        let mut d = Dnf::new();
        for c in conjs {
            d.add_conjunct(c.iter().map(|&v| VarId(v)).collect());
        }
        d
    }

    fn value_of(attrs: &AggregateAttributions, v: u32) -> Rational {
        attrs
            .iter()
            .find(|(f, _)| f.0 == v)
            .map(|(_, r)| r.clone())
            .unwrap_or_else(Rational::zero)
    }

    #[test]
    fn count_over_disjoint_tuples_adds_full_credit() {
        // Two output tuples with singleton lineages x0 and x1: the count
        // game is additive, each fact alone creates one answer.
        let lineages = vec![dnf(&[&[0]]), dnf(&[&[1]])];
        let attrs = count_shapley(&lineages, 2, &Budget::unlimited()).unwrap();
        assert_eq!(value_of(&attrs, 0), Rational::one());
        assert_eq!(value_of(&attrs, 1), Rational::one());
    }

    #[test]
    fn count_matches_naive_game() {
        // Three overlapping tuples over 4 facts.
        let lineages = vec![dnf(&[&[0, 1]]), dnf(&[&[1, 2]]), dnf(&[&[2, 3], &[0]])];
        let n = 4;
        let attrs = count_shapley(&lineages, n, &Budget::unlimited()).unwrap();
        let game = |s: &Bitset| {
            let mut count = 0i64;
            for l in &lineages {
                if l.eval_set(s) {
                    count += 1;
                }
            }
            Rational::from_int(count)
        };
        let expect = shapley_naive_game(&game, n);
        for v in 0..n as u32 {
            assert_eq!(value_of(&attrs, v), expect[v as usize], "fact {v}");
        }
    }

    #[test]
    fn sum_weights_scale_attributions() {
        // SUM with weights 3 and 5 over disjoint singleton lineages.
        let weighted = vec![
            (dnf(&[&[0]]), Rational::from_int(3)),
            (dnf(&[&[1]]), Rational::from_int(5)),
        ];
        let attrs = sum_shapley(&weighted, 2, &Budget::unlimited()).unwrap();
        assert_eq!(value_of(&attrs, 0), Rational::from_int(3));
        assert_eq!(value_of(&attrs, 1), Rational::from_int(5));
        // Sorted by decreasing value.
        assert_eq!(attrs[0].0, VarId(1));
    }

    #[test]
    fn negative_weights_supported() {
        let weighted = vec![(dnf(&[&[0]]), Rational::from_int(-2))];
        let attrs = sum_shapley(&weighted, 1, &Budget::unlimited()).unwrap();
        assert_eq!(value_of(&attrs, 0), Rational::from_int(-2));
    }

    #[test]
    fn zero_weight_tuples_are_skipped() {
        let weighted = vec![(dnf(&[&[0]]), Rational::zero())];
        let attrs = sum_shapley(&weighted, 1, &Budget::unlimited()).unwrap();
        assert!(attrs.is_empty());
    }

    #[test]
    fn efficiency_of_count_game() {
        // Σ_f Shapley(f) = v(D_n) − v(∅) = #answers on full DB − #certain.
        let lineages = vec![dnf(&[&[0, 1], &[2]]), dnf(&[&[1]]), dnf(&[&[3, 0]])];
        let attrs = count_shapley(&lineages, 4, &Budget::unlimited()).unwrap();
        let total = attrs.iter().fold(Rational::zero(), |acc, (_, v)| &acc + v);
        assert_eq!(total, Rational::from_int(3)); // all 3 tuples need facts
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_sum_shapley_matches_naive_game(
            tuples in proptest::collection::vec(
                (proptest::collection::vec(
                    proptest::collection::vec(0u32..5, 1..3), 1..3),
                 -3i64..4),
                1..4),
        ) {
            let n = 5usize;
            let weighted: Vec<(Dnf, Rational)> = tuples
                .iter()
                .map(|(conjs, w)| {
                    let mut d = Dnf::new();
                    for c in conjs {
                        d.add_conjunct(c.iter().map(|&v| VarId(v)).collect());
                    }
                    (d, Rational::from_int(*w))
                })
                .collect();
            let attrs = sum_shapley(
                &weighted, n, &Budget::unlimited()).unwrap();
            let game = |s: &Bitset| {
                let mut total = Rational::zero();
                for (l, w) in &weighted {
                    if l.eval_set(s) {
                        total += w;
                    }
                }
                total
            };
            let expect = shapley_naive_game(&game, n);
            for v in 0..n as u32 {
                prop_assert_eq!(
                    &value_of(&attrs, v), &expect[v as usize], "fact {}", v);
            }
        }
    }
}
