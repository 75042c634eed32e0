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
//! per-tuple Shapley values. The per-tuple games run as one batch of the
//! query driver ([`QueryDriver::aggregate`], or [`count_shapley`] and
//! [`sum_shapley`] on lineages already in hand), so structurally identical
//! answers are solved once, the result cache and the worker threads apply,
//! and zero-weight answers are never solved.
//! Every solve takes the usual routes (read-once fast path, else knowledge
//! compilation), so the whole computation stays polynomial whenever the
//! per-tuple computations are.
//!
//! AVG, MIN and MAX are *not* linear in the memberships; they remain open
//! here, as in the paper.

use crate::engine::{
    exact_mode_error, AnalysisError, EngineValues, Measure, Planner, PlannerConfig, QueryDriver,
};
use shapdb_circuit::{Dnf, VarId};
use shapdb_data::{Database, Value};
use shapdb_kc::Budget;
use shapdb_num::Rational;
use shapdb_query::{evaluate_with, LineageKind, Ucq};
use std::collections::HashMap;

/// Per-fact attribution for an aggregate game, sorted by decreasing value.
pub type AggregateAttributions = Vec<(VarId, Rational)>;

/// A linear aggregate over a query's answers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AggregateGame {
    /// `COUNT(*)`: every answer weighs 1.
    Count,
    /// `SUM` of the head column at this index: every answer weighs its
    /// (integer) value there.
    Sum(usize),
}

impl AggregateGame {
    /// The weight of the answer with head tuple `tuple`.
    pub fn weight(self, tuple: &[Value]) -> Result<Rational, AggregateError> {
        let AggregateGame::Sum(column) = self else {
            return Ok(Rational::one());
        };
        let value = tuple
            .get(column)
            .ok_or(AggregateError::ColumnOutOfRange(column))?;
        let int = value.as_int().ok_or(AggregateError::NotAnInteger(column))?;
        Ok(Rational::from_int(int))
    }
}

/// Why an aggregate attribution failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AggregateError {
    /// The SUM column is past the end of an answer's head tuple.
    ColumnOutOfRange(usize),
    /// An answer holds a non-integer value in the SUM column.
    NotAnInteger(usize),
    /// A per-answer solve exceeded its budget.
    Analysis(AnalysisError),
}

impl std::fmt::Display for AggregateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggregateError::ColumnOutOfRange(c) => write!(f, "sum column {c} out of range"),
            AggregateError::NotAnInteger(c) => write!(f, "sum column {c} is not an integer"),
            AggregateError::Analysis(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for AggregateError {}

/// Shapley values of the COUNT game: `v(E) = |q(D_x ∪ E)|`, given the
/// endogenous lineage of every potential output tuple.
///
/// Facts appearing in none of the lineages are null players and are omitted.
pub fn count_shapley(
    lineages: &[Dnf],
    n_endo: usize,
    budget: &Budget,
) -> Result<AggregateAttributions, AnalysisError> {
    let weighted = lineages.iter().map(|l| (l.clone(), Rational::one()));
    exact_fold(weighted.collect(), n_endo, budget)
}

/// Shapley values of the weighted-sum game:
/// `v(E) = Σ_t w_t · [t̄ ∈ q(D_x ∪ E)]`.
///
/// `weighted` pairs each potential output tuple's endogenous lineage with
/// its weight (for SUM over a numeric column, the column value; negative
/// weights are fine). By linearity,
/// `Shapley(v, f) = Σ_t w_t · Shapley(q[x̄/t̄], f)`. Zero-weight tuples are
/// skipped. Every solve runs under `budget`, whose deadline bounds
/// compilation and Algorithm 1 alike.
pub fn sum_shapley(
    weighted: &[(Dnf, Rational)],
    n_endo: usize,
    budget: &Budget,
) -> Result<AggregateAttributions, AnalysisError> {
    let nonzero = weighted.iter().filter(|(_, w)| !w.is_zero()).cloned();
    exact_fold(nonzero.collect(), n_endo, budget)
}

/// [`QueryDriver::fold`] under the default exact-mode policy on all cores.
fn exact_fold(
    weighted: Vec<(Dnf, Rational)>,
    n_endo: usize,
    budget: &Budget,
) -> Result<AggregateAttributions, AnalysisError> {
    let driver = QueryDriver {
        budget: *budget,
        ..QueryDriver::default()
    };
    driver.fold(Planner::new(PlannerConfig::default()), weighted, n_endo)
}

impl QueryDriver {
    /// The COUNT/SUM game over `q`'s answers, weighted from each head
    /// tuple; returns the answer count and the attribution. `cfg` must be
    /// exact-mode (no fallback, no forced inexact engine).
    pub fn aggregate(
        &self,
        db: &Database,
        q: &Ucq,
        cfg: PlannerConfig,
        game: AggregateGame,
    ) -> Result<(usize, AggregateAttributions), AggregateError> {
        let outputs = evaluate_with(q, db, LineageKind::Endogenous).outputs;
        let answers = outputs.len();
        let mut weighted = Vec::with_capacity(answers);
        for out in outputs {
            let weight = game.weight(&out.tuple)?;
            if !weight.is_zero() {
                weighted.push((out.lineage, weight));
            }
        }
        let planner = Planner::for_query(cfg, q);
        let attributions = self.fold(planner, weighted, db.num_endogenous());
        Ok((answers, attributions.map_err(AggregateError::Analysis)?))
    }

    /// `Σ_t w_t · Shapley(t, f)` per fact `f` over one batch run of the
    /// weighted lineages: one solve per distinct structure.
    fn fold(
        &self,
        planner: Planner,
        weighted: Vec<(Dnf, Rational)>,
        n_endo: usize,
    ) -> Result<AggregateAttributions, AnalysisError> {
        let (lineages, weights): (Vec<Dnf>, Vec<Rational>) = weighted.into_iter().unzip();
        let report = self.run(planner, &lineages, n_endo, &[Measure::Shapley]);
        let mut acc: HashMap<VarId, Rational> = HashMap::new();
        for (item, weight) in report.items.into_iter().zip(&weights) {
            let EngineValues::Exact(pairs) = item.result.map_err(exact_mode_error)?.values else {
                unreachable!("exact-mode planner yields exact values");
            };
            for (fact, value) in pairs {
                *acc.entry(fact).or_insert_with(Rational::zero) += &(&value * weight);
            }
        }
        let mut out: Vec<(VarId, Rational)> =
            acc.into_iter().filter(|(_, v)| !v.is_zero()).collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        Ok(out)
    }
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

    /// `S(a, b)` endogenous: `a ∈ {0, 1}` for `b ∈ {10, 12}` and
    /// `a ∈ {0, 1, 2}` for `b = 11`; the exogenous weights `H(10, 3)`,
    /// `H(11, 0)`, `H(12, 5)`.
    fn star_database() -> shapdb_data::Database {
        use shapdb_data::{Database, Value};
        let mut db = Database::new();
        db.create_relation("S", &["a", "b"]);
        db.create_relation("H", &["b", "w"]);
        for (b, width) in [(10, 2), (11, 3), (12, 2)] {
            for a in 0..width {
                db.insert_endo("S", vec![Value::int(a), Value::int(b)]);
            }
        }
        for (b, w) in [(10, 3), (11, 0), (12, 5)] {
            db.insert("H", vec![Value::int(b), Value::int(w)], false);
        }
        db
    }

    /// A driver with a fresh result cache, whose misses count the
    /// structures it solved.
    fn cached_driver() -> QueryDriver {
        QueryDriver {
            cache: Some(std::sync::Arc::new(crate::engine::ShapleyCache::new())),
            ..QueryDriver::default()
        }
    }

    #[test]
    fn count_solves_each_distinct_structure_once() {
        // Three answers, two structures: `S(0, b) ∨ S(1, b)` for b = 10 and
        // b = 12, a three-way disjunction for b = 11.
        let db = star_database();
        let q = shapdb_query::parse_ucq("q(b) :- S(a, b)").unwrap();
        let driver = cached_driver();
        let (answers, attributions) = driver
            .aggregate(&db, &q, PlannerConfig::default(), AggregateGame::Count)
            .unwrap();
        assert_eq!(answers, 3);
        let stats = driver.cache.unwrap().stats();
        assert_eq!((stats.misses, stats.len), (2, 2));
        let third = Rational::from_ratio(1, 3);
        let half = Rational::from_ratio(1, 2);
        let expected: Vec<(VarId, Rational)> = [(0, &half), (1, &half), (5, &half), (6, &half)]
            .into_iter()
            .chain([(2, &third), (3, &third), (4, &third)])
            .map(|(f, v)| (VarId(f), v.clone()))
            .collect();
        assert_eq!(attributions, expected);
    }

    #[test]
    fn sum_never_solves_zero_weight_answers() {
        // b = 11 weighs 0: it counts as an answer, but its structure (the
        // only three-way one) never reaches an engine or the cache.
        let db = star_database();
        let q = shapdb_query::parse_ucq("q(b, w) :- S(a, b), H(b, w)").unwrap();
        let driver = cached_driver();
        let (answers, attributions) = driver
            .aggregate(&db, &q, PlannerConfig::default(), AggregateGame::Sum(1))
            .unwrap();
        assert_eq!(answers, 3);
        let stats = driver.cache.unwrap().stats();
        assert_eq!((stats.misses, stats.len), (1, 1));
        let (three, five) = (Rational::from_ratio(3, 2), Rational::from_ratio(5, 2));
        let expected: Vec<(VarId, Rational)> = [(5, &five), (6, &five), (0, &three), (1, &three)]
            .into_iter()
            .map(|(f, v)| (VarId(f), v.clone()))
            .collect();
        assert_eq!(attributions, expected);
    }

    #[test]
    fn sum_weights_validate_the_column() {
        use shapdb_data::Value;
        let tuple = [Value::str("x"), Value::int(7)];
        assert_eq!(AggregateGame::Count.weight(&tuple), Ok(Rational::one()));
        assert_eq!(
            AggregateGame::Sum(1).weight(&tuple),
            Ok(Rational::from_int(7))
        );
        assert_eq!(
            AggregateGame::Sum(2).weight(&tuple),
            Err(AggregateError::ColumnOutOfRange(2))
        );
        assert_eq!(
            AggregateGame::Sum(0).weight(&tuple),
            Err(AggregateError::NotAnInteger(0))
        );
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
