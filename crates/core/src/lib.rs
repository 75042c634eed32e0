//! # shapdb-core — Shapley values of database facts
//!
//! The paper's primary contribution, implemented over the substrates in the
//! sibling crates:
//!
//! * [`exact`] — **Algorithm 1**: exact Shapley values from a deterministic
//!   and decomposable circuit via the `#SAT_k` dynamic program
//!   (Proposition 4.4). Production runs every fact at once in two passes,
//!   one forward `#SAT_k` pass and one backward pass of adjoints; the
//!   paper's per-fact conditioned passes (`O(|C|·|D_n|²)` arithmetic
//!   operations per fact, in full or recomputing only the gates whose
//!   variable set contains the fact) remain as the test oracle and the
//!   ablation baseline ([`exact::power_index_per_fact`]);
//! * [`proxy`] — **Algorithm 2 / CNF Proxy**: the fast inexact heuristic that
//!   scores facts through the additive relaxation `φ̃ = Σᵢ ψᵢ/n` of the
//!   Tseytin CNF (Lemma 5.2);
//! * [`montecarlo`] — the permutation-sampling baseline of [Mann & Shapley
//!   1960] used in §6.2, plus a binary-search variant for monotone lineages;
//! * [`kernelshap`] — the Kernel SHAP baseline adapted to provenance exactly
//!   as §6.2 describes (features = facts, `h` = endogenous lineage, `ē = 1⃗`,
//!   background = `0⃗`);
//! * [`naive`] — `O(2ⁿ)` ground truth directly from Equations (1)/(2), used
//!   to validate everything else;
//! * [`readonce`] — the read-once fast path: Shapley values straight from a
//!   factorized lineage with no knowledge compilation (the tractable class
//!   of Livshits et al. — hierarchical queries — and beyond);
//! * [`engine`] — the unified engine layer: the [`ShapleyEngine`] trait all
//!   six algorithms implement, the cost-based [`Planner`] (read-once
//!   detection, hierarchical-query guarantee, KC admission budgets, and the
//!   §6.3 hybrid — exact under a deadline, CNF-Proxy ranking as the
//!   fallback — as [`PlannerConfig::hybrid`]), and the parallel,
//!   lineage-deduplicating [`BatchExecutor`]. [`KcEngine::analyze_circuit`]
//!   runs Figure 3's exact pipeline on one lineage circuit.
//!
//! Values are exact [`Rational`](shapdb_num::Rational)s wherever the paper's
//! algorithm is exact; baselines return `f64` like their originals.

pub mod aggregate;
pub mod banzhaf;
pub mod engine;
pub mod exact;
#[cfg(test)]
mod hybrid;
pub mod kernelshap;
pub mod measure;
pub mod montecarlo;
pub mod naive;
pub mod proxy;
pub mod readonce;
pub mod responsibility;
pub mod shap_score;
mod weights;

pub use aggregate::{
    count_shapley, sum_shapley, AggregateAttributions, AggregateError, AggregateGame,
};
pub use banzhaf::{banzhaf_all_facts, banzhaf_naive};
pub use engine::{
    shapley_bounds, AnalysisError, BatchExecutor, BatchItem, BatchReport, EngineError, EngineKind,
    EngineResult, EngineValues, KcEngine, KernelShapEngine, LineageTask, MonteCarloEngine,
    NaiveEngine, Plan, PlanReason, Planner, PlannerConfig, ProxyEngine, QueryClass, ReadOnceEngine,
    ScoreBounds, ShapleyEngine, TopKExecutor, TopKItem, TopKReport,
};
pub use exact::{power_index_all_facts, shapley_all_facts, shapley_single_fact, ExactConfig};
pub use kernelshap::{kernel_shap, KernelShapConfig};
pub use measure::Measure;
pub use montecarlo::{monte_carlo_shapley, monte_carlo_shapley_monotone, MonteCarloConfig};
pub use naive::{shapley_naive, shapley_naive_by_slices};
pub use proxy::{cnf_proxy, cnf_proxy_exact, proxy_from_lineage};
pub use readonce::{power_read_once, sat_k_read_once, shap_read_once, shapley_read_once};
pub use responsibility::{min_contingency, responsibility, responsibility_all};
pub use shap_score::{shap_naive, shap_scores};
