//! The traced decomposition of one solve: the stages the engine layer runs
//! behind `explain_batch`, `rank_topk` and a service worker, rebuilt from
//! the layers' public functions so each one gets its own span.
//!
//! Structure results are cached in a real [`ShapleyCache`] keyed by
//! canonical structure and measure, like the planner's result cache.

use crate::trace::Tracer;
use shapdb_circuit::{tseytin, Circuit, Fingerprint, VarId};
use shapdb_core::engine::{
    CacheKey, EngineKind, EngineResult, EngineValues, LineageTask, Measure, PlanReason, Planner,
    ReadOnceEngine, ShapleyCache,
};
use shapdb_core::exact::{power_index_all_facts, ExactConfig};
use shapdb_core::shap_scores;
use shapdb_kc::{compile, compile_circuit_topdown, project, Budget, CompileStats};
use shapdb_num::Rational;
use std::time::Duration;

/// Exact values sorted by decreasing value, ties by ascending fact — the
/// order every engine and the facade return.
pub type Values = Vec<(VarId, Rational)>;

pub fn sort_values(pairs: &mut Values) {
    pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
}

/// Renames canonical values onto a lineage's own facts.
pub fn translate(canonical: &Values, fp: &Fingerprint) -> Values {
    let mut out: Values = canonical
        .iter()
        .map(|(v, x)| (fp.var_of(v.0), x.clone()))
        .collect();
    sort_values(&mut out);
    out
}

/// Shapley efficiency: the values of a non-constant monotone lineage sum
/// to `v(all) − v(none) = 1`, exactly.
pub fn check_efficiency<T>(values: &[(T, Rational)]) -> Result<(), String> {
    if values.is_empty() {
        return Ok(());
    }
    let mut sum = Rational::zero();
    for (_, x) in values {
        sum += x;
    }
    if sum == Rational::one() {
        Ok(())
    } else {
        Err(format!("Shapley values sum to {sum}, not 1"))
    }
}

pub struct Decomposer<'t> {
    tr: &'t Tracer,
    cache: ShapleyCache,
    pub ddnnf_nodes: u64,
}

impl<'t> Decomposer<'t> {
    pub fn new(tr: &'t Tracer, cache_capacity: usize) -> Decomposer<'t> {
        Decomposer {
            tr,
            cache: ShapleyCache::with_capacity(cache_capacity),
            ddnnf_nodes: 0,
        }
    }

    /// Canonical-space values of `fp`'s structure under `measure`, in a
    /// database of `n_endo` endogenous facts.
    pub fn solve(
        &mut self,
        planner: &Planner,
        fp: &Fingerprint,
        n_endo: usize,
        measure: Measure,
    ) -> Result<Values, String> {
        let key = CacheKey {
            structure: fp.shared_key(),
            n_endo,
            config: measure as u64,
        };
        if let Some(hit) = self.tr.span("core.cache", || self.cache.get(&key)) {
            return Ok(exact_values(hit.values));
        }
        let canonical = fp.canonical_dnf();
        let plan = self
            .tr
            .span("core.plan", || planner.plan_measure(&canonical, measure));
        let task = LineageTask::new(&canonical, n_endo)
            .assume_minimized()
            .with_measure(measure);
        let budget = Budget::unlimited();
        let exact = ExactConfig::default();
        let mut values: Values = match plan.engine {
            EngineKind::ReadOnce => {
                let tree = fp.tree().expect("the read-once route has a factorization");
                let r = self.tr.span("core.solve.readonce", || {
                    ReadOnceEngine.solve_tree(tree, Duration::ZERO, &task)
                });
                exact_values(r.map_err(|e| e.to_string())?.values)
            }
            EngineKind::Naive => {
                let r = self.tr.span("core.solve.naive", || {
                    EngineKind::Naive.engine().solve(&task)
                });
                exact_values(r.map_err(|e| e.to_string())?.values)
            }
            EngineKind::Kc => {
                let topdown = plan.reason == PlanReason::KcWideTopDown;
                let (ddnnf, inputs) = self
                    .tr
                    .span("kc.compile", || {
                        let mut circuit = Circuit::new();
                        let root = canonical.to_circuit(&mut circuit);
                        if topdown {
                            compile_circuit_topdown(&circuit, root, &budget, None)
                                .map(|c| (c.ddnnf, c.fact_vars))
                        } else {
                            let t = tseytin(&circuit, root);
                            compile(&t.cnf, &budget)
                                .map(|(full, _)| (project(&full, t.num_inputs()), t.input_vars))
                        }
                    })
                    .map_err(|e| e.to_string())?;
                self.ddnnf_nodes += ddnnf.len() as u64;
                let values = self.tr.span("core.alg1", || match measure {
                    Measure::Shapley | Measure::Banzhaf => {
                        power_index_all_facts(&ddnnf, n_endo, &exact, measure)
                            .map_err(|e| e.to_string())
                    }
                    Measure::ShapScore => {
                        let half = vec![Rational::from_ratio(1, 2); ddnnf.num_vars()];
                        Ok(shap_scores(&ddnnf, &half))
                    }
                    Measure::Responsibility => Err("responsibility is not benchmarked".into()),
                })?;
                values
                    .into_iter()
                    .enumerate()
                    .map(|(i, x)| (inputs[i], x))
                    .collect()
            }
            other => return Err(format!("exact planner chose {}", other.name())),
        };
        sort_values(&mut values);
        let stored = EngineResult {
            engine: plan.engine,
            measure,
            num_facts: values.len(),
            values: EngineValues::Exact(values.clone()),
            prep_time: Duration::ZERO,
            solve_time: Duration::ZERO,
            cnf_clauses: 0,
            ddnnf_size: 0,
            compile_stats: CompileStats::default(),
        };
        self.tr
            .span("core.cache", || self.cache.insert(key, stored));
        Ok(values)
    }
}

fn exact_values(values: EngineValues) -> Values {
    match values {
        EngineValues::Exact(v) => v,
        EngineValues::Approx(_) => unreachable!("the default planner stays exact"),
    }
}
