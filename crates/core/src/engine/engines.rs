//! The six [`ShapleyEngine`] implementations.
//!
//! Each engine is the *routing shell* around one algorithm kernel — the
//! kernels themselves live where they always did ([`crate::exact`],
//! [`crate::readonce`], [`crate::proxy`], [`crate::montecarlo`],
//! [`crate::kernelshap`], [`crate::naive`]); this module owns the routing
//! glue. The KC engine compiles a monotone DNF lineage as its negation
//! CNF over the facts (no Tseytin auxiliaries, no projection) and negates
//! the values; [`KcEngine::analyze_circuit`] is the one circuit-level entry
//! (Figure 3's middle row: Tseytin → compile → project), public because
//! signed (negation) lineages enter as circuits rather than monotone DNFs.

use super::{
    sort_approx, sort_exact, AnalysisError, EngineError, EngineKind, EngineResult, EngineValues,
    LineageTask, Measure, ShapleyEngine,
};
use crate::banzhaf::banzhaf_naive;
use crate::exact::{power_index_all_facts, ExactConfig};
use crate::kernelshap::{kernel_shap, KernelShapConfig};
use crate::montecarlo::{monte_carlo_shapley, monte_carlo_shapley_monotone, MonteCarloConfig};
use crate::naive::shapley_naive_deadline;
use crate::proxy::cnf_proxy;
use crate::readonce::{power_read_once, shap_read_once};
use crate::responsibility::{responsibility_all_minimized, responsibility_read_once};
use crate::shap_score::{shap_naive, shap_scores};
use shapdb_circuit::{factor, tseytin, Circuit, Dnf, NodeId, VarId};
use shapdb_kc::{
    compile_circuit_topdown, compile_negation, Budget, CompileStats, ComponentCache, Ddnnf,
};
use shapdb_metrics::counters::ENGINE_SOLVES;
use shapdb_num::{Bitset, Rational};
use std::borrow::Cow;
use std::time::{Duration, Instant};

/// The engine-level SHAP-score background: the uniform `p = ½` product
/// distribution (the tuple-independent probabilistic-database view). The
/// paper's §6.2 background-`0⃗` adaptation coincides with the Shapley
/// measure itself.
fn shap_background() -> Rational {
    Rational::from_ratio(1, 2)
}

/// Guards the Shapley-only engines: the proxy and sampling estimators have
/// no notion of the other measures.
fn require_shapley(kind: EngineKind, task: &LineageTask) -> Result<(), EngineError> {
    if task.measure != Measure::Shapley {
        return Err(EngineError::UnsupportedMeasure {
            engine: kind,
            measure: task.measure,
        });
    }
    Ok(())
}

/// Absorption-minimizes a task's lineage. Every DNF-entry engine does this
/// first, so all engines share one null-player semantics: facts absorbed
/// away (provably null players — they appear in no prime implicant) are
/// omitted from the result, identically in batch and in sequential mode.
/// Tasks flagged [`LineageTask::minimized`] (the batch/cache hot path hands
/// engines the fingerprint's canonical DNF, minimized by construction)
/// borrow the lineage as-is — no clone, no second pass.
fn minimized<'a>(task: &'a LineageTask) -> Cow<'a, Dnf> {
    if task.minimized {
        return Cow::Borrowed(task.lineage);
    }
    let mut d = task.lineage.clone();
    d.minimize();
    Cow::Owned(d)
}

#[allow(clippy::too_many_arguments)]
fn exact_result(
    engine: EngineKind,
    measure: Measure,
    mut pairs: Vec<(VarId, Rational)>,
    prep_time: Duration,
    solve_time: Duration,
    cnf_clauses: usize,
    ddnnf_size: usize,
    compile_stats: CompileStats,
) -> EngineResult {
    sort_exact(&mut pairs);
    shapdb_metrics::timing::record_route(engine.name(), prep_time, solve_time);
    EngineResult {
        engine,
        measure,
        num_facts: pairs.len(),
        values: EngineValues::Exact(pairs),
        prep_time,
        solve_time,
        cnf_clauses,
        ddnnf_size,
        compile_stats,
    }
}

fn approx_result(
    engine: EngineKind,
    mut pairs: Vec<(VarId, f64)>,
    prep_time: Duration,
    solve_time: Duration,
    cnf_clauses: usize,
) -> EngineResult {
    sort_approx(&mut pairs);
    shapdb_metrics::timing::record_route(engine.name(), prep_time, solve_time);
    EngineResult {
        engine,
        // Only the Shapley-estimating engines produce approximate values.
        measure: Measure::Shapley,
        num_facts: pairs.len(),
        values: EngineValues::Approx(pairs),
        prep_time,
        solve_time,
        cnf_clauses,
        ddnnf_size: 0,
        compile_stats: CompileStats::default(),
    }
}

/// The read-once fast path: factorize, then evaluate the `#SAT_k`
/// recurrences on the tree. Unsupported on lineages that do not factor.
pub struct ReadOnceEngine;

impl ShapleyEngine for ReadOnceEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::ReadOnce
    }

    fn supports(&self, task: &LineageTask) -> bool {
        factor(task.lineage).is_some()
    }

    fn solve(&self, task: &LineageTask) -> Result<EngineResult, EngineError> {
        let prep_start = Instant::now();
        let tree =
            factor(task.lineage).ok_or(EngineError::Unsupported("lineage is not read-once"))?;
        let prep_time = prep_start.elapsed();
        self.solve_tree(&tree, prep_time, task)
    }
}

impl ReadOnceEngine {
    /// Evaluates an already-factorized tree (lets the planner reuse the
    /// factorization it built while classifying, instead of factoring the
    /// lineage a second time). The tree is the one compiled structure: the
    /// power indices run the counting DP with the measure's weights, the
    /// SHAP-score runs the rational β-DP over the same tree, and
    /// responsibility runs its linear contingency DP over it (the
    /// branch-and-bound hitting set is only for lineages that do not
    /// factor).
    pub fn solve_tree(
        &self,
        tree: &shapdb_circuit::ReadOnce,
        prep_time: Duration,
        task: &LineageTask,
    ) -> Result<EngineResult, EngineError> {
        ENGINE_SOLVES.incr();
        let solve_start = Instant::now();
        let pairs = match task.measure {
            Measure::Shapley | Measure::Banzhaf => {
                power_read_once(tree, task.n_endo, task.budget.deadline, task.measure)
                    .map_err(|e| EngineError::Analysis(AnalysisError::Shapley(e)))?
            }
            Measure::ShapScore => {
                shap_read_once(tree, task.n_endo, task.budget.deadline, &shap_background())
                    .map_err(|e| EngineError::Analysis(AnalysisError::Shapley(e)))?
            }
            Measure::Responsibility => responsibility_read_once(tree),
        };
        let solve_time = solve_start.elapsed();
        Ok(exact_result(
            EngineKind::ReadOnce,
            task.measure,
            pairs,
            prep_time,
            solve_time,
            0,
            tree.len(),
            CompileStats::default(),
        ))
    }
}

/// The exact knowledge-compilation pipeline. A monotone DNF lineage `F`
/// compiles as its negation `¬F = ⋀ₜ ⋁_{x∈t} ¬x`, a CNF over the facts
/// alone ([`compile_negation`]: no Tseytin auxiliaries, no projection), and
/// Algorithm 1's values on `¬F` are negated — every measure compiled here
/// is linear in the game and zero on constant games, so
/// `φ_f(F) = −φ_f(¬F)`. Circuits enter through
/// [`KcEngine::analyze_circuit`], the paper's Tseytin → compile → project
/// path (Lemma 4.6). Handles every lineage; may exceed its budget.
pub struct KcEngine;

/// The artifacts of one compile. Measure-agnostic: a structure solved for
/// several measures compiles once and evaluates every missed measure on
/// the same d-DNNF.
pub(crate) struct CompiledLineage {
    /// The d-DNNF over the lineage's facts: of `¬F` when `negated`, else of
    /// the circuit itself (projected onto its inputs).
    pub ddnnf: Ddnnf,
    /// Whether `ddnnf` is the lineage's negation, so values flip sign.
    pub negated: bool,
    /// Original fact id of each d-DNNF variable.
    pub input_vars: Vec<VarId>,
    /// Clause count of the compiled CNF (negation or Tseytin).
    pub cnf_clauses: usize,
    /// Compiler counters.
    pub compile_stats: CompileStats,
    /// CNF construction + compile (+ projection) wall time.
    pub prep_time: Duration,
}

/// The compile a structure's KC-routed measures share: empty until the
/// first one compiles (see [`KcEngine::solve_routed`]).
pub(crate) type CompileSlot = Option<Result<CompiledLineage, EngineError>>;

impl KcEngine {
    /// Figure 3's middle row on an endogenous-lineage *circuit*: exact
    /// Shapley values of the circuit's input variables through Tseytin →
    /// compile (with a cache owned by the call) → project, no
    /// minimization. The entry signed negation lineages use, since they are
    /// circuits rather than monotone DNFs. `budget`'s deadline bounds the
    /// compile and Algorithm 1 together.
    pub fn analyze_circuit(
        circuit: &Circuit,
        root: NodeId,
        n_endo: usize,
        budget: &Budget,
    ) -> Result<EngineResult, AnalysisError> {
        let kc_start = Instant::now();
        let c =
            compile_circuit_topdown(circuit, root, budget, None).map_err(AnalysisError::Compile)?;
        let compiled = CompiledLineage {
            ddnnf: c.ddnnf,
            negated: false,
            input_vars: c.fact_vars,
            cnf_clauses: c.tseytin.cnf.len(),
            compile_stats: c.stats,
            prep_time: kc_start.elapsed(),
        };
        KcEngine::evaluate_compiled(&compiled, n_endo, budget, Measure::Shapley).map_err(
            |e| match e {
                EngineError::Analysis(a) => a,
                _ => unreachable!("Shapley evaluation fails only with analysis errors"),
            },
        )
    }

    /// The full KC solve — the planner's KC arm calls this so lineages
    /// compile `¬F` against the planner's component cache and share its
    /// fragments across lineages (`shared`, under its context digest); the
    /// plain [`ShapleyEngine::solve`] is the `None` special case, a cache
    /// owned by the compile.
    ///
    /// `compiled` is the structure's one compile: the first call fills it,
    /// later calls for other measures of the same lineage and budget
    /// evaluate it again (or share its error). `engine.solves` counts the
    /// compile, not the evaluations.
    pub(crate) fn solve_routed(
        task: &LineageTask,
        shared: Option<(&ComponentCache, u64)>,
        compiled: &mut CompileSlot,
    ) -> Result<EngineResult, EngineError> {
        if task.measure == Measure::Responsibility {
            // DNF-level measure: no compilation; the result still reports
            // the route that admitted the task.
            ENGINE_SOLVES.incr();
            let lineage = minimized(task);
            let solve_start = Instant::now();
            let pairs = responsibility_all_minimized(&lineage);
            return Ok(exact_result(
                EngineKind::Kc,
                Measure::Responsibility,
                pairs,
                Duration::default(),
                solve_start.elapsed(),
                0,
                0,
                CompileStats::default(),
            ));
        }
        let compiled = compiled.get_or_insert_with(|| {
            ENGINE_SOLVES.incr();
            let lineage = minimized(task);
            let kc_start = Instant::now();
            let c = compile_negation(&lineage, &task.budget, shared)
                .map_err(|e| EngineError::Analysis(AnalysisError::Compile(e)))?;
            Ok(CompiledLineage {
                ddnnf: c.ddnnf,
                negated: true,
                input_vars: c.fact_vars,
                cnf_clauses: c.cnf_clauses,
                compile_stats: c.stats,
                prep_time: kc_start.elapsed(),
            })
        });
        match compiled {
            Ok(c) => KcEngine::evaluate_compiled(c, task.n_endo, &task.budget, task.measure),
            Err(e) => Err(e.clone()),
        }
    }

    /// One measure's values from an already-compiled structure: the power
    /// indices run Algorithm 1 with the measure's weights, the SHAP-score
    /// runs the probability-weighted β-DP on the same circuit; values of a
    /// negated compile flip sign. Algorithm 1 runs under `budget`'s
    /// deadline. Responsibility is DNF-level and never reaches this
    /// function.
    pub(crate) fn evaluate_compiled(
        compiled: &CompiledLineage,
        n_endo: usize,
        budget: &Budget,
        measure: Measure,
    ) -> Result<EngineResult, EngineError> {
        let solve_start = Instant::now();
        let values = match measure {
            Measure::Shapley | Measure::Banzhaf => {
                let cfg = ExactConfig {
                    deadline: budget.deadline,
                };
                power_index_all_facts(&compiled.ddnnf, n_endo, &cfg, measure)
                    .map_err(|e| EngineError::Analysis(AnalysisError::Shapley(e)))?
            }
            Measure::ShapScore => {
                let probs = vec![shap_background(); compiled.ddnnf.num_vars()];
                shap_scores(&compiled.ddnnf, &probs)
            }
            Measure::Responsibility => unreachable!("responsibility needs no compilation"),
        };
        let pairs: Vec<(VarId, Rational)> = compiled
            .input_vars
            .iter()
            .zip(values)
            .map(|(&f, x)| (f, if compiled.negated { -x } else { x }))
            .collect();
        Ok(exact_result(
            EngineKind::Kc,
            measure,
            pairs,
            compiled.prep_time,
            solve_start.elapsed(),
            compiled.cnf_clauses,
            compiled.ddnnf.len(),
            compiled.compile_stats,
        ))
    }
}

impl ShapleyEngine for KcEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Kc
    }

    fn solve(&self, task: &LineageTask) -> Result<EngineResult, EngineError> {
        KcEngine::solve_routed(task, None, &mut None)
    }
}

/// `O(2ⁿ)` evaluation of the definition — ground truth for tiny lineages.
pub struct NaiveEngine {
    /// Enumeration cutoff (`2^max_facts` evaluations).
    pub max_facts: usize,
}

impl Default for NaiveEngine {
    fn default() -> Self {
        NaiveEngine { max_facts: 25 }
    }
}

impl NaiveEngine {
    /// The enumeration cutoff for a measure: the SHAP oracle is `O(4ⁿ)`
    /// rather than `O(2ⁿ)`, so its cap is tighter.
    fn cap(&self, measure: Measure) -> usize {
        match measure {
            Measure::ShapScore => self.max_facts.min(12),
            _ => self.max_facts,
        }
    }
}

impl ShapleyEngine for NaiveEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Naive
    }

    fn supports(&self, task: &LineageTask) -> bool {
        task.lineage.vars().len() <= self.cap(task.measure)
    }

    fn solve(&self, task: &LineageTask) -> Result<EngineResult, EngineError> {
        ENGINE_SOLVES.incr();
        let prep_start = Instant::now();
        let lineage = minimized(task);
        if task.measure == Measure::Responsibility {
            // DNF-level: the branch-and-bound is exact at any size.
            let solve_start = Instant::now();
            let pairs = responsibility_all_minimized(&lineage);
            return Ok(exact_result(
                EngineKind::Naive,
                Measure::Responsibility,
                pairs,
                prep_start.elapsed(),
                solve_start.elapsed(),
                0,
                0,
                CompileStats::default(),
            ));
        }
        let (dense, vars) = lineage.densify();
        let prep_time = prep_start.elapsed();
        if vars.len() > self.cap(task.measure) {
            return Err(EngineError::Unsupported(
                "lineage too large for naive enumeration",
            ));
        }
        let solve_start = Instant::now();
        let f = |s: &Bitset| dense.eval_set(s);
        let values = match task.measure {
            Measure::Shapley => shapley_naive_deadline(&f, vars.len(), task.budget.deadline)
                .map_err(|e| EngineError::Analysis(AnalysisError::Shapley(e)))?,
            Measure::Banzhaf => banzhaf_naive(&f, vars.len()),
            Measure::ShapScore => shap_naive(&f, &vec![shap_background(); vars.len()]),
            Measure::Responsibility => unreachable!("handled above"),
        };
        let solve_time = solve_start.elapsed();
        let pairs: Vec<(VarId, Rational)> = vars.into_iter().zip(values).collect();
        Ok(exact_result(
            EngineKind::Naive,
            task.measure,
            pairs,
            prep_time,
            solve_time,
            0,
            0,
            CompileStats::default(),
        ))
    }
}

/// CNF Proxy (Algorithm 2): fast inexact scores whose *ranking* tracks the
/// exact one. Never fails, never exact.
pub struct ProxyEngine;

impl ShapleyEngine for ProxyEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Proxy
    }

    fn supports(&self, task: &LineageTask) -> bool {
        task.measure == Measure::Shapley
    }

    fn solve(&self, task: &LineageTask) -> Result<EngineResult, EngineError> {
        require_shapley(EngineKind::Proxy, task)?;
        ENGINE_SOLVES.incr();
        let prep_start = Instant::now();
        let lineage = minimized(task);
        let mut circuit = Circuit::new();
        let root = lineage.to_circuit(&mut circuit);
        let t = tseytin(&circuit, root);
        let prep_time = prep_start.elapsed();
        let solve_start = Instant::now();
        let k = t.num_inputs();
        let scores = cnf_proxy(&t.cnf, &|v| v < k);
        let pairs: Vec<(VarId, f64)> = t
            .input_vars
            .iter()
            .enumerate()
            .map(|(i, &f)| (f, scores[i]))
            .collect();
        let solve_time = solve_start.elapsed();
        Ok(approx_result(
            EngineKind::Proxy,
            pairs,
            prep_time,
            solve_time,
            t.cnf.len(),
        ))
    }
}

/// Permutation-sampling estimates (Mann & Shapley 1960), §6.2's first
/// inexact baseline.
#[derive(Default)]
pub struct MonteCarloEngine {
    /// Sampling parameters (permutation count, seed).
    pub cfg: MonteCarloConfig,
    /// Use the `O(log n)`-evaluations binary-search variant (valid for
    /// monotone lineages — all UCQ lineages are).
    pub monotone: bool,
}

impl ShapleyEngine for MonteCarloEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::MonteCarlo
    }

    fn supports(&self, task: &LineageTask) -> bool {
        task.measure == Measure::Shapley
    }

    fn solve(&self, task: &LineageTask) -> Result<EngineResult, EngineError> {
        require_shapley(EngineKind::MonteCarlo, task)?;
        ENGINE_SOLVES.incr();
        let prep_start = Instant::now();
        let (dense, vars) = minimized(task).densify();
        let prep_time = prep_start.elapsed();
        let solve_start = Instant::now();
        let f = |s: &Bitset| dense.eval_set(s);
        // Fold the per-task salt into the seed (distinct submissions draw
        // distinct deterministic streams) and scale the permutation budget
        // by the task's dedup-group size, so a shared group estimate spends
        // the same total draws the per-member solves would have.
        let cfg = MonteCarloConfig {
            seed: self.cfg.seed ^ task.seed_salt,
            permutations: self
                .cfg
                .permutations
                .saturating_mul(task.sample_scale.max(1)),
        };
        let estimates = if self.monotone {
            monte_carlo_shapley_monotone(&f, vars.len(), &cfg)
        } else {
            monte_carlo_shapley(&f, vars.len(), &cfg)
        };
        let solve_time = solve_start.elapsed();
        let pairs: Vec<(VarId, f64)> = vars.into_iter().zip(estimates).collect();
        Ok(approx_result(
            EngineKind::MonteCarlo,
            pairs,
            prep_time,
            solve_time,
            0,
        ))
    }
}

/// Kernel SHAP regression estimates, §6.2's second inexact baseline.
#[derive(Default)]
pub struct KernelShapEngine {
    /// Regression parameters (sample count, seed, ridge).
    pub cfg: KernelShapConfig,
}

impl ShapleyEngine for KernelShapEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::KernelShap
    }

    fn supports(&self, task: &LineageTask) -> bool {
        task.measure == Measure::Shapley
    }

    fn solve(&self, task: &LineageTask) -> Result<EngineResult, EngineError> {
        require_shapley(EngineKind::KernelShap, task)?;
        ENGINE_SOLVES.incr();
        let prep_start = Instant::now();
        let (dense, vars) = minimized(task).densify();
        let prep_time = prep_start.elapsed();
        let solve_start = Instant::now();
        let cfg = KernelShapConfig {
            seed: self.cfg.seed ^ task.seed_salt,
            samples: self.cfg.samples.saturating_mul(task.sample_scale.max(1)),
            ..self.cfg
        };
        let estimates = kernel_shap(&|s: &Bitset| dense.eval_set(s), vars.len(), &cfg);
        let solve_time = solve_start.elapsed();
        let pairs: Vec<(VarId, f64)> = vars.into_iter().zip(estimates).collect();
        Ok(approx_result(
            EngineKind::KernelShap,
            pairs,
            prep_time,
            solve_time,
            0,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn running_example() -> Dnf {
        let mut d = Dnf::new();
        d.add_conjunct(vec![VarId(0)]);
        for pair in [[1u32, 3], [1, 4], [2, 3], [2, 4], [5, 6]] {
            d.add_conjunct(pair.iter().map(|&v| VarId(v)).collect());
        }
        d
    }

    fn exact_map(r: &EngineResult) -> std::collections::HashMap<u32, Rational> {
        match &r.values {
            EngineValues::Exact(v) => v.iter().map(|(f, x)| (f.0, x.clone())).collect(),
            EngineValues::Approx(_) => panic!("expected exact values"),
        }
    }

    #[test]
    fn exact_engines_agree_on_running_example() {
        let d = running_example();
        let task = LineageTask::new(&d, 8);
        for kind in [EngineKind::Naive, EngineKind::ReadOnce, EngineKind::Kc] {
            let r = kind.engine().solve(&task).unwrap();
            assert_eq!(r.engine, kind);
            let by_fact = exact_map(&r);
            assert_eq!(by_fact[&0], Rational::from_ratio(43, 105), "{kind}");
            assert_eq!(by_fact[&5], Rational::from_ratio(8, 105), "{kind}");
        }
    }

    #[test]
    fn running_example_end_to_end() {
        // Figure 3's middle row on the running example's circuit.
        let d = running_example();
        let mut c = Circuit::new();
        let root = d.to_circuit(&mut c);
        let r = KcEngine::analyze_circuit(&c, root, 8, &Budget::unlimited()).unwrap();
        assert_eq!(r.engine, EngineKind::Kc);
        assert_eq!(r.num_facts, 7);
        let EngineValues::Exact(pairs) = &r.values else {
            panic!("expected exact values");
        };
        // Top fact is a1 with 43/105; sorted non-increasing.
        assert_eq!(pairs[0], (VarId(0), Rational::from_ratio(43, 105)));
        for w in pairs.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        assert!(r.ddnnf_size > 0);
        assert!(r.cnf_clauses > 0);
        // The circuit entry and the DNF engine agree bit for bit.
        assert_eq!(
            r.values,
            KcEngine.solve(&LineageTask::new(&d, 8)).unwrap().values
        );
    }

    #[test]
    fn compile_budget_respected() {
        let d = running_example();
        let mut c = Circuit::new();
        let root = d.to_circuit(&mut c);
        let budget = Budget::with_max_nodes(1);
        let err = KcEngine::analyze_circuit(&c, root, 8, &budget).unwrap_err();
        assert_eq!(
            err,
            AnalysisError::Compile(shapdb_kc::CompileError::NodeLimit)
        );
    }

    #[test]
    fn exact_engines_agree_on_every_measure() {
        // Cross-measure agreement vs the brute-force oracles: all three
        // exact routes return the identical exact rationals per measure.
        let d = running_example();
        let f = |s: &Bitset| d.eval_set(s);
        let half = shap_background();
        let oracles: Vec<(Measure, std::collections::HashMap<u32, Rational>)> = vec![
            (
                Measure::Banzhaf,
                banzhaf_naive(&f, 7)
                    .into_iter()
                    .enumerate()
                    .map(|(i, x)| (i as u32, x))
                    .collect(),
            ),
            (
                Measure::Responsibility,
                (0..7u32)
                    .map(|v| {
                        (
                            v,
                            crate::responsibility::responsibility_naive(&d, VarId(v), 7),
                        )
                    })
                    .collect(),
            ),
            (
                Measure::ShapScore,
                shap_naive(&f, &vec![half; 7])
                    .into_iter()
                    .enumerate()
                    .map(|(i, x)| (i as u32, x))
                    .collect(),
            ),
        ];
        for (measure, expect) in &oracles {
            for kind in [EngineKind::Naive, EngineKind::ReadOnce, EngineKind::Kc] {
                let task = LineageTask::new(&d, 8).with_measure(*measure);
                let r = kind.engine().solve(&task).unwrap();
                assert_eq!(r.engine, kind);
                assert_eq!(r.measure, *measure);
                let by_fact = exact_map(&r);
                for (v, x) in &by_fact {
                    assert_eq!(x, &expect[v], "{kind}/{measure} var {v}");
                }
                // Responsibility omits zero-valued facts; every other
                // measure scores all seven.
                if *measure != Measure::Responsibility {
                    assert_eq!(by_fact.len(), 7, "{kind}/{measure}");
                }
            }
        }
    }

    #[test]
    fn shapley_only_engines_reject_other_measures() {
        let d = running_example();
        for kind in [
            EngineKind::Proxy,
            EngineKind::MonteCarlo,
            EngineKind::KernelShap,
        ] {
            for measure in [
                Measure::Banzhaf,
                Measure::Responsibility,
                Measure::ShapScore,
            ] {
                let task = LineageTask::new(&d, 8).with_measure(measure);
                let engine = kind.engine();
                assert!(!engine.supports(&task), "{kind}/{measure}");
                match engine.solve(&task) {
                    Err(EngineError::UnsupportedMeasure {
                        engine: e,
                        measure: m,
                    }) => {
                        assert_eq!(e, kind);
                        assert_eq!(m, measure);
                    }
                    other => panic!("{kind}/{measure}: expected UnsupportedMeasure, got {other:?}"),
                }
            }
            // Shapley still works.
            let task = LineageTask::new(&d, 8);
            assert!(kind.engine().solve(&task).is_ok(), "{kind}");
        }
    }

    #[test]
    fn naive_shap_cap_is_tighter() {
        let mut d = Dnf::new();
        d.add_conjunct((0..14).map(VarId).collect());
        let task = LineageTask::new(&d, 14).with_measure(Measure::ShapScore);
        let engine = NaiveEngine::default();
        assert!(!engine.supports(&task));
        assert!(matches!(
            engine.solve(&task),
            Err(EngineError::Unsupported(_))
        ));
        // 14 facts are fine for the 2ⁿ measures.
        assert!(engine.supports(&LineageTask::new(&d, 14).with_measure(Measure::Banzhaf)));
    }

    #[test]
    fn read_once_rejects_majority() {
        let mut d = Dnf::new();
        for pair in [[0u32, 1], [1, 2], [0, 2]] {
            d.add_conjunct(pair.iter().map(|&v| VarId(v)).collect());
        }
        let task = LineageTask::new(&d, 3);
        assert!(!ReadOnceEngine.supports(&task));
        assert!(matches!(
            ReadOnceEngine.solve(&task),
            Err(EngineError::Unsupported(_))
        ));
        // KC handles it.
        let r = KcEngine.solve(&task).unwrap();
        assert_eq!(exact_map(&r)[&0], Rational::from_ratio(1, 3));
    }

    #[test]
    fn naive_refuses_oversized_lineages() {
        let mut d = Dnf::new();
        d.add_conjunct((0..30).map(VarId).collect());
        let task = LineageTask::new(&d, 30);
        let engine = NaiveEngine::default();
        assert!(!engine.supports(&task));
        assert!(matches!(
            engine.solve(&task),
            Err(EngineError::Unsupported(_))
        ));
    }

    #[test]
    fn kc_respects_budget() {
        let d = running_example();
        let task = LineageTask::new(&d, 8).with_budget(Budget::with_max_nodes(1));
        assert!(matches!(
            KcEngine.solve(&task),
            Err(EngineError::Analysis(AnalysisError::Compile(_)))
        ));
    }

    #[test]
    fn inexact_engines_rank_a1_on_top() {
        let d = running_example();
        let task = LineageTask::new(&d, 8);
        let mc = MonteCarloEngine {
            cfg: MonteCarloConfig {
                permutations: 4000,
                seed: 11,
            },
            monotone: false,
        };
        let ks = KernelShapEngine {
            cfg: KernelShapConfig {
                samples: 4000,
                seed: 11,
                ..Default::default()
            },
        };
        for engine in [&mc as &dyn ShapleyEngine, &ks] {
            let r = engine.solve(&task).unwrap();
            assert!(!r.values.is_exact());
            assert_eq!(r.values.ranking()[0], VarId(0), "{}", engine.name());
        }
        // CNF Proxy is a ranking heuristic with a known a1 pathology
        // (Example 5.4); it still covers all facts and ranks the a2 tier
        // above the a6/a7 tier.
        let r = ProxyEngine.solve(&task).unwrap();
        let ranking = r.values.ranking();
        assert_eq!(ranking.len(), 7);
        let pos = |id: u32| ranking.iter().position(|v| v.0 == id).unwrap();
        assert!(pos(1) < pos(5) && pos(2) < pos(6));
    }

    #[test]
    fn monotone_monte_carlo_matches_plain_estimator() {
        let d = running_example();
        let task = LineageTask::new(&d, 8);
        let cfg = MonteCarloConfig {
            permutations: 500,
            seed: 7,
        };
        let plain = MonteCarloEngine {
            cfg,
            monotone: false,
        }
        .solve(&task)
        .unwrap();
        let fast = MonteCarloEngine {
            cfg,
            monotone: true,
        }
        .solve(&task)
        .unwrap();
        assert_eq!(plain.values, fast.values);
    }

    #[test]
    fn seed_salt_decorrelates_sampling_and_leaves_exact_alone() {
        let d = running_example();
        let base = LineageTask::new(&d, 8);
        let salted = LineageTask::new(&d, 8).with_seed_salt(1);
        let mc = MonteCarloEngine::default();
        let a = mc.solve(&base).unwrap();
        let b = mc.solve(&salted).unwrap();
        assert_ne!(a.values, b.values, "different salts draw differently");
        assert_eq!(
            a.values,
            mc.solve(&base).unwrap().values,
            "same salt stays deterministic"
        );
        let ks = KernelShapEngine::default();
        assert_ne!(
            ks.solve(&base).unwrap().values,
            ks.solve(&salted).unwrap().values
        );
        // Exact engines ignore the salt entirely.
        assert_eq!(
            ReadOnceEngine.solve(&base).unwrap().values,
            ReadOnceEngine.solve(&salted).unwrap().values
        );
    }

    #[test]
    fn pre_minimized_tasks_skip_nothing_semantically() {
        // {0,1},{1,2},{0,2},{0,1,3}: var 3 is absorbed away. Solving the
        // minimized form with the `minimized` flag must equal solving the
        // raw form (where the engine minimizes itself).
        let mut raw = Dnf::new();
        for c in [vec![0u32, 1], vec![1, 2], vec![0, 2], vec![0, 1, 3]] {
            raw.add_conjunct(c.into_iter().map(VarId).collect());
        }
        let mut min = raw.clone();
        min.minimize();
        let from_raw = KcEngine.solve(&LineageTask::new(&raw, 8)).unwrap();
        let from_min = KcEngine
            .solve(&LineageTask::new(&min, 8).assume_minimized())
            .unwrap();
        assert_eq!(from_raw.values, from_min.values);
    }

    #[test]
    fn sparse_fact_ids_survive_round_trip() {
        // Facts 100/900/901: the dense remap must translate back.
        let mut d = Dnf::new();
        d.add_conjunct(vec![VarId(100)]);
        d.add_conjunct(vec![VarId(900), VarId(901)]);
        let task = LineageTask::new(&d, 1000);
        for kind in [EngineKind::Naive, EngineKind::ReadOnce, EngineKind::Kc] {
            let r = kind.engine().solve(&task).unwrap();
            let by_fact = exact_map(&r);
            assert_eq!(by_fact.len(), 3, "{kind}");
            assert!(by_fact.contains_key(&100), "{kind}");
            assert!(by_fact.contains_key(&901), "{kind}");
        }
    }

    #[test]
    fn deadline_timeout_surfaces_as_analysis_error() {
        // One expired budget deadline bounds every exact engine: read-once
        // and naive stop in their evaluation, KC in its compile or in
        // Algorithm 1. Each fails with a typed error, never with values.
        let d = running_example();
        let past = Instant::now() - Duration::from_millis(1);
        let task = LineageTask::new(&d, 8).with_budget(Budget {
            deadline: Some(past),
            ..Budget::unlimited()
        });
        for engine in [
            &ReadOnceEngine as &dyn ShapleyEngine,
            &NaiveEngine::default(),
        ] {
            assert!(
                matches!(
                    engine.solve(&task),
                    Err(EngineError::Analysis(AnalysisError::Shapley(_)))
                ),
                "{}",
                engine.name()
            );
        }
        assert!(matches!(
            KcEngine.solve(&task),
            Err(EngineError::Analysis(_))
        ));
    }
}
