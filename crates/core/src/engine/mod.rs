//! The unified engine layer: one trait, six engines, a cost-based planner,
//! and a parallel batch executor.
//!
//! The paper's §6.3 hybrid engine is a two-arm special case of a general
//! idea: *route each output tuple's lineage to the cheapest algorithm that
//! can handle it*. This module makes that idea first-class:
//!
//! * [`ShapleyEngine`] — the uniform `solve(&LineageTask) → EngineResult`
//!   contract, implemented by all six algorithms of the repository:
//!   [`NaiveEngine`] (Equations (1)/(2) ground truth), [`ReadOnceEngine`]
//!   (factorization fast path), [`KcEngine`] (the lineage's negation CNF →
//!   d-DNNF → Algorithm 1, values negated), [`ProxyEngine`] (Algorithm 2), [`MonteCarloEngine`]
//!   (permutation sampling) and [`KernelShapEngine`];
//! * [`Planner`] — classifies each lineage (constant? read-once
//!   factorizable? guaranteed read-once because the query is hierarchical
//!   and self-join-free? variable/conjunct counts within the knowledge-
//!   compilation budget?) and emits a per-tuple [`Plan`];
//! * [`BatchExecutor`] — interns structurally identical lineages via
//!   [`shapdb_circuit::fingerprint()`], computes each distinct structure
//!   once, and fans the distinct tasks out across `std::thread::scope`
//!   workers;
//! * [`QueryDriver`] — the one-shot query flow: evaluation or the bounded
//!   lineage stream, endogenous projection, and the hand-off to the batch
//!   or top-k executor, plus the COUNT/SUM games as a weighted fold over
//!   one batch run;
//! * [`ShapleyService`] — the resident, session-oriented surface: a
//!   long-lived worker pool draining a bounded client-fair queue of owned
//!   [`LineageRequest`]s, with ticketed [`Submission`] handles,
//!   per-request policy overrides, and graceful drain-on-shutdown. One
//!   process, one planner, one cache, N clients.
//!
//! The dedup-then-fan-out pipeline itself (fingerprint → group → solve →
//! translate) lives in the private `stages` module as pool-agnostic free
//! functions — the batch executor, sequential [`Planner::solve`], and the
//! service workers all run the *same* stage code, and every distinct
//! structure (for one measure or a set) is solved by one planner method,
//! so batch ≡ sequential ≡ service holds bit-identically on the exact
//! paths by construction.
//!
//! An exact solve has one deadline, the task's [`Budget`] deadline: it
//! bounds compilation and Algorithm 1 together (the read-once and naive
//! evaluations too), as the paper's §6.3 per-answer timeout does, and
//! [`PlannerConfig::timeout`] only clamps it.
//!
//! The paper's §6.3 hybrid is [`PlannerConfig::hybrid`]; the `shapdb`
//! facade and the CLI are thin policies over the query driver.

mod batch;
mod cache;
mod driver;
mod engines;
mod persist;
mod planner;
mod service;
pub(crate) mod stages;
mod topk;

pub use batch::{BatchExecutor, BatchItem, BatchReport};
pub use cache::{CacheKey, CacheStats, ShapleyCache};
pub use driver::{exact_mode_error, QueryBatch, QueryDriver, QueryTopK, STREAM_CHUNK};
pub use engines::{
    KcEngine, KernelShapEngine, MonteCarloEngine, NaiveEngine, ProxyEngine, ReadOnceEngine,
};
pub use planner::{Plan, PlanReason, Planner, PlannerConfig, QueryClass};
pub use service::{
    LineageRequest, ServiceClient, ServiceConfig, ServiceStats, ShapleyService, Submission,
    SubmitError,
};
pub use topk::{shapley_bounds, ScoreBounds, TopKExecutor, TopKItem, TopKReport};

pub use crate::measure::Measure;

use crate::exact::ShapleyTimeout;
use shapdb_circuit::{Dnf, Fingerprint, VarId};
use shapdb_kc::{Budget, CompileError, CompileStats};
use shapdb_num::Rational;
use std::time::Duration;

/// Which algorithm a plan, engine, or result refers to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EngineKind {
    /// `O(2ⁿ)` enumeration of the definition (ground truth, tiny lineages).
    Naive,
    /// Shapley values straight from the read-once factorization.
    ReadOnce,
    /// Knowledge compilation → Algorithm 1: a DNF lineage's negation CNF
    /// over the facts (values negated), a circuit's Tseytin CNF.
    Kc,
    /// CNF Proxy scores (Algorithm 2): a ranking, not Shapley values.
    Proxy,
    /// Permutation-sampling estimates.
    MonteCarlo,
    /// Kernel SHAP regression estimates.
    KernelShap,
}

impl EngineKind {
    /// Every kind, in planner preference order.
    pub const ALL: [EngineKind; 6] = [
        EngineKind::ReadOnce,
        EngineKind::Kc,
        EngineKind::Naive,
        EngineKind::Proxy,
        EngineKind::MonteCarlo,
        EngineKind::KernelShap,
    ];

    /// Stable lowercase name (CLI value, report label).
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Naive => "naive",
            EngineKind::ReadOnce => "readonce",
            EngineKind::Kc => "kc",
            EngineKind::Proxy => "proxy",
            EngineKind::MonteCarlo => "montecarlo",
            EngineKind::KernelShap => "kernelshap",
        }
    }

    /// Parses [`EngineKind::name`] back (for the CLI).
    pub fn parse(s: &str) -> Option<EngineKind> {
        EngineKind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// True iff the engine returns exact rational Shapley values.
    pub fn is_exact(self) -> bool {
        matches!(
            self,
            EngineKind::Naive | EngineKind::ReadOnce | EngineKind::Kc
        )
    }

    /// True iff the engine draws random samples (its estimates depend on a
    /// seed). Sampling results are never cached; a dedup group of sampling
    /// tasks shares one estimate drawn with the group's *total* sample
    /// budget ([`LineageTask::sample_scale`]).
    pub fn is_sampling(self) -> bool {
        matches!(self, EngineKind::MonteCarlo | EngineKind::KernelShap)
    }

    /// True iff the engine can compute `measure`. The three exact engines
    /// evaluate every measure from their compiled/factorized structure; the
    /// proxy and sampling engines estimate Shapley values only, so a
    /// non-Shapley task routed to them is
    /// [`EngineError::UnsupportedMeasure`].
    pub fn supports_measure(self, measure: Measure) -> bool {
        self.is_exact() || measure == Measure::Shapley
    }

    /// A default-configured boxed engine of this kind.
    pub fn engine(self) -> Box<dyn ShapleyEngine> {
        match self {
            EngineKind::Naive => Box::new(NaiveEngine::default()),
            EngineKind::ReadOnce => Box::new(ReadOnceEngine),
            EngineKind::Kc => Box::new(KcEngine),
            EngineKind::Proxy => Box::new(ProxyEngine),
            EngineKind::MonteCarlo => Box::new(MonteCarloEngine::default()),
            EngineKind::KernelShap => Box::new(KernelShapEngine::default()),
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One unit of work: attribute one output tuple's endogenous lineage.
#[derive(Clone, Debug)]
pub struct LineageTask<'a> {
    /// The monotone DNF endogenous lineage.
    pub lineage: &'a Dnf,
    /// `|D_n|`, the number of endogenous facts of the database.
    pub n_endo: usize,
    /// The solve's budget: its deadline bounds the whole exact pipeline
    /// (compilation, Algorithm 1, the read-once and naive evaluations),
    /// its node cap bounds compilation.
    pub budget: Budget,
    /// The caller asserts `lineage` is already absorption-minimized, so
    /// engines skip their own minimization pass. Set on the batch/cache hot
    /// path, where the fingerprint's canonical DNF is minimized by
    /// construction.
    pub minimized: bool,
    /// Per-task entropy XORed into the sampling engines' seeds (Monte
    /// Carlo, Kernel SHAP), so distinct submissions draw *different*
    /// deterministic samples instead of replaying one stream. Zero (the
    /// default) leaves the configured seeds untouched; exact engines ignore
    /// it entirely.
    pub seed_salt: u64,
    /// Multiplier on the sampling engines' sample counts (Monte Carlo
    /// permutations, Kernel SHAP coalitions). The batch path solves a dedup
    /// group of `G` structurally identical sampling tasks **once** with
    /// `sample_scale = G`, so the shared estimate is drawn from the same
    /// total number of samples the `G` sequential solves would have spent —
    /// same budget, `G×` the accuracy per member. Exact engines ignore it.
    pub sample_scale: usize,
    /// Which attribution to compute ([`Measure::Shapley`] by default). The
    /// exact engines evaluate every measure from the same compiled
    /// structure; the proxy/sampling engines support Shapley only.
    pub measure: Measure,
}

impl<'a> LineageTask<'a> {
    /// A task with unlimited budgets.
    pub fn new(lineage: &'a Dnf, n_endo: usize) -> LineageTask<'a> {
        LineageTask {
            lineage,
            n_endo,
            budget: Budget::unlimited(),
            minimized: false,
            seed_salt: 0,
            sample_scale: 1,
            measure: Measure::Shapley,
        }
    }

    /// Sets the budget (see [`LineageTask::budget`]).
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Declares the lineage already absorption-minimized (see
    /// [`LineageTask::minimized`]).
    pub fn assume_minimized(mut self) -> Self {
        self.minimized = true;
        self
    }

    /// Sets the per-task sampling-seed salt (see
    /// [`LineageTask::seed_salt`]).
    pub fn with_seed_salt(mut self, salt: u64) -> Self {
        self.seed_salt = salt;
        self
    }

    /// Sets the sampling-budget multiplier (see
    /// [`LineageTask::sample_scale`]; `0` is treated as `1`).
    pub fn with_sample_scale(mut self, scale: usize) -> Self {
        self.sample_scale = scale.max(1);
        self
    }

    /// Sets the attribution measure (see [`LineageTask::measure`]).
    pub fn with_measure(mut self, measure: Measure) -> Self {
        self.measure = measure;
        self
    }
}

/// The values an engine produced, sorted by decreasing value with ties
/// broken by ascending fact id. Facts of `D_n` absent from the lineage are
/// null players (value 0) and are omitted — as are facts absorbed away by
/// minimization (they appear in no prime implicant, hence are null players
/// too); every engine minimizes first, so batch and sequential runs list
/// exactly the same facts.
#[derive(Clone, Debug, PartialEq)]
pub enum EngineValues {
    /// Exact Shapley values.
    Exact(Vec<(VarId, Rational)>),
    /// Inexact scores (a ranking — CNF Proxy scores are *not* Shapley
    /// values; sampling estimates approximate them).
    Approx(Vec<(VarId, f64)>),
}

impl EngineValues {
    /// The facts in ranked order (most influential first), either way.
    pub fn ranking(&self) -> Vec<VarId> {
        match self {
            EngineValues::Exact(v) => v.iter().map(|(f, _)| *f).collect(),
            EngineValues::Approx(v) => v.iter().map(|(f, _)| *f).collect(),
        }
    }

    /// Number of scored facts.
    pub fn len(&self) -> usize {
        match self {
            EngineValues::Exact(v) => v.len(),
            EngineValues::Approx(v) => v.len(),
        }
    }

    /// True iff no fact was scored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True iff the values are exact rationals.
    pub fn is_exact(&self) -> bool {
        matches!(self, EngineValues::Exact(_))
    }
}

/// What one engine run produced, with the stats every layer above reports.
#[derive(Clone, Debug)]
pub struct EngineResult {
    /// Which engine produced the values.
    pub engine: EngineKind,
    /// Which attribution the values are (a Banzhaf result is not a Shapley
    /// result: cache keys, persisted records, and protocol responses all
    /// carry the tag).
    pub measure: Measure,
    /// The values (exact or approximate), sorted.
    pub values: EngineValues,
    /// Preparation time: factorization, or CNF construction + compile
    /// (+ projection on the Tseytin circuit entry).
    pub prep_time: Duration,
    /// Value-computation time (Algorithm 1, sampling, regression, …).
    pub solve_time: Duration,
    /// Distinct facts in the lineage.
    pub num_facts: usize,
    /// Clauses of the compiled CNF: one per conjunct on the KC route (the
    /// lineage's negation), the Tseytin CNF's on the circuit entry and
    /// for CNF Proxy (0 when no CNF was built).
    pub cnf_clauses: usize,
    /// d-DNNF size — of `¬F` on the KC route, projected on the circuit
    /// entry (tree size for the read-once path, 0 when no circuit
    /// representation was built).
    pub ddnnf_size: usize,
    /// Compiler counters (all zero off the KC path).
    pub compile_stats: CompileStats,
}

/// Why an exact computation exceeded its budget: knowledge compilation
/// (deadline or node cap) or Algorithm 1 (deadline).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AnalysisError {
    Compile(CompileError),
    Shapley(ShapleyTimeout),
}

impl std::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalysisError::Compile(e) => write!(f, "{e}"),
            AnalysisError::Shapley(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for AnalysisError {}

/// Why an engine did not produce a result.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EngineError {
    /// The engine cannot handle this task at all (e.g. the read-once engine
    /// on a non-factorizable lineage, naive beyond its enumeration limit).
    Unsupported(&'static str),
    /// The task exceeded the engine's budget (compile/Algorithm 1 limits).
    Analysis(AnalysisError),
    /// The engine panicked mid-solve. Only the resident service produces
    /// this: its workers run each request under `catch_unwind`, so an
    /// engine bug answers *this* ticket with an error instead of killing
    /// the worker (and with it every other client). Carries the panic
    /// message for diagnosis.
    Panicked(String),
    /// The engine cannot compute the requested measure (the proxy and
    /// sampling engines estimate Shapley values only). Raised when a forced
    /// engine choice and a non-Shapley measure collide; the planner never
    /// routes there on its own.
    UnsupportedMeasure {
        /// The engine that was asked.
        engine: EngineKind,
        /// The measure it cannot compute.
        measure: Measure,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Unsupported(why) => write!(f, "engine unsupported: {why}"),
            EngineError::Analysis(e) => write!(f, "{e}"),
            EngineError::Panicked(msg) => write!(f, "engine panicked: {msg}"),
            EngineError::UnsupportedMeasure { engine, measure } => {
                write!(f, "engine {engine} does not support measure {measure}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<AnalysisError> for EngineError {
    fn from(e: AnalysisError) -> EngineError {
        EngineError::Analysis(e)
    }
}

/// The uniform contract every Shapley algorithm implements.
///
/// Engines are cheap, stateless (configuration only) values that can be
/// shared across threads; all per-call state travels in the
/// [`LineageTask`].
pub trait ShapleyEngine: Send + Sync {
    /// Which algorithm this is.
    fn kind(&self) -> EngineKind;

    /// Stable name (report label).
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Cheap admission check: `false` means [`ShapleyEngine::solve`] is
    /// certain to return [`EngineError::Unsupported`]. The default accepts
    /// everything; `solve` may still fail on budget.
    fn supports(&self, _task: &LineageTask) -> bool {
        true
    }

    /// Computes the attribution of `task`'s lineage.
    fn solve(&self, task: &LineageTask) -> Result<EngineResult, EngineError>;
}

/// Renames a canonical-space result's facts back onto a task's own facts
/// through the task's fingerprint and restores the canonical sort order.
/// Exact values translate *exactly* (the Shapley value is equivariant under
/// fact renaming); used by both intra-batch dedup hits and cross-query
/// cache hits.
pub(crate) fn translate_result(mut result: EngineResult, fp: &Fingerprint) -> EngineResult {
    result.values = match result.values {
        EngineValues::Exact(pairs) => {
            let mut mapped: Vec<(VarId, Rational)> = pairs
                .into_iter()
                .map(|(v, x)| (fp.var_of(v.0), x))
                .collect();
            sort_exact(&mut mapped);
            EngineValues::Exact(mapped)
        }
        EngineValues::Approx(pairs) => {
            let mut mapped: Vec<(VarId, f64)> = pairs
                .into_iter()
                .map(|(v, x)| (fp.var_of(v.0), x))
                .collect();
            sort_approx(&mut mapped);
            EngineValues::Approx(mapped)
        }
    };
    result
}

/// Sorts exact values by decreasing value, ties by ascending fact id — the
/// canonical presentation order every engine returns.
pub(crate) fn sort_exact(pairs: &mut [(VarId, Rational)]) {
    pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
}

/// Sorts approximate scores the same way (total order on the floats).
pub(crate) fn sort_approx(pairs: &mut [(VarId, f64)]) {
    pairs.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_roundtrip() {
        for k in EngineKind::ALL {
            assert_eq!(EngineKind::parse(k.name()), Some(k));
        }
        assert_eq!(EngineKind::parse("magic"), None);
    }

    #[test]
    fn exactness_classification() {
        assert!(EngineKind::Naive.is_exact());
        assert!(EngineKind::ReadOnce.is_exact());
        assert!(EngineKind::Kc.is_exact());
        assert!(!EngineKind::Proxy.is_exact());
        assert!(!EngineKind::MonteCarlo.is_exact());
        assert!(!EngineKind::KernelShap.is_exact());
    }

    #[test]
    fn every_kind_builds_an_engine() {
        for k in EngineKind::ALL {
            assert_eq!(k.engine().kind(), k);
        }
    }

    #[test]
    fn sorting_orders_by_value_then_fact() {
        let mut pairs = vec![
            (VarId(3), Rational::from_ratio(1, 2)),
            (VarId(1), Rational::from_ratio(1, 2)),
            (VarId(0), Rational::from_ratio(1, 3)),
        ];
        sort_exact(&mut pairs);
        assert_eq!(
            pairs.iter().map(|(v, _)| v.0).collect::<Vec<_>>(),
            vec![1, 3, 0]
        );
        let mut scores = vec![(VarId(5), 0.5), (VarId(2), 0.5), (VarId(9), 0.9)];
        sort_approx(&mut scores);
        assert_eq!(
            scores.iter().map(|(v, _)| v.0).collect::<Vec<_>>(),
            vec![9, 2, 5]
        );
    }
}
