//! The one-shot query driver: Figure 3's flow — evaluate the query with
//! provenance, project each answer's lineage onto the endogenous facts,
//! hand the lineages to an executor — written once for the facade, the
//! CLI and the aggregate games (`QueryDriver::aggregate` in
//! [`crate::aggregate`]). The engine policy, §6.3's hybrid included, is
//! the [`PlannerConfig`] each call passes; the driver builds
//! [`Planner::for_query`] from it with the caller's result cache.

use super::{
    AnalysisError, BatchExecutor, BatchReport, EngineError, Measure, Planner, PlannerConfig,
    ShapleyCache, TopKExecutor, TopKReport,
};
use shapdb_circuit::Dnf;
use shapdb_data::{Database, Value};
use shapdb_kc::Budget;
use shapdb_query::{evaluate, with_streamed_lineages, StreamStats, Ucq};
use std::sync::Arc;

/// Answers the top-k stream holds in flight: large enough to keep the
/// producer busy, small enough that peak provenance stays far below full
/// materialization at JOB scale.
pub const STREAM_CHUNK: usize = 256;

/// How a one-shot surface runs its solves: the result cache it holds, its
/// worker threads and the budget of every exact solve. The engine policy
/// is the [`PlannerConfig`] each call passes.
#[derive(Clone, Debug, Default)]
pub struct QueryDriver {
    /// The caller's cross-query result cache (`None`: caching off).
    pub cache: Option<Arc<ShapleyCache>>,
    /// Batch worker threads (0 = all available cores).
    pub threads: usize,
    /// The budget of every exact solve; the policy's timeout clamps its
    /// deadline per structure.
    pub budget: Budget,
}

/// A [`QueryDriver::batch`] run: every answer, in the query's output order
/// (ascending head tuple).
#[derive(Clone, Debug)]
pub struct QueryBatch {
    /// Each answer's head tuple.
    pub tuples: Vec<Vec<Value>>,
    /// Each answer's endogenous lineage.
    pub lineages: Vec<Dnf>,
    /// The batch report: `items[i * measures.len() + j]` is answer `i`
    /// under measure `j`.
    pub report: BatchReport,
}

/// A [`QueryDriver::topk`] run.
#[derive(Clone, Debug)]
pub struct QueryTopK {
    /// Every answer's head tuple, indexed like [`super::TopKItem::index`].
    pub tuples: Vec<Vec<Value>>,
    /// The ranking, or the first solve error of an exact-mode policy.
    pub report: Result<TopKReport, EngineError>,
    /// What the streamed extraction observed.
    pub stream: StreamStats,
}

impl QueryDriver {
    /// The batch entry: evaluates `q`, projects every answer's lineage onto
    /// the endogenous facts and solves them all under each of `measures`.
    pub fn batch(
        &self,
        db: &Database,
        q: &Ucq,
        cfg: PlannerConfig,
        measures: &[Measure],
    ) -> QueryBatch {
        let outputs = evaluate(q, db).outputs;
        let mut tuples = Vec::with_capacity(outputs.len());
        let mut lineages = Vec::with_capacity(outputs.len());
        for out in outputs {
            lineages.push(out.endo_lineage(db));
            tuples.push(out.tuple);
        }
        let report = self.run(
            Planner::for_query(cfg, q),
            &lineages,
            db.num_endogenous(),
            measures,
        );
        QueryBatch {
            tuples,
            lineages,
            report,
        }
    }

    /// The top-k entry: streams `q`'s answers through a bounded channel
    /// straight into the top-k executor, which ranks them by their best
    /// fact's Shapley value. `cfg` must stay on exact routes.
    pub fn topk(&self, db: &Database, q: &Ucq, cfg: PlannerConfig, k: usize) -> QueryTopK {
        let executor = TopKExecutor::new(self.with_cache(Planner::for_query(cfg, q)));
        let ((tuples, report), stream) = with_streamed_lineages(q, db, STREAM_CHUNK, |answers| {
            let mut tuples = Vec::new();
            let lineages = answers.map(|out| {
                let lineage = out.endo_lineage(db);
                tuples.push(out.tuple);
                lineage
            });
            let report = executor.run(lineages, k, db.num_endogenous(), &self.budget);
            (tuples, report)
        });
        QueryTopK {
            tuples,
            report,
            stream,
        }
    }

    pub(crate) fn run(
        &self,
        planner: Planner,
        lineages: &[Dnf],
        n_endo: usize,
        measures: &[Measure],
    ) -> BatchReport {
        BatchExecutor::new(self.with_cache(planner))
            .with_threads(self.threads)
            .run(lineages, n_endo, &self.budget, measures)
    }

    fn with_cache(&self, planner: Planner) -> Planner {
        match &self.cache {
            Some(cache) => planner.with_cache(cache.clone()),
            None => planner,
        }
    }
}

/// The error of an exact-mode solve. Exact-mode policies route only to
/// exact engines, which support every measure, and one-shot solves run
/// outside the service's `catch_unwind`, so only budget errors remain.
pub fn exact_mode_error(e: EngineError) -> AnalysisError {
    match e {
        EngineError::Analysis(a) => a,
        other => unreachable!("exact-mode solves fail only on budgets: {other}"),
    }
}
