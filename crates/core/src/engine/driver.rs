//! The one-shot query driver: Figure 3's flow — evaluate the query with
//! provenance, partially evaluate each answer's lineage with the exogenous
//! facts set to true, hand the lineages to an executor — written once for
//! the facade, the CLI and the aggregate games (`QueryDriver::aggregate`
//! in [`crate::aggregate`]). The engine policy, §6.3's hybrid included, is
//! the [`PlannerConfig`] each call passes; the driver builds
//! [`Planner::for_query`] from it with the caller's result cache.
//!
//! Every entry asks the query layer for [`LineageKind::Endogenous`]
//! lineages, so exogenous facts are dropped as each derivation is produced
//! and each answer's lineage is minimized once. The batch and aggregate
//! entries materialize them ([`evaluate_with`]); top-k streams them, on
//! the caller's thread when the driver has one worker and through a
//! bounded channel from a producer thread otherwise.

use super::{
    stages, AnalysisError, BatchExecutor, BatchReport, EngineError, Measure, Planner,
    PlannerConfig, ShapleyCache, TopKExecutor, TopKReport,
};
use shapdb_circuit::Dnf;
use shapdb_data::{Database, Value};
use shapdb_kc::Budget;
use shapdb_query::{
    evaluate_with, with_channeled_lineages, with_inline_lineages, LineageKind, OutputTuple,
    StreamStats, Ucq,
};
use std::sync::Arc;

/// Answers the top-k channel holds in flight when a producer thread
/// extracts lineages: large enough to keep the producer busy, small enough
/// that peak provenance stays far below full materialization at JOB scale.
pub const STREAM_CHUNK: usize = 256;

/// How a one-shot surface runs its solves: the result cache it holds, its
/// worker threads and the budget of every exact solve. The engine policy
/// is the [`PlannerConfig`] each call passes.
#[derive(Clone, Debug, Default)]
pub struct QueryDriver {
    /// The caller's cross-query result cache (`None`: caching off).
    pub cache: Option<Arc<ShapleyCache>>,
    /// Worker threads (0 = all available cores): the batch's solvers, and
    /// whether top-k extracts lineages on the caller's thread (one worker)
    /// or on a producer thread that overlaps with the ranking.
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
    /// The batch entry: evaluates `q` into every answer's endogenous
    /// lineage and solves them all under each of `measures`.
    pub fn batch(
        &self,
        db: &Database,
        q: &Ucq,
        cfg: PlannerConfig,
        measures: &[Measure],
    ) -> QueryBatch {
        let outputs = evaluate_with(q, db, LineageKind::Endogenous).outputs;
        let (tuples, lineages): (Vec<Vec<Value>>, Vec<Dnf>) = outputs
            .into_iter()
            .map(|out| (out.tuple, out.lineage))
            .unzip();
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

    /// The top-k entry: streams `q`'s endogenous lineages straight into the
    /// top-k executor, which ranks them by their best fact's Shapley value.
    /// With one worker the stream runs on the caller's thread; with more, a
    /// producer thread feeds it through a bounded channel of
    /// [`STREAM_CHUNK`] answers, extracting while the caller ranks
    /// (`make bench-rank` times both paths). `cfg` must stay on exact
    /// routes.
    pub fn topk(&self, db: &Database, q: &Ucq, cfg: PlannerConfig, k: usize) -> QueryTopK {
        let executor = TopKExecutor::new(self.with_cache(Planner::for_query(cfg, q)));
        let rank = |answers: &mut dyn Iterator<Item = OutputTuple>| {
            let mut tuples = Vec::new();
            let lineages = answers.map(|out| {
                tuples.push(out.tuple);
                out.lineage
            });
            let report = executor.run(lineages, k, db.num_endogenous(), &self.budget);
            (tuples, report)
        };
        let kind = LineageKind::Endogenous;
        let ((tuples, report), stream) = if stages::worker_count(self.threads) == 1 {
            with_inline_lineages(q, db, kind, rank)
        } else {
            with_channeled_lineages(q, db, kind, STREAM_CHUNK, rank)
        };
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
