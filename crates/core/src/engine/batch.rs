//! The parallel batch executor: dedup structurally identical lineages,
//! solve each distinct structure once, fan out across scoped threads.
//!
//! Multi-answer workloads are full of repeated lineage *structure* (every
//! answer of a star join looks like every other answer of that join), and
//! the Shapley value is equivariant under fact renaming — so the executor
//! interns lineages by their canonical [`shapdb_circuit::fingerprint()`],
//! computes each distinct structure exactly once through the [`Planner`],
//! and translates the values back through each task's renaming. Both the
//! fingerprint/canonicalization pass and the distinct-structure solves are
//! independent per task, so each fans out across `std::thread::scope`
//! workers (large stacks — the compiler recursion is bounded by the CNF
//! variable count).
//!
//! The pipeline itself — fingerprint → group → plan → solve → translate —
//! lives in [`super::stages`] as pool-agnostic free functions; this module
//! only owns the one-shot orchestration (scoped fan-out, fail-fast, the
//! per-run report). The resident [`super::ShapleyService`] runs the same
//! stage functions from its long-lived workers.
//!
//! Exact values translate *exactly*: batch output is identical, rational
//! for rational, to solving every task separately. Two layers of reuse
//! apply to them:
//!
//! * **intra-batch dedup** — one solve per distinct structure per run;
//! * **the cross-query [`super::ShapleyCache`]** (when the planner carries
//!   one) — a distinct structure seen in *any* earlier run under the same
//!   policy is served from the cache without running an engine at all.
//!
//! Sampling engines (Monte Carlo, Kernel SHAP) also solve once per distinct
//! structure, but with the group's **total** sample budget
//! ([`super::LineageTask::sample_scale`] = group size): the shared estimate
//! is drawn from exactly as many samples as the per-member sequential
//! solves would have spent, so dedup costs nothing in total draws and buys
//! a `G×`-sample estimate for every member of a size-`G` group. Sampling
//! results are never cached across runs (each batch draws its own
//! deterministic stream, salted by the representative task's index).

use super::{translate_result, EngineError, EngineResult, Measure, Planner};
use crate::exact::ExactConfig;
use shapdb_circuit::Dnf;
use shapdb_kc::{Budget, ComponentCache};
use shapdb_metrics::counters::{
    CacheRunStats, CounterSnapshot, DedupStats, KcCacheRunStats, NumRunStats, BATCH_DEDUP_HITS,
    BATCH_DISTINCT, BATCH_TASKS,
};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use super::stages;

/// Batch execution knobs.
#[derive(Clone, Copy, Debug)]
pub struct BatchConfig {
    /// Worker threads (0 = all available cores).
    pub threads: usize,
    /// Intern structurally identical lineages (on by default; turn off to
    /// measure the dedup win). Turning dedup off also bypasses the
    /// cross-query result cache: without fingerprints there are no cache
    /// keys.
    pub dedup: bool,
    /// Abort the batch on the first failed task: remaining tasks inherit
    /// that error instead of burning their own per-lineage timeouts. Off by
    /// default (every task gets its own verdict); callers that propagate
    /// the first error anyway (the facade's exact `explain`) turn it on.
    pub fail_fast: bool,
    /// The attribution every task of the batch computes
    /// ([`Measure::Shapley`] by default). For several measures in one pass
    /// over the same lineages, use [`BatchExecutor::run_measures`] — it
    /// shares one compiled structure across all of them.
    pub measure: Measure,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            threads: 0,
            dedup: true,
            fail_fast: false,
            measure: Measure::Shapley,
        }
    }
}

impl BatchConfig {
    /// Resolved worker count.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// One task's outcome within a batch.
#[derive(Clone, Debug)]
pub struct BatchItem {
    /// Index into the submitted lineage list.
    pub index: usize,
    /// The engine result, with values translated back onto this task's
    /// facts.
    pub result: Result<EngineResult, EngineError>,
    /// True iff this task reused a structurally identical lineage's
    /// computation instead of triggering its own.
    pub dedup_hit: bool,
}

/// What one batch run produced.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Per-task outcomes, in submission order.
    pub items: Vec<BatchItem>,
    /// Dedup statistics (the lineage-dedup hit rate of this run).
    pub dedup: DedupStats,
    /// Actual engine invocations. At most one per distinct structure;
    /// cache hits and fail-fast-aborted structures invoke none.
    pub engine_runs: usize,
    /// How this run used the cross-query result cache (all zeros when the
    /// planner carries none).
    pub cache: CacheRunStats,
    /// Worker threads used.
    pub threads: usize,
    /// Arithmetic-substrate routing of this run: how many DP passes ran on
    /// fixed-limb integers vs heap bignums, and how many ∧-convolutions
    /// took the NTT path.
    pub num: NumRunStats,
    /// Cross-lineage component-cache traffic of this run's top-down
    /// compiles (all zeros when no lineage took the top-down route).
    pub kc_cache: KcCacheRunStats,
    /// Wall time of the whole batch.
    pub total_time: Duration,
}

impl BatchReport {
    /// Drops the bookkeeping, keeping per-task results in order.
    pub fn into_results(self) -> Vec<Result<EngineResult, EngineError>> {
        self.items.into_iter().map(|i| i.result).collect()
    }
}

/// Executes batches of lineage tasks through a [`Planner`].
#[derive(Clone, Debug, Default)]
pub struct BatchExecutor {
    planner: Planner,
    cfg: BatchConfig,
}

impl BatchExecutor {
    /// An executor over the given planner, with default batch knobs.
    pub fn new(planner: Planner) -> BatchExecutor {
        BatchExecutor {
            planner,
            cfg: BatchConfig::default(),
        }
    }

    /// Sets the batch knobs.
    pub fn with_config(mut self, cfg: BatchConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Sets the worker-thread count (0 = all cores).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.cfg.threads = threads;
        self
    }

    /// Disables structural dedup.
    pub fn without_dedup(mut self) -> Self {
        self.cfg.dedup = false;
        self
    }

    /// Aborts the whole batch on the first failed task (see
    /// [`BatchConfig::fail_fast`]).
    pub fn with_fail_fast(mut self) -> Self {
        self.cfg.fail_fast = true;
        self
    }

    /// Sets the attribution measure every task of the batch computes.
    pub fn with_measure(mut self, measure: Measure) -> Self {
        self.cfg.measure = measure;
        self
    }

    /// The planner driving per-lineage routing.
    pub fn planner(&self) -> &Planner {
        &self.planner
    }

    /// Runs the batch: one lineage per output tuple, shared `n_endo` and
    /// budgets (per-lineage deadlines come from the planner's timeout).
    /// Orchestrates the shared pipeline stages over a one-shot scoped
    /// worker pool.
    pub fn run(
        &self,
        lineages: &[Dnf],
        n_endo: usize,
        budget: &Budget,
        exact: &ExactConfig,
    ) -> BatchReport {
        let start = Instant::now();
        let num_before = CounterSnapshot::take();
        let tasks = lineages.len();
        let pool = self.cfg.effective_threads();
        stages::record_measure_requests(self.cfg.measure, tasks as u64);
        // A batch-lived component cache when the planner does not already
        // carry a resident one: this run's top-down compiles share
        // isomorphic residual components across lineages either way.
        let planner = self.run_planner();

        // Stages 1–3: canonicalize (in parallel), group, plan.
        let fingerprints = stages::fingerprint_lineages(pool, lineages, self.cfg.dedup);
        let grouping = stages::group_by_structure(&fingerprints);
        let plans = stages::plan_groups(&planner, &grouping, &fingerprints, self.cfg.measure);
        let distinct = grouping.distinct();

        // Stage 4: fan the distinct structures out across scoped workers.
        // Fail-fast short-circuits the remaining structures onto the first
        // error instead of running them.
        let counters = stages::SolveCounters::new();
        let fail_fast = self.cfg.fail_fast;
        let threads = pool.min(distinct).max(1);
        let abort: Mutex<Option<EngineError>> = Mutex::new(None);
        let group_result: Vec<Result<EngineResult, EngineError>> =
            stages::parallel_map(threads, distinct, |g| {
                let aborted = abort.lock().expect("abort flag").clone();
                let result = match aborted {
                    Some(e) => Err(e),
                    None => {
                        let i = grouping.first_of_group[g];
                        stages::solve_group(
                            &planner,
                            fingerprints[i].as_ref(),
                            plans[g],
                            &lineages[i],
                            n_endo,
                            budget,
                            exact,
                            i as u64,
                            grouping.members_of[g].len(),
                            self.cfg.measure,
                            &counters,
                        )
                    }
                };
                if fail_fast {
                    if let Err(e) = &result {
                        abort.lock().expect("abort flag").get_or_insert(e.clone());
                    }
                }
                result
            });

        // Stage 5: assemble per-task outcomes — group results translate
        // back through each member's renaming.
        let mut items: Vec<BatchItem> = Vec::with_capacity(tasks);
        for (i, (&g, fp)) in grouping.group_of.iter().zip(&fingerprints).enumerate() {
            let result = group_result[g].clone();
            let result = match fp {
                Some(fp) => result.map(|r| translate_result(r, fp)),
                None => result,
            };
            items.push(BatchItem {
                index: i,
                result,
                dedup_hit: grouping.first_of_group[g] != i,
            });
        }

        let dedup = DedupStats {
            tasks,
            distinct,
            reused: tasks - distinct,
        };
        BATCH_TASKS.add(tasks as u64);
        BATCH_DISTINCT.add(distinct as u64);
        BATCH_DEDUP_HITS.add(dedup.hits() as u64);

        let after = CounterSnapshot::take();
        BatchReport {
            items,
            dedup,
            engine_runs: counters.engine_runs(),
            cache: counters.cache_stats(),
            threads,
            num: NumRunStats::delta(&after, &num_before),
            kc_cache: KcCacheRunStats::delta(&after, &num_before),
            total_time: start.elapsed(),
        }
    }

    /// Runs the batch for **several measures in one pass**: each lineage is
    /// fingerprinted once, each distinct structure is compiled (or
    /// factorized) at most once, and every requested measure is evaluated
    /// from that one canonical structure. With a cache attached, each
    /// (structure, measure) pair is its own entry — a warm sweep answers
    /// all of them with zero engine runs.
    ///
    /// `results[i][j]` is lineage `i`'s result for `measures[j]`, values
    /// translated back onto the lineage's own facts. `engine_runs` counts
    /// distinct structures actually solved — *not* evaluator passes — so a
    /// cold four-measure sweep over one structure reports exactly 1.
    pub fn run_measures(
        &self,
        lineages: &[Dnf],
        n_endo: usize,
        budget: &Budget,
        exact: &ExactConfig,
        measures: &[Measure],
    ) -> MeasureSweepReport {
        let start = Instant::now();
        let num_before = CounterSnapshot::take();
        let tasks = lineages.len();
        let pool = self.cfg.effective_threads();
        let planner = self.run_planner();

        let fingerprints = stages::fingerprint_lineages(pool, lineages, self.cfg.dedup);
        let grouping = stages::group_by_structure(&fingerprints);
        let distinct = grouping.distinct();

        let counters = stages::SolveCounters::new();
        let threads = pool.min(distinct).max(1);
        let group_results: Vec<Vec<Result<EngineResult, EngineError>>> =
            stages::parallel_map(threads, distinct, |g| {
                let i = grouping.first_of_group[g];
                stages::solve_group_multi(
                    &planner,
                    fingerprints[i].as_ref(),
                    &lineages[i],
                    n_endo,
                    budget,
                    exact,
                    measures,
                    &counters,
                )
            });

        let mut results: Vec<Vec<Result<EngineResult, EngineError>>> = Vec::with_capacity(tasks);
        for (&g, fp) in grouping.group_of.iter().zip(&fingerprints) {
            results.push(
                group_results[g]
                    .iter()
                    .map(|r| match (r.clone(), fp) {
                        (Ok(v), Some(fp)) => Ok(translate_result(v, fp)),
                        (r, _) => r,
                    })
                    .collect(),
            );
        }

        let dedup = DedupStats {
            tasks,
            distinct,
            reused: tasks - distinct,
        };
        BATCH_TASKS.add((tasks * measures.len()) as u64);
        BATCH_DISTINCT.add(distinct as u64);
        BATCH_DEDUP_HITS.add(dedup.hits() as u64);

        let after = CounterSnapshot::take();
        MeasureSweepReport {
            results,
            measures: measures.to_vec(),
            dedup,
            engine_runs: counters.engine_runs(),
            cache: counters.cache_stats(),
            threads,
            num: NumRunStats::delta(&after, &num_before),
            kc_cache: KcCacheRunStats::delta(&after, &num_before),
            total_time: start.elapsed(),
        }
    }

    /// The planner a run solves through: the executor's own when it
    /// already carries a resident component cache, otherwise a clone with
    /// a batch-lived [`ComponentCache`] attached — so intra-batch
    /// cross-lineage fragment sharing happens even without a resident
    /// service cache. The result cache `Arc` is shared by the clone, so
    /// cross-run result reuse is unaffected.
    fn run_planner(&self) -> Planner {
        match self.planner.component_cache() {
            Some(_) => self.planner.clone(),
            None => self
                .planner
                .clone()
                .with_component_cache(Arc::new(ComponentCache::new())),
        }
    }
}

/// What one multi-measure sweep ([`BatchExecutor::run_measures`]) produced.
#[derive(Clone, Debug)]
pub struct MeasureSweepReport {
    /// `results[i][j]` = lineage `i`'s result for `measures[j]`, values on
    /// the lineage's own facts.
    pub results: Vec<Vec<Result<EngineResult, EngineError>>>,
    /// The measures, in request order (the column order of `results`).
    pub measures: Vec<Measure>,
    /// Lineage-dedup statistics (measured over lineages, not
    /// lineage×measure pairs).
    pub dedup: DedupStats,
    /// Distinct structures actually solved (one shared compile serves every
    /// measure of a structure; cache-warm structures solve none).
    pub engine_runs: usize,
    /// Per-(structure, measure) cache involvement.
    pub cache: CacheRunStats,
    /// Worker threads used.
    pub threads: usize,
    /// Arithmetic-substrate routing of this sweep.
    pub num: NumRunStats,
    /// Cross-lineage component-cache traffic of this sweep's top-down
    /// compiles.
    pub kc_cache: KcCacheRunStats,
    /// Wall time of the whole sweep.
    pub total_time: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{
        EngineKind, EngineValues, LineageTask, MonteCarloEngine, PlannerConfig, ShapleyEngine,
    };
    use shapdb_circuit::VarId;
    use shapdb_num::Rational;

    fn dnf(conjs: &[&[u32]]) -> Dnf {
        let mut d = Dnf::new();
        for c in conjs {
            d.add_conjunct(c.iter().map(|&v| VarId(v)).collect());
        }
        d
    }

    fn exact_pairs(r: &EngineResult) -> Vec<(u32, Rational)> {
        match &r.values {
            EngineValues::Exact(v) => v.iter().map(|(f, x)| (f.0, x.clone())).collect(),
            EngineValues::Approx(_) => panic!("expected exact"),
        }
    }

    #[test]
    fn isomorphic_lineages_solved_once_with_exact_translation() {
        // Three matchings, one of them pairing across the id order, plus a
        // distinct singleton lineage: 4 tasks, 2 distinct structures.
        let lineages = vec![
            dnf(&[&[0, 10], &[1, 11]]),
            dnf(&[&[2, 20], &[3, 21]]),
            dnf(&[&[4, 31], &[5, 30]]),
            dnf(&[&[7]]),
        ];
        let exec = BatchExecutor::new(Planner::new(PlannerConfig::default()));
        let report = exec.run(&lineages, 40, &Budget::unlimited(), &ExactConfig::default());
        assert_eq!(
            report.dedup,
            DedupStats {
                tasks: 4,
                distinct: 2,
                reused: 2
            }
        );
        assert_eq!(report.engine_runs, 2);
        assert_eq!(report.dedup.hits(), 2);
        let hits: Vec<bool> = report.items.iter().map(|i| i.dedup_hit).collect();
        assert_eq!(hits, vec![false, true, true, false]);
        // Every matching task gets 1/4 per fact, on *its own* facts.
        for (idx, facts) in [
            (0, [0u32, 1, 10, 11]),
            (1, [2, 3, 20, 21]),
            (2, [4, 5, 30, 31]),
        ] {
            let r = report.items[idx].result.as_ref().unwrap();
            let pairs = exact_pairs(r);
            let mut got: Vec<u32> = pairs.iter().map(|(f, _)| *f).collect();
            got.sort_unstable();
            assert_eq!(got, facts);
            for (_, v) in pairs {
                assert_eq!(v, Rational::from_ratio(1, 4));
            }
        }
        let singleton = exact_pairs(report.items[3].result.as_ref().unwrap());
        assert_eq!(singleton, vec![(7, Rational::one())]);
    }

    #[test]
    fn batch_matches_per_task_solving_at_any_thread_count() {
        let lineages = vec![
            dnf(&[&[0], &[1, 3], &[1, 4], &[2, 3], &[2, 4], &[5, 6]]),
            dnf(&[&[8, 9], &[9, 10], &[8, 10]]), // majority: the KC route
            dnf(&[&[11, 12], &[13, 14]]),
            dnf(&[&[15, 16], &[16, 17], &[15, 17]]), // isomorphic to the majority
        ];
        let planner = Planner::new(PlannerConfig::default());
        let sequential: Vec<Vec<(u32, Rational)>> = lineages
            .iter()
            .map(|l| {
                let task = LineageTask::new(l, 20);
                exact_pairs(&planner.solve(&task).unwrap())
            })
            .collect();
        for threads in [1, 4] {
            let exec = BatchExecutor::new(planner.clone()).with_threads(threads);
            let report = exec.run(&lineages, 20, &Budget::unlimited(), &ExactConfig::default());
            for (i, item) in report.items.iter().enumerate() {
                let got = exact_pairs(item.result.as_ref().unwrap());
                assert_eq!(got, sequential[i], "threads={threads}, task {i}");
            }
            assert_eq!(report.dedup.distinct, 3, "threads={threads}");
        }
    }

    #[test]
    fn unminimized_lineages_agree_between_batch_and_sequential() {
        // {0,1},{1,2},{0,2},{0,1,3}: the last conjunct is absorbed and var 3
        // is a null player. Every engine minimizes first, so the KC route
        // reports the same fact set with and without dedup, and batch
        // equals per-task solving even on non-minimized inputs.
        let lineages = vec![
            dnf(&[&[0, 1], &[1, 2], &[0, 2], &[0, 1, 3]]),
            dnf(&[&[4, 5], &[5, 6], &[4, 6], &[4, 5, 7]]),
        ];
        let planner = Planner::new(PlannerConfig::default());
        let sequential: Vec<Vec<(u32, Rational)>> = lineages
            .iter()
            .map(|l| exact_pairs(&planner.solve(&LineageTask::new(l, 8)).unwrap()))
            .collect();
        assert_eq!(sequential[0].len(), 3, "absorbed var 3 is omitted");
        for (exec, label) in [
            (BatchExecutor::new(planner.clone()), "dedup"),
            (
                BatchExecutor::new(planner.clone()).without_dedup(),
                "no dedup",
            ),
        ] {
            let report = exec.run(&lineages, 8, &Budget::unlimited(), &ExactConfig::default());
            for (i, item) in report.items.iter().enumerate() {
                let got = exact_pairs(item.result.as_ref().unwrap());
                assert_eq!(got, sequential[i], "{label}, task {i}");
            }
        }
    }

    #[test]
    fn dedup_can_be_disabled() {
        let lineages = vec![dnf(&[&[0, 1]]), dnf(&[&[2, 3]])];
        let exec = BatchExecutor::new(Planner::new(PlannerConfig::default())).without_dedup();
        let report = exec.run(&lineages, 4, &Budget::unlimited(), &ExactConfig::default());
        assert_eq!(
            report.dedup,
            DedupStats {
                tasks: 2,
                distinct: 2,
                reused: 0
            }
        );
        assert_eq!(report.dedup.hit_rate(), 0.0);
        assert!(report.items.iter().all(|i| !i.dedup_hit));
    }

    #[test]
    fn errors_are_per_task_and_translated_tasks_share_them() {
        // A KC-routed structure under an impossible node budget fails; both
        // members of its dedup group see the error, the read-once task does
        // not.
        let lineages = vec![
            dnf(&[&[0, 1], &[1, 2], &[0, 2]]),
            dnf(&[&[5]]),
            dnf(&[&[10, 11], &[11, 12], &[10, 12]]),
        ];
        let kc_only = PlannerConfig {
            max_naive_vars: 0, // keep the tiny majorities on the KC route
            ..Default::default()
        };
        let exec = BatchExecutor::new(Planner::new(kc_only));
        let report = exec.run(
            &lineages,
            13,
            &Budget::with_max_nodes(1),
            &ExactConfig::default(),
        );
        assert!(report.items[0].result.is_err());
        assert!(report.items[1].result.is_ok());
        assert!(report.items[2].result.is_err());
        assert!(report.items[2].dedup_hit);
        // With a hybrid fallback the same batch degrades to rankings
        // instead of errors.
        let hybrid = BatchExecutor::new(Planner::new(PlannerConfig {
            fallback: Some(EngineKind::Proxy),
            ..kc_only
        }));
        let report = hybrid.run(
            &lineages,
            13,
            &Budget::with_max_nodes(1),
            &ExactConfig::default(),
        );
        assert!(report.items.iter().all(|i| i.result.is_ok()));
        assert_eq!(
            report.items[0].result.as_ref().unwrap().engine,
            EngineKind::Proxy
        );
    }

    #[test]
    fn fail_fast_aborts_remaining_tasks_with_the_first_error() {
        // Two KC-hard structures under an impossible node budget plus a
        // read-once singleton after them: with fail_fast the singleton is
        // not solved, it inherits the first error.
        let lineages = vec![
            dnf(&[&[0, 1], &[1, 2], &[0, 2]]),
            dnf(&[&[10, 11], &[11, 12], &[10, 13], &[12, 13]]),
            dnf(&[&[5]]),
        ];
        let kc_only = PlannerConfig {
            max_naive_vars: 0, // keep the tiny majorities on the KC route
            ..Default::default()
        };
        let exec = BatchExecutor::new(Planner::new(kc_only))
            .with_fail_fast()
            .with_threads(1);
        let report = exec.run(
            &lineages,
            14,
            &Budget::with_max_nodes(1),
            &ExactConfig::default(),
        );
        let first_err = report.items[0].result.clone().unwrap_err();
        assert!(report.items.iter().all(|i| i.result.is_err()));
        assert_eq!(report.items[2].result.clone().unwrap_err(), first_err);
        // Regression: `engine_runs` counts *actual* engine invocations —
        // the two aborted structures never invoked one.
        assert_eq!(report.dedup.distinct, 3);
        assert_eq!(report.engine_runs, 1, "only the first structure ran");
        // Default mode: the singleton still succeeds, and every structure
        // really ran.
        let exec = BatchExecutor::new(Planner::new(kc_only)).with_threads(1);
        let report = exec.run(
            &lineages,
            14,
            &Budget::with_max_nodes(1),
            &ExactConfig::default(),
        );
        assert!(report.items[2].result.is_ok());
        assert_eq!(report.engine_runs, 3);
    }

    /// Sorted per-member estimate vectors (values only, facts normalized
    /// away) of every batch item.
    fn approx_rows(report: &BatchReport) -> Vec<Vec<f64>> {
        report
            .items
            .iter()
            .map(|item| {
                let r = item.result.as_ref().unwrap();
                match &r.values {
                    EngineValues::Approx(v) => {
                        let mut by_fact = v.clone();
                        by_fact.sort_by_key(|(f, _)| *f);
                        by_fact.iter().map(|(_, x)| *x).collect()
                    }
                    EngineValues::Exact(_) => panic!("expected sampling estimates"),
                }
            })
            .collect()
    }

    #[test]
    fn sampling_groups_pool_the_sequential_sample_budget() {
        // Two isomorphic matchings forced through Monte Carlo: the group is
        // solved ONCE with `sample_scale = 2` — exactly the total number of
        // permutations two sequential solves would draw — and the shared
        // estimate translates onto each member's own facts. The pooled
        // estimate must be bit-identical to a direct canonical solve with a
        // doubled permutation budget.
        let lineages = vec![dnf(&[&[0, 10], &[1, 11]]), dnf(&[&[2, 20], &[3, 21]])];
        let exec = BatchExecutor::new(Planner::new(PlannerConfig {
            force: Some(EngineKind::MonteCarlo),
            ..Default::default()
        }))
        .with_threads(1);
        let report = exec.run(&lineages, 24, &Budget::unlimited(), &ExactConfig::default());
        assert_eq!(report.dedup.distinct, 1, "structures intern");
        assert_eq!(report.engine_runs, 1, "one pooled sampling solve");
        assert!(report.items[1].dedup_hit, "the second member shares it");
        let estimates = approx_rows(&report);
        assert_eq!(
            estimates[0], estimates[1],
            "one shared estimate, translated onto each member's facts"
        );
        // Every fact's exact value is 1/4; a 2×-budget pooled estimate must
        // sit well within sampling tolerance.
        for row in &estimates {
            for &x in row {
                assert!((x - 0.25).abs() < 0.2, "estimate {x} strays from 1/4");
            }
        }
        // The pooled estimate equals a direct solve of the canonical
        // structure with sample_scale = group size (same seed salt = the
        // representative's index, 0), compared through the fingerprint
        // renaming.
        let fp = shapdb_circuit::fingerprint(&lineages[0]);
        let canonical = fp.canonical_dnf();
        let direct = MonteCarloEngine::default()
            .solve(
                &LineageTask::new(&canonical, 24)
                    .assume_minimized()
                    .with_sample_scale(2),
            )
            .unwrap();
        let EngineValues::Approx(direct_pairs) = &direct.values else {
            panic!("sampling result")
        };
        let EngineValues::Approx(member_pairs) = &report.items[0].result.as_ref().unwrap().values
        else {
            panic!("sampling result")
        };
        for (canon_var, value) in direct_pairs {
            let own_fact = fp.var_of(canon_var.0);
            let member_value = member_pairs
                .iter()
                .find(|(f, _)| *f == own_fact)
                .expect("translated fact present")
                .1;
            assert_eq!(member_value, *value, "scale = group size, exactly");
        }
        // Determinism: the same batch re-run reproduces the same draws.
        let again = exec.run(&lineages, 24, &Budget::unlimited(), &ExactConfig::default());
        for (a, b) in report.items.iter().zip(&again.items) {
            assert_eq!(
                a.result.as_ref().unwrap().values,
                b.result.as_ref().unwrap().values
            );
        }
    }

    #[test]
    fn fallback_to_sampling_pools_the_group_budget_too() {
        // An exact Kc plan that fails on an impossible node budget, with a
        // Monte Carlo fallback: the group solve runs once with the group's
        // total sampling budget and every member shares the translated
        // estimate — the same pooling as a planned sampling group.
        let lineages = vec![
            dnf(&[&[0, 1], &[1, 2], &[0, 2]]),
            dnf(&[&[5, 6], &[6, 7], &[5, 7]]),
        ];
        let exec = BatchExecutor::new(Planner::new(PlannerConfig {
            fallback: Some(EngineKind::MonteCarlo),
            max_naive_vars: 0, // the Kc plan must fail for the fallback to run
            ..Default::default()
        }))
        .with_threads(2);
        let report = exec.run(
            &lineages,
            8,
            &Budget::with_max_nodes(1),
            &ExactConfig::default(),
        );
        assert_eq!(report.dedup.distinct, 1);
        assert_eq!(report.engine_runs, 1, "one fallback draw for the group");
        assert!(report.items[1].dedup_hit);
        let estimates = approx_rows(&report);
        assert_eq!(estimates[0], estimates[1], "shared translated estimate");
        for row in &estimates {
            for &x in row {
                assert!((x - 1.0 / 3.0).abs() < 0.25, "estimate {x} strays");
            }
        }
    }

    #[test]
    fn zero_capacity_cache_counts_bypasses_not_misses() {
        use crate::engine::ShapleyCache;
        use std::sync::Arc;
        let cache = Arc::new(ShapleyCache::with_capacity(0));
        let exec =
            BatchExecutor::new(Planner::new(PlannerConfig::default()).with_cache(cache.clone()))
                .with_threads(1);
        let lineages = vec![dnf(&[&[0]])];
        let report = exec.run(&lineages, 2, &Budget::unlimited(), &ExactConfig::default());
        assert!(report.items[0].result.is_ok());
        assert_eq!(
            report.cache,
            CacheRunStats {
                hits: 0,
                misses: 0,
                bypasses: 1
            }
        );
        assert_eq!(report.engine_runs, 1);
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.len), (0, 0));
        assert!(stats.bypasses >= 1);
    }

    #[test]
    fn cached_runs_skip_engines_and_stay_bit_identical() {
        use crate::engine::ShapleyCache;
        use std::sync::Arc;
        let cache = Arc::new(ShapleyCache::new());
        let planner = Planner::new(PlannerConfig::default()).with_cache(cache.clone());
        let exec = BatchExecutor::new(planner).with_threads(1);
        // Two isomorphic matchings + majority: 2 distinct structures.
        let lineages = vec![
            dnf(&[&[0, 10], &[1, 11]]),
            dnf(&[&[2, 20], &[3, 21]]),
            dnf(&[&[4, 5], &[5, 6], &[4, 6]]),
        ];
        let cold = exec.run(&lineages, 24, &Budget::unlimited(), &ExactConfig::default());
        assert_eq!(
            cold.cache,
            CacheRunStats {
                hits: 0,
                misses: 2,
                bypasses: 0
            }
        );
        assert_eq!(cold.engine_runs, 2);
        let warm = exec.run(&lineages, 24, &Budget::unlimited(), &ExactConfig::default());
        assert_eq!(warm.cache.hits, 2);
        assert_eq!(warm.engine_runs, 0, "everything served from the cache");
        for (a, b) in cold.items.iter().zip(&warm.items) {
            assert_eq!(
                exact_pairs(a.result.as_ref().unwrap()),
                exact_pairs(b.result.as_ref().unwrap()),
                "bit-identical exact rationals"
            );
        }
        // A *renamed* copy of the majority in a fresh batch still hits: the
        // cache is keyed by canonical structure, not by fact ids.
        let renamed = vec![dnf(&[&[100, 200], &[200, 300], &[100, 300]])];
        let cross = exec.run(&renamed, 24, &Budget::unlimited(), &ExactConfig::default());
        assert_eq!(cross.cache.hits, 1);
        assert_eq!(cross.engine_runs, 0);
        let pairs = exact_pairs(cross.items[0].result.as_ref().unwrap());
        for (f, v) in pairs {
            assert!([100, 200, 300].contains(&f), "translated onto own facts");
            assert_eq!(v, Rational::from_ratio(1, 3));
        }
        assert_eq!(cache.stats().len, 2);
    }

    #[test]
    fn single_measure_batches_compute_that_measure() {
        // The same running example under a Banzhaf-configured batch: every
        // result is tagged Banzhaf and a1's value is the uniform-weight
        // 21/64, not the Shapley 43/105.
        let lineages = vec![dnf(&[&[0], &[1, 3], &[1, 4], &[2, 3], &[2, 4], &[5, 6]])];
        let exec = BatchExecutor::new(Planner::new(PlannerConfig::default()))
            .with_measure(Measure::Banzhaf);
        let report = exec.run(&lineages, 8, &Budget::unlimited(), &ExactConfig::default());
        let r = report.items[0].result.as_ref().unwrap();
        assert_eq!(r.measure, Measure::Banzhaf);
        let pairs = exact_pairs(r);
        assert_eq!(pairs[0], (0, Rational::from_ratio(21, 64)));
    }

    #[test]
    fn measure_sweep_shares_one_structure_and_hits_thereafter() {
        use crate::engine::ShapleyCache;
        use std::sync::Arc;
        // Satellite: one compile + four measure requests over one distinct
        // structure ⇒ `engine_runs == 1`; measure-keyed hits thereafter.
        // Two isomorphic majorities force the KC route (naive disabled).
        let lineages = vec![
            dnf(&[&[0, 1], &[1, 2], &[0, 2]]),
            dnf(&[&[5, 6], &[6, 7], &[5, 7]]),
        ];
        let cache = Arc::new(ShapleyCache::new());
        let planner = Planner::new(PlannerConfig {
            max_naive_vars: 0,
            ..Default::default()
        })
        .with_cache(cache.clone());
        let exec = BatchExecutor::new(planner.clone()).with_threads(1);
        let cold = exec.run_measures(
            &lineages,
            3,
            &Budget::unlimited(),
            &ExactConfig::default(),
            &Measure::ALL,
        );
        assert_eq!(cold.dedup.distinct, 1);
        assert_eq!(
            cold.engine_runs, 1,
            "one compiled structure served all four measures"
        );
        assert_eq!(cold.cache.misses, 4, "one entry per measure inserted");
        assert_eq!(cache.stats().len, 4);
        // Every lineage × measure cell is exact, correctly tagged, and on
        // the lineage's own facts.
        for (i, row) in cold.results.iter().enumerate() {
            for (r, m) in row.iter().zip(Measure::ALL) {
                let r = r.as_ref().unwrap();
                assert_eq!(r.measure, m, "lineage {i}");
                assert!(r.values.is_exact());
            }
        }
        // Majority-of-three ground truths: Shapley 1/3, Banzhaf 1/2,
        // responsibility 1/2, SHAP-score at uniform ½ background 1/6.
        let expect = [
            Rational::from_ratio(1, 3),
            Rational::from_ratio(1, 2),
            Rational::from_ratio(1, 2),
            Rational::from_ratio(1, 6),
        ];
        for (j, want) in expect.iter().enumerate() {
            for (_, v) in exact_pairs(cold.results[1][j].as_ref().unwrap()) {
                assert_eq!(&v, want, "measure {}", Measure::ALL[j]);
            }
        }
        // Warm sweep: measure-keyed hits, zero engine runs.
        let warm = exec.run_measures(
            &lineages,
            3,
            &Budget::unlimited(),
            &ExactConfig::default(),
            &Measure::ALL,
        );
        assert_eq!(warm.engine_runs, 0, "all four measures served from cache");
        assert_eq!(warm.cache.hits, 4);
        for (a, b) in cold
            .results
            .iter()
            .flatten()
            .zip(warm.results.iter().flatten())
        {
            assert_eq!(
                exact_pairs(a.as_ref().unwrap()),
                exact_pairs(b.as_ref().unwrap()),
                "bit-identical across cold and warm sweeps"
            );
        }
        // A sequential per-measure solve agrees rational-for-rational with
        // the sweep (same engines, same structure, same cache keys).
        for (j, m) in Measure::ALL.into_iter().enumerate() {
            let direct = planner
                .solve(&LineageTask::new(&lineages[0], 3).with_measure(m))
                .unwrap();
            assert_eq!(
                exact_pairs(&direct),
                exact_pairs(cold.results[0][j].as_ref().unwrap())
            );
        }
    }

    #[test]
    fn empty_batch() {
        let exec = BatchExecutor::new(Planner::new(PlannerConfig::default()));
        let report = exec.run(&[], 0, &Budget::unlimited(), &ExactConfig::default());
        assert!(report.items.is_empty());
        assert_eq!(
            report.dedup,
            DedupStats {
                tasks: 0,
                distinct: 0,
                reused: 0
            }
        );
    }
}
