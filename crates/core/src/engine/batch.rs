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
//! One entry point, [`BatchExecutor::run`], serves a whole measure set in
//! one pass (a one-measure run is the set of one): each distinct structure
//! is compiled (or factorized) at most once and every requested measure is
//! evaluated from it. Its only knob is the thread count; fail-fast follows
//! from the planner's policy (an exact-mode planner, one without a
//! fallback, aborts on the first error). The pipeline itself —
//! fingerprint → group → solve (planning each structure inside its
//! worker) → translate — lives in [`super::stages`] as pool-agnostic free
//! functions; this module only owns the one-shot orchestration (scoped
//! fan-out, fail-fast, the per-run report). The resident
//! [`super::ShapleyService`] runs the same stage functions from its
//! long-lived workers.
//!
//! Exact values translate *exactly*: batch output is identical, rational
//! for rational, to solving every task separately. Two layers of reuse
//! apply to them:
//!
//! * **intra-batch dedup** — one solve per distinct structure per run;
//! * **the cross-query [`super::ShapleyCache`]** (when the planner carries
//!   one) — a (structure, measure) pair seen in *any* earlier run under the
//!   same policy is served from the cache without running an engine at all.
//!
//! Sampling engines (Monte Carlo, Kernel SHAP) also solve once per distinct
//! structure, but with the group's **total** sample budget
//! ([`super::LineageTask::sample_scale`] = group size): the shared estimate
//! is drawn from exactly as many samples as the per-member sequential
//! solves would have spent, so dedup costs nothing in total draws and buys
//! a `G×`-sample estimate for every member of a size-`G` group. Sampling
//! results are never cached across runs (each run draws its own
//! deterministic stream, salted by the representative task's index).

use super::{translate_result, EngineError, EngineResult, Measure, Planner};
use shapdb_circuit::Dnf;
use shapdb_kc::{Budget, ComponentCache};
use shapdb_metrics::counters::{DedupStats, BATCH_DEDUP_HITS, BATCH_DISTINCT, BATCH_TASKS};
use shapdb_metrics::Profile;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use super::stages;

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
    /// Per-(lineage, measure) outcomes, lineage-major:
    /// `items[i * measures.len() + j]` is lineage `i` under `measures[j]`.
    /// A single-measure run has one item per lineage, in submission order.
    pub items: Vec<BatchItem>,
    /// The measures, in request order (the inner order of `items`).
    pub measures: Vec<Measure>,
    /// Dedup statistics over lineages (the lineage-dedup hit rate of this
    /// run).
    pub dedup: DedupStats,
    /// Worker threads used.
    pub threads: usize,
    /// Every counter this run bumped, on its own thread and its workers —
    /// routes, compiles, arithmetic tiers, cache traffic — and nothing any
    /// concurrent run did. `profile.engine_runs()` counts the distinct
    /// structures actually solved (cache hits and fail-fast-aborted
    /// structures invoke no engine); `CacheRunStats::of(&profile)` is the
    /// run's use of the cross-query result cache, per (structure, measure)
    /// pair.
    pub profile: Profile,
    /// Wall time of the whole batch.
    pub total_time: Duration,
}

/// Executes batches of lineage tasks through a [`Planner`].
///
/// An exact-mode planner (no [`super::PlannerConfig::fallback`]) runs the
/// batch fail-fast: the first failed structure aborts the rest, which
/// inherit its error instead of burning their own per-lineage timeouts.
/// Under a fallback policy every task gets its own verdict.
#[derive(Clone, Debug, Default)]
pub struct BatchExecutor {
    planner: Planner,
    /// Worker threads (0 = all available cores).
    threads: usize,
}

impl BatchExecutor {
    /// An executor over the given planner, on all cores.
    pub fn new(planner: Planner) -> BatchExecutor {
        BatchExecutor {
            planner,
            ..Default::default()
        }
    }

    /// Sets the worker-thread count (0 = all cores).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Runs the batch for every measure in `measures` in one pass: one
    /// lineage per output tuple, shared `n_endo` and budget (the planner's
    /// timeout clamps each structure's deadline). Each lineage is
    /// fingerprinted once, each distinct structure is compiled (or
    /// factorized) at most once, and every requested measure is evaluated
    /// from that one canonical structure. With a cache attached, each
    /// (structure, measure) pair is its own entry — a warm sweep answers
    /// all of them with zero engine runs.
    ///
    /// `items[i * measures.len() + j]` is lineage `i`'s result for
    /// `measures[j]`, values translated back onto the lineage's own facts;
    /// a one-measure run has one item per lineage. The profile's
    /// `engine.runs` counts distinct structures actually solved — *not*
    /// evaluator passes — so a cold four-measure sweep over one structure
    /// counts exactly 1.
    pub fn run(
        &self,
        lineages: &[Dnf],
        n_endo: usize,
        budget: &Budget,
        measures: &[Measure],
    ) -> BatchReport {
        let start = Instant::now();
        let profile = Arc::new(Profile::new());
        let _run = profile.enter();
        let tasks = lineages.len();
        let pool = stages::worker_count(self.threads);
        for &m in measures {
            stages::record_measure_requests(m, tasks as u64);
        }
        let planner = self.run_planner();
        // Exact mode propagates the first error anyway.
        let fail_fast = planner.cfg.fallback.is_none();

        // Stages 1–2: canonicalize (in parallel), group.
        let fingerprints = stages::fingerprint_lineages(pool, lineages);
        let grouping = stages::group_by_structure(&fingerprints);
        let distinct = grouping.distinct();

        // Stage 3: fan the distinct structures out across scoped workers;
        // each plans and solves its own. Fail-fast short-circuits the
        // remaining structures onto the first error instead of running
        // them.
        let threads = pool.min(distinct).max(1);
        let abort: Mutex<Option<EngineError>> = Mutex::new(None);
        let group_results: Vec<Vec<Result<EngineResult, EngineError>>> =
            stages::parallel_map(threads, distinct, |g| {
                if let Some(e) = abort.lock().expect("abort flag").clone() {
                    return vec![Err(e); measures.len()];
                }
                let i = grouping.first_of_group[g];
                let results = stages::solve_group(
                    &planner,
                    &fingerprints[i],
                    n_endo,
                    budget,
                    i as u64,
                    grouping.members_of[g].len(),
                    measures,
                );
                if fail_fast {
                    if let Some(Err(e)) = results.iter().find(|r| r.is_err()) {
                        abort.lock().expect("abort flag").get_or_insert(e.clone());
                    }
                }
                results
            });

        // Stage 4: assemble per-(lineage, measure) outcomes — group results
        // translate back through each member's renaming.
        let mut items: Vec<BatchItem> = Vec::with_capacity(tasks * measures.len());
        for (i, (&g, fp)) in grouping.group_of.iter().zip(&fingerprints).enumerate() {
            let dedup_hit = grouping.first_of_group[g] != i;
            items.extend(group_results[g].iter().map(|result| BatchItem {
                index: i,
                result: result.clone().map(|r| translate_result(r, fp)),
                dedup_hit,
            }));
        }

        let dedup = DedupStats { tasks, distinct };
        BATCH_TASKS.add(tasks as u64);
        BATCH_DISTINCT.add(distinct as u64);
        BATCH_DEDUP_HITS.add(dedup.hits() as u64);

        BatchReport {
            items,
            measures: measures.to_vec(),
            dedup,
            threads,
            profile: (*profile).clone(),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{
        EngineKind, EngineValues, LineageTask, MonteCarloEngine, PlannerConfig, ShapleyEngine,
    };
    use shapdb_circuit::VarId;
    use shapdb_metrics::counters::CacheRunStats;
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
        let report = exec.run(&lineages, 40, &Budget::unlimited(), &[Measure::Shapley]);
        assert_eq!(
            report.dedup,
            DedupStats {
                tasks: 4,
                distinct: 2,
            }
        );
        assert_eq!(report.profile.engine_runs(), 2);
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
            let report = exec.run(&lineages, 20, &Budget::unlimited(), &[Measure::Shapley]);
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
        // reports the same fact set whichever lineage solves the group, and
        // batch equals per-task solving even on non-minimized inputs.
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
        let exec = BatchExecutor::new(planner.clone());
        let report = exec.run(&lineages, 8, &Budget::unlimited(), &[Measure::Shapley]);
        for (i, item) in report.items.iter().enumerate() {
            let got = exact_pairs(item.result.as_ref().unwrap());
            assert_eq!(got, sequential[i], "task {i}");
        }
    }

    #[test]
    fn errors_are_per_task_and_translated_tasks_share_them() {
        // A KC-routed structure under an impossible node budget fails; both
        // members of its dedup group see the error, the read-once task
        // solved before it does not. (The exact planner runs fail-fast, so
        // one thread keeps the structure order fixed.)
        let lineages = vec![
            dnf(&[&[5]]),
            dnf(&[&[0, 1], &[1, 2], &[0, 2]]),
            dnf(&[&[10, 11], &[11, 12], &[10, 12]]),
        ];
        let kc_only = PlannerConfig {
            max_naive_vars: 0, // keep the tiny majorities on the KC route
            ..Default::default()
        };
        let exec = BatchExecutor::new(Planner::new(kc_only)).with_threads(1);
        let report = exec.run(
            &lineages,
            13,
            &Budget::with_max_nodes(1),
            &[Measure::Shapley],
        );
        assert!(report.items[0].result.is_ok());
        assert!(report.items[1].result.is_err());
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
            &[Measure::Shapley],
        );
        assert!(report.items.iter().all(|i| i.result.is_ok()));
        assert_eq!(
            report.items[1].result.as_ref().unwrap().engine,
            EngineKind::Proxy
        );
    }

    #[test]
    fn fail_fast_aborts_remaining_tasks_with_the_first_error() {
        // Two KC-hard structures under an impossible node budget plus a
        // read-once singleton after them: the exact planner runs fail-fast,
        // so the singleton is not solved, it inherits the first error.
        let lineages = vec![
            dnf(&[&[0, 1], &[1, 2], &[0, 2]]),
            dnf(&[&[10, 11], &[11, 12], &[10, 13], &[12, 13]]),
            dnf(&[&[5]]),
        ];
        let kc_only = PlannerConfig {
            max_naive_vars: 0, // keep the tiny majorities on the KC route
            ..Default::default()
        };
        let exec = BatchExecutor::new(Planner::new(kc_only)).with_threads(1);
        let report = exec.run(
            &lineages,
            14,
            &Budget::with_max_nodes(1),
            &[Measure::Shapley],
        );
        let first_err = report.items[0].result.clone().unwrap_err();
        assert!(report.items.iter().all(|i| i.result.is_err()));
        assert_eq!(report.items[2].result.clone().unwrap_err(), first_err);
        // Regression: `engine.runs` counts *actual* engine invocations —
        // the two aborted structures never invoked one.
        assert_eq!(report.dedup.distinct, 3);
        assert_eq!(
            report.profile.engine_runs(),
            1,
            "only the first structure ran"
        );
        // A fallback policy never aborts: every structure really ran, the
        // failed ones on the fallback.
        let hybrid = BatchExecutor::new(Planner::new(PlannerConfig {
            fallback: Some(EngineKind::Proxy),
            ..kc_only
        }))
        .with_threads(1);
        let report = hybrid.run(
            &lineages,
            14,
            &Budget::with_max_nodes(1),
            &[Measure::Shapley],
        );
        assert!(report.items.iter().all(|i| i.result.is_ok()));
        assert_eq!(report.profile.engine_runs(), 3);
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
        let report = exec.run(&lineages, 24, &Budget::unlimited(), &[Measure::Shapley]);
        assert_eq!(report.dedup.distinct, 1, "structures intern");
        assert_eq!(report.profile.engine_runs(), 1, "one pooled sampling solve");
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
        let again = exec.run(&lineages, 24, &Budget::unlimited(), &[Measure::Shapley]);
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
            &[Measure::Shapley],
        );
        assert_eq!(report.dedup.distinct, 1);
        assert_eq!(
            report.profile.engine_runs(),
            1,
            "one fallback draw for the group"
        );
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
        let report = exec.run(&lineages, 2, &Budget::unlimited(), &[Measure::Shapley]);
        assert!(report.items[0].result.is_ok());
        assert_eq!(
            CacheRunStats::of(&report.profile),
            CacheRunStats {
                hits: 0,
                misses: 0,
                bypasses: 1
            }
        );
        assert_eq!(report.profile.engine_runs(), 1);
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
        let cold = exec.run(&lineages, 24, &Budget::unlimited(), &[Measure::Shapley]);
        assert_eq!(
            CacheRunStats::of(&cold.profile),
            CacheRunStats {
                hits: 0,
                misses: 2,
                bypasses: 0
            }
        );
        assert_eq!(cold.profile.engine_runs(), 2);
        let warm = exec.run(&lineages, 24, &Budget::unlimited(), &[Measure::Shapley]);
        assert_eq!(CacheRunStats::of(&warm.profile).hits, 2);
        assert_eq!(
            warm.profile.engine_runs(),
            0,
            "everything served from the cache"
        );
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
        let cross = exec.run(&renamed, 24, &Budget::unlimited(), &[Measure::Shapley]);
        assert_eq!(CacheRunStats::of(&cross.profile).hits, 1);
        assert_eq!(cross.profile.engine_runs(), 0);
        let pairs = exact_pairs(cross.items[0].result.as_ref().unwrap());
        for (f, v) in pairs {
            assert!([100, 200, 300].contains(&f), "translated onto own facts");
            assert_eq!(v, Rational::from_ratio(1, 3));
        }
        assert_eq!(cache.stats().len, 2);
    }

    #[test]
    fn single_measure_batches_compute_that_measure() {
        // The same running example under a Banzhaf batch: every result is
        // tagged Banzhaf and a1's value is the uniform-weight 21/64, not
        // the Shapley 43/105.
        let lineages = vec![dnf(&[&[0], &[1, 3], &[1, 4], &[2, 3], &[2, 4], &[5, 6]])];
        let exec = BatchExecutor::new(Planner::new(PlannerConfig::default()));
        let report = exec.run(&lineages, 8, &Budget::unlimited(), &[Measure::Banzhaf]);
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
        let cold = exec.run(&lineages, 3, &Budget::unlimited(), &Measure::ALL);
        assert_eq!(cold.dedup.distinct, 1);
        assert_eq!(
            cold.profile.engine_runs(),
            1,
            "one compiled structure served all four measures"
        );
        assert_eq!(
            CacheRunStats::of(&cold.profile).misses,
            4,
            "one entry per measure inserted"
        );
        assert_eq!(cache.stats().len, 4);
        // Every lineage × measure cell is exact, correctly tagged, and on
        // the lineage's own facts.
        assert_eq!(cold.measures, Measure::ALL);
        assert_eq!(cold.items.len(), lineages.len() * Measure::ALL.len());
        for (cell, item) in cold.items.iter().enumerate() {
            let (i, m) = (cell / 4, Measure::ALL[cell % 4]);
            assert_eq!(item.index, i);
            let r = item.result.as_ref().unwrap();
            assert_eq!(r.measure, m, "lineage {i}");
            assert!(r.values.is_exact());
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
            for (_, v) in exact_pairs(cold.items[4 + j].result.as_ref().unwrap()) {
                assert_eq!(&v, want, "measure {}", Measure::ALL[j]);
            }
        }
        // Warm sweep: measure-keyed hits, zero engine runs.
        let warm = exec.run(&lineages, 3, &Budget::unlimited(), &Measure::ALL);
        assert_eq!(
            warm.profile.engine_runs(),
            0,
            "all four measures served from cache"
        );
        assert_eq!(CacheRunStats::of(&warm.profile).hits, 4);
        for (a, b) in cold.items.iter().zip(&warm.items) {
            assert_eq!(
                exact_pairs(a.result.as_ref().unwrap()),
                exact_pairs(b.result.as_ref().unwrap()),
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
                exact_pairs(cold.items[j].result.as_ref().unwrap())
            );
        }
    }

    #[test]
    fn run_equals_a_one_measure_sweep() {
        // A one-measure run is its measure's column of a sweep: item for
        // item the same engine, measure and values — under the exact
        // planner for every measure, and under forced Monte Carlo with
        // duplicated structures, where every column of a sweep must draw
        // with the representative's seed salt and the group-pooled sample
        // budget, like the one-measure run.
        let lineages = vec![
            dnf(&[&[0], &[1, 3], &[1, 4], &[2, 3], &[2, 4], &[5, 6]]),
            dnf(&[&[8, 9], &[9, 10], &[8, 10]]),
            dnf(&[&[11, 12], &[13, 14]]),
            dnf(&[&[15, 16], &[16, 17], &[15, 17]]),
            dnf(&[&[18, 19], &[20, 21]]),
        ];
        let column_of = |sweep: &BatchReport, run: &BatchReport, j: usize, label: &str| {
            let width = sweep.measures.len();
            assert_eq!(sweep.items.len(), run.items.len() * width, "{label}");
            for (i, y) in run.items.iter().enumerate() {
                let x = sweep.items[i * width + j].result.as_ref().unwrap();
                let y = y.result.as_ref().unwrap();
                assert_eq!(
                    (x.engine, x.measure, &x.values),
                    (y.engine, y.measure, &y.values),
                    "{label}"
                );
            }
        };
        let exec = BatchExecutor::new(Planner::new(PlannerConfig::default())).with_threads(1);
        let sweep = exec.run(&lineages, 22, &Budget::unlimited(), &Measure::ALL);
        for (j, m) in Measure::ALL.into_iter().enumerate() {
            let run = exec.run(&lineages, 22, &Budget::unlimited(), &[m]);
            column_of(&sweep, &run, j, m.name());
        }
        let sampling = BatchExecutor::new(Planner::new(PlannerConfig {
            force: Some(EngineKind::MonteCarlo),
            ..Default::default()
        }))
        .with_threads(1);
        let run = sampling.run(&lineages, 22, &Budget::unlimited(), &[Measure::Shapley]);
        assert_eq!(run.dedup.distinct, 3, "two duplicated structures");
        let twice = [Measure::Shapley; 2];
        let sweep = sampling.run(&lineages, 22, &Budget::unlimited(), &twice);
        for j in 0..2 {
            column_of(&sweep, &run, j, "monte carlo");
        }
    }

    #[test]
    fn empty_batch() {
        let exec = BatchExecutor::new(Planner::new(PlannerConfig::default()));
        let report = exec.run(&[], 0, &Budget::unlimited(), &[Measure::Shapley]);
        assert!(report.items.is_empty());
        assert_eq!(
            report.dedup,
            DedupStats {
                tasks: 0,
                distinct: 0,
            }
        );
    }
}
