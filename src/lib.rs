//! # shapdb — Shapley values of database facts in query answering
//!
//! A from-scratch Rust implementation of Deutch, Frost, Kimelfeld & Monet,
//! *Computing the Shapley Value of Facts in Query Answering* (SIGMOD 2022),
//! including every substrate the paper's pipeline uses: an in-memory
//! relational engine with Boolean provenance (the ProvSQL role), a Tseytin
//! transform and CNF→d-DNNF knowledge compiler (the c2d role), the exact
//! Shapley algorithm over d-DNNFs (Algorithm 1), the CNF Proxy heuristic
//! (Algorithm 2), Monte Carlo and Kernel SHAP baselines, the hybrid engine
//! (§6.3), probabilistic query evaluation and the `Shapley ≤p PQE` reduction
//! (Proposition 3.1), and TPC-H / IMDB-style workload generators.
//!
//! ## Quick start
//!
//! ```
//! use shapdb::{ShapleyAnalyzer, data::flights_example, query::ast::flights_query};
//!
//! // The paper's running example (Figure 1): flights and airports.
//! let (db, _a_ids) = flights_example();
//! let q = flights_query();
//!
//! let analyzer = ShapleyAnalyzer::new(&db);
//! let explanations = analyzer.explain(&q).unwrap();
//!
//! // Boolean query: one output tuple; its top contributor is the direct
//! // JFK→CDG flight with Shapley value 43/105 (Example 2.1).
//! let top = &explanations[0].attributions[0];
//! assert_eq!(db.display_fact(top.0), "Flights(JFK, CDG)");
//! assert_eq!(top.1.to_string(), "43/105");
//! ```
//!
//! Every call is a policy over one driver,
//! [`core::engine::QueryDriver`]: the analyzer holds the driver's budget,
//! thread count and result cache, builds the call's
//! [`core::engine::PlannerConfig`] and converts the driver's batch, top-k
//! or aggregate run into its report. Evaluation, the lineage stream,
//! endogenous projection and the executors live behind the driver only.
//!
//! The sub-crates are re-exported under short names: [`num`], [`data`],
//! [`query`], [`circuit`], [`kc`], [`prob`], [`core`], [`metrics`],
//! [`workloads`].

pub use shapdb_circuit as circuit;
pub use shapdb_core as core;
pub use shapdb_data as data;
pub use shapdb_kc as kc;
pub use shapdb_metrics as metrics;
pub use shapdb_num as num;
pub use shapdb_prob as prob;
pub use shapdb_query as query;
pub use shapdb_workloads as workloads;

use shapdb_circuit::{Circuit, VarId};
use shapdb_core::aggregate::{AggregateError, AggregateGame};
pub use shapdb_core::engine::Measure;
use shapdb_core::engine::{
    exact_mode_error, AnalysisError, CacheStats, EngineKind, EngineValues, KcEngine, Planner,
    PlannerConfig, QueryDriver, ServiceConfig, ShapleyCache, ShapleyService,
};
use shapdb_data::{Database, FactId, Value};
use shapdb_kc::Budget;
use shapdb_metrics::counters::{CacheRunStats, DedupStats};
use shapdb_metrics::Profile;
use shapdb_num::Rational;
use shapdb_query::{evaluate_negated, NegatedQuery, StreamStats, Ucq};
use std::sync::Arc;
use std::time::Duration;

/// Exact Shapley explanation of one output tuple.
#[derive(Clone, Debug)]
pub struct TupleExplanation {
    /// The output tuple (empty for Boolean queries).
    pub tuple: Vec<Value>,
    /// `(fact, exact Shapley value)` sorted by decreasing value; facts not in
    /// the tuple's lineage are null players (value 0) and are omitted.
    pub attributions: Vec<(FactId, Rational)>,
}

impl TupleExplanation {
    /// The `k` most influential facts.
    pub fn top_k(&self, k: usize) -> &[(FactId, Rational)] {
        &self.attributions[..k.min(self.attributions.len())]
    }
}

/// One output tuple's causal-responsibility attribution: the tuple's values
/// and each fact's `ρ = 1/(1 + min contingency)`.
pub type TupleResponsibilities = (Vec<Value>, Vec<(FactId, Rational)>);

/// Hybrid (§6.3) explanation of one output tuple: exact values when the
/// pipeline finished within the timeout, a CNF-Proxy ranking otherwise.
#[derive(Clone, Debug)]
pub struct TupleRanking {
    pub tuple: Vec<Value>,
    /// Sorted by decreasing value; `Exact` Shapley values or `Approx`
    /// CNF-Proxy scores.
    pub outcome: EngineValues,
}

/// A [`ShapleyAnalyzer::rank`] result: the per-answer hybrid outcomes plus
/// the batch executor's bookkeeping, so callers can see how much work the
/// structural dedup and the result cache saved on the ranking path too.
#[derive(Clone, Debug)]
pub struct RankReport {
    /// Per-answer hybrid rankings, in answer order.
    pub rankings: Vec<TupleRanking>,
    /// Lineage-dedup statistics across the ranked answers.
    pub dedup: DedupStats,
    /// Actual engine invocations (cache-served structures run none).
    pub engine_runs: usize,
    /// Cross-query result-cache traffic (all zeros when caching is off).
    pub cache: CacheRunStats,
    /// Worker threads used.
    pub threads: usize,
    /// Wall time of the ranking batch (excluding query evaluation).
    pub total_time: Duration,
}

/// One answer admitted to a [`ShapleyAnalyzer::rank_topk`] list.
#[derive(Clone, Debug)]
pub struct RankedAnswer {
    /// The answer's position in the query's output order (ascending head
    /// tuple).
    pub index: usize,
    /// The output tuple (empty for Boolean queries).
    pub tuple: Vec<Value>,
    /// The answer's score: its best fact's exact Shapley value.
    pub score: Rational,
    /// `(fact, exact Shapley value)` sorted by decreasing value, null
    /// players omitted — the same shape [`TupleExplanation`] carries.
    pub attributions: Vec<(FactId, Rational)>,
}

/// A [`ShapleyAnalyzer::rank_topk`] result: the `k` best answers plus the
/// pruning and streaming bookkeeping.
#[derive(Clone, Debug)]
pub struct TopKRanking {
    /// The `k` best answers under (score desc, head tuple asc) —
    /// bit-identical to the full ranking's length-`k` prefix.
    pub top: Vec<RankedAnswer>,
    /// The requested `k`.
    pub k: usize,
    /// Answers the query produced.
    pub answers: usize,
    /// Answers whose structure was actually solved.
    pub solved_answers: usize,
    /// Answers ranked out unsolved: dropped by the stream filter or pruned
    /// by the admission loop (`solved_answers + pruned_answers = answers`).
    pub pruned_answers: usize,
    /// Distinct structures solved, among the answers that survived the
    /// stream filter.
    pub solved_structures: usize,
    /// Distinct surviving structures pruned unsolved.
    pub pruned_structures: usize,
    /// Structural dedup over the answers that survived the stream filter
    /// (`tasks` is the survivor count; dropped answers are never
    /// canonicalized).
    pub dedup: DedupStats,
    /// Cross-query result-cache traffic of the solves.
    pub cache: CacheRunStats,
    /// Actual engine invocations.
    pub engine_runs: usize,
    /// What the streaming lineage extraction observed; peak provenance
    /// memory is bounded by the stream chunk, not the answer count (one
    /// answer on a one-thread analyzer, whose ranking extracts lineages on
    /// the caller's thread).
    pub stream: StreamStats,
    /// The ranking's own counters: bounds, fingerprints, routes, cache
    /// traffic, and on a one-thread analyzer the extraction's minimize
    /// passes.
    pub profile: Profile,
    /// Wall time of the ranking, including the streamed extraction it
    /// consumes as the answers arrive.
    pub total_time: Duration,
}

/// An [`ShapleyAnalyzer::explain_batch`] result: the explanations plus the
/// batch executor's bookkeeping (how much work the structural lineage dedup
/// saved, and how the work was spread over threads).
#[derive(Clone, Debug)]
pub struct BatchExplanation {
    /// Per-answer exact explanations, in answer order.
    pub explanations: Vec<TupleExplanation>,
    /// Lineage-dedup statistics: `dedup.hit_rate()` is the fraction of
    /// answers served from a structurally identical lineage's computation.
    pub dedup: DedupStats,
    /// Actual engine invocations: structures answered from the cross-query
    /// result cache (or aborted by fail-fast) run no engine.
    pub engine_runs: usize,
    /// How this call used the analyzer's cross-query result cache (all
    /// zeros when caching is disabled).
    pub cache: CacheRunStats,
    /// Worker threads used.
    pub threads: usize,
    /// The batch run's own counters: routes, compiles, arithmetic tiers
    /// (`num.vli_hits`, `num.bignum_fallbacks`, `num.ntt_convolutions`),
    /// cache traffic.
    pub profile: Profile,
    /// Wall time of the attribution batch (excluding query evaluation).
    pub total_time: Duration,
}

/// One-stop API over a database: evaluate a query and attribute each answer
/// to the endogenous facts by Shapley value.
///
/// The analyzer owns a cross-query [`ShapleyCache`] (on by default): exact
/// results are cached per canonical lineage structure, so repeated
/// `explain` calls — the same query again, or *any* query whose answers are
/// structurally isomorphic to ones already explained — skip the engines
/// entirely and translate the cached rationals onto their own facts.
/// Configure with [`ShapleyAnalyzer::with_cache_capacity`] (0 disables),
/// inspect with [`ShapleyAnalyzer::cache_stats`].
pub struct ShapleyAnalyzer<'a> {
    db: &'a Database,
    /// The budget, thread count and result cache every call runs with.
    driver: QueryDriver,
}

impl<'a> ShapleyAnalyzer<'a> {
    /// An analyzer with unlimited budgets, using every available core, with
    /// result caching on at the default capacity.
    pub fn new(db: &'a Database) -> ShapleyAnalyzer<'a> {
        ShapleyAnalyzer {
            db,
            driver: QueryDriver {
                cache: Some(Arc::new(ShapleyCache::new())),
                ..QueryDriver::default()
            },
        }
    }

    /// Sets the budget of every exact solve: its deadline bounds
    /// compilation and Algorithm 1 together (the read-once and naive
    /// routes too), its node cap bounds compilation.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.driver.budget = budget;
        self
    }

    /// Sets the worker-thread count (0 = all available cores): the batch
    /// solvers', and whether [`ShapleyAnalyzer::rank_topk`] extracts
    /// lineages on the caller's thread (one worker) or on a producer
    /// thread that overlaps with the ranking.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.driver.threads = threads;
        self
    }

    /// Resizes the cross-query result cache (`0` turns caching off). The
    /// previous cache's entries are dropped.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.driver.cache = (capacity > 0).then(|| Arc::new(ShapleyCache::with_capacity(capacity)));
        self
    }

    /// Totals of the analyzer's result cache (`None` when caching is off).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.driver.cache.as_ref().map(|c| c.stats())
    }

    /// Exact Shapley values for every output tuple of `q`. Lineages that
    /// factor take the read-once fast path; the rest run Figure 3's full
    /// pipeline. Structurally identical lineages are computed once and
    /// distinct ones fan out across worker threads
    /// ([`ShapleyAnalyzer::with_threads`]). Fails on the first tuple whose
    /// solve exceeds the budget — use [`ShapleyAnalyzer::rank`] for the
    /// timeout-tolerant variant.
    pub fn explain(&self, q: &Ucq) -> Result<Vec<TupleExplanation>, AnalysisError> {
        Ok(self.explain_batch(q)?.explanations)
    }

    /// [`ShapleyAnalyzer::explain`] under any attribution [`Measure`]:
    /// Banzhaf and SHAP-score ride the same planner routes (read-once
    /// factorization, shared knowledge compilation, measure-keyed result
    /// cache) as the Shapley value; responsibility is computed directly on
    /// the minimized lineage. Attribution lists are sorted by decreasing
    /// value with null players omitted, exactly like `explain`.
    pub fn explain_measure(
        &self,
        q: &Ucq,
        measure: Measure,
    ) -> Result<Vec<TupleExplanation>, AnalysisError> {
        Ok(self.explain_measure_batch(q, measure)?.explanations)
    }

    /// [`ShapleyAnalyzer::explain`], plus the batch bookkeeping: dedup hit
    /// rate, distinct structures solved, threads used, wall time.
    pub fn explain_batch(&self, q: &Ucq) -> Result<BatchExplanation, AnalysisError> {
        self.explain_measure_batch(q, Measure::Shapley)
    }

    /// [`ShapleyAnalyzer::explain_measure`] with the batch bookkeeping.
    pub fn explain_measure_batch(
        &self,
        q: &Ucq,
        measure: Measure,
    ) -> Result<BatchExplanation, AnalysisError> {
        let run = self
            .driver
            .batch(self.db, q, PlannerConfig::default(), &[measure]);
        let report = run.report;
        let mut explanations = Vec::with_capacity(run.tuples.len());
        for (tuple, item) in run.tuples.into_iter().zip(report.items) {
            let result = item.result.map_err(exact_mode_error)?;
            explanations.push(TupleExplanation {
                tuple,
                attributions: exact_facts(result.values),
            });
        }
        Ok(BatchExplanation {
            explanations,
            dedup: report.dedup,
            engine_runs: report.profile.engine_runs(),
            cache: CacheRunStats::of(&report.profile),
            threads: report.threads,
            profile: report.profile,
            total_time: report.total_time,
        })
    }

    /// Exact Shapley values for every output tuple of a query with safe
    /// negated atoms (§7's negation extension). Signed lineages never take
    /// the read-once fast path; they go through knowledge compilation, which
    /// handles negation natively. Values can be negative: a fact whose
    /// presence suppresses the answer carries negative responsibility.
    pub fn explain_negated(
        &self,
        q: &NegatedQuery,
    ) -> Result<Vec<TupleExplanation>, AnalysisError> {
        let n_endo = self.db.num_endogenous();
        let mut out = Vec::new();
        for tuple in evaluate_negated(q, self.db) {
            let elin = tuple.endo_lineage(self.db);
            let mut circuit = Circuit::new();
            let root = elin.to_circuit(&mut circuit);
            let result = KcEngine::analyze_circuit(&circuit, root, n_endo, &self.driver.budget)?;
            out.push(TupleExplanation {
                tuple: tuple.tuple,
                attributions: exact_facts(result.values),
            });
        }
        Ok(out)
    }

    /// Hybrid explanation (§6.3): knowledge compilation + Algorithm 1 under
    /// a per-answer `timeout` (the paper's sweet spot is 2.5 s), CNF-Proxy
    /// ranking otherwise. Never fails. The timeout clamps the deadline of
    /// [`ShapleyAnalyzer::with_budget`], if any: the tighter one bounds
    /// compilation and Algorithm 1 together. The planner-routed variant,
    /// which tries the read-once fast path first, is
    /// [`PlannerConfig::hybrid`].
    ///
    /// Returns the rankings wrapped in a [`RankReport`] carrying the batch
    /// bookkeeping (dedup hit rate, cache traffic, engine runs).
    pub fn rank(&self, q: &Ucq, timeout: Duration) -> RankReport {
        let cfg = PlannerConfig {
            // Paper mode: straight to knowledge compilation, and always
            // *try* it under the timeout (no admission caps).
            force: Some(EngineKind::Kc),
            timeout: Some(timeout),
            fallback: Some(EngineKind::Proxy),
            max_kc_vars: usize::MAX,
            max_kc_conjuncts: usize::MAX,
            ..Default::default()
        };
        let run = self.driver.batch(self.db, q, cfg, &[Measure::Shapley]);
        let report = run.report;
        let rankings = run
            .tuples
            .into_iter()
            .zip(report.items)
            .map(|(tuple, item)| TupleRanking {
                tuple,
                outcome: item.result.expect("proxy fallback never fails").values,
            })
            .collect();
        RankReport {
            rankings,
            dedup: report.dedup,
            engine_runs: report.profile.engine_runs(),
            cache: CacheRunStats::of(&report.profile),
            threads: report.threads,
            total_time: report.total_time,
        }
    }

    /// The `k` best answers of `q` by their top fact's exact Shapley value,
    /// without solving everything: lineages are extracted one answer at a
    /// time through the bounded streaming channel (peak provenance memory
    /// is governed by the chunk, not the answer count) and handed straight
    /// to the top-k executor. It bounds each raw lineage as it arrives and
    /// drops every answer whose upper bound falls strictly below the `k`-th
    /// best lower bound seen so far, so only the survivors are
    /// canonicalized. It then solves their structures in decreasing
    /// upper-bound order, pruning every structure whose bound falls
    /// strictly below the `k`-th best exact score already in hand. Both
    /// cuts are lossless: the returned list is bit-identical to the full
    /// ranking's length-`k` prefix under (score desc, head tuple asc) —
    /// tie-breaks included.
    ///
    /// Shares the analyzer's cross-query result cache, so ranking after
    /// `explain` (or vice versa) reuses every solved structure.
    pub fn rank_topk(&self, q: &Ucq, k: usize) -> Result<TopKRanking, AnalysisError> {
        let run = self.driver.topk(self.db, q, PlannerConfig::default(), k);
        let report = run.report.map_err(exact_mode_error)?;
        let top = report
            .top
            .into_iter()
            .map(|item| RankedAnswer {
                index: item.index,
                tuple: run.tuples[item.index].clone(),
                score: item.score,
                attributions: exact_facts(item.result.values),
            })
            .collect();
        Ok(TopKRanking {
            top,
            k: report.k,
            answers: report.answers,
            solved_answers: report.solved_answers,
            pruned_answers: report.pruned_answers,
            solved_structures: report.solved_structures,
            pruned_structures: report.pruned_structures,
            dedup: report.dedup,
            cache: CacheRunStats::of(&report.profile),
            engine_runs: report.profile.engine_runs(),
            stream: run.stream,
            profile: report.profile,
            total_time: report.total_time,
        })
    }

    /// Shapley values of the COUNT(*) aggregate game over `q`'s answers:
    /// `v(E) = |q(D_x ∪ E)|`. By linearity this is the sum of the per-tuple
    /// attributions; a fact's value says how many answers it is responsible
    /// for, fractionally.
    pub fn explain_count(&self, q: &Ucq) -> Result<Vec<(FactId, Rational)>, AnalysisError> {
        self.aggregate(q, AggregateGame::Count)
            .map_err(|e| match e {
                AggregateError::Analysis(a) => a,
                other => unreachable!("COUNT weighs every answer 1: {other}"),
            })
    }

    /// Shapley values of the SUM aggregate game over `q`'s answers:
    /// `v(E) = Σ_{t ∈ q(D_x∪E)} t[column]`, with `column` an index into the
    /// head. Fails if an answer's head has no such column or holds a
    /// non-integer there.
    pub fn explain_sum(
        &self,
        q: &Ucq,
        column: usize,
    ) -> Result<Vec<(FactId, Rational)>, AggregateError> {
        self.aggregate(q, AggregateGame::Sum(column))
    }

    fn aggregate(
        &self,
        q: &Ucq,
        game: AggregateGame,
    ) -> Result<Vec<(FactId, Rational)>, AggregateError> {
        let cfg = PlannerConfig::default();
        Ok(facts(self.driver.aggregate(self.db, q, cfg, game)?.1))
    }

    /// Causal responsibility (Meliou et al. 2010) of every fact, per output
    /// tuple: `ρ(f) = 1/(1 + min contingency)`. A coarser measure than the
    /// Shapley value (it only counts one minimal contingency), provided for
    /// comparison; the related-work measure the paper positions itself
    /// against.
    ///
    /// Routed through the engine layer as [`Measure::Responsibility`], so
    /// structurally identical answers are computed once and the results
    /// land in (and are served from) the measure-keyed cross-query cache.
    pub fn explain_responsibility(&self, q: &Ucq) -> Vec<TupleResponsibilities> {
        let run = self.driver.batch(
            self.db,
            q,
            PlannerConfig::default(),
            &[Measure::Responsibility],
        );
        run.tuples
            .into_iter()
            .zip(&run.lineages)
            .zip(run.report.items)
            .map(|((tuple, lineage), item)| {
                let values = match item.result {
                    Ok(r) => exact_facts(r.values),
                    // Responsibility needs no compiled circuit, but a
                    // caller-set budget can still abort a route (timeout,
                    // fail-fast neighbors); degrade to the direct DNF
                    // computation rather than fail an infallible API.
                    Err(_) => facts(shapdb_core::responsibility::responsibility_all(lineage)),
                };
                (tuple, values)
            })
            .collect()
    }

    /// Converts this analyzer into a resident
    /// [`ShapleyService`]: a
    /// long-lived worker pool (sized by
    /// [`ShapleyAnalyzer::with_threads`], overridable via `cfg.workers`)
    /// serving [`shapdb_core::engine::LineageRequest`]s from many clients.
    /// The service inherits this analyzer's budget
    /// ([`ShapleyAnalyzer::with_budget`]) as the default for requests that
    /// carry none, and — crucially — its
    /// cross-query result cache: anything the one-shot calls already
    /// explained is served to service clients without running an engine,
    /// and vice versa. When caching was disabled a fresh default cache is
    /// attached (a resident service without shared state would amortize
    /// nothing).
    ///
    /// The service holds no reference to the database — requests carry
    /// their own lineages and `n_endo` — so it outlives the analyzer's
    /// borrow and can be moved to wherever the serving loop lives.
    pub fn into_service(self, cfg: ServiceConfig) -> ShapleyService {
        let cfg = ServiceConfig {
            workers: if cfg.workers == 0 {
                self.driver.threads
            } else {
                cfg.workers
            },
            default_budget: self.driver.budget,
            ..cfg
        };
        let cache = (self.driver.cache).unwrap_or_else(|| Arc::new(ShapleyCache::new()));
        let planner = Planner::new(PlannerConfig::default()).with_cache(cache);
        ShapleyService::new(planner, cfg)
    }

    /// Renders an explanation as human-readable lines (`fact: value`).
    pub fn render(&self, e: &TupleExplanation) -> Vec<String> {
        e.attributions
            .iter()
            .map(|(f, v)| format!("{}: {} (≈{:.4})", self.db.display_fact(*f), v, v.to_f64()))
            .collect()
    }
}

/// Facts and values of an engine's variables, renamed onto fact ids.
fn facts(pairs: Vec<(VarId, Rational)>) -> Vec<(FactId, Rational)> {
    pairs.into_iter().map(|(v, r)| (FactId(v.0), r)).collect()
}

/// [`facts`] of values only exact engines produce.
fn exact_facts(values: EngineValues) -> Vec<(FactId, Rational)> {
    let EngineValues::Exact(pairs) = values else {
        unreachable!("exact engines yield exact values");
    };
    facts(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shapdb_circuit::Dnf;
    use shapdb_data::flights_example;
    use shapdb_query::ast::flights_query;

    #[test]
    fn analyzer_reproduces_example_2_1() {
        let (db, a) = flights_example();
        let analyzer = ShapleyAnalyzer::new(&db);
        let explanations = analyzer.explain(&flights_query()).unwrap();
        assert_eq!(explanations.len(), 1);
        let e = &explanations[0];
        assert_eq!(e.attributions.len(), 7); // a8 is a null player, omitted
        assert_eq!(e.attributions[0].0, a[0]);
        assert_eq!(e.attributions[0].1, Rational::from_ratio(43, 105));
        // Next four (the a2..a5 tier) share 23/210.
        for (_, v) in &e.attributions[1..5] {
            assert_eq!(v, &Rational::from_ratio(23, 210));
        }
        for (_, v) in &e.attributions[5..7] {
            assert_eq!(v, &Rational::from_ratio(8, 105));
        }
        let lines = analyzer.render(e);
        assert!(lines[0].starts_with("Flights(JFK, CDG): 43/105"));
    }

    #[test]
    fn an_expired_budget_deadline_fails_explain() {
        // The budget's deadline bounds the whole exact solve, so it stops
        // the read-once route the running example takes, not only
        // compilation.
        let (db, _) = flights_example();
        let past = std::time::Instant::now() - Duration::from_millis(1);
        let analyzer = ShapleyAnalyzer::new(&db).with_budget(Budget {
            deadline: Some(past),
            ..Budget::unlimited()
        });
        assert!(matches!(
            analyzer.explain(&flights_query()),
            Err(AnalysisError::Shapley(_))
        ));
    }

    #[test]
    fn rank_is_timeout_tolerant() {
        let (db, _) = flights_example();
        let analyzer = ShapleyAnalyzer::new(&db);
        let report = analyzer.rank(&flights_query(), Duration::ZERO);
        assert_eq!(report.rankings.len(), 1);
        assert!(!report.rankings[0].outcome.is_exact());
        assert_eq!(report.rankings[0].outcome.ranking().len(), 7);
        // The ranking path surfaces the batch bookkeeping too.
        assert_eq!(report.dedup.tasks, 1);
        assert_eq!(report.dedup.distinct, 1);
        assert!(report.threads >= 1);
    }

    #[test]
    fn explain_negated_matches_the_naive_definition() {
        use shapdb_query::{Atom, CqBuilder, Term};
        // q() :- Contract(v), ¬Violation(v) over four endogenous facts.
        let facts = [
            ("Contract", "acme"),
            ("Contract", "bolt"),
            ("Contract", "cryo"),
            ("Violation", "acme"),
        ];
        let database_of = |keep: &dyn Fn(usize) -> bool| {
            let mut db = Database::new();
            db.create_relation("Contract", &["vendor"]);
            db.create_relation("Violation", &["vendor"]);
            for (i, (rel, vendor)) in facts.iter().enumerate() {
                if keep(i) {
                    db.insert_endo(rel, vec![Value::str(vendor)]);
                }
            }
            db
        };
        let mut b = CqBuilder::new();
        let v = b.var("v");
        b.atom("Contract", [v.into()]);
        let q = NegatedQuery::new(
            b.build(),
            vec![Atom {
                relation: "Violation".into(),
                terms: vec![Term::Var(v)],
            }],
        );
        let db = database_of(&|_| true);
        let got = ShapleyAnalyzer::new(&db).explain_negated(&q).unwrap();
        assert_eq!(got.len(), 1);
        // The game v(E) = q(E): re-evaluate the query on every sub-database,
        // with each derivation's lineage read under "every fact present".
        let game = |s: &shapdb_num::Bitset| {
            let sub = database_of(&|i| s.contains(i));
            let mut present = shapdb_num::Bitset::new(sub.num_facts());
            for i in 0..sub.num_facts() {
                present.insert(i);
            }
            evaluate_negated(&q, &sub)
                .iter()
                .any(|t| t.lineage.eval_set(&present))
        };
        let naive = shapdb_core::naive::shapley_naive(&game, facts.len());
        let mut expected: Vec<(FactId, Rational)> = naive
            .into_iter()
            .enumerate()
            .filter(|(_, x)| !x.is_zero())
            .map(|(i, x)| (FactId(i as u32), x))
            .collect();
        expected.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        assert_eq!(got[0].attributions, expected);
        // The violation suppresses acme's compliance: a negative value.
        let violation = got[0].attributions.iter().find(|(f, _)| f.0 == 3).unwrap();
        assert!(violation.1.is_negative());
        assert_eq!(violation.1, Rational::from_ratio(-1, 12));
    }

    #[test]
    fn rank_is_exact_within_a_generous_timeout_and_proxy_at_zero() {
        let (db, _) = flights_example();
        let q = flights_query();
        let analyzer = ShapleyAnalyzer::new(&db);
        let explained = analyzer.explain(&q).unwrap();
        let report = analyzer.rank(&q, Duration::from_secs(60));
        let EngineValues::Exact(pairs) = &report.rankings[0].outcome else {
            panic!("exact within a generous timeout");
        };
        let got: Vec<(FactId, Rational)> = pairs
            .iter()
            .map(|(v, r)| (FactId(v.0), r.clone()))
            .collect();
        assert_eq!(got, explained[0].attributions);
        let report = analyzer.rank(&q, Duration::ZERO);
        let EngineValues::Approx(scores) = &report.rankings[0].outcome else {
            panic!("proxy ranking at a zero timeout");
        };
        assert_eq!(scores.len(), 7);
    }

    #[test]
    fn explain_batch_dedups_isomorphic_answers() {
        // q(b) :- R(a), S(a, b): hierarchical + sjf. Two b-groups with the
        // same star shape (two S-edges each) and one with a single edge:
        // 3 answers, 2 distinct lineage structures.
        let mut db = Database::new();
        db.create_relation("R", &["a"]);
        db.create_relation("S", &["a", "b"]);
        for a in 0..2 {
            db.insert_endo("R", vec![Value::int(a)]);
        }
        for (a, b) in [(0, 10), (1, 10), (0, 11), (1, 11), (0, 12)] {
            db.insert_endo("S", vec![Value::int(a), Value::int(b)]);
        }
        let q = shapdb_query::parse_ucq("q(b) :- R(a), S(a, b)").unwrap();
        for threads in [1, 4] {
            let analyzer = ShapleyAnalyzer::new(&db).with_threads(threads);
            let batch = analyzer.explain_batch(&q).unwrap();
            assert_eq!(batch.explanations.len(), 3);
            assert_eq!(batch.dedup.tasks, 3);
            assert_eq!(batch.dedup.distinct, 2, "b=10 and b=11 share a structure");
            assert_eq!(batch.engine_runs, 2);
            // Batch output matches the plain explain() view.
            let plain = analyzer.explain(&q).unwrap();
            for (b, p) in batch.explanations.iter().zip(&plain) {
                assert_eq!(b.tuple, p.tuple);
                assert_eq!(b.attributions, p.attributions);
            }
        }
    }

    #[test]
    fn result_cache_spans_calls_and_queries() {
        let mut db = Database::new();
        db.create_relation("R", &["a"]);
        db.create_relation("S", &["a", "b"]);
        for a in 0..2 {
            db.insert_endo("R", vec![Value::int(a)]);
        }
        for (a, b) in [(0, 10), (1, 10), (0, 11), (1, 11), (0, 12)] {
            db.insert_endo("S", vec![Value::int(a), Value::int(b)]);
        }
        let q = shapdb_query::parse_ucq("q(b) :- R(a), S(a, b)").unwrap();
        let analyzer = ShapleyAnalyzer::new(&db);
        let cold = analyzer.explain_batch(&q).unwrap();
        assert_eq!(cold.cache.hits, 0);
        assert_eq!(cold.cache.misses, 2, "two distinct structures stored");
        // Same query again: every structure is served from the cache, and
        // the exact rationals are bit-identical to the cold run.
        let warm = analyzer.explain_batch(&q).unwrap();
        assert!(warm.cache.hits >= 1);
        assert_eq!(warm.cache.misses, 0);
        assert_eq!(warm.engine_runs, 0, "no engine ran on the warm call");
        for (c, w) in cold.explanations.iter().zip(&warm.explanations) {
            assert_eq!(c.tuple, w.tuple);
            assert_eq!(c.attributions, w.attributions);
        }
        // A *different* query with isomorphic answers shares the cache too.
        let q2 = shapdb_query::parse_ucq("q(b) :- R(x), S(x, b)").unwrap();
        let cross = analyzer.explain_batch(&q2).unwrap();
        assert!(cross.cache.hits >= 1, "cache is keyed by structure");
        assert_eq!(cross.cache.misses, 0);
        let stats = analyzer.cache_stats().unwrap();
        assert!(stats.hits >= 4);
        assert_eq!(stats.len, 2);
    }

    #[test]
    fn cache_can_be_disabled() {
        let (db, _) = flights_example();
        let analyzer = ShapleyAnalyzer::new(&db).with_cache_capacity(0);
        assert!(analyzer.cache_stats().is_none());
        let explanations = analyzer.explain(&flights_query()).unwrap();
        assert_eq!(
            explanations[0].attributions[0].1,
            Rational::from_ratio(43, 105)
        );
        let batch = analyzer.explain_batch(&flights_query()).unwrap();
        assert_eq!(
            batch.cache,
            shapdb_metrics::counters::CacheRunStats::default()
        );
        assert_eq!(batch.engine_runs, 1);
    }

    #[test]
    fn into_service_shares_the_analyzer_cache() {
        use shapdb_core::engine::LineageRequest;
        let (db, _) = flights_example();
        let q = flights_query();
        let analyzer = ShapleyAnalyzer::new(&db).with_threads(1);
        // Warm the cache through the one-shot path...
        let explanations = analyzer.explain(&q).unwrap();
        let expected = explanations[0].attributions.clone();
        // ...then serve the same lineage structure from the resident pool:
        // no engine runs, the cached rationals translate bit-identically.
        let res = shapdb_query::evaluate(&q, &db);
        let lineage = res.outputs[0].endo_lineage(&db);
        let service = analyzer.into_service(Default::default());
        let sub = service
            .submit(LineageRequest::new(lineage, db.num_endogenous()))
            .unwrap();
        let result = sub.wait().unwrap();
        let EngineValues::Exact(pairs) = result.values else {
            panic!("exact expected");
        };
        let got: Vec<(FactId, Rational)> =
            pairs.into_iter().map(|(v, r)| (FactId(v.0), r)).collect();
        assert_eq!(got, expected);
        let stats = service.shutdown();
        assert_eq!(
            stats.profile.engine_runs(),
            0,
            "served from the shared cache"
        );
        assert_eq!(CacheRunStats::of(&stats.profile).hits, 1);
    }

    #[test]
    fn into_service_inherits_the_analyzer_budget() {
        use shapdb_core::engine::LineageRequest;
        let (db, _) = flights_example();
        // Four disjoint majorities: 12 vars, non-read-once — the KC route,
        // which respects the compile node cap.
        let mut wide = Dnf::new();
        for base in [0u32, 3, 6, 9] {
            for pair in [[base, base + 1], [base + 1, base + 2], [base, base + 2]] {
                wide.add_conjunct(pair.iter().map(|&v| circuit::VarId(v)).collect());
            }
        }
        let service = ShapleyAnalyzer::new(&db)
            .with_budget(Budget::with_max_nodes(1))
            .into_service(Default::default());
        // No per-request budget: the analyzer's impossible node cap is the
        // service default, so the compile must fail...
        let capped = service
            .submit(LineageRequest::new(wide.clone(), 12))
            .unwrap();
        assert!(capped.wait().is_err(), "inherited node cap applies");
        // ...while an explicit per-request budget overrides it.
        let lifted = service
            .submit(LineageRequest::new(wide, 12).with_budget(Budget::unlimited()))
            .unwrap();
        assert!(lifted.wait().is_ok());
    }

    #[test]
    fn explain_measure_covers_all_four_with_one_cache() {
        let (db, a) = flights_example();
        let analyzer = ShapleyAnalyzer::new(&db);
        let q = flights_query();
        // Banzhaf of the running example: a1 = 21/64 (uniform weights over
        // the same Γ/Δ arrays Shapley uses).
        let banzhaf = analyzer.explain_measure(&q, Measure::Banzhaf).unwrap();
        assert_eq!(banzhaf[0].attributions[0].0, a[0]);
        assert_eq!(banzhaf[0].attributions[0].1, Rational::from_ratio(21, 64));
        // Shapley through the measure API matches the classic entry point.
        let shapley = analyzer.explain_measure(&q, Measure::Shapley).unwrap();
        assert_eq!(
            shapley[0].attributions,
            analyzer.explain(&q).unwrap()[0].attributions
        );
        // SHAP-score and responsibility also come back exact and non-empty.
        for m in [Measure::ShapScore, Measure::Responsibility] {
            let e = analyzer.explain_measure(&q, m).unwrap();
            assert!(!e[0].attributions.is_empty(), "{m}");
        }
        // One structure, four measures: four measure-keyed entries, and the
        // repeat Shapley ask above was a cache hit.
        let stats = analyzer.cache_stats().unwrap();
        assert_eq!(stats.len, 4);
        assert!(stats.hits >= 1);
    }

    #[test]
    fn explain_responsibility_routes_through_the_measure_cache() {
        let (db, a) = flights_example();
        let analyzer = ShapleyAnalyzer::new(&db);
        let q = flights_query();
        let cold = analyzer.explain_responsibility(&q);
        // Example 2.1's lineage: every fact's minimal contingency has three
        // facts (see `responsibility::running_example_responsibilities`),
        // so all seven carry ρ = 1/4 and the null player a8 is omitted.
        let (_, values) = &cold[0];
        assert_eq!(values.len(), 7);
        assert!(values.iter().any(|(f, _)| *f == a[0]));
        assert!(values.iter().all(|(_, r)| r == &Rational::from_ratio(1, 4)));
        let after_cold = analyzer.cache_stats().unwrap();
        assert_eq!(after_cold.len, 1, "responsibility entry cached");
        let warm = analyzer.explain_responsibility(&q);
        assert_eq!(cold, warm);
        assert!(analyzer.cache_stats().unwrap().hits > after_cold.hits);
    }

    #[test]
    fn explain_sum_rejects_a_bad_column() {
        let (db, _) = flights_example();
        let q = shapdb_query::parse_ucq("q(x, y) :- Flights(x, y)").unwrap();
        let analyzer = ShapleyAnalyzer::new(&db);
        assert_eq!(
            analyzer.explain_sum(&q, 2),
            Err(AggregateError::ColumnOutOfRange(2))
        );
        assert_eq!(
            analyzer.explain_sum(&q, 1),
            Err(AggregateError::NotAnInteger(1))
        );
        // COUNT needs no column: every fact is one answer's sole support.
        let count = analyzer.explain_count(&q).unwrap();
        assert_eq!(count.len(), 8);
        assert!(count.iter().all(|(_, v)| v == &Rational::one()));
    }

    #[test]
    fn rank_topk_matches_the_full_rankings_prefix_on_job() {
        use shapdb_workloads::{job_database, job_ranking_query, JobConfig};
        let db = job_database(&JobConfig::smoke());
        let q = job_ranking_query();
        let analyzer = ShapleyAnalyzer::new(&db).with_threads(1);
        // Solve-everything baseline: every answer scored by its best fact,
        // ranked under (score desc, head tuple asc).
        let batch = analyzer.explain_batch(&q).unwrap();
        let mut baseline: Vec<(usize, Rational)> = batch
            .explanations
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let best = e
                    .attributions
                    .first()
                    .map(|(_, v)| v.clone())
                    .unwrap_or_else(Rational::zero);
                (i, best)
            })
            .collect();
        baseline.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let n = baseline.len();
        assert!(n > 10, "the JOB smoke corpus has plenty of answers");
        for k in [1, 3, n] {
            let ranking = analyzer.rank_topk(&q, k).unwrap();
            assert_eq!(ranking.answers, n);
            assert_eq!(ranking.solved_answers + ranking.pruned_answers, n);
            let got: Vec<(usize, Rational)> = ranking
                .top
                .iter()
                .map(|r| (r.index, r.score.clone()))
                .collect();
            assert_eq!(
                got,
                baseline[..k.min(n)].to_vec(),
                "k={k}: the prefix must be bit-identical, ties included"
            );
            // Each admitted answer carries the same tuple and the same
            // attribution list the solve-everything path produced.
            for r in &ranking.top {
                assert_eq!(r.tuple, batch.explanations[r.index].tuple, "k={k}");
                assert_eq!(
                    r.attributions, batch.explanations[r.index].attributions,
                    "k={k} index={}",
                    r.index
                );
            }
            if k >= n {
                assert_eq!(ranking.pruned_answers, 0, "k≥n never prunes");
            }
            // The stream stayed chunk-bounded regardless of answer count.
            assert!(
                ranking.stream.peak_in_flight_literals
                    <= 257 * ranking.stream.max_answer_literals.max(1)
            );
        }
    }
}
