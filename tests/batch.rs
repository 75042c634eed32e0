//! Batch-executor integration harness.
//!
//! * the parallel, deduplicating [`BatchExecutor`] must produce *identical*
//!   exact rationals to the sequential per-tuple path (one
//!   `Planner::solve` per answer) on the seeded agreement-harness
//!   databases, at 1 and at N worker threads;
//! * on a multi-answer workload with duplicated lineage structure, batch
//!   mode must solve each distinct structure exactly once (the dedup
//!   counters assert it);
//! * the planner's hierarchical classification must agree with the
//!   read-once factorizer on the seed workloads: every answer of a
//!   hierarchical self-join-free query factors (Livshits et al.), so the
//!   disagreement counter stays at zero;
//! * each run's profile counts its own work exactly: one minimize and one
//!   factor pass per task, and the same counts whether or not another run
//!   shares the process.

use rand::prelude::*;
use shapdb::circuit::Dnf;
use shapdb::circuit::VarId;
use shapdb::core::engine::{
    BatchExecutor, EngineValues, LineageTask, Measure, PlanReason, Planner, PlannerConfig,
    QueryClass, ShapleyCache,
};
use shapdb::data::{Database, Value};
use shapdb::kc::Budget;
use shapdb::metrics::counters::{
    CacheRunStats, BATCH_TASKS, CACHE_HITS, CIRCUIT_FACTOR_PASSES, CIRCUIT_MINIMIZE_PASSES,
    MEASURE_BANZHAF, MEASURE_RESPONSIBILITY, MEASURE_SHAPLEY, MEASURE_SHAP_SCORE, NUM_VLI_HITS,
    PLANNER_HIERARCHICAL_DISAGREEMENTS, PLANNER_KC_TOPDOWN_ROUTES, PLANNER_READ_ONCE_ROUTES,
};
use shapdb::metrics::Profile;
use shapdb::num::Rational;
use shapdb::query::{evaluate, parse_ucq};
use shapdb::ShapleyAnalyzer;
use std::sync::{Arc, Barrier};

/// The sequential per-tuple path: one exact-mode planner solve per lineage,
/// as `(fact, value)` pairs in the planner's order.
fn solve_sequentially(lineage: &Dnf, n_endo: usize) -> Vec<(u32, Rational)> {
    let task = LineageTask::new(lineage, n_endo);
    match Planner::new(PlannerConfig::default())
        .solve(&task)
        .unwrap()
        .values
    {
        EngineValues::Exact(pairs) => pairs.into_iter().map(|(v, r)| (v.0, r)).collect(),
        EngineValues::Approx(_) => panic!("exact mode yields exact values"),
    }
}

/// The agreement-harness random database: `R(a)`, `S(a, b)`, `T(b)` with
/// endogenous facts only (fact ids map 1:1 onto lineage variables).
fn random_database(rng: &mut StdRng) -> Database {
    let mut db = Database::new();
    db.create_relation("R", &["a"]);
    db.create_relation("S", &["a", "b"]);
    db.create_relation("T", &["b"]);
    for _ in 0..rng.random_range(2..=4usize) {
        db.insert_endo("R", vec![Value::int(rng.random_range(0..3))]);
    }
    for _ in 0..rng.random_range(3..=6usize) {
        db.insert_endo(
            "S",
            vec![
                Value::int(rng.random_range(0..3)),
                Value::int(rng.random_range(0..3)),
            ],
        );
    }
    for _ in 0..rng.random_range(2..=3usize) {
        db.insert_endo("T", vec![Value::int(rng.random_range(0..3))]);
    }
    db
}

#[test]
fn batch_executor_matches_sequential_path_at_1_and_n_threads() {
    let queries = [
        parse_ucq("q(b) :- R(a), S(a, b)").unwrap(),
        parse_ucq("q() :- R(a), S(a, b), T(b)").unwrap(),
    ];
    let mut compared = 0usize;
    for seed in 0..15u64 {
        let mut rng = StdRng::seed_from_u64(0xBA7C + seed);
        let db = random_database(&mut rng);
        let n_endo = db.num_endogenous();
        for q in &queries {
            let res = evaluate(q, &db);
            let lineages: Vec<Dnf> = res.outputs.iter().map(|t| t.endo_lineage(&db)).collect();

            // The sequential path: one planner solve per tuple.
            let sequential: Vec<Vec<(u32, Rational)>> = lineages
                .iter()
                .map(|l| solve_sequentially(l, n_endo))
                .collect();

            for threads in [1usize, 4] {
                let executor = BatchExecutor::new(Planner::for_query(PlannerConfig::default(), q))
                    .with_threads(threads);
                let report =
                    executor.run(&lineages, n_endo, &Budget::unlimited(), &[Measure::Shapley]);
                assert_eq!(report.threads, threads.min(report.dedup.distinct).max(1));
                for (i, item) in report.items.iter().enumerate() {
                    let result = item.result.as_ref().unwrap();
                    let got: Vec<(u32, Rational)> = match &result.values {
                        EngineValues::Exact(pairs) => {
                            pairs.iter().map(|(v, r)| (v.0, r.clone())).collect()
                        }
                        _ => panic!("exact mode yields exact values"),
                    };
                    assert_eq!(
                        got, sequential[i],
                        "seed {seed}, query {q}, tuple {i}, threads {threads}"
                    );
                    compared += 1;
                }
            }
        }
    }
    assert!(compared >= 60, "only {compared} tuples compared");
}

#[test]
fn facade_explain_equals_sequential_at_1_and_n_threads() {
    let q = parse_ucq("q(b) :- R(a), S(a, b)").unwrap();
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(0xFACADE + seed);
        let db = random_database(&mut rng);
        let n_endo = db.num_endogenous();
        let res = evaluate(&q, &db);
        let baseline: Vec<Vec<(u32, Rational)>> = res
            .outputs
            .iter()
            .map(|t| solve_sequentially(&t.endo_lineage(&db), n_endo))
            .collect();
        for threads in [1usize, 4] {
            let explanations = ShapleyAnalyzer::new(&db)
                .with_threads(threads)
                .explain(&q)
                .unwrap();
            assert_eq!(explanations.len(), baseline.len());
            for (e, expect) in explanations.iter().zip(&baseline) {
                let got: Vec<(u32, Rational)> = e
                    .attributions
                    .iter()
                    .map(|(f, r)| (f.0, r.clone()))
                    .collect();
                assert_eq!(&got, expect, "seed {seed}, threads {threads}");
            }
        }
    }
}

#[test]
fn duplicate_structures_are_solved_exactly_once() {
    // A star-join workload engineered for structural duplication: every
    // product `b` has the same two-supplier shape, so all 6 answers share
    // one lineage structure.
    let mut db = Database::new();
    db.create_relation("R", &["a"]);
    db.create_relation("S", &["a", "b"]);
    for a in 0..2 {
        db.insert_endo("R", vec![Value::int(a)]);
    }
    for b in 0..6 {
        for a in 0..2 {
            db.insert_endo("S", vec![Value::int(a), Value::int(100 + b)]);
        }
    }
    let q = parse_ucq("q(b) :- R(a), S(a, b)").unwrap();
    let analyzer = ShapleyAnalyzer::new(&db);
    let batch = analyzer.explain_batch(&q).unwrap();
    assert_eq!(batch.dedup.tasks, 6, "six answers");
    assert_eq!(batch.dedup.distinct, 1, "one shared lineage structure");
    assert_eq!(
        batch.engine_runs, 1,
        "each distinct lineage compiled exactly once"
    );
    assert_eq!(batch.dedup.hits(), 5);
    assert!((batch.dedup.hit_rate() - 5.0 / 6.0).abs() < 1e-12);
    // And the shared computation still yields per-answer values on each
    // answer's own facts, correct by the naive oracle.
    let res = evaluate(&q, &db);
    for (e, out) in batch.explanations.iter().zip(&res.outputs) {
        let elin = out.endo_lineage(&db);
        let naive = shapdb::core::naive::shapley_naive(&|s| elin.eval_set(s), db.num_endogenous());
        for (fact, value) in &e.attributions {
            assert_eq!(value, &naive[fact.0 as usize]);
        }
    }
}

#[test]
fn sampling_dedup_scales_counts_to_the_sequential_budget() {
    // A star-join workload where all 6 answers share one structure, forced
    // through Monte Carlo: the batch solves the dedup group ONCE with
    // `sample_scale = 6` — the same total number of permutations six
    // sequential solves would draw — and shares the translated estimate.
    use shapdb::core::engine::{BatchExecutor, EngineKind, LineageTask, MonteCarloEngine};
    use shapdb::core::engine::{Planner, PlannerConfig, ShapleyEngine};

    let mut db = Database::new();
    db.create_relation("R", &["a"]);
    db.create_relation("S", &["a", "b"]);
    for a in 0..2 {
        db.insert_endo("R", vec![Value::int(a)]);
    }
    for b in 0..6 {
        for a in 0..2 {
            db.insert_endo("S", vec![Value::int(a), Value::int(100 + b)]);
        }
    }
    let q = parse_ucq("q(b) :- R(a), S(a, b)").unwrap();
    let res = evaluate(&q, &db);
    let lineages: Vec<Dnf> = res.outputs.iter().map(|t| t.endo_lineage(&db)).collect();
    let n_endo = db.num_endogenous();

    let forced = PlannerConfig {
        force: Some(EngineKind::MonteCarlo),
        ..Default::default()
    };
    let executor = BatchExecutor::new(Planner::new(forced)).with_threads(1);
    let report = executor.run(&lineages, n_endo, &Budget::unlimited(), &[Measure::Shapley]);
    assert_eq!(report.dedup.distinct, 1);
    assert_eq!(
        report.profile.engine_runs(),
        1,
        "one pooled solve for all 6 answers"
    );

    // Tolerance: the pooled 6× estimate tracks the exact truth per fact
    // (computed by the exact planner on the same lineage).
    let exact_planner = Planner::new(PlannerConfig::default());
    for (item, lineage) in report.items.iter().zip(&lineages) {
        let truth: std::collections::HashMap<u32, f64> = match exact_planner
            .solve(&LineageTask::new(lineage, n_endo))
            .unwrap()
            .values
        {
            shapdb::core::engine::EngineValues::Exact(pairs) => {
                pairs.into_iter().map(|(f, r)| (f.0, r.to_f64())).collect()
            }
            _ => panic!("exact planner"),
        };
        match &item.result.as_ref().unwrap().values {
            shapdb::core::engine::EngineValues::Approx(pairs) => {
                for (fact, estimate) in pairs {
                    let t = truth[&fact.0];
                    assert!(
                        (estimate - t).abs() < 0.15,
                        "fact {fact:?}: pooled estimate {estimate} vs exact {t}"
                    );
                }
            }
            _ => panic!("forced Monte Carlo is inexact"),
        }
    }

    // Budget accounting, exactly: the pooled estimate equals a direct
    // canonical solve with sample_scale = group size (6) and the group
    // representative's seed salt (task 0).
    let fp = shapdb::circuit::fingerprint(&lineages[0]);
    let direct = MonteCarloEngine::default()
        .solve(
            &LineageTask::new(&fp.canonical_dnf(), n_endo)
                .assume_minimized()
                .with_sample_scale(6),
        )
        .unwrap();
    let direct_pairs = match &direct.values {
        shapdb::core::engine::EngineValues::Approx(v) => v.clone(),
        _ => panic!("sampling"),
    };
    let member_pairs = match &report.items[0].result.as_ref().unwrap().values {
        shapdb::core::engine::EngineValues::Approx(v) => v.clone(),
        _ => panic!("sampling"),
    };
    for (canon_var, value) in &direct_pairs {
        let own = fp.var_of(canon_var.0);
        let member = member_pairs.iter().find(|(f, _)| *f == own).unwrap().1;
        assert_eq!(member, *value, "draws = per-member count × group size");
    }

    // Determinism: the same batch re-run reproduces the same estimates.
    let again = executor.run(&lineages, n_endo, &Budget::unlimited(), &[Measure::Shapley]);
    for (a, b) in report.items.iter().zip(&again.items) {
        assert_eq!(
            a.result.as_ref().unwrap().values,
            b.result.as_ref().unwrap().values
        );
    }
}

#[test]
fn hierarchical_detection_agrees_with_factorizer_on_seed_workloads() {
    use shapdb::workloads::{
        flights_workload, imdb_database, imdb_queries, tpch_database, tpch_queries, ImdbConfig,
        TpchConfig,
    };
    // Everything this test plans counts in its own profile, exactly.
    let profile = Arc::new(Profile::new());
    let _scope = profile.enter();

    let tpch = tpch_database(&TpchConfig {
        scale: 0.3,
        seed: 7,
    });
    let imdb = imdb_database(&ImdbConfig {
        movies: 400,
        companies: 40,
        people: 200,
        keywords: 30,
        seed: 7,
    });
    let (flights_db, _, flights_q) = flights_workload();

    let mut hierarchical_queries = 0usize;
    let mut checked_lineages = 0usize;
    let mut read_once_plans = 0u64;
    let mut runs: Vec<(&Database, Vec<shapdb::workloads::WorkloadQuery>)> =
        vec![(&tpch, tpch_queries()), (&imdb, imdb_queries())];
    runs.push((&flights_db, vec![flights_q]));

    for (db, queries) in runs {
        for wq in queries {
            let class = QueryClass::of(&wq.ucq);
            let planner = Planner::for_query(PlannerConfig::default(), &wq.ucq);
            let res = evaluate(&wq.ucq, db);
            if class.guarantees_read_once() {
                hierarchical_queries += 1;
            }
            for out in res.outputs.iter().take(40) {
                let elin = out.endo_lineage(db);
                let plan = planner.plan(&elin);
                read_once_plans += u64::from(matches!(
                    plan.reason,
                    PlanReason::ReadOnce | PlanReason::HierarchicalReadOnce
                ));
                if class.guarantees_read_once() {
                    // Theory: hierarchical + self-join-free ⇒ read-once.
                    assert!(
                        shapdb::circuit::factor(&elin).is_some(),
                        "query {} produced a non-factorizable lineage: {elin}",
                        wq.name
                    );
                    assert_eq!(
                        plan.engine,
                        shapdb::core::engine::EngineKind::ReadOnce,
                        "query {}",
                        wq.name
                    );
                }
                checked_lineages += 1;
            }
        }
    }
    assert!(
        hierarchical_queries >= 2,
        "the workloads must exercise the guarantee"
    );
    assert!(
        checked_lineages >= 100,
        "only {checked_lineages} lineages checked"
    );
    assert_eq!(
        profile.get(&PLANNER_HIERARCHICAL_DISAGREEMENTS),
        0,
        "hierarchical detection disagreed with the factorizer"
    );
    assert_eq!(profile.get(&PLANNER_READ_ONCE_ROUTES), read_once_plans);
}

fn dnf(conjs: &[&[u32]]) -> Dnf {
    let mut d = Dnf::new();
    for c in conjs {
        d.add_conjunct(c.iter().map(|&v| VarId(v)).collect());
    }
    d
}

/// A batch executor with its own fresh result cache.
fn fresh_executor(threads: usize) -> BatchExecutor {
    let planner = Planner::new(PlannerConfig::default()).with_cache(Arc::new(ShapleyCache::new()));
    BatchExecutor::new(planner).with_threads(threads)
}

#[test]
fn batch_path_minimizes_and_factors_once_per_task() {
    // Five tasks, four distinct structures, mixing every route: two
    // isomorphic read-once matchings, the non-read-once majority (naive),
    // the running example (read-once), and a singleton. One matching is
    // unminimized (an absorbed conjunct) to prove the single minimize pass
    // happens where claimed: inside `fingerprint`, which carries the
    // canonical DNF and the tree to everything downstream.
    let lineages = vec![
        dnf(&[&[0, 10], &[1, 11]]),
        dnf(&[&[2, 20], &[3, 21], &[2, 20, 3]]),
        dnf(&[&[4, 5], &[5, 6], &[4, 6]]),
        dnf(&[&[7], &[8, 12], &[8, 13], &[9, 12], &[9, 13], &[14, 15]]),
        dnf(&[&[16]]),
    ];
    let executor = fresh_executor(1);
    let budget = Budget::unlimited();
    let passes = |p: &Profile| {
        (
            p.get(&CIRCUIT_MINIMIZE_PASSES),
            p.get(&CIRCUIT_FACTOR_PASSES),
        )
    };

    let cold = executor.run(&lineages, 24, &budget, &[Measure::Shapley]);
    assert!(cold.items.iter().all(|i| i.result.is_ok()));
    assert_eq!((cold.dedup.tasks, cold.dedup.distinct), (5, 4));
    assert_eq!(cold.profile.engine_runs(), 4);
    assert_eq!(passes(&cold.profile), (5, 5), "one of each per task");

    // Warm replay: fingerprinting runs again (it *is* the key computation),
    // but every structure comes from the cache — still no extra passes and
    // no engine runs.
    let warm = executor.run(&lineages, 24, &budget, &[Measure::Shapley]);
    assert_eq!(warm.profile.engine_runs(), 0);
    assert_eq!(CacheRunStats::of(&warm.profile).hits, 4);
    assert_eq!(warm.profile.get(&CACHE_HITS), 4);
    assert_eq!(passes(&warm.profile), (5, 5));

    // A four-measure sweep counts once per lineage like every other
    // surface — five requests of each measure, five batch tasks — and
    // still minimizes and factors each lineage once.
    let sweep = executor.run(&lineages, 24, &budget, &Measure::ALL);
    assert!(sweep.items.iter().all(|i| i.result.is_ok()));
    for counter in [
        &MEASURE_SHAPLEY,
        &MEASURE_BANZHAF,
        &MEASURE_RESPONSIBILITY,
        &MEASURE_SHAP_SCORE,
        &BATCH_TASKS,
    ] {
        assert_eq!(sweep.profile.get(counter), 5, "{}", counter.name());
    }
    assert_eq!(passes(&sweep.profile), (5, 5));

    // And the values survived all that accounting: the unminimized matching
    // matches its minimized twin after translation.
    let values = |i: usize| -> Vec<Rational> {
        let EngineValues::Exact(v) = &warm.items[i].result.as_ref().unwrap().values else {
            panic!("exact expected");
        };
        let mut v = v.clone();
        v.sort();
        v.into_iter().map(|(_, r)| r).collect()
    };
    assert_eq!(values(0), values(1));
}

#[test]
fn concurrent_runs_each_count_exactly_their_own_work() {
    // A wide KC batch (top-down compiles, component cache, Algorithm 1 on
    // fixed-limb tiers) and a four-measure read-once batch on two workers:
    // each run's profile, taken while the other run shares the process,
    // equals the profile of the same run done alone, counter for counter.
    let budget = Budget::unlimited();
    let kc_lineages: Vec<Dnf> = (17..20u32)
        .map(|blocks| {
            let pairs: Vec<[u32; 2]> = (0..3 * blocks)
                .step_by(3)
                .flat_map(|x| [[x, x + 1], [x, x + 2], [x + 1, x + 2]])
                .collect();
            dnf(&pairs.iter().map(|p| &p[..]).collect::<Vec<_>>())
        })
        .collect();
    let read_once_lineages: Vec<Dnf> = (0..40u32)
        .map(|i| {
            let pairs: Vec<[u32; 2]> = (0..=i % 7)
                .map(|j| [100 * i + j, 100 * i + 50 + j])
                .collect();
            dnf(&pairs.iter().map(|p| &p[..]).collect::<Vec<_>>())
        })
        .collect();
    let kc_run = || fresh_executor(1).run(&kc_lineages, 60, &budget, &[Measure::Shapley]);
    let read_once_run = || fresh_executor(2).run(&read_once_lineages, 4000, &budget, &Measure::ALL);
    let (kc_alone, read_once_alone) = (kc_run(), read_once_run());
    assert!(kc_alone.items.iter().all(|i| i.result.is_ok()));
    assert!(read_once_alone.items.iter().all(|i| i.result.is_ok()));
    assert_eq!(kc_alone.profile.get(&PLANNER_KC_TOPDOWN_ROUTES), 3);
    assert!(kc_alone.profile.get(&NUM_VLI_HITS) > 0);
    assert_eq!(read_once_alone.profile.get(&BATCH_TASKS), 40);
    // Fingerprinting ran on the two workers, which entered the run's profile.
    assert_eq!(read_once_alone.profile.get(&CIRCUIT_FACTOR_PASSES), 40);
    for _ in 0..3 {
        // Both runs start together, so they overlap for as long as the
        // shorter one lasts.
        let start = Barrier::new(2);
        let (kc, read_once) = std::thread::scope(|s| {
            let kc = s.spawn(|| {
                start.wait();
                kc_run()
            });
            start.wait();
            (kc.join().unwrap(), read_once_run())
        });
        assert_eq!(kc.profile, kc_alone.profile);
        assert_eq!(read_once.profile, read_once_alone.profile);
    }
}

#[test]
fn batch_profiles_time_one_kc_compile_per_kc_solve() {
    // Three disjoint-majority structures past the naive cap (KC), one of
    // them twice under a renaming: three KC solves, three compile timings.
    let majorities = |blocks: u32, offset: u32| {
        let pairs: Vec<[u32; 2]> = (0..3 * blocks)
            .step_by(3)
            .map(|x| x + offset)
            .flat_map(|x| [[x, x + 1], [x, x + 2], [x + 1, x + 2]])
            .collect();
        dnf(&pairs.iter().map(|p| &p[..]).collect::<Vec<_>>())
    };
    let lineages = vec![
        majorities(4, 0),
        majorities(5, 0),
        majorities(4, 20),
        majorities(6, 0),
    ];
    let report = fresh_executor(2).run(&lineages, 40, &Budget::unlimited(), &[Measure::Shapley]);
    assert!(report.items.iter().all(|i| i.result.is_ok()));
    assert_eq!(report.profile.get(&PLANNER_KC_TOPDOWN_ROUTES), 3);
    let timings = report.profile.routes().active();
    let counts: Vec<(&str, u64)> = timings.iter().map(|t| (t.name, t.count)).collect();
    assert_eq!(counts, [("kc.compile", 3), ("kc.solve", 3)]);
}
