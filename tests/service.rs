//! Resident-service integration harness.
//!
//! * **exactness**: results served by the long-lived [`ShapleyService`]
//!   worker pool must be *identical*, rational for rational, to the
//!   sequential per-tuple path and to the one-shot batch executor on the
//!   seeded agreement-harness databases — at 1 and 4 workers, through the
//!   shared cache and without one;
//! * **multi-client stress**: ≥4 submitter threads hammering one service
//!   concurrently get bit-identical answers on their own lanes;
//! * **backpressure**: a full bounded queue rejects with
//!   [`SubmitError::Saturated`], accepted work is never lost, and
//!   `submit_blocking` rides the backpressure out;
//! * **shutdown**: drain-on-shutdown fulfills every accepted ticket.

use rand::prelude::*;
use shapdb::circuit::Dnf;
use shapdb::core::engine::{
    BatchExecutor, EngineValues, LineageRequest, Measure, Planner, PlannerConfig, ServiceConfig,
    ShapleyCache, ShapleyService, SubmitError,
};
use shapdb::data::{Database, Value};
use shapdb::kc::Budget;
use shapdb::metrics::counters::{CacheRunStats, SERVICE_COMPLETED, SERVICE_REJECTED};
use shapdb::num::Rational;
use shapdb::query::{evaluate, parse_ucq};
use std::sync::Arc;

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

fn exact_pairs(r: &shapdb::core::engine::EngineResult) -> Vec<(u32, Rational)> {
    match &r.values {
        EngineValues::Exact(v) => v.iter().map(|(f, x)| (f.0, x.clone())).collect(),
        EngineValues::Approx(_) => panic!("exact mode yields exact values"),
    }
}

/// The acceptance pin: batch ≡ sequential ≡ service as exact rationals, at
/// 1 and 4 threads/workers, with and without the shared cache.
#[test]
fn service_matches_batch_and_sequential_at_1_and_4_workers() {
    let queries = [
        parse_ucq("q(b) :- R(a), S(a, b)").unwrap(),
        parse_ucq("q() :- R(a), S(a, b), T(b)").unwrap(),
    ];
    let mut compared = 0usize;
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(0x5EB1CE + seed);
        let db = random_database(&mut rng);
        let n_endo = db.num_endogenous();
        for q in &queries {
            let res = evaluate(q, &db);
            let lineages: Vec<Dnf> = res.outputs.iter().map(|t| t.endo_lineage(&db)).collect();

            // Sequential reference: one Planner::solve per tuple.
            let planner = Planner::new(PlannerConfig::default());
            let sequential: Vec<Vec<(u32, Rational)>> = lineages
                .iter()
                .map(|l| {
                    exact_pairs(
                        &planner
                            .solve(&shapdb::core::engine::LineageTask::new(l, n_endo))
                            .unwrap(),
                    )
                })
                .collect();

            for workers in [1usize, 4] {
                for cached in [false, true] {
                    // One-shot batch path.
                    let mut batch_planner = Planner::new(PlannerConfig::default());
                    if cached {
                        batch_planner = batch_planner.with_cache(Arc::new(ShapleyCache::new()));
                    }
                    let report = BatchExecutor::new(batch_planner).with_threads(workers).run(
                        &lineages,
                        n_endo,
                        &Budget::unlimited(),
                        &[Measure::Shapley],
                    );

                    // Resident path: submit all + wait all.
                    let mut svc_planner = Planner::new(PlannerConfig::default());
                    if cached {
                        svc_planner = svc_planner.with_cache(Arc::new(ShapleyCache::new()));
                    }
                    let service = ShapleyService::new(
                        svc_planner,
                        ServiceConfig {
                            workers,
                            queue_capacity: 64,
                            ..Default::default()
                        },
                    );
                    let subs = service
                        .submit_all(lineages.iter().cloned(), n_endo, &Budget::unlimited())
                        .unwrap();

                    for (i, (item, sub)) in report.items.iter().zip(&subs).enumerate() {
                        let from_batch = exact_pairs(item.result.as_ref().unwrap());
                        let from_service = exact_pairs(&sub.wait().unwrap());
                        assert_eq!(
                            from_batch, sequential[i],
                            "batch vs sequential: seed {seed}, query {q}, tuple {i}, \
                             workers {workers}, cached {cached}"
                        );
                        assert_eq!(
                            from_service, sequential[i],
                            "service vs sequential: seed {seed}, query {q}, tuple {i}, \
                             workers {workers}, cached {cached}"
                        );
                        compared += 1;
                    }
                    let stats = service.shutdown();
                    assert_eq!(stats.profile.get(&SERVICE_COMPLETED), lineages.len() as u64);
                    assert_eq!(stats.profile.get(&SERVICE_REJECTED), 0);
                }
            }
        }
    }
    assert!(compared >= 100, "only {compared} tuples compared");
}

/// ≥4 submitter threads over the seeded workloads against ONE shared
/// service: every client gets bit-identical results to the sequential
/// path, concurrently, through one shared cache.
#[test]
fn four_concurrent_clients_get_bit_identical_results() {
    let q = parse_ucq("q(b) :- R(a), S(a, b)").unwrap();
    let planner = Planner::new(PlannerConfig::default()).with_cache(Arc::new(ShapleyCache::new()));
    let service = ShapleyService::new(
        planner,
        ServiceConfig {
            workers: 4,
            queue_capacity: 256,
            ..Default::default()
        },
    );

    // Each submitter thread owns a seeded database slice and its expected
    // sequential answers.
    type Workload = (Vec<Dnf>, usize, Vec<Vec<(u32, Rational)>>);
    let mut workloads: Vec<Workload> = Vec::new();
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(0xC11E27 + seed);
        let db = random_database(&mut rng);
        let n_endo = db.num_endogenous();
        let res = evaluate(&q, &db);
        let lineages: Vec<Dnf> = res.outputs.iter().map(|t| t.endo_lineage(&db)).collect();
        let reference = Planner::new(PlannerConfig::default());
        let expected: Vec<Vec<(u32, Rational)>> = lineages
            .iter()
            .map(|l| {
                exact_pairs(
                    &reference
                        .solve(&shapdb::core::engine::LineageTask::new(l, n_endo))
                        .unwrap(),
                )
            })
            .collect();
        workloads.push((lineages, n_endo, expected));
    }

    let total: usize = workloads.iter().map(|(l, _, _)| l.len()).sum();
    std::thread::scope(|s| {
        let service = &service;
        let handles: Vec<_> = workloads
            .iter()
            .map(|(lineages, n_endo, expected)| {
                let client = service.client();
                s.spawn(move || {
                    // Submit everything, then verify everything — the queue
                    // interleaves all four clients fairly.
                    let subs: Vec<_> = lineages
                        .iter()
                        .map(|l| {
                            client
                                .submit_blocking(LineageRequest::new(l.clone(), *n_endo))
                                .expect("service accepts while running")
                        })
                        .collect();
                    for (i, sub) in subs.iter().enumerate() {
                        let got = exact_pairs(&sub.wait().unwrap());
                        assert_eq!(got, expected[i], "tuple {i}");
                    }
                    subs.len()
                })
            })
            .collect();
        let done: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(done, total);
    });

    let stats = service.shutdown();
    assert_eq!(stats.profile.get(&SERVICE_COMPLETED), total as u64);
    assert!(stats.clients >= 4, "four client lanes opened");
    assert!(
        CacheRunStats::of(&stats.profile).hits + CacheRunStats::of(&stats.profile).misses >= total,
        "every exact solve consulted the shared cache"
    );
}

/// Backpressure: a full bounded queue surfaces `SubmitError::Saturated`,
/// accepted submissions all complete, and blocking submits ride it out.
#[test]
fn saturation_rejects_cleanly_and_loses_nothing() {
    // One worker, two queue slots, and tasks expensive enough (forced
    // 16-var naive enumeration, distinct structures so the cache cannot
    // short-circuit) that a burst of 24 fast submits must overrun the
    // queue.
    let planner = Planner::new(PlannerConfig {
        force: Some(shapdb::core::engine::EngineKind::Naive),
        ..Default::default()
    })
    .with_cache(Arc::new(ShapleyCache::new()));
    let service = ShapleyService::new(
        planner,
        ServiceConfig {
            workers: 1,
            queue_capacity: 2,
            ..Default::default()
        },
    );
    let wide_conjunction = |base: u32| -> Dnf {
        let mut d = Dnf::new();
        // One conjunct of 16 distinct vars: naive = 2^16 evaluations.
        d.add_conjunct((0..16).map(|v| shapdb::circuit::VarId(base + v)).collect());
        d
    };
    let mut accepted = Vec::new();
    let mut rejected = 0usize;
    for i in 0..24u32 {
        match service.submit(LineageRequest::new(wide_conjunction(i * 100), 4000)) {
            Ok(sub) => accepted.push(sub),
            Err(e) => {
                assert_eq!(e, SubmitError::Saturated);
                rejected += 1;
            }
        }
    }
    assert!(rejected > 0, "24 instant submits must overrun 2 slots");
    assert!(!accepted.is_empty());
    // Blocking submit succeeds despite the saturation.
    let blocked = service
        .submit_blocking(LineageRequest::new(wide_conjunction(10_000), 4000))
        .unwrap();
    // Every accepted ticket completes with the right value (1/16 each —
    // all 16 facts of a single conjunct are symmetric... their value is
    // 1/16 of the grand coalition's worth under |D_n| completion; just pin
    // success + symmetry here).
    for sub in accepted.iter().chain([&blocked]) {
        let result = sub.wait().unwrap();
        let pairs = exact_pairs(&result);
        assert_eq!(pairs.len(), 16);
        let first = pairs[0].1.clone();
        assert!(pairs.iter().all(|(_, v)| v == &first), "symmetric facts");
    }
    let stats = service.shutdown();
    assert_eq!(
        stats.profile.get(&SERVICE_COMPLETED),
        accepted.len() as u64 + 1
    );
    assert_eq!(stats.profile.get(&SERVICE_REJECTED), rejected as u64);
    assert!(stats.queue_capacity == 2);
}

/// Clean shutdown: intake stops, queued + in-flight work drains, every
/// accepted ticket is fulfilled.
#[test]
fn shutdown_drains_in_flight_and_queued_work() {
    let planner = Planner::new(PlannerConfig::default()).with_cache(Arc::new(ShapleyCache::new()));
    let service = ShapleyService::new(
        planner,
        ServiceConfig {
            workers: 2,
            queue_capacity: 128,
            ..Default::default()
        },
    );
    let client = service.client();
    let subs: Vec<_> = (0..32u32)
        .map(|i| {
            // Distinct matchings: real work for each, no dedup between them.
            let mut d = Dnf::new();
            d.add_conjunct(vec![
                shapdb::circuit::VarId(i * 10),
                shapdb::circuit::VarId(i * 10 + 1),
            ]);
            d.add_conjunct(vec![
                shapdb::circuit::VarId(i * 10 + 2),
                shapdb::circuit::VarId(i * 10 + 3),
            ]);
            client
                .submit(LineageRequest::new(d, 400))
                .expect("queue has room")
        })
        .collect();
    // Shut down immediately: most of the 32 are still queued or in flight.
    let stats = service.shutdown();
    assert_eq!(
        stats.profile.get(&SERVICE_COMPLETED),
        32,
        "drain fulfilled everything"
    );
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.in_flight, 0);
    for sub in &subs {
        assert!(sub.is_done(), "no ticket left hanging");
        let pairs = exact_pairs(&sub.wait().unwrap());
        assert_eq!(pairs.len(), 4);
    }
    // And the drained service refuses new work.
    assert_eq!(
        client
            .submit(LineageRequest::new(Dnf::new(), 1))
            .unwrap_err(),
        SubmitError::ShuttingDown
    );
}
