//! Cross-query result-cache benchmark: replay the multi-answer workload
//! twice and measure what the second pass costs.
//!
//! The workload is the same 521-lineage TPC-H-lite + IMDB-lite answer set
//! the `batch` bench uses (~83 distinct structures, ~84% intra-batch dedup
//! hit rate). The `cold` series runs it against a fresh cache every
//! iteration — every distinct structure is solved. The `warm` series runs
//! it against a cache populated by one prior pass — every distinct
//! structure is a cache hit, so the pass costs only fingerprinting +
//! translation. The warm/cold ratio is the dashboard-refresh speedup the
//! cache buys; the numbers are recorded in CHANGES.md per PR.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use shapdb_circuit::Dnf;
use shapdb_core::engine::{
    BatchExecutor, EngineKind, Measure, Planner, PlannerConfig, ShapleyCache,
};
use shapdb_kc::Budget;
use shapdb_metrics::counters::CacheRunStats;
use std::sync::Arc;
use std::time::Duration;

/// Every answer lineage of every workload query (capped per query) — the
/// same corpus as the `batch` bench, so the numbers compare directly.
fn workload_lineages() -> (Vec<Dnf>, usize) {
    shapdb_bench::corpus::replay_lineages()
}

fn planner_with(cache: Arc<ShapleyCache>) -> Planner {
    Planner::new(PlannerConfig {
        timeout: Some(Duration::from_millis(2500)),
        fallback: Some(EngineKind::Proxy),
        ..Default::default()
    })
    .with_cache(cache)
}

fn bench_cache_replay(c: &mut Criterion) {
    let (lineages, n_endo) = workload_lineages();
    let mut group = c.benchmark_group("cache_replay");
    group.sample_size(10);

    group.bench_with_input(BenchmarkId::from_parameter("cold"), &(), |b, _| {
        b.iter(|| {
            // Fresh cache each pass: every distinct structure is solved.
            let executor =
                BatchExecutor::new(planner_with(Arc::new(ShapleyCache::new()))).with_threads(1);
            let report = executor.run(&lineages, n_endo, &Budget::unlimited(), &[Measure::Shapley]);
            assert!(report.items.iter().all(|i| i.result.is_ok()));
            CacheRunStats::of(&report.profile).misses
        })
    });

    group.bench_with_input(BenchmarkId::from_parameter("warm"), &(), |b, _| {
        // One priming pass, then measure replays against the full cache.
        let cache = Arc::new(ShapleyCache::new());
        let executor = BatchExecutor::new(planner_with(cache.clone())).with_threads(1);
        let primed = executor.run(&lineages, n_endo, &Budget::unlimited(), &[Measure::Shapley]);
        assert!(CacheRunStats::of(&primed.profile).misses > 0);
        b.iter(|| {
            let report = executor.run(&lineages, n_endo, &Budget::unlimited(), &[Measure::Shapley]);
            assert_eq!(
                CacheRunStats::of(&report.profile).misses,
                0,
                "warm pass must be all hits"
            );
            assert_eq!(report.profile.engine_runs(), 0);
            CacheRunStats::of(&report.profile).hits
        })
    });
    group.finish();

    // One labeled summary line for CHANGES.md.
    let cache = Arc::new(ShapleyCache::new());
    let executor = BatchExecutor::new(planner_with(cache.clone())).with_threads(1);
    let report = executor.run(&lineages, n_endo, &Budget::unlimited(), &[Measure::Shapley]);
    println!(
        "workload: {} lineages, {} distinct structures, {} cache entries after one pass",
        report.dedup.tasks,
        report.dedup.distinct,
        cache.stats().len
    );
}

criterion_group!(benches, bench_cache_replay);
criterion_main!(benches);
