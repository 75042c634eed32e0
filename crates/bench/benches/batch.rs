//! Batch-executor benchmarks: the multi-answer attribution path.
//!
//! Measures what the engine layer buys on a realistic multi-answer workload
//! (every answer of every TPC-H-lite and IMDB-lite query, hundreds of
//! lineages with heavily duplicated structure):
//!
//! * the deduplicating batch vs a cache-less sequential `Planner::solve`
//!   loop over the same lineages (the interning win: the loop solves
//!   every lineage, the batch every distinct structure once), and
//! * 1 worker thread vs N (the fan-out win — only visible on multi-core
//!   hosts; on a single-core container the N-thread numbers match the
//!   1-thread ones).
//!
//! The numbers are recorded in CHANGES.md per PR.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use shapdb_circuit::Dnf;
use shapdb_core::engine::{
    BatchExecutor, EngineKind, LineageTask, Measure, Planner, PlannerConfig,
};
use shapdb_kc::Budget;
use std::time::Duration;

/// Every answer lineage of every workload query (capped per query). The
/// shared `n_endo` (max over both databases) is harmless: the engines fold
/// completion into weights over the lineage's own variables, so neither
/// the values nor the cost depend on `n_endo` (see the flat
/// `ablation_alg1_completion` bench).
fn workload_lineages() -> (Vec<Dnf>, usize) {
    shapdb_bench::corpus::replay_lineages()
}

fn planner() -> Planner {
    // The production policy: exact under a generous per-lineage deadline,
    // proxy ranking fallback, so a pathological lineage cannot stall the
    // bench.
    Planner::new(PlannerConfig {
        timeout: Some(Duration::from_millis(2500)),
        fallback: Some(EngineKind::Proxy),
        ..Default::default()
    })
}

fn bench_batch_dedup(c: &mut Criterion) {
    let (lineages, n_endo) = workload_lineages();
    let mut group = c.benchmark_group("batch_dedup");
    group.sample_size(10);
    group.bench_function(BenchmarkId::from_parameter("sequential"), |b| {
        let planner = planner();
        b.iter(|| {
            for l in &lineages {
                planner.solve(&LineageTask::new(l, n_endo)).expect("solves");
            }
        })
    });
    group.bench_function(BenchmarkId::from_parameter("dedup_on"), |b| {
        let executor = BatchExecutor::new(planner()).with_threads(1);
        b.iter(|| {
            let report = executor.run(&lineages, n_endo, &Budget::unlimited(), &[Measure::Shapley]);
            assert!(report.items.iter().all(|i| i.result.is_ok()));
            report.dedup.distinct
        })
    });
    group.finish();

    let report = BatchExecutor::new(planner()).with_threads(1).run(
        &lineages,
        n_endo,
        &Budget::unlimited(),
        &[Measure::Shapley],
    );
    println!(
        "workload: {} lineages, {} distinct structures, dedup hit rate {:.1}%",
        report.dedup.tasks,
        report.dedup.distinct,
        report.dedup.hit_rate() * 100.0
    );
}

fn bench_batch_threads(c: &mut Criterion) {
    let (lineages, n_endo) = workload_lineages();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut group = c.benchmark_group("batch_threads");
    group.sample_size(10);
    for threads in [1usize, 2, cores.max(2)] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{threads}threads")),
            &threads,
            |b, &threads| {
                let executor = BatchExecutor::new(planner()).with_threads(threads);
                b.iter(|| {
                    let report =
                        executor.run(&lineages, n_endo, &Budget::unlimited(), &[Measure::Shapley]);
                    report.dedup.distinct
                })
            },
        );
    }
    group.finish();
    println!("host parallelism: {cores} core(s)");
}

criterion_group!(benches, bench_batch_dedup, bench_batch_threads);
criterion_main!(benches);
