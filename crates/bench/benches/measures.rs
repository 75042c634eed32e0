//! Multi-measure sweep benchmark: the 521-lineage TPC-H-lite + IMDB-lite
//! answer corpus replayed through [`BatchExecutor::run_measures`] with all
//! four attribution measures (Shapley, Banzhaf, responsibility,
//! SHAP-score) at once.
//!
//! The point of the sweep API is that one canonical structure serves every
//! measure: each lineage is fingerprinted (minimized + read-once factored)
//! exactly once, the KC route compiles at most one circuit per structure,
//! and each (structure, measure) pair is its own cache entry. This bench
//! pins both halves of that claim:
//!
//! * a cold all-measures pass bumps `circuit.factor_passes` by exactly the
//!   lineage count — four measures, one factorization each; and
//! * a warm all-measures pass costs less than 2× a warm Shapley-only pass
//!   (it answers 4× the questions from the same fingerprints), with zero
//!   engine runs.
//!
//! Series (single worker, matching the `cache` bench so the numbers
//! compare directly):
//!
//! * `all_warm` — the four-measure sweep against a primed cache: every
//!   (structure, measure) pair is a hit;
//! * `shapley_warm` — a Shapley-only pass against the same primed cache,
//!   the single-measure baseline the 2× bound is measured against.
//!
//! The cold sweep (dominated by the exact SHAP-score β-DP, seconds per
//! pass) is sampled lightly outside criterion and reported in the JSON
//! summary only.
//!
//! Results land in `results/bench_measures.json` (`make bench-measures`,
//! uploaded as a CI artifact).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use shapdb_bench::{median_ns, write_result};
use shapdb_circuit::Dnf;
use shapdb_core::engine::{
    BatchExecutor, EngineKind, Measure, Planner, PlannerConfig, ShapleyCache,
};
use shapdb_kc::Budget;
use shapdb_metrics::counters::{CacheRunStats, CIRCUIT_FACTOR_PASSES};
use std::sync::Arc;
use std::time::Duration;

/// Every answer lineage of every workload query (capped per query) — the
/// same corpus as the `batch` and `cache` benches.
fn workload_lineages() -> (Vec<Dnf>, usize) {
    shapdb_bench::corpus::replay_lineages()
}

/// The production policy with a result cache attached, under a deadline
/// wide enough for the corpus's heaviest exact pass (the SHAP-score β-DP
/// on a 137-variable lineage runs ~3 s): every result is exact and
/// cacheable, so the warm series measure pure cache traffic.
fn planner_with(cache: Arc<ShapleyCache>) -> Planner {
    Planner::new(PlannerConfig {
        timeout: Some(Duration::from_millis(10_000)),
        fallback: Some(EngineKind::Proxy),
        ..Default::default()
    })
    .with_cache(cache)
}

fn bench_measures(c: &mut Criterion) {
    let (lineages, n_endo) = workload_lineages();

    let cold_sweep = || {
        let executor =
            BatchExecutor::new(planner_with(Arc::new(ShapleyCache::new()))).with_threads(1);
        let report = executor.run(&lineages, n_endo, &Budget::unlimited(), &Measure::ALL);
        assert!(report.items.iter().all(|i| i.result.is_ok()));
        (
            report.profile.engine_runs(),
            report.profile.get(&CIRCUIT_FACTOR_PASSES),
        )
    };

    // The one-structure-serves-every-measure pin: a cold four-measure
    // sweep factors each lineage exactly once (at fingerprint time) — the
    // per-measure evaluations all reuse that factorization, and the KC
    // route shares one compiled circuit per structure.
    let (cold_engine_runs, factor_passes) = cold_sweep();
    assert_eq!(
        factor_passes as usize,
        lineages.len(),
        "a four-measure sweep must factor once per lineage, not once per measure"
    );
    assert!(cold_engine_runs > 0, "cold sweep ran no engines");

    let mut group = c.benchmark_group("measures");
    group.sample_size(10);

    // Prime one cache, then measure warm sweeps against it.
    let cache = Arc::new(ShapleyCache::new());
    let executor = BatchExecutor::new(planner_with(cache)).with_threads(1);
    executor.run(&lineages, n_endo, &Budget::unlimited(), &Measure::ALL);

    let warm_sweep = |measures: &[Measure]| {
        let report = executor.run(&lineages, n_endo, &Budget::unlimited(), measures);
        assert_eq!(
            report.profile.engine_runs(),
            0,
            "warm sweep recomputed instead of hitting the measure-keyed cache"
        );
        CacheRunStats::of(&report.profile).hits
    };

    group.bench_with_input(BenchmarkId::from_parameter("all_warm"), &(), |b, _| {
        b.iter(|| warm_sweep(&Measure::ALL))
    });
    group.bench_with_input(BenchmarkId::from_parameter("shapley_warm"), &(), |b, _| {
        b.iter(|| warm_sweep(&[Measure::Shapley]))
    });
    group.finish();

    // Machine-readable summary (warm medians of 10, like the other
    // benches; the cold sweep runs seconds per pass, so 3 samples).
    const SAMPLES: usize = 10;
    const COLD_SAMPLES: usize = 3;
    let all_cold_ns = median_ns(COLD_SAMPLES, || {
        cold_sweep();
    });
    let all_warm_ns = median_ns(SAMPLES, || {
        warm_sweep(&Measure::ALL);
    });
    let shapley_warm_ns = median_ns(SAMPLES, || {
        warm_sweep(&[Measure::Shapley]);
    });

    // Four measures for less than twice the price of one: the sweep's
    // marginal cost per extra measure is a cache lookup + translation,
    // not a solve. This is the regression bound CI watches.
    assert!(
        all_warm_ns < 2 * shapley_warm_ns,
        "warm all-measures sweep ({:.3} ms) must cost < 2x a warm Shapley-only pass ({:.3} ms)",
        all_warm_ns as f64 / 1e6,
        shapley_warm_ns as f64 / 1e6,
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"measures\",\n",
            "  \"samples\": {},\n",
            "  \"workload\": {{\n",
            "    \"lineages\": {},\n",
            "    \"n_endo\": {},\n",
            "    \"measures\": [\"shapley\", \"banzhaf\", \"responsibility\", \"shap-score\"]\n",
            "  }},\n",
            "  \"median_ms\": {{\n",
            "    \"all_cold\": {:.3},\n",
            "    \"all_warm\": {:.3},\n",
            "    \"shapley_warm\": {:.3}\n",
            "  }},\n",
            "  \"all_warm_over_shapley_warm\": {:.3},\n",
            "  \"cold_factor_passes\": {},\n",
            "  \"cold_engine_runs\": {}\n",
            "}}\n"
        ),
        SAMPLES,
        lineages.len(),
        n_endo,
        all_cold_ns as f64 / 1e6,
        all_warm_ns as f64 / 1e6,
        shapley_warm_ns as f64 / 1e6,
        all_warm_ns as f64 / shapley_warm_ns as f64,
        factor_passes,
        cold_engine_runs,
    );
    let summary = format!(
        "measures summary ({} lineages x 4 measures; {} factor passes cold)",
        lineages.len(),
        factor_passes
    );
    write_result("bench_measures.json", &summary, &json);
}

criterion_group!(benches, bench_measures);
criterion_main!(benches);
