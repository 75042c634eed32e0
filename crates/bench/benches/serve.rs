//! Resident-service benchmark: the 521-lineage TPC-H-lite + IMDB-lite
//! answer corpus replayed through the `serve` JSONL session — JSON parse
//! → bounded queue → worker → JSON response — versus the direct
//! `explain_batch`-style `BatchExecutor` path.
//!
//! Series (all single-worker, single-threaded, matching the other benches):
//!
//! * `batch_cold` / `batch_warm` — the direct in-process batch path with a
//!   cross-query cache, cold (fresh cache) and warm (cache primed);
//! * `serve_cold` — the 521 lineages as 521 JSONL requests through
//!   [`shapdb_cli::run_serve`] (in-memory input and output) against a
//!   fresh service;
//! * `serve_warm` — the same session against a resident service whose
//!   cache one priming session already filled, timed directly: a
//!   [`shapdb_cli::SocketServer`] on a Unix socket, so each sample is one
//!   whole client session (the transport included) and every answer is a
//!   cache hit (asserted: no engine runs past the priming session).
//!
//! The number the ROADMAP's service acceptance bar watches: **warm serve ≤
//! 2× warm batch** — queue + JSON overhead must stay within the same order
//! as the computation it wraps. Results land in `results/bench_serve.json`
//! (`make bench-serve`, uploaded as a CI artifact).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use shapdb_bench::corpus::{jsonl_session, replay_over_socket};
use shapdb_bench::{median_ns, write_result};
use shapdb_circuit::Dnf;
use shapdb_cli::{run_serve, ServeOptions, SocketServer};
use shapdb_core::engine::{
    BatchExecutor, EngineKind, Measure, Planner, PlannerConfig, ShapleyCache,
};
use shapdb_kc::Budget;
use shapdb_metrics::counters::CacheRunStats;
use std::io::Cursor;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every answer lineage of every workload query (capped per query) — the
/// same corpus as the `batch`/`cache`/`exact_cold` benches.
fn workload_lineages() -> (Vec<Dnf>, usize) {
    shapdb_bench::corpus::replay_lineages()
}

/// The §6.3-style policy every series runs under (the `cache` bench's).
fn policy() -> PlannerConfig {
    PlannerConfig {
        timeout: Some(Duration::from_millis(2500)),
        fallback: Some(EngineKind::Proxy),
        ..Default::default()
    }
}

fn serve_opts() -> ServeOptions {
    ServeOptions {
        workers: 1,
        ..Default::default()
    }
}

/// One full serve session over `input`; returns (wall time, responses).
fn serve_once(input: &str) -> (Duration, u64) {
    let mut out = Vec::with_capacity(input.len());
    let start = Instant::now();
    let summary = run_serve(Cursor::new(input), &mut out, &serve_opts()).expect("serve session");
    let elapsed = start.elapsed();
    assert_eq!(summary.errors, 0, "workload requests all succeed");
    (elapsed, summary.responses)
}

fn bench_serve(c: &mut Criterion) {
    let (lineages, n_endo) = workload_lineages();
    let session = jsonl_session(&lineages, n_endo);
    // Warm serve: one resident server, primed by one session; every timed
    // session after it answers from the cache.
    let sock = std::env::temp_dir().join(format!("shapdb-bench-serve-{}.sock", std::process::id()));
    let warm_server = SocketServer::bind(&ServeOptions {
        listen: Some(format!("unix:{}", sock.display())),
        ..serve_opts()
    })
    .expect("bind warm server");
    replay_over_socket(&sock, &session);
    let primed_engine_runs = warm_server.stats().profile.engine_runs();
    assert!(primed_engine_runs > 0, "priming session ran no engines");
    let serve_warm = || assert_eq!(replay_over_socket(&sock, &session) as usize, lineages.len());

    let mut group = c.benchmark_group("serve");
    group.sample_size(10);

    group.bench_with_input(BenchmarkId::from_parameter("batch_cold"), &(), |b, _| {
        b.iter(|| {
            let planner = Planner::new(policy()).with_cache(Arc::new(ShapleyCache::new()));
            let executor = BatchExecutor::new(planner).with_threads(1);
            let report = executor.run(&lineages, n_endo, &Budget::unlimited(), &[Measure::Shapley]);
            assert!(report.items.iter().all(|i| i.result.is_ok()));
            report.dedup.distinct
        })
    });

    let warm_planner = Planner::new(policy()).with_cache(Arc::new(ShapleyCache::new()));
    let warm_executor = BatchExecutor::new(warm_planner).with_threads(1);
    let primed = warm_executor.run(&lineages, n_endo, &Budget::unlimited(), &[Measure::Shapley]);
    assert!(CacheRunStats::of(&primed.profile).misses > 0);
    group.bench_with_input(BenchmarkId::from_parameter("batch_warm"), &(), |b, _| {
        b.iter(|| {
            let report =
                warm_executor.run(&lineages, n_endo, &Budget::unlimited(), &[Measure::Shapley]);
            assert_eq!(CacheRunStats::of(&report.profile).misses, 0);
            CacheRunStats::of(&report.profile).hits
        })
    });

    group.bench_with_input(BenchmarkId::from_parameter("serve_cold"), &(), |b, _| {
        b.iter(|| serve_once(&session).1)
    });
    group.bench_with_input(BenchmarkId::from_parameter("serve_warm"), &(), |b, _| {
        b.iter(serve_warm)
    });
    group.finish();

    // Machine-readable summary (median of 10, like the other benches).
    const SAMPLES: usize = 10;
    let batch_cold_ns = median_ns(SAMPLES, || {
        let planner = Planner::new(policy()).with_cache(Arc::new(ShapleyCache::new()));
        let executor = BatchExecutor::new(planner).with_threads(1);
        let report = executor.run(&lineages, n_endo, &Budget::unlimited(), &[Measure::Shapley]);
        assert!(report.items.iter().all(|i| i.result.is_ok()));
    });
    let batch_warm_ns = median_ns(SAMPLES, || {
        let report =
            warm_executor.run(&lineages, n_endo, &Budget::unlimited(), &[Measure::Shapley]);
        assert_eq!(CacheRunStats::of(&report.profile).misses, 0);
    });
    let serve_cold_ns = median_ns(SAMPLES, || {
        serve_once(&session);
    });
    let serve_warm_ns = median_ns(SAMPLES, serve_warm);
    assert_eq!(
        warm_server.stats().profile.engine_runs(),
        primed_engine_runs,
        "warm sessions recomputed instead of hitting the cache"
    );
    warm_server.shutdown();
    let ratio = serve_warm_ns as f64 / batch_warm_ns as f64;

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"serve\",\n",
            "  \"samples\": {},\n",
            "  \"workload\": {{\n",
            "    \"lineages\": {},\n",
            "    \"n_endo\": {},\n",
            "    \"workers\": 1\n",
            "  }},\n",
            "  \"median_ms\": {{\n",
            "    \"batch_cold\": {:.3},\n",
            "    \"batch_warm\": {:.3},\n",
            "    \"serve_cold\": {:.3},\n",
            "    \"serve_warm\": {:.3}\n",
            "  }},\n",
            "  \"warm_serve_over_warm_batch\": {:.3}\n",
            "}}\n"
        ),
        SAMPLES,
        lineages.len(),
        n_endo,
        batch_cold_ns as f64 / 1e6,
        batch_warm_ns as f64 / 1e6,
        serve_cold_ns as f64 / 1e6,
        serve_warm_ns as f64 / 1e6,
        ratio,
    );
    let summary = format!(
        "serve summary ({} lineages; warm serve / warm batch = {:.2}x)",
        lineages.len(),
        ratio
    );
    write_result("bench_serve.json", &summary, &json);
    // The acceptance bar lives in the recorded JSON, not a hard assert: a
    // loaded shared CI runner comparing two ~3 ms medians would flake.
    if ratio > 2.0 {
        eprintln!(
            "WARNING: warm serve replay exceeded 2x the warm batch path ({ratio:.2}x) — \
             see results/bench_serve.json"
        );
    }
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
