//! Cold exact-path benchmark: the per-lineage cost the paper's §6
//! (Figure 4) measures, with the cross-query cache off, split into its two
//! phases — the d-DNNF compiler and Algorithm 1.
//!
//! Four series over the 521-lineage TPC-H-lite + IMDB-lite answer corpus
//! (the same one the `batch`/`cache` benches replay, so numbers compare
//! directly):
//!
//! * `cold_replay` — the full batch path with **no** result cache: every
//!   distinct structure pays fingerprint + plan + solve;
//! * `compiler_only` — Tseytin → CNF→d-DNNF → project for every distinct
//!   canonical structure (Figure 3's middle row, no Algorithm 1). This is
//!   the paper's own cold path: it always compiles, whereas our planner
//!   routes the factorizable/tiny structures around the compiler;
//! * `alg1_only` — Algorithm 1 over the pre-compiled d-DNNFs (no compiler);
//! * `readonce_only` — `power_read_once` over the read-once factorization
//!   of every distinct structure: the route the planner actually gives
//!   each of them.
//!
//! Besides the criterion console lines, the run writes a machine-readable
//! summary to `results/bench_exact.json` so the perf trajectory is recorded
//! per commit (`make bench-exact`). It also records `readonce_facts`, the
//! facts of the read-once structures, and `readonce_passes`, the
//! conditioned passes one `readonce_only` round ran
//! (`readonce.conditioned_passes`), and asserts there are fewer passes than
//! facts: interchangeable facts share one pass.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use shapdb_bench::{median_ns, write_result};
use shapdb_circuit::{Circuit, Dnf, Fingerprint, ReadOnce};
use shapdb_core::engine::{BatchExecutor, EngineKind, Planner, PlannerConfig};
use shapdb_core::exact::{shapley_all_facts, ExactConfig};
use shapdb_core::readonce::power_read_once;
use shapdb_core::Measure;
use shapdb_kc::{compile_circuit_topdown, Budget, ComponentCache, Ddnnf};
use shapdb_metrics::counters::{Profile, READONCE_CONDITIONED_PASSES};
use std::sync::Arc;
use std::time::Duration;

/// Every answer lineage of every workload query (capped per query) — the
/// same corpus as the `batch`/`cache` benches.
fn workload_lineages() -> (Vec<Dnf>, usize) {
    shapdb_bench::corpus::replay_lineages()
}

/// The §6.3-style cold planner policy — identical to the `cache` bench's,
/// minus the cache.
fn cold_planner() -> Planner {
    Planner::new(PlannerConfig {
        timeout: Some(Duration::from_millis(2500)),
        fallback: Some(EngineKind::Proxy),
        ..Default::default()
    })
}

/// The workload's distinct canonical structures (83 on this corpus — all
/// of them read-once, which is why the planner's shortcut routes them
/// around the compiler; the phase benches below force them *through* it,
/// measuring the paper's always-compile cold path).
fn distinct_structures(lineages: &[Dnf]) -> Vec<Fingerprint> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for l in lineages {
        let fp = shapdb_circuit::fingerprint(l);
        if seen.insert(fp.key().clone()) {
            out.push(fp);
        }
    }
    out
}

/// Every read-once value of every tree, as the read-once engine computes
/// them (Shapley, no deadline).
fn solve_read_once(trees: &[ReadOnce], n_endo: usize) -> usize {
    trees
        .iter()
        .map(|t| {
            power_read_once(t, n_endo, None, Measure::Shapley)
                .unwrap()
                .len()
        })
        .sum()
}

/// Variable cap for the *compiler* phase series: the compiler with
/// component caching prices the (48, 256] band at microseconds. Skipped
/// structures' variable counts are reported in the JSON, never silent.
const PHASE_MAX_VARS: usize = 256;

/// Variable cap for the Algorithm 1 phase series. Algorithm 1 itself on
/// the widest structures is seconds per pass (see the `alg1_by_vars`
/// buckets, which cover them with fewer samples), so the 10-sample phase
/// series keeps the original cap.
const ALG1_PHASE_MAX_VARS: usize = 48;

/// Compiles one canonical DNF to a projected d-DNNF, sharing `cache`
/// across the pass's lineages when given (one batch-lived cache per pass,
/// as the batch executor attaches).
fn compile_one(d: &Dnf, cache: Option<&ComponentCache>) -> Ddnnf {
    let mut c = Circuit::new();
    let root = d.to_circuit(&mut c);
    compile_circuit_topdown(&c, root, &Budget::unlimited(), cache.map(|c| (c, 1)))
        .expect("workload structures compile")
        .ddnnf
}

/// Variable-count buckets for the per-width Algorithm 1 breakdown: each
/// bucket spans `(previous, limit]` variables. The widest structures run
/// fewer samples (they dominate wall time); counts and samples are always
/// recorded, so nothing is silently dropped.
const ALG1_BUCKETS: [(&str, usize, usize); 4] = [
    ("le48", 48, 10),
    ("le256", 256, 3),
    ("le1024", 1024, 3),
    ("le4096", 4096, 3),
];

/// Per-bucket Algorithm 1 medians over the corpus's distinct structures
/// (compiled once outside the timer). Returns JSON object entries.
fn alg1_by_vars(all_structures: &[Dnf], n_endo: usize) -> (String, usize) {
    let mut entries = Vec::new();
    let mut lo = 0usize;
    let mut covered = 0usize;
    for (name, hi, samples) in ALG1_BUCKETS {
        let in_bucket: Vec<&Dnf> = all_structures
            .iter()
            .filter(|d| {
                let v = d.vars().len();
                v > lo && v <= hi
            })
            .collect();
        covered += in_bucket.len();
        let median_ms = if in_bucket.is_empty() {
            0.0
        } else {
            let ddnnfs: Vec<Ddnnf> = in_bucket.iter().map(|d| compile_one(d, None)).collect();
            let ns = median_ns(samples, || {
                for d in &ddnnfs {
                    std::hint::black_box(
                        shapley_all_facts(d, n_endo, &ExactConfig::default())
                            .unwrap()
                            .len(),
                    );
                }
            });
            ns as f64 / 1e6
        };
        entries.push(format!(
            "    \"{name}\": {{ \"structures\": {}, \"samples\": {samples}, \"median_ms\": {median_ms:.3} }}",
            in_bucket.len(),
        ));
        lo = hi;
    }
    (entries.join(",\n"), all_structures.len() - covered)
}

fn bench_exact_cold(c: &mut Criterion) {
    let (lineages, n_endo) = workload_lineages();
    let fingerprints = distinct_structures(&lineages);
    let all_structures: Vec<Dnf> = fingerprints
        .iter()
        .map(Fingerprint::canonical_dnf)
        .collect();
    let trees: Vec<ReadOnce> = fingerprints
        .iter()
        .filter_map(|fp| fp.tree().cloned())
        .collect();
    let structures: Vec<Dnf> = all_structures
        .iter()
        .filter(|d| d.vars().len() <= PHASE_MAX_VARS)
        .cloned()
        .collect();
    // Skipped structures are reported *with their variable counts*, so a
    // reader of the JSON knows exactly which widths the phase medians do
    // not cover.
    let skipped_vars: Vec<usize> = all_structures
        .iter()
        .map(|d| d.vars().len())
        .filter(|&v| v > PHASE_MAX_VARS)
        .collect();
    println!(
        "phase series: {} of {} distinct structures (capped at {} vars; skipped var counts: {:?})",
        structures.len(),
        all_structures.len(),
        PHASE_MAX_VARS,
        skipped_vars,
    );
    let alg1_structures: Vec<&Dnf> = structures
        .iter()
        .filter(|d| d.vars().len() <= ALG1_PHASE_MAX_VARS)
        .collect();
    let ddnnfs: Vec<Ddnnf> = alg1_structures
        .iter()
        .map(|d| compile_one(d, None))
        .collect();
    let circuit_vars: usize = ddnnfs.iter().map(Ddnnf::num_vars).sum();

    let mut group = c.benchmark_group("exact_cold");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::from_parameter("cold_replay"), &(), |b, _| {
        b.iter(|| {
            let executor = BatchExecutor::new(cold_planner()).with_threads(1);
            let report = executor.run(&lineages, n_endo, &Budget::unlimited(), &[Measure::Shapley]);
            assert!(report.items.iter().all(|i| i.result.is_ok()));
            report.dedup.distinct
        })
    });
    group.bench_with_input(
        BenchmarkId::from_parameter("fingerprint_only"),
        &(),
        |b, _| {
            b.iter(|| {
                lineages
                    .iter()
                    .map(|l| shapdb_circuit::fingerprint(l).num_vars())
                    .sum::<usize>()
            })
        },
    );
    group.bench_with_input(BenchmarkId::from_parameter("compiler_only"), &(), |b, _| {
        b.iter(|| {
            let cache = ComponentCache::new();
            structures
                .iter()
                .map(|d| compile_one(d, Some(&cache)).len())
                .sum::<usize>()
        })
    });
    group.bench_with_input(BenchmarkId::from_parameter("alg1_only"), &(), |b, _| {
        b.iter(|| {
            ddnnfs
                .iter()
                .map(|d| {
                    shapley_all_facts(d, n_endo, &ExactConfig::default())
                        .unwrap()
                        .len()
                })
                .sum::<usize>()
        })
    });
    group.bench_with_input(BenchmarkId::from_parameter("readonce_only"), &(), |b, _| {
        b.iter(|| solve_read_once(&trees, n_endo))
    });
    group.finish();

    // Machine-readable summary for the perf trajectory (results/). Measured
    // with the same median-of-10 the console lines use.
    const SAMPLES: usize = 10;
    let cold_ns = median_ns(SAMPLES, || {
        let executor = BatchExecutor::new(cold_planner()).with_threads(1);
        let report = executor.run(&lineages, n_endo, &Budget::unlimited(), &[Measure::Shapley]);
        assert!(report.items.iter().all(|i| i.result.is_ok()));
    });
    let fingerprint_ns = median_ns(SAMPLES, || {
        for l in &lineages {
            std::hint::black_box(shapdb_circuit::fingerprint(l).num_vars());
        }
    });
    let compile_ns = median_ns(SAMPLES, || {
        let cache = ComponentCache::new();
        for d in &structures {
            std::hint::black_box(compile_one(d, Some(&cache)).len());
        }
    });
    let alg1_ns = median_ns(SAMPLES, || {
        for d in &ddnnfs {
            std::hint::black_box(
                shapley_all_facts(d, n_endo, &ExactConfig::default())
                    .unwrap()
                    .len(),
            );
        }
    });
    let readonce_ns = median_ns(SAMPLES, || {
        std::hint::black_box(solve_read_once(&trees, n_endo));
    });
    let profile = Arc::new(Profile::new());
    let readonce_facts = {
        let _scope = profile.enter();
        solve_read_once(&trees, n_endo)
    };
    let readonce_passes = profile.get(&READONCE_CONDITIONED_PASSES) as usize;
    println!(
        "readonce_only: {readonce_passes} conditioned passes for {readonce_facts} facts of {} structures",
        trees.len()
    );
    assert!(
        readonce_passes < readonce_facts,
        "the read-once DP ran {readonce_passes} passes for {readonce_facts} facts: \
         interchangeable facts no longer share one"
    );
    let (bucket_entries, bucket_dropped) = alg1_by_vars(&all_structures, n_endo);
    let skipped_json = skipped_vars
        .iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"exact_cold\",\n",
            "  \"samples\": {},\n",
            "  \"workload\": {{\n",
            "    \"lineages\": {},\n",
            "    \"n_endo\": {},\n",
            "    \"distinct_structures\": {},\n",
            "    \"phase_max_vars\": {},\n",
            "    \"phase_skipped_vars\": [{}],\n",
            "    \"alg1_phase_max_vars\": {},\n",
            "    \"alg1_phase_structures\": {},\n",
            "    \"phase_circuit_vars\": {},\n",
            "    \"readonce_structures\": {},\n",
            "    \"readonce_facts\": {},\n",
            "    \"readonce_passes\": {}\n",
            "  }},\n",
            "  \"median_ms\": {{\n",
            "    \"cold_replay\": {:.3},\n",
            "    \"fingerprint_only\": {:.3},\n",
            "    \"compiler_only\": {:.3},\n",
            "    \"alg1_only\": {:.3},\n",
            "    \"readonce_only\": {:.3}\n",
            "  }},\n",
            "  \"alg1_by_vars\": {{\n",
            "{},\n",
            "    \"dropped_over_4096_vars\": {}\n",
            "  }}\n",
            "}}\n"
        ),
        SAMPLES,
        lineages.len(),
        n_endo,
        structures.len(),
        PHASE_MAX_VARS,
        skipped_json,
        ALG1_PHASE_MAX_VARS,
        alg1_structures.len(),
        circuit_vars,
        trees.len(),
        readonce_facts,
        readonce_passes,
        cold_ns as f64 / 1e6,
        fingerprint_ns as f64 / 1e6,
        compile_ns as f64 / 1e6,
        alg1_ns as f64 / 1e6,
        readonce_ns as f64 / 1e6,
        bucket_entries,
        bucket_dropped,
    );
    let summary = format!(
        "exact_cold summary ({} lineages, {} distinct structures)",
        lineages.len(),
        structures.len()
    );
    write_result("bench_exact.json", &summary, &json);
}

criterion_group!(benches, bench_exact_cold);
criterion_main!(benches);
