//! Wide non-read-once compilation: cold vs cache-warm top-down compiles
//! of the Tseytin circuit, and the negation CNF, on disjoint-majority-block
//! structures of 24–513 variables.
//!
//! The structures are `k` disjoint three-variable majority blocks under
//! one OR (every variable occurs in two conjuncts, so nothing is
//! read-once). The Tseytin root clause keeps all blocks one component
//! until a gate decision satisfies it; the blocks then fall apart into
//! mutually isomorphic components — exactly the shape the canonical
//! component cache collapses.
//!
//! Series, per size:
//!
//! * `topdown_cold` — Tseytin → compile → project with a fresh
//!   [`ComponentCache`] each pass (first lineage of a batch);
//! * `topdown_warm` — the same against a cache already populated by a
//!   prior pass over the whole suite (every later isomorphic lineage of a
//!   batch, and every pass of a resident service);
//! * `negated_topdown` — the engines' production entry point,
//!   [`compile_negation`]: the lineage's negation CNF over the facts (no
//!   Tseytin auxiliaries, no projection), a cache owned by each pass.
//!   Without the root clause the blocks are separate components from the
//!   start.
//!
//! Cold and warm compiles are asserted bit-identical on projected model
//! counts before anything is timed, and the negated compile must count the
//! complement: `#F + #¬F = 2ⁿ`. Results land in `results/bench_kc.json`
//! (`make bench-kc`, uploaded as a CI artifact); the summary warns if the
//! warm pass is not at least 2x faster than the cold pass.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use shapdb_bench::{median_ns, write_result};
use shapdb_circuit::{Circuit, Dnf, VarId};
use shapdb_kc::{compile_circuit_topdown, compile_negation, Budget, ComponentCache, Ddnnf};
use shapdb_num::BigUint;

/// Samples for the top-down series in the JSON summary.
const SAMPLES: usize = 5;

/// (blocks, variables) per suite entry: 3 vars per block. The 66–513
/// entries span the 64–512-variable band; the 24- and 48-variable entries
/// sit at and below the old `max_kc_vars` admission cap.
const SIZES: [(usize, usize); 6] = [
    (8, 24),
    (16, 48),
    (22, 66),
    (43, 129),
    (86, 258),
    (171, 513),
];

/// The shared-cache context id for the suite — one batch, one context.
const CONTEXT: u64 = 1;

/// `k` disjoint 3-variable majority blocks under one OR. Every variable
/// occurs in two conjuncts (non-read-once), and every block is
/// isomorphic to every other under the canonical component renaming.
fn majority_blocks(k: usize) -> Dnf {
    let mut d = Dnf::new();
    for b in 0..k as u32 {
        let (x, y, z) = (3 * b, 3 * b + 1, 3 * b + 2);
        for pair in [[x, y], [x, z], [y, z]] {
            d.add_conjunct(pair.iter().map(|&v| VarId(v)).collect());
        }
    }
    d
}

/// Top-down route against `cache` (fresh → cold pass, populated → warm).
fn compile_top_down(d: &Dnf, cache: &ComponentCache) -> Ddnnf {
    let mut c = Circuit::new();
    let root = d.to_circuit(&mut c);
    compile_circuit_topdown(&c, root, &Budget::unlimited(), Some((cache, CONTEXT)))
        .expect("suite structures compile top-down")
        .ddnnf
}

/// The production route: `¬F` compiled over the facts with a cache owned
/// by the compile.
fn compile_negated(d: &Dnf) -> Ddnnf {
    compile_negation(d, &Budget::unlimited(), None)
        .expect("suite structures compile negated")
        .ddnnf
}

fn bench_kc_wide(c: &mut Criterion) {
    let suite: Vec<(usize, usize, Dnf)> = SIZES
        .iter()
        .map(|&(k, vars)| {
            let d = majority_blocks(k);
            assert_eq!(d.vars().len(), vars, "suite generator width");
            (k, vars, d)
        })
        .collect();

    // Bit-identity gate: cold and warm top-down (the fragment
    // instantiation path) against each other, and the negated compile
    // against the complement count, at every size.
    for (_, vars, d) in &suite {
        eprintln!("kc_wide: gate at {vars} vars");
        let cache = ComponentCache::new();
        let cold = compile_top_down(d, &cache).count_models();
        let warm = compile_top_down(d, &cache).count_models();
        assert_eq!(cold, warm, "warm top-down diverges at {vars} vars");
        let negated = compile_negated(d).count_models();
        assert_eq!(
            cold + negated,
            BigUint::one() << *vars,
            "negated: #F + #¬F != 2^n at {vars} vars"
        );
    }

    let mut group = c.benchmark_group("kc_wide_compile");
    group.sample_size(10);
    for (_, vars, d) in &suite {
        group.bench_with_input(BenchmarkId::new("topdown_cold", vars), d, |b, d| {
            b.iter(|| {
                let cache = ComponentCache::new();
                std::hint::black_box(compile_top_down(d, &cache).len());
            })
        });
        let warm_cache = ComponentCache::new();
        std::hint::black_box(compile_top_down(d, &warm_cache).len());
        group.bench_with_input(BenchmarkId::new("topdown_warm", vars), d, |b, d| {
            b.iter(|| std::hint::black_box(compile_top_down(d, &warm_cache).len()))
        });
        group.bench_with_input(BenchmarkId::new("negated_topdown", vars), d, |b, d| {
            b.iter(|| std::hint::black_box(compile_negated(d).len()))
        });
    }
    group.finish();

    // Machine-readable summary: medians per size plus the cold/warm
    // ratio the acceptance bar watches, and a suite-warm series where the
    // cache is shared across ALL sizes first (the batch scenario —
    // the per-block fragments recur across every entry).
    let mut entries = Vec::new();
    let mut all_warm_at_least_2x = true;
    let suite_cache = ComponentCache::new();
    for (_, _, d) in &suite {
        std::hint::black_box(compile_top_down(d, &suite_cache).len());
    }
    for (k, vars, d) in &suite {
        let cold_ns = median_ns(SAMPLES, || {
            let cache = ComponentCache::new();
            std::hint::black_box(compile_top_down(d, &cache).len());
        });
        let warm_cache = ComponentCache::new();
        std::hint::black_box(compile_top_down(d, &warm_cache).len());
        let warm_ns = median_ns(SAMPLES, || {
            std::hint::black_box(compile_top_down(d, &warm_cache).len());
        });
        let suite_warm_ns = median_ns(SAMPLES, || {
            std::hint::black_box(compile_top_down(d, &suite_cache).len());
        });
        let negated_ns = median_ns(SAMPLES, || {
            std::hint::black_box(compile_negated(d).len());
        });
        let speedup = cold_ns as f64 / warm_ns.max(1) as f64;
        if speedup < 2.0 {
            all_warm_at_least_2x = false;
            eprintln!(
                "WARN: warm/cold speedup {speedup:.2}x < 2x at {vars} vars \
                 (cold {:.3} ms, warm {:.3} ms)",
                cold_ns as f64 / 1e6,
                warm_ns as f64 / 1e6,
            );
        }
        entries.push(format!(
            concat!(
                "    {{\"vars\": {}, \"blocks\": {}, ",
                "\"topdown_cold_ms\": {:.3}, ",
                "\"topdown_warm_ms\": {:.3}, \"suite_warm_ms\": {:.3}, ",
                "\"warm_speedup\": {:.2}, ",
                "\"negated\": {{\"topdown_ms\": {:.3}}}}}"
            ),
            vars,
            k,
            cold_ns as f64 / 1e6,
            warm_ns as f64 / 1e6,
            suite_warm_ns as f64 / 1e6,
            speedup,
            negated_ns as f64 / 1e6,
        ));
    }
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"kc_wide\",\n",
            "  \"samples\": {},\n",
            "  \"warm_at_least_2x\": {},\n",
            "  \"sizes\": [\n{}\n  ]\n",
            "}}\n"
        ),
        SAMPLES,
        all_warm_at_least_2x,
        entries.join(",\n"),
    );
    let summary = format!("kc_wide summary ({} sizes)", suite.len());
    write_result("bench_kc.json", &summary, &json);
}

criterion_group!(benches, bench_kc_wide);
criterion_main!(benches);
