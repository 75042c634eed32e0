//! Wide non-read-once compilation: bottom-up vs top-down vs cache-warm
//! top-down on disjoint-majority-block structures of 64–512 variables.
//!
//! The structures are the planner's worst case for the bottom-up
//! compiler: `k` disjoint three-variable majority blocks under one OR
//! (every variable occurs in two conjuncts, so nothing is read-once).
//! The Tseytin root clause keeps all blocks one component until a gate
//! decision satisfies it; the blocks then fall apart into mutually
//! isomorphic components — exactly the shape the canonical component
//! cache collapses.
//!
//! Series, per size:
//!
//! * `bottom_up` — the classic Tseytin → bottom-up → project pipeline
//!   (the pre-top-down default route for these widths). Escalates through
//!   the sizes until a pass exceeds [`BOTTOM_UP_TIME_CAP`]; larger sizes
//!   are then skipped and recorded in the JSON, never silently dropped —
//!   on these structures the bottom-up route is super-polynomial, which is
//!   the reason the top-down route exists;
//! * `topdown_cold` — top-down with a fresh [`ComponentCache`] each pass
//!   (first lineage of a batch);
//! * `topdown_warm` — top-down against a cache already populated by a
//!   prior pass over the whole suite (every later isomorphic lineage of a
//!   batch, and every pass of a resident service);
//! * `negated` — the engines' production entry point,
//!   [`compile_negation`]: the lineage's negation CNF over the facts (no
//!   Tseytin auxiliaries, no projection), compiled bottom-up and top-down
//!   (a fresh cache each pass). Without the root clause the blocks are
//!   separate components from the start.
//!
//! The routes are asserted bit-identical on projected model counts before
//! anything is timed (bottom-up joins the assertion at every size it
//! still runs at), and both negated compiles must count the complement:
//! `#F + #¬F = 2ⁿ`. Results land in `results/bench_kc.json`
//! (`make bench-kc`, uploaded as a CI artifact); the summary warns if the
//! warm pass is not at least 2x faster than the cold pass.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use shapdb_bench::{median_ns, write_result};
use shapdb_circuit::{Circuit, Dnf, VarId};
use shapdb_kc::{
    compile_circuit, compile_circuit_topdown, compile_negation, Budget, ComponentCache, Ddnnf,
    Route,
};
use shapdb_num::BigUint;
use std::time::Duration;

/// Samples for the top-down series in the JSON summary.
const SAMPLES: usize = 5;

/// Samples for the bottom-up series at sizes it still completes at.
const BOTTOM_UP_SAMPLES: usize = 3;

/// Wall-clock budget for a single bottom-up pass. The first size whose
/// pass blows the budget aborts (the compiler checks the deadline
/// cooperatively); that size and everything larger is skipped and
/// reported: the route is super-polynomial on these structures, so the next
/// size would be minutes-to-hours.
const BOTTOM_UP_TIME_CAP: Duration = Duration::from_secs(5);

/// (blocks, variables) per suite entry: 3 vars per block. The 66–513
/// entries span the 64–512-variable band the acceptance bar names; the
/// 24- and 48-variable entries sit at and below the old `max_kc_vars`
/// admission cap so the bottom-up route's explosion is documented with
/// numbers in the same artifact that records where it stops completing.
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

/// Bottom-up route: Tseytin → bottom-up compile → project. `None` when
/// the pass blows `budget` (deadline checked inside the compiler).
fn compile_bottom_up(d: &Dnf, budget: &Budget) -> Option<Ddnnf> {
    let mut c = Circuit::new();
    let root = d.to_circuit(&mut c);
    compile_circuit(&c, root, budget).ok().map(|c| c.ddnnf)
}

/// Top-down route against `cache` (fresh → cold pass, populated → warm).
fn compile_top_down(d: &Dnf, cache: &ComponentCache) -> Ddnnf {
    let mut c = Circuit::new();
    let root = d.to_circuit(&mut c);
    compile_circuit_topdown(&c, root, &Budget::unlimited(), Some((cache, CONTEXT)))
        .expect("suite structures compile top-down")
        .ddnnf
}

/// The production route: `¬F` compiled over the facts on `route`.
fn compile_negated(d: &Dnf, route: Route<'_>) -> Ddnnf {
    compile_negation(d, &Budget::unlimited(), route)
        .expect("suite structures compile negated")
        .ddnnf
}

/// The negated routes, bottom-up then top-down (cold).
const NEGATED_ROUTES: [(&str, Route<'static>); 2] = [
    ("bottom_up", Route::BottomUp),
    ("topdown", Route::TopDown(None)),
];

fn bench_kc_wide(c: &mut Criterion) {
    let suite: Vec<(usize, usize, Dnf)> = SIZES
        .iter()
        .map(|&(k, vars)| {
            let d = majority_blocks(k);
            assert_eq!(d.vars().len(), vars, "suite generator width");
            (k, vars, d)
        })
        .collect();

    // Bit-identity gate + bottom-up series, smallest size first so the
    // escalation stops before the super-polynomial sizes. Bottom-up joins
    // the model-count assertion at every size it completes at; cold and
    // warm top-down (the fragment instantiation path) are asserted
    // against each other at every size unconditionally.
    let mut bottom_up_ms: Vec<Option<f64>> = Vec::new();
    let mut bottom_up_skipped: Vec<usize> = Vec::new();
    let mut bottom_up_alive = true;
    for (_, vars, d) in &suite {
        eprintln!("kc_wide: gate at {vars} vars");
        let cache = ComponentCache::new();
        let cold = compile_top_down(d, &cache).count_models();
        let warm = compile_top_down(d, &cache).count_models();
        assert_eq!(cold, warm, "warm top-down diverges at {vars} vars");
        let all = BigUint::one() << *vars;
        for (name, route) in NEGATED_ROUTES {
            let negated = compile_negated(d, route).count_models();
            assert_eq!(
                cold.clone() + negated,
                all,
                "negated {name}: #F + #¬F != 2^n at {vars} vars"
            );
        }
        if !bottom_up_alive {
            bottom_up_skipped.push(*vars);
            bottom_up_ms.push(None);
            continue;
        }
        match compile_bottom_up(d, &Budget::with_timeout(BOTTOM_UP_TIME_CAP)) {
            None => {
                eprintln!("kc_wide: bottom-up blew its {BOTTOM_UP_TIME_CAP:?} budget at {vars} vars; skipping it for this and larger sizes");
                bottom_up_skipped.push(*vars);
                bottom_up_ms.push(None);
                bottom_up_alive = false;
            }
            Some(reference) => {
                assert_eq!(
                    reference.count_models(),
                    cold,
                    "cold top-down diverges at {vars} vars"
                );
                let med = median_ns(BOTTOM_UP_SAMPLES, || {
                    let budget = Budget::with_timeout(4 * BOTTOM_UP_TIME_CAP);
                    std::hint::black_box(compile_bottom_up(d, &budget).map(|d| d.len()));
                });
                bottom_up_ms.push(Some(med as f64 / 1e6));
            }
        }
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
        for (name, route) in NEGATED_ROUTES {
            let id = BenchmarkId::new(format!("negated_{name}"), vars);
            group.bench_with_input(id, d, |b, d| {
                b.iter(|| std::hint::black_box(compile_negated(d, route).len()))
            });
        }
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
    for (i, (k, vars, d)) in suite.iter().enumerate() {
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
        let negated_ms = NEGATED_ROUTES.map(|(_, route)| {
            median_ns(SAMPLES, || {
                std::hint::black_box(compile_negated(d, route).len());
            }) as f64
                / 1e6
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
        let bottom_up_field = match bottom_up_ms[i] {
            Some(ms) => format!("{ms:.3}"),
            None => "null".to_string(),
        };
        entries.push(format!(
            concat!(
                "    {{\"vars\": {}, \"blocks\": {}, ",
                "\"bottom_up_ms\": {}, \"topdown_cold_ms\": {:.3}, ",
                "\"topdown_warm_ms\": {:.3}, \"suite_warm_ms\": {:.3}, ",
                "\"warm_speedup\": {:.2}, ",
                "\"negated\": {{\"bottom_up_ms\": {:.3}, \"topdown_ms\": {:.3}}}}}"
            ),
            vars,
            k,
            bottom_up_field,
            cold_ns as f64 / 1e6,
            warm_ns as f64 / 1e6,
            suite_warm_ns as f64 / 1e6,
            speedup,
            negated_ms[0],
            negated_ms[1],
        ));
    }
    let skipped_json = bottom_up_skipped
        .iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"kc_wide\",\n",
            "  \"samples\": {},\n",
            "  \"bottom_up_samples\": {},\n",
            "  \"bottom_up_time_cap_s\": {},\n",
            "  \"bottom_up_skipped_vars\": [{}],\n",
            "  \"warm_at_least_2x\": {},\n",
            "  \"sizes\": [\n{}\n  ]\n",
            "}}\n"
        ),
        SAMPLES,
        BOTTOM_UP_SAMPLES,
        BOTTOM_UP_TIME_CAP.as_secs(),
        skipped_json,
        all_warm_at_least_2x,
        entries.join(",\n"),
    );
    let summary = format!("kc_wide summary ({} sizes)", suite.len());
    write_result("bench_kc.json", &summary, &json);
}

criterion_group!(benches, bench_kc_wide);
criterion_main!(benches);
