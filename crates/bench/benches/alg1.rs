//! Algorithm 1 micro-benchmarks (Table 1's Alg. 1 columns, Figure 4's
//! Alg1-vs-size panels) plus the conditioning ablation: the paper's
//! Algorithm 1 recomputes the whole `#SAT_k` DP per fact
//! (`paper_full_recompute`); the per-fact variant that reuses the
//! unconditioned pass for gates not containing the conditioned fact
//! (`reuse_unaffected`); and the two-pass adjoint DP every all-facts solve
//! runs (`adjoint`: one forward and one backward pass for every fact).
//!
//! `job_width` is the layer series of the `job-explain` workload: every
//! distinct non-read-once structure of the 2,000-movie JOB database,
//! compiled once from its negation CNF as production does, then one
//! `power_index_all_facts` over all of them per sample. A counting global
//! allocator reports the heap allocations of one solve.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use shapdb_circuit::{fingerprint, Circuit, Dnf, VarId};
use shapdb_core::exact::{
    power_index_all_facts, power_index_per_fact, shapley_all_facts, ExactConfig, PerFactPasses,
};
use shapdb_core::Measure;
use shapdb_kc::{compile_circuit_topdown, compile_negation, Budget, Ddnnf};
use shapdb_query::evaluate;
use shapdb_workloads::{job_database, job_ranking_query, JobConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting every allocation (reallocations too).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn grid_ddnnf(a: usize, b: usize) -> Ddnnf {
    let mut d = Dnf::new();
    for i in 0..a {
        for j in 0..b {
            d.add_conjunct(vec![VarId(i as u32), VarId((a + j) as u32)]);
        }
    }
    let mut c = Circuit::new();
    let root = d.to_circuit(&mut c);
    compile_circuit_topdown(&c, root, &Budget::unlimited(), None)
        .unwrap()
        .ddnnf
}

fn bench_alg1_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_alg1_vs_facts");
    group.sample_size(10);
    for (a, b) in [(4, 4), (8, 8), (12, 12)] {
        let dd = grid_ddnnf(a, b);
        let n = a + b;
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{n}facts")),
            &dd,
            |bench, dd| {
                bench.iter(|| {
                    shapley_all_facts(dd, n, &ExactConfig::default())
                        .unwrap()
                        .len()
                })
            },
        );
    }
    group.finish();
}

fn bench_reuse_ablation(c: &mut Criterion) {
    let dd = grid_ddnnf(10, 10);
    let mut group = c.benchmark_group("ablation_alg1_reuse");
    group.sample_size(10);
    let cfg = ExactConfig::default();
    for (name, passes) in [
        ("paper_full_recompute", PerFactPasses::FullRecompute),
        ("reuse_unaffected", PerFactPasses::ReuseUnaffected),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                power_index_per_fact(&dd, 20, &cfg, Measure::Shapley, passes)
                    .unwrap()
                    .len()
            })
        });
    }
    group.bench_function("adjoint", |b| {
        b.iter(|| shapley_all_facts(&dd, 20, &cfg).unwrap().len())
    });
    group.finish();
}

fn bench_null_player_completion(c: &mut Criterion) {
    // Effect of |D_n| ≫ |vars(C)|: the arithmetic completion's cost.
    let dd = grid_ddnnf(8, 8);
    let mut group = c.benchmark_group("ablation_alg1_completion");
    group.sample_size(10);
    for n_endo in [16usize, 64, 256] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n_endo_{n_endo}")),
            &n_endo,
            |b, &n_endo| {
                b.iter(|| {
                    shapley_all_facts(&dd, n_endo, &ExactConfig::default())
                        .unwrap()
                        .len()
                })
            },
        );
    }
    group.finish();
}

/// Every distinct non-read-once answer structure of the 2,000-movie JOB
/// database, compiled from its negation CNF, with the database's `|D_n|`.
fn job_structures() -> (Vec<Ddnnf>, usize) {
    let db = job_database(&JobConfig {
        movies: 2_000,
        ..JobConfig::default()
    });
    let mut seen = HashSet::new();
    let mut structures = Vec::new();
    for answer in &evaluate(&job_ranking_query(), &db).outputs {
        let fp = fingerprint(&answer.endo_lineage(&db));
        if fp.tree().is_some() || !seen.insert(fp.shared_key()) {
            continue;
        }
        let c = compile_negation(&fp.canonical_dnf(), &Budget::unlimited(), None)
            .expect("no budget limit");
        structures.push(c.ddnnf);
    }
    (structures, db.num_endogenous())
}

fn bench_job_width(c: &mut Criterion) {
    let (structures, n_endo) = job_structures();
    let cfg = ExactConfig::default();
    let solve = |d: &Ddnnf| {
        power_index_all_facts(d, n_endo, &cfg, Measure::Shapley)
            .unwrap()
            .len()
    };
    // Allocations of one solve, against the structure's gate count.
    let mut per_solve: Vec<(usize, u64)> = structures
        .iter()
        .map(|d| {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            std::hint::black_box(solve(d));
            (d.len(), ALLOCATIONS.load(Ordering::Relaxed) - before)
        })
        .collect();
    per_solve.sort_unstable();
    let total: u64 = per_solve.iter().map(|&(_, a)| a).sum();
    let gates: usize = per_solve.iter().map(|&(g, _)| g).sum();
    let (small, large) = (per_solve[0], per_solve[per_solve.len() - 1]);
    println!(
        "job_width: {} structures, {gates} d-DNNF nodes, {} variables max; \
         allocations per solve: mean {:.1}, max {}; smallest ({} nodes) {}, largest ({} nodes) {}",
        structures.len(),
        structures.iter().map(Ddnnf::num_vars).max().unwrap_or(0),
        total as f64 / per_solve.len() as f64,
        per_solve.iter().map(|&(_, a)| a).max().unwrap_or(0),
        small.0,
        small.1,
        large.0,
        large.1,
    );
    let mut group = c.benchmark_group("job_width");
    group.sample_size(10);
    group.bench_function("power_index_all_facts", |b| {
        b.iter(|| structures.iter().map(solve).sum::<usize>())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_alg1_scaling,
    bench_reuse_ablation,
    bench_null_player_completion,
    bench_job_width
);
criterion_main!(benches);
