//! Algorithm 1 micro-benchmarks (Table 1's Alg. 1 columns, Figure 4's
//! Alg1-vs-size panels) plus the conditioning ablation: the paper's
//! Algorithm 1 recomputes the whole `#SAT_k` DP per fact
//! (`paper_full_recompute`); the per-fact variant that reuses the
//! unconditioned pass for gates not containing the conditioned fact
//! (`reuse_unaffected`); and the two-pass adjoint DP every all-facts solve
//! runs (`adjoint`: one forward and one backward pass for every fact).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use shapdb_circuit::{Circuit, Dnf, VarId};
use shapdb_core::exact::{power_index_per_fact, shapley_all_facts, ExactConfig, PerFactPasses};
use shapdb_core::Measure;
use shapdb_kc::{compile_circuit_topdown, Budget, Ddnnf};

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

criterion_group!(
    benches,
    bench_alg1_scaling,
    bench_reuse_ablation,
    bench_null_player_completion
);
criterion_main!(benches);
