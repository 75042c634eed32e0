//! Benchmarks for the extension features beyond the paper's §6: the
//! read-once fast path (ablation vs the knowledge-compilation pipeline),
//! exact SHAP-scores on d-DNNFs, and aggregate (COUNT) attribution.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use shapdb_circuit::{factor, Circuit, Dnf, VarId};
use shapdb_core::aggregate::count_shapley;
use shapdb_core::engine::{KcEngine, LineageTask, Planner, PlannerConfig};
use shapdb_core::readonce::shapley_read_once;
use shapdb_core::shap_score::shap_scores;
use shapdb_kc::{compile_circuit_topdown, Budget};
use shapdb_num::Rational;

/// `⋁_{i<a, j<b} (xᵢ ∧ yⱼ)` — read-once as `(⋁xᵢ) ∧ (⋁yⱼ)`, but hard for
/// Tseytin + DPLL compilation.
fn grid(a: usize, b: usize) -> Dnf {
    let mut d = Dnf::new();
    for i in 0..a {
        for j in 0..b {
            d.add_conjunct(vec![VarId(i as u32), VarId((a + j) as u32)]);
        }
    }
    d
}

fn running_example() -> Dnf {
    let mut d = Dnf::new();
    d.add_conjunct(vec![VarId(0)]);
    for pair in [[1u32, 3], [1, 4], [2, 3], [2, 4], [5, 6]] {
        d.add_conjunct(pair.iter().map(|&v| VarId(v)).collect());
    }
    d
}

/// The headline ablation: the same exact values via the read-once fast path
/// vs the full Tseytin → compile → project → Algorithm 1 pipeline.
fn bench_readonce_vs_kc(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_readonce_vs_kc");
    group.sample_size(10);
    let planner = Planner::new(PlannerConfig::default());
    for (name, dnf) in [("flights", running_example()), ("grid8x8", grid(8, 8))] {
        group.bench_with_input(BenchmarkId::new("readonce", name), &dnf, |b, dnf| {
            b.iter(|| {
                let task = LineageTask::new(dnf, dnf.vars().len());
                planner.solve(&task).unwrap().values.len()
            })
        });
        group.bench_with_input(BenchmarkId::new("kc", name), &dnf, |b, dnf| {
            b.iter(|| {
                let mut circuit = Circuit::new();
                let root = dnf.to_circuit(&mut circuit);
                KcEngine::analyze_circuit(&circuit, root, dnf.vars().len(), &Budget::unlimited())
                    .unwrap()
                    .values
                    .len()
            })
        });
    }
    group.finish();
}

/// The fast path alone on lineages far beyond the compiler's reach.
fn bench_readonce_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("readonce_grid_scaling");
    group.sample_size(10);
    for side in [8usize, 16, 32] {
        let dnf = grid(side, side);
        let tree = factor(&dnf).expect("grids are read-once");
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{}facts", 2 * side)),
            &tree,
            |b, tree| b.iter(|| shapley_read_once(tree, 2 * side, None).unwrap().len()),
        );
    }
    group.finish();
}

/// Exact SHAP-scores vs exact Shapley values on the same compiled d-DNNF
/// (the p ≡ 0 case coincides with Shapley; uniform p½ is the generic case).
fn bench_shap_scores(c: &mut Criterion) {
    let dnf = running_example();
    let mut circuit = Circuit::new();
    let root = dnf.to_circuit(&mut circuit);
    let comp = compile_circuit_topdown(&circuit, root, &Budget::unlimited(), None).unwrap();
    let n = comp.fact_vars.len();
    let mut group = c.benchmark_group("shap_score_exact");
    group.sample_size(10);
    for (name, p) in [
        ("background0", Rational::zero()),
        ("uniform_half", Rational::from_ratio(1, 2)),
    ] {
        let probs = vec![p.clone(); n];
        group.bench_with_input(BenchmarkId::from_parameter(name), &probs, |b, probs| {
            b.iter(|| shap_scores(&comp.ddnnf, probs).len())
        });
    }
    group.finish();
}

/// COUNT-game attribution over many small per-tuple lineages (linearity).
fn bench_aggregate_count(c: &mut Criterion) {
    // 32 tuples, each with a 3-conjunct lineage over a 48-fact pool.
    let lineages: Vec<Dnf> = (0..32u32)
        .map(|t| {
            let mut d = Dnf::new();
            for j in 0..3u32 {
                let base = (t * 7 + j * 13) % 48;
                d.add_conjunct(vec![VarId(base), VarId((base + j + 1) % 48)]);
            }
            d
        })
        .collect();
    let mut group = c.benchmark_group("aggregate_count");
    group.sample_size(10);
    group.bench_function("32tuples_48facts", |b| {
        b.iter(|| {
            count_shapley(&lineages, 48, &Budget::unlimited())
                .unwrap()
                .len()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_readonce_vs_kc,
    bench_readonce_scaling,
    bench_shap_scores,
    bench_aggregate_count
);
criterion_main!(benches);
