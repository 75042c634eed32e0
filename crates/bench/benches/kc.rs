//! Knowledge-compilation micro-benchmarks (Table 1's KC columns, Figure 4's
//! KC-vs-size panels).
//!
//! The `grid(a, b)` lineage — `⋁_{i<a, j<b} (xᵢ ∧ yⱼ)` over `a + b` facts —
//! generalizes the running example's `q2` pattern and scales KC difficulty
//! smoothly with width.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use shapdb_circuit::{tseytin, Circuit, Dnf, VarId};
use shapdb_kc::{compile, compile_circuit_topdown, project, Budget};

fn grid_lineage(a: usize, b: usize) -> (Circuit, shapdb_circuit::NodeId) {
    let mut d = Dnf::new();
    for i in 0..a {
        for j in 0..b {
            d.add_conjunct(vec![VarId(i as u32), VarId((a + j) as u32)]);
        }
    }
    let mut c = Circuit::new();
    let root = d.to_circuit(&mut c);
    (c, root)
}

fn bench_compile_grid(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_kc_vs_facts");
    group.sample_size(10);
    for (a, b) in [(2, 2), (4, 4), (6, 6), (8, 8)] {
        let (circuit, root) = grid_lineage(a, b);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{}facts", a + b)),
            &(&circuit, root),
            |bench, (circuit, root)| {
                bench.iter(|| {
                    compile_circuit_topdown(circuit, *root, &Budget::unlimited(), None)
                        .unwrap()
                        .ddnnf
                        .len()
                })
            },
        );
    }
    group.finish();
}

fn bench_pipeline_stages(c: &mut Criterion) {
    // Table 1's KC column decomposed: Tseytin, compile, project.
    let (circuit, root) = grid_lineage(8, 8);
    let t = tseytin(&circuit, root);
    let (full, _) = compile(&t.cnf, &Budget::unlimited()).unwrap();
    let mut group = c.benchmark_group("table1_kc_stages");
    group.sample_size(10);
    group.bench_function("tseytin", |b| b.iter(|| tseytin(&circuit, root).cnf.len()));
    group.bench_function("compile", |b| {
        b.iter(|| compile(&t.cnf, &Budget::unlimited()).unwrap().0.len())
    });
    group.bench_function("project", |b| {
        b.iter(|| project(&full, t.num_inputs()).len())
    });
    group.finish();
}

criterion_group!(benches, bench_compile_grid, bench_pipeline_stages);
criterion_main!(benches);
