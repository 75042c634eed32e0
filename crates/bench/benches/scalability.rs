//! Scalability benchmarks (Figure 5): the exact pipeline on real workload
//! outputs as the TPC-H `lineitem` table grows, plus an IMDB pipeline
//! sample (Table 1's per-output cost at workload scale).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use shapdb_bench::runner::dense_lineage;
use shapdb_circuit::Circuit;
use shapdb_core::engine::KcEngine;
use shapdb_core::exact::ExactConfig;
use shapdb_kc::Budget;
use shapdb_query::evaluate;
use shapdb_workloads::{
    imdb_database, imdb_queries, tpch_database, tpch_queries, ImdbConfig, TpchConfig,
};

fn bench_fig5_scale_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_tpch_scale");
    group.sample_size(10);
    for scale in [0.25f64, 0.5, 1.0] {
        let db = tpch_database(&TpchConfig {
            scale,
            ..Default::default()
        });
        let q11 = tpch_queries()
            .into_iter()
            .find(|q| q.name == "Q11")
            .unwrap();
        let res = evaluate(&q11.ucq, &db);
        let Some(out) = res.outputs.first() else {
            continue;
        };
        let (dense, vars) = dense_lineage(&out.endo_lineage(&db));
        let n_endo = db.num_endogenous();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("scale{scale}_{}facts", vars.len())),
            &dense,
            |b, dense| {
                b.iter(|| {
                    let mut circuit = Circuit::new();
                    let root = dense.to_circuit(&mut circuit);
                    KcEngine::analyze_circuit(
                        &circuit,
                        root,
                        n_endo,
                        &Budget::unlimited(),
                        &ExactConfig::default(),
                    )
                    .map(|r| r.values.len())
                    .unwrap_or(0)
                })
            },
        );
    }
    group.finish();
}

fn bench_table1_imdb_sample(c: &mut Criterion) {
    let db = imdb_database(&ImdbConfig {
        movies: 400,
        ..Default::default()
    });
    let q = imdb_queries().into_iter().find(|q| q.name == "1a").unwrap();
    let res = evaluate(&q.ucq, &db);
    let Some(out) = res.outputs.first() else {
        return;
    };
    let (dense, _) = dense_lineage(&out.endo_lineage(&db));
    let n_endo = db.num_endogenous();
    let mut group = c.benchmark_group("table1_imdb_pipeline");
    group.sample_size(10);
    group.bench_function("1a_first_output", |b| {
        b.iter(|| {
            let mut circuit = Circuit::new();
            let root = dense.to_circuit(&mut circuit);
            KcEngine::analyze_circuit(
                &circuit,
                root,
                n_endo,
                &Budget::unlimited(),
                &ExactConfig::default(),
            )
            .map(|r| r.values.len())
            .unwrap_or(0)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fig5_scale_sweep, bench_table1_imdb_sample);
criterion_main!(benches);
