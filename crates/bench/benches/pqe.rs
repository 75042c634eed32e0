//! PQE micro-benchmarks (§3's bridge): weighted model counting on the
//! compiled d-DNNF (float vs exact rational), lifted inference vs
//! compilation for a hierarchical query, and the full Proposition 3.1
//! Shapley-via-PQE reduction on the running example.

use criterion::{criterion_group, criterion_main, Criterion};
use shapdb_circuit::Circuit;
use shapdb_data::flights_example;
use shapdb_kc::{compile_circuit_topdown, Budget};
use shapdb_num::Rational;
use shapdb_prob::{
    lifted_probability, pqe_bruteforce, pqe_ddnnf, pqe_ddnnf_rational, pqe_via_compilation,
    shapley_via_pqe, Tid,
};
use shapdb_query::ast::flights_query;
use shapdb_query::{evaluate, CqBuilder, Ucq};

fn bench_wmc(c: &mut Criterion) {
    let (db, _) = flights_example();
    let q = flights_query();
    let res = evaluate(&q, &db);
    let mut circuit = Circuit::new();
    let root = res.outputs[0].lineage.to_circuit(&mut circuit);
    let comp = compile_circuit_topdown(&circuit, root, &Budget::unlimited(), None).unwrap();
    let tid = Tid::uniform(&db, Rational::from_ratio(1, 2));
    let mut group = c.benchmark_group("pqe_wmc");
    group.bench_function("f64", |b| {
        b.iter(|| pqe_ddnnf(&comp.ddnnf, &comp.fact_vars, &tid))
    });
    group.bench_function("rational", |b| {
        b.iter(|| pqe_ddnnf_rational(&comp.ddnnf, &comp.fact_vars, &tid))
    });
    group.finish();
}

fn bench_lifted_vs_compiled(c: &mut Criterion) {
    // Hierarchical query R(x), S(x, y) on a synthetic TID: the extensional
    // safe-plan evaluation vs the intensional (lineage + compile) method.
    let mut db = shapdb_data::Database::new();
    db.create_relation("R", &["a"]);
    db.create_relation("S", &["a", "b"]);
    for i in 0..12i64 {
        db.insert_endo("R", vec![shapdb_data::Value::int(i % 6)]);
        db.insert_endo(
            "S",
            vec![shapdb_data::Value::int(i % 6), shapdb_data::Value::int(i)],
        );
    }
    let mut b = CqBuilder::new();
    let x = b.var("x");
    let y = b.var("y");
    b.atom("R", [x.into()]);
    b.atom("S", [x.into(), y.into()]);
    let q = b.build();
    let ucq: Ucq = q.clone().into();
    let tid = Tid::uniform(&db, Rational::from_ratio(1, 3));
    let mut group = c.benchmark_group("ablation_pqe_lifted_vs_compiled");
    group.sample_size(20);
    group.bench_function("lifted_extensional", |bch| {
        bch.iter(|| lifted_probability(&q, &db, &tid).unwrap())
    });
    group.bench_function("intensional_compile_wmc", |bch| {
        bch.iter(|| pqe_via_compilation(&ucq, &db, &tid, &Budget::unlimited()).unwrap())
    });
    group.finish();
}

fn bench_reduction(c: &mut Criterion) {
    // Proposition 3.1 end-to-end on the running example: 2(n+1) oracle
    // calls + exact Vandermonde solves per fact.
    let (db, a_ids) = flights_example();
    let q = flights_query();
    let mut group = c.benchmark_group("prop31_reduction");
    group.sample_size(10);
    group.bench_function("shapley_via_pqe_a1", |b| {
        let oracle = |tid: &Tid| pqe_bruteforce(&q, &db, tid);
        b.iter(|| shapley_via_pqe(&oracle, &db, a_ids[0]))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_wmc,
    bench_lifted_vs_compiled,
    bench_reduction
);
criterion_main!(benches);
