//! Scalability benchmarks (Figure 5): the exact Tseytin pipeline on the
//! answer of TPC-H Q5 as the database grows (its lineage grows with it),
//! plus an IMDB pipeline sample (Table 1's per-output cost at workload
//! scale). A sweep point without an answer panics instead of printing an
//! empty group.
//!
//! The `stream_scale` group times streamed lineage extraction
//! ([`LineageStream`], answer pass plus every per-answer pass) over the JOB
//! generator at 4k, 8k and 12k movies, seven interleaved rounds, for full
//! lineages and endogenous ones (what the query driver streams), each
//! twice: warm, over a database whose hash indexes an earlier call built,
//! and cold, over a fresh clone per sample (cloned outside the timed
//! region), which builds them. It writes `results/bench_stream.json` with
//! each size's resident index bytes, and warns when a series'
//! fastest-round time grows more than 1.3× faster than the movie count.
//!
//! `cargo bench --bench scalability -p shapdb_bench -- <name>` runs only
//! the groups whose name contains `<name>` (`make bench-stream` runs
//! `stream_scale`).

use criterion::{black_box, BenchmarkId, Criterion};
use shapdb_bench::runner::dense_lineage;
use shapdb_bench::write_result;
use shapdb_circuit::Circuit;
use shapdb_core::engine::KcEngine;
use shapdb_kc::Budget;
use shapdb_query::{evaluate, LineageKind, LineageStream};
use shapdb_workloads::{
    imdb_database, imdb_queries, job_database, job_ranking_query, tpch_database, tpch_queries,
    ImdbConfig, JobConfig, TpchConfig,
};
use std::time::{Duration, Instant};

fn bench_fig5_scale_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_tpch_scale");
    group.sample_size(10);
    // Q5 has one answer at every scale, and its lineage grows with the
    // database: 25, 26 and 104 facts at scales 0.25, 0.5 and 1.
    let q5 = tpch_queries().into_iter().find(|q| q.name == "Q5").unwrap();
    for scale in [0.25f64, 0.5, 1.0] {
        let db = tpch_database(&TpchConfig {
            scale,
            ..Default::default()
        });
        let res = evaluate(&q5.ucq, &db);
        let Some(out) = res.outputs.first() else {
            panic!("TPC-H Q5 has no answer at scale {scale}: the sweep point measures nothing");
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
                    KcEngine::analyze_circuit(&circuit, root, n_endo, &Budget::unlimited())
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
            KcEngine::analyze_circuit(&circuit, root, n_endo, &Budget::unlimited())
                .map(|r| r.values.len())
                .unwrap_or(0)
        })
    });
    group.finish();
}

/// Largest tolerated growth of stream time over linear in the movie count.
const STREAM_GROWTH_BAR: f64 = 1.3;

fn bench_stream_scale(_: &mut Criterion) {
    const MOVIES: [usize; 3] = [4_000, 8_000, 12_000];
    const ROUNDS: usize = 7;
    // (lineage, cold indexes, lineage name)
    const SERIES: [(LineageKind, bool, &str); 4] = [
        (LineageKind::Full, false, "full"),
        (LineageKind::Endogenous, false, "endogenous"),
        (LineageKind::Full, true, "full"),
        (LineageKind::Endogenous, true, "endogenous"),
    ];
    let q = job_ranking_query();
    let dbs: Vec<_> = MOVIES
        .iter()
        .map(|&movies| {
            job_database(&JobConfig {
                movies,
                ..JobConfig::default()
            })
        })
        .collect();
    // The warm series reuse the indexes this pass builds.
    for db in &dbs {
        for (kind, _, _) in SERIES {
            black_box(LineageStream::with_kind(&q, db, kind).count());
        }
    }
    let index_bytes: Vec<usize> = dbs.iter().map(|db| db.index_bytes()).collect();
    // Sizes and series take turns, round by round, and the growth uses
    // each size's fastest round: cores that change speed mid-run then slow
    // every size alike instead of skewing the ratio.
    let mut samples: Vec<Vec<Vec<Duration>>> = vec![vec![Vec::new(); MOVIES.len()]; SERIES.len()];
    let mut answers = vec![0; MOVIES.len()];
    for _ in 0..ROUNDS {
        for (i, db) in dbs.iter().enumerate() {
            for (series, &(kind, cold, _)) in samples.iter_mut().zip(&SERIES) {
                let fresh = cold.then(|| db.clone());
                let db = fresh.as_ref().unwrap_or(db);
                let start = Instant::now();
                answers[i] = black_box(LineageStream::with_kind(&q, db, kind).count());
                series[i].push(start.elapsed());
                drop(fresh);
            }
        }
    }
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut series_json = Vec::new();
    for (&(_, cold, lineage), series) in SERIES.iter().zip(&mut samples) {
        let indexes = if cold { "cold" } else { "warm" };
        let name = format!("{lineage}/{indexes}");
        let mut rows = Vec::new();
        let mut worst: f64 = 0.0;
        let mut base_ms = 0.0;
        for (i, (&movies, s)) in MOVIES.iter().zip(series.iter_mut()).enumerate() {
            s.sort_unstable();
            let (min_ms, median_ms) = (ms(s[0]), ms(s[s.len() / 2]));
            if i == 0 {
                base_ms = min_ms;
            }
            // 1.0 is exactly linear in the movie count.
            let growth = (min_ms / base_ms) / (movies as f64 / MOVIES[0] as f64);
            worst = worst.max(growth);
            let id = format!("{name}/{movies}");
            println!(
                "stream_scale/{id:<48} min {min_ms:>9.2} ms | median {median_ms:>9.2} ms | n={ROUNDS}"
            );
            rows.push(format!(
                "      {{\"movies\": {movies}, \"answers\": {}, \"min_ms\": {min_ms:.3}, \
                 \"median_ms\": {median_ms:.3}, \"growth_over_linear\": {growth:.3}}}",
                answers[i]
            ));
        }
        if worst > STREAM_GROWTH_BAR {
            eprintln!(
                "WARNING: {name} stream time grows {worst:.2}x faster than linear \
                 (bar {STREAM_GROWTH_BAR}x)"
            );
        }
        series_json.push(format!(
            "    {{\"lineage\": \"{lineage}\", \"indexes\": \"{indexes}\", \
             \"worst_growth_over_linear\": {worst:.3}, \"sizes\": [\n{}\n    ]}}",
            rows.join(",\n")
        ));
    }
    let resident: Vec<String> = MOVIES
        .iter()
        .zip(&index_bytes)
        .map(|(movies, bytes)| {
            println!("stream_scale/index_bytes/{movies:<37} {bytes:>12} B resident");
            format!("    {{\"movies\": {movies}, \"bytes\": {bytes}}}")
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"stream_scale\",\n  \"rounds\": {ROUNDS},\n  \
         \"growth_bar\": {STREAM_GROWTH_BAR},\n  \"index_bytes\": [\n{}\n  ],\n  \
         \"series\": [\n{}\n  ]\n}}\n",
        resident.join(",\n"),
        series_json.join(",\n")
    );
    write_result("bench_stream.json", "stream_scale summary", &json);
}

fn main() {
    // Like criterion: non-flag arguments select groups by substring.
    let filters: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with("--"))
        .collect();
    type Group = fn(&mut Criterion);
    let groups: [(&str, Group); 3] = [
        ("fig5_tpch_scale", bench_fig5_scale_sweep),
        ("table1_imdb_pipeline", bench_table1_imdb_sample),
        ("stream_scale", bench_stream_scale),
    ];
    let mut c = Criterion::default();
    for (name, run) in groups {
        if filters.is_empty() || filters.iter().any(|f| name.contains(f.as_str())) {
            run(&mut c);
        }
    }
}
