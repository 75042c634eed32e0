//! Ad-hoc breakdown of the serve-session overhead (not part of CI).

use shapdb_circuit::Dnf;
use shapdb_cli::json::Json;
use shapdb_core::engine::{
    BatchExecutor, EngineKind, LineageRequest, Measure, Planner, PlannerConfig, ServiceConfig,
    ShapleyCache, ShapleyService,
};
use shapdb_kc::Budget;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn workload_lineages() -> (Vec<Dnf>, usize) {
    shapdb_bench::corpus::replay_lineages()
}

fn main() {
    let (lineages, n_endo) = workload_lineages();
    let session = shapdb_bench::corpus::jsonl_session(&lineages, n_endo);

    // 1. JSON parse only.
    let t = Instant::now();
    let mut parsed = 0usize;
    for line in session.lines() {
        let v = Json::parse(line).unwrap();
        parsed += v.get("lineage").and_then(Json::as_arr).unwrap().len();
    }
    println!("parse-only: {:?} ({parsed} conjuncts)", t.elapsed());

    // 2. Warm batch (reference).
    let policy = PlannerConfig {
        timeout: Some(Duration::from_millis(2500)),
        fallback: Some(EngineKind::Proxy),
        ..Default::default()
    };
    let planner = Planner::new(policy).with_cache(Arc::new(ShapleyCache::new()));
    let executor = BatchExecutor::new(planner.clone()).with_threads(1);
    executor.run(&lineages, n_endo, &Budget::unlimited(), &[Measure::Shapley]);
    let t = Instant::now();
    let report = executor.run(&lineages, n_endo, &Budget::unlimited(), &[Measure::Shapley]);
    println!("warm batch: {:?}", t.elapsed());

    // 3. Warm service submit+wait (no JSON at all).
    let service = ShapleyService::new(
        planner.clone(),
        ServiceConfig {
            workers: 1,
            queue_capacity: 1024,
            ..Default::default()
        },
    );
    let subs = service
        .submit_all(lineages.iter().cloned(), n_endo, &Budget::unlimited())
        .unwrap();
    for s in &subs {
        s.wait().unwrap();
    }
    let t = Instant::now();
    let subs = service
        .submit_all(lineages.iter().cloned(), n_endo, &Budget::unlimited())
        .unwrap();
    for s in &subs {
        s.wait().unwrap();
    }
    println!("warm service submit+wait: {:?}", t.elapsed());

    // 3b. submit via single requests, non-blocking waits at end.
    let t = Instant::now();
    let subs: Vec<_> = lineages
        .iter()
        .map(|l| {
            service
                .submit_blocking(LineageRequest::new(l.clone(), n_endo))
                .unwrap()
        })
        .collect();
    for s in &subs {
        s.wait().unwrap();
    }
    println!("warm service (individual submits): {:?}", t.elapsed());

    // 3c. Pure machinery: trivial single-fact lineages (free solves).
    let trivial: Vec<Dnf> = (0..521u32)
        .map(|i| {
            let mut d = Dnf::new();
            d.add_conjunct(vec![shapdb_circuit::VarId(i % 7)]);
            d
        })
        .collect();
    let warm_up = executor.run(&trivial, n_endo, &Budget::unlimited(), &[Measure::Shapley]);
    assert!(warm_up.items.iter().all(|i| i.result.is_ok()));
    let t = Instant::now();
    executor.run(&trivial, n_endo, &Budget::unlimited(), &[Measure::Shapley]);
    println!("trivial batch: {:?}", t.elapsed());
    let t = Instant::now();
    let subs: Vec<_> = trivial
        .iter()
        .map(|l| {
            service
                .submit_blocking(LineageRequest::new(l.clone(), n_endo))
                .unwrap()
        })
        .collect();
    for s in &subs {
        s.wait().unwrap();
    }
    println!("trivial service: {:?}", t.elapsed());

    // 4. Render of all warm results.
    let t = Instant::now();
    let mut bytes = 0usize;
    for item in &report.items {
        let r = item.result.as_ref().unwrap();
        let mut values = String::from("[");
        match &r.values {
            shapdb_core::engine::EngineValues::Exact(pairs) => {
                for (i, (fact, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        values.push(',');
                    }
                    values.push_str(&format!("[{},\"{}\",{:.6}]", fact.0, v, v.to_f64()));
                }
            }
            shapdb_core::engine::EngineValues::Approx(pairs) => {
                for (i, (fact, x)) in pairs.iter().enumerate() {
                    if i > 0 {
                        values.push(',');
                    }
                    values.push_str(&format!("[{},null,{:.6}]", fact.0, x));
                }
            }
        }
        values.push(']');
        bytes += values.len();
    }
    println!("render-only: {:?} ({bytes} bytes)", t.elapsed());
}
