//! Per-table / per-figure experiment drivers (paper §6).
//!
//! Every public function here regenerates one table or figure of the paper
//! as a plain-text report: the same rows/series, measured on the synthetic
//! workloads. Absolute numbers differ from the paper (different hardware,
//! data scale, and substrate); the *shape* — who wins, where the tails blow
//! up, where crossovers sit — is the reproduction target (see
//! EXPERIMENTS.md).

use crate::runner::{OutputRecord, QueryRun, RunStatus};
use shapdb_circuit::Circuit;
use shapdb_core::kernelshap::{kernel_shap, KernelShapConfig};
use shapdb_core::montecarlo::{monte_carlo_shapley, MonteCarloConfig};
use shapdb_core::proxy::proxy_from_lineage;
use shapdb_metrics::{l1_error, l2_error, ndcg, precision_at_k, ranking_of, Summary};
use shapdb_num::Bitset;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

// ---------------------------------------------------------------- Table 1

/// Table 1: per-query statistics of the exact computation.
pub fn table1(datasets: &[(&str, &[QueryRun])]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "{:<6} {:<5} {:>7} {:>8} {:>9} {:>8} {:>8} | KC[s]: {:>8} {:>8} {:>8} {:>8} {:>8} | Alg1[s]: {:>8} {:>8} {:>8} {:>8} {:>8}",
        "data", "query", "#joins", "#filters", "exec[s]", "#out", "succ%",
        "mean", "p25", "p50", "p75", "p99", "mean", "p25", "p50", "p75", "p99"
    )
    .unwrap();
    for (name, runs) in datasets {
        for r in *runs {
            let ok: Vec<&OutputRecord> = r
                .outputs
                .iter()
                .filter(|o| o.status == RunStatus::Success)
                .collect();
            let kc = Summary::of(&ok.iter().map(|o| secs(o.kc_time)).collect::<Vec<_>>());
            let a1 = Summary::of(&ok.iter().map(|o| secs(o.alg1_time)).collect::<Vec<_>>());
            writeln!(
                out,
                "{:<6} {:<5} {:>7} {:>8} {:>9.3} {:>8} {:>7.1}% | {:>15.4} {:>8.4} {:>8.4} {:>8.4} {:>8.4} | {:>17.4} {:>8.4} {:>8.4} {:>8.4} {:>8.4}",
                name,
                r.name,
                r.num_joined,
                r.num_filters,
                secs(r.exec_time),
                r.outputs.len(),
                100.0 * r.success_rate(),
                kc.mean, kc.p25, kc.p50, kc.p75, kc.p99,
                a1.mean, a1.p25, a1.p50, a1.p75, a1.p99,
            )
            .unwrap();
        }
    }
    out
}

// --------------------------------------------- Inexact method evaluation

/// One inexact method's quality/time on one output.
#[derive(Clone, Copy, Debug, Default)]
pub struct MethodEval {
    pub time: f64,
    pub l1: f64,
    pub l2: f64,
    pub ndcg: f64,
    pub p5: f64,
    pub p10: f64,
}

fn eval_estimates(estimates: &[f64], truth: &[f64], time: f64) -> MethodEval {
    let rank = ranking_of(estimates);
    MethodEval {
        time,
        l1: l1_error(estimates, truth),
        l2: l2_error(estimates, truth),
        ndcg: ndcg(&rank, truth),
        p5: precision_at_k(estimates, truth, 5),
        p10: precision_at_k(estimates, truth, 10),
    }
}

/// Runs the three inexact methods on one ground-truth record with a budget
/// of `factor · n` lineage evaluations for the samplers.
pub fn run_inexact(record: &OutputRecord, factor: usize, seed: u64) -> [MethodEval; 3] {
    let truth = record.exact_values.as_ref().expect("ground-truth record");
    let n = record.num_facts;
    let lineage = &record.dense_lineage;
    let f = |s: &Bitset| lineage.eval_set(s);

    let t0 = Instant::now();
    let mc = monte_carlo_shapley(
        &f,
        n,
        &MonteCarloConfig {
            permutations: factor,
            seed,
        },
    );
    let mc_eval = eval_estimates(&mc, truth, secs(t0.elapsed()));

    let t1 = Instant::now();
    let ks = kernel_shap(
        &f,
        n,
        &KernelShapConfig {
            samples: factor * n,
            seed,
            ..Default::default()
        },
    );
    let ks_eval = eval_estimates(&ks, truth, secs(t1.elapsed()));

    let t2 = Instant::now();
    let mut circuit = Circuit::new();
    let root = lineage.to_circuit(&mut circuit);
    let scored = proxy_from_lineage(&circuit, root);
    let mut proxy = vec![0.0f64; n];
    for (v, s) in scored {
        proxy[v.0 as usize] = s;
    }
    let proxy_eval = eval_estimates(&proxy, truth, secs(t2.elapsed()));

    [mc_eval, ks_eval, proxy_eval]
}

fn ground_truth_records(runs: &[QueryRun]) -> Vec<&OutputRecord> {
    let mut recs: Vec<&OutputRecord> = runs
        .iter()
        .flat_map(|r| r.outputs.iter())
        .filter(|o| o.status == RunStatus::Success && o.num_facts >= 1)
        .collect();
    // Widest first, so truncating to a record budget keeps the lineage-width
    // spectrum (the first N outputs of a run are dominated by trivial
    // single-fact lineages otherwise).
    recs.sort_by_key(|o| std::cmp::Reverse(o.num_facts));
    recs
}

/// Evenly-spaced sample of `max` records across the width-sorted list.
fn stratified<'a>(records: &[&'a OutputRecord], max: usize) -> Vec<&'a OutputRecord> {
    if records.len() <= max {
        return records.to_vec();
    }
    let step = records.len() as f64 / max as f64;
    (0..max)
        .map(|i| records[(i as f64 * step) as usize])
        .collect()
}

/// Table 2: median (mean) performance of Monte Carlo, Kernel SHAP (both at
/// `50·n` samples) and CNF Proxy against the exact ground truth.
pub fn table2(runs: &[QueryRun], factor: usize, max_records: usize) -> String {
    let all = ground_truth_records(runs);
    let records = stratified(&all, max_records);
    let mut per_method: [Vec<MethodEval>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for (i, rec) in records.iter().enumerate() {
        let evals = run_inexact(rec, factor, 1000 + i as u64);
        for (m, e) in evals.iter().enumerate() {
            per_method[m].push(*e);
        }
    }
    let mut out = String::new();
    writeln!(
        out,
        "Table 2 — median (mean), {} ground-truth outputs, samplers at {}·n budget",
        per_method[0].len(),
        factor
    )
    .unwrap();
    writeln!(
        out,
        "{:<16} {:>22} {:>22} {:>22} {:>22} {:>22} {:>22}",
        "method", "exec time[s]", "L1", "L2", "nDCG", "Precision@5", "Precision@10"
    )
    .unwrap();
    let names = ["Monte Carlo", "Kernel SHAP", "CNF Proxy"];
    for (m, name) in names.iter().enumerate() {
        let col = |f: fn(&MethodEval) -> f64| -> (f64, f64) {
            let vals: Vec<f64> = per_method[m].iter().map(f).collect();
            let s = Summary::of(&vals);
            (s.p50, s.mean)
        };
        let (t_md, t_mn) = col(|e| e.time);
        let (l1_md, l1_mn) = col(|e| e.l1);
        let (l2_md, l2_mn) = col(|e| e.l2);
        let (nd_md, nd_mn) = col(|e| e.ndcg);
        let (p5_md, p5_mn) = col(|e| e.p5);
        let (p10_md, p10_mn) = col(|e| e.p10);
        writeln!(
            out,
            "{:<16} {:>11.2e} ({:.2e}) {:>13.4} ({:.4}) {:>13.5} ({:.5}) {:>13.4} ({:.4}) {:>13.3} ({:.3}) {:>13.3} ({:.3})",
            name, t_md, t_mn, l1_md, l1_mn, l2_md, l2_mn, nd_md, nd_mn, p5_md, p5_mn,
            p10_md, p10_mn
        )
        .unwrap();
    }
    out
}

// -------------------------------------------------------------- Figure 4

/// Figure 4: KC / Alg. 1 time as a function of lineage complexity
/// (#facts, #CNF clauses, d-DNNF size), bucketed.
pub fn fig4(runs: &[QueryRun]) -> String {
    let records = ground_truth_records(runs);
    let mut out = String::new();
    type Axis = (&'static str, fn(&OutputRecord) -> usize);
    let axes: [Axis; 3] = [
        ("#facts", |o| o.num_facts),
        ("#CNF clauses", |o| o.cnf_clauses),
        ("d-DNNF size", |o| o.ddnnf_size),
    ];
    for (axis, key) in axes {
        writeln!(out, "Figure 4 — time vs {axis}").unwrap();
        writeln!(
            out,
            "{:>16} {:>6} {:>14} {:>14} {:>14} {:>14}",
            "bucket", "n", "KC p50[s]", "KC p99[s]", "Alg1 p50[s]", "Alg1 p99[s]"
        )
        .unwrap();
        let buckets: [(usize, usize); 6] = [
            (0, 10),
            (11, 100),
            (101, 200),
            (201, 400),
            (401, 2000),
            (2001, usize::MAX),
        ];
        for (lo, hi) in buckets {
            let in_bucket: Vec<&&OutputRecord> = records
                .iter()
                .filter(|o| key(o) >= lo && key(o) <= hi)
                .collect();
            if in_bucket.is_empty() {
                continue;
            }
            let kc = Summary::of(
                &in_bucket
                    .iter()
                    .map(|o| secs(o.kc_time))
                    .collect::<Vec<_>>(),
            );
            let a1 = Summary::of(
                &in_bucket
                    .iter()
                    .map(|o| secs(o.alg1_time))
                    .collect::<Vec<_>>(),
            );
            let label = if hi == usize::MAX {
                format!("{lo}+")
            } else {
                format!("{lo}-{hi}")
            };
            writeln!(
                out,
                "{:>16} {:>6} {:>14.5} {:>14.5} {:>14.5} {:>14.5}",
                label,
                in_bucket.len(),
                kc.p50,
                kc.p99,
                a1.p50,
                a1.p99
            )
            .unwrap();
        }
        writeln!(out).unwrap();
    }
    out
}

// -------------------------------------------------------------- Figure 5

/// Figure 5: Algorithm 1 running time for representative TPC-H query
/// outputs as a function of the `lineitem` table size (scale sweep).
///
/// For each scale we regenerate the database, re-run a representative query
/// subset, and report the per-output Alg. 1 time of the first outputs —
/// easy queries stay in milliseconds while wide-projection queries grow
/// steeply and eventually fail, which is the panel (a)/(b) contrast of the
/// paper's figure. A query with no answer at some scale (Q11 at the small
/// ones) prints an explicit `no answer` row instead of vanishing.
pub fn fig5(scales: &[f64], timeout: Duration, outputs_per_query: usize) -> String {
    use shapdb_workloads::tpch::{tpch_database, tpch_queries, TpchConfig};
    let queries = tpch_queries();
    let subset: Vec<&shapdb_workloads::WorkloadQuery> = queries
        .iter()
        .filter(|q| ["Q3", "Q5", "Q11", "Q16", "Q18"].contains(&q.name.as_str()))
        .collect();
    let mut out = String::new();
    writeln!(out, "Figure 5 — Alg. 1 time vs lineitem size").unwrap();
    writeln!(
        out,
        "{:>8} {:>10} {:<6} {:<14} {:>8} {:>12} {:>10}",
        "scale", "lineitems", "query", "tuple", "#facts", "alg1[s]", "status"
    )
    .unwrap();
    for &scale in scales {
        let db = tpch_database(&TpchConfig {
            scale,
            ..Default::default()
        });
        let lineitems = db.relation("lineitem").map_or(0, |r| r.len());
        for q in &subset {
            let run = crate::runner::run_query(&db, q, Some(timeout), outputs_per_query);
            if run.outputs.is_empty() {
                writeln!(
                    out,
                    "{:>8.2} {:>10} {:<6} {:<14} {:>8} {:>12} {:>10}",
                    scale, lineitems, q.name, "-", "-", "-", "no answer"
                )
                .unwrap();
            }
            for o in &run.outputs {
                writeln!(
                    out,
                    "{:>8.2} {:>10} {:<6} {:<14} {:>8} {:>12.5} {:>10}",
                    scale,
                    lineitems,
                    q.name,
                    o.tuple.chars().take(14).collect::<String>(),
                    o.num_facts,
                    secs(o.alg1_time),
                    match o.status {
                        RunStatus::Success => "ok",
                        RunStatus::KcFailed => "KC-fail",
                        RunStatus::Alg1Failed => "Alg1-fail",
                    }
                )
                .unwrap();
            }
        }
    }
    out
}

// -------------------------------------------------------------- Figure 6

/// Figure 6: inexact-method time/quality as a function of the sampling
/// budget `m ∈ {10n, …, 50n}` (CNF Proxy is budget-independent).
pub fn fig6(runs: &[QueryRun], factors: &[usize], max_records: usize) -> String {
    let all = ground_truth_records(runs);
    let records = stratified(&all, max_records);
    let mut out = String::new();
    writeln!(
        out,
        "Figure 6 — vs sampling budget ({} ground-truth outputs, width-stratified)",
        records.len()
    )
    .unwrap();
    writeln!(
        out,
        "{:>8} {:<12} {:>12} {:>10} {:>10} {:>14}",
        "budget", "method", "time p50[s]", "nDCG p50", "nDCG mean", "P@10 p50"
    )
    .unwrap();
    for &factor in factors {
        let mut per_method: [Vec<MethodEval>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for (i, rec) in records.iter().enumerate() {
            let evals = run_inexact(rec, factor, 2000 + i as u64);
            for (m, e) in evals.iter().enumerate() {
                per_method[m].push(*e);
            }
        }
        for (m, name) in ["Monte Carlo", "Kernel SHAP", "CNF Proxy"]
            .iter()
            .enumerate()
        {
            let time = Summary::of(&per_method[m].iter().map(|e| e.time).collect::<Vec<_>>());
            let nd = Summary::of(&per_method[m].iter().map(|e| e.ndcg).collect::<Vec<_>>());
            let p10 = Summary::of(&per_method[m].iter().map(|e| e.p10).collect::<Vec<_>>());
            writeln!(
                out,
                "{:>7}n {:<12} {:>12.2e} {:>10.4} {:>10.4} {:>14.3}",
                factor, name, time.p50, nd.p50, nd.mean, p10.p50
            )
            .unwrap();
        }
    }
    out
}

// -------------------------------------------------------------- Figure 7

/// Figure 7: method performance vs the number of distinct lineage facts
/// (buckets 1–10, 11–100, 101–200, 201–400), samplers at `20·n`.
pub fn fig7(runs: &[QueryRun], factor: usize, max_records: usize) -> String {
    let records = ground_truth_records(runs);
    let mut out = String::new();
    writeln!(
        out,
        "Figure 7 — vs #distinct facts (samplers at {factor}·n)"
    )
    .unwrap();
    writeln!(
        out,
        "{:>10} {:<12} {:>6} {:>12} {:>12} {:>10} {:>10} {:>10} {:>10}",
        "bucket",
        "method",
        "n",
        "time p50[s]",
        "time max[s]",
        "nDCG p50",
        "nDCG min",
        "P@10 p50",
        "P@10 min"
    )
    .unwrap();
    let buckets: [(usize, usize); 4] = [(1, 10), (11, 100), (101, 200), (201, 400)];
    for (lo, hi) in buckets {
        let in_bucket: Vec<&&OutputRecord> = records
            .iter()
            .filter(|o| o.num_facts >= lo && o.num_facts <= hi)
            .collect();
        if in_bucket.is_empty() {
            continue;
        }
        let mut per_method: [Vec<MethodEval>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for (i, rec) in in_bucket.iter().take(max_records).enumerate() {
            let evals = run_inexact(rec, factor, 3000 + i as u64);
            for (m, e) in evals.iter().enumerate() {
                per_method[m].push(*e);
            }
        }
        for (m, name) in ["Monte Carlo", "Kernel SHAP", "CNF Proxy"]
            .iter()
            .enumerate()
        {
            let time = Summary::of(&per_method[m].iter().map(|e| e.time).collect::<Vec<_>>());
            let nd: Vec<f64> = per_method[m].iter().map(|e| e.ndcg).collect();
            let p10: Vec<f64> = per_method[m].iter().map(|e| e.p10).collect();
            let nd_s = Summary::of(&nd);
            let p10_s = Summary::of(&p10);
            let min = |v: &[f64]| v.iter().cloned().fold(f64::INFINITY, f64::min);
            writeln!(
                out,
                "{:>10} {:<12} {:>6} {:>12.2e} {:>12.2e} {:>10.4} {:>10.4} {:>10.3} {:>10.3}",
                format!("{lo}-{hi}"),
                name,
                per_method[m].len(),
                time.p50,
                time.max,
                nd_s.p50,
                min(&nd),
                p10_s.p50,
                min(&p10)
            )
            .unwrap();
        }
    }
    out
}

// -------------------------------------------------------------- Figure 8

/// Figure 8: hybrid success rate and mean execution time vs timeout `t`.
///
/// Simulated from the records' measured times (run with a generous budget):
/// an output "succeeds at `t`" if its measured KC+Alg1 total fits in `t`;
/// otherwise the hybrid pays `t` plus the measured proxy time.
pub fn fig8(datasets: &[(&str, &[QueryRun])], timeouts: &[Duration]) -> String {
    let mut out = String::new();
    writeln!(out, "Figure 8 — hybrid engine vs timeout").unwrap();
    writeln!(
        out,
        "{:<6} {:>10} {:>10} {:>16}",
        "data", "timeout[s]", "success%", "mean hybrid[s]"
    )
    .unwrap();
    for (name, runs) in datasets {
        let all: Vec<&OutputRecord> = runs.iter().flat_map(|r| r.outputs.iter()).collect();
        for &t in timeouts {
            let mut succ = 0usize;
            let mut total_time = 0.0f64;
            for o in &all {
                let exact_total = o.kc_time + o.alg1_time;
                if o.status == RunStatus::Success && exact_total <= t {
                    succ += 1;
                    total_time += secs(exact_total);
                } else {
                    // Hybrid falls back to CNF Proxy: measure it now.
                    let t0 = Instant::now();
                    let mut circuit = Circuit::new();
                    let root = o.dense_lineage.to_circuit(&mut circuit);
                    let _ = proxy_from_lineage(&circuit, root);
                    total_time += secs(t) + secs(t0.elapsed());
                }
            }
            writeln!(
                out,
                "{:<6} {:>10.2} {:>9.2}% {:>16.4}",
                name,
                secs(t),
                100.0 * succ as f64 / all.len().max(1) as f64,
                total_time / all.len().max(1) as f64
            )
            .unwrap();
        }
    }
    out
}

// ------------------------------------------ Extension: read-once fast path

/// Extension experiment (not in the paper): how many workload outputs have
/// *read-once* lineages — and hence never need knowledge compilation at all
/// (the tractable class of Livshits et al., generalized to every lineage
/// that factorizes).
///
/// For each read-once output the report compares the measured fast-path
/// time (factorize + evaluate) against the recorded KC+Alg1 time of the
/// pipeline that the paper would have run.
pub fn fastpath(datasets: &[(&str, &[QueryRun])]) -> String {
    use shapdb_circuit::factor;
    use shapdb_core::readonce::shapley_read_once;

    let mut out = String::new();
    writeln!(out, "Extension — read-once fast path coverage").unwrap();
    writeln!(
        out,
        "{:<6} {:<5} {:>6} {:>9} {:>7} | median[s]: {:>10} {:>10} {:>9}",
        "data", "query", "#out", "readonce", "cover%", "fastpath", "kc+alg1", "speedup"
    )
    .unwrap();
    for (name, runs) in datasets {
        for r in *runs {
            let mut ro_count = 0usize;
            let mut fast_times: Vec<f64> = Vec::new();
            let mut kc_times: Vec<f64> = Vec::new();
            for o in &r.outputs {
                let n = o.dense_lineage.vars().len();
                let t0 = Instant::now();
                let Some(tree) = factor(&o.dense_lineage) else {
                    continue;
                };
                let values = shapley_read_once(&tree, n.max(tree.vars().len()), None)
                    .expect("no deadline set");
                let elapsed = secs(t0.elapsed());
                ro_count += 1;
                fast_times.push(elapsed);
                if o.status == RunStatus::Success {
                    kc_times.push(secs(o.kc_time + o.alg1_time));
                }
                drop(values);
            }
            let fast = Summary::of(&fast_times);
            let kc = Summary::of(&kc_times);
            let speedup = if kc_times.is_empty() {
                // Every read-once output failed the KC pipeline: the fast
                // path rescues otherwise-unsolvable outputs.
                "   ∞ (KC failed)".to_string()
            } else if fast.p50 > 0.0 {
                format!("{:>8.1}x", kc.p50 / fast.p50)
            } else {
                "       -".to_string()
            };
            writeln!(
                out,
                "{:<6} {:<5} {:>6} {:>9} {:>6.1}% | {:>21.6} {:>10.6} {}",
                name,
                r.name,
                r.outputs.len(),
                ro_count,
                100.0 * ro_count as f64 / r.outputs.len().max(1) as f64,
                fast.p50,
                kc.p50,
                speedup,
            )
            .unwrap();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_query;
    use shapdb_workloads::flights_workload;

    fn flights_run() -> Vec<QueryRun> {
        let (db, _, q) = flights_workload();
        vec![run_query(
            &db,
            &q,
            Some(Duration::from_secs(10)),
            usize::MAX,
        )]
    }

    #[test]
    fn table1_renders() {
        let runs = flights_run();
        let t = table1(&[("flights", &runs)]);
        assert!(t.contains("flights"));
        assert!(t.contains("100.0%"));
    }

    #[test]
    fn table2_and_figures_render() {
        let runs = flights_run();
        let t2 = table2(&runs, 50, 100);
        assert!(t2.contains("CNF Proxy"));
        let f4 = fig4(&runs);
        assert!(f4.contains("#facts"));
        let f6 = fig6(&runs, &[10, 50], 100);
        assert!(f6.contains("Monte Carlo"));
        let f7 = fig7(&runs, 20, 100);
        assert!(f7.contains("1-10"));
        let f8 = fig8(
            &[("flights", &runs)],
            &[Duration::from_millis(1), Duration::from_secs(5)],
        );
        assert!(f8.contains("hybrid"));
    }

    #[test]
    fn fastpath_report_covers_flights() {
        let runs = flights_run();
        let report = fastpath(&[("flights", &runs)]);
        // The running example's lineage is read-once: 100% coverage.
        assert!(report.contains("100.0%"), "{report}");
    }

    #[test]
    fn inexact_quality_on_running_example() {
        let runs = flights_run();
        let rec = &runs[0].outputs[0];
        let [mc, ks, proxy] = run_inexact(rec, 50, 7);
        // The samplers rank a1 (value 43/105) well.
        assert!(mc.ndcg > 0.9, "MC nDCG {}", mc.ndcg);
        assert!(ks.ndcg > 0.9, "KS nDCG {}", ks.ndcg);
        // CNF Proxy exhibits the Example 5.4 pathology on this exact lineage:
        // the singleton disjunct a1 (the true top fact) is under-scored, so
        // its nDCG is noticeably below 1 — still well above random.
        assert!(proxy.ndcg > 0.6, "Proxy nDCG {}", proxy.ndcg);
        // Proxy is much faster than Kernel SHAP.
        assert!(proxy.time < ks.time);
    }
}
