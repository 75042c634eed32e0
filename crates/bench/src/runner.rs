//! Workload runner: per-output exact-pipeline records.

use shapdb_circuit::{Circuit, Dnf, VarId};
use shapdb_core::engine::{AnalysisError, EngineValues, KcEngine};
use shapdb_data::Database;
use shapdb_kc::{Budget, CompileError};
use shapdb_query::evaluate;
use shapdb_workloads::WorkloadQuery;
use std::time::{Duration, Instant};

/// Outcome of the exact pipeline on one output tuple.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunStatus {
    /// Both KC and Algorithm 1 finished.
    Success,
    /// Knowledge compilation exceeded the budget (the paper's dominant
    /// failure mode, §6.1).
    KcFailed,
    /// Algorithm 1 exceeded the deadline.
    Alg1Failed,
}

/// Per-output-tuple record.
#[derive(Clone, Debug)]
pub struct OutputRecord {
    /// Rendered output tuple (for report labels).
    pub tuple: String,
    /// Distinct endogenous facts in the lineage.
    pub num_facts: usize,
    /// Tseytin CNF clause count.
    pub cnf_clauses: usize,
    /// Projected d-DNNF size (0 on KC failure).
    pub ddnnf_size: usize,
    /// Knowledge-compilation time (Tseytin + compile + project).
    pub kc_time: Duration,
    /// Algorithm 1 time (zero unless reached).
    pub alg1_time: Duration,
    pub status: RunStatus,
    /// Exact Shapley values in dense-variable order (present on success).
    pub exact_values: Option<Vec<f64>>,
    /// The endogenous lineage re-indexed over dense variables `0..num_facts`.
    pub dense_lineage: Dnf,
}

/// One query's run: evaluation time plus per-output records.
#[derive(Clone, Debug)]
pub struct QueryRun {
    pub name: String,
    pub num_joined: usize,
    pub num_filters: usize,
    /// Query evaluation + provenance-construction time (the paper's
    /// "Execution time" column).
    pub exec_time: Duration,
    pub outputs: Vec<OutputRecord>,
}

impl QueryRun {
    /// Fraction of outputs where the exact pipeline succeeded.
    pub fn success_rate(&self) -> f64 {
        if self.outputs.is_empty() {
            return 1.0;
        }
        self.outputs
            .iter()
            .filter(|o| o.status == RunStatus::Success)
            .count() as f64
            / self.outputs.len() as f64
    }
}

/// Remaps a lineage over global fact ids to dense variables `0..n`,
/// returning the dense DNF and the sorted fact list (dense index → fact).
pub fn dense_lineage(elin: &Dnf) -> (Dnf, Vec<VarId>) {
    elin.densify()
}

/// Runs one output tuple's exact pipeline under a timeout.
pub fn run_output(
    db: &Database,
    tuple_label: String,
    elin: &Dnf,
    timeout: Option<Duration>,
) -> OutputRecord {
    let (dense, vars) = dense_lineage(elin);
    let n_endo = db.num_endogenous();
    let mut circuit = Circuit::new();
    let root = dense.to_circuit(&mut circuit);

    let budget = Budget {
        deadline: timeout.map(|t| Instant::now() + t),
        max_nodes: 4_000_000,
    };

    let kc_probe = Instant::now();
    match KcEngine::analyze_circuit(&circuit, root, n_endo, &budget) {
        Ok(result) => {
            // Re-sort attributions back to dense order for metric alignment.
            let mut values = vec![0.0f64; vars.len()];
            if let EngineValues::Exact(pairs) = &result.values {
                for (fact, shapley) in pairs {
                    values[fact.0 as usize] = shapley.to_f64();
                }
            }
            OutputRecord {
                tuple: tuple_label,
                num_facts: result.num_facts.max(vars.len()),
                cnf_clauses: result.cnf_clauses,
                ddnnf_size: result.ddnnf_size,
                kc_time: result.prep_time,
                alg1_time: result.solve_time,
                status: RunStatus::Success,
                exact_values: Some(values),
                dense_lineage: dense,
            }
        }
        Err(err) => {
            let elapsed = kc_probe.elapsed();
            let (status, kc_time, alg1_time) = match err {
                AnalysisError::Compile(CompileError::Timeout)
                | AnalysisError::Compile(CompileError::NodeLimit) => {
                    (RunStatus::KcFailed, elapsed, Duration::ZERO)
                }
                AnalysisError::Shapley(_) => (RunStatus::Alg1Failed, elapsed, elapsed),
            };
            OutputRecord {
                tuple: tuple_label,
                num_facts: vars.len(),
                cnf_clauses: 0,
                ddnnf_size: 0,
                kc_time,
                alg1_time,
                status,
                exact_values: None,
                dense_lineage: dense,
            }
        }
    }
}

/// Runs a whole query: evaluation with provenance, then the exact pipeline
/// per output tuple, parallelized across worker threads (each with a large
/// stack — the compiler recursion depth is bounded by the CNF variable
/// count).
pub fn run_query(
    db: &Database,
    q: &WorkloadQuery,
    timeout: Option<Duration>,
    max_outputs: usize,
) -> QueryRun {
    let start = Instant::now();
    let result = evaluate(&q.ucq, db);
    let exec_time = start.elapsed();

    let mut work: Vec<(String, Dnf)> = result
        .outputs
        .iter()
        .take(max_outputs)
        .map(|o| {
            let label = o
                .tuple
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(",");
            (label, o.endo_lineage(db))
        })
        .collect();

    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let chunk = work.len().div_ceil(workers.max(1)).max(1);
    let chunks: Vec<Vec<(String, Dnf)>> = {
        let mut out = Vec::new();
        while !work.is_empty() {
            let rest = work.split_off(work.len().min(chunk));
            out.push(std::mem::replace(&mut work, rest));
        }
        out
    };

    let mut outputs: Vec<OutputRecord> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                std::thread::Builder::new()
                    .stack_size(64 * 1024 * 1024)
                    .spawn_scoped(s, move || {
                        chunk
                            .into_iter()
                            .map(|(label, elin)| run_output(db, label, &elin, timeout))
                            .collect::<Vec<_>>()
                    })
                    .expect("spawn worker")
            })
            .collect();
        for h in handles {
            outputs.extend(h.join().expect("worker panicked"));
        }
    });

    QueryRun {
        name: q.name.clone(),
        num_joined: q.ucq.num_joined_tables(),
        num_filters: q.ucq.num_filters(),
        exec_time,
        outputs,
    }
}

/// Runs a list of queries against a database.
pub fn run_workload(
    db: &Database,
    queries: &[WorkloadQuery],
    timeout: Option<Duration>,
    max_outputs: usize,
) -> Vec<QueryRun> {
    queries
        .iter()
        .map(|q| run_query(db, q, timeout, max_outputs))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use shapdb_workloads::flights_workload;

    #[test]
    fn flights_run_succeeds() {
        let (db, _, q) = flights_workload();
        let run = run_query(&db, &q, Some(Duration::from_secs(10)), usize::MAX);
        assert_eq!(run.outputs.len(), 1);
        let o = &run.outputs[0];
        assert_eq!(o.status, RunStatus::Success);
        assert_eq!(o.num_facts, 7);
        let vals = o.exact_values.as_ref().unwrap();
        assert!((vals[0] - 43.0 / 105.0).abs() < 1e-12);
        assert_eq!(run.success_rate(), 1.0);
    }

    #[test]
    fn dense_lineage_remap() {
        let mut d = Dnf::new();
        d.add_conjunct(vec![VarId(10), VarId(40)]);
        d.add_conjunct(vec![VarId(99)]);
        let (dense, vars) = dense_lineage(&d);
        assert_eq!(vars, vec![VarId(10), VarId(40), VarId(99)]);
        assert_eq!(dense.conjuncts().len(), 2);
        assert!(dense.conjuncts().contains(&vec![VarId(0), VarId(1)]));
        assert!(dense.conjuncts().contains(&vec![VarId(2)]));
    }

    #[test]
    fn zero_timeout_reports_kc_failure() {
        let (db, _, q) = flights_workload();
        let run = run_query(&db, &q, Some(Duration::ZERO), usize::MAX);
        // Either KC or Alg1 must have timed out.
        assert_ne!(run.outputs[0].status, RunStatus::Success);
        assert_eq!(run.success_rate(), 0.0);
    }
}
