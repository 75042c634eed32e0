//! Pool-agnostic pipeline stages shared by every execution surface.
//!
//! The dedup-then-fan-out pipeline — fingerprint, group by canonical
//! structure, solve each distinct structure once for every requested
//! measure (planning it inside the solve, through the cross-query cache
//! when one is attached), translate the canonical values back onto each
//! task's facts — is the same whether it runs as a one-shot scoped-thread
//! batch or measure sweep ([`super::BatchExecutor`]), as a single
//! sequential solve ([`super::Planner::solve`]), or inside a resident
//! [`super::ShapleyService`] worker. This module holds that pipeline as
//! free functions over a [`super::Planner`], so the surfaces differ only in
//! *where the threads come from*, never in what they compute: batch ≡
//! sequential ≡ service, bit-identical rational for rational on the exact
//! paths. Every group solve ends in [`super::Planner::solve_structure`],
//! under the caller's one [`Budget`]: its deadline bounds compilation and
//! Algorithm 1 together.
//!
//! Nothing here owns a thread pool. [`parallel_map`] is the one scoped
//! fan-out helper the one-shot surfaces use; the service brings its own
//! long-lived workers and calls [`solve_one`] per queued request. Nothing
//! here keeps accounts either: every stage bumps the registry counters,
//! which land in the [`shapdb_metrics::Profile`] of the run or service
//! the calling thread works for.

use super::{EngineError, EngineResult, LineageTask, Measure, Plan, Planner};
use shapdb_circuit::{fingerprint, Dnf, Fingerprint, FingerprintKey};
use shapdb_kc::Budget;
use shapdb_metrics::counters::{
    ENGINE_RUNS, MEASURE_BANZHAF, MEASURE_RESPONSIBILITY, MEASURE_SHAPLEY, MEASURE_SHAP_SCORE,
};
use shapdb_metrics::Profile;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bumps the process-wide per-measure request counter — the ops-style view
/// of which attributions clients actually ask for, once per lineage and
/// measure on every surface (planner solve, batch or sweep, service
/// request, top-k); a batch adds its lineage count in one atomic add.
pub(crate) fn record_measure_requests(measure: Measure, n: u64) {
    match measure {
        Measure::Shapley => MEASURE_SHAPLEY.add(n),
        Measure::Banzhaf => MEASURE_BANZHAF.add(n),
        Measure::Responsibility => MEASURE_RESPONSIBILITY.add(n),
        Measure::ShapScore => MEASURE_SHAP_SCORE.add(n),
    };
}

/// The workers a `threads` setting resolves to: 0 means every available
/// core.
pub(crate) fn worker_count(threads: usize) -> usize {
    if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// Worker stack size: the DPLL compiler recurses per CNF variable.
pub(crate) const WORKER_STACK: usize = 64 * 1024 * 1024;

/// Runs `f(0)..f(n-1)` across up to `threads` scoped workers (large
/// stacks), returning results in index order. With one thread (or one
/// item) it degenerates to an in-order sequential loop on the caller
/// thread, so single-threaded runs stay deterministic in execution order.
/// Workers enter the caller's active [`Profile`], so their work counts
/// toward the caller's run.
pub(crate) fn parallel_map<T: Send>(
    threads: usize,
    n: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let threads = threads.min(n).max(1);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let profile = Profile::current();
    let profile_ref = &profile;
    let cursor = AtomicUsize::new(0);
    let cursor_ref = &cursor;
    let f_ref = &f;
    let mut collected: Vec<Vec<(usize, T)>> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                std::thread::Builder::new()
                    .stack_size(WORKER_STACK)
                    .spawn_scoped(s, move || {
                        let _run = profile_ref.as_ref().map(|p| p.enter());
                        let mut local = Vec::new();
                        loop {
                            let i = cursor_ref.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                return local;
                            }
                            local.push((i, f_ref(i)));
                        }
                    })
                    .expect("spawn batch worker")
            })
            .collect();
        for h in handles {
            collected.push(h.join().expect("batch worker panicked"));
        }
    });
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (i, v) in collected.into_iter().flatten() {
        out[i] = Some(v);
    }
    out.into_iter().map(|v| v.expect("mapped index")).collect()
}

/// Stage 1 — canonicalize every lineage (the one minimize + factor pass
/// per task; the fingerprint carries both by-products so nothing
/// downstream repeats them). Embarrassingly parallel, so it fans out over
/// the same scoped workers the solves use.
pub(crate) fn fingerprint_lineages(threads: usize, lineages: &[Dnf]) -> Vec<Fingerprint> {
    parallel_map(threads, lineages.len(), |i| fingerprint(&lineages[i]))
}

/// Stage 2's output: tasks grouped by canonical structure.
pub(crate) struct Grouping {
    /// `group_of[i]` = the group task `i` belongs to.
    pub group_of: Vec<usize>,
    /// `first_of_group[g]` = the first task of group `g` (its
    /// representative: the group solves under this task's fingerprint).
    pub first_of_group: Vec<usize>,
    /// All member task indices of each group, in submission order.
    pub members_of: Vec<Vec<usize>>,
}

impl Grouping {
    /// Number of distinct structures.
    pub fn distinct(&self) -> usize {
        self.first_of_group.len()
    }
}

/// Stage 2 — intern tasks by canonical fingerprint key.
pub(crate) fn group_by_structure(fingerprints: &[Fingerprint]) -> Grouping {
    let mut group_of: Vec<usize> = Vec::with_capacity(fingerprints.len());
    let mut first_of_group: Vec<usize> = Vec::new();
    let mut members_of: Vec<Vec<usize>> = Vec::new();
    let mut seen: HashMap<&FingerprintKey, usize> = HashMap::new();
    for (i, fp) in fingerprints.iter().enumerate() {
        let next = first_of_group.len();
        let g = *seen.entry(fp.key()).or_insert(next);
        if g == next {
            first_of_group.push(i);
            members_of.push(Vec::new());
        }
        group_of.push(g);
        members_of[g].push(i);
    }
    Grouping {
        group_of,
        first_of_group,
        members_of,
    }
}

/// Stage 3 — plan and solve one distinct structure for every measure in
/// `measures`, in canonical space and in `measures` order. `salt` is the
/// representative task's seed salt and `group_size` the group's member
/// count, so a sampling solve spends the group's total budget; the
/// results translate back through each member's fingerprint.
pub(crate) fn solve_group(
    planner: &Planner,
    fp: &Fingerprint,
    n_endo: usize,
    budget: &Budget,
    salt: u64,
    group_size: usize,
    measures: &[Measure],
) -> Vec<Result<EngineResult, EngineError>> {
    let plans: Vec<Plan> = measures.iter().map(|&m| planner.plan_fp(fp, m)).collect();
    planner.solve_structure(fp, &plans, n_endo, budget, salt, group_size)
}

/// The single-task path — the same stages as a batch of one, minus the
/// grouping: fingerprint, solve the canonical structure as a group of one
/// ([`solve_group`]), translate back. Used by sequential
/// [`Planner::solve`] calls and by every resident-service worker, so a
/// lineage solved through *any* surface lands in (and is served from) the
/// same cache with the same key.
///
/// Without a cache the fingerprint buys nothing for a single task, so the
/// lineage solves directly; forced inexact engines also skip
/// canonicalization (their estimates stay on the caller's own variables).
/// Such a solve counts as a cache bypass when a cache is attached.
pub(crate) fn solve_one(
    planner: &Planner,
    task: &LineageTask,
) -> Result<EngineResult, EngineError> {
    record_measure_requests(task.measure, 1);
    if planner.cache().is_none() || planner.cfg.force.is_some_and(|k| !k.is_exact()) {
        if let Some(cache) = planner.cache() {
            cache.record_bypass();
        }
        ENGINE_RUNS.incr();
        return planner.solve_direct(task);
    }
    let fp = fingerprint(task.lineage);
    let result = solve_group(
        planner,
        &fp,
        task.n_endo,
        &task.budget,
        task.seed_salt,
        task.sample_scale,
        &[task.measure],
    )
    .pop()
    .expect("one measure, one result");
    result.map(|r| super::translate_result(r, &fp))
}
