//! Factorization-reuse accounting: the batch hot path runs **exactly one**
//! absorption-minimize pass and **one** read-once factoring attempt per
//! task — both inside `fingerprint` — and nothing downstream repeats them
//! (the fingerprint carries the canonical DNF and the tree; the planner and
//! the engines consume those instead of re-deriving them).
//!
//! This file holds a single `#[test]` on purpose: it asserts on the
//! process-wide `circuit.minimize_passes` / `circuit.factor_passes`
//! counters, and being the only test in its own integration binary makes
//! the deltas exact (no concurrent test can touch the counters). The
//! deltas themselves are read through [`CounterSnapshot::delta_since`] —
//! the scoped reader the service stats report uses — instead of raw
//! before/after subtraction.

use shapdb::circuit::{Dnf, VarId};
use shapdb::core::engine::{BatchExecutor, Measure, Planner, PlannerConfig, ShapleyCache};
use shapdb::core::exact::ExactConfig;
use shapdb::kc::Budget;
use shapdb::metrics::CounterSnapshot;
use std::sync::Arc;

fn dnf(conjs: &[&[u32]]) -> Dnf {
    let mut d = Dnf::new();
    for c in conjs {
        d.add_conjunct(c.iter().map(|&v| VarId(v)).collect());
    }
    d
}

#[test]
fn batch_path_minimizes_and_factors_once_per_task() {
    // Five tasks, four distinct structures, mixing every route: two
    // isomorphic read-once matchings, the non-read-once majority (the KC
    // route), the running example (read-once), and a singleton. One of the
    // matchings is unminimized (an absorbed conjunct) to prove the single
    // minimize pass happens where claimed.
    let lineages = vec![
        dnf(&[&[0, 10], &[1, 11]]),
        dnf(&[&[2, 20], &[3, 21], &[2, 20, 3]]),
        dnf(&[&[4, 5], &[5, 6], &[4, 6]]),
        dnf(&[&[7], &[8, 12], &[8, 13], &[9, 12], &[9, 13], &[14, 15]]),
        dnf(&[&[16]]),
    ];
    let cache = Arc::new(ShapleyCache::new());
    let executor =
        BatchExecutor::new(Planner::new(PlannerConfig::default()).with_cache(cache.clone()))
            .with_threads(1);

    let before = CounterSnapshot::take();
    let cold = executor.run(&lineages, 24, &Budget::unlimited(), &ExactConfig::default());
    assert!(cold.items.iter().all(|i| i.result.is_ok()));
    assert_eq!(cold.dedup.tasks, 5);
    assert_eq!(cold.dedup.distinct, 4);
    assert_eq!(cold.engine_runs, 4);
    let after_cold = CounterSnapshot::take();
    assert_eq!(
        after_cold.delta_of(&before, "circuit.minimize_passes"),
        5,
        "one minimize pass per task (inside fingerprint), zero downstream"
    );
    assert_eq!(
        after_cold.delta_of(&before, "circuit.factor_passes"),
        5,
        "one factoring attempt per task (inside fingerprint), zero downstream"
    );

    // Warm replay: fingerprinting runs again (it *is* the key computation),
    // but every structure comes from the cache — still no extra passes and
    // no engine runs.
    let warm = executor.run(&lineages, 24, &Budget::unlimited(), &ExactConfig::default());
    assert_eq!(warm.engine_runs, 0);
    assert_eq!(warm.cache.hits, 4);
    let after_warm = CounterSnapshot::take();
    assert_eq!(
        after_warm.delta_of(&after_cold, "circuit.minimize_passes"),
        5
    );
    assert_eq!(after_warm.delta_of(&after_cold, "circuit.factor_passes"), 5);
    // The full delta row set is available too (what the service stats
    // report surfaces); spot-check the same two cells through it.
    let deltas = after_warm.delta_since(&before);
    let of = |name: &str| deltas.iter().find(|(n, _)| *n == name).unwrap().1;
    assert_eq!(of("circuit.minimize_passes"), 10);
    assert_eq!(of("circuit.factor_passes"), 10);
    assert_eq!(of("cache.hits"), 4);

    // A four-measure sweep over the same five lineages counts once per
    // lineage like every other surface — five requests of each measure,
    // five batch tasks — and still minimizes and factors each lineage once.
    let sweep = executor.run_measures(
        &lineages,
        24,
        &Budget::unlimited(),
        &ExactConfig::default(),
        &Measure::ALL,
    );
    assert!(sweep.items.iter().all(|i| i.result.is_ok()));
    let after_sweep = CounterSnapshot::take();
    for name in [
        "measure.shapley",
        "measure.banzhaf",
        "measure.responsibility",
        "measure.shap_score",
        "batch.tasks",
        "circuit.minimize_passes",
        "circuit.factor_passes",
    ] {
        assert_eq!(after_sweep.delta_of(&after_warm, name), 5, "{name}");
    }

    // And the values survived all that accounting: the unminimized matching
    // matches its minimized twin after translation.
    let pairs = |i: usize| -> Vec<(u32, String)> {
        match &warm.items[i].result.as_ref().unwrap().values {
            shapdb::core::engine::EngineValues::Exact(v) => {
                let mut out: Vec<(u32, String)> =
                    v.iter().map(|(f, r)| (f.0, r.to_string())).collect();
                out.sort();
                out
            }
            _ => panic!("exact expected"),
        }
    };
    assert_eq!(
        pairs(0).iter().map(|(_, r)| r.clone()).collect::<Vec<_>>(),
        pairs(1).iter().map(|(_, r)| r.clone()).collect::<Vec<_>>(),
    );
}
