//! Route accounting: planning a lineage bumps its route's counter by
//! exactly one — `planner.naive_routes` for a tiny non-read-once lineage,
//! `planner.kc_topdown_routes` for a wide one.
//!
//! This file holds a single `#[test]` on purpose: the counters are
//! process-wide, and being the only test in its own integration binary
//! makes the deltas exact (no concurrent test can plan in between). The
//! routing decisions themselves are checked in the planner's unit tests
//! (`tiny_non_read_once_lineages_route_to_naive`,
//! `wide_lineages_take_the_topdown_route`).

use shapdb_circuit::{Dnf, VarId};
use shapdb_core::engine::{EngineKind, PlanReason, Planner, PlannerConfig};
use shapdb_metrics::counters::{PLANNER_KC_TOPDOWN_ROUTES, PLANNER_NAIVE_ROUTES};

/// `k` variable-disjoint majorities `(x∧y) ∨ (x∧z) ∨ (y∧z)`: `3k`
/// variables, never read-once.
fn majority_blocks(k: u32) -> Dnf {
    let mut d = Dnf::new();
    for b in 0..k {
        let (x, y, z) = (3 * b, 3 * b + 1, 3 * b + 2);
        for pair in [[x, y], [x, z], [y, z]] {
            d.add_conjunct(pair.iter().map(|&v| VarId(v)).collect());
        }
    }
    d
}

#[test]
fn each_plan_counts_its_route_exactly_once() {
    let planner = Planner::new(PlannerConfig::default());

    let before = PLANNER_NAIVE_ROUTES.get();
    let plan = planner.plan(&majority_blocks(1));
    assert_eq!(plan.engine, EngineKind::Naive);
    assert_eq!(PLANNER_NAIVE_ROUTES.get(), before + 1);

    let before = PLANNER_KC_TOPDOWN_ROUTES.get();
    let plan = planner.plan(&majority_blocks(17)); // 51 vars > topdown_min_vars (48)
    assert_eq!(plan.reason, PlanReason::KcWideTopDown);
    assert_eq!(PLANNER_KC_TOPDOWN_ROUTES.get(), before + 1);
}
