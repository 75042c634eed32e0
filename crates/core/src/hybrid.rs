//! Tests of the paper's §6.3 hybrid: knowledge compilation + Algorithm 1
//! under a per-lineage timeout, CNF-Proxy ranking once it expires. The
//! mode is a [`PlannerConfig`](crate::PlannerConfig) — forced KC, the
//! admission caps lifted, Proxy as the fallback — as the facade's `rank`
//! builds it.

#[cfg(test)]
mod tests {
    use crate::engine::{EngineKind, EngineValues, LineageTask, Planner, PlannerConfig};
    use shapdb_circuit::{Dnf, VarId};
    use shapdb_num::Rational;
    use std::time::Duration;

    fn paper_hybrid(timeout: Duration) -> Planner {
        Planner::new(PlannerConfig {
            force: Some(EngineKind::Kc),
            timeout: Some(timeout),
            fallback: Some(EngineKind::Proxy),
            max_kc_vars: usize::MAX,
            max_kc_conjuncts: usize::MAX,
            ..Default::default()
        })
    }

    fn running_example() -> Dnf {
        let mut d = Dnf::new();
        d.add_conjunct(vec![VarId(0)]);
        for pair in [[1u32, 3], [1, 4], [2, 3], [2, 4], [5, 6]] {
            d.add_conjunct(pair.iter().map(|&v| VarId(v)).collect());
        }
        d
    }

    #[test]
    fn exact_within_generous_timeout() {
        let d = running_example();
        let r = paper_hybrid(Duration::from_millis(2500))
            .solve(&LineageTask::new(&d, 8))
            .unwrap();
        assert_eq!(r.engine, EngineKind::Kc);
        let EngineValues::Exact(pairs) = &r.values else {
            panic!("exact within a generous timeout");
        };
        assert_eq!(pairs[0].0, VarId(0));
        assert_eq!(pairs[0].1, Rational::from_ratio(43, 105));
    }

    #[test]
    fn falls_back_to_proxy_on_zero_timeout() {
        let d = running_example();
        let r = paper_hybrid(Duration::ZERO)
            .solve(&LineageTask::new(&d, 8))
            .unwrap();
        assert_eq!(r.engine, EngineKind::Proxy);
        assert!(!r.values.is_exact());
        // The proxy ranking is non-empty and covers all 7 facts.
        assert_eq!(r.values.ranking().len(), 7);
    }
}
