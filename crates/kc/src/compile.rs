//! The CNF → d-DNNF compiler's entry point and vocabulary.
//!
//! [`compile`] runs the top-down compiler
//! ([`crate::compile_topdown`]): an exhaustive DPLL search that records
//! its trace as a d-DNNF — unit propagation, dynamic component
//! decomposition, decision nodes, and a component cache keyed by the
//! canonical residual-component encoding — with a cache owned by the call.
//! This module also holds what every compile shares: the [`Budget`], the
//! [`CompileError`] it fails with, the [`CompileStats`] it reports and the
//! [`CircuitCompilation`] of the paper's circuit path.
//!
//! There is no theoretical guarantee of efficiency — compiling CNF to d-DNNF
//! is `FP^{#P}`-hard in general, as the paper notes — so compilation takes a
//! [`Budget`] (deadline and node cap) and fails gracefully; the hybrid engine
//! (§6.3) turns that failure into a CNF-Proxy fallback.

use crate::compile_topdown::{compile_topdown_shared, ComponentCache};
use crate::ddnnf::Ddnnf;
use shapdb_circuit::{Cnf, TseytinCnf, VarId};
use std::time::Instant;

/// Resource limits for compilation.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Hard wall-clock deadline (checked cooperatively).
    pub deadline: Option<Instant>,
    /// Maximum number of d-DNNF nodes to allocate: of the compiled CNF's
    /// circuit before any projection — on the engines' KC route, the
    /// circuit of the lineage's negation `¬F` over the facts.
    pub max_nodes: usize,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            deadline: None,
            max_nodes: usize::MAX,
        }
    }
}

impl Budget {
    /// No limits.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// A deadline `timeout` from now.
    pub fn with_timeout(timeout: std::time::Duration) -> Budget {
        Budget {
            deadline: Some(Instant::now() + timeout),
            max_nodes: usize::MAX,
        }
    }

    /// A node cap.
    pub fn with_max_nodes(max_nodes: usize) -> Budget {
        Budget {
            deadline: None,
            max_nodes,
        }
    }
}

/// Why compilation was aborted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CompileError {
    /// The [`Budget::deadline`] passed.
    Timeout,
    /// More than [`Budget::max_nodes`] nodes were needed.
    NodeLimit,
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Timeout => write!(f, "knowledge compilation timed out"),
            CompileError::NodeLimit => write!(f, "knowledge compilation hit the node limit"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Counters describing a compilation run.
#[derive(Clone, Copy, Debug, Default)]
pub struct CompileStats {
    /// d-DNNF nodes in the result arena.
    pub nodes: usize,
    /// Compilation-local component-cache hits: a residual component this
    /// compilation has already compiled.
    pub cache_hits: u64,
    /// Branching decisions taken.
    pub decisions: u64,
    /// Literals forced by unit propagation.
    pub propagations: u64,
    /// Canonical component-cache hits: components answered from a stored
    /// fragment — possibly one compiled under a *different* lineage when
    /// the cache is shared across a batch.
    pub shared_hits: u64,
}

/// Compiles a CNF into a d-DNNF over the same variable space with the
/// top-down compiler and a compilation-owned [`ComponentCache`] (isomorphic
/// components still share one compile within the call). Batches that
/// should share fragments across lineages call
/// [`compile_topdown_shared`] instead.
pub fn compile(cnf: &Cnf, budget: &Budget) -> Result<(Ddnnf, CompileStats), CompileError> {
    compile_topdown_shared(cnf, budget, &ComponentCache::new(), 0)
}

/// Result of compiling a lineage circuit end-to-end (Figure 3 middle path).
#[derive(Debug)]
pub struct CircuitCompilation {
    /// d-DNNF over the circuit's input variables (auxiliaries eliminated).
    pub ddnnf: Ddnnf,
    /// `fact_vars[i]` is the circuit variable of d-DNNF variable `i`.
    pub fact_vars: Vec<VarId>,
    /// The intermediate Tseytin CNF (consumed by CNF Proxy as well).
    pub tseytin: TseytinCnf,
    /// d-DNNF size before auxiliary-variable elimination.
    pub unprojected_size: usize,
    /// Compiler counters.
    pub stats: CompileStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_topdown::compile_topdown_shared;
    use proptest::prelude::*;
    use shapdb_circuit::Lit;

    fn check_compiled(cnf: &Cnf) {
        let (d, _) = compile(cnf, &Budget::unlimited()).unwrap();
        d.verify_decomposable().unwrap();
        d.verify_decisions().unwrap();
        d.check_determinism_sampled(50, 11).unwrap();
        assert_eq!(
            d.count_models().to_u64().unwrap(),
            cnf.count_models_bruteforce(),
            "model count mismatch for {cnf}"
        );
    }

    #[test]
    fn empty_cnf_is_valid() {
        let cnf = Cnf::new(3);
        let (d, _) = compile(&cnf, &Budget::unlimited()).unwrap();
        assert_eq!(d.count_models().to_u64(), Some(8));
    }

    #[test]
    fn unsat_cnf() {
        let mut cnf = Cnf::new(2);
        cnf.push_lits(vec![Lit::pos(0)]);
        cnf.push_lits(vec![Lit::neg(0)]);
        let (d, _) = compile(&cnf, &Budget::unlimited()).unwrap();
        assert_eq!(d.count_models().to_u64(), Some(0));
    }

    #[test]
    fn example_5_1_formula() {
        // (x0 ∨ x1) ∧ (x0 ∨ x2 ∨ x3): 11 models.
        let mut cnf = Cnf::new(4);
        cnf.push_lits(vec![Lit::pos(0), Lit::pos(1)]);
        cnf.push_lits(vec![Lit::pos(0), Lit::pos(2), Lit::pos(3)]);
        check_compiled(&cnf);
    }

    #[test]
    fn component_decomposition_produces_decomposable_and() {
        // Two independent sub-formulas: (x0∨x1) ∧ (x2∨x3).
        let mut cnf = Cnf::new(4);
        cnf.push_lits(vec![Lit::pos(0), Lit::pos(1)]);
        cnf.push_lits(vec![Lit::pos(2), Lit::pos(3)]);
        let (d, stats) = compile(&cnf, &Budget::unlimited()).unwrap();
        assert_eq!(d.count_models().to_u64(), Some(9));
        // Splitting means at most 2 decisions (one per component).
        assert!(stats.decisions <= 2, "components not split: {stats:?}");
        check_compiled(&cnf);
    }

    #[test]
    fn unit_propagation_chains() {
        // x0 forced, then x1, then x2: single model over 3 vars.
        let mut cnf = Cnf::new(3);
        cnf.push_lits(vec![Lit::pos(0)]);
        cnf.push_lits(vec![Lit::neg(0), Lit::pos(1)]);
        cnf.push_lits(vec![Lit::neg(1), Lit::pos(2)]);
        let (d, stats) = compile(&cnf, &Budget::unlimited()).unwrap();
        assert_eq!(d.count_models().to_u64(), Some(1));
        assert_eq!(stats.decisions, 0);
        assert_eq!(stats.propagations, 3);
    }

    #[test]
    fn cache_hits_on_repeated_components() {
        // (x0 ∨ x1) ∧ (x0 ∨ x2) ∧ (x3 ∨ x4) — after branching x0 the residual
        // (x3∨x4) component recurs and should be cached.
        let mut cnf = Cnf::new(5);
        cnf.push_lits(vec![Lit::pos(0), Lit::pos(1)]);
        cnf.push_lits(vec![Lit::pos(0), Lit::pos(2)]);
        cnf.push_lits(vec![Lit::pos(3), Lit::pos(4)]);
        let (d, _) = compile(&cnf, &Budget::unlimited()).unwrap();
        assert_eq!(
            d.count_models().to_u64(),
            Some(cnf.count_models_bruteforce())
        );
    }

    #[test]
    fn node_limit_enforced() {
        // A formula with no small representation under our heuristic still
        // compiles; set an absurdly small cap to force the error path.
        let mut cnf = Cnf::new(12);
        for i in 0..6 {
            cnf.push_lits(vec![Lit::pos(2 * i), Lit::pos(2 * i + 1)]);
            cnf.push_lits(vec![Lit::neg(2 * i), Lit::pos((2 * i + 3) % 12)]);
        }
        let err = compile(&cnf, &Budget::with_max_nodes(3)).unwrap_err();
        assert_eq!(err, CompileError::NodeLimit);
    }

    #[test]
    fn deadline_in_past_times_out() {
        // The root's propagation seed scan alone spends one budget tick per
        // clause, so 512 clauses cross the every-256-ticks deadline check
        // before compilation can finish: an expired deadline must fire.
        let mut cnf = Cnf::new(513);
        for i in 0..512 {
            cnf.push_lits(vec![Lit::pos(i), Lit::pos(i + 1)]);
        }
        let budget = Budget {
            deadline: Some(Instant::now() - std::time::Duration::from_secs(1)),
            max_nodes: usize::MAX,
        };
        assert_eq!(compile(&cnf, &budget).unwrap_err(), CompileError::Timeout);
        // The same formula compiles without the deadline.
        assert!(compile(&cnf, &Budget::unlimited()).is_ok());
    }

    #[test]
    fn tautological_clause_handled() {
        let mut cnf = Cnf::new(2);
        cnf.push_lits(vec![Lit::pos(0), Lit::neg(0)]);
        cnf.push_lits(vec![Lit::pos(1)]);
        let (d, _) = compile(&cnf, &Budget::unlimited()).unwrap();
        assert_eq!(
            d.count_models().to_u64(),
            Some(cnf.count_models_bruteforce())
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_model_count_matches_bruteforce(
            clauses in proptest::collection::vec(
                proptest::collection::vec((0usize..10, any::<bool>()), 1..4),
                0..12,
            )
        ) {
            let mut cnf = Cnf::new(10);
            for c in &clauses {
                cnf.push_lits(
                    c.iter().map(|&(v, pos)| if pos { Lit::pos(v) } else { Lit::neg(v) }).collect(),
                );
            }
            let (d, _) = compile(&cnf, &Budget::unlimited()).unwrap();
            prop_assert_eq!(d.count_models().to_u64().unwrap(), cnf.count_models_bruteforce());
            prop_assert!(d.verify_decomposable().is_ok());
            prop_assert!(d.verify_decisions().is_ok());
            prop_assert!(d.check_determinism_sampled(20, 5).is_ok());
        }

        #[test]
        fn prop_heuristics_agree_on_model_count(
            clauses in proptest::collection::vec(
                proptest::collection::vec((0usize..8, any::<bool>()), 1..4),
                0..10,
            ),
            warm_clauses in proptest::collection::vec(
                proptest::collection::vec((0usize..8, any::<bool>()), 1..4),
                0..10,
            ),
        ) {
            // The compiled function does not depend on cache state: an
            // owned cache, a shared cache warmed by another CNF, and a
            // context that cache has never seen all count the brute-force
            // models.
            let mk = |cs: &[Vec<(usize, bool)>]| {
                let mut cnf = Cnf::new(8);
                for c in cs {
                    cnf.push_lits(
                        c.iter().map(|&(v, pos)| if pos { Lit::pos(v) } else { Lit::neg(v) }).collect(),
                    );
                }
                cnf
            };
            let (cnf, warm) = (mk(&clauses), mk(&warm_clauses));
            let expect = cnf.count_models_bruteforce();
            let shared = ComponentCache::new();
            compile_topdown_shared(&warm, &Budget::unlimited(), &shared, 1).unwrap();
            let compiles = [
                ("owned", compile(&cnf, &Budget::unlimited()).unwrap().0),
                ("warmed", compile_topdown_shared(&cnf, &Budget::unlimited(), &shared, 1).unwrap().0),
                ("other context", compile_topdown_shared(&cnf, &Budget::unlimited(), &shared, 2).unwrap().0),
            ];
            for (name, d) in compiles {
                prop_assert_eq!(d.count_models().to_u64().unwrap(), expect, "{}", name);
                prop_assert!(d.verify_decomposable().is_ok());
                prop_assert!(d.verify_decisions().is_ok());
            }
        }
    }
}
