//! The CNF → d-DNNF compiler.
//!
//! An exhaustive DPLL search that *records* its trace as a d-DNNF (the
//! classic c2d/Dsharp recipe the paper's pipeline invokes externally):
//!
//! * **unit propagation** forces literals, which become children of a
//!   decomposable ∧;
//! * **connected components** of the residual clause set share no variables
//!   and are compiled independently — their conjunction is decomposable;
//! * **branching** on a variable yields a *decision* ∨ node
//!   `(v ∧ C|v) ∨ (¬v ∧ C|¬v)`, deterministic by construction;
//! * **component caching** keyed by the residual clause ids plus the
//!   component's variables (a canonical encoding — a residual clause is its
//!   original literals restricted to the component's unassigned variables),
//!   pre-hashed so lookups never re-hash the whole key, makes equal
//!   sub-formulas compile once.
//!
//! There is no theoretical guarantee of efficiency — compiling CNF to d-DNNF
//! is `FP^{#P}`-hard in general, as the paper notes — so compilation takes a
//! [`Budget`] (deadline and node cap) and fails gracefully; the hybrid engine
//! (§6.3) turns that failure into a CNF-Proxy fallback.

use crate::ddnnf::{Ddnnf, DdnnfBuilder, NodeIdx};
use crate::project::project;
use crate::scratch::EpochScratch;
use shapdb_circuit::{tseytin, Circuit, Cnf, Lit, NodeId, TseytinCnf, VarId};
use std::collections::HashMap;
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
    /// Component-cache hits (compilation-local, clause-id-keyed).
    pub cache_hits: u64,
    /// Branching decisions taken.
    pub decisions: u64,
    /// Literals forced by unit propagation.
    pub propagations: u64,
    /// Canonical component-cache hits (top-down compiler only): components
    /// answered from a stored fragment — possibly one compiled under a
    /// *different* lineage when the cache is shared across a batch.
    pub shared_hits: u64,
}

/// Variable-selection strategy for decision branching.
///
/// The default (`MaxOccurrence`) picks the variable with the most
/// occurrences in the residual component — cheap and effective on Tseytin
/// CNFs, whose auxiliary variables dominate occurrence counts and propagate
/// eagerly. `Vsads` additionally weighs clause sizes — the VSADS recipe of
/// the model-counting literature (sharpSAT, D4), minus the conflict-clause
/// activity term our trace compiler has no source for; it wins on dense
/// grid-style formulas (the `kc` bench's Figure 4 grids compile ~1.6×
/// faster than under the pre-occurrence-index compiler, and a few percent
/// faster than `MaxOccurrence`) but loses a little on the TPC-H/IMDB
/// replay, so it stays opt-in. `JeroslowWang` weights occurrences by
/// `2^{-|clause|}`; `MinIndex` (lowest variable id) is the naive baseline
/// the ablation bench measures the others against.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum BranchHeuristic {
    /// Occurrence count plus a short-clause bonus: the score is
    /// `Σ_clauses (1 + 8·2^{-|clause|})`, a VSADS-style blend of the
    /// dynamic occurrence count and the Jeroslow–Wang size weight.
    Vsads,
    /// Most occurrences in the component (the default).
    #[default]
    MaxOccurrence,
    /// Jeroslow–Wang: `Σ 2^{-|clause|}` over the variable's occurrences.
    JeroslowWang,
    /// Smallest variable index (ablation baseline).
    MinIndex,
}

const UNASSIGNED: i8 = -1;

/// What one clause looks like under the current assignment.
enum ClauseState {
    Satisfied,
    Conflict,
    Unit(Lit),
    Open,
}

/// One component-cache bucket: every (canonical key, node) pair whose key
/// hashes to the bucket's precomputed hash.
type CacheBucket = Vec<(Box<[u32]>, NodeIdx)>;

struct Compiler<'a> {
    clauses: Vec<Vec<Lit>>,
    assign: Vec<i8>,
    builder: DdnnfBuilder,
    /// Component cache, keyed by a cheap precomputed hash of the canonical
    /// component encoding; hits verify the full key against the bucket
    /// (hash collisions must never conflate two functions).
    cache: HashMap<u64, CacheBucket>,
    stats: CompileStats,
    budget: &'a Budget,
    heuristic: BranchHeuristic,
    ticks: u32,
    /// Variable → ids of the clauses containing it (over the whole CNF);
    /// unit propagation re-examines only these instead of rescanning the
    /// entire scoped clause set per fixpoint pass.
    occurs: Vec<Vec<u32>>,
    /// Epoch-stamped per-variable/per-clause phase state (shared idiom with
    /// the top-down compiler — see [`EpochScratch`]).
    scratch: EpochScratch,
}

impl<'a> Compiler<'a> {
    fn new(cnf: &Cnf, budget: &'a Budget, heuristic: BranchHeuristic) -> Compiler<'a> {
        let clauses: Vec<Vec<Lit>> = cnf.clauses().iter().map(|c| c.lits().to_vec()).collect();
        let n_vars = cnf.num_vars();
        let mut occurs: Vec<Vec<u32>> = vec![Vec::new(); n_vars];
        for (cid, lits) in clauses.iter().enumerate() {
            for l in lits {
                occurs[l.var()].push(cid as u32);
            }
        }
        Compiler {
            assign: vec![UNASSIGNED; n_vars],
            builder: DdnnfBuilder::new(),
            cache: HashMap::new(),
            stats: CompileStats::default(),
            budget,
            heuristic,
            ticks: 0,
            occurs,
            scratch: EpochScratch::new(clauses.len(), n_vars),
            clauses,
        }
    }

    fn check_budget(&mut self) -> Result<(), CompileError> {
        if self.builder.len() > self.budget.max_nodes {
            return Err(CompileError::NodeLimit);
        }
        self.ticks = self.ticks.wrapping_add(1);
        if self.ticks.is_multiple_of(256) {
            if let Some(d) = self.budget.deadline {
                if Instant::now() > d {
                    return Err(CompileError::Timeout);
                }
            }
        }
        Ok(())
    }

    fn lit_value(&self, l: Lit) -> i8 {
        match self.assign[l.var()] {
            UNASSIGNED => UNASSIGNED,
            v => i8::from(l.satisfied_by(v == 1)),
        }
    }

    fn examine(&self, cid: u32) -> ClauseState {
        let mut unassigned: Option<Lit> = None;
        let mut n_unassigned = 0;
        for &l in &self.clauses[cid as usize] {
            match self.lit_value(l) {
                1 => return ClauseState::Satisfied,
                0 => {}
                _ => {
                    n_unassigned += 1;
                    unassigned = Some(l);
                }
            }
        }
        match n_unassigned {
            0 => ClauseState::Conflict,
            1 => ClauseState::Unit(unassigned.unwrap()),
            _ => ClauseState::Open,
        }
    }

    /// Unit propagation over the scoped clause set, driven by the
    /// variable→clause occurrence index: after one seeding scan, only
    /// clauses containing a freshly assigned variable are re-examined
    /// (instead of re-scanning the whole scope until fixpoint). Assignments
    /// are pushed onto `trail` (which doubles as the propagation queue);
    /// returns `true` on conflict, leaving the trail for the caller to
    /// unwind.
    fn propagate(
        &mut self,
        clause_ids: &[u32],
        trail: &mut Vec<usize>,
    ) -> Result<bool, CompileError> {
        let epoch = self.scratch.begin_phase();
        for &cid in clause_ids {
            self.scratch.clause_stamp[cid as usize] = epoch;
        }
        let assign_unit = |me: &mut Self, l: Lit, trail: &mut Vec<usize>| {
            me.assign[l.var()] = i8::from(l.is_positive());
            trail.push(l.var());
            me.stats.propagations += 1;
        };
        // Seed: one scan of the scope for already-unit clauses.
        for &cid in clause_ids {
            self.check_budget()?;
            match self.examine(cid) {
                ClauseState::Conflict => return Ok(true),
                ClauseState::Unit(l) => assign_unit(self, l, trail),
                _ => {}
            }
        }
        // Drain: each new assignment re-examines only its own clauses.
        let mut queue = 0;
        while queue < trail.len() {
            let v = trail[queue];
            queue += 1;
            self.check_budget()?;
            for idx in 0..self.occurs[v].len() {
                let cid = self.occurs[v][idx];
                if self.scratch.clause_stamp[cid as usize] != epoch {
                    continue; // not in the current scope
                }
                match self.examine(cid) {
                    ClauseState::Conflict => return Ok(true),
                    ClauseState::Unit(l) => assign_unit(self, l, trail),
                    _ => {}
                }
            }
        }
        Ok(false)
    }

    /// Compiles the conjunction of `clause_ids` under the current assignment.
    fn compile_clauses(&mut self, clause_ids: &[u32]) -> Result<NodeIdx, CompileError> {
        self.check_budget()?;

        // --- Unit propagation (with a local trail for undo). ---
        let mut trail: Vec<usize> = Vec::new();
        let conflict = match self.propagate(clause_ids, &mut trail) {
            Ok(c) => c,
            Err(e) => {
                for v in trail {
                    self.assign[v] = UNASSIGNED;
                }
                return Err(e);
            }
        };
        if conflict {
            for v in trail {
                self.assign[v] = UNASSIGNED;
            }
            return Ok(self.builder.false_node());
        }

        // --- Residual (active) clauses with their unassigned literals. ---
        let mut active: Vec<(u32, Vec<Lit>)> = Vec::new();
        'outer: for &cid in clause_ids {
            let mut rest = Vec::new();
            for &l in &self.clauses[cid as usize] {
                match self.lit_value(l) {
                    1 => continue 'outer,
                    0 => {}
                    _ => rest.push(l),
                }
            }
            debug_assert!(rest.len() >= 2, "units handled by propagation");
            active.push((cid, rest));
        }

        // The forced literals are part of the result function.
        let unit_nodes: Vec<NodeIdx> = trail
            .iter()
            .map(|&v| {
                let lit = if self.assign[v] == 1 {
                    Lit::pos(v)
                } else {
                    Lit::neg(v)
                };
                self.builder.lit(lit)
            })
            .collect();

        let result = if active.is_empty() {
            self.builder.and(unit_nodes)
        } else {
            // --- Connected components over shared variables. ---
            let comps = self.split_components(&active);
            let mut parts = unit_nodes;
            let mut failed = None;
            for comp in comps {
                match self.compile_component(&comp) {
                    Ok(n) => parts.push(n),
                    Err(e) => {
                        failed = Some(e);
                        break;
                    }
                }
            }
            if let Some(e) = failed {
                for v in trail {
                    self.assign[v] = UNASSIGNED;
                }
                return Err(e);
            }
            self.builder.and(parts)
        };

        for v in trail {
            self.assign[v] = UNASSIGNED;
        }
        Ok(result)
    }

    /// Selects the decision variable of a component per the configured
    /// heuristic, scoring into epoch-stamped per-variable arrays (no
    /// per-call maps). Ties break toward the smaller variable id so
    /// compilations are deterministic.
    fn pick_branch_var(&mut self, comp: &[(u32, Vec<Lit>)]) -> usize {
        if self.heuristic == BranchHeuristic::MinIndex {
            return comp
                .iter()
                .flat_map(|(_, lits)| lits.iter().map(|l| l.var()))
                .min()
                .expect("non-empty component");
        }
        let epoch = self.scratch.begin_phase();
        self.scratch.vars_scratch.clear();
        for (_, lits) in comp {
            let w = match self.heuristic {
                BranchHeuristic::MaxOccurrence => 1.0,
                BranchHeuristic::JeroslowWang => (-(lits.len() as f64)).exp2(),
                // VSADS blend: every occurrence counts 1, short clauses add
                // a bonus of up to 8·2^{-|clause|} (so a binary-clause
                // occurrence outweighs two long-clause ones).
                BranchHeuristic::Vsads => 1.0 + 8.0 * (-(lits.len() as f64)).exp2(),
                BranchHeuristic::MinIndex => unreachable!(),
            };
            for l in lits {
                let v = l.var();
                if self.scratch.var_stamp[v] != epoch {
                    self.scratch.var_stamp[v] = epoch;
                    self.scratch.var_score[v] = 0.0;
                    self.scratch.vars_scratch.push(v as u32);
                }
                self.scratch.var_score[v] += w;
            }
        }
        let mut best = self.scratch.vars_scratch[0] as usize;
        for &v in &self.scratch.vars_scratch[1..] {
            let v = v as usize;
            match self.scratch.var_score[v].total_cmp(&self.scratch.var_score[best]) {
                std::cmp::Ordering::Greater => best = v,
                std::cmp::Ordering::Equal if v < best => best = v,
                _ => {}
            }
        }
        best
    }

    /// Canonical component-cache key: the (ascending) residual clause ids,
    /// a separator, then the component's sorted variables. Sound because a
    /// residual clause is exactly its original literals restricted to the
    /// component's (unassigned) variables — two states agreeing on both
    /// lists denote the same Boolean function. Much cheaper to build than
    /// the old literal-level encoding (no per-clause literal sort), and
    /// hashed once with FNV-1a so probes never re-hash the whole key.
    fn component_key(&mut self, comp: &[(u32, Vec<Lit>)]) -> (u64, Box<[u32]>) {
        let mut key: Vec<u32> = Vec::with_capacity(comp.len() * 3);
        for (cid, _) in comp {
            key.push(*cid);
        }
        key.push(u32::MAX); // separator (no clause id is MAX)
        let epoch = self.scratch.begin_phase();
        let vstart = key.len();
        for (_, lits) in comp {
            for l in lits {
                let v = l.var();
                if self.scratch.var_stamp[v] != epoch {
                    self.scratch.var_stamp[v] = epoch;
                    key.push(v as u32);
                }
            }
        }
        key[vstart..].sort_unstable();
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a
        for &x in &key {
            h = (h ^ x as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h, key.into_boxed_slice())
    }

    /// Compiles one connected component (given as residual clauses), with
    /// caching and branching.
    fn compile_component(&mut self, comp: &[(u32, Vec<Lit>)]) -> Result<NodeIdx, CompileError> {
        let (hash, key) = self.component_key(comp);
        if let Some(bucket) = self.cache.get(&hash) {
            // Collision verification: a matching hash only counts when the
            // full canonical key matches.
            if let Some(&(_, hit)) = bucket.iter().find(|(k, _)| **k == *key) {
                self.stats.cache_hits += 1;
                return Ok(hit);
            }
        }

        let branch_var = self.pick_branch_var(comp);
        self.stats.decisions += 1;

        let clause_ids: Vec<u32> = comp.iter().map(|(cid, _)| *cid).collect();

        self.assign[branch_var] = 1;
        let hi_sub = self.compile_clauses(&clause_ids);
        self.assign[branch_var] = UNASSIGNED;
        let hi_sub = hi_sub?;

        self.assign[branch_var] = 0;
        let lo_sub = self.compile_clauses(&clause_ids);
        self.assign[branch_var] = UNASSIGNED;
        let lo_sub = lo_sub?;

        let pos = self.builder.lit(Lit::pos(branch_var));
        let neg = self.builder.lit(Lit::neg(branch_var));
        let hi = self.builder.and([pos, hi_sub]);
        let lo = self.builder.and([neg, lo_sub]);
        let node = self.builder.decision(branch_var, hi, lo);
        self.cache.entry(hash).or_default().push((key, node));
        Ok(node)
    }

    /// Splits residual clauses into variable-connected components (see
    /// [`EpochScratch::split_components`]).
    fn split_components(&mut self, active: &[(u32, Vec<Lit>)]) -> Vec<Vec<(u32, Vec<Lit>)>> {
        self.scratch.split_components(active)
    }
}

/// Compiles a CNF into a d-DNNF over the same variable space.
pub fn compile(cnf: &Cnf, budget: &Budget) -> Result<(Ddnnf, CompileStats), CompileError> {
    compile_with(cnf, budget, BranchHeuristic::default())
}

/// [`compile`] with an explicit branching heuristic (ablation entry point).
pub fn compile_with(
    cnf: &Cnf,
    budget: &Budget,
    heuristic: BranchHeuristic,
) -> Result<(Ddnnf, CompileStats), CompileError> {
    let mut c = Compiler::new(cnf, budget, heuristic);
    // An empty clause makes the whole formula unsatisfiable.
    let root = if cnf.clauses().iter().any(|cl| cl.is_empty()) {
        c.builder.false_node()
    } else {
        let ids: Vec<u32> = (0..cnf.len() as u32).collect();
        c.compile_clauses(&ids)?
    };
    let mut stats = c.stats;
    stats.nodes = c.builder.len();
    Ok((c.builder.finish(root, cnf.num_vars()), stats))
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

/// Circuit → Tseytin CNF → d-DNNF → project (Lemma 4.6).
pub fn compile_circuit(
    circuit: &Circuit,
    root: NodeId,
    budget: &Budget,
) -> Result<CircuitCompilation, CompileError> {
    let t = tseytin(circuit, root);
    let (full, stats) = compile(&t.cnf, budget)?;
    let unprojected_size = full.len();
    let ddnnf = project(&full, t.num_inputs());
    Ok(CircuitCompilation {
        ddnnf,
        fact_vars: t.input_vars.clone(),
        tseytin: t,
        unprojected_size,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
            )
        ) {
            // Different branch orders yield different circuits but must
            // represent the same function.
            let mut cnf = Cnf::new(8);
            for c in &clauses {
                cnf.push_lits(
                    c.iter().map(|&(v, pos)| if pos { Lit::pos(v) } else { Lit::neg(v) }).collect(),
                );
            }
            let expect = cnf.count_models_bruteforce();
            for h in [
                BranchHeuristic::Vsads,
                BranchHeuristic::MaxOccurrence,
                BranchHeuristic::JeroslowWang,
                BranchHeuristic::MinIndex,
            ] {
                let (d, _) = compile_with(&cnf, &Budget::unlimited(), h).unwrap();
                prop_assert_eq!(d.count_models().to_u64().unwrap(), expect, "{:?}", h);
                prop_assert!(d.verify_decomposable().is_ok());
            }
        }
    }
}
