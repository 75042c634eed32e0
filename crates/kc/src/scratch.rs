//! Epoch-stamped per-variable/per-clause scratch of the CNF compiler.
//!
//! The compiler ([`crate::compile_topdown`]) runs many short phases per
//! recursive call — propagation scoping, component splitting, cache-key
//! building, branch scoring — each needing "have I seen this variable /
//! clause this phase?" state. Allocating per-call maps dominates on small
//! components, so the state lives in flat arrays stamped with a phase
//! *epoch*: bumping the epoch invalidates every stamp at once, with no
//! clearing pass. Each phase runs entirely between recursive calls, so one
//! shared epoch suffices.

use shapdb_circuit::Lit;

/// The shared scratch arrays (sized once per compilation).
pub(crate) struct EpochScratch {
    /// Phase epoch for the stamp arrays below.
    pub epoch: u64,
    /// Clause id → epoch when it was last in the propagation scope.
    pub clause_stamp: Vec<u64>,
    /// Variable → epoch when it was last seen by the current phase.
    pub var_stamp: Vec<u64>,
    /// Variable → phase-local slot (component representative, local id, …).
    pub var_slot: Vec<u32>,
    /// Variable → branch-heuristic score (valid when stamped).
    pub var_score: Vec<f64>,
    /// Distinct variables of the current phase, in first-seen order.
    pub vars_scratch: Vec<u32>,
}

impl EpochScratch {
    /// Fresh scratch for `n_clauses` clauses over `n_vars` variables.
    pub fn new(n_clauses: usize, n_vars: usize) -> EpochScratch {
        EpochScratch {
            epoch: 0,
            clause_stamp: vec![0; n_clauses],
            var_stamp: vec![0; n_vars],
            var_slot: vec![0; n_vars],
            var_score: vec![0.0; n_vars],
            vars_scratch: Vec::new(),
        }
    }

    /// Starts a new phase: every existing stamp becomes stale.
    #[inline]
    pub fn begin_phase(&mut self) -> u64 {
        self.epoch += 1;
        self.epoch
    }

    /// Splits residual clauses into variable-connected components:
    /// union-find over clause indices, joined through epoch-stamped
    /// per-variable representatives (no per-call map). Components come out
    /// ordered by first clause id (`active` is id-ordered) — reproducible
    /// circuits.
    pub fn split_components(&mut self, active: &[(u32, Vec<Lit>)]) -> Vec<Vec<(u32, Vec<Lit>)>> {
        let n = active.len();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        let epoch = self.begin_phase();
        for (i, (_, lits)) in active.iter().enumerate() {
            for l in lits {
                let v = l.var();
                if self.var_stamp[v] == epoch {
                    let a = find(&mut parent, self.var_slot[v] as usize);
                    let b = find(&mut parent, i);
                    if a != b {
                        parent[a] = b;
                    }
                } else {
                    self.var_stamp[v] = epoch;
                    self.var_slot[v] = i as u32;
                }
            }
        }
        // Group in first-appearance order (ascending first clause id).
        let mut group_of_root: Vec<usize> = vec![usize::MAX; n];
        let mut out: Vec<Vec<(u32, Vec<Lit>)>> = Vec::new();
        for (i, entry) in active.iter().enumerate() {
            let root = find(&mut parent, i);
            if group_of_root[root] == usize::MAX {
                group_of_root[root] = out.len();
                out.push(Vec::new());
            }
            out[group_of_root[root]].push(entry.clone());
        }
        out
    }
}
