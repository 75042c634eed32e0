//! Monotone DNF lineages.
//!
//! UCQ provenance is naturally a *monotone* DNF — a disjunction of
//! conjunctions of (positive) facts, as in Figure 1d of the paper. This type
//! is the bridge between query evaluation (which produces one conjunct per
//! derivation) and the circuit world.

use crate::circuit::{Circuit, NodeId, VarId};
use shapdb_num::Bitset;
use std::fmt;

/// A monotone DNF: a set of conjuncts, each a sorted set of variables.
#[derive(Clone, Debug, Default)]
pub struct Dnf {
    conjuncts: Vec<Vec<VarId>>,
    /// Set by [`Dnf::minimize`] and cleared by every mutator, so a second
    /// `minimize` of an unchanged DNF costs nothing. Not part of the value:
    /// equality ignores it.
    minimized: bool,
}

impl PartialEq for Dnf {
    fn eq(&self, other: &Dnf) -> bool {
        self.conjuncts == other.conjuncts
    }
}

impl Eq for Dnf {}

impl Dnf {
    /// An empty DNF (the constant false).
    pub fn new() -> Dnf {
        Dnf::default()
    }

    /// Adds a conjunct (sorted + deduplicated; duplicate conjuncts and
    /// conjuncts subsumed syntactically by an identical one are dropped).
    pub fn add_conjunct(&mut self, mut vars: Vec<VarId>) {
        vars.sort_unstable();
        vars.dedup();
        if !self.conjuncts.contains(&vars) {
            self.conjuncts.push(vars);
            self.minimized = false;
        }
    }

    /// The DNF of `conjuncts` in any order and with any repeats: the same
    /// conjunct set as calling [`Dnf::add_conjunct`] on each, sorted.
    pub fn from_conjuncts(mut conjuncts: Vec<Vec<VarId>>) -> Dnf {
        for c in &mut conjuncts {
            c.sort_unstable();
            c.dedup();
        }
        conjuncts.sort_unstable();
        conjuncts.dedup();
        Dnf {
            conjuncts,
            minimized: false,
        }
    }

    /// The conjuncts.
    pub fn conjuncts(&self) -> &[Vec<VarId>] {
        &self.conjuncts
    }

    /// Number of conjuncts.
    pub fn len(&self) -> usize {
        self.conjuncts.len()
    }

    /// True iff the DNF is the constant false.
    pub fn is_empty(&self) -> bool {
        self.conjuncts.is_empty()
    }

    /// True iff [`Dnf::minimize`] ran and no conjunct was added since.
    pub(crate) fn is_minimized(&self) -> bool {
        self.minimized
    }

    /// Distinct variables, sorted.
    pub fn vars(&self) -> Vec<VarId> {
        let mut vs: Vec<VarId> = self.conjuncts.iter().flatten().copied().collect();
        vs.sort_unstable();
        vs.dedup();
        vs
    }

    /// Evaluates under a set of true variables.
    pub fn eval_set(&self, true_vars: &Bitset) -> bool {
        self.conjuncts
            .iter()
            .any(|c| c.iter().all(|v| true_vars.contains(v.index())))
    }

    /// Removes conjuncts that are supersets of another conjunct (absorption:
    /// `x ∨ (x ∧ y) = x`) and sorts the survivors into canonical
    /// (lexicographic) order. Keeps the function identical while shrinking
    /// the representation.
    ///
    /// The canonical order makes the minimized form *unique*: the surviving
    /// conjuncts of a monotone DNF are its minimal conjuncts, a set that
    /// does not depend on insertion order — so two evaluation strategies
    /// that enumerate derivations in different orders (the materializing
    /// evaluator and the per-answer streaming extractor) produce
    /// bit-identical minimized lineages.
    ///
    /// Subsumption runs on dense [`Bitset`]s — one word-parallel subset test
    /// per pair, `O(conjuncts² · words)` — instead of per-pair merges over
    /// the sorted variable lists, which is what makes minimization of wide
    /// lineages (hundreds of variables per conjunct) cheap.
    ///
    /// A DNF that is already minimized is left as it is, without a pass.
    pub fn minimize(&mut self) {
        if self.minimized {
            return;
        }
        shapdb_metrics::counters::CIRCUIT_MINIMIZE_PASSES.incr();
        self.minimized = true;
        let n = self.conjuncts.len();
        if n <= 1 {
            return;
        }
        // Dense variable space: fact ids are sparse, bitsets must not be.
        let vars = self.vars();
        let sets: Vec<Bitset> = self
            .conjuncts
            .iter()
            .map(|c| {
                let mut b = Bitset::new(vars.len());
                for v in c {
                    b.insert(vars.binary_search(v).expect("var in lineage"));
                }
                b
            })
            .collect();
        let mut keep = vec![true; n];
        for i in 0..n {
            if !keep[i] {
                continue;
            }
            for j in 0..n {
                if i != j
                    && keep[j]
                    && keep[i]
                    && sets[i].is_subset(&sets[j])
                    && (self.conjuncts[i].len() < self.conjuncts[j].len() || i < j)
                {
                    keep[j] = false;
                }
            }
        }
        let mut idx = 0;
        self.conjuncts.retain(|_| {
            let k = keep[idx];
            idx += 1;
            k
        });
        self.conjuncts.sort_unstable();
    }

    /// Disjunction: the union of both conjunct sets (provenance of a
    /// duplicate-eliminating ∪ / π).
    pub fn or_with(&mut self, other: &Dnf) {
        for c in other.conjuncts() {
            self.add_conjunct(c.clone());
        }
    }

    /// Conjunction by distribution: every pair of conjuncts merges
    /// (provenance of ⋈). The size is the product of the inputs' sizes —
    /// fine for per-tuple lineages, which is what query evaluation builds.
    pub fn and_product(&self, other: &Dnf) -> Dnf {
        let mut out = Dnf::new();
        for a in self.conjuncts() {
            for b in other.conjuncts() {
                let mut merged = a.clone();
                merged.extend_from_slice(b);
                out.add_conjunct(merged);
            }
        }
        out
    }

    /// Remaps the DNF onto dense variables `0..k`, returning the dense DNF
    /// and the sorted original variables (dense index → original). The
    /// sampling/naive engines and the bench runner evaluate lineages over
    /// their own variables this way.
    pub fn densify(&self) -> (Dnf, Vec<VarId>) {
        let vars = self.vars();
        let index_of = |v: VarId| vars.binary_search(&v).expect("var in lineage") as u32;
        let mut dense = Dnf::new();
        for conj in self.conjuncts() {
            dense.add_conjunct(conj.iter().map(|&v| VarId(index_of(v))).collect());
        }
        (dense, vars)
    }

    /// Builds the equivalent circuit (`∨` of `∧` of variables) in `circuit`
    /// and returns the root.
    pub fn to_circuit(&self, circuit: &mut Circuit) -> NodeId {
        let disjuncts: Vec<NodeId> = self
            .conjuncts
            .iter()
            .map(|conj| {
                let lits: Vec<NodeId> = conj.iter().map(|&v| circuit.var(v)).collect();
                circuit.and(lits)
            })
            .collect();
        let root = circuit.or(disjuncts);
        circuit.set_root(root);
        root
    }
}

impl fmt::Display for Dnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.conjuncts.is_empty() {
            return write!(f, "⊥");
        }
        for (i, c) in self.conjuncts.iter().enumerate() {
            if i > 0 {
                write!(f, " ∨ ")?;
            }
            write!(f, "(")?;
            for (j, v) in c.iter().enumerate() {
                if j > 0 {
                    write!(f, " ∧ ")?;
                }
                write!(f, "f{}", v.0)?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(bits: &[usize], cap: usize) -> Bitset {
        let mut b = Bitset::new(cap);
        for &x in bits {
            b.insert(x);
        }
        b
    }

    fn v(ids: &[u32]) -> Vec<VarId> {
        ids.iter().map(|&i| VarId(i)).collect()
    }

    #[test]
    fn add_and_eval() {
        // a1 ∨ (a2 ∧ a4): the endogenous lineage shape of the running example.
        let mut d = Dnf::new();
        d.add_conjunct(v(&[0]));
        d.add_conjunct(v(&[1, 3]));
        assert_eq!(d.len(), 2);
        assert!(d.eval_set(&set(&[0], 4)));
        assert!(!d.eval_set(&set(&[1], 4)));
        assert!(d.eval_set(&set(&[1, 3], 4)));
        assert_eq!(d.vars(), v(&[0, 1, 3]));
    }

    #[test]
    fn duplicate_conjuncts_dropped() {
        let mut d = Dnf::new();
        d.add_conjunct(v(&[2, 1]));
        d.add_conjunct(v(&[1, 2]));
        d.add_conjunct(v(&[1, 2, 2]));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn minimize_absorbs_supersets() {
        let mut d = Dnf::new();
        d.add_conjunct(v(&[0]));
        d.add_conjunct(v(&[0, 1]));
        d.add_conjunct(v(&[2, 3]));
        d.minimize();
        assert_eq!(d.len(), 2);
        assert!(d.conjuncts().contains(&v(&[0])));
        assert!(d.conjuncts().contains(&v(&[2, 3])));
    }

    #[test]
    fn minimized_flag_skips_repeat_passes_and_is_not_part_of_the_value() {
        use shapdb_metrics::counters::CIRCUIT_MINIMIZE_PASSES;
        use shapdb_metrics::Profile;
        let profile = std::sync::Arc::new(Profile::new());
        let _scope = profile.enter();
        let mut d = Dnf::new();
        d.add_conjunct(v(&[0, 1]));
        d.add_conjunct(v(&[0]));
        let plain = d.clone();
        d.minimize();
        assert!(d.is_minimized() && !plain.is_minimized());
        d.minimize();
        assert_eq!(
            profile.get(&CIRCUIT_MINIMIZE_PASSES),
            1,
            "the second call is free"
        );
        // A duplicate conjunct changes nothing; a new one clears the flag.
        d.add_conjunct(v(&[0]));
        assert!(d.is_minimized());
        d.add_conjunct(v(&[2]));
        assert!(!d.is_minimized());
        d.minimize();
        assert_eq!(profile.get(&CIRCUIT_MINIMIZE_PASSES), 2);
        // Equality compares conjuncts only.
        let mut same = Dnf::from_conjuncts(vec![v(&[0]), v(&[2])]);
        assert_eq!(d, same);
        same.minimize();
        assert_eq!(d, same);
        let mut absorbed = plain;
        absorbed.minimize();
        assert_eq!(absorbed, Dnf::from_conjuncts(vec![v(&[0])]));
    }

    #[test]
    fn to_circuit_equivalence() {
        let mut d = Dnf::new();
        d.add_conjunct(v(&[0]));
        d.add_conjunct(v(&[1, 2]));
        let mut c = Circuit::new();
        let root = d.to_circuit(&mut c);
        for mask in 0u32..8 {
            let bits: Vec<usize> = (0..3).filter(|&i| mask >> i & 1 == 1).collect();
            let s = set(&bits, 3);
            assert_eq!(c.eval_set(root, &s), d.eval_set(&s), "mask {mask}");
        }
    }

    #[test]
    fn empty_dnf_is_false() {
        let d = Dnf::new();
        assert!(!d.eval_set(&set(&[], 1)));
        let mut c = Circuit::new();
        let root = d.to_circuit(&mut c);
        assert!(!c.eval_set(root, &set(&[], 1)));
    }

    #[test]
    fn display_matches_paper_style() {
        let mut d = Dnf::new();
        d.add_conjunct(v(&[0]));
        d.add_conjunct(v(&[1, 3]));
        assert_eq!(d.to_string(), "(f0) ∨ (f1 ∧ f3)");
    }
}
