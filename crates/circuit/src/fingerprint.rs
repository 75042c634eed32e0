//! Canonical fingerprints of monotone DNF lineages, for structural dedup.
//!
//! Multi-answer workloads (TPC-H, IMDB/JOB) produce many output tuples whose
//! lineages are *structurally identical* — equal up to a renaming of the
//! facts. The Shapley value is equivariant under such renamings (it depends
//! only on the game, and relabeling players permutes the values the same
//! way), so a batch executor can compute each distinct structure **once**
//! and translate the values back through the renaming — the interning step
//! of the engine layer's `BatchExecutor`.
//!
//! [`fingerprint()`] canonicalizes a lineage: variables are renamed to dense
//! canonical indices `0..k`, and the conjunct set is sorted into a canonical
//! order. The resulting [`Fingerprint`] carries both the canonical conjunct
//! list (the hashable dedup key) and the canonical-index → original-fact
//! mapping. The canonical variable order comes from one of two routes:
//!
//! * **read-once lineages** (the bulk of real workload lineages — every
//!   hierarchical self-join-free answer, matchings, bipartite grids): the
//!   read-once ∧/∨ tree of a Boolean function is unique up to reordering of
//!   children, so AHU-style canonical sorting of the factorization tree
//!   yields a *complete* canonical labeling — isomorphic read-once lineages
//!   always share a fingerprint ([`ReadOnce::canonical_leaves`], whose
//!   orbits the read-once solver reads too). Its isomorphism classes are
//!   exact and ranked within the one call, with no table kept between
//!   calls, so a key is a pure function of the lineage's structure: the
//!   same on every thread, in every process, whatever was fingerprinted
//!   before it;
//! * **everything else**: Weisfeiler–Lehman-style color refinement on the
//!   variable/conjunct incidence structure, ties broken by original id —
//!   best-effort completeness (rare WL-indistinguishable asymmetric pairs
//!   may fingerprint apart, a missed dedup).
//!
//! **Soundness** (what correctness rests on): two lineages with equal keys
//! are both mapped onto the *same* canonical DNF by their respective
//! mappings, hence they are isomorphic to each other, and values computed on
//! the canonical DNF translate exactly through each mapping. This holds no
//! matter how ties are broken in either route.

use crate::circuit::VarId;
use crate::dnf::Dnf;
use crate::readonce::{factor_minimized, ReadOnce};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// The dedup key: the canonical conjunct list over dense canonical variables
/// (each conjunct sorted, conjuncts sorted lexicographically).
pub type FingerprintKey = Vec<Vec<u32>>;

/// A lineage's canonical form plus the renaming back to its own facts.
///
/// Canonicalizing requires minimizing and (attempting to) factor the
/// lineage, so the fingerprint keeps the factoring verdict: when the
/// lineage is read-once, [`Fingerprint::tree`] is its factorization
/// relabeled onto the canonical variables. Downstream solvers (the engine
/// layer's planner and batch executor) consume the tree and the minimized
/// canonical DNF ([`Fingerprint::canonical_dnf`], rebuilt from the key on
/// demand — once per *distinct* structure, not stored per task) instead of
/// minimizing/factoring a second time.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Fingerprint {
    /// Shared so downstream cache keys clone an `Arc`, not the conjunct
    /// list (`Arc<T>` hashes and compares through to `T`).
    key: std::sync::Arc<FingerprintKey>,
    /// `vars[i]` = the original fact renamed to canonical variable `i`.
    vars: Vec<VarId>,
    /// The canonical read-once tree (leaves are canonical variables), when
    /// the lineage factors; `None` means the lineage is **not** read-once
    /// (factoring was attempted during canonicalization).
    tree: Option<ReadOnce>,
}

impl Fingerprint {
    /// The canonical conjunct list (the hashable dedup key).
    pub fn key(&self) -> &FingerprintKey {
        &self.key
    }

    /// The key behind a shared handle — what long-lived cache keys store
    /// (hashes/compares exactly like the plain key).
    pub fn shared_key(&self) -> std::sync::Arc<FingerprintKey> {
        std::sync::Arc::clone(&self.key)
    }

    /// Consumes the fingerprint, returning `(key, mapping)`.
    pub fn into_parts(self) -> (FingerprintKey, Vec<VarId>) {
        let key = std::sync::Arc::try_unwrap(self.key).unwrap_or_else(|a| (*a).clone());
        (key, self.vars)
    }

    /// Number of distinct variables of the (minimized) lineage.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// The original fact behind canonical variable `canonical`.
    pub fn var_of(&self, canonical: u32) -> VarId {
        self.vars[canonical as usize]
    }

    /// Canonical-index → original-fact mapping.
    pub fn vars(&self) -> &[VarId] {
        &self.vars
    }

    /// The minimized canonical DNF (over variables `0..num_vars()`),
    /// rebuilt from the key. Call once per distinct structure, not per
    /// task.
    pub fn canonical_dnf(&self) -> Dnf {
        let mut d = Dnf::new();
        for conj in self.key.iter() {
            d.add_conjunct(conj.iter().map(|&v| VarId(v)).collect());
        }
        d
    }

    /// The read-once factorization of the canonical DNF, if the lineage is
    /// read-once. `None` is authoritative: factoring was already attempted,
    /// so callers must not try again.
    pub fn tree(&self) -> Option<&ReadOnce> {
        self.tree.as_ref()
    }
}

fn mix(parts: &[u64]) -> u64 {
    let mut h = DefaultHasher::new();
    parts.hash(&mut h);
    h.finish()
}

/// Canonicalizes a monotone DNF lineage (see the module docs).
///
/// The lineage is minimized first (no clone and no pass when it already
/// is), so absorption-equivalent inputs share a fingerprint; constants fingerprint as the empty (`⊥`) or the
/// single-empty-conjunct (`⊤`) key with no variables.
pub fn fingerprint(lineage: &Dnf) -> Fingerprint {
    if lineage.is_minimized() {
        return fingerprint_minimized(lineage);
    }
    let mut d = lineage.clone();
    d.minimize();
    fingerprint_minimized(&d)
}

/// [`fingerprint()`] for a lineage the caller has **already**
/// absorption-minimized (skips the clone + minimize pass), as
/// [`factor_minimized`] does for factoring. An unminimized input may
/// fingerprint apart from its minimized form and miss its read-once tree.
pub fn fingerprint_minimized(d: &Dnf) -> Fingerprint {
    if let Some(tree) = factor_minimized(d) {
        // Complete canonical labeling from the (unique) read-once tree.
        let ordered = tree.canonical_leaves().order;
        return build(d, ordered, Some(tree));
    }
    wl_fingerprint(d)
}

/// Builds the fingerprint of a minimized DNF from a canonical variable
/// order (`ordered[i]` = the original fact renamed to canonical index `i`)
/// and the read-once tree over the *original* variables, when one exists.
fn build(d: &Dnf, ordered: Vec<VarId>, tree: Option<ReadOnce>) -> Fingerprint {
    let canonical_of: HashMap<VarId, u32> = ordered
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, i as u32))
        .collect();
    let mut key: FingerprintKey = d
        .conjuncts()
        .iter()
        .map(|c| {
            let mut mapped: Vec<u32> = c.iter().map(|v| canonical_of[v]).collect();
            mapped.sort_unstable();
            mapped
        })
        .collect();
    key.sort_unstable();
    let tree = tree.map(|t| relabel(&t, &canonical_of));
    Fingerprint {
        key: std::sync::Arc::new(key),
        vars: ordered,
        tree,
    }
}

/// Relabels a read-once tree's leaves onto the canonical variables.
fn relabel(tree: &ReadOnce, canonical_of: &HashMap<VarId, u32>) -> ReadOnce {
    match tree {
        ReadOnce::True => ReadOnce::True,
        ReadOnce::False => ReadOnce::False,
        ReadOnce::Var(v) => ReadOnce::Var(VarId(canonical_of[v])),
        ReadOnce::And(cs) => ReadOnce::And(cs.iter().map(|c| relabel(c, canonical_of)).collect()),
        ReadOnce::Or(cs) => ReadOnce::Or(cs.iter().map(|c| relabel(c, canonical_of)).collect()),
    }
}

/// The refinement fallback for non-read-once lineages.
fn wl_fingerprint(d: &Dnf) -> Fingerprint {
    let orig_vars = d.vars();
    let n = orig_vars.len();
    let rank = |v: VarId| orig_vars.binary_search(&v).expect("ranked var");
    // Dense conjuncts + per-variable occurrence lists.
    let conjs: Vec<Vec<usize>> = d
        .conjuncts()
        .iter()
        .map(|c| c.iter().map(|&v| rank(v)).collect())
        .collect();
    let mut occ: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (ci, c) in conjs.iter().enumerate() {
        for &v in c {
            occ[v].push(ci);
        }
    }

    // Initial color: the multiset of sizes of the conjuncts a variable
    // appears in (which already encodes its occurrence count).
    let mut color: Vec<u64> = (0..n)
        .map(|v| {
            let mut sizes: Vec<u64> = occ[v].iter().map(|&ci| conjs[ci].len() as u64).collect();
            sizes.sort_unstable();
            mix(&sizes)
        })
        .collect();

    // Refinement: a variable's color absorbs the color-multisets of the
    // conjuncts it appears in. Stop when the partition stops splitting.
    let mut classes = distinct_count(&color);
    loop {
        let conj_sig: Vec<u64> = conjs
            .iter()
            .map(|c| {
                let mut member_colors: Vec<u64> = c.iter().map(|&v| color[v]).collect();
                member_colors.sort_unstable();
                mix(&member_colors)
            })
            .collect();
        let next: Vec<u64> = (0..n)
            .map(|v| {
                let mut sigs: Vec<u64> = occ[v].iter().map(|&ci| conj_sig[ci]).collect();
                sigs.sort_unstable();
                sigs.push(color[v]);
                mix(&sigs)
            })
            .collect();
        let next_classes = distinct_count(&next);
        color = next;
        if next_classes <= classes || next_classes == n {
            classes = next_classes;
            break;
        }
        classes = next_classes;
    }
    let _ = classes;

    // Canonical order: by final color, ties by original id (deterministic;
    // fully symmetric variables produce the same key either way).
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&v| (color[v], v));
    build(d, order.iter().map(|&v| orig_vars[v]).collect(), None)
}

fn distinct_count(colors: &[u64]) -> usize {
    let mut sorted = colors.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::readonce::factor;
    use proptest::prelude::*;
    use shapdb_num::Bitset;

    fn dnf(conjs: &[&[u32]]) -> Dnf {
        let mut d = Dnf::new();
        for c in conjs {
            d.add_conjunct(c.iter().map(|&v| VarId(v)).collect());
        }
        d
    }

    /// The original lineage, evaluated through the fingerprint's mapping,
    /// must equal the canonical DNF on every assignment of canonical vars.
    fn mapping_is_isomorphism(original: &Dnf, fp: &Fingerprint) {
        let k = fp.num_vars();
        assert!(k <= 16, "test helper limited to 16 vars");
        let canonical = fp.canonical_dnf();
        let max_orig = original.vars().last().map_or(1, |v| v.index() + 1);
        for mask in 0u64..(1 << k) {
            let mut canon_set = Bitset::new(k.max(1));
            let mut orig_set = Bitset::new(max_orig);
            for i in 0..k {
                if mask >> i & 1 == 1 {
                    canon_set.insert(i);
                    orig_set.insert(fp.var_of(i as u32).index());
                }
            }
            assert_eq!(
                canonical.eval_set(&canon_set),
                original.eval_set(&orig_set),
                "mask {mask:b}"
            );
        }
    }

    #[test]
    fn renamed_running_example_shares_fingerprint() {
        let a = dnf(&[&[0], &[1, 3], &[1, 4], &[2, 3], &[2, 4], &[5, 6]]);
        // Same structure under the renaming 0..6 → 10,20,..,70 (shuffled).
        let b = dnf(&[&[70], &[40, 20], &[40, 60], &[10, 20], &[10, 60], &[30, 50]]);
        let fa = fingerprint(&a);
        let fb = fingerprint(&b);
        assert_eq!(fa.key(), fb.key());
        mapping_is_isomorphism(&a, &fa);
        mapping_is_isomorphism(&b, &fb);
    }

    #[test]
    fn different_structures_differ() {
        let majority = dnf(&[&[0, 1], &[1, 2], &[0, 2]]);
        let path = dnf(&[&[0, 1], &[1, 2]]);
        let chain = dnf(&[&[0, 1], &[2, 3]]);
        assert_ne!(fingerprint(&majority).key(), fingerprint(&path).key());
        assert_ne!(fingerprint(&path).key(), fingerprint(&chain).key());
    }

    #[test]
    fn absorption_equivalent_lineages_share_fingerprint() {
        let a = dnf(&[&[0], &[0, 1], &[2, 3]]);
        let b = dnf(&[&[5], &[8, 9]]);
        assert_eq!(fingerprint(&a).key(), fingerprint(&b).key());
    }

    #[test]
    fn constants() {
        let bot = Dnf::new();
        let mut top = Dnf::new();
        top.add_conjunct(vec![]);
        assert_eq!(fingerprint(&bot).key(), &Vec::<Vec<u32>>::new());
        assert_eq!(fingerprint(&top).key(), &vec![Vec::<u32>::new()]);
        assert_eq!(fingerprint(&bot).num_vars(), 0);
        assert_eq!(fingerprint(&top).num_vars(), 0);
        assert_ne!(fingerprint(&bot).key(), fingerprint(&top).key());
    }

    #[test]
    fn asymmetric_variables_map_consistently() {
        // x0 ∨ (x1 ∧ x2): the singleton variable must map to the same
        // canonical index in both copies so values transfer correctly.
        let a = dnf(&[&[7], &[3, 5]]);
        let b = dnf(&[&[100], &[900, 901]]);
        let fa = fingerprint(&a);
        let fb = fingerprint(&b);
        assert_eq!(fa.key(), fb.key());
        // The canonical index holding the singleton var:
        let singleton_a = fa.vars().iter().position(|&v| v == VarId(7)).unwrap();
        let singleton_b = fb.vars().iter().position(|&v| v == VarId(100)).unwrap();
        assert_eq!(singleton_a, singleton_b);
        mapping_is_isomorphism(&a, &fa);
        mapping_is_isomorphism(&b, &fb);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_renaming_preserves_fingerprint(
            conjuncts in proptest::collection::vec(
                proptest::collection::vec(0u32..8, 1..4), 1..6),
            seed in any::<u64>(),
        ) {
            let mut a = Dnf::new();
            for c in &conjuncts {
                a.add_conjunct(c.iter().map(|&v| VarId(v)).collect());
            }
            // A deterministic pseudo-random permutation of the ids.
            let mut perm: Vec<u32> = (0..8).collect();
            let mut state = seed | 1;
            for i in (1..perm.len()).rev() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let j = (state >> 33) as usize % (i + 1);
                perm.swap(i, j);
            }
            let mut b = Dnf::new();
            for c in &conjuncts {
                b.add_conjunct(c.iter().map(|&v| VarId(perm[v as usize])).collect());
            }
            let fa = fingerprint(&a);
            let fb = fingerprint(&b);
            // Soundness holds unconditionally; key equality under renaming is
            // guaranteed for read-once lineages (the tree route is complete).
            mapping_is_isomorphism(&a, &fa);
            mapping_is_isomorphism(&b, &fb);
            if factor(&a).is_some() {
                prop_assert_eq!(fa.key(), fb.key());
            }
        }
    }

    #[test]
    fn carried_tree_and_canonical_dnf_agree() {
        // Read-once lineage: the fingerprint carries the factorization,
        // relabeled onto the canonical variables — the tree and the
        // canonical DNF must be the same Boolean function.
        let a = dnf(&[&[70], &[40, 20], &[40, 60], &[10, 20], &[10, 60], &[30, 50]]);
        let fp = fingerprint(&a);
        let tree = fp.tree().expect("read-once lineage carries its tree");
        assert!(tree.is_well_formed());
        let canonical = fp.canonical_dnf();
        let k = fp.num_vars();
        for mask in 0u64..(1 << k) {
            let mut set = Bitset::new(k);
            for i in 0..k {
                if mask >> i & 1 == 1 {
                    set.insert(i);
                }
            }
            assert_eq!(
                tree.eval_set(&set),
                canonical.eval_set(&set),
                "mask {mask:b}"
            );
        }
        // Non-read-once lineages carry no tree — and that `None` is
        // authoritative (majority really does not factor).
        let majority = dnf(&[&[0, 1], &[1, 2], &[0, 2]]);
        assert!(fingerprint(&majority).tree().is_none());
    }

    #[test]
    fn read_once_key_ignores_what_was_fingerprinted_before() {
        // L0 puts the shape `x ∨ y` first; L1's key must not move.
        let l1 = dnf(&[&[1, 2], &[3, 4], &[3, 5]]);
        let l0 = dnf(&[&[10, 11], &[10, 12]]);
        let expect: FingerprintKey = vec![vec![0, 1], vec![2, 3], vec![2, 4]];
        assert_eq!(fingerprint(&l1).key(), &expect);
        let _ = fingerprint(&l0);
        assert_eq!(fingerprint(&l1).key(), &expect);
    }

    /// Named after the process-global shape table this once checked; keys
    /// are now computed per call, and what still holds is that isomorphic
    /// lineages share a key whatever the call order.
    #[test]
    fn interned_shapes_are_reused_across_calls() {
        let a = dnf(&[&[0], &[1, 3], &[1, 4], &[2, 3], &[2, 4], &[5, 6]]);
        let b = dnf(&[&[70], &[40, 20], &[40, 60], &[10, 20], &[10, 60], &[30, 50]]);
        let other = dnf(&[&[0, 1], &[0, 2], &[3]]);
        let fa = fingerprint(&a);
        let _ = fingerprint(&other);
        let fb = fingerprint(&b);
        assert_eq!(fa.key(), fb.key());
        assert_eq!(fingerprint(&b).key(), fingerprint(&a).key());
    }

    /// Named after the process-global shape table this once checked; keys
    /// are now computed per call, and what still holds is that isomorphic
    /// lineages share a key whatever thread fingerprints them.
    #[test]
    fn interned_ordering_is_consistent_across_threads() {
        let copies: Vec<Dnf> = (0..8u32)
            .map(|i| {
                let base = i * 100;
                dnf(&[
                    &[base],
                    &[base + 1, base + 3],
                    &[base + 1, base + 4],
                    &[base + 2, base + 3],
                    &[base + 2, base + 4],
                    &[base + 5, base + 6],
                ])
            })
            .collect();
        let keys: Vec<FingerprintKey> = std::thread::scope(|s| {
            let handles: Vec<_> = copies
                .iter()
                .map(|d| s.spawn(move || fingerprint(d).key().clone()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for k in &keys[1..] {
            assert_eq!(k, &keys[0]);
        }
        for (d, fp) in copies.iter().map(|d| (d, fingerprint(d))) {
            mapping_is_isomorphism(d, &fp);
        }
    }

    #[test]
    fn matching_with_crossed_pairing_dedups() {
        // (r0∧s0)∨(r1∧s1) vs a copy whose pairing crosses the id order —
        // the case a naive id-tie-break canonicalization misses.
        let a = dnf(&[&[0, 10], &[1, 11]]);
        let b = dnf(&[&[0, 21], &[1, 20]]);
        let fa = fingerprint(&a);
        let fb = fingerprint(&b);
        assert_eq!(fa.key(), fb.key());
        mapping_is_isomorphism(&a, &fa);
        mapping_is_isomorphism(&b, &fb);
    }

    #[test]
    fn non_read_once_symmetric_renaming_dedups() {
        // Majority is not read-once; its full symmetry makes the WL route
        // complete here.
        let a = dnf(&[&[0, 1], &[1, 2], &[0, 2]]);
        let b = dnf(&[&[7, 5], &[5, 9], &[9, 7]]);
        let fa = fingerprint(&a);
        let fb = fingerprint(&b);
        assert_eq!(fa.key(), fb.key());
        mapping_is_isomorphism(&a, &fa);
        mapping_is_isomorphism(&b, &fb);
    }
}
