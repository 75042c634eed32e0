//! Top-down decision-DNNF compilation with a cross-lineage component cache:
//! the crate's one CNF → d-DNNF compiler. Every entry point —
//! [`compile`](crate::compile()) with a cache it owns,
//! [`compile_topdown_shared`] against a caller's cache, and
//! [`compile_circuit_topdown`] on a circuit's Tseytin CNF — runs the
//! sharpSAT/GANAK-style search below:
//!
//! * **dynamic component decomposition** after every propagation fixpoint,
//!   over epoch-stamped union-find scratch (`crate::scratch::EpochScratch`);
//! * **VSADS branching with conflict-driven activity**: the static
//!   occurrence/clause-size blend of the model-counting literature, plus a
//!   dynamic activity term bumped on every propagation conflict and decayed
//!   periodically — the CDCL signal enters through branch *ordering*, which
//!   can never change the compiled function;
//! * **nogood learning as canonical caching**: a residual component that
//!   refutes (compiles to ⊥) is stored under its canonical encoding like
//!   any other, so every branch — in this compilation or any later one
//!   sharing the cache — that regenerates an isomorphic UNSAT component
//!   short-circuits without search. This is the GANAK view that component
//!   caching subsumes nogood learning. Full CDCL *clause* learning is
//!   deliberately excluded: a learned clause is implied by the conjunction
//!   of **all** components, so letting it prune inside one component can
//!   undercount when a sibling component is unsatisfiable, and the wrong
//!   count would be cached and reused where the sibling is satisfiable
//!   (the classic unsoundness Sang et al. had to patch in sharpSAT).
//!   Exactness is the contract here — Algorithm 1 consumes these circuits
//!   as ground truth — so only order-affecting learning is admitted;
//! * a **compilation-local cache** keyed by residual clause ids plus the
//!   component's variables — cheap, sound, and meaningless outside one CNF
//!   — probed first;
//! * the headline: a **[`ComponentCache`] keyed by the canonical residual
//!   component encoding**, independent of clause ids and variable names,
//!   holding portable d-DNNF fragments. Isomorphic subcomponents recur
//!   across the answers of one query (the same join gadget instantiated
//!   per answer) exactly like whole lineages recur across the PR-2
//!   fingerprint dedup — but at sub-lineage granularity, where fingerprint
//!   equality fails. Shared behind an `Arc` through the planner, one cache
//!   serves the batch, sequential, and service paths.
//!
//! # The canonical encoding
//!
//! A residual component is its clauses' unassigned literals, clauses in
//! ascending original-id order. Variables are renamed to `0..k` in first-
//! occurrence order of that scan; each clause is emitted as a length prefix
//! followed by `local·2+sign` codes. Two components get equal encodings iff
//! they are identical up to a variable renaming that preserves first-
//! occurrence order — which is exactly how Tseytin numbering shifts the
//! same sub-circuit between lineages (and between offsets within one
//! lineage). This is not full isomorphism canonization (that is
//! GI-complete); it is the cheap normal form that catches the recurrence
//! actually present in query-answer corpora.
//!
//! Hits instantiate the stored fragment into the current builder (local →
//! component variables), so a hit costs O(fragment) node interning instead
//! of exponential search. Entries are additionally keyed by a caller
//! *context* digest (`n_endo`, planner policy) so results never travel
//! between incompatible solve configurations — see
//! `ComponentCache::lookup`.

use crate::compile::{Budget, CircuitCompilation, CompileError, CompileStats};
use crate::ddnnf::{DNode, Ddnnf, DdnnfBuilder, NodeIdx};
use crate::project::project;
use crate::scratch::EpochScratch;
use shapdb_circuit::{tseytin, Circuit, Cnf, Lit, NodeId};
use shapdb_metrics::counters::{KC_COMP_CACHE_EVICTIONS, KC_COMP_CACHE_HITS, KC_COMP_CACHE_MISSES};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Fragments larger than this are not stored (a single pathological
/// component must not evict the whole cache's worth of useful entries).
const MAX_FRAGMENT_NODES: usize = 1 << 14;

/// Default total node capacity of a [`ComponentCache`] (~48 MB worst case
/// at ~24 bytes a node plus child boxes).
const DEFAULT_CAPACITY_NODES: usize = 1 << 21;

/// A portable d-DNNF node over component-local variables.
#[derive(Clone, Debug)]
enum PNode {
    True,
    False,
    Lit {
        local: u32,
        positive: bool,
    },
    And(Box<[u32]>),
    Or {
        children: Box<[u32]>,
        decision: Option<u32>,
    },
}

/// A self-contained d-DNNF fragment: nodes over local variables `0..k`
/// (children precede parents; the root is the last node).
#[derive(Debug)]
struct Fragment {
    nodes: Box<[PNode]>,
}

struct CacheEntry {
    context: u64,
    key: Box<[u32]>,
    fragment: Arc<Fragment>,
    last_used: u64,
}

struct CacheInner {
    /// Buckets by FNV-1a pre-hash of `(context, key)`; hits verify the full
    /// key (hash collisions must never conflate two functions).
    buckets: HashMap<u64, Vec<CacheEntry>>,
    stored_nodes: usize,
    entries: usize,
    tick: u64,
}

/// Point-in-time statistics of one [`ComponentCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ComponentCacheStats {
    /// Probes answered with a stored fragment.
    pub hits: u64,
    /// Probes that found no entry.
    pub misses: u64,
    /// Entries evicted (LRU) to stay under the node capacity.
    pub evictions: u64,
    /// Stored entries whose fragment is ⊥ — learned nogoods.
    pub nogoods: u64,
    /// Live entries.
    pub entries: usize,
    /// Total fragment nodes held.
    pub stored_nodes: usize,
}

/// The cross-lineage component cache: canonical residual-component encoding
/// → portable d-DNNF fragment, shareable (`Sync`) across the threads of a
/// batch or service. See the module docs for the encoding and soundness
/// story; probes and stores also feed the process-wide
/// `kc.comp_cache_{hits,misses,evictions}` counters.
#[derive(Debug)]
pub struct ComponentCache {
    inner: Mutex<CacheInner>,
    capacity_nodes: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    nogoods: AtomicU64,
}

impl std::fmt::Debug for CacheInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheInner")
            .field("entries", &self.entries)
            .field("stored_nodes", &self.stored_nodes)
            .finish()
    }
}

impl Default for ComponentCache {
    fn default() -> Self {
        ComponentCache::new()
    }
}

impl ComponentCache {
    /// A cache with the default node capacity.
    pub fn new() -> ComponentCache {
        ComponentCache::with_capacity_nodes(DEFAULT_CAPACITY_NODES)
    }

    /// A cache holding at most `capacity_nodes` fragment nodes in total.
    pub fn with_capacity_nodes(capacity_nodes: usize) -> ComponentCache {
        ComponentCache {
            inner: Mutex::new(CacheInner {
                buckets: HashMap::new(),
                stored_nodes: 0,
                entries: 0,
                tick: 0,
            }),
            capacity_nodes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            nogoods: AtomicU64::new(0),
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> ComponentCacheStats {
        let inner = self.lock();
        ComponentCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            nogoods: self.nogoods.load(Ordering::Relaxed),
            entries: inner.entries,
            stored_nodes: inner.stored_nodes,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheInner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn prehash(context: u64, key: &[u32]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a
        for part in [context as u32, (context >> 32) as u32] {
            h = (h ^ part as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        for &x in key {
            h = (h ^ x as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Probes for a fragment compiled from a component with this canonical
    /// `key` under the same caller `context`. Contexts partition the cache:
    /// a fragment stored under one `n_endo`/policy digest is invisible to
    /// every other, so results never cross solve configurations.
    fn lookup(&self, context: u64, key: &[u32]) -> Option<Arc<Fragment>> {
        let h = Self::prehash(context, key);
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let found = inner.buckets.get_mut(&h).and_then(|bucket| {
            bucket
                .iter_mut()
                .find(|e| e.context == context && *e.key == *key)
        });
        match found {
            Some(e) => {
                e.last_used = tick;
                let frag = Arc::clone(&e.fragment);
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                KC_COMP_CACHE_HITS.incr();
                Some(frag)
            }
            None => {
                drop(inner);
                self.misses.fetch_add(1, Ordering::Relaxed);
                KC_COMP_CACHE_MISSES.incr();
                None
            }
        }
    }

    /// Stores a fragment, evicting least-recently-used entries down to half
    /// capacity when full (batch eviction keeps the O(entries) scan rare).
    /// Oversized fragments and duplicate keys (two threads compiling the
    /// same component concurrently) are dropped.
    fn insert(&self, context: u64, key: Box<[u32]>, fragment: Arc<Fragment>) {
        let n = fragment.nodes.len();
        if n > MAX_FRAGMENT_NODES || n > self.capacity_nodes {
            return;
        }
        let is_nogood = matches!(fragment.nodes.last(), Some(PNode::False));
        let h = Self::prehash(context, &key);
        let mut inner = self.lock();
        if let Some(bucket) = inner.buckets.get(&h) {
            if bucket
                .iter()
                .any(|e| e.context == context && *e.key == *key)
            {
                return; // concurrent duplicate
            }
        }
        if inner.stored_nodes + n > self.capacity_nodes {
            let evicted = Self::evict_lru(&mut inner, self.capacity_nodes / 2);
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            KC_COMP_CACHE_EVICTIONS.add(evicted);
        }
        inner.tick += 1;
        let tick = inner.tick;
        inner.stored_nodes += n;
        inner.entries += 1;
        inner.buckets.entry(h).or_default().push(CacheEntry {
            context,
            key,
            fragment,
            last_used: tick,
        });
        drop(inner);
        if is_nogood {
            self.nogoods.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Evicts least-recently-used entries until at most `target_nodes`
    /// remain; returns how many entries were dropped.
    fn evict_lru(inner: &mut CacheInner, target_nodes: usize) -> u64 {
        let mut stamps: Vec<u64> = inner
            .buckets
            .values()
            .flat_map(|b| b.iter().map(|e| e.last_used))
            .collect();
        stamps.sort_unstable();
        // Find the stamp cutoff that frees enough nodes: walk oldest-first
        // summing sizes is entry-order-dependent, so instead drop entries
        // oldest-first until under target by two passes over the stamps.
        let mut evicted = 0u64;
        for &cutoff in &stamps {
            if inner.stored_nodes <= target_nodes {
                break;
            }
            for bucket in inner.buckets.values_mut() {
                if let Some(pos) = bucket.iter().position(|e| e.last_used == cutoff) {
                    let e = bucket.swap_remove(pos);
                    inner.stored_nodes -= e.fragment.nodes.len();
                    inner.entries -= 1;
                    evicted += 1;
                    break;
                }
            }
        }
        inner.buckets.retain(|_, b| !b.is_empty());
        evicted
    }
}

/// One bucket of the compilation-local component cache: every
/// (clause-id key, node) pair whose key hashes to the bucket's hash.
type LocalBucket = Vec<(Box<[u32]>, NodeIdx)>;

const UNASSIGNED: i8 = -1;

/// Conflict-activity decay period (conflicts between halvings).
const ACTIVITY_DECAY_PERIOD: u64 = 128;

struct TopDownCompiler<'a> {
    clauses: Vec<Vec<Lit>>,
    assign: Vec<i8>,
    builder: DdnnfBuilder,
    /// Compilation-local component cache (cheap clause-id keys), probed
    /// before the shared canonical cache.
    local: HashMap<u64, LocalBucket>,
    /// The canonical component cache and the caller's context digest.
    shared: (&'a ComponentCache, u64),
    stats: CompileStats,
    budget: &'a Budget,
    ticks: u32,
    /// Variable → ids of the clauses containing it.
    occurs: Vec<Vec<u32>>,
    /// Epoch-stamped per-phase state (see [`EpochScratch`]).
    scratch: EpochScratch,
    /// Conflict-driven branching activity per variable (VSADS dynamic
    /// term): bumped for every variable of a conflicting clause, halved
    /// every [`ACTIVITY_DECAY_PERIOD`] conflicts. Order-only: activity
    /// never changes the compiled function, so exactness is untouched.
    activity: Vec<u64>,
    conflicts: u64,
    /// Variables `>= aux_from` are Tseytin gate variables and are branched
    /// in preference to inputs (order-only; see [`Self::pick_branch_var`]).
    aux_from: usize,
}

impl<'a> TopDownCompiler<'a> {
    fn new(
        cnf: &Cnf,
        budget: &'a Budget,
        shared: (&'a ComponentCache, u64),
        aux_from: usize,
    ) -> TopDownCompiler<'a> {
        let clauses: Vec<Vec<Lit>> = cnf.clauses().iter().map(|c| c.lits().to_vec()).collect();
        let n_vars = cnf.num_vars();
        let mut occurs: Vec<Vec<u32>> = vec![Vec::new(); n_vars];
        for (cid, lits) in clauses.iter().enumerate() {
            for l in lits {
                occurs[l.var()].push(cid as u32);
            }
        }
        TopDownCompiler {
            assign: vec![UNASSIGNED; n_vars],
            builder: DdnnfBuilder::new(),
            local: HashMap::new(),
            shared,
            stats: CompileStats::default(),
            budget,
            ticks: 0,
            occurs,
            scratch: EpochScratch::new(clauses.len(), n_vars),
            activity: vec![0; n_vars],
            conflicts: 0,
            aux_from,
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

    /// `(satisfied?, unit literal if exactly one unassigned, count)`.
    fn examine(&self, cid: u32) -> (bool, Option<Lit>, usize) {
        let mut unassigned: Option<Lit> = None;
        let mut n_unassigned = 0;
        for &l in &self.clauses[cid as usize] {
            match self.lit_value(l) {
                1 => return (true, None, 0),
                0 => {}
                _ => {
                    n_unassigned += 1;
                    unassigned = Some(l);
                }
            }
        }
        (
            false,
            unassigned.filter(|_| n_unassigned == 1),
            n_unassigned,
        )
    }

    /// Unit propagation over the scoped clause set (occurrence-index
    /// driven: after one seeding scan only clauses of a freshly assigned
    /// variable are re-examined, and the trail doubles as the queue).
    /// Returns the id of a conflicting clause, if any, leaving
    /// the trail for the caller to unwind.
    fn propagate(
        &mut self,
        clause_ids: &[u32],
        trail: &mut Vec<usize>,
    ) -> Result<Option<u32>, CompileError> {
        let epoch = self.scratch.begin_phase();
        for &cid in clause_ids {
            self.scratch.clause_stamp[cid as usize] = epoch;
        }
        let assign_unit = |me: &mut Self, l: Lit, trail: &mut Vec<usize>| {
            me.assign[l.var()] = i8::from(l.is_positive());
            trail.push(l.var());
            me.stats.propagations += 1;
        };
        for &cid in clause_ids {
            self.check_budget()?;
            match self.examine(cid) {
                (false, _, 0) => return Ok(Some(cid)),
                (false, Some(l), _) => assign_unit(self, l, trail),
                _ => {}
            }
        }
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
                    (false, _, 0) => return Ok(Some(cid)),
                    (false, Some(l), _) => assign_unit(self, l, trail),
                    _ => {}
                }
            }
        }
        Ok(None)
    }

    /// Conflict-driven activity bump: every variable of the conflicting
    /// clause gains activity; periodic halving ages out stale conflicts.
    fn bump_conflict(&mut self, cid: u32) {
        self.conflicts += 1;
        if self.conflicts.is_multiple_of(ACTIVITY_DECAY_PERIOD) {
            for a in &mut self.activity {
                *a >>= 1;
            }
        }
        for i in 0..self.clauses[cid as usize].len() {
            let v = self.clauses[cid as usize][i].var();
            self.activity[v] += 1;
        }
    }

    /// Compiles the conjunction of `clause_ids` under the current
    /// assignment (propagate → decompose → per-component compile).
    fn compile_clauses(&mut self, clause_ids: &[u32]) -> Result<NodeIdx, CompileError> {
        self.check_budget()?;

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
        if let Some(cid) = conflict {
            self.bump_conflict(cid);
            for v in trail {
                self.assign[v] = UNASSIGNED;
            }
            return Ok(self.builder.false_node());
        }

        // Residual (active) clauses with their unassigned literals.
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
            let comps = self.scratch.split_components(&active);
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

    /// VSADS with conflict activity: per occurrence `1 + 8·2^{-|clause|}`
    /// (occurrence count blended with the Jeroslow–Wang clause-size
    /// weight), plus the variable's conflict activity. Ties break toward
    /// the smaller id, so a given compilation is deterministic.
    ///
    /// Tseytin gate variables (`>= aux_from`) are branched in strict
    /// preference to inputs ([`compile_circuit_topdown`] only; a negation
    /// CNF has no gates and no root clause). A Tseytin lineage CNF encodes
    /// an OR-of-conjuncts, so the root clause spans every conjunct's gate
    /// variable and keeps the whole formula one component until it is
    /// satisfied. Deciding a gate true satisfies that clause at once and
    /// the residual falls apart into per-conjunct components (which the
    /// canonical cache then collapses); deciding it false just shortens
    /// the clause. Branching on inputs instead strands half-decided
    /// conjuncts whose residual states multiply across the component —
    /// observed super-polynomial (~4^blocks) on disjoint-block lineages.
    /// Order-only: any branch variable is sound, so exactness is
    /// untouched.
    fn pick_branch_var(&mut self, comp: &[(u32, Vec<Lit>)]) -> usize {
        let epoch = self.scratch.begin_phase();
        self.scratch.vars_scratch.clear();
        for (_, lits) in comp {
            let w = 1.0 + 8.0 * (-(lits.len() as f64)).exp2();
            for l in lits {
                let v = l.var();
                if self.scratch.var_stamp[v] != epoch {
                    self.scratch.var_stamp[v] = epoch;
                    self.scratch.var_score[v] = self.activity[v] as f64;
                    self.scratch.vars_scratch.push(v as u32);
                }
                self.scratch.var_score[v] += w;
            }
        }
        let mut best: Option<usize> = None;
        let mut best_aux: Option<usize> = None;
        for &v in &self.scratch.vars_scratch {
            let v = v as usize;
            let slot = if v >= self.aux_from {
                &mut best_aux
            } else {
                &mut best
            };
            match *slot {
                None => *slot = Some(v),
                Some(b) => match self.scratch.var_score[v].total_cmp(&self.scratch.var_score[b]) {
                    std::cmp::Ordering::Greater => *slot = Some(v),
                    std::cmp::Ordering::Equal if v < b => *slot = Some(v),
                    _ => {}
                },
            }
        }
        best_aux.or(best).expect("components are never empty")
    }

    /// Compilation-local cache key: ascending residual clause ids, a
    /// separator, the component's sorted variables — sound because a
    /// residual clause is its original literals restricted to the
    /// unassigned variables, so two states agreeing on both lists denote
    /// the same function. Hashed once with FNV-1a so probes never re-hash
    /// the whole key.
    fn local_key(&mut self, comp: &[(u32, Vec<Lit>)]) -> (u64, Box<[u32]>) {
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

    /// The canonical clause-id-independent encoding (module docs) plus the
    /// component's variables in first-occurrence order — the local-to-
    /// global variable map fragments are stored and instantiated through.
    fn canonical_encoding(&mut self, comp: &[(u32, Vec<Lit>)]) -> (Box<[u32]>, Vec<u32>) {
        let epoch = self.scratch.begin_phase();
        let mut vars: Vec<u32> = Vec::new();
        let mut enc: Vec<u32> = Vec::with_capacity(comp.len() * 4);
        for (_, lits) in comp {
            enc.push(lits.len() as u32);
            for l in lits {
                let v = l.var();
                if self.scratch.var_stamp[v] != epoch {
                    self.scratch.var_stamp[v] = epoch;
                    self.scratch.var_slot[v] = vars.len() as u32;
                    vars.push(v as u32);
                }
                enc.push(self.scratch.var_slot[v] << 1 | u32::from(l.is_positive()));
            }
        }
        (enc.into_boxed_slice(), vars)
    }

    /// Extracts the sub-DAG rooted at `root` as a portable fragment over
    /// the component's local numbering (`vars[i]` ↔ local `i`); `None` when
    /// it exceeds the per-entry size cap.
    fn extract_fragment(&mut self, root: NodeIdx, vars: &[u32]) -> Option<Fragment> {
        let epoch = self.scratch.begin_phase();
        for (i, &v) in vars.iter().enumerate() {
            self.scratch.var_stamp[v as usize] = epoch;
            self.scratch.var_slot[v as usize] = i as u32;
        }
        let mut map: HashMap<NodeIdx, u32> = HashMap::new();
        let mut out: Vec<PNode> = Vec::new();
        let mut stack: Vec<(NodeIdx, bool)> = vec![(root, false)];
        while let Some((n, expanded)) = stack.pop() {
            if map.contains_key(&n) {
                continue;
            }
            if expanded {
                let pn = match self.builder.node(n) {
                    DNode::True => PNode::True,
                    DNode::False => PNode::False,
                    DNode::Lit(l) => {
                        debug_assert_eq!(
                            self.scratch.var_stamp[l.var()],
                            epoch,
                            "fragment literal outside component scope"
                        );
                        PNode::Lit {
                            local: self.scratch.var_slot[l.var()],
                            positive: l.is_positive(),
                        }
                    }
                    DNode::And(cs) => PNode::And(cs.iter().map(|c| map[c]).collect()),
                    DNode::Or(cs, dec) => PNode::Or {
                        children: cs.iter().map(|c| map[c]).collect(),
                        decision: dec.map(|v| self.scratch.var_slot[v as usize]),
                    },
                };
                if out.len() >= MAX_FRAGMENT_NODES {
                    return None;
                }
                map.insert(n, out.len() as u32);
                out.push(pn);
            } else {
                stack.push((n, true));
                if let DNode::And(cs) | DNode::Or(cs, _) = self.builder.node(n) {
                    for &c in cs.iter() {
                        if !map.contains_key(&c) {
                            stack.push((c, false));
                        }
                    }
                }
            }
        }
        Some(Fragment {
            nodes: out.into_boxed_slice(),
        })
    }

    /// Replays a stored fragment into this compilation's builder, mapping
    /// local variables through `vars`. Nodes were normalized by the builder
    /// that first compiled them, so raw interning preserves every
    /// structural invariant; hash-consing dedups against nodes this
    /// compilation already built.
    fn instantiate_fragment(&mut self, frag: &Fragment, vars: &[u32]) -> NodeIdx {
        let mut ids: Vec<NodeIdx> = Vec::with_capacity(frag.nodes.len());
        for pn in frag.nodes.iter() {
            let id = match pn {
                PNode::True => self.builder.true_node(),
                PNode::False => self.builder.false_node(),
                PNode::Lit { local, positive } => {
                    let v = vars[*local as usize] as usize;
                    self.builder
                        .lit(if *positive { Lit::pos(v) } else { Lit::neg(v) })
                }
                PNode::And(cs) => {
                    let kids: Box<[NodeIdx]> = cs.iter().map(|&c| ids[c as usize]).collect();
                    self.builder.intern_node(DNode::And(kids))
                }
                PNode::Or { children, decision } => {
                    let kids: Box<[NodeIdx]> = children.iter().map(|&c| ids[c as usize]).collect();
                    let dec = decision.map(|d| vars[d as usize]);
                    self.builder.intern_node(DNode::Or(kids, dec))
                }
            };
            ids.push(id);
        }
        *ids.last().expect("fragments are never empty")
    }

    /// Compiles one connected component: local cache → shared canonical
    /// cache → VSADS branch; results land in both caches.
    fn compile_component(&mut self, comp: &[(u32, Vec<Lit>)]) -> Result<NodeIdx, CompileError> {
        let (hash, key) = self.local_key(comp);
        if let Some(bucket) = self.local.get(&hash) {
            if let Some(&(_, hit)) = bucket.iter().find(|(k, _)| **k == *key) {
                self.stats.cache_hits += 1;
                return Ok(hit);
            }
        }

        let (cache, context) = self.shared;
        let (enc, vars) = self.canonical_encoding(comp);
        if let Some(frag) = cache.lookup(context, &enc) {
            let node = self.instantiate_fragment(&frag, &vars);
            self.check_budget()?;
            self.stats.shared_hits += 1;
            self.local.entry(hash).or_default().push((key, node));
            return Ok(node);
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
        self.local.entry(hash).or_default().push((key, node));

        if let Some(frag) = self.extract_fragment(node, &vars) {
            cache.insert(context, enc, Arc::new(frag));
        }
        Ok(node)
    }
}

/// [`compile`](crate::compile()) against a shared [`ComponentCache`]:
/// fragments compiled here become visible to every later compilation
/// probing with the same `context` digest, and vice versa.
pub fn compile_topdown_shared(
    cnf: &Cnf,
    budget: &Budget,
    cache: &ComponentCache,
    context: u64,
) -> Result<(Ddnnf, CompileStats), CompileError> {
    compile_topdown_with_aux(cnf, budget, cache, context, cnf.num_vars())
}

/// [`compile_topdown_shared`] that additionally treats CNF variables
/// `>= aux_from` as Tseytin gate variables, branched in preference to
/// inputs (see [`TopDownCompiler::pick_branch_var`] for why that keeps
/// lineage encodings polynomial). `aux_from == num_vars` disables the
/// preference.
fn compile_topdown_with_aux(
    cnf: &Cnf,
    budget: &Budget,
    cache: &ComponentCache,
    context: u64,
    aux_from: usize,
) -> Result<(Ddnnf, CompileStats), CompileError> {
    let mut c = TopDownCompiler::new(cnf, budget, (cache, context), aux_from);
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

/// Circuit → Tseytin CNF → compile → project (Lemma 4.6): the paper's
/// Figure 3 middle path, kept for circuits that are not monotone DNFs
/// (signed negation lineages), CNF Proxy's clause view and the oracles the
/// negation route is tested against. `shared` is the cache and context
/// digest to compile against; `None` compiles with an owned cache.
pub fn compile_circuit_topdown(
    circuit: &Circuit,
    root: NodeId,
    budget: &Budget,
    shared: Option<(&ComponentCache, u64)>,
) -> Result<CircuitCompilation, CompileError> {
    let t = tseytin(circuit, root);
    let owned;
    let (cache, context) = match shared {
        Some(pair) => pair,
        None => {
            owned = ComponentCache::new();
            (&owned, 0)
        }
    };
    let (full, stats) = compile_topdown_with_aux(&t.cnf, budget, cache, context, t.num_inputs())?;
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
    use crate::compile::compile;
    use proptest::prelude::*;

    fn check_compiled(cnf: &Cnf) -> CompileStats {
        let (d, stats) = compile(cnf, &Budget::unlimited()).unwrap();
        d.verify_decomposable().unwrap();
        d.verify_decisions().unwrap();
        d.check_determinism_sampled(50, 11).unwrap();
        assert_eq!(
            d.count_models().to_u64().unwrap(),
            cnf.count_models_bruteforce(),
            "model count mismatch for {cnf}"
        );
        stats
    }

    fn cnf_of(num_vars: usize, clauses: &[&[(usize, bool)]]) -> Cnf {
        let mut cnf = Cnf::new(num_vars);
        for c in clauses {
            cnf.push_lits(
                c.iter()
                    .map(|&(v, pos)| if pos { Lit::pos(v) } else { Lit::neg(v) })
                    .collect(),
            );
        }
        cnf
    }

    #[test]
    fn matches_bruteforce_on_basics() {
        // Example 5.1, a component split, a unit chain, an UNSAT core.
        check_compiled(&cnf_of(4, &[&[(0, true), (1, true)]]));
        check_compiled(&cnf_of(
            4,
            &[&[(0, true), (1, true)], &[(2, true), (3, true)]],
        ));
        check_compiled(&cnf_of(
            3,
            &[
                &[(0, true)],
                &[(0, false), (1, true)],
                &[(1, false), (2, true)],
            ],
        ));
        check_compiled(&cnf_of(2, &[&[(0, true)], &[(0, false)]]));
    }

    #[test]
    fn empty_and_empty_clause_cnfs() {
        let (d, _) = compile(&Cnf::new(3), &Budget::unlimited()).unwrap();
        assert_eq!(d.count_models().to_u64(), Some(8));
        let mut cnf = Cnf::new(2);
        cnf.push_lits(vec![]);
        let (d, _) = compile(&cnf, &Budget::unlimited()).unwrap();
        assert_eq!(d.count_models().to_u64(), Some(0));
    }

    #[test]
    fn budget_limits_enforced() {
        // A warm shared cache replays fragments instead of searching, and
        // the node cap still applies to what the replay builds.
        let mut cnf = Cnf::new(12);
        for i in 0..6 {
            cnf.push_lits(vec![Lit::pos(2 * i), Lit::pos(2 * i + 1)]);
            cnf.push_lits(vec![Lit::neg(2 * i), Lit::pos((2 * i + 3) % 12)]);
        }
        let cache = ComponentCache::new();
        compile_topdown_shared(&cnf, &Budget::unlimited(), &cache, 0).unwrap();
        let err = compile_topdown_shared(&cnf, &Budget::with_max_nodes(3), &cache, 0).unwrap_err();
        assert_eq!(err, CompileError::NodeLimit);
    }

    #[test]
    fn deadline_in_past_times_out() {
        // The root's propagation seed scan spends one budget tick per
        // clause, so 512 clauses cross the every-256-ticks deadline check
        // before compilation can finish — even when a warm shared cache
        // holds the whole formula.
        let mut cnf = Cnf::new(513);
        for i in 0..512 {
            cnf.push_lits(vec![Lit::pos(i), Lit::pos(i + 1)]);
        }
        let cache = ComponentCache::new();
        assert!(compile_topdown_shared(&cnf, &Budget::unlimited(), &cache, 0).is_ok());
        let budget = Budget {
            deadline: Some(Instant::now() - std::time::Duration::from_secs(1)),
            max_nodes: usize::MAX,
        };
        assert_eq!(
            compile_topdown_shared(&cnf, &budget, &cache, 0).unwrap_err(),
            CompileError::Timeout
        );
    }

    /// OR of `k` disjoint 3-variable majority blocks (non-read-once inside
    /// each block), as a CNF: per block the three majority pairs, plus the
    /// blocks chained disjunctively through Tseytin-free direct encoding is
    /// awkward — instead encode each block's majority directly as clauses
    /// and conjoin blocks, which still exercises isomorphic components.
    fn majority_blocks(k: usize) -> Cnf {
        let mut cnf = Cnf::new(3 * k);
        for b in 0..k {
            let (x, y, z) = (3 * b, 3 * b + 1, 3 * b + 2);
            // majority(x,y,z): (x∨y) ∧ (x∨z) ∧ (y∨z)
            cnf.push_lits(vec![Lit::pos(x), Lit::pos(y)]);
            cnf.push_lits(vec![Lit::pos(x), Lit::pos(z)]);
            cnf.push_lits(vec![Lit::pos(y), Lit::pos(z)]);
        }
        cnf
    }

    #[test]
    fn isomorphic_components_hit_the_canonical_cache_within_one_compile() {
        // 5 identical majority blocks at different variable offsets: the
        // local clause-id cache can never hit across them, the canonical
        // cache must (first block compiles, the other four replay).
        let cache = ComponentCache::new();
        let (d, stats) =
            compile_topdown_shared(&majority_blocks(5), &Budget::unlimited(), &cache, 7).unwrap();
        assert_eq!(d.count_models().to_u64().unwrap(), 4u64.pow(5));
        assert!(
            stats.shared_hits >= 4,
            "isomorphic blocks must hit the canonical cache: {stats:?}"
        );
        let cs = cache.stats();
        assert!(cs.hits >= 4 && cs.misses >= 1 && cs.entries >= 1);
    }

    #[test]
    fn cache_persists_across_compilations_and_respects_contexts() {
        let cache = ComponentCache::new();
        let cnf = majority_blocks(3);
        let (d1, s1) = compile_topdown_shared(&cnf, &Budget::unlimited(), &cache, 1).unwrap();
        assert!(s1.decisions > 0);
        let hits_after_first = cache.stats().hits;
        // Same context: the whole structure replays from fragments.
        let (d2, s2) = compile_topdown_shared(&cnf, &Budget::unlimited(), &cache, 1).unwrap();
        assert!(cache.stats().hits > hits_after_first);
        assert_eq!(s2.decisions, 0, "warm same-context compile must replay");
        assert!(s2.shared_hits > 0);
        // Different context: context-1 fragments are invisible, so the
        // compile replays context 1's cold run exactly — same decisions,
        // same intra-compilation hits (blocks 2–3 reusing block 1's
        // fragment stored under context 2 itself), and fresh misses.
        let miss_before = cache.stats().misses;
        let (d3, s3) = compile_topdown_shared(&cnf, &Budget::unlimited(), &cache, 2).unwrap();
        assert!(
            cache.stats().misses > miss_before,
            "different context must not hit"
        );
        assert_eq!(
            s3.decisions, s1.decisions,
            "different context must redo the cold compile's work"
        );
        assert_eq!(s3.shared_hits, s1.shared_hits);
        for d in [&d1, &d2, &d3] {
            assert_eq!(d.count_models().to_u64().unwrap(), 4u64.pow(3));
            d.verify_decomposable().unwrap();
            d.verify_decisions().unwrap();
        }
    }

    #[test]
    fn unsat_components_become_shared_nogoods() {
        // (x∨y)(x∨¬y)(¬x∨y)(¬x∨¬y) is UNSAT; shifted copies refute from
        // the cache.
        let mut cnf = Cnf::new(4);
        for b in 0..2 {
            let (x, y) = (2 * b, 2 * b + 1);
            cnf.push_lits(vec![Lit::pos(x), Lit::pos(y)]);
            cnf.push_lits(vec![Lit::pos(x), Lit::neg(y)]);
            cnf.push_lits(vec![Lit::neg(x), Lit::pos(y)]);
            cnf.push_lits(vec![Lit::neg(x), Lit::neg(y)]);
        }
        let cache = ComponentCache::new();
        let (d, _) = compile_topdown_shared(&cnf, &Budget::unlimited(), &cache, 0).unwrap();
        assert_eq!(d.count_models().to_u64(), Some(0));
        assert!(
            cache.stats().nogoods >= 1,
            "UNSAT components must be stored as nogoods: {:?}",
            cache.stats()
        );
    }

    #[test]
    fn eviction_keeps_the_cache_under_capacity() {
        // A capacity small enough that distinct blocks must evict.
        let cache = ComponentCache::with_capacity_nodes(8);
        for seed in 0..6usize {
            // Distinct functions: majority blocks with one sign flipped by
            // the seed, so every compile stores fresh fragments.
            let mut cnf = Cnf::new(3);
            cnf.push_lits(vec![Lit::pos(0), Lit::pos(1)]);
            cnf.push_lits(vec![
                Lit::pos(0),
                if seed % 2 == 0 {
                    Lit::pos(2)
                } else {
                    Lit::neg(2)
                },
            ]);
            cnf.push_lits(vec![
                if seed % 3 == 0 {
                    Lit::pos(1)
                } else {
                    Lit::neg(1)
                },
                Lit::pos(2),
            ]);
            compile_topdown_shared(&cnf, &Budget::unlimited(), &cache, seed as u64).unwrap();
        }
        let s = cache.stats();
        assert!(s.stored_nodes <= 8, "capacity violated: {s:?}");
        assert!(s.evictions > 0, "expected evictions: {s:?}");
    }

    #[test]
    fn warm_cache_skips_search_entirely() {
        let cache = ComponentCache::new();
        let cnf = majority_blocks(8);
        compile_topdown_shared(&cnf, &Budget::unlimited(), &cache, 3).unwrap();
        let (_, warm) = compile_topdown_shared(&cnf, &Budget::unlimited(), &cache, 3).unwrap();
        assert_eq!(warm.decisions, 0, "warm compile must replay fragments");
        assert!(warm.shared_hits >= 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Brute-force model counts and a well-formed d-DNNF on random
        /// CNFs. Two 5-variable halves plus optional bridging clauses
        /// straddle the decomposition boundary: empty bridge → components
        /// split at the root; bridged → splits happen only under branches.
        #[test]
        fn prop_topdown_matches_bottom_up(
            left in proptest::collection::vec(
                proptest::collection::vec((0usize..5, any::<bool>()), 1..4), 0..6),
            right in proptest::collection::vec(
                proptest::collection::vec((5usize..10, any::<bool>()), 1..4), 0..6),
            bridge in proptest::collection::vec(
                proptest::collection::vec((0usize..10, any::<bool>()), 2..4), 0..3),
        ) {
            let mut cnf = Cnf::new(10);
            for c in left.iter().chain(&right).chain(&bridge) {
                cnf.push_lits(
                    c.iter().map(|&(v, pos)| if pos { Lit::pos(v) } else { Lit::neg(v) }).collect(),
                );
            }
            let (td, _) = compile(&cnf, &Budget::unlimited()).unwrap();
            prop_assert_eq!(td.count_models().to_u64().unwrap(), cnf.count_models_bruteforce());
            prop_assert!(td.verify_decomposable().is_ok());
            prop_assert!(td.verify_decisions().is_ok());
            prop_assert!(td.check_determinism_sampled(20, 5).is_ok());
        }

        /// A shared cache warmed by one CNF never changes another CNF's
        /// compiled function (fragment reuse is semantically transparent).
        #[test]
        fn prop_shared_cache_is_semantically_transparent(
            a in proptest::collection::vec(
                proptest::collection::vec((0usize..8, any::<bool>()), 1..4), 0..8),
            b in proptest::collection::vec(
                proptest::collection::vec((0usize..8, any::<bool>()), 1..4), 0..8),
        ) {
            let mk = |cs: &Vec<Vec<(usize, bool)>>| {
                let mut cnf = Cnf::new(8);
                for c in cs {
                    cnf.push_lits(
                        c.iter().map(|&(v, pos)| if pos { Lit::pos(v) } else { Lit::neg(v) }).collect(),
                    );
                }
                cnf
            };
            let (ca, cb) = (mk(&a), mk(&b));
            let cache = ComponentCache::new();
            let (da1, _) = compile_topdown_shared(&ca, &Budget::unlimited(), &cache, 0).unwrap();
            let (db, _) = compile_topdown_shared(&cb, &Budget::unlimited(), &cache, 0).unwrap();
            let (da2, _) = compile_topdown_shared(&ca, &Budget::unlimited(), &cache, 0).unwrap();
            prop_assert_eq!(db.count_models().to_u64().unwrap(), cb.count_models_bruteforce());
            prop_assert_eq!(da1.count_models(), da2.count_models());
            prop_assert_eq!(da1.count_models().to_u64().unwrap(), ca.count_models_bruteforce());
        }
    }
}
