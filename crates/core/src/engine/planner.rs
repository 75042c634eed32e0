//! The cost-based planner: which engine should solve which lineage?
//!
//! The routing decision the paper leaves implicit is a first-class,
//! testable component here. The cost model, cheapest first:
//!
//! 1. **constant lineages** are free — route to the read-once engine, which
//!    answers `⊤`/`⊥` without work;
//! 2. **read-once lineages** cost `O(Σ_f depth(f)·fanin·m)` big-int ops —
//!    microseconds; detected by factorization (`O(|D|·|V|²)`), or *known in
//!    advance* when the query is hierarchical and self-join-free
//!    ([`shapdb_query::hierarchical`], the Livshits et al. tractability
//!    frontier the paper's §3 recalls). If a hierarchical-and-sjf query ever
//!    produces a non-factorizable lineage, that is a theory violation —
//!    counted in `planner.hierarchical_disagreements`, which must stay 0;
//! 3. **naive enumeration** costs `O(2ⁿ · |DNF|)` — for tiny non-read-once
//!    lineages (≤ [`PlannerConfig::max_naive_vars`] minimized variables,
//!    default 10) the `2ⁿ ≤ 1024` evaluations undercut building and
//!    compiling a CNF (the cutoff was measured against the Tseytin
//!    encoding, not the negation CNF the KC route compiles now);
//! 4. **knowledge compilation** is `FP^{#P}`-hard in the worst case; it is
//!    admitted while the lineage's variable/conjunct counts stay within the
//!    configured budget, and runs under the planner's per-lineage timeout;
//! 5. otherwise (or when an admitted exact engine exceeds its budget) the
//!    **fallback** engine — CNF Proxy by default, a ranking in
//!    milliseconds — takes over, iff the policy allows inexact answers.

use super::cache::{CacheKey, ShapleyCache};
use super::engines::{CompileSlot, KcEngine as KcEngineImpl};
use super::{EngineError, EngineKind, EngineResult, LineageTask, Measure, ReadOnceEngine};
use shapdb_circuit::{factor_minimized, Dnf, Fingerprint, ReadOnce};
use shapdb_kc::{Budget, ComponentCache};
use shapdb_metrics::counters::{
    ENGINE_RUNS, PLANNER_HIERARCHICAL_DISAGREEMENTS, PLANNER_KC_ROUTES, PLANNER_KC_TOPDOWN_ROUTES,
    PLANNER_NAIVE_ROUTES, PLANNER_READ_ONCE_ROUTES,
};
use shapdb_query::{is_hierarchical, is_self_join_free, Ucq};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Naive-enumeration admission: max (minimized) conjuncts — each of the
/// `2ⁿ` evaluations scans the whole DNF, so wide lineages pay more per mask
/// than the compiled circuit would. `Planner::cache_digest` hashes it
/// between `max_naive_vars` and [`RETIRED_TOPDOWN_MIN_VARS`]: dropping or
/// moving it would change every cache key and orphan every persisted
/// record.
const MAX_NAIVE_CONJUNCTS: usize = 64;

/// The default of a retired planner knob — the width past which KC
/// lineages once compiled with a second compiler. Every KC lineage now
/// compiles with the one compiler, but `Planner::cache_digest` still
/// hashes this value at the knob's position, so cache keys and persisted
/// records from before the knob was retired stay valid.
const RETIRED_TOPDOWN_MIN_VARS: usize = 48;

/// Planner policy knobs.
#[derive(Clone, Copy, Debug)]
pub struct PlannerConfig {
    /// Route everything to one engine, skipping classification.
    pub force: Option<EngineKind>,
    /// Knowledge-compilation admission: max distinct lineage variables.
    /// Lineages beyond the admission budget go straight to the fallback
    /// (when one is set) *without* attempting compilation — unlike the
    /// paper's hybrid, which always paid the timeout on hopeless lineages.
    /// Set to `usize::MAX` to recover the always-try behaviour.
    pub max_kc_vars: usize,
    /// Knowledge-compilation admission: max lineage conjuncts (same
    /// semantics as [`PlannerConfig::max_kc_vars`]).
    pub max_kc_conjuncts: usize,
    /// Naive-enumeration admission: non-read-once lineages with at most
    /// this many (minimized) variables route to `O(2ⁿ)` enumeration, which
    /// beats compilation + Algorithm 1 below ~10 variables.
    /// `0` disables the route (every non-read-once lineage goes to KC).
    /// Values beyond the naive engine's own enumeration cap (25) make the
    /// route fail rather than enumerate forever.
    pub max_naive_vars: usize,
    /// Per-lineage deadline for the exact engines (KC + Algorithm 1).
    /// `None` = no deadline (callers' own budgets still apply).
    pub timeout: Option<Duration>,
    /// Engine to run when the planned engine is inadmissible or fails.
    /// `None` = exact mode: errors propagate to the caller.
    pub fallback: Option<EngineKind>,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            force: None,
            // The top-down compiler's component cache tames the wide
            // non-read-once lineages the old 128-variable cap excluded.
            max_kc_vars: 1024,
            max_kc_conjuncts: 4096,
            max_naive_vars: 10,
            timeout: None,
            fallback: None,
        }
    }
}

impl PlannerConfig {
    /// The §6.3 hybrid policy: exact under `timeout`, CNF-Proxy ranking as
    /// the fallback.
    pub fn hybrid(timeout: Duration) -> PlannerConfig {
        PlannerConfig {
            timeout: Some(timeout),
            fallback: Some(EngineKind::Proxy),
            ..Default::default()
        }
    }
}

/// Why the planner picked an engine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PlanReason {
    /// [`PlannerConfig::force`] was set.
    Forced,
    /// The lineage is constant (`⊤`/`⊥`): no players, any engine is free.
    TrivialConstant,
    /// The lineage factorized into a read-once tree.
    ReadOnce,
    /// The query is hierarchical and self-join-free, so the lineage is
    /// guaranteed read-once (and did factorize).
    HierarchicalReadOnce,
    /// Non-read-once but tiny: `O(2ⁿ)` enumeration beats factorization +
    /// compilation below [`PlannerConfig::max_naive_vars`] variables.
    TinyNaive,
    /// The KC route: within the KC variable/conjunct admission budget, so
    /// the lineage's negation compiles against the planner's component
    /// cache and Algorithm 1 runs on the d-DNNF.
    KcWideTopDown,
    /// Beyond the admission budget: routed to the fallback engine (or to KC
    /// regardless, in exact mode).
    OverKcBudget,
    /// Never solved: the top-k executor pruned the structure because its
    /// cheap Shapley upper bound fell strictly below the k-th best exact
    /// score already in hand.
    TopKPruned,
}

/// A per-tuple routing decision.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Plan {
    pub engine: EngineKind,
    pub reason: PlanReason,
    /// The measure that drove the routing: non-Shapley measures disable
    /// proxy/sampling fallbacks (those engines estimate Shapley only), so
    /// the same lineage can legitimately route differently per measure.
    pub measure: Measure,
}

/// What the planner knows about the query that produced the lineages.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct QueryClass {
    /// The UCQ has a single disjunct.
    pub single_disjunct: bool,
    /// No relation repeats among that disjunct's atoms.
    pub self_join_free: bool,
    /// The disjunct is hierarchical over its existential variables.
    pub hierarchical: bool,
}

impl QueryClass {
    /// Classifies a UCQ with [`shapdb_query::hierarchical`]'s tests.
    pub fn of(q: &Ucq) -> QueryClass {
        let ds = q.disjuncts();
        let single = ds.len() == 1;
        QueryClass {
            single_disjunct: single,
            self_join_free: single && is_self_join_free(&ds[0]),
            hierarchical: single && is_hierarchical(&ds[0]),
        }
    }

    /// True iff theory guarantees every answer's lineage is read-once
    /// (hierarchical self-join-free CQ — Livshits et al.).
    pub fn guarantees_read_once(&self) -> bool {
        self.single_disjunct && self.self_join_free && self.hierarchical
    }
}

/// Routes lineages to engines (see the module docs for the cost model).
#[derive(Clone, Debug, Default)]
pub struct Planner {
    pub cfg: PlannerConfig,
    query: Option<QueryClass>,
    /// The cross-query result cache, shared with every clone of this
    /// planner (the batch executor's and the facade's views are the same
    /// cache).
    cache: Option<Arc<ShapleyCache>>,
    /// The cross-lineage *component* cache the top-down compiler shares:
    /// canonical residual components compiled under one lineage replay
    /// under every other lineage this planner (or any clone) compiles —
    /// the sub-lineage analogue of the fingerprint dedup.
    component_cache: Option<Arc<ComponentCache>>,
}

impl Planner {
    /// A planner with the given policy and no query knowledge.
    pub fn new(cfg: PlannerConfig) -> Planner {
        Planner {
            cfg,
            query: None,
            cache: None,
            component_cache: None,
        }
    }

    /// A planner that additionally knows which query produced the lineages,
    /// unlocking the hierarchical guarantee.
    pub fn for_query(cfg: PlannerConfig, q: &Ucq) -> Planner {
        Planner {
            cfg,
            query: Some(QueryClass::of(q)),
            cache: None,
            component_cache: None,
        }
    }

    /// Attaches a cross-query result cache: exact results of structurally
    /// identical lineages are computed once and served from the cache on
    /// every later [`Planner::solve`] (and batch run), across queries.
    pub fn with_cache(mut self, cache: Arc<ShapleyCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attaches a shared component cache for the top-down compiler: d-DNNF
    /// fragments of canonical residual components persist across every
    /// lineage this planner (and every clone — the batch, sequential, and
    /// service paths all share it) compiles top-down. Entries are
    /// segregated by a context digest of `n_endo` and the solve policy
    /// (`Planner::component_context`), so a fragment never crosses
    /// incompatible configurations.
    pub fn with_component_cache(mut self, cache: Arc<ComponentCache>) -> Self {
        self.component_cache = Some(cache);
        self
    }

    /// The attached result cache, if any.
    pub fn cache(&self) -> Option<&Arc<ShapleyCache>> {
        self.cache.as_ref()
    }

    /// The attached component cache, if any.
    pub fn component_cache(&self) -> Option<&Arc<ComponentCache>> {
        self.component_cache.as_ref()
    }

    /// The query classification, if any.
    pub fn query_class(&self) -> Option<QueryClass> {
        self.query
    }

    /// Emits the routing decision for one lineage (Shapley measure).
    pub fn plan(&self, lineage: &Dnf) -> Plan {
        self.plan_measure(lineage, Measure::Shapley)
    }

    /// Emits the routing decision for one lineage under a specific measure.
    /// The ladder is the same for all four measures (read-once is PTIME for
    /// every one; the KC admission caps bound the same compilation), but a
    /// non-Shapley measure disables proxy/sampling fallbacks — those
    /// engines estimate Shapley values only.
    pub fn plan_measure(&self, lineage: &Dnf, measure: Measure) -> Plan {
        self.plan_with_tree(lineage, measure).0
    }

    /// [`Planner::plan_measure`], also returning the read-once
    /// factorization when classification built one — [`Planner::solve`]
    /// hands it to the engine so the lineage is not factored twice.
    ///
    /// Minimizes first (the same pass `factor` would run internally), so
    /// classification — including the KC admission counts — always sees
    /// the prime-implicant form, exactly like the fingerprint route: a
    /// planner routes one lineage identically with or without a cache.
    fn plan_with_tree(&self, lineage: &Dnf, measure: Measure) -> (Plan, Option<ReadOnce>) {
        if let Some(engine) = self.cfg.force {
            return (
                Plan {
                    engine,
                    reason: PlanReason::Forced,
                    measure,
                },
                None,
            );
        }
        let mut d = lineage.clone();
        d.minimize();
        let tree = factor_minimized(&d);
        let plan = self.classify(tree.as_ref(), d.vars().len(), d.len(), measure);
        (plan, tree)
    }

    /// The one copy of the routing ladder below `force`: trivial constant →
    /// read-once → tiny-naive enumeration → KC admission by
    /// variable/conjunct counts → fallback.
    /// `tree` is the factoring verdict on the *minimized* lineage
    /// (authoritative either way); `vars`/`conjuncts` count the minimized
    /// form too.
    fn classify(
        &self,
        tree: Option<&ReadOnce>,
        vars: usize,
        conjuncts: usize,
        measure: Measure,
    ) -> Plan {
        match tree {
            Some(ReadOnce::True) | Some(ReadOnce::False) => Plan {
                engine: EngineKind::ReadOnce,
                reason: PlanReason::TrivialConstant,
                measure,
            },
            Some(_) => {
                PLANNER_READ_ONCE_ROUTES.incr();
                let reason = if self.query.is_some_and(|c| c.guarantees_read_once()) {
                    PlanReason::HierarchicalReadOnce
                } else {
                    PlanReason::ReadOnce
                };
                Plan {
                    engine: EngineKind::ReadOnce,
                    reason,
                    measure,
                }
            }
            None => {
                if self.query.is_some_and(|c| c.guarantees_read_once()) {
                    // Theory says hierarchical + self-join-free ⇒ read-once;
                    // a lineage that does not factor means a bug somewhere.
                    // Count it (tests pin this at zero) and fall through to
                    // the safe engine.
                    PLANNER_HIERARCHICAL_DISAGREEMENTS.incr();
                }
                if vars <= self.cfg.max_naive_vars && conjuncts <= MAX_NAIVE_CONJUNCTS {
                    // Tiny non-factorizable lineage: 2ⁿ evaluations are
                    // cheaper than building + compiling a negation CNF.
                    PLANNER_NAIVE_ROUTES.incr();
                    return Plan {
                        engine: EngineKind::Naive,
                        reason: PlanReason::TinyNaive,
                        measure,
                    };
                }
                if vars <= self.cfg.max_kc_vars && conjuncts <= self.cfg.max_kc_conjuncts {
                    // Both counters move on every KC route: readers of the
                    // older top-down/bottom-up split subtract them.
                    PLANNER_KC_ROUTES.incr();
                    PLANNER_KC_TOPDOWN_ROUTES.incr();
                    Plan {
                        engine: EngineKind::Kc,
                        reason: PlanReason::KcWideTopDown,
                        measure,
                    }
                } else {
                    // A fallback that cannot compute the measure is no
                    // fallback at all: the over-budget non-Shapley route
                    // runs KC regardless, exactly like exact mode.
                    let fallback = self.cfg.fallback.filter(|fb| fb.supports_measure(measure));
                    Plan {
                        engine: fallback.unwrap_or(EngineKind::Kc),
                        reason: PlanReason::OverKcBudget,
                        measure,
                    }
                }
            }
        }
    }

    /// Plans one *canonical* lineage from its fingerprint — no factoring,
    /// no minimizing: the fingerprint already carries both by-products
    /// ([`Fingerprint::tree`] is authoritative either way). Same ladder as
    /// [`Planner::plan`] (both delegate to `classify`).
    pub(crate) fn plan_fp(&self, fp: &Fingerprint, measure: Measure) -> Plan {
        if let Some(engine) = self.cfg.force {
            return Plan {
                engine,
                reason: PlanReason::Forced,
                measure,
            };
        }
        self.classify(fp.tree(), fp.num_vars(), fp.key().len(), measure)
    }

    /// Plans and solves one lineage, applying the per-lineage timeout and
    /// the fallback policy. The timeout bounds **every exact engine** —
    /// knowledge compilation, the `O(2ⁿ)` naive enumeration (a forced
    /// `naive` on a large lineage must not run unbounded), and the
    /// polynomial read-once path (where it practically never fires) — while
    /// fallback engines run without it: a ranking is always better than an
    /// error.
    ///
    /// With a [`Planner::with_cache`] cache attached, the lineage is
    /// fingerprinted, planned and solved through the same per-structure
    /// path batch groups and resident-service workers run
    /// (`stages::solve_one` → `Planner::solve_structure`): exact results
    /// are served from / stored into the cache, translated exactly through
    /// the renaming.
    pub fn solve(&self, task: &LineageTask) -> Result<EngineResult, EngineError> {
        super::stages::solve_one(self, task)
    }

    /// Solves the canonical structure behind `fp` under already-made
    /// `plans`, one per requested measure (callers plan once — re-planning
    /// here would double the route counters). Returns one result per plan,
    /// in order, in **canonical space**: callers translate through their
    /// own fingerprint. Every surface funnels its solves through here —
    /// batch groups, sweeps, top-k candidates, sequential and service
    /// solves.
    ///
    /// Each plan probes its own measure-keyed cache entry; a hit runs no
    /// engine, and the structure counts one `engine.runs` unless every
    /// plan hit. The missed plans share what the structure has in common:
    /// the canonical DNF is rebuilt once, the fingerprint's read-once tree
    /// is reused as is, and every KC-routed measure evaluates one shared
    /// compile. Exact results are inserted into the cache; nothing else
    /// is. `seed_salt` and `sample_scale` (the dedup group's size) let a
    /// sampling solve spend the group's total budget.
    pub(crate) fn solve_structure(
        &self,
        fp: &Fingerprint,
        plans: &[Plan],
        n_endo: usize,
        budget: &Budget,
        seed_salt: u64,
        sample_scale: usize,
    ) -> Vec<Result<EngineResult, EngineError>> {
        // The canonical DNF and the compile are built past the cache
        // probes: on the service/batch hot path most calls are hits, which
        // need only the (shared) key.
        let mut canonical: Option<Dnf> = None;
        let mut compiled: CompileSlot = None;
        let mut ran = false;
        let results = plans
            .iter()
            .map(|&plan| {
                let store = match self.cache.as_deref() {
                    None => None,
                    Some(cache) if !plan.engine.is_exact() || cache.is_disabled() => {
                        // Inexact plans are never cached; a zero-capacity
                        // cache can store nothing — either way this solve
                        // skips the cache, and must be reported as a
                        // bypass, not a miss.
                        cache.record_bypass();
                        None
                    }
                    Some(cache) => {
                        let key = CacheKey {
                            structure: fp.shared_key(),
                            n_endo,
                            config: self.cache_digest(budget, plan.measure),
                        };
                        if let Some(mut hit) = cache.get(&key) {
                            // The stored timings/compiler counters describe
                            // the *original* solve; serving them verbatim
                            // would charge phantom engine time to a
                            // microsecond lookup. Structural facts (sizes,
                            // fact count) stay.
                            hit.prep_time = Duration::ZERO;
                            hit.solve_time = Duration::ZERO;
                            hit.compile_stats = Default::default();
                            return Ok(hit);
                        }
                        Some((cache, key))
                    }
                };
                ran = true;
                let ctask = LineageTask {
                    lineage: canonical.get_or_insert_with(|| fp.canonical_dnf()),
                    n_endo,
                    budget: *budget,
                    minimized: true,
                    seed_salt,
                    sample_scale: sample_scale.max(1),
                    measure: plan.measure,
                };
                let solved =
                    self.solve_planned(&ctask, plan, fp.tree(), Duration::ZERO, &mut compiled);
                if let (Some((cache, key)), Ok(r)) = (store, &solved) {
                    // Only exact results are stored: they are a pure
                    // function of (structure, n_endo). A fallback may have
                    // produced an inexact ranking here — never cache those.
                    if r.values.is_exact() {
                        cache.insert(key, r.clone());
                    }
                }
                solved
            })
            .collect();
        if ran {
            ENGINE_RUNS.incr();
        }
        results
    }

    /// The classification + solve path without cache involvement.
    pub(crate) fn solve_direct(&self, task: &LineageTask) -> Result<EngineResult, EngineError> {
        let plan_start = Instant::now();
        let (plan, tree) = self.plan_with_tree(task.lineage, task.measure);
        let plan_time = plan_start.elapsed();
        self.solve_planned(task, plan, tree.as_ref(), plan_time, &mut None)
    }

    /// Runs an already-made plan: installs the exact-engine deadline, uses
    /// a pre-built factorization when one is at hand (and the structure's
    /// shared KC compile, `compiled`), and applies the fallback policy on
    /// failure.
    fn solve_planned(
        &self,
        task: &LineageTask,
        plan: Plan,
        tree: Option<&ReadOnce>,
        prep_time: Duration,
        compiled: &mut CompileSlot,
    ) -> Result<EngineResult, EngineError> {
        let effective = if plan.engine.is_exact() {
            self.apply_timeout(task)
        } else {
            task.clone()
        };
        let solved = match (plan.engine, tree) {
            (EngineKind::ReadOnce, Some(tree)) => {
                // Reuse the factorization from classification (or the
                // fingerprint); the prep time reported is the planning
                // (factorization) time.
                ReadOnceEngine.solve_tree(tree, prep_time, &effective)
            }
            (EngineKind::Kc, _) => {
                // When this planner holds a shared component cache the
                // compile probes/stores fragments under the solve's context
                // digest.
                let shared = self.component_cache.as_deref().map(|c| {
                    (
                        c,
                        self.component_context(effective.n_endo, &effective.budget),
                    )
                });
                KcEngineImpl::solve_routed(&effective, shared, compiled)
            }
            (engine, _) => engine.engine().solve(&effective),
        };
        match solved {
            Ok(r) => Ok(r),
            Err(e) => match self.cfg.fallback {
                Some(fb) if fb != plan.engine && fb.supports_measure(task.measure) => {
                    // Fallback engines run without the exact deadline — a
                    // ranking is always better than an error here. A
                    // fallback that cannot compute the task's measure is
                    // skipped: an error beats a wrong-measure ranking.
                    fb.engine().solve(task)
                }
                _ => Err(e),
            },
        }
    }

    /// Digest of the solve knobs that belong in the cache key: the forced
    /// engine, the KC admission caps, the per-lineage timeout, the
    /// fallback, the compile node cap — and the measure. Absolute deadlines
    /// (`Instant`s carried in budgets) are deliberately *not* part of it —
    /// they bound when a computation may run, not what its exact values
    /// are. The measure is folded in **only when it is not Shapley**, so
    /// every pre-measure cache key (and every version-1 persist-log entry)
    /// stays bit-identical to today's Shapley keys: one fingerprint holds
    /// several measure entries side by side, and a warm restart from an old
    /// log still answers Shapley requests with zero engine runs.
    pub(crate) fn cache_digest(&self, budget: &Budget, measure: Measure) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.cfg.force.map(EngineKind::name).hash(&mut h);
        self.cfg.max_kc_vars.hash(&mut h);
        self.cfg.max_kc_conjuncts.hash(&mut h);
        self.cfg.max_naive_vars.hash(&mut h);
        MAX_NAIVE_CONJUNCTS.hash(&mut h);
        RETIRED_TOPDOWN_MIN_VARS.hash(&mut h);
        self.cfg.timeout.hash(&mut h);
        self.cfg.fallback.map(EngineKind::name).hash(&mut h);
        budget.max_nodes.hash(&mut h);
        if measure != Measure::Shapley {
            measure.name().hash(&mut h);
        }
        h.finish()
    }

    /// The context digest under which this planner's top-down compiles
    /// store and probe shared component-cache fragments. Two solves share
    /// fragments **only** when both their endogenous-variable count and
    /// their whole solve policy (every `cache_digest` knob) agree — a
    /// deliberately conservative segregation: a fragment compiled under one
    /// `n_endo` or policy is invisible to every other, so a cache hit can
    /// never change what a request would have computed cold. The measure is
    /// *not* part of the context: fragments are measure-agnostic circuit
    /// structure, evaluated per-measure afterwards.
    pub(crate) fn component_context(&self, n_endo: usize, budget: &Budget) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        n_endo.hash(&mut h);
        self.cache_digest(budget, Measure::Shapley).hash(&mut h);
        h.finish()
    }

    /// Clamps the task's one deadline to the planner timeout (keeping any
    /// tighter caller-provided deadline).
    fn apply_timeout<'a>(&self, task: &LineageTask<'a>) -> LineageTask<'a> {
        let Some(timeout) = self.cfg.timeout else {
            return task.clone();
        };
        let deadline = Instant::now() + timeout;
        let mut t = task.clone();
        t.budget.deadline = Some(t.budget.deadline.map_or(deadline, |d| d.min(deadline)));
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineValues, ShapleyEngine};
    use proptest::prelude::*;
    use shapdb_circuit::VarId;
    use shapdb_metrics::Profile;
    use shapdb_num::Rational;
    use shapdb_query::parse_ucq;

    fn dnf(conjs: &[&[u32]]) -> Dnf {
        let mut d = Dnf::new();
        for c in conjs {
            d.add_conjunct(c.iter().map(|&v| VarId(v)).collect());
        }
        d
    }

    #[test]
    fn read_once_lineages_never_hit_the_compiler() {
        // Satellite (a): the plan routes factorizable lineages to the
        // read-once engine, and the solved result carries zero compiler
        // work (no CNF, no compile decisions).
        let planner = Planner::new(PlannerConfig::default());
        let running = dnf(&[&[0], &[1, 3], &[1, 4], &[2, 3], &[2, 4], &[5, 6]]);
        let plan = planner.plan(&running);
        assert_eq!(plan.engine, EngineKind::ReadOnce);
        assert_eq!(plan.reason, PlanReason::ReadOnce);
        let r = planner.solve(&LineageTask::new(&running, 8)).unwrap();
        assert_eq!(r.engine, EngineKind::ReadOnce);
        assert_eq!(r.cnf_clauses, 0);
        assert_eq!(r.compile_stats.decisions, 0);
        assert_eq!(r.compile_stats.cache_hits, 0);
    }

    #[test]
    fn tiny_non_read_once_lineages_route_to_naive() {
        // Satellite (naive route): below the naive cutoff, enumeration
        // beats factorization + compilation — no CNF is ever built. The
        // route counter is checked in
        // `each_plan_counts_its_route_exactly_once`.
        let planner = Planner::new(PlannerConfig::default());
        let majority = dnf(&[&[0, 1], &[1, 2], &[0, 2]]);
        let plan = planner.plan(&majority);
        assert_eq!(plan.engine, EngineKind::Naive);
        assert_eq!(plan.reason, PlanReason::TinyNaive);
        let r = planner.solve(&LineageTask::new(&majority, 3)).unwrap();
        assert_eq!(r.engine, EngineKind::Naive);
        assert_eq!(r.cnf_clauses, 0);
        assert!(r.values.is_exact());
    }

    #[test]
    fn non_read_once_lineages_beyond_the_cutoff_hit_the_compiler() {
        let planner = Planner::new(PlannerConfig::default());
        // Four disjoint majorities: 12 vars > max_naive_vars, not read-once.
        let mut wide = Dnf::new();
        for base in [0u32, 3, 6, 9] {
            for pair in [[base, base + 1], [base + 1, base + 2], [base, base + 2]] {
                wide.add_conjunct(pair.iter().map(|&v| VarId(v)).collect());
            }
        }
        let plan = planner.plan(&wide);
        assert_eq!(plan.engine, EngineKind::Kc);
        assert_eq!(plan.reason, PlanReason::KcWideTopDown);
        let r = planner.solve(&LineageTask::new(&wide, 12)).unwrap();
        assert_eq!(r.engine, EngineKind::Kc);
        assert!(r.cnf_clauses > 0);
        assert!(r.ddnnf_size > 0);
        // The naive route and the compiler agree exactly on the tiny form.
        let majority = dnf(&[&[0, 1], &[1, 2], &[0, 2]]);
        let kc_only = Planner::new(PlannerConfig {
            max_naive_vars: 0,
            ..Default::default()
        });
        assert_eq!(kc_only.plan(&majority).engine, EngineKind::Kc);
        let naive = planner.solve(&LineageTask::new(&majority, 3)).unwrap();
        let kc = kc_only.solve(&LineageTask::new(&majority, 3)).unwrap();
        assert_eq!(naive.values, kc.values, "bit-identical rationals");
    }

    fn exact_values(r: &EngineResult) -> Vec<(VarId, Rational)> {
        match &r.values {
            EngineValues::Exact(pairs) => pairs.clone(),
            EngineValues::Approx(_) => panic!("expected exact values"),
        }
    }

    #[test]
    fn auto_takes_read_once_path_on_running_example() {
        let running = dnf(&[&[0], &[1, 3], &[1, 4], &[2, 3], &[2, 4], &[5, 6]]);
        let task = LineageTask::new(&running, 8);
        let auto = Planner::new(PlannerConfig::default()).solve(&task).unwrap();
        assert_eq!(auto.engine, EngineKind::ReadOnce);
        assert_eq!(auto.cnf_clauses, 0);
        let kc = KcEngineImpl.solve(&task).unwrap();
        assert_eq!(exact_values(&auto), exact_values(&kc));
    }

    #[test]
    fn auto_routes_tiny_majority_to_naive_enumeration() {
        // Majority of three: every fact gets 1/3 by symmetry + efficiency.
        let majority = dnf(&[&[0, 1], &[1, 2], &[0, 2]]);
        let r = Planner::new(PlannerConfig::default())
            .solve(&LineageTask::new(&majority, 3))
            .unwrap();
        assert_eq!(r.engine, EngineKind::Naive);
        assert_eq!(r.cnf_clauses, 0);
        let values = exact_values(&r);
        assert_eq!(values.len(), 3);
        assert!(values.iter().all(|(_, x)| *x == Rational::from_ratio(1, 3)));
    }

    #[test]
    fn auto_falls_back_to_kc_beyond_the_naive_cutoff() {
        // Four disjoint majorities (12 vars > max_naive_vars): not
        // read-once, so the compiler runs; every fact gets 1/12.
        let mut wide = Dnf::new();
        for base in [0u32, 3, 6, 9] {
            for pair in [[base, base + 1], [base + 1, base + 2], [base, base + 2]] {
                wide.add_conjunct(pair.iter().map(|&v| VarId(v)).collect());
            }
        }
        let r = Planner::new(PlannerConfig::default())
            .solve(&LineageTask::new(&wide, 12))
            .unwrap();
        assert_eq!(r.engine, EngineKind::Kc);
        let values = exact_values(&r);
        assert_eq!(values.len(), 12);
        assert!(values
            .iter()
            .all(|(_, x)| *x == Rational::from_ratio(1, 12)));
    }

    #[test]
    fn fast_path_falls_through_on_non_read_once() {
        // The hybrid tries read-once first; majority does not factor, so
        // it is answered exactly by a later route within the timeout.
        let planner = Planner::new(PlannerConfig::hybrid(Duration::from_secs(60)));
        let majority = dnf(&[&[0, 1], &[1, 2], &[0, 2]]);
        let r = planner.solve(&LineageTask::new(&majority, 3)).unwrap();
        assert!(exact_values(&r)
            .iter()
            .all(|(_, x)| *x == Rational::from_ratio(1, 3)));
    }

    #[test]
    fn proxy_ranking_matches_exact_order_on_pairs() {
        // Drop a1 (whose raw-mode proxy pathology Example 5.4 discusses);
        // for the pure 2-way-pairs lineage the proxy order matches exact.
        let pairs = dnf(&[&[1, 3], &[1, 4], &[2, 3], &[2, 4], &[5, 6]]);
        let task = LineageTask::new(&pairs, 6);
        let exact = Planner::new(PlannerConfig::hybrid(Duration::from_secs(60)))
            .solve(&task)
            .unwrap();
        let proxy = Planner::new(PlannerConfig::hybrid(Duration::ZERO))
            .solve(&task)
            .unwrap();
        assert!(exact.values.is_exact());
        assert_eq!(proxy.engine, EngineKind::Proxy);
        // a2..a5 (ids 1..4) must rank above a6,a7 (ids 5,6) in both.
        for r in [exact.values.ranking(), proxy.values.ranking()] {
            let pos = |id: u32| r.iter().position(|v| v.0 == id).unwrap();
            assert!(pos(1) < pos(5) && pos(2) < pos(6));
        }
    }

    #[test]
    fn constants_are_trivial() {
        let planner = Planner::new(PlannerConfig::default());
        assert_eq!(
            planner.plan(&Dnf::new()).reason,
            PlanReason::TrivialConstant
        );
        let mut top = Dnf::new();
        top.add_conjunct(vec![]);
        assert_eq!(planner.plan(&top).reason, PlanReason::TrivialConstant);
        let r = planner.solve(&LineageTask::new(&top, 5)).unwrap();
        assert!(r.values.is_empty(), "no players in a constant lineage");
    }

    #[test]
    fn force_overrides_classification() {
        let cfg = PlannerConfig {
            force: Some(EngineKind::Proxy),
            ..Default::default()
        };
        let planner = Planner::new(cfg);
        let running = dnf(&[&[0], &[1, 2]]);
        let plan = planner.plan(&running);
        assert_eq!(plan.engine, EngineKind::Proxy);
        assert_eq!(plan.reason, PlanReason::Forced);
        let r = planner.solve(&LineageTask::new(&running, 3)).unwrap();
        assert!(!r.values.is_exact());
    }

    #[test]
    fn over_budget_routes_to_fallback() {
        let cfg = PlannerConfig {
            max_kc_vars: 2,
            max_naive_vars: 0,
            fallback: Some(EngineKind::MonteCarlo),
            ..Default::default()
        };
        let planner = Planner::new(cfg);
        let majority = dnf(&[&[0, 1], &[1, 2], &[0, 2]]);
        let plan = planner.plan(&majority);
        assert_eq!(plan.engine, EngineKind::MonteCarlo);
        assert_eq!(plan.reason, PlanReason::OverKcBudget);
        // Exact mode (no fallback): KC is still tried.
        let exact = Planner::new(PlannerConfig {
            max_kc_vars: 2,
            max_naive_vars: 0,
            ..Default::default()
        });
        assert_eq!(exact.plan(&majority).engine, EngineKind::Kc);
    }

    #[test]
    fn hybrid_policy_falls_back_on_timeout() {
        let planner = Planner::new(PlannerConfig::hybrid(Duration::ZERO));
        let majority = dnf(&[&[0, 1], &[1, 2], &[0, 2]]);
        let r = planner.solve(&LineageTask::new(&majority, 3)).unwrap();
        assert_eq!(r.engine, EngineKind::Proxy);
        assert!(!r.values.is_exact());
        // Read-once lineages finish their microsecond fast path well within
        // any real timeout and stay exact.
        let planner = Planner::new(PlannerConfig::hybrid(Duration::from_secs(5)));
        let running = dnf(&[&[0], &[1, 3], &[1, 4], &[2, 3], &[2, 4], &[5, 6]]);
        let r = planner.solve(&LineageTask::new(&running, 8)).unwrap();
        assert_eq!(r.engine, EngineKind::ReadOnce);
        assert!(r.values.is_exact());
    }

    #[test]
    fn timeout_applies_to_every_exact_engine() {
        // Regression: the per-lineage timeout used to be installed only for
        // the KC engine, so a forced `naive` (O(2ⁿ)!) ran with no deadline.
        // A ~22-var lineage takes seconds naively; with a tiny timeout the
        // enumeration must abort and the hybrid fallback take over.
        let mut big = Dnf::new();
        for v in 0..22u32 {
            big.add_conjunct(vec![VarId(v)]);
        }
        let hybrid = Planner::new(PlannerConfig {
            force: Some(EngineKind::Naive),
            timeout: Some(Duration::from_millis(5)),
            fallback: Some(EngineKind::Proxy),
            ..Default::default()
        });
        let started = Instant::now();
        let r = hybrid.solve(&LineageTask::new(&big, 22)).unwrap();
        assert_eq!(r.engine, EngineKind::Proxy, "naive timed out, proxy ran");
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "deadline interrupted the enumeration"
        );
        // Exact mode (no fallback): the timeout surfaces as an error.
        let exact = Planner::new(PlannerConfig {
            force: Some(EngineKind::Naive),
            timeout: Some(Duration::from_millis(5)),
            ..Default::default()
        });
        let err = exact.solve(&LineageTask::new(&big, 22)).unwrap_err();
        assert!(matches!(
            err,
            EngineError::Analysis(crate::engine::AnalysisError::Shapley(_))
        ));
        // The read-once route is also bounded now: a zero timeout kills
        // even the fast path (so `hybrid(0)` degrades everything to the
        // fallback, uniformly).
        let zero = Planner::new(PlannerConfig::hybrid(Duration::ZERO));
        let running = dnf(&[&[0], &[1, 3], &[1, 4], &[2, 3], &[2, 4], &[5, 6]]);
        let r = zero.solve(&LineageTask::new(&running, 8)).unwrap();
        assert_eq!(r.engine, EngineKind::Proxy);
    }

    #[test]
    fn hierarchical_query_class_detection() {
        // Hierarchical + sjf: R(a), S(a, b) with head b.
        let q = parse_ucq("q(b) :- R(a), S(a, b)").unwrap();
        let class = QueryClass::of(&q);
        assert!(class.guarantees_read_once());
        // The canonical hard query is not hierarchical.
        let hard = parse_ucq("q() :- R(x), S(x, y), T(y)").unwrap();
        assert!(!QueryClass::of(&hard).guarantees_read_once());
        // Unions get no guarantee.
        let union = parse_ucq("q() :- R(x) ; q() :- T(y)").unwrap();
        assert!(!QueryClass::of(&union).guarantees_read_once());
    }

    #[test]
    fn hierarchical_guarantee_annotates_the_plan() {
        let q = parse_ucq("q(b) :- R(a), S(a, b)").unwrap();
        let planner = Planner::for_query(PlannerConfig::default(), &q);
        // A lineage such a query produces: a matching ∨_a (r_a ∧ s_ab).
        let matching = dnf(&[&[0, 10], &[1, 11], &[2, 12]]);
        let plan = planner.plan(&matching);
        assert_eq!(plan.engine, EngineKind::ReadOnce);
        assert_eq!(plan.reason, PlanReason::HierarchicalReadOnce);
    }

    #[test]
    fn cached_solves_translate_exactly_across_renamings() {
        use crate::engine::{EngineValues, ShapleyCache};
        use shapdb_num::Rational;
        use std::sync::Arc;
        let cache = Arc::new(ShapleyCache::new());
        let planner = Planner::new(PlannerConfig::default()).with_cache(cache.clone());
        let a = dnf(&[&[0], &[1, 3], &[1, 4], &[2, 3], &[2, 4], &[5, 6]]);
        // The same structure under a shuffled renaming.
        let b = dnf(&[&[70], &[40, 20], &[40, 60], &[10, 20], &[10, 60], &[30, 50]]);
        let ra = planner.solve(&LineageTask::new(&a, 8)).unwrap();
        let rb = planner.solve(&LineageTask::new(&b, 8)).unwrap();
        assert_eq!(cache.stats().hits, 1, "second solve served from cache");
        let value_of = |r: &super::EngineResult, f: u32| match &r.values {
            EngineValues::Exact(v) => v.iter().find(|(x, _)| x.0 == f).unwrap().1.clone(),
            EngineValues::Approx(_) => panic!("exact expected"),
        };
        assert_eq!(value_of(&ra, 0), Rational::from_ratio(43, 105));
        assert_eq!(value_of(&rb, 70), Rational::from_ratio(43, 105));
        // Identical to an uncached planner, rational for rational.
        let plain = Planner::new(PlannerConfig::default());
        let rb_plain = plain.solve(&LineageTask::new(&b, 8)).unwrap();
        assert_eq!(rb.values, rb_plain.values);
    }

    #[test]
    fn cache_never_serves_across_changed_budget_or_policy() {
        use crate::engine::ShapleyCache;
        use std::sync::Arc;
        let cache = Arc::new(ShapleyCache::new());
        let running = dnf(&[&[0], &[1, 3], &[1, 4], &[2, 3], &[2, 4], &[5, 6]]);
        // Same structure, three different budget/policy contexts: every one
        // is its own key — a changed knob can only miss, never serve stale.
        let p1 = Planner::new(PlannerConfig::default()).with_cache(cache.clone());
        p1.solve(&LineageTask::new(&running, 8)).unwrap();
        let with_node_cap = LineageTask::new(&running, 8).with_budget(Budget {
            deadline: None,
            max_nodes: 10_000,
        });
        p1.solve(&with_node_cap).unwrap();
        let p2 = Planner::new(PlannerConfig {
            timeout: Some(Duration::from_secs(30)),
            ..Default::default()
        })
        .with_cache(cache.clone());
        p2.solve(&LineageTask::new(&running, 8)).unwrap();
        // And a different n_endo is a fourth key.
        p1.solve(&LineageTask::new(&running, 9)).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.hits, 0, "no context change may reuse an entry");
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.len, 4);
        // Re-solving in the original context still hits.
        p1.solve(&LineageTask::new(&running, 8)).unwrap();
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn admission_counts_use_the_minimized_lineage_uniformly() {
        use crate::engine::ShapleyCache;
        use std::sync::Arc;
        // {0,1},{1,2},{0,2},{0,1,3,4}: five raw variables, minimizes to the
        // 3-variable majority. Admission must count the minimized form —
        // and identically with or without a cache attached.
        let l = dnf(&[&[0, 1], &[1, 2], &[0, 2], &[0, 1, 3, 4]]);
        let cfg = PlannerConfig {
            max_kc_vars: 3,
            max_naive_vars: 0,
            fallback: Some(EngineKind::Proxy),
            ..Default::default()
        };
        let plain = Planner::new(cfg);
        assert_eq!(
            plain.plan(&l).engine,
            EngineKind::Kc,
            "admission sees 3 minimized vars, not 5 raw"
        );
        let r = plain.solve(&LineageTask::new(&l, 5)).unwrap();
        assert_eq!(r.engine, EngineKind::Kc, "exact, not proxy fallback");
        let cached = Planner::new(cfg).with_cache(Arc::new(ShapleyCache::new()));
        let rc = cached.solve(&LineageTask::new(&l, 5)).unwrap();
        assert_eq!(rc.engine, EngineKind::Kc);
        assert_eq!(r.values, rc.values, "same routing, same rationals");
    }

    #[test]
    fn cache_hits_report_no_phantom_engine_time() {
        use crate::engine::ShapleyCache;
        use std::sync::Arc;
        let planner = Planner::new(PlannerConfig {
            max_naive_vars: 0,
            ..Default::default()
        })
        .with_cache(Arc::new(ShapleyCache::new()));
        let majority = dnf(&[&[0, 1], &[1, 2], &[0, 2]]);
        let cold = planner.solve(&LineageTask::new(&majority, 3)).unwrap();
        assert!(cold.cnf_clauses > 0);
        let warm = planner.solve(&LineageTask::new(&majority, 3)).unwrap();
        assert_eq!(warm.solve_time, Duration::ZERO, "no engine ran");
        assert_eq!(warm.prep_time, Duration::ZERO);
        assert_eq!(warm.compile_stats.decisions, 0);
        assert_eq!(
            warm.cnf_clauses, cold.cnf_clauses,
            "structural facts are kept"
        );
        assert_eq!(warm.values, cold.values);
    }

    #[test]
    fn forced_sampling_engines_bypass_the_cache() {
        use crate::engine::ShapleyCache;
        use std::sync::Arc;
        let cache = Arc::new(ShapleyCache::new());
        let planner = Planner::new(PlannerConfig {
            force: Some(EngineKind::MonteCarlo),
            ..Default::default()
        })
        .with_cache(cache.clone());
        let running = dnf(&[&[0], &[1, 2]]);
        let r = planner.solve(&LineageTask::new(&running, 3)).unwrap();
        assert!(!r.values.is_exact());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (0, 0, 0));
        assert_eq!(stats.bypasses, 1);
    }

    #[test]
    fn plans_record_the_measure_that_drove_them() {
        let planner = Planner::new(PlannerConfig::default());
        let running = dnf(&[&[0], &[1, 3], &[1, 4], &[2, 3], &[2, 4], &[5, 6]]);
        assert_eq!(planner.plan(&running).measure, Measure::Shapley);
        for m in Measure::ALL {
            let p = planner.plan_measure(&running, m);
            assert_eq!(p.measure, m);
            assert_eq!(
                p.engine,
                EngineKind::ReadOnce,
                "ladder is measure-free here"
            );
        }
    }

    #[test]
    fn non_shapley_measures_disable_unsupporting_fallbacks() {
        // Over the KC budget with a Proxy fallback: Shapley degrades to the
        // ranking, every other measure runs KC regardless — a proxy cannot
        // rank what it cannot compute.
        let cfg = PlannerConfig {
            max_kc_vars: 2,
            max_naive_vars: 0,
            fallback: Some(EngineKind::Proxy),
            ..Default::default()
        };
        let planner = Planner::new(cfg);
        let majority = dnf(&[&[0, 1], &[1, 2], &[0, 2]]);
        assert_eq!(planner.plan(&majority).engine, EngineKind::Proxy);
        for m in [
            Measure::Banzhaf,
            Measure::Responsibility,
            Measure::ShapScore,
        ] {
            let p = planner.plan_measure(&majority, m);
            assert_eq!(p.engine, EngineKind::Kc, "{m}: exact route kept");
            assert_eq!(p.reason, PlanReason::OverKcBudget);
        }
    }

    #[test]
    fn forced_shapley_only_engine_rejects_other_measures() {
        let planner = Planner::new(PlannerConfig {
            force: Some(EngineKind::Proxy),
            ..Default::default()
        });
        let running = dnf(&[&[0], &[1, 2]]);
        let task = LineageTask::new(&running, 3).with_measure(Measure::Banzhaf);
        let err = planner.solve(&task).unwrap_err();
        assert_eq!(
            err,
            EngineError::UnsupportedMeasure {
                engine: EngineKind::Proxy,
                measure: Measure::Banzhaf,
            }
        );
        // A fallback that also cannot compute the measure must not mask the
        // error with a wrong-measure ranking.
        let with_fb = Planner::new(PlannerConfig {
            force: Some(EngineKind::MonteCarlo),
            fallback: Some(EngineKind::Proxy),
            ..Default::default()
        });
        let err = with_fb.solve(&task).unwrap_err();
        assert!(matches!(err, EngineError::UnsupportedMeasure { .. }));
    }

    #[test]
    fn cache_entries_are_measure_keyed() {
        use crate::engine::{EngineValues, ShapleyCache};
        use shapdb_num::Rational;
        use std::sync::Arc;
        let cache = Arc::new(ShapleyCache::new());
        let planner = Planner::new(PlannerConfig::default()).with_cache(cache.clone());
        let running = dnf(&[&[0], &[1, 3], &[1, 4], &[2, 3], &[2, 4], &[5, 6]]);
        // Four measures over one structure: four distinct entries, no
        // cross-measure hit may ever serve a Banzhaf answer to a Shapley
        // request (or vice versa).
        for m in Measure::ALL {
            let r = planner
                .solve(&LineageTask::new(&running, 8).with_measure(m))
                .unwrap();
            assert_eq!(r.measure, m);
        }
        let stats = cache.stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.len, 4, "one entry per measure");
        // Re-asking each measure hits its own entry, tagged correctly.
        for m in Measure::ALL {
            let r = planner
                .solve(&LineageTask::new(&running, 8).with_measure(m))
                .unwrap();
            assert_eq!(r.measure, m);
        }
        assert_eq!(cache.stats().hits, 4);
        // And the values differ across measures (Shapley 43/105 vs Banzhaf
        // 21/64 for a1) — proof the entries are truly separate.
        let value_of = |m: Measure| {
            let r = planner
                .solve(&LineageTask::new(&running, 8).with_measure(m))
                .unwrap();
            match &r.values {
                EngineValues::Exact(v) => v[0].1.clone(),
                EngineValues::Approx(_) => panic!("exact expected"),
            }
        };
        assert_eq!(value_of(Measure::Shapley), Rational::from_ratio(43, 105));
        assert_eq!(value_of(Measure::Banzhaf), Rational::from_ratio(21, 64));
    }

    #[test]
    fn multi_measure_solve_compiles_once_and_hits_thereafter() {
        use crate::engine::ShapleyCache;
        use shapdb_circuit::fingerprint;
        use std::sync::Arc;
        // Non-read-once beyond the naive cutoff: the KC route must compile
        // exactly once for all four measures (responsibility needs no
        // circuit; the power indices and the SHAP-score share the compile).
        let mut wide = Dnf::new();
        for base in [0u32, 3, 6, 9] {
            for pair in [[base, base + 1], [base + 1, base + 2], [base, base + 2]] {
                wide.add_conjunct(pair.iter().map(|&v| VarId(v)).collect());
            }
        }
        let cache = Arc::new(ShapleyCache::new());
        let planner = Planner::new(PlannerConfig {
            max_naive_vars: 0,
            ..Default::default()
        })
        .with_cache(cache.clone());
        let fp = fingerprint(&wide);
        let plans: Vec<Plan> = Measure::ALL.map(|m| planner.plan_fp(&fp, m)).to_vec();
        let results = planner.solve_structure(&fp, &plans, 12, &Budget::unlimited(), 0, 1);
        assert_eq!(results.len(), 4);
        let mut compiles = 0;
        assert_eq!(cache.stats().misses, 4);
        for (r, m) in results.iter().zip(Measure::ALL) {
            let r = r.as_ref().unwrap();
            assert_eq!(r.measure, m);
            assert!(r.values.is_exact());
            compiles += usize::from(r.compile_stats.decisions > 0);
        }
        assert_eq!(
            compiles, 3,
            "power indices + SHAP-score share one compile's stats; responsibility never compiles"
        );
        // The three circuit measures report the *same* compile (identical
        // CNF size from one negation CNF), and all four are now cached.
        assert_eq!(cache.stats().len, 4);
        let again = planner.solve_structure(&fp, &plans, 12, &Budget::unlimited(), 0, 1);
        for r in &again {
            assert!(r.as_ref().unwrap().values.is_exact());
        }
        assert_eq!(cache.stats().hits, 4);
    }

    #[test]
    fn warm_restart_answers_every_measure_without_an_engine_run() {
        use crate::engine::ShapleyCache;
        use std::sync::Arc;
        // Acceptance: persist four measure entries for one structure, drop
        // everything, rebuild the cache from the log — each measure is a
        // hit (zero misses, zero engine work) with identical rationals.
        let path = std::env::temp_dir().join(format!(
            "shapdb-planner-warm-measures-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let running = dnf(&[&[0], &[1, 3], &[1, 4], &[2, 3], &[2, 4], &[5, 6]]);
        let cold: Vec<EngineResult> = {
            let cache = Arc::new(ShapleyCache::with_persistence(64, &path).unwrap());
            let planner = Planner::new(PlannerConfig::default()).with_cache(cache);
            Measure::ALL
                .iter()
                .map(|&m| {
                    planner
                        .solve(&LineageTask::new(&running, 8).with_measure(m))
                        .unwrap()
                })
                .collect()
        };
        let cache = Arc::new(ShapleyCache::with_persistence(64, &path).unwrap());
        assert_eq!(cache.stats().replayed, 4, "all four measures replayed");
        let planner = Planner::new(PlannerConfig::default()).with_cache(cache.clone());
        for (i, &m) in Measure::ALL.iter().enumerate() {
            let r = planner
                .solve(&LineageTask::new(&running, 8).with_measure(m))
                .unwrap();
            assert_eq!(r.measure, m);
            assert_eq!(r.values, cold[i].values, "{m}: bit-identical after restart");
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (4, 0), "no engine runs warm");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn disagreement_counter_stays_put_on_consistent_inputs() {
        let q = parse_ucq("q(b) :- R(a), S(a, b)").unwrap();
        let planner = Planner::for_query(PlannerConfig::default(), &q);
        let profile = Arc::new(Profile::new());
        let _scope = profile.enter();
        for lineage in [
            dnf(&[&[0, 10], &[1, 11]]),
            dnf(&[&[0, 10], &[0, 11], &[1, 12]]),
            dnf(&[&[5, 6]]),
        ] {
            planner.plan(&lineage);
        }
        assert_eq!(profile.get(&PLANNER_HIERARCHICAL_DISAGREEMENTS), 0);
        assert_eq!(profile.get(&PLANNER_READ_ONCE_ROUTES), 3);
    }

    #[test]
    fn each_plan_counts_its_route_exactly_once() {
        let planner = Planner::new(PlannerConfig::default());
        let profile = Arc::new(Profile::new());
        let _scope = profile.enter();
        let plan = planner.plan(&majority_blocks(1));
        assert_eq!(plan.engine, EngineKind::Naive);
        assert_eq!(profile.get(&PLANNER_NAIVE_ROUTES), 1);
        let plan = planner.plan(&majority_blocks(17)); // 51 vars
        assert_eq!(plan.reason, PlanReason::KcWideTopDown);
        assert_eq!(profile.get(&PLANNER_KC_TOPDOWN_ROUTES), 1);
        assert_eq!(profile.get(&PLANNER_KC_ROUTES), 1);
        assert_eq!(profile.get(&PLANNER_NAIVE_ROUTES), 1);
        // A narrow KC lineage (12 vars, at most 48) moves both KC counters
        // by exactly one: readers subtract them as unsigned integers.
        let plan = planner.plan(&majority_blocks(4));
        assert_eq!(plan.reason, PlanReason::KcWideTopDown);
        assert_eq!(profile.get(&PLANNER_KC_TOPDOWN_ROUTES), 2);
        assert_eq!(profile.get(&PLANNER_KC_ROUTES), 2);
        assert_eq!(profile.get(&PLANNER_NAIVE_ROUTES), 1);
    }

    /// `k` disjoint 3-variable majority blocks — wide, non-read-once, and
    /// decomposable into isomorphic components.
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
    fn wide_lineages_take_the_topdown_route() {
        // Every KC lineage, wide or narrow, takes the one KC route. The
        // raised `max_kc_vars` default admits the 51-var lineage at all.
        // The route counters are checked in
        // `each_plan_counts_its_route_exactly_once`.
        let planner = Planner::new(PlannerConfig::default());
        let wide = majority_blocks(17); // 51 vars
        let plan = planner.plan(&wide);
        assert_eq!(plan.engine, EngineKind::Kc);
        assert_eq!(plan.reason, PlanReason::KcWideTopDown);
        let narrow = planner.plan(&majority_blocks(4)); // 12 vars
        assert_eq!(narrow.engine, EngineKind::Kc);
        assert_eq!(narrow.reason, PlanReason::KcWideTopDown);
    }

    /// A planner that sends every non-read-once lineage to KC, and the
    /// definition: every lineage enumerated by the naive engine.
    fn kc_and_naive_planners() -> (Planner, Planner) {
        let kc = Planner::new(PlannerConfig {
            max_naive_vars: 0,
            ..Default::default()
        });
        let naive = Planner::new(PlannerConfig {
            force: Some(EngineKind::Naive),
            ..Default::default()
        });
        (kc, naive)
    }

    #[test]
    fn topdown_and_bottom_up_solve_identically_on_every_measure() {
        // The KC route's exact rationals equal the definition's on all four
        // measures (9 facts: within every naive enumeration cap).
        let (kc, naive) = kc_and_naive_planners();
        let structure = majority_blocks(3);
        assert_eq!(kc.plan(&structure).reason, PlanReason::KcWideTopDown);
        for measure in Measure::ALL {
            let task = LineageTask::new(&structure, 12).with_measure(measure);
            let got = kc.solve(&task).unwrap();
            let want = naive.solve(&task).unwrap();
            assert_eq!(got.engine, EngineKind::Kc, "{measure}");
            assert_eq!(want.engine, EngineKind::Naive, "{measure}");
            assert!(got.values.is_exact(), "{measure}");
            assert_eq!(got.values, want.values, "{measure}");
        }
    }

    #[test]
    fn cache_digest_format_is_pinned() {
        // Persisted records are keyed by `cache_digest`, so its hash
        // sequence is a storage format: rebuild it field by field, with the
        // literal constants at their positions, and it must match.
        use std::hash::{Hash, Hasher};
        let budget = Budget::unlimited();
        for cfg in [
            PlannerConfig::default(),
            PlannerConfig::hybrid(Duration::from_millis(250)),
        ] {
            let planner = Planner::new(cfg);
            for measure in [Measure::Shapley, Measure::Banzhaf] {
                let mut h = std::collections::hash_map::DefaultHasher::new();
                cfg.force.map(EngineKind::name).hash(&mut h);
                cfg.max_kc_vars.hash(&mut h);
                cfg.max_kc_conjuncts.hash(&mut h);
                cfg.max_naive_vars.hash(&mut h);
                64usize.hash(&mut h); // MAX_NAIVE_CONJUNCTS
                48usize.hash(&mut h); // the retired `topdown_min_vars` default
                cfg.timeout.hash(&mut h);
                cfg.fallback.map(EngineKind::name).hash(&mut h);
                budget.max_nodes.hash(&mut h);
                if measure != Measure::Shapley {
                    measure.name().hash(&mut h);
                }
                assert_eq!(
                    planner.cache_digest(&budget, measure),
                    h.finish(),
                    "{cfg:?} {measure}"
                );
            }
        }
    }

    #[test]
    fn component_cache_never_serves_across_n_endo_or_policy() {
        use shapdb_kc::ComponentCache;
        use std::sync::Arc;
        let cache = Arc::new(ComponentCache::new());
        let cfg = PlannerConfig {
            max_naive_vars: 0,
            ..Default::default()
        };
        let planner = Planner::new(cfg).with_component_cache(cache.clone());
        let b = Budget::unlimited();
        // The context digest segregates by n_endo and by every policy knob.
        let ctx = planner.component_context(12, &b);
        assert_ne!(ctx, planner.component_context(13, &b), "n_endo");
        let other_policy = Planner::new(PlannerConfig {
            max_kc_vars: 512,
            ..cfg
        });
        assert_ne!(ctx, other_policy.component_context(12, &b), "policy");

        // Regression: solving the same structure under a *different*
        // n_endo replays the cold compile exactly — identical decision and
        // shared-hit counters — instead of being served fragments stored
        // under the first context; within one context the second solve is
        // answered entirely from the cache.
        let wide = majority_blocks(4);
        let cold = planner.solve(&LineageTask::new(&wide, 12)).unwrap();
        let warm = planner.solve(&LineageTask::new(&wide, 12)).unwrap();
        assert_eq!(warm.compile_stats.decisions, 0, "same context: cached");
        assert!(warm.compile_stats.shared_hits > 0);
        let other = planner.solve(&LineageTask::new(&wide, 14)).unwrap();
        assert_eq!(
            (
                other.compile_stats.decisions,
                other.compile_stats.shared_hits
            ),
            (cold.compile_stats.decisions, cold.compile_stats.shared_hits),
            "a fresh context replays the cold compile, no cross-context hits"
        );
        assert!(other.compile_stats.decisions > 0);
        // Values are unaffected by the cache in every configuration.
        let no_cache = Planner::new(cfg);
        for n_endo in [12usize, 14] {
            let direct = no_cache.solve(&LineageTask::new(&wide, n_endo)).unwrap();
            let cached = planner.solve(&LineageTask::new(&wide, n_endo)).unwrap();
            assert_eq!(direct.values, cached.values, "n_endo={n_endo}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// Random DNFs built as two halves plus a few bridge conjuncts —
        /// straddling the component-decomposition boundary — solve to the
        /// same exact rationals through the KC route as through the
        /// definition (naive enumeration over ≤10 facts), on every measure.
        #[test]
        fn prop_topdown_matches_bottom_up_across_measures(
            left in proptest::collection::vec(
                proptest::collection::vec(0u32..5, 1..4), 1..5),
            right in proptest::collection::vec(
                proptest::collection::vec(5u32..10, 1..4), 1..5),
            bridges in proptest::collection::vec(
                proptest::collection::vec(0u32..10, 2..4), 0..3),
        ) {
            let mut d = Dnf::new();
            for c in left.iter().chain(&right).chain(&bridges) {
                d.add_conjunct(c.iter().map(|&v| VarId(v)).collect());
            }
            let (kc, naive) = kc_and_naive_planners();
            for measure in Measure::ALL {
                let task = LineageTask::new(&d, 10).with_measure(measure);
                let got = kc.solve(&task).unwrap();
                let want = naive.solve(&task).unwrap();
                prop_assert_eq!(want.engine, EngineKind::Naive);
                prop_assert_eq!(&got.values, &want.values, "{}", measure);
            }
        }
    }
}
