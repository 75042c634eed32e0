//! Engine counters: process-wide totals and per-run [`Profile`]s.
//!
//! The engine layer (planner, executors and service in `shapdb_core`, the
//! compilers, the arithmetic substrate) records its operational behaviour
//! here: how many lineage tasks were submitted, how many distinct
//! structures were actually solved, which route each took, how the caches
//! answered, and whether the hierarchical-query classifier ever disagreed
//! with the read-once factorizer (it never should; the counter exists to
//! catch regressions in production).
//!
//! Every registered [`Counter`] is two views of the same increments:
//!
//! * its **process-global cell** — cumulative across the whole process,
//!   the ops-style view ([`snapshot`], [`CounterSnapshot`]);
//! * the **[`Profile`] active on the calling thread**, if any — a copy of
//!   the registry scoped to one run or one service. Executors and the
//!   service enter their own profile on every thread that works for them,
//!   so each counts its own work once, however many other runs share the
//!   process. Reports carry that profile; tests assert exact counts on it.
//!
//! Per-run structural numbers that are not counters travel in each report
//! as a [`DedupStats`].

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A named monotonic counter (atomic, cheap, shareable from any thread).
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    /// Index into the registry (and every [`Profile`]); [`UNREGISTERED`]
    /// for counters outside it.
    slot: usize,
    value: AtomicU64,
}

/// The slot of a counter outside the registry: it keeps only its global
/// cell.
const UNREGISTERED: usize = usize::MAX;

impl Counter {
    /// A new counter starting at zero, outside the registry (no profile
    /// records it).
    pub const fn new(name: &'static str) -> Counter {
        Counter::at(UNREGISTERED, name)
    }

    /// The registered counter in registry slot `slot`.
    const fn at(slot: usize, name: &'static str) -> Counter {
        Counter {
            name,
            slot,
            value: AtomicU64::new(0),
        }
    }

    /// The counter's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds 1; returns the new value.
    pub fn incr(&self) -> u64 {
        self.add(1)
    }

    /// Adds `n` to the global cell and to the calling thread's active
    /// [`Profile`]; returns the new global value.
    pub fn add(&self, n: u64) -> u64 {
        if self.slot != UNREGISTERED {
            let _ = ACTIVE.try_with(|active| {
                if let Some(profile) = &*active.borrow() {
                    profile.cells[self.slot].fetch_add(n, Ordering::Relaxed);
                }
            });
        }
        self.value.fetch_add(n, Ordering::Relaxed) + n
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Lineage tasks submitted to batch executors.
pub static BATCH_TASKS: Counter = Counter::at(0, "batch.tasks");
/// Distinct lineage structures actually solved by batch executors.
pub static BATCH_DISTINCT: Counter = Counter::at(1, "batch.distinct_lineages");
/// Tasks answered from a structurally-identical lineage's result.
pub static BATCH_DEDUP_HITS: Counter = Counter::at(2, "batch.dedup_hits");
/// Engine `solve` invocations (any engine, batch or direct).
pub static ENGINE_SOLVES: Counter = Counter::at(3, "engine.solves");
/// Structure solves that ran an engine: at most one per distinct structure,
/// however many measures it serves, and none when the result cache answered
/// every measure. Unlike `engine.solves`, which counts engine invocations
/// (one per measure on the read-once route, plus fallbacks), this is the
/// `engine_runs` every report carries.
pub static ENGINE_RUNS: Counter = Counter::at(32, "engine.runs");
/// Lineages the planner routed to knowledge compilation.
pub static PLANNER_KC_ROUTES: Counter = Counter::at(4, "planner.kc_routes");
/// KC-routed lineages compiled top-down. The one compiler is top-down, so
/// this moves with `planner.kc_routes` on every KC route; it stays a
/// separate counter because readers derive the older bottom-up share as
/// the difference.
pub static PLANNER_KC_TOPDOWN_ROUTES: Counter = Counter::at(5, "planner.kc_topdown_routes");
/// Lineages the planner routed to the read-once fast path.
pub static PLANNER_READ_ONCE_ROUTES: Counter = Counter::at(6, "planner.read_once_routes");
/// Tiny non-read-once lineages the planner routed to naive enumeration
/// (cheaper than factorization + compilation below the configured size).
pub static PLANNER_NAIVE_ROUTES: Counter = Counter::at(7, "planner.naive_routes");
/// Hierarchical self-join-free queries whose lineage did *not* factor —
/// a theory violation that must stay at zero.
pub static PLANNER_HIERARCHICAL_DISAGREEMENTS: Counter =
    Counter::at(8, "planner.hierarchical_disagreements");
/// Result-cache lookups answered from a stored canonical result.
pub static CACHE_HITS: Counter = Counter::at(9, "cache.hits");
/// Result-cache lookups that found no entry (the structure was solved and,
/// when exact, stored).
pub static CACHE_MISSES: Counter = Counter::at(10, "cache.misses");
/// Result-cache entries evicted to make room (LRU order).
pub static CACHE_EVICTIONS: Counter = Counter::at(11, "cache.evictions");
/// Tasks that skipped the result cache entirely (inexact plan, dedup off,
/// or caching disabled).
pub static CACHE_BYPASSES: Counter = Counter::at(12, "cache.bypasses");
/// Absorption-minimization passes over DNF lineages
/// (`shapdb_circuit::Dnf::minimize`).
pub static CIRCUIT_MINIMIZE_PASSES: Counter = Counter::at(13, "circuit.minimize_passes");
/// Read-once factorization attempts (`shapdb_circuit::factor` and the
/// pre-minimized variant behind `fingerprint`).
pub static CIRCUIT_FACTOR_PASSES: Counter = Counter::at(14, "circuit.factor_passes");
/// Tasks submitted to resident `ShapleyService` instances (accepted into
/// the queue; rejected submissions count in `service.rejected`).
pub static SERVICE_SUBMITTED: Counter = Counter::at(15, "service.submitted");
/// Tasks a `ShapleyService` completed (fulfilled their ticket).
pub static SERVICE_COMPLETED: Counter = Counter::at(16, "service.completed");
/// Submissions rejected with `SubmitError::Saturated` (backpressure).
pub static SERVICE_REJECTED: Counter = Counter::at(17, "service.rejected");
/// Nanoseconds tasks spent queued before a worker picked them up.
pub static SERVICE_WAIT_NS: Counter = Counter::at(18, "service.wait_ns");
/// Algorithm-1 DP passes that ran on a fixed-limb `Vli` tier (the per-gate
/// binomial cap proved every coefficient fits a stack integer).
pub static NUM_VLI_HITS: Counter = Counter::at(19, "num.vli_hits");
/// Algorithm-1 DP passes that fell back to heap `BigUint` arithmetic
/// (coefficient cap past the widest fixed-limb tier).
pub static NUM_BIGNUM_FALLBACKS: Counter = Counter::at(20, "num.bignum_fallbacks");
/// ∧-gate coefficient convolutions executed via the modular NTT/CRT path
/// instead of schoolbook multiplication.
pub static NUM_NTT_CONVOLUTIONS: Counter = Counter::at(21, "num.ntt_convolutions");
/// Cross-lineage component-cache probes answered with a stored d-DNNF
/// fragment (the top-down compiler skipped compiling that component).
pub static KC_COMP_CACHE_HITS: Counter = Counter::at(22, "kc.comp_cache_hits");
/// Cross-lineage component-cache probes that found no entry (the component
/// was compiled and, when small enough, stored).
pub static KC_COMP_CACHE_MISSES: Counter = Counter::at(23, "kc.comp_cache_misses");
/// Cross-lineage component-cache entries evicted to stay under the node
/// capacity (least-recently-used order).
pub static KC_COMP_CACHE_EVICTIONS: Counter = Counter::at(24, "kc.comp_cache_evictions");
/// Lineage tasks asking for the Shapley measure (any surface).
pub static MEASURE_SHAPLEY: Counter = Counter::at(25, "measure.shapley");
/// Lineage tasks asking for the Banzhaf measure.
pub static MEASURE_BANZHAF: Counter = Counter::at(26, "measure.banzhaf");
/// Lineage tasks asking for the responsibility measure.
pub static MEASURE_RESPONSIBILITY: Counter = Counter::at(27, "measure.responsibility");
/// Lineage tasks asking for the SHAP-score measure.
pub static MEASURE_SHAP_SCORE: Counter = Counter::at(28, "measure.shap_score");
/// Answers the top-k admission loop fully solved (their structure group was
/// compiled and evaluated).
pub static TOPK_SOLVED: Counter = Counter::at(29, "topk.solved");
/// Answers the top-k path ranked out unsolved: their Shapley upper bound
/// fell strictly below the k-th best lower bound (dropped in the stream,
/// never fingerprinted) or below the k-th solved score (pruned by the
/// admission loop), so no compile was spent on them.
pub static TOPK_PRUNED: Counter = Counter::at(30, "topk.pruned");
/// Bound computations performed by the top-k path (one per streamed answer
/// per ranking call).
pub static TOPK_BOUND_PASSES: Counter = Counter::at(31, "topk.bound_passes");

/// Number of registered counters (the width of a [`Profile`]).
const REGISTERED: usize = 33;

/// The full counter registry, in slot order (the [`snapshot`] /
/// [`CounterSnapshot`] / [`Profile::values`] row order).
fn registry() -> [&'static Counter; REGISTERED] {
    [
        &BATCH_TASKS,
        &BATCH_DISTINCT,
        &BATCH_DEDUP_HITS,
        &ENGINE_SOLVES,
        &PLANNER_KC_ROUTES,
        &PLANNER_KC_TOPDOWN_ROUTES,
        &PLANNER_READ_ONCE_ROUTES,
        &PLANNER_NAIVE_ROUTES,
        &PLANNER_HIERARCHICAL_DISAGREEMENTS,
        &CACHE_HITS,
        &CACHE_MISSES,
        &CACHE_EVICTIONS,
        &CACHE_BYPASSES,
        &CIRCUIT_MINIMIZE_PASSES,
        &CIRCUIT_FACTOR_PASSES,
        &SERVICE_SUBMITTED,
        &SERVICE_COMPLETED,
        &SERVICE_REJECTED,
        &SERVICE_WAIT_NS,
        &NUM_VLI_HITS,
        &NUM_BIGNUM_FALLBACKS,
        &NUM_NTT_CONVOLUTIONS,
        &KC_COMP_CACHE_HITS,
        &KC_COMP_CACHE_MISSES,
        &KC_COMP_CACHE_EVICTIONS,
        &MEASURE_SHAPLEY,
        &MEASURE_BANZHAF,
        &MEASURE_RESPONSIBILITY,
        &MEASURE_SHAP_SCORE,
        &TOPK_SOLVED,
        &TOPK_PRUNED,
        &TOPK_BOUND_PASSES,
        &ENGINE_RUNS,
    ]
}

/// Snapshot of every registered counter, for reports and debugging.
pub fn snapshot() -> Vec<(&'static str, u64)> {
    registry().iter().map(|c| (c.name(), c.get())).collect()
}

/// A point-in-time capture of the process-global counter cells.
///
/// The global cells are cumulative across the process, so the difference
/// of two snapshots ([`CounterSnapshot::delta_of`]) includes the work of
/// every run that overlapped the window. For one run's own numbers read
/// its [`Profile`] instead.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterSnapshot {
    values: Vec<(&'static str, u64)>,
}

impl CounterSnapshot {
    /// Captures the current value of every registered counter.
    pub fn take() -> CounterSnapshot {
        CounterSnapshot { values: snapshot() }
    }

    /// The captured value of one counter (0 for unknown names).
    pub fn get(&self, name: &str) -> u64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// One counter's increments between `earlier` and `self` (saturating:
    /// snapshots passed in the wrong order read as 0, not a wraparound).
    pub fn delta_of(&self, earlier: &CounterSnapshot, name: &str) -> u64 {
        self.get(name).saturating_sub(earlier.get(name))
    }
}

thread_local! {
    /// The profile [`Counter::add`] records into on this thread.
    static ACTIVE: RefCell<Option<Arc<Profile>>> = const { RefCell::new(None) };
}

/// A copy of the counter registry scoped to one run or one service.
///
/// While a thread is inside a profile's scope ([`Profile::enter`]), every
/// registered counter it bumps also adds to that profile, so a profile
/// holds exactly the work done on the threads that entered it — however
/// many other runs share the process. Executors and the service enter
/// their profile on their own threads and on every worker they spawn, and
/// hand a copy back in their report. A thread is in at most one scope at
/// a time: a scope entered inside another records into the inner profile
/// only, until it ends.
///
/// `Clone` copies the current values; equality compares them.
pub struct Profile {
    cells: [AtomicU64; REGISTERED],
}

impl Profile {
    /// An all-zero profile.
    pub fn new() -> Profile {
        Profile {
            cells: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Makes this the calling thread's active profile until the returned
    /// scope is dropped (which restores the previous one).
    pub fn enter(self: &Arc<Self>) -> ProfileScope {
        let previous = ACTIVE.with(|active| active.replace(Some(Arc::clone(self))));
        ProfileScope {
            previous,
            _thread_bound: PhantomData,
        }
    }

    /// The calling thread's active profile, for workers to enter.
    pub fn current() -> Option<Arc<Profile>> {
        ACTIVE.with(|active| active.borrow().clone())
    }

    /// Adds `n` to `counter`'s global cell and to this profile, from a
    /// thread outside this profile's scope (a service's client threads).
    pub fn add(&self, counter: &Counter, n: u64) {
        counter.value.fetch_add(n, Ordering::Relaxed);
        if counter.slot != UNREGISTERED {
            self.cells[counter.slot].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// What this profile recorded for `counter` (0 for unregistered ones).
    pub fn get(&self, counter: &Counter) -> u64 {
        self.cells
            .get(counter.slot)
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Every registered counter's value in this profile, in registry order.
    pub fn values(&self) -> Vec<(&'static str, u64)> {
        registry()
            .iter()
            .zip(&self.cells)
            .map(|(c, v)| (c.name(), v.load(Ordering::Relaxed)))
            .collect()
    }

    /// Distinct structures whose solve ran an engine (`engine.runs`).
    pub fn engine_runs(&self) -> usize {
        self.get(&ENGINE_RUNS) as usize
    }
}

impl Default for Profile {
    fn default() -> Profile {
        Profile::new()
    }
}

impl Clone for Profile {
    fn clone(&self) -> Profile {
        Profile {
            cells: std::array::from_fn(|i| AtomicU64::new(self.cells[i].load(Ordering::Relaxed))),
        }
    }
}

impl PartialEq for Profile {
    fn eq(&self, other: &Profile) -> bool {
        self.values() == other.values()
    }
}

impl Eq for Profile {}

impl std::fmt::Debug for Profile {
    /// The non-zero counters, by name.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map()
            .entries(self.values().into_iter().filter(|&(_, v)| v > 0))
            .finish()
    }
}

/// A thread's stay in a [`Profile`] (see [`Profile::enter`]); dropping it
/// restores the profile that was active before.
#[must_use = "the profile is active only while the scope lives"]
pub struct ProfileScope {
    previous: Option<Arc<Profile>>,
    /// Scopes restore thread-local state, so they stay on their thread.
    _thread_bound: PhantomData<*const ()>,
}

impl Drop for ProfileScope {
    fn drop(&mut self) {
        let previous = self.previous.take();
        let _ = ACTIVE.try_with(|active| *active.borrow_mut() = previous);
    }
}

/// A named process-wide level (unlike the monotonic [`Counter`]s): queue
/// depths, in-flight task counts. Signed so a racy dec-before-inc
/// interleaving can never wrap.
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    value: std::sync::atomic::AtomicI64,
}

impl Gauge {
    /// A new gauge at zero.
    pub const fn new(name: &'static str) -> Gauge {
        Gauge {
            name,
            value: std::sync::atomic::AtomicI64::new(0),
        }
    }

    /// The gauge's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n` (negative to decrease); returns the new level.
    pub fn add(&self, n: i64) -> i64 {
        self.value.fetch_add(n, Ordering::Relaxed) + n
    }

    /// Increments by one; returns the new level.
    pub fn incr(&self) -> i64 {
        self.add(1)
    }

    /// Decrements by one; returns the new level.
    pub fn decr(&self) -> i64 {
        self.add(-1)
    }

    /// Sets an absolute level.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Tasks currently waiting in `ShapleyService` queues, process-wide.
pub static SERVICE_QUEUE_DEPTH: Gauge = Gauge::new("service.queue_depth");
/// Tasks currently being solved by `ShapleyService` workers, process-wide.
pub static SERVICE_IN_FLIGHT: Gauge = Gauge::new("service.in_flight");

/// Snapshot of every registered gauge.
pub fn gauges() -> Vec<(&'static str, i64)> {
    [&SERVICE_QUEUE_DEPTH, &SERVICE_IN_FLIGHT]
        .iter()
        .map(|g| (g.name(), g.get()))
        .collect()
}

/// Dedup statistics of one batch run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DedupStats {
    /// Lineage tasks submitted.
    pub tasks: usize,
    /// Distinct lineage structures (by canonical fingerprint).
    pub distinct: usize,
}

impl DedupStats {
    /// Tasks that reused another task's computation (`tasks - distinct`):
    /// exact results translate bit-identically through the renaming, and
    /// sampling groups share one estimate drawn with the group's total
    /// sample budget.
    pub fn hits(&self) -> usize {
        self.tasks - self.distinct
    }

    /// Fraction of tasks answered by reuse (0.0 when the batch is empty).
    pub fn hit_rate(&self) -> f64 {
        if self.tasks == 0 {
            return 0.0;
        }
        self.hits() as f64 / self.tasks as f64
    }
}

/// Cache involvement of one run or service, read from its [`Profile`]:
/// how many (structure, measure) pairs were answered from the cross-query
/// result cache, how many were solved and stored, and how many skipped the
/// cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheRunStats {
    /// Distinct structures answered from the cache without an engine run.
    pub hits: usize,
    /// Distinct structures looked up, not found, and solved.
    pub misses: usize,
    /// Distinct structures (or tasks, with dedup off) that skipped the
    /// cache: inexact plans, no fingerprint, or caching disabled.
    pub bypasses: usize,
}

impl CacheRunStats {
    /// The `cache.{hits,misses,bypasses}` a profile recorded.
    pub fn of(profile: &Profile) -> CacheRunStats {
        CacheRunStats {
            hits: profile.get(&CACHE_HITS) as usize,
            misses: profile.get(&CACHE_MISSES) as usize,
            bypasses: profile.get(&CACHE_BYPASSES) as usize,
        }
    }

    /// Fraction of cache-eligible structures answered from the cache
    /// (0.0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            return 0.0;
        }
        self.hits as f64 / lookups as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        static C: Counter = Counter::new("test.counter");
        assert_eq!(C.get(), 0);
        assert_eq!(C.incr(), 1);
        assert_eq!(C.add(4), 5);
        assert_eq!(C.name(), "test.counter");
    }

    #[test]
    fn snapshot_lists_registered_counters() {
        let names: Vec<&str> = snapshot().iter().map(|(n, _)| *n).collect();
        assert!(names.contains(&"batch.dedup_hits"));
        assert!(names.contains(&"planner.hierarchical_disagreements"));
        assert!(names.contains(&"cache.hits"));
        assert!(names.contains(&"cache.evictions"));
        assert!(names.contains(&"circuit.factor_passes"));
        assert!(names.contains(&"service.submitted"));
        assert!(names.contains(&"service.wait_ns"));
        assert!(names.contains(&"measure.shapley"));
        assert!(names.contains(&"measure.banzhaf"));
        assert!(names.contains(&"measure.responsibility"));
        assert!(names.contains(&"measure.shap_score"));
        assert!(names.contains(&"topk.solved"));
        assert!(names.contains(&"topk.pruned"));
        assert!(names.contains(&"topk.bound_passes"));
    }

    #[test]
    fn counter_snapshot_deltas_are_scoped() {
        let before = CounterSnapshot::take();
        SERVICE_SUBMITTED.add(3);
        SERVICE_COMPLETED.add(2);
        let after = CounterSnapshot::take();
        assert!(after.delta_of(&before, "service.submitted") >= 3);
        assert!(after.delta_of(&before, "service.completed") >= 2);
        assert_eq!(after.delta_of(&before, "service.unknown"), 0);
        // Deltas never go negative (saturating), even after a reset.
        assert_eq!(before.delta_of(&after, "service.submitted"), 0);
    }

    #[test]
    fn registry_slots_follow_registry_order() {
        for (i, c) in registry().iter().enumerate() {
            assert_eq!(c.slot, i, "{}", c.name());
        }
        assert_eq!(Profile::new().get(&Counter::new("test.unregistered")), 0);
    }

    #[test]
    fn profiles_count_their_own_threads_work() {
        let (outer, inner) = (Arc::new(Profile::new()), Arc::new(Profile::new()));
        {
            let _outer = outer.enter();
            TOPK_SOLVED.add(2);
            {
                let _inner = inner.enter();
                TOPK_SOLVED.add(7);
            }
            // A thread outside any scope records into neither; a worker
            // joins the run by entering the caller's profile.
            std::thread::spawn(|| TOPK_SOLVED.add(100)).join().unwrap();
            let run = Profile::current().unwrap();
            let worker = move || {
                let _run = run.enter();
                TOPK_PRUNED.incr();
            };
            std::thread::spawn(worker).join().unwrap();
            TOPK_SOLVED.incr();
        }
        assert!(Profile::current().is_none());
        TOPK_SOLVED.add(50);
        assert_eq!((outer.get(&TOPK_SOLVED), outer.get(&TOPK_PRUNED)), (3, 1));
        inner.add(&SERVICE_REJECTED, 4); // direct, from outside the scope
        let copy = (*inner).clone();
        assert_eq!(copy, *inner);
        assert_ne!(copy, *outer);
        assert_eq!(
            format!("{copy:?}"),
            r#"{"service.rejected": 4, "topk.solved": 7}"#
        );
    }

    #[test]
    fn gauge_levels_move_both_ways() {
        static G: Gauge = Gauge::new("test.gauge");
        assert_eq!(G.get(), 0);
        assert_eq!(G.incr(), 1);
        assert_eq!(G.add(4), 5);
        assert_eq!(G.decr(), 4);
        G.set(-2);
        assert_eq!(G.get(), -2);
        assert_eq!(G.name(), "test.gauge");
        G.set(0);
        let names: Vec<&str> = gauges().iter().map(|(n, _)| *n).collect();
        assert!(names.contains(&"service.queue_depth"));
        assert!(names.contains(&"service.in_flight"));
    }

    #[test]
    fn cache_run_stats_hit_rate() {
        let p = Arc::new(Profile::new());
        {
            let _scope = p.enter();
            CACHE_HITS.add(3);
            CACHE_MISSES.incr();
            CACHE_BYPASSES.add(2);
        }
        let s = CacheRunStats::of(&p);
        assert_eq!(
            s,
            CacheRunStats {
                hits: 3,
                misses: 1,
                bypasses: 2,
            }
        );
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheRunStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn dedup_stats_rates() {
        let s = DedupStats {
            tasks: 8,
            distinct: 2,
        };
        assert_eq!(s.hits(), 6);
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(DedupStats::default().hit_rate(), 0.0);
    }
}
