//! The resident [`ShapleyService`]: a long-lived worker pool serving many
//! clients from one process, one planner, and one result cache.
//!
//! Every one-shot entry point (`Planner::solve`, `BatchExecutor::run`, the
//! facade, the CLI) builds its execution state per call: a scoped thread
//! pool is spawned, drained, and joined inside each batch. That is the
//! right shape for a single query, and the wrong one for a server — N
//! concurrent callers each spinning their own pool oversubscribe the
//! machine, and nothing but the cache amortizes across calls. This module
//! is the session-oriented shape:
//!
//! * **persistent workers** — plain `std` threads (no async runtime)
//!   spawned once, draining a shared queue until shutdown;
//! * **bounded fair queue** — one FIFO lane per client popped round-robin
//!   ([`queue::FairQueue`]), so a flooding client cannot starve others;
//!   when the bound is hit, [`submit`](ShapleyService::submit) returns
//!   [`SubmitError::Saturated`] — backpressure, not unbounded memory;
//! * **ticketed futures-by-hand** — [`submit`](ShapleyService::submit)
//!   returns a [`Submission`] with `wait()`/`try_wait()`;
//! * **per-request policy** — a [`LineageRequest`] may carry its own
//!   [`PlannerConfig`] and its own [`Budget`] (one deadline for the whole
//!   exact solve, compilation and Algorithm 1 alike); the worker solves
//!   under them while sharing the service's [`super::ShapleyCache`]
//!   (policy digests keep entries from crossing policies);
//! * **graceful drain** — [`shutdown`](ShapleyService::shutdown) (also run
//!   on drop) stops intake, lets the workers drain every queued job, and
//!   joins them; every accepted ticket is fulfilled.
//!
//! Workers run the same pipeline stage ([`super::stages::solve_one`]) the
//! one-shot paths use: fingerprint → plan → solve the canonical structure
//! through the shared cache → translate. Exact results are therefore
//! bit-identical to sequential and batch solving of the same lineage, and
//! any structure solved by *any* client is served from the cache for every
//! later isomorphic request — the cross-call reuse the cache was built
//! for, now shared by N clients inside one process.

mod queue;
mod submission;

pub use submission::Submission;
pub(crate) use submission::TicketInner;

use super::stages::{self, WORKER_STACK};
use super::{EngineError, EngineResult, LineageTask, Measure, Planner, PlannerConfig};
use queue::{FairQueue, Job};
use shapdb_circuit::Dnf;
use shapdb_kc::{Budget, ComponentCache};
use shapdb_metrics::counters::{
    SERVICE_COMPLETED, SERVICE_IN_FLIGHT, SERVICE_QUEUE_DEPTH, SERVICE_REJECTED, SERVICE_SUBMITTED,
    SERVICE_WAIT_NS,
};
use shapdb_metrics::Profile;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Locks a mutex, recovering from poisoning. Every guarded section in this
/// module leaves its structure consistent (queue counters and lane lists
/// are updated together under the lock), so a panic elsewhere — e.g. an
/// engine bug unwinding through a worker — must not cascade into
/// `SubmitError`s or lost tickets for unrelated clients.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Service sizing knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Persistent worker threads (0 = all available cores).
    pub workers: usize,
    /// Bound on queued (not yet started) submissions across all clients;
    /// past it, [`ShapleyService::submit`] returns
    /// [`SubmitError::Saturated`]. Clamped to at least 1.
    pub queue_capacity: usize,
    /// Budget applied to requests that do not carry their own
    /// ([`LineageRequest::with_budget`]).
    pub default_budget: Budget,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 0,
            queue_capacity: ServiceConfig::DEFAULT_QUEUE_CAPACITY,
            default_budget: Budget::unlimited(),
        }
    }
}

impl ServiceConfig {
    /// Default queue bound: deep enough to absorb a dashboard refresh,
    /// shallow enough that a stuck client notices in milliseconds.
    pub const DEFAULT_QUEUE_CAPACITY: usize = 1024;

    /// Resolved worker count.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Why a submission was not accepted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SubmitError {
    /// The bounded queue is full — backpressure. Retry later, use
    /// [`ShapleyService::submit_blocking`], or raise the capacity.
    Saturated,
    /// The service is shutting down (or already shut down); no new work is
    /// accepted. Already-accepted submissions still complete.
    ShuttingDown,
    /// The request failed validation ([`LineageRequest::validate`]) and was
    /// never enqueued. Accepting it would panic a worker mid-solve — e.g. a
    /// lineage referencing a fact id `>= n_endo` trips the variable-range
    /// assertion in Algorithm 1.
    Invalid(&'static str),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Saturated => write!(f, "service queue is saturated"),
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
            SubmitError::Invalid(why) => write!(f, "invalid request: {why}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// One owned unit of work for the service: the lineage plus everything a
/// worker needs to solve it. The owned [`Dnf`] (unlike the borrowed
/// [`LineageTask`]) is what lets requests outlive the submitting call.
#[derive(Clone, Debug)]
pub struct LineageRequest {
    /// The monotone DNF endogenous lineage.
    pub lineage: Dnf,
    /// `|D_n|`, the number of endogenous facts of the database.
    pub n_endo: usize,
    /// The solve's budget: its deadline bounds compilation and Algorithm 1
    /// together (see [`LineageTask::budget`]), its node cap bounds
    /// compilation. `None` uses the service's
    /// [`ServiceConfig::default_budget`].
    pub budget: Option<Budget>,
    /// Per-request planner policy. `None` solves under the service's own
    /// policy; `Some` overrides it for this request only — the shared
    /// result cache stays correct either way (the policy is part of the
    /// cache key digest).
    pub policy: Option<PlannerConfig>,
    /// The attribution [`Measure`] to compute (default Shapley). Entries in
    /// the shared cache are measure-keyed, so one compiled structure warmed
    /// by any client serves every measure asked of it later.
    pub measure: Measure,
    /// Test-only fault injection: makes the worker panic mid-solve, so the
    /// `catch_unwind` isolation path can be pinned without depending on a
    /// reachable engine bug.
    #[cfg(test)]
    pub(crate) inject_panic: bool,
}

impl LineageRequest {
    /// A request under the service's own policy and default budgets.
    pub fn new(lineage: Dnf, n_endo: usize) -> LineageRequest {
        LineageRequest {
            lineage,
            n_endo,
            budget: None,
            policy: None,
            measure: Measure::Shapley,
            #[cfg(test)]
            inject_panic: false,
        }
    }

    /// Overrides the service's budget for this request.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Overrides the planner policy for this request.
    pub fn with_policy(mut self, policy: PlannerConfig) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Selects the attribution measure for this request (default Shapley).
    pub fn with_measure(mut self, measure: Measure) -> Self {
        self.measure = measure;
        self
    }

    /// Checks the request is solvable before it reaches a worker. Every
    /// submit path runs this; a failure is returned as
    /// [`SubmitError::Invalid`] without enqueueing anything.
    ///
    /// The structural invariant the engines assume is that the lineage's
    /// *distinct* facts all fit in the endogenous database: Algorithm 1
    /// asserts `n_endo >= num_vars` (`crate::exact`), so a lineage over
    /// more distinct facts than `n_endo` — e.g. any fact id at all when
    /// `n_endo` is 0 — would panic a persistent worker mid-solve, leaving
    /// the ticket unfulfilled. (Fact ids themselves are labels: the
    /// canonicalizing pipeline densifies them, so ids beyond `n_endo` are
    /// fine as long as the distinct count fits. Front-ends whose protocol
    /// defines ids as indexes into `0..n_endo` — the CLI — additionally
    /// range-check each id at their own boundary.)
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.lineage.vars().len() > self.n_endo {
            return Err("lineage has more distinct fact ids than n_endo endogenous facts");
        }
        Ok(())
    }
}

/// Point-in-time operational report of one service. The traffic and
/// solve figures are read from the service's [`Profile`].
#[derive(Clone, Debug)]
pub struct ServiceStats {
    /// Persistent worker threads.
    pub workers: usize,
    /// Submissions currently queued (not yet picked up).
    pub queue_depth: usize,
    /// The queue bound.
    pub queue_capacity: usize,
    /// Submissions currently being solved.
    pub in_flight: usize,
    /// Distinct client lanes ever opened.
    pub clients: usize,
    /// Every counter the service's submissions and workers bumped since it
    /// started, and nothing any other run in the process did: the
    /// `service.submitted`/`completed`/`rejected` traffic, the queue wait
    /// (`service.wait_ns`), `engine.runs` (cache hits run none) and the
    /// shared result cache's use (`CacheRunStats::of`).
    pub profile: Profile,
}

impl ServiceStats {
    /// Mean queue wait per completed submission.
    pub fn mean_wait(&self) -> Duration {
        let completed = self.profile.get(&SERVICE_COMPLETED);
        if completed == 0 {
            return Duration::ZERO;
        }
        let total_ns = u128::from(self.profile.get(&SERVICE_WAIT_NS));
        Duration::from_nanos((total_ns / u128::from(completed)) as u64)
    }
}

/// State shared between the handle, the clients, and the workers.
struct Shared {
    planner: Planner,
    queue: Mutex<FairQueue>,
    /// Signaled when work is pushed (and broadcast on close).
    work: Condvar,
    /// Signaled when a job is popped (blocking submitters wait here).
    space: Condvar,
    /// What the service did: its client threads record submissions into
    /// it directly, its workers run inside it.
    profile: Arc<Profile>,
    in_flight: AtomicUsize,
    next_client: AtomicU64,
    workers: usize,
    default_budget: Budget,
}

/// A per-client handle: submissions through one handle share a fair-queue
/// lane, so distinct handles get round-robin service no matter how deep
/// any one lane is. Cheap to clone and `Send` — hand one to each client
/// thread.
#[derive(Clone)]
pub struct ServiceClient {
    shared: Arc<Shared>,
    client: u64,
}

impl ServiceClient {
    /// Non-blocking submit: [`SubmitError::Saturated`] when the queue is
    /// at capacity.
    pub fn submit(&self, request: LineageRequest) -> Result<Submission, SubmitError> {
        submit_inner(&self.shared, self.client, request, false)
    }

    /// Blocking submit: waits for queue space instead of rejecting (still
    /// fails with [`SubmitError::ShuttingDown`] once the service stops
    /// accepting).
    pub fn submit_blocking(&self, request: LineageRequest) -> Result<Submission, SubmitError> {
        submit_inner(&self.shared, self.client, request, true)
    }

    /// Submit-all + return the tickets: the batch shape on the resident
    /// path ("submit all, wait all" — the same pipeline stages the
    /// one-shot batch runs, with the shared cache providing the
    /// cross-request dedup). Blocks for queue space, so batches larger
    /// than the queue bound stream through it.
    pub fn submit_all(
        &self,
        lineages: impl IntoIterator<Item = Dnf>,
        n_endo: usize,
        budget: &Budget,
    ) -> Result<Vec<Submission>, SubmitError> {
        lineages
            .into_iter()
            .map(|lineage| {
                self.submit_blocking(LineageRequest::new(lineage, n_endo).with_budget(*budget))
            })
            .collect()
    }
}

/// The resident service handle. Dropping it shuts the service down
/// gracefully (intake stops, queued work drains, workers join).
///
/// The handle itself is shareable behind an `Arc`: [`ShapleyService::close`]
/// and [`ShapleyService::stats`] take `&self`, so a front-end (e.g. the
/// CLI's socket listener) can hold `Arc<ShapleyService>` across connection
/// threads and still drain the pool from any of them.
pub struct ShapleyService {
    shared: Arc<Shared>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl ShapleyService {
    /// Spawns the worker pool. The planner (policy + attached cache) is
    /// the cost model every worker shares; attach a
    /// [`super::ShapleyCache`] to it for cross-request reuse — without
    /// one, requests solve independently.
    pub fn new(planner: Planner, cfg: ServiceConfig) -> ShapleyService {
        // A resident component cache (unless the caller attached their
        // own): every worker's top-down compiles share d-DNNF fragments
        // across requests for the service's whole lifetime. Per-request
        // policy overrides clone the planner and keep this `Arc`; the
        // context digest keeps incompatible policies segregated inside it.
        let planner = match planner.component_cache() {
            Some(_) => planner,
            None => planner.with_component_cache(Arc::new(ComponentCache::new())),
        };
        let workers = cfg.effective_workers();
        let shared = Arc::new(Shared {
            planner,
            queue: Mutex::new(FairQueue::new(cfg.queue_capacity)),
            work: Condvar::new(),
            space: Condvar::new(),
            profile: Arc::new(Profile::new()),
            in_flight: AtomicUsize::new(0),
            // Lane 0 is the service handle's own; clients start at 1.
            next_client: AtomicU64::new(1),
            workers,
            default_budget: cfg.default_budget,
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("shapdb-svc-{w}"))
                    .stack_size(WORKER_STACK)
                    .spawn(move || {
                        let _service = shared.profile.enter();
                        worker_loop(&shared)
                    })
                    .expect("spawn service worker")
            })
            .collect();
        ShapleyService {
            shared,
            handles: Mutex::new(handles),
        }
    }

    /// A new client handle with its own fair-queue lane.
    pub fn client(&self) -> ServiceClient {
        ServiceClient {
            shared: Arc::clone(&self.shared),
            client: self.shared.next_client.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Non-blocking submit on the service's own lane (lane 0). Multi-client
    /// callers should prefer per-client handles from
    /// [`ShapleyService::client`] for fair scheduling.
    pub fn submit(&self, request: LineageRequest) -> Result<Submission, SubmitError> {
        submit_inner(&self.shared, 0, request, false)
    }

    /// Blocking submit on the service's own lane.
    pub fn submit_blocking(&self, request: LineageRequest) -> Result<Submission, SubmitError> {
        submit_inner(&self.shared, 0, request, true)
    }

    /// [`ServiceClient::submit_all`] on the service's own lane.
    pub fn submit_all(
        &self,
        lineages: impl IntoIterator<Item = Dnf>,
        n_endo: usize,
        budget: &Budget,
    ) -> Result<Vec<Submission>, SubmitError> {
        ServiceClient {
            shared: Arc::clone(&self.shared),
            client: 0,
        }
        .submit_all(lineages, n_endo, budget)
    }

    /// The shared planner (its cache is the one every worker consults).
    pub fn planner(&self) -> &Planner {
        &self.shared.planner
    }

    /// The service's operational report (see [`ServiceStats`]).
    pub fn stats(&self) -> ServiceStats {
        let (queue_depth, queue_capacity, clients) = {
            let q = lock_recover(&self.shared.queue);
            (q.len(), q.capacity(), q.clients())
        };
        let profile = (*self.shared.profile).clone();
        ServiceStats {
            workers: self.shared.workers,
            queue_depth,
            queue_capacity,
            in_flight: self.shared.in_flight.load(Ordering::Relaxed),
            clients,
            profile,
        }
    }

    /// Graceful shutdown: stops intake, drains every queued job (all
    /// accepted tickets are fulfilled), joins the workers, and returns the
    /// final stats. Also runs on drop.
    pub fn shutdown(self) -> ServiceStats {
        self.close();
        self.stats()
        // Drop runs next; handles are already empty, so it is a no-op.
    }

    /// [`ShapleyService::shutdown`] through a shared reference: stops
    /// intake, drains, and joins without consuming the handle. Idempotent —
    /// later calls (and the eventual drop) find no handles to join.
    pub fn close(&self) {
        {
            let mut q = lock_recover(&self.shared.queue);
            q.close();
        }
        // Wake everyone: idle workers (to observe the close) and blocked
        // submitters (to fail with ShuttingDown).
        self.shared.work.notify_all();
        self.shared.space.notify_all();
        let handles = std::mem::take(&mut *lock_recover(&self.handles));
        for h in handles {
            // A worker that panicked outside the per-request catch_unwind
            // already fulfilled nothing new; propagating its panic here
            // would turn one dead worker into a dead service.
            let _ = h.join();
        }
    }
}

impl Drop for ShapleyService {
    fn drop(&mut self) {
        self.close();
    }
}

impl std::fmt::Debug for ShapleyService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShapleyService")
            .field("workers", &self.shared.workers)
            .field("queued", &lock_recover(&self.shared.queue).len())
            .finish()
    }
}

/// Enqueues one request (see the submit methods for the two modes).
fn submit_inner(
    shared: &Shared,
    client: u64,
    request: LineageRequest,
    blocking: bool,
) -> Result<Submission, SubmitError> {
    if let Err(why) = request.validate() {
        return Err(SubmitError::Invalid(why));
    }
    let ticket = TicketInner::new();
    let mut job = Job {
        request,
        ticket: Arc::clone(&ticket),
        enqueued: Instant::now(),
        sequence: 0,
    };
    let mut q = lock_recover(&shared.queue);
    loop {
        if q.is_closed() {
            return Err(SubmitError::ShuttingDown);
        }
        job.enqueued = Instant::now();
        job.sequence = shared.profile.get(&SERVICE_SUBMITTED);
        match q.push(client, job) {
            None => {
                shared.profile.add(&SERVICE_SUBMITTED, 1);
                SERVICE_QUEUE_DEPTH.incr();
                // Wake a worker only when one is actually parked: a busy
                // pool pays no futex traffic per submission.
                let worker_idle = q.idle_workers > 0;
                drop(q);
                if worker_idle {
                    shared.work.notify_one();
                }
                return Ok(Submission { ticket });
            }
            Some(back) => {
                if !blocking {
                    shared.profile.add(&SERVICE_REJECTED, 1);
                    return Err(SubmitError::Saturated);
                }
                job = back;
                q.space_waiters += 1;
                q = shared.space.wait(q).unwrap_or_else(PoisonError::into_inner);
                q.space_waiters -= 1;
            }
        }
    }
}

/// Extracts a human-readable message from a panic payload (`panic!` with a
/// literal yields `&str`; with a format string, `String`).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        return (*s).to_string();
    }
    if let Some(s) = payload.downcast_ref::<String>() {
        return s.clone();
    }
    "unknown panic".to_string()
}

/// One persistent worker: pop fairly, solve through the shared pipeline
/// stage, fulfill the ticket; exit once the queue is closed *and* drained.
fn worker_loop(shared: &Shared) {
    loop {
        let (job, submitter_blocked) = {
            let mut q = lock_recover(&shared.queue);
            let job = loop {
                if let Some(job) = q.pop_fair() {
                    break job;
                }
                if q.is_closed() {
                    return;
                }
                q.compact();
                q.idle_workers += 1;
                q = shared.work.wait(q).unwrap_or_else(PoisonError::into_inner);
                q.idle_workers -= 1;
            };
            (job, q.space_waiters > 0)
        };
        SERVICE_QUEUE_DEPTH.decr();
        if submitter_blocked {
            shared.space.notify_one();
        }

        SERVICE_WAIT_NS.add(job.enqueued.elapsed().as_nanos() as u64);
        shared.in_flight.fetch_add(1, Ordering::Relaxed);
        SERVICE_IN_FLIGHT.incr();

        // Per-request policy override: a fresh planner view with the same
        // shared cache (the policy digest keys the entries apart).
        let planner = match job.request.policy {
            Some(cfg) => {
                let mut p = shared.planner.clone();
                p.cfg = cfg;
                p
            }
            None => shared.planner.clone(),
        };
        let task = LineageTask::new(&job.request.lineage, job.request.n_endo)
            .with_budget(job.request.budget.unwrap_or(shared.default_budget))
            .with_measure(job.request.measure)
            .with_seed_salt(job.sequence);
        // Panic isolation: an engine bug unwinding out of the solve must
        // fulfill *this* ticket with an error — not kill the worker and
        // strand this client's `wait()` (and, via a poisoned queue lock,
        // every other client's) forever. The pipeline state is all owned by
        // this call frame, so resuming the worker after an unwind is sound.
        let result: Result<EngineResult, EngineError> = match catch_unwind(AssertUnwindSafe(|| {
            #[cfg(test)]
            if job.request.inject_panic {
                panic!("injected test panic");
            }
            stages::solve_one(&planner, &task)
        })) {
            Ok(result) => result,
            Err(payload) => Err(EngineError::Panicked(panic_message(payload))),
        };
        // Count the completion before fulfilling: the ticket's mutex then
        // orders it before anything the waiter does next, so a client that
        // has read its response also sees it counted in the stats.
        shared.in_flight.fetch_sub(1, Ordering::Relaxed);
        SERVICE_IN_FLIGHT.decr();
        SERVICE_COMPLETED.incr();
        job.ticket.fulfill(result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineValues, ShapleyCache};
    use shapdb_circuit::VarId;
    use shapdb_metrics::counters::CacheRunStats;
    use shapdb_num::Rational;

    fn dnf(conjs: &[&[u32]]) -> Dnf {
        let mut d = Dnf::new();
        for c in conjs {
            d.add_conjunct(c.iter().map(|&v| VarId(v)).collect());
        }
        d
    }

    fn service(workers: usize, capacity: usize) -> ShapleyService {
        let planner =
            Planner::new(PlannerConfig::default()).with_cache(Arc::new(ShapleyCache::new()));
        ShapleyService::new(
            planner,
            ServiceConfig {
                workers,
                queue_capacity: capacity,
                ..Default::default()
            },
        )
    }

    fn exact_pairs(r: &EngineResult) -> Vec<(u32, Rational)> {
        match &r.values {
            EngineValues::Exact(v) => v.iter().map(|(f, x)| (f.0, x.clone())).collect(),
            EngineValues::Approx(_) => panic!("expected exact"),
        }
    }

    #[test]
    fn submissions_complete_with_sequential_values() {
        let svc = service(2, 64);
        let running = dnf(&[&[0], &[1, 3], &[1, 4], &[2, 3], &[2, 4], &[5, 6]]);
        let sub = svc.submit(LineageRequest::new(running.clone(), 8)).unwrap();
        let r = sub.wait().unwrap();
        let sequential = Planner::new(PlannerConfig::default())
            .solve(&LineageTask::new(&running, 8))
            .unwrap();
        assert_eq!(exact_pairs(&r), exact_pairs(&sequential));
        // Isomorphic follow-up from another client: served from the shared
        // cache, translated onto its own facts.
        let renamed = dnf(&[&[70], &[40, 20], &[40, 60], &[10, 20], &[10, 60], &[30, 50]]);
        let client = svc.client();
        let r2 = client
            .submit(LineageRequest::new(renamed, 8))
            .unwrap()
            .wait()
            .unwrap();
        let v70 = exact_pairs(&r2)
            .into_iter()
            .find(|(f, _)| *f == 70)
            .unwrap()
            .1;
        assert_eq!(v70, Rational::from_ratio(43, 105));
        let stats = svc.shutdown();
        assert_eq!(stats.profile.get(&SERVICE_COMPLETED), 2);
        assert_eq!(
            CacheRunStats::of(&stats.profile).hits,
            1,
            "second structure came from cache"
        );
        assert_eq!(stats.profile.engine_runs(), 1);
    }

    #[test]
    fn try_wait_polls_and_wait_blocks() {
        let svc = service(1, 8);
        let sub = svc.submit(LineageRequest::new(dnf(&[&[0, 1]]), 4)).unwrap();
        let r = sub.wait().unwrap();
        assert!(sub.is_done());
        assert_eq!(
            exact_pairs(&sub.try_wait().unwrap().unwrap()),
            exact_pairs(&r)
        );
    }

    #[test]
    fn per_request_policy_overrides_the_service_policy() {
        let svc = service(1, 8);
        let majority = dnf(&[&[0, 1], &[1, 2], &[0, 2]]);
        // Service default: tiny-naive route (exact).
        let base = svc
            .submit(LineageRequest::new(majority.clone(), 3))
            .unwrap()
            .wait()
            .unwrap();
        assert!(base.values.is_exact());
        // Per-request: force the proxy — inexact scores, same service.
        let forced = svc
            .submit(LineageRequest::new(majority, 3).with_policy(PlannerConfig {
                force: Some(crate::engine::EngineKind::Proxy),
                ..Default::default()
            }))
            .unwrap()
            .wait()
            .unwrap();
        assert!(!forced.values.is_exact());
        assert_eq!(forced.engine, crate::engine::EngineKind::Proxy);
    }

    #[test]
    fn measures_ride_the_service_with_measure_keyed_cache_entries() {
        let svc = service(2, 16);
        let running = dnf(&[&[0], &[1, 3], &[1, 4], &[2, 3], &[2, 4], &[5, 6]]);
        // All four measures of the same structure through the service: each
        // result is tagged with its measure, and a1's values pin Shapley
        // 43/105 vs Banzhaf 21/64.
        let subs: Vec<(Measure, Submission)> = Measure::ALL
            .iter()
            .map(|&m| {
                let sub = svc
                    .submit(LineageRequest::new(running.clone(), 8).with_measure(m))
                    .unwrap();
                (m, sub)
            })
            .collect();
        for (m, sub) in &subs {
            let r = sub.wait().unwrap();
            assert_eq!(r.measure, *m);
            assert!(r.values.is_exact());
            if *m == Measure::Shapley {
                assert_eq!(exact_pairs(&r)[0].1, Rational::from_ratio(43, 105));
            }
            if *m == Measure::Banzhaf {
                assert_eq!(exact_pairs(&r)[0].1, Rational::from_ratio(21, 64));
            }
        }
        // Re-asking any measure (from a new client, renamed facts) is a
        // measure-keyed cache hit.
        let hits_before = CacheRunStats::of(&svc.stats().profile).hits;
        let renamed = dnf(&[&[70], &[40, 20], &[40, 60], &[10, 20], &[10, 60], &[30, 50]]);
        let r = svc
            .client()
            .submit(LineageRequest::new(renamed, 8).with_measure(Measure::Banzhaf))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(r.measure, Measure::Banzhaf);
        let v70 = exact_pairs(&r)
            .into_iter()
            .find(|(f, _)| *f == 70)
            .unwrap()
            .1;
        assert_eq!(v70, Rational::from_ratio(21, 64));
        let stats = svc.shutdown();
        assert_eq!(CacheRunStats::of(&stats.profile).hits, hits_before + 1);
    }

    #[test]
    fn shutdown_rejects_new_work_but_drains_accepted_work() {
        let svc = service(1, 64);
        let subs: Vec<Submission> = (0..8)
            .map(|i| {
                svc.submit(LineageRequest::new(dnf(&[&[i, i + 100]]), 300))
                    .unwrap()
            })
            .collect();
        let stats = svc.shutdown();
        assert_eq!(
            stats.profile.get(&SERVICE_COMPLETED),
            8,
            "every accepted job drained"
        );
        for sub in &subs {
            assert!(sub.is_done());
            assert!(sub.wait().is_ok());
        }
    }

    #[test]
    fn oversized_lineage_is_rejected_not_panicked() {
        let svc = service(1, 8);
        // Five distinct facts with n_endo = 4: pre-fix this panicked a
        // worker inside Algorithm 1 ("|D_n| smaller than the circuit
        // variables") and the ticket was never fulfilled — the client hung
        // forever.
        let err = svc
            .submit(LineageRequest::new(dnf(&[&[0], &[1], &[2], &[3], &[4]]), 4))
            .unwrap_err();
        assert!(matches!(err, SubmitError::Invalid(_)), "got {err:?}");
        // The service is still healthy: a valid request completes.
        let r = svc
            .submit(LineageRequest::new(dnf(&[&[0, 1]]), 4))
            .unwrap()
            .wait()
            .unwrap();
        assert!(r.values.is_exact());
        let stats = svc.shutdown();
        assert_eq!(stats.profile.get(&SERVICE_COMPLETED), 1);
    }

    #[test]
    fn zero_n_endo_rejects_any_nonempty_lineage() {
        let svc = service(1, 8);
        let err = svc
            .submit(LineageRequest::new(dnf(&[&[0]]), 0))
            .unwrap_err();
        assert!(matches!(err, SubmitError::Invalid(_)));
        svc.shutdown();
    }

    #[test]
    fn panicking_solve_fulfills_its_ticket_and_service_keeps_serving() {
        let svc = service(1, 8);
        let mut bad = LineageRequest::new(dnf(&[&[0, 1]]), 4);
        bad.inject_panic = true;
        let sub = svc.submit(bad).unwrap();
        // Pre-fix: this wait() hung forever (ticket never fulfilled) and
        // the worker thread was dead.
        match sub.wait() {
            Err(EngineError::Panicked(msg)) => assert!(msg.contains("injected"), "got {msg}"),
            other => panic!("expected Panicked, got {other:?}"),
        }
        // The single worker survived the unwind and still serves.
        let r = svc
            .submit(LineageRequest::new(dnf(&[&[0], &[1, 2]]), 4))
            .unwrap()
            .wait()
            .unwrap();
        assert!(r.values.is_exact());
        let stats = svc.shutdown();
        assert_eq!(
            stats.profile.get(&SERVICE_COMPLETED),
            2,
            "both tickets fulfilled"
        );
    }

    #[test]
    fn close_through_shared_reference_drains_and_is_idempotent() {
        let svc = Arc::new(service(2, 16));
        let subs: Vec<Submission> = (0..4)
            .map(|i| {
                svc.submit(LineageRequest::new(dnf(&[&[i, i + 1]]), 8))
                    .unwrap()
            })
            .collect();
        let from_thread = Arc::clone(&svc);
        std::thread::spawn(move || from_thread.close())
            .join()
            .unwrap();
        svc.close(); // second close is a no-op
        for sub in &subs {
            assert!(sub.is_done(), "close drained every accepted job");
        }
        assert_eq!(
            svc.submit(LineageRequest::new(dnf(&[&[0]]), 2))
                .unwrap_err(),
            SubmitError::ShuttingDown
        );
    }

    #[test]
    fn submit_after_shutdown_fails_cleanly() {
        let svc = service(1, 8);
        let client = svc.client();
        drop(svc); // graceful drop-shutdown
        assert_eq!(
            client
                .submit(LineageRequest::new(dnf(&[&[0]]), 2))
                .unwrap_err(),
            SubmitError::ShuttingDown
        );
    }

    #[test]
    fn mean_wait_survives_completion_counts_past_u32() {
        let stats = ServiceStats {
            workers: 1,
            queue_depth: 0,
            queue_capacity: 1,
            in_flight: 0,
            clients: 0,
            profile: Profile::new(),
        };
        stats.profile.add(&SERVICE_COMPLETED, 1 << 32);
        stats.profile.add(&SERVICE_WAIT_NS, 3 << 32);
        assert_eq!(stats.mean_wait(), Duration::from_nanos(3));
    }
}
