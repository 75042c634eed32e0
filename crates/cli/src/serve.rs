//! `shapdb serve --jsonl` — the resident [`ShapleyService`] behind a
//! scriptable stdin/stdout protocol.
//!
//! One JSON object per input line is one attribution request; one JSON
//! object per output line is its response, **in request order**. Every
//! front-end runs the same session: stdin/stdout here, each accepted
//! connection under `--listen` ([`crate::listen`]). The session's reader
//! parses and submits while its writer thread writes and flushes each
//! response as soon as it and every earlier one are done — so a client
//! may pipe thousands of lines at once (what `make bench-serve` does) or
//! wait for each answer before sending the next request.
//!
//! Request:
//!
//! ```json
//! {"id": 7, "lineage": [[0,1],[2,3]], "n_endo": 8}
//! ```
//!
//! * `id` — any JSON value, echoed back verbatim;
//! * `lineage` — the monotone DNF as an array of conjuncts (arrays of
//!   non-negative fact ids); ids are opaque *labels* of endogenous facts
//!   (they need not be `< n_endo`, but the number of **distinct** ids
//!   must not exceed `n_endo` — more distinct facts than the database
//!   holds is unsatisfiable and is rejected);
//! * `n_endo` — the number of endogenous facts;
//! * `engine` *(optional)* — a per-request policy override (same values as
//!   `--engine`); `timeout_ms` *(optional)* — per-request exact deadline;
//! * `measure` *(optional)* — the attribution measure: `"shapley"`
//!   (default), `"banzhaf"`, `"responsibility"`, or `"shap-score"`; an
//!   unknown string answers `{"id":...,"ok":false,"error":"unknown
//!   measure ..."}` with the request's `id` echoed. The shared result
//!   cache is measure-keyed, so one compiled structure serves every
//!   measure asked of it;
//! * `client` *(optional)* — an integer lane id: requests with different
//!   `client` values are scheduled fairly against each other.
//!
//! The protocol boundary enforces resource limits (every violation is an
//! `"ok":false` response, never a dropped connection): `n_endo` at most
//! `--max-n-endo` (per-fact result vectors are `O(n_endo)`, so an
//! unchecked `n_endo` — `as_u64` admits up to 2^53 — was a one-line
//! remote memory exhaustion), total lineage literals at most
//! `--max-lineage-literals`, and request lines at most `--max-line-bytes`
//! (longer lines are discarded without buffering them).
//!
//! Response: `{"id":7,"ok":true,"engine":"readonce",`
//! `"measure":"shapley","exact":true,"values":[[0,"1/2"],...]}` where
//! each value pair is `[fact, value]` —
//! the value is a **string** (an exact rational) when `"exact"` is true
//! and a **number** (an approximate score) otherwise; parse or solve
//! failures answer `{"id":...,"ok":false,"error":"..."}` instead. On EOF
//! the server drains in-flight work and emits one final
//! `{"stats":{...}}` line (queue totals, cache usage, wait times).
//!
//! Backpressure: submissions block the session's reader when the bounded
//! queue (`--queue-capacity`) is full, and so does a backlog of unwritten
//! responses — the classic pipe discipline — so a flooding client stalls
//! instead of ballooning memory.

use crate::json::{escape, Json};
use crate::{err, CliError, EngineChoice};
use shapdb_circuit::{Dnf, VarId};
use shapdb_core::engine::{
    EngineValues, LineageRequest, Measure, Planner, ServiceClient, ServiceConfig, ServiceStats,
    ShapleyCache, ShapleyService, Submission,
};
use shapdb_metrics::counters::{
    CacheRunStats, KC_COMP_CACHE_EVICTIONS, KC_COMP_CACHE_HITS, KC_COMP_CACHE_MISSES,
    MEASURE_BANZHAF, MEASURE_RESPONSIBILITY, MEASURE_SHAPLEY, MEASURE_SHAP_SCORE,
    NUM_BIGNUM_FALLBACKS, NUM_NTT_CONVOLUTIONS, NUM_VLI_HITS, SERVICE_COMPLETED, SERVICE_REJECTED,
    SERVICE_SUBMITTED,
};
use shapdb_metrics::Profile;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, Write};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// `serve` options (see [`crate::USAGE`]).
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Persistent worker threads (0 = all cores).
    pub workers: usize,
    /// Bound on queued submissions (`--queue-capacity`).
    pub queue_capacity: usize,
    /// Result-cache entries shared by every request (0 = off).
    pub cache_capacity: usize,
    /// Default engine policy for requests without their own.
    pub engine: EngineChoice,
    /// Default attribution measure for requests without their own
    /// (`--measure`, default Shapley).
    pub measure: Measure,
    /// Default exact-pipeline deadline.
    pub timeout: Duration,
    /// Socket address to serve on (`--listen`): `host:port` for TCP or a
    /// path (or `unix:path`) for a Unix socket. `None` serves stdin.
    pub listen: Option<String>,
    /// Append-only log backing the result cache (`--persist`): warm state
    /// replayed on startup, written through on every new exact result.
    pub persist: Option<std::path::PathBuf>,
    /// Largest accepted `n_endo` (`--max-n-endo`).
    pub max_n_endo: usize,
    /// Largest accepted total lineage literal count
    /// (`--max-lineage-literals`).
    pub max_lineage_literals: usize,
    /// Largest accepted request line in bytes (`--max-line-bytes`).
    pub max_line_bytes: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 0,
            queue_capacity: ServiceConfig::DEFAULT_QUEUE_CAPACITY,
            cache_capacity: ShapleyCache::DEFAULT_CAPACITY,
            engine: EngineChoice::Auto,
            measure: Measure::Shapley,
            timeout: Duration::from_millis(2500),
            listen: None,
            persist: None,
            max_n_endo: 1 << 20,
            max_lineage_literals: 1 << 20,
            max_line_bytes: 4 << 20,
        }
    }
}

/// What one serve session processed (the final stats line, structured).
#[derive(Clone, Debug)]
pub struct ServeSummary {
    /// Input lines answered (ok or error).
    pub responses: u64,
    /// Responses with `"ok":false`.
    pub errors: u64,
    /// The drained service's final stats.
    pub stats: ServiceStats,
}

/// One parsed request line.
struct Request {
    id: String,
    lineage: Dnf,
    n_endo: usize,
    client: Option<u64>,
    policy: Option<shapdb_core::engine::PlannerConfig>,
    measure: Measure,
}

impl Request {
    /// The owned service request this line stands for, with the echoed id
    /// and the `client` sublane it is submitted on.
    fn into_lineage_request(self) -> (String, Option<u64>, LineageRequest) {
        let mut r = LineageRequest::new(self.lineage, self.n_endo).with_measure(self.measure);
        if let Some(policy) = self.policy {
            r = r.with_policy(policy);
        }
        (self.id, self.client, r)
    }
}

/// Parses one request line. Failures return `(echoed id, why)` — the id
/// is recovered whenever the line was at least valid JSON, so error
/// responses stay correlatable (`"null"` only when the JSON itself is
/// broken).
fn parse_request(line: &str, opts: &ServeOptions) -> Result<Request, (String, String)> {
    let v = Json::parse(line).map_err(|why| ("null".to_string(), why))?;
    let id = v.get("id").map_or_else(|| "null".to_string(), Json::render);
    validate_request(&v, opts, id.clone()).map_err(|why| (id, why))
}

fn validate_request(v: &Json, opts: &ServeOptions, id: String) -> Result<Request, String> {
    let lineage_json = v
        .get("lineage")
        .and_then(Json::as_arr)
        .ok_or("missing \"lineage\" (array of conjuncts)")?;
    let mut lineage = Dnf::new();
    let mut literals = 0usize;
    for conj in lineage_json {
        let vars = conj.as_arr().ok_or("conjuncts must be arrays of ids")?;
        literals += vars.len();
        if literals > opts.max_lineage_literals {
            return Err(format!(
                "lineage exceeds {} total literals",
                opts.max_lineage_literals
            ));
        }
        let mut ids = Vec::with_capacity(vars.len());
        for f in vars {
            let f = f.as_u64().ok_or("fact ids must be non-negative integers")?;
            let f = u32::try_from(f).map_err(|_| "fact id exceeds u32".to_string())?;
            ids.push(VarId(f));
        }
        lineage.add_conjunct(ids);
    }
    let n_endo = v
        .get("n_endo")
        .and_then(Json::as_u64)
        .ok_or("missing \"n_endo\"")? as usize;
    // Result vectors are allocated O(n_endo) per fact: an unchecked
    // n_endo (as_u64 admits up to 2^53) is remote memory exhaustion.
    if n_endo > opts.max_n_endo {
        return Err(format!("n_endo {n_endo} exceeds limit {}", opts.max_n_endo));
    }
    // More *distinct* fact ids than endogenous facts is unsatisfiable
    // input; pre-fix it sailed through and panicked a persistent worker
    // inside Algorithm 1 (`|D_n| smaller than the circuit variables`),
    // leaving the client's wait hanging forever. Ids themselves are
    // labels and may exceed n_endo (see module docs).
    let distinct = lineage.vars().len();
    if distinct > n_endo {
        return Err(format!(
            "lineage references {distinct} distinct fact ids but n_endo is {n_endo}"
        ));
    }
    let client = v.get("client").and_then(Json::as_u64);
    let engine = match v.get("engine").and_then(Json::as_str) {
        Some(s) => Some(EngineChoice::parse(s).ok_or_else(|| format!("unknown engine `{s}`"))?),
        None => None,
    };
    let measure = match v.get("measure").and_then(Json::as_str) {
        Some(s) => Measure::parse(s).ok_or_else(|| format!("unknown measure `{s}`"))?,
        None => opts.measure,
    };
    let timeout_ms = v.get("timeout_ms").and_then(Json::as_u64);
    // A partial override inherits the *session's* settings for whatever it
    // leaves out — `{"engine":"exact"}` keeps the server's --timeout-ms,
    // `{"timeout_ms":50}` keeps the server's --engine.
    let policy = match (engine, timeout_ms) {
        (None, None) => None,
        (engine, timeout_ms) => {
            let choice = engine.unwrap_or(opts.engine);
            let timeout = timeout_ms.map_or(opts.timeout, Duration::from_millis);
            Some(choice.planner_config(timeout))
        }
    };
    Ok(Request {
        id,
        lineage,
        n_endo,
        client,
        policy,
        measure,
    })
}

fn render_ok(id: &str, result: &shapdb_core::engine::EngineResult) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(64 + 24 * result.values.len());
    // `id` is re-rendered JSON, engine names are static idents, and exact
    // rationals print as digits and '/' — none need escaping.
    let _ = write!(
        out,
        "{{\"id\":{},\"ok\":true,\"engine\":\"{}\",\"measure\":\"{}\",\"exact\":{},\"values\":[",
        id,
        result.engine.name(),
        result.measure.name(),
        result.values.is_exact(),
    );
    match &result.values {
        EngineValues::Exact(pairs) => {
            for (i, (fact, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{},\"{}\"]", fact.0, v);
            }
        }
        EngineValues::Approx(pairs) => {
            for (i, (fact, x)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{},{:.6}]", fact.0, x);
            }
        }
    }
    out.push_str("]}");
    out
}

fn render_err(id: &str, error: &str) -> String {
    format!("{{\"id\":{},\"ok\":false,\"error\":{}}}", id, escape(error))
}

pub(crate) fn render_stats(summary: &ServeSummary) -> String {
    let s = &summary.stats;
    let cache = CacheRunStats::of(&s.profile);
    format!(
        concat!(
            "{{\"stats\":{{\"responses\":{},\"errors\":{},\"submitted\":{},",
            "\"completed\":{},\"rejected\":{},\"workers\":{},",
            "\"queue_capacity\":{},\"clients\":{},\"engine_runs\":{},",
            "\"cache_hits\":{},\"cache_misses\":{},\"cache_bypasses\":{},",
            "\"kc_comp_cache_hits\":{},\"kc_comp_cache_misses\":{},",
            "\"kc_comp_cache_evictions\":{},",
            "\"measure_shapley\":{},\"measure_banzhaf\":{},",
            "\"measure_responsibility\":{},\"measure_shap_score\":{},",
            "\"vli_passes\":{},\"bignum_passes\":{},\"ntt_convolutions\":{},",
            "\"route_timings\":{},",
            "\"mean_wait_us\":{:.1}}}}}"
        ),
        summary.responses,
        summary.errors,
        s.profile.get(&SERVICE_SUBMITTED),
        s.profile.get(&SERVICE_COMPLETED),
        s.profile.get(&SERVICE_REJECTED),
        s.workers,
        s.queue_capacity,
        s.clients,
        s.profile.engine_runs(),
        cache.hits,
        cache.misses,
        cache.bypasses,
        s.profile.get(&KC_COMP_CACHE_HITS),
        s.profile.get(&KC_COMP_CACHE_MISSES),
        s.profile.get(&KC_COMP_CACHE_EVICTIONS),
        s.profile.get(&MEASURE_SHAPLEY),
        s.profile.get(&MEASURE_BANZHAF),
        s.profile.get(&MEASURE_RESPONSIBILITY),
        s.profile.get(&MEASURE_SHAP_SCORE),
        s.profile.get(&NUM_VLI_HITS),
        s.profile.get(&NUM_BIGNUM_FALLBACKS),
        s.profile.get(&NUM_NTT_CONVOLUTIONS),
        render_route_timings(&s.profile),
        s.mean_wait().as_nanos() as f64 / 1e3,
    )
}

/// The service's per-route compile/solve timing summaries as one JSON
/// array, like every other stat scoped to this service; routes that never
/// ran are omitted.
fn render_route_timings(profile: &Profile) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("[");
    for (i, t) in profile.routes().active().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            concat!(
                "{{\"name\":\"{}\",\"count\":{},\"mean_us\":{},",
                "\"p50_us\":{},\"p99_us\":{}}}"
            ),
            t.name,
            t.count,
            t.mean_us(),
            t.quantile_us(0.5),
            t.quantile_us(0.99),
        );
    }
    out.push(']');
    out
}

/// A poisoned lock here means a peer thread panicked; the protected data
/// (slot queues, connection tables) stays structurally valid, so recover
/// the guard instead of cascading the panic through the whole server.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A response slot, kept in request order.
enum Slot {
    /// Answered without the service (an error response).
    Ready(String),
    /// Waiting on the service.
    Waiting(String, Submission),
}

impl Slot {
    /// The response line, waiting for the ticket if it is still running;
    /// counts an error response into `errors`.
    fn finish(self, errors: &mut u64) -> String {
        match self {
            Slot::Ready(line) => {
                *errors += 1;
                line
            }
            Slot::Waiting(id, sub) => match sub.wait() {
                Ok(result) => render_ok(&id, &result),
                Err(e) => {
                    *errors += 1;
                    render_err(&id, &e.to_string())
                }
            },
        }
    }
}

/// Builds the resident service a serve session (stdin or socket) runs
/// against: the session policy as planner, the shared result cache —
/// persistent when `--persist` names a log file — and the worker pool.
pub(crate) fn build_service(opts: &ServeOptions) -> Result<ShapleyService, CliError> {
    let mut planner = Planner::new(opts.engine.planner_config(opts.timeout));
    if opts.cache_capacity > 0 {
        let cache = match &opts.persist {
            Some(path) => ShapleyCache::with_persistence(opts.cache_capacity, path)
                .map_err(|e| err(format!("open persistent cache `{}`: {e}", path.display())))?,
            None => ShapleyCache::with_capacity(opts.cache_capacity),
        };
        planner = planner.with_cache(Arc::new(cache));
    }
    Ok(ShapleyService::new(
        planner,
        ServiceConfig {
            workers: opts.workers,
            queue_capacity: opts.queue_capacity,
            ..Default::default()
        },
    ))
}

/// One capped line read.
enum ReadLine {
    /// A complete line (terminator stripped), within the byte cap.
    Line(String),
    /// The line exceeded the cap; the remainder was discarded without
    /// buffering it. Answer with an error response and keep reading.
    TooLong,
    /// End of input.
    Eof,
}

/// Reads one `\n`-terminated request line, holding at most
/// `max_line_bytes + 1` bytes: a longer line is consumed to its newline
/// chunk-by-chunk and reported as [`ReadLine::TooLong`] — the unbounded
/// `read_line` was a one-line memory exhaustion from a hostile client.
fn read_request_line(input: &mut impl BufRead, max_line_bytes: usize) -> std::io::Result<ReadLine> {
    let mut buf = Vec::new();
    let mut overflowed = false;
    loop {
        let chunk = input.fill_buf()?;
        if chunk.is_empty() {
            if buf.is_empty() && !overflowed {
                return Ok(ReadLine::Eof);
            }
            break; // final line without a terminator
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let upto = newline.unwrap_or(chunk.len());
        if !overflowed {
            if buf.len() + upto > max_line_bytes {
                // Stop accumulating; keep consuming to the newline so the
                // session can continue past the hostile line.
                overflowed = true;
                buf.clear();
            } else {
                buf.extend_from_slice(&chunk[..upto]);
            }
        }
        match newline {
            Some(i) => {
                input.consume(i + 1);
                break;
            }
            None => {
                let len = chunk.len();
                input.consume(len);
            }
        }
    }
    if overflowed {
        return Ok(ReadLine::TooLong);
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    // Non-UTF-8 bytes become replacement characters and fail JSON parsing
    // downstream — an error response, not a dropped connection.
    Ok(ReadLine::Line(String::from_utf8_lossy(&buf).into_owned()))
}

/// Where the two halves of one session meet: response slots in request
/// order, bounded so a client that floods requests without reading
/// responses stalls its own reader rather than growing memory.
struct SessionQueue {
    state: Mutex<SessionState>,
    /// Slots held at most; past it the reader blocks.
    max_pending: usize,
    /// Signaled when a slot is pushed (and when input ends).
    added: Condvar,
    /// Signaled when a slot is popped (blocked readers wait here).
    taken: Condvar,
}

#[derive(Default)]
struct SessionState {
    slots: VecDeque<Slot>,
    /// Reader hit EOF (or a read error): the writer drains and exits.
    input_done: bool,
    /// Writer hit a write error (client gone): the reader stops early.
    dead: bool,
}

impl SessionQueue {
    fn new(max_pending: usize) -> SessionQueue {
        SessionQueue {
            state: Mutex::new(SessionState::default()),
            max_pending,
            added: Condvar::new(),
            taken: Condvar::new(),
        }
    }

    /// Blocking bounded push; `false` once the writer declared the
    /// session dead.
    fn push(&self, slot: Slot) -> bool {
        let mut st = lock_recover(&self.state);
        while st.slots.len() >= self.max_pending && !st.dead {
            st = self.taken.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        if st.dead {
            return false;
        }
        st.slots.push_back(slot);
        drop(st);
        self.added.notify_one();
        true
    }

    fn finish_input(&self) {
        lock_recover(&self.state).input_done = true;
        self.added.notify_one();
    }

    /// Blocking pop for the writer; `None` when input is done and every
    /// slot has been taken.
    fn pop(&self) -> Option<Slot> {
        let mut st = lock_recover(&self.state);
        loop {
            if let Some(slot) = st.slots.pop_front() {
                drop(st);
                self.taken.notify_one();
                return Some(slot);
            }
            if st.input_done {
                return None;
            }
            st = self.added.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// The client is gone: drop any unwritten slots (their submissions
    /// complete into the shared cache regardless) and release a reader
    /// blocked on a full queue.
    fn mark_dead(&self) {
        let mut st = lock_recover(&self.state);
        st.dead = true;
        st.slots.clear();
        drop(st);
        self.taken.notify_all();
    }
}

/// What one session answered.
pub(crate) struct SessionTally {
    /// Responses written (ok or error).
    pub(crate) responses: u64,
    /// Responses with `"ok":false`.
    pub(crate) errors: u64,
    /// The read failure that ended input early (`None` at EOF). Every
    /// request read before it was still answered.
    pub(crate) read_error: Option<std::io::Error>,
}

/// Runs one JSONL session against `service`: the calling thread reads,
/// validates and submits requests while a scoped writer thread finishes
/// the tickets in request order and writes (and flushes) each response
/// as soon as it and every earlier one are done. Returns once input has
/// ended and every response is written, or with `Err` as soon as a write
/// fails (the client is gone; the submitted work still completes into the
/// shared cache). The caller writes the stats line.
pub(crate) fn run_session<W: Write + Send>(
    input: impl BufRead,
    output: &mut W,
    service: &ShapleyService,
    opts: &ServeOptions,
) -> std::io::Result<SessionTally> {
    let queue = SessionQueue::new(opts.queue_capacity.saturating_mul(2).max(64));
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| write_responses(output, &queue));
        let read_error = read_requests(input, &queue, service, opts).err();
        let (responses, errors) = writer
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))?;
        Ok(SessionTally {
            responses,
            errors,
            read_error,
        })
    })
}

/// The reading half: one slot per non-blank line, submitted on the
/// session's own fair-queue lane. The optional per-request `client` field
/// sub-divides it into sublanes namespaced to this session. Blocking
/// submits and the bounded slot queue stall the reader when the service
/// or the client falls behind, instead of dropping requests.
fn read_requests(
    mut input: impl BufRead,
    queue: &SessionQueue,
    service: &ShapleyService,
    opts: &ServeOptions,
) -> std::io::Result<()> {
    let lane = service.client();
    let mut sublanes: HashMap<u64, ServiceClient> = HashMap::new();
    let ended = loop {
        let slot = match read_request_line(&mut input, opts.max_line_bytes) {
            Err(e) => break Err(e),
            Ok(ReadLine::Eof) => break Ok(()),
            Ok(ReadLine::TooLong) => Slot::Ready(render_err(
                "null",
                &format!("request line exceeds {} bytes", opts.max_line_bytes),
            )),
            Ok(ReadLine::Line(line)) if line.trim().is_empty() => continue,
            Ok(ReadLine::Line(line)) => match parse_request(&line, opts) {
                Err((id, why)) => Slot::Ready(render_err(&id, &why)),
                Ok(req) => {
                    let (id, sublane, request) = req.into_lineage_request();
                    let submitted = match sublane {
                        Some(sub) => sublanes
                            .entry(sub)
                            .or_insert_with(|| service.client())
                            .submit_blocking(request),
                        None => lane.submit_blocking(request),
                    };
                    match submitted {
                        Ok(sub) => Slot::Waiting(id, sub),
                        Err(e) => Slot::Ready(render_err(&id, &e.to_string())),
                    }
                }
            },
        };
        if !queue.push(slot) {
            break Ok(());
        }
    };
    queue.finish_input();
    ended
}

/// The writing half: finishes tickets in request order, one flushed line
/// per response. Returns `(responses, errors)`; a failed write marks the
/// session dead so the reader stops.
fn write_responses(output: &mut impl Write, queue: &SessionQueue) -> std::io::Result<(u64, u64)> {
    let mut responses = 0u64;
    let mut errors = 0u64;
    while let Some(slot) = queue.pop() {
        let mut line = slot.finish(&mut errors);
        responses += 1;
        line.push('\n');
        if let Err(e) = output
            .write_all(line.as_bytes())
            .and_then(|()| output.flush())
        {
            queue.mark_dead();
            return Err(e);
        }
    }
    Ok((responses, errors))
}

/// Runs a serve session over arbitrary reader/writer pairs (the binary
/// passes stdin/stdout; tests and the bench pass buffers): the same
/// session every socket connection runs, then a drain of the service and
/// the final stats line. Returns `Err` on a read or write failure.
pub fn run_serve(
    input: impl BufRead,
    mut output: impl Write + Send,
    opts: &ServeOptions,
) -> Result<ServeSummary, CliError> {
    let service = build_service(opts)?;
    let tally = run_session(input, &mut output, &service, opts)
        .map_err(|e| err(format!("write response: {e}")))?;
    if let Some(e) = tally.read_error {
        return Err(err(format!("read request: {e}")));
    }
    let summary = ServeSummary {
        responses: tally.responses,
        errors: tally.errors,
        stats: service.shutdown(),
    };
    writeln!(output, "{}", render_stats(&summary)).map_err(|e| err(format!("write stats: {e}")))?;
    output
        .flush()
        .map_err(|e| err(format!("flush output: {e}")))?;
    Ok(summary)
}

/// Parses `serve` arguments (everything after the `serve` word).
pub fn parse_serve_args(args: &[String]) -> Result<ServeOptions, CliError> {
    let mut opts = ServeOptions::default();
    let mut jsonl = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = || {
            it.next()
                .ok_or_else(|| err(format!("missing value after `{arg}`")))
        };
        match arg.as_str() {
            "--jsonl" => jsonl = true,
            "--listen" => opts.listen = Some(take()?.clone()),
            "--persist" => opts.persist = Some(std::path::PathBuf::from(take()?)),
            "--max-n-endo" => {
                opts.max_n_endo = take()?
                    .parse()
                    .map_err(|_| err("--max-n-endo expects a positive integer"))?
            }
            "--max-lineage-literals" => {
                opts.max_lineage_literals = take()?
                    .parse()
                    .map_err(|_| err("--max-lineage-literals expects a positive integer"))?
            }
            "--max-line-bytes" => {
                opts.max_line_bytes = take()?
                    .parse()
                    .map_err(|_| err("--max-line-bytes expects a positive integer"))?
            }
            "--workers" | "--threads" => {
                opts.workers = take()?
                    .parse()
                    .map_err(|_| err("--workers expects a non-negative integer"))?
            }
            "--queue-capacity" => {
                opts.queue_capacity = take()?
                    .parse()
                    .map_err(|_| err("--queue-capacity expects a positive integer"))?
            }
            "--cache-capacity" => {
                opts.cache_capacity = take()?
                    .parse()
                    .map_err(|_| err("--cache-capacity expects a non-negative integer"))?
            }
            "--engine" => {
                let spec = take()?;
                opts.engine = EngineChoice::parse(spec)
                    .ok_or_else(|| err(format!("unknown engine `{spec}`")))?
            }
            "--measure" => {
                let spec = take()?;
                opts.measure =
                    Measure::parse(spec).ok_or_else(|| err(format!("unknown measure `{spec}`")))?
            }
            "--timeout-ms" => {
                let ms: u64 = take()?
                    .parse()
                    .map_err(|_| err("--timeout-ms expects an integer"))?;
                opts.timeout = Duration::from_millis(ms);
            }
            "--help" | "-h" => return Err(err(crate::USAGE)),
            other => return Err(err(format!("unknown serve argument `{other}`"))),
        }
    }
    match (jsonl, &opts.listen) {
        (false, None) => Err(err(
            "serve requires `--jsonl` (requests on stdin) or `--listen <addr>` (socket)",
        )),
        (true, Some(_)) => Err(err("`--jsonl` and `--listen` are mutually exclusive")),
        _ => Ok(opts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn serve(input: &str, opts: &ServeOptions) -> (Vec<String>, ServeSummary) {
        let mut out = Vec::new();
        let summary = run_serve(Cursor::new(input.to_string()), &mut out, opts).unwrap();
        let text = String::from_utf8(out).unwrap();
        (text.lines().map(str::to_string).collect(), summary)
    }

    #[test]
    fn answers_requests_in_order_with_exact_values() {
        // The running example (43/105 on fact 0) plus a singleton.
        let input = concat!(
            r#"{"id": 1, "lineage": [[0],[1,3],[1,4],[2,3],[2,4],[5,6]], "n_endo": 8}"#,
            "\n",
            r#"{"id": 2, "lineage": [[9]], "n_endo": 8}"#,
            "\n",
        );
        let (lines, summary) = serve(
            input,
            &ServeOptions {
                workers: 2,
                ..Default::default()
            },
        );
        assert_eq!(lines.len(), 3, "two responses + stats");
        let first = Json::parse(&lines[0]).unwrap();
        assert_eq!(first.get("id").and_then(Json::as_u64), Some(1));
        assert_eq!(first.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(first.get("exact"), Some(&Json::Bool(true)));
        let values = first.get("values").and_then(Json::as_arr).unwrap();
        let top = values[0].as_arr().unwrap();
        assert_eq!(top[0].as_u64(), Some(0));
        assert_eq!(top[1].as_str(), Some("43/105"));
        let second = Json::parse(&lines[1]).unwrap();
        assert_eq!(second.get("id").and_then(Json::as_u64), Some(2));
        let stats = Json::parse(&lines[2]).unwrap();
        let s = stats.get("stats").unwrap();
        assert_eq!(s.get("responses").and_then(Json::as_u64), Some(2));
        assert_eq!(s.get("errors").and_then(Json::as_u64), Some(0));
        assert_eq!(summary.responses, 2);
        assert_eq!(summary.stats.profile.get(&SERVICE_COMPLETED), 2);
    }

    #[test]
    fn each_service_reports_only_its_own_route_timings() {
        // Two sessions in one process at once, each on its own service:
        // one read-once solve against three, and each stats line counts
        // only its own.
        let requests = |lineages: &[&str]| -> String {
            lineages
                .iter()
                .enumerate()
                .map(|(i, l)| format!("{{\"id\": {i}, \"lineage\": {l}, \"n_endo\": 8}}\n"))
                .collect()
        };
        let one = requests(&["[[0,1],[2,3]]"]);
        let three = requests(&["[[0,1],[2,3]]", "[[0],[1,2]]", "[[0,1,2]]"]);
        let opts = ServeOptions {
            workers: 1,
            ..Default::default()
        };
        let route_counts = |stats_line: &str| -> Vec<(String, u64)> {
            let stats = Json::parse(stats_line).unwrap();
            let timings = stats.get("stats").unwrap().get("route_timings").unwrap();
            timings
                .as_arr()
                .unwrap()
                .iter()
                .map(|t| {
                    let name = t.get("name").and_then(Json::as_str).unwrap();
                    (
                        name.to_string(),
                        t.get("count").and_then(Json::as_u64).unwrap(),
                    )
                })
                .collect()
        };
        for _ in 0..3 {
            let ((one_lines, _), (three_lines, _)) = std::thread::scope(|s| {
                let first = s.spawn(|| serve(&one, &opts));
                (first.join().unwrap(), serve(&three, &opts))
            });
            let expected = |n: u64| {
                vec![
                    ("readonce.compile".to_string(), n),
                    ("readonce.solve".to_string(), n),
                ]
            };
            assert_eq!(route_counts(one_lines.last().unwrap()), expected(1));
            assert_eq!(route_counts(three_lines.last().unwrap()), expected(3));
        }
    }

    #[cfg(unix)]
    #[test]
    fn interactive_client_reads_each_response_before_sending_the_next() {
        // A request/response client: request i+1 is written only after
        // response i was read, so no later line or EOF can push a held
        // response out. The read timeout turns a held response into a
        // failure instead of a hang.
        use std::io::BufReader;
        use std::os::unix::net::UnixStream;
        let (mut to_server, server_in) = UnixStream::pair().unwrap();
        let (server_out, from_server) = UnixStream::pair().unwrap();
        from_server
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let session = std::thread::spawn(move || {
            let opts = ServeOptions {
                workers: 1,
                ..Default::default()
            };
            run_serve(BufReader::new(server_in), server_out, &opts)
        });
        let mut responses = BufReader::new(from_server);
        let lineages = [
            "[[0],[1,3],[1,4],[2,3],[2,4],[5,6]]",
            "[[9]]",
            "[[0,1],[2,3]]",
        ];
        for (i, lineage) in (0u64..).zip(lineages) {
            writeln!(
                to_server,
                r#"{{"id": {i}, "lineage": {lineage}, "n_endo": 10}}"#
            )
            .unwrap();
            let mut line = String::new();
            responses
                .read_line(&mut line)
                .unwrap_or_else(|e| panic!("no response to request {i} while input is open: {e}"));
            let v = Json::parse(line.trim_end()).unwrap();
            assert_eq!(v.get("id").and_then(Json::as_u64), Some(i));
            assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "request {i}");
        }
        drop(to_server);
        let mut stats = String::new();
        responses.read_line(&mut stats).unwrap();
        assert!(stats.starts_with(r#"{"stats":"#), "{stats}");
        let summary = session.join().unwrap().unwrap();
        assert_eq!(summary.responses, 3);
        assert_eq!(summary.errors, 0);
    }

    #[test]
    fn isomorphic_requests_share_the_cache() {
        let input = concat!(
            r#"{"id": 1, "lineage": [[0,10],[1,11]], "n_endo": 24}"#,
            "\n",
            r#"{"id": 2, "client": 7, "lineage": [[2,20],[3,21]], "n_endo": 24}"#,
            "\n",
        );
        let (lines, summary) = serve(
            input,
            &ServeOptions {
                workers: 1,
                ..Default::default()
            },
        );
        assert_eq!(
            CacheRunStats::of(&summary.stats.profile).hits,
            1,
            "second request hit"
        );
        assert_eq!(summary.stats.profile.engine_runs(), 1);
        for line in &lines[..2] {
            let v = Json::parse(line).unwrap();
            let values = v.get("values").and_then(Json::as_arr).unwrap();
            for triple in values {
                assert_eq!(triple.as_arr().unwrap()[1].as_str(), Some("1/4"));
            }
        }
    }

    #[test]
    fn per_request_engine_override_and_errors() {
        let input = concat!(
            r#"{"id": "a", "lineage": [[0,1],[1,2],[0,2]], "n_endo": 3, "engine": "proxy"}"#,
            "\n",
            "this is not json\n",
            r#"{"id": 3, "n_endo": 3}"#,
            "\n",
        );
        let (lines, summary) = serve(input, &ServeOptions::default());
        let forced = Json::parse(&lines[0]).unwrap();
        assert_eq!(forced.get("engine").and_then(Json::as_str), Some("proxy"));
        assert_eq!(forced.get("exact"), Some(&Json::Bool(false)));
        let bad = Json::parse(&lines[1]).unwrap();
        assert_eq!(bad.get("ok"), Some(&Json::Bool(false)));
        let missing = Json::parse(&lines[2]).unwrap();
        assert_eq!(missing.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            missing.get("id").and_then(Json::as_u64),
            Some(3),
            "a valid-JSON bad request echoes its id"
        );
        assert!(missing
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("lineage"));
        assert_eq!(summary.errors, 2);
    }

    #[test]
    fn measure_field_selects_the_measure_and_errors_echo_the_id() {
        // The running example under every measure in one session, plus an
        // unknown measure string that must answer with the request's id.
        let lineage = r#"[[0],[1,3],[1,4],[2,3],[2,4],[5,6]]"#;
        let input = format!(
            concat!(
                "{{\"id\": 1, \"lineage\": {l}, \"n_endo\": 8}}\n",
                "{{\"id\": 2, \"lineage\": {l}, \"n_endo\": 8, \"measure\": \"banzhaf\"}}\n",
                "{{\"id\": 3, \"lineage\": {l}, \"n_endo\": 8, \"measure\": \"responsibility\"}}\n",
                "{{\"id\": 4, \"lineage\": {l}, \"n_endo\": 8, \"measure\": \"shap_score\"}}\n",
                "{{\"id\": 5, \"lineage\": {l}, \"n_endo\": 8, \"measure\": \"owen\"}}\n",
            ),
            l = lineage
        );
        let (lines, summary) = serve(&input, &ServeOptions::default());
        assert_eq!(lines.len(), 6, "five responses + stats");
        let expect = [
            ("shapley", Some("43/105")),
            ("banzhaf", Some("21/64")),
            ("responsibility", Some("1/4")),
            ("shap-score", None),
        ];
        for (line, (measure, top)) in lines[..4].iter().zip(expect) {
            let v = Json::parse(line).unwrap();
            assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{measure}");
            assert_eq!(v.get("measure").and_then(Json::as_str), Some(measure));
            assert_eq!(v.get("exact"), Some(&Json::Bool(true)));
            if let Some(top) = top {
                let values = v.get("values").and_then(Json::as_arr).unwrap();
                assert_eq!(values[0].as_arr().unwrap()[1].as_str(), Some(top));
            }
        }
        let bad = Json::parse(&lines[4]).unwrap();
        assert_eq!(bad.get("id").and_then(Json::as_u64), Some(5));
        assert_eq!(bad.get("ok"), Some(&Json::Bool(false)));
        assert!(bad
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("unknown measure `owen`"));
        assert_eq!(summary.errors, 1);
        // The stats line reports per-measure request counts. Concurrent
        // tests in this process bleed into the global window, so ≥ 1 is
        // the strongest safe assertion for each.
        let stats = Json::parse(&lines[5]).unwrap();
        let s = stats.get("stats").unwrap();
        for key in [
            "measure_shapley",
            "measure_banzhaf",
            "measure_responsibility",
            "measure_shap_score",
        ] {
            assert!(s.get(key).and_then(Json::as_u64).unwrap() >= 1, "{key}");
        }
    }

    #[test]
    fn session_default_measure_applies_to_plain_requests() {
        let input = concat!(
            r#"{"id": 1, "lineage": [[0],[1,3],[1,4],[2,3],[2,4],[5,6]], "n_endo": 8}"#,
            "\n",
        );
        let opts = ServeOptions {
            measure: Measure::Banzhaf,
            ..Default::default()
        };
        let (lines, _) = serve(input, &opts);
        let v = Json::parse(&lines[0]).unwrap();
        assert_eq!(v.get("measure").and_then(Json::as_str), Some("banzhaf"));
        let values = v.get("values").and_then(Json::as_arr).unwrap();
        assert_eq!(values[0].as_arr().unwrap()[1].as_str(), Some("21/64"));
    }

    #[test]
    fn partial_overrides_inherit_the_session_defaults() {
        // Session default: forced Monte Carlo. A request overriding ONLY
        // timeout_ms must keep the session's engine, not silently revert
        // to the compile-time `auto` default.
        let input = concat!(
            r#"{"id": 1, "lineage": [[0,1],[1,2],[0,2]], "n_endo": 3, "timeout_ms": 5000}"#,
            "\n",
        );
        let opts = ServeOptions {
            engine: EngineChoice::Forced(shapdb_core::engine::EngineKind::MonteCarlo),
            ..Default::default()
        };
        let (lines, _) = serve(input, &opts);
        let v = Json::parse(&lines[0]).unwrap();
        assert_eq!(
            v.get("engine").and_then(Json::as_str),
            Some("montecarlo"),
            "session engine survives a timeout-only override"
        );
    }

    #[test]
    fn serve_args_require_jsonl() {
        let to_args =
            |list: &[&str]| -> Vec<String> { list.iter().map(|s| s.to_string()).collect() };
        assert!(parse_serve_args(&to_args(&[])).is_err());
        let opts = parse_serve_args(&to_args(&[
            "--jsonl",
            "--queue-capacity",
            "8",
            "--workers",
            "2",
            "--engine",
            "exact",
            "--cache-capacity",
            "0",
        ]))
        .unwrap();
        assert_eq!(opts.queue_capacity, 8);
        assert_eq!(opts.workers, 2);
        assert_eq!(opts.engine, EngineChoice::Exact);
        assert_eq!(opts.cache_capacity, 0);
        assert!(parse_serve_args(&to_args(&["--jsonl", "--frobnicate"])).is_err());
    }

    #[test]
    fn adversarial_requests_get_error_responses_not_hung_workers() {
        // Each of these, pre-fix, either panicked a persistent worker
        // (hanging the client forever) or allocated unboundedly. All must
        // answer `"ok":false` and leave the service serving the final
        // valid request.
        let input = concat!(
            // More distinct fact ids (3) than n_endo (2): tripped the
            // `|D_n| smaller than the circuit variables` assert.
            r#"{"id": 1, "lineage": [[0],[1],[2]], "n_endo": 2}"#,
            "\n",
            // n_endo: 0 with a non-empty lineage — same panic.
            r#"{"id": 2, "lineage": [[5]], "n_endo": 0}"#,
            "\n",
            // Huge n_endo: O(n_endo) result allocation per fact.
            r#"{"id": 3, "lineage": [[0]], "n_endo": 9007199254740992}"#,
            "\n",
            // Above --max-n-endo but below 2^53.
            r#"{"id": 4, "lineage": [[0]], "n_endo": 2000000}"#,
            "\n",
            // Still standing afterwards.
            r#"{"id": 5, "lineage": [[0,1]], "n_endo": 4}"#,
            "\n",
        );
        let (lines, summary) = serve(input, &ServeOptions::default());
        assert_eq!(lines.len(), 6, "five responses + stats");
        for (line, id) in lines[..4].iter().zip(1u64..) {
            let v = Json::parse(line).unwrap();
            assert_eq!(v.get("id").and_then(Json::as_u64), Some(id));
            assert_eq!(v.get("ok"), Some(&Json::Bool(false)), "request {id}");
        }
        let last = Json::parse(&lines[4]).unwrap();
        assert_eq!(last.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(summary.errors, 4);
        assert_eq!(
            summary.stats.profile.get(&SERVICE_COMPLETED),
            1,
            "only the valid request ran"
        );
    }

    #[test]
    fn oversized_lines_are_discarded_without_buffering() {
        // A ~2 MiB line against a 4 KiB cap, then a valid request: the
        // huge line answers an error without being held in memory, and
        // the session continues.
        let mut input = String::from(r#"{"id": 1, "lineage": [[0"#);
        while input.len() < 2 << 20 {
            input.push_str(",0");
        }
        input.push_str("]], \"n_endo\": 4}\n");
        input.push_str("{\"id\": 2, \"lineage\": [[0]], \"n_endo\": 4}\n");
        let (lines, summary) = serve(
            &input,
            &ServeOptions {
                max_line_bytes: 4096,
                ..Default::default()
            },
        );
        assert_eq!(lines.len(), 3);
        let first = Json::parse(&lines[0]).unwrap();
        assert_eq!(first.get("ok"), Some(&Json::Bool(false)));
        assert!(first
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("4096 bytes"));
        let second = Json::parse(&lines[1]).unwrap();
        assert_eq!(second.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(summary.errors, 1);
    }

    #[test]
    fn lineage_literal_cap_rejects_bulk_lineages() {
        let mut line = String::from(r#"{"id": 1, "lineage": [[0"#);
        for _ in 0..100 {
            line.push_str(",1");
        }
        line.push_str("]], \"n_endo\": 8}\n");
        let (lines, _) = serve(
            &line,
            &ServeOptions {
                max_lineage_literals: 64,
                ..Default::default()
            },
        );
        let v = Json::parse(&lines[0]).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(false)));
        assert!(v
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("literals"));
    }

    #[test]
    fn serve_args_parse_listen_and_persist() {
        let to_args =
            |list: &[&str]| -> Vec<String> { list.iter().map(|s| s.to_string()).collect() };
        let opts = parse_serve_args(&to_args(&[
            "--listen",
            "127.0.0.1:0",
            "--persist",
            "/tmp/shap.cache",
            "--max-n-endo",
            "5000",
            "--max-lineage-literals",
            "1000",
            "--max-line-bytes",
            "65536",
        ]))
        .unwrap();
        assert_eq!(opts.listen.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(
            opts.persist.as_deref(),
            Some(std::path::Path::new("/tmp/shap.cache"))
        );
        assert_eq!(opts.max_n_endo, 5000);
        assert_eq!(opts.max_lineage_literals, 1000);
        assert_eq!(opts.max_line_bytes, 65536);
        // --jsonl and --listen together is a contradiction.
        assert!(parse_serve_args(&to_args(&["--jsonl", "--listen", "x:1"])).is_err());
    }

    #[test]
    fn tiny_queue_still_answers_everything_via_backpressure() {
        // 50 requests through a capacity-2 queue: blocking submits stall
        // the reader, nothing is dropped, responses stay in order.
        let mut input = String::new();
        for i in 0..50 {
            input.push_str(&format!(
                "{{\"id\": {i}, \"lineage\": [[{i},{}]], \"n_endo\": 200}}\n",
                i + 100
            ));
        }
        let (lines, summary) = serve(
            &input,
            &ServeOptions {
                workers: 2,
                queue_capacity: 2,
                ..Default::default()
            },
        );
        assert_eq!(summary.responses, 50);
        assert_eq!(summary.errors, 0);
        for (i, line) in lines[..50].iter().enumerate() {
            let v = Json::parse(line).unwrap();
            assert_eq!(v.get("id").and_then(Json::as_u64), Some(i as u64));
            assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        }
    }
}
