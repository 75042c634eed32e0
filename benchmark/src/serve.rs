//! `serve-mixed`: a `shapdb serve --listen unix:… --persist …` process
//! driven open-loop over two connections at a ladder of fixed rates, then
//! saturated with the most requested (cached) requests.
//!
//! Requests are drawn with Zipf skew from three sources: the replay corpus
//! (every TPC-H-lite / IMDB-lite answer lineage, capped per query), JOB
//! answer lineages (enough distinct structure × measure pairs to overflow
//! the server's 1,024-entry result cache), and a few wide disjoint-majority
//! lineages, the only inputs that reach the top-down compiler. Each request
//! asks for Shapley or Banzhaf values, or SHAP-score values on small
//! read-once lineages. Every exact response is compared with a direct
//! in-process `ShapleyService` result computed once after set-up.
//!
//! Latency comes from the ladder, timed from each request's due time;
//! `answers_per_ref_s` from the saturation phase, the server's capacity on
//! its request path, measured closed-loop over one connection.

use crate::batch::{
    end_to_end_rss, imdb_config, job_config, latency_metrics, tpch_config, Rates, TOPK_MOVIES,
};
use crate::layers::{self, Counts};
use crate::pipeline::{translate, Decomposer, Values};
use crate::stats::{median, ms, peak_rss_mb, percentile, percentile_supported};
use crate::trace::Tracer;
use crate::{timed_setup, Ctx, Rng, RunResult, SetupTime, THREADS};
use shapdb_circuit::{fingerprint, Dnf, Fingerprint, FingerprintKey, VarId};
use shapdb_cli::json::Json;
use shapdb_cli::{EngineChoice, ServeOptions};
use shapdb_core::engine::{
    EngineValues, LineageRequest, Measure, Planner, ServiceConfig, ShapleyCache, ShapleyService,
};
use shapdb_metrics::counters::CounterSnapshot;
use shapdb_query::evaluate;
use shapdb_workloads::{
    imdb_database, imdb_queries, job_database, job_ranking_query, tpch_database, tpch_queries,
    JobConfig,
};
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

const MEASURES: [Measure; 3] = [Measure::Shapley, Measure::Banzhaf, Measure::ShapScore];
/// Client connections of the rate ladder (at most the core count).
const CONNECTIONS: usize = 2;
/// The fixed rate ladder, requests per second; the steps share half of
/// `--seconds` equally, and a saturation phase takes the other half.
const RATES: [f64; 4] = [250.0, 500.0, 1000.0, 2000.0];
/// Requests per round of the saturation phase: sent at once, then read.
/// A round's responses (~120 KB) must fit the socket buffer unread.
const WINDOW: usize = 256;
/// Rounds per rate sample of the saturation phase (~50 ms).
const SEGMENT: usize = 4;
/// Distinct (lineage, measure) pairs the saturation phase cycles through:
/// the schedule's most requested, so the server answers them from its
/// cache and the phase measures the request path, not the solvers.
const HOT: usize = 256;
/// Latency limit on a step's p99 for `sustained_rps`.
const P99_LIMIT_MS: f64 = 100.0;
/// Largest lineage (in variables) that asks for SHAP-score values.
const SHAP_SCORE_MAX_VARS: usize = 16;
/// Answer lineages per replay-corpus query (as in the repository's corpus).
const PER_QUERY_CAP: usize = 100;
/// Requests the traced run replays closed-loop over the socket, to compare
/// with the same requests sent to a direct service.
const SOCKET_REPLAY: usize = 3000;

/// One distinct request body the client can send.
struct PoolItem {
    lineage: Dnf,
    n_endo: usize,
    fp: Fingerprint,
    /// `"lineage":[…],"n_endo":N` — the request line minus id and measure.
    body: String,
}

struct Request {
    item: usize,
    measure: Measure,
    step: usize,
    /// When the request is due, from its step's start.
    due: Duration,
    conn: usize,
    /// No earlier request carried the same (structure, measure).
    first: bool,
    line: String,
}

/// Everything set-up generates: the pool and the whole run's schedule.
struct Plan {
    pool: Vec<PoolItem>,
    requests: Vec<Request>,
    sources: Vec<(&'static str, usize)>,
    step_len: Duration,
    saturation: Duration,
    /// One request per saturation pair, most requested first.
    hot: Vec<usize>,
}

/// Zipf(1) over ranks `0..n`, by inverse CDF.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / r as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

fn render_body(lineage: &Dnf, n_endo: usize) -> String {
    let conjuncts: Vec<String> = lineage
        .conjuncts()
        .iter()
        .map(|c| {
            let ids: Vec<String> = c.iter().map(|v| v.0.to_string()).collect();
            format!("[{}]", ids.join(","))
        })
        .collect();
    format!("\"lineage\":[{}],\"n_endo\":{n_endo}", conjuncts.join(","))
}

/// `blocks` disjoint 3-variable majorities over seeded distinct labels.
fn wide_lineage(blocks: usize, labels: usize, rng: &mut Rng) -> Dnf {
    let mut used = HashSet::new();
    let mut vars = Vec::with_capacity(3 * blocks);
    while vars.len() < 3 * blocks {
        let v = rng.below(labels) as u32;
        if used.insert(v) {
            vars.push(VarId(v));
        }
    }
    let mut d = Dnf::new();
    for b in vars.chunks(3) {
        for (x, y) in [(0, 1), (1, 2), (0, 2)] {
            d.add_conjunct(vec![b[x], b[y]]);
        }
    }
    d
}

fn job_pool_config(ctx: &Ctx) -> JobConfig {
    JobConfig {
        movies: if ctx.smoke { 300 } else { 1_500 },
        ..job_config(ctx, TOPK_MOVIES)
    }
}

/// Wide lineages in the pool, and their block counts (3 variables each).
const WIDE: usize = 6;
const WIDE_BLOCKS: std::ops::Range<usize> = 17..21;

fn generate(ctx: &Ctx) -> Plan {
    let mut rng = Rng(ctx.gen_seed(0x5E_12E));
    let mut lineages: Vec<(Dnf, usize)> = Vec::new();
    let mut sources = Vec::new();
    // Replay corpus: one n_endo for both databases, as the repository's
    // serve benchmarks send it.
    let tpch = tpch_database(&tpch_config(ctx));
    let imdb = imdb_database(&imdb_config(ctx));
    let n_endo = tpch.num_endogenous().max(imdb.num_endogenous());
    for (db, queries) in [(&tpch, tpch_queries()), (&imdb, imdb_queries())] {
        for q in queries {
            let res = evaluate(&q.ucq, db);
            for out in res.outputs.iter().take(PER_QUERY_CAP) {
                lineages.push((out.endo_lineage(db), n_endo));
            }
        }
    }
    sources.push(("replay", lineages.len()));
    let job = job_database(&job_pool_config(ctx));
    let res = evaluate(&job_ranking_query(), &job);
    for out in &res.outputs {
        lineages.push((out.endo_lineage(&job), job.num_endogenous()));
    }
    sources.push(("job", res.outputs.len()));
    let wide_n_endo = 4096;
    let mut wide = Vec::with_capacity(WIDE);
    for _ in 0..WIDE {
        let blocks = WIDE_BLOCKS.start + rng.below(WIDE_BLOCKS.len());
        wide.push((wide_lineage(blocks, wide_n_endo, &mut rng), wide_n_endo));
    }
    sources.push(("wide", WIDE));
    // Popularity ranks: the corpus and JOB lineages shuffled, the wide
    // lineages placed among the 64 most popular so every run requests them.
    let mut order = rng.permutation(lineages.len());
    let base = lineages.len();
    lineages.extend(wide);
    for w in 0..WIDE {
        order.insert(rng.below(64.min(order.len())), base + w);
    }
    let pool: Vec<PoolItem> = lineages
        .into_iter()
        .map(|(lineage, n_endo)| PoolItem {
            fp: fingerprint(&lineage),
            body: render_body(&lineage, n_endo),
            lineage,
            n_endo,
        })
        .collect();
    let zipf = Zipf::new(order.len());
    let ladder = ctx.seconds / 2;
    let step_len = ladder.div_f64(RATES.len() as f64);
    let mut requests = Vec::new();
    let mut seen: HashSet<(Arc<FingerprintKey>, Measure)> = HashSet::new();
    for (step, &rate) in RATES.iter().enumerate() {
        let n = (rate * step_len.as_secs_f64()).round().max(1.0) as usize;
        for i in 0..n {
            let item = order[zipf.sample(&mut rng)];
            // SHAP-score's rational DP takes 40 ms to seconds on lineages
            // that do not factor, and past the server's 2.5 s deadline on
            // a 137-variable read-once one, so only small read-once
            // lineages ask for it.
            let fp = &pool[item].fp;
            let measures = if fp.tree().is_some() && fp.num_vars() <= SHAP_SCORE_MAX_VARS {
                &MEASURES[..]
            } else {
                &MEASURES[..2]
            };
            let measure = measures[rng.below(measures.len())];
            let id = requests.len();
            let first = seen.insert((pool[item].fp.shared_key(), measure));
            requests.push(Request {
                item,
                measure,
                step,
                due: Duration::from_secs_f64(i as f64 / rate),
                conn: i % CONNECTIONS,
                first,
                line: format!(
                    "{{\"id\":{id},{},\"measure\":\"{}\"}}\n",
                    pool[item].body,
                    measure.name()
                ),
            });
        }
    }
    let mut counts: HashMap<(usize, Measure), (usize, usize)> = HashMap::new();
    for (i, r) in requests.iter().enumerate() {
        counts.entry((r.item, r.measure)).or_insert((0, i)).0 += 1;
    }
    let mut by_count: Vec<(usize, usize)> = counts.into_values().collect();
    by_count.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let hot = by_count.into_iter().take(HOT).map(|(_, i)| i).collect();
    Plan {
        pool,
        requests,
        sources,
        step_len,
        saturation: ctx.seconds - ladder,
        hot,
    }
}

/// The server process; killed and reaped on drop.
struct Server {
    child: Child,
    socket: PathBuf,
    log: PathBuf,
    log_start: u64,
}

impl Server {
    fn start(ctx: &Ctx, tag: &str) -> Result<Server, String> {
        let bin = ctx
            .server
            .as_ref()
            .ok_or("serve-mixed needs --server <path to the shapdb binary>")?;
        let socket = ctx.out_dir.join(format!("{tag}.sock"));
        let log = ctx.out_dir.join(format!("{tag}.log"));
        let _ = std::fs::remove_file(&socket);
        let _ = std::fs::remove_file(&log);
        let child = Command::new(bin)
            .arg("serve")
            .arg("--listen")
            .arg(format!("unix:{}", socket.display()))
            .arg("--persist")
            .arg(&log)
            .arg("--workers")
            .arg(THREADS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            // Set-up starts the server many times; each start prints a line.
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("start {}: {e}", bin.display()))?;
        let mut server = Server {
            child,
            socket,
            log,
            log_start: 0,
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("server exited during start-up: {status}"));
            }
            if server.socket.exists() {
                if let Ok(probe) = UnixStream::connect(&server.socket) {
                    drop(probe);
                    break;
                }
            }
            if Instant::now() > deadline {
                return Err("server did not listen within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        server.log_start = server.log_bytes();
        Ok(server)
    }

    fn connect(&self) -> Result<UnixStream, String> {
        UnixStream::connect(&self.socket).map_err(|e| format!("connect: {e}"))
    }

    fn log_bytes(&self) -> u64 {
        std::fs::metadata(&self.log).map_or(0, |m| m.len())
    }

    fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&self.child.id().to_string()).unwrap_or(0.0)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
        let _ = std::fs::remove_file(&self.log);
    }
}

/// What the open-loop run observed per request.
struct Observed {
    latency_ms: Vec<f64>,
    responses: Vec<String>,
    max_lag_ms: f64,
    /// Saturation phase: (request, response line) and responses per second.
    saturated: Vec<(usize, String)>,
    saturation: Rates,
    stats: Option<Json>,
}

/// Responses of one connection in one step: (request, latency ms, line).
type Received = Vec<(usize, f64, String)>;

/// Sends every request at its due time over the connections, one step at
/// a time (a step starts once the previous step's responses are in), then
/// saturates the server with the same requests back to back.
fn open_loop(server: &Server, plan: &Plan) -> Result<Observed, String> {
    let mut writers = Vec::new();
    let mut readers = Vec::new();
    for _ in 0..CONNECTIONS {
        let s = server.connect()?;
        readers.push(BufReader::new(
            s.try_clone().map_err(|e| format!("clone: {e}"))?,
        ));
        writers.push(s);
    }
    let n = plan.requests.len();
    let mut latency_ms = vec![0.0; n];
    let mut responses = vec![String::new(); n];
    let mut max_lag_ms = 0.0f64;
    for step in 0..RATES.len() {
        let ids: Vec<usize> = (0..n).filter(|&i| plan.requests[i].step == step).collect();
        let t0 = Instant::now() + Duration::from_millis(1);
        let results: Vec<Result<(f64, Received), String>> = std::thread::scope(|s| {
            let handles: Vec<_> = writers
                .iter_mut()
                .zip(readers.iter_mut())
                .enumerate()
                .map(|(c, (w, r))| {
                    let mine: Vec<usize> = ids
                        .iter()
                        .copied()
                        .filter(|&i| plan.requests[i].conn == c)
                        .collect();
                    let mine_r = mine.clone();
                    let sender = s.spawn(move || -> Result<f64, String> {
                        let mut lag = 0.0f64;
                        for i in mine {
                            let due = t0 + plan.requests[i].due;
                            let now = Instant::now();
                            if due > now {
                                std::thread::sleep(due - now);
                            }
                            lag = lag.max(ms(Instant::now().saturating_duration_since(due)));
                            w.write_all(plan.requests[i].line.as_bytes())
                                .map_err(|e| format!("send: {e}"))?;
                        }
                        Ok(lag)
                    });
                    let receiver = s.spawn(move || -> Result<Received, String> {
                        let mut got = Vec::with_capacity(mine_r.len());
                        for i in mine_r {
                            let mut line = String::new();
                            if r.read_line(&mut line).map_err(|e| format!("read: {e}"))? == 0 {
                                return Err("server closed the connection".into());
                            }
                            let due = t0 + plan.requests[i].due;
                            got.push((i, ms(Instant::now() - due), line));
                        }
                        Ok(got)
                    });
                    (sender, receiver)
                })
                .collect();
            handles
                .into_iter()
                .map(|(sender, receiver)| {
                    let lag = sender.join().expect("sender thread")?;
                    let got = receiver.join().expect("receiver thread")?;
                    Ok((lag, got))
                })
                .collect()
        });
        for r in results {
            let (lag, got) = r?;
            max_lag_ms = max_lag_ms.max(lag);
            for (i, l, line) in got {
                latency_ms[i] = l;
                responses[i] = line;
            }
        }
    }
    let (saturated, saturation) = saturate(&mut writers[0], &mut readers[0], plan)?;
    // Half-close: each session answers its EOF with one stats line.
    let mut stats = None;
    for (w, r) in writers.iter().zip(readers.iter_mut()) {
        w.shutdown(std::net::Shutdown::Write)
            .map_err(|e| format!("half-close: {e}"))?;
        let mut line = String::new();
        r.read_line(&mut line)
            .map_err(|e| format!("read stats: {e}"))?;
        let parsed = Json::parse(line.trim_end())?;
        stats = parsed.get("stats").cloned().or(stats);
    }
    Ok(Observed {
        latency_ms,
        responses,
        max_lag_ms,
        saturated,
        saturation,
        stats,
    })
}

/// Closed loop over one connection from one thread: `WINDOW` requests
/// written at once, then their responses read, cycling through the hot
/// pairs until the saturation phase ends. Every `SEGMENT` rounds, the
/// responses per second are recorded. Returns every response and the rates.
fn saturate(
    w: &mut UnixStream,
    r: &mut BufReader<UnixStream>,
    plan: &Plan,
) -> Result<(Vec<(usize, String)>, Rates), String> {
    // A stalled round fails the run instead of hanging it.
    r.get_ref()
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| format!("read timeout: {e}"))?;
    let mut rates = Rates::default();
    let until = Instant::now() + plan.saturation;
    let mut hot = plan.hot.iter().copied().cycle();
    let mut all = Vec::new();
    let mut batch = Vec::new();
    while Instant::now() < until {
        let t = Instant::now();
        let mut responses = 0;
        for _ in 0..SEGMENT {
            let round: Vec<usize> = hot.by_ref().take(WINDOW).collect();
            batch.clear();
            for &i in &round {
                batch.extend_from_slice(plan.requests[i].line.as_bytes());
            }
            w.write_all(&batch).map_err(|e| format!("send: {e}"))?;
            for &i in &round {
                let mut line = String::new();
                if r.read_line(&mut line).map_err(|e| format!("read: {e}"))? == 0 {
                    return Err("server closed the connection".into());
                }
                all.push((i, line));
            }
            responses += round.len();
        }
        rates.push(responses, t, ms(t.elapsed()));
    }
    Ok((all, rates))
}

type Expected = HashMap<(usize, Measure), Vec<(u32, String)>>;

/// Every (item, measure) pair the schedule sends, solved once through a
/// direct in-process service: exact policy, no deadline, unbounded cache.
fn reference(ctx: &Ctx, plan: &Plan) -> Result<Expected, String> {
    let cache = Arc::new(ShapleyCache::with_capacity(1 << 20));
    let planner = Planner::new(shapdb_core::engine::PlannerConfig::default()).with_cache(cache);
    let service = ShapleyService::new(
        planner,
        ServiceConfig {
            workers: ctx.cores,
            ..Default::default()
        },
    );
    let mut pairs: Vec<(usize, Measure)> = plan
        .requests
        .iter()
        .map(|r| (r.item, r.measure))
        .collect::<HashSet<_>>()
        .into_iter()
        .collect();
    pairs.sort();
    let mut tickets = Vec::with_capacity(pairs.len());
    for &(item, measure) in &pairs {
        let p = &plan.pool[item];
        let req = LineageRequest::new(p.lineage.clone(), p.n_endo).with_measure(measure);
        tickets.push(service.submit_blocking(req).map_err(|e| e.to_string())?);
    }
    let mut expected = HashMap::with_capacity(pairs.len());
    for (pair, ticket) in pairs.into_iter().zip(tickets) {
        let r = ticket.wait().map_err(|e| format!("reference solve: {e}"))?;
        let EngineValues::Exact(values) = r.values else {
            return Err("reference solve was not exact".into());
        };
        expected.insert(
            pair,
            values
                .into_iter()
                .map(|(v, x)| (v.0, x.to_string()))
                .collect(),
        );
    }
    service.shutdown();
    Ok(expected)
}

/// The server's planner policy: `serve`'s default engine and timeout.
fn server_policy() -> shapdb_core::engine::PlannerConfig {
    EngineChoice::Auto.planner_config(ServeOptions::default().timeout)
}

/// Checks one response line against the reference values.
fn check_response(line: &str, want: &[(u32, String)]) -> Result<(), String> {
    let v = Json::parse(line.trim_end()).map_err(|e| format!("bad response: {e}"))?;
    if !matches!(v.get("ok"), Some(Json::Bool(true))) {
        return Err(format!("request failed: {}", line.trim_end()));
    }
    if !matches!(v.get("exact"), Some(Json::Bool(true))) {
        return Err("response is not exact".into());
    }
    let values = v.get("values").and_then(Json::as_arr).ok_or("no values")?;
    let got: Vec<(u32, String)> = values
        .iter()
        .filter_map(|pair| {
            let pair = pair.as_arr()?;
            Some((
                pair.first()?.as_u64()? as u32,
                pair.get(1)?.as_str()?.to_string(),
            ))
        })
        .collect();
    if got == want {
        Ok(())
    } else {
        Err("response values differ from the direct ShapleyService result".into())
    }
}

fn stat(stats: &Option<Json>, key: &str) -> f64 {
    match stats.as_ref().and_then(|s| s.get(key)) {
        Some(Json::Num(x)) => *x,
        _ => 0.0,
    }
}

pub fn serve_mixed(ctx: &Ctx) -> Result<RunResult, String> {
    let mut run = RunResult::default();
    let tag = format!("serve-{}-{}", ctx.seed, std::process::id());
    // Set-up is generating the pool and schedule, then starting the server.
    let (plan, generate) = timed_setup(ctx, || generate(ctx));
    let (server, start) = timed_setup(ctx, || Server::start(ctx, &tag));
    let server = server?;
    let setup = SetupTime {
        ref_s: generate.ref_s + start.ref_s,
        wall_s: generate.wall_s + start.wall_s,
    };
    let j = job_pool_config(ctx);
    run.fact(
        "job_pool",
        format!("movies {} seed {:#x}", j.movies, j.seed),
    );
    for (source, n) in &plan.sources {
        run.fact(&format!("pool_{source}"), n);
    }
    run.fact("requests", plan.requests.len());
    run.fact("rates_rps", format!("{RATES:?}"));
    run.fact("step_s", plan.step_len.as_secs_f64());
    run.fact("saturation_s", plan.saturation.as_secs_f64());
    run.fact("connections", CONNECTIONS);
    run.fact("server_workers", THREADS);
    let expected = reference(ctx, &plan)?;

    let observed = open_loop(&server, &plan)?;
    let mut failed_per_step = vec![0usize; RATES.len()];
    for (i, r) in plan.requests.iter().enumerate() {
        let ok =
            check_response(&observed.responses[i], &expected[&(r.item, r.measure)]).map_err(|e| {
                let fp = &plan.pool[r.item].fp;
                format!(
                    "{e} (pool item {}, {} vars, {} conjuncts, {})",
                    r.item,
                    fp.num_vars(),
                    fp.key().len(),
                    r.measure.name()
                )
            });
        if ok.is_err() {
            failed_per_step[r.step] += 1;
        }
        run.outcome.op(ok);
    }
    for (i, line) in &observed.saturated {
        let r = &plan.requests[*i];
        run.outcome
            .op(check_response(line, &expected[&(r.item, r.measure)]));
    }
    run.fact("saturation_responses", observed.saturated.len());
    let server_rss = server.peak_rss_mb();
    let persist_bytes = server.log_bytes().saturating_sub(server.log_start) as f64;
    drop(server);

    if ctx.trace {
        let mut counts = Counts {
            queue_wait_ms: stat(&observed.stats, "mean_wait_us") / 1e3,
            service_completed: stat(&observed.stats, "completed"),
            service_rejected: stat(&observed.stats, "rejected"),
            persist_bytes,
            persist_entries: stat(&observed.stats, "cache_misses"),
            loadgen_max_lag_ms: observed.max_lag_ms,
            ..Counts::default()
        };
        let n = plan.requests.len() as f64;
        counts.request_bytes = plan.requests.iter().map(|r| r.line.len()).sum::<usize>() as f64 / n;
        counts.response_bytes =
            observed.responses.iter().map(String::len).sum::<usize>() as f64 / n;
        serve_traced(ctx, &mut run, &plan, &expected, &tag, counts)?;
        return Ok(run);
    }

    // A step sustains its rate when its p99 meets the limit, none of its
    // responses failed, and its last response came within 1.1 step lengths
    // of its start (no backlog built up).
    let mut sustained = 0.0f64;
    let mut all_met = true;
    for (step, &rate) in RATES.iter().enumerate() {
        let in_step: Vec<(f64, f64)> = plan
            .requests
            .iter()
            .zip(&observed.latency_ms)
            .filter(|(r, _)| r.step == step)
            .map(|(r, &l)| (l, r.due.as_secs_f64() * 1e3 + l))
            .collect();
        let lat: Vec<f64> = in_step.iter().map(|&(l, _)| l).collect();
        let p99 = percentile(&lat, 0.99);
        let supported = percentile_supported(lat.len(), 0.99);
        let last_done_ms = in_step.iter().map(|&(_, done)| done).fold(0.0, f64::max);
        let backlog = last_done_ms > plan.step_len.as_secs_f64() * 1.1e3;
        let meets = p99 <= P99_LIMIT_MS && failed_per_step[step] == 0 && !backlog;
        all_met &= meets;
        if all_met {
            sustained = rate;
        }
        run.notes.push(format!(
            "step {step}: {rate} rps, {} requests, p50 {:.3} ms, p99 {:.3} ms{}, {}",
            lat.len(),
            median(&lat),
            p99,
            if supported { "" } else { " (too few samples)" },
            if meets {
                "meets the limit"
            } else {
                "misses the limit"
            }
        ));
    }
    latency_metrics(&mut run, "latency", &observed.latency_ms);
    let split = |first: bool| -> Vec<f64> {
        plan.requests
            .iter()
            .enumerate()
            .filter(|(_, r)| r.first == first)
            .map(|(i, _)| observed.latency_ms[i])
            .collect()
    };
    latency_metrics(&mut run, "first_latency", &split(true));
    latency_metrics(&mut run, "repeat_latency", &split(false));
    run.metrics.set("sustained_rps", sustained, "1/s");
    observed.saturation.emit(&mut run, &ctx.clock);
    end_to_end_rss(&mut run, server_rss, setup);
    Ok(run)
}

/// Per-request latencies of a closed-loop replay over one connection.
fn socket_replay(server: &Server, plan: &Plan, n: usize) -> Result<Vec<f64>, String> {
    let mut w = server.connect()?;
    let mut r = BufReader::new(w.try_clone().map_err(|e| format!("clone: {e}"))?);
    let mut lat = Vec::with_capacity(n);
    let mut line = String::new();
    for req in &plan.requests[..n] {
        let t = Instant::now();
        w.write_all(req.line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        line.clear();
        r.read_line(&mut line).map_err(|e| format!("read: {e}"))?;
        lat.push(ms(t.elapsed()));
    }
    Ok(lat)
}

fn serve_traced(
    ctx: &Ctx,
    run: &mut RunResult,
    plan: &Plan,
    expected: &Expected,
    tag: &str,
    mut counts: Counts,
) -> Result<(), String> {
    let n = plan.requests.len();
    let m = n.min(SOCKET_REPLAY);
    run.fact("socket_replay_requests", m);
    // Closed loop over the socket, on a fresh server.
    let socket_lat = {
        let server = Server::start(ctx, &format!("{tag}-replay"))?;
        socket_replay(&server, plan, m)?
    };
    // The same requests through a direct service built like the server's.
    let planner = Planner::new(server_policy()).with_cache(Arc::new(ShapleyCache::new()));
    let service = ShapleyService::new(
        planner,
        ServiceConfig {
            workers: THREADS,
            ..Default::default()
        },
    );
    let before = CounterSnapshot::take();
    let t = Instant::now();
    let mut direct_lat = Vec::with_capacity(n);
    for req in &plan.requests[..n] {
        let p = &plan.pool[req.item];
        let s = Instant::now();
        let r = LineageRequest::new(p.lineage.clone(), p.n_endo).with_measure(req.measure);
        let ticket = service.submit_blocking(r).map_err(|e| e.to_string())?;
        ticket.wait().map_err(|e| e.to_string())?;
        direct_lat.push(ms(s.elapsed()));
    }
    let reference_ms = ms(t.elapsed());
    counts.add_counter_delta(&before, &CounterSnapshot::take());
    let cache = service
        .planner()
        .cache()
        .expect("the direct service has a cache")
        .stats();
    counts.cache_hits = cache.hits as f64;
    counts.cache_misses = cache.misses as f64;
    counts.cache_evictions = cache.evictions as f64;
    service.shutdown();
    counts.transport_ms = median(&socket_lat) - median(&direct_lat[..m]);

    // The same requests decomposed into the worker's public stages.
    let tr = Tracer::new();
    let planner = Planner::new(server_policy());
    let mut distinct: HashSet<Arc<FingerprintKey>> = HashSet::new();
    let traced: Vec<Values> = tr.span("pass", || -> Result<_, String> {
        let mut dec = Decomposer::new(&tr, ShapleyCache::DEFAULT_CAPACITY);
        let mut out = Vec::with_capacity(n);
        for req in &plan.requests[..n] {
            let p = &plan.pool[req.item];
            let fp = tr.span("circuit.fingerprint", || fingerprint(&p.lineage));
            distinct.insert(fp.shared_key());
            let canonical = dec.solve(&planner, &fp, p.n_endo, req.measure)?;
            out.push(tr.span("core.translate", || translate(&canonical, &fp)));
        }
        counts.ddnnf_nodes = dec.ddnnf_nodes as f64;
        Ok(out)
    })?;
    let profile = tr.pass_profile(0);
    for (req, values) in plan.requests[..n].iter().zip(&traced) {
        let want = &expected[&(req.item, req.measure)];
        let got: Vec<(u32, String)> = values.iter().map(|(v, x)| (v.0, x.to_string())).collect();
        run.outcome.op(if &got == want {
            Ok(())
        } else {
            Err("decomposed values differ from the direct service".into())
        });
    }
    counts.answers = n as f64;
    counts.distinct_structures = distinct.len() as f64;
    layers::emit(&mut run.metrics, &profile, &counts, reference_ms);
    run.spans = Some(tr.to_json());
    Ok(())
}
