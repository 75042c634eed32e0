//! # shapdb-cli — Shapley fact attribution from the command line
//!
//! The downstream-user entry point: point the tool at a directory of CSV
//! files (one per relation, header row = column names), give it a
//! Datalog-style query, and it prints each answer with its most influential
//! facts:
//!
//! ```text
//! shapdb --db data/ --query 'q(c) :- Airports(x, c), Flights(x, y)' \
//!        --endo Flights --top 3
//! ```
//!
//! Engines (`--engine`): `auto` (the default — the cost-based planner
//! routes each answer's lineage to the cheapest engine, exact under the
//! timeout with a CNF-Proxy ranking fallback), `exact` (read-once fast
//! path, else knowledge compilation; fails on timeout), or a forced single
//! engine: `readonce`, `kc`, `naive`, `proxy`, `montecarlo`, `kernelshap`.
//! Answers run through the batch executor: structurally identical lineages
//! are computed once, distinct ones fan out over `--threads` workers.
//! `--method {exact,hybrid,proxy}` remains as a compatibility alias.
//! Aggregates: `--agg count` and `--agg sum:<head-column>` attribute the
//! COUNT/SUM game over all answers instead of each answer separately.
//!
//! `shapdb serve --jsonl` flips the tool from one-shot to **resident**: a
//! long-lived [`shapdb_core::engine::ShapleyService`] worker pool reads
//! attribution requests as JSON lines on stdin and answers on stdout (see
//! [`serve`]) — many requests, one process, one shared result cache, no
//! network dependency. `shapdb serve --listen <addr>` serves the same
//! protocol over a TCP or Unix socket to many concurrent clients (see
//! [`listen`]), and `--persist <file>` backs the shared result cache with
//! an append-only log so a restarted server answers warm from disk.
//!
//! Everything is a library function returning the rendered report, so the
//! test suite drives the tool without spawning processes; `main.rs` is a
//! thin wrapper.

pub mod json;
pub mod listen;
pub mod serve;

pub use listen::{run_listen, SocketServer};
pub use serve::{parse_serve_args, run_serve, ServeOptions, ServeSummary};

use shapdb_circuit::VarId;
use shapdb_core::aggregate::{AggregateError, AggregateGame};
use shapdb_core::engine::{
    EngineKind, EngineValues, Measure, PlannerConfig, QueryBatch, QueryDriver, QueryTopK,
    ShapleyCache,
};
use shapdb_data::{Database, FactId, Value};
use shapdb_metrics::counters::{
    CacheRunStats, NUM_BIGNUM_FALLBACKS, NUM_NTT_CONVOLUTIONS, NUM_VLI_HITS,
};
use shapdb_num::Rational;
use shapdb_query::{parse_ucq, Ucq};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Which engine policy to run (`--engine`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EngineChoice {
    /// The cost-based planner with the hybrid fallback: exact wherever the
    /// timeout allows, CNF-Proxy ranking otherwise. Never fails.
    Auto,
    /// Exact values only (read-once fast path, else knowledge compilation);
    /// fails when the timeout or budget is exceeded.
    Exact,
    /// One specific engine for every answer.
    Forced(EngineKind),
}

impl EngineChoice {
    /// Parses an `--engine` value.
    pub fn parse(s: &str) -> Option<EngineChoice> {
        match s {
            "auto" => Some(EngineChoice::Auto),
            "exact" => Some(EngineChoice::Exact),
            other => EngineKind::parse(other).map(EngineChoice::Forced),
        }
    }

    /// The planner policy this choice stands for.
    pub fn planner_config(self, timeout: Duration) -> PlannerConfig {
        match self {
            EngineChoice::Auto => PlannerConfig {
                timeout: Some(timeout),
                fallback: Some(EngineKind::Proxy),
                // Like the paper's hybrid: always try the exact pipeline
                // under the timeout, never pre-reject by lineage size.
                max_kc_vars: usize::MAX,
                max_kc_conjuncts: usize::MAX,
                ..Default::default()
            },
            EngineChoice::Exact => PlannerConfig {
                timeout: Some(timeout),
                ..Default::default()
            },
            EngineChoice::Forced(kind) => PlannerConfig {
                force: Some(kind),
                timeout: Some(timeout),
                ..Default::default()
            },
        }
    }
}

/// Aggregate mode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Aggregate {
    /// Attribute each output tuple separately (the default).
    None,
    /// Attribute the COUNT(*) game over all answers.
    Count,
    /// Attribute the SUM(head column) game over all answers.
    Sum(usize),
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Config {
    pub db_dir: PathBuf,
    pub query: String,
    /// Relations whose facts are endogenous; `None` = all relations.
    pub endo: Option<Vec<String>>,
    pub top: usize,
    pub engine: EngineChoice,
    /// Worker threads (0 = all available cores): the batch's solvers; with
    /// one, `--top-k` extracts lineages on the caller's thread, with more
    /// on a producer thread that overlaps with the ranking.
    pub threads: usize,
    pub timeout: Duration,
    pub aggregate: Aggregate,
    /// Cross-query result-cache capacity in entries (0 = caching off).
    pub cache_capacity: usize,
    /// The attribution measure per answer (`--measure`, default Shapley).
    pub measure: Measure,
    /// `--top-k`: rank answers by their best fact's Shapley value and
    /// report only the `k` best, pruning the rest unsolved via the
    /// bound-driven top-k executor over streamed lineages.
    pub top_k: Option<usize>,
}

/// A user-facing failure: bad arguments, unreadable CSV, bad query, or an
/// exact computation that did not fit its budget.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Usage text (also shown on `--help`).
pub const USAGE: &str = "\
shapdb — Shapley values of database facts in query answering

USAGE:
    shapdb --db <DIR> --query <UCQ> [OPTIONS]
    shapdb serve --jsonl [SERVE OPTIONS]
    shapdb serve --listen <ADDR> [SERVE OPTIONS]

SERVE MODE (resident service, one JSON request per line):
    --jsonl             requests on stdin, responses on stdout, e.g.
                        {\"id\":1,\"lineage\":[[0,1],[2]],\"n_endo\":8}
                        (optional per-request: engine, timeout_ms, client,
                        measure — \"shapley\" | \"banzhaf\" |
                        \"responsibility\" | \"shap-score\");
                        one JSON response per line, in request order, plus
                        a final {\"stats\":{...}} line on EOF
    --listen <ADDR>     same protocol over a socket: host:port for TCP,
                        unix:/path (or any address containing /) for a
                        Unix socket; each connection is its own session,
                        all share one worker pool and result cache
    --persist <FILE>    append-only log behind the result cache: replayed
                        on startup (a restarted server answers warm from
                        disk), written through on every new exact result
    --max-n-endo <N>    largest accepted n_endo (default 1048576)
    --max-lineage-literals <N>  largest accepted total lineage literal
                        count per request (default 1048576)
    --max-line-bytes <N> longest accepted request line; longer lines are
                        discarded unbuffered (default 4194304)
    --workers <N>       persistent worker threads (default 0 = all cores)
    --queue-capacity <N> bound on queued requests; a full queue blocks the
                        stdin reader (default 1024)
    --cache-capacity <N> shared result-cache entries (default 1024, 0 = off)
    --engine <E>        default engine policy (as below; per-request
                        \"engine\" overrides it)
    --measure <M>       default attribution measure (as below; per-request
                        \"measure\" overrides it)
    --timeout-ms <N>    default exact-pipeline deadline (default 2500)

OPTIONS:
    --db <DIR>          directory of CSV files, one per relation
                        (Name.csv, header row = column names)
    --query <UCQ>       Datalog-style query, e.g.
                        'q(c) :- Airports(x, c), Flights(x, y)'
    --endo <R1,R2,...>  endogenous relations (default: all)
    --top <K>           show the K most influential facts (default 5)
    --engine <E>        auto | exact | readonce | kc | naive | proxy |
                        montecarlo | kernelshap   (default auto: the
                        cost-based planner, exact under the timeout with a
                        CNF-Proxy ranking fallback)
    --threads <N>       worker threads (default 0 = all cores); with one,
                        --top-k extracts lineages inline
    --method <M>        compatibility alias: exact | hybrid | proxy
                        (hybrid = --engine auto)
    --timeout-ms <N>    exact-pipeline deadline in milliseconds (default 2500)
    --cache-capacity <N> cross-query result-cache entries (default 1024;
                        0 = off). Exact results are cached per canonical
                        lineage structure and reused across answers and
                        queries of this invocation.
    --agg <A>           count | sum:<head-column-index>
                        (Shapley only: the aggregate games rely on the
                        Shapley value's linearity)
    --measure <M>       shapley | banzhaf | responsibility | shap-score
                        (default shapley) — the attribution measure per
                        answer; all ride the same planner routes and the
                        measure-keyed result cache
    --top-k <K>         rank answers by their best fact's exact Shapley
                        value and report only the K best: lineages stream
                        through a bounded channel (memory stays chunk-
                        bounded) and structures whose cheap upper bound
                        falls below the K-th best score are pruned
                        unsolved. Exact engines only; incompatible with
                        --agg, --measure, and forced inexact --engine
    --help              print this text
";

/// Parses command-line arguments (excluding the program name).
pub fn parse_args(args: &[String]) -> Result<Config, CliError> {
    let mut db_dir: Option<PathBuf> = None;
    let mut query: Option<String> = None;
    let mut endo: Option<Vec<String>> = None;
    let mut top = 5usize;
    let mut engine = EngineChoice::Auto;
    let mut threads = 0usize;
    let mut timeout = Duration::from_millis(2500);
    let mut aggregate = Aggregate::None;
    let mut cache_capacity = ShapleyCache::DEFAULT_CAPACITY;
    let mut measure = Measure::Shapley;
    let mut top_k: Option<usize> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = || {
            it.next()
                .ok_or_else(|| err(format!("missing value after `{arg}`")))
        };
        match arg.as_str() {
            "--db" => db_dir = Some(PathBuf::from(take()?)),
            "--query" => query = Some(take()?.clone()),
            "--endo" => endo = Some(take()?.split(',').map(|s| s.trim().to_string()).collect()),
            "--top" => {
                top = take()?
                    .parse()
                    .map_err(|_| err("--top expects a positive integer"))?
            }
            "--engine" => {
                let spec = take()?;
                engine = EngineChoice::parse(spec)
                    .ok_or_else(|| err(format!("unknown engine `{spec}`")))?
            }
            "--threads" => {
                threads = take()?
                    .parse()
                    .map_err(|_| err("--threads expects a non-negative integer"))?
            }
            "--method" => {
                // Compatibility alias from before the engine layer.
                engine = match take()?.as_str() {
                    "exact" => EngineChoice::Exact,
                    "hybrid" => EngineChoice::Auto,
                    "proxy" => EngineChoice::Forced(EngineKind::Proxy),
                    other => return Err(err(format!("unknown method `{other}`"))),
                }
            }
            "--timeout-ms" => {
                let ms: u64 = take()?
                    .parse()
                    .map_err(|_| err("--timeout-ms expects an integer"))?;
                timeout = Duration::from_millis(ms);
            }
            "--cache-capacity" => {
                cache_capacity = take()?
                    .parse()
                    .map_err(|_| err("--cache-capacity expects a non-negative integer"))?
            }
            "--agg" => {
                let spec = take()?.clone();
                aggregate = if spec == "count" {
                    Aggregate::Count
                } else if let Some(col) = spec.strip_prefix("sum:") {
                    Aggregate::Sum(
                        col.parse()
                            .map_err(|_| err("--agg sum:<N> expects a column index"))?,
                    )
                } else {
                    return Err(err(format!("unknown aggregate `{spec}`")));
                };
            }
            "--measure" => {
                let spec = take()?;
                measure =
                    Measure::parse(spec).ok_or_else(|| err(format!("unknown measure `{spec}`")))?
            }
            "--top-k" => {
                top_k = Some(
                    take()?
                        .parse()
                        .map_err(|_| err("--top-k expects a non-negative integer"))?,
                )
            }
            "--help" | "-h" => return Err(err(USAGE)),
            other => return Err(err(format!("unknown argument `{other}`"))),
        }
    }
    if measure != Measure::Shapley && aggregate != Aggregate::None {
        return Err(err(format!(
            "--agg relies on the Shapley value's linearity and cannot be \
             combined with --measure {measure}"
        )));
    }
    if top_k.is_some() {
        if aggregate != Aggregate::None {
            return Err(err(
                "--top-k ranks per-answer and cannot be combined with --agg",
            ));
        }
        if measure != Measure::Shapley {
            return Err(err(format!(
                "--top-k prunes against Shapley bounds and cannot be \
                 combined with --measure {measure}"
            )));
        }
        if let EngineChoice::Forced(kind) = engine {
            return Err(err(format!(
                "--top-k needs the exact planner's scores; drop \
                 `--engine {kind}` (or use --engine exact)"
            )));
        }
    }
    Ok(Config {
        db_dir: db_dir.ok_or_else(|| err("--db is required"))?,
        query: query.ok_or_else(|| err("--query is required"))?,
        endo,
        top,
        engine,
        threads,
        timeout,
        aggregate,
        cache_capacity,
        measure,
        top_k,
    })
}

/// Splits one CSV line into fields (double-quoted fields may contain commas
/// and `""` escapes).
fn split_csv_line(line: &str) -> Result<Vec<String>, CliError> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cur.push('"');
                } else {
                    in_quotes = false;
                }
            }
            '"' => in_quotes = true,
            ',' if !in_quotes => fields.push(std::mem::take(&mut cur)),
            _ => cur.push(c),
        }
    }
    if in_quotes {
        return Err(err(format!("unterminated quote in CSV line: {line}")));
    }
    fields.push(cur);
    Ok(fields)
}

fn parse_value(field: &str) -> Value {
    match field.trim().parse::<i64>() {
        Ok(v) => Value::int(v),
        Err(_) => Value::str(field.trim()),
    }
}

/// Loads every `*.csv` in `dir` as a relation named after the file stem.
/// The header row gives column names; rows become facts, endogenous iff the
/// relation is in `endo` (or `endo` is `None`).
pub fn load_database(dir: &Path, endo: Option<&[String]>) -> Result<Database, CliError> {
    let mut db = Database::new();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| err(format!("cannot read {}: {e}", dir.display())))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "csv"))
        .collect();
    entries.sort();
    if entries.is_empty() {
        return Err(err(format!("no .csv files in {}", dir.display())));
    }
    for path in entries {
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .ok_or_else(|| err(format!("bad file name {}", path.display())))?
            .to_string();
        let text = std::fs::read_to_string(&path)
            .map_err(|e| err(format!("cannot read {}: {e}", path.display())))?;
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines
            .next()
            .ok_or_else(|| err(format!("{}: empty file", path.display())))?;
        let columns: Vec<String> = split_csv_line(header)?
            .into_iter()
            .map(|c| c.trim().to_string())
            .collect();
        let col_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
        db.create_relation(&name, &col_refs);
        let endogenous = endo.is_none_or(|list| list.iter().any(|r| r == &name));
        for (lineno, line) in lines.enumerate() {
            let fields = split_csv_line(line)?;
            if fields.len() != columns.len() {
                return Err(err(format!(
                    "{}: row {} has {} fields, expected {}",
                    path.display(),
                    lineno + 2,
                    fields.len(),
                    columns.len()
                )));
            }
            let values: Vec<Value> = fields.iter().map(|f| parse_value(f)).collect();
            db.insert(&name, values, endogenous);
        }
    }
    Ok(db)
}

fn render_tuple(tuple: &[Value]) -> String {
    if tuple.is_empty() {
        "q() = true".to_string()
    } else {
        let vals: Vec<String> = tuple.iter().map(|v| v.to_string()).collect();
        format!("({})", vals.join(", "))
    }
}

fn render_exact(out: &mut String, db: &Database, top: usize, values: &[(VarId, Rational)]) {
    for (i, (fact, v)) in values.iter().take(top).enumerate() {
        out.push_str(&format!(
            "  {}. {}  {}  (≈{:.4})\n",
            i + 1,
            db.display_fact(FactId(fact.0)),
            v,
            v.to_f64()
        ));
    }
}

/// Rejects an atom whose term count differs from its relation's column
/// count, which the evaluator would treat as a bug and panic on.
fn check_arities(q: &Ucq, db: &Database) -> Result<(), CliError> {
    for atom in q.disjuncts().iter().flat_map(|cq| &cq.atoms) {
        let Some(rel) = db.relation(&atom.relation) else {
            continue;
        };
        let columns = rel.schema().arity();
        if atom.terms.len() != columns {
            return Err(err(format!(
                "query: atom `{}` has {} term(s) but relation `{}` has {} column(s)",
                atom.relation,
                atom.terms.len(),
                atom.relation,
                columns
            )));
        }
    }
    Ok(())
}

/// The report's first line: database size, answer count, the query.
fn header(db: &Database, answers: usize, q: &Ucq) -> String {
    format!(
        "{} fact(s), {} endogenous; {} answer(s) for {}\n",
        db.num_facts(),
        db.num_endogenous(),
        answers,
        q
    )
}

/// Runs the tool and returns the rendered report.
pub fn run(cfg: &Config) -> Result<String, CliError> {
    let db = load_database(&cfg.db_dir, cfg.endo.as_deref())?;
    let q: Ucq = parse_ucq(&cfg.query).map_err(|e| err(format!("query: {e}")))?;
    check_arities(&q, &db)?;
    let driver = QueryDriver {
        cache: (cfg.cache_capacity > 0)
            .then(|| Arc::new(ShapleyCache::with_capacity(cfg.cache_capacity))),
        threads: cfg.threads,
        ..QueryDriver::default()
    };
    // Top-k and the aggregate games need exact scores; the per-lineage
    // timeout still applies through the planner.
    let exact = EngineChoice::Exact.planner_config(cfg.timeout);
    if let Some(k) = cfg.top_k {
        return render_topk(&db, &q, driver.topk(&db, &q, exact, k), cfg.top);
    }
    let game = match cfg.aggregate {
        Aggregate::None => {
            let policy = cfg.engine.planner_config(cfg.timeout);
            return render_batch(&db, &q, driver.batch(&db, &q, policy, &[cfg.measure]), cfg);
        }
        Aggregate::Count => AggregateGame::Count,
        Aggregate::Sum(column) => AggregateGame::Sum(column),
    };
    let (answers, attributions) = driver
        .aggregate(&db, &q, exact, game)
        .map_err(|e| match e {
            AggregateError::Analysis(e) => err(format!("aggregate attribution failed: {e}")),
            column => err(column.to_string()),
        })?;
    let mut out = header(&db, answers, &q);
    out.push_str(match cfg.aggregate {
        Aggregate::Count => "COUNT(*) attribution:\n",
        _ => "SUM attribution:\n",
    });
    render_exact(&mut out, &db, cfg.top, &attributions);
    Ok(out)
}

/// The `--top-k` report: the `k` best answers by their best fact's value,
/// with what the stream filter and the admission loop left unsolved.
fn render_topk(db: &Database, q: &Ucq, run: QueryTopK, top: usize) -> Result<String, CliError> {
    let report = run
        .report
        .map_err(|e| err(format!("top-k ranking failed: {e}")))?;
    let mut out = header(db, report.answers, q);
    out.push_str(&format!(
        "top-{}: solved {} answer(s) ({} structure(s)), pruned {} answer(s) \
         ({} structure(s)) unsolved; peak {} streamed literal(s)\n",
        report.k,
        report.solved_answers,
        report.solved_structures,
        report.pruned_answers,
        report.pruned_structures,
        run.stream.peak_in_flight_literals
    ));
    for (rank, item) in report.top.iter().enumerate() {
        out.push_str(&format!(
            "#{} {}  best fact value {}  (≈{:.4})\n",
            rank + 1,
            render_tuple(&run.tuples[item.index]),
            item.score,
            item.score.to_f64()
        ));
        let EngineValues::Exact(values) = &item.result.values else {
            unreachable!("top-k results are exact");
        };
        render_exact(&mut out, db, top, values);
    }
    Ok(out)
}

/// The per-answer report: one batch, dedup of structurally identical
/// lineages, cross-query result cache, fan-out over worker threads.
fn render_batch(db: &Database, q: &Ucq, run: QueryBatch, cfg: &Config) -> Result<String, CliError> {
    let report = run.report;
    let mut out = header(db, run.tuples.len(), q);
    if cfg.measure != Measure::Shapley {
        out.push_str(&format!("measure: {}\n", cfg.measure));
    }
    out.push_str(&format!(
        "{} distinct lineage structure(s); dedup hit rate {:.0}%; {} thread(s)",
        report.dedup.distinct,
        report.dedup.hit_rate() * 100.0,
        report.threads
    ));
    if cfg.cache_capacity > 0 {
        let cache = CacheRunStats::of(&report.profile);
        out.push_str(&format!(
            "; cache {} hit(s) / {} miss(es)",
            cache.hits, cache.misses
        ));
    }
    out.push_str(&format!(
        "; arithmetic {} fixed-limb / {} bignum pass(es), {} NTT convolution(s)",
        report.profile.get(&NUM_VLI_HITS),
        report.profile.get(&NUM_BIGNUM_FALLBACKS),
        report.profile.get(&NUM_NTT_CONVOLUTIONS)
    ));
    out.push('\n');

    for (tuple, item) in run.tuples.iter().zip(report.items) {
        out.push_str(&format!("{}\n", render_tuple(tuple)));
        let result = item
            .result
            .map_err(|e| err(format!("attribution failed: {e}")))?;
        match result.values {
            EngineValues::Exact(values) => render_exact(&mut out, db, cfg.top, &values),
            EngineValues::Approx(scores) => {
                if cfg.engine == EngineChoice::Auto {
                    out.push_str("  (exact pipeline exceeded its budget: CNF-Proxy ranking, not Shapley values)\n");
                }
                for (i, (fact, score)) in scores.iter().take(cfg.top).enumerate() {
                    out.push_str(&format!(
                        "  {}. {}  score {:.6}\n",
                        i + 1,
                        db.display_fact(FactId(fact.0)),
                        score
                    ));
                }
            }
        }
    }
    Ok(out)
}

/// Entry point shared by `main.rs` and the tests. `serve` switches to the
/// resident JSONL service on the process's stdin/stdout; everything else
/// is the classic one-shot query report.
pub fn run_cli(args: &[String]) -> Result<String, CliError> {
    if args.first().is_some_and(|a| a == "serve") {
        let opts = parse_serve_args(&args[1..])?;
        if opts.listen.is_some() {
            run_listen(&opts)?;
            return Ok(String::new());
        }
        run_serve(std::io::stdin().lock(), std::io::stdout(), &opts)?;
        return Ok(String::new());
    }
    let cfg = parse_args(args)?;
    run(&cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// Writes the running-example database as CSVs into a fresh temp dir.
    fn flights_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("shapdb-cli-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("Flights.csv"),
            "src,dest\nJFK,CDG\nEWR,LHR\nBOS,LHR\nLHR,CDG\nLHR,ORY\nLAX,MUC\nMUC,ORY\nLHR,MUC\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("Airports.csv"),
            "name,country\nJFK,USA\nEWR,USA\nBOS,USA\nLAX,USA\nLHR,EN\nMUC,GR\nORY,FR\nCDG,FR\n",
        )
        .unwrap();
        dir
    }

    const FLIGHTS_QUERY: &str = "q() :- Airports(x, 'USA'), Airports(y, 'FR'), Flights(x, y) ; \
                                 q() :- Airports(x, 'USA'), Airports(z, 'FR'), Flights(x, y), Flights(y, z)";

    #[test]
    fn parse_args_full() {
        let cfg = parse_args(&args(&[
            "--db",
            "/tmp/x",
            "--query",
            "q() :- R(x)",
            "--endo",
            "R,S",
            "--top",
            "3",
            "--method",
            "exact",
            "--threads",
            "4",
            "--timeout-ms",
            "100",
            "--agg",
            "sum:1",
            "--cache-capacity",
            "64",
        ]))
        .unwrap();
        assert_eq!(cfg.db_dir, PathBuf::from("/tmp/x"));
        assert_eq!(
            cfg.endo.as_deref(),
            Some(&["R".to_string(), "S".to_string()][..])
        );
        assert_eq!(cfg.top, 3);
        assert_eq!(cfg.engine, EngineChoice::Exact);
        assert_eq!(cfg.threads, 4);
        assert_eq!(cfg.timeout, Duration::from_millis(100));
        assert_eq!(cfg.aggregate, Aggregate::Sum(1));
        assert_eq!(cfg.cache_capacity, 64);
    }

    #[test]
    fn cache_capacity_defaults_on_and_zero_disables() {
        let base = args(&["--db", "d", "--query", "q"]);
        assert_eq!(
            parse_args(&base).unwrap().cache_capacity,
            ShapleyCache::DEFAULT_CAPACITY
        );
        let dir = flights_dir("cache");
        // 0 = off: the report drops the cache column and still answers.
        let report = run_cli(&args(&[
            "--db",
            dir.to_str().unwrap(),
            "--query",
            FLIGHTS_QUERY,
            "--endo",
            "Flights",
            "--cache-capacity",
            "0",
        ]))
        .unwrap();
        assert!(report.contains("Flights(JFK, CDG)  43/105"), "{report}");
        assert!(!report.contains("cache"), "{report}");
        // Default: the cache line shows up (one distinct structure, first
        // sight = one miss).
        let report = run_cli(&args(&[
            "--db",
            dir.to_str().unwrap(),
            "--query",
            FLIGHTS_QUERY,
            "--endo",
            "Flights",
        ]))
        .unwrap();
        assert!(report.contains("cache 0 hit(s) / 1 miss(es)"), "{report}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parse_args_rejects_unknown() {
        assert!(parse_args(&args(&["--frobnicate"])).is_err());
        assert!(parse_args(&args(&["--db"])).is_err());
        assert!(parse_args(&args(&["--db", "d", "--query", "q", "--method", "magic"])).is_err());
        assert!(
            parse_args(&args(&["--db", "d"])).is_err(),
            "--query required"
        );
    }

    #[test]
    fn csv_splitting_handles_quotes() {
        assert_eq!(split_csv_line("a,b,c").unwrap(), vec!["a", "b", "c"]);
        assert_eq!(
            split_csv_line("\"x,y\",2,\"say \"\"hi\"\"\"").unwrap(),
            vec!["x,y", "2", "say \"hi\""]
        );
        assert!(split_csv_line("\"unterminated").is_err());
    }

    #[test]
    fn end_to_end_exact_reproduces_example_2_1() {
        let dir = flights_dir("exact");
        let report = run_cli(&args(&[
            "--db",
            dir.to_str().unwrap(),
            "--query",
            FLIGHTS_QUERY,
            "--endo",
            "Flights",
            "--method",
            "exact",
            "--top",
            "2",
        ]))
        .unwrap();
        assert!(
            report.contains("16 fact(s), 8 endogenous; 1 answer(s)"),
            "{report}"
        );
        assert!(report.contains("Flights(JFK, CDG)  43/105"), "{report}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn end_to_end_proxy_ranks_facts() {
        let dir = flights_dir("proxy");
        let report = run_cli(&args(&[
            "--db",
            dir.to_str().unwrap(),
            "--query",
            FLIGHTS_QUERY,
            "--endo",
            "Flights",
            "--method",
            "proxy",
        ]))
        .unwrap();
        assert!(report.contains("score"), "{report}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn end_to_end_count_aggregate() {
        let dir = flights_dir("count");
        let report = run_cli(&args(&[
            "--db",
            dir.to_str().unwrap(),
            "--query",
            "q(y) :- Flights(x, y)",
            "--endo",
            "Flights",
            "--agg",
            "count",
        ]))
        .unwrap();
        assert!(report.contains("COUNT(*) attribution:"), "{report}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_sum_column_is_a_clean_error() {
        let dir = flights_dir("sumcol");
        let sum = |spec: &str| {
            run_cli(&args(&[
                "--db",
                dir.to_str().unwrap(),
                "--query",
                "q(x, y) :- Flights(x, y)",
                "--agg",
                spec,
            ]))
            .unwrap_err()
        };
        assert_eq!(sum("sum:2").0, "sum column 2 out of range");
        assert_eq!(sum("sum:1").0, "sum column 1 is not an integer");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn engine_flag_selects_forced_engines() {
        let dir = flights_dir("engine");
        // readonce: the flights lineage factors, exact values come out.
        let report = run_cli(&args(&[
            "--db",
            dir.to_str().unwrap(),
            "--query",
            FLIGHTS_QUERY,
            "--endo",
            "Flights",
            "--engine",
            "readonce",
        ]))
        .unwrap();
        assert!(report.contains("Flights(JFK, CDG)  43/105"), "{report}");
        assert!(
            report.contains("1 distinct lineage structure(s)"),
            "{report}"
        );
        // montecarlo: approximate scores.
        let report = run_cli(&args(&[
            "--db",
            dir.to_str().unwrap(),
            "--query",
            FLIGHTS_QUERY,
            "--endo",
            "Flights",
            "--engine",
            "montecarlo",
        ]))
        .unwrap();
        assert!(report.contains("score"), "{report}");
        // Unknown engines are a clean error.
        assert!(parse_args(&args(&["--db", "d", "--query", "q", "--engine", "magic"])).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn measure_flag_switches_the_attribution() {
        let dir = flights_dir("measure");
        let base = [
            "--db",
            dir.to_str().unwrap(),
            "--query",
            FLIGHTS_QUERY,
            "--endo",
            "Flights",
        ];
        // Banzhaf of the running example: a1 = 21/64.
        let mut cli = args(&base);
        cli.extend(args(&["--measure", "banzhaf"]));
        let report = run_cli(&cli).unwrap();
        assert!(report.contains("measure: banzhaf"), "{report}");
        assert!(report.contains("Flights(JFK, CDG)  21/64"), "{report}");
        // Responsibility: every fact of the lineage carries ρ = 1/4.
        let mut cli = args(&base);
        cli.extend(args(&["--measure", "responsibility"]));
        let report = run_cli(&cli).unwrap();
        assert!(report.contains("Flights(JFK, CDG)  1/4"), "{report}");
        // shap_score is accepted as an alias; values are exact rationals.
        let mut cli = args(&base);
        cli.extend(args(&["--measure", "shap_score"]));
        let report = run_cli(&cli).unwrap();
        assert!(report.contains("measure: shap-score"), "{report}");
        // Unknown measures and --agg conflicts are clean errors.
        let e = parse_args(&args(&["--db", "d", "--query", "q", "--measure", "owen"])).unwrap_err();
        assert!(e.0.contains("unknown measure"), "{e}");
        let e = parse_args(&args(&[
            "--db",
            "d",
            "--query",
            "q",
            "--measure",
            "banzhaf",
            "--agg",
            "count",
        ]))
        .unwrap_err();
        assert!(e.0.contains("linearity"), "{e}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn top_k_reports_the_best_answers() {
        let dir = flights_dir("topk");
        let report = run_cli(&args(&[
            "--db",
            dir.to_str().unwrap(),
            "--query",
            FLIGHTS_QUERY,
            "--endo",
            "Flights",
            "--top-k",
            "1",
        ]))
        .unwrap();
        assert!(report.contains("top-1: solved 1 answer(s)"), "{report}");
        assert!(report.contains("best fact value 43/105"), "{report}");
        assert!(report.contains("Flights(JFK, CDG)  43/105"), "{report}");
        // k = 0 prunes every answer without a single solve.
        let report = run_cli(&args(&[
            "--db",
            dir.to_str().unwrap(),
            "--query",
            "q(y) :- Flights(x, y)",
            "--endo",
            "Flights",
            "--top-k",
            "0",
        ]))
        .unwrap();
        assert!(report.contains("top-0: solved 0 answer(s)"), "{report}");
        assert!(report.contains("pruned 4 answer(s)"), "{report}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn top_k_rejects_incompatible_flags() {
        let base = &["--db", "d", "--query", "q", "--top-k", "2"];
        let with = |extra: &[&str]| {
            let mut cli = args(base);
            cli.extend(args(extra));
            parse_args(&cli)
        };
        let e = with(&["--agg", "count"]).unwrap_err();
        assert!(e.0.contains("--agg"), "{e}");
        let e = with(&["--measure", "banzhaf"]).unwrap_err();
        assert!(e.0.contains("Shapley bounds"), "{e}");
        let e = with(&["--engine", "proxy"]).unwrap_err();
        assert!(e.0.contains("exact"), "{e}");
        assert_eq!(with(&["--engine", "exact"]).unwrap().top_k, Some(2));
        assert_eq!(with(&[]).unwrap().top_k, Some(2));
    }

    #[test]
    fn default_auto_engine_reproduces_example_2_1() {
        let dir = flights_dir("auto");
        let report = run_cli(&args(&[
            "--db",
            dir.to_str().unwrap(),
            "--query",
            FLIGHTS_QUERY,
            "--endo",
            "Flights",
            "--threads",
            "2",
        ]))
        .unwrap();
        assert!(report.contains("Flights(JFK, CDG)  43/105"), "{report}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_db_dir_is_a_clean_error() {
        let e = run_cli(&args(&[
            "--db",
            "/nonexistent-shapdb-dir",
            "--query",
            "q() :- R(x)",
        ]))
        .unwrap_err();
        assert!(e.0.contains("cannot read"), "{e}");
    }

    /// A temp dir holding one two-column relation `R`.
    fn two_column_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("shapdb-cli-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("R.csv"), "a,b\n1,2\n").unwrap();
        dir
    }

    #[test]
    fn atom_arity_mismatch_is_a_clean_error() {
        let dir = two_column_dir("arity");
        for extra in [&[][..], &["--top-k", "1"][..]] {
            let mut list = vec!["--db", dir.to_str().unwrap(), "--query", "q(x) :- R(x)"];
            list.extend_from_slice(extra);
            let e = run_cli(&args(&list)).unwrap_err();
            assert!(
                e.0.contains("atom `R` has 1 term(s) but relation `R` has 2 column(s)"),
                "{e}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn atom_wider_than_64_terms_is_a_clean_error() {
        let dir = two_column_dir("wide");
        let terms: Vec<String> = (0..65).map(|i| format!("x{i}")).collect();
        let query = format!("q() :- R({})", terms.join(", "));
        let e = run_cli(&args(&["--db", dir.to_str().unwrap(), "--query", &query])).unwrap_err();
        assert!(e.0.contains("atom `R` has 65 terms; at most 64"), "{e}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_row_is_a_clean_error() {
        let dir = std::env::temp_dir().join(format!("shapdb-cli-test-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("R.csv"), "a,b\n1\n").unwrap();
        let e = run_cli(&args(&[
            "--db",
            dir.to_str().unwrap(),
            "--query",
            "q() :- R(x, y)",
        ]))
        .unwrap_err();
        assert!(e.0.contains("row 2 has 1 fields"), "{e}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
