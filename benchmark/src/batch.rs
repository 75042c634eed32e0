//! The three batch workloads, driven through the `ShapleyAnalyzer` facade.
//!
//! * `paper-explain`: one `explain_batch` per TPC-H-lite / IMDB-lite query,
//!   a fresh analyzer per pass (the paper's §6 experiment);
//! * `job-topk`: `rank_topk(k = 10)` over a 4,000-answer JOB database;
//! * `job-explain`: `explain_batch` over all answers of a 2,000-answer JOB
//!   database.

use crate::layers::{self, Counts};
use crate::pipeline::{check_efficiency, translate, Decomposer, Values};
use crate::stats::{self, median, ms, percentile, percentile_supported, RefClock};
use crate::trace::{PassProfile, Tracer};
use crate::{timed_setup, Ctx, Rng, RunResult, SetupTime, THREADS};
use shapdb::data::{Database, Value};
use shapdb::{ShapleyAnalyzer, TupleExplanation};
use shapdb_circuit::{fingerprint, Dnf, Fingerprint, FingerprintKey};
use shapdb_core::engine::{shapley_bounds, Measure, Planner, PlannerConfig, ShapleyCache};
use shapdb_metrics::counters::CounterSnapshot;
use shapdb_num::Rational;
use shapdb_query::{evaluate, with_streamed_lineages, Ucq};
use shapdb_workloads::{
    imdb_database, imdb_queries, job_database, job_ranking_query, tpch_database, tpch_queries,
    ImdbConfig, JobConfig, TpchConfig,
};
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

/// Answers `job-topk` ranks.
const TOPK: usize = 10;
/// Streamed-extraction chunk (the facade's own setting).
const STREAM_CHUNK: usize = 256;

/// One database and the queries explained over it.
struct ExplainSet {
    db: Database,
    queries: Vec<Ucq>,
}

/// TPC-H-lite and IMDB-lite stay at the replay corpus's seed (42): at
/// other seeds their answer counts and lineage widths change the work of
/// one pass several-fold (0.11 s at seed 42, 0.75 s at another), more
/// than any regression bound could absorb.
pub fn tpch_config(ctx: &Ctx) -> TpchConfig {
    TpchConfig {
        scale: if ctx.smoke { 0.1 } else { 0.5 },
        seed: 42,
    }
}

pub fn imdb_config(ctx: &Ctx) -> ImdbConfig {
    let (movies, companies, people, keywords) = if ctx.smoke {
        (120, 20, 80, 20)
    } else {
        (600, 60, 300, 50)
    };
    ImdbConfig {
        movies,
        companies,
        people,
        keywords,
        seed: 42,
    }
}

/// JOB movies (= answers) of `job-topk`: a third of `JobConfig::default()`,
/// so a run holds enough calls for a steady median (a default-scale call
/// takes 5–10 s on a shared 2-core machine).
pub const TOPK_MOVIES: usize = 4_000;
/// JOB movies of `job-explain`: a single-thread call over 4,000 answers
/// takes ~4 s, too long to pair with the calibrations around it.
const EXPLAIN_MOVIES: usize = 2_000;

pub fn job_config(ctx: &Ctx, movies: usize) -> JobConfig {
    let base = if ctx.smoke {
        JobConfig::smoke()
    } else {
        JobConfig {
            movies,
            ..JobConfig::default()
        }
    };
    JobConfig {
        seed: ctx.gen_seed(base.seed),
        ..base
    }
}

fn paper_sets(ctx: &Ctx) -> Vec<ExplainSet> {
    let tpch = ExplainSet {
        db: tpch_database(&tpch_config(ctx)),
        queries: tpch_queries().into_iter().map(|q| q.ucq).collect(),
    };
    let imdb = ExplainSet {
        db: imdb_database(&imdb_config(ctx)),
        queries: imdb_queries().into_iter().map(|q| q.ucq).collect(),
    };
    vec![tpch, imdb]
}

pub fn paper_explain(ctx: &Ctx) -> Result<RunResult, String> {
    let mut run = RunResult::default();
    let (sets, setup) = timed_setup(ctx, || paper_sets(ctx));
    let (t, i) = (tpch_config(ctx), imdb_config(ctx));
    run.fact("tpch", format!("scale {} seed {}", t.scale, t.seed));
    run.fact(
        "imdb",
        format!(
            "movies {} companies {} people {} keywords {} seed {}",
            i.movies, i.companies, i.people, i.keywords, i.seed
        ),
    );
    describe_sets(&mut run, &sets);
    explain_workload(ctx, &mut run, &sets, setup)?;
    Ok(run)
}

pub fn job_explain(ctx: &Ctx) -> Result<RunResult, String> {
    let mut run = RunResult::default();
    let cfg = job_config(ctx, EXPLAIN_MOVIES);
    let (db, setup) = timed_setup(ctx, || job_database(&cfg));
    describe_job(&mut run, &cfg);
    let sets = vec![ExplainSet {
        db,
        queries: vec![job_ranking_query()],
    }];
    describe_sets(&mut run, &sets);
    explain_workload(ctx, &mut run, &sets, setup)?;
    Ok(run)
}

fn describe_job(run: &mut RunResult, cfg: &JobConfig) {
    run.fact(
        "job",
        format!(
            "movies {} companies {} keywords {} people {} ck_edges {} seed {:#x}",
            cfg.movies, cfg.companies, cfg.keywords, cfg.people, cfg.ck_edges, cfg.seed
        ),
    );
}

fn describe_sets(run: &mut RunResult, sets: &[ExplainSet]) {
    let facts: usize = sets.iter().map(|s| s.db.num_facts()).sum();
    let endo: usize = sets.iter().map(|s| s.db.num_endogenous()).sum();
    let queries: usize = sets.iter().map(|s| s.queries.len()).sum();
    run.fact("database_facts", facts);
    run.fact("endogenous_facts", endo);
    run.fact("queries", queries);
}

fn explain_workload(
    ctx: &Ctx,
    run: &mut RunResult,
    sets: &[ExplainSet],
    setup: SetupTime,
) -> Result<(), String> {
    if ctx.trace {
        return explain_traced(ctx, run, sets);
    }
    run.fact("threads", THREADS);
    let mut rng = Rng(ctx.seed);
    let mut lat = Vec::new();
    let mut rates = Rates::default();
    let mut rss = Vec::new();
    let start = Instant::now();
    loop {
        let pass_start = Instant::now();
        let (mut pass_ms, mut answers) = (0.0, 0usize);
        for s in rng.permutation(sets.len()) {
            let set = &sets[s];
            let analyzer = ShapleyAnalyzer::new(&set.db).with_threads(THREADS);
            for q in rng
                .permutation(set.queries.len())
                .into_iter()
                .map(|i| &set.queries[i])
            {
                stats::reset_peak_rss();
                let t = Instant::now();
                let r = analyzer.explain_batch(q);
                let call_ms = ms(t.elapsed());
                lat.push(call_ms);
                pass_ms += call_ms;
                rss.push(stats::peak_rss_mb("self").unwrap_or(0.0));
                run.outcome.op(match r {
                    Err(e) => Err(e.to_string()),
                    Ok(b) => {
                        answers += b.explanations.len();
                        b.explanations
                            .iter()
                            .try_for_each(|e| check_efficiency(&e.attributions))
                    }
                });
            }
        }
        rates.push(answers, pass_start, pass_ms);
        if start.elapsed() >= ctx.seconds {
            break;
        }
    }
    end_to_end(run, &lat, &rates, &ctx.clock, &rss, setup);
    Ok(())
}

/// Answers per second of each pass.
#[derive(Default)]
pub struct Rates {
    /// (answers, start, wall ms) of each pass.
    passes: Vec<(usize, Instant, f64)>,
}

impl Rates {
    /// Records a pass of `answers` answers that began at `start`.
    pub fn push(&mut self, answers: usize, start: Instant, wall_ms: f64) {
        self.passes.push((answers, start, wall_ms));
    }

    /// `answers_per_ref_s`, `answers_per_s`: medians over passes in
    /// reference and in wall time.
    pub fn emit(&self, run: &mut RunResult, clock: &RefClock) {
        let rate = |ms: f64, answers: usize| answers as f64 * 1e3 / ms;
        let wall: Vec<f64> = self.passes.iter().map(|&(n, _, ms)| rate(ms, n)).collect();
        let reference: Vec<f64> = self
            .passes
            .iter()
            .map(|&(n, t, ms)| rate(clock.to_ref(t, ms), n))
            .collect();
        run.fact("rate_samples", self.passes.len());
        run.metrics
            .set("answers_per_ref_s", median(&reference), "1/s");
        run.metrics.set("answers_per_s", median(&wall), "1/s");
        run.metrics
            .set("calibration_ms", clock.calibration_ms(), "ms");
    }
}

/// The end-to-end metrics of a batch workload: one latency sample per
/// facade call; the median over passes of a pass's answers per second;
/// the median over calls of the process's peak RSS during the call.
fn end_to_end(
    run: &mut RunResult,
    lat: &[f64],
    rates: &Rates,
    clock: &RefClock,
    rss: &[f64],
    setup: SetupTime,
) {
    latency_metrics(run, "latency", lat);
    rates.emit(run, clock);
    end_to_end_rss(run, median(rss), setup);
}

/// `error_rate`, `peak_rss_mb` (of the process doing the work),
/// `setup_s` (reference time) and `setup_wall_s`.
pub fn end_to_end_rss(run: &mut RunResult, peak_rss_mb: f64, setup: SetupTime) {
    run.metrics.set(
        "error_rate",
        run.outcome.failed as f64 / run.outcome.attempted.max(1) as f64,
        "ratio",
    );
    run.metrics.set("peak_rss_mb", peak_rss_mb, "MiB");
    run.metrics.set("setup_s", setup.ref_s, "s");
    run.metrics.set("setup_wall_s", setup.wall_s, "s");
}

/// `<prefix>_p50_ms`, plus p90/p99 where at least ten samples lie beyond.
pub fn latency_metrics(run: &mut RunResult, prefix: &str, lat: &[f64]) {
    run.fact(&format!("{prefix}_samples"), lat.len());
    if lat.is_empty() {
        return;
    }
    run.metrics
        .set(&format!("{prefix}_p50_ms"), median(lat), "ms");
    for (q, name) in [(0.9, "p90"), (0.99, "p99")] {
        if percentile_supported(lat.len(), q) {
            run.metrics
                .set(&format!("{prefix}_{name}_ms"), percentile(lat, q), "ms");
        } else {
            run.notes.push(format!(
                "{prefix}_{name}_ms not reported: {} samples leave fewer than 10 beyond it",
                lat.len()
            ));
        }
    }
}

/// Groups fingerprints by canonical structure: the first member of each
/// group, and each answer's group.
fn group(fps: &[Fingerprint]) -> (Vec<usize>, Vec<usize>) {
    let mut seen: HashMap<&FingerprintKey, usize> = HashMap::new();
    let mut firsts = Vec::new();
    let mut group_of = Vec::with_capacity(fps.len());
    for (i, fp) in fps.iter().enumerate() {
        let g = *seen.entry(fp.key()).or_insert_with(|| {
            firsts.push(i);
            firsts.len() - 1
        });
        group_of.push(g);
    }
    (firsts, group_of)
}

fn literals(lineage: &Dnf) -> usize {
    lineage.conjuncts().iter().map(Vec::len).sum()
}

/// `explain_batch`, decomposed: evaluate, extract, fingerprint, group,
/// solve each structure, translate.
fn explain_decomposed(
    tr: &Tracer,
    dec: &mut Decomposer,
    q: &Ucq,
    db: &Database,
    counts: &mut Counts,
) -> Result<Vec<(Vec<Value>, Values)>, String> {
    let res = tr.span("query.evaluate", || evaluate(q, db));
    // A materialized result holds every answer's lineage at once.
    let held: usize = res.outputs.iter().map(|t| literals(&t.lineage)).sum();
    counts.lineage_literals += held as f64;
    counts.peak_in_flight_literals = counts.peak_in_flight_literals.max(held as f64);
    let lineages: Vec<Dnf> = tr.span("query.endo_lineage", || {
        res.outputs.iter().map(|t| t.endo_lineage(db)).collect()
    });
    let fps: Vec<Fingerprint> = tr.span("circuit.fingerprint", || {
        lineages.iter().map(fingerprint).collect()
    });
    let (firsts, group_of) = tr.span("core.group", || group(&fps));
    let planner = Planner::for_query(PlannerConfig::default(), q);
    // `num_endogenous` scans the database: once per call, as the facade does.
    let n_endo = db.num_endogenous();
    let mut solved = Vec::with_capacity(firsts.len());
    for &i in &firsts {
        solved.push(dec.solve(&planner, &fps[i], n_endo, Measure::Shapley)?);
    }
    Ok(tr.span("core.translate", || {
        res.outputs
            .into_iter()
            .zip(&fps)
            .zip(&group_of)
            .map(|((out, fp), &g)| (out.tuple, translate(&solved[g], fp)))
            .collect()
    }))
}

fn same_values(a: &[(shapdb::data::FactId, Rational)], b: &Values) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.0 .0 == y.0 .0 && x.1 == y.1)
}

/// The traced pass with the median wall time, with its counts.
fn median_pass(mut passes: Vec<(PassProfile, f64, Counts)>) -> (PassProfile, f64, Counts) {
    let refs: Vec<f64> = passes.iter().map(|p| p.1).collect();
    let reference_ms = median(&refs);
    passes.sort_by(|a, b| a.0.wall_ms.total_cmp(&b.0.wall_ms));
    let (profile, _, counts) = passes.swap_remove(passes.len() / 2);
    (profile, reference_ms, counts)
}

fn explain_traced(ctx: &Ctx, run: &mut RunResult, sets: &[ExplainSet]) -> Result<(), String> {
    run.fact("threads", 1);
    let tr = Tracer::new();
    let mut passes = Vec::new();
    let start = Instant::now();
    loop {
        // Untraced single-thread reference: the real call, counted from
        // outside by counter-registry deltas.
        let mut counts = Counts::default();
        let mut reference: Vec<Vec<TupleExplanation>> = Vec::new();
        let before = CounterSnapshot::take();
        let t = Instant::now();
        for set in sets {
            let analyzer = ShapleyAnalyzer::new(&set.db).with_threads(1);
            for q in &set.queries {
                let b = analyzer.explain_batch(q).map_err(|e| e.to_string())?;
                counts.answers += b.dedup.tasks as f64;
                counts.distinct_structures += b.dedup.distinct as f64;
                reference.push(b.explanations);
            }
            let cache = analyzer.cache_stats().expect("caching is on by default");
            counts.cache_hits += cache.hits as f64;
            counts.cache_misses += cache.misses as f64;
            counts.cache_evictions += cache.evictions as f64;
        }
        let reference_ms = ms(t.elapsed());
        counts.add_counter_delta(&before, &CounterSnapshot::take());

        let mark = tr.mark();
        let traced = tr.span("pass", || -> Result<_, String> {
            let mut all = Vec::new();
            for set in sets {
                let mut dec = Decomposer::new(&tr, ShapleyCache::DEFAULT_CAPACITY);
                for q in &set.queries {
                    all.push(explain_decomposed(&tr, &mut dec, q, &set.db, &mut counts)?);
                }
                counts.ddnnf_nodes += dec.ddnnf_nodes as f64;
            }
            Ok(all)
        })?;
        let profile = tr.pass_profile(mark);
        for (r, d) in reference.iter().zip(&traced) {
            run.outcome.op(
                if r.len() == d.len()
                    && r.iter()
                        .zip(d)
                        .all(|(r, d)| r.tuple == d.0 && same_values(&r.attributions, &d.1))
                {
                    Ok(())
                } else {
                    Err("decomposed explanations differ from explain_batch".into())
                },
            );
        }
        passes.push((profile, reference_ms, counts));
        if start.elapsed() >= ctx.seconds {
            break;
        }
    }
    run.fact("traced_passes", passes.len());
    let (profile, reference_ms, counts) = median_pass(passes);
    layers::emit(&mut run.metrics, &profile, &counts, reference_ms);
    run.spans = Some(tr.to_json());
    Ok(())
}

pub fn job_topk(ctx: &Ctx) -> Result<RunResult, String> {
    let mut run = RunResult::default();
    let cfg = job_config(ctx, TOPK_MOVIES);
    let (db, setup) = timed_setup(ctx, || job_database(&cfg));
    describe_job(&mut run, &cfg);
    run.fact("database_facts", db.num_facts());
    run.fact("endogenous_facts", db.num_endogenous());
    // The solo slice scores exactly 1/2 and is the designed top.
    let k = TOPK.min(cfg.solo_movies());
    run.fact("k", k);
    let q = job_ranking_query();
    if ctx.trace {
        topk_traced(ctx, &mut run, &db, &q, k)?;
        return Ok(run);
    }
    run.fact("threads", THREADS);
    let mut lat = Vec::new();
    let mut rates = Rates::default();
    let mut rss = Vec::new();
    let start = Instant::now();
    loop {
        let analyzer = ShapleyAnalyzer::new(&db).with_threads(THREADS);
        stats::reset_peak_rss();
        let t = Instant::now();
        let r = analyzer.rank_topk(&q, k);
        let call_ms = ms(t.elapsed());
        lat.push(call_ms);
        rss.push(stats::peak_rss_mb("self").unwrap_or(0.0));
        run.outcome.op(match r {
            Err(e) => Err(e.to_string()),
            Ok(ranking) => {
                rates.push(ranking.answers, t, call_ms);
                check_designed_top(&ranking, k)
            }
        });
        if start.elapsed() >= ctx.seconds {
            break;
        }
    }
    end_to_end(&mut run, &lat, &rates, &ctx.clock, &rss, setup);
    Ok(run)
}

fn check_designed_top(ranking: &shapdb::TopKRanking, k: usize) -> Result<(), String> {
    if ranking.top.len() != k {
        return Err(format!("rank_topk returned {} of {k}", ranking.top.len()));
    }
    let half = Rational::from_ratio(1, 2);
    for a in &ranking.top {
        if a.score != half {
            return Err(format!("answer {} scores {}, not 1/2", a.index, a.score));
        }
        check_efficiency(&a.attributions)?;
    }
    Ok(())
}

/// A structure awaiting admission: highest upper bound first, ties toward
/// the earliest answer (the order `TopKExecutor` uses).
struct Candidate {
    ub: Rational,
    first: usize,
    group: usize,
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.ub
            .cmp(&other.ub)
            .then_with(|| other.first.cmp(&self.first))
    }
}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Candidate {}

type Ranked = Vec<(usize, Rational, Values)>;

/// `rank_topk`, decomposed: streamed extraction with per-answer
/// fingerprinting, grouping, one bound per structure, then solving in
/// decreasing bound order until the k-th score dominates every bound left.
fn topk_decomposed(
    tr: &Tracer,
    db: &Database,
    q: &Ucq,
    k: usize,
    counts: &mut Counts,
) -> Result<Ranked, String> {
    let (fps, _) = tr.span("query.stream", || {
        with_streamed_lineages(q, db, STREAM_CHUNK, |answers| {
            let mut fps = Vec::new();
            for out in answers {
                let lineage = tr.span("query.endo_lineage", || out.endo_lineage(db));
                fps.push(tr.span("circuit.fingerprint", || fingerprint(&lineage)));
            }
            fps
        })
    });
    let (firsts, group_of) = tr.span("core.group", || group(&fps));
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); firsts.len()];
    for (i, &g) in group_of.iter().enumerate() {
        members[g].push(i);
    }
    let mut heap: BinaryHeap<Candidate> = tr.span("core.bounds", || {
        firsts
            .iter()
            .enumerate()
            .map(|(group, &first)| Candidate {
                ub: shapley_bounds(fps[first].key()).upper,
                first,
                group,
            })
            .collect()
    });
    let planner = Planner::for_query(PlannerConfig::default(), q);
    let n_endo = db.num_endogenous();
    let mut dec = Decomposer::new(tr, ShapleyCache::DEFAULT_CAPACITY);
    let mut kth: BinaryHeap<Reverse<Rational>> = BinaryHeap::new();
    let mut solved: Vec<(usize, Rational, Values)> = Vec::new();
    while let Some(c) = heap.pop() {
        if k == 0 || (kth.len() == k && c.ub < kth.peek().expect("k scores").0) {
            break;
        }
        let values = dec.solve(&planner, &fps[c.first], n_endo, Measure::Shapley)?;
        let score = values
            .first()
            .map_or_else(Rational::zero, |(_, x)| x.clone());
        for _ in &members[c.group] {
            kth.push(Reverse(score.clone()));
            if kth.len() > k {
                kth.pop();
            }
        }
        solved.push((c.group, score, values));
    }
    counts.topk_solved_structures = solved.len() as f64;
    counts.ddnnf_nodes = dec.ddnnf_nodes as f64;
    let mut ranked: Vec<(usize, Rational, usize)> = Vec::new();
    for (slot, (g, score, _)) in solved.iter().enumerate() {
        for &m in &members[*g] {
            ranked.push((m, score.clone(), slot));
        }
    }
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked.truncate(k);
    Ok(tr.span("core.translate", || {
        ranked
            .into_iter()
            .map(|(m, score, slot)| (m, score, translate(&solved[slot].2, &fps[m])))
            .collect()
    }))
}

fn same_ranking(ranking: &shapdb::TopKRanking, other: &Ranked) -> bool {
    ranking.top.len() == other.len()
        && ranking
            .top
            .iter()
            .zip(other)
            .all(|(a, b)| a.index == b.0 && a.score == b.1 && same_values(&a.attributions, &b.2))
}

/// The full ranking's length-k prefix: every answer solved by
/// `explain_batch`, scored by its best fact, under (score desc, index asc).
fn full_ranking_prefix(ctx: &Ctx, db: &Database, q: &Ucq, k: usize) -> Result<Ranked, String> {
    let batch = ShapleyAnalyzer::new(db)
        .with_threads(ctx.cores)
        .explain_batch(q)
        .map_err(|e| e.to_string())?;
    let mut ranked: Ranked = batch
        .explanations
        .into_iter()
        .enumerate()
        .map(|(i, e)| {
            let best = e
                .attributions
                .first()
                .map_or_else(Rational::zero, |(_, x)| x.clone());
            let values = e
                .attributions
                .into_iter()
                .map(|(f, x)| (shapdb_circuit::VarId(f.0), x))
                .collect();
            (i, best, values)
        })
        .collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked.truncate(k);
    Ok(ranked)
}

fn topk_traced(
    ctx: &Ctx,
    run: &mut RunResult,
    db: &Database,
    q: &Ucq,
    k: usize,
) -> Result<(), String> {
    run.fact("threads", 1);
    let tr = Tracer::new();
    let mut passes = Vec::new();
    let mut full_checked = false;
    let start = Instant::now();
    loop {
        let mut counts = Counts::default();
        let analyzer = ShapleyAnalyzer::new(db).with_threads(1);
        let before = CounterSnapshot::take();
        let t = Instant::now();
        let ranking = analyzer.rank_topk(q, k).map_err(|e| e.to_string())?;
        let reference_ms = ms(t.elapsed());
        counts.add_counter_delta(&before, &CounterSnapshot::take());
        counts.answers = ranking.answers as f64;
        counts.distinct_structures = ranking.dedup.distinct as f64;
        counts.lineage_literals = ranking.stream.total_literals as f64;
        counts.peak_in_flight_literals = ranking.stream.peak_in_flight_literals as f64;
        counts.cache_hits = ranking.cache.hits as f64;
        counts.cache_misses = ranking.cache.misses as f64;
        counts.cache_evictions = analyzer.cache_stats().map_or(0, |s| s.evictions) as f64;
        run.outcome.op(check_designed_top(&ranking, k));

        let mark = tr.mark();
        let traced = tr.span("pass", || topk_decomposed(&tr, db, q, k, &mut counts))?;
        let profile = tr.pass_profile(mark);
        run.outcome.op(if same_ranking(&ranking, &traced) {
            Ok(())
        } else {
            Err("decomposed top-k differs from rank_topk".into())
        });
        if !full_checked {
            full_checked = true;
            let full = full_ranking_prefix(ctx, db, q, k)?;
            run.outcome.op(if same_ranking(&ranking, &full) {
                Ok(())
            } else {
                Err("rank_topk prefix differs from the full ranking".into())
            });
        }
        passes.push((profile, reference_ms, counts));
        if start.elapsed() >= ctx.seconds {
            break;
        }
    }
    run.fact("traced_passes", passes.len());
    let (profile, reference_ms, counts) = median_pass(passes);
    layers::emit(&mut run.metrics, &profile, &counts, reference_ms);
    run.spans = Some(tr.to_json());
    Ok(())
}
