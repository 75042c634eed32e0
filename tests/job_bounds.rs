//! The top-k bound kernel on the JOB smoke corpus.
//!
//! Every answer of `JobConfig::smoke()` is fingerprinted. For each distinct
//! structure, [`shapley_bounds`] must equal the set-algebra definition
//! (`reference_bounds`) bit for bit and bracket the structure's exact best
//! Shapley value; bound-driven `rank_topk` must still return the full
//! ranking's prefix. The top-k executor, fed the raw streamed lineages,
//! must fingerprint only the answers its stream filter keeps. At release
//! scale (`#[ignore]`d, run by `make test-release-wide`), every answer of
//! the 4,000-movie database is checked the same way, and the executor's
//! stream-filter survivors are those the reference bounds select.

use shapdb::ShapleyAnalyzer;
use shapdb_circuit::Dnf;
use shapdb_circuit::{fingerprint, FingerprintKey};
use shapdb_core::engine::{shapley_bounds, Planner, PlannerConfig, ScoreBounds, TopKExecutor};
use shapdb_kc::Budget;
use shapdb_metrics::counters::{CIRCUIT_FACTOR_PASSES, CIRCUIT_MINIMIZE_PASSES, TOPK_BOUND_PASSES};
use shapdb_metrics::Profile;
use shapdb_num::Rational;
use shapdb_query::{evaluate, with_inline_lineages, with_streamed_lineages, LineageKind};
use shapdb_workloads::{job_database, job_ranking_query, JobConfig};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

#[path = "../crates/core/src/engine/topk/reference.rs"]
mod reference;

#[test]
fn job_smoke_bounds_match_the_reference_and_keep_the_topk_prefix() {
    let db = job_database(&JobConfig::smoke());
    let q = job_ranking_query();
    let analyzer = ShapleyAnalyzer::new(&db).with_threads(1);

    // Solve-everything baseline: each answer scored by its best fact.
    let batch = analyzer.explain_batch(&q).unwrap();
    let scores: Vec<Rational> = batch
        .explanations
        .iter()
        .map(|e| {
            e.attributions
                .first()
                .map(|(_, v)| v.clone())
                .unwrap_or_else(Rational::zero)
        })
        .collect();

    // Distinct structures, each with the exact best score of its answers
    // (isomorphic answers share it).
    let answers = evaluate(&q, &db);
    assert_eq!(answers.outputs.len(), scores.len());
    let mut structures: HashMap<FingerprintKey, Rational> = HashMap::new();
    for (i, out) in answers.outputs.iter().enumerate() {
        assert_eq!(out.tuple, batch.explanations[i].tuple, "answer order");
        let fp = fingerprint(&out.endo_lineage(&db));
        let best = structures
            .entry(fp.key().clone())
            .or_insert_with(|| scores[i].clone());
        assert_eq!(*best, scores[i], "isomorphic answers score alike");
    }
    assert!(structures.len() > 10, "the corpus has many structures");
    for (key, best) in &structures {
        let b: ScoreBounds = shapley_bounds(key);
        assert_eq!(b, reference::reference_bounds(key), "key {key:?}");
        assert!(b.lower <= *best && *best <= b.upper, "key {key:?}");
    }

    let mut baseline: Vec<(usize, Rational)> = scores.into_iter().enumerate().collect();
    baseline.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let n = baseline.len();
    for k in [1, 3, n] {
        let ranking = analyzer.rank_topk(&q, k).unwrap();
        let got: Vec<(usize, Rational)> = ranking
            .top
            .iter()
            .map(|r| (r.index, r.score.clone()))
            .collect();
        assert_eq!(got, baseline[..k].to_vec(), "k={k}");
    }
}

#[test]
fn job_smoke_topk_fingerprints_only_the_solo_slice() {
    // The solo slice comes first in answer order and pins τ at 1/2 (both
    // of its bounds); every other answer's upper bound is below 1/2, so
    // only the solo answers are fingerprinted — one factor pass each.
    let cfg = JobConfig::smoke();
    let db = job_database(&cfg);
    let q = job_ranking_query();
    let executor = TopKExecutor::new(Planner::for_query(PlannerConfig::default(), &q));
    let (report, stream) = with_streamed_lineages(&q, &db, 256, |answers| {
        executor.run(
            answers.map(|out| out.endo_lineage(&db)),
            3,
            db.num_endogenous(),
            &Budget::unlimited(),
        )
    });
    let report = report.unwrap();
    assert!(cfg.solo_movies() >= 3);
    assert_eq!(report.answers, stream.answers);
    assert!(report.answers > cfg.solo_movies());
    assert_eq!(
        report.profile.get(&CIRCUIT_FACTOR_PASSES),
        cfg.solo_movies() as u64,
        "one fingerprint per survivor, not per answer"
    );
    assert_eq!(report.dedup.tasks, cfg.solo_movies());
    assert_eq!(
        report.profile.get(&TOPK_BOUND_PASSES),
        report.answers as u64
    );
    let half = Rational::from_ratio(1, 2);
    let got: Vec<(usize, Rational)> = report
        .top
        .iter()
        .map(|i| (i.index, i.score.clone()))
        .collect();
    assert_eq!(got, vec![(0, half.clone()), (1, half.clone()), (2, half)]);
}

#[test]
fn each_answer_lineage_is_minimized_once_on_explain_batch_and_rank_topk() {
    // The query layer minimizes each answer's endogenous lineage once, as
    // it builds it; neither executor minimizes again (nor does
    // `fingerprint` inside the batch).
    let db = job_database(&JobConfig::smoke());
    let q = job_ranking_query();
    let analyzer = ShapleyAnalyzer::new(&db).with_threads(1);

    // Around `explain_batch` (one thread, so the executor runs here): the
    // evaluation minimizes each answer's endogenous lineage once; the
    // batch's own profile, which replaces the outer one while it runs,
    // counts no pass.
    let outer = Arc::new(Profile::new());
    let batch = {
        let _scope = outer.enter();
        analyzer.explain_batch(&q).unwrap()
    };
    let answers = batch.explanations.len() as u64;
    assert!(answers > 10);
    assert_eq!(outer.get(&CIRCUIT_MINIMIZE_PASSES), answers);
    assert_eq!(batch.profile.get(&CIRCUIT_MINIMIZE_PASSES), 0);

    // `rank_topk` on one thread pulls the stream inside the ranking, so
    // the ranking's profile sees the stream's one pass per answer and
    // nothing from the executor; the outer profile sees none.
    let outer = Arc::new(Profile::new());
    let ranking = {
        let _scope = outer.enter();
        analyzer.rank_topk(&q, 3).unwrap()
    };
    assert_eq!(ranking.answers as u64, answers);
    assert_eq!(ranking.profile.get(&CIRCUIT_MINIMIZE_PASSES), answers);
    assert_eq!(outer.get(&CIRCUIT_MINIMIZE_PASSES), 0);
}

#[test]
fn rank_topk_is_identical_on_one_and_two_threads() {
    // One thread extracts on the caller's thread, two through the
    // channel; rankings, ties and attributions must not tell them apart.
    let db = job_database(&JobConfig::smoke());
    let q = job_ranking_query();
    let rank = |threads: usize, k: usize| {
        ShapleyAnalyzer::new(&db)
            .with_threads(threads)
            .rank_topk(&q, k)
            .unwrap()
    };
    let answers = rank(1, 0).answers;
    for k in [1, 3, 10, answers] {
        let (one, two) = (rank(1, k), rank(2, k));
        let view = |r: &shapdb::TopKRanking| {
            r.top
                .iter()
                .map(|a| {
                    (
                        a.index,
                        a.tuple.clone(),
                        a.score.clone(),
                        a.attributions.clone(),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(view(&one), view(&two), "k={k}");
        assert_eq!(one.top.len(), k.min(answers));
        assert_eq!(
            (one.answers, one.solved_answers, one.pruned_answers),
            (two.answers, two.solved_answers, two.pruned_answers),
            "k={k}"
        );
        assert_eq!(one.stream.answers, answers);
        assert_eq!(
            (one.stream.total_literals, one.stream.max_answer_literals),
            (two.stream.total_literals, two.stream.max_answer_literals),
            "k={k}"
        );
        assert_eq!(
            one.stream.peak_in_flight_literals, one.stream.max_answer_literals,
            "one thread holds one answer in flight"
        );
    }
}

/// `lineage` renamed onto `0..vars` in increasing fact order: the key the
/// top-k executor bounds an answer by.
fn dense_key(lineage: &Dnf) -> Vec<Vec<u32>> {
    let vars = lineage.vars();
    lineage
        .conjuncts()
        .iter()
        .map(|c| {
            c.iter()
                .map(|v| vars.binary_search(v).unwrap() as u32)
                .collect()
        })
        .collect()
}

/// The stream filter run on the given bounds, in answer order: an answer
/// is dropped when its upper bound is strictly below the smallest of the
/// `k` largest lower bounds seen so far, and again against the final one.
fn reference_survivors(bounds: &[ScoreBounds], k: usize) -> Vec<usize> {
    let mut lowers: BinaryHeap<Reverse<Rational>> = BinaryHeap::new();
    let below = |upper: &Rational, lowers: &BinaryHeap<Reverse<Rational>>| {
        lowers.len() == k && lowers.peek().is_some_and(|tau| *upper < tau.0)
    };
    let mut kept = Vec::new();
    for (i, b) in bounds.iter().enumerate() {
        lowers.push(Reverse(b.lower.clone()));
        if lowers.len() > k {
            lowers.pop();
        }
        if !below(&b.upper, &lowers) {
            kept.push(i);
        }
    }
    kept.retain(|&i| !below(&bounds[i].upper, &lowers));
    kept
}

#[test]
#[ignore = "release scale: run by `make test-release-wide`"]
fn job_4000_bounds_match_the_reference_and_select_the_reference_survivors() {
    let default = JobConfig::default();
    for solo_per_mille in [default.solo_per_mille, 0] {
        let cfg = JobConfig {
            movies: 4_000,
            solo_per_mille,
            ..default
        };
        let db = job_database(&cfg);
        let q = job_ranking_query();
        let (lineages, _) = with_inline_lineages(&q, &db, LineageKind::Endogenous, |answers| {
            answers.map(|out| out.lineage).collect::<Vec<Dnf>>()
        });
        assert_eq!(lineages.len(), cfg.movies);
        let bounds: Vec<ScoreBounds> = lineages
            .iter()
            .map(|lineage| {
                let key = dense_key(lineage);
                let b = reference::reference_bounds(&key);
                assert_eq!(shapley_bounds(&key), b, "solo={solo_per_mille} key {key:?}");
                b
            })
            .collect();
        for k in [1, 10, 100] {
            let want = reference_survivors(&bounds, k);
            let executor = TopKExecutor::new(Planner::for_query(PlannerConfig::default(), &q));
            let report = executor
                .run(
                    lineages.iter().cloned(),
                    k,
                    db.num_endogenous(),
                    &Budget::unlimited(),
                )
                .unwrap();
            assert_eq!(report.survivors, want, "solo={solo_per_mille} k={k}");
            assert_eq!(report.dedup.tasks, want.len());
            if k <= cfg.solo_movies() {
                // The solo slice pins τ at 1/2 and is all that survives.
                assert_eq!(want.len(), cfg.solo_movies(), "k={k}");
            }
        }
    }
}
