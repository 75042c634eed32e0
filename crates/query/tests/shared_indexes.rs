//! The hash indexes a `Database` keeps, shared by concurrent evaluations.
//!
//! Threads that evaluate over one cold database at once must get the
//! answers a lone evaluation gets, and build each (relation, columns)
//! index exactly once between them. A clone starts with no indexes and
//! evaluates identically.

use shapdb_circuit::Dnf;
use shapdb_data::{Database, Value};
use shapdb_metrics::counters::QUERY_INDEXES_BUILT;
use shapdb_metrics::Profile;
use shapdb_query::{evaluate_with, LineageKind, LineageStream, OutputTuple, Ucq};
use shapdb_workloads::{job_database, job_ranking_query, tpch_database, tpch_queries, JobConfig};
use std::sync::{Arc, Barrier};

/// Every built index of `db`, as (relation, columns).
fn built(db: &Database) -> Vec<(usize, u64)> {
    (0..db.relations().len())
        .flat_map(|rel| db.indexed_columns(rel).into_iter().map(move |c| (rel, c)))
        .collect()
}

/// Tuples and lineages, for comparing runs.
type Answers = Vec<(Vec<Value>, Dnf)>;

fn view(outputs: Vec<OutputTuple>) -> Answers {
    outputs.into_iter().map(|o| (o.tuple, o.lineage)).collect()
}

/// `threads` scoped threads, released by one barrier, extract `q` over
/// `db` at once, alternating the materialized and the streamed endogenous
/// path; returns each thread's answers and the index builds they counted.
fn concurrently(q: &Ucq, db: &Database, threads: usize) -> (Vec<Answers>, u64) {
    let profile = Arc::new(Profile::new());
    let start = Barrier::new(threads);
    let kind = LineageKind::Endogenous;
    let outputs = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let (profile, start) = (&profile, &start);
                s.spawn(move || {
                    let _scope = profile.enter();
                    start.wait();
                    view(match t % 2 {
                        0 => evaluate_with(q, db, kind).outputs,
                        _ => LineageStream::with_kind(q, db, kind).collect(),
                    })
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    (outputs, profile.get(&QUERY_INDEXES_BUILT))
}

#[test]
fn concurrent_evaluations_share_one_build_of_each_index() {
    let job = job_database(&JobConfig::smoke());
    let tpch = tpch_database(&Default::default());
    let cases: Vec<(Ucq, &Database)> = std::iter::once((job_ranking_query(), &job))
        .chain(
            tpch_queries()
                .into_iter()
                .map(|q| (q.ucq, &tpch))
                .filter(|(q, db)| {
                    !evaluate_with(q, &Database::clone(db), LineageKind::Full).is_empty()
                })
                .take(3),
        )
        .collect();
    for &(ref q, db) in &cases {
        let alone = view(evaluate_with(q, &db.clone(), LineageKind::Endogenous).outputs);
        assert!(!alone.is_empty());
        for threads in [2, 4] {
            let cold = db.clone();
            let (outputs, builds) = concurrently(q, &cold, threads);
            assert!(
                outputs.iter().all(|o| *o == alone),
                "{threads} threads: {q}"
            );
            let indexes = built(&cold);
            assert!(!indexes.is_empty());
            assert_eq!(
                builds,
                indexes.len() as u64,
                "{threads} threads build each of {indexes:?} once: {q}"
            );
            // Warm: the same threads build nothing more.
            let (outputs, builds) = concurrently(q, &cold, threads);
            assert!(outputs.iter().all(|o| *o == alone));
            assert_eq!(builds, 0);
        }
    }
}

#[test]
fn a_clone_starts_with_no_indexes_and_evaluates_identically() {
    let db = job_database(&JobConfig::smoke());
    let q = job_ranking_query();
    let original = view(evaluate_with(&q, &db, LineageKind::Full).outputs);
    assert!(db.index_bytes() > 0);
    let copy = db.clone();
    assert_eq!(copy.index_bytes(), 0);
    assert!(built(&copy).is_empty());
    assert_eq!(
        view(evaluate_with(&q, &copy, LineageKind::Full).outputs),
        original
    );
    assert_eq!(built(&copy), built(&db));
}
