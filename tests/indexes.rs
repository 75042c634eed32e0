//! The hash indexes a `Database` keeps across facade calls.
//!
//! The first `explain_batch` or `rank_topk` over a database builds the
//! indexes its plans use; later calls over the same database build none,
//! on the inline (one thread) and the channeled (two threads) top-k path
//! alike; an insert into one relation makes the next call rebuild that
//! relation's indexes and no other. Builds land in the profile active
//! where the call was made (`query.indexes_built`), including those of the
//! channeled path's producer thread.

use shapdb::ShapleyAnalyzer;
use shapdb_data::{Database, Value};
use shapdb_metrics::counters::QUERY_INDEXES_BUILT;
use shapdb_metrics::Profile;
use shapdb_workloads::{job_database, job_ranking_query, JobConfig};
use std::sync::Arc;

#[derive(Clone, Copy, Debug)]
enum Call {
    Batch,
    TopK,
}

/// Index builds counted in the caller's profile around one facade call.
fn builds(db: &Database, call: Call, threads: usize) -> u64 {
    let profile = Arc::new(Profile::new());
    let _scope = profile.enter();
    let analyzer = ShapleyAnalyzer::new(db).with_threads(threads);
    let q = job_ranking_query();
    match call {
        Call::Batch => assert!(!analyzer.explain_batch(&q).unwrap().explanations.is_empty()),
        Call::TopK => assert_eq!(analyzer.rank_topk(&q, 3).unwrap().top.len(), 3),
    }
    profile.get(&QUERY_INDEXES_BUILT)
}

fn built(db: &Database) -> usize {
    (0..db.relations().len())
        .map(|rel| db.indexed_columns(rel).len())
        .sum()
}

#[test]
fn later_calls_reuse_the_indexes_and_an_insert_rebuilds_only_its_relation() {
    let base = job_database(&JobConfig::smoke());
    let cast_info = base.relation_id("cast_info").unwrap();
    for (call, threads) in [
        (Call::Batch, 1),
        (Call::Batch, 2),
        (Call::TopK, 1),
        (Call::TopK, 2),
    ] {
        let tag = format!("{call:?} on {threads} thread(s)");
        let mut db = base.clone();
        let cold = builds(&db, call, threads);
        assert!(cold > 0, "{tag}: the first call builds");
        assert_eq!(cold, built(&db) as u64, "{tag}: once per index");
        assert_eq!(builds(&db, call, threads), 0, "{tag}: a second call");

        let on_cast_info = db.indexed_columns(cast_info);
        assert!(!on_cast_info.is_empty() && on_cast_info.len() < built(&db));
        db.insert_endo("cast_info", vec![Value::int(1), Value::int(1)]);
        assert!(db.indexed_columns(cast_info).is_empty());
        assert_eq!(
            builds(&db, call, threads),
            on_cast_info.len() as u64,
            "{tag}: after an insert into cast_info"
        );
        assert_eq!(db.indexed_columns(cast_info), on_cast_info);
        assert_eq!(builds(&db, call, threads), 0, "{tag}: warm again");
    }
}

#[test]
fn num_endogenous_counts_inserts() {
    let mut db = job_database(&JobConfig::smoke());
    let scanned = db.endogenous_facts().len();
    assert_eq!(db.num_endogenous(), scanned);
    db.insert_endo("cast_info", vec![Value::int(1), Value::int(1)]);
    db.insert_exo("cast_info", vec![Value::int(1), Value::int(2)]);
    assert_eq!(db.num_endogenous(), scanned + 1);
    assert_eq!(db.clone().num_endogenous(), scanned + 1);
}
