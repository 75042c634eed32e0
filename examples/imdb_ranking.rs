//! IMDB scenario: rank facts under a time budget (the hybrid engine, §6.3).
//!
//! Runs a JOB-style query whose projection groups hundreds of facts per
//! output tuple. With a generous timeout the exact pipeline finishes and we
//! get exact Shapley values; with a tiny timeout the engine falls back to
//! CNF Proxy and still returns a useful *ranking* in milliseconds — the
//! trade-off Figure 8 of the paper quantifies.
//!
//! ```sh
//! cargo run --release --example imdb_ranking
//! ```

use shapdb::workloads::{imdb_database, imdb_queries, ImdbConfig};
use shapdb::ShapleyAnalyzer;
use std::time::Duration;

fn main() {
    let db = imdb_database(&ImdbConfig {
        movies: 600,
        ..Default::default()
    });
    println!(
        "IMDB-lite: {} facts, {} endogenous",
        db.num_facts(),
        db.num_endogenous()
    );

    let q = imdb_queries().into_iter().find(|q| q.name == "1a").unwrap();
    println!("Query 1a: {}", q.ucq);

    let analyzer = ShapleyAnalyzer::new(&db);

    for (label, timeout) in [
        ("generous (2.5 s)", Duration::from_millis(2500)),
        ("tiny (0 ms)", Duration::ZERO),
    ] {
        println!("\n=== hybrid with {label} timeout ===");
        let report = analyzer.rank(&q.ucq, timeout);
        let rankings = report.rankings;
        let exact = rankings.iter().filter(|r| r.outcome.is_exact()).count();
        println!(
            "{} output tuples: {} exact, {} proxy-ranked",
            rankings.len(),
            exact,
            rankings.len() - exact
        );
        println!(
            "dedup: {} of {} answers reused an isomorphic structure; \
             {} engine run(s), cache {} hit(s) / {} miss(es)",
            report.dedup.hits(),
            report.dedup.tasks,
            report.engine_runs,
            report.cache.hits,
            report.cache.misses
        );
        if let Some(r) = rankings.first() {
            let tuple: Vec<String> = r.tuple.iter().map(|v| v.to_string()).collect();
            println!(
                "first tuple ({}) — top 3 facts ({}):",
                tuple.join(", "),
                if r.outcome.is_exact() {
                    "exact Shapley"
                } else {
                    "CNF-Proxy ranking"
                }
            );
            for fact in r.outcome.ranking().into_iter().take(3) {
                println!("  {}", db.display_fact(shapdb::data::FactId(fact.0)));
            }
        }
    }
}
