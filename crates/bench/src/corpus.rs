//! The shared replay corpus: every answer lineage of every TPC-H-lite +
//! IMDB-lite workload query (capped per query) — 521 lineages, ~83
//! distinct structures at the reference seeds.
//!
//! The `batch`, `cache`, `exact_cold`, `serve` and `net` benches (and the
//! `profile_serve` example) all replay **this** corpus, so their numbers
//! compare directly; change it here and every series moves together.

use shapdb_circuit::Dnf;
use shapdb_query::evaluate;
use shapdb_workloads::{
    imdb_database, imdb_queries, tpch_database, tpch_queries, ImdbConfig, TpchConfig,
};

/// Answer lineages per query cap (keeps the corpus bench-sized).
pub const PER_QUERY_CAP: usize = 100;

/// Builds the corpus: `(lineages, n_endo)` with `n_endo` the larger of the
/// two databases' endogenous fact counts.
pub fn replay_lineages() -> (Vec<Dnf>, usize) {
    let tpch = tpch_database(&TpchConfig {
        scale: 0.5,
        seed: 42,
    });
    let imdb = imdb_database(&ImdbConfig {
        movies: 600,
        companies: 60,
        people: 300,
        keywords: 50,
        seed: 42,
    });
    let mut lineages = Vec::new();
    let mut n_endo = 0usize;
    for (db, queries) in [(&tpch, tpch_queries()), (&imdb, imdb_queries())] {
        n_endo = n_endo.max(db.num_endogenous());
        for q in queries {
            let res = evaluate(&q.ucq, db);
            for out in res.outputs.iter().take(PER_QUERY_CAP) {
                lineages.push(out.endo_lineage(db));
            }
        }
    }
    (lineages, n_endo)
}

/// Renders the corpus as one `serve --jsonl` session: each lineage is one
/// request line (`{"id":i,"lineage":[[...]],"n_endo":N}`).
pub fn jsonl_session(lineages: &[Dnf], n_endo: usize) -> String {
    let mut out = String::new();
    for (i, l) in lineages.iter().enumerate() {
        out.push_str(&format!("{{\"id\":{i},\"lineage\":["));
        for (ci, conj) in l.conjuncts().iter().enumerate() {
            if ci > 0 {
                out.push(',');
            }
            out.push('[');
            for (vi, v) in conj.iter().enumerate() {
                if vi > 0 {
                    out.push(',');
                }
                out.push_str(&v.0.to_string());
            }
            out.push(']');
        }
        out.push_str(&format!("],\"n_endo\":{n_endo}}}\n"));
    }
    out
}

/// One full `serve --listen` client session on the Unix socket `sock`:
/// connect, stream every request line of `session`, half-close, read
/// every response plus the final stats line. Panics on an error response;
/// returns the response count (excluding the stats line).
#[cfg(unix)]
pub fn replay_over_socket(sock: &std::path::Path, session: &str) -> u64 {
    use std::io::{BufRead, BufReader, Write};
    let stream = std::os::unix::net::UnixStream::connect(sock).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let writer = std::thread::spawn({
        let mut stream = stream;
        let session = session.to_string();
        move || {
            stream.write_all(session.as_bytes()).expect("send session");
            stream
                .shutdown(std::net::Shutdown::Write)
                .expect("half-close");
        }
    });
    let mut responses = 0u64;
    let mut saw_stats = false;
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line).expect("read response") == 0 {
            break;
        }
        if line.starts_with("{\"stats\":") {
            saw_stats = true;
        } else {
            assert!(
                !line.contains("\"ok\":false"),
                "workload request failed: {line}"
            );
            responses += 1;
        }
    }
    writer.join().expect("writer thread");
    assert!(saw_stats, "session ended without a stats line");
    responses
}
