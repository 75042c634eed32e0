//! # shapdb-workloads — the paper's benchmark workloads, synthesized
//!
//! §6 of the paper evaluates on TPC-H (1.4 GB) and IMDB (1.2 GB) with 40
//! queries adapted from the TPC-H specification and the Join Order Benchmark
//! (JOB): nested queries and aggregates removed (TPC-H), and a final
//! projection added over a join attribute (IMDB) to make provenance
//! non-trivial. Neither raw dataset ships with this repository — TPC-H's
//! dbgen is external tooling and IMDB's dataset is proprietary — so this
//! crate provides *seeded synthetic generators* with the same schemas,
//! foreign-key structure, and skew:
//!
//! * [`tpch`] — the eight TPC-H-derived queries of Table 1 (Q3, Q5, Q7, Q10,
//!   Q11, Q16, Q18, Q19) over a scaled TPC-H schema; transaction tables
//!   (`lineitem`, `orders`, `partsupp`) are endogenous, dimensions exogenous;
//! * [`imdb`] — nine JOB-flavored queries (1a, 6b, 7c, 8d, 11a, 11d, 13c,
//!   15d, 16a analogs) over a JOB-style movie schema with Zipf-skewed
//!   foreign keys, so output lineages span the paper's 1–400 facts range;
//! * [`flights`] — the running example (Figure 1) packaged as a workload.
//!
//! The generators are deterministic per seed, so every experiment in the
//! bench harness is reproducible. The substitution (real data → synthetic)
//! preserves what the experiments actually measure: lineage width/shape
//! drives knowledge-compilation difficulty, and both are controlled here by
//! the same knobs (fan-out, skew, selectivity).

pub mod flights;
pub mod imdb;
pub mod job;
pub mod tpch;

pub use flights::flights_workload;
pub use imdb::{imdb_database, imdb_queries, ImdbConfig};
pub use job::{job_database, job_ranking_query, JobConfig};
pub use tpch::{tpch_database, tpch_queries, TpchConfig};

use rand::prelude::*;
use shapdb_query::Ucq;

/// Zipf(1) sampler over `0..n` via inverse-CDF on precomputed cumulative
/// weights — popular ids are low ids. Shared by the skewed generators.
pub(crate) struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub(crate) fn new(n: usize) -> Zipf {
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / (i + 1) as f64;
            cumulative.push(acc);
        }
        Zipf { cumulative }
    }

    pub(crate) fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty Zipf domain");
        let x = rng.random_range(0.0..total);
        self.cumulative
            .partition_point(|&c| c < x)
            .min(self.cumulative.len() - 1)
    }
}

/// A named benchmark query.
#[derive(Clone, Debug)]
pub struct WorkloadQuery {
    /// Paper-style identifier (e.g. `"Q3"` or `"8d"`).
    pub name: String,
    /// The query.
    pub ucq: Ucq,
}

impl WorkloadQuery {
    pub(crate) fn new(name: &str, ucq: Ucq) -> WorkloadQuery {
        WorkloadQuery {
            name: name.to_string(),
            ucq,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shapdb_data::Database;
    use shapdb_query::{evaluate, parse_ucq};

    /// Each answer's tuple and its lineage's conjuncts, sorted.
    fn answers(q: &Ucq, db: &Database) -> Vec<(Vec<shapdb_data::Value>, Vec<Vec<u32>>)> {
        evaluate(q, db)
            .outputs
            .into_iter()
            .map(|out| {
                let mut conjuncts: Vec<Vec<u32>> = out
                    .lineage
                    .conjuncts()
                    .iter()
                    .map(|c| c.iter().map(|v| v.0).collect())
                    .collect();
                conjuncts.sort();
                (out.tuple, conjuncts)
            })
            .collect()
    }

    #[test]
    fn every_workload_query_round_trips_through_display() {
        let tpch = tpch_database(&TpchConfig {
            scale: 0.1,
            seed: 42,
        });
        let imdb = imdb_database(&ImdbConfig {
            movies: 120,
            companies: 20,
            people: 80,
            keywords: 20,
            seed: 42,
        });
        let job = job_database(&JobConfig::smoke());
        let sets = [
            (&tpch, tpch_queries()),
            (&imdb, imdb_queries()),
            (&job, vec![WorkloadQuery::new("job", job_ranking_query())]),
        ];
        assert_eq!(sets[0].1.len() + sets[1].1.len(), 23);
        for (db, queries) in sets {
            for q in queries {
                let shown = q.ucq.to_string();
                let parsed =
                    parse_ucq(&shown).unwrap_or_else(|e| panic!("{}: {e}: {shown}", q.name));
                assert_eq!(parsed.to_string(), shown, "{}", q.name);
                assert_eq!(answers(&parsed, db), answers(&q.ucq, db), "{}", q.name);
            }
        }
    }
}
