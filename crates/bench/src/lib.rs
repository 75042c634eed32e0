//! # shapdb-bench — experiment harness
//!
//! Shared machinery behind the `repro` binary (which regenerates every table
//! and figure of the paper's §6) and the Criterion micro-benchmarks:
//!
//! * [`runner`] — runs a workload end-to-end: evaluate each query with
//!   provenance, then push every output tuple through the exact pipeline
//!   (Tseytin → compile → project → Algorithm 1) under a per-tuple timeout,
//!   in parallel across output tuples, recording per-stage timings, sizes
//!   and failure modes;
//! * [`experiments`] — the per-table/per-figure drivers that aggregate
//!   [`runner`] records into the paper's rows and series (Table 1, Table 2,
//!   Figures 4–8) as plain-text tables;
//! * [`corpus`] — the shared 521-lineage replay corpus every criterion
//!   bench measures, built in exactly one place;
//! * [`median_ns`] / [`write_result`] — the timing and summary-file helpers
//!   the criterion benches that record a `results/bench_*.json` share.

pub mod corpus;
pub mod experiments;
pub mod runner;

use std::time::Instant;

/// Median of one measured closure over `n` samples, in nanoseconds.
pub fn median_ns(n: usize, mut f: impl FnMut()) -> u128 {
    let mut samples: Vec<u128> = (0..n)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Writes a bench's JSON summary to `results/<file>` at the workspace root
/// (creating the directory), then prints `<summary> -> <path>` and the
/// JSON.
pub fn write_result(file: &str, summary: &str, json: &str) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    std::fs::create_dir_all(dir).expect("create results/");
    let path = format!("{dir}/{file}");
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write results/{file}: {e}"));
    println!("{summary} -> {path}");
    print!("{json}");
}
