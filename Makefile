# Convenience targets mirroring .github/workflows/ci.yml for offline use.

.PHONY: check fmt build test test-repeat test-release-wide clippy doc quickstart examples repro-quick bench-build bench-smoke bench-batch bench-cache bench-exact bench-alg1 bench-kc bench-serve bench-net bench-measures bench-rank bench-stream bench-e2e bench

check: fmt build test test-repeat test-release-wide clippy doc examples repro-quick bench-build bench-e2e

fmt:
	cargo fmt --check

build:
	cargo build --release

test:
	cargo test -q

# The crates whose tests assert exact engine-counter counts and route
# timings, or share one database's hash indexes between threads, three
# runs in a row: each test reads its own run's or service's profile, so a
# test that goes back to racing process-global state (or races the index
# cache) fails here instead of flaking.
test-repeat:
	@for i in 1 2 3; do \
		cargo test -q -p shapdb_metrics -p shapdb_core -p shapdb_num -p shapdb_data -p shapdb_query -p shapdb -p shapdb_cli || exit 1; \
	done

# The KC engine's negation route against the paper's Tseytin path, with
# the 260- and 516-fact cases that are too slow for an unoptimized build,
# the Equation (3) fold against its BigUint oracle past 516 facts, and the
# top-k bound kernel and stream filter against their set-algebra
# definition on every answer of the 4,000-movie JOB database.
test-release-wide:
	cargo test --release -q --test negation_route -- --include-ignored
	cargo test --release -q -p shapdb_core --lib -- --ignored
	cargo test --release -q --test job_bounds -- --ignored

clippy:
	cargo clippy --workspace --all-targets -- -D warnings

doc:
	RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

quickstart:
	cargo run --release --example quickstart

# Every examples/*.rs in release mode, failing on the first that fails
# (quickstart included; readonce_fastpath drives the read-once DP).
examples:
	@for e in examples/*.rs; do \
		name=$$(basename $$e .rs); \
		echo "== example $$name"; \
		cargo run --release --quiet --example $$name || exit 1; \
	done

# The README's quick-start: every §6 table and figure at the --quick sizes
# (well under a second once the release binary is built).
repro-quick:
	cargo run --release -p shapdb_bench --bin repro -- --quick all

# Builds the end-to-end benchmark (`benchmark/`, a workspace of its own)
# the way benchmark/run.py does, so a public item it needs cannot be
# removed unnoticed by `cargo build`/`clippy` on the main workspace.
bench-build:
	CARGO_TARGET_DIR=.bench_build cargo build --release --offline --manifest-path benchmark/Cargo.toml

# The fastest criterion bench; its numbers are the perf trajectory recorded
# in CHANGES.md.
bench-smoke:
	cargo bench --bench alg1 -p shapdb_bench

# Batch executor on the 521-lineage workload: the deduplicating batch vs a
# cache-less sequential `Planner::solve` loop over the same lineages, and
# 1 vs N worker threads.
bench-batch:
	cargo bench --bench batch -p shapdb_bench

# Cross-query result cache: cold vs warm replay of the 521-lineage workload.
bench-cache:
	cargo bench --bench cache -p shapdb_bench

# Cold exact path (cache off), with the compiler-only, Alg1-only and
# read-once-only phases split out (read-once is the route the planner gives
# every structure of this corpus); writes a machine-readable summary to
# results/bench_exact.json.
bench-exact:
	cargo bench --bench exact_cold -p shapdb_bench

# Algorithm 1 scaling sweep on synthetic 64–4096-variable circuits with a
# closed-form exact answer: checks correctness at every size, asserts the
# fixed-limb tiers and the NTT convolution path actually engage, and writes
# the timing series to results/bench_alg1.json.
bench-alg1:
	cargo bench --bench alg1_sweep -p shapdb_bench

# Wide non-read-once compilation: cold vs cache-warm compiles of the
# Tseytin circuit and the negation CNF on 24–513-variable
# disjoint-majority-block structures, asserted bit-identical on model
# counts before timing; writes results/bench_kc.json (warns if the warm
# pass is under the 2x bar).
bench-kc:
	cargo bench --bench kc_wide -p shapdb_bench

# Resident service: the 521-lineage workload replayed through the
# `serve --jsonl` protocol (cold + warm) vs the direct batch path; records
# the warm-serve / warm-batch ratio in results/bench_serve.json (warns past
# the 2x acceptance bar).
bench-serve:
	cargo bench --bench serve -p shapdb_bench

# Socket front-end: the 521-lineage workload replayed over a Unix socket
# through `serve --listen` with a `--persist` result log — cold, warm
# (live cache), and warm-after-restart (cache replayed from disk; asserts
# zero engine runs); writes results/bench_net.json.
bench-net:
	cargo bench --bench net -p shapdb_bench

# Multi-measure sweep: the 521-lineage workload under all four measures at
# once (Shapley, Banzhaf, responsibility, SHAP-score) sharing one compiled
# structure per lineage — asserts one factor pass per lineage and a warm
# all-measures pass < 2x a warm Shapley-only pass; writes
# results/bench_measures.json.
bench-measures:
	cargo bench --bench measures -p shapdb_bench

# JOB-scale top-k ranking: streamed endogenous lineage extraction on the
# caller's thread, then the top-k executor on the raw lineages — the stream
# filter plus bound-driven early termination at k ∈ {1, 10, 100} vs the
# solve-everything baseline (k = answers, nothing dropped) on the
# 12k-answer JOB corpus — and QueryDriver::topk at k = 10 on one worker
# (inline) and two (producer thread + channel). Asserts ≥ 10⁴ answers,
# ≤ 25% of answers solved at k = 10, bit-identical prefixes, one answer
# built per inline pull and the channel's (STREAM_CHUNK + 1)-answer peak;
# warns below the 3x wall-clock bar. Writes results/bench_rank.json (with
# each k's survivor count and both driver timings).
bench-rank:
	cargo bench --bench rank_topk -p shapdb_bench

# Streamed lineage extraction (answer pass + per-answer passes) over the
# JOB generator at 4k, 8k and 12k movies, full and endogenous lineages,
# each on warm indexes and on a fresh clone per sample (cold); warns when
# a series grows more than 1.3x faster than linear. Writes
# results/bench_stream.json with the resident index bytes.
bench-stream:
	cargo bench --bench scalability -p shapdb_bench -- stream_scale

# End-to-end benchmark selftest: builds benchmark/ and the `shapdb` binary,
# then runs every BENCHMARK.json workload at smoke scale with and without
# tracing; fails when a run or an output check fails (among them decomposed
# top-k = rank_topk = the full ranking's prefix) or a metric is missing.
bench-e2e:
	python3 benchmark/run.py --selftest

bench:
	cargo bench -p shapdb_bench
