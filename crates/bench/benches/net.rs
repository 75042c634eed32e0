//! Network-serving benchmark: the 521-lineage TPC-H-lite + IMDB-lite
//! answer corpus replayed through `serve --listen` over a Unix-domain
//! socket — the full connect → socket write → reader thread → bounded
//! queue → worker → writer thread → socket read loop, with the result
//! cache backed by the `--persist` append-only log.
//!
//! Series (single worker, one connection, matching the `serve` bench):
//!
//! * `net_cold` — fresh server process-equivalent (fresh service, fresh
//!   persist log) answering all 521 requests;
//! * `net_warm` — the same server answering the same 521 requests again:
//!   every answer is a cache hit, zero engine runs (asserted live);
//! * `net_restart` — a **new** server bound to the already-written persist
//!   log answering the 521 requests in reverse order: warm from disk, zero
//!   engine runs — the restart-durability number the ROADMAP's serving bar
//!   watches.
//!
//! Results land in `results/bench_net.json` (`make bench-net`, uploaded
//! as a CI artifact).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use shapdb_bench::corpus::replay_over_socket;
use shapdb_bench::{median_ns, write_result};
use shapdb_cli::{ServeOptions, SocketServer};
use std::path::{Path, PathBuf};

fn socket_path() -> PathBuf {
    std::env::temp_dir().join(format!("shapdb-bench-net-{}.sock", std::process::id()))
}

fn persist_path() -> PathBuf {
    std::env::temp_dir().join(format!("shapdb-bench-net-{}.shapdbc", std::process::id()))
}

fn net_opts(sock: &Path, persist: &Path) -> ServeOptions {
    ServeOptions {
        listen: Some(format!("unix:{}", sock.display())),
        persist: Some(persist.to_path_buf()),
        workers: 1,
        ..Default::default()
    }
}

fn bench_net(c: &mut Criterion) {
    let (lineages, n_endo) = shapdb_bench::corpus::replay_lineages();
    let session = shapdb_bench::corpus::jsonl_session(&lineages, n_endo);
    let sock = socket_path();
    let persist = persist_path();

    let cold_run = || {
        let _ = std::fs::remove_file(&persist);
        let server = SocketServer::bind(&net_opts(&sock, &persist)).expect("bind");
        let responses = replay_over_socket(&sock, &session);
        assert_eq!(responses as usize, lineages.len());
        server.shutdown();
    };

    let mut group = c.benchmark_group("net");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::from_parameter("net_cold"), &(), |b, _| {
        b.iter(cold_run)
    });

    // Warm: prime one resident server, then measure replays against it.
    let _ = std::fs::remove_file(&persist);
    let warm_server = SocketServer::bind(&net_opts(&sock, &persist)).expect("bind warm");
    replay_over_socket(&sock, &session);
    let primed_engine_runs = warm_server.stats().profile.engine_runs();
    assert!(primed_engine_runs > 0, "priming replay ran no engines");
    group.bench_with_input(BenchmarkId::from_parameter("net_warm"), &(), |b, _| {
        b.iter(|| replay_over_socket(&sock, &session))
    });
    assert_eq!(
        warm_server.stats().profile.engine_runs(),
        primed_engine_runs,
        "warm replays recomputed instead of hitting the cache"
    );
    warm_server.shutdown();
    group.finish();

    // Machine-readable summary (median of 10, like the other benches).
    const SAMPLES: usize = 10;
    let net_cold_ns = median_ns(SAMPLES, cold_run);

    // Re-prime after the cold series wiped the log, then measure warm.
    let _ = std::fs::remove_file(&persist);
    let warm_server = SocketServer::bind(&net_opts(&sock, &persist)).expect("bind warm");
    replay_over_socket(&sock, &session);
    let primed_engine_runs = warm_server.stats().profile.engine_runs();
    let net_warm_ns = median_ns(SAMPLES, || {
        replay_over_socket(&sock, &session);
    });
    assert_eq!(
        warm_server.stats().profile.engine_runs(),
        primed_engine_runs
    );
    warm_server.shutdown();

    // Restart: fresh servers against the log the warm server wrote,
    // replaying the corpus in reverse order — fingerprint keys depend only
    // on a lineage's structure, so the order must not cost a cache hit.
    let reversed: Vec<_> = lineages.iter().rev().cloned().collect();
    let reversed_session = shapdb_bench::corpus::jsonl_session(&reversed, n_endo);
    let mut restart_engine_runs = 0usize;
    let net_restart_ns = median_ns(SAMPLES, || {
        let server = SocketServer::bind(&net_opts(&sock, &persist)).expect("bind restart");
        let responses = replay_over_socket(&sock, &reversed_session);
        assert_eq!(responses as usize, lineages.len());
        restart_engine_runs += server.shutdown().profile.engine_runs();
    });
    assert_eq!(
        restart_engine_runs, 0,
        "restarted servers recomputed instead of replaying the persistent cache"
    );
    let _ = std::fs::remove_file(&persist);

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"net\",\n",
            "  \"samples\": {},\n",
            "  \"workload\": {{\n",
            "    \"lineages\": {},\n",
            "    \"n_endo\": {},\n",
            "    \"workers\": 1,\n",
            "    \"transport\": \"unix-socket\"\n",
            "  }},\n",
            "  \"median_ms\": {{\n",
            "    \"net_cold\": {:.3},\n",
            "    \"net_warm\": {:.3},\n",
            "    \"net_restart\": {:.3}\n",
            "  }},\n",
            "  \"restart_engine_runs\": {}\n",
            "}}\n"
        ),
        SAMPLES,
        lineages.len(),
        n_endo,
        net_cold_ns as f64 / 1e6,
        net_warm_ns as f64 / 1e6,
        net_restart_ns as f64 / 1e6,
        restart_engine_runs,
    );
    let summary = format!(
        "net summary ({} lineages over a unix socket; restart engine runs = {})",
        lineages.len(),
        restart_engine_runs
    );
    write_result("bench_net.json", &summary, &json);
}

criterion_group!(benches, bench_net);
criterion_main!(benches);
