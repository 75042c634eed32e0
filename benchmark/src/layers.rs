//! The per-layer metrics of a traced run. Every workload reports the full
//! set; a layer the workload bypasses reads 0.

use crate::stats::Metrics;
use crate::trace::PassProfile;
use shapdb_metrics::counters::CounterSnapshot;

/// Span names of the traced decomposition, each reported as `<name>_ms`
/// (self time of one traced pass).
pub const SPAN_LAYERS: [&str; 13] = [
    "query.evaluate",
    "query.endo_lineage",
    "query.stream",
    "circuit.fingerprint",
    "core.group",
    "core.cache",
    "core.bounds",
    "core.plan",
    "core.solve.readonce",
    "core.solve.naive",
    "kc.compile",
    "core.alg1",
    "core.translate",
];

/// Planner routes, bucketed as the per-layer metrics name them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Routes {
    pub readonce: u64,
    pub kc_bottomup: u64,
    pub kc_topdown: u64,
    pub naive: u64,
}

/// Layer counts read from outside the program.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    pub lineage_literals: f64,
    pub peak_in_flight_literals: f64,
    pub answers: f64,
    pub distinct_structures: f64,
    pub topk_solved_structures: f64,
    pub routes: Routes,
    pub ddnnf_nodes: f64,
    pub comp_cache_hits: f64,
    pub comp_cache_misses: f64,
    pub vli_passes: f64,
    pub bignum_fallbacks: f64,
    pub ntt_convolutions: f64,
    pub cache_hits: f64,
    pub cache_misses: f64,
    pub cache_evictions: f64,
    pub queue_wait_ms: f64,
    pub service_completed: f64,
    pub service_rejected: f64,
    pub persist_bytes: f64,
    pub persist_entries: f64,
    pub request_bytes: f64,
    pub response_bytes: f64,
    pub transport_ms: f64,
    pub loadgen_max_lag_ms: f64,
}

impl Counts {
    /// Routes and arithmetic/compiler counts from two registry snapshots
    /// bracketing an untraced pass.
    pub fn add_counter_delta(&mut self, before: &CounterSnapshot, after: &CounterSnapshot) {
        let d = |name: &str| after.delta_of(before, name);
        let kc = d("planner.kc_routes");
        let topdown = d("planner.kc_topdown_routes");
        self.routes.readonce += d("planner.read_once_routes");
        self.routes.kc_topdown += topdown;
        self.routes.kc_bottomup += kc - topdown;
        self.routes.naive += d("planner.naive_routes");
        self.comp_cache_hits += d("kc.comp_cache_hits") as f64;
        self.comp_cache_misses += d("kc.comp_cache_misses") as f64;
        self.vli_passes += d("num.vli_hits") as f64;
        self.bignum_fallbacks += d("num.bignum_fallbacks") as f64;
        self.ntt_convolutions += d("num.ntt_convolutions") as f64;
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Emits every per-layer metric: self times of `pass` (the traced pass
/// whose wall time is the median), the counts, and the run's validity
/// figures.
pub fn emit(m: &mut Metrics, pass: &PassProfile, c: &Counts, reference_ms: f64) {
    for layer in SPAN_LAYERS {
        m.set(&format!("{layer}_ms"), pass.get(layer), "ms");
    }
    m.set(
        "core.solve.kc_ms",
        pass.get("kc.compile") + pass.get("core.alg1"),
        "ms",
    );
    m.set("query.lineage_literals", c.lineage_literals, "count");
    m.set(
        "query.peak_in_flight_literals",
        c.peak_in_flight_literals,
        "count",
    );
    m.set(
        "circuit.distinct_structures",
        c.distinct_structures,
        "count",
    );
    m.set(
        "circuit.dedup_ratio",
        ratio(c.distinct_structures, c.answers),
        "ratio",
    );
    m.set(
        "core.topk.solved_structure_ratio",
        ratio(c.topk_solved_structures, c.distinct_structures),
        "ratio",
    );
    m.set("core.route.readonce", c.routes.readonce as f64, "count");
    m.set(
        "core.route.kc_bottomup",
        c.routes.kc_bottomup as f64,
        "count",
    );
    m.set("core.route.kc_topdown", c.routes.kc_topdown as f64, "count");
    m.set("core.route.naive", c.routes.naive as f64, "count");
    m.set("kc.ddnnf_nodes", c.ddnnf_nodes, "count");
    m.set(
        "kc.comp_cache_hit_ratio",
        ratio(c.comp_cache_hits, c.comp_cache_hits + c.comp_cache_misses),
        "ratio",
    );
    m.set("num.vli_passes", c.vli_passes, "count");
    m.set("num.bignum_fallbacks", c.bignum_fallbacks, "count");
    m.set("num.ntt_convolutions", c.ntt_convolutions, "count");
    m.set(
        "core.cache.hit_ratio",
        ratio(c.cache_hits, c.cache_hits + c.cache_misses),
        "ratio",
    );
    m.set("core.cache.evictions", c.cache_evictions, "count");
    m.set("service.queue_wait_ms", c.queue_wait_ms, "ms");
    m.set("service.completed", c.service_completed, "count");
    m.set("service.rejected", c.service_rejected, "count");
    m.set("persist.bytes_appended", c.persist_bytes, "B");
    m.set(
        "persist.bytes_per_entry",
        ratio(c.persist_bytes, c.persist_entries),
        "B",
    );
    m.set("cli.request_bytes", c.request_bytes, "B");
    m.set("cli.response_bytes", c.response_bytes, "B");
    m.set("cli.transport_ms", c.transport_ms, "ms");
    m.set("loadgen.max_lag_ms", c.loadgen_max_lag_ms, "ms");
    m.set(
        "trace.overhead_pct",
        100.0 * ratio(pass.wall_ms - reference_ms, reference_ms),
        "%",
    );
    m.set("trace.wall_ms", pass.wall_ms, "ms");
    m.set("trace.reference_ms", reference_ms, "ms");
    m.set("unaccounted_ms", pass.unaccounted_ms, "ms");
}
