//! Per-route compile/solve timing histograms.
//!
//! The planner's cost model is static today (occurrence counts, variable
//! caps); the ROADMAP's learned-cost-model lead needs the ground truth it
//! would train on: how long each engine route actually spends preparing
//! (factorization / knowledge compilation) and solving (Algorithm 1 /
//! sampling). This module records exactly that as log₂-bucketed
//! microsecond histograms — two per route (`compile`, `solve`), one route
//! per engine kind. They live in each [`Profile`] ([`Profile::routes`]),
//! next to its counters: the engine layer records at its single
//! result-construction choke point into the calling thread's active
//! profile, so a batch or top-k report times its own solves and a
//! resident service times its own, whatever else runs in the process;
//! `serve` surfaces the service's snapshots in its final `{"stats":…}`
//! line.
//!
//! Buckets are powers of two of microseconds: bucket `i` counts durations
//! `d` with `2^i ≤ d_µs < 2^(i+1)` (bucket 0 also absorbs sub-microsecond
//! durations). 30 buckets reach ~17 minutes, far past any budgeted solve.

use crate::Profile;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of log₂ buckets (bucket `NUM_BUCKETS-1` absorbs the overflow).
pub const NUM_BUCKETS: usize = 30;

/// A log₂-µs histogram (atomic, cheap, shareable).
#[derive(Debug)]
pub struct TimingHisto {
    name: &'static str,
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    total_us: AtomicU64,
}

impl TimingHisto {
    /// A new, empty histogram.
    pub const fn new(name: &'static str) -> TimingHisto {
        // `[const expr; N]` needs an inline const to repeat a non-Copy value.
        TimingHisto {
            name,
            buckets: [const { AtomicU64::new(0) }; NUM_BUCKETS],
            count: AtomicU64::new(0),
            total_us: AtomicU64::new(0),
        }
    }

    /// Records one duration.
    pub fn record(&self, d: Duration) {
        let us = d.as_micros().min(u64::MAX as u128) as u64;
        // 0µs and 1µs land in bucket 0; otherwise bucket = floor(log2 µs).
        let bucket = (63 - us.max(1).leading_zeros() as usize).min(NUM_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Number of recorded durations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the histogram.
    pub fn snapshot(&self) -> TimingSnapshot {
        let mut buckets = [0u64; NUM_BUCKETS];
        for (slot, b) in buckets.iter_mut().zip(&self.buckets) {
            *slot = b.load(Ordering::Relaxed);
        }
        TimingSnapshot {
            name: self.name,
            count: self.count.load(Ordering::Relaxed),
            total_us: self.total_us.load(Ordering::Relaxed),
            buckets,
        }
    }

    /// Resets every cell to zero (tests).
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.total_us.store(0, Ordering::Relaxed);
    }
}

impl Clone for TimingHisto {
    fn clone(&self) -> TimingHisto {
        let s = self.snapshot();
        TimingHisto {
            name: s.name,
            buckets: s.buckets.map(AtomicU64::new),
            count: AtomicU64::new(s.count),
            total_us: AtomicU64::new(s.total_us),
        }
    }
}

/// A point-in-time copy of one [`TimingHisto`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimingSnapshot {
    /// The histogram's registry name.
    pub name: &'static str,
    /// Number of recorded durations.
    pub count: u64,
    /// Sum of recorded durations, microseconds.
    pub total_us: u64,
    /// `buckets[i]` counts durations in `[2^i, 2^(i+1))` µs.
    pub buckets: [u64; NUM_BUCKETS],
}

impl TimingSnapshot {
    /// Mean recorded duration in microseconds (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.total_us.checked_div(self.count).unwrap_or(0)
    }

    /// Upper bound (µs) of the bucket holding the `q`-quantile recorded
    /// duration (nearest-rank over the bucket counts; 0 when empty).
    /// A log₂ histogram resolves quantiles to within 2×, which is all the
    /// cost model needs.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return 1u64 << (i + 1);
            }
        }
        1u64 << NUM_BUCKETS
    }
}

/// Each route's name, as the engine registry's `EngineKind::name` gives
/// it, with the names of its compile and solve histograms.
const ROUTES: [(&str, [&str; 2]); 6] = [
    ("readonce", ["readonce.compile", "readonce.solve"]),
    ("naive", ["naive.compile", "naive.solve"]),
    ("kc", ["kc.compile", "kc.solve"]),
    ("proxy", ["proxy.compile", "proxy.solve"]),
    ("montecarlo", ["montecarlo.compile", "montecarlo.solve"]),
    ("kernelshap", ["kernelshap.compile", "kernelshap.solve"]),
];

/// One profile's compile and solve histograms, per route.
#[derive(Clone, Debug)]
pub struct RouteTimings([[TimingHisto; 2]; ROUTES.len()]);

impl RouteTimings {
    pub(crate) fn new() -> RouteTimings {
        RouteTimings(ROUTES.map(|(_, names)| names.map(TimingHisto::new)))
    }

    /// Snapshots of every histogram with at least one recording, compile
    /// before solve per route.
    pub fn active(&self) -> Vec<TimingSnapshot> {
        self.0
            .iter()
            .flatten()
            .filter(|h| h.count() > 0)
            .map(TimingHisto::snapshot)
            .collect()
    }
}

/// Records one task's prep/compile and solve durations under its route
/// name into the calling thread's active [`Profile`] (none: not recorded).
/// Unknown route names are ignored, so the registry can grow engines
/// freely.
pub fn record_route(route: &str, compile: Duration, solve: Duration) {
    let r = ROUTES.iter().position(|(name, _)| *name == route);
    if let (Some(r), Some(profile)) = (r, Profile::current()) {
        let [c, s] = &profile.routes().0[r];
        c.record(compile);
        s.record(solve);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2_microseconds() {
        static H: TimingHisto = TimingHisto::new("test.histo");
        H.record(Duration::from_micros(0)); // bucket 0
        H.record(Duration::from_micros(1)); // bucket 0
        H.record(Duration::from_micros(3)); // bucket 1
        H.record(Duration::from_micros(1000)); // bucket 9 (512..1024)
        let s = H.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.buckets[0], 2);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[9], 1);
        assert_eq!(s.total_us, 1004);
        assert_eq!(s.mean_us(), 251);
        H.reset();
        assert_eq!(H.count(), 0);
    }

    #[test]
    fn overflow_durations_land_in_last_bucket() {
        static H: TimingHisto = TimingHisto::new("test.overflow");
        H.record(Duration::from_secs(1 << 40));
        assert_eq!(H.snapshot().buckets[NUM_BUCKETS - 1], 1);
    }

    #[test]
    fn quantiles_resolve_to_bucket_bounds() {
        static H: TimingHisto = TimingHisto::new("test.quantile");
        for _ in 0..9 {
            H.record(Duration::from_micros(10)); // bucket 3: [8, 16)
        }
        H.record(Duration::from_micros(5000)); // bucket 12: [4096, 8192)
        let s = H.snapshot();
        assert_eq!(s.quantile_us(0.5), 16);
        assert_eq!(s.quantile_us(0.99), 8192);
        assert_eq!(TimingSnapshot { count: 0, ..s }.quantile_us(0.5), 0);
    }

    #[test]
    fn route_recording_reaches_the_named_histograms() {
        let profile = std::sync::Arc::new(Profile::new());
        {
            let _scope = profile.enter();
            record_route("kc", Duration::from_micros(100), Duration::from_micros(200));
            // Unknown routes are ignored, not panicked on.
            record_route("no_such_route", Duration::ZERO, Duration::ZERO);
        }
        // Outside every scope nothing is recorded.
        record_route("kc", Duration::ZERO, Duration::ZERO);
        let active = profile.routes().active();
        let names: Vec<&str> = active.iter().map(|s| s.name).collect();
        assert_eq!(names, ["kc.compile", "kc.solve"]);
        assert_eq!(active[0].count, 1);
        assert_eq!(active[1].total_us, 200);
        // A clone carries the histograms.
        assert_eq!((*profile).clone().routes().active(), active);
    }
}
