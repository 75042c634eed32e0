//! Sample statistics, the reference clock, process memory, and the
//! result record.

use crate::Rng;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub fn ms(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e6
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` (0..1) of unsorted values.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// A percentile is reported only when at least ten samples lie beyond it.
pub fn percentile_supported(n: usize, q: f64) -> bool {
    let rank = (q * n as f64).ceil() as usize;
    n >= rank + 10
}

/// What one calibration takes at the reference speed, in milliseconds.
pub const CALIBRATION_REF_MS: f64 = 0.3;
/// Time between the starts of two calibrations.
const CALIBRATION_PERIOD: Duration = Duration::from_millis(10);
/// Calibrations this long before or after an interval count for it.
const CALIBRATION_PAD: Duration = Duration::from_millis(20);

/// One calibration, in wall milliseconds: a fixed piece of work that calls
/// no code of the program under test (a seeded sort and a hash-map fold
/// over 2^13 integers).
fn calibration_ms() -> f64 {
    let t = Instant::now();
    let mut rng = Rng(0xCA11);
    let mut v: Vec<u64> = (0..1 << 13).map(|_| rng.next_u64()).collect();
    v.sort_unstable();
    let mut m: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for x in v.iter().step_by(4) {
        *m.entry(x >> 54).or_default() += x & 7;
    }
    std::hint::black_box((&v, &m));
    ms(t.elapsed())
}

type Calibrations = Arc<Mutex<Vec<(Instant, f64)>>>;

/// Converts wall time into reference time: the time the same work would
/// take on a machine that runs a calibration in `CALIBRATION_REF_MS`.
///
/// A shared machine's cores switch between speeds that differ by a third,
/// many times a minute. A thread on the same core as the work runs a
/// calibration every `CALIBRATION_PERIOD` (about 3% of the core); an
/// interval's wall time, scaled by the mean calibration during it, takes
/// the machine's speed out and leaves the program's own speed in.
pub struct RefClock {
    calibrations: Calibrations,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl RefClock {
    pub fn start() -> RefClock {
        let calibrations: Calibrations = Arc::default();
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (calibrations, stop) = (Arc::clone(&calibrations), Arc::clone(&stop));
            std::thread::spawn(move || {
                calibration_ms(); // warms the allocator
                while !stop.load(Ordering::Relaxed) {
                    let at = Instant::now();
                    let took = calibration_ms();
                    calibrations.lock().expect("calibrations").push((at, took));
                    std::thread::sleep(CALIBRATION_PERIOD.saturating_sub(at.elapsed()));
                }
            })
        };
        RefClock {
            calibrations,
            stop,
            thread: Some(thread),
        }
    }

    /// Reference milliseconds of an interval that began at `start` and
    /// took `wall_ms`.
    pub fn to_ref(&self, start: Instant, wall_ms: f64) -> f64 {
        let all = self.calibrations.lock().expect("calibrations");
        let from = start.checked_sub(CALIBRATION_PAD).unwrap_or(start);
        let to = start + Duration::from_secs_f64(wall_ms / 1e3) + CALIBRATION_PAD;
        let mut during: Vec<f64> = all
            .iter()
            .filter(|(at, _)| (from..=to).contains(at))
            .map(|&(_, took)| took)
            .collect();
        let cal = if during.is_empty() {
            median(&all.iter().map(|&(_, took)| took).collect::<Vec<_>>())
        } else {
            // The slowest quarter is left out: a calibration the work's
            // own threads preempted times them, not the core.
            during.sort_by(f64::total_cmp);
            let kept = &during[..during.len() - during.len() / 4];
            kept.iter().sum::<f64>() / kept.len() as f64
        };
        wall_ms * CALIBRATION_REF_MS / cal
    }

    /// The median calibration so far, in wall milliseconds.
    pub fn calibration_ms(&self) -> f64 {
        let all = self.calibrations.lock().expect("calibrations");
        median(&all.iter().map(|&(_, took)| took).collect::<Vec<_>>())
    }
}

impl Drop for RefClock {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Resets this process's resident-set high-water mark to its current RSS
/// (`/proc/self/clear_refs`, Linux ≥ 4.0), so the peak read afterwards
/// covers only what runs from here on, not the set-up before it.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// High-water resident set size of a process, in MiB (`/proc/<pid>/status`).
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Named metrics of one run, in insertion order.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.entries.push((name.to_string(), value, unit));
    }

    pub fn entries(&self) -> &[(String, f64, &'static str)] {
        &self.entries
    }

    /// The `"metrics"` object of the result line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // JSON has no NaN or infinity; `null` fails the result check.
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

/// Outcome counts of the run's operations and output checks.
#[derive(Default, Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub check_failures: Vec<String>,
}

impl Outcome {
    /// Records one operation; a failed one keeps its reason (the first few).
    pub fn op(&mut self, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = ok {
            self.failed += 1;
            if self.check_failures.len() < 20 {
                self.check_failures.push(why);
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}
