//! End-to-end benchmark of shapdb.
//!
//! ```text
//! shapdb-e2e --workload <paper-explain|job-topk|job-explain|serve-mixed>
//!            --seed <n> --seconds <s> --trace <0|1>
//!            [--smoke] [--server <shapdb binary>] [--out-dir <dir>]
//! ```
//!
//! Untraced runs (`--trace 0`) time each call from the caller's input to
//! the caller's output and check every output. Traced runs (`--trace 1`)
//! alternate an untraced single-thread reference pass with a pass that
//! decomposes the same work into calls of the layers' public functions,
//! each inside a span (see `trace.rs`). The last stdout line is one JSON
//! object holding every metric of the run; `run.py` selects the ones
//! `BENCHMARK.json` names.
//!
//! A run, and the server it starts, keeps to one core. Throughput and
//! set-up time are reported in reference time (`stats::RefClock`) to take
//! out the shared machine's changing speed, and in wall time beside it.

mod batch;
mod layers;
mod pipeline;
mod serve;
mod stats;
mod trace;

use stats::{Metrics, Outcome};
use std::time::{Duration, Instant};

/// The seed at which the JOB generator runs at the repository's reference
/// seed (0x10B); other seeds shift it, and seed the serve pool and schedule.
pub const DEFAULT_SEED: u64 = 1;

/// Set-ups per run: at least `MIN_SETUPS`, repeated until `SETUP_BUDGET`
/// has passed (at most `MAX_SETUPS`); `setup_s` is their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 200;
const SETUP_BUDGET: Duration = Duration::from_millis(1500);

/// Worker threads of the timed work. On a shared machine with few cores, a
/// second thread measures the scheduler, not the program.
pub const THREADS: usize = 1;

pub struct Ctx {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub smoke: bool,
    /// Every available core, for untimed work: reference solves.
    pub cores: usize,
    /// Directory for spans, the server socket and the persist log.
    pub out_dir: std::path::PathBuf,
    /// The `shapdb` binary serve-mixed starts.
    pub server: Option<std::path::PathBuf>,
    /// Converts the run's wall times into reference times.
    pub clock: stats::RefClock,
}

impl Ctx {
    /// A generator seed: the reference seed at `DEFAULT_SEED`, shifted by
    /// the distance of `--seed` from it.
    pub fn gen_seed(&self, reference: u64) -> u64 {
        reference.wrapping_add(self.seed.wrapping_sub(DEFAULT_SEED))
    }
}

/// SplitMix64: the benchmark's own seeded generator.
pub struct Rng(pub u64);

impl Rng {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i + 1));
        }
        order
    }
}

/// What one workload run reports.
#[derive(Default)]
pub struct RunResult {
    pub metrics: Metrics,
    pub outcome: Outcome,
    /// `key = value` facts about the run: sizes, counts, seeds.
    pub facts: Vec<(String, String)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Spans of the traced run, as JSON.
    pub spans: Option<String>,
}

impl RunResult {
    pub fn fact(&mut self, key: &str, value: impl ToString) {
        self.facts.push((key.to_string(), value.to_string()));
    }
}

/// What set-up took: the median over repeated set-ups, in reference
/// seconds (see `stats::RefClock`) and in wall seconds.
pub struct SetupTime {
    pub ref_s: f64,
    pub wall_s: f64,
}

/// Runs the set-up `f` repeatedly and returns the last result and the
/// time of one set-up.
pub fn timed_setup<T>(ctx: &Ctx, mut f: impl FnMut() -> T) -> (T, SetupTime) {
    let start = Instant::now();
    let mut rounds = Vec::new();
    let mut last = None;
    while rounds.len() < MIN_SETUPS || (start.elapsed() < SETUP_BUDGET && rounds.len() < MAX_SETUPS)
    {
        drop(last.take());
        let t = Instant::now();
        let result = f();
        rounds.push((t, stats::ms(t.elapsed())));
        last = Some(result);
    }
    let wall: Vec<f64> = rounds.iter().map(|&(_, ms)| ms / 1e3).collect();
    let reference: Vec<f64> = rounds
        .iter()
        .map(|&(t, ms)| ctx.clock.to_ref(t, ms) / 1e3)
        .collect();
    let time = SetupTime {
        ref_s: stats::median(&reference),
        wall_s: stats::median(&wall),
    };
    (last.expect("at least one set-up"), time)
}

fn usage() -> ! {
    eprintln!(
        "usage: shapdb-e2e --workload <paper-explain|job-topk|job-explain|serve-mixed> \
         --seed <n> --seconds <s> --trace <0|1> [--smoke] [--server <shapdb binary>] \
         [--out-dir <dir>]"
    );
    std::process::exit(2);
}

fn parse_args() -> (String, Ctx) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut smoke = false;
    let mut server = None;
    let mut out_dir = std::path::PathBuf::from(".bench_out");
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| args.get(i + 1).cloned().unwrap_or_else(|| usage());
        match args[i].as_str() {
            "--workload" => workload = Some(value(i)),
            "--seed" => seed = value(i).parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value(i).parse().unwrap_or_else(|_| usage()),
            "--trace" => trace = value(i) == "1",
            "--server" => server = Some(value(i).into()),
            "--out-dir" => out_dir = value(i).into(),
            "--smoke" => {
                smoke = true;
                i += 1;
                continue;
            }
            _ => usage(),
        }
        i += 2;
    }
    let ctx = Ctx {
        seed,
        seconds: Duration::from_secs_f64(seconds.max(0.0)),
        trace,
        smoke,
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        clock: stats::RefClock::start(),
        out_dir,
        server,
    };
    (workload.unwrap_or_else(|| usage()), ctx)
}

/// Confines this process, and the server it starts, to the core it runs
/// on: the calibrations then time the same core as the work, and no
/// thread waits for another core to wake up.
#[cfg(target_os = "linux")]
fn pin_to_current_core() {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // SAFETY: plain libc calls; `mask` is a valid 1024-bit cpu_set_t.
    unsafe {
        let cpu = sched_getcpu();
        if (0..1024).contains(&cpu) {
            let mut mask = [0u64; 16];
            mask[cpu as usize / 64] |= 1 << (cpu % 64);
            sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
        }
    }
}

#[cfg(not(target_os = "linux"))]
fn pin_to_current_core() {}

fn main() {
    pin_to_current_core();
    let (workload, ctx) = parse_args();
    if let Err(e) = std::fs::create_dir_all(&ctx.out_dir) {
        eprintln!("create {}: {e}", ctx.out_dir.display());
        std::process::exit(1);
    }
    let run = match workload.as_str() {
        "paper-explain" => batch::paper_explain(&ctx),
        "job-topk" => batch::job_topk(&ctx),
        "job-explain" => batch::job_explain(&ctx),
        "serve-mixed" => serve::serve_mixed(&ctx),
        _ => usage(),
    };
    let mut run = match run {
        Ok(run) => run,
        Err(e) => {
            eprintln!("{workload}: {e}");
            std::process::exit(1);
        }
    };
    run.facts
        .insert(0, ("seed".to_string(), ctx.seed.to_string()));
    let tag = format!(
        "{workload}-seed{}-trace{}{}",
        ctx.seed,
        u8::from(ctx.trace),
        if ctx.smoke { "-smoke" } else { "" }
    );
    if let Some(spans) = &run.spans {
        let path = ctx.out_dir.join(format!("spans-{tag}.json"));
        if let Err(e) = std::fs::write(&path, spans) {
            eprintln!("write {}: {e}", path.display());
        }
    }
    println!(
        "== {workload} (seed {}, trace {})",
        ctx.seed,
        u8::from(ctx.trace)
    );
    for (k, v) in &run.facts {
        println!("   {k} = {v}");
    }
    for line in &run.notes {
        println!("   {line}");
    }
    for (name, value, unit) in run.metrics.entries() {
        println!("   {name:<36} {value:>14.4} {unit}");
    }
    for why in &run.outcome.check_failures {
        println!("   CHECK FAILED: {why}");
    }
    let facts: Vec<String> = run
        .facts
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace('\\', "\\\\").replace('"', "'")))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"facts\": {{{}}}, \"metrics\": {}}}",
        run.outcome.correct(),
        run.outcome.attempted,
        run.outcome.failed,
        facts.join(", "),
        run.metrics.to_json()
    );
}
