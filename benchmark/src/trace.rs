//! In-memory spans recorded around calls into the program's public layers.
//!
//! A traced pass runs on one thread, one public call after another, so a
//! span's self time (its duration minus the part its child spans cover) is
//! busy time of the layer it names. The pass's root span is not a layer:
//! its self time is the benchmark's own glue, reported as `unaccounted_ms`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_ns = self.now_ns();
        out
    }

    /// Number of spans recorded so far (a pass's spans are those recorded
    /// after its starting mark).
    pub fn mark(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Per-layer self time (ms) of the pass whose root span is the first
    /// span recorded at or after `mark`, plus that root's wall time (ms).
    pub fn pass_profile(&self, mark: usize) -> PassProfile {
        let spans = self.spans.borrow();
        let root = mark;
        let dur = |s: &Span| s.end_ns.saturating_sub(s.start_ns);
        let mut child_ns = vec![0u64; spans.len() - mark];
        for (i, s) in spans.iter().enumerate().skip(mark + 1) {
            let p = s.parent.expect("spans after the root have a parent");
            child_ns[p - mark] += dur(s);
            debug_assert!(i > p);
        }
        let mut self_ms: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate().skip(mark + 1) {
            let own = dur(s).saturating_sub(child_ns[i - mark]);
            *self_ms.entry(s.name).or_default() += own as f64 / 1e6;
        }
        let wall_ms = dur(&spans[root]) as f64 / 1e6;
        let layers: f64 = self_ms.values().sum();
        PassProfile {
            wall_ms,
            unaccounted_ms: wall_ms - layers,
            self_ms,
        }
    }

    /// Every span as one JSON array (times in µs since the tracer started).
    pub fn to_json(&self) -> String {
        let spans = self.spans.borrow();
        let mut out = String::with_capacity(64 * spans.len() + 2);
        out.push('[');
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3
            );
        }
        out.push(']');
        out
    }
}

/// One traced pass, folded by layer name.
#[derive(Clone, Debug, Default)]
pub struct PassProfile {
    pub wall_ms: f64,
    pub unaccounted_ms: f64,
    pub self_ms: BTreeMap<&'static str, f64>,
}

impl PassProfile {
    pub fn get(&self, layer: &str) -> f64 {
        self.self_ms.get(layer).copied().unwrap_or(0.0)
    }
}
