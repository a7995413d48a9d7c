//! In-memory spans around the calls the benchmark makes into the engine.
//!
//! Each thread owns a [`Tracer`] (no locking on the timed path); they are
//! merged and written to `out/trace-<workload>.json` when the run ends.
//! A span is `{name, id, parent, start, end}`: `id` is the batch sequence
//! for `ingest_call`, the window close for `window_receive`, a counter
//! otherwise, so the spans of one tuple's journey share an identifier;
//! `parent` is the id of the enclosing phase span.

use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

static ORIGIN: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process's clock origin (first call).
pub fn now_ns() -> u64 {
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

pub struct Tracer {
    enabled: bool,
    parent: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            parent: 0,
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Spans recorded from now on are children of phase `id`.
    pub fn set_parent(&mut self, id: u64) {
        self.parent = id;
    }

    pub fn record(&mut self, name: &'static str, id: u64, start_ns: u64, end_ns: u64) {
        if self.enabled {
            self.spans.push(Span {
                name,
                id,
                parent: self.parent,
                start_ns,
                end_ns,
            });
        }
    }

    /// Time `f` as one span when tracing is on; just call it otherwise.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = now_ns();
        let out = f();
        self.record(name, id, start, now_ns());
        out
    }

    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans.iter().filter(move |s| s.name == name)
    }
}

/// Phase span ids (the `parent` of every call span).
pub mod phase {
    pub const SETUP: u64 = 1;
    pub const SATURATE: u64 = 3;
    pub const PACED: u64 = 4;
    pub const LAYERS: u64 = 6;
}

/// Render spans as a JSON array, one object per line.
pub fn spans_json(spans: &[Span]) -> String {
    let mut s = String::with_capacity(spans.len() * 96 + 4);
    s.push_str("[\n");
    for (i, sp) in spans.iter().enumerate() {
        let _ = write!(
            s,
            "  {{\"name\": \"{}\", \"id\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            sp.name, sp.id, sp.parent, sp.start_ns, sp.end_ns
        );
        s.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    s.push(']');
    s
}
