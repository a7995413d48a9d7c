//! Lock-cheap metrics: counters, gauges, and fixed-bucket latency
//! histograms.
//!
//! Every instrument is a handful of atomics updated with `Relaxed`
//! ordering; recording an observation takes no lock and allocates
//! nothing. Registration (name → instrument) goes through a map guarded
//! by an `RwLock`, but call sites hold the returned `Arc` so the map is
//! touched once per instrument lifetime, not per event. Latency is
//! measured by taking a single `Instant` at the start of the event and
//! observing the elapsed microseconds — never wall-clock time in a hot
//! path.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::RwLock;

use streamrel_types::relation::schema_ref;
use streamrel_types::{Column, DataType, Relation, Row, Schema, Value};

use crate::trace::TraceRing;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.v.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A signed level that can rise and fall (queue depth, open connections).
#[derive(Debug, Default)]
pub struct Gauge {
    v: AtomicI64,
}

impl Gauge {
    /// Add a (possibly negative) delta.
    pub fn add(&self, d: i64) {
        self.v.fetch_add(d, Ordering::Relaxed);
    }

    /// Subtract a delta.
    pub fn sub(&self, d: i64) {
        self.v.fetch_sub(d, Ordering::Relaxed);
    }

    /// Overwrite the level.
    pub fn set(&self, v: i64) {
        self.v.store(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket `i < BUCKETS-1` counts values
/// `<= 2^i` µs (so the finite range tops out at 2^30 µs ≈ 18 minutes);
/// the last bucket is the overflow.
const BUCKETS: usize = 32;

/// A fixed-bucket latency histogram over microseconds.
///
/// Buckets have power-of-two upper bounds, so quantiles are estimates
/// with at most 2× resolution error — plenty to tell a 100 µs fsync
/// from a 10 ms one, with zero allocation and no locking.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// Index of the smallest bucket whose upper bound holds `us`.
fn bucket_index(us: u64) -> usize {
    if us <= 1 {
        return 0;
    }
    // ceil(log2(us)) for us > 1.
    let idx = 64 - (us - 1).leading_zeros() as usize;
    idx.min(BUCKETS - 1)
}

impl Histogram {
    /// Record one observation, in microseconds.
    pub fn observe(&self, us: u64) {
        self.buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(us, Ordering::Relaxed);
        self.min.fetch_min(us, Ordering::Relaxed);
        self.max.fetch_max(us, Ordering::Relaxed);
    }

    /// Record the time elapsed since `start` — the one-timestamp-per-event
    /// idiom: callers take `Instant::now()` once when the event begins.
    pub fn observe_from(&self, start: Instant) {
        self.observe(start.elapsed().as_micros() as u64);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations, µs.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest observation, if any.
    pub fn min(&self) -> Option<u64> {
        let v = self.min.load(Ordering::Relaxed);
        (v != u64::MAX).then_some(v)
    }

    /// Largest observation, if any.
    pub fn max(&self) -> Option<u64> {
        let c = self.count();
        (c > 0).then(|| self.max.load(Ordering::Relaxed))
    }

    /// Estimated quantile (`q` in 0..=1): the upper bound of the bucket
    /// containing the rank-`q` observation, clamped to the recorded max.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                let bound = if i < BUCKETS - 1 { 1u64 << i } else { u64::MAX };
                return Some(bound.min(self.max.load(Ordering::Relaxed)));
            }
        }
        self.max()
    }
}

/// A named instrument held by a [`Registry`].
#[derive(Debug, Clone)]
pub enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

/// Engine-wide instrument registry plus the trace ring.
///
/// One `Registry` is owned by the storage engine and shared (via `Arc`)
/// with every layer above it. `counter`/`gauge`/`histogram` get-or-create
/// by name; callers cache the returned `Arc` so steady-state recording
/// never touches the registry lock.
#[derive(Debug)]
pub struct Registry {
    instruments: RwLock<BTreeMap<String, Instrument>>,
    trace: TraceRing,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new(TraceRing::DEFAULT_CAPACITY)
    }
}

impl Registry {
    /// A registry whose trace ring keeps the last `trace_capacity` events.
    pub fn new(trace_capacity: usize) -> Registry {
        Registry {
            instruments: RwLock::new(BTreeMap::new()),
            trace: TraceRing::new(trace_capacity),
        }
    }

    /// The trace ring.
    pub fn trace(&self) -> &TraceRing {
        &self.trace
    }

    fn get_or_insert<T, F, G>(&self, name: &str, get: F, make: G) -> Arc<T>
    where
        F: Fn(&Instrument) -> Option<Arc<T>>,
        G: Fn(Arc<T>) -> Instrument,
        T: Default,
    {
        if let Some(inst) = self.instruments.read().get(name) {
            if let Some(v) = get(inst) {
                return v;
            }
            panic!(
                "metrics instrument `{name}` already registered as a {}",
                inst.kind()
            );
        }
        let mut map = self.instruments.write();
        // Re-check under the write lock: another thread may have won.
        if let Some(inst) = map.get(name) {
            return get(inst).unwrap_or_else(|| {
                panic!(
                    "metrics instrument `{name}` already registered as a {}",
                    inst.kind()
                )
            });
        }
        let v = Arc::new(T::default());
        map.insert(name.to_string(), make(v.clone()));
        v
    }

    /// Get or register the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.get_or_insert(
            name,
            |i| match i {
                Instrument::Counter(c) => Some(c.clone()),
                _ => None,
            },
            Instrument::Counter,
        )
    }

    /// Get or register the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.get_or_insert(
            name,
            |i| match i {
                Instrument::Gauge(g) => Some(g.clone()),
                _ => None,
            },
            Instrument::Gauge,
        )
    }

    /// Get or register the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.get_or_insert(
            name,
            |i| match i {
                Instrument::Histogram(h) => Some(h.clone()),
                _ => None,
            },
            Instrument::Histogram,
        )
    }

    /// Drop the instrument named `name` (e.g. when a CQ is dropped).
    pub fn remove(&self, name: &str) {
        self.instruments.write().remove(name);
    }

    /// Drop every instrument whose name starts with `prefix` (e.g. all
    /// per-connection counters when a connection closes).
    pub fn remove_prefix(&self, prefix: &str) {
        self.instruments
            .write()
            .retain(|name, _| !name.starts_with(prefix));
    }

    /// Snapshot all instruments as the `streamrel_metrics` relation.
    pub fn to_relation(&self) -> Relation {
        let map = self.instruments.read();
        let rows: Vec<Row> = map.iter().map(|(name, inst)| row_for(name, inst)).collect();
        drop(map);
        Relation::new(schema_ref(metrics_schema()), rows)
    }
}

/// Schema of the `streamrel_metrics` virtual relation. `value` is the
/// counter total, gauge level, or histogram observation count; the
/// remaining columns are NULL except for histograms (all in µs).
pub fn metrics_schema() -> Schema {
    Schema::new(vec![
        Column::not_null("name", DataType::Text),
        Column::not_null("kind", DataType::Text),
        Column::not_null("value", DataType::Int),
        Column::new("sum", DataType::Int),
        Column::new("min", DataType::Int),
        Column::new("max", DataType::Int),
        Column::new("p50", DataType::Int),
        Column::new("p95", DataType::Int),
        Column::new("p99", DataType::Int),
    ])
    .expect("metrics schema is well-formed")
}

/// Arc-cached handles for the slice-store instruments.
///
/// Registered get-or-create, like every registry access: the CQ runtime
/// bumps `lowered`/`fallback` once per placement decision and keeps the
/// `state_bytes` handle in each sliced CQ; the ingest path holds
/// `delta_rows`, so fold accounting never touches the registry lock.
pub struct IvmMetrics {
    /// CQs placed on a slice store (pooled or private).
    pub lowered: Arc<Counter>,
    /// CQs that fell back to per-window re-evaluation.
    pub fallback: Arc<Counter>,
    /// Stream tuples folded into slice stores: once per store, however
    /// many CQs read it.
    pub delta_rows: Arc<Counter>,
    /// Key partials added to, retracted from or rebuilt into a window at
    /// its close, and slices probed for where a key whose first slice left
    /// was seen next: what closes cost, in work units that repeat exactly.
    pub compose_merges: Arc<Counter>,
    /// Approximate bytes of slice, key-dictionary, view and match-count
    /// state, over stores.
    pub state_bytes: Arc<Gauge>,
    /// Distinct keys held: each store's dictionary, summed over stores.
    pub keys: Arc<Gauge>,
    /// Reads of join stores' tables to count matches: memo fills, reads
    /// no stamp could memoise, and counts a pinned member froze.
    pub table_scans: Arc<Counter>,
}

impl IvmMetrics {
    /// Register (or re-attach to) the `ivm.*` instruments in `registry`.
    pub fn register(registry: &Registry) -> IvmMetrics {
        IvmMetrics {
            lowered: registry.counter("ivm.lowered"),
            fallback: registry.counter("ivm.fallback"),
            delta_rows: registry.counter("ivm.delta.rows"),
            compose_merges: registry.counter("ivm.compose.merges"),
            state_bytes: registry.gauge("ivm.state.bytes"),
            keys: registry.gauge("ivm.keys"),
            table_scans: registry.counter("ivm.join.table_scans"),
        }
    }
}

fn opt_int(v: Option<u64>) -> Value {
    match v {
        Some(v) => Value::Int(v as i64),
        None => Value::Null,
    }
}

fn row_for(name: &str, inst: &Instrument) -> Row {
    let (value, sum, min, max, p50, p95, p99) = match inst {
        Instrument::Counter(c) => (
            c.get() as i64,
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
        ),
        Instrument::Gauge(g) => (
            g.get(),
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
        ),
        Instrument::Histogram(h) => (
            h.count() as i64,
            Value::Int(h.sum() as i64),
            opt_int(h.min()),
            opt_int(h.max()),
            opt_int(h.quantile(0.50)),
            opt_int(h.quantile(0.95)),
            opt_int(h.quantile(0.99)),
        ),
    };
    vec![
        Value::text(name),
        Value::text(inst.kind()),
        Value::Int(value),
        sum,
        min,
        max,
        p50,
        p95,
        p99,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counter_and_gauge_basics() {
        let reg = Registry::default();
        let c = reg.counter("c");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = reg.gauge("g");
        g.add(10);
        g.sub(3);
        assert_eq!(g.get(), 7);
        g.set(-2);
        assert_eq!(g.get(), -2);
    }

    #[test]
    fn registry_returns_same_instrument() {
        let reg = Registry::default();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        assert_eq!(b.get(), 1);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = Registry::default();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1 << 30), 30);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn histogram_stats_and_quantiles() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        for us in [100u64, 200, 400, 800, 100_000] {
            h.observe(us);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 101_500);
        assert_eq!(h.min(), Some(100));
        assert_eq!(h.max(), Some(100_000));
        // p50 is the 3rd of 5 observations (400 µs) → bucket bound 512.
        assert_eq!(h.quantile(0.5), Some(512));
        // p99 lands in the top bucket, clamped to the recorded max.
        assert_eq!(h.quantile(0.99), Some(100_000));
    }

    #[test]
    fn histogram_concurrent_observations() {
        let h = Arc::new(Histogram::default());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = h.clone();
                thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.observe(t * 1000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 4000);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(3999));
    }

    #[test]
    fn relation_snapshot_is_sorted_and_typed() {
        let reg = Registry::default();
        reg.counter("z.count").add(7);
        reg.gauge("a.depth").set(3);
        reg.histogram("m.lat_us").observe(50);
        let rel = reg.to_relation();
        assert_eq!(**rel.schema(), metrics_schema());
        let names: Vec<String> = rel.rows().iter().map(|r| r[0].to_string()).collect();
        assert_eq!(names, vec!["a.depth", "m.lat_us", "z.count"]);
        let hist = &rel.rows()[1];
        assert_eq!(hist[1], Value::text("histogram"));
        assert_eq!(hist[2], Value::Int(1));
        assert_eq!(hist[3], Value::Int(50));
        let counter = &rel.rows()[2];
        assert_eq!(counter[2], Value::Int(7));
        assert_eq!(counter[3], Value::Null);
    }

    #[test]
    fn remove_prefix_drops_instruments() {
        let reg = Registry::default();
        reg.counter("net.conn.1.frames_in");
        reg.counter("net.conn.1.frames_out");
        reg.counter("net.conn.2.frames_in");
        reg.remove_prefix("net.conn.1.");
        assert_eq!(reg.to_relation().len(), 1);
        reg.remove("net.conn.2.frames_in");
        assert!(reg.to_relation().is_empty());
    }
}
