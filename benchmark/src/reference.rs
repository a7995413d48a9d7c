//! Reference results, computed without engine code.
//!
//! The verifier regenerates the input a run consumed, applies the
//! watermark rule ("event time is the largest timestamp seen minus the
//! slack; a tuple older than that is too late and dropped; a window is
//! emitted once a released tuple reaches its close"), sorts what was
//! released into per-second buckets, and slides each query's window over
//! the buckets, adding the tuples of seconds that enter and removing
//! those of seconds that leave. Every window is reduced to its close
//! timestamp and a 64-bit hash of its canonical row bytes; the run's
//! delivered windows are reduced the same way and compared.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use streamrel_types::{Row, Value};

use crate::gen::{Gen, Tuple, BATCH, SEC};

// ---- canonical bytes ----------------------------------------------------

/// FNV-1a over the canonical encoding of a window's rows.
pub struct WindowHasher {
    h: u64,
    rows: u32,
}

impl Default for WindowHasher {
    fn default() -> Self {
        WindowHasher {
            h: 0xcbf2_9ce4_8422_2325,
            rows: 0,
        }
    }
}

impl WindowHasher {
    fn bytes(&mut self, bs: &[u8]) {
        for b in bs {
            self.h = (self.h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.bytes(&[0]),
            Value::Bool(b) => self.bytes(&[1, u8::from(*b)]),
            Value::Int(i) => {
                self.bytes(&[2]);
                self.bytes(&i.to_le_bytes());
            }
            Value::Float(f) => {
                self.bytes(&[3]);
                self.bytes(&f.to_bits().to_le_bytes());
            }
            Value::Text(t) => {
                self.bytes(&[4]);
                self.bytes(&(t.len() as u32).to_le_bytes());
                self.bytes(t.as_bytes());
            }
            Value::Timestamp(t) => {
                self.bytes(&[5]);
                self.bytes(&t.to_le_bytes());
            }
            Value::Interval(t) => {
                self.bytes(&[6]);
                self.bytes(&t.to_le_bytes());
            }
        }
    }

    pub fn row(&mut self, row: &[Value]) {
        self.bytes(&[0xFE, row.len() as u8]);
        for v in row {
            self.value(v);
        }
        self.rows += 1;
    }

    pub fn finish(self) -> (u64, u32) {
        (self.h, self.rows)
    }
}

/// `(hash, row count)` of one window's rows.
pub fn hash_rows(rows: &[Row]) -> (u64, u32) {
    let mut h = WindowHasher::default();
    for r in rows {
        h.row(r);
    }
    h.finish()
}

// ---- which tuples the engine must have released ---------------------------

/// The released prefix of a run's input.
pub struct Released {
    /// Accepted tuples in release order: `(ts, arrival)` ascending.
    pub tuples: Vec<Tuple>,
    /// Tuples dropped as too late.
    pub late: u64,
    /// Largest released timestamp after each batch (`i64::MIN`: none yet).
    pub max_ts_after_batch: Vec<i64>,
    /// Released tuple count after each batch.
    pub count_after_batch: Vec<u64>,
}

/// Apply the watermark rule to batches `0..batches`. `slack == None` is a
/// stream without a reorder stage: everything is released on arrival.
pub fn release(gen: &Gen, batches: u64, slack: Option<i64>) -> Released {
    let mut out = Released {
        tuples: Vec::with_capacity((batches * BATCH) as usize),
        late: 0,
        max_ts_after_batch: Vec::with_capacity(batches as usize),
        count_after_batch: Vec::with_capacity(batches as usize),
    };
    // Held tuples by `(timestamp, arrival)`; a tuple is regenerated from
    // its arrival number when it is released.
    let mut held: BinaryHeap<Reverse<(i64, u64)>> = BinaryHeap::new();
    let mut max_seen = i64::MIN;
    for b in 0..batches {
        for i in b * BATCH..(b + 1) * BATCH {
            let t = gen.tuple(i);
            let Some(slack) = slack else {
                out.tuples.push(t);
                continue;
            };
            if max_seen != i64::MIN && t.ts < max_seen - slack {
                out.late += 1;
                continue;
            }
            max_seen = max_seen.max(t.ts);
            held.push(Reverse((t.ts, i)));
            while let Some(Reverse((ts, seq))) = held.peek().copied() {
                if ts > max_seen - slack {
                    break;
                }
                held.pop();
                out.tuples.push(gen.tuple(seq));
            }
        }
        out.max_ts_after_batch
            .push(out.tuples.last().map_or(i64::MIN, |t| t.ts));
        out.count_after_batch.push(out.tuples.len() as u64);
    }
    out
}

// ---- query shapes ---------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Key {
    None,
    Url,
    Status,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    Count,
    SumBytes,
    MinBytes,
    MaxBytes,
    AvgLatency,
    DistinctIps,
    DistinctUrls,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Filter {
    All,
    /// `JOIN url_dim` — the dimension table lists even url ids only.
    UrlInDim,
    Status500,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Col {
    Url,
    Ip,
    Bytes,
    Atime,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Window {
    /// `[close - visible - shift, close - shift)` every `advance`
    /// seconds. `shift = 1` is a window over the output of a 1-second
    /// tumbling stage, whose rows are stamped with their own close.
    Time {
        visible_s: i64,
        advance_s: i64,
        shift_s: i64,
    },
    Rows {
        visible: usize,
        advance: usize,
    },
}

#[derive(Debug, Clone, PartialEq)]
pub enum Shape {
    /// Aggregate per key, rows ordered by key; `close_col` appends
    /// `cq_close(*)`.
    Agg {
        key: Key,
        aggs: Vec<Agg>,
        filter: Filter,
        close_col: bool,
    },
    /// Matching rows in release order, projected.
    Rows { filter: Filter, cols: Vec<Col> },
}

#[derive(Debug, Clone, PartialEq)]
pub struct RefSpec {
    pub window: Window,
    pub shape: Shape,
}

/// One expected window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefWindow {
    pub close: i64,
    pub hash: u64,
    pub rows: u32,
    /// The batch whose tuples moved released event time past `close`.
    pub trigger_batch: u64,
}

fn passes(f: Filter, t: &Tuple) -> bool {
    match f {
        Filter::All => true,
        Filter::UrlInDim => t.url.is_multiple_of(2),
        Filter::Status500 => t.status == 500,
    }
}

#[derive(Default)]
struct Group {
    n: i64,
    sum_bytes: i64,
    lat_sum: f64,
    /// How often each value occurs among the group's tuples.
    bytes: BTreeMap<u32, u32>,
    ips: BTreeMap<u32, u32>,
    urls: BTreeMap<u32, u32>,
}

struct AggState {
    key: Key,
    track_bytes: bool,
    track_ips: bool,
    track_urls: bool,
    groups: BTreeMap<u32, Group>,
}

impl AggState {
    fn new(key: Key, aggs: &[Agg]) -> AggState {
        AggState {
            key,
            track_bytes: aggs
                .iter()
                .any(|a| matches!(a, Agg::MinBytes | Agg::MaxBytes)),
            track_ips: aggs.contains(&Agg::DistinctIps),
            track_urls: aggs.contains(&Agg::DistinctUrls),
            groups: BTreeMap::new(),
        }
    }

    fn apply(&mut self, t: &Tuple, add: bool) {
        let k = match self.key {
            Key::None => 0,
            Key::Url => u32::from(t.url),
            Key::Status => u32::from(t.status),
        };
        let g = self.groups.entry(k).or_default();
        let sign = if add { 1 } else { -1 };
        g.n += sign;
        g.sum_bytes += sign * i64::from(t.bytes);
        g.lat_sum += sign as f64 * t.latency();
        if self.track_bytes {
            count_in(&mut g.bytes, t.bytes, add);
        }
        if self.track_ips {
            count_in(&mut g.ips, u32::from(t.ip), add);
        }
        if self.track_urls {
            count_in(&mut g.urls, u32::from(t.url), add);
        }
        if g.n == 0 {
            self.groups.remove(&k);
        }
    }

    fn emit(&self, gen: &Gen, aggs: &[Agg], close: Option<i64>, h: &mut WindowHasher) {
        let default = Group::default();
        let global_empty = self.key == Key::None && self.groups.is_empty();
        let iter: Box<dyn Iterator<Item = (&u32, &Group)>> = if global_empty {
            // A global aggregate over an empty window is one row of
            // defaults (count 0, the rest NULL).
            Box::new(std::iter::once((&0u32, &default)))
        } else {
            Box::new(self.groups.iter())
        };
        let mut row: Vec<Value> = Vec::with_capacity(aggs.len() + 2);
        for (k, g) in iter {
            row.clear();
            match self.key {
                Key::None => {}
                Key::Url => row.push(gen.url_value(*k as u16)),
                Key::Status => row.push(Value::Int(i64::from(*k))),
            }
            for a in aggs {
                row.push(match a {
                    Agg::Count => Value::Int(g.n),
                    Agg::DistinctIps => Value::Int(g.ips.len() as i64),
                    Agg::DistinctUrls => Value::Int(g.urls.len() as i64),
                    _ if g.n == 0 => Value::Null,
                    Agg::SumBytes => Value::Int(g.sum_bytes),
                    Agg::AvgLatency => Value::Float(g.lat_sum / g.n as f64),
                    Agg::MinBytes => Value::Int(i64::from(*g.bytes.keys().next().expect("n>0"))),
                    Agg::MaxBytes => {
                        Value::Int(i64::from(*g.bytes.keys().next_back().expect("n>0")))
                    }
                });
            }
            if let Some(c) = close {
                row.push(Value::Timestamp(c));
            }
            h.row(&row);
        }
    }
}

fn count_in(m: &mut BTreeMap<u32, u32>, k: u32, add: bool) {
    if add {
        *m.entry(k).or_insert(0) += 1;
    } else if let Some(c) = m.get_mut(&k) {
        *c -= 1;
        if *c == 0 {
            m.remove(&k);
        }
    }
}

fn project(gen: &Gen, cols: &[Col], t: &Tuple) -> Row {
    cols.iter()
        .map(|c| match c {
            Col::Url => gen.url_value(t.url),
            Col::Ip => gen.ip_value(t.ip),
            Col::Bytes => Value::Int(i64::from(t.bytes)),
            Col::Atime => Value::Timestamp(t.ts),
        })
        .collect()
}

fn trigger_of(after_batch: &[i64], close: i64) -> u64 {
    after_batch.partition_point(|&m| m < close) as u64
}

/// Every window `spec` must have produced over the released input.
pub fn reference(spec: &RefSpec, rel: &Released, gen: &Gen) -> Vec<RefWindow> {
    match spec.window {
        Window::Time {
            visible_s,
            advance_s,
            shift_s,
        } => time_windows(
            spec,
            rel,
            gen,
            visible_s * SEC,
            advance_s * SEC,
            shift_s * SEC,
        ),
        Window::Rows { visible, advance } => row_windows(spec, rel, gen, visible, advance),
    }
}

fn time_windows(
    spec: &RefSpec,
    rel: &Released,
    gen: &Gen,
    visible: i64,
    advance: i64,
    shift: i64,
) -> Vec<RefWindow> {
    let mut out = Vec::new();
    let (Some(first), Some(last)) = (rel.tuples.first(), rel.tuples.last()) else {
        return out;
    };
    // With a tumbling first stage the window's input starts at that
    // stage's first close, not at the first tuple.
    let anchor = if shift > 0 {
        (first.ts.div_euclid(SEC) + 1) * SEC
    } else {
        first.ts
    };
    let mut close = (anchor.div_euclid(advance) + 1) * advance;
    // Released order is timestamp order, so a window is a contiguous run.
    let ts_at = |i: usize| rel.tuples[i].ts;
    let (mut lo, mut hi) = (0usize, 0usize);
    let mut state = match &spec.shape {
        Shape::Agg { key, aggs, .. } => Some(AggState::new(*key, aggs)),
        Shape::Rows { .. } => None,
    };
    while close <= last.ts {
        let (from, to) = (close - visible - shift, close - shift);
        let mut h = WindowHasher::default();
        match &spec.shape {
            Shape::Agg {
                aggs,
                filter,
                close_col,
                ..
            } => {
                let st = state.as_mut().expect("agg state");
                while hi < rel.tuples.len() && ts_at(hi) < to {
                    if passes(*filter, &rel.tuples[hi]) {
                        st.apply(&rel.tuples[hi], true);
                    }
                    hi += 1;
                }
                while lo < hi && ts_at(lo) < from {
                    if passes(*filter, &rel.tuples[lo]) {
                        st.apply(&rel.tuples[lo], false);
                    }
                    lo += 1;
                }
                st.emit(gen, aggs, close_col.then_some(close), &mut h);
            }
            Shape::Rows { filter, cols } => {
                while hi < rel.tuples.len() && ts_at(hi) < to {
                    hi += 1;
                }
                while lo < hi && ts_at(lo) < from {
                    lo += 1;
                }
                for t in rel.tuples[lo..hi].iter().filter(|t| passes(*filter, t)) {
                    h.row(&project(gen, cols, t));
                }
            }
        }
        let (hash, rows) = h.finish();
        out.push(RefWindow {
            close,
            hash,
            rows,
            trigger_batch: trigger_of(&rel.max_ts_after_batch, close),
        });
        close += advance;
    }
    out
}

fn row_windows(
    spec: &RefSpec,
    rel: &Released,
    gen: &Gen,
    visible: usize,
    advance: usize,
) -> Vec<RefWindow> {
    let Shape::Agg {
        key,
        aggs,
        filter: Filter::All,
        close_col: false,
    } = &spec.shape
    else {
        panic!("row windows are only catalogued as unfiltered aggregates");
    };
    let mut out = Vec::new();
    let mut end = advance;
    while end <= rel.tuples.len() {
        let start = end.saturating_sub(visible);
        let mut st = AggState::new(*key, aggs);
        for t in &rel.tuples[start..end] {
            st.apply(t, true);
        }
        let mut h = WindowHasher::default();
        st.emit(gen, aggs, None, &mut h);
        let (hash, rows) = h.finish();
        out.push(RefWindow {
            // A row window closes on arrival, at the newest tuple's time.
            close: rel.tuples[end - 1].ts,
            hash,
            rows,
            trigger_batch: rel.count_after_batch.partition_point(|&c| c < end as u64) as u64,
        });
        end += advance;
    }
    out
}

// ---- comparing a run with its reference ----------------------------------

/// One delivered window as the subscriber recorded it.
#[derive(Debug, Clone, Copy)]
pub struct Delivered {
    pub close: i64,
    pub hash: u64,
    pub rows: u32,
    /// Nanoseconds since the run's clock origin when the subscriber
    /// thread held the decoded window.
    pub at_ns: u64,
}

/// Why windows failed, by kind; each failing window counts once.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Mismatch {
    pub missing: u64,
    pub unexpected: u64,
    pub reordered: u64,
    pub wrong: u64,
    pub first: Option<String>,
}

impl Mismatch {
    pub fn failures(&self) -> u64 {
        self.missing + self.unexpected + self.reordered + self.wrong
    }

    fn note(&mut self, what: String) {
        if self.first.is_none() {
            self.first = Some(what);
        }
    }

    pub fn absorb(&mut self, other: Mismatch) {
        self.missing += other.missing;
        self.unexpected += other.unexpected;
        self.reordered += other.reordered;
        self.wrong += other.wrong;
        if self.first.is_none() {
            self.first = other.first;
        }
    }
}

/// Compare one subscriber's delivered sequence with the expected one:
/// position by position, so a missing, duplicated, reordered or altered
/// window is each a failure.
pub fn compare(name: &str, expected: &[RefWindow], got: &[Delivered]) -> Mismatch {
    let mut m = Mismatch::default();
    let mut last_close = i64::MIN;
    for (i, e) in expected.iter().enumerate() {
        match got.get(i) {
            None => {
                m.missing += 1;
                m.note(format!(
                    "{name}: window {i} (close {}) never arrived",
                    e.close
                ));
            }
            Some(g) => {
                if g.close < last_close {
                    m.reordered += 1;
                    m.note(format!(
                        "{name}: window {i} close {} after {last_close}",
                        g.close
                    ));
                } else if g.close != e.close || g.hash != e.hash || g.rows != e.rows {
                    m.wrong += 1;
                    m.note(format!(
                        "{name}: window {i} expected close {} rows {} hash {:016x}, \
                         got close {} rows {} hash {:016x}",
                        e.close, e.rows, e.hash, g.close, g.rows, g.hash
                    ));
                }
                last_close = g.close;
            }
        }
    }
    if got.len() > expected.len() {
        m.unexpected += (got.len() - expected.len()) as u64;
        m.note(format!(
            "{name}: {} windows beyond the {} expected",
            got.len() - expected.len(),
            expected.len()
        ));
    }
    m
}
