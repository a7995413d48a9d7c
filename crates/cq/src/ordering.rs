//! Out-of-order tolerance.
//!
//! Streams are "ordered unbounded relations" (§3.1); real feeds are only
//! approximately ordered. A [`ReorderBuffer`] with slack `s` holds tuples
//! until the watermark (max timestamp seen minus `s`) passes them, then
//! releases them in timestamp order. Tuples older than the watermark at
//! arrival are *late*: counted and dropped (the window they belonged to has
//! already closed).

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use streamrel_types::{Error, Interval, Result, Row, Timestamp, Value};

/// Min-heap entry ordered by `(ts, seq)`; the row payload is ignored for
/// ordering (rows have no total order of their own).
#[derive(Debug)]
struct Entry {
    ts: Timestamp,
    seq: u64,
    row: Row,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.ts == other.ts && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the oldest on top.
        (other.ts, other.seq).cmp(&(self.ts, self.seq))
    }
}

/// Buffers slightly-out-of-order tuples and re-emits them ordered.
#[derive(Debug)]
pub struct ReorderBuffer {
    cqtime: usize,
    slack: Interval,
    heap: BinaryHeap<Entry>,
    seq: u64,
    max_ts: Option<Timestamp>,
    late_drops: u64,
}

impl ReorderBuffer {
    /// New buffer: `cqtime` is the timestamp column, `slack` the maximum
    /// disorder tolerated (0 = strict ordering enforcement).
    pub fn new(cqtime: usize, slack: Interval) -> ReorderBuffer {
        ReorderBuffer {
            cqtime,
            slack,
            heap: BinaryHeap::new(),
            seq: 0,
            max_ts: None,
            late_drops: 0,
        }
    }

    fn ts_of(&self, row: &Row) -> Result<Timestamp> {
        match row.get(self.cqtime) {
            Some(Value::Timestamp(t)) => Ok(*t),
            Some(Value::Int(t)) => Ok(*t),
            _ => Err(Error::stream("CQTIME column is not a timestamp")),
        }
    }

    /// Offer a tuple; returns the tuples now releasable, in time order.
    /// Late tuples (older than watermark) are dropped and counted.
    pub fn push(&mut self, row: Row) -> Result<Vec<Row>> {
        let ts = self.ts_of(&row)?;
        if let Some(wm) = self.watermark() {
            if ts < wm {
                self.late_drops += 1;
                return Ok(Vec::new());
            }
        }
        self.max_ts = Some(self.max_ts.map_or(ts, |m| m.max(ts)));
        self.heap.push(Entry {
            ts,
            seq: self.seq,
            row,
        });
        self.seq += 1;
        Ok(self.drain_ready())
    }

    /// Explicit time progress (heartbeat / punctuation): event time has
    /// reached `ts`, so the watermark rises to at least `ts` and every
    /// held tuple at or below it is released, in time order — the caller
    /// feeds them downstream *before* closing windows to `ts`. Tuples
    /// older than `ts` that arrive afterwards are late.
    pub fn advance_to(&mut self, ts: Timestamp) -> Vec<Row> {
        let raised = ts.saturating_add(self.slack);
        self.max_ts = Some(self.max_ts.map_or(raised, |m| m.max(raised)));
        self.drain_ready()
    }

    /// Current watermark: `max_ts - slack`.
    pub fn watermark(&self) -> Option<Timestamp> {
        self.max_ts.map(|m| m - self.slack)
    }

    /// Tuples dropped for arriving after their window closed.
    pub fn late_drops(&self) -> u64 {
        self.late_drops
    }

    /// Number of tuples still held back.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    fn drain_ready(&mut self) -> Vec<Row> {
        let Some(wm) = self.watermark() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        while let Some(ready) = self.heap.peek_mut().filter(|e| e.ts <= wm) {
            out.push(PeekMut::pop(ready).row);
        }
        out
    }

    /// Flush everything (stream end / shutdown), in time order.
    pub fn flush(&mut self) -> Vec<Row> {
        let mut out = Vec::with_capacity(self.heap.len());
        while let Some(e) = self.heap.pop() {
            out.push(e.row);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamrel_types::row;

    fn tup(ts: i64) -> Row {
        row![Value::Timestamp(ts), ts]
    }

    fn ts_list(rows: &[Row]) -> Vec<i64> {
        rows.iter().map(|r| r[0].as_timestamp().unwrap()).collect()
    }

    #[test]
    fn in_order_stream_flows_through() {
        let mut b = ReorderBuffer::new(0, 0);
        let mut released = Vec::new();
        for ts in [1, 2, 3] {
            released.extend(b.push(tup(ts)).unwrap());
        }
        assert_eq!(ts_list(&released), vec![1, 2, 3]);
        assert_eq!(b.late_drops(), 0);
    }

    #[test]
    fn disorder_within_slack_reordered() {
        let mut b = ReorderBuffer::new(0, 10);
        let mut released = Vec::new();
        for ts in [5, 15, 12, 20, 18, 30] {
            released.extend(b.push(tup(ts)).unwrap());
        }
        released.extend(b.flush());
        assert_eq!(ts_list(&released), vec![5, 12, 15, 18, 20, 30]);
        assert_eq!(b.late_drops(), 0);
    }

    #[test]
    fn late_tuples_dropped_and_counted() {
        let mut b = ReorderBuffer::new(0, 5);
        b.push(tup(100)).unwrap();
        // Watermark is 95; a tuple at 90 is late.
        let out = b.push(tup(90)).unwrap();
        assert!(out.is_empty());
        assert_eq!(b.late_drops(), 1);
        // 96 is within slack.
        b.push(tup(96)).unwrap();
        assert_eq!(b.late_drops(), 1);
    }

    #[test]
    fn heartbeat_releases_held_tuples_and_makes_stragglers_late() {
        let mut b = ReorderBuffer::new(0, 20);
        for ts in [1, 5, 12] {
            assert!(b.push(tup(ts)).unwrap().is_empty());
        }
        assert_eq!(ts_list(&b.advance_to(10)), vec![1, 5]);
        assert_eq!(b.watermark(), Some(10));
        // Below the punctuated time: late. At or above it: still admitted.
        assert!(b.push(tup(9)).unwrap().is_empty());
        assert_eq!(b.late_drops(), 1);
        assert_eq!(ts_list(&b.push(tup(40)).unwrap()), vec![12]);
        // A heartbeat behind the watermark changes nothing.
        assert!(b.advance_to(15).is_empty());
        assert_eq!(b.watermark(), Some(20));
    }

    #[test]
    fn zero_slack_releases_immediately() {
        let mut b = ReorderBuffer::new(0, 0);
        let out = b.push(tup(7)).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn ties_preserve_arrival_order() {
        let mut b = ReorderBuffer::new(0, 5);
        let r1 = row![Value::Timestamp(10), "first"];
        let r2 = row![Value::Timestamp(10), "second"];
        b.push(r1.clone()).unwrap();
        b.push(r2.clone()).unwrap();
        let out = b.flush();
        assert_eq!(out, vec![r1, r2]);
    }

    #[test]
    fn bad_time_column_errors() {
        let mut b = ReorderBuffer::new(0, 0);
        assert!(b.push(row!["not a time"]).is_err());
    }
}
