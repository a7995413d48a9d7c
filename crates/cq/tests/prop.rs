//! Property-based tests for window semantics and ordering.

use std::sync::Arc;

use proptest::prelude::*;
use streamrel_cq::{ReorderBuffer, SharedRegistry};
use streamrel_ivm::{Clock, IvmProgram, IvmShape, StreamPrefix, WindowOutput};
use streamrel_sql::plan::LogicalPlan;
use streamrel_types::{Column, DataType, Row, Schema, Value};

fn tup(ts: i64) -> Row {
    vec![Value::Timestamp(ts), Value::Int(ts)]
}

/// A raw-rows slice store with one `<VISIBLE visible ADVANCE advance>`
/// member on `clock`: where every re-evaluated window's tuples live.
fn rows_store(clock: Clock, visible: i64, advance: i64) -> IvmProgram {
    let cols = vec![
        Column::not_null("ts", DataType::Timestamp),
        Column::new("v", DataType::Int),
    ];
    IvmProgram {
        shape: IvmShape::Rows {
            prefix: StreamPrefix {
                stream: "s".into(),
                input_schema: Arc::new(Schema::new(cols).unwrap()),
                clock,
                ops: Vec::new(),
            },
        },
        post_plan: LogicalPlan::OneRow,
        visible,
        advance,
        order: None,
    }
}

/// The brute-force reference: keep every row, walk the advance grid from
/// the first close the window owes, filter per close. A base stream's
/// window is `[lo, close)` and its tuple passes the closes at or before
/// it; a derived stream's batch is stamped at its close and belongs to the
/// window closing there — `(lo, close]`.
#[derive(Default)]
struct Reference {
    seen: Vec<i64>,
    next_close: Option<i64>,
}

impl Reference {
    fn feed(
        &mut self,
        w: (i64, i64, bool),
        batch: &[i64],
        bound: Option<i64>,
    ) -> Vec<(i64, Vec<i64>)> {
        let (visible, advance, derived) = w;
        let late = i64::from(derived);
        if let (None, Some(first)) = (self.next_close, batch.first()) {
            self.next_close = Some((first - late).div_euclid(advance) * advance + advance);
        }
        self.seen.extend(batch);
        let upto = batch.last().map(|ts| ts - late).max(bound);
        let mut out = Vec::new();
        while let Some(close) = self.next_close.filter(|c| Some(*c) <= upto) {
            let lo = close - visible;
            let inside = |ts: &&i64| match derived {
                false => lo <= **ts && **ts < close,
                true => lo < **ts && **ts <= close,
            };
            out.push((close, self.seen.iter().filter(inside).copied().collect()));
            self.next_close = Some(close + advance);
        }
        out
    }
}

/// Closed windows as `(cq_close, the timestamps of their rows)`.
fn windows(closed: Vec<(i64, WindowOutput)>) -> Vec<(i64, Vec<i64>)> {
    let ts = |r: &Row| r[0].as_timestamp().unwrap();
    let rows = |w: WindowOutput| w.into_relation().rows().iter().map(ts).collect();
    closed
        .into_iter()
        .map(|(close, w)| (close, rows(w)))
        .collect()
}

proptest! {
    /// A time window over a raw-rows store emits exactly what the
    /// reference does — the same closes, each with the same rows in the
    /// same order — whatever the window, the timestamps (ties and
    /// boundary hits included), the batch cuts, the heartbeats, the resume
    /// point and the stream's interval convention. RSTREAM coverage (each
    /// tuple in exactly VISIBLE ÷ ADVANCE windows when that divides) and
    /// tumbling windows partitioning the stream follow from the filter.
    #[test]
    fn rows_store_member_matches_brute_force(
        visible in 1i64..40,
        advance in 1i64..40,
        derived in any::<bool>(),
        resume in prop::option::of(0i64..120),
        // (time step, kind): 0..=5 a tuple, 6 a tuple ending its batch,
        // 7 a heartbeat ending it.
        events in prop::collection::vec((0i64..25, 0u8..8), 1..80),
    ) {
        let mut stores = SharedRegistry::default();
        let clock = Clock::Time { cqtime: 0, derived };
        let (slot, _) = stores.join(&rows_store(clock, visible, advance), true, None).unwrap();
        let mut reference = Reference::default();
        if let Some(watermark) = resume {
            let next = stores.resume_after(slot, watermark);
            reference.next_close = Some(watermark.div_euclid(advance) * advance + advance);
            prop_assert_eq!(next, reference.next_close);
        }
        let (mut now, mut batch) = (resume.unwrap_or(0), Vec::new());
        for (i, (step, kind)) in events.iter().enumerate() {
            now += step;
            if *kind < 7 {
                batch.push(now);
            }
            if *kind < 6 && i + 1 < events.len() {
                continue;
            }
            // A derived stream's batch always carries its close.
            let bound = (derived || *kind == 7).then_some(now);
            let rows: Arc<[Row]> = batch.iter().map(|ts| tup(*ts)).collect();
            let mut advanced = stores.advance(&rows, bound, false, None, None);
            prop_assert!(advanced.failed.is_empty());
            let got = windows(advanced.closed.remove(&slot).unwrap_or_default());
            let want = reference.feed((visible, advance, derived), &batch, bound);
            prop_assert_eq!(got, want, "batch {:?} bound {:?}", batch, bound);
            batch.clear();
        }
    }

    /// A ROWS window over its store closes at every `advance`-th tuple
    /// with the last `visible` tuples — fewer only before `visible` have
    /// arrived — whatever the batch cuts, and no heartbeat closes one. A
    /// close is stamped with the newest CQTIME taken or, over a stream with
    /// no CQTIME, the running row count.
    #[test]
    fn row_window_counts(
        visible in 1i64..20,
        advance in 1i64..20,
        cqtime in any::<bool>(),
        // (time step, ends its batch, a heartbeat follows), from -50.
        events in prop::collection::vec((0i64..5, any::<bool>(), any::<bool>()), 1..200),
    ) {
        let clock = Clock::Rows { cqtime: cqtime.then_some(0) };
        let mut stores = SharedRegistry::default();
        let (slot, _) = stores.join(&rows_store(clock, visible, advance), true, None).unwrap();
        let (mut now, mut batch, mut seen) = (-50i64, Vec::new(), Vec::new());
        for (i, (step, ends, heartbeat)) in events.iter().enumerate() {
            now += step;
            batch.push(now);
            if !ends && i + 1 < events.len() {
                continue;
            }
            let rows: Arc<[Row]> = batch.iter().map(|ts| tup(*ts)).collect();
            let mut want = Vec::new();
            for ts in batch.drain(..) {
                seen.push(ts);
                if seen.len() as i64 % advance == 0 {
                    let newest = seen.iter().max().copied();
                    let stamp = newest.filter(|_| cqtime).unwrap_or(seen.len() as i64);
                    let from = seen.len().saturating_sub(visible as usize);
                    want.push((stamp, seen[from..].to_vec()));
                }
            }
            let mut advanced = stores.advance(&rows, None, false, None, None);
            let got = windows(advanced.closed.remove(&slot).unwrap_or_default());
            prop_assert_eq!(got, want);
            if *heartbeat {
                let advanced = stores.advance(&Arc::from([]), Some(now + 1_000), false, None, None);
                prop_assert!(advanced.closed.is_empty(), "a heartbeat closed a ROWS window");
            }
        }
    }

    /// ReorderBuffer: released output is time-sorted, and with slack ≥ max
    /// disorder, nothing is dropped.
    #[test]
    fn reorder_buffer_sorts_within_slack(
        base in prop::collection::vec(0i64..100_000, 1..60),
        jitter in prop::collection::vec(-500i64..500, 1..60),
    ) {
        let n = base.len().min(jitter.len());
        let mut ordered: Vec<i64> = base[..n].to_vec();
        ordered.sort_unstable();
        let jittered: Vec<i64> = ordered.iter().zip(&jitter[..n]).map(|(a, j)| a + j).collect();
        let mut buf = ReorderBuffer::new(0, 1_001); // slack > max disorder (2*500)
        let mut out = Vec::new();
        for ts in &jittered {
            out.extend(buf.push(tup(*ts)).unwrap());
        }
        out.extend(buf.flush());
        prop_assert_eq!(out.len(), n, "{} late drops", buf.late_drops());
        let released: Vec<i64> = out.iter().map(|r| r[0].as_timestamp().unwrap()).collect();
        let mut sorted = released.clone();
        sorted.sort_unstable();
        prop_assert_eq!(released, sorted);
    }
}
