//! Property-based tests for window semantics and ordering.

use std::sync::Arc;

use proptest::prelude::*;
use streamrel_cq::{ReorderBuffer, SharedRegistry, WindowBuffer};
use streamrel_ivm::{IvmProgram, IvmShape, StreamPrefix, WindowOutput};
use streamrel_sql::plan::LogicalPlan;
use streamrel_sql::WindowSpec;
use streamrel_types::{Column, DataType, Row, Schema, Value};

fn tup(ts: i64) -> Row {
    vec![Value::Timestamp(ts), Value::Int(ts)]
}

/// A raw-rows slice store with one `<VISIBLE visible ADVANCE advance>`
/// member: where every re-evaluated time window's tuples live.
fn rows_store(visible: i64, advance: i64, derived: bool) -> IvmProgram {
    let cols = vec![
        Column::not_null("ts", DataType::Timestamp),
        Column::new("v", DataType::Int),
    ];
    IvmProgram {
        shape: IvmShape::Rows {
            prefix: StreamPrefix {
                stream: "s".into(),
                input_schema: Arc::new(Schema::new(cols).unwrap()),
                cqtime: 0,
                derived,
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
        let (slot, _) = stores.join(&rows_store(visible, advance, derived), true, None);
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
            let mut advanced = stores.advance(&rows, bound, None, None);
            prop_assert!(advanced.failed.is_empty());
            let got: Vec<(i64, Vec<i64>)> = advanced
                .closed
                .remove(&slot)
                .unwrap_or_default()
                .into_iter()
                .map(|(close, window)| {
                    let WindowOutput::Ready(rel) = window else {
                        panic!("raw rows need no table");
                    };
                    let ts = rel.rows().iter().map(|r| r[0].as_timestamp().unwrap());
                    (close, ts.collect())
                })
                .collect();
            let want = reference.feed((visible, advance, derived), &batch, bound);
            prop_assert_eq!(got, want, "batch {:?} bound {:?}", batch, bound);
            batch.clear();
        }
    }

    /// Row windows emit every `advance` rows with at most `visible` rows.
    #[test]
    fn row_window_counts(
        visible in 1u64..20,
        advance in 1u64..20,
        n in 1usize..200,
    ) {
        let mut w = WindowBuffer::new(WindowSpec::Rows { visible, advance }, Some(0)).unwrap();
        let mut emitted = 0usize;
        for i in 0..n {
            let closes = w.push(&[tup(i as i64)], None).unwrap();
            for c in &closes {
                prop_assert!(c.rows.len() as u64 <= visible);
                emitted += 1;
            }
        }
        prop_assert_eq!(emitted, n / advance as usize);
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
