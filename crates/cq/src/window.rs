//! Count windows: the two window kinds with no time grid to slice on.
//!
//! A window clause turns an ordered unbounded stream into a sequence of
//! finite relations (the paper's Figure 1). A *time* window `<VISIBLE v
//! ADVANCE a>` produces, every `a`, the tuples whose CQTIME falls in
//! `[close - v, close)`, with close boundaries aligned to multiples of `a`
//! (so two CQs with the same ADVANCE close at identical instants — a
//! prerequisite for slice sharing and for Example 5's equality join on
//! `cq_close` values); every time window is a member of a slice store
//! ([`crate::shared`]), whatever its plan. What is left here are the
//! windows that count instead: `<VISIBLE n ROWS ADVANCE m ROWS>` over
//! tuples and `<SLICES n WINDOWS>` over a derived stream's result batches.
//! Which one a CQ gets is read off the window kind in its plan.

use std::collections::VecDeque;

use streamrel_types::{Error, Result, Row, Timestamp};

use streamrel_sql::WindowSpec;

/// One closed window: its close timestamp and the rows it contains.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedWindow {
    /// The window's `cq_close(*)` value.
    pub close: Timestamp,
    /// The window's rows, in arrival order.
    pub rows: Vec<Row>,
}

/// Per-CQ count-window state: feed batches with [`WindowBuffer::push`],
/// which returns the windows that closed as a consequence.
#[derive(Debug)]
pub enum WindowBuffer {
    /// Row-count window.
    Rows(RowWindow),
    /// `<SLICES n WINDOWS>` over a derived stream's result batches.
    Slices(SliceWindow),
}

impl WindowBuffer {
    /// Build a buffer for a count-window spec. `cqtime` is the position of
    /// the stream's time column, which stamps a row window's closes.
    pub fn new(spec: WindowSpec, cqtime: Option<usize>) -> Result<WindowBuffer> {
        match spec {
            WindowSpec::Rows { visible, advance } => Ok(WindowBuffer::Rows(RowWindow {
                visible: visible as usize,
                advance: advance as usize,
                cqtime,
                buf: VecDeque::new(),
                since_emit: 0,
                max_ts: i64::MIN,
                total: 0,
            })),
            WindowSpec::Slices { count } => Ok(WindowBuffer::Slices(SliceWindow {
                count: count as usize,
                batches: VecDeque::new(),
            })),
            WindowSpec::Time { .. } => Err(Error::stream(
                "a time window's tuples live in its stream's slice store",
            )),
            // Defense in depth: admission (`streamrel-check`) rejects
            // unbounded scans before a CQ is built, so reaching this arm
            // means a caller bypassed the check.
            WindowSpec::Unbounded => Err(Error::stream(
                "stream scanned without a window bound; \
                 the plan was not admission-checked",
            )),
        }
    }

    /// Feed one batch of the stream: a row window counts its tuples (a
    /// heartbeat, which has none, closes nothing — count windows are
    /// data-driven), a slices window takes the whole batch as the result
    /// of the upstream window that closed at `bound`.
    pub fn push(&mut self, rows: &[Row], bound: Option<Timestamp>) -> Result<Vec<ClosedWindow>> {
        match (self, bound) {
            (WindowBuffer::Rows(w), _) => Ok(rows.iter().flat_map(|r| w.push(r.clone())).collect()),
            (WindowBuffer::Slices(w), Some(close)) => Ok(w.push_batch(close, rows.to_vec())),
            (WindowBuffer::Slices(_), None) => Err(Error::stream(
                "slices windows consume whole result batches, not tuples",
            )),
        }
    }
}

/// Smallest multiple of `advance` strictly greater than `watermark`: the
/// first close boundary not yet emitted when resuming after `watermark`,
/// and the first one a window aligns to after a tuple at `watermark`.
pub(crate) fn align_next_close(watermark: Timestamp, advance: i64) -> Timestamp {
    (watermark.div_euclid(advance) + 1) * advance
}

/// Row-count window state.
#[derive(Debug)]
pub struct RowWindow {
    visible: usize,
    advance: usize,
    cqtime: Option<usize>,
    buf: VecDeque<Row>,
    since_emit: usize,
    /// Largest CQTIME seen; `i64::MIN` until one arrives, so pre-epoch
    /// (negative) timestamps are reported faithfully rather than masked by
    /// a zero default.
    max_ts: Timestamp,
    /// Rows ever pushed (the close value when no CQTIME is available).
    total: u64,
}

impl RowWindow {
    fn push(&mut self, row: Row) -> Vec<ClosedWindow> {
        if let Some(i) = self.cqtime {
            if let Some(v) = row.get(i) {
                if let Ok(t) = v.as_timestamp() {
                    self.max_ts = self.max_ts.max(t);
                }
            }
        }
        self.buf.push_back(row);
        while self.buf.len() > self.visible {
            self.buf.pop_front();
        }
        self.since_emit += 1;
        self.total += 1;
        if self.since_emit >= self.advance {
            self.since_emit = 0;
            vec![ClosedWindow {
                // Row windows close on arrival; cq_close is the newest
                // tuple's time, or the running row count when no CQTIME
                // value has been observed.
                close: if self.max_ts == i64::MIN {
                    self.total as i64
                } else {
                    self.max_ts
                },
                rows: self.buf.iter().cloned().collect(),
            }]
        } else {
            Vec::new()
        }
    }
}

/// `<SLICES n WINDOWS>` state: each upstream batch is one slice.
#[derive(Debug)]
pub struct SliceWindow {
    count: usize,
    batches: VecDeque<(Timestamp, Vec<Row>)>,
}

impl SliceWindow {
    fn push_batch(&mut self, close: Timestamp, rows: Vec<Row>) -> Vec<ClosedWindow> {
        self.batches.push_back((close, rows));
        while self.batches.len() > self.count {
            self.batches.pop_front();
        }
        if self.batches.len() == self.count {
            vec![ClosedWindow {
                close,
                rows: self
                    .batches
                    .iter()
                    .flat_map(|(_, b)| b.iter().cloned())
                    .collect(),
            }]
        } else {
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamrel_types::row;
    use streamrel_types::Value;

    fn tup(ts: i64) -> Row {
        row![Value::Timestamp(ts), "x"]
    }

    fn row_buf(visible: u64, advance: u64, cqtime: Option<usize>) -> WindowBuffer {
        WindowBuffer::new(WindowSpec::Rows { visible, advance }, cqtime).unwrap()
    }

    fn slices_buf(count: u64) -> WindowBuffer {
        WindowBuffer::new(WindowSpec::Slices { count }, None).unwrap()
    }

    #[test]
    fn row_window_counts() {
        let mut w = row_buf(3, 2, Some(0));
        let batch: Vec<Row> = (0..7).map(tup).collect();
        // A heartbeat between batches closes nothing.
        let mut closes = w.push(&batch[..3], None).unwrap();
        closes.extend(w.push(&[], Some(100)).unwrap());
        closes.extend(w.push(&batch[3..], Some(6)).unwrap());
        // Emits after rows 2, 4, 6 (every 2 rows).
        assert_eq!(closes.len(), 3);
        assert_eq!(closes[0].rows.len(), 2, "first window not yet full");
        assert_eq!(closes[1].rows.len(), 3);
        assert_eq!(closes[2].rows.len(), 3);
        // cq_close for row windows is the newest tuple time.
        assert_eq!(closes[2].close, 5);
    }

    #[test]
    fn slices_window_concatenates_batches() {
        let mut w = slices_buf(2);
        assert!(w.push(&[row![1i64]], Some(100)).unwrap().is_empty());
        let closes = w.push(&[row![2i64], row![3i64]], Some(200)).unwrap();
        assert_eq!(closes.len(), 1);
        assert_eq!(closes[0].close, 200);
        assert_eq!(closes[0].rows.len(), 3);
        // Rolls forward: next batch drops the oldest.
        let closes = w.push(&[row![4i64]], Some(300)).unwrap();
        assert_eq!(closes[0].rows.len(), 3);
        assert_eq!(closes[0].rows[0], row![2i64]);
    }

    #[test]
    fn slices_one_window_passes_batches_through() {
        let mut w = slices_buf(1);
        let closes = w.push(&[row![1i64]], Some(100)).unwrap();
        assert_eq!(closes.len(), 1);
        assert_eq!(closes[0].rows, vec![row![1i64]]);
        // An empty batch is still one upstream window.
        let closes = w.push(&[], Some(200)).unwrap();
        assert_eq!((closes[0].close, closes[0].rows.len()), (200, 0));
    }

    #[test]
    fn tuples_to_slices_buffer_rejected() {
        assert!(slices_buf(1).push(&[row![1i64]], None).is_err());
    }

    #[test]
    fn time_windows_have_no_buffer() {
        let spec = WindowSpec::Time {
            visible: 2,
            advance: 1,
        };
        assert!(WindowBuffer::new(spec, Some(0)).is_err());
        assert!(WindowBuffer::new(WindowSpec::Unbounded, Some(0)).is_err());
    }

    #[test]
    fn row_window_negative_timestamps_not_masked() {
        // Regression: max_ts used to start at 0, so pre-epoch streams
        // reported close = 0 instead of the newest (negative) tuple time.
        let mut w = row_buf(2, 2, Some(0));
        let closes = w.push(&[tup(-500), tup(-400)], None).unwrap();
        assert_eq!(closes.len(), 1);
        assert_eq!(closes[0].close, -400, "close is the newest tuple time");
    }

    #[test]
    fn row_window_without_cqtime_uses_running_count() {
        let mut w = row_buf(2, 2, None);
        let batch: Vec<Row> = (0..6).map(|i| row![i as i64]).collect();
        let closes = w.push(&batch, None).unwrap();
        let seen: Vec<Timestamp> = closes.iter().map(|c| c.close).collect();
        assert_eq!(seen, vec![2, 4, 6], "running row count stands in for time");
    }

    #[test]
    fn closes_align_to_the_advance_grid_on_either_side_of_zero() {
        assert_eq!(align_next_close(0, 60), 60);
        assert_eq!(align_next_close(59, 60), 60);
        assert_eq!(align_next_close(60, 60), 120);
        assert_eq!(align_next_close(-90, 60), -60);
        assert_eq!(align_next_close(-60, 60), 0);
    }
}
