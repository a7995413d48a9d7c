//! Archive and recovery (§4): what `Db::open` rebuilds from the Active
//! Tables, and the archived windows `SubscribeFrom` serves.
//!
//! After WAL and DDL replay, every derived stream's producer resumes after
//! its persisted watermark, and the Active Tables replay through the
//! time-window CQs that produce a derived stream from them, deepest stream
//! first: each derived stream's APPEND archive, then each base stream's raw
//! one. A stream replays from the earliest, over those CQs, of watermark −
//! (VISIBLE − ADVANCE), what their next windows still cover, so every
//! in-flight window is whole again. Replayed rows reach no channel of their
//! own stream. The windows a crash left owed take `pump` to their derived
//! streams as usual, and deepest first makes that exactly once: a stream's
//! consumers are rebuilt from its archive before anything upstream adds to
//! it. Count windows (ROWS, SLICES) have no cursor to resume and see no
//! replayed row. A stream with no APPEND archive, and a derived stream with
//! no `cq_close(*)` column, are not replayed (DESIGN.md §3.5).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use streamrel_cq::recovery::load_watermark;
use streamrel_cq::CqOutput;
use streamrel_sql::ast::{ChannelMode, WindowSpec};
use streamrel_types::{Error, Relation, Result, Row, Timestamp};

use super::Db;
use crate::shard::{Shard, ShardState};

/// One stream the open-time step replays: name, shard, where the replay
/// starts and, for a base stream, its raw archive and CQTIME column.
type Replay = (String, Arc<Shard>, Timestamp, Option<(u32, usize)>);

impl Db {
    /// The open-time step (module docs). An archive that cannot be read
    /// fails the open; a window a CQ fails to rebuild or emit is lost, as
    /// it would be live, and recorded on the trace ring.
    pub(super) fn recover_cqs(&self) -> Result<()> {
        let (start, metrics) = (Instant::now(), self.engine.metrics());
        let replayed = metrics.counter("db.recovery.rows_replayed");
        let trace = metrics.trace();
        for (stream, shard, from, raw) in self.replay_plan()? {
            let batches: Vec<(Arc<[Row]>, _)> = match raw {
                Some((table, cqtime)) => vec![(self.raw_tail(table, cqtime, from)?.into(), None)],
                None => (self.archived_windows(&stream, from)?.into_iter())
                    .map(|w| (w.relation.into_rows().into(), Some(w.close)))
                    .collect(),
            };
            let state = &mut *self.lock_shard(&shard);
            for (rows, bound) in batches {
                replayed.add(rows.len() as u64);
                let (emitted, err) = self.consume(state, &stream, &rows, bound, true);
                let pumped = self.pump(state, emitted, start).err();
                for e in err.into_iter().chain(pumped) {
                    trace.record("db.recovery.error", &stream, e.to_string(), 0);
                }
            }
            // A tuple older than the archive's newest is as late as it was.
            if let Some(rt) = state.streams.get_mut(&stream) {
                if let Some(rb) = &mut rt.reorder {
                    rb.advance_to(rt.high_water);
                }
            }
        }
        Ok(())
    }

    /// Resume every derived stream's producer after its persisted
    /// watermark and plan the replay under the catalog, which is released
    /// before any CQ runs. Deepest first is latest producer first: a
    /// derived stream is created after its upstream.
    fn replay_plan(&self) -> Result<Vec<Replay>> {
        let catalog = self.catalog.lock();
        let mut from = HashMap::new();
        for (name, d) in &catalog.streams {
            let Some(cq_id) = d.producer else { continue };
            let wm = load_watermark(&self.engine, name)?;
            let ShardState { streams, cqs, .. } = &mut *d.shard.state.lock();
            let Some(entry) = cqs.get_mut(&cq_id) else {
                continue;
            };
            let upstream = entry.cq.stream().to_ascii_lowercase();
            if let (Some(wm), Some(rt)) = (wm, streams.get_mut(&upstream)) {
                entry.cq.resume_after(wm, &mut rt.stores);
            }
            // No watermark: no window has closed since creation.
            if let WindowSpec::Time { visible, advance } = entry.cq.window() {
                let start = wm.map_or(Timestamp::MIN, |wm| wm.saturating_sub(visible - advance));
                let at = from.entry(upstream).or_insert(start);
                *at = (*at).min(start);
            }
        }
        let mut plan = Vec::new();
        for (name, d) in &catalog.streams {
            let archive = (d.shard.state.lock().streams.get(name))
                .and_then(|rt| rt.channels.iter().find(|c| c.mode == ChannelMode::Append))
                .map(|c| c.table_id);
            if let (Some(&from), Some(table), Some(cqtime)) =
                (from.get(name), archive, d.decl.cqtime)
            {
                let raw = d.producer.is_none().then_some((table, cqtime));
                plan.push((d.producer, (name.clone(), d.shard.clone(), from, raw)));
            }
        }
        plan.sort_by(|(a, x), (b, y)| (b, &x.0).cmp(&(a, &y.0)));
        Ok(plan.into_iter().map(|(_, r)| r).collect())
    }

    /// The rows of a raw archive at or after `from`, in heap (= archive)
    /// order.
    fn raw_tail(&self, table: u32, cqtime: usize, from: Timestamp) -> Result<Vec<Row>> {
        let mut rows = Vec::new();
        self.engine
            .scan_visit(table, &self.engine.snapshot(), |_, row| {
                let ts = row.get(cqtime).map(|v| v.as_timestamp());
                if ts.is_some_and(|t| t.is_ok_and(|t| t >= from)) {
                    rows.push(row.clone());
                }
                true
            })?;
        Ok(rows)
    }

    /// A derived stream's archived windows with `close > after`, in close
    /// order — what `SubscribeFrom` serves and the open-time step replays.
    /// The rows of its first APPEND channel are grouped by its
    /// `cq_close(*)` column. `feed` commits each window's rows with the
    /// watermark *before* any delivery, so everything a subscriber saw is
    /// here; an empty window at the watermark ends the replay when that is
    /// past the last archived close (heartbeat-only windows archive no
    /// rows but do commit the watermark).
    pub fn archived_windows(&self, stream: &str, after: Timestamp) -> Result<Vec<CqOutput>> {
        let key = stream.to_ascii_lowercase();
        let (schema, close_col, tid) = {
            let catalog = self.catalog.lock();
            let d = catalog
                .streams
                .get(&key)
                .filter(|s| s.producer.is_some())
                .ok_or_else(|| Error::stream(format!("`{stream}` is not a derived stream")))?;
            let close_col = d.decl.cqtime.ok_or_else(|| {
                Error::stream(format!(
                    "derived stream `{stream}` has no cq_close(*) column; \
                     archived windows cannot be replayed"
                ))
            })?;
            let state = d.shard.state.lock();
            let channels = state.streams.get(&key).map_or(&[][..], |rt| &rt.channels);
            let append = channels.iter().find(|c| c.mode == ChannelMode::Append);
            let tid = append.map(|c| c.table_id).ok_or_else(|| {
                Error::stream(format!(
                    "derived stream `{stream}` has no APPEND channel to replay from"
                ))
            })?;
            (d.decl.schema.clone(), close_col, tid)
        };
        // Heap order is insertion order, and each window's rows went in in
        // relation order: a close-ordered map keeps it. Only the rows past
        // `after` are cloned.
        let (mut by_close, mut bad) = (BTreeMap::<Timestamp, Vec<Row>>::new(), None);
        self.engine
            .scan_visit(tid, &self.engine.snapshot(), |_, row| {
                match row.get(close_col).map(|v| v.as_timestamp()) {
                    Some(Ok(close)) if close > after => {
                        by_close.entry(close).or_default().push(row.clone())
                    }
                    Some(Ok(_)) => {}
                    _ => bad = Some(close_col),
                }
                bad.is_none()
            })?;
        if let Some(col) = bad {
            return Err(Error::stream(format!(
                "archived row of `{stream}` has no close in column {col}"
            )));
        }
        let mut outs: Vec<CqOutput> = by_close
            .into_iter()
            .map(|(close, rows)| CqOutput {
                close,
                relation: Relation::new(schema.clone(), rows),
            })
            .collect();
        // Without it, a subscriber whose gap ended in empty windows would
        // never learn that event time had advanced.
        let last = outs.last().map(|o| o.close).unwrap_or(after);
        if let Some(wm) = load_watermark(&self.engine, &key)? {
            if wm > last {
                outs.push(CqOutput {
                    close: wm,
                    relation: Relation::new(schema, Vec::new()),
                });
            }
        }
        Ok(outs)
    }
}
