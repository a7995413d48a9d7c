//! The tick path: one batch — tuples, a heartbeat's time, or a window of
//! the CQ behind a derived stream — through a stream and everything
//! downstream of it, under that stream's shard lock alone. Window plans
//! run on the worker pool and come back in submission order — (CQ, close)
//! — so output is byte-identical to serial execution.
//! A batch is folded, then archived, then delivered (DESIGN.md §3.5), so
//! its windows do not see the channel rows it archives (§3.2).

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::MutexGuard;

use streamrel_cq::recovery::save_watermark_txn;
use streamrel_cq::{CqOutput, WindowTask};
use streamrel_sql::ast::{ChannelMode, WindowSpec};
use streamrel_storage::TxnId;
use streamrel_types::{Error, Result, Row, Timestamp};

use super::Db;
use crate::shard::{Shard, ShardState, Sink};

impl Db {
    /// Push one tuple into a base stream (programmatic fast path; the SQL
    /// path is `INSERT INTO <stream> VALUES ...`).
    pub fn ingest(&self, stream: &str, row: Row) -> Result<()> {
        self.ingest_batch(stream, vec![row])
    }

    /// Push many tuples (one archiving transaction for raw channels).
    /// Only the owning shard's lock is held: concurrent ingest into
    /// other streams proceeds in parallel.
    pub fn ingest_batch(&self, stream: &str, rows: Vec<Row>) -> Result<()> {
        self.ingest_sharded(stream, rows, None)
    }

    /// Advance a stream's event time without data: releases what the
    /// reorder buffer still holds up to `ts`, then closes the due windows
    /// of every CQ over the stream (punctuation / heartbeat). To the
    /// engine this is a batch of zero tuples plus a time bound, on the
    /// same path as [`Db::ingest_batch`].
    ///
    /// If a CQ's window evaluation fails, results already produced by
    /// earlier CQs (and earlier windows of the failing CQ) are still
    /// delivered before the error is returned — an error in one plan
    /// never silently discards another CQ's output.
    pub fn heartbeat(&self, stream: &str, ts: Timestamp) -> Result<()> {
        self.ingest_sharded(stream, Vec::new(), Some(ts))
    }

    /// Resolve a base stream to its shard (brief catalog lock only).
    fn shard_of_stream(&self, key: &str, display: &str) -> Result<Arc<Shard>> {
        let catalog = self.catalog.lock();
        let stream = catalog
            .streams
            .get(key)
            .ok_or_else(|| Error::stream(format!("unknown stream `{display}`")))?;
        if stream.producer.is_some() {
            return Err(Error::stream(format!(
                "`{display}` is a derived stream: its tuples and its time come from \
                 the query behind it, not from ingest or heartbeat"
            )));
        }
        Ok(stream.shard.clone())
    }

    /// Acquire a shard's state lock, counting contended acquisitions.
    pub(super) fn lock_shard<'a>(&self, shard: &'a Shard) -> MutexGuard<'a, ShardState> {
        if let Some(guard) = shard.state.try_lock() {
            return guard;
        }
        self.metrics.shard_contention.inc();
        shard.state.lock()
    }

    /// Take one batch into a base stream: coerce → reorder → the stream's
    /// ordering rule → [`Db::feed`] → [`Db::pump`]. `bound` is a
    /// heartbeat's time; a heartbeat is the batch of zero tuples, so tuples
    /// and punctuation share every step. Only the owning shard's lock is
    /// held.
    fn ingest_sharded(&self, stream: &str, rows: Vec<Row>, bound: Option<Timestamp>) -> Result<()> {
        // One timestamp per ingest event; every window this batch closes
        // measures its latency from here (arrival → result enqueued).
        let start = Instant::now();
        let key = stream.to_ascii_lowercase();
        let shard = self.shard_of_stream(&key, stream)?;
        let state = &mut *self.lock_shard(&shard);
        let rt = state
            .streams
            .get_mut(&key)
            .ok_or_else(|| Error::stream(format!("unknown stream `{stream}`")))?;
        // Coerce rows against the stream schema (streams enforce their
        // declared types exactly like tables do).
        let mut released = Vec::with_capacity(rows.len());
        for r in rows {
            released.push(rt.decl.schema.coerce_row(r)?);
        }
        // Out-of-order slack. A heartbeat releases what the buffer holds
        // up to its time before any window closes on it.
        if let Some(rb) = &mut rt.reorder {
            let before = rb.late_drops();
            let mut ordered = Vec::new();
            for r in released {
                ordered.extend(rb.push(r)?);
            }
            if let Some(ts) = bound {
                ordered.extend(rb.advance_to(ts));
            }
            self.metrics.late_drops.add(rb.late_drops() - before);
            released = ordered;
        }
        // The stream's one ordering rule, for every consumer at once: with
        // no slack to reorder in, the batch is cut at the first tuple older
        // than one already taken — the prefix is processed, the error
        // returned, nothing after it applied. It seals every slice a close
        // has passed, which the slice stores' window views rely on.
        let mut cut = None;
        if let (None, Some(c)) = (&rt.reorder, rt.decl.cqtime) {
            for (i, ts) in released.iter().map(|r| r[c].as_timestamp()).enumerate() {
                let Ok(ts) = ts else { continue };
                if ts < rt.high_water {
                    cut = Some(Error::stream(format!(
                        "out-of-order tuple: ts {ts} < watermark {} \
                         (wrap the stream in a ReorderBuffer for slack)",
                        rt.high_water
                    )));
                    released.truncate(i);
                    break;
                }
                rt.high_water = ts;
            }
        }
        rt.high_water = rt.high_water.max(bound.unwrap_or(Timestamp::MIN));
        if released.is_empty() && bound.is_none() {
            return cut.map_or(Ok(()), Err);
        }
        self.metrics.tuples_in.add(released.len() as u64);
        let (emitted, err) = self.feed(state, &key, released.into(), bound);
        let pumped = self.pump(state, emitted, start);
        err.or(pumped.err()).or(cut).map_or(Ok(()), Err)
    }

    /// Take one batch through a stream, base or derived — the one path:
    /// [`Db::archive_begin`] → [`Db::consume`] (the fold) → [`Db::archive`];
    /// a batch whose archive fails returns no window to deliver. `bound` is
    /// the time the batch carries beyond its tuples: a heartbeat's, or, for
    /// a derived stream, the close of the upstream window it results from.
    fn feed(
        &self,
        state: &mut ShardState,
        stream: &str,
        rows: Arc<[Row]>,
        bound: Option<Timestamp>,
    ) -> (Vec<(u64, CqOutput)>, Option<Error>) {
        let start = Instant::now();
        let xid = match self.archive_begin(state, stream, &rows) {
            Ok(xid) => xid,
            Err(e) => return (Vec::new(), Some(e)),
        };
        let begun = start.elapsed();
        let (emitted, err) = self.consume(state, stream, &rows, bound, false);
        let Some(xid) = xid else {
            return (emitted, err);
        };
        let start = Instant::now();
        let archived = self.archive(state, stream, xid, rows, bound);
        (self.metrics.archive_us).observe((begun + start.elapsed()).as_micros() as u64);
        match archived {
            Ok(()) => (emitted, err),
            Err(e) => (Vec::new(), Some(e)),
        }
    }

    /// Open a batch's archiving transaction and take every refusal known
    /// before the fold: the begin and a REPLACE channel's write-write
    /// conflict (its deletes are made here). A channel's table takes every
    /// row of its stream (checked at `CREATE CHANNEL`). `None`: the batch
    /// archives nothing — a base stream's heartbeat, or a base stream with
    /// no channel.
    fn archive_begin(
        &self,
        state: &ShardState,
        stream: &str,
        rows: &[Row],
    ) -> Result<Option<TxnId>> {
        let Some(rt) = state.streams.get(stream) else {
            return Ok(None);
        };
        if !rt.derived && (rows.is_empty() || rt.channels.is_empty()) {
            return Ok(None);
        }
        let xid = self.engine.begin_on(state.domain)?;
        let refused = rt.channels.iter().try_for_each(|ch| match ch.mode {
            ChannelMode::Replace => self.engine.delete_all_visible(xid, ch.table_id).map(drop),
            ChannelMode::Append => Ok(()),
        });
        match refused {
            Ok(()) => Ok(Some(xid)),
            Err(e) => self.engine.finish(xid, Err(e)),
        }
    }

    /// Insert the batch into its stream's channels and commit the
    /// transaction [`Db::archive_begin`] opened, with, for a derived
    /// stream, its resume watermark: recovery never sees a watermark
    /// without its archived window or the reverse (§4). The last channel
    /// moves the rows out of a batch nothing else holds; any other insert
    /// clones them, counted on `db.archive.row_clones`.
    fn archive(
        &self,
        state: &ShardState,
        stream: &str,
        xid: TxnId,
        mut rows: Arc<[Row]>,
        bound: Option<Timestamp>,
    ) -> Result<()> {
        let Some(rt) = state.streams.get(stream) else {
            return self.engine.abort(xid);
        };
        let n = rows.len() as u64;
        let inserted = rt.channels.iter().enumerate().try_for_each(|(i, ch)| {
            let last = i + 1 == rt.channels.len();
            let batch = match Arc::get_mut(&mut rows).filter(|_| last) {
                Some(unique) => unique.iter_mut().map(std::mem::take).collect(),
                None => {
                    self.metrics.archive_row_clones.add(n);
                    rows.to_vec()
                }
            };
            self.engine.insert_many(xid, ch.table_id, batch).map(drop)
        });
        let saved = inserted.and_then(|()| match (rt.derived, bound) {
            (true, Some(close)) => save_watermark_txn(&self.engine, xid, stream, close),
            _ => Ok(()),
        });
        self.engine.finish(xid, saved)?;
        for ch in &rt.channels {
            // The generation a REPLACE commit replaced is dead to every
            // snapshot taken from here on; what no older pin still sees
            // goes now.
            if ch.mode == ChannelMode::Replace {
                self.engine.reclaim(ch.table_id)?;
            }
            ch.rows_written.fetch_add(n, Ordering::SeqCst);
            self.metrics.rows_archived.add(n);
        }
        Ok(())
    }

    /// Take one batch through everything that reads its stream: slice
    /// stores → stage → evaluate. Returns what the stream's consumers
    /// emitted, in (CQ registration, window close) order, and the first
    /// error — a store's, in store order, before a plan's, in registration
    /// × close order. An error belongs to the CQ that raised it: a failing
    /// store closes nothing for its members, a failing plan loses that one
    /// window, and every other window is returned. A `replay` of archived
    /// rows at open reaches only the time windows: a count window has no
    /// cursor to resume and would close them twice.
    pub(super) fn consume(
        &self,
        state: &mut ShardState,
        stream: &str,
        rows: &Arc<[Row]>,
        bound: Option<Timestamp>,
        replay: bool,
    ) -> (Vec<(u64, CqOutput)>, Option<Error>) {
        let ShardState { streams, cqs, .. } = state;
        // Dropped mid-flight.
        let Some(rt) = streams.get_mut(stream) else {
            return (Vec::new(), None);
        };
        let last = rt
            .decl
            .cqtime
            .and_then(|c| rows.last()?.get(c)?.as_timestamp().ok());
        rt.high_water = rt.high_water.max(last.max(bound).unwrap_or(Timestamp::MIN));
        // Slice stores: each takes every tuple once, however many CQs read
        // it, and closes every due window of every member — one pool job
        // per store.
        let phase = Instant::now();
        let (pool, engine) = (Some(&self.pool), Some(&self.engine));
        let mut advanced = (rt.stores).advance(rows, bound, replay, pool, engine);
        self.metrics.store_phase_us.observe_from(phase);
        advanced.count(&self.metrics.ivm);
        let mut first_err = advanced.failed.first().map(|(_, e)| e.clone());

        // Per-CQ window staging, in registration × close order: each CQ
        // wraps what its store just closed.
        let mut staged: Vec<(u64, WindowTask)> = Vec::new();
        for &id in &rt.cq_ids {
            let timed = |w| matches!(w, WindowSpec::Time { .. });
            let Some(entry) = cqs.get_mut(&id).filter(|e| !replay || timed(e.cq.window())) else {
                continue;
            };
            let mut tasks = Vec::new();
            entry.cq.stage(rows, &mut advanced, &mut tasks);
            staged.extend(tasks.into_iter().map(|t| (id, t)));
        }

        // `run_ordered` hands results back in submission order — exactly
        // the (CQ registration, window close) order serial execution
        // produces — so downstream output is byte-identical to the
        // single-threaded engine. Each task hands its window to its plan.
        let phase = Instant::now();
        let meta: Vec<(u64, usize)> = staged.iter().map(|(id, t)| (*id, t.input_rows())).collect();
        let jobs: Vec<_> = staged
            .into_iter()
            .map(|(_, t)| move || t.run_owned())
            .collect();
        let mut emitted = Vec::with_capacity(jobs.len());
        for ((id, in_rows), res) in meta.into_iter().zip(self.pool.run_ordered(jobs)) {
            match res {
                Ok(out) => {
                    if let Some(entry) = cqs.get_mut(&id) {
                        entry.cq.finish_window(in_rows, &out);
                    }
                    emitted.push((id, out));
                }
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        self.metrics.post_plan_us.observe_from(phase);
        (emitted, first_err)
    }

    /// Propagate CQ outputs through their sinks, breadth-first: a client's
    /// goes to the queue of each member of its subscription, a derived
    /// stream's is that stream's next batch (derived-stream composition,
    /// §3.2) and takes the same [`Db::feed`] a base stream's tuples do —
    /// whatever it emits joins the queue. `start` is the one timestamp taken when the triggering batch
    /// or heartbeat arrived; each CQ's close-latency histogram observes the
    /// elapsed time when its result is enqueued. Cascades stay inside the
    /// owning shard (a derived stream lives with its root base stream).
    /// Everything in the queue is delivered; the first error a cascade hit
    /// is returned after.
    pub(super) fn pump(
        &self,
        state: &mut ShardState,
        emitted: Vec<(u64, CqOutput)>,
        start: Instant,
    ) -> Result<()> {
        let mut queue: VecDeque<(u64, CqOutput)> = emitted.into();
        let mut first_err = None;
        let mut published = false;
        while let Some((cq_id, out)) = queue.pop_front() {
            self.metrics.windows_out.inc();
            // A CQ dropped mid-flight has no sink left.
            let Some(entry) = state.cqs.get(&cq_id) else {
                continue;
            };
            entry.close_hist.observe_from(start);
            match &entry.sink {
                Sink::Client(_, members) => {
                    members.lock().offer(Arc::new(out));
                    published = true;
                }
                Sink::Derived(name) => {
                    // Typed before the fold, as a base stream is: a mixed
                    // CASE or COALESCE can break its types. One dropped
                    // mid-flight takes nothing.
                    let name = name.clone();
                    let Some(rt) = state.streams.get(&name) else {
                        continue;
                    };
                    let rows: Result<Arc<[Row]>> = (out.relation.into_rows().into_iter())
                        .map(|r| rt.decl.schema.coerce_row(r))
                        .collect();
                    let (outs, err) = match rows {
                        Ok(rows) => self.feed(state, &name, rows, Some(out.close)),
                        Err(e) => (Vec::new(), Some(e)),
                    };
                    queue.extend(outs);
                    first_err = first_err.or(err);
                }
            }
        }
        if published {
            self.notify.notify();
        }
        first_err.map_or(Ok(()), Err)
    }
}
