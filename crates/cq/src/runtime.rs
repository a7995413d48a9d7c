//! The continuous-query runtime.
//!
//! A [`ContinuousQuery`] wraps one bound plan containing a single
//! `StreamScan`. Tuples (or, for `<SLICES>` windows, upstream result
//! batches) are pushed in; whenever a window closes, the relational plan
//! runs over the window relation with the window's close timestamp as
//! `cq_close(*)` and — if the plan reads tables — a fresh MVCC snapshot
//! pinned at the boundary (window consistency, §4). Each closed window
//! yields a [`CqOutput`]; the concatenation of outputs is the CQ's result
//! stream (§3.1: "a query that produces a stream never ends").

use std::sync::Arc;

use streamrel_exec::{execute, ExecContext, RelationSource};
use streamrel_ivm::{WindowOutput, IVM_INPUT};
use streamrel_obs::IvmMetrics;
use streamrel_sql::analyzer::AnalyzedQuery;
use streamrel_sql::plan::{LogicalPlan, SchemaRef, WindowSpec};
use streamrel_storage::{Snapshot, StorageEngine};
use streamrel_types::{Error, Relation, Result, Row, Timestamp};

use crate::consistency::{ConsistencyMode, SnapshotSource};
use crate::shared::{place, Advanced, Placement, SharedRegistry, Slot};
use crate::window::{ClosedWindow, WindowBuffer};

/// One window's result.
#[derive(Debug, Clone)]
pub struct CqOutput {
    /// The window close timestamp (`cq_close(*)`).
    pub close: Timestamp,
    /// The result relation for this window.
    pub relation: Relation,
}

/// One closed window, staged for evaluation off the shard lock.
///
/// Staging captures everything plan execution needs — the plan, the
/// window relation, the close boundary, and (for `QueryStart`
/// consistency) the pinned snapshot — so [`WindowTask::run`] is a pure
/// function of the task: it touches no CQ state and can execute on any
/// thread of a [`crate::WorkerPool`]. The staging thread calls
/// [`ContinuousQuery::finish_window`] with the result, in serial order,
/// to apply stats and emit the `cq.close` trace event deterministically.
pub struct WindowTask {
    /// Shared with the CQ: staging a window copies no plan.
    plan: Arc<LogicalPlan>,
    /// Stream name bound to the window relation ([`IVM_INPUT`] for the
    /// post-anchor plan of a sliced CQ).
    input: Arc<str>,
    /// The window relation. A stream-table join delta resolves its match
    /// counts against the same snapshot the post-plan reads, so it is
    /// finalized in [`WindowTask::run`], not at staging time.
    rel: WindowOutput,
    close: Timestamp,
    engine: Arc<StorageEngine>,
    consistency: ConsistencyMode,
    /// Snapshot pinned at CQ start (`QueryStart` mode only);
    /// `WindowBoundary` pins fresh at run time.
    snapshot: Option<Snapshot>,
}

impl WindowTask {
    /// The window close timestamp.
    pub fn close(&self) -> Timestamp {
        self.close
    }

    /// Rows in the staged window relation (for trace accounting). For a
    /// join delta this is the staged entry count.
    pub fn input_rows(&self) -> usize {
        self.rel.len()
    }

    /// Evaluate the staged window. Side-effect free: reads only the
    /// captured relation and an MVCC snapshot.
    pub fn run(&self) -> Result<CqOutput> {
        let source: SnapshotSource = match self.consistency {
            // Window consistency: a fresh snapshot at this boundary.
            ConsistencyMode::WindowBoundary => SnapshotSource::pin(self.engine.clone()),
            ConsistencyMode::QueryStart => SnapshotSource::with_snapshot(
                self.engine.clone(),
                self.snapshot.clone().expect("pinned at start"),
            ),
        };
        let finalized;
        let input_rel = match &self.rel {
            WindowOutput::Ready(rel) => rel,
            WindowOutput::NeedsTable(delta) => {
                finalized = delta.finalize(&source as &dyn RelationSource)?;
                &finalized
            }
        };
        let ctx = ExecContext::window(
            &source as &dyn RelationSource,
            &self.input,
            input_rel,
            self.close,
        );
        let relation = execute(&self.plan, &ctx)?;
        Ok(CqOutput {
            close: self.close,
            relation,
        })
    }
}

// Tasks must cross threads into the worker pool.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<WindowTask>();
};

/// Runtime counters for one CQ.
#[derive(Debug, Clone, Copy, Default)]
pub struct CqStats {
    /// Tuples pushed in.
    pub tuples_in: u64,
    /// Windows emitted.
    pub windows_out: u64,
    /// Total result rows emitted.
    pub rows_out: u64,
}

/// Where a window's tuples live until close.
pub enum ExecMode {
    /// Buffer raw tuples per window; run the whole plan at each close.
    Unshared { buffer: WindowBuffer },
    /// Member of a slice store in its stream's [`SharedRegistry`]: the
    /// store folds each tuple once, keeps this member's close cursor and
    /// window view and hands over the anchor output at each close; the CQ
    /// only runs the post-anchor plan over it.
    Sliced {
        slot: Slot,
        post_plan: Arc<LogicalPlan>,
    },
}

/// A running continuous query.
pub struct ContinuousQuery {
    name: String,
    plan: Arc<LogicalPlan>,
    stream: String,
    /// The name this CQ's tasks bind their window relation to: `stream`,
    /// or [`IVM_INPUT`] once sliced.
    input: Arc<str>,
    /// Schema of the stream scan: what a re-evaluated window relation has.
    scan_schema: SchemaRef,
    window: WindowSpec,
    engine: Arc<StorageEngine>,
    consistency: ConsistencyMode,
    /// Snapshot pinned at CQ start (QueryStart consistency mode only).
    start_snapshot: Option<Snapshot>,
    mode: ExecMode,
    stats: CqStats,
}

impl ContinuousQuery {
    /// Build a CQ from an analyzed continuous query. The plan must contain
    /// exactly one `StreamScan` (enforced by the analyzer).
    pub fn new(
        name: impl Into<String>,
        analyzed: &AnalyzedQuery,
        engine: Arc<StorageEngine>,
        consistency: ConsistencyMode,
    ) -> Result<ContinuousQuery> {
        if !analyzed.is_continuous {
            return Err(Error::stream(
                "snapshot query given to the CQ runtime; execute it directly",
            ));
        }
        let mut scan = None;
        analyzed.plan.visit(&mut |p| {
            if let LogicalPlan::StreamScan {
                stream,
                schema,
                window,
                cqtime,
                derived,
            } = p
            {
                scan = Some((stream.clone(), schema.clone(), *window, *cqtime, *derived));
            }
        });
        let (stream, scan_schema, window, cqtime, derived) =
            scan.ok_or_else(|| Error::stream("continuous plan has no stream scan"))?;
        let buffer = WindowBuffer::new(window, cqtime, derived)?;
        let start_snapshot = match consistency {
            ConsistencyMode::QueryStart => Some(engine.snapshot()),
            ConsistencyMode::WindowBoundary => None,
        };
        Ok(ContinuousQuery {
            name: name.into(),
            plan: Arc::new(analyzed.plan.clone()),
            input: stream.as_str().into(),
            stream,
            scan_schema,
            window,
            engine,
            consistency,
            start_snapshot,
            mode: ExecMode::Unshared { buffer },
            stats: CqStats::default(),
        })
    }

    /// The CQ's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The source stream name.
    pub fn stream(&self) -> &str {
        &self.stream
    }

    /// The window spec.
    pub fn window(&self) -> WindowSpec {
        self.window
    }

    /// Output schema of each window result.
    pub fn output_schema(&self) -> SchemaRef {
        self.plan.schema()
    }

    /// Runtime counters.
    pub fn stats(&self) -> CqStats {
        self.stats
    }

    /// Where this CQ's window state lives in its stream's registry, if it
    /// is sliced.
    pub fn slot(&self) -> Option<Slot> {
        match &self.mode {
            ExecMode::Sliced { slot, .. } => Some(*slot),
            ExecMode::Unshared { .. } => None,
        }
    }

    /// The re-evaluation buffer; a sliced CQ has none.
    fn buffer(&mut self) -> Result<&mut WindowBuffer> {
        match &mut self.mode {
            ExecMode::Unshared { buffer } => Ok(buffer),
            ExecMode::Sliced { .. } => Err(Error::stream(
                "a sliced CQ's windows close in its slice store",
            )),
        }
    }

    /// Decide where this CQ's window state lives ([`place`]) and act on
    /// it: a plan that lowers becomes a member of a slice store in
    /// `registry` (its stream's) — the pooled store for its shape under
    /// `sharing`, else a private one; any other plan keeps its
    /// re-evaluation buffer. Must be called before any tuple flows. Bumps
    /// `ivm.lowered` / `ivm.fallback` and records the decision (and any
    /// fallback reason) on the trace ring.
    pub fn place(&mut self, sharing: bool, ivm: bool, registry: &mut SharedRegistry) {
        if self.stats.tuples_in > 0 || self.slot().is_some() {
            return;
        }
        let metrics = IvmMetrics::register(self.engine.metrics());
        let trace = self.engine.metrics().trace();
        match place(&self.plan, sharing, ivm, Some(registry)) {
            Placement::Reeval(reason) => {
                if ivm {
                    metrics.fallback.inc();
                    trace.record("cq.ivm.fallback", &self.name, reason.to_string(), 0);
                }
            }
            // A window the pooled store's grid cannot take (`grid_mismatch`)
            // is the one `join` gives a private store.
            Placement::Sliced { program, .. } => {
                let (slot, pooled) = registry.join(&program, sharing);
                metrics.lowered.inc();
                trace.record(
                    if pooled { "cq.share" } else { "cq.ivm" },
                    &self.name,
                    format!("visible={} advance={}", program.visible, program.advance),
                    0,
                );
                self.input = IVM_INPUT.into();
                self.mode = ExecMode::Sliced {
                    slot,
                    post_plan: Arc::new(program.post_plan),
                };
            }
        }
    }

    /// Stage the windows one tuple closes, without evaluating them
    /// (re-evaluating CQs only).
    pub fn stage_tuple(&mut self, row: Row) -> Result<Vec<WindowTask>> {
        let closes = self.buffer()?.push(row)?;
        self.stats.tuples_in += 1;
        Ok(self.stage_closed(closes))
    }

    /// Stage, without evaluating them, the windows that one batch of the
    /// stream's tuples — and, for a heartbeat (punctuation: event time
    /// advancing without a tuple), the time `bound` — closes. `advanced`
    /// is what the stream's stores did with the same batch: a sliced CQ
    /// takes its composed windows from there, and only the post-plan —
    /// and a join delta's match counting, which needs the boundary
    /// snapshot — is deferred to the task; a re-evaluating CQ buffers the
    /// tuples. On error `tasks` holds what was staged before it.
    pub fn stage(
        &mut self,
        rows: &[Row],
        bound: Option<Timestamp>,
        advanced: &mut Advanced,
        tasks: &mut Vec<WindowTask>,
    ) -> Result<()> {
        if let ExecMode::Sliced { slot, post_plan } = &self.mode {
            self.stats.tuples_in += rows.len() as u64;
            let windows = advanced.closed.remove(slot).unwrap_or_default();
            let staged = windows.into_iter();
            tasks.extend(staged.map(|(close, rel)| self.make_task(post_plan.clone(), rel, close)));
            return Ok(());
        }
        for row in rows {
            tasks.extend(self.stage_tuple(row.clone())?);
        }
        if let Some(ts) = bound {
            let closes = self.buffer()?.advance_to(ts);
            tasks.extend(self.stage_closed(closes));
        }
        Ok(())
    }

    /// Push an upstream result batch (CQ over a derived stream) and
    /// evaluate the windows it closes inline — the serial cascade. The
    /// lowering pass refuses derived streams, so a batch-fed CQ is never
    /// sliced.
    pub fn on_batch(&mut self, close: Timestamp, rows: Vec<Row>) -> Result<Vec<CqOutput>> {
        let tuples = rows.len() as u64;
        let closes = self.buffer()?.push_batch(close, rows);
        self.stats.tuples_in += tuples;
        let tasks = self.stage_closed(closes);
        let mut outputs = Vec::with_capacity(tasks.len());
        for task in tasks {
            let out = task.run()?;
            self.finish_window(task.input_rows(), &out);
            outputs.push(out);
        }
        Ok(outputs)
    }

    /// Apply a completed window to this CQ's counters and trace. Must be
    /// called exactly once per staged task, in staging order, from the
    /// thread that owns the CQ — this keeps stats and the trace ring
    /// identical to serial execution even when `run` happened on a pool.
    pub fn finish_window(&mut self, in_rows: usize, out: &CqOutput) {
        self.stats.windows_out += 1;
        self.stats.rows_out += out.relation.len() as u64;
        // One trace event per close decision — never per tuple.
        self.engine.metrics().trace().record(
            "cq.close",
            &self.name,
            format!("in_rows={} out_rows={}", in_rows, out.relation.len()),
            out.close,
        );
    }

    /// Resume after recovery: windows closing at or before `watermark`
    /// were already emitted (their results live in the Active Table).
    /// The next close is re-aligned to the advance grid in both modes —
    /// resuming at `watermark + advance` from an unaligned watermark
    /// would drift every subsequent close off the alignment invariant
    /// (breaking slice sharing and `cq_close` equality joins). `registry`
    /// is the one this CQ was placed in.
    pub fn resume_after(&mut self, watermark: Timestamp, registry: &mut SharedRegistry) {
        let next = match &mut self.mode {
            ExecMode::Unshared { buffer } => {
                buffer.resume_after(watermark);
                buffer.next_close()
            }
            ExecMode::Sliced { slot, .. } => registry.resume_after(*slot, watermark),
        };
        self.engine.metrics().trace().record(
            "cq.resume",
            &self.name,
            match next {
                Some(c) => format!("watermark={watermark} next_close={c}"),
                None => format!("watermark={watermark}"),
            },
            watermark,
        );
    }

    /// Stage unshared windows: each closed window's rows become a task.
    fn stage_closed(&mut self, closes: Vec<ClosedWindow>) -> Vec<WindowTask> {
        let mut tasks = Vec::with_capacity(closes.len());
        for cw in closes {
            let rel = WindowOutput::Ready(Relation::new(self.scan_schema.clone(), cw.rows));
            tasks.push(self.make_task(self.plan.clone(), rel, cw.close));
        }
        tasks
    }

    fn make_task(&self, plan: Arc<LogicalPlan>, rel: WindowOutput, close: Timestamp) -> WindowTask {
        WindowTask {
            plan,
            input: self.input.clone(),
            rel,
            close,
            engine: self.engine.clone(),
            consistency: self.consistency,
            snapshot: self.start_snapshot.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use streamrel_sql::analyzer::{Analyzer, RelKind, SchemaProvider};
    use streamrel_sql::ast::Statement;
    use streamrel_sql::parser::parse_statement;
    use streamrel_sql::plan::SchemaRef;
    use streamrel_types::time::MINUTES;
    use streamrel_types::{row, Column, DataType, Schema, Value};

    struct Provider {
        rels: HashMap<String, (SchemaRef, RelKind)>,
    }

    impl SchemaProvider for Provider {
        fn relation(&self, name: &str) -> Option<(SchemaRef, RelKind)> {
            self.rels.get(&name.to_ascii_lowercase()).cloned()
        }
    }

    fn url_stream_schema() -> SchemaRef {
        Arc::new(
            Schema::new(vec![
                Column::not_null("url", DataType::Text),
                Column::not_null("atime", DataType::Timestamp),
            ])
            .unwrap(),
        )
    }

    fn setup() -> (Provider, Arc<StorageEngine>) {
        let engine = Arc::new(StorageEngine::in_memory());
        engine
            .create_table(
                "url_dim",
                Schema::new(vec![
                    Column::new("url", DataType::Text),
                    Column::new("category", DataType::Text),
                ])
                .unwrap(),
            )
            .unwrap();
        let mut rels = HashMap::new();
        rels.insert(
            "url_stream".into(),
            (url_stream_schema(), RelKind::Stream { cqtime: Some(1) }),
        );
        rels.insert(
            "url_dim".into(),
            (engine.table_schema("url_dim").unwrap(), RelKind::Table),
        );
        (Provider { rels }, engine)
    }

    /// A CQ plus the store set of the stream it reads, fed the way the
    /// engine feeds them: advance the stores over the batch, stage, run
    /// the staged tasks inline.
    struct Driven {
        cq: ContinuousQuery,
        stores: SharedRegistry,
    }

    impl Driven {
        fn drive(&mut self, rows: &[Row], bound: Option<Timestamp>) -> Result<Vec<CqOutput>> {
            let mut advanced = Advanced::default();
            self.stores.advance(rows, bound, &mut advanced)?;
            let mut tasks = Vec::new();
            self.cq.stage(rows, bound, &mut advanced, &mut tasks)?;
            let mut outputs = Vec::with_capacity(tasks.len());
            for task in tasks {
                let out = task.run()?;
                self.cq.finish_window(task.input_rows(), &out);
                outputs.push(out);
            }
            Ok(outputs)
        }

        fn on_tuple(&mut self, row: Row) -> Result<Vec<CqOutput>> {
            self.drive(&[row], None)
        }

        fn on_heartbeat(&mut self, ts: Timestamp) -> Result<Vec<CqOutput>> {
            self.drive(&[], Some(ts))
        }

        fn resume_after(&mut self, watermark: Timestamp) {
            self.cq.resume_after(watermark, &mut self.stores);
        }

        /// Place the CQ on a slice store: pooled, or private.
        fn sliced(mut self, sharing: bool) -> Driven {
            self.cq.place(sharing, true, &mut self.stores);
            assert!(self.cq.slot().is_some());
            self
        }
    }

    fn make_cq(
        provider: &Provider,
        engine: Arc<StorageEngine>,
        sql: &str,
        mode: ConsistencyMode,
    ) -> Driven {
        let Statement::Select(q) = parse_statement(sql).unwrap() else {
            panic!()
        };
        let analyzed = Analyzer::new(provider).analyze(&q).unwrap();
        Driven {
            cq: ContinuousQuery::new("test_cq", &analyzed, engine, mode).unwrap(),
            stores: SharedRegistry::default(),
        }
    }

    fn tup(url: &str, ts: i64) -> Row {
        row![url, Value::Timestamp(ts)]
    }

    #[test]
    fn paper_example_2_end_to_end() {
        let (p, e) = setup();
        let mut cq = make_cq(
            &p,
            e,
            "SELECT url, count(*) url_count \
             FROM url_stream <VISIBLE '5 minutes' ADVANCE '1 minute'> \
             GROUP by url ORDER by url_count desc LIMIT 10",
            ConsistencyMode::WindowBoundary,
        );
        let mut outputs = Vec::new();
        // /a twice per minute, /b once, for 3 minutes.
        for m in 0..3i64 {
            let base = m * MINUTES;
            outputs.extend(cq.on_tuple(tup("/a", base + 1)).unwrap());
            outputs.extend(cq.on_tuple(tup("/b", base + 2)).unwrap());
            outputs.extend(cq.on_tuple(tup("/a", base + 3)).unwrap());
        }
        outputs.extend(cq.on_heartbeat(3 * MINUTES).unwrap());
        assert_eq!(outputs.len(), 3);
        // Third window covers minutes 0..3 (visible 5m > elapsed).
        let last = &outputs[2];
        assert_eq!(last.close, 3 * MINUTES);
        assert_eq!(last.relation.rows()[0], row!["/a", 6i64]);
        assert_eq!(last.relation.rows()[1], row!["/b", 3i64]);
        assert_eq!(cq.cq.stats().windows_out, 3);
    }

    #[test]
    fn cq_close_column_carries_boundary() {
        let (p, e) = setup();
        let mut cq = make_cq(
            &p,
            e,
            "SELECT count(*) c, cq_close(*) w FROM url_stream \
             <TUMBLING '1 minute'>",
            ConsistencyMode::WindowBoundary,
        );
        cq.on_tuple(tup("/a", 5)).unwrap();
        let outs = cq.on_heartbeat(MINUTES).unwrap();
        assert_eq!(outs.len(), 1);
        assert_eq!(
            outs[0].relation.rows()[0],
            vec![Value::Int(1), Value::Timestamp(MINUTES)]
        );
    }

    #[test]
    fn empty_windows_still_emit() {
        let (p, e) = setup();
        let mut cq = make_cq(
            &p,
            e,
            "SELECT count(*) c FROM url_stream <TUMBLING '1 minute'>",
            ConsistencyMode::WindowBoundary,
        );
        cq.on_tuple(tup("/a", 5)).unwrap();
        let outs = cq.on_heartbeat(3 * MINUTES).unwrap();
        assert_eq!(outs.len(), 3);
        assert_eq!(outs[1].relation.rows()[0], row![0i64]);
    }

    #[test]
    fn stream_table_join_sees_window_boundary_snapshot() {
        let (p, e) = setup();
        let dim = e.table_id("url_dim").unwrap();
        e.with_txn(|x| e.insert(x, dim, row!["/a", "news"]))
            .unwrap();
        let mut cq = make_cq(
            &p,
            e.clone(),
            "SELECT s.url, d.category FROM url_stream <TUMBLING '1 minute'> s \
             JOIN url_dim d ON s.url = d.url",
            ConsistencyMode::WindowBoundary,
        );
        cq.on_tuple(tup("/a", 5)).unwrap();
        let outs = cq.on_heartbeat(MINUTES).unwrap();
        assert_eq!(outs[0].relation.rows()[0], row!["/a", "news"]);
        // Update the dimension between windows; next window sees it.
        e.with_txn(|x| {
            e.delete_all_visible(x, dim)?;
            e.insert(x, dim, row!["/a", "sports"])
        })
        .unwrap();
        cq.on_tuple(tup("/a", MINUTES + 5)).unwrap();
        let outs = cq.on_heartbeat(2 * MINUTES).unwrap();
        assert_eq!(
            outs[0].relation.rows()[0],
            row!["/a", "sports"],
            "window consistency: update visible at next boundary"
        );
    }

    #[test]
    fn query_start_consistency_freezes_tables() {
        let (p, e) = setup();
        let dim = e.table_id("url_dim").unwrap();
        e.with_txn(|x| e.insert(x, dim, row!["/a", "news"]))
            .unwrap();
        let mut cq = make_cq(
            &p,
            e.clone(),
            "SELECT s.url, d.category FROM url_stream <TUMBLING '1 minute'> s \
             JOIN url_dim d ON s.url = d.url",
            ConsistencyMode::QueryStart,
        );
        e.with_txn(|x| {
            e.delete_all_visible(x, dim)?;
            e.insert(x, dim, row!["/a", "sports"])
        })
        .unwrap();
        cq.on_tuple(tup("/a", 5)).unwrap();
        let outs = cq.on_heartbeat(MINUTES).unwrap();
        assert_eq!(
            outs[0].relation.rows()[0],
            row!["/a", "news"],
            "query-start pin never sees later updates"
        );
    }

    #[test]
    fn sliced_mode_matches_reeval_results() {
        let (p, e) = setup();
        let sql = "SELECT url, count(*) c FROM url_stream \
                   <VISIBLE '2 minutes' ADVANCE '1 minute'> GROUP BY url \
                   ORDER BY c DESC, url";
        for sharing in [true, false] {
            let mut reeval = make_cq(&p, e.clone(), sql, ConsistencyMode::WindowBoundary);
            let cq = make_cq(&p, e.clone(), sql, ConsistencyMode::WindowBoundary);
            let mut sliced = cq.sliced(sharing);
            let mut out_r = Vec::new();
            let mut out_s = Vec::new();
            for i in 0..300 {
                let t = tup(if i % 3 == 0 { "/a" } else { "/b" }, i * 1_000_000);
                out_r.extend(reeval.on_tuple(t.clone()).unwrap());
                out_s.extend(sliced.on_tuple(t).unwrap());
            }
            assert!(!out_r.is_empty());
            assert_eq!(out_r.len(), out_s.len());
            for (r, s) in out_r.iter().zip(&out_s) {
                assert_eq!(r.close, s.close);
                assert_eq!(r.relation.rows(), s.relation.rows(), "at close {}", r.close);
            }
        }
        assert_eq!(e.metrics().counter("ivm.lowered").get(), 2);
        let kinds: Vec<String> = e
            .metrics()
            .trace()
            .dump()
            .into_iter()
            .map(|ev| ev.kind)
            .collect();
        assert!(
            kinds.iter().any(|k| k == "cq.share"),
            "pooled placement traced"
        );
        assert!(
            kinds.iter().any(|k| k == "cq.ivm"),
            "private placement traced"
        );
    }

    #[test]
    fn ivm_join_matches_unshared_and_sees_boundary_snapshot() {
        let (p, e) = setup();
        let dim = e.table_id("url_dim").unwrap();
        e.with_txn(|x| {
            e.insert(x, dim, row!["/a", "news"])?;
            e.insert(x, dim, row!["/a", "blog"])?;
            e.insert(x, dim, row!["/b", "sports"])
        })
        .unwrap();
        let sql = "SELECT s.url, count(*) c FROM url_stream \
                   <VISIBLE '2 minutes' ADVANCE '1 minute'> s \
                   JOIN url_dim d ON s.url = d.url GROUP BY s.url";
        let mut reeval = make_cq(&p, e.clone(), sql, ConsistencyMode::WindowBoundary);
        let mut ivm = make_cq(&p, e.clone(), sql, ConsistencyMode::WindowBoundary).sliced(false);

        let mut out_r = Vec::new();
        let mut out_i = Vec::new();
        for i in 0..120i64 {
            let t = tup(["/a", "/b", "/c"][(i % 3) as usize], i * 1_000_000);
            out_r.extend(reeval.on_tuple(t.clone()).unwrap());
            out_i.extend(ivm.on_tuple(t).unwrap());
            if i == 70 {
                // Mutate the dimension mid-stream: both modes must see the
                // change at the same window boundary.
                e.with_txn(|x| e.insert(x, dim, row!["/c", "misc"]))
                    .unwrap();
            }
        }
        out_r.extend(reeval.on_heartbeat(2 * MINUTES).unwrap());
        out_i.extend(ivm.on_heartbeat(2 * MINUTES).unwrap());
        assert!(!out_r.is_empty());
        assert_eq!(out_r.len(), out_i.len());
        for (r, i) in out_r.iter().zip(&out_i) {
            assert_eq!(r.close, i.close);
            assert_eq!(r.relation.rows(), i.relation.rows(), "at close {}", r.close);
        }
    }

    #[test]
    fn ineligible_plan_does_not_lower_and_counts_fallback() {
        let (p, e) = setup();
        let mut cq = make_cq(
            &p,
            e.clone(),
            "SELECT url FROM url_stream <TUMBLING '1 minute'> WHERE url LIKE '/a%'",
            ConsistencyMode::WindowBoundary,
        );
        // With IVM off the plan is never even considered: no counter.
        cq.cq.place(true, false, &mut cq.stores);
        assert_eq!(e.metrics().counter("ivm.fallback").get(), 0);
        cq.cq.place(true, true, &mut cq.stores);
        assert!(cq.cq.slot().is_none() && cq.stores.is_empty());
        assert_eq!(e.metrics().counter("ivm.fallback").get(), 1);
        let events = e.metrics().trace().dump();
        assert!(events.iter().any(|ev| ev.kind == "cq.ivm.fallback"));
        // The CQ still works on the re-evaluation path.
        cq.on_tuple(tup("/a1", 5)).unwrap();
        let outs = cq.on_heartbeat(MINUTES).unwrap();
        assert_eq!(outs[0].relation.rows(), &[row!["/a1"]]);
    }

    #[test]
    fn placement_is_decided_once_and_the_last_leaver_takes_the_store() {
        let (p, e) = setup();
        let sql = "SELECT url, count(*) c FROM url_stream \
                   <TUMBLING '1 minute'> GROUP BY url";
        let mut a = make_cq(&p, e.clone(), sql, ConsistencyMode::WindowBoundary).sliced(true);
        let mut b = make_cq(&p, e.clone(), sql, ConsistencyMode::WindowBoundary);
        b.cq.place(true, true, &mut a.stores);
        assert_eq!(a.cq.slot().unwrap().0, b.cq.slot().unwrap().0, "pooled");
        a.cq.place(true, true, &mut a.stores);
        assert_eq!(a.stores.len(), 1, "already placed");
        assert_eq!(e.metrics().counter("ivm.lowered").get(), 2);

        a.on_tuple(tup("/a", 5)).unwrap();
        assert_eq!(a.on_heartbeat(MINUTES).unwrap().len(), 1);
        assert!(a.cq.stage_tuple(tup("/a", MINUTES)).is_err(), "no buffer");
        assert_eq!(
            a.stores.leave(a.cq.slot().unwrap()),
            0,
            "a sibling still reads the store"
        );
        assert_eq!(a.stores.len(), 1);
        a.stores.leave(b.cq.slot().unwrap());
        assert!(a.stores.is_empty());
    }

    #[test]
    fn resume_after_skips_emitted_windows() {
        let (p, e) = setup();
        let mut cq = make_cq(
            &p,
            e,
            "SELECT count(*) c FROM url_stream <TUMBLING '1 minute'>",
            ConsistencyMode::WindowBoundary,
        );
        cq.resume_after(5 * MINUTES);
        cq.on_tuple(tup("/a", 5 * MINUTES + 10)).unwrap();
        let outs = cq.on_heartbeat(6 * MINUTES).unwrap();
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].close, 6 * MINUTES);
    }

    #[test]
    fn resume_after_unaligned_watermark_realigns_both_modes() {
        // Regression: sliced resume used to set next_close to watermark +
        // advance, drifting every later close off the advance grid when
        // the recovered watermark was unaligned (mid-window crash). Both
        // modes must round UP to the next multiple.
        let (p, e) = setup();
        let sql = "SELECT url, count(*) c FROM url_stream \
                   <TUMBLING '1 minute'> GROUP BY url";
        let unaligned = 5 * MINUTES + 17; // not a multiple of 1 minute

        let mut unshared = make_cq(&p, e.clone(), sql, ConsistencyMode::WindowBoundary);
        unshared.resume_after(unaligned);
        let outs = unshared.on_heartbeat(7 * MINUTES).unwrap();
        let closes: Vec<Timestamp> = outs.iter().map(|o| o.close).collect();
        assert_eq!(closes, vec![6 * MINUTES, 7 * MINUTES]);

        let mut shared = make_cq(&p, e, sql, ConsistencyMode::WindowBoundary).sliced(true);
        shared.resume_after(unaligned);
        let mut outs = Vec::new();
        for i in 0..3 {
            let t = tup("/a", 5 * MINUTES + 30_000_000 + i * MINUTES);
            outs.extend(shared.on_tuple(t).unwrap());
        }
        let closes: Vec<Timestamp> = outs.iter().map(|o| o.close).collect();
        assert_eq!(
            closes,
            vec![6 * MINUTES, 7 * MINUTES],
            "sliced closes must stay on the advance grid after resume"
        );
    }

    #[test]
    fn runtime_decisions_are_traced() {
        let (p, e) = setup();
        let mut cq = make_cq(
            &p,
            e.clone(),
            "SELECT count(*) c FROM url_stream <TUMBLING '1 minute'>",
            ConsistencyMode::WindowBoundary,
        );
        cq.resume_after(MINUTES);
        cq.on_tuple(tup("/a", MINUTES + 5)).unwrap();
        cq.on_heartbeat(2 * MINUTES).unwrap();
        let events = e.metrics().trace().dump();
        let kinds: Vec<&str> = events.iter().map(|ev| ev.kind.as_str()).collect();
        assert!(kinds.contains(&"cq.resume"), "kinds: {kinds:?}");
        assert!(kinds.contains(&"cq.close"), "kinds: {kinds:?}");
        let close = events.iter().find(|ev| ev.kind == "cq.close").unwrap();
        assert_eq!(close.scope, "test_cq");
        assert_eq!(close.ts, 2 * MINUTES);
    }

    #[test]
    fn sliced_cq_stats_track_tuples_and_windows() {
        let (p, e) = setup();
        let sql = "SELECT url, count(*) c FROM url_stream \
                   <TUMBLING '1 minute'> GROUP BY url";
        let mut cq = make_cq(&p, e, sql, ConsistencyMode::WindowBoundary).sliced(true);
        for i in 0..10 {
            cq.on_tuple(tup("/a", i)).unwrap();
        }
        let outs = cq.on_heartbeat(MINUTES).unwrap();
        assert_eq!(outs.len(), 1);
        let st = cq.cq.stats();
        assert_eq!(st.tuples_in, 10);
        assert_eq!(st.windows_out, 1);
        assert_eq!(st.rows_out, 1);
    }

    #[test]
    fn output_schema_matches_projection() {
        let (p, e) = setup();
        let cq = make_cq(
            &p,
            e,
            "SELECT url, count(*) hits FROM url_stream <TUMBLING '1 minute'> GROUP BY url",
            ConsistencyMode::WindowBoundary,
        );
        let schema = cq.cq.output_schema();
        assert_eq!(schema.column(0).name, "url");
        assert_eq!(schema.column(1).name, "hits");
        assert_eq!(cq.cq.stream(), "url_stream");
    }

    #[test]
    fn heartbeat_batches_multiple_closes() {
        let (p, e) = setup();
        let mut cq = make_cq(
            &p,
            e,
            "SELECT count(*) c FROM url_stream <TUMBLING '1 minute'>",
            ConsistencyMode::WindowBoundary,
        );
        cq.on_tuple(tup("/a", 1)).unwrap();
        let outs = cq.on_heartbeat(5 * MINUTES).unwrap();
        assert_eq!(outs.len(), 5, "one output per crossed boundary");
        assert_eq!(outs[4].close, 5 * MINUTES);
    }

    #[test]
    fn snapshot_query_rejected() {
        let (p, e) = setup();
        let Statement::Select(q) = parse_statement("select 1").unwrap() else {
            panic!()
        };
        let analyzed = Analyzer::new(&p).analyze(&q).unwrap();
        assert!(ContinuousQuery::new("x", &analyzed, e, ConsistencyMode::WindowBoundary).is_err());
    }
}
