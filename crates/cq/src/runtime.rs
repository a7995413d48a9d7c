//! The continuous-query runtime.
//!
//! A [`ContinuousQuery`] wraps one bound plan containing a single
//! `StreamScan`. The stream's batches — its tuples, or the result batches
//! of the CQ behind a derived stream — are staged through one entry,
//! [`ContinuousQuery::stage`]; whenever a window closes, the relational
//! plan runs over the window relation with the window's close timestamp
//! as `cq_close(*)` and — if the plan reads tables — a fresh MVCC snapshot
//! pinned at the boundary (window consistency, §4). Each closed window
//! yields a [`CqOutput`]; the concatenation of outputs is the CQ's result
//! stream (§3.1: "a query that produces a stream never ends").

use std::sync::Arc;

use streamrel_exec::{execute, ExecContext, RelationSource};
use streamrel_ivm::{MatchCounts, IVM_INPUT};
use streamrel_obs::IvmMetrics;
use streamrel_sql::analyzer::AnalyzedQuery;
use streamrel_sql::plan::{LogicalPlan, SchemaRef, WindowSpec};
use streamrel_storage::{Snapshot, StorageEngine};
use streamrel_types::{Error, Relation, Result, Row, Timestamp};

use crate::consistency::{ConsistencyMode, SnapshotSource};
use crate::shared::{place, Advanced, Placement, SharedRegistry, Slot};

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
#[derive(Clone)]
pub struct WindowTask {
    /// Shared with the CQ: staging a window copies no plan.
    plan: Arc<LogicalPlan>,
    /// Stream name bound to the window relation ([`IVM_INPUT`] for the
    /// post-anchor plan of a lowered CQ).
    input: Arc<str>,
    /// The window relation: raw rows, or a maintained anchor's output.
    rel: Relation,
    close: Timestamp,
    engine: Arc<StorageEngine>,
    /// Snapshot pinned at CQ start (`QueryStart` mode only);
    /// `WindowBoundary` pins fresh at run time.
    snapshot: Option<Snapshot>,
}

impl WindowTask {
    /// The window close timestamp.
    pub fn close(&self) -> Timestamp {
        self.close
    }

    /// Rows in the staged window relation (for trace accounting).
    pub fn input_rows(&self) -> usize {
        self.rel.len()
    }

    /// Evaluate the staged window. Side-effect free: reads only the
    /// captured relation and an MVCC snapshot.
    pub fn run(&self) -> Result<CqOutput> {
        self.clone().run_owned()
    }

    /// [`WindowTask::run`], handing the window relation to the plan
    /// instead of copying it — the engine's path.
    pub fn run_owned(self) -> Result<CqOutput> {
        let source = match self.snapshot {
            Some(start) => SnapshotSource::with_snapshot(self.engine.clone(), start),
            // Window consistency: a fresh snapshot at this boundary.
            None => SnapshotSource::pin(self.engine.clone()),
        };
        let source = &source as &dyn RelationSource;
        let ctx = ExecContext::window_owned(source, &self.input, self.rel, self.close);
        Ok(CqOutput {
            close: self.close,
            relation: execute(&self.plan, &ctx)?,
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

/// A running continuous query.
pub struct ContinuousQuery {
    name: String,
    plan: Arc<LogicalPlan>,
    stream: String,
    /// What this CQ's tasks run over a window relation, and the name they
    /// bind it to: `plan` and `stream`, or, once lowered, the post-anchor
    /// plan and [`IVM_INPUT`].
    task_plan: Arc<LogicalPlan>,
    input: Arc<str>,
    window: WindowSpec,
    engine: Arc<StorageEngine>,
    /// Snapshot pinned at CQ start (QueryStart consistency mode only).
    start_snapshot: Option<Snapshot>,
    /// Where the window's tuples live until close: once
    /// [`ContinuousQuery::place`]d, the CQ is a member (`slot`) of a slice
    /// store in its stream's [`SharedRegistry`], which takes each tuple
    /// once, keeps the member's close cursor and window view and hands over
    /// the window relation at each close — the anchor output of a lowered
    /// plan, the raw rows of any other.
    slot: Option<Slot>,
    /// The one-store registry of a CQ that is driven on its own
    /// ([`ContinuousQuery::stage_tuple`]); empty inside an engine.
    own: SharedRegistry,
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
            if let LogicalPlan::StreamScan { stream, window, .. } = p {
                scan = Some((stream.clone(), *window));
            }
        });
        let (stream, window) =
            scan.ok_or_else(|| Error::stream("continuous plan has no stream scan"))?;
        let start_snapshot = match consistency {
            ConsistencyMode::QueryStart => Some(engine.snapshot()),
            ConsistencyMode::WindowBoundary => None,
        };
        let plan = Arc::new(analyzed.plan.clone());
        Ok(ContinuousQuery {
            name: name.into(),
            task_plan: plan.clone(),
            plan,
            input: stream.as_str().into(),
            stream,
            window,
            engine,
            start_snapshot,
            slot: None,
            own: SharedRegistry::default(),
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

    /// Where this CQ's window state lives in its stream's registry, once
    /// it is placed.
    pub fn slot(&self) -> Option<Slot> {
        self.slot
    }

    /// Decide where this CQ's window state lives ([`place`]) and act on
    /// it: the window becomes a member of a slice store in `registry` (its
    /// stream's) — for a time window the pooled store for its shape under
    /// `sharing`, else a private one — that keeps the partials its plan
    /// lowers to or, when it does not lower, its raw rows. Must be called
    /// before any tuple flows. Bumps `ivm.lowered`
    /// / `ivm.fallback` and records the decision (and any fallback reason)
    /// on the trace ring. A join under `QueryStart` consistency reads its
    /// match counts at the pinned snapshot here, once; failing that read
    /// fails the placement.
    pub fn place(&mut self, sharing: bool, ivm: bool, registry: &mut SharedRegistry) -> Result<()> {
        if self.stats.tuples_in > 0 || self.slot.is_some() {
            return Ok(());
        }
        let metrics = IvmMetrics::register(self.engine.metrics());
        let trace = self.engine.metrics().trace();
        let Placement {
            program, fallback, ..
        } = place(&self.plan, sharing, ivm, Some(registry));
        if let (Some(reason), true) = (fallback, ivm) {
            metrics.fallback.inc();
            trace.record("cq.ivm.fallback", &self.name, reason.to_string(), 0);
        }
        // Defense in depth: admission (`streamrel-check`) rejects unbounded
        // scans before a CQ is placed.
        let program = program.ok_or_else(|| {
            Error::stream(
                "stream scanned without a window bound; \
                 the plan was not admission-checked",
            )
        })?;
        let pin = |s| SnapshotSource::with_snapshot(self.engine.clone(), s);
        let start = self.start_snapshot.clone().map(pin);
        let frozen = start
            .map(|s| MatchCounts::read(&program.shape, &s))
            .transpose()?;
        let frozen = frozen.flatten().map(Arc::new);
        metrics.table_scans.add(u64::from(frozen.is_some()));
        // A window the pooled store's grid cannot take is the one `join`
        // gives a private store.
        let (slot, pooled) = registry.join(&program, sharing, frozen)?;
        self.slot = Some(slot);
        if fallback.is_none() {
            metrics.lowered.inc();
            trace.record(
                if pooled { "cq.share" } else { "cq.ivm" },
                &self.name,
                format!("visible={} advance={}", program.visible, program.advance),
                0,
            );
            self.task_plan = Arc::new(program.post_plan);
            self.input = IVM_INPUT.into();
        }
        Ok(())
    }

    /// Stage, without evaluating them, the windows that one batch of the
    /// stream's tuples and the time `bound` close: a heartbeat's time
    /// (punctuation: event time advancing without a tuple) or the close of
    /// the upstream window a derived stream's batch is the result of.
    /// `advanced` is what the stream's stores did with the same batch: the
    /// CQ takes its closed windows from there, and only the post-plan is
    /// deferred to the task.
    pub fn stage(&mut self, rows: &[Row], advanced: &mut Advanced, tasks: &mut Vec<WindowTask>) {
        self.stats.tuples_in += rows.len() as u64;
        let closed = self.slot.and_then(|slot| advanced.closed.remove(&slot));
        let staged = closed.into_iter().flatten();
        tasks.extend(staged.map(|(close, w)| self.make_task(w.into_relation(), close)));
    }

    /// [`ContinuousQuery::stage`] for a CQ driven on its own (unit tests,
    /// the benchmark's per-layer replay): a window that nobody placed
    /// joins a raw-rows store in a registry the CQ owns, and the batch is
    /// advanced through that registry and staged from it.
    fn stage_own(&mut self, rows: Arc<[Row]>, bound: Option<Timestamp>) -> Result<Vec<WindowTask>> {
        let mut own = std::mem::take(&mut self.own);
        let placed = self.place(false, false, &mut own);
        let mut advanced = own.advance(&rows, bound, false, None, Some(&self.engine));
        self.own = own;
        placed?;
        if let Some((_, e)) = advanced.failed.pop() {
            return Err(e);
        }
        let mut tasks = Vec::new();
        self.stage(&rows, &mut advanced, &mut tasks);
        Ok(tasks)
    }

    /// Stage the windows one tuple closes, for a CQ driven on its own.
    pub fn stage_tuple(&mut self, row: Row) -> Result<Vec<WindowTask>> {
        self.stage_own(Arc::new([row]), None)
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
    /// were already emitted (their results live in the Active Table). A
    /// time window's next close is re-aligned to its advance grid —
    /// resuming at `watermark + advance` from an unaligned watermark would
    /// drift every subsequent close off the alignment invariant (breaking
    /// slice sharing and `cq_close` equality joins); a count window's
    /// ordinal cursor is not moved. `registry` is the one this CQ was
    /// placed in.
    pub fn resume_after(&mut self, watermark: Timestamp, registry: &mut SharedRegistry) {
        let next = self
            .slot
            .and_then(|slot| registry.resume_after(slot, watermark));
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

    fn make_task(&self, rel: Relation, close: Timestamp) -> WindowTask {
        WindowTask {
            plan: self.task_plan.clone(),
            input: self.input.clone(),
            rel,
            close,
            engine: self.engine.clone(),
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

    /// Evaluate what a batch staged, inline and in staging order — what
    /// the engine does through its pool.
    fn run(cq: &mut ContinuousQuery, tasks: Vec<WindowTask>) -> Result<Vec<CqOutput>> {
        let mut outputs = Vec::with_capacity(tasks.len());
        for task in tasks {
            let out = task.run()?;
            cq.finish_window(task.input_rows(), &out);
            outputs.push(out);
        }
        Ok(outputs)
    }

    /// A CQ driven on its own: it joins a store in the registry it owns.
    trait Driven {
        fn on_tuple(&mut self, row: Row) -> Result<Vec<CqOutput>>;
        fn on_heartbeat(&mut self, ts: Timestamp) -> Result<Vec<CqOutput>>;
        fn with_own<T>(&mut self, f: impl FnOnce(&mut Self, &mut SharedRegistry) -> T) -> T;
        fn resume(&mut self, watermark: Timestamp);
        fn sliced(self, sharing: bool) -> Self;
    }

    impl Driven for ContinuousQuery {
        fn on_tuple(&mut self, row: Row) -> Result<Vec<CqOutput>> {
            let tasks = self.stage_tuple(row)?;
            run(self, tasks)
        }

        fn on_heartbeat(&mut self, ts: Timestamp) -> Result<Vec<CqOutput>> {
            let tasks = self.stage_own(Arc::new([]), Some(ts))?;
            run(self, tasks)
        }

        fn with_own<T>(&mut self, f: impl FnOnce(&mut Self, &mut SharedRegistry) -> T) -> T {
            let mut own = std::mem::take(&mut self.own);
            let out = f(self, &mut own);
            self.own = own;
            out
        }

        fn resume(&mut self, watermark: Timestamp) {
            self.with_own(|cq, own| {
                cq.place(false, false, own).unwrap();
                cq.resume_after(watermark, own);
            });
        }

        /// Place the CQ as the engine would with `ivm` on: pooled, or private.
        fn sliced(mut self, sharing: bool) -> Self {
            self.with_own(|cq, own| cq.place(sharing, true, own))
                .unwrap();
            assert!(self.slot().is_some());
            self
        }
    }

    fn make_cq(
        provider: &Provider,
        engine: Arc<StorageEngine>,
        sql: &str,
        mode: ConsistencyMode,
    ) -> ContinuousQuery {
        let Statement::Select(q) = parse_statement(sql).unwrap() else {
            panic!()
        };
        let analyzed = Analyzer::new(provider).analyze(&q).unwrap();
        ContinuousQuery::new("test_cq", &analyzed, engine, mode).unwrap()
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
        assert_eq!(cq.stats().windows_out, 3);
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
        let sql = "SELECT url FROM url_stream <TUMBLING '1 minute'> WHERE url LIKE '/a%'";
        // With IVM off the plan is never even considered: no counter.
        let mut off = make_cq(&p, e.clone(), sql, ConsistencyMode::WindowBoundary);
        off.with_own(|cq, own| cq.place(true, false, own)).unwrap();
        assert_eq!(e.metrics().counter("ivm.fallback").get(), 0);
        // With it on, the fallback is counted and traced — and either way
        // the window is a member of a raw-rows store, nothing lowered.
        let mut cq = make_cq(&p, e.clone(), sql, ConsistencyMode::WindowBoundary).sliced(true);
        assert!(off.slot().is_some() && cq.own.len() == 1);
        assert_eq!(e.metrics().counter("ivm.fallback").get(), 1);
        assert_eq!(e.metrics().counter("ivm.lowered").get(), 0);
        let events = e.metrics().trace().dump();
        assert!(events.iter().any(|ev| ev.kind == "cq.ivm.fallback"));
        assert!(!events.iter().any(|ev| ev.kind == "cq.share"));
        // The whole plan runs over the window's rows at each close.
        for cq in [&mut off, &mut cq] {
            cq.on_tuple(tup("/a1", 5)).unwrap();
            cq.on_tuple(tup("/b1", 6)).unwrap();
            let outs = cq.on_heartbeat(MINUTES).unwrap();
            assert_eq!(outs[0].relation.rows(), &[row!["/a1"]]);
        }
    }

    #[test]
    fn count_windows_buffer_their_own_rows() {
        let (p, e) = setup();
        let sql = "SELECT count(*) c FROM url_stream <VISIBLE 3 ROWS ADVANCE 2 ROWS>";
        let mut cq = make_cq(&p, e.clone(), sql, ConsistencyMode::WindowBoundary);
        cq.with_own(|cq, own| cq.place(true, true, own)).unwrap();
        assert_eq!(e.metrics().counter("ivm.fallback").get(), 1);
        let mut outs = Vec::new();
        for i in 0..4 {
            outs.extend(cq.on_tuple(tup("/a", i)).unwrap());
        }
        assert!(cq.on_heartbeat(MINUTES).unwrap().is_empty(), "data-driven");
        let counts: Vec<_> = outs.iter().map(|o| o.relation.rows()[0].clone()).collect();
        assert_eq!(counts, vec![row![2i64], row![3i64]]);
        assert_eq!(cq.stats().tuples_in, 4);
    }

    #[test]
    fn placement_is_decided_once_and_the_last_leaver_takes_the_store() {
        let (p, e) = setup();
        let sql = "SELECT url, count(*) c FROM url_stream \
                   <TUMBLING '1 minute'> GROUP BY url";
        let mut stores = SharedRegistry::default();
        let mut a = make_cq(&p, e.clone(), sql, ConsistencyMode::WindowBoundary);
        let mut b = make_cq(&p, e.clone(), sql, ConsistencyMode::WindowBoundary);
        a.place(true, true, &mut stores).unwrap();
        b.place(true, true, &mut stores).unwrap();
        assert_eq!(a.slot().unwrap().0, b.slot().unwrap().0, "pooled");
        a.place(true, true, &mut stores).unwrap();
        assert_eq!(stores.len(), 1, "already placed");
        assert_eq!(e.metrics().counter("ivm.lowered").get(), 2);

        // One advance of the stream's stores serves both members.
        let rows: Arc<[Row]> = Arc::new([tup("/a", 5)]);
        let mut advanced = stores.advance(&rows, Some(MINUTES), false, None, None);
        for cq in [&mut a, &mut b] {
            let mut tasks = Vec::new();
            cq.stage(&rows, &mut advanced, &mut tasks);
            assert_eq!(run(cq, tasks).unwrap().len(), 1);
        }
        assert!(a.own.is_empty(), "placed in its stream's registry");
        assert_eq!(
            stores.leave(a.slot().unwrap()),
            (0, 0),
            "a sibling still reads the store"
        );
        assert_eq!(stores.len(), 1);
        stores.leave(b.slot().unwrap());
        assert!(stores.is_empty());
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
        cq.resume(5 * MINUTES);
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
        unshared.resume(unaligned);
        let outs = unshared.on_heartbeat(7 * MINUTES).unwrap();
        let closes: Vec<Timestamp> = outs.iter().map(|o| o.close).collect();
        assert_eq!(closes, vec![6 * MINUTES, 7 * MINUTES]);

        let mut shared = make_cq(&p, e, sql, ConsistencyMode::WindowBoundary).sliced(true);
        shared.resume(unaligned);
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
        cq.resume(MINUTES);
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
        let st = cq.stats();
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
        let schema = cq.output_schema();
        assert_eq!(schema.column(0).name, "url");
        assert_eq!(schema.column(1).name, "hits");
        assert_eq!(cq.stream(), "url_stream");
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
