//! The stream-relational database object: catalog, DDL and CQ
//! registration. Catalog state lives behind one lock, while each base
//! stream's runtime — and that of every derived stream it feeds — lives in
//! its own [`Shard`], so traffic on distinct streams never contends. The
//! tick path, client subscriptions and recovery are its modules.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use streamrel_check::{check_plan, CheckContext, CheckReport, StateBudget};
use streamrel_cq::recovery::{save_watermark, watermark_key};
use streamrel_cq::{ContinuousQuery, CqStats, ReorderBuffer, WorkerPool};
use streamrel_exec::{execute, ExecContext, ExecMetrics};
use streamrel_obs::{Counter, Histogram, IvmMetrics};
use streamrel_sql::analyzer::{AnalyzedQuery, Analyzer, RelKind, SchemaProvider};
use streamrel_sql::ast::{ChannelMode, ColumnDef, Expr, ObjectKind, Query, ShowKind, Statement};
use streamrel_sql::parser::parse_statement;
use streamrel_sql::plan::{BoundExpr, LogicalPlan, SchemaRef};
use streamrel_storage::{Io, StdIo, StorageEngine};
use streamrel_types::{Column, Error, Relation, Result, Row, Schema, Timestamp, Value};

use crate::options::DbOptions;
use crate::provider::StreamDecl;
use crate::shard::{ChannelSink, CqEntry, Shard, ShardState, Sink, StreamRuntime};
use crate::subscription::{Outlet, ResultNotifier, SubscriptionId};

mod recovery;
mod subscriptions;
mod tick;

use subscriptions::{ClientSub, First};

/// Result of [`Db::execute`].
#[derive(Debug)]
pub enum ExecResult {
    /// DDL succeeded; the created object's name.
    Created(String),
    /// DROP succeeded (or IF EXISTS found nothing).
    Dropped(String),
    /// Rows inserted (tables) or ingested (streams).
    Inserted(u64),
    /// Rows deleted.
    Deleted(u64),
    /// Table truncated.
    Truncated(String),
    /// Snapshot query result.
    Rows(Relation),
    /// Continuous query registered; poll with [`Db::poll`].
    Subscribed(SubscriptionId),
}

impl ExecResult {
    /// Unwrap a snapshot result (panics otherwise) — test/example sugar.
    pub fn rows(self) -> Relation {
        match self {
            ExecResult::Rows(r) => r,
            other => panic!("expected rows, got {other:?}"),
        }
    }

    /// Unwrap a subscription id (panics otherwise).
    pub fn subscription(self) -> SubscriptionId {
        match self {
            ExecResult::Subscribed(s) => s,
            other => panic!("expected subscription, got {other:?}"),
        }
    }
}

/// Aggregate runtime counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct DbStats {
    /// Tuples ingested across all streams.
    pub tuples_in: u64,
    /// Window results produced across all CQs.
    pub windows_out: u64,
    /// Rows archived into Active Tables by channels.
    pub rows_archived: u64,
    /// Tuples dropped as too late (outside slack).
    pub late_drops: u64,
    /// Window results dropped because an embedded member's queue
    /// overflowed (a server's members count theirs in `net.outbox_drops`).
    pub sub_drops: u64,
    /// Currently registered client subscriptions.
    pub live_subs: u64,
    /// Window results currently queued for embedded members.
    pub sub_queued: u64,
}

/// A stream's catalog entry: its declaration, which shard owns its runtime
/// and — for a derived stream — the CQ that produces it. A derived stream
/// lives in the same shard as the base stream its CQ DAG is rooted at, so
/// `pump` never crosses shards.
struct CatStream {
    decl: StreamDecl,
    shard: Arc<Shard>,
    producer: Option<u64>,
}

/// A channel's definition. `rows_written` is shared with the
/// [`ChannelSink`] mirrored into the producing shard, so `SHOW CHANNELS`
/// reads it without any shard lock.
struct ChannelDef {
    table: String,
    mode: ChannelMode,
    rows_written: Arc<AtomicU64>,
}

// The `Db::catalog` mutex (DDL state) is acquired before any shard's
// `state` lock, which covers everything a base stream runs on — reorder
// buffer, slice stores, CQ runtimes, client sinks
// (`streamrel_check::lock_order`).

/// Catalog and DDL state: everything that is *not* on the per-tuple hot
/// path. Stream declarations (base and derived), views, channel
/// definitions and the shard map itself.
struct Catalog {
    streams: HashMap<String, CatStream>,
    views: HashMap<String, String>,
    channels: HashMap<String, ChannelDef>,
    /// The execution shards. Streams are assigned at CREATE time and
    /// never migrate; a dropped stream's shard slot stays (slots are
    /// cheap, and assignment and WAL domains go by slot index).
    shards: Vec<Arc<Shard>>,
    /// Streams created so far (drives round-robin shard assignment).
    stream_seq: usize,
    next_cq: u64,
    next_sub: u64,
    ddl_seq: u64,
    /// Summed conservative state bounds of the running CQs, charged
    /// against `DbOptions::state_budget_bytes` at admission and released
    /// on teardown. Maintained even without a budget (it is cheap and
    /// the ledger must be warm if a budget is ever configured).
    admitted_state_bytes: u64,
    /// Per-CQ share of `admitted_state_bytes`, keyed by CQ id, so
    /// teardown releases exactly what admission charged.
    cq_state_bytes: HashMap<u64, u64>,
}

/// Cached handles into the engine's metrics registry. Held as `Arc`s so
/// the ingest/pump hot paths never touch the registry lock.
struct DbMetrics {
    tuples_in: Arc<Counter>,
    windows_out: Arc<Counter>,
    rows_archived: Arc<Counter>,
    late_drops: Arc<Counter>,
    /// Where embedded members are accounted.
    embedded: Outlet,
    /// Ingest/heartbeat calls that found their shard lock already held.
    shard_contention: Arc<Counter>,
    /// Plans refused by the Level-1 admission check.
    check_rejected: Arc<Counter>,
    /// Subset of rejections caused by the cross-CQ state budget.
    check_budget_rejected: Arc<Counter>,
    /// Warnings attached to admitted plans.
    check_warned: Arc<Counter>,
    /// The slice stores' instruments.
    ivm: IvmMetrics,
    /// Wall time per batch of a stream's slice stores (fold, close), µs.
    store_phase_us: Arc<Histogram>,
    /// Wall time per batch of its closed windows' plans, µs.
    post_plan_us: Arc<Histogram>,
    /// Wall time per archiving batch of its channel transaction, µs, and
    /// the rows a channel insert cloned rather than moved.
    archive_us: Arc<Histogram>,
    archive_row_clones: Arc<Counter>,
    exec: ExecMetrics,
}

impl DbMetrics {
    fn register(registry: &streamrel_obs::Registry) -> DbMetrics {
        DbMetrics {
            tuples_in: registry.counter("db.tuples_in"),
            windows_out: registry.counter("db.windows_out"),
            rows_archived: registry.counter("db.rows_archived"),
            late_drops: registry.counter("db.late_drops"),
            embedded: Outlet {
                depth: registry.gauge("db.sub_queue_depth"),
                drops: registry.counter("db.sub_drops"),
                serve: None,
            },
            shard_contention: registry.counter("db.shard.contention"),
            check_rejected: registry.counter("check.rejected"),
            check_budget_rejected: registry.counter("check.budget_rejected"),
            check_warned: registry.counter("check.warned"),
            ivm: IvmMetrics::register(registry),
            store_phase_us: registry.histogram("db.store_phase_us"),
            post_plan_us: registry.histogram("db.post_plan_us"),
            archive_us: registry.histogram("db.archive_us"),
            archive_row_clones: registry.counter("db.archive.row_clones"),
            exec: ExecMetrics::register(registry),
        }
    }
}

/// The stream-relational database: one SQL entry point over tables,
/// streams and their combinations (§2.3).
pub struct Db {
    engine: Arc<StorageEngine>,
    options: DbOptions,
    catalog: Mutex<Catalog>,
    /// Every live client subscription, by id.
    subscriptions: Mutex<HashMap<SubscriptionId, ClientSub>>,
    pool: WorkerPool,
    notify: Arc<ResultNotifier>,
    metrics: DbMetrics,
}

impl Db {
    /// Purely in-memory database (no WAL); for tests and baselines.
    pub fn in_memory(options: DbOptions) -> Db {
        Db::with_engine(Arc::new(StorageEngine::in_memory()), options)
    }

    /// Open (or create) a durable database at `dir`. Recovers durable
    /// state via the WAL, then replays persisted DDL to rebuild streams,
    /// views, derived streams and channels, then finishes CQ recovery
    /// from the Active Tables (§4): each derived CQ resumes after its
    /// watermark and its in-flight window is rebuilt from the archives
    /// it reads (`db/recovery.rs`).
    pub fn open(dir: impl AsRef<Path>, options: DbOptions) -> Result<Db> {
        Db::open_with_io(dir, options, StdIo::shared())
    }

    /// [`Db::open`] over an explicit storage [`Io`] implementation — the
    /// seam the crash-recovery torture harness uses to run the full SQL /
    /// CQ stack against a simulated fault-injecting disk (DESIGN.md §10).
    pub fn open_with_io(dir: impl AsRef<Path>, options: DbOptions, io: Arc<dyn Io>) -> Result<Db> {
        let engine = Arc::new(StorageEngine::open_with_opts(
            dir.as_ref(),
            options.sync,
            io,
            options.resolved_wal_shards(),
        )?);
        let db = Db::with_engine(engine, options);
        db.replay_ddl()?;
        db.recover_cqs()?;
        Ok(db)
    }

    fn with_engine(engine: Arc<StorageEngine>, options: DbOptions) -> Db {
        // Arm the runtime lock witness with the declared acquisition order.
        // Installing the same table twice is a no-op, so repeated Db
        // construction is fine; validation is on in debug builds only.
        parking_lot::witness::install_order(streamrel_check::lock_order::GLOBAL_LOCK_ORDER);
        let metrics = DbMetrics::register(engine.metrics());
        let pool = WorkerPool::new(options.resolved_pool_workers(), engine.metrics());
        Db {
            catalog: Mutex::named(
                "core.catalog",
                Catalog {
                    streams: HashMap::new(),
                    views: HashMap::new(),
                    channels: HashMap::new(),
                    shards: Vec::new(),
                    stream_seq: 0,
                    next_cq: 1,
                    next_sub: 1,
                    ddl_seq: 1,
                    admitted_state_bytes: 0,
                    cq_state_bytes: HashMap::new(),
                },
            ),
            subscriptions: Mutex::named("core.subscriptions", HashMap::new()),
            pool,
            notify: ResultNotifier::new(),
            metrics,
            engine,
            options,
        }
    }

    /// The underlying storage engine (checkpointing, stats, direct scans).
    pub fn engine(&self) -> &Arc<StorageEngine> {
        &self.engine
    }

    /// Snapshot of the `streamrel_metrics` virtual relation — the same
    /// relation `SELECT * FROM streamrel_metrics` and `SHOW METRICS` serve,
    /// embedded or over the wire.
    pub fn metrics_relation(&self) -> Relation {
        self.engine.metrics().to_relation()
    }

    /// Snapshot of the `streamrel_trace` virtual relation (the trace ring).
    pub fn trace_relation(&self) -> Relation {
        self.engine.metrics().trace().to_relation()
    }

    /// Wakes whenever a client subscription receives a window result.
    /// Blocking consumers park in [`ResultNotifier::wait_newer`]; a
    /// server is handed windows through its outlet ([`Db::serve`]).
    pub fn notifier(&self) -> Arc<ResultNotifier> {
        self.notify.clone()
    }

    /// Schema of a base stream, if `name` is one.
    pub fn stream_schema(&self, name: &str) -> Option<SchemaRef> {
        let catalog = self.catalog.lock();
        let s = catalog.streams.get(&name.to_ascii_lowercase())?;
        s.producer.is_none().then(|| s.decl.schema.clone())
    }

    /// Per-CQ counters for the CQ backing derived stream `name`.
    pub fn derived_cq_stats(&self, name: &str) -> Option<CqStats> {
        let (shard, cq_id) = {
            let catalog = self.catalog.lock();
            let d = catalog.streams.get(&name.to_ascii_lowercase())?;
            (d.shard.clone(), d.producer?)
        };
        let state = shard.state.lock();
        state.cqs.get(&cq_id).map(|e| e.cq.stats())
    }

    // ---- SQL entry points ---------------------------------------------------

    /// Execute one SQL statement.
    pub fn execute(&self, sql: &str) -> Result<ExecResult> {
        let stmt = parse_statement(sql)?;
        self.execute_stmt(stmt, sql, true)
    }

    /// Execute a semicolon-separated script, returning every result. The
    /// whole script is parsed before anything runs (a syntax error
    /// executes nothing); each statement then runs — and, if DDL, persists
    /// — under its own text, exactly as through [`Db::execute`].
    pub fn execute_script(&self, sql: &str) -> Result<Vec<ExecResult>> {
        let pieces = crate::script::split_statements(sql);
        let stmts = pieces
            .iter()
            .map(|piece| parse_statement(piece))
            .collect::<Result<Vec<_>>>()?;
        stmts
            .into_iter()
            .zip(&pieces)
            .map(|(stmt, piece)| self.execute_stmt(stmt, piece, true))
            .collect()
    }

    // ---- statement dispatch -------------------------------------------------

    fn execute_stmt(&self, stmt: Statement, sql: &str, persistable: bool) -> Result<ExecResult> {
        match stmt {
            Statement::CreateTable {
                name,
                columns,
                if_not_exists,
            } => {
                if if_not_exists && self.engine.has_table(&name) {
                    return Ok(ExecResult::Created(name));
                }
                // Held across the create, so no stream or view can take
                // the name between the check and the table.
                let catalog = self.catalog.lock();
                self.check_name_free(&catalog, &name.to_ascii_lowercase())?;
                let schema = column_defs_to_schema(&columns)?;
                self.engine.create_table(&name, schema)?;
                Ok(ExecResult::Created(name))
            }
            Statement::CreateStream {
                name,
                columns,
                if_not_exists,
            } => self.create_stream(&name, &columns, if_not_exists, sql, persistable),
            Statement::CreateDerivedStream { name, query } => {
                self.create_derived(&name, &query, sql, persistable)
            }
            Statement::CreateView { name, query } => {
                self.create_view(&name, &query, sql, persistable)
            }
            Statement::CreateChannel {
                name,
                from_stream,
                into_table,
                mode,
            } => self.create_channel(&name, &from_stream, &into_table, mode, sql, persistable),
            Statement::CreateIndex {
                name,
                table,
                columns,
            } => {
                self.engine.create_index(&name, &table, &columns)?;
                Ok(ExecResult::Created(name))
            }
            Statement::Drop {
                kind,
                name,
                if_exists,
            } => self.drop_object(kind, &name, if_exists),
            Statement::Insert {
                table,
                columns,
                rows,
            } => self.insert(&table, columns.as_deref(), &rows),
            Statement::Delete { table, filter } => self.delete(&table, filter.as_ref()),
            Statement::Truncate { table } => {
                let id = self.engine.table_id(&table)?;
                self.engine.truncate(id)?;
                Ok(ExecResult::Truncated(table))
            }
            Statement::Select(query) => self.select(&query, None),
            Statement::CreateTableAs { name, query } => self.create_table_as(&name, &query),
            Statement::Explain(query) => self.explain(&query),
            Statement::ExplainCheck(query) => self.explain_check(&query),
            Statement::Show(kind) => Ok(ExecResult::Rows(self.show(kind))),
            Statement::Checkpoint => {
                self.engine.checkpoint()?;
                Ok(ExecResult::Created("checkpoint".into()))
            }
            Statement::Vacuum => {
                let n = self.engine.vacuum();
                Ok(ExecResult::Deleted(n as u64))
            }
        }
    }

    /// `CREATE TABLE name AS <snapshot query>`.
    fn create_table_as(&self, name: &str, query: &Query) -> Result<ExecResult> {
        let analyzed = {
            let catalog = self.catalog.lock();
            self.check_name_free(&catalog, &name.to_ascii_lowercase())?;
            let provider = self.provider(&catalog);
            Analyzer::new(&provider).analyze(query)?
        };
        if analyzed.is_continuous {
            return Err(Error::analysis(
                "CREATE TABLE AS requires a snapshot query \
                 (use CREATE STREAM ... AS + a channel for continuous results)",
            ));
        }
        let source = streamrel_cq::SnapshotSource::pin(self.engine.clone());
        let rel = execute(&analyzed.plan, &ExecContext::snapshot(&source))?;
        // Result columns may repeat names; disambiguate for the table.
        let mut cols: Vec<Column> = Vec::with_capacity(rel.schema().len());
        for c in rel.schema().columns() {
            let mut name = c.name.clone();
            let mut k = 1;
            while cols
                .iter()
                .any(|p: &Column| p.name.eq_ignore_ascii_case(&name))
            {
                k += 1;
                name = format!("{}_{k}", c.name);
            }
            cols.push(Column {
                name,
                ty: c.ty,
                nullable: true,
            });
        }
        let id = self.engine.create_table(name, Schema::new(cols)?)?;
        self.engine
            .with_txn(|x| self.engine.insert_many(x, id, rel.into_rows()))?;
        Ok(ExecResult::Created(name.to_string()))
    }

    /// `EXPLAIN <select>`: the bound plan, one node per row, plus the
    /// SQ/CQ classification of §3.1.
    fn explain(&self, query: &Query) -> Result<ExecResult> {
        let analyzed = {
            let catalog = self.catalog.lock();
            let provider = self.provider(&catalog);
            Analyzer::new(&provider).analyze(query)?
        };
        let schema = Arc::new(Schema::new_unchecked(vec![Column::new(
            "plan",
            streamrel_types::DataType::Text,
        )]));
        let mut rel = Relation::empty(schema);
        let kind = if analyzed.is_continuous {
            "Continuous Query (CQ): runs once per window"
        } else {
            "Snapshot Query (SQ): runs once over current state"
        };
        rel.push(vec![Value::text(kind)]);
        for line in analyzed.plan.explain().lines() {
            rel.push(vec![Value::text(line)]);
        }
        Ok(ExecResult::Rows(rel))
    }

    /// `EXPLAIN CHECK <select>`: the Level-1 static-safety report — the
    /// SQ/CQ classification, the admission verdict, every rule finding
    /// with its fix hint, and the conservative state-size bound — without
    /// registering anything.
    fn explain_check(&self, query: &Query) -> Result<ExecResult> {
        let catalog = self.catalog.lock();
        let analyzed = Analyzer::new(&self.provider(&catalog)).analyze(query)?;
        let report = self.check(&catalog, &analyzed.plan);
        Ok(ExecResult::Rows(report.to_relation()))
    }

    /// Run the Level-1 analysis against the engine as it stands: the
    /// options, the budget ledger and — under the owning shard's lock —
    /// the live slice stores of the stream the plan scans, so the
    /// shared-grid rule sees the grid registration would.
    fn check(&self, catalog: &Catalog, plan: &LogicalPlan) -> CheckReport {
        // No stream is named "", so a snapshot plan finds no registry.
        let scanned = plan
            .stream_scans()
            .first()
            .map_or(String::new(), |(name, _)| name.to_ascii_lowercase());
        let state = (catalog.streams.get(&scanned)).map(|s| s.shard.state.lock());
        let registry = state
            .as_ref()
            .and_then(|state| state.streams.get(&scanned))
            .map(|rt| &rt.stores);
        check_plan(
            plan,
            &CheckContext {
                sharing: self.options.sharing,
                ivm: self.options.ivm,
                registry,
                budget: self.budget_context(catalog),
            },
        )
    }

    /// The live cross-CQ budget snapshot for one admission decision,
    /// when `DbOptions::state_budget_bytes` is configured.
    fn budget_context(&self, catalog: &Catalog) -> Option<StateBudget> {
        self.options
            .state_budget_bytes
            .map(|limit_bytes| StateBudget {
                limit_bytes,
                admitted_bytes: catalog.admitted_state_bytes,
            })
    }

    /// The Level-1 admission gate: every continuous plan is statically
    /// classified by `streamrel-check` *before* any runtime state (window
    /// buffers, subscriptions, shared-group membership) is allocated.
    /// Rejections surface as [`Error::Check`] with a fix hint; warnings
    /// only bump the `check.warned` counter.
    /// Returns the byte share to charge against the state-budget ledger
    /// for this CQ (its conservative bound, or 0 when unboundable —
    /// which only admits when no budget is configured).
    fn admit_plan(&self, catalog: &Catalog, plan: &LogicalPlan) -> Result<u64> {
        let report = self.check(catalog, plan);
        if let Some(err) = report.to_error() {
            if report.rejection().map(|f| f.rule) == Some("state-budget") {
                self.metrics.check_budget_rejected.inc();
            }
            self.metrics.check_rejected.inc();
            return Err(err);
        }
        self.metrics.check_warned.add(report.warnings() as u64);
        Ok(report.state_bound_bytes.unwrap_or(0))
    }

    /// Release a torn-down CQ's state share back to the budget ledger.
    fn release_cq(catalog: &mut Catalog, cq_id: u64) {
        if let Some(bytes) = catalog.cq_state_bytes.remove(&cq_id) {
            catalog.admitted_state_bytes = catalog.admitted_state_bytes.saturating_sub(bytes);
        }
    }

    /// `SHOW TABLES|STREAMS|VIEWS|CHANNELS|METRICS|TRACE`.
    fn show(&self, kind: ShowKind) -> Relation {
        match kind {
            ShowKind::Metrics => return self.metrics_relation(),
            ShowKind::Trace => return self.trace_relation(),
            _ => {}
        }
        let catalog = self.catalog.lock();
        let schema = |cols: &[&str]| {
            Arc::new(Schema::new_unchecked(
                cols.iter()
                    .map(|c| Column::new(*c, streamrel_types::DataType::Text))
                    .collect(),
            ))
        };
        match kind {
            ShowKind::Tables => {
                let mut rel = Relation::empty(schema(&["table", "columns"]));
                for name in self.engine.table_names() {
                    let cols = self
                        .engine
                        .table_schema(&name)
                        .map(|s| s.to_string())
                        .unwrap_or_default();
                    rel.push(vec![Value::text(&name), Value::text(cols)]);
                }
                rel
            }
            ShowKind::Streams => {
                let mut rel = Relation::empty(schema(&["stream", "kind", "columns"]));
                // Base streams first, then derived; by name within each.
                let mut streams: Vec<_> = catalog.streams.iter().collect();
                streams.sort_by_key(|(name, s)| (s.producer.is_some(), *name));
                for (name, s) in streams {
                    let kind = if s.producer.is_some() {
                        "derived"
                    } else {
                        "base"
                    };
                    rel.push(vec![
                        Value::text(name),
                        Value::text(kind),
                        Value::text(s.decl.schema.to_string()),
                    ]);
                }
                rel
            }
            ShowKind::Views => {
                let mut rel = Relation::empty(schema(&["view", "definition"]));
                let mut names: Vec<_> = catalog.views.keys().cloned().collect();
                names.sort();
                for name in names {
                    rel.push(vec![Value::text(&name), Value::text(&catalog.views[&name])]);
                }
                rel
            }
            ShowKind::Channels => {
                let mut rel =
                    Relation::empty(schema(&["channel", "into_table", "mode", "rows_written"]));
                let mut names: Vec<_> = catalog.channels.keys().cloned().collect();
                names.sort();
                for name in names {
                    let c = &catalog.channels[&name];
                    rel.push(vec![
                        Value::text(&name),
                        Value::text(&c.table),
                        Value::text(match c.mode {
                            ChannelMode::Append => "APPEND",
                            ChannelMode::Replace => "REPLACE",
                        }),
                        Value::text(c.rows_written.load(Ordering::SeqCst).to_string()),
                    ]);
                }
                rel
            }
            ShowKind::Metrics | ShowKind::Trace => unreachable!("handled above"),
        }
    }

    fn create_stream(
        &self,
        name: &str,
        columns: &[ColumnDef],
        if_not_exists: bool,
        sql: &str,
        persist: bool,
    ) -> Result<ExecResult> {
        let mut catalog = self.catalog.lock();
        let key = name.to_ascii_lowercase();
        if catalog.streams.contains_key(&key) {
            if if_not_exists {
                return Ok(ExecResult::Created(name.to_string()));
            }
            return Err(Error::catalog(format!("stream `{name}` already exists")));
        }
        self.check_name_free(&catalog, &key)?;
        let schema = column_defs_to_schema(columns)?;
        let cqtime = columns.iter().position(|c| c.cqtime_user);
        if let Some(i) = cqtime {
            if columns[i].ty != streamrel_types::DataType::Timestamp {
                return Err(Error::analysis("CQTIME column must be a timestamp"));
            }
        }
        let decl = StreamDecl {
            schema: Arc::new(schema),
            cqtime,
        };
        let reorder = match (self.options.slack, cqtime) {
            (s, Some(c)) if s > 0 => Some(ReorderBuffer::new(c, s)),
            _ => None,
        };
        let shard = self.assign_shard(&mut catalog);
        catalog.streams.insert(
            key.clone(),
            CatStream {
                decl: decl.clone(),
                shard: shard.clone(),
                producer: None,
            },
        );
        let runtime = StreamRuntime::new(decl, false, reorder);
        shard.state.lock().streams.insert(key.clone(), runtime);
        if persist {
            self.persist_ddl(&mut catalog, "stream", &key, sql)?;
        }
        Ok(ExecResult::Created(name.to_string()))
    }

    fn create_view(
        &self,
        name: &str,
        query: &Query,
        sql: &str,
        persist: bool,
    ) -> Result<ExecResult> {
        let mut catalog = self.catalog.lock();
        let key = name.to_ascii_lowercase();
        self.check_name_free(&catalog, &key)?;
        // Validate by analyzing now (errors surface at CREATE time).
        Analyzer::new(&self.provider(&catalog)).analyze(query)?;
        catalog.views.insert(key.clone(), sql.to_string());
        if persist {
            self.persist_ddl(&mut catalog, "view", &key, sql)?;
        }
        Ok(ExecResult::Created(name.to_string()))
    }

    fn create_derived(
        &self,
        name: &str,
        query: &Query,
        sql: &str,
        persist: bool,
    ) -> Result<ExecResult> {
        let mut catalog = self.catalog.lock();
        let key = name.to_ascii_lowercase();
        self.check_name_free(&catalog, &key)?;
        let analyzed = {
            let provider = self.provider(&catalog);
            Analyzer::new(&provider).analyze(query)?
        };
        if !analyzed.is_continuous {
            return Err(Error::analysis(
                "CREATE STREAM ... AS requires a continuous query \
                 (use CREATE VIEW or CREATE TABLE AS for snapshot queries)",
            ));
        }
        let (.., joined) = self.register_cq(&mut catalog, &analyzed, Sink::Derived(key.clone()))?;
        if persist {
            // Over an upstream that has taken tuples, the stream joins at its
            // high-water mark: that is its first watermark, so recovery
            // rebuilds no window that closed before it existed. Over an idle
            // one it clears what a dropped namesake may have left.
            if joined > Timestamp::MIN {
                save_watermark(&self.engine, &key, joined)?;
            } else {
                self.engine.catalog_del(&watermark_key(&key))?;
            }
            self.persist_ddl(&mut catalog, "derived", &key, sql)?;
        }
        Ok(ExecResult::Created(name.to_string()))
    }

    fn create_channel(
        &self,
        name: &str,
        from_stream: &str,
        into_table: &str,
        mode: ChannelMode,
        sql: &str,
        persist: bool,
    ) -> Result<ExecResult> {
        let mut catalog = self.catalog.lock();
        let key = name.to_ascii_lowercase();
        if catalog.channels.contains_key(&key) {
            return Err(Error::catalog(format!("channel `{name}` already exists")));
        }
        let from_key = from_stream.to_ascii_lowercase();
        let table = self.engine.table(into_table)?;
        let table_schema = &table.schema;
        let source = catalog.streams.get(&from_key).ok_or_else(|| {
            Error::catalog(format!("channel source `{from_stream}` is not a stream"))
        })?;
        if source.decl.schema.len() != table_schema.len() {
            return Err(Error::analysis(format!(
                "channel source has {} columns but table `{into_table}` has {}",
                source.decl.schema.len(),
                table_schema.len()
            )));
        }
        // Typed once, here: every row the stream can carry must coerce
        // into the table, so no batch is refused after its windows folded.
        // A stored channel is held to it on replay too (DESIGN.md §3.5).
        let mut pairs = table_schema
            .columns()
            .iter()
            .zip(source.decl.schema.columns());
        if let Some((to, from)) = pairs.find(|(to, from)| !to.takes(from)) {
            let stored = (!persist).then(|| {
                format!(
                    "stored channel `{name}` predates typed channels; \
                     drop it with the engine that stored it: "
                )
            });
            return Err(Error::analysis(format!(
                "{}table `{into_table}` column `{to}` cannot take stream column `{from}`",
                stored.unwrap_or_default()
            )));
        }
        let shard = source.shard.clone();
        let rows_written = Arc::new(AtomicU64::new(0));
        catalog.channels.insert(
            key.clone(),
            ChannelDef {
                table: into_table.to_string(),
                mode,
                rows_written: rows_written.clone(),
            },
        );
        let sink = ChannelSink {
            name: key.clone(),
            table_id: table.id,
            mode,
            rows_written,
        };
        {
            let mut state = shard.state.lock();
            if let Some(rt) = state.streams.get_mut(&from_key) {
                rt.channels.push(sink);
            }
        }
        if persist {
            self.persist_ddl(&mut catalog, "channel", &key, sql)?;
        }
        Ok(ExecResult::Created(name.to_string()))
    }

    fn drop_object(&self, kind: ObjectKind, name: &str, if_exists: bool) -> Result<ExecResult> {
        let key = name.to_ascii_lowercase();
        match kind {
            ObjectKind::Table => {
                if !self.engine.has_table(&key) {
                    return missing("table", name, if_exists);
                }
                // Channels hold their table's id: it cannot go first.
                let catalog = self.catalog.lock();
                if let Some((ch, _)) = catalog
                    .channels
                    .iter()
                    .find(|(_, c)| c.table.eq_ignore_ascii_case(&key))
                {
                    return Err(Error::catalog(format!(
                        "table `{name}` is written by channel `{ch}`; drop it first"
                    )));
                }
                self.engine.drop_table(&key)?;
                Ok(ExecResult::Dropped(name.to_string()))
            }
            ObjectKind::View => self.drop_view(&key, name, if_exists),
            ObjectKind::Stream => self.drop_stream(&key, name, if_exists),
            ObjectKind::Channel => self.drop_channel(&key, name, if_exists),
            ObjectKind::Index => {
                if self.engine.drop_index(&key)? {
                    Ok(ExecResult::Dropped(name.to_string()))
                } else {
                    missing("index", name, if_exists)
                }
            }
        }
    }

    fn drop_view(&self, key: &str, name: &str, if_exists: bool) -> Result<ExecResult> {
        let mut catalog = self.catalog.lock();
        if catalog.views.remove(key).is_none() {
            return missing("view", name, if_exists);
        }
        self.unpersist_ddl(&mut catalog, "view", key)?;
        Ok(ExecResult::Dropped(name.to_string()))
    }

    fn drop_stream(&self, key: &str, name: &str, if_exists: bool) -> Result<ExecResult> {
        let mut catalog = self.catalog.lock();
        let Some(stream) = catalog.streams.get(key) else {
            return missing("stream", name, if_exists);
        };
        let (producer, shard) = (stream.producer, stream.shard.clone());
        {
            let mut state = shard.state.lock();
            let rt = state.streams.get(key);
            if rt.is_some_and(|rt| !rt.cq_ids.is_empty() || !rt.channels.is_empty()) {
                let what = if producer.is_some() { "derived " } else { "" };
                return Err(Error::catalog(format!(
                    "{what}stream `{name}` has dependents; drop them first"
                )));
            }
            state.streams.remove(key);
            if let Some(cq_id) = producer {
                self.detach_cq(&mut state, cq_id);
            }
        }
        // The shard slot itself stays (see `Catalog::shards`).
        catalog.streams.remove(key);
        if let Some(cq_id) = producer {
            Self::release_cq(&mut catalog, cq_id);
            self.engine.metrics().remove(&format!("cq.close_us.{key}"));
        }
        let kind = if producer.is_some() {
            "derived"
        } else {
            "stream"
        };
        self.unpersist_ddl(&mut catalog, kind, key)?;
        Ok(ExecResult::Dropped(name.to_string()))
    }

    fn drop_channel(&self, key: &str, name: &str, if_exists: bool) -> Result<ExecResult> {
        let mut catalog = self.catalog.lock();
        if catalog.channels.remove(key).is_none() {
            return missing("channel", name, if_exists);
        }
        for shard in catalog.shards.iter() {
            for rt in shard.state.lock().streams.values_mut() {
                rt.channels.retain(|c| c.name != key);
            }
        }
        self.unpersist_ddl(&mut catalog, "channel", key)?;
        Ok(ExecResult::Dropped(name.to_string()))
    }

    fn insert(
        &self,
        target: &str,
        columns: Option<&[String]>,
        value_rows: &[Vec<Expr>],
    ) -> Result<ExecResult> {
        // Evaluate constant expressions.
        let analyzer_rows: Vec<Row> = {
            let catalog = self.catalog.lock();
            let provider = self.provider(&catalog);
            let analyzer = Analyzer::new(&provider);
            let mut out = Vec::with_capacity(value_rows.len());
            for exprs in value_rows {
                let mut row = Vec::with_capacity(exprs.len());
                for e in exprs {
                    let bound = analyzer.bind_constant(e)?;
                    row.push(streamrel_exec::eval(
                        &bound,
                        &[],
                        &streamrel_exec::EvalContext::default(),
                    )?);
                }
                out.push(row);
            }
            out
        };
        let key = target.to_ascii_lowercase();
        // Stream ingest path.
        let stream_schema = {
            let catalog = self.catalog.lock();
            catalog.streams.get(&key).map(|s| s.decl.schema.clone())
        };
        if let Some(schema) = stream_schema {
            let rows = reorder_columns(&schema, columns, analyzer_rows)?;
            let n = rows.len() as u64;
            self.ingest_batch(&key, rows)?;
            return Ok(ExecResult::Inserted(n));
        }
        // Table path.
        let schema = self.engine.table_schema(target)?;
        let rows = reorder_columns(&schema, columns, analyzer_rows)?;
        let id = self.engine.table_id(target)?;
        let n = self
            .engine
            .with_txn(|x| self.engine.insert_many(x, id, rows))?;
        Ok(ExecResult::Inserted(n))
    }

    fn delete(&self, table: &str, filter: Option<&Expr>) -> Result<ExecResult> {
        let schema = self.engine.table_schema(table)?;
        let id = self.engine.table_id(table)?;
        let bound = match filter {
            Some(f) => {
                let catalog = self.catalog.lock();
                let provider = self.provider(&catalog);
                Some(Analyzer::new(&provider).bind_over_schema(f, &schema)?)
            }
            None => None,
        };
        let n = self.engine.with_txn(|x| {
            let snap = self.engine.snapshot_for(x);
            let victims = self.engine.scan(id, &snap)?;
            let mut n = 0;
            for (tid, row) in victims {
                let hit = match &bound {
                    Some(p) => streamrel_exec::eval_predicate(
                        p,
                        &row,
                        &streamrel_exec::EvalContext::default(),
                    )?,
                    None => true,
                };
                if hit {
                    self.engine.delete(x, tid)?;
                    n += 1;
                }
            }
            Ok(n)
        })?;
        Ok(ExecResult::Deleted(n))
    }

    fn select(&self, query: &Query, first: First<'_>) -> Result<ExecResult> {
        let catalog = self.catalog.lock();
        let analyzed = {
            let provider = self.provider(&catalog);
            Analyzer::new(&provider).analyze(query)?
        };
        if !analyzed.is_continuous {
            // Snapshot query: fresh snapshot, run to completion (§3.1 SQ).
            // The plan is analysed, so the catalog goes first: ingest looks
            // its shard up there and must not wait behind the scan.
            drop(catalog);
            let source = streamrel_cq::SnapshotSource::pin(self.engine.clone());
            let ctx = ExecContext::snapshot(&source).with_metrics(&self.metrics.exec);
            let rel = execute(&analyzed.plan, &ctx)?;
            return Ok(ExecResult::Rows(rel));
        }
        self.subscribe(catalog, &analyzed, first)
    }

    /// Admit and register a continuous plan in its upstream's shard — the
    /// one path both `CREATE STREAM … AS` and a subscribing `SELECT` take.
    /// Its state share is charged and then, under the shard lock, the CQ
    /// is placed — a time window as a member of one of its stream's slice
    /// stores — and attached, together with the stream it produces, if it
    /// does (so no window can close before its sink exists). Returns the
    /// shard, the CQ id and the upstream's high-water mark.
    fn register_cq(
        &self,
        catalog: &mut Catalog,
        analyzed: &AnalyzedQuery,
        sink: Sink,
    ) -> Result<(Arc<Shard>, u64, Timestamp)> {
        let state_bytes = self.admit_plan(catalog, &analyzed.plan)?;
        let name = match &sink {
            Sink::Derived(stream) => stream.clone(),
            Sink::Client(sub, _) => format!("sub_{}", sub.0),
        };
        let (engine, consistency) = (self.engine.clone(), self.options.consistency);
        let mut cq = ContinuousQuery::new(name, analyzed, engine, consistency)?;
        let unknown = || Error::stream(format!("unknown stream `{}`", cq.stream()));
        let upstream = cq.stream().to_ascii_lowercase();
        let shard = Arc::clone(&catalog.streams.get(&upstream).ok_or_else(unknown)?.shard);
        let mut state = shard.state.lock();
        let rt = state.streams.get_mut(&upstream).ok_or_else(unknown)?;
        cq.place(self.options.sharing, self.options.ivm, &mut rt.stores)?;
        let cq_id = catalog.next_cq;
        catalog.next_cq += 1;
        catalog.admitted_state_bytes += state_bytes;
        catalog.cq_state_bytes.insert(cq_id, state_bytes);
        rt.cq_ids.push(cq_id);
        let joined = rt.high_water;
        if let Sink::Derived(stream) = &sink {
            let decl = StreamDecl {
                schema: analyzed.plan.schema(),
                cqtime: find_cq_close_column(&analyzed.plan),
            };
            let runtime = StreamRuntime::new(decl.clone(), true, None);
            state.streams.insert(stream.clone(), runtime);
            let entry = CatStream {
                decl,
                shard: shard.clone(),
                producer: Some(cq_id),
            };
            catalog.streams.insert(stream.clone(), entry);
        }
        let close_hist = self
            .engine
            .metrics()
            .histogram(&format!("cq.close_us.{}", cq.name()));
        state.cqs.insert(
            cq_id,
            CqEntry {
                cq,
                sink,
                close_hist,
            },
        );
        Ok((shard.clone(), cq_id, joined))
    }

    /// Tear a CQ out of its shard: off its upstream's list and out of its
    /// slice store, which goes with its last member.
    fn detach_cq(&self, state: &mut ShardState, cq_id: u64) {
        let Some(entry) = state.cqs.remove(&cq_id) else {
            return;
        };
        let upstream = entry.cq.stream().to_ascii_lowercase();
        let Some(rt) = state.streams.get_mut(&upstream) else {
            return;
        };
        rt.cq_ids.retain(|&id| id != cq_id);
        if let Some(slot) = entry.cq.slot() {
            let (bytes, keys) = rt.stores.leave(slot);
            self.metrics.ivm.state_bytes.add(bytes);
            self.metrics.ivm.keys.add(keys);
        }
    }

    // ---- internals ------------------------------------------------------------

    fn check_name_free(&self, catalog: &Catalog, key: &str) -> Result<()> {
        check_reserved(key)?;
        if catalog.streams.contains_key(key)
            || catalog.views.contains_key(key)
            || self.engine.has_table(key)
        {
            return Err(Error::catalog(format!("name `{key}` is already in use")));
        }
        Ok(())
    }

    fn provider<'a>(&'a self, catalog: &'a Catalog) -> ProviderView<'a> {
        ProviderView {
            engine: &self.engine,
            catalog,
        }
    }

    /// Pick (and if needed create) the shard for a new base stream.
    fn assign_shard(&self, catalog: &mut Catalog) -> Arc<Shard> {
        let idx = if self.options.shards == 0 {
            catalog.shards.len()
        } else {
            catalog.stream_seq % self.options.shards
        };
        catalog.stream_seq += 1;
        while catalog.shards.len() <= idx {
            // Each shard's durable writes (raw archives, channel writes,
            // watermarks) are pinned to one WAL commit domain so a shard
            // always fsyncs the same log (DESIGN.md §13). In-memory
            // engines report zero domains; clamp so the modulo is defined.
            let domain = catalog.shards.len() % self.engine.wal_shards().max(1);
            catalog.shards.push(Shard::new(domain));
        }
        catalog.shards[idx].clone()
    }

    fn persist_ddl(&self, catalog: &mut Catalog, kind: &str, key: &str, sql: &str) -> Result<()> {
        let seq = catalog.ddl_seq;
        catalog.ddl_seq += 1;
        let ddl_key = format!("ddl.{seq:020}");
        self.engine.catalog_put(&ddl_key, sql)?;
        self.engine
            .catalog_put(&format!("ddlref.{kind}.{key}"), &ddl_key)?;
        Ok(())
    }

    fn unpersist_ddl(&self, _catalog: &mut Catalog, kind: &str, key: &str) -> Result<()> {
        let ref_key = format!("ddlref.{kind}.{key}");
        if let Some(ddl_key) = self.engine.catalog_get(&ref_key) {
            self.engine.catalog_del(&ddl_key)?;
            self.engine.catalog_del(&ref_key)?;
        }
        Ok(())
    }

    fn replay_ddl(&self) -> Result<()> {
        let entries = self.engine.catalog_scan("ddl.");
        let mut max_seq = 0u64;
        for (k, sql) in entries {
            if let Some(seq) = k.strip_prefix("ddl.").and_then(|s| s.parse::<u64>().ok()) {
                max_seq = max_seq.max(seq);
            }
            let stmt = parse_statement(&sql)?;
            self.execute_stmt(stmt, &sql, false)?;
        }
        self.catalog.lock().ddl_seq = max_seq + 1;
        Ok(())
    }
}

/// `DROP` result for an object that was not found.
fn missing(what: &str, name: &str, if_exists: bool) -> Result<ExecResult> {
    if if_exists {
        Ok(ExecResult::Dropped(name.to_string()))
    } else {
        Err(Error::catalog(format!("{what} `{name}` does not exist")))
    }
}

struct ProviderView<'a> {
    engine: &'a Arc<StorageEngine>,
    catalog: &'a Catalog,
}

impl SchemaProvider for ProviderView<'_> {
    fn relation(&self, name: &str) -> Option<(SchemaRef, RelKind)> {
        // Engine-provided virtual relations (`streamrel_metrics`,
        // `streamrel_trace`) resolve as ordinary tables; the scan layer
        // serves them from the metrics registry. The `streamrel_` prefix
        // is reserved, so user objects can never shadow them.
        if let Some(schema) = streamrel_obs::virtual_schema(name) {
            return Some((Arc::new(schema), RelKind::Table));
        }
        let key = name.to_ascii_lowercase();
        if let Some(s) = self.catalog.streams.get(&key) {
            let cqtime = s.decl.cqtime;
            let kind = match s.producer {
                None => RelKind::Stream { cqtime },
                Some(_) => RelKind::DerivedStream { cqtime },
            };
            return Some((s.decl.schema.clone(), kind));
        }
        if let Some(sql) = self.catalog.views.get(&key) {
            let kind = RelKind::View { sql: sql.clone() };
            return Some((Arc::new(Schema::empty()), kind));
        }
        let schema = self.engine.table_schema(name).ok()?;
        Some((schema, RelKind::Table))
    }
}

/// Locate the output column whose projection expression is `cq_close(*)`
/// (gives derived streams their time column for downstream time windows).
fn find_cq_close_column(plan: &LogicalPlan) -> Option<usize> {
    let top_schema = plan.schema();
    let mut found = None;
    plan.visit(&mut |p| {
        if let LogicalPlan::Project { exprs, schema, .. } = p {
            if Arc::ptr_eq(schema, &top_schema) || **schema == *top_schema {
                for (i, e) in exprs.iter().enumerate() {
                    if matches!(e, BoundExpr::CqClose) {
                        found = Some(i);
                    }
                }
            }
        }
    });
    found
}

/// User DDL may not claim the engine's `streamrel_` namespace: the virtual
/// relations (`streamrel_metrics`, `streamrel_trace`) must never be
/// shadowed by a real table or stream.
fn check_reserved(name: &str) -> Result<()> {
    if name
        .to_ascii_lowercase()
        .starts_with(streamrel_obs::RESERVED_PREFIX)
    {
        return Err(Error::catalog(format!(
            "name `{name}` uses the reserved `{}` prefix",
            streamrel_obs::RESERVED_PREFIX
        )));
    }
    Ok(())
}

fn column_defs_to_schema(columns: &[ColumnDef]) -> Result<Schema> {
    Schema::new(
        columns
            .iter()
            .map(|c| Column {
                name: c.name.clone(),
                ty: c.ty,
                nullable: !c.not_null,
            })
            .collect(),
    )
}

/// Rearrange INSERT values into schema order, filling omitted columns with
/// NULL.
fn reorder_columns(
    schema: &Schema,
    columns: Option<&[String]>,
    rows: Vec<Row>,
) -> Result<Vec<Row>> {
    match columns {
        None => Ok(rows),
        Some(cols) => {
            let mut positions = Vec::with_capacity(cols.len());
            for c in cols {
                positions.push(schema.index_of(c)?);
            }
            let mut out = Vec::with_capacity(rows.len());
            for row in rows {
                if row.len() != positions.len() {
                    return Err(Error::analysis(format!(
                        "INSERT has {} values for {} columns",
                        row.len(),
                        positions.len()
                    )));
                }
                let mut full = vec![Value::Null; schema.len()];
                for (v, &p) in row.into_iter().zip(&positions) {
                    full[p] = v;
                }
                out.push(full);
            }
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamrel_types::row;
    use streamrel_types::time::MINUTES;

    fn db() -> Db {
        Db::in_memory(DbOptions::default())
    }

    fn setup_paper_objects(db: &Db) {
        // Paper Example 1.
        db.execute(
            "CREATE STREAM url_stream ( url varchar(1024), \
             atime timestamp CQTIME USER, client_ip varchar(50) )",
        )
        .unwrap();
        // Paper Example 3 (adjusted: cq_close aliased for the archive).
        db.execute(
            "CREATE STREAM urls_now as SELECT url, count(*) as scnt, \
             cq_close(*) as stime FROM url_stream \
             <VISIBLE '5 minutes' ADVANCE '1 minute'> GROUP by url",
        )
        .unwrap();
        // Paper Example 4.
        db.execute(
            "CREATE TABLE urls_archive (url varchar(1024), scnt integer, \
             stime timestamp)",
        )
        .unwrap();
        db.execute("CREATE CHANNEL urls_channel FROM urls_now INTO urls_archive APPEND")
            .unwrap();
    }

    fn click(url: &str, ts: i64) -> Row {
        row![url, Value::Timestamp(ts), "10.0.0.1"]
    }

    #[test]
    fn paper_examples_1_3_4_active_table_fills() {
        let db = db();
        setup_paper_objects(&db);
        for m in 0..3i64 {
            db.ingest("url_stream", click("/home", m * MINUTES + 1))
                .unwrap();
            db.ingest("url_stream", click("/buy", m * MINUTES + 2))
                .unwrap();
            db.ingest("url_stream", click("/home", m * MINUTES + 3))
                .unwrap();
        }
        db.heartbeat("url_stream", 3 * MINUTES).unwrap();
        // 3 windows closed, each emitting 2 groups → 6 archived rows.
        let rel = db
            .execute("SELECT url, scnt, stime FROM urls_archive ORDER BY stime, url")
            .unwrap()
            .rows();
        assert_eq!(rel.len(), 6);
        assert_eq!(rel.rows()[0], row!["/buy", 1i64, Value::Timestamp(MINUTES)]);
        assert_eq!(
            rel.rows()[1],
            row!["/home", 2i64, Value::Timestamp(MINUTES)]
        );
        // Cumulative over the sliding 5-minute window.
        assert_eq!(
            rel.rows()[5],
            row!["/home", 6i64, Value::Timestamp(3 * MINUTES)]
        );
        assert_eq!(db.stats().rows_archived, 6);
        let channels = db.execute("SHOW CHANNELS").unwrap().rows();
        assert_eq!(channels.rows()[0][3], Value::text("6"), "rows_written");
    }

    #[test]
    fn active_table_is_a_regular_table() {
        let db = db();
        setup_paper_objects(&db);
        db.ingest("url_stream", click("/a", 1)).unwrap();
        db.heartbeat("url_stream", MINUTES).unwrap();
        // Index it, aggregate it, join it: it is just SQL (§3.3).
        db.execute("CREATE INDEX arch_by_url ON urls_archive (url)")
            .unwrap();
        let rel = db
            .execute("SELECT count(*) FROM urls_archive WHERE url = '/a'")
            .unwrap()
            .rows();
        assert_eq!(rel.rows()[0], row![1i64]);
    }

    #[test]
    fn subscription_receives_windows() {
        let db = db();
        setup_paper_objects(&db);
        // Paper Example 2 as a client subscription.
        let sub = db
            .execute(
                "SELECT url, count(*) url_count FROM url_stream \
                 <VISIBLE '5 minutes' ADVANCE '1 minute'> \
                 GROUP by url ORDER by url_count desc LIMIT 10",
            )
            .unwrap()
            .subscription();
        db.ingest("url_stream", click("/top", 1)).unwrap();
        db.ingest("url_stream", click("/top", 2)).unwrap();
        db.ingest("url_stream", click("/other", 3)).unwrap();
        db.heartbeat("url_stream", MINUTES).unwrap();
        let outs = db.poll(sub).unwrap();
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].relation.rows()[0], row!["/top", 2i64]);
        assert!(db.poll(sub).unwrap().is_empty(), "drained");
        db.unsubscribe(sub).unwrap();
        assert!(db.poll(sub).is_err());
    }

    #[test]
    fn paper_example_5_historical_comparison() {
        let db = db();
        setup_paper_objects(&db);
        // Subscribe to the stream-table join comparing now vs 1 week ago.
        let sub = db
            .execute(
                "select c.scnt, h.scnt, c.stime from \
                 (select sum(scnt) as scnt, cq_close(*) as stime \
                  from urls_now <slices 1 windows>) c, urls_archive h \
                 where c.stime - '1 week'::interval = h.stime",
            )
            .unwrap()
            .subscription();
        // Seed last week's archive row directly (history).
        let week = streamrel_types::time::WEEKS;
        db.execute(&format!(
            "INSERT INTO urls_archive VALUES ('TOTAL', 42, '{}')",
            streamrel_types::format_timestamp(MINUTES - week)
        ))
        .unwrap();
        // Current traffic: 3 clicks in the first minute.
        for i in 0..3 {
            db.ingest("url_stream", click("/x", i + 1)).unwrap();
        }
        db.heartbeat("url_stream", MINUTES).unwrap();
        let outs = db.poll(sub).unwrap();
        assert_eq!(outs.len(), 1, "one comparison per window");
        let r = &outs[0].relation;
        assert_eq!(r.len(), 1);
        assert_eq!(
            r.rows()[0],
            row![3i64, 42i64, Value::Timestamp(MINUTES)],
            "current=3 vs historical=42"
        );
    }

    #[test]
    fn insert_into_stream_is_ingest() {
        let db = db();
        setup_paper_objects(&db);
        db.execute("INSERT INTO url_stream VALUES ('/sql', '1970-01-01 00:00:05', '1.2.3.4')")
            .unwrap();
        db.heartbeat("url_stream", MINUTES).unwrap();
        let rel = db.execute("SELECT url FROM urls_archive").unwrap().rows();
        assert_eq!(rel.rows()[0], row!["/sql"]);
        assert_eq!(db.stats().tuples_in, 1);
    }

    #[test]
    fn replace_channel_keeps_latest_window_only() {
        let db = db();
        db.execute("CREATE STREAM s (v integer, ts timestamp CQTIME USER)")
            .unwrap();
        db.execute("CREATE TABLE latest (total bigint, w timestamp)")
            .unwrap();
        db.execute(
            "CREATE STREAM agg AS SELECT sum(v) total, cq_close(*) w \
             FROM s <TUMBLING '1 minute'>",
        )
        .unwrap();
        db.execute("CREATE CHANNEL ch FROM agg INTO latest REPLACE")
            .unwrap();
        db.ingest("s", row![5i64, Value::Timestamp(1)]).unwrap();
        db.heartbeat("s", MINUTES).unwrap();
        db.ingest("s", row![7i64, Value::Timestamp(MINUTES + 1)])
            .unwrap();
        db.heartbeat("s", 2 * MINUTES).unwrap();
        let rel = db.execute("SELECT total FROM latest").unwrap().rows();
        assert_eq!(rel.len(), 1, "REPLACE overwrites prior window");
        assert_eq!(rel.rows()[0], row![7i64]);
    }

    #[test]
    fn raw_channel_archives_base_stream() {
        let db = db();
        db.execute("CREATE STREAM s (v integer, ts timestamp CQTIME USER)")
            .unwrap();
        db.execute("CREATE TABLE raw (v integer, ts timestamp)")
            .unwrap();
        db.execute("CREATE CHANNEL raw_ch FROM s INTO raw APPEND")
            .unwrap();
        for i in 0..5i64 {
            db.ingest("s", row![i, Value::Timestamp(i)]).unwrap();
        }
        let rel = db.execute("SELECT count(*) FROM raw").unwrap().rows();
        assert_eq!(rel.rows()[0], row![5i64]);
    }

    #[test]
    fn cascaded_derived_streams() {
        let db = db();
        db.execute("CREATE STREAM s (v integer, ts timestamp CQTIME USER)")
            .unwrap();
        // First level: per-minute sums.
        db.execute(
            "CREATE STREAM minute_sums AS SELECT sum(v) sv, cq_close(*) w \
             FROM s <TUMBLING '1 minute'>",
        )
        .unwrap();
        // Second level: 3-minute rolling sum over the minute sums.
        db.execute(
            "CREATE STREAM rolling AS SELECT sum(sv) total, cq_close(*) w3 \
             FROM minute_sums <VISIBLE '3 minutes' ADVANCE '1 minute'>",
        )
        .unwrap();
        db.execute("CREATE TABLE out3 (total bigint, w3 timestamp)")
            .unwrap();
        db.execute("CREATE CHANNEL c3 FROM rolling INTO out3 APPEND")
            .unwrap();
        for m in 0..4i64 {
            db.ingest("s", row![m + 1, Value::Timestamp(m * MINUTES + 1)])
                .unwrap();
        }
        db.heartbeat("s", 4 * MINUTES).unwrap();
        let rel = db
            .execute("SELECT total, w3 FROM out3 ORDER BY w3")
            .unwrap()
            .rows();
        // minute sums: 1,2,3,4 at closes 1..4 min.
        // rolling(3): close 1min→1? Depends on the derived stream's time
        // window over batches: batch at close 1min has w=1min... rolling
        // windows close at 2,3,4 min with sums 1+2=3? See assertion:
        assert!(!rel.is_empty());
        // The final row must cover minutes 2..4: 2+3+4 = 9.
        let last = rel.rows().last().unwrap();
        assert_eq!(last[0], Value::Int(9));
    }

    #[test]
    fn views_over_streams_instantiate_per_subscription() {
        let db = db();
        db.execute("CREATE STREAM s (v integer, ts timestamp CQTIME USER)")
            .unwrap();
        db.execute("CREATE VIEW busy AS SELECT count(*) c FROM s <TUMBLING '1 minute'>")
            .unwrap();
        let sub = db.execute("SELECT c FROM busy").unwrap().subscription();
        db.ingest("s", row![1i64, Value::Timestamp(5)]).unwrap();
        db.heartbeat("s", MINUTES).unwrap();
        let outs = db.poll(sub).unwrap();
        assert_eq!(outs[0].relation.rows()[0], row![1i64]);
    }

    #[test]
    fn snapshot_queries_still_plain_sql() {
        let db = db();
        db.execute("CREATE TABLE t (a integer, b varchar(10))")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'x')")
            .unwrap();
        let rel = db
            .execute("SELECT b, count(*) c, sum(a) s FROM t GROUP BY b ORDER BY b")
            .unwrap()
            .rows();
        assert_eq!(rel.rows()[0], row!["x", 2i64, 4i64]);
        assert_eq!(rel.rows()[1], row!["y", 1i64, 2i64]);
        let n = db.execute("DELETE FROM t WHERE b = 'x'").unwrap();
        assert!(matches!(n, ExecResult::Deleted(2)));
        let rel = db.execute("SELECT count(*) FROM t").unwrap().rows();
        assert_eq!(rel.rows()[0], row![1i64]);
    }

    #[test]
    fn insert_with_column_list_and_defaults() {
        let db = db();
        db.execute("CREATE TABLE t (a integer, b varchar(10), c float)")
            .unwrap();
        db.execute("INSERT INTO t (b, a) VALUES ('z', 9)").unwrap();
        let rel = db.execute("SELECT a, b, c FROM t").unwrap().rows();
        assert_eq!(
            rel.rows()[0],
            vec![Value::Int(9), Value::text("z"), Value::Null]
        );
    }

    #[test]
    fn name_collisions_rejected() {
        let db = db();
        db.execute("CREATE TABLE x (a integer)").unwrap();
        assert!(db
            .execute("CREATE STREAM x (v integer, ts timestamp CQTIME USER)")
            .is_err());
        db.execute("CREATE STREAM s (v integer, ts timestamp CQTIME USER)")
            .unwrap();
        assert!(db.execute("CREATE VIEW s AS SELECT 1").is_err());
    }

    #[test]
    fn drop_order_enforced() {
        let db = db();
        setup_paper_objects(&db);
        assert!(
            db.execute("DROP STREAM urls_now").is_err(),
            "channel depends on it"
        );
        db.execute("DROP CHANNEL urls_channel").unwrap();
        db.execute("DROP STREAM urls_now").unwrap();
        db.execute("DROP STREAM url_stream").unwrap();
        assert!(db.execute("DROP STREAM url_stream").is_err());
        db.execute("DROP STREAM IF EXISTS url_stream").unwrap();
    }

    #[test]
    fn durable_recovery_resumes_cq_from_active_table() {
        let dir =
            std::env::temp_dir().join(format!("streamrel-db-recovery-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let db = Db::open(&dir, DbOptions::default()).unwrap();
            setup_paper_objects(&db);
            for m in 0..2i64 {
                db.ingest("url_stream", click("/a", m * MINUTES + 1))
                    .unwrap();
            }
            db.heartbeat("url_stream", 2 * MINUTES).unwrap();
            let rel = db
                .execute("SELECT count(*) FROM urls_archive")
                .unwrap()
                .rows();
            assert_eq!(rel.rows()[0], row![2i64]);
            // Crash (drop without clean shutdown).
        }
        {
            let db = Db::open(&dir, DbOptions::default()).unwrap();
            // Archive survived; DDL was replayed; CQ resumed past window 2.
            let rel = db
                .execute("SELECT count(*) FROM urls_archive")
                .unwrap()
                .rows();
            assert_eq!(rel.rows()[0], row![2i64]);
            // New traffic continues where we left off — no duplicate
            // windows for minutes 1-2.
            db.ingest("url_stream", click("/a", 2 * MINUTES + 1))
                .unwrap();
            db.heartbeat("url_stream", 3 * MINUTES).unwrap();
            let rel = db
                .execute("SELECT count(*) FROM urls_archive")
                .unwrap()
                .rows();
            assert_eq!(rel.rows()[0], row![3i64], "exactly one new window row");
            let rel = db
                .execute("SELECT max(stime) FROM urls_archive")
                .unwrap()
                .rows();
            assert_eq!(rel.rows()[0], row![Value::Timestamp(3 * MINUTES)]);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharing_enabled_by_default_for_aggregate_cqs() {
        let db = db();
        db.execute("CREATE STREAM s (k varchar(10), ts timestamp CQTIME USER)")
            .unwrap();
        let subs: Vec<SubscriptionId> = (0..4)
            .map(|_| {
                db.execute(
                    "SELECT k, count(*) c FROM s \
                     <VISIBLE '2 minutes' ADVANCE '1 minute'> GROUP BY k",
                )
                .unwrap()
                .subscription()
            })
            .collect();
        for i in 0..120i64 {
            db.ingest("s", row!["a", Value::Timestamp(i * 1_000_000)])
                .unwrap();
        }
        db.heartbeat("s", 2 * MINUTES).unwrap();
        for sub in subs {
            let outs = db.poll(sub).unwrap();
            assert_eq!(outs.len(), 2, "two windows closed");
            assert_eq!(outs[1].relation.rows()[0], row!["a", 120i64]);
        }
        // Sharing pooled all four CQs into one store, owned by the stream.
        let catalog = db.catalog.lock();
        let state = catalog.streams["s"].shard.state.lock();
        assert_eq!(state.streams["s"].stores.len(), 1);
    }

    #[test]
    fn slack_reorders_and_drops_late() {
        let db = Db::in_memory(DbOptions::default().with_slack(10 * 1_000_000));
        db.execute("CREATE STREAM s (v integer, ts timestamp CQTIME USER)")
            .unwrap();
        let sub = db
            .execute("SELECT count(*) c FROM s <TUMBLING '1 minute'>")
            .unwrap()
            .subscription();
        // Slightly out of order, within 10s slack.
        for ts in [5_000_000i64, 15_000_000, 12_000_000, 30_000_000, 25_000_000] {
            db.ingest("s", row![1i64, Value::Timestamp(ts)]).unwrap();
        }
        // Very late tuple: dropped.
        db.ingest("s", row![1i64, Value::Timestamp(1_000_000)])
            .unwrap();
        db.ingest("s", row![1i64, Value::Timestamp(80_000_000)])
            .unwrap();
        db.heartbeat("s", 2 * MINUTES).unwrap();
        assert_eq!(db.stats().late_drops, 1);
        // The heartbeat releases the 80 s tuple the slack still held
        // before it closes the second window.
        let outs = db.poll(sub).unwrap();
        let counts: Vec<_> = outs.iter().map(|o| o.relation.rows()[0].clone()).collect();
        assert_eq!(counts, vec![row![5i64], row![1i64]]);
    }

    #[test]
    fn execute_script_runs_statements_in_order() {
        let db = db();
        let results = db
            .execute_script(
                "create table t (a integer); \
                 insert into t values (1), (2); \
                 select sum(a) from t;",
            )
            .unwrap();
        assert_eq!(results.len(), 3);
        match &results[2] {
            ExecResult::Rows(r) => assert_eq!(r.rows()[0], row![3i64]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn metrics_relation_is_selectable_and_live() {
        let db = db();
        setup_paper_objects(&db);
        db.ingest("url_stream", click("/a", 1)).unwrap();
        db.ingest("url_stream", click("/b", 2)).unwrap();
        db.heartbeat("url_stream", MINUTES).unwrap();
        // Ordinary SELECT over the virtual relation.
        let rel = db
            .execute("SELECT value FROM streamrel_metrics WHERE name = 'db.tuples_in'")
            .unwrap()
            .rows();
        assert_eq!(rel.rows()[0], row![2i64]);
        // Aggregation works too — it is just a relation.
        let rel = db
            .execute("SELECT count(*) FROM streamrel_metrics")
            .unwrap()
            .rows();
        let n = rel.rows()[0][0].as_int().unwrap();
        assert!(n > 5, "expected several registered instruments, got {n}");
        // It is live: more traffic moves the counter.
        db.ingest("url_stream", click("/c", MINUTES + 1)).unwrap();
        let rel = db
            .execute("SELECT value FROM streamrel_metrics WHERE name = 'db.tuples_in'")
            .unwrap()
            .rows();
        assert_eq!(rel.rows()[0], row![3i64]);
        // SHOW METRICS serves the identical relation (same schema + path).
        let shown = db.execute("SHOW METRICS").unwrap().rows();
        assert_eq!(**shown.schema(), streamrel_obs::metrics::metrics_schema());
        assert_eq!(shown.len(), db.metrics_relation().len());
    }

    #[test]
    fn per_cq_close_latency_histogram_populates() {
        let db = db();
        setup_paper_objects(&db);
        let sub = db
            .execute("SELECT count(*) c FROM url_stream <TUMBLING '1 minute'>")
            .unwrap()
            .subscription();
        db.ingest("url_stream", click("/a", 1)).unwrap();
        db.heartbeat("url_stream", 2 * MINUTES).unwrap();
        // Both the derived-stream CQ and the subscription CQ closed
        // windows; each must have a populated latency histogram.
        let rel = db
            .execute(
                "SELECT name, value FROM streamrel_metrics \
                 WHERE kind = 'histogram' ORDER BY name",
            )
            .unwrap()
            .rows();
        let find = |n: &str| {
            rel.rows()
                .iter()
                .find(|r| r[0] == Value::text(n))
                .unwrap_or_else(|| panic!("missing histogram `{n}`"))[1]
                .as_int()
                .unwrap()
        };
        assert_eq!(find("cq.close_us.urls_now"), 2, "two windows closed");
        assert_eq!(find(&format!("cq.close_us.sub_{}", sub.0)), 2);
        // Both phases are timed once per batch through a stream: the
        // tuple, the heartbeat and `urls_now`'s two windows.
        assert_eq!(find("db.store_phase_us"), 4);
        assert_eq!(find("db.post_plan_us"), 4);
        // The archive is timed per archiving batch: `urls_now`'s windows.
        assert_eq!(find("db.archive_us"), 2);
        db.unsubscribe(sub).unwrap();
        let rel = db
            .execute(&format!(
                "SELECT count(*) FROM streamrel_metrics \
                 WHERE name = 'cq.close_us.sub_{}'",
                sub.0
            ))
            .unwrap()
            .rows();
        assert_eq!(rel.rows()[0], row![0i64], "instrument removed with sub");
    }

    #[test]
    fn trace_relation_records_runtime_decisions() {
        let db = db();
        setup_paper_objects(&db);
        db.ingest("url_stream", click("/a", 1)).unwrap();
        db.heartbeat("url_stream", MINUTES).unwrap();
        let rel = db
            .execute("SELECT kind, scope FROM streamrel_trace WHERE kind = 'cq.close'")
            .unwrap()
            .rows();
        assert!(!rel.is_empty(), "window close must be traced");
        assert_eq!(rel.rows()[0][1], Value::text("urls_now"));
    }

    #[test]
    fn reserved_prefix_rejected_for_user_objects() {
        let db = db();
        assert!(db
            .execute("CREATE TABLE streamrel_metrics (a integer)")
            .is_err());
        assert!(db
            .execute("CREATE STREAM streamrel_s (v integer, ts timestamp CQTIME USER)")
            .is_err());
        assert!(db.execute("CREATE VIEW streamrel_v AS SELECT 1").is_err());
        assert!(db
            .execute("CREATE TABLE streamrel_anything AS SELECT 1 a")
            .is_err());
    }

    #[test]
    fn queue_depth_gauge_agrees_with_db_stats() {
        let db = db();
        db.execute("CREATE STREAM s (v integer, ts timestamp CQTIME USER)")
            .unwrap();
        let sub = db
            .execute("SELECT count(*) c FROM s <TUMBLING '1 minute'>")
            .unwrap()
            .subscription();
        let gauge = db.engine().metrics().gauge("db.sub_queue_depth");
        db.ingest("s", row![1i64, Value::Timestamp(1)]).unwrap();
        db.heartbeat("s", 3 * MINUTES).unwrap();
        assert_eq!(db.stats().sub_queued, 3);
        assert_eq!(gauge.get(), 3);
        db.poll(sub).unwrap();
        assert_eq!(db.stats().sub_queued, 0);
        assert_eq!(gauge.get(), 0);
        db.heartbeat("s", 4 * MINUTES).unwrap();
        db.unsubscribe(sub).unwrap();
        assert_eq!(gauge.get(), 0, "pending results leave with the sub");
    }

    #[test]
    fn derived_stream_requires_continuous_query() {
        let db = db();
        db.execute("CREATE TABLE t (a integer)").unwrap();
        let e = db
            .execute("CREATE STREAM d AS SELECT a FROM t")
            .unwrap_err();
        assert!(e.to_string().contains("continuous"), "{e}");
    }

    /// Regression: when one CQ's window evaluation fails, windows already
    /// produced by *other* CQs on the same stream used to be silently
    /// dropped (the pump never ran). Partial outputs must be delivered,
    /// then the error returned.
    #[test]
    fn heartbeat_delivers_partial_outputs_before_erroring() {
        let db = db();
        db.execute("CREATE STREAM s (v integer, ts timestamp CQTIME USER)")
            .unwrap();
        // CQ 1: healthy.
        let healthy = db
            .execute("SELECT count(*) c, cq_close(*) w FROM s <TUMBLING '1 minute'>")
            .unwrap()
            .subscription();
        // CQ 2: admits statically, but divides by min(v)=0 at runtime.
        let doomed = db
            .execute("SELECT 1 / min(v) r, cq_close(*) w FROM s <TUMBLING '1 minute'>")
            .unwrap()
            .subscription();
        db.ingest("s", row![0i64, Value::Timestamp(10_000_000)])
            .unwrap();
        let err = db.heartbeat("s", MINUTES).unwrap_err();
        assert!(err.to_string().contains("division by zero"), "{err}");
        // The healthy CQ's window survived the neighbour's failure.
        let outs = db.poll(healthy).unwrap();
        assert_eq!(outs.len(), 1, "healthy CQ output was dropped");
        assert_eq!(outs[0].relation.rows()[0][0], Value::Int(1));
        assert!(db.poll(doomed).unwrap().is_empty());
        // Same contract on the ingest path: a zero lands in the next
        // window, and the tuple that closes it still delivers the
        // healthy CQ's output before the doomed CQ's error surfaces.
        db.ingest("s", row![0i64, Value::Timestamp(70_000_000)])
            .unwrap();
        db.ingest("s", row![5i64, Value::Timestamp(130_000_000)])
            .unwrap_err();
        assert_eq!(db.poll(healthy).unwrap().len(), 1);
    }

    /// What a one-second count delivers over `batches` and a closing
    /// heartbeat at `until` — `(close, count)` per window — with `faulty`
    /// registered before it (`Some((sql, true))`), after it, or not at all;
    /// and the errors the calls returned.
    fn healthy_beside(
        faulty: Option<(&str, bool)>,
        batches: &[Vec<Row>],
        until: Timestamp,
    ) -> (Vec<(Timestamp, Value)>, Vec<String>) {
        let db = db();
        db.execute("CREATE STREAM s (v integer, ts timestamp CQTIME USER)")
            .unwrap();
        let register = |sql: &str| db.execute(sql).unwrap().subscription();
        if let Some((sql, true)) = faulty {
            register(sql);
        }
        let healthy = register("SELECT count(*) c FROM s <TUMBLING '1 second'>");
        if let Some((sql, false)) = faulty {
            register(sql);
        }
        let mut calls: Vec<_> = batches
            .iter()
            .map(|b| db.ingest_batch("s", b.clone()))
            .collect();
        calls.push(db.heartbeat("s", until));
        let errors = calls
            .into_iter()
            .filter_map(|r| r.err().map(|e| e.to_string()))
            .collect();
        let windows = db.poll(healthy).unwrap().into_iter();
        let windows = windows.map(|o| (o.close, o.relation.rows()[0][0].clone()));
        (windows.collect(), errors)
    }

    const SEC: Timestamp = 1_000_000;

    /// Regression: a store whose fold failed made every store after it
    /// skip the rest of the batch, and no CQ on the stream staged a window
    /// from it. An error belongs to the CQ that raised it: a neighbour's
    /// windows are what they are when it runs alone, in either
    /// registration order, and the call still returns the error.
    #[test]
    fn a_failing_store_fold_costs_no_other_cq_a_window() {
        let batches = [
            vec![row![i64::MAX, Value::Timestamp(SEC / 10)]],
            // `1` overflows the sum's first slice; the rest is the next
            // window's.
            vec![
                row![1i64, Value::Timestamp(SEC / 5)],
                row![7i64, Value::Timestamp(SEC + 1)],
                row![8i64, Value::Timestamp(SEC + 2)],
            ],
        ];
        let (alone, errors) = healthy_beside(None, &batches, 2 * SEC);
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(alone, [(SEC, Value::Int(2)), (2 * SEC, Value::Int(2))]);
        for first in [true, false] {
            let faulty = ("SELECT sum(v) t FROM s <TUMBLING '1 second'>", first);
            let (got, errors) = healthy_beside(Some(faulty), &batches, 2 * SEC);
            assert_eq!(got, alone, "sum registered first: {first}");
            assert_eq!(errors.len(), 1, "{errors:?}");
            assert!(errors[0].contains("overflow"), "{errors:?}");
        }
    }

    /// Regression: a CQ registered after one whose plan fails at every
    /// close lost every window for good. Either order, the healthy CQ's
    /// windows are those it delivers alone.
    #[test]
    fn a_failing_post_plan_costs_no_other_cq_a_window() {
        let batches = [
            vec![row![1i64, Value::Timestamp(SEC / 10)]],
            vec![row![2i64, Value::Timestamp(SEC + 1)]],
        ];
        let (alone, errors) = healthy_beside(None, &batches, 3 * SEC);
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(alone.len(), 3);
        for first in [true, false] {
            let faulty = (
                "SELECT 1 / (count(*) - count(*)) r FROM s <TUMBLING '1 second'>",
                first,
            );
            let (got, errors) = healthy_beside(Some(faulty), &batches, 3 * SEC);
            assert_eq!(got, alone, "failing CQ registered first: {first}");
            assert_eq!(errors.len(), 2, "{errors:?}");
            assert!(errors.iter().all(|e| e.contains("division by zero")));
        }
    }

    /// Regression: a failing CQ over a *derived* stream used to drop its
    /// neighbours' finished windows — `pump` returned on the cascade's
    /// error with the queue still holding them — for this and every later
    /// window, while `windows_out` counted them. Same contract as for
    /// siblings on a base stream: everything evaluated before the first
    /// error is delivered, then the error surfaces.
    #[test]
    fn failing_cascade_delivers_its_neighbours_windows_before_erroring() {
        let db = db();
        db.execute("CREATE STREAM s (v integer, ts timestamp CQTIME USER)")
            .unwrap();
        db.execute(
            "CREATE STREAM d1 AS SELECT count(*) c, cq_close(*) w \
             FROM s <TUMBLING '1 minute'>",
        )
        .unwrap();
        let doomed = db
            .execute("SELECT 1 / (c - c) r FROM d1 <SLICES 1 WINDOWS>")
            .unwrap()
            .subscription();
        // Healthy, and registered last: its window is evaluated with
        // `d1`'s and still queued when `d1`'s cascade fails.
        let healthy = db
            .execute("SELECT count(*) c FROM s <TUMBLING '1 minute'>")
            .unwrap()
            .subscription();
        db.ingest("s", row![1i64, Value::Timestamp(1)]).unwrap();
        for m in 1..=3i64 {
            let err = db.heartbeat("s", m * MINUTES).unwrap_err();
            assert!(err.to_string().contains("division by zero"), "{err}");
            let outs = db.poll(healthy).unwrap();
            assert_eq!(outs.len(), 1, "healthy CQ's window {m} was dropped");
            assert_eq!(outs[0].close, m * MINUTES);
            assert!(db.poll(doomed).unwrap().is_empty());
        }
        // d1 and healthy closed three windows each; none went missing
        // between the counter and a queue.
        assert_eq!(db.stats().windows_out, 6);
        assert_eq!(db.stats().sub_drops, 0);
    }

    /// The `db.sub_queue_depth` gauge must equal the sum of pending
    /// results across live subscriptions at all times — including after
    /// forced overflow drops.
    #[test]
    fn queue_depth_gauge_is_conserved_under_overflow() {
        let db = Db::in_memory(DbOptions::default().with_sub_queue(2));
        db.execute("CREATE STREAM s (v integer, ts timestamp CQTIME USER)")
            .unwrap();
        let a = db
            .execute("SELECT count(*) c FROM s <TUMBLING '1 minute'>")
            .unwrap()
            .subscription();
        let b = db
            .execute("SELECT sum(v) t FROM s <TUMBLING '1 minute'>")
            .unwrap()
            .subscription();
        let gauge = db.engine().metrics().gauge("db.sub_queue_depth");
        let pending_sum = |db: &Db| db.stats().sub_queued as i64;
        db.ingest("s", row![1i64, Value::Timestamp(1)]).unwrap();
        // Close 5 windows against capacity-2 queues: 3 forced drops
        // per subscription.
        db.heartbeat("s", 5 * MINUTES).unwrap();
        assert_eq!(db.stats().sub_drops, 6);
        assert_eq!(gauge.get(), 4, "2 queues × capacity 2");
        assert_eq!(gauge.get(), pending_sum(&db));
        // Drain one sub: gauge follows.
        assert_eq!(db.poll(a).unwrap().len(), 2);
        assert_eq!(gauge.get(), pending_sum(&db));
        assert_eq!(gauge.get(), 2);
        // Overflow again on the other sub.
        db.heartbeat("s", 8 * MINUTES).unwrap();
        assert_eq!(gauge.get(), pending_sum(&db));
        // Unsubscribing with results still queued settles the gauge.
        db.unsubscribe(b).unwrap();
        assert_eq!(gauge.get(), pending_sum(&db));
        db.unsubscribe(a).unwrap();
        assert_eq!(gauge.get(), 0, "all depth released");
    }

    /// A subscription a server registers is its from the first member:
    /// each window is queued as one body slot and handed to the server,
    /// each member sheds on its own, and a key is seated once.
    #[test]
    fn a_served_subscription_queues_slots_its_members_shed_alone() {
        use crate::{MemberAccount, Offered, Queued};
        use std::sync::Mutex as StdMutex;
        let db = Db::in_memory(DbOptions::default().with_sub_queue(2));
        db.execute("CREATE STREAM s (v integer, ts timestamp CQTIME USER)")
            .unwrap();
        let metrics = streamrel_obs::Registry::new(0);
        let offered = Arc::new(StdMutex::new(Vec::new()));
        let outlet = Outlet {
            depth: metrics.gauge("depth"),
            drops: metrics.counter("drops"),
            serve: Some({
                let offered = offered.clone();
                Arc::new(move |o: Offered| offered.lock().unwrap().push(o))
            }),
        };
        let sql = "SELECT count(*) c FROM s <TUMBLING '1 minute'>";
        let sub = db.serve(sql, 7, &outlet).unwrap().subscription();
        let (first, second) = (db.member(sub, 7).unwrap(), db.join(sub, 8).unwrap());
        assert!(db.join(sub, 8).is_err(), "one seat per key");

        // Three windows: each member sheds one.
        db.ingest("s", row![1i64, Value::Timestamp(1)]).unwrap();
        db.heartbeat("s", 3 * MINUTES).unwrap();
        let offered = std::mem::take(&mut *offered.lock().unwrap());
        assert_eq!(offered.len(), 3, "each window handed over once");
        assert_eq!(offered[0].2, [7, 8]);
        assert!(offered[1].2.is_empty());
        assert_eq!(metrics.counter("drops").get(), 2);
        assert_eq!(metrics.gauge("depth").get(), 4);
        assert_eq!(db.stats().sub_queued, 0, "no member is embedded");
        assert!(db.poll(sub).unwrap().is_empty(), "no member 0 to poll");
        let Some((Queued::Body(slot), true)) = first.pop() else {
            panic!("a served window is queued as its body slot");
        };
        assert!(Arc::ptr_eq(&slot, &offered[1].1), "the oldest was shed");
        let (delivered, shed, queued) = (1, 1, 1);
        let closed = 3;
        let account = MemberAccount {
            closed,
            delivered,
            shed,
            queued,
        };
        assert_eq!(db.leave(sub, 7).unwrap(), account);
        let account = db.leave(sub, 8).unwrap();
        assert_eq!((account.closed, account.shed, account.queued), (3, 1, 2));
        assert!(second.pop().is_none(), "a member that left pops nothing");
        assert_eq!(db.stats().live_subs, 0, "the last member ended it");
        assert_eq!(metrics.gauge("depth").get(), 0);
        assert_eq!(db.stats().sub_drops, 0);
    }
}
