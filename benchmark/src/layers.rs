//! Per-layer unit costs: the first 50 000 tuples of a run's own input
//! replayed through each crate's public functions, standalone and
//! single-threaded.
//!
//! Nothing here touches the deployment: a layer's number is what its
//! primitive costs on this input, on this host, in this run, so that a
//! change to one layer moves one line. Functions called per tuple are
//! timed — and recorded as spans — per 250-tuple batch (a span per tuple
//! would cost more than the call it times).

use std::collections::HashMap;
use std::time::Instant;

use streamrel_check::{check_plan, CheckContext};
use streamrel_core::{Db, DbOptions};
use streamrel_cq::shared::extract_shape;
use streamrel_cq::{
    ConsistencyMode, ContinuousQuery, CqOutput, ReorderBuffer, SharedGroup, SnapshotSource,
    WorkerPool,
};
use streamrel_exec::{execute, ExecContext, RelationSource};
use streamrel_ivm::{lower, IvmState, Lowering, WindowOutput};
use streamrel_net::frame::{Frame, FrameDecoder, FrameType};
use streamrel_net::wire;
use streamrel_obs::Registry;
use streamrel_sql::plan::SchemaRef;
use streamrel_sql::{
    optimizer::optimize, parse_statement, AnalyzedQuery, Analyzer, RelKind, SchemaProvider,
    Statement,
};
use streamrel_storage::index::IndexKey;
use streamrel_storage::wal::{Wal, WalRecord};
use streamrel_storage::{StorageEngine, SyncMode};
use streamrel_types::{Relation, Row, Value};

use crate::catalogue;
use crate::gen::{Gen, BATCH, SEC, SLACK, T0};
use crate::procs::Env;
use crate::stats::median;
use crate::trace::{now_ns, Tracer};

/// Batches replayed: 200 × 250 = 50 000 tuples.
const REPLAY_BATCHES: u64 = 200;

type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

pub const COMPOSE_NS_PER_ROW_SLICE: &str = "compose_ns_per_row_slice";

/// Name → unit cost, in the unit the metric's name ends with.
pub type Costs = HashMap<&'static str, f64>;

struct Provider(HashMap<String, (SchemaRef, RelKind)>);

impl SchemaProvider for Provider {
    fn relation(&self, name: &str) -> Option<(SchemaRef, RelKind)> {
        self.0.get(&name.to_ascii_lowercase()).cloned()
    }
}

/// Times `f` once per batch; returns total nanoseconds.
fn per_batch(
    tr: &mut Tracer,
    name: &'static str,
    batches: &[Vec<Row>],
    mut f: impl FnMut(&[Row]) -> Res<()>,
) -> Res<f64> {
    let mut total = 0u64;
    for (b, rows) in batches.iter().enumerate() {
        let start = now_ns();
        f(rows)?;
        let end = now_ns();
        tr.record(name, b as u64, start, end);
        total += end - start;
    }
    Ok(total as f64)
}

fn select_of(sql: &str) -> Res<streamrel_sql::ast::Query> {
    match parse_statement(sql).map_err(err("parse"))? {
        Statement::Select(q) => Ok(q),
        _ => Err(format!("not a SELECT: {sql}")),
    }
}

fn analyze(provider: &Provider, sql: &str) -> Res<AnalyzedQuery> {
    let mut a = Analyzer::new(provider)
        .analyze(&select_of(sql)?)
        .map_err(err("analyze"))?;
    a.plan = optimize(a.plan);
    Ok(a)
}

/// An in-memory engine carrying `durable_active`'s tables, filled by the
/// replayed tuples: the catalogue for `sql`/`check`, the grown tables for
/// `exec` and `storage` reads.
struct Fixture {
    db: Db,
    provider: Provider,
}

impl Fixture {
    fn build(batches: &[Vec<Row>]) -> Res<Fixture> {
        let db = Db::in_memory(DbOptions::default());
        let mut ddl = catalogue::durable_ddl();
        ddl.extend(catalogue::url_dim_ddl());
        for stmt in &ddl {
            db.execute(stmt).map_err(|e| format!("{stmt}: {e}"))?;
        }
        for rows in batches {
            db.ingest_batch("clicks", rows.clone())
                .map_err(err("fixture ingest"))?;
        }
        let mut rels = HashMap::new();
        let clicks = db
            .stream_schema("clicks")
            .ok_or("fixture lost its stream")?;
        rels.insert(
            "clicks".to_string(),
            (clicks, RelKind::Stream { cqtime: Some(5) }),
        );
        for t in ["url_dim", "urls_archive", "urls_current", "tick_current"] {
            let schema = db.engine().table_schema(t).map_err(err("table schema"))?;
            rels.insert(t.to_string(), (schema, RelKind::Table));
        }
        Ok(Fixture {
            db,
            provider: Provider(rels),
        })
    }
}

/// One wide window (per-URL counts of one second), as the engine emits it.
fn wide_window(batches: &[Vec<Row>]) -> Res<CqOutput> {
    let db = Db::in_memory(DbOptions::default());
    db.execute(&catalogue::clicks_ddl()).map_err(err("ddl"))?;
    let sub = db
        .execute(&catalogue::per_url_second("wide", false).sql)
        .map_err(err("subscribe"))?
        .subscription();
    for rows in batches.iter().take(2) {
        db.ingest_batch("clicks", rows.clone())
            .map_err(err("ingest"))?;
    }
    db.poll(sub)
        .map_err(err("poll"))?
        .into_iter()
        .next()
        .ok_or_else(|| "no wide window closed".to_string())
}

fn net_costs(tr: &mut Tracer, batches: &[Vec<Row>], costs: &mut Costs) -> Res<()> {
    let tuples = (batches.len() as u64 * BATCH) as f64;
    let mut payloads = Vec::with_capacity(batches.len());
    let ns = per_batch(tr, "net.encode_ingest", batches, |rows| {
        payloads.push(wire::encode_ingest("clicks", rows));
        Ok(())
    })?;
    costs.insert("net.ingest_encode_ns_per_tuple", ns / tuples);

    let framed: Vec<Vec<u8>> = payloads
        .into_iter()
        .map(|p| {
            let mut bytes = Vec::new();
            Frame::new(FrameType::Ingest, p)
                .write_to(&mut bytes)
                .map(|()| bytes)
        })
        .collect::<Result<_, _>>()
        .map_err(err("frame"))?;
    let mut decoder = FrameDecoder::new();
    let mut total = 0u64;
    for (b, bytes) in framed.iter().enumerate() {
        let start = now_ns();
        decoder.extend(bytes);
        let frame = decoder
            .next_frame()
            .map_err(err("next_frame"))?
            .ok_or("incomplete frame")?;
        let (_, rows) = wire::decode_ingest(&frame.payload).map_err(err("decode_ingest"))?;
        let end = now_ns();
        std::hint::black_box(rows);
        tr.record("net.decode_ingest", b as u64, start, end);
        total += end - start;
    }
    costs.insert("net.ingest_decode_ns_per_tuple", total as f64 / tuples);

    let window = wide_window(batches)?;
    const REPS: usize = 500;
    let t = Instant::now();
    for _ in 0..REPS {
        std::hint::black_box(wire::encode_window_body(std::hint::black_box(&window)));
    }
    costs.insert(
        "net.window_encode_us",
        t.elapsed().as_secs_f64() * 1e6 / REPS as f64,
    );
    let payload = wire::encode_window_result(7, &window);
    let t = Instant::now();
    for _ in 0..REPS {
        std::hint::black_box(
            wire::decode_window_result(std::hint::black_box(&payload)).map_err(err("decode"))?,
        );
    }
    costs.insert(
        "net.window_decode_us",
        t.elapsed().as_secs_f64() * 1e6 / REPS as f64,
    );
    Ok(())
}

fn sql_costs(fx: &Fixture, costs: &mut Costs) -> Res<()> {
    let mut texts: Vec<String> = catalogue::embedded_cqs()
        .into_iter()
        .map(|c| c.sql)
        .collect();
    texts.push(catalogue::narrow_cq().sql);
    texts.push(catalogue::URL_DIM_QUERY.to_string());
    texts.extend(snapshot_queries());
    const REPS: usize = 20;
    let t = Instant::now();
    for _ in 0..REPS {
        for sql in &texts {
            std::hint::black_box(parse_statement(sql).map_err(err("parse"))?);
        }
    }
    let n = (REPS * texts.len()) as f64;
    costs.insert("sql.parse_us_per_stmt", t.elapsed().as_secs_f64() * 1e6 / n);
    let queries: Vec<_> = texts.iter().map(|s| select_of(s)).collect::<Res<_>>()?;
    let t = Instant::now();
    for _ in 0..REPS {
        for q in &queries {
            let a = Analyzer::new(&fx.provider)
                .analyze(q)
                .map_err(err("analyze"))?;
            std::hint::black_box(optimize(a.plan));
        }
    }
    costs.insert(
        "sql.analyze_us_per_stmt",
        t.elapsed().as_secs_f64() * 1e6 / n,
    );

    let plans: Vec<_> = catalogue::embedded_cqs()
        .iter()
        .map(|c| analyze(&fx.provider, &c.sql).map(|a| a.plan))
        .collect::<Res<_>>()?;
    let ctx = CheckContext {
        sharing: true,
        ivm: true,
        registry: None,
        budget: None,
    };
    let t = Instant::now();
    for _ in 0..REPS {
        for p in &plans {
            std::hint::black_box(check_plan(p, &ctx));
        }
    }
    costs.insert(
        "check.plan_us_per_cq",
        t.elapsed().as_secs_f64() * 1e6 / (REPS * plans.len()) as f64,
    );
    Ok(())
}

/// `durable_active`'s three snapshot queries, ranging over the fixture's
/// last minute.
fn snapshot_queries() -> Vec<String> {
    let newest = T0 + (REPLAY_BATCHES as i64 - 1) * SEC;
    (0..catalogue::DURABLE_QUERY_KINDS)
        .map(|n| catalogue::durable_query(n, newest))
        .collect()
}

fn cq_ivm_exec_costs(
    tr: &mut Tracer,
    fx: &Fixture,
    batches: &[Vec<Row>],
    disordered: &[Vec<Row>],
    costs: &mut Costs,
) -> Res<()> {
    let tuples = (batches.len() as u64 * BATCH) as f64;
    let engine = fx.db.engine().clone();
    let cqs = catalogue::embedded_cqs();
    let sql_of = |name: &str| -> Res<&str> {
        cqs.iter()
            .find(|c| c.name == name)
            .map(|c| c.sql.as_str())
            .ok_or_else(|| format!("no catalogued CQ {name}"))
    };

    // Reorder stage, on the input that actually arrives out of order.
    let mut reorder = ReorderBuffer::new(5, SLACK);
    let ns = per_batch(tr, "cq.reorder_push", disordered, |rows| {
        for r in rows {
            std::hint::black_box(reorder.push(r.clone()).map_err(err("reorder"))?);
        }
        Ok(())
    })?;
    costs.insert("cq.reorder_ns_per_tuple", ns / tuples);

    // Unshared path: buffer per tuple, re-evaluate per close.
    let reeval = analyze(&fx.provider, sql_of("mean_latency")?)?;
    let mut cq = ContinuousQuery::new(
        "mean_latency",
        &reeval,
        engine.clone(),
        ConsistencyMode::WindowBoundary,
    )
    .map_err(err("cq"))?;
    let mut tasks = Vec::new();
    let ns = per_batch(tr, "cq.stage_tuple", batches, |rows| {
        for r in rows {
            tasks.extend(cq.stage_tuple(r.clone()).map_err(err("stage"))?);
        }
        Ok(())
    })?;
    costs.insert("cq.stage_ns_per_tuple", ns / tuples);
    let mut run_ns = 0u64;
    for task in &tasks {
        let start = now_ns();
        std::hint::black_box(task.run().map_err(err("task"))?);
        let end = now_ns();
        tr.record("cq.task_run", task.close() as u64, start, end);
        run_ns += end - start;
    }
    costs.insert(
        "cq.task_run_us_per_window",
        run_ns as f64 / 1e3 / tasks.len().max(1) as f64,
    );

    // The same plan through exec directly, on one full window's rows.
    let window_rows: Vec<Row> = batches
        .iter()
        .skip(100)
        .take(60)
        .flatten()
        .cloned()
        .collect();
    let schema = fx.db.stream_schema("clicks").ok_or("no clicks schema")?;
    let window_rel = Relation::new(schema, window_rows);
    let source = SnapshotSource::pin(engine.clone());
    let ctx = ExecContext::window(
        &source as &dyn RelationSource,
        "clicks",
        &window_rel,
        T0 + 160 * SEC,
    );
    const REPS: usize = 20;
    let t = Instant::now();
    for _ in 0..REPS {
        std::hint::black_box(execute(&reeval.plan, &ctx).map_err(err("execute"))?);
    }
    costs.insert(
        "exec.reeval_us_per_window",
        t.elapsed().as_secs_f64() * 1e6 / REPS as f64,
    );

    // The three snapshot plans on the fixture's grown tables.
    let snapshot_plans: Vec<_> = snapshot_queries()
        .iter()
        .map(|s| analyze(&fx.provider, s).map(|a| a.plan))
        .collect::<Res<_>>()?;
    let snap_ctx = ExecContext::snapshot(&source as &dyn RelationSource);
    let t = Instant::now();
    for _ in 0..REPS {
        for p in &snapshot_plans {
            std::hint::black_box(execute(p, &snap_ctx).map_err(err("snapshot execute"))?);
        }
    }
    costs.insert(
        "exec.snapshot_query_us",
        t.elapsed().as_secs_f64() * 1e6 / (REPS * snapshot_plans.len()) as f64,
    );

    // Shared slices: fold once per tuple, compose per close.
    let shared_plan = analyze(&fx.provider, sql_of("url_traffic_60_1")?)?;
    let (shape, _post) = extract_shape(&shared_plan.plan).ok_or("plan is not shareable")?;
    let mut group = SharedGroup::new(shape);
    let member = group.register(60 * SEC, SEC).map_err(err("register"))?;
    let (mut compose_ns, mut composes, mut composed_rows) = (0u64, 0u64, 0u64);
    let ns = per_batch(tr, "cq.shared_fold", batches, |rows| {
        for r in rows {
            group.on_tuple(r).map_err(err("fold"))?;
        }
        Ok(())
    })?;
    costs.insert("cq.shared_fold_ns_per_tuple", ns / tuples);
    for b in 60..batches.len() as i64 {
        let close = T0 + b * SEC;
        let start = now_ns();
        let composed = group.window_result(member, close).map_err(err("compose"))?;
        let end = now_ns();
        composed_rows += composed.len() as u64;
        tr.record("cq.shared_compose", close as u64, start, end);
        compose_ns += end - start;
        composes += 1;
    }
    costs.insert(
        "cq.shared_compose_us_per_window",
        compose_ns as f64 / 1e3 / composes.max(1) as f64,
    );
    // Not a reported metric: what one output row costs per slice merged,
    // the unit the attribution scales by window width and group count.
    costs.insert(
        COMPOSE_NS_PER_ROW_SLICE,
        compose_ns as f64 / (composed_rows.max(1) * 60) as f64,
    );

    // IVM state: fold per tuple, compose and evict per close.
    let ivm_plan = analyze(&fx.provider, sql_of("size_range")?)?;
    let Lowering::Lowered(program) = lower(&ivm_plan.plan) else {
        return Err("size_range no longer lowers to IVM".into());
    };
    let mut state = IvmState::new(&program);
    let (mut fold_ns, mut compose_ns, mut composes) = (0u64, 0u64, 0u64);
    for (b, rows) in batches.iter().enumerate() {
        let start = now_ns();
        for r in rows {
            state.on_tuple(r).map_err(err("ivm fold"))?;
        }
        let mid = now_ns();
        tr.record("ivm.on_tuple", b as u64, start, mid);
        fold_ns += mid - start;
        let close = T0 + (b as i64 + 1) * SEC;
        if close % (2 * SEC) == 0 {
            let out = state.window_result(close).map_err(err("ivm compose"))?;
            if let WindowOutput::Ready(rel) = &out {
                std::hint::black_box(rel.len());
            }
            state.evict(close + 2 * SEC - 120 * SEC);
            let end = now_ns();
            tr.record("ivm.window_result", close as u64, mid, end);
            compose_ns += end - mid;
            composes += 1;
        }
    }
    costs.insert("ivm.fold_ns_per_tuple", fold_ns as f64 / tuples);
    costs.insert(
        "ivm.compose_us_per_window",
        compose_ns as f64 / 1e3 / composes.max(1) as f64,
    );

    // Pool hand-off: 16 no-op tasks, as one tick of 16 CQs submits.
    let pool = WorkerPool::new(
        DbOptions::default().resolved_pool_workers(),
        &Registry::new(16),
    );
    const DISPATCHES: usize = 2000;
    let t = Instant::now();
    for _ in 0..DISPATCHES {
        let tasks: Vec<_> = (0..16u64).map(|i| move || i).collect();
        std::hint::black_box(pool.run_ordered(tasks));
    }
    costs.insert(
        "cq.pool_dispatch_us_per_batch",
        t.elapsed().as_secs_f64() * 1e6 / DISPATCHES as f64,
    );
    Ok(())
}

fn storage_costs(
    tr: &mut Tracer,
    fx: &Fixture,
    env: &Env,
    batches: &[Vec<Row>],
    costs: &mut Costs,
) -> Res<()> {
    let tuples = (batches.len() as u64 * BATCH) as f64;
    let dir = env.temp_dir("layers")?;
    let clicks_schema = (*fx.db.stream_schema("clicks").ok_or("no clicks schema")?).clone();

    // Heap insert + commit through the WAL (default sync mode).
    {
        let engine = StorageEngine::open_with(dir.path().join("engine"), SyncMode::Flush)
            .map_err(err("open engine"))?;
        let tid = engine
            .create_table("clicks_raw", clicks_schema)
            .map_err(err("create table"))?;
        let (mut insert_ns, mut commit_ns) = (0u64, 0u64);
        for (b, rows) in batches.iter().enumerate() {
            let xid = engine.begin().map_err(err("begin"))?;
            let start = now_ns();
            engine
                .insert_many(xid, tid, rows.clone())
                .map_err(err("insert_many"))?;
            let mid = now_ns();
            engine.commit(xid).map_err(err("commit"))?;
            let end = now_ns();
            tr.record("storage.insert_many", b as u64, start, mid);
            tr.record("storage.commit", b as u64, mid, end);
            insert_ns += mid - start;
            commit_ns += end - mid;
        }
        costs.insert("storage.insert_ns_per_row", insert_ns as f64 / tuples);
        costs.insert(
            "storage.commit_us",
            commit_ns as f64 / 1e3 / batches.len() as f64,
        );
        let wal_bytes: u64 = std::fs::read_dir(dir.path().join("engine"))
            .map_err(err("read engine dir"))?
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with("wal"))
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum();
        costs.insert("storage.wal_bytes_per_tuple", wal_bytes as f64 / tuples);
        let t = Instant::now();
        engine.checkpoint().map_err(err("checkpoint"))?;
        costs.insert("storage.checkpoint_ms", t.elapsed().as_secs_f64() * 1e3);
    }

    // The log alone: append cost, then fsync cost on the same records.
    let records: Vec<WalRecord> = batches
        .iter()
        .take(40)
        .flatten()
        .enumerate()
        .map(|(i, row)| WalRecord::Insert {
            xid: 1,
            table: 1,
            slot: i as u64,
            row: row.clone(),
        })
        .collect();
    let mut wal = Wal::open(dir.path().join("append.log"), SyncMode::Flush).map_err(err("wal"))?;
    let t = Instant::now();
    for (i, rec) in records.iter().enumerate() {
        wal.append(i as u64 + 1, rec).map_err(err("append"))?;
    }
    wal.sync_commit().map_err(err("flush"))?;
    costs.insert(
        "storage.wal_append_ns_per_record",
        t.elapsed().as_secs_f64() * 1e9 / records.len() as f64,
    );
    let mut wal = Wal::open(dir.path().join("fsync.log"), SyncMode::Fsync).map_err(err("wal"))?;
    let mut fsync_us = Vec::new();
    for (c, chunk) in records.chunks(BATCH as usize).enumerate() {
        for (i, rec) in chunk.iter().enumerate() {
            wal.append((c * BATCH as usize + i) as u64 + 1, rec)
                .map_err(err("append"))?;
        }
        let start = now_ns();
        wal.sync_commit().map_err(err("fsync"))?;
        let end = now_ns();
        tr.record("storage.fsync", c as u64, start, end);
        fsync_us.push((end - start) as f64 / 1e3);
    }
    costs.insert("storage.fsync_us_p50", median(&fsync_us));

    // Reads on the fixture's grown tables.
    let engine = fx.db.engine();
    let tid = engine.table_id("urls_archive").map_err(err("table id"))?;
    let snap = engine.snapshot();
    const REPS: usize = 10;
    let t = Instant::now();
    let mut rows = 0usize;
    for _ in 0..REPS {
        rows += engine.scan(tid, &snap).map_err(err("scan"))?.len();
    }
    costs.insert(
        "storage.scan_ns_per_row",
        t.elapsed().as_secs_f64() * 1e9 / rows.max(1) as f64,
    );
    let index = engine
        .index_on("urls_archive", "stime")
        .ok_or("urls_archive lost its index")?;
    let lookups = batches.len() as i64 - 2;
    let t = Instant::now();
    for b in 1..=lookups {
        let key = IndexKey(vec![Value::Timestamp(T0 + b * SEC)]);
        std::hint::black_box(
            engine
                .index_lookup("urls_archive", &index, &key, &snap)
                .map_err(err("index lookup"))?,
        );
    }
    costs.insert(
        "storage.index_lookup_us",
        t.elapsed().as_secs_f64() * 1e6 / lookups as f64,
    );
    Ok(())
}

/// Replay the run's first 50 000 tuples through every layer.
pub fn unit_costs(seed: u64, env: &Env, tr: &mut Tracer) -> Res<Costs> {
    let ordered = Gen::new(seed, crate::gen::Disorder::None);
    let batches: Vec<Vec<Row>> = (0..REPLAY_BATCHES).map(|b| ordered.batch(b)).collect();
    let slack_gen = Gen::new(seed, crate::gen::Disorder::Slack);
    let disordered: Vec<Vec<Row>> = (0..REPLAY_BATCHES).map(|b| slack_gen.batch(b)).collect();
    let fx = Fixture::build(&batches)?;
    let mut costs = Costs::new();
    net_costs(tr, &batches, &mut costs)?;
    sql_costs(&fx, &mut costs)?;
    cq_ivm_exec_costs(tr, &fx, &batches, &disordered, &mut costs)?;
    storage_costs(tr, &fx, env, &batches, &mut costs)?;
    let t = Instant::now();
    const SCANS: usize = 50;
    for _ in 0..SCANS {
        std::hint::black_box(fx.db.metrics_relation());
    }
    costs.insert(
        "obs.metrics_scan_us",
        t.elapsed().as_secs_f64() * 1e6 / SCANS as f64,
    );
    Ok(costs)
}
