//! The torture runner's suites, and its crash-recovery sweeps (DESIGN.md
//! §10).
//!
//! One seed drives every suite in [`SUITES`]: the four crash-at-every-op
//! sweeps defined here (`storage`, `multilog`, `cq`, `ivm`), the chaos
//! schedule sweep of [`crate::race`] and the cross-process `kill -9`
//! sweep of [`crate::federation`]. Each reports one [`Outcome`] of
//! [`Failure`]s. The seed also picks every workload size
//! ([`Sizes::of`]), so a `(suite, seed)` pair names a run completely.
//!
//! The crash sweeps are deterministic and built on `streamrel-faults`:
//!
//! * [`engine_sweep_with_logs`] — a seeded workload of logical storage steps
//!   (DDL, transactional inserts/deletes, catalog puts, checkpoints,
//!   aborted transactions) runs once fault-free to record the state
//!   digest at every step boundary; then the same workload is crashed at
//!   **every mutating I/O operation index** in turn, the frozen disk
//!   image is reopened, and the recovered state must (a) equal some step
//!   boundary at or after the last step whose commit fsync returned
//!   (atomicity + durability), and (b) after re-driving the remaining
//!   steps, be byte-identical to the uncrashed reference's final digest.
//!   With one commit domain it is the `storage` suite; with several (plus
//!   [`checkpoint_reset_sweep`]) the `multilog` suite.
//! * [`cq_sweep`] — the same protocol over the full SQL/CQ stack: a
//!   tumbling-window CQ archiving into an Active Table through an APPEND
//!   channel, plus a raw archive. After each crash the harness reopens,
//!   rebuilds in-flight window state from the raw archive past the
//!   watermark (the paper's §4 recovery story), re-drives the ingest
//!   steps whose tuples never became durable, and requires the final
//!   archive + watermark digest to be byte-identical to the reference.
//!   [`ivm_sweep`] is the same over a sliding window on a slice store.
//!
//! A crash failure carries its frozen disk image;
//! `FaultPlan::crash_at(seed, op)` reproduces it exactly.

use std::collections::HashSet;
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use streamrel_core::{Db, DbOptions};
use streamrel_cq::recovery::load_watermark;
use streamrel_faults::chaos::splitmix64;
use streamrel_faults::{DiskImage, FaultIo, FaultPlan};
use streamrel_storage::{Io, StorageEngine, SyncMode};
use streamrel_types::{Column, DataType, Result, Value};

/// Simulated data directory (never touches the real filesystem).
const SIM_DIR: &str = "/sim/db";

/// A suite's run for one seed. An `Err` is a harness fault (the
/// unperturbed reference run failed), not a divergence.
pub type SuiteRun = fn(u64) -> Result<Outcome>;

/// Every suite the `torture` binary runs for each seed, in order, by
/// name. A new suite is one more entry.
pub const SUITES: [(&str, SuiteRun); 6] = [
    ("storage", |seed| {
        engine_sweep_with_logs(seed, Sizes::of(seed).steps, 1)
    }),
    ("multilog", |seed| {
        let z = Sizes::of(seed);
        let mut out = engine_sweep_with_logs(seed, z.steps, z.wal_shards)?;
        out.merge(checkpoint_reset_sweep(seed, z.wal_shards)?);
        Ok(out)
    }),
    ("cq", |seed| cq_sweep(seed, Sizes::of(seed).tuples)),
    ("ivm", |seed| ivm_sweep(seed, Sizes::of(seed).tuples)),
    ("race", |seed| Ok(crate::race::run_seed(seed))),
    ("federation", |seed| {
        Ok(crate::federation::run_seed(seed, Sizes::of(seed)))
    }),
];

/// The workload sizes a seed picks. The same seed always gets the same
/// sizes, each inside the range the runner's lanes have always covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Storage workload steps, 80–120.
    pub steps: usize,
    /// CQ workload tuples, 25–40.
    pub tuples: usize,
    /// Commit domains of the `multilog` suite, 2–5.
    pub wal_shards: usize,
    /// Producer windows of the `federation` suite, 8–12.
    pub windows: i64,
    /// Serving-node kills of the `federation` suite, 2–3.
    pub kills: u64,
}

impl Sizes {
    /// The sizes for `seed`: one independent draw per size.
    pub fn of(seed: u64) -> Sizes {
        let pick =
            |salt: u64, lo: u64, hi: u64| lo + splitmix64(seed ^ (salt << 56)) % (hi - lo + 1);
        Sizes {
            steps: pick(1, 80, 120) as usize,
            tuples: pick(2, 25, 40) as usize,
            wal_shards: pick(3, 2, 5) as usize,
            windows: pick(4, 8, 12) as i64,
            kills: pick(5, 2, 3),
        }
    }
}

/// What a failure leaves behind besides its seed line.
#[derive(Debug)]
pub enum Artifact {
    /// The frozen simulated disk at the crash.
    DiskImage(DiskImage),
    /// A serving node's data directory on the real filesystem.
    NodeDir(PathBuf),
}

/// One divergence: the reproduction recipe plus what went wrong.
#[derive(Debug)]
pub struct Failure {
    /// The suite that diverged.
    pub suite: &'static str,
    /// The seed that reproduces it (workload, sizes and schedule).
    pub seed: u64,
    /// Mutating-op index a crash sweep injected its crash at.
    pub op: Option<u64>,
    /// Human-readable description of the divergence.
    pub detail: String,
    /// What to upload with it; `None` when the seed line is the whole
    /// recipe (a chaos schedule).
    pub artifact: Option<Artifact>,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] seed={}", self.suite, self.seed)?;
        if let Some(op) = self.op {
            write!(f, " op={op}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// What one suite did for one seed: the points it exercised (crash ops,
/// chaos points or kills) and the divergences it found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Crash ops, chaos points or kills exercised.
    pub points: u64,
    /// Divergences (empty = the suite's oracle held throughout).
    pub failures: Vec<Failure>,
}

impl Outcome {
    /// Merge another outcome into this one.
    pub fn merge(&mut self, other: Outcome) {
        self.points += other.points;
        self.failures.extend(other.failures);
    }
}

// ---- engine-level sweep ----------------------------------------------------

/// One logical storage step. Steps are *value-addressed* (tables by
/// name, rows by content) so they can be re-driven against a recovered
/// engine whose heap slots and transaction ids differ from the
/// reference run's. `ReplaceAll` is one transaction replacing the table's
/// contents with `n` fresh rows, as a REPLACE channel does (one
/// `DeleteMany`, one `InsertMany`, one commit); `Reclaim` frees dead
/// versions and writes nothing, so it is digest-neutral.
#[derive(Debug, Clone)]
enum EngineStep {
    CreateTable(String),
    InsertBatch { table: String, base: i64, n: usize },
    ReplaceAll { table: String, base: i64, n: usize },
    Reclaim,
    DeleteMin { table: String },
    KvPut { key: String, value: String },
    Checkpoint,
    AbortedInsert { table: String, v: i64 },
}

fn torture_schema() -> streamrel_types::Schema {
    streamrel_types::Schema::new(vec![
        Column::not_null("k", DataType::Text),
        Column::new("v", DataType::Int),
    ])
    .expect("static schema")
}

/// Deterministic step list for a seed. A monotone counter keeps every
/// inserted row unique, which makes every step-boundary digest distinct
/// (except for steps that are deliberately digest-neutral: checkpoints,
/// aborted transactions, deletes from empty tables — re-driving those is
/// idempotent, so boundary ambiguity is harmless).
fn gen_engine_steps(seed: u64, n: usize) -> Vec<EngineStep> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x544f_5254);
    let mut tables: Vec<String> = Vec::new();
    let mut counter: i64 = 0;
    let mut steps = Vec::with_capacity(n);
    for _ in 0..n {
        let roll = if tables.is_empty() {
            0
        } else {
            rng.gen_range(0..100u32)
        };
        let step = if tables.is_empty() || (roll < 8 && tables.len() < 6) {
            let name = format!("t{}", tables.len());
            tables.push(name.clone());
            EngineStep::CreateTable(name)
        } else if roll < 58 {
            let table = tables[rng.gen_range(0..tables.len())].clone();
            let n = rng.gen_range(1..4usize);
            let base = counter;
            counter += n as i64;
            if roll < 48 {
                EngineStep::InsertBatch { table, base, n }
            } else {
                EngineStep::ReplaceAll { table, base, n }
            }
        } else if roll < 64 {
            EngineStep::Reclaim
        } else if roll < 72 {
            EngineStep::DeleteMin {
                table: tables[rng.gen_range(0..tables.len())].clone(),
            }
        } else if roll < 82 {
            counter += 1;
            EngineStep::KvPut {
                key: format!("torture.k{}", rng.gen_range(0..8u32)),
                value: format!("v{counter}"),
            }
        } else if roll < 90 {
            EngineStep::Checkpoint
        } else {
            counter += 1;
            EngineStep::AbortedInsert {
                table: tables[rng.gen_range(0..tables.len())].clone(),
                v: counter,
            }
        };
        steps.push(step);
    }
    steps
}

/// Commit domain a table's inserts are routed to when the sweep runs
/// with multiple WAL logs: table `tN` homes on log `N % wal_shards`.
/// Deletes deliberately go to the *next* domain, so a table's insert and
/// its delete live in different logs — recovery must merge the logs in
/// global-LSN order or the delete replays before the insert it targets.
fn table_home(table: &str, wal_shards: usize) -> usize {
    let idx: usize = table.trim_start_matches('t').parse().unwrap_or(0);
    idx % wal_shards.max(1)
}

fn apply_engine_step(e: &StorageEngine, step: &EngineStep, wal_shards: usize) -> Result<()> {
    match step {
        EngineStep::CreateTable(name) => {
            e.create_table(name, torture_schema())?;
        }
        EngineStep::InsertBatch { table, base, n } => {
            let id = e.table_id(table)?;
            e.with_txn_on(table_home(table, wal_shards), |x| {
                for i in 0..*n {
                    let v = base + i as i64;
                    e.insert(x, id, vec![Value::text(format!("k{v}")), Value::Int(v)])?;
                }
                Ok(())
            })?;
        }
        EngineStep::ReplaceAll { table, base, n } => {
            let id = e.table_id(table)?;
            let rows = (*base..*base + *n as i64)
                .map(|v| vec![Value::text(format!("k{v}")), Value::Int(v)])
                .collect();
            e.with_txn_on(table_home(table, wal_shards), |x| {
                e.delete_all_visible(x, id)?;
                e.insert_many(x, id, rows)
            })?;
        }
        EngineStep::Reclaim => {
            e.vacuum();
        }
        EngineStep::DeleteMin { table } => {
            let id = e.table_id(table)?;
            e.with_txn_on(
                (table_home(table, wal_shards) + 1) % wal_shards.max(1),
                |x| {
                    let snap = e.snapshot_for(x);
                    let mut rows = e.scan(id, &snap)?;
                    rows.sort_by_key(|(_, r)| match r.get(1) {
                        Some(Value::Int(v)) => *v,
                        _ => i64::MAX,
                    });
                    if let Some((tid, _)) = rows.first() {
                        e.delete(x, *tid)?;
                    }
                    Ok(())
                },
            )?;
        }
        EngineStep::KvPut { key, value } => e.catalog_put(key, value)?,
        EngineStep::Checkpoint => e.checkpoint()?,
        EngineStep::AbortedInsert { table, v } => {
            let id = e.table_id(table)?;
            let x = e.begin_on(table_home(table, wal_shards))?;
            e.insert(x, id, vec![Value::text(format!("a{v}")), Value::Int(*v)])?;
            e.abort(x)?;
        }
    }
    Ok(())
}

/// Canonical state digest: every table (sorted by name) with its visible
/// rows (sorted by content), plus the whole catalog KV area. Slot
/// numbers, transaction ids and table ids are deliberately excluded —
/// recovery renumbers them freely.
pub fn engine_digest(e: &StorageEngine) -> Result<String> {
    let mut out = String::new();
    let mut names = e.table_names();
    names.sort();
    let snap = e.snapshot();
    for name in names {
        let id = e.table_id(&name)?;
        let mut rows: Vec<String> = e
            .scan(id, &snap)?
            .into_iter()
            .map(|(_, r)| format!("{r:?}"))
            .collect();
        rows.sort();
        out.push_str(&format!("table {name}: {}\n", rows.join(" | ")));
    }
    for (k, v) in e.catalog_scan("") {
        out.push_str(&format!("kv {k}={v}\n"));
    }
    Ok(out)
}

fn open_engine(io: &Arc<FaultIo>, wal_shards: usize) -> Result<StorageEngine> {
    let dynio: Arc<dyn Io> = io.clone();
    StorageEngine::open_with_opts(SIM_DIR, SyncMode::Fsync, dynio, wal_shards)
}

/// Crash-at-every-op sweep over the storage-level workload with
/// `wal_shards` independent commit domains. With one it is the pre-§13
/// layout; with more, inserts home on a table's own log while deletes are
/// routed to the *next* log (see [`table_home`]), so every crash point
/// also proves the cross-log LSN-merge recovery cut and per-shard
/// checkpoint epoch stamping (DESIGN.md §13).
pub fn engine_sweep_with_logs(seed: u64, nsteps: usize, wal_shards: usize) -> Result<Outcome> {
    sweep_engine_steps(seed, &gen_engine_steps(seed, nsteps), wal_shards)
}

/// Deterministic checkpoint interleaving: data in several
/// domains, then checkpoints — so the sweep crashes at every op *between*
/// the checkpoint's manifest rename and each per-shard WAL reset. A
/// recovery that discarded more than the genuinely stale logs (or kept a
/// stale one) fails the boundary/convergence checks. The post-checkpoint
/// traffic proves the recovered engine still routes and replays cleanly.
pub fn checkpoint_reset_sweep(seed: u64, wal_shards: usize) -> Result<Outcome> {
    let t = |i: usize| format!("t{i}");
    let mut steps = Vec::new();
    for i in 0..wal_shards.max(2) {
        steps.push(EngineStep::CreateTable(t(i)));
        steps.push(EngineStep::InsertBatch {
            table: t(i),
            base: (i as i64) * 10,
            n: 2,
        });
    }
    steps.push(EngineStep::Checkpoint);
    steps.push(EngineStep::InsertBatch {
        table: t(0),
        base: 100,
        n: 2,
    });
    steps.push(EngineStep::DeleteMin { table: t(1) });
    steps.push(EngineStep::ReplaceAll {
        table: t(0),
        base: 150,
        n: 3,
    });
    steps.push(EngineStep::Reclaim);
    steps.push(EngineStep::Checkpoint);
    steps.push(EngineStep::InsertBatch {
        table: t(1),
        base: 200,
        n: 1,
    });
    steps.push(EngineStep::ReplaceAll {
        table: t(0),
        base: 300,
        n: 2,
    });
    sweep_engine_steps(seed, &steps, wal_shards)
}

fn sweep_engine_steps(seed: u64, steps: &[EngineStep], wal_shards: usize) -> Result<Outcome> {
    // Reference run: no faults; digest at every step boundary.
    let io = FaultIo::new(FaultPlan::none(seed));
    let e = open_engine(&io, wal_shards)?;
    let mut boundaries = vec![engine_digest(&e)?];
    for s in steps {
        apply_engine_step(&e, s, wal_shards)?;
        boundaries.push(engine_digest(&e)?);
    }
    let total_ops = io.ops();
    drop(e);

    let mut outcome = Outcome {
        points: total_ops,
        failures: Vec::new(),
    };
    for op in 0..total_ops {
        if let Some(f) = engine_crash_once(seed, steps, &boundaries, op, wal_shards)? {
            outcome.failures.push(f);
        }
    }
    Ok(outcome)
}

fn crash_failure(
    suite: &'static str,
    seed: u64,
    op: u64,
    detail: String,
    image: &DiskImage,
) -> Failure {
    Failure {
        suite,
        seed,
        op: Some(op),
        detail,
        artifact: Some(Artifact::DiskImage(image.clone())),
    }
}

/// Run the workload with a crash injected at mutating-op `op`, recover,
/// and check both invariants. `None` = this crash point is proven.
fn engine_crash_once(
    seed: u64,
    steps: &[EngineStep],
    boundaries: &[String],
    op: u64,
    wal_shards: usize,
) -> Result<Option<Failure>> {
    let io = FaultIo::new(FaultPlan::crash_at(seed, op).with_bit_flip());
    let mut completed = 0usize;
    if let Ok(e) = open_engine(&io, wal_shards) {
        for s in steps {
            if apply_engine_step(&e, s, wal_shards).is_err() {
                break;
            }
            completed += 1;
        }
    }
    let image = io.frozen_image()?;
    // One commit domain is the `storage` suite, several are `multilog`.
    let suite = if wal_shards == 1 {
        "storage"
    } else {
        "multilog"
    };
    let fail = |detail| Ok(Some(crash_failure(suite, seed, op, detail, &image)));

    // Power-loss restart: reopen over the frozen image, no faults.
    let rio = FaultIo::from_image(&image, FaultPlan::none(0));
    let e = match open_engine(&rio, wal_shards) {
        Ok(e) => e,
        Err(err) => return fail(format!("recovery open failed: {err}")),
    };
    let got = engine_digest(&e)?;

    // Atomicity + durability: the recovered state is a step boundary, at
    // or (if the crashing step's records all landed) one past the last
    // step whose commit fsync was acknowledged.
    let Some(rel) = boundaries[completed..].iter().position(|b| *b == got) else {
        return fail(format!(
            "recovered state matches no boundary >= {completed}:\n{got}"
        ));
    };
    let resume = completed + rel;

    // Convergence: re-driving the remaining steps lands byte-identical
    // to the uncrashed reference.
    for (i, s) in steps[resume..].iter().enumerate() {
        if let Err(err) = apply_engine_step(&e, s, wal_shards) {
            return fail(format!("re-drive failed at step {}: {err}", resume + i));
        }
    }
    let fin = engine_digest(&e)?;
    if fin != boundaries[boundaries.len() - 1] {
        return fail(format!(
            "re-driven final state diverges from reference:\n--- got ---\n{fin}"
        ));
    }
    Ok(None)
}

// ---- CQ-level sweep --------------------------------------------------------

/// One logical CQ workload step: ingest a tuple (timestamps strictly
/// increase, so a tuple is identified by its timestamp) or heartbeat.
#[derive(Debug, Clone)]
enum CqStep {
    Ingest { k: &'static str, ts: i64 },
    Heartbeat { ts: i64 },
}

const SECOND: i64 = 1_000_000;
const MINUTE: i64 = 60 * SECOND;

fn gen_cq_steps(seed: u64, tuples: usize) -> Vec<CqStep> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0c0f_fee0);
    let keys = ["a", "b", "c"];
    let mut ts = 0i64;
    let mut steps = Vec::new();
    for _ in 0..tuples {
        ts += rng.gen_range(1..30i64) * SECOND;
        steps.push(CqStep::Ingest {
            k: keys[rng.gen_range(0..keys.len())],
            ts,
        });
        if rng.gen_bool(0.2) {
            // Close out the current minute.
            let hb = (ts / MINUTE + 1) * MINUTE;
            steps.push(CqStep::Heartbeat { ts: hb });
            ts = hb;
        }
    }
    // Final heartbeat closes every remaining window so the reference and
    // recovered runs are compared with no in-flight state.
    steps.push(CqStep::Heartbeat {
        ts: (ts / MINUTE + 2) * MINUTE,
    });
    steps
}

fn cq_options() -> DbOptions {
    // Single shard, one WAL log, no worker pool: the op sequence must be
    // identical on every run (and every host) for crash-at-op-N to be
    // meaningful; a host-derived log count would shift op indices.
    DbOptions::default()
        .with_sync(SyncMode::Fsync)
        .with_shards(1)
        .with_pool_workers(0)
}

/// The standing query `derived` over stream `s` through `window`, its
/// APPEND archive `agg`, its REPLACE table `cur`, the raw archive — and,
/// one level down, the sliding total `rolling` over `derived` with an
/// APPEND archive of its own, so that a crash between the upstream's
/// archive commit and the downstream's is a crash point. Beside `derived`,
/// `ranked` slides over `s` with a view that emits in its ORDER BY order,
/// archived to `ranks`: a crash rebuilds that view too.
fn setup_with(db: &Db, derived: &str, window: &str) -> Result<()> {
    db.execute("CREATE STREAM s (k varchar(16), ts timestamp CQTIME USER)")?;
    db.execute("CREATE TABLE agg (k varchar(16), c bigint, w timestamp)")?;
    db.execute(&format!(
        "CREATE STREAM {derived} AS SELECT k, count(*) c, cq_close(*) w \
         FROM s <{window}> GROUP BY k"
    ))?;
    db.execute(&format!("CREATE CHANNEL ch FROM {derived} INTO agg APPEND"))?;
    db.execute("CREATE TABLE cur (k varchar(16), c bigint, w timestamp)")?;
    db.execute(&format!(
        "CREATE CHANNEL cur_ch FROM {derived} INTO cur REPLACE"
    ))?;
    db.execute("CREATE TABLE raw (k varchar(16), ts timestamp)")?;
    db.execute("CREATE CHANNEL raw_ch FROM s INTO raw APPEND")?;
    db.execute(&format!(
        "CREATE STREAM rolling AS SELECT sum(c) n, count(*) ks, cq_close(*) w3 \
         FROM {derived} <VISIBLE '3 minutes' ADVANCE '1 minute'>"
    ))?;
    db.execute("CREATE TABLE roll (n bigint, ks bigint, w3 timestamp)")?;
    db.execute("CREATE CHANNEL roll_ch FROM rolling INTO roll APPEND")?;
    db.execute(
        "CREATE STREAM ranked AS SELECT k, count(*) c \
         FROM s <VISIBLE '3 minutes' ADVANCE '1 minute'> GROUP BY k ORDER BY k",
    )?;
    db.execute("CREATE TABLE ranks (k varchar(16), c bigint)")?;
    db.execute("CREATE CHANNEL ranks_ch FROM ranked INTO ranks APPEND")?;
    Ok(())
}

fn cq_setup(db: &Db) -> Result<()> {
    setup_with(db, "per_minute", "TUMBLING '1 minute'")
}

/// One CQ-level sweep flavour: which options and which standing query.
struct SweepSpec {
    /// The runner suite this sweep is.
    suite: &'static str,
    options: fn() -> DbOptions,
    setup: fn(&Db) -> Result<()>,
    /// The derived stream `setup` creates (its watermark's name).
    derived: &'static str,
    /// Require the standing CQ to run on the IVM path after every open
    /// (reference run *and* each recovery) — a silent fallback would
    /// make the sweep prove the wrong executor.
    require_ivm: bool,
}

const CQ_SPEC: SweepSpec = SweepSpec {
    suite: "cq",
    options: cq_options,
    setup: cq_setup,
    derived: "per_minute",
    require_ivm: false,
};

// ---- IVM sweep: delta state crashed mid-slice ------------------------------

fn ivm_options() -> DbOptions {
    // Pooling ablated: the standing query runs on a private slice store.
    cq_options().without_sharing()
}

/// A *sliding* grouped count (`VISIBLE 3m ADVANCE 1m`, slice width 1m),
/// closed from a window view that carries two slices across each close. A
/// crash lands mid-slice with partial state in memory, or — in a close's
/// archive write — after the view has emitted and retracted but before its
/// window is durable (the store does no I/O between retract and evict).
/// Recovery must refold the delta from the raw archive, including the two
/// archived minutes before the watermark that the next window still
/// sees, and rebuild the view from those slices. `joined` slides over `s`
/// joined to `dim`, which every heartbeat swaps ([`swap_dim`]): a crash loses
/// its memoised counts, and each rebuilt window counts `dim` as it was.
fn ivm_setup(db: &Db) -> Result<()> {
    setup_with(db, "winagg", "VISIBLE '3 minutes' ADVANCE '1 minute'")?;
    db.execute("CREATE TABLE dim (k varchar(16), g bigint)")?;
    db.execute(
        "CREATE STREAM joined AS SELECT s.k, count(*) c, cq_close(*) w FROM s \
         <VISIBLE '3 minutes' ADVANCE '1 minute'> JOIN dim d ON s.k = d.k GROUP BY s.k",
    )?;
    db.execute("CREATE TABLE joins (k varchar(16), c bigint, w timestamp)")?;
    db.execute("CREATE CHANNEL joins_ch FROM joined INTO joins APPEND")?;
    Ok(())
}

/// Replace `dim`, where it exists, by the generation of `ts`'s minute in one
/// transaction, so a re-driven heartbeat leaves it as the reference had it.
fn swap_dim(db: &Db, ts: i64) -> Result<()> {
    let (e, g) = (db.engine(), ts / MINUTE);
    let Ok(t) = e.table_id("dim") else {
        return Ok(());
    };
    let counts = [("a", g % 2), ("b", 2), ("c", i64::from(g % 3 == 0))];
    let row = |k: &str| vec![Value::text(k), Value::Int(g)];
    let rows = counts
        .iter()
        .flat_map(|&(k, n)| (0..n).map(move |_| row(k)));
    e.with_txn(|x| {
        e.delete_all_visible(x, t)?;
        e.insert_many(x, t, rows.collect()).map(drop)
    })
}

const IVM_SPEC: SweepSpec = SweepSpec {
    suite: "ivm",
    options: ivm_options,
    setup: ivm_setup,
    derived: "winagg",
    require_ivm: true,
};

fn ivm_lowered(db: &Db) -> bool {
    db.engine().metrics().counter("ivm.lowered").get() >= 1
}

fn apply_cq_step(db: &Db, step: &CqStep) -> Result<()> {
    match step {
        CqStep::Ingest { k, ts } => db.ingest("s", vec![Value::text(*k), Value::Timestamp(*ts)]),
        CqStep::Heartbeat { ts } => swap_dim(db, *ts).and_then(|()| db.heartbeat("s", *ts)),
    }
}

/// The rows a query returns, rendered and sorted.
fn sorted_rows(db: &Db, sql: &str) -> Result<String> {
    let rel = match db.execute(sql)? {
        streamrel_core::ExecResult::Rows(rel) => rel,
        other => {
            return Err(streamrel_types::Error::Io(format!(
                "unexpected result {other:?}"
            )))
        }
    };
    let mut rows: Vec<String> = rel.rows().iter().map(|r| format!("{r:?}")).collect();
    rows.sort();
    Ok(rows.join(" | "))
}

/// Canonical CQ digest: archived windows, the raw archive, any join
/// archive and its table, and every CQ watermark — the full durable
/// footprint of the standing query.
pub fn cq_digest(db: &Db) -> Result<String> {
    let mut out = String::new();
    let tables = ["agg", "cur", "raw", "roll", "ranks", "joins", "dim"];
    for t in tables.into_iter().filter(|t| db.engine().has_table(t)) {
        let rows = sorted_rows(db, &format!("SELECT * FROM {t}"))?;
        out.push_str(&format!("table {t}: {rows}\n"));
    }
    for (k, v) in db.engine().catalog_scan("cq_watermark.") {
        out.push_str(&format!("{k}={v}\n"));
    }
    Ok(out)
}

fn open_db(io: &Arc<FaultIo>, spec: &SweepSpec) -> Result<Db> {
    let dynio: Arc<dyn Io> = io.clone();
    Db::open_with_io(SIM_DIR, (spec.options)(), dynio)
}

/// Crash-at-every-op sweep over the CQ workload (ingest phase; DDL crash
/// points are covered by [`engine_sweep_with_logs`]'s `CreateTable`/`KvPut`
/// steps).
pub fn cq_sweep(seed: u64, tuples: usize) -> Result<Outcome> {
    spec_sweep(seed, tuples, &CQ_SPEC)
}

/// Crash-at-every-op sweep over the IVM workload: same recovery protocol
/// as [`cq_sweep`], but the standing query runs on the incremental path
/// and a crash lands mid-slice. The recovered, re-driven archive must be
/// byte-identical to the uncrashed reference.
pub fn ivm_sweep(seed: u64, tuples: usize) -> Result<Outcome> {
    spec_sweep(seed, tuples, &IVM_SPEC)
}

fn spec_sweep(seed: u64, tuples: usize, spec: &SweepSpec) -> Result<Outcome> {
    let steps = gen_cq_steps(seed, tuples);

    // Reference run.
    let io = FaultIo::new(FaultPlan::none(seed));
    let db = open_db(&io, spec)?;
    (spec.setup)(&db)?;
    if spec.require_ivm && !ivm_lowered(&db) {
        return Err(streamrel_types::Error::stream(
            "sweep CQ did not lower to the IVM path",
        ));
    }
    let setup_ops = io.ops();
    for s in &steps {
        apply_cq_step(&db, s)?;
    }
    let reference = cq_digest(&db)?;
    let total_ops = io.ops();
    drop(db);

    let mut outcome = Outcome {
        points: total_ops - setup_ops,
        failures: Vec::new(),
    };
    for op in setup_ops..total_ops {
        if let Some(f) = spec_crash_once(seed, &steps, &reference, op, spec)? {
            outcome.failures.push(f);
        }
    }
    Ok(outcome)
}

fn spec_crash_once(
    seed: u64,
    steps: &[CqStep],
    reference: &str,
    op: u64,
    spec: &SweepSpec,
) -> Result<Option<Failure>> {
    let io = FaultIo::new(FaultPlan::crash_at(seed, op).with_bit_flip());
    if let Ok(db) = open_db(&io, spec) {
        if (spec.setup)(&db).is_ok() {
            for s in steps {
                if apply_cq_step(&db, s).is_err() {
                    break;
                }
            }
        }
    }
    let image = io.frozen_image()?;
    let fail = |detail| Ok(Some(crash_failure(spec.suite, seed, op, detail, &image)));

    // Restart: recovery replays the WAL, rebuilds DDL objects, resumes
    // each CQ after its watermark and replays the Active Tables into it.
    let rio = FaultIo::from_image(&image, FaultPlan::none(0));
    let db = match open_db(&rio, spec) {
        Ok(db) => db,
        Err(err) => return fail(format!("recovery open failed: {err}")),
    };
    if spec.require_ivm && !ivm_lowered(&db) {
        return fail("recovered CQ did not re-lower to the IVM path".into());
    }

    // The REPLACE table swaps in the transaction that archives the window
    // and moves the watermark: whatever the crash tore — the `DeleteMany`,
    // the `InsertMany`, the commit — it holds exactly the archived rows of
    // the last committed window.
    let committed = load_watermark(db.engine(), spec.derived)?.unwrap_or(-1);
    let cur = sorted_rows(&db, "SELECT * FROM cur")?;
    let last = sorted_rows(&db, &format!("SELECT * FROM agg WHERE w = {committed}"))?;
    if cur != last {
        return fail(format!(
            "REPLACE table is not the last committed window:\n{cur}\n--- want ---\n{last}"
        ));
    }

    // `Db::open` rebuilt every in-flight window from the archives and
    // emitted what the crash left owed. The feeder re-sends what the raw
    // archive lacks — tuples that never became durable — and replays
    // heartbeats wholesale (a stale heartbeat closes nothing).
    let raw = db.execute("SELECT ts FROM raw")?.rows();
    let durable: HashSet<&Value> = raw.rows().iter().filter_map(|r| r.first()).collect();
    for s in steps {
        let redo = match s {
            CqStep::Ingest { ts, .. } => !durable.contains(&Value::Timestamp(*ts)),
            CqStep::Heartbeat { .. } => true,
        };
        if redo {
            if let Err(err) = apply_cq_step(&db, s) {
                return fail(format!("re-drive failed on {s:?}: {err}"));
            }
        }
    }
    let got = cq_digest(&db)?;
    if got != reference {
        return fail(format!(
            "CQ state diverges from reference:\n--- got ---\n{got}--- want ---\n{reference}"
        ));
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_clean(out: Outcome) {
        assert!(out.points > 10, "only {} crash points", out.points);
        if let Some(f) = out.failures.first() {
            panic!("first failure: {f}");
        }
    }

    #[test]
    fn engine_steps_are_deterministic() {
        let a = format!("{:?}", gen_engine_steps(9, 30));
        let b = format!("{:?}", gen_engine_steps(9, 30));
        assert_eq!(a, b);
        let c = format!("{:?}", gen_engine_steps(10, 30));
        assert_ne!(a, c);
    }

    #[test]
    fn small_engine_sweep_is_clean() {
        assert_clean(engine_sweep_with_logs(0xBEEF, 12, 1).unwrap());
    }

    #[test]
    fn small_multilog_sweep_is_clean() {
        assert_clean(engine_sweep_with_logs(0xBEEF, 12, 3).unwrap());
    }

    #[test]
    fn checkpoint_reset_interleaving_is_clean() {
        assert_clean(checkpoint_reset_sweep(7, 3).unwrap());
    }

    #[test]
    fn small_cq_sweep_is_clean() {
        assert_clean(cq_sweep(0xBEEF, 6).unwrap());
    }

    #[test]
    fn small_ivm_sweep_is_clean() {
        assert_clean(ivm_sweep(0xBEEF, 6).unwrap());
    }

    #[test]
    fn seed_sizes_are_deterministic_and_in_range() {
        let all: Vec<Sizes> = (0..512).map(Sizes::of).collect();
        for (seed, z) in (0..).zip(&all) {
            assert_eq!(*z, Sizes::of(seed), "seed {seed}");
        }
        // Each size covers exactly its range, and seeds vary them.
        let span = |f: fn(&Sizes) -> u64| {
            let v = || all.iter().map(f);
            (v().min().unwrap(), v().max().unwrap())
        };
        assert_eq!(span(|z| z.steps as u64), (80, 120));
        assert_eq!(span(|z| z.tuples as u64), (25, 40));
        assert_eq!(span(|z| z.wal_shards as u64), (2, 5));
        assert_eq!(span(|z| z.windows as u64), (8, 12));
        assert_eq!(span(|z| z.kills), (2, 3));
        let distinct: HashSet<String> = all.iter().map(|z| format!("{z:?}")).collect();
        assert!(
            distinct.len() > 400,
            "only {} distinct size sets",
            distinct.len()
        );
    }

    #[test]
    fn failures_print_their_suite_seed_and_op() {
        let f = Failure {
            suite: "cq",
            seed: 7,
            op: Some(3),
            detail: "diverged".into(),
            artifact: None,
        };
        assert_eq!(f.to_string(), "[cq] seed=7 op=3: diverged");
        let f = Failure { op: None, ..f };
        assert_eq!(f.to_string(), "[cq] seed=7: diverged");
    }
}
