//! ingest_parallel — *durable* aggregate ingest throughput under the
//! sharded execution core + per-shard WAL vs the seed's single-lock,
//! single-log baseline.
//!
//! Four base streams are fed by four concurrent ingester threads for a
//! fixed wall-clock window. Three streams carry a cheap tumbling count;
//! the fourth carries a deliberately expensive CQ (a grouped sliding
//! window that re-scans a large buffer on every close). Every stream
//! also archives its raw tuples through an APPEND channel, so each
//! ingest batch commits through the WAL — this is the path that
//! regressed when the sharded core (PR 4) funneled every shard's commit
//! through one `Mutex<Wal>`. The sharded configuration routes each
//! shard to its own `wal-<k>.log` commit domain with group commit
//! (DESIGN.md §13); the baseline pins one shard and one log.
//!
//! The run records the measurement to `BENCH_ingest_parallel.json` and
//! fails (non-zero exit, for the CI smoke job) if the sharded
//! configuration does not reach `MIN_SPEEDUP` over the baseline. The
//! floor is only enforced when the host actually has `STREAMS` cores:
//! on fewer cores the total CPU budget is fixed, so no lock or log
//! layout can multiply aggregate throughput. A skipped floor is recorded
//! honestly: the JSON carries `"skipped": true` plus the reason, so a
//! dashboard can never mistake a too-small host for a pass.
//!
//! A second, single-threaded section ([`active_table_steady`]) records
//! the *shape* of Active Table maintenance — what a REPLACE commit scans
//! early and late in a long run with no `VACUUM`, and what the table
//! still holds at the end — which `scripts/bench_check.sh` gates exactly:
//! refreshing the table costs the delta, not the history.

#![deny(unsafe_code)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use streamrel_bench::ResultTable;
use streamrel_core::{Db, DbOptions};
use streamrel_storage::SyncMode;
use streamrel_types::Value;

/// Streams, ingester threads, and shards in the sharded configuration.
const STREAMS: usize = 4;
/// Measured ingest window per configuration.
const RUN: Duration = Duration::from_millis(2_500);
/// CI acceptance floor for sharded-vs-baseline aggregate throughput.
const MIN_SPEEDUP: f64 = 1.5;
/// Rows per `ingest_batch` call on the fast streams.
const FAST_BATCH: usize = 256;
/// Rows per `ingest_batch` call on the slow stream. Small on purpose:
/// each batch advances logical time enough to close several windows.
const SLOW_BATCH: usize = 48;

fn setup(db: &Db) {
    for i in 0..STREAMS - 1 {
        db.execute(&format!(
            "CREATE STREAM s{i} (v integer, ts timestamp CQTIME USER)"
        ))
        .unwrap();
        db.execute(&format!(
            "SELECT count(*) c, cq_close(*) w FROM s{i} <TUMBLING '1 minute'>"
        ))
        .unwrap();
        // Raw archive: every ingested batch commits through the WAL.
        db.execute(&format!("CREATE TABLE raw{i} (v integer, ts timestamp)"))
            .unwrap();
        db.execute(&format!(
            "CREATE CHANNEL ch{i} FROM s{i} INTO raw{i} APPEND"
        ))
        .unwrap();
    }
    // The slow stream: every 5-second advance re-scans a 10-minute
    // buffer, grouped and sorted — a stand-in for an expensive report.
    db.execute("CREATE STREAM slow (k varchar(8), ts timestamp CQTIME USER)")
        .unwrap();
    db.execute(
        "SELECT k, count(*) c FROM slow \
         <VISIBLE '10 minutes' ADVANCE '5 seconds'> \
         GROUP BY k ORDER BY c DESC, k",
    )
    .unwrap();
    db.execute("CREATE TABLE rawslow (k varchar(8), ts timestamp)")
        .unwrap();
    db.execute("CREATE CHANNEL chslow FROM slow INTO rawslow APPEND")
        .unwrap();
}

/// Feed all four streams concurrently for `RUN` against a durable
/// database in a scratch directory; return aggregate rows/s.
fn run(tag: &str, opts: DbOptions) -> f64 {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "streamrel-ingest-parallel-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Db::open(&dir, opts).unwrap();
    setup(&db);
    let total = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for i in 0..STREAMS - 1 {
            let (db, total) = (&db, &total);
            s.spawn(move || {
                let stream = format!("s{i}");
                let mut clock = 0i64;
                while start.elapsed() < RUN {
                    let rows: Vec<Vec<Value>> = (0..FAST_BATCH)
                        .map(|_| {
                            clock += 1_000_000;
                            vec![Value::Int(clock / 1_000_000), Value::Timestamp(clock)]
                        })
                        .collect();
                    db.ingest_batch(&stream, rows).unwrap();
                    total.fetch_add(FAST_BATCH as u64, Ordering::SeqCst);
                }
            });
        }
        let (db, total) = (&db, &total);
        s.spawn(move || {
            let mut clock = 0i64;
            while start.elapsed() < RUN {
                let rows: Vec<Vec<Value>> = (0..SLOW_BATCH)
                    .map(|n| {
                        clock += 1_000_000;
                        vec![Value::text(format!("k{}", n % 7)), Value::Timestamp(clock)]
                    })
                    .collect();
                db.ingest_batch("slow", rows).unwrap();
                total.fetch_add(SLOW_BATCH as u64, Ordering::SeqCst);
            }
        });
    });
    let tps = total.load(Ordering::SeqCst) as f64 / start.elapsed().as_secs_f64();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    tps
}

/// One stream, a per-second count over 100 groups, an APPEND and a
/// REPLACE Active Table, 20 000 windows, no `VACUUM`. Returns the versions
/// the REPLACE commit visited at windows 100 and 20 000 (counts that
/// repeat exactly on any host) and the versions its table holds at the end.
fn active_table_steady() -> ([u64; 2], usize) {
    const WINDOWS: i64 = 20_000;
    const GROUPS: i64 = 100;
    let db = Db::in_memory(DbOptions::default());
    for ddl in [
        "CREATE STREAM clicks (k integer, ts timestamp CQTIME USER)",
        "CREATE STREAM per_second AS SELECT k, count(*) c, cq_close(*) w \
         FROM clicks <TUMBLING '1 second'> GROUP BY k",
        "CREATE TABLE archive (k integer, c bigint, w timestamp)",
        "CREATE CHANNEL archive_ch FROM per_second INTO archive APPEND",
        "CREATE TABLE current (k integer, c bigint, w timestamp)",
        "CREATE CHANNEL current_ch FROM per_second INTO current REPLACE",
    ] {
        db.execute(ddl).unwrap();
    }
    let scanned = db
        .engine()
        .metrics()
        .counter("storage.replace.versions_scanned");
    let mut at = [0; 2];
    // The batch of second `w` closes window `w`.
    for w in 0..=WINDOWS {
        let before = scanned.get();
        let rows = (0..GROUPS).map(|k| vec![Value::Int(k), Value::Timestamp(w * 1_000_000 + k)]);
        db.ingest_batch("clicks", rows.collect()).unwrap();
        match w {
            100 => at[0] = scanned.get() - before,
            WINDOWS => at[1] = scanned.get() - before,
            _ => {}
        }
    }
    let held = db.engine().table("current").unwrap().heap.version_count();
    (at, held)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "ingest_parallel: sharded core + per-shard WAL vs \
         single-lock, single-log baseline (durable, Fsync)\n"
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let baseline = run(
        "baseline",
        DbOptions::default()
            .with_sync(SyncMode::Fsync)
            .with_shards(1)
            .with_wal_shards(1)
            .with_pool_workers(0),
    );
    let sharded = run(
        "sharded",
        DbOptions::default()
            .with_sync(SyncMode::Fsync)
            .with_shards(STREAMS)
            .with_wal_shards(STREAMS),
    );
    let speedup = sharded / baseline;
    let skipped = cores < STREAMS;
    let skip_reason = if skipped {
        format!(
            "host has {cores} core(s); the {MIN_SPEEDUP}x floor needs \
             {STREAMS} — aggregate throughput cannot scale past the CPU budget"
        )
    } else {
        String::new()
    };

    let mut table = ResultTable::new(&["configuration", "aggregate rows/s"]);
    table.row(&[
        "1 shard, 1 wal log, inline eval".into(),
        format!("{baseline:.0}"),
    ]);
    table.row(&[
        format!("{STREAMS} shards, {STREAMS} wal logs, worker pool"),
        format!("{sharded:.0}"),
    ]);
    table.print();
    println!(
        "\n{STREAMS} streams / {STREAMS} ingesters on {cores} core(s): \
         {speedup:.2}x aggregate durable throughput"
    );

    let ([scanned_100, scanned_20000], held) = active_table_steady();
    println!(
        "\nactive_table_steady: a REPLACE commit visits {scanned_100} versions at \
         window 100 and {scanned_20000} at window 20000; the table ends holding {held}"
    );

    let json = format!(
        "{{\n  \"streams\": {STREAMS},\n  \"shards\": {STREAMS},\n  \
         \"wal_shards\": {STREAMS},\n  \"durable\": true,\n  \
         \"cores\": {cores},\n  \"baseline_tps\": {baseline:.1},\n  \
         \"sharded_tps\": {sharded:.1},\n  \"speedup\": {speedup:.3},\n  \
         \"skipped\": {skipped},\n  \"skip_reason\": \"{skip_reason}\",\n  \
         \"replace_scanned_per_window\": {{\"100\": {scanned_100}, \"20000\": {scanned_20000}}},\n  \
         \"replace_heap_versions_end\": {held}\n}}\n"
    );
    std::fs::write("BENCH_ingest_parallel.json", json)?;
    println!("recorded BENCH_ingest_parallel.json");

    if skipped {
        println!("SKIP: {skip_reason}");
        return Ok(());
    }
    if speedup < MIN_SPEEDUP {
        eprintln!("FAIL: speedup {speedup:.2}x below the {MIN_SPEEDUP}x floor");
        std::process::exit(1);
    }
    println!("PASS: speedup {speedup:.2}x >= {MIN_SPEEDUP}x");
    Ok(())
}
