//! Crash/recovery integration tests: durable state via WAL, runtime state
//! via Active-Table watermarks (§4), exactly-once window archiving across
//! restarts, and checkpointing.

use std::path::PathBuf;

use streamrel::types::time::{MINUTES, SECONDS};
use streamrel::types::Value;
use streamrel::{Db, DbOptions};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "streamrel-it-durability-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const SETUP: [&str; 6] = [
    "CREATE STREAM s (k varchar(16), ts timestamp CQTIME USER)",
    "CREATE TABLE agg (k varchar(16), c bigint, w timestamp)",
    "CREATE STREAM per_minute AS SELECT k, count(*) c, cq_close(*) w \
     FROM s <TUMBLING '1 minute'> GROUP BY k",
    "CREATE CHANNEL ch FROM per_minute INTO agg APPEND",
    // Raw archive for in-flight window rebuild.
    "CREATE TABLE raw (k varchar(16), ts timestamp)",
    "CREATE CHANNEL raw_ch FROM s INTO raw APPEND",
];

fn setup(db: &Db) {
    for ddl in SETUP {
        db.execute(ddl).unwrap();
    }
}

fn tup(k: &str, ts: i64) -> Vec<Value> {
    vec![Value::text(k), Value::Timestamp(ts)]
}

#[test]
fn windows_archive_exactly_once_across_crashes() {
    let dir = tmpdir("exactly-once");
    {
        let db = Db::open(&dir, DbOptions::default()).unwrap();
        setup(&db);
        // Two complete windows plus a partial third.
        for m in 0..2i64 {
            db.ingest("s", tup("a", m * MINUTES + 1)).unwrap();
            db.ingest("s", tup("a", m * MINUTES + 2)).unwrap();
        }
        db.ingest("s", tup("a", 2 * MINUTES + 1)).unwrap(); // in-flight
        db.heartbeat("s", 2 * MINUTES).unwrap();
        // Crash without shutdown.
    }
    {
        let db = Db::open(&dir, DbOptions::default()).unwrap();
        // The two closed windows are archived exactly once.
        let rel = db
            .execute("SELECT count(*), sum(c) FROM agg")
            .unwrap()
            .rows();
        assert_eq!(rel.rows()[0], vec![Value::Int(2), Value::Int(4)]);
        // Continue: the in-flight tuple came back from the raw archive at
        // open, so window 3 counts it beside the new traffic.
        db.ingest("s", tup("a", 2 * MINUTES + 30_000_000)).unwrap();
        db.heartbeat("s", 3 * MINUTES).unwrap();
        let rel = db.execute("SELECT count(*) FROM agg").unwrap().rows();
        assert_eq!(rel.rows()[0][0], Value::Int(3), "window 3 archived once");
        let rel = db
            .execute(&format!("SELECT c FROM agg WHERE w = {}", 3 * MINUTES))
            .unwrap()
            .rows();
        assert_eq!(rel.rows()[0][0], Value::Int(2), "window 3 is whole");
        // No duplicates for windows 1-2:
        let rel = db
            .execute("SELECT w, count(*) n FROM agg GROUP BY w HAVING count(*) > 1")
            .unwrap()
            .rows();
        assert!(rel.is_empty(), "no window archived twice: {rel}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn in_flight_window_rebuilds_from_raw_archive() {
    // The paper's full §4 story: runtime state (the partial window) is
    // rebuilt from disk — here from the raw Active Table — instead of
    // operator checkpoints.
    let dir = tmpdir("inflight");
    {
        let db = Db::open(&dir, DbOptions::default()).unwrap();
        setup(&db);
        db.ingest("s", tup("a", 1)).unwrap();
        db.ingest("s", tup("a", 2)).unwrap();
        db.heartbeat("s", MINUTES).unwrap(); // window 1 archived
        db.ingest("s", tup("a", MINUTES + 1)).unwrap(); // in-flight
        db.ingest("s", tup("a", MINUTES + 2)).unwrap(); // in-flight
    }
    {
        // Opening rebuilds the partial window from the raw archive: the
        // heartbeat closes window 2 over both in-flight tuples.
        let db = Db::open(&dir, DbOptions::default()).unwrap();
        db.heartbeat("s", 2 * MINUTES).unwrap();
        let rel = db
            .execute(&format!("SELECT c FROM agg WHERE w = {}", 2 * MINUTES))
            .unwrap()
            .rows();
        assert_eq!(rel.len(), 1, "window 2 archived once: {rel}");
        assert_eq!(
            rel.rows()[0][0],
            Value::Int(2),
            "window 2 includes the rebuilt in-flight tuples"
        );
        let rel = db.execute("SELECT count(*) FROM raw").unwrap().rows();
        assert_eq!(rel.rows()[0][0], Value::Int(4), "nothing archived twice");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every Active Table and watermark, rendered in heap order.
fn archives(db: &Db, tables: &[&str]) -> Vec<String> {
    let mut out: Vec<String> = tables
        .iter()
        .map(|t| {
            let rel = db.execute(&format!("SELECT * FROM {t}")).unwrap().rows();
            format!("{t}: {:?}", rel.rows())
        })
        .collect();
    out.push(format!("{:?}", db.engine().catalog_scan("cq_watermark.")));
    out
}

/// A cascade with windows in flight at every level: a tumbling count, a
/// sliding total over it and a sliding count beside it.
const CASCADE: [&str; 6] = [
    "CREATE TABLE cur (k varchar(16), c bigint, w timestamp)",
    "CREATE CHANNEL cur_ch FROM per_minute INTO cur REPLACE",
    "CREATE STREAM rolling AS SELECT sum(c) n, cq_close(*) w3 \
     FROM per_minute <VISIBLE '3 minutes' ADVANCE '1 minute'>",
    "CREATE TABLE roll (n bigint, w3 timestamp)",
    "CREATE CHANNEL roll_ch FROM rolling INTO roll APPEND",
    "CREATE STREAM ranked AS SELECT k, count(*) c, cq_close(*) w \
     FROM s <VISIBLE '2 minutes' ADVANCE '1 minute'> GROUP BY k ORDER BY k",
];

#[test]
fn reopening_without_traffic_writes_nothing() {
    let dir = tmpdir("reopen-idle");
    let tables = ["agg", "raw", "cur", "roll"];
    let before = {
        let db = Db::open(&dir, DbOptions::default()).unwrap();
        setup(&db);
        for ddl in CASCADE {
            db.execute(ddl).unwrap();
        }
        for i in 0..40i64 {
            let k = ["a", "b", "c"][i as usize % 3];
            db.ingest("s", tup(k, i * 13 * 1_000_000)).unwrap();
        }
        archives(&db, &tables)
    };
    for reopen in 0..2 {
        let db = Db::open(&dir, DbOptions::default()).unwrap();
        assert_eq!(archives(&db, &tables), before, "reopen {reopen}");
        let replayed = db.engine().metrics().counter("db.recovery.rows_replayed");
        assert!(replayed.get() > 0, "the in-flight windows were rebuilt");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `late` joins `s` after five minutes of archived history. One crash
/// lands before its first window closes, one after; neither may bring
/// back a window that closed before it existed, and every window that
/// starts after the join matches a run that never crashed.
#[test]
fn a_stream_created_late_rebuilds_only_what_it_saw() {
    const LATE: [&str; 3] = [
        "CREATE STREAM late AS SELECT k, count(*) c, cq_close(*) w \
         FROM s <VISIBLE '2 minutes' ADVANCE '1 minute'> GROUP BY k",
        "CREATE TABLE late_agg (k varchar(16), c bigint, w timestamp)",
        "CREATE CHANNEL late_ch FROM late INTO late_agg APPEND",
    ];
    let sec = 1_000_000i64;
    let history = (0..=15i64).map(|i| tup(["a", "b"][i as usize % 2], i * 20 * sec));
    let joined = 15 * 20 * sec;
    let later = |from: i64, to: i64| {
        (from..to).map(move |i| tup(["a", "b", "c"][i as usize % 3], i * 7 * sec))
    };
    // (tuples up to the crash, tuples after it) in 7-second steps.
    let phases = [(43i64, 44i64), (44, 64), (64, 90)];
    let run = |dir: Option<&PathBuf>| -> Vec<String> {
        let open = || match dir {
            Some(d) => Db::open(d, DbOptions::default()).unwrap(),
            None => Db::in_memory(DbOptions::default()),
        };
        let mut db = open();
        setup(&db);
        for r in history.clone() {
            db.ingest("s", r).unwrap();
        }
        for ddl in LATE {
            db.execute(ddl).unwrap();
        }
        for (i, (from, to)) in phases.iter().enumerate() {
            for r in later(*from, *to) {
                db.ingest("s", r).unwrap();
            }
            if i + 1 < phases.len() && dir.is_some() {
                drop(db);
                db = open();
            }
        }
        db.heartbeat("s", 12 * MINUTES).unwrap();
        let early = db
            .execute(&format!("SELECT * FROM late_agg WHERE w <= {joined}"))
            .unwrap()
            .rows();
        assert!(early.is_empty(), "windows closing before the join: {early}");
        let rel = db
            .execute(&format!(
                "SELECT k, c, w FROM late_agg WHERE w > {} ORDER BY w, k",
                joined + 2 * MINUTES
            ))
            .unwrap()
            .rows();
        rel.rows().iter().map(|r| format!("{r:?}")).collect()
    };
    let dir = tmpdir("late-join");
    let crashed = run(Some(&dir));
    let reference = run(None);
    assert!(
        crashed.len() > 10,
        "only {} windows compared",
        crashed.len()
    );
    assert_eq!(crashed, reference);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Count windows keep no cursor to resume: a ROWS stream over `s` and a
/// SLICES stream over `per_minute` see no replayed row, while the time
/// windows beside them are rebuilt, so no window is archived twice.
#[test]
fn count_windows_archive_no_window_twice_across_a_reopen() {
    const COUNTED: [&str; 8] = [
        "CREATE STREAM rolling AS SELECT sum(c) n, cq_close(*) w3 \
         FROM per_minute <VISIBLE '3 minutes' ADVANCE '1 minute'>",
        "CREATE TABLE roll (n bigint, w3 timestamp)",
        "CREATE CHANNEL roll_ch FROM rolling INTO roll APPEND",
        "CREATE STREAM threes AS SELECT count(*) n, max(ts) t FROM s <VISIBLE 3 ROWS ADVANCE 3 ROWS>",
        "CREATE TABLE three (n bigint, t timestamp)",
        "CREATE CHANNEL three_ch FROM threes INTO three APPEND",
        "CREATE STREAM passed AS SELECT k, c, w FROM per_minute <SLICES 1 WINDOWS>",
        "CREATE TABLE pass (k varchar(16), c bigint, w timestamp)",
    ];
    let dir = tmpdir("count-windows");
    let sec = 1_000_000i64;
    let traffic = |from: i64, to: i64, db: &Db| {
        for i in from..to {
            db.ingest("s", tup(["a", "b"][i as usize % 2], i * 11 * sec))
                .unwrap();
        }
    };
    {
        let db = Db::open(&dir, DbOptions::default()).unwrap();
        setup(&db);
        for ddl in COUNTED {
            db.execute(ddl).unwrap();
        }
        db.execute("CREATE CHANNEL pass_ch FROM passed INTO pass APPEND")
            .unwrap();
        traffic(0, 25, &db);
    }
    let db = Db::open(&dir, DbOptions::default()).unwrap();
    traffic(25, 51, &db);
    db.heartbeat("s", 12 * MINUTES).unwrap();
    let twice = |sql: &str| db.execute(sql).unwrap().rows();
    for sql in [
        "SELECT t, count(*) FROM three GROUP BY t HAVING count(*) > 1",
        "SELECT w, k, count(*) FROM pass GROUP BY w, k HAVING count(*) > 1",
        "SELECT w3, count(*) FROM roll GROUP BY w3 HAVING count(*) > 1",
        "SELECT w, k, count(*) FROM agg GROUP BY w, k HAVING count(*) > 1",
    ] {
        let rel = twice(sql);
        assert!(rel.is_empty(), "{sql}: {rel}");
    }
    let count = |t: &str| twice(&format!("SELECT count(*) FROM {t}")).rows()[0][0].clone();
    assert_eq!(
        count("pass"),
        count("agg"),
        "one SLICES window per upstream window"
    );
    // 25 tuples, a crash, 26 more: 8 + 8 windows, where a run that never
    // crashed closes 51 / 3 = 17 — the ROWS window saw no replayed row.
    assert_eq!(count("three"), Value::Int(16));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Under slack the raw archive holds what the reorder buffer released, so
/// after a reopen a tuple older than the archive's newest is as late as it
/// was before: a feeder that re-sends a tuple the engine dropped as late
/// (the archive lacks it) gets it dropped again, not archived.
#[test]
fn a_late_tuple_stays_late_across_a_reopen() {
    let opts = || DbOptions::default().with_slack(10 * SECONDS);
    let on_time = (0..27i64).map(|i| tup("a", i * 5 * SECONDS));
    let late = tup("b", 50 * SECONDS);
    let run = |dir: Option<&PathBuf>| -> Vec<String> {
        let open = || match dir {
            Some(d) => Db::open(d, opts()).unwrap(),
            None => Db::in_memory(opts()),
        };
        let mut db = open();
        setup(&db);
        for r in on_time.clone() {
            db.ingest("s", r).unwrap();
        }
        db.heartbeat("s", 130 * SECONDS).unwrap();
        db.ingest("s", late.clone()).unwrap();
        assert_eq!(db.stats().late_drops, 1);
        if dir.is_some() {
            drop(db);
            db = open();
            // The archive lacks the late tuple: the feeder sends it again.
            db.ingest("s", late.clone()).unwrap();
            assert_eq!(db.stats().late_drops, 1, "dropped again after the reopen");
        }
        db.heartbeat("s", 4 * MINUTES).unwrap();
        archives(&db, &["agg", "raw"])
    };
    let dir = tmpdir("late-stays-late");
    assert_eq!(run(Some(&dir)), run(None));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_shrinks_recovery_and_preserves_state() {
    let dir = tmpdir("checkpoint");
    {
        let db = Db::open(&dir, DbOptions::default()).unwrap();
        setup(&db);
        for m in 0..5i64 {
            for i in 0..20 {
                db.ingest("s", tup("a", m * MINUTES + i + 1)).unwrap();
            }
        }
        db.heartbeat("s", 5 * MINUTES).unwrap();
        db.engine().checkpoint().unwrap();
        // Post-checkpoint traffic.
        db.ingest("s", tup("a", 5 * MINUTES + 1)).unwrap();
        db.heartbeat("s", 6 * MINUTES).unwrap();
    }
    {
        let db = Db::open(&dir, DbOptions::default()).unwrap();
        let replayed = db.engine().stats().replayed;
        // Only post-checkpoint records replay (6th window: 1 raw insert +
        // watermark puts + agg insert + txn records — well under the 100+
        // from before the checkpoint).
        assert!(replayed < 60, "replayed {replayed} records");
        let rel = db
            .execute("SELECT count(*), sum(c) FROM agg")
            .unwrap()
            .rows();
        assert_eq!(rel.rows()[0], vec![Value::Int(6), Value::Int(101)]);
        let rel = db.execute("SELECT count(*) FROM raw").unwrap().rows();
        assert_eq!(rel.rows()[0][0], Value::Int(101));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// DDL persists the same whether each statement arrives through
/// `execute` or the whole set through one `execute_script` (regression:
/// scripts used to persist nothing, so a reopen lost every object).
#[test]
fn ddl_objects_survive_restart() {
    const EXTRA: [&str; 2] = [
        "CREATE VIEW busy AS SELECT k, c FROM per_minute <SLICES 1 WINDOWS> WHERE c > 1",
        "CREATE INDEX agg_by_k ON agg (k)",
    ];
    for script in [false, true] {
        let dir = tmpdir(if script { "ddl-script" } else { "ddl" });
        {
            let db = Db::open(&dir, DbOptions::default()).unwrap();
            if script {
                let all = [&SETUP[..], &EXTRA[..]].concat().join(";\n");
                assert_eq!(db.execute_script(&all).unwrap().len(), 8);
            } else {
                setup(&db);
                for ddl in EXTRA {
                    db.execute(ddl).unwrap();
                }
            }
        }
        {
            let db = Db::open(&dir, DbOptions::default()).unwrap();
            // All objects usable after restart.
            db.ingest("s", tup("z", 1)).unwrap();
            db.ingest("s", tup("z", 2)).unwrap();
            let sub = db.execute("SELECT * FROM busy").unwrap().subscription();
            db.heartbeat("s", MINUTES).unwrap();
            let outs = db.poll(sub).unwrap();
            assert_eq!(outs.len(), 1, "script={script}");
            assert_eq!(
                outs[0].relation.rows()[0],
                vec![Value::text("z"), Value::Int(2)]
            );
            // Index survived (lookup path).
            let idx = db.engine().index_on("agg", "k");
            assert!(idx.is_some(), "index rebuilt on restart");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Regression: `CREATE TABLE` skipped the stream/view namespace check, so
/// a table could take a stream's name, and the reopen then failed when
/// DDL replay met the table the log had already recovered.
#[test]
fn a_table_cannot_take_a_stream_or_view_name() {
    let dir = tmpdir("table-name");
    {
        let db = Db::open(&dir, DbOptions::default()).unwrap();
        db.execute("CREATE STREAM s (v integer, ts timestamp CQTIME USER)")
            .unwrap();
        db.execute("CREATE VIEW v AS SELECT 1 one").unwrap();
        for name in ["s", "v", "S"] {
            for ddl in ["CREATE TABLE", "CREATE TABLE IF NOT EXISTS"] {
                let err = db
                    .execute(&format!("{ddl} {name} (a integer)"))
                    .unwrap_err();
                assert!(err.to_string().contains("already in use"), "{err}");
            }
        }
        // On an existing table, IF NOT EXISTS is still a no-op.
        db.execute("CREATE TABLE t (a integer)").unwrap();
        db.execute("CREATE TABLE IF NOT EXISTS t (a integer)")
            .unwrap();
        assert!(db.execute("CREATE TABLE t (a integer)").is_err());
    }
    let db = Db::open(&dir, DbOptions::default()).unwrap();
    let names = |show: &str| -> Vec<Value> {
        let rel = db.execute(show).unwrap().rows();
        rel.rows().iter().map(|r| r[0].clone()).collect()
    };
    assert_eq!(names("SHOW STREAMS"), [Value::text("s")]);
    assert_eq!(names("SHOW VIEWS"), [Value::text("v")]);
    assert_eq!(names("SHOW TABLES"), [Value::text("t")]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dropped_objects_stay_dropped_after_restart() {
    let dir = tmpdir("dropped");
    {
        let db = Db::open(&dir, DbOptions::default()).unwrap();
        setup(&db);
        db.execute("DROP CHANNEL ch").unwrap();
        db.execute("DROP STREAM per_minute").unwrap();
    }
    {
        let db = Db::open(&dir, DbOptions::default()).unwrap();
        let e = db.execute("DROP STREAM per_minute").unwrap_err();
        assert!(e.to_string().contains("does not exist"), "{e}");
        // Base stream is still there and usable.
        db.ingest("s", tup("a", 1)).unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replace_channel_resumes_via_kv_watermark() {
    // A REPLACE-mode Active Table holds only the latest window, so the
    // archive itself cannot give a resume point; the per-CQ watermark in
    // the engine catalog (WAL-logged) does.
    let dir = tmpdir("replace-wm");
    {
        let db = Db::open(&dir, DbOptions::default()).unwrap();
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
        for m in 0..3i64 {
            db.ingest(
                "s",
                vec![Value::Int(m + 1), Value::Timestamp(m * MINUTES + 1)],
            )
            .unwrap();
        }
        db.heartbeat("s", 3 * MINUTES).unwrap();
        let rel = db.execute("SELECT total, w FROM latest").unwrap().rows();
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.rows()[0][0], Value::Int(3));
    }
    {
        let db = Db::open(&dir, DbOptions::default()).unwrap();
        // Latest window survived.
        let rel = db.execute("SELECT total FROM latest").unwrap().rows();
        assert_eq!(rel.rows()[0][0], Value::Int(3));
        // The CQ resumed past window 3: new data for window 4 replaces it
        // exactly once, with no re-emission of windows 1-3.
        let before = db.stats().windows_out;
        db.ingest("s", vec![Value::Int(9), Value::Timestamp(3 * MINUTES + 1)])
            .unwrap();
        db.heartbeat("s", 4 * MINUTES).unwrap();
        assert_eq!(db.stats().windows_out - before, 1, "exactly one new window");
        let rel = db.execute("SELECT total, w FROM latest").unwrap().rows();
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.rows()[0][0], Value::Int(9));
        assert_eq!(rel.rows()[0][1], Value::Timestamp(4 * MINUTES));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_sync_modes_all_recover() {
    use streamrel::storage::SyncMode;
    for sync in [SyncMode::NoSync, SyncMode::Flush, SyncMode::Fsync] {
        let dir = tmpdir(&format!("sync-{sync:?}"));
        {
            let db = Db::open(&dir, DbOptions::default().with_sync(sync)).unwrap();
            db.execute("CREATE TABLE t (a integer)").unwrap();
            db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
            // Clean-ish shutdown: checkpoint makes even NoSync durable.
            db.engine().checkpoint().unwrap();
        }
        let db = Db::open(&dir, DbOptions::default()).unwrap();
        let rel = db.execute("SELECT sum(a) FROM t").unwrap().rows();
        assert_eq!(rel.rows()[0][0], Value::Int(3), "{sync:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The `wal-<k>.log` files in `dir`.
fn logs(dir: &std::path::Path) -> usize {
    (0..64)
        .filter(|k| dir.join(format!("wal-{k}.log")).exists())
        .count()
}

#[test]
fn the_log_count_follows_the_shard_count() {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get().clamp(1, 8));
    let cases = [(None, host), (Some(1), 1), (Some(4), 4), (Some(12), 8)];
    for (shards, want) in cases {
        let dir = tmpdir(&format!("logs-{shards:?}"));
        let opts = shards.map_or(DbOptions::default(), |n| {
            DbOptions::default().with_shards(n)
        });
        assert_eq!(opts.resolved_wal_shards(), want, "{shards:?} shards");
        drop(Db::open(&dir, opts).unwrap());
        assert_eq!(logs(&dir), want, "{shards:?} shards open {want} logs");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn per_row_log_records_open_like_their_batched_twin() {
    // The engine writes one `InsertMany` per batch; `Insert`, the batch
    // of one, still replays. Rewrite a batched log record for record with
    // every insert in the per-row form: both directories must recover to
    // the same tables, watermark and resume point.
    use streamrel::storage::wal::{replay_bytes, Wal, WalRecord};
    use streamrel::storage::SyncMode;
    let opts = || DbOptions::default().with_shards(1);
    let (batched, per_row) = (tmpdir("batched"), tmpdir("per-row"));
    {
        let db = Db::open(&batched, opts()).unwrap();
        setup(&db);
        db.execute("CREATE TABLE cur (k varchar(16), c bigint, w timestamp)")
            .unwrap();
        db.execute("CREATE CHANNEL cur_ch FROM per_minute INTO cur REPLACE")
            .unwrap();
        for m in 0..4i64 {
            let rows = ["a", "b", "a"].iter().zip(1..);
            let rows = rows.map(|(k, i)| tup(k, m * MINUTES + i)).collect();
            db.ingest_batch("s", rows).unwrap();
        }
        db.execute("DELETE FROM raw WHERE k = 'b'").unwrap();
    }
    let (records, _) = replay_bytes(&std::fs::read(batched.join("wal-0.log")).unwrap());
    let mut wal = Wal::open(per_row.join("wal-0.log"), SyncMode::Flush).unwrap();
    let (mut lsn, mut batches) = (0, 0);
    let mut append = |rec: WalRecord| {
        lsn += 1;
        wal.append(lsn, &rec).unwrap();
    };
    for (_, rec) in records {
        match rec {
            WalRecord::InsertMany {
                xid,
                table,
                first_slot,
                rows,
            } => {
                batches += 1;
                for (slot, row) in (first_slot..).zip(rows) {
                    append(WalRecord::Insert {
                        xid,
                        table,
                        slot,
                        row,
                    });
                }
            }
            WalRecord::Insert { .. } => panic!("the engine writes only batched inserts"),
            other => append(other),
        }
    }
    drop(wal);
    assert_eq!(
        batches, 10,
        "4 raw batches, 3 windows into each of agg and cur"
    );
    let digest = |dir: &PathBuf| -> Vec<String> {
        let db = Db::open(dir, opts()).unwrap();
        db.ingest("s", tup("a", 4 * MINUTES + 1)).unwrap();
        db.heartbeat("s", 5 * MINUTES).unwrap();
        let tables = ["agg", "cur", "raw"].iter();
        let mut out: Vec<String> = tables
            .map(|t| {
                format!(
                    "{t}: {}",
                    db.execute(&format!("SELECT * FROM {t}")).unwrap().rows()
                )
            })
            .collect();
        out.push(format!("{:?}", db.engine().catalog_scan("cq_watermark.")));
        out
    };
    assert_eq!(digest(&per_row), digest(&batched));
    for dir in [batched, per_row] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---- a channel is typed once, at CREATE CHANNEL ----------------------------

#[test]
fn a_stored_channel_the_typing_rule_refuses_fails_the_open_by_name() {
    // A channel stored before channels were typed at CREATE CHANNEL is held
    // to the rule when it is replayed: a row its table could refuse after
    // the fold would lose that batch's windows.
    use streamrel::storage::{StdIo, StorageEngine, SyncMode};
    let dir = tmpdir("untyped-channel");
    {
        let db = Db::open(&dir, DbOptions::default()).unwrap();
        db.execute("CREATE STREAM s (v float, ts timestamp CQTIME USER)")
            .unwrap();
        db.execute("CREATE TABLE r (v integer, ts timestamp)")
            .unwrap();
        let err = db
            .execute("CREATE CHANNEL old FROM s INTO r APPEND")
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("column `v integer` cannot take stream column `v float`"),
            "{err}"
        );
    }
    {
        // What the catalog holds for a channel stored without the check.
        let e = StorageEngine::open_with_opts(&dir, SyncMode::Flush, StdIo::shared(), 1).unwrap();
        let key = format!("ddl.{:020}", 99);
        e.catalog_put(&key, "CREATE CHANNEL old FROM s INTO r APPEND")
            .unwrap();
        e.catalog_put("ddlref.channel.old", &key).unwrap();
    }
    let err = Db::open(&dir, DbOptions::default())
        .err()
        .unwrap()
        .to_string();
    assert!(
        err.contains("stored channel `old` predates typed channels"),
        "{err}"
    );
    assert!(
        err.contains("`v integer` cannot take stream column `v float`"),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_derived_row_off_its_declared_type_is_refused_before_the_fold() {
    // `coalesce(max(v), 'none')` is typed integer, its first argument's
    // type, yet yields text over a window of NULLs. The derived stream
    // refuses that window before any of its consumers folds it, and its
    // channel's table never sees it.
    let db = Db::in_memory(DbOptions::default());
    for ddl in [
        "CREATE STREAM s (v integer, ts timestamp CQTIME USER)",
        "CREATE STREAM d AS SELECT coalesce(max(v), 'none') m, cq_close(*) t \
         FROM s <TUMBLING '1 minute'>",
        "CREATE TABLE out (m integer, t timestamp)",
        "CREATE CHANNEL out_ch FROM d INTO out APPEND",
        "CREATE STREAM e AS SELECT count(*) c, cq_close(*) t FROM d <TUMBLING '1 minute'>",
    ] {
        db.execute(ddl).unwrap();
    }
    let engine = db.engine();
    let folded = || engine.metrics().counter("ivm.delta.rows").get();
    let at = |v: Value, ts| vec![v, Value::Timestamp(ts)];
    // What one tuple of `s` folds, closing nothing.
    let before = folded();
    db.ingest("s", at(Value::Null, SECONDS)).unwrap();
    let per_tuple = folded() - before;
    // Closes the first minute, all NULLs: `d` refuses its one row.
    let before = folded();
    let err = db
        .ingest("s", at(Value::Int(5), MINUTES + SECONDS))
        .unwrap_err();
    assert!(
        err.to_string().contains("wrong type for column `m`"),
        "{err}"
    );
    assert_eq!(folded() - before, per_tuple, "`d`'s consumers fold nothing");
    // Closes the second minute: max 5 is archived and folded downstream.
    let before = folded();
    db.ingest("s", at(Value::Int(7), 2 * MINUTES + SECONDS))
        .unwrap();
    assert!(
        folded() - before > per_tuple,
        "`d`'s consumers fold its row"
    );
    let out = db.execute("SELECT m FROM out").unwrap().rows();
    assert_eq!(out.rows(), &[vec![Value::Int(5)]]);
}

// ---- the tick's order: fold, then archive, then deliver --------------------

#[test]
fn a_replace_conflict_folds_nothing() {
    // A REPLACE channel's write-write conflict is known before the fold:
    // the refused batch reaches no consumer of its stream.
    let db = Db::in_memory(DbOptions::default());
    db.execute("CREATE STREAM s (k varchar(16), ts timestamp CQTIME USER)")
        .unwrap();
    db.execute("CREATE TABLE cur (k varchar(16), ts timestamp)")
        .unwrap();
    db.execute("CREATE CHANNEL cur_ch FROM s INTO cur REPLACE")
        .unwrap();
    let sub = db
        .execute("SELECT count(*) c FROM s <TUMBLING '1 minute'>")
        .unwrap()
        .subscription();
    db.ingest("s", tup("a", SECONDS)).unwrap();
    // An open transaction holds a delete stamp on `cur`'s live row.
    let engine = db.engine();
    let table = engine.table_id("cur").unwrap();
    let holder = engine.begin().unwrap();
    assert_eq!(engine.delete_all_visible(holder, table).unwrap(), 1);
    let folded = engine.metrics().counter("ivm.delta.rows").get();
    let err = db.ingest("s", tup("b", 2 * SECONDS)).unwrap_err();
    assert!(err.to_string().contains("conflict"), "{err}");
    assert_eq!(
        engine.metrics().counter("ivm.delta.rows").get(),
        folded,
        "a refused batch folds nothing"
    );
    engine.abort(holder).unwrap();
    db.ingest("s", tup("c", MINUTES + SECONDS)).unwrap();
    let counts: Vec<Value> = (db.poll(sub).unwrap().iter())
        .map(|w| w.relation.rows()[0][0].clone())
        .collect();
    assert_eq!(
        counts,
        vec![Value::Int(1)],
        "the first minute holds `a` only"
    );
    let cur = db.execute("SELECT k FROM cur").unwrap().rows();
    assert_eq!(cur.rows(), &[vec![Value::text("c")]]);
}

#[test]
fn a_close_does_not_see_the_channel_rows_of_the_batch_that_closed_it() {
    // A batch is folded before it is archived: the windows it closes read
    // the stream's Active Table as it stood before the batch.
    let db = Db::in_memory(DbOptions::default());
    setup(&db);
    let sub = db
        .execute(
            "SELECT count(*) c FROM s <TUMBLING '1 minute'> h \
             JOIN raw r ON h.k = r.k",
        )
        .unwrap()
        .subscription();
    db.ingest("s", tup("a", SECONDS)).unwrap();
    // Closes the first minute; `raw` then holds both tuples.
    db.ingest("s", tup("a", MINUTES + SECONDS)).unwrap();
    let counts: Vec<Value> = (db.poll(sub).unwrap().iter())
        .map(|w| w.relation.rows()[0][0].clone())
        .collect();
    assert_eq!(
        counts,
        vec![Value::Int(1)],
        "`a` joins the one row archived before"
    );
    let raw = db.execute("SELECT count(*) FROM raw").unwrap().rows();
    assert_eq!(raw.rows()[0][0], Value::Int(2));
}
