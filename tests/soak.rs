//! Soak test: a full pipeline under sustained mixed load — ingest,
//! cascaded derived streams, both channel modes, dimension updates,
//! ad-hoc snapshot queries, vacuum, and (durable variant) checkpointing —
//! with global invariants checked at every phase boundary; and a REPLACE
//! table left to reclaim itself for 20 000 windows.

use streamrel::types::time::MINUTES;
use streamrel::types::Value;
use streamrel::{Db, DbOptions};

fn build_pipeline(db: &Db) {
    db.execute("CREATE STREAM clicks (url varchar(64), ts timestamp CQTIME USER)")
        .unwrap();
    db.execute("CREATE TABLE categories (url varchar(64), cat varchar(16))")
        .unwrap();
    for i in 0..8 {
        db.execute(&format!(
            "INSERT INTO categories VALUES ('/p{i}', 'cat{}')",
            i % 3
        ))
        .unwrap();
    }
    // Level 1: per-minute per-URL counts, enriched with category.
    db.execute(
        "CREATE STREAM by_url AS \
         SELECT c.url, min(d.cat) cat, count(*) hits, cq_close(*) w \
         FROM clicks <TUMBLING '1 minute'> c \
         JOIN categories d ON c.url = d.url GROUP BY c.url",
    )
    .unwrap();
    // Level 2: rolling 3-minute totals per category over level 1.
    db.execute(
        "CREATE STREAM by_cat AS \
         SELECT cat, sum(hits) hits, cq_close(*) w3 \
         FROM by_url <VISIBLE '3 minutes' ADVANCE '1 minute'> GROUP BY cat",
    )
    .unwrap();
    db.execute(
        "CREATE TABLE url_hist (url varchar(64), cat varchar(16), hits bigint, w timestamp)",
    )
    .unwrap();
    db.execute("CREATE CHANNEL c1 FROM by_url INTO url_hist APPEND")
        .unwrap();
    db.execute("CREATE TABLE cat_latest (cat varchar(16), hits bigint, w3 timestamp)")
        .unwrap();
    db.execute("CREATE CHANNEL c2 FROM by_cat INTO cat_latest REPLACE")
        .unwrap();
}

fn drive(db: &Db, minutes_start: i64, minutes_end: i64) {
    for m in minutes_start..minutes_end {
        let rows: Vec<Vec<Value>> = (0..120)
            .map(|i| {
                vec![
                    Value::text(format!("/p{}", (m + i) % 8)),
                    Value::Timestamp(m * MINUTES + i * 400_000 + 1),
                ]
            })
            .collect();
        db.ingest_batch("clicks", rows).unwrap();
        // Mid-stream dimension churn.
        if m % 3 == 2 {
            db.execute(&format!("DELETE FROM categories WHERE url = '/p{}'", m % 8))
                .unwrap();
            db.execute(&format!(
                "INSERT INTO categories VALUES ('/p{}', 'cat{}')",
                m % 8,
                m % 3
            ))
            .unwrap();
        }
        // Ad-hoc snapshot query interleaved.
        db.execute("SELECT count(*) FROM url_hist").unwrap();
    }
    db.heartbeat("clicks", minutes_end * MINUTES).unwrap();
}

fn check_invariants(db: &Db, minutes: i64) {
    // Every ingested click that matched a category landed in exactly one
    // url_hist window row-sum.
    let total = db
        .execute("SELECT coalesce(sum(hits), 0) FROM url_hist")
        .unwrap()
        .rows();
    assert_eq!(
        total.rows()[0][0],
        Value::Int(minutes * 120),
        "all clicks accounted once"
    );
    // No window/url pair archived twice.
    let dup = db
        .execute("SELECT w, url, count(*) FROM url_hist GROUP BY w, url HAVING count(*) > 1")
        .unwrap()
        .rows();
    assert!(dup.is_empty());
    // The REPLACE table holds exactly the distinct categories of one close.
    let latest = db
        .execute("SELECT count(distinct w3), count(*) FROM cat_latest")
        .unwrap()
        .rows();
    assert_eq!(latest.rows()[0][0], Value::Int(1), "one window only");
    // Level-2 totals cover the last 3 minutes of level-1 data.
    let lvl2 = db
        .execute("SELECT sum(hits) FROM cat_latest")
        .unwrap()
        .rows();
    let expect = 120 * minutes.min(3);
    assert_eq!(lvl2.rows()[0][0], Value::Int(expect));
}

#[test]
fn soak_in_memory() {
    let db = Db::in_memory(DbOptions::default());
    build_pipeline(&db);
    drive(&db, 0, 10);
    check_invariants(&db, 10);
    let reclaimed = db.engine().vacuum();
    // Dimension churn leaves dead versions (the REPLACE channel reclaims
    // its own at each commit).
    assert!(reclaimed > 0, "vacuum reclaimed {reclaimed}");
    check_invariants(&db, 10);
    // Keep going after vacuum.
    drive(&db, 10, 15);
    check_invariants(&db, 15);
}

/// Reclamation needs nobody: 20 000 REPLACE windows with no `VACUUM`
/// leave the Active Table holding its live generation, and the transaction
/// status map its in-flight entries, whatever the window count.
#[test]
fn replace_table_stays_bounded_without_vacuum() {
    const GROUPS: i64 = 5;
    let db = Db::in_memory(DbOptions::default());
    db.execute("CREATE STREAM s (k integer, ts timestamp CQTIME USER)")
        .unwrap();
    db.execute(
        "CREATE STREAM per_second AS SELECT k, count(*) c, cq_close(*) w \
                FROM s <TUMBLING '1 second'> GROUP BY k",
    )
    .unwrap();
    db.execute("CREATE TABLE cur (k integer, c bigint, w timestamp)")
        .unwrap();
    db.execute("CREATE CHANNEL cur_ch FROM per_second INTO cur REPLACE")
        .unwrap();
    let heap = &db.engine().table("cur").unwrap().heap;
    for sec in 0..20_000i64 {
        let rows = (0..GROUPS).map(|k| vec![Value::Int(k), Value::Timestamp(sec * 1_000_000 + k)]);
        db.ingest_batch("s", rows.collect()).unwrap();
        if sec % 500 == 499 {
            // A reader pins a generation across a few commits now and then.
            let pinned = db.engine().snapshot();
            assert!(heap.version_count() as i64 <= 3 * GROUPS, "window {sec}");
            assert!(db.engine().txns().status_len() <= 2, "window {sec}");
            drop(pinned);
        }
    }
    let cur = db
        .execute("SELECT count(*), min(w) FROM cur")
        .unwrap()
        .rows();
    let last_close = Value::Timestamp(19_999 * 1_000_000);
    assert_eq!(cur.rows()[0], vec![Value::Int(GROUPS), last_close]);
    assert_eq!(heap.version_count() as i64, GROUPS, "one generation");
}

#[test]
fn soak_durable_with_restarts_and_checkpoints() {
    let dir = std::env::temp_dir().join(format!("streamrel-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let db = Db::open(&dir, DbOptions::default()).unwrap();
        build_pipeline(&db);
        drive(&db, 0, 5);
        check_invariants(&db, 5);
        db.execute("CHECKPOINT").unwrap();
    }
    {
        let db = Db::open(&dir, DbOptions::default()).unwrap();
        check_invariants(&db, 5);
        drive(&db, 5, 9);
        check_invariants(&db, 9);
        // Crash without checkpoint.
    }
    {
        let db = Db::open(&dir, DbOptions::default()).unwrap();
        check_invariants(&db, 9);
        drive(&db, 9, 12);
        check_invariants(&db, 12);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Federation soak: a bridge under sustained load stays healthy — the
/// link never drops (`fed.reconnects == 0`), every window is applied,
/// and the lag gauge settles back to zero once the producer quiesces.
#[test]
fn soak_federated_bridge() {
    use std::sync::Arc;
    use std::time::Duration;

    use streamrel::net::{Bridge, BridgeOptions, Server};

    const MINUTES_DRIVEN: i64 = 30;

    let producer = Arc::new(Db::in_memory(DbOptions::default()));
    producer
        .execute("CREATE STREAM clicks (url varchar(64), ts timestamp CQTIME USER)")
        .unwrap();
    producer
        .execute(
            "CREATE STREAM by_url AS SELECT url, count(*) hits, cq_close(*) w \
             FROM clicks <TUMBLING '1 minute'> GROUP BY url ORDER BY url",
        )
        .unwrap();
    let server = Server::serve(producer.clone(), "127.0.0.1:0").unwrap();

    let consumer = Arc::new(Db::in_memory(DbOptions::default()));
    consumer
        .execute("CREATE STREAM partials (url varchar(64), hits integer, w timestamp CQTIME USER)")
        .unwrap();
    consumer
        .execute("CREATE TABLE url_total (url varchar(64), hits bigint, w2 timestamp)")
        .unwrap();
    consumer
        .execute(
            "CREATE STREAM rollup AS SELECT url, sum(hits) hits, cq_close(*) w2 \
             FROM partials <TUMBLING '2 minutes'> GROUP BY url ORDER BY url",
        )
        .unwrap();
    consumer
        .execute("CREATE CHANNEL cagg FROM rollup INTO url_total APPEND")
        .unwrap();

    let bridge = Bridge::start(
        consumer.clone(),
        server.local_addr().to_string(),
        "by_url",
        "partials",
        BridgeOptions::default(),
    )
    .unwrap();
    assert!(bridge.wait_until_up(Duration::from_secs(10)));

    // Sustained minute-by-minute load, heartbeat advancing each round so
    // windows stream out continuously instead of in one terminal burst.
    for m in 0..MINUTES_DRIVEN {
        let rows: Vec<Vec<Value>> = (0..60)
            .map(|i| {
                vec![
                    Value::text(format!("/p{}", (m + i) % 8)),
                    Value::Timestamp(m * MINUTES + i * 900_000 + 1),
                ]
            })
            .collect();
        producer.ingest_batch("clicks", rows).unwrap();
        producer.heartbeat("clicks", (m + 1) * MINUTES).unwrap();
    }
    // Flush: two empty producer windows carry the watermark past the
    // consumer's last (2-minute) rollup boundary so it closes too.
    producer
        .heartbeat("clicks", (MINUTES_DRIVEN + 2) * MINUTES)
        .unwrap();

    // Every producer window crosses the bridge: one per minute driven
    // plus the two empty flush windows.
    assert!(
        bridge.wait_for_windows(MINUTES_DRIVEN as u64 + 2, Duration::from_secs(30)),
        "only {} of {} windows applied",
        bridge.windows_applied(),
        MINUTES_DRIVEN + 2
    );

    // Healthy-link invariants: no drops, no failed applies, lag settled.
    assert!(bridge.is_up());
    assert_eq!(bridge.reconnects(), 0, "link dropped under soak load");
    assert_eq!(bridge.apply_errors(), 0);
    let lag_settled = |db: &Db| {
        db.metrics_relation()
            .rows()
            .iter()
            .find(|r| r[0] == Value::text("fed.lag"))
            .map(|r| r[2] == Value::Int(0))
            .unwrap_or(true)
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !lag_settled(&consumer) {
        assert!(
            std::time::Instant::now() < deadline,
            "fed.lag never settled"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // End-to-end conservation: every click is in exactly one rollup row.
    // Rollup windows close every 2 minutes; the last one closed covers
    // through the final heartbeat, so all clicks are archived.
    let total = consumer
        .execute("SELECT coalesce(sum(hits), 0) FROM url_total")
        .unwrap()
        .rows();
    assert_eq!(
        total.rows()[0][0],
        Value::Int(MINUTES_DRIVEN * 60),
        "clicks lost or duplicated across the bridge"
    );

    bridge.shutdown();
    server.shutdown();
}
