//! Federation bench: what does shipping derived streams between nodes
//! cost, and how fast does archive replay refill a rejoining consumer?
//!
//! Two measurements over a real TCP link (server + bridge in one
//! process, so the numbers are wire + reactor + bridge costs, not
//! scheduler noise):
//!
//! * **live fan-in** — a producer node streams 200 × `SCALE` windows of
//!   100 rows through a derived CQ; a consumer node bridges the
//!   partials into a local stream and re-aggregates. Reported as
//!   windows/s and rows/s end-to-end (ingest → remote window → bridge
//!   apply → local window close).
//! * **archive replay** — a late subscriber asks `SubscribeFrom{close=0}`
//!   for the entire archived history of the same stream and drains it.
//!   This is the recovery path a rejoining node exercises, so its
//!   throughput bounds how fast a consumer catches up after an outage.
//!
//! Writes `BENCH_federation.json`. Structural floors (windows delivered,
//! zero reconnects, zero apply errors) fail the run; timing numbers are
//! recorded for the bench-regression gate's tolerance bands.

#![deny(unsafe_code)]

use std::sync::Arc;
use std::time::Duration;

use streamrel_bench::federation::{CONSUMER_STREAM, PRODUCER_DDL};
use streamrel_bench::{fmt_dur, scale, timed, ResultTable};
use streamrel_core::{Db, DbOptions};
use streamrel_net::{Bridge, BridgeOptions, Client, Server};
use streamrel_types::time::MINUTES;
use streamrel_types::Value;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let windows = 200 * scale() as i64;
    let rows_per_window = 100i64;
    println!(
        "fed_bench: {windows} windows x {rows_per_window} rows across a \
         subscription->ingest bridge\n"
    );

    let producer = Arc::new(Db::in_memory(DbOptions::default()));
    for stmt in PRODUCER_DDL {
        producer.execute(stmt)?;
    }
    let server = Server::serve(producer.clone(), "127.0.0.1:0")?;

    let consumer = Arc::new(Db::in_memory(DbOptions::default()));
    consumer.execute(CONSUMER_STREAM)?;
    consumer.execute("CREATE TABLE url_total (url varchar(100), hits bigint, w timestamp)")?;
    consumer.execute(
        "CREATE STREAM rollup AS SELECT url, sum(scnt) hits, cq_close(*) w \
         FROM partials <TUMBLING '1 minute'> GROUP BY url ORDER BY url",
    )?;
    consumer.execute("CREATE CHANNEL ct FROM rollup INTO url_total APPEND")?;

    let bridge = Bridge::start(
        consumer.clone(),
        server.local_addr().to_string(),
        "hit_partials",
        "partials",
        BridgeOptions::default(),
    )?;
    assert!(
        bridge.wait_until_up(Duration::from_secs(10)),
        "bridge never attached"
    );

    // ---- live fan-in ----
    let total_rows = windows * rows_per_window;
    let (_, live_t) = timed(|| {
        for w in 0..windows {
            let rows: Vec<Vec<Value>> = (0..rows_per_window)
                .map(|i| {
                    vec![
                        Value::text(format!("/p{}", i % 13)),
                        Value::Timestamp(w * MINUTES + i * (MINUTES / rows_per_window)),
                    ]
                })
                .collect();
            producer.ingest_batch("hits", rows).unwrap();
            producer.heartbeat("hits", (w + 1) * MINUTES).unwrap();
        }
        // +1 empty flush window carries the final watermark across.
        producer.heartbeat("hits", (windows + 1) * MINUTES).unwrap();
        assert!(
            bridge.wait_for_windows(windows as u64 + 1, Duration::from_secs(120)),
            "bridge applied only {} of {} windows",
            bridge.windows_applied(),
            windows + 1
        );
    });
    assert_eq!(bridge.reconnects(), 0, "link dropped during bench");
    assert_eq!(bridge.apply_errors(), 0);
    // Conservation end to end: every produced row is in the consumer's
    // archive exactly once.
    let archived = consumer
        .execute("SELECT coalesce(sum(hits), 0) FROM url_total")?
        .rows();
    assert_eq!(
        archived.rows()[0][0],
        Value::Int(total_rows),
        "rows lost or duplicated across the bridge"
    );

    // ---- archive replay (a rejoining consumer catching up) ----
    let replay_client = Client::connect(server.local_addr())?;
    let ((replayed_windows, replayed_rows), replay_t) = timed(|| {
        let stream = replay_client.subscribe_from("hit_partials", 0).unwrap();
        let mut wins = 0u64;
        let mut rows = 0u64;
        while wins < windows as u64 {
            let out = stream
                .next_timeout(Duration::from_secs(30))
                .expect("replay stalled");
            wins += 1;
            rows += out.relation.len() as u64;
        }
        (wins, rows)
    });
    assert_eq!(replayed_windows, windows as u64);

    let live_wps = windows as f64 / live_t.as_secs_f64().max(1e-9);
    let live_rps = total_rows as f64 / live_t.as_secs_f64().max(1e-9);
    let replay_wps = replayed_windows as f64 / replay_t.as_secs_f64().max(1e-9);
    let replay_rps = replayed_rows as f64 / replay_t.as_secs_f64().max(1e-9);
    let mut table = ResultTable::new(&["phase", "windows", "rows", "time", "windows/s", "rows/s"]);
    table.row(&[
        "live fan-in".into(),
        windows.to_string(),
        total_rows.to_string(),
        fmt_dur(live_t),
        format!("{live_wps:.0}"),
        format!("{live_rps:.0}"),
    ]);
    table.row(&[
        "archive replay".into(),
        replayed_windows.to_string(),
        replayed_rows.to_string(),
        fmt_dur(replay_t),
        format!("{replay_wps:.0}"),
        format!("{replay_rps:.0}"),
    ]);
    table.print();

    let json = format!(
        "{{\n  \"windows\": {windows},\n  \"rows_per_window\": {rows_per_window},\n  \
         \"live_windows_per_s\": {live_wps:.1},\n  \"live_rows_per_s\": {live_rps:.1},\n  \
         \"replay_windows_per_s\": {replay_wps:.1},\n  \"replay_rows_per_s\": {replay_rps:.1},\n  \
         \"reconnects\": {},\n  \"apply_errors\": {},\n  \"rows_conserved\": true\n}}\n",
        bridge.reconnects(),
        bridge.apply_errors(),
    );
    std::fs::write("BENCH_federation.json", json)?;
    println!("\nrecorded BENCH_federation.json");

    replay_client.close()?;
    bridge.shutdown();
    server.shutdown();
    Ok(())
}
