//! Cross-node federation equivalence.
//!
//! Three claims, each proven byte-for-byte against a same-shape embedded
//! reference (the pipeline shape matters: base-vs-derived streams differ
//! in window boundary inclusivity, so the reference runs the *identical*
//! producer → partials → merged-CQ chain, just without sockets):
//!
//! 1. A bridged derived stream is a transparent source: node B's merged
//!    windows are byte-identical to the embedded run, and B's windows
//!    close with **zero local ingest** (watermarks ride the bridge).
//! 2. Hash-partitioning a stream over two serving nodes and merging the
//!    per-partition partials through [`UnionIngest`] yields output
//!    byte-identical to the unpartitioned single-node reference.
//! 3. Killing the serving node's listener mid-stream loses nothing: the
//!    bridge reconnects with backoff, resumes via `SubscribeFrom` from
//!    the last applied close, and the server replays the gap from its
//!    Active-Table archive.

use std::sync::Arc;
use std::time::{Duration, Instant};

use streamrel::cq::Partitioner;
use streamrel::net::{wire, Bridge, BridgeOptions, Server, UnionIngest};
use streamrel::types::{Relation, Row, Value};
use streamrel::{Db, DbOptions, ExecResult, SubscriptionId};

const MIN_US: i64 = 60_000_000; // one minute, in µs

/// The serving (producer) node: a raw hit stream, a per-minute per-url
/// count CQ, and an Active-Table archive of its windows (the replay
/// source for `SubscribeFrom`).
const PRODUCER_DDL: &[&str] = &[
    "CREATE STREAM hits (url varchar(100), htime timestamp CQTIME USER)",
    "CREATE TABLE hit_archive (url varchar(100), scnt integer, stime timestamp)",
    "CREATE STREAM hit_partials AS SELECT url, count(*) scnt, cq_close(*) stime \
     FROM hits <TUMBLING '1 minute'> GROUP BY url ORDER BY url",
    "CREATE CHANNEL hit_chan FROM hit_partials INTO hit_archive APPEND",
];

/// The consuming node: remote partials land in a local base stream; a
/// local CQ merges them. ORDER BY makes the merged output order a pure
/// function of the window contents (not of partial arrival order).
const CONSUMER_STREAM: &str =
    "CREATE STREAM partials (url varchar(100), scnt integer, stime timestamp CQTIME USER)";
const MERGED_CQ: &str = "SELECT url, sum(scnt) total, cq_close(*) w \
     FROM partials <TUMBLING '1 minute'> GROUP BY url ORDER BY url";

/// Rows for one producer window: 10 hits covering 5 urls, timestamps
/// inside `[w min, w+1 min)`. Every url appears in every window, so
/// every partition of a url-partitioned split has data in every window.
fn feed(w: i64) -> Vec<Row> {
    (0..10)
        .map(|i| {
            vec![
                Value::text(format!("/p{}", i % 5)),
                Value::Timestamp(w * MIN_US + i * 1_000_000),
            ]
        })
        .collect()
}

/// Canonical bytes for one window result (close + codec-encoded rows);
/// "byte-identical" means these compare equal.
fn canonical(close: i64, relation: &Relation) -> (i64, Vec<u8>) {
    (close, wire::encode_rows(relation))
}

fn apply_ddl(db: &Db, stmts: &[&str]) {
    for stmt in stmts {
        db.execute(stmt).unwrap();
    }
}

fn subscribe(db: &Db, sql: &str) -> SubscriptionId {
    match db.execute(sql).unwrap() {
        ExecResult::Subscribed(s) => s,
        other => panic!("expected subscription from {sql}, got {other:?}"),
    }
}

fn metric(db: &Db, name: &str) -> i64 {
    db.metrics_relation()
        .rows()
        .iter()
        .find(|r| r[0] == Value::text(name))
        .map(|r| match &r[2] {
            Value::Int(v) => *v,
            other => panic!("metric {name} has non-int value {other:?}"),
        })
        .unwrap_or(0)
}

/// Drain the embedded merged subscription until `n` windows arrived or
/// the deadline passed (the bridge applies asynchronously).
fn drain_merged(db: &Db, sub: SubscriptionId, n: usize, timeout: Duration) -> Vec<(i64, Vec<u8>)> {
    let deadline = Instant::now() + timeout;
    let mut got = Vec::new();
    loop {
        for out in db.poll(sub).unwrap() {
            got.push(canonical(out.close, &out.relation));
        }
        if got.len() >= n || Instant::now() >= deadline {
            return got;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The embedded reference: the same producer → partials → merged-CQ
/// pipeline in one process, windows applied in producer order exactly
/// like the bridge does (ingest rows, heartbeat the close).
fn embedded_reference(windows: &[i64], flush_hb: i64) -> Vec<(i64, Vec<u8>)> {
    let producer = Db::in_memory(DbOptions::default());
    apply_ddl(&producer, PRODUCER_DDL);
    let partials = producer.subscribe_stream("hit_partials").unwrap();

    let consumer = Db::in_memory(DbOptions::default());
    apply_ddl(&consumer, &[CONSUMER_STREAM]);
    let merged = subscribe(&consumer, MERGED_CQ);

    for &w in windows {
        producer.ingest_batch("hits", feed(w)).unwrap();
    }
    producer.heartbeat("hits", flush_hb).unwrap();
    for out in producer.poll(partials).unwrap() {
        if !out.relation.rows().is_empty() {
            consumer
                .ingest_batch("partials", out.relation.rows().to_vec())
                .unwrap();
        }
        consumer.heartbeat("partials", out.close).unwrap();
    }
    let outs = consumer.poll(merged).unwrap();
    outs.iter()
        .map(|o| canonical(o.close, &o.relation))
        .collect()
}

/// Fast-retry bridge options so reconnect tests stay quick.
fn test_bridge_opts() -> BridgeOptions {
    BridgeOptions {
        backoff_initial: Duration::from_millis(20),
        backoff_max: Duration::from_millis(200),
    }
}

#[test]
fn bridged_stream_is_byte_identical_to_embedded() {
    // Four data windows plus one heartbeat-only (empty) window: the
    // flush heartbeat at 5min closes [4min,5min) with nothing in it,
    // which is exactly what carries the watermark that lets the
    // consumer's last merged window close.
    let reference = embedded_reference(&[0, 1, 2, 3], 5 * MIN_US);
    assert_eq!(
        reference.len(),
        4,
        "expected merged windows at closes 2..=5 min, got {:?}",
        reference.iter().map(|(c, _)| c).collect::<Vec<_>>()
    );

    let producer = Arc::new(Db::in_memory(DbOptions::default()));
    apply_ddl(&producer, PRODUCER_DDL);
    let server = Server::serve(producer.clone(), "127.0.0.1:0").unwrap();

    let consumer = Arc::new(Db::in_memory(DbOptions::default()));
    apply_ddl(&consumer, &[CONSUMER_STREAM]);
    let merged = subscribe(&consumer, MERGED_CQ);

    let bridge = Bridge::start(
        consumer.clone(),
        server.local_addr().to_string(),
        "hit_partials",
        "partials",
        test_bridge_opts(),
    )
    .unwrap();
    assert!(bridge.wait_until_up(Duration::from_secs(10)));

    for w in 0..4 {
        producer.ingest_batch("hits", feed(w)).unwrap();
    }
    producer.heartbeat("hits", 5 * MIN_US).unwrap();

    // 4 data windows + the trailing empty one all cross the bridge.
    assert!(
        bridge.wait_for_windows(5, Duration::from_secs(10)),
        "bridge applied only {} windows",
        bridge.windows_applied()
    );
    let got = drain_merged(&consumer, merged, reference.len(), Duration::from_secs(10));
    assert_eq!(got, reference);

    // Healthy link: never dropped, never failed to apply, still up.
    assert_eq!(bridge.reconnects(), 0);
    assert_eq!(bridge.apply_errors(), 0);
    assert!(bridge.is_up());
    assert_eq!(metric(&consumer, "fed.links"), 1);
    assert_eq!(metric(&consumer, "fed.link_up"), 1);
    assert_eq!(metric(&consumer, "fed.reconnects"), 0);
    assert_eq!(metric(&consumer, "fed.windows_in"), 5);
    // Live-only first subscription: nothing was replayed server-side.
    assert_eq!(metric(&producer, "fed.resubscribes"), 0);

    bridge.shutdown();
    assert_eq!(metric(&consumer, "fed.links"), 0);
    assert_eq!(metric(&consumer, "fed.link_up"), 0);
    server.shutdown();
}

#[test]
fn partitioned_two_nodes_merge_byte_identical_to_single_node() {
    let reference = embedded_reference(&[0, 1, 2, 3], 5 * MIN_US);

    // Two serving nodes, each running the same CQ over its partition.
    let nodes: Vec<Arc<Db>> = (0..2)
        .map(|_| {
            let db = Arc::new(Db::in_memory(DbOptions::default()));
            apply_ddl(&db, PRODUCER_DDL);
            db
        })
        .collect();
    let servers: Vec<Server> = nodes
        .iter()
        .map(|db| Server::serve(db.clone(), "127.0.0.1:0").unwrap())
        .collect();

    let consumer = Arc::new(Db::in_memory(DbOptions::default()));
    apply_ddl(&consumer, &[CONSUMER_STREAM]);
    let merged = subscribe(&consumer, MERGED_CQ);

    // One shared union merges the two partition bridges.
    let union = UnionIngest::new(2);
    let bridges: Vec<Bridge> = servers
        .iter()
        .enumerate()
        .map(|(p, server)| {
            Bridge::start_partition(
                consumer.clone(),
                server.local_addr().to_string(),
                "hit_partials",
                "partials",
                union.clone(),
                p,
                test_bridge_opts(),
            )
            .unwrap()
        })
        .collect();
    for bridge in &bridges {
        assert!(bridge.wait_until_up(Duration::from_secs(10)));
    }

    // Partition the identical feed by url across the two nodes.
    let partitioner = Partitioner::new(0, 2).unwrap();
    for w in 0..4 {
        let splits = partitioner.split(feed(w)).unwrap();
        for (node, rows) in nodes.iter().zip(splits) {
            assert!(!rows.is_empty(), "feed leaves a partition empty");
            node.ingest_batch("hits", rows).unwrap();
        }
    }
    // Every partition must see the flush watermark, or the union frontier
    // (min over partitions) never reaches the final close.
    for node in &nodes {
        node.heartbeat("hits", 5 * MIN_US).unwrap();
    }

    for bridge in &bridges {
        assert!(
            bridge.wait_for_windows(5, Duration::from_secs(10)),
            "partition bridge applied only {} windows",
            bridge.windows_applied()
        );
    }
    let got = drain_merged(&consumer, merged, reference.len(), Duration::from_secs(10));
    assert_eq!(
        got, reference,
        "partitioned merge diverged from single-node reference"
    );

    for bridge in bridges {
        assert_eq!(bridge.reconnects(), 0);
        assert_eq!(bridge.apply_errors(), 0);
        bridge.shutdown();
    }
    for server in servers {
        server.shutdown();
    }
}

#[test]
fn bridge_resumes_from_archive_after_server_restart() {
    let reference = embedded_reference(&[0, 1, 2, 3], 5 * MIN_US);

    let producer = Arc::new(Db::in_memory(DbOptions::default()));
    apply_ddl(&producer, PRODUCER_DDL);
    let server = Server::serve(producer.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let consumer = Arc::new(Db::in_memory(DbOptions::default()));
    apply_ddl(&consumer, &[CONSUMER_STREAM]);
    let merged = subscribe(&consumer, MERGED_CQ);
    let bridge = Bridge::start(
        consumer.clone(),
        addr.to_string(),
        "hit_partials",
        "partials",
        test_bridge_opts(),
    )
    .unwrap();
    assert!(bridge.wait_until_up(Duration::from_secs(10)));

    // Phase 1: two windows flow live.
    for w in 0..2 {
        producer.ingest_batch("hits", feed(w)).unwrap();
    }
    producer.heartbeat("hits", 2 * MIN_US).unwrap();
    assert!(bridge.wait_for_windows(2, Duration::from_secs(10)));
    assert_eq!(bridge.last_applied(), Some(2 * MIN_US));

    // Phase 2: the listener dies. The producer keeps ingesting and
    // archiving while the link is down — these windows reach no
    // subscriber and exist only in the Active Table.
    server.shutdown();
    let deadline = Instant::now() + Duration::from_secs(10);
    while bridge.is_up() {
        assert!(Instant::now() < deadline, "bridge never noticed the drop");
        std::thread::sleep(Duration::from_millis(10));
    }
    for w in 2..4 {
        producer.ingest_batch("hits", feed(w)).unwrap();
    }
    producer.heartbeat("hits", 4 * MIN_US).unwrap();

    // Phase 3: restart the listener on the same port and same Db. The
    // bridge reconnects, resumes from close=2min, and the server replays
    // the two archived gap windows.
    let server = {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match Server::serve(producer.clone(), addr) {
                Ok(s) => break s,
                Err(e) => {
                    assert!(Instant::now() < deadline, "rebind {addr} failed: {e}");
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
    };
    assert!(
        bridge.wait_for_windows(4, Duration::from_secs(10)),
        "gap windows not replayed: {} applied",
        bridge.windows_applied()
    );
    assert_eq!(bridge.last_applied(), Some(4 * MIN_US));
    assert_eq!(bridge.reconnects(), 1);
    assert_eq!(metric(&producer, "fed.resubscribes"), 1);
    assert_eq!(metric(&producer, "fed.replayed_windows"), 2);
    assert!(metric(&producer, "fed.replayed_rows") > 0);

    // Phase 4: the link is live again; the flush heartbeat's empty
    // window crosses it and the merged output converges byte-for-byte
    // with the uncrashed reference.
    producer.heartbeat("hits", 5 * MIN_US).unwrap();
    assert!(bridge.wait_for_windows(5, Duration::from_secs(10)));
    let got = drain_merged(&consumer, merged, reference.len(), Duration::from_secs(10));
    assert_eq!(
        got, reference,
        "post-recovery output diverged from uncrashed reference"
    );
    assert_eq!(bridge.apply_errors(), 0);

    bridge.shutdown();
    server.shutdown();
}
