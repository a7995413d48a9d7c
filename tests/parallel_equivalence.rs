//! Property: the sharded, pooled execution core is observationally
//! identical to serial single-lock execution. For random workloads with
//! concurrent `ingest_batch` calls across ≥3 streams, every subscription
//! receives a byte-identical window sequence (per-CQ, ordered by close
//! timestamp) to the one produced by applying the same per-stream batch
//! sequences on a single-shard, inline-evaluation database.
//!
//! Shards only ever remove *cross-stream* serialization; each CQ is
//! rooted at one stream — directly, or through the derived stream it
//! reads, whose batches take the same pooled path in the same shard — so
//! its output is a function of that stream's tuple order alone, which both
//! runs preserve exactly. Within one stream, each slice store advances as a
//! pool job of its own; results come back in store order, so one stream's
//! many stores are as serial as its one ingester.

use proptest::prelude::*;
use proptest::test_runner::Config;
use streamrel::net::wire;
use streamrel::types::Value;
use streamrel::{Db, DbOptions, SubscriptionId};
use streamrel_bench::race::many_stores_run;

const STREAMS: usize = 3;

/// One stream's workload: ordered batches of (value, clock-gap) pairs.
type StreamBatches = Vec<Vec<(i64, i64)>>;

fn setup(db: &Db) -> Vec<SubscriptionId> {
    let mut subs = Vec::new();
    for i in 0..STREAMS {
        db.execute(&format!(
            "CREATE STREAM s{i} (v integer, ts timestamp CQTIME USER)"
        ))
        .unwrap();
        // Two CQs per stream: a tumbling count and a sliding aggregate
        // (the second pair is shareable, so the shared path is covered).
        subs.push(
            db.execute(&format!(
                "SELECT count(*) c, cq_close(*) w FROM s{i} <TUMBLING '1 minute'>"
            ))
            .unwrap()
            .subscription(),
        );
        subs.push(
            db.execute(&format!(
                "SELECT sum(v) t, min(v) lo FROM s{i} \
                 <VISIBLE '2 minutes' ADVANCE '1 minute'>"
            ))
            .unwrap()
            .subscription(),
        );
        // A cascade: a derived stream and two CQs over it — a maintained
        // aggregate and a re-evaluated plan — so each of its batches
        // stages more than one window for the pool.
        db.execute(&format!(
            "CREATE STREAM d{i} AS SELECT sum(v) t, count(*) c, cq_close(*) w \
             FROM s{i} <TUMBLING '1 minute'>"
        ))
        .unwrap();
        // Beside them, the count windows, each a store of its own on an
        // ordinal clock: ROWS over `s`, ROWS over `n` — the same rows on a
        // stream with no CQTIME — and SLICES 3 over the derived stream.
        db.execute(&format!("CREATE STREAM n{i} (v integer, ts timestamp)"))
            .unwrap();
        for cq in [
            "SELECT sum(t) tt, max(c) hi FROM {d} <VISIBLE '3 minutes' ADVANCE '1 minute'>",
            "SELECT t, c, w FROM {d} <VISIBLE '2 minutes' ADVANCE '1 minute'> WHERE c > 0",
            "SELECT sum(v) t, count(*) c, cq_close(*) w FROM {s} <VISIBLE 5 ROWS ADVANCE 2 ROWS>",
            "SELECT v, ts, cq_close(*) w FROM {n} <VISIBLE 4 ROWS ADVANCE 3 ROWS>",
            "SELECT sum(t) tt, max(w) hi FROM {d} <SLICES 3 WINDOWS>",
        ] {
            let cq = (cq.replace("{d}", &format!("d{i}")))
                .replace("{s}", &format!("s{i}"))
                .replace("{n}", &format!("n{i}"));
            subs.push(db.execute(&cq).unwrap().subscription());
        }
    }
    subs
}

/// One batch into stream `i`: its CQTIME stream `s`, then `n`, which
/// has no CQTIME.
fn ingest(db: &Db, i: usize, rows: Vec<Vec<Value>>) {
    db.ingest_batch(&format!("s{i}"), rows.clone()).unwrap();
    db.ingest_batch(&format!("n{i}"), rows).unwrap();
}

/// Turn gap-encoded batches into absolute-timestamp rows.
fn materialize(batches: &StreamBatches) -> Vec<Vec<Vec<Value>>> {
    let mut clock = 0i64;
    batches
        .iter()
        .map(|batch| {
            batch
                .iter()
                .map(|&(v, gap)| {
                    clock += gap;
                    vec![Value::Int(v), Value::Timestamp(clock)]
                })
                .collect()
        })
        .collect()
}

/// Canonical bytes for one subscription's output: every window's close
/// time plus its codec-encoded relation. "Byte-identical" means equal.
fn drain_canonical(db: &Db, subs: &[SubscriptionId]) -> Vec<Vec<(i64, Vec<u8>)>> {
    subs.iter()
        .map(|&sub| {
            db.poll(sub)
                .unwrap()
                .into_iter()
                .map(|o| (o.close, wire::encode_rows(&o.relation)))
                .collect()
        })
        .collect()
}

/// The reference: one shard, no worker pool, batches applied serially.
fn serial_run(workload: &[StreamBatches]) -> Vec<Vec<(i64, Vec<u8>)>> {
    let db = Db::in_memory(DbOptions::default().with_shards(1).with_pool_workers(0));
    let subs = setup(&db);
    for (i, batches) in workload.iter().enumerate() {
        for rows in materialize(batches) {
            ingest(&db, i, rows);
        }
    }
    for i in 0..STREAMS {
        db.heartbeat(&format!("s{i}"), 3_600_000_000).unwrap();
    }
    drain_canonical(&db, &subs)
}

/// The system under test: default sharding (one per stream) and worker
/// pool, with one concurrent ingester thread per stream.
fn concurrent_run(workload: &[StreamBatches]) -> Vec<Vec<(i64, Vec<u8>)>> {
    let db = Db::in_memory(DbOptions::default());
    let subs = setup(&db);
    std::thread::scope(|s| {
        for (i, batches) in workload.iter().enumerate() {
            let db = &db;
            s.spawn(move || {
                for rows in materialize(batches) {
                    ingest(db, i, rows);
                }
            });
        }
    });
    for i in 0..STREAMS {
        db.heartbeat(&format!("s{i}"), 3_600_000_000).unwrap();
    }
    drain_canonical(&db, &subs)
}

proptest! {
    #![proptest_config(Config::with_cases(16))]
    #[test]
    fn concurrent_sharded_equals_serial(
        workload in prop::collection::vec(
            prop::collection::vec(
                prop::collection::vec((0i64..100, 0i64..40_000_000), 1..8),
                1..6,
            ),
            STREAMS,
        ),
    ) {
        let reference = serial_run(&workload);
        let parallel = concurrent_run(&workload);
        prop_assert_eq!(&parallel, &reference);
        // Within each subscription, closes arrive ordered.
        for sub in &parallel {
            for pair in sub.windows(2) {
                prop_assert!(pair[0].0 <= pair[1].0, "closes out of order");
            }
        }
    }
}

/// The `embedded_sliding` shapes on one stream — nine slice stores, each a
/// pool job of its own at every batch, and a ROWS window — deliver the same
/// bytes with the default pool, with none and on one shard.
#[test]
fn many_stores_on_one_stream_equal_serial() {
    let reference = many_stores_run(DbOptions::default().with_pool_workers(0));
    assert!(reference.iter().all(|windows| !windows.is_empty()));
    assert_eq!(many_stores_run(DbOptions::default()), reference);
    assert_eq!(
        many_stores_run(DbOptions::default().with_shards(1)),
        reference
    );
}
