//! Concurrency: the Db is a shared-memory object — writers ingest and
//! update dimension tables while readers run snapshot queries, exactly
//! the mixed workload §2.3 promises ("a side benefit: real-time
//! processing for applications equipped to take advantage of it").

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use streamrel::types::Value;
use streamrel::{Db, DbOptions};

#[test]
fn concurrent_ingest_and_snapshot_queries() {
    let db = Arc::new(Db::in_memory(DbOptions::default()));
    db.execute("CREATE STREAM s (k varchar(8), ts timestamp CQTIME USER)")
        .unwrap();
    db.execute("CREATE TABLE agg (k varchar(8), c bigint, w timestamp)")
        .unwrap();
    db.execute(
        "CREATE STREAM per AS SELECT k, count(*) c, cq_close(*) w \
         FROM s <TUMBLING '1 second'> GROUP BY k",
    )
    .unwrap();
    db.execute("CREATE CHANNEL ch FROM per INTO agg APPEND")
        .unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let n_tuples = 20_000i64;

    std::thread::scope(|scope| {
        // One writer drives the stream (streams are single-writer by
        // design: CQTIME order is per-stream).
        let w_db = db.clone();
        let w_stop = stop.clone();
        scope.spawn(move || {
            for i in 0..n_tuples {
                w_db.ingest(
                    "s",
                    vec![
                        Value::text(format!("k{}", i % 5)),
                        Value::Timestamp(i * 1_000),
                    ],
                )
                .unwrap();
            }
            w_db.heartbeat("s", n_tuples * 1_000 + 1_000_000).unwrap();
            w_stop.store(true, Ordering::SeqCst);
        });

        // Readers hammer snapshot queries the whole time.
        for _ in 0..3 {
            let r_db = db.clone();
            let r_stop = stop.clone();
            scope.spawn(move || {
                let mut last_total = 0i64;
                while !r_stop.load(Ordering::SeqCst) {
                    let rel = r_db
                        .execute("SELECT coalesce(sum(c), 0) FROM agg")
                        .unwrap()
                        .rows();
                    let total = rel.rows()[0][0].as_int().unwrap();
                    // Monotone: committed window results never regress.
                    assert!(total >= last_total, "{total} < {last_total}");
                    last_total = total;
                }
            });
        }

        // A fourth thread updates an unrelated table concurrently.
        let t_db = db.clone();
        let t_stop = stop.clone();
        scope.spawn(move || {
            t_db.execute("CREATE TABLE scratch (x integer)").unwrap();
            let mut i = 0;
            while !t_stop.load(Ordering::SeqCst) {
                t_db.execute(&format!("INSERT INTO scratch VALUES ({i})"))
                    .unwrap();
                i += 1;
            }
        });
    });

    // All tuples accounted for exactly once.
    let rel = db.execute("SELECT sum(c) FROM agg").unwrap().rows();
    assert_eq!(rel.rows()[0][0], Value::Int(n_tuples));
}

#[test]
fn concurrent_subscribers_see_identical_streams() {
    let db = Arc::new(Db::in_memory(DbOptions::default()));
    db.execute("CREATE STREAM s (v integer, ts timestamp CQTIME USER)")
        .unwrap();
    let subs: Vec<_> = (0..4)
        .map(|_| {
            db.execute("SELECT sum(v) t FROM s <TUMBLING '1 second'>")
                .unwrap()
                .subscription()
        })
        .collect();
    for i in 0..5_000i64 {
        db.ingest("s", vec![Value::Int(1), Value::Timestamp(i * 1_000)])
            .unwrap();
    }
    db.heartbeat("s", 5_000_000).unwrap();
    // Poll from different threads; all must see the same window sequence.
    let results: Vec<Vec<(i64, i64)>> = std::thread::scope(|scope| {
        subs.iter()
            .map(|sub| {
                let db = db.clone();
                let sub = *sub;
                scope.spawn(move || {
                    db.poll(sub)
                        .unwrap()
                        .into_iter()
                        .map(|o| (o.close, o.relation.rows()[0][0].as_int().unwrap()))
                        .collect::<Vec<_>>()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    for r in &results[1..] {
        assert_eq!(r, &results[0]);
    }
    assert_eq!(results[0].len(), 5);
    assert_eq!(results[0][0].1, 1000);
}

/// Conservation through a failing cascade: every window a subscription's
/// CQ closed was polled from its queue or shed by it — `sent + shed + lost
/// == closed` with nothing lost — although a CQ over the derived stream
/// fails at every close, while one thread ingests and another polls.
/// (A cascade's error used to abandon the windows queued behind it.)
#[test]
fn a_failing_cascade_conserves_every_subscriptions_windows() {
    let db = Db::in_memory(DbOptions::default().with_sub_queue(8));
    db.execute("CREATE STREAM s (v integer, ts timestamp CQTIME USER)")
        .unwrap();
    db.execute("CREATE STREAM d1 AS SELECT count(*) c, cq_close(*) w FROM s <TUMBLING '1 second'>")
        .unwrap();
    let subscribe = |cq: &str| db.execute(cq).unwrap().subscription();
    // Both healthy CQs close one window per window of `d1`. `parked`
    // reads `d1` ahead of the doomed CQ and is never drained: it sheds
    // past its eight slots. `polled` reads `s` and is registered last, so
    // its window is evaluated with `d1`'s and still queued behind it when
    // the cascade fails; it is drained as it fills.
    let parked = subscribe("SELECT c FROM d1 <SLICES 1 WINDOWS>");
    let doomed = subscribe("SELECT 1 / (c - c) r FROM d1 <SLICES 1 WINDOWS>");
    let polled = subscribe("SELECT count(*) c FROM s <TUMBLING '1 second'>");

    let done = AtomicBool::new(false);
    let sent = std::thread::scope(|scope| {
        let poller = scope.spawn(|| {
            let mut closes = Vec::new();
            while !done.load(Ordering::SeqCst) {
                closes.extend(db.poll(polled).unwrap().iter().map(|o| o.close));
                std::thread::yield_now();
            }
            closes.extend(db.poll(polled).unwrap().iter().map(|o| o.close));
            closes
        });
        // 100 tuples per second of event time; the ones that close a
        // window of `d1` surface the doomed CQ's error.
        for i in 0..3_000i64 {
            if let Err(e) = db.ingest("s", vec![Value::Int(1), Value::Timestamp(i * 10_000)]) {
                assert!(e.to_string().contains("division by zero"), "{e}");
            }
        }
        db.heartbeat("s", 30_000_000).unwrap_err();
        done.store(true, Ordering::SeqCst);
        poller.join().unwrap()
    });

    let closed = db.derived_cq_stats("d1").unwrap().windows_out;
    assert_eq!(closed, 30);
    // `parked` kept its newest eight; whether the poller kept up with
    // `polled` is the scheduler's business — what it missed was shed, in
    // order, and counted.
    let kept = db.poll(parked).unwrap().len() as u64;
    assert_eq!(kept, 8);
    assert!(sent.windows(2).all(|w| w[0] < w[1]), "{sent:?}");
    assert_eq!(sent.last(), Some(&30_000_000));
    let shed = db.stats().sub_drops;
    assert!(shed >= closed - kept, "parked shed {shed}");
    assert_eq!(sent.len() as u64 + kept + shed, 2 * closed, "sent + shed");
    assert!(db.poll(doomed).unwrap().is_empty());
    // Engine-wide: `d1`'s windows fed its stream, the rest reached a queue.
    assert_eq!(db.stats().windows_out, 3 * closed);
}

/// Store membership churns under ingest: while one thread feeds the
/// stream, another keeps subscribing and unsubscribing CQs of one shape —
/// a window the live pooled store's grid takes (joins it) and one it
/// cannot (gets a private store). Stores live in the stream's shard, so
/// every join, fold, close and leave serialises on that one lock; the lock
/// witness checks the order of every acquisition on the way.
#[test]
fn store_membership_churns_under_ingest() {
    const ROUNDS: usize = 40;
    const SHAPE: &str = "SELECT k, count(*) c FROM s";
    let db = Arc::new(Db::in_memory(DbOptions::default()));
    db.execute("CREATE STREAM s (k varchar(8), ts timestamp CQTIME USER)")
        .unwrap();
    let subscribe = |visible: i64, advance: i64| {
        let window = format!("<VISIBLE '{visible} seconds' ADVANCE '{advance} seconds'>");
        db.execute(&format!("{SHAPE} {window} GROUP BY k"))
            .unwrap()
            .subscription()
    };
    // 100 tuples per second of event time.
    let tuple = |i: i64| {
        vec![
            Value::text(format!("k{}", i % 3)),
            Value::Timestamp(i * 10_000),
        ]
    };
    let assert_contiguous = |sub, advance: i64, what: &str| {
        let closes: Vec<i64> = db.poll(sub).unwrap().iter().map(|o| o.close).collect();
        assert!(!closes.is_empty(), "{what}: no window closed");
        assert_eq!(closes[0] % (advance * 1_000_000), 0, "{what}: off its grid");
        for pair in closes.windows(2) {
            assert_eq!(pair[1] - pair[0], advance * 1_000_000, "{what}: {closes:?}");
        }
    };

    // The pooled store's grid is fixed at 2 s once data has flowed.
    let base = subscribe(4, 2);
    db.ingest("s", tuple(0)).unwrap();
    let churned = AtomicBool::new(false);
    /// Stops the ingester however the main thread leaves the scope — a
    /// failed assertion included — so a panic fails the test, not hangs it.
    struct Churned<'a>(&'a AtomicBool);
    impl Drop for Churned<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }
    let (ingested, last_round) = std::thread::scope(|scope| {
        let ingester = scope.spawn(|| {
            let mut i = 1;
            while !churned.load(Ordering::SeqCst) {
                db.ingest("s", tuple(i)).unwrap();
                i += 1;
            }
            i
        });
        let done = Churned(&churned);
        let mut round = (subscribe(8, 4), subscribe(3, 1));
        for _ in 1..ROUNDS {
            // Leave only after the ingester has closed a window on each
            // (or has ended: its join below reports why).
            for sub in [round.0, round.1] {
                while db.poll(sub).unwrap().is_empty() && !ingester.is_finished() {
                    std::thread::yield_now();
                }
                db.unsubscribe(sub).unwrap();
            }
            round = (subscribe(8, 4), subscribe(3, 1));
        }
        drop(done);
        (ingester.join().unwrap(), round)
    });

    // Quiescence: the survivors are `base` and the last round — one
    // pooled store with two members, one private store — and each further
    // tuple folds once per store.
    let metrics = db.engine().metrics();
    let folded = metrics.counter("ivm.delta.rows").get();
    for i in ingested..ingested + 1_000 {
        db.ingest("s", tuple(i)).unwrap();
    }
    assert_eq!(metrics.counter("ivm.delta.rows").get() - folded, 2 * 1_000);
    assert_contiguous(base, 2, "base");
    assert_contiguous(last_round.0, 4, "pooled late joiner");
    assert_contiguous(last_round.1, 1, "private store");

    for sub in [base, last_round.0, last_round.1] {
        assert!(metrics.gauge("ivm.state.bytes").get() > 0);
        db.unsubscribe(sub).unwrap();
    }
    assert_eq!(metrics.gauge("ivm.state.bytes").get(), 0);
}

const READER_QUERIES: [&str; 2] = [
    "SELECT a.url, b.scnt FROM urls_current a JOIN urls_current b ON a.url = b.url",
    "SELECT url, scnt FROM urls_current ORDER BY scnt DESC, url LIMIT 10",
];

fn replace_db() -> Db {
    let db = Db::in_memory(DbOptions::default());
    for ddl in [
        "CREATE STREAM clicks (url varchar(16), ts timestamp CQTIME USER)",
        "CREATE STREAM urls_now AS SELECT url, count(*) scnt, cq_close(*) stime \
         FROM clicks <TUMBLING '1 second'> GROUP BY url",
        "CREATE TABLE urls_current (url varchar(16), scnt bigint, stime timestamp)",
        "CREATE CHANNEL current_chan FROM urls_now INTO urls_current REPLACE",
    ] {
        db.execute(ddl).unwrap();
    }
    db
}

/// Second `w`'s clicks: 12 urls whose counts differ from window to window,
/// so every generation's query results are distinct.
fn clicks_of(w: i64) -> Vec<Vec<Value>> {
    let per_url = |u: i64| (0..1 + (w + u) % 3).map(move |i| (u, i));
    (0..12)
        .flat_map(per_url)
        .map(|(u, i)| {
            let ts = w * 1_000_000 + u * 10 + i;
            vec![Value::text(format!("/u{u}")), Value::Timestamp(ts)]
        })
        .collect()
}

fn query_text(db: &Db, sql: &str) -> String {
    format!("{:?}", db.execute(sql).unwrap().rows().rows())
}

/// A writer closes `windows` REPLACE windows, issuing `VACUUM` every 50,
/// while a reader runs [`READER_QUERIES`] (the first a self-join: two scans
/// under one pin). Window consistency (§4): every result equals what the
/// serial run returned after some window — never a mix of two generations,
/// and never empty once a generation was seen.
fn replace_readers(windows: i64) {
    let reference: Vec<HashSet<String>> = {
        let db = replace_db();
        let mut seen = vec![HashSet::new(); READER_QUERIES.len()];
        for w in 0..windows {
            db.ingest_batch("clicks", clicks_of(w)).unwrap();
            for (q, seen) in READER_QUERIES.iter().zip(&mut seen) {
                seen.insert(query_text(&db, q));
            }
        }
        seen
    };
    let db = replace_db();
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut nonempty = [false; READER_QUERIES.len()];
            // One more round after the writer finished: the last
            // generation is read at least once.
            let mut last_round = false;
            while !last_round {
                last_round = done.load(Ordering::SeqCst);
                for (i, q) in READER_QUERIES.iter().enumerate() {
                    let got = query_text(&db, q);
                    assert!(
                        reference[i].contains(&got),
                        "query #{i}: no whole generation: {got}"
                    );
                    assert!(
                        got != "[]" || !nonempty[i],
                        "query #{i} empty after a generation"
                    );
                    nonempty[i] |= got != "[]";
                }
            }
            assert_eq!(nonempty, [true; 2], "the reader saw a generation");
        });
        for w in 0..windows {
            db.ingest_batch("clicks", clicks_of(w)).unwrap();
            if w % 50 == 49 {
                db.execute("VACUUM").unwrap();
            }
        }
        done.store(true, Ordering::SeqCst);
        reader.join().expect("reader thread");
    });
}

/// Reader/writer equivalence over 2 000 REPLACE windows. (At the parent
/// commit a `VACUUM` could take the generation a pinned snapshot still
/// saw; `StorageEngine`'s `vacuum_keeps_what_a_pinned_snapshot_sees` is
/// the deterministic regression, this is the concurrent one.)
#[test]
fn replace_table_readers_see_whole_generations() {
    replace_readers(2_000);
}

/// The same under the `torture` runner's chaos schedule at its PR-lane seeds,
/// with the lock witness validating every named-lock acquisition.
#[test]
fn replace_table_readers_see_whole_generations_under_chaos() {
    let mut points = 0;
    for seed in 42..46 {
        streamrel_faults::chaos::arm(seed);
        let run = std::panic::catch_unwind(|| replace_readers(200));
        streamrel_faults::chaos::disarm();
        points += streamrel_faults::chaos::ops();
        assert!(run.is_ok(), "seed {seed}: diverged under chaos");
    }
    assert!(points > 0, "chaos injector never fired");
}
