//! The torture runner's `race` suite: seeded chaos scheduling over the
//! engine's concurrency invariants (DESIGN.md §14).
//!
//! Each sub-suite runs a **fixed** deterministic workload twice: once
//! serially with no perturbation to produce a canonical reference, then
//! concurrently with [`streamrel_faults::chaos`] armed under the sweep
//! seed and the runtime lock witness validating every named-lock
//! acquisition against the generated global order. The contract is
//! byte-identical: for every seed the concurrent run's observable
//! results must equal the reference exactly — any divergence is a real
//! ordering bug, reported as a [`Failure`] whose seed reproduces it. So
//! is a sub-suite the injector never fired in: it proved nothing.
//!
//! * [`parallel_equivalence`] — concurrent sharded ingest across three
//!   streams vs the single-shard inline-evaluation baseline; every
//!   subscription's window sequence must match byte for byte.
//! * [`many_stores_equivalence`] — the `embedded_sliding` shapes on one
//!   stream, whose nine slice stores advance as pool jobs under the shard
//!   lock, vs the same stream with no pool.
//! * [`group_commit_conservation`] — four writer threads ingest through
//!   the sharded WAL's group-commit path into archived Active Tables;
//!   every tuple must be counted exactly once, both live and after a
//!   simulated restart from the disk image.
//! * [`subscription_conservation`] — four subscribers drain one CQ from
//!   their own threads while the writer is still ingesting; each must
//!   observe the identical, complete, close-ordered window sequence.
//!   Meanwhile two threads seat and unseat members of those
//!   subscriptions, and one member is never read: every member's windows
//!   closed since it joined are delivered, shed or queued, exactly.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use streamrel_core::{Db, DbOptions, Queued, SubscriptionId};
use streamrel_faults::{chaos, FaultIo, FaultPlan};
use streamrel_types::Value;

use crate::torture::{Failure, Outcome};

/// Simulated data directory for the durable suite.
const SIM_DIR: &str = "/sim/race";

/// One race sub-suite: a name and a chaos-perturbed invariant check.
type SubSuite = (&'static str, fn() -> Result<(), String>);

/// Run every sub-suite under `seed`; the outcome's points are the
/// synchronization points perturbed. The lock witness is enabled for the
/// duration, so a lock-order inversion or deadlock panics inside the
/// sub-suite and is reported as a failure rather than aborting the sweep.
pub fn run_seed(seed: u64) -> Outcome {
    let mut outcome = Outcome::default();
    let was_enabled = parking_lot::witness::enabled();
    parking_lot::witness::enable();
    let suites: [SubSuite; 4] = [
        ("parallel-equivalence", parallel_equivalence),
        ("many-stores-equivalence", many_stores_equivalence),
        ("group-commit-conservation", group_commit_conservation),
        ("subscription-conservation", subscription_conservation),
    ];
    for (name, suite) in suites {
        chaos::arm(seed);
        let run = std::panic::catch_unwind(suite);
        chaos::disarm();
        outcome.points += chaos::ops();
        let detail = match run {
            Ok(Ok(())) if chaos::ops() > 0 => continue,
            Ok(Ok(())) => "the chaos injector never fired".to_string(),
            Ok(Err(detail)) => detail,
            Err(panic) => format!("panic: {}", panic_message(&panic)),
        };
        outcome.failures.push(Failure {
            suite: "race",
            seed,
            op: None,
            detail: format!("{name}: {detail}"),
            artifact: None,
        });
    }
    if !was_enabled {
        parking_lot::witness::disable();
    }
    outcome
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// ---- suite 1: parallel equivalence -----------------------------------------

const STREAMS: usize = 3;

/// The fixed workload: per stream, batches of (value, clock-gap) rows.
/// Derived from splitmix64 so every run — reference and perturbed —
/// ingests the same bytes.
fn workload() -> Vec<Vec<Vec<(i64, i64)>>> {
    const WORKLOAD_SEED: u64 = 0xC0FFEE;
    (0..STREAMS as u64)
        .map(|s| {
            (0..6u64)
                .map(|b| {
                    (0..8u64)
                        .map(|r| {
                            let d = chaos::splitmix64(WORKLOAD_SEED ^ (s << 32) ^ (b << 16) ^ r);
                            ((d % 100) as i64, (d >> 32) as i64 % 20_000_000)
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

fn setup_streams(db: &Db) -> Vec<SubscriptionId> {
    let mut subs = Vec::new();
    for i in 0..STREAMS {
        db.execute(&format!(
            "CREATE STREAM s{i} (v integer, ts timestamp CQTIME USER)"
        ))
        .unwrap();
        subs.push(
            db.execute(&format!(
                "SELECT count(*) c, sum(v) t FROM s{i} <TUMBLING '1 minute'>"
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
    }
    subs
}

/// Gap-encoded batches to absolute-timestamp rows.
fn materialize(batches: &[Vec<(i64, i64)>]) -> Vec<Vec<Vec<Value>>> {
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

/// Canonical form of one subscription's output: close timestamp plus
/// the debug rendering of the relation's rows (total, deterministic).
fn drain_canonical(db: &Db, subs: &[SubscriptionId]) -> Vec<Vec<(i64, String)>> {
    subs.iter()
        .map(|&sub| {
            db.poll(sub)
                .unwrap()
                .into_iter()
                .map(|o| (o.close, format!("{:?}", o.relation.rows())))
                .collect()
        })
        .collect()
}

fn parallel_equivalence() -> Result<(), String> {
    let workload = workload();
    // Reference: one shard, inline evaluation, serial ingest, unperturbed.
    chaos::disarm();
    let reference = {
        let db = Db::in_memory(DbOptions::default().with_shards(1).with_pool_workers(0));
        let subs = setup_streams(&db);
        for (i, batches) in workload.iter().enumerate() {
            for rows in materialize(batches) {
                db.ingest_batch(&format!("s{i}"), rows).unwrap();
            }
        }
        for i in 0..STREAMS {
            db.heartbeat(&format!("s{i}"), 3_600_000_000).unwrap();
        }
        drain_canonical(&db, &subs)
    };
    // System under test: default shards and pool, one ingester thread per
    // stream, chaos re-armed with its op counter continuing.
    chaos::rearm();
    let got = {
        let db = Db::in_memory(DbOptions::default());
        let subs = setup_streams(&db);
        std::thread::scope(|s| {
            for (i, batches) in workload.iter().enumerate() {
                let db = &db;
                s.spawn(move || {
                    for rows in materialize(batches) {
                        db.ingest_batch(&format!("s{i}"), rows).unwrap();
                    }
                });
            }
        });
        for i in 0..STREAMS {
            db.heartbeat(&format!("s{i}"), 3_600_000_000).unwrap();
        }
        drain_canonical(&db, &subs)
    };
    if got != reference {
        return Err(diff_detail(&reference, &got));
    }
    Ok(())
}

// ---- suite 1b: many stores on one stream -----------------------------------

/// The `embedded_sliding` shapes on one stream: grouped count/sum over four
/// sliding grids (two stores), DISTINCT, a stream-table join, MIN/MAX, a
/// float AVG, a raw-rows filter — nine slice stores, each a pool job of its
/// own at every batch — and a ROWS window beside them.
fn setup_many_stores(db: &Db) -> Vec<SubscriptionId> {
    for ddl in [
        "CREATE STREAM clicks (url text, client_ip text, status integer, bytes integer, \
         latency float, atime timestamp CQTIME USER)",
        "CREATE TABLE url_dim (url text, category text)",
        "INSERT INTO url_dim VALUES ('/u0', 'a'), ('/u2', 'b'), ('/u4', 'c')",
    ] {
        db.execute(ddl).unwrap();
    }
    let win = |v: i64, a: i64| format!("clicks <VISIBLE '{v} seconds' ADVANCE '{a} seconds'>");
    let mut cqs: Vec<String> = ["url", "status"]
        .into_iter()
        .flat_map(|key| {
            [(60, 1), (120, 2), (180, 3), (300, 5)].map(|(v, a)| {
                format!(
                    "SELECT {key}, count(*) hits, sum(bytes) volume FROM {} \
                     GROUP BY {key} ORDER BY {key}",
                    win(v, a)
                )
            })
        })
        .collect();
    cqs.extend([
        format!(
            "SELECT count(distinct client_ip) visitors FROM {}",
            win(60, 1)
        ),
        format!(
            "SELECT c.url, count(*) hits FROM {} c JOIN url_dim d ON c.url = d.url \
             GROUP BY c.url ORDER BY c.url",
            win(60, 1)
        ),
        format!(
            "SELECT url, min(bytes) smallest, max(bytes) largest FROM {} \
             GROUP BY url ORDER BY url",
            win(120, 2)
        ),
        format!(
            "SELECT avg(latency) mean, count(*) hits FROM {}",
            win(60, 1)
        ),
        "SELECT url, client_ip, bytes, atime FROM clicks <TUMBLING '1 second'> \
         WHERE status = 500"
            .into(),
        "SELECT count(*) hits, sum(bytes) volume FROM clicks \
         <VISIBLE 100 ROWS ADVANCE 25 ROWS>"
            .into(),
    ]);
    let subscribe = |sql: String| db.execute(&sql).unwrap().subscription();
    cqs.into_iter().map(subscribe).collect()
}

/// Four minutes of clicks through [`setup_many_stores`], one batch per
/// second, then a heartbeat that closes every window still open: each
/// subscription's output, canonical. The workload is fixed, so every run
/// ingests the same bytes.
pub fn many_stores_run(options: DbOptions) -> Vec<Vec<(i64, String)>> {
    const SEC: i64 = 1_000_000;
    let db = Db::in_memory(options);
    let subs = setup_many_stores(&db);
    for tick in 0..240i64 {
        let batch = (0..12)
            .map(|i| {
                let d = chaos::splitmix64(0x5EED ^ ((tick as u64) << 8) ^ i);
                vec![
                    Value::text(format!("/u{}", d % 7)),
                    Value::text(format!("10.0.0.{}", (d >> 8) % 13)),
                    Value::Int([200, 200, 404, 500][(d >> 16) as usize % 4]),
                    Value::Int(((d >> 24) % 5000) as i64),
                    Value::Float(((d >> 40) % 1000) as f64 / 7.0),
                    Value::Timestamp(tick * SEC + (i as i64) * SEC / 12),
                ]
            })
            .collect();
        db.ingest_batch("clicks", batch).unwrap();
    }
    db.heartbeat("clicks", 560 * SEC).unwrap();
    drain_canonical(&db, &subs)
}

fn many_stores_equivalence() -> Result<(), String> {
    chaos::disarm();
    let reference = many_stores_run(DbOptions::default().with_shards(1).with_pool_workers(0));
    chaos::rearm();
    let got = many_stores_run(DbOptions::default());
    if got != reference {
        return Err(diff_detail(&reference, &got));
    }
    Ok(())
}

fn diff_detail(reference: &[Vec<(i64, String)>], got: &[Vec<(i64, String)>]) -> String {
    for (i, (r, g)) in reference.iter().zip(got).enumerate() {
        if r != g {
            return format!(
                "subscription #{i} diverged: reference {} window(s), got {} — first \
                 differing entry: ref {:?} vs got {:?}",
                r.len(),
                g.len(),
                r.iter().find(|e| !g.contains(e)),
                g.iter().find(|e| !r.contains(e)),
            );
        }
    }
    "output shape diverged".to_string()
}

// ---- suite 2: group-commit conservation ------------------------------------

const WRITERS: usize = 4;
const ROWS_PER_WRITER: i64 = 400;

fn group_commit_conservation() -> Result<(), String> {
    // Durable Db over a simulated disk: four streams, each archived into
    // its own Active Table through an APPEND channel, sharded WAL so
    // commits race through the per-shard group-commit path.
    let io = FaultIo::new(FaultPlan::none(0));
    let opts = DbOptions::default().with_shards(WRITERS);
    let db = Db::open_with_io(SIM_DIR, opts, io.clone()).map_err(|e| e.to_string())?;
    for i in 0..WRITERS {
        db.execute(&format!(
            "CREATE STREAM w{i} (v integer, ts timestamp CQTIME USER)"
        ))
        .unwrap();
        db.execute(&format!("CREATE TABLE agg{i} (c bigint, w timestamp)"))
            .unwrap();
        db.execute(&format!(
            "CREATE STREAM per{i} AS SELECT count(*) c, cq_close(*) w \
             FROM w{i} <TUMBLING '1 second'>"
        ))
        .unwrap();
        db.execute(&format!(
            "CREATE CHANNEL ch{i} FROM per{i} INTO agg{i} APPEND"
        ))
        .unwrap();
    }
    std::thread::scope(|s| {
        for i in 0..WRITERS {
            let db = &db;
            s.spawn(move || {
                for r in 0..ROWS_PER_WRITER {
                    db.ingest(
                        &format!("w{i}"),
                        vec![Value::Int(1), Value::Timestamp(r * 10_000)],
                    )
                    .unwrap();
                }
                db.heartbeat(&format!("w{i}"), ROWS_PER_WRITER * 10_000 + 1_000_000)
                    .unwrap();
            });
        }
    });
    let count = |db: &Db| -> i64 {
        (0..WRITERS)
            .map(|i| {
                db.execute(&format!("SELECT coalesce(sum(c), 0) FROM agg{i}"))
                    .unwrap()
                    .rows()
                    .rows()[0][0]
                    .as_int()
                    .unwrap()
            })
            .sum()
    };
    let want = WRITERS as i64 * ROWS_PER_WRITER;
    let live = count(&db);
    if live != want {
        return Err(format!("live count {live} != ingested {want}"));
    }
    // Simulated clean restart: everything the OS cache held is written
    // back, then the WAL replays. Conservation must survive recovery.
    drop(db);
    let image = io.image();
    let re_io = FaultIo::from_image(&image, FaultPlan::none(0));
    let db = Db::open_with_io(SIM_DIR, DbOptions::default().with_shards(WRITERS), re_io)
        .map_err(|e| e.to_string())?;
    let recovered = count(&db);
    if recovered != want {
        return Err(format!("recovered count {recovered} != ingested {want}"));
    }
    Ok(())
}

// ---- suite 3: subscription conservation ------------------------------------

const SUBSCRIBERS: usize = 4;
const SUB_ROWS: i64 = 2_000;
const SUB_WINDOWS: usize = 8;
/// Key of the member nobody reads; churning threads key theirs above it.
const IDLE_MEMBER: u64 = 1;

/// Seat members of each subscription in turn until the writer is done;
/// each pops for a while and leaves, and its account must add up: popped
/// + shed + queued == windows closed since it joined, closes consecutive.
fn churn(db: &Db, subs: &[SubscriptionId], thread: u64, done: &AtomicBool) -> Result<(), String> {
    for cycle in 0.. {
        let (key, sub) = (2 + 2 * cycle + thread, subs[cycle as usize % subs.len()]);
        let member = db.join(sub, key).map_err(|e| e.to_string())?;
        let mut closes = Vec::new();
        for _ in 0..3 {
            while let Some((Queued::Window(w), _)) = member.pop() {
                closes.push(w.close);
            }
            std::thread::yield_now();
        }
        let a = db.leave(sub, key).map_err(|e| e.to_string())?;
        let popped = closes.len() as u64;
        if !closes.windows(2).all(|p| p[1] == p[0] + 1_000_000)
            || (popped, popped + a.shed + a.queued) != (a.delivered, a.closed)
        {
            return Err(format!("member {key}: popped {closes:?}, {a:?}"));
        }
        if done.load(Ordering::SeqCst) {
            return Ok(());
        }
    }
    Ok(())
}

fn subscription_conservation() -> Result<(), String> {
    let db = Arc::new(Db::in_memory(DbOptions::default()));
    db.execute("CREATE STREAM s (v integer, ts timestamp CQTIME USER)")
        .unwrap();
    let subs: Vec<SubscriptionId> = (0..SUBSCRIBERS)
        .map(|_| {
            db.execute("SELECT count(*) c, sum(v) t FROM s <TUMBLING '1 second'>")
                .unwrap()
                .subscription()
        })
        .collect();
    db.join(subs[0], IDLE_MEMBER).map_err(|e| e.to_string())?;
    // Rows spread evenly over SUB_WINDOWS one-second windows.
    let span = SUB_WINDOWS as i64 * 1_000_000;
    let step = span / SUB_ROWS;
    let done = AtomicBool::new(false);
    let (results, churned) = std::thread::scope(|scope| {
        let (writer_db, done) = (db.clone(), &done);
        scope.spawn(move || {
            for r in 0..SUB_ROWS {
                writer_db
                    .ingest("s", vec![Value::Int(1), Value::Timestamp(r * step)])
                    .unwrap();
            }
            writer_db.heartbeat("s", span).unwrap();
            done.store(true, Ordering::SeqCst);
        });
        let churners: Vec<_> = (0..2)
            .map(|t| {
                let (db, subs) = (&db, &subs);
                scope.spawn(move || churn(db, subs, t, done))
            })
            .collect();
        // Pollers drain concurrently with ingest, accumulating until the
        // final window (which the heartbeat guarantees will close) shows
        // up. The default queue capacity exceeds SUB_WINDOWS, so no
        // overflow policy can silently drop a window.
        let results: Vec<Vec<(i64, i64, String)>> = subs
            .iter()
            .map(|&sub| {
                let db = db.clone();
                scope.spawn(move || {
                    let mut seen: Vec<(i64, i64, String)> = Vec::new();
                    loop {
                        for o in db.poll(sub).unwrap() {
                            let count = o.relation.rows()[0][0].as_int().unwrap();
                            seen.push((o.close, count, format!("{:?}", o.relation.rows())));
                        }
                        if seen.len() >= SUB_WINDOWS {
                            break;
                        }
                        std::thread::yield_now();
                    }
                    seen
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect();
        let churned = churners.into_iter().try_for_each(|h| h.join().unwrap());
        (results, churned)
    });
    churned?;
    // The idle member joined before the first window closed: it owes them
    // all, and leaving loses them all.
    let a = db.leave(subs[0], IDLE_MEMBER).map_err(|e| e.to_string())?;
    if (a.closed, a.delivered, a.shed, a.queued) != (SUB_WINDOWS as u64, 0, 0, SUB_WINDOWS as u64) {
        return Err(format!("idle member: {a:?}"));
    }
    for (i, r) in results.iter().enumerate() {
        if r.len() != SUB_WINDOWS {
            return Err(format!(
                "subscriber #{i} saw {} window(s), expected {SUB_WINDOWS}",
                r.len()
            ));
        }
        if !r.windows(2).all(|p| p[0].0 < p[1].0) {
            return Err(format!("subscriber #{i} saw out-of-order closes"));
        }
        if r != &results[0] {
            return Err(format!("subscriber #{i} diverged from subscriber #0"));
        }
        // Conservation: the per-window counts must sum to every ingested
        // row exactly once.
        let total: i64 = r.iter().map(|w| w.1).sum();
        if total != SUB_ROWS {
            return Err(format!(
                "subscriber #{i} window counts sum to {total}, ingested {SUB_ROWS}"
            ));
        }
    }
    Ok(())
}
