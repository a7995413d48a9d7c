//! IVM ↔ re-evaluation equivalence suite.
//!
//! The incremental view maintenance path is an *optimization*, not a
//! semantics change: for every plan it accepts, its per-window output
//! must be byte-identical — schema, row order, and values — to what the
//! re-evaluation executor produces from the buffered window. This suite
//! pins that contract three ways:
//!
//! * table-driven cases over the public SQL surface (aggregates with and
//!   without GROUP BY, stream-table joins, DISTINCT, ordered post-plans,
//!   out-of-order arrival under slack, and forced-fallback shapes),
//!   each run twice — `DbOptions::without_sharing()` vs the same with
//!   `without_ivm()` — and compared byte for byte, with `EXPLAIN CHECK`
//!   asserting which path the plan takes;
//! * a property test sweeping randomized workloads through both
//!   configurations;
//! * a cascade: aggregates over a *derived* stream (which lower like any
//!   other) and a non-aggregate CQ (a member of a raw-rows store), with
//!   heartbeat-only upstream windows and a late joiner;
//! * the crash-recovery torture harness's IVM sweep: a sliding window
//!   crashed at every mutating I/O op (including mid-slice), recovered,
//!   re-driven, and required to match the uncrashed reference.

use proptest::prelude::*;
use proptest::test_runner::Config;
use streamrel::types::time::{MINUTES, SECONDS};
use streamrel::types::Value;
use streamrel::{Db, DbOptions};
use streamrel_bench::torture::ivm_sweep;

const DDL: &[&str] = &[
    "CREATE STREAM hits (url varchar(32), v integer, ts timestamp CQTIME USER)",
    "CREATE TABLE sites (url varchar(32), owner varchar(32))",
    "INSERT INTO sites VALUES ('/u0', 'alice'), ('/u1', 'bob'), ('/u2', 'carol')",
];

/// (case name, CQ, `EXPLAIN CHECK` path the plan must report).
const CASES: &[(&str, &str, &str)] = &[
    (
        "grouped-count",
        "SELECT url, count(*) c FROM hits \
         <VISIBLE '2 minutes' ADVANCE '30 seconds'> GROUP BY url",
        "ivm",
    ),
    (
        "grouped-sum-min-max",
        "SELECT url, sum(v) s, min(v) lo, max(v) hi FROM hits \
         <VISIBLE '3 minutes' ADVANCE '1 minute'> GROUP BY url",
        "ivm",
    ),
    (
        "global-count-avg",
        "SELECT count(*) c, avg(v) a FROM hits <TUMBLING '1 minute'>",
        "ivm",
    ),
    (
        "distinct",
        "SELECT DISTINCT url FROM hits <VISIBLE '2 minutes' ADVANCE '1 minute'>",
        "ivm",
    ),
    (
        "join-agg",
        "SELECT h.url, count(*) c FROM hits \
         <VISIBLE '2 minutes' ADVANCE '1 minute'> h \
         JOIN sites s ON h.url = s.url GROUP BY h.url",
        "ivm",
    ),
    (
        "ordered-post-plan",
        "SELECT url, count(*) c FROM hits \
         <VISIBLE '2 minutes' ADVANCE '1 minute'> GROUP BY url \
         ORDER BY c DESC, url",
        "ivm",
    ),
    (
        "float-agg-falls-back",
        "SELECT sum(v * 0.5) s FROM hits <TUMBLING '1 minute'>",
        "reeval",
    ),
    (
        "rows-window-falls-back",
        "SELECT url, count(*) c FROM hits \
         <VISIBLE 100 ROWS ADVANCE 50 ROWS> GROUP BY url",
        "reeval",
    ),
];

const KEYED: &str = "view emits in ORDER BY key order";
const SEEN: &str = "first-seen order, sorted per close";

/// (case name, sliding CQ with an `ORDER BY`, how `EXPLAIN CHECK` says its
/// view emits): a view keeps its keys in the query's order only where that
/// order alone places every key.
const ORDERED: &[(&str, &str, &str)] = &[
    (
        "asc",
        "SELECT url, count(*) c, sum(v) s FROM hits \
         <VISIBLE '2 minutes' ADVANCE '30 seconds'> GROUP BY url ORDER BY url",
        KEYED,
    ),
    (
        "desc",
        "SELECT url, min(v) lo, max(v) hi FROM hits \
         <VISIBLE '3 minutes' ADVANCE '1 minute'> GROUP BY url ORDER BY url DESC",
        KEYED,
    ),
    (
        "two-keys-permuted",
        "SELECT url, v % 3 m, count(*) c FROM hits \
         <VISIBLE '2 minutes' ADVANCE '30 seconds'> GROUP BY url, v % 3 ORDER BY m, url",
        KEYED,
    ),
    (
        "key-then-aggregate",
        "SELECT url, count(*) c FROM hits \
         <VISIBLE '2 minutes' ADVANCE '1 minute'> GROUP BY url ORDER BY url, c DESC",
        KEYED,
    ),
    (
        "strict-prefix-ties-first-seen",
        "SELECT url, v % 3 m, count(*) c FROM hits \
         <VISIBLE '2 minutes' ADVANCE '30 seconds'> GROUP BY url, v % 3 ORDER BY url",
        SEEN,
    ),
    (
        "nulls-last-asc",
        "SELECT u, count(*) c FROM (SELECT nullif(url, '/u3') u, ts FROM hits \
         <VISIBLE '2 minutes' ADVANCE '30 seconds'>) p GROUP BY u ORDER BY u",
        KEYED,
    ),
    (
        "nulls-first-desc",
        "SELECT u, count(*) c FROM (SELECT nullif(url, '/u3') u, ts FROM hits \
         <VISIBLE '2 minutes' ADVANCE '30 seconds'>) p GROUP BY u ORDER BY u DESC",
        KEYED,
    ),
    (
        "float-key-signed-zero",
        "SELECT z, count(*) c FROM (SELECT v * 0.0 z, ts FROM hits \
         <VISIBLE '2 minutes' ADVANCE '30 seconds'>) p GROUP BY z ORDER BY z",
        SEEN,
    ),
    (
        "having-under-the-sort",
        "SELECT url, count(*) c FROM hits <VISIBLE '2 minutes' ADVANCE '30 seconds'> \
         GROUP BY url HAVING count(*) > 3 ORDER BY url DESC",
        KEYED,
    ),
    (
        "join-agg-by-non-join-column",
        "SELECT h.v % 4 m, count(*) c FROM hits <VISIBLE '2 minutes' ADVANCE '30 seconds'> h \
         JOIN sites s ON h.url = s.url GROUP BY h.v % 4 ORDER BY m",
        KEYED,
    ),
];

fn ivm_on() -> DbOptions {
    DbOptions::default().without_sharing()
}

fn ivm_off() -> DbOptions {
    DbOptions::default().without_sharing().without_ivm()
}

fn db_with(opts: DbOptions) -> Db {
    let db = Db::in_memory(opts);
    for sql in DDL {
        db.execute(sql).unwrap();
    }
    db
}

fn metric(db: &Db, name: &str) -> i64 {
    let rel = db
        .execute(&format!(
            "SELECT value FROM streamrel_metrics WHERE name = '{name}'"
        ))
        .unwrap()
        .rows();
    rel.rows()
        .first()
        .and_then(|r| r.first())
        .and_then(|v| v.as_int().ok())
        .unwrap_or(0)
}

/// The `path` column `EXPLAIN CHECK` reports for `cq` (constant on every
/// report row).
fn explain_path(db: &Db, cq: &str) -> String {
    let rel = db.execute(&format!("EXPLAIN CHECK {cq}")).unwrap().rows();
    match rel.rows().first().and_then(|r| r.get(4)) {
        Some(Value::Text(s)) => s.to_string(),
        other => panic!("no path column in EXPLAIN CHECK output: {other:?}"),
    }
}

/// Run `cq` over `rows` (plus a closing heartbeat), canonicalize every
/// emitted window, and report how many CQs lowered to the IVM path.
fn windows(opts: DbOptions, cq: &str, rows: &[(String, i64, i64)]) -> (String, i64) {
    let db = db_with(opts);
    let sub = db.execute(cq).unwrap().subscription();
    for (url, v, ts) in rows {
        db.ingest(
            "hits",
            vec![
                Value::text(url.clone()),
                Value::Int(*v),
                Value::Timestamp(*ts),
            ],
        )
        .unwrap();
    }
    let last = rows.last().map(|(_, _, ts)| *ts).unwrap_or(0);
    db.heartbeat("hits", last + 10 * MINUTES).unwrap();
    let mut out = String::new();
    for o in db.poll(sub).unwrap() {
        out.push_str(&format!(
            "close={} schema={:?}\n",
            o.close,
            o.relation.schema()
        ));
        for r in o.relation.rows() {
            out.push_str(&format!("{r:?}\n"));
        }
    }
    (out, metric(&db, "ivm.lowered"))
}

/// Deterministic workload: irregular timestamp steps (1..29 s) so tuples
/// cross slice boundaries unevenly, five URLs (two of which have no
/// `sites` match), signed values.
fn fixed_rows(n: usize) -> Vec<(String, i64, i64)> {
    let mut ts = 0i64;
    (0..n)
        .map(|i| {
            ts += ((i as i64 * 7919) % 29 + 1) * SECONDS;
            (format!("/u{}", i % 5), (i as i64 * 31) % 97 - 48, ts)
        })
        .collect()
}

#[test]
fn every_case_is_byte_identical_and_takes_its_declared_path() {
    let rows = fixed_rows(300);
    for (name, cq, path) in CASES {
        // Static path report, with and without the option.
        assert_eq!(
            explain_path(&db_with(ivm_on()), cq),
            *path,
            "{name}: wrong EXPLAIN CHECK path"
        );
        assert_eq!(
            explain_path(&db_with(ivm_off()), cq),
            "reeval",
            "{name}: disabling IVM must force the reeval path"
        );

        // Dynamic equivalence: both executors, same tuples, same bytes.
        let (incr, lowered_on) = windows(ivm_on(), cq, &rows);
        let (reeval, lowered_off) = windows(ivm_off(), cq, &rows);
        assert!(!incr.is_empty(), "{name}: no windows emitted");
        assert_eq!(incr, reeval, "{name}: IVM output diverges from re-eval");
        assert_eq!(
            lowered_on,
            (*path == "ivm") as i64,
            "{name}: runtime lowering disagrees with the declared path"
        );
        assert_eq!(lowered_off, 0, "{name}: IVM lowered despite without_ivm()");
    }
}

/// The `ivm-order` detail `EXPLAIN CHECK` reports for `cq`, if any.
fn explain_order(db: &Db, cq: &str) -> Option<String> {
    let rel = db.execute(&format!("EXPLAIN CHECK {cq}")).unwrap().rows();
    let row = rel.rows().iter().find(|r| r[1] == Value::text("ivm-order"));
    row.map(|r| r[2].to_string())
}

#[test]
fn ordered_views_are_byte_identical_and_say_how_they_emit() {
    let rows = fixed_rows(300);
    for (name, cq, order) in ORDERED {
        let db = db_with(ivm_on());
        assert_eq!(explain_path(&db, cq), "ivm", "{name}");
        assert_eq!(explain_order(&db, cq).as_deref(), Some(*order), "{name}");
        let (incr, lowered) = windows(ivm_on(), cq, &rows);
        let (reeval, _) = windows(ivm_off(), cq, &rows);
        assert_eq!(lowered, 1, "{name}: must lower");
        assert!(incr.lines().count() > 100, "{name}: {incr}");
        assert_eq!(incr, reeval, "{name}: ordered view diverges from re-eval");
    }
    // The float key is fed both zeros, and windows show either spelling;
    // under DESC the NULL key comes first.
    let cq = |name| ORDERED.iter().find(|c| c.0 == name).unwrap().1;
    let float = windows(ivm_on(), cq("float-key-signed-zero"), &rows).0;
    assert!(float.contains("Float(-0.0)") && float.contains("Float(0.0)"));
    let nulls = windows(ivm_on(), cq("nulls-first-desc"), &rows).0;
    let lines: Vec<&str> = nulls.lines().collect();
    let first_null = lines
        .windows(2)
        .any(|w| w[0].starts_with("close=") && w[1].starts_with("[Null"));
    assert!(first_null, "{nulls}");
}

#[test]
fn out_of_order_arrival_under_slack_stays_identical() {
    // Swap adjacent tuples so arrival order differs from CQTIME order,
    // within a 60-second slack.
    let mut rows = fixed_rows(200);
    for i in (1..rows.len()).step_by(7) {
        rows.swap(i - 1, i);
    }
    let cq = CASES[0].1;
    let slack = 60 * SECONDS;
    let (incr, lowered) = windows(ivm_on().with_slack(slack), cq, &rows);
    let (reeval, _) = windows(ivm_off().with_slack(slack), cq, &rows);
    assert_eq!(lowered, 1);
    assert!(!incr.is_empty());
    assert_eq!(incr, reeval, "out-of-order IVM output diverges");
}

#[test]
fn a_sliding_integer_average_gives_back_what_leaves() {
    // 2^60 rounds away every small value an f64 sum holds beside it; the
    // windows after it left must not show that it was ever there.
    let cq = "SELECT avg(v) a FROM hits <VISIBLE '2 seconds' ADVANCE '1 second'>";
    let rows: Vec<(String, i64, i64)> = [3, 1 << 60, 5, 7, 9, 11, 13, 15]
        .iter()
        .zip(3..)
        .map(|(v, s)| ("/u0".to_string(), *v, s * SECONDS))
        .collect();
    let (reeval, _) = windows(ivm_off(), cq, &rows);
    assert!(reeval.contains("[Float(8.0)]"), "{reeval}");
    for opts in [DbOptions::default(), ivm_on()] {
        assert_eq!(windows(opts, cq, &rows).0, reeval);
    }
}

proptest! {
    #![proptest_config(Config::with_cases(8))]
    /// Arbitrary workloads (key choice, values, irregular gaps) through
    /// every eligible case shape, ordered views included: both paths
    /// byte-identical.
    #[test]
    fn random_workloads_are_byte_identical(
        raw in prop::collection::vec((0usize..5, -50i64..50, 1i64..30), 20..150),
        case in 0usize..6 + ORDERED.len(),
    ) {
        let mut ts = 0i64;
        let rows: Vec<(String, i64, i64)> = raw
            .iter()
            .map(|(k, v, gap)| {
                ts += gap * SECONDS;
                (format!("/u{k}"), *v, ts)
            })
            .collect();
        let (name, cq) = if case < 6 {
            (CASES[case].0, CASES[case].1)
        } else {
            (ORDERED[case - 6].0, ORDERED[case - 6].1)
        };
        let (incr, lowered) = windows(ivm_on(), cq, &rows);
        let (reeval, _) = windows(ivm_off(), cq, &rows);
        prop_assert_eq!(lowered, 1, "case {} must lower", name);
        prop_assert_eq!(incr, reeval, "case {} diverges", name);
    }
}

/// The window shapes of the schedule test: four windows of one pooled
/// store (narrow, wide, tumbling, coarse), then one shape each for a
/// global aggregate (defaults row), DISTINCT and a stream-table join.
const SCHEDULE: &[&str] = &[
    "SELECT url, count(*) c, sum(v) s, min(v) lo, max(v) hi, avg(v) a, count(distinct v) d \
     FROM hits <VISIBLE '4 seconds' ADVANCE '1 second'> GROUP BY url",
    "SELECT url, count(*) c, sum(v) s, min(v) lo, max(v) hi, avg(v) a, count(distinct v) d \
     FROM hits <VISIBLE '6 seconds' ADVANCE '2 seconds'> GROUP BY url",
    "SELECT url, count(*) c, sum(v) s, min(v) lo, max(v) hi, avg(v) a, count(distinct v) d \
     FROM hits <TUMBLING '3 seconds'> GROUP BY url",
    "SELECT url, count(*) c, sum(v) s, min(v) lo, max(v) hi, avg(v) a, count(distinct v) d \
     FROM hits <VISIBLE '10 seconds' ADVANCE '5 seconds'> GROUP BY url",
    "SELECT count(*) c, sum(v) s, min(v) lo, count(distinct url) d \
     FROM hits <VISIBLE '5 seconds' ADVANCE '1 second'>",
    "SELECT DISTINCT url, v FROM hits <VISIBLE '4 seconds' ADVANCE '1 second'>",
    "SELECT h.url, count(*) c, max(h.v) hi FROM hits <VISIBLE '6 seconds' ADVANCE '2 seconds'> h \
     JOIN sites s ON h.url = s.url GROUP BY h.url",
    // Members of the first store (and of the DISTINCT one) whose views
    // emit in ORDER BY key order, NULL keys and all.
    "SELECT url, count(*) c, sum(v) s, min(v) lo, max(v) hi, avg(v) a, count(distinct v) d \
     FROM hits <VISIBLE '6 seconds' ADVANCE '1 second'> GROUP BY url ORDER BY url DESC",
    "SELECT DISTINCT url, v FROM hits <VISIBLE '5 seconds' ADVANCE '1 second'> ORDER BY v, url",
];
/// Registered a third of the way in; member 1 leaves at two thirds.
const JOINER: &str =
    "SELECT url, count(*) c, sum(v) s, min(v) lo, max(v) hi, avg(v) a, count(distinct v) d \
     FROM hits <VISIBLE '8 seconds' ADVANCE '2 seconds'> GROUP BY url";
const JOINER_VISIBLE: i64 = 8 * SECONDS;

/// Run one random schedule — `(kind, key, v, gap)`: kind 0 jumps past
/// every window, kind 1 is a heartbeat, key 0 and every seventh `v` are
/// NULL — and return each subscription's windows, spelled out. The joiner
/// of a live pool sees the slices folded before it registered, a fresh
/// buffer does not: its windows count once they start after it joined.
fn schedule(opts: DbOptions, events: &[(u8, u8, i64, i64)]) -> Vec<String> {
    let db = db_with(opts);
    let mut subs: Vec<_> = SCHEDULE
        .iter()
        .map(|cq| Some(db.execute(cq).unwrap().subscription()))
        .collect();
    let mut outs = vec![String::new(); SCHEDULE.len() + 1];
    let (mut ts, mut joined_at) = (0i64, 0i64);
    let drain = |sub, out: &mut String, from: i64| {
        for o in db.poll(sub).unwrap() {
            if o.close >= from {
                out.push_str(&format!("close={} {:?}\n", o.close, o.relation.rows()));
            }
        }
    };
    for (i, (kind, key, v, gap)) in events.iter().enumerate() {
        if i == events.len() / 3 {
            subs.push(Some(db.execute(JOINER).unwrap().subscription()));
            joined_at = ts;
        }
        if i == 2 * events.len() / 3 {
            let sub = subs[1].take().unwrap();
            drain(sub, &mut outs[1], 0);
            db.unsubscribe(sub).unwrap();
        }
        ts += gap * SECONDS / 2 * if *kind == 0 { 25 } else { 1 };
        if *kind == 1 {
            db.heartbeat("hits", ts).unwrap();
            continue;
        }
        let url = match key {
            0 => Value::Null,
            k => Value::text(format!("/u{}", k % 5)),
        };
        let v = if v % 7 == 0 {
            Value::Null
        } else {
            Value::Int(*v)
        };
        db.ingest("hits", vec![url, v, Value::Timestamp(ts)])
            .unwrap();
    }
    db.heartbeat("hits", ts + MINUTES).unwrap();
    for (i, sub) in subs.iter().enumerate() {
        let from = if i == SCHEDULE.len() {
            joined_at + JOINER_VISIBLE
        } else {
            0
        };
        if let Some(sub) = sub {
            drain(*sub, &mut outs[i], from);
        }
    }
    outs
}

proptest! {
    #![proptest_config(Config::with_cases(6))]
    /// The running window views, end to end: pooled members of different
    /// windows, a member that joins the live pool and one that leaves,
    /// NULL keys and arguments, gaps longer than VISIBLE closed by one
    /// call — no ORDER BY, so first-seen row order is part of the bytes —
    /// against private re-evaluation buffers.
    #[test]
    fn random_schedules_slide_views_byte_identically(
        events in prop::collection::vec((0u8..10, 0u8..7, -20i64..20, 0i64..6), 40..260),
    ) {
        let viewed = schedule(DbOptions::default(), &events);
        let reeval = schedule(ivm_off(), &events);
        for (i, (got, want)) in viewed.iter().zip(&reeval).enumerate() {
            prop_assert_eq!(got, want, "subscription {} diverges", i);
        }
    }
}

// ---- cascade: a derived stream is a stream -----------------------------------

/// Per-second per-URL totals: the derived stream the cascade reads.
const PER_SEC: &str = "CREATE STREAM per_sec AS SELECT url, count(*) c, sum(v) s, cq_close(*) w \
     FROM hits <TUMBLING '1 second'> GROUP BY url";

/// (CQ, `EXPLAIN CHECK` path, VISIBLE): a sliding and a tumbling aggregate
/// over the derived stream — they lower like any other; the upstream's
/// window output *is* their delta batch — a non-aggregate plan over it and
/// one over the base stream, which re-evaluate over raw-rows stores.
const CASCADE: &[(&str, &str, i64)] = &[
    (
        "SELECT url, sum(c) n, max(s) hi, count(*) k FROM per_sec \
         <VISIBLE '4 seconds' ADVANCE '1 second'> GROUP BY url",
        "ivm",
        4,
    ),
    (
        "SELECT count(*) k, sum(c) n, min(s) lo FROM per_sec <TUMBLING '3 seconds'>",
        "ivm",
        3,
    ),
    (
        "SELECT url, c, w FROM per_sec <VISIBLE '2 seconds' ADVANCE '1 second'> WHERE c > 1",
        "reeval",
        2,
    ),
    (
        "SELECT url, v FROM hits <VISIBLE '3 seconds' ADVANCE '1 second'> WHERE v > 0",
        "reeval",
        3,
    ),
];

/// Drive the cascade over `events` — `(kind, key, v, gap)` as in
/// [`schedule`]: kind 0 jumps past every window (so whole runs of upstream
/// windows are heartbeat-only), kind 1 is a heartbeat — registering a
/// second copy of every CQ a third of the way in. Returns each
/// subscription's windows, a late joiner's from the first window that
/// starts after it joined, and the database.
fn cascade(opts: DbOptions, events: &[(u8, u8, i64, i64)]) -> (Vec<String>, Db) {
    let db = db_with(opts);
    db.execute(PER_SEC).unwrap();
    let subscribe = || -> Vec<_> {
        let subs = CASCADE.iter().map(|(cq, ..)| db.execute(cq).unwrap());
        subs.map(|r| r.subscription()).collect()
    };
    let mut subs = subscribe();
    let (mut ts, mut joined_at) = (0i64, 0i64);
    for (i, (kind, key, v, gap)) in events.iter().enumerate() {
        if i == events.len() / 3 {
            subs.extend(subscribe());
            joined_at = ts;
        }
        ts += gap * SECONDS / 4 * if *kind == 0 { 25 } else { 1 };
        if *kind == 1 {
            db.heartbeat("hits", ts).unwrap();
            continue;
        }
        let row = vec![
            Value::text(format!("/u{}", key % 3)),
            Value::Int(*v),
            Value::Timestamp(ts),
        ];
        db.ingest("hits", row).unwrap();
    }
    db.heartbeat("hits", ts + MINUTES).unwrap();
    let outs = subs.iter().enumerate().map(|(i, sub)| {
        let visible = CASCADE[i % CASCADE.len()].2 * SECONDS;
        let from = if i < CASCADE.len() {
            0
        } else {
            joined_at + visible + 1
        };
        let mut out = String::new();
        for o in db.poll(*sub).unwrap().iter().filter(|o| o.close >= from) {
            out.push_str(&format!("close={} {:?}\n", o.close, o.relation.rows()));
        }
        out
    });
    (outs.collect(), db)
}

#[test]
fn a_cascade_lowers_over_its_derived_stream_and_matches_reeval() {
    let db = db_with(ivm_on());
    db.execute(PER_SEC).unwrap();
    for (cq, path, _) in CASCADE {
        assert_eq!(explain_path(&db, cq), *path, "{cq}");
    }
    // Irregular quarter-second steps, a heartbeat every ninth event and
    // two jumps that leave a dozen upstream windows heartbeat-only.
    let events: Vec<(u8, u8, i64, i64)> = (0..400i64)
        .map(|i| {
            let kind = match i {
                _ if i % 131 == 77 => 0,
                _ if i % 9 == 4 => 1,
                _ => 2,
            };
            (kind, (i * 7 % 5) as u8, (i * 31) % 23 - 9, (i * 7919) % 4)
        })
        .collect();
    let (reeval, reference) = cascade(ivm_off(), &events);
    assert!(
        reeval.iter().all(|out| out.lines().count() > 20),
        "{reeval:?}"
    );
    assert!(
        reeval[1].contains("[Int(0), Null, Null]"),
        "an empty window"
    );
    for opts in [
        DbOptions::default(),
        ivm_on(),
        DbOptions::default().without_ivm(),
    ] {
        let (got, db) = cascade(opts, &events);
        for (i, (got, want)) in got.iter().zip(&reeval).enumerate() {
            assert_eq!(got, want, "subscription {i} diverges under {opts:?}");
        }
        // The upstream and both copies of the two aggregates over it are
        // maintained; both copies of the other two are not.
        let (lowered, fallback) = if opts.ivm { (5, 4) } else { (0, 0) };
        assert_eq!(metric(&db, "ivm.lowered"), lowered);
        assert_eq!(metric(&db, "ivm.fallback"), fallback);
    }
    assert_eq!(metric(&reference, "ivm.delta.rows"), 0);
}

proptest! {
    #![proptest_config(Config::with_cases(6))]
    /// The same cascade over arbitrary schedules: maintained (pooled and
    /// private) against re-evaluated, derived convention included.
    #[test]
    fn random_cascades_are_byte_identical(
        events in prop::collection::vec((0u8..12, 0u8..7, -20i64..20, 0i64..6), 40..200),
    ) {
        let (reeval, _) = cascade(ivm_off(), &events);
        for opts in [DbOptions::default(), ivm_on()] {
            let (got, _) = cascade(opts, &events);
            for (i, (got, want)) in got.iter().zip(&reeval).enumerate() {
                prop_assert_eq!(got, want, "subscription {} diverges", i);
            }
        }
    }
}

/// The torture harness's IVM entry: a sliding grouped count crashed at
/// every mutating I/O operation — including mid-slice, with partial
/// aggregate state in memory — recovered from the frozen disk image,
/// re-driven, and required to be byte-identical to the uncrashed
/// reference. (The `torture` binary runs the same sweep as its `ivm`
/// suite, at higher counts.)
#[test]
fn crash_mid_slice_recovery_is_byte_identical() {
    let out = ivm_sweep(0xC0FFEE, 12).unwrap();
    assert!(
        out.points >= 30,
        "only {} crash points exercised",
        out.points
    );
    let failures: Vec<String> = out.failures.iter().map(|f| f.to_string()).collect();
    assert!(failures.is_empty(), "divergences:\n{}", failures.join("\n"));
}

// ---- join-mutating-dim: the table changes between closes -------------------

/// The join aggregates of `join-mutating-dim`: groups that are join keys
/// (a row straight from each pair), groups that span join keys (scaled
/// pairs merged), and the two tumbling probes whose quotient is how many
/// `sites` rows `/u0` matched at each close.
const MUTATING_DIM: &[&str] = &[
    "SELECT h.url, count(*) c, sum(h.v) s, max(h.v) hi FROM hits \
     <VISIBLE '2 minutes' ADVANCE '30 seconds'> h JOIN sites s ON h.url = s.url \
     GROUP BY h.url ORDER BY h.url",
    "SELECT h.v % 3 m, count(*) c, min(h.v) lo FROM hits \
     <VISIBLE '3 minutes' ADVANCE '1 minute'> h JOIN sites s ON h.url = s.url GROUP BY h.v % 3",
    "SELECT count(*) n FROM hits <TUMBLING '1 minute'> h \
     JOIN sites s ON h.url = s.url WHERE h.url = '/u0'",
    "SELECT count(*) k FROM hits <TUMBLING '1 minute'> WHERE url = '/u0'",
];

/// A change to `sites` made between two runs of tuples.
enum DimChange {
    Sql(&'static str),
    /// The `site_gen` window that closes replaces `sites` through its
    /// REPLACE channel.
    Swap(&'static [(&'static str, &'static str)]),
    /// A writer opened on the engine inserts `('/u0', owner)`; a later
    /// step commits or aborts it.
    Begin(&'static str),
    Commit,
    Abort,
}

const DIM_CHANGES: &[DimChange] = &[
    DimChange::Sql("INSERT INTO sites VALUES ('/u3', 'dave'), ('/u0', 'erin')"),
    DimChange::Sql("DELETE FROM sites WHERE url = '/u1'"),
    DimChange::Swap(&[("/u0", "x"), ("/u2", "y"), ("/u2", "z"), ("/u4", "w")]),
    DimChange::Begin("late"),
    DimChange::Commit,
    DimChange::Begin("gone"),
    DimChange::Abort,
];

/// Run `MUTATING_DIM` over nine runs of tuples with `DIM_CHANGES` between
/// them. Returns each subscription's windows, spelled out, and per run
/// the `/u0` match counts the probes' windows closed in it saw.
fn mutating_dim(opts: DbOptions) -> (Vec<String>, Vec<Vec<i64>>) {
    let db = db_with(opts);
    for sql in [
        "CREATE STREAM site_feed (url varchar(32), owner varchar(32), ts timestamp CQTIME USER)",
        "CREATE STREAM site_gen AS SELECT url, owner FROM site_feed <TUMBLING '1 second'>",
        "CREATE CHANNEL site_swap FROM site_gen INTO sites REPLACE",
    ] {
        db.execute(sql).unwrap();
    }
    let subs: Vec<_> = MUTATING_DIM
        .iter()
        .map(|cq| db.execute(cq).unwrap().subscription())
        .collect();
    let engine = db.engine().clone();
    let sites = engine.table_id("sites").unwrap();
    let rows = fixed_rows(360);
    let mut outs = vec![String::new(); subs.len()];
    let (mut matched, mut writer, mut swaps) = (Vec::new(), None, 0);
    for (run, chunk) in rows.chunks(40).enumerate() {
        if let Some(change) = run.checked_sub(1).and_then(|i| DIM_CHANGES.get(i)) {
            match change {
                DimChange::Sql(sql) => {
                    db.execute(sql).unwrap();
                }
                DimChange::Swap(generation) => {
                    swaps += 1;
                    let ts = swaps * SECONDS;
                    for (url, owner) in *generation {
                        let row =
                            vec![Value::text(*url), Value::text(*owner), Value::Timestamp(ts)];
                        db.ingest("site_feed", row).unwrap();
                    }
                    db.heartbeat("site_feed", ts + SECONDS).unwrap();
                }
                DimChange::Begin(owner) => {
                    let x = engine.begin().unwrap();
                    let row = vec![Value::text("/u0"), Value::text(*owner)];
                    engine.insert(x, sites, row).unwrap();
                    writer = Some(x);
                }
                DimChange::Commit => engine.commit(writer.take().unwrap()).unwrap(),
                DimChange::Abort => engine.abort(writer.take().unwrap()).unwrap(),
            }
        }
        for (url, v, ts) in chunk {
            let row = vec![
                Value::text(url.clone()),
                Value::Int(*v),
                Value::Timestamp(*ts),
            ];
            db.ingest("hits", row).unwrap();
        }
        let polled: Vec<_> = subs.iter().map(|s| db.poll(*s).unwrap()).collect();
        for (out, windows) in outs.iter_mut().zip(&polled) {
            for o in windows {
                out.push_str(&format!("close={} {:?}\n", o.close, o.relation.rows()));
            }
        }
        let single = |o: &streamrel::cq::CqOutput| o.relation.rows()[0][0].as_int().unwrap();
        let probes = polled[2].iter().zip(&polled[3]);
        let seen = probes.filter(|(_, k)| single(k) > 0);
        matched.push(seen.map(|(n, k)| single(n) / single(k)).collect());
    }
    (outs, matched)
}

#[test]
fn join_mutating_dim_is_byte_identical_under_both_consistency_modes() {
    use streamrel::cq::ConsistencyMode::{QueryStart, WindowBoundary};
    for mode in [WindowBoundary, QueryStart] {
        let (incr, matched) = mutating_dim(DbOptions::default().with_consistency(mode));
        let (reeval, _) = mutating_dim(ivm_off().with_consistency(mode));
        for (i, (got, want)) in incr.iter().zip(&reeval).enumerate() {
            assert!(got.lines().count() > 20, "{mode:?} CQ {i}: {got}");
            assert_eq!(got, want, "join-mutating-dim: {mode:?} CQ {i} diverges");
        }
        // Per run, the `/u0` matches its closes saw. Every run has some.
        assert!(matched.iter().all(|m| !m.is_empty()), "{matched:?}");
        let saw = |run: usize| {
            let mut m = matched[run].clone();
            m.dedup();
            m
        };
        if mode == QueryStart {
            // Pinned at registration: no change is ever seen.
            assert!((0..matched.len()).all(|run| saw(run) == [1]), "{matched:?}");
            continue;
        }
        assert_eq!(saw(0), [1]);
        // The insert, the delete (of another key) and the swap land at
        // the next boundary.
        assert_eq!(saw(1).last(), Some(&2), "{matched:?}");
        assert_eq!(saw(3).last(), Some(&1), "{matched:?}");
        // A writer in flight at a close is not seen there; once committed
        // the next window sees it. An aborted one is never seen.
        assert_eq!(saw(4), [1], "{matched:?}");
        assert_eq!(saw(5).last(), Some(&2), "{matched:?}");
        assert_eq!(saw(6), [2], "{matched:?}");
        assert_eq!(saw(7), [2], "{matched:?}");
    }
}
