//! Property: the shared-slice execution path is observationally identical
//! to the unshared path — for random workloads, every subscribed CQ
//! receives byte-identical window sequences under both modes. This is the
//! end-to-end guarantee behind the paper's "Jellybean processing": sharing
//! is purely an execution strategy, never a semantic change.

use proptest::prelude::*;
use proptest::test_runner::Config;
use streamrel::types::Value;
use streamrel::{Db, DbOptions};

fn run_workload(
    sharing: bool,
    queries: &[(u64, u64)],
    tuples: &[(u8, i64)],
) -> Vec<Vec<(i64, Vec<Vec<String>>)>> {
    let opts = if sharing {
        DbOptions::default()
    } else {
        DbOptions::default().without_sharing()
    };
    let db = Db::in_memory(opts);
    db.execute("CREATE STREAM s (k varchar(4), ts timestamp CQTIME USER)")
        .unwrap();
    let subs: Vec<_> = queries
        .iter()
        .map(|(vis, adv)| {
            db.execute(&format!(
                "SELECT k, count(*) c FROM s \
                 <VISIBLE '{vis} seconds' ADVANCE '{adv} seconds'> \
                 GROUP BY k ORDER BY c DESC, k"
            ))
            .unwrap()
            .subscription()
        })
        .collect();
    let mut clock = 0i64;
    for (key, gap) in tuples {
        clock += gap;
        db.ingest(
            "s",
            vec![
                Value::text(format!("k{}", key % 4)),
                Value::Timestamp(clock),
            ],
        )
        .unwrap();
    }
    db.heartbeat("s", clock + 600_000_000).unwrap();
    subs.into_iter()
        .map(|sub| {
            db.poll(sub)
                .unwrap()
                .into_iter()
                .map(|o| {
                    (
                        o.close,
                        o.relation
                            .rows()
                            .iter()
                            .map(|r| r.iter().map(|v| v.to_string()).collect())
                            .collect(),
                    )
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(Config::with_cases(24))]
    #[test]
    fn shared_equals_unshared(
        // 1-4 queries with windows in whole seconds: visible = k*advance.
        queries in prop::collection::vec((1u64..5, 1u64..4), 1..4),
        tuples in prop::collection::vec((any::<u8>(), 0i64..3_000_000), 1..120),
    ) {
        let queries: Vec<(u64, u64)> = queries
            .into_iter()
            .map(|(k, adv)| (k * adv, adv))
            .collect();
        let shared = run_workload(true, &queries, &tuples);
        let unshared = run_workload(false, &queries, &tuples);
        prop_assert_eq!(shared, unshared);
    }
}

// ---- pooling beyond plain aggregates, against the re-evaluation reference --

const SECONDS: i64 = 1_000_000;

/// The four sliding windows every pooled shape is registered under
/// (VISIBLE, ADVANCE in seconds); their common slice grid is 1 s.
const WINDOWS: [(i64, i64); 4] = [(60, 1), (120, 2), (180, 3), (300, 5)];

/// (shape, CQ with `{w}` standing for the window clause). The first three
/// could not pool before stores and membership were one mechanism:
/// DISTINCT anchors, stream-table join aggregates and aggregates over a
/// projected prefix were private-IVM-only. The next two always could. The
/// last is a join aggregate grouped by a non-join column whose views emit
/// in its ORDER BY order.
const SHAPES: &[(&str, &str)] = &[
    ("distinct", "SELECT DISTINCT k FROM s {w}"),
    (
        "join-agg",
        "SELECT e.k, count(*) c, sum(e.v) t FROM s {w} e \
         JOIN dim d ON e.k = d.k GROUP BY e.k",
    ),
    (
        "projected-prefix",
        "SELECT k, sum(w) t FROM (SELECT k, v * 2 w FROM s {w}) p GROUP BY k",
    ),
    ("count-distinct", "SELECT count(distinct k) n FROM s {w}"),
    (
        "min-max",
        "SELECT k, min(v) lo, max(v) hi FROM s {w} GROUP BY k",
    ),
    (
        "ordered-join-agg",
        "SELECT e.v % 5 m, count(*) c FROM s {w} e \
         JOIN dim d ON e.k = d.k GROUP BY e.v % 5 ORDER BY m DESC",
    ),
];

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

/// Run every shape under every window over `tuples` (`(key, value, ts)`,
/// arrival order), updating `dim` mid-stream, and return each
/// subscription's canonical window sequence plus the database.
fn run_pooled_shapes(opts: DbOptions, tuples: &[(u8, i64, i64)]) -> (Vec<String>, Db) {
    let db = Db::in_memory(opts.with_slack(5 * SECONDS));
    db.execute("CREATE STREAM s (k varchar(4), v integer, ts timestamp CQTIME USER)")
        .unwrap();
    db.execute("CREATE TABLE dim (k varchar(4), owner varchar(8))")
        .unwrap();
    db.execute("INSERT INTO dim VALUES ('k0', 'ann'), ('k1', 'bob'), ('k1', 'cy')")
        .unwrap();
    let mut subs = Vec::new();
    for (_, cq) in SHAPES {
        for (vis, adv) in WINDOWS {
            let w = format!("<VISIBLE '{vis} seconds' ADVANCE '{adv} seconds'>");
            subs.push(db.execute(&cq.replace("{w}", &w)).unwrap().subscription());
        }
    }
    for (i, (key, v, ts)) in tuples.iter().enumerate() {
        if i == tuples.len() / 2 {
            // Between two closes: every later window boundary — and none
            // before — must see the new matches (window consistency).
            db.execute("INSERT INTO dim VALUES ('k2', 'dee'), ('k0', 'eve')")
                .unwrap();
        }
        db.ingest(
            "s",
            vec![
                Value::text(format!("k{}", key % 5)),
                Value::Int(*v),
                Value::Timestamp(*ts),
            ],
        )
        .unwrap();
    }
    let last = tuples.iter().map(|t| t.2).max().unwrap_or(0);
    db.heartbeat("s", last + 600 * SECONDS).unwrap();
    let outs = subs
        .into_iter()
        .map(|sub| {
            let mut out = String::new();
            for o in db.poll(sub).unwrap() {
                out.push_str(&format!("close={} {:?}\n", o.close, o.relation.schema()));
                for r in o.relation.rows() {
                    out.push_str(&format!("{r:?}\n"));
                }
            }
            out
        })
        .collect();
    (outs, db)
}

#[test]
fn every_lowered_shape_pools_across_windows_and_matches_reeval() {
    // 700 s of event time (past the widest window's eviction), irregular
    // steps, and every seventh pair swapped so arrival order differs from
    // CQTIME order inside the 5 s slack.
    let mut ts = 0i64;
    let mut tuples: Vec<(u8, i64, i64)> = (0..900i64)
        .map(|i| {
            ts += ((i * 7919) % 1500 + 50) * 1000;
            ((i * 31 % 7) as u8, (i * 37) % 101 - 50, ts)
        })
        .collect();
    for i in (1..tuples.len()).step_by(7) {
        tuples.swap(i - 1, i);
    }

    let (pooled, db) = run_pooled_shapes(DbOptions::default(), &tuples);
    let (reeval, reference) = run_pooled_shapes(
        DbOptions::default().without_sharing().without_ivm(),
        &tuples,
    );
    assert_eq!(pooled.len(), SHAPES.len() * WINDOWS.len());
    for (i, (p, r)) in pooled.iter().zip(&reeval).enumerate() {
        let (shape, (vis, adv)) = (SHAPES[i / WINDOWS.len()].0, WINDOWS[i % WINDOWS.len()]);
        assert!(!r.is_empty(), "{shape} {vis}/{adv}: no windows emitted");
        assert_eq!(
            p, r,
            "{shape} {vis}/{adv}: pooled output diverges from re-eval"
        );
    }

    // Every CQ is sliced, and each tuple is folded once per store — one
    // store per shape — not once per CQ.
    let cqs = (SHAPES.len() * WINDOWS.len()) as i64;
    assert_eq!(metric(&db, "ivm.lowered"), cqs);
    assert_eq!(metric(&db, "ivm.fallback"), 0);
    let tuples_in = metric(&db, "db.tuples_in");
    assert!(tuples_in > 0);
    assert_eq!(
        metric(&db, "ivm.delta.rows"),
        tuples_in * SHAPES.len() as i64,
        "each tuple folds once per store"
    );
    assert_eq!(metric(&reference, "ivm.lowered"), 0);
    assert_eq!(metric(&reference, "ivm.delta.rows"), 0);

    // With pooling off every CQ still lowers, onto a store of its own.
    let (private, db) = run_pooled_shapes(DbOptions::default().without_sharing(), &tuples);
    assert_eq!(
        private, reeval,
        "private-store output diverges from re-eval"
    );
    assert_eq!(metric(&db, "ivm.delta.rows"), tuples_in * cqs);
}

// ---- cascade: stores over a derived stream, raw-rows stores -------------------

/// CQs with `{w}` for the window clause: an aggregate over the derived
/// stream — one pooled store across its windows — and a plan that is not
/// maintained over each stream, whose windows pool into one raw-rows store
/// per stream.
const CASCADE: &[&str] = &[
    "SELECT k, sum(c) n, max(t) hi FROM per_sec {w} GROUP BY k",
    "SELECT k, c FROM per_sec {w} WHERE c > 1",
    "SELECT k, v FROM s {w} WHERE v > 0",
];
/// A sliding, a coarser sliding and a tumbling window (VISIBLE, ADVANCE s).
const CASCADE_WINDOWS: [(i64, i64); 3] = [(4, 1), (6, 2), (3, 3)];

/// The count windows beside them, each a store of its own on an ordinal
/// clock: ROWS over `s`, ROWS over `n` — the same rows on a stream with no
/// CQTIME — and SLICES 3 over the derived stream.
const COUNTED: &[&str] = &[
    "SELECT k, v, cq_close(*) w FROM s <VISIBLE 5 ROWS ADVANCE 2 ROWS>",
    "SELECT k, v, cq_close(*) w FROM n <VISIBLE 4 ROWS ADVANCE 3 ROWS>",
    "SELECT k, c, t, w FROM per_sec <SLICES 3 WINDOWS> WHERE c > 0",
];

/// Run every cascade CQ under every window over `events` — `(kind, key, v,
/// gap in quarter seconds)`: kind 0 jumps 25× as far, leaving upstream
/// windows heartbeat-only; kind 1 is a heartbeat — plus one late copy of
/// each (4 s, 1 s) CQ registered a third of the way in, reported from its
/// first window that starts after it joined, and the [`COUNTED`] CQs.
fn run_cascade(opts: DbOptions, events: &[(u8, u8, i64, i64)]) -> Vec<String> {
    let db = Db::in_memory(opts);
    db.execute("CREATE STREAM s (k varchar(4), v integer, ts timestamp CQTIME USER)")
        .unwrap();
    db.execute("CREATE STREAM n (k varchar(4), v integer, ts timestamp)")
        .unwrap();
    db.execute(
        "CREATE STREAM per_sec AS SELECT k, count(*) c, sum(v) t, cq_close(*) w \
         FROM s <TUMBLING '1 second'> GROUP BY k",
    )
    .unwrap();
    let subscribe = |cq: &str, (vis, adv): (i64, i64)| {
        let w = format!("<VISIBLE '{vis} seconds' ADVANCE '{adv} seconds'>");
        db.execute(&cq.replace("{w}", &w)).unwrap().subscription()
    };
    let mut subs = Vec::new();
    for cq in CASCADE {
        subs.extend(CASCADE_WINDOWS.map(|w| (subscribe(cq, w), 0)));
    }
    for cq in COUNTED {
        subs.push((db.execute(cq).unwrap().subscription(), 0));
    }
    let mut ts = 0i64;
    for (i, (kind, key, v, gap)) in events.iter().enumerate() {
        if i == events.len() / 3 {
            let from = ts + CASCADE_WINDOWS[0].0 * SECONDS + 1;
            let late = CASCADE.iter().map(|cq| subscribe(cq, CASCADE_WINDOWS[0]));
            subs.extend(late.map(|sub| (sub, from)));
        }
        ts += gap * SECONDS / 4 * if *kind == 0 { 25 } else { 1 };
        if *kind == 1 {
            db.heartbeat("s", ts).unwrap();
            continue;
        }
        let row = vec![
            Value::text(format!("k{}", key % 3)),
            Value::Int(*v),
            Value::Timestamp(ts),
        ];
        db.ingest("s", row.clone()).unwrap();
        db.ingest("n", row).unwrap();
    }
    db.heartbeat("s", ts + 60 * SECONDS).unwrap();
    let outs = subs.into_iter().map(|(sub, from)| {
        let mut out = String::new();
        for o in db.poll(sub).unwrap().iter().filter(|o| o.close >= from) {
            out.push_str(&format!("close={} {:?}\n", o.close, o.relation.rows()));
        }
        out
    });
    outs.collect()
}

proptest! {
    #![proptest_config(Config::with_cases(8))]
    /// A stream is a stream: over a derived stream as over a base one,
    /// pooled stores, private stores and raw-rows stores (`without_ivm`,
    /// pooled and private) emit the same bytes — late joiner included,
    /// from its first window that starts after it joined — and so do the
    /// count windows, whose stores run as pool jobs beside the others.
    #[test]
    fn cascades_are_identical_on_every_path(
        events in prop::collection::vec((0u8..12, 0u8..6, -9i64..10, 0i64..6), 30..180),
    ) {
        let private = DbOptions::default().without_sharing();
        let reference = run_cascade(private.without_ivm(), &events);
        prop_assert!(reference.iter().all(|out| !out.is_empty()));
        for opts in [DbOptions::default(), private, DbOptions::default().without_ivm()] {
            let got = run_cascade(opts, &events);
            for (i, (got, want)) in got.iter().zip(&reference).enumerate() {
                prop_assert_eq!(got, want, "subscription {} diverges under {:?}", i, opts);
            }
        }
    }
}

// ---- membership: leaving a store --------------------------------------------

/// One tuple per second on `s`, keys cycling, from `from` to `to` seconds.
fn drive(db: &Db, from: i64, to: i64) {
    for sec in from..to {
        db.ingest(
            "s",
            vec![
                Value::text(format!("k{}", sec % 4)),
                Value::Timestamp(sec * SECONDS + 1),
            ],
        )
        .unwrap();
    }
}

/// Regression: `unsubscribe` used to drop the CQ but keep its member
/// window in the shared group. A member that left before its first close
/// blocked eviction outright, one that left later froze the horizon, and
/// once the last member had gone the group kept folding every tuple into
/// slices nobody would ever read or evict.
#[test]
fn unsubscribing_releases_slice_store_membership() {
    const SURVIVOR: &str = "SELECT k, count(*) c FROM s \
         <VISIBLE '60 seconds' ADVANCE '10 seconds'> GROUP BY k";
    const LEAVER: &str = "SELECT k, count(*) c FROM s \
         <VISIBLE '60 seconds' ADVANCE '20 seconds'> GROUP BY k";
    // The sibling leaves before its first close (0 s) or after it (70 s).
    for leave_at in [0, 70] {
        let db = Db::in_memory(DbOptions::default());
        db.execute("CREATE STREAM s (k varchar(4), ts timestamp CQTIME USER)")
            .unwrap();
        let survivor = db.execute(SURVIVOR).unwrap().subscription();
        let leaver = db.execute(LEAVER).unwrap().subscription();
        drive(&db, 0, leave_at);
        db.unsubscribe(leaver).unwrap();
        drive(&db, leave_at, 120);
        // Steady state: the store holds the survivor's window and no more.
        let steady = metric(&db, "ivm.state.bytes");
        assert!(steady > 0, "leave_at={leave_at}: live store not accounted");

        // 10× VISIBLE of further event time must not grow it.
        drive(&db, 120, 720);
        let later = metric(&db, "ivm.state.bytes");
        assert!(
            later <= steady * 3 / 2,
            "leave_at={leave_at}: departed member still pins slices \
             ({steady} -> {later} bytes)"
        );
        assert_eq!(db.poll(survivor).unwrap().len(), 71, "survivor undisturbed");

        // The last member takes the store with it: nothing folds any more.
        db.unsubscribe(survivor).unwrap();
        assert_eq!(metric(&db, "ivm.state.bytes"), 0);
        let folded = metric(&db, "ivm.delta.rows");
        assert_eq!(folded, 720);
        drive(&db, 720, 780);
        assert_eq!(
            metric(&db, "ivm.delta.rows"),
            folded,
            "dead store still fed"
        );
        // A later subscriber of the same shape starts a fresh store.
        db.execute(SURVIVOR).unwrap();
        drive(&db, 780, 790);
        assert_eq!(metric(&db, "ivm.delta.rows"), folded + 10);
    }
}

// ---- punctuation travels the data path ---------------------------------------

const MS: i64 = 1_000;

/// One step of a fixed input: a tuple or a heartbeat, at a time in ms.
#[derive(Clone, Copy)]
enum Ev {
    Tuple(i64),
    Beat(i64),
}

/// Feed `events` to a 2 s / 1 s and a 4 s / 2 s `count(*)` (one pool under
/// sharing) and return each one's `(close in s, count)` sequence, the
/// tuples dropped as late, and every call that failed as `(event, error)`.
type Run = (Vec<Vec<(i64, i64)>>, u64, Vec<(usize, String)>);

fn run_events(opts: DbOptions, events: &[Ev]) -> Run {
    let db = Db::in_memory(opts);
    db.execute("CREATE STREAM s (v integer, ts timestamp CQTIME USER)")
        .unwrap();
    let subs: Vec<_> = [(2, 1), (4, 2)]
        .into_iter()
        .map(|(vis, adv)| {
            db.execute(&format!(
                "SELECT count(*) c FROM s <VISIBLE '{vis} seconds' ADVANCE '{adv} seconds'>"
            ))
            .unwrap()
            .subscription()
        })
        .collect();
    let mut errors = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let result = match *ev {
            Ev::Tuple(ms) => db.ingest("s", vec![Value::Int(1), Value::Timestamp(ms * MS)]),
            Ev::Beat(ms) => db.heartbeat("s", ms * MS),
        };
        errors.extend(result.err().map(|e| (i, e.to_string())));
    }
    let outs = subs
        .into_iter()
        .map(|sub| {
            db.poll(sub)
                .unwrap()
                .into_iter()
                .map(|o| (o.close / SECONDS, o.relation.rows()[0][0].as_int().unwrap()))
                .collect()
        })
        .collect();
    (outs, db.stats().late_drops, errors)
}

/// Regression, three fixed inputs. (a) A heartbeat before the first tuple
/// used to fix a sliced CQ's alignment (closes 4..8 s) where the
/// re-evaluation buffer waits for the first tuple (7, 8 s). (b) Heartbeats
/// bypassed the reorder buffer: the tuples slack still held appeared in no
/// window, the sliced path skipped the closes before the heartbeat, and
/// the re-evaluated path failed the next ingest as out of order. (c) With
/// no slack a tuple behind the stream's newest used to be refused only by a
/// re-evaluation buffer: a slice store folded it into a slice its windows
/// had already closed over, and the 4 s / 2 s window at 6 s counted it.
#[test]
fn heartbeats_close_the_same_windows_on_every_path() {
    use Ev::{Beat, Tuple};
    struct Case {
        input: &'static str,
        slack_ms: i64,
        events: &'static [Ev],
        /// The 2 s / 1 s CQ's windows.
        narrow: &'static [(i64, i64)],
        late: u64,
        /// Events whose call fails, on every path alike.
        refused: &'static [usize],
    }
    let cases = [
        Case {
            input: "leading heartbeat",
            slack_ms: 0,
            events: &[Beat(3000), Tuple(6000), Beat(8000)],
            narrow: &[(7, 1), (8, 1)],
            late: 0,
            refused: &[],
        },
        Case {
            input: "slack + interleaved heartbeats",
            slack_ms: 2000,
            events: &[
                Tuple(100),
                Tuple(500),
                Tuple(1200),
                Beat(3000),
                Tuple(6000),
                Tuple(2500), // behind the punctuated time: late
                Beat(7000),
                Tuple(7100),
                Beat(9000),
            ],
            narrow: &[
                (1, 2),
                (2, 3),
                (3, 1),
                (4, 0),
                (5, 0),
                (6, 0),
                (7, 1),
                (8, 2),
                (9, 1),
            ],
            late: 1,
            refused: &[],
        },
        Case {
            input: "no slack, one tuple out of order",
            slack_ms: 0,
            events: &[
                Tuple(500),
                Tuple(1500),
                Tuple(5200),
                Tuple(2300), // older than 5.2 s: refused, on every path
                Tuple(6100),
            ],
            narrow: &[(1, 1), (2, 2), (3, 1), (4, 0), (5, 0), (6, 1)],
            late: 0,
            refused: &[3],
        },
    ];
    for Case {
        input,
        slack_ms,
        events,
        narrow,
        late,
        refused,
    } in cases
    {
        let opts = || DbOptions::default().with_slack(slack_ms * MS);
        let pooled = run_events(opts(), events);
        assert_eq!(pooled.0[0], narrow, "{input}: pooled");
        assert_eq!(pooled.1, late, "{input}: late drops");
        let failed: Vec<usize> = pooled.2.iter().map(|(i, _)| *i).collect();
        assert_eq!(failed, refused, "{input}: refused calls {:?}", pooled.2);
        let private = run_events(opts().without_sharing(), events);
        assert_eq!(private, pooled, "{input}: private diverges from pooled");
        let reeval = run_events(opts().without_sharing().without_ivm(), events);
        assert_eq!(
            reeval, pooled,
            "{input}: re-evaluation diverges from pooled"
        );
    }
}
