//! The engine's own shape claims (DESIGN.md §4) as suites of the
//! experiments runner, beside the paper's: `ivm` (an O(delta) close),
//! `fanout` (serialize-once delivery), `federation` (conserved bridge
//! rows), `ingest` (durable ingest scaling and Active Table upkeep), `obs`
//! and `check` (bounded observability and admission cost).
//!
//! Like the paper's suites, each checks its answers while it measures and
//! claims only what holds on any host: counts, and ratios of two numbers of
//! one run. Its throughput figures are [`Report::rates`], which
//! `scripts/bench_check.sh` bands against the committed file.

use std::collections::HashSet;
use std::error::Error;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use streamrel_check::{check_plan, CheckContext};
use streamrel_core::{Db, DbOptions};
use streamrel_cq::shared::place;
use streamrel_cq::SharedRegistry;
use streamrel_net::{wire, Bridge, BridgeOptions, Client, Server};
use streamrel_obs::Registry;
use streamrel_sql::analyzer::SchemaProvider;
use streamrel_sql::plan::SchemaRef;
use streamrel_sql::{parse_statement, Analyzer, LogicalPlan, RelKind, Statement};
use streamrel_storage::SyncMode;
use streamrel_types::schema::{Column, Schema};
use streamrel_types::time::MINUTES;
use streamrel_types::{row, DataType, Row, Value};
use streamrel_workload::NetsecGen;

use crate::experiments::{Claim, Op, Report, SuiteResult};
use crate::federation::{CONSUMER_STREAM, PRODUCER_DDL};
use crate::{fmt_dur, scale, timed, ResultTable};

// ---- ivm -----------------------------------------------------------------

/// Distinct group keys; keeps slice partials small and merge cost real.
const IVM_GROUPS: i64 = 64;
/// Logical clock step per row (10 ms): one 2-second advance = 200 rows,
/// one 2-minute window = 12 000 buffered rows for the re-eval baseline.
const IVM_STEP_US: i64 = 10_000;
/// VISIBLE ÷ ADVANCE of the close-cost sweep (ADVANCE stays 2 s).
const IVM_RATIOS: [i64; 3] = [6, 60, 300];

fn ivm_cq(ratio: i64, order_by: &str) -> String {
    format!(
        "SELECT url, count(*) c FROM hits \
         <VISIBLE '{} seconds' ADVANCE '2 seconds'> GROUP BY url{order_by}",
        2 * ratio
    )
}

/// What one `ivm` run measured.
struct IvmRun {
    tps: f64,
    closes: u64,
    close_us: f64,
    /// `ivm.compose.merges` per close.
    merges: f64,
    /// `ivm.lowered` once the CQ registered.
    lowered: u64,
    /// `ivm.join.table_scans` at the end.
    scans: u64,
    /// `ivm.keys` at the end, and once a heartbeat has closed every window
    /// and evicted every slice.
    keys: (i64, i64),
}

/// One `ivm` run over `rows` rows (after `warm` untimed ones), in batches
/// of 500; `pages` holds every other url and, with `commits`, takes a
/// one-row commit before every ninth batch (5 times in 24 000 rows).
fn ivm_run(
    opts: DbOptions,
    cq: &str,
    (warm, rows): (usize, usize),
    commits: bool,
) -> Result<IvmRun, Box<dyn Error>> {
    let db = Db::in_memory(opts);
    db.execute("CREATE STREAM hits (url varchar(16), ts timestamp CQTIME USER)")?;
    let page = |g| format!("('/u{}')", 2 * g);
    let pages: Vec<_> = (0..IVM_GROUPS / 2).map(page).collect();
    db.execute("CREATE TABLE pages (url varchar(16))")?;
    db.execute(&format!("INSERT INTO pages VALUES {}", pages.join(", ")))?;
    let sub = db.execute(cq)?.subscription();
    let metrics = db.engine().metrics();
    let lowered = metrics.counter("ivm.lowered").get();
    // The per-subscription close histogram (its count and total µs) and
    // the merge counter, so far.
    let hist = metrics.histogram(&format!("cq.close_us.sub_{}", sub.0));
    let merges = metrics.counter("ivm.compose.merges");
    let closed = || (hist.count(), hist.sum(), merges.get());
    let (mut clock, mut sent, total) = (0i64, 0usize, warm + rows);
    let (mut start, mut before) = (Instant::now(), (0, 0, 0));
    while sent < total {
        if sent == warm {
            (start, before) = (Instant::now(), closed());
        }
        if commits && sent / 500 % 9 == 4 {
            db.execute("INSERT INTO pages VALUES ('/u1')")?;
        }
        let n = 500.min(total - sent);
        let batch: Vec<Row> = (0..n)
            .map(|_| {
                clock += IVM_STEP_US;
                vec![
                    Value::text(format!("/u{}", clock / IVM_STEP_US % IVM_GROUPS)),
                    Value::Timestamp(clock),
                ]
            })
            .collect();
        db.ingest_batch("hits", batch)?;
        sent += n;
    }
    let tps = rows as f64 / start.elapsed().as_secs_f64();
    let after = closed();
    let keys = metrics.gauge("ivm.keys");
    let held = keys.get();
    db.heartbeat("hits", clock + 20 * MINUTES)?;
    let closes = after.0 - before.0;
    let per_close = |total: u64| total as f64 / closes.max(1) as f64;
    Ok(IvmRun {
        tps,
        closes,
        close_us: per_close(after.1 - before.1),
        merges: per_close(after.2 - before.2),
        lowered,
        scans: metrics.counter("ivm.join.table_scans").get(),
        keys: (held, keys.get()),
    })
}

/// Incremental view maintenance against per-window re-evaluation, on the
/// shape IVM exists for: a grouped count whose VISIBLE span is 60× its
/// ADVANCE. Re-evaluation re-folds the whole two-minute buffer at every
/// close; IVM folds each tuple once into its slice partial and slides the
/// window view by the slice that enters and the one that leaves. Both run
/// without pooling, so a private slice store faces the re-evaluation
/// executor (`without_ivm()`); the workload is single-threaded, so the
/// speedup comes from less work per close, not parallelism.
///
/// That a close does not pay for width is a count: `ivm.compose.merges`
/// per close (key partials added, retracted or rebuilt, plus slices probed
/// for where a leaving key was seen next) at VISIBLE ÷ ADVANCE = 6, 60 and
/// 300, once the widest window has filled — as is, and with `ORDER BY url`,
/// whose view emits in key order and so probes nothing. The sweep's close
/// time is printed, not claimed: it is not monotone in the ratio.
///
/// The store's key dictionary holds each live key once: `ivm.keys`
/// equals the distinct groups of the live slices, computed from the input,
/// and reads 0 once a heartbeat has evicted every slice (no id leaks).
///
/// A sliding stream-table join reads its table once per table version:
/// once over an unchanged table however many windows close, and once more
/// per commit between closes. Its close time is printed, not claimed.
pub fn ivm() -> SuiteResult {
    println!("ivm: delta processing vs per-window re-evaluation\n");
    let rows = 40_000 * scale();
    let private = || DbOptions::default().without_sharing();
    let reeval = ivm_run(private().without_ivm(), &ivm_cq(60, ""), (0, rows), false)?;
    let inc = ivm_run(private(), &ivm_cq(60, ""), (0, rows), false)?;
    let speedup = inc.tps / reeval.tps;
    // The keys the live slices hold, from the input: the groups of tuple
    // `i` (at `i` steps) from the next window's low edge (VISIBLE 120 s,
    // ADVANCE 2 s) on.
    let (rows_i, advance) = (rows as i64, 2_000_000);
    let horizon = (rows_i * IVM_STEP_US / advance + 1) * advance - 60 * advance;
    let live: HashSet<i64> = (horizon / IVM_STEP_US..=rows_i)
        .map(|i| i % IVM_GROUPS)
        .collect();
    let close_speedup = reeval.close_us / inc.close_us.max(1e-9);

    let mut table = ResultTable::new(&["configuration", "rows/s", "closes", "mean close"]);
    for (label, r) in [
        ("re-evaluation (IVM ablated)", &reeval),
        ("incremental (IVM)", &inc),
    ] {
        table.row(&[
            label.into(),
            format!("{:.0}", r.tps),
            r.closes.to_string(),
            format!("{:.0} us", r.close_us),
        ]);
    }
    table.print();
    println!(
        "\n{rows} rows, {IVM_GROUPS} groups, VISIBLE/ADVANCE = 60: \
         {speedup:.2}x ingest throughput, {close_speedup:.2}x close latency\n"
    );

    let mut claims = vec![
        // The floor means something only on a plan that lowered.
        Claim::new("lowered", inc.lowered as f64, Op::Eq, 1.0),
        Claim::new(
            "close_counts_equal",
            inc.closes as f64,
            Op::Eq,
            reeval.closes as f64,
        ),
        Claim::new("windows_closed", inc.closes as f64, Op::Gt, 0.0),
        Claim::new("speedup", speedup, Op::Ge, 2.0),
        Claim::new("keys_held", inc.keys.0 as f64, Op::Eq, live.len() as f64),
        Claim::new("keys_after_drain", inc.keys.1 as f64, Op::Eq, 0.0),
    ];
    // Timed once the widest window (600 s of 10 ms steps) has filled.
    let mut table = ResultTable::new(&[
        "VISIBLE/ADVANCE",
        "merges/close",
        "ordered",
        "close us",
        "ordered us",
    ]);
    let (mut merges, mut ordered) = (Vec::new(), Vec::new());
    for ratio in IVM_RATIOS {
        let timed = (62_000, rows / 2);
        let plain = ivm_run(private(), &ivm_cq(ratio, ""), timed, false)?;
        let sorted = ivm_run(private(), &ivm_cq(ratio, " ORDER BY url"), timed, false)?;
        table.row(&[
            ratio.to_string(),
            format!("{:.1}", plain.merges),
            format!("{:.1}", sorted.merges),
            format!("{:.0}", plain.close_us),
            format!("{:.0}", sorted.close_us),
        ]);
        claims.push(Claim::new(
            format!("ordered_below_unordered_at_{ratio}"),
            sorted.merges,
            Op::Lt,
            plain.merges,
        ));
        merges.push(plain.merges);
        ordered.push(sorted.merges);
    }
    table.print();
    let join = "SELECT h.url, count(*) c FROM hits <VISIBLE '20 seconds' ADVANCE '2 seconds'> h \
                JOIN pages p ON h.url = p.url GROUP BY h.url";
    let [still, moved] = [false, true].map(|c| ivm_run(private(), join, (0, 24_000), c));
    let (still, moved) = (still?, moved?);
    println!(
        "\njoin: {} closes, {} table scan(s) over an unchanged table ({:.0} us/close), \
         {} with a commit between closes 5 times ({:.0} us/close)",
        still.closes, still.scans, still.close_us, moved.scans, moved.close_us
    );
    let scans = (still.scans as f64, moved.scans as f64);
    claims.extend([
        Claim::new("join_closes", still.closes as f64, Op::Ge, 100.0),
        Claim::new("join_scans_unchanged_table", scans.0, Op::Eq, 1.0),
        Claim::new("join_scans_after_k_commits", scans.1, Op::Eq, 6.0),
        Claim::new("merges_per_close_flat", merges[2], Op::Le, 1.1 * merges[0]),
        Claim::new(
            "ordered_merges_per_close_flat",
            ordered[2],
            Op::Le,
            1.1 * ordered[0],
        ),
        Claim::new("ordered_merges_at_300", ordered[2], Op::Gt, 0.0),
    ]);
    Ok(Report {
        claims,
        rates: vec![
            ("speedup", speedup),
            ("close_speedup", close_speedup),
            ("ivm_tps", inc.tps),
        ],
        skipped: None,
    })
}

// ---- fanout --------------------------------------------------------------

const EVENTS_DDL: &str = "CREATE STREAM events (v integer, etime timestamp CQTIME USER)";
const SUM_CQ: &str = "SELECT sum(v) total, cq_close(*) w FROM events <TUMBLING '1 minute'>";
/// Windows closed at each sweep point.
const SWEEP_WINDOWS: i64 = 3;
/// TCP connections the members of a sweep point share.
const SWEEP_CONNS: usize = 8;

fn window_rows(w: i64) -> Vec<Row> {
    (0..4)
        .map(|c| {
            vec![
                Value::Int(w * 10 + c),
                Value::Timestamp(w * MINUTES + 10_000_000),
            ]
        })
        .collect()
}

/// One fan-out sweep point, as measured.
struct FanoutPoint {
    conns: usize,
    register_ms: f64,
    deliver_ms: f64,
    encodes: u64,
    windows_sent: u64,
    writes: u64,
    drops_and_lost: u64,
    /// Members whose windows were late, extra, or not byte-identical to
    /// the embedded reference.
    mismatched: u64,
    outbox_depth: i64,
}

/// Poll `read` until it returns `want` or 30 s pass; returns the last read.
fn settle<T: PartialEq>(want: T, read: impl Fn() -> T) -> T {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let got = read();
        if got == want || Instant::now() >= deadline {
            return got;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// `subs` members of one CQ over `SWEEP_CONNS` connections: register
/// them, close the windows, and drain every member.
fn fanout_point(subs: usize, reference: &[(i64, Vec<u8>)]) -> Result<FanoutPoint, Box<dyn Error>> {
    let db = Arc::new(Db::in_memory(DbOptions::default()));
    let server = Server::serve(db.clone(), "127.0.0.1:0")?;
    let addr = server.local_addr();
    let admin = Client::connect(addr)?;
    admin.execute(EVENTS_DDL)?;
    let conns = SWEEP_CONNS.min(subs);
    let clients: Vec<Client> = (0..conns)
        .map(|_| Client::connect(addr))
        .collect::<Result<_, _>>()?;

    // One primary; the other members attach round-robin across the
    // connections — many logical subscriptions per socket.
    let reg_start = Instant::now();
    let primary = clients[0].subscribe(SUM_CQ)?;
    let mut streams = Vec::with_capacity(subs);
    for i in 1..subs {
        streams.push(clients[i % conns].subscribe_attach(primary.id())?);
    }
    streams.push(primary);
    let register_ms = reg_start.elapsed().as_secs_f64() * 1e3;

    let metrics = db.engine().metrics();
    let writes = metrics.counter("net.socket_writes");
    let writes_before = writes.get();
    let deliver_start = Instant::now();
    for w in 0..SWEEP_WINDOWS {
        admin.ingest_batch("events", &window_rows(w))?;
        admin.heartbeat("events", (w + 1) * MINUTES)?;
    }
    // One deadline for the whole drain, so a stall costs 30 s, not 30 s
    // per member.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mismatched = streams
        .iter()
        .filter(|stream| {
            let exact = reference.iter().all(|want| {
                let wait = deadline.saturating_duration_since(Instant::now());
                stream
                    .next_timeout(wait)
                    .is_some_and(|out| (out.close, wire::encode_rows(&out.relation)) == *want)
            });
            !exact || stream.try_next().is_some()
        })
        .count() as u64;
    let deliver_ms = deliver_start.elapsed().as_secs_f64() * 1e3;

    let sent = metrics.counter("net.windows_sent");
    let windows_sent = settle(SWEEP_WINDOWS as u64 * subs as u64, || sent.get());
    let depth = metrics.gauge("net.outbox.depth");
    let point = FanoutPoint {
        conns,
        register_ms,
        deliver_ms,
        encodes: metrics.counter("net.fanout.encodes").get(),
        windows_sent,
        writes: writes.get() - writes_before,
        drops_and_lost: metrics.counter("net.outbox_drops").get()
            + metrics.counter("net.delivery_lost").get(),
        mismatched,
        outbox_depth: settle(0, || depth.get()),
    };
    drop(streams);
    for c in clients {
        let _ = c.close();
    }
    let _ = admin.close();
    server.shutdown();
    Ok(point)
}

/// Serialize-once fan-out (DESIGN.md §6) over a sweep of 1 to 4 000 ×
/// `SCALE` members of one CQ, multiplexed over 8 TCP connections: the
/// reactor holds sockets and buffers, not threads. At every point the
/// window body is encoded once per window, never per member; every member
/// receives each window exactly once, byte-identical to the embedded
/// API's; nothing is shed or lost; the member queues drain to zero; and from
/// 100 members on, a socket's pending copies leave in coalesced writes.
/// Registration stays linear in members.
pub fn fanout() -> SuiteResult {
    let sweep = [1, 10, 100, 1_000, 4_000 * scale()];
    println!(
        "fanout: {SWEEP_WINDOWS} windows to each of {sweep:?} subscribers \
         over <= {SWEEP_CONNS} connections\n"
    );
    // The reference window sequence, through the embedded API.
    let db = Db::in_memory(DbOptions::default());
    db.execute(EVENTS_DDL)?;
    let sub = db.execute(SUM_CQ)?.subscription();
    for w in 0..SWEEP_WINDOWS {
        db.ingest_batch("events", window_rows(w))?;
        db.heartbeat("events", (w + 1) * MINUTES)?;
    }
    let reference: Vec<(i64, Vec<u8>)> = db
        .poll(sub)?
        .iter()
        .map(|o| (o.close, wire::encode_rows(&o.relation)))
        .collect();

    let windows = SWEEP_WINDOWS as f64;
    let mut claims = vec![Claim::new(
        "reference_windows",
        reference.len() as f64,
        Op::Eq,
        windows,
    )];
    let mut table = ResultTable::new(&[
        "subscribers",
        "connections",
        "register ms",
        "deliver ms",
        "encodes",
        "windows sent",
        "writes",
    ]);
    let mut register_per_member = Vec::new();
    for subs in sweep {
        let p = fanout_point(subs, &reference)?;
        table.row(&[
            subs.to_string(),
            p.conns.to_string(),
            format!("{:.1}", p.register_ms),
            format!("{:.1}", p.deliver_ms),
            p.encodes.to_string(),
            p.windows_sent.to_string(),
            p.writes.to_string(),
        ]);
        let sent = p.windows_sent as f64;
        claims.extend([
            Claim::new(
                format!("encodes_at_{subs}"),
                p.encodes as f64,
                Op::Eq,
                windows,
            ),
            Claim::new(
                format!("windows_sent_at_{subs}"),
                sent,
                Op::Eq,
                subs as f64 * windows,
            ),
            Claim::new(
                format!("drops_and_lost_at_{subs}"),
                p.drops_and_lost as f64,
                Op::Eq,
                0.0,
            ),
            Claim::new(
                format!("mismatched_members_at_{subs}"),
                p.mismatched as f64,
                Op::Eq,
                0.0,
            ),
            Claim::new(
                format!("outbox_depth_at_{subs}"),
                p.outbox_depth as f64,
                Op::Eq,
                0.0,
            ),
        ]);
        if subs >= 100 {
            // At most one write(2) per four window frames sent.
            claims.push(Claim::new(
                format!("writes_x4_at_{subs}"),
                4.0 * p.writes as f64,
                Op::Le,
                sent,
            ));
        }
        register_per_member.push(p.register_ms / subs as f64);
    }
    table.print();
    // Per-member registration cost at the top point against 3x its cost at 1 000.
    claims.push(Claim::new(
        "register_cost_linear",
        register_per_member[4],
        Op::Le,
        3.0 * register_per_member[3],
    ));
    Ok(claims.into())
}

// ---- federation ----------------------------------------------------------

/// Shipping a derived stream between nodes over a real TCP link (server
/// and bridge in one process, so the figures are wire, reactor and bridge
/// costs). Live fan-in: a producer streams 200 × `SCALE` windows of 100
/// rows through a derived CQ, and a consumer bridges the partials into a
/// local stream and re-aggregates them; every produced row must land in
/// the consumer's archive exactly once. Archive replay: a late subscriber
/// asks for the whole archived history and drains it — the path a
/// rejoining node takes, so its rate bounds how fast a consumer catches up.
pub fn federation() -> SuiteResult {
    const ROWS_PER_WINDOW: i64 = 100;
    let windows = 200 * scale() as i64;
    println!(
        "federation: {windows} windows x {ROWS_PER_WINDOW} rows across a \
         subscription->ingest bridge\n"
    );
    let producer = Arc::new(Db::in_memory(DbOptions::default()));
    for stmt in PRODUCER_DDL {
        producer.execute(stmt)?;
    }
    let server = Server::serve(producer.clone(), "127.0.0.1:0")?;
    let consumer = Arc::new(Db::in_memory(DbOptions::default()));
    for stmt in [
        CONSUMER_STREAM,
        "CREATE TABLE url_total (url varchar(100), hits bigint, w timestamp)",
        "CREATE STREAM rollup AS SELECT url, sum(scnt) hits, cq_close(*) w \
         FROM partials <TUMBLING '1 minute'> GROUP BY url ORDER BY url",
        "CREATE CHANNEL ct FROM rollup INTO url_total APPEND",
    ] {
        consumer.execute(stmt)?;
    }
    let addr = server.local_addr();
    let bridge = Bridge::start(
        consumer.clone(),
        addr.to_string(),
        "hit_partials",
        "partials",
        BridgeOptions::default(),
    )?;
    if !bridge.wait_until_up(Duration::from_secs(10)) {
        return Err("bridge never attached".into());
    }

    // ---- live fan-in ----
    let total_rows = windows * ROWS_PER_WINDOW;
    let (fed, live_t) = timed(|| -> streamrel_types::Result<()> {
        for w in 0..windows {
            let rows = (0..ROWS_PER_WINDOW).map(|i| {
                vec![
                    Value::text(format!("/p{}", i % 13)),
                    Value::Timestamp(w * MINUTES + i * (MINUTES / ROWS_PER_WINDOW)),
                ]
            });
            producer.ingest_batch("hits", rows.collect())?;
            producer.heartbeat("hits", (w + 1) * MINUTES)?;
        }
        // One empty flush window carries the final watermark across.
        producer.heartbeat("hits", (windows + 1) * MINUTES)?;
        bridge.wait_for_windows(windows as u64 + 1, Duration::from_secs(120));
        Ok(())
    });
    fed?;
    let archived = consumer
        .execute("SELECT coalesce(sum(hits), 0) FROM url_total")?
        .rows();
    let archived = archived.rows()[0][0].as_int()?;

    // ---- archive replay (a rejoining consumer catching up) ----
    let replay_client = Client::connect(addr)?;
    let stream = replay_client.subscribe_from("hit_partials", 0)?;
    let ((replayed, replayed_rows), replay_t) = timed(|| {
        let (mut wins, mut rows) = (0i64, 0usize);
        while wins < windows {
            let Some(out) = stream.next_timeout(Duration::from_secs(30)) else {
                break;
            };
            wins += 1;
            rows += out.relation.len();
        }
        (wins, rows)
    });

    let per_s = |n: f64, t: Duration| n / t.as_secs_f64().max(1e-9);
    let (live_wps, replay_wps) = (
        per_s(windows as f64, live_t),
        per_s(replayed as f64, replay_t),
    );
    let mut table = ResultTable::new(&["phase", "windows", "rows", "time", "windows/s", "rows/s"]);
    table.row(&[
        "live fan-in".into(),
        windows.to_string(),
        total_rows.to_string(),
        fmt_dur(live_t),
        format!("{live_wps:.0}"),
        format!("{:.0}", per_s(total_rows as f64, live_t)),
    ]);
    table.row(&[
        "archive replay".into(),
        replayed.to_string(),
        replayed_rows.to_string(),
        fmt_dur(replay_t),
        format!("{replay_wps:.0}"),
        format!("{:.0}", per_s(replayed_rows as f64, replay_t)),
    ]);
    table.print();

    let claims = vec![
        Claim::new(
            "windows_applied",
            bridge.windows_applied() as f64,
            Op::Eq,
            (windows + 1) as f64,
        ),
        // Every produced row is in the consumer's archive exactly once.
        Claim::new("rows_conserved", archived as f64, Op::Eq, total_rows as f64),
        Claim::new("apply_errors", bridge.apply_errors() as f64, Op::Eq, 0.0),
        Claim::new("reconnects", bridge.reconnects() as f64, Op::Eq, 0.0),
        Claim::new("replayed_windows", replayed as f64, Op::Eq, windows as f64),
    ];
    drop(stream);
    replay_client.close()?;
    bridge.shutdown();
    server.shutdown();
    Ok(Report {
        claims,
        rates: vec![
            ("live_windows_per_s", live_wps),
            ("replay_windows_per_s", replay_wps),
        ],
        skipped: None,
    })
}

// ---- ingest --------------------------------------------------------------

/// Streams, ingester threads, shards and WAL logs of the sharded run.
const INGEST_STREAMS: usize = 4;

/// Feed `INGEST_STREAMS` streams from as many threads for 2.5 s against a
/// durable database in a scratch directory; return aggregate rows/s and
/// `db.archive.row_clones`.
fn ingest_run(tag: &str, opts: DbOptions) -> Result<(f64, u64), Box<dyn Error>> {
    let dir = std::env::temp_dir().join(format!("streamrel-ingest-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Db::open(&dir, opts)?;
    // Every stream archives its raw tuples, so each batch commits through
    // the WAL. The fast streams carry a cheap tumbling count; the slow one
    // re-scans a 10-minute buffer every 5-second advance, grouped and
    // sorted — a stand-in for an expensive report — in batches of 48 that
    // close several windows each.
    let mut feeds: Vec<(String, usize)> = Vec::new();
    for i in 0..INGEST_STREAMS - 1 {
        for ddl in [
            format!("CREATE STREAM s{i} (v integer, ts timestamp CQTIME USER)"),
            format!("SELECT count(*) c, cq_close(*) w FROM s{i} <TUMBLING '1 minute'>"),
            format!("CREATE TABLE raw{i} (v integer, ts timestamp)"),
            format!("CREATE CHANNEL ch{i} FROM s{i} INTO raw{i} APPEND"),
        ] {
            db.execute(&ddl)?;
        }
        feeds.push((format!("s{i}"), 256));
    }
    for ddl in [
        "CREATE STREAM slow (v varchar(8), ts timestamp CQTIME USER)",
        "SELECT v, count(*) c FROM slow <VISIBLE '10 minutes' ADVANCE '5 seconds'> \
         GROUP BY v ORDER BY c DESC, v",
        "CREATE TABLE rawslow (v varchar(8), ts timestamp)",
        "CREATE CHANNEL chslow FROM slow INTO rawslow APPEND",
    ] {
        db.execute(ddl)?;
    }
    feeds.push(("slow".into(), 48));

    let total = AtomicU64::new(0);
    let start = Instant::now();
    let run = Duration::from_millis(2_500);
    std::thread::scope(|s| -> streamrel_types::Result<()> {
        let threads: Vec<_> = feeds
            .iter()
            .map(|(stream, batch)| {
                let (db, total) = (&db, &total);
                s.spawn(move || -> streamrel_types::Result<()> {
                    let mut clock = 0i64;
                    while start.elapsed() < run {
                        let rows = (0..*batch).map(|n| {
                            clock += 1_000_000;
                            let v = match stream.as_str() {
                                "slow" => Value::text(format!("k{}", n % 7)),
                                _ => Value::Int(clock / 1_000_000),
                            };
                            vec![v, Value::Timestamp(clock)]
                        });
                        db.ingest_batch(stream, rows.collect())?;
                        total.fetch_add(*batch as u64, Ordering::SeqCst);
                    }
                    Ok(())
                })
            })
            .collect();
        threads
            .into_iter()
            .try_for_each(|t| t.join().expect("ingester panicked"))
    })?;
    let tps = total.load(Ordering::SeqCst) as f64 / start.elapsed().as_secs_f64();
    let clones = db.engine().metrics().counter("db.archive.row_clones").get();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    Ok((tps, clones))
}

/// Durable ingest under the sharded core with one WAL per shard, against
/// one shard, one log and inline evaluation: four ingesters, each batch
/// committing through the WAL with fsync. The ≥ 1.5× claim needs four
/// cores — on fewer, the CPU budget is fixed and no lock or log layout can
/// multiply aggregate throughput — so a smaller host records the suite as
/// skipped, with its reason, and claims only the second part.
///
/// Their streams archive into one channel each, which moves the rows:
/// none is cloned. The last part is the shape of Active Table upkeep: one
/// stream, a per-second count over 100 groups into an APPEND and a REPLACE
/// table, 20 000 windows and no `VACUUM`. What a REPLACE commit scans (a
/// count that repeats exactly) must not grow with the history, nor what
/// the table holds: refreshing it costs the delta, not the history.
pub fn ingest() -> SuiteResult {
    println!("ingest: sharded core + per-shard WAL vs one lock and one log (durable, fsync)\n");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let durable = || DbOptions::default().with_sync(SyncMode::Fsync);
    let (baseline, baseline_clones) =
        ingest_run("baseline", durable().with_shards(1).with_pool_workers(0))?;
    let (sharded, sharded_clones) = ingest_run("sharded", durable().with_shards(INGEST_STREAMS))?;
    let speedup = sharded / baseline;
    let mut table = ResultTable::new(&["configuration", "aggregate rows/s"]);
    table.row(&[
        "1 shard, 1 wal log, inline eval".into(),
        format!("{baseline:.0}"),
    ]);
    table.row(&[
        format!("{INGEST_STREAMS} shards, {INGEST_STREAMS} wal logs, worker pool"),
        format!("{sharded:.0}"),
    ]);
    table.print();
    println!("\n{INGEST_STREAMS} ingesters on {cores} core(s): {speedup:.2}x\n");
    let clones = baseline_clones + sharded_clones;
    println!("rows cloned into single-channel archives: {clones}\n");

    const WINDOWS: i64 = 20_000;
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
        db.execute(ddl)?;
    }
    let scanned = db
        .engine()
        .metrics()
        .counter("storage.replace.versions_scanned");
    let mut at = [0; 2];
    // The batch of second `w` closes window `w`.
    for w in 0..=WINDOWS {
        let before = scanned.get();
        let rows = (0..100).map(|k| vec![Value::Int(k), Value::Timestamp(w * 1_000_000 + k)]);
        db.ingest_batch("clicks", rows.collect())?;
        match w {
            100 => at[0] = scanned.get() - before,
            WINDOWS => at[1] = scanned.get() - before,
            _ => {}
        }
    }
    let held = db.engine().table("current")?.heap.version_count();
    println!(
        "a REPLACE commit visits {} versions at window 100 and {} at window {WINDOWS}; \
         the table ends holding {held}",
        at[0], at[1]
    );

    let mut claims = vec![
        Claim::new("archive_row_clones", clones as f64, Op::Eq, 0.0),
        Claim::new("replace_scanned_at_20000", at[1] as f64, Op::Gt, 0.0),
        Claim::new(
            "replace_scan_flat",
            at[1] as f64,
            Op::Le,
            1.1 * at[0] as f64,
        ),
        Claim::new("replace_heap_versions_end", held as f64, Op::Gt, 0.0),
        // At most three windows of the 100 groups.
        Claim::new("replace_heap_versions_bounded", held as f64, Op::Le, 300.0),
    ];
    let skipped = (cores < INGEST_STREAMS).then(|| {
        format!(
            "host has {cores} core(s); the 1.5x claim needs {INGEST_STREAMS} — \
             aggregate throughput cannot scale past the CPU budget"
        )
    });
    if skipped.is_none() {
        claims.push(Claim::new("speedup", speedup, Op::Ge, 1.5));
    }
    Ok(Report {
        claims,
        rates: vec![("speedup", speedup)],
        skipped,
    })
}

// ---- obs -----------------------------------------------------------------

/// What the observability layer costs on E1's ingest path. The registry
/// is always on, so "off vs on" cannot be compared; instead the suite runs
/// E1's continuous ingest, then replays the instrument operations it
/// performed — counter bumps, gauge moves, clock reads and histogram
/// observations — against a private registry ten times over. Even that
/// inflated replay stays under 5 % of the ingest time.
pub fn obs() -> SuiteResult {
    println!("obs: metrics-layer cost on the E1 ingest path\n");
    const CHUNK: usize = 20_000;
    const REPLAY_FACTOR: u64 = 10;
    let n = 200_000 * scale();
    let db = Db::in_memory(DbOptions::default());
    db.execute(&NetsecGen::create_stream_sql("events"))?;
    db.execute(
        "CREATE TABLE deny_report (src_ip varchar(40), denies bigint, \
         total_bytes bigint, w timestamp)",
    )?;
    db.execute(&NetsecGen::continuous_sql("events", "deny_now", "1 minute"))?;
    db.execute("CREATE CHANNEL ch FROM deny_now INTO deny_report APPEND")?;
    let mut gen = NetsecGen::new(11, 5_000, 0, 10_000);
    let rows = gen.take_rows(n);
    let clock = gen.clock();
    let (fed, ingest_t) = timed(|| {
        for chunk in rows.chunks(CHUNK) {
            db.ingest_batch("events", chunk.to_vec())?;
        }
        db.heartbeat("events", clock + MINUTES)
    });
    fed?;
    // Each close is one histogram observation plus a trace event.
    let windows = db.stats().windows_out;

    // Per ingest batch the engine pays ~1 clock read, a handful of counter
    // bumps and 1 commit-latency observation; per window close, 1
    // close-latency observation plus counters. Every batch through a
    // stream also times its store and post-plan phases, and its archive
    // when the stream has a channel (at most 3 reads, 3 observations).
    let batches = rows.chunks(CHUNK).len() as u64 + 1; // + heartbeat
    let reg = Registry::new(1024);
    let counter = reg.counter("replay.counter");
    let gauge = reg.gauge("replay.gauge");
    let hist = reg.histogram("replay.hist_us");
    let phases = || (0..3).for_each(|_| hist.observe_from(Instant::now()));
    let (_, obs_t) = timed(|| {
        for _ in 0..REPLAY_FACTOR {
            for _ in 0..batches {
                let start = Instant::now();
                counter.add(CHUNK as u64);
                (0..3).for_each(|_| counter.inc());
                gauge.add(1);
                hist.observe_from(start);
                phases();
            }
            for _ in 0..windows {
                let start = Instant::now();
                counter.inc();
                gauge.add(-1);
                hist.observe_from(start);
                reg.trace().record("replay", "bench", "window close", 0);
                phases();
            }
        }
    });

    let share = obs_t.as_secs_f64() / ingest_t.as_secs_f64().max(1e-9);
    let mut table = ResultTable::new(&[
        "tuples",
        "windows",
        "ingest",
        "obs replay (10x)",
        "overhead bound",
    ]);
    table.row(&[
        n.to_string(),
        windows.to_string(),
        fmt_dur(ingest_t),
        fmt_dur(obs_t),
        format!("{:.3}%", share * 100.0),
    ]);
    table.print();
    Ok(vec![Claim::new("overhead_share", share, Op::Lt, 0.05)].into())
}

// ---- check ---------------------------------------------------------------

struct CheckProvider;

impl SchemaProvider for CheckProvider {
    fn relation(&self, name: &str) -> Option<(SchemaRef, RelKind)> {
        let cols = |c: &[(&str, DataType)]| {
            Arc::new(Schema::new_unchecked(
                c.iter().map(|(n, t)| Column::new(*n, *t)).collect(),
            ))
        };
        match name {
            "hits" => Some((
                cols(&[
                    ("ts", DataType::Timestamp),
                    ("url", DataType::Text),
                    ("bytes", DataType::Int),
                ]),
                RelKind::Stream { cqtime: Some(0) },
            )),
            "sites" => Some((
                cols(&[("url", DataType::Text), ("owner", DataType::Text)]),
                RelKind::Table,
            )),
            _ => None,
        }
    }
}

const CHECK_QUERIES: &[&str] = &[
    "SELECT url, bytes FROM hits <VISIBLE '5 minutes' ADVANCE '1 minute'>",
    "SELECT url, count(*) c, sum(bytes) b FROM hits <TUMBLING '1 minute'> GROUP BY url",
    "SELECT h.url, s.owner FROM hits <VISIBLE 100 ROWS ADVANCE 10 ROWS> h \
     JOIN sites s ON h.url = s.url",
    "SELECT url FROM hits <VISIBLE '2 minutes' ADVANCE '1 minute'> ORDER BY url",
    // The tumbling aggregate's shape on a finer grid: shared-grid-mismatch.
    "SELECT url, count(*) c, sum(bytes) b FROM hits \
     <VISIBLE '90 seconds' ADVANCE '30 seconds'> GROUP BY url",
    "SELECT url, count(*) c FROM hits GROUP BY url", // rejected: unbounded
];

fn plan_of(sql: &str) -> Result<LogicalPlan, Box<dyn Error>> {
    let Statement::Select(q) = parse_statement(sql)? else {
        return Err(format!("not a select: {sql}").into());
    };
    Ok(Analyzer::new(&CheckProvider).analyze(&q)?.plan)
}

/// What the Level-1 admission analysis costs at CQ registration. A CQ
/// registers once and runs for days, but clients subscribe on connect and
/// recovery re-admits every persisted derived stream, so the gate must
/// stay cheap. `check_plan` runs over representative shapes — windowed
/// scan, shared-shape aggregate, stream-table join, raw-stream sort, the
/// aggregate on a grid the live store cannot take, and an unbounded plan it
/// rejects — against a live store set (one pooled store with data in it,
/// as the engine hands it over under the shard lock).
pub fn check() -> SuiteResult {
    println!("check: Level-1 admission analysis per CQ registration\n");
    let iters = 2_000 * scale();
    let plans: Vec<LogicalPlan> = CHECK_QUERIES
        .iter()
        .map(|q| plan_of(q))
        .collect::<Result<_, _>>()?;
    // `hits`' store set: the tumbling aggregate's pooled store, its
    // one-minute grid pinned by a folded tuple.
    let mut registry = SharedRegistry::default();
    let program = place(&plans[1], true, true, None)
        .program
        .ok_or("the tumbling aggregate does not lower")?;
    registry.join(&program, true, None)?;
    let batch = Arc::from([row![Value::Timestamp(1), "/a", 10i64]]);
    let pinned = registry.advance(&batch, None, false, None, None);
    if let Some((_, e)) = pinned.failed.into_iter().next() {
        return Err(e.into());
    }
    let ctx = CheckContext {
        sharing: true,
        ivm: true,
        registry: Some(&registry),
        budget: None,
    };
    let reports: Vec<_> = plans.iter().map(|p| check_plan(p, &ctx)).collect();
    let rejected = reports.iter().filter(|r| r.rejection().is_some()).count();
    let mismatched = reports
        .iter()
        .flat_map(|r| &r.findings)
        .filter(|f| f.rule == "shared-grid-mismatch")
        .count();

    let (findings, total) = timed(|| {
        let mut n = 0;
        for _ in 0..iters {
            for p in &plans {
                // The report is the registration gate's entire cost.
                n += check_plan(p, &ctx).findings.len();
            }
        }
        n
    });
    let per_cq_us = total.as_secs_f64() * 1e6 / (iters * plans.len()) as f64;
    let mut table = ResultTable::new(&["plans", "checks run", "findings", "total", "mean per CQ"]);
    table.row(&[
        plans.len().to_string(),
        (iters * plans.len()).to_string(),
        findings.to_string(),
        fmt_dur(total),
        format!("{per_cq_us:.2} us"),
    ]);
    table.print();
    Ok(vec![
        // The unbounded plan is the one rejection.
        Claim::new("rejected_plans", rejected as f64, Op::Eq, 1.0),
        // The live grid is what the rule reads.
        Claim::new("grid_mismatches", mismatched as f64, Op::Eq, 1.0),
        Claim::new("mean_analysis_us", per_cq_us, Op::Lt, 1_000.0),
    ]
    .into())
}
