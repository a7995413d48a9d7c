//! The paper's experiments and the engine's own shape claims (DESIGN.md
//! §4) as the suites of one runner.
//!
//! The paper is a CIDR vision paper: its evaluation is Figure 1 plus
//! narrative claims, and each maps to one suite of [`SUITES`] — `f1` and
//! `e1`–`e8`. The engine's claims (an O(delta) close, serialize-once
//! fan-out, …) are the six suites of [`crate::subsystems`]. A suite runs its
//! workload, prints the table EXPERIMENTS.md records, and returns a
//! [`Report`]: the [`Claim`]s its shape rests on, and its throughput rates.
//! A claim either checks an answer (both architectures agree, no window is
//! mixed) or compares two numbers from the same run — a ratio of two
//! timings, never an absolute time — so it holds or fails alike on any
//! host.
//!
//! The `experiments` binary runs every suite (or the ones named on its
//! command line), writes `BENCH_experiments.json` with [`record`] and exits
//! 1 if any claim failed; `scripts/bench_check.sh` gates that file.
//! `SCALE` (default 1) multiplies every workload size and is the only knob.

use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

use streamrel_core::{Db, DbOptions};
use streamrel_cq::recovery::load_watermark;
use streamrel_cq::ConsistencyMode;
use streamrel_storage::SyncMode;
use streamrel_types::time::{MINUTES, SECONDS, WEEKS};
use streamrel_types::{format_timestamp, Row, Timestamp, Value};
use streamrel_workload::{ClickstreamGen, NetsecGen};

use crate::baseline::{BatchMatView, MiniMr, MrConfig, RefreshMode, StoreFirst};
use crate::subsystems::{check, fanout, federation, ingest, ivm, obs};
use crate::{fmt_dur, growth_factor, scale, timed, ResultTable};

/// What a suite returns: its report, or a harness fault (an engine call
/// failed), which is not a claim that failed.
pub type SuiteResult = Result<Report, Box<dyn Error>>;

/// One suite's run.
pub type SuiteRun = fn() -> SuiteResult;

/// Every suite, in run order, by name. A new experiment is one more entry.
pub const SUITES: [(&str, SuiteRun); 15] = [
    ("f1", f1),
    ("e1", e1),
    ("e2", e2),
    ("e3", e3),
    ("e4", e4),
    ("e5", e5),
    ("e6", e6),
    ("e7", e7),
    ("e8", e8),
    ("ivm", ivm),
    ("fanout", fanout),
    ("federation", federation),
    ("ingest", ingest),
    ("obs", obs),
    ("check", check),
];

/// What one suite run found.
#[derive(Debug, Default)]
pub struct Report {
    /// The claims its shape rests on; every one must hold.
    pub claims: Vec<Claim>,
    /// Throughput figures (higher is better) that `scripts/bench_check.sh`
    /// bands against the committed file.
    pub rates: Vec<(&'static str, f64)>,
    /// Why this host cannot measure the rates meaningfully (too few
    /// cores); a skipped suite's rates are exempt from the band.
    pub skipped: Option<String>,
}

impl From<Vec<Claim>> for Report {
    fn from(claims: Vec<Claim>) -> Report {
        Report {
            claims,
            ..Report::default()
        }
    }
}

/// The suites named on the command line, in [`SUITES`] order (all of them
/// when none is named). An unknown name is an error listing the valid ones.
pub fn select(names: &[String]) -> Result<Vec<(&'static str, SuiteRun)>, String> {
    let valid: Vec<&str> = SUITES.iter().map(|(name, _)| *name).collect();
    if let Some(unknown) = names.iter().find(|n| !valid.contains(&n.as_str())) {
        return Err(format!(
            "unknown suite `{unknown}`; valid suites: {}",
            valid.join(", ")
        ));
    }
    Ok(SUITES
        .into_iter()
        .filter(|(name, _)| names.is_empty() || names.iter().any(|n| n == name))
        .collect())
}

/// The committed results file, which only a run of every suite rewrites.
pub const RESULTS: &str = "BENCH_experiments.json";

/// Where a run of `selected` suites records: [`RESULTS`] for a full run;
/// a file under `target/` for a subset, which would otherwise replace the
/// committed fifteen suites with its few.
pub fn results_path(selected: usize) -> &'static str {
    if selected == SUITES.len() {
        RESULTS
    } else {
        "target/BENCH_experiments.subset.json"
    }
}

/// Run one suite, stamping its name on every claim it returns.
pub fn run_suite(name: &'static str, run: SuiteRun) -> SuiteResult {
    let mut report = run()?;
    for claim in &mut report.claims {
        claim.suite = name;
    }
    Ok(report)
}

/// A number as JSON: `null` where it is no finite number.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        num(v)
    } else {
        "null".into()
    }
}

/// Write the results file `path`: `head`'s fields (values already JSON),
/// then each suite's seconds, claims, rates and skip reason under
/// `suites.<name>`. Prints `FAIL <path>: <claim>` for every claim that
/// failed and returns how many did. The experiments and torture runners
/// both write through it, so one rule of `scripts/bench_check.sh` gates
/// every results file.
pub fn record(
    path: &str,
    head: &[(&str, String)],
    suites: &[(&str, f64, Report)],
) -> std::io::Result<usize> {
    let mut json = String::from("{\n");
    for (key, value) in head {
        let _ = writeln!(json, "  \"{key}\": {value},");
    }
    json.push_str("  \"suites\": {");
    let mut failed = 0;
    for (i, (name, secs, report)) in suites.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            json,
            "{sep}\n    \"{name}\": {{\n      \"secs\": {secs:.3},\n      \"claims\": ["
        );
        for (j, c) in report.claims.iter().enumerate() {
            let sep = if j == 0 { "" } else { "," };
            let _ = write!(
                json,
                "{sep}\n        {{ \"name\": \"{}\", \"value\": {}, \"op\": \"{}\", \
                 \"bound\": {}, \"held\": {} }}",
                c.name,
                json_num(c.value),
                c.op,
                json_num(c.bound),
                c.held()
            );
            if !c.held() {
                failed += 1;
                eprintln!("FAIL {path}: {c}");
            }
        }
        let rates: Vec<String> = report
            .rates
            .iter()
            .map(|(rate, v)| format!("\"{rate}\": {}", json_num(*v)))
            .collect();
        let skipped = match &report.skipped {
            Some(why) => format!("\"{}\"", why.replace('\\', "\\\\").replace('"', "\\\"")),
            None => "null".into(),
        };
        let _ = write!(
            json,
            "\n      ],\n      \"rates\": {{{}}},\n      \"skipped\": {skipped}\n    }}",
            rates.join(", ")
        );
    }
    json.push_str("\n  }\n}\n");
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, json)?;
    Ok(failed)
}

/// How a claim's value must compare with its bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Lt,
    Le,
    Eq,
    Ge,
    Gt,
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Op::Lt => "<",
            Op::Le => "<=",
            Op::Eq => "==",
            Op::Ge => ">=",
            Op::Gt => ">",
        })
    }
}

/// One named shape claim of a suite: `value op bound`. A NaN never holds.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// The suite that made it (stamped by [`run_suite`]).
    pub suite: &'static str,
    /// What it claims, in snake case.
    pub name: String,
    /// What the run measured.
    pub value: f64,
    /// How `value` must compare with `bound`.
    pub op: Op,
    /// The bound: a constant, or the other number of the same run.
    pub bound: f64,
}

impl Claim {
    /// A claim of the suite that returns it.
    pub fn new(name: impl Into<String>, value: f64, op: Op, bound: f64) -> Claim {
        Claim {
            suite: "",
            name: name.into(),
            value,
            op,
            bound,
        }
    }

    /// Whether `value op bound` holds.
    pub fn held(&self) -> bool {
        let (v, b) = (self.value, self.bound);
        match self.op {
            Op::Lt => v < b,
            Op::Le => v <= b,
            Op::Eq => v == b,
            Op::Ge => v >= b,
            Op::Gt => v > b,
        }
    }
}

impl fmt::Display for Claim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}: {} (want {} {}) {}",
            self.suite,
            self.name,
            num(self.value),
            self.op,
            num(self.bound),
            if self.held() { "held" } else { "FAILED" }
        )
    }
}

/// A claim's number as it is printed: an integral value without a
/// fraction, anything else to three places.
pub fn num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

/// Ingest `rows` into `stream` in batches of 20 000.
fn feed(db: &Db, stream: &str, rows: &[Row]) -> streamrel_types::Result<()> {
    for chunk in rows.chunks(20_000) {
        db.ingest_batch(stream, chunk.to_vec())?;
    }
    Ok(())
}

/// The deny report of E1 and E5: the netsec stream, its per-minute
/// continuous query, and an APPEND channel into `deny_report`.
fn deny_report_db() -> streamrel_types::Result<Db> {
    let db = Db::in_memory(DbOptions::default());
    db.execute(&NetsecGen::create_stream_sql("events"))?;
    db.execute(
        "CREATE TABLE deny_report (src_ip varchar(40), denies bigint, \
         total_bytes bigint, w timestamp)",
    )?;
    db.execute(&NetsecGen::continuous_sql("events", "deny_now", "1 minute"))?;
    db.execute("CREATE CHANNEL ch FROM deny_now INTO deny_report APPEND")?;
    Ok(db)
}

// ---- F1 ------------------------------------------------------------------

/// F1 — Figure 1, "Windows Produce a Sequence of Tables": the paper's
/// Example 2 window clause over a small clickstream, printing each window
/// relation and the query result over it (RSTREAM semantics).
fn f1() -> SuiteResult {
    println!("F1: Figure 1 — windows produce a sequence of tables\n");
    let db = Db::in_memory(DbOptions::default());
    db.execute(
        "CREATE STREAM url_stream (url varchar(1024), \
         atime timestamp CQTIME USER, client_ip varchar(50))",
    )?;
    // Raw window contents (SELECT *) and the aggregated query, side by
    // side, per window.
    let raw = db
        .execute("SELECT url, atime FROM url_stream <VISIBLE '2 minutes' ADVANCE '1 minute'>")?
        .subscription();
    let agg = db
        .execute(
            "SELECT url, count(*) url_count FROM url_stream \
             <VISIBLE '2 minutes' ADVANCE '1 minute'> \
             GROUP BY url ORDER BY url_count DESC",
        )?
        .subscription();

    let clicks = [
        ("/home", 10i64),
        ("/buy", 30),
        ("/home", 50),
        ("/home", MINUTES + 10),
        ("/buy", MINUTES + 40),
        ("/home", 2 * MINUTES + 5),
    ];
    for (url, ts) in clicks {
        db.ingest(
            "url_stream",
            vec![
                Value::text(url),
                Value::Timestamp(ts),
                Value::text("1.2.3.4"),
            ],
        )?;
    }
    db.heartbeat("url_stream", 3 * MINUTES)?;

    let raw_windows = db.poll(raw)?;
    let agg_windows = db.poll(agg)?;
    println!(
        "the stream was cut into {} window relations (ADVANCE = 1 minute):\n",
        raw_windows.len()
    );
    for (rw, aw) in raw_windows.iter().zip(&agg_windows) {
        println!(
            "== window closing at {} (VISIBLE = last 2 minutes) ==",
            format_timestamp(rw.close)
        );
        println!("window relation ({} tuples):", rw.relation.len());
        print!("{}", rw.relation.to_table());
        println!("query result over this relation:");
        print!("{}", aw.relation.to_table());
        println!();
    }
    Ok(vec![
        // Clicks in minutes 0-2 and a heartbeat at 3: closes at 1, 2, 3.
        Claim::new("windows", raw_windows.len() as f64, Op::Eq, 3.0),
        Claim::new(
            "query_results_per_window",
            agg_windows.len() as f64,
            Op::Eq,
            raw_windows.len() as f64,
        ),
    ]
    .into())
}

// ---- E1 ------------------------------------------------------------------

/// E1 — the §4 anecdote: a batch network-security report that took "over
/// 20 minutes" is produced "in milliseconds" by running the query
/// continuously into an Active Table. At each raw-data volume: the
/// store-first report (scan + aggregate) against a lookup of the
/// continuously maintained table. The speedup grows with volume, since
/// the lookup is (near-)constant while the scan is linear.
fn e1() -> SuiteResult {
    println!("E1: §4 network-security report — batch vs continuous\n");
    let sizes = [50_000usize, 200_000, 800_000].map(|n| n * scale());
    let mut table = ResultTable::new(&[
        "raw rows",
        "batch store",
        "batch query",
        "cont ingest",
        "active lookup",
        "speedup",
    ]);
    let mut speedups = Vec::new();
    let (mut src_mismatches, mut denies_mismatches) = (0, 0);

    for n in sizes {
        // ---- store-first-query-later ----
        let mut sf = StoreFirst::new(&NetsecGen::create_table_sql("raw"), "raw")?;
        let mut gen = NetsecGen::new(11, 5_000, 0, 10_000);
        let rows = gen.take_rows(n);
        let (loaded, store_t) = timed(|| sf.load(rows.clone()));
        loaded?;
        let report_sql = NetsecGen::report_sql("raw");
        let (batch_rel, batch_t) = timed(|| sf.run_report(&report_sql));
        let batch_rel = batch_rel?;

        // ---- continuous analytics ----
        let db = deny_report_db()?;
        let clock = gen.clock();
        let (fed, ingest_t) = timed(|| {
            feed(&db, "events", &rows)?;
            db.heartbeat("events", clock + MINUTES)
        });
        fed?;
        let lookup_sql = "SELECT src_ip, sum(denies) denies, sum(total_bytes) tb \
                          FROM deny_report GROUP BY src_ip \
                          ORDER BY denies DESC LIMIT 20";
        let (cont_rel, lookup_t) = timed(|| db.execute(lookup_sql));
        let cont_rel = cont_rel?.rows();

        // Same top offender and same deny count, different architecture.
        let (batch_top, cont_top) = (&batch_rel.rows()[0], &cont_rel.rows()[0]);
        src_mismatches += usize::from(batch_top[0] != cont_top[0]);
        denies_mismatches += usize::from(batch_top[1] != cont_top[1]);

        let speedup = batch_t.as_secs_f64() / lookup_t.as_secs_f64().max(1e-9);
        speedups.push(speedup);
        table.row(&[
            n.to_string(),
            fmt_dur(store_t),
            fmt_dur(batch_t),
            fmt_dur(ingest_t),
            fmt_dur(lookup_t),
            format!("{speedup:.0}x"),
        ]);
    }
    table.print();
    let (first, last) = (speedups[0], speedups[speedups.len() - 1]);
    Ok(vec![
        Claim::new("top_src_ip_mismatches", src_mismatches as f64, Op::Eq, 0.0),
        Claim::new(
            "top_denies_mismatches",
            denies_mismatches as f64,
            Op::Eq,
            0.0,
        ),
        // The speedup at the largest volume against the one at the smallest.
        Claim::new("speedup_grows_with_volume", last, Op::Gt, first),
    ]
    .into())
}

// ---- E2 ------------------------------------------------------------------

/// E2 — §1.1 "Network Effect #1: More Data": as stored volume grows, the
/// store-first report latency grows ~linearly (it re-scans everything),
/// while the continuous path's report lookup stays flat and its ingest
/// cost stays per-tuple.
fn e2() -> SuiteResult {
    println!("E2: §1.1 data growth sweep — report latency vs total volume\n");
    let sizes = [30_000usize, 100_000, 300_000, 1_000_000].map(|n| n * scale());
    let report = "SELECT url, count(*) c FROM raw GROUP BY url ORDER BY c DESC LIMIT 10";
    let mut table = ResultTable::new(&[
        "total rows",
        "store-first report",
        "continuous lookup",
        "cont per-tuple ingest",
    ]);
    let mut batch_lat = Vec::new();
    let mut cont_lat = Vec::new();

    for n in sizes {
        // Store-first.
        let mut sf = StoreFirst::new(&ClickstreamGen::create_table_sql("raw"), "raw")?;
        let mut gen = ClickstreamGen::new(21, 5_000, 0, 10_000);
        let rows = gen.take_rows(n);
        sf.load(rows.clone())?;
        let (batch, t_batch) = timed(|| sf.run_report(report));
        batch?;

        // Continuous: per-minute top-URL counts into an Active Table; the
        // "current report" reads the last windows.
        let db = Db::in_memory(DbOptions::default());
        db.execute(&ClickstreamGen::create_stream_sql("clicks"))?;
        db.execute("CREATE TABLE tops (url varchar(1024), c bigint, w timestamp)")?;
        db.execute(
            "CREATE STREAM top_now AS SELECT url, count(*) c, cq_close(*) w \
             FROM clicks <TUMBLING '1 minute'> GROUP BY url",
        )?;
        db.execute("CREATE CHANNEL ch FROM top_now INTO tops REPLACE")?;
        let clock = gen.clock();
        let (fed, t_ingest) = timed(|| {
            feed(&db, "clicks", &rows)?;
            db.heartbeat("clicks", clock + MINUTES)
        });
        fed?;
        let (cont, t_cont) =
            timed(|| db.execute("SELECT url, c FROM tops ORDER BY c DESC LIMIT 10"));
        cont?;

        batch_lat.push(t_batch.as_secs_f64());
        cont_lat.push(t_cont.as_secs_f64());
        table.row(&[
            n.to_string(),
            fmt_dur(t_batch),
            fmt_dur(t_cont),
            format!("{:.2}µs", t_ingest.as_micros() as f64 / n as f64),
        ]);
    }
    table.print();

    let volume_growth = growth_factor(&sizes.map(|s| s as f64));
    let batch_growth = growth_factor(&batch_lat);
    let cont_growth = growth_factor(&cont_lat);
    println!(
        "\nper-step growth over {} steps: volume {volume_growth:.1}x, \
         store-first latency {batch_growth:.2}x, continuous lookup {cont_growth:.2}x",
        sizes.len() - 1
    );
    Ok(vec![
        // Store-first latency's per-step growth over the lookup's.
        Claim::new(
            "store_first_outgrows_continuous",
            batch_growth / cont_growth,
            Op::Gt,
            1.3,
        ),
    ]
    .into())
}

// ---- E3 ------------------------------------------------------------------

/// One E3 run: `n_cqs` top-URL CQs over one stream, shared or not. Returns
/// the ingest time and how many CQs disagree with the first one's final
/// top URL (or closed no window).
fn e3_run(
    n_cqs: usize,
    sharing: bool,
    rows: &[Row],
    end: Timestamp,
) -> Result<(std::time::Duration, usize), Box<dyn Error>> {
    let opts = if sharing {
        DbOptions::default()
    } else {
        DbOptions::default().without_sharing()
    };
    let db = Db::in_memory(opts);
    db.execute(&ClickstreamGen::create_stream_sql("clicks"))?;
    let mut subs = Vec::new();
    for i in 0..n_cqs {
        let visible = 1 + (i % 4);
        subs.push(
            db.execute(&format!(
                "SELECT url, count(*) c FROM clicks \
                 <VISIBLE '{visible} minutes' ADVANCE '1 minute'> \
                 GROUP BY url ORDER BY c DESC LIMIT 10"
            ))?
            .subscription(),
        );
    }
    let (fed, t) = timed(|| {
        for chunk in rows.chunks(10_000) {
            db.ingest_batch("clicks", chunk.to_vec())?;
        }
        db.heartbeat("clicks", end)
    });
    fed?;
    let mut tops = Vec::new();
    for sub in subs {
        let outs = db.poll(sub)?;
        tops.push(outs.last().map(|last| last.relation.rows()[0][0].clone()));
    }
    let mismatches = tops
        .iter()
        .filter(|top| top.is_none() || *top != &tops[0])
        .count();
    Ok((t, mismatches))
}

/// E3 — §2.2 "Jellybean processing" (refs [4, 12]): shared slice
/// aggregation lets many concurrent aggregate CQs cost roughly one CQ's
/// per-tuple work. 1–64 top-URL CQs over one stream (identical grouping,
/// varying windows) with sharing on (one pooled slice store) and off (one
/// private store per CQ — the same mechanism, N members of one pool vs N
/// pools of one). Unshared cost grows ~linearly with the CQ count; shared
/// stays near-flat.
fn e3() -> SuiteResult {
    println!("E3: shared vs unshared execution of N concurrent aggregate CQs\n");
    let n_tuples = 120_000 * scale();
    let mut gen = ClickstreamGen::new(31, 2_000, 0, 200);
    let rows = gen.take_rows(n_tuples);
    let end = gen.clock() + MINUTES;
    println!(
        "workload: {n_tuples} clicks over {} minutes of event time\n",
        n_tuples / 200 / 60
    );

    let counts = [1usize, 4, 16, 64];
    let mut table = ResultTable::new(&[
        "CQs",
        "unshared",
        "shared",
        "unshared µs/tuple",
        "shared µs/tuple",
        "shared gain",
    ]);
    let mut unshared_cost = Vec::new();
    let mut shared_cost = Vec::new();
    let mut mismatches = 0;
    for n in counts {
        let (tu, mu) = e3_run(n, false, &rows, end)?;
        let (ts, ms) = e3_run(n, true, &rows, end)?;
        mismatches += mu + ms;
        let per_u = tu.as_micros() as f64 / n_tuples as f64;
        let per_s = ts.as_micros() as f64 / n_tuples as f64;
        unshared_cost.push(per_u);
        shared_cost.push(per_s);
        table.row(&[
            n.to_string(),
            fmt_dur(tu),
            fmt_dur(ts),
            format!("{per_u:.2}"),
            format!("{per_s:.2}"),
            format!("{:.1}x", per_u / per_s),
        ]);
    }
    table.print();

    let ug = growth_factor(&unshared_cost);
    let sg = growth_factor(&shared_cost);
    println!("\nper-step cost growth (CQ count x4/step): unshared {ug:.2}x, shared {sg:.2}x");
    let last = counts.len() - 1;
    Ok(vec![
        // Every CQ of a run reports the same final top URL, shared or not.
        Claim::new("top_url_mismatches", mismatches as f64, Op::Eq, 0.0),
        Claim::new(
            "shared_gain_at_64_cqs",
            unshared_cost[last] / shared_cost[last],
            Op::Gt,
            2.0,
        ),
        // Shared per-tuple cost's per-step growth against unshared's.
        Claim::new("shared_cost_grows_slower", sg, Op::Lt, ug),
    ]
    .into())
}

// ---- E4 ------------------------------------------------------------------

/// Event rate of E4's clickstream, per second of event time.
const E4_RATE: u64 = 1_000;

/// Feed `rows` in one-second batches of event time: `step(batch, now)` runs
/// at the end of every second (E4's dashboard polls). Returns the rows past
/// the last whole second.
fn per_second(
    rows: &[Row],
    mut step: impl FnMut(Vec<Row>, Timestamp) -> streamrel_types::Result<()>,
) -> streamrel_types::Result<Vec<Row>> {
    let mut batch = Vec::new();
    let mut now = SECONDS;
    for row in rows {
        let ts = row[1].as_timestamp()?;
        while ts >= now {
            step(std::mem::take(&mut batch), now)?;
            now += SECONDS;
        }
        batch.push(row.clone());
    }
    Ok(batch)
}

/// Mean and maximum of staleness samples in µs, in seconds.
fn staleness_s(samples: &[i64]) -> (f64, f64) {
    let mean = samples.iter().sum::<i64>() as f64 / samples.len().max(1) as f64;
    let max = samples.iter().copied().max().unwrap_or(0) as f64;
    (mean / SECONDS as f64, max / SECONDS as f64)
}

/// One MV run of E4: mean and max staleness (s) and raw rows scanned.
fn e4_mv(mode: RefreshMode, period: i64, rows: &[Row]) -> streamrel_types::Result<(f64, f64, u64)> {
    let mut mv = BatchMatView::new(
        &ClickstreamGen::create_table_sql("raw"),
        "raw",
        "atime",
        "CREATE TABLE v (url varchar(1024), c bigint)",
        "v",
        "SELECT url, count(*) c FROM raw GROUP BY url",
        mode,
    )?;
    let mut next_refresh = period;
    let mut samples = Vec::new();
    let tail = per_second(rows, |batch, now| {
        mv.load(batch)?;
        if now >= next_refresh {
            mv.refresh(now)?;
            next_refresh += period;
        }
        samples.push(mv.staleness(now));
        Ok(())
    })?;
    mv.load(tail)?;
    let (mean, max) = staleness_s(&samples);
    Ok((mean, max, mv.rows_scanned()))
}

/// E4 — §5: "MVs are refreshed in batch mode and therefore may be out of
/// date at the time of the query [...] when the update starts, the whole
/// batch is processed." At a fixed arrival rate, sweep the MV refresh
/// period and measure answer staleness and rows scanned per input row, for
/// full-refresh MVs, delta-refresh MVs, and the continuous pipeline (whose
/// "refresh period" is its ADVANCE), all sampled once per second.
fn e4() -> SuiteResult {
    println!("E4: batch materialized views vs continuous windows\n");
    let minutes = 10 * scale() as i64;
    let n = (E4_RATE as i64 * 60 * minutes) as usize;
    let mut gen = ClickstreamGen::new(41, 1_000, 0, E4_RATE);
    let rows = gen.take_rows(n);
    println!("workload: {n} clicks over {minutes} minutes at {E4_RATE}/s\n");

    let mut table = ResultTable::new(&[
        "approach",
        "refresh period",
        "avg staleness (s)",
        "max staleness (s)",
        "raw rows scanned",
        "scans / input row",
    ]);
    let mut claims = Vec::new();
    for period_min in [1i64, 2, 5] {
        let mut per_row = [0.0; 2];
        for (i, (label, mode)) in [
            ("MV full", RefreshMode::Full),
            ("MV delta", RefreshMode::DeltaAppend),
        ]
        .into_iter()
        .enumerate()
        {
            let (mean, max, scanned) = e4_mv(mode, period_min * MINUTES, &rows)?;
            per_row[i] = scanned as f64 / n as f64;
            table.row(&[
                label.into(),
                format!("{period_min} min"),
                format!("{mean:.1}"),
                format!("{max:.1}"),
                scanned.to_string(),
                format!("{:.2}", per_row[i]),
            ]);
        }
        claims.push(Claim::new(
            format!("mv_full_scans_exceed_delta_{period_min}min"),
            per_row[0],
            Op::Gt,
            per_row[1],
        ));
    }

    // Continuous pipeline, ADVANCE = 1 minute, fed and sampled like the
    // MVs: at each second its answer is as old as the newest window in its
    // Active Table.
    let db = Db::in_memory(DbOptions::default());
    db.execute(&ClickstreamGen::create_stream_sql("clicks"))?;
    db.execute("CREATE TABLE v (url varchar(1024), c bigint, w timestamp)")?;
    db.execute(
        "CREATE STREAM per_min AS SELECT url, count(*) c, cq_close(*) w \
         FROM clicks <TUMBLING '1 minute'> GROUP BY url",
    )?;
    db.execute("CREATE CHANNEL ch FROM per_min INTO v APPEND")?;
    let mut samples = Vec::new();
    let tail = per_second(&rows, |batch, now| {
        db.ingest_batch("clicks", batch)?;
        let newest = db.execute("SELECT max(w) FROM v")?.rows();
        // No window closed yet: stale since the stream began, as an MV
        // that was never refreshed.
        let w = match newest.rows()[0][0] {
            Value::Timestamp(w) => w,
            _ => 0,
        };
        samples.push(now - w);
        Ok(())
    })?;
    db.ingest_batch("clicks", tail)?;
    db.heartbeat("clicks", gen.clock() + MINUTES)?;
    let tuples = db.stats().tuples_in;
    let (mean, max) = staleness_s(&samples);
    let per_row = tuples as f64 / n as f64;
    table.row(&[
        "continuous".into(),
        "1 min (ADVANCE)".into(),
        format!("{mean:.1}"),
        format!("{max:.1}"),
        tuples.to_string(),
        format!("{per_row:.2}"),
    ]);
    table.print();
    claims.push(Claim::new("continuous_scans_per_row", per_row, Op::Eq, 1.0));
    claims.push(Claim::new(
        "continuous_max_staleness_s",
        max,
        Op::Le,
        (MINUTES / SECONDS) as f64,
    ));
    Ok(claims.into())
}

// ---- E5 ------------------------------------------------------------------

/// E5 — §1.3/§5: map/reduce approaches "are inherently batch-oriented and
/// are much more resource intensive than the Jellybean processing that a
/// stream-relational system can provide." The same grouped sum (bytes of
/// denied high-severity events per source) by the mini map/shuffle/reduce
/// engine re-run over all stored data each reporting period, with
/// spill-to-disk intermediates, and by the continuous pipeline: total work
/// (rows touched) and wall time across the periods.
fn e5() -> SuiteResult {
    println!("E5: mini map/reduce (batch, rerun per report) vs continuous\n");
    let n = 400_000 * scale();
    let reports = 8; // periodic reporting runs over the same growing data
    let mut gen = NetsecGen::new(51, 5_000, 0, 10_000);
    let all_rows = gen.take_rows(n);
    println!("workload: {n} security events, {reports} reporting periods\n");

    // ---- map/reduce: rerun over everything stored so far, each period ----
    let spill = std::env::temp_dir().join(format!("streamrel-e5-{}", std::process::id()));
    let mut mr = MiniMr::new(MrConfig {
        workers: 4,
        partitions: 8,
        spill_dir: Some(spill.clone()),
    });
    let mut mr_rows_touched = 0u64;
    let mut mr_spilled = 0u64;
    let (last_mr, mr_time) = timed(|| {
        let mut last = Vec::new();
        for p in 1..=reports {
            last = mr.run_grouped_sum(&all_rows[..n * p / reports], MiniMr::netsec_deny_map)?;
            mr_rows_touched += mr.last_stats().mapped;
            mr_spilled += mr.last_stats().spilled_bytes;
        }
        streamrel_types::Result::Ok(last)
    });
    let _ = std::fs::remove_dir_all(&spill);
    let last_mr = last_mr?;

    // ---- continuous: every tuple processed once, reports are lookups ----
    let db = deny_report_db()?;
    let report_sql = "SELECT src_ip, sum(total_bytes) tb FROM deny_report \
                      GROUP BY src_ip ORDER BY tb DESC";
    let (fed, cq_time) = timed(|| {
        for p in 1..=reports {
            feed(
                &db,
                "events",
                &all_rows[n * (p - 1) / reports..n * p / reports],
            )?;
            // The periodic "report" is a lookup over the Active Table.
            db.execute(report_sql)?;
        }
        db.heartbeat("events", gen.clock() + MINUTES)
    });
    fed?;
    let cq_rows_touched = db.stats().tuples_in;

    // Same winner both ways: the last lookup ran before the final
    // heartbeat, so re-read to include the last window.
    let mr_top = last_mr
        .iter()
        .max_by_key(|(_, bytes, _)| *bytes)
        .map(|(k, _, _)| k.as_str());
    let final_rel = db.execute(report_sql)?.rows();
    let cq_top = final_rel.rows()[0][0].as_text()?;

    let mut table = ResultTable::new(&[
        "approach",
        "rows touched",
        "touch factor",
        "shuffle bytes",
        "wall time",
    ]);
    table.row(&[
        "mini map/reduce".into(),
        mr_rows_touched.to_string(),
        format!("{:.2}x", mr_rows_touched as f64 / n as f64),
        mr_spilled.to_string(),
        fmt_dur(mr_time),
    ]);
    table.row(&[
        "continuous".into(),
        cq_rows_touched.to_string(),
        format!("{:.2}x", cq_rows_touched as f64 / n as f64),
        "0".into(),
        fmt_dur(cq_time),
    ]);
    table.print();
    Ok(vec![
        Claim::new(
            "top_src_ip_mismatches",
            f64::from(u8::from(mr_top != Some(cq_top))),
            Op::Eq,
            0.0,
        ),
        // Rows map/reduce touched against 3x the continuous pipeline's.
        Claim::new(
            "mr_touches_over_3x_continuous",
            mr_rows_touched as f64,
            Op::Gt,
            3.0 * cq_rows_touched as f64,
        ),
    ]
    .into())
}

// ---- E6 ------------------------------------------------------------------

/// E6 — §3.3 Example 5: a derived stream's totals join the Active Table's
/// rows from exactly one week earlier. Two compressed weeks of traffic;
/// every second-week window must produce a comparison row against its
/// first-week row, while ingest cost stays per-tuple (window consistency
/// plus an indexed archive).
fn e6() -> SuiteResult {
    println!("E6: Example 5 — current vs one-week-ago comparison\n");
    let minutes_per_week = 20 * scale() as i64; // compressed "weeks"
    let rate = 500u64;

    let db = Db::in_memory(DbOptions::default());
    db.execute(&ClickstreamGen::create_stream_sql("url_stream"))?;
    db.execute(
        "CREATE STREAM urls_now AS SELECT url, count(*) scnt, cq_close(*) stime \
         FROM url_stream <VISIBLE '5 minutes' ADVANCE '1 minute'> GROUP BY url",
    )?;
    db.execute("CREATE TABLE urls_archive (url varchar(1024), scnt integer, stime timestamp)")?;
    db.execute("CREATE CHANNEL ch FROM urls_now INTO urls_archive APPEND")?;
    db.execute("CREATE INDEX arch_time ON urls_archive (stime)")?;

    let comparison = db
        .execute(
            "select c.scnt, h.scnt, c.stime from \
             (select sum(scnt) as scnt, cq_close(*) as stime \
              from urls_now <slices 1 windows>) c, urls_archive h \
             where c.stime - '1 week'::interval = h.stime \
             and h.url = 'TOTAL_MARKER'",
        )?
        .subscription();

    // Week 1: traffic + a per-minute TOTAL_MARKER row we join against.
    let mut gen = ClickstreamGen::new(61, 500, 0, rate);
    let week_rows = (rate as i64 * 60 * minutes_per_week) as usize;
    feed(&db, "url_stream", &gen.take_rows(week_rows))?;
    db.heartbeat("url_stream", minutes_per_week * MINUTES)?;
    // Insert summary markers for each closed minute of week 1 (the
    // "history" the second week compares against).
    for m in 1..=minutes_per_week {
        let total = db
            .execute(&format!(
                "SELECT sum(scnt) FROM urls_archive WHERE stime = {}",
                m * MINUTES
            ))?
            .rows();
        let v = match &total.rows()[0][0] {
            Value::Int(v) => *v,
            _ => 0,
        };
        db.execute(&format!(
            "INSERT INTO urls_archive VALUES ('TOTAL_MARKER', {v}, {})",
            m * MINUTES
        ))?;
    }

    // Week 2 begins exactly one WEEK after week 1's start: jump the clock.
    let week2_start = WEEKS;
    let mut gen2 = ClickstreamGen::new(62, 500, week2_start, rate);
    let week2 = gen2.take_rows(week_rows);
    let (fed, ingest_t) = timed(|| {
        feed(&db, "url_stream", &week2)?;
        db.heartbeat("url_stream", week2_start + minutes_per_week * MINUTES)
    });
    fed?;

    let outs = db.poll(comparison)?;
    let week2_windows: Vec<_> = outs
        .iter()
        .filter(|o| o.close > week2_start && !o.relation.is_empty())
        .collect();

    let mut table = ResultTable::new(&[
        "window close (min into wk2)",
        "current",
        "week ago",
        "ratio",
    ]);
    for o in week2_windows.iter().take(6) {
        let r = &o.relation.rows()[0];
        let cur = r[0].as_int()?;
        let ago = r[1].as_int()?;
        table.row(&[
            ((o.close - week2_start) / MINUTES).to_string(),
            cur.to_string(),
            ago.to_string(),
            format!("{:.2}", cur as f64 / ago.max(1) as f64),
        ]);
    }
    table.print();

    println!(
        "\n{} of {minutes_per_week} second-week windows matched a history row; \
         week-2 ingest (incl. per-window joins) took {} ({:.2}µs/tuple)",
        week2_windows.len(),
        fmt_dur(ingest_t),
        ingest_t.as_micros() as f64 / week_rows as f64
    );
    Ok(vec![Claim::new(
        "week2_windows_with_history",
        week2_windows.len() as f64,
        Op::Ge,
        (minutes_per_week - 5) as f64,
    )]
    .into())
}

// ---- E7 ------------------------------------------------------------------

/// E7 — §4 recovery: "it is possible to instead implement a strategy that
/// rebuilds runtime state from disk automatically" using Active Tables,
/// instead of checkpointing every operator or replaying the whole log. Run
/// a durable pipeline, crash it with a window in flight, and compare
/// `Db::open` — which resumes the CQ at its persisted watermark and
/// replays only the raw tuples past it — with reprocessing the entire raw
/// archive.
fn e7() -> SuiteResult {
    println!("E7: CQ recovery — active-table watermark vs full log replay\n");
    let minutes = 30 * scale() as i64;
    let rate = 1_000u64;
    let dir = std::env::temp_dir().join(format!("streamrel-e7-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let opts = DbOptions::default().with_sync(SyncMode::NoSync);
    let total_rows = (rate as i64 * 60 * minutes) as usize;
    let crash_clock;
    {
        let db = Db::open(&dir, opts)?;
        db.execute(&ClickstreamGen::create_stream_sql("clicks"))?;
        db.execute("CREATE TABLE raw (url varchar(1024), atime timestamp, ip varchar(50))")?;
        db.execute("CREATE CHANNEL raw_ch FROM clicks INTO raw APPEND")?;
        db.execute("CREATE TABLE agg (url varchar(1024), c bigint, w timestamp)")?;
        db.execute(
            "CREATE STREAM per_min AS SELECT url, count(*) c, cq_close(*) w \
             FROM clicks <TUMBLING '1 minute'> GROUP BY url",
        )?;
        db.execute("CREATE CHANNEL agg_ch FROM per_min INTO agg APPEND")?;
        let mut gen = ClickstreamGen::new(71, 1_000, 0, rate);
        feed(&db, "clicks", &gen.take_rows(total_rows))?;
        // No final heartbeat: the last partial minute is in-flight runtime
        // state, lost at the crash.
        crash_clock = gen.clock();
        // Crash.
    }

    // ---- recovery ----
    // Strategy A, the paper's: `Db::open` replays the WAL, resumes the CQ
    // at its persisted watermark and rebuilds the in-flight window from
    // the raw tuples past it.
    let (db, open_t) = timed(|| Db::open(&dir, opts));
    let db = db?;
    let tail = db.engine().metrics().counter("db.recovery.rows_replayed");
    let tail = tail.get();

    // Strategy B: full replay cost (counted, and timed as a pure scan +
    // re-aggregation over everything in the raw archive).
    let (full_count, full_scan_t) = timed(|| count(&db, "SELECT count(*) FROM raw"));
    let full_count = full_count?;
    // A full replay also has to redo every window's aggregation:
    let (full_agg, full_agg_t) =
        timed(|| db.execute("SELECT url, count(*) FROM raw GROUP BY url ORDER BY 2 DESC LIMIT 1"));
    full_agg?;

    let mut table =
        ResultTable::new(&["runtime-state strategy", "tuples replayed", "recovery time"]);
    table.row(&["Db::open (§4)".into(), tail.to_string(), fmt_dur(open_t)]);
    let full_t = fmt_dur(open_t + full_scan_t + full_agg_t);
    table.row(&[
        "Db::open + full raw replay".into(),
        full_count.to_string(),
        full_t,
    ]);
    table.print();

    // Verify the resumed pipeline: complete the in-flight window with
    // fresh traffic. It counts every tuple of its span, those in flight at
    // the crash included, and no window is archived twice.
    let first_close = load_watermark(db.engine(), "per_min")?.ok_or("no watermark")? + MINUTES;
    let mut gen = ClickstreamGen::new(72, 1_000, crash_clock, rate);
    db.ingest_batch("clicks", gen.take_rows(1_000))?;
    db.heartbeat("clicks", gen.clock() + MINUTES)?;
    let first = count(
        &db,
        &format!("SELECT sum(c) FROM agg WHERE w = {first_close}"),
    )?;
    let span = format!(
        "atime >= {} AND atime < {first_close}",
        first_close - MINUTES
    );
    let span = count(&db, &format!("SELECT count(*) FROM raw WHERE {span}"))?;
    let dup = db
        .execute("SELECT w, url, count(*) FROM agg GROUP BY w, url HAVING count(*) > 1")?
        .rows();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(vec![
        Claim::new("duplicate_window_rows", dup.len() as f64, Op::Eq, 0.0),
        // Tuples the watermark replays against a tenth of the full replay.
        Claim::new(
            "replayed_tail_under_tenth",
            tail as f64,
            Op::Lt,
            full_count as f64 / 10.0,
        ),
        Claim::new(
            "first_window_counts_in_flight",
            first as f64,
            Op::Eq,
            span as f64,
        ),
    ]
    .into())
}

/// The one integer a `count(*)` / `sum(…)` query returns.
fn count(db: &Db, sql: &str) -> Result<i64, Box<dyn Error>> {
    let rel = db.execute(sql)?.rows();
    let v = rel.rows().first().and_then(|r| r.first());
    Ok(v.ok_or("no rows")?.as_int()?)
}

// ---- E8 ------------------------------------------------------------------

/// E8 — two properties the paper asserts: §3.2 "results are always
/// available within at most one \[ADVANCE]" (the lag between each window's
/// close and the event time at which its result materialized), and §4
/// window consistency (ref \[6]), "updates to tables are visible only on
/// window boundaries": with a dimension table updated every half window,
/// each window's join sees exactly one dimension version, and the
/// QueryStart ablation shows unbounded staleness instead.
fn e8() -> SuiteResult {
    println!("E8: result availability + window consistency\n");

    // ---------------- Part 1: availability lag ----------------
    let minutes = 15 * scale() as i64;
    let rate = 1_000u64;
    let db = Db::in_memory(DbOptions::default());
    db.execute(&ClickstreamGen::create_stream_sql("clicks"))?;
    db.execute("CREATE TABLE agg (url varchar(1024), c bigint, w timestamp)")?;
    db.execute(
        "CREATE STREAM per_min AS SELECT url, count(*) c, cq_close(*) w \
         FROM clicks <TUMBLING '1 minute'> GROUP BY url",
    )?;
    db.execute("CREATE CHANNEL ch FROM per_min INTO agg APPEND")?;
    // Observe availability through a subscription to the same derived
    // stream: a window's result is archived/delivered synchronously, so
    // its availability lag in event time is the timestamp of the tuple
    // whose arrival closed it, minus the window close boundary.
    let watch = db
        .execute("SELECT c FROM per_min <SLICES 1 WINDOWS>")?
        .subscription();

    let mut gen = ClickstreamGen::new(81, 1_000, 0, rate);
    let mut lags_us: Vec<i64> = Vec::new();
    let total = (rate as i64 * 60 * minutes) as usize;
    for _ in 0..total {
        let row = gen.next_row();
        let now = row[1].as_timestamp()?;
        db.ingest("clicks", row)?;
        for out in db.poll(watch)? {
            lags_us.push(now - out.close);
        }
    }
    let max_lag = lags_us.iter().copied().max().unwrap_or(0);
    let avg_lag = lags_us.iter().sum::<i64>() as f64 / lags_us.len().max(1) as f64;
    let mut t1 = ResultTable::new(&[
        "windows",
        "avg availability lag",
        "max lag",
        "bound (ADVANCE)",
    ]);
    t1.row(&[
        lags_us.len().to_string(),
        format!("{:.1}ms", avg_lag / 1_000.0),
        format!("{:.1}ms", max_lag as f64 / 1_000.0),
        "60000ms".into(),
    ]);
    t1.print();
    // A window's result lands with the first tuple past the boundary: at
    // 1000 ev/s the expected lag is ~1ms of event time, far below one
    // ADVANCE.
    let mut claims = vec![Claim::new(
        "max_availability_lag_us",
        max_lag as f64,
        Op::Lt,
        MINUTES as f64,
    )];

    // ---------------- Part 2: window consistency ----------------
    println!("\nwindow consistency under concurrent dimension updates:");
    let mut t2 = ResultTable::new(&[
        "mode",
        "windows",
        "pure windows",
        "mixed windows",
        "stale windows",
    ]);
    for (label, key, mode) in [
        (
            "window-boundary (paper)",
            "window_boundary",
            ConsistencyMode::WindowBoundary,
        ),
        (
            "query-start (ablation)",
            "query_start",
            ConsistencyMode::QueryStart,
        ),
    ] {
        let db = Db::in_memory(DbOptions::default().with_consistency(mode));
        db.execute("CREATE STREAM s (k varchar(8), ts timestamp CQTIME USER)")?;
        db.execute("CREATE TABLE dim (k varchar(8), version integer)")?;
        db.execute("INSERT INTO dim VALUES ('a', 0)")?;
        let sub = db
            .execute(
                "SELECT s.k, min(d.version) vmin, max(d.version) vmax, count(*) c \
                 FROM s <TUMBLING '1 minute'> s JOIN dim d ON s.k = d.k \
                 GROUP BY s.k",
            )?
            .subscription();
        let windows = 12i64;
        for m in 0..windows {
            // Tuples throughout the window.
            for i in 0..10 {
                db.ingest(
                    "s",
                    vec![
                        Value::text("a"),
                        Value::Timestamp(m * MINUTES + i * 5_000_000 + 1),
                    ],
                )?;
            }
            // Mid-window dimension update (version = minute index + 1).
            db.execute("DELETE FROM dim WHERE k = 'a'")?;
            db.execute(&format!("INSERT INTO dim VALUES ('a', {})", m + 1))?;
        }
        db.heartbeat("s", windows * MINUTES)?;
        let outs = db.poll(sub)?;
        let (mut pure, mut mixed, mut stale) = (0, 0, 0);
        for (i, o) in outs.iter().enumerate() {
            let r = &o.relation.rows()[0];
            let (vmin, vmax) = (r[1].as_int()?, r[2].as_int()?);
            if vmin != vmax {
                mixed += 1;
            } else {
                pure += 1;
                if mode == ConsistencyMode::QueryStart && i > 0 && vmin == 0 {
                    stale += 1;
                }
            }
        }
        t2.row(&[
            label.into(),
            outs.len().to_string(),
            pure.to_string(),
            mixed.to_string(),
            stale.to_string(),
        ]);
        // Both modes are internally consistent per window (a pinned
        // snapshot can never mix versions)...
        claims.push(Claim::new(
            format!("mixed_windows_{key}"),
            mixed as f64,
            Op::Eq,
            0.0,
        ));
        if mode == ConsistencyMode::QueryStart {
            // ...but query-start pinning serves version 0 forever.
            claims.push(Claim::new(
                format!("stale_windows_{key}"),
                stale as f64,
                Op::Ge,
                10.0,
            ));
        }
    }
    t2.print();
    Ok(claims.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    const NAMES: [&str; 15] = [
        "f1",
        "e1",
        "e2",
        "e3",
        "e4",
        "e5",
        "e6",
        "e7",
        "e8",
        "ivm",
        "fanout",
        "federation",
        "ingest",
        "obs",
        "check",
    ];

    #[test]
    fn suite_names_are_unique_and_exactly_the_fifteen() {
        let names: Vec<&str> = SUITES.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, NAMES);
        assert_eq!(names.iter().collect::<HashSet<_>>().len(), names.len());
    }

    #[test]
    fn no_names_select_every_suite_and_a_name_selects_one() {
        assert_eq!(select(&[]).unwrap().len(), SUITES.len());
        let one = select(&["e7".to_string()]).unwrap();
        assert_eq!(one.iter().map(|(n, _)| *n).collect::<Vec<_>>(), ["e7"]);
    }

    #[test]
    fn only_a_full_run_rewrites_the_committed_results() {
        assert_eq!(results_path(select(&[]).unwrap().len()), RESULTS);
        let one = select(&["fanout".to_string()]).unwrap();
        let subset = results_path(one.len());
        assert!(subset.starts_with("target/"), "{subset}");
        assert_ne!(subset, RESULTS);
    }

    #[test]
    fn unknown_suite_is_an_error_listing_the_valid_names() {
        let err = select(&["e3".to_string(), "e9".to_string()]).expect_err("e9 is no suite");
        assert!(err.contains("`e9`"), "{err}");
        let listed = err.split("valid suites: ").nth(1).unwrap_or_default();
        assert_eq!(listed.split(", ").collect::<Vec<_>>(), NAMES, "{err}");
    }

    #[test]
    fn a_failed_claim_names_its_suite_claim_value_and_bound() {
        let claim = Claim {
            suite: "e3",
            ..Claim::new("shared_gain_at_64_cqs", 1.5, Op::Gt, 2.0)
        };
        assert!(!claim.held());
        let shown = claim.to_string();
        for part in ["e3/shared_gain_at_64_cqs", "1.500", "> 2", "FAILED"] {
            assert!(shown.contains(part), "{shown} lacks {part}");
        }
    }

    #[test]
    fn each_op_compares_value_with_bound() {
        let holds = |op, v| Claim::new("c", v, op, 1.0).held();
        assert!(holds(Op::Lt, 0.5) && !holds(Op::Lt, 1.0));
        assert!(holds(Op::Le, 1.0) && !holds(Op::Le, 1.5));
        assert!(holds(Op::Eq, 1.0) && !holds(Op::Eq, 0.5));
        assert!(holds(Op::Ge, 1.0) && !holds(Op::Ge, 0.5));
        assert!(holds(Op::Gt, 1.5) && !holds(Op::Gt, 1.0));
        assert!(!holds(Op::Ge, f64::NAN), "a NaN never holds");
    }

    #[test]
    fn run_suite_stamps_the_suite_name() {
        let claims = run_suite("f1", f1).unwrap().claims;
        assert!(!claims.is_empty());
        assert!(
            claims.iter().all(|c| c.suite == "f1" && c.held()),
            "{claims:?}"
        );
    }

    #[test]
    fn record_writes_claims_rates_and_skips_and_counts_failures() {
        let claim = |name, value| Claim {
            suite: "s",
            ..Claim::new(name, value, Op::Eq, 0.0)
        };
        let report = Report {
            claims: vec![claim("held", 0.0), claim("failed", 1.0)],
            rates: vec![("speedup", 2.5)],
            skipped: Some("host has 1 \"core\"".into()),
        };
        let path =
            std::env::temp_dir().join(format!("streamrel-record-{}.json", std::process::id()));
        let path = path.to_str().unwrap();
        let failed = record(path, &[("seeds", "4".into())], &[("s", 0.5, report)]).unwrap();
        let json = std::fs::read_to_string(path).unwrap();
        std::fs::remove_file(path).unwrap();
        assert_eq!(failed, 1);
        for part in [
            "\"seeds\": 4,",
            "\"s\": {",
            "\"name\": \"failed\", \"value\": 1, \"op\": \"==\", \"bound\": 0, \"held\": false",
            "\"rates\": {\"speedup\": 2.500}",
            "\"skipped\": \"host has 1 \\\"core\\\"\"",
        ] {
            assert!(json.contains(part), "{json} lacks {part}");
        }
    }
}
