//! ivm_bench — incremental view maintenance vs per-window re-evaluation.
//!
//! The workload is the shape IVM exists for: a grouped count over a
//! sliding window whose VISIBLE span is much wider than its ADVANCE
//! (`<VISIBLE '2 minutes' ADVANCE '2 seconds'>`, 60 closes per window
//! span). Under re-evaluation every close re-scans and re-folds the
//! whole two-minute buffer; under IVM each tuple is folded once into its
//! slice partial and a close merges ~60 slice partials — near-O(delta)
//! instead of O(window).
//!
//! Both configurations run with pooling ablated so the comparison
//! isolates the delta-processing path on a store with one member: the
//! baseline is `DbOptions::without_sharing().without_ivm()` (the
//! re-evaluation executor), the candidate is `without_sharing()` alone
//! (a private slice store — the same mechanism the default options pool
//! across CQs). The run
//! verifies through `streamrel_metrics` that the candidate actually
//! lowered the CQ (`ivm.lowered` = 1) — the floor is only meaningful on
//! an eligible plan — records `BENCH_ivm.json`, and fails (non-zero
//! exit, for the CI smoke job) below `MIN_SPEEDUP`. The workload is
//! single-threaded and deterministic, so the floor holds on any host:
//! the win comes from doing less work per close, not from parallelism.

#![deny(unsafe_code)]

use std::time::Instant;

use streamrel_bench::{scale, ResultTable};
use streamrel_core::{Db, DbOptions, ExecResult};
use streamrel_types::Value;

/// CI acceptance floor: IVM must at least halve the cost of this
/// workload. (Measured speedups are far higher; 2x is the honest bound
/// that survives slow CI hosts and debug-adjacent build flags.)
const MIN_SPEEDUP: f64 = 2.0;
/// Distinct group keys; keeps slice partials small and merge cost real.
const GROUPS: i64 = 64;
/// Logical clock step per row (10 ms): one 2-second advance = 200 rows,
/// one 2-minute window = 12_000 buffered rows for the re-eval baseline.
const STEP_US: i64 = 10_000;
/// Rows ingested per `ingest_batch` call.
const BATCH: usize = 500;

const CQ: &str = "SELECT url, count(*) c FROM hits \
                  <VISIBLE '2 minutes' ADVANCE '2 seconds'> GROUP BY url";

fn metric(db: &Db, name: &str) -> i64 {
    let rel = db
        .execute(&format!(
            "SELECT value FROM {}metrics WHERE name = '{name}'",
            streamrel_obs::RESERVED_PREFIX
        ))
        .unwrap()
        .rows();
    rel.rows()
        .first()
        .and_then(|r| r.first())
        .and_then(|v| v.as_int().ok())
        .unwrap_or(0)
}

/// Ingest `rows` tuples through the CQ; return
/// (rows/s, windows closed, mean close latency in µs).
fn run(opts: DbOptions, rows: usize) -> (f64, i64, f64) {
    let db = Db::in_memory(opts);
    db.execute("CREATE STREAM hits (url varchar(16), ts timestamp CQTIME USER)")
        .unwrap();
    let sub = match db.execute(CQ).unwrap() {
        ExecResult::Subscribed(id) => id,
        other => panic!("expected a subscription, got {other:?}"),
    };
    let mut clock = 0i64;
    let start = Instant::now();
    let mut sent = 0usize;
    while sent < rows {
        let n = BATCH.min(rows - sent);
        let batch: Vec<Vec<Value>> = (0..n)
            .map(|_| {
                clock += STEP_US;
                vec![
                    Value::text(format!("/u{}", clock / STEP_US % GROUPS)),
                    Value::Timestamp(clock),
                ]
            })
            .collect();
        db.ingest_batch("hits", batch).unwrap();
        sent += n;
    }
    let tps = sent as f64 / start.elapsed().as_secs_f64();
    // The per-subscription close histogram: `value` is the close count,
    // `sum` the total close time in µs.
    let rel = db
        .execute(&format!(
            "SELECT value, sum FROM {}metrics WHERE name = 'cq.close_us.sub_{}'",
            streamrel_obs::RESERVED_PREFIX,
            sub.0
        ))
        .unwrap()
        .rows();
    let (closes, total_us) = rel
        .rows()
        .first()
        .map(|r| {
            (
                r.first().and_then(|v| v.as_int().ok()).unwrap_or(0),
                r.get(1).and_then(|v| v.as_int().ok()).unwrap_or(0),
            )
        })
        .unwrap_or((0, 0));
    let mean_close_us = total_us as f64 / closes.max(1) as f64;
    (tps, closes, mean_close_us)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("ivm_bench: delta processing vs per-window re-evaluation\n");
    let rows = 40_000 * scale();

    let (reeval_tps, reeval_closes, reeval_close_us) =
        run(DbOptions::default().without_sharing().without_ivm(), rows);

    // Candidate run, with an engagement check: re-create the setup once
    // to confirm the CQ lowers before timing it.
    {
        let db = Db::in_memory(DbOptions::default().without_sharing());
        db.execute("CREATE STREAM hits (url varchar(16), ts timestamp CQTIME USER)")
            .unwrap();
        db.execute(CQ).unwrap();
        assert_eq!(
            metric(&db, "ivm.lowered"),
            1,
            "bench CQ must lower to the IVM path"
        );
    }
    let (ivm_tps, ivm_closes, ivm_close_us) = run(DbOptions::default().without_sharing(), rows);
    let speedup = ivm_tps / reeval_tps;
    let close_speedup = reeval_close_us / ivm_close_us.max(1e-9);

    let mut table = ResultTable::new(&["configuration", "rows/s", "closes", "mean close"]);
    table.row(&[
        "re-evaluation (IVM ablated)".into(),
        format!("{reeval_tps:.0}"),
        reeval_closes.to_string(),
        format!("{reeval_close_us:.0} us"),
    ]);
    table.row(&[
        "incremental (IVM)".into(),
        format!("{ivm_tps:.0}"),
        ivm_closes.to_string(),
        format!("{ivm_close_us:.0} us"),
    ]);
    table.print();
    println!(
        "\n{rows} rows, {GROUPS} groups, VISIBLE/ADVANCE = 60: \
         {speedup:.2}x ingest throughput, {close_speedup:.2}x close latency"
    );

    let json = format!(
        "{{\n  \"rows\": {rows},\n  \"groups\": {GROUPS},\n  \
         \"visible_s\": 120,\n  \"advance_s\": 2,\n  \
         \"reeval_tps\": {reeval_tps:.1},\n  \"ivm_tps\": {ivm_tps:.1},\n  \
         \"reeval_close_us\": {reeval_close_us:.1},\n  \
         \"ivm_close_us\": {ivm_close_us:.1},\n  \
         \"windows_closed\": {ivm_closes},\n  \"speedup\": {speedup:.3},\n  \
         \"close_speedup\": {close_speedup:.3}\n}}\n"
    );
    std::fs::write("BENCH_ivm.json", json)?;
    println!("recorded BENCH_ivm.json");

    if ivm_closes != reeval_closes {
        eprintln!("FAIL: close counts diverge ({ivm_closes} vs {reeval_closes})");
        std::process::exit(1);
    }
    if speedup < MIN_SPEEDUP {
        eprintln!("FAIL: speedup {speedup:.2}x below the {MIN_SPEEDUP}x floor");
        std::process::exit(1);
    }
    println!("PASS: speedup {speedup:.2}x >= {MIN_SPEEDUP}x");
    Ok(())
}
