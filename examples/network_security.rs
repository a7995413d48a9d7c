//! The paper's §4 scenario as an application: a network-security
//! reporting pipeline where a batch report over raw events is replaced by
//! a continuous query into an Active Table — "the overall architecture of
//! the solution remained unchanged; a standard database was simply
//! replaced by a SQL-compliant Stream-Relational database system."
//!
//! Run with: `cargo run --release --example network_security`

use std::time::Instant;

use streamrel::types::format_timestamp;
use streamrel::workload::NetsecGen;
use streamrel::{Db, DbOptions};
use streamrel_bench::baseline::StoreFirst;

const EVENTS: usize = 200_000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("network security reporting: batch vs continuous ({EVENTS} events)\n");

    // ---------------------------------------------------------------
    // The OLD architecture: store first, query later.
    // ---------------------------------------------------------------
    let mut store_first =
        StoreFirst::new(&NetsecGen::create_table_sql("raw_events"), "raw_events")?;
    let mut gen = NetsecGen::new(7, 5_000, 0, 10_000);
    let rows = gen.take_rows(EVENTS);
    let t = Instant::now();
    store_first.load(rows.clone())?;
    let load_time = t.elapsed();

    let report_sql = NetsecGen::report_sql("raw_events");
    let t = Instant::now();
    let batch_report = store_first.run_report(&report_sql)?;
    let batch_query_time = t.elapsed();
    println!("store-first: load {load_time:?}, report query {batch_query_time:?}");
    println!("top offender (batch): {}", batch_report.rows()[0][0]);

    // ---------------------------------------------------------------
    // The NEW architecture: the same report, continuously computed.
    // ---------------------------------------------------------------
    let db = Db::in_memory(DbOptions::default());
    db.execute(&NetsecGen::create_stream_sql("events"))?;
    db.execute(
        "CREATE TABLE deny_report (src_ip varchar(40), denies bigint, \
         total_bytes bigint, w timestamp)",
    )?;
    // One minute tumbling windows; per-window offender stats.
    db.execute(&NetsecGen::continuous_sql("events", "deny_now", "1 minute"))?;
    db.execute("CREATE CHANNEL deny_ch FROM deny_now INTO deny_report APPEND")?;

    let t = Instant::now();
    db.ingest_batch("events", rows)?;
    db.heartbeat("events", gen.clock() + 60_000_000)?;
    let ingest_time = t.elapsed();

    // The "report" is now a lookup over precomputed metrics.
    let t = Instant::now();
    let cont_report = db
        .execute(
            "SELECT src_ip, sum(denies) denies, sum(total_bytes) total_bytes \
             FROM deny_report GROUP BY src_ip ORDER BY denies DESC LIMIT 20",
        )?
        .rows();
    let lookup_time = t.elapsed();
    println!("\ncontinuous: ingest+process {ingest_time:?}, report lookup {lookup_time:?}");
    println!("top offender (continuous): {}", cont_report.rows()[0][0]);

    // Same answer, different architecture.
    assert_eq!(batch_report.rows()[0][0], cont_report.rows()[0][0]);
    assert_eq!(batch_report.rows()[0][1], cont_report.rows()[0][1]);

    let speedup = batch_query_time.as_secs_f64() / lookup_time.as_secs_f64().max(1e-9);
    println!("\nreport-latency speedup (query vs lookup): {speedup:.0}x");
    println!(
        "(the paper's §4 anecdote reports ~5 orders of magnitude at \
         warehouse scale; the gap grows with raw-data volume — see \
         `experiments e1` and `e2`)"
    );

    // The per-minute report history is queryable SQL as well:
    let windows = db.execute("SELECT count(*) FROM deny_report")?.rows();
    println!(
        "\ndeny_report holds {} per-window offender rows through {}",
        windows.rows()[0][0],
        format_timestamp(gen.clock())
    );
    Ok(())
}
