//! obs_overhead — what the observability layer costs on the E1 ingest
//! path.
//!
//! The metrics registry is always on, so "off vs on" cannot be compared
//! directly. Instead this harness (a) runs the E1 continuous-ingest
//! workload and measures its wall time, then (b) replays the instrument
//! operations that workload performed — counter bumps, gauge moves,
//! `Instant::now()` reads and histogram observations — against a private
//! registry, at a deliberate 10× multiplier. The replay time bounds the
//! instrumentation's share of the ingest path from above; the run fails
//! if even that inflated bound reaches 5% of ingest time.

#![deny(unsafe_code)]

use std::time::Instant;

use streamrel_bench::{fmt_dur, scale, timed, ResultTable};
use streamrel_core::{Db, DbOptions};
use streamrel_obs::Registry;
use streamrel_workload::NetsecGen;

/// Safety multiplier on the replayed instrument operations.
const REPLAY_FACTOR: u64 = 10;
/// Acceptance bound: instrumentation must stay under this share.
const MAX_OVERHEAD: f64 = 0.05;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("obs_overhead: metrics-layer cost on the E1 ingest path\n");
    let n = 200_000 * scale();
    const CHUNK: usize = 20_000;

    // ---- the instrumented workload: E1's continuous-ingest half ----
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
    let (_, ingest_t) = timed(|| {
        for chunk in rows.chunks(CHUNK) {
            db.ingest_batch("events", chunk.to_vec()).unwrap();
        }
        db.heartbeat("events", clock + 60_000_000).unwrap();
    });

    // How many windows the workload actually closed (each close is one
    // histogram observation plus a trace event in the engine).
    let windows = db.stats().windows_out;

    // ---- replay the instrument traffic, overstated by REPLAY_FACTOR ----
    // Per ingest batch the engine pays ~1 Instant read, a handful of
    // counter bumps and 1 commit-latency observation; per window close,
    // 1 close-latency observation plus counters. Every batch through a
    // stream — ingested, or a window fed to a derived stream — also times
    // its store phase and its post-plan phase (2 reads, 2 observations).
    // Replay all of it 10×.
    let batches = rows.chunks(CHUNK).len() as u64 + 1; // + heartbeat
    let reg = Registry::new(1024);
    let counter = reg.counter("replay.counter");
    let gauge = reg.gauge("replay.gauge");
    let hist = reg.histogram("replay.hist_us");
    let phases = || (0..2).for_each(|_| hist.observe_from(Instant::now()));
    let (_, obs_t) = timed(|| {
        for _ in 0..REPLAY_FACTOR {
            for _ in 0..batches {
                let start = Instant::now();
                counter.add(CHUNK as u64);
                counter.inc();
                counter.inc();
                counter.inc();
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

    println!(
        "\nshape check: even a 10x replay of the instrument traffic must \
         stay under {:.0}% of ingest time.",
        MAX_OVERHEAD * 100.0
    );
    assert!(
        share < MAX_OVERHEAD,
        "observability overhead bound {:.3}% exceeds {:.0}%",
        share * 100.0,
        MAX_OVERHEAD * 100.0
    );
    Ok(())
}
