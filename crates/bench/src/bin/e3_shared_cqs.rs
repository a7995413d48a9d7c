//! E3 — §2.2 "Jellybean processing" (refs [4, 12]): shared slice
//! aggregation lets many concurrent aggregate CQs cost roughly one CQ's
//! per-tuple work.
//!
//! We register 1..64 top-URL CQs over the same stream (identical grouping,
//! varying windows), feed an identical clickstream with sharing ON (one
//! pooled slice store) and OFF (one private store per CQ — the same
//! mechanism, N members of one pool vs N pools of one), and report
//! wall-clock throughput and per-tuple cost. Unshared cost must grow
//! ~linearly with the CQ count; shared cost must stay near-flat.

#![deny(unsafe_code)]

use streamrel_bench::{fmt_dur, growth_factor, scale, timed, ResultTable};
use streamrel_core::{Db, DbOptions};
use streamrel_types::Row;
use streamrel_workload::ClickstreamGen;

fn run(n_cqs: usize, sharing: bool, rows: &[Row], end: i64) -> std::time::Duration {
    let opts = if sharing {
        DbOptions::default()
    } else {
        DbOptions::default().without_sharing()
    };
    let db = Db::in_memory(opts);
    db.execute(&ClickstreamGen::create_stream_sql("clicks"))
        .unwrap();
    let mut subs = Vec::new();
    for i in 0..n_cqs {
        let visible = 1 + (i % 4);
        let sub = db
            .execute(&format!(
                "SELECT url, count(*) c FROM clicks \
                 <VISIBLE '{visible} minutes' ADVANCE '1 minute'> \
                 GROUP BY url ORDER BY c DESC LIMIT 10"
            ))
            .unwrap()
            .subscription();
        subs.push(sub);
    }
    let (_, t) = timed(|| {
        for chunk in rows.chunks(10_000) {
            db.ingest_batch("clicks", chunk.to_vec()).unwrap();
        }
        db.heartbeat("clicks", end).unwrap();
    });
    // Sanity: every CQ produced identical final top-1 counts whether
    // shared or not.
    let mut top1 = None;
    for sub in subs {
        let outs = db.poll(sub).unwrap();
        let last = outs.last().expect("windows closed");
        let first_row = last.relation.rows()[0].clone();
        match &top1 {
            None => top1 = Some(first_row),
            Some(prev) => assert_eq!(prev[0], first_row[0]),
        }
    }
    t
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("E3: shared vs unshared execution of N concurrent aggregate CQs\n");
    let n_tuples = 120_000 * scale();
    let mut gen = ClickstreamGen::new(31, 2_000, 0, 200);
    let rows = gen.take_rows(n_tuples);
    let end = gen.clock() + 60_000_000;
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
    for &n in &counts {
        let tu = run(n, false, &rows, end);
        let ts = run(n, true, &rows, end);
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
    println!(
        "shape check: unshared per-tuple cost grows with the number of \
         CQs; shared stays near-flat (one aggregation pass regardless of \
         fan-out) — the paper's [12] 'on-the-fly sharing'."
    );
    assert!(
        unshared_cost.last().unwrap() / shared_cost.last().unwrap() > 2.0,
        "sharing must win clearly at 64 CQs"
    );
    assert!(sg < ug, "shared cost must grow slower than unshared");
    Ok(())
}
