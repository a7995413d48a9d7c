//! The experiments runner (DESIGN.md §4): every suite of
//! `streamrel_bench::experiments::SUITES` — the paper's `f1` and `e1`–`e8`
//! and the engine's `ivm`, `fanout`, `federation`, `ingest`, `obs` and
//! `check` — or only the ones named on the command line:
//!
//! ```text
//! cargo run --release -p streamrel-bench --bin experiments         # all fifteen
//! cargo run --release -p streamrel-bench --bin experiments e3 ivm  # two
//! ```
//!
//! `SCALE` (default 1) multiplies every workload size. Each suite prints
//! its table and its claims; the claims and rates land in
//! `BENCH_experiments.json` (`suites.<name>`) when every suite ran, and in
//! `target/BENCH_experiments.subset.json` when only some did, and the
//! runner exits 1 if any claim failed.

#![deny(unsafe_code)]

use std::error::Error;
use std::time::Instant;

use streamrel_bench::experiments::{record, results_path, run_suite, select, Report};
use streamrel_bench::{scale, ResultTable};

fn main() -> Result<(), Box<dyn Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let suites = select(&args).unwrap_or_else(|e| {
        eprintln!("experiments: {e}");
        std::process::exit(2);
    });
    let path = results_path(suites.len());
    println!(
        "experiments: {} suite(s) at SCALE={}\n",
        suites.len(),
        scale()
    );

    let start = Instant::now();
    let mut results: Vec<(&str, f64, Report)> = Vec::new();
    for (name, run) in suites {
        let t = Instant::now();
        let report = run_suite(name, run)?;
        println!();
        for c in &report.claims {
            println!("  claim {c}");
        }
        for (rate, v) in &report.rates {
            println!("  rate  {name}/{rate}: {v:.3}");
        }
        if let Some(why) = &report.skipped {
            println!("  skipped: {why}");
        }
        println!();
        results.push((name, t.elapsed().as_secs_f64(), report));
    }
    let secs = start.elapsed().as_secs_f64();

    let mut table = ResultTable::new(&["suite", "claims", "held", "secs"]);
    for (name, suite_secs, report) in &results {
        let held = report.claims.iter().filter(|c| c.held()).count();
        table.row(&[
            name.to_string(),
            report.claims.len().to_string(),
            held.to_string(),
            format!("{suite_secs:.2}"),
        ]);
    }
    table.print();
    let head = [
        ("scale", scale().to_string()),
        ("secs", format!("{secs:.3}")),
    ];
    let failed = record(path, &head, &results)?;
    println!("\n{failed} claim(s) failed in {secs:.2}s; recorded {path}");
    if failed > 0 {
        std::process::exit(1);
    }
    println!("every suite's claims held");
    Ok(())
}
