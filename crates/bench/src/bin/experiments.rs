//! The experiments runner (DESIGN.md §4): every suite of
//! `streamrel_bench::experiments::SUITES` — `f1` and `e1`–`e8`, one per
//! claim of the paper — or only the ones named on the command line:
//!
//! ```text
//! cargo run --release -p streamrel-bench --bin experiments         # all nine
//! cargo run --release -p streamrel-bench --bin experiments e3 e7   # two
//! ```
//!
//! `SCALE` (default 1) multiplies every workload size. Each suite prints
//! its table and its claims; the claims land in `BENCH_experiments.json`
//! (`suites.<name>.claims`), and the runner exits 1 if any failed.

#![deny(unsafe_code)]

use std::error::Error;
use std::time::Instant;

use streamrel_bench::experiments::{num, run_suite, select, Claim};
use streamrel_bench::{scale, ResultTable};

/// A claim's number as JSON: `null` where it is no finite number.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        num(v)
    } else {
        "null".into()
    }
}

fn main() -> Result<(), Box<dyn Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let suites = select(&args).unwrap_or_else(|e| {
        eprintln!("experiments: {e}");
        std::process::exit(2);
    });
    println!(
        "experiments: {} suite(s) at SCALE={}\n",
        suites.len(),
        scale()
    );

    let start = Instant::now();
    let mut results: Vec<(&str, f64, Vec<Claim>)> = Vec::new();
    for (name, run) in suites {
        let t = Instant::now();
        let claims = run_suite(name, run)?;
        println!();
        for c in &claims {
            println!("  claim {c}");
        }
        println!();
        results.push((name, t.elapsed().as_secs_f64(), claims));
    }
    let secs = start.elapsed().as_secs_f64();

    let mut table = ResultTable::new(&["suite", "claims", "held", "secs"]);
    let mut suites_json = Vec::new();
    for (name, suite_secs, claims) in &results {
        let held = claims.iter().filter(|c| c.held()).count();
        table.row(&[
            name.to_string(),
            claims.len().to_string(),
            held.to_string(),
            format!("{suite_secs:.2}"),
        ]);
        let claims_json: Vec<String> = claims
            .iter()
            .map(|c| {
                format!(
                    "        {{ \"name\": \"{}\", \"value\": {}, \"op\": \"{}\", \
                     \"bound\": {}, \"held\": {} }}",
                    c.name,
                    json_num(c.value),
                    c.op,
                    json_num(c.bound),
                    c.held()
                )
            })
            .collect();
        suites_json.push(format!(
            "    \"{name}\": {{\n      \"secs\": {suite_secs:.3},\n      \"claims\": [\n{}\n      ]\n    }}",
            claims_json.join(",\n")
        ));
    }
    table.print();
    let json = format!(
        "{{\n  \"scale\": {},\n  \"suites\": {{\n{}\n  }},\n  \"secs\": {secs:.3}\n}}\n",
        scale(),
        suites_json.join(",\n")
    );
    std::fs::write("BENCH_experiments.json", json)?;

    let failed: Vec<&Claim> = results
        .iter()
        .flat_map(|(_, _, claims)| claims)
        .filter(|c| !c.held())
        .collect();
    println!(
        "\n{} claim(s) failed in {secs:.2}s; recorded BENCH_experiments.json",
        failed.len()
    );
    if failed.is_empty() {
        println!("every suite's claims held");
        return Ok(());
    }
    for c in failed {
        eprintln!("CLAIM {c}");
    }
    std::process::exit(1);
}
