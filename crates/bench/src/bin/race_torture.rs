//! Seeded chaos-schedule race torture driver (DESIGN.md §14).
//!
//! Sweeps the concurrency-invariant suites from `streamrel_bench::race`
//! — parallel equivalence, many stores on one stream, group-commit
//! conservation, subscription conservation — under one chaos seed per
//! iteration. Every suite runs
//! with the runtime lock witness validating acquisitions against the
//! generated global order and the `streamrel-faults` chaos injector
//! stretching lock/condvar points per the seed's schedule. Results must
//! be byte-identical to the unperturbed serial reference for **every**
//! seed; any divergence, lock-order panic, or deadlock-detector panic
//! fails the run (exit 1) with the reproducing seed printed.
//!
//! Env knobs (all optional):
//!
//! * `RACE_SEED`  — base seed (default 1)
//! * `RACE_SEEDS` — number of consecutive seeds to sweep (default 8;
//!   the nightly lane runs 64, the PR lane pins one)
//! * `RACE_ARTIFACT_DIR` — where failing seeds land (default
//!   `target/race-artifacts`)
//!
//! Reproduce a printed failure with:
//! `RACE_SEED=<seed> RACE_SEEDS=1 cargo run --release --bin race_torture`.

#![deny(unsafe_code)]

use std::path::PathBuf;
use std::time::Instant;

use streamrel_bench::race::{run_seed, RaceFailure};
use streamrel_bench::ResultTable;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let base_seed = env_u64("RACE_SEED", 1);
    let seeds = env_u64("RACE_SEEDS", 8).max(1);
    let artifact_dir = PathBuf::from(
        std::env::var("RACE_ARTIFACT_DIR").unwrap_or_else(|_| "target/race-artifacts".into()),
    );

    println!(
        "race_torture: chaos-schedule sweep, seeds {base_seed}..{} \
         (lock witness on, 4 suites per seed)\n",
        base_seed + seeds - 1
    );

    let start = Instant::now();
    let mut chaos_points = 0u64;
    let mut failures: Vec<RaceFailure> = Vec::new();
    let mut table = ResultTable::new(&["seed", "chaos points", "fail"]);
    for seed in base_seed..base_seed + seeds {
        let outcome = run_seed(seed);
        table.row(&[
            seed.to_string(),
            outcome.chaos_points.to_string(),
            outcome.failures.len().to_string(),
        ]);
        chaos_points += outcome.chaos_points;
        failures.extend(outcome.failures);
    }
    let secs = start.elapsed().as_secs_f64();
    table.print();

    println!(
        "\n{seeds} seed(s), {chaos_points} chaos points, {} divergence(s) in {secs:.2}s",
        failures.len()
    );
    if chaos_points == 0 {
        eprintln!("race_torture: chaos injector never fired — witness instrumentation is dead");
        std::process::exit(1);
    }

    let json = format!(
        "{{\n  \"base_seed\": {base_seed},\n  \"seeds\": {seeds},\n  \
         \"chaos_points\": {chaos_points},\n  \"failures\": {},\n  \"secs\": {secs:.3}\n}}\n",
        failures.len()
    );
    std::fs::write("BENCH_race_torture.json", json)?;
    println!("recorded BENCH_race_torture.json");

    if !failures.is_empty() {
        for f in &failures {
            eprintln!(
                "DIVERGENCE [{}] seed={}\n  {}\n  reproduce: \
                 RACE_SEED={} RACE_SEEDS=1 cargo run --release --bin race_torture",
                f.suite, f.seed, f.detail, f.seed
            );
        }
        std::fs::create_dir_all(&artifact_dir)?;
        let seeds_file = artifact_dir.join("failing-seeds.txt");
        let lines: String = failures
            .iter()
            .map(|f| format!("{} {}\n", f.suite, f.seed))
            .collect();
        std::fs::write(&seeds_file, lines)?;
        eprintln!("failing seeds recorded in {}", seeds_file.display());
        std::process::exit(1);
    }
    println!("schedule independence holds: zero divergence across all seeds");
    Ok(())
}
