//! The torture runner (DESIGN.md §10.3, §14.3, §16.3): every suite of
//! `streamrel_bench::torture::SUITES` — `storage`, `multilog`, `cq`,
//! `ivm`, `race` and `federation` — over one seed range, failing loudly
//! (exit 1) on any divergence.
//!
//! Env knobs (all optional):
//!
//! * `TORTURE_SEED`  — first seed (default 42)
//! * `TORTURE_SEEDS` — consecutive seeds to run (default 4; the nightly
//!   lane runs 256)
//! * `TORTURE_ARTIFACT_DIR` — where failures land (default
//!   `target/torture-artifacts`): one `<suite>-seed<s>[-op<o>]/` per
//!   failure that has an artifact (its `detail.txt` beside the frozen
//!   disk image or the node's `node-data/`), and `failing-seeds.txt` with
//!   that same name on one line per failure
//!
//! The seed picks every workload size, so a printed failure reproduces with
//! `TORTURE_SEED=<s> TORTURE_SEEDS=1 cargo run --release -p streamrel-bench
//! --bin torture`. Each suite lands in `BENCH_torture.json` as the claims
//! `points > 0` (it exercised something) and `failures == 0`, written like
//! the experiments runner's.
//!
//! `--node <dir> <port>` is the federation suite's serving node: the
//! runner re-executes itself in that mode.

#![deny(unsafe_code)]

use std::error::Error;
use std::path::{Path, PathBuf};
use std::time::Instant;

use streamrel_bench::experiments::{record, Claim, Op, Report};
use streamrel_bench::federation::run_node;
use streamrel_bench::torture::{Artifact, Failure, Outcome, SUITES};
use streamrel_bench::ResultTable;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() -> Result<(), Box<dyn Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [mode, dir, port] = &args[..] {
        if mode == "--node" {
            run_node(Path::new(dir), port.parse()?);
        }
    }

    let base_seed = env_u64("TORTURE_SEED", 42);
    let seeds = env_u64("TORTURE_SEEDS", 4).max(1);
    let artifact_dir = PathBuf::from(
        std::env::var("TORTURE_ARTIFACT_DIR").unwrap_or_else(|_| "target/torture-artifacts".into()),
    );
    println!("torture: seeds {base_seed}..{}\n", base_seed + seeds - 1);

    let start = Instant::now();
    let mut totals: Vec<(Outcome, f64)> = SUITES.iter().map(|_| Default::default()).collect();
    for seed in base_seed..base_seed + seeds {
        for ((_, run), (total, secs)) in SUITES.iter().zip(&mut totals) {
            let t = Instant::now();
            total.merge(run(seed)?);
            *secs += t.elapsed().as_secs_f64();
        }
    }
    let secs = start.elapsed().as_secs_f64();

    let mut table = ResultTable::new(&["suite", "points", "failures"]);
    let mut results = Vec::new();
    for ((name, _), (t, suite_secs)) in SUITES.iter().zip(&totals) {
        let (points, failed) = (t.points, t.failures.len());
        table.row(&[name.to_string(), points.to_string(), failed.to_string()]);
        let claim = |claim, value, op| Claim {
            suite: name,
            ..Claim::new(claim, value, op, 0.0)
        };
        let claims = vec![
            claim("points", points as f64, Op::Gt),
            claim("failures", failed as f64, Op::Eq),
        ];
        results.push((*name, *suite_secs, Report::from(claims)));
    }
    table.print();
    let head = [
        ("base_seed", base_seed.to_string()),
        ("seeds", seeds.to_string()),
        ("secs", format!("{secs:.3}")),
    ];
    let failed_claims = record("BENCH_torture.json", &head, &results)?;
    let failures: Vec<&Failure> = totals.iter().flat_map(|(t, _)| &t.failures).collect();
    println!(
        "\n{} divergence(s) in {secs:.2}s; recorded BENCH_torture.json",
        failures.len()
    );
    if failed_claims == 0 {
        println!("every suite's oracle held at every point");
        return Ok(());
    }

    std::fs::create_dir_all(&artifact_dir)?;
    let mut lines = String::new();
    for f in failures {
        eprintln!(
            "DIVERGENCE {f}\n  reproduce: TORTURE_SEED={} TORTURE_SEEDS=1 \
             cargo run --release -p streamrel-bench --bin torture",
            f.seed
        );
        let op = f.op.map(|op| format!("-op{op}")).unwrap_or_default();
        let name = format!("{}-seed{}{op}", f.suite, f.seed);
        lines.push_str(&format!("{name}\n"));
        if let Some(artifact) = &f.artifact {
            let dir = artifact_dir.join(&name);
            match dump(f, artifact, &dir) {
                Ok(()) => eprintln!("  artifact: {}", dir.display()),
                Err(e) => eprintln!("  artifact dump failed: {e}"),
            }
        }
    }
    let seeds_file = artifact_dir.join("failing-seeds.txt");
    std::fs::write(&seeds_file, lines)?;
    eprintln!("failing seeds recorded in {}", seeds_file.display());
    std::process::exit(1);
}

/// Write one failure's artifact directory: its detail, and the disk
/// image or the node's data directory (moved there).
fn dump(f: &Failure, artifact: &Artifact, dir: &Path) -> Result<(), Box<dyn Error>> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("detail.txt"), &f.detail)?;
    match artifact {
        Artifact::DiskImage(image) => image.dump_to(dir)?,
        Artifact::NodeDir(node) => {
            copy_dir(node, &dir.join("node-data"))?;
            std::fs::remove_dir_all(node)?;
        }
    }
    Ok(())
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let dest = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &dest)?;
        } else {
            std::fs::copy(entry.path(), &dest)?;
        }
    }
    Ok(())
}
