//! `streamrel-lint` — run the Level-2 engine-invariant source lint.
//!
//! Usage: `cargo run -p streamrel-check --bin streamrel-lint [-- <root>]`
//!
//! Scans `crates/`, `shims/` and `src/` under the workspace root (default:
//! the workspace containing this crate), applies the rules documented in
//! DESIGN.md §8, honors the `lint.allow` burndown file, and exits non-zero
//! on any violation or stale allowlist entry — CI wires this into the
//! `lint` job. Lock order is checked per function against
//! `streamrel_check::lock_order`; the runtime lock witness checks it
//! across calls (DESIGN.md §14).

#![deny(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;
use streamrel_check::lint;

fn main() -> ExitCode {
    let root = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            // crates/check -> workspace root.
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
        });

    let report = match lint::run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("streamrel-lint: cannot scan {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    for v in &report.violations {
        println!("{v}");
    }
    for s in &report.stale {
        println!("lint.allow: stale entry `{s}` matches nothing — remove it");
    }
    println!(
        "streamrel-lint: {} file(s) scanned, {} violation(s), {} allowed, {} stale",
        report.files_scanned,
        report.violations.len(),
        report.allowed,
        report.stale.len()
    );
    if report.failed() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
