//! `compare BASE.jsonl CHANGE.jsonl`: the regression rule of
//! `BENCHMARK.json`, applied to two result sets.
//!
//! One row per workload × end-to-end metric: both medians, both spreads
//! (interquartile distance over median), the bound, and a verdict —
//! `worse` (the change's median is worse than the base's by more than
//! the bound), `better` (better by more than the bound), `unresolved`
//! (a spread is wider than the bound, so neither can be said) or `same`.
//! Exits non-zero on any `worse` and on any increase of the failed share.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::json::{self, Json};
use crate::stats::{median, quartiles};

#[derive(Default)]
struct WorkloadRuns {
    metrics: BTreeMap<String, Vec<f64>>,
    attempted: f64,
    failed: f64,
}

#[derive(Default)]
struct ResultSet {
    workloads: BTreeMap<String, WorkloadRuns>,
    /// Measured seconds of the set's runs; a set holds one length only.
    seconds: Option<f64>,
}

fn load(path: &Path) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut set = ResultSet::default();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), n + 1))?;
        if v.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let workload = v
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}:{}: no workload", path.display(), n + 1))?;
        let seconds = v.get("seconds").and_then(Json::as_f64);
        if *set.seconds.get_or_insert(seconds.unwrap_or(0.0)) != seconds.unwrap_or(0.0) {
            return Err(format!(
                "{}:{}: runs of different lengths in one set",
                path.display(),
                n + 1
            ));
        }
        let result = v.get("result").ok_or("no result")?;
        let runs = set.workloads.entry(workload.to_string()).or_default();
        runs.attempted += result
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        runs.failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        for (name, m) in result.get("metrics").map(Json::entries).unwrap_or(&[]) {
            if let Some(x) = m.get("value").and_then(Json::as_f64) {
                runs.metrics.entry(name.clone()).or_default().push(x);
            }
        }
    }
    Ok(set)
}

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn bounds(manifest: &Path) -> Result<Vec<Bound>, String> {
    let text =
        std::fs::read_to_string(manifest).map_err(|e| format!("{}: {e}", manifest.display()))?;
    let v = json::parse(&text).map_err(|e| format!("{}: {e}", manifest.display()))?;
    v.get("end_to_end")
        .map(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without name")?
                    .to_string(),
                lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    let m = median(xs);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

pub fn verdict(base: &[f64], change: &[f64], b: f64, lower_is_better: bool) -> &'static str {
    let (mb, mc) = (median(base), median(change));
    // Positive = the change is worse, as a share of the base's median.
    let worse_by =
        if lower_is_better { mc - mb } else { mb - mc } / mb.abs().max(f64::MIN_POSITIVE);
    if worse_by > b {
        "worse"
    } else if spread(base) > b || spread(change) > b {
        "unresolved"
    } else if worse_by < -b {
        "better"
    } else {
        "same"
    }
}

/// Returns whether the change passes (no `worse`, no more failures).
pub fn main(args: &[String]) -> Result<bool, String> {
    let [base, change] = args else {
        return Err("usage: compare BASE.jsonl CHANGE.jsonl".into());
    };
    let manifest = std::env::var_os("STREAMREL_BENCH_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
        .join("../BENCHMARK.json");
    let bounds = bounds(&manifest)?;
    let (base, change) = (load(Path::new(base))?, load(Path::new(change))?);
    if base.seconds != change.seconds {
        return Err(format!(
            "the sets' runs differ in length ({:?} s and {:?} s): latencies and rates of \
             different phase lengths do not compare",
            base.seconds, change.seconds
        ));
    }
    let mut pass = true;
    println!(
        "{:<18} {:<24} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "base median", "change median", "spread", "spread", "bound"
    );
    for (workload, b) in &base.workloads {
        let Some(c) = change.workloads.get(workload) else {
            println!("{workload:<18} missing from the change's result set");
            pass = false;
            continue;
        };
        for bound in &bounds {
            let (Some(xb), Some(xc)) = (b.metrics.get(&bound.name), c.metrics.get(&bound.name))
            else {
                continue;
            };
            let v = verdict(xb, xc, bound.bound, bound.lower_is_better);
            pass &= v != "worse";
            println!(
                "{workload:<18} {:<24} {:>14.4} {:>14.4} {:>7.1}% {:>7.1}% {:>5.0}%  {v}",
                bound.name,
                median(xb),
                median(xc),
                spread(xb) * 100.0,
                spread(xc) * 100.0,
                bound.bound * 100.0
            );
        }
        let (fb, fc) = (
            b.failed / b.attempted.max(1.0),
            c.failed / c.attempted.max(1.0),
        );
        let v = if fc > fb { "worse" } else { "same" };
        pass &= fc <= fb;
        println!(
            "{workload:<18} {:<24} {fb:>14.6} {fc:>14.6} {:>8} {:>8} {:>6}  {v}",
            "failed_share", "", "", "any"
        );
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::verdict;

    #[test]
    fn verdicts() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let plus20: Vec<f64> = steady.iter().map(|x| x * 1.2).collect();
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(verdict(&steady, &steady, 0.1, true), "same");
        assert_eq!(verdict(&steady, &plus20, 0.1, true), "worse");
        assert_eq!(verdict(&steady, &plus20, 0.1, false), "better");
        assert_eq!(verdict(&plus20, &steady, 0.1, false), "worse");
        assert_eq!(verdict(&steady, &noisy, 0.1, true), "unresolved");
    }
}
