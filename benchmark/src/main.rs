//! `streamrel-benchmark`: tuple-in → window-in-hand, end to end and layer
//! by layer, over four deployments. See `benchmark/README.md`.

mod catalogue;
mod compare;
mod deploy;
mod gen;
mod json;
mod layers;
mod procs;
mod reference;
mod report;
mod run;
#[cfg(test)]
mod selftest;
mod stats;
mod trace;
mod traced;

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use deploy::Kind;
use procs::Env;
use run::{Outcome, RunConfig};

/// Measured seconds when `--seconds` is not given (`run_seconds` of
/// `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 32.0;
/// `--smoke`: a short run (3 s paced + 3 s saturate).
const SMOKE_SECONDS: f64 = 6.0;

const USAGE: &str = "usage: run.sh [--workload W]... [--seed N] [--seconds S] [--trace [0|1]] \
[--smoke] [--out FILE]\n       run.sh compare BASE.jsonl CHANGE.jsonl\n\
workloads: embedded_sliding wire_fanout durable_active bridged_rollup (default: all four, \
one process each)";

struct Args {
    workload: Kind,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut a = Args {
        workload: Kind::EmbeddedSliding,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{what} wants a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                workload =
                    Some(Kind::from_name(&w).ok_or_else(|| format!("unknown workload `{w}`"))?);
            }
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed wants a whole number".to_string())?
            }
            // The driver of `BENCHMARK.json` passes its `run_seconds`.
            "--seconds" => {
                a.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| (1.0..=60.0).contains(s))
                    .ok_or("--seconds wants a number from 1 to 60")?
            }
            "--out" => a.out = Some(PathBuf::from(value("--out")?)),
            "--smoke" => a.seconds = SMOKE_SECONDS,
            "--trace" => {
                // `--trace 0|1` (the driver's form) or a bare flag.
                a.traced = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    // One workload per process: `peak_rss_mb` is a high-water mark of the
    // process's whole life. `run.sh` starts one process per workload.
    a.workload = workload.ok_or(format!("--workload is required\n{USAGE}"))?;
    Ok(a)
}

type Values = Vec<(&'static str, f64)>;
type Units = &'static [(&'static str, &'static str)];

/// `{"name": {"value": v, "unit": "u"}, …}` with every digit measured.
fn metrics_json(values: &Values, units: Units) -> String {
    let mut s = String::from("{");
    for (i, (name, value)) in values.iter().enumerate() {
        let unit = units
            .iter()
            .find(|(n, _)| n == name)
            .map_or("", |(_, u)| *u);
        let v = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            s,
            "{}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    s.push('}');
    s
}

fn print_table(values: &Values, units: Units) {
    for (name, value) in values {
        let unit = units
            .iter()
            .find(|(n, _)| n == name)
            .map_or("", |(_, u)| *u);
        println!("  {name:<36} {value:>16.4} {unit}");
    }
}

fn one_run(args: &Args, env: &Env) -> Result<bool, String> {
    let kind = args.workload;
    let (values, units, outcome): (Values, Units, Outcome) = if args.traced {
        let (traced, layer_spans) = traced::traced_run(kind, args.seed, args.seconds, env)?;
        let values = report::per_layer(&traced);
        let home = traced.run;
        let mut spans = home.tracer.spans.clone();
        spans.extend(layer_spans.spans);
        spans.sort_by_key(|s| s.start_ns);
        let path = env.out_dir.join(format!("trace-{}.json", kind.name()));
        let body = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"spans\": {}}}\n",
            kind.name(),
            args.seed,
            trace::spans_json(&spans)
        );
        std::fs::write(&path, body).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("  spans: {} → {}", spans.len(), path.display());
        (values, report::PER_LAYER, home)
    } else {
        let cfg = RunConfig {
            kind,
            seed: args.seed,
            seconds: args.seconds,
            traced: false,
        };
        let (outcome, dep) = run::run(&cfg, env)?;
        drop(dep);
        (report::end_to_end(&outcome), report::END_TO_END, outcome)
    };
    println!(
        "{} seed {} — {} ticks sent ({} paced, {} tuples too late by design), \
         {} windows expected, {} latency samples, {} set-ups, host parallelism {}",
        kind.name(),
        args.seed,
        outcome.sent_ticks,
        outcome.paced_ticks,
        outcome.generator_late_tuples,
        outcome.windows_expected,
        outcome.latency_us.len(),
        outcome.setup_s.len(),
        env.host_cpus,
    );
    let sat = &outcome.saturate;
    println!(
        "  closed loop: {} ticks in {:.3} s, {:.3} CPU s, {} timed units",
        sat.ticks,
        sat.wall_s,
        sat.cpu_s,
        sat.units.len()
    );
    print_table(&values, units);
    for note in &outcome.notes {
        println!("  note: {note}");
    }
    let correct = outcome.failed == 0;
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json(&values, units)
    );
    // The result set `compare` reads: one line per run.
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| env.out_dir.join("results.jsonl"));
    let line = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"result\": {result}}}\n",
        kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.traced),
    );
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&out)
        .and_then(|mut f| f.write_all(line.as_bytes()))
        .map_err(|e| format!("append {}: {e}", out.display()))?;
    // Last line of standard output: the result object.
    println!("{result}");
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match compare::main(&argv[1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let env = match Env::from_env() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot start: {e}");
            return ExitCode::from(3);
        }
    };
    match one_run(&args, &env) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("{}: verification failed", args.workload.name());
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("{}: {e}", args.workload.name());
            ExitCode::from(1)
        }
    }
}
