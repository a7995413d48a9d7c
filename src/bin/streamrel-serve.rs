//! The streamrel network server.
//!
//! ```text
//! streamrel-serve <data-dir> <addr>                        # durable database at data-dir
//! streamrel-serve --memory <addr>                          # in-memory database
//! streamrel-serve --memory <addr> --metrics-interval 10    # + periodic metrics dump
//! ```
//!
//! Binds `addr` (e.g. `127.0.0.1:7878`; `127.0.0.1:0` lets the OS pick,
//! and the chosen port is printed as a `PORT=<n>` stdout line for
//! scripts) and serves the wire protocol:
//! snapshot SQL, DDL, ingest, heartbeats, pushed continuous-query
//! results and metric snapshots. Runs until killed; durable
//! databases recover their DDL and watermarks on the next start.
//!
//! With `--metrics-interval <secs>`, the server also prints the
//! `streamrel_metrics` relation to stdout every interval — the same rows
//! a client gets from `SELECT * FROM streamrel_metrics`.

#![deny(unsafe_code)]

use std::sync::Arc;
use std::time::Duration;

use streamrel::net::Server;
use streamrel::types::Value;
use streamrel::{Db, DbOptions};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let metrics_interval = match take_flag_value(&mut args, "--metrics-interval") {
        Ok(v) => match v.map(|s| s.parse::<u64>()) {
            None => None,
            Some(Ok(secs)) if secs > 0 => Some(Duration::from_secs(secs)),
            Some(_) => {
                eprintln!("--metrics-interval wants a positive number of seconds");
                std::process::exit(2);
            }
        },
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let (dir, addr) = match args.as_slice() {
        [dir, addr] => (dir.as_str(), addr.as_str()),
        _ => {
            eprintln!(
                "usage: streamrel-serve <data-dir | --memory> <addr> [--metrics-interval <secs>]"
            );
            std::process::exit(2);
        }
    };
    let db = if dir == "--memory" {
        println!("streamrel-serve: in-memory database");
        Db::in_memory(DbOptions::default())
    } else {
        match Db::open(dir, DbOptions::default()) {
            Ok(db) => {
                println!("streamrel-serve: durable database at {dir}");
                db
            }
            Err(e) => {
                eprintln!("cannot open {dir}: {e}");
                std::process::exit(1);
            }
        }
    };
    let db = Arc::new(db);
    let server = match Server::serve(db.clone(), addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!("listening on {}", server.local_addr());
    // Machine-readable port line: with an `:0` bind the OS picks the
    // port, and CI scripts wiring multiple nodes read it from here
    // instead of racing to pre-pick free ports.
    println!("PORT={}", server.local_addr().port());
    if let Some(interval) = metrics_interval {
        let db = db.clone();
        std::thread::Builder::new()
            .name("streamrel-metrics-dump".into())
            .spawn(move || loop {
                std::thread::sleep(interval);
                dump_metrics(&db);
            })
            .expect("spawn metrics dump thread");
    }
    // Serve until the process is killed; the accept loop runs on its own
    // thread, so just park this one.
    loop {
        std::thread::park();
    }
}

/// Pull `--flag value` out of `args` (anywhere); `Ok(None)` if absent.
fn take_flag_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(format!("{flag} wants a value"));
    }
    let value = args.remove(i + 1);
    args.remove(i);
    Ok(Some(value))
}

/// Print the current `streamrel_metrics` relation, one instrument per line.
fn dump_metrics(db: &Db) {
    let rel = db.metrics_relation();
    println!("-- metrics ({} instruments) --", rel.len());
    for row in rel.rows() {
        let cell = |v: &Value| match v {
            Value::Null => "-".to_string(),
            Value::Text(t) => t.to_string(),
            other => other.to_string(),
        };
        println!(
            "{:<40} {:<10} {}",
            cell(&row[0]),
            cell(&row[1]),
            row[2..].iter().map(cell).collect::<Vec<_>>().join(" ")
        );
    }
}
