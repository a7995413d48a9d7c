//! fanout_bench — serialize-once fan-out under a subscriber sweep.
//!
//! One continuous query, N subscribers multiplexed over a handful of
//! TCP connections (subscribers are *logical*: the readiness reactor
//! holds fds and buffers, not threads, so 10 000 subscribers is a few
//! sockets and one poll set). Each sweep point registers N members via
//! `subscribe_attach`, closes a fixed window sequence, and measures the
//! wall-clock from the closing heartbeat to the last member draining the
//! last window.
//!
//! The run *verifies* while it measures — every sweep point enforces the
//! serialize-once contract and fails the process (for the CI smoke lane)
//! on any violation:
//!
//! * `net.fanout.encodes` == windows closed, NOT windows × subscribers;
//! * every member's sequence is byte-identical to the embedded-API
//!   reference, exactly once (conservation: `net.windows_sent` == N ×
//!   windows with zero drops and zero losses);
//! * memory stays bounded: the aggregate `net.outbox.depth` gauge
//!   settles back to zero once delivery completes.
//!
//! It also records `writes`, the `write(2)` calls the reactor made while
//! delivering (`net.socket_writes`): coalescing sends a socket's pending copies in
//! a few writes, and `scripts/bench_check.sh` gates that count.
//!
//! Timing floors are *not* enforced on hosts with a single core (the
//! reactor, client readers and the ingester have nothing to run on in
//! parallel); the JSON records `"skipped": true` plus the reason so a
//! dashboard can never mistake a too-small host for a pass. Knobs:
//! `FANOUT_SUBS` (comma-separated sweep, default `1,10,100,1000,10000`),
//! `FANOUT_WINDOWS`, `FANOUT_CONNS`.

#![deny(unsafe_code)]

use std::sync::Arc;
use std::time::{Duration, Instant};

use streamrel_bench::ResultTable;
use streamrel_core::{Db, DbOptions, ExecResult};
use streamrel_net::{wire, Client, Server};
use streamrel_types::Value;

const DDL: &str = "CREATE STREAM events (v integer, etime timestamp CQTIME USER)";
const CQ: &str = "SELECT sum(v) total, cq_close(*) w FROM events <TUMBLING '1 minute'>";

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn sweep_points() -> Vec<usize> {
    match std::env::var("FANOUT_SUBS") {
        Ok(list) => list
            .split(',')
            .filter_map(|n| n.trim().parse().ok())
            .filter(|&n| n > 0)
            .collect(),
        Err(_) => vec![1, 10, 100, 1_000, 10_000],
    }
}

fn window_rows(w: i64) -> Vec<Vec<Value>> {
    (0..4)
        .map(|c| {
            vec![
                Value::Int(w * 10 + c),
                Value::Timestamp(w * 60_000_000 + 10_000_000),
            ]
        })
        .collect()
}

/// The reference window sequence via the embedded API.
fn embedded_reference(windows: i64) -> Vec<(i64, Vec<u8>)> {
    let db = Db::in_memory(DbOptions::default());
    db.execute(DDL).unwrap();
    let sub = match db.execute(CQ).unwrap() {
        ExecResult::Subscribed(s) => s,
        other => panic!("expected subscription, got {other:?}"),
    };
    for w in 0..windows {
        for row in window_rows(w) {
            db.ingest("events", row).unwrap();
        }
        db.heartbeat("events", (w + 1) * 60_000_000).unwrap();
    }
    db.poll(sub)
        .unwrap()
        .iter()
        .map(|o| (o.close, wire::encode_rows(&o.relation)))
        .collect()
}

fn metric(db: &Db, name: &str) -> i64 {
    db.metrics_relation()
        .rows()
        .iter()
        .find_map(|r| {
            (r[0] == Value::text(name)).then(|| match &r[2] {
                Value::Int(n) => *n,
                _ => 0,
            })
        })
        .unwrap_or(0)
}

fn await_metric(db: &Db, name: &str, want: i64) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let got = metric(db, name);
        if got == want {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err(format!("{name} stuck at {got}, want {want}"));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

struct Point {
    subs: usize,
    conns: usize,
    register_ms: f64,
    deliver_ms: f64,
    encodes: i64,
    windows_sent: i64,
    writes: i64,
}

/// One sweep point: N members over `conns` connections, verified.
fn run_point(
    subs: usize,
    conns: usize,
    windows: i64,
    reference: &[(i64, Vec<u8>)],
) -> Result<Point, String> {
    let db = Arc::new(Db::in_memory(DbOptions::default()));
    let server = Server::serve(db.clone(), "127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    let admin = Client::connect(addr).map_err(|e| e.to_string())?;
    admin.execute(DDL).map_err(|e| e.to_string())?;

    let conns_n = conns.min(subs).max(1);
    let clients: Vec<Client> = (0..conns_n)
        .map(|_| Client::connect(addr).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;

    // One primary; the remaining N-1 members attach round-robin across
    // the connection pool — many logical subscriptions per socket.
    let reg_start = Instant::now();
    let primary = clients[0].subscribe(CQ).map_err(|e| e.to_string())?;
    let mut streams = Vec::with_capacity(subs);
    for i in 1..subs {
        streams.push(
            clients[i % conns_n]
                .subscribe_attach(primary.id())
                .map_err(|e| e.to_string())?,
        );
    }
    streams.push(primary);
    let register_ms = reg_start.elapsed().as_secs_f64() * 1e3;

    let writes_before = metric(&db, "net.socket_writes");
    let deliver_start = Instant::now();
    for w in 0..windows {
        admin
            .ingest_batch("events", &window_rows(w))
            .map_err(|e| e.to_string())?;
        admin
            .heartbeat("events", (w + 1) * 60_000_000)
            .map_err(|e| e.to_string())?;
    }
    for (i, stream) in streams.iter().enumerate() {
        for want in reference {
            let out = stream
                .next_timeout(Duration::from_secs(30))
                .ok_or_else(|| format!("member {i}: window not delivered within 30s"))?;
            if (out.close, wire::encode_rows(&out.relation)) != *want {
                return Err(format!(
                    "member {i}: window bytes diverge from embedded run"
                ));
            }
        }
        if stream.try_next().is_some() {
            return Err(format!("member {i}: received more windows than closed"));
        }
    }
    let deliver_ms = deliver_start.elapsed().as_secs_f64() * 1e3;

    // Serialize-once: the body was encoded once per window, full stop.
    let encodes = metric(&db, "net.fanout.encodes");
    if encodes != windows {
        return Err(format!(
            "net.fanout.encodes = {encodes}, want {windows} (one per closed window, \
             independent of {subs} subscribers)"
        ));
    }
    // Exactly-once conservation: everything flushed, nothing shed/lost.
    let want_sent = windows * subs as i64;
    await_metric(&db, "net.windows_sent", want_sent)?;
    let (shed, lost) = (
        metric(&db, "net.outbox_drops"),
        metric(&db, "net.delivery_lost"),
    );
    if shed != 0 || lost != 0 {
        return Err(format!("drops={shed} lost={lost}, want 0/0"));
    }
    // Bounded memory: the aggregate outbox depth settles back to zero.
    await_metric(&db, "net.outbox.depth", 0)?;
    let windows_sent = metric(&db, "net.windows_sent");
    let writes = metric(&db, "net.socket_writes") - writes_before;

    drop(streams);
    for c in clients {
        let _ = c.close();
    }
    let _ = admin.close();
    server.shutdown();
    Ok(Point {
        subs,
        conns: conns_n,
        register_ms,
        deliver_ms,
        encodes,
        windows_sent,
        writes,
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let windows = env_usize("FANOUT_WINDOWS", 3) as i64;
    let conns = env_usize("FANOUT_CONNS", 8);
    let sweep = sweep_points();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let skipped = cores < 2;
    let skip_reason = if skipped {
        format!("host has {cores} core(s); reactor, client readers and ingester need >= 2")
    } else {
        String::new()
    };

    println!(
        "fanout_bench: {windows} windows to each of {sweep:?} subscribers \
         over <= {conns} connections\n"
    );
    let reference = embedded_reference(windows);
    assert_eq!(reference.len(), windows as usize);

    let mut points = Vec::new();
    for subs in sweep {
        match run_point(subs, conns, windows, &reference) {
            Ok(p) => {
                println!(
                    "  {:>6} subscribers / {} conns: register {:.1} ms, \
                     deliver {:.1} ms, {} encodes, {} windows sent, {} writes",
                    p.subs,
                    p.conns,
                    p.register_ms,
                    p.deliver_ms,
                    p.encodes,
                    p.windows_sent,
                    p.writes
                );
                points.push(p);
            }
            Err(e) => {
                eprintln!("FAIL at {subs} subscribers: {e}");
                std::process::exit(1);
            }
        }
    }

    let mut table = ResultTable::new(&[
        "subscribers",
        "connections",
        "register ms",
        "deliver ms",
        "encodes",
        "windows sent",
        "writes",
    ]);
    for p in &points {
        table.row(&[
            format!("{}", p.subs),
            format!("{}", p.conns),
            format!("{:.1}", p.register_ms),
            format!("{:.1}", p.deliver_ms),
            format!("{}", p.encodes),
            format!("{}", p.windows_sent),
            format!("{}", p.writes),
        ]);
    }
    table.print();

    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"subs\": {}, \"conns\": {}, \"register_ms\": {:.1}, \
                 \"deliver_ms\": {:.1}, \"encodes\": {}, \"windows_sent\": {}, \"writes\": {}}}",
                p.subs, p.conns, p.register_ms, p.deliver_ms, p.encodes, p.windows_sent, p.writes
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"windows\": {windows},\n  \"cores\": {cores},\n  \"sweep\": [\n{}\n  ],\n  \
         \"skipped\": {skipped},\n  \"skip_reason\": \"{skip_reason}\"\n}}\n",
        rows.join(",\n")
    );
    std::fs::write("BENCH_fanout.json", json)?;
    println!("\nrecorded BENCH_fanout.json");

    if skipped {
        println!("SKIP (timing floors only): {skip_reason}");
    } else {
        println!("PASS: serialize-once and exactly-once held at every sweep point");
    }
    Ok(())
}
