//! Wire-layer equivalence and robustness.
//!
//! The protocol must be a transparent transport: results delivered to a
//! remote subscriber are byte-identical to what the same workload yields
//! from the embedded API. On top of that, the server has to survive
//! hostile input (malformed frames) and abrupt client death, reaping the
//! dead connection's subscriptions.

use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use streamrel::net::{wire, Client, Frame, FrameType, Server, ServerOptions};
use streamrel::types::Value;
use streamrel::{Db, DbOptions, ExecResult};

const DDL: &str = "CREATE STREAM events (v integer, etime timestamp CQTIME USER)";
const CQ: &str = "SELECT sum(v) total, cq_close(*) w FROM events <TUMBLING '1 minute'>";

const INGESTERS: usize = 4;
const SUBSCRIBERS: usize = 4;
const ROUNDS: i64 = 12; // 10s apart -> two one-minute windows

fn row(round: i64, client: i64) -> Vec<Value> {
    // All rows of one round share a timestamp, so any cross-client
    // interleaving within a round is a valid arrival order under zero
    // slack; a barrier keeps rounds themselves ordered.
    vec![
        Value::Int(round * 10 + client),
        Value::Timestamp(round * 10_000_000),
    ]
}

/// Canonical bytes for one window result: close time + codec-encoded
/// relation. "Byte-matching" means these are equal.
fn canonical(close: i64, relation: &streamrel::types::Relation) -> (i64, Vec<u8>) {
    (close, wire::encode_rows(relation))
}

/// The reference: same workload through the embedded API.
fn in_process_reference() -> Vec<(i64, Vec<u8>)> {
    let db = Db::in_memory(DbOptions::default());
    db.execute(DDL).unwrap();
    let sub = match db.execute(CQ).unwrap() {
        ExecResult::Subscribed(s) => s,
        other => panic!("expected subscription, got {other:?}"),
    };
    for r in 0..ROUNDS {
        for c in 0..INGESTERS as i64 {
            db.ingest("events", row(r, c)).unwrap();
        }
    }
    db.heartbeat("events", 120_000_000).unwrap();
    db.poll(sub)
        .unwrap()
        .iter()
        .map(|o| canonical(o.close, &o.relation))
        .collect()
}

#[test]
fn remote_subscribers_see_byte_identical_results() {
    let reference = in_process_reference();
    assert_eq!(reference.len(), 2, "workload closes two windows");

    let db = Arc::new(Db::in_memory(DbOptions::default()));
    let server = Server::serve(db.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let admin = Client::connect(addr).unwrap();
    admin.execute(DDL).unwrap();

    // M subscribers, registered before any data flows.
    let subscribers: Vec<Client> = (0..SUBSCRIBERS)
        .map(|_| Client::connect(addr).unwrap())
        .collect();
    let streams: Vec<_> = subscribers
        .iter()
        .map(|c| c.subscribe(CQ).unwrap())
        .collect();
    assert_eq!(db.stats().live_subs, SUBSCRIBERS as u64);

    // N concurrent ingest clients, one barrier'd round at a time.
    let barrier = Barrier::new(INGESTERS);
    std::thread::scope(|s| {
        for c in 0..INGESTERS as i64 {
            let barrier = &barrier;
            s.spawn(move || {
                let client = Client::connect(addr).unwrap();
                for r in 0..ROUNDS {
                    barrier.wait();
                    assert_eq!(client.ingest_batch("events", &[row(r, c)]).unwrap(), 1);
                    barrier.wait();
                }
                client.close().unwrap();
            });
        }
    });
    admin.heartbeat("events", 120_000_000).unwrap();

    // Every subscriber gets the pushed windows, byte-identical to the
    // embedded run — no polling anywhere on the client side.
    for stream in &streams {
        let mut got = Vec::new();
        while got.len() < reference.len() {
            let out = stream
                .next_timeout(Duration::from_secs(10))
                .expect("window result not pushed within 10s");
            got.push(canonical(out.close, &out.relation));
        }
        assert_eq!(got, reference);
    }

    let stats = db.stats();
    assert_eq!(stats.tuples_in, (ROUNDS as u64) * INGESTERS as u64);
    assert_eq!(stats.sub_drops, 0);
    drop(streams);
    drop(subscribers);
    drop(admin);
    server.shutdown();
}

#[test]
fn stats_frame_matches_embedded_metrics_schema() {
    let db = Arc::new(Db::in_memory(DbOptions::default()));
    let server = Server::serve(db.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let client = Client::connect(addr).unwrap();
    client.execute(DDL).unwrap();
    client.ingest_batch("events", &[row(0, 0)]).unwrap();

    let over_wire = client.stats().unwrap();
    let embedded = match db.execute("SELECT * FROM streamrel_metrics").unwrap() {
        ExecResult::Rows(rel) => rel,
        other => panic!("expected rows, got {other:?}"),
    };

    // Byte-identical schema: both sides run through the one relation
    // codec, so encoding schema-only relations must agree exactly.
    let schema_bytes = |rel: &streamrel::types::Relation| {
        wire::encode_rows(&streamrel::types::Relation::empty(rel.schema().clone()))
    };
    assert_eq!(
        schema_bytes(&over_wire),
        schema_bytes(&embedded),
        "wire Stats schema differs from embedded SELECT"
    );

    // The wire snapshot is live engine state: the ingest above is
    // visible, and the serving connection counts itself.
    let value_of = |rel: &streamrel::types::Relation, name: &str| -> Option<Value> {
        rel.rows()
            .iter()
            .find(|r| r[0] == Value::text(name))
            .map(|r| r[2].clone())
    };
    assert_eq!(value_of(&over_wire, "db.tuples_in"), Some(Value::Int(1)));
    match value_of(&over_wire, "net.connections") {
        Some(Value::Int(n)) if n >= 1 => {}
        other => panic!("net.connections should count this client, got {other:?}"),
    }

    client.close().unwrap();
    server.shutdown();

    // Per-connection instruments are reaped with their connections.
    assert!(
        !db.metrics_relation()
            .rows()
            .iter()
            .any(|r| matches!(&r[0], Value::Text(t) if t.starts_with("net.conn."))),
        "per-connection counters must not outlive the connection"
    );
}

#[test]
fn malformed_frame_gets_error_and_server_survives() {
    let db = Arc::new(Db::in_memory(DbOptions::default()));
    let server = Server::serve(db.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // Hand-roll frames with a bogus protocol version byte, and with the
    // types 9 and 10 the retired metrics request and reply used.
    use std::io::Write;
    let v = streamrel::net::PROTOCOL_VERSION;
    for (bytes, problem) in [
        ([2, 0, 0, 0, 99, 1], "version"),
        ([2, 0, 0, 0, v, 9], "unknown frame type 9"),
        ([2, 0, 0, 0, v, 10], "unknown frame type 10"),
    ] {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(&bytes).unwrap();
        let reply = Frame::read_from(&mut raw).unwrap().expect("error frame");
        assert_eq!(reply.ty, FrameType::Error);
        let msg = wire::decode_error(&reply.payload).unwrap();
        assert!(msg.contains(problem), "diagnostic names the problem: {msg}");
        // The server hangs up on protocol corruption…
        assert!(Frame::read_from(&mut raw).unwrap().is_none());
    }

    // …but keeps serving well-formed clients.
    let client = Client::connect(addr).unwrap();
    let rel = client.execute("SELECT 1 one").unwrap();
    assert_eq!(rel.rows(), [vec![Value::Int(1)]]);

    // SQL errors, by contrast, are replies — the connection stays up.
    assert!(client.execute("SELEKT nope").is_err());
    let rel = client.execute("SELECT 2 two").unwrap();
    assert_eq!(rel.rows(), [vec![Value::Int(2)]]);
    client.close().unwrap();
    server.shutdown();
}

#[test]
fn frames_sent_just_before_eof_are_handled_and_answered() {
    let db = Arc::new(Db::in_memory(DbOptions::default()));
    let server = Server::serve(db.clone(), "127.0.0.1:0").unwrap();
    db.execute(DDL).unwrap();

    // A producer's last batch and heartbeat in one write, then its
    // write half closes: the server reads them and the EOF together.
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let rows = [row(0, 0), row(0, 1), row(1, 0)];
    let mut bytes = Vec::new();
    Frame::new(FrameType::Ingest, wire::encode_ingest("events", &rows))
        .write_to(&mut bytes)
        .unwrap();
    Frame::new(
        FrameType::Heartbeat,
        wire::encode_heartbeat("events", 60_000_000),
    )
    .write_to(&mut bytes)
    .unwrap();
    {
        use std::io::Write;
        raw.write_all(&bytes).unwrap();
    }
    raw.shutdown(std::net::Shutdown::Write).unwrap();

    let mut replies = Vec::new();
    while let Some(frame) = Frame::read_from(&mut raw).unwrap() {
        replies.push(frame);
    }
    let types: Vec<FrameType> = replies.iter().map(|f| f.ty).collect();
    assert_eq!(types, [FrameType::Rows, FrameType::Heartbeat]);
    let ack = wire::decode_rows(&replies[0].payload).unwrap();
    assert_eq!(
        ack.rows(),
        wire::ack_relation("ingested", "events", 3).rows()
    );
    let echo = wire::decode_heartbeat(&replies[1].payload).unwrap();
    assert_eq!(echo, ("events".to_string(), 60_000_000));
    assert_eq!(db.stats().tuples_in, rows.len() as u64);
    server.shutdown();
}

#[test]
fn abrupt_disconnect_reaps_subscriptions() {
    let db = Arc::new(Db::in_memory(DbOptions::default()));
    let server = Server::serve(db.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let admin = Client::connect(addr).unwrap();
    admin.execute(DDL).unwrap();

    // Subscribe over a raw socket, then vanish without a Goodbye.
    let mut raw = TcpStream::connect(addr).unwrap();
    {
        use std::io::Write;
        Frame::new(FrameType::Query, wire::encode_query(CQ))
            .write_to(&mut raw)
            .unwrap();
        raw.flush().unwrap();
    }
    let reply = Frame::read_from(&mut raw).unwrap().unwrap();
    assert_eq!(reply.ty, FrameType::Subscribed);
    assert_eq!(db.stats().live_subs, 1);

    drop(raw); // abrupt: TCP RST/FIN with no protocol goodbye

    // The server notices EOF and unsubscribes the dead client.
    let deadline = Instant::now() + Duration::from_secs(5);
    while db.stats().live_subs != 0 {
        assert!(Instant::now() < deadline, "dead subscription never reaped");
        std::thread::sleep(Duration::from_millis(10));
    }

    // The engine no longer retains windows for it either: ingest and
    // close a window, and nothing queues anywhere.
    admin.ingest_batch("events", &[row(0, 0)]).unwrap();
    admin.heartbeat("events", 120_000_000).unwrap();
    assert_eq!(db.stats().live_subs, 0);
    admin.close().unwrap();
    server.shutdown();
}

#[test]
fn half_open_connection_is_reaped_on_read_timeout() {
    let db = Arc::new(Db::in_memory(DbOptions::default()));
    let opts = ServerOptions {
        read_timeout: Some(Duration::from_millis(100)),
        ..ServerOptions::default()
    };
    let server = Server::serve_with(db.clone(), "127.0.0.1:0", opts).unwrap();
    let addr = server.local_addr();

    // Connect, then go silent: no frames, no FIN — a half-open client.
    // Without a read deadline this would pin its connection thread in
    // request_loop forever.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    use std::io::Read;
    let mut buf = [0u8; 16];
    // The server must hang up (EOF) once the idle deadline expires.
    let n = raw.read(&mut buf).unwrap();
    assert_eq!(n, 0, "server should close the half-open connection");

    // The reap is observable in the metrics relation.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let reaped = db
            .metrics_relation()
            .rows()
            .iter()
            .find(|r| r[0] == Value::text("net.idle_reaped"))
            .map(|r| r[2].clone());
        if reaped == Some(Value::Int(1)) {
            break;
        }
        assert!(Instant::now() < deadline, "idle reap never counted");
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}

#[test]
fn idle_subscriber_survives_read_timeout() {
    let db = Arc::new(Db::in_memory(DbOptions::default()));
    let opts = ServerOptions {
        read_timeout: Some(Duration::from_millis(100)),
        ..ServerOptions::default()
    };
    let server = Server::serve_with(db.clone(), "127.0.0.1:0", opts).unwrap();
    let addr = server.local_addr();

    let admin = Client::connect(addr).unwrap();
    admin.execute(DDL).unwrap();

    // A subscriber sends one frame, then sits silent far longer than the
    // idle deadline — exactly the shape of a push consumer mid-stream.
    let subscriber = Client::connect(addr).unwrap();
    let stream = subscriber.subscribe(CQ).unwrap();
    std::thread::sleep(Duration::from_millis(400));
    assert_eq!(
        db.stats().live_subs,
        1,
        "idle subscriber must not be reaped"
    );

    // The idle admin (no subscriptions) was half-open and got reaped;
    // drive the data from a fresh connection. The subscriber, by
    // contrast, still receives pushed windows after the silence.
    let feeder = Client::connect(addr).unwrap();
    feeder.ingest_batch("events", &[row(0, 0)]).unwrap();
    feeder.heartbeat("events", 120_000_000).unwrap();
    let out = stream
        .next_timeout(Duration::from_secs(10))
        .expect("window result pushed to idle subscriber");
    assert_eq!(out.close, 60_000_000);

    drop(stream);
    subscriber.close().unwrap();
    feeder.close().unwrap();
    drop(admin); // already hung up server-side
    server.shutdown();
}

#[test]
fn check_rejection_is_byte_identical_embedded_and_remote() {
    // A plan the Level-1 admission check refuses must come back as a
    // structured error frame carrying the same message the embedded API
    // produces — never a dropped connection. One case per rule family.
    let bad = [
        "SELECT v FROM events",        // unbounded-stream
        "SELECT sum(v) s FROM events", // unbounded-aggregate
        "SELECT count(*) c FROM events <VISIBLE '1 minute' ADVANCE '5 minutes'>",
    ];

    let embedded = Db::in_memory(DbOptions::default());
    embedded.execute(DDL).unwrap();

    let db = Arc::new(Db::in_memory(DbOptions::default()));
    let server = Server::serve(db.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let client = Client::connect(addr).unwrap();
    client.execute(DDL).unwrap();

    for sql in bad {
        let local = embedded.execute(sql).unwrap_err().to_string();
        assert!(local.starts_with("check error ["), "{sql}: {local}");
        let remote = match client.execute(sql) {
            Err(streamrel::net::NetError::Remote(msg)) => msg,
            other => panic!("{sql}: expected remote error frame, got {other:?}"),
        };
        assert_eq!(local, remote, "{sql}: embedded and remote messages differ");
    }

    // The connection survived all three rejections.
    client.execute("SELECT 1").unwrap();
    client.close().unwrap();
    server.shutdown();
}

#[test]
fn explain_check_report_is_byte_identical_embedded_and_remote() {
    // `EXPLAIN CHECK` output is an ordinary relation (kind, rule,
    // detail, hint, path): a remote client must receive exactly the
    // bytes the embedded API produces, including the `path` column's
    // IVM-vs-reeval verdict.
    let cases = [
        // Eligible grouped aggregate: lowered to delta processing.
        (
            "SELECT v, count(*) c FROM events \
             <VISIBLE '2 minutes' ADVANCE '1 minute'> GROUP BY v",
            "ivm",
        ),
        // The same, with an ivm-order row saying its view emits by key.
        (
            "SELECT v, count(*) c FROM events \
             <VISIBLE '2 minutes' ADVANCE '1 minute'> GROUP BY v ORDER BY v",
            "ivm",
        ),
        // Float AVG: an inexact merge, sliced because the default options
        // pool stores — the path the engine actually runs it on.
        (
            "SELECT avg(v * 0.5) mean FROM events \
             <VISIBLE '60 seconds' ADVANCE '1 second'>",
            "ivm",
        ),
        // ROWS window: re-evaluation, with an ivm-fallback info row.
        (
            "SELECT v FROM events <VISIBLE 10 ROWS ADVANCE 10 ROWS>",
            "reeval",
        ),
        // Snapshot query: no standing state, no path.
        ("SELECT 1 one", "-"),
    ];

    let embedded = Db::in_memory(DbOptions::default());
    embedded.execute(DDL).unwrap();

    let db = Arc::new(Db::in_memory(DbOptions::default()));
    let server = Server::serve(db.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let client = Client::connect(addr).unwrap();
    client.execute(DDL).unwrap();

    for (sql, want_path) in cases {
        let explain = format!("EXPLAIN CHECK {sql}");
        let local = match embedded.execute(&explain).unwrap() {
            ExecResult::Rows(rel) => rel,
            other => panic!("{explain}: expected rows, got {other:?}"),
        };
        let remote = client.execute(&explain).unwrap();
        assert_eq!(
            wire::encode_rows(&local),
            wire::encode_rows(&remote),
            "{explain}: embedded and remote reports differ"
        );
        match remote.rows().first().and_then(|r| r.get(4)) {
            Some(Value::Text(p)) if p.as_ref() == want_path => {}
            other => panic!("{explain}: expected path {want_path}, got {other:?}"),
        }
        // EXPLAIN CHECK registers nothing on either side.
        assert_eq!(db.stats().live_subs, 0);
    }
    client.close().unwrap();
    server.shutdown();
}

/// A bridge pointed at a dead address keeps retrying with backoff and
/// attaches as soon as a listener appears — the serving node can come up
/// *after* its consumers, in any order.
#[test]
fn bridge_backs_off_until_server_appears() {
    use streamrel::net::{Bridge, BridgeOptions};

    // Reserve a port, then free it: nothing is listening there yet.
    let port = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().port()
    };
    let addr = format!("127.0.0.1:{port}");

    let consumer = Arc::new(Db::in_memory(DbOptions::default()));
    consumer
        .execute("CREATE STREAM partials (v integer, ptime timestamp CQTIME USER)")
        .unwrap();
    let merged = match consumer
        .execute("SELECT sum(v) total, cq_close(*) w FROM partials <TUMBLING '1 minute'>")
        .unwrap()
    {
        ExecResult::Subscribed(s) => s,
        other => panic!("expected subscription, got {other:?}"),
    };
    let opts = BridgeOptions {
        backoff_initial: Duration::from_millis(10),
        backoff_max: Duration::from_millis(100),
    };
    let bridge =
        Bridge::start(consumer.clone(), addr.clone(), "derived", "partials", opts).unwrap();

    // Long enough that backoff has hit its cap several times over.
    std::thread::sleep(Duration::from_millis(300));
    assert!(!bridge.is_up());
    assert_eq!(bridge.reconnects(), 0, "no link existed to re-establish");

    // The serving node appears late; the next retry attaches.
    let producer = Arc::new(Db::in_memory(DbOptions::default()));
    producer
        .execute("CREATE STREAM events (v integer, etime timestamp CQTIME USER)")
        .unwrap();
    producer
        .execute(
            "CREATE STREAM derived AS SELECT sum(v) v, cq_close(*) dtime \
             FROM events <TUMBLING '1 minute'>",
        )
        .unwrap();
    let server = Server::serve(producer.clone(), addr.as_str()).unwrap();
    assert!(
        bridge.wait_until_up(Duration::from_secs(10)),
        "bridge never attached"
    );
    // First successful attach is not a *re*connect.
    assert_eq!(bridge.reconnects(), 0);

    // And the link actually carries data end to end.
    producer
        .ingest("events", vec![Value::Int(7), Value::Timestamp(1_000_000)])
        .unwrap();
    producer.heartbeat("events", 120_000_000).unwrap();
    assert!(bridge.wait_for_windows(1, Duration::from_secs(10)));
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut outs = Vec::new();
    while outs.is_empty() {
        assert!(Instant::now() < deadline, "merged window never closed");
        outs = consumer.poll(merged).unwrap();
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(outs[0].relation.rows()[0][0], Value::Int(7));
    bridge.shutdown();
    server.shutdown();
}
