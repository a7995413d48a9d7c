//! Serialize-once fan-out: equivalence, exactly-once, and conservation.
//!
//! One continuous query with N subscribers must behave like N private
//! copies of the query — every member receives the byte-identical window
//! sequence exactly once, remote or embedded — while the server does the
//! work of *one*: each closed window is encoded into a single shared
//! frame body no matter how many outboxes it is broadcast to
//! (`net.fanout.encodes` counts windows, not windows × subscribers).
//! On the loss side, nothing vanishes silently: windows routed to a
//! subscriber are either flushed (`net.windows_sent`), shed by its
//! bounded outbox (`net.outbox_drops`), or counted as casualties of its
//! death (`net.delivery_lost`) — the three must sum to the windows its
//! query closed.

use std::io::{ErrorKind, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use streamrel::net::{wire, Client, Frame, FrameDecoder, FrameType, Server, ServerOptions};
use streamrel::types::Value;
use streamrel::{Db, DbOptions, ExecResult};
use streamrel_core::DEFAULT_SUB_CAPACITY;
use streamrel_faults::chaos;

const DDL: &str = "CREATE STREAM events (v integer, etime timestamp CQTIME USER)";
const CQ: &str = "SELECT sum(v) total, cq_close(*) w FROM events <TUMBLING '1 minute'>";

/// Rows for one window: all share a timestamp inside window `w`, so the
/// aggregate is independent of arrival interleaving.
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

/// Canonical bytes for one window result; "byte-identical" compares these.
fn canonical(close: i64, relation: &streamrel::types::Relation) -> (i64, Vec<u8>) {
    (close, wire::encode_rows(relation))
}

/// The reference: `windows` one-minute windows of the same workload
/// through the embedded API, drained from a single subscription.
fn embedded_reference(windows: i64) -> Vec<(i64, Vec<u8>)> {
    let db = Db::in_memory(DbOptions::default());
    db.execute(DDL).unwrap();
    let sub = match db.execute(CQ).unwrap() {
        ExecResult::Subscribed(s) => s,
        other => panic!("expected subscription, got {other:?}"),
    };
    // Drained after every window, so a reference longer than the
    // subscription's queue bound loses nothing.
    let mut out = Vec::new();
    for w in 0..windows {
        for row in window_rows(w) {
            db.ingest("events", row).unwrap();
        }
        db.heartbeat("events", (w + 1) * 60_000_000).unwrap();
        out.extend(
            db.poll(sub)
                .unwrap()
                .iter()
                .map(|o| canonical(o.close, &o.relation)),
        );
    }
    out
}

/// Read a named counter/gauge out of the engine's metrics relation.
fn metric(db: &Db, name: &str) -> Option<i64> {
    db.metrics_relation().rows().iter().find_map(|r| {
        (r[0] == Value::text(name)).then(|| match &r[2] {
            Value::Int(n) => *n,
            other => panic!("metric {name} is not an integer: {other:?}"),
        })
    })
}

/// Poll until `name` reaches `want` (metrics lag delivery by a reactor
/// tick; flat-out equality asserts would race it).
fn await_metric(db: &Db, name: &str, want: i64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let got = metric(db, name).unwrap_or(0);
        if got == want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{name} stuck at {got}, want {want}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Drain exactly `want` windows from a stream, then prove nothing more
/// arrives: exactly-once means the sequence matches AND has no tail.
fn collect_exactly(
    stream: &streamrel::net::SubscriptionStream,
    want: usize,
) -> Vec<(i64, Vec<u8>)> {
    let mut got = Vec::new();
    while got.len() < want {
        let out = stream
            .next_timeout(Duration::from_secs(10))
            .expect("window result not pushed within 10s");
        got.push(canonical(out.close, &out.relation));
    }
    assert!(
        stream.next_timeout(Duration::from_millis(200)).is_none(),
        "subscriber received more windows than the query closed"
    );
    got
}

#[test]
fn fanout_members_receive_byte_identical_windows_exactly_once() {
    const WINDOWS: i64 = 2;
    let reference = embedded_reference(WINDOWS);
    assert_eq!(reference.len(), WINDOWS as usize);

    let db = Arc::new(Db::in_memory(DbOptions::default()));
    let server = Server::serve(db.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let admin = Client::connect(addr).unwrap();
    admin.execute(DDL).unwrap();

    // Three connections, multiple logical subscriptions multiplexed over
    // each: one primary plus two attached members per connection — seven
    // streams total sharing ONE running query. Any living member's id
    // names the group: the first attach per connection goes through the
    // primary, the second through the member just created.
    let conns: Vec<Client> = (0..3).map(|_| Client::connect(addr).unwrap()).collect();
    let primary = conns[0].subscribe(CQ).unwrap();
    let mut streams = Vec::new();
    for conn in &conns {
        let via_primary = conn.subscribe_attach(primary.id()).unwrap();
        streams.push(conn.subscribe_attach(via_primary.id()).unwrap());
        streams.push(via_primary);
    }
    streams.push(primary);
    let mut ids: Vec<u64> = streams.iter().map(|s| s.id()).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), streams.len(), "wire ids are unique per server");
    assert_eq!(metric(&db, "net.subscriptions"), Some(streams.len() as i64));
    // Attach joins the group; it does not start a second query.
    assert_eq!(db.stats().live_subs, 1);

    for w in 0..WINDOWS {
        admin.ingest_batch("events", &window_rows(w)).unwrap();
        admin.heartbeat("events", (w + 1) * 60_000_000).unwrap();
    }

    for stream in &streams {
        assert_eq!(collect_exactly(stream, reference.len()), reference);
        assert_eq!(stream.dropped(), 0);
    }

    // The server ran the query once and serialized each window once:
    // encodes == windows closed, NOT windows × subscribers.
    assert_eq!(db.stats().windows_out, WINDOWS as u64);
    assert_eq!(metric(&db, "net.fanout.encodes"), Some(WINDOWS));
    await_metric(&db, "net.windows_sent", WINDOWS * streams.len() as i64);
    assert_eq!(metric(&db, "net.outbox_drops"), Some(0));
    assert_eq!(metric(&db, "net.delivery_lost"), Some(0));

    drop(streams);
    for c in conns {
        c.close().unwrap();
    }
    // Last member out releases the engine subscription and its query.
    assert_eq!(metric(&db, "net.subscriptions"), Some(0));
    assert_eq!(db.stats().live_subs, 0);
    admin.close().unwrap();
    server.shutdown();
}

#[test]
fn attached_members_survive_primary_death_mid_delivery() {
    const WINDOWS: i64 = 2;
    let reference = embedded_reference(WINDOWS);

    let db = Arc::new(Db::in_memory(DbOptions::default()));
    let server = Server::serve(db.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let admin = Client::connect(addr).unwrap();
    admin.execute(DDL).unwrap();

    // The primary subscribes over a raw socket so it can die without a
    // Goodbye; two members attach from their own connections.
    let mut raw = TcpStream::connect(addr).unwrap();
    Frame::new(FrameType::Query, wire::encode_query(CQ))
        .write_to(&mut raw)
        .unwrap();
    raw.flush().unwrap();
    let ack = Frame::read_from(&mut raw).unwrap().unwrap();
    assert_eq!(ack.ty, FrameType::Subscribed);
    let primary_id = wire::decode_subscribed(&ack.payload).unwrap();

    let members: Vec<Client> = (0..2).map(|_| Client::connect(addr).unwrap()).collect();
    let streams: Vec<_> = members
        .iter()
        .map(|c| c.subscribe_attach(primary_id).unwrap())
        .collect();
    assert_eq!(metric(&db, "net.subscriptions"), Some(3));

    // Window 1 flows to everyone, including the doomed primary.
    admin.ingest_batch("events", &window_rows(0)).unwrap();
    admin.heartbeat("events", 60_000_000).unwrap();
    let first = Frame::read_from(&mut raw).unwrap().expect("primary window");
    assert_eq!(first.ty, FrameType::WindowResult);
    let (id, out) = wire::decode_window_result(&first.payload).unwrap();
    assert_eq!(id, primary_id);
    assert_eq!(canonical(out.close, &out.relation), reference[0]);

    // Primary dies abruptly mid-stream. The query must keep running for
    // the attached members — only the dead subscription is reaped.
    drop(raw);
    await_metric(&db, "net.subscriptions", 2);
    assert_eq!(db.stats().live_subs, 1, "the query outlives its primary");

    // The departed id no longer names the group: an error reply, not a
    // disconnect. A living member's id does, and the late joiner sees
    // only what closes after it joined.
    match members[0].subscribe_attach(primary_id) {
        Err(streamrel::net::NetError::Remote(msg)) => {
            assert!(msg.contains("unknown subscription"), "{msg}")
        }
        other => panic!("attach to a departed id: {:?}", other.map(|s| s.id())),
    }
    let late = members[0].subscribe_attach(streams[1].id()).unwrap();

    // Window 2 closes after the death; survivors still get the full,
    // byte-identical sequence.
    admin.ingest_batch("events", &window_rows(1)).unwrap();
    admin.heartbeat("events", 120_000_000).unwrap();
    for stream in &streams {
        assert_eq!(collect_exactly(stream, reference.len()), reference);
    }
    assert_eq!(collect_exactly(&late, 1), reference[1..]);
    // Each window was still encoded once, members or not.
    assert_eq!(metric(&db, "net.fanout.encodes"), Some(WINDOWS));

    drop((streams, late));
    for c in members {
        c.close().unwrap();
    }
    admin.close().unwrap();
    server.shutdown();
}

#[test]
fn fanout_is_byte_identical_under_chaos_schedules() {
    // The race suite's contract, applied to the fan-out path: for every
    // chaos seed the remote members' observable results must equal the
    // unperturbed embedded reference exactly — any divergence is a real
    // ordering bug in reactor/engine handoff, never schedule noise.
    const WINDOWS: i64 = 2;
    let reference = embedded_reference(WINDOWS);

    let mut points = 0;
    for seed in [0xC1D2_2009, 0xFA10_0075] {
        chaos::arm(seed);
        let run = std::panic::catch_unwind(|| {
            let db = Arc::new(Db::in_memory(DbOptions::default()));
            let server = Server::serve(db.clone(), "127.0.0.1:0").unwrap();
            let addr = server.local_addr();
            let admin = Client::connect(addr).unwrap();
            admin.execute(DDL).unwrap();

            let conns: Vec<Client> = (0..2).map(|_| Client::connect(addr).unwrap()).collect();
            let primary = conns[0].subscribe(CQ).unwrap();
            let mut streams = vec![conns[1].subscribe_attach(primary.id()).unwrap()];
            streams.push(conns[0].subscribe_attach(primary.id()).unwrap());
            streams.push(primary);

            for w in 0..WINDOWS {
                admin.ingest_batch("events", &window_rows(w)).unwrap();
                admin.heartbeat("events", (w + 1) * 60_000_000).unwrap();
            }
            let got: Vec<_> = streams
                .iter()
                .map(|s| collect_exactly(s, WINDOWS as usize))
                .collect();
            drop(streams);
            for c in conns {
                c.close().unwrap();
            }
            admin.close().unwrap();
            server.shutdown();
            got
        });
        chaos::disarm();
        points += chaos::ops();
        let got = match run {
            Ok(got) => got,
            Err(_) => panic!("seed {seed:#x}: fan-out run panicked under chaos"),
        };
        for (i, member) in got.iter().enumerate() {
            assert_eq!(
                member, &reference,
                "seed {seed:#x}: member {i} diverged from embedded reference"
            );
        }
    }
    assert!(points > 0, "chaos injector never fired");
}

/// A raw-frame client: subscribes `sql` and hands back the socket, a
/// resumable decoder for it, and the primary's wire id.
fn raw_subscribe(addr: std::net::SocketAddr, sql: &str) -> (TcpStream, FrameDecoder, u64) {
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    Frame::new(FrameType::Query, wire::encode_query(sql))
        .write_to(&mut raw)
        .unwrap();
    raw.flush().unwrap();
    let mut decoder = FrameDecoder::new();
    let ack = decoder.read_frame(&mut raw).unwrap().unwrap();
    assert_eq!(ack.ty, FrameType::Subscribed);
    let id = wire::decode_subscribed(&ack.payload).unwrap();
    (raw, decoder, id)
}

/// Read frames until the socket has been quiet for one read timeout.
fn read_until_quiet(raw: &mut TcpStream, decoder: &mut FrameDecoder) -> Vec<Frame> {
    let mut frames = Vec::new();
    loop {
        match decoder.read_frame(raw) {
            Ok(Some(frame)) => frames.push(frame),
            Ok(None) => panic!("server hung up"),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return frames
            }
            Err(e) => panic!("socket error: {e}"),
        }
    }
}

/// The window results among `frames` addressed to wire id `id`.
fn windows_for(frames: &[Frame], id: u64) -> Vec<(i64, Vec<u8>)> {
    frames
        .iter()
        .filter(|f| f.ty == FrameType::WindowResult)
        .map(|f| wire::decode_window_result(&f.payload).unwrap())
        .filter(|(sub, _)| *sub == id)
        .map(|(_, out)| canonical(out.close, &out.relation))
        .collect()
}

#[test]
fn pipelined_attach_joins_after_the_windows_already_closed() {
    // Ingest + Heartbeat (closing window 0) + Attach leave the client in
    // ONE write, so the reactor handles all three before its next
    // delivery sweep: window 0 is still in the engine queue when the
    // attach is processed. It closed before the newcomer's ack, so it
    // belongs to the existing member only.
    const WINDOWS: i64 = 2;
    let reference = embedded_reference(WINDOWS);

    let db = Arc::new(Db::in_memory(DbOptions::default()));
    let server = Server::serve(db.clone(), "127.0.0.1:0").unwrap();
    let admin = Client::connect(server.local_addr()).unwrap();
    admin.execute(DDL).unwrap();

    let (mut raw, mut decoder, primary) = raw_subscribe(server.local_addr(), CQ);
    let mut burst = Vec::new();
    for frame in [
        Frame::new(
            FrameType::Ingest,
            wire::encode_ingest("events", &window_rows(0)),
        ),
        Frame::new(
            FrameType::Heartbeat,
            wire::encode_heartbeat("events", 60_000_000),
        ),
        Frame::new(FrameType::Attach, wire::encode_attach(primary)),
    ] {
        frame.write_to(&mut burst).unwrap();
    }
    raw.write_all(&burst).unwrap();
    raw.flush().unwrap();

    let first = read_until_quiet(&mut raw, &mut decoder);
    let member = first
        .iter()
        .find(|f| f.ty == FrameType::Subscribed)
        .map(|f| wire::decode_subscribed(&f.payload).unwrap())
        .expect("attach was acked");
    assert_ne!(member, primary);
    assert_eq!(windows_for(&first, primary), reference[..1]);
    assert_eq!(windows_for(&first, member), []);

    // Window 1 closes after the ack: both members receive it.
    admin.ingest_batch("events", &window_rows(1)).unwrap();
    admin.heartbeat("events", 120_000_000).unwrap();
    let second = read_until_quiet(&mut raw, &mut decoder);
    assert_eq!(windows_for(&second, primary), reference[1..]);
    assert_eq!(windows_for(&second, member), reference[1..]);
    assert_eq!(metric(&db, "net.fanout.encodes"), Some(WINDOWS));

    drop(raw);
    admin.close().unwrap();
    server.shutdown();
}

/// `WINDOWS` one-minute windows of `ROWS` kilobyte-payload rows each:
/// large enough that a silent peer's kernel buffers fill and real
/// backpressure (and real residue) builds up server-side.
const FAT_DDL: &str =
    "CREATE STREAM events (v integer, payload varchar(2048), etime timestamp CQTIME USER)";
const FAT_CQ: &str = "SELECT v, payload FROM events <TUMBLING '1 minute'>";

fn fat_window_rows(w: i64, rows: i64) -> Vec<Vec<Value>> {
    let filler = "x".repeat(1024);
    (0..rows)
        .map(|i| {
            vec![
                Value::Int(w * rows + i),
                Value::text(&filler),
                Value::Timestamp(w * 60_000_000 + 10_000_000),
            ]
        })
        .collect()
}

/// Mid-stall, each of the `routed` copies is sent, shed by its member's
/// queue or still owed there or in the write buffer — and a wire member's
/// queue is the one that sheds: `db.sub_drops` stays 0.
fn assert_routed_copies_accounted_mid_stall(db: &Db, routed: i64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let sent = metric(db, "net.windows_sent").unwrap_or(0);
        let shed = metric(db, "net.outbox_drops").unwrap_or(0);
        let owed = metric(db, "net.outbox.depth").unwrap_or(0);
        if sent + shed + owed == routed {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "mid-stall: sent={sent} shed={shed} owed={owed}, want sum {routed}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(metric(db, "db.sub_drops"), Some(0));
}

#[test]
fn members_overflow_on_their_own_accounts() {
    // Two members of one group behind a socket that stops reading: each
    // member's bounded outbox sheds its own oldest windows, and what
    // survives — on either member — is byte-identical to the embedded
    // run and ends with the newest window.
    const WINDOWS: i64 = 16;
    const ROWS: i64 = 768;

    let reference: Vec<(i64, Vec<u8>)> = {
        let db = Db::in_memory(DbOptions::default());
        db.execute(FAT_DDL).unwrap();
        let sub = db.execute(FAT_CQ).unwrap().subscription();
        for w in 0..WINDOWS {
            db.ingest_batch("events", fat_window_rows(w, ROWS)).unwrap();
            db.heartbeat("events", (w + 1) * 60_000_000).unwrap();
        }
        let outs = db.poll(sub).unwrap();
        outs.iter()
            .map(|o| canonical(o.close, &o.relation))
            .collect()
    };
    assert_eq!(reference.len(), WINDOWS as usize);

    let db = Arc::new(Db::in_memory(DbOptions::default().with_sub_queue(2)));
    let opts = ServerOptions {
        write_timeout: Duration::from_secs(30), // shed, don't disconnect
        ..ServerOptions::default()
    };
    let server = Server::serve_with(db.clone(), "127.0.0.1:0", opts).unwrap();
    let admin = Client::connect(server.local_addr()).unwrap();
    admin.execute(FAT_DDL).unwrap();

    let (mut raw, mut decoder, primary) = raw_subscribe(server.local_addr(), FAT_CQ);
    Frame::new(FrameType::Attach, wire::encode_attach(primary))
        .write_to(&mut raw)
        .unwrap();
    raw.flush().unwrap();
    let ack = decoder.read_frame(&mut raw).unwrap().unwrap();
    assert_eq!(ack.ty, FrameType::Subscribed);
    let member = wire::decode_subscribed(&ack.payload).unwrap();

    // Go silent while every window closes, then read what was kept.
    for w in 0..WINDOWS {
        admin
            .ingest_batch("events", &fat_window_rows(w, ROWS))
            .unwrap();
        admin.heartbeat("events", (w + 1) * 60_000_000).unwrap();
    }
    assert_routed_copies_accounted_mid_stall(&db, 2 * WINDOWS);
    let frames = read_until_quiet(&mut raw, &mut decoder);

    let mut delivered = 0;
    for id in [primary, member] {
        let got = windows_for(&frames, id);
        delivered += got.len() as i64;
        assert!(got.len() < reference.len(), "member {id} never overflowed");
        assert_eq!(got.last(), reference.last(), "member {id}: newest kept");
        let mut rest = reference.iter();
        for window in &got {
            assert!(
                rest.any(|r| r == window),
                "member {id}: window {} out of order or not byte-identical",
                window.0
            );
        }
    }
    // Every shed window is on exactly one member's account.
    await_metric(&db, "net.windows_sent", delivered);
    assert_eq!(
        metric(&db, "net.outbox_drops"),
        Some(2 * WINDOWS - delivered)
    );
    assert_eq!(metric(&db, "net.delivery_lost"), Some(0));
    assert_eq!(metric(&db, "net.fanout.encodes"), Some(WINDOWS));
    assert_eq!(metric(&db, "db.sub_drops"), Some(0));

    drop(raw);
    admin.close().unwrap();
    server.shutdown();
}

/// A subscriber holding `members` wire ids on one raw socket stops
/// reading, then dies: every copy routed to it must be accounted for —
/// flushed to the socket, shed by a bounded outbox, or counted lost at
/// teardown. Payloads large enough to defeat kernel socket buffering
/// make real backpressure (and real residue) build up server-side.
fn assert_loss_conserved_across_socket_death(windows: i64, rows_per_window: i64, members: usize) {
    let db = Arc::new(Db::in_memory(DbOptions::default().with_sub_queue(2)));
    let opts = ServerOptions {
        write_timeout: Duration::from_secs(30), // let the drop, not the stall, kill it
        ..ServerOptions::default()
    };
    let server = Server::serve_with(db.clone(), "127.0.0.1:0", opts).unwrap();
    let addr = server.local_addr();

    let admin = Client::connect(addr).unwrap();
    admin.execute(FAT_DDL).unwrap();

    // Subscribe over a raw socket, consume the acks, then go silent.
    let (mut raw, mut decoder, primary) = raw_subscribe(addr, FAT_CQ);
    for _ in 1..members {
        Frame::new(FrameType::Attach, wire::encode_attach(primary))
            .write_to(&mut raw)
            .unwrap();
        raw.flush().unwrap();
        let ack = decoder.read_frame(&mut raw).unwrap().unwrap();
        assert_eq!(ack.ty, FrameType::Subscribed);
    }
    for w in 0..windows {
        let rows = fat_window_rows(w, rows_per_window);
        admin.ingest_batch("events", &rows).unwrap();
        admin.heartbeat("events", (w + 1) * 60_000_000).unwrap();
    }
    let routed = windows * members as i64;
    assert_routed_copies_accounted_mid_stall(&db, routed);

    // Die abruptly with megabytes still in flight.
    drop(raw);
    let deadline = Instant::now() + Duration::from_secs(10);
    while db.stats().live_subs != 0 {
        assert!(Instant::now() < deadline, "dead subscriber never reaped");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Conservation: sent + shed + lost == routed. And the death was
    // genuinely mid-delivery — something was lost or shed, not just
    // buffered away by the kernel.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let sent = metric(&db, "net.windows_sent").unwrap_or(0);
        let shed = metric(&db, "net.outbox_drops").unwrap_or(0);
        let lost = metric(&db, "net.delivery_lost").unwrap_or(0);
        if sent + shed + lost == routed {
            assert!(
                shed + lost > 0,
                "workload too small to exercise loss accounting"
            );
            assert_eq!(metric(&db, "db.sub_drops"), Some(0));
            break;
        }
        assert!(
            Instant::now() < deadline,
            "conservation violated: sent={sent} shed={shed} lost={lost}, want sum {routed}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    admin.close().unwrap();
    server.shutdown();
}

#[test]
fn delivery_loss_is_conserved_across_socket_death() {
    // One member, ~770 KiB frames: the write buffer holds one frame.
    assert_loss_conserved_across_socket_death(16, 768, 1);
}

#[test]
fn delivery_loss_is_conserved_across_a_coalesced_write_buffer() {
    // Four members, ~16 KiB frames: the socket dies with several window
    // frames coalesced in the write buffer, one of them half written.
    assert_loss_conserved_across_socket_death(128, 16, 4);
}

#[test]
fn goodbye_under_backpressure_ends_on_a_frame_boundary() {
    // A subscriber that stopped reading says Goodbye while a wide window
    // frame is half written. It must then read whole frames only — what
    // the kernel already held, the frame that was on the wire — ending
    // in the Goodbye ack, and every routed window is sent or lost.
    const WINDOWS: i64 = 16;
    let db = Arc::new(Db::in_memory(DbOptions::default()));
    let opts = ServerOptions {
        write_timeout: Duration::from_secs(30),
        ..ServerOptions::default()
    };
    let server = Server::serve_with(db.clone(), "127.0.0.1:0", opts).unwrap();
    let admin = Client::connect(server.local_addr()).unwrap();
    admin.execute(FAT_DDL).unwrap();
    let (mut raw, mut decoder, _) = raw_subscribe(server.local_addr(), FAT_CQ);
    for w in 0..WINDOWS {
        admin
            .ingest_batch("events", &fat_window_rows(w, 768))
            .unwrap();
        admin.heartbeat("events", (w + 1) * 60_000_000).unwrap();
    }
    // Wait until the server's writes stall against the silent peer.
    let mut sent = -1;
    loop {
        std::thread::sleep(Duration::from_millis(200));
        let now = metric(&db, "net.windows_sent").unwrap_or(0);
        if now == sent {
            break;
        }
        sent = now;
    }
    assert!(sent < WINDOWS, "the peer's buffers absorbed every window");

    Frame::bare(FrameType::Goodbye).write_to(&mut raw).unwrap();
    raw.flush().unwrap();
    let mut frames = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match decoder.read_frame(&mut raw) {
            Ok(Some(frame)) => frames.push(frame.ty),
            Ok(None) => break,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                assert!(Instant::now() < deadline, "server never hung up");
            }
            Err(e) => panic!("stream cut mid-frame after {} frames: {e}", frames.len()),
        }
    }
    assert_eq!(frames.pop(), Some(FrameType::Goodbye));
    assert!(frames.iter().all(|ty| *ty == FrameType::WindowResult));
    // The peer read exactly the frames counted sent; the rest were lost.
    await_metric(&db, "net.windows_sent", frames.len() as i64);
    assert_eq!(
        metric(&db, "net.delivery_lost"),
        Some(WINDOWS - frames.len() as i64)
    );
    assert_eq!(metric(&db, "net.outbox_drops"), Some(0));

    admin.close().unwrap();
    server.shutdown();
}

#[test]
fn a_thousand_streams_on_one_connection_each_get_every_window() {
    const WINDOWS: i64 = 3;
    const MEMBERS: usize = 1_000;
    let reference = embedded_reference(WINDOWS);

    let db = Arc::new(Db::in_memory(DbOptions::default()));
    let server = Server::serve(db.clone(), "127.0.0.1:0").unwrap();
    let admin = Client::connect(server.local_addr()).unwrap();
    admin.execute(DDL).unwrap();
    let sub = Client::connect(server.local_addr()).unwrap();
    let primary = sub.subscribe(CQ).unwrap();
    let mut streams: Vec<_> = (1..MEMBERS)
        .map(|_| sub.subscribe_attach(primary.id()).unwrap())
        .collect();
    streams.push(primary);

    let writes_before = metric(&db, "net.socket_writes").unwrap();
    for w in 0..WINDOWS {
        admin.ingest_batch("events", &window_rows(w)).unwrap();
        admin.heartbeat("events", (w + 1) * 60_000_000).unwrap();
    }
    for stream in &streams {
        for want in &reference {
            let out = stream.next_timeout(Duration::from_secs(10)).unwrap();
            assert_eq!(&canonical(out.close, &out.relation), want);
        }
    }
    await_metric(&db, "net.windows_sent", WINDOWS * MEMBERS as i64);
    assert!(streams.iter().all(|s| s.try_next().is_none()));
    // A window's thousand copies leave in a few coalesced writes.
    let writes = metric(&db, "net.socket_writes").unwrap() - writes_before;
    assert!(
        writes <= WINDOWS * MEMBERS as i64 / 4,
        "{writes} socket writes for {} window copies",
        WINDOWS * MEMBERS as i64
    );

    drop(streams);
    sub.close().unwrap();
    admin.close().unwrap();
    server.shutdown();
}

#[test]
fn client_queue_is_bounded_with_visible_drops() {
    // Satellite of the same discipline on the other end of the wire: a
    // consumer that falls behind sheds by policy client-side instead of
    // growing without limit, and the shed count is visible. The bound is
    // the engine's default queue capacity.
    const KEEP: usize = DEFAULT_SUB_CAPACITY;
    const WINDOWS: i64 = KEEP as i64 + 5;
    let reference = embedded_reference(WINDOWS);

    let db = Arc::new(Db::in_memory(DbOptions::default()));
    let server = Server::serve(db.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let admin = Client::connect(addr).unwrap();
    admin.execute(DDL).unwrap();

    let lagger = Client::connect(addr).unwrap();
    let stream = lagger.subscribe(CQ).unwrap();

    for w in 0..WINDOWS {
        admin.ingest_batch("events", &window_rows(w)).unwrap();
        admin.heartbeat("events", (w + 1) * 60_000_000).unwrap();
    }

    // The reader thread keeps draining the wire into the bounded queue;
    // once everything arrived, exactly capacity windows remain and the
    // overflow is counted.
    let deadline = Instant::now() + Duration::from_secs(10);
    while stream.dropped() != WINDOWS as u64 - KEEP as u64 {
        assert!(
            Instant::now() < deadline,
            "client-side drops stuck at {}",
            stream.dropped()
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Overflow keeps the newest windows: the tail of the reference.
    let mut kept = Vec::new();
    while let Some(out) = stream.try_next() {
        kept.push(canonical(out.close, &out.relation));
    }
    assert_eq!(kept, reference[reference.len() - KEEP..]);

    drop(stream);
    lagger.close().unwrap();
    admin.close().unwrap();
    server.shutdown();
}
