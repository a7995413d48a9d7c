//! Readiness-driven reactor server.
//!
//! One thread multiplexes every connection over a [`polling::Poller`]
//! (a poll(2)-backed readiness shim; see `shims/poll`). A connection is
//! two file descriptors' worth of state — an incremental
//! [`FrameDecoder`] on the read side, a queue of encoded frames on the
//! write side — not two threads: 10 000 subscribers cost buffers and
//! fds, never 20 000 stacks. The reactor wakes on three signals only:
//!
//! - **socket readiness** (accept, readable bytes, writable space),
//! - **the engine's [`streamrel_core::ResultNotifier`]**, bridged to the
//!   poller via a registered waker so a closing window interrupts the
//!   poll wait immediately, and
//! - a **fallback tick** bounding idle-reap and shutdown latency.
//!
//! **Fan-out groups.** The engine's contract is one CQ and one bounded
//! queue per client subscription; who receives its windows is decided
//! here and nowhere else. Each engine subscription has a *group* of wire
//! members `(connection, wire id)`: a continuous `Query` or a
//! `SubscribeFrom` starts a group of one, [`FrameType::Attach`] resolves
//! any live member's id to its group and adds a member without
//! registering anything with the engine, and the engine subscription is
//! released when the last member leaves. Wire ids come from one reactor
//! counter; the engine's ids never cross the wire.
//!
//! **Serialize-once.** A sweep polls each group's engine queue once,
//! encodes each window once (`net.fanout.encodes` counts bodies, not
//! deliveries) and offers the shared bytes to every member's outbox.
//! Serialization scales with windows, delivery with members, and a
//! sweep that finds nothing closed costs one queue poll per group.
//!
//! **Backpressure** is per member: the sweep drains the engine queue
//! promptly, so a slow consumer sheds at its **outbox** — the engine's
//! bounded drop-oldest [`Subscription`] queue over frame bodies (gauge
//! `net.outbox.depth`, sheds in `net.outbox_drops`). A connection's
//! non-empty outboxes are served round-robin, one frame per turn. A
//! peer that stops reading altogether is disconnected once its write
//! stalls longer than [`ServerOptions::write_timeout`]. Windows routed
//! to a member but never fully written — outbox residue, a half-written
//! frame at socket death — and windows the engine still held for a
//! group whose last member left are counted in `net.delivery_lost`, so
//! windows_routed == sent + dropped + lost holds across connection
//! death.
//!
//! **Coalesced writes.** When a connection's write buffer drains, it is
//! refilled with as many pending frames as fit in [`WRITE_BATCH`] bytes,
//! in exactly the order one-frame-at-a-time service would send them, and
//! written with one `write(2)`: a thousand members' copies of a window
//! cost a handful of system calls, not a thousand. The byte stream is
//! unchanged, and loss accounting stays per frame.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use polling::{Event, Events, Poller};
use streamrel_core::{Db, ExecResult, Subscription, SubscriptionId};
use streamrel_obs::{Counter, Gauge};

use crate::frame::{Frame, FrameDecoder, FrameType, MAX_FRAME_LEN, PROTOCOL_VERSION};
use crate::wire;

/// Server tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerOptions {
    /// Write-stall deadline. A subscriber that stops reading for longer
    /// than this (with output pending) is disconnected and reaped
    /// instead of accumulating state forever.
    pub write_timeout: Duration,
    /// Idle deadline. A connection that sends no frame for this long
    /// **and owns no subscriptions** is considered half-open and reaped;
    /// subscribers sit legitimately silent while results are pushed, so
    /// the deadline never applies to them. `None` (the default) waits
    /// forever.
    pub read_timeout: Option<Duration>,
    /// Per-member outbox bound (encoded windows queued for one wire
    /// subscription). Overflow sheds the oldest and counts into
    /// `net.outbox_drops`.
    pub outbox_capacity: usize,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            write_timeout: Duration::from_secs(5),
            read_timeout: None,
            outbox_capacity: streamrel_core::DEFAULT_SUB_CAPACITY,
        }
    }
}

/// A running streamrel wire-protocol server.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    poller: Arc<Poller>,
    reactor: Option<JoinHandle<()>>,
    /// Keeps the notifier→poller bridge registered; dropping the last
    /// strong reference unregisters the waker.
    _waker: streamrel_core::Waker,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and serve `db`
    /// until [`Server::shutdown`] or drop.
    pub fn serve(db: Arc<Db>, addr: impl ToSocketAddrs) -> io::Result<Server> {
        Server::serve_with(db, addr, ServerOptions::default())
    }

    /// [`Server::serve`] with explicit options.
    pub fn serve_with(
        db: Arc<Db>,
        addr: impl ToSocketAddrs,
        opts: ServerOptions,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let poller = Arc::new(Poller::new()?);
        poller.add(&listener, Event::readable(LISTENER_KEY))?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let notifier = db.notifier();
        let reactor = {
            let shutdown = shutdown.clone();
            let poller = poller.clone();
            thread::Builder::new()
                .name("streamrel-reactor".into())
                .spawn(move || Reactor::new(db, listener, poller, opts).run(&shutdown))?
        };
        // Bridge engine publishes into poller wakeups: a window closing
        // on any other thread interrupts the poll wait. The waker does
        // one self-pipe write and runs with no locks held on either
        // side. A publish from the reactor's own thread (a wire ingest
        // closing a window) needs no wakeup: the sweep that follows the
        // frame in the same loop iteration delivers it. Nobody can be
        // subscribed before this function returns the address, so
        // registering after the spawn misses nothing.
        let waker: streamrel_core::Waker = {
            let poller = poller.clone();
            let reactor = reactor.thread().id();
            Arc::new(move || {
                if thread::current().id() != reactor {
                    let _ = poller.notify();
                }
            })
        };
        notifier.register_waker(&waker);
        Ok(Server {
            addr,
            shutdown,
            poller,
            reactor: Some(reactor),
            _waker: waker,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, hang up every connection, join the reactor.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = self.poller.notify();
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Poller key of the accept socket; connections use `CONN_SEQ`-derived
/// keys starting at 1.
const LISTENER_KEY: usize = 0;

/// Bytes read from a socket per `read(2)`.
const READ_CHUNK: usize = 16 * 1024;

/// Pending frames coalesced into one `write(2)`: a refill stops once the
/// write buffer holds this much.
const WRITE_BATCH: usize = 64 * 1024;

/// Fallback poll timeout; bounds idle-reap and shutdown latency, not
/// delivery latency (deliveries are notifier-driven).
const TICK: Duration = Duration::from_millis(100);

/// Monotonic connection ids, used both as poller keys and to key
/// per-connection instruments (`net.conn.<id>.*`) so concurrent
/// connections never share counters.
static CONN_SEQ: AtomicU64 = AtomicU64::new(0);

/// Per-connection state machine. No locks anywhere: the reactor thread
/// is the only owner.
struct Conn {
    sock: TcpStream,
    decoder: FrameDecoder,
    /// Encoded reply/control frames, flushed ahead of window results so
    /// a `Subscribed` ack always precedes its first `WindowResult`.
    ctrl: VecDeque<Vec<u8>>,
    /// One bounded outbox per wire subscription on this connection,
    /// keyed by wire id, holding encoded window bodies — the same
    /// allocation for every member of a fan-out group. The frame header
    /// and id prefix are composed at write time.
    outboxes: HashMap<u64, Subscription<Arc<Vec<u8>>>>,
    /// Wire ids whose outbox is non-empty, each listed once. The write
    /// side serves the front and requeues it at the back while it has
    /// more pending: round-robin, one frame per turn.
    ready: VecDeque<u64>,
    /// Frames on their way to the socket: `wbuf[wpos..]` remains to
    /// send. A refill appends the `ctrl` frames first, then window frames.
    wbuf: Vec<u8>,
    wpos: usize,
    /// End offsets in `wbuf` of the window frames not yet fully written
    /// (for per-frame loss accounting).
    window_ends: VecDeque<usize>,
    /// Write interest currently registered with the poller.
    want_write: bool,
    /// Stream is corrupt or said goodbye: drain `ctrl`, then close.
    closing: bool,
    last_activity: Instant,
    /// When the peer first left output stranded (`WouldBlock` with bytes
    /// pending); cleared by any successful write.
    stalled_since: Option<Instant>,
    conn_prefix: String,
    conn_in: Arc<Counter>,
    conn_out: Arc<Counter>,
}

/// Aggregate instruments the reactor updates. Cached as `Arc`s so the
/// per-event hot path never touches the registry lock.
struct NetMetrics {
    frames_in: Arc<Counter>,
    frames_out: Arc<Counter>,
    connections: Arc<Gauge>,
    /// Live wire subscriptions (members summed over all groups).
    subscriptions: Arc<Gauge>,
    idle_reaped: Arc<Counter>,
    /// Window bodies serialized (once per closed window — NOT per
    /// subscriber; that is the whole fan-out claim).
    fanout_encodes: Arc<Counter>,
    /// Sum of per-subscription outbox depths.
    outbox_depth: Arc<Gauge>,
    /// Window frames shed by a full outbox (slow consumer).
    outbox_drops: Arc<Counter>,
    /// Window results routed to a member but never fully written to its
    /// socket: outbox residue, half-written frames and engine-queue
    /// residue at teardown.
    delivery_lost: Arc<Counter>,
    /// Window frames fully handed to the kernel.
    windows_sent: Arc<Counter>,
    /// `write(2)` calls on connection sockets.
    socket_writes: Arc<Counter>,
    /// Reactor loop iterations (readiness, notifier or tick).
    wakeups: Arc<Counter>,
    /// `SubscribeFrom` frames asking for archive replay (a federation
    /// bridge resuming after a link drop or node restart).
    fed_resubscribes: Arc<Counter>,
    /// Archived windows re-served from Active Tables on resume.
    fed_replayed_windows: Arc<Counter>,
    /// Rows inside those replayed windows.
    fed_replayed_rows: Arc<Counter>,
}

struct Reactor {
    db: Arc<Db>,
    listener: TcpListener,
    poller: Arc<Poller>,
    opts: ServerOptions,
    conns: HashMap<usize, Conn>,
    /// Fan-out membership: the wire members `(connection, wire id)` of
    /// each engine subscription, in join order. A group exists exactly
    /// as long as it has a member.
    groups: HashMap<SubscriptionId, Vec<(usize, u64)>>,
    /// Which group each live wire id belongs to (what `Attach` resolves).
    wire_ids: HashMap<u64, SubscriptionId>,
    /// Next wire id; unique per server, never reused.
    next_wire_id: u64,
    metrics: NetMetrics,
    registry: Arc<streamrel_obs::Registry>,
}

impl Reactor {
    fn new(
        db: Arc<Db>,
        listener: TcpListener,
        poller: Arc<Poller>,
        opts: ServerOptions,
    ) -> Reactor {
        let registry = db.engine().metrics().clone();
        let metrics = NetMetrics {
            frames_in: registry.counter("net.frames_in"),
            frames_out: registry.counter("net.frames_out"),
            connections: registry.gauge("net.connections"),
            subscriptions: registry.gauge("net.subscriptions"),
            idle_reaped: registry.counter("net.idle_reaped"),
            fanout_encodes: registry.counter("net.fanout.encodes"),
            outbox_depth: registry.gauge("net.outbox.depth"),
            outbox_drops: registry.counter("net.outbox_drops"),
            delivery_lost: registry.counter("net.delivery_lost"),
            windows_sent: registry.counter("net.windows_sent"),
            socket_writes: registry.counter("net.socket_writes"),
            wakeups: registry.counter("net.reactor.wakeups"),
            fed_resubscribes: registry.counter("fed.resubscribes"),
            fed_replayed_windows: registry.counter("fed.replayed_windows"),
            fed_replayed_rows: registry.counter("fed.replayed_rows"),
        };
        Reactor {
            db,
            listener,
            poller,
            opts,
            conns: HashMap::new(),
            groups: HashMap::new(),
            wire_ids: HashMap::new(),
            next_wire_id: 1,
            metrics,
            registry,
        }
    }

    fn run(mut self, shutdown: &AtomicBool) {
        let mut events = Events::new();
        while !shutdown.load(Ordering::SeqCst) {
            events.clear();
            let _ = self.poller.wait(&mut events, Some(TICK));
            self.metrics.wakeups.inc();
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            let ready: Vec<Event> = events.iter().collect();
            for ev in ready {
                if ev.key == LISTENER_KEY {
                    self.accept_ready();
                } else if self.conns.contains_key(&ev.key) {
                    if ev.readable && !self.conn_readable(ev.key) {
                        self.close_conn(ev.key);
                        continue;
                    }
                    if self.conns.contains_key(&ev.key) && !self.pump_writes(ev.key) {
                        self.close_conn(ev.key);
                    }
                }
            }
            self.sweep_deliveries();
            self.flush_all();
            self.reap_deadlines();
        }
        // Teardown: hang up every connection so peers observe EOF.
        let keys: Vec<usize> = self.conns.keys().copied().collect();
        for key in keys {
            self.close_conn(key);
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let (sock, _peer) = match self.listener.accept() {
                Ok(v) => v,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => return,
            };
            if sock.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = sock.set_nodelay(true);
            let key = (CONN_SEQ.fetch_add(1, Ordering::SeqCst) + 1) as usize;
            if self.poller.add(&sock, Event::readable(key)).is_err() {
                continue;
            }
            self.metrics.connections.add(1);
            self.conns.insert(key, Conn::new(sock, key, &self.registry));
        }
    }

    /// Drain readable bytes into the decoder and process every complete
    /// frame. Returns false when the connection must die abruptly.
    fn conn_readable(&mut self, key: usize) -> bool {
        loop {
            let Some(conn) = self.conns.get_mut(&key) else {
                return true;
            };
            let mut chunk = [0u8; READ_CHUNK];
            match conn.sock.read(&mut chunk) {
                Ok(0) => {
                    // EOF. Clean only at a frame boundary with nothing
                    // owed; either way the connection is done.
                    return false;
                }
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    conn.decoder.extend(&chunk[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        // Decode outside the read loop; a corrupt stream stops here.
        loop {
            let next = {
                let Some(conn) = self.conns.get_mut(&key) else {
                    return true;
                };
                if conn.closing {
                    return true;
                }
                let next = conn.decoder.next_frame();
                if matches!(next, Ok(Some(_))) {
                    conn.conn_in.inc();
                }
                next
            };
            match next {
                Ok(Some(frame)) => {
                    self.metrics.frames_in.inc();
                    self.handle_frame(key, frame);
                }
                Ok(None) => return true,
                Err(e) => {
                    // Malformed frame: tell the client why, then hang
                    // up. Re-synchronising a corrupt byte stream is
                    // hopeless.
                    self.enqueue_ctrl(
                        key,
                        &Frame::new(
                            FrameType::Error,
                            wire::encode_error(&format!("malformed frame: {e}")),
                        ),
                    );
                    if let Some(conn) = self.conns.get_mut(&key) {
                        conn.closing = true;
                    }
                    return true;
                }
            }
        }
    }

    /// Serialize a control/reply frame onto the connection's queue.
    fn enqueue_ctrl(&mut self, key: usize, frame: &Frame) {
        let Some(conn) = self.conns.get_mut(&key) else {
            return;
        };
        let mut bytes = Vec::with_capacity(frame.payload.len() + 6);
        if frame.write_to(&mut bytes).is_ok() {
            self.metrics.frames_out.inc();
            conn.conn_out.inc();
            conn.ctrl.push_back(bytes);
        }
    }

    fn handle_frame(&mut self, key: usize, frame: Frame) {
        match frame.ty {
            FrameType::Query => self.handle_query(key, &frame.payload),
            FrameType::Attach => self.handle_attach(key, &frame.payload),
            FrameType::SubscribeFrom => self.handle_subscribe_from(key, &frame.payload),
            FrameType::Ingest => self.handle_ingest(key, &frame.payload),
            FrameType::Heartbeat => self.handle_heartbeat(key, &frame.payload),
            FrameType::Goodbye => {
                // Reap before acking so a synchronous `close()` observes
                // its subscriptions already gone.
                self.reap_subs(key);
                self.enqueue_ctrl(key, &Frame::bare(FrameType::Goodbye));
                if let Some(conn) = self.conns.get_mut(&key) {
                    conn.closing = true;
                }
            }
            // Server-to-client frame types arriving here are a protocol
            // violation; answer and hang up.
            FrameType::Rows
            | FrameType::Subscribed
            | FrameType::WindowResult
            | FrameType::Error => {
                self.enqueue_ctrl(
                    key,
                    &Frame::new(
                        FrameType::Error,
                        wire::encode_error(&format!("unexpected frame {:?} from client", frame.ty)),
                    ),
                );
                if let Some(conn) = self.conns.get_mut(&key) {
                    conn.closing = true;
                }
            }
        }
    }

    /// Run one SQL statement; reply `Rows`, `Subscribed` or `Error`.
    /// SQL errors are replies, not disconnects.
    fn handle_query(&mut self, key: usize, payload: &[u8]) {
        let sql = match wire::decode_query(payload) {
            Ok(sql) => sql,
            Err(e) => return self.reply_error(key, &e.to_string()),
        };
        let reply = match self.db.execute(&sql) {
            Ok(ExecResult::Rows(rel)) => Frame::new(FrameType::Rows, wire::encode_rows(&rel)),
            Ok(ExecResult::Subscribed(group)) => {
                self.add_member(key, group);
                return;
            }
            Ok(ExecResult::Created(name)) => ack("created", &name, 0),
            Ok(ExecResult::Dropped(name)) => ack("dropped", &name, 0),
            Ok(ExecResult::Inserted(n)) => ack("inserted", "", n as i64),
            Ok(ExecResult::Deleted(n)) => ack("deleted", "", n as i64),
            Ok(ExecResult::Truncated(name)) => ack("truncated", &name, 0),
            Err(e) => Frame::new(FrameType::Error, wire::encode_error(&e.to_string())),
        };
        self.enqueue_ctrl(key, &reply);
    }

    /// Join the fan-out group of any live wire subscription. Membership
    /// lives here, so nothing is registered with the engine: the CQ keeps
    /// running once and its queue keeps being drained once. Windows that
    /// closed before this frame was handled are first delivered to the
    /// existing members, so the newcomer receives exactly the windows
    /// that close after its `Subscribed` ack.
    fn handle_attach(&mut self, key: usize, payload: &[u8]) {
        let target = match wire::decode_attach(payload) {
            Ok(id) => id,
            Err(e) => return self.reply_error(key, &e.to_string()),
        };
        let live = self
            .wire_ids
            .get(&target)
            .and_then(|g| Some((*g, self.groups.get(g)?)));
        let Some((group, members)) = live else {
            return self.reply_error(key, &format!("unknown subscription {target}"));
        };
        fan_out(&self.db, group, members, &mut self.conns, &self.metrics);
        self.add_member(key, group);
    }

    /// Ack a new wire member of `group` on connection `key` and wire up
    /// its delivery state; returns its wire id. `ctrl` drains ahead of
    /// the outboxes, so `Subscribed` always precedes the member's first
    /// `WindowResult` on the wire.
    fn add_member(&mut self, key: usize, group: SubscriptionId) -> u64 {
        let id = self.next_wire_id;
        self.next_wire_id += 1;
        self.enqueue_ctrl(
            key,
            &Frame::new(FrameType::Subscribed, wire::encode_subscribed(id)),
        );
        let outbox = Subscription::bounded(self.opts.outbox_capacity)
            .with_depth_gauge(self.metrics.outbox_depth.clone());
        if let Some(conn) = self.conns.get_mut(&key) {
            conn.outboxes.insert(id, outbox);
        }
        self.groups.entry(group).or_default().push((key, id));
        self.wire_ids.insert(id, group);
        self.metrics.subscriptions.add(1);
        id
    }

    /// Subscribe to a stream's pass-through window feed, replaying
    /// archived windows with `close > from` first — the federation
    /// bridge's resume path (§4 recovery across nodes).
    ///
    /// The live subscription is registered **before** the archive scan,
    /// so no window can fall in the gap between the two: `pump` commits a
    /// window's archive rows before delivering it, so any window the scan
    /// misses is queued live, and any window delivered live during the
    /// scan is also in the scan's snapshot. The overlap is harmless —
    /// replayed frames travel on `ctrl`, which drains ahead of the
    /// outboxes, so the duplicate's replayed copy arrives first and the
    /// bridge drops the live copy by close-order dedup.
    fn handle_subscribe_from(&mut self, key: usize, payload: &[u8]) {
        let (stream, from) = match wire::decode_subscribe_from(payload) {
            Ok(v) => v,
            Err(e) => return self.reply_error(key, &e.to_string()),
        };
        let id = match self.db.subscribe_stream(&stream) {
            Ok(group) => self.add_member(key, group),
            Err(e) => return self.reply_error(key, &e.to_string()),
        };
        if from == i64::MIN {
            return; // live-only: nothing to resume
        }
        self.metrics.fed_resubscribes.inc();
        match self.db.archived_windows(&stream, from) {
            Ok(outs) => {
                for out in &outs {
                    self.metrics
                        .fed_replayed_rows
                        .add(out.relation.len() as u64);
                    self.enqueue_ctrl(
                        key,
                        &Frame::new(FrameType::WindowResult, wire::encode_window_result(id, out)),
                    );
                }
                self.metrics.fed_replayed_windows.add(outs.len() as u64);
            }
            Err(e) => {
                // The subscription registered but history is unavailable:
                // fail loudly so the bridge retries instead of silently
                // skipping windows. Closing reaps the subscription.
                self.reply_error(key, &e.to_string());
                if let Some(conn) = self.conns.get_mut(&key) {
                    conn.closing = true;
                }
            }
        }
    }

    fn handle_ingest(&mut self, key: usize, payload: &[u8]) {
        let (stream, rows) = match wire::decode_ingest(payload) {
            Ok(v) => v,
            Err(e) => return self.reply_error(key, &e.to_string()),
        };
        let n = rows.len() as i64;
        let reply = match self.db.ingest_batch(&stream, rows) {
            Ok(()) => ack("ingested", &stream, n),
            Err(e) => Frame::new(FrameType::Error, wire::encode_error(&e.to_string())),
        };
        self.enqueue_ctrl(key, &reply);
    }

    fn handle_heartbeat(&mut self, key: usize, payload: &[u8]) {
        let (stream, ts) = match wire::decode_heartbeat(payload) {
            Ok(v) => v,
            Err(e) => return self.reply_error(key, &e.to_string()),
        };
        let reply = match self.db.heartbeat(&stream, ts) {
            Ok(()) => Frame::new(FrameType::Heartbeat, wire::encode_heartbeat(&stream, ts)),
            Err(e) => Frame::new(FrameType::Error, wire::encode_error(&e.to_string())),
        };
        self.enqueue_ctrl(key, &reply);
    }

    fn reply_error(&mut self, key: usize, msg: &str) {
        self.enqueue_ctrl(key, &Frame::new(FrameType::Error, wire::encode_error(msg)));
    }

    /// Deliver whatever closed since the last sweep: one queue poll per
    /// group, nothing per member unless a window actually closed.
    fn sweep_deliveries(&mut self) {
        for (group, members) in &self.groups {
            fan_out(&self.db, *group, members, &mut self.conns, &self.metrics);
        }
    }

    /// Flush pending output on every connection that has any.
    fn flush_all(&mut self) {
        let keys: Vec<usize> = self
            .conns
            .iter()
            .filter(|(_, c)| c.has_output() || c.closing)
            .map(|(k, _)| *k)
            .collect();
        for key in keys {
            if !self.pump_writes(key) {
                self.close_conn(key);
            } else if let Some(conn) = self.conns.get(&key) {
                if conn.closing && !conn.has_output() {
                    // Everything owed (error report, goodbye ack) is on
                    // the wire: orderly close.
                    self.close_conn(key);
                }
            }
        }
    }

    /// Write as much pending output as the socket accepts, one `write(2)`
    /// per refill of the write buffer. Returns false when the connection
    /// must die abruptly.
    fn pump_writes(&mut self, key: usize) -> bool {
        loop {
            let Some(conn) = self.conns.get_mut(&key) else {
                return true;
            };
            if conn.wpos == conn.wbuf.len() {
                conn.wbuf.clear();
                conn.wpos = 0;
                let windows = conn.refill();
                if conn.wbuf.is_empty() {
                    // Nothing left to send: drop write interest.
                    if conn.want_write {
                        conn.want_write = false;
                        let _ = self.poller.modify(&conn.sock, Event::readable(key));
                    }
                    conn.stalled_since = None;
                    return true;
                }
                self.metrics.frames_out.add(windows);
            }
            self.metrics.socket_writes.inc();
            match conn.sock.write(&conn.wbuf[conn.wpos..]) {
                Ok(0) => return false,
                Ok(n) => {
                    conn.wpos += n;
                    conn.stalled_since = None;
                    // A window frame is sent once the kernel holds its
                    // last byte.
                    while conn
                        .window_ends
                        .front()
                        .is_some_and(|&end| end <= conn.wpos)
                    {
                        conn.window_ends.pop_front();
                        self.metrics.windows_sent.inc();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    // Kernel buffer full: ask for writability, start (or
                    // keep) the stall clock.
                    if !conn.want_write {
                        conn.want_write = true;
                        let _ = self.poller.modify(&conn.sock, Event::all(key));
                    }
                    conn.stalled_since.get_or_insert_with(Instant::now);
                    return true;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }

    /// Enforce the idle (half-open) and write-stall deadlines.
    fn reap_deadlines(&mut self) {
        let now = Instant::now();
        let mut idle: Vec<usize> = Vec::new();
        let mut stalled: Vec<usize> = Vec::new();
        for (key, conn) in &self.conns {
            if let Some(deadline) = self.opts.read_timeout {
                // A connection owning subscriptions sits legitimately
                // silent while results are pushed; only sub-less
                // connections are half-open candidates.
                if conn.outboxes.is_empty()
                    && !conn.closing
                    && now.duration_since(conn.last_activity) >= deadline
                {
                    idle.push(*key);
                    continue;
                }
            }
            if let Some(since) = conn.stalled_since {
                if now.duration_since(since) >= self.opts.write_timeout {
                    stalled.push(*key);
                }
            }
        }
        for key in idle {
            self.metrics.idle_reaped.inc();
            self.close_conn(key);
        }
        for key in stalled {
            self.close_conn(key);
        }
    }

    /// Remove this connection's members from their groups, accounting
    /// every window that was routed to them but will never be written:
    /// outbox residue and the window frames queued in `wbuf` behind the
    /// first unwritten one. That one — possibly half on the wire — stays,
    /// so a peer that said `Goodbye` reads whole frames up to the ack; it
    /// is sent, or lost with the connection in [`Reactor::close_conn`]. A
    /// group left without members releases its engine subscription, and
    /// whatever the engine still held for it is lost too.
    fn reap_subs(&mut self, key: usize) {
        let Some(conn) = self.conns.get_mut(&key) else {
            return;
        };
        let mut lost = conn.window_ends.len().saturating_sub(1) as u64;
        if let Some(&end) = conn.window_ends.front() {
            conn.wbuf.truncate(end);
            conn.window_ends.truncate(1);
        }
        conn.ready.clear();
        let mut left: Vec<SubscriptionId> = Vec::new();
        for (id, outbox) in conn.outboxes.drain() {
            // Dropping the outbox settles the depth gauge.
            lost += outbox.pending() as u64;
            left.extend(self.wire_ids.remove(&id));
            self.metrics.subscriptions.add(-1);
        }
        // All of a connection's members go at once: one pass per group.
        left.sort_unstable();
        left.dedup();
        for group in left {
            let Some(members) = self.groups.get_mut(&group) else {
                continue;
            };
            members.retain(|&(conn, _)| conn != key);
            if members.is_empty() {
                self.groups.remove(&group);
                if let Ok(outs) = self.db.poll_shared(group) {
                    lost += outs.len() as u64;
                }
                let _ = self.db.unsubscribe(group);
            }
        }
        self.metrics.delivery_lost.add(lost);
    }

    fn close_conn(&mut self, key: usize) {
        self.reap_subs(key);
        let Some(conn) = self.conns.remove(&key) else {
            return;
        };
        // The window frame `reap_subs` left on the wire dies unwritten.
        self.metrics
            .delivery_lost
            .add(conn.window_ends.len() as u64);
        let _ = self.poller.delete(&conn.sock);
        let _ = conn.sock.shutdown(Shutdown::Both);
        self.metrics.connections.add(-1);
        // Per-connection instruments die with the connection; the
        // aggregate `net.*` counters and the connection gauge live on.
        self.registry.remove_prefix(&conn.conn_prefix);
    }
}

impl Conn {
    fn new(sock: TcpStream, key: usize, registry: &streamrel_obs::Registry) -> Conn {
        let conn_prefix = format!("net.conn.{key}.");
        Conn {
            sock,
            decoder: FrameDecoder::new(),
            ctrl: VecDeque::new(),
            outboxes: HashMap::new(),
            ready: VecDeque::new(),
            wbuf: Vec::new(),
            wpos: 0,
            window_ends: VecDeque::new(),
            want_write: false,
            closing: false,
            last_activity: Instant::now(),
            stalled_since: None,
            conn_in: registry.counter(&format!("{conn_prefix}frames_in")),
            conn_out: registry.counter(&format!("{conn_prefix}frames_out")),
            conn_prefix,
        }
    }

    fn has_output(&self) -> bool {
        self.wpos < self.wbuf.len() || !self.ctrl.is_empty() || !self.ready.is_empty()
    }

    /// Queue an encoded window for wire subscription `id`; returns how
    /// many queued windows its outbox shed to stay within bounds.
    fn offer(&mut self, id: u64, body: Arc<Vec<u8>>) -> u64 {
        let Some(outbox) = self.outboxes.get_mut(&id) else {
            return 0;
        };
        if outbox.pending() == 0 {
            self.ready.push_back(id);
        }
        outbox.offer(body)
    }

    /// Append pending frames to `wbuf` until it holds [`WRITE_BATCH`]
    /// bytes or nothing is pending; returns how many window frames it
    /// appended.
    fn refill(&mut self) -> u64 {
        let before = self.window_ends.len();
        while self.wbuf.len() < WRITE_BATCH && self.materialize_next() {}
        (self.window_ends.len() - before) as u64
    }

    /// Append the next pending frame to `wbuf`. Control frames first
    /// (they are replies and subscription acks), then one window frame
    /// from the subscription at the head of the `ready` rotation.
    /// Returns false when there is nothing to send.
    fn materialize_next(&mut self) -> bool {
        if let Some(bytes) = self.ctrl.pop_front() {
            self.wbuf.extend_from_slice(&bytes);
            return true;
        }
        while let Some(id) = self.ready.pop_front() {
            let Some(outbox) = self.outboxes.get_mut(&id) else {
                continue;
            };
            let Some(body) = outbox.pop() else {
                continue;
            };
            if outbox.pending() > 0 {
                self.ready.push_back(id);
            }
            // [len u32][ver][ty][id u64][body]; len counts everything
            // after itself. The body bytes are the shared fan-out
            // allocation — composed here, never re-encoded.
            let len = (2 + 8 + body.len()) as u32;
            self.wbuf.reserve(4 + len as usize);
            self.wbuf.extend_from_slice(&len.to_le_bytes());
            self.wbuf.push(PROTOCOL_VERSION);
            self.wbuf.push(FrameType::WindowResult as u8);
            self.wbuf.extend_from_slice(&id.to_le_bytes());
            self.wbuf.extend_from_slice(&body);
            self.window_ends.push_back(self.wbuf.len());
            self.conn_out.inc();
            return true;
        }
        false
    }
}

/// Drain one group's engine queue, encode each window **once** and offer
/// the shared body to every member's outbox.
fn fan_out(
    db: &Db,
    group: SubscriptionId,
    members: &[(usize, u64)],
    conns: &mut HashMap<usize, Conn>,
    metrics: &NetMetrics,
) {
    let outs = db.poll_shared(group).unwrap_or_default();
    if outs.is_empty() {
        return; // the common case: keep it free of per-member work
    }
    let mut bodies = Vec::with_capacity(outs.len());
    for out in &outs {
        metrics.fanout_encodes.inc();
        let body = wire::encode_window_body(out);
        if body.len() as u64 + 10 > MAX_FRAME_LEN as u64 {
            // Unencodable frame; the window is gone for every member.
            metrics.delivery_lost.add(members.len() as u64);
        } else {
            bodies.push(Arc::new(body));
        }
    }
    let mut outbox_drops = 0u64;
    for &(key, id) in members {
        // A member leaves its group before its connection goes.
        let Some(conn) = conns.get_mut(&key) else {
            continue;
        };
        for body in &bodies {
            outbox_drops += conn.offer(id, body.clone());
        }
    }
    metrics.outbox_drops.add(outbox_drops);
}

fn ack(tag: &str, detail: &str, n: i64) -> Frame {
    Frame::new(
        FrameType::Rows,
        wire::encode_rows(&wire::ack_relation(tag, detail, n)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn conn() -> Conn {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let sock = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        Conn::new(sock, 1, &streamrel_obs::Registry::new(0))
    }

    /// Every frame in `bytes`, which must hold whole frames only.
    fn frames(bytes: &[u8]) -> Vec<Frame> {
        let mut decoder = FrameDecoder::new();
        decoder.extend(bytes);
        let frames = std::iter::from_fn(|| decoder.next_frame().unwrap()).collect();
        assert!(!decoder.mid_frame(), "a frame was cut");
        frames
    }

    /// The write side's queue discipline: a subscription with a standing
    /// backlog must not starve a later one on the same socket.
    #[test]
    fn backlogged_subscription_interleaves_with_later_ones() {
        let mut conn = conn();
        for id in [1, 2] {
            conn.outboxes.insert(id, Subscription::bounded(8));
        }
        for body in ["a1", "a2", "a3"] {
            assert_eq!(conn.offer(1, Arc::new(body.into())), 0);
        }
        conn.offer(2, Arc::new("b1".into()));

        // One refill coalesces all four frames.
        assert_eq!(conn.refill(), 4);
        let served: Vec<String> = frames(&conn.wbuf)
            .iter()
            .map(|f| {
                let id = u64::from_le_bytes(f.payload[..8].try_into().unwrap());
                format!("{id}:{}", String::from_utf8_lossy(&f.payload[8..]))
            })
            .collect();
        // One frame per turn; each subscription's own order is untouched.
        assert_eq!(served, ["1:a1", "2:b1", "1:a2", "1:a3"]);
        assert_eq!(conn.window_ends.len(), 4);
        assert_eq!(conn.window_ends.back(), Some(&conn.wbuf.len()));
        conn.wbuf.clear();
        assert!(!conn.has_output());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Coalescing changes the number of writes, never the bytes: the
        /// concatenated refills equal `ctrl` in order followed by the
        /// round-robin of the outboxes, one frame per turn, and every
        /// `window_ends` entry ends a window frame.
        #[test]
        fn coalesced_bytes_equal_one_frame_at_a_time(
            ctrl in prop::collection::vec(0usize..3000, 0..4),
            // (wire id, body length): bodies up to 40 KiB so refills
            // split at WRITE_BATCH.
            offers in prop::collection::vec((1u64..5, 0usize..40_000), 0..24),
        ) {
            let mut conn = conn();
            let mut expected = Vec::new();
            for (i, len) in ctrl.iter().enumerate() {
                let mut bytes = Vec::new();
                Frame::new(FrameType::Rows, vec![i as u8; *len]).write_to(&mut bytes).unwrap();
                expected.extend_from_slice(&bytes);
                conn.ctrl.push_back(bytes);
            }
            // The model: ids served in first-offer order, round-robin.
            let mut queues: Vec<(u64, VecDeque<Vec<u8>>)> = Vec::new();
            for (n, (id, len)) in offers.iter().enumerate() {
                conn.outboxes.entry(*id).or_insert_with(|| Subscription::bounded(64));
                let body = vec![n as u8; *len];
                conn.offer(*id, Arc::new(body.clone()));
                match queues.iter_mut().find(|(q, _)| q == id) {
                    Some((_, q)) => q.push_back(body),
                    None => queues.push((*id, VecDeque::from([body]))),
                }
            }
            let mut rotation: VecDeque<_> = queues.into();
            while let Some((id, mut q)) = rotation.pop_front() {
                let mut payload = id.to_le_bytes().to_vec();
                payload.extend(q.pop_front().unwrap());
                Frame::new(FrameType::WindowResult, payload).write_to(&mut expected).unwrap();
                if !q.is_empty() {
                    rotation.push_back((id, q));
                }
            }

            let (mut wire, mut windows) = (Vec::new(), 0);
            loop {
                windows += conn.refill();
                if conn.wbuf.is_empty() {
                    break;
                }
                let mut start = 0;
                for &end in &conn.window_ends {
                    let frame = &frames(&conn.wbuf[start..end]);
                    prop_assert_eq!(frame.last().map(|f| f.ty), Some(FrameType::WindowResult));
                    start = end;
                }
                wire.append(&mut conn.wbuf);
                conn.window_ends.clear();
            }
            prop_assert_eq!(windows, offers.len() as u64);
            prop_assert!(wire == expected, "coalesced bytes differ");
        }
    }
}
