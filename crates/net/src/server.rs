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
//! - **the engine offering a window to the members**, through the
//!   [`Outlet`] it was handed, so a closing window interrupts the poll
//!   wait immediately, and
//! - a **fallback tick** bounding idle-reap and shutdown latency.
//!
//! **Fan-out groups.** A client subscription has members, each with its
//! own bounded queue, and the engine's `pump` offers every closed window
//! to each (`streamrel_core::Member`). A continuous `Query` or a
//! `SubscribeFrom` registers a subscription whose first member is the
//! reactor's ([`Db::serve`], [`Db::serve_stream`]); [`FrameType::Attach`]
//! resolves any live member's wire id to its subscription and seats
//! another ([`Db::join`]), without registering anything; the subscription
//! ends when its last member leaves. Wire ids come from one reactor
//! counter and are the members' keys; the engine's subscription ids
//! never cross the wire.
//!
//! **Serialize-once.** For a subscription the reactor serves, `pump`
//! queues each window in every member as one shared body slot and hands
//! the reactor the window, the slot and the members it made non-empty,
//! waking it. A sweep encodes each window once into its slot, off the
//! engine's locks (`net.fanout.encodes` counts bodies, not deliveries),
//! and schedules those members on their connections; a member's frame is
//! composed around the shared body when it is written. A sweep with
//! nothing offered does no per-group or per-member work.
//!
//! **Backpressure** is per member, in its one queue: a slow consumer's
//! queue sheds its oldest windows (gauge `net.outbox.depth`, sheds in
//! `net.outbox_drops`). A connection's members with windows queued are
//! served round-robin, one frame per turn. A peer that stops reading
//! altogether is disconnected once its write stalls longer than
//! [`ServerOptions::write_timeout`]. Windows routed to a member but never
//! fully written — its queue's residue, a half-written frame at socket
//! death — are counted in `net.delivery_lost`, so per member
//! windows_routed == sent + dropped + lost holds across connection death.
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
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use polling::{Event, Events, Poller};
use streamrel_core::{Db, ExecResult, Member, Offered, Outlet, Queued, SubscriptionId};
use streamrel_obs::{Counter, Gauge};
use streamrel_types::Result;

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
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            write_timeout: Duration::from_secs(5),
            read_timeout: None,
        }
    }
}

/// A running streamrel wire-protocol server.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    poller: Arc<Poller>,
    reactor: Option<JoinHandle<()>>,
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
        let reactor = {
            let shutdown = shutdown.clone();
            let poller = poller.clone();
            thread::Builder::new()
                .name("streamrel-reactor".into())
                .spawn(move || Reactor::new(db, listener, poller, opts).run(&shutdown))?
        };
        Ok(Server {
            addr,
            shutdown,
            poller,
            reactor: Some(reactor),
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
/// delivery latency (the engine wakes the reactor on every window).
const TICK: Duration = Duration::from_millis(100);

/// Monotonic connection ids, used both as poller keys and to key
/// per-connection instruments (`net.conn.<id>.*`) so concurrent
/// connections never share counters.
static CONN_SEQ: AtomicU64 = AtomicU64::new(0);

/// Per-connection state machine, owned by the reactor thread alone.
struct Conn {
    sock: TcpStream,
    decoder: FrameDecoder,
    /// Encoded reply/control frames, flushed ahead of window results so
    /// a `Subscribed` ack always precedes its first `WindowResult`.
    ctrl: VecDeque<Vec<u8>>,
    /// Wire ids of the members on this connection.
    members: Vec<u64>,
    /// Wire ids whose queue is non-empty, each listed once. The write
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
    /// Windows owed to wire members and not yet sent: queued in a member
    /// or in a connection's write buffer. The engine accounts the queued
    /// ones; a popped window stays counted until the socket takes it.
    outbox_depth: Arc<Gauge>,
    /// Window results routed to a member but never fully written to its
    /// socket: queue residue and half-written frames at teardown, and
    /// windows too large to frame.
    delivery_lost: Arc<Counter>,
    /// Window frames fully handed to the kernel.
    windows_sent: Arc<Counter>,
    /// `write(2)` calls on connection sockets.
    socket_writes: Arc<Counter>,
    /// Reactor loop iterations (readiness, engine wakeup or tick).
    wakeups: Arc<Counter>,
    /// `SubscribeFrom` frames asking for archive replay (a federation
    /// bridge resuming after a link drop or node restart).
    fed_resubscribes: Arc<Counter>,
    /// Archived windows re-served from Active Tables on resume.
    fed_replayed_windows: Arc<Counter>,
    /// Rows inside those replayed windows.
    fed_replayed_rows: Arc<Counter>,
}

/// A live wire member: its connection, its subscription (what `Attach`
/// resolves) and its queue.
struct WireMember {
    conn: usize,
    sub: SubscriptionId,
    member: Member,
}

struct Reactor {
    db: Arc<Db>,
    listener: TcpListener,
    poller: Arc<Poller>,
    opts: ServerOptions,
    conns: HashMap<usize, Conn>,
    /// Every live wire member, by wire id.
    members: HashMap<u64, WireMember>,
    /// What the subscriptions this server serves are registered with.
    outlet: Outlet,
    /// Windows the engine offered them, to encode and schedule.
    offers: Offers,
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
            delivery_lost: registry.counter("net.delivery_lost"),
            windows_sent: registry.counter("net.windows_sent"),
            socket_writes: registry.counter("net.socket_writes"),
            wakeups: registry.counter("net.reactor.wakeups"),
            fed_resubscribes: registry.counter("fed.resubscribes"),
            fed_replayed_windows: registry.counter("fed.replayed_windows"),
            fed_replayed_rows: registry.counter("fed.replayed_rows"),
        };
        // A window offered on any other thread interrupts the poll wait
        // with one self-pipe write; one offered by the reactor's own thread
        // (a wire ingest closing a window) needs no wakeup: the sweep that
        // follows the frame in the same loop iteration takes it.
        let (tell, rx) = channel();
        let (reactor, wake_poller) = (thread::current().id(), poller.clone());
        let outlet = Outlet {
            depth: metrics.outbox_depth.clone(),
            drops: registry.counter("net.outbox_drops"),
            serve: Some(Arc::new(move |offered| {
                let _ = tell.send(offered);
                if thread::current().id() != reactor {
                    let _ = wake_poller.notify();
                }
            })),
        };
        let encodes = metrics.fanout_encodes.clone();
        let offers = Offers {
            rx,
            encodes,
            due: Vec::new(),
        };
        Reactor {
            db,
            listener,
            poller,
            opts,
            conns: HashMap::new(),
            members: HashMap::new(),
            outlet,
            offers,
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
    /// frame, those read just before an EOF too. Returns false when the
    /// connection must die abruptly.
    fn conn_readable(&mut self, key: usize) -> bool {
        let mut eof = false;
        while !eof {
            let Some(conn) = self.conns.get_mut(&key) else {
                return true;
            };
            let mut chunk = [0u8; READ_CHUNK];
            match conn.sock.read(&mut chunk) {
                Ok(0) => eof = true,
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
        while let Some(conn) = self.conns.get_mut(&key).filter(|c| !c.closing) {
            match conn.decoder.next_frame() {
                Ok(Some(frame)) => {
                    conn.conn_in.inc();
                    self.metrics.frames_in.inc();
                    self.handle_frame(key, frame);
                }
                Ok(None) => break,
                // Malformed frame: tell the client why, then hang up.
                // Re-synchronising a corrupt byte stream is hopeless.
                Err(e) => self.hang_up(key, &format!("malformed frame: {e}")),
            }
        }
        if eof {
            // The peer sent all it will: its members leave as on
            // `Goodbye`, and the connection closes once the replies it is
            // owed are written. It reads no more, so only writability can
            // make progress.
            self.reap_subs(key);
            if let Some(conn) = self.conns.get_mut(&key) {
                conn.closing = true;
                conn.want_write = true;
                let _ = self.poller.modify(&conn.sock, Event::writable(key));
            }
        }
        true
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
        let payload = &frame.payload;
        let handled = match frame.ty {
            FrameType::Query => self.handle_query(key, payload),
            FrameType::Attach => self.handle_attach(key, payload),
            FrameType::SubscribeFrom => self.handle_subscribe_from(key, payload),
            FrameType::Ingest => self.handle_ingest(key, payload),
            FrameType::Heartbeat => self.handle_heartbeat(key, payload),
            FrameType::Goodbye => {
                // Reap before acking so a synchronous `close()` observes
                // its subscriptions already gone.
                self.reap_subs(key);
                self.enqueue_ctrl(key, &Frame::bare(FrameType::Goodbye));
                if let Some(conn) = self.conns.get_mut(&key) {
                    conn.closing = true;
                }
                Ok(())
            }
            // Server-to-client frame types arriving here are a protocol
            // violation; answer and hang up.
            FrameType::Rows
            | FrameType::Subscribed
            | FrameType::WindowResult
            | FrameType::Error => {
                self.hang_up(key, &format!("unexpected frame {:?} from client", frame.ty));
                Ok(())
            }
        };
        // A bad payload or a failed statement is a reply, not a
        // disconnect.
        if let Err(e) = handled {
            self.reply_error(key, &e.to_string());
        }
    }

    /// Run one SQL statement; reply `Rows` or `Subscribed`.
    fn handle_query(&mut self, key: usize, payload: &[u8]) -> Result<()> {
        let sql = wire::decode_query(payload)?;
        let reply = match self.db.serve(&sql, self.next_wire_id, &self.outlet)? {
            ExecResult::Rows(rel) => Frame::new(FrameType::Rows, wire::encode_rows(&rel)),
            ExecResult::Subscribed(sub) => return self.add_member(key, sub, true).map(drop),
            ExecResult::Created(name) => ack("created", &name, 0),
            ExecResult::Dropped(name) => ack("dropped", &name, 0),
            ExecResult::Inserted(n) => ack("inserted", "", n as i64),
            ExecResult::Deleted(n) => ack("deleted", "", n as i64),
            ExecResult::Truncated(name) => ack("truncated", &name, 0),
        };
        self.enqueue_ctrl(key, &reply);
        Ok(())
    }

    /// Seat a member in the subscription of any live wire member.
    /// Nothing is registered with the engine: the CQ keeps running once.
    /// The newcomer is offered exactly the windows that close after its
    /// `Subscribed` ack.
    fn handle_attach(&mut self, key: usize, payload: &[u8]) -> Result<()> {
        let target = wire::decode_attach(payload)?;
        let Some(sub) = self.members.get(&target).map(|m| m.sub) else {
            self.reply_error(key, &format!("unknown subscription {target}"));
            return Ok(());
        };
        self.add_member(key, sub, false).map(drop)
    }

    /// Seat the next wire member of `sub` on connection `key` — the
    /// `first`, seated when `sub` was registered, is only taken up — and
    /// ack it; returns its wire id. `ctrl` drains ahead of the members'
    /// windows, so `Subscribed` always precedes the member's first
    /// `WindowResult` on the wire.
    fn add_member(&mut self, key: usize, sub: SubscriptionId, first: bool) -> Result<u64> {
        let id = self.next_wire_id;
        let seat = if first { Db::member } else { Db::join };
        let member = seat(&self.db, sub, id)?;
        self.next_wire_id += 1;
        self.enqueue_ctrl(
            key,
            &Frame::new(FrameType::Subscribed, wire::encode_subscribed(id)),
        );
        if let Some(conn) = self.conns.get_mut(&key) {
            conn.members.push(id);
        }
        let conn = key;
        self.members.insert(id, WireMember { conn, sub, member });
        self.metrics.subscriptions.add(1);
        Ok(id)
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
    /// members' windows, so the duplicate's replayed copy arrives first
    /// and the bridge drops the live copy by close-order dedup.
    fn handle_subscribe_from(&mut self, key: usize, payload: &[u8]) -> Result<()> {
        let (stream, from) = wire::decode_subscribe_from(payload)?;
        let sub = (self.db).serve_stream(&stream, self.next_wire_id, &self.outlet)?;
        let id = self.add_member(key, sub, true)?;
        if from == i64::MIN {
            return Ok(()); // live-only: nothing to resume
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
            // The subscription registered but history is unavailable:
            // fail loudly so the bridge retries instead of silently
            // skipping windows. Closing reaps the subscription.
            Err(e) => self.hang_up(key, &e.to_string()),
        }
        Ok(())
    }

    fn handle_ingest(&mut self, key: usize, payload: &[u8]) -> Result<()> {
        let (stream, rows) = wire::decode_ingest(payload)?;
        let n = rows.len() as i64;
        self.db.ingest_batch(&stream, rows)?;
        self.enqueue_ctrl(key, &ack("ingested", &stream, n));
        Ok(())
    }

    fn handle_heartbeat(&mut self, key: usize, payload: &[u8]) -> Result<()> {
        let (stream, ts) = wire::decode_heartbeat(payload)?;
        self.db.heartbeat(&stream, ts)?;
        let echo = wire::encode_heartbeat(&stream, ts);
        self.enqueue_ctrl(key, &Frame::new(FrameType::Heartbeat, echo));
        Ok(())
    }

    fn reply_error(&mut self, key: usize, msg: &str) {
        self.enqueue_ctrl(key, &Frame::new(FrameType::Error, wire::encode_error(msg)));
    }

    /// Reply `Error`, then close once the reply is written.
    fn hang_up(&mut self, key: usize, msg: &str) {
        self.reply_error(key, msg);
        if let Some(conn) = self.conns.get_mut(&key) {
            conn.closing = true;
        }
    }

    /// Encode the windows offered since the last sweep, and schedule the
    /// members whose queue they made non-empty.
    fn sweep_deliveries(&mut self) {
        self.offers.take();
        for id in std::mem::take(&mut self.offers.due) {
            let conn = (self.members.get(&id)).and_then(|m| self.conns.get_mut(&m.conn));
            if let Some(conn) = conn {
                conn.ready.push_back(id);
            }
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
        let Reactor {
            conns,
            members,
            metrics,
            offers,
            ..
        } = self;
        let mut next = |id| next_body(members, metrics, offers, id);
        loop {
            let Some(conn) = conns.get_mut(&key) else {
                return true;
            };
            if conn.wpos == conn.wbuf.len() {
                conn.wbuf.clear();
                conn.wpos = 0;
                let windows = conn.refill(&mut next);
                if conn.wbuf.is_empty() {
                    // Nothing left to send: drop write interest.
                    if conn.want_write {
                        conn.want_write = false;
                        let _ = self.poller.modify(&conn.sock, Event::readable(key));
                    }
                    conn.stalled_since = None;
                    return true;
                }
                metrics.frames_out.add(windows);
                metrics.outbox_depth.add(windows as i64);
            }
            metrics.socket_writes.inc();
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
                        metrics.windows_sent.inc();
                        metrics.outbox_depth.add(-1);
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
        let (read, write) = (self.opts.read_timeout, self.opts.write_timeout);
        let doomed: Vec<(usize, bool)> = (self.conns.iter())
            .filter_map(|(&key, conn)| {
                // A connection owning subscriptions sits legitimately
                // silent while results are pushed; only sub-less
                // connections are half-open candidates.
                let idle = read.is_some_and(|deadline| {
                    conn.members.is_empty()
                        && !conn.closing
                        && now.duration_since(conn.last_activity) >= deadline
                });
                let stalled = (conn.stalled_since).is_some_and(|t| now.duration_since(t) >= write);
                (idle || stalled).then_some((key, idle))
            })
            .collect();
        for (key, idle) in doomed {
            if idle {
                self.metrics.idle_reaped.inc();
            }
            self.close_conn(key);
        }
    }

    /// Unseat this connection's members, accounting every window that
    /// was routed to them but will never be written: each member's queue
    /// residue and the window frames in `wbuf` behind the first unwritten
    /// one. That one — possibly half on the wire — stays, so a peer that
    /// said `Goodbye` reads whole frames up to the ack; it is sent, or
    /// lost with the connection in [`Reactor::close_conn`]. A
    /// subscription ends with its last member.
    fn reap_subs(&mut self, key: usize) {
        let Some(conn) = self.conns.get_mut(&key) else {
            return;
        };
        let buffered = conn.window_ends.len().saturating_sub(1);
        if let Some(&end) = conn.window_ends.front() {
            conn.wbuf.truncate(end);
            conn.window_ends.truncate(1);
        }
        conn.ready.clear();
        self.metrics.outbox_depth.add(-(buffered as i64));
        let mut lost = buffered as u64;
        for id in std::mem::take(&mut conn.members) {
            let Some(WireMember { sub, .. }) = self.members.remove(&id) else {
                continue;
            };
            lost += self.db.leave(sub, id).map_or(0, |account| account.queued);
            self.metrics.subscriptions.add(-1);
        }
        self.metrics.delivery_lost.add(lost);
    }

    fn close_conn(&mut self, key: usize) {
        self.reap_subs(key);
        let Some(conn) = self.conns.remove(&key) else {
            return;
        };
        // The window frame `reap_subs` left on the wire dies unwritten.
        let buffered = conn.window_ends.len();
        self.metrics.delivery_lost.add(buffered as u64);
        self.metrics.outbox_depth.add(-(buffered as i64));
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
            members: Vec::new(),
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

    /// Append pending frames to `wbuf` until it holds [`WRITE_BATCH`]
    /// bytes or nothing is pending; returns how many window frames it
    /// appended. `next` pops a member's next window body, and whether
    /// more are queued behind it.
    fn refill(&mut self, next: &mut impl FnMut(u64) -> Option<(Arc<Vec<u8>>, bool)>) -> u64 {
        let before = self.window_ends.len();
        while self.wbuf.len() < WRITE_BATCH && self.materialize_next(next) {}
        (self.window_ends.len() - before) as u64
    }

    /// Append the next pending frame to `wbuf`. Control frames first
    /// (they are replies and subscription acks), then one window frame
    /// from the member at the head of the `ready` rotation. Returns false
    /// when there is nothing to send.
    fn materialize_next(
        &mut self,
        next: &mut impl FnMut(u64) -> Option<(Arc<Vec<u8>>, bool)>,
    ) -> bool {
        if let Some(bytes) = self.ctrl.pop_front() {
            self.wbuf.extend_from_slice(&bytes);
            return true;
        }
        while let Some(id) = self.ready.pop_front() {
            let Some((body, more)) = next(id) else {
                continue;
            };
            if more {
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

/// The windows the engine offered the subscriptions a server serves.
struct Offers {
    rx: Receiver<Offered>,
    encodes: Arc<Counter>,
    /// Members whose queue they made non-empty, to schedule.
    due: Vec<u64>,
}

impl Offers {
    /// Encode each window offered since the last call into its slot,
    /// once, and note the members to schedule.
    fn take(&mut self) {
        for (window, body, woken) in self.rx.try_iter() {
            self.encodes.inc();
            let bytes = wire::encode_window_body(&window);
            let fits = bytes.len() as u64 + 10 <= MAX_FRAME_LEN as u64;
            let _ = body.set(fits.then(|| Arc::new(bytes)));
            self.due.extend(woken);
        }
    }
}

/// Pop wire member `id`'s next window body, and whether more are queued;
/// a window too large to frame is lost to the member.
fn next_body(
    members: &HashMap<u64, WireMember>,
    metrics: &NetMetrics,
    offers: &mut Offers,
    id: u64,
) -> Option<(Arc<Vec<u8>>, bool)> {
    let member = &members.get(&id)?.member;
    loop {
        let (queued, more) = member.pop()?;
        if let Queued::Body(slot) = queued {
            // `pump` handed the window over before the slot was poppable:
            // one popped ahead of the sweep is in `offers` still.
            if slot.get().is_none() {
                offers.take();
            }
            if let Some(Some(body)) = slot.get() {
                return Some((body.clone(), more));
            }
        }
        metrics.delivery_lost.inc();
        if !more {
            return None;
        }
    }
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

    /// Members' queues of window bodies, as the engine's would hold them.
    type Queues = HashMap<u64, VecDeque<Arc<Vec<u8>>>>;

    /// Queue `body` for member `id`, scheduling it if its queue was empty.
    fn offer(conn: &mut Conn, queues: &mut Queues, id: u64, body: Vec<u8>) {
        let queue = queues.entry(id).or_default();
        if queue.is_empty() {
            conn.ready.push_back(id);
        }
        queue.push_back(Arc::new(body));
    }

    fn pop(queues: &mut Queues) -> impl FnMut(u64) -> Option<(Arc<Vec<u8>>, bool)> + '_ {
        |id| {
            let queue = queues.get_mut(&id)?;
            Some((queue.pop_front()?, !queue.is_empty()))
        }
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
        let (mut conn, mut queues) = (conn(), Queues::new());
        for body in ["a1", "a2", "a3"] {
            offer(&mut conn, &mut queues, 1, body.into());
        }
        offer(&mut conn, &mut queues, 2, "b1".into());

        // One refill coalesces all four frames.
        assert_eq!(conn.refill(&mut pop(&mut queues)), 4);
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
        /// round-robin of the members' queues, one frame per turn, and every
        /// `window_ends` entry ends a window frame.
        #[test]
        fn coalesced_bytes_equal_one_frame_at_a_time(
            ctrl in prop::collection::vec(0usize..3000, 0..4),
            // (wire id, body length): bodies up to 40 KiB so refills
            // split at WRITE_BATCH.
            offers in prop::collection::vec((1u64..5, 0usize..40_000), 0..24),
        ) {
            let (mut conn, mut members) = (conn(), Queues::new());
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
                let body = vec![n as u8; *len];
                offer(&mut conn, &mut members, *id, body.clone());
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
                windows += conn.refill(&mut pop(&mut members));
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
