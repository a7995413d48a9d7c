//! Blocking wire-protocol client.
//!
//! One TCP connection carries both request/response traffic and
//! asynchronous `WindowResult` pushes — including pushes for **many**
//! logical subscriptions multiplexed over the single socket (register
//! more with [`Client::subscribe`] or join an existing fan-out group
//! with [`Client::subscribe_attach`]). A background reader thread
//! demultiplexes: responses go to the (single) in-flight request; window
//! results are routed to the [`SubscriptionStream`] they belong to.
//! Requests are serialized — the protocol allows one outstanding request
//! per connection — but pushed results arrive at any time, including
//! while no request is in flight.
//!
//! Each subscription's client-side queue is **bounded** by
//! [`streamrel_core::DEFAULT_SUB_CAPACITY`], the engine's own default,
//! mirroring the server's member queues: an application that stops
//! consuming a stream sheds that stream's oldest windows (observable via
//! [`SubscriptionStream::dropped`]) instead of growing memory without
//! limit. The reader decodes with the resumable [`FrameDecoder`], so a
//! socket read timeout mid-frame never desyncs the stream.

use std::collections::HashMap;
use std::fmt;
use std::io::{self, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use streamrel_core::Subscription;
use streamrel_cq::CqOutput;
use streamrel_types::{Relation, Row, Timestamp};

use crate::frame::{Frame, FrameDecoder, FrameType};
use crate::wire;

/// Client-side failures.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure.
    Io(io::Error),
    /// The server answered with an `Error` frame (e.g. a SQL error).
    Remote(String),
    /// The peer sent something the protocol does not allow here.
    Protocol(String),
    /// The connection is gone (EOF, server shutdown, reader died).
    Disconnected,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io error: {e}"),
            NetError::Remote(m) => write!(f, "server error: {m}"),
            NetError::Protocol(m) => write!(f, "protocol error: {m}"),
            NetError::Disconnected => write!(f, "connection closed"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> NetError {
        NetError::Io(e)
    }
}

impl From<streamrel_types::Error> for NetError {
    fn from(e: streamrel_types::Error) -> NetError {
        NetError::Protocol(e.to_string())
    }
}

/// Client-side result alias.
pub type NetResult<T> = Result<T, NetError>;

/// Bounded buffer between the reader thread and one
/// [`SubscriptionStream`]. The bound is the engine's default queue
/// capacity, so a stalled consumer sheds its oldest windows (counted)
/// instead of allocating forever.
struct SubQueue {
    q: Mutex<Subscription<CqOutput>>,
    cv: Condvar,
    /// Set (with a final wakeup) when the reader exits: no more results
    /// will ever arrive.
    closed: AtomicBool,
}

impl SubQueue {
    fn new() -> Arc<SubQueue> {
        Arc::new(SubQueue {
            q: Mutex::new(Subscription::bounded(streamrel_core::DEFAULT_SUB_CAPACITY)),
            cv: Condvar::new(),
            closed: AtomicBool::new(false),
        })
    }

    fn offer(&self, out: CqOutput) {
        self.q.lock().offer(out);
        self.cv.notify_all();
    }

    fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        self.cv.notify_all();
    }
}

/// A demultiplexed server→client message destined for the request path.
enum Reply {
    Rows(Relation),
    Subscribed(u64, Arc<SubQueue>),
    Heartbeat,
    Goodbye,
    Err(String),
}

struct Io {
    writer: TcpStream,
    resp: Receiver<Reply>,
}

/// Blocking connection to a streamrel server.
pub struct Client {
    io: Mutex<Io>,
    socket: TcpStream,
    reader: Option<JoinHandle<()>>,
}

impl Client {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> NetResult<Client> {
        let socket = TcpStream::connect(addr)?;
        socket.set_nodelay(true).ok();
        let writer = socket.try_clone()?;
        let read_half = socket.try_clone()?;
        let (resp_tx, resp_rx) = mpsc::channel();
        let reader = std::thread::Builder::new()
            .name("streamrel-client-reader".into())
            .spawn(move || reader_loop(read_half, resp_tx))
            .map_err(NetError::Io)?;
        Ok(Client {
            io: Mutex::new(Io {
                writer,
                resp: resp_rx,
            }),
            socket,
            reader: Some(reader),
        })
    }

    /// Execute one non-continuous SQL statement. DDL and DML acks come
    /// back as one-row relations (see [`wire::ack_relation`]).
    pub fn execute(&self, sql: &str) -> NetResult<Relation> {
        match self.request(Frame::new(FrameType::Query, wire::encode_query(sql)))? {
            Reply::Rows(rel) => Ok(rel),
            Reply::Subscribed(..) => Err(NetError::Protocol(
                "statement registered a continuous query; use subscribe()".into(),
            )),
            other => Err(unexpected(&other)),
        }
    }

    /// Register a continuous SELECT; window results are *pushed* by the
    /// server and surface on the returned iterator as they close.
    pub fn subscribe(&self, sql: &str) -> NetResult<SubscriptionStream> {
        match self.request(Frame::new(FrameType::Query, wire::encode_query(sql)))? {
            Reply::Subscribed(id, queue) => Ok(SubscriptionStream { id, queue }),
            Reply::Rows(_) => Err(NetError::Protocol(
                "statement returned rows, not a subscription; use execute()".into(),
            )),
            other => Err(unexpected(&other)),
        }
    }

    /// Join the fan-out group of an existing subscription (possibly
    /// owned by another connection): the server runs the continuous
    /// query **once** and serializes each closed window once, and this
    /// stream receives the same window sequence under its own fresh id.
    pub fn subscribe_attach(&self, primary: u64) -> NetResult<SubscriptionStream> {
        match self.request(Frame::new(FrameType::Attach, wire::encode_attach(primary)))? {
            Reply::Subscribed(id, queue) => Ok(SubscriptionStream { id, queue }),
            other => Err(unexpected(&other)),
        }
    }

    /// Subscribe to a stream's pass-through window feed, replaying
    /// archived windows with `close > from` before live delivery —
    /// the federation bridge's resume request. `from == i64::MIN`
    /// requests live-only (nothing to resume). Replayed windows arrive
    /// on the returned stream in close order, ahead of live ones; a
    /// window racing the archive scan may arrive twice (replayed copy
    /// first), so resuming consumers should drop closes they have
    /// already applied.
    pub fn subscribe_from(&self, stream: &str, from: Timestamp) -> NetResult<SubscriptionStream> {
        match self.request(Frame::new(
            FrameType::SubscribeFrom,
            wire::encode_subscribe_from(stream, from),
        ))? {
            Reply::Subscribed(id, queue) => Ok(SubscriptionStream { id, queue }),
            other => Err(unexpected(&other)),
        }
    }

    /// Push a batch of tuples into a stream. Returns the ingested count.
    pub fn ingest_batch(&self, stream: &str, rows: &[Row]) -> NetResult<u64> {
        match self.request(Frame::new(
            FrameType::Ingest,
            wire::encode_ingest(stream, rows),
        ))? {
            Reply::Rows(rel) => match wire::parse_ack(&rel) {
                Some((tag, _, n)) if tag == "ingested" => Ok(n as u64),
                _ => Err(NetError::Protocol("malformed ingest ack".into())),
            },
            other => Err(unexpected(&other)),
        }
    }

    /// Fetch the server's `streamrel_metrics` virtual relation: the
    /// snapshot query `SELECT * FROM streamrel_metrics`, the same relation
    /// an embedded caller selects.
    pub fn stats(&self) -> NetResult<Relation> {
        self.execute(&format!(
            "SELECT * FROM {}",
            streamrel_obs::METRICS_RELATION
        ))
    }

    /// Advance a stream's event time (punctuation), closing due windows.
    pub fn heartbeat(&self, stream: &str, ts: Timestamp) -> NetResult<()> {
        match self.request(Frame::new(
            FrameType::Heartbeat,
            wire::encode_heartbeat(stream, ts),
        ))? {
            Reply::Heartbeat => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Orderly hang-up: `Goodbye`, await the ack, close the socket. The
    /// server reaps this connection's subscriptions either way; this
    /// just makes the close synchronous.
    pub fn close(self) -> NetResult<()> {
        match self.request(Frame::bare(FrameType::Goodbye)) {
            Ok(Reply::Goodbye) | Err(NetError::Disconnected) => Ok(()),
            Ok(other) => Err(unexpected(&other)),
            Err(e) => Err(e),
        }
        // Drop does the socket shutdown and reader join.
    }

    /// Send one frame and wait for its reply.
    fn request(&self, frame: Frame) -> NetResult<Reply> {
        let io = self.io.lock();
        frame.write_to(&mut &io.writer)?;
        (&io.writer).flush()?;
        match io.resp.recv() {
            Ok(Reply::Err(msg)) => Err(NetError::Remote(msg)),
            Ok(reply) => Ok(reply),
            Err(_) => Err(NetError::Disconnected),
        }
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        // Best-effort goodbye; an abrupt close is also handled server-side.
        if let Some(io) = self.io.try_lock() {
            let _ = Frame::bare(FrameType::Goodbye).write_to(&mut &io.writer);
        }
        let _ = self.socket.shutdown(Shutdown::Both);
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

fn unexpected(reply: &Reply) -> NetError {
    let what = match reply {
        Reply::Rows(_) => "Rows",
        Reply::Subscribed(..) => "Subscribed",
        Reply::Heartbeat => "Heartbeat",
        Reply::Goodbye => "Goodbye",
        Reply::Err(_) => "Error",
    };
    NetError::Protocol(format!("unexpected {what} reply"))
}

/// Where the reader sends `WindowResult` frames: one route per live
/// stream on this connection, found by id in O(1) however many streams
/// share the socket.
#[derive(Default)]
struct Router {
    subs: HashMap<u64, Arc<SubQueue>>,
    /// The last body decoded (the payload after its 8-byte id) and its
    /// output. Every member of a fan-out group receives the same body
    /// bytes, so a run of copies decodes once; decoding is a pure
    /// function of the bytes, so a byte-equal body reuses the output.
    last: Option<(Vec<u8>, CqOutput)>,
}

impl Router {
    fn add(&mut self, id: u64) -> Arc<SubQueue> {
        let queue = SubQueue::new();
        self.subs.insert(id, queue.clone());
        queue
    }

    /// Decode one `WindowResult` payload and offer it to its stream. A
    /// stream whose consumer is gone (the router holds the only
    /// reference) loses its route here, lazily.
    fn route(&mut self, payload: &[u8]) -> streamrel_types::Result<()> {
        let (id, out) = match (&self.last, payload.split_first_chunk::<8>()) {
            (Some((bytes, out)), Some((id, body))) if bytes.as_slice() == body => {
                (u64::from_le_bytes(*id), out.clone())
            }
            _ => {
                let (id, out) = wire::decode_window_result(payload)?;
                self.last = Some((payload[8..].to_vec(), out.clone()));
                (id, out)
            }
        };
        if let Some(q) = self.subs.get(&id) {
            if Arc::strong_count(q) == 1 {
                self.subs.remove(&id);
            } else {
                q.offer(out);
            }
        }
        Ok(())
    }
}

/// Reader thread: decode frames and route them. Response frames go to
/// the in-flight request; `WindowResult` frames go to their stream's
/// bounded queue. On any socket or protocol error the thread exits,
/// closing the response channel and every subscription queue, which
/// surfaces `Disconnected`/end-of-stream to all callers.
fn reader_loop(mut socket: TcpStream, resp: Sender<Reply>) {
    let mut router = Router::default();
    let mut decoder = FrameDecoder::new();
    loop {
        // The resumable decoder survives read timeouts mid-frame (the
        // old `Frame::read_from` restarted and desynced); anything else
        // short of a complete frame ends the connection.
        let frame = match decoder.read_frame(&mut socket) {
            Ok(Some(f)) => f,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            _ => break,
        };
        let forwarded = match frame.ty {
            FrameType::Rows => match wire::decode_rows(&frame.payload) {
                Ok(rel) => resp.send(Reply::Rows(rel)).is_ok(),
                Err(_) => break,
            },
            FrameType::Subscribed => match wire::decode_subscribed(&frame.payload) {
                // Register the route *before* handing the queue to the
                // caller: this thread is the only frame source, so no
                // WindowResult for `id` can be missed.
                Ok(id) => resp.send(Reply::Subscribed(id, router.add(id))).is_ok(),
                Err(_) => break,
            },
            FrameType::WindowResult => match router.route(&frame.payload) {
                Ok(()) => true,
                Err(_) => break,
            },
            FrameType::Heartbeat => resp.send(Reply::Heartbeat).is_ok(),
            FrameType::Error => match wire::decode_error(&frame.payload) {
                Ok(msg) => resp.send(Reply::Err(msg)).is_ok(),
                Err(_) => break,
            },
            FrameType::Goodbye => {
                let _ = resp.send(Reply::Goodbye);
                break;
            }
            // Client-to-server frames; the server must not send these.
            FrameType::Query | FrameType::Ingest | FrameType::Attach | FrameType::SubscribeFrom => {
                break
            }
        };
        if !forwarded {
            // The Client was dropped; nobody is listening any more.
            break;
        }
    }
    // Wake every blocked stream: the connection is over.
    for q in router.subs.into_values() {
        q.close();
    }
}

/// Iterator over pushed window results for one continuous query.
///
/// `next()` blocks until the next window closes; it returns `None` when
/// the connection (or subscription) is gone. Dropping the stream stops
/// routing — further results for this subscription are discarded
/// client-side until the connection closes and the server reaps it.
pub struct SubscriptionStream {
    id: u64,
    queue: Arc<SubQueue>,
}

impl SubscriptionStream {
    /// The server-assigned subscription id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Windows shed client-side because this stream's bounded queue
    /// overflowed (the consumer fell behind the wire).
    pub fn dropped(&self) -> u64 {
        self.queue.q.lock().dropped()
    }

    /// Windows buffered client-side awaiting consumption — the
    /// federation bridge's lag gauge reads this.
    pub fn pending(&self) -> usize {
        self.queue.q.lock().pending()
    }

    /// True once the connection (or subscription) is gone: no further
    /// results will ever arrive beyond what is already queued.
    pub fn is_closed(&self) -> bool {
        self.queue.closed.load(Ordering::SeqCst)
    }

    /// Non-blocking poll; `None` if nothing is pending right now.
    pub fn try_next(&self) -> Option<CqOutput> {
        self.queue.q.lock().pop()
    }

    /// Block up to `timeout` for the next window result.
    pub fn next_timeout(&self, timeout: Duration) -> Option<CqOutput> {
        let deadline = Instant::now() + timeout;
        let mut q = self.queue.q.lock();
        loop {
            if let Some(out) = q.pop() {
                return Some(out);
            }
            if self.queue.closed.load(Ordering::SeqCst) {
                return None;
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let _ = self.queue.cv.wait_for(&mut q, deadline - now);
        }
    }
}

impl Iterator for SubscriptionStream {
    type Item = CqOutput;

    fn next(&mut self) -> Option<CqOutput> {
        let mut q = self.queue.q.lock();
        loop {
            if let Some(out) = q.pop() {
                return Some(out);
            }
            if self.queue.closed.load(Ordering::SeqCst) {
                return None;
            }
            self.queue.cv.wait(&mut q);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamrel_types::{Column, DataType, Schema, Value};

    fn window(close: i64, rows: &[i64]) -> CqOutput {
        let schema = Arc::new(Schema::new(vec![Column::new("v", DataType::Int)]).unwrap());
        let rows = rows.iter().map(|&v| vec![Value::Int(v)]).collect();
        CqOutput {
            close,
            relation: Relation::new(schema, rows),
        }
    }

    /// What a plain decode of `payload` gives, as comparable bytes.
    fn plain(payload: &[u8]) -> (u64, Vec<u8>) {
        let (id, out) = wire::decode_window_result(payload).unwrap();
        (id, wire::encode_window_body(&out))
    }

    fn drain(q: &SubQueue) -> Vec<Vec<u8>> {
        let mut q = q.q.lock();
        std::iter::from_fn(|| q.pop())
            .map(|o| wire::encode_window_body(&o))
            .collect()
    }

    #[test]
    fn every_copy_reaches_its_own_stream_and_matches_a_plain_decode() {
        let mut router = Router::default();
        // Two groups whose bodies are byte-equal, then a third body: the
        // sequence A, B, A must not hit a stale cache entry.
        let (a, b) = (window(60, &[1, 2]), window(120, &[3]));
        let ids: Vec<u64> = (1..=1_000).collect();
        let queues: Vec<_> = ids.iter().map(|&id| router.add(id)).collect();
        let mut sent: HashMap<u64, Vec<Vec<u8>>> = HashMap::new();
        for out in [&a, &b, &a] {
            for &id in &ids {
                let payload = wire::encode_window_result(id, out);
                router.route(&payload).unwrap();
                let (got_id, body) = plain(&payload);
                assert_eq!(got_id, id);
                sent.entry(id).or_default().push(body);
            }
        }
        for (id, q) in ids.iter().zip(&queues) {
            assert_eq!(drain(q), sent[id], "stream {id}");
        }
    }

    #[test]
    fn a_dropped_stream_loses_its_route_and_the_others_keep_receiving() {
        let mut router = Router::default();
        let kept = router.add(1);
        drop(router.add(2));
        for id in [1, 2] {
            router
                .route(&wire::encode_window_result(id, &window(60, &[7])))
                .unwrap();
        }
        assert!(!router.subs.contains_key(&2), "dead route pruned");
        router
            .route(&wire::encode_window_result(1, &window(120, &[8])))
            .unwrap();
        assert_eq!(drain(&kept).len(), 2);
    }

    #[test]
    fn a_malformed_body_is_an_error_even_after_a_cached_one() {
        let mut router = Router::default();
        let good = wire::encode_window_result(1, &window(60, &[1]));
        router.route(&good).unwrap();
        let mut bad = good.clone();
        bad.push(0);
        assert!(router.route(&bad).is_err());
        assert!(router.route(&good[..good.len() - 1]).is_err());
        assert!(router.route(&[1, 2, 3]).is_err());
    }
}
