//! Subscription→ingest bridge: a remote node's derived stream as a
//! local source (the paper's network-effect thesis, §1/§4).
//!
//! A [`Bridge`] owns one background thread that keeps one link alive:
//! connect to the serving node, `SubscribeFrom{stream, last_applied}`,
//! and apply every window result to the local [`Db`] — either directly
//! (ingest the rows into a local base stream, then heartbeat the window
//! close so local windows close without local ingest), or through a
//! shared [`PartitionUnion`] when the local stream merges N partitioned
//! upstreams. When the link drops — server restart, `kill -9`, network
//! partition — the bridge reconnects with capped exponential backoff and
//! resumes from the last close it applied: the server replays the gap
//! from its Active-Table archive (`SubscribeFrom`), and the close-order
//! dedup here drops the overlap, so the local node converges to exactly
//! the uncrashed sequence.
//!
//! Observability (`fed.*`, on the **local** node's registry):
//! `fed.links` (bridges alive), `fed.link_up` (links currently
//! connected), `fed.reconnects` (links re-established after a drop — 0
//! on a healthy link), `fed.windows_in` / `fed.rows_in` (applied), and
//! `fed.lag` (window results received but not yet applied, summed over
//! bridges). The serving side counts `fed.resubscribes` /
//! `fed.replayed_windows` / `fed.replayed_rows`.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use streamrel_core::Db;
use streamrel_cq::{CqOutput, PartitionUnion};
use streamrel_obs::{Counter, Gauge};
use streamrel_types::{Result, Timestamp};

use crate::client::Client;

/// Bridge tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct BridgeOptions {
    /// First reconnect delay after a link drop.
    pub backoff_initial: Duration,
    /// Backoff cap (doubling stops here).
    pub backoff_max: Duration,
}

/// Receive-poll granularity. A closed link wakes the receive at once, so
/// this bounds only how long a shutdown waits and how stale the idle
/// `fed.lag` gauge gets.
const POLL: Duration = Duration::from_millis(50);

impl Default for BridgeOptions {
    fn default() -> BridgeOptions {
        BridgeOptions {
            backoff_initial: Duration::from_millis(50),
            backoff_max: Duration::from_secs(2),
        }
    }
}

/// Merge state shared by the N bridges feeding one partitioned union:
/// the union itself plus the highest heartbeat already forwarded to the
/// local stream (so equal frontiers are not re-heartbeat). One unnamed
/// mutex — applying a drained window *while holding it* is what makes
/// the merged ingest order deterministic across racing links.
pub struct UnionIngest {
    union: PartitionUnion,
    heartbeat_sent: Option<Timestamp>,
}

impl UnionIngest {
    /// Shared merge state over `parts` partitions.
    pub fn new(parts: usize) -> Arc<Mutex<UnionIngest>> {
        Arc::new(Mutex::new(UnionIngest {
            union: PartitionUnion::new(parts),
            heartbeat_sent: None,
        }))
    }
}

/// Where a bridge's windows go.
enum BridgeSink {
    /// Ingest each window's rows into a local base stream and heartbeat
    /// its close.
    Ingest,
    /// Offer into a shared partition union; ingest whatever the merge
    /// releases, then heartbeat the union frontier.
    Union {
        shared: Arc<Mutex<UnionIngest>>,
        partition: usize,
    },
}

/// Counters the bridge thread and its owner share.
struct BridgeShared {
    shutdown: AtomicBool,
    /// Highest window close applied locally (i64::MIN before the first).
    last_applied: AtomicI64,
    windows_applied: AtomicU64,
    reconnects: AtomicU64,
    link_up: AtomicBool,
    /// Window application errors (local ingest/heartbeat failures).
    apply_errors: AtomicU64,
}

/// Bridge metric handles on the local registry.
struct BridgeMetrics {
    links: Arc<Gauge>,
    link_up: Arc<Gauge>,
    reconnects: Arc<Counter>,
    windows_in: Arc<Counter>,
    rows_in: Arc<Counter>,
    lag: Arc<Gauge>,
    apply_errors: Arc<Counter>,
}

/// A live subscription→ingest bridge. Dropping it stops the thread and
/// closes the link; the local stream simply stops advancing.
pub struct Bridge {
    shared: Arc<BridgeShared>,
    handle: Option<JoinHandle<()>>,
    links: Arc<Gauge>,
}

impl Bridge {
    /// Bridge `remote_stream` on the server at `addr` into the local
    /// base stream `local_stream`: every remote window's rows are
    /// ingested and its close is heartbeat so local windows close
    /// without local ingest.
    pub fn start(
        db: Arc<Db>,
        addr: impl Into<String>,
        remote_stream: impl Into<String>,
        local_stream: impl Into<String>,
        opts: BridgeOptions,
    ) -> Result<Bridge> {
        Bridge::spawn(
            db,
            addr.into(),
            remote_stream.into(),
            local_stream.into(),
            BridgeSink::Ingest,
            opts,
        )
    }

    /// Bridge one partition of a partitioned stream: windows are merged
    /// through `shared` (one [`UnionIngest`] serves all N partitions of
    /// `local_stream`) and only watermark-complete windows are ingested,
    /// in `(close, partition)` order.
    pub fn start_partition(
        db: Arc<Db>,
        addr: impl Into<String>,
        remote_stream: impl Into<String>,
        local_stream: impl Into<String>,
        shared: Arc<Mutex<UnionIngest>>,
        partition: usize,
        opts: BridgeOptions,
    ) -> Result<Bridge> {
        Bridge::spawn(
            db,
            addr.into(),
            remote_stream.into(),
            local_stream.into(),
            BridgeSink::Union { shared, partition },
            opts,
        )
    }

    fn spawn(
        db: Arc<Db>,
        addr: String,
        remote_stream: String,
        local_stream: String,
        sink: BridgeSink,
        opts: BridgeOptions,
    ) -> Result<Bridge> {
        let registry = db.engine().metrics().clone();
        let metrics = BridgeMetrics {
            links: registry.gauge("fed.links"),
            link_up: registry.gauge("fed.link_up"),
            reconnects: registry.counter("fed.reconnects"),
            windows_in: registry.counter("fed.windows_in"),
            rows_in: registry.counter("fed.rows_in"),
            lag: registry.gauge("fed.lag"),
            apply_errors: registry.counter("fed.apply_errors"),
        };
        metrics.links.add(1);
        let links = metrics.links.clone();
        let shared = Arc::new(BridgeShared {
            shutdown: AtomicBool::new(false),
            last_applied: AtomicI64::new(i64::MIN),
            windows_applied: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            link_up: AtomicBool::new(false),
            apply_errors: AtomicU64::new(0),
        });
        let worker = BridgeWorker {
            db,
            addr,
            remote_stream,
            local_stream,
            sink,
            opts,
            shared: shared.clone(),
            metrics,
        };
        let handle = std::thread::Builder::new()
            .name("streamrel-bridge".into())
            .spawn(move || worker.run())
            .map_err(|e| streamrel_types::Error::stream(format!("spawn bridge: {e}")))?;
        Ok(Bridge {
            shared,
            handle: Some(handle),
            links,
        })
    }

    /// Highest remote window close applied locally, if any yet.
    pub fn last_applied(&self) -> Option<Timestamp> {
        match self.shared.last_applied.load(Ordering::SeqCst) {
            i64::MIN => None,
            v => Some(v),
        }
    }

    /// Windows applied to the local node so far.
    pub fn windows_applied(&self) -> u64 {
        self.shared.windows_applied.load(Ordering::SeqCst)
    }

    /// Links re-established after a drop (0 on a healthy link).
    pub fn reconnects(&self) -> u64 {
        self.shared.reconnects.load(Ordering::SeqCst)
    }

    /// True while the link is connected and subscribed.
    pub fn is_up(&self) -> bool {
        self.shared.link_up.load(Ordering::SeqCst)
    }

    /// Window application failures (local ingest/heartbeat errors).
    pub fn apply_errors(&self) -> u64 {
        self.shared.apply_errors.load(Ordering::SeqCst)
    }

    /// Block until `windows_applied() >= n` or the deadline passes.
    /// Returns whether the target was reached (test/soak convenience).
    pub fn wait_for_windows(&self, n: u64, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        while self.windows_applied() < n {
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        true
    }

    /// Block until the link is up (connected and subscribed) or the
    /// deadline passes. A fresh bridge subscribes live-only, so a driver
    /// that starts producing before the subscription lands would race
    /// it; wait here first.
    pub fn wait_until_up(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        while !self.is_up() {
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        true
    }

    /// Stop the bridge thread and close the link.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        self.links.sub(1);
    }
}

impl Drop for Bridge {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.stop();
        }
    }
}

struct BridgeWorker {
    db: Arc<Db>,
    addr: String,
    remote_stream: String,
    local_stream: String,
    sink: BridgeSink,
    opts: BridgeOptions,
    shared: Arc<BridgeShared>,
    metrics: BridgeMetrics,
}

impl BridgeWorker {
    fn run(self) {
        let mut backoff = self.opts.backoff_initial;
        let mut ever_connected = false;
        let mut lag_reported: i64 = 0;
        while !self.shutting_down() {
            // One session: connect, resume, pump until the link dies.
            let session = self.connect_and_subscribe();
            let Some((client, stream)) = session else {
                self.sleep(backoff);
                backoff = (backoff * 2).min(self.opts.backoff_max);
                continue;
            };
            if ever_connected {
                self.shared.reconnects.fetch_add(1, Ordering::SeqCst);
                self.metrics.reconnects.inc();
            }
            ever_connected = true;
            backoff = self.opts.backoff_initial;
            self.shared.link_up.store(true, Ordering::SeqCst);
            self.metrics.link_up.add(1);
            while !self.shutting_down() {
                match stream.next_timeout(POLL) {
                    Some(out) => self.apply(out),
                    None => {
                        if stream.is_closed() {
                            break; // link lost: reconnect with backoff
                        }
                    }
                }
                let lag = stream.pending() as i64;
                self.metrics.lag.add(lag - lag_reported);
                lag_reported = lag;
            }
            self.shared.link_up.store(false, Ordering::SeqCst);
            self.metrics.link_up.sub(1);
            self.metrics.lag.add(-lag_reported);
            lag_reported = 0;
            drop(client);
            if !self.shutting_down() {
                self.sleep(backoff);
                backoff = (backoff * 2).min(self.opts.backoff_max);
            }
        }
        self.metrics.lag.add(-lag_reported);
    }

    /// One connection attempt: dial, then resume from the last applied
    /// close (live-only on the very first session — there is no gap to
    /// fill before anything was ever applied).
    fn connect_and_subscribe(&self) -> Option<(Client, crate::client::SubscriptionStream)> {
        let client = Client::connect(&self.addr).ok()?;
        let from = self.shared.last_applied.load(Ordering::SeqCst);
        let stream = client.subscribe_from(&self.remote_stream, from).ok()?;
        Some((client, stream))
    }

    /// Apply one remote window locally. Replay overlap (a window the
    /// archive scan and live delivery both produced, or anything at or
    /// below the resume point) is dropped by close order.
    fn apply(&self, out: CqOutput) {
        if out.close <= self.shared.last_applied.load(Ordering::SeqCst) {
            return;
        }
        let close = out.close;
        let rows = out.relation.len() as u64;
        let res = match &self.sink {
            BridgeSink::Ingest => self.apply_direct(out),
            BridgeSink::Union { shared, partition } => self.apply_union(shared, *partition, out),
        };
        match res {
            Ok(()) => {
                self.shared.last_applied.store(close, Ordering::SeqCst);
                self.shared.windows_applied.fetch_add(1, Ordering::SeqCst);
                self.metrics.windows_in.inc();
                self.metrics.rows_in.add(rows);
            }
            Err(_) => {
                // Local application failed (e.g. the local stream is
                // gone). Count it; the close is NOT advanced, so a
                // reconnect replays the window.
                self.shared.apply_errors.fetch_add(1, Ordering::SeqCst);
                self.metrics.apply_errors.inc();
            }
        }
    }

    fn apply_direct(&self, out: CqOutput) -> Result<()> {
        if !out.relation.rows().is_empty() {
            self.db
                .ingest_batch(&self.local_stream, out.relation.rows().to_vec())?;
        }
        // The remote close is the local watermark: windows downstream of
        // the bridged stream close with zero local ingest.
        self.db.heartbeat(&self.local_stream, out.close)
    }

    fn apply_union(
        &self,
        shared: &Arc<Mutex<UnionIngest>>,
        partition: usize,
        out: CqOutput,
    ) -> Result<()> {
        // Ingest released windows while holding the union lock: racing
        // partition links serialize here, and release order — hence
        // local ingest order — is the deterministic (close, partition)
        // merge order no matter which link ran first.
        let mut merge = shared.lock();
        merge.union.offer(partition, out)?;
        let released = merge.union.drain_ready();
        for w in &released {
            if !w.relation.rows().is_empty() {
                self.db
                    .ingest_batch(&self.local_stream, w.relation.rows().to_vec())?;
            }
        }
        if let Some(frontier) = merge.union.frontier() {
            if merge.heartbeat_sent.is_none_or(|h| frontier > h) {
                self.db.heartbeat(&self.local_stream, frontier)?;
                merge.heartbeat_sent = Some(frontier);
            }
        }
        Ok(())
    }

    fn shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Backoff sleep that stays responsive to shutdown.
    fn sleep(&self, total: Duration) {
        let slice = Duration::from_millis(10);
        let deadline = std::time::Instant::now() + total;
        while std::time::Instant::now() < deadline && !self.shutting_down() {
            std::thread::sleep(slice.min(total));
        }
    }
}
