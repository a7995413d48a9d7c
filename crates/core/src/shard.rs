//! Per-stream execution shards.
//!
//! The sharded core splits what used to be one `Mutex<Inner>` in two:
//! catalog/DDL state stays behind the `Db`'s single catalog lock, while
//! the *runtime* state of each base stream — its reorder buffer, its slice
//! stores (held by value: a store has no lock of its own), the CQ runtimes
//! rooted at it (including those over derived streams it feeds), and its
//! channel sinks — lives in a [`Shard`] with its own lock.
//! Ingest and heartbeat on distinct streams therefore never contend; the
//! whole CQ DAG rooted at one base stream stays in one shard, so
//! propagation (`pump`) never needs a second shard's lock.
//!
//! This module holds only data; every lock acquisition happens in
//! `db.rs`, where the file-level `// lock-order:` declaration covers it.

use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use parking_lot::Mutex;

use streamrel_cq::{ContinuousQuery, ReorderBuffer, SharedRegistry};
use streamrel_obs::Histogram;
use streamrel_sql::ast::ChannelMode;
use streamrel_types::Timestamp;

use crate::provider::StreamDecl;
use crate::subscription::SubscriptionId;

/// Where a CQ's window results go.
pub(crate) enum Sink {
    /// Feed a derived stream's subscribers.
    Derived(String),
    /// Queue for the client subscription this CQ was registered for.
    Client(SubscriptionId),
}

/// A running CQ plus its delivery target.
pub(crate) struct CqEntry {
    pub cq: ContinuousQuery,
    pub sink: Sink,
    /// Window-close latency (tuple arrival → result enqueued), µs. One
    /// instrument per CQ, registered as `cq.close_us.<name>`.
    pub close_hist: Arc<Histogram>,
}

/// A channel's write target, mirrored into the shard that produces its
/// rows. `rows_written` is shared with the catalog's channel definition
/// so `SHOW CHANNELS` needs no shard lock.
#[derive(Clone)]
pub(crate) struct ChannelSink {
    pub name: String,
    /// Resolved once at `CREATE CHANNEL`; a table cannot be dropped while
    /// a channel writes it.
    pub table_id: u32,
    pub mode: ChannelMode,
    pub rows_written: Arc<AtomicU64>,
}

/// Runtime state of one base stream.
pub(crate) struct StreamRuntime {
    pub decl: StreamDecl,
    pub reorder: Option<ReorderBuffer>,
    /// Newest CQTIME taken (tuple or heartbeat); ingest admits none older.
    pub high_water: Timestamp,
    /// CQs consuming this stream directly, in registration order.
    pub cq_ids: Vec<u64>,
    /// Channels archiving raw tuples.
    pub raw_channels: Vec<ChannelSink>,
    /// The slice stores reading this stream — pooled by shape and private
    /// — each living from its first member's registration until its last
    /// member leaves. Ingest folds every tuple into every store exactly
    /// once; registration and `EXPLAIN CHECK` read the live grids here.
    pub stores: SharedRegistry,
}

/// Runtime state of one derived stream (rooted at a base stream in the
/// same shard).
#[derive(Default)]
pub(crate) struct DerivedRuntime {
    pub channels: Vec<ChannelSink>,
    pub downstream_cqs: Vec<u64>,
}

/// Everything one shard's lock protects.
#[derive(Default)]
pub(crate) struct ShardState {
    pub streams: HashMap<String, StreamRuntime>,
    pub deriveds: HashMap<String, DerivedRuntime>,
    pub cqs: HashMap<u64, CqEntry>,
    /// WAL commit domain this shard's durable writes (raw archives,
    /// channel writes, watermarks) are routed to — `shard index %
    /// engine.wal_shards()`, fixed at assignment time so a shard always
    /// fsyncs the same log (DESIGN.md §13).
    pub domain: usize,
}

/// One execution shard. With `DbOptions::shards == 0` each base stream
/// owns a shard of its own; with a fixed shard count streams are assigned
/// round-robin at CREATE time.
pub(crate) struct Shard {
    pub state: Mutex<ShardState>,
}

impl Shard {
    pub fn new(domain: usize) -> Arc<Shard> {
        let shard = Shard {
            // Witness name matches db.rs's `// lock-order:` declaration.
            state: Mutex::named("core.state", ShardState::default()),
        };
        shard.state.lock().domain = domain;
        Arc::new(shard)
    }
}
