//! Per-stream execution shards.
//!
//! The sharded core splits what used to be one `Mutex<Inner>` in two:
//! catalog/DDL state stays behind the `Db`'s single catalog lock, while
//! the *runtime* state of each stream — its slice stores (held by value: a
//! store has no lock of its own), the CQs that read it and its channel
//! sinks; for a base stream also its reorder buffer — lives in a [`Shard`]
//! with its own lock. A stream is a stream: one [`StreamRuntime`] serves a
//! base stream, fed by ingest, and a derived one, fed by the CQ behind it.
//! Ingest and heartbeat on distinct base streams therefore never contend;
//! the whole CQ DAG rooted at one base stream — every derived stream it
//! feeds included — stays in one shard, so propagation (`pump`) never
//! needs a second shard's lock.
//!
//! This module holds only data; every lock acquisition happens in `db.rs`
//! and its modules, in the order of `streamrel_check::lock_order`.

use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use parking_lot::Mutex;

use streamrel_cq::{ContinuousQuery, ReorderBuffer, SharedRegistry};
use streamrel_obs::Histogram;
use streamrel_sql::ast::ChannelMode;
use streamrel_types::Timestamp;

use crate::provider::StreamDecl;
use crate::subscription::{Group, SubscriptionId};

/// Where a CQ's window results go.
pub(crate) enum Sink {
    /// Feed the derived stream of this name, in the same shard.
    Derived(String),
    /// The members of the client subscription this CQ was registered for.
    Client(SubscriptionId, Group),
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

/// Runtime state of one stream.
pub(crate) struct StreamRuntime {
    pub decl: StreamDecl,
    /// Fed by the CQ behind it rather than by ingest: each batch is one
    /// closed window of that CQ, and its close is the resume watermark.
    pub derived: bool,
    /// Out-of-order slack (base streams with `DbOptions::slack`).
    pub reorder: Option<ReorderBuffer>,
    /// Newest time taken — a tuple's CQTIME, a heartbeat's, a derived
    /// stream's window close. Ingest admits no older tuple.
    pub high_water: Timestamp,
    /// CQs consuming this stream directly, in registration order.
    pub cq_ids: Vec<u64>,
    /// Channels archiving the stream's rows into Active Tables.
    pub channels: Vec<ChannelSink>,
    /// The slice stores reading this stream — pooled by shape and private
    /// — each living from its first member's registration until its last
    /// member leaves. Every batch is taken through every store exactly
    /// once; registration and `EXPLAIN CHECK` read the live grids here.
    pub stores: SharedRegistry,
}

impl StreamRuntime {
    pub fn new(decl: StreamDecl, derived: bool, reorder: Option<ReorderBuffer>) -> StreamRuntime {
        StreamRuntime {
            decl,
            derived,
            reorder,
            high_water: Timestamp::MIN,
            cq_ids: Vec::new(),
            channels: Vec::new(),
            stores: SharedRegistry::default(),
        }
    }
}

/// Everything one shard's lock protects.
#[derive(Default)]
pub(crate) struct ShardState {
    pub streams: HashMap<String, StreamRuntime>,
    pub cqs: HashMap<u64, CqEntry>,
    /// WAL commit domain this shard's durable writes (channel writes,
    /// watermarks) are routed to — `shard index % engine.wal_shards()`,
    /// fixed at assignment time so a shard always fsyncs the same log
    /// (DESIGN.md §13).
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
            state: Mutex::named("core.state", ShardState::default()),
        };
        shard.state.lock().domain = domain;
        Arc::new(shard)
    }
}
