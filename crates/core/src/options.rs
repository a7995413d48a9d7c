//! Database configuration.

use streamrel_cq::ConsistencyMode;
use streamrel_storage::SyncMode;
use streamrel_types::Interval;

use crate::subscription::DEFAULT_SUB_CAPACITY;

/// Tuning knobs for a [`crate::Db`]. The defaults are the paper's design
/// points; the alternatives exist for the ablation experiments.
#[derive(Debug, Clone, Copy)]
pub struct DbOptions {
    /// Pool CQs whose lowered shapes agree into one slice store per shape
    /// (§2.2 "Jellybean processing"); off, every lowered CQ gets a private
    /// store. Ablated by experiment E3.
    pub sharing: bool,
    /// Keep the window state of every plan that lowers on a slice store
    /// (delta processing instead of per-window re-evaluation); off, every
    /// CQ re-evaluates over a store of raw rows — the reference path the
    /// equivalence suites and the `experiments ivm` baseline compare against.
    pub ivm: bool,
    /// Snapshot policy for table reads inside CQs (window consistency, §4).
    /// Ablated by experiment E8.
    pub consistency: ConsistencyMode,
    /// WAL durability for durable databases.
    pub sync: SyncMode,
    /// Out-of-order slack per stream (µs). 0 enforces strict CQTIME order;
    /// positive values insert a reorder buffer.
    pub slack: Interval,
    /// Max undelivered window results per subscription; a slow poller past
    /// this bound loses its oldest windows instead of growing memory.
    pub sub_queue_capacity: usize,
    /// Number of execution shards. `0` (the default) gives every base
    /// stream its own shard, so ingest on distinct streams never contends;
    /// `N > 0` fixes N shard domains and assigns streams round-robin
    /// (`with_shards(1)` is the single-lock ablation baseline). The WAL
    /// commit-domain count follows it ([`DbOptions::resolved_wal_shards`]).
    pub shards: usize,
    /// Worker threads for closed-window plan evaluation. `None` (the
    /// default) sizes from the host's parallelism; `Some(0)` evaluates
    /// inline on the ingesting thread (the serial ablation baseline).
    pub pool_workers: Option<usize>,
    /// Cross-CQ standing-state budget in bytes. `None` (the default)
    /// admits any plan the Level-1 check accepts; `Some(cap)` admits a
    /// CQ only if its conservative byte bound fits alongside the bounds
    /// of every CQ already running — plans whose state cannot be
    /// byte-bounded (arrival-rate-dependent windows) are rejected
    /// outright under a budget.
    pub state_budget_bytes: Option<u64>,
}

impl Default for DbOptions {
    fn default() -> DbOptions {
        DbOptions {
            sharing: true,
            ivm: true,
            consistency: ConsistencyMode::WindowBoundary,
            sync: SyncMode::Flush,
            slack: 0,
            sub_queue_capacity: DEFAULT_SUB_CAPACITY,
            shards: 0,
            pool_workers: None,
            state_budget_bytes: None,
        }
    }
}

impl DbOptions {
    /// Disable store pooling: private slice stores (ablation baseline).
    pub fn without_sharing(mut self) -> DbOptions {
        self.sharing = false;
        self
    }

    /// Disable slice stores altogether (the reference path: every window
    /// close re-evaluates the full plan, whatever `sharing` says).
    pub fn without_ivm(mut self) -> DbOptions {
        self.ivm = false;
        self
    }

    /// Set the out-of-order slack.
    pub fn with_slack(mut self, slack: Interval) -> DbOptions {
        self.slack = slack;
        self
    }

    /// Set the consistency mode.
    pub fn with_consistency(mut self, mode: ConsistencyMode) -> DbOptions {
        self.consistency = mode;
        self
    }

    /// Set the WAL sync mode.
    pub fn with_sync(mut self, sync: SyncMode) -> DbOptions {
        self.sync = sync;
        self
    }

    /// Bound each subscription's undelivered-results queue.
    pub fn with_sub_queue(mut self, capacity: usize) -> DbOptions {
        self.sub_queue_capacity = capacity;
        self
    }

    /// Fix the number of execution shards, and with it the number of WAL
    /// logs (`1` = the single-lock, single-log baseline; `0` = one shard
    /// per stream).
    pub fn with_shards(mut self, shards: usize) -> DbOptions {
        self.shards = shards;
        self
    }

    /// Fix the window-evaluation worker count (`0` = evaluate inline).
    pub fn with_pool_workers(mut self, workers: usize) -> DbOptions {
        self.pool_workers = Some(workers);
        self
    }

    /// Cap the summed standing-state bound of all running CQs at
    /// `bytes` (see [`DbOptions::state_budget_bytes`]).
    pub fn with_state_budget(mut self, bytes: u64) -> DbOptions {
        self.state_budget_bytes = Some(bytes);
        self
    }

    /// The number of WAL commit domains (`wal-<k>.log` files with
    /// independent fsyncs, DESIGN.md §13): the execution-shard count when
    /// fixed, else the host's parallelism — capped at 8 (per-log fsyncs
    /// stop paying for themselves well before the file-descriptor cost
    /// does). `with_shards(1)` is the single-log baseline.
    pub fn resolved_wal_shards(&self) -> usize {
        if self.shards > 0 {
            return self.shards.min(8);
        }
        std::thread::available_parallelism()
            .map(|n| n.get().clamp(1, 8))
            .unwrap_or(1)
    }

    /// The effective worker-pool size: the configured count, or a small
    /// host-derived default (never more than 4 — window evaluation shares
    /// the box with ingest threads).
    pub fn resolved_pool_workers(&self) -> usize {
        match self.pool_workers {
            Some(n) => n,
            None => std::thread::available_parallelism()
                .map(|n| n.get().saturating_sub(1).clamp(1, 4))
                .unwrap_or(1),
        }
    }
}
