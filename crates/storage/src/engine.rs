//! The storage engine: transactions + catalog + WAL + checkpoints.
//!
//! [`StorageEngine`] is the durable half of the stream-relational system.
//! It owns the transaction manager, the table catalog, the write-ahead log
//! and checkpointing. Everything above it (snapshot queries, channels,
//! Active Tables) goes through this API, so stored data really is "simply
//! streaming data that has been entered into persistent structures" (§2.3).

use std::collections::HashMap;
use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};
use streamrel_obs::{Counter, Gauge, Histogram, Registry};
use streamrel_types::{Error, Result, Row, Schema};

use crate::catalog::{Catalog, NamedIndex, SchemaRef, TableMeta};
use crate::codec::{self, Reader};
use crate::crc::crc32;
use crate::heap::TupleId;
use crate::index::{IndexKey, OrderedIndex};
use crate::io::{Io, StdIo};
use crate::txn::{Snapshot, TxnId, TxnManager, TxnStatus, FROZEN_XID};
use crate::wal::{self, replay_bytes, Wal, WalRecord};

pub use crate::wal::SyncMode;

const CHECKPOINT_FILE: &str = "checkpoint.dat";
const CHECKPOINT_MAGIC: &[u8; 8] = b"SRCHKPT2";

fn conflict(table: u32, slot: u64) -> Error {
    let tid = TupleId { table, slot };
    Error::TxnAborted(format!("write-write conflict or missing tuple at {tid:?}"))
}

/// Index every version of `meta`'s heap holding a row — visibility is
/// checked at read time — under `columns`, and attach the index as `name`.
fn build_index(meta: &TableMeta, name: &str, columns: &[impl AsRef<str>]) -> Result<()> {
    let cols = columns.iter().map(|c| meta.schema.index_of(c.as_ref()));
    let index = OrderedIndex::new(cols.collect::<Result<_>>()?);
    meta.heap.for_each_row(|slot, row| index.insert(row, slot));
    let name = name.to_string();
    meta.indexes
        .write()
        .push(Arc::new(NamedIndex { name, index }));
    Ok(())
}

/// Log file name for commit domain `shard` (DESIGN.md §13).
fn wal_file(shard: usize) -> String {
    format!("wal-{shard}.log")
}

/// Counters exposed for tests, benchmarks and EXPERIMENTS.md tables.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// WAL records appended since open.
    pub wal_records: u64,
    /// Transactions committed.
    pub commits: u64,
    /// Transactions aborted.
    pub aborts: u64,
    /// Rows inserted.
    pub inserts: u64,
    /// Rows deleted.
    pub deletes: u64,
    /// WAL records replayed at open (recovery work).
    pub replayed: u64,
}

/// [`EngineStats`] as the engine keeps it: lock-free counters, bumped
/// once per batch.
#[derive(Default)]
struct StatCells {
    wal_records: Counter,
    commits: Counter,
    aborts: Counter,
    inserts: Counter,
    deletes: Counter,
    replayed: Counter,
}

/// Group-commit coordination for one commit domain (DESIGN.md §13).
///
/// Commits batch into one append+fsync: whichever committer finds no
/// leader active becomes the leader, fsyncs everything appended so far,
/// then publishes the covered LSN; followers block only until
/// `durable_lsn` reaches their commit's LSN.
struct GroupState {
    /// Highest LSN known durable in this domain's log.
    durable_lsn: u64,
    /// A leader is currently between "claimed leadership" and "published
    /// its fsync result". At most one per domain.
    leader_active: bool,
    /// Commit LSNs appended but not yet covered by a published fsync;
    /// the leader counts how many one fsync absorbed (batch size).
    pending: Vec<u64>,
}

/// One commit domain: an independent WAL file plus its group-commit
/// state and per-shard instruments.
struct WalShard {
    wal: Mutex<Wal>,
    group: Mutex<GroupState>,
    group_cv: Condvar,
    /// `storage.commit_us.shard<k>`.
    commit_hist: Arc<Histogram>,
    /// `storage.wal_sync_us.shard<k>`.
    sync_hist: Arc<Histogram>,
    /// `wal.poisoned.shard<k>`: 0 = healthy, 1 = this domain's log
    /// refused further writes after a failed flush/fsync.
    poisoned_gauge: Arc<Gauge>,
}

impl WalShard {
    fn new(shard: usize, wal: Wal, durable_lsn: u64, metrics: &Registry) -> WalShard {
        WalShard {
            wal: Mutex::named("storage.wal", wal),
            group: Mutex::named(
                "storage.group",
                GroupState {
                    durable_lsn,
                    leader_active: false,
                    pending: Vec::new(),
                },
            ),
            group_cv: Condvar::new(),
            commit_hist: metrics.histogram(&format!("storage.commit_us.shard{shard}")),
            sync_hist: metrics.histogram(&format!("storage.wal_sync_us.shard{shard}")),
            poisoned_gauge: metrics.gauge(&format!("wal.poisoned.shard{shard}")),
        }
    }
}

// Commit paths append to the WAL, then coordinate through the
// group-commit state (streamrel-lint enforces the order per function).
// The group leader releases `wal` before taking `group` to publish its
// result, so followers can keep appending while an fsync is in flight.
// The unnamed per-table locks nest outside these and in one order: a
// heap's lock, then an index tree's or the transaction tables'; a batch
// insert holds its heap's write lock across the `wal` append so the
// batch's slot run and its log record are assigned together.
/// The durable storage engine.
pub struct StorageEngine {
    dir: Option<PathBuf>,
    txns: TxnManager,
    catalog: Catalog,
    /// One WAL per commit domain (`wal-<k>.log`); empty for in-memory
    /// engines. Transactions are routed to a domain at `begin_on` and
    /// confined to it, so commit atomicity stays a single-file property
    /// and domains fsync independently.
    wals: Vec<WalShard>,
    /// All file traffic (WAL, checkpoints) goes through this seam; the
    /// fault-injection harness substitutes a simulated disk here.
    io: Arc<dyn Io>,
    /// Checkpoint generation. Bumped by every successful checkpoint and
    /// stamped into the checkpoint body and the first record of every
    /// log so recovery can tell a stale log (crash between checkpoint
    /// rename and that log's reset) from a live one. See DESIGN.md §10/§13.
    epoch: AtomicU64,
    /// Global log sequence number allocator. Every record in every log
    /// carries one; recovery merges all logs in LSN order to rebuild a
    /// single serial history. Allocated under the destination log's
    /// `wal` lock so each log's `last_lsn` always covers its buffer.
    next_lsn: AtomicU64,
    stats: StatCells,
    /// [`TxnManager::aborts`] as of the last full [`StorageEngine::vacuum`]
    /// pass: while it still matches, no aborted insert can be waiting.
    swept_aborts: AtomicU64,
    /// `storage.replace.versions_scanned`: versions visited by
    /// [`StorageEngine::delete_all_visible`].
    replace_scanned: Arc<Counter>,
    /// `storage.reclaim.versions_visited`: versions visited by
    /// [`StorageEngine::reclaim`] and [`StorageEngine::vacuum`].
    reclaim_visited: Arc<Counter>,
    /// Engine-wide metrics registry; every layer above shares this handle.
    metrics: Arc<Registry>,
    /// Cached instruments so the hot commit path skips the registry map.
    commit_hist: Arc<Histogram>,
    wal_sync_hist: Arc<Histogram>,
    /// `wal.group_commit.batch_size`: commits absorbed per fsync.
    batch_hist: Arc<Histogram>,
    /// Count of poisoned commit domains (0 = all healthy). Per-domain
    /// state lives in `wal.poisoned.shard<k>`. Registered at open so the
    /// row is always present in `streamrel_metrics`.
    wal_poisoned: Arc<Gauge>,
}

impl StorageEngine {
    /// Open (or create) an engine rooted at `dir` with the default
    /// [`SyncMode::Flush`] durability.
    pub fn open(dir: impl Into<PathBuf>) -> Result<StorageEngine> {
        Self::open_with(dir, SyncMode::Flush)
    }

    /// Open with an explicit durability mode. Loads the checkpoint (if any)
    /// and replays the WAL: this is crash recovery for durable state.
    pub fn open_with(dir: impl Into<PathBuf>, sync: SyncMode) -> Result<StorageEngine> {
        Self::open_with_io(dir, sync, StdIo::shared())
    }

    /// Open against an explicit [`Io`] implementation with a single
    /// commit domain. This is the seam the crash-recovery torture
    /// harness uses: `streamrel-faults` passes a simulated disk here and
    /// crashes the engine at every I/O operation in turn (DESIGN.md §10).
    /// Production paths use [`StdIo`].
    pub fn open_with_io(
        dir: impl Into<PathBuf>,
        sync: SyncMode,
        io: Arc<dyn Io>,
    ) -> Result<StorageEngine> {
        Self::open_with_opts(dir, sync, io, 1)
    }

    /// Open with `wal_shards` independent commit domains (`wal-<k>.log`
    /// each; clamped to at least 1). Recovery reads *every* log present
    /// on disk — including logs beyond `wal_shards` left by a previous
    /// open with more domains — discards per-log stale ones (epoch older
    /// than the checkpoint's expectation for that shard), then merges the
    /// survivors' records in global-LSN order into one serial replay.
    pub fn open_with_opts(
        dir: impl Into<PathBuf>,
        sync: SyncMode,
        io: Arc<dyn Io>,
        wal_shards: usize,
    ) -> Result<StorageEngine> {
        let wal_shards = wal_shards.max(1);
        let dir = dir.into();
        io.create_dir_all(&dir)?;
        let engine = StorageEngine::bare(Some(dir.clone()), io.clone());
        io.bind_metrics(&engine.metrics);
        let shard_epochs = engine.load_checkpoint(&dir.join(CHECKPOINT_FILE))?;
        let ck_epoch = engine.epoch.load(Ordering::SeqCst);
        let expected_epoch = |shard: usize| -> u64 {
            shard_epochs
                .iter()
                .find(|(s, _)| *s == shard as u32)
                .map(|(_, e)| *e)
                .unwrap_or(ck_epoch)
        };
        // Probe every log on disk. Logs below `wal_shards` always get a
        // handle; logs beyond it (a previous open used more domains) are
        // still replayed — their records are part of durable state until
        // a checkpoint with a newer epoch supersedes them.
        let mut merged: Vec<(u64, WalRecord)> = Vec::new();
        let mut needs_stamp = vec![false; wal_shards];
        let mut k = 0usize;
        loop {
            let path = dir.join(wal_file(k));
            let bytes = match io.read(&path)? {
                Some(b) => b,
                None if k < wal_shards => {
                    // Fresh log: stamp the current epoch below so the
                    // next recovery can trust its contents.
                    needs_stamp[k] = true;
                    k += 1;
                    continue;
                }
                None => break,
            };
            let (records, valid_len) = replay_bytes(&bytes);
            // Every log opens with an `Epoch` stamp. One older than the
            // checkpoint's expectation for this shard means the crash
            // landed between the checkpoint rename and this log's reset:
            // those records are already in the checkpoint, and replaying
            // them over its renumbered heap slots would corrupt the
            // image — discard *this log only*.
            let log_epoch = match records.first() {
                Some((_, WalRecord::Epoch { epoch, .. })) => *epoch,
                _ => 0,
            };
            let stale = !records.is_empty() && log_epoch < expected_epoch(k);
            if stale {
                io.truncate(&path, 0)?;
                if k < wal_shards {
                    needs_stamp[k] = true;
                }
            } else {
                if (valid_len as usize) < bytes.len() {
                    // Torn tail from a mid-append crash: cut it so fresh
                    // appends do not land behind a CRC-invalid region.
                    io.truncate(&path, valid_len)?;
                }
                if records.is_empty() && k < wal_shards {
                    needs_stamp[k] = true;
                }
                merged.extend(records);
            }
            k += 1;
        }
        // Stitch the consistent cut: one serial history in LSN order.
        // A transaction is confined to one log, so a commit record either
        // survived (all its records sort before it) or the whole txn
        // replays as in-flight → aborted.
        merged.sort_by_key(|(lsn, _)| *lsn);
        let max_lsn = merged.last().map(|(lsn, _)| *lsn).unwrap_or(0);
        engine.next_lsn.store(max_lsn + 1, Ordering::SeqCst);
        let records: Vec<WalRecord> = merged.into_iter().map(|(_, rec)| rec).collect();
        let replayed = engine.apply_wal_records(records)?;
        engine.stats.replayed.add(replayed);
        // Replay rebuilt every version the logs held; keep (and index)
        // only what a snapshot can still see.
        engine.vacuum();
        engine.rebuild_indexes();
        let mut wals = Vec::with_capacity(wal_shards);
        for (shard, stamp) in needs_stamp.iter().copied().enumerate() {
            let mut wal = Wal::open_with_io(dir.join(wal_file(shard)), sync, io.clone())?;
            if stamp {
                engine.stamp_epoch(&mut wal, ck_epoch, shard)?;
            }
            let durable = wal.last_lsn();
            wals.push(WalShard::new(shard, wal, durable, &engine.metrics));
        }
        let engine = StorageEngine { wals, ..engine };
        Ok(engine)
    }

    /// Stamp `epoch` as the first record of commit domain `shard`'s fresh
    /// log, durably; returns its LSN.
    fn stamp_epoch(&self, wal: &mut Wal, epoch: u64, shard: usize) -> Result<u64> {
        let lsn = self.next_lsn.fetch_add(1, Ordering::SeqCst);
        let shard = shard as u32;
        wal.append(lsn, &WalRecord::Epoch { epoch, shard })?;
        wal.sync_commit()?;
        Ok(lsn)
    }

    /// A purely in-memory engine (no WAL, no checkpoints). Used by
    /// baselines and benchmarks where durability is not under test.
    pub fn in_memory() -> StorageEngine {
        StorageEngine::bare(None, StdIo::shared())
    }

    /// An engine with no tables and no logs yet.
    fn bare(dir: Option<PathBuf>, io: Arc<dyn Io>) -> StorageEngine {
        let metrics = Arc::new(Registry::default());
        StorageEngine {
            dir,
            txns: TxnManager::new(),
            catalog: Catalog::new(),
            wals: Vec::new(),
            io,
            epoch: AtomicU64::new(0),
            next_lsn: AtomicU64::new(1),
            stats: StatCells::default(),
            swept_aborts: AtomicU64::new(0),
            replace_scanned: metrics.counter("storage.replace.versions_scanned"),
            reclaim_visited: metrics.counter("storage.reclaim.versions_visited"),
            commit_hist: metrics.histogram("storage.commit_us"),
            wal_sync_hist: metrics.histogram("storage.wal_sync_us"),
            batch_hist: metrics.histogram("wal.group_commit.batch_size"),
            wal_poisoned: metrics.gauge("wal.poisoned"),
            metrics,
        }
    }

    /// Engine statistics snapshot.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            wal_records: self.stats.wal_records.get(),
            commits: self.stats.commits.get(),
            aborts: self.stats.aborts.get(),
            inserts: self.stats.inserts.get(),
            deletes: self.stats.deletes.get(),
            replayed: self.stats.replayed.get(),
        }
    }

    /// The engine-wide metrics registry. Layers above the storage engine
    /// register their own instruments here so one `SELECT * FROM
    /// streamrel_metrics` sees the whole stack.
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.metrics
    }

    /// The transaction manager (CQ layer pins snapshots through this).
    pub fn txns(&self) -> &TxnManager {
        &self.txns
    }

    /// Number of commit domains (0 for in-memory engines).
    pub fn wal_shards(&self) -> usize {
        self.wals.len()
    }

    /// Clamp a requested commit domain to the configured range.
    fn clamp_domain(&self, domain: usize) -> usize {
        if self.wals.is_empty() {
            0
        } else {
            domain % self.wals.len()
        }
    }

    /// Scope a poison error to the commit domain it came from, so one
    /// shard's failure never reads as whole-engine poisoning.
    fn scope_err(&self, domain: usize, e: Error) -> Error {
        match e {
            Error::WalPoisoned(m) if !m.starts_with("shard ") => {
                Error::WalPoisoned(format!("shard {domain}: {m}"))
            }
            other => other,
        }
    }

    /// Settle the poison gauges after domain `domain` refused a write:
    /// its per-shard gauge goes to 1, the global gauge becomes the count
    /// of poisoned domains. Call without holding `wal`/`group` locks.
    fn note_poisoned(&self, domain: usize) {
        if let Some(shard) = self.wals.get(domain) {
            shard.poisoned_gauge.set(1);
        }
        let n = self
            .wals
            .iter()
            .filter(|s| s.poisoned_gauge.get() != 0)
            .count();
        self.wal_poisoned.set(n as i64);
    }

    /// Append one record to domain `domain` under a fresh global LSN.
    /// Returns the record's LSN (0 for in-memory engines).
    fn log_on(&self, domain: usize, rec: &WalRecord) -> Result<u64> {
        let commit = matches!(rec, WalRecord::Commit { .. });
        self.log_with(domain, commit, |b| rec.encode_into(b))
    }

    /// [`StorageEngine::log_on`] for a payload written by `encode`.
    /// The LSN is allocated under the log's lock so `Wal::last_lsn`
    /// always covers every record buffered in that log — a group-commit
    /// leader's fsync target can never miss an allocated-but-unappended
    /// commit.
    fn log_with(
        &self,
        domain: usize,
        commit: bool,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> Result<u64> {
        let Some(shard) = self.wals.get(domain) else {
            return Ok(0);
        };
        let mut w = shard.wal.lock();
        let lsn = self.next_lsn.fetch_add(1, Ordering::SeqCst);
        if let Err(e) = w.append_with(lsn, encode) {
            let poisoned = w.is_poisoned();
            drop(w);
            if poisoned {
                self.note_poisoned(domain);
            }
            return Err(self.scope_err(domain, e));
        }
        if commit {
            // Register for batch accounting while still holding `wal`:
            // no leader can capture a target covering this commit before
            // it is pending, so every commit lands in exactly one batch
            // and `sum(wal.group_commit.batch_size) == commits`.
            shard.group.lock().pending.push(lsn);
        }
        drop(w);
        self.stats.wal_records.add(1);
        Ok(lsn)
    }

    /// Block until `lsn` is durable in `domain`, joining (or leading) a
    /// group commit. See DESIGN.md §13 for the leader/follower protocol.
    fn sync_domain_to(&self, domain: usize, lsn: u64) -> Result<()> {
        let Some(shard) = self.wals.get(domain) else {
            return Ok(());
        };
        loop {
            let mut g = shard.group.lock();
            if g.durable_lsn >= lsn {
                return Ok(());
            }
            if !g.leader_active {
                g.leader_active = true;
                drop(g);
                // Lead one fsync round, then loop to re-check coverage
                // (our own append is always ≤ the target we synced, so
                // a successful round exits on the next iteration).
                self.group_lead(domain, shard)?;
            } else {
                shard.group_cv.wait(&mut g);
            }
        }
    }

    /// One leader round of the group-commit protocol: capture the log's
    /// append horizon, fsync it, publish the covered LSN and wake
    /// followers. On failure the domain is poisoned and every waiter
    /// eventually observes the error by leading its own failed round.
    fn group_lead(&self, domain: usize, shard: &WalShard) -> Result<()> {
        let start = Instant::now();
        let mut w = shard.wal.lock();
        let target = w.last_lsn();
        let res = w.sync_commit();
        let poisoned = w.is_poisoned();
        drop(w);
        let mut g = shard.group.lock();
        g.leader_active = false;
        match res {
            Ok(()) => {
                if target > g.durable_lsn {
                    g.durable_lsn = target;
                }
                let batch = g.pending.iter().filter(|&&l| l <= target).count();
                g.pending.retain(|&l| l > target);
                shard.group_cv.notify_all();
                drop(g);
                self.wal_sync_hist.observe_from(start);
                shard.sync_hist.observe_from(start);
                if batch > 0 {
                    self.batch_hist.observe(batch as u64);
                }
                Ok(())
            }
            Err(e) => {
                shard.group_cv.notify_all();
                drop(g);
                if poisoned {
                    self.note_poisoned(domain);
                }
                Err(self.scope_err(domain, e))
            }
        }
    }

    /// Flush/fsync every commit domain's log per its sync mode. Tests and
    /// the checkpoint quiesce path use this to force buffered records to
    /// the OS before a simulated crash.
    pub fn sync_all_wals(&self) -> Result<()> {
        for (domain, shard) in self.wals.iter().enumerate() {
            let mut w = shard.wal.lock();
            if let Err(e) = w.sync_commit() {
                let poisoned = w.is_poisoned();
                drop(w);
                if poisoned {
                    self.note_poisoned(domain);
                }
                return Err(self.scope_err(domain, e));
            }
        }
        Ok(())
    }

    /// True once any commit domain has refused writes after a failed
    /// flush/fsync. The `wal.poisoned` gauge in [`StorageEngine::metrics`]
    /// carries the count of poisoned domains; `wal.poisoned.shard<k>`
    /// the per-domain state.
    pub fn wal_poisoned(&self) -> bool {
        self.wal_poisoned.get() != 0
    }

    /// Commit domains currently refusing writes.
    pub fn wal_poisoned_shards(&self) -> Vec<usize> {
        self.wals
            .iter()
            .enumerate()
            .filter(|(_, s)| s.poisoned_gauge.get() != 0)
            .map(|(k, _)| k)
            .collect()
    }

    // ---- transactions ----------------------------------------------------

    /// Begin a transaction on commit domain 0.
    pub fn begin(&self) -> Result<TxnId> {
        self.begin_on(0)
    }

    /// Begin a transaction pinned to commit domain `domain` (clamped to
    /// the configured range). Every record of the transaction — Begin,
    /// DML, Commit/Abort — lands in that domain's log, so commit
    /// atomicity never spans files.
    pub fn begin_on(&self, domain: usize) -> Result<TxnId> {
        let domain = self.clamp_domain(domain);
        let xid = self.txns.begin_on(domain as u32);
        self.log_on(domain, &WalRecord::Begin { xid })?;
        Ok(xid)
    }

    /// Commit: logs the commit record, makes it durable (joining the
    /// domain's group commit), then flips status.
    pub fn commit(&self, xid: TxnId) -> Result<()> {
        let start = Instant::now();
        let domain = self.txns.domain_of(xid) as usize;
        let lsn = self.log_on(domain, &WalRecord::Commit { xid })?;
        self.sync_domain_to(domain, lsn)?;
        self.txns.commit(xid);
        self.stats.commits.add(1);
        self.commit_hist.observe_from(start);
        if let Some(shard) = self.wals.get(domain) {
            shard.commit_hist.observe_from(start);
        }
        Ok(())
    }

    /// Abort: the transaction's inserts/deletes become permanently
    /// invisible (no physical undo needed under MVCC).
    pub fn abort(&self, xid: TxnId) -> Result<()> {
        let domain = self.txns.domain_of(xid) as usize;
        self.log_on(domain, &WalRecord::Abort { xid })?;
        self.txns.abort(xid);
        self.stats.aborts.add(1);
        Ok(())
    }

    /// Fresh read-only snapshot.
    pub fn snapshot(&self) -> Snapshot {
        self.txns.snapshot(None)
    }

    /// Snapshot owned by `xid` (sees its own writes).
    pub fn snapshot_for(&self, xid: TxnId) -> Snapshot {
        self.txns.snapshot(Some(xid))
    }

    /// Run `f` inside a fresh transaction, committing on `Ok` and aborting
    /// on `Err`.
    pub fn with_txn<T>(&self, f: impl FnOnce(TxnId) -> Result<T>) -> Result<T> {
        self.with_txn_on(0, f)
    }

    /// [`StorageEngine::with_txn`] pinned to commit domain `domain` —
    /// the shard→log routing used by sharded ingest so concurrent
    /// streams fsync independent logs.
    pub fn with_txn_on<T>(&self, domain: usize, f: impl FnOnce(TxnId) -> Result<T>) -> Result<T> {
        let xid = self.begin_on(domain)?;
        self.finish(xid, f(xid))
    }

    /// End `xid` by its work's `outcome`: commit on `Ok`, abort on `Err`.
    pub fn finish<T>(&self, xid: TxnId, outcome: Result<T>) -> Result<T> {
        match outcome {
            Ok(v) => {
                self.commit(xid)?;
                Ok(v)
            }
            Err(e) => {
                self.abort(xid)?;
                Err(e)
            }
        }
    }

    // ---- DDL ---------------------------------------------------------------

    /// Create a table; DDL is logged to domain 0 and durable immediately,
    /// so any later DML referencing the table carries a strictly larger
    /// LSN and replays after it.
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<u32> {
        let meta = self.catalog.create_table(name, schema)?;
        let lsn = self.log_on(
            0,
            &WalRecord::CreateTable {
                id: meta.id,
                name: meta.name.clone(),
                schema: (*meta.schema).clone(),
            },
        )?;
        self.sync_domain_to(0, lsn)?;
        Ok(meta.id)
    }

    /// Drop a table and its indexes.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        let meta = self.catalog.table_by_name(name)?;
        self.catalog.drop_table(meta.id)?;
        let lsn = self.log_on(0, &WalRecord::DropTable { id: meta.id })?;
        self.sync_domain_to(0, lsn)?;
        Ok(())
    }

    /// Table id by name.
    pub fn table_id(&self, name: &str) -> Result<u32> {
        Ok(self.catalog.table_by_name(name)?.id)
    }

    /// True if the table exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.catalog.has_table(name)
    }

    /// Table metadata by name.
    pub fn table(&self, name: &str) -> Result<Arc<TableMeta>> {
        self.catalog.table_by_name(name)
    }

    /// Table metadata by id.
    pub fn table_by_id(&self, id: u32) -> Result<Arc<TableMeta>> {
        self.catalog.table_by_id(id)
    }

    /// Schema of a table.
    pub fn table_schema(&self, name: &str) -> Result<SchemaRef> {
        Ok(self.catalog.table_by_name(name)?.schema.clone())
    }

    /// All table names, id-ordered.
    pub fn table_names(&self) -> Vec<String> {
        self.catalog
            .all_tables()
            .iter()
            .map(|t| t.name.clone())
            .collect()
    }

    /// Create a named index over `columns` of `table`. The index definition
    /// persists via the catalog KV area; entries are built from the current
    /// heap and maintained on every subsequent insert.
    pub fn create_index(&self, index_name: &str, table: &str, columns: &[String]) -> Result<()> {
        let meta = self.catalog.table_by_name(table)?;
        let indexes = meta.indexes.read();
        if indexes
            .iter()
            .any(|i| i.name.eq_ignore_ascii_case(index_name))
        {
            return Err(Error::catalog(format!(
                "index `{index_name}` already exists"
            )));
        }
        drop(indexes);
        build_index(&meta, index_name, columns)?;
        let spec = format!("{}|{}", table, columns.join(","));
        self.catalog_put(&format!("__index.{index_name}"), &spec)?;
        Ok(())
    }

    /// Drop a named index (searching every table). Returns false if no
    /// such index exists.
    pub fn drop_index(&self, index_name: &str) -> Result<bool> {
        let mut dropped = false;
        for meta in self.catalog.all_tables() {
            let mut indexes = meta.indexes.write();
            let before = indexes.len();
            indexes.retain(|i| !i.name.eq_ignore_ascii_case(index_name));
            if indexes.len() != before {
                dropped = true;
            }
        }
        if dropped {
            self.catalog_del(&format!("__index.{index_name}"))?;
        }
        Ok(dropped)
    }

    /// Find an index on `table` whose first key column is `column`.
    pub fn index_on(&self, table: &str, column: &str) -> Option<Arc<NamedIndex>> {
        let meta = self.catalog.table_by_name(table).ok()?;
        let col = meta.schema.index_of(column).ok()?;
        let indexes = meta.indexes.read();
        indexes
            .iter()
            .find(|i| i.index.key_columns().first() == Some(&col))
            .cloned()
    }

    // ---- DML ---------------------------------------------------------------

    /// Insert a row (coerced against the schema) under transaction `xid`:
    /// the batch of one.
    pub fn insert(&self, xid: TxnId, table_id: u32, row: Row) -> Result<TupleId> {
        let slot = self.insert_batch(xid, table_id, vec![row])?;
        Ok(TupleId {
            table: table_id,
            slot,
        })
    }

    /// Insert many rows under transaction `xid`: one heap append, one log
    /// record. Returns how many.
    pub fn insert_many(&self, xid: TxnId, table_id: u32, rows: Vec<Row>) -> Result<u64> {
        let n = rows.len() as u64;
        self.insert_batch(xid, table_id, rows)?;
        Ok(n)
    }

    /// Coerce `rows` in place, then — under the heap's write lock — give
    /// them a contiguous slot run, log them as one `InsertMany` record and
    /// append them; the indexes take the run under one lock each. Returns
    /// the first slot.
    fn insert_batch(&self, xid: TxnId, table_id: u32, mut rows: Vec<Row>) -> Result<u64> {
        let meta = self.catalog.table_by_id(table_id)?;
        for row in &mut rows {
            *row = meta.schema.coerce_row(std::mem::take(row))?;
        }
        let n = rows.len() as u64;
        let domain = self.txns.domain_of(xid) as usize;
        let indexes = meta.indexes.read();
        let first = meta.heap.append(xid, rows, |first, rows| {
            self.log_with(domain, false, |b| {
                wal::encode_insert_many(b, xid, table_id, first, rows)
            })?;
            // Indexed from the rows the heap is about to own: entries are
            // version-oblivious and readers re-check each slot's visibility.
            for idx in indexes.iter() {
                idx.index.insert_run(rows, first);
            }
            Ok::<_, Error>(())
        })?;
        self.stats.inserts.add(n);
        Ok(first)
    }

    /// Delete the tuple at `tid`, erroring on a write-write conflict with a
    /// concurrent (non-aborted) deleter: the batch of one.
    pub fn delete(&self, xid: TxnId, tid: TupleId) -> Result<()> {
        let meta = self.catalog.table_by_id(tid.table)?;
        let ok = meta
            .heap
            .delete(xid, tid.slot, |other| self.txns.is_aborted(other));
        if !ok {
            return Err(conflict(tid.table, tid.slot));
        }
        self.log_deletes(xid, tid.table, vec![tid.slot])
    }

    /// Delete every row visible to `xid`'s snapshot (used by REPLACE
    /// channels and `DELETE FROM t` without a predicate): the versions are
    /// stamped under one heap lock and logged as one `DeleteMany` record
    /// naming exactly those slots.
    pub fn delete_all_visible(&self, xid: TxnId, table_id: u32) -> Result<u64> {
        let meta = self.catalog.table_by_id(table_id)?;
        let snap = self.snapshot_for(xid);
        let (slots, visited) = meta
            .heap
            .delete_visible(xid, &snap, &|x| self.txns.is_aborted(x))
            .map_err(|slot| conflict(table_id, slot))?;
        self.replace_scanned.add(visited as u64);
        let n = slots.len() as u64;
        if n > 0 {
            self.log_deletes(xid, table_id, slots)?;
        }
        Ok(n)
    }

    /// Log delete stamps already applied to the heap.
    fn log_deletes(&self, xid: TxnId, table: u32, slots: Vec<u64>) -> Result<()> {
        let n = slots.len() as u64;
        let domain = self.txns.domain_of(xid) as usize;
        self.log_on(domain, &WalRecord::DeleteMany { xid, table, slots })?;
        self.stats.deletes.add(n);
        Ok(())
    }

    /// Non-MVCC bulk truncate (requires the caller to ensure quiescence;
    /// used by explicit `TRUNCATE` DDL, not by channels).
    pub fn truncate(&self, table_id: u32) -> Result<()> {
        let meta = self.catalog.table_by_id(table_id)?;
        meta.heap.truncate();
        for idx in meta.indexes.read().iter() {
            idx.index.clear();
        }
        let lsn = self.log_on(
            0,
            &WalRecord::Truncate {
                table: table_id,
                xid: 0,
            },
        )?;
        self.sync_domain_to(0, lsn)?;
        Ok(())
    }

    /// `(table id, write count)` of table `name` as `snap` reads it, when
    /// every writer had finished before it (`HeapTable::settled_writes`).
    /// Ids, and so stamps, are never reused.
    pub fn table_stamp(&self, name: &str, snap: &Snapshot) -> Option<(u32, u64)> {
        let meta = self.catalog.table_by_name(name).ok()?;
        Some((meta.id, meta.heap.settled_writes(snap)?))
    }

    /// Scan all rows of a table visible to `snap`.
    pub fn scan(&self, table_id: u32, snap: &Snapshot) -> Result<Vec<(TupleId, Row)>> {
        let meta = self.catalog.table_by_id(table_id)?;
        Ok(meta.heap.scan(snap, &|x| self.txns.is_aborted(x)))
    }

    /// Visit visible rows; callback returns false to stop (LIMIT pushdown).
    pub fn scan_visit(
        &self,
        table_id: u32,
        snap: &Snapshot,
        f: impl FnMut(TupleId, &Row) -> bool,
    ) -> Result<()> {
        let meta = self.catalog.table_by_id(table_id)?;
        meta.heap
            .for_each_visible(snap, &|x| self.txns.is_aborted(x), f);
        Ok(())
    }

    /// Equality lookup through a named index, returning visible rows.
    pub fn index_lookup(
        &self,
        table: &str,
        index: &NamedIndex,
        key: &IndexKey,
        snap: &Snapshot,
    ) -> Result<Vec<(TupleId, Row)>> {
        let key = || Bound::Included(key.clone());
        self.index_range(table, index, key(), key(), snap)
    }

    /// Range lookup through a named index: the visible rows whose key
    /// lies within the bounds, in heap (= scan) order. Index entries are
    /// version-oblivious, so visibility is re-checked per slot.
    pub fn index_range(
        &self,
        table: &str,
        index: &NamedIndex,
        lo: Bound<IndexKey>,
        hi: Bound<IndexKey>,
        snap: &Snapshot,
    ) -> Result<Vec<(TupleId, Row)>> {
        let meta = self.catalog.table_by_name(table)?;
        let mut slots = index.index.range(lo, hi);
        slots.sort_unstable();
        let aborted = |x: TxnId| self.txns.is_aborted(x);
        Ok(meta.heap.get_many(&slots, snap, &aborted))
    }

    /// Reclaim the versions of one table that no live or future snapshot
    /// can see: deleted by a transaction committed below the oldest live
    /// snapshot's horizon. Channels call this after a REPLACE commit, so
    /// the table holds its live generation plus whatever a pinned reader
    /// still sees. Costs the dead versions, not the table; returns how
    /// many were reclaimed.
    pub fn reclaim(&self, table_id: u32) -> Result<usize> {
        let meta = self.catalog.table_by_id(table_id)?;
        Ok(self.reclaim_heap(&meta, self.txns.horizon(), false))
    }

    /// Reclaim dead tuple versions across all tables; returns count. The
    /// same routine as [`StorageEngine::reclaim`] over every table that
    /// holds a delete-stamped version, plus one full pass (which also
    /// finds aborted inserts) if a transaction aborted since the last one:
    /// with neither, it visits no version.
    pub fn vacuum(&self) -> usize {
        let aborts = self.txns.aborts();
        let full = self.swept_aborts.swap(aborts, Ordering::SeqCst) != aborts;
        let horizon = self.txns.horizon();
        let tables = self.catalog.all_tables();
        tables
            .iter()
            .map(|meta| self.reclaim_heap(meta, horizon, full))
            .sum()
    }

    fn reclaim_heap(&self, meta: &TableMeta, horizon: TxnId, full: bool) -> usize {
        let aborted = |x: TxnId| self.txns.is_aborted(x);
        let (reclaimed, visited) = meta.heap.reclaim(horizon, &aborted, full);
        self.reclaim_visited.add(visited as u64);
        if !reclaimed.is_empty() {
            for idx in meta.indexes.read().iter() {
                idx.index.remove_many(&reclaimed);
            }
        }
        reclaimed.len()
    }

    // ---- catalog KV (upper-layer DDL persistence) --------------------------

    /// Persist an upper-layer catalog entry (stream/view/channel DDL text).
    pub fn catalog_put(&self, key: &str, value: &str) -> Result<()> {
        self.catalog.kv_put(key, value);
        let lsn = self.log_on(
            0,
            &WalRecord::CatalogPut {
                key: key.to_string(),
                value: value.to_string(),
            },
        )?;
        self.sync_domain_to(0, lsn)?;
        Ok(())
    }

    /// Persist a catalog entry atomically with transaction `xid`: on
    /// replay the entry applies only if `xid` committed. The in-memory
    /// value is set immediately (the caller commits or the whole operation
    /// fails). Durability rides on the transaction's commit sync.
    pub fn catalog_put_txn(&self, xid: TxnId, key: &str, value: &str) -> Result<()> {
        self.catalog.kv_put(key, value);
        self.log_on(
            self.txns.domain_of(xid) as usize,
            &WalRecord::CatalogPutTxn {
                xid,
                key: key.to_string(),
                value: value.to_string(),
            },
        )?;
        Ok(())
    }

    /// Read an upper-layer catalog entry.
    pub fn catalog_get(&self, key: &str) -> Option<String> {
        self.catalog.kv_get(key)
    }

    /// Delete an upper-layer catalog entry.
    pub fn catalog_del(&self, key: &str) -> Result<bool> {
        let existed = self.catalog.kv_del(key);
        if existed {
            let lsn = self.log_on(
                0,
                &WalRecord::CatalogDel {
                    key: key.to_string(),
                },
            )?;
            self.sync_domain_to(0, lsn)?;
        }
        Ok(existed)
    }

    /// Prefix scan over upper-layer catalog entries.
    pub fn catalog_scan(&self, prefix: &str) -> Vec<(String, String)> {
        self.catalog.kv_scan(prefix)
    }

    // ---- checkpoint / recovery ---------------------------------------------

    /// Write a checkpoint capturing all committed state, then truncate the
    /// WAL. Requires no in-flight transactions (callers quiesce first).
    pub fn checkpoint(&self) -> Result<()> {
        let dir = match &self.dir {
            Some(d) => d.clone(),
            None => return Err(Error::storage("in-memory engine cannot checkpoint")),
        };
        if self.txns.active_count() > 0 {
            return Err(Error::storage(
                "checkpoint requires quiescence (active transactions exist)",
            ));
        }
        let snap = self.snapshot();
        let aborted = |x: TxnId| self.txns.is_aborted(x);
        let new_epoch = self.epoch.load(Ordering::SeqCst) + 1;

        let mut body = Vec::new();
        let tables = self.catalog.all_tables();
        codec::put_u64(&mut body, new_epoch);
        // Per-shard epoch expectations: every live commit domain is
        // about to be reset to `new_epoch`. A crash between the rename
        // below and an individual log's reset leaves that log stamped
        // with the *old* epoch — recovery discards exactly those.
        codec::put_u32(&mut body, self.wals.len() as u32);
        for shard in 0..self.wals.len() {
            codec::put_u32(&mut body, shard as u32);
            codec::put_u64(&mut body, new_epoch);
        }
        codec::put_u64(&mut body, snap.xmax);
        codec::put_u32(&mut body, tables.len() as u32);
        let mut images: Vec<(Arc<TableMeta>, Vec<Row>)> = Vec::with_capacity(tables.len());
        for meta in &tables {
            codec::put_u32(&mut body, meta.id);
            codec::put_str(&mut body, &meta.name);
            codec::encode_schema(&mut body, &meta.schema);
            let rows: Vec<Row> = meta
                .heap
                .scan(&snap, &aborted)
                .into_iter()
                .map(|(_, row)| row)
                .collect();
            codec::put_u64(&mut body, rows.len() as u64);
            for row in &rows {
                codec::encode_row(&mut body, row);
            }
            images.push((meta.clone(), rows));
        }
        let kv = self.catalog.kv_scan("");
        codec::put_u32(&mut body, kv.len() as u32);
        for (k, v) in kv {
            codec::put_str(&mut body, &k);
            codec::put_str(&mut body, &v);
        }

        let mut full = Vec::with_capacity(20 + body.len());
        full.extend_from_slice(CHECKPOINT_MAGIC);
        full.extend_from_slice(&(body.len() as u64).to_le_bytes());
        full.extend_from_slice(&crc32(&body).to_le_bytes());
        full.extend_from_slice(&body);
        self.io.replace(&dir.join(CHECKPOINT_FILE), &full)?;
        self.epoch.store(new_epoch, Ordering::SeqCst);
        // Renumber the live heap to exactly the image recovery will load
        // (compact slots 0..n, frozen visibility): records logged after
        // this point reference slots by the *image's* numbering, so a
        // later recovery's checkpoint-load + replay stays aligned. Safe
        // because checkpointing requires quiescence (no snapshots pinned,
        // no transactions in flight).
        for (meta, rows) in images {
            meta.heap.truncate();
            for idx in meta.indexes.read().iter() {
                idx.index.clear();
                idx.index.insert_run(&rows, 0);
            }
            meta.heap
                .append(FROZEN_XID, rows, |_, _| Ok::<_, Error>(()))?;
        }
        for (shard_idx, shard) in self.wals.iter().enumerate() {
            let mut w = shard.wal.lock();
            // A crash between the atomic replace above and this reset
            // leaves this pre-checkpoint log on disk; its older epoch
            // stamp tells the next recovery to discard it (and only it)
            // rather than replay already-checkpointed records over
            // renumbered slots.
            w.reset()?;
            let lsn = self.stamp_epoch(&mut w, new_epoch, shard_idx)?;
            drop(w);
            let mut g = shard.group.lock();
            g.durable_lsn = g.durable_lsn.max(lsn);
            g.pending.clear();
        }
        Ok(())
    }

    /// Load the checkpoint (if any); returns the per-shard epoch table
    /// recovery uses to judge each log's staleness independently.
    fn load_checkpoint(&self, path: &Path) -> Result<Vec<(u32, u64)>> {
        let data = match self.io.read(path)? {
            Some(d) => d,
            None => return Ok(Vec::new()),
        };
        if data.len() < 20 || &data[..8] != CHECKPOINT_MAGIC {
            return Err(Error::storage("bad checkpoint header"));
        }
        let len = data[8..16]
            .try_into()
            .map(u64::from_le_bytes)
            .map_err(|_| Error::storage("bad checkpoint header"))? as usize;
        let crc = data[16..20]
            .try_into()
            .map(u32::from_le_bytes)
            .map_err(|_| Error::storage("bad checkpoint header"))?;
        if data.len() < 20 + len {
            return Err(Error::storage("truncated checkpoint"));
        }
        let body = &data[20..20 + len];
        if crc32(body) != crc {
            return Err(Error::storage("checkpoint crc mismatch"));
        }
        let mut r = Reader::new(body);
        self.epoch.store(r.u64()?, Ordering::SeqCst);
        let nshards = r.u32()?;
        let mut shard_epochs = Vec::with_capacity(nshards as usize);
        for _ in 0..nshards {
            let shard = r.u32()?;
            let epoch = r.u64()?;
            shard_epochs.push((shard, epoch));
        }
        let next_xid = r.u64()?;
        let ntables = r.u32()?;
        for _ in 0..ntables {
            let id = r.u32()?;
            let name = r.str()?;
            let schema = codec::decode_schema(&mut r)?;
            let meta = self.catalog.create_table_with_id(id, &name, schema)?;
            let nrows = r.u64()?;
            let mut rows = Vec::new();
            for _ in 0..nrows {
                rows.push(codec::decode_row(&mut r)?);
            }
            meta.heap
                .append(FROZEN_XID, rows, |_, _| Ok::<_, Error>(()))?;
        }
        let nkv = r.u32()?;
        for _ in 0..nkv {
            let k = r.str()?;
            let v = r.str()?;
            self.catalog.kv_put(&k, &v);
        }
        self.txns.bump_next_xid(next_xid);
        Ok(shard_epochs)
    }

    fn apply_wal_records(&self, records: Vec<WalRecord>) -> Result<u64> {
        let n = records.len() as u64;
        let mut seen: HashMap<TxnId, TxnStatus> = HashMap::new();
        let mut max_xid = 0;
        // Transactional catalog entries apply only if their transaction
        // committed; buffer them until outcomes are known.
        let mut txn_puts: Vec<(TxnId, String, String)> = Vec::new();
        for rec in records {
            match rec {
                WalRecord::Begin { xid } => {
                    seen.insert(xid, TxnStatus::InProgress);
                    max_xid = max_xid.max(xid);
                }
                // The per-row form replays as a batch of one.
                WalRecord::Insert {
                    xid,
                    table,
                    slot,
                    row,
                } => {
                    self.replay_insert(xid, table, slot, vec![row]);
                    max_xid = max_xid.max(xid);
                }
                WalRecord::InsertMany {
                    xid,
                    table,
                    first_slot,
                    rows,
                } => {
                    self.replay_insert(xid, table, first_slot, rows);
                    max_xid = max_xid.max(xid);
                }
                WalRecord::DeleteMany { xid, table, slots } => {
                    self.replay_delete(xid, table, &slots);
                    max_xid = max_xid.max(xid);
                }
                WalRecord::Commit { xid } => {
                    seen.insert(xid, TxnStatus::Committed);
                }
                WalRecord::Abort { xid } => {
                    seen.insert(xid, TxnStatus::Aborted);
                }
                WalRecord::CreateTable { id, name, schema } => {
                    self.catalog.create_table_with_id(id, &name, schema)?;
                }
                WalRecord::DropTable { id } => {
                    let _ = self.catalog.drop_table(id);
                }
                WalRecord::Truncate { table, .. } => {
                    if let Ok(meta) = self.catalog.table_by_id(table) {
                        meta.heap.truncate();
                    }
                }
                WalRecord::CatalogPut { key, value } => {
                    self.catalog.kv_put(&key, &value);
                }
                WalRecord::CatalogPutTxn { xid, key, value } => {
                    max_xid = max_xid.max(xid);
                    txn_puts.push((xid, key, value));
                }
                WalRecord::CatalogDel { key } => {
                    self.catalog.kv_del(&key);
                }
                // Epoch stamps only gate staleness at open; no state.
                WalRecord::Epoch { .. } => {}
            }
        }
        for (xid, key, value) in txn_puts {
            let committed = seen.get(&xid) == Some(&TxnStatus::Committed);
            if committed {
                self.catalog.kv_put(&key, &value);
            }
        }
        // Transactions with no commit record crashed in flight: aborted.
        for (xid, status) in seen {
            if status == TxnStatus::Committed {
                self.txns.commit(xid);
            } else {
                self.txns.abort(xid);
            }
        }
        self.txns.bump_next_xid(max_xid + 1);
        Ok(n)
    }

    fn replay_insert(&self, xid: TxnId, table: u32, first_slot: u64, rows: Vec<Row>) {
        if let Ok(meta) = self.catalog.table_by_id(table) {
            meta.heap.insert_at(xid, first_slot, rows);
        }
    }

    fn replay_delete(&self, xid: TxnId, table: u32, slots: &[u64]) {
        if let Ok(meta) = self.catalog.table_by_id(table) {
            for &slot in slots {
                meta.heap.delete(xid, slot, |_| true);
            }
        }
    }

    /// Build every persisted index over the recovered heaps; one naming a
    /// table or column that no longer exists is skipped.
    fn rebuild_indexes(&self) {
        for (key, spec) in self.catalog.kv_scan("__index.") {
            let Some((table, cols)) = spec.split_once('|') else {
                continue;
            };
            if let Ok(meta) = self.catalog.table_by_name(table) {
                let cols: Vec<&str> = cols.split(',').collect();
                let _ = build_index(&meta, &key["__index.".len()..], &cols);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamrel_types::{row, Column, DataType};

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "streamrel-engine-test-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn schema() -> Schema {
        Schema::new(vec![
            Column::not_null("url", DataType::Text),
            Column::new("hits", DataType::Int),
        ])
        .unwrap()
    }

    fn visible_rows(e: &StorageEngine, table: &str) -> Vec<Row> {
        let id = e.table_id(table).unwrap();
        let snap = e.snapshot();
        let mut rows: Vec<Row> = e
            .scan(id, &snap)
            .unwrap()
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        rows.sort_by(|a, b| a[0].sort_cmp(&b[0]));
        rows
    }

    #[test]
    fn insert_commit_scan() {
        let e = StorageEngine::in_memory();
        let t = e.create_table("urls", schema()).unwrap();
        e.with_txn(|xid| {
            e.insert(xid, t, row!["/a", 1i64])?;
            e.insert(xid, t, row!["/b", 2i64])?;
            Ok(())
        })
        .unwrap();
        assert_eq!(
            visible_rows(&e, "urls"),
            vec![row!["/a", 1i64], row!["/b", 2i64]]
        );
    }

    #[test]
    fn failed_txn_leaves_no_trace() {
        let e = StorageEngine::in_memory();
        let t = e.create_table("urls", schema()).unwrap();
        let r: Result<()> = e.with_txn(|xid| {
            e.insert(xid, t, row!["/a", 1i64])?;
            Err(Error::analysis("boom"))
        });
        assert!(r.is_err());
        assert!(visible_rows(&e, "urls").is_empty());
        assert_eq!(e.stats().aborts, 1);
    }

    #[test]
    fn durable_recovery_replays_wal() {
        let dir = tmpdir("recovery");
        {
            let e = StorageEngine::open(&dir).unwrap();
            let t = e.create_table("urls", schema()).unwrap();
            e.with_txn(|xid| {
                e.insert(xid, t, row!["/a", 1i64])?;
                e.insert(xid, t, row!["/b", 2i64])
            })
            .unwrap();
            // Uncommitted transaction, lost on "crash".
            let xid = e.begin().unwrap();
            e.insert(xid, t, row!["/ghost", 9i64]).unwrap();
            e.sync_all_wals().unwrap();
            // Drop without commit = crash.
        }
        let e = StorageEngine::open(&dir).unwrap();
        assert_eq!(
            visible_rows(&e, "urls"),
            vec![row!["/a", 1i64], row!["/b", 2i64]],
            "committed rows survive, in-flight insert is aborted"
        );
        assert!(e.stats().replayed > 0);
    }

    #[test]
    fn checkpoint_then_recover() {
        let dir = tmpdir("checkpoint");
        {
            let e = StorageEngine::open(&dir).unwrap();
            let t = e.create_table("urls", schema()).unwrap();
            e.with_txn(|xid| e.insert(xid, t, row!["/a", 1i64]))
                .unwrap();
            e.checkpoint().unwrap();
            // Post-checkpoint WAL traffic.
            e.with_txn(|xid| e.insert(xid, t, row!["/b", 2i64]))
                .unwrap();
        }
        let e = StorageEngine::open(&dir).unwrap();
        assert_eq!(
            visible_rows(&e, "urls"),
            vec![row!["/a", 1i64], row!["/b", 2i64]]
        );
        // DDL after recovery still works (id allocator restored).
        e.create_table("more", schema()).unwrap();
    }

    #[test]
    fn checkpoint_requires_quiescence() {
        let dir = tmpdir("quiesce");
        let e = StorageEngine::open(&dir).unwrap();
        let _t = e.create_table("urls", schema()).unwrap();
        let xid = e.begin().unwrap();
        assert!(e.checkpoint().is_err());
        e.commit(xid).unwrap();
        e.checkpoint().unwrap();
    }

    #[test]
    fn transactional_catalog_put_respects_commit_outcome() {
        let dir = tmpdir("cputx");
        {
            let e = StorageEngine::open(&dir).unwrap();
            let t = e.create_table("arch", schema()).unwrap();
            // Committed: rows + watermark atomically.
            e.with_txn(|x| {
                e.insert(x, t, row!["/a", 1i64])?;
                e.catalog_put_txn(x, "cq_watermark.q", "100")
            })
            .unwrap();
            // In-flight at crash: rows + watermark must BOTH vanish.
            let x = e.begin().unwrap();
            e.insert(x, t, row!["/b", 2i64]).unwrap();
            e.catalog_put_txn(x, "cq_watermark.q", "200").unwrap();
            e.sync_all_wals().unwrap();
            // Crash without commit.
        }
        let e = StorageEngine::open(&dir).unwrap();
        assert_eq!(
            e.catalog_get("cq_watermark.q").as_deref(),
            Some("100"),
            "uncommitted watermark must not survive"
        );
        assert_eq!(visible_rows(&e, "arch"), vec![row!["/a", 1i64]]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn catalog_kv_survives_restart() {
        let dir = tmpdir("kv");
        {
            let e = StorageEngine::open(&dir).unwrap();
            e.catalog_put("stream.url_stream", "CREATE STREAM url_stream")
                .unwrap();
            e.catalog_put("view.v", "CREATE VIEW v").unwrap();
            e.catalog_del("view.v").unwrap();
        }
        let e = StorageEngine::open(&dir).unwrap();
        assert_eq!(
            e.catalog_get("stream.url_stream").as_deref(),
            Some("CREATE STREAM url_stream")
        );
        assert!(e.catalog_get("view.v").is_none());
    }

    #[test]
    fn index_accelerated_lookup_respects_visibility() {
        let e = StorageEngine::in_memory();
        let t = e.create_table("urls", schema()).unwrap();
        e.create_index("urls_by_url", "urls", &["url".into()])
            .unwrap();
        e.with_txn(|xid| {
            e.insert(xid, t, row!["/a", 1i64])?;
            e.insert(xid, t, row!["/a", 2i64])?;
            e.insert(xid, t, row!["/b", 3i64])
        })
        .unwrap();
        // Uncommitted row should not appear in index lookups.
        let pending = e.begin().unwrap();
        e.insert(pending, t, row!["/a", 99i64]).unwrap();
        let idx = e.index_on("urls", "url").unwrap();
        let snap = e.snapshot();
        let hits = e
            .index_lookup("urls", &idx, &IndexKey(row!["/a"]), &snap)
            .unwrap();
        assert_eq!(hits.len(), 2);
        e.commit(pending).unwrap();
        let snap = e.snapshot();
        let hits = e
            .index_lookup("urls", &idx, &IndexKey(row!["/a"]), &snap)
            .unwrap();
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn index_survives_restart() {
        let dir = tmpdir("idxrec");
        {
            let e = StorageEngine::open(&dir).unwrap();
            let t = e.create_table("urls", schema()).unwrap();
            e.create_index("by_url", "urls", &["url".into()]).unwrap();
            e.with_txn(|xid| e.insert(xid, t, row!["/a", 1i64]))
                .unwrap();
        }
        let e = StorageEngine::open(&dir).unwrap();
        let idx = e.index_on("urls", "url").expect("index rebuilt");
        let snap = e.snapshot();
        let hits = e
            .index_lookup("urls", &idx, &IndexKey(row!["/a"]), &snap)
            .unwrap();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn delete_all_visible_and_vacuum() {
        let e = StorageEngine::in_memory();
        let t = e.create_table("urls", schema()).unwrap();
        e.with_txn(|xid| {
            e.insert(xid, t, row!["/a", 1i64])?;
            e.insert(xid, t, row!["/b", 2i64])
        })
        .unwrap();
        e.with_txn(|xid| {
            let n = e.delete_all_visible(xid, t)?;
            assert_eq!(n, 2);
            e.insert(xid, t, row!["/c", 3i64])
        })
        .unwrap();
        assert_eq!(visible_rows(&e, "urls"), vec![row!["/c", 3i64]]);
        let reclaimed = e.vacuum();
        assert_eq!(reclaimed, 2);
        assert_eq!(visible_rows(&e, "urls"), vec![row!["/c", 3i64]]);
        assert_eq!(e.table_by_id(t).unwrap().heap.version_count(), 1);
    }

    /// Regression: `VACUUM` used to take `next_xid` as its horizon and
    /// reclaim the generation a pinned snapshot still saw, leaving the pin
    /// with neither generation.
    #[test]
    fn vacuum_keeps_what_a_pinned_snapshot_sees() {
        let e = StorageEngine::in_memory();
        let t = e.create_table("urls", schema()).unwrap();
        e.with_txn(|x| e.insert(x, t, row!["/a", 1i64])).unwrap();
        let pinned = e.snapshot();
        e.with_txn(|x| {
            e.delete_all_visible(x, t)?;
            e.insert(x, t, row!["/a", 2i64])
        })
        .unwrap();
        let seen = |snap: &Snapshot| -> Vec<Row> {
            let rows = e.scan(t, snap).unwrap();
            rows.into_iter().map(|(_, r)| r).collect()
        };
        assert_eq!(seen(&pinned), vec![row!["/a", 1i64]]);
        assert_eq!(e.vacuum(), 0, "the pin holds generation 1");
        assert_eq!(e.reclaim(t).unwrap(), 0);
        assert_eq!(seen(&pinned), vec![row!["/a", 1i64]], "still whole");
        drop(pinned);
        assert_eq!(e.reclaim(t).unwrap(), 1, "released with the pin");
        assert_eq!(seen(&e.snapshot()), vec![row!["/a", 2i64]]);
    }

    #[test]
    fn steady_state_vacuum_visits_no_version() {
        let e = StorageEngine::in_memory();
        let big = e.create_table("archive", schema()).unwrap();
        let cur = e.create_table("current", schema()).unwrap();
        let visited = e.metrics().counter("storage.reclaim.versions_visited");
        let rows: Vec<Row> = (0..500i64).map(|i| row![format!("/{i}"), i]).collect();
        e.with_txn(|x| e.insert_many(x, big, rows)).unwrap();
        for gen in 0..10i64 {
            e.with_txn(|x| {
                e.delete_all_visible(x, cur)?;
                e.insert_many(x, cur, vec![row!["/a", gen], row!["/b", gen]])
            })
            .unwrap();
            e.reclaim(cur).unwrap();
        }
        assert_eq!(e.table_by_id(cur).unwrap().heap.version_count(), 2);
        let before = visited.get();
        assert_eq!(e.vacuum(), 0);
        assert_eq!(visited.get(), before, "no delete, no abort: no-op");
        // An abort buys exactly one full pass.
        let _ = e.with_txn(|x| {
            e.insert(x, big, row!["/ghost", 0i64])?;
            Err::<(), _>(Error::analysis("boom"))
        });
        assert_eq!(e.vacuum(), 1, "the aborted insert");
        assert_eq!(visited.get() - before, 503);
        assert_eq!(e.vacuum(), 0);
        assert_eq!(visited.get() - before, 503, "and then nothing again");
    }

    #[test]
    fn batches_are_one_record_and_replay_with_per_row_inserts() {
        let dir = tmpdir("batch");
        let t;
        {
            let e = StorageEngine::open(&dir).unwrap();
            t = e.create_table("urls", schema()).unwrap();
            let before = e.stats().wal_records;
            e.with_txn(|x| {
                e.insert_many(
                    x,
                    t,
                    vec![row!["/a", 1i64], row!["/b", 2i64], row!["/c", 3i64]],
                )?;
                e.delete_all_visible(x, t)?;
                e.insert_many(x, t, vec![row!["/d", 4i64]])
            })
            .unwrap();
            assert_eq!(
                e.stats().wal_records - before,
                5,
                "begin, insert-many, delete-many, insert-many, commit"
            );
            assert_eq!((e.stats().inserts, e.stats().deletes), (4, 3));
        }
        // A log tail that logs its insert per row: a batch of one.
        let mut wal = Wal::open(dir.join(wal_file(0)), SyncMode::Flush).unwrap();
        let old = [
            WalRecord::Begin { xid: 50 },
            WalRecord::DeleteMany {
                xid: 50,
                table: t,
                slots: vec![3],
            },
            WalRecord::Insert {
                xid: 50,
                table: t,
                slot: 4,
                row: row!["/e", 5i64],
            },
            WalRecord::Commit { xid: 50 },
        ];
        for (i, rec) in old.iter().enumerate() {
            wal.append(1_000 + i as u64, rec).unwrap();
        }
        drop(wal);
        let e = StorageEngine::open(&dir).unwrap();
        assert_eq!(visible_rows(&e, "urls"), vec![row!["/e", 5i64]]);
        let heap = &e.table_by_id(t).unwrap().heap;
        assert_eq!(
            heap.version_count(),
            1,
            "recovery keeps the live generation only"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn index_range_reads_only_visible_rows_in_scan_order() {
        let e = StorageEngine::in_memory();
        let t = e.create_table("urls", schema()).unwrap();
        e.create_index("by_hits", "urls", &["hits".into()]).unwrap();
        let rows: Vec<Row> = (0..10i64).rev().map(|i| row![format!("/{i}"), i]).collect();
        e.with_txn(|x| e.insert_many(x, t, rows)).unwrap();
        let pending = e.begin().unwrap();
        e.insert(pending, t, row!["/ghost", 5i64]).unwrap();
        let idx = e.index_on("urls", "hits").unwrap();
        let key = |v: i64| IndexKey(row![v]);
        let hits = e
            .index_range(
                "urls",
                &idx,
                Bound::Excluded(key(3)),
                Bound::Included(key(6)),
                &e.snapshot(),
            )
            .unwrap();
        let got: Vec<Row> = hits.into_iter().map(|(_, r)| r).collect();
        // Heap order, like a scan — not key order.
        assert_eq!(
            got,
            vec![row!["/6", 6i64], row!["/5", 5i64], row!["/4", 4i64]]
        );
    }

    #[test]
    fn schema_enforced_on_insert() {
        let e = StorageEngine::in_memory();
        let t = e.create_table("urls", schema()).unwrap();
        let r = e.with_txn(|xid| e.insert(xid, t, row![1i64, "/a"]));
        assert!(r.is_err(), "swapped column types must be rejected");
        let r = e.with_txn(|xid| {
            e.insert(
                xid,
                t,
                vec![streamrel_types::Value::Null, streamrel_types::Value::Int(1)],
            )
        });
        assert!(r.is_err(), "NOT NULL violated");
    }

    #[test]
    fn truncate_clears() {
        let e = StorageEngine::in_memory();
        let t = e.create_table("urls", schema()).unwrap();
        e.with_txn(|xid| e.insert(xid, t, row!["/a", 1i64]))
            .unwrap();
        e.truncate(t).unwrap();
        assert!(visible_rows(&e, "urls").is_empty());
    }

    #[test]
    fn equal_table_stamps_mean_equal_scans() {
        let e = StorageEngine::in_memory();
        let t = e.create_table("urls", schema()).unwrap();
        let stamp = |e: &StorageEngine| e.table_stamp("urls", &e.snapshot());
        let before = stamp(&e).unwrap();
        let tid = e
            .with_txn(|xid| e.insert(xid, t, row!["/a", 1i64]))
            .unwrap();
        let inserted = stamp(&e).unwrap();
        assert_ne!(inserted, before, "an insert moves the stamp");
        // Reads in between change nothing: same stamp, same rows.
        let (a, rows_a) = (e.snapshot(), visible_rows(&e, "urls"));
        let (b, rows_b) = (e.snapshot(), visible_rows(&e, "urls"));
        assert_eq!(e.table_stamp("urls", &a), e.table_stamp("urls", &b));
        assert_eq!(rows_a, rows_b);
        e.with_txn(|xid| e.delete(xid, tid)).unwrap();
        let deleted = stamp(&e).unwrap();
        assert_ne!(deleted, inserted, "a delete moves the stamp");
        e.with_txn(|xid| e.insert(xid, t, row!["/b", 2i64]))
            .unwrap();
        let refilled = stamp(&e).unwrap();
        e.truncate(t).unwrap();
        assert_ne!(stamp(&e).unwrap(), refilled, "a truncate moves the stamp");
        assert_eq!(stamp(&e).unwrap().0, t);
        assert_eq!(e.table_stamp("nope", &e.snapshot()), None);
    }

    #[test]
    fn an_in_flight_or_aborted_writer_never_matches_a_stamp() {
        let e = StorageEngine::in_memory();
        let t = e.create_table("urls", schema()).unwrap();
        e.with_txn(|xid| e.insert(xid, t, row!["/a", 1i64]))
            .unwrap();
        let settled = e.table_stamp("urls", &e.snapshot()).unwrap();
        // A writer in flight: the snapshot taken meanwhile cannot tell
        // what the table will hold, so it gets no stamp at all.
        let x = e.begin().unwrap();
        e.insert(x, t, row!["/b", 2i64]).unwrap();
        let during = e.snapshot();
        assert_eq!(e.table_stamp("urls", &during), None);
        e.commit(x).unwrap();
        assert_eq!(
            e.table_stamp("urls", &during),
            None,
            "taken before it finished"
        );
        let committed = e.table_stamp("urls", &e.snapshot()).unwrap();
        assert_ne!(committed, settled);
        // An aborted writer: no stamp while it runs, a new one after.
        let y = e.begin().unwrap();
        e.insert(y, t, row!["/c", 3i64]).unwrap();
        assert_eq!(e.table_stamp("urls", &e.snapshot()), None);
        e.abort(y).unwrap();
        let after = e.table_stamp("urls", &e.snapshot()).unwrap();
        assert_ne!(after, committed, "what was written moved the version");
        assert_eq!(visible_rows(&e, "urls").len(), 2);
        // A snapshot owned by a writer sees its own rows: never stamped.
        let z = e.begin().unwrap();
        e.insert(z, t, row!["/d", 4i64]).unwrap();
        assert_eq!(e.table_stamp("urls", &e.snapshot_for(z)), None);
        e.abort(z).unwrap();
    }

    #[test]
    fn a_re_created_table_gets_a_new_stamp() {
        let e = StorageEngine::in_memory();
        let stamp = |e: &StorageEngine| e.table_stamp("urls", &e.snapshot()).unwrap();
        e.create_table("urls", schema()).unwrap();
        let first = stamp(&e);
        e.drop_table("urls").unwrap();
        e.create_table("urls", schema()).unwrap();
        assert_ne!(stamp(&e), first, "same name, same (empty) rows, new table");
    }

    #[test]
    fn multi_domain_recovery_merges_logs_in_lsn_order() {
        let dir = tmpdir("multilog");
        {
            let e =
                StorageEngine::open_with_opts(&dir, SyncMode::Flush, StdIo::shared(), 3).unwrap();
            assert_eq!(e.wal_shards(), 3);
            let t = e.create_table("urls", schema()).unwrap();
            // Insert on domain 1, then delete the same tuple from a txn
            // on domain 2: without the global-LSN merge the delete could
            // replay before its insert and silently vanish.
            let tid = e
                .with_txn_on(1, |xid| e.insert(xid, t, row!["/a", 1i64]))
                .unwrap();
            e.with_txn_on(2, |xid| e.delete(xid, tid)).unwrap();
            e.with_txn_on(0, |xid| e.insert(xid, t, row!["/b", 2i64]))
                .unwrap();
        }
        for k in 0..3 {
            assert!(dir.join(format!("wal-{k}.log")).exists(), "log {k} exists");
        }
        let e = StorageEngine::open_with_opts(&dir, SyncMode::Flush, StdIo::shared(), 3).unwrap();
        assert_eq!(
            visible_rows(&e, "urls"),
            vec![row!["/b", 2i64]],
            "cross-domain delete replays after its insert"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopening_with_another_domain_count_keeps_all_records() {
        let open = |dir: &PathBuf, n| {
            StorageEngine::open_with_opts(dir, SyncMode::Flush, StdIo::shared(), n).unwrap()
        };
        // Written on three domains; reopened on fewer, as many and more.
        for reopen in [1, 3, 5] {
            let dir = tmpdir(&format!("reshard-{reopen}"));
            {
                let e = open(&dir, 3);
                let t = e.create_table("urls", schema()).unwrap();
                for d in 0..3 {
                    e.with_txn_on(d, |xid| e.insert(xid, t, row![format!("/{d}"), d as i64]))
                        .unwrap();
                }
            }
            // Every log on disk is replayed, whatever the count: records
            // in logs beyond it stay there until a checkpoint stales them.
            let e = open(&dir, reopen);
            assert_eq!(e.wal_shards(), reopen);
            assert_eq!(visible_rows(&e, "urls").len(), 3, "reopened on {reopen}");
            e.checkpoint().unwrap();
            drop(e);
            // After the checkpoint the logs beyond the count carry a stale
            // epoch; a fresh open discards them without losing state.
            let e = open(&dir, reopen);
            assert_eq!(visible_rows(&e, "urls").len(), 3, "reopened on {reopen}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn group_commit_batches_concurrent_commits() {
        let dir = tmpdir("group");
        let e = Arc::new(
            StorageEngine::open_with_opts(&dir, SyncMode::Fsync, StdIo::shared(), 2).unwrap(),
        );
        let t = e.create_table("urls", schema()).unwrap();
        let threads: Vec<_> = (0..4)
            .map(|i| {
                let e = Arc::clone(&e);
                std::thread::spawn(move || {
                    for j in 0..25 {
                        e.with_txn_on(i % 2, |xid| {
                            e.insert(xid, t, row![format!("/{i}/{j}"), j as i64])
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        assert_eq!(e.stats().commits, 100);
        assert_eq!(visible_rows(&e, "urls").len(), 100);
        // Conservation: every acked commit was covered by exactly one
        // group-commit batch (registered under the wal lock, so no commit
        // can slip between a leader's target and its batch accounting).
        let batches = e.metrics().histogram("wal.group_commit.batch_size");
        assert_eq!(
            batches.sum(),
            100,
            "every acked commit is counted in exactly one batch"
        );
        assert!(batches.count() <= 100, "batches never exceed commits");
        drop(e);
        let e = StorageEngine::open_with_opts(&dir, SyncMode::Fsync, StdIo::shared(), 2).unwrap();
        assert_eq!(
            visible_rows(&e, "urls").len(),
            100,
            "every acked commit survives recovery"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drop_table_gone_after_restart() {
        let dir = tmpdir("drop");
        {
            let e = StorageEngine::open(&dir).unwrap();
            e.create_table("urls", schema()).unwrap();
            e.create_table("keep", schema()).unwrap();
            e.drop_table("urls").unwrap();
        }
        let e = StorageEngine::open(&dir).unwrap();
        assert!(!e.has_table("urls"));
        assert!(e.has_table("keep"));
    }
}
