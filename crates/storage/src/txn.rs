//! Transactions, snapshots and MVCC visibility.
//!
//! streamrel uses PostgreSQL-style multi-version concurrency control: every
//! tuple version carries the inserting transaction id (`xmin`) and, once
//! deleted, the deleting transaction id (`xmax`). A [`Snapshot`] captures
//! which transactions were committed at a point in time; visibility checks
//! compare tuple stamps against the snapshot.
//!
//! The paper leans on exactly this mechanism (§4): "the isolation mechanisms
//! of some RDBMSs, such as multi-version concurrency control, can be extended
//! to provide continuous isolation semantics" — the CQ layer pins one
//! snapshot per window to get *window consistency*.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use parking_lot::RwLock;

/// Transaction identifier. Zero is reserved ("no transaction"); one is the
/// frozen bootstrap transaction that owns checkpointed tuples.
pub type TxnId = u64;

/// The id stamped on tuples restored from a checkpoint: always visible.
pub const FROZEN_XID: TxnId = 1;

/// Commit state of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnStatus {
    /// Still running.
    InProgress,
    /// Durably committed.
    Committed,
    /// Rolled back (its tuples are invisible to everyone).
    Aborted,
}

/// A consistent view of the database at a point in time.
///
/// A transaction `x` is *visible* to the snapshot iff `x` committed before
/// the snapshot was taken: `x < xmax` and `x` was not in the active set and
/// `x` did not later abort.
///
/// A snapshot is also a *pin*: while it (or a clone) lives, the manager
/// that issued it keeps [`TxnManager::horizon`] at or below this
/// snapshot's `min(xmax, oldest active)` — every transaction below that
/// had finished when it was taken — so no version it can see is ever
/// reclaimed. Dropping the last clone releases the pin.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The id of the snapshot-owning transaction, if any (its own writes are
    /// visible to itself).
    pub own_xid: Option<TxnId>,
    /// First unassigned transaction id at snapshot time.
    pub xmax: TxnId,
    /// Transactions in progress at snapshot time.
    pub active: HashSet<TxnId>,
    /// Unregisters the pin on its `Drop`; knows the snapshot's horizon.
    pin: Arc<Pin>,
}

impl Snapshot {
    /// Every transaction below this id had finished when it was taken.
    pub(crate) fn finished_below(&self) -> TxnId {
        self.pin.horizon
    }

    /// Whether transaction `xid`'s effects are visible in this snapshot.
    /// `aborted` answers "did xid abort?" for ids below `xmax`.
    pub fn sees(&self, xid: TxnId, aborted: &dyn Fn(TxnId) -> bool) -> bool {
        if Some(xid) == self.own_xid {
            return true;
        }
        if xid == FROZEN_XID {
            return true;
        }
        if xid >= self.xmax {
            return false;
        }
        if self.active.contains(&xid) {
            return false;
        }
        !aborted(xid)
    }
}

/// One live snapshot's entry in the manager's pin registry; unregisters
/// itself when the last clone of its snapshot drops.
#[derive(Debug)]
struct Pin {
    tables: Arc<RwLock<TxnTables>>,
    /// The snapshot's `min(xmax, oldest active)`.
    horizon: TxnId,
}

impl Drop for Pin {
    fn drop(&mut self) {
        let mut t = self.tables.write();
        if let Some(n) = t.pins.get_mut(&self.horizon) {
            *n -= 1;
            if *n == 0 {
                t.pins.remove(&self.horizon);
            }
        }
    }
}

/// Allocates transaction ids, tracks commit state and registers live
/// snapshots.
///
/// The status map holds only what is *not* committed: in-progress ids and
/// aborted ones (kept forever; they are rare). An absent id below the next
/// id reads as committed, so the map stays bounded however long the
/// engine runs.
pub struct TxnManager {
    inner: Arc<RwLock<TxnTables>>,
}

#[derive(Debug)]
struct TxnTables {
    /// Next id to hand out. Allocated under this lock so `active` and the
    /// allocator are always read consistently (a snapshot or a horizon can
    /// never observe an id that is allocated but not yet active).
    next_xid: TxnId,
    active: HashSet<TxnId>,
    status: HashMap<TxnId, TxnStatus>,
    /// Commit domain (WAL shard) each live transaction logs to. A txn is
    /// confined to one domain for its whole life so its records — and in
    /// particular its Commit — land in a single log, keeping commit
    /// atomicity a single-file property. Entries are dropped on
    /// commit/abort; absent means domain 0.
    domains: HashMap<TxnId, u32>,
    /// Live snapshot pins: horizon → how many snapshots hold it.
    pins: BTreeMap<TxnId, usize>,
    /// Transactions ever marked aborted (live or replayed).
    aborts: u64,
}

impl TxnTables {
    /// `min(next id, oldest active)`: every id below it has finished.
    fn finished_below(&self) -> TxnId {
        let oldest = self.active.iter().copied().min();
        oldest.map_or(self.next_xid, |a| a.min(self.next_xid))
    }
}

impl Default for TxnManager {
    fn default() -> Self {
        Self::new()
    }
}

impl TxnManager {
    /// Fresh manager; first user transaction gets id 2 (1 is frozen).
    pub fn new() -> TxnManager {
        TxnManager {
            inner: Arc::new(RwLock::new(TxnTables {
                next_xid: FROZEN_XID + 1,
                active: HashSet::new(),
                status: HashMap::new(),
                domains: HashMap::new(),
                pins: BTreeMap::new(),
                aborts: 0,
            })),
        }
    }

    /// Begin a transaction: allocate an id and mark it active (domain 0).
    pub fn begin(&self) -> TxnId {
        self.begin_on(0)
    }

    /// Begin a transaction pinned to commit domain (WAL shard) `domain`.
    pub fn begin_on(&self, domain: u32) -> TxnId {
        let mut t = self.inner.write();
        let xid = t.next_xid;
        t.next_xid += 1;
        t.active.insert(xid);
        t.status.insert(xid, TxnStatus::InProgress);
        if domain != 0 {
            t.domains.insert(xid, domain);
        }
        xid
    }

    /// Commit domain `xid` was begun on (0 for unknown/finished ids).
    pub fn domain_of(&self, xid: TxnId) -> u32 {
        self.inner.read().domains.get(&xid).copied().unwrap_or(0)
    }

    /// Mark `xid` committed (live, or replayed during recovery): it
    /// leaves the status map, where absent reads as committed.
    pub fn commit(&self, xid: TxnId) {
        let mut t = self.inner.write();
        t.active.remove(&xid);
        t.status.remove(&xid);
        t.domains.remove(&xid);
    }

    /// Mark `xid` aborted (live, or replayed during recovery).
    pub fn abort(&self, xid: TxnId) {
        let mut t = self.inner.write();
        t.active.remove(&xid);
        t.status.insert(xid, TxnStatus::Aborted);
        t.domains.remove(&xid);
        t.aborts += 1;
    }

    /// Commit state of `xid`: absent ids are committed.
    pub fn status(&self, xid: TxnId) -> TxnStatus {
        let t = self.inner.read();
        t.status.get(&xid).copied().unwrap_or(TxnStatus::Committed)
    }

    /// True if `xid` is known to have aborted.
    pub fn is_aborted(&self, xid: TxnId) -> bool {
        self.status(xid) == TxnStatus::Aborted
    }

    /// Take a snapshot, optionally owned by `own_xid`, and register it as
    /// a pin until its last clone drops.
    pub fn snapshot(&self, own_xid: Option<TxnId>) -> Snapshot {
        let mut t = self.inner.write();
        let horizon = t.finished_below();
        *t.pins.entry(horizon).or_insert(0) += 1;
        Snapshot {
            own_xid,
            xmax: t.next_xid,
            active: t.active.clone(),
            pin: Arc::new(Pin {
                tables: Arc::clone(&self.inner),
                horizon,
            }),
        }
    }

    /// The reclamation horizon: the minimum over live snapshots of
    /// `min(xmax, oldest active)`, capped by the same figure for a snapshot
    /// taken now. A version deleted by a committed transaction below it is
    /// invisible to every live and every future snapshot.
    pub fn horizon(&self) -> TxnId {
        let t = self.inner.read();
        let now = t.finished_below();
        t.pins.keys().next().map_or(now, |&p| p.min(now))
    }

    /// Number of in-progress transactions.
    pub fn active_count(&self) -> usize {
        self.inner.read().active.len()
    }

    /// Entries in the status map (in-progress + aborted ids).
    pub fn status_len(&self) -> usize {
        self.inner.read().status.len()
    }

    /// Transactions ever marked aborted, replayed ones included.
    pub fn aborts(&self) -> u64 {
        self.inner.read().aborts
    }

    /// Restore the id allocator after recovery so new transactions do not
    /// collide with ids replayed from the WAL.
    pub fn bump_next_xid(&self, min_next: TxnId) {
        let mut t = self.inner.write();
        t.next_xid = t.next_xid.max(min_next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_monotonic() {
        let m = TxnManager::new();
        let a = m.begin();
        let b = m.begin();
        assert!(b > a);
        assert!(a > FROZEN_XID);
    }

    #[test]
    fn snapshot_excludes_active_and_later() {
        let m = TxnManager::new();
        let a = m.begin();
        m.commit(a);
        let b = m.begin(); // still active
        let snap = m.snapshot(None);
        let c = m.begin(); // after snapshot
        m.commit(b);
        m.commit(c);
        let aborted = |x: TxnId| m.is_aborted(x);
        assert!(snap.sees(a, &aborted), "committed-before is visible");
        assert!(!snap.sees(b, &aborted), "active-at-snapshot is invisible");
        assert!(!snap.sees(c, &aborted), "started-after is invisible");
    }

    #[test]
    fn own_writes_visible() {
        let m = TxnManager::new();
        let a = m.begin();
        let snap = m.snapshot(Some(a));
        let aborted = |x: TxnId| m.is_aborted(x);
        assert!(snap.sees(a, &aborted));
    }

    #[test]
    fn aborted_never_visible() {
        let m = TxnManager::new();
        let a = m.begin();
        m.abort(a);
        let snap = m.snapshot(None);
        let aborted = |x: TxnId| m.is_aborted(x);
        assert!(!snap.sees(a, &aborted));
    }

    #[test]
    fn frozen_always_visible() {
        let m = TxnManager::new();
        let snap = m.snapshot(None);
        let aborted = |x: TxnId| m.is_aborted(x);
        assert!(snap.sees(FROZEN_XID, &aborted));
    }

    #[test]
    fn bump_is_idempotent_and_monotonic() {
        let m = TxnManager::new();
        m.bump_next_xid(100);
        m.bump_next_xid(50); // no-op
        let a = m.begin();
        assert!(a >= 100);
    }

    #[test]
    fn domains_track_live_txns_only() {
        let m = TxnManager::new();
        let a = m.begin_on(3);
        let b = m.begin();
        assert_eq!(m.domain_of(a), 3);
        assert_eq!(m.domain_of(b), 0);
        m.commit(a);
        m.abort(b);
        assert_eq!(m.domain_of(a), 0, "finished txns fall back to domain 0");
        assert_eq!(m.domain_of(b), 0);
    }

    #[test]
    fn status_map_holds_only_unfinished_and_aborted() {
        let m = TxnManager::new();
        let a = m.begin();
        m.abort(a);
        for _ in 0..100 {
            let x = m.begin();
            m.commit(x);
        }
        let live = m.begin();
        assert_eq!(m.status_len(), 2, "one aborted, one in progress");
        assert_eq!(m.status(a), TxnStatus::Aborted);
        assert_eq!(m.status(live), TxnStatus::InProgress);
        assert_eq!(
            m.status(live - 1),
            TxnStatus::Committed,
            "absent = committed"
        );
        assert_eq!(m.aborts(), 1);
    }

    #[test]
    fn horizon_is_the_oldest_live_pin() {
        let m = TxnManager::new();
        let a = m.begin();
        m.commit(a);
        assert_eq!(
            m.horizon(),
            a + 1,
            "nothing live: every finished id is below it"
        );
        let b = m.begin(); // active when the pin is taken
        let pin = m.snapshot(None);
        m.commit(b);
        let c = m.begin();
        m.commit(c);
        assert_eq!(m.horizon(), b, "the pin cannot see b's commit");
        let clone = pin.clone();
        drop(pin);
        assert_eq!(m.horizon(), b, "a clone keeps the pin");
        let later = m.snapshot(None);
        drop(clone);
        assert_eq!(m.horizon(), c + 1, "oldest remaining pin");
        drop(later);
        let d = m.begin();
        assert_eq!(m.horizon(), d, "an active transaction caps it");
    }
}
