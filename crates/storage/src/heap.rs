//! Versioned in-memory heap tables.
//!
//! A heap table is a slot-addressed deque of tuple *versions*; MVCC stamps
//! (`xmin`/`xmax`) plus a [`Snapshot`] decide which versions a reader sees.
//! Updates are delete + insert (new version), as in PostgreSQL. Slot
//! numbers are global and only ever grow; [`HeapTable::reclaim`] drops
//! versions no snapshot can see and pops the emptied prefix, so a table
//! whose dead versions are always its oldest (a REPLACE Active Table)
//! holds its live generation plus whatever a pinned reader still sees.

use std::collections::VecDeque;

use parking_lot::RwLock;
use streamrel_types::Row;

use crate::txn::{Snapshot, TxnId};

/// Identifies one tuple version: table id plus slot in the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleId {
    /// Owning table.
    pub table: u32,
    /// Slot within the table's heap.
    pub slot: u64,
}

/// One stored version of a row; the default is a slot the log skipped.
#[derive(Default)]
struct TupleVersion {
    /// Inserting transaction.
    xmin: TxnId,
    /// Deleting transaction, or 0 if live.
    xmax: TxnId,
    /// The row payload. `None` once reclaimed (or for a slot the log
    /// skipped).
    row: Option<Row>,
}

/// What one `RwLock` protects: the versions of slots `base..base + len`.
#[derive(Default)]
struct Versions {
    /// Slot number of `slots[0]`; everything below it is reclaimed.
    base: u64,
    slots: VecDeque<TupleVersion>,
    /// Versions holding a row and a delete stamp: what a reclaim can
    /// still find. Zero means a reclaim has nothing to look at.
    dead: usize,
    /// Appends, delete stamps, replayed inserts and truncates, and the
    /// newest transaction that stamped a version ([`HeapTable::settled_writes`]).
    writes: u64,
    newest: TxnId,
}

impl Versions {
    /// Count one write by `xid`.
    fn wrote(&mut self, xid: TxnId) {
        self.writes += 1;
        self.newest = self.newest.max(xid);
    }

    fn get(&self, slot: u64) -> Option<&TupleVersion> {
        self.slots.get(slot.checked_sub(self.base)? as usize)
    }

    fn get_mut(&mut self, slot: u64) -> Option<&mut TupleVersion> {
        self.slots.get_mut(slot.checked_sub(self.base)? as usize)
    }

    /// `(slot, version)` for every slot still held.
    fn iter(&self) -> impl Iterator<Item = (u64, &TupleVersion)> {
        (self.base..).zip(&self.slots)
    }

    /// Stamp `slot` deleted by `xid`; false if the slot holds no row.
    fn stamp(&mut self, xid: TxnId, slot: u64) -> bool {
        match self.get_mut(slot) {
            Some(tv) if tv.row.is_some() => {
                let fresh = tv.xmax == 0;
                tv.xmax = xid;
                self.dead += usize::from(fresh);
                self.wrote(xid);
                true
            }
            _ => false,
        }
    }
}

/// A single versioned table.
///
/// Interior mutability via one `RwLock`: scans take the read lock and clone
/// visible rows out (analytics operators want owned rows anyway), writers
/// take the write lock once per batch.
pub struct HeapTable {
    id: u32,
    versions: RwLock<Versions>,
}

impl HeapTable {
    /// New empty heap for table `id`.
    pub fn new(id: u32) -> HeapTable {
        HeapTable {
            id,
            versions: RwLock::new(Versions::default()),
        }
    }

    /// Append `rows` as one contiguous slot run stamped with `xid`.
    /// `log` runs under the heap lock with the run's first slot and the
    /// rows, before anything is stored: if it fails the heap is unchanged.
    /// Returns the first slot.
    pub fn append<E>(
        &self,
        xid: TxnId,
        rows: Vec<Row>,
        log: impl FnOnce(u64, &[Row]) -> Result<(), E>,
    ) -> Result<u64, E> {
        let mut v = self.versions.write();
        let first = v.base + v.slots.len() as u64;
        log(first, &rows)?;
        v.wrote(xid);
        v.slots.extend(rows.into_iter().map(|row| TupleVersion {
            xmin: xid,
            xmax: 0,
            row: Some(row),
        }));
        Ok(first)
    }

    /// Insert `rows` at the slots from `first_slot` on, under one lock: WAL
    /// replay, so TupleIds keep their identity. Slots the log skipped hold
    /// dead placeholders; a slot below the reclaimed prefix is dropped.
    pub fn insert_at(&self, xid: TxnId, first_slot: u64, rows: Vec<Row>) {
        let mut v = self.versions.write();
        v.wrote(xid);
        for (slot, row) in (first_slot..).zip(rows) {
            let Some(at) = slot.checked_sub(v.base).map(|at| at as usize) else {
                continue;
            };
            if v.slots.len() <= at {
                v.slots.resize_with(at + 1, TupleVersion::default);
            }
            let (xmin, row) = (xid, Some(row));
            let old = std::mem::replace(&mut v.slots[at], TupleVersion { xmin, xmax: 0, row });
            v.dead -= usize::from(old.row.is_some() && old.xmax != 0);
        }
    }

    /// Mark the version at `slot` deleted by `xid`. Returns false if the
    /// slot is missing or already deleted by a *different* transaction
    /// that `conflict_ok` does not wave through — the engine layer turns
    /// that into a write-write conflict.
    pub fn delete(&self, xid: TxnId, slot: u64, conflict_ok: impl Fn(TxnId) -> bool) -> bool {
        let mut v = self.versions.write();
        match v.get(slot) {
            Some(tv) if tv.xmax != 0 && tv.xmax != xid && !conflict_ok(tv.xmax) => false,
            _ => v.stamp(xid, slot),
        }
    }

    /// Stamp every version visible to `snap` deleted by `xid`, under one
    /// lock. Returns the stamped slots and how many versions were visited;
    /// `Err(slot)` — with nothing stamped — if a visible version already
    /// carries another live transaction's delete stamp.
    pub fn delete_visible(
        &self,
        xid: TxnId,
        snap: &Snapshot,
        aborted: &dyn Fn(TxnId) -> bool,
    ) -> Result<(Vec<u64>, usize), u64> {
        let mut v = self.versions.write();
        let mut slots = Vec::new();
        for (slot, tv) in v.iter() {
            if tv.row.is_some() && version_visible(tv, snap, aborted) {
                if tv.xmax != 0 && tv.xmax != xid && !aborted(tv.xmax) {
                    return Err(slot);
                }
                slots.push(slot);
            }
        }
        for &slot in &slots {
            v.stamp(xid, slot);
        }
        Ok((slots, v.slots.len()))
    }

    /// Number of version slots held (live + dead, reclaimed prefix
    /// excluded).
    pub fn version_count(&self) -> usize {
        self.versions.read().slots.len()
    }

    /// Versions a reclaim could still free (row present, delete-stamped).
    pub fn dead_count(&self) -> usize {
        self.versions.read().dead
    }

    /// Scan all versions visible to `snap`, returning `(TupleId, Row)`.
    pub fn scan(&self, snap: &Snapshot, aborted: &dyn Fn(TxnId) -> bool) -> Vec<(TupleId, Row)> {
        let mut out = Vec::new();
        self.for_each_visible(snap, aborted, |tid, row| {
            out.push((tid, row.clone()));
            true
        });
        out
    }

    /// Visit visible rows without materializing the whole result. The
    /// callback returns `false` to stop early (LIMIT pushdown).
    pub fn for_each_visible(
        &self,
        snap: &Snapshot,
        aborted: &dyn Fn(TxnId) -> bool,
        mut f: impl FnMut(TupleId, &Row) -> bool,
    ) {
        let v = self.versions.read();
        for (slot, tv) in v.iter() {
            if let Some(row) = &tv.row {
                let tid = TupleId {
                    table: self.id,
                    slot,
                };
                if version_visible(tv, snap, aborted) && !f(tid, row) {
                    break;
                }
            }
        }
    }

    /// Fetch the rows at `slots` that are visible to `snap`, under one
    /// lock, in the order given.
    pub fn get_many(
        &self,
        slots: &[u64],
        snap: &Snapshot,
        aborted: &dyn Fn(TxnId) -> bool,
    ) -> Vec<(TupleId, Row)> {
        let v = self.versions.read();
        let mut out = Vec::new();
        for &slot in slots {
            let Some(tv) = v.get(slot) else { continue };
            if let Some(row) = &tv.row {
                if version_visible(tv, snap, aborted) {
                    let table = self.id;
                    out.push((TupleId { table, slot }, row.clone()));
                }
            }
        }
        out
    }

    /// Reclaim versions dead to every snapshot: deleted by a transaction
    /// that committed below `horizon` (see `TxnManager::horizon`), or
    /// inserted by an aborted one; an aborted transaction's delete stamp is
    /// cleared. The walk stops once it has passed every delete-stamped
    /// version (none left: nothing is visited), unless `full` asks it to
    /// look for aborted inserts too. The emptied prefix is then popped.
    /// Returns the reclaimed `(slot, row)` pairs so callers can unlink
    /// index entries, and how many versions were visited.
    pub fn reclaim(
        &self,
        horizon: TxnId,
        aborted: &dyn Fn(TxnId) -> bool,
        full: bool,
    ) -> (Vec<(u64, Row)>, usize) {
        let mut reclaimed = Vec::new();
        if !full && self.versions.read().dead == 0 {
            return (reclaimed, 0);
        }
        let mut guard = self.versions.write();
        let v = &mut *guard;
        let (mut visited, mut stamped) = (0, v.dead);
        for (slot, tv) in (v.base..).zip(v.slots.iter_mut()) {
            if !full && stamped == 0 {
                break;
            }
            visited += 1;
            if tv.row.is_none() {
                continue;
            }
            stamped -= usize::from(tv.xmax != 0);
            if tv.xmax != 0 && aborted(tv.xmax) {
                tv.xmax = 0;
                v.dead -= 1;
            }
            if aborted(tv.xmin) || (tv.xmax != 0 && tv.xmax < horizon) {
                v.dead -= usize::from(tv.xmax != 0);
                reclaimed.extend(tv.row.take().map(|row| (slot, row)));
            }
        }
        while v.slots.front().is_some_and(|tv| tv.row.is_none()) {
            v.slots.pop_front();
            v.base += 1;
        }
        (reclaimed, visited)
    }

    /// Visit `(slot, row)` of every version holding a row, whatever its
    /// stamps, under the read lock (index builds; visibility is re-checked
    /// at read time).
    pub fn for_each_row(&self, mut f: impl FnMut(u64, &Row)) {
        let v = self.versions.read();
        for (slot, tv) in v.iter() {
            if let Some(row) = &tv.row {
                f(slot, row);
            }
        }
    }

    /// Truncate: drop every version and restart slot numbering
    /// (DDL-level operation, caller logs it). The write count carries on.
    pub fn truncate(&self) {
        let mut v = self.versions.write();
        let old = std::mem::take(&mut *v);
        (v.writes, v.newest) = (old.writes + 1, old.newest);
    }

    /// The write count, when every transaction that ever wrote the table
    /// had finished before `snap` was taken: two such snapshots that get
    /// the same count see the same rows.
    pub(crate) fn settled_writes(&self, snap: &Snapshot) -> Option<u64> {
        let v = self.versions.read();
        (v.newest < snap.finished_below()).then_some(v.writes)
    }
}

fn version_visible(tv: &TupleVersion, snap: &Snapshot, aborted: &dyn Fn(TxnId) -> bool) -> bool {
    if tv.xmin == 0 || !snap.sees(tv.xmin, aborted) {
        return false;
    }
    // Inserted visibly; check the delete stamp.
    tv.xmax == 0 || !snap.sees(tv.xmax, aborted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::TxnManager;
    use streamrel_types::row;

    /// Append one row; its TupleId.
    fn ins(h: &HeapTable, xid: TxnId, row: Row) -> TupleId {
        let slot = h.append(xid, vec![row], |_, _| Ok::<(), ()>(())).unwrap();
        TupleId { table: 0, slot }
    }

    fn scan_rows(h: &HeapTable, m: &TxnManager) -> Vec<Row> {
        let snap = m.snapshot(None);
        h.scan(&snap, &|x| m.is_aborted(x))
            .into_iter()
            .map(|(_, r)| r)
            .collect()
    }

    #[test]
    fn committed_insert_is_visible() {
        let m = TxnManager::new();
        let h = HeapTable::new(0);
        let x = m.begin();
        ins(&h, x, row![1i64]);
        assert!(scan_rows(&h, &m).is_empty(), "uncommitted invisible");
        m.commit(x);
        assert_eq!(scan_rows(&h, &m), vec![row![1i64]]);
    }

    #[test]
    fn own_uncommitted_writes_visible_to_self() {
        let m = TxnManager::new();
        let h = HeapTable::new(0);
        let x = m.begin();
        ins(&h, x, row![1i64]);
        let snap = m.snapshot(Some(x));
        assert_eq!(h.scan(&snap, &|i| m.is_aborted(i)).len(), 1);
    }

    #[test]
    fn aborted_insert_invisible() {
        let m = TxnManager::new();
        let h = HeapTable::new(0);
        let x = m.begin();
        ins(&h, x, row![1i64]);
        m.abort(x);
        assert!(scan_rows(&h, &m).is_empty());
    }

    #[test]
    fn delete_hides_row_after_commit() {
        let m = TxnManager::new();
        let h = HeapTable::new(0);
        let x = m.begin();
        let tid = ins(&h, x, row![1i64]);
        m.commit(x);
        let y = m.begin();
        assert!(h.delete(y, tid.slot, |_| false));
        assert_eq!(scan_rows(&h, &m).len(), 1, "delete not yet committed");
        m.commit(y);
        assert!(scan_rows(&h, &m).is_empty());
    }

    #[test]
    fn aborted_delete_resurrects() {
        let m = TxnManager::new();
        let h = HeapTable::new(0);
        let x = m.begin();
        let tid = ins(&h, x, row![1i64]);
        m.commit(x);
        let y = m.begin();
        h.delete(y, tid.slot, |_| false);
        m.abort(y);
        assert_eq!(scan_rows(&h, &m).len(), 1, "aborted delete is no delete");
    }

    #[test]
    fn snapshot_isolation_reader_does_not_see_later_commit() {
        let m = TxnManager::new();
        let h = HeapTable::new(0);
        let snap = m.snapshot(None); // early snapshot
        let x = m.begin();
        ins(&h, x, row![1i64]);
        m.commit(x);
        assert!(h.scan(&snap, &|i| m.is_aborted(i)).is_empty());
        assert_eq!(scan_rows(&h, &m).len(), 1, "fresh snapshot sees it");
    }

    #[test]
    fn write_write_conflict_detected() {
        let m = TxnManager::new();
        let h = HeapTable::new(0);
        let x = m.begin();
        let tid = ins(&h, x, row![1i64]);
        m.commit(x);
        let y = m.begin();
        let z = m.begin();
        assert!(h.delete(y, tid.slot, |i| m.is_aborted(i)));
        assert!(
            !h.delete(z, tid.slot, |i| m.is_aborted(i)),
            "second deleter must conflict"
        );
    }

    #[test]
    fn reclaim_drops_dead_versions_and_pops_the_prefix() {
        let m = TxnManager::new();
        let h = HeapTable::new(0);
        let x = m.begin();
        let tid = ins(&h, x, row![1i64]);
        ins(&h, x, row![2i64]);
        m.commit(x);
        let y = m.begin();
        h.delete(y, tid.slot, |_| false);
        m.commit(y);
        assert_eq!(h.dead_count(), 1);
        let (n, visited) = h.reclaim(m.horizon(), &|i| m.is_aborted(i), false);
        assert_eq!(n, vec![(0, row![1i64])]);
        assert_eq!(visited, 1, "the walk stops after the last stamped version");
        assert_eq!((h.version_count(), h.dead_count()), (1, 0));
        assert_eq!(scan_rows(&h, &m), vec![row![2i64]]);
        // Slot numbers stay global: the survivor is still slot 1 and the
        // next append continues after it.
        let z = m.begin();
        assert_eq!(ins(&h, z, row![3i64]).slot, 2);
        assert!(h.delete(z, 1, |_| false));
        assert!(!h.delete(z, 0, |_| false), "reclaimed slot is gone");
        let (_, visited) = h.reclaim(m.horizon(), &|i| m.is_aborted(i), false);
        assert_eq!(visited, 1);
        assert_eq!(h.version_count(), 2, "z is still running: nothing goes");
    }

    #[test]
    fn reclaim_respects_the_horizon_and_clears_aborted_stamps() {
        let m = TxnManager::new();
        let h = HeapTable::new(0);
        let x = m.begin();
        ins(&h, x, row![1i64]);
        m.commit(x);
        let pin = m.snapshot(None);
        let y = m.begin();
        assert_eq!(
            h.delete_visible(y, &m.snapshot(Some(y)), &|i| m.is_aborted(i)),
            Ok((vec![0], 1))
        );
        ins(&h, y, row![2i64]);
        m.commit(y);
        let (n, _) = h.reclaim(m.horizon(), &|i| m.is_aborted(i), false);
        assert!(n.is_empty(), "the pin still sees generation 1");
        assert_eq!(h.scan(&pin, &|i| m.is_aborted(i)).len(), 1);
        drop(pin);
        let (n, _) = h.reclaim(m.horizon(), &|i| m.is_aborted(i), false);
        assert_eq!(n.len(), 1);
        // An aborted delete and an aborted insert.
        let z = m.begin();
        h.delete(z, 1, |_| false);
        ins(&h, z, row![3i64]);
        m.abort(z);
        assert_eq!(
            h.reclaim(m.horizon(), &|i| m.is_aborted(i), true).0,
            vec![(2, row![3i64])]
        );
        assert_eq!(h.dead_count(), 0, "aborted stamp cleared");
        assert_eq!(scan_rows(&h, &m), vec![row![2i64]]);
        let (n, visited) = h.reclaim(m.horizon(), &|i| m.is_aborted(i), false);
        assert_eq!((n.len(), visited), (0, 0), "nothing dead: nothing visited");
    }

    #[test]
    fn delete_visible_conflict_stamps_nothing() {
        let m = TxnManager::new();
        let h = HeapTable::new(0);
        let x = m.begin();
        ins(&h, x, row![1i64]);
        ins(&h, x, row![2i64]);
        m.commit(x);
        let y = m.begin();
        let z = m.begin();
        assert!(h.delete(y, 1, |i| m.is_aborted(i)));
        let r = h.delete_visible(z, &m.snapshot(Some(z)), &|i| m.is_aborted(i));
        assert_eq!(r, Err(1));
        assert_eq!(h.dead_count(), 1, "z stamped nothing");
    }

    #[test]
    fn insert_at_replays_sparse_slots() {
        let m = TxnManager::new();
        let h = HeapTable::new(0);
        h.insert_at(crate::txn::FROZEN_XID, 3, vec![row![9i64]]);
        assert_eq!(h.version_count(), 4);
        h.insert_at(crate::txn::FROZEN_XID, 5, vec![row![10i64], row![11i64]]);
        assert_eq!(h.version_count(), 7);
        assert_eq!(
            scan_rows(&h, &m),
            vec![row![9i64], row![10i64], row![11i64]]
        );
    }

    #[test]
    fn early_exit_scan() {
        let m = TxnManager::new();
        let h = HeapTable::new(0);
        let x = m.begin();
        for i in 0..100i64 {
            ins(&h, x, row![i]);
        }
        m.commit(x);
        let snap = m.snapshot(None);
        let mut seen = 0;
        h.for_each_visible(&snap, &|i| m.is_aborted(i), |_, _| {
            seen += 1;
            seen < 5
        });
        assert_eq!(seen, 5);
    }
}
