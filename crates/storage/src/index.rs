//! Ordered secondary indexes.
//!
//! A B-tree (std `BTreeMap`) mapping composite key values to heap slots.
//! The paper notes that Active Tables "are simply SQL tables, \[so] indexes
//! can be defined over them to further improve query performance" (§3.3) —
//! E1's active-table lookup path uses exactly this.
//!
//! Indexes are *version-oblivious*: they reference every heap slot whose
//! version carried the key; readers re-check MVCC visibility against the
//! heap. Reclaimed slots are unlinked by [`OrderedIndex::remove_many`].

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::Bound;

use parking_lot::RwLock;
use streamrel_types::{Row, Value};

/// Composite key wrapper giving `Vec<Value>` a total order (NULLs last,
/// numeric cross-type comparison, per [`Value::sort_cmp`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexKey(pub Vec<Value>);

impl PartialOrd for IndexKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IndexKey {
    fn cmp(&self, other: &Self) -> Ordering {
        for (a, b) in self.0.iter().zip(&other.0) {
            match a.sort_cmp(b) {
                Ordering::Equal => continue,
                o => return o,
            }
        }
        self.0.len().cmp(&other.0.len())
    }
}

/// One secondary index over a table.
pub struct OrderedIndex {
    /// Column positions forming the key.
    key_columns: Vec<usize>,
    tree: RwLock<BTreeMap<IndexKey, Vec<u64>>>,
}

impl OrderedIndex {
    /// New index over the given column positions.
    pub fn new(key_columns: Vec<usize>) -> OrderedIndex {
        OrderedIndex {
            key_columns,
            tree: RwLock::new(BTreeMap::new()),
        }
    }

    /// The key column positions.
    pub fn key_columns(&self) -> &[usize] {
        &self.key_columns
    }

    /// Extract this index's key from a full row.
    pub fn key_of(&self, row: &Row) -> IndexKey {
        IndexKey(self.key_columns.iter().map(|&i| row[i].clone()).collect())
    }

    /// Register a heap slot under the row's key.
    pub fn insert(&self, row: &Row, slot: u64) {
        self.insert_run(std::slice::from_ref(row), slot);
    }

    /// Register `rows` under the contiguous slots starting at
    /// `first_slot`, under one lock; a run of consecutive rows sharing a
    /// key (a window's rows share their `stime`) costs one tree lookup.
    pub fn insert_run(&self, rows: &[Row], first_slot: u64) {
        let same_key = |a: &Row, b: &Row| {
            self.key_columns
                .iter()
                .all(|&c| a[c].sort_cmp(&b[c]).is_eq())
        };
        let mut t = self.tree.write();
        let mut i = 0;
        while i < rows.len() {
            let run = rows[i..]
                .iter()
                .take_while(|r| same_key(r, &rows[i]))
                .count();
            let slots = first_slot + i as u64..first_slot + (i + run) as u64;
            t.entry(self.key_of(&rows[i])).or_default().extend(slots);
            i += run;
        }
    }

    /// Unlink reclaimed versions, under one lock.
    pub fn remove_many(&self, versions: &[(u64, Row)]) {
        let mut t = self.tree.write();
        for (slot, row) in versions {
            let key = self.key_of(row);
            if let Some(slots) = t.get_mut(&key) {
                slots.retain(|s| s != slot);
                if slots.is_empty() {
                    t.remove(&key);
                }
            }
        }
    }

    /// Heap slots whose versions carried exactly `key`.
    pub fn lookup(&self, key: &IndexKey) -> Vec<u64> {
        self.tree.read().get(key).cloned().unwrap_or_default()
    }

    /// Heap slots for keys within the bounds, in key order; none when the
    /// bounds cross (which `BTreeMap::range` would panic on).
    pub fn range(&self, lo: Bound<IndexKey>, hi: Bound<IndexKey>) -> Vec<u64> {
        use Bound::{Excluded, Included};
        if let (Included(a) | Excluded(a), Included(b) | Excluded(b)) = (&lo, &hi) {
            let both_excluded = matches!((&lo, &hi), (Excluded(_), Excluded(_)));
            if a > b || (both_excluded && a.cmp(b).is_eq()) {
                return Vec::new();
            }
        }
        let t = self.tree.read();
        t.range((lo, hi))
            .flat_map(|(_, v)| v.iter().copied())
            .collect()
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.tree.read().len()
    }

    /// Drop all entries (table truncate).
    pub fn clear(&self) {
        self.tree.write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamrel_types::row;

    #[test]
    fn key_ordering_follows_sort_cmp() {
        let a = IndexKey(row![1i64, "a"]);
        let b = IndexKey(row![1i64, "b"]);
        let c = IndexKey(row![2i64, "a"]);
        assert!(a < b);
        assert!(b < c);
        let null_key = IndexKey(vec![Value::Null]);
        let int_key = IndexKey(row![5i64]);
        assert!(int_key < null_key, "NULLs sort last");
    }

    #[test]
    fn prefix_keys_sort_before_extensions() {
        let short = IndexKey(row![1i64]);
        let long = IndexKey(row![1i64, 0i64]);
        assert!(short < long);
    }

    #[test]
    fn insert_lookup_remove() {
        let idx = OrderedIndex::new(vec![0]);
        let r1 = row!["alpha", 1i64];
        let r2 = row!["alpha", 2i64];
        let r3 = row!["beta", 3i64];
        idx.insert(&r1, 10);
        idx.insert(&r2, 11);
        idx.insert(&r3, 12);
        assert_eq!(idx.lookup(&IndexKey(row!["alpha"])), vec![10, 11]);
        assert_eq!(idx.lookup(&IndexKey(row!["beta"])), vec![12]);
        assert!(idx.lookup(&IndexKey(row!["gamma"])).is_empty());
        idx.remove_many(&[(10, r1)]);
        assert_eq!(idx.lookup(&IndexKey(row!["alpha"])), vec![11]);
        assert_eq!(idx.key_count(), 2);
        idx.remove_many(&[(12, r3)]);
        assert_eq!(idx.key_count(), 1, "an emptied key leaves the tree");
    }

    #[test]
    fn range_scan() {
        let idx = OrderedIndex::new(vec![0]);
        for i in 0..10i64 {
            idx.insert(&row![i], i as u64);
        }
        let slots = idx.range(
            Bound::Included(IndexKey(row![3i64])),
            Bound::Excluded(IndexKey(row![7i64])),
        );
        assert_eq!(slots, vec![3, 4, 5, 6]);
        let all = idx.range(Bound::Unbounded, Bound::Unbounded);
        assert_eq!(all.len(), 10);
        let key = |v: i64| IndexKey(row![v]);
        for (lo, hi) in [
            (Bound::Included(key(7)), Bound::Included(key(3))),
            (Bound::Excluded(key(3)), Bound::Excluded(key(3))),
            (
                Bound::Excluded(key(3)),
                Bound::Excluded(IndexKey(row![3.0f64])),
            ),
            (Bound::Included(key(3)), Bound::Excluded(key(3))),
        ] {
            assert!(idx.range(lo, hi).is_empty(), "crossed bounds are empty");
        }
    }

    #[test]
    fn insert_run_groups_equal_keys() {
        let idx = OrderedIndex::new(vec![1]);
        let rows = vec![
            row!["a", 7i64],
            row!["b", 7i64],
            row!["c", 8i64],
            row!["d", 7.0f64],
        ];
        idx.insert_run(&rows, 100);
        assert_eq!(idx.lookup(&IndexKey(row![7i64])), vec![100, 101, 103]);
        assert_eq!(idx.lookup(&IndexKey(row![8i64])), vec![102]);
        assert_eq!(idx.key_count(), 2);
    }

    #[test]
    fn composite_key_extraction() {
        let idx = OrderedIndex::new(vec![2, 0]);
        let r = row!["x", 1i64, 100i64];
        assert_eq!(idx.key_of(&r), IndexKey(row![100i64, "x"]));
    }

    #[test]
    fn clear_empties() {
        let idx = OrderedIndex::new(vec![0]);
        idx.insert(&row![1i64], 0);
        idx.clear();
        assert_eq!(idx.key_count(), 0);
    }
}
