//! Window consistency: continuous isolation semantics (§4, ref \[6]).
//!
//! When a CQ joins a stream against tables (dimension enrichment, Example
//! 5's historical comparison), the table side must be read under a stable
//! MVCC snapshot. The paper's rule — "updates to tables are visible only on
//! window boundaries" — is implemented by pinning one snapshot per window
//! at close time. The ablation mode [`ConsistencyMode::QueryStart`] pins a
//! single snapshot for the CQ's whole lifetime instead, which E8 uses to
//! show increasing staleness.

use std::ops::Bound;
use std::sync::Arc;

use streamrel_storage::catalog::NamedIndex;
use streamrel_storage::index::IndexKey;
use streamrel_storage::{Snapshot, StorageEngine};
use streamrel_types::{Relation, Result, Row, Value};

use streamrel_exec::RelationSource;

/// Which snapshot a CQ's table reads use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConsistencyMode {
    /// Pin a fresh snapshot at every window boundary (the paper's window
    /// consistency; the default).
    #[default]
    WindowBoundary,
    /// Pin once when the CQ starts and never refresh (ablation: tables
    /// appear frozen to the CQ).
    QueryStart,
}

/// A [`RelationSource`] over the storage engine under one pinned snapshot.
pub struct SnapshotSource {
    engine: Arc<StorageEngine>,
    snapshot: Snapshot,
}

impl SnapshotSource {
    /// An index whose whole key is `column` (multi-column indexes serve
    /// neither lookups nor ranges on their leading column alone).
    fn single_column_index(&self, table: &str, column: &str) -> Option<Arc<NamedIndex>> {
        let named = self.engine.index_on(table, column)?;
        (named.index.key_columns().len() == 1).then_some(named)
    }

    /// Pin the engine's current state.
    pub fn pin(engine: Arc<StorageEngine>) -> SnapshotSource {
        let snapshot = engine.snapshot();
        SnapshotSource { engine, snapshot }
    }

    /// Wrap an existing snapshot.
    pub fn with_snapshot(engine: Arc<StorageEngine>, snapshot: Snapshot) -> SnapshotSource {
        SnapshotSource { engine, snapshot }
    }

    /// The pinned snapshot.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }
}

impl RelationSource for SnapshotSource {
    fn scan_table(&self, table: &str) -> Result<Relation> {
        // Virtual relations (`streamrel_metrics`, `streamrel_trace`) are
        // served straight from the engine's registry: every SELECT path —
        // embedded snapshot queries, per-window CQ plans, CREATE TABLE AS
        // — flows through this source, so observability is queryable
        // everywhere ordinary tables are ("everything is a table").
        // Metrics are live counters, deliberately outside MVCC.
        if let Some(rel) = streamrel_obs::virtual_relation(table, self.engine.metrics()) {
            return Ok(rel);
        }
        let meta = self.engine.table(table)?;
        let rows = self
            .engine
            .scan(meta.id, &self.snapshot)?
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        Ok(Relation::new(meta.schema.clone(), rows))
    }

    fn index_lookup(&self, table: &str, column: &str, key: &Value) -> Result<Option<Vec<Row>>> {
        let Some(named) = self.single_column_index(table, column) else {
            return Ok(None);
        };
        if key.is_null() {
            // NULL joins nothing; Some([]) also signals "index exists" to
            // the executor's existence probe.
            return Ok(Some(Vec::new()));
        }
        let rows = self
            .engine
            .index_lookup(table, &named, &IndexKey(vec![key.clone()]), &self.snapshot)?
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        Ok(Some(rows))
    }

    fn index_range(
        &self,
        table: &str,
        column: &str,
        lo: Bound<&Value>,
        hi: Bound<&Value>,
    ) -> Result<Option<Vec<Row>>> {
        let Some(named) = self.single_column_index(table, column) else {
            return Ok(None);
        };
        let key = |b: Bound<&Value>| b.map(|v| IndexKey(vec![v.clone()]));
        let hits = self
            .engine
            .index_range(table, &named, key(lo), key(hi), &self.snapshot)?;
        Ok(Some(hits.into_iter().map(|(_, r)| r).collect()))
    }

    fn table_stamp(&self, table: &str) -> Option<(u32, u64)> {
        self.engine.table_stamp(table, &self.snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamrel_types::{row, Column, DataType, Schema};

    fn engine_with_table() -> (Arc<StorageEngine>, u32) {
        let e = Arc::new(StorageEngine::in_memory());
        let t = e
            .create_table(
                "dim",
                Schema::new(vec![Column::new("k", DataType::Int)]).unwrap(),
            )
            .unwrap();
        (e, t)
    }

    #[test]
    fn pinned_snapshot_is_stable_across_updates() {
        let (e, t) = engine_with_table();
        e.with_txn(|x| e.insert(x, t, row![1i64])).unwrap();
        let src = SnapshotSource::pin(e.clone());
        // Concurrent update after the pin.
        e.with_txn(|x| e.insert(x, t, row![2i64])).unwrap();
        let rel = src.scan_table("dim").unwrap();
        assert_eq!(rel.len(), 1, "pinned source must not see the new row");
        // A fresh pin does see it.
        let src2 = SnapshotSource::pin(e);
        assert_eq!(src2.scan_table("dim").unwrap().len(), 2);
    }

    #[test]
    fn index_range_serves_the_pinned_snapshot_through_a_single_column_index() {
        let (e, t) = engine_with_table();
        let rows = (0..10i64).map(|k| row![k]).collect();
        e.with_txn(|x| e.insert_many(x, t, rows)).unwrap();
        let src = SnapshotSource::pin(e.clone());
        let (lo, hi) = (Value::Int(2), Value::Float(4.5));
        let range = |s: &SnapshotSource| {
            s.index_range("dim", "k", Bound::Excluded(&lo), Bound::Included(&hi))
        };
        assert_eq!(range(&src).unwrap(), None, "no index: the caller scans");
        e.create_index("dim_k", "dim", &["k".into()]).unwrap();
        e.with_txn(|x| e.insert(x, t, row![3i64])).unwrap();
        assert_eq!(range(&src).unwrap(), Some(vec![row![3i64], row![4i64]]));
        let fresh = SnapshotSource::pin(e);
        assert_eq!(range(&fresh).unwrap().map(|r| r.len()), Some(3));
    }

    #[test]
    fn missing_table_errors() {
        let (e, _) = engine_with_table();
        let src = SnapshotSource::pin(e);
        assert!(src.scan_table("nope").is_err());
    }
}
