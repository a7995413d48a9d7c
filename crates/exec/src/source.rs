//! Data-source abstraction for the executor.

use std::ops::Bound;

use streamrel_types::{Relation, Result, Row, Value};

/// Supplies table contents to the executor.
///
/// Implemented by the engine layer over the MVCC storage (a scan under a
/// pinned snapshot — which snapshot is exactly the *window consistency*
/// question of §4: snapshot queries use a fresh snapshot, CQs use the one
/// pinned at the window boundary).
pub trait RelationSource {
    /// Materialize the visible rows of `table`.
    fn scan_table(&self, table: &str) -> Result<Relation>;

    /// Equality lookup through a secondary index on `column`, if one
    /// exists. `Ok(None)` means "no usable index — fall back to a scan".
    ///
    /// This is the §3.3 payoff of Active Tables being plain tables:
    /// "indexes can be defined over them to further improve query
    /// performance" — stream-table joins (Example 5) use this to avoid
    /// rescanning the archive at every window close.
    fn index_lookup(&self, table: &str, column: &str, key: &Value) -> Result<Option<Vec<Row>>> {
        let _ = (table, column, key);
        Ok(None)
    }

    /// The visible rows of `table` whose `column` lies within the bounds
    /// (in [`Value::sort_cmp`] order), in scan order, through an ordered
    /// single-column index on it. `Ok(None)` means "no usable index". A
    /// range aggregate over an archive reads its windows this way instead
    /// of cloning the whole table under the lock its writer needs.
    fn index_range(
        &self,
        table: &str,
        column: &str,
        lo: Bound<&Value>,
        hi: Bound<&Value>,
    ) -> Result<Option<Vec<Row>>> {
        let _ = (table, column, lo, hi);
        Ok(None)
    }

    /// The version of `table` this source reads, `(table id, write count)`,
    /// when it can name one: two reads under equal stamps return the same
    /// rows, so what is derived from them may be memoised. `None`: do not.
    fn table_stamp(&self, table: &str) -> Option<(u32, u64)> {
        let _ = table;
        None
    }
}

#[cfg(test)]
pub(crate) mod map {
    use super::*;

    /// A trivial source over pre-materialized relations, for tests. It
    /// names no table versions, so nothing read through it is memoised.
    pub struct MapSource {
        tables: std::collections::HashMap<String, Relation>,
    }

    impl MapSource {
        /// Empty source.
        pub fn new() -> MapSource {
            MapSource {
                tables: std::collections::HashMap::new(),
            }
        }

        /// Register a relation under a name.
        pub fn with(mut self, name: &str, rel: Relation) -> MapSource {
            self.tables.insert(name.to_ascii_lowercase(), rel);
            self
        }
    }

    impl RelationSource for MapSource {
        fn scan_table(&self, table: &str) -> Result<Relation> {
            let missing = || streamrel_types::Error::catalog(format!("table `{table}` not found"));
            self.tables
                .get(&table.to_ascii_lowercase())
                .cloned()
                .ok_or_else(missing)
        }
    }
}
