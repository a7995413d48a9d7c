//! Materialized views with batch refresh — the paper's §5 comparison.
//!
//! "MVs are refreshed in batch mode and therefore may be out of date at
//! the time of the query. [...] when the update starts, the whole batch is
//! processed." This module implements exactly that: a result table
//! refreshed on demand, either by full recomputation or by re-aggregating
//! only the delta rows (append-only incremental refresh). Between
//! refreshes the view serves stale data; [`BatchMatView::staleness`]
//! exposes the gap for experiment E4.

use streamrel_core::{Db, DbOptions, ExecResult};
use streamrel_types::{Error, Relation, Result, Row, Timestamp, Value};

/// Refresh strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshMode {
    /// Recompute the view from all raw data (classic REFRESH).
    Full,
    /// Re-aggregate only rows with `ts > last_refresh` and append the
    /// result (valid for per-period additive reports).
    DeltaAppend,
}

/// A batch-refreshed materialized view over an append-only raw table.
pub struct BatchMatView {
    db: Db,
    raw_table: String,
    ts_col: String,
    view_table: String,
    query_sql: String,
    mode: RefreshMode,
    /// Event-time high-water mark covered by the view.
    refreshed_through: Timestamp,
    refresh_count: u64,
    rows_scanned: u64,
}

impl BatchMatView {
    /// Build: creates the raw table, the view's result table, and records
    /// the defining query. `query_sql` must select from `raw_table` and
    /// its result schema must match `create_view_table_sql`'s table.
    pub fn new(
        create_raw_sql: &str,
        raw_table: &str,
        ts_col: &str,
        create_view_table_sql: &str,
        view_table: &str,
        query_sql: &str,
        mode: RefreshMode,
    ) -> Result<BatchMatView> {
        let db = Db::in_memory(DbOptions::default());
        db.execute(create_raw_sql)?;
        db.execute(create_view_table_sql)?;
        Ok(BatchMatView {
            db,
            raw_table: raw_table.to_string(),
            ts_col: ts_col.to_string(),
            view_table: view_table.to_string(),
            query_sql: query_sql.to_string(),
            mode,
            refreshed_through: i64::MIN,
            refresh_count: 0,
            rows_scanned: 0,
        })
    }

    /// Land raw rows (the base table keeps growing; the view goes stale).
    pub fn load(&mut self, rows: Vec<Row>) -> Result<u64> {
        let id = self.db.engine().table_id(&self.raw_table)?;
        self.db
            .engine()
            .with_txn(|x| self.db.engine().insert_many(x, id, rows))
    }

    /// Event-time staleness at `now`: how far the raw data has moved past
    /// the view's last refresh.
    pub fn staleness(&self, now: Timestamp) -> i64 {
        if self.refreshed_through == i64::MIN {
            // Never refreshed: stale since the beginning of time; report
            // the full span.
            now
        } else {
            (now - self.refreshed_through).max(0)
        }
    }

    /// Refresh the view. Returns the number of raw rows scanned (the work
    /// the refresh had to do — E4's cost metric).
    pub fn refresh(&mut self, now: Timestamp) -> Result<u64> {
        self.refresh_count += 1;
        let scanned = match self.mode {
            RefreshMode::Full => {
                let result = match self.db.execute(&self.query_sql)? {
                    ExecResult::Rows(r) => r,
                    other => {
                        return Err(Error::analysis(format!(
                            "view query must be snapshot, got {other:?}"
                        )))
                    }
                };
                let raw_id = self.db.engine().table_id(&self.raw_table)?;
                let snap = self.db.engine().snapshot();
                let scanned = self.db.engine().scan(raw_id, &snap)?.len() as u64;
                let view_id = self.db.engine().table_id(&self.view_table)?;
                self.db.engine().with_txn(|x| {
                    self.db.engine().delete_all_visible(x, view_id)?;
                    self.db.engine().insert_many(x, view_id, result.into_rows())
                })?;
                scanned
            }
            RefreshMode::DeltaAppend => {
                // Run the defining query restricted to the delta and
                // append. We filter the delta manually so the stored
                // query text stays unmodified.
                let delta = self.delta_rows()?;
                let scanned = delta.len() as u64;
                let result = self.run_query_over(delta)?;
                let view_id = self.db.engine().table_id(&self.view_table)?;
                self.db
                    .engine()
                    .with_txn(|x| self.db.engine().insert_many(x, view_id, result.into_rows()))?;
                scanned
            }
        };
        self.rows_scanned += scanned;
        self.refreshed_through = now;
        Ok(scanned)
    }

    fn delta_rows(&self) -> Result<Vec<Row>> {
        let schema = self.db.engine().table_schema(&self.raw_table)?;
        let ts_idx = schema.index_of(&self.ts_col)?;
        let raw_id = self.db.engine().table_id(&self.raw_table)?;
        let snap = self.db.engine().snapshot();
        let cutoff = self.refreshed_through;
        let mut out = Vec::new();
        self.db.engine().scan_visit(raw_id, &snap, |_, row| {
            if let Some(Value::Timestamp(t)) = row.get(ts_idx) {
                if *t > cutoff {
                    out.push(row.clone());
                }
            }
            true
        })?;
        Ok(out)
    }

    /// Execute the stored query text against an ad-hoc set of rows by
    /// loading them into a scratch table of the raw schema.
    fn run_query_over(&self, rows: Vec<Row>) -> Result<Relation> {
        // Scratch DB avoids disturbing the main tables.
        let scratch = Db::in_memory(DbOptions::default());
        let schema = self.db.engine().table_schema(&self.raw_table)?;
        let cols: String = schema
            .columns()
            .iter()
            .map(|c| format!("{} {}", c.name, c.ty))
            .collect::<Vec<_>>()
            .join(", ");
        scratch.execute(&format!("CREATE TABLE {} ({})", self.raw_table, cols))?;
        let id = scratch.engine().table_id(&self.raw_table)?;
        scratch
            .engine()
            .with_txn(|x| scratch.engine().insert_many(x, id, rows))?;
        match scratch.execute(&self.query_sql)? {
            ExecResult::Rows(r) => Ok(r),
            other => Err(Error::analysis(format!(
                "non-snapshot view query: {other:?}"
            ))),
        }
    }

    /// Query the (possibly stale) view table.
    pub fn query_view(&self, sql: &str) -> Result<Relation> {
        match self.db.execute(sql)? {
            ExecResult::Rows(r) => Ok(r),
            other => Err(Error::analysis(format!("{other:?}"))),
        }
    }

    /// Number of refreshes run.
    pub fn refresh_count(&self) -> u64 {
        self.refresh_count
    }

    /// Total raw rows scanned across all refreshes (the recurring cost the
    /// paper contrasts with per-tuple continuous work).
    pub fn rows_scanned(&self) -> u64 {
        self.rows_scanned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamrel_types::row;

    fn mv(mode: RefreshMode) -> BatchMatView {
        BatchMatView::new(
            "CREATE TABLE raw (k varchar(10), v integer, ts timestamp)",
            "raw",
            "ts",
            "CREATE TABLE v (k varchar(10), s bigint)",
            "v",
            "SELECT k, sum(v) s FROM raw GROUP BY k",
            mode,
        )
        .unwrap()
    }

    #[test]
    fn full_refresh_recomputes() {
        let mut m = mv(RefreshMode::Full);
        m.load(vec![row!["a", 1i64, Value::Timestamp(10)]]).unwrap();
        let scanned = m.refresh(10).unwrap();
        assert_eq!(scanned, 1);
        m.load(vec![row!["a", 2i64, Value::Timestamp(20)]]).unwrap();
        // Stale until refreshed.
        let rel = m.query_view("SELECT s FROM v").unwrap();
        assert_eq!(rel.rows()[0], row![1i64]);
        assert_eq!(m.staleness(20), 10);
        let scanned = m.refresh(20).unwrap();
        assert_eq!(scanned, 2, "full refresh rescans everything");
        let rel = m.query_view("SELECT s FROM v").unwrap();
        assert_eq!(rel.rows()[0], row![3i64]);
        assert_eq!(m.staleness(20), 0);
    }

    #[test]
    fn delta_refresh_scans_only_new_rows() {
        let mut m = mv(RefreshMode::DeltaAppend);
        m.load(vec![
            row!["a", 1i64, Value::Timestamp(10)],
            row!["b", 5i64, Value::Timestamp(15)],
        ])
        .unwrap();
        assert_eq!(m.refresh(20).unwrap(), 2);
        m.load(vec![row!["a", 2i64, Value::Timestamp(30)]]).unwrap();
        assert_eq!(m.refresh(40).unwrap(), 1, "delta only");
        // DeltaAppend appends per-period rows (two 'a' entries).
        let rel = m
            .query_view("SELECT k, sum(s) FROM v GROUP BY k ORDER BY k")
            .unwrap();
        assert_eq!(rel.rows()[0], row!["a", 3i64]);
        assert_eq!(rel.rows()[1], row!["b", 5i64]);
        assert_eq!(m.rows_scanned(), 3);
        assert_eq!(m.refresh_count(), 2);
    }

    #[test]
    fn never_refreshed_is_maximally_stale() {
        let m = mv(RefreshMode::Full);
        assert_eq!(m.staleness(1000), 1000);
    }
}
