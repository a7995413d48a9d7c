//! Store-first-query-later: the architecture the paper attacks (§1.3).
//!
//! Data is collected, stored in a table, and *then* analyzed: every report
//! execution re-reads all raw rows. Built on the same `Db` so the executor
//! and storage are identical to the continuous path — the measured gap is
//! purely architectural.

use streamrel_core::{Db, DbOptions, ExecResult};
use streamrel_types::{Relation, Result, Row};

/// A store-first analytics pipeline over one raw table.
pub struct StoreFirst {
    db: Db,
    table: String,
    loaded: u64,
    reports_run: u64,
}

impl StoreFirst {
    /// Create the pipeline with the raw table declared by `create_table_sql`.
    pub fn new(create_table_sql: &str, table: &str) -> Result<StoreFirst> {
        let db = Db::in_memory(DbOptions::default());
        db.execute(create_table_sql)?;
        Ok(StoreFirst {
            db,
            table: table.to_string(),
            loaded: 0,
            reports_run: 0,
        })
    }

    /// Land a batch of raw rows (the "store" phase).
    pub fn load(&mut self, rows: Vec<Row>) -> Result<u64> {
        let id = self.db.engine().table_id(&self.table)?;
        let n = self
            .db
            .engine()
            .with_txn(|x| self.db.engine().insert_many(x, id, rows))?;
        self.loaded += n;
        Ok(n)
    }

    /// Run the report over all raw data (the "query-later" phase): full
    /// scan + aggregate, every time.
    pub fn run_report(&mut self, sql: &str) -> Result<Relation> {
        self.reports_run += 1;
        match self.db.execute(sql)? {
            ExecResult::Rows(rel) => Ok(rel),
            other => Err(streamrel_types::Error::analysis(format!(
                "report must be a snapshot query, got {other:?}"
            ))),
        }
    }

    /// Rows stored.
    pub fn loaded(&self) -> u64 {
        self.loaded
    }

    /// Reports executed.
    pub fn reports_run(&self) -> u64 {
        self.reports_run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamrel_types::{row, Value};
    use streamrel_workload::NetsecGen;

    #[test]
    fn load_then_query() {
        let mut sf = StoreFirst::new(
            "CREATE TABLE raw (k varchar(10), v integer, ts timestamp)",
            "raw",
        )
        .unwrap();
        sf.load(vec![
            row!["a", 1i64, Value::Timestamp(1)],
            row!["a", 2i64, Value::Timestamp(2)],
            row!["b", 3i64, Value::Timestamp(3)],
        ])
        .unwrap();
        let rel = sf
            .run_report("SELECT k, sum(v) s FROM raw GROUP BY k ORDER BY k")
            .unwrap();
        assert_eq!(rel.rows()[0], row!["a", 3i64]);
        assert_eq!(rel.rows()[1], row!["b", 3i64]);
        assert_eq!(sf.loaded(), 3);
        assert_eq!(sf.reports_run(), 1);
    }

    #[test]
    fn report_rescans_everything() {
        let mut sf = StoreFirst::new(&NetsecGen::create_table_sql("raw"), "raw").unwrap();
        let mut g = NetsecGen::new(1, 500, 0, 10_000);
        sf.load(g.take_rows(5_000)).unwrap();
        let r1 = sf.run_report(&NetsecGen::report_sql("raw")).unwrap();
        // New data arrives; the *same* report must be recomputed from raw.
        sf.load(g.take_rows(5_000)).unwrap();
        let r2 = sf.run_report(&NetsecGen::report_sql("raw")).unwrap();
        assert!(!r1.is_empty() && !r2.is_empty());
        let total = |rel: &streamrel_types::Relation| -> i64 {
            rel.rows().iter().map(|r| r[1].as_int().unwrap()).sum()
        };
        assert!(total(&r2) >= total(&r1), "more data, more denies");
    }
}
