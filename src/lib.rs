//! # streamrel — Continuous Analytics for a Network-Effect World
//!
//! A stream-relational database system reproducing *"Continuous Analytics:
//! Rethinking Query Processing in a Network-Effect World"* (Franklin et
//! al., CIDR 2009): SQL runs continuously and incrementally over data
//! *before* it is stored, over tables, streams, and combinations of the
//! two.
//!
//! Quick start:
//!
//! ```
//! use streamrel::{Db, DbOptions};
//!
//! let db = Db::in_memory(DbOptions::default());
//! // Paper Example 1: a stream ordered on a data-carried time column.
//! db.execute("CREATE STREAM url_stream (url varchar(1024), \
//!             atime timestamp CQTIME USER, client_ip varchar(50))").unwrap();
//! // Paper Examples 3+4: a derived stream archived into an Active Table.
//! db.execute("CREATE TABLE urls_archive (url varchar(1024), scnt integer, \
//!             stime timestamp)").unwrap();
//! db.execute("CREATE STREAM urls_now AS SELECT url, count(*) scnt, \
//!             cq_close(*) stime FROM url_stream \
//!             <VISIBLE '5 minutes' ADVANCE '1 minute'> GROUP BY url").unwrap();
//! db.execute("CREATE CHANNEL urls_channel FROM urls_now \
//!             INTO urls_archive APPEND").unwrap();
//! // Stream data in; the report is continuously maintained.
//! db.execute("INSERT INTO url_stream VALUES \
//!             ('/home', '2009-01-04 00:00:01', '1.2.3.4')").unwrap();
//! db.heartbeat("url_stream",
//!     streamrel::types::parse_timestamp("2009-01-04 00:01:00").unwrap()).unwrap();
//! let report = db.execute("SELECT url, scnt FROM urls_archive").unwrap().rows();
//! assert_eq!(report.len(), 1);
//! ```

#![deny(unsafe_code)]

pub use streamrel_core::{
    split_statements, Db, DbOptions, DbStats, ExecResult, ResultNotifier, Subscription,
    SubscriptionId,
};

/// Core data model (values, rows, schemas, relations, time).
pub mod types {
    pub use streamrel_types::*;
}

/// SQL front-end (parser, analyzer, logical plans).
pub mod sql {
    pub use streamrel_sql::*;
}

/// Relational execution (expressions, operators).
pub mod exec {
    pub use streamrel_exec::*;
}

/// MVCC storage, WAL, recovery.
pub mod storage {
    pub use streamrel_storage::*;
}

/// Continuous-query runtime (windows, sharing, consistency, recovery).
pub mod cq {
    pub use streamrel_cq::*;
}

/// Incremental view maintenance (delta processing for eligible CQs).
pub mod ivm {
    pub use streamrel_ivm::*;
}

/// Deterministic workload generators.
pub mod workload {
    pub use streamrel_workload::*;
}

/// Wire protocol: TCP server and blocking client.
pub mod net {
    pub use streamrel_net::*;
}
