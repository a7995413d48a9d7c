//! The streamrel database facade.
//!
//! [`Db`] is the stream-relational system of the paper: one object that
//! accepts the full TruSQL surface — tables, streams, views, derived
//! streams, channels, snapshot queries and continuous queries — and wires
//! the storage engine, executor and CQ runtime together. "A standard
//! database \[is] simply replaced by a SQL-compliant Stream-Relational
//! database system" (§4): this crate is that replacement.
//!
//! ```
//! use streamrel_core::{Db, DbOptions, ExecResult};
//!
//! let db = Db::in_memory(DbOptions::default());
//! db.execute("CREATE STREAM s (v integer, ts timestamp CQTIME USER)").unwrap();
//! db.execute("CREATE TABLE sums (total bigint, w timestamp)").unwrap();
//! db.execute("CREATE STREAM sums_now AS SELECT sum(v) total, cq_close(*) w \
//!             FROM s <TUMBLING '1 minute'>").unwrap();
//! db.execute("CREATE CHANNEL c FROM sums_now INTO sums APPEND").unwrap();
//! db.execute("INSERT INTO s VALUES (2, '1970-01-01 00:00:10')").unwrap();
//! db.execute("INSERT INTO s VALUES (3, '1970-01-01 00:00:30')").unwrap();
//! db.heartbeat("s", 60_000_000).unwrap(); // close the first window
//! let ExecResult::Rows(rel) = db.execute("SELECT total FROM sums").unwrap() else {
//!     panic!()
//! };
//! assert_eq!(rel.rows()[0][0], streamrel_types::Value::Int(5));
//! ```

#![deny(unsafe_code)]

mod csv;
mod db;
mod options;
mod provider;
mod script;
mod shard;
mod subscription;

pub use db::{Db, DbStats, ExecResult};
pub use options::DbOptions;
pub use script::split_statements;
pub use subscription::{
    Body, Member, MemberAccount, Offered, Outlet, Queued, ResultNotifier, Subscription,
    SubscriptionId, DEFAULT_SUB_CAPACITY,
};
