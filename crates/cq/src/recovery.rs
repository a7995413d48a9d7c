//! A CQ's durable resume watermark (§4).
//!
//! The paper's recovery argument: instead of teaching every operator to
//! checkpoint itself, rebuild runtime state from what the channels already
//! persisted. Each derived stream keeps one watermark in the engine
//! catalog: the close of the last window its channels committed, written
//! in the same transaction as the window's rows. `Db::open` resumes each
//! CQ after it and replays the Active Tables it reads to rebuild the
//! in-flight window (`streamrel-core`'s `db/recovery.rs`); this module is
//! only the watermark's key and its reads and writes.

use std::sync::Arc;

use streamrel_storage::StorageEngine;
use streamrel_types::{Error, Result, Timestamp};

/// Catalog key used to persist a CQ's emitted watermark independently of
/// any archive table (covers CQs whose channel uses REPLACE mode, where
/// the table holds only the latest window, and CQs with no channel).
pub fn watermark_key(cq_name: &str) -> String {
    format!("cq_watermark.{}", cq_name.to_ascii_lowercase())
}

/// Persist a CQ watermark in the engine catalog (WAL-logged, durable):
/// how a derived stream created over an upstream that has already taken
/// tuples records where it joined.
pub fn save_watermark(engine: &Arc<StorageEngine>, cq_name: &str, close: Timestamp) -> Result<()> {
    engine.catalog_put(&watermark_key(cq_name), &close.to_string())
}

/// Persist a CQ watermark atomically with transaction `xid`: on replay it
/// applies only if `xid` committed. Channels use this so the watermark and
/// the window's archived rows become durable together — a crash can never
/// leave a watermark pointing past an unarchived window (which would lose
/// it) or archived rows without the watermark (which would duplicate them).
pub fn save_watermark_txn(
    engine: &Arc<StorageEngine>,
    xid: streamrel_storage::TxnId,
    cq_name: &str,
    close: Timestamp,
) -> Result<()> {
    engine.catalog_put_txn(xid, &watermark_key(cq_name), &close.to_string())
}

/// Load a CQ watermark saved by [`save_watermark`].
pub fn load_watermark(engine: &Arc<StorageEngine>, cq_name: &str) -> Result<Option<Timestamp>> {
    match engine.catalog_get(&watermark_key(cq_name)) {
        None => Ok(None),
        Some(s) => s
            .parse::<i64>()
            .map(Some)
            .map_err(|_| Error::storage(format!("corrupt watermark for `{cq_name}`: {s}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_watermark_roundtrip() {
        let e = Arc::new(StorageEngine::in_memory());
        assert_eq!(load_watermark(&e, "my_cq").unwrap(), None);
        save_watermark(&e, "my_cq", 12345).unwrap();
        assert_eq!(load_watermark(&e, "MY_CQ").unwrap(), Some(12345));
    }
}
