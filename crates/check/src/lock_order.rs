//! The workspace lock order (DESIGN.md §14), written by hand.
//!
//! A lock's name is `<crate>.<field>`: the crate directory under
//! `crates/` and the field it is stored in, as passed to
//! `parking_lot::Mutex::named`. Three places read this table:
//!
//! * `Db::with_engine` installs it in the runtime lock witness: a thread
//!   holding one ordered lock may acquire only those after it, and the
//!   witness learns the real acquisition graph besides;
//! * the `lock-order` rule of [`crate::lint`] checks each function's
//!   `.lock()` receivers, qualified by the file's crate, against it;
//! * `scripts/size_report.sh` counts its locks.

/// Every ordered lock, in one global acquisition order.
pub static GLOBAL_LOCK_ORDER: &[&str] = &[
    "core.catalog",
    "core.state",
    "core.generation",
    "cq.queue",
    "cq.results",
    "storage.wal",
    "storage.group",
];
