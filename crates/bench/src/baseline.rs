//! The approaches the paper argues against, built on the *same* storage
//! and executor so comparisons isolate the architecture, not the code
//! quality:
//!
//! - [`storefirst`] — classic store-first-query-later (§1.3): land every
//!   tuple in a table, run the report over raw data on demand (E1, E2).
//! - [`matview`] — materialized views with batch refresh (§5): the report
//!   is precomputed, but refreshed by periodic recomputation, so answers
//!   are stale between refreshes and each refresh re-pays query cost (E4).
//! - [`minimr`] — a miniature map/shuffle/reduce engine (§1.3, §5):
//!   partitioned parallel batch processing with materialized intermediate
//!   state, the Hadoop-shaped comparator (E5).

pub mod matview;
pub mod minimr;
pub mod storefirst;

pub use matview::{BatchMatView, RefreshMode};
pub use minimr::{MiniMr, MrConfig};
pub use storefirst::StoreFirst;
