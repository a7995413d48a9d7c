//! Continuous-query runtime: the paper's primary contribution.
//!
//! A continuous query (CQ) runs a standard relational plan incrementally
//! over a stream — base or derived, a stream is a stream: a window turns
//! the unbounded stream into a sequence of finite relations (Figure 1 /
//! RSTREAM) and the runtime ([`runtime`]) executes the plan once per
//! window, reusing `streamrel-exec`'s ordinary operators, per §4. There is
//! one place a window's tuples live: a `streamrel-ivm` slice store, whose
//! membership ([`shared`]) pools CQs that differ only in their windows so
//! the per-tuple work of many CQs collapses into one pass ("Jellybean
//! processing", §2.2, refs [4, 12]). What differs between plans is the
//! slice payload — the partials of the shape a plan lowers to, or the raw
//! rows a plan that does not lower is re-evaluated over — and the clock a
//! store slices on: event time for a time window, the tuple or batch
//! ordinal for the two *count* windows (ROWS, SLICES).
//!
//! Window consistency (§4, ref \[6]) lives in [`consistency`]: table reads
//! inside a CQ see one MVCC snapshot pinned per window, so concurrent
//! updates become visible only at window boundaries. Recovery helpers in
//! [`recovery`] rebuild runtime state from Active-Table watermarks instead
//! of operator checkpoints (§4).

#![deny(unsafe_code)]

pub mod consistency;
pub mod federation;
pub mod ordering;
pub mod pool;
pub mod recovery;
pub mod runtime;
pub mod shared;

pub use consistency::{ConsistencyMode, SnapshotSource};
pub use federation::{PartitionUnion, Partitioner};
pub use ordering::ReorderBuffer;
pub use pool::WorkerPool;
pub use runtime::{ContinuousQuery, CqOutput, CqStats, WindowTask};
pub use shared::{SharedGroup, SharedRegistry};
