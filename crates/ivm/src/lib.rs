//! Incremental view maintenance (IVM) for continuous queries: the
//! lowering pass and the one slice store every lowered CQ runs on.
//!
//! The paper's §4 thesis is that continuous analytics should reuse
//! relational machinery *incrementally*: a window produces a sequence of
//! tables, and recomputing each table from scratch throws away the overlap
//! between consecutive windows — and its §2.2 "Jellybean processing" adds
//! that many CQs should share one pass over the data. Both are the same
//! move, in the style of DBToaster's delta processing: keep per-(slice,
//! key) partials on the gcd(VISIBLE, ADVANCE) grid and merge them at
//! close. This crate supplies it once:
//!
//! - [`lower()`] / [`lower_with`] is the planner pass: it inspects a bound
//!   continuous plan and, when the plan is expressible, splits it into an
//!   incremental *shape* (the state to maintain per tuple) plus a
//!   *post-plan* that runs over the maintained operator output at window
//!   close. Plans it cannot express fall back to per-window
//!   re-evaluation, each with a stable reason string surfaced by
//!   `EXPLAIN CHECK`; re-evaluation runs on the same store, with the raw
//!   rows as the slice payload and the whole plan as the post-plan
//!   ([`rows_program`]).
//! - [`IvmState`] is the slice store: per-slice accumulator partials in
//!   first-seen key order — group keys, (join key, group key) pairs or
//!   DISTINCT rows — folded once per tuple behind an incremental
//!   filter/project prefix, or, for a plan that is not maintained, the
//!   slice's raw rows. Window close composes the covered slices — a
//!   near-O(delta) merge — for whichever window asks: the store's own, or
//!   any member window of the pool `streamrel-cq`'s membership layer
//!   builds over it.
//!
//! Byte-identical equivalence with re-evaluation is the contract: the
//! lowering rules only admit shapes whose slice-merge is order-exact, with
//! one explicit exception for pooled stores (see the exactness predicate
//! in DESIGN.md §12), and `tests/ivm_equivalence.rs` plus
//! `tests/sharing_equivalence.rs` prove the contract property-style,
//! including across crash recovery.

#![deny(unsafe_code)]

pub mod lower;
pub mod state;

pub use lower::{
    lower, lower_with, rows_program, AggShape, Clock, IvmProgram, IvmShape, JoinShape, KeyOrder,
    Lowering, RowOp, StreamPrefix, IVM_INPUT,
};
pub use state::{gcd, IvmState, MatchCounts, WindowOutput, WindowView};
