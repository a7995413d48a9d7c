//! Slice-store membership — the paper's "Jellybean processing" (§2.2)
//! and its refs \[4] (resource sharing in sliding-window aggregates) and
//! \[12] (on-the-fly sharing for streamed aggregation).
//!
//! Every CQ is a *member* of a slice store ([`streamrel_ivm::IvmState`]),
//! whatever its window — there is one place a window's tuples live. What
//! differs is the slice payload: the partials of the shape a plan lowers
//! to, or, for a plan that does not lower (and for every plan with `ivm`
//! off), the raw rows the whole plan is re-evaluated over ([`place`]); and
//! the clock the store slices on ([`streamrel_ivm::Clock`]): event time,
//! the tuple ordinal of a ROWS window or the batch ordinal of a SLICES
//! window. CQs
//! whose shapes agree — same stream, prefix ops and anchor, *different
//! windows* — pool into one event-time store, so each arriving tuple is
//! folded, or buffered, once regardless of how many CQs are registered
//! (per-tuple cost O(1) in the number of queries, which experiment E3
//! measures). A [`SharedGroup`] is that membership: the member windows,
//! the gcd slice width across them, the slowest member's eviction horizon,
//! and what each member owns — its close cursor and, for a sliding window,
//! its running window view. The slices, the per-tuple fold, the view's
//! add/retract and the slice merge it is rebuilt with are the store's.
//! With pooling off, for a window a live store's grid cannot take, and on
//! an ordinal clock — ordinals count from the member's own registration —
//! the pool has one member.
//!
//! What a close costs: a member that holds a view pays for the keys of
//! the slices that enter and leave its window and the rows it emits, not
//! for VISIBLE ÷ width slices. A view is (re)built at the member's first
//! close and after [`SharedRegistry::resume_after`]; tumbling members and
//! stores with float sums keep none ([`IvmState::close_window`]). A member
//! whose `ORDER BY` places every key brings its [`KeyOrder`], and its view
//! emits in it; the store, and its fingerprint, are the same either way.
//!
//! Ownership: a [`SharedRegistry`] is the set of stores reading one
//! stream, base or derived. The engine keeps it by value in that stream's
//! runtime, under
//! the shard lock that already covers the stream's reorder buffer and CQs
//! — a store has no lock of its own, and a member CQ holds only its
//! [`Slot`]. One call, [`SharedRegistry::advance`], takes a batch (or a
//! heartbeat) through fold → close (add → emit → retract) → evict for
//! every store — each a job on the engine's pool — and every member.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use streamrel_exec::RelationSource;
use streamrel_ivm::{
    gcd, lower_with, rows_program, IvmProgram, IvmShape, IvmState, KeyOrder, Lowering, MatchCounts,
    WindowOutput, WindowView,
};
use streamrel_obs::IvmMetrics;
use streamrel_sql::plan::LogicalPlan;
use streamrel_storage::StorageEngine;
use streamrel_types::{Error, Interval, Result, Row, Timestamp};

use crate::consistency::SnapshotSource;
use crate::pool::WorkerPool;

/// Split a CQ plan into the shape a pooled store maintains plus the
/// *post-plan* that consumes the composed anchor output — [`lower_with`]
/// under pooling. `None` when the plan does not lower.
pub fn extract_shape(plan: &LogicalPlan) -> Option<(IvmShape, LogicalPlan)> {
    match lower_with(plan, true) {
        Lowering::Lowered(p) => Some((p.shape, p.post_plan)),
        Lowering::Fallback(_) => None,
    }
}

/// `EXPLAIN CHECK`'s fallback reason when `DbOptions::ivm` is off.
const REASON_DISABLED: &str = "incremental view maintenance disabled by engine options";

/// Where a continuous plan's window state lives.
pub struct Placement {
    /// The slice-store membership of the window: what the store keeps and
    /// what runs over it at each close — the lowered program, or, with a
    /// `fallback`, raw rows and the whole plan. `None` only for a scan with
    /// no window bound, which admission rejects.
    pub program: Option<Box<IvmProgram>>,
    /// Why the plan is re-evaluated rather than maintained; stable text
    /// for `EXPLAIN CHECK` and the `ivm.fallback` counter.
    pub fallback: Option<&'static str>,
    /// Slice width of the live pooled store this (lowered) window cannot
    /// divide into; the CQ then gets a private store.
    pub grid_mismatch: Option<Interval>,
}

/// The one placement decision, shared by registration and `EXPLAIN
/// CHECK`. [`lower_with`] judges what is *maintained*: a plan that lowers
/// joins a store of its shape's partials. Any other plan — every count
/// window, and every plan with `ivm` off — joins a store of raw rows that
/// the plan itself re-evaluates. Either way an event-time store is the
/// pooled one for its shape under `sharing`, else a private one.
/// `registry` is the live store set of the stream the plan scans.
pub fn place(
    plan: &LogicalPlan,
    sharing: bool,
    ivm: bool,
    registry: Option<&SharedRegistry>,
) -> Placement {
    let lowering = if ivm {
        lower_with(plan, sharing)
    } else {
        Lowering::Fallback(REASON_DISABLED)
    };
    match lowering {
        Lowering::Lowered(program) => Placement {
            grid_mismatch: registry
                .filter(|_| sharing)
                .and_then(|r| r.grid_mismatch(&program)),
            program: Some(program),
            fallback: None,
        },
        Lowering::Fallback(reason) => Placement {
            program: rows_program(plan),
            fallback: Some(reason),
            grid_mismatch: None,
        },
    }
}

/// Smallest multiple of `advance` strictly greater than `watermark`: the
/// first close boundary not yet emitted when resuming after `watermark`,
/// and the first one a window aligns to after a tuple at `watermark`.
fn align_next_close(watermark: Timestamp, advance: i64) -> Timestamp {
    (watermark.div_euclid(advance) + 1) * advance
}

/// Registered window requirements of one member query, and where it stands.
struct Member {
    visible: Interval,
    advance: Interval,
    /// The member's next close boundary on the store's clock — the only
    /// close cursor a window has. On event time `None` until the first
    /// *tuple* after registration fixes the alignment (a heartbeat alone
    /// never does), and [`SharedRegistry::resume_after`] re-aligns it; an
    /// ordinal clock fixes it at registration.
    next_close: Option<Timestamp>,
    /// What a sliding member carries from one close to the next.
    view: Option<WindowView>,
    /// The order the member's `ORDER BY` gives its keys, which its view
    /// then emits in; members of one store may differ in it.
    order: Option<KeyOrder>,
    /// A join member pinned to one snapshot (`QueryStart`) scales by the
    /// counts it read there when it registered; the others by the store's.
    frozen: Frozen,
}

/// The match counts a join member pinned to one snapshot read there.
pub type Frozen = Option<Arc<MatchCounts>>;

/// Identifier of a member within its group.
pub type MemberId = usize;

/// The membership of one slice store: which windows it serves and where
/// each stands.
pub struct SharedGroup {
    store: IvmState,
    /// Slot per [`MemberId`]; `None` once that member has left.
    members: Vec<Option<Member>>,
    /// Store bytes and keys already reported to the `ivm.state.bytes` and
    /// `ivm.keys` gauges.
    reported: (i64, i64),
}

impl SharedGroup {
    /// New group for a shape; slice width starts unconstrained and is
    /// fixed by the first member.
    pub fn new(shape: IvmShape) -> SharedGroup {
        SharedGroup {
            store: IvmState::for_shape(shape),
            members: Vec::new(),
            reported: (0, 0),
        }
    }

    /// The slice width the store needs with a `(visible, advance)` member
    /// added: the gcd across all member windows.
    fn width_with(&self, visible: Interval, advance: Interval) -> Interval {
        gcd(self.store.slice_width(), gcd(visible, advance))
    }

    /// Register a member window. Fails if data already flowed and the new
    /// member needs finer slices than the store maintains (the caller
    /// then gives that query a private store).
    pub fn register(&mut self, visible: Interval, advance: Interval) -> Result<MemberId> {
        self.store.reslice(self.width_with(visible, advance))?;
        self.members.push(Some(Member {
            visible,
            advance,
            next_close: self.store.first_close(visible, advance),
            view: None,
            order: None,
            frozen: None,
        }));
        Ok(self.members.len() - 1)
    }

    /// Register `program`'s window, whose view emits in its key order and
    /// a pinned join's scales by `frozen`.
    fn admit(&mut self, program: &IvmProgram, frozen: &Frozen) -> Result<MemberId> {
        let member = self.register(program.visible, program.advance)?;
        if let Some(m) = &mut self.members[member] {
            m.order.clone_from(&program.order);
            m.frozen.clone_from(frozen);
        }
        Ok(member)
    }

    /// Remove a member: its window no longer pins the eviction horizon.
    /// Returns true when it was the last one — the store is then empty.
    pub fn leave(&mut self, member: MemberId) -> bool {
        let left = self.members[member].take();
        self.store.forget(left.and_then(|m| m.view));
        self.evict();
        self.members.iter().all(Option::is_none)
    }

    /// Fold one stream tuple into the store (called once per tuple for
    /// the whole group — this is where the sharing pays off).
    pub fn on_tuple(&mut self, row: &Row) -> Result<()> {
        self.store.on_tuple(row)
    }

    /// Compose the anchor output for a member's window
    /// `[close - visible, close)` — a join member's against its frozen
    /// counts, or the ones the store last read.
    pub fn window_result(&self, member: MemberId, close: Timestamp) -> Result<WindowOutput> {
        let m = self.members[member]
            .as_ref()
            .ok_or_else(|| Error::stream("slice-store member already left"))?;
        let counts = m.frozen.as_deref().or(self.store.memo());
        self.store.compose(close - m.visible, close, counts)
    }

    /// One store's share of a batch ([`SharedGroup::fold_and_close`]): a
    /// store that fails closes nothing from it, and reports its error.
    fn advance(
        &mut self,
        id: StoreId,
        rows: &[Row],
        bound: Option<Timestamp>,
        tables: Option<&dyn RelationSource>,
    ) -> Advanced {
        let mut out = Advanced::default();
        if let Err(e) = self.fold_and_close(id, rows, bound, tables, &mut out) {
            out.closed.clear();
            out.failed.push((id, e));
        }
        out
    }

    /// Fold a batch of stream tuples (CQTIME order) under its `bound` (a
    /// heartbeat's time, a derived batch's close) onto the store's clock
    /// ([`IvmState::take`]), then close every window of every member due by
    /// the reading the batch reached, adding each to `out` in close order
    /// under slot `(id, member)` with its `cq_close` stamp; finally evict
    /// what no member can reach. Closing after the fold is safe: a tuple
    /// at `ts >= close` lands in a slice outside `[close - visible, close)`,
    /// and the slices below a close are sealed (a base stream admits no
    /// tuple older than one it has taken). A join store reads its counts
    /// through `tables`, the window-boundary snapshot, at most once for
    /// the batch.
    fn fold_and_close(
        &mut self,
        id: StoreId,
        rows: &[Row],
        bound: Option<Timestamp>,
        tables: Option<&dyn RelationSource>,
        out: &mut Advanced,
    ) -> Result<()> {
        let s = &self.store;
        let before = (s.delta_rows(), s.merges(), s.table_scans());
        let taken = self.store.take(rows, bound);
        out.delta_rows += self.store.delta_rows() - before.0;
        let (first, upto) = taken?;
        let Some(upto) = upto else {
            return Ok(());
        };
        let (joins, mut boundary) = (matches!(self.store.shape(), IvmShape::JoinAgg { .. }), None);
        for (member, m) in self.members.iter_mut().enumerate() {
            let Some(m) = m else { continue };
            // A derived stream repeats a close when a ROWS window upstream
            // closes twice on one timestamp: the second batch lands in a
            // slice the view already took, so the view is rebuilt.
            let closed = m.view.as_ref().and_then(WindowView::closed);
            if first.zip(closed).is_some_and(|(ts, closed)| ts < closed) {
                self.store.forget(m.view.take());
            }
            if m.next_close.is_none() {
                m.next_close = first.map(|ts| align_next_close(ts, m.advance));
            }
            let Some(close) = &mut m.next_close else {
                continue;
            };
            while *close <= upto {
                if joins && m.frozen.is_none() && boundary.is_none() {
                    let no_table = || Error::stream("a join store closes with no table");
                    boundary = Some(self.store.counts_at(tables.ok_or_else(no_table)?)?);
                }
                let counts = m.frozen.as_deref().or(boundary.as_deref());
                let (view, order) = (&mut m.view, m.order.as_ref());
                let w =
                    (self.store).close_window(view, m.visible, m.advance, order, *close, counts)?;
                let stamp = self.store.close_stamp(*close);
                out.closed.entry((id, member)).or_default().push((stamp, w));
                *close += m.advance;
            }
        }
        out.merges += self.store.merges() - before.1;
        out.table_scans += self.store.table_scans() - before.2;
        self.evict();
        (out.bytes, out.keys) = self.settle();
        Ok(())
    }

    /// Drop slices no member's future window can reach: the horizon is
    /// the low edge of the slowest member's *next* window. A member whose
    /// alignment is
    /// not fixed yet may still need every slice, so eviction waits for it;
    /// with no member left, nothing is reachable.
    fn evict(&mut self) {
        let mut horizon = Timestamp::MAX;
        for m in self.members.iter().flatten() {
            match m.next_close {
                Some(c) => horizon = horizon.min(c - m.visible),
                None => return,
            }
        }
        self.store.evict(horizon);
    }

    /// Change in bytes (frozen counts too) and keys held since the last
    /// call: what the caller adds to the gauges, which sum stores.
    fn settle(&mut self) -> (i64, i64) {
        let frozen = |m: &Member| m.frozen.as_ref().map_or(0, |c| c.bytes());
        let frozen: usize = self.members.iter().flatten().map(frozen).sum();
        let bytes = (self.store.state_bytes() + frozen) as i64;
        let was = std::mem::replace(&mut self.reported, (bytes, self.store.keys() as i64));
        (bytes - was.0, self.reported.1 - was.1)
    }
}

/// Identifier of a store within its stream's [`SharedRegistry`].
pub type StoreId = u64;

/// Where a sliced CQ's window state lives: its store and its member id.
pub type Slot = (StoreId, MemberId);

/// What one [`SharedRegistry::advance`] call did.
#[derive(Default)]
pub struct Advanced {
    /// Tuples folded, summed over stores (the `ivm.delta.rows` counter).
    pub delta_rows: u64,
    /// Key partials closes merged and slices they probed (the
    /// `ivm.compose.merges` counter).
    pub merges: u64,
    /// Reads of join stores' tables (the `ivm.join.table_scans` counter).
    pub table_scans: u64,
    /// Change in bytes held across stores (the `ivm.state.bytes` gauge).
    pub bytes: i64,
    /// Change in distinct keys held across stores (the `ivm.keys` gauge).
    pub keys: i64,
    /// The windows that closed, per member, in close order.
    pub closed: HashMap<Slot, Vec<(Timestamp, WindowOutput)>>,
    /// The stores that failed on the batch, in store order, with their
    /// errors: none of their members' windows closed.
    pub failed: Vec<(StoreId, Error)>,
}

impl Advanced {
    /// Add what the batch did to the `ivm.*` instruments.
    pub fn count(&self, ivm: &IvmMetrics) {
        ivm.delta_rows.add(self.delta_rows);
        ivm.compose_merges.add(self.merges);
        ivm.table_scans.add(self.table_scans);
        ivm.state_bytes.add(self.bytes);
        ivm.keys.add(self.keys);
    }

    fn absorb(&mut self, other: Advanced) {
        self.delta_rows += other.delta_rows;
        self.merges += other.merges;
        self.table_scans += other.table_scans;
        self.bytes += other.bytes;
        self.keys += other.keys;
        self.closed.extend(other.closed);
        self.failed.extend(other.failed);
    }
}

/// The slice stores reading one stream: pooled by shape fingerprint, plus
/// the private ones.
#[derive(Default)]
pub struct SharedRegistry {
    stores: BTreeMap<StoreId, SharedGroup>,
    /// Shape fingerprint → the pooled store for that shape.
    pooled: HashMap<String, StoreId>,
    next_id: StoreId,
}

impl SharedRegistry {
    /// Make `program`'s window a member of a store: the pooled store for
    /// its shape (created on first use) when `pooled`, else — or when that
    /// store's grid cannot take the window, or the window counts ordinals —
    /// a private one. A join member pinned to one snapshot brings the
    /// counts it read there (`frozen`). Returns the member's slot and
    /// whether its store is the pooled one.
    pub fn join(
        &mut self,
        program: &IvmProgram,
        pooled: bool,
        frozen: Frozen,
    ) -> Result<(Slot, bool)> {
        if !pooled || program.shape.prefix().clock.is_ordinal() {
            return Ok((self.add_store(program, &frozen)?, false));
        }
        let key = program.shape.fingerprint();
        let Some(&id) = self.pooled.get(&key) else {
            let slot = self.add_store(program, &frozen)?;
            self.pooled.insert(key, slot.0);
            return Ok((slot, true));
        };
        match self.stores.get_mut(&id).map(|s| s.admit(program, &frozen)) {
            Some(Ok(member)) => Ok(((id, member), true)),
            _ => Ok((self.add_store(program, &frozen)?, false)),
        }
    }

    /// A new store with `program`'s window as its first member.
    fn add_store(&mut self, program: &IvmProgram, frozen: &Frozen) -> Result<Slot> {
        let mut store = SharedGroup::new(program.shape.clone());
        let member = store.admit(program, frozen)?;
        self.next_id += 1;
        self.stores.insert(self.next_id, store);
        Ok((self.next_id, member))
    }

    /// Remove a member; its store goes with its last member. Returns the
    /// change in bytes and in keys held (for the `ivm.state.bytes` and
    /// `ivm.keys` gauges).
    pub fn leave(&mut self, (id, member): Slot) -> (i64, i64) {
        let Some(store) = self.stores.get_mut(&id) else {
            return (0, 0);
        };
        if !store.leave(member) {
            return store.settle();
        }
        // The store goes, and everything it held leaves the account.
        self.pooled.retain(|_, pooled| *pooled != id);
        let gone = self.stores.remove(&id).map_or((0, 0), |gone| gone.reported);
        (-gone.0, -gone.1)
    }

    /// Resume a member after recovery: windows closing at or before
    /// `watermark` were already emitted, so its cursor moves to the next
    /// boundary on its advance grid. Returns that boundary; `None` on an
    /// ordinal clock, whose cursor no watermark names.
    pub fn resume_after(&mut self, (id, member): Slot, watermark: Timestamp) -> Option<Timestamp> {
        let store = self.stores.get_mut(&id)?;
        if store.store.clock().is_ordinal() {
            return None;
        }
        let m = store.members[member].as_mut()?;
        m.next_close = Some(align_next_close(watermark, m.advance));
        m.next_close
    }

    /// Take one batch of the stream's tuples (CQTIME order) — or, with no
    /// tuples and a `bound`, a heartbeat — through every store: fold onto
    /// its clock, close what is due, evict. A `replay` of archived rows at
    /// open reaches only the event-time stores: an ordinal one has no
    /// cursor to resume and would count the rows twice. The stores share
    /// no state, so with a `pool` each advances as a job of its own;
    /// results come back in store order, so what is returned is what
    /// serial execution returns. When a join store's closes read the
    /// window boundary, one snapshot of `engine` is pinned for the batch
    /// and every such store reads it.
    pub fn advance(
        &mut self,
        rows: &Arc<[Row]>,
        bound: Option<Timestamp>,
        replay: bool,
        pool: Option<&WorkerPool>,
        engine: Option<&Arc<StorageEngine>>,
    ) -> Advanced {
        let mut out = Advanced::default();
        let (stores, skipped): (BTreeMap<_, _>, _) = std::mem::take(&mut self.stores)
            .into_iter()
            .partition(|(_, g)| !replay || !g.store.clock().is_ordinal());
        self.stores = skipped;
        let joins = |g: &SharedGroup| matches!(g.store.shape(), IvmShape::JoinAgg { .. });
        let boundary = (engine.filter(|_| stores.values().any(joins)))
            .map(|e| Arc::new(SnapshotSource::pin(e.clone())));
        let parallel = pool.filter(|p| p.workers() > 0 && stores.len() > 1);
        let jobs = stores.into_iter().map(|(id, mut store)| {
            let (rows, boundary) = (rows.clone(), boundary.clone());
            move || {
                let tables = boundary.as_deref().map(|s| s as &dyn RelationSource);
                let done = store.advance(id, &rows, bound, tables);
                (id, store, done)
            }
        });
        let done = match parallel {
            Some(pool) => pool.run_ordered(jobs.collect()),
            None => jobs.map(|job| job()).collect(),
        };
        for (id, store, done) in done {
            self.stores.insert(id, store);
            out.absorb(done);
        }
        out
    }

    /// Slice width of the live pooled store `program` would join, when
    /// that store's grid cannot take the program's window.
    fn grid_mismatch(&self, program: &IvmProgram) -> Option<Interval> {
        let id = self.pooled.get(&program.shape.fingerprint())?;
        let g = self.stores.get(id)?;
        let needed = g.width_with(program.visible, program.advance);
        (!g.store.can_reslice(needed)).then(|| g.store.slice_width())
    }

    /// Number of live stores.
    pub fn len(&self) -> usize {
        self.stores.len()
    }

    /// True if no stores exist.
    pub fn is_empty(&self) -> bool {
        self.stores.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamrel_ivm::{AggShape, Clock, StreamPrefix};
    use streamrel_sql::plan::{AggFunc, AggSpec, BoundExpr};
    use streamrel_types::time::MINUTES;
    use streamrel_types::{row, Column, DataType, Schema, Value};

    /// Event time, the stream row's CQTIME at 1.
    fn time(derived: bool) -> Clock {
        Clock::Time { cqtime: 1, derived }
    }

    fn prefix_on(stream: &str, clock: Clock) -> StreamPrefix {
        StreamPrefix {
            stream: stream.into(),
            input_schema: Arc::new(
                Schema::new(vec![
                    Column::new("url", DataType::Text),
                    Column::not_null("atime", DataType::Timestamp),
                ])
                .unwrap(),
            ),
            clock,
            ops: vec![],
        }
    }

    fn shape_on(stream: &str) -> IvmShape {
        IvmShape::Agg {
            prefix: prefix_on(stream, time(false)),
            agg: AggShape {
                group_exprs: vec![BoundExpr::Column {
                    index: 0,
                    ty: DataType::Text,
                }],
                aggs: vec![AggSpec {
                    func: AggFunc::Count,
                    arg: None,
                    distinct: false,
                    name: "count".into(),
                    ty: DataType::Int,
                }],
                schema: Arc::new(Schema::new_unchecked(vec![
                    Column::new("url", DataType::Text),
                    Column::new("count", DataType::Int),
                ])),
            },
        }
    }

    fn shape() -> IvmShape {
        shape_on("url_stream")
    }

    fn program(visible: Interval, advance: Interval) -> IvmProgram {
        IvmProgram {
            shape: shape(),
            post_plan: LogicalPlan::OneRow,
            visible,
            advance,
            order: None,
        }
    }

    fn tup(url: &str, ts: i64) -> Row {
        row![url, Value::Timestamp(ts)]
    }

    fn rows(out: WindowOutput) -> Vec<Row> {
        out.into_relation().rows().to_vec()
    }

    #[test]
    fn slice_width_is_gcd() {
        let mut g = SharedGroup::new(shape());
        g.register(5 * MINUTES, MINUTES).unwrap();
        assert_eq!(g.store.slice_width(), MINUTES);
        g.register(10 * MINUTES, 2 * MINUTES).unwrap();
        assert_eq!(g.store.slice_width(), MINUTES);
    }

    #[test]
    fn reslicing_with_data_rejected() {
        let mut g = SharedGroup::new(shape());
        g.register(4 * MINUTES, 2 * MINUTES).unwrap();
        g.on_tuple(&tup("/a", 10)).unwrap();
        assert_eq!(g.width_with(3 * MINUTES, MINUTES), MINUTES);
        assert!(g.register(3 * MINUTES, MINUTES).is_err());
        // A window the live grid divides into still joins.
        assert!(g.register(8 * MINUTES, 4 * MINUTES).is_ok());
    }

    #[test]
    fn each_member_composes_its_own_visible() {
        let mut g = SharedGroup::new(shape());
        let wide = g.register(2 * MINUTES, MINUTES).unwrap();
        let narrow = g.register(MINUTES, MINUTES).unwrap();
        g.on_tuple(&tup("/a", 10)).unwrap();
        g.on_tuple(&tup("/a", 20)).unwrap();
        g.on_tuple(&tup("/b", MINUTES + 5)).unwrap();
        assert_eq!(
            rows(g.window_result(wide, 2 * MINUTES).unwrap()),
            vec![row!["/a", 2i64], row!["/b", 1i64]]
        );
        assert_eq!(
            rows(g.window_result(narrow, 2 * MINUTES).unwrap()),
            vec![row!["/b", 1i64]]
        );
    }

    #[test]
    fn tuple_processed_once_for_many_members() {
        let mut g = SharedGroup::new(shape());
        for _ in 0..16 {
            g.register(5 * MINUTES, MINUTES).unwrap();
        }
        for i in 0..100 {
            g.on_tuple(&tup("/a", i)).unwrap();
        }
        assert_eq!(g.store.delta_rows(), 100, "work is per tuple, not per CQ");
    }

    /// Closes `advance` emits, as `(member, close)` in member × close order.
    fn closes(g: &mut SharedGroup, rows: &[Row], bound: Option<Timestamp>) -> Vec<(usize, i64)> {
        let out = g.advance(0, rows, bound, None);
        assert!(out.failed.is_empty());
        let mut closes: Vec<_> = out
            .closed
            .iter()
            .flat_map(|((_, m), w)| w.iter().map(|(close, _)| (*m, *close)))
            .collect();
        closes.sort();
        closes
    }

    fn ten_minutes_of_data(g: &mut SharedGroup) {
        let rows: Vec<Row> = (0..10).map(|i| tup("/a", i * MINUTES + 1)).collect();
        closes(g, &rows, None);
    }

    #[test]
    fn eviction_respects_slowest_member() {
        let mut g = SharedGroup::new(shape());
        g.register(MINUTES, MINUTES).unwrap();
        g.register(10 * MINUTES, MINUTES).unwrap();
        // Both cursors stand at 10 min: the slow member's next window is
        // [0, 10 min), so nothing is evictable.
        ten_minutes_of_data(&mut g);
        assert_eq!(g.store.slice_count(), 10);
        // At 12 min the horizon is min(12-1, 12-10) = 2 min.
        closes(&mut g, &[], Some(11 * MINUTES));
        assert_eq!(g.store.slice_count(), 8);
    }

    #[test]
    fn first_tuple_fixes_alignment_and_heartbeats_alone_do_not() {
        let mut g = SharedGroup::new(shape());
        let early = g.register(MINUTES, MINUTES).unwrap();
        assert_eq!(closes(&mut g, &[], Some(3 * MINUTES)), vec![]);
        // The tuple at 6 min aligns the cursor at 7 min — not at the
        // heartbeat's 4 min — and a member that joins later aligns on the
        // first tuple *it* sees.
        assert_eq!(closes(&mut g, &[tup("/a", 6 * MINUTES)], None), vec![]);
        let late = g.register(2 * MINUTES, 2 * MINUTES).unwrap();
        assert_eq!(
            closes(&mut g, &[], Some(7 * MINUTES)),
            vec![(early, 7 * MINUTES)]
        );
        assert_eq!(
            closes(&mut g, &[tup("/a", 9 * MINUTES + 1)], Some(10 * MINUTES)),
            vec![
                (early, 8 * MINUTES),
                (early, 9 * MINUTES),
                (early, 10 * MINUTES),
                (late, 10 * MINUTES)
            ]
        );
    }

    #[test]
    fn departed_members_stop_pinning_the_horizon() {
        let mut g = SharedGroup::new(shape());
        let fast = g.register(MINUTES, MINUTES).unwrap();
        let slow = g.register(10 * MINUTES, MINUTES).unwrap();
        ten_minutes_of_data(&mut g);
        // `silent` joins after the data and leaves before its first close,
        // `slow` after nine: neither may hold slices the survivor's next
        // window cannot reach.
        let silent = g.register(MINUTES, MINUTES).unwrap();
        assert!(!g.leave(silent));
        assert!(!g.leave(slow));
        assert_eq!(g.store.slice_count(), 1);
        assert!(g.window_result(slow, 10 * MINUTES).is_err());
        // The last member takes the store's contents with it.
        assert!(g.leave(fast));
        assert_eq!(g.store.slice_count(), 0);
        assert_eq!(g.store.state_bytes(), 0);
    }

    #[test]
    fn registry_pools_by_fingerprint_and_drops_a_store_with_its_last_member() {
        let mut reg = SharedRegistry::default();
        let ((s1, m1), pooled) = join(&mut reg, &program(2 * MINUTES, MINUTES), true, None);
        assert!(pooled);
        let ((s2, m2), _) = join(&mut reg, &program(4 * MINUTES, 2 * MINUTES), true, None);
        assert_eq!(s1, s2);
        let mut other = program(MINUTES, MINUTES);
        other.shape = shape_on("other_stream");
        let ((s3, _), _) = join(&mut reg, &other, true, None);
        assert_ne!(s1, s3);
        assert_eq!(reg.len(), 2);

        // Pooling off, or a grid the live store cannot take: a private
        // store.
        let ((p, _), pooled) = join(&mut reg, &program(2 * MINUTES, MINUTES), false, None);
        assert!(!pooled && p != s1);
        let out = reg.advance(&Arc::from([tup("/a", 10)]), None, false, None, None);
        assert_eq!(out.delta_rows, 3, "one fold per store");
        assert!(out.bytes > 0 && out.closed.is_empty());
        assert_eq!(out.keys, 3, "one key in each store");
        let fine = program(90 * 1_000_000, 30 * 1_000_000);
        assert_eq!(reg.grid_mismatch(&fine), Some(MINUTES));
        let ((q, _), pooled) = join(&mut reg, &fine, true, None);
        assert!(!pooled && q != s1);
        assert_eq!(reg.len(), 4);

        // A pooled store goes with its last member, and its bytes and keys
        // with it; the next member of that shape starts a fresh one.
        assert_eq!(reg.leave((s1, m1)), (0, 0));
        assert_eq!(reg.len(), 4);
        let gone = reg.leave((s1, m2));
        assert!(gone.0 < 0 && gone.1 == -1, "{gone:?}");
        assert_eq!(reg.len(), 3);
        assert_eq!(reg.grid_mismatch(&fine), None);
        let ((s4, _), pooled) = join(&mut reg, &fine, true, None);
        assert!(pooled && s4 != s1);
    }

    /// `<VISIBLE n ROWS ADVANCE m ROWS>` over a stream with a CQTIME.
    const ROWS: Clock = Clock::Rows { cqtime: Some(1) };

    /// [`SharedRegistry::join`], which a test expects to succeed.
    fn join(
        reg: &mut SharedRegistry,
        p: &IvmProgram,
        pooled: bool,
        frozen: Frozen,
    ) -> (Slot, bool) {
        reg.join(p, pooled, frozen).unwrap()
    }

    fn rows_program(clock: Clock, visible: Interval, advance: Interval) -> IvmProgram {
        IvmProgram {
            shape: IvmShape::Rows {
                prefix: prefix_on("url_stream", clock),
            },
            post_plan: LogicalPlan::OneRow,
            visible,
            advance,
            order: None,
        }
    }

    /// One time window over a raw-rows store, driven the way a stream
    /// drives it: batches (and bounds) in, `(close, rows)` out.
    struct RowsWindow {
        stores: SharedRegistry,
        slot: Slot,
    }

    impl RowsWindow {
        fn over(visible: Interval, advance: Interval, derived: bool) -> RowsWindow {
            RowsWindow::on(time(derived), visible, advance)
        }

        fn on(clock: Clock, visible: Interval, advance: Interval) -> RowsWindow {
            let mut stores = SharedRegistry::default();
            let program = rows_program(clock, visible, advance);
            let (slot, _) = join(&mut stores, &program, true, None);
            RowsWindow { stores, slot }
        }

        fn base(visible: Interval, advance: Interval) -> RowsWindow {
            RowsWindow::over(visible, advance, false)
        }

        fn feed(&mut self, batch: &[Row], bound: Option<Timestamp>) -> Vec<(Timestamp, Vec<Row>)> {
            let mut out = self.stores.advance(&batch.into(), bound, false, None, None);
            assert!(out.failed.is_empty());
            let closed = out.closed.remove(&self.slot).unwrap_or_default();
            closed.into_iter().map(|(c, w)| (c, rows(w))).collect()
        }

        fn push(&mut self, ts: i64) -> Vec<(Timestamp, Vec<Row>)> {
            self.feed(&[tup("x", ts)], None)
        }

        fn slices(&self) -> usize {
            self.stores.stores[&self.slot.0].store.slice_count()
        }
    }

    fn lens(closed: &[(Timestamp, Vec<Row>)]) -> Vec<(Timestamp, usize)> {
        closed.iter().map(|(c, rows)| (*c, rows.len())).collect()
    }

    #[test]
    fn tumbling_window_closes_on_boundary_crossing() {
        let mut w = RowsWindow::base(MINUTES, MINUTES);
        assert!(w.push(10).is_empty());
        assert!(w.push(30).is_empty());
        let closed = w.push(MINUTES + 5);
        assert_eq!(closed, vec![(MINUTES, vec![tup("x", 10), tup("x", 30)])]);
    }

    #[test]
    fn paper_example_2_sliding_window() {
        // VISIBLE 5 minutes ADVANCE 1 minute: every minute, the last 5.
        // One tuple per 30 s for 7 minutes, each strictly inside its slice.
        let mut w = RowsWindow::base(5 * MINUTES, MINUTES);
        let closed: Vec<_> = (0..14).flat_map(|i| w.push(i * 30_000_000 + 1)).collect();
        // Tuples reach 6.5 min: closes at 1..6 minutes; the window fills
        // for five minutes and then stays saturated at 10 tuples.
        let minutes = |m: i64| m * MINUTES;
        assert_eq!(
            lens(&closed),
            vec![
                (minutes(1), 2),
                (minutes(2), 4),
                (minutes(3), 6),
                (minutes(4), 8),
                (minutes(5), 10),
                (minutes(6), 10)
            ]
        );
        // What no future window can see is gone.
        assert!(w.slices() <= 5, "slices = {}", w.slices());
    }

    #[test]
    fn heartbeat_closes_empty_windows_and_they_still_emit() {
        let mut w = RowsWindow::base(MINUTES, MINUTES);
        w.push(10);
        let closed = w.feed(&[], Some(3 * MINUTES));
        assert_eq!(
            lens(&closed),
            vec![(MINUTES, 1), (2 * MINUTES, 0), (3 * MINUTES, 0)]
        );
    }

    #[test]
    fn boundary_tuple_belongs_to_the_next_window() {
        let mut w = RowsWindow::base(MINUTES, MINUTES);
        w.push(10);
        // A tuple exactly at the boundary fires the window but is not in
        // it (half-open interval) ...
        assert_eq!(lens(&w.push(MINUTES)), vec![(MINUTES, 1)]);
        // ... and stays in the next one, whatever arrives in between.
        w.push(MINUTES + 1);
        let closed = w.feed(&[], Some(2 * MINUTES));
        assert_eq!(
            closed,
            vec![(2 * MINUTES, vec![tup("x", MINUTES), tup("x", MINUTES + 1)])]
        );
    }

    #[test]
    fn derived_batches_are_inclusive_at_the_close() {
        // A derived stream's batch is stamped at its close and bounded by
        // it: it belongs to the window closing there, and a batch just
        // past a boundary to the next.
        let mut w = RowsWindow::over(2 * MINUTES, MINUTES, true);
        let batch = |close| [tup("x", close)];
        assert_eq!(
            lens(&w.feed(&batch(MINUTES), Some(MINUTES))),
            vec![(MINUTES, 1)]
        );
        assert_eq!(
            lens(&w.feed(&batch(2 * MINUTES), Some(2 * MINUTES))),
            vec![(2 * MINUTES, 2)]
        );
        // A heartbeat-only upstream window is an empty batch: it closes.
        assert_eq!(
            w.feed(&[], Some(3 * MINUTES)),
            vec![(3 * MINUTES, vec![tup("x", 2 * MINUTES)])]
        );
        // An unaligned batch (a ROWS window upstream) aligns on the first
        // boundary at or after it.
        let mut w = RowsWindow::over(MINUTES, MINUTES, true);
        assert!(w.feed(&batch(MINUTES + 7), Some(MINUTES + 7)).is_empty());
        assert_eq!(
            lens(&w.feed(&batch(2 * MINUTES), Some(2 * MINUTES))),
            vec![(2 * MINUTES, 2)]
        );
    }

    #[test]
    fn visible_not_multiple_of_advance_still_correct() {
        // VISIBLE 90 s ADVANCE 60 s, on 30 s slices.
        let mut w = RowsWindow::base(90 * 1_000_000, MINUTES);
        let mut closed: Vec<_> = (0..6).flat_map(|i| w.push(i * 30_000_000 + 1)).collect();
        closed.extend(w.feed(&[], Some(2 * MINUTES)));
        // [-30 s, 60 s) holds the tuples at 0 s and 30 s; [30 s, 120 s)
        // those at 30, 60 and 90 s.
        assert_eq!(lens(&closed), vec![(MINUTES, 2), (2 * MINUTES, 3)]);
    }

    #[test]
    fn resume_skips_emitted_windows_and_realigns() {
        let mut w = RowsWindow::base(MINUTES, MINUTES);
        w.stores.resume_after(w.slot, 5 * MINUTES);
        // A tuple at 5.5 minutes does not fire windows 1..5.
        assert!(w.push(5 * MINUTES + 30_000_000).is_empty());
        assert_eq!(
            lens(&w.feed(&[], Some(6 * MINUTES))),
            vec![(6 * MINUTES, 1)]
        );
        // Resuming from a watermark off the grid (a mid-window crash)
        // rounds *up* to it, not to watermark + advance.
        let mut w = RowsWindow::base(MINUTES, MINUTES);
        let next = w.stores.resume_after(w.slot, 5 * MINUTES + 30_000_000);
        assert_eq!(next, Some(6 * MINUTES));
        w.push(5 * MINUTES + 40_000_000);
        assert_eq!(
            lens(&w.feed(&[], Some(7 * MINUTES))),
            vec![(6 * MINUTES, 1), (7 * MINUTES, 0)]
        );
    }

    #[test]
    fn negative_timestamps_align_correctly() {
        let mut w = RowsWindow::base(MINUTES, MINUTES);
        w.push(-90_000_000); // -1.5 min
        assert_eq!(
            lens(&w.feed(&[], Some(0))),
            vec![(-MINUTES, 1), (0, 0)],
            "the window closing at -1 min holds it; the one at 0 does not"
        );
    }

    #[test]
    fn many_rows_windows_buffer_each_tuple_once() {
        let mut reg = SharedRegistry::default();
        let program = |visible, advance| rows_program(time(false), visible, advance);
        let slots: Vec<Slot> = (1..=8)
            .map(|k| join(&mut reg, &program(k * MINUTES, MINUTES), true, None).0)
            .collect();
        assert_eq!(reg.len(), 1, "one store for every re-evaluated window");
        let batch: Arc<[Row]> = (0..10).map(|i| tup("/a", i)).collect();
        let mut out = reg.advance(&batch, Some(MINUTES), false, None, None);
        assert_eq!(out.delta_rows, 0, "buffered, not folded");
        let one_copy = out.bytes;
        for slot in &slots {
            assert_eq!(
                rows(out.closed.remove(slot).unwrap().remove(0).1),
                &batch[..]
            );
        }
        // The same windows on private stores hold eight copies.
        let mut reg = SharedRegistry::default();
        for k in 1..=8 {
            join(&mut reg, &program(k * MINUTES, MINUTES), false, None);
        }
        let out = reg.advance(&batch, None, false, None, None);
        assert_eq!(out.bytes, 8 * one_copy);
    }

    #[test]
    fn a_repeated_derived_close_rebuilds_the_views_it_reopened() {
        // A ROWS window upstream closes twice on one timestamp: the second
        // batch lands in a slice the sliding view already took.
        let mut reg = SharedRegistry::default();
        let mut sliding = program(2 * MINUTES, MINUTES);
        sliding.shape = IvmShape::Agg {
            prefix: prefix_on("per_rows", time(true)),
            agg: match shape() {
                IvmShape::Agg { agg, .. } => agg,
                _ => unreachable!(),
            },
        };
        let (slot, _) = join(&mut reg, &sliding, true, None);
        let mut closes = |rows: &[Row], bound| {
            let mut out = reg.advance(&rows.into(), Some(bound), false, None, None);
            let closed = out.closed.remove(&slot).unwrap_or_default();
            closed
                .into_iter()
                .map(|(c, w)| (c, self::rows(w)))
                .collect::<Vec<_>>()
        };
        let at = |ts| [tup("/a", ts)];
        assert_eq!(
            closes(&at(MINUTES), MINUTES),
            vec![(MINUTES, vec![row!["/a", 1i64]])]
        );
        assert!(closes(&at(MINUTES), MINUTES).is_empty());
        assert_eq!(
            closes(&at(2 * MINUTES), 2 * MINUTES),
            vec![(2 * MINUTES, vec![row!["/a", 3i64]])],
            "the late batch counts in the next window, as re-evaluation has it"
        );
        assert_eq!(
            closes(&[], 3 * MINUTES),
            vec![(3 * MINUTES, vec![row!["/a", 1i64]])]
        );
    }

    #[test]
    fn closes_align_to_the_advance_grid_on_either_side_of_zero() {
        assert_eq!(align_next_close(0, 60), 60);
        assert_eq!(align_next_close(59, 60), 60);
        assert_eq!(align_next_close(60, 60), 120);
        assert_eq!(align_next_close(-90, 60), -60);
        assert_eq!(align_next_close(-60, 60), 0);
    }

    #[test]
    fn a_rows_window_closes_every_advance_rows_and_no_heartbeat_closes_it() {
        let mut w = RowsWindow::on(ROWS, 3, 2);
        let batch: Vec<Row> = (0..7).map(|ts| tup("x", ts)).collect();
        let mut closed = w.feed(&batch[..3], None);
        assert!(
            w.feed(&[], Some(100)).is_empty(),
            "a heartbeat moves no ordinal"
        );
        closed.extend(w.feed(&batch[3..], Some(6)));
        // Closes after rows 2, 4 and 6, the first window not yet full, each
        // stamped with the newest tuple time.
        assert_eq!(lens(&closed), vec![(1, 2), (3, 3), (5, 3)]);
        assert_eq!(closed[2].1, &batch[3..6]);
        // The next window is rows 5 to 7: nothing older is kept.
        assert_eq!(w.slices(), 2);
    }

    #[test]
    fn a_rows_window_stamps_negative_times_as_they_are() {
        // The newest time, not a zero default, even before the epoch.
        let mut w = RowsWindow::on(ROWS, 2, 2);
        let closed = w.feed(&[tup("x", -500), tup("x", -400)], None);
        assert_eq!(lens(&closed), vec![(-400, 2)]);
    }

    #[test]
    fn a_rows_window_with_no_cqtime_is_stamped_with_the_running_count() {
        let mut w = RowsWindow::on(Clock::Rows { cqtime: None }, 2, 2);
        let batch: Vec<Row> = (0..6).map(|i| tup("x", i)).collect();
        let stamps: Vec<Timestamp> = w.feed(&batch, None).iter().map(|(c, _)| *c).collect();
        assert_eq!(
            stamps,
            vec![2, 4, 6],
            "the running row count stands in for time"
        );
    }

    #[test]
    fn a_slices_window_concatenates_its_last_n_batches() {
        let mut w = RowsWindow::on(Clock::Batches, 2, 1);
        let first = w.feed(&[tup("a", 100)], Some(100));
        assert!(first.is_empty(), "nothing closes before the n-th batch");
        let closed = w.feed(&[tup("b", 200), tup("c", 200)], Some(200));
        assert_eq!(lens(&closed), vec![(200, 3)]);
        // Rolls forward: the next batch drops the oldest.
        let closed = w.feed(&[tup("d", 300)], Some(300));
        let rolled = vec![tup("b", 200), tup("c", 200), tup("d", 300)];
        assert_eq!(closed, vec![(300, rolled)]);
        assert_eq!(w.slices(), 1);
    }

    #[test]
    fn slices_1_passes_every_batch_through_an_empty_one_too() {
        let mut w = RowsWindow::on(Clock::Batches, 1, 1);
        let batch = vec![tup("a", 100)];
        assert_eq!(w.feed(&batch, Some(100)), vec![(100, batch)]);
        // An empty batch is still one upstream window.
        assert_eq!(w.feed(&[], Some(200)), vec![(200, vec![])]);
    }

    #[test]
    fn tuples_sent_into_a_slices_store_are_rejected() {
        let mut w = RowsWindow::on(Clock::Batches, 1, 1);
        let out = (w.stores).advance(&Arc::from([tup("a", 1)]), None, false, None, None);
        assert_eq!(out.failed.len(), 1);
        assert!(out.closed.is_empty());
    }

    #[test]
    fn count_stores_are_private_skip_replays_and_keep_their_cursor() {
        let mut reg = SharedRegistry::default();
        let counted = rows_program(ROWS, 2, 2);
        let (a, pooled) = join(&mut reg, &counted, true, None);
        let (b, _) = join(&mut reg, &counted, true, None);
        assert!(
            !pooled && a.0 != b.0,
            "ordinals count from each registration"
        );
        let (timed, _) = join(
            &mut reg,
            &rows_program(time(false), MINUTES, MINUTES),
            true,
            None,
        );
        assert_eq!(
            reg.resume_after(a, 5 * MINUTES),
            None,
            "no cursor to resume"
        );
        // A replay reaches the event-time store alone ...
        let batch: Arc<[Row]> = Arc::from([tup("/a", 10), tup("/b", 20)]);
        let out = reg.advance(&batch, Some(MINUTES), true, None, None);
        assert_eq!(out.closed.keys().collect::<Vec<_>>(), vec![&timed]);
        // ... and live rows every store: each ROWS member's first window.
        let mut out = reg.advance(&batch, None, false, None, None);
        for slot in [a, b] {
            let closed = out.closed.remove(&slot).unwrap();
            assert_eq!(
                closed
                    .iter()
                    .map(|(c, w)| (*c, w.len()))
                    .collect::<Vec<_>>(),
                vec![(20, 2)]
            );
        }
        assert!(out.closed.is_empty());
    }
}
