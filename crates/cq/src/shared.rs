//! Slice-store membership — the paper's "Jellybean processing" (§2.2)
//! and its refs \[4] (resource sharing in sliding-window aggregates) and
//! \[12] (on-the-fly sharing for streamed aggregation).
//!
//! Every lowered CQ is a *member* of a slice store
//! ([`streamrel_ivm::IvmState`]): CQs whose lowered shapes agree — same
//! stream, prefix ops and anchor, *different windows* — pool into one
//! store, so each arriving tuple is folded once regardless of how many
//! CQs are registered (per-tuple cost O(1) in the number of queries,
//! which experiment E3 measures). A [`SharedGroup`] is that membership and
//! nothing else: the member windows, the gcd slice width across them, and
//! the slowest member's eviction horizon. The slices, the per-tuple fold
//! and the slice-merge compose are the store's. With pooling off, or for
//! a window a live store's grid cannot take, the pool has one member.
//!
//! Concurrency: a [`SharedGroup`] is owned by an `Arc<Mutex<_>>` held by
//! the registry (pooled stores), by its stream's shard and by every
//! member CQ. Its declared place in the engine-wide lock order is the `g`
//! slot of `db.rs`'s `catalog < state < g < subs`: a group lock is only
//! ever taken after the catalog or shard-state lock and is never held
//! across any other acquisition.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use streamrel_ivm::{gcd, lower_with, IvmProgram, IvmShape, IvmState, Lowering, WindowOutput};
use streamrel_sql::plan::LogicalPlan;
use streamrel_types::{Error, Interval, Result, Row, Timestamp};

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
pub enum Placement {
    /// A raw window buffer, re-evaluated at each close; carries the stable
    /// fallback reason.
    Reeval(&'static str),
    /// Slice-store membership.
    Sliced {
        /// The lowered program.
        program: Box<IvmProgram>,
        /// Slice width of the live pooled store this window cannot divide
        /// into; the CQ then gets a private store.
        grid_mismatch: Option<Interval>,
    },
}

/// The one placement decision, shared by registration and `EXPLAIN
/// CHECK`: `ivm` off means pure re-evaluation; otherwise every plan that
/// lowers is sliced — pooled by shape fingerprint under `sharing`, on a
/// private store without it.
pub fn place(
    plan: &LogicalPlan,
    sharing: bool,
    ivm: bool,
    registry: Option<&SharedRegistry>,
) -> Placement {
    if !ivm {
        return Placement::Reeval(REASON_DISABLED);
    }
    match lower_with(plan, sharing) {
        Lowering::Fallback(reason) => Placement::Reeval(reason),
        Lowering::Lowered(program) => {
            let grid_mismatch = match registry {
                Some(r) if sharing => r.grid_mismatch(&program),
                _ => None,
            };
            Placement::Sliced {
                program,
                grid_mismatch,
            }
        }
    }
}

/// Registered window requirements of one member query.
#[derive(Debug, Clone, Copy)]
struct Member {
    visible: Interval,
    /// The member's next close boundary (for eviction horizon).
    next_close: Option<Timestamp>,
}

/// Identifier of a member within its group.
pub type MemberId = usize;

/// The membership of one slice store: which windows it serves.
pub struct SharedGroup {
    store: IvmState,
    /// Slot per [`MemberId`]; `None` once that member has left.
    members: Vec<Option<Member>>,
    /// Store bytes already reported to the `ivm.state.bytes` gauge.
    reported_bytes: i64,
}

impl SharedGroup {
    /// New group for a shape; slice width starts unconstrained and is
    /// fixed by the first member.
    pub fn new(shape: IvmShape) -> SharedGroup {
        SharedGroup {
            store: IvmState::for_shape(shape),
            members: Vec::new(),
            reported_bytes: 0,
        }
    }

    /// The slice store (shape, width, slice count, fold and byte counts).
    pub fn store(&self) -> &IvmState {
        &self.store
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
            next_close: None,
        }));
        Ok(self.members.len() - 1)
    }

    /// Remove a member: its window no longer pins the eviction horizon.
    /// Returns true when it was the last one — the store is then emptied,
    /// and the caller drops it from the registry and the shard.
    pub fn leave(&mut self, member: MemberId) -> bool {
        self.members[member] = None;
        let last = self.members.iter().all(Option::is_none);
        if last {
            self.store.evict(Timestamp::MAX);
        } else {
            self.evict();
        }
        last
    }

    /// Fold one stream tuple into the store (called once per tuple for
    /// the whole group — this is where the sharing pays off).
    pub fn on_tuple(&mut self, row: &Row) -> Result<()> {
        self.store.on_tuple(row)
    }

    /// Compose the anchor output for a member's window
    /// `[close - visible, close)`.
    pub fn window_result(&self, member: MemberId, close: Timestamp) -> Result<WindowOutput> {
        let m = self.members[member]
            .as_ref()
            .ok_or_else(|| Error::stream("slice-store member already left"))?;
        self.store.compose(close - m.visible, close)
    }

    /// Record a member's next close boundary (drives eviction).
    pub fn member_progress(&mut self, member: MemberId, next_close: Timestamp) {
        if let Some(m) = &mut self.members[member] {
            m.next_close = Some(next_close);
        }
    }

    /// Drop slices no member's future window can reach. A member that has
    /// not yet reported any progress (`next_close == None`) may still need
    /// every slice, so eviction waits for it.
    pub fn evict(&mut self) {
        let mut horizon = Timestamp::MAX;
        for m in self.members.iter().flatten() {
            match m.next_close {
                Some(c) => horizon = horizon.min(c - m.visible),
                None => return,
            }
        }
        if horizon != Timestamp::MAX {
            self.store.evict(horizon);
        }
    }

    /// Change in store bytes since the last call: what the caller adds to
    /// the `ivm.state.bytes` gauge, so the gauge sums over live stores.
    pub fn settle_bytes(&mut self) -> i64 {
        let now = self.store.state_bytes() as i64;
        let delta = now - self.reported_bytes;
        self.reported_bytes = now;
        delta
    }
}

/// A slice store and its membership, behind their `g` lock.
pub type GroupRef = Arc<Mutex<SharedGroup>>;

fn new_group(shape: IvmShape) -> GroupRef {
    // Witness name matches db.rs's `// lock-order:` declaration, where
    // this lock is acquired as `g`.
    Arc::new(Mutex::named("core.g", SharedGroup::new(shape)))
}

/// Registry pooling slice stores by shape fingerprint.
#[derive(Default)]
pub struct SharedRegistry {
    groups: HashMap<String, GroupRef>,
}

impl SharedRegistry {
    /// Empty registry.
    pub fn new() -> SharedRegistry {
        SharedRegistry::default()
    }

    /// Make `program`'s window a member of a store: the pooled store for
    /// its shape (created on first use) when `pooled`, else — or when that
    /// store's grid cannot take the window — a private one. Returns the
    /// store, the member id, and whether the store is the pooled one.
    pub fn join(&mut self, program: &IvmProgram, pooled: bool) -> (GroupRef, MemberId, bool) {
        if pooled {
            let g = self
                .groups
                .entry(program.shape.fingerprint())
                .or_insert_with(|| new_group(program.shape.clone()))
                .clone();
            let joined = g.lock().register(program.visible, program.advance);
            if let Ok(member) = joined {
                return (g, member, true);
            }
        }
        let g = new_group(program.shape.clone());
        let member = g
            .lock()
            .register(program.visible, program.advance)
            .expect("a fresh store takes any grid");
        (g, member, false)
    }

    /// Drop a pooled store its last member has left. A store that gained
    /// a member since (a registration raced the teardown) stays.
    pub fn forget(&mut self, group: &GroupRef) {
        self.groups
            .retain(|_, g| !Arc::ptr_eq(g, group) || g.lock().members.iter().any(Option::is_some));
    }

    /// Slice width of the live pooled store `program` would join, when
    /// that store's grid cannot take the program's window.
    fn grid_mismatch(&self, program: &IvmProgram) -> Option<Interval> {
        let g = self.groups.get(&program.shape.fingerprint())?;
        let g = g.lock();
        let needed = g.width_with(program.visible, program.advance);
        (!g.store.can_reslice(needed)).then(|| g.store.slice_width())
    }

    /// Number of pooled stores.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// True if no pooled stores exist.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamrel_ivm::{AggShape, StreamPrefix};
    use streamrel_sql::plan::{AggFunc, AggSpec, BoundExpr};
    use streamrel_types::time::MINUTES;
    use streamrel_types::{row, Column, DataType, Schema, Value};

    fn shape_on(stream: &str) -> IvmShape {
        IvmShape::Agg {
            prefix: StreamPrefix {
                stream: stream.into(),
                input_schema: Arc::new(
                    Schema::new(vec![
                        Column::new("url", DataType::Text),
                        Column::not_null("atime", DataType::Timestamp),
                    ])
                    .unwrap(),
                ),
                cqtime: 1,
                ops: vec![],
            },
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
        }
    }

    fn tup(url: &str, ts: i64) -> Row {
        row![url, Value::Timestamp(ts)]
    }

    fn rows(out: WindowOutput) -> Vec<Row> {
        match out {
            WindowOutput::Ready(rel) => rel.rows().to_vec(),
            WindowOutput::NeedsTable(_) => panic!("expected Ready output"),
        }
    }

    #[test]
    fn slice_width_is_gcd() {
        let mut g = SharedGroup::new(shape());
        g.register(5 * MINUTES, MINUTES).unwrap();
        assert_eq!(g.store().slice_width(), MINUTES);
        g.register(10 * MINUTES, 2 * MINUTES).unwrap();
        assert_eq!(g.store().slice_width(), MINUTES);
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
        assert_eq!(g.store().delta_rows(), 100, "work is per tuple, not per CQ");
    }

    fn ten_minutes_of_data(g: &mut SharedGroup) {
        for i in 0..10 {
            g.on_tuple(&tup("/a", i * MINUTES + 1)).unwrap();
        }
        assert_eq!(g.store().slice_count(), 10);
    }

    #[test]
    fn eviction_respects_slowest_member() {
        let mut g = SharedGroup::new(shape());
        let fast = g.register(MINUTES, MINUTES).unwrap();
        let slow = g.register(10 * MINUTES, MINUTES).unwrap();
        ten_minutes_of_data(&mut g);
        g.member_progress(fast, 10 * MINUTES);
        g.member_progress(slow, 10 * MINUTES);
        g.evict();
        // Slow member still needs [0, 10min): nothing evictable.
        assert_eq!(g.store().slice_count(), 10);
        g.member_progress(slow, 12 * MINUTES);
        g.evict();
        // Horizon = min(10-1, 12-10) = 2min → slices below 2min go.
        assert_eq!(g.store().slice_count(), 8);
    }

    #[test]
    fn departed_members_stop_pinning_the_horizon() {
        let mut g = SharedGroup::new(shape());
        let fast = g.register(MINUTES, MINUTES).unwrap();
        let slow = g.register(10 * MINUTES, MINUTES).unwrap();
        let silent = g.register(MINUTES, MINUTES).unwrap();
        ten_minutes_of_data(&mut g);
        g.member_progress(fast, 10 * MINUTES);
        g.member_progress(slow, 10 * MINUTES);
        // `silent` left before its first close, `slow` after one: neither
        // may hold slices the survivor's next window cannot reach.
        assert!(!g.leave(silent));
        assert!(!g.leave(slow));
        assert_eq!(g.store().slice_count(), 1);
        assert!(g.window_result(slow, 10 * MINUTES).is_err());
        // The last member takes the store's contents with it.
        assert!(g.leave(fast));
        assert_eq!(g.store().slice_count(), 0);
        assert_eq!(g.store().state_bytes(), 0);
    }

    #[test]
    fn registry_pools_by_fingerprint_and_forgets_empty_stores() {
        let mut reg = SharedRegistry::new();
        let (g1, m1, pooled) = reg.join(&program(2 * MINUTES, MINUTES), true);
        assert!(pooled);
        let (g2, _, _) = reg.join(&program(4 * MINUTES, 2 * MINUTES), true);
        assert!(Arc::ptr_eq(&g1, &g2));
        let mut other = program(MINUTES, MINUTES);
        other.shape = shape_on("other_stream");
        let (g3, _, _) = reg.join(&other, true);
        assert!(!Arc::ptr_eq(&g1, &g3));
        assert_eq!(reg.len(), 2);

        // Pooling off, or a grid the live store cannot take: a private
        // store the registry never sees.
        let (p, _, pooled) = reg.join(&program(2 * MINUTES, MINUTES), false);
        assert!(!pooled && !Arc::ptr_eq(&p, &g1));
        g1.lock().on_tuple(&tup("/a", 10)).unwrap();
        let fine = program(90 * 1_000_000, 30 * 1_000_000);
        assert_eq!(reg.grid_mismatch(&fine), Some(MINUTES));
        let (p, _, pooled) = reg.join(&fine, true);
        assert!(!pooled && !Arc::ptr_eq(&p, &g1));
        assert_eq!(reg.len(), 2);

        // A store is forgotten only once its last member has left.
        g1.lock().leave(m1);
        reg.forget(&g1);
        assert_eq!(reg.len(), 2);
        g1.lock().leave(1);
        reg.forget(&g1);
        assert_eq!(reg.len(), 1);
    }
}
