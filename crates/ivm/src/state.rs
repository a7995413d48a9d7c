//! The slice store: incremental operator state on the slice grid.
//!
//! Time is cut into slices of width `gcd(VISIBLE, ADVANCE)` — across every
//! window the store serves — and each arriving tuple is folded once into
//! its slice: accumulator partials in first-seen key order, where the key
//! is the group key (aggregates), the join key followed by the group key
//! (stream-table join aggregates), or the whole row with no accumulators
//! (DISTINCT). A window close composes the covered slices by *merging
//! partials*, so its cost is proportional to the number of distinct keys
//! touched since the previous close (the delta), not to the number of
//! buffered rows — and N windows over one store cost one fold per tuple,
//! the paper's "Jellybean processing" (§2.2).
//!
//! Order exactness: tuples reach the store in CQTIME order (the reorder
//! buffer sits upstream), slices are contiguous time ranges, and each
//! slice records first-seen key order — so walking slices in time order
//! and keys in slice order reproduces the *global* first-seen order that
//! re-evaluation's hash aggregate produces. That argument, plus the
//! lowering pass's exactness predicate, is what makes a store's output
//! byte-identical to re-evaluation.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};

use streamrel_exec::expr::{eval, eval_predicate, EvalContext};
use streamrel_exec::{Accumulator, RelationSource};
use streamrel_sql::plan::{AggSpec, BoundExpr, SchemaRef};
use streamrel_types::{Error, Relation, Result, Row, Timestamp, Value};

use crate::lower::{IvmProgram, IvmShape, RowOp};

/// Result of composing a window from slices.
pub enum WindowOutput {
    /// The anchor output is fully determined by stream state.
    Ready(Relation),
    /// A stream-table join: the delta must be counted against the window
    /// boundary snapshot inside the (pool-runnable) window task, so table
    /// visibility matches re-evaluation's consistency mode exactly.
    NeedsTable(Box<JoinDelta>),
}

impl WindowOutput {
    /// Rows composed — for a join, the delta entries staged for finalize.
    pub fn len(&self) -> usize {
        match self {
            WindowOutput::Ready(rel) => rel.len(),
            WindowOutput::NeedsTable(delta) => delta.len(),
        }
    }

    /// True when nothing was composed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The join-aggregate delta staged for one window close: slice-merged
/// partials keyed by join key, finalized against a table snapshot.
pub struct JoinDelta {
    table: String,
    table_filter: Option<BoundExpr>,
    right_key: Vec<BoundExpr>,
    index_column: Option<String>,
    /// `(join key, group key, merged partials)` in global first-seen
    /// pair order.
    entries: Vec<(Vec<Value>, Vec<Value>, Vec<Accumulator>)>,
    aggs: Vec<AggSpec>,
    schema: SchemaRef,
    /// Global aggregate (no GROUP BY): an empty result emits a defaults
    /// row, like re-evaluation's aggregate over an empty join.
    global: bool,
}

impl JoinDelta {
    /// Delta rows staged (trace accounting).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no delta entries are staged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Resolve match counts against `source` (the pinned snapshot) and
    /// emit the aggregate output. Each partial was built once per stream
    /// tuple; a tuple joined to `m` table rows contributes its update `m`
    /// times in re-evaluation, which is exactly `Accumulator::scale(m)`.
    /// Group order is the first-seen order over pairs with at least one
    /// match — the same order the re-evaluated hash aggregate sees.
    pub fn finalize(&self, source: &dyn RelationSource) -> Result<Relation> {
        let ectx = EvalContext::default();
        let mut counts: HashMap<Vec<Value>, i64> = HashMap::new();
        let indexed = match &self.index_column {
            // Probe-with-NULL is the engine's "does an index exist" idiom
            // (see try_index_join); NULL never matches any key.
            Some(col) => source
                .index_lookup(&self.table, col, &Value::Null)?
                .is_some(),
            None => false,
        };
        if indexed {
            let col = self.index_column.as_deref().unwrap_or_default();
            for (jk, _, _) in &self.entries {
                if counts.contains_key(jk) {
                    continue;
                }
                let candidates = source
                    .index_lookup(&self.table, col, &jk[0])?
                    .unwrap_or_default();
                let mut m = 0i64;
                for row in &candidates {
                    if self.row_matches(row, jk, &ectx)? {
                        m += 1;
                    }
                }
                counts.insert(jk.clone(), m);
            }
        } else {
            let rel = source.scan_table(&self.table)?;
            for row in rel.rows() {
                if let Some(f) = &self.table_filter {
                    if !eval_predicate(f, row, &ectx)? {
                        continue;
                    }
                }
                let rk: Vec<Value> = self
                    .right_key
                    .iter()
                    .map(|e| eval(e, row, &ectx))
                    .collect::<Result<_>>()?;
                if rk.iter().any(Value::is_null) {
                    continue;
                }
                *counts.entry(rk).or_insert(0) += 1;
            }
        }

        let mut merged = Merged::default();
        for (jk, gk, accs) in &self.entries {
            let m = counts.get(jk).copied().unwrap_or(0);
            if m == 0 {
                continue;
            }
            let mut scaled = accs.clone();
            for a in &mut scaled {
                a.scale(m)?;
            }
            merged.add(gk, Cow::Owned(scaled))?;
        }
        Ok(merged.into_relation(&self.schema, &self.aggs, self.global))
    }

    fn row_matches(&self, row: &Row, jk: &[Value], ectx: &EvalContext) -> Result<bool> {
        if let Some(f) = &self.table_filter {
            if !eval_predicate(f, row, ectx)? {
                return Ok(false);
            }
        }
        for (e, want) in self.right_key.iter().zip(jk) {
            let got = eval(e, row, ectx)?;
            if got.is_null() || got != *want {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// Accumulator partials merged by key, in first-seen key order — the one
/// merge both a window compose (over slices) and a join finalize (over
/// scaled pairs) perform. Keys are borrowed from the state being merged.
#[derive(Default)]
struct Merged<'a> {
    partials: HashMap<&'a [Value], Vec<Accumulator>>,
    order: Vec<&'a [Value]>,
}

impl<'a> Merged<'a> {
    fn add(&mut self, key: &'a [Value], partial: Cow<'_, [Accumulator]>) -> Result<()> {
        match self.partials.get_mut(key) {
            Some(accs) => {
                for (a, p) in accs.iter_mut().zip(partial.iter()) {
                    a.merge(p)?;
                }
            }
            None => {
                self.order.push(key);
                self.partials.insert(key, partial.into_owned());
            }
        }
        Ok(())
    }

    /// Keys with their merged partials, in first-seen order.
    fn into_entries(self) -> impl Iterator<Item = (&'a [Value], Vec<Accumulator>)> {
        let Merged {
            mut partials,
            order,
        } = self;
        order
            .into_iter()
            .map(move |key| (key, partials.remove(key).unwrap_or_default()))
    }

    /// Emit `[key..., finished aggregates...]` rows. A `global` aggregate
    /// (no GROUP BY) over nothing emits the defaults row, exactly as the
    /// re-evaluated aggregate does.
    fn into_relation(self, schema: &SchemaRef, aggs: &[AggSpec], global: bool) -> Relation {
        let mut rel = Relation::empty(schema.clone());
        if self.order.is_empty() && global {
            rel.push(aggs.iter().map(|s| Accumulator::new(s).finish()).collect());
            return rel;
        }
        for (key, accs) in self.into_entries() {
            let mut row: Row = key.to_vec();
            row.extend(accs.iter().map(Accumulator::finish));
            rel.push(row);
        }
        rel
    }
}

/// One slice: accumulator partials by key, in first-seen key order.
#[derive(Default)]
struct Slice {
    /// Approximate heap footprint (state-size accounting).
    bytes: usize,
    partials: HashMap<Vec<Value>, Vec<Accumulator>>,
    order: Vec<Vec<Value>>,
}

/// Slice width for one window: the grid on which both its VISIBLE and its
/// ADVANCE are whole numbers of slices. The engine's only `gcd`.
pub fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

fn key_bytes(vals: &[Value]) -> usize {
    let val_bytes = |v: &Value| match v {
        Value::Text(s) => 24 + s.len(),
        _ => 16,
    };
    24 + vals.iter().map(val_bytes).sum::<usize>()
}

/// Rough per-accumulator footprint (the DISTINCT set inside an
/// accumulator grows beyond this; the bound is an estimate, not a ledger).
const ACC_BYTES: usize = 64;

/// The slice store for one lowered shape. It serves the window of the
/// program it was built from, or — through [`IvmState::compose`] — any
/// window whose VISIBLE and ADVANCE are multiples of its slice width.
pub struct IvmState {
    shape: IvmShape,
    width: i64,
    visible: i64,
    slices: BTreeMap<Timestamp, Slice>,
    bytes: usize,
    delta_rows: u64,
}

impl IvmState {
    /// Fresh store for a lowered program, on that program's own grid.
    pub fn new(program: &IvmProgram) -> IvmState {
        let mut state = IvmState::for_shape(program.shape.clone());
        state.width = gcd(program.visible, program.advance).max(1);
        state.visible = program.visible;
        state
    }

    /// Fresh store for a shape whose grid is not fixed yet: the caller
    /// sets it with [`IvmState::reslice`] before the first tuple.
    pub fn for_shape(shape: IvmShape) -> IvmState {
        IvmState {
            shape,
            width: 0,
            visible: 0,
            slices: BTreeMap::new(),
            bytes: 0,
            delta_rows: 0,
        }
    }

    /// The shape this store maintains.
    pub fn shape(&self) -> &IvmShape {
        &self.shape
    }

    /// Slice width (µs); 0 until a grid is fixed.
    pub fn slice_width(&self) -> i64 {
        self.width
    }

    /// Number of live slices.
    pub fn slice_count(&self) -> usize {
        self.slices.len()
    }

    /// Rows folded into state so far (the `ivm.delta.rows` counter).
    pub fn delta_rows(&self) -> u64 {
        self.delta_rows
    }

    /// Approximate bytes held across live slices.
    pub fn state_bytes(&self) -> usize {
        self.bytes
    }

    /// Whether the store can run at `width`: it already does, or it is
    /// empty — partials already folded cannot be split onto a finer grid.
    pub fn can_reslice(&self, width: i64) -> bool {
        width == self.width || self.slices.is_empty()
    }

    /// Move the store to a new slice width ([`IvmState::can_reslice`]).
    pub fn reslice(&mut self, width: i64) -> Result<()> {
        if !self.can_reslice(width) {
            return Err(Error::stream(
                "cannot re-slice a slice store that already holds data",
            ));
        }
        self.width = width;
        Ok(())
    }

    /// Fold one stream tuple into its slice — once, however many windows
    /// the store serves. The caller guarantees CQTIME order (the reorder
    /// buffer sits upstream).
    pub fn on_tuple(&mut self, row: &Row) -> Result<()> {
        debug_assert!(self.width > 0, "slice grid not fixed");
        let ectx = EvalContext::default();
        let prefix = self.shape.prefix();
        let ts = row
            .get(prefix.cqtime)
            .ok_or_else(|| Error::stream("row too short for CQTIME"))?
            .as_timestamp()?;
        let Some(folded) = apply_ops(&prefix.ops, row, &ectx)? else {
            return Ok(());
        };
        // Keys are sized exactly: a first-seen key lives as long as its
        // slice, and collecting through `Result` would over-allocate it.
        let key_of = |join_key: &[BoundExpr], group_key: &[BoundExpr]| -> Result<Vec<Value>> {
            let mut key = Vec::with_capacity(join_key.len() + group_key.len());
            for e in join_key.iter().chain(group_key) {
                key.push(eval(e, &folded, &ectx)?);
            }
            Ok(key)
        };
        let (key, aggs): (Vec<Value>, &[AggSpec]) = match &self.shape {
            IvmShape::Agg { agg, .. } => (key_of(&[], &agg.group_exprs)?, &agg.aggs),
            IvmShape::JoinAgg { join, agg, .. } => {
                let key = key_of(&join.left_key, &agg.group_exprs)?;
                if key[..join.left_key.len()].iter().any(Value::is_null) {
                    // NULL join keys never match: re-evaluation emits no
                    // joined row, so there is nothing to maintain.
                    return Ok(());
                }
                (key, &agg.aggs)
            }
            IvmShape::Distinct { .. } => (folded.to_vec(), &[]),
        };
        let slice_start = ts.div_euclid(self.width) * self.width;
        let slice = self.slices.entry(slice_start).or_default();
        let accs = match slice.partials.get_mut(&key) {
            Some(a) => a,
            None => {
                let grew = key_bytes(&key) + ACC_BYTES * aggs.len();
                slice.bytes += grew;
                self.bytes += grew;
                slice.order.push(key.clone());
                slice
                    .partials
                    .entry(key)
                    .or_insert_with(|| aggs.iter().map(Accumulator::new).collect())
            }
        };
        for (acc, spec) in accs.iter_mut().zip(aggs) {
            match &spec.arg {
                Some(arg) => acc.update(Some(&eval(arg, &folded, &ectx)?))?,
                None => acc.update(None)?,
            }
        }
        self.delta_rows += 1;
        Ok(())
    }

    /// Compose the anchor output for this store's own window
    /// `[close - visible, close)`.
    pub fn window_result(&self, close: Timestamp) -> Result<WindowOutput> {
        self.compose(close - self.visible, close)
    }

    /// Compose the anchor output for the window `[lo, close)` by merging
    /// the slices it covers; both bounds must lie on the slice grid.
    pub fn compose(&self, lo: Timestamp, close: Timestamp) -> Result<WindowOutput> {
        let mut merged = Merged::default();
        for slice in self.slices.range(lo..close).map(|(_, s)| s) {
            for key in &slice.order {
                merged.add(key, Cow::Borrowed(&slice.partials[key]))?;
            }
        }
        Ok(match &self.shape {
            IvmShape::Agg { agg, .. } => WindowOutput::Ready(merged.into_relation(
                &agg.schema,
                &agg.aggs,
                agg.group_exprs.is_empty(),
            )),
            IvmShape::JoinAgg { join, agg, .. } => {
                let n = join.left_key.len();
                WindowOutput::NeedsTable(Box::new(JoinDelta {
                    table: join.table.clone(),
                    table_filter: join.table_filter.clone(),
                    right_key: join.right_key.clone(),
                    index_column: join.index_column.clone(),
                    entries: merged
                        .into_entries()
                        .map(|(k, accs)| (k[..n].to_vec(), k[n..].to_vec(), accs))
                        .collect(),
                    aggs: agg.aggs.clone(),
                    schema: agg.schema.clone(),
                    global: agg.group_exprs.is_empty(),
                }))
            }
            IvmShape::Distinct { schema, .. } => {
                let mut rel = Relation::empty(schema.clone());
                for row in merged.order {
                    rel.push(row.to_vec());
                }
                WindowOutput::Ready(rel)
            }
        })
    }

    /// Drop slices no future window can reach: every slice whose end is at
    /// or before `horizon` (= the earliest next close − its visible).
    pub fn evict(&mut self, horizon: Timestamp) {
        let (width, mut freed) = (self.width, 0);
        self.slices.retain(|start, slice| {
            let keep = start + width > horizon;
            if !keep {
                freed += slice.bytes;
            }
            keep
        });
        self.bytes -= freed;
    }
}

/// Run the prefix's filter/project chain over one tuple. The row is
/// borrowed until a `Project` actually rewrites it.
fn apply_ops<'r>(
    ops: &[RowOp],
    row: &'r Row,
    ectx: &EvalContext,
) -> Result<Option<Cow<'r, [Value]>>> {
    let mut cur: Cow<'r, [Value]> = Cow::Borrowed(row);
    for op in ops {
        match op {
            RowOp::Filter(pred) => {
                if !eval_predicate(pred, &cur, ectx)? {
                    return Ok(None);
                }
            }
            RowOp::Project(exprs) => {
                cur = Cow::Owned(
                    exprs
                        .iter()
                        .map(|e| eval(e, &cur, ectx))
                        .collect::<Result<_>>()?,
                );
            }
        }
    }
    Ok(Some(cur))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use streamrel_sql::plan::{AggFunc, LogicalPlan};
    use streamrel_types::time::MINUTES;
    use streamrel_types::{row, Column, DataType, Schema};

    use crate::lower::{AggShape, JoinShape, StreamPrefix};

    fn stream_schema() -> SchemaRef {
        Arc::new(
            Schema::new(vec![
                Column::new("url", DataType::Text),
                Column::not_null("atime", DataType::Timestamp),
            ])
            .unwrap(),
        )
    }

    fn col0() -> BoundExpr {
        BoundExpr::Column {
            index: 0,
            ty: DataType::Text,
        }
    }

    fn count_spec() -> AggSpec {
        AggSpec {
            func: AggFunc::Count,
            arg: None,
            distinct: false,
            name: "count".into(),
            ty: DataType::Int,
        }
    }

    fn prefix(ops: Vec<RowOp>) -> StreamPrefix {
        StreamPrefix {
            stream: "url_stream".into(),
            input_schema: stream_schema(),
            cqtime: 1,
            ops,
        }
    }

    fn count_agg(grouped: bool) -> AggShape {
        let (group_exprs, cols) = if grouped {
            (
                vec![col0()],
                vec![
                    Column::new("url", DataType::Text),
                    Column::new("count", DataType::Int),
                ],
            )
        } else {
            (vec![], vec![Column::new("count", DataType::Int)])
        };
        AggShape {
            group_exprs,
            aggs: vec![count_spec()],
            schema: Arc::new(Schema::new_unchecked(cols)),
        }
    }

    fn program(shape: IvmShape, visible: i64, advance: i64) -> IvmProgram {
        IvmProgram {
            shape,
            post_plan: LogicalPlan::OneRow,
            visible,
            advance,
        }
    }

    fn agg_state(ops: Vec<RowOp>, grouped: bool, visible: i64, advance: i64) -> IvmState {
        IvmState::new(&program(
            IvmShape::Agg {
                prefix: prefix(ops),
                agg: count_agg(grouped),
            },
            visible,
            advance,
        ))
    }

    fn tup(url: &str, ts: i64) -> Row {
        row![url, Value::Timestamp(ts)]
    }

    fn ready(out: WindowOutput) -> Relation {
        match out {
            WindowOutput::Ready(rel) => rel,
            WindowOutput::NeedsTable(_) => panic!("expected Ready output"),
        }
    }

    #[test]
    fn agg_window_merges_slices() {
        let mut s = agg_state(vec![], true, 2 * MINUTES, MINUTES);
        assert_eq!(s.slice_width(), MINUTES);
        s.on_tuple(&tup("/a", 10)).unwrap();
        s.on_tuple(&tup("/a", 20)).unwrap();
        s.on_tuple(&tup("/b", MINUTES + 5)).unwrap();
        let rel = ready(s.window_result(2 * MINUTES).unwrap());
        assert_eq!(rel.rows(), &[row!["/a", 2i64], row!["/b", 1i64]]);
        assert_eq!(s.delta_rows(), 3);
        assert!(s.state_bytes() > 0);
    }

    #[test]
    fn shorter_visible_sees_only_recent_slices() {
        let mut s = agg_state(vec![], true, MINUTES, MINUTES);
        s.on_tuple(&tup("/a", 10)).unwrap();
        s.on_tuple(&tup("/b", MINUTES + 5)).unwrap();
        let rel = ready(s.window_result(2 * MINUTES).unwrap());
        assert_eq!(rel.rows(), &[row!["/b", 1i64]]);
    }

    #[test]
    fn filter_op_applies_before_slicing() {
        let like = BoundExpr::Like {
            expr: Box::new(col0()),
            pattern: Box::new(BoundExpr::Literal(Value::text("/a%"))),
            negated: false,
        };
        let mut s = agg_state(vec![RowOp::Filter(like)], true, MINUTES, MINUTES);
        s.on_tuple(&tup("/a1", 10)).unwrap();
        s.on_tuple(&tup("/b1", 20)).unwrap();
        let rel = ready(s.window_result(MINUTES).unwrap());
        assert_eq!(rel.rows(), &[row!["/a1", 1i64]]);
        assert_eq!(s.delta_rows(), 1, "filtered rows never reach state");
    }

    #[test]
    fn empty_global_aggregate_yields_defaults() {
        let s = agg_state(vec![], false, MINUTES, MINUTES);
        let rel = ready(s.window_result(MINUTES).unwrap());
        assert_eq!(rel.rows(), &[row![0i64]]);
    }

    #[test]
    fn eviction_drops_unreachable_slices() {
        let mut s = agg_state(vec![], true, MINUTES, MINUTES);
        for i in 0..10 {
            s.on_tuple(&tup("/a", i * MINUTES + 1)).unwrap();
        }
        assert_eq!(s.slice_count(), 10);
        s.evict(2 * MINUTES);
        assert_eq!(s.slice_count(), 8);
        let bytes = s.state_bytes();
        s.evict(10 * MINUTES);
        assert_eq!(s.slice_count(), 0);
        assert!(s.state_bytes() < bytes);
    }

    #[test]
    fn distinct_first_seen_across_slices() {
        let shape = IvmShape::Distinct {
            prefix: prefix(vec![RowOp::Project(vec![col0()])]),
            schema: Arc::new(Schema::new_unchecked(vec![Column::new(
                "url",
                DataType::Text,
            )])),
        };
        let mut s = IvmState::new(&program(shape, 2 * MINUTES, MINUTES));
        s.on_tuple(&tup("/a", 10)).unwrap();
        s.on_tuple(&tup("/b", 20)).unwrap();
        s.on_tuple(&tup("/a", MINUTES + 5)).unwrap();
        let rel = ready(s.window_result(2 * MINUTES).unwrap());
        assert_eq!(rel.rows(), &[row!["/a"], row!["/b"]]);
    }

    fn join_state() -> IvmState {
        let shape = IvmShape::JoinAgg {
            prefix: prefix(vec![]),
            join: JoinShape {
                left_key: vec![col0()],
                table: "dims".into(),
                table_schema: dims_schema(),
                table_filter: None,
                right_key: vec![col0()],
                index_column: Some("url".into()),
            },
            agg: count_agg(true),
        };
        IvmState::new(&program(shape, MINUTES, MINUTES))
    }

    fn dims_schema() -> SchemaRef {
        Arc::new(
            Schema::new(vec![
                Column::new("url", DataType::Text),
                Column::new("weight", DataType::Int),
            ])
            .unwrap(),
        )
    }

    fn dims_rel() -> Relation {
        let mut rel = Relation::empty(dims_schema());
        rel.push(row!["/a", 1i64]);
        rel.push(row!["/a", 2i64]);
        rel.push(row!["/b", 3i64]);
        rel
    }

    fn delta(s: &IvmState, close: i64) -> Box<JoinDelta> {
        match s.window_result(close).unwrap() {
            WindowOutput::NeedsTable(d) => d,
            WindowOutput::Ready(_) => panic!("expected NeedsTable output"),
        }
    }

    #[test]
    fn join_delta_scales_by_match_count() {
        let mut s = join_state();
        s.on_tuple(&tup("/a", 10)).unwrap();
        s.on_tuple(&tup("/a", 20)).unwrap();
        s.on_tuple(&tup("/b", 30)).unwrap();
        s.on_tuple(&tup("/c", 40)).unwrap();
        let d = delta(&s, MINUTES);
        let source = streamrel_exec::source::MapSource::new().with("dims", dims_rel());
        let rel = d.finalize(&source).unwrap();
        // `/a` matches 2 dim rows (2 tuples × 2), `/c` matches none.
        assert_eq!(rel.rows(), &[row!["/a", 4i64], row!["/b", 1i64]]);
    }

    #[test]
    fn join_delta_index_path_matches_scan_path() {
        struct Indexed(Relation);
        impl RelationSource for Indexed {
            fn scan_table(&self, _: &str) -> Result<Relation> {
                panic!("index path must not scan");
            }
            fn index_lookup(&self, _: &str, _: &str, key: &Value) -> Result<Option<Vec<Row>>> {
                Ok(Some(
                    self.0
                        .rows()
                        .iter()
                        .filter(|r| r[0] == *key)
                        .cloned()
                        .collect(),
                ))
            }
        }
        let mut s = join_state();
        s.on_tuple(&tup("/a", 10)).unwrap();
        s.on_tuple(&tup("/b", 30)).unwrap();
        let d = delta(&s, MINUTES);
        let via_index = d.finalize(&Indexed(dims_rel())).unwrap();
        let via_scan = d
            .finalize(&streamrel_exec::source::MapSource::new().with("dims", dims_rel()))
            .unwrap();
        assert_eq!(via_index.rows(), via_scan.rows());
        assert_eq!(via_index.rows(), &[row!["/a", 2i64], row!["/b", 1i64]]);
    }

    #[test]
    fn null_join_keys_never_staged() {
        let mut s = join_state();
        s.on_tuple(&row![Value::Null, Value::Timestamp(10)])
            .unwrap();
        let d = delta(&s, MINUTES);
        assert!(d.is_empty());
    }

    #[test]
    fn empty_global_join_aggregate_yields_defaults() {
        let shape = IvmShape::JoinAgg {
            prefix: prefix(vec![]),
            join: JoinShape {
                left_key: vec![col0()],
                table: "dims".into(),
                table_schema: dims_schema(),
                table_filter: None,
                right_key: vec![col0()],
                index_column: None,
            },
            agg: count_agg(false),
        };
        let s = IvmState::new(&program(shape, MINUTES, MINUTES));
        let d = delta(&s, MINUTES);
        let source = streamrel_exec::source::MapSource::new().with("dims", dims_rel());
        let rel = d.finalize(&source).unwrap();
        assert_eq!(rel.rows(), &[row![0i64]]);
    }
}
