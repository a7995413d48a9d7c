//! The slice store: incremental operator state on the slice grid.
//!
//! Time is cut into slices of width `gcd(VISIBLE, ADVANCE)` — across every
//! window the store serves — and each arriving tuple is folded once into
//! its slice: accumulator partials in first-seen key order, where the key
//! is the group key (aggregates), the join key followed by the group key
//! (stream-table join aggregates), or the whole row with no accumulators
//! (DISTINCT). N windows over one store cost one fold per tuple, the
//! paper's "Jellybean processing" (§2.2). A plan that is not maintained
//! ([`IvmShape::Rows`]) keeps each slice's raw rows instead and
//! re-evaluates over their concatenation: N such windows buffer a tuple
//! once.
//!
//! What a close costs. A sliding member keeps its *running window view*
//! ([`WindowView`]) and [`IvmState::close_window`] slides it: add the
//! sealed slices that entered, emit, retract the slices that leave — work
//! proportional to the keys of those slices plus the rows emitted,
//! whatever VISIBLE ÷ width is. The stateless slice merge
//! ([`IvmState::compose`]) is the *rebuild* primitive where nothing can be
//! carried: `VISIBLE <= ADVANCE` (every tumbling window) and partials
//! without an exact inverse (float SUM/AVG, VARIANCE/STDDEV). The view
//! relies on slices being *sealed* — once a close has passed a slice no
//! tuple is folded into it — which the engine enforces upstream, with one
//! ordering rule per stream.
//!
//! Order exactness: tuples reach the store in CQTIME order, slices are
//! contiguous time ranges, and each slice records first-seen key order —
//! so walking slices in time order and keys in slice order (a merge), or
//! sorting keys by the `(slice, position)` stamp of the first live slice
//! that holds them (a view), reproduces the *global* first-seen order that
//! re-evaluation's hash aggregate produces. That argument, plus the
//! lowering pass's exactness predicate, is what makes a store's output
//! byte-identical to re-evaluation. A view whose member's `ORDER BY` places
//! every key ([`KeyOrder`]) keeps its keys in that order instead and emits
//! by walking them: no stamp, no probe, and the post-plan's sort finds one run.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use streamrel_exec::expr::{eval, eval_predicate, EvalContext};
use streamrel_exec::{Accumulator, RelationSource};
use streamrel_sql::plan::BoundExpr;
use streamrel_types::{Error, Relation, Result, Row, Timestamp, Value};

use crate::lower::{AggShape, IvmProgram, IvmShape, JoinShape, KeyOrder, RowOp};

/// Result of composing a window from slices.
#[derive(Clone)]
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
#[derive(Clone)]
pub struct JoinDelta {
    join: JoinShape,
    agg: AggShape,
    /// `(join key, group key, merged partials)` in global first-seen
    /// pair order.
    entries: Vec<(Vec<Value>, Vec<Value>, Vec<Accumulator>)>,
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
        let join = &self.join;
        let mut counts: HashMap<Vec<Value>, i64> = HashMap::new();
        let indexed = match &join.index_column {
            // Probe-with-NULL is the engine's "does an index exist" idiom
            // (see try_index_join); NULL never matches any key.
            Some(col) => source
                .index_lookup(&join.table, col, &Value::Null)?
                .is_some(),
            None => false,
        };
        if indexed {
            let col = join.index_column.as_deref().unwrap_or_default();
            for (jk, _, _) in &self.entries {
                if counts.contains_key(jk) {
                    continue;
                }
                let candidates = source
                    .index_lookup(&join.table, col, &jk[0])?
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
            let rel = source.scan_table(&join.table)?;
            for row in rel.rows() {
                if let Some(f) = &join.table_filter {
                    if !eval_predicate(f, row, &ectx)? {
                        continue;
                    }
                }
                let rk: Vec<Value> = join
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
        Ok(agg_relation(&self.agg, merged.into_entries()))
    }

    fn row_matches(&self, row: &Row, jk: &[Value], ectx: &EvalContext) -> Result<bool> {
        if let Some(f) = &self.join.table_filter {
            if !eval_predicate(f, row, ectx)? {
                return Ok(false);
            }
        }
        for (e, want) in self.join.right_key.iter().zip(jk) {
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

/// A key and its aggregate state at a close: owned plain partials from a
/// merge, borrowed running state from a view.
type Entry<'a> = (&'a [Value], Cow<'a, [Accumulator]>);

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
    fn into_entries(mut self) -> impl Iterator<Item = Entry<'a>> {
        let order = self.order.into_iter();
        order.map(move |key| {
            (
                key,
                Cow::Owned(self.partials.remove(key).unwrap_or_default()),
            )
        })
    }
}

/// Emit `[key..., finished aggregates...]` rows in the order given. A
/// global aggregate (no GROUP BY) over nothing emits the defaults row,
/// exactly as the re-evaluated aggregate does.
fn agg_relation<'a>(agg: &AggShape, entries: impl Iterator<Item = Entry<'a>>) -> Relation {
    let mut rel = Relation::empty(agg.schema.clone());
    for (key, accs) in entries {
        let mut row: Row = Vec::with_capacity(key.len() + accs.len());
        row.extend_from_slice(key);
        row.extend(accs.iter().map(Accumulator::finish));
        rel.push(row);
    }
    if rel.is_empty() && agg.group_exprs.is_empty() {
        rel.push(
            agg.aggs
                .iter()
                .map(|s| Accumulator::new(s).finish())
                .collect(),
        );
    }
    rel
}

/// One slice: accumulator partials by key, in first-seen key order.
#[derive(Default)]
struct Slice {
    /// Approximate heap footprint (state-size accounting).
    bytes: usize,
    /// Key → its position in `entries`.
    index: HashMap<Arc<[Value]>, u32>,
    /// `(key, partials)` in first-seen order.
    entries: Vec<(Arc<[Value]>, Vec<Accumulator>)>,
    /// The raw rows, in arrival order ([`IvmShape::Rows`] stores only).
    rows: Vec<Row>,
}

/// One key of a [`WindowView`], over the live slices that hold it.
struct Live {
    accs: Vec<Accumulator>,
    /// How many live slices hold the key; at zero it leaves the view.
    slices: u32,
    /// Where a first-seen view emits the key; a ranked view needs nothing.
    seen: Option<Seen>,
}

/// A key as the first live slice that holds it spells it — `0.0` and
/// `-0.0` are one group, and re-evaluation shows whichever the window saw
/// first — and its stamp there, `(slice start, position in it)`.
type Seen = (Arc<[Value]>, (Timestamp, u32));

/// A key of a ranked view: `(the member's KeyOrder columns, the key)`,
/// compared on those columns with `Value::sort_cmp` — the order the
/// member's `ORDER BY` gives it. The columns cover the whole key, so keys
/// compare equal exactly when they are equal.
#[derive(PartialEq, Eq)]
struct Ranked(Arc<[usize]>, Arc<[Value]>);

impl Ord for Ranked {
    fn cmp(&self, other: &Ranked) -> Ordering {
        let mut by = self.0.iter().map(|&c| self.1[c].sort_cmp(&other.1[c]));
        by.find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Ranked) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// How a view indexes its live keys, which is how it emits them.
enum Keys {
    /// Hashed; emitted sorted by each key's first-seen stamp.
    FirstSeen(HashMap<Arc<[Value]>, Live>),
    /// Ordered by the member's sort; emitted by walking the index.
    Ranked(BTreeMap<Ranked, Live>, KeyOrder),
}

impl Keys {
    fn len(&self) -> usize {
        match self {
            Keys::FirstSeen(keys) => keys.len(),
            Keys::Ranked(keys, _) => keys.len(),
        }
    }

    /// The key's entry; a key new to the view starts from `accs`, held by
    /// no slice yet, and — in first-seen order — at `stamp`.
    fn entry(
        &mut self,
        key: &Arc<[Value]>,
        stamp: (Timestamp, u32),
        accs: impl FnOnce() -> Vec<Accumulator>,
    ) -> &mut Live {
        let fresh = |seen| Live {
            accs: accs(),
            slices: 0,
            seen,
        };
        match self {
            Keys::FirstSeen(keys) => {
                (keys.entry(key.clone())).or_insert_with(|| fresh(Some((key.clone(), stamp))))
            }
            Keys::Ranked(keys, order) => (keys.entry(Ranked(order.columns.clone(), key.clone())))
                .or_insert_with(|| fresh(None)),
        }
    }

    fn get_mut(&mut self, key: &Arc<[Value]>) -> Option<&mut Live> {
        match self {
            Keys::FirstSeen(keys) => keys.get_mut(&**key),
            Keys::Ranked(keys, order) => keys.get_mut(&Ranked(order.columns.clone(), key.clone())),
        }
    }

    fn remove(&mut self, key: &Arc<[Value]>) {
        match self {
            Keys::FirstSeen(keys) => keys.remove(&**key),
            Keys::Ranked(keys, order) => keys.remove(&Ranked(order.columns.clone(), key.clone())),
        };
    }
}

/// A member's running window view: the merge of the slices its last
/// window shares with its next one ([`IvmState::close_window`]).
pub struct WindowView {
    keys: Keys,
    /// The close the view last emitted; it carries to `closed + ADVANCE`.
    closed: Option<Timestamp>,
}

impl WindowView {
    /// An empty view that emits in `order`, or else in first-seen order.
    fn new(order: Option<&KeyOrder>) -> WindowView {
        let keys = match order {
            Some(order) => Keys::Ranked(BTreeMap::new(), order.clone()),
            None => Keys::FirstSeen(HashMap::new()),
        };
        WindowView { keys, closed: None }
    }

    /// The close the view last emitted: every slice below it is in the
    /// view, or was, and must not change under it.
    pub fn closed(&self) -> Option<Timestamp> {
        self.closed
    }
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
/// program it was built from, or — through [`IvmState::compose`] and
/// [`IvmState::close_window`] — any window whose VISIBLE and ADVANCE are
/// multiples of its slice width.
pub struct IvmState {
    shape: IvmShape,
    /// Every aggregate has an exact inverse: sliding members keep views
    /// (raw rows have no keys to keep a view over).
    invertible: bool,
    width: i64,
    visible: i64,
    slices: BTreeMap<Timestamp, Slice>,
    bytes: usize,
    /// Bytes held by the members' views.
    view_bytes: usize,
    delta_rows: u64,
    merges: u64,
    /// Scratch for the key of the tuple being folded.
    key: Vec<Value>,
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
            invertible: !matches!(shape, IvmShape::Rows { .. })
                && shape.aggs().iter().all(Accumulator::has_inverse),
            shape,
            width: 0,
            visible: 0,
            slices: BTreeMap::new(),
            bytes: 0,
            view_bytes: 0,
            delta_rows: 0,
            merges: 0,
            key: Vec::new(),
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

    /// Key partials closes added, retracted or rebuilt so far, and slices
    /// a first-seen view probed for a key's next stamp.
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Approximate bytes held across live slices and member views.
    pub fn state_bytes(&self) -> usize {
        self.bytes + self.view_bytes
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

    /// The time a tuple is sliced at: its CQTIME — one tick earlier over a
    /// derived stream, whose batches are stamped *at* their close, so that
    /// a window `(lo, close]` there is `[lo, close)` here. The only place
    /// that convention lives: slices, close cursors and eviction are
    /// `[lo, close)` throughout.
    pub fn slice_time(&self, row: &Row) -> Result<Timestamp> {
        let prefix = self.shape.prefix();
        let ts = row
            .get(prefix.cqtime)
            .ok_or_else(|| Error::stream("row too short for CQTIME"))?
            .as_timestamp()?;
        Ok(ts.saturating_sub(i64::from(prefix.derived)))
    }

    /// Fold one stream tuple into its slice — once, however many windows
    /// the store serves. The caller guarantees CQTIME order (the reorder
    /// buffer sits upstream).
    pub fn on_tuple(&mut self, row: &Row) -> Result<()> {
        debug_assert!(self.width > 0, "slice grid not fixed");
        let ectx = EvalContext::default();
        let ts = self.slice_time(row)?;
        let slice_start = ts.div_euclid(self.width) * self.width;
        let (join_key, group_key): (&[BoundExpr], &[BoundExpr]) = match &self.shape {
            IvmShape::Agg { agg, .. } => (&[], &agg.group_exprs),
            IvmShape::JoinAgg { join, agg, .. } => (&join.left_key, &agg.group_exprs),
            IvmShape::Distinct { .. } => (&[], &[]),
            IvmShape::Rows { .. } => {
                let slice = self.slices.entry(slice_start).or_default();
                let grew = key_bytes(row);
                slice.bytes += grew;
                self.bytes += grew;
                slice.rows.push(row.clone());
                return Ok(());
            }
        };
        let Some(folded) = apply_ops(&self.shape.prefix().ops, row, &ectx)? else {
            return Ok(());
        };
        // Built in a reused buffer: only a key new to its slice allocates.
        let mut key = std::mem::take(&mut self.key);
        key.clear();
        for e in join_key.iter().chain(group_key) {
            key.push(eval(e, &folded, &ectx)?);
        }
        if let IvmShape::Distinct { .. } = &self.shape {
            key.extend_from_slice(&folded);
        }
        if key[..join_key.len()].iter().any(Value::is_null) {
            // NULL join keys never match: re-evaluation emits no joined
            // row, so there is nothing to maintain.
            return Ok(());
        }
        let aggs = self.shape.aggs();
        let slice = self.slices.entry(slice_start).or_default();
        let pos = match slice.index.get(&key[..]) {
            Some(pos) => *pos as usize,
            None => {
                let grew = key_bytes(&key) + ACC_BYTES * aggs.len();
                slice.bytes += grew;
                self.bytes += grew;
                // Shared by the slice's index, its entry and every view.
                let key: Arc<[Value]> = key.as_slice().into();
                slice.index.insert(key.clone(), slice.entries.len() as u32);
                let fresh = aggs.iter().map(Accumulator::new).collect();
                slice.entries.push((key, fresh));
                slice.entries.len() - 1
            }
        };
        self.key = key;
        for (acc, spec) in slice.entries[pos].1.iter_mut().zip(aggs) {
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
        let covered = self.slices.range(lo..close).map(|(_, s)| s);
        if let IvmShape::Rows { prefix } = &self.shape {
            // Slices in time order, rows in arrival order: the stream's
            // ordering rule makes that the arrival order of the window.
            let rows = covered.flat_map(|s| s.rows.iter().cloned()).collect();
            let rel = Relation::new(prefix.input_schema.clone(), rows);
            return Ok(WindowOutput::Ready(rel));
        }
        let mut merged = Merged::default();
        for slice in covered {
            for (key, partial) in &slice.entries {
                merged.add(key, Cow::Borrowed(partial))?;
            }
        }
        self.output(merged.into_entries())
    }

    /// The anchor output over `entries`, keys in first-seen order.
    fn output<'a>(&self, entries: impl Iterator<Item = Entry<'a>>) -> Result<WindowOutput> {
        Ok(match &self.shape {
            IvmShape::Agg { agg, .. } => WindowOutput::Ready(agg_relation(agg, entries)),
            IvmShape::JoinAgg { join, agg, .. } => {
                let n = join.left_key.len();
                let plain = |accs: Cow<'_, [Accumulator]>| match accs {
                    Cow::Owned(merged) => Ok(merged),
                    // A view's running state, read out as plain partials.
                    Cow::Borrowed(running) => (agg.aggs.iter().zip(running))
                        .map(|(spec, r)| {
                            let mut p = Accumulator::new(spec);
                            p.merge(r).map(|()| p)
                        })
                        .collect(),
                };
                WindowOutput::NeedsTable(Box::new(JoinDelta {
                    join: join.clone(),
                    agg: agg.clone(),
                    entries: entries
                        .map(|(k, accs)| Ok((k[..n].to_vec(), k[n..].to_vec(), plain(accs)?)))
                        .collect::<Result<_>>()?,
                }))
            }
            // A `Rows` store keeps no keys: `compose` concatenates its rows.
            IvmShape::Distinct { .. } | IvmShape::Rows { .. } => {
                let mut rel = Relation::empty(self.shape.schema().clone());
                for (row, _) in entries {
                    rel.push(row.to_vec());
                }
                WindowOutput::Ready(rel)
            }
        })
    }

    /// Close the window `[close - visible, close)` of the member holding
    /// `view`. A sliding window over invertible partials slides its view:
    /// add the slices that entered since its last close, emit (in `order`,
    /// else first-seen), retract the slices the next window no longer
    /// covers; with no view in hand for this close (the member's first, or
    /// its cursor jumped) every slice the window covers is added. Otherwise
    /// the window is merged afresh ([`IvmState::compose`]) and keeps no
    /// view; nothing else decides. Every slice below `close` must be sealed.
    pub fn close_window(
        &mut self,
        view: &mut Option<WindowView>,
        visible: i64,
        advance: i64,
        order: Option<&KeyOrder>,
        close: Timestamp,
    ) -> Result<WindowOutput> {
        let lo = close - visible;
        if visible <= advance || !self.invertible {
            let rebuilt = self.slices.range(lo..close).map(|(_, s)| s.entries.len());
            self.merges += rebuilt.sum::<usize>() as u64;
            return self.compose(lo, close);
        }
        // On error the view is gone, and the next close rebuilds it.
        let mut v = view.take().unwrap_or_else(|| WindowView::new(order));
        self.view_bytes -= v.keys.len() * self.live_bytes();
        let mut from = close - advance;
        if v.closed != Some(from) {
            v = WindowView::new(order);
            from = lo;
        }
        let aggs = self.shape.aggs();
        for (&start, slice) in self.slices.range(from..close) {
            for (pos, (key, partial)) in slice.entries.iter().enumerate() {
                let running = || aggs.iter().map(Accumulator::running).collect();
                let live = v.keys.entry(key, (start, pos as u32), running);
                live.slices += 1;
                for (a, p) in live.accs.iter_mut().zip(partial) {
                    a.merge(p)?;
                }
            }
            self.merges += slice.entries.len() as u64;
        }
        let out = match &v.keys {
            Keys::FirstSeen(keys) => {
                let seen = keys
                    .values()
                    .filter_map(|l| Some((l.seen.as_ref()?, &l.accs)));
                let mut lives: Vec<_> = seen.collect();
                lives.sort_unstable_by_key(|((_, stamp), _)| *stamp);
                let entries = lives.into_iter();
                self.output(entries.map(|((key, _), accs)| (&**key, Cow::Borrowed(&**accs))))?
            }
            Keys::Ranked(keys, order) => {
                let entries = keys.iter().map(|(r, l)| (&*r.1, Cow::Borrowed(&*l.accs)));
                if order.desc {
                    self.output(entries.rev())?
                } else {
                    self.output(entries)?
                }
            }
        };
        let unsealed = || Error::stream("a sealed slice changed under a window view");
        for (&start, slice) in self.slices.range(lo..lo + advance) {
            // Where a key's stamp moves to: mostly the very next slice.
            let mut later = self.slices.range(start + 1..close);
            let next = later.next();
            for (key, partial) in &slice.entries {
                let live = v.keys.get_mut(key).ok_or_else(unsealed)?;
                if live.slices == 1 {
                    v.keys.remove(key);
                    continue;
                }
                live.slices -= 1;
                for (a, p) in live.accs.iter_mut().zip(partial) {
                    a.retract(p)?;
                }
                let Some(seen) = &mut live.seen else {
                    continue;
                };
                // The key's first live slice left: the next one that holds
                // it now says where — and spelled how — it was first seen.
                // A probe per slice passed over, so one per close amortized.
                let (next, pos, spelled) = (next.into_iter().chain(later.clone()))
                    .find_map(|(&s, later)| {
                        self.merges += 1;
                        let pos = *later.index.get(&**key)?;
                        Some((s, pos, &later.entries[pos as usize].0))
                    })
                    .ok_or_else(unsealed)?;
                *seen = (spelled.clone(), (next, pos));
            }
            self.merges += slice.entries.len() as u64;
        }
        v.closed = Some(close);
        self.view_bytes += v.keys.len() * self.live_bytes();
        *view = Some(v);
        Ok(out)
    }

    /// Rough footprint of one view key (the key itself is the slices').
    fn live_bytes(&self) -> usize {
        96 + ACC_BYTES * self.shape.aggs().len()
    }

    /// A member left: its view's bytes leave the store's account.
    pub fn forget(&mut self, view: Option<WindowView>) {
        self.view_bytes -= view.map_or(0, |v| v.keys.len()) * self.live_bytes();
    }

    /// Drop slices no future window can reach: every slice whose end is at
    /// or before `horizon` (= the earliest next close − its visible).
    pub fn evict(&mut self, horizon: Timestamp) {
        // Cost follows what is dropped, not how many slices stay.
        let first_kept = horizon.saturating_sub(self.width).saturating_add(1);
        let kept = self.slices.split_off(&first_kept);
        let dropped = std::mem::replace(&mut self.slices, kept);
        self.bytes -= dropped.values().map(|s| s.bytes).sum::<usize>();
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
    use streamrel_sql::plan::{AggFunc, AggSpec, LogicalPlan, SchemaRef};
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
            derived: false,
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
            order: None,
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

    fn rows_state(derived: bool, visible: i64, advance: i64) -> IvmState {
        let mut prefix = prefix(vec![]);
        prefix.derived = derived;
        IvmState::new(&program(IvmShape::Rows { prefix }, visible, advance))
    }

    #[test]
    fn rows_store_concatenates_its_slices_in_arrival_order() {
        let mut s = rows_state(false, 2 * MINUTES, MINUTES);
        let arrived = [
            tup("/b", 10),
            tup("/a", 20),
            tup("/a", 20),
            tup("/c", MINUTES),
            tup("/b", 2 * MINUTES),
        ];
        for t in &arrived {
            s.on_tuple(t).unwrap();
        }
        // No keys, no dedupe: the window is its rows, boundary excluded.
        let rel = ready(s.window_result(2 * MINUTES).unwrap());
        assert_eq!(rel.rows(), &arrived[..4]);
        assert_eq!(**rel.schema(), *stream_schema());
        // Buffered rows are state like any other — and neither a fold nor
        // a merge of maintained partials.
        assert_eq!(s.delta_rows(), 0);
        let held = s.state_bytes();
        assert_eq!(held, arrived.iter().map(|r| key_bytes(r)).sum::<usize>());
        let mut view = None;
        let closed = s
            .close_window(&mut view, 2 * MINUTES, MINUTES, None, 2 * MINUTES)
            .unwrap();
        assert_eq!(ready(closed).rows(), &arrived[..4]);
        assert!(view.is_none(), "raw rows keep no view");
        assert_eq!(s.merges(), 0);
        s.evict(MINUTES);
        assert_eq!(s.slice_count(), 2);
        assert!(s.state_bytes() < held);
    }

    #[test]
    fn a_derived_tuple_is_sliced_one_tick_early() {
        // Batches are stamped at their close: the one at 1 min belongs to
        // the window closing there, the one just after it to the next.
        let mut s = rows_state(true, MINUTES, MINUTES);
        s.on_tuple(&tup("/a", MINUTES)).unwrap();
        s.on_tuple(&tup("/b", MINUTES + 1)).unwrap();
        assert_eq!(s.slice_time(&tup("/a", MINUTES)).unwrap(), MINUTES - 1);
        let rel = ready(s.window_result(MINUTES).unwrap());
        assert_eq!(rel.rows(), &[tup("/a", MINUTES)]);
        let rel = ready(s.window_result(2 * MINUTES).unwrap());
        assert_eq!(rel.rows(), &[tup("/b", MINUTES + 1)]);
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
