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
//! Every window slices, whatever it counts ([`Clock`]): a time window's
//! grid is in event time, a ROWS window's in tuple ordinals and a SLICES
//! window's in a derived stream's batch ordinals. An ordinal slice records
//! the `cq_close` stamp a window ending with it emits ([`IvmState::take`]).
//!
//! Keys by reference: the store interns each distinct key once, under a
//! dense `u32` id, in its key dictionary; slices and window views hold ids,
//! and a key row is built only when a window emits it. An id lives while a
//! live slice holds it: eviction frees it, and a new key reuses it.
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
use std::collections::hash_map::Entry as Slot;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::Arc;

use streamrel_exec::expr::{eval, eval_predicate, EvalContext};
use streamrel_exec::{Accumulator, RelationSource};
use streamrel_sql::plan::{AggSpec, BoundExpr};
use streamrel_types::{Error, Relation, Result, Row, Timestamp, Value};

use crate::lower::{AggShape, Clock, IvmProgram, IvmShape, KeyOrder, RowOp};

/// Result of composing a window from slices.
#[derive(Clone)]
#[non_exhaustive]
pub enum WindowOutput {
    /// The anchor output, a join aggregate's scaled by its match counts.
    Ready(Relation),
}

impl WindowOutput {
    /// Rows composed.
    pub fn len(&self) -> usize {
        match self {
            WindowOutput::Ready(rel) => rel.len(),
        }
    }

    /// True when nothing was composed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The composed relation.
    pub fn into_relation(self) -> Relation {
        match self {
            WindowOutput::Ready(rel) => rel,
        }
    }
}

/// A join store's match counts, `COUNT(*) … GROUP BY right key` over its
/// filtered table: join key → table rows it matches, in one version of the
/// table. A join aggregate's delta is scaled by them ([`IvmState::counts_at`]).
#[derive(Default)]
pub struct MatchCounts {
    /// The version counted; `None` when the reader could not name it.
    stamp: Option<(u32, u64)>,
    by_key: HashMap<Vec<Value>, i64>,
    bytes: usize,
}

impl MatchCounts {
    /// A join store's counts as `source` reads its table: one scan. `None`
    /// for a store of any other shape.
    pub fn read(shape: &IvmShape, source: &dyn RelationSource) -> Result<Option<MatchCounts>> {
        let IvmShape::JoinAgg { join, .. } = shape else {
            return Ok(None);
        };
        let (ectx, mut by_key) = (EvalContext::default(), HashMap::new());
        for row in source.scan_table(&join.table)?.rows() {
            if let Some(f) = &join.table_filter {
                if !eval_predicate(f, row, &ectx)? {
                    continue;
                }
            }
            let rk: Vec<Value> = (join.right_key.iter())
                .map(|e| eval(e, row, &ectx))
                .collect::<Result<_>>()?;
            // NULL keys match nothing.
            if !rk.iter().any(Value::is_null) {
                *by_key.entry(rk).or_insert(0) += 1;
            }
        }
        let bytes = by_key.keys().map(|k| key_bytes(k) + 8).sum();
        let stamp = source.table_stamp(&join.table);
        Ok(Some(MatchCounts {
            stamp,
            by_key,
            bytes,
        }))
    }

    /// Approximate bytes held.
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

/// A key and its aggregate state at a close: owned plain partials from a
/// merge, borrowed from a slice or a view's running state otherwise.
type Entry<'a> = (&'a [Value], Cow<'a, [Accumulator]>);

/// Accumulator partials merged by `K`, in first-seen order — the one merge
/// both a window compose (over slices, by key id) and a join aggregate
/// whose groups span join keys (over scaled pairs, by group key) perform.
/// Each entry keeps the key as its first partial spelled it.
#[derive(Default)]
struct Merged<'a, K> {
    at: HashMap<K, usize>,
    entries: Vec<Entry<'a>>,
}

impl<'a, K: Hash + Eq> Merged<'a, K> {
    fn add(&mut self, by: K, key: &'a [Value], partial: Cow<'_, [Accumulator]>) -> Result<()> {
        match self.at.entry(by) {
            Slot::Occupied(at) => {
                let accs = self.entries[*at.get()].1.to_mut();
                for (a, p) in accs.iter_mut().zip(partial.iter()) {
                    a.merge(p)?;
                }
            }
            Slot::Vacant(at) => {
                at.insert(self.entries.len());
                self.entries.push((key, Cow::Owned(partial.into_owned())));
            }
        }
        Ok(())
    }
}

/// Emit `[key..., finished aggregates...]` rows in the order given, each
/// entry's aggregates scaled by its factor. A global aggregate (no GROUP
/// BY) over nothing emits the defaults row, exactly as the re-evaluated
/// aggregate does.
fn agg_relation<'a>(
    agg: &AggShape,
    entries: impl Iterator<Item = (Entry<'a>, i64)>,
) -> Result<Relation> {
    let mut rel = Relation::empty(agg.schema.clone());
    for ((key, accs), m) in entries {
        let mut row: Row = Vec::with_capacity(key.len() + accs.len());
        row.extend_from_slice(key);
        for a in accs.iter() {
            // A tuple that joins `m` table rows counts `m` times.
            let mut a = Cow::Borrowed(a);
            if m != 1 {
                a.to_mut().scale(m)?;
            }
            row.push(a.finish());
        }
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
    Ok(rel)
}

/// A store's key dictionary: each distinct key once, under a dense id.
#[derive(Default)]
struct Dict {
    ids: HashMap<Arc<[Value]>, u32>,
    /// By id: the key as first interned (`None` once freed) and how many
    /// live slices hold it.
    keys: Vec<(Option<Arc<[Value]>>, u32)>,
    /// Freed ids, reused before the dictionary grows.
    free: Vec<u32>,
    bytes: usize,
}

impl Dict {
    /// The id of `key`, interned — held by no slice yet — if it is new.
    fn intern(&mut self, key: &[Value]) -> u32 {
        if let Some(&id) = self.ids.get(key) {
            return id;
        }
        let key: Arc<[Value]> = key.into();
        self.bytes += key_bytes(&key);
        let id = self.free.pop().unwrap_or(self.keys.len() as u32);
        if id as usize == self.keys.len() {
            self.keys.push((None, 0));
        }
        self.keys[id as usize].0 = Some(key.clone());
        self.ids.insert(key, id);
        id
    }

    /// The key under a live id.
    fn key(&self, id: u32) -> &[Value] {
        self.keys[id as usize].0.as_deref().unwrap_or_default()
    }

    /// One slice fewer holds `id`; with none left the id is freed.
    fn release(&mut self, id: u32) {
        let (key, held) = &mut self.keys[id as usize];
        *held -= 1;
        if let Some(key) = key.take_if(|_| *held == 0) {
            self.bytes -= key_bytes(&key);
            self.ids.remove(&key);
            self.free.push(id);
        }
    }
}

/// One slice: accumulator partials by key id, in first-seen key order.
#[derive(Default)]
struct Slice {
    /// Approximate heap footprint (state-size accounting).
    bytes: usize,
    /// Key ids in first-seen order.
    ids: Vec<u32>,
    /// Key id → its position in `ids`.
    index: HashMap<u32, u32>,
    /// The partials of `ids`, one run of the shape's aggregates each.
    accs: Vec<Accumulator>,
    /// `(position, key)` where this slice first saw a key spelled unlike
    /// the dictionary: `0.0` and `-0.0` are one group, and re-evaluation
    /// shows whichever the window saw first.
    spelled: Vec<(u32, Arc<[Value]>)>,
    /// The raw rows, in arrival order ([`IvmShape::Rows`] stores only).
    rows: Vec<Row>,
    /// On an ordinal clock, the `cq_close` of a window this slice ends.
    stamp: Timestamp,
}

impl Slice {
    /// The partials of the key at `pos`.
    fn partials(&self, pos: usize, stride: usize) -> &[Accumulator] {
        &self.accs[pos * stride..(pos + 1) * stride]
    }

    /// How this slice spells the key at `pos`, where it differs from the
    /// dictionary's spelling.
    fn spelling(&self, pos: usize) -> Option<&Arc<[Value]>> {
        let mut own = self.spelled.iter();
        own.find(|(p, _)| *p as usize == pos).map(|(_, key)| key)
    }
}

/// One key id of a [`WindowView`], over the live slices that hold it.
#[derive(Default)]
struct Live {
    /// How many live slices hold the key; at zero it is not in the view.
    slices: u32,
    /// Where a first-seen view emits the key, `(slice start, position in
    /// it)` of the first live slice that holds it, and that slice's own
    /// spelling of it; a ranked view needs neither.
    seen: (Timestamp, u32),
    spelled: Option<Arc<[Value]>>,
}

/// A member's running window view: the merge of the slices its last
/// window shares with its next one ([`IvmState::close_window`]).
pub struct WindowView {
    /// By key id.
    live: Vec<Live>,
    /// By key id, one run of the shape's running accumulators each.
    accs: Vec<Accumulator>,
    /// The ids in the view: in `order`, or else sorted by first-seen stamp
    /// at each emit.
    keys: Vec<u32>,
    order: Option<KeyOrder>,
    /// The close the view last emitted; it carries to `closed + ADVANCE`.
    closed: Option<Timestamp>,
}

impl WindowView {
    /// An empty view that emits in `order`, or else in first-seen order.
    fn new(order: Option<&KeyOrder>) -> WindowView {
        WindowView {
            live: Vec::new(),
            accs: Vec::new(),
            keys: Vec::new(),
            order: order.cloned(),
            closed: None,
        }
    }

    /// The close the view last emitted: every slice below it is in the
    /// view, or was, and must not change under it.
    pub fn closed(&self) -> Option<Timestamp> {
        self.closed
    }

    /// Room for every id below `ids`.
    fn grow(&mut self, ids: usize, aggs: &[AggSpec]) {
        self.live
            .resize_with(ids.max(self.live.len()), Live::default);
        while self.accs.len() < ids * aggs.len() {
            self.accs.extend(aggs.iter().map(Accumulator::new));
        }
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

/// Whether two keys of one group are spelled alike: `0.0` and `-0.0` are
/// one group spelled two ways.
fn spelled_alike(a: &[Value], b: &[Value]) -> bool {
    a.iter().zip(b).all(|(x, y)| match (x, y) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => std::mem::discriminant(x) == std::mem::discriminant(y),
    })
}

/// `a` against `b` on a ranked view's order columns, as the member's
/// `ORDER BY` compares them. The columns cover the whole key, so keys
/// compare equal exactly when they are equal.
fn rank(order: &KeyOrder, a: &[Value], b: &[Value]) -> Ordering {
    let mut by = order.columns.iter().map(|&c| a[c].sort_cmp(&b[c]));
    by.find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
}

/// Rough per-accumulator footprint (the DISTINCT set inside an
/// accumulator grows beyond this; the bound is an estimate, not a ledger).
const ACC_BYTES: usize = 64;

/// Rough footprint of a key id in one slice: the id and its index slot.
const ENTRY_BYTES: usize = 16;

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
    dict: Dict,
    /// Bytes held by the slices.
    bytes: usize,
    /// Bytes held by the members' views.
    view_bytes: usize,
    delta_rows: u64,
    merges: u64,
    /// Scratch for the key of the tuple being folded.
    key: Vec<Value>,
    /// A join store's match counts at the table version last read, while
    /// that version could be named.
    memo: Option<Arc<MatchCounts>>,
    /// Reads of a join store's table: memo fills plus unmemoised reads.
    table_scans: u64,
    /// On an ordinal clock, the tuples (ROWS) or batches (SLICES) taken.
    taken: i64,
    /// On a ROWS clock, the newest CQTIME taken, once one has been.
    newest: Option<Timestamp>,
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
            memo: None,
            table_scans: 0,
            shape,
            width: 0,
            visible: 0,
            slices: BTreeMap::new(),
            dict: Dict::default(),
            bytes: 0,
            view_bytes: 0,
            delta_rows: 0,
            merges: 0,
            key: Vec::new(),
            taken: 0,
            newest: None,
        }
    }

    /// The shape this store maintains.
    pub fn shape(&self) -> &IvmShape {
        &self.shape
    }

    /// The clock the store slices on.
    pub fn clock(&self) -> Clock {
        self.shape.prefix().clock
    }

    /// Slice width (µs); 0 until a grid is fixed.
    pub fn slice_width(&self) -> i64 {
        self.width
    }

    /// Number of live slices.
    pub fn slice_count(&self) -> usize {
        self.slices.len()
    }

    /// Distinct keys the live slices hold (the `ivm.keys` gauge).
    pub fn keys(&self) -> usize {
        self.dict.ids.len()
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

    /// Reads of a join store's table so far (`ivm.join.table_scans`).
    pub fn table_scans(&self) -> u64 {
        self.table_scans
    }

    /// Approximate bytes held across the key dictionary, live slices,
    /// member views and a join store's memoised match counts.
    pub fn state_bytes(&self) -> usize {
        let memo = self.memo.as_ref().map_or(0, |m| m.bytes);
        self.dict.bytes + self.bytes + self.view_bytes + memo
    }

    /// The match counts a join store's closes scale by, as `source` — the
    /// window-boundary snapshot — reads the table: the memo while the
    /// table's stamp stands, else one scan. The scan is memoised when
    /// `source` stamps the table and serves this close alone when it does
    /// not (a writer still in flight). Any other store has no counts.
    pub fn counts_at(&mut self, source: &dyn RelationSource) -> Result<Arc<MatchCounts>> {
        let IvmShape::JoinAgg { join, .. } = &self.shape else {
            return Ok(Arc::default());
        };
        let stamp = source.table_stamp(&join.table);
        match &self.memo {
            Some(memo) if stamp.is_some() && memo.stamp == stamp => return Ok(memo.clone()),
            _ => self.table_scans += 1,
        }
        let counts = Arc::new(MatchCounts::read(&self.shape, source)?.unwrap_or_default());
        self.memo = counts.stamp.map(|_| counts.clone());
        Ok(counts)
    }

    /// A join store's memoised match counts, if it holds any.
    pub fn memo(&self) -> Option<&MatchCounts> {
        self.memo.as_deref()
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

    /// Where a tuple is sliced on the store's clock: its CQTIME — one tick
    /// earlier over a derived stream, whose batches are stamped *at* their
    /// close, so that a window `(lo, close]` there is `[lo, close)` here —
    /// or the ordinal of the tuple (ROWS) or batch (SLICES) being taken,
    /// so that the window closing at ordinal `c` holds the first `c`. The
    /// only place that convention lives: slices, close cursors and
    /// eviction are `[lo, close)` throughout.
    pub fn slice_time(&self, row: &Row) -> Result<Timestamp> {
        let Clock::Time { cqtime, derived } = self.clock() else {
            return Ok(self.taken);
        };
        let ts = row
            .get(cqtime)
            .ok_or_else(|| Error::stream("row too short for CQTIME"))?
            .as_timestamp()?;
        Ok(ts.saturating_sub(i64::from(derived)))
    }

    /// Where a member that joins now first closes, when the clock fixes
    /// it: on ROWS at its `advance`-th tuple (a partial first window still
    /// emits), on SLICES at its `visible`-th batch. On event time the first
    /// tuple aligns it.
    pub fn first_close(&self, visible: i64, advance: i64) -> Option<Timestamp> {
        match self.clock() {
            Clock::Time { .. } => None,
            Clock::Rows { .. } => Some(self.taken + advance),
            Clock::Batches => Some(self.taken + visible),
        }
    }

    /// Take one batch of the stream — its tuples in CQTIME order, or with
    /// none and a `bound`, a heartbeat — folding each tuple once. Returns
    /// the batch's oldest slice time and the reading every window closing
    /// at or before is due at: on event time its newest slice time or the
    /// bound, whichever is later; on an ordinal clock the count taken,
    /// which a heartbeat does not move. A SLICES store takes whole result
    /// batches, each one ordinal stamped with its bound, empty or not.
    pub fn take(
        &mut self,
        rows: &[Row],
        bound: Option<Timestamp>,
    ) -> Result<(Option<Timestamp>, Option<Timestamp>)> {
        let clock = self.clock();
        if let Clock::Batches = clock {
            let bound = bound.ok_or_else(|| {
                Error::stream("slices windows consume whole result batches, not tuples")
            })?;
            // An empty batch is still one upstream window.
            self.slices.entry(self.taken).or_default().stamp = bound;
        }
        let first = rows.first().map(|r| self.slice_time(r)).transpose()?;
        let last = rows.last().map(|r| self.slice_time(r)).transpose()?;
        rows.iter().try_for_each(|r| self.on_tuple(r))?;
        Ok(match clock {
            Clock::Time { .. } => (first, last.max(bound)),
            Clock::Rows { .. } => (first, Some(self.taken)),
            Clock::Batches => {
                self.taken += 1;
                (first, Some(self.taken))
            }
        })
    }

    /// The `cq_close` of the window closing at `close`: `close` itself on
    /// event time, else the stamp of the newest slice the window covers.
    pub fn close_stamp(&self, close: Timestamp) -> Timestamp {
        if !self.clock().is_ordinal() {
            return close;
        }
        let newest = self.slices.range(..close).next_back();
        newest.map_or(close, |(_, slice)| slice.stamp)
    }

    /// Fold one stream tuple into its slice — once, however many windows
    /// the store serves. The caller guarantees CQTIME order (the reorder
    /// buffer sits upstream).
    pub fn on_tuple(&mut self, row: &Row) -> Result<()> {
        debug_assert!(self.width > 0, "slice grid not fixed");
        let ectx = EvalContext::default();
        let ts = self.slice_time(row)?;
        let slice_start = ts.div_euclid(self.width) * self.width;
        if let Clock::Rows { cqtime } = self.clock() {
            // A window ending with this tuple is stamped with the newest
            // CQTIME so far or, with none seen, the running row count.
            let ts = cqtime.and_then(|c| row.get(c)?.as_timestamp().ok());
            self.newest = self.newest.max(ts);
            self.taken += 1;
            let stamp = self.newest.unwrap_or(self.taken);
            self.slices.entry(slice_start).or_default().stamp = stamp;
        }
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
        // Built in a reused buffer: only a key new to the store allocates.
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
        let id = self.dict.intern(&key);
        let slice = self.slices.entry(slice_start).or_default();
        let pos = match slice.index.get(&id) {
            Some(pos) => *pos as usize,
            None => {
                let pos = slice.ids.len();
                slice.index.insert(id, pos as u32);
                slice.ids.push(id);
                slice.accs.extend(aggs.iter().map(Accumulator::new));
                self.dict.keys[id as usize].1 += 1;
                let mut grew = ENTRY_BYTES + ACC_BYTES * aggs.len();
                if !spelled_alike(self.dict.key(id), &key) {
                    grew += key_bytes(&key);
                    slice.spelled.push((pos as u32, key.as_slice().into()));
                }
                slice.bytes += grew;
                self.bytes += grew;
                pos
            }
        };
        self.key = key;
        let accs = &mut slice.accs[pos * aggs.len()..];
        for (acc, spec) in accs.iter_mut().zip(aggs) {
            match &spec.arg {
                Some(arg) => acc.update(Some(&eval(arg, &folded, &ectx)?))?,
                None => acc.update(None)?,
            }
        }
        self.delta_rows += 1;
        Ok(())
    }

    /// A slice's entries in its first-seen order, with their key ids: each
    /// key as the slice spells it, and its partials.
    fn entries<'a>(&'a self, slice: &'a Slice) -> impl Iterator<Item = (u32, Entry<'a>)> + 'a {
        let stride = self.shape.aggs().len();
        slice.ids.iter().enumerate().map(move |(pos, &id)| {
            let key = slice.spelling(pos).map_or(self.dict.key(id), |k| &**k);
            (id, (key, Cow::Borrowed(slice.partials(pos, stride))))
        })
    }

    /// Compose the anchor output for this store's own window
    /// `[close - visible, close)` — a join store's against its memoised
    /// match counts.
    pub fn window_result(&self, close: Timestamp) -> Result<WindowOutput> {
        self.compose(close - self.visible, close, self.memo())
    }

    /// Compose the anchor output for the window `[lo, close)` by merging
    /// the slices it covers; both bounds must lie on the slice grid. A
    /// join store scales by `counts`.
    pub fn compose(
        &self,
        lo: Timestamp,
        close: Timestamp,
        counts: Option<&MatchCounts>,
    ) -> Result<WindowOutput> {
        let covered = self.slices.range(lo..close).map(|(_, s)| s);
        if let IvmShape::Rows { prefix } = &self.shape {
            // Slices in time order, rows in arrival order: the stream's
            // ordering rule makes that the arrival order of the window.
            let rows = covered.flat_map(|s| s.rows.iter().cloned()).collect();
            let rel = Relation::new(prefix.input_schema.clone(), rows);
            return Ok(WindowOutput::Ready(rel));
        }
        let covered: Vec<&Slice> = covered.collect();
        if let [slice] = covered[..] {
            // One slice holds each key once: nothing to merge.
            return self.output(self.entries(slice).map(|(_, e)| e), counts);
        }
        let mut merged = Merged::<u32>::default();
        for slice in covered {
            for (id, (key, partial)) in self.entries(slice) {
                merged.add(id, key, partial)?;
            }
        }
        self.output(merged.entries.into_iter(), counts)
    }

    /// The anchor output over `entries`, keys in first-seen order; a join
    /// aggregate's scaled by `counts`. A tuple joined to `m` table rows
    /// contributes its update `m` times in re-evaluation, which is exactly
    /// `Accumulator::scale(m)`; a pair with no match emits nothing, so
    /// groups keep the first-seen order over matched pairs that the
    /// re-evaluated hash aggregate sees.
    fn output<'a>(
        &self,
        entries: impl Iterator<Item = Entry<'a>>,
        counts: Option<&MatchCounts>,
    ) -> Result<WindowOutput> {
        Ok(match &self.shape {
            IvmShape::Agg { agg, .. } => {
                WindowOutput::Ready(agg_relation(agg, entries.map(|e| (e, 1)))?)
            }
            IvmShape::JoinAgg { join, agg, .. } => {
                let counts = counts
                    .ok_or_else(|| Error::stream("a join store closes against match counts"))?;
                let n = join.left_key.len();
                let matched = entries.filter_map(|(key, accs)| {
                    let m = counts.by_key.get(&key[..n]).map_or(0, |m| *m);
                    (m > 0).then_some(((&key[n..], accs), m))
                });
                // A GROUP BY that holds the join key has a pair per group.
                if (join.left_key.iter()).all(|k| agg.group_exprs.contains(k)) {
                    return Ok(WindowOutput::Ready(agg_relation(agg, matched)?));
                }
                let mut merged = Merged::<&[Value]>::default();
                for ((group, accs), m) in matched {
                    // Plain partials, even read out of a view's running state.
                    let mut scaled: Vec<_> = agg.aggs.iter().map(Accumulator::new).collect();
                    for (p, a) in scaled.iter_mut().zip(accs.iter()) {
                        p.merge(a)?;
                        p.scale(m)?;
                    }
                    merged.add(group, group, Cow::Owned(scaled))?;
                }
                let entries = merged.entries.into_iter().map(|e| (e, 1));
                WindowOutput::Ready(agg_relation(agg, entries)?)
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
    /// A join store's view keeps unscaled pairs and scales each by `counts`
    /// as it emits it.
    pub fn close_window(
        &mut self,
        view: &mut Option<WindowView>,
        visible: i64,
        advance: i64,
        order: Option<&KeyOrder>,
        close: Timestamp,
        counts: Option<&MatchCounts>,
    ) -> Result<WindowOutput> {
        let lo = close - visible;
        if visible <= advance || !self.invertible {
            let rebuilt = self.slices.range(lo..close).map(|(_, s)| s.ids.len());
            self.merges += rebuilt.sum::<usize>() as u64;
            return self.compose(lo, close, counts);
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
        let stride = aggs.len();
        v.grow(self.dict.keys.len(), aggs);
        let mut entered = Vec::new();
        for (&start, slice) in self.slices.range(from..close) {
            for (pos, &id) in slice.ids.iter().enumerate() {
                let live = &mut v.live[id as usize];
                let accs = &mut v.accs[id as usize * stride..][..stride];
                if live.slices == 0 {
                    // The key enters the view: this slice is its first.
                    (live.seen, live.spelled) = ((start, pos as u32), slice.spelling(pos).cloned());
                    entered.push(id);
                    for (a, spec) in accs.iter_mut().zip(aggs) {
                        *a = Accumulator::running(spec);
                    }
                }
                live.slices += 1;
                for (a, p) in accs.iter_mut().zip(slice.partials(pos, stride)) {
                    a.merge(p)?;
                }
            }
            self.merges += slice.ids.len() as u64;
        }
        let dict = &self.dict;
        match &v.order {
            Some(order) => {
                let by = |a: &u32, b: &u32| rank(order, dict.key(*a), dict.key(*b));
                entered.sort_unstable_by(by);
                // Each entering key goes where the member's order puts it.
                let (mut keys, mut rest) = (Vec::new(), &v.keys[..]);
                for id in entered {
                    let at = rest.partition_point(|k| by(k, &id).is_lt());
                    keys.extend_from_slice(&rest[..at]);
                    keys.push(id);
                    rest = &rest[at..];
                }
                keys.extend_from_slice(rest);
                v.keys = keys;
            }
            None => {
                v.keys.extend(entered);
                let live = &v.live;
                v.keys.sort_unstable_by_key(|&id| live[id as usize].seen);
            }
        }
        // A ranked view has no `Float` key, so no key of its is respelled.
        let entries = v.keys.iter().map(|&id| {
            let spelled = v.live[id as usize].spelled.as_deref();
            let accs = &v.accs[id as usize * stride..][..stride];
            (spelled.unwrap_or(dict.key(id)), Cow::Borrowed(accs))
        });
        let out = match &v.order {
            Some(order) if order.desc => self.output(entries.rev(), counts)?,
            _ => self.output(entries, counts)?,
        };
        let unsealed = || Error::stream("a sealed slice changed under a window view");
        let mut left = false;
        for (&start, slice) in self.slices.range(lo..lo + advance) {
            // Where a key's stamp moves to: mostly the very next slice.
            let mut later = self.slices.range(start + 1..close);
            let next = later.next();
            for (pos, &id) in slice.ids.iter().enumerate() {
                let live = (v.live.get_mut(id as usize))
                    .filter(|l| l.slices > 0)
                    .ok_or_else(unsealed)?;
                if live.slices == 1 {
                    (live.slices, live.spelled, left) = (0, None, true);
                    continue;
                }
                live.slices -= 1;
                let accs = &mut v.accs[id as usize * stride..][..stride];
                for (a, p) in accs.iter_mut().zip(slice.partials(pos, stride)) {
                    a.retract(p)?;
                }
                if v.order.is_some() {
                    continue;
                }
                // The key's first live slice left: the next one that holds
                // it now says where — and spelled how — it was first seen.
                // A probe per slice passed over, so one per close amortized.
                let (next, pos, later) = (next.into_iter().chain(later.clone()))
                    .find_map(|(&s, later)| {
                        self.merges += 1;
                        Some((s, *later.index.get(&id)? as usize, later))
                    })
                    .ok_or_else(unsealed)?;
                (live.seen, live.spelled) = ((next, pos as u32), later.spelling(pos).cloned());
            }
            self.merges += slice.ids.len() as u64;
        }
        if left {
            let live = &v.live;
            v.keys.retain(|&id| live[id as usize].slices > 0);
        }
        v.closed = Some(close);
        self.view_bytes += v.keys.len() * self.live_bytes();
        *view = Some(v);
        Ok(out)
    }

    /// Rough footprint of one view key (the key itself is the
    /// dictionary's).
    fn live_bytes(&self) -> usize {
        48 + ACC_BYTES * self.shape.aggs().len()
    }

    /// A member left: its view's bytes leave the store's account.
    pub fn forget(&mut self, view: Option<WindowView>) {
        self.view_bytes -= view.map_or(0, |v| v.keys.len()) * self.live_bytes();
    }

    /// Drop slices no future window can reach: every slice whose end is at
    /// or before `horizon` (= the earliest next close − its visible), and
    /// every key id no live slice holds any more.
    pub fn evict(&mut self, horizon: Timestamp) {
        // Cost follows what is dropped, not how many slices stay.
        let first_kept = horizon.saturating_sub(self.width).saturating_add(1);
        let kept = self.slices.split_off(&first_kept);
        for slice in std::mem::replace(&mut self.slices, kept).values() {
            self.bytes -= slice.bytes;
            for &id in &slice.ids {
                self.dict.release(id);
            }
        }
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
            clock: Clock::Time {
                cqtime: 1,
                derived: false,
            },
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

    #[test]
    fn agg_window_merges_slices() {
        let mut s = agg_state(vec![], true, 2 * MINUTES, MINUTES);
        assert_eq!(s.slice_width(), MINUTES);
        s.on_tuple(&tup("/a", 10)).unwrap();
        s.on_tuple(&tup("/a", 20)).unwrap();
        s.on_tuple(&tup("/b", MINUTES + 5)).unwrap();
        let rel = s.window_result(2 * MINUTES).unwrap().into_relation();
        assert_eq!(rel.rows(), &[row!["/a", 2i64], row!["/b", 1i64]]);
        assert_eq!(s.delta_rows(), 3);
        assert!(s.state_bytes() > 0);
    }

    #[test]
    fn shorter_visible_sees_only_recent_slices() {
        let mut s = agg_state(vec![], true, MINUTES, MINUTES);
        s.on_tuple(&tup("/a", 10)).unwrap();
        s.on_tuple(&tup("/b", MINUTES + 5)).unwrap();
        let rel = s.window_result(2 * MINUTES).unwrap().into_relation();
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
        let rel = s.window_result(MINUTES).unwrap().into_relation();
        assert_eq!(rel.rows(), &[row!["/a1", 1i64]]);
        assert_eq!(s.delta_rows(), 1, "filtered rows never reach state");
    }

    #[test]
    fn empty_global_aggregate_yields_defaults() {
        let s = agg_state(vec![], false, MINUTES, MINUTES);
        let rel = s.window_result(MINUTES).unwrap().into_relation();
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
    fn each_key_is_counted_once_per_store() {
        // K keys in each of S slices: the keys once, the partials S × K.
        let (k, slices) = (5, 7);
        let mut s = agg_state(vec![], true, slices * MINUTES, MINUTES);
        for slice in 0..slices {
            for key in 0..k {
                s.on_tuple(&tup(&format!("/k{key}"), slice * MINUTES + key + 1))
                    .unwrap();
            }
        }
        assert_eq!((s.slice_count(), s.keys()), (slices as usize, k as usize));
        let key = key_bytes(&[Value::text("/k0")]);
        let per_slice = k as usize * (ENTRY_BYTES + ACC_BYTES);
        assert_eq!(
            s.state_bytes(),
            k as usize * key + slices as usize * per_slice
        );
    }

    #[test]
    fn an_evicted_store_frees_every_key_id() {
        let mut s = join_state(true);
        fill(&mut s, &["/a", "/b", "/a", "/c"]);
        s.on_tuple(&tup("/b", MINUTES + 1)).unwrap();
        let counts = s.counts_at(&Versioned(Some(1))).unwrap();
        assert_eq!(s.keys(), 3);
        s.evict(MINUTES);
        assert_eq!(s.keys(), 1, "`/b` is still held");
        s.evict(Timestamp::MAX);
        assert_eq!(s.keys(), 0);
        assert!(s.dict.ids.is_empty());
        assert_eq!(s.dict.free.len(), s.dict.keys.len(), "every id is free");
        assert_eq!(s.state_bytes(), counts.bytes());
        // A freed id serves the next key.
        s.on_tuple(&tup("/d", 2 * MINUTES + 1)).unwrap();
        assert_eq!((s.keys(), s.dict.keys.len()), (1, 3));
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
        let rel = s.window_result(2 * MINUTES).unwrap().into_relation();
        assert_eq!(rel.rows(), &[row!["/a"], row!["/b"]]);
    }

    fn rows_state(derived: bool, visible: i64, advance: i64) -> IvmState {
        let mut prefix = prefix(vec![]);
        prefix.clock = Clock::Time { cqtime: 1, derived };
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
        let rel = s.window_result(2 * MINUTES).unwrap().into_relation();
        assert_eq!(rel.rows(), &arrived[..4]);
        assert_eq!(**rel.schema(), *stream_schema());
        // Buffered rows are state like any other — and neither a fold nor
        // a merge of maintained partials.
        assert_eq!(s.delta_rows(), 0);
        let held = s.state_bytes();
        assert_eq!(held, arrived.iter().map(|r| key_bytes(r)).sum::<usize>());
        let mut view = None;
        let closed = s
            .close_window(&mut view, 2 * MINUTES, MINUTES, None, 2 * MINUTES, None)
            .unwrap();
        assert_eq!(closed.into_relation().rows(), &arrived[..4]);
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
        let rel = s.window_result(MINUTES).unwrap().into_relation();
        assert_eq!(rel.rows(), &[tup("/a", MINUTES)]);
        let rel = s.window_result(2 * MINUTES).unwrap().into_relation();
        assert_eq!(rel.rows(), &[tup("/b", MINUTES + 1)]);
    }

    fn join_state(grouped: bool) -> IvmState {
        let shape = IvmShape::JoinAgg {
            prefix: prefix(vec![]),
            join: JoinShape {
                left_key: vec![col0()],
                table: "dims".into(),
                table_schema: dims_schema(),
                table_filter: None,
                right_key: vec![col0()],
            },
            agg: count_agg(grouped),
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

    /// `dims_rel()` at a version the test names: stamped, or not at all.
    struct Versioned(Option<u64>);

    impl RelationSource for Versioned {
        fn scan_table(&self, _: &str) -> Result<Relation> {
            Ok(dims_rel())
        }

        fn table_stamp(&self, _: &str) -> Option<(u32, u64)> {
            self.0.map(|v| (7, v))
        }
    }

    fn fill(s: &mut IvmState, urls: &[&str]) {
        for (i, url) in urls.iter().enumerate() {
            s.on_tuple(&tup(url, 10 * (i as i64 + 1))).unwrap();
        }
    }

    #[test]
    fn a_join_window_scales_by_match_count() {
        let mut s = join_state(true);
        fill(&mut s, &["/a", "/a", "/b", "/c"]);
        let source = Versioned(None);
        let counts = s.counts_at(&source).unwrap();
        let rel = s
            .compose(0, MINUTES, Some(&counts))
            .unwrap()
            .into_relation();
        // `/a` matches 2 dim rows (2 tuples × 2), `/c` matches none.
        assert_eq!(rel.rows(), &[row!["/a", 4i64], row!["/b", 1i64]]);
        assert!(s.compose(0, MINUTES, None).is_err(), "no counts, no join");
        // A global aggregate merges the scaled pairs: 2 × 2 + 1.
        let mut global = join_state(false);
        fill(&mut global, &["/a", "/a", "/b", "/c"]);
        let counts = global.counts_at(&source).unwrap();
        let rel = global.compose(0, MINUTES, Some(&counts)).unwrap();
        assert_eq!(rel.into_relation().rows(), &[row![5i64]]);
    }

    #[test]
    fn match_counts_are_memoised_per_table_version() {
        let mut s = join_state(true);
        fill(&mut s, &["/a", "/b"]);
        let empty = s.state_bytes();
        let first = s.counts_at(&Versioned(Some(1))).unwrap();
        assert_eq!(s.table_scans(), 1);
        // The memo is state: `ivm.state.bytes` holds it.
        assert!(first.bytes() > 0);
        assert_eq!(s.state_bytes(), empty + first.bytes());
        for _ in 0..100 {
            let again = s.counts_at(&Versioned(Some(1))).unwrap();
            assert!(Arc::ptr_eq(&first, &again), "same version, same counts");
        }
        assert_eq!(s.table_scans(), 1);
        s.counts_at(&Versioned(Some(2))).unwrap();
        assert_eq!(s.table_scans(), 2, "the stamp moved: one scan");
        // No stamp: counted for the close that asked, and not kept.
        s.counts_at(&Versioned(None)).unwrap();
        s.counts_at(&Versioned(None)).unwrap();
        assert_eq!((s.table_scans(), s.state_bytes()), (4, empty));
        s.counts_at(&Versioned(Some(2))).unwrap();
        assert_eq!(s.table_scans(), 5, "the memo went with the stamp");
        let rel = s.window_result(MINUTES).unwrap().into_relation();
        assert_eq!(rel.rows(), &[row!["/a", 2i64], row!["/b", 1i64]]);
    }

    #[test]
    fn null_join_keys_are_never_folded() {
        let mut s = join_state(true);
        s.on_tuple(&row![Value::Null, Value::Timestamp(10)])
            .unwrap();
        assert_eq!(s.delta_rows(), 0);
        let counts = s.counts_at(&Versioned(None)).unwrap();
        assert!(s.compose(0, MINUTES, Some(&counts)).unwrap().is_empty());
    }

    #[test]
    fn empty_global_join_aggregate_yields_defaults() {
        let mut s = join_state(false);
        let counts = s.counts_at(&Versioned(Some(1))).unwrap();
        let rel = s
            .compose(0, MINUTES, Some(&counts))
            .unwrap()
            .into_relation();
        assert_eq!(rel.rows(), &[row![0i64]]);
    }
}
