//! The IVM planner pass: lowering a bound continuous plan to an
//! incremental program, or reporting why it must re-evaluate — on the
//! same slice store, with the raw rows as payload ([`rows_program`]), on
//! whichever clock its window counts ([`Clock`]).
//!
//! A plan lowers when it has exactly one *anchor* — an `Aggregate` or a
//! `Distinct` — whose input is maintainable per tuple: a filter/project
//! chain over the stream scan, optionally (for aggregates) joined to a
//! stored table on hash-exact equi-keys. Everything above the anchor
//! becomes the *post-plan*, re-anchored on the synthetic [`IVM_INPUT`]
//! stream; at window close the runtime feeds it the relation composed
//! from slice partials.
//!
//! The eligibility rules are deliberately conservative: a shape lowered
//! for a private store must reproduce re-evaluation **byte-identically**,
//! so anything whose slice-merge could reorder floating-point accumulation
//! (float SUM/AVG, VARIANCE/STDDEV, float join keys) falls back. The one
//! exception is explicit: when stores are pooled across CQs
//! ([`lower_with`]'s `pooled`), a plain aggregate over `[Filter]
//! StreamScan` may carry such partials — one fold for N windows is the
//! point of pooling, and its merge differs from re-evaluation only in
//! float association order. Each fallback carries a stable reason string
//! that `EXPLAIN CHECK` surfaces and the `ivm.fallback` counter tallies.

use streamrel_exec::join::{extract_keys, flatten_and};
use streamrel_exec::Accumulator;
use streamrel_sql::plan::{AggFunc, AggSpec, BoundExpr, JoinKind, LogicalPlan, SchemaRef};
use streamrel_sql::WindowSpec;
use streamrel_types::DataType;

/// Synthetic stream name the post-plan scans; the runtime binds it to the
/// relation composed from IVM state at each window close.
pub const IVM_INPUT: &str = "__ivm_delta";

/// One maintained row transformation below the anchor.
#[derive(Debug, Clone)]
pub enum RowOp {
    /// Drop rows failing the predicate.
    Filter(BoundExpr),
    /// Map the row through projection expressions.
    Project(Vec<BoundExpr>),
}

/// The clock a store slices on: what its VISIBLE, ADVANCE, slices and
/// close cursors count ([`crate::IvmState::slice_time`] reads it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Event time: a tuple's CQTIME, the column at `cqtime` in the *stream*
    /// row (ops may project it away; it is read before the chain runs).
    /// Over a `derived` stream, whose batches are stamped at their close, a
    /// window is `(lo, close]`, which the store gets by slicing each tuple
    /// one tick early.
    Time { cqtime: usize, derived: bool },
    /// The tuple ordinal (`<VISIBLE n ROWS ADVANCE m ROWS>`). A close is
    /// stamped with the newest CQTIME taken so far, or — with no CQTIME
    /// value seen — the running row count.
    Rows { cqtime: Option<usize> },
    /// The ordinal of a derived stream's batch (`<SLICES n WINDOWS>`); a
    /// close is stamped with the bound of its newest batch.
    Batches,
}

impl Clock {
    /// Counts tuples or batches rather than time: ordinals start at the
    /// store's first member, so such a store has one member and no pool.
    pub fn is_ordinal(&self) -> bool {
        !matches!(self, Clock::Time { .. })
    }
}

/// The stream-side pipeline below the anchor: which stream feeds it, the
/// clock it slices on, and the filter/project chain applied per tuple.
#[derive(Debug, Clone)]
pub struct StreamPrefix {
    /// Source stream name.
    pub stream: String,
    /// Stream schema (the chain's input).
    pub input_schema: SchemaRef,
    /// What the store's slices and closes count.
    pub clock: Clock,
    /// Filter/project chain, in application order.
    pub ops: Vec<RowOp>,
}

/// The grouping/aggregation applied at the anchor.
#[derive(Debug, Clone)]
pub struct AggShape {
    /// Group-by expressions over the anchor input row.
    pub group_exprs: Vec<BoundExpr>,
    /// Aggregate functions (arguments over the anchor input row).
    pub aggs: Vec<AggSpec>,
    /// Anchor output schema (`[groups..., aggs...]`).
    pub schema: SchemaRef,
}

/// An equi-join from the stream side to a stored table, reduced to what
/// incremental maintenance needs: key extraction on both sides and the
/// table-side filter. Per-tuple state is keyed by the join key; the match
/// count against the boundary snapshot is resolved at window close.
#[derive(Debug, Clone)]
pub struct JoinShape {
    /// Key expressions over the stream-side (left) row.
    pub left_key: Vec<BoundExpr>,
    /// Joined table name.
    pub table: String,
    /// Table schema.
    pub table_schema: SchemaRef,
    /// Combined table-side filter (scan filter AND right-only WHERE
    /// conjuncts), over the table row.
    pub table_filter: Option<BoundExpr>,
    /// Key expressions over the table row.
    pub right_key: Vec<BoundExpr>,
}

/// What state the runtime maintains for a lowered plan.
#[derive(Debug, Clone)]
pub enum IvmShape {
    /// `Aggregate` over a stream chain: per-slice delta hash aggregates.
    Agg { prefix: StreamPrefix, agg: AggShape },
    /// `Aggregate` over stream ⋈ table: per-slice partials keyed by
    /// (join key, group key); match counts resolved against the window
    /// boundary snapshot.
    JoinAgg {
        prefix: StreamPrefix,
        join: JoinShape,
        agg: AggShape,
    },
    /// `Distinct` over a stream chain: per-slice first-seen row sets.
    Distinct {
        prefix: StreamPrefix,
        /// Anchor output schema (= its input schema).
        schema: SchemaRef,
    },
    /// Nothing maintained: each slice keeps its raw rows in arrival order
    /// and the whole plan runs over their concatenation at every close —
    /// re-evaluation, the zeroth-order delta. The prefix has no ops.
    Rows { prefix: StreamPrefix },
}

impl IvmShape {
    /// The stream-side pipeline below the anchor.
    pub fn prefix(&self) -> &StreamPrefix {
        match self {
            IvmShape::Agg { prefix, .. }
            | IvmShape::JoinAgg { prefix, .. }
            | IvmShape::Distinct { prefix, .. }
            | IvmShape::Rows { prefix } => prefix,
        }
    }

    /// The aggregates kept per key (none for DISTINCT and raw rows).
    pub fn aggs(&self) -> &[AggSpec] {
        match self {
            IvmShape::Agg { agg, .. } | IvmShape::JoinAgg { agg, .. } => &agg.aggs,
            IvmShape::Distinct { .. } | IvmShape::Rows { .. } => &[],
        }
    }

    /// Anchor output schema: what a composed window relation carries.
    pub fn schema(&self) -> &SchemaRef {
        match self {
            IvmShape::Agg { agg, .. } | IvmShape::JoinAgg { agg, .. } => &agg.schema,
            IvmShape::Distinct { schema, .. } => schema,
            IvmShape::Rows { prefix } => &prefix.input_schema,
        }
    }

    /// Stable fingerprint — stream, prefix ops, anchor — under which CQs
    /// that differ only in their windows pool into one slice store.
    pub fn fingerprint(&self) -> String {
        let prefix = self.prefix();
        let anchor = match self {
            IvmShape::Agg { agg, .. } => format!("agg|{:?}|{:?}", agg.group_exprs, agg.aggs),
            IvmShape::JoinAgg { join, agg, .. } => format!(
                "join|{}|{:?}|{:?}|{:?}|{:?}|{:?}",
                join.table.to_ascii_lowercase(),
                join.left_key,
                join.right_key,
                join.table_filter,
                agg.group_exprs,
                agg.aggs
            ),
            IvmShape::Distinct { .. } => "distinct".to_string(),
            IvmShape::Rows { .. } => "rows".to_string(),
        };
        // The composed relation carries the store's anchor schema, so two
        // CQs that alias the anchor columns differently must not pool.
        format!(
            "{}|{:?}|{anchor}|{:?}",
            prefix.stream.to_ascii_lowercase(),
            prefix.ops,
            self.schema()
        )
    }
}

/// A lowered continuous plan: the incremental shape plus the post-plan
/// that consumes the composed anchor output at window close.
#[derive(Debug, Clone)]
pub struct IvmProgram {
    /// State to maintain per tuple.
    pub shape: IvmShape,
    /// Plan over [`IVM_INPUT`] run at each close.
    pub post_plan: LogicalPlan,
    /// Window VISIBLE (µs).
    pub visible: i64,
    /// Window ADVANCE (µs).
    pub advance: i64,
    /// The order the post-plan's `ORDER BY` gives the anchor's keys, when
    /// a window view can emit in it.
    pub order: Option<KeyOrder>,
}

/// The order a member's `ORDER BY` puts every one of its anchor's keys in:
/// its window view emits in it, and the post-plan's sort finds one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyOrder {
    /// Positions in the store key, most significant first: the group
    /// columns as the sort names them, then a join aggregate's join key,
    /// which makes the order total over the keys a store holds.
    pub columns: std::sync::Arc<[usize]>,
    /// The sort is descending: the view emits back to front.
    pub desc: bool,
}

/// Outcome of the lowering pass.
pub enum Lowering {
    /// The plan lowers to an incremental program.
    Lowered(Box<IvmProgram>),
    /// The plan must re-evaluate per window; the reason is stable text
    /// surfaced by `EXPLAIN CHECK` and the `ivm.fallback` counter.
    Fallback(&'static str),
}

/// Lower a bound continuous plan for a private store, or report the
/// fallback reason: only order-exact merges are admitted.
pub fn lower(plan: &LogicalPlan) -> Lowering {
    lower_with(plan, false)
}

/// Lower a bound continuous plan, or report the fallback reason. With
/// `pooled` (stores shared across CQs), a plain aggregate over `[Filter]
/// StreamScan` may also keep float SUM/AVG and VARIANCE/STDDEV partials,
/// whose slice merge is not order-exact.
pub fn lower_with(plan: &LogicalPlan, pooled: bool) -> Lowering {
    let mut found: Option<(IvmShape, WindowSpec)> = None;
    let post_plan = match rewrite(plan, pooled, &mut found) {
        Ok(p) => p,
        Err(reason) => return Lowering::Fallback(reason),
    };
    match found {
        Some((shape, WindowSpec::Time { visible, advance })) => {
            Lowering::Lowered(Box::new(IvmProgram {
                order: key_order(&post_plan, &shape),
                shape,
                post_plan,
                visible,
                advance,
            }))
        }
        // parse_stream_chain only admits time windows; defense in depth.
        Some(_) => Lowering::Fallback(REASON_WINDOW),
        None => Lowering::Fallback(REASON_NO_ANCHOR),
    }
}

/// The program of a plan that is *not* maintained: its window's raw rows
/// are the slice payload ([`IvmShape::Rows`]) and the post-plan is the
/// whole plan, still bound to the stream's own name. A time window slices
/// on CQTIME, a ROWS window on the tuple ordinal and a SLICES window on the
/// batch ordinal ([`Clock`]). `None` when the plan scans no bounded window.
pub fn rows_program(plan: &LogicalPlan) -> Option<Box<IvmProgram>> {
    let mut scan = None;
    plan.visit(&mut |p| {
        if matches!(p, LogicalPlan::StreamScan { .. }) {
            scan = Some(p);
        }
    });
    // The scan alone is a chain of no ops.
    let (prefix, visible, advance) = scan_prefix(scan?).ok()?;
    Some(Box::new(IvmProgram {
        shape: IvmShape::Rows { prefix },
        post_plan: plan.clone(),
        visible,
        advance,
        order: None,
    }))
}

/// The [`KeyOrder`] of a post-plan whose lowest `Sort`, reached from the
/// anchor through Filters and column-only Projects (which neither reorder
/// nor merge rows), leads with plain columns naming every group column
/// once, all ASC or all DESC: groups are unique, so that sort's output does
/// not depend on the order the view emits in. `None` where no view is kept
/// (a partial that cannot retract) and for a `Float` group column, whose
/// `0.0` and `-0.0` are one group spelled as the window first saw it.
fn key_order(post_plan: &LogicalPlan, shape: &IvmShape) -> Option<KeyOrder> {
    let (groups, joined) = match shape {
        IvmShape::Agg { agg, .. } => (agg.group_exprs.len(), 0),
        IvmShape::JoinAgg { join, agg, .. } => (agg.group_exprs.len(), join.left_key.len()),
        IvmShape::Distinct { schema, .. } => (schema.len(), 0),
        IvmShape::Rows { .. } => return None,
    };
    let float_key = shape.schema().columns()[..groups]
        .iter()
        .any(|c| c.ty == DataType::Float);
    if groups == 0 || float_key || !shape.aggs().iter().all(Accumulator::has_inverse) {
        return None;
    }
    let column = |e: &BoundExpr| match e {
        BoundExpr::Column { index, .. } => Some(*index),
        _ => None,
    };
    // The post-plan is one chain ending at the anchor's scan: walk it up.
    let mut chain = Vec::new();
    post_plan.visit(&mut |p| chain.push(p));
    let mut projects: Vec<&[BoundExpr]> = Vec::new();
    let keys = chain.iter().rev().skip(1).find_map(|p| match p {
        LogicalPlan::Filter { .. } => None,
        LogicalPlan::Project { exprs, .. } if exprs.iter().all(|e| column(e).is_some()) => {
            projects.push(exprs);
            None
        }
        LogicalPlan::Sort { keys, .. } => Some(Some(keys)),
        _ => Some(None),
    })??;
    let lead = keys.get(..groups)?;
    let mut columns = Vec::with_capacity(groups + joined);
    for key in lead {
        let down = |at, exprs: &&[BoundExpr]| column(exprs.get(at)?);
        let at = projects.iter().rev().try_fold(column(&key.expr)?, down)?;
        if at >= groups || columns.contains(&(joined + at)) || key.asc != lead[0].asc {
            return None;
        }
        columns.push(joined + at);
    }
    columns.extend(0..joined);
    Some(KeyOrder {
        columns: columns.into(),
        desc: !lead[0].asc,
    })
}

const REASON_NO_ANCHOR: &str = "no aggregate or distinct anchor to maintain incrementally";
const REASON_TWO_ANCHORS: &str = "more than one incremental anchor";
const REASON_WINDOW: &str = "only time windows lower to slices";
const REASON_NO_CQTIME: &str = "stream has no CQTIME column to slice on";
const REASON_CQ_CLOSE: &str = "cq_close(*) below the anchor is unknown at slice time";
const REASON_FLOAT_AGG: &str = "float sum/avg slice merge is not order-exact";
const REASON_VARIANCE: &str = "variance/stddev slice merge is not order-exact";
const REASON_JOIN_ABOVE: &str = "join above the incremental anchor";
const REASON_JOIN_KIND: &str = "only inner stream-table joins lower";
const REASON_CROSS_JOIN: &str = "cross join has no key to index on";
const REASON_NO_EQUI_KEY: &str = "join condition has no equi-key";
const REASON_RESIDUAL: &str = "non-equi join conjuncts require re-evaluation";
const REASON_KEY_TYPES: &str = "join key sides have different types";
const REASON_FLOAT_KEY: &str = "float join keys are not hash-exact";
const REASON_FILTER_SPANS: &str = "filter conjunct spans both join sides";
const REASON_GROUP_SIDE: &str = "group key references the table side";
const REASON_AGG_SIDE: &str = "aggregate argument references the table side";
const REASON_RIGHT_NOT_TABLE: &str = "join right side is not a stored table scan";
const REASON_STREAM_RIGHT: &str = "stream on the join's right side";
const REASON_BELOW_ANCHOR: &str = "unsupported operator below the anchor";

fn rewrite(
    plan: &LogicalPlan,
    pooled: bool,
    found: &mut Option<(IvmShape, WindowSpec)>,
) -> Result<LogicalPlan, &'static str> {
    match plan {
        LogicalPlan::Aggregate {
            input,
            group_exprs,
            aggs,
            schema,
        } => {
            if found.is_some() {
                return Err(REASON_TWO_ANCHORS);
            }
            let (shape, window) = lower_aggregate(input, group_exprs, aggs, schema, pooled)?;
            *found = Some((shape, window));
            Ok(LogicalPlan::StreamScan {
                stream: IVM_INPUT.to_string(),
                schema: schema.clone(),
                window,
                cqtime: None,
                derived: false,
            })
        }
        LogicalPlan::Distinct { input } => {
            if contains_aggregate(input) {
                // The aggregate below is the anchor; DISTINCT rides in the
                // post-plan over its (small) output.
                Ok(LogicalPlan::Distinct {
                    input: Box::new(rewrite(input, pooled, found)?),
                })
            } else {
                if found.is_some() {
                    return Err(REASON_TWO_ANCHORS);
                }
                let (prefix, window) = parse_stream_chain(input)?;
                let schema = input.schema();
                *found = Some((
                    IvmShape::Distinct {
                        prefix,
                        schema: schema.clone(),
                    },
                    window,
                ));
                Ok(LogicalPlan::StreamScan {
                    stream: IVM_INPUT.to_string(),
                    schema,
                    window,
                    cqtime: None,
                    derived: false,
                })
            }
        }
        LogicalPlan::Filter { input, predicate } => Ok(LogicalPlan::Filter {
            input: Box::new(rewrite(input, pooled, found)?),
            predicate: predicate.clone(),
        }),
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => Ok(LogicalPlan::Project {
            input: Box::new(rewrite(input, pooled, found)?),
            exprs: exprs.clone(),
            schema: schema.clone(),
        }),
        LogicalPlan::Sort { input, keys } => Ok(LogicalPlan::Sort {
            input: Box::new(rewrite(input, pooled, found)?),
            keys: keys.clone(),
        }),
        LogicalPlan::Limit { input, n } => Ok(LogicalPlan::Limit {
            input: Box::new(rewrite(input, pooled, found)?),
            n: *n,
        }),
        LogicalPlan::Join { .. } => Err(REASON_JOIN_ABOVE),
        LogicalPlan::StreamScan { .. } => Err(REASON_NO_ANCHOR),
        LogicalPlan::TableScan { .. } | LogicalPlan::OneRow => Err(REASON_NO_ANCHOR),
    }
}

fn contains_aggregate(plan: &LogicalPlan) -> bool {
    let mut found = false;
    plan.visit(&mut |p| {
        if matches!(p, LogicalPlan::Aggregate { .. }) {
            found = true;
        }
    });
    found
}

/// Walk a filter/project chain down to the stream scan.
fn parse_stream_chain(plan: &LogicalPlan) -> Result<(StreamPrefix, WindowSpec), &'static str> {
    let mut ops_rev: Vec<RowOp> = Vec::new();
    let mut cur = plan;
    loop {
        match cur {
            LogicalPlan::Filter { input, predicate } => {
                if predicate.uses_cq_close() {
                    return Err(REASON_CQ_CLOSE);
                }
                ops_rev.push(RowOp::Filter(predicate.clone()));
                cur = input;
            }
            LogicalPlan::Project {
                input,
                exprs,
                schema: _,
            } => {
                if exprs.iter().any(BoundExpr::uses_cq_close) {
                    return Err(REASON_CQ_CLOSE);
                }
                ops_rev.push(RowOp::Project(exprs.clone()));
                cur = input;
            }
            LogicalPlan::StreamScan { window, .. } => {
                // Only time windows lower; a count window re-evaluates.
                let WindowSpec::Time { .. } = window else {
                    return Err(REASON_WINDOW);
                };
                let (mut prefix, ..) = scan_prefix(cur)?;
                ops_rev.reverse();
                prefix.ops = ops_rev;
                return Ok((prefix, *window));
            }
            _ => return Err(REASON_BELOW_ANCHOR),
        }
    }
}

/// A stream scan as a prefix of no ops, with its window's VISIBLE and
/// ADVANCE on the prefix's clock.
fn scan_prefix(scan: &LogicalPlan) -> Result<(StreamPrefix, i64, i64), &'static str> {
    let LogicalPlan::StreamScan {
        stream,
        schema,
        window,
        cqtime,
        derived,
    } = scan
    else {
        return Err(REASON_BELOW_ANCHOR);
    };
    let (clock, visible, advance) = match *window {
        WindowSpec::Time { visible, advance } => {
            let cqtime = cqtime.ok_or(REASON_NO_CQTIME)?;
            let derived = *derived;
            (Clock::Time { cqtime, derived }, visible, advance)
        }
        WindowSpec::Rows { visible, advance } => (
            Clock::Rows { cqtime: *cqtime },
            visible as i64,
            advance as i64,
        ),
        WindowSpec::Slices { count } => (Clock::Batches, count as i64, 1),
        WindowSpec::Unbounded => return Err(REASON_WINDOW),
    };
    let prefix = StreamPrefix {
        stream: stream.clone(),
        input_schema: schema.clone(),
        clock,
        ops: Vec::new(),
    };
    Ok((prefix, visible, advance))
}

/// Per-aggregate eligibility. Integer sums are exact, and AVG over
/// integers keeps one (divided when read), so slice order cannot change
/// the result. Float SUM/AVG and VARIANCE/STDDEV merge float partials
/// whose rounding depends on association order — those lower only when
/// `inexact_ok`.
fn agg_eligible(spec: &AggSpec, inexact_ok: bool) -> Result<(), &'static str> {
    if spec.arg.as_ref().is_some_and(BoundExpr::uses_cq_close) {
        return Err(REASON_CQ_CLOSE);
    }
    let float_arg = matches!(spec.arg.as_ref().map(BoundExpr::ty), Some(DataType::Float));
    match spec.func {
        AggFunc::Sum | AggFunc::Avg if float_arg && !inexact_ok => Err(REASON_FLOAT_AGG),
        AggFunc::Variance | AggFunc::Stddev if !inexact_ok => Err(REASON_VARIANCE),
        _ => Ok(()),
    }
}

/// The exactness predicate: a merge that is not order-exact is admitted
/// only into pooled stores, and only for a plain aggregate over `[Filter]
/// StreamScan` — the shape whose one-fold-for-N-windows saving pooling
/// exists for.
fn inexact_merge_ok(input: &LogicalPlan, pooled: bool) -> bool {
    let scan = match input {
        LogicalPlan::Filter { input, .. } => input.as_ref(),
        other => other,
    };
    pooled && matches!(scan, LogicalPlan::StreamScan { .. })
}

fn lower_aggregate(
    input: &LogicalPlan,
    group_exprs: &[BoundExpr],
    aggs: &[AggSpec],
    schema: &SchemaRef,
    pooled: bool,
) -> Result<(IvmShape, WindowSpec), &'static str> {
    if group_exprs.iter().any(BoundExpr::uses_cq_close) {
        return Err(REASON_CQ_CLOSE);
    }
    let inexact_ok = inexact_merge_ok(input, pooled);
    for spec in aggs {
        agg_eligible(spec, inexact_ok)?;
    }
    let agg = AggShape {
        group_exprs: group_exprs.to_vec(),
        aggs: aggs.to_vec(),
        schema: schema.clone(),
    };

    // Peel WHERE filters sitting between the aggregate and a join; for a
    // plain chain they are handled by parse_stream_chain instead.
    let mut above: Vec<&BoundExpr> = Vec::new();
    let mut cur = input;
    while let LogicalPlan::Filter {
        input: inner,
        predicate,
    } = cur
    {
        above.push(predicate);
        cur = inner;
    }
    let LogicalPlan::Join {
        left,
        right,
        kind,
        on,
        schema: _,
    } = cur
    else {
        // No join below: the whole input is a stream chain.
        let (prefix, window) = parse_stream_chain(input)?;
        return Ok((IvmShape::Agg { prefix, agg }, window));
    };

    if *kind != JoinKind::Inner {
        return Err(REASON_JOIN_KIND);
    }
    let Some(on) = on else {
        return Err(REASON_CROSS_JOIN);
    };
    if on.uses_cq_close() {
        return Err(REASON_CQ_CLOSE);
    }

    // Stream on the left, stored table (with optional scan filter) on the
    // right — the shape `try_index_join` accelerates in the re-eval path.
    let (mut prefix, window) = parse_stream_chain(left).map_err(|e| {
        if matches!(left.as_ref(), LogicalPlan::TableScan { .. }) {
            REASON_STREAM_RIGHT
        } else {
            e
        }
    })?;
    let left_width = left.schema().len();
    let mut table_filters: Vec<BoundExpr> = Vec::new();
    let mut table_scan = right.as_ref();
    while let LogicalPlan::Filter {
        input: inner,
        predicate,
    } = table_scan
    {
        if predicate.uses_cq_close() {
            return Err(REASON_CQ_CLOSE);
        }
        table_filters.push(predicate.clone());
        table_scan = inner;
    }
    let LogicalPlan::TableScan {
        table,
        schema: table_schema,
    } = table_scan
    else {
        return Err(REASON_RIGHT_NOT_TABLE);
    };

    let Some(keys) = extract_keys(on, left_width) else {
        return Err(REASON_NO_EQUI_KEY);
    };
    if !keys.residual.is_empty() {
        return Err(REASON_RESIDUAL);
    }
    for (l, r) in keys.left.iter().zip(&keys.right) {
        if l.ty() != r.ty() {
            return Err(REASON_KEY_TYPES);
        }
        if l.ty() == DataType::Float {
            return Err(REASON_FLOAT_KEY);
        }
    }

    // Classify the peeled WHERE conjuncts by side: left-only ones join the
    // stream chain, right-only ones the table filter. A conjunct spanning
    // both sides would need the joined row — fall back.
    for predicate in above {
        if predicate.uses_cq_close() {
            return Err(REASON_CQ_CLOSE);
        }
        let mut conjuncts = Vec::new();
        flatten_and(predicate, &mut conjuncts);
        for mut c in conjuncts {
            let mut cols = Vec::new();
            c.referenced_columns(&mut cols);
            if cols.iter().all(|&i| i < left_width) {
                prefix.ops.push(RowOp::Filter(c));
            } else if cols.iter().all(|&i| i >= left_width) {
                c.map_columns(&|i| i - left_width);
                table_filters.push(c);
            } else {
                return Err(REASON_FILTER_SPANS);
            }
        }
    }

    // Group keys and aggregate arguments must be computable from the
    // stream row alone (their partials are scaled by the match count).
    let mut cols = Vec::new();
    for e in &agg.group_exprs {
        e.referenced_columns(&mut cols);
    }
    if cols.iter().any(|&i| i >= left_width) {
        return Err(REASON_GROUP_SIDE);
    }
    cols.clear();
    for spec in &agg.aggs {
        if let Some(arg) = &spec.arg {
            arg.referenced_columns(&mut cols);
        }
    }
    if cols.iter().any(|&i| i >= left_width) {
        return Err(REASON_AGG_SIDE);
    }

    let table_filter = table_filters.into_iter().reduce(|a, b| BoundExpr::Binary {
        op: streamrel_sql::ast::BinaryOp::And,
        left: Box::new(a),
        right: Box::new(b),
        ty: DataType::Bool,
    });
    Ok((
        IvmShape::JoinAgg {
            prefix,
            join: JoinShape {
                left_key: keys.left,
                table: table.clone(),
                table_schema: table_schema.clone(),
                table_filter,
                right_key: keys.right,
            },
            agg,
        },
        window,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use streamrel_sql::ast::WindowSpec;
    use streamrel_sql::plan::{BinaryOp, SortKey};
    use streamrel_types::time::MINUTES;
    use streamrel_types::{Column, DataType, Schema, Value};

    fn fallback_reason(plan: &LogicalPlan) -> Option<&'static str> {
        match lower(plan) {
            Lowering::Lowered(_) => None,
            Lowering::Fallback(r) => Some(r),
        }
    }

    fn stream_schema() -> SchemaRef {
        Arc::new(
            Schema::new(vec![
                Column::new("url", DataType::Text),
                Column::not_null("atime", DataType::Timestamp),
            ])
            .unwrap(),
        )
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

    fn time_window() -> WindowSpec {
        WindowSpec::Time {
            visible: 2 * MINUTES,
            advance: MINUTES,
        }
    }

    fn scan(window: WindowSpec) -> LogicalPlan {
        LogicalPlan::StreamScan {
            stream: "url_stream".into(),
            schema: stream_schema(),
            window,
            cqtime: Some(1),
            derived: false,
        }
    }

    fn col(index: usize, ty: DataType) -> BoundExpr {
        BoundExpr::Column { index, ty }
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

    fn agg_schema() -> SchemaRef {
        Arc::new(Schema::new_unchecked(vec![
            Column::new("url", DataType::Text),
            Column::new("count", DataType::Int),
        ]))
    }

    fn count_plan(input: LogicalPlan) -> LogicalPlan {
        LogicalPlan::Aggregate {
            input: Box::new(input),
            group_exprs: vec![col(0, DataType::Text)],
            aggs: vec![count_spec()],
            schema: agg_schema(),
        }
    }

    #[test]
    fn grouped_count_lowers_to_agg_shape() {
        let plan = count_plan(scan(time_window()));
        let Lowering::Lowered(p) = lower(&plan) else {
            panic!("expected lowered: {:?}", fallback_reason(&plan));
        };
        assert!(matches!(p.shape, IvmShape::Agg { .. }));
        assert_eq!((p.visible, p.advance), (2 * MINUTES, MINUTES));
        // The post-plan is the anchor replacement alone: a scan of the
        // composed delta input.
        assert!(
            matches!(&p.post_plan, LogicalPlan::StreamScan { stream, .. } if stream == IVM_INPUT)
        );
        assert!(fallback_reason(&plan).is_none());
    }

    #[test]
    fn wrappers_above_anchor_stay_in_post_plan() {
        let plan = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Sort {
                input: Box::new(count_plan(scan(time_window()))),
                keys: vec![SortKey {
                    expr: col(1, DataType::Int),
                    asc: false,
                }],
            }),
            n: 5,
        };
        let Lowering::Lowered(p) = lower(&plan) else {
            panic!("expected lowered: {:?}", fallback_reason(&plan));
        };
        assert!(matches!(p.post_plan, LogicalPlan::Limit { .. }));
    }

    #[test]
    fn a_sort_that_places_every_key_orders_the_view() {
        let sort = |input: LogicalPlan, keys: &[(usize, bool)]| LogicalPlan::Sort {
            input: Box::new(input),
            keys: (keys.iter())
                .map(|&(i, asc)| SortKey {
                    expr: col(i, DataType::Text),
                    asc,
                })
                .collect(),
        };
        let order = |plan: &LogicalPlan| match lower(plan) {
            Lowering::Lowered(p) => p.order.map(|o| (o.columns.to_vec(), o.desc)),
            Lowering::Fallback(r) => panic!("expected lowered: {r}"),
        };
        let grouped = || count_plan(scan(time_window()));
        assert_eq!(
            order(&sort(grouped(), &[(0, false)])),
            Some((vec![0], true))
        );
        // Trailing keys never break a tie; a leading aggregate does.
        assert_eq!(
            order(&sort(grouped(), &[(0, true), (1, false)])),
            Some((vec![0], false))
        );
        assert_eq!(order(&sort(grouped(), &[(1, true), (0, true)])), None);
        // Through a filter and a column swap; not past a limit.
        let swapped = LogicalPlan::Project {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(grouped()),
                predicate: BoundExpr::Literal(Value::Bool(true)),
            }),
            exprs: vec![col(1, DataType::Int), col(0, DataType::Text)],
            schema: agg_schema(),
        };
        assert_eq!(order(&sort(swapped, &[(1, true)])), Some((vec![0], false)));
        let limited = LogicalPlan::Limit {
            input: Box::new(grouped()),
            n: 3,
        };
        assert_eq!(order(&sort(limited, &[(0, true)])), None);
        // A join aggregate's key is (join key, group key): the group key
        // leads and the join key makes the order total.
        assert_eq!(
            order(&sort(join_plan(Some(url_eq())), &[(0, true)])),
            Some((vec![1, 0], false))
        );
        // A float group key keeps its first-seen spelling.
        let mut float = grouped();
        let LogicalPlan::Aggregate {
            group_exprs,
            schema,
            ..
        } = &mut float
        else {
            unreachable!()
        };
        group_exprs[0] = BoundExpr::Literal(Value::Float(-0.0));
        *schema = Arc::new(Schema::new_unchecked(vec![
            Column::new("f", DataType::Float),
            Column::new("count", DataType::Int),
        ]));
        assert_eq!(order(&sort(float, &[(0, true)])), None);
    }

    #[test]
    fn rows_window_falls_back() {
        let plan = count_plan(scan(WindowSpec::Rows {
            visible: 10,
            advance: 5,
        }));
        assert_eq!(fallback_reason(&plan), Some(REASON_WINDOW));
    }

    #[test]
    fn float_sum_falls_back() {
        let mut plan = count_plan(scan(time_window()));
        let LogicalPlan::Aggregate { aggs, .. } = &mut plan else {
            unreachable!()
        };
        aggs[0] = AggSpec {
            func: AggFunc::Sum,
            arg: Some(BoundExpr::Literal(Value::Float(1.0))),
            distinct: false,
            name: "sum".into(),
            ty: DataType::Float,
        };
        assert_eq!(fallback_reason(&plan), Some(REASON_FLOAT_AGG));
        // The exactness predicate: pooled stores take the inexact merge
        // for a plain aggregate over [Filter] StreamScan...
        assert!(matches!(lower_with(&plan, true), Lowering::Lowered(_)));
        // ...but not above a projected prefix, where it stays exact-only.
        let LogicalPlan::Aggregate { input, .. } = &mut plan else {
            unreachable!()
        };
        let bare = std::mem::replace(input.as_mut(), LogicalPlan::OneRow);
        **input = LogicalPlan::Project {
            exprs: vec![col(0, DataType::Text), col(1, DataType::Timestamp)],
            schema: stream_schema(),
            input: Box::new(bare),
        };
        assert!(matches!(
            lower_with(&plan, true),
            Lowering::Fallback(REASON_FLOAT_AGG)
        ));
        let LogicalPlan::Aggregate { input, .. } = &mut plan else {
            unreachable!()
        };
        **input = scan(time_window());
        // Integer SUM stays eligible.
        let LogicalPlan::Aggregate { aggs, .. } = &mut plan else {
            unreachable!()
        };
        aggs[0] = AggSpec {
            func: AggFunc::Sum,
            arg: Some(BoundExpr::Literal(Value::Int(1))),
            distinct: false,
            name: "sum".into(),
            ty: DataType::Int,
        };
        assert!(fallback_reason(&plan).is_none());
    }

    #[test]
    fn plain_select_falls_back_without_anchor() {
        let plan = LogicalPlan::Filter {
            input: Box::new(scan(time_window())),
            predicate: BoundExpr::Literal(Value::Bool(true)),
        };
        assert_eq!(fallback_reason(&plan), Some(REASON_NO_ANCHOR));
    }

    fn join_plan(on: Option<BoundExpr>) -> LogicalPlan {
        let mut cols: Vec<Column> = stream_schema().columns().to_vec();
        cols.extend(dims_schema().columns().iter().cloned());
        let join_schema = Arc::new(Schema::new_unchecked(cols));
        LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Join {
                left: Box::new(scan(time_window())),
                right: Box::new(LogicalPlan::TableScan {
                    table: "dims".into(),
                    schema: dims_schema(),
                }),
                kind: JoinKind::Inner,
                on,
                schema: join_schema,
            }),
            group_exprs: vec![col(0, DataType::Text)],
            aggs: vec![count_spec()],
            schema: agg_schema(),
        }
    }

    fn url_eq() -> BoundExpr {
        BoundExpr::Binary {
            op: BinaryOp::Eq,
            left: Box::new(col(0, DataType::Text)),
            right: Box::new(col(2, DataType::Text)),
            ty: DataType::Bool,
        }
    }

    #[test]
    fn equi_join_lowers_to_a_join_store() {
        let plan = join_plan(Some(url_eq()));
        let Lowering::Lowered(p) = lower(&plan) else {
            panic!("expected lowered: {:?}", fallback_reason(&plan));
        };
        let IvmShape::JoinAgg { join, .. } = &p.shape else {
            panic!("expected JoinAgg shape");
        };
        assert_eq!(join.table, "dims");
        // Each key is over its own side's row: the stream's, the table's.
        assert_eq!(join.left_key, vec![col(0, DataType::Text)]);
        assert_eq!(join.right_key, vec![col(0, DataType::Text)]);
    }

    #[test]
    fn cross_join_falls_back() {
        let plan = join_plan(None);
        assert_eq!(fallback_reason(&plan), Some(REASON_CROSS_JOIN));
    }

    #[test]
    fn group_key_on_table_side_falls_back() {
        let mut plan = join_plan(Some(url_eq()));
        let LogicalPlan::Aggregate { group_exprs, .. } = &mut plan else {
            unreachable!()
        };
        group_exprs[0] = col(3, DataType::Int);
        assert_eq!(fallback_reason(&plan), Some(REASON_GROUP_SIDE));
    }

    #[test]
    fn distinct_over_stream_lowers() {
        let plan = LogicalPlan::Distinct {
            input: Box::new(scan(time_window())),
        };
        let Lowering::Lowered(p) = lower(&plan) else {
            panic!("expected lowered: {:?}", fallback_reason(&plan));
        };
        assert!(matches!(p.shape, IvmShape::Distinct { .. }));
    }

    #[test]
    fn derived_stream_lowers_and_carries_its_convention() {
        let plan = count_plan(LogicalPlan::StreamScan {
            stream: "hits_1m".into(),
            schema: stream_schema(),
            window: time_window(),
            cqtime: Some(1),
            derived: true,
        });
        let Lowering::Lowered(p) = lower(&plan) else {
            panic!("expected lowered: {:?}", fallback_reason(&plan));
        };
        let clock = Clock::Time {
            cqtime: 1,
            derived: true,
        };
        assert_eq!(p.shape.prefix().clock, clock);
    }

    #[test]
    fn rows_program_keeps_the_whole_plan_over_the_streams_own_name() {
        let plan = LogicalPlan::Filter {
            input: Box::new(scan(time_window())),
            predicate: BoundExpr::Literal(Value::Bool(true)),
        };
        let p = rows_program(&plan).expect("a time window slices");
        assert!(matches!(&p.shape, IvmShape::Rows { prefix } if prefix.ops.is_empty()));
        assert_eq!((p.visible, p.advance), (2 * MINUTES, MINUTES));
        assert_eq!(p.post_plan.stream_scans()[0].0, "url_stream");
        assert!(p.shape.aggs().is_empty());
        // Count windows slice on an ordinal clock: a ROWS window on the
        // tuple's, SLICES n on the batch's, one batch at a time.
        let clocked = |window| {
            let p = rows_program(&scan(window)).expect("a bounded window slices");
            (p.shape.prefix().clock, p.visible, p.advance)
        };
        let rows = WindowSpec::Rows {
            visible: 10,
            advance: 5,
        };
        let cqtime = Some(1);
        assert_eq!(clocked(rows), (Clock::Rows { cqtime }, 10, 5));
        let slices = WindowSpec::Slices { count: 3 };
        assert_eq!(clocked(slices), (Clock::Batches, 3, 1));
        assert!(rows_program(&scan(WindowSpec::Unbounded)).is_none());
    }
}
