//! Plan executor: runs a logical plan over finite relations.
//!
//! One function, [`execute`], serves both query classes of §3.1:
//! - **Snapshot query (SQ)**: no `StreamScan` in the plan; table scans pull
//!   from the [`RelationSource`] and the result is the final relation.
//! - **Continuous query (CQ)**: the CQ runtime calls `execute` once per
//!   window with that window's relation ([`ExecContext::window`]) and
//!   `cq_close` set to the window boundary; the concatenated per-window
//!   results form the output stream (RSTREAM, Figure 1).

use std::cell::Cell;
use std::collections::HashMap;
use std::ops::Bound;
use std::sync::Arc;

use streamrel_types::{Error, Relation, Result, Row, Timestamp, Value};

use streamrel_sql::plan::{AggSpec, BoundExpr, LogicalPlan, SortKey};

use crate::agg::Accumulator;
use crate::expr::{eval, eval_predicate, EvalContext};
use crate::join;
use crate::source::RelationSource;

/// Cached executor instruments. Registered once per engine (the registry
/// lookup happens at registration, not per plan execution).
pub struct ExecMetrics {
    /// Plans run to completion (snapshot queries + per-window CQ steps).
    pub plans_run: Arc<streamrel_obs::Counter>,
    /// Result rows produced by completed plans.
    pub rows_out: Arc<streamrel_obs::Counter>,
}

impl ExecMetrics {
    /// Register (or re-attach to) the executor instruments in `registry`.
    pub fn register(registry: &streamrel_obs::Registry) -> ExecMetrics {
        ExecMetrics {
            plans_run: registry.counter("exec.plans_run"),
            rows_out: registry.counter("exec.rows_out"),
        }
    }
}

/// A CQ step's window relation: lent, and the plan's `StreamScan` copies
/// it, or handed over, and the scan takes it.
enum WindowRows<'a> {
    Lent(&'a Relation),
    Given(Cell<Option<Relation>>),
}

/// Everything `execute` needs besides the plan.
pub struct ExecContext<'a> {
    /// Table provider (MVCC scans live behind this).
    pub source: &'a dyn RelationSource,
    /// The current window's rows for the plan's single `StreamScan`, if
    /// this is one step of a CQ. Keyed by stream name (lower case).
    stream_input: Option<(&'a str, WindowRows<'a>)>,
    /// Window close timestamp for `cq_close(*)`.
    pub cq_close: Option<Timestamp>,
    /// Optional executor instruments, bumped once per completed plan.
    pub metrics: Option<&'a ExecMetrics>,
}

impl<'a> ExecContext<'a> {
    /// Context for a snapshot query.
    pub fn snapshot(source: &'a dyn RelationSource) -> ExecContext<'a> {
        ExecContext {
            source,
            stream_input: None,
            cq_close: None,
            metrics: None,
        }
    }

    /// Context for one window of a CQ.
    pub fn window(
        source: &'a dyn RelationSource,
        stream: &'a str,
        rows: &'a Relation,
        close: Timestamp,
    ) -> ExecContext<'a> {
        ExecContext {
            stream_input: Some((stream, WindowRows::Lent(rows))),
            cq_close: Some(close),
            ..ExecContext::snapshot(source)
        }
    }

    /// [`ExecContext::window`] for a window the caller hands over: the
    /// plan's `StreamScan` takes the relation instead of copying it.
    pub fn window_owned(
        source: &'a dyn RelationSource,
        stream: &'a str,
        rows: Relation,
        close: Timestamp,
    ) -> ExecContext<'a> {
        let rows = WindowRows::Given(Cell::new(Some(rows)));
        ExecContext {
            stream_input: Some((stream, rows)),
            cq_close: Some(close),
            ..ExecContext::snapshot(source)
        }
    }

    /// Attach executor instruments (builder style).
    pub fn with_metrics(mut self, metrics: &'a ExecMetrics) -> ExecContext<'a> {
        self.metrics = Some(metrics);
        self
    }

    fn eval_ctx(&self) -> EvalContext {
        EvalContext {
            cq_close: self.cq_close,
        }
    }
}

/// Execute a plan to a materialized relation.
pub fn execute(plan: &LogicalPlan, ctx: &ExecContext<'_>) -> Result<Relation> {
    let rel = execute_node(plan, ctx)?;
    if let Some(m) = ctx.metrics {
        m.plans_run.inc();
        m.rows_out.add(rel.len() as u64);
    }
    Ok(rel)
}

/// Recursive worker: executes one plan node (metrics are observed only at
/// the top level, by [`execute`]).
fn execute_node(plan: &LogicalPlan, ctx: &ExecContext<'_>) -> Result<Relation> {
    let ectx = ctx.eval_ctx();
    match plan {
        LogicalPlan::OneRow => {
            let mut rel = Relation::empty(plan.schema());
            rel.push(Vec::new());
            Ok(rel)
        }
        LogicalPlan::TableScan { table, .. } => ctx.source.scan_table(table),
        LogicalPlan::StreamScan { stream, .. } => match &ctx.stream_input {
            Some((name, rows)) if name.eq_ignore_ascii_case(stream) => match rows {
                WindowRows::Lent(rel) => Ok((*rel).clone()),
                WindowRows::Given(rel) => rel.take().ok_or_else(|| {
                    Error::stream(format!("window input for `{stream}` was already scanned"))
                }),
            },
            Some((name, _)) => Err(Error::stream(format!(
                "executor was given window input for `{name}` but the plan scans `{stream}`"
            ))),
            None => Err(Error::stream(format!(
                "continuous plan over `{stream}` executed without window input \
                 (run it through the CQ runtime)"
            ))),
        },
        LogicalPlan::Filter { input, predicate } => {
            let rel = match index_range_scan(input, predicate, ctx)? {
                Some(rel) => rel,
                None => execute_node(input, ctx)?,
            };
            let mut out = Relation::empty(rel.schema().clone());
            for row in rel.into_rows() {
                if eval_predicate(predicate, &row, &ectx)? {
                    out.push(row);
                }
            }
            Ok(out)
        }
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => {
            let rel = execute_node(input, ctx)?;
            // The input columns in order: only the names change.
            let identity = exprs.len() == rel.schema().len()
                && exprs
                    .iter()
                    .enumerate()
                    .all(|(i, e)| matches!(e, BoundExpr::Column { index, .. } if *index == i));
            if identity {
                return Ok(Relation::new(schema.clone(), rel.into_rows()));
            }
            let mut out = Relation::empty(schema.clone());
            for row in rel.rows() {
                let mut new_row = Vec::with_capacity(exprs.len());
                for e in exprs {
                    new_row.push(eval(e, row, &ectx)?);
                }
                out.push(new_row);
            }
            Ok(out)
        }
        LogicalPlan::Aggregate {
            input,
            group_exprs,
            aggs,
            schema,
        } => {
            let rel = execute_node(input, ctx)?;
            aggregate(&rel, group_exprs, aggs, schema.clone(), &ectx)
        }
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
            schema,
        } => {
            let l = execute_node(left, ctx)?;
            // No left rows → no output rows for INNER/LEFT/CROSS; skip
            // materializing the right side entirely. This matters for CQs:
            // empty windows would otherwise re-scan joined tables (e.g.
            // Example 5's archive) once per idle ADVANCE.
            if l.is_empty() {
                return Ok(Relation::empty(schema.clone()));
            }
            // Index nested-loop: when the right side is a table scan with
            // a usable index on an equi-join column, probe the index per
            // left row instead of materializing + hashing the table.
            if let Some(rel) = try_index_join(&l, right, *kind, on.as_ref(), schema, ctx)? {
                return Ok(rel);
            }
            let r = execute_node(right, ctx)?;
            join::join(&l, &r, *kind, on.as_ref(), schema.clone(), &ectx)
        }
        LogicalPlan::Sort { input, keys } => {
            let mut rel = execute_node(input, ctx)?;
            sort_relation(&mut rel, keys, &ectx)?;
            Ok(rel)
        }
        LogicalPlan::Limit { input, n } => {
            let rel = execute_node(input, ctx)?;
            let schema = rel.schema().clone();
            let mut rows = rel.into_rows();
            rows.truncate(*n as usize);
            Ok(Relation::new(schema, rows))
        }
        LogicalPlan::Distinct { input } => {
            let rel = execute_node(input, ctx)?;
            let schema = rel.schema().clone();
            let mut seen: std::collections::HashSet<Row> = std::collections::HashSet::new();
            let mut out = Relation::empty(schema);
            for row in rel.into_rows() {
                if seen.insert(row.clone()) {
                    out.push(row);
                }
            }
            Ok(out)
        }
    }
}

/// Answer `Filter(TableScan)` through an ordered index when conjuncts of
/// the predicate bound a column with `<, <=, >, >=, =` (so `BETWEEN` too)
/// against constants and the source has a single-column index on it. The
/// first lower and first upper bound found for that column select the
/// range; the caller still applies the whole predicate, so every other
/// conjunct — and NULL keys, which sort last — are filtered as in a scan.
fn index_range_scan(
    input: &LogicalPlan,
    predicate: &BoundExpr,
    ctx: &ExecContext<'_>,
) -> Result<Option<Relation>> {
    use streamrel_sql::plan::BinaryOp::*;
    let LogicalPlan::TableScan { table, schema } = input else {
        return Ok(None);
    };
    // (column, lower, upper) per bounded column, in conjunct order.
    let mut bounds: Vec<(usize, Bound<&Value>, Bound<&Value>)> = Vec::new();
    let mut conjuncts = vec![predicate];
    while let Some(e) = conjuncts.pop() {
        let BoundExpr::Binary {
            op, left, right, ..
        } = e
        else {
            continue;
        };
        let (col, v, op) = match (op, left.as_ref(), right.as_ref()) {
            (And, l, r) => {
                conjuncts.extend([r, l]);
                continue;
            }
            (op, BoundExpr::Column { index, .. }, BoundExpr::Literal(v)) => (*index, v, *op),
            // `literal op column` reads as `column flipped-op literal`.
            (Lt, BoundExpr::Literal(v), BoundExpr::Column { index, .. }) => (*index, v, Gt),
            (Le, BoundExpr::Literal(v), BoundExpr::Column { index, .. }) => (*index, v, Ge),
            (Gt, BoundExpr::Literal(v), BoundExpr::Column { index, .. }) => (*index, v, Lt),
            (Ge, BoundExpr::Literal(v), BoundExpr::Column { index, .. }) => (*index, v, Le),
            (Eq, BoundExpr::Literal(v), BoundExpr::Column { index, .. }) => (*index, v, Eq),
            _ => continue,
        };
        let (lo, hi) = match op {
            Gt => (Bound::Excluded(v), Bound::Unbounded),
            Ge => (Bound::Included(v), Bound::Unbounded),
            Lt => (Bound::Unbounded, Bound::Excluded(v)),
            Le => (Bound::Unbounded, Bound::Included(v)),
            Eq => (Bound::Included(v), Bound::Included(v)),
            _ => continue,
        };
        let at = match bounds.iter().position(|b| b.0 == col) {
            Some(at) => at,
            None => {
                bounds.push((col, Bound::Unbounded, Bound::Unbounded));
                bounds.len() - 1
            }
        };
        let slot = &mut bounds[at];
        if slot.1 == Bound::Unbounded {
            slot.1 = lo;
        }
        if slot.2 == Bound::Unbounded {
            slot.2 = hi;
        }
    }
    for (col, lo, hi) in bounds {
        let column = &schema.column(col).name;
        if let Some(rows) = ctx.source.index_range(table, column, lo, hi)? {
            return Ok(Some(Relation::new(schema.clone(), rows)));
        }
    }
    Ok(None)
}

/// Attempt an index nested-loop join. Engages when the right child is a
/// bare `TableScan`, the ON clause has an equi-condition whose right side
/// is a plain column, and the source reports an index on that column.
/// Returns `Ok(None)` to fall back to hash/nested-loop join.
fn try_index_join(
    left: &Relation,
    right_plan: &LogicalPlan,
    kind: streamrel_sql::plan::JoinKind,
    on: Option<&BoundExpr>,
    out_schema: &streamrel_sql::plan::SchemaRef,
    ctx: &ExecContext<'_>,
) -> Result<Option<Relation>> {
    use streamrel_sql::plan::JoinKind;
    // Accept a bare TableScan or a pushed-down Filter(TableScan); the
    // filter predicate (over the right row alone) applies per candidate.
    let (table, right_schema, right_filter) = match right_plan {
        LogicalPlan::TableScan { table, schema } => (table, schema, None),
        LogicalPlan::Filter { input, predicate } => match input.as_ref() {
            LogicalPlan::TableScan { table, schema } => (table, schema, Some(predicate)),
            _ => return Ok(None),
        },
        _ => return Ok(None),
    };
    let Some(on) = on else { return Ok(None) };
    let left_width = left.schema().len();
    let Some(keys) = join::extract_keys(on, left_width) else {
        return Ok(None);
    };
    // Pick the first key pair whose right side is a plain column with an
    // index; the remaining key pairs become residual equality checks.
    let mut probe: Option<(usize, String)> = None; // (key idx, column name)
    for (i, r) in keys.right.iter().enumerate() {
        if let BoundExpr::Column { index, .. } = r {
            let col = &right_schema.column(*index).name;
            // Cheap existence probe: ask for a lookup of a sentinel; a
            // `None` answer means no index on this column.
            if ctx.source.index_lookup(table, col, &Value::Null)?.is_some() {
                probe = Some((i, col.clone()));
                break;
            }
        }
    }
    let Some((key_idx, column)) = probe else {
        return Ok(None);
    };
    let ectx = ctx.eval_ctx();
    let right_width = right_schema.len();
    let mut out = Relation::empty(out_schema.clone());
    for l in left.rows() {
        let key = eval(&keys.left[key_idx], l, &ectx)?;
        let mut matched = false;
        if !key.is_null() {
            let candidates = ctx
                .source
                .index_lookup(table, &column, &key)?
                .unwrap_or_default();
            'cand: for r in candidates {
                // Pushed-down right-side filter first.
                if let Some(f) = right_filter {
                    if !eval_predicate(f, &r, &ectx)? {
                        continue 'cand;
                    }
                }
                // Verify the remaining equi keys and residual predicates.
                for (i, (lk, rk)) in keys.left.iter().zip(&keys.right).enumerate() {
                    if i == key_idx {
                        continue;
                    }
                    let lv = eval(lk, l, &ectx)?;
                    let rv = eval(rk, &r, &ectx)?;
                    if lv.sql_eq(&rv) != Some(true) {
                        continue 'cand;
                    }
                }
                let combined = streamrel_types::row::concat(l, &r);
                for p in &keys.residual {
                    if !eval_predicate(p, &combined, &ectx)? {
                        continue 'cand;
                    }
                }
                matched = true;
                out.push(combined);
            }
        }
        if !matched && kind == JoinKind::Left {
            let mut combined = l.clone();
            combined.extend(std::iter::repeat_n(Value::Null, right_width));
            out.push(combined);
        }
    }
    Ok(Some(out))
}

/// Hash aggregation over a materialized relation. Exposed so the CQ
/// sharing layer can reuse it for per-slice partials.
pub fn aggregate(
    input: &Relation,
    group_exprs: &[BoundExpr],
    aggs: &[AggSpec],
    out_schema: streamrel_sql::plan::SchemaRef,
    ectx: &EvalContext,
) -> Result<Relation> {
    let mut groups: HashMap<Vec<Value>, Vec<Accumulator>> = HashMap::new();
    // Preserve first-seen group order for deterministic output.
    let mut order: Vec<Vec<Value>> = Vec::new();
    for row in input.rows() {
        let key: Vec<Value> = group_exprs
            .iter()
            .map(|e| eval(e, row, ectx))
            .collect::<Result<_>>()?;
        let accs = match groups.get_mut(&key) {
            Some(a) => a,
            None => {
                order.push(key.clone());
                groups
                    .entry(key.clone())
                    .or_insert_with(|| aggs.iter().map(Accumulator::new).collect())
            }
        };
        for (acc, spec) in accs.iter_mut().zip(aggs) {
            match &spec.arg {
                Some(arg_expr) => {
                    let v = eval(arg_expr, row, ectx)?;
                    acc.update(Some(&v))?;
                }
                None => acc.update(None)?,
            }
        }
    }
    let mut out = Relation::empty(out_schema);
    if groups.is_empty() && group_exprs.is_empty() {
        // Global aggregate over empty input: one row of defaults.
        let accs: Vec<Accumulator> = aggs.iter().map(Accumulator::new).collect();
        let row: Row = accs.iter().map(Accumulator::finish).collect();
        out.push(row);
        return Ok(out);
    }
    for key in order {
        let accs = &groups[&key];
        let mut row = key;
        row.extend(accs.iter().map(Accumulator::finish));
        out.push(row);
    }
    Ok(out)
}

/// Stable multi-key sort (NULLs last per `Value::sort_cmp`). Keys that are
/// all plain columns sort the rows in place; any other key list evaluates
/// each row's keys once, then sorts.
pub fn sort_relation(rel: &mut Relation, keys: &[SortKey], ectx: &EvalContext) -> Result<()> {
    let width = rel.schema().len();
    let columns: Option<Vec<usize>> = keys
        .iter()
        .map(|s| match s.expr {
            BoundExpr::Column { index, .. } if index < width => Some(index),
            _ => None,
        })
        .collect();
    if let Some(columns) = columns {
        rel.rows_mut()
            .sort_by(|a, b| key_cmp(keys, |i| (&a[columns[i]], &b[columns[i]])));
        return Ok(());
    }
    let mut keyed: Vec<(Vec<Value>, Row)> = Vec::with_capacity(rel.len());
    let schema = rel.schema().clone();
    for row in std::mem::take(rel.rows_mut()) {
        let k: Vec<Value> = keys
            .iter()
            .map(|s| eval(&s.expr, &row, ectx))
            .collect::<Result<_>>()?;
        keyed.push((k, row));
    }
    keyed.sort_by(|(ka, _), (kb, _)| key_cmp(keys, |i| (&ka[i], &kb[i])));
    *rel = Relation::new(schema, keyed.into_iter().map(|(_, r)| r).collect());
    Ok(())
}

/// Order two rows by `keys`, given their `i`-th key values.
fn key_cmp<'v>(
    keys: &[SortKey],
    key: impl Fn(usize) -> (&'v Value, &'v Value),
) -> std::cmp::Ordering {
    for (i, s) in keys.iter().enumerate() {
        let (a, b) = key(i);
        let ord = a.sort_cmp(b);
        let ord = if s.asc { ord } else { ord.reverse() };
        if !ord.is_eq() {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::map::MapSource;
    use std::collections::HashMap as StdHashMap;
    use std::sync::Arc;
    use streamrel_sql::analyzer::{Analyzer, RelKind, SchemaProvider};
    use streamrel_sql::ast::Statement;
    use streamrel_sql::parser::parse_statement;
    use streamrel_sql::plan::SchemaRef;
    use streamrel_types::{row, Column, DataType, Schema};

    struct Fixture {
        rels: StdHashMap<String, (SchemaRef, RelKind)>,
        source: MapSource,
    }

    impl SchemaProvider for Fixture {
        fn relation(&self, name: &str) -> Option<(SchemaRef, RelKind)> {
            self.rels.get(&name.to_ascii_lowercase()).cloned()
        }
    }

    fn fixture() -> Fixture {
        let orders_schema = Arc::new(
            Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("cust", DataType::Text),
                Column::new("amount", DataType::Float),
                Column::new("region", DataType::Text),
            ])
            .unwrap(),
        );
        let orders = Relation::new(
            orders_schema.clone(),
            vec![
                row![1i64, "alice", 10.0, "west"],
                row![2i64, "bob", 20.0, "east"],
                row![3i64, "alice", 30.0, "west"],
                row![4i64, "carol", 5.0, "east"],
                row![5i64, "alice", 1.0, "east"],
            ],
        );
        let cust_schema = Arc::new(
            Schema::new(vec![
                Column::new("name", DataType::Text),
                Column::new("tier", DataType::Text),
            ])
            .unwrap(),
        );
        let customers = Relation::new(
            cust_schema.clone(),
            vec![row!["alice", "gold"], row!["bob", "silver"]],
        );
        let mut rels = StdHashMap::new();
        rels.insert("orders".into(), (orders_schema, RelKind::Table));
        rels.insert("customers".into(), (cust_schema, RelKind::Table));
        let source = MapSource::new()
            .with("orders", orders)
            .with("customers", customers);
        Fixture { rels, source }
    }

    fn run(fx: &Fixture, sql: &str) -> Relation {
        let Statement::Select(q) = parse_statement(sql).unwrap() else {
            panic!("not select");
        };
        let analyzed = Analyzer::new(fx).analyze(&q).unwrap();
        execute(&analyzed.plan, &ExecContext::snapshot(&fx.source)).unwrap()
    }

    #[test]
    fn select_star() {
        let fx = fixture();
        let out = run(&fx, "select * from orders");
        assert_eq!(out.len(), 5);
        assert_eq!(out.schema().len(), 4);
    }

    #[test]
    fn filter_and_project() {
        let fx = fixture();
        let out = run(
            &fx,
            "select cust, amount * 2 dbl from orders where amount >= 10",
        );
        assert_eq!(out.len(), 3);
        assert_eq!(out.rows()[0], row!["alice", 20.0]);
        assert_eq!(out.schema().column(1).name, "dbl");
    }

    #[test]
    fn group_by_with_having_and_order() {
        let fx = fixture();
        let out = run(
            &fx,
            "select cust, count(*) n, sum(amount) total from orders \
             group by cust having count(*) > 1 order by total desc",
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0], row!["alice", 3i64, 41.0]);
    }

    #[test]
    fn global_aggregate_empty_input() {
        let fx = fixture();
        let out = run(
            &fx,
            "select count(*) n, sum(amount) s from orders where id > 100",
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0], vec![Value::Int(0), Value::Null]);
    }

    #[test]
    fn join_with_projection() {
        let fx = fixture();
        let out = run(
            &fx,
            "select o.cust, c.tier, o.amount from orders o \
             join customers c on o.cust = c.name \
             where o.amount > 5 order by o.amount",
        );
        assert_eq!(out.len(), 3);
        assert_eq!(out.rows()[0], row!["alice", "gold", 10.0]);
    }

    #[test]
    fn left_join_keeps_unmatched() {
        let fx = fixture();
        let out = run(
            &fx,
            "select o.cust, c.tier from orders o \
             left join customers c on o.cust = c.name \
             where o.id = 4",
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0], vec![Value::text("carol"), Value::Null]);
    }

    #[test]
    fn order_by_limit_top_n() {
        let fx = fixture();
        let out = run(
            &fx,
            "select cust, amount from orders order by amount desc limit 2",
        );
        assert_eq!(out.len(), 2);
        assert_eq!(out.rows()[0], row!["alice", 30.0]);
        assert_eq!(out.rows()[1], row!["bob", 20.0]);
    }

    #[test]
    fn distinct_rows() {
        let fx = fixture();
        let out = run(&fx, "select distinct region from orders order by region");
        assert_eq!(out.len(), 2);
        assert_eq!(out.rows()[0], row!["east"]);
    }

    #[test]
    fn subquery_in_from() {
        let fx = fixture();
        let out = run(
            &fx,
            "select t.cust, t.total from \
             (select cust, sum(amount) total from orders group by cust) t \
             where t.total > 15 order by t.total desc",
        );
        assert_eq!(out.len(), 2);
        assert_eq!(out.rows()[0], row!["alice", 41.0]);
        assert_eq!(out.rows()[1], row!["bob", 20.0]);
    }

    #[test]
    fn select_without_from() {
        let fx = fixture();
        let out = run(&fx, "select 2 + 3 five");
        assert_eq!(out.rows(), &[row![5i64]]);
    }

    #[test]
    fn case_and_in_execute() {
        let fx = fixture();
        let out = run(
            &fx,
            "select cust, case when amount > 15 then 'big' else 'small' end sz \
             from orders where region in ('west') order by id",
        );
        assert_eq!(out.len(), 2);
        assert_eq!(out.rows()[0], row!["alice", "small"]);
        assert_eq!(out.rows()[1], row!["alice", "big"]);
    }

    #[test]
    fn aggregate_group_order_is_first_seen() {
        let fx = fixture();
        let out = run(&fx, "select region, count(*) c from orders group by region");
        assert_eq!(out.rows()[0][0], Value::text("west"));
        assert_eq!(out.rows()[1][0], Value::text("east"));
    }

    #[test]
    fn count_distinct() {
        let fx = fixture();
        let out = run(&fx, "select count(distinct cust) from orders");
        assert_eq!(out.rows()[0], row![3i64]);
    }

    #[test]
    fn stream_scan_without_runtime_errors() {
        let mut fx = fixture();
        let s = Arc::new(
            Schema::new(vec![
                Column::new("x", DataType::Int),
                Column::not_null("ts", DataType::Timestamp),
            ])
            .unwrap(),
        );
        fx.rels
            .insert("s".into(), (s, RelKind::Stream { cqtime: Some(1) }));
        let Statement::Select(q) =
            parse_statement("select count(*) from s <tumbling '1 minute'>").unwrap()
        else {
            panic!()
        };
        let analyzed = Analyzer::new(&fx).analyze(&q).unwrap();
        let err = execute(&analyzed.plan, &ExecContext::snapshot(&fx.source)).unwrap_err();
        assert!(err.to_string().contains("CQ runtime"), "{err}");
    }

    #[test]
    fn stream_scan_with_window_input() {
        let mut fx = fixture();
        let s_schema = Arc::new(
            Schema::new(vec![
                Column::new("url", DataType::Text),
                Column::not_null("ts", DataType::Timestamp),
            ])
            .unwrap(),
        );
        fx.rels.insert(
            "url_stream".into(),
            (s_schema.clone(), RelKind::Stream { cqtime: Some(1) }),
        );
        let Statement::Select(q) = parse_statement(
            "select url, count(*) c, cq_close(*) w from url_stream \
             <tumbling '1 minute'> group by url order by c desc",
        )
        .unwrap() else {
            panic!()
        };
        let analyzed = Analyzer::new(&fx).analyze(&q).unwrap();
        let window_rows = Relation::new(
            s_schema,
            vec![
                row!["/a", Value::Timestamp(1)],
                row!["/b", Value::Timestamp(2)],
                row!["/a", Value::Timestamp(3)],
            ],
        );
        let ctx = ExecContext::window(&fx.source, "url_stream", &window_rows, 60_000_000);
        let out = execute(&analyzed.plan, &ctx).unwrap();
        assert_eq!(
            out.rows()[0],
            row!["/a", 2i64, Value::Timestamp(60_000_000)]
        );
        assert_eq!(
            out.rows()[1],
            row!["/b", 1i64, Value::Timestamp(60_000_000)]
        );
    }
}

#[cfg(test)]
mod index_join_tests {
    use super::*;
    use crate::source::map::MapSource;
    use std::collections::HashMap as StdMap;
    use std::sync::Arc;
    use streamrel_sql::plan::{BinaryOp, JoinKind};
    use streamrel_types::{row, Column, DataType, Schema};

    /// A MapSource wrapper that serves index lookups for one column and
    /// counts how often the base scan vs the index was used.
    struct IndexedSource {
        inner: MapSource,
        indexed: StdMap<String, usize>, // table -> key column
        scans: std::cell::Cell<u32>,
        lookups: std::cell::Cell<u32>,
    }

    impl RelationSource for IndexedSource {
        fn scan_table(&self, table: &str) -> Result<Relation> {
            self.scans.set(self.scans.get() + 1);
            self.inner.scan_table(table)
        }
        fn index_lookup(&self, table: &str, column: &str, key: &Value) -> Result<Option<Vec<Row>>> {
            let Some(&col) = self.indexed.get(&table.to_ascii_lowercase()) else {
                return Ok(None);
            };
            let rel = self.inner.scan_table(table)?;
            if !rel.schema().column(col).name.eq_ignore_ascii_case(column) {
                return Ok(None);
            }
            if key.is_null() {
                return Ok(Some(vec![]));
            }
            self.lookups.set(self.lookups.get() + 1);
            Ok(Some(
                rel.rows()
                    .iter()
                    .filter(|r| r[col].sql_eq(key) == Some(true))
                    .cloned()
                    .collect(),
            ))
        }
    }

    fn schema(cols: &[(&str, DataType)]) -> streamrel_sql::plan::SchemaRef {
        Arc::new(Schema::new_unchecked(
            cols.iter().map(|(n, t)| Column::new(*n, *t)).collect(),
        ))
    }

    fn join_plan(on: BoundExpr, kind: JoinKind) -> LogicalPlan {
        let left = LogicalPlan::TableScan {
            table: "l".into(),
            schema: schema(&[("k", DataType::Int), ("a", DataType::Text)]),
        };
        let right = LogicalPlan::TableScan {
            table: "r".into(),
            schema: schema(&[("k", DataType::Int), ("b", DataType::Text)]),
        };
        let out = Arc::new(left.schema().join(&right.schema()));
        LogicalPlan::Join {
            left: Box::new(left),
            right: Box::new(right),
            kind,
            on: Some(on),
            schema: out,
        }
    }

    fn eq_on() -> BoundExpr {
        BoundExpr::Binary {
            op: BinaryOp::Eq,
            left: Box::new(BoundExpr::Column {
                index: 0,
                ty: DataType::Int,
            }),
            right: Box::new(BoundExpr::Column {
                index: 2,
                ty: DataType::Int,
            }),
            ty: DataType::Bool,
        }
    }

    fn source(index_right: bool) -> IndexedSource {
        let l = Relation::new(
            schema(&[("k", DataType::Int), ("a", DataType::Text)]),
            vec![row![1i64, "x"], row![2i64, "y"], row![9i64, "z"]],
        );
        let r = Relation::new(
            schema(&[("k", DataType::Int), ("b", DataType::Text)]),
            vec![row![1i64, "one"], row![2i64, "two"], row![2i64, "deux"]],
        );
        let mut indexed = StdMap::new();
        if index_right {
            indexed.insert("r".to_string(), 0usize);
        }
        IndexedSource {
            inner: MapSource::new().with("l", l).with("r", r),
            indexed,
            scans: Default::default(),
            lookups: Default::default(),
        }
    }

    #[test]
    fn index_join_engages_and_matches_hash_join() {
        let plan = join_plan(eq_on(), JoinKind::Inner);
        let with_idx = source(true);
        let idx_out = execute(&plan, &ExecContext::snapshot(&with_idx)).unwrap();
        assert!(with_idx.lookups.get() > 0, "index path engaged");
        // r is never fully scanned by the join (only l).
        let without = source(false);
        let hash_out = execute(&plan, &ExecContext::snapshot(&without)).unwrap();
        assert_eq!(without.lookups.get(), 0, "fallback used no index");
        let norm = |rel: &Relation| {
            let mut v: Vec<String> = rel.rows().iter().map(|r| format!("{r:?}")).collect();
            v.sort();
            v
        };
        assert_eq!(norm(&idx_out), norm(&hash_out));
        assert_eq!(idx_out.len(), 3); // 1-one, 2-two, 2-deux
    }

    #[test]
    fn index_left_join_pads_unmatched() {
        let plan = join_plan(eq_on(), JoinKind::Left);
        let src = source(true);
        let out = execute(&plan, &ExecContext::snapshot(&src)).unwrap();
        assert_eq!(out.len(), 4);
        let unmatched: Vec<_> = out.rows().iter().filter(|r| r[2].is_null()).collect();
        assert_eq!(unmatched.len(), 1);
        assert_eq!(unmatched[0][0], Value::Int(9));
    }

    #[test]
    fn pushed_filter_respected_by_index_path() {
        // Join with a right-side filter below (as the optimizer produces).
        let left = LogicalPlan::TableScan {
            table: "l".into(),
            schema: schema(&[("k", DataType::Int), ("a", DataType::Text)]),
        };
        let right = LogicalPlan::Filter {
            input: Box::new(LogicalPlan::TableScan {
                table: "r".into(),
                schema: schema(&[("k", DataType::Int), ("b", DataType::Text)]),
            }),
            predicate: BoundExpr::Binary {
                op: BinaryOp::Eq,
                left: Box::new(BoundExpr::Column {
                    index: 1,
                    ty: DataType::Text,
                }),
                right: Box::new(BoundExpr::Literal(Value::text("two"))),
                ty: DataType::Bool,
            },
        };
        let out_schema = Arc::new(left.schema().join(&right.schema()));
        let plan = LogicalPlan::Join {
            left: Box::new(left),
            right: Box::new(right),
            kind: JoinKind::Inner,
            on: Some(eq_on()),
            schema: out_schema,
        };
        let src = source(true);
        let out = execute(&plan, &ExecContext::snapshot(&src)).unwrap();
        assert!(src.lookups.get() > 0);
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0][3], Value::text("two"));
    }
}
