//! Bound expressions and logical plans.
//!
//! The analyzer lowers the AST into these fully-resolved structures:
//! column references become positional indexes, types are checked, views
//! are inlined and aggregates are split into an explicit
//! [`LogicalPlan::Aggregate`] node. `streamrel-exec` executes a plan over
//! one relation (snapshot query or one window); `streamrel-cq` drives the
//! same plan once per window — the paper's reuse of "standard, well
//! understood, iterator-style relational query operators" for CQs (§4).

pub use crate::ast::{BinaryOp, JoinKind, UnaryOp, WindowSpec};
use std::sync::Arc;
use streamrel_types::schema::Schema;
use streamrel_types::{DataType, Value};

/// Shared schema handle.
pub type SchemaRef = Arc<Schema>;

/// Scalar (non-aggregate) builtin functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFunc {
    Abs,
    Lower,
    Upper,
    Length,
    Round,
    Floor,
    Ceil,
    Coalesce,
    NullIf,
    Greatest,
    Least,
    Substr,
}

impl ScalarFunc {
    /// Look up by SQL name.
    pub fn from_name(name: &str) -> Option<ScalarFunc> {
        Some(match name.to_ascii_lowercase().as_str() {
            "abs" => ScalarFunc::Abs,
            "lower" => ScalarFunc::Lower,
            "upper" => ScalarFunc::Upper,
            "length" | "char_length" => ScalarFunc::Length,
            "round" => ScalarFunc::Round,
            "floor" => ScalarFunc::Floor,
            "ceil" | "ceiling" => ScalarFunc::Ceil,
            "coalesce" => ScalarFunc::Coalesce,
            "nullif" => ScalarFunc::NullIf,
            "greatest" => ScalarFunc::Greatest,
            "least" => ScalarFunc::Least,
            "substr" | "substring" => ScalarFunc::Substr,
            _ => return None,
        })
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
    /// Sample variance (n-1 denominator). SQL `variance` / `var_samp`.
    Variance,
    /// Sample standard deviation. SQL `stddev` / `stddev_samp`.
    Stddev,
}

impl AggFunc {
    /// Look up by SQL name.
    pub fn from_name(name: &str) -> Option<AggFunc> {
        Some(match name.to_ascii_lowercase().as_str() {
            "count" => AggFunc::Count,
            "sum" => AggFunc::Sum,
            "avg" => AggFunc::Avg,
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            "variance" | "var_samp" => AggFunc::Variance,
            "stddev" | "stddev_samp" => AggFunc::Stddev,
            _ => return None,
        })
    }

    /// Result type given the argument type.
    pub fn result_type(self, arg: Option<DataType>) -> DataType {
        match self {
            AggFunc::Count => DataType::Int,
            AggFunc::Avg | AggFunc::Variance | AggFunc::Stddev => DataType::Float,
            AggFunc::Sum => match arg {
                Some(DataType::Float) => DataType::Float,
                Some(DataType::Interval) => DataType::Interval,
                _ => DataType::Int,
            },
            AggFunc::Min | AggFunc::Max => arg.unwrap_or(DataType::Int),
        }
    }
}

/// One aggregate computation in an Aggregate node.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// The function.
    pub func: AggFunc,
    /// Argument expression over the input row; `None` for `count(*)`.
    pub arg: Option<BoundExpr>,
    /// DISTINCT aggregation.
    pub distinct: bool,
    /// Output column name.
    pub name: String,
    /// Output type.
    pub ty: DataType,
}

/// A fully bound scalar expression (columns are positional).
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    /// Constant.
    Literal(Value),
    /// Input column by position.
    Column { index: usize, ty: DataType },
    /// `cq_close(*)`: the close timestamp of the current window, supplied
    /// by the CQ runtime per window (paper Example 3).
    CqClose,
    /// Unary op.
    Unary { op: UnaryOp, expr: Box<BoundExpr> },
    /// Binary op.
    Binary {
        op: BinaryOp,
        left: Box<BoundExpr>,
        right: Box<BoundExpr>,
        ty: DataType,
    },
    /// Cast.
    Cast { expr: Box<BoundExpr>, ty: DataType },
    /// `IS [NOT] NULL`.
    IsNull { expr: Box<BoundExpr>, negated: bool },
    /// `LIKE`.
    Like {
        expr: Box<BoundExpr>,
        pattern: Box<BoundExpr>,
        negated: bool,
    },
    /// `IN (list)`.
    InList {
        expr: Box<BoundExpr>,
        list: Vec<BoundExpr>,
        negated: bool,
    },
    /// `CASE`.
    Case {
        operand: Option<Box<BoundExpr>>,
        whens: Vec<(BoundExpr, BoundExpr)>,
        else_expr: Option<Box<BoundExpr>>,
        ty: DataType,
    },
    /// Builtin scalar function.
    ScalarFunc {
        func: ScalarFunc,
        args: Vec<BoundExpr>,
        ty: DataType,
    },
}

impl BoundExpr {
    /// Static result type of the expression.
    pub fn ty(&self) -> DataType {
        match self {
            BoundExpr::Literal(v) => v.data_type().unwrap_or(DataType::Text),
            BoundExpr::Column { ty, .. } => *ty,
            BoundExpr::CqClose => DataType::Timestamp,
            BoundExpr::Unary { op, expr } => match op {
                UnaryOp::Not => DataType::Bool,
                UnaryOp::Neg => expr.ty(),
            },
            BoundExpr::Binary { ty, .. } => *ty,
            BoundExpr::Cast { ty, .. } => *ty,
            BoundExpr::IsNull { .. } => DataType::Bool,
            BoundExpr::Like { .. } => DataType::Bool,
            BoundExpr::InList { .. } => DataType::Bool,
            BoundExpr::Case { ty, .. } => *ty,
            BoundExpr::ScalarFunc { ty, .. } => *ty,
        }
    }

    /// The direct sub-expressions, in evaluation order.
    fn children(&self) -> Vec<&BoundExpr> {
        match self {
            BoundExpr::Literal(_) | BoundExpr::Column { .. } | BoundExpr::CqClose => Vec::new(),
            BoundExpr::Unary { expr, .. }
            | BoundExpr::Cast { expr, .. }
            | BoundExpr::IsNull { expr, .. } => vec![&**expr],
            BoundExpr::Binary { left, right, .. } => vec![&**left, &**right],
            BoundExpr::Like { expr, pattern, .. } => vec![&**expr, &**pattern],
            BoundExpr::InList { expr, list, .. } => std::iter::once(&**expr).chain(list).collect(),
            BoundExpr::Case {
                operand,
                whens,
                else_expr,
                ..
            } => (operand.as_deref().into_iter())
                .chain(whens.iter().flat_map(|(c, r)| [c, r]))
                .chain(else_expr.as_deref())
                .collect(),
            BoundExpr::ScalarFunc { args, .. } => args.iter().collect(),
        }
    }

    /// [`BoundExpr::children`], mutably.
    fn children_mut(&mut self) -> Vec<&mut BoundExpr> {
        match self {
            BoundExpr::Literal(_) | BoundExpr::Column { .. } | BoundExpr::CqClose => Vec::new(),
            BoundExpr::Unary { expr, .. }
            | BoundExpr::Cast { expr, .. }
            | BoundExpr::IsNull { expr, .. } => vec![&mut **expr],
            BoundExpr::Binary { left, right, .. } => vec![&mut **left, &mut **right],
            BoundExpr::Like { expr, pattern, .. } => vec![&mut **expr, &mut **pattern],
            BoundExpr::InList { expr, list, .. } => {
                std::iter::once(&mut **expr).chain(list).collect()
            }
            BoundExpr::Case {
                operand,
                whens,
                else_expr,
                ..
            } => (operand.as_deref_mut().into_iter())
                .chain(whens.iter_mut().flat_map(|(c, r)| [c, r]))
                .chain(else_expr.as_deref_mut())
                .collect(),
            BoundExpr::ScalarFunc { args, .. } => args.iter_mut().collect(),
        }
    }

    /// True if the tree contains a `cq_close(*)`.
    pub fn uses_cq_close(&self) -> bool {
        matches!(self, BoundExpr::CqClose) || self.children().into_iter().any(Self::uses_cq_close)
    }

    /// Column positions referenced by this expression.
    pub fn referenced_columns(&self, out: &mut Vec<usize>) {
        if let BoundExpr::Column { index, .. } = self {
            out.push(*index);
        }
        for e in self.children() {
            e.referenced_columns(out);
        }
    }

    /// Map every column index through `f`: an expression bound over one
    /// row layout rebased onto another (a join side's row alone, say).
    pub fn map_columns(&mut self, f: &impl Fn(usize) -> usize) {
        if let BoundExpr::Column { index, .. } = self {
            *index = f(*index);
        }
        for e in self.children_mut() {
            e.map_columns(f);
        }
    }
}

/// One sort key.
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey {
    /// Expression over the input row.
    pub expr: BoundExpr,
    /// Ascending?
    pub asc: bool,
}

/// The logical plan tree.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// A single empty row: the input of a FROM-less `SELECT 1+1`.
    OneRow,
    /// Scan a stored table.
    TableScan { table: String, schema: SchemaRef },
    /// Scan a stream (base or derived) through a window: the plan above
    /// this node runs once per window relation (RSTREAM, Figure 1).
    StreamScan {
        stream: String,
        schema: SchemaRef,
        window: WindowSpec,
        /// Position of the CQTIME column, if the stream orders on data time.
        cqtime: Option<usize>,
        /// True when the scanned relation is a derived stream. Its rows
        /// arrive as result batches stamped exactly at window closes, so
        /// time windows over it use the inclusive `(lo, close]` interval
        /// convention — fixed here at plan time, not discovered at runtime.
        derived: bool,
    },
    /// Row filter.
    Filter {
        input: Box<LogicalPlan>,
        predicate: BoundExpr,
    },
    /// Projection.
    Project {
        input: Box<LogicalPlan>,
        exprs: Vec<BoundExpr>,
        schema: SchemaRef,
    },
    /// Grouped / global aggregation. Output row layout:
    /// `[group_exprs..., aggs...]`.
    Aggregate {
        input: Box<LogicalPlan>,
        group_exprs: Vec<BoundExpr>,
        aggs: Vec<AggSpec>,
        schema: SchemaRef,
    },
    /// Join; `on` is evaluated over the concatenated `[left, right]` row.
    Join {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        kind: JoinKind,
        on: Option<BoundExpr>,
        schema: SchemaRef,
    },
    /// Sort.
    Sort {
        input: Box<LogicalPlan>,
        keys: Vec<SortKey>,
    },
    /// Row-count limit.
    Limit { input: Box<LogicalPlan>, n: u64 },
    /// Duplicate elimination over entire rows.
    Distinct { input: Box<LogicalPlan> },
}

impl LogicalPlan {
    /// Output schema of this node.
    pub fn schema(&self) -> SchemaRef {
        match self {
            LogicalPlan::OneRow => Arc::new(Schema::empty()),
            LogicalPlan::TableScan { schema, .. }
            | LogicalPlan::StreamScan { schema, .. }
            | LogicalPlan::Project { schema, .. }
            | LogicalPlan::Aggregate { schema, .. }
            | LogicalPlan::Join { schema, .. } => schema.clone(),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Distinct { input } => input.schema(),
        }
    }

    /// Collect the stream scans in this plan (name, window, schema).
    pub fn stream_scans(&self) -> Vec<(&str, WindowSpec)> {
        let mut out = Vec::new();
        self.visit(&mut |p| {
            if let LogicalPlan::StreamScan { stream, window, .. } = p {
                out.push((stream.as_str(), *window));
            }
        });
        out
    }

    /// True if any stream participates: the query is a continuous query.
    pub fn is_continuous(&self) -> bool {
        !self.stream_scans().is_empty()
    }

    /// Pre-order traversal.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a LogicalPlan)) {
        f(self);
        match self {
            LogicalPlan::OneRow
            | LogicalPlan::TableScan { .. }
            | LogicalPlan::StreamScan { .. } => {}
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Distinct { input } => input.visit(f),
            LogicalPlan::Join { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
        }
    }

    /// Short single-line description (used in EXPLAIN-style output).
    pub fn node_name(&self) -> String {
        match self {
            LogicalPlan::OneRow => "OneRow".into(),
            LogicalPlan::TableScan { table, .. } => format!("TableScan({table})"),
            LogicalPlan::StreamScan { stream, window, .. } => {
                format!("StreamScan({stream}, {window:?})")
            }
            LogicalPlan::Filter { .. } => "Filter".into(),
            LogicalPlan::Project { .. } => "Project".into(),
            LogicalPlan::Aggregate {
                group_exprs, aggs, ..
            } => {
                format!(
                    "Aggregate(groups={}, aggs={})",
                    group_exprs.len(),
                    aggs.len()
                )
            }
            LogicalPlan::Join { kind, .. } => format!("Join({kind:?})"),
            LogicalPlan::Sort { .. } => "Sort".into(),
            LogicalPlan::Limit { n, .. } => format!("Limit({n})"),
            LogicalPlan::Distinct { .. } => "Distinct".into(),
        }
    }

    /// Multi-line indented plan rendering.
    pub fn explain(&self) -> String {
        fn go(p: &LogicalPlan, depth: usize, out: &mut String) {
            out.push_str(&"  ".repeat(depth));
            out.push_str(&p.node_name());
            out.push('\n');
            match p {
                LogicalPlan::OneRow
                | LogicalPlan::TableScan { .. }
                | LogicalPlan::StreamScan { .. } => {}
                LogicalPlan::Filter { input, .. }
                | LogicalPlan::Project { input, .. }
                | LogicalPlan::Aggregate { input, .. }
                | LogicalPlan::Sort { input, .. }
                | LogicalPlan::Limit { input, .. }
                | LogicalPlan::Distinct { input } => go(input, depth + 1, out),
                LogicalPlan::Join { left, right, .. } => {
                    go(left, depth + 1, out);
                    go(right, depth + 1, out);
                }
            }
        }
        let mut s = String::new();
        go(self, 0, &mut s);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamrel_types::{Column, Schema};

    fn scan() -> LogicalPlan {
        LogicalPlan::TableScan {
            table: "t".into(),
            schema: Arc::new(Schema::new(vec![Column::new("a", DataType::Int)]).unwrap()),
        }
    }

    #[test]
    fn schema_propagates_through_wrappers() {
        let plan = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(scan()),
                predicate: BoundExpr::Literal(Value::Bool(true)),
            }),
            n: 5,
        };
        assert_eq!(plan.schema().columns()[0].name, "a");
    }

    #[test]
    fn stream_detection() {
        assert!(!scan().is_continuous());
        let s = LogicalPlan::StreamScan {
            stream: "s".into(),
            schema: scan().schema(),
            window: WindowSpec::tumbling(60),
            cqtime: Some(0),
            derived: false,
        };
        assert!(s.is_continuous());
        assert_eq!(s.stream_scans().len(), 1);
    }

    #[test]
    fn cq_close_detection_and_shift() {
        let mut e = BoundExpr::Binary {
            op: BinaryOp::Sub,
            left: Box::new(BoundExpr::CqClose),
            right: Box::new(BoundExpr::Column {
                index: 2,
                ty: DataType::Timestamp,
            }),
            ty: DataType::Interval,
        };
        assert!(e.uses_cq_close());
        e.map_columns(&|i| i + 3);
        let mut cols = Vec::new();
        e.referenced_columns(&mut cols);
        assert_eq!(cols, vec![5]);
    }

    #[test]
    fn agg_result_types() {
        assert_eq!(AggFunc::Count.result_type(None), DataType::Int);
        assert_eq!(
            AggFunc::Avg.result_type(Some(DataType::Int)),
            DataType::Float
        );
        assert_eq!(
            AggFunc::Sum.result_type(Some(DataType::Float)),
            DataType::Float
        );
        assert_eq!(AggFunc::Sum.result_type(Some(DataType::Int)), DataType::Int);
        assert_eq!(
            AggFunc::Min.result_type(Some(DataType::Text)),
            DataType::Text
        );
    }

    #[test]
    fn explain_renders_tree() {
        let plan = LogicalPlan::Limit {
            input: Box::new(scan()),
            n: 5,
        };
        let text = plan.explain();
        assert!(text.contains("Limit(5)"));
        assert!(text.contains("  TableScan(t)"));
    }
}
