//! Abstract syntax tree for TruSQL.

use streamrel_types::{DataType, Interval, Value};

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE name (col type [NOT NULL], ...)`
    CreateTable {
        name: String,
        columns: Vec<ColumnDef>,
        if_not_exists: bool,
    },
    /// `CREATE STREAM name (col type [CQTIME USER], ...)` — paper Example 1.
    CreateStream {
        name: String,
        columns: Vec<ColumnDef>,
        if_not_exists: bool,
    },
    /// `CREATE STREAM name AS <query>` — a Derived Stream (paper Example 3):
    /// runs always-on until dropped.
    CreateDerivedStream { name: String, query: Query },
    /// `CREATE VIEW name AS <query>` — over tables it is a classic view;
    /// over streams it is a Streaming View, instantiated on use (§3.2).
    CreateView { name: String, query: Query },
    /// `CREATE CHANNEL name FROM stream INTO table APPEND|REPLACE` — paper
    /// Example 4: archives a derived stream into an Active Table.
    CreateChannel {
        name: String,
        from_stream: String,
        into_table: String,
        mode: ChannelMode,
    },
    /// `CREATE INDEX name ON table (col, ...)`
    CreateIndex {
        name: String,
        table: String,
        columns: Vec<String>,
    },
    /// `DROP TABLE|STREAM|VIEW|CHANNEL|INDEX name`
    Drop {
        kind: ObjectKind,
        name: String,
        if_exists: bool,
    },
    /// `INSERT INTO table [(cols)] VALUES (...), (...)`
    Insert {
        table: String,
        columns: Option<Vec<String>>,
        rows: Vec<Vec<Expr>>,
    },
    /// `DELETE FROM table [WHERE expr]`
    Delete { table: String, filter: Option<Expr> },
    /// `TRUNCATE table`
    Truncate { table: String },
    /// A SELECT: snapshot query over tables, continuous query if any stream
    /// participates.
    Select(Query),
    /// `CREATE TABLE name AS <snapshot query>` — materialize a result.
    CreateTableAs { name: String, query: Query },
    /// `EXPLAIN <select>` — render the bound logical plan.
    Explain(Query),
    /// `EXPLAIN CHECK <select>` — run the static plan-safety analysis
    /// (`streamrel-check`) and render the admission verdict, every
    /// finding with its fix hint, and the conservative state-size bound.
    ExplainCheck(Query),
    /// `SHOW TABLES|STREAMS|VIEWS|CHANNELS|METRICS|TRACE` — catalog and
    /// engine introspection.
    Show(ShowKind),
    /// `CHECKPOINT` — compact the WAL into a checkpoint file.
    Checkpoint,
    /// `VACUUM` — reclaim dead MVCC tuple versions.
    Vacuum,
}

/// What `SHOW` lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShowKind {
    Tables,
    Streams,
    Views,
    Channels,
    /// The engine metrics registry (`streamrel_metrics`).
    Metrics,
    /// The engine trace ring (`streamrel_trace`).
    Trace,
}

/// Object kinds for DROP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectKind {
    Table,
    Stream,
    View,
    Channel,
    Index,
}

/// How a channel writes window results into its Active Table (§3.3):
/// `APPEND` adds rows, `REPLACE` overwrites the previous window's result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelMode {
    Append,
    Replace,
}

/// One column in CREATE TABLE / CREATE STREAM.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    pub name: String,
    pub ty: DataType,
    pub not_null: bool,
    /// `CQTIME USER` marker: this column carries the stream's logical time
    /// and the stream is ordered on it (paper Example 1).
    pub cqtime_user: bool,
}

/// A window clause attached to a stream reference in FROM (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowSpec {
    /// `<VISIBLE 'v' ADVANCE 'a'>` — time-based sliding window: every `a`,
    /// emit the query over the last `v` of data. `v == a` is tumbling.
    Time {
        visible: Interval,
        advance: Interval,
    },
    /// `<VISIBLE n ROWS ADVANCE m ROWS>` — row-count window.
    Rows { visible: u64, advance: u64 },
    /// `<SLICES n WINDOWS>` — over a derived stream: each window is `n`
    /// consecutive result batches of the upstream CQ (paper Example 5 uses
    /// `<slices 1 windows>`).
    Slices { count: u64 },
    /// A stream referenced with no window clause at all. The analyzer
    /// binds this instead of erroring so `streamrel-check` can classify
    /// the resulting unbounded-state operator (join, aggregate, bare
    /// scan) and reject it at registration with a targeted hint. It
    /// never survives admission: the CQ runtime refuses to place it on a
    /// slice store.
    Unbounded,
}

impl WindowSpec {
    /// Tumbling time window shorthand.
    pub fn tumbling(interval: Interval) -> WindowSpec {
        WindowSpec::Time {
            visible: interval,
            advance: interval,
        }
    }
}

/// A SELECT query.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Query {
    pub projection: Vec<SelectItem>,
    pub from: Option<TableRef>,
    pub filter: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
    pub order_by: Vec<OrderItem>,
    pub limit: Option<u64>,
    pub distinct: bool,
}

/// One projection item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(String),
    /// `expr [AS alias]`
    Expr { expr: Expr, alias: Option<String> },
}

/// ORDER BY item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    pub expr: Expr,
    pub asc: bool,
}

/// A FROM-clause relation.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// Base table, stream, view or derived stream; streams may carry a
    /// window clause.
    Named {
        name: String,
        alias: Option<String>,
        window: Option<WindowSpec>,
    },
    /// Parenthesized subquery with alias (paper Example 5's FROM-subquery).
    Subquery {
        query: Box<Query>,
        alias: String,
        /// A window applied to a subquery result is allowed when the
        /// subquery is itself continuous (e.g. `(select ...) c <slices 1
        /// windows>`); rarely used, kept for completeness.
        window: Option<WindowSpec>,
    },
    /// `left JOIN right ON expr` (INNER/LEFT), or comma-join (`kind =
    /// Cross`, predicate in WHERE).
    Join {
        left: Box<TableRef>,
        right: Box<TableRef>,
        kind: JoinKind,
        on: Option<Expr>,
    },
}

/// Join kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    Left,
    Cross,
}

/// A scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal constant.
    Literal(Value),
    /// Possibly-qualified column reference.
    Column {
        qualifier: Option<String>,
        name: String,
    },
    /// Unary operator.
    Unary { op: UnaryOp, expr: Box<Expr> },
    /// Binary operator.
    Binary {
        op: BinaryOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    /// Function call: scalar functions, aggregates, `count(*)`,
    /// `cq_close(*)`.
    Function {
        name: String,
        args: Vec<Expr>,
        star: bool,
        distinct: bool,
    },
    /// `expr::type` or `CAST(expr AS type)`.
    Cast { expr: Box<Expr>, ty: DataType },
    /// `expr IS [NOT] NULL`
    IsNull { expr: Box<Expr>, negated: bool },
    /// `expr [NOT] LIKE pattern`
    Like {
        expr: Box<Expr>,
        pattern: Box<Expr>,
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    /// `expr [NOT] IN (v1, v2, ...)`
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    /// `CASE [operand] WHEN .. THEN .. [ELSE ..] END`
    Case {
        operand: Option<Box<Expr>>,
        whens: Vec<(Expr, Expr)>,
        else_expr: Option<Box<Expr>>,
    },
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    Neg,
    Not,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
    Concat,
}

impl Expr {
    /// Convenience: column reference without qualifier.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column {
            qualifier: None,
            name: name.into(),
        }
    }

    /// Convenience: integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::Literal(Value::Int(v))
    }

    /// Convenience: string literal.
    pub fn str(v: &str) -> Expr {
        Expr::Literal(Value::text(v))
    }

    /// Convenience: binary expression.
    pub fn binary(op: BinaryOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_tumbling_shorthand() {
        let w = WindowSpec::tumbling(60_000_000);
        assert_eq!(
            w,
            WindowSpec::Time {
                visible: 60_000_000,
                advance: 60_000_000
            }
        );
    }

    #[test]
    fn expr_builders() {
        let e = Expr::binary(BinaryOp::Eq, Expr::col("a"), Expr::int(1));
        match e {
            Expr::Binary { op, .. } => assert_eq!(op, BinaryOp::Eq),
            _ => panic!(),
        }
    }
}
