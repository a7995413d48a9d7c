//! Semantic analysis: name resolution, type checking, view inlining,
//! aggregate extraction, and classification of queries as snapshot (SQ) or
//! continuous (CQ) per §3.1 of the paper.

use std::sync::Arc;

use streamrel_types::{Column, DataType, Error, Result, Schema, Value};

use crate::ast::{Expr, JoinKind, OrderItem, Query, SelectItem, TableRef, UnaryOp, WindowSpec};
use crate::parser::parse_statement;
use crate::plan::{
    AggFunc, AggSpec, BinaryOp, BoundExpr, LogicalPlan, ScalarFunc, SchemaRef, SortKey,
};

/// What kind of relation a name denotes.
#[derive(Debug, Clone, PartialEq)]
pub enum RelKind {
    /// A stored table (snapshot semantics; Active Tables are these too).
    Table,
    /// A base stream; `cqtime` is the position of the ordering column.
    Stream { cqtime: Option<usize> },
    /// A derived stream (`CREATE STREAM ... AS`): windowable with
    /// `<SLICES n WINDOWS>` or time windows over its output.
    DerivedStream { cqtime: Option<usize> },
    /// A view; the stored SELECT text is inlined at use (§3.2: streaming
    /// views are "only instantiated when the view is itself used").
    View { sql: String },
}

/// Supplies relation metadata to the analyzer (implemented by the engine's
/// catalog; tests use in-memory maps).
pub trait SchemaProvider {
    /// Resolve a relation name to its schema and kind.
    fn relation(&self, name: &str) -> Option<(SchemaRef, RelKind)>;
}

/// Result of analyzing a SELECT.
#[derive(Debug, Clone)]
pub struct AnalyzedQuery {
    /// The bound logical plan.
    pub plan: LogicalPlan,
    /// True if any stream participates: this is a continuous query.
    pub is_continuous: bool,
}

/// One visible column during binding.
#[derive(Debug, Clone)]
struct ScopeEntry {
    qualifier: Option<String>,
    name: String,
    ty: DataType,
    nullable: bool,
}

/// The set of columns visible to expressions, positionally matching the
/// current intermediate row.
#[derive(Debug, Clone, Default)]
struct Scope {
    entries: Vec<ScopeEntry>,
}

impl Scope {
    fn from_schema(schema: &Schema, qualifier: Option<&str>) -> Scope {
        Scope {
            entries: schema
                .columns()
                .iter()
                .map(|c| ScopeEntry {
                    qualifier: qualifier.map(str::to_string),
                    name: c.name.clone(),
                    ty: c.ty,
                    nullable: c.nullable,
                })
                .collect(),
        }
    }

    fn concat(mut self, other: Scope) -> Scope {
        self.entries.extend(other.entries);
        self
    }

    fn mark_nullable(&mut self, from: usize) {
        for e in &mut self.entries[from..] {
            e.nullable = true;
        }
    }

    fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<(usize, &ScopeEntry)> {
        let mut found = None;
        for (i, e) in self.entries.iter().enumerate() {
            let q_match = match qualifier {
                None => true,
                Some(q) => e
                    .qualifier
                    .as_deref()
                    .is_some_and(|eq| eq.eq_ignore_ascii_case(q)),
            };
            if q_match && e.name.eq_ignore_ascii_case(name) {
                if found.is_some() {
                    return Err(Error::analysis(format!("ambiguous column `{name}`")));
                }
                found = Some((i, e));
            }
        }
        found.ok_or_else(|| {
            let full = match qualifier {
                Some(q) => format!("{q}.{name}"),
                None => name.to_string(),
            };
            Error::analysis(format!("unknown column `{full}`"))
        })
    }

    fn to_schema(&self) -> Schema {
        Schema::new_unchecked(
            self.entries
                .iter()
                .map(|e| Column {
                    name: e.name.clone(),
                    ty: e.ty,
                    nullable: e.nullable,
                })
                .collect(),
        )
    }
}

const MAX_VIEW_DEPTH: usize = 16;

/// Context needed to bind late (ORDER BY) expressions in an aggregated
/// query: the collected aggregate calls and the Aggregate node's schema.
struct AggBindCtx {
    agg_calls: Vec<Expr>,
    agg_schema: SchemaRef,
}

/// The analyzer. Cheap to construct; holds only the provider reference.
pub struct Analyzer<'a> {
    provider: &'a dyn SchemaProvider,
}

impl<'a> Analyzer<'a> {
    /// New analyzer over a schema provider.
    pub fn new(provider: &'a dyn SchemaProvider) -> Analyzer<'a> {
        Analyzer { provider }
    }

    /// Analyze a SELECT query into a logical plan.
    pub fn analyze(&self, query: &Query) -> Result<AnalyzedQuery> {
        let (plan, _) = self.analyze_query(query, 0)?;
        let streams = plan.stream_scans();
        if streams.len() > 1 {
            return Err(Error::unsupported(
                "continuous queries may reference at most one stream \
                 (join streams by deriving one first)",
            ));
        }
        let is_continuous = !streams.is_empty();
        if !is_continuous && plan_uses_cq_close(&plan) {
            return Err(Error::analysis(
                "cq_close(*) is only valid in continuous queries",
            ));
        }
        let plan = crate::optimizer::optimize(plan);
        Ok(AnalyzedQuery {
            plan,
            is_continuous,
        })
    }

    /// Bind an expression against a bare schema (used for DELETE filters
    /// and INSERT value expressions by the engine layer).
    pub fn bind_over_schema(&self, expr: &Expr, schema: &Schema) -> Result<BoundExpr> {
        let scope = Scope::from_schema(schema, None);
        self.bind_expr(expr, &scope)
    }

    /// Bind a constant expression (no columns in scope).
    pub fn bind_constant(&self, expr: &Expr) -> Result<BoundExpr> {
        self.bind_expr(expr, &Scope::default())
    }

    fn analyze_query(&self, query: &Query, depth: usize) -> Result<(LogicalPlan, Scope)> {
        if depth > MAX_VIEW_DEPTH {
            return Err(Error::analysis(
                "view nesting too deep (cycle in view definitions?)",
            ));
        }
        // FROM
        let (mut plan, scope) = match &query.from {
            Some(tr) => self.analyze_table_ref(tr, depth)?,
            None => (LogicalPlan::OneRow, Scope::default()),
        };

        // WHERE
        if let Some(filter) = &query.filter {
            let predicate = self.bind_expr(filter, &scope)?;
            require_boolish(&predicate, "WHERE")?;
            plan = LogicalPlan::Filter {
                input: Box::new(plan),
                predicate,
            };
        }

        // Aggregation?
        let has_aggs =
            query.projection.iter().any(
                |item| matches!(item, SelectItem::Expr { expr, .. } if contains_aggregate(expr)),
            ) || query.having.as_ref().is_some_and(contains_aggregate)
                || !query.group_by.is_empty();

        let (mut plan, mut out_exprs, mut out_names, agg_ctx): (
            LogicalPlan,
            Vec<BoundExpr>,
            Vec<String>,
            Option<AggBindCtx>,
        ) = if has_aggs {
            let (p, e, n, a) = self.plan_aggregate(query, plan, &scope)?;
            (p, e, n, Some(a))
        } else {
            if query.having.is_some() {
                return Err(Error::analysis("HAVING requires GROUP BY or aggregates"));
            }
            let (exprs, names) = self.bind_projection(&query.projection, &scope)?;
            (plan, exprs, names, None)
        };

        // Resolve ORDER BY before building the projection node so sort keys
        // not present in the output can ride along as hidden columns.
        let visible_n = out_exprs.len();
        let mut sort_keys: Vec<SortKey> = Vec::new();
        if !query.order_by.is_empty() {
            let out_schema_probe = Schema::new_unchecked(
                out_exprs
                    .iter()
                    .zip(&out_names)
                    .map(|(e, n)| Column::new(n.clone(), e.ty()))
                    .collect(),
            );
            let out_scope = Scope::from_schema(&out_schema_probe, None);
            for OrderItem { expr, asc } in &query.order_by {
                let bound = match expr {
                    Expr::Literal(Value::Int(n)) => {
                        let idx = *n as usize;
                        if idx == 0 || idx > visible_n {
                            return Err(Error::analysis(format!(
                                "ORDER BY position {n} is out of range"
                            )));
                        }
                        BoundExpr::Column {
                            index: idx - 1,
                            ty: out_schema_probe.column(idx - 1).ty,
                        }
                    }
                    e => match self.bind_expr(e, &out_scope) {
                        Ok(b) => b,
                        Err(out_err) => {
                            // Hidden sort column: bind against the input
                            // (or post-aggregate) scope and append it to
                            // the projection, stripped after the sort.
                            let fallback = match &agg_ctx {
                                Some(a) => self.bind_post_agg(
                                    e,
                                    &query.group_by,
                                    &a.agg_calls,
                                    query.group_by.len(),
                                    &a.agg_schema,
                                    &scope,
                                ),
                                None => self.bind_expr(e, &scope),
                            };
                            let b = fallback.map_err(|_| out_err)?;
                            // A select item named another way (`c.url`
                            // for the output column `url`) sorts as itself.
                            let index = match out_exprs.iter().position(|o| *o == b) {
                                Some(index) => index,
                                None if query.distinct => {
                                    return Err(Error::analysis(
                                        "for SELECT DISTINCT, ORDER BY expressions must \
                                         appear in the select list",
                                    ))
                                }
                                None => {
                                    out_exprs.push(b.clone());
                                    out_names.push(format!("__sort{}", out_exprs.len()));
                                    out_exprs.len() - 1
                                }
                            };
                            BoundExpr::Column { index, ty: b.ty() }
                        }
                    },
                };
                sort_keys.push(SortKey {
                    expr: bound,
                    asc: *asc,
                });
            }
        }

        // Projection node (including any hidden sort columns). A plain
        // column reference keeps its source nullability — `SELECT *` must
        // reproduce the input schema exactly (the wire/embedded
        // equivalence of `streamrel_metrics` depends on it). Computed and
        // post-aggregate outputs stay conservatively nullable.
        let full_schema = Arc::new(Schema::new_unchecked(
            out_exprs
                .iter()
                .zip(&out_names)
                .map(|(e, n)| {
                    let nullable = match (e, &agg_ctx) {
                        (BoundExpr::Column { index, .. }, None) => scope.entries[*index].nullable,
                        _ => true,
                    };
                    Column {
                        name: n.clone(),
                        ty: e.ty(),
                        nullable,
                    }
                })
                .collect(),
        ));
        let visible_schema = Arc::new(Schema::new_unchecked(
            full_schema.columns()[..visible_n].to_vec(),
        ));
        plan = LogicalPlan::Project {
            input: Box::new(plan),
            exprs: out_exprs,
            schema: full_schema.clone(),
        };

        if query.distinct {
            plan = LogicalPlan::Distinct {
                input: Box::new(plan),
            };
        }

        if !sort_keys.is_empty() {
            plan = LogicalPlan::Sort {
                input: Box::new(plan),
                keys: sort_keys,
            };
        }

        // Strip hidden sort columns.
        if full_schema.len() != visible_n {
            plan = LogicalPlan::Project {
                input: Box::new(plan),
                exprs: (0..visible_n)
                    .map(|i| BoundExpr::Column {
                        index: i,
                        ty: visible_schema.column(i).ty,
                    })
                    .collect(),
                schema: visible_schema.clone(),
            };
        }

        if let Some(n) = query.limit {
            plan = LogicalPlan::Limit {
                input: Box::new(plan),
                n,
            };
        }

        let out_scope = Scope::from_schema(&visible_schema, None);
        Ok((plan, out_scope))
    }

    fn analyze_table_ref(&self, tr: &TableRef, depth: usize) -> Result<(LogicalPlan, Scope)> {
        match tr {
            TableRef::Named {
                name,
                alias,
                window,
            } => {
                let (schema, kind) = self
                    .provider
                    .relation(name)
                    .ok_or_else(|| Error::catalog(format!("relation `{name}` does not exist")))?;
                let qualifier = alias.as_deref().unwrap_or(name);
                match kind {
                    RelKind::Table => {
                        if window.is_some() {
                            return Err(Error::analysis(format!(
                                "window clause is not allowed on table `{name}`"
                            )));
                        }
                        let scope = Scope::from_schema(&schema, Some(qualifier));
                        Ok((
                            LogicalPlan::TableScan {
                                table: name.clone(),
                                schema,
                            },
                            scope,
                        ))
                    }
                    RelKind::Stream { cqtime } => {
                        // A missing window clause binds as
                        // `WindowSpec::Unbounded` rather than erroring:
                        // `streamrel-check` classifies the unbounded
                        // operator (bare scan, join, aggregate) at
                        // registration and rejects with a targeted hint.
                        let window = window.unwrap_or(WindowSpec::Unbounded);
                        if matches!(window, WindowSpec::Slices { .. }) {
                            return Err(Error::analysis(
                                "<SLICES n WINDOWS> applies to derived streams only",
                            ));
                        }
                        if matches!(window, WindowSpec::Time { .. }) && cqtime.is_none() {
                            return Err(Error::analysis(format!(
                                "time window on stream `{name}` requires a CQTIME column"
                            )));
                        }
                        let scope = Scope::from_schema(&schema, Some(qualifier));
                        Ok((
                            LogicalPlan::StreamScan {
                                stream: name.clone(),
                                schema,
                                window,
                                cqtime,
                                derived: false,
                            },
                            scope,
                        ))
                    }
                    RelKind::DerivedStream { cqtime } => {
                        // As for base streams: bind the missing window as
                        // Unbounded and let the admission check reject it.
                        let window = window.unwrap_or(WindowSpec::Unbounded);
                        if matches!(window, WindowSpec::Time { .. }) && cqtime.is_none() {
                            return Err(Error::analysis(format!(
                                "time window on derived stream `{name}` requires it to \
                                 expose a cq_close column"
                            )));
                        }
                        let scope = Scope::from_schema(&schema, Some(qualifier));
                        Ok((
                            LogicalPlan::StreamScan {
                                stream: name.clone(),
                                schema,
                                window,
                                cqtime,
                                derived: true,
                            },
                            scope,
                        ))
                    }
                    RelKind::View { sql } => {
                        if window.is_some() {
                            return Err(Error::analysis(
                                "apply the window inside the view definition, \
                                 not on the view reference",
                            ));
                        }
                        let stmt = parse_statement(&sql)?;
                        let inner = match stmt {
                            crate::ast::Statement::Select(q) => q,
                            crate::ast::Statement::CreateView { query, .. } => query,
                            _ => {
                                return Err(Error::catalog(format!(
                                    "stored view `{name}` is not a SELECT"
                                )))
                            }
                        };
                        let (plan, inner_scope) = self.analyze_query(&inner, depth + 1)?;
                        let schema = inner_scope.to_schema();
                        let scope = Scope::from_schema(&schema, Some(qualifier));
                        Ok((plan, scope))
                    }
                }
            }
            TableRef::Subquery {
                query,
                alias,
                window,
            } => {
                if window.is_some() {
                    return Err(Error::unsupported(
                        "window clause on a FROM subquery; window the stream inside it",
                    ));
                }
                let (plan, inner_scope) = self.analyze_query(query, depth + 1)?;
                let schema = inner_scope.to_schema();
                let scope = Scope::from_schema(&schema, Some(alias));
                Ok((plan, scope))
            }
            TableRef::Join {
                left,
                right,
                kind,
                on,
            } => {
                let (lp, ls) = self.analyze_table_ref(left, depth)?;
                let (rp, rs) = self.analyze_table_ref(right, depth)?;
                let left_width = ls.entries.len();
                let mut scope = ls.concat(rs);
                if *kind == JoinKind::Left {
                    scope.mark_nullable(left_width);
                }
                let on_bound = match on {
                    Some(e) => {
                        let b = self.bind_expr(e, &scope)?;
                        require_boolish(&b, "JOIN ON")?;
                        Some(b)
                    }
                    None => None,
                };
                let schema = Arc::new(scope.to_schema());
                Ok((
                    LogicalPlan::Join {
                        left: Box::new(lp),
                        right: Box::new(rp),
                        kind: *kind,
                        on: on_bound,
                        schema,
                    },
                    scope,
                ))
            }
        }
    }

    fn bind_projection(
        &self,
        items: &[SelectItem],
        scope: &Scope,
    ) -> Result<(Vec<BoundExpr>, Vec<String>)> {
        let mut exprs = Vec::new();
        let mut names = Vec::new();
        for item in items {
            match item {
                SelectItem::Wildcard => {
                    for (i, e) in scope.entries.iter().enumerate() {
                        exprs.push(BoundExpr::Column { index: i, ty: e.ty });
                        names.push(e.name.clone());
                    }
                }
                SelectItem::QualifiedWildcard(q) => {
                    let mut matched = false;
                    for (i, e) in scope.entries.iter().enumerate() {
                        if e.qualifier
                            .as_deref()
                            .is_some_and(|eq| eq.eq_ignore_ascii_case(q))
                        {
                            exprs.push(BoundExpr::Column { index: i, ty: e.ty });
                            names.push(e.name.clone());
                            matched = true;
                        }
                    }
                    if !matched {
                        return Err(Error::analysis(format!(
                            "unknown relation `{q}` in `{q}.*`"
                        )));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let bound = self.bind_expr(expr, scope)?;
                    names.push(output_name(expr, alias.as_deref()));
                    exprs.push(bound);
                }
            }
        }
        Ok((exprs, names))
    }

    /// Build the Aggregate node and rewrite the projection / HAVING to
    /// reference its output.
    fn plan_aggregate(
        &self,
        query: &Query,
        input: LogicalPlan,
        scope: &Scope,
    ) -> Result<(LogicalPlan, Vec<BoundExpr>, Vec<String>, AggBindCtx)> {
        // Bind group-by expressions over the input scope.
        let mut group_exprs = Vec::new();
        let mut group_names = Vec::new();
        for g in &query.group_by {
            let bound = self.bind_expr(g, scope)?;
            group_names.push(output_name(g, None));
            group_exprs.push(bound);
        }

        // Collect aggregate calls from projection, HAVING and ORDER BY
        // (`ORDER BY sum(x)` computes the aggregate even when unprojected).
        let mut agg_calls: Vec<Expr> = Vec::new();
        for item in &query.projection {
            if let SelectItem::Expr { expr, .. } = item {
                collect_aggregates(expr, &mut agg_calls);
            }
        }
        if let Some(h) = &query.having {
            collect_aggregates(h, &mut agg_calls);
        }
        for o in &query.order_by {
            collect_aggregates(&o.expr, &mut agg_calls);
        }
        // Deduplicate identical aggregate expressions so `count(*)` used
        // twice is computed once (the Jellybean principle in miniature).
        agg_calls.dedup_by(|a, b| a == b);
        let mut uniq: Vec<Expr> = Vec::new();
        for c in agg_calls {
            if !uniq.contains(&c) {
                uniq.push(c);
            }
        }

        let mut specs = Vec::with_capacity(uniq.len());
        for call in &uniq {
            let Expr::Function {
                name,
                args,
                star,
                distinct,
            } = call
            else {
                unreachable!("collect_aggregates only returns Function nodes");
            };
            let func = AggFunc::from_name(name)
                .ok_or_else(|| Error::analysis(format!("unknown aggregate {name}")))?;
            let (arg, arg_ty) = if *star {
                if func != AggFunc::Count {
                    return Err(Error::analysis(format!("{name}(*) is not valid")));
                }
                (None, None)
            } else {
                if args.len() != 1 {
                    return Err(Error::analysis(format!(
                        "aggregate {name} takes exactly one argument"
                    )));
                }
                let bound = self.bind_expr(&args[0], scope)?;
                let ty = bound.ty();
                if matches!(
                    func,
                    AggFunc::Sum | AggFunc::Avg | AggFunc::Variance | AggFunc::Stddev
                ) && !(ty.is_numeric() || ty == DataType::Interval)
                {
                    return Err(Error::type_err(format!("{name}() over non-numeric {ty}")));
                }
                (Some(bound), Some(ty))
            };
            specs.push(AggSpec {
                func,
                arg,
                distinct: *distinct,
                name: name.to_ascii_lowercase(),
                ty: func.result_type(arg_ty),
            });
        }

        // Aggregate output schema: [groups..., aggs...].
        let mut agg_schema_cols: Vec<Column> = group_exprs
            .iter()
            .zip(&group_names)
            .map(|(e, n)| Column::new(n.clone(), e.ty()))
            .collect();
        for s in &specs {
            agg_schema_cols.push(Column::new(s.name.clone(), s.ty));
        }
        let agg_schema = Arc::new(Schema::new_unchecked(agg_schema_cols));
        let agg_plan = LogicalPlan::Aggregate {
            input: Box::new(input),
            group_exprs: group_exprs.clone(),
            aggs: specs,
            schema: agg_schema.clone(),
        };

        // Rewrite projection and HAVING over the aggregate output: each
        // group expression or aggregate call maps to a positional column.
        let n_groups = query.group_by.len();
        let rewrite = |expr: &Expr| -> Result<BoundExpr> {
            self.bind_post_agg(expr, &query.group_by, &uniq, n_groups, &agg_schema, scope)
        };

        let mut plan = agg_plan;
        if let Some(h) = &query.having {
            let predicate = rewrite(h)?;
            require_boolish(&predicate, "HAVING")?;
            plan = LogicalPlan::Filter {
                input: Box::new(plan),
                predicate,
            };
        }

        let mut out_exprs = Vec::new();
        let mut out_names = Vec::new();
        for item in &query.projection {
            match item {
                SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => {
                    return Err(Error::analysis(
                        "`*` cannot be used with GROUP BY / aggregates",
                    ))
                }
                SelectItem::Expr { expr, alias } => {
                    out_exprs.push(rewrite(expr)?);
                    out_names.push(output_name(expr, alias.as_deref()));
                }
            }
        }
        Ok((
            plan,
            out_exprs,
            out_names,
            AggBindCtx {
                agg_calls: uniq,
                agg_schema,
            },
        ))
    }

    /// Bind an expression in the post-aggregation scope: occurrences of
    /// group-by expressions or collected aggregate calls become columns of
    /// the Aggregate output; anything else must resolve *through* them.
    #[allow(clippy::too_many_arguments)]
    fn bind_post_agg(
        &self,
        expr: &Expr,
        groups: &[Expr],
        aggs: &[Expr],
        n_groups: usize,
        agg_schema: &Schema,
        pre_scope: &Scope,
    ) -> Result<BoundExpr> {
        // Exact match with a group-by expression?
        if let Some(i) = groups.iter().position(|g| g == expr) {
            return Ok(BoundExpr::Column {
                index: i,
                ty: agg_schema.column(i).ty,
            });
        }
        // Exact match with an aggregate call?
        if let Some(i) = aggs.iter().position(|a| a == expr) {
            let idx = n_groups + i;
            return Ok(BoundExpr::Column {
                index: idx,
                ty: agg_schema.column(idx).ty,
            });
        }
        match expr {
            Expr::Literal(v) => Ok(BoundExpr::Literal(v.clone())),
            Expr::Column { qualifier, name } => {
                // A bare column that is not a group key: classic SQL error.
                // (It resolved in the pre-agg scope, so give the right hint.)
                if pre_scope.resolve(qualifier.as_deref(), name).is_ok() {
                    Err(Error::analysis(format!(
                        "column `{name}` must appear in GROUP BY or be used in an aggregate"
                    )))
                } else {
                    Err(Error::analysis(format!("unknown column `{name}`")))
                }
            }
            Expr::Function { name, star, .. } if *star && name.eq_ignore_ascii_case("cq_close") => {
                Ok(BoundExpr::CqClose)
            }
            // An aggregate call not in `aggs` can only mean nested aggregation.
            Expr::Function { name, .. } if AggFunc::from_name(name).is_some() => {
                Err(Error::analysis(format!(
                    "aggregate `{name}` cannot be nested inside another aggregate"
                )))
            }
            _ => bind_composite(expr, &|e| {
                self.bind_post_agg(e, groups, aggs, n_groups, agg_schema, pre_scope)
            }),
        }
    }

    /// Bind an expression in a plain (pre-aggregation) scope.
    fn bind_expr(&self, expr: &Expr, scope: &Scope) -> Result<BoundExpr> {
        match expr {
            Expr::Literal(v) => Ok(BoundExpr::Literal(v.clone())),
            Expr::Column { qualifier, name } => {
                let (index, entry) = scope.resolve(qualifier.as_deref(), name)?;
                Ok(BoundExpr::Column {
                    index,
                    ty: entry.ty,
                })
            }
            Expr::Function { name, star, .. } if *star && name.eq_ignore_ascii_case("cq_close") => {
                Ok(BoundExpr::CqClose)
            }
            Expr::Function { name, .. } if AggFunc::from_name(name).is_some() => {
                Err(Error::analysis(format!(
                    "aggregate `{name}` is not allowed here (only in SELECT or HAVING \
                     with GROUP BY)"
                )))
            }
            _ => bind_composite(expr, &|e| self.bind_expr(e, scope)),
        }
    }
}

/// Bind a composite expression — an operator, CAST, IS NULL, LIKE,
/// BETWEEN, IN, CASE or a scalar call — whose operands `rec` binds: the
/// plain and the post-aggregation scopes differ only in their leaves.
fn bind_composite(expr: &Expr, rec: &dyn Fn(&Expr) -> Result<BoundExpr>) -> Result<BoundExpr> {
    match expr {
        Expr::Unary { op, expr } => {
            let inner = rec(expr)?;
            check_unary(*op, &inner)?;
            Ok(BoundExpr::Unary {
                op: *op,
                expr: Box::new(inner),
            })
        }
        Expr::Binary { op, left, right } => {
            let l = rec(left)?;
            let r = rec(right)?;
            let ty = binary_result_type(*op, &l, &r)?;
            Ok(BoundExpr::Binary {
                op: *op,
                left: Box::new(l),
                right: Box::new(r),
                ty,
            })
        }
        Expr::Cast { expr, ty } => Ok(BoundExpr::Cast {
            expr: Box::new(rec(expr)?),
            ty: *ty,
        }),
        Expr::IsNull { expr, negated } => Ok(BoundExpr::IsNull {
            expr: Box::new(rec(expr)?),
            negated: *negated,
        }),
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Ok(BoundExpr::Like {
            expr: Box::new(rec(expr)?),
            pattern: Box::new(rec(pattern)?),
            negated: *negated,
        }),
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => desugar_between(rec(expr)?, rec(low)?, rec(high)?, *negated),
        Expr::InList {
            expr,
            list,
            negated,
        } => Ok(BoundExpr::InList {
            expr: Box::new(rec(expr)?),
            list: list.iter().map(rec).collect::<Result<_>>()?,
            negated: *negated,
        }),
        Expr::Case {
            operand,
            whens,
            else_expr,
        } => {
            let operand = operand.as_ref().map(|e| rec(e)).transpose()?;
            let whens = whens
                .iter()
                .map(|(c, r)| Ok((rec(c)?, rec(r)?)))
                .collect::<Result<Vec<_>>>()?;
            let else_expr = else_expr.as_ref().map(|e| rec(e)).transpose()?;
            let ty = case_result_type(&whens, &else_expr);
            Ok(BoundExpr::Case {
                operand: operand.map(Box::new),
                whens,
                else_expr: else_expr.map(Box::new),
                ty,
            })
        }
        Expr::Function { name, args, .. } => {
            let func = ScalarFunc::from_name(name)
                .ok_or_else(|| Error::analysis(format!("unknown function `{name}`")))?;
            let bound: Vec<BoundExpr> = args.iter().map(rec).collect::<Result<_>>()?;
            let ty = scalar_result_type(func, &bound)?;
            Ok(BoundExpr::ScalarFunc {
                func,
                args: bound,
                ty,
            })
        }
        // Leaves are bound by the caller before it recurses.
        Expr::Literal(_) | Expr::Column { .. } => unreachable!("a leaf is not composite"),
    }
}

/// Output column name for a projection item.
fn output_name(expr: &Expr, alias: Option<&str>) -> String {
    if let Some(a) = alias {
        return a.to_string();
    }
    match expr {
        Expr::Column { name, .. } => name.clone(),
        Expr::Function { name, .. } => name.to_ascii_lowercase(),
        Expr::Cast { expr, .. } => output_name(expr, None),
        _ => "?column?".to_string(),
    }
}

fn contains_aggregate(expr: &Expr) -> bool {
    let mut found = false;
    walk_expr(expr, &mut |e| {
        if let Expr::Function { name, .. } = e {
            if AggFunc::from_name(name).is_some() {
                found = true;
            }
        }
    });
    found
}

fn collect_aggregates(expr: &Expr, out: &mut Vec<Expr>) {
    walk_expr(expr, &mut |e| {
        if let Expr::Function { name, .. } = e {
            if AggFunc::from_name(name).is_some() {
                out.push(e.clone());
            }
        }
    });
}

fn walk_expr(expr: &Expr, f: &mut impl FnMut(&Expr)) {
    f(expr);
    match expr {
        Expr::Literal(_) | Expr::Column { .. } => {}
        Expr::Unary { expr, .. } | Expr::Cast { expr, .. } | Expr::IsNull { expr, .. } => {
            walk_expr(expr, f)
        }
        Expr::Binary { left, right, .. } => {
            walk_expr(left, f);
            walk_expr(right, f);
        }
        Expr::Like { expr, pattern, .. } => {
            walk_expr(expr, f);
            walk_expr(pattern, f);
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            walk_expr(expr, f);
            walk_expr(low, f);
            walk_expr(high, f);
        }
        Expr::InList { expr, list, .. } => {
            walk_expr(expr, f);
            for e in list {
                walk_expr(e, f);
            }
        }
        Expr::Case {
            operand,
            whens,
            else_expr,
        } => {
            if let Some(e) = operand {
                walk_expr(e, f);
            }
            for (c, r) in whens {
                walk_expr(c, f);
                walk_expr(r, f);
            }
            if let Some(e) = else_expr {
                walk_expr(e, f);
            }
        }
        Expr::Function { args, .. } => {
            for a in args {
                walk_expr(a, f);
            }
        }
    }
}

fn plan_uses_cq_close(plan: &LogicalPlan) -> bool {
    let mut found = false;
    plan.visit(&mut |p| {
        let check = |e: &BoundExpr| e.uses_cq_close();
        match p {
            LogicalPlan::Filter { predicate, .. } => found |= check(predicate),
            LogicalPlan::Project { exprs, .. } => found |= exprs.iter().any(check),
            LogicalPlan::Aggregate {
                group_exprs, aggs, ..
            } => {
                found |= group_exprs.iter().any(check)
                    || aggs.iter().any(|a| a.arg.as_ref().is_some_and(check));
            }
            LogicalPlan::Join { on, .. } => {
                found |= on.as_ref().is_some_and(check);
            }
            LogicalPlan::Sort { keys, .. } => {
                found |= keys.iter().any(|k| check(&k.expr));
            }
            _ => {}
        }
    });
    found
}

fn require_boolish(expr: &BoundExpr, clause: &str) -> Result<()> {
    // Bool or NULL literal acceptable.
    match expr.ty() {
        DataType::Bool => Ok(()),
        _ if matches!(expr, BoundExpr::Literal(Value::Null)) => Ok(()),
        ty => Err(Error::type_err(format!(
            "{clause} predicate must be boolean, got {ty}"
        ))),
    }
}

fn check_unary(op: UnaryOp, inner: &BoundExpr) -> Result<()> {
    let ty = inner.ty();
    match op {
        UnaryOp::Not if ty == DataType::Bool => Ok(()),
        UnaryOp::Not => Err(Error::type_err(format!("NOT requires boolean, got {ty}"))),
        UnaryOp::Neg if ty.is_numeric() || ty == DataType::Interval => Ok(()),
        UnaryOp::Neg => Err(Error::type_err(format!(
            "unary minus requires numeric, got {ty}"
        ))),
    }
}

fn is_null_literal(e: &BoundExpr) -> bool {
    matches!(e, BoundExpr::Literal(Value::Null))
}

/// Type-check a binary expression and compute its result type. Implements
/// the asymmetric temporal arithmetic rules (timestamp - timestamp =
/// interval, timestamp ± interval = timestamp) that Example 5's
/// `c.stime - '1 week'::interval` depends on.
fn binary_result_type(op: BinaryOp, l: &BoundExpr, r: &BoundExpr) -> Result<DataType> {
    use BinaryOp::*;
    use DataType::*;
    let lt = l.ty();
    let rt = r.ty();
    let err = || {
        Err(Error::type_err(format!(
            "operator {op:?} cannot be applied to {lt} and {rt}"
        )))
    };
    match op {
        And | Or => {
            if (lt == Bool || is_null_literal(l)) && (rt == Bool || is_null_literal(r)) {
                Ok(Bool)
            } else {
                err()
            }
        }
        Eq | Neq | Lt | Le | Gt | Ge => {
            if is_null_literal(l) || is_null_literal(r) {
                return Ok(Bool);
            }
            // Temporal values are raw microsecond integers; allow
            // comparing them with integer literals/columns directly.
            let int_temporal = (lt == Int && rt.is_temporal()) || (rt == Int && lt.is_temporal());
            if lt == rt || lt.common_type(rt).is_some() || int_temporal {
                Ok(Bool)
            } else {
                err()
            }
        }
        Concat => Ok(Text),
        Add | Sub => match (lt, rt) {
            _ if lt.is_numeric() && rt.is_numeric() => lt.common_type(rt).map_or_else(err, Ok),
            (Timestamp, Interval) => Ok(Timestamp),
            (Interval, Timestamp) if op == Add => Ok(Timestamp),
            (Timestamp, Timestamp) if op == Sub => Ok(Interval),
            (Interval, Interval) => Ok(Interval),
            _ => err(),
        },
        Mul => match (lt, rt) {
            _ if lt.is_numeric() && rt.is_numeric() => lt.common_type(rt).map_or_else(err, Ok),
            (Interval, Int) | (Int, Interval) => Ok(Interval),
            (Interval, Float) | (Float, Interval) => Ok(Interval),
            _ => err(),
        },
        Div => match (lt, rt) {
            _ if lt.is_numeric() && rt.is_numeric() => lt.common_type(rt).map_or_else(err, Ok),
            (Interval, Int) | (Interval, Float) => Ok(Interval),
            _ => err(),
        },
        Mod => {
            if lt == Int && rt == Int {
                Ok(Int)
            } else {
                err()
            }
        }
    }
}

fn case_result_type(whens: &[(BoundExpr, BoundExpr)], else_expr: &Option<BoundExpr>) -> DataType {
    let mut ty: Option<DataType> = None;
    let mut consider = |e: &BoundExpr| {
        if is_null_literal(e) {
            return;
        }
        let t = e.ty();
        ty = Some(match ty {
            None => t,
            Some(prev) => prev.common_type(t).unwrap_or(prev),
        });
    };
    for (_, r) in whens {
        consider(r);
    }
    if let Some(e) = else_expr {
        consider(e);
    }
    ty.unwrap_or(DataType::Text)
}

fn scalar_result_type(func: ScalarFunc, args: &[BoundExpr]) -> Result<DataType> {
    use ScalarFunc::*;
    let arity_err = |want: &str| {
        Err(Error::analysis(format!(
            "{func:?} expects {want} argument(s), got {}",
            args.len()
        )))
    };
    match func {
        Abs => {
            if args.len() != 1 {
                return arity_err("1");
            }
            let t = args[0].ty();
            if t.is_numeric() || t == DataType::Interval {
                Ok(t)
            } else {
                Err(Error::type_err(format!("abs() over {t}")))
            }
        }
        Lower | Upper => {
            if args.len() != 1 {
                return arity_err("1");
            }
            Ok(DataType::Text)
        }
        Length => {
            if args.len() != 1 {
                return arity_err("1");
            }
            Ok(DataType::Int)
        }
        Round | Floor | Ceil => {
            if args.len() != 1 {
                return arity_err("1");
            }
            let t = args[0].ty();
            if t.is_numeric() {
                Ok(t)
            } else {
                Err(Error::type_err(format!("{func:?} over {t}")))
            }
        }
        Coalesce | Greatest | Least => {
            if args.is_empty() {
                return arity_err("at least 1");
            }
            let ty = args
                .iter()
                .filter(|a| !is_null_literal(a))
                .map(|a| a.ty())
                .next()
                .unwrap_or(DataType::Text);
            Ok(ty)
        }
        NullIf => {
            if args.len() != 2 {
                return arity_err("2");
            }
            Ok(args[0].ty())
        }
        Substr => {
            if args.len() != 2 && args.len() != 3 {
                return arity_err("2 or 3");
            }
            Ok(DataType::Text)
        }
    }
}

fn desugar_between(
    expr: BoundExpr,
    low: BoundExpr,
    high: BoundExpr,
    negated: bool,
) -> Result<BoundExpr> {
    let ge = BoundExpr::Binary {
        op: BinaryOp::Ge,
        left: Box::new(expr.clone()),
        right: Box::new(low),
        ty: DataType::Bool,
    };
    let le = BoundExpr::Binary {
        op: BinaryOp::Le,
        left: Box::new(expr),
        right: Box::new(high),
        ty: DataType::Bool,
    };
    let and = BoundExpr::Binary {
        op: BinaryOp::And,
        left: Box::new(ge),
        right: Box::new(le),
        ty: DataType::Bool,
    };
    Ok(if negated {
        BoundExpr::Unary {
            op: UnaryOp::Not,
            expr: Box::new(and),
        }
    } else {
        and
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Statement;
    use std::collections::HashMap;
    use streamrel_types::time::MINUTES;

    struct FakeProvider {
        rels: HashMap<String, (SchemaRef, RelKind)>,
    }

    impl SchemaProvider for FakeProvider {
        fn relation(&self, name: &str) -> Option<(SchemaRef, RelKind)> {
            self.rels.get(&name.to_ascii_lowercase()).cloned()
        }
    }

    fn provider() -> FakeProvider {
        let mut rels = HashMap::new();
        let url_stream = Arc::new(
            Schema::new(vec![
                Column::not_null("url", DataType::Text),
                Column::not_null("atime", DataType::Timestamp),
                Column::new("client_ip", DataType::Text),
            ])
            .unwrap(),
        );
        rels.insert(
            "url_stream".into(),
            (url_stream, RelKind::Stream { cqtime: Some(1) }),
        );
        let urls_archive = Arc::new(
            Schema::new(vec![
                Column::new("url", DataType::Text),
                Column::new("scnt", DataType::Int),
                Column::new("stime", DataType::Timestamp),
            ])
            .unwrap(),
        );
        rels.insert("urls_archive".into(), (urls_archive, RelKind::Table));
        let urls_now = Arc::new(
            Schema::new(vec![
                Column::new("url", DataType::Text),
                Column::new("scnt", DataType::Int),
                Column::new("cq_close", DataType::Timestamp),
            ])
            .unwrap(),
        );
        rels.insert(
            "urls_now".into(),
            (urls_now, RelKind::DerivedStream { cqtime: Some(2) }),
        );
        let dim = Arc::new(
            Schema::new(vec![
                Column::new("url", DataType::Text),
                Column::new("category", DataType::Text),
            ])
            .unwrap(),
        );
        rels.insert("url_dim".into(), (dim, RelKind::Table));
        rels.insert(
            "top_view".into(),
            (
                Arc::new(Schema::empty()),
                RelKind::View {
                    sql: "select url, count(*) c from url_stream \
                          <visible '5 minutes' advance '1 minute'> group by url"
                        .into(),
                },
            ),
        );
        FakeProvider { rels }
    }

    fn analyze(sql: &str) -> Result<AnalyzedQuery> {
        let p = provider();
        let stmt = parse_statement(sql)?;
        let Statement::Select(q) = stmt else {
            panic!("not a select")
        };
        Analyzer::new(&p).analyze(&q)
    }

    #[test]
    fn example_2_analyzes_as_cq() {
        let a = analyze(
            "SELECT url, count(*) url_count \
             FROM url_stream <VISIBLE '5 minutes' ADVANCE '1 minute'> \
             GROUP by url ORDER by url_count desc LIMIT 10",
        )
        .unwrap();
        assert!(a.is_continuous);
        let schema = a.plan.schema();
        assert_eq!(schema.column(0).name, "url");
        assert_eq!(schema.column(1).name, "url_count");
        assert_eq!(schema.column(1).ty, DataType::Int);
        assert_eq!(
            a.plan.stream_scans()[0].1,
            WindowSpec::Time {
                visible: 5 * MINUTES,
                advance: MINUTES
            }
        );
    }

    #[test]
    fn snapshot_query_is_not_continuous() {
        let a = analyze("select url, scnt from urls_archive where scnt > 10").unwrap();
        assert!(!a.is_continuous);
    }

    #[test]
    fn stream_without_window_binds_as_unbounded() {
        // The analyzer no longer rejects a windowless stream reference —
        // it binds `WindowSpec::Unbounded` so the registration-time
        // safety check (`streamrel-check`) can classify the unbounded
        // operator and reject with a targeted hint.
        let a = analyze("select * from url_stream").unwrap();
        assert!(a.is_continuous);
        assert_eq!(a.plan.stream_scans()[0].1, WindowSpec::Unbounded);
    }

    #[test]
    fn window_on_table_rejected() {
        let e = analyze("select * from urls_archive <tumbling '1 minute'>").unwrap_err();
        assert!(e.to_string().contains("not allowed on table"), "{e}");
    }

    #[test]
    fn example_5_historical_join_analyzes() {
        let a = analyze(
            "select c.scnt, h.scnt, c.stime from \
             (select sum(scnt) as scnt, cq_close(*) as stime \
              from urls_now <slices 1 windows>) c, urls_archive h \
             where c.stime - '1 week'::interval = h.stime",
        )
        .unwrap();
        assert!(a.is_continuous);
        let schema = a.plan.schema();
        assert_eq!(schema.len(), 3);
        assert_eq!(schema.column(2).name, "stime");
        assert_eq!(schema.column(2).ty, DataType::Timestamp);
    }

    #[test]
    fn cq_close_in_snapshot_query_rejected() {
        let e = analyze("select cq_close(*) from urls_archive").unwrap_err();
        assert!(e.to_string().contains("cq_close"), "{e}");
    }

    #[test]
    fn two_streams_rejected() {
        let e = analyze(
            "select * from url_stream <tumbling '1 minute'> a, \
             url_stream <tumbling '1 minute'> b",
        )
        .unwrap_err();
        assert!(matches!(e, Error::Unsupported(_)), "{e}");
    }

    #[test]
    fn ungrouped_column_rejected() {
        let e = analyze(
            "select client_ip, count(*) from url_stream \
             <tumbling '1 minute'> group by url",
        )
        .unwrap_err();
        assert!(e.to_string().contains("GROUP BY"), "{e}");
    }

    #[test]
    fn view_inlines() {
        let a = analyze("select * from top_view where c > 5").unwrap();
        assert!(a.is_continuous, "view over a stream stays continuous");
        let schema = a.plan.schema();
        assert_eq!(schema.column(0).name, "url");
        assert_eq!(schema.column(1).name, "c");
    }

    #[test]
    fn stream_table_join_enrichment() {
        let a = analyze(
            "select s.url, d.category, count(*) c \
             from url_stream <visible '5 minutes' advance '1 minute'> s \
             join url_dim d on s.url = d.url \
             group by s.url, d.category",
        )
        .unwrap();
        assert!(a.is_continuous);
        assert_eq!(a.plan.schema().len(), 3);
    }

    #[test]
    fn left_join_marks_nullable() {
        let a = analyze(
            "select s.url, d.category from \
             url_stream <tumbling '1 minute'> s \
             left join url_dim d on s.url = d.url",
        )
        .unwrap();
        let schema = a.plan.schema();
        assert!(schema.column(1).nullable);
    }

    #[test]
    fn order_by_ordinal_and_alias() {
        analyze("select url, scnt from urls_archive order by 2 desc").unwrap();
        analyze("select url, scnt total from urls_archive order by total").unwrap();
        assert!(analyze("select url from urls_archive order by 5").is_err());
        assert!(analyze("select url from urls_archive order by nonexistent").is_err());
    }

    #[test]
    fn temporal_arithmetic_types() {
        let a =
            analyze("select stime - '1 week'::interval ago, stime - stime gap from urls_archive")
                .unwrap();
        let s = a.plan.schema();
        assert_eq!(s.column(0).ty, DataType::Timestamp);
        assert_eq!(s.column(1).ty, DataType::Interval);
    }

    #[test]
    fn type_errors_caught() {
        assert!(analyze("select url + 1 from urls_archive").is_err());
        assert!(analyze("select * from urls_archive where url").is_err());
        assert!(analyze("select sum(url) from urls_archive").is_err());
        assert!(analyze("select not scnt from urls_archive").is_err());
    }

    #[test]
    fn having_and_duplicate_aggs_share() {
        let a = analyze(
            "select url, count(*) c from urls_archive group by url \
             having count(*) > 5",
        )
        .unwrap();
        // The plan must contain exactly one aggregate spec (count(*) is
        // shared between SELECT and HAVING).
        let mut agg_count = None;
        a.plan.visit(&mut |p| {
            if let LogicalPlan::Aggregate { aggs, .. } = p {
                agg_count = Some(aggs.len());
            }
        });
        assert_eq!(agg_count, Some(1));
    }

    #[test]
    fn wildcard_expansion() {
        let a = analyze("select * from urls_archive").unwrap();
        assert_eq!(a.plan.schema().len(), 3);
        let a = analyze("select h.* from urls_archive h join url_dim d on h.url = d.url").unwrap();
        assert_eq!(a.plan.schema().len(), 3);
    }

    #[test]
    fn ambiguous_column_rejected() {
        let e =
            analyze("select url from urls_archive h join url_dim d on h.url = d.url").unwrap_err();
        assert!(e.to_string().contains("ambiguous"), "{e}");
    }

    #[test]
    fn select_without_from() {
        let a = analyze("select 1 + 2 three, 'x' || 'y'").unwrap();
        assert!(!a.is_continuous);
        assert_eq!(a.plan.schema().column(0).name, "three");
    }

    #[test]
    fn slices_on_base_stream_rejected() {
        let e = analyze("select * from url_stream <slices 1 windows>").unwrap_err();
        assert!(e.to_string().contains("derived"), "{e}");
    }

    #[test]
    fn group_by_expression_reused_in_projection() {
        let a = analyze("select upper(url) u, count(*) c from urls_archive group by upper(url)")
            .unwrap();
        assert_eq!(a.plan.schema().column(0).name, "u");
    }

    #[test]
    fn avg_returns_float() {
        let a = analyze("select avg(scnt) from urls_archive").unwrap();
        assert_eq!(a.plan.schema().column(0).ty, DataType::Float);
    }

    #[test]
    fn distinct_plan_has_distinct_node() {
        let a = analyze("select distinct url from urls_archive").unwrap();
        let mut has = false;
        a.plan.visit(&mut |p| {
            if matches!(p, LogicalPlan::Distinct { .. }) {
                has = true;
            }
        });
        assert!(has);
    }
}
