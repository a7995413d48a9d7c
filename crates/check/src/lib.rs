//! Static safety analysis for streamrel.
//!
//! Two independent levels share this crate:
//!
//! * **Level 1 — plan analysis** ([`check_plan`]): a pass over the bound
//!   [`LogicalPlan`] that runs at CQ registration, before any runtime
//!   state is allocated. It classifies every plan as admissible or not:
//!   unbounded-state operators (stream joins or aggregates with no window
//!   bound) and windows that can never close are *rejected* with a
//!   structured [`Error::Check`] carrying a fix hint; shapes that are
//!   legal but costly (shared-grid mismatches, sorts over raw stream
//!   tuples) produce *warnings* surfaced through `EXPLAIN CHECK`. The
//!   execution path it reports comes from the same placement decision
//!   registration acts on ([`streamrel_cq::shared::place`]).
//!   The same pass computes a conservative per-plan state-size bound.
//!
//! * **Level 2 — source lint** ([`lint`]): a self-hosted, dependency-free
//!   scanner over the workspace's own sources enforcing engine invariants
//!   (no `unwrap()` in I/O crates, the [`lock_order`] table, `Relaxed`
//!   atomics only in `crates/obs`, the reserved `streamrel_` prefix). It
//!   runs in CI via the `streamrel-lint` binary.
//!
//! The paper's thesis is that continuous queries are long-lived shared
//! infrastructure (§2, §4): a plan admitted today runs for weeks, so a
//! state bug that a snapshot engine would survive becomes a slow-motion
//! outage. Admission is therefore the right place to be strict.

#![deny(unsafe_code)]

pub mod lint;
pub mod lock_order;

use std::sync::Arc;
use streamrel_cq::shared::{place, SharedRegistry};
use streamrel_ivm::{gcd, IvmProgram, IvmShape};
use streamrel_sql::plan::LogicalPlan;
use streamrel_sql::WindowSpec;
use streamrel_types::relation::Relation;
use streamrel_types::schema::{Column, Schema};
use streamrel_types::time::format_interval;
use streamrel_types::{DataType, Error, Value};

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// The plan must not be admitted as a continuous query.
    Reject,
    /// The plan is admissible but the shape is a known footgun.
    Warn,
}

impl Severity {
    /// Lowercase label used in `EXPLAIN CHECK` output.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Reject => "reject",
            Severity::Warn => "warn",
        }
    }
}

/// One rule hit produced by the plan analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Severity of the finding.
    pub severity: Severity,
    /// Stable rule identifier (see DESIGN.md §8 for the catalog).
    pub rule: &'static str,
    /// What is wrong with the plan.
    pub message: String,
    /// How to fix the query.
    pub hint: String,
}

impl Finding {
    fn reject(rule: &'static str, message: String, hint: String) -> Finding {
        Finding {
            severity: Severity::Reject,
            rule,
            message,
            hint,
        }
    }

    fn warn(rule: &'static str, message: String, hint: String) -> Finding {
        Finding {
            severity: Severity::Warn,
            rule,
            message,
            hint,
        }
    }
}

/// The engine-wide standing-state budget at one admission decision.
///
/// Carried in [`CheckContext`] when `DbOptions::state_budget_bytes` is
/// configured: `limit_bytes` is the cross-CQ cap and `admitted_bytes`
/// the sum of the bounds of every CQ currently registered. The budget
/// rule rejects a plan whose own bound would push the sum past the cap
/// — and, because the cap is a *proof* obligation, any plan whose state
/// cannot be byte-bounded at all (arrival-rate-dependent windows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateBudget {
    /// The configured cross-CQ cap.
    pub limit_bytes: u64,
    /// Bytes already admitted against the cap.
    pub admitted_bytes: u64,
}

/// Context the admission check needs from the engine.
///
/// Everything here is optional in the sense that `check_plan` degrades
/// gracefully: without a registry the shared-grid rule simply cannot
/// fire (there is nothing to mismatch against), and without a budget
/// the byte bound is reported but never enforced.
#[derive(Default)]
pub struct CheckContext<'a> {
    /// Whether slice stores are pooled across CQs engine-wide.
    pub sharing: bool,
    /// Whether lowered plans run on slice stores at all (off: every CQ
    /// re-evaluates).
    pub ivm: bool,
    /// The live slice stores of the stream the plan scans, for
    /// grid-compatibility checks.
    pub registry: Option<&'a SharedRegistry>,
    /// The cross-CQ standing-state budget, when one is configured.
    pub budget: Option<StateBudget>,
}

/// Result of the Level-1 plan analysis.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Whether the plan is a continuous query (any stream scanned).
    pub continuous: bool,
    /// All rule hits, rejections first.
    pub findings: Vec<Finding>,
    /// Conservative human-readable bound on standing state.
    pub state_bound: String,
    /// Conservative numeric bound on standing state, when one exists:
    /// `Some(bytes)` iff every stream scan is row-bounded (row windows),
    /// `Some(0)` for snapshot queries, `None` when the state depends on
    /// arrival rate (time windows, slices, unbounded scans).
    pub state_bound_bytes: Option<u64>,
    /// Execution path the CQ takes at each window close: `"ivm"` when the
    /// plan lowers onto a slice store (pooled or private), `"reeval"` for
    /// per-window re-evaluation, `"-"` for snapshot queries.
    pub path: &'static str,
    /// Why the plan re-evaluates (continuous `"reeval"` plans only);
    /// stable reason text from the placement decision.
    pub ivm_fallback: Option<&'static str>,
    /// How a sliding `"ivm"` member's window emits its keys: in its
    /// `ORDER BY` key order, or in first-seen order sorted at each close.
    pub ivm_order: Option<&'static str>,
}

impl CheckReport {
    /// The first rejection, if any.
    pub fn rejection(&self) -> Option<&Finding> {
        self.findings
            .iter()
            .find(|f| f.severity == Severity::Reject)
    }

    /// Number of warnings.
    pub fn warnings(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Warn)
            .count()
    }

    /// Convert the first rejection into the structured admission error.
    pub fn to_error(&self) -> Option<Error> {
        self.rejection()
            .map(|f| Error::check(f.rule, f.message.clone(), f.hint.clone()))
    }

    /// Render the report as the `EXPLAIN CHECK` relation.
    ///
    /// Columns: `kind` (query/verdict/info/reject/warn/state-bound),
    /// `rule`, `detail`, `hint`, `path` (`ivm`/`reeval`/`-`, constant per
    /// query). Built here — not in the server — so the embedded and remote
    /// surfaces are one code path.
    pub fn to_relation(&self) -> Relation {
        let schema = Arc::new(Schema::new_unchecked(vec![
            Column::new("kind", DataType::Text),
            Column::new("rule", DataType::Text),
            Column::new("detail", DataType::Text),
            Column::new("hint", DataType::Text),
            Column::new("path", DataType::Text),
        ]));
        let mut rel = Relation::empty(schema);
        let mut row = |kind: &str, rule: &str, detail: &str, hint: &str| {
            rel.push(
                [kind, rule, detail, hint, self.path]
                    .map(Value::text)
                    .to_vec(),
            )
        };
        let class = if self.continuous {
            "continuous query (CQ)"
        } else {
            "snapshot query (SQ)"
        };
        row("query", "", class, "");
        let verdict = if self.rejection().is_some() {
            "reject: not admissible as a standing query".to_string()
        } else if self.warnings() > 0 {
            format!("admit with {} warning(s)", self.warnings())
        } else {
            "admit".to_string()
        };
        row("verdict", "", &verdict, "");
        if let Some(reason) = self.ivm_fallback {
            let hint = "the CQ re-evaluates its plan at every window close; \
                        see the fallback matrix in DESIGN.md §12 for shapes \
                        that maintain state incrementally";
            row("info", "ivm-fallback", reason, hint);
        }
        if let Some(order) = self.ivm_order {
            let hint = "ORDER BY every group column first, all ASC or all DESC, none float";
            row("info", "ivm-order", order, hint);
        }
        for f in &self.findings {
            row(f.severity.label(), f.rule, &f.message, &f.hint);
        }
        let bytes = match self.state_bound_bytes {
            Some(b) => format!("{b} byte(s)"),
            None => "unbounded in bytes (arrival-rate dependent)".to_string(),
        };
        row(
            "state-bound",
            "",
            &format!("{}; {bytes}", self.state_bound),
            "",
        );
        rel
    }
}

/// Nearest enclosing stateful operator above a scan, tracked while
/// descending the plan.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Enclosing {
    None,
    Join,
    Aggregate,
}

/// Run the Level-1 admission analysis over a bound plan.
///
/// Pure function of the plan plus [`CheckContext`]; performs no I/O and
/// allocates only the report (the `experiments check` suite holds it under
/// 1 ms per registration).
pub fn check_plan(plan: &LogicalPlan, ctx: &CheckContext) -> CheckReport {
    let mut findings = Vec::new();
    classify(plan, Enclosing::None, &mut findings);
    window_shape_rules(plan, &mut findings);
    let continuous = plan.is_continuous();
    // The decision registration acts on, made once: it answers both the
    // path and the shared-grid rule.
    let placement = continuous.then(|| place(plan, ctx.sharing, ctx.ivm, ctx.registry));
    let ivm_fallback = placement.as_ref().and_then(|p| p.fallback);
    // A sliding maintained window: how its view emits.
    let program = placement.as_ref().and_then(|p| p.program.as_ref());
    let sliding = program.filter(|p| ivm_fallback.is_none() && p.visible > p.advance);
    let ivm_order = sliding.map(|p| match p.order {
        Some(_) => "view emits in ORDER BY key order",
        None => "first-seen order, sorted per close",
    });
    let path = match (&placement, ivm_fallback) {
        (None, _) => "-",
        // Re-evaluated over the raw rows of a slice store, on whichever
        // clock its window counts.
        (_, Some(_)) => "reeval",
        (Some(p), None) => {
            if let Some((program, width)) = p.program.as_ref().zip(p.grid_mismatch) {
                findings.push(shared_grid_finding(program, width));
            }
            "ivm"
        }
    };
    non_monotonic_rule(plan, &mut findings);
    let state_bound_bytes = state_bound_bytes(plan);
    if continuous {
        budget_rule(state_bound_bytes, ctx, &mut findings);
    }
    findings.sort_by_key(|f| match f.severity {
        Severity::Reject => 0,
        Severity::Warn => 1,
    });
    let mut state_bound = state_bound(plan);
    if path == "ivm" {
        // A slice store never buffers window tuples: standing state is its
        // key dictionary and the per-slice partials by key id, bounded by
        // distinct keys — not arrival rate.
        state_bound.push_str(
            "; ivm: buffered tuples replaced by a key dictionary (each \
             distinct key once per store) plus per-slice aggregate \
             partials by key id",
        );
        if let Some(IvmShape::JoinAgg { join, .. }) = program.map(|p| &p.shape) {
            let table = format!(", plus one count per distinct join key of `{}`", join.table);
            state_bound.push_str(&table);
        }
    }
    CheckReport {
        continuous,
        state_bound,
        state_bound_bytes,
        findings,
        path,
        ivm_fallback,
        ivm_order,
    }
}

const WINDOW_HINT: &str = "add a window clause to the stream reference, e.g. \
                           `s <visible '5 minutes' advance '1 minute'>` or \
                           `s <visible 100 rows advance 10 rows>`";

/// Rules `unbounded-join` / `unbounded-aggregate` / `unbounded-stream`:
/// a stream scanned with no window bound, classified by the nearest
/// enclosing stateful operator so the hint names the operator whose
/// state would actually grow without bound.
fn classify(plan: &LogicalPlan, enclosing: Enclosing, out: &mut Vec<Finding>) {
    match plan {
        LogicalPlan::StreamScan { stream, window, .. } => {
            if *window == WindowSpec::Unbounded {
                let (rule, message) = match enclosing {
                    Enclosing::Join => (
                        "unbounded-join",
                        format!(
                            "stream `{stream}` feeds a join with no window \
                             bound; the join must retain every tuple ever \
                             seen and its state grows forever"
                        ),
                    ),
                    Enclosing::Aggregate => (
                        "unbounded-aggregate",
                        format!(
                            "aggregate over stream `{stream}` has no window \
                             bound; its groups accumulate forever and no \
                             window ever closes to emit them"
                        ),
                    ),
                    Enclosing::None => (
                        "unbounded-stream",
                        format!(
                            "stream `{stream}` is scanned without a window; \
                             a standing query over it would retain every \
                             arriving tuple"
                        ),
                    ),
                };
                out.push(Finding::reject(rule, message, WINDOW_HINT.to_string()));
            }
        }
        LogicalPlan::Join { left, right, .. } => {
            classify(left, Enclosing::Join, out);
            classify(right, Enclosing::Join, out);
        }
        LogicalPlan::Aggregate { input, .. } => {
            classify(input, Enclosing::Aggregate, out);
        }
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. }
        | LogicalPlan::Distinct { input } => classify(input, enclosing, out),
        LogicalPlan::OneRow | LogicalPlan::TableScan { .. } => {}
    }
}

/// Rules `never-closing-window` / `advance-exceeds-visible` /
/// `unaligned-window`: per-window shape checks.
fn window_shape_rules(plan: &LogicalPlan, out: &mut Vec<Finding>) {
    for (stream, window) in plan.stream_scans() {
        match window {
            WindowSpec::Time { visible, advance } => {
                if visible <= 0 {
                    out.push(Finding::reject(
                        "never-closing-window",
                        format!(
                            "window over `{stream}` has non-positive \
                             VISIBLE ({}); it can never contain data",
                            format_interval(visible)
                        ),
                        "use a positive interval, e.g. VISIBLE '1 minute'".to_string(),
                    ));
                } else if advance <= 0 {
                    out.push(Finding::reject(
                        "never-closing-window",
                        format!(
                            "window over `{stream}` has non-positive \
                             ADVANCE ({}); it would never close and never \
                             emit a result",
                            format_interval(advance)
                        ),
                        "use a positive ADVANCE; for a tumbling window set \
                         ADVANCE equal to VISIBLE"
                            .to_string(),
                    ));
                } else if advance > visible {
                    out.push(Finding::reject(
                        "advance-exceeds-visible",
                        format!(
                            "window over `{stream}` advances by {} but only \
                             {} is visible: tuples arriving in the gap are \
                             silently never reported",
                            format_interval(advance),
                            format_interval(visible)
                        ),
                        format!(
                            "set ADVANCE <= VISIBLE (tumbling: ADVANCE '{}' \
                             equal to VISIBLE)",
                            format_interval(visible)
                        ),
                    ));
                } else if visible % advance != 0 {
                    out.push(Finding::warn(
                        "unaligned-window",
                        format!(
                            "VISIBLE {} is not a multiple of ADVANCE {}; \
                             shared slices fall back to their gcd and the \
                             window closes off the natural grid",
                            format_interval(visible),
                            format_interval(advance)
                        ),
                        "make VISIBLE a whole multiple of ADVANCE".to_string(),
                    ));
                }
            }
            WindowSpec::Rows { visible, advance } => {
                if visible == 0 || advance == 0 {
                    out.push(Finding::reject(
                        "never-closing-window",
                        format!(
                            "row window over `{stream}` has VISIBLE {visible} \
                             ROWS ADVANCE {advance} ROWS; a zero bound means \
                             it never fills or never slides"
                        ),
                        "use positive row counts, e.g. <visible 100 rows \
                         advance 10 rows>"
                            .to_string(),
                    ));
                } else if advance > visible {
                    out.push(Finding::reject(
                        "advance-exceeds-visible",
                        format!(
                            "row window over `{stream}` advances {advance} \
                             rows but shows only {visible}: every window \
                             skips {} arriving rows",
                            advance - visible
                        ),
                        format!("set ADVANCE <= VISIBLE ({visible} rows)"),
                    ));
                }
            }
            WindowSpec::Slices { count } => {
                if count == 0 {
                    out.push(Finding::reject(
                        "never-closing-window",
                        format!(
                            "slice window over `{stream}` spans 0 upstream \
                             windows; it can never close"
                        ),
                        "use <slices 1 windows> or more".to_string(),
                    ));
                }
            }
            WindowSpec::Unbounded => {} // handled by classify()
        }
    }
}

/// Rule `shared-grid-mismatch` (warn): the plan lowers and pooling is
/// on, but the live pooled store for the same shape already holds data on
/// a slice grid this window's gcd cannot divide into — the CQ silently
/// gets a private store, folding every tuple a second time.
fn shared_grid_finding(program: &IvmProgram, width: i64) -> Finding {
    Finding::warn(
        "shared-grid-mismatch",
        format!(
            "an existing shared group over `{}` slices at {} but this \
             window's grid is {}; the group cannot re-slice with data \
             present, so this CQ runs on a private slice store",
            program.shape.prefix().stream,
            format_interval(width),
            format_interval(gcd(program.visible, program.advance))
        ),
        format!(
            "align VISIBLE/ADVANCE to multiples of the group's slice \
             width ({})",
            format_interval(width)
        ),
    )
}

/// Rule `non-monotonic-op` (warn): `ORDER BY` / `DISTINCT` applied to raw
/// (unaggregated) stream tuples. Append-only streams make these re-buffer
/// and re-process the full window on every close; over the aggregated
/// result they are cheap.
fn non_monotonic_rule(plan: &LogicalPlan, out: &mut Vec<Finding>) {
    fn raw_stream_below(plan: &LogicalPlan) -> bool {
        match plan {
            LogicalPlan::StreamScan { .. } => true,
            // An aggregate compacts the stream: operators above it work
            // on the (small) result relation, not raw tuples.
            LogicalPlan::Aggregate { .. } => false,
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Distinct { input } => raw_stream_below(input),
            LogicalPlan::Join { left, right, .. } => {
                raw_stream_below(left) || raw_stream_below(right)
            }
            LogicalPlan::OneRow | LogicalPlan::TableScan { .. } => false,
        }
    }
    plan.visit(&mut |p| {
        let (op, input) = match p {
            LogicalPlan::Sort { input, .. } => ("ORDER BY", input),
            LogicalPlan::Distinct { input } => ("DISTINCT", input),
            _ => return,
        };
        if input.is_continuous() && raw_stream_below(input) {
            out.push(Finding::warn(
                "non-monotonic-op",
                format!(
                    "{op} is applied to raw stream tuples; every window \
                     close re-buffers and re-orders the full window"
                ),
                "aggregate first and apply the operation to the (much \
                 smaller) per-window result"
                    .to_string(),
            ));
        }
    });
}

/// Estimated in-memory width of one buffered row: fixed-width scalars
/// at their natural size, plus a nominal allowance for variable-width
/// text (conservative for typical keys, not a hard ceiling).
fn row_width_bytes(schema: &Schema) -> u64 {
    schema
        .columns()
        .iter()
        .map(|c| match c.ty {
            DataType::Bool => 1,
            DataType::Int | DataType::Float | DataType::Timestamp | DataType::Interval => 8,
            DataType::Text => 64,
        })
        .sum()
}

/// Conservative numeric byte bound on the plan's standing state, when
/// one can be proven: row windows buffer exactly `visible` rows per
/// scan, so their state is `visible x row width`. Time windows, slice
/// windows and unbounded scans depend on arrival rate (or upstream
/// batch size), so no byte bound exists and the whole plan reports
/// `None`. Snapshot queries hold no standing state.
fn state_bound_bytes(plan: &LogicalPlan) -> Option<u64> {
    let mut total: Option<u64> = Some(0);
    plan.visit(&mut |p| {
        if let LogicalPlan::StreamScan { schema, window, .. } = p {
            let scan = match window {
                WindowSpec::Rows { visible, .. } => Some(*visible * row_width_bytes(schema)),
                WindowSpec::Time { .. } | WindowSpec::Slices { .. } | WindowSpec::Unbounded => None,
            };
            total = match (total, scan) {
                (Some(t), Some(s)) => Some(t + s),
                _ => None,
            };
        }
    });
    total
}

/// Rule `state-budget` (reject): with a cross-CQ standing-state budget
/// configured, a plan is admitted only if its byte bound *provably*
/// fits in the remaining budget. A plan with no byte bound at all
/// (arrival-rate-dependent state) cannot discharge that proof and is
/// rejected outright — the budget is a guarantee, not a heuristic.
fn budget_rule(bound: Option<u64>, ctx: &CheckContext, out: &mut Vec<Finding>) {
    let Some(budget) = ctx.budget else { return };
    match bound {
        None => out.push(Finding::reject(
            "state-budget",
            "the plan's standing state depends on arrival rate and cannot \
             be byte-bounded, so it is not admissible under the engine's \
             state budget"
                .to_string(),
            "use row-bounded windows (e.g. <visible 100 rows advance 10 \
             rows>) or raise/remove DbOptions::state_budget_bytes"
                .to_string(),
        )),
        Some(bytes) => {
            let remaining = budget.limit_bytes.saturating_sub(budget.admitted_bytes);
            if bytes > remaining {
                out.push(Finding::reject(
                    "state-budget",
                    format!(
                        "the plan needs up to {bytes} byte(s) of standing \
                         state but only {remaining} of the {} byte budget \
                         remain ({} already admitted across running CQs)",
                        budget.limit_bytes, budget.admitted_bytes
                    ),
                    "drop or re-window other CQs, shrink this window, or \
                     raise DbOptions::state_budget_bytes"
                        .to_string(),
                ));
            }
        }
    }
}

/// Conservative human-readable bound on the standing state the plan
/// needs, derived from its window clauses.
fn state_bound(plan: &LogicalPlan) -> String {
    let scans = plan.stream_scans();
    if scans.is_empty() {
        return "none (snapshot query holds no standing state)".to_string();
    }
    let mut parts = Vec::new();
    for (stream, window) in scans {
        let part = match window {
            WindowSpec::Time { visible, advance } => {
                let slices = if advance > 0 && visible > 0 {
                    (visible + advance - 1) / advance
                } else {
                    0
                };
                format!(
                    "`{stream}`: tuples from the last {} ({} slice(s) of {}); \
                     row count bounded by arrival rate x {0}",
                    format_interval(visible),
                    slices.max(1),
                    format_interval(gcd(visible.max(1), advance.max(1))),
                )
            }
            WindowSpec::Rows { visible, .. } => {
                format!("`{stream}`: exactly the last {visible} row(s)")
            }
            WindowSpec::Slices { count } => {
                format!("`{stream}`: the last {count} upstream result batch(es)")
            }
            WindowSpec::Unbounded => {
                format!("`{stream}`: UNBOUNDED — grows with every arrival")
            }
        };
        parts.push(part);
    }
    parts.join("; ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamrel_sql::analyzer::SchemaProvider;
    use streamrel_sql::plan::SchemaRef;
    use streamrel_sql::{parse_statement, Analyzer, RelKind, Statement};
    use streamrel_types::schema::{Column, Schema};

    /// Minimal in-memory catalog: one table plus one base stream whose
    /// CQTIME column sits at position 0.
    struct TestProvider;

    impl SchemaProvider for TestProvider {
        fn relation(&self, name: &str) -> Option<(SchemaRef, RelKind)> {
            let ts = Column::new("ts", DataType::Timestamp);
            match name {
                "hits" => Some((
                    Arc::new(Schema::new_unchecked(vec![
                        ts,
                        Column::new("url", DataType::Text),
                        Column::new("bytes", DataType::Int),
                    ])),
                    RelKind::Stream { cqtime: Some(0) },
                )),
                "sites" => Some((
                    Arc::new(Schema::new_unchecked(vec![
                        Column::new("url", DataType::Text),
                        Column::new("owner", DataType::Text),
                    ])),
                    RelKind::Table,
                )),
                _ => None,
            }
        }
    }

    fn check(sql: &str) -> CheckReport {
        let stmt = parse_statement(sql).expect("parse");
        let Statement::Select(q) = stmt else {
            panic!("not a select")
        };
        let analyzed = Analyzer::new(&TestProvider).analyze(&q).expect("analyze");
        check_plan(&analyzed.plan, &CheckContext::default())
    }

    /// A bare scan with a hand-built window, for shapes the SQL parser
    /// already refuses to produce (defense-in-depth rules).
    fn scan_with(window: WindowSpec) -> LogicalPlan {
        LogicalPlan::StreamScan {
            stream: "hits".to_string(),
            schema: Arc::new(Schema::new_unchecked(vec![Column::new(
                "ts",
                DataType::Timestamp,
            )])),
            window,
            cqtime: Some(0),
            derived: false,
        }
    }

    fn rejected_rule(sql: &str) -> &'static str {
        let report = check(sql);
        report
            .rejection()
            .unwrap_or_else(|| panic!("expected rejection for {sql:?}, got {:?}", report.findings))
            .rule
    }

    fn admitted(sql: &str) -> CheckReport {
        let report = check(sql);
        assert!(
            report.rejection().is_none(),
            "expected admission for {sql:?}, got {:?}",
            report.findings
        );
        report
    }

    // Each rejection rule, paired with the accepted near-miss that
    // differs only in the property the rule checks.

    #[test]
    fn unbounded_stream_rejected() {
        assert_eq!(rejected_rule("select * from hits"), "unbounded-stream");
        admitted("select * from hits <visible 100 rows advance 100 rows>");
    }

    #[test]
    fn unbounded_join_rejected() {
        assert_eq!(
            rejected_rule("select h.url from hits h join sites s on h.url = s.url"),
            "unbounded-join"
        );
        admitted(
            "select h.url from hits <visible '1 minute' advance '1 minute'> h \
             join sites s on h.url = s.url",
        );
    }

    #[test]
    fn unbounded_aggregate_rejected() {
        assert_eq!(
            rejected_rule("select url, count(*) from hits group by url"),
            "unbounded-aggregate"
        );
        admitted(
            "select url, count(*) from hits <visible '1 minute' advance \
             '1 minute'> group by url",
        );
    }

    #[test]
    fn advance_exceeds_visible_rejected() {
        assert_eq!(
            rejected_rule("select count(*) from hits <visible '1 minute' advance '5 minutes'>"),
            "advance-exceeds-visible"
        );
        admitted("select count(*) from hits <visible '5 minutes' advance '1 minute'>");
    }

    #[test]
    fn advance_exceeds_visible_rows_rejected() {
        assert_eq!(
            rejected_rule("select count(*) from hits <visible 10 rows advance 20 rows>"),
            "advance-exceeds-visible"
        );
        admitted("select count(*) from hits <visible 20 rows advance 10 rows>");
    }

    // The parser refuses zero bounds outright, so the never-closing rules
    // are exercised on hand-built plans (they guard programmatic plan
    // construction and future syntax).

    #[test]
    fn zero_advance_time_window_rejected() {
        let plan = scan_with(WindowSpec::Time {
            visible: 60,
            advance: 0,
        });
        let report = check_plan(&plan, &CheckContext::default());
        assert_eq!(
            report.rejection().expect("reject").rule,
            "never-closing-window"
        );
    }

    #[test]
    fn zero_row_window_rejected() {
        let plan = scan_with(WindowSpec::Rows {
            visible: 0,
            advance: 0,
        });
        let report = check_plan(&plan, &CheckContext::default());
        assert_eq!(
            report.rejection().expect("reject").rule,
            "never-closing-window"
        );
    }

    #[test]
    fn zero_slice_window_rejected() {
        let plan = scan_with(WindowSpec::Slices { count: 0 });
        let report = check_plan(&plan, &CheckContext::default());
        assert_eq!(
            report.rejection().expect("reject").rule,
            "never-closing-window"
        );
    }

    #[test]
    fn non_monotonic_sort_warns() {
        let report =
            admitted("select url from hits <visible 100 rows advance 100 rows> order by url");
        assert!(report.findings.iter().any(|f| f.rule == "non-monotonic-op"));
        // Near-miss: sorting the aggregated result is fine.
        let report = admitted(
            "select url, count(*) c from hits <visible 100 rows advance 100 rows> \
             group by url order by c",
        );
        assert!(!report.findings.iter().any(|f| f.rule == "non-monotonic-op"));
    }

    #[test]
    fn unaligned_window_warns() {
        let report =
            admitted("select count(*) from hits <visible '5 minutes' advance '2 minutes'>");
        assert!(report.findings.iter().any(|f| f.rule == "unaligned-window"));
        let report =
            admitted("select count(*) from hits <visible '4 minutes' advance '2 minutes'>");
        assert!(!report.findings.iter().any(|f| f.rule == "unaligned-window"));
    }

    #[test]
    fn snapshot_query_admitted_clean() {
        let report = check("select * from sites");
        assert!(!report.continuous);
        assert!(report.findings.is_empty());
        assert!(report.state_bound.starts_with("none"));
    }

    #[test]
    fn state_bound_mentions_rows() {
        let report = admitted("select count(*) from hits <visible 100 rows advance 100 rows>");
        assert!(
            report.state_bound.contains("100 row(s)"),
            "{}",
            report.state_bound
        );
    }

    #[test]
    fn report_relation_shape() {
        let rel = check("select * from hits").to_relation();
        assert_eq!(rel.schema().columns().len(), 5);
        assert_eq!(rel.schema().column(4).name, "path");
        // query row + verdict row + >=1 finding + state-bound row.
        assert!(rel.len() >= 4);
        // The path column is constant across the report's rows.
        let paths: Vec<&Value> = rel.rows().iter().map(|r| &r[4]).collect();
        assert!(paths.windows(2).all(|w| w[0] == w[1]));
    }

    fn check_with(sql: &str, sharing: bool, ivm: bool) -> CheckReport {
        let stmt = parse_statement(sql).expect("parse");
        let Statement::Select(q) = stmt else {
            panic!("not a select")
        };
        let analyzed = Analyzer::new(&TestProvider).analyze(&q).expect("analyze");
        check_plan(
            &analyzed.plan,
            &CheckContext {
                sharing,
                ivm,
                ..CheckContext::default()
            },
        )
    }

    fn check_with_ivm(sql: &str) -> CheckReport {
        check_with(sql, false, true)
    }

    #[test]
    fn path_reports_ivm_for_eligible_aggregate() {
        let report = check_with_ivm(
            "select url, count(*) c from hits <visible '2 minutes' \
             advance '1 minute'> group by url",
        );
        assert_eq!(report.path, "ivm");
        assert_eq!(report.ivm_fallback, None);
        assert!(
            report.state_bound.contains("ivm:"),
            "{}",
            report.state_bound
        );
    }

    #[test]
    fn sliding_ivm_members_say_how_their_view_emits() {
        let order = |sql: &str| check_with(sql, true, true).ivm_order;
        let window = "from hits <visible '2 minutes' advance '1 minute'>";
        let keyed = "view emits in ORDER BY key order";
        let seen = "first-seen order, sorted per close";
        let by_url = format!("select url, count(*) c {window} group by url");
        assert_eq!(order(&format!("{by_url} order by url desc")), Some(keyed));
        assert_eq!(order(&format!("{by_url} order by 1, c")), Some(keyed));
        assert_eq!(order(&format!("{by_url} order by c, url")), Some(seen));
        assert_eq!(order(&by_url), Some(seen));
        // Float partials keep no view; tumbling windows and snapshots none.
        let float = format!("select url, avg(bytes * 0.5) a {window} group by url order by url");
        assert_eq!(order(&float), Some(seen));
        let tumbling = "select url, count(*) c from hits <visible '1 minute' \
                        advance '1 minute'> group by url order by url";
        assert_eq!(order(tumbling), None);
        assert_eq!(order("select * from sites"), None);
        let rel = check_with(&format!("{by_url} order by url"), true, true).to_relation();
        assert!(rel
            .rows()
            .iter()
            .any(|r| r[1] == Value::text("ivm-order") && r[2] == Value::text(keyed)));
    }

    #[test]
    fn path_reports_reeval_with_reason_for_ineligible_plans() {
        let report = check_with_ivm(
            "select url from hits <visible '1 minute' advance '1 minute'> \
             where url like '/a%'",
        );
        assert_eq!(report.path, "reeval");
        let reason = report.ivm_fallback.expect("fallback reason");
        assert!(reason.contains("anchor"), "{reason}");
        // The reason surfaces as an info row in the relation.
        let rel = report.to_relation();
        assert!(rel
            .rows()
            .iter()
            .any(|r| r[0] == Value::text("info") && r[1] == Value::text("ivm-fallback")));
    }

    #[test]
    fn path_follows_the_exactness_predicate_for_float_aggregates() {
        // A float AVG merges inexactly: sliced only where stores pool
        // (the default options), re-evaluated on a private store.
        let sql = "select avg(bytes * 0.5) mean from hits \
                   <visible '60 seconds' advance '1 second'>";
        let pooled = check_with(sql, true, true);
        assert_eq!(pooled.path, "ivm");
        assert_eq!(pooled.ivm_fallback, None);
        let private = check_with(sql, false, true);
        assert_eq!(private.path, "reeval");
        assert!(private.ivm_fallback.unwrap().contains("float sum/avg"));
    }

    #[test]
    fn path_reports_reeval_when_ivm_disabled() {
        let report = check(
            "select url, count(*) c from hits <visible '2 minutes' \
             advance '1 minute'> group by url",
        );
        assert_eq!(report.path, "reeval");
        assert!(report.ivm_fallback.unwrap().contains("disabled"));
    }

    #[test]
    fn snapshot_queries_have_no_path() {
        let report = check_with_ivm("select * from sites");
        assert_eq!(report.path, "-");
        assert_eq!(report.ivm_fallback, None);
    }

    fn check_with_budget(sql: &str, limit: u64, admitted: u64) -> CheckReport {
        let stmt = parse_statement(sql).expect("parse");
        let Statement::Select(q) = stmt else {
            panic!("not a select")
        };
        let analyzed = Analyzer::new(&TestProvider).analyze(&q).expect("analyze");
        check_plan(
            &analyzed.plan,
            &CheckContext {
                budget: Some(StateBudget {
                    limit_bytes: limit,
                    admitted_bytes: admitted,
                }),
                ..CheckContext::default()
            },
        )
    }

    #[test]
    fn state_bound_bytes_computed_for_row_windows() {
        // hits: ts(8) + url(64) + bytes(8) = 80 bytes/row x 100 rows.
        let report = admitted("select count(*) from hits <visible 100 rows advance 100 rows>");
        assert_eq!(report.state_bound_bytes, Some(8_000));
        // Time windows depend on arrival rate: no byte bound.
        let report = admitted("select count(*) from hits <visible '1 minute' advance '1 minute'>");
        assert_eq!(report.state_bound_bytes, None);
        // Snapshot queries hold nothing.
        assert_eq!(check("select * from sites").state_bound_bytes, Some(0));
    }

    #[test]
    fn budget_admits_within_and_rejects_over() {
        // 8000 bytes needed, 10000 available: admitted.
        let report = check_with_budget(
            "select count(*) from hits <visible 100 rows advance 100 rows>",
            10_000,
            0,
        );
        assert!(report.rejection().is_none(), "{:?}", report.findings);
        // Same plan, but 4000 of the 10000 already admitted: rejected.
        let report = check_with_budget(
            "select count(*) from hits <visible 100 rows advance 100 rows>",
            10_000,
            4_000,
        );
        let f = report.rejection().expect("over-budget plan must reject");
        assert_eq!(f.rule, "state-budget");
        assert!(f.message.contains("8000"), "{}", f.message);
    }

    #[test]
    fn budget_rejects_unboundable_plans() {
        let report = check_with_budget(
            "select count(*) from hits <visible '1 minute' advance '1 minute'>",
            1 << 30,
            0,
        );
        assert_eq!(
            report.rejection().expect("reject").rule,
            "state-budget",
            "arrival-rate-dependent state cannot be admitted under a budget"
        );
        // No budget configured: the same plan is admitted.
        admitted("select count(*) from hits <visible '1 minute' advance '1 minute'>");
    }

    #[test]
    fn budget_ignores_snapshot_queries() {
        let report = check_with_budget("select * from sites", 1, 0);
        assert!(report.rejection().is_none());
    }

    #[test]
    fn report_relation_carries_byte_bound() {
        let rel =
            check("select count(*) from hits <visible 100 rows advance 100 rows>").to_relation();
        let bound_row = rel
            .rows()
            .iter()
            .find(|r| r[0] == Value::text("state-bound"))
            .expect("state-bound row");
        let detail = format!("{:?}", bound_row[2]);
        assert!(detail.contains("8000 byte(s)"), "{detail}");
    }

    #[test]
    fn to_error_round_trips_rule() {
        let err = check("select * from hits").to_error().expect("rejection");
        let s = err.to_string();
        assert!(s.contains("unbounded-stream"), "{s}");
        assert!(s.contains("hint:"), "{s}");
    }
}
