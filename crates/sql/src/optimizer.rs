//! Logical-plan rewrites.
//!
//! A deliberately small rule set — the ones the paper's workloads actually
//! need:
//!
//! 1. **Filter-into-join**: `Filter(Join_{inner/cross})` merges the filter
//!    into the join's ON clause so equi-conditions written in WHERE
//!    (comma-join style, as in the paper's Example 5) reach the hash /
//!    index join paths.
//! 2. **Predicate pushdown**: conjuncts referencing only one join side
//!    move below the join (left side of LEFT joins included; pushing into
//!    the null-padded right of a LEFT join would change semantics and is
//!    not done).

use crate::plan::{BinaryOp, BoundExpr, JoinKind, LogicalPlan};
use streamrel_types::DataType;

/// Apply all rewrite rules bottom-up until stable.
pub fn optimize(plan: LogicalPlan) -> LogicalPlan {
    let mut plan = rewrite(plan);
    // One extra pass: merging a filter can expose new pushdown chances.
    for _ in 0..2 {
        plan = rewrite(plan);
    }
    plan
}

fn rewrite(plan: LogicalPlan) -> LogicalPlan {
    // Recurse first (bottom-up).
    let plan = match plan {
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            input: Box::new(rewrite(*input)),
            predicate,
        },
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => LogicalPlan::Project {
            input: Box::new(rewrite(*input)),
            exprs,
            schema,
        },
        LogicalPlan::Aggregate {
            input,
            group_exprs,
            aggs,
            schema,
        } => LogicalPlan::Aggregate {
            input: Box::new(rewrite(*input)),
            group_exprs,
            aggs,
            schema,
        },
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
            schema,
        } => LogicalPlan::Join {
            left: Box::new(rewrite(*left)),
            right: Box::new(rewrite(*right)),
            kind,
            on,
            schema,
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(rewrite(*input)),
            keys,
        },
        LogicalPlan::Limit { input, n } => LogicalPlan::Limit {
            input: Box::new(rewrite(*input)),
            n,
        },
        LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
            input: Box::new(rewrite(*input)),
        },
        leaf => leaf,
    };

    // Rule 1: Filter over an inner/cross join → merge into ON.
    let plan = match plan {
        LogicalPlan::Filter { input, predicate } => match *input {
            LogicalPlan::Join {
                left,
                right,
                kind: kind @ (JoinKind::Inner | JoinKind::Cross),
                on,
                schema,
            } => {
                let merged = match on {
                    Some(existing) => and(existing, predicate),
                    None => predicate,
                };
                let _ = kind;
                LogicalPlan::Join {
                    left,
                    right,
                    kind: JoinKind::Inner,
                    on: Some(merged),
                    schema,
                }
            }
            other => LogicalPlan::Filter {
                input: Box::new(other),
                predicate,
            },
        },
        other => other,
    };

    // Rule 2: push single-side ON conjuncts below the join.
    match plan {
        LogicalPlan::Join {
            left,
            right,
            kind,
            on: Some(on),
            schema,
        } => {
            let left_width = left.schema().len();
            let mut conjuncts = Vec::new();
            flatten_and(&on, &mut conjuncts);
            let mut keep = Vec::new();
            let mut push_left = Vec::new();
            let mut push_right = Vec::new();
            for c in conjuncts {
                let mut cols = Vec::new();
                c.referenced_columns(&mut cols);
                let all_left = !cols.is_empty() && cols.iter().all(|&i| i < left_width);
                let all_right = !cols.is_empty() && cols.iter().all(|&i| i >= left_width);
                if all_left && kind != JoinKind::Left {
                    // (For LEFT joins, an ON condition on the left side is
                    // match-qualification, not a filter; keep it in ON.)
                    push_left.push(c);
                } else if all_left && kind == JoinKind::Left {
                    keep.push(c);
                } else if all_right && kind != JoinKind::Left {
                    push_right.push(c);
                } else {
                    keep.push(c);
                }
            }
            let left = wrap_filter(*left, push_left, 0);
            let right = wrap_filter(*right, push_right, left_width);
            let on = keep.into_iter().reduce(and);
            LogicalPlan::Join {
                left: Box::new(left),
                right: Box::new(right),
                kind,
                on,
                schema,
            }
        }
        other => other,
    }
}

fn and(a: BoundExpr, b: BoundExpr) -> BoundExpr {
    BoundExpr::Binary {
        op: BinaryOp::And,
        left: Box::new(a),
        right: Box::new(b),
        ty: DataType::Bool,
    }
}

fn flatten_and(e: &BoundExpr, out: &mut Vec<BoundExpr>) {
    if let BoundExpr::Binary {
        op: BinaryOp::And,
        left,
        right,
        ..
    } = e
    {
        flatten_and(left, out);
        flatten_and(right, out);
    } else {
        out.push(e.clone());
    }
}

fn wrap_filter(plan: LogicalPlan, mut preds: Vec<BoundExpr>, shift: usize) -> LogicalPlan {
    if shift > 0 {
        for p in &mut preds {
            p.map_columns(&|i| i - shift);
        }
    }
    let Some(predicate) = preds.into_iter().reduce(and) else {
        return plan;
    };
    LogicalPlan::Filter {
        input: Box::new(plan),
        predicate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SortKey;
    use std::sync::Arc;
    use streamrel_types::{Column, Schema, Value};

    fn scan(name: &str, cols: &[&str]) -> LogicalPlan {
        LogicalPlan::TableScan {
            table: name.into(),
            schema: Arc::new(Schema::new_unchecked(
                cols.iter()
                    .map(|c| Column::new(*c, DataType::Int))
                    .collect(),
            )),
        }
    }

    fn col(i: usize) -> BoundExpr {
        BoundExpr::Column {
            index: i,
            ty: DataType::Int,
        }
    }

    fn eq(l: BoundExpr, r: BoundExpr) -> BoundExpr {
        BoundExpr::Binary {
            op: BinaryOp::Eq,
            left: Box::new(l),
            right: Box::new(r),
            ty: DataType::Bool,
        }
    }

    fn cross(l: LogicalPlan, r: LogicalPlan) -> LogicalPlan {
        let schema = Arc::new(l.schema().join(&r.schema()));
        LogicalPlan::Join {
            left: Box::new(l),
            right: Box::new(r),
            kind: JoinKind::Cross,
            on: None,
            schema,
        }
    }

    #[test]
    fn where_equi_predicate_becomes_join_on() {
        // Filter(a.x = b.y over CrossJoin) → InnerJoin with ON.
        let plan = LogicalPlan::Filter {
            input: Box::new(cross(scan("a", &["x"]), scan("b", &["y"]))),
            predicate: eq(col(0), col(1)),
        };
        let opt = optimize(plan);
        match opt {
            LogicalPlan::Join { kind, on, .. } => {
                assert_eq!(kind, JoinKind::Inner);
                assert!(on.is_some());
            }
            other => panic!("expected join, got {}", other.node_name()),
        }
    }

    #[test]
    fn single_side_conjuncts_push_below() {
        // WHERE a.x = b.y AND a.x = 5 AND b.y = 7
        let pred = and(
            and(
                eq(col(0), col(1)),
                eq(col(0), BoundExpr::Literal(Value::Int(5))),
            ),
            eq(col(1), BoundExpr::Literal(Value::Int(7))),
        );
        let plan = LogicalPlan::Filter {
            input: Box::new(cross(scan("a", &["x"]), scan("b", &["y"]))),
            predicate: pred,
        };
        let opt = optimize(plan);
        let LogicalPlan::Join {
            left, right, on, ..
        } = opt
        else {
            panic!()
        };
        assert!(matches!(*left, LogicalPlan::Filter { .. }), "left pushed");
        assert!(matches!(*right, LogicalPlan::Filter { .. }), "right pushed");
        // Right-side filter's column index was rebased to 0.
        if let LogicalPlan::Filter { predicate, .. } = *right {
            let mut cols = Vec::new();
            predicate.referenced_columns(&mut cols);
            assert_eq!(cols, vec![0]);
        }
        // The equi-condition stays in ON.
        let mut conjuncts = Vec::new();
        flatten_and(&on.unwrap(), &mut conjuncts);
        assert_eq!(conjuncts.len(), 1);
    }

    #[test]
    fn left_join_where_not_merged() {
        let l = scan("a", &["x"]);
        let r = scan("b", &["y"]);
        let schema = Arc::new(l.schema().join(&r.schema()));
        let plan = LogicalPlan::Filter {
            input: Box::new(LogicalPlan::Join {
                left: Box::new(l),
                right: Box::new(r),
                kind: JoinKind::Left,
                on: Some(eq(col(0), col(1))),
                schema,
            }),
            predicate: eq(col(0), BoundExpr::Literal(Value::Int(5))),
        };
        let opt = optimize(plan);
        assert!(
            matches!(opt, LogicalPlan::Filter { .. }),
            "WHERE above a LEFT join must stay above it"
        );
    }

    #[test]
    fn non_join_plans_unchanged() {
        let plan = LogicalPlan::Sort {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(scan("a", &["x"])),
                predicate: eq(col(0), BoundExpr::Literal(Value::Int(1))),
            }),
            keys: vec![SortKey {
                expr: col(0),
                asc: true,
            }],
        };
        let opt = optimize(plan.clone());
        assert_eq!(opt, plan);
    }
}
