//! Join execution: hash join on extracted equi-keys, nested-loop fallback.

use std::collections::HashMap;

use streamrel_types::{Relation, Result, Value};

use streamrel_sql::plan::{BinaryOp, BoundExpr, JoinKind, SchemaRef};

use crate::expr::{eval, eval_predicate, EvalContext};

/// Equi-join keys extracted from an ON / WHERE conjunction: expressions
/// over the left row paired with expressions over the right row, plus any
/// residual predicate evaluated over the concatenated row.
pub struct JoinKeys {
    /// Key expressions evaluated against left rows.
    pub left: Vec<BoundExpr>,
    /// Key expressions evaluated against right rows (indexes already
    /// relative to the right row).
    pub right: Vec<BoundExpr>,
    /// Remaining non-equi conjuncts (over the concatenated row).
    pub residual: Vec<BoundExpr>,
}

/// Split `on` into hash-joinable equi-conditions and a residual, given the
/// width of the left input. Returns `None` if no equi-condition exists
/// (nested loop required).
pub fn extract_keys(on: &BoundExpr, left_width: usize) -> Option<JoinKeys> {
    let mut conjuncts = Vec::new();
    flatten_and(on, &mut conjuncts);
    let mut keys = JoinKeys {
        left: Vec::new(),
        right: Vec::new(),
        residual: Vec::new(),
    };
    for c in conjuncts {
        if let BoundExpr::Binary {
            op: BinaryOp::Eq,
            left,
            right,
            ..
        } = &c
        {
            match (side_of(left, left_width), side_of(right, left_width)) {
                (Side::Left, Side::Right) => {
                    keys.left.push((**left).clone());
                    let mut r = (**right).clone();
                    r.map_columns(&|i| i - left_width);
                    keys.right.push(r);
                    continue;
                }
                (Side::Right, Side::Left) => {
                    keys.left.push((**right).clone());
                    let mut r = (**left).clone();
                    r.map_columns(&|i| i - left_width);
                    keys.right.push(r);
                    continue;
                }
                _ => {}
            }
        }
        keys.residual.push(c);
    }
    if keys.left.is_empty() {
        None
    } else {
        Some(keys)
    }
}

/// Flatten a conjunction tree into its conjuncts (a non-AND expression
/// yields itself). Shared with the IVM lowering pass, which classifies
/// WHERE conjuncts by join side the same way the hash join does.
pub fn flatten_and(e: &BoundExpr, out: &mut Vec<BoundExpr>) {
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

#[derive(PartialEq, Clone, Copy)]
enum Side {
    Left,
    Right,
    Both,
    Neither,
}

fn side_of(e: &BoundExpr, left_width: usize) -> Side {
    let mut cols = Vec::new();
    e.referenced_columns(&mut cols);
    if cols.is_empty() {
        return Side::Neither;
    }
    let all_left = cols.iter().all(|&c| c < left_width);
    let all_right = cols.iter().all(|&c| c >= left_width);
    match (all_left, all_right) {
        (true, _) => Side::Left,
        (_, true) => Side::Right,
        _ => Side::Both,
    }
}

/// Execute a join between two materialized relations.
pub fn join(
    left: &Relation,
    right: &Relation,
    kind: JoinKind,
    on: Option<&BoundExpr>,
    out_schema: SchemaRef,
    ctx: &EvalContext,
) -> Result<Relation> {
    let left_width = left.schema().len();
    let right_width = right.schema().len();
    let keys = on.and_then(|e| extract_keys(e, left_width));
    let mut out = Relation::empty(out_schema);
    match keys {
        Some(k) => {
            // Hash join: build on right, probe from left.
            let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
            for (i, r) in right.rows().iter().enumerate() {
                let key: Vec<Value> = k
                    .right
                    .iter()
                    .map(|e| eval(e, r, ctx))
                    .collect::<Result<_>>()?;
                // NULL keys never join.
                if key.iter().any(Value::is_null) {
                    continue;
                }
                table.entry(key).or_default().push(i);
            }
            for l in left.rows() {
                let key: Vec<Value> = k
                    .left
                    .iter()
                    .map(|e| eval(e, l, ctx))
                    .collect::<Result<_>>()?;
                let mut matched = false;
                if !key.iter().any(Value::is_null) {
                    if let Some(candidates) = table.get(&key) {
                        for &ri in candidates {
                            let combined = streamrel_types::row::concat(l, &right.rows()[ri]);
                            let ok = k
                                .residual
                                .iter()
                                .map(|p| eval_predicate(p, &combined, ctx))
                                .collect::<Result<Vec<bool>>>()?
                                .into_iter()
                                .all(|b| b);
                            if ok {
                                matched = true;
                                out.push(combined);
                            }
                        }
                    }
                }
                if !matched && kind == JoinKind::Left {
                    let mut combined = l.clone();
                    combined.extend(std::iter::repeat_n(Value::Null, right_width));
                    out.push(combined);
                }
            }
        }
        None => {
            // Nested loop.
            for l in left.rows() {
                let mut matched = false;
                for r in right.rows() {
                    let combined = streamrel_types::row::concat(l, r);
                    let ok = match on {
                        Some(p) => eval_predicate(p, &combined, ctx)?,
                        None => true,
                    };
                    if ok {
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
        }
    }
    let _ = right_width;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use streamrel_types::{row, Column, DataType, Row, Schema};

    fn rel(cols: &[(&str, DataType)], rows: Vec<Row>) -> Relation {
        let schema = Arc::new(Schema::new_unchecked(
            cols.iter().map(|(n, t)| Column::new(*n, *t)).collect(),
        ));
        Relation::new(schema, rows)
    }

    fn eq_on(li: usize, ri: usize, lty: DataType) -> BoundExpr {
        BoundExpr::Binary {
            op: BinaryOp::Eq,
            left: Box::new(BoundExpr::Column { index: li, ty: lty }),
            right: Box::new(BoundExpr::Column { index: ri, ty: lty }),
            ty: DataType::Bool,
        }
    }

    fn out_schema(l: &Relation, r: &Relation) -> SchemaRef {
        Arc::new(l.schema().join(r.schema()))
    }

    #[test]
    fn inner_hash_join() {
        let l = rel(
            &[("k", DataType::Int), ("a", DataType::Text)],
            vec![row![1i64, "x"], row![2i64, "y"], row![3i64, "z"]],
        );
        let r = rel(
            &[("k", DataType::Int), ("b", DataType::Text)],
            vec![row![2i64, "B"], row![3i64, "C"], row![3i64, "C2"]],
        );
        let on = eq_on(0, 2, DataType::Int);
        let out = join(
            &l,
            &r,
            JoinKind::Inner,
            Some(&on),
            out_schema(&l, &r),
            &EvalContext::default(),
        )
        .unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out.rows()[0], row![2i64, "y", 2i64, "B"]);
    }

    #[test]
    fn left_join_pads_nulls() {
        let l = rel(&[("k", DataType::Int)], vec![row![1i64], row![2i64]]);
        let r = rel(&[("k", DataType::Int)], vec![row![2i64]]);
        let on = eq_on(0, 1, DataType::Int);
        let out = join(
            &l,
            &r,
            JoinKind::Left,
            Some(&on),
            out_schema(&l, &r),
            &EvalContext::default(),
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.rows()[0], vec![Value::Int(1), Value::Null]);
    }

    #[test]
    fn null_keys_never_match() {
        let l = rel(&[("k", DataType::Int)], vec![vec![Value::Null]]);
        let r = rel(&[("k", DataType::Int)], vec![vec![Value::Null]]);
        let on = eq_on(0, 1, DataType::Int);
        let out = join(
            &l,
            &r,
            JoinKind::Inner,
            Some(&on),
            out_schema(&l, &r),
            &EvalContext::default(),
        )
        .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn expression_keys_join() {
        // Join on l.ts - interval = r.ts (Example 5's shape).
        let week = streamrel_types::time::WEEKS;
        let l = rel(
            &[("ts", DataType::Timestamp)],
            vec![row![Value::Timestamp(10 * week)]],
        );
        let r = rel(
            &[("ts", DataType::Timestamp)],
            vec![
                row![Value::Timestamp(9 * week)],
                row![Value::Timestamp(8 * week)],
            ],
        );
        let on = BoundExpr::Binary {
            op: BinaryOp::Eq,
            left: Box::new(BoundExpr::Binary {
                op: BinaryOp::Sub,
                left: Box::new(BoundExpr::Column {
                    index: 0,
                    ty: DataType::Timestamp,
                }),
                right: Box::new(BoundExpr::Literal(Value::Interval(week))),
                ty: DataType::Timestamp,
            }),
            right: Box::new(BoundExpr::Column {
                index: 1,
                ty: DataType::Timestamp,
            }),
            ty: DataType::Bool,
        };
        let out = join(
            &l,
            &r,
            JoinKind::Inner,
            Some(&on),
            out_schema(&l, &r),
            &EvalContext::default(),
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(
            out.rows()[0],
            vec![Value::Timestamp(10 * week), Value::Timestamp(9 * week)]
        );
    }

    #[test]
    fn non_equi_falls_back_to_nested_loop() {
        let l = rel(&[("a", DataType::Int)], vec![row![1i64], row![5i64]]);
        let r = rel(&[("b", DataType::Int)], vec![row![3i64]]);
        let on = BoundExpr::Binary {
            op: BinaryOp::Gt,
            left: Box::new(BoundExpr::Column {
                index: 0,
                ty: DataType::Int,
            }),
            right: Box::new(BoundExpr::Column {
                index: 1,
                ty: DataType::Int,
            }),
            ty: DataType::Bool,
        };
        assert!(extract_keys(&on, 1).is_none());
        let out = join(
            &l,
            &r,
            JoinKind::Inner,
            Some(&on),
            out_schema(&l, &r),
            &EvalContext::default(),
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0], row![5i64, 3i64]);
    }

    #[test]
    fn residual_predicates_filter_hash_matches() {
        let l = rel(
            &[("k", DataType::Int), ("v", DataType::Int)],
            vec![row![1i64, 10i64], row![1i64, 1i64]],
        );
        let r = rel(
            &[("k", DataType::Int), ("w", DataType::Int)],
            vec![row![1i64, 5i64]],
        );
        // ON l.k = r.k AND l.v > r.w
        let on = BoundExpr::Binary {
            op: BinaryOp::And,
            left: Box::new(eq_on(0, 2, DataType::Int)),
            right: Box::new(BoundExpr::Binary {
                op: BinaryOp::Gt,
                left: Box::new(BoundExpr::Column {
                    index: 1,
                    ty: DataType::Int,
                }),
                right: Box::new(BoundExpr::Column {
                    index: 3,
                    ty: DataType::Int,
                }),
                ty: DataType::Bool,
            }),
            ty: DataType::Bool,
        };
        let keys = extract_keys(&on, 2).unwrap();
        assert_eq!(keys.left.len(), 1);
        assert_eq!(keys.residual.len(), 1);
        let out = join(
            &l,
            &r,
            JoinKind::Inner,
            Some(&on),
            out_schema(&l, &r),
            &EvalContext::default(),
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0], row![1i64, 10i64, 1i64, 5i64]);
    }

    #[test]
    fn cross_join_without_on() {
        let l = rel(&[("a", DataType::Int)], vec![row![1i64], row![2i64]]);
        let r = rel(&[("b", DataType::Int)], vec![row![3i64], row![4i64]]);
        let out = join(
            &l,
            &r,
            JoinKind::Cross,
            None,
            out_schema(&l, &r),
            &EvalContext::default(),
        )
        .unwrap();
        assert_eq!(out.len(), 4);
    }
}
