//! Property-based tests: the accumulator merge law (the invariant the
//! entire shared-slice design rests on), executor algebraic identities and
//! the window kernels' shortcuts (in-place sort, renaming projection, owned
//! window input) against the general path.

use std::cell::Cell;
use std::ops::Bound;
use std::sync::Arc;

use proptest::prelude::*;
use streamrel_exec::executor::sort_relation;
use streamrel_exec::expr::{eval, EvalContext};
use streamrel_exec::{execute, Accumulator, ExecContext, RelationSource};
use streamrel_sql::plan::{AggFunc, BinaryOp, BoundExpr, LogicalPlan, SortKey};
use streamrel_types::{Column, DataType, Relation, Result, Row, Schema, Value};

/// A table with the contract of an ordered single-column index on column
/// 0: `index_range` returns, in scan order, the rows whose key lies within
/// the bounds in `sort_cmp` order — NULL keys (which sort last) included
/// when the upper bound is open, exactly like the B-tree.
struct IndexedTable {
    rel: Relation,
    indexed: bool,
    ranges: Cell<u32>,
}

impl RelationSource for IndexedTable {
    fn scan_table(&self, _: &str) -> Result<Relation> {
        Ok(self.rel.clone())
    }

    fn index_range(
        &self,
        _: &str,
        column: &str,
        lo: Bound<&Value>,
        hi: Bound<&Value>,
    ) -> Result<Option<Vec<Row>>> {
        if !self.indexed || column != "k" {
            return Ok(None);
        }
        self.ranges.set(self.ranges.get() + 1);
        let above = |v: &Value| match lo {
            Bound::Included(b) => v.sort_cmp(b).is_ge(),
            Bound::Excluded(b) => v.sort_cmp(b).is_gt(),
            Bound::Unbounded => true,
        };
        let below = |v: &Value| match hi {
            Bound::Included(b) => v.sort_cmp(b).is_le(),
            Bound::Excluded(b) => v.sort_cmp(b).is_lt(),
            Bound::Unbounded => true,
        };
        let rows = self.rel.rows().iter();
        Ok(Some(
            rows.filter(|r| above(&r[0]) && below(&r[0]))
                .cloned()
                .collect(),
        ))
    }
}

fn arb_num() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-6i64..6).prop_map(Value::Int),
        (-6i64..6).prop_map(|i| Value::Float(i as f64 + 0.5)),
        (-6i64..6).prop_map(|i| Value::Float(i as f64)),
    ]
}

/// `column op literal` (or flipped), over column 0 or 1.
fn arb_conjunct() -> impl Strategy<Value = BoundExpr> {
    use BinaryOp::*;
    const OPS: [BinaryOp; 6] = [Lt, Le, Gt, Ge, Eq, Neq];
    (0usize..6, 0usize..2, arb_num(), any::<bool>()).prop_map(|(op, index, v, flip)| {
        let op = OPS[op];
        let ty = DataType::Float;
        let col = Box::new(BoundExpr::Column { index, ty });
        let lit = Box::new(BoundExpr::Literal(v));
        let (left, right) = if flip { (lit, col) } else { (col, lit) };
        let ty = DataType::Bool;
        BoundExpr::Binary {
            op,
            left,
            right,
            ty,
        }
    })
}

/// A sort key value: NULL, Int and Float in one numeric class, both zeros
/// and both NaNs.
fn arb_key() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-3i64..3).prop_map(Value::Int),
        (-6i64..6).prop_map(|i| Value::Float(i as f64 / 2.0)),
        Just(Value::Float(-0.0)),
        Just(Value::Float(f64::NAN)),
        Just(Value::Float(-f64::NAN)),
    ]
}

/// Rows of two key columns plus each row's input position (`tag`).
fn tagged(rows: Vec<(Value, Value)>) -> Relation {
    let schema = Arc::new(
        Schema::new(vec![
            Column::new("a", DataType::Float),
            Column::new("b", DataType::Float),
            Column::new("tag", DataType::Int),
        ])
        .unwrap(),
    );
    let rows = rows.into_iter().enumerate();
    let rows = rows.map(|(i, (a, b))| vec![a, b, Value::Int(i as i64)]);
    Relation::new(schema, rows.collect())
}

fn column(index: usize) -> BoundExpr {
    BoundExpr::Column {
        index,
        ty: DataType::Float,
    }
}

fn tags(rel: &Relation) -> Vec<Value> {
    rel.rows().iter().map(|r| r[2].clone()).collect()
}

fn arb_vals() -> impl Strategy<Value = Vec<Option<i64>>> {
    prop::collection::vec(prop::option::of(-1000i64..1000), 0..60)
}

fn feed(acc: &mut Accumulator, vals: &[Option<i64>]) {
    for v in vals {
        match v {
            Some(x) => acc.update(Some(&Value::Int(*x))).unwrap(),
            None => acc.update(Some(&Value::Null)).unwrap(),
        }
    }
}

proptest! {
    /// A filter answered through an index range returns exactly what the
    /// scan + filter returns, row order included: NULL keys, cross-type
    /// numeric bounds, crossed bounds and flipped operands alike.
    #[test]
    fn index_range_equals_scan_and_filter(
        keys in prop::collection::vec((arb_num(), arb_num()), 0..40),
        conjuncts in prop::collection::vec(arb_conjunct(), 1..4),
    ) {
        let schema = Arc::new(Schema::new(vec![
            Column::new("k", DataType::Float),
            Column::new("v", DataType::Float),
        ]).unwrap());
        let rows = keys.into_iter().map(|(k, v)| vec![k, v]).collect();
        let rel = Relation::new(schema.clone(), rows);
        let predicate = conjuncts
            .into_iter()
            .reduce(|l, r| BoundExpr::Binary {
                op: BinaryOp::And,
                left: Box::new(l),
                right: Box::new(r),
                ty: DataType::Bool,
            })
            .unwrap();
        let bounds_k = {
            let mut found = false;
            let mut stack = vec![&predicate];
            while let Some(BoundExpr::Binary { op, left, right, .. }) = stack.pop() {
                if *op == BinaryOp::And {
                    stack.extend([left.as_ref(), right.as_ref()]);
                } else if *op != BinaryOp::Neq {
                    found |= [left, right].iter().any(|e| {
                        matches!(e.as_ref(), BoundExpr::Column { index: 0, .. })
                    });
                }
            }
            found
        };
        let plan = LogicalPlan::Filter {
            input: Box::new(LogicalPlan::TableScan { table: "t".into(), schema }),
            predicate,
        };
        let run = |indexed: bool| {
            let src = IndexedTable { rel: rel.clone(), indexed, ranges: Cell::new(0) };
            let out = execute(&plan, &ExecContext::snapshot(&src)).unwrap();
            (out.into_rows(), src.ranges.get())
        };
        let (scanned, _) = run(false);
        let (ranged, ranges) = run(true);
        prop_assert_eq!(ranged, scanned);
        prop_assert_eq!(ranges, u32::from(bounds_k), "the index is asked iff `k` is bounded");
    }

    /// Merge law: for every aggregate and every split of the input,
    /// merging partials equals aggregating the whole. This is exactly why
    /// slice-composed windows (shared mode) match raw re-aggregation.
    #[test]
    fn accumulator_merge_law(
        vals in arb_vals(),
        split in 0usize..60,
        distinct in any::<bool>(),
    ) {
        let split = split.min(vals.len());
        for func in [AggFunc::Count, AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max] {
            let mut whole = Accumulator::for_func(func, distinct, false);
            feed(&mut whole, &vals);
            let mut left = Accumulator::for_func(func, distinct, false);
            let mut right = Accumulator::for_func(func, distinct, false);
            feed(&mut left, &vals[..split]);
            feed(&mut right, &vals[split..]);
            left.merge(&right).unwrap();
            prop_assert_eq!(
                left.finish(), whole.finish(),
                "{:?} distinct={} split={} vals={:?}", func, distinct, split, vals
            );
        }
    }

    /// Merge is associative: ((a+b)+c) == (a+(b+c)).
    #[test]
    fn accumulator_merge_associative(
        a in arb_vals(), b in arb_vals(), c in arb_vals()
    ) {
        for func in [AggFunc::Count, AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max] {
            let mk = |vals: &[Option<i64>]| {
                let mut acc = Accumulator::for_func(func, false, false);
                feed(&mut acc, vals);
                acc
            };
            let mut left_assoc = mk(&a);
            left_assoc.merge(&mk(&b)).unwrap();
            left_assoc.merge(&mk(&c)).unwrap();
            let mut bc = mk(&b);
            bc.merge(&mk(&c)).unwrap();
            let mut right_assoc = mk(&a);
            right_assoc.merge(&bc).unwrap();
            prop_assert_eq!(left_assoc.finish(), right_assoc.finish(), "{:?}", func);
        }
    }

    /// Comparison operators are coherent: exactly one of <, =, > holds for
    /// non-null ints, and `a < b` iff `b > a`.
    #[test]
    fn comparison_coherence(a in any::<i64>(), b in any::<i64>()) {
        let ctx = EvalContext::default();
        let bin = |op, l: i64, r: i64| {
            let e = BoundExpr::Binary {
                op,
                left: Box::new(BoundExpr::Literal(Value::Int(l))),
                right: Box::new(BoundExpr::Literal(Value::Int(r))),
                ty: streamrel_types::DataType::Bool,
            };
            eval(&e, &[], &ctx).unwrap() == Value::Bool(true)
        };
        let lt = bin(BinaryOp::Lt, a, b);
        let eq = bin(BinaryOp::Eq, a, b);
        let gt = bin(BinaryOp::Gt, a, b);
        prop_assert_eq!(lt as u8 + eq as u8 + gt as u8, 1);
        prop_assert_eq!(lt, bin(BinaryOp::Gt, b, a));
        prop_assert_eq!(bin(BinaryOp::Le, a, b), lt || eq);
    }

    /// LIKE with only `%`/`_`-free patterns is string equality.
    #[test]
    fn like_without_wildcards_is_equality(
        s in "[a-z]{0,12}",
        p in "[a-z]{0,12}",
    ) {
        prop_assert_eq!(streamrel_exec::expr::like_match(&s, &p), s == p);
    }

    /// `x LIKE x` always holds for wildcard-free strings, and `%` matches
    /// every string.
    #[test]
    fn like_reflexive_and_percent(s in "[a-z0-9 ]{0,16}") {
        prop_assert!(streamrel_exec::expr::like_match(&s, &s));
        prop_assert!(streamrel_exec::expr::like_match(&s, "%"));
    }

    /// A sort on plain columns, done in place, orders rows exactly as the
    /// key-vector sort of the same keys behind an expression does; and the
    /// order is the comparator's: sorted, NULLs last ascending, ties in
    /// input order.
    #[test]
    fn in_place_column_sort_equals_key_vector_sort(
        rows in prop::collection::vec((arb_key(), arb_key()), 0..40),
        keys in prop::collection::vec((0usize..2, any::<bool>()), 1..4),
    ) {
        let plain: Vec<SortKey> = keys
            .iter()
            .map(|&(c, asc)| SortKey { expr: column(c), asc })
            .collect();
        // `CASE WHEN true THEN c END` is `c`, but not a plain column.
        let wrapped: Vec<SortKey> = keys
            .iter()
            .map(|&(c, asc)| SortKey {
                expr: BoundExpr::Case {
                    operand: None,
                    whens: vec![(BoundExpr::Literal(Value::Bool(true)), column(c))],
                    else_expr: None,
                    ty: DataType::Float,
                },
                asc,
            })
            .collect();
        let ctx = EvalContext::default();
        let mut in_place = tagged(rows);
        let mut keyed = in_place.clone();
        sort_relation(&mut in_place, &plain, &ctx).unwrap();
        sort_relation(&mut keyed, &wrapped, &ctx).unwrap();
        prop_assert_eq!(tags(&in_place), tags(&keyed));
        for pair in in_place.rows().windows(2) {
            let ord = keys
                .iter()
                .map(|&(c, asc)| {
                    let ord = pair[0][c].sort_cmp(&pair[1][c]);
                    if asc { ord } else { ord.reverse() }
                })
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal);
            prop_assert!(ord.is_le(), "out of order: {:?}", pair);
            if ord.is_eq() {
                prop_assert!(pair[0][2].sort_cmp(&pair[1][2]).is_lt(), "unstable: {:?}", pair);
            }
            let (first, asc) = keys[0];
            if asc && pair[0][first].is_null() {
                prop_assert!(pair[1][first].is_null(), "NULL before a value: {:?}", pair);
            }
        }
    }

    /// A projection of the input columns in order renames them and keeps
    /// every row; any other column list still evaluates.
    #[test]
    fn identity_projection_renames_and_keeps_rows(
        rows in prop::collection::vec((arb_key(), arb_key()), 0..20),
        swap in any::<bool>(),
    ) {
        let rel = tagged(rows);
        let order = if swap { [1, 0, 2] } else { [0, 1, 2] };
        let renamed = Arc::new(Schema::new_unchecked(
            ["x", "y", "z"].iter().map(|n| Column::new(*n, DataType::Float)).collect(),
        ));
        let plan = LogicalPlan::Project {
            input: Box::new(LogicalPlan::TableScan { table: "t".into(), schema: rel.schema().clone() }),
            exprs: order.iter().map(|&i| column(i)).collect(),
            schema: renamed.clone(),
        };
        let src = IndexedTable { rel: rel.clone(), indexed: false, ranges: Cell::new(0) };
        let out = execute(&plan, &ExecContext::snapshot(&src)).unwrap();
        prop_assert_eq!(out.schema(), &renamed);
        let want: Vec<String> = rel
            .rows()
            .iter()
            .map(|r| format!("{:?}", order.iter().map(|&i| &r[i]).collect::<Vec<_>>()))
            .collect();
        let got: Vec<String> = out.rows().iter().map(|r| format!("{:?}", r.iter().collect::<Vec<_>>())).collect();
        prop_assert_eq!(got, want);
    }

    /// A window plan given its relation (the scan takes it) returns what
    /// the same plan lent the relation (the scan copies it) returns.
    #[test]
    fn owned_window_input_equals_lent(
        rows in prop::collection::vec((arb_key(), arb_key()), 0..30),
        bound in arb_key(),
        asc in any::<bool>(),
    ) {
        let rel = tagged(rows);
        let scan = LogicalPlan::StreamScan {
            stream: "s".into(),
            schema: rel.schema().clone(),
            window: streamrel_sql::WindowSpec::Time { visible: 1, advance: 1 },
            cqtime: None,
            derived: false,
        };
        let filter = LogicalPlan::Filter {
            input: Box::new(scan),
            predicate: BoundExpr::Binary {
                op: BinaryOp::Le,
                left: Box::new(column(0)),
                right: Box::new(BoundExpr::Literal(bound)),
                ty: DataType::Bool,
            },
        };
        let plan = LogicalPlan::Sort {
            input: Box::new(LogicalPlan::Project {
                input: Box::new(filter),
                exprs: vec![column(1), column(0), column(2)],
                schema: rel.schema().clone(),
            }),
            keys: vec![SortKey { expr: column(0), asc }],
        };
        let src = IndexedTable { rel: rel.clone(), indexed: false, ranges: Cell::new(0) };
        let lent = execute(&plan, &ExecContext::window(&src, "s", &rel, 7)).unwrap();
        let given = execute(&plan, &ExecContext::window_owned(&src, "s", rel.clone(), 7)).unwrap();
        prop_assert_eq!(tags(&lent), tags(&given));
        prop_assert_eq!(lent.schema(), given.schema());
    }
}
