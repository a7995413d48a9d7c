//! View ≡ merge, as a property.
//!
//! A slice store closes a sliding member's window from its running view
//! (add the entering slices, emit, retract the leaving ones) and keeps the
//! stateless slice merge, `IvmState::compose`, as the rebuild primitive.
//! This test drives one store per shape through random tuples — NULL
//! arguments and keys, `0.0`/`-0.0` group keys, integers past 2^53, keys
//! that vanish and reappear, gaps longer than VISIBLE closed by one heartbeat — with
//! several members of different `(VISIBLE, ADVANCE)`, one that joins the
//! live store mid-stream, one that leaves and one whose cursor jumps (a
//! resume), and requires at every close that the view's output equals
//! `compose(close - VISIBLE, close)` row for row, in order and spelled
//! alike — put in `ORDER BY` key order for a member whose view emits in it.
//! A join store's dimension table changes between closes, now and then
//! under a writer that leaves it unstamped, and both sides scale by the
//! match counts the store resolves at that close. Once the last member has
//! left, the store holds nothing but its memoised counts.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;
use proptest::test_runner::Config;
use streamrel_exec::RelationSource;
use streamrel_ivm::{lower_with, IvmShape, IvmState, KeyOrder, Lowering, WindowOutput, WindowView};
use streamrel_sql::analyzer::{Analyzer, RelKind, SchemaProvider};
use streamrel_sql::ast::Statement;
use streamrel_sql::parser::parse_statement;
use streamrel_sql::plan::SchemaRef;
use streamrel_types::{row, Column, DataType, Relation, Row, Schema, Value};

const SEC: i64 = 1_000_000;

struct Provider(HashMap<String, (SchemaRef, RelKind)>);

impl SchemaProvider for Provider {
    fn relation(&self, name: &str) -> Option<(SchemaRef, RelKind)> {
        self.0.get(&name.to_ascii_lowercase()).cloned()
    }
}

fn dims_schema() -> SchemaRef {
    Arc::new(
        Schema::new(vec![
            Column::new("k", DataType::Text),
            Column::new("w", DataType::Int),
        ])
        .unwrap(),
    )
}

fn provider() -> Provider {
    let stream = Arc::new(
        Schema::new(vec![
            Column::new("k", DataType::Text),
            Column::new("v", DataType::Int),
            Column::new("f", DataType::Float),
            Column::not_null("ts", DataType::Timestamp),
        ])
        .unwrap(),
    );
    let mut rels = HashMap::new();
    rels.insert("s".into(), (stream, RelKind::Stream { cqtime: Some(3) }));
    rels.insert("dims".into(), (dims_schema(), RelKind::Table));
    Provider(rels)
}

/// Every shape and every aggregate kind; the window in the text only has
/// to lower, members bring their own, and an `ORDER BY` that places every
/// key gives one member a view that emits in it. The last store holds
/// float sums and a variance: no exact inverse, so it merges at every close.
const QUERIES: &[&str] = &[
    "SELECT k, count(*), count(v), sum(v), avg(v), min(v), max(v), min(f), max(f), \
     count(distinct v), sum(distinct v), avg(distinct v), min(distinct v), max(distinct v) \
     FROM s <VISIBLE '4 seconds' ADVANCE '1 second'> GROUP BY k ORDER BY k DESC",
    "SELECT count(*), sum(v), avg(v), min(v), max(f), count(distinct k) \
     FROM s <VISIBLE '4 seconds' ADVANCE '1 second'> WHERE v > -5",
    "SELECT f, count(*), max(v) FROM s <VISIBLE '4 seconds' ADVANCE '1 second'> GROUP BY f",
    "SELECT DISTINCT k, f FROM s <VISIBLE '4 seconds' ADVANCE '1 second'>",
    "SELECT DISTINCT k, v FROM s <VISIBLE '4 seconds' ADVANCE '1 second'> ORDER BY v, k",
    "SELECT s.k, count(*), sum(s.v), min(s.v), max(s.v), count(distinct s.v), avg(s.v) \
     FROM s <VISIBLE '4 seconds' ADVANCE '1 second'> JOIN dims d ON s.k = d.k GROUP BY s.k \
     ORDER BY s.k",
    "SELECT count(*), sum(s.v), min(s.v) \
     FROM s <VISIBLE '4 seconds' ADVANCE '1 second'> JOIN dims d ON s.k = d.k",
    "SELECT k, sum(f), avg(f), variance(v), stddev(v), count(*) \
     FROM s <VISIBLE '4 seconds' ADVANCE '1 second'> GROUP BY k",
];

fn shape(sql: &str) -> (IvmShape, Option<KeyOrder>) {
    let Statement::Select(q) = parse_statement(sql).unwrap() else {
        panic!("not a query: {sql}")
    };
    let provider = provider();
    let analyzed = Analyzer::new(&provider).analyze(&q).unwrap();
    match lower_with(&analyzed.plan, true) {
        Lowering::Lowered(p) => (p.shape, p.order),
        Lowering::Fallback(reason) => panic!("{sql} does not lower: {reason}"),
    }
}

/// The dimension table at its `version`th change: keys come and go and
/// their match counts move. `stamped` is false while a writer is in
/// flight, and the reader then cannot name the version.
struct Dims {
    version: u64,
    stamped: bool,
}

impl RelationSource for Dims {
    fn scan_table(&self, _: &str) -> streamrel_types::Result<Relation> {
        let mut rel = Relation::empty(dims_schema());
        let v = self.version as i64;
        for (k, w) in [("k0", 1i64), ("k0", 2), ("k1", 3), ("k3", 4), ("k3", 5)] {
            // Row `w` is absent at every `w + 1`th version, and `k2`
            // matches `v % 3` rows.
            if v % (w + 1) != w {
                rel.push(row![k, w]);
            }
        }
        for w in 0..v % 3 {
            rel.push(row!["k2", w]);
        }
        Ok(rel)
    }

    fn table_stamp(&self, _: &str) -> Option<(u32, u64)> {
        self.stamped.then_some((1, self.version))
    }
}

/// What a close produced.
fn outcome(out: WindowOutput) -> Vec<Row> {
    out.into_relation().rows().to_vec()
}

/// `rows` stably sorted by `order`, whose first `joined` store-key columns
/// (a join key) the output does not carry: what the member's sort makes
/// of them.
fn ranked(mut rows: Vec<Row>, order: &KeyOrder, joined: usize) -> Vec<Row> {
    let by: Vec<usize> = order
        .columns
        .iter()
        .filter_map(|c| c.checked_sub(joined))
        .collect();
    rows.sort_by(|a, b| {
        let o = by.iter().map(|&c| a[c].sort_cmp(&b[c])).find(|o| o.is_ne());
        let o = o.unwrap_or(std::cmp::Ordering::Equal);
        if order.desc {
            o.reverse()
        } else {
            o
        }
    });
    rows
}

/// One member window: what `cq::shared::Member` keeps.
struct Member {
    visible: i64,
    advance: i64,
    next_close: Option<i64>,
    view: Option<WindowView>,
    order: Option<KeyOrder>,
}

fn member(visible_s: i64, advance_s: i64) -> Member {
    Member {
        visible: visible_s * SEC,
        advance: advance_s * SEC,
        next_close: None,
        view: None,
        order: None,
    }
}

fn align(ts: i64, advance: i64) -> i64 {
    (ts.div_euclid(advance) + 1) * advance
}

/// (kind, key, v, f, gap in half seconds).
type Event = (u8, u8, i64, u8, i64);

/// Drive `events` through one store of `sql`'s shape. With `fresh`, each
/// close's merge must also equal that of a store that folded the window's
/// tuples alone: keys spelled as the window first saw them, whatever ids
/// and spellings the long-lived store's dictionary has been through.
fn drive(sql: &str, events: &[Event], fresh: bool) -> Result<(), String> {
    let (shape, order) = shape(sql);
    let mut folded: Vec<Row> = Vec::new();
    let joined = match &shape {
        IvmShape::JoinAgg { join, .. } => join.left_key.len(),
        _ => 0,
    };
    let mut store = IvmState::for_shape(shape.clone());
    store.reslice(SEC).unwrap();
    // Sliding (narrow, wide, coarse), tumbling, and a hopping window whose
    // ADVANCE exceeds its VISIBLE; and, for an ordered query, a sliding
    // member whose view emits in its order.
    let mut members: Vec<Option<Member>> = [(4, 1), (6, 2), (3, 3), (10, 5), (2, 3), (2, 1)]
        .iter()
        .map(|(v, a)| Some(member(*v, *a)))
        .collect();
    if order.is_some() {
        members.push(Some(Member {
            order: order.clone(),
            ..member(5, 1)
        }));
    }
    let (mut ts, mut closes, mut slid) = (0i64, 0, 0);
    let mut dims = Dims {
        version: 0,
        stamped: true,
    };
    let mut memo = 0;
    for (i, (kind, key, v, f, gap)) in events.iter().enumerate() {
        // The table changes every few events, a writer in flight now and
        // then.
        if i % 4 == 3 {
            dims.version += u64::from(*v > 0);
            dims.stamped = *f != 3;
        }
        if i == events.len() / 3 {
            members.push(Some(member(8, 2)));
        }
        if i == events.len() / 2 {
            // A resume: the cursor jumps, the view in hand is stale — the
            // first member's, and the ordered one's.
            for (j, m) in members.iter_mut().enumerate() {
                if let Some(m) = m.as_mut().filter(|m| j == 0 || m.order.is_some()) {
                    m.next_close = Some(align(ts + 3 * SEC, m.advance));
                }
            }
        }
        if i == 2 * events.len() / 3 {
            store.forget(members[1].take().and_then(|m| m.view));
        }
        // One event in ten jumps past every window; one in ten is a
        // heartbeat, which moves time and folds nothing.
        ts += gap * SEC / 2 * if *kind == 0 { 25 } else { 1 };
        if *kind != 1 {
            let k = match key {
                0 => Value::Null,
                k => Value::text(format!("k{}", k % 5)),
            };
            // ±13 stands for a value whose sums no f64 carries exactly.
            let v = match v {
                v if v % 7 == 0 => Value::Null,
                13 | -13 => Value::Int(v.signum() * ((1 << 53) + 1)),
                v => Value::Int(*v),
            };
            let f = [0.0, -0.0, 2.5, f64::NAN][*f as usize % 4];
            let f = if f.is_nan() {
                Value::Null
            } else {
                Value::Float(f)
            };
            let tuple: Row = vec![k, v, f, Value::Timestamp(ts)];
            store.on_tuple(&tuple).unwrap();
            folded.push(tuple);
        }
        let mut horizon = Some(i64::MAX);
        for m in members.iter_mut().flatten() {
            if m.next_close.is_none() && *kind != 1 {
                m.next_close = Some(align(ts, m.advance));
            }
            while let Some(close) = m.next_close.filter(|c| *c <= ts) {
                let counts = store.counts_at(&dims).unwrap();
                memo = if dims.stamped { counts.bytes() } else { 0 };
                let composed = store.compose(close - m.visible, close, Some(&counts));
                let rows = outcome(composed.unwrap());
                if fresh {
                    let mut alone = IvmState::for_shape(shape.clone());
                    alone.reslice(SEC).unwrap();
                    let window = (close - m.visible)..close;
                    for t in folded
                        .iter()
                        .filter(|t| window.contains(&t[3].as_timestamp().unwrap()))
                    {
                        alone.on_tuple(t).unwrap();
                    }
                    let alone = alone.compose(close - m.visible, close, Some(&counts));
                    prop_assert_eq!(
                        format!("{:?}", outcome(alone.unwrap())),
                        format!("{:?}", rows)
                    );
                }
                let rows = match &m.order {
                    Some(order) => ranked(rows, order, joined),
                    None => rows,
                };
                let order = m.order.as_ref();
                let out = store
                    .close_window(
                        &mut m.view,
                        m.visible,
                        m.advance,
                        order,
                        close,
                        Some(&counts),
                    )
                    .unwrap();
                // Spelled out: `Value`'s `==` takes `0.0` for `-0.0`, its
                // `Debug` does not.
                prop_assert_eq!(
                    format!("{:?}", outcome(out)),
                    format!("{:?}", rows),
                    "{} close {} of {}/{}",
                    sql,
                    close,
                    m.visible,
                    m.advance
                );
                closes += 1;
                slid += usize::from(m.view.is_some());
                m.next_close = Some(close + m.advance);
            }
            horizon = horizon.zip(m.next_close).map(|(h, c)| h.min(c - m.visible));
        }
        if let Some(h) = horizon {
            store.evict(h);
        }
    }
    // Only a sliding member of an invertible store ever holds a view.
    let sliding = members
        .iter()
        .flatten()
        .all(|m| m.view.is_none() || m.visible > m.advance);
    prop_assert!(sliding);
    if sql.contains("variance") {
        prop_assert_eq!(slid, 0, "float sums are never retracted");
    } else if closes > 20 {
        prop_assert!(slid > 0, "no close went through a view");
    }
    for m in members.iter_mut().flatten() {
        store.forget(m.view.take());
    }
    store.evict(i64::MAX);
    prop_assert_eq!(store.state_bytes(), memo);
    if joined > 0 && closes > 20 {
        prop_assert!(store.table_scans() < closes, "no close read the memo");
    }
    Ok(())
}

proptest! {
    #![proptest_config(Config::with_cases(48))]
    #[test]
    fn view_equals_merge_at_every_close(
        events in prop::collection::vec((0u8..10, 0u8..7, -20i64..20, 0u8..4, 0i64..6), 30..220),
    ) {
        for sql in QUERIES {
            drive(sql, &events, false)?;
        }
    }
}

/// Key ids come and go under the views: a key's id is freed when the
/// last slice holding it is evicted and reused by the next new key. Each
/// list is driven through every query, view ≡ merge at every close.
#[test]
fn key_ids_churn_under_the_views() {
    let fold = |key: u8, f: u8, gap: i64| (2u8, key, 1i64, f, gap);
    let heartbeat = |gap: i64| (1u8, 1u8, 1i64, 0u8, gap);
    let mut lists: Vec<Vec<Event>> = Vec::new();
    // Every key leaves for longer than the widest VISIBLE, and comes back.
    let all: Vec<Event> = (1..=6).map(|k| fold(k, k % 3, 1)).collect();
    let mut away = all.clone();
    away.extend((0..10).map(|_| heartbeat(5)));
    away.extend(all.iter().chain(&all).copied());
    away.extend((0..10).map(|_| heartbeat(5)));
    away.extend(all.iter().chain(&all).copied());
    lists.push(away);
    // Keys return about when their last slice is evicted: a new key is
    // interned in the batch whose close evicts the last slice holding
    // some freed id, at every spacing from half a second to three.
    for gap in 1..=6 {
        lists.push((0..80).map(|i| fold(1 + i % 6, 2, gap)).collect());
    }
    // A float key leaves spelled `0.0` and returns as `-0.0`, and a
    // window that holds both spellings loses the first.
    let mut zeros: Vec<Event> = (0..6).map(|_| fold(1, 0, 1)).collect();
    zeros.extend((0..8).map(|_| heartbeat(5)));
    zeros.extend((0..6).map(|_| fold(1, 1, 1)));
    zeros.extend((0..12).map(|i| fold(1, i % 2, 2)));
    zeros.extend((0..8).map(|_| heartbeat(5)));
    zeros.extend((0..6).map(|i| fold(1, (i / 3) % 2, 3)));
    lists.push(zeros);
    for events in &lists {
        for sql in QUERIES {
            drive(sql, events, true).unwrap();
        }
    }
}

/// The running view's cost does not grow with the window: in steady state
/// a close adds and retracts one slice of keys, whatever VISIBLE ÷ width —
/// and a key that shows up only every `every`-th slice pays, when its
/// first slice leaves, one probe per slice up to its next one: amortized
/// one per close, however many slices the window holds. A view that emits
/// in its `ORDER BY` order probes nothing.
#[test]
fn merges_per_close_do_not_depend_on_window_width() {
    let per_close_in = |visible_s: i64, every: i64, ordered: bool| {
        let (shape, order) = shape(QUERIES[0]);
        let mut store = IvmState::for_shape(shape);
        store.reslice(SEC).unwrap();
        let mut m = member(visible_s, 1);
        m.order = order.filter(|_| ordered);
        m.next_close = Some(SEC);
        let (mut at_fill, mut closes) = (0, 0);
        for s in 0..2 * visible_s {
            for k in (0..8).filter(|k| (s + k) % every == 0) {
                let tuple: Row = vec![
                    Value::text(format!("k{k}")),
                    Value::Int(k),
                    Value::Float(1.0),
                    Value::Timestamp(s * SEC + k),
                ];
                store.on_tuple(&tuple).unwrap();
            }
            if s == visible_s {
                (at_fill, closes) = (store.merges(), 0);
            }
            if s > 0 {
                closes += 1;
                let order = m.order.as_ref();
                store
                    .close_window(&mut m.view, m.visible, m.advance, order, s * SEC, None)
                    .unwrap();
                store.evict(s * SEC + SEC - m.visible);
            }
        }
        (store.merges() - at_fill) as f64 / closes as f64
    };
    let per_close = |visible_s, every| per_close_in(visible_s, every, false);
    assert_eq!(per_close(6, 1), 24.0, "8 keys enter, 8 leave, 8 probes");
    assert_eq!(per_close(300, 1), per_close(6, 1));
    // One key a slice, back every 8th: 1 enters, 1 leaves, 8 probes.
    assert_eq!(per_close(40, 8), 10.0);
    assert_eq!(per_close(320, 8), per_close(40, 8));
    let ordered = |visible_s, every| per_close_in(visible_s, every, true);
    assert_eq!(ordered(6, 1), 16.0, "8 keys enter, 8 leave, no probe");
    assert_eq!(ordered(300, 1), ordered(6, 1));
    assert_eq!(ordered(40, 8), 2.0);
    assert_eq!(ordered(320, 8), ordered(40, 8));
}
