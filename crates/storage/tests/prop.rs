//! Property-based tests: codec round-trips, WAL record round-trips, and
//! MVCC visibility invariants under random operation sequences.

use std::ops::Bound;

use proptest::prelude::*;
use streamrel_storage::codec::{decode_row, encode_row, Reader};
use streamrel_storage::index::IndexKey;
use streamrel_storage::wal::WalRecord;
use streamrel_storage::{Snapshot, StorageEngine};
use streamrel_types::{Column, DataType, Row, Schema, Value};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        ".{0,16}".prop_map(Value::text),
        any::<i64>().prop_map(Value::Timestamp),
        any::<i64>().prop_map(Value::Interval),
    ]
}

fn arb_row() -> impl Strategy<Value = Row> {
    prop::collection::vec(arb_value(), 0..8)
}

/// One step of the heap model test. Values come from a small domain so
/// index keys collide; `commit == false` aborts the transaction.
#[derive(Debug, Clone)]
enum Op {
    InsertMany { vals: Vec<i64>, commit: bool },
    ReplaceAll { vals: Vec<i64>, commit: bool },
    DeleteOne { pick: usize, commit: bool },
    Pin,
    Unpin(usize),
    Reclaim,
    Vacuum,
    Reopen,
}

fn arb_op() -> impl Strategy<Value = Op> {
    let vals = || prop::collection::vec(0i64..6, 0..5);
    prop_oneof![
        (vals(), any::<bool>()).prop_map(|(vals, commit)| Op::InsertMany { vals, commit }),
        (vals(), any::<bool>()).prop_map(|(vals, commit)| Op::ReplaceAll { vals, commit }),
        (vals(), 0u8..8).prop_map(|(vals, c)| Op::ReplaceAll {
            vals,
            commit: c > 0
        }),
        (0usize..8, any::<bool>()).prop_map(|(pick, commit)| Op::DeleteOne { pick, commit }),
        Just(Op::Pin),
        (0usize..4).prop_map(Op::Unpin),
        Just(Op::Reclaim),
        Just(Op::Vacuum),
        Just(Op::Reopen),
    ]
}

/// What `snap` sees of table `t`, sorted, by scan — checked against the
/// index: every key's lookup and one range agree with the scan.
fn seen(e: &StorageEngine, t: u32, snap: &Snapshot) -> Vec<i64> {
    let int = |r: &Row| r[0].as_int().unwrap();
    let mut got: Vec<i64> = e
        .scan(t, snap)
        .unwrap()
        .iter()
        .map(|(_, r)| int(r))
        .collect();
    got.sort_unstable();
    let idx = e.index_on("t", "v").expect("index");
    let key = |v: i64| IndexKey(vec![Value::Int(v)]);
    for v in 0..6 {
        let hits = e.index_lookup("t", &idx, &key(v), snap).unwrap();
        assert_eq!(
            hits.len(),
            got.iter().filter(|g| **g == v).count(),
            "lookup {v}"
        );
    }
    let range = e
        .index_range(
            "t",
            &idx,
            Bound::Excluded(key(1)),
            Bound::Included(key(4)),
            snap,
        )
        .unwrap();
    assert_eq!(
        range.len(),
        got.iter().filter(|g| (2..=4).contains(*g)).count()
    );
    got
}

proptest! {
    /// The heap against a plain model — a sorted `Vec` of the committed
    /// rows plus what each live pin saw when taken — under random batched
    /// inserts, REPLACE swaps, single deletes, aborts, pins, reclaims and
    /// reopen-from-WAL. No version a live pin sees is ever reclaimed, a
    /// reclaim with no pin leaves nothing dead, and the heap holds no more
    /// than its live generation once it was swapped and vacuumed.
    #[test]
    fn heap_matches_generation_model(ops in prop::collection::vec(arb_op(), 1..40), tag in any::<u32>()) {
        let dir = std::env::temp_dir()
            .join(format!("streamrel-prop-model-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let schema = Schema::new(vec![Column::new("v", DataType::Int)]).unwrap();
        let mut e = StorageEngine::open(&dir).unwrap();
        let t = e.create_table("t", schema).unwrap();
        e.create_index("t_v", "t", &["v".into()]).unwrap();
        let rows = |vals: &[i64]| -> Vec<Row> { vals.iter().map(|v| vec![Value::Int(*v)]).collect() };
        let mut live: Vec<i64> = Vec::new();
        let mut pins: Vec<(Snapshot, Vec<i64>)> = Vec::new();
        // Slots ever appended, and whether the live rows are exactly one
        // REPLACE generation with nothing appended after it.
        let (mut appended, mut pure) = (0u64, true);
        for op in ops {
            match op {
                Op::InsertMany { vals, commit } => {
                    let x = e.begin().unwrap();
                    e.insert_many(x, t, rows(&vals)).unwrap();
                    appended += vals.len() as u64;
                    pure &= vals.is_empty();
                    if commit {
                        e.commit(x).unwrap();
                        live.extend(&vals);
                    } else {
                        e.abort(x).unwrap();
                    }
                }
                Op::ReplaceAll { vals, commit } => {
                    let x = e.begin().unwrap();
                    prop_assert_eq!(e.delete_all_visible(x, t).unwrap(), live.len() as u64);
                    e.insert_many(x, t, rows(&vals)).unwrap();
                    appended += vals.len() as u64;
                    if commit {
                        e.commit(x).unwrap();
                        live = vals;
                        pure = true;
                    } else {
                        e.abort(x).unwrap();
                        pure &= vals.is_empty();
                    }
                }
                Op::DeleteOne { pick, commit } => {
                    let x = e.begin().unwrap();
                    let visible = e.scan(t, &e.snapshot_for(x)).unwrap();
                    if let Some((tid, row)) = visible.get(pick % visible.len().max(1)) {
                        e.delete(x, *tid).unwrap();
                        if commit {
                            let v = row[0].as_int().unwrap();
                            live.remove(live.iter().position(|l| *l == v).unwrap());
                            pure = false;
                        }
                    }
                    if commit { e.commit(x).unwrap() } else { e.abort(x).unwrap() }
                }
                Op::Pin => {
                    let snap = e.snapshot();
                    let saw = seen(&e, t, &snap);
                    pins.push((snap, saw));
                }
                Op::Unpin(k) if !pins.is_empty() => {
                    pins.remove(k % pins.len());
                }
                Op::Unpin(_) => {}
                Op::Reclaim => {
                    e.reclaim(t).unwrap();
                }
                Op::Vacuum => {
                    e.vacuum();
                    let heap = &e.table_by_id(t).unwrap().heap;
                    if pins.is_empty() {
                        prop_assert_eq!(heap.dead_count(), 0);
                        if pure {
                            prop_assert!(heap.version_count() <= live.len());
                        }
                    }
                }
                Op::Reopen => {
                    pins.clear();
                    drop(e);
                    e = StorageEngine::open(&dir).unwrap();
                }
            }
            live.sort_unstable();
            prop_assert_eq!(&seen(&e, t, &e.snapshot()), &live);
            for (snap, saw) in &pins {
                prop_assert_eq!(&seen(&e, t, snap), saw, "a live pin lost or gained rows");
            }
            let held = e.table_by_id(t).unwrap().heap.version_count() as u64;
            prop_assert!(held <= appended, "slots only ever leave the heap");
        }
        drop(pins);
        drop(e);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Any row encodes and decodes back to itself.
    #[test]
    fn row_codec_roundtrip(row in arb_row()) {
        let mut buf = Vec::new();
        encode_row(&mut buf, &row);
        let mut r = Reader::new(&buf);
        let got = decode_row(&mut r).unwrap();
        prop_assert_eq!(r.remaining(), 0);
        prop_assert_eq!(got, row);
    }

    /// Any WAL record round-trips through encode/decode.
    #[test]
    fn wal_record_roundtrip(xid in 1u64..1000, table in 0u32..10, slot in 0u64..1000,
                            row in arb_row(), key in ".{0,32}", val in ".{0,64}") {
        for rec in [
            WalRecord::Begin { xid },
            WalRecord::Insert { xid, table, slot, row: row.clone() },
            WalRecord::InsertMany { xid, table, first_slot: slot, rows: vec![row.clone(); 3] },
            WalRecord::DeleteMany { xid, table, slots: vec![slot, slot + 2] },
            WalRecord::Commit { xid },
            WalRecord::Abort { xid },
            WalRecord::CatalogPut { key: key.clone(), value: val.clone() },
            WalRecord::CatalogDel { key: key.clone() },
        ] {
            let mut enc = Vec::new();
            rec.encode_into(&mut enc);
            prop_assert_eq!(WalRecord::decode(&enc).unwrap(), rec);
        }
    }

    /// Truncated row encodings never decode successfully (and never panic).
    #[test]
    fn truncated_rows_fail_cleanly(row in arb_row(), cut_frac in 0.0f64..1.0) {
        // Only meaningful when something gets cut off.
        let mut buf = Vec::new();
        encode_row(&mut buf, &row);
        let cut = ((buf.len() as f64) * cut_frac) as usize;
        if cut < buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            prop_assert!(decode_row(&mut r).is_err());
        }
    }

    /// MVCC: a committed set of rows is exactly what a fresh snapshot
    /// sees, regardless of interleaved aborted transactions.
    #[test]
    fn committed_rows_visible_aborted_invisible(
        ops in prop::collection::vec((any::<bool>(), 0i64..100), 1..40)
    ) {
        let e = StorageEngine::in_memory();
        let t = e
            .create_table("t", Schema::new(vec![Column::new("v", DataType::Int)]).unwrap())
            .unwrap();
        let mut expected = Vec::new();
        for (commit, v) in &ops {
            let xid = e.begin().unwrap();
            e.insert(xid, t, vec![Value::Int(*v)]).unwrap();
            if *commit {
                e.commit(xid).unwrap();
                expected.push(*v);
            } else {
                e.abort(xid).unwrap();
            }
        }
        let snap = e.snapshot();
        let mut got: Vec<i64> = e
            .scan(t, &snap)
            .unwrap()
            .into_iter()
            .map(|(_, r)| r[0].as_int().unwrap())
            .collect();
        got.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    /// Durability: whatever was committed before a crash is exactly what
    /// recovery produces (WAL replay determinism).
    #[test]
    fn wal_recovery_reproduces_committed_state(
        vals in prop::collection::vec(0i64..1000, 1..30),
        abort_last in any::<bool>(),
    ) {
        let dir = std::env::temp_dir().join(format!(
            "streamrel-prop-wal-{}-{}",
            std::process::id(),
            vals.len() as u64 * 1000 + vals.first().copied().unwrap_or(0) as u64
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let e = StorageEngine::open(&dir).unwrap();
            let t = e
                .create_table("t", Schema::new(vec![Column::new("v", DataType::Int)]).unwrap())
                .unwrap();
            let xid = e.begin().unwrap();
            for v in &vals {
                e.insert(xid, t, vec![Value::Int(*v)]).unwrap();
            }
            e.commit(xid).unwrap();
            if abort_last {
                // An in-flight transaction at crash time.
                let xid = e.begin().unwrap();
                e.insert(xid, t, vec![Value::Int(-1)]).unwrap();
            }
            // crash: drop without shutdown
        }
        let e = StorageEngine::open(&dir).unwrap();
        let t = e.table_id("t").unwrap();
        let snap = e.snapshot();
        let mut got: Vec<i64> = e
            .scan(t, &snap)
            .unwrap()
            .into_iter()
            .map(|(_, r)| r[0].as_int().unwrap())
            .collect();
        got.sort_unstable();
        let mut expected = vals.clone();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
