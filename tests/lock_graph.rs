//! The declared lock order (`streamrel_check::lock_order`) and the runtime
//! lock witness that checks it where locks are taken. Validation is on in
//! every debug build, so every test in the workspace feeds the witness's
//! learned acquisition graph; the tests here pin what it reports, and
//! each one that reads the witness turns validation on first so that it
//! holds under `cargo test --release` too.
//!
//! The learned graph is process-wide: a test that inverts an order on
//! purpose uses names of its own (`test.*`), or an inversion the declared
//! table refuses before it is recorded, so it cannot poison the real
//! graph for the tests beside it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use streamrel::types::time::SECONDS;
use streamrel::types::Value;
use streamrel::{Db, DbOptions};
use streamrel_check::lock_order::GLOBAL_LOCK_ORDER;

fn panic_text(err: Box<dyn std::any::Any + Send>) -> String {
    err.downcast_ref::<String>()
        .expect("witness panics with a formatted String")
        .clone()
}

/// Where `name` stands in the declared order.
fn position(name: &str) -> Option<usize> {
    GLOBAL_LOCK_ORDER.iter().position(|n| *n == name)
}

/// Inverting the declared order at runtime panics with a message naming
/// both acquisition sites. Uses the real table, so this also pins the
/// contract that `core.catalog < core.state` stays in it.
#[test]
fn witness_panics_on_inverted_acquisition_naming_both_sites() {
    assert!(
        matches!(
            (position("core.catalog"), position("core.state")),
            (Some(c), Some(s)) if c < s
        ),
        "the declared order lost catalog < state; pick another pair"
    );
    parking_lot::witness::enable();
    parking_lot::witness::install_order(GLOBAL_LOCK_ORDER);

    let catalog = parking_lot::Mutex::named("core.catalog", ());
    let state = parking_lot::Mutex::named("core.state", ());

    // Correct order first: catalog then state is silent.
    {
        let _c = catalog.lock();
        let _s = state.lock();
    }

    // Inverted order: acquiring `catalog` while holding `state` must panic.
    let err = catch_unwind(AssertUnwindSafe(|| {
        let _held = state.lock();
        let _bad = catalog.lock();
    }))
    .expect_err("inverted acquisition must trip the witness");
    let msg = panic_text(err);
    assert!(msg.contains("lock-order violation"), "{msg}");
    // Both sites are named: the acquiring site and the held site, each
    // as a file:line inside this test.
    assert!(
        msg.contains("acquiring `core.catalog` at tests/lock_graph.rs:"),
        "{msg}"
    );
    assert!(
        msg.contains("holding `core.state` acquired at tests/lock_graph.rs:"),
        "{msg}"
    );
    assert!(msg.contains("`core.catalog` < `core.state`"), "{msg}");
    // The panic tells the reader where the order comes from.
    assert!(msg.contains("lock_order.rs"), "{msg}");
    // The refused pair was not learned.
    assert!(!parking_lot::witness::edges().contains(&("core.state", "core.catalog")));
}

/// Two locks no table orders, taken once in each order: the second order
/// closes a cycle in the learned graph and panics naming the held and the
/// acquiring site of both edges.
#[test]
fn a_learned_cycle_panics_naming_both_edges_sites() {
    parking_lot::witness::enable();
    let a = parking_lot::Mutex::named("test.a", ());
    let b = parking_lot::Mutex::named("test.b", ());
    let (a_held, b_acquired) = {
        let (_a, a_held) = (a.lock(), line!());
        let (_b, b_acquired) = (b.lock(), line!());
        (a_held, b_acquired)
    };
    assert!(parking_lot::witness::edges().contains(&("test.a", "test.b")));

    let b_held = line!() + 2;
    let err = catch_unwind(AssertUnwindSafe(|| {
        let _b = b.lock();
        let _a = a.lock();
    }))
    .expect_err("b then a after a then b must trip the witness");
    let a_acquired = b_held + 1;
    let msg = panic_text(err);
    assert!(msg.contains("lock-order cycle"), "{msg}");
    let here = "tests/lock_graph.rs";
    for hop in [
        format!("`test.a` held at {here}:{a_held}:"),
        format!("while acquiring `test.b` at {here}:{b_acquired}:"),
        format!("`test.b` held at {here}:{b_held}:"),
        format!("while acquiring `test.a` at {here}:{a_acquired}:"),
    ] {
        assert!(msg.contains(&hop), "{msg} lacks {hop}");
    }
    assert!(!parking_lot::witness::edges().contains(&("test.b", "test.a")));
}

/// A snapshot `SELECT` releases the catalog before it executes, so no
/// path holds `core.catalog` while it takes a CQ queue or result lock:
/// ingest, which reads the catalog to find its shard, never waits behind a
/// running query. Read off the edges the witness recorded while a
/// snapshot `SELECT` loop races ingest whose closes run on the pool.
#[test]
fn the_catalog_is_never_held_into_a_cq_lock() {
    parking_lot::witness::enable();
    let db = Arc::new(Db::in_memory(DbOptions::default().with_pool_workers(1)));
    db.execute("CREATE STREAM s (v integer, ts timestamp CQTIME USER)")
        .unwrap();
    db.execute("CREATE TABLE t (v integer)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    for cq in [
        "SELECT count(*) c FROM s <TUMBLING '1 second'>",
        "SELECT sum(v) v FROM s <TUMBLING '1 second'>",
    ] {
        db.execute(cq).unwrap();
    }
    let ingest = {
        let db = db.clone();
        std::thread::spawn(move || {
            for s in 1..200 {
                let row = vec![Value::Int(s), Value::Timestamp(s * SECONDS)];
                db.ingest_batch("s", vec![row]).unwrap();
            }
        })
    };
    while !ingest.is_finished() {
        db.execute("SELECT sum(v) FROM t").unwrap();
    }
    ingest.join().unwrap();

    let edges = parking_lot::witness::edges();
    assert!(
        edges.contains(&("core.state", "cq.queue")),
        "window closes never reached the pool: {edges:?}"
    );
    let held_into_cq: Vec<_> = edges
        .iter()
        .filter(|(a, b)| *a == "core.catalog" && b.starts_with("cq."))
        .collect();
    assert!(held_into_cq.is_empty(), "{held_into_cq:?}");
}

/// Every nesting the engine really made of two ordered locks follows the
/// declared order, so the hand-written table cannot drift from what runs.
/// The witness refuses an inverted pair before recording it; this reads
/// the recorded graph after a durable database has recovered, ingested,
/// closed windows on the pool and answered a snapshot query, which takes
/// the nestings of `core.catalog`, `core.state` and the storage locks.
#[test]
fn every_learned_edge_between_ordered_locks_follows_the_order() {
    parking_lot::witness::enable();
    let dir = std::env::temp_dir().join(format!("streamrel-lock-order-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for round in 0..2 {
        let db = Db::open(&dir, DbOptions::default().with_pool_workers(1)).unwrap();
        if round == 0 {
            db.execute("CREATE STREAM s (v integer, ts timestamp CQTIME USER)")
                .unwrap();
            db.execute("CREATE TABLE t (v integer)").unwrap();
            db.execute("SELECT sum(v) v FROM s <TUMBLING '1 second'>")
                .unwrap();
        }
        for s in 1..20 {
            let row = vec![Value::Int(s), Value::Timestamp((round * 20 + s) * SECONDS)];
            db.ingest_batch("s", vec![row]).unwrap();
        }
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        db.execute("SELECT sum(v) FROM t").unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);

    let edges = parking_lot::witness::edges();
    let ordered: Vec<_> = edges
        .iter()
        .filter_map(|&(a, b)| Some((a, b, position(a)?, position(b)?)))
        .collect();
    assert!(
        ordered.iter().any(|&(a, ..)| a == "core.catalog"),
        "no nesting under the catalog was recorded: {edges:?}"
    );
    for (a, b, pa, pb) in ordered {
        assert!(
            pa < pb,
            "`{a}` was held into `{b}`, against GLOBAL_LOCK_ORDER"
        );
    }
}

/// Every lock in the declared order exists: its name is the one passed to
/// a `Mutex::named` somewhere in the sources. A name nobody constructs
/// constrains nothing.
#[test]
fn every_ordered_lock_is_constructed_somewhere() {
    fn collect_named(dir: &std::path::Path, names: &mut Vec<String>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                collect_named(&path, names);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let src = std::fs::read_to_string(&path).unwrap();
                for after in src.split("::named(").skip(1) {
                    if let Some(lit) = after.trim_start().strip_prefix('"') {
                        names.extend(lit.split('"').next().map(str::to_string));
                    }
                }
            }
        }
    }
    let mut constructed = Vec::new();
    collect_named(
        &std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates"),
        &mut constructed,
    );
    for name in GLOBAL_LOCK_ORDER {
        assert!(
            constructed.iter().any(|c| c == name),
            "`{name}` is in GLOBAL_LOCK_ORDER but no lock is constructed under that name"
        );
    }
}
