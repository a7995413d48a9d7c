//! A subscription receives every window its CQ closes (§3.1), from the
//! first one: a window that an ingest closes while `SELECT` is still
//! setting the subscription up is delivered, shed or pending — never
//! counted in `windows_out` and lost.
//!
//! The lock witness's chaos hook makes the race deterministic: it parks the
//! subscribing thread at its first named-lock acquisition after `SELECT`
//! releases the catalog — the CQ is registered by then — while this thread
//! ingests a batch that closes a window. The hook is process-wide, so this
//! test has a binary of its own.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::witness::{self, ChaosPoint};
use streamrel::types::time::SECONDS;
use streamrel::types::Value;
use streamrel::{Db, DbOptions};

thread_local! {
    /// 1 while the armed `SELECT` holds or awaits the catalog, 2 once it
    /// has released it, 0 otherwise.
    static STAGE: Cell<u8> = const { Cell::new(0) };
}
static PARKED: AtomicBool = AtomicBool::new(false);
static RESUME: AtomicBool = AtomicBool::new(false);

fn park_after_catalog(point: ChaosPoint, lock: Option<&'static str>) {
    STAGE.with(|stage| match (stage.get(), point, lock) {
        (1, ChaosPoint::Release, Some("core.catalog")) => stage.set(2),
        (2, ChaosPoint::Acquire, _) => {
            stage.set(0);
            PARKED.store(true, SeqCst);
            let deadline = Instant::now() + Duration::from_secs(10);
            while !RESUME.load(SeqCst) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        _ => {}
    });
}

#[test]
fn a_window_closed_during_registration_reaches_the_subscription() {
    let db = Arc::new(Db::in_memory(DbOptions::default()));
    db.execute("CREATE STREAM s (v integer, ts timestamp CQTIME USER)")
        .unwrap();
    witness::set_chaos_hook(park_after_catalog);
    let subscriber = {
        let db = db.clone();
        std::thread::spawn(move || {
            STAGE.with(|stage| stage.set(1));
            let sql = "SELECT count(*) c FROM s <TUMBLING '1 minute'>";
            db.execute(sql).unwrap().subscription()
        })
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while !PARKED.load(SeqCst) && !subscriber.is_finished() {
        assert!(
            Instant::now() < deadline,
            "subscriber neither parked nor returned"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        PARKED.load(SeqCst),
        "no named lock after registration to park at"
    );
    // The second tuple closes the CQ's first window.
    let batch = [1, 61].map(|s| vec![Value::Int(s), Value::Timestamp(s * SECONDS)]);
    db.ingest_batch("s", batch.to_vec()).unwrap();
    RESUME.store(true, SeqCst);
    let sub = subscriber.join().unwrap();

    let closed = db.stats().windows_out;
    assert_eq!(closed, 1, "the ingest closed one window");
    let delivered = db.poll(sub).unwrap().len() as u64;
    let stats = db.stats();
    assert_eq!(
        delivered + stats.sub_drops + stats.sub_queued,
        closed,
        "a window the new CQ closed was neither delivered, shed nor pending"
    );
    assert_eq!(delivered, 1);
}
