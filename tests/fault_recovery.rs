//! Fault-injection and crash-recovery integration tests (DESIGN.md §10).
//!
//! The heavy lifting lives in `streamrel_bench::torture`: seeded
//! workloads crashed at **every mutating I/O operation**, recovered from
//! the frozen disk image, and required to be byte-identical to an
//! uncrashed reference after re-driving. These tests pin the protocol
//! into the tier-1 suite at a size that stays fast in debug builds; the
//! `torture` binary runs the same sweeps as its `storage`, `multilog`,
//! `cq` and `ivm` suites, at seed-chosen sizes over a seed range (four
//! seeds in the PR lane, 256 nightly).

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use proptest::test_runner::Config;
use streamrel::storage::wal::{replay_bytes, WalRecord};
use streamrel::storage::{Io, StorageEngine, SyncMode};
use streamrel::types::{Column, DataType, Error, Schema, Value};
use streamrel::{Db, DbOptions};
use streamrel_bench::torture::{checkpoint_reset_sweep, cq_sweep, engine_sweep_with_logs, Outcome};
use streamrel_faults::{FaultIo, FaultPlan};

// ---- crash-at-every-op sweeps ---------------------------------------------

/// Every divergence of `outcomes`, one line each.
fn divergences(outcomes: &[&Outcome]) -> Vec<String> {
    outcomes
        .iter()
        .flat_map(|o| &o.failures)
        .map(|f| f.to_string())
        .collect()
}

/// The acceptance bar: one fixed seed, >= 200 crash points across the
/// storage and CQ sweeps, zero divergence.
#[test]
fn torture_sweep_proves_recovery_at_scale() {
    let e = engine_sweep_with_logs(42, 80, 1).unwrap();
    let c = cq_sweep(42, 25).unwrap();
    let points = e.points + c.points;
    assert!(points >= 200, "only {points} crash points exercised");
    let failures = divergences(&[&e, &c]);
    assert!(failures.is_empty(), "divergences:\n{}", failures.join("\n"));
}

/// The same proof over *multiple* WAL logs (DESIGN.md §13): inserts and
/// deletes are deliberately routed to different commit domains, so every
/// crash point also exercises the cross-log LSN-merge recovery cut, the
/// per-shard checkpoint epochs, and the stale-log discard.
#[test]
fn multilog_torture_sweep_proves_recovery_at_scale() {
    let m = engine_sweep_with_logs(42, 40, 3).unwrap();
    let ck = checkpoint_reset_sweep(42, 3).unwrap();
    let points = m.points + ck.points;
    assert!(points >= 100, "only {points} crash points exercised");
    let failures = divergences(&[&m, &ck]);
    assert!(failures.is_empty(), "divergences:\n{}", failures.join("\n"));
}

proptest! {
    #![proptest_config(Config::with_cases(5))]
    /// The same proof must hold for arbitrary seeds, i.e. arbitrary
    /// workload shapes, crash offsets and tear points — with one log and
    /// with several.
    #[test]
    fn torture_sweep_holds_for_random_seeds(seed in 0u64..u64::MAX / 2) {
        let e = engine_sweep_with_logs(seed, 24, 1).unwrap();
        let m = engine_sweep_with_logs(seed, 16, 2 + (seed % 3) as usize).unwrap();
        let c = cq_sweep(seed, 8).unwrap();
        let failures = divergences(&[&e, &m, &c]);
        prop_assert!(failures.is_empty(), "divergences:\n{}", failures.join("\n"));
    }
}

// ---- fsyncgate: a failed fsync poisons the WAL ----------------------------

/// A failed `sync_commit` leaves durability indeterminate (the kernel
/// may have written any subset of the dirty pages and marked them
/// clean), so the WAL must refuse every subsequent write until the
/// engine is reopened and recovery re-establishes a known-good state.
#[test]
fn failed_fsync_poisons_the_wal_until_reopen() {
    // Sync #0 is the epoch stamp at open; sync #1 is the first
    // catalog_put's commit fsync.
    let io = FaultIo::new(FaultPlan::sync_error_at(7, 1));
    let dynio: Arc<dyn Io> = io.clone();
    let e = StorageEngine::open_with_io("/sim/db", SyncMode::Fsync, dynio).unwrap();
    assert!(!e.wal_poisoned());

    let err = e.catalog_put("k0", "v0").unwrap_err();
    assert!(
        matches!(&err, Error::Io(m) if m.contains("EIO")),
        "expected the injected EIO, got {err}"
    );
    assert!(e.wal_poisoned(), "failed fsync must poison the WAL");

    // Every later write is refused with the typed error...
    for op in 0..3 {
        let err = e.catalog_put(&format!("later{op}"), "v").unwrap_err();
        assert!(
            matches!(err, Error::WalPoisoned(_)),
            "op {op} after poisoning must fail WalPoisoned"
        );
    }
    // ...and the poisoning is visible in streamrel_metrics.
    let rel = e.metrics().to_relation();
    let poisoned = rel
        .rows()
        .iter()
        .find(|r| r.first() == Some(&Value::text("wal.poisoned")))
        .and_then(|r| r.get(2).cloned());
    assert_eq!(poisoned, Some(Value::Int(1)));
    let injected = rel
        .rows()
        .iter()
        .find(|r| r.first() == Some(&Value::text("fault.injected.sync_errors")))
        .and_then(|r| r.get(2).cloned());
    assert_eq!(injected, Some(Value::Int(1)));

    // Reopening over the surviving bytes recovers: the WAL is reset to a
    // consistent prefix and accepts writes again.
    let image = io.image();
    drop(e);
    let rio = FaultIo::from_image(&image, FaultPlan::none(0));
    let dynio: Arc<dyn Io> = rio.clone();
    let e = StorageEngine::open_with_io("/sim/db", SyncMode::Fsync, dynio).unwrap();
    assert!(!e.wal_poisoned());
    e.catalog_put("after", "recovery").unwrap();
    assert_eq!(e.catalog_get("after").as_deref(), Some("recovery"));
}

// ---- fsyncgate, per shard: poisoning is scoped to one commit domain -------

fn two_col_schema() -> Schema {
    Schema::new(vec![
        Column::not_null("k", DataType::Text),
        Column::new("v", DataType::Int),
    ])
    .unwrap()
}

#[test]
fn a_batch_commit_is_one_log_write() {
    // A 250-row `InsertMany` is some 17 KB of log: under `Flush` the whole
    // transaction reaches the OS in the one write at its commit, not in a
    // spill mid-record and a second write at the commit.
    let io = FaultIo::new(FaultPlan::none(0));
    let dynio: Arc<dyn Io> = io.clone();
    let e = StorageEngine::open_with_io("/sim/db", SyncMode::Flush, dynio).unwrap();
    let t = e.create_table("t", two_col_schema()).unwrap();
    let log_len = || io.image().files_matching("wal-")[0].1;
    for batch in 0..3i64 {
        let rows = (0..250)
            .map(|i| {
                vec![
                    Value::text(format!("/a/long/url/{batch}/{i:0>40}")),
                    Value::Int(i),
                ]
            })
            .collect();
        let (ops, len) = (io.ops(), log_len());
        e.with_txn(|x| e.insert_many(x, t, rows)).unwrap();
        assert_eq!(io.ops() - ops, 1, "batch {batch}: one write");
        let written = log_len() - len;
        assert!(
            written > 16 << 10,
            "batch {batch}: {written} bytes in one write"
        );
    }
}

/// A failed fsync on one commit domain's log poisons *that domain only*
/// (DESIGN.md §13): the healthy domain keeps committing, the poisoned
/// one rejects with a shard-scoped error until reopen, and the per-shard
/// gauges tell them apart. Reopen re-establishes every domain.
#[test]
fn poisoned_shard_rejects_while_healthy_shard_commits() {
    // Syncs #0/#1 are the two epoch stamps at open; #2 is the CREATE
    // TABLE DDL fsync (domain 0). The error is scheduled a little past
    // that and the domain-1 commit loop below walks into it.
    let io = FaultIo::new(FaultPlan::sync_error_at(7, 4));
    let dynio: Arc<dyn Io> = io.clone();
    let e = StorageEngine::open_with_opts("/sim/db", SyncMode::Fsync, dynio, 2).unwrap();
    let t = e.create_table("t", two_col_schema()).unwrap();

    let insert_on = |e: &StorageEngine, domain: usize, v: i64| {
        e.with_txn_on(domain, |x| {
            e.insert(x, t, vec![Value::text(format!("k{v}")), Value::Int(v)])
        })
    };

    // Commit on domain 1 until the injected EIO lands on wal-1.log.
    let mut acked_d1 = 0i64;
    let mut hit = None;
    for v in 0..8 {
        match insert_on(&e, 1, v) {
            Ok(_) => acked_d1 += 1,
            Err(err) => {
                hit = Some(err);
                break;
            }
        }
    }
    let err = hit.expect("the scheduled EIO never fired");
    assert!(
        matches!(&err, Error::Io(m) if m.contains("EIO")),
        "first failure surfaces the causal error, got {err}"
    );
    assert_eq!(e.wal_poisoned_shards(), vec![1], "only domain 1 poisoned");

    // The poisoned domain rejects with a shard-scoped typed error...
    let err = insert_on(&e, 1, 100).unwrap_err();
    assert!(
        matches!(&err, Error::WalPoisoned(m) if m.contains("shard 1")),
        "expected a shard-scoped WalPoisoned, got {err}"
    );
    // ...while the healthy domain keeps committing.
    for v in 200..203 {
        insert_on(&e, 0, v).unwrap();
    }

    // Gauges: global = count of poisoned domains; per-shard tells which.
    let rel = e.metrics().to_relation();
    let gauge = |name: &str| {
        rel.rows()
            .iter()
            .find(|r| r.first() == Some(&Value::text(name)))
            .and_then(|r| r.get(2).cloned())
    };
    assert_eq!(gauge("wal.poisoned"), Some(Value::Int(1)));
    assert_eq!(gauge("wal.poisoned.shard1"), Some(Value::Int(1)));
    assert_eq!(gauge("wal.poisoned.shard0"), Some(Value::Int(0)));

    // Reopen over the surviving bytes: both domains accept writes, the
    // gauges settle back to 0 per shard, and every acked commit (on
    // either domain) survived.
    let image = io.image();
    assert_eq!(
        image.files_matching("wal-").len(),
        2,
        "each commit domain owns its own wal-<k>.log"
    );
    drop(e);
    let rio = FaultIo::from_image(&image, FaultPlan::none(0));
    let dynio: Arc<dyn Io> = rio.clone();
    let e = StorageEngine::open_with_opts("/sim/db", SyncMode::Fsync, dynio, 2).unwrap();
    assert!(!e.wal_poisoned());
    assert!(e.wal_poisoned_shards().is_empty());
    let rel = e.metrics().to_relation();
    let settled = |name: &str| {
        rel.rows()
            .iter()
            .find(|r| r.first() == Some(&Value::text(name)))
            .and_then(|r| r.get(2).cloned())
    };
    assert_eq!(settled("wal.poisoned"), Some(Value::Int(0)));
    assert_eq!(settled("wal.poisoned.shard0"), Some(Value::Int(0)));
    assert_eq!(settled("wal.poisoned.shard1"), Some(Value::Int(0)));

    let t = e.table_id("t").unwrap();
    let survivors = e.scan(t, &e.snapshot()).unwrap().len() as i64;
    assert!(
        survivors >= acked_d1 + 3,
        "acked commits lost: {survivors} < {}",
        acked_d1 + 3
    );
    e.with_txn_on(1, |x| {
        e.insert(x, t, vec![Value::text("post"), Value::Int(-1)])
    })
    .unwrap();
    e.with_txn_on(0, |x| {
        e.insert(x, t, vec![Value::text("post0"), Value::Int(-2)])
    })
    .unwrap();
}

// ---- group commit: conservation across a crash ----------------------------

/// Conservation across a crash with concurrent group-committed writers
/// on two domains: every transaction whose commit was *acknowledged*
/// (its `with_txn_on` returned Ok) survives recovery, and nothing
/// recovers that was never attempted. Swept over several crash points so
/// the crash lands before, between and after the two logs' fsyncs.
#[test]
fn group_commit_conservation_across_crash() {
    for crash_op in [6u64, 12, 20, 35, 60] {
        let io = FaultIo::new(FaultPlan::crash_at(0xACED, crash_op));
        let dynio: Arc<dyn Io> = io.clone();
        let acked: Arc<Mutex<HashSet<i64>>> = Arc::new(Mutex::new(HashSet::new()));
        if let Ok(e) = StorageEngine::open_with_opts("/sim/db", SyncMode::Fsync, dynio, 2) {
            let e = Arc::new(e);
            if let Ok(t) = e.create_table("t", two_col_schema()) {
                let threads: Vec<_> = (0..2i64)
                    .map(|d| {
                        let e = Arc::clone(&e);
                        let acked = Arc::clone(&acked);
                        std::thread::spawn(move || {
                            for j in 0..30i64 {
                                let v = d * 1000 + j;
                                let ok = e
                                    .with_txn_on(d as usize, |x| {
                                        e.insert(
                                            x,
                                            t,
                                            vec![Value::text(format!("k{v}")), Value::Int(v)],
                                        )
                                    })
                                    .is_ok();
                                if !ok {
                                    break;
                                }
                                acked.lock().unwrap().insert(v);
                            }
                        })
                    })
                    .collect();
                for th in threads {
                    th.join().unwrap();
                }
            }
        }
        let acked = Arc::try_unwrap(acked).unwrap().into_inner().unwrap();

        let image = io.frozen_image().unwrap();
        let rio = FaultIo::from_image(&image, FaultPlan::none(0));
        let dynio: Arc<dyn Io> = rio.clone();
        let e = StorageEngine::open_with_opts("/sim/db", SyncMode::Fsync, dynio, 2).unwrap();
        let recovered: Vec<i64> = match e.table_id("t") {
            Ok(t) => e
                .scan(t, &e.snapshot())
                .unwrap()
                .into_iter()
                .filter_map(|(_, r)| match r.get(1) {
                    Some(Value::Int(v)) => Some(*v),
                    _ => None,
                })
                .collect(),
            Err(_) => Vec::new(),
        };
        let recovered_set: HashSet<i64> = recovered.iter().copied().collect();
        assert_eq!(
            recovered.len(),
            recovered_set.len(),
            "crash op {crash_op}: replay duplicated a committed row"
        );
        for v in &acked {
            assert!(
                recovered_set.contains(v),
                "crash op {crash_op}: acked commit {v} lost"
            );
        }
        for v in &recovered_set {
            let attempted = (0..30).contains(v) || (1000..1030).contains(v);
            assert!(
                attempted,
                "crash op {crash_op}: recovered a row never written: {v}"
            );
        }
    }
}

// ---- disk full: a rejected append poisons the WAL -------------------------

/// `ENOSPC` on a WAL append means the log's in-memory offset no longer
/// matches the file: the WAL must poison itself with a typed error (not
/// panic, not silently retry) and a reopen over the surviving bytes must
/// recover every acknowledged commit.
#[test]
fn disk_full_append_poisons_the_wal_until_reopen() {
    let io = FaultIo::new(FaultPlan::disk_full_at(13, 2));
    let dynio: Arc<dyn Io> = io.clone();
    let e = StorageEngine::open_with_io("/sim/db", SyncMode::Fsync, dynio).unwrap();

    // Put keys until the injected ENOSPC hits one of them.
    let mut acked = Vec::new();
    let mut enospc = None;
    for i in 0..8 {
        let k = format!("k{i}");
        match e.catalog_put(&k, "v") {
            Ok(()) => acked.push(k),
            Err(err) => {
                enospc = Some(err);
                break;
            }
        }
    }
    let err = enospc.expect("the scheduled ENOSPC never fired");
    assert!(
        matches!(&err, Error::Io(m) if m.contains("ENOSPC")),
        "expected the injected ENOSPC, got {err}"
    );
    assert!(e.wal_poisoned(), "failed append must poison the WAL");
    let err = e.catalog_put("later", "v").unwrap_err();
    assert!(matches!(err, Error::WalPoisoned(_)), "got {err}");
    let rel = e.metrics().to_relation();
    let injected = rel
        .rows()
        .iter()
        .find(|r| r.first() == Some(&Value::text("fault.injected.disk_full")))
        .and_then(|r| r.get(2).cloned());
    assert_eq!(injected, Some(Value::Int(1)));

    // Reopen over the surviving bytes: every acknowledged put is durable
    // (Fsync mode) and the log accepts writes again.
    let image = io.image();
    drop(e);
    let rio = FaultIo::from_image(&image, FaultPlan::none(0));
    let dynio: Arc<dyn Io> = rio.clone();
    let e = StorageEngine::open_with_io("/sim/db", SyncMode::Fsync, dynio).unwrap();
    assert!(!e.wal_poisoned());
    for k in &acked {
        assert_eq!(e.catalog_get(k).as_deref(), Some("v"), "lost {k}");
    }
    e.catalog_put("after", "recovery").unwrap();
}

// ---- bad sector: corrupt reads at open surface typed errors ---------------

/// A latent bad sector under the WAL or checkpoint surfaces at the *next
/// open*, when recovery reads the file back. Whatever single bit flips,
/// open must either succeed (the CRC scan truncates at the break) or
/// return a typed error — never panic — and a successful open must leave
/// a working engine.
#[test]
fn corrupt_read_at_open_never_panics() {
    // Build a durable image with real content to corrupt.
    let io = FaultIo::new(FaultPlan::none(23));
    let dynio: Arc<dyn Io> = io.clone();
    let e = StorageEngine::open_with_io("/sim/db", SyncMode::Fsync, dynio).unwrap();
    for i in 0..6 {
        e.catalog_put(&format!("k{i}"), "v").unwrap();
    }
    e.checkpoint().unwrap();
    for i in 6..10 {
        e.catalog_put(&format!("k{i}"), "v").unwrap();
    }
    let image = io.image();
    drop(e);

    // Open reads the checkpoint then the WAL; sweep the bad sector over
    // the first few reads across many seeds (= many flip offsets).
    let mut opened = 0u32;
    let mut rejected = 0u32;
    for read_idx in 0..3u64 {
        for seed in 0..32u64 {
            let rio = FaultIo::from_image(&image, FaultPlan::corrupt_read_at(seed, read_idx));
            let dynio: Arc<dyn Io> = rio.clone();
            match StorageEngine::open_with_io("/sim/db", SyncMode::Fsync, dynio) {
                Ok(e) => {
                    // Recovery truncated at the break; the engine works.
                    e.catalog_put("post", "open").unwrap();
                    assert_eq!(e.catalog_get("post").as_deref(), Some("open"));
                    opened += 1;
                }
                Err(err) => {
                    // Typed rejection is acceptable; a panic is not.
                    assert!(
                        matches!(err, Error::Io(_) | Error::Storage(_)),
                        "untyped error from corrupt open: {err}"
                    );
                    rejected += 1;
                }
            }
        }
    }
    // The sweep must actually exercise both outcomes somewhere.
    assert!(opened > 0, "no corrupt open ever recovered");
    assert!(rejected > 0, "no corrupt open was ever detected");
}

// ---- torn tail: replay truncates at the first invalid frame ---------------

#[test]
fn wal_replay_truncates_at_torn_tail() {
    // On-disk framing, as `Wal::append` writes it: the CRC covers the
    // LSN *and* the payload, so a flipped LSN is rejected too.
    fn frame(lsn: u64, rec: &WalRecord) -> Vec<u8> {
        let mut body = lsn.to_le_bytes().to_vec();
        rec.encode_into(&mut body);
        let mut out = Vec::with_capacity(body.len() + 8);
        out.extend(((body.len() - 8) as u32).to_le_bytes());
        out.extend(streamrel::storage::crc::crc32(&body).to_le_bytes());
        out.extend(body);
        out
    }

    let mut valid = Vec::new();
    valid.extend(frame(1, &WalRecord::Epoch { epoch: 1, shard: 0 }));
    valid.extend(frame(2, &WalRecord::Commit { xid: 9 }));
    let valid_len = valid.len() as u64;

    // A torn tail: the final record only partially reached the platter.
    let tail = frame(3, &WalRecord::Commit { xid: 10 });
    for cut in 1..tail.len() {
        let mut torn = valid.clone();
        torn.extend(&tail[..cut]);
        let (records, len) = replay_bytes(&torn);
        assert_eq!(records.len(), 2, "torn frame (cut {cut}) must not replay");
        assert_eq!(len, valid_len, "valid prefix ends before the tear");
        assert_eq!(records[1].0, 2, "intact records keep their LSNs");
    }

    // A bit flip inside the tail frame (in the LSN and in the payload):
    // CRC rejects it, replay keeps the intact prefix.
    for at in [valid.len() + 8, valid.len() + 16] {
        let mut flipped = valid.clone();
        flipped.extend(&tail);
        flipped[at] ^= 0x40;
        let (records, len) = replay_bytes(&flipped);
        assert_eq!(records.len(), 2, "CRC-invalid frame must not replay");
        assert_eq!(len, valid_len);
    }
}

/// End-to-end torn tail: crash mid-append with a bit flip in the torn
/// region, reopen, and the engine must come up on the intact prefix and
/// keep working.
#[test]
fn engine_reopens_over_a_torn_bit_flipped_tail() {
    for seed in 0..8u64 {
        let io = FaultIo::new(FaultPlan::crash_at(seed, 6).with_bit_flip());
        let dynio: Arc<dyn Io> = io.clone();
        let mut survived = Vec::new();
        if let Ok(e) = StorageEngine::open_with_io("/sim/db", SyncMode::Fsync, dynio) {
            for i in 0.. {
                if e.catalog_put(&format!("k{i}"), "v").is_err() {
                    break;
                }
                survived.push(format!("k{i}"));
            }
        }
        let image = io.frozen_image().unwrap();
        let rio = FaultIo::from_image(&image, FaultPlan::none(0));
        let dynio: Arc<dyn Io> = rio.clone();
        let e = StorageEngine::open_with_io("/sim/db", SyncMode::Fsync, dynio).unwrap();
        // Every acknowledged put is durable (Fsync mode) and readable.
        for k in &survived {
            assert_eq!(
                e.catalog_get(k).as_deref(),
                Some("v"),
                "seed {seed}: lost {k}"
            );
        }
        e.catalog_put("post", "crash").unwrap();
    }
}

// ---- observability: fault metrics in streamrel_metrics --------------------

/// `fault.injected.*` and `wal.poisoned` are first-class instruments:
/// they appear in the `streamrel_metrics` relation through the SQL
/// surface and are re-registered after a restart replaces the whole
/// metrics registry.
#[test]
fn fault_metrics_appear_and_survive_registry_restart() {
    let expected = [
        "fault.injected.crashes",
        "fault.injected.sync_errors",
        "fault.injected.short_writes",
        "fault.injected.disk_full",
        "fault.injected.corrupt_reads",
        "wal.poisoned",
    ];
    let names = |db: &Db| -> Vec<String> {
        let rel = db
            .execute("SELECT name FROM streamrel_metrics")
            .unwrap()
            .rows();
        rel.rows()
            .iter()
            .filter_map(|r| match r.first() {
                Some(Value::Text(s)) => Some(s.to_string()),
                _ => None,
            })
            .collect()
    };

    let io = FaultIo::new(FaultPlan::none(11));
    let dynio: Arc<dyn Io> = io.clone();
    let db = Db::open_with_io("/sim/db", DbOptions::default(), dynio).unwrap();
    db.execute("CREATE TABLE t (v bigint)").unwrap();
    let got = names(&db);
    for n in expected {
        assert!(
            got.iter().any(|g| g == n),
            "{n} missing from streamrel_metrics"
        );
    }
    drop(db);

    // Restart: Db::open_with_io builds a fresh Registry; binding the Io
    // and opening the WAL must re-register every fault instrument.
    let image = io.image();
    let rio = FaultIo::from_image(&image, FaultPlan::none(0));
    let dynio: Arc<dyn Io> = rio.clone();
    let db = Db::open_with_io("/sim/db", DbOptions::default(), dynio).unwrap();
    let got = names(&db);
    for n in expected {
        assert!(
            got.iter().any(|g| g == n),
            "{n} missing after registry restart"
        );
    }
}

// ---- the tick's order: a log failure after the fold -----------------------

/// A batch is folded, then archived, then delivered. A log write that
/// fails at the archive — after the fold — poisons the commit domain and
/// delivers no window of the batch; a reopen holds exactly the batches
/// whose archive committed.
#[test]
fn a_log_failure_after_the_fold_delivers_no_window_of_the_batch() {
    use streamrel::types::time::MINUTES;
    let opts = || DbOptions::default().with_sync(SyncMode::Fsync);
    let open = |io: &Arc<FaultIo>| {
        let dynio: Arc<dyn Io> = io.clone();
        Db::open_with_io("/sim/db", opts(), dynio).unwrap()
    };
    let setup = FaultIo::new(FaultPlan::none(0));
    {
        let db = open(&setup);
        for ddl in [
            "CREATE STREAM s (k integer, ts timestamp CQTIME USER)",
            "CREATE TABLE raw (k integer, ts timestamp)",
            "CREATE CHANNEL raw_ch FROM s INTO raw APPEND",
        ] {
            db.execute(ddl).unwrap();
        }
    }
    // The reopen writes nothing, so the fourth append is the fourth
    // batch's commit.
    let io = FaultIo::from_image(&setup.image(), FaultPlan::disk_full_at(3, 3));
    let db = open(&io);
    let sub = db
        .execute("SELECT count(*) c FROM s <TUMBLING '1 minute'>")
        .unwrap()
        .subscription();
    let tuple = |m: i64| vec![Value::Int(m), Value::Timestamp(m * MINUTES + 1)];
    let mut acked = Vec::new();
    for m in 0..8 {
        match db.ingest("s", tuple(m)) {
            Ok(()) => {
                let windows = db.poll(sub).unwrap().len();
                assert_eq!(windows, usize::from(m > 0), "batch {m} closes one window");
                acked.push(Value::Int(m));
            }
            Err(err) => {
                assert!(
                    matches!(&err, Error::Io(e) if e.contains("ENOSPC")),
                    "{err}"
                );
                break;
            }
        }
    }
    assert_eq!(acked.len(), 3, "the fault lands on the fourth batch");
    assert!(db.engine().wal_poisoned());
    assert!(
        db.poll(sub).unwrap().is_empty(),
        "no window of the failed batch"
    );
    let image = io.image();
    drop(db);
    let db = open(&FaultIo::from_image(&image, FaultPlan::none(0)));
    let raw = db.execute("SELECT k FROM raw ORDER BY k").unwrap().rows();
    let got: Vec<Value> = raw.rows().iter().map(|r| r[0].clone()).collect();
    assert_eq!(got, acked, "the reopen holds the committed cut");
}
