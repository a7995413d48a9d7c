//! The verifier verified: the benchmark's reference against the engine's
//! plainest execution path, and the comparison against corrupted input.

use streamrel_core::{Db, DbOptions, SubscriptionId};

use crate::catalogue::{self, Cq};
use crate::deploy::Kind;
use crate::gen::{Disorder, Gen, SEC, SLACK, T0};
use crate::json::{self, Json};
use crate::reference::{compare, hash_rows, reference, release, Delivered};
use crate::report::{END_TO_END, PER_LAYER};

fn subscribe(db: &Db, cqs: &[Cq]) -> Vec<SubscriptionId> {
    cqs.iter()
        .map(|cq| {
            db.execute(&cq.sql)
                .unwrap_or_else(|e| panic!("{}: {e}", cq.sql))
                .subscription()
        })
        .collect()
}

fn drain(db: &Db, subs: &[SubscriptionId], into: &mut [Vec<Delivered>]) {
    for (sub, log) in subs.iter().zip(into) {
        for out in db.poll(*sub).expect("poll") {
            let (hash, rows) = hash_rows(out.relation.rows());
            log.push(Delivered {
                close: out.close,
                hash,
                rows,
                at_ns: 0,
            });
        }
    }
}

/// Run `batches` of seed `seed` through the 16 embedded CQs under `opts`
/// and check every delivered window against the reference.
fn check_embedded(opts: DbOptions, seed: u64, batches: u64) {
    let gen = Gen::new(seed, Disorder::Slack);
    let db = Db::in_memory(opts.with_slack(SLACK));
    db.execute(&catalogue::clicks_ddl()).unwrap();
    for stmt in catalogue::url_dim_ddl() {
        db.execute(&stmt).unwrap();
    }
    let cqs = catalogue::embedded_cqs();
    assert_eq!(cqs.len(), 16);
    let subs = subscribe(&db, &cqs);
    let mut logs = vec![Vec::new(); cqs.len()];
    for b in 0..batches {
        db.ingest_batch("clicks", gen.batch(b)).unwrap();
        drain(&db, &subs, &mut logs);
    }
    let rel = release(&gen, batches, Some(SLACK));
    assert!(rel.late > 0, "the input must hold too-late tuples");
    assert_eq!(db.stats().late_drops, rel.late);
    for (cq, log) in cqs.iter().zip(&logs) {
        let expected = reference(&cq.spec, &rel, &gen);
        assert!(!expected.is_empty(), "{} closed no window", cq.name);
        let m = compare(&cq.name, &expected, log);
        assert_eq!(m.failures(), 0, "{:?}", m.first);
    }
}

#[test]
fn reference_equals_the_plainest_engine_path_on_5000_tuples() {
    // No sharing, no IVM, no worker pool: every window is re-evaluated
    // from its buffered rows on the ingesting thread.
    let plain = DbOptions::default()
        .without_sharing()
        .without_ivm()
        .with_pool_workers(0);
    check_embedded(plain, 11, 20);
}

#[test]
fn reference_equals_the_default_engine_across_full_eviction() {
    // 330 event-seconds: the 300 s windows fill, slide and evict.
    check_embedded(DbOptions::default(), 12, 330);
}

/// The three CQs of the other workloads; the bridge's apply (rows into
/// the local stream, then a heartbeat at the remote close) done by hand.
#[test]
fn reference_equals_the_engine_for_the_tumbling_and_bridged_queries() {
    let batches = 40;
    let gen = Gen::new(13, Disorder::None);
    let producer = Db::in_memory(DbOptions::default());
    producer.execute(&catalogue::clicks_ddl()).unwrap();
    let partials = catalogue::per_url_second("hit_partials", true);
    producer
        .execute(&format!("CREATE STREAM hit_partials AS {}", partials.sql))
        .unwrap();
    let direct = [
        catalogue::narrow_cq(),
        catalogue::per_url_second("wide", false),
    ];
    let mut subs = subscribe(&producer, &direct);
    subs.push(producer.subscribe_stream("hit_partials").unwrap());

    let consumer = Db::in_memory(DbOptions::default());
    consumer
        .execute(
            "CREATE STREAM partials (url varchar(64), scnt integer, stime timestamp CQTIME USER)",
        )
        .unwrap();
    let rollup = catalogue::rollup_cq();
    consumer
        .execute(&format!("CREATE STREAM rollup AS {}", rollup.sql))
        .unwrap();
    let rollup_sub = consumer.subscribe_stream("rollup").unwrap();

    let mut logs = vec![Vec::new(); 3];
    let mut rollup_log = vec![Vec::new()];
    for b in 0..batches {
        producer.ingest_batch("clicks", gen.batch(b)).unwrap();
        let before = logs[2].len();
        // Read the derived stream's windows before `drain` consumes them.
        for out in producer.poll(subs[2]).unwrap() {
            let (hash, rows) = hash_rows(out.relation.rows());
            logs[2].push(Delivered {
                close: out.close,
                hash,
                rows,
                at_ns: 0,
            });
            consumer
                .ingest_batch("partials", out.relation.rows().to_vec())
                .unwrap();
            consumer.heartbeat("partials", out.close).unwrap();
        }
        assert!(logs[2].len() <= before + 1);
        drain(&producer, &subs[..2], &mut logs[..2]);
        drain(&consumer, &[rollup_sub], &mut rollup_log);
    }
    let rel = release(&gen, batches, None);
    assert_eq!(rel.late, 0);
    let specs = [&direct[0], &direct[1], &partials];
    for (cq, log) in specs.iter().zip(&logs) {
        let expected = reference(&cq.spec, &rel, &gen);
        assert_eq!(expected.len() as u64, batches - 1);
        assert_eq!(expected[0].close, T0 + SEC);
        assert_eq!(expected[3].trigger_batch, 4);
        let m = compare(&cq.name, &expected, log);
        assert_eq!(m.failures(), 0, "{:?}", m.first);
    }
    let expected = reference(&rollup.spec, &rel, &gen);
    assert_eq!(expected.len(), 7, "closes T0+5 … T0+35");
    assert_eq!(expected[0].close, T0 + 5 * SEC);
    let m = compare("rollup", &expected, &rollup_log[0]);
    assert_eq!(m.failures(), 0, "{:?}", m.first);
}

#[test]
fn corrupted_missing_duplicated_and_reordered_windows_are_failures() {
    let gen = Gen::new(14, Disorder::None);
    let rel = release(&gen, 12, None);
    let expected = reference(&catalogue::per_url_second("wide", false).spec, &rel, &gen);
    let good: Vec<Delivered> = expected
        .iter()
        .map(|e| Delivered {
            close: e.close,
            hash: e.hash,
            rows: e.rows,
            at_ns: 0,
        })
        .collect();
    assert_eq!(compare("ok", &expected, &good).failures(), 0);

    let mut wrong = good.clone();
    wrong[4].hash ^= 1;
    let m = compare("wrong", &expected, &wrong);
    assert_eq!((m.wrong, m.failures()), (1, 1));
    assert!(m.first.unwrap().contains("window 4"));

    let mut missing = good.clone();
    missing.pop();
    assert_eq!(compare("missing", &expected, &missing).missing, 1);

    let mut duplicated = good.clone();
    duplicated.push(*good.last().unwrap());
    assert_eq!(compare("dup", &expected, &duplicated).unexpected, 1);

    let mut reordered = good;
    reordered.swap(2, 3);
    let m = compare("reordered", &expected, &reordered);
    assert!(m.reordered >= 1 && m.failures() >= 2, "{m:?}");
}

#[test]
fn manifest_matches_what_the_program_prints() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let v = json::parse(&text).unwrap();
    let listed = |key: &str| -> Vec<(String, String)> {
        v.get(key)
            .unwrap()
            .as_arr()
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect()
    };
    let consts = |c: &[(&str, &str)]| -> Vec<(String, String)> {
        c.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), consts(END_TO_END));
    assert_eq!(listed("per_layer"), consts(PER_LAYER));
    let workloads: Vec<&str> = v
        .get("workloads")
        .unwrap()
        .as_arr()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    // `bridged_rollup` runs like the others but is not listed (README:
    // six busy threads on two CPUs measure the scheduler).
    let listed = [Kind::EmbeddedSliding, Kind::WireFanout, Kind::DurableActive];
    assert_eq!(workloads, listed.map(Kind::name));
    assert_eq!(
        v.get("run_seconds").and_then(Json::as_f64),
        Some(crate::DEFAULT_SECONDS)
    );
    // The frozen paced rates are stated in each workload's `why`.
    for (w, kind) in v.get("workloads").unwrap().as_arr().iter().zip(listed) {
        let why = w.get("why").and_then(Json::as_str).unwrap();
        let rate = format!("{} ticks/s", crate::run::paced_ticks_per_s(kind));
        assert!(
            why.contains(&rate),
            "{}: `{why}` lacks `{rate}`",
            kind.name()
        );
    }
}
