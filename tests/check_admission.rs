//! End-to-end Level-1 admission checks (`streamrel-check` wired into the
//! engine).
//!
//! Table-driven: every rejection rule is exercised through the public SQL
//! surface, each paired with an accepted *near-miss* — a query differing
//! only in the property the rule checks — so the tests pin down rule
//! boundaries, not just rule existence.

use streamrel::types::Value;
use streamrel::{Db, DbOptions, ExecResult};

const DDL_STREAM: &str = "CREATE STREAM hits (url text, atime timestamp CQTIME USER)";
const DDL_TABLE: &str = "CREATE TABLE sites (url text, owner text)";

fn db() -> Db {
    let db = Db::in_memory(DbOptions::default());
    db.execute(DDL_STREAM).unwrap();
    db.execute(DDL_TABLE).unwrap();
    db
}

/// (rule id, rejected query, accepted near-miss).
const CASES: &[(&str, &str, &str)] = &[
    (
        "unbounded-stream",
        "SELECT * FROM hits",
        "SELECT * FROM hits <VISIBLE 100 ROWS ADVANCE 100 ROWS>",
    ),
    (
        "unbounded-join",
        "SELECT h.url FROM hits h JOIN sites s ON h.url = s.url",
        "SELECT h.url FROM hits <VISIBLE '5 minutes' ADVANCE '1 minute'> h \
         JOIN sites s ON h.url = s.url",
    ),
    (
        "unbounded-aggregate",
        "SELECT url, count(*) c FROM hits GROUP BY url",
        "SELECT url, count(*) c FROM hits <TUMBLING '1 minute'> GROUP BY url",
    ),
    (
        "advance-exceeds-visible",
        "SELECT count(*) c FROM hits <VISIBLE '1 minute' ADVANCE '5 minutes'>",
        "SELECT count(*) c FROM hits <VISIBLE '5 minutes' ADVANCE '1 minute'>",
    ),
    (
        "advance-exceeds-visible",
        "SELECT count(*) c FROM hits <VISIBLE 10 ROWS ADVANCE 20 ROWS>",
        "SELECT count(*) c FROM hits <VISIBLE 20 ROWS ADVANCE 10 ROWS>",
    ),
];

#[test]
fn every_rejection_rule_fires_and_its_near_miss_is_admitted() {
    for (rule, bad, good) in CASES {
        let db = db();
        let err = db
            .execute(bad)
            .expect_err(&format!("{bad:?} should be rejected"))
            .to_string();
        assert!(
            err.contains(&format!("check error [{rule}]")),
            "{bad:?}: expected rule {rule}, got: {err}"
        );
        assert!(err.contains("hint:"), "{bad:?}: no fix hint in: {err}");
        // A rejected plan leaves no standing state behind.
        assert_eq!(db.stats().live_subs, 0, "{bad:?} leaked a subscription");
        match db.execute(good) {
            Ok(ExecResult::Subscribed(_)) => {}
            other => panic!("{good:?}: expected subscription, got {other:?}"),
        }
    }
}

#[test]
fn create_derived_stream_is_gated_too() {
    let db = db();
    let err = db
        .execute("CREATE STREAM hot AS SELECT url, count(*) c FROM hits GROUP BY url")
        .unwrap_err()
        .to_string();
    assert!(err.contains("check error [unbounded-aggregate]"), "{err}");
    // The near-miss registers a derived stream.
    db.execute(
        "CREATE STREAM hot AS SELECT url, count(*) c, cq_close(*) w \
         FROM hits <TUMBLING '1 minute'> GROUP BY url",
    )
    .unwrap();
}

#[test]
fn rejections_and_warnings_are_counted() {
    let db = db();
    db.execute("SELECT * FROM hits").unwrap_err();
    db.execute("SELECT * FROM hits").unwrap_err();
    let rel = db
        .execute("SELECT value FROM streamrel_metrics WHERE name = 'check.rejected'")
        .unwrap()
        .rows();
    assert_eq!(rel.rows()[0][0].as_int().unwrap(), 2);
    // An unaligned window admits with a warning.
    db.execute("SELECT count(*) c FROM hits <VISIBLE '5 minutes' ADVANCE '2 minutes'>")
        .unwrap();
    let rel = db
        .execute("SELECT value FROM streamrel_metrics WHERE name = 'check.warned'")
        .unwrap()
        .rows();
    assert!(rel.rows()[0][0].as_int().unwrap() >= 1);
}

#[test]
fn shared_grid_mismatch_warns_but_admits() {
    let db = db();
    // First CQ establishes a 4-minute slice grid and folds real data.
    db.execute("SELECT url, count(*) c FROM hits <TUMBLING '4 minutes'> GROUP BY url")
        .unwrap();
    db.ingest("hits", vec![Value::text("/a"), Value::Timestamp(1)])
        .unwrap();
    // Same shape, 6-minute grid: gcd 6 min does not divide 4 min.
    let rel = db
        .execute(
            "EXPLAIN CHECK SELECT url, count(*) c FROM hits \
             <TUMBLING '6 minutes'> GROUP BY url",
        )
        .unwrap()
        .rows();
    let report: Vec<String> = rel.rows().iter().map(|r| format!("{:?}", r)).collect();
    assert!(
        report.iter().any(|r| r.contains("shared-grid-mismatch")),
        "no shared-grid-mismatch in {report:#?}"
    );
    // It is a warning, not a rejection: registration succeeds.
    db.execute("SELECT url, count(*) c FROM hits <TUMBLING '6 minutes'> GROUP BY url")
        .unwrap();
}

#[test]
fn explain_check_reports_without_registering() {
    let db = db();
    let rel = db
        .execute("EXPLAIN CHECK SELECT * FROM hits")
        .unwrap()
        .rows();
    let cols: Vec<&str> = rel
        .schema()
        .columns()
        .iter()
        .map(|c| c.name.as_str())
        .collect();
    assert_eq!(cols, ["kind", "rule", "detail", "hint", "path"]);
    let dump = format!("{:?}", rel.rows());
    assert!(dump.contains("continuous query"), "{dump}");
    assert!(dump.contains("reject"), "{dump}");
    assert!(dump.contains("unbounded-stream"), "{dump}");
    assert!(dump.contains("state-bound"), "{dump}");
    // EXPLAIN CHECK never registers anything.
    assert_eq!(db.stats().live_subs, 0);

    // Snapshot queries get a clean bill.
    let rel = db
        .execute("EXPLAIN CHECK SELECT * FROM sites")
        .unwrap()
        .rows();
    let dump = format!("{:?}", rel.rows());
    assert!(dump.contains("snapshot query"), "{dump}");
    assert!(dump.contains("\"admit\""), "{dump}");
    assert!(dump.contains("no standing state"), "{dump}");
}

#[test]
fn a_join_state_bound_names_its_match_counts() {
    let db = db();
    let bound = |sql: &str| {
        let rel = db.execute(&format!("EXPLAIN CHECK {sql}")).unwrap().rows();
        let row = rel
            .rows()
            .iter()
            .find(|r| r[0] == Value::text("state-bound"));
        row.map(|r| r[2].to_string()).unwrap_or_default()
    };
    let joined = bound(
        "SELECT h.url, count(*) c FROM hits <VISIBLE '2 minutes' ADVANCE '1 minute'> h \
         JOIN sites s ON h.url = s.url GROUP BY h.url",
    );
    assert!(
        joined.contains("plus one count per distinct join key of `sites`"),
        "{joined}"
    );
    let plain = bound("SELECT url, count(*) c FROM hits <TUMBLING '1 minute'> GROUP BY url");
    assert!(
        plain.contains("each distinct key once per store"),
        "{plain}"
    );
    assert!(
        plain.contains("per-slice aggregate partials by key id"),
        "{plain}"
    );
    assert!(!plain.contains("join key"), "{plain}");
}

#[test]
fn non_monotonic_warning_surfaces_in_explain_check() {
    let db = db();
    let rel = db
        .execute(
            "EXPLAIN CHECK SELECT url FROM hits \
             <VISIBLE 100 ROWS ADVANCE 100 ROWS> ORDER BY url",
        )
        .unwrap()
        .rows();
    let dump = format!("{:?}", rel.rows());
    assert!(dump.contains("non-monotonic-op"), "{dump}");
    assert!(dump.contains("admit with 1 warning"), "{dump}");
}

// ---- cross-CQ state budget -------------------------------------------------

/// hits: url text (64) + atime timestamp (8) = 72 bytes/row.
fn budget_db(limit: u64) -> Db {
    let db = Db::in_memory(DbOptions::default().with_state_budget(limit));
    db.execute(DDL_STREAM).unwrap();
    db.execute(DDL_TABLE).unwrap();
    db
}

#[test]
fn state_budget_admits_until_exhausted_and_releases_on_teardown() {
    // Each CQ buffers 100 rows x 72 bytes = 7200 bytes; cap at two.
    let db = budget_db(15_000);
    let q = "SELECT count(*) c FROM hits <VISIBLE 100 ROWS ADVANCE 100 ROWS>";
    let first = match db.execute(q).unwrap() {
        ExecResult::Subscribed(s) => s,
        other => panic!("expected subscription, got {other:?}"),
    };
    db.execute(q).unwrap();
    // Third would need 21600 > 15000: rejected, with the budget counter bumped.
    let err = db.execute(q).unwrap_err().to_string();
    assert!(err.contains("check error [state-budget]"), "{err}");
    assert!(err.contains("15000"), "{err}");
    let rel = db
        .execute("SELECT value FROM streamrel_metrics WHERE name = 'check.budget_rejected'")
        .unwrap()
        .rows();
    assert_eq!(rel.rows()[0][0].as_int().unwrap(), 1);
    // Tearing one CQ down releases its share; the next admission fits.
    db.unsubscribe(first).unwrap();
    db.execute(q).unwrap();
}

#[test]
fn state_budget_rejects_arrival_rate_dependent_plans() {
    let capped = budget_db(1 << 30);
    // A time window cannot be byte-bounded: rejected under any budget.
    let err = capped
        .execute("SELECT count(*) c FROM hits <TUMBLING '1 minute'>")
        .unwrap_err()
        .to_string();
    assert!(err.contains("check error [state-budget]"), "{err}");
    assert!(err.contains("arrival rate"), "{err}");
    // Without a budget the same plan is admitted (pre-existing behavior).
    let free = db();
    free.execute("SELECT count(*) c FROM hits <TUMBLING '1 minute'>")
        .unwrap();
}

#[test]
fn dropped_derived_stream_releases_its_budget_share() {
    let db = budget_db(8_000);
    db.execute(
        "CREATE STREAM hot AS SELECT url, count(*) c, cq_close(*) w \
         FROM hits <VISIBLE 100 ROWS ADVANCE 100 ROWS> GROUP BY url",
    )
    .unwrap();
    // 7200 of 8000 charged: a second row-window CQ does not fit.
    let err = db
        .execute("SELECT count(*) c FROM hits <VISIBLE 100 ROWS ADVANCE 100 ROWS>")
        .unwrap_err()
        .to_string();
    assert!(err.contains("state-budget"), "{err}");
    db.execute("DROP STREAM hot").unwrap();
    db.execute("SELECT count(*) c FROM hits <VISIBLE 100 ROWS ADVANCE 100 ROWS>")
        .unwrap();
}

#[test]
fn explain_check_surfaces_budget_verdict_without_charging() {
    let db = budget_db(1_000);
    let rel = db
        .execute("EXPLAIN CHECK SELECT count(*) c FROM hits <VISIBLE 100 ROWS ADVANCE 100 ROWS>")
        .unwrap()
        .rows();
    let dump = format!("{:?}", rel.rows());
    assert!(dump.contains("state-budget"), "{dump}");
    assert!(dump.contains("7200"), "{dump}");
    // EXPLAIN CHECK never charges the ledger: a fitting CQ still admits.
    let db = budget_db(8_000);
    db.execute("EXPLAIN CHECK SELECT count(*) c FROM hits <VISIBLE 100 ROWS ADVANCE 100 ROWS>")
        .unwrap();
    db.execute("SELECT count(*) c FROM hits <VISIBLE 100 ROWS ADVANCE 100 ROWS>")
        .unwrap();
}
