//! SQL surface conformance through the public API: the statement forms,
//! expression machinery, and error behaviour a user of the system touches.

use streamrel::types::{Relation, Value};
use streamrel::{Db, DbOptions, ExecResult};

fn db() -> Db {
    Db::in_memory(DbOptions::default())
}

fn rows(db: &Db, sql: &str) -> Relation {
    db.execute(sql).unwrap().rows()
}

fn seeded() -> Db {
    let db = db();
    db.execute(
        "CREATE TABLE emp (id integer, name varchar(32), dept varchar(16), \
         salary float, hired timestamp)",
    )
    .unwrap();
    db.execute(
        "INSERT INTO emp VALUES \
         (1, 'ada', 'eng', 120.0, '2020-01-15'), \
         (2, 'bob', 'eng', 95.5, '2021-06-01'), \
         (3, 'cyd', 'ops', 80.0, '2019-03-20'), \
         (4, 'dee', 'ops', 85.0, '2022-11-05'), \
         (5, 'eli', 'mkt', 70.0, '2023-02-14')",
    )
    .unwrap();
    db
}

#[test]
fn scalar_expressions() {
    let db = db();
    let r = rows(
        &db,
        "SELECT 1 + 2 * 3, 10 / 4, 10 % 3, -5, 2.5 * 2, 'a' || 'b' || 'c', \
         upper('x'), lower('Y'), length('héllo'), abs(-7), \
         coalesce(null, null, 42), nullif(1, 1), greatest(3, 9, 5), \
         least(3, 9, 5), substr('continuous', 1, 4), round(2.7), \
         floor(2.7), ceil(2.1)",
    );
    assert_eq!(
        r.rows()[0],
        vec![
            Value::Int(7),
            Value::Int(2),
            Value::Int(1),
            Value::Int(-5),
            Value::Float(5.0),
            Value::text("abc"),
            Value::text("X"),
            Value::text("y"),
            Value::Int(5),
            Value::Int(7),
            Value::Int(42),
            Value::Null,
            Value::Int(9),
            Value::Int(3),
            Value::text("cont"),
            Value::Float(3.0),
            Value::Float(2.0),
            Value::Float(3.0),
        ]
    );
}

#[test]
fn predicates_and_case() {
    let db = seeded();
    let r = rows(
        &db,
        "SELECT name FROM emp WHERE salary BETWEEN 80 AND 100 \
         AND dept IN ('eng', 'ops') AND name NOT LIKE 'c%' ORDER BY name",
    );
    assert_eq!(r.len(), 2); // bob, dee
    let r = rows(
        &db,
        "SELECT name, CASE WHEN salary >= 100 THEN 'high' \
         WHEN salary >= 80 THEN 'mid' ELSE 'low' END band \
         FROM emp ORDER BY id",
    );
    assert_eq!(r.rows()[0][1], Value::text("high"));
    assert_eq!(r.rows()[2][1], Value::text("mid"));
    assert_eq!(r.rows()[4][1], Value::text("low"));
}

#[test]
fn aggregates_and_grouping() {
    let db = seeded();
    let r = rows(
        &db,
        "SELECT dept, count(*) n, sum(salary) total, avg(salary) mean, \
         min(salary) lo, max(salary) hi FROM emp GROUP BY dept \
         HAVING count(*) >= 2 ORDER BY dept",
    );
    assert_eq!(r.len(), 2);
    assert_eq!(r.rows()[0][0], Value::text("eng"));
    assert_eq!(r.rows()[0][1], Value::Int(2));
    assert_eq!(r.rows()[0][2], Value::Float(215.5));
    assert_eq!(r.rows()[1][4], Value::Float(80.0));
    // count(distinct).
    let r = rows(&db, "SELECT count(distinct dept) FROM emp");
    assert_eq!(r.rows()[0][0], Value::Int(3));
}

#[test]
fn order_by_forms() {
    let db = seeded();
    // Alias, ordinal, hidden input column, expression over output.
    let by_alias = rows(
        &db,
        "SELECT name, salary s FROM emp ORDER BY s DESC LIMIT 1",
    );
    assert_eq!(by_alias.rows()[0][0], Value::text("ada"));
    let by_ordinal = rows(&db, "SELECT name, salary FROM emp ORDER BY 2 DESC LIMIT 1");
    assert_eq!(by_ordinal.rows()[0][0], Value::text("ada"));
    let hidden = rows(&db, "SELECT name FROM emp ORDER BY salary LIMIT 1");
    assert_eq!(hidden.rows()[0][0], Value::text("eli"));
    assert_eq!(hidden.schema().len(), 1, "hidden sort column stripped");
    let by_agg = rows(
        &db,
        "SELECT dept FROM emp GROUP BY dept ORDER BY sum(salary) DESC LIMIT 1",
    );
    assert_eq!(by_agg.rows()[0][0], Value::text("eng"));
    // A select item named by its qualified name sorts as itself: no hidden
    // column, so no second Project to strip one.
    let by_alias = rows(&db, "SELECT name FROM emp ORDER BY name");
    let qualified = rows(&db, "SELECT e.name FROM emp e ORDER BY e.name");
    assert_eq!(qualified.rows(), by_alias.rows());
    let plan = rows(&db, "EXPLAIN SELECT e.name FROM emp e ORDER BY e.name");
    let projects = plan
        .rows()
        .iter()
        .filter(|r| r[0].to_string().contains("Project"));
    assert_eq!(projects.count(), 1, "{plan:?}");
    let distinct = rows(&db, "SELECT DISTINCT e.dept FROM emp e ORDER BY e.dept");
    let depts: Vec<_> = distinct.rows().iter().map(|r| r[0].clone()).collect();
    assert_eq!(depts, ["eng", "mkt", "ops"].map(Value::text));
}

#[test]
fn null_semantics() {
    let db = db();
    db.execute("CREATE TABLE t (a integer, b integer)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 10), (2, NULL), (NULL, 30)")
        .unwrap();
    // NULL never equals anything in WHERE.
    assert_eq!(rows(&db, "SELECT * FROM t WHERE a = NULL").len(), 0);
    assert_eq!(rows(&db, "SELECT * FROM t WHERE a IS NULL").len(), 1);
    assert_eq!(rows(&db, "SELECT * FROM t WHERE a IS NOT NULL").len(), 2);
    // Aggregates skip NULLs; count(*) does not.
    let r = rows(&db, "SELECT count(*), count(a), count(b), sum(b) FROM t");
    assert_eq!(
        r.rows()[0],
        vec![Value::Int(3), Value::Int(2), Value::Int(2), Value::Int(40)]
    );
    // GROUP BY puts NULLs in one group; NULL sorts last.
    let r = rows(&db, "SELECT a, count(*) FROM t GROUP BY a ORDER BY a");
    assert_eq!(r.len(), 3);
    assert!(r.rows()[2][0].is_null());
}

#[test]
fn joins_inner_left_self() {
    let db = seeded();
    db.execute("CREATE TABLE dept_info (dept varchar(16), floor integer)")
        .unwrap();
    db.execute("INSERT INTO dept_info VALUES ('eng', 3), ('ops', 1)")
        .unwrap();
    let inner = rows(
        &db,
        "SELECT e.name, d.floor FROM emp e JOIN dept_info d ON e.dept = d.dept \
         ORDER BY e.id",
    );
    assert_eq!(inner.len(), 4, "mkt has no dept_info row");
    let left = rows(
        &db,
        "SELECT e.name, d.floor FROM emp e LEFT JOIN dept_info d \
         ON e.dept = d.dept WHERE e.id = 5",
    );
    assert_eq!(left.rows()[0], vec![Value::text("eli"), Value::Null]);
    // Self join: colleagues in the same department.
    let pairs = rows(
        &db,
        "SELECT a.name, b.name FROM emp a JOIN emp b \
         ON a.dept = b.dept AND a.id < b.id ORDER BY a.id",
    );
    assert_eq!(pairs.len(), 2); // (ada,bob), (cyd,dee)
}

#[test]
fn comma_join_with_where_is_inner_join() {
    let db = seeded();
    db.execute("CREATE TABLE dept_info (dept varchar(16), floor integer)")
        .unwrap();
    db.execute("INSERT INTO dept_info VALUES ('eng', 3)")
        .unwrap();
    let r = rows(
        &db,
        "SELECT e.name FROM emp e, dept_info d \
         WHERE e.dept = d.dept AND d.floor = 3 ORDER BY e.name",
    );
    assert_eq!(r.len(), 2);
}

#[test]
fn subqueries_and_views() {
    let db = seeded();
    let r = rows(
        &db,
        "SELECT t.dept, t.total FROM \
         (SELECT dept, sum(salary) total FROM emp GROUP BY dept) t \
         WHERE t.total > 100 ORDER BY t.total DESC",
    );
    assert_eq!(r.len(), 2);
    db.execute("CREATE VIEW wealthy AS SELECT name, salary FROM emp WHERE salary > 90")
        .unwrap();
    let r = rows(&db, "SELECT count(*) FROM wealthy");
    assert_eq!(r.rows()[0][0], Value::Int(2));
    // Views compose.
    db.execute("CREATE VIEW wealthy_names AS SELECT name FROM wealthy")
        .unwrap();
    assert_eq!(rows(&db, "SELECT * FROM wealthy_names").len(), 2);
}

#[test]
fn distinct_forms() {
    let db = seeded();
    assert_eq!(rows(&db, "SELECT DISTINCT dept FROM emp").len(), 3);
    assert_eq!(
        rows(&db, "SELECT DISTINCT dept, dept FROM emp").len(),
        3,
        "duplicate output names allowed"
    );
}

#[test]
fn temporal_expressions() {
    let db = seeded();
    let r = rows(
        &db,
        "SELECT name FROM emp WHERE hired > '2021-01-01'::timestamp ORDER BY hired",
    );
    assert_eq!(r.len(), 3);
    let r = rows(&db, "SELECT max(hired) - min(hired) FROM emp");
    assert_eq!(
        r.rows()[0][0].data_type(),
        Some(streamrel::types::DataType::Interval)
    );
    let r = rows(&db, "SELECT timestamp '2020-01-15' + interval '1 week'");
    assert_eq!(
        r.rows()[0][0],
        Value::Timestamp(streamrel::types::parse_timestamp("2020-01-22").unwrap())
    );
}

#[test]
fn dml_roundtrip() {
    let db = seeded();
    assert!(matches!(
        db.execute("DELETE FROM emp WHERE dept = 'ops'").unwrap(),
        ExecResult::Deleted(2)
    ));
    assert_eq!(
        rows(&db, "SELECT count(*) FROM emp").rows()[0][0],
        Value::Int(3)
    );
    db.execute("TRUNCATE emp").unwrap();
    assert_eq!(
        rows(&db, "SELECT count(*) FROM emp").rows()[0][0],
        Value::Int(0)
    );
}

#[test]
fn error_quality() {
    let db = seeded();
    let cases: &[(&str, &str)] = &[
        ("SELECT nope FROM emp", "unknown column"),
        ("SELECT * FROM nope", "does not exist"),
        ("SELECT name + 1 FROM emp", "cannot be applied"),
        ("SELECT name, count(*) FROM emp", "GROUP BY"),
        ("SELECT sum(name) FROM emp", "non-numeric"),
        ("SELECT * FROM emp WHERE salary", "must be boolean"),
        ("SELECT cq_close(*) FROM emp", "cq_close"),
        (
            "SELECT * FROM emp <TUMBLING '1 minute'>",
            "not allowed on table",
        ),
        ("CREATE TABLE emp (a integer)", "already"),
    ];
    for (sql, needle) in cases {
        let err = db.execute(sql).unwrap_err().to_string();
        assert!(err.contains(needle), "{sql}: got `{err}`, want `{needle}`");
    }
}

#[test]
fn runtime_errors_surface() {
    let db = db();
    db.execute("CREATE TABLE t (a integer)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (0)").unwrap();
    let err = db.execute("SELECT 10 / a FROM t").unwrap_err();
    assert!(err.to_string().contains("division by zero"), "{err}");
}

#[test]
fn quoted_identifiers_and_case() {
    let db = db();
    db.execute(r#"CREATE TABLE "MixedCase" ("Col A" integer)"#)
        .unwrap();
    db.execute(r#"INSERT INTO "MixedCase" VALUES (1)"#).unwrap();
    // The catalog is case-insensitive throughout (a documented
    // simplification vs PostgreSQL's quoted-exact rule); quoting is for
    // names that are not lexable as identifiers (spaces, keywords).
    assert_eq!(rows(&db, "SELECT * FROM mixedcase").len(), 1);
    let r = rows(&db, r#"SELECT "Col A" FROM "MixedCase""#);
    assert_eq!(r.rows()[0][0], Value::Int(1));
    assert_eq!(r.schema().column(0).name, "Col A");
}

#[test]
fn base_and_derived_streams_refuse_each_others_entry_points() {
    let db = db();
    db.execute("CREATE STREAM s (v integer, ts timestamp CQTIME USER)")
        .unwrap();
    db.execute("CREATE STREAM d AS SELECT count(*) c, cq_close(*) w FROM s <TUMBLING '1 minute'>")
        .unwrap();
    // A derived stream's windows can be subscribed to as-is; a base stream
    // has none, and says so instead of failing in the analyzer.
    let sub = db.subscribe_stream("d").unwrap();
    let err = db.subscribe_stream("s").unwrap_err().to_string();
    assert!(err.contains("`s` is a base stream"), "{err}");
    let err = db.subscribe_stream("nope").unwrap_err().to_string();
    assert!(err.contains("unknown stream"), "{err}");
    // A derived stream is fed by its query alone.
    let row = vec![Value::Int(1), Value::Timestamp(60_000_000)];
    for err in [
        db.ingest("d", row).unwrap_err(),
        db.heartbeat("d", 120_000_000).unwrap_err(),
        db.execute("INSERT INTO d VALUES (1, '1970-01-01 00:01:00')")
            .unwrap_err(),
    ] {
        assert!(err.to_string().contains("`d` is a derived stream"), "{err}");
    }
    db.ingest("s", vec![Value::Int(7), Value::Timestamp(1)])
        .unwrap();
    db.heartbeat("s", 60_000_000).unwrap();
    let outs = db.poll(sub).unwrap();
    assert_eq!(outs.len(), 1, "one window of `d`, passed through");
    assert_eq!(
        outs[0].relation.rows(),
        &[vec![Value::Int(1), Value::Timestamp(60_000_000)]]
    );
}

#[test]
fn row_count_windows_via_sql() {
    let db = db();
    db.execute("CREATE STREAM s (v integer, ts timestamp CQTIME USER)")
        .unwrap();
    let sub = db
        .execute("SELECT sum(v) s FROM s <VISIBLE 3 ROWS ADVANCE 3 ROWS>")
        .unwrap()
        .subscription();
    for i in 0..9i64 {
        db.ingest("s", vec![Value::Int(i), Value::Timestamp(i)])
            .unwrap();
    }
    let outs = db.poll(sub).unwrap();
    assert_eq!(outs.len(), 3);
    assert_eq!(outs[0].relation.rows()[0][0], Value::Int(3)); // 0+1+2
    assert_eq!(outs[2].relation.rows()[0][0], Value::Int(21)); // 6+7+8
}

#[test]
fn multi_statement_script() {
    let db = db();
    let results = db
        .execute_script(
            "-- a comment
             create table a (x integer);
             insert into a values (1);
             create table b (y integer);
             insert into b values (2);
             select a.x + b.y from a, b where true;",
        )
        .unwrap();
    match results.last().unwrap() {
        ExecResult::Rows(r) => assert_eq!(r.rows()[0][0], Value::Int(3)),
        other => panic!("{other:?}"),
    }
}

#[test]
fn explain_shows_plan_and_classification() {
    let db = seeded();
    let r = rows(&db, "EXPLAIN SELECT dept, count(*) FROM emp GROUP BY dept");
    let text: Vec<String> = r.rows().iter().map(|row| row[0].to_string()).collect();
    assert!(text[0].contains("Snapshot Query"), "{text:?}");
    assert!(text.iter().any(|l| l.contains("Aggregate")), "{text:?}");
    assert!(
        text.iter().any(|l| l.contains("TableScan(emp)")),
        "{text:?}"
    );

    db.execute("CREATE STREAM s (v integer, ts timestamp CQTIME USER)")
        .unwrap();
    let r = rows(&db, "EXPLAIN SELECT count(*) FROM s <TUMBLING '1 minute'>");
    assert!(r.rows()[0][0].to_string().contains("Continuous Query"));
}

#[test]
fn explain_check_says_how_a_sliding_view_emits() {
    let db = db();
    db.execute("CREATE STREAM s (k varchar(8), v integer, f float, ts timestamp CQTIME USER)")
        .unwrap();
    let order = |sql: &str| {
        let rel = rows(&db, &format!("EXPLAIN CHECK {sql}"));
        let row = rel.rows().iter().find(|r| r[1] == Value::text("ivm-order"));
        row.map(|r| r[2].to_string())
    };
    let w = "<VISIBLE '1 minute' ADVANCE '1 second'>";
    let keyed = Some("view emits in ORDER BY key order".to_string());
    let seen = Some("first-seen order, sorted per close".to_string());
    let q = |tail: &str| format!("SELECT k, v, count(*) c FROM s {w} GROUP BY k, v {tail}");
    assert_eq!(order(&q("ORDER BY v DESC, k DESC")), keyed);
    assert_eq!(order(&q("ORDER BY k, v, c")), keyed);
    // Mixed directions, a strict prefix, no ORDER BY: first-seen.
    assert_eq!(order(&q("ORDER BY k, v DESC")), seen);
    assert_eq!(order(&q("ORDER BY k")), seen);
    assert_eq!(order(&q("")), seen);
    // A float group key, or float sums (no view at all): first-seen.
    let by_f = format!("SELECT f, count(*) c FROM s {w} GROUP BY f ORDER BY f");
    assert_eq!(order(&by_f), seen);
    let float_sum = format!("SELECT k, sum(f) t FROM s {w} GROUP BY k ORDER BY k");
    assert_eq!(order(&float_sum), seen);
    // Tumbling windows keep no view; snapshot queries have no window.
    let tumbling = "SELECT k, count(*) c FROM s <TUMBLING '1 minute'> GROUP BY k ORDER BY k";
    assert_eq!(order(tumbling), None);
    assert_eq!(order("SELECT 1 one"), None);
}

#[test]
fn show_commands() {
    let db = seeded();
    db.execute("CREATE STREAM s (v integer, ts timestamp CQTIME USER)")
        .unwrap();
    db.execute("CREATE STREAM d AS SELECT count(*) c, cq_close(*) w FROM s <TUMBLING '1 minute'>")
        .unwrap();
    db.execute("CREATE TABLE sink (c bigint, w timestamp)")
        .unwrap();
    db.execute("CREATE CHANNEL ch FROM d INTO sink APPEND")
        .unwrap();
    db.execute("CREATE VIEW v AS SELECT name FROM emp").unwrap();

    let tables = rows(&db, "SHOW TABLES");
    assert!(tables.rows().iter().any(|r| r[0] == Value::text("emp")));
    assert!(tables.rows().iter().any(|r| r[0] == Value::text("sink")));

    let streams = rows(&db, "SHOW STREAMS");
    assert_eq!(streams.len(), 2);
    assert_eq!(
        streams.rows()[0],
        vec![
            Value::text("s"),
            Value::text("base"),
            Value::text("(v integer, ts timestamp not null)"),
        ]
    );
    assert_eq!(streams.rows()[1][1], Value::text("derived"));

    let views = rows(&db, "SHOW VIEWS");
    assert_eq!(views.len(), 1);

    let channels = rows(&db, "SHOW CHANNELS");
    assert_eq!(channels.rows()[0][2], Value::text("APPEND"));
}

#[test]
fn create_table_as() {
    let db = seeded();
    db.execute(
        "CREATE TABLE dept_summary AS \
         SELECT dept, count(*) n, sum(salary) total FROM emp GROUP BY dept",
    )
    .unwrap();
    let r = rows(&db, "SELECT * FROM dept_summary ORDER BY dept");
    assert_eq!(r.len(), 3);
    assert_eq!(r.schema().column(1).name, "n");
    // Continuous CTAS rejected with a pointer to the right tool.
    db.execute("CREATE STREAM s2 (v integer, ts timestamp CQTIME USER)")
        .unwrap();
    let e = db
        .execute("CREATE TABLE x AS SELECT count(*) FROM s2 <TUMBLING '1 minute'>")
        .unwrap_err();
    assert_eq!(
        e.to_string(),
        "analysis error: CREATE TABLE AS requires a snapshot query (use CREATE STREAM \
         ... AS + a channel for continuous results)"
    );
}

#[test]
fn vacuum_and_checkpoint_statements() {
    let db = seeded();
    db.execute("DELETE FROM emp WHERE id <= 2").unwrap();
    match db.execute("VACUUM").unwrap() {
        ExecResult::Deleted(n) => assert_eq!(n, 2),
        other => panic!("{other:?}"),
    }
    // CHECKPOINT on an in-memory db errors cleanly.
    assert!(db.execute("CHECKPOINT").is_err());
}

#[test]
fn variance_and_stddev() {
    let db = db();
    db.execute("CREATE TABLE t (x float)").unwrap();
    db.execute("INSERT INTO t VALUES (2.0), (4.0), (4.0), (4.0), (5.0), (5.0), (7.0), (9.0)")
        .unwrap();
    let r = rows(&db, "SELECT variance(x), stddev(x) FROM t");
    let var = r.rows()[0][0].as_float().unwrap();
    let sd = r.rows()[0][1].as_float().unwrap();
    assert!((var - 32.0 / 7.0).abs() < 1e-9, "var {var}");
    assert!((sd - (32.0f64 / 7.0).sqrt()).abs() < 1e-9, "sd {sd}");
    // Fewer than 2 rows → NULL.
    let r = rows(&db, "SELECT stddev(x) FROM t WHERE x > 8");
    assert!(r.rows()[0][0].is_null());
}

#[test]
fn stddev_works_in_shared_cqs() {
    let db = db();
    db.execute("CREATE STREAM s (v float, ts timestamp CQTIME USER)")
        .unwrap();
    let sub = db
        .execute("SELECT stddev(v) sd FROM s <TUMBLING '1 minute'>")
        .unwrap()
        .subscription();
    for (i, v) in [1.0f64, 2.0, 3.0, 4.0].iter().enumerate() {
        db.ingest("s", vec![Value::Float(*v), Value::Timestamp(i as i64)])
            .unwrap();
    }
    db.heartbeat("s", 60_000_000).unwrap();
    let outs = db.poll(sub).unwrap();
    let sd = outs[0].relation.rows()[0][0].as_float().unwrap();
    let expect = (5.0f64 / 3.0).sqrt(); // sample stddev of 1..4
    assert!((sd - expect).abs() < 1e-9, "{sd} vs {expect}");
}

#[test]
fn create_and_drop_index() {
    let db = seeded();
    db.execute("CREATE INDEX emp_by_dept ON emp (dept)")
        .unwrap();
    assert!(db.engine().index_on("emp", "dept").is_some());
    db.execute("DROP INDEX emp_by_dept").unwrap();
    assert!(db.engine().index_on("emp", "dept").is_none());
    assert!(db.execute("DROP INDEX emp_by_dept").is_err());
    db.execute("DROP INDEX IF EXISTS emp_by_dept").unwrap();
}

#[test]
fn example_5_plan_shape_is_optimized() {
    // Regression guard for the E6 performance fix: the comma join with an
    // equi-condition in WHERE must plan as an inner Join (keys available
    // to hash/index join), not as a Filter over a cross product.
    let db = db();
    db.execute("CREATE STREAM url_stream (url varchar(100), atime timestamp CQTIME USER)")
        .unwrap();
    db.execute(
        "CREATE STREAM urls_now AS SELECT url, count(*) scnt, cq_close(*) stime \
         FROM url_stream <TUMBLING '1 minute'> GROUP BY url",
    )
    .unwrap();
    db.execute("CREATE TABLE urls_archive (url varchar(100), scnt integer, stime timestamp)")
        .unwrap();
    let plan = rows(
        &db,
        "EXPLAIN select c.scnt, h.scnt from \
         (select sum(scnt) as scnt, cq_close(*) as stime \
          from urls_now <slices 1 windows>) c, urls_archive h \
         where c.stime - '1 week'::interval = h.stime",
    );
    let text: Vec<String> = plan.rows().iter().map(|r| r[0].to_string()).collect();
    let joined = text.join("\n");
    assert!(joined.contains("Join(Inner)"), "{joined}");
    assert!(
        !joined.contains("Join(Cross)"),
        "WHERE must merge into the join: {joined}"
    );
    // The filter above the join is gone (merged), so the Join node sits
    // directly under the Project.
    let join_idx = text.iter().position(|l| l.contains("Join")).unwrap();
    assert!(
        !text[..join_idx].iter().any(|l| l.trim() == "Filter"),
        "no residual filter above the join: {joined}"
    );
}

#[test]
fn range_predicates_read_through_an_ordered_index() {
    // The same queries with and without an index on `hired`: the index
    // range path must return exactly what the scan + filter does.
    let queries = [
        "SELECT name FROM emp WHERE hired > timestamp '2020-01-15' AND hired <= timestamp '2022-11-05'",
        "SELECT dept, sum(salary) FROM emp WHERE hired BETWEEN '2019-01-01' AND '2021-12-31' \
         AND salary > 80 GROUP BY dept ORDER BY dept",
        "SELECT name FROM emp WHERE timestamp '2021-06-01' = hired",
        "SELECT name FROM emp WHERE hired > timestamp '2023-01-01' AND hired < timestamp '2020-01-01'",
        "SELECT count(*) FROM emp WHERE hired >= timestamp '2021-01-01' OR id = 1",
    ];
    let db = seeded();
    db.execute("INSERT INTO emp VALUES (6, 'fay', 'mkt', 60.0, NULL)")
        .unwrap();
    let plain: Vec<Relation> = queries.iter().map(|q| rows(&db, q)).collect();
    db.execute("CREATE INDEX emp_by_hired ON emp (hired)")
        .unwrap();
    for (q, want) in queries.iter().zip(&plain) {
        assert_eq!(rows(&db, q).rows(), want.rows(), "{q}");
    }
    assert_eq!(plain[0].len(), 2);
    assert_eq!(plain[3].len(), 0, "crossed bounds are an empty range");
}
