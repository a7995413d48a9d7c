//! The frozen query catalogue: every continuous query a workload
//! registers, paired with the reference shape that must reproduce it.
//!
//! Every grouped query carries `ORDER BY <key>`, so row order is SQL
//! semantics and not an accident of the engine's hash maps; the reference
//! emits groups in key order and compares bytes.

use streamrel_types::format_timestamp;

use crate::gen::{url_name, CLICKS_COLUMNS, SEC, URLS};
use crate::reference::{Agg, Col, Filter, Key, RefSpec, Shape, Window};

/// One catalogued continuous query.
#[derive(Debug, Clone)]
pub struct Cq {
    pub name: String,
    pub sql: String,
    pub spec: RefSpec,
}

fn time(visible_s: i64, advance_s: i64) -> Window {
    Window::Time {
        visible_s,
        advance_s,
        shift_s: 0,
    }
}

fn win(visible_s: i64, advance_s: i64) -> String {
    if visible_s == advance_s {
        format!("<TUMBLING '{visible_s} seconds'>")
    } else {
        format!("<VISIBLE '{visible_s} seconds' ADVANCE '{advance_s} seconds'>")
    }
}

fn agg(key: Key, aggs: &[Agg], filter: Filter) -> Shape {
    Shape::Agg {
        key,
        aggs: aggs.to_vec(),
        filter,
        close_col: false,
    }
}

/// The four sliding shapes of `embedded_sliding`: VISIBLE 60–300 s over
/// ADVANCE 1–5 s. Their slice grid is gcd = 1 s.
pub const SLIDING: [(i64, i64); 4] = [(60, 1), (120, 2), (180, 3), (300, 5)];

/// `embedded_sliding`: 16 CQs over `clicks`.
pub fn embedded_cqs() -> Vec<Cq> {
    let mut cqs = Vec::new();
    // 8 grouped count/sum queries: two aggregate signatures over the four
    // sliding shapes — candidates for two shared slice groups.
    for (v, a) in SLIDING {
        cqs.push(Cq {
            name: format!("url_traffic_{v}_{a}"),
            sql: format!(
                "SELECT url, count(*) hits, sum(bytes) volume FROM clicks {} \
                 GROUP BY url ORDER BY url",
                win(v, a)
            ),
            spec: RefSpec {
                window: time(v, a),
                shape: agg(Key::Url, &[Agg::Count, Agg::SumBytes], Filter::All),
            },
        });
    }
    for (v, a) in SLIDING {
        cqs.push(Cq {
            name: format!("status_traffic_{v}_{a}"),
            sql: format!(
                "SELECT status, count(*) hits, sum(bytes) volume FROM clicks {} \
                 GROUP BY status ORDER BY status",
                win(v, a)
            ),
            spec: RefSpec {
                window: time(v, a),
                shape: agg(Key::Status, &[Agg::Count, Agg::SumBytes], Filter::All),
            },
        });
    }
    // 4 exact queries outside those two signatures: DISTINCT counts, a
    // stream-table join and min/max.
    cqs.push(Cq {
        name: "unique_visitors".into(),
        sql: format!(
            "SELECT count(distinct client_ip) visitors FROM clicks {}",
            win(60, 1)
        ),
        spec: RefSpec {
            window: time(60, 1),
            shape: agg(Key::None, &[Agg::DistinctIps], Filter::All),
        },
    });
    cqs.push(Cq {
        name: "pages_per_status".into(),
        sql: format!(
            "SELECT status, count(distinct url) pages FROM clicks {} \
             GROUP BY status ORDER BY status",
            win(60, 1)
        ),
        spec: RefSpec {
            window: time(60, 1),
            shape: agg(Key::Status, &[Agg::DistinctUrls], Filter::All),
        },
    });
    cqs.push(Cq {
        name: "catalogued_hits".into(),
        sql: format!(
            "SELECT c.url, count(*) hits FROM clicks {} c \
             JOIN url_dim d ON c.url = d.url GROUP BY c.url ORDER BY c.url",
            win(60, 1)
        ),
        spec: RefSpec {
            window: time(60, 1),
            shape: agg(Key::Url, &[Agg::Count], Filter::UrlInDim),
        },
    });
    cqs.push(Cq {
        name: "size_range".into(),
        sql: format!(
            "SELECT url, min(bytes) smallest, max(bytes) largest FROM clicks {} \
             GROUP BY url ORDER BY url",
            win(120, 2)
        ),
        spec: RefSpec {
            window: time(120, 2),
            shape: agg(Key::Url, &[Agg::MinBytes, Agg::MaxBytes], Filter::All),
        },
    });
    // 4 queries no incremental path takes: a non-aggregate
    // filter/project, float averages and a row window.
    cqs.push(Cq {
        name: "server_errors".into(),
        sql: "SELECT url, client_ip, bytes, atime FROM clicks <TUMBLING '1 second'> \
              WHERE status = 500"
            .into(),
        spec: RefSpec {
            window: time(1, 1),
            shape: Shape::Rows {
                filter: Filter::Status500,
                cols: vec![Col::Url, Col::Ip, Col::Bytes, Col::Atime],
            },
        },
    });
    cqs.push(Cq {
        name: "mean_latency".into(),
        sql: format!(
            "SELECT avg(latency) mean, count(*) hits FROM clicks {}",
            win(60, 1)
        ),
        spec: RefSpec {
            window: time(60, 1),
            shape: agg(Key::None, &[Agg::AvgLatency, Agg::Count], Filter::All),
        },
    });
    cqs.push(Cq {
        name: "latency_per_status".into(),
        sql: format!(
            "SELECT status, avg(latency) mean FROM clicks {} GROUP BY status ORDER BY status",
            win(30, 1)
        ),
        spec: RefSpec {
            window: time(30, 1),
            shape: agg(Key::Status, &[Agg::AvgLatency], Filter::All),
        },
    });
    cqs.push(Cq {
        name: "last_thousand".into(),
        sql: "SELECT count(*) hits, sum(bytes) volume FROM clicks \
              <VISIBLE 1000 ROWS ADVANCE 250 ROWS>"
            .into(),
        spec: RefSpec {
            window: Window::Rows {
                visible: 1000,
                advance: 250,
            },
            shape: agg(Key::None, &[Agg::Count, Agg::SumBytes], Filter::All),
        },
    });
    cqs
}

/// `wire_fanout`: the one-row CQ that 1000 members attach to.
pub fn narrow_cq() -> Cq {
    Cq {
        name: "narrow".into(),
        sql: "SELECT count(*) hits FROM clicks <TUMBLING '1 second'>".into(),
        spec: RefSpec {
            window: time(1, 1),
            shape: agg(Key::None, &[Agg::Count], Filter::All),
        },
    }
}

/// The per-URL 1-second count: `wire_fanout`'s wide CQ (8 members), and
/// the select list of `durable_active`'s `urls_now` and
/// `bridged_rollup`'s `hit_partials` derived streams.
pub fn per_url_second(name: &str, stamp_close: bool) -> Cq {
    Cq {
        name: name.into(),
        sql: format!(
            "SELECT url, count(*) scnt{} FROM clicks <TUMBLING '1 second'> \
             GROUP BY url ORDER BY url",
            if stamp_close {
                ", cq_close(*) stime"
            } else {
                ""
            }
        ),
        spec: RefSpec {
            window: time(1, 1),
            shape: Shape::Agg {
                key: Key::Url,
                aggs: vec![Agg::Count],
                filter: Filter::All,
                close_col: stamp_close,
            },
        },
    }
}

/// `bridged_rollup`: the consumer's 5-second re-aggregation of bridged
/// 1-second partials.
pub fn rollup_cq() -> Cq {
    Cq {
        name: "rollup".into(),
        sql: "SELECT url, sum(scnt) hits, cq_close(*) w FROM partials <TUMBLING '5 seconds'> \
              GROUP BY url ORDER BY url"
            .into(),
        spec: RefSpec {
            window: Window::Time {
                visible_s: 5,
                advance_s: 5,
                shift_s: 1,
            },
            shape: Shape::Agg {
                key: Key::Url,
                aggs: vec![Agg::Count],
                filter: Filter::All,
                close_col: true,
            },
        },
    }
}

/// `url_dim`: one row per even url id (so the join filters half the
/// clicks), 20 categories.
pub fn url_dim_ddl() -> Vec<String> {
    let mut out = vec!["CREATE TABLE url_dim (url varchar(64), category varchar(16))".to_string()];
    let ids: Vec<usize> = (0..URLS).step_by(2).collect();
    for chunk in ids.chunks(100) {
        let values: Vec<String> = chunk
            .iter()
            .map(|i| format!("('{}', 'cat{:02}')", url_name(*i), i % 20))
            .collect();
        out.push(format!("INSERT INTO url_dim VALUES {}", values.join(", ")));
    }
    out
}

/// `bridged_rollup`'s snapshot query, on the consumer's REPLACE table.
pub const ROLLUP_QUERY: &str =
    "SELECT url, hits FROM rollup_current ORDER BY hits DESC, url LIMIT 10";

/// The snapshot query the `url_dim` deployments answer.
pub const URL_DIM_QUERY: &str =
    "SELECT category, count(*) pages FROM url_dim GROUP BY category ORDER BY category";

pub fn clicks_ddl() -> String {
    format!("CREATE STREAM clicks ({CLICKS_COLUMNS})")
}

/// `durable_active`: the raw archive, the derived per-second counts with
/// their APPEND and REPLACE Active Tables, and a one-row table naming the
/// newest closed second (the probe side of the indexed point lookup).
pub fn durable_ddl() -> Vec<String> {
    vec![
        clicks_ddl(),
        "CREATE TABLE clicks_raw (url varchar(64), client_ip varchar(32), status integer, \
         bytes integer, latency float, atime timestamp)"
            .into(),
        "CREATE CHANNEL raw_chan FROM clicks INTO clicks_raw APPEND".into(),
        format!(
            "CREATE STREAM urls_now AS {}",
            per_url_second("urls_now", true).sql
        ),
        "CREATE TABLE urls_archive (url varchar(64), scnt integer, stime timestamp)".into(),
        "CREATE INDEX urls_archive_stime ON urls_archive (stime)".into(),
        "CREATE CHANNEL archive_chan FROM urls_now INTO urls_archive APPEND".into(),
        "CREATE TABLE urls_current (url varchar(64), scnt integer, stime timestamp)".into(),
        "CREATE CHANNEL current_chan FROM urls_now INTO urls_current REPLACE".into(),
        "CREATE STREAM tick_now AS SELECT count(*) n, cq_close(*) stime \
         FROM clicks <TUMBLING '1 second'>"
            .into(),
        "CREATE TABLE tick_current (n integer, stime timestamp)".into(),
        "CREATE CHANNEL tick_chan FROM tick_now INTO tick_current REPLACE".into(),
    ]
}

/// How many kinds of snapshot query `durable_active` rotates through.
pub const DURABLE_QUERY_KINDS: u64 = 3;

/// `durable_active`'s snapshot query number `n`: an index point lookup on
/// `stime` (an index nested-loop join from the one-row `tick_current`),
/// the top 10 of `urls_current`, and a 60-window range aggregate over
/// `urls_archive` ending at `newest`.
pub fn durable_query(n: u64, newest: i64) -> String {
    match n % DURABLE_QUERY_KINDS {
        0 => "SELECT a.url, a.scnt FROM tick_current t \
              JOIN urls_archive a ON a.stime = t.stime ORDER BY a.url"
            .to_string(),
        1 => "SELECT url, scnt FROM urls_current ORDER BY scnt DESC, url LIMIT 10".to_string(),
        _ => format!(
            "SELECT url, sum(scnt) total FROM urls_archive \
             WHERE stime > timestamp '{}' AND stime <= timestamp '{}' \
             GROUP BY url ORDER BY total DESC, url LIMIT 10",
            format_timestamp(newest - 60 * SEC),
            format_timestamp(newest)
        ),
    }
}
