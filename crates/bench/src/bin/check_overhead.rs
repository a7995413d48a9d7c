//! check_overhead — what the Level-1 admission analysis costs at CQ
//! registration.
//!
//! A CQ registers once and runs for days, so the admission check can
//! afford to be thorough — but not unboundedly so: interactive clients
//! register subscriptions on connect, and DDL replay at recovery runs the
//! gate for every persisted derived stream. This harness runs
//! `check_plan` over a set of representative plan shapes (windowed scan,
//! shared-shape aggregate, stream-table join, raw-stream sort, the same
//! aggregate on a grid the live store cannot take, and a rejected
//! unbounded plan) against the stream's live store set — one pooled
//! store with data in it, as the engine hands `check_plan` under the
//! shard lock — and fails if the mean per-plan analysis exceeds 1 ms.

#![deny(unsafe_code)]

use std::sync::Arc;

use streamrel_bench::{fmt_dur, scale, timed, ResultTable};
use streamrel_check::{check_plan, CheckContext};
use streamrel_cq::shared::place;
use streamrel_cq::SharedRegistry;
use streamrel_sql::analyzer::SchemaProvider;
use streamrel_sql::plan::SchemaRef;
use streamrel_sql::{parse_statement, Analyzer, LogicalPlan, RelKind, Statement};
use streamrel_types::schema::{Column, Schema};
use streamrel_types::{row, DataType, Value};

/// Acceptance bound: mean analysis time per CQ registration.
const MAX_PER_CQ_US: f64 = 1_000.0; // 1 ms

struct BenchProvider;

impl SchemaProvider for BenchProvider {
    fn relation(&self, name: &str) -> Option<(SchemaRef, RelKind)> {
        match name {
            "hits" => Some((
                Arc::new(Schema::new_unchecked(vec![
                    Column::new("ts", DataType::Timestamp),
                    Column::new("url", DataType::Text),
                    Column::new("bytes", DataType::Int),
                ])),
                RelKind::Stream { cqtime: Some(0) },
            )),
            "sites" => Some((
                Arc::new(Schema::new_unchecked(vec![
                    Column::new("url", DataType::Text),
                    Column::new("owner", DataType::Text),
                ])),
                RelKind::Table,
            )),
            _ => None,
        }
    }
}

const QUERIES: &[&str] = &[
    "SELECT url, bytes FROM hits <VISIBLE '5 minutes' ADVANCE '1 minute'>",
    "SELECT url, count(*) c, sum(bytes) b FROM hits <TUMBLING '1 minute'> GROUP BY url",
    "SELECT h.url, s.owner FROM hits <VISIBLE 100 ROWS ADVANCE 10 ROWS> h \
     JOIN sites s ON h.url = s.url",
    "SELECT url FROM hits <VISIBLE '2 minutes' ADVANCE '1 minute'> ORDER BY url",
    // Same shape as the tumbling aggregate, finer grid: shared-grid-mismatch.
    "SELECT url, count(*) c, sum(bytes) b FROM hits \
     <VISIBLE '90 seconds' ADVANCE '30 seconds'> GROUP BY url",
    "SELECT url, count(*) c FROM hits GROUP BY url", // rejected: unbounded
];

fn plan_of(sql: &str) -> LogicalPlan {
    let Statement::Select(q) = parse_statement(sql).expect("parse") else {
        panic!("not a select: {sql}");
    };
    Analyzer::new(&BenchProvider)
        .analyze(&q)
        .expect("analyze")
        .plan
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("check_overhead: Level-1 admission analysis per CQ registration\n");
    let iters = 2_000 * scale();
    let plans: Vec<LogicalPlan> = QUERIES.iter().map(|q| plan_of(q)).collect();
    // `hits`' store set: the tumbling aggregate's pooled store, its
    // one-minute grid pinned by a folded tuple.
    let mut registry = SharedRegistry::default();
    let program = place(&plans[1], true, true, None).program;
    let program = program.expect("the tumbling aggregate lowers");
    registry.join(&program, true);
    let pinned = registry.advance(
        &Arc::from([row![Value::Timestamp(1), "/a", 10i64]]),
        None,
        None,
    );
    if let Some((_, e)) = pinned.failed.into_iter().next() {
        return Err(e.into());
    }
    let ctx = CheckContext {
        sharing: true,
        ivm: true,
        registry: Some(&registry),
        budget: None,
    };

    // Warm-up plus sanity: the unbounded plan must be the one rejection.
    let rejected = plans
        .iter()
        .filter(|p| check_plan(p, &ctx).rejection().is_some())
        .count();
    assert_eq!(rejected, 1, "exactly one bench plan is unadmissible");
    let mismatched = plans
        .iter()
        .flat_map(|p| check_plan(p, &ctx).findings)
        .filter(|f| f.rule == "shared-grid-mismatch")
        .count();
    assert_eq!(mismatched, 1, "the live grid is what the rule reads");

    let (checks, total) = timed(|| {
        let mut n = 0u64;
        for _ in 0..iters {
            for p in &plans {
                // The report is the registration gate's entire cost.
                let report = check_plan(p, &ctx);
                n += report.findings.len() as u64;
            }
        }
        n
    });
    let per_cq_us = total.as_secs_f64() * 1e6 / (iters * plans.len()) as f64;

    let mut table = ResultTable::new(&["plans", "checks run", "total", "mean per CQ"]);
    table.row(&[
        plans.len().to_string(),
        (iters * plans.len()).to_string(),
        fmt_dur(total),
        format!("{per_cq_us:.2} us"),
    ]);
    table.print();
    let _ = checks;

    println!(
        "\nshape check: registration-time analysis must stay under \
         {:.0} us ({} ms) per CQ.",
        MAX_PER_CQ_US,
        MAX_PER_CQ_US / 1_000.0
    );
    assert!(
        per_cq_us < MAX_PER_CQ_US,
        "admission analysis costs {per_cq_us:.2} us per CQ, over the 1 ms bound"
    );
    Ok(())
}
