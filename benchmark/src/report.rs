//! Metric names, units and how each is computed from what a run measured.
//!
//! `BENCHMARK.json` lists exactly these names; `tests::manifest_matches`
//! keeps the two in step.

use std::collections::HashMap;

use crate::deploy::Kind;
use crate::gen::BATCH;
use crate::layers::{Costs, COMPOSE_NS_PER_ROW_SLICE};
use crate::run::Outcome;
use crate::stats::{mean, median, quantile};
use crate::trace::Span;

/// `(name, unit)` of every end-to-end metric, in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("tuples_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

pub fn end_to_end(o: &Outcome) -> Vec<(&'static str, f64)> {
    vec![
        ("setup_s", o.setup_s()),
        ("tuples_per_s", o.saturate.tuples_per_s()),
        ("peak_rss_mb", o.peak_rss_mb),
    ]
}

/// `(name, unit)` of every per-layer metric; the prefix is the crate.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.ingest_encode_ns_per_tuple", "ns"),
    ("net.ingest_decode_ns_per_tuple", "ns"),
    ("net.ingest_rtt_p50_us", "us"),
    ("net.window_encode_us", "us"),
    ("net.window_decode_us", "us"),
    ("net.deliver_us_per_member", "us"),
    ("net.narrow_deliver_p50_us", "us"),
    ("net.wide_deliver_p50_us", "us"),
    ("net.register_us_per_member", "us"),
    ("net.fanout_encodes_per_window", "count"),
    ("net.frames_out_per_window", "count"),
    ("net.reactor_wakeups_per_window", "count"),
    ("net.outbox_drops", "count"),
    ("net.delivery_lost", "count"),
    ("net.bridge_windows_per_s", "1/s"),
    ("net.bridge_lag_p50_windows", "count"),
    ("net.bridge_reconnects", "count"),
    ("net.replay_windows_per_s", "1/s"),
    ("sql.parse_us_per_stmt", "us"),
    ("sql.analyze_us_per_stmt", "us"),
    ("check.plan_us_per_cq", "us"),
    ("cq.reorder_ns_per_tuple", "ns"),
    ("cq.stage_ns_per_tuple", "ns"),
    ("cq.task_run_us_per_window", "us"),
    ("cq.shared_fold_ns_per_tuple", "ns"),
    ("cq.shared_compose_us_per_window", "us"),
    ("cq.pool_dispatch_us_per_batch", "us"),
    ("cq.windows_closed", "count"),
    ("cq.shared_members", "count"),
    ("cq.late_drops", "count"),
    ("ivm.fold_ns_per_tuple", "ns"),
    ("ivm.compose_us_per_window", "us"),
    ("ivm.state_bytes", "count"),
    ("ivm.delta_rows", "count"),
    ("ivm.lowered_cqs", "count"),
    ("ivm.fallback_cqs", "count"),
    ("exec.reeval_us_per_window", "us"),
    ("exec.snapshot_query_us", "us"),
    ("exec.plans_run", "count"),
    ("exec.rows_out", "count"),
    ("storage.insert_ns_per_row", "ns"),
    ("storage.commit_us", "us"),
    ("storage.wal_append_ns_per_record", "ns"),
    ("storage.wal_bytes_per_tuple", "count"),
    ("storage.group_commit_batch_mean", "count"),
    ("storage.fsync_us_p50", "us"),
    ("storage.scan_ns_per_row", "ns"),
    ("storage.index_lookup_us", "us"),
    ("storage.checkpoint_ms", "ms"),
    ("storage.recover_ms", "ms"),
    ("core.snapshot_query_p50_us", "us"),
    ("core.ingest_call_p50_us", "us"),
    ("core.ingest_call_p95_us", "us"),
    ("core.poll_us_per_window", "us"),
    ("core.subscribe_us_per_cq", "us"),
    ("core.shard_contention", "count"),
    ("core.sub_drops", "count"),
    ("core.rows_archived", "count"),
    ("core.serial_ratio", "ratio"),
    ("obs.metrics_scan_us", "us"),
    ("loadgen.gen_ns_per_tuple", "ns"),
    ("loadgen.offered_tuples_per_s", "1/s"),
    ("loadgen.cpu_s_per_mtuple", "s"),
    ("loadgen.late_p95_us", "us"),
    ("loadgen.latency_p50_us", "us"),
    ("loadgen.latency_p95_us", "us"),
    ("loadgen.latency_p99_us", "us"),
    ("loadgen.late_windows", "count"),
    ("trace.overhead_share", "ratio"),
    ("trace.attributed_share", "ratio"),
    ("trace.share_compute", "ratio"),
    ("trace.share_net", "ratio"),
    ("trace.share_storage", "ratio"),
    ("trace.share_bridge", "ratio"),
];

/// What a traced run gathered: its workload's run, what the live
/// deployment told afterwards, and the standalone unit costs.
pub struct Traced {
    pub kind: Kind,
    pub run: Outcome,
    pub shared_members: u64,
    pub costs: Costs,
    /// `durable_active` only; 0 elsewhere.
    pub recover_ms: f64,
    /// `bridged_rollup` only; 0 elsewhere.
    pub replay_windows_per_s: f64,
    /// `embedded_sliding` only; 0 elsewhere.
    pub serial_ratio: f64,
}

fn span_us<'a>(spans: impl Iterator<Item = &'a Span>) -> Vec<f64> {
    spans.map(Span::us).collect()
}

fn per(n: f64, d: f64) -> f64 {
    if d > 0.0 {
        n / d
    } else {
        0.0
    }
}

/// Seconds of work the standalone unit costs explain in the run's
/// timed interval, by layer group: `[compute, net, storage, bridge,
/// loadgen]`, compute being `cq` + `ivm` + `exec`.
///
/// Counts the run observed (tuples, window rows, rows archived, copies
/// delivered, windows bridged) times the cost of the primitive that
/// handles each. What no primitive is replayed for — DISTINCT set merges,
/// re-evaluated windows, locks, wake-ups, socket calls — stays
/// unattributed, and `trace.attributed_share` says how much that is.
fn attributed_seconds(t: &Traced) -> [f64; 5] {
    let o = &t.run;
    let c = |k: &str| t.costs.get(k).copied().unwrap_or(0.0);
    let tuples = (o.timed_ticks * BATCH) as f64;
    // Each tuple is folded once per aggregate signature (7 among the 16
    // catalogued CQs; the derived streams of the other workloads keep 1
    // or 2) and reordered where slack is configured.
    let (signatures, reorder) = match t.kind {
        Kind::EmbeddedSliding => (7.0, c("cq.reorder_ns_per_tuple")),
        Kind::DurableActive => (2.0, 0.0),
        _ => (1.0, 0.0),
    };
    let row_slices: f64 = o.feeds.iter().map(|f| f.timed_rows as f64 * f.slices).sum();
    let compute = (tuples * (reorder + signatures * c("cq.shared_fold_ns_per_tuple"))
        + o.metric_delta("ivm.delta.rows") as f64 * c("ivm.fold_ns_per_tuple")
        + row_slices * c(COMPOSE_NS_PER_ROW_SLICE))
        * 1e-9;

    let mut net = 0.0;
    if matches!(t.kind, Kind::WireFanout | Kind::BridgedRollup) {
        net += tuples
            * (c("net.ingest_encode_ns_per_tuple") + c("net.ingest_decode_ns_per_tuple"))
            * 1e-9;
    }
    if t.kind == Kind::WireFanout {
        // One encode per window; per copy, what the run itself measured
        // between a window's first and last copy.
        for f in &o.feeds {
            let per_copy_us = per(median(&f.spread_us), f.copies.saturating_sub(1) as f64);
            net += f.timed_windows as f64
                * (c("net.window_encode_us") + f.copies as f64 * per_copy_us)
                * 1e-6;
        }
    }

    // Per bridged window: encode on the producer, decode on the consumer,
    // its rows folded into the consumer's slice group, a heartbeat and a
    // window hand-off on each side.
    let bridged_windows = o.metric_delta("fed.windows_in") as f64;
    let bridge = bridged_windows
        * (c("net.window_encode_us")
            + c("net.window_decode_us")
            + 2.0 * c("cq.pool_dispatch_us_per_batch"))
        * 1e-6
        + o.metric_delta("fed.rows_in") as f64 * c("cq.shared_fold_ns_per_tuple") * 1e-9;

    let commits = o.metric_delta("storage.commit_us") as f64;
    let storage = o.metric_delta("db.rows_archived") as f64 * c("storage.insert_ns_per_row") * 1e-9
        + commits * c("storage.commit_us") * 1e-6;
    let loadgen = tuples * o.gen_ns_per_tuple * 1e-9;
    [compute, net, storage, bridge, loadgen]
}

/// Every per-layer metric of a traced run, in `PER_LAYER` order.
///
/// Unit costs come from the replay on every workload. Span and counter
/// metrics come from this run alone: a call the deployment does not make
/// (an attach in process, a poll over the wire) and a counter it does not
/// keep read 0.
pub fn per_layer(t: &Traced) -> Vec<(&'static str, f64)> {
    let o = &t.run;
    let mut m: HashMap<&'static str, f64> = t.costs.clone();

    // The ingester's call is `Client::ingest_batch` where the deployment
    // ingests over a connection, `Db::ingest_batch` where in process.
    let calls = span_us(o.tracer.named("ingest_call"));
    let over_wire = matches!(t.kind, Kind::WireFanout | Kind::BridgedRollup);
    let (rtt, in_process): (&[f64], &[f64]) = if over_wire {
        (&calls, &[])
    } else {
        (&[], &calls)
    };
    m.insert("net.ingest_rtt_p50_us", median(rtt));
    m.insert("core.ingest_call_p50_us", median(in_process));
    m.insert("core.ingest_call_p95_us", quantile(in_process, 0.95));
    m.insert(
        "core.poll_us_per_window",
        mean(&span_us(o.tracer.named("poll_call"))),
    );
    // In-process registrations only: over the wire the primary's
    // registration is one more member's.
    let subscribe = span_us(o.tracer.named("subscribe_call"));
    m.insert(
        "core.subscribe_us_per_cq",
        if over_wire { 0.0 } else { mean(&subscribe) },
    );
    m.insert("core.serial_ratio", t.serial_ratio);

    // net: registration and delivery to attached members (`wire_fanout`).
    m.insert(
        "net.register_us_per_member",
        mean(&span_us(o.tracer.named("attach_call"))),
    );
    let feed = |name: &str| o.feeds.iter().find(|f| f.name == name);
    if let (Some(narrow), Some(wide)) = (feed("narrow"), feed("wide")) {
        m.insert("net.narrow_deliver_p50_us", median(&narrow.spread_us));
        m.insert("net.wide_deliver_p50_us", median(&wide.spread_us));
        m.insert(
            "net.deliver_us_per_member",
            per(
                median(&narrow.spread_us),
                narrow.copies.saturating_sub(1) as f64,
            ),
        );
    }
    // Per window served: only where every window the deployment closes
    // is served over the wire (`bridged_rollup`'s count also holds its
    // consumer's in-process windows).
    let windows = o.metric_delta("db.windows_out") as f64;
    let served = if t.kind == Kind::WireFanout {
        windows
    } else {
        0.0
    };
    m.insert(
        "net.fanout_encodes_per_window",
        per(o.metric_delta("net.fanout.encodes") as f64, served),
    );
    m.insert(
        "net.frames_out_per_window",
        per(o.metric_delta("net.frames_out") as f64, served),
    );
    m.insert(
        "net.reactor_wakeups_per_window",
        per(o.metric_delta("net.reactor.wakeups") as f64, served),
    );
    m.insert(
        "net.outbox_drops",
        o.metric_delta("net.outbox_drops") as f64,
    );
    m.insert(
        "net.delivery_lost",
        o.metric_delta("net.delivery_lost") as f64,
    );

    // net::Bridge (`bridged_rollup`).
    m.insert(
        "net.bridge_windows_per_s",
        per(o.metric_delta("fed.windows_in") as f64, o.timed_s),
    );
    m.insert("net.bridge_lag_p50_windows", median(&o.lag_samples));
    m.insert(
        "net.bridge_reconnects",
        o.metric_now("fed.reconnects") as f64,
    );
    m.insert("net.replay_windows_per_s", t.replay_windows_per_s);

    // Counters of the deployment's engine(s).
    m.insert("cq.windows_closed", windows);
    m.insert("cq.shared_members", t.shared_members as f64);
    m.insert("cq.late_drops", o.metric_now("db.late_drops") as f64);
    m.insert("ivm.state_bytes", o.metric_now("ivm.state.bytes") as f64);
    m.insert("ivm.delta_rows", o.metric_delta("ivm.delta.rows") as f64);
    m.insert("ivm.lowered_cqs", o.metric_now("ivm.lowered") as f64);
    m.insert("ivm.fallback_cqs", o.metric_now("ivm.fallback") as f64);
    m.insert("exec.plans_run", o.metric_delta("exec.plans_run") as f64);
    m.insert("exec.rows_out", o.metric_delta("exec.rows_out") as f64);
    m.insert(
        "core.shard_contention",
        o.metric_delta("db.shard.contention") as f64,
    );
    m.insert("core.sub_drops", o.metric_delta("db.sub_drops") as f64);
    m.insert(
        "core.rows_archived",
        o.metric_delta("db.rows_archived") as f64,
    );
    let (gc_n, gc_sum) = o
        .metrics_after
        .get("wal.group_commit.batch_size")
        .copied()
        .unwrap_or((0, 0));
    m.insert(
        "storage.group_commit_batch_mean",
        per(gc_sum as f64, gc_n as f64),
    );
    m.insert("storage.recover_ms", t.recover_ms);

    // The generator and the tracer themselves.
    m.insert("loadgen.gen_ns_per_tuple", o.gen_ns_per_tuple);
    m.insert(
        "loadgen.offered_tuples_per_s",
        crate::run::paced_ticks_per_s(t.kind) * BATCH as f64,
    );
    m.insert("loadgen.late_p95_us", quantile(&o.late_us, 0.95));
    // The tail and the read side: diagnostics, not gates — on the
    // reference host neither repeats within the widest bound (README).
    m.insert("loadgen.cpu_s_per_mtuple", o.saturate.cpu_s_per_mtuple());
    m.insert("loadgen.latency_p50_us", o.latency_p50_us());
    m.insert("loadgen.latency_p95_us", quantile(&o.latency_us, 0.95));
    m.insert("loadgen.latency_p99_us", quantile(&o.latency_us, 0.99));
    m.insert("core.snapshot_query_p50_us", o.snapshot_query_p50_us());
    m.insert("loadgen.late_windows", o.late_windows as f64);
    let traced_rate = o.saturate_traced.as_ref().map_or(0.0, |s| s.tuples_per_s());
    m.insert(
        "trace.overhead_share",
        1.0 - per(traced_rate, o.saturate.tuples_per_s()),
    );
    let [compute, net, storage, bridge, loadgen] = attributed_seconds(t);
    let engine = compute + net + storage + bridge;
    m.insert(
        "trace.attributed_share",
        per(engine + loadgen, o.timed_cpu_s),
    );
    m.insert("trace.share_compute", per(compute, engine));
    m.insert("trace.share_net", per(net, engine));
    m.insert("trace.share_storage", per(storage, engine));
    m.insert("trace.share_bridge", per(bridge, engine));

    PER_LAYER
        .iter()
        .map(|(name, _)| (*name, m.get(name).copied().unwrap_or(0.0)))
        .collect()
}
