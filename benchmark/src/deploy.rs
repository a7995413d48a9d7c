//! The four deployments, behind one interface.
//!
//! A [`Deployment`] is built only from the engine's public surface —
//! `Db`, `net::Client`, `net::Bridge`, the `streamrel-serve` binary and
//! the `streamrel_metrics` relation — and exposes what the two generator
//! threads need: `ingest` for the ingester; `receive_once` and `query`
//! for the subscriber.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use streamrel_core::{Db, DbOptions, ExecResult, SubscriptionId};
use streamrel_cq::CqOutput;
use streamrel_net::{Bridge, BridgeOptions, Client, SubscriptionStream};
use streamrel_types::{Relation, Row, Value};

use crate::catalogue::{self, clicks_ddl, Cq};
use crate::gen::{Disorder, SEC, SLACK, T0};
use crate::procs::{Env, ServeChild, TempDir};
use crate::reference::{hash_rows, Delivered, RefSpec, Window};
use crate::trace::{now_ns, Tracer};

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    EmbeddedSliding,
    WireFanout,
    DurableActive,
    BridgedRollup,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::EmbeddedSliding,
        Kind::WireFanout,
        Kind::DurableActive,
        Kind::BridgedRollup,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::EmbeddedSliding => "embedded_sliding",
            Kind::WireFanout => "wire_fanout",
            Kind::DurableActive => "durable_active",
            Kind::BridgedRollup => "bridged_rollup",
        }
    }

    pub fn from_name(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Only `embedded_sliding` configures slack; the other deployments
    /// run `DbOptions::default()`, whose streams are strictly ordered.
    pub fn slack(self) -> Option<i64> {
        (self == Kind::EmbeddedSliding).then_some(SLACK)
    }

    pub fn disorder(self) -> Disorder {
        if self == Kind::EmbeddedSliding {
            Disorder::Slack
        } else {
            Disorder::None
        }
    }

    /// Ticks of untimed warm-up: event time must cover the widest
    /// VISIBLE once, so slice state is at steady size when timing starts.
    pub fn warm_ticks(self) -> u64 {
        match self {
            Kind::EmbeddedSliding => 300 + 4,
            Kind::WireFanout | Kind::DurableActive => 8,
            Kind::BridgedRollup => 16,
        }
    }
}

/// Members attached to the wire CQs.
const NARROW_MEMBERS: usize = 1000;
const WIDE_MEMBERS: usize = 8;

enum Source {
    /// An in-process subscription, polled.
    Local(SubscriptionId),
    /// Members multiplexed on the subscriber connection; each gets its
    /// own copy of every window.
    Remote(Vec<SubscriptionStream>),
}

/// One continuous query the subscriber thread reads.
pub struct Feed {
    pub name: String,
    pub spec: RefSpec,
    source: Source,
}

impl Feed {
    pub fn copies(&self) -> usize {
        match &self.source {
            Source::Local(_) => 1,
            Source::Remote(m) => m.len(),
        }
    }

    /// Advance in event microseconds, for time windows.
    pub fn advance_us(&self) -> Option<i64> {
        match self.spec.window {
            Window::Time { advance_s, .. } => Some(advance_s * SEC),
            Window::Rows { .. } => None,
        }
    }
}

/// What the subscriber thread has received on one feed.
#[derive(Default)]
pub struct FeedLog {
    /// `copies[c]` is member `c`'s delivered sequence.
    pub copies: Vec<Vec<Delivered>>,
    /// Per window: when its first copy was held.
    pub first_ns: Vec<u64>,
}

impl FeedLog {
    /// When the last copy of window `i` was held.
    pub fn done_ns(&self, i: usize) -> Option<u64> {
        self.copies
            .iter()
            .map(|c| c.get(i).map(|d| d.at_ns))
            .try_fold(0u64, |acc, at| at.map(|a| acc.max(a)))
    }

    pub fn last_close(&self) -> Option<i64> {
        self.copies.last().and_then(|c| c.last()).map(|d| d.close)
    }
}

/// The subscriber thread's state.
pub struct Recorder {
    pub feeds: Vec<FeedLog>,
    pub tracer: Tracer,
    /// `(query kind, µs)` per snapshot query.
    pub query_us: Vec<(u64, f64)>,
    pub query_errors: u64,
    pub queries: u64,
    /// `fed.lag` (windows received but not yet applied), once per sweep.
    pub lag_samples: Vec<f64>,
    seen_generation: u64,
}

impl Recorder {
    pub fn new(dep: &Deployment) -> Recorder {
        Recorder {
            feeds: dep
                .feeds
                .iter()
                .map(|f| FeedLog {
                    copies: vec![Vec::new(); f.copies()],
                    first_ns: Vec::new(),
                })
                .collect(),
            tracer: Tracer::new(false),
            query_us: Vec::new(),
            query_errors: 0,
            queries: 0,
            lag_samples: Vec::new(),
            seen_generation: 0,
        }
    }
}

fn delivered(out: &CqOutput, at_ns: u64) -> Delivered {
    let (hash, rows) = hash_rows(out.relation.rows());
    Delivered {
        close: out.close,
        hash,
        rows,
        at_ns,
    }
}

/// A snapshot of `streamrel_metrics`, summed over the processes of a
/// deployment: name → (value, histogram sum).
pub type MetricSnap = HashMap<String, (i64, i64)>;

fn add_metrics(into: &mut MetricSnap, rel: &Relation) {
    for r in rel.rows() {
        let (Some(Value::Text(name)), Some(value)) = (r.first(), r.get(2)) else {
            continue;
        };
        let e = into.entry(name.to_string()).or_insert((0, 0));
        e.0 += value.as_int().unwrap_or(0);
        e.1 += r.get(3).and_then(|v| v.as_int().ok()).unwrap_or(0);
    }
}

pub struct Deployment {
    pub kind: Kind,
    pub feeds: Vec<Feed>,
    /// CQs that joined a shared slice group at registration (in-process
    /// deployments; the path mix is recorded, not asserted).
    pub shared_members: u64,
    /// In-process engine: the whole system (embedded, durable) or the
    /// consuming node (bridged).
    db: Option<Arc<Db>>,
    ingest_client: Option<Client>,
    sub_client: Option<Client>,
    bridge: Option<Bridge>,
    lag_gauge: Option<Arc<streamrel_obs::Gauge>>,
    // Declared after the clients and the bridge: fields drop in order, and
    // connections should close before their server is killed.
    child: Option<ServeChild>,
    dir: Option<TempDir>,
}

type Res<T> = Result<T, String>;

fn local_exec(db: &Db, sql: &str) -> Res<ExecResult> {
    db.execute(sql).map_err(|e| format!("{sql}: {e}"))
}

fn remote_exec(c: &Client, sql: &str) -> Res<Relation> {
    c.execute(sql).map_err(|e| format!("{sql}: {e}"))
}

impl Deployment {
    /// Start the deployment, run its DDL, register every CQ, subscriber
    /// and bridge, and wait until it is ready to take tuples.
    pub fn setup(kind: Kind, env: &Env, tr: &mut Tracer) -> Res<Deployment> {
        match kind {
            Kind::EmbeddedSliding => Self::setup_embedded_with(DbOptions::default(), tr),
            Kind::WireFanout => Self::setup_wire(env, tr),
            Kind::DurableActive => Self::setup_durable(env, tr),
            Kind::BridgedRollup => Self::setup_bridged(env, tr),
        }
    }

    fn bare(kind: Kind) -> Deployment {
        Deployment {
            kind,
            feeds: Vec::new(),
            shared_members: 0,
            db: None,
            ingest_client: None,
            sub_client: None,
            bridge: None,
            lag_gauge: None,
            child: None,
            dir: None,
        }
    }

    fn subscribe_local(db: &Db, cq: &Cq, n: u64, tr: &mut Tracer) -> Res<Feed> {
        let id = tr
            .span("subscribe_call", n, || local_exec(db, &cq.sql))?
            .subscription();
        Ok(Feed {
            name: cq.name.clone(),
            spec: cq.spec.clone(),
            source: Source::Local(id),
        })
    }

    /// `embedded_sliding` under explicit options (the traced run also
    /// measures the single-lock, no-pool baseline of the same job).
    pub fn setup_embedded_with(opts: DbOptions, tr: &mut Tracer) -> Res<Deployment> {
        let db = Arc::new(Db::in_memory(opts.with_slack(SLACK)));
        local_exec(&db, &clicks_ddl())?;
        for stmt in catalogue::url_dim_ddl() {
            local_exec(&db, &stmt)?;
        }
        let mut dep = Self::bare(Kind::EmbeddedSliding);
        for (n, cq) in catalogue::embedded_cqs().iter().enumerate() {
            dep.feeds
                .push(Self::subscribe_local(&db, cq, n as u64, tr)?);
        }
        // The engine records each sharing decision on its trace ring;
        // read it before window closes wrap the ring.
        dep.shared_members = db
            .trace_relation()
            .rows()
            .iter()
            .filter(|r| matches!(r.get(1), Some(Value::Text(k)) if &**k == "cq.share"))
            .count() as u64;
        dep.db = Some(db);
        Ok(dep)
    }

    fn attach_members(
        client: &Client,
        cq: &Cq,
        members: usize,
        base_id: u64,
        tr: &mut Tracer,
    ) -> Res<Feed> {
        let primary = tr
            .span("subscribe_call", base_id, || client.subscribe(&cq.sql))
            .map_err(|e| format!("{}: {e}", cq.sql))?;
        let primary_id = primary.id();
        let mut streams = vec![primary];
        for m in 1..members {
            streams.push(
                tr.span("attach_call", base_id + m as u64, || {
                    client.subscribe_attach(primary_id)
                })
                .map_err(|e| format!("attach to {}: {e}", cq.name))?,
            );
        }
        Ok(Feed {
            name: cq.name.clone(),
            spec: cq.spec.clone(),
            source: Source::Remote(streams),
        })
    }

    fn setup_wire(env: &Env, tr: &mut Tracer) -> Res<Deployment> {
        let child = env.spawn_serve()?;
        let connect = || Client::connect(child.addr()).map_err(|e| format!("connect: {e}"));
        let ingest = connect()?;
        remote_exec(&ingest, &clicks_ddl())?;
        for stmt in catalogue::url_dim_ddl() {
            remote_exec(&ingest, &stmt)?;
        }
        let sub = connect()?;
        let mut dep = Self::bare(Kind::WireFanout);
        dep.feeds.push(Self::attach_members(
            &sub,
            &catalogue::narrow_cq(),
            NARROW_MEMBERS,
            0,
            tr,
        )?);
        dep.feeds.push(Self::attach_members(
            &sub,
            &catalogue::per_url_second("wide", false),
            WIDE_MEMBERS,
            1_000_000,
            tr,
        )?);
        dep.ingest_client = Some(ingest);
        dep.sub_client = Some(sub);
        dep.child = Some(child);
        Ok(dep)
    }

    fn setup_durable(env: &Env, tr: &mut Tracer) -> Res<Deployment> {
        let dir = env.temp_dir("durable")?;
        let db =
            Arc::new(Db::open(dir.path(), DbOptions::default()).map_err(|e| format!("open: {e}"))?);
        let urls_now = catalogue::per_url_second("urls_now", true);
        for stmt in catalogue::durable_ddl() {
            local_exec(&db, &stmt)?;
        }
        let mut dep = Self::bare(Kind::DurableActive);
        let id = tr
            .span("subscribe_call", 0, || db.subscribe_stream("urls_now"))
            .map_err(|e| format!("subscribe urls_now: {e}"))?;
        dep.feeds.push(Feed {
            name: urls_now.name,
            spec: urls_now.spec,
            source: Source::Local(id),
        });
        dep.db = Some(db);
        dep.dir = Some(dir);
        Ok(dep)
    }

    fn setup_bridged(env: &Env, tr: &mut Tracer) -> Res<Deployment> {
        let child = env.spawn_serve()?;
        let ingest = Client::connect(child.addr()).map_err(|e| format!("connect: {e}"))?;
        let partials = catalogue::per_url_second("hit_partials", true);
        for stmt in [
            clicks_ddl(),
            "CREATE TABLE hit_archive (url varchar(64), scnt integer, stime timestamp)".into(),
            format!("CREATE STREAM hit_partials AS {}", partials.sql),
            "CREATE CHANNEL hit_chan FROM hit_partials INTO hit_archive APPEND".into(),
        ] {
            remote_exec(&ingest, &stmt)?;
        }
        let db = Arc::new(Db::in_memory(DbOptions::default()));
        let rollup = catalogue::rollup_cq();
        for stmt in [
            "CREATE STREAM partials (url varchar(64), scnt integer, \
             stime timestamp CQTIME USER)"
                .to_string(),
            format!("CREATE STREAM rollup AS {}", rollup.sql),
            "CREATE TABLE rollup_current (url varchar(64), hits integer, w timestamp)".into(),
            "CREATE CHANNEL rollup_chan FROM rollup INTO rollup_current REPLACE".into(),
        ] {
            local_exec(&db, &stmt)?;
        }
        let mut dep = Self::bare(Kind::BridgedRollup);
        let id = tr
            .span("subscribe_call", 0, || db.subscribe_stream("rollup"))
            .map_err(|e| format!("subscribe rollup: {e}"))?;
        dep.feeds.push(Feed {
            name: rollup.name,
            spec: rollup.spec,
            source: Source::Local(id),
        });
        let bridge = tr
            .span("subscribe_call", 1, || {
                Bridge::start(
                    db.clone(),
                    child.addr(),
                    "hit_partials",
                    "partials",
                    BridgeOptions::default(),
                )
            })
            .map_err(|e| format!("bridge: {e}"))?;
        if !bridge.wait_until_up(Duration::from_secs(10)) {
            return Err("bridge never attached".into());
        }
        dep.lag_gauge = Some(db.engine().metrics().gauge("fed.lag"));
        dep.db = Some(db);
        dep.bridge = Some(bridge);
        dep.ingest_client = Some(ingest);
        dep.child = Some(child);
        Ok(dep)
    }

    pub fn child_pids(&self) -> Vec<u32> {
        self.child.iter().map(ServeChild::pid).collect()
    }

    /// `durable_active` only: drop the engine, reopen the run's directory
    /// and time the recovery; then check the recovered CQ position — the
    /// first window after `next_batch` must close at `next_close`, not at
    /// a close that was already archived. Returns `(ms, position ok)`.
    pub fn recover(mut self, next_batch: Vec<Row>, next_close: i64) -> Res<(f64, bool)> {
        let dir = self.dir.take().ok_or("deployment has no data directory")?;
        self.feeds.clear();
        drop(self.db.take());
        let start = now_ns();
        let db = Db::open(dir.path(), DbOptions::default()).map_err(|e| format!("reopen: {e}"))?;
        let ms = (now_ns() - start) as f64 / 1e6;
        let sub = db
            .subscribe_stream("urls_now")
            .map_err(|e| format!("resubscribe: {e}"))?;
        db.ingest_batch("clicks", next_batch)
            .map_err(|e| format!("ingest after recovery: {e}"))?;
        let closes: Vec<i64> = db
            .poll(sub)
            .map_err(|e| format!("poll after recovery: {e}"))?
            .iter()
            .map(|o| o.close)
            .collect();
        Ok((ms, closes == [next_close]))
    }

    /// `bridged_rollup` only: drain the producer's whole archive over a
    /// fresh connection (`SubscribeFrom` 0), as a rejoining consumer
    /// would. Returns windows per second.
    pub fn replay_rate(&self) -> Res<f64> {
        let child = self.child.as_ref().ok_or("deployment has no producer")?;
        let client = Client::connect(child.addr()).map_err(|e| format!("connect: {e}"))?;
        let start = now_ns();
        let stream = client
            .subscribe_from("hit_partials", 0)
            .map_err(|e| format!("subscribe_from: {e}"))?;
        let (mut windows, mut last) = (0u64, start);
        while stream.next_timeout(Duration::from_millis(300)).is_some() {
            windows += 1;
            last = now_ns();
        }
        if windows == 0 {
            return Err("archive replay delivered nothing".into());
        }
        Ok(windows as f64 / ((last - start) as f64 / 1e9))
    }

    /// The ingester's one call: hand a batch to the system.
    pub fn ingest(&self, rows: Vec<Row>) -> Res<()> {
        match (&self.ingest_client, &self.db) {
            (Some(c), _) => c
                .ingest_batch("clicks", &rows)
                .map(|_| ())
                .map_err(|e| format!("ingest: {e}")),
            (None, Some(db)) => db
                .ingest_batch("clicks", rows)
                .map_err(|e| format!("ingest: {e}")),
            (None, None) => Err("deployment has no ingest path".into()),
        }
    }

    /// Wait up to `wait` for results, then take what every feed has.
    /// Returns the number of windows received.
    pub fn receive_once(&self, rec: &mut Recorder, wait: Duration) -> usize {
        let mut n = 0;
        if let Some(db) = &self.db {
            let gen = db.notifier().wait_newer(rec.seen_generation, wait);
            if gen == rec.seen_generation {
                return 0;
            }
            rec.seen_generation = gen;
            for (feed, log) in self.feeds.iter().zip(&mut rec.feeds) {
                let Source::Local(id) = feed.source else {
                    continue;
                };
                let start = now_ns();
                let outs = db.poll_shared(id).unwrap_or_default();
                let at = now_ns();
                for out in &outs {
                    log.copies[0].push(delivered(out, at));
                    log.first_ns.push(at);
                    rec.tracer.record("poll_call", out.close as u64, start, at);
                    n += 1;
                }
            }
            return n;
        }
        for (i, (feed, log)) in self.feeds.iter().zip(&mut rec.feeds).enumerate() {
            let Source::Remote(members) = &feed.source else {
                continue;
            };
            // Block for the first copy of the first feed only; the other
            // feeds' windows ride the same burst.
            let first_wait = if i == 0 { wait } else { Duration::ZERO };
            let Some(first) = members[0].next_timeout(first_wait) else {
                continue;
            };
            let first_at = now_ns();
            log.copies[0].push(delivered(&first, first_at));
            log.first_ns.push(first_at);
            let mut last_at = first_at;
            for (m, log_m) in members.iter().zip(&mut log.copies).skip(1) {
                let got = m
                    .try_next()
                    .or_else(|| m.next_timeout(Duration::from_secs(10)));
                // A copy that never comes leaves this member one window
                // short: verification reports it missing.
                if let Some(out) = got {
                    last_at = now_ns();
                    log_m.push(delivered(&out, last_at));
                }
            }
            rec.tracer
                .record("window_receive", first.close as u64, first_at, last_at);
            n += 1;
        }
        n
    }

    /// Issue snapshot query number `n` (round-robin over the
    /// deployment's query mix) from the subscriber thread.
    pub fn query(&self, n: u64, rec: &mut Recorder) {
        let newest = rec.feeds[0].last_close().unwrap_or(T0);
        let sql = match self.kind {
            Kind::EmbeddedSliding | Kind::WireFanout => catalogue::URL_DIM_QUERY.to_string(),
            Kind::DurableActive => catalogue::durable_query(n, newest),
            Kind::BridgedRollup => catalogue::ROLLUP_QUERY.to_string(),
        };
        let start = now_ns();
        let rows = match (&self.sub_client, &self.db) {
            (Some(c), _) => c.execute(&sql).map(|r| r.len()).map_err(|e| e.to_string()),
            (None, Some(db)) => db
                .execute(&sql)
                .map(|r| r.rows().len())
                .map_err(|e| e.to_string()),
            (None, None) => Err("no query path".into()),
        };
        let end = now_ns();
        rec.queries += 1;
        match rows {
            Ok(_) => rec
                .query_us
                .push((n % self.query_kinds(), (end - start) as f64 / 1e3)),
            Err(_) => rec.query_errors += 1,
        }
        rec.tracer.record("query_call", n, start, end);
    }

    /// Whether an in-process table of this deployment is fed by a REPLACE
    /// channel (`urls_current`, `rollup_current`).
    pub fn has_replace_channel(&self) -> bool {
        matches!(self.kind, Kind::DurableActive | Kind::BridgedRollup)
    }

    /// Operator housekeeping, which the ingester runs every 256 ticks
    /// inside the timed loops where `has_replace_channel` (its cost is the
    /// workload's). The engine never vacuums on its own, and a REPLACE
    /// channel scans every dead version its table still holds, so a window
    /// costs more with every window since the last `VACUUM`: unvacuumed,
    /// `durable_active` fell from 400 to 113 ticks/s within five seconds
    /// of one closed loop and no rate could be called the workload's.
    pub fn vacuum(&self) -> Res<()> {
        let db = self.db.as_ref().ok_or("deployment has no local engine")?;
        local_exec(db, "VACUUM").map(|_| ())
    }

    fn query_kinds(&self) -> u64 {
        if self.kind == Kind::DurableActive {
            catalogue::DURABLE_QUERY_KINDS
        } else {
            1
        }
    }

    /// The bridge's backlog right now: windows received from the producer
    /// but not yet applied to the consumer (`fed.lag`).
    pub fn bridge_lag(&self) -> Option<f64> {
        self.lag_gauge.as_ref().map(|g| g.get() as f64)
    }

    /// `streamrel_metrics` of every process of the deployment, summed.
    pub fn metrics(&self) -> MetricSnap {
        let mut snap = MetricSnap::new();
        if let Some(db) = &self.db {
            add_metrics(&mut snap, &db.metrics_relation());
        }
        if let Some(c) = &self.ingest_client {
            if let Ok(rel) = c.stats() {
                add_metrics(&mut snap, &rel);
            }
        }
        snap
    }
}
