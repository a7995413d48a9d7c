//! One workload run: set-up, warm-up, paced, saturate, verify.
//!
//! Two generator threads: the calling thread ingests, a second thread
//! subscribes, reads and queries. Everything else that runs — engine
//! worker pool, client reader threads, the bridge thread, the serving
//! child — is the system under test.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::deploy::{Deployment, Kind, MetricSnap, Recorder};
use crate::gen::{Gen, BATCH, SEC, T0};
use crate::procs::{cpu_seconds, peak_rss_sum_mb, Env};
use crate::reference::{self, Mismatch, RefWindow};
use crate::stats::median;
use crate::trace::{now_ns, phase, Tracer};

/// Windows the ingester may run ahead of the subscriber in the closed
/// loops — far below every queue bound (1024), so nothing is ever shed
/// because the generator outran delivery.
const CREDIT_TICKS: i64 = 64;
/// The ingester issues `VACUUM` before every batch whose number divides
/// by this (deployments with REPLACE channels; see
/// `Deployment::vacuum`).
const VACUUM_EVERY_TICKS: u64 = 240;
/// Snapshot queries per second during the paced phase. At 20 per second
/// `durable_active`'s archive scans held the writer for 5 % of the time,
/// which put the 95th percentile of result latency on the edge between
/// delayed and undelayed windows (it moved by a quarter between two
/// result sets of one commit); at 40 it lies inside the delayed tenth.
const QUERY_HZ: f64 = 40.0;
/// The deployment is set up at least `MIN_SETUPS` times and until
/// `SETUP_BUDGET_S` is spent (at most `MAX_SETUPS` times); the calm
/// quantile is reported and the last deployment used. Set-up takes from
/// a third of a millisecond (`durable_active`) to a twentieth of a second
/// (`wire_fanout`): cheap set-ups are repeated more often, so that every
/// workload's set-ups span the same stretch of time — 200 set-ups of
/// `durable_active` fit into a twentieth of a second, and one hiccup of
/// the host covered them all.
const MIN_SETUPS: usize = 10;
const SETUP_BUDGET_S: f64 = 0.8;
const MAX_SETUPS: usize = 4000;
/// How long the closed loop waits for delivery to catch up before it
/// gives the run up as stalled.
const STALL_LIMIT: Duration = Duration::from_secs(10);
/// A paced window later than this is counted (`loadgen.late_windows`).
const LATE_WINDOW_US: f64 = 1e6;

/// The frozen open-loop rates, in batches (ticks) per second: a quarter
/// to a third of the closed-loop rates measured once on the reference
/// host, a seventh on `durable_active` (README: why not the issue's
/// 40 %). Never adaptive: a faster engine shows as lower latency at this
/// rate, not as a higher rate.
pub fn paced_ticks_per_s(kind: Kind) -> f64 {
    match kind {
        Kind::EmbeddedSliding => 16.0,
        Kind::WireFanout => 25.0,
        Kind::DurableActive => 50.0,
        Kind::BridgedRollup => 250.0,
    }
}

pub struct RunConfig {
    pub kind: Kind,
    pub seed: u64,
    /// Measured seconds: half paced, half saturate.
    pub seconds: f64,
    /// Record spans. The saturate phase is then split in two halves, the
    /// first untraced, so one run yields the tracing overhead.
    pub traced: bool,
}

/// Share of the measured seconds spent in the closed loop; the rest is
/// the paced phase.
const SATURATE_SHARE: f64 = 0.5;

/// The quantile that stands for "when the host did not interfere".
///
/// What a shared host adds to a timing is one-sided — a neighbour that
/// takes cache, memory bandwidth or a CPU only ever slows a tick — and
/// comes in episodes from a second to minutes long, in which the same
/// tick costs up to twice as much (README: measured). A change to the
/// engine moves every repetition of a tick, an episode only those it
/// covers. So every timing is grouped by what was timed (ticks that do
/// the same work), and each group is represented by the first decile of
/// its repetitions.
const CALM: f64 = 0.1;

fn calm(xs: &[f64]) -> f64 {
    crate::stats::quantile(xs, CALM)
}

/// `(period, unit)` in ticks. A workload's work repeats after `period`
/// ticks: `embedded_sliding`'s ADVANCEs are 1, 2, 3 and 5 s, so which of
/// its 16 windows a tick closes depends on the tick number modulo 30;
/// where the ingester vacuums, a tick costs more the longer ago that was.
/// A `unit` is what is timed and told apart within the period. In process
/// the ingest call does a tick's whole work before it returns; behind a
/// connection ingest and delivery overlap and windows arrive in bursts,
/// so a unit is as many ticks as even the bursts out (on
/// `bridged_rollup`, a multiple of the five ticks per window).
fn grid(kind: Kind) -> (u64, u64) {
    match kind {
        Kind::EmbeddedSliding => (30, 1),
        Kind::WireFanout => (16, 16),
        Kind::DurableActive => (VACUUM_EVERY_TICKS, 8),
        Kind::BridgedRollup => (VACUUM_EVERY_TICKS, 40),
    }
}

/// Which of the period's units batch `b` belongs to: batches of one kind
/// do the same work, run after run and commit after commit.
fn unit_kind(kind: Kind, b: u64) -> u64 {
    let (period, unit) = grid(kind);
    (b % period) / unit
}

/// One closed-loop measurement.
#[derive(Debug, Clone, Default)]
pub struct Saturate {
    pub first_batch: u64,
    pub ticks: u64,
    pub wall_s: f64,
    /// CPU seconds of all processes over `wall_s`.
    pub cpu_s: f64,
    /// `(kind of unit, seconds)` per timed unit: from the moment the
    /// subscriber held every window due from the unit before to the
    /// moment it held every window due from this one.
    pub units: Vec<(u64, f64)>,
    unit_ticks: u64,
}

impl Saturate {
    /// Tuples per second of a period in which every kind of unit took
    /// its calm time.
    pub fn tuples_per_s(&self) -> f64 {
        let mut by_kind: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
        for (k, s) in &self.units {
            by_kind.entry(*k).or_default().push(*s);
        }
        let period_s: f64 = by_kind.values().map(|v| calm(v)).sum();
        if period_s > 0.0 {
            (by_kind.len() as u64 * self.unit_ticks * BATCH) as f64 / period_s
        } else {
            0.0
        }
    }

    /// Over the whole phase, calm or not: a child's CPU time has no
    /// finer clock than a hundredth of a second.
    pub fn cpu_s_per_mtuple(&self) -> f64 {
        if self.ticks == 0 {
            return 0.0;
        }
        self.cpu_s / ((self.ticks * BATCH) as f64 / 1e6)
    }

    /// Fill `units` from the time each batch's windows were all in hand
    /// (`complete_ns[b - first]`, 0 where batch `b` closed no window).
    fn time_units(&mut self, kind: Kind, complete_ns: &[u64], first: u64) {
        let (_, u) = grid(kind);
        self.unit_ticks = u;
        let done = |n: u64| -> u64 {
            (n * u..(n + 1) * u)
                .filter_map(|b| complete_ns.get(b.checked_sub(first)? as usize))
                .copied()
                .max()
                .unwrap_or(0)
        };
        // Whole units of the phase. The unit before the first ends what
        // ran before the phase and an idle gap follows it, so it starts
        // the clock and the first whole unit is not timed.
        let mut prev = 0;
        for n in self.first_batch.div_ceil(u)..(self.first_batch + self.ticks) / u {
            let end = done(n);
            if prev != 0 && end > prev {
                self.units
                    .push((unit_kind(kind, n * u), (end - prev) as f64 / 1e9));
            }
            prev = end;
        }
    }
}

/// What one run measured.
pub struct Outcome {
    pub setup_s: Vec<f64>,
    /// The untraced closed loop (the end-to-end throughput).
    pub saturate: Saturate,
    /// The traced closed loop, in a traced run.
    pub saturate_traced: Option<Saturate>,
    pub paced_ticks: u64,
    /// Wall and CPU seconds from the start of paced to the end of
    /// saturate: the interval the metric deltas cover.
    pub timed_s: f64,
    pub timed_cpu_s: f64,
    pub timed_ticks: u64,
    pub peak_rss_mb: f64,
    /// Result latency of every paced window, and what it is a repetition
    /// of: `(feed, unit_kind of its trigger batch)`.
    pub latency_us: Vec<f64>,
    pub latency_of: Vec<(usize, u64)>,
    /// `(query kind, µs)` of every paced snapshot query.
    pub query_us: Vec<(u64, f64)>,
    pub late_us: Vec<f64>,
    /// Paced windows that took longer than a second.
    pub late_windows: u64,
    pub lag_samples: Vec<f64>,
    pub gen_ns_per_tuple: f64,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    /// `streamrel_metrics` at the start of paced and the end of saturate.
    pub metrics_before: MetricSnap,
    pub metrics_after: MetricSnap,
    pub generator_late_tuples: u64,
    pub windows_expected: u64,
    pub tracer: Tracer,
    pub feeds: Vec<FeedOutcome>,
    pub sent_ticks: u64,
}

/// Per feed: what the timed interval delivered.
pub struct FeedOutcome {
    pub name: String,
    pub copies: usize,
    /// Windows triggered by batches of the timed interval, and the rows
    /// they held.
    pub timed_windows: u64,
    pub timed_rows: u64,
    /// One-second slices a window of this feed spans (1 for row windows).
    pub slices: f64,
    /// First copy → last copy of each paced window, µs.
    pub spread_us: Vec<f64>,
}

impl Outcome {
    /// Set-up time when the host did not interfere.
    pub fn setup_s(&self) -> f64 {
        calm(&self.setup_s)
    }

    /// Median result latency of a period in which every window arrived
    /// after its calm time: each window of each feed, at each place in
    /// the period, is represented by the calm quantile of its
    /// repetitions, and the median runs over all of them.
    pub fn latency_p50_us(&self) -> f64 {
        let mut by_what: std::collections::BTreeMap<(usize, u64), Vec<f64>> = Default::default();
        for (l, of) in self.latency_us.iter().zip(&self.latency_of) {
            by_what.entry(*of).or_default().push(*l);
        }
        let calm_of_each: Vec<f64> = by_what
            .values()
            .flat_map(|v| std::iter::repeat_n(calm(v), v.len()))
            .collect();
        median(&calm_of_each)
    }

    pub fn metric_delta(&self, name: &str) -> i64 {
        let get = |s: &MetricSnap| s.get(name).map_or(0, |v| v.0);
        get(&self.metrics_after) - get(&self.metrics_before)
    }

    pub fn metric_now(&self, name: &str) -> i64 {
        self.metrics_after.get(name).map_or(0, |v| v.0)
    }

    /// Snapshot latency: each query kind's median, averaged over the
    /// kinds (a plain median over a mix of kinds with different costs sits
    /// on the boundary between two kinds and jumps from run to run).
    pub fn snapshot_query_p50_us(&self) -> f64 {
        let kinds: std::collections::BTreeSet<u64> = self.query_us.iter().map(|q| q.0).collect();
        let medians: Vec<f64> = kinds
            .iter()
            .map(|k| {
                let of_kind: Vec<f64> = self
                    .query_us
                    .iter()
                    .filter(|q| q.0 == *k)
                    .map(|q| q.1)
                    .collect();
                median(&of_kind)
            })
            .collect();
        crate::stats::mean(&medians)
    }
}

struct Shared {
    stop: AtomicBool,
    /// Event time through which every time-window feed has delivered.
    completed_through: AtomicI64,
    /// Bumped after every sweep of the subscriber.
    sweeps: AtomicU64,
    /// Clock time (ns) from which the subscriber issues paced queries;
    /// 0 = off.
    queries_from_ns: AtomicU64,
    /// The phase whose spans the subscriber records right now; 0 = none.
    trace_phase: AtomicU64,
}

/// The newest close due once batch `b` has been ingested.
fn due_close(kind: Kind, b: u64) -> i64 {
    T0 + b as i64 * SEC - kind.slack().unwrap_or(0)
}

fn subscriber_loop(dep: &Deployment, shared: &Shared, rec: &mut Recorder) {
    let mut next_query = 0u64;
    while !shared.stop.load(Ordering::SeqCst) {
        let traced_phase = shared.trace_phase.load(Ordering::SeqCst);
        rec.tracer.set_enabled(traced_phase != 0);
        rec.tracer.set_parent(traced_phase);
        dep.receive_once(rec, Duration::from_micros(500));
        if let Some(lag) = dep.bridge_lag() {
            rec.lag_samples.push(lag);
        }
        let done = dep
            .feeds
            .iter()
            .zip(&rec.feeds)
            .filter_map(|(f, log)| {
                let adv = f.advance_us()?;
                // Before a feed's first window nothing older than its
                // first close (T0 + advance) is owed.
                Some(log.last_close().unwrap_or(T0) + adv - SEC)
            })
            .min()
            .unwrap_or(i64::MAX);
        shared.completed_through.store(done, Ordering::SeqCst);
        shared.sweeps.fetch_add(1, Ordering::SeqCst);
        let from = shared.queries_from_ns.load(Ordering::SeqCst);
        if from != 0 {
            let due = from + (next_query as f64 * 1e9 / QUERY_HZ) as u64;
            if now_ns() >= due {
                dep.query(next_query, rec);
                next_query += 1;
            }
        }
    }
}

struct Ingester<'a> {
    dep: &'a Deployment,
    gen: &'a Gen,
    shared: &'a Shared,
    tracer: Tracer,
    next_batch: u64,
    /// `ingest` and `VACUUM` calls made, and how many returned an error.
    calls: u64,
    call_errors: u64,
    gen_ns: u64,
    first_error: Option<String>,
    /// Set when delivery stopped making progress: nothing more is sent.
    stalled: bool,
}

impl Ingester<'_> {
    fn send(&mut self, rows: Vec<streamrel_types::Row>) {
        let b = self.next_batch;
        let dep = self.dep;
        if b > 0 && b.is_multiple_of(VACUUM_EVERY_TICKS) && dep.has_replace_channel() {
            let res = self.tracer.span("vacuum_call", b, || dep.vacuum());
            self.count(res);
        }
        let res = self.tracer.span("ingest_call", b, || dep.ingest(rows));
        self.count(res);
        self.next_batch += 1;
    }

    /// An errored call is a failure, whichever call it was.
    fn count(&mut self, res: Result<(), String>) {
        self.calls += 1;
        if let Err(e) = res {
            self.call_errors += 1;
            self.first_error.get_or_insert(e);
        }
    }

    fn make_batch(&mut self) -> Vec<streamrel_types::Row> {
        let t = Instant::now();
        let rows = self.gen.batch(self.next_batch);
        self.gen_ns += t.elapsed().as_nanos() as u64;
        rows
    }

    fn in_flight(&self) -> i64 {
        if self.next_batch == 0 {
            return 0;
        }
        (due_close(self.dep.kind, self.next_batch - 1)
            - self.shared.completed_through.load(Ordering::SeqCst))
            / SEC
    }

    /// One caller, next batch when the previous returned — and never more
    /// than `CREDIT_TICKS` windows ahead of what the subscriber holds.
    fn closed_loop(&mut self, mut more: impl FnMut(u64) -> bool) {
        let mut sent = 0;
        while !self.stalled && more(sent) {
            // A window that never arrives (shed, lost) must fail the run,
            // not hang it.
            let waiting_since = Instant::now();
            while self.in_flight() > CREDIT_TICKS {
                if waiting_since.elapsed() > STALL_LIMIT {
                    self.stalled = true;
                    return;
                }
                std::thread::sleep(Duration::from_micros(50));
            }
            let rows = self.make_batch();
            self.send(rows);
            sent += 1;
        }
    }

    /// Block until every window due from the batches sent has reached
    /// the subscriber (or `limit` passes). Returns whether it did.
    fn wait_delivered(&self, limit: Duration) -> bool {
        let deadline = Instant::now() + limit;
        while self.in_flight() > 0 {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        // Feeds without a time grid (row windows) are read in the same
        // sweeps: two more sweeps started after the last ingest returned.
        let seen = self.shared.sweeps.load(Ordering::SeqCst);
        while self.shared.sweeps.load(Ordering::SeqCst) < seen + 2 {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        true
    }

    /// Open loop: batch `k` is due at `start + k / rate` no matter how
    /// the system is doing. Returns each batch's due time and lateness.
    fn open_loop(&mut self, rate: f64, dur: Duration) -> (Vec<u64>, Vec<f64>) {
        let interval_ns = 1e9 / rate;
        let start_ns = now_ns();
        let (mut due, mut late) = (Vec::new(), Vec::new());
        for k in 0u64.. {
            let due_ns = start_ns + (k as f64 * interval_ns) as u64;
            if due_ns - start_ns >= dur.as_nanos() as u64 {
                break;
            }
            let rows = self.make_batch();
            loop {
                let now = now_ns();
                if now >= due_ns {
                    break;
                }
                if due_ns - now > 200_000 {
                    std::thread::sleep(Duration::from_nanos(due_ns - now - 150_000));
                } else {
                    std::thread::yield_now();
                }
            }
            late.push((now_ns() - due_ns) as f64 / 1e3);
            due.push(due_ns);
            self.send(rows);
        }
        (due, late)
    }
}

/// Run one workload end to end.
pub fn run(cfg: &RunConfig, env: &Env) -> Result<(Outcome, Deployment), String> {
    let gen = Gen::new(cfg.seed, cfg.kind.disorder());
    let mut tracer = Tracer::new(cfg.traced);
    env.place_self(matches!(cfg.kind, Kind::WireFanout | Kind::BridgedRollup));

    // ---- setup (several times; the last deployment is used) ----
    let mut setup_s = Vec::new();
    let mut last = None;
    let setups_started = Instant::now();
    for n in 0..MAX_SETUPS {
        let spent = setups_started.elapsed().as_secs_f64();
        if n >= MIN_SETUPS && spent >= SETUP_BUDGET_S {
            break;
        }
        // Tear the previous deployment down before timing the next.
        drop(last.take());
        let t = Instant::now();
        let mut spans = Tracer::new(cfg.traced);
        spans.set_parent(phase::SETUP);
        let dep = Deployment::setup(cfg.kind, env, &mut spans)?;
        setup_s.push(t.elapsed().as_secs_f64());
        last = Some((dep, spans));
    }
    // Only the deployment that is used keeps its setup spans.
    let (dep, spans) = last.expect("at least one setup");
    tracer.absorb(spans);
    let children = dep.child_pids();

    let shared = Shared {
        stop: AtomicBool::new(false),
        completed_through: AtomicI64::new(T0),
        sweeps: AtomicU64::new(0),
        queries_from_ns: AtomicU64::new(0),
        trace_phase: AtomicU64::new(0),
    };
    let mut rec = Recorder::new(&dep);
    let mut ing = Ingester {
        dep: &dep,
        gen: &gen,
        shared: &shared,
        tracer,
        next_batch: 0,
        calls: 0,
        call_errors: 0,
        gen_ns: 0,
        first_error: None,
        stalled: false,
    };
    let mut notes = Vec::new();
    let saturate_dur = Duration::from_secs_f64(cfg.seconds * SATURATE_SHARE);
    let paced_dur = Duration::from_secs_f64(cfg.seconds * (1.0 - SATURATE_SHARE));
    let settle = Duration::from_secs(20);
    // Both threads record spans of `phase`, or none when it is 0.
    let set_tracing = |ing: &mut Ingester, phase: u64| {
        ing.tracer.set_enabled(phase != 0);
        ing.tracer.set_parent(phase);
        shared.trace_phase.store(phase, Ordering::SeqCst);
    };

    struct Timed {
        saturate: Saturate,
        saturate_traced: Option<Saturate>,
        timed_first: u64,
        paced_first: u64,
        due_ns: Vec<u64>,
        late_us: Vec<f64>,
        metrics_before: MetricSnap,
        metrics_after: MetricSnap,
        peak_rss_mb: f64,
        timed_s: f64,
        timed_cpu_s: f64,
    }

    let timed = std::thread::scope(|scope| {
        let sub = scope.spawn(|| subscriber_loop(&dep, &shared, &mut rec));

        // ---- warm-up: closed loop, untimed, untraced ----
        set_tracing(&mut ing, 0);
        ing.closed_loop(|sent| sent < cfg.kind.warm_ticks());
        if !ing.wait_delivered(settle) {
            notes.push("warm-up windows did not all arrive".to_string());
        }

        // ---- paced: open loop at the frozen rate ----
        // Before saturate, not after it: the open loop sends the same
        // number of batches on every commit, so the tables its windows
        // and queries meet are the same size however fast the closed
        // loop would have filled them.
        let metrics_before = dep.metrics();
        let timed_first = ing.next_batch;
        let timed_t0 = Instant::now();
        let timed_cpu0 = cpu_seconds(env, &children);
        set_tracing(&mut ing, if cfg.traced { phase::PACED } else { 0 });
        let paced_first = ing.next_batch;
        shared.queries_from_ns.store(now_ns(), Ordering::SeqCst);
        let (due_ns, late_us) = ing.open_loop(paced_ticks_per_s(cfg.kind), paced_dur);
        shared.queries_from_ns.store(0, Ordering::SeqCst);
        if !ing.wait_delivered(settle) {
            notes.push("paced windows did not all arrive".to_string());
        }
        // Read here, not after the closed loop: set-up, warm-up and the
        // open loop take the same input on every commit, while the closed
        // loop archives as many rows as the engine is fast, so a later
        // reading would rise with `tuples_per_s`.
        let peak_rss_mb = peak_rss_sum_mb(&children);
        // ---- saturate: closed loop ----
        let mut saturate = |ing: &mut Ingester, dur: Duration| {
            let (b0, cpu0, t0) = (ing.next_batch, cpu_seconds(env, &children), Instant::now());
            ing.closed_loop(|_| t0.elapsed() < dur);
            if !ing.wait_delivered(settle) {
                notes.push("saturate windows did not all arrive".to_string());
            }
            Saturate {
                first_batch: b0,
                ticks: ing.next_batch - b0,
                wall_s: t0.elapsed().as_secs_f64(),
                cpu_s: cpu_seconds(env, &children) - cpu0,
                ..Saturate::default()
            }
        };
        let (untraced, traced) = if cfg.traced {
            let untraced = saturate(&mut ing, saturate_dur / 2);
            set_tracing(&mut ing, phase::SATURATE);
            (untraced, Some(saturate(&mut ing, saturate_dur / 2)))
        } else {
            (saturate(&mut ing, saturate_dur), None)
        };
        set_tracing(&mut ing, 0);

        let timed = Timed {
            saturate: untraced,
            saturate_traced: traced,
            timed_first,
            paced_first,
            due_ns,
            late_us,
            metrics_before,
            metrics_after: dep.metrics(),
            peak_rss_mb,
            timed_s: timed_t0.elapsed().as_secs_f64(),
            timed_cpu_s: cpu_seconds(env, &children) - timed_cpu0,
        };
        shared.stop.store(true, Ordering::SeqCst);
        sub.join().expect("subscriber thread panicked");
        timed
    });

    // ---- verify against the reference ----
    let sent_ticks = ing.next_batch;
    let rel = reference::release(&gen, sent_ticks, cfg.kind.slack());
    let mut mismatch = Mismatch::default();
    let (mut latency_us, mut latency_of) = (Vec::new(), Vec::new());
    // When the subscriber held every window due from each timed batch.
    let mut complete_ns = vec![0u64; (sent_ticks - timed.timed_first) as usize];
    let mut windows_expected = 0u64;
    let mut feeds = Vec::new();
    let mut late_windows = 0u64;
    for (f, (feed, log)) in dep.feeds.iter().zip(&rec.feeds).enumerate() {
        let expected: Vec<RefWindow> = reference::reference(&feed.spec, &rel, &gen);
        windows_expected += (expected.len() * feed.copies()) as u64;
        for (c, copy) in log.copies.iter().enumerate() {
            let name = format!("{}[{c}]", feed.name);
            mismatch.absorb(reference::compare(&name, &expected, copy));
        }
        let mut out = FeedOutcome {
            name: feed.name.clone(),
            copies: feed.copies(),
            timed_windows: 0,
            timed_rows: 0,
            slices: match feed.spec.window {
                reference::Window::Time { visible_s, .. } => visible_s as f64,
                reference::Window::Rows { .. } => 1.0,
            },
            spread_us: Vec::new(),
        };
        for (i, e) in expected.iter().enumerate() {
            if e.trigger_batch >= timed.timed_first {
                out.timed_windows += 1;
                out.timed_rows += u64::from(e.rows);
                let at = &mut complete_ns[(e.trigger_batch - timed.timed_first) as usize];
                *at = (*at).max(log.done_ns(i).unwrap_or(0));
            }
            if e.trigger_batch < timed.paced_first {
                continue;
            }
            let nth = (e.trigger_batch - timed.paced_first) as usize;
            let Some(due) = timed.due_ns.get(nth) else {
                continue;
            };
            if let Some(done) = log.done_ns(i) {
                let lat = done.saturating_sub(*due) as f64 / 1e3;
                if lat > LATE_WINDOW_US {
                    late_windows += 1;
                }
                latency_us.push(lat);
                latency_of.push((f, unit_kind(cfg.kind, e.trigger_batch)));
                if let Some(first) = log.first_ns.get(i) {
                    out.spread_us.push(done.saturating_sub(*first) as f64 / 1e3);
                }
            }
        }
        feeds.push(out);
    }
    if late_windows > 0 {
        notes.push(format!(
            "{late_windows} paced windows arrived later than 1 s"
        ));
    }
    let interval_us = 1e6 / paced_ticks_per_s(cfg.kind);
    let late_p95_us = crate::stats::quantile(&timed.late_us, 0.95);
    // Late windows and a late generator are reported, not failed: both
    // are inside every latency figure already (latency runs from each
    // batch's due time), and this host freezes for a second or three
    // often enough to cause them on a healthy engine. `failed` counts
    // what no host can cause: wrong, missing, duplicated and reordered
    // windows, errored calls, broken conservation.
    if late_p95_us > interval_us {
        notes.push(format!(
            "rate not sustained: the generator ran {late_p95_us:.0} us late at p95, \
             one batch interval is {interval_us:.0} us"
        ));
    }
    let mut failed = mismatch.failures() + ing.call_errors + rec.query_errors;
    if let Some(e) = &ing.first_error {
        notes.push(format!("first errored call: {e}"));
    }
    if ing.stalled {
        notes.push("delivery stalled: the closed loop stopped sending".to_string());
    }
    let engine_late = timed.metrics_after.get("db.late_drops").map_or(0, |v| v.0) as u64;
    if cfg.kind.slack().is_some() && engine_late != rel.late {
        failed += 1;
        notes.push(format!(
            "engine dropped {engine_late} late tuples, generator sent {}",
            rel.late
        ));
    }
    if mismatch.failures() > 0 {
        notes.push(format!(
            "windows missing {}, unexpected {}, reordered {}, wrong {}; first: {}",
            mismatch.missing,
            mismatch.unexpected,
            mismatch.reordered,
            mismatch.wrong,
            mismatch.first.as_deref().unwrap_or("-")
        ));
    }
    let attempted = ing.calls + windows_expected + rec.queries;

    let mut timed = timed;
    for phase in std::iter::once(&mut timed.saturate).chain(&mut timed.saturate_traced) {
        phase.time_units(cfg.kind, &complete_ns, timed.timed_first);
    }

    let mut tracer = ing.tracer;
    tracer.set_enabled(cfg.traced);
    let gen_ns_per_tuple = ing.gen_ns as f64 / (sent_ticks * BATCH).max(1) as f64;
    tracer.absorb(std::mem::replace(&mut rec.tracer, Tracer::new(false)));
    let outcome = Outcome {
        setup_s,
        saturate: timed.saturate,
        saturate_traced: timed.saturate_traced,
        paced_ticks: timed.due_ns.len() as u64,
        timed_s: timed.timed_s,
        timed_cpu_s: timed.timed_cpu_s,
        timed_ticks: sent_ticks - timed.timed_first,
        peak_rss_mb: timed.peak_rss_mb,
        latency_us,
        latency_of,
        query_us: std::mem::take(&mut rec.query_us),
        late_us: timed.late_us,
        late_windows,
        lag_samples: std::mem::take(&mut rec.lag_samples),
        gen_ns_per_tuple,
        attempted,
        failed,
        notes,
        metrics_before: timed.metrics_before,
        metrics_after: timed.metrics_after,
        generator_late_tuples: rel.late,
        windows_expected,
        tracer,
        feeds,
        sent_ticks,
    };
    Ok((outcome, dep))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `complete_ns` for batches `first..`, batch `b` taking `ms(b)`.
    fn completions(first: u64, n: u64, ms: impl Fn(u64) -> f64) -> Vec<u64> {
        let mut t = 1_000_000_000.0;
        (first..first + n)
            .map(|b| {
                t += ms(b) * 1e6;
                t as u64
            })
            .collect()
    }

    #[test]
    fn closed_loop_rate_is_each_kind_of_tick_at_its_calm_time() {
        // 30 kinds of tick: 10 ms each, kind 7 takes 40 ms. The host
        // triples every tick of two periods in three. The slow kind
        // counts, the host's share does not.
        let first = 90;
        let done = completions(first, 700, |b| {
            let own = if b % 30 == 7 { 40.0 } else { 10.0 };
            own * if (b / 30) % 3 == 0 { 1.0 } else { 3.0 }
        });
        let mut phase = Saturate {
            first_batch: 100,
            ticks: 690,
            ..Saturate::default()
        };
        phase.time_units(Kind::EmbeddedSliding, &done, first);
        let expected = (30 * BATCH) as f64 / (29.0 * 0.010 + 0.040);
        assert!((phase.tuples_per_s() / expected - 1.0).abs() < 1e-3);
    }

    #[test]
    fn bursts_within_a_unit_cancel() {
        // Windows of four ticks arrive together every 40 ms: 10 ms a tick.
        let first = 0;
        let done = completions(first, 1600, |b| if b % 4 == 0 { 40.0 } else { 0.0 });
        let mut phase = Saturate {
            first_batch: 8,
            ticks: 1500,
            ..Saturate::default()
        };
        phase.time_units(Kind::WireFanout, &done, first);
        let expected = BATCH as f64 / 0.010;
        assert!((phase.tuples_per_s() / expected - 1.0).abs() < 1e-3);
    }
}
