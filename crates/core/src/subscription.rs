//! Client-facing continuous query results.
//!
//! A continuous `SELECT` does not return rows: it returns a
//! [`SubscriptionId`]; window results accumulate in a queue drained with
//! [`crate::Db::poll`]. This is the paper's §3.1 contract — "CQs produce
//! answers incrementally and run until they are explicitly terminated" —
//! and its §3.2 note that results of an always-on derived stream are
//! available as soon as a client reconnects.
//!
//! A subscription has **members**, each with its own queue: member 0 is
//! the embedded poller's, unless a server registered the subscription
//! ([`crate::Db::serve`]) — then every member is the server's, keyed by
//! wire id. `pump` offers every closed window to each member under the
//! subscription's one lock, so the member's queue is the only bounded
//! stage between the close and the consumer (DESIGN.md §6.3).
//!
//! The queue is **bounded**: a slow (or absent) consumer cannot grow
//! memory without limit. On overflow the oldest queued result is
//! sacrificed (fresh data wins) and every drop is counted — per queue and
//! in the aggregate counter of whoever consumes it: `db.sub_drops` for
//! embedded members, `net.outbox_drops` for a server's. The wire client
//! uses the same [`Subscription`] queue per stream.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use streamrel_cq::CqOutput;
use streamrel_obs::{Counter, Gauge};

/// Identifies one client subscription within a [`crate::Db`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubscriptionId(pub u64);

/// Bounded drop-oldest queue of undelivered items for one consumer.
///
/// A subscription's member queues hold [`Queued`] windows (every member
/// shares the allocation, never a deep copy), but the machinery —
/// capacity bound, delivered/dropped accounting, aggregate depth gauge —
/// is item-agnostic: the wire client instantiates the same type over
/// decoded results, so every delivery stage in the system shares one
/// conservation story (delivered + dropped + pending == offered).
#[derive(Debug)]
pub struct Subscription<T = Queued> {
    queue: VecDeque<T>,
    capacity: usize,
    delivered: u64,
    dropped: u64,
    /// Aggregate depth gauge (`db.sub_queue_depth` for embedded members,
    /// `net.outbox.depth` for a server's). Every queue length
    /// change — enqueue, overflow drop, drain, teardown — is accounted
    /// here, inside the same critical section that mutates the queue, so
    /// the gauge can never drift from the sum of pending results even
    /// when many shards offer concurrently.
    depth_gauge: Option<Arc<Gauge>>,
}

/// A client subscription's members: its CQ's sink offers into them and
/// their consumers pop from them, each through this `Arc`.
pub(crate) type Group = Arc<Mutex<Members>>;

/// Default queue capacity when none is configured.
pub const DEFAULT_SUB_CAPACITY: usize = 1024;

impl<T> Subscription<T> {
    /// A queue holding at most `capacity` undelivered items.
    pub fn bounded(capacity: usize) -> Subscription<T> {
        Subscription {
            queue: VecDeque::new(),
            capacity: capacity.max(1),
            delivered: 0,
            dropped: 0,
            depth_gauge: None,
        }
    }

    /// Account this queue's length in `gauge` from now on (and release
    /// whatever is pending when the subscription is dropped).
    pub fn with_depth_gauge(mut self, gauge: Arc<Gauge>) -> Subscription<T> {
        gauge.add(self.queue.len() as i64);
        self.depth_gauge = Some(gauge);
        self
    }

    fn gauge_add(&self, delta: i64) {
        if let Some(g) = &self.depth_gauge {
            g.add(delta);
        }
    }

    /// Append an item. Returns the number of items dropped to honour the
    /// capacity bound (0 or 1): a full queue sacrifices its oldest item.
    pub fn offer(&mut self, out: T) -> u64 {
        let full = self.queue.len() == self.capacity;
        if full {
            self.queue.pop_front();
            self.dropped += 1;
        } else {
            self.gauge_add(1);
        }
        self.queue.push_back(out);
        u64::from(full)
    }

    /// Drain all queued items.
    pub fn drain(&mut self) -> Vec<T> {
        let out: Vec<T> = self.queue.drain(..).collect();
        self.gauge_add(-(out.len() as i64));
        self.delivered += out.len() as u64;
        out
    }

    /// Remove and return the oldest queued item, counting it delivered.
    pub fn pop(&mut self) -> Option<T> {
        let out = self.queue.pop_front()?;
        self.gauge_add(-1);
        self.delivered += 1;
        Some(out)
    }

    /// Undelivered item count.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Total delivered item count.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Items dropped on overflow.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl<T> Drop for Subscription<T> {
    fn drop(&mut self) {
        // Undelivered results leave the aggregate depth with the sub.
        self.gauge_add(-(self.queue.len() as i64));
    }
}

/// A window as a member's queue holds it, one allocation every member
/// shares: the window itself, or — in a served subscription — the slot
/// its server encodes it into.
#[derive(Clone)]
pub enum Queued {
    Window(Arc<CqOutput>),
    Body(Arc<Body>),
}

impl Queued {
    /// The window, if it is queued as itself.
    pub fn window(self) -> Option<Arc<CqOutput>> {
        match self {
            Queued::Window(window) => Some(window),
            Queued::Body(_) => None,
        }
    }
}

/// A served window's body, set once by its server off the engine's
/// locks; `None` for a window it cannot send.
pub type Body = OnceLock<Option<Arc<Vec<u8>>>>;

/// A window `pump` offered a served subscription, the slot its members
/// queued, and the keys of those it made non-empty.
pub type Offered = (Arc<CqOutput>, Arc<Body>, Vec<u64>);

/// Where a subscription's members are accounted, and who serves them.
#[derive(Clone)]
pub struct Outlet {
    /// Gauges the windows queued in its members.
    pub depth: Arc<Gauge>,
    /// Counts the windows its members shed.
    pub drops: Arc<Counter>,
    /// A server, handed every window under the subscription's lock, so
    /// the body is in its hands before a member can pop the slot; `None`
    /// for embedded members, whose queues hold the window itself.
    pub serve: Option<Arc<dyn Fn(Offered) + Send + Sync>>,
}

/// A member's windows since it joined: `closed == delivered + shed +
/// queued`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemberAccount {
    /// Windows the subscription closed since the member joined.
    pub closed: u64,
    /// Windows popped or drained.
    pub delivered: u64,
    /// Windows its full queue shed.
    pub shed: u64,
    /// Windows still queued.
    pub queued: u64,
}

/// The members of one client subscription.
pub(crate) struct Members {
    /// Each member's queue and the windows closed before it joined, by
    /// key, so offers run in join order.
    seats: BTreeMap<u64, (Subscription, u64)>,
    /// Windows offered so far.
    closed: u64,
    capacity: usize,
    outlet: Outlet,
    /// Its last member left or it was unsubscribed: no one joins again.
    pub(crate) ended: bool,
}

impl Members {
    /// A subscription whose one member is `key`.
    pub(crate) fn new(capacity: usize, key: u64, outlet: Outlet) -> Members {
        let mut members = Members {
            seats: BTreeMap::new(),
            closed: 0,
            capacity,
            outlet,
            ended: false,
        };
        members.seat(key);
        members
    }

    /// Seat member `key` with an empty queue; false if it is seated or
    /// the subscription has ended.
    pub(crate) fn seat(&mut self, key: u64) -> bool {
        let (Entry::Vacant(seat), false) = (self.seats.entry(key), self.ended) else {
            return false;
        };
        let queue =
            Subscription::bounded(self.capacity).with_depth_gauge(self.outlet.depth.clone());
        seat.insert((queue, self.closed));
        true
    }

    /// Offer a closed window to every member, then hand it to the
    /// server, if any.
    pub(crate) fn offer(&mut self, window: Arc<CqOutput>) {
        self.closed += 1;
        let body = self.outlet.serve.as_ref().map(|_| Arc::new(Body::new()));
        let item = (body.clone()).map_or(Queued::Window(window.clone()), Queued::Body);
        let (mut woken, mut shed) = (Vec::new(), 0);
        for (&key, (queue, _)) in &mut self.seats {
            if queue.pending() == 0 {
                woken.push(key);
            }
            shed += queue.offer(item.clone());
        }
        self.outlet.drops.add(shed);
        if let (Some(serve), Some(body)) = (&self.outlet.serve, body) {
            serve((window, body, woken));
        }
    }

    /// Unseat member `key`: its account, and whether it was the last.
    pub(crate) fn unseat(&mut self, key: u64) -> (Option<MemberAccount>, bool) {
        let account = self
            .seats
            .remove(&key)
            .map(|(queue, joined)| MemberAccount {
                closed: self.closed - joined,
                delivered: queue.delivered(),
                shed: queue.dropped(),
                queued: queue.pending() as u64,
            });
        let last = account.is_some() && self.seats.is_empty();
        self.ended |= last;
        (account, last)
    }

    /// Drain member `key`'s queue of windows.
    pub(crate) fn drain(&mut self, key: u64) -> Vec<Arc<CqOutput>> {
        let Some((queue, _)) = self.seats.get_mut(&key) else {
            return Vec::new();
        };
        queue
            .drain()
            .into_iter()
            .filter_map(Queued::window)
            .collect()
    }

    /// Windows queued for embedded members (a server's are its own).
    pub(crate) fn embedded_pending(&self) -> u64 {
        let queued = self.seats.values().map(|(q, _)| q.pending() as u64);
        self.outlet.serve.as_ref().map_or(queued.sum(), |_| 0)
    }
}

/// One member's end of a client subscription, where its consumer pops
/// the windows `pump` queued for it.
pub struct Member {
    group: Group,
    key: u64,
}

impl Member {
    pub(crate) fn new(group: Group, key: u64) -> Member {
        Member { group, key }
    }

    /// Pop the oldest window queued for this member, and whether more
    /// are queued behind it. `None` once it is empty or has left.
    pub fn pop(&self) -> Option<(Queued, bool)> {
        let mut members = self.group.lock();
        let (queue, _) = members.seats.get_mut(&self.key)?;
        let window = queue.pop()?;
        Some((window, queue.pending() > 0))
    }
}

/// Wakes blocked pollers when any subscription receives a window result:
/// [`ResultNotifier::wait_newer`] parks a thread on a condvar until the
/// generation advances. (A server is woken through its [`Outlet`].)
// The notifier's generation lock is a leaf: `Db::pump` publishes once,
// after its last offer, holding no queue lock.
pub struct ResultNotifier {
    generation: Mutex<u64>,
    cv: Condvar,
}

impl std::fmt::Debug for ResultNotifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultNotifier")
            .field("generation", &*self.generation.lock())
            .finish()
    }
}

impl Default for ResultNotifier {
    fn default() -> ResultNotifier {
        ResultNotifier {
            generation: Mutex::named("core.generation", 0),
            cv: Condvar::new(),
        }
    }
}

impl ResultNotifier {
    /// Create a notifier (generation 0).
    pub fn new() -> Arc<ResultNotifier> {
        Arc::new(ResultNotifier::default())
    }

    /// Publish: bump the generation and wake every blocked
    /// [`ResultNotifier::wait_newer`] caller.
    pub fn notify(&self) {
        *self.generation.lock() += 1;
        self.cv.notify_all();
    }

    /// Block until the generation exceeds `seen` or `timeout` elapses.
    /// Returns the generation observed on wake-up. Spurious or stolen
    /// wakeups re-enter the wait with the remaining budget, so an early
    /// return really means "newer generation" or "deadline reached".
    pub fn wait_newer(&self, seen: u64, timeout: Duration) -> u64 {
        let deadline = Instant::now() + timeout;
        let mut gen = self.generation.lock();
        while *gen <= seen {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let _ = self.cv.wait_for(&mut gen, deadline - now);
        }
        *gen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use streamrel_types::{Column, DataType, Relation, Schema};

    fn out(close: i64) -> CqOutput {
        let schema = Arc::new(Schema::new(vec![Column::new("x", DataType::Int)]).unwrap());
        CqOutput {
            close,
            relation: Relation::empty(schema),
        }
    }

    #[test]
    fn queue_drains_in_order() {
        let mut s = Subscription::bounded(DEFAULT_SUB_CAPACITY);
        for close in [10, 20] {
            assert_eq!(s.offer(out(close)), 0);
        }
        assert_eq!(s.pending(), 2);
        let got = s.drain();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].close, 10);
        assert_eq!(s.pending(), 0);
        assert_eq!(s.delivered(), 2);
        assert_eq!(s.dropped(), 0);
    }

    #[test]
    fn overflow_keeps_freshest_windows() {
        let mut s = Subscription::bounded(2);
        assert_eq!(s.offer(out(1)) + s.offer(out(2)) + s.offer(out(3)), 1);
        let got = s.drain();
        assert_eq!(
            got.iter().map(|o| o.close).collect::<Vec<_>>(),
            vec![2, 3],
            "oldest window was sacrificed"
        );
        assert_eq!(s.dropped(), 1);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut s = Subscription::bounded(0);
        assert_eq!(s.offer(out(1)), 0);
        assert_eq!(s.offer(out(2)), 1);
        assert_eq!(s.drain().len(), 1);
    }

    #[test]
    fn notifier_wakes_on_publish() {
        let n = ResultNotifier::new();
        let seen = 0;
        let n2 = n.clone();
        let t = std::thread::spawn(move || n2.wait_newer(seen, std::time::Duration::from_secs(5)));
        // Publish from this thread; the waiter must observe a newer gen.
        std::thread::sleep(std::time::Duration::from_millis(20));
        n.notify();
        assert!(t.join().unwrap() > seen);
    }

    #[test]
    fn an_ended_subscription_seats_no_one() {
        let registry = streamrel_obs::Registry::new(0);
        let (depth, drops) = (registry.gauge("depth"), registry.counter("drops"));
        let mut members = Members::new(
            2,
            0,
            Outlet {
                depth,
                drops,
                serve: None,
            },
        );
        assert!(!members.seat(0), "one seat per key");
        assert!(members.seat(1));
        assert!(!members.unseat(0).1);
        assert!(members.unseat(1).1, "the last member ends it");
        assert!(!members.seat(2), "a join racing the end is refused");
    }

    #[test]
    fn notifier_times_out_quietly() {
        let n = ResultNotifier::new();
        let g = n.wait_newer(0, std::time::Duration::from_millis(10));
        assert_eq!(g, 0);
    }

    // ---- conservation: delivered + dropped + pending == offered ----------

    use proptest::prelude::*;

    proptest! {
        /// Every window offered is accounted for exactly once: delivered,
        /// dropped, or still queued — under any interleaving of offers and
        /// drains and any capacity.
        #[test]
        fn offers_are_conserved(
            capacity in 1usize..8,
            // true = offer a window, false = drain the queue.
            ops in prop::collection::vec(any::<bool>(), 0..200),
        ) {
            let mut s = Subscription::bounded(capacity);
            let mut offered = 0u64;
            for (i, op) in ops.into_iter().enumerate() {
                if op {
                    s.offer(out(i as i64));
                    offered += 1;
                } else {
                    s.drain();
                }
                prop_assert_eq!(
                    s.delivered() + s.dropped() + s.pending() as u64,
                    offered
                );
                prop_assert!(s.pending() <= capacity);
            }
        }
    }

    #[test]
    fn conservation_under_concurrent_offer_and_poll() {
        // The Db serializes access behind a mutex; model that contention
        // directly: one thread offers, one drains.
        let sub = Arc::new(Mutex::new(Subscription::bounded(4)));
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        const OFFERS: u64 = 2_000;
        let offerer = {
            let (sub, done) = (sub.clone(), done.clone());
            std::thread::spawn(move || {
                for i in 0..OFFERS {
                    sub.lock().offer(out(i as i64));
                }
                done.store(true, std::sync::atomic::Ordering::Release);
            })
        };
        let drainer = {
            let (sub, done) = (sub.clone(), done.clone());
            std::thread::spawn(move || loop {
                let finished = done.load(std::sync::atomic::Ordering::Acquire);
                sub.lock().drain();
                if finished {
                    break;
                }
                std::thread::yield_now();
            })
        };
        offerer.join().unwrap();
        drainer.join().unwrap();
        let s = sub.lock();
        assert_eq!(s.delivered() + s.dropped() + s.pending() as u64, OFFERS);
    }
}
