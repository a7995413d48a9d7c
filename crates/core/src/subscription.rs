//! Client-facing continuous query results.
//!
//! A continuous `SELECT` does not return rows: it returns a
//! [`SubscriptionId`]; window results accumulate in a queue drained with
//! [`crate::Db::poll`]. This is the paper's §3.1 contract — "CQs produce
//! answers incrementally and run until they are explicitly terminated" —
//! and its §3.2 note that results of an always-on derived stream are
//! available as soon as a client reconnects.
//!
//! The queue is **bounded**: a slow (or absent) poller cannot grow memory
//! without limit. On overflow the oldest queued result is sacrificed
//! (fresh data wins) and every drop is counted — both per subscription
//! and in the aggregate [`crate::DbStats`]. Every delivery stage uses the
//! same [`Subscription`] queue: the engine per client subscription, the
//! network server per wire member (its outboxes), the wire client per
//! stream.

use std::collections::VecDeque;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use streamrel_cq::CqOutput;
use streamrel_obs::Gauge;

/// Identifies one client subscription within a [`crate::Db`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubscriptionId(pub u64);

/// Bounded drop-oldest queue of undelivered items for one consumer.
///
/// The engine's subscription queues hold window results as
/// `Arc<CqOutput>` (a server fanning one out to N members shares the
/// allocation, never deep-copies it), but the machinery — capacity
/// bound, delivered/dropped accounting, aggregate depth gauge — is
/// item-agnostic: the network server instantiates the same type over
/// encoded frame bodies for its per-member outboxes, and the client
/// over decoded results, so every delivery stage in the system shares
/// one conservation story (delivered + dropped + pending == offered).
#[derive(Debug)]
pub struct Subscription<T = Arc<CqOutput>> {
    queue: VecDeque<T>,
    capacity: usize,
    delivered: u64,
    dropped: u64,
    /// Aggregate depth gauge (`db.sub_queue_depth` for engine queues,
    /// `net.outbox.depth` for server outboxes). Every queue length
    /// change — enqueue, overflow drop, drain, teardown — is accounted
    /// here, inside the same critical section that mutates the queue, so
    /// the gauge can never drift from the sum of pending results even
    /// when many shards offer concurrently.
    depth_gauge: Option<Arc<Gauge>>,
}

/// A client subscription's queue: its CQ's sink offers into it and its
/// pollers drain it, each through this `Arc`.
pub(crate) type ClientQueue = Arc<Mutex<Subscription>>;

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

/// A callback invoked (without any notifier lock held) on every publish.
pub type Waker = Arc<dyn Fn() + Send + Sync>;

/// Wakes blocked pollers when any subscription receives a window result.
///
/// Two wake styles coexist:
///
/// * **Blocking** — [`ResultNotifier::wait_newer`] parks a thread on a
///   condvar until the generation advances. The embedded API and simple
///   delivery threads use this.
/// * **Readiness** — a reactor that multiplexes thousands of
///   subscriptions over a handful of sockets cannot park a thread per
///   consumer; it registers a [`Waker`] (typically `Poller::notify`)
///   with [`ResultNotifier::register_waker`] and gets called back on
///   each publish. Wakers are held weakly and pruned lazily, so a
///   departed reactor costs one dead slot, not a leak.
// lock-order: generation
//
// The notifier's generation lock is a leaf: `Db::pump` publishes once,
// after its last offer, holding no queue lock. The wakers list lock is
// private to this type, never nested with any other lock (wakers run
// after it is released), and so contributes no lock-graph edges.
pub struct ResultNotifier {
    generation: Mutex<u64>,
    cv: Condvar,
    wakers: Mutex<Vec<Weak<dyn Fn() + Send + Sync>>>,
}

impl std::fmt::Debug for ResultNotifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultNotifier")
            .field("generation", &*self.generation.lock())
            .field("wakers", &self.wakers.lock().len())
            .finish()
    }
}

impl Default for ResultNotifier {
    fn default() -> ResultNotifier {
        ResultNotifier {
            // Witness name matches the `// lock-order:` declaration above.
            generation: Mutex::named("core.generation", 0),
            cv: Condvar::new(),
            wakers: Mutex::named("core.wakers", Vec::new()),
        }
    }
}

impl ResultNotifier {
    /// Create a notifier (generation 0).
    pub fn new() -> Arc<ResultNotifier> {
        Arc::new(ResultNotifier::default())
    }

    /// Publish: bump the generation and wake all waiters — blocked
    /// [`ResultNotifier::wait_newer`] callers via the condvar, registered
    /// [`Waker`]s by invocation. Wakers run with no notifier lock held,
    /// so a waker may freely call back into the notifier (or into a
    /// poller whose wait loop re-reads the generation).
    pub fn notify(&self) {
        *self.generation.lock() += 1;
        self.cv.notify_all();
        let live: Vec<Waker> = {
            let mut wakers = self.wakers.lock();
            wakers.retain(|w| w.strong_count() > 0);
            wakers.iter().filter_map(Weak::upgrade).collect()
        };
        for waker in live {
            waker();
        }
    }

    /// Register `waker` to be invoked on every subsequent publish. The
    /// notifier holds it weakly: dropping the last strong reference
    /// unregisters it.
    pub fn register_waker(&self, waker: &Waker) {
        let mut wakers = self.wakers.lock();
        wakers.retain(|w| w.strong_count() > 0);
        wakers.push(Arc::downgrade(waker));
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
    fn waker_fires_on_publish_and_unregisters_on_drop() {
        let n = ResultNotifier::new();
        let hits = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let waker: Waker = {
            let hits = hits.clone();
            Arc::new(move || {
                hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            })
        };
        n.register_waker(&waker);
        n.notify();
        n.notify();
        assert_eq!(hits.load(std::sync::atomic::Ordering::Relaxed), 2);
        drop(waker);
        n.notify();
        assert_eq!(
            hits.load(std::sync::atomic::Ordering::Relaxed),
            2,
            "dropped waker must not fire"
        );
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
