//! Runtime lock-order witness and wait-for-graph deadlock detector.
//!
//! Locks constructed with [`crate::Mutex::named`] report every
//! acquisition here. While validation is on — in every debug build, and
//! wherever [`enable`] turned it on — the witness
//!
//! * keeps a per-thread stack of held named locks (with the
//!   `#[track_caller]` acquisition site of each);
//! * checks each blocking acquisition against the installed global
//!   order (`streamrel_check::lock_order`, installed by
//!   `Db::with_engine`): acquiring `a` while holding `b` when the order
//!   puts `a` before `b` panics with **both** acquisition sites;
//! * learns the real acquisition graph: each blocking acquisition records
//!   the (held, acquiring) name pair with the sites it was first seen at,
//!   and the first pair that would close a cycle panics naming the two
//!   sites of every edge on that cycle. Same-name pairs are skipped, and
//!   a pair already recorded costs one read of the shared graph. [`edges`]
//!   reads the graph back;
//! * when a named acquisition stalls, registers the thread in a global
//!   wait-for graph and panics with the full cycle if the blocked
//!   threads form one (a deadlock neither check foresaw, e.g. same-name
//!   sibling locks taken in opposite orders).
//!
//! Unnamed locks skip the witness entirely (one `Option` branch), and a
//! release build with validation off pays one atomic load per named
//! acquisition. The chaos hook ([`set_chaos_hook`]) fires at every
//! named acquisition whether or not validation is on, but at a release
//! only for a guard validation tracked.
//!
//! The witness's own state uses `std::sync` primitives directly — going
//! through this crate's wrappers would recurse.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::panic::Location;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex as StdMutex, OnceLock, RwLock as StdRwLock};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

/// How long a named acquisition may block before the wait-for graph is
/// consulted for a deadlock cycle.
const STALL_THRESHOLD: Duration = Duration::from_millis(20);

/// An acquisition site.
type Site = &'static Location<'static>;

/// A `(held, acquired)` pair of lock names.
type Pair = (&'static str, &'static str);

/// A learned pair with the sites it was first seen at.
type Edge = (Pair, (Site, Site));

/// Whether acquisitions are validated. Independent of the chaos hook.
static ENABLED: AtomicBool = AtomicBool::new(cfg!(debug_assertions));

/// The declared order and the learned acquisition graph, behind one lock
/// so that a pair seen before costs one read.
static GRAPH: StdRwLock<Graph> = StdRwLock::new(Graph {
    order: Vec::new(),
    edges: BTreeMap::new(),
});

struct Graph {
    /// The installed global order: a thread holding one of these names
    /// must not acquire one listed before it.
    order: Vec<&'static str>,
    /// `(held, acquired)` name pairs seen nested, with the site each was
    /// first taken at. Acyclic: the pair that would close a cycle panics
    /// instead of landing here.
    edges: BTreeMap<Pair, (Site, Site)>,
}

/// Exclusive owners of named locks, by lock address.
static OWNERS: StdMutex<Option<HashMap<usize, Owner>>> = StdMutex::new(None);

/// Threads currently blocked acquiring a named lock.
static WAITERS: StdMutex<Option<HashMap<ThreadId, Waiter>>> = StdMutex::new(None);

#[derive(Clone, Copy)]
struct Owner {
    thread: ThreadId,
    name: &'static str,
    site: Site,
}

#[derive(Clone, Copy)]
struct Waiter {
    addr: usize,
    name: &'static str,
    site: Site,
}

/// One held named lock on the current thread's stack.
#[derive(Clone, Copy)]
struct HeldLock {
    addr: usize,
    name: &'static str,
    site: Site,
}

thread_local! {
    static HELD: RefCell<Vec<HeldLock>> = const { RefCell::new(Vec::new()) };
}

/// Witness token carried inside a guard for a named lock; returned to
/// [`released`] when the guard drops.
pub struct Token {
    addr: usize,
    name: &'static str,
}

impl Token {
    /// The lock's qualified name.
    pub(crate) fn name(&self) -> &'static str {
        self.name
    }

    /// The lock's identity key in the owner map.
    pub(crate) fn addr(&self) -> usize {
        self.addr
    }
}

/// Turn validation on for this process (a release-built torture harness;
/// debug builds start with it on).
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turn validation off.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether acquisitions are currently validated.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::SeqCst)
}

/// Install (replace) the global lock order. Called with
/// `streamrel_check::lock_order::GLOBAL_LOCK_ORDER` by whoever constructs
/// the engine; idempotent for identical orders.
pub fn install_order(order: &[&'static str]) {
    if let Ok(mut g) = GRAPH.write() {
        g.order.clear();
        g.order.extend_from_slice(order);
    }
}

/// The learned acquisition graph: every `(held, acquired)` pair of
/// distinct lock names this process has taken nested, sorted.
pub fn edges() -> Vec<Pair> {
    GRAPH
        .read()
        .map(|g| g.edges.keys().copied().collect())
        .unwrap_or_default()
}

// ---------------------------------------------------------------------
// Chaos hook
// ---------------------------------------------------------------------

/// Where in a lock's lifecycle a chaos hook fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosPoint {
    /// Immediately before a named lock is acquired.
    Acquire,
    /// Immediately before a named lock is released (still held).
    Release,
    /// Immediately before a condvar wait releases its mutex.
    CondvarWait,
    /// Immediately before a condvar notify.
    Notify,
}

/// The installed chaos hook, if any. Set once per process.
static CHAOS_HOOK: OnceLock<fn(ChaosPoint, Option<&'static str>)> = OnceLock::new();

/// Install a process-wide chaos hook fired at every named-lock and
/// condvar schedule point. First install wins; later calls are ignored
/// (the hook's own behaviour — seed, intensity — is expected to live in
/// the installer's state).
pub fn set_chaos_hook(hook: fn(ChaosPoint, Option<&'static str>)) {
    let _ = CHAOS_HOOK.set(hook);
}

/// Fire the chaos hook at a schedule point.
#[inline]
pub(crate) fn chaos(point: ChaosPoint, name: Option<&'static str>) {
    if let Some(h) = CHAOS_HOOK.get() {
        h(point, name);
    }
}

// ---------------------------------------------------------------------
// Acquisition protocol
// ---------------------------------------------------------------------

/// Check acquiring `name` at `site` against the current thread's held
/// set, and learn each new (held, `name`) pair; panics with the sites
/// involved on a violation or a cycle. Called *before* blocking so the
/// panic fires even if the acquisition would deadlock.
pub(crate) fn validate(name: &'static str, site: Site) {
    if !enabled() {
        return;
    }
    HELD.with(|held| {
        for h in held.borrow().iter().filter(|h| h.name != name) {
            if let Some(msg) = learn(h, name, site) {
                panic!("{msg}");
            }
        }
    });
}

/// Record the pair (`held`, `name`) unless already known; the message of
/// the panic it calls for, if any.
fn learn(held: &HeldLock, name: &'static str, site: Site) -> Option<String> {
    let key = (held.name, name);
    if GRAPH.read().map_or(true, |g| g.edges.contains_key(&key)) {
        return None;
    }
    let mut g = GRAPH.write().ok()?;
    let pos = |n: &str| g.order.iter().position(|o| *o == n);
    if matches!((pos(name), pos(held.name)), (Some(a), Some(b)) if a < b) {
        return Some(format!(
            "lock-order violation: acquiring `{name}` at {site} while holding \
             `{held_name}` acquired at {held_site}; the declared order requires \
             `{name}` < `{held_name}` (crates/check/src/lock_order.rs)",
            held_name = held.name,
            held_site = held.site,
        ));
    }
    if let Some(path) = path(&g.edges, name, held.name) {
        let hops: Vec<String> = path
            .iter()
            .chain(std::iter::once(&(key, (held.site, site))))
            .map(|((a, b), (at_a, at_b))| {
                format!("`{a}` held at {at_a} while acquiring `{b}` at {at_b}")
            })
            .collect();
        return Some(format!(
            "lock-order cycle: acquiring `{name}` at {site} while holding \
             `{held_name}` closes a cycle of acquisitions: {}",
            hops.join("; then "),
            held_name = held.name,
        ));
    }
    g.edges.insert(key, (held.site, site));
    None
}

/// A chain of recorded edges leading from `from` to `to`, if any.
fn path(
    edges: &BTreeMap<Pair, (Site, Site)>,
    from: &'static str,
    to: &'static str,
) -> Option<Vec<Edge>> {
    // Depth-first over a graph of a handful of names; `seen` keeps a
    // shared target from being walked twice.
    let mut stack: Vec<(&'static str, Vec<Edge>)> = vec![(from, Vec::new())];
    let mut seen = vec![from];
    while let Some((at, trail)) = stack.pop() {
        for (&(a, b), &sites) in edges.range((at, "")..) {
            if a != at {
                break;
            }
            let mut next = trail.clone();
            next.push(((a, b), sites));
            if b == to {
                return Some(next);
            }
            if !seen.contains(&b) {
                seen.push(b);
                stack.push((b, next));
            }
        }
    }
    None
}

/// Record a successful acquisition (or a condvar wait's re-acquisition),
/// returning the token the guard must hand back on drop.
pub(crate) fn acquired(name: &'static str, addr: usize, site: Site) -> Token {
    HELD.with(|held| held.borrow_mut().push(HeldLock { addr, name, site }));
    if let Ok(mut owners) = OWNERS.lock() {
        owners.get_or_insert_with(HashMap::new).insert(
            addr,
            Owner {
                thread: thread::current().id(),
                name,
                site,
            },
        );
    }
    Token { addr, name }
}

/// Record a release (guard drop or condvar wait hand-off).
pub(crate) fn released(token: Token) {
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        // Guards may drop out of LIFO order; remove the topmost match.
        if let Some(i) = held.iter().rposition(|h| h.addr == token.addr) {
            held.remove(i);
        }
    });
    if let Ok(mut owners) = OWNERS.lock() {
        if let Some(map) = owners.as_mut() {
            map.remove(&token.addr);
        }
    }
}

/// Run a blocking acquisition with deadlock detection: `try_acquire` is
/// polled; once the stall threshold passes, the thread registers in the
/// wait-for graph and panics if the blocked threads form a cycle.
pub(crate) fn acquire_with_detection<G>(
    name: &'static str,
    addr: usize,
    site: Site,
    mut try_acquire: impl FnMut() -> Option<G>,
) -> G {
    if let Some(g) = try_acquire() {
        return g;
    }
    let start = Instant::now();
    let me = thread::current().id();
    let mut registered = false;
    loop {
        if let Some(g) = try_acquire() {
            if registered {
                if let Ok(mut w) = WAITERS.lock() {
                    if let Some(map) = w.as_mut() {
                        map.remove(&me);
                    }
                }
            }
            return g;
        }
        if start.elapsed() >= STALL_THRESHOLD {
            if !registered {
                registered = true;
                if let Ok(mut w) = WAITERS.lock() {
                    w.get_or_insert_with(HashMap::new)
                        .insert(me, Waiter { addr, name, site });
                }
            }
            if let Some(cycle) = find_cycle(me, addr) {
                // Deregister before panicking so other threads don't see
                // a phantom waiter.
                if let Ok(mut w) = WAITERS.lock() {
                    if let Some(map) = w.as_mut() {
                        map.remove(&me);
                    }
                }
                panic!(
                    "deadlock detected: thread blocked acquiring `{name}` at \
                     {site}; wait-for cycle: {cycle}"
                );
            }
            thread::sleep(Duration::from_millis(1));
        } else {
            thread::yield_now();
        }
    }
}

/// Walk the wait-for graph from `start` blocked on `lock_addr`; returns
/// a rendered cycle if it closes back on `start`.
fn find_cycle(start: ThreadId, lock_addr: usize) -> Option<String> {
    let owners = OWNERS.lock().ok()?;
    let owners = owners.as_ref()?;
    let waiters = WAITERS.lock().ok()?;
    let waiters = waiters.as_ref()?;
    let mut path = Vec::new();
    let mut addr = lock_addr;
    for _ in 0..64 {
        let owner = owners.get(&addr)?;
        path.push(format!(
            "`{}` is held at {} by thread {:?}",
            owner.name, owner.site, owner.thread
        ));
        if owner.thread == start {
            return Some(path.join("; "));
        }
        let w = waiters.get(&owner.thread)?;
        path.push(format!(
            "which is blocked acquiring `{}` at {}",
            w.name, w.site
        ));
        addr = w.addr;
    }
    None
}
