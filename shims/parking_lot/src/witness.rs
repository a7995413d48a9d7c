//! Runtime lock-order witness and wait-for-graph deadlock detector.
//!
//! The static lock-graph analysis (`streamrel-check::lock_graph`) merges
//! every `// lock-order:` declaration into one global acquisition order
//! and emits it as a generated table. This module is the runtime half of
//! that contract: locks constructed with [`crate::Mutex::named`] /
//! [`crate::RwLock::named`] report every acquisition here, and the
//! witness
//!
//! * keeps a per-thread stack of held named locks (with the
//!   `#[track_caller]` acquisition site of each),
//! * validates each new acquisition against the installed must-precede
//!   table — acquiring `a` while holding `b` when the global order says
//!   `a < b` panics with **both** acquisition sites,
//! * when a named acquisition stalls, registers the thread in a global
//!   wait-for graph and panics with the full cycle if the blocked
//!   threads form one (a deadlock the order table did not prevent, e.g.
//!   same-name sibling locks taken in opposite orders).
//!
//! Everything is keyed off the lock's `name`: unnamed locks skip the
//! witness entirely (one `Option` branch), so the hot paths that matter
//! for perf can stay unnamed while the engine's structural locks are
//! instrumented. Validation is **off** by default and enabled either at
//! runtime with [`enable`] or by default when the crate is built with
//! the `lock_witness` feature; the chaos hook ([`set_chaos_hook`]) is
//! independent of enablement so a chaos scheduler can perturb timing
//! without paying for validation.
//!
//! The witness's own state uses `std::sync` primitives directly — going
//! through this crate's wrappers would recurse.

use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::Location;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex as StdMutex, OnceLock, RwLock as StdRwLock};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

/// How long a named acquisition may block before the wait-for graph is
/// consulted for a deadlock cycle.
const STALL_THRESHOLD: Duration = Duration::from_millis(20);

/// Whether acquisitions are validated. Independent of the chaos hook.
static ENABLED: AtomicBool = AtomicBool::new(cfg!(feature = "lock_witness"));

/// The installed must-precede table: `(a, b)` means a thread holding `b`
/// must not acquire `a`.
static ORDER: StdRwLock<Vec<(&'static str, &'static str)>> = StdRwLock::new(Vec::new());

/// Exclusive owners of named locks, by lock address.
static OWNERS: StdMutex<Option<HashMap<usize, Owner>>> = StdMutex::new(None);

/// Threads currently blocked acquiring a named lock.
static WAITERS: StdMutex<Option<HashMap<ThreadId, Waiter>>> = StdMutex::new(None);

#[derive(Clone, Copy)]
struct Owner {
    thread: ThreadId,
    name: &'static str,
    site: &'static Location<'static>,
}

#[derive(Clone, Copy)]
struct Waiter {
    addr: usize,
    name: &'static str,
    site: &'static Location<'static>,
}

/// One held named lock on the current thread's stack.
#[derive(Clone, Copy)]
struct HeldLock {
    addr: usize,
    name: &'static str,
    site: &'static Location<'static>,
}

thread_local! {
    static HELD: RefCell<Vec<HeldLock>> = const { RefCell::new(Vec::new()) };
}

/// Witness token carried inside a guard for a named lock; returned to
/// [`released`] when the guard drops. `exclusive` is false for rwlock
/// read guards (shared owners are not tracked in the wait-for graph).
pub struct Token {
    addr: usize,
    name: &'static str,
    exclusive: bool,
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

/// Turn validation on for this process (e.g. from a torture harness).
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

/// Install (replace) the global must-precede table. Typically called
/// with `streamrel_check::lock_graph_gen::LOCK_MUST_PRECEDE` by whoever
/// constructs the engine; idempotent for identical tables.
pub fn install_order(pairs: &[(&'static str, &'static str)]) {
    if let Ok(mut o) = ORDER.write() {
        o.clear();
        o.extend_from_slice(pairs);
    }
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

/// Validate that acquiring `name` is consistent with the current
/// thread's held set; panics with both sites on violation. Called
/// *before* blocking so the panic fires even if the acquisition would
/// deadlock.
pub(crate) fn validate(name: &'static str, site: &'static Location<'static>) {
    if !enabled() {
        return;
    }
    HELD.with(|held| {
        let held = held.borrow();
        if held.is_empty() {
            return;
        }
        let order = match ORDER.read() {
            Ok(o) => o,
            Err(_) => return,
        };
        for h in held.iter() {
            // Must `name` precede the already-held `h.name`?
            if order.iter().any(|&(a, b)| a == name && b == h.name) {
                panic!(
                    "lock-order violation: acquiring `{name}` at {site} while \
                     holding `{held_name}` acquired at {held_site}; the merged \
                     global order requires `{name}` < `{held_name}` \
                     (crates/check/src/lock_graph.gen.rs)",
                    held_name = h.name,
                    held_site = h.site,
                );
            }
        }
    });
}

/// Record a successful acquisition, returning the token the guard must
/// hand back on drop. `exclusive` is false for shared (read) guards.
pub(crate) fn acquired(
    name: &'static str,
    addr: usize,
    exclusive: bool,
    site: &'static Location<'static>,
) -> Token {
    HELD.with(|held| held.borrow_mut().push(HeldLock { addr, name, site }));
    if exclusive {
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
    }
    Token {
        addr,
        name,
        exclusive,
    }
}

/// Record a release (guard drop or condvar wait hand-off).
pub(crate) fn released(token: Token) {
    chaos(ChaosPoint::Release, Some(token.name));
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        // Guards may drop out of LIFO order; remove the topmost match.
        if let Some(i) = held.iter().rposition(|h| h.addr == token.addr) {
            held.remove(i);
        }
    });
    if token.exclusive {
        if let Ok(mut owners) = OWNERS.lock() {
            if let Some(map) = owners.as_mut() {
                map.remove(&token.addr);
            }
        }
    }
}

/// Re-record a lock a condvar wait just re-acquired (no order validation:
/// the lock is already physically held, and the original acquisition was
/// validated).
pub(crate) fn reacquired(
    name: &'static str,
    addr: usize,
    site: &'static Location<'static>,
) -> Token {
    acquired(name, addr, true, site)
}

/// Run a blocking acquisition with deadlock detection: `try_acquire` is
/// polled; once the stall threshold passes, the thread registers in the
/// wait-for graph and panics if the blocked threads form a cycle.
pub(crate) fn acquire_with_detection<G>(
    name: &'static str,
    addr: usize,
    site: &'static Location<'static>,
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
