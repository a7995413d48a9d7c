//! Offline shim for `parking_lot`, backed by `std::sync`.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the small API subset it actually uses: [`Mutex`], [`RwLock`]
//! and [`Condvar`] with parking_lot's poison-free signatures (`lock()`
//! returns the guard directly). Poisoned std locks are treated as
//! acquired — the data is still consistent for our use cases, matching
//! parking_lot's behaviour of not having poisoning at all.
//!
//! On top of the plain shim, mutexes built with [`Mutex::named`]
//! participate in the runtime lock [`witness`]: their acquisitions are
//! checked against the declared lock order and the learned acquisition
//! graph, tracked for wait-for-graph deadlock detection, and exposed to
//! the seeded chaos scheduler (`streamrel-faults`). Unnamed locks pay one
//! `Option` branch and nothing else. Validation is on in debug builds and
//! off in release builds unless [`witness::enable`] turns it on.

// lint: allow-unsafe(Condvar::wait must hand the guard through std's API
// by value; the shim moves it with a raw pointer read/write in
// `take_guard`, which is sound because the source is forgotten)

pub mod witness;

use std::fmt;
use std::panic::Location;
use std::sync::{self, TryLockError};
use std::time::Duration;

use witness::ChaosPoint;

/// Mutual exclusion primitive (poison-free facade over `std::sync::Mutex`).
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    name: Option<&'static str>,
    inner: sync::Mutex<T>,
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    /// The lock's name, if it has one: the release of a named lock is a
    /// chaos point whether or not the witness validates it.
    name: Option<&'static str>,
    token: Option<witness::Token>,
    inner: sync::MutexGuard<'a, T>,
}

impl<T> Mutex<T> {
    /// Create a new (unnamed) mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            name: None,
            inner: sync::Mutex::new(value),
        }
    }

    /// Create a witness-instrumented mutex. `name` is the lock's
    /// qualified name, `<crate>.<field>` (e.g. `"storage.wal"`), as in
    /// the declared order table `streamrel_check::lock_order`.
    pub const fn named(name: &'static str, value: T) -> Mutex<T> {
        Mutex {
            name: Some(name),
            inner: sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until available. Named locks are
    /// validated against the lock order and watched for deadlock while
    /// the witness is enabled.
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let Some(name) = self.name else {
            return MutexGuard {
                name: None,
                token: None,
                inner: lock_plain(&self.inner),
            };
        };
        let site = Location::caller();
        witness::chaos(ChaosPoint::Acquire, Some(name));
        if !witness::enabled() {
            return MutexGuard {
                name: Some(name),
                token: None,
                inner: lock_plain(&self.inner),
            };
        }
        witness::validate(name, site);
        let addr = self as *const _ as *const () as usize;
        let inner =
            witness::acquire_with_detection(name, addr, site, || try_lock_plain(&self.inner));
        MutexGuard {
            name: Some(name),
            token: Some(witness::acquired(name, addr, site)),
            inner,
        }
    }

    /// Try to acquire the lock without blocking. A lock that cannot block
    /// adds no edge to the witness's graph, but once held it is the held
    /// end of the edges the next acquisitions add.
    #[track_caller]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        // Outside the closure below: a closure does not inherit
        // `#[track_caller]`.
        let site = Location::caller();
        let inner = try_lock_plain(&self.inner)?;
        let token = self.name.filter(|_| witness::enabled()).map(|name| {
            let addr = self as *const _ as *const () as usize;
            witness::acquired(name, addr, site)
        });
        Some(MutexGuard {
            name: self.name,
            token,
            inner,
        })
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

fn lock_plain<T: ?Sized>(m: &sync::Mutex<T>) -> sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

fn try_lock_plain<T: ?Sized>(m: &sync::Mutex<T>) -> Option<sync::MutexGuard<'_, T>> {
    match m.try_lock() {
        Ok(g) => Some(g),
        Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_tuple("Mutex").field(&&*g).finish(),
            None => f.write_str("Mutex(<locked>)"),
        }
    }
}

impl<T: ?Sized> MutexGuard<'_, T> {
    /// Let the lock go, on a drop or a condvar wait's hand-off: a named
    /// lock's release is a chaos point, and a witnessed guard hands its
    /// token back. Returns the token's (name, addr) identity, which a
    /// wait re-records once it holds the lock again.
    fn release(&mut self) -> Option<(&'static str, usize)> {
        if self.name.is_some() {
            witness::chaos(ChaosPoint::Release, self.name);
        }
        let token = self.token.take()?;
        let identity = (token.name(), token.addr());
        witness::released(token);
        Some(identity)
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        self.release();
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// Reader-writer lock (poison-free facade over `std::sync::RwLock`).
#[derive(Default)]
pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

/// Shared-read guard for [`RwLock`].
pub type RwLockReadGuard<'a, T> = sync::RwLockReadGuard<'a, T>;

/// Exclusive-write guard for [`RwLock`].
pub type RwLockWriteGuard<'a, T> = sync::RwLockWriteGuard<'a, T>;

impl<T> RwLock<T> {
    /// Create a new reader-writer lock.
    pub const fn new(value: T) -> RwLock<T> {
        RwLock {
            inner: sync::RwLock::new(value),
        }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read lock.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        match self.inner.read() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Acquire an exclusive write lock.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        match self.inner.write() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inner.try_read() {
            Ok(g) => f.debug_tuple("RwLock").field(&&*g).finish(),
            _ => f.write_str("RwLock(<locked>)"),
        }
    }
}

/// Condition variable compatible with this shim's [`Mutex`].
#[derive(Debug, Default)]
pub struct Condvar(sync::Condvar);

/// Result of [`Condvar::wait_for`].
#[derive(Debug, Clone, Copy)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// True if the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

impl Condvar {
    /// Create a new condition variable.
    pub const fn new() -> Condvar {
        Condvar(sync::Condvar::new())
    }

    /// Block until notified, releasing the guard while waiting.
    #[track_caller]
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let relock = release_for_wait(guard);
        take_guard(guard, |g| match self.0.wait(g) {
            Ok(g) => (g, ()),
            Err(p) => (p.into_inner(), ()),
        });
        rerecord_after_wait(guard, relock);
    }

    /// Block until notified or `timeout` elapses.
    #[track_caller]
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let relock = release_for_wait(guard);
        let r = take_guard(guard, |g| match self.0.wait_timeout(g, timeout) {
            Ok((g, t)) => (g, WaitTimeoutResult(t.timed_out())),
            Err(p) => {
                let (g, t) = p.into_inner();
                (g, WaitTimeoutResult(t.timed_out()))
            }
        });
        rerecord_after_wait(guard, relock);
        r
    }

    /// Wake one waiter.
    pub fn notify_one(&self) -> bool {
        witness::chaos(ChaosPoint::Notify, None);
        self.0.notify_one();
        true
    }

    /// Wake all waiters.
    pub fn notify_all(&self) -> usize {
        witness::chaos(ChaosPoint::Notify, None);
        self.0.notify_all();
        0
    }
}

/// A wait releases the mutex: hand the witness token back so the
/// held-set and owner map reflect reality while this thread sleeps.
/// Returns the (name, addr) identity needed to re-record afterwards.
fn release_for_wait<T: ?Sized>(guard: &mut MutexGuard<'_, T>) -> Option<(&'static str, usize)> {
    witness::chaos(ChaosPoint::CondvarWait, guard.name);
    guard.release()
}

/// Re-record the mutex the wait re-acquired (if it was witnessed).
#[track_caller]
fn rerecord_after_wait<T: ?Sized>(
    guard: &mut MutexGuard<'_, T>,
    identity: Option<(&'static str, usize)>,
) {
    if let Some((name, addr)) = identity {
        guard.token = Some(witness::acquired(name, addr, Location::caller()));
    }
}

/// Run `f` with ownership of the inner std guard, restoring it afterwards.
/// Needed because std's condvar consumes and returns guards by value while
/// parking_lot's API mutates one in place.
fn take_guard<'a, T, R>(
    guard: &mut MutexGuard<'a, T>,
    f: impl FnOnce(sync::MutexGuard<'a, T>) -> (sync::MutexGuard<'a, T>, R),
) -> R {
    // SAFETY: we read the guard out, hand it to `f`, and write the returned
    // guard (for the same mutex) back before anyone can observe the hole.
    // A panic inside std's wait would abort the process before unwinding
    // through here only if the mutex is poisoned, which we map back into a
    // live guard above.
    unsafe {
        let inner = std::ptr::read(&guard.inner);
        let (inner, r) = f(inner);
        std::ptr::write(&mut guard.inner, inner);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn mutex_basics() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn rwlock_basics() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(false);
        let cv = Condvar::new();
        let mut g = m.lock();
        // lint: wait-ok(timeout assertion, nothing to re-check)
        let r = cv.wait_for(&mut g, Duration::from_millis(10));
        assert!(r.timed_out());
    }

    #[test]
    fn condvar_notify_crosses_threads() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = pair.clone();
        let t = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            *m.lock() = true;
            cv.notify_all();
        });
        let (m, cv) = &*pair;
        let mut g = m.lock();
        while !*g {
            let r = cv.wait_for(&mut g, Duration::from_secs(5));
            assert!(!r.timed_out(), "notify should arrive");
        }
        t.join().unwrap();
    }

    #[test]
    fn named_locks_work_like_plain_ones() {
        let m = Mutex::named("test.plain", 7);
        *m.lock() += 1;
        assert_eq!(*m.try_lock().unwrap(), 8);
    }

    /// A lock held through `try_lock` is reported at the caller's line,
    /// not at a line inside this shim.
    #[test]
    fn a_try_locked_lock_is_held_at_the_callers_site() {
        crate::witness::enable();
        let a = Mutex::named("test.try_a", ());
        let b = Mutex::named("test.try_b", ());
        {
            let _b = b.lock();
            let _a = a.lock();
        }
        let (held, line) = (a.try_lock(), line!());
        assert!(held.is_some());
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _b = b.lock();
        }))
        .expect_err("b after a closes the cycle b -> a -> b");
        drop(held);
        let msg = err.downcast_ref::<String>().unwrap();
        let site = format!("`test.try_a` held at {}:{line}:", file!());
        assert!(msg.contains(&site), "{msg} lacks {site}");
    }
}
