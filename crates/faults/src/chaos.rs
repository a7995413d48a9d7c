//! Seeded chaos scheduling at lock and condvar synchronization points.
//!
//! The `parking_lot` shim's lock witness exposes a process-global chaos
//! hook that fires immediately before every named-lock acquisition and
//! release, before a condvar wait releases its mutex, and on every
//! notify. This module installs a deterministic *preemption injector*
//! behind that hook: each synchronization point draws from
//! `splitmix64(seed ^ op ^ point)` — the same per-operation schedule
//! shape as [`crate::FaultPlan`]'s crash-at-op-N — and either runs
//! through untouched, yields the thread, or spins for 1..50µs.
//!
//! The OS scheduler still decides the actual interleaving, so a chaos
//! run is not replayable tick-for-tick; what the seed buys is a
//! *reproducible perturbation schedule* — the Nth synchronization point
//! of a run is stretched the same way every time, which in practice
//! re-opens the same narrow races. The contract the `torture` runner's
//! `race` suite enforces on top is stronger than replay: for **every** seed
//! the engine's observable results must be byte-identical to the
//! unperturbed serial reference, so any divergence is a real ordering
//! bug, never schedule noise.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parking_lot::witness::{self, ChaosPoint};

/// Active schedule seed (meaningful only while armed).
static SEED: AtomicU64 = AtomicU64::new(0);
/// Synchronization points visited since the last [`arm`].
static OPS: AtomicU64 = AtomicU64::new(0);
/// Whether the injector perturbs anything. The hook itself can never be
/// uninstalled (the witness takes a `fn` pointer once per process), so
/// this flag is the on/off switch.
static ARMED: AtomicBool = AtomicBool::new(false);

/// The splitmix64 mixing function: a full-avalanche `u64 -> u64` hash,
/// so consecutive op indices under one seed give independent draws.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Arm the injector under `seed`: installs the witness chaos hook (a
/// no-op after the first call) and resets the op counter, so the same
/// seed always maps op index N to the same perturbation.
pub fn arm(seed: u64) {
    SEED.store(seed, Ordering::SeqCst);
    OPS.store(0, Ordering::SeqCst);
    witness::set_chaos_hook(hook);
    ARMED.store(true, Ordering::SeqCst);
}

/// Stop perturbing. The hook stays installed but passes straight
/// through; [`ops`] keeps its final count for reporting.
pub fn disarm() {
    ARMED.store(false, Ordering::SeqCst);
}

/// Resume perturbing under the current seed *without* resetting the op
/// counter — for harnesses that compute an unperturbed reference in the
/// middle of a sweep and then continue the schedule where it left off.
pub fn rearm() {
    ARMED.store(true, Ordering::SeqCst);
}

/// Synchronization points visited since the last [`arm`] — a liveness
/// check that the witness instrumentation actually fired (a torture run
/// that exercised zero lock sites proves nothing).
pub fn ops() -> u64 {
    OPS.load(Ordering::SeqCst)
}

/// Fold a chaos point into the draw so the same op index perturbs
/// acquire and wait sites differently across seeds.
fn point_salt(point: ChaosPoint) -> u64 {
    match point {
        ChaosPoint::Acquire => 0x01,
        ChaosPoint::Release => 0x02,
        ChaosPoint::CondvarWait => 0x03,
        ChaosPoint::Notify => 0x04,
    }
}

/// The installed hook: draw from the schedule and maybe stall. Runs on
/// the acquiring/notifying thread with no witness state held, so a spin
/// here widens race windows without introducing any ordering itself.
fn hook(point: ChaosPoint, _lock: Option<&'static str>) {
    if !ARMED.load(Ordering::SeqCst) {
        return;
    }
    let op = OPS.fetch_add(1, Ordering::SeqCst);
    let r = splitmix64(SEED.load(Ordering::SeqCst) ^ op ^ point_salt(point));
    match r & 0x3 {
        // Half the points run through untouched: fully serialized
        // schedules find nothing, the interesting interleavings come
        // from *selective* stretching.
        0 | 1 => {}
        2 => std::thread::yield_now(),
        _ => {
            // Busy-wait 1..50µs: long enough to push another thread
            // through a critical section, short enough to sweep many
            // seeds. Sleeping would round up to scheduler quanta.
            let us = 1 + ((r >> 8) % 49);
            let until = Instant::now() + Duration::from_micros(us);
            while Instant::now() < until {
                std::hint::spin_loop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_mixes() {
        assert_eq!(splitmix64(42), splitmix64(42));
        let draws: std::collections::BTreeSet<u64> = (0..64).map(splitmix64).collect();
        assert_eq!(draws.len(), 64, "consecutive inputs must not collide");
    }

    #[test]
    fn armed_injector_counts_named_lock_points() {
        // Acquire and release points fire for every named lock, whether
        // or not the witness validates it (off in a release build).
        let m = parking_lot::Mutex::named("faults.chaos_test", 0u32);
        arm(7);
        for _ in 0..8 {
            *m.lock() += 1;
        }
        disarm();
        let seen = ops();
        // 8 acquires + 8 releases.
        assert!(seen >= 16, "hook fired {seen} times, expected >= 16");
        *m.lock() += 1;
        assert_eq!(ops(), seen, "disarmed injector must not count");
        assert_eq!(*m.lock(), 9);
    }
}
