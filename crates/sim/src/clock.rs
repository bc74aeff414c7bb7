//! Conservative virtual clock shared by all simulated client threads.
//!
//! Every thread that takes part in the simulation registers a [`Participant`].
//! Waiting for a network completion (or polling a local condition) is expressed
//! as [`Participant::wait_until`]; the global clock only advances when *every*
//! registered participant is blocked, and it advances exactly to the earliest
//! requested wake-up time.  Consequences:
//!
//! * virtual time never runs ahead of any participant — when `wait_until(t)`
//!   returns, `now() == t` (or `t` was already in the past),
//! * the simulation produces the same virtual-time behaviour whether it runs on
//!   one core or many,
//! * a participant performing pure CPU work simply freezes virtual time until
//!   it blocks again, which is the conservative (safe) behaviour.
//!
//! The one rule callers must follow: a participant must never block on an OS
//! primitive waiting for another participant that can only make progress via
//! the clock.  Long waits always go through `wait_until` (typically as a short
//! polling loop).
//!
//! ## Hand-off
//!
//! `now` is an atomic: reading the time, and waiting for a time that has
//! passed, take no lock.  The participant whose `wait_until` completes the
//! blocked set does the advancing itself: it moves `now` to the earliest
//! target, takes the waiters due at that time out of the set and releases
//! them — and only them — one by one; if the earliest target is its own it
//! just returns.  A released waiter is handed the CPU by a flag and
//! `unpark`.  The one waiter that holds the earliest target, and will
//! therefore run next, polls its flag with a bounded number of `yield_now`s
//! before it parks, so the usual hand-off costs a `sched_yield` (one CPU) or a
//! cache-line transfer (two) and not a `futex` sleep and wake; every other
//! waiter parks at once.

use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::{self, Thread};

/// How many times the waiter holding the earliest target yields the CPU while
/// polling its go-flag before it parks.
///
/// That waiter is the next to run, and the release usually comes within the
/// few microseconds the other participants need to reach their own waits: a
/// `yield_now` hands a shared CPU straight to them (pinned runs), and a waker
/// on another CPU finds a spinning thread and pays no `futex` wake (unpinned
/// runs).  A short spin (32) does not cover an unpinned hand-off; a few
/// hundred yields do, and still bound the wait for a participant that is busy
/// with long CPU work to well under a millisecond of an otherwise idle CPU.
const SPIN_YIELDS: u32 = 400;

/// Shared virtual clock.  Cheap to clone via `Arc`.
#[derive(Debug)]
pub struct VirtualClock {
    /// Current virtual time in nanoseconds.  Written only with `state` locked
    /// (Release) and read without it (Acquire): whoever reads a time also sees
    /// everything done before the clock was moved there.
    now: AtomicU64,
    state: Mutex<ClockState>,
    /// Waiters released by somebody else (tests count hand-offs with it).
    #[cfg(test)]
    releases: AtomicU64,
}

#[derive(Debug)]
struct ClockState {
    /// Number of registered participants.
    participants: usize,
    /// Next participant id to hand out.
    next_id: u64,
    /// The blocked participants.  A waiter leaves the set when it is
    /// *released*, not when it next runs, so `waiting.len()` never counts a
    /// participant that is already on its way back to work.
    waiting: Vec<Waiter>,
}

#[derive(Debug)]
struct Waiter {
    id: u64,
    target: u64,
    parker: Arc<Parker>,
}

/// One OS thread's wake-up channel: a flag the waker sets and the thread
/// handle it unparks.  `park` may return spuriously and an `unpark` token may
/// be left over from an earlier wait, so the flag alone says "go".
#[derive(Debug)]
struct Parker {
    go: AtomicBool,
    thread: Thread,
}

impl Parker {
    /// The calling thread's parker.
    fn current() -> Arc<Parker> {
        thread_local! {
            static PARKER: Arc<Parker> = Arc::new(Parker {
                go: AtomicBool::new(false),
                thread: thread::current(),
            });
        }
        PARKER.with(Arc::clone)
    }

    /// Called by the waker, after it took the waiter out of the waiting set.
    fn release(&self) {
        // Pairs with the Acquire loads in `wait`.
        self.go.store(true, Ordering::Release);
        // No syscall unless the thread is actually parked.
        self.thread.unpark();
    }

    /// Block the calling thread (which owns this parker) until `release`.
    fn wait(&self, spin: bool) {
        if spin {
            for _ in 0..SPIN_YIELDS {
                if self.go.load(Ordering::Acquire) {
                    break;
                }
                thread::yield_now();
            }
        }
        while !self.go.load(Ordering::Acquire) {
            thread::park();
        }
        // Only this thread waits on the flag, and the next `release` can only
        // follow this thread's next entry into the waiting set.
        self.go.store(false, Ordering::Relaxed);
    }
}

impl Default for VirtualClock {
    fn default() -> Self {
        Self::new()
    }
}

impl VirtualClock {
    /// Create a clock starting at virtual time zero.
    pub fn new() -> Self {
        VirtualClock {
            now: AtomicU64::new(0),
            state: Mutex::new(ClockState {
                participants: 0,
                next_id: 0,
                waiting: Vec::new(),
            }),
            #[cfg(test)]
            releases: AtomicU64::new(0),
        }
    }

    /// Current virtual time in nanoseconds.
    pub fn now(&self) -> u64 {
        self.now.load(Ordering::Acquire)
    }

    /// Number of currently registered participants.
    pub fn participants(&self) -> usize {
        self.state.lock().participants
    }

    /// Return the calling thread's participant for this clock, registering one
    /// if the thread has none yet.
    ///
    /// One OS thread can only be blocked in one `wait_until` at a time, so all
    /// client contexts created on the same thread must share a single
    /// participant — otherwise the idle participants would stall the clock for
    /// everyone.  The participant deregisters itself when the last handle on
    /// the thread is dropped.
    pub fn register_for_thread(self: &Arc<Self>) -> Arc<Participant> {
        thread_local! {
            static PER_THREAD: RefCell<Vec<(usize, Weak<Participant>)>> =
                const { RefCell::new(Vec::new()) };
        }
        let key = Arc::as_ptr(self) as usize;
        PER_THREAD.with(|slot| {
            let mut entries = slot.borrow_mut();
            entries.retain(|(_, weak)| weak.strong_count() > 0);
            if let Some((_, weak)) = entries.iter().find(|(k, _)| *k == key) {
                if let Some(existing) = weak.upgrade() {
                    return existing;
                }
            }
            let fresh = Arc::new(self.register());
            entries.push((key, Arc::downgrade(&fresh)));
            fresh
        })
    }

    /// Register a new participant.
    ///
    /// The returned handle deregisters itself on drop.  A thread that is not
    /// registered must not call [`Participant::wait_until`]; conversely, a
    /// registered thread that stops calling into the clock without dropping its
    /// handle will stall virtual time for everyone else.  Most callers should
    /// prefer [`VirtualClock::register_for_thread`].
    pub fn register(self: &Arc<Self>) -> Participant {
        let id = {
            let mut s = self.state.lock();
            s.participants += 1;
            s.next_id += 1;
            s.next_id
        };
        Participant {
            clock: Arc::clone(self),
            id,
        }
    }

    /// If every participant is blocked — counting the caller, which is about
    /// to block on `own_target` — move the clock to the earliest target and
    /// release exactly the waiters that are due, taking them out of the
    /// waiting set.  Returns whether the caller itself is due.
    ///
    /// Must be called with the state lock held.
    fn release_due(&self, s: &mut ClockState, own_target: Option<u64>) -> bool {
        let blocked = s.waiting.len() + usize::from(own_target.is_some());
        if blocked < s.participants {
            return false;
        }
        let Some(earliest) = s.waiting.iter().map(|w| w.target).chain(own_target).min() else {
            return false;
        };
        // Every waiter blocked on a target in the future and everything due is
        // released the moment the clock reaches it, so this moves forward.
        debug_assert!(earliest > self.now());
        self.now.store(earliest, Ordering::Release);
        s.waiting.retain(|w| {
            if w.target > earliest {
                return true;
            }
            #[cfg(test)]
            self.releases.fetch_add(1, Ordering::Relaxed);
            w.parker.release();
            false
        });
        own_target == Some(earliest)
    }
}

/// A registered simulation participant (one per simulated client thread).
#[derive(Debug)]
pub struct Participant {
    clock: Arc<VirtualClock>,
    id: u64,
}

impl Participant {
    /// Current virtual time in nanoseconds.
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// The clock this participant is registered with.
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.clock
    }

    /// Block until virtual time reaches `t` nanoseconds.
    ///
    /// Returns immediately if `t` is not in the future.
    pub fn wait_until(&self, t: u64) {
        let clock = &*self.clock;
        // The clock cannot move while this participant is running.
        if t <= clock.now() {
            return;
        }
        let mut s = clock.state.lock();
        if clock.release_due(&mut s, Some(t)) {
            // Ours was the earliest target: nobody to wait for.
            return;
        }
        debug_assert!(
            s.waiting.iter().all(|w| w.id != self.id),
            "participant {} is already blocked on another thread",
            self.id
        );
        // Only the waiter that will be released next polls for it; with many
        // participants the rest would only take the CPU from those that run.
        let spin = s.waiting.iter().all(|w| w.target >= t);
        let parker = Parker::current();
        s.waiting.push(Waiter {
            id: self.id,
            target: t,
            parker: Arc::clone(&parker),
        });
        drop(s);
        parker.wait(spin);
        debug_assert_eq!(clock.now(), t);
    }

    /// Advance this participant's view of time by `dt` nanoseconds.
    pub fn advance(&self, dt: u64) {
        let target = self.now().saturating_add(dt);
        self.wait_until(target);
    }

    /// Block until the **earliest** of several wake-up targets and return it
    /// (`None` when `targets` is empty: nothing to wait for).
    ///
    /// This is the multi-completion rule of the split-phase fabric: a
    /// participant with several outstanding completions must wake at the
    /// earliest one — its wake target *is* the minimum, never a later entry
    /// chosen while an earlier one is still outstanding.  Waiting on a later
    /// target is not unsafe (completion times are fixed at post time, so an
    /// earlier completion is simply observed in the past), but it forfeits
    /// the chance to react at the earlier instant; `ClientCtx::poll` funnels
    /// every completion wait through this method so callers cannot get the
    /// rule wrong by accident.
    pub fn wait_until_earliest(&self, targets: impl IntoIterator<Item = u64>) -> Option<u64> {
        let earliest = targets.into_iter().min()?;
        self.wait_until(earliest);
        Some(earliest)
    }
}

impl Drop for Participant {
    fn drop(&mut self) {
        let mut s = self.clock.state.lock();
        s.participants = s.participants.saturating_sub(1);
        // The remaining participants may all be blocked already.
        self.clock.release_due(&mut s, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_participant_advances_immediately() {
        let clock = Arc::new(VirtualClock::new());
        let p = clock.register();
        assert_eq!(p.now(), 0);
        p.wait_until(1_000);
        assert_eq!(p.now(), 1_000);
        p.advance(500);
        assert_eq!(p.now(), 1_500);
        // Waiting for the past is a no-op.
        p.wait_until(10);
        assert_eq!(p.now(), 1_500);
    }

    #[test]
    fn clock_advances_to_minimum_target() {
        let clock = Arc::new(VirtualClock::new());
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for (name, target) in [("a", 300u64), ("b", 100u64), ("c", 200u64)] {
            let clock = Arc::clone(&clock);
            let order = Arc::clone(&order);
            handles.push(thread::spawn(move || {
                let p = clock.register();
                // Give all threads a chance to register before blocking.
                while clock.participants() < 3 {
                    thread::yield_now();
                }
                p.wait_until(target);
                order.lock().push((name, p.now()));
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let order = order.lock();
        // Each participant wakes exactly at its own target.
        for (name, t) in order.iter() {
            match *name {
                "a" => assert_eq!(*t, 300),
                "b" => assert_eq!(*t, 100),
                "c" => assert_eq!(*t, 200),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn time_is_monotonic_across_many_waits() {
        // Far more participants than CPUs, and enough waits that a spin policy
        // which starves the running participants would not finish.
        let clock = Arc::new(VirtualClock::new());
        let participants: Vec<_> = (0..16u64).map(|_| clock.register()).collect();
        let handles: Vec<_> = participants
            .into_iter()
            .zip(0u64..)
            .map(|(p, i)| {
                thread::spawn(move || {
                    let mut last = 0;
                    for step in 0..10_000u64 {
                        p.advance(1 + (i * 7 + step) % 13);
                        let now = p.now();
                        assert!(now >= last, "virtual time went backwards");
                        last = now;
                    }
                    last
                })
            })
            .collect();
        let ends: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(clock.now(), *ends.iter().max().unwrap());
    }

    #[test]
    fn wait_until_earliest_wakes_at_the_minimum_target() {
        let clock = Arc::new(VirtualClock::new());
        let p = clock.register();
        assert_eq!(p.wait_until_earliest([300, 100, 200]), Some(100));
        assert_eq!(p.now(), 100);
        // Targets in the past return immediately without moving time.
        assert_eq!(p.wait_until_earliest([50, 400]), Some(50));
        assert_eq!(p.now(), 100);
        // An empty target set is a no-op.
        assert_eq!(p.wait_until_earliest(std::iter::empty()), None);
        assert_eq!(p.now(), 100);
    }

    /// Spin until `n` participants are blocked in the clock.
    fn until_blocked(clock: &VirtualClock, n: usize) {
        while clock.state.lock().waiting.len() < n {
            thread::yield_now();
        }
    }

    /// `n` participants take `steps` seeded random steps each and log
    /// `(now, id)` at every wake.  A waiter released before it was due reads
    /// `now != target`; a blocked count that drifts lets the clock move while
    /// somebody runs, which puts the shared log out of order.
    fn run_model(n: u64, steps: u64, seed: u64) -> Vec<(u64, u64)> {
        let clock = Arc::new(VirtualClock::new());
        let log = Arc::new(Mutex::new(Vec::new()));
        let participants: Vec<_> = (0..n).map(|_| clock.register()).collect();
        let handles: Vec<_> = participants
            .into_iter()
            .enumerate()
            .map(|(id, p)| {
                let log = Arc::clone(&log);
                let id = id as u64;
                thread::spawn(move || {
                    let mut rng = seed ^ (id + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    for _ in 0..steps {
                        // xorshift64
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        let target = p.now() + 1 + rng % 50;
                        p.wait_until(target);
                        assert_eq!(p.now(), target, "participant {id} woke off its target");
                        log.lock().push((target, id));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(clock.participants(), 0);
        let log = log.lock().clone();
        assert_eq!(log.len() as u64, n * steps);
        log
    }

    #[test]
    fn wakes_follow_the_model_in_time_order() {
        for (n, seed) in [(2, 1), (3, 2), (8, 3)] {
            let log = run_model(n, 2_000, seed);
            assert!(
                log.windows(2).all(|w| w[0].0 <= w[1].0),
                "{n} participants: a wake was logged after the clock had moved past it"
            );
        }
    }

    #[test]
    fn the_earliest_waiter_completing_the_set_wakes_nobody() {
        let clock = Arc::new(VirtualClock::new());
        let p1 = clock.register();
        let p2 = clock.register();
        let h = thread::spawn(move || {
            p2.wait_until(1_000);
            p2.now()
        });
        until_blocked(&clock, 1);
        // Every one of these completes the blocked set and is itself due.
        for t in (100..=900).step_by(100) {
            p1.wait_until(t);
            assert_eq!(p1.now(), t);
        }
        assert_eq!(clock.releases.load(Ordering::Relaxed), 0);
        assert_eq!(clock.state.lock().waiting.len(), 1);
        // This one is not: the other participant is released, once, and this
        // thread is released by it in turn when it deregisters.
        p1.wait_until(1_500);
        assert_eq!(p1.now(), 1_500);
        assert_eq!(h.join().unwrap(), 1_000);
        assert_eq!(clock.releases.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn only_due_waiters_are_released() {
        let clock = Arc::new(VirtualClock::new());
        let p = clock.register();
        let handles: Vec<_> = [300u64, 100, 100, 200]
            .into_iter()
            .map(|target| {
                let p = clock.register();
                thread::spawn(move || p.wait_until(target))
            })
            .collect();
        until_blocked(&clock, 4);
        p.wait_until(250);
        // 100 released two waiters, which left the clock; then 200 one more,
        // then 250 this thread.  300 is still blocked.
        assert_eq!(p.now(), 250);
        assert_eq!(clock.releases.load(Ordering::Relaxed), 4);
        let state = clock.state.lock();
        let left: Vec<u64> = state.waiting.iter().map(|w| w.target).collect();
        assert_eq!(left, [300]);
        drop(state);
        drop(p);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(clock.now(), 300);
    }

    #[test]
    fn a_participant_registered_while_others_are_parked_counts_at_once() {
        let clock = Arc::new(VirtualClock::new());
        let p = clock.register();
        let p1 = clock.register();
        let h1 = thread::spawn(move || p1.wait_until(500));
        until_blocked(&clock, 1);
        let late = clock.register();
        // The late participant is running: nothing may be released yet.
        assert_eq!(clock.participants(), 3);
        let h2 = thread::spawn(move || late.wait_until(400));
        until_blocked(&clock, 2);
        assert_eq!(clock.now(), 0);
        // Earlier than both: completes the set of three, wakes nobody.
        p.wait_until(300);
        assert_eq!(clock.releases.load(Ordering::Relaxed), 0);
        // Later than the late one: it is released, leaves, and that releases us.
        p.wait_until(450);
        assert_eq!(p.now(), 450);
        h2.join().unwrap();
        assert_eq!(clock.releases.load(Ordering::Relaxed), 2);
        drop(p);
        h1.join().unwrap();
        assert_eq!(clock.now(), 500);
    }

    #[test]
    fn deregistration_unblocks_remaining_waiters() {
        let clock = Arc::new(VirtualClock::new());
        let p1 = clock.register();
        let clock2 = Arc::clone(&clock);
        let h = thread::spawn(move || {
            let p2 = clock2.register();
            p2.wait_until(50);
            p2.now()
        });
        // Let the spawned thread register and block.
        while clock.participants() < 2 {
            thread::yield_now();
        }
        // Dropping our participant lets the other one advance alone.
        drop(p1);
        assert_eq!(h.join().unwrap(), 50);
    }
}
