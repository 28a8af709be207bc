//! A checkout/return pool of warm [`Session`] worlds — the layer that
//! amortizes rank-thread spawns **across tenants** the way
//! [`Session`] itself amortizes them across epochs.
//!
//! A multi-tenant driver (e.g. `bltc-service`) serves a stream of jobs
//! whose SPMD worlds are interchangeable as long as the rank count
//! matches: the world carries no job state between checkouts (resident
//! particle slots live driver-side, windows are per-epoch, traffic is
//! drained per epoch). [`SessionPool::checkout`] therefore hands back
//! an idle warm world with the right rank count when one exists and
//! spawns a fresh one only when it does not; [`SessionPool::checkin`]
//! parks the world for the next job.
//!
//! Two worlds are **never** shared concurrently — `checkout` removes
//! the session from the pool, so each job owns its world exclusively
//! until it returns it. That exclusivity is what keeps multi-tenant
//! results bitwise identical to solo runs: a job's epochs interleave
//! with nothing.
//!
//! ## Poison discipline
//!
//! A rank panic poisons its world permanently ([`Session`] rejects all
//! further epochs). `checkin` quietly **drops** poisoned sessions
//! instead of recycling them, so one tenant's panic can never leak a
//! dead world into another tenant's job — the pool simply re-spawns on
//! the next miss.
//!
//! ```
//! use mpi_sim::pool::SessionPool;
//!
//! let pool = SessionPool::new(4);
//! let (mut s, reused) = pool.checkout(3);
//! assert!(!reused, "first checkout spawns");
//! let e = s.run_epoch(|comm| comm.all_reduce_sum(1.0));
//! assert_eq!(e.results, vec![3.0; 3]);
//! pool.checkin(s);
//! let (_s, reused) = pool.checkout(3);
//! assert!(reused, "second checkout reuses the warm world");
//! assert_eq!(pool.stats().spawned, 1);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::session::Session;

/// Counters of what a [`SessionPool`] has done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worlds spawned on checkout misses.
    pub spawned: u64,
    /// Checkouts satisfied by a warm world.
    pub reused: u64,
    /// Sessions dropped at checkin because their world was poisoned.
    pub poisoned_dropped: u64,
    /// Sessions dropped at checkin because the pool was at capacity.
    pub evicted: u64,
    /// Idle warm worlds currently parked.
    pub idle: usize,
}

/// A bounded pool of idle warm [`Session`] worlds, keyed by rank
/// count. See the module docs for the checkout/return discipline.
pub struct SessionPool {
    idle: Mutex<Vec<Session>>,
    max_idle: usize,
    spawned: AtomicU64,
    reused: AtomicU64,
    poisoned_dropped: AtomicU64,
    evicted: AtomicU64,
}

impl SessionPool {
    /// A pool retaining at most `max_idle` parked worlds (checkins
    /// beyond the cap drop the returned session, joining its threads).
    ///
    /// # Panics
    ///
    /// Panics if `max_idle == 0` — a pool that can never park a world
    /// is a respawn loop, not a pool.
    pub fn new(max_idle: usize) -> Self {
        assert!(max_idle >= 1, "pool must retain at least one idle world");
        Self {
            idle: Mutex::new(Vec::new()),
            max_idle,
            spawned: AtomicU64::new(0),
            reused: AtomicU64::new(0),
            poisoned_dropped: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// Obtain a world with exactly `ranks` ranks: an idle warm one if
    /// available (most recently parked first), else a fresh spawn.
    /// Returns the session and whether it was reused. The caller owns
    /// the session exclusively until [`SessionPool::checkin`].
    pub fn checkout(&self, ranks: usize) -> (Session, bool) {
        match self.try_checkout(ranks) {
            Some(s) => (s, true),
            // Spawn outside the pool lock (try_checkout released it).
            None => (Session::spawn(ranks), false),
        }
    }

    /// The reuse-only half of [`SessionPool::checkout`]: a warm world
    /// if one with `ranks` ranks is parked, else `None` — for callers
    /// whose downstream layer wants to spawn (and *account for*) the
    /// fresh world itself, e.g. an integrator whose report charges
    /// `world_spawn_seconds` exactly when it spawned. A miss still
    /// counts in [`PoolStats::spawned`]: the counter tracks fresh
    /// worlds created **for** a checkout, wherever the spawn runs.
    pub fn try_checkout(&self, ranks: usize) -> Option<Session> {
        let mut idle = self.idle.lock();
        if let Some(pos) = idle.iter().rposition(|s| s.size() == ranks) {
            let s = idle.swap_remove(pos);
            drop(idle);
            self.reused.fetch_add(1, Ordering::Relaxed);
            return Some(s);
        }
        drop(idle);
        self.spawned.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Return a world to the pool. Poisoned sessions are dropped (their
    /// rank threads join) — recycling one would hand the next tenant a
    /// world that fails every epoch. Beyond `max_idle` parked worlds
    /// the returned session is likewise dropped (oldest-arrival bias:
    /// the incoming session is the one evicted).
    pub fn checkin(&self, session: Session) {
        if session.is_poisoned() {
            self.poisoned_dropped.fetch_add(1, Ordering::Relaxed);
            return; // drop joins the rank threads
        }
        let mut idle = self.idle.lock();
        if idle.len() >= self.max_idle {
            drop(idle);
            self.evicted.fetch_add(1, Ordering::Relaxed);
            return;
        }
        idle.push(session);
    }

    /// Drop every idle warm world (joining their rank threads) — the
    /// drain step of a graceful service shutdown.
    pub fn drain(&self) {
        let sessions = std::mem::take(&mut *self.idle.lock());
        drop(sessions);
    }

    /// Current counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            spawned: self.spawned.load(Ordering::Relaxed),
            reused: self.reused.load(Ordering::Relaxed),
            poisoned_dropped: self.poisoned_dropped.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            idle: self.idle.lock().len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn checkout_matches_rank_count() {
        let pool = SessionPool::new(8);
        let (a, _) = pool.checkout(2);
        let (b, _) = pool.checkout(3);
        pool.checkin(a);
        pool.checkin(b);
        assert_eq!(pool.stats().idle, 2);
        // A 3-rank request must skip the parked 2-rank world.
        let (c, reused) = pool.checkout(3);
        assert!(reused);
        assert_eq!(c.size(), 3);
        // And a 5-rank request spawns fresh even with worlds parked.
        let (d, reused) = pool.checkout(5);
        assert!(!reused);
        assert_eq!(d.size(), 5);
        assert_eq!(pool.stats().spawned, 3);
        assert_eq!(pool.stats().reused, 1);
    }

    #[test]
    fn reused_world_keeps_working_across_jobs() {
        // The epoch/collective machinery must survive checkout →
        // checkin → checkout: sequence counters persist, traffic is
        // still drained per epoch, results stay exact.
        let pool = SessionPool::new(2);
        let (mut s, _) = pool.checkout(3);
        let e = s.run_epoch(|comm| comm.all_gather(comm.rank() as u64));
        assert_eq!(e.results[0], vec![0, 1, 2]);
        pool.checkin(s);

        let (mut s, reused) = pool.checkout(3);
        assert!(reused);
        let e = s.run_epoch(|comm| {
            let win = comm.create_window(vec![comm.rank() as f64; 4]);
            let nbr = (comm.rank() + 1) % comm.size();
            let v = win.lock_shared(nbr).get_with(0..1, <[f64]>::to_vec)[0];
            comm.barrier();
            v
        });
        assert_eq!(e.results, vec![1.0, 2.0, 0.0]);
        assert_eq!(e.traffic.total_remote_messages(), 3);
    }

    #[test]
    fn poisoned_sessions_are_never_recycled() {
        let pool = SessionPool::new(4);
        let (mut s, _) = pool.checkout(2);
        let out = catch_unwind(AssertUnwindSafe(|| {
            s.run_epoch(|comm| {
                if comm.rank() == 1 {
                    panic!("tenant bug");
                }
                comm.barrier();
            })
        }));
        assert!(out.is_err());
        assert!(s.is_poisoned());
        pool.checkin(s);
        let st = pool.stats();
        assert_eq!(st.poisoned_dropped, 1);
        assert_eq!(st.idle, 0, "poisoned world must not be parked");
        // The next checkout gets a *fresh, healthy* world.
        let (mut s, reused) = pool.checkout(2);
        assert!(!reused);
        let e = s.run_epoch(|comm| comm.all_reduce_sum(1.0));
        assert_eq!(e.results, vec![2.0; 2]);
    }

    #[test]
    fn capacity_bounds_idle_retention() {
        let pool = SessionPool::new(1);
        let (a, _) = pool.checkout(2);
        let (b, _) = pool.checkout(2);
        pool.checkin(a);
        pool.checkin(b); // over capacity: dropped
        let st = pool.stats();
        assert_eq!(st.idle, 1);
        assert_eq!(st.evicted, 1);
        pool.drain();
        assert_eq!(pool.stats().idle, 0);
    }

    #[test]
    fn poison_drop_takes_precedence_over_capacity_eviction() {
        // A poisoned world returned to a *full* pool must be counted as
        // a poison drop, not a capacity eviction: the two counters feed
        // different alerts (tenant bug vs pool sizing), and the checkin
        // path tests poison before it ever looks at capacity.
        let pool = SessionPool::new(1);
        let (healthy, _) = pool.checkout(2);
        let (mut doomed, _) = pool.checkout(2);
        pool.checkin(healthy); // pool now at max_idle
        let out = catch_unwind(AssertUnwindSafe(|| {
            doomed.run_epoch(|comm| {
                if comm.rank() == 0 {
                    panic!("tenant bug");
                }
                comm.barrier();
            })
        }));
        assert!(out.is_err());
        assert!(doomed.is_poisoned());
        pool.checkin(doomed);
        let st = pool.stats();
        assert_eq!(st.poisoned_dropped, 1, "poison must be the recorded cause");
        assert_eq!(st.evicted, 0, "a poisoned drop is not a capacity eviction");
        assert_eq!(st.idle, 1, "the healthy world stays parked");
        // The parked world is still the healthy one.
        let (mut s, reused) = pool.checkout(2);
        assert!(reused);
        let e = s.run_epoch(|comm| comm.all_reduce_sum(1.0));
        assert_eq!(e.results, vec![2.0; 2]);
    }

    #[test]
    #[should_panic(expected = "at least one idle world")]
    fn zero_capacity_rejected() {
        let _ = SessionPool::new(0);
    }
}
