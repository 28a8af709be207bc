//! Rank sessions: spawn the SPMD world **once**, then run a sequence
//! of *epochs* against the live ranks — the runtime's one rank-thread
//! loop.
//!
//! A [`SessionIn`] models a long-lived MPI job (persistent
//! communicators): `n_ranks` threads are spawned once and stay parked on
//! a rendezvous channel; each [`SessionIn::run_epoch`] submits one
//! closure that every rank executes SPMD-style. The rank threads have
//! one of two lifetimes, and both run the same loop:
//!
//! - [`Session::spawn`] (`Session = SessionIn<'static>`) spawns plain
//!   named threads that live until the session drops; epoch closures
//!   must then be `'static`;
//! - [`SessionIn::spawn_in`] spawns them on a [`std::thread::Scope`],
//!   so epoch closures may borrow anything that outlives the scope
//!   (`'env`). The session must drop — closing its channels — before
//!   the scope ends, or the scope waits on its parked ranks forever.
//!   [`crate::run_spmd`] is this: scope, spawn, one epoch, drop.
//!
//! Results always travel back as `Box<dyn Any + Send>`, so they are
//! `'static` either way.
//!
//! ## Epoch lifecycle
//!
//! - **Collective across epochs:** every rank executes the same epoch
//!   sequence (the driver submits each epoch to all ranks — there is no
//!   way to run an epoch on a subset), and within an epoch the usual
//!   SPMD discipline applies: collectives must be called in the same
//!   order on every rank.
//! - **What persists:** the world (barrier, rendezvous table, traffic
//!   matrix) and each rank's [`Comm`] — including its collective
//!   sequence counter, so sequence checking extends *across* epochs: a
//!   rank that skipped a collective in epoch `k` trips the mismatch
//!   assertion in epoch `k+1` rather than silently pairing with the
//!   wrong call. Rank-local state survives between epochs only if the
//!   caller keeps it outside the closure (e.g. behind an
//!   `Arc<Vec<Mutex<…>>>` indexed by rank) — mirroring MPI, where
//!   surviving state is whatever the rank process keeps in memory.
//! - **Per-epoch exposure:** RMA windows created inside an epoch are
//!   torn down when the closure returns (guards drop), so each epoch
//!   re-exposes the windows it needs — `MPI_Win_create`/`free` per
//!   epoch over a persistent communicator.
//! - **Traffic:** the world's [`TrafficMatrix`] is drained per epoch;
//!   each [`EpochReport`] carries exactly the one-sided traffic its
//!   epoch generated, so drivers can attribute bytes to phases
//!   (evaluation vs. migration) without bookkeeping inside the closures.
//! - **Panics:** a rank panicking mid-epoch poisons the world: every
//!   collective waits on a poisonable barrier, so surviving ranks fail
//!   fast instead of deadlocking (the hazard real MPI has). The
//!   original payload is re-raised from `run_epoch`, and the rank
//!   threads survive to reject later epochs with the same clear error.
//! - **Watchdog:** with [`SessionIn::set_deadline`] armed, a rank that
//!   reports nothing for a whole deadline gets the world poisoned and
//!   any chaos-parked hang released — at most once per epoch; the rest
//!   of that epoch's reports are then awaited without a deadline.
//! - **Host pool (pool-per-process):** the driver's current `rayon`
//!   pool is captured **once** at spawn and re-installed inside each
//!   rank thread *per epoch* — the install guard lives exactly as long
//!   as the epoch closure, so no rank holds a pool guard across epochs
//!   (a guard pinned across the rendezvous would keep the driver's pool
//!   selection frozen in a rank even after the driver switched pools,
//!   and would keep a dropped pool alive for the session's whole life).
//!   All ranks share that one pool: a pool per rank would put
//!   `ranks × workers` runnable threads on the host — the
//!   oversubscription the shared pool exists to avoid. Each parallel
//!   call a rank makes is one job on that pool, and the rank thread
//!   claims chunks of its own job beside the workers, so ranks help
//!   rather than sleep and even a 1-worker pool makes progress under
//!   any rank count. If the driver drops the pool's owning handle
//!   mid-session, the ranks' parallel calls run on the rank threads
//!   alone, chunked as before, so results do not change.
//!
//! ## Example
//!
//! ```
//! use mpi_sim::session::{Session, SessionIn};
//!
//! let mut session = Session::spawn(3);
//! // Epoch 1: windows + one-sided reads.
//! let e1 = session.run_epoch(|comm| {
//!     let win = comm.create_window(vec![comm.rank() as f64]);
//!     let nbr = (comm.rank() + 1) % comm.size();
//!     let v = win.lock_shared(nbr).get_with(0..1, <[f64]>::to_vec)[0];
//!     comm.barrier();
//!     v
//! });
//! assert_eq!(e1.results, vec![1.0, 2.0, 0.0]);
//! // Epoch 2 reuses the same live ranks; traffic is per-epoch.
//! let e2 = session.run_epoch(|comm| comm.all_reduce_sum(1.0));
//! assert_eq!(e2.results, vec![3.0; 3]);
//! assert_eq!(e2.traffic.total_remote_bytes(), 0);
//! assert_eq!(session.epochs_run(), 2);
//!
//! // Scoped ranks: epochs borrow the caller's stack.
//! let weights = vec![0.5, 1.5];
//! let total = std::thread::scope(|scope| {
//!     let mut session = SessionIn::spawn_in(scope, 2);
//!     session.run_epoch(|comm| comm.all_reduce_sum(weights[comm.rank()])).results[0]
//! });
//! assert_eq!(total, 2.0);
//! ```

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::{Builder, JoinHandle, Scope};
use std::time::Duration;

use crate::chaos::ChaosSchedule;
use crate::comm::Comm;
use crate::runtime::{TrafficMatrix, World};

/// One submitted epoch: the closure every rank runs.
type EpochFn<'env> = Arc<dyn Fn(&Comm) -> Box<dyn Any + Send> + Send + Sync + 'env>;

/// What one rank sent back: its rank id and the epoch outcome.
type RankOutcome = (usize, std::thread::Result<Box<dyn Any + Send>>);

/// Result of one epoch: per-rank return values plus the one-sided
/// traffic recorded *during this epoch only* (the world's matrix is
/// drained at every epoch boundary).
#[derive(Debug)]
pub struct EpochReport<R> {
    /// Return value of each rank, indexed by rank.
    pub results: Vec<R>,
    /// One-sided traffic this epoch recorded, per (origin, target).
    pub traffic: TrafficMatrix,
    /// Zero-based index of this epoch in the session.
    pub epoch: u64,
}

/// A rank thread's whole life: the runtime's one rank loop, spawned on
/// a plain or a scoped thread.
type RankBody<'env> = Box<dyn FnOnce() + Send + 'env>;

/// A persistent SPMD world whose epoch closures may borrow anything
/// that lives for `'env`: rank threads spawned once, executing the
/// sequence of epochs the driver submits. See the module docs for the
/// lifecycle rules.
pub struct SessionIn<'env> {
    world: Arc<World>,
    submit: Vec<Sender<EpochFn<'env>>>,
    collect: Receiver<RankOutcome>,
    /// Plain threads only; a scope joins its own.
    handles: Vec<JoinHandle<()>>,
    epochs: u64,
    deadline: Option<Duration>,
    watchdog_fires: u64,
}

/// A session on plain threads: epochs are `'static` closures, and the
/// session joins its ranks when it drops.
pub type Session = SessionIn<'static>;

impl Session {
    /// Spawn `n_ranks` named rank threads — the session's single
    /// thread-spawn phase. The threads stay alive (parked between
    /// epochs) until the session is dropped.
    ///
    /// # Panics
    ///
    /// Panics if `n_ranks == 0`.
    pub fn spawn(n_ranks: usize) -> Self {
        Self::start(n_ranks, |name, body| {
            let thread = Builder::new().name(name).spawn(body);
            Some(thread.expect("failed to spawn rank thread"))
        })
    }
}

impl<'env> SessionIn<'env> {
    /// Spawn `n_ranks` named rank threads on `scope`, so epochs may
    /// borrow from the scope's environment. Drop the session before the
    /// scope ends: that closes the epoch channels, the ranks leave their
    /// loop, and the scope joins them.
    ///
    /// # Panics
    ///
    /// Panics if `n_ranks == 0`.
    pub fn spawn_in<'scope>(scope: &'scope Scope<'scope, 'env>, n_ranks: usize) -> Self {
        Self::start(n_ranks, |name, body| {
            let thread = Builder::new().name(name).spawn_scoped(scope, body);
            thread.expect("failed to spawn rank thread");
            None
        })
    }

    /// Build the world and hand each rank's body to `spawn`, which
    /// returns a handle to join at drop unless a scope joins the thread.
    fn start(
        n_ranks: usize,
        mut spawn: impl FnMut(String, RankBody<'env>) -> Option<JoinHandle<()>>,
    ) -> Self {
        assert!(n_ranks > 0, "need at least one rank");
        let world = Arc::new(World::new(n_ranks));
        let (outcomes, collect) = channel::<RankOutcome>();
        // Captured once here; installed per epoch (see the module docs'
        // pool-per-process paragraph).
        let pool = rayon::current_pool();
        let mut submit = Vec::with_capacity(n_ranks);
        let mut handles = Vec::new();
        for rank in 0..n_ranks {
            let (tx, jobs) = channel::<EpochFn<'env>>();
            submit.push(tx);
            let (world, outcomes, pool) = (Arc::clone(&world), outcomes.clone(), pool.clone());
            let body: RankBody<'env> = Box::new(move || {
                // The Comm — and with it the collective sequence counter
                // — lives for the whole session.
                let comm = Comm::new(rank, Arc::clone(&world));
                while let Ok(job) = jobs.recv() {
                    // The install guard is scoped to this one epoch.
                    // Chaos injection happens at epoch entry, inside the
                    // unwind boundary, so an injected panic poisons the
                    // world exactly like an organic one.
                    let out = catch_unwind(AssertUnwindSafe(|| {
                        world.chaos_epoch_begin(rank);
                        pool.install(|| job(&comm))
                    }));
                    if out.is_err() {
                        world.barrier.poison(rank);
                    }
                    if outcomes.send((rank, out)).is_err() {
                        break; // driver gone; shut down
                    }
                }
            });
            handles.extend(spawn(format!("spmd-rank-{rank}"), body));
        }
        Self {
            world,
            submit,
            collect,
            handles,
            epochs: 0,
            deadline: None,
            watchdog_fires: 0,
        }
    }

    /// Number of ranks in the session.
    pub fn size(&self) -> usize {
        self.world.size
    }

    /// Epochs completed so far.
    pub fn epochs_run(&self) -> u64 {
        self.epochs
    }

    /// Whether a rank panic has poisoned this world. A poisoned session
    /// rejects every further epoch (fail-fast on the first collective),
    /// so pools must drop it instead of recycling it to the next job —
    /// see [`crate::pool::SessionPool::checkin`].
    pub fn is_poisoned(&self) -> bool {
        self.world.barrier.poisoned_by().is_some()
    }

    /// Attach (or detach) a deterministic fault timeline. Subsequent
    /// epochs run through the schedule's injection points; `None`
    /// restores the fault-free fast path. An attached schedule whose
    /// faults never fire is bitwise invisible to results, traffic, and
    /// every modeled clock.
    ///
    /// # Panics
    ///
    /// Panics if the schedule was built for a different world size.
    pub fn set_chaos(&self, schedule: Option<Arc<ChaosSchedule>>) {
        if let Some(s) = &schedule {
            assert_eq!(
                s.ranks(),
                self.size(),
                "chaos schedule built for {} ranks attached to a {}-rank session",
                s.ranks(),
                self.size()
            );
        }
        let attached = schedule.is_some();
        *self.world.chaos.lock() = schedule;
        self.world.chaos_attached.store(attached, Ordering::Relaxed);
    }

    /// The currently attached fault timeline, if any.
    pub fn chaos(&self) -> Option<Arc<ChaosSchedule>> {
        self.world.chaos_schedule()
    }

    /// Arm (or disarm) the epoch watchdog: if any rank fails to report
    /// an epoch outcome within `deadline` of the previous report, the
    /// driver poisons the world on the first missing rank and releases
    /// any chaos-parked hangs instead of blocking forever — converting
    /// a hung rank into the ordinary poisoned-world error path. It
    /// fires at most once per epoch: once the world is poisoned, the
    /// remaining reports are awaited without a deadline.
    ///
    /// This is a *wall-clock* bound on the simulated cluster's host
    /// threads, so it must comfortably exceed any legitimate epoch;
    /// the outcome (which rank is blamed, what error surfaces) stays
    /// deterministic even though the firing time is not.
    ///
    /// # Panics
    ///
    /// Panics on a zero deadline, which would kill every healthy epoch.
    pub fn set_deadline(&mut self, deadline: Option<Duration>) {
        assert!(
            deadline != Some(Duration::ZERO),
            "epoch deadline must be positive: a zero deadline kills every healthy epoch"
        );
        self.deadline = deadline;
    }

    /// How many times the epoch watchdog has fired on this session.
    pub fn watchdog_fires(&self) -> u64 {
        self.watchdog_fires
    }

    /// Submit one epoch: every rank runs `f` SPMD-style; blocks until
    /// all ranks return. The report carries the traffic recorded during
    /// this epoch only.
    ///
    /// # Panics
    ///
    /// Re-raises the original payload if any rank panicked (the world
    /// is then poisoned: later epochs fail fast on their first
    /// collective).
    pub fn run_epoch<R, F>(&mut self, f: F) -> EpochReport<R>
    where
        R: Send + 'static,
        F: Fn(&Comm) -> R + Send + Sync + 'env,
    {
        let job: EpochFn<'env> = Arc::new(move |comm| Box::new(f(comm)) as Box<dyn Any + Send>);
        // Ranks read the epoch index at their chaos injection point;
        // store-before-submit is race-free because collection below is
        // fully synchronous.
        self.world
            .current_epoch
            .store(self.epochs, Ordering::Relaxed);
        for tx in &self.submit {
            tx.send(Arc::clone(&job))
                .expect("rank thread exited while session alive");
        }
        let mut slots: Vec<Option<std::thread::Result<Box<dyn Any + Send>>>> =
            (0..self.size()).map(|_| None).collect();
        let mut deadline = self.deadline;
        for _ in 0..self.size() {
            let (rank, out) = loop {
                let Some(limit) = deadline else {
                    break self
                        .collect
                        .recv()
                        .expect("rank thread exited while session alive");
                };
                match self.collect.recv_timeout(limit) {
                    Ok(outcome) => break outcome,
                    Err(RecvTimeoutError::Timeout) => {
                        self.fire_watchdog(&slots);
                        deadline = None;
                    }
                    Err(RecvTimeoutError::Disconnected) => {
                        panic!("rank thread exited while session alive")
                    }
                }
            };
            slots[rank] = Some(out);
        }
        let epoch = self.epochs;
        self.epochs += 1;
        let traffic = self.world.drain_traffic();
        if let Some(chaos) = self.world.chaos_schedule() {
            chaos.at_epoch_end(epoch, &traffic);
        }

        // Re-raise the first poisoner's payload. In a *later* epoch of
        // an already-poisoned session the original culprit's closure may
        // well return Ok (e.g. it branches by rank and never reaches a
        // collective), so fall back to the first Err of this epoch when
        // the culprit's slot is clean.
        let failed = |s: &Option<std::thread::Result<_>>| matches!(s, Some(Err(_)));
        if slots.iter().any(failed) {
            let idx = self
                .world
                .barrier
                .poisoned_by()
                .filter(|&c| failed(&slots[c]))
                .unwrap_or_else(|| slots.iter().position(failed).expect("checked above"));
            match slots.swap_remove(idx) {
                Some(Err(payload)) => resume_unwind(payload),
                _ => unreachable!("index selected an Err outcome"),
            }
        }

        let results = slots
            .into_iter()
            .map(|s| {
                *s.expect("every rank reported")
                    .expect("checked above")
                    .downcast::<R>()
                    .expect("epoch closure return type is fixed per call")
            })
            .collect();
        EpochReport {
            results,
            traffic,
            epoch,
        }
    }

    /// The watchdog's one act per epoch: poison the world so
    /// barrier-parked peers fail fast, and release any chaos-parked
    /// hangs so every rank (including the hung one) reports. Blame the
    /// scheduled hang's rank when there is one — the peers missing
    /// alongside it are just waiting on a collective — else the first
    /// rank that has not reported.
    fn fire_watchdog<T>(&mut self, slots: &[Option<T>]) {
        let chaos = self.world.chaos_schedule();
        let blamed = chaos
            .as_deref()
            .and_then(|c| {
                c.faults().iter().find_map(|f| {
                    (matches!(f.kind, crate::chaos::FaultKind::Hang)
                        && f.epoch == self.epochs
                        && slots[f.rank].is_none())
                    .then_some(f.rank)
                })
            })
            .or_else(|| slots.iter().position(|s| s.is_none()))
            .expect("timeout with all ranks collected");
        self.watchdog_fires += 1;
        self.world.barrier.poison(blamed);
        if let Some(chaos) = chaos {
            chaos.release_hangs();
        }
    }
}

impl Drop for SessionIn<'_> {
    fn drop(&mut self) {
        // Closing the submit channels ends each rank's epoch loop.
        self.submit.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    #[test]
    fn ranks_persist_across_epochs() {
        let mut s = Session::spawn(4);
        // Rank-local state survives between epochs via caller storage.
        let resident: Arc<Vec<Mutex<f64>>> =
            Arc::new((0..4).map(|r| Mutex::new(r as f64)).collect());
        let slots = Arc::clone(&resident);
        s.run_epoch(move |comm| {
            *slots[comm.rank()].lock() += 10.0;
        });
        let slots = Arc::clone(&resident);
        let rep = s.run_epoch(move |comm| *slots[comm.rank()].lock());
        assert_eq!(rep.results, vec![10.0, 11.0, 12.0, 13.0]);
        assert_eq!(s.epochs_run(), 2);
    }

    #[test]
    fn collectives_and_windows_work_inside_epochs() {
        let mut s = Session::spawn(3);
        let rep = s.run_epoch(|comm| {
            let win = comm.create_window(vec![comm.rank() as u32 * 2; 4]);
            let nbr = (comm.rank() + 1) % comm.size();
            let v = win.lock_shared(nbr).get_with(0..4, <[u32]>::to_vec);
            comm.barrier();
            (v[0], comm.all_reduce_sum(1.0))
        });
        assert_eq!(rep.results, vec![(2, 3.0), (4, 3.0), (0, 3.0)]);
    }

    #[test]
    fn traffic_is_drained_per_epoch() {
        let mut s = Session::spawn(2);
        let e1 = s.run_epoch(|comm| {
            let win = comm.create_window(vec![0.0f64; 8]);
            if comm.rank() == 0 {
                let _ = win.lock_shared(1).get_with(0..8, <[f64]>::to_vec); // 64 bytes
            }
            comm.barrier();
        });
        assert_eq!(e1.traffic.total_remote_bytes(), 64);
        let e2 = s.run_epoch(|comm| {
            comm.barrier();
        });
        assert_eq!(e2.traffic.total_remote_bytes(), 0, "epoch 2 moved nothing");
        assert_eq!((e1.epoch, e2.epoch), (0, 1));
    }

    #[test]
    fn sequence_counters_extend_across_epochs() {
        // Per-rank collective sequence counters persist across epochs,
        // so a later epoch's collectives can never pair with leftover
        // rendezvous entries from an earlier one: ten epochs of
        // all-gathers must each see exactly their own values.
        let mut s = Session::spawn(3);
        for round in 0u64..10 {
            let rep = s.run_epoch(move |comm| comm.all_gather(round * 100 + comm.rank() as u64));
            for gathered in rep.results {
                assert_eq!(
                    gathered,
                    vec![round * 100, round * 100 + 1, round * 100 + 2],
                    "epoch {round} saw stale deposits"
                );
            }
        }
    }

    #[test]
    fn desynchronized_collectives_fail_fast() {
        // Rank 0 runs two all-gathers; rank 1 runs one all-gather plus
        // two bare barriers (so barrier arrivals stay aligned — the
        // shape of a real SPMD divergence bug). Rank 0's second gather
        // then reads a rendezvous slot rank 1 never filled: the runtime
        // must panic and poison, not hang or mispair.
        let mut s = Session::spawn(2);
        let out = catch_unwind(AssertUnwindSafe(|| {
            s.run_epoch(|comm| {
                if comm.rank() == 0 {
                    let _ = comm.all_gather(1u8);
                    let _ = comm.all_gather(2u8);
                } else {
                    let _ = comm.all_gather(1u8);
                    comm.barrier();
                    comm.barrier();
                }
            })
        }));
        assert!(out.is_err(), "divergent collective sequences must fail");
    }

    #[test]
    fn epoch_panic_poisons_but_session_fails_fast_later() {
        let mut s = Session::spawn(3);
        let out = catch_unwind(AssertUnwindSafe(|| {
            s.run_epoch(|comm| {
                if comm.rank() == 1 {
                    panic!("epoch bug");
                }
                comm.barrier();
            })
        }));
        assert!(out.is_err(), "epoch panic propagates to the driver");
        // The world stays poisoned: the next epoch's first collective
        // fails fast on every rank instead of hanging.
        let out = catch_unwind(AssertUnwindSafe(|| s.run_epoch(|comm| comm.barrier())));
        assert!(out.is_err(), "poisoned session rejects further epochs");
    }

    #[test]
    fn post_poison_epoch_reports_even_when_culprit_succeeds() {
        // Regression: in a poisoned session, a later epoch where the
        // original culprit's closure happens to return Ok (it skips
        // every collective) must still surface a poison error from the
        // surviving ranks — not an internal `unreachable!`.
        let mut s = Session::spawn(3);
        let out = catch_unwind(AssertUnwindSafe(|| {
            s.run_epoch(|comm| {
                if comm.rank() == 1 {
                    panic!("first failure");
                }
                comm.barrier();
            })
        }));
        assert!(out.is_err());
        let out = catch_unwind(AssertUnwindSafe(|| {
            s.run_epoch(|comm| {
                if comm.rank() == 1 {
                    return; // culprit avoids all collectives: Ok
                }
                comm.barrier(); // peers fail fast on the poison
            })
        }));
        let payload = out.expect_err("poison must still propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("poisoned"), "clear poison error, got: {msg}");
    }

    #[test]
    fn single_rank_session() {
        let mut s = Session::spawn(1);
        let rep = s.run_epoch(|comm| comm.all_reduce_max(4.5));
        assert_eq!(rep.results, vec![4.5]);
        assert_eq!(s.size(), 1);
    }

    #[test]
    fn epochs_inherit_the_drivers_pool() {
        use rayon::prelude::*;
        // Spawn the session *inside* a 3-worker pool's install scope:
        // every epoch's parallel work must dispatch to that pool, not
        // the global one, and concurrent per-rank parallel regions on
        // the shared pool must not deadlock — across several epochs.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .unwrap();
        let mut s = pool.install(|| Session::spawn(4));
        for _ in 0..3 {
            let rep = s.run_epoch(|comm| {
                let threads = rayon::current_num_threads();
                let rank = comm.rank() as u64;
                let sum: u64 = (0..1000u64)
                    .into_par_iter()
                    .map(|i| i + rank)
                    .collect::<Vec<_>>()
                    .iter()
                    .sum();
                comm.barrier();
                (threads, sum)
            });
            for (rank, &(threads, sum)) in rep.results.iter().enumerate() {
                assert_eq!(threads, 3, "rank {rank} not on the driver's pool");
                assert_eq!(sum, (0..1000u64).sum::<u64>() + 1000 * rank as u64);
            }
        }
    }

    #[test]
    fn run_spmd_ranks_share_installed_pool() {
        use rayon::prelude::*;
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        let out = pool.install(|| {
            crate::run_spmd(3, |comm| {
                let v: Vec<usize> = (0..64usize).into_par_iter().map(|i| i * 2).collect();
                comm.barrier();
                (rayon::current_num_threads(), v[63])
            })
        });
        for &(threads, last) in &out.results {
            assert_eq!(threads, 2);
            assert_eq!(last, 126);
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_rank_session_rejected() {
        let _ = Session::spawn(0);
    }

    #[test]
    fn chaos_panic_fires_at_its_epoch_and_poisons() {
        use crate::chaos::{ChaosSchedule, FaultKind, FaultSpec};
        let mut s = Session::spawn(2);
        s.set_chaos(Some(ChaosSchedule::new(
            vec![FaultSpec {
                epoch: 1,
                rank: 1,
                kind: FaultKind::Panic,
            }],
            2,
        )));
        // Epoch 0: no fault scheduled — runs clean.
        let e0 = s.run_epoch(|comm| comm.all_reduce_sum(1.0));
        assert_eq!(e0.results, vec![2.0, 2.0]);
        // Epoch 1: rank 1 panics at entry; the driver sees the payload.
        let out = catch_unwind(AssertUnwindSafe(|| s.run_epoch(|comm| comm.barrier())));
        let payload = out.expect_err("injected panic must surface");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("injected panic on rank 1"), "got: {msg}");
        assert!(s.is_poisoned());
        let events = s.chaos().expect("still attached").drain_events();
        assert_eq!(events.len(), 1);
        assert_eq!((events[0].epoch, events[0].rank), (1, 1));
    }

    #[test]
    fn watchdog_converts_hang_into_poison() {
        use crate::chaos::{ChaosSchedule, FaultKind, FaultSpec, HangReleased};
        let mut s = Session::spawn(3);
        s.set_chaos(Some(ChaosSchedule::new(
            vec![FaultSpec {
                epoch: 0,
                rank: 2,
                kind: FaultKind::Hang,
            }],
            3,
        )));
        s.set_deadline(Some(Duration::from_millis(100)));
        let out = catch_unwind(AssertUnwindSafe(|| s.run_epoch(|comm| comm.barrier())));
        let payload = out.expect_err("hang must resolve into an error, not a deadlock");
        let hr = payload
            .downcast_ref::<HangReleased>()
            .expect("typed watchdog payload");
        assert_eq!((hr.rank, hr.epoch), (2, 0));
        assert!(s.is_poisoned());
        assert_eq!(s.watchdog_fires(), 1);
        // Teardown must not hang either: dropping `s` joins all ranks.
    }

    #[test]
    fn observational_faults_change_nothing_but_events() {
        use crate::chaos::{ChaosSchedule, FaultKind, FaultSpec};
        let run = |chaos: bool| {
            let s = Session::spawn(2);
            if chaos {
                s.set_chaos(Some(ChaosSchedule::new(
                    vec![
                        FaultSpec {
                            epoch: 0,
                            rank: 0,
                            kind: FaultKind::Transient {
                                ops: 1,
                                delay_s: 0.5,
                            },
                        },
                        FaultSpec {
                            epoch: 0,
                            rank: 1,
                            kind: FaultKind::Straggler { delay_s: 0.25 },
                        },
                    ],
                    2,
                )));
            }
            let mut s = s;
            let er = s.run_epoch(|comm| {
                let win = comm.create_window(vec![comm.rank() as f64; 4]);
                let nbr = (comm.rank() + 1) % comm.size();
                let v = win.lock_shared(nbr).get_with(0..4, <[f64]>::to_vec)[0];
                comm.barrier();
                v
            });
            (er.results, er.traffic, s)
        };
        let (clean_results, clean_traffic, _s) = run(false);
        let (results, traffic, s) = run(true);
        assert_eq!(results, clean_results, "delay faults must not touch data");
        assert_eq!(
            traffic, clean_traffic,
            "delay faults must not touch traffic"
        );
        let events = s.chaos().unwrap().drain_events();
        // Rank-major: rank 0's transient retry, then rank 1's straggler.
        assert_eq!(events.len(), 2);
        assert_eq!(
            (events[0].label, events[0].delay_s),
            ("transient-retry", 0.5)
        );
        assert_eq!((events[1].label, events[1].delay_s), ("straggler", 0.25));
    }

    #[test]
    fn scoped_epochs_borrow_the_callers_stack() {
        // Two epochs on scoped ranks read a stack Vec and write through a
        // stack Mutex; traffic is drained per epoch, and the session
        // drops inside the scope (else the scope would wait forever).
        let weights: Vec<f64> = (0..3).map(|r| f64::from(1 << r)).collect(); // 1, 2, 4
        let seen = Mutex::new(Vec::new());
        let (e0, e1) = std::thread::scope(|scope| {
            let mut s = SessionIn::spawn_in(scope, 3);
            let e0 = s.run_epoch(|comm| {
                let win = comm.create_window(vec![weights[comm.rank()]; 2]);
                let nbr = (comm.rank() + 1) % comm.size();
                let v = win.lock_shared(nbr).get_with(0..2, <[f64]>::to_vec)[0]; // 16 bytes
                comm.barrier();
                v
            });
            let e1 = s.run_epoch(|comm| {
                seen.lock().push(comm.rank());
                comm.all_reduce_sum(weights[comm.rank()])
            });
            assert_eq!(s.epochs_run(), 2);
            drop(s);
            (e0, e1)
        });
        assert_eq!(e0.results, vec![2.0, 4.0, 1.0]);
        assert_eq!(e0.traffic.total_remote_bytes(), 3 * 16);
        assert_eq!(e1.results, vec![7.0; 3]);
        assert_eq!(e1.traffic.total_remote_bytes(), 0, "epoch 1 moved nothing");
        assert_eq!((e0.epoch, e1.epoch), (0, 1));
        let mut seen = seen.into_inner();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "epoch deadline must be positive")]
    fn zero_deadline_rejected() {
        Session::spawn(1).set_deadline(Some(Duration::ZERO));
    }

    #[test]
    fn watchdog_fires_once_per_epoch() {
        // Rank 2 hangs; rank 1 stays busy for about four deadlines before
        // it reports. The watchdog poisons and releases once; the wait
        // for rank 1's late report must not fire it again.
        use crate::chaos::{FaultKind, FaultSpec};
        let deadline = Duration::from_millis(50);
        let mut s = Session::spawn(3);
        s.set_chaos(Some(ChaosSchedule::new(
            vec![FaultSpec {
                epoch: 0,
                rank: 2,
                kind: FaultKind::Hang,
            }],
            3,
        )));
        s.set_deadline(Some(deadline));
        let out = catch_unwind(AssertUnwindSafe(|| {
            s.run_epoch(move |comm| {
                if comm.rank() == 1 {
                    std::thread::sleep(4 * deadline);
                }
                comm.barrier();
            })
        }));
        assert!(out.is_err(), "the hang resolves into an error");
        assert!(s.is_poisoned());
        assert_eq!(s.watchdog_fires(), 1);
    }

    #[test]
    fn watchdog_spares_a_slow_live_epoch() {
        // A live epoch delayed by a quarter of its deadline: one rank
        // sleeps 0.5 s under a 2 s deadline (a 4x margin) before it
        // reports, three epochs running. The watchdog must never fire
        // and the world must never poison.
        let mut s = Session::spawn(3);
        s.set_deadline(Some(Duration::from_secs(2)));
        for _ in 0..3 {
            let rep = s.run_epoch(|comm| {
                if comm.rank() == 0 {
                    std::thread::sleep(Duration::from_millis(500));
                }
                comm.all_reduce_sum(1.0)
            });
            assert_eq!(rep.results, vec![3.0; 3]);
        }
        assert_eq!(s.watchdog_fires(), 0);
        assert!(!s.is_poisoned());
    }
}
