//! The SPMD runtime: rank threads, the shared world, rendezvous-based
//! collectives, and traffic accounting.
//!
//! Two entry points share the same (crate-private) world state:
//!
//! - [`run_spmd`] — spawn `n_ranks` threads, run one closure to
//!   completion, tear the world down (the original per-call mode);
//! - [`crate::session::Session`] — spawn the threads **once** and feed
//!   them a sequence of epochs, the persistent-rank mode a
//!   time-stepping driver needs.
//!
//! Both are protected by the same panic discipline: every collective
//! waits on a *poisonable* barrier, so a rank that panics between
//! collectives poisons the world and surviving ranks fail fast with a
//! clear error instead of deadlocking (the documented hazard of real
//! MPI, where a dead rank hangs its peers forever).

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar};

use bltc_trace::Span;
use parking_lot::Mutex;

/// Per-pair one-sided traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Number of one-sided operations (gets + puts).
    pub messages: u64,
    /// Total payload bytes.
    pub bytes: u64,
}

/// `size × size` matrix of [`Traffic`]; entry `[o][t]` is traffic with
/// origin `o` and target `t`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrafficMatrix {
    entries: Vec<Vec<Traffic>>,
}

impl TrafficMatrix {
    fn new(size: usize) -> Self {
        Self {
            entries: vec![vec![Traffic::default(); size]; size],
        }
    }

    /// An all-zero `size × size` matrix — the identity for
    /// [`TrafficMatrix::accumulate`]. Time-stepping drivers start from
    /// this and fold in the matrix of every step's distributed run.
    pub fn zeros(size: usize) -> Self {
        Self::new(size)
    }

    /// Element-wise add another run's traffic into this matrix.
    ///
    /// The accumulated matrix preserves the per-(origin, target)
    /// resolution, so cumulative reports (e.g. a whole simulation's RMA
    /// volume) reconcile against per-step tallies exactly:
    /// `acc.total_remote_bytes()` equals the sum of every step's
    /// `total_remote_bytes()`.
    ///
    /// # Panics
    ///
    /// Panics if the two matrices have different sizes (traffic from
    /// runs with different rank counts is not meaningfully additive).
    pub fn accumulate(&mut self, other: &TrafficMatrix) {
        assert_eq!(
            self.size(),
            other.size(),
            "cannot accumulate traffic across different rank counts"
        );
        for (dst_row, src_row) in self.entries.iter_mut().zip(&other.entries) {
            for (dst, src) in dst_row.iter_mut().zip(src_row) {
                dst.messages += src.messages;
                dst.bytes += src.bytes;
            }
        }
    }

    /// Entry accessor.
    pub fn get(&self, origin: usize, target: usize) -> Traffic {
        self.entries[origin][target]
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.entries.len()
    }

    /// Total remote bytes an origin rank pulled/pushed (excludes
    /// rank-local operations, which cost no network time).
    pub fn remote_bytes_from(&self, origin: usize) -> u64 {
        self.entries[origin]
            .iter()
            .enumerate()
            .filter(|(t, _)| *t != origin)
            .map(|(_, e)| e.bytes)
            .sum()
    }

    /// Total remote messages an origin rank issued.
    pub fn remote_messages_from(&self, origin: usize) -> u64 {
        self.entries[origin]
            .iter()
            .enumerate()
            .filter(|(t, _)| *t != origin)
            .map(|(_, e)| e.messages)
            .sum()
    }

    /// Grand total of remote bytes across all pairs.
    pub fn total_remote_bytes(&self) -> u64 {
        (0..self.size()).map(|o| self.remote_bytes_from(o)).sum()
    }

    /// Grand total of remote messages across all pairs.
    pub fn total_remote_messages(&self) -> u64 {
        (0..self.size()).map(|o| self.remote_messages_from(o)).sum()
    }
}

/// Per-rank deposit slots of one in-flight collective.
pub(crate) type RendezvousSlots = Vec<Option<Box<dyn Any + Send>>>;

/// Interior state of the poisonable barrier.
struct BarrierState {
    /// Ranks currently parked in the active round.
    waiting: usize,
    /// Round counter; a parked rank leaves when it changes.
    generation: u64,
    /// Set once, by the first rank whose epoch closure panicked.
    poisoned_by: Option<usize>,
}

/// A cyclic barrier whose waiters can be *poisoned*: when a rank panics
/// between collectives, [`PoisonBarrier::poison`] wakes every parked
/// rank and makes this and every future [`PoisonBarrier::wait`] panic
/// with a clear error — the fail-fast substitute for the deadlock a
/// dead rank causes under real MPI.
pub(crate) struct PoisonBarrier {
    size: usize,
    state: Mutex<BarrierState>,
    cvar: Condvar,
}

impl PoisonBarrier {
    fn new(size: usize) -> Self {
        Self {
            size,
            state: Mutex::new(BarrierState {
                waiting: 0,
                generation: 0,
                poisoned_by: None,
            }),
            cvar: Condvar::new(),
        }
    }

    fn panic_poisoned(rank: usize) -> ! {
        panic!("SPMD world poisoned: rank {rank} panicked between collectives; surviving ranks abort instead of deadlocking");
    }

    /// Park until all `size` ranks arrive (or the world is poisoned).
    pub(crate) fn wait(&self) {
        // The compat `parking_lot::MutexGuard` is the std guard, so the
        // std Condvar can park on it directly.
        let mut st = self.state.lock();
        if let Some(rank) = st.poisoned_by {
            Self::panic_poisoned(rank);
        }
        st.waiting += 1;
        if st.waiting == self.size {
            st.waiting = 0;
            st.generation = st.generation.wrapping_add(1);
            self.cvar.notify_all();
            return;
        }
        let gen = st.generation;
        while st.generation == gen {
            st = self
                .cvar
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(rank) = st.poisoned_by {
                Self::panic_poisoned(rank);
            }
        }
    }

    /// Record that `rank` panicked and wake every parked rank. The
    /// first poisoner wins; later calls keep the original culprit.
    pub(crate) fn poison(&self, rank: usize) {
        let mut st = self.state.lock();
        if st.poisoned_by.is_none() {
            st.poisoned_by = Some(rank);
        }
        self.cvar.notify_all();
    }

    /// The rank recorded by the first [`PoisonBarrier::poison`] call.
    pub(crate) fn poisoned_by(&self) -> Option<usize> {
        self.state.lock().poisoned_by
    }
}

/// Per-rank span deposit buffers, drained alongside the traffic matrix.
///
/// Each rank writes only its own buffer (so locks are uncontended and
/// span order within a rank is the rank's own program order); the
/// driver drains all buffers only after every rank's epoch outcome has
/// been collected. Depositing is gated on `enabled` — but whether spans
/// are collected or discarded can never influence the computation,
/// because nothing in the runtime ever reads them back.
pub(crate) struct TraceSink {
    enabled: AtomicBool,
    buffers: Vec<Mutex<Vec<Span>>>,
}

impl TraceSink {
    fn new(size: usize) -> Self {
        Self {
            enabled: AtomicBool::new(true),
            buffers: (0..size).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    pub(crate) fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    pub(crate) fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub(crate) fn deposit(&self, rank: usize, spans: impl IntoIterator<Item = Span>) {
        if self.enabled() {
            self.buffers[rank].lock().extend(spans);
        }
    }

    /// Concatenate all per-rank buffers (rank-major, each in deposit
    /// order), leaving them empty.
    pub(crate) fn drain(&self) -> Vec<Span> {
        let mut out = Vec::new();
        for buf in &self.buffers {
            out.append(&mut buf.lock());
        }
        out
    }
}

/// Shared world state (one per `run_spmd` invocation, or one per
/// [`crate::session::Session`] lifetime).
pub(crate) struct World {
    pub(crate) size: usize,
    pub(crate) barrier: PoisonBarrier,
    /// Rendezvous slots for collectives, keyed by per-rank call sequence.
    pub(crate) rendezvous: Mutex<HashMap<u64, RendezvousSlots>>,
    pub(crate) traffic: Mutex<TrafficMatrix>,
    pub(crate) trace: TraceSink,
    /// Attached fault timeline, if any (see [`crate::chaos`]). The fast
    /// flag keeps the no-chaos hot path (every one-sided op) to a
    /// single relaxed load.
    pub(crate) chaos: Mutex<Option<Arc<crate::chaos::ChaosSchedule>>>,
    pub(crate) chaos_attached: AtomicBool,
    /// Index of the epoch currently executing — stored by the session
    /// driver before submission (the session is fully synchronous, so
    /// no rank can still be inside an earlier epoch).
    pub(crate) current_epoch: AtomicU64,
}

impl World {
    pub(crate) fn new(size: usize) -> Self {
        Self {
            size,
            barrier: PoisonBarrier::new(size),
            rendezvous: Mutex::new(HashMap::new()),
            traffic: Mutex::new(TrafficMatrix::new(size)),
            trace: TraceSink::new(size),
            chaos: Mutex::new(None),
            chaos_attached: AtomicBool::new(false),
            current_epoch: AtomicU64::new(0),
        }
    }

    pub(crate) fn chaos_schedule(&self) -> Option<Arc<crate::chaos::ChaosSchedule>> {
        if !self.chaos_attached.load(Ordering::Relaxed) {
            return None;
        }
        self.chaos.lock().clone()
    }

    /// Rank-side chaos injection at epoch entry; called inside the rank
    /// loop's `catch_unwind` so an injected panic follows the ordinary
    /// poison discipline. No-op without an attached schedule.
    pub(crate) fn chaos_epoch_begin(&self, rank: usize) {
        if let Some(chaos) = self.chaos_schedule() {
            let epoch = self.current_epoch.load(Ordering::Relaxed);
            chaos.at_epoch_begin(epoch, rank, &|| self.barrier.poisoned_by().is_some());
        }
    }

    pub(crate) fn record_traffic(&self, origin: usize, target: usize, bytes: u64) {
        {
            let mut t = self.traffic.lock();
            let e = &mut t.entries[origin][target];
            e.messages += 1;
            e.bytes += bytes;
        }
        // Chaos transient-failure hook: charges modeled retry delay,
        // never perturbs the matrix itself.
        if let Some(chaos) = self.chaos_schedule() {
            chaos.on_rma(origin);
        }
    }

    /// Take the traffic recorded since the last drain, leaving zeros —
    /// how a [`crate::session::Session`] attributes traffic to epochs.
    pub(crate) fn drain_traffic(&self) -> TrafficMatrix {
        std::mem::replace(&mut *self.traffic.lock(), TrafficMatrix::new(self.size))
    }
}

/// Result of an SPMD run: per-rank return values plus the recorded
/// one-sided traffic matrix and deposited trace spans.
#[derive(Debug)]
pub struct SpmdResult<R> {
    /// Return value of each rank, indexed by rank.
    pub results: Vec<R>,
    /// One-sided traffic recorded during the run.
    pub traffic: TrafficMatrix,
    /// Trace spans deposited by rank bodies via
    /// [`crate::Comm::trace_spans`] (rank-major, each rank's in deposit
    /// order). Purely observational — identical results with or without
    /// them.
    pub spans: Vec<Span>,
}

/// Run `f` on `n_ranks` rank threads; blocks until all ranks return.
///
/// The closure receives this rank's [`crate::Comm`]. All ranks must make
/// collective calls (barriers, window creations, gathers) in the same
/// order — the SPMD discipline MPI itself requires.
///
/// ## Host-pool inheritance (pool-per-process)
///
/// Rank threads are fresh OS threads and would otherwise dispatch any
/// shared-memory parallelism (`rayon` in the rank body) to the global
/// pool regardless of what the driver selected. Instead, the driver's
/// current pool is captured here and installed inside every rank
/// thread for the duration of the closure: all ranks share **one**
/// process-wide pool (a pool per rank would oversubscribe the host at
/// `ranks × workers` threads). Rank threads additionally *help* the
/// pool while waiting on their own parallel regions, so even a
/// 1-worker pool makes progress under any rank count.
///
/// # Panics
///
/// Panics if `n_ranks == 0`, or propagates the first rank panic after
/// the run. A rank panicking between collectives does **not** deadlock
/// its peers (the hazard real MPI has): the panicking rank poisons the
/// world, every surviving rank fails fast at its next collective with a
/// "world poisoned" error, and the driver re-raises the *original*
/// panic payload.
pub fn run_spmd<R, F>(n_ranks: usize, f: F) -> SpmdResult<R>
where
    R: Send,
    F: Fn(crate::Comm) -> R + Sync,
{
    assert!(n_ranks > 0, "need at least one rank");
    let world = Arc::new(World::new(n_ranks));
    let pool = rayon::current_pool();
    let outcomes: Vec<std::thread::Result<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_ranks)
            .map(|rank| {
                let world = Arc::clone(&world);
                let f = &f;
                let pool = pool.clone();
                scope.spawn(move || {
                    let comm = crate::Comm::new(rank, Arc::clone(&world));
                    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        pool.install(|| f(comm))
                    }));
                    if out.is_err() {
                        world.barrier.poison(rank);
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread died outside catch_unwind"))
            .collect()
    });
    // Re-raise the poisoner's original panic (peers' "world poisoned"
    // panics are secondary noise).
    if outcomes.iter().any(|o| o.is_err()) {
        let culprit = world
            .barrier
            .poisoned_by()
            .expect("panic recorded a poisoner");
        let payload = match outcomes.into_iter().nth(culprit) {
            Some(Err(payload)) => payload,
            _ => unreachable!("culprit rank recorded an Err outcome"),
        };
        std::panic::resume_unwind(payload);
    }
    let results: Vec<R> = outcomes
        .into_iter()
        .map(|o| o.expect("checked above"))
        .collect();
    let traffic = world.traffic.lock().clone();
    let spans = world.trace.drain();
    SpmdResult {
        results,
        traffic,
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_receive_distinct_ids() {
        let out = run_spmd(6, |comm| (comm.rank(), comm.size()));
        for (r, &(rank, size)) in out.results.iter().enumerate() {
            assert_eq!(rank, r);
            assert_eq!(size, 6);
        }
    }

    #[test]
    fn single_rank_world_works() {
        let out = run_spmd(1, |comm| {
            comm.barrier();
            comm.rank()
        });
        assert_eq!(out.results, vec![0]);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        let _ = run_spmd(0, |_c| ());
    }

    #[test]
    fn traffic_matrix_accounting() {
        let mut m = TrafficMatrix::new(3);
        m.entries[0][1] = Traffic {
            messages: 2,
            bytes: 100,
        };
        m.entries[0][0] = Traffic {
            messages: 5,
            bytes: 999,
        };
        m.entries[2][0] = Traffic {
            messages: 1,
            bytes: 50,
        };
        assert_eq!(m.remote_bytes_from(0), 100, "local traffic excluded");
        assert_eq!(m.remote_messages_from(0), 2);
        assert_eq!(m.total_remote_bytes(), 150);
        assert_eq!(m.total_remote_messages(), 3);
        assert_eq!(m.get(2, 0).bytes, 50);
    }

    #[test]
    fn traffic_accumulation_is_elementwise_and_exact() {
        let mut a = TrafficMatrix::zeros(2);
        a.entries[0][1] = Traffic {
            messages: 3,
            bytes: 30,
        };
        let mut b = TrafficMatrix::zeros(2);
        b.entries[0][1] = Traffic {
            messages: 1,
            bytes: 12,
        };
        b.entries[1][0] = Traffic {
            messages: 2,
            bytes: 8,
        };

        let mut acc = TrafficMatrix::zeros(2);
        acc.accumulate(&a);
        acc.accumulate(&b);
        assert_eq!(acc.get(0, 1).messages, 4);
        assert_eq!(acc.get(0, 1).bytes, 42);
        assert_eq!(acc.get(1, 0).bytes, 8);
        assert_eq!(
            acc.total_remote_bytes(),
            a.total_remote_bytes() + b.total_remote_bytes()
        );
        assert_eq!(
            acc.total_remote_messages(),
            a.total_remote_messages() + b.total_remote_messages()
        );
    }

    #[test]
    #[should_panic(expected = "different rank counts")]
    fn accumulation_across_sizes_rejected() {
        let mut a = TrafficMatrix::zeros(2);
        a.accumulate(&TrafficMatrix::zeros(3));
    }

    #[test]
    fn closure_can_borrow_environment() {
        let data = [1.0f64, 2.0, 3.0];
        let out = run_spmd(3, |comm| data[comm.rank()]);
        assert_eq!(out.results, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn panicking_rank_does_not_deadlock_peers() {
        // Rank 1 panics between collectives while every other rank sits
        // in a barrier — the documented MPI deadlock. The poisoned
        // world must instead complete promptly, re-raising rank 1's
        // original panic.
        let out = std::panic::catch_unwind(|| {
            run_spmd(4, |comm| {
                if comm.rank() == 1 {
                    panic!("rank 1 exploded");
                }
                comm.barrier(); // would hang forever without poisoning
                comm.rank()
            })
        });
        let payload = out.expect_err("the rank panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert_eq!(msg, "rank 1 exploded", "original payload, not peer noise");
    }

    #[test]
    fn panic_inside_collective_poisons_peers() {
        // The panic fires while peers are parked inside an all-gather's
        // rendezvous barrier rather than a bare barrier.
        let out = std::panic::catch_unwind(|| {
            run_spmd(3, |comm| {
                if comm.rank() == 2 {
                    panic!("boom in the middle");
                }
                comm.all_gather(comm.rank())
            })
        });
        assert!(out.is_err());
    }

    #[test]
    fn poisoned_barrier_reports_the_first_culprit() {
        let b = PoisonBarrier::new(2);
        b.poison(7);
        b.poison(3); // later poisoners don't overwrite
        assert_eq!(b.poisoned_by(), Some(7));
        let w = std::panic::catch_unwind(|| b.wait());
        let payload = w.expect_err("poisoned wait must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("rank 7"), "culprit named: {msg}");
    }

    #[test]
    fn drain_traffic_separates_phases() {
        let world = World::new(2);
        world.record_traffic(0, 1, 100);
        let first = world.drain_traffic();
        assert_eq!(first.total_remote_bytes(), 100);
        world.record_traffic(1, 0, 7);
        let second = world.drain_traffic();
        assert_eq!(second.total_remote_bytes(), 7);
        assert_eq!(second.get(0, 1).bytes, 0, "drained entries reset");
    }
}
