//! The host thread pool: a fixed set of workers serving flat, indexed
//! parallel loops, one job per call.
//!
//! `map_chunks` cuts `0..len` into about four chunks per worker and
//! lists one job, `{chunks, next, helpers, first panic, body}`, that
//! lives on the caller's stack. Workers *and the caller* claim chunk
//! indices from the job's one counter with `fetch_add` until it runs
//! out, so the caller always drains its own job: rank threads help
//! while they wait, and a nested call (a chunk body that calls
//! `par_iter`) cannot deadlock. The caller then unlists the job and
//! waits only for the workers still attached to it. Chunk `k`'s result
//! is returned in position `k`, whichever thread ran it. A chunk's
//! panic is caught and the first payload re-raised on the caller once
//! every claimed chunk has completed; workers keep serving. The
//! scheduling model and the determinism contract are written out in
//! `crates/compat/README.md`.

use std::any::Any;
use std::cell::RefCell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, LazyLock, Mutex, MutexGuard, PoisonError};

/// Hard cap on pool size: far above any sane `ranks × workers`
/// product, low enough to catch a runaway `BLTC_HOST_THREADS=1000000`.
const MAX_POOL_THREADS: usize = 256;

/// Sizes every pool built without `num_threads`, the global one
/// included; takes precedence over `RAYON_NUM_THREADS`.
pub const HOST_THREADS_ENV: &str = "BLTC_HOST_THREADS";

/// A poisoned lock only means a thread panicked while holding it; every
/// value guarded here is valid after each single update.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The scheduling edges the test build perturbs (see the tests module).
enum Edge {
    Claim,
    Complete,
    Park,
    Wake,
}

#[cfg(not(test))]
#[inline(always)]
fn perturb(_: Edge) {}

#[cfg(test)]
use tests::perturb;

/// One parallel call: `chunks` chunk indices handed out by `next`.
struct Job<'a> {
    chunks: usize,
    next: AtomicUsize,
    /// Workers attached to the job; changed and read only under the
    /// pool lock, which orders every attached chunk's completion before
    /// the caller's return.
    helpers: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    body: &'a (dyn Fn(usize) + Sync),
}

impl Job<'_> {
    /// Claim and run chunks until the counter runs out. `Relaxed` claims
    /// suffice: an index needs only a single owner, which the
    /// read-modify-write gives, and a chunk's result is published
    /// through its own slot lock. Never unwinds: a chunk's panic is
    /// caught and the first payload kept for the caller.
    fn drain(&self) {
        loop {
            perturb(Edge::Claim);
            let k = self.next.fetch_add(1, Ordering::Relaxed);
            if k >= self.chunks {
                return;
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.body)(k))) {
                lock(&self.panic).get_or_insert(payload);
            }
            perturb(Edge::Complete);
        }
    }
}

/// What the pool lock guards.
#[derive(Default)]
struct State {
    /// Jobs that may still have chunks to claim, oldest first.
    jobs: Vec<&'static Job<'static>>,
    shutdown: bool,
}

struct Shared {
    workers: usize,
    state: Mutex<State>,
    /// Idle workers park here until a job is listed or shutdown.
    work: Condvar,
    /// Callers park here until their job's helpers detach.
    idle: Condvar,
}

impl Shared {
    /// A worker's life: attach to the oldest listed job, drain it,
    /// unlist it, detach; park while nothing is listed.
    fn work(&self) {
        let mut state = lock(&self.state);
        while !state.shutdown {
            let Some(&job) = state.jobs.first() else {
                state = park(&self.work, state);
                continue;
            };
            job.helpers.fetch_add(1, Ordering::Relaxed);
            drop(state);
            job.drain();
            state = lock(&self.state);
            // The counter ran out: nobody else should attach in vain.
            state.jobs.retain(|&j| !std::ptr::eq(j, job));
            if job.helpers.fetch_sub(1, Ordering::Relaxed) == 1 {
                self.idle.notify_all();
            }
        }
    }

    /// Run `body(k)` for every `k in 0..chunks` on this pool and the
    /// calling thread; returns once every chunk has completed, and
    /// re-raises the first chunk panic.
    fn run(&self, chunks: usize, body: &(dyn Fn(usize) + Sync)) {
        let job = Job {
            chunks,
            next: AtomicUsize::new(0),
            helpers: AtomicUsize::new(0),
            panic: Mutex::new(None),
            body,
        };
        // SAFETY: the listed reference outlives `job` and the borrows in
        // `body` only on paper. Workers reach a job only through the
        // list, attach to it under the pool lock, and never touch it
        // after detaching under that lock. Below, the caller unlists
        // the job and waits, under the lock, until no worker is
        // attached before `job` can drop — the join-before-return that
        // `std::thread::scope` enforces. Nothing between listing and
        // that wait unwinds: `drain` catches every chunk's panic and
        // `lock` recovers poisoned guards.
        let listed = unsafe { std::mem::transmute::<&Job<'_>, &'static Job<'static>>(&job) };
        lock(&self.state).jobs.push(listed);
        self.work.notify_all();
        job.drain();
        let mut state = lock(&self.state);
        state.jobs.retain(|&j| !std::ptr::eq(j, listed));
        while job.helpers.load(Ordering::Relaxed) > 0 {
            state = park(&self.idle, state);
        }
        drop(state);
        let panic = lock(&job.panic).take();
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }
}

/// Wait on one of the pool's condvars, between the park and wake edges.
fn park<'a>(cv: &Condvar, state: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
    perturb(Edge::Park);
    let state = cv.wait(state).unwrap_or_else(PoisonError::into_inner);
    perturb(Edge::Wake);
    state
}

/// Split `0..len` into chunks, run `body` on each over the current pool
/// (the calling thread included), and return the results in chunk
/// order. A 1-worker pool, or a single item, runs `body(0..len)` inline.
pub(crate) fn map_chunks<T: Send>(len: usize, body: impl Fn(Range<usize>) -> T + Sync) -> Vec<T> {
    let shared = current_pool().shared;
    if shared.workers <= 1 || len <= 1 {
        return vec![body(0..len)];
    }
    let chunk = (len / (shared.workers * 4)).max(1);
    let slots: Vec<Mutex<Option<T>>> = (0..len.div_ceil(chunk)).map(|_| Mutex::default()).collect();
    shared.run(slots.len(), &|k| {
        let out = body(k * chunk..len.min((k + 1) * chunk));
        *lock(&slots[k]) = Some(out);
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner))
        .map(|out| out.expect("run returns only after every chunk completed"))
        .collect()
}

thread_local! {
    /// Pools entered with [`ThreadPool::install`] on this thread,
    /// innermost last. A worker's own pool sits at the bottom of its
    /// stack, so nested calls on a worker stay on its pool.
    static INSTALLED: RefCell<Vec<Arc<Shared>>> = const { RefCell::new(Vec::new()) };
}

/// Stops and joins the workers when the last owning handle drops.
struct Workers {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Drop for Workers {
    fn drop(&mut self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.work.notify_all();
        for h in self.handles.drain(..) {
            // A worker catches every chunk panic: nothing to report.
            let _ = h.join();
        }
    }
}

/// A handle to a pool; clones share it. The workers stop when the last
/// clone of the handle [`ThreadPoolBuilder::build`] returned drops, and
/// later work through a [`current_pool`] handle runs on the caller
/// alone, chunked as before, with unchanged results.
#[derive(Clone)]
pub struct ThreadPool {
    shared: Arc<Shared>,
    _owner: Option<Arc<Workers>>,
}

impl ThreadPool {
    /// Number of worker threads.
    pub fn current_num_threads(&self) -> usize {
        self.shared.workers
    }

    /// Run `f` with this pool as the target of every parallel call it
    /// makes on this thread. Unlike rayon, `f` itself stays on the
    /// calling thread; results are identical.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Pop;
        impl Drop for Pop {
            fn drop(&mut self) {
                INSTALLED.with(|s| s.borrow_mut().pop());
            }
        }
        INSTALLED.with(|s| s.borrow_mut().push(Arc::clone(&self.shared)));
        let _pop = Pop;
        f()
    }
}

/// Builder for a [`ThreadPool`].
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Start with the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Worker-thread count; `0` (the default) resolves
    /// `BLTC_HOST_THREADS` → `RAYON_NUM_THREADS` →
    /// `available_parallelism`.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Spawn the workers. Fails only if a thread cannot spawn, after
    /// stopping the ones that did.
    pub fn build(self) -> std::io::Result<ThreadPool> {
        let workers = match self.num_threads {
            0 => default_num_threads(),
            n => n,
        }
        .min(MAX_POOL_THREADS);
        let shared = Arc::new(Shared {
            workers,
            state: Mutex::default(),
            work: Condvar::new(),
            idle: Condvar::new(),
        });
        let mut owner = Workers {
            shared: Arc::clone(&shared),
            handles: Vec::with_capacity(workers),
        };
        for index in 0..workers {
            let shared = Arc::clone(&shared);
            #[cfg(test)]
            let seed = tests::worker_seed(index);
            let spawn = std::thread::Builder::new().name(format!("bltc-pool-{index}"));
            owner.handles.push(spawn.spawn(move || {
                #[cfg(test)]
                tests::seed_thread(seed);
                INSTALLED.with(|s| s.borrow_mut().push(Arc::clone(&shared)));
                shared.work();
            })?);
        }
        Ok(ThreadPool {
            shared,
            _owner: Some(Arc::new(owner)),
        })
    }
}

/// `BLTC_HOST_THREADS`, else `RAYON_NUM_THREADS`, else
/// `available_parallelism` (1 if unknown).
fn default_num_threads() -> usize {
    [HOST_THREADS_ENV, "RAYON_NUM_THREADS"]
        .iter()
        .find_map(|var| {
            let n = std::env::var(var).ok()?.trim().parse::<usize>().ok()?;
            (n >= 1).then_some(n)
        })
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Worker count of the pool parallel calls on this thread would use.
pub fn current_num_threads() -> usize {
    current_pool().shared.workers
}

/// The pool parallel calls on this thread dispatch to — the innermost
/// installed pool, else the global one — as a handle that never stops
/// its workers. `mpi-sim` captures it on the driver thread and installs
/// it in every rank thread, so rank bodies and the driver share one
/// process-wide pool.
pub fn current_pool() -> ThreadPool {
    static GLOBAL: LazyLock<ThreadPool> = LazyLock::new(|| {
        ThreadPoolBuilder::new()
            .build()
            .expect("build the global pool")
    });
    match INSTALLED.with(|s| s.borrow().last().cloned()) {
        Some(shared) => ThreadPool {
            shared,
            _owner: None,
        },
        None => GLOBAL.clone(),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cell::Cell;
    use std::collections::HashSet;
    use std::time::Duration;

    /// The perturbed legs' seeds. A failing leg prints its seed; adding
    /// that seed here replays its perturbation streams.
    pub(crate) const SEEDS: [u64; 6] = [1, 2, 0x5eed, 0xdead_beef, 0x9e37_79b9, 424_242];

    thread_local! {
        /// This thread's splitmix64 state; `None` leaves it unperturbed.
        static STREAM: Cell<Option<u64>> = const { Cell::new(None) };
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub(super) fn seed_thread(seed: Option<u64>) {
        STREAM.with(|s| s.set(seed));
    }

    /// The stream of worker `index` of a pool built on this thread: a
    /// pool built under a seeded test is perturbed, every other is not.
    pub(super) fn worker_seed(index: usize) -> Option<u64> {
        STREAM.with(Cell::get).map(|mut s| {
            s ^= (index as u64 + 1) << 48;
            splitmix64(&mut s)
        })
    }

    /// The hook at every claim, complete, park and wake edge: on a
    /// seeded thread, draw from its stream and run on, yield, spin or
    /// sleep.
    pub(super) fn perturb(edge: Edge) {
        let Some(mut s) = STREAM.with(Cell::get) else {
            return;
        };
        let r = splitmix64(&mut s) ^ edge as u64;
        STREAM.with(|c| c.set(Some(s)));
        match r % 8 {
            0..=2 => {}
            3 | 4 => std::thread::yield_now(),
            5 | 6 => (0..(r >> 8) % 4096).for_each(|_| std::hint::spin_loop()),
            _ => std::thread::sleep(Duration::from_micros((r >> 8) % 300)),
        }
    }

    /// Run `f` with this thread's stream seeded by `seed`.
    pub(crate) fn seeded<R>(seed: u64, f: impl FnOnce() -> R) -> R {
        seed_thread(Some(seed));
        let out = f();
        seed_thread(None);
        out
    }

    pub(crate) fn pool(n: usize) -> ThreadPool {
        ThreadPoolBuilder::new().num_threads(n).build().unwrap()
    }

    /// Nested calls from three concurrent callers on one perturbed pool:
    /// every chunk runs exactly once, results come back in chunk order,
    /// and nothing deadlocks.
    #[test]
    fn nested_calls_from_concurrent_callers_under_seeds() {
        for seed in SEEDS {
            for workers in [1, 2, 7] {
                let p = seeded(seed, || pool(workers));
                std::thread::scope(|s| {
                    for caller in 0..3u64 {
                        let p = &p;
                        s.spawn(move || {
                            seeded(seed ^ (caller << 40), || {
                                p.install(|| nested(seed, workers))
                            })
                        });
                    }
                });
            }
        }
    }

    fn nested(seed: u64, workers: usize) {
        let ctx = format!("seed {seed:#x}, {workers} workers");
        for len in [0, 1, 2, 9, 64, 301] {
            let hits: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
            let ranges = map_chunks(len, |r| {
                let inner = map_chunks(r.len() * 3, |q| q.len());
                assert_eq!(inner.iter().sum::<usize>(), r.len() * 3, "inner: {ctx}");
                r.clone().for_each(|i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                r
            });
            let starts: Vec<usize> = ranges.iter().map(|r| r.start).collect();
            let ends: Vec<usize> = ranges.iter().map(|r| r.end).collect();
            assert_eq!(starts[0], 0, "len {len}: {ctx}");
            assert_eq!(
                starts[1..],
                ends[..ends.len() - 1],
                "chunk order, len {len}: {ctx}"
            );
            assert_eq!(*ends.last().unwrap(), len, "len {len}: {ctx}");
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "every index once, len {len}: {ctx}"
            );
        }
    }

    /// Claims under contention: chunk bodies long enough that workers
    /// claim beside the caller, and every chunk must run exactly once.
    #[test]
    fn contended_claims_run_each_chunk_once() {
        for workers in [2, 7] {
            let p = pool(workers);
            for round in 0..2000 {
                let hits: Vec<AtomicUsize> =
                    (0..workers * 4).map(|_| AtomicUsize::new(0)).collect();
                p.install(|| {
                    map_chunks(hits.len(), |r| {
                        (0..50).for_each(|_| std::hint::spin_loop());
                        hits[r.start].fetch_add(1, Ordering::Relaxed);
                    })
                });
                let runs: Vec<usize> = hits.iter().map(|h| h.load(Ordering::Relaxed)).collect();
                assert!(
                    runs.iter().all(|&n| n == 1),
                    "round {round}, {workers} workers: runs per chunk {runs:?}"
                );
            }
        }
    }

    /// The caller re-raises a chunk's panic only after every other
    /// chunk, those still sleeping on workers included, has completed.
    #[test]
    fn panic_is_reraised_after_every_claimed_chunk_completes() {
        for seed in SEEDS {
            for workers in [2, 7] {
                let p = seeded(seed, || pool(workers));
                let done = AtomicUsize::new(0);
                let caught = seeded(seed, || {
                    p.install(|| {
                        catch_unwind(AssertUnwindSafe(|| {
                            map_chunks(workers * 4, |r| {
                                if r.start == 0 {
                                    panic!("chunk 0");
                                }
                                std::thread::sleep(Duration::from_millis(2));
                                done.fetch_add(1, Ordering::SeqCst);
                            })
                        }))
                    })
                });
                let ctx = format!("seed {seed:#x}, {workers} workers");
                let payload = caught.expect_err(&ctx);
                assert_eq!(payload.downcast_ref::<&str>(), Some(&"chunk 0"), "{ctx}");
                assert_eq!(done.load(Ordering::SeqCst), workers * 4 - 1, "{ctx}");
            }
        }
    }

    #[test]
    fn builder_honors_explicit_thread_count() {
        let p = pool(7);
        assert_eq!(p.current_num_threads(), 7);
        assert_eq!(p.install(current_num_threads), 7);
    }

    #[test]
    fn env_override_sets_default_size() {
        // The only test in this crate that writes the variable; the
        // prior value (e.g. CI's matrix setting) is restored, not
        // erased, so the rest of the process keeps its configuration.
        let prev = std::env::var(HOST_THREADS_ENV).ok();
        std::env::set_var(HOST_THREADS_ENV, "3");
        let p = ThreadPoolBuilder::new().build().unwrap();
        match prev {
            Some(v) => std::env::set_var(HOST_THREADS_ENV, v),
            None => std::env::remove_var(HOST_THREADS_ENV),
        }
        assert_eq!(p.current_num_threads(), 3);
        assert!(default_num_threads() >= 1);
    }

    #[test]
    fn install_nests_and_restores() {
        let p2 = pool(2);
        let p5 = pool(5);
        p2.install(|| {
            assert_eq!(current_num_threads(), 2);
            p5.install(|| assert_eq!(current_num_threads(), 5));
            assert_eq!(current_num_threads(), 2);
        });
    }

    /// Which threads ran the chunks of one slow call on `p`.
    fn chunk_threads(p: &ThreadPool) -> HashSet<std::thread::ThreadId> {
        p.install(|| {
            map_chunks(16, |_| {
                std::thread::sleep(Duration::from_millis(5));
                std::thread::current().id()
            })
        })
        .into_iter()
        .collect()
    }

    #[test]
    fn secondary_handles_share_the_pool_and_never_stop_it() {
        let p = pool(3);
        let handle = p.install(current_pool);
        assert_eq!(handle.current_num_threads(), 3);
        handle.install(|| assert_eq!(current_num_threads(), 3));
        // Dropping a secondary handle (as every run_spmd does) leaves
        // the workers running.
        drop(handle);
        let me = std::thread::current().id();
        assert!(chunk_threads(&p).iter().any(|&id| id != me));
    }

    #[test]
    fn work_after_the_owner_dropped_runs_on_the_caller() {
        let p = pool(2);
        let handle = p.install(current_pool);
        drop(p);
        let me = std::thread::current().id();
        assert_eq!(chunk_threads(&handle), HashSet::from([me]));
        let v: Vec<usize> = handle.install(|| map_chunks(50, |r| r.len()));
        assert_eq!(v.iter().sum::<usize>(), 50);
        // 50 items on 2 workers: chunks of 50 / 8 = 6, as with workers.
        assert_eq!(v.len(), 9);
    }
}
