//! The job engine: admission control, a bounded worker pool over warm
//! persistent worlds, a prepared-world cache, per-tenant metering, and
//! panic containment. See the crate docs for the job lifecycle.
//!
//! The scheduler core is std-only (threads + channels + condvars) per
//! the offline build constraint, but the surface is engine-shaped the
//! way async job engines are: [`SimService::submit`] returns a
//! [`JobTicket`] immediately (a future in all but name — poll it with
//! [`JobTicket::try_result`] or block on [`JobTicket::wait`]), and all
//! execution happens on the engine's own workers.
//!
//! ## Why tenancy is invisible to results
//!
//! Three properties compose into the bitwise guarantee the test
//! harness pins:
//!
//! 1. **Exclusive worlds** — a job checks its world out of the
//!    [`SessionPool`]; nothing else can submit epochs to it until the
//!    job checks it back in.
//! 2. **Stateless reuse** — [`bltc_sim::PersistentIntegrator::with_world`]
//!    rebuilds every rank-resident slot from the job's own prepared
//!    state; a recycled world contributes threads, never data. The
//!    prepared cache likewise only skips *driver-side* setup (scenario
//!    construction, the initial RCB) whose outputs are deterministic
//!    functions of the spec — no rank-side epoch is ever skipped, so
//!    traffic and clocks also match a solo run exactly.
//! 3. **Contained failure** — a rank panic poisons only the panicking
//!    job's world. The worker catches the unwind, the world is dropped
//!    (never re-pooled — [`SessionPool::checkin`] would refuse it
//!    anyway), and the job either retries on a fresh world or fails
//!    alone. Peers never observe any of it.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use bltc_core::field::FieldResult;
use bltc_sim::{Checkpoint, ForceModel, PersistentIntegrator, SimReport, SimState, WorldReuse};
use bltc_trace::{sort_spans, Phase, Span, TraceRecorder, Track};
use mpi_sim::{
    panic_message, ChaosSchedule, FaultKind, FaultSpec, PoolStats, Session, SessionPool,
};
use rcb::RcbPartition;

use crate::digest::{field_digest, state_digest};
use crate::meter::TenantMeter;
use crate::spec::{Fault, JobSpec};

/// Tenant identity — pure metering/attribution key, never part of the
/// computation (two tenants submitting the same [`JobSpec`] get the
/// same bits).
pub type TenantId = u64;

/// Engine sizing and policy.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker threads = maximum concurrently running jobs = warm-world
    /// pool retention bound.
    pub workers: usize,
    /// Jobs that may wait beyond the running set before submissions
    /// are rejected as saturated.
    pub queue_depth: usize,
    /// Prepared-world cache entries retained (FIFO eviction).
    pub cache_capacity: usize,
    /// Attempts beyond the first before a panicking job fails
    /// permanently.
    pub max_retries: u32,
    /// Start with dispatch gated: jobs are admitted and queued but no
    /// worker picks one up until [`SimService::resume`]. This makes
    /// admission decisions a pure function of submission order —
    /// what the determinism proptest pins.
    pub start_paused: bool,
    /// Collect per-job trace spans: each job runs under its own
    /// [`TraceRecorder`] stamped with its tenant and job id, the spans
    /// return in [`JobOutput::trace_spans`], and
    /// [`ServiceStats::trace_spans`] carries the sorted union at
    /// shutdown. Purely observational — results, digests, reports, and
    /// meters are bitwise identical either way (`tests/trace.rs`).
    pub trace: bool,
    /// Base of the deterministic exponential backoff charged between
    /// retry attempts: attempt `k`'s retry waits a **modeled**
    /// `backoff_base_s · 2^(k-1)` seconds. Pure accounting against the
    /// job's deadline budget — never wall-clock sleep, never part of
    /// the job's report.
    pub backoff_base_s: f64,
    /// Wall-clock budget an epoch may stay unreported before the
    /// watchdog converts the hung rank into a poisoned world (armed
    /// only for jobs carrying [`Fault::HangAtStep`] — a healthy epoch
    /// never races a timer).
    pub epoch_watchdog: Duration,
}

impl ServiceConfig {
    /// A sensible default shape for `workers` workers.
    pub fn with_workers(workers: usize) -> Self {
        Self {
            workers,
            queue_depth: 2 * workers,
            cache_capacity: 32,
            max_retries: 1,
            start_paused: false,
            trace: false,
            backoff_base_s: 1e-3,
            epoch_watchdog: Duration::from_millis(250),
        }
    }
}

/// How an admitted submission will be served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// A worker slot was free at submission.
    Immediate,
    /// All workers were busy; the job waits `position` deep in the
    /// overflow queue (0 = next in line once a worker frees up).
    Queued {
        /// 0-based depth in the overflow queue at admission.
        position: usize,
    },
}

/// Why a submission was turned away at the door.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// Running + queued jobs already fill `capacity`
    /// (= workers + queue_depth).
    Saturated {
        /// Jobs in flight (running + queued) at submission.
        in_flight: usize,
        /// The admission capacity that was full.
        capacity: usize,
    },
    /// The service is shutting down and accepts no new work.
    Draining,
    /// The spec failed validation; the message names the field.
    Invalid(String),
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::Saturated {
                in_flight,
                capacity,
            } => write!(
                f,
                "saturated: {in_flight} jobs in flight fill the admission capacity of {capacity}"
            ),
            RejectReason::Draining => write!(f, "service is draining"),
            RejectReason::Invalid(msg) => write!(f, "invalid job spec: {msg}"),
        }
    }
}

/// How a completed job was ultimately served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JobOutcome {
    /// Served at the submitted world size (possibly after clean
    /// retries or checkpoint restores — see [`JobOutput::recovery`]).
    #[default]
    Completed,
    /// Permanent rank loss exhausted the retry budget and the spec
    /// allowed degradation: the job was re-admitted onto a world
    /// `ranks_lost` ranks smaller (fresh RCB over surviving capacity)
    /// and finished there. The bits equal the same spec run solo at
    /// the smaller world size.
    Degraded {
        /// Ranks given up relative to the submitted spec.
        ranks_lost: usize,
    },
}

/// Recovery overhead one job accumulated across its attempts — the
/// side channel that keeps lost worlds and modeled retry waits metered
/// ([`TenantMeter::charge_recovery`]) without ever touching the job's
/// [`SimReport`] (recovered bits stay identical to unfaulted bits).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RecoveryCharge {
    /// Worlds consumed outside the final report: cold spawns of
    /// panicked attempts that left no checkpoint, plus respawns for
    /// checkpoint restores.
    pub lost_spawns: u64,
    /// Modeled host seconds of those spawns.
    pub lost_spawn_host_s: f64,
    /// Total modeled exponential backoff charged between attempts.
    pub backoff_s: f64,
    /// Attempts that resumed from a driver-held checkpoint.
    pub recoveries: u32,
}

impl RecoveryCharge {
    /// Fold another job phase's charges in (used when a degraded rerun
    /// inherits the failed full-world attempts' accounting).
    fn merge(&mut self, other: &RecoveryCharge) {
        self.lost_spawns += other.lost_spawns;
        self.lost_spawn_host_s += other.lost_spawn_host_s;
        self.backoff_s += other.backoff_s;
        self.recoveries += other.recoveries;
    }
}

/// Everything a completed job returns to its tenant.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// The id [`SimService::submit`] assigned.
    pub job_id: u64,
    /// The submitting tenant.
    pub tenant: TenantId,
    /// Final mechanical state, global particle order.
    pub final_state: SimState,
    /// The final force evaluation's potentials and gradients, global
    /// particle order.
    pub field: FieldResult,
    /// The run's cumulative report (steps, traffic, clocks, energies).
    pub report: SimReport,
    /// Whether preparation came from the cache.
    pub cache_hit: bool,
    /// Whether the successful attempt ran on a recycled warm world.
    pub world_reused: bool,
    /// Failed attempts before the successful one.
    pub retries: u32,
    /// How the job was ultimately served (full world or degraded).
    pub outcome: JobOutcome,
    /// Recovery overhead accumulated across all attempts.
    pub recovery: RecoveryCharge,
    /// FNV-1a digest of `final_state` (see [`crate::state_digest`]).
    pub state_digest: u64,
    /// FNV-1a digest of `field` (see [`crate::field_digest`]).
    pub field_digest: u64,
    /// The job's trace spans (tenant/job-stamped, sorted, on one
    /// continuous per-job timeline), when [`ServiceConfig::trace`] is
    /// on; empty otherwise. Only the successful attempt's spans are
    /// kept — a panicked attempt's recorder dies with its world.
    pub trace_spans: Vec<Span>,
}

/// Permanent job failure. The taxonomy is deliberately small: invalid
/// specs never reach a worker (they are [`RejectReason::Invalid`] at
/// the door), so a job dies either by its world panicking more times
/// than the retry budget allows, or by blowing its modeled deadline
/// budget on the way to an answer.
#[derive(Debug, Clone)]
pub enum JobError {
    /// Every attempt panicked (a hung rank counts: the epoch watchdog
    /// converts it into a poisoned world); the job's worlds were
    /// discarded and its failure never left this tenant.
    Panicked {
        /// The id [`SimService::submit`] assigned.
        job_id: u64,
        /// The submitting tenant.
        tenant: TenantId,
        /// Attempts made (1 + retries allowed).
        attempts: u32,
        /// The panic payload of the final attempt.
        message: String,
        /// Recovery overhead the failed attempts accumulated — still
        /// charged to the tenant's meter.
        recovery: RecoveryCharge,
    },
    /// The bits were computed, but the modeled spend (final report
    /// clock + retry backoff + lost-attempt spawn time) exceeded the
    /// spec's [`crate::JobSpec::deadline_s`].
    DeadlineExceeded {
        /// The id [`SimService::submit`] assigned.
        job_id: u64,
        /// The submitting tenant.
        tenant: TenantId,
        /// Attempts made to get the answer.
        attempts: u32,
        /// Modeled seconds actually spent.
        spent_s: f64,
        /// The budget that was exceeded.
        deadline_s: f64,
        /// Recovery overhead accumulated — still charged to the meter.
        recovery: RecoveryCharge,
    },
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Panicked {
                job_id,
                tenant,
                attempts,
                message,
                ..
            } => write!(
                f,
                "job {job_id} (tenant {tenant}) panicked on all {attempts} attempts: {message}"
            ),
            JobError::DeadlineExceeded {
                job_id,
                tenant,
                attempts,
                spent_s,
                deadline_s,
                ..
            } => write!(
                f,
                "job {job_id} (tenant {tenant}) blew its deadline: spent {spent_s}s modeled \
                 across {attempts} attempts against a budget of {deadline_s}s"
            ),
        }
    }
}

impl std::error::Error for JobError {}

/// The handle [`SimService::submit`] returns: the admission verdict
/// plus the job's one-shot result channel.
#[derive(Debug)]
pub struct JobTicket {
    /// The id the engine assigned (monotonic in submission order).
    pub job_id: u64,
    /// The submitting tenant.
    pub tenant: TenantId,
    /// How the job was admitted.
    pub admission: Admission,
    rx: mpsc::Receiver<Result<JobOutput, JobError>>,
}

impl JobTicket {
    /// Block until the job finishes.
    ///
    /// # Panics
    ///
    /// Panics if the service was dropped without running the job —
    /// [`SimService::shutdown`] drains the queue, so every admitted
    /// ticket resolves under orderly shutdown.
    pub fn wait(self) -> Result<JobOutput, JobError> {
        self.rx
            .recv()
            .expect("service dropped with the job pending")
    }

    /// Non-blocking poll: `Some` exactly once, when the job has
    /// finished (the engine-shaped analogue of a future's readiness).
    pub fn try_result(&self) -> Option<Result<JobOutput, JobError>> {
        self.rx.try_recv().ok()
    }
}

/// Final accounting returned by [`SimService::shutdown`].
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// Jobs that completed successfully.
    pub jobs_completed: u64,
    /// Jobs that failed permanently.
    pub jobs_failed: u64,
    /// Submissions rejected at admission.
    pub jobs_rejected: u64,
    /// Warm-world pool counters (spawns, reuses, poisoned drops).
    pub pool: PoolStats,
    /// Per-tenant meters.
    pub meters: BTreeMap<TenantId, TenantMeter>,
    /// Prepared-world cache entries at shutdown.
    pub cache_entries: usize,
    /// Cache lookups that hit.
    pub cache_hits: u64,
    /// Cache lookups that missed and built.
    pub cache_misses: u64,
    /// Union of every completed job's trace spans, deterministically
    /// sorted (tenant, then job, then track/time), when
    /// [`ServiceConfig::trace`] is on; empty otherwise.
    pub trace_spans: Vec<Span>,
}

/// A job's deterministic preparation: scenario state, force model, and
/// the initial RCB partition — everything a cache hit skips
/// recomputing. Shared read-only across jobs; rank-resident copies are
/// rebuilt per job, so no job can perturb another's preparation.
struct Prepared {
    state: SimState,
    model: ForceModel,
    part: RcbPartition,
}

/// FIFO-evicting prepared-world cache keyed on [`JobSpec::prep_key`].
struct PrepCache {
    capacity: usize,
    map: HashMap<String, Arc<Prepared>>,
    order: VecDeque<String>,
    hits: u64,
    misses: u64,
}

impl PrepCache {
    fn get_or_build(&mut self, spec: &JobSpec) -> (Arc<Prepared>, bool) {
        let key = spec.prep_key();
        if let Some(p) = self.map.get(&key) {
            self.hits += 1;
            return (Arc::clone(p), true);
        }
        self.misses += 1;
        let (state, model) = spec.scenario.build(spec.n, spec.seed);
        let part = spec.dist.partition(&state.particles, spec.ranks);
        let prep = Arc::new(Prepared { state, model, part });
        if self.capacity == 0 {
            return (prep, false);
        }
        while self.map.len() >= self.capacity {
            let evict = self.order.pop_front().expect("order tracks map");
            self.map.remove(&evict);
        }
        self.map.insert(key.clone(), Arc::clone(&prep));
        self.order.push_back(key);
        (prep, false)
    }
}

struct QueuedJob {
    job_id: u64,
    tenant: TenantId,
    spec: JobSpec,
    /// Queue depth at admission: 0 for [`Admission::Immediate`],
    /// `position + 1` for [`Admission::Queued`] — what the tenant's
    /// queue-wait histogram records.
    queue_pos: usize,
    tx: mpsc::Sender<Result<JobOutput, JobError>>,
}

/// Scheduler state behind the single queue mutex — admission decisions
/// read and mutate only this, which is what makes them deterministic
/// given arrival order (exactly so under [`SimService::pause`]).
struct SchedState {
    queue: VecDeque<QueuedJob>,
    running: usize,
    draining: bool,
    paused: bool,
    next_job_id: u64,
    jobs_completed: u64,
    jobs_failed: u64,
    jobs_rejected: u64,
}

struct Shared {
    cfg: ServiceConfig,
    sched: Mutex<SchedState>,
    work: Condvar,
    pool: SessionPool,
    cache: Mutex<PrepCache>,
    meters: Mutex<BTreeMap<TenantId, TenantMeter>>,
    /// Completed jobs' spans, appended in completion order and sorted
    /// once at shutdown (the sort key makes the union deterministic
    /// regardless of worker interleaving).
    trace: Mutex<Vec<Span>>,
}

/// The many-tenant simulation service. Construct with
/// [`SimService::start`], submit with [`SimService::submit`], finish
/// with [`SimService::shutdown`] (graceful drain: queued jobs
/// complete, new submissions are rejected as [`RejectReason::Draining`]).
pub struct SimService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl SimService {
    /// Spin up the worker threads (idle until work arrives — warm
    /// worlds spawn lazily at first checkout).
    ///
    /// # Panics
    ///
    /// Panics if `cfg.workers == 0`.
    pub fn start(cfg: ServiceConfig) -> Self {
        assert!(cfg.workers >= 1, "need at least one worker");
        let shared = Arc::new(Shared {
            cfg,
            sched: Mutex::new(SchedState {
                queue: VecDeque::new(),
                running: 0,
                draining: false,
                paused: cfg.start_paused,
                next_job_id: 0,
                jobs_completed: 0,
                jobs_failed: 0,
                jobs_rejected: 0,
            }),
            work: Condvar::new(),
            pool: SessionPool::new(cfg.workers),
            cache: Mutex::new(PrepCache {
                capacity: cfg.cache_capacity,
                map: HashMap::new(),
                order: VecDeque::new(),
                hits: 0,
                misses: 0,
            }),
            meters: Mutex::new(BTreeMap::new()),
            trace: Mutex::new(Vec::new()),
        });
        let workers = (0..cfg.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("bltc-service-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// Admit, queue, or reject a job. Admission is decided under one
    /// lock from the in-flight count (`running + queued`):
    /// `< workers` admits immediately, `< workers + queue_depth`
    /// queues (with its overflow position), anything beyond rejects as
    /// saturated with the counts that filled it.
    pub fn submit(&self, tenant: TenantId, spec: JobSpec) -> Result<JobTicket, RejectReason> {
        let reject = |reason: RejectReason| {
            self.shared.sched.lock().unwrap().jobs_rejected += 1;
            self.shared
                .meters
                .lock()
                .unwrap()
                .entry(tenant)
                .or_default()
                .jobs_rejected += 1;
            Err(reason)
        };
        if let Err(msg) = spec.validate() {
            return reject(RejectReason::Invalid(msg));
        }
        let mut st = self.shared.sched.lock().unwrap();
        if st.draining {
            drop(st);
            return reject(RejectReason::Draining);
        }
        let in_flight = st.queue.len() + st.running;
        let capacity = self.shared.cfg.workers + self.shared.cfg.queue_depth;
        if in_flight >= capacity {
            drop(st);
            return reject(RejectReason::Saturated {
                in_flight,
                capacity,
            });
        }
        let admission = if in_flight < self.shared.cfg.workers {
            Admission::Immediate
        } else {
            Admission::Queued {
                position: in_flight - self.shared.cfg.workers,
            }
        };
        let job_id = st.next_job_id;
        st.next_job_id += 1;
        let queue_pos = match admission {
            Admission::Immediate => 0,
            Admission::Queued { position } => position + 1,
        };
        let (tx, rx) = mpsc::channel();
        st.queue.push_back(QueuedJob {
            job_id,
            tenant,
            spec,
            queue_pos,
            tx,
        });
        drop(st);
        self.shared.work.notify_one();
        self.shared
            .meters
            .lock()
            .unwrap()
            .entry(tenant)
            .or_default()
            .jobs_admitted += 1;
        Ok(JobTicket {
            job_id,
            tenant,
            admission,
            rx,
        })
    }

    /// Gate dispatch: admitted jobs queue but no worker starts one
    /// until [`SimService::resume`]. While paused, admission verdicts
    /// depend only on submission order.
    pub fn pause(&self) {
        self.shared.sched.lock().unwrap().paused = true;
    }

    /// Re-open dispatch after [`SimService::pause`].
    pub fn resume(&self) {
        self.shared.sched.lock().unwrap().paused = false;
        self.shared.work.notify_all();
    }

    /// Snapshot of the per-tenant meters so far.
    pub fn meters(&self) -> BTreeMap<TenantId, TenantMeter> {
        self.shared.meters.lock().unwrap().clone()
    }

    /// Snapshot of the warm-world pool counters.
    pub fn pool_stats(&self) -> PoolStats {
        self.shared.pool.stats()
    }

    /// Graceful drain: stop admitting, let the workers finish every
    /// queued job, join them, drop the warm worlds, and return the
    /// final accounting. Every admitted [`JobTicket`] resolves before
    /// this returns.
    pub fn shutdown(mut self) -> ServiceStats {
        self.begin_drain();
        for w in self.workers.drain(..) {
            w.join().expect("worker thread panicked outside a job");
        }
        self.shared.pool.drain();
        let st = self.shared.sched.lock().unwrap();
        let cache = self.shared.cache.lock().unwrap();
        let mut trace_spans = std::mem::take(&mut *self.shared.trace.lock().unwrap());
        sort_spans(&mut trace_spans);
        ServiceStats {
            jobs_completed: st.jobs_completed,
            jobs_failed: st.jobs_failed,
            jobs_rejected: st.jobs_rejected,
            pool: self.shared.pool.stats(),
            meters: self.shared.meters.lock().unwrap().clone(),
            cache_entries: cache.map.len(),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            trace_spans,
        }
    }

    fn begin_drain(&self) {
        let mut st = self.shared.sched.lock().unwrap();
        st.draining = true;
        st.paused = false; // a paused drain would never finish
        drop(st);
        self.shared.work.notify_all();
    }
}

impl Drop for SimService {
    /// Dropping without [`SimService::shutdown`] still drains
    /// gracefully (queued jobs complete, workers join) so no admitted
    /// ticket is ever left dangling.
    fn drop(&mut self) {
        if self.workers.is_empty() {
            return; // shutdown already ran
        }
        self.begin_drain();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.shared.pool.drain();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut st = shared.sched.lock().unwrap();
            loop {
                if !st.paused {
                    if let Some(job) = st.queue.pop_front() {
                        st.running += 1;
                        break Some(job);
                    }
                    if st.draining {
                        break None;
                    }
                }
                st = shared.work.wait(st).unwrap();
            }
        };
        let Some(job) = job else {
            // Wake siblings so they observe the drained queue too.
            shared.work.notify_all();
            return;
        };

        let result = run_job(shared, &job);

        {
            let mut meters = shared.meters.lock().unwrap();
            let meter = meters.entry(job.tenant).or_default();
            match &result {
                Ok(out) => {
                    meter.absorb(
                        &out.report,
                        out.world_reused,
                        out.cache_hit,
                        out.retries,
                        job.queue_pos,
                    );
                    meter.charge_recovery(
                        out.recovery.lost_spawns,
                        out.recovery.lost_spawn_host_s,
                        out.recovery.backoff_s,
                        out.recovery.recoveries,
                    );
                    if matches!(out.outcome, JobOutcome::Degraded { .. }) {
                        meter.degraded_jobs += 1;
                    }
                }
                Err(
                    JobError::Panicked {
                        attempts, recovery, ..
                    }
                    | JobError::DeadlineExceeded {
                        attempts, recovery, ..
                    },
                ) => {
                    meter.jobs_failed += 1;
                    meter.retries += attempts.saturating_sub(1) as u64;
                    // A panicked attempt's world spawn is still the
                    // tenant's spend — the dying report hid it, the
                    // recovery side channel does not.
                    meter.charge_recovery(
                        recovery.lost_spawns,
                        recovery.lost_spawn_host_s,
                        recovery.backoff_s,
                        recovery.recoveries,
                    );
                }
            }
        }
        if let Ok(out) = &result {
            if !out.trace_spans.is_empty() {
                shared
                    .trace
                    .lock()
                    .unwrap()
                    .extend(out.trace_spans.iter().copied());
            }
        }
        {
            let mut st = shared.sched.lock().unwrap();
            st.running -= 1;
            match &result {
                Ok(_) => st.jobs_completed += 1,
                Err(_) => st.jobs_failed += 1,
            }
        }
        // The tenant may have dropped its ticket; that is its business.
        let _ = job.tx.send(result);
        shared.work.notify_all();
    }
}

/// Execute one job end to end: run it resiliently at the submitted
/// world size, fall back to a degraded smaller world on permanent rank
/// loss when the spec allows it, then enforce the modeled deadline
/// budget on whatever came out.
fn run_job(shared: &Shared, job: &QueuedJob) -> Result<JobOutput, JobError> {
    let spec = job.spec;
    let (prep, cache_hit) = shared.cache.lock().unwrap().get_or_build(&spec);
    let out = run_resilient(shared, job, &spec, &prep, cache_hit, JobOutcome::Completed);
    // Graceful degradation: the submitted world size cannot survive a
    // rank loss, so re-admit onto one rank fewer with a fresh RCB over
    // the surviving capacity. The fault is dropped (the lost rank is
    // simply not part of the new world) and any full-world checkpoint is
    // useless — the degraded run restarts from step zero and must equal
    // the same spec run solo at the smaller size. It is admitted like
    // any job: a world one rank smaller that no longer fills whole nodes
    // is no rerun at all.
    let mut degraded = spec;
    degraded.ranks = spec.ranks.saturating_sub(1);
    degraded.fault = Fault::None;
    degraded.checkpoint_every = None;
    let out = match out {
        Ok(out) => Ok(out),
        Err(JobError::Panicked {
            attempts, recovery, ..
        }) if matches!(spec.fault, Fault::RankLossAtStep(_))
            && spec.allow_degraded
            && degraded.validate().is_ok() =>
        {
            let (dprep, dcache_hit) = shared.cache.lock().unwrap().get_or_build(&degraded);
            run_resilient(
                shared,
                job,
                &degraded,
                &dprep,
                dcache_hit,
                JobOutcome::Degraded { ranks_lost: 1 },
            )
            .map(|mut out| {
                // The failed full-world attempts stay on the bill.
                out.retries += attempts;
                out.recovery.merge(&recovery);
                out
            })
            .map_err(|err| err.merged_with(attempts, &recovery))
        }
        Err(err) => Err(err),
    }?;
    if let Some(deadline) = spec.deadline_s {
        let spent = out.report.total_s + out.recovery.backoff_s + out.recovery.lost_spawn_host_s;
        if spent > deadline {
            return Err(JobError::DeadlineExceeded {
                job_id: job.job_id,
                tenant: job.tenant,
                attempts: out.retries + 1,
                spent_s: spent,
                deadline_s: deadline,
                recovery: out.recovery,
            });
        }
    }
    Ok(out)
}

impl JobError {
    /// Fold an earlier phase's attempt count and recovery charges into
    /// this error (degraded rerun failing after full-world attempts).
    fn merged_with(mut self, extra_attempts: u32, extra: &RecoveryCharge) -> Self {
        match &mut self {
            JobError::Panicked {
                attempts, recovery, ..
            }
            | JobError::DeadlineExceeded {
                attempts, recovery, ..
            } => {
                *attempts += extra_attempts;
                recovery.merge(extra);
            }
        }
        self
    }
}

/// Run one spec to completion at its submitted world size: check a
/// warm world out, run the integrator, check the world back in —
/// retrying when an attempt panics, up to the budget. Retries restore
/// the latest driver-held checkpoint when the spec keeps one,
/// otherwise restart from scratch; either way the surviving bits are
/// identical to the fault-free run's.
fn run_resilient(
    shared: &Shared,
    job: &QueuedJob,
    spec: &JobSpec,
    prep: &Prepared,
    cache_hit: bool,
    outcome: JobOutcome,
) -> Result<JobOutput, JobError> {
    let mut attempts = 0u32;
    let mut checkpoint: Option<Checkpoint> = None;
    let mut recovery = RecoveryCharge::default();
    loop {
        attempts += 1;
        let fault_step = match spec.fault {
            Fault::None | Fault::HangAtStep(_) => None,
            Fault::PanicAtStep(s) | Fault::RankLossAtStep(s) => Some(s),
            Fault::PanicOnceAtStep(s) => (attempts == 1).then_some(s),
        };
        let hang_step = match spec.fault {
            Fault::HangAtStep(s) => (attempts == 1).then_some(s),
            _ => None,
        };
        // Reuse-only checkout: on a miss the integrator spawns (and
        // charges) the fresh world itself, exactly as a solo run
        // would — keeping the job's report bitwise identical to solo.
        let session = shared.pool.try_checkout(spec.ranks);
        let world_reused = session.is_some();
        // A restore's replacement world never reaches the job's report
        // (the report continues from the checkpoint untouched), so its
        // spawn is charged here, up front — the charge must survive
        // even if this attempt dies too.
        let restoring = checkpoint.is_some();
        if restoring {
            recovery.recoveries += 1;
            if !world_reused {
                recovery.lost_spawns += 1;
                recovery.lost_spawn_host_s +=
                    spec.dist.host.world_spawn_seconds(spec.n, spec.ranks);
            }
        }
        // One recorder per attempt: a panicked attempt's spans die with
        // its world, so the surviving trace describes exactly the run
        // that produced the returned bits.
        let tracer = shared
            .cfg
            .trace
            .then(|| Arc::new(TraceRecorder::for_job(job.tenant, job.job_id)));
        let resume = checkpoint.clone();
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            run_attempt(
                spec,
                prep,
                session,
                resume,
                &mut checkpoint,
                fault_step,
                hang_step,
                shared.cfg.epoch_watchdog,
                tracer.clone(),
            )
        }));
        match attempt {
            Ok((final_state, field, report, session)) => {
                // A healthy world goes back to serve the next tenant;
                // checkin refuses poisoned ones as a second line of
                // defense (a panicked attempt never even gets here —
                // its world was consumed by the unwind).
                shared.pool.checkin(session);
                let trace_spans = tracer
                    .map(|tr| {
                        // The job envelope: one span covering the whole
                        // per-job timeline, billed at the modeled
                        // end-to-end clock.
                        tr.push_absolute(
                            Span::new(Track::Driver, "job", 0.0, tr.cursor_s())
                                .phase(Phase::Job)
                                .billed(report.total_s),
                        );
                        tr.take_spans()
                    })
                    .unwrap_or_default();
                return Ok(JobOutput {
                    job_id: job.job_id,
                    tenant: job.tenant,
                    state_digest: state_digest(&final_state),
                    field_digest: field_digest(&field),
                    final_state,
                    field,
                    report,
                    cache_hit,
                    world_reused,
                    retries: attempts - 1,
                    outcome,
                    recovery,
                    trace_spans,
                });
            }
            Err(payload) => {
                // A scratch attempt that died without leaving a
                // checkpoint takes its whole report down with it —
                // including the cold spawn it charged — so the spawn
                // moves to the recovery side channel. (With a
                // checkpoint, the spawn lives on in the checkpoint's
                // report and reaches the final bill through restore.)
                if !restoring && checkpoint.is_none() && !world_reused {
                    recovery.lost_spawns += 1;
                    recovery.lost_spawn_host_s +=
                        spec.dist.host.world_spawn_seconds(spec.n, spec.ranks);
                }
                if attempts > shared.cfg.max_retries {
                    return Err(JobError::Panicked {
                        job_id: job.job_id,
                        tenant: job.tenant,
                        attempts,
                        message: panic_message(payload.as_ref()),
                        recovery,
                    });
                }
                // Deterministic exponential backoff before the retry —
                // modeled seconds against the deadline budget, not a
                // wall-clock sleep.
                recovery.backoff_s += shared.cfg.backoff_base_s * 2f64.powi((attempts - 1) as i32);
            }
        }
    }
}

/// One attempt on one world. Returns the world for re-pooling; a panic
/// anywhere in here unwinds through the integrator, dropping the
/// poisoned world (its rank threads join) without touching the pool.
/// Checkpoints taken on the spec's cadence land in `ck_sink`, which
/// outlives the attempt — that is what a retry restores.
#[allow(clippy::too_many_arguments)]
fn run_attempt(
    spec: &JobSpec,
    prep: &Prepared,
    session: Option<Session>,
    resume: Option<Checkpoint>,
    ck_sink: &mut Option<Checkpoint>,
    fault_step: Option<u64>,
    hang_step: Option<u64>,
    watchdog: Duration,
    tracer: Option<Arc<TraceRecorder>>,
) -> (SimState, FieldResult, SimReport, Session) {
    let (mut integ, start) = match resume {
        Some(ck) => {
            // Restore skips the launch evaluation entirely — the
            // checkpoint carries accelerations — and the report
            // continues from the checkpoint, so the recovered run's
            // bits and clocks equal the unfaulted run's.
            let (integ, _respawn_charged_by_caller) =
                PersistentIntegrator::restore(spec.sim_config(), &prep.model, &ck, session);
            (integ, ck.step())
        }
        None => (
            PersistentIntegrator::with_world(
                spec.sim_config(),
                &prep.state,
                &prep.model,
                WorldReuse {
                    session,
                    partition: Some(prep.part.clone()),
                },
            ),
            0,
        ),
    };
    integ.set_tracer(tracer);
    for step in (start + 1)..=spec.steps {
        if fault_step == Some(step) {
            // The injected tenant bug: one rank dies mid-collective.
            // The poison machinery fails the peers' next collective
            // fast and re-raises the payload here on the driver.
            integ.field_session().run_epoch(|comm, _slot| {
                if comm.rank() == 0 {
                    panic!("injected tenant fault");
                }
                comm.barrier();
            });
        }
        if hang_step == Some(step) {
            // The injected infrastructure fault: one rank parks inside
            // its epoch and never reports. The watchdog deadline
            // converts the hang into a poisoned world, so the driver
            // unwinds with [`HangReleased`] instead of deadlocking.
            let schedule = ChaosSchedule::new(
                vec![FaultSpec {
                    epoch: integ.epochs_run(),
                    rank: 0,
                    kind: FaultKind::Hang,
                    once: true,
                }],
                spec.ranks,
            );
            let fs = integ.field_session();
            fs.set_chaos(Some(schedule));
            fs.set_deadline(Some(watchdog));
            fs.run_epoch(|comm, _slot| comm.barrier());
            unreachable!("the epoch watchdog must poison the hung world");
        }
        integ.step();
        if let Some(every) = spec.checkpoint_every {
            // No point checkpointing the final state we are about to
            // return. The snapshot epoch is bitwise invisible.
            if step % every == 0 && step < spec.steps {
                *ck_sink = Some(integ.checkpoint());
            }
        }
    }
    let field = integ.last_field();
    let final_state = integ.snapshot();
    let report = integ.report().clone();
    (final_state, field, report, integ.into_session())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Scenario;
    use bltc_core::config::BltcParams;
    use bltc_dist::DistConfig;

    fn spec(n: usize, seed: u64, ranks: usize, steps: u64) -> JobSpec {
        JobSpec {
            scenario: Scenario::Plummer {
                a: 1.0,
                softening: 0.05,
            },
            n,
            seed,
            ranks,
            steps,
            dt: 1e-3,
            repartition_every: 2,
            dist: DistConfig::comet(BltcParams::new(0.8, 3, 40, 40)),
            fault: Fault::None,
            checkpoint_every: None,
            deadline_s: None,
            allow_degraded: false,
        }
    }

    #[test]
    fn one_job_round_trips() {
        let svc = SimService::start(ServiceConfig::with_workers(1));
        let t = svc.submit(7, spec(90, 3, 2, 2)).expect("admitted");
        assert_eq!(t.admission, Admission::Immediate);
        let out = t.wait().expect("completed");
        assert_eq!(out.tenant, 7);
        assert_eq!(out.report.steps, 2);
        assert_eq!(out.final_state.len(), 90);
        assert!(!out.cache_hit, "first submission must build");
        let stats = svc.shutdown();
        assert_eq!(stats.jobs_completed, 1);
        assert_eq!(stats.meters[&7].jobs_completed, 1);
    }

    #[test]
    fn repeat_submission_hits_the_cache_and_reuses_the_world() {
        let svc = SimService::start(ServiceConfig::with_workers(1));
        let a = svc.submit(1, spec(90, 3, 2, 1)).unwrap().wait().unwrap();
        let b = svc.submit(1, spec(90, 3, 2, 1)).unwrap().wait().unwrap();
        assert!(!a.cache_hit && !a.world_reused);
        assert!(b.cache_hit, "identical setup must hit the cache");
        assert!(b.world_reused, "sequential jobs share the warm world");
        assert_eq!(a.report.world_spawns, 1, "the miss charged its spawn");
        assert_eq!(b.report.world_spawns, 0, "reuse skips the spawn");
        // And reuse is invisible to the bits.
        assert_eq!(a.state_digest, b.state_digest);
        assert_eq!(a.field_digest, b.field_digest);
        let stats = svc.shutdown();
        assert_eq!(stats.pool.spawned, 1);
        assert_eq!(stats.cache_hits, 1);
    }

    #[test]
    fn invalid_specs_are_rejected_at_the_door() {
        let svc = SimService::start(ServiceConfig::with_workers(1));
        let mut bad = spec(10, 1, 2, 1);
        bad.ranks = 99;
        match svc.submit(5, bad) {
            Err(RejectReason::Invalid(msg)) => assert!(msg.contains("more ranks")),
            other => panic!("expected Invalid, got {other:?}"),
        }
        let stats = svc.shutdown();
        assert_eq!(stats.jobs_rejected, 1);
        assert_eq!(stats.meters[&5].jobs_rejected, 1);
    }

    #[test]
    fn saturation_queues_then_rejects_deterministically() {
        let cfg = ServiceConfig {
            workers: 2,
            queue_depth: 2,
            cache_capacity: 4,
            max_retries: 0,
            start_paused: true,
            ..ServiceConfig::with_workers(2)
        };
        let svc = SimService::start(cfg);
        let s = spec(60, 1, 2, 1);
        let mut tickets = Vec::new();
        for _ in 0..4 {
            tickets.push(svc.submit(1, s).expect("within capacity"));
        }
        assert_eq!(tickets[0].admission, Admission::Immediate);
        assert_eq!(tickets[1].admission, Admission::Immediate);
        assert_eq!(tickets[2].admission, Admission::Queued { position: 0 });
        assert_eq!(tickets[3].admission, Admission::Queued { position: 1 });
        match svc.submit(1, s) {
            Err(RejectReason::Saturated {
                in_flight,
                capacity,
            }) => {
                assert_eq!(in_flight, 4);
                assert_eq!(capacity, 4);
            }
            other => panic!("expected Saturated, got {other:?}"),
        }
        svc.resume();
        for t in tickets {
            t.wait().expect("queued jobs complete after resume");
        }
        let stats = svc.shutdown();
        assert_eq!(stats.jobs_completed, 4);
        assert_eq!(stats.jobs_rejected, 1);
    }

    #[test]
    fn draining_rejects_new_work_but_finishes_queued() {
        let svc = SimService::start(ServiceConfig {
            start_paused: true,
            ..ServiceConfig::with_workers(1)
        });
        let t = svc.submit(1, spec(60, 1, 2, 1)).expect("admitted");
        svc.resume();
        let out = t.wait().expect("drain completes queued work");
        assert_eq!(out.report.steps, 1);
        let stats = svc.shutdown();
        assert_eq!(stats.jobs_completed, 1);
    }

    #[test]
    fn tracing_is_job_scoped_and_invisible_to_results() {
        let svc = SimService::start(ServiceConfig {
            trace: true,
            ..ServiceConfig::with_workers(1)
        });
        let out = svc.submit(3, spec(90, 3, 2, 2)).unwrap().wait().unwrap();
        assert!(!out.trace_spans.is_empty(), "traced job must carry spans");
        for s in &out.trace_spans {
            assert_eq!((s.tenant, s.job), (Some(3), Some(out.job_id)));
        }
        let stats = svc.shutdown();
        assert_eq!(stats.trace_spans.len(), out.trace_spans.len());
        assert_eq!(stats.trace_spans, out.trace_spans, "same sorted spans");

        // Invisible: the identical spec untraced yields the same bits.
        let svc = SimService::start(ServiceConfig::with_workers(1));
        let plain = svc.submit(4, spec(90, 3, 2, 2)).unwrap().wait().unwrap();
        assert!(plain.trace_spans.is_empty());
        assert_eq!(out.state_digest, plain.state_digest);
        assert_eq!(out.field_digest, plain.field_digest);
        assert!(svc.shutdown().trace_spans.is_empty());
    }

    #[test]
    fn drop_without_shutdown_still_drains() {
        let svc = SimService::start(ServiceConfig::with_workers(1));
        let t = svc.submit(1, spec(60, 1, 2, 1)).expect("admitted");
        drop(svc);
        t.wait().expect("drop drains gracefully");
    }
}
