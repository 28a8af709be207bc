//! # bltc-service — a many-tenant simulation job engine
//!
//! The layers below serve exactly one caller per run. This crate is
//! the multiplexing layer the ROADMAP's "millions of users" north star
//! asks for: tenants submit [`JobSpec`]s and a scheduler dispatches
//! them onto a bounded pool of **warm persistent worlds**
//! ([`mpi_sim::SessionPool`] + [`bltc_sim::PersistentIntegrator`]),
//! amortizing world spawns across tenants the way the persistent
//! session amortized them across steps.
//!
//! ## Job lifecycle
//!
//! 1. **Admission** ([`SimService::submit`]) — validate, then decide
//!    under one lock from the in-flight count: a free worker slot
//!    admits [`Admission::Immediate`]; a full worker set queues up to
//!    `queue_depth` ([`Admission::Queued`]); beyond that the
//!    submission is rejected with the reason
//!    ([`RejectReason::Saturated`] / [`RejectReason::Draining`] /
//!    [`RejectReason::Invalid`]).
//! 2. **Preparation** — the deterministic setup (scenario build +
//!    initial RCB partition) is cached keyed on
//!    [`JobSpec::prep_key`] = `(scenario, N, seed, ranks, dist)`;
//!    repeat submissions skip it entirely.
//! 3. **Execution** — the worker checks a warm world out of the pool
//!    (spawning only on a miss), rebuilds the rank-resident state from
//!    the job's own preparation, and drives velocity-Verlet epochs.
//!    Worlds are exclusive while checked out and carry no state
//!    between tenants, so every tenant's potentials, forces,
//!    trajectory, and per-epoch traffic are **bitwise identical** to
//!    the same spec run solo — the property `tests/service.rs` pins.
//! 4. **Completion** — the final state, field, [`bltc_sim::SimReport`],
//!    and digests return through the [`JobTicket`]; the tenant's
//!    [`TenantMeter`] absorbs the report's drained traffic matrices
//!    and modeled clocks.
//!
//! A rank panic poisons only the panicking job's world. Jobs run in
//! the stack's one recovery loop, [`bltc_sim::run_with_retries`], as
//! `bltc_chaos::run_supervised` does: it catches the panic, discards
//! the world (never re-pooled) and retries on a fresh one up to
//! `max_retries`; peers never notice. Its records bill the job's
//! [`RecoveryCharge`], whose `recoveries` counts checkpoint resumes
//! ([`JobOutput::retries`] counts every failed attempt).
//! [`SimService::shutdown`] drains gracefully: queued jobs complete,
//! new work is rejected, workers join, warm worlds drop.
//!
//! ```
//! use bltc_core::config::BltcParams;
//! use bltc_dist::DistConfig;
//! use bltc_service::{Fault, JobSpec, Scenario, ServiceConfig, SimService};
//!
//! let svc = SimService::start(ServiceConfig::with_workers(2));
//! let spec = JobSpec {
//!     scenario: Scenario::Plummer { a: 1.0, softening: 0.05 },
//!     n: 96,
//!     seed: 11,
//!     ranks: 2,
//!     steps: 2,
//!     dt: 1e-3,
//!     repartition_every: 2,
//!     dist: DistConfig::comet(BltcParams::new(0.8, 3, 40, 40)),
//!     fault: Fault::None,
//!     checkpoint_every: None,
//!     deadline_s: None,
//!     allow_degraded: false,
//! };
//! let first = svc.submit(1, spec).expect("admitted").wait().expect("ran");
//! let again = svc.submit(2, spec).expect("admitted").wait().expect("ran");
//! // Different tenants, same spec: bitwise identical results, and the
//! // repeat skipped both the scenario build and the world spawn.
//! assert_eq!(first.state_digest, again.state_digest);
//! assert!(again.cache_hit);
//! let stats = svc.shutdown();
//! assert_eq!(stats.jobs_completed, 2);
//! ```

pub mod digest;
pub mod engine;
pub mod meter;
pub mod spec;

pub use digest::{field_digest, fnv1a, state_digest};
pub use engine::{
    Admission, JobError, JobOutcome, JobOutput, JobTicket, RecoveryCharge, RejectReason,
    ServiceConfig, ServiceStats, SimService, TenantId,
};
pub use meter::TenantMeter;
pub use spec::{Fault, JobSpec, KernelSpec, Scenario};
