//! # bltc-chaos — deterministic chaos engineering for the BLTC stack
//!
//! Scheduled, reproducible failure: a [`FaultPlan`] describes *which
//! rank misbehaves how at which epoch* (panic, hang, transient RMA
//! failure with bounded retry, straggler host clock, degraded NIC
//! link), compiles to an [`mpi_sim::ChaosSchedule`] injected at the
//! SPMD runtime layer, and [`run_supervised`] runs it in the stack's
//! one recovery loop, [`bltc_sim::run_with_retries`], which the service
//! shares: checkpoint on a cadence, restore onto a fresh world on world
//! poison, exponential backoff between attempts, and an epoch watchdog
//! that turns a hung rank into a poisoned world. Its
//! [`RecoveryMetrics::recoveries`] counts every retried failure.
//!
//! The contract that makes every failure scenario a regression test
//! (the IPN-V lesson — scheduled fault timelines over random chaos):
//!
//! - **Recovered ≡ unfaulted.** A faulted-then-recovered trajectory —
//!   final state, field, energies, traffic matrices, the entire
//!   [`bltc_sim::SimReport`] — is **bitwise identical** to the run
//!   whose plan never fired. Checkpoints carry the cached
//!   accelerations, so restore never re-evaluates forces; recovery
//!   overhead (backoff, replacement-world spawns) is surfaced only in
//!   [`RecoveryMetrics`] and on the `chaos` trace track, never in the
//!   report.
//! - **Disabled ≡ absent.** An empty plan — or no plan at all — is
//!   bitwise invisible to everything, including the modeled clocks
//!   (the same invariant tracing keeps).
//!
//! ```
//! use bltc_chaos::{run_supervised, FaultPlan, SupervisorConfig};
//! use bltc_core::config::BltcParams;
//! use bltc_dist::DistConfig;
//! use bltc_sim::scenario::plummer_sphere;
//! use bltc_sim::SimConfig;
//!
//! let (state, model) = plummer_sphere(48, 1.0, 0.05, 7);
//! let cfg = SimConfig::new(DistConfig::comet(BltcParams::new(0.8, 3, 24, 24)), 2, 1e-3);
//! // Rank 1 crashes at epoch 5; checkpoint every 2 steps.
//! let plan = FaultPlan::new(2).panic_at(5, 1);
//! let opts = SupervisorConfig {
//!     checkpoint_every: Some(2),
//!     ..SupervisorConfig::default()
//! };
//! let out = run_supervised(cfg, &state, &model, 4, &plan, &opts).unwrap();
//! assert_eq!(out.recovery.recoveries, 1);
//! // Bitwise equal to the run whose plan never fired:
//! let clean = run_supervised(cfg, &state, &model, 4, &FaultPlan::new(2),
//!     &SupervisorConfig::default()).unwrap();
//! assert_eq!(out.final_state.particles.x, clean.final_state.particles.x);
//! assert_eq!(out.report.final_energy, clean.report.final_energy);
//! ```

mod plan;
mod supervisor;

pub use mpi_sim::{ChaosEvent, ChaosSchedule, FaultKind, FaultSpec, HangReleased};
pub use plan::FaultPlan;
pub use supervisor::{
    run_supervised, RecoveryEpisode, RecoveryMetrics, SupervisedRun, SupervisorConfig,
    SupervisorError,
};
