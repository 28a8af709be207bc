//! # bltc — GPU-Accelerated Barycentric Lagrange Treecode
//!
//! Facade crate re-exporting the full reproduction workspace of
//! Vaughn, Wilson & Krasny, *A GPU-Accelerated Barycentric Lagrange
//! Treecode* (2020, arXiv:2003.01836).
//!
//! - [`core`] — the treecode itself: barycentric Lagrange interpolation at
//!   Chebyshev points, source octree / target batches, MAC, modified
//!   charges, CPU engines.
//! - [`gpu`] — the treecode mapped onto a simulated GPU ([`gpu_sim`]):
//!   batch–cluster direct-sum and approximation kernels, two-phase
//!   precompute kernels, asynchronous streams.
//! - [`dist`] — the distributed pipeline: RCB domain decomposition
//!   ([`rcb_partition`]), locally essential trees built over passive-target
//!   RMA ([`mpi_sim`]). One door, `dist::run_distributed_on`, runs
//!   every pass distributed: potentials with a kernel, and force
//!   fields — potentials + 3-component gradients — with a gradient
//!   kernel; see `examples/distributed_forces.rs`.
//! - [`sim`] — distributed time integration on top of the field
//!   pipeline: one velocity-Verlet integrator on a persistent rank
//!   session (state resident on the ranks, RCB repartition by
//!   rank-to-rank migration on a cadence), per-step energy monitoring,
//!   and cumulative phase/traffic accounting; ready-made Plummer-sphere
//!   and screened-electrolyte scenarios. See
//!   `examples/distributed_dynamics.rs`.
//! - [`trace`] — deterministic tracing and metrics: modeled-clock spans
//!   over named resource tracks, Chrome trace-event (Perfetto) export,
//!   flame summaries, and fixed-bucket histograms. Tracing is bitwise
//!   invisible to every computed result. See
//!   `examples/trace_timeline.rs`.
//! - [`chaos`] — deterministic chaos engineering: seeded fault plans
//!   injected at the [`mpi_sim`] layer (rank panics, hangs, transient
//!   RMA retries, stragglers, degraded links), checkpoint/restart
//!   supervision with exponential backoff, and MTTR accounting. A
//!   faulted-then-recovered trajectory is bitwise identical to the
//!   unfaulted run.
//!
//! ## Quickstart
//!
//! ```
//! use bltc::core::prelude::*;
//!
//! let particles = ParticleSet::random_cube(2_000, 42);
//! let params = BltcParams::new(0.7, 6, 200, 200);
//! let engine = SerialEngine::new(params);
//! let result = engine.compute(&particles, &particles, &Coulomb);
//! let exact = direct_sum(&particles, &particles, &Coulomb);
//! let err = relative_l2_error(&exact, &result.potentials);
//! assert!(err < 1e-3);
//! ```

pub use bltc_chaos as chaos;
pub use bltc_core as core;
pub use bltc_dist as dist;
pub use bltc_gpu as gpu;
pub use bltc_service as service;
pub use bltc_sim as sim;
pub use bltc_trace as trace;
pub use gpu_sim;
pub use mpi_sim;
pub use rcb as rcb_partition;
