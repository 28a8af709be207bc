//! # bltc-sim — distributed time integration on the BLTC
//!
//! The dynamics layer the treecode exists to power: a velocity-Verlet
//! (leapfrog) integrator, [`PersistentIntegrator`], that drives the
//! distributed force evaluation once per step, so the MD/astrophysics
//! workloads the source paper targets — gravitating Plummer spheres,
//! screened-electrolyte boxes — can actually be integrated over time
//! across simulated ranks.
//!
//! Like the paper's ranks, the integrator is one long-lived job: it
//! launches one [`bltc_dist::FieldSession`] (the run's only world
//! spawn) and keeps positions, velocities, masses and cached
//! accelerations **resident on the ranks**. Each step is three epochs
//! against those live ranks:
//!
//! 1. **half-kick + drift** — velocities advance half a step on the
//!    cached accelerations, positions a full step,
//! 2. **repartition (on cadence)** — every
//!    [`SimConfig::repartition_every`] steps the ranks gather
//!    coordinates rank-to-rank, recompute the RCB decomposition
//!    redundantly (its host cost charged via
//!    [`bltc_dist::HostModel::repartition_seconds`]) and migrate only
//!    the particles whose owner changed; between cadence boundaries the
//!    stale partition is reused — still correct, just less compact,
//!    which surfaces honestly as extra LET traffic,
//! 3. **distributed field evaluation + half-kick** — per-rank trees,
//!    windows, and LETs rebuilt from the new positions
//!    ([`bltc_dist::eval_rank`]), potentials *and* gradients evaluated
//!    on the simulated GPUs, velocities completing the step on the new
//!    accelerations, and the energies reduced.
//!
//! Because the field evaluation returns potentials alongside
//! gradients, total energy is monitored every step at **zero** extra
//! cost, and every step's RMA traffic is reconciled exactly against
//! the runtime [`mpi_sim::runtime::TrafficMatrix`]; the cumulative
//! [`SimReport`] accumulates per-phase clocks and per-pair traffic
//! across the whole run. The driver receives [`StepReport`]s and, on
//! request, an explicit [`PersistentIntegrator::snapshot`].
//!
//! [`run_with_retries`] is the stack's one recovery loop. The chaos
//! supervisor and the service both run it and bill from its
//! [`FailedAttempt`] records: the supervisor's `recoveries` counts every
//! retried failure, the service's counts checkpoint resumes.
//!
//! Resident local sets are kept sorted by global id — the order
//! `rcb::partition_particles` yields — so a session run is bit-equal to
//! the same half-kick/drift loop run on the driver with one
//! [`bltc_dist::run_distributed_on`] per evaluation over a
//! driver-side partition (`tests/persistent.rs` keeps that check). Both
//! run the same evaluation epoch, one on a world per call, so the
//! independent check is the corpus rows (`tests/corpus.rs`) recorded
//! before the distributed doors became epochs: 3 ranks, a tight LET
//! budget, two GPUs per node, traffic matrices and modeled clocks.
//!
//! ## Host parallelism
//!
//! By default the parallel per-rank host phases under a step — tree and
//! batch construction, modified charges, LET traversal — run on the
//! process-wide host pool (the `rayon` compat layer, where each parallel
//! call is one job whose chunks the workers and the calling rank thread
//! claim): rank threads inherit the driver's pool, so an integrator
//! launched inside `ThreadPool::install` (or under
//! `BLTC_HOST_THREADS=N`) steps with `N` host workers shared across all
//! ranks. The evaluations, local and remote-LET, run on each rank's own
//! thread, over all its batches as one chunk. Trajectories are part of
//! the workspace determinism contract: **bitwise identical at any pool
//! size** (asserted by `tests/host_parallel.rs`), so thread count is
//! purely a wall-clock knob.
//!
//! ## Example
//!
//! A small Plummer sphere integrated for three steps on two ranks,
//! with energy conservation and traffic reconciliation checked:
//!
//! ```
//! use bltc_core::config::BltcParams;
//! use bltc_dist::DistConfig;
//! use bltc_sim::{plummer_sphere, PersistentIntegrator, SimConfig};
//!
//! let (state, model) = plummer_sphere(96, 1.0, 0.05, 11);
//! let dist = DistConfig::comet(BltcParams::new(0.7, 3, 40, 40));
//! let cfg = SimConfig::new(dist, 2, 1e-3).with_repartition_every(2);
//!
//! let mut integrator = PersistentIntegrator::new(cfg, &state, &model);
//! for report in integrator.run(3) {
//!     // Per-rank RMA tallies always equal the runtime's matrix.
//!     assert_eq!(report.rank_bytes, report.matrix_bytes);
//! }
//! let report = integrator.report();
//! assert_eq!((report.steps, report.world_spawns), (3, 1));
//! assert!(report.max_relative_energy_drift() < 1e-2);
//! assert_eq!(integrator.snapshot().step, 3);
//! ```

mod forces;
mod integrator;
mod persistent;
mod recovery;
pub mod scenario;
mod state;

pub use forces::ForceModel;
pub use integrator::{SimConfig, SimReport, StepReport};
pub use persistent::{Checkpoint, PersistentIntegrator, RestoreCost, WorldReuse};
pub use recovery::{run_with_retries, FailedAttempt, Recovered, RetryPolicy, BACKOFF_BASE_S};
pub use scenario::{electrolyte_box, plummer_sphere};
pub use state::SimState;
