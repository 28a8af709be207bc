//! Configuration and reports of a velocity-Verlet run.

use bltc_dist::DistConfig;
use mpi_sim::runtime::TrafficMatrix;

/// Configuration of a distributed dynamics run.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Distributed-evaluation configuration (treecode parameters, GPU
    /// model, fabric, host model).
    pub dist: DistConfig,
    /// Simulated ranks driving each force evaluation.
    pub ranks: usize,
    /// Integration time step.
    pub dt: f64,
    /// RCB repartition cadence: the domain decomposition is recomputed
    /// on steps where `state.step % repartition_every == 0` (so `1`
    /// repartitions every step). Between cadence boundaries the stale
    /// partition is reused — correct but progressively less compact,
    /// which surfaces as growing LET traffic in the step reports.
    pub repartition_every: u64,
}

impl SimConfig {
    /// Construct from a distributed-evaluation configuration (used
    /// as given — no preset is applied), rank count, and time step;
    /// the repartition cadence defaults to every 10 steps.
    pub fn new(dist: DistConfig, ranks: usize, dt: f64) -> Self {
        Self {
            dist,
            ranks,
            dt,
            repartition_every: 10,
        }
    }

    /// Set the repartition cadence (must be ≥ 1).
    pub fn with_repartition_every(mut self, every: u64) -> Self {
        self.repartition_every = every;
        self
    }

    /// The rules of a run over `n` particles: [`DistConfig::validate`]
    /// for `ranks`, plus a positive finite `dt` and a repartition
    /// cadence of at least 1. The message is built only on failure.
    pub fn validate(&self, n: usize) -> Result<(), String> {
        self.dist.validate(self.ranks, n)?;
        if !(self.dt > 0.0 && self.dt.is_finite()) {
            return Err(format!("dt must be positive and finite, got {}", self.dt));
        }
        if self.repartition_every < 1 {
            return Err("repartition cadence must be at least 1".into());
        }
        Ok(())
    }
}

/// What one velocity-Verlet step did and cost.
///
/// The RMA tallies come in two independently-counted forms — the sum of
/// the per-rank [`bltc_dist::RankReport`] tallies, read from the fetch
/// plans each rank's LETs executed, and the runtime [`TrafficMatrix`]
/// totals, recorded get by get as they were issued — and the two must
/// agree exactly (`rank_msgs == matrix_msgs`, `rank_bytes ==
/// matrix_bytes`); the integrator asserts it on every evaluation epoch,
/// and the dynamics example re-checks it externally.
#[derive(Debug, Clone, Copy)]
pub struct StepReport {
    /// Step index after this step (first step reports 1).
    pub step: u64,
    /// Simulation time after this step.
    pub time: f64,
    /// Whether this step recomputed the RCB partition.
    pub repartitioned: bool,
    /// Modeled host seconds of the repartition (zero when not taken).
    pub repartition_host_s: f64,
    /// Modeled host seconds submitting this step's epochs to the live
    /// ranks (the world's one spawn was charged at launch).
    pub epoch_host_s: f64,
    /// Particles whose ownership moved rank-to-rank this step.
    pub migrated_particles: u64,
    /// Bytes of migrated records plus the rank-to-rank repartition
    /// coordinate gather (a separate traffic phase from LET bytes).
    pub migration_bytes: u64,
    /// Modeled bytes a *full* repartition exchange would have moved
    /// this step (zero when no repartition was taken) — the baseline
    /// migration must beat.
    pub full_exchange_bytes: u64,
    /// Modeled α–β seconds of the migration exchange.
    pub migration_comm_s: f64,
    /// Bulk-synchronous setup seconds of this step's field evaluation.
    pub setup_s: f64,
    /// Bulk-synchronous precompute seconds.
    pub precompute_s: f64,
    /// Bulk-synchronous compute seconds.
    pub compute_s: f64,
    /// Modeled step seconds: field-evaluation total plus the host
    /// (epoch/repartition) and migration costs of the step.
    pub total_s: f64,
    /// Pipelined seconds of this step's field evaluation: max over
    /// ranks of the overlap-aware critical path (`≤ setup_s +
    /// precompute_s + compute_s`). Forces and trajectories are
    /// identical either way — only the clock differs.
    pub pipelined_s: f64,
    /// One-sided messages this step, summed from per-rank tallies.
    pub rank_msgs: u64,
    /// One-sided payload bytes this step, summed from per-rank tallies.
    pub rank_bytes: u64,
    /// Remote messages this step per the runtime's [`TrafficMatrix`].
    pub matrix_msgs: u64,
    /// Remote bytes this step per the runtime's [`TrafficMatrix`].
    pub matrix_bytes: u64,
    /// Kinetic energy after the step.
    pub kinetic: f64,
    /// Potential energy after the step (from the same field evaluation
    /// that produced the forces — no extra pass).
    pub potential: f64,
}

impl StepReport {
    /// Total energy after the step.
    pub fn total_energy(&self) -> f64 {
        self.kinetic + self.potential
    }
}

/// Cumulative record of a dynamics run: step and repartition counts,
/// summed modeled phase clocks, accumulated RMA traffic, and the energy
/// envelope.
///
/// Traffic is accumulated per (origin, target) pair
/// ([`TrafficMatrix::accumulate`]), so the cumulative matrix reconciles
/// exactly against the summed per-step tallies:
/// `traffic.total_remote_bytes() == rma_bytes` always.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Velocity-Verlet steps taken.
    pub steps: u64,
    /// Distributed field evaluations (steps + the initial one).
    pub force_evals: u64,
    /// RCB repartitions performed (including the initial one).
    pub repartitions: u64,
    /// SPMD worlds stood up over the run: exactly **one** (the launch),
    /// or zero when the world was checked out of a pool.
    pub world_spawns: u64,
    /// Summed modeled host seconds of those world spawns.
    pub spawn_host_s: f64,
    /// Summed modeled host seconds submitting epochs.
    pub epoch_host_s: f64,
    /// Migration epochs performed.
    pub migrations: u64,
    /// Total particles migrated rank-to-rank.
    pub migrated_particles: u64,
    /// Total migration-phase bytes (coordinate gathers + delta
    /// records), tallied separately from LET traffic.
    pub migration_bytes: u64,
    /// Summed modeled α–β seconds of migration exchanges.
    pub migration_comm_s: f64,
    /// Cumulative per-pair migration-phase traffic — the repartition
    /// data path, kept as its own phase next to the LET `traffic`.
    pub migration_traffic: TrafficMatrix,
    /// Summed modeled host seconds spent repartitioning.
    pub repartition_host_s: f64,
    /// Summed bulk-synchronous setup seconds.
    pub setup_s: f64,
    /// Summed bulk-synchronous precompute seconds.
    pub precompute_s: f64,
    /// Summed bulk-synchronous compute seconds.
    pub compute_s: f64,
    /// Summed modeled seconds (field evaluations + repartitions).
    pub total_s: f64,
    /// Summed pipelined seconds of the field evaluations — what the
    /// evaluations cost when every rank epoch overlaps its LET fetch
    /// with local compute (`≤` the evaluations' share of `total_s`).
    pub pipelined_s: f64,
    /// Cumulative one-sided messages (per-rank tallies).
    pub rma_messages: u64,
    /// Cumulative one-sided payload bytes (per-rank tallies).
    pub rma_bytes: u64,
    /// Cumulative per-pair traffic matrix.
    pub traffic: TrafficMatrix,
    /// Total energy at `t = 0` (after the initial force evaluation).
    pub initial_energy: f64,
    /// Total energy after the latest step.
    pub final_energy: f64,
    /// Largest `|E(t) - E(0)|` seen at any step boundary.
    pub max_abs_energy_drift: f64,
}

impl SimReport {
    /// The starting record of a run: zeroed counters, `ranks`-sized
    /// traffic matrices, the initial decomposition's host cost, and the
    /// launch's spawn accounting (one world, or none for a pooled one).
    pub fn starting(
        ranks: usize,
        repartition_host_s: f64,
        world_spawns: u64,
        spawn_host_s: f64,
    ) -> Self {
        Self {
            steps: 0,
            force_evals: 0,
            repartitions: 1,
            world_spawns,
            spawn_host_s,
            epoch_host_s: 0.0,
            migrations: 0,
            migrated_particles: 0,
            migration_bytes: 0,
            migration_comm_s: 0.0,
            migration_traffic: TrafficMatrix::zeros(ranks),
            repartition_host_s,
            setup_s: 0.0,
            precompute_s: 0.0,
            compute_s: 0.0,
            total_s: repartition_host_s + spawn_host_s,
            pipelined_s: 0.0,
            rma_messages: 0,
            rma_bytes: 0,
            traffic: TrafficMatrix::zeros(ranks),
            initial_energy: 0.0,
            final_energy: 0.0,
            max_abs_energy_drift: 0.0,
        }
    }

    /// Largest relative energy drift `max_t |E(t) − E(0)| / |E(0)|`
    /// over the run — the symplectic-integrator health number the
    /// acceptance tests bound.
    pub fn max_relative_energy_drift(&self) -> f64 {
        self.max_abs_energy_drift / self.initial_energy.abs().max(f64::MIN_POSITIVE)
    }

    /// Mean modeled seconds per force evaluation, repartition cost
    /// amortized in. The denominator is `force_evals` (steps + the
    /// initial evaluation, whose cost `total_s` also contains), so the
    /// ratio is exact at any run length — the same denominator the
    /// per-evaluation RMA averages use.
    pub fn seconds_per_step(&self) -> f64 {
        self.total_s / (self.force_evals.max(1)) as f64
    }
}
