//! Every call the benchmark makes into the library, and nothing else.
//!
//! The workloads never name a `bltc-*` crate: they call the thin
//! wrappers below, one per public entry point the benchmark measures.
//! When a later change collapses an API (one pipeline, one integrator,
//! one recovery loop), the benchmark's fix is confined to this file.
//!
//! Not called, because ROADMAP marks them for removal: the respawn
//! `bltc_sim::Integrator`, and every `bltc_service::Fault` variant
//! beyond `Fault::None`.

use std::sync::Arc;

use bltc_core::tree::batch::TargetBatches;
use bltc_core::tree::SourceTree;

pub use bltc_bench::Args;
pub use bltc_chaos::{FaultPlan, SupervisedRun};
pub use bltc_core::charges::ClusterCharges;
pub use bltc_core::config::BltcParams;
pub use bltc_core::cost::OpCounts;
pub use bltc_core::engine::{ComputeResult, PreparedTreecode};
pub use bltc_core::field::FieldResult;
pub use bltc_core::kernel::{GradientKernel, Kernel};
pub use bltc_core::particles::ParticleSet;
pub use bltc_core::traversal::InteractionLists;
pub use bltc_dist::{DistConfig, DistReport, FieldSession, RankReport, SessionFieldReport};
pub use bltc_gpu::{GpuFieldRunReport, GpuRunReport};
pub use bltc_service::{JobOutput, JobSpec, SimService};
pub use bltc_sim::{
    Checkpoint, ForceModel, PersistentIntegrator, SimConfig, SimReport, SimState, StepReport,
};
pub use bltc_trace::json::Json;
pub use mpi_sim::{Session, SessionPool};
pub use rayon::ThreadPool;
pub use rcb::RcbPartition;

// ---- host pool ------------------------------------------------------

/// Environment variable that sizes every default pool, the implicit
/// global one (which service workers fall back to) included.
pub const HOST_THREADS_ENV: &str = rayon::HOST_THREADS_ENV;

/// An explicit host pool of `threads` workers.
pub fn host_pool(threads: usize) -> ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("build host pool")
}

// ---- inputs ---------------------------------------------------------

/// The interaction kernels the evaluation workloads use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelChoice {
    /// `1/r`.
    Coulomb,
    /// `e^{-κr}/r` at the paper's `κ = 0.5`.
    Yukawa,
}

static COULOMB: bltc_core::kernel::Coulomb = bltc_core::kernel::Coulomb;
static YUKAWA: bltc_core::kernel::Yukawa = bltc_core::kernel::Yukawa { kappa: 0.5 };

impl KernelChoice {
    /// The kernel as the potential-only trait object.
    pub fn kernel(self) -> &'static dyn Kernel {
        match self {
            KernelChoice::Coulomb => &COULOMB,
            KernelChoice::Yukawa => &YUKAWA,
        }
    }

    /// The kernel as the gradient-capable trait object.
    pub fn gradient_kernel(self) -> &'static dyn GradientKernel {
        match self {
            KernelChoice::Coulomb => &COULOMB,
            KernelChoice::Yukawa => &YUKAWA,
        }
    }
}

/// `n` particles uniform in `[-1, 1]³`, charges uniform in `[-1, 1]`.
pub fn random_cube(n: usize, seed: u64) -> ParticleSet {
    ParticleSet::random_cube(n, seed)
}

/// `n` probe targets uniform on the plane `z = 0` of the unit cube.
pub fn plane_targets(n: usize, seed: u64) -> ParticleSet {
    let mut t = ParticleSet::random_cube(n, seed);
    t.z.fill(0.0);
    t
}

/// An `n`-particle Plummer cloud of scale radius `a`, total mass 1.
pub fn plummer_cloud(n: usize, a: f64, seed: u64) -> ParticleSet {
    ParticleSet::plummer(n, a, seed)
}

/// A Plummer sphere in virial equilibrium with its softened force law.
pub fn plummer_sphere(n: usize, a: f64, softening: f64, seed: u64) -> (SimState, ForceModel) {
    bltc_sim::plummer_sphere(n, a, softening, seed)
}

/// Treecode parameters `θ, n, N_L, N_B`.
pub fn params(theta: f64, degree: usize, leaf_cap: usize, batch_cap: usize) -> BltcParams {
    BltcParams::new(theta, degree, leaf_cap, batch_cap)
}

// ---- core: the whole op, then the same op call by call ----------------

/// `ParallelEngine::compute` — workloads 1 and 2's op.
pub fn cpu_compute(
    params: BltcParams,
    targets: &ParticleSet,
    sources: &ParticleSet,
    kernel: &dyn Kernel,
) -> ComputeResult {
    use bltc_core::engine::TreecodeEngine;
    bltc_core::engine::ParallelEngine::new(params).compute(targets, sources, kernel)
}

/// `SourceTree::build`.
pub fn tree_build(sources: &ParticleSet, params: &BltcParams) -> SourceTree {
    SourceTree::build(sources, params)
}

/// `TargetBatches::build`.
pub fn batches_build(targets: &ParticleSet, params: &BltcParams) -> TargetBatches {
    TargetBatches::build(targets, params)
}

/// `InteractionLists::build`.
pub fn lists_build(
    batches: &TargetBatches,
    tree: &SourceTree,
    params: &BltcParams,
) -> InteractionLists {
    InteractionLists::build(batches, tree, params)
}

/// `ClusterCharges::compute_all`.
pub fn charges_compute_all(tree: &SourceTree, degree: usize) -> ClusterCharges {
    ClusterCharges::compute_all(tree, degree)
}

/// Assemble the pieces above into the `PreparedTreecode` that
/// `PreparedTreecode::new` would have built from the same inputs.
pub fn prepared_from_parts(
    params: BltcParams,
    tree: SourceTree,
    batches: TargetBatches,
    lists: InteractionLists,
    charges: ClusterCharges,
) -> PreparedTreecode {
    let ops = OpCounts::from_lists(&lists, &batches, &tree, &params);
    PreparedTreecode {
        params,
        tree,
        batches,
        lists,
        charges,
        ops,
        setup_seconds: 0.0,
        precompute_seconds: 0.0,
    }
}

/// `PreparedTreecode::evaluate_parallel`.
pub fn evaluate_parallel(prep: &PreparedTreecode, kernel: &dyn Kernel) -> Vec<f64> {
    prep.evaluate_parallel(kernel).0
}

/// `PreparedTreecode::evaluate_serial` — the plain one-thread baseline.
pub fn evaluate_serial(prep: &PreparedTreecode, kernel: &dyn Kernel) -> Vec<f64> {
    prep.evaluate_serial(kernel).0
}

/// `PreparedTreecode::evaluate_field_parallel`.
pub fn evaluate_field_parallel(
    prep: &PreparedTreecode,
    kernel: &dyn GradientKernel,
) -> FieldResult {
    prep.evaluate_field_parallel(kernel)
}

/// Share of tree nodes whose modified charges any approximation list
/// reads — `compute_all` fills the rest for nothing.
pub fn charges_used_frac(prep: &PreparedTreecode) -> f64 {
    let nodes = prep.tree.num_nodes();
    let used = prep.lists.used_approx_nodes(nodes);
    used.iter().filter(|&&u| u).count() as f64 / nodes.max(1) as f64
}

/// Tree nodes of a preparation.
pub fn tree_nodes(prep: &PreparedTreecode) -> usize {
    prep.tree.num_nodes()
}

/// Target batches of a preparation.
pub fn num_batches(prep: &PreparedTreecode) -> usize {
    prep.batches.len()
}

/// Exact potentials at the targets `indices` by direct summation.
pub fn direct_sum_subset(
    targets: &ParticleSet,
    indices: &[usize],
    sources: &ParticleSet,
    kernel: &dyn Kernel,
) -> Vec<f64> {
    bltc_core::engine::direct_sum_subset(targets, indices, sources, kernel)
}

/// `samples` distinct seeded indices into `0..n`.
pub fn sample_indices(n: usize, samples: usize, seed: u64) -> Vec<usize> {
    bltc_core::error::sample_indices(n, samples, seed)
}

/// Relative 2-norm error of `approx_full[indices]` against `exact`.
pub fn sampled_relative_l2_error(exact: &[f64], approx_full: &[f64], indices: &[usize]) -> f64 {
    bltc_core::error::sampled_relative_l2_error(exact, approx_full, indices)
}

// ---- gpu-engine + gpu-sim -------------------------------------------

fn gpu_engine(cfg: &DistConfig) -> bltc_gpu::GpuEngine {
    bltc_gpu::GpuEngine::with_spec(cfg.params, cfg.spec).with_streams(cfg.streams)
}

/// `GpuEngine::compute_detailed` on the Titan V model (the paper's
/// single-GPU configuration).
pub fn gpu_compute(
    params: BltcParams,
    targets: &ParticleSet,
    sources: &ParticleSet,
    kernel: &dyn Kernel,
) -> GpuRunReport {
    bltc_gpu::GpuEngine::new(params).compute_detailed(targets, sources, kernel)
}

/// `GpuEngine::compute_field_detailed` on the Titan V model.
pub fn gpu_compute_field(
    params: BltcParams,
    targets: &ParticleSet,
    sources: &ParticleSet,
    kernel: &dyn GradientKernel,
) -> GpuFieldRunReport {
    bltc_gpu::GpuEngine::new(params).compute_field_detailed(targets, sources, kernel)
}

/// One rank's local evaluation as the distributed pipeline configures
/// it (device model and stream count from `cfg`), potentials only.
pub fn gpu_compute_rank(
    cfg: &DistConfig,
    local: &ParticleSet,
    kernel: &dyn Kernel,
) -> GpuRunReport {
    gpu_engine(cfg).compute_detailed(local, local, kernel)
}

/// One rank's local **field** evaluation as the pipeline configures it.
pub fn gpu_compute_field_rank(
    cfg: &DistConfig,
    local: &ParticleSet,
    kernel: &dyn GradientKernel,
) -> GpuFieldRunReport {
    gpu_engine(cfg).compute_field_detailed(local, local, kernel)
}

/// Modeled device seconds of a GPU run: every simulated phase of the
/// breakdown, summed in pipeline order. `setup_host_s` is left out —
/// that one field is a measured wall time, and a modeled clock has to
/// repeat exactly (which also rules out `total() - setup_host_s`: the
/// subtraction rounds differently from run to run).
pub fn gpu_modeled_seconds(sim: &bltc_gpu::GpuSimBreakdown) -> f64 {
    sim.htod_sources_s
        + sim.precompute_s
        + sim.dtoh_charges_s
        + sim.htod_let_s
        + sim.compute_s
        + sim.dtoh_potentials_s
}

// ---- rcb ------------------------------------------------------------

/// `DistConfig::partition`.
pub fn partition(cfg: &DistConfig, ps: &ParticleSet, ranks: usize) -> RcbPartition {
    cfg.partition(ps, ranks)
}

/// Each rank's particles under a partition.
pub fn partition_particles(ps: &ParticleSet, part: &RcbPartition) -> Vec<ParticleSet> {
    rcb::partition_particles(ps, part)
}

// ---- mpi-sim --------------------------------------------------------

/// `run_spmd` of an empty rank body: what standing a one-shot world up
/// and tearing it down costs.
pub fn spmd_spawn_empty(ranks: usize) {
    mpi_sim::run_spmd(ranks, |_comm| ());
}

/// `Session::spawn`.
pub fn session_spawn(ranks: usize) -> Session {
    Session::spawn(ranks)
}

/// `Session::run_epoch` of an empty rank body.
pub fn session_empty_epoch(session: &mut Session) {
    session.run_epoch(|_comm| ());
}

/// A `SessionPool` retaining up to `max_idle` warm worlds.
pub fn session_pool(max_idle: usize) -> SessionPool {
    SessionPool::new(max_idle)
}

// ---- dist -----------------------------------------------------------

/// `DistConfig::comet`.
pub fn dist_config(params: BltcParams) -> DistConfig {
    DistConfig::comet(params)
}

/// `run_distributed` — workload 3's op.
pub fn run_distributed(
    ps: &ParticleSet,
    ranks: usize,
    cfg: &DistConfig,
    kernel: &dyn Kernel,
) -> DistReport {
    bltc_dist::run_distributed(ps, ranks, cfg, kernel)
}

/// `FieldSession::launch` with no auxiliary columns.
pub fn field_session_launch(ps: &ParticleSet, ranks: usize, cfg: &DistConfig) -> FieldSession {
    FieldSession::launch(ps, &[], ranks, cfg)
}

/// `FieldSession::eval_field`.
pub fn field_session_eval(
    session: &mut FieldSession,
    kernel: &Arc<dyn GradientKernel>,
) -> SessionFieldReport {
    session.eval_field(kernel)
}

// ---- sim ------------------------------------------------------------

/// `SimConfig::new(..).with_repartition_every(..)`.
pub fn sim_config(dist: DistConfig, ranks: usize, dt: f64, repartition_every: u64) -> SimConfig {
    SimConfig::new(dist, ranks, dt).with_repartition_every(repartition_every)
}

/// `PersistentIntegrator::new` — spawn, initial RCB, launch evaluation.
pub fn integrator_new(
    cfg: SimConfig,
    state: &SimState,
    model: &ForceModel,
) -> PersistentIntegrator {
    PersistentIntegrator::new(cfg, state, model)
}

/// `PersistentIntegrator::restore` onto a fresh world.
pub fn integrator_restore(
    cfg: SimConfig,
    model: &ForceModel,
    checkpoint: &Checkpoint,
) -> PersistentIntegrator {
    PersistentIntegrator::restore(cfg, model, checkpoint, None).0
}

/// A fresh library-side trace recorder, attached to `integrator`.
pub fn attach_tracer(integrator: &mut PersistentIntegrator) -> Arc<bltc_trace::TraceRecorder> {
    let recorder = Arc::new(bltc_trace::TraceRecorder::new());
    integrator.set_tracer(Some(Arc::clone(&recorder)));
    recorder
}

/// Drain the spans the library-side recorder holds; returns how many
/// there were and their `chrome_trace` export.
pub fn export_tracer(recorder: &bltc_trace::TraceRecorder) -> (usize, String) {
    let spans = recorder.take_spans();
    (spans.len(), bltc_trace::chrome_trace(&spans))
}

/// Drop the spans the library-side recorder holds (thirteen thousand a
/// step would otherwise be the traced pass's memory).
pub fn discard_tracer_spans(recorder: &bltc_trace::TraceRecorder) {
    drop(recorder.take_spans());
}

// ---- service --------------------------------------------------------

/// The two scenarios workload 5 alternates between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobScenario {
    /// Self-gravitating Plummer sphere.
    Plummer,
    /// Screened electrolyte box.
    Electrolyte,
}

/// A fault-free job spec.
pub fn job_spec(
    scenario: JobScenario,
    n: usize,
    seed: u64,
    ranks: usize,
    steps: u64,
    dist: DistConfig,
) -> JobSpec {
    JobSpec {
        scenario: match scenario {
            JobScenario::Plummer => bltc_service::Scenario::Plummer {
                a: 1.0,
                softening: 0.05,
            },
            JobScenario::Electrolyte => bltc_service::Scenario::Electrolyte {
                kappa: 0.5,
                softening: 0.05,
                thermal_speed: 0.1,
            },
        },
        n,
        seed,
        ranks,
        steps,
        dt: 1e-3,
        repartition_every: 2,
        dist,
        fault: bltc_service::Fault::None,
        checkpoint_every: None,
        deadline_s: None,
        allow_degraded: false,
    }
}

/// `SimService::start` with workload 5's policy: no retries, a cache
/// smaller than the working set.
pub fn service_start(workers: usize, queue_depth: usize, cache_capacity: usize) -> SimService {
    SimService::start(bltc_service::ServiceConfig {
        queue_depth,
        cache_capacity,
        max_retries: 0,
        ..bltc_service::ServiceConfig::with_workers(workers)
    })
}

/// The same spec run directly through `PersistentIntegrator`, with the
/// result channels a job returns (final state, final field, report).
pub fn solo_job(spec: &JobSpec) -> (SimState, FieldResult, SimReport) {
    let (state, model) = spec.scenario.build(spec.n, spec.seed);
    let mut integrator = PersistentIntegrator::new(spec.sim_config(), &state, &model);
    integrator.run(spec.steps as usize);
    let field = integrator.last_field();
    let final_state = integrator.snapshot();
    (final_state, field, integrator.report().clone())
}

/// `state_digest` + `field_digest` — what the service computes per job
/// so tenants can compare bits.
pub fn digests(state: &SimState, field: &FieldResult) -> (u64, u64) {
    (
        bltc_service::state_digest(state),
        bltc_service::field_digest(field),
    )
}

// ---- chaos ----------------------------------------------------------

/// `run_supervised` with workload 6's policy: checkpoint every step.
/// `Err` carries the supervisor's message.
pub fn run_supervised(
    cfg: SimConfig,
    state: &SimState,
    model: &ForceModel,
    steps: u64,
    plan: &FaultPlan,
) -> Result<SupervisedRun, String> {
    let opts = bltc_chaos::SupervisorConfig {
        checkpoint_every: Some(1),
        ..bltc_chaos::SupervisorConfig::default()
    };
    bltc_chaos::run_supervised(cfg, state, model, steps, plan, &opts).map_err(|e| e.to_string())
}

/// A plan over `ranks` ranks with one rank panic per `(epoch, rank)`.
pub fn panic_plan(ranks: usize, panics: &[(u64, usize)]) -> FaultPlan {
    panics
        .iter()
        .fold(FaultPlan::new(ranks), |plan, &(epoch, rank)| {
            plan.panic_at(epoch, rank)
        })
}

/// `FaultPlan::compile` (the schedule is dropped; `run_supervised`
/// compiles its own).
pub fn plan_compile(plan: &FaultPlan) {
    drop(plan.compile());
}

/// Whether a panic message comes from an injected fault (the fault
/// itself, or the poison unwind it triggers on peer ranks).
pub fn is_injected_panic(message: &str) -> bool {
    message.starts_with("chaos:") || message.starts_with("SPMD world poisoned")
}
