//! # bltc-dist — the distributed BLTC pipeline (§3.1)
//!
//! The paper's multi-GPU algorithm on the in-process SPMD runtime
//! (`mpi-sim`), the RCB partitioner (`rcb`), and the simulated GPU
//! engine (`bltc-gpu`):
//!
//! 1. **Domain decomposition** — recursive coordinate bisection assigns
//!    each rank a compact spatial region with a balanced particle count.
//! 2. **One local preparation + windows** — every rank stages its own
//!    particles on the simulated GPU once (`bltc_gpu::GpuEngine::stage`:
//!    source tree, batches, local lists, and every cluster's modified
//!    charges, computed on the host while the device clock prices the
//!    paper's precompute kernels and their copy back), then exposes
//!    three RMA windows: the tree *skeleton*, the tree-ordered
//!    particles, and the per-cluster modified charges — the buffer that
//!    modeled device-to-host copy brings back (paper §3.1–3.2).
//! 3. **Locally essential trees** — each rank, fully asynchronously,
//!    fetches remote skeletons with one-sided gets, runs its batch-MAC
//!    traversal against them, and pulls only the clusters it needs:
//!    modified charges where the MAC accepts, raw particles where it
//!    does not. This is the step the paper builds on passive-target
//!    `MPI_Win_lock`/`MPI_Get`.
//! 4. **Evaluation** — local interactions finish the staged GPU run
//!    (`StagedRun::finish`, bitwise identical to the single-rank
//!    engines); remote LET contributions are added through the same
//!    tiles.
//!
//! Steps 2–4 are one function, [`eval_rank`], and it is written once for
//! both passes: what a pass produces per target — the potential, or the
//! potential and its gradient — is the `bltc_core::kernel::TileOp` the
//! caller hands over (`&dyn Kernel` or `&dyn GradientKernel`), which
//! supplies the tile, the flops per pair and the column count every
//! byte formula uses.
//!
//! Phase times are modeled, not measured: host work through
//! [`model::HostModel`], device work through the `gpu-sim` clock, and
//! communication through the α–β model over each LET's planned
//! one-sided traffic (which the runtime's recorded matrix equals) — so
//! two runs differing only in fabric produce identical potentials and
//! differ exactly in the modeled communication seconds.
//!
//! ## The pipelined epoch (phase DAG)
//!
//! Every run reports **two** clocks over the same work. The *serial*
//! clock sums the phases in the order above — setup, staging,
//! precompute, compute — exactly as the original bulk-synchronous
//! implementation would execute them. The *pipelined* clock
//! ([`RankReport::pipeline`], [`model::PipelineReport`]) reschedules
//! the identical work items as a dependency DAG over four resources:
//!
//! - the **host** builds local tree/charges/interaction lists first,
//!   then runs each LET traversal as its skeleton lands, then unpacks
//!   payload chunks;
//! - the **NIC** issues skeleton gets as soon as the windows exist and
//!   streams each LET's payload in chunks of at most
//!   `letree::LET_CHUNK_CLUSTERS` (32) clusters (`letree`'s issue → plan
//!   → land stages) once its traversal has demanded them;
//! - the **PCIe** link stages each chunk after it lands;
//! - the **device** starts the local block (staging, precompute, local
//!   compute) the moment the local lists exist, and dispatches
//!   remote-eval kernels onto [`DistConfig::streams`] simulated
//!   streams (a `gpu-sim` device the DAG drives itself) as their
//!   chunks become ready.
//!
//! Both clocks come from one pricing of the epoch ([`model`]): the host
//! build, the payload staging and the remote exec seconds are each
//! computed once, and the DAG apportions them to its work items.
//!
//! This is the overlap the paper's one-sided design exists to enable:
//! LET gets hide behind local compute, and ≥2 streams hide remote
//! launch latencies behind exec phases. Execution itself is **not**
//! reordered — the same gets run in the same order, the same kernels
//! produce bitwise-identical potentials — so `pipelined_s ≤ total_s`
//! is a checkable invariant, with equality on one rank.
//!
//! ## One pipeline, two doors, one epoch
//!
//! Every door is an epoch of a [`FieldSessionIn`] — one
//! [`FieldSessionIn::eval`] of [`eval_rank`] against ranks that hold
//! their particles. There are two doors, which differ only in how long
//! the world lives and where the result lands:
//!
//! - [`run_distributed_on`] — the one-shot door, generic over the op:
//!   a world scoped to the call by a caller-supplied RCB partition
//!   (launch, one epoch, gather by id, drop), returning the columns, the
//!   per-rank reports and the traffic matrix. A `&dyn Kernel` gives
//!   potentials; a `&dyn GradientKernel` gives potentials **and**
//!   3-component gradients (`FieldResult::from(columns)`), for
//!   the astrophysics / MD workloads where forces `F = -q∇φ` are the
//!   quantity of interest. [`run_distributed`] names the potential pass
//!   on a fresh partition, into a [`DistReport`]. A caller that reads
//!   only clocks, counts and traffic hands it
//!   `bltc_core::kernel::Priced(op)`: the same gets, launches and clocks,
//!   and no pair math;
//! - [`FieldSession::eval_field`] — the same epoch against a live world
//!   whose particles stay resident between calls, each rank's field
//!   stored in its slot (`bltc-sim` steps through it). It takes a
//!   gradient kernel, so a priced op cannot reach dynamics.
//!
//! All of them validate their decomposition with one driver-side check
//! and fold their per-rank reports through one [`PhaseMaxima`]. Behind
//! every door each remote rank's LET goes through one consumer — land a
//! window of planned chunks, evaluate it, drop it — and one chunk plan
//! feeds the evaluation and the one pricing of the epoch, whose two views
//! are the serial and the pipelined clock.
//!
//! A field pass reuses the *same* LET as a potential pass: modified
//! charges and fetched particles differentiate for free with respect to
//! the target, so gradient evaluation adds **no** RMA traffic — only
//! ~4× the flops (charged to the device clock) and a 4× DtH volume.
//! Every rank's one-sided traffic is reported in
//! [`RankReport::let_messages`]/[`RankReport::let_bytes`] and must
//! reconcile exactly with the runtime's [`TrafficMatrix`] (see the
//! invariants on [`RankReport`]).
//!
//! ## Memory-bounded LET evaluation
//!
//! A rank lands each remote LET a window of fetch chunks at a time,
//! adds the window's tiles into the LET's columns through core's run-wise
//! pass (on the rank's own thread, over all batches as one chunk), drops
//! the window's payload, and adds the columns into the rank's once per
//! LET.
//! [`DistConfig::let_memory_budget`] chooses only the window. By default
//! (`None`) it is the whole LET, and the modeled device keeps every LET
//! it has staged until the compute phase is over, so the peak resident
//! remote payload grows with the surface of the rank's region — the wall
//! between the 32-rank harness and the paper's billion-particle runs.
//! With a budget the window is one chunk, capped at the budget in payload
//! bytes, dropped before the next one lands: the peak resident payload —
//! reported per rank as
//! [`RankReport::peak_let_bytes`] — is then the largest single chunk
//! instead of the whole LET.
//!
//! The budget is **bitwise invisible** everywhere except that peak and
//! the pipelined clock's chunk granularity: the same gets run in the
//! same order (identical [`TrafficMatrix`]), and each target slot
//! accumulates the same per-cluster contributions in the same ascending
//! cluster order, so potentials, forces, trajectories, op counts, and
//! the serial phase clocks are identical at every budget, `None`
//! included (`tests/streaming.rs` pins this across budgets × rank
//! counts × pool sizes).
//!
//! ## Node×GPU hierarchy
//!
//! [`DistConfig::gpus_per_node`] `> 1` models multi-GPU nodes: the
//! decomposition becomes a two-level RCB (`rcb_partition_two_level` —
//! bisection across nodes, then across each node's GPUs, leaf rank
//! `node·g + gpu`), and every one-sided operation is priced on the link
//! its (origin, target) pair actually crosses — the PCIe/shared-memory
//! [`DistConfig::intranode_net`] when the ranks share a node, the
//! fabric [`DistConfig::net`] otherwise — in both the serial
//! `setup_comm_s` and the pipelined clock ([`DistConfig::link`]).
//!
//! ## Example
//!
//! Two simulated ranks evaluating Coulomb potentials, with the traffic
//! reconciliation every report guarantees:
//!
//! ```
//! use bltc_core::config::BltcParams;
//! use bltc_core::kernel::Coulomb;
//! use bltc_core::particles::ParticleSet;
//! use bltc_dist::{run_distributed, DistConfig};
//!
//! let ps = ParticleSet::random_cube(300, 7);
//! let cfg = DistConfig::comet(BltcParams::new(0.8, 3, 50, 50));
//! let rep = run_distributed(&ps, 2, &cfg, &Coulomb);
//!
//! assert_eq!(rep.potentials.len(), ps.len());
//! let tallied: u64 = rep.ranks.iter().map(|r| r.let_bytes).sum();
//! assert_eq!(tallied, rep.traffic.total_remote_bytes());
//! ```

mod letree;
pub mod model;
pub mod persistent;

pub use model::{HostModel, PipelineReport};
pub use persistent::{
    FieldSession, FieldSessionIn, MigrationRankStats, MigrationReport, RankLocal,
    SessionFieldReport, Snapshot,
};

use bltc_core::config::BltcParams;
use bltc_core::cost::OpCounts;
use bltc_core::kernel::{Kernel, TileOp};
use bltc_core::particles::ParticleSet;
use bltc_gpu::{GpuEngine, GpuPass};
use gpu_sim::DeviceSpec;
use mpi_sim::runtime::TrafficMatrix;
use mpi_sim::{Comm, NetworkSpec, SessionIn};
use rcb::{rcb_partition, rcb_partition_two_level, RcbPartition};

use letree::{
    eval_remote_let, issue_remote_let, plan_chunks, remote_ops, resident_bytes, LetPlan, LetWindows,
};

/// Configuration of a distributed run: treecode parameters plus the
/// hardware models of one compute node class and its fabric.
#[derive(Debug, Clone, Copy)]
pub struct DistConfig {
    /// Treecode parameters (shared by every rank).
    pub params: BltcParams,
    /// Per-rank GPU model.
    pub spec: DeviceSpec,
    /// Interconnect model for the α–β communication clock.
    pub net: NetworkSpec,
    /// Asynchronous streams each rank cycles through.
    pub streams: usize,
    /// Host-side setup-time model.
    pub host: HostModel,
    /// Memory budget for resident remote-LET payload bytes per rank.
    ///
    /// It chooses the window of the one LET consumer, which lands a
    /// window of fetch chunks, evaluates it, and drops it before the next
    /// lands. `None` (the default) makes the window a whole LET, and the
    /// peak resident payload is the rank's whole LET payload. `Some(b)`
    /// makes it one chunk, and the chunk planner additionally caps chunk
    /// payloads at `b` bytes (a single cluster whose payload alone
    /// exceeds `b` still travels as its own over-budget chunk — the
    /// minimum resident unit), so the peak is the largest chunk. Results,
    /// forces, op counts, and recorded traffic are **bitwise identical**
    /// at every budget including `None`; only
    /// [`RankReport::peak_let_bytes`] and the pipelined clock's chunk
    /// granularity respond to it.
    pub let_memory_budget: Option<u64>,
    /// GPUs (leaf ranks) per compute node of the two-level node×GPU
    /// hierarchy. `1` models the flat one-GPU-per-node world of the
    /// paper's Figs. 5–6; `g > 1` decomposes with RCB across nodes
    /// first and then across the `g` GPUs of each node, and prices
    /// one-sided traffic between ranks sharing a node with
    /// [`DistConfig::intranode_net`] instead of the fabric.
    pub gpus_per_node: usize,
    /// Interconnect model for rank pairs that share a compute node
    /// (PCIe peer-to-peer / shared-memory MPI). Only consulted when
    /// `gpus_per_node > 1`.
    pub intranode_net: NetworkSpec,
}

impl DistConfig {
    /// SDSC Comet, the paper's scaling platform (Figs. 5–6): one Tesla
    /// P100 per rank on FDR InfiniBand, flat decomposition, LETs
    /// retained in full.
    pub fn comet(params: BltcParams) -> Self {
        let spec = DeviceSpec::p100();
        Self {
            params,
            spec,
            net: NetworkSpec::infiniband_fdr(),
            streams: spec.num_streams,
            host: HostModel::default(),
            let_memory_budget: None,
            gpus_per_node: 1,
            intranode_net: NetworkSpec::intranode_p2p(),
        }
    }

    /// The network model pricing a one-sided operation between two leaf
    /// ranks: the intra-node path when both live on the same compute
    /// node (`rank / gpus_per_node` agrees), the inter-node fabric
    /// otherwise. With `gpus_per_node == 1` every remote pair crosses
    /// the fabric, reproducing the flat pricing exactly.
    pub fn link(&self, origin: usize, target: usize) -> &NetworkSpec {
        let g = self.gpus_per_node.max(1);
        if g > 1 && origin / g == target / g {
            &self.intranode_net
        } else {
            &self.net
        }
    }

    /// The domain decomposition this config implies for `ranks` leaf
    /// ranks: flat RCB when `gpus_per_node == 1`, otherwise the
    /// two-level node×GPU RCB (bisection across nodes first, then
    /// across each node's GPUs; leaf rank `node · g + gpu`).
    ///
    /// # Panics
    ///
    /// With the message of [`DistConfig::validate`] for `ranks` ranks
    /// over `ps` — among others, when `ranks` leaves a node partly
    /// filled.
    pub fn partition(&self, ps: &ParticleSet, ranks: usize) -> RcbPartition {
        self.validate(ranks, ps.len())
            .unwrap_or_else(|e| panic!("{e}"));
        let g = self.gpus_per_node.max(1);
        if g == 1 {
            rcb_partition(ps, ranks, None)
        } else {
            rcb_partition_two_level(ps, ranks / g, g, None)
        }
    }

    /// The rules of a run over `n` particles on `ranks` leaf ranks:
    /// `1 ≤ ranks ≤ n`; `ranks` fills whole `gpus_per_node`-GPU nodes
    /// (else [`DistConfig::link`] and the two-level RCB disagree about
    /// which ranks share a node); [`BltcParams::validate`];
    /// [`DeviceSpec::validate`]; [`GpuEngine::validate_streams`]; and the
    /// specs the modeled clocks price with — [`NetworkSpec::validate`] for
    /// both fabrics and [`HostModel::validate`]. Every distributed door
    /// checks them on the driver, before any rank runs. The message is
    /// built only on failure.
    pub fn validate(&self, ranks: usize, n: usize) -> Result<(), String> {
        if ranks < 1 {
            return Err("need at least one rank".into());
        }
        if ranks > n {
            return Err(format!("more ranks ({ranks}) than particles ({n})"));
        }
        let g = self.gpus_per_node.max(1);
        if !ranks.is_multiple_of(g) {
            return Err(format!(
                "rank count {ranks} is not a whole number of {g}-GPU nodes"
            ));
        }
        self.params.validate()?;
        self.spec.validate()?;
        GpuEngine::validate_streams(self.streams)?;
        self.net.validate()?;
        self.intranode_net.validate()?;
        self.host.validate()
    }
}

/// LET-construction statistics for one rank (summed over remote ranks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LetStats {
    /// Remote skeleton nodes received (metadata, bounded by tree sizes).
    pub remote_skeleton_nodes: u64,
    /// Distinct remote clusters whose modified charges were fetched.
    pub remote_approx_nodes: u64,
    /// Distinct remote clusters whose raw particles were fetched.
    pub remote_direct_nodes: u64,
    /// Total remote particles fetched — the LET sparsity headline: far
    /// below the full remote particle count when the MAC is doing its
    /// job.
    pub fetched_particles: u64,
    /// Total modified charges fetched.
    pub fetched_proxy_charges: u64,
}

/// Per-rank result of a distributed run: sizes, LET statistics, exact
/// op counts, and the modeled three-phase clock.
///
/// # Traffic-accounting invariants
///
/// The per-rank tallies are not estimates. They are summed, as integers,
/// from the fetch plans the rank's land stage executes get for get (one
/// skeleton get per LET, then one get per planned cluster), and they
/// must reconcile *exactly* against the runtime's [`TrafficMatrix`],
/// which records every get as it is issued: the test suites check it
/// per rank and in sum, and the persistent integrator on every epoch.
///
/// 1. `Σ_ranks let_messages == traffic.total_remote_messages()` and
///    `Σ_ranks let_bytes == traffic.total_remote_bytes()` — every
///    one-sided operation a rank originates targets a *remote* rank
///    (a rank never fetches its own windows), so the rank tallies and
///    the matrix's remote totals count the same set of operations.
/// 2. All RMA operations are *issued* during LET construction.
///    Evaluation — potential or gradient — adds **zero** RMA
///    operations, so a field run's matrix is per-pair identical to a
///    potential-only run on the same decomposition. (This is about
///    what traffic *exists*, not when the clock bills it: the serial
///    phases charge it all to `setup_comm_s`, while the pipelined
///    clock overlaps the same transfers with local compute.)
/// 3. The **serial** phase clocks satisfy
///    `setup_total() + precompute_s + compute_s == total()` by
///    construction (no hidden phases).
/// 4. The **pipelined** clock satisfies
///    `pipeline.pipelined_s ≤ total()`: the phase DAG reschedules
///    exactly the work the serial phases charge — it never invents or
///    drops a second — so its critical path cannot exceed the serial
///    sum, and equals it on one rank (nothing remote to overlap).
#[derive(Debug, Clone)]
pub struct RankReport {
    /// Rank id.
    pub rank: usize,
    /// Particles owned (RCB partition size).
    pub n_local: usize,
    /// Nodes in the rank's local source tree.
    pub tree_nodes: usize,
    /// Target batches on the rank.
    pub num_batches: usize,
    /// LET construction statistics.
    pub let_stats: LetStats,
    /// One-sided RMA operations this rank originated, read from its LET
    /// plans. All of a rank's communication is *issued* during LET
    /// construction; evaluation — potential or gradient — adds none, so
    /// these tallies must reconcile exactly with the run's
    /// [`TrafficMatrix`]. (Whether those transfers sit on the critical
    /// path is a separate, clock-level question: serially they are
    /// billed to `setup_comm_s`; the pipelined clock overlaps them with
    /// local compute.)
    pub let_messages: u64,
    /// Payload bytes of those one-sided operations.
    pub let_bytes: u64,
    /// Peak resident remote-LET payload bytes on this rank (modified
    /// charges + particles — the payload the plans stage onto the
    /// device; skeletons and locally derived grids are excluded).
    /// Without a [`DistConfig::let_memory_budget`] every LET
    /// stays staged until the compute phase is over, so the peak is the
    /// whole payload; under one, one chunk is resident at a time, so the
    /// peak is the largest single chunk — `≤` the budget whenever every
    /// single-cluster payload fits it.
    pub peak_let_bytes: u64,
    /// Modeled host seconds (tree/batch/list build + LET assembly).
    pub setup_host_s: f64,
    /// Modeled communication seconds (α–β over this rank's one-sided
    /// traffic).
    pub setup_comm_s: f64,
    /// Modeled staging seconds (HtD copies of sources, targets, and
    /// fetched LET data).
    pub setup_stage_s: f64,
    /// Modeled precompute seconds (modified-charge kernels + DtH to the
    /// charge windows).
    pub precompute_s: f64,
    /// Modeled compute seconds (evaluation kernels + DtH potentials).
    pub compute_s: f64,
    /// The overlap-aware clock: the critical path of the same epoch
    /// restructured as a phase DAG (LET chunks land while the local
    /// block computes; remote-eval kernels dispatch onto streams as
    /// their chunks become ready), and its spans; priced with the serial
    /// phase clocks above in one place ([`model`]). Satisfies
    /// `pipeline.pipelined_s ≤ total()` (invariant 4).
    pub pipeline: PipelineReport,
    /// Exact op counts (local + remote work on this rank).
    pub ops: OpCounts,
}

impl RankReport {
    /// The paper's "setup" reporting phase: host work, communication,
    /// and data staging.
    pub fn setup_total(&self) -> f64 {
        self.setup_host_s + self.setup_comm_s + self.setup_stage_s
    }

    /// Total modeled seconds on this rank; by construction exactly
    /// `setup_total() + precompute_s + compute_s`.
    pub fn total(&self) -> f64 {
        self.setup_total() + self.precompute_s + self.compute_s
    }

    /// Critical-path seconds of the pipelined epoch; always `≤ total()`.
    pub fn pipelined_s(&self) -> f64 {
        self.pipeline.pipelined_s
    }
}

/// Aggregate result of a distributed run.
#[derive(Debug, Clone)]
pub struct DistReport {
    /// Potentials in the *original* (global) target order.
    pub potentials: Vec<f64>,
    /// Per-rank reports, indexed by rank.
    pub ranks: Vec<RankReport>,
    /// One-sided traffic recorded by the runtime, per (origin, target).
    pub traffic: TrafficMatrix,
    /// Bulk-synchronous setup seconds: max over ranks.
    pub setup_s: f64,
    /// Bulk-synchronous precompute seconds: max over ranks.
    pub precompute_s: f64,
    /// Bulk-synchronous compute seconds: max over ranks.
    pub compute_s: f64,
    /// Modeled run time: max over ranks of the per-rank totals (each
    /// rank's phases are serial; ranks overlap).
    pub total_s: f64,
    /// Pipelined run time: max over ranks of the per-rank critical
    /// paths (`≤ total_s`) — what the epoch costs when each rank
    /// overlaps its LET fetch with local compute and streams its
    /// remote evaluation.
    pub pipelined_s: f64,
}

impl DistReport {
    /// Exact aggregate op counts over all ranks.
    pub fn total_ops(&self) -> OpCounts {
        self.ranks
            .iter()
            .fold(OpCounts::default(), |acc, r| acc.merged(&r.ops))
    }
}

/// The bulk-synchronous phase clocks of one evaluation: ranks run side
/// by side, so each phase costs what its slowest rank takes. Every
/// aggregate report ([`DistReport`], [`SessionFieldReport`], `bltc-sim`'s
/// step reports) and every caller of [`run_distributed_on`] folds its
/// per-rank reports through this one definition.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseMaxima {
    /// Max over ranks of [`RankReport::setup_total`].
    pub setup_s: f64,
    /// Max over ranks of [`RankReport::precompute_s`].
    pub precompute_s: f64,
    /// Max over ranks of [`RankReport::compute_s`].
    pub compute_s: f64,
    /// Max over ranks of [`RankReport::total`] (each rank's phases are
    /// serial; ranks overlap).
    pub total_s: f64,
    /// Max over ranks of [`RankReport::pipelined_s`] (`≤ total_s`).
    pub pipelined_s: f64,
}

impl PhaseMaxima {
    /// Fold per-rank reports into the phase maxima.
    pub fn over<'a>(ranks: impl IntoIterator<Item = &'a RankReport>) -> Self {
        ranks.into_iter().fold(Self::default(), |m, r| Self {
            setup_s: m.setup_s.max(r.setup_total()),
            precompute_s: m.precompute_s.max(r.precompute_s),
            compute_s: m.compute_s.max(r.compute_s),
            total_s: m.total_s.max(r.total()),
            pipelined_s: m.pipelined_s.max(r.pipelined_s()),
        })
    }
}

/// The one decomposition check behind every door, run where a field
/// session is launched ([`FieldSessionIn::launch_in`], and
/// [`FieldSession::launch_reusing`] before it spawns) — so bad input is
/// refused on the driver thread, before any epoch runs (a rank failing
/// inside an epoch would poison a pooled world). The config's rules are
/// [`DistConfig::validate`]'s, and a failure panics with its message;
/// this adds only a non-empty set and the partition's shape.
pub(crate) fn check_decomposition(
    ps: &ParticleSet,
    ranks: usize,
    part: Option<&RcbPartition>,
    cfg: &DistConfig,
) {
    assert!(!ps.is_empty(), "cannot distribute an empty particle set");
    cfg.validate(ranks, ps.len())
        .unwrap_or_else(|e| panic!("{e}"));
    if let Some(part) = part {
        assert_eq!(
            part.assignment.len(),
            ps.len(),
            "partition does not cover the particle set"
        );
        assert_eq!(
            part.part_indices.len(),
            ranks,
            "partition has the wrong rank count"
        );
        assert!(
            part.part_indices.iter().all(|p| !p.is_empty()),
            "every rank needs at least one particle"
        );
    }
}

/// The rank-level body of a distributed evaluation — everything one rank
/// does between entering and leaving the bulk-synchronous region, for
/// either pass (`op` is `&dyn Kernel` for potentials, `&dyn
/// GradientKernel` for potentials and gradients):
///
/// 1. **prepare once** — [`GpuEngine::stage`] builds the local tree,
///    batches and lists and every cluster's modified charges on the
///    host, and prices the precompute kernels and their DtH on the
///    simulated device's clock;
/// 2. **expose** the skeleton / particle / modified-charge windows, laid
///    out from the staged tree and charges in the LET's wire format
///    (stated once, in `letree`);
/// 3. **LETs** — per remote rank issue → plan, then the one consumer:
///    land a window of chunks over passive-target RMA, add its tiles into
///    the LET's columns through core's run-wise pass, drop it, and add
///    the columns into the rank's once per LET.
///    The window is one chunk iff [`DistConfig::let_memory_budget`] is
///    set and the whole LET otherwise; the gets, their order and the
///    recorded traffic are the same either way;
/// 4. **local evaluation** — [`bltc_gpu::StagedRun::finish`] evaluates
///    the local lists on the host and continues the staged device clock
///    with the compute phase's launches;
/// 5. one pricing of the epoch ([`model`]): the serial phase clocks and
///    the pipelined one, with its phase-DAG spans, which reach the
///    driver only in the report (`pipeline.spans`).
///
/// Every door runs it as a [`FieldSessionIn::eval`] epoch (so may any
/// [`mpi_sim::SessionIn::run_epoch`] closure). Must be called from every
/// rank of the SPMD context with the same `cfg` — it contains
/// collectives (window creation and the closing barrier).
///
/// Returns the rank's report and the pass's `C` output columns in **local
/// particle order** (the order of `local`).
pub fn eval_rank<const C: usize, O: TileOp<C> + ?Sized>(
    comm: &Comm,
    local: &ParticleSet,
    cfg: &DistConfig,
    op: &O,
) -> (RankReport, [Vec<f64>; C]) {
    let params = &cfg.params;
    let m3 = params.proxy_count();
    let rank = comm.rank();

    // ---- local preparation on the simulated GPU, then the windows ----
    let staged = GpuEngine::with_spec(*params, cfg.spec)
        .with_streams(cfg.streams)
        .stage(local, local);
    let wins = LetWindows::expose(comm, &staged.prep.tree, &staged.prep.charges);
    let batches = &staged.prep.batches;

    // ---- LET construction (fully one-sided, staged) + remote pass ----
    let budget = cfg.let_memory_budget;
    let mut remote: [Vec<f64>; C] = std::array::from_fn(|_| vec![0.0; local.len()]);
    let mut let_stats = LetStats::default();
    let mut plans = Vec::with_capacity(comm.size().saturating_sub(1));
    for t in (0..comm.size()).filter(|&t| t != rank) {
        let issue = issue_remote_let(t, batches, params, &wins);
        let chunks = plan_chunks(&issue, batches, m3, budget);
        let_stats.remote_skeleton_nodes += issue.nodes.len() as u64;
        let_stats.remote_approx_nodes += issue.approx.len() as u64;
        let_stats.remote_direct_nodes += issue.direct.len() as u64;
        let_stats.fetched_particles += chunks.iter().map(|c| c.fetched_particles).sum::<u64>();
        let_stats.fetched_proxy_charges += (issue.approx.len() * m3) as u64;
        eval_remote_let(
            &issue,
            &chunks,
            budget,
            batches,
            &wins,
            params,
            op,
            &mut remote,
        );
        plans.push(LetPlan {
            target: t,
            skeleton_bytes: issue.skeleton_bytes,
            chunks,
        });
    }
    let peak_let_bytes = resident_bytes(&plans, budget).max().unwrap_or(0);
    // Alone, a rank has no remote columns to add — and must not add
    // zeros either: `-0.0 + 0.0` is `+0.0`.
    let remote_cols = (comm.size() > 1).then(|| remote.map(|c| batches.scatter_to_original(&c)));
    let (tree_nodes, num_batches) = (staged.prep.tree.num_nodes(), batches.len());

    // ---- local evaluation on the simulated GPU -----------------------
    // The pass's kernel log is dropped here: no result reads it.
    let GpuPass {
        mut columns,
        ops: local_ops,
        tree_stats,
        sim,
        ..
    } = staged.finish(op);
    if let Some(remote_cols) = remote_cols {
        for (col, rem) in columns.iter_mut().zip(remote_cols) {
            for (p, r) in col.iter_mut().zip(rem) {
                *p += r;
            }
        }
    }
    let ops = local_ops.merged(&remote_ops(&plans));

    // ---- modeled clocks (the op's flops on the remote pass) -----------
    let levels = tree_stats.max_level + 1;
    let clocks = model::price_epoch(
        cfg,
        rank,
        &sim,
        local.len(),
        levels,
        local_ops.kernel_launches,
        &plans,
        op,
    );

    // Epochs closed on every rank: only now may the windows go, every
    // peer is done fetching.
    comm.barrier();
    drop(wins);

    let report = RankReport {
        rank,
        n_local: local.len(),
        tree_nodes,
        num_batches,
        let_stats,
        let_messages: plans.iter().map(LetPlan::messages).sum(),
        let_bytes: plans.iter().map(LetPlan::bytes).sum(),
        peak_let_bytes,
        setup_host_s: clocks.setup_host_s,
        setup_comm_s: clocks.setup_comm_s,
        setup_stage_s: clocks.setup_stage_s,
        precompute_s: clocks.precompute_s,
        compute_s: clocks.compute_s,
        pipeline: clocks.pipeline,
        ops,
    };
    (report, columns)
}

/// The one-shot door, for any pass: one evaluation on a world that
/// lives for this call only. It opens a scope, launches a
/// [`FieldSessionIn`] on scoped rank threads by `part`, runs one
/// [`FieldSessionIn::eval`] epoch with the borrowed `op`, gathers the
/// `C` columns by global id, and drops the session before the scope
/// ends. Returns the columns in original order, the per-rank reports
/// and the traffic matrix; [`PhaseMaxima::over`] folds the reports.
///
/// `op` is `&dyn Kernel`, `&dyn GradientKernel`, or either one wrapped
/// in `bltc_core::kernel::Priced` when the caller reads only clocks,
/// counts and traffic: then the columns are zeros, and every report and
/// the traffic matrix are the real op's.
///
/// On one rank the columns are bitwise those of
/// `GpuEngine::with_spec(cfg.params, cfg.spec)` on the whole problem, for
/// any pass. Rank ownership follows `part`, while trees, charges,
/// windows and LETs are built from the *current* positions, so a stale
/// partition is still correct: it is merely less compact, which shows
/// only as more LET traffic in the returned matrix.
///
/// # Panics
///
/// Panics if the partition does not cover `ps`, if any part is empty,
/// or with the message of [`DistConfig::validate`] for the partition's
/// part count.
pub fn run_distributed_on<const C: usize, O: TileOp<C> + ?Sized>(
    ps: &ParticleSet,
    part: &RcbPartition,
    cfg: &DistConfig,
    op: &O,
) -> ([Vec<f64>; C], Vec<RankReport>, TrafficMatrix) {
    let ranks = part.num_parts();
    let er = std::thread::scope(|scope| {
        let world = SessionIn::spawn_in(scope, ranks);
        FieldSessionIn::launch_in(ps, &[], ranks, cfg, world, Some(part)).eval(op)
    });
    let mut columns: [Vec<f64>; C] = std::array::from_fn(|_| vec![0.0; ps.len()]);
    let mut reports = Vec::with_capacity(ranks);
    for ((report, local_cols), ids) in er.results.into_iter().zip(&part.part_indices) {
        for (col, local_col) in columns.iter_mut().zip(&local_cols) {
            for (&orig, &v) in ids.iter().zip(local_col) {
                col[orig] = v;
            }
        }
        reports.push(report);
    }
    (columns, reports, er.traffic)
}

/// Run the full distributed pipeline on `ranks` simulated ranks.
///
/// Ranks execute as real OS threads scoped to the call, running one
/// [`FieldSessionIn::eval`] epoch; all inter-rank data movement happens
/// through one-sided RMA windows and is recorded in the returned traffic
/// matrix. With `ranks == 1` the result is bitwise identical to
/// `GpuEngine::with_spec(params, cfg.spec)` on the whole problem.
pub fn run_distributed(
    ps: &ParticleSet,
    ranks: usize,
    cfg: &DistConfig,
    kernel: &dyn Kernel,
) -> DistReport {
    let part = cfg.partition(ps, ranks);
    let ([potentials], ranks, traffic) = run_distributed_on(ps, &part, cfg, kernel);
    let clocks = PhaseMaxima::over(&ranks);
    DistReport {
        potentials,
        ranks,
        traffic,
        setup_s: clocks.setup_s,
        precompute_s: clocks.precompute_s,
        compute_s: clocks.compute_s,
        total_s: clocks.total_s,
        pipelined_s: clocks.pipelined_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bltc_core::engine::direct_sum;
    use bltc_core::error::relative_l2_error;
    use bltc_core::field::FieldResult;
    use bltc_core::kernel::{Coulomb, GradientKernel};
    use bltc_trace::Span;

    fn cfg() -> DistConfig {
        DistConfig::comet(BltcParams::new(0.8, 3, 60, 60))
    }

    /// End times of the phase-DAG spans called `name`, in chunk order.
    fn chunk_span_ends(spans: &[Span], name: &str) -> Vec<f64> {
        let chunk_spans = spans.iter().filter(|s| s.name == name && s.chunk.is_some());
        chunk_spans.map(|s| s.end_s).collect()
    }

    #[test]
    fn comet_preset_matches_paper_platform() {
        let c = cfg();
        assert_eq!(c.spec.name, DeviceSpec::p100().name);
        assert_eq!(c.net.name, NetworkSpec::infiniband_fdr().name);
        assert!(c.streams >= 1);
        assert_eq!(c.validate(2, 100), Ok(()), "the preset validates");
        assert_eq!(HostModel::default().validate(), Ok(()));
    }

    #[test]
    fn broken_fabrics_and_host_models_are_refused_at_run_distributed() {
        // Before `DistConfig::validate` checked fabrics and host models,
        // these ran: every rank panicked at a debug assertion in the
        // clock model, and a release build reported `inf` (zero
        // bandwidth) or `0` (NaN host) seconds.
        let ps = ParticleSet::random_cube(200, 3);
        let zero_bandwidth = DistConfig {
            net: NetworkSpec {
                bandwidth_gbs: 0.0,
                ..NetworkSpec::infiniband_fdr()
            },
            ..cfg()
        };
        let nan_launch = DistConfig {
            host: HostModel {
                per_launch_s: f64::NAN,
                ..HostModel::default()
            },
            ..cfg()
        };
        let negative_p2p = DistConfig {
            intranode_net: NetworkSpec {
                latency_s: -1.0,
                ..NetworkSpec::intranode_p2p()
            },
            ..cfg()
        };
        for (bad, rule) in [
            (zero_bandwidth, "bandwidth_gbs must be positive and finite"),
            (
                nan_launch,
                "host model per_launch_s must be non-negative and finite",
            ),
            (negative_p2p, "latency_s must be non-negative and finite"),
        ] {
            let refused = std::panic::catch_unwind(|| run_distributed(&ps, 2, &bad, &Coulomb));
            let payload = refused.expect_err("a broken spec must be refused");
            let message = mpi_sim::panic_message(payload.as_ref());
            assert!(message.contains(rule), "{message}");
        }
    }

    #[test]
    fn single_rank_has_no_remote_traffic() {
        let ps = ParticleSet::random_cube(500, 1);
        let rep = run_distributed(&ps, 1, &cfg(), &Coulomb);
        assert_eq!(rep.traffic.total_remote_bytes(), 0);
        assert_eq!(rep.ranks[0].let_stats.fetched_particles, 0);
        assert_eq!(rep.ranks[0].setup_comm_s, 0.0);
    }

    #[test]
    fn two_ranks_match_direct_sum() {
        let ps = ParticleSet::random_cube(1200, 2);
        let rep = run_distributed(&ps, 2, &cfg(), &Coulomb);
        let exact = direct_sum(&ps, &ps, &Coulomb);
        let err = relative_l2_error(&exact, &rep.potentials);
        assert!(err < 1e-3, "two-rank error {err}");
        assert!(rep.traffic.total_remote_bytes() > 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let ps = ParticleSet::random_cube(800, 3);
        let a = run_distributed(&ps, 3, &cfg(), &Coulomb);
        let b = run_distributed(&ps, 3, &cfg(), &Coulomb);
        assert_eq!(a.potentials, b.potentials);
        assert_eq!(a.total_s, b.total_s);
        assert_eq!(
            a.traffic.total_remote_bytes(),
            b.traffic.total_remote_bytes()
        );
    }

    #[test]
    fn per_rank_phases_sum_to_total() {
        let ps = ParticleSet::random_cube(900, 4);
        let rep = run_distributed(&ps, 3, &cfg(), &Coulomb);
        for r in &rep.ranks {
            // The serial phase sum is exact — pipelining added a second
            // clock, it did not perturb this one.
            assert_eq!(r.setup_total() + r.precompute_s + r.compute_s, r.total());
            // The pipelined critical path reschedules the same work and
            // can only win: never exceed the serial sum, never beat the
            // device-side lower bound of the local block.
            assert!(r.pipelined_s() <= r.total());
            assert!(r.pipelined_s() > 0.0);
            // One NIC serializes the chunk gets and one PCIe link the
            // staging: both end in chunk order, and a chunk stages only
            // after its get lands.
            let ends = |name| chunk_span_ends(&r.pipeline.spans, name);
            let (lands, stages) = (ends("let-chunk-get"), ends("stage"));
            assert!(!lands.is_empty());
            assert_eq!(lands.len(), stages.len());
            assert!(lands.windows(2).all(|w| w[0] <= w[1]));
            assert!(stages.windows(2).all(|w| w[0] <= w[1]));
            for s in r.pipeline.spans.iter().filter(|s| s.name == "stage") {
                let chunk = s.chunk.expect("a stage span names its chunk") as usize;
                assert!(s.start_s >= lands[chunk]);
            }
        }
        assert!(rep.pipelined_s <= rep.total_s);
        assert!(rep.total_ops().num_batches > 0);
    }

    #[test]
    fn single_rank_pipeline_equals_serial() {
        // Nothing remote to overlap: the DAG degenerates to the serial
        // chain (clamped against float reassociation across the two
        // summation orders).
        let ps = ParticleSet::random_cube(700, 41);
        let rep = run_distributed(&ps, 1, &cfg(), &Coulomb);
        let r = &rep.ranks[0];
        assert!(r.pipelined_s() <= r.total());
        assert!((r.pipelined_s() - r.total()).abs() < 1e-12 * r.total());
        assert!(chunk_span_ends(&r.pipeline.spans, "let-chunk-get").is_empty());
    }

    #[test]
    #[should_panic(expected = "more ranks")]
    fn too_many_ranks_rejected() {
        let ps = ParticleSet::random_cube(3, 5);
        let _ = run_distributed(&ps, 8, &cfg(), &Coulomb);
    }

    #[test]
    fn single_rank_field_matches_gpu_engine_bitwise() {
        let ps = ParticleSet::random_cube(900, 6);
        let c = cfg();
        let op: &dyn GradientKernel = &Coulomb;
        let (columns, _, traffic) = run_distributed_on(&ps, &c.partition(&ps, 1), &c, op);
        let dist = FieldResult::from(columns);
        let gpu = GpuEngine::with_spec(c.params, c.spec).compute_field_detailed(&ps, &ps, &Coulomb);
        assert_eq!(dist.potentials, gpu.field.potentials);
        assert_eq!(dist.gx, gpu.field.gx);
        assert_eq!(dist.gy, gpu.field.gy);
        assert_eq!(dist.gz, gpu.field.gz);
        assert_eq!(traffic.total_remote_bytes(), 0);
    }

    #[test]
    fn field_potentials_match_potential_only_run_bitwise() {
        // Same lists, same LET, same scalar potential expressions — the
        // field path's potential output is the potential path's output.
        let ps = ParticleSet::random_cube(1100, 7);
        let c = cfg();
        let pot = run_distributed(&ps, 3, &c, &Coulomb);
        let op: &dyn GradientKernel = &Coulomb;
        let ([potentials, ..], _, _) = run_distributed_on(&ps, &c.partition(&ps, 3), &c, op);
        assert_eq!(pot.potentials, potentials);
    }

    #[test]
    fn field_run_matches_direct_sum_field() {
        use bltc_core::field::direct_sum_field;
        let ps = ParticleSet::random_cube(1200, 8);
        let c = DistConfig::comet(BltcParams::new(0.7, 6, 60, 60));
        let op: &dyn GradientKernel = &Coulomb;
        let (columns, _, _) = run_distributed_on(&ps, &c.partition(&ps, 2), &c, op);
        let field = FieldResult::from(columns);
        let exact = direct_sum_field(&ps, &ps, &Coulomb);
        assert!(relative_l2_error(&exact.potentials, &field.potentials) < 1e-4);
        assert!(relative_l2_error(&exact.gx, &field.gx) < 1e-3, "gx");
        assert!(relative_l2_error(&exact.gy, &field.gy) < 1e-3, "gy");
        assert!(relative_l2_error(&exact.gz, &field.gz) < 1e-3, "gz");
    }

    #[test]
    fn streaming_is_bitwise_invisible_and_bounds_peak_memory() {
        let ps = ParticleSet::random_cube(1000, 10);
        let base = cfg();
        let retained = run_distributed(&ps, 3, &base, &Coulomb);
        // Tight but feasible: well under the retained peaks, above any
        // single cluster payload (proxy m³·8 and leaf-cap particles).
        let budget = 16 * 1024;
        let streamed = run_distributed(
            &ps,
            3,
            &DistConfig {
                let_memory_budget: Some(budget),
                ..base
            },
            &Coulomb,
        );
        assert_eq!(retained.potentials, streamed.potentials);
        assert_eq!(retained.total_s, streamed.total_s);
        assert_eq!(retained.traffic, streamed.traffic);
        for (r, s) in retained.ranks.iter().zip(&streamed.ranks) {
            assert_eq!(r.ops, s.ops);
            assert_eq!(r.let_stats.fetched_particles, s.let_stats.fetched_particles);
            assert_eq!(r.total(), s.total());
            // Retained mode holds the whole payload; streaming holds at
            // most one chunk, within the budget.
            assert_eq!(r.peak_let_bytes, r.let_bytes - skeleton_bytes_of(r));
            assert!(
                s.peak_let_bytes <= budget,
                "rank {}: peak {} > budget {budget}",
                s.rank,
                s.peak_let_bytes
            );
            assert!(s.peak_let_bytes > 0);
            assert!(s.peak_let_bytes < r.peak_let_bytes);
        }
    }

    /// Payload (device-staged) bytes of a rank = total one-sided bytes
    /// minus the skeleton gets, reconstructed from the LET stats.
    fn skeleton_bytes_of(r: &RankReport) -> u64 {
        r.let_stats.remote_skeleton_nodes * std::mem::size_of::<letree::NodeMeta>() as u64
    }

    #[test]
    fn two_level_hierarchy_prices_intranode_traffic_cheaper() {
        let ps = ParticleSet::random_cube(1200, 11);
        let hier = DistConfig {
            gpus_per_node: 2,
            ..cfg()
        };
        // Same two-level partition, but intra-node pairs priced on the
        // fabric — isolates the pricing term from the decomposition.
        let flat_priced = DistConfig {
            intranode_net: hier.net,
            ..hier
        };
        let a = run_distributed(&ps, 4, &hier, &Coulomb);
        let b = run_distributed(&ps, 4, &flat_priced, &Coulomb);
        // Pricing never touches data: identical potentials and traffic.
        assert_eq!(a.potentials, b.potentials);
        assert_eq!(a.traffic, b.traffic);
        for (ra, rb) in a.ranks.iter().zip(&b.ranks) {
            // Every rank has one same-node peer with nonzero traffic, so
            // the cheap intra-node link must strictly lower its comm
            // clock.
            assert!(
                ra.setup_comm_s < rb.setup_comm_s,
                "rank {}: {} !< {}",
                ra.rank,
                ra.setup_comm_s,
                rb.setup_comm_s
            );
            assert!(ra.pipelined_s() <= ra.total());
        }
        // And the hierarchy still computes the right answer.
        let exact = direct_sum(&ps, &ps, &Coulomb);
        assert!(relative_l2_error(&exact, &a.potentials) < 1e-3);
    }

    #[test]
    fn hierarchy_rejects_partial_nodes() {
        let ps = ParticleSet::random_cube(200, 12);
        let hier = DistConfig {
            gpus_per_node: 2,
            ..cfg()
        };
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| hier.partition(&ps, 3)));
        assert!(err.is_err(), "3 ranks is not a whole number of 2-GPU nodes");
    }

    #[test]
    fn gradient_kernels_inflate_the_compute_clock() {
        let ps = ParticleSet::random_cube(1500, 9);
        let c = cfg();
        let pot = run_distributed(&ps, 2, &c, &Coulomb);
        let op: &dyn GradientKernel = &Coulomb;
        let (_, fld, _) = run_distributed_on(&ps, &c.partition(&ps, 2), &c, op);
        for (p, f) in pot.ranks.iter().zip(&fld) {
            assert!(
                f.compute_s > p.compute_s,
                "rank {}: field compute {} !> potential compute {}",
                p.rank,
                f.compute_s,
                p.compute_s
            );
            // Same interactions, same LET, same traffic.
            assert_eq!(p.ops, f.ops);
            assert_eq!(p.let_bytes, f.let_bytes);
            assert_eq!(p.let_messages, f.let_messages);
            assert_eq!(p.setup_comm_s, f.setup_comm_s);
        }
        assert!(PhaseMaxima::over(&fld).compute_s > pot.compute_s);
    }
}
