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
//!    charges computed on the device and copied back), then exposes
//!    three RMA windows: the tree *skeleton*, the tree-ordered
//!    particles, and the per-cluster modified charges — the very buffer
//!    that device-to-host copy produced (paper §3.1–3.2).
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
//! communication through the α–β model over the recorded one-sided
//! traffic — so two runs differing only in fabric produce identical
//! potentials and differ exactly in the modeled communication seconds.
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
//!   streams each LET's payload in chunks of
//!   [`DistConfig::let_chunk`] clusters (`letree`'s issue → plan →
//!   land stages) once its traversal has demanded them;
//! - the **PCIe** link stages each chunk after it lands;
//! - the **device** starts the local block (staging, precompute, local
//!   compute) the moment the local lists exist, and dispatches
//!   remote-eval kernels onto [`DistConfig::streams`] simulated
//!   streams (`gpu-sim`'s scheduler via `bltc_gpu::pipeline`) as their
//!   chunks become ready.
//!
//! This is the overlap the paper's one-sided design exists to enable:
//! LET gets hide behind local compute, and ≥2 streams hide remote
//! launch latencies behind exec phases. Execution itself is **not**
//! reordered — the same gets run in the same order, the same kernels
//! produce bitwise-identical potentials — so `pipelined_s ≤ total_s`
//! is a checkable invariant, with equality on one rank.
//!
//! ## One pipeline, four doors
//!
//! Every entry point is a thin wrapper around [`eval_rank`]; they differ
//! in who owns the world and where the result lands:
//!
//! - [`run_distributed`] — potentials (`&dyn Kernel`) on a fresh
//!   `run_spmd` world, assembled into a [`DistReport`];
//! - [`run_distributed_field`] — potentials **and** 3-component
//!   gradients (`&dyn GradientKernel`) into a [`DistFieldReport`], for
//!   the astrophysics / MD workloads where forces `F = -q∇φ` are the
//!   quantity of interest;
//! - [`run_distributed_field_on`] — the same with a caller-supplied
//!   (cached) RCB partition, so a time-stepping driver can refresh the
//!   decomposition on a cadence instead of every step;
//! - [`FieldSession::eval_field`] — the same body as an epoch against
//!   live ranks whose particles stay resident between calls (`bltc-sim`
//!   steps through it).
//!
//! All of them validate their decomposition with one driver-side check
//! and fold their per-rank reports through one [`PhaseMaxima`].
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
//! ## Memory-bounded LET streaming
//!
//! By default every rank retains its whole LET (all fetched charges and
//! particles) through evaluation, so peak resident remote payload grows
//! with the surface of the rank's region — the wall between the 32-rank
//! harness and the paper's billion-particle runs. Setting
//! [`DistConfig::let_memory_budget`] switches the remote path to
//! **evaluate-and-discard streaming**: each fetch chunk (capped at the
//! budget in payload bytes) is landed in its own passive-target epoch,
//! its clusters are evaluated into persistent batch-order partials, and
//! its payload is dropped before the next chunk lands. The peak
//! resident payload — reported per rank as
//! [`RankReport::peak_let_bytes`] — is then the largest single chunk
//! instead of the whole LET.
//!
//! Streaming is **bitwise invisible** everywhere except that peak and
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

pub use model::{ChunkClock, HostModel, PipelineReport};
pub use persistent::{
    FieldSession, MigrationRankStats, MigrationReport, RankLocal, SessionFieldReport, Snapshot,
};

use bltc_core::config::BltcParams;
use bltc_core::cost::OpCounts;
use bltc_core::field::FieldResult;
use bltc_core::kernel::{GradientKernel, Kernel, TileOp};
use bltc_core::particles::ParticleSet;
use bltc_gpu::{GpuEngine, GpuSimBreakdown};
use gpu_sim::DeviceSpec;
use mpi_sim::runtime::TrafficMatrix;
use mpi_sim::{run_spmd, Comm, NetworkSpec};
use rcb::{partition_particles, rcb_partition, rcb_partition_two_level, RcbPartition};

use letree::{
    eval_remote_into, issue_remote_let, land_remote_let, plan_chunks, stream_remote_let, CommTally,
    LetPlan, LetWindows, RemoteEval,
};
use model::{pipelined_clock, ChunkCost, LetFetchPlan};

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
    /// Clusters per LET fetch chunk in the pipelined epoch. Chunking
    /// changes neither results nor traffic (the same per-cluster gets
    /// run in the same order); it only sets the granularity at which
    /// the pipelined clock can overlap landing data with evaluation.
    pub let_chunk: usize,
    /// Memory budget for resident remote-LET payload bytes per rank.
    ///
    /// `None` (the default) retains every LET through evaluation — peak
    /// resident payload is the whole LET. `Some(b)` switches the remote
    /// path to **streaming** (evaluate-and-discard): each fetch chunk is
    /// landed, evaluated, and dropped before the next lands, and the
    /// chunk planner additionally caps chunk payloads at `b` bytes (a
    /// single cluster whose payload alone exceeds `b` still travels as
    /// its own over-budget chunk — the minimum resident unit). Results,
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
            let_chunk: 32,
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
    /// With `gpus_per_node > 1`, panics unless `ranks` is a whole
    /// number of nodes.
    pub fn partition(&self, ps: &ParticleSet, ranks: usize) -> RcbPartition {
        let g = self.gpus_per_node.max(1);
        if g == 1 {
            rcb_partition(ps, ranks, None)
        } else {
            assert_eq!(
                ranks % g,
                0,
                "rank count {ranks} is not a whole number of {g}-GPU nodes"
            );
            rcb_partition_two_level(ps, ranks / g, g, None)
        }
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
/// The per-rank tallies are not estimates; they are counted at the RMA
/// call sites and must reconcile *exactly* against the runtime's
/// [`TrafficMatrix`] (the test suites enforce this):
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
    /// One-sided RMA operations this rank originated. All of a rank's
    /// communication is *issued* during LET construction; evaluation —
    /// potential or gradient — adds none, so these tallies must
    /// reconcile exactly with the run's [`TrafficMatrix`]. (Whether
    /// those transfers sit on the critical path is a separate, clock-
    /// level question: serially they are billed to `setup_comm_s`; the
    /// pipelined clock overlaps them with local compute.)
    pub let_messages: u64,
    /// Payload bytes of those one-sided operations.
    pub let_bytes: u64,
    /// Peak resident remote-LET payload bytes on this rank (modified
    /// charges + particles — the same device-staged classification the
    /// traffic tally uses; skeletons and locally derived grids are
    /// excluded). Retained mode holds every LET through evaluation, so
    /// the peak is the whole payload; streaming mode
    /// ([`DistConfig::let_memory_budget`]) holds one chunk at a time,
    /// so the peak is the largest single chunk — `≤` the budget
    /// whenever every single-cluster payload fits it.
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
    /// their chunks become ready), plus per-chunk land times. Satisfies
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

/// Aggregate result of a distributed **field** (potential + gradient)
/// run: the per-rank field results assembled back into original target
/// order, plus the same per-rank/phase/traffic accounting as
/// [`DistReport`].
///
/// The [`RankReport`] traffic-accounting invariants hold here verbatim:
/// summed per-rank `let_messages`/`let_bytes` equal the
/// [`TrafficMatrix`] remote totals, the matrix is per-pair identical to
/// a potential-only run of the same problem (gradient evaluation
/// fetches nothing extra), and time-stepping drivers may therefore
/// accumulate step matrices ([`TrafficMatrix::accumulate`]) knowing the
/// cumulative matrix still reconciles against summed rank tallies.
#[derive(Debug, Clone)]
pub struct DistFieldReport {
    /// Potentials and gradients in the *original* (global) target order.
    /// The force on charge `q_i` is `-q_i · (gx, gy, gz)[i]`.
    pub field: FieldResult,
    /// Per-rank reports, indexed by rank.
    pub ranks: Vec<RankReport>,
    /// One-sided traffic recorded by the runtime, per (origin, target).
    /// Identical to the potential-only run on the same problem: the
    /// field path fetches nothing extra.
    pub traffic: TrafficMatrix,
    /// Bulk-synchronous setup seconds: max over ranks.
    pub setup_s: f64,
    /// Bulk-synchronous precompute seconds: max over ranks.
    pub precompute_s: f64,
    /// Bulk-synchronous compute seconds: max over ranks (~4× the
    /// potential-only compute phase — gradient kernels).
    pub compute_s: f64,
    /// Modeled run time: max over ranks of the per-rank totals.
    pub total_s: f64,
    /// Pipelined run time: max over ranks of the per-rank critical
    /// paths (`≤ total_s`).
    pub pipelined_s: f64,
}

impl DistFieldReport {
    /// Exact aggregate op counts over all ranks.
    pub fn total_ops(&self) -> OpCounts {
        self.ranks
            .iter()
            .fold(OpCounts::default(), |acc, r| acc.merged(&r.ops))
    }
}

/// The bulk-synchronous phase clocks of one evaluation: ranks run side
/// by side, so each phase costs what its slowest rank takes. Every
/// aggregate report ([`DistReport`], [`DistFieldReport`],
/// [`SessionFieldReport`], `bltc-sim`'s step reports) folds its per-rank
/// reports through this one definition.
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

/// Per-rank modeled phase clocks (shared by the potential and field
/// paths; the caller supplies the remote-evaluation flops, which is
/// where the ~4× gradient-kernel cost enters).
struct RankClocks {
    setup_host_s: f64,
    setup_comm_s: f64,
    setup_stage_s: f64,
    precompute_s: f64,
    compute_s: f64,
}

impl RankClocks {
    /// Serial phase sum — the clock the pipelined critical path is
    /// clamped against.
    fn total(&self) -> f64 {
        self.setup_host_s
            + self.setup_comm_s
            + self.setup_stage_s
            + self.precompute_s
            + self.compute_s
    }
}

#[allow(clippy::too_many_arguments)]
fn model_rank_clocks(
    cfg: &DistConfig,
    rank: usize,
    sim: &GpuSimBreakdown,
    local_len: usize,
    levels: usize,
    ops: &OpCounts,
    let_stats: &LetStats,
    tally: &CommTally,
    plans: &[LetPlan],
    remote_flops: f64,
    remote_device_bytes: f64,
    remote_launches: u64,
) -> RankClocks {
    let setup_host_s = cfg.host.setup_seconds(
        local_len,
        levels,
        ops.kernel_launches,
        let_stats.fetched_particles,
    );
    // Price each LET's traffic on the link its (rank, target) pair
    // actually crosses: intra-node P2P between ranks sharing a node,
    // the fabric otherwise. Messages and bytes are summed per target as
    // integers before one α–β evaluation per target, so the clock is
    // independent of chunk granularity (and hence of the memory
    // budget); with `gpus_per_node == 1` it degenerates to pricing the
    // whole tally on the fabric, per target.
    let mut setup_comm_s = 0.0;
    let (mut msgs_total, mut bytes_total) = (0u64, 0u64);
    for p in plans {
        let msgs = 1 + p.chunks.iter().map(|c| c.messages).sum::<u64>();
        let bytes = p.skeleton_bytes + p.chunks.iter().map(|c| c.bytes).sum::<u64>();
        setup_comm_s += cfg.link(rank, p.target).seconds_for(msgs, bytes);
        msgs_total += msgs;
        bytes_total += bytes;
    }
    debug_assert_eq!(
        (msgs_total, bytes_total),
        (tally.messages, tally.bytes),
        "per-target LET schedules must cover the rank's whole one-sided tally"
    );
    let stage_let_s = if tally.device_bytes > 0 {
        cfg.spec.transfer_seconds(tally.device_bytes as f64)
    } else {
        0.0
    };
    let setup_stage_s = sim.htod_sources_s + sim.htod_let_s + stage_let_s;
    let precompute_s = sim.precompute_s + sim.dtoh_charges_s;
    let remote_exec_s = cfg.spec.exec_seconds(remote_flops, remote_device_bytes)
        + remote_launches as f64 * (cfg.spec.host_enqueue_s + cfg.spec.launch_latency_s);
    let compute_s = sim.compute_s + sim.dtoh_potentials_s + remote_exec_s;
    RankClocks {
        setup_host_s,
        setup_comm_s,
        setup_stage_s,
        precompute_s,
        compute_s,
    }
}

/// Weight the retained LET chunk schedules by the evaluating kernel:
/// the chunk structure is identical for the potential and field paths
/// (same lists, same LET, same traffic — an invariant the tests pin);
/// only the flops per interaction and the `f64` columns a launch touches
/// per target ([`TileOp::TARGET_COLS`]: 4 vs 7) differ.
fn chunk_fetch_plans(
    plans: &[LetPlan],
    flops_per_eval: f64,
    target_cols: u64,
) -> Vec<LetFetchPlan> {
    plans
        .iter()
        .map(|p| LetFetchPlan {
            target: p.target,
            skeleton_bytes: p.skeleton_bytes,
            traversal_launches: p.chunks.iter().map(|c| c.launches).sum(),
            chunks: p
                .chunks
                .iter()
                .map(|c| ChunkCost {
                    messages: c.messages,
                    bytes: c.bytes,
                    fetched_particles: c.fetched_particles,
                    launches: c.launches,
                    exec_flops: c.interactions as f64 * flops_per_eval,
                    eval_bytes: ((c.eval_targets * target_cols + c.eval_sources * 4) * 8) as f64,
                })
                .collect(),
        })
        .collect()
}

/// The plan stage derives every chunk cost analytically from the
/// interaction lists; the consume stage counts the same quantities while
/// evaluating. They must agree exactly — the pipelined clock feeds on
/// the plan, the serial clock on the evaluation tallies.
fn debug_assert_plans_reconcile(
    let_plans: &[LetPlan],
    tally: &CommTally,
    plans: &[LetFetchPlan],
    remote_ops: &OpCounts,
    device_bytes: f64,
) {
    if cfg!(debug_assertions) {
        let chunks = || plans.iter().flat_map(|p| &p.chunks);
        let launches: u64 = chunks().map(|c| c.launches).sum();
        debug_assert_eq!(launches, remote_ops.kernel_launches);
        let interactions: u64 = let_plans
            .iter()
            .flat_map(|p| &p.chunks)
            .map(|c| c.interactions)
            .sum();
        debug_assert_eq!(
            interactions,
            remote_ops.approx_interactions + remote_ops.direct_interactions
        );
        let eval_bytes: f64 = chunks().map(|c| c.eval_bytes).sum();
        debug_assert_eq!(eval_bytes, device_bytes);
        let payload: u64 = chunks().map(|c| c.bytes).sum();
        debug_assert_eq!(payload, tally.device_bytes);
        let messages: u64 = chunks().map(|c| c.messages).sum();
        debug_assert_eq!(
            messages + let_plans.len() as u64,
            tally.messages,
            "chunk gets + one skeleton get per LET must cover the tally"
        );
    }
}

/// The one decomposition check behind every door that takes particles,
/// a rank count and (optionally) a caller-supplied partition — the
/// one-shots, [`run_distributed_field_on`] and
/// [`FieldSession::launch_reusing`] — so bad input is refused on the
/// driver thread, before any rank runs.
pub(crate) fn check_decomposition(
    ps: &ParticleSet,
    ranks: usize,
    part: Option<&RcbPartition>,
    cfg: &DistConfig,
) {
    assert!(ranks >= 1, "need at least one rank");
    assert!(!ps.is_empty(), "cannot distribute an empty particle set");
    assert!(
        ranks <= ps.len(),
        "more ranks ({ranks}) than particles ({})",
        ps.len()
    );
    cfg.params.validate();
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
///    batches and lists and computes every cluster's modified charges on
///    the simulated device;
/// 2. **expose** the skeleton / particle / modified-charge windows — the
///    charge window *is* the buffer the staged run's DtH copied back;
/// 3. **LETs** — per remote rank issue → plan → land over passive-target
///    RMA, evaluated into batch-order partial columns: chunk by chunk
///    (evaluate-and-discard) iff [`DistConfig::let_memory_budget`] is
///    set, otherwise after every LET has landed whole. Both modes issue
///    identical gets in identical order and record identical traffic;
/// 4. **local evaluation** — [`bltc_gpu::StagedRun::finish`] continues
///    the staged device clock with the compute phase;
/// 5. the modeled serial and pipelined clocks.
///
/// [`run_distributed`], [`run_distributed_field`] and
/// [`run_distributed_field_on`] execute it under `run_spmd`;
/// [`persistent::FieldSession`] (or any [`mpi_sim::Session::run_epoch`]
/// closure) runs the *same* body as an epoch against live ranks. Must be
/// called from every rank of the SPMD context with the same `cfg` — it
/// contains collectives (window creation and the closing barrier).
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
    let mut staged = GpuEngine::with_spec(*params, cfg.spec)
        .with_streams(cfg.streams)
        .stage(local, local);
    let qhat = std::mem::take(&mut staged.qhat_host);
    let wins = LetWindows::expose(comm, staged.tree(), qhat);
    let batches = staged.batches();

    // ---- LET construction (fully one-sided, staged) + remote pass ----
    let streaming = cfg.let_memory_budget.is_some();
    let mut remote = RemoteEval::<C>::zeros(local.len());
    let mut tally = CommTally::default();
    let mut let_stats = LetStats::default();
    let mut plans = Vec::with_capacity(comm.size().saturating_sub(1));
    let mut lets = Vec::new();
    let mut peak_let_bytes = 0u64;
    for t in (0..comm.size()).filter(|&t| t != rank) {
        let issue = issue_remote_let(t, batches, params, &wins, &mut tally);
        let chunks = plan_chunks(&issue, batches, m3, cfg.let_chunk, cfg.let_memory_budget);
        let_stats.remote_skeleton_nodes += issue.nodes.len() as u64;
        let_stats.remote_approx_nodes += issue.approx.len() as u64;
        let_stats.remote_direct_nodes += issue.direct.len() as u64;
        let_stats.fetched_particles += chunks.iter().map(|c| c.fetched_particles).sum::<u64>();
        let_stats.fetched_proxy_charges += (issue.approx.len() * m3) as u64;
        let skeleton_bytes = issue.skeleton_bytes;
        if streaming {
            let peak = stream_remote_let(
                &issue,
                &chunks,
                batches,
                &wins,
                params,
                &mut tally,
                op,
                &mut remote,
            );
            peak_let_bytes = peak_let_bytes.max(peak);
        } else {
            lets.push(land_remote_let(issue, &chunks, &wins, params, &mut tally));
        }
        plans.push(LetPlan {
            target: t,
            skeleton_bytes,
            chunks,
        });
    }
    if !streaming {
        // Every LET stays resident through evaluation: the peak is the
        // whole device-staged payload.
        peak_let_bytes = tally.device_bytes;
        for l in &lets {
            eval_remote_into(l, batches, op, &mut remote);
        }
    }
    // Alone, a rank has no remote columns to add — and must not add
    // zeros either: `-0.0 + 0.0` is `+0.0`.
    let remote_cols = (comm.size() > 1).then(|| {
        let cols = remote.cols.each_ref();
        cols.map(|c| batches.scatter_to_original(c))
    });
    let (tree_nodes, num_batches) = (staged.tree().num_nodes(), batches.len());

    // ---- local evaluation on the simulated GPU -----------------------
    let gpu = staged.finish(op);
    let mut columns = gpu.columns;
    if let Some(remote_cols) = remote_cols {
        for (col, rem) in columns.iter_mut().zip(remote_cols) {
            for (p, r) in col.iter_mut().zip(rem) {
                *p += r;
            }
        }
    }
    let ops = gpu.ops.merged(&remote.ops);

    // ---- modeled clocks (the op's flops on the remote pass) -----------
    let levels = gpu.tree_stats.max_level + 1;
    let clocks = model_rank_clocks(
        cfg,
        rank,
        &gpu.sim,
        local.len(),
        levels,
        &ops,
        &let_stats,
        &tally,
        &plans,
        remote.ops.pass_flops(op, true),
        remote.device_bytes,
        remote.ops.kernel_launches,
    );
    let fetch_plans = chunk_fetch_plans(&plans, op.flops_per_pair(true), O::TARGET_COLS as u64);
    debug_assert_plans_reconcile(
        &plans,
        &tally,
        &fetch_plans,
        &remote.ops,
        remote.device_bytes,
    );
    let pipeline = pipelined_clock(
        cfg,
        rank,
        &gpu.sim,
        local.len(),
        levels,
        gpu.ops.kernel_launches,
        &fetch_plans,
        clocks.total(),
    );

    // Deposit this epoch's phase-DAG spans for the driver to drain
    // (observational only; also carried in the report's pipeline).
    if comm.tracing_enabled() {
        comm.trace_spans(pipeline.spans.iter().copied());
    }

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
        let_messages: tally.messages,
        let_bytes: tally.bytes,
        peak_let_bytes,
        setup_host_s: clocks.setup_host_s,
        setup_comm_s: clocks.setup_comm_s,
        setup_stage_s: clocks.setup_stage_s,
        precompute_s: clocks.precompute_s,
        compute_s: clocks.compute_s,
        pipeline,
        ops,
    };
    (report, columns)
}

/// One evaluation on a fresh SPMD world: scatter `ps` by `part`, run
/// [`eval_rank`] on every rank, and assemble the pass's columns back into
/// the original (global) target order.
fn run_world<const C: usize, O: TileOp<C> + ?Sized>(
    ps: &ParticleSet,
    part: &RcbPartition,
    cfg: &DistConfig,
    op: &O,
) -> ([Vec<f64>; C], Vec<RankReport>, TrafficMatrix) {
    let locals = partition_particles(ps, part);
    let out = run_spmd(part.num_parts(), |comm| {
        eval_rank(&comm, &locals[comm.rank()], cfg, op)
    });
    let mut columns: [Vec<f64>; C] = std::array::from_fn(|_| vec![0.0; ps.len()]);
    let mut reports = Vec::with_capacity(part.num_parts());
    for ((report, local_cols), ids) in out.results.into_iter().zip(&part.part_indices) {
        for (col, local_col) in columns.iter_mut().zip(&local_cols) {
            for (&orig, &v) in ids.iter().zip(local_col) {
                col[orig] = v;
            }
        }
        reports.push(report);
    }
    (columns, reports, out.traffic)
}

/// Validate the inputs and compute the RCB decomposition `cfg` implies.
fn decompose(ps: &ParticleSet, ranks: usize, cfg: &DistConfig) -> RcbPartition {
    check_decomposition(ps, ranks, None, cfg);
    cfg.partition(ps, ranks)
}

/// Run the full distributed pipeline on `ranks` simulated ranks.
///
/// Ranks execute as real OS threads under `mpi_sim::run_spmd`; all
/// inter-rank data movement happens through one-sided RMA windows and is
/// recorded in the returned traffic matrix. With `ranks == 1` the result
/// is bitwise identical to `GpuEngine::with_spec(params, cfg.spec)` on
/// the whole problem.
pub fn run_distributed(
    ps: &ParticleSet,
    ranks: usize,
    cfg: &DistConfig,
    kernel: &dyn Kernel,
) -> DistReport {
    let part = decompose(ps, ranks, cfg);
    let ([potentials], ranks, traffic) = run_world(ps, &part, cfg, kernel);
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

/// Run the full distributed **field** pipeline on `ranks` simulated
/// ranks: the same pipeline as [`run_distributed`] with a gradient
/// kernel as the op, so every evaluation — the local simulated-GPU pass
/// and the remote LET contributions — produces potentials *and*
/// 3-component gradients.
///
/// The LET is reused unchanged (modified charges differentiate for free
/// with respect to the target), so the field run records exactly the
/// same one-sided traffic as a potential run; only the device clock
/// (~4× compute flops, 4× DtH volume) differs. With `ranks == 1` the
/// result is bitwise identical to
/// [`GpuEngine::compute_field_detailed`] on the whole problem.
pub fn run_distributed_field(
    ps: &ParticleSet,
    ranks: usize,
    cfg: &DistConfig,
    kernel: &dyn GradientKernel,
) -> DistFieldReport {
    run_distributed_field_on(ps, &decompose(ps, ranks, cfg), cfg, kernel)
}

/// Step-level re-entry into the field pipeline: run it with a
/// **caller-supplied** RCB partition instead of recomputing one.
///
/// Time-stepping drivers (`bltc-sim`) call the force evaluation once
/// per step while particle *positions* drift slowly relative to the
/// decomposition; re-partitioning every step would charge the RCB host
/// cost N times for no accuracy gain. This entry point lets the driver
/// hold the partition fixed between repartition-cadence boundaries:
/// rank ownership is frozen (so per-rank particle counts cannot
/// change), while trees, charges, windows, and LETs are rebuilt from
/// the *current* positions on every call — they must be, since every
/// particle has moved.
///
/// A stale partition is still *correct* — the per-rank source trees are
/// built from the particles' live bounding boxes, not from the original
/// RCB regions — it is merely less compact, which surfaces honestly as
/// more LET traffic in the returned [`DistFieldReport::traffic`]. That
/// is exactly the trade a repartition cadence buys.
///
/// # Panics
///
/// Panics if the partition does not cover `ps` (assignment length
/// mismatch), if any part is empty, or on invalid `cfg.params`.
pub fn run_distributed_field_on(
    ps: &ParticleSet,
    part: &RcbPartition,
    cfg: &DistConfig,
    kernel: &dyn GradientKernel,
) -> DistFieldReport {
    check_decomposition(ps, part.num_parts(), Some(part), cfg);
    let (columns, ranks, traffic) = run_world(ps, part, cfg, kernel);
    let clocks = PhaseMaxima::over(&ranks);
    DistFieldReport {
        field: columns.into(),
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
    use bltc_core::kernel::Coulomb;

    fn cfg() -> DistConfig {
        DistConfig::comet(BltcParams::new(0.8, 3, 60, 60))
    }

    #[test]
    fn comet_preset_matches_paper_platform() {
        let c = cfg();
        assert_eq!(c.spec.name, DeviceSpec::p100().name);
        assert_eq!(c.net.name, NetworkSpec::infiniband_fdr().name);
        assert!(c.streams >= 1);
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
            // One NIC serializes the chunk gets: land times and ready
            // times are nondecreasing in dispatch order.
            for w in r.pipeline.chunks.windows(2) {
                assert!(w[0].land_s <= w[1].land_s);
                assert!(w[0].ready_s <= w[1].ready_s);
            }
            for c in &r.pipeline.chunks {
                assert!(c.ready_s >= c.land_s);
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
        assert!(r.pipeline.chunks.is_empty());
        assert_eq!(r.pipeline.last_land_s, 0.0);
    }

    #[test]
    fn chunk_granularity_changes_clock_only() {
        // let_chunk is a modeling knob: any granularity fetches the same
        // bytes in the same order and yields bitwise-identical results
        // and serial clocks; only the pipelined critical path moves.
        let ps = ParticleSet::random_cube(1000, 42);
        let base = cfg();
        let fine = DistConfig {
            let_chunk: 4,
            ..base
        };
        let a = run_distributed(&ps, 3, &base, &Coulomb);
        let b = run_distributed(&ps, 3, &fine, &Coulomb);
        assert_eq!(a.potentials, b.potentials);
        assert_eq!(a.total_s, b.total_s);
        for (ra, rb) in a.ranks.iter().zip(&b.ranks) {
            assert_eq!(ra.let_messages, rb.let_messages);
            assert_eq!(ra.let_bytes, rb.let_bytes);
            assert_eq!(ra.total(), rb.total());
            assert!(rb.pipeline.chunks.len() >= ra.pipeline.chunks.len());
            assert!(rb.pipelined_s() <= rb.total());
        }
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
        let dist = run_distributed_field(&ps, 1, &c, &Coulomb);
        let gpu = GpuEngine::with_spec(c.params, c.spec).compute_field_detailed(&ps, &ps, &Coulomb);
        assert_eq!(dist.field.potentials, gpu.field.potentials);
        assert_eq!(dist.field.gx, gpu.field.gx);
        assert_eq!(dist.field.gy, gpu.field.gy);
        assert_eq!(dist.field.gz, gpu.field.gz);
        assert_eq!(dist.traffic.total_remote_bytes(), 0);
    }

    #[test]
    fn field_potentials_match_potential_only_run_bitwise() {
        // Same lists, same LET, same scalar potential expressions — the
        // field path's potential output is the potential path's output.
        let ps = ParticleSet::random_cube(1100, 7);
        let pot = run_distributed(&ps, 3, &cfg(), &Coulomb);
        let fld = run_distributed_field(&ps, 3, &cfg(), &Coulomb);
        assert_eq!(pot.potentials, fld.field.potentials);
    }

    #[test]
    fn field_run_matches_direct_sum_field() {
        use bltc_core::field::direct_sum_field;
        let ps = ParticleSet::random_cube(1200, 8);
        let c = DistConfig::comet(BltcParams::new(0.7, 6, 60, 60));
        let rep = run_distributed_field(&ps, 2, &c, &Coulomb);
        let exact = direct_sum_field(&ps, &ps, &Coulomb);
        assert!(relative_l2_error(&exact.potentials, &rep.field.potentials) < 1e-4);
        assert!(relative_l2_error(&exact.gx, &rep.field.gx) < 1e-3, "gx");
        assert!(relative_l2_error(&exact.gy, &rep.field.gy) < 1e-3, "gy");
        assert!(relative_l2_error(&exact.gz, &rep.field.gz) < 1e-3, "gz");
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
        let pot = run_distributed(&ps, 2, &cfg(), &Coulomb);
        let fld = run_distributed_field(&ps, 2, &cfg(), &Coulomb);
        for (p, f) in pot.ranks.iter().zip(&fld.ranks) {
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
        assert!(fld.compute_s > pot.compute_s);
    }
}
