//! The rank's modeled clocks: the analytic host-side cost model, and the
//! one pricing of a rank's epoch with its two views.
//!
//! The paper's "setup" phase (tree construction, batch construction,
//! interaction-list traversal, LET assembly) runs on the host CPU. The
//! harnesses in this workspace run on arbitrary container hardware, so
//! — like the GPU clock in `gpu-sim` and the CPU clock in
//! `bltc_core::cost` — setup seconds are *modeled* from exact work
//! counts rather than measured. That keeps every reported phase time
//! deterministic (a property the distributed tests rely on: two runs
//! over different network fabrics must differ **only** in modeled
//! communication seconds).
//!
//! `price_epoch` prices an epoch once — the host build, the payload
//! staging and the remote exec seconds are each one expression over the
//! chunk plans the evaluation consumed (`letree::LetPlan`) — and hands
//! back two views of it. The *serial* view is the five phase clocks of
//! the bulk-synchronous chain. The *pipelined* view schedules the same
//! work items on four resources (host, NIC, PCIe, and a `gpu-sim`
//! device of its own for the remote kernels) as an explicit phase DAG.
//! It never changes what work exists — every second the serial phases
//! charge appears in the DAG exactly once — so its makespan is provably
//! ≤ the serial phase sum. Its resident-byte stamps come from the one
//! residency rule beside the plans (`letree::resident_bytes`).

use bltc_core::kernel::TileOp;
use bltc_gpu::GpuSimBreakdown;
use bltc_trace::{Phase, Span, Track};
use gpu_sim::{Device, LaunchConfig, WorkEstimate};

use crate::letree::{remote_device_bytes, resident_bytes, ChunkPlan, LetPlan};
use crate::DistConfig;

/// Linear cost model for host-side setup work.
///
/// `setup ≈ base + a·N·levels + b·launches + c·fetched`, where the
/// `N·levels` term covers tree/batch construction (each particle is
/// touched once per level during splitting), the `launches` term covers
/// interaction-list traversal and kernel enqueueing, and the `fetched`
/// term covers unpacking remote LET data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostModel {
    /// Seconds per particle per tree level (sort/split/scan work).
    pub per_particle_level_s: f64,
    /// Seconds per batch–cluster kernel launch (traversal + enqueue).
    pub per_launch_s: f64,
    /// Seconds per remote particle fetched into the LET.
    pub per_fetched_particle_s: f64,
    /// Fixed per-run overhead.
    pub base_s: f64,
    /// Seconds to spawn one rank thread and initialize its communicator
    /// state (the per-rank share of standing up an SPMD world — thread
    /// creation, barrier/rendezvous setup, window infrastructure).
    pub rank_spawn_s: f64,
    /// Seconds per particle the *driver* pays to scatter the inputs and
    /// gather the results of a world that lives for one call (the
    /// one-shot doors, where all particle data passes through the driver
    /// every call).
    pub per_particle_gather_s: f64,
    /// Seconds to submit one epoch to the live ranks of a persistent
    /// session (rendezvous hand-off; no particle data moves).
    pub epoch_submit_s: f64,
}

impl Default for HostModel {
    /// Calibrated against a ~2 GHz server core running the host phases
    /// of this very implementation (order-of-magnitude fidelity is all
    /// the phase-share figures need).
    fn default() -> Self {
        Self {
            per_particle_level_s: 6e-9,
            per_launch_s: 1.5e-7,
            per_fetched_particle_s: 2.5e-8,
            base_s: 2e-5,
            rank_spawn_s: 5e-5,
            per_particle_gather_s: 4e-9,
            epoch_submit_s: 2e-6,
        }
    }
}

impl HostModel {
    /// Every coefficient finite and non-negative: a `NaN` or negative
    /// coefficient would poison or invert every host clock it prices.
    pub fn validate(&self) -> Result<(), String> {
        let coefficients = [
            ("per_particle_level_s", self.per_particle_level_s),
            ("per_launch_s", self.per_launch_s),
            ("per_fetched_particle_s", self.per_fetched_particle_s),
            ("base_s", self.base_s),
            ("rank_spawn_s", self.rank_spawn_s),
            ("per_particle_gather_s", self.per_particle_gather_s),
            ("epoch_submit_s", self.epoch_submit_s),
        ];
        match coefficients
            .iter()
            .find(|(_, v)| !(v.is_finite() && *v >= 0.0))
        {
            Some((name, v)) => Err(format!(
                "host model {name} must be non-negative and finite, got {v}"
            )),
            None => Ok(()),
        }
    }

    /// Modeled setup seconds for one rank.
    ///
    /// * `n` — particles the rank builds trees/batches over,
    /// * `levels` — tree depth (max level + 1),
    /// * `kernel_launches` — batch–cluster pairs enqueued,
    /// * `fetched_particles` — remote particles unpacked into the LET.
    pub fn setup_seconds(
        &self,
        n: usize,
        levels: usize,
        kernel_launches: u64,
        fetched_particles: u64,
    ) -> f64 {
        self.build_seconds(n, levels)
            + self.per_launch_s * kernel_launches as f64
            + self.per_fetched_particle_s * fetched_particles as f64
    }

    /// Modeled host seconds of one rank's tree and batch build, where
    /// both views of an epoch start: the `N·levels` term of
    /// [`HostModel::setup_seconds`].
    pub(crate) fn build_seconds(&self, n: usize, levels: usize) -> f64 {
        self.base_s + self.per_particle_level_s * n as f64 * levels.max(1) as f64
    }

    /// Modeled host seconds for one RCB decomposition of `n` particles
    /// into `parts` parts.
    ///
    /// RCB performs `⌈log₂ parts⌉` bisection levels, each touching every
    /// particle once (median selection + sides split) — the same
    /// per-particle-per-level work class as tree construction, so the
    /// same coefficient is charged. Time-stepping drivers
    /// (`bltc-sim`) charge this only on repartition-cadence steps,
    /// which is what makes the cadence visible in the modeled clock.
    pub fn repartition_seconds(&self, n: usize, parts: usize) -> f64 {
        let levels = (parts.max(1) as f64).log2().ceil().max(1.0);
        self.base_s + self.per_particle_level_s * n as f64 * levels
    }

    /// Modeled host seconds to stand up one SPMD world over `n`
    /// particles on `ranks` ranks: thread spawn + communicator setup
    /// per rank, plus the driver-side scatter/gather of every particle
    /// record that a one-shot door implies.
    ///
    /// A persistent session pays this once at launch (a restore onto a
    /// fresh world pays it again) and then [`HostModel::epoch_seconds`]
    /// per epoch.
    pub fn world_spawn_seconds(&self, n: usize, ranks: usize) -> f64 {
        self.base_s + self.rank_spawn_s * ranks as f64 + self.per_particle_gather_s * n as f64
    }

    /// Modeled host seconds to submit one epoch to live ranks.
    pub fn epoch_seconds(&self) -> f64 {
        self.epoch_submit_s
    }
}

/// One rank's epoch, priced once: the five serial phase clocks and the
/// pipelined view of the same work.
pub(crate) struct EpochClocks {
    pub setup_host_s: f64,
    pub setup_comm_s: f64,
    pub setup_stage_s: f64,
    pub precompute_s: f64,
    pub compute_s: f64,
    pub pipeline: PipelineReport,
}

/// The overlap-aware view of one rank's epoch: the critical path through
/// the phase DAG.
///
/// Invariants (enforced by the test suite):
/// - `pipelined_s ≤ RankReport::total()` (the serial phase sum) always,
///   with equality on one rank (no remote work to overlap);
/// - the `let-chunk-get` spans end in chunk order (one NIC, serial α–β
///   model), and each chunk's `stage` span starts at or after its get
///   ends;
/// - the clocks are pure functions of the work counts — bitwise
///   reproducible across host pool sizes.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Critical-path seconds of the pipelined epoch.
    pub pipelined_s: f64,
    /// Trace spans of this epoch's phase DAG: every serial phase
    /// component placed at its wall position on the rank's resource
    /// tracks. Derived alongside the clocks from the same work counts
    /// and never read back, so collecting them cannot perturb any
    /// result. Per-phase `billed_s` sums reconcile against the serial
    /// `RankReport` phase clocks; the latest span end is `pipelined_s`.
    pub spans: Vec<Span>,
}

/// The remote pass's aggregates over a rank's LET plans, priced once for
/// both views.
struct RemotePass {
    /// Flops per interaction of the evaluating op.
    flops_per_pair: f64,
    /// `(Σ interactions)·flops_per_pair`.
    flops: f64,
    /// Batch–cluster launches.
    launches: u64,
    /// Payload bytes, all staged onto the device.
    payload_bytes: u64,
    /// Seconds of that staging, as one transfer.
    stage_s: f64,
    /// Full-device exec seconds of every remote launch.
    exec_s: f64,
    /// Host enqueue plus launch latency, charged once per launch.
    launch_s: f64,
}

impl RemotePass {
    /// The aggregates of `plans` for an op of `flops_per_pair` and
    /// `target_cols` columns.
    fn price(cfg: &DistConfig, plans: &[LetPlan], flops_per_pair: f64, target_cols: usize) -> Self {
        let chunks = || plans.iter().flat_map(|p| &p.chunks);
        let flops = chunks().map(|c| c.interactions).sum::<u64>() as f64 * flops_per_pair;
        let payload_bytes = plans.iter().map(LetPlan::payload_bytes).sum();
        let spec = &cfg.spec;
        Self {
            flops_per_pair,
            flops,
            launches: chunks().map(|c| c.launches).sum(),
            payload_bytes,
            stage_s: if payload_bytes > 0 {
                spec.transfer_seconds(payload_bytes as f64)
            } else {
                0.0
            },
            exec_s: spec.exec_seconds(flops, remote_device_bytes(plans, target_cols)),
            launch_s: spec.host_enqueue_s + spec.launch_latency_s,
        }
    }
}

/// Price one rank's epoch: the serial phase clocks, then the phase DAG
/// over the same work, checked against their sum.
///
/// * `n`, `levels` — particles and tree depth of the local build,
/// * `local_launches` — batch–cluster launches of the local pass,
/// * `plans` — the LET plans the evaluation consumed,
/// * `op` — the evaluating op: its flops per pair and its output columns.
///
/// Remote launches and fetched particles are summed from the plans.
#[allow(clippy::too_many_arguments)]
pub(crate) fn price_epoch<const C: usize, O: TileOp<C> + ?Sized>(
    cfg: &DistConfig,
    rank: usize,
    sim: &GpuSimBreakdown,
    n: usize,
    levels: usize,
    local_launches: u64,
    plans: &[LetPlan],
    op: &O,
) -> EpochClocks {
    let remote = RemotePass::price(cfg, plans, op.flops_per_pair(true), O::TARGET_COLS);
    let chunks = plans.iter().flat_map(|p| &p.chunks);
    let fetched: u64 = chunks.map(|c| c.fetched_particles).sum();
    let launches = local_launches + remote.launches;
    let setup_host_s = cfg.host.setup_seconds(n, levels, launches, fetched);
    // Price each LET's traffic on the link its (rank, target) pair
    // actually crosses: intra-node P2P between ranks sharing a node,
    // the fabric otherwise. Messages and bytes are summed per target as
    // integers before one α–β evaluation per target, so the clock is
    // independent of chunk granularity (and hence of the memory
    // budget); with `gpus_per_node == 1` it degenerates to pricing the
    // whole tally on the fabric, per target.
    let mut setup_comm_s = 0.0;
    for p in plans {
        let link = cfg.link(rank, p.target);
        setup_comm_s += link.seconds_for(p.messages(), p.bytes());
    }
    let setup_stage_s = sim.htod_sources_s + sim.htod_let_s + remote.stage_s;
    let precompute_s = sim.precompute_s + sim.dtoh_charges_s;
    let remote_exec_s = remote.exec_s + remote.launches as f64 * remote.launch_s;
    let compute_s = sim.compute_s + sim.dtoh_potentials_s + remote_exec_s;
    let serial_s = setup_host_s + setup_comm_s + setup_stage_s + precompute_s + compute_s;
    let build_s = cfg.host.build_seconds(n, levels);
    let pipeline = pipelined_clock(
        cfg,
        rank,
        sim,
        build_s,
        local_launches,
        plans,
        &remote,
        serial_s,
    );
    EpochClocks {
        setup_host_s,
        setup_comm_s,
        setup_stage_s,
        precompute_s,
        compute_s,
        pipeline,
    }
}

/// Compute the pipelined critical path of one rank's epoch.
///
/// The phase DAG scheduled here, resource by resource:
///
/// - **host** — tree/charges/batch build, then local interaction lists,
///   then (as skeletons land) per-LET traversals, then per-chunk
///   unpacking; one core, serial, in that order.
/// - **NIC** — skeleton gets as soon as the build exposes windows, then
///   each LET's payload chunks once its traversal has demanded them;
///   serialized by the α–β model's assumption. Each get is priced on
///   the link the (origin, target) pair actually crosses
///   ([`DistConfig::link`]): the intra-node path when the two ranks
///   share a compute node, the inter-node fabric otherwise.
/// - **PCIe** — each chunk's staging share after it lands and unpacks.
/// - **device** — a `gpu-sim` device of `cfg.streams` streams: the local
///   block (HtD staging, precompute, local compute) occupies it from the
///   moment the local lists exist, then each chunk's remote-eval
///   kernels are issued once the chunk is ready, round-robin over the
///   streams so launch latencies on one stream hide behind exec phases
///   on another (§3.2), then the final DtH of the potentials.
///
/// Every serial phase component appears exactly once (chunk staging and
/// exec times are proportional shares of the serial aggregates), so the
/// makespan cannot exceed the serial sum; the result is clamped to
/// `serial_total_s` so the invariant survives floating-point
/// reassociation.
#[allow(clippy::too_many_arguments)]
fn pipelined_clock(
    cfg: &DistConfig,
    rank: usize,
    sim: &GpuSimBreakdown,
    build_s: f64,
    local_launches: u64,
    plans: &[LetPlan],
    remote: &RemotePass,
    serial_total_s: f64,
) -> PipelineReport {
    let h = &cfg.host;
    let r = rank as u32;
    let all_chunks = || plans.iter().flat_map(|p| &p.chunks);
    let num_chunks = all_chunks().count();
    // Eight fixed spans (build, local lists, the five of the local block
    // and the closing DtH), two per LET, three per chunk and one per
    // remote launch.
    let mut spans: Vec<Span> =
        Vec::with_capacity(8 + 2 * plans.len() + 3 * num_chunks + remote.launches as usize);
    let mut host_free = build_s + h.per_launch_s * local_launches as f64;
    let local_start = host_free;
    let mut nic_free = build_s;
    spans.push(Span::new(Track::Host(r), "build", 0.0, build_s).phase(Phase::SetupHost));
    spans.push(
        Span::new(Track::Host(r), "local-lists", build_s, local_start).phase(Phase::SetupHost),
    );

    // Skeleton gets first (windows exist once the build completes), each
    // LET's traversal on the host as its skeleton lands.
    let mut traversal_done = Vec::with_capacity(plans.len());
    for p in plans {
        let get_s = cfg.link(rank, p.target).seconds_for(1, p.skeleton_bytes);
        let land = nic_free + get_s;
        spans.push(
            Span::new(Track::Nic(r), "skeleton-get", nic_free, land)
                .phase(Phase::SetupComm)
                .billed(get_s)
                .bytes(p.skeleton_bytes)
                .target(p.target as u32),
        );
        nic_free = land;
        // The traversal emits one batch–cluster pair per launch.
        let traversal_launches: u64 = p.chunks.iter().map(|c| c.launches).sum();
        let traverse_s = h.per_launch_s * traversal_launches as f64;
        let t_start = host_free.max(land);
        host_free = t_start + traverse_s;
        spans.push(
            Span::new(Track::Host(r), "traversal", t_start, host_free)
                .phase(Phase::SetupHost)
                .billed(traverse_s)
                .target(p.target as u32),
        );
        traversal_done.push(host_free);
    }

    // The remote aggregates, apportioned to chunks as proportional
    // shares: Σ of shares equals the serial aggregate by construction
    // (a per-chunk roofline could exceed it — max is subadditive).
    let exec_flops = |c: &ChunkPlan| c.interactions as f64 * remote.flops_per_pair;
    let exec_s = |c: &ChunkPlan| {
        remote.exec_s
            * if remote.flops > 0.0 {
                exec_flops(c) / remote.flops
            } else {
                1.0 / num_chunks.max(1) as f64
            }
    };

    // The local block occupies the device from the moment the local
    // lists exist; remote chunks stream in behind it.
    let mut spec = cfg.spec;
    spec.num_streams = cfg.streams.max(1);
    let mut dev = Device::new(spec);
    dev.reserve(remote.launches as usize);
    let local_block_s =
        sim.htod_sources_s + sim.precompute_s + sim.dtoh_charges_s + sim.htod_let_s + sim.compute_s;
    dev.occupy_until(local_start + local_block_s);

    let resident: Vec<u64> = resident_bytes(plans, cfg.let_memory_budget).collect();
    let mut chunk_id = 0u32;
    let mut stream = 0usize;
    let mut pcie_free = 0.0f64;
    for (p, &traversed) in plans.iter().zip(&traversal_done) {
        let link = cfg.link(rank, p.target);
        for c in &p.chunks {
            let get_s = link.seconds_for(c.messages, c.bytes);
            let nic_start = nic_free.max(traversed);
            let land = nic_start + get_s;
            nic_free = land;
            spans.push(
                Span::new(Track::Nic(r), "let-chunk-get", nic_start, land)
                    .phase(Phase::SetupComm)
                    .billed(get_s)
                    .bytes(c.bytes)
                    .chunk(chunk_id)
                    .target(p.target as u32)
                    .resident(resident[chunk_id as usize]),
            );
            let unpack_s = h.per_fetched_particle_s * c.fetched_particles as f64;
            let unpack_start = host_free.max(land);
            let unpacked = unpack_start + unpack_s;
            host_free = unpacked;
            spans.push(
                Span::new(Track::Host(r), "unpack", unpack_start, unpacked)
                    .phase(Phase::SetupHost)
                    .billed(unpack_s)
                    .chunk(chunk_id)
                    .target(p.target as u32),
            );
            let stage_share = if remote.payload_bytes > 0 {
                remote.stage_s * (c.bytes as f64 / remote.payload_bytes as f64)
            } else {
                0.0
            };
            let stage_start = pcie_free.max(unpacked);
            let ready = stage_start + stage_share;
            pcie_free = ready;
            spans.push(
                Span::new(Track::Pcie(r), "stage", stage_start, ready)
                    .phase(Phase::SetupStage)
                    .billed(stage_share)
                    .bytes(c.bytes)
                    .chunk(chunk_id)
                    .target(p.target as u32),
            );
            chunk_id += 1;
            // A chunk no remote batch reads (budgeted padding) neither
            // gates the host at its ready time nor launches.
            if c.launches == 0 {
                continue;
            }
            dev.advance_host_to(ready);
            // Saturating kernels (one block per SM) splitting the chunk's
            // exec seconds evenly: the schedule is work-conserving, so
            // streams hide launch latency, never exec time.
            let flops = exec_s(c) / c.launches as f64 * spec.sustained_gflops() * 1e9;
            for _ in 0..c.launches {
                dev.launch(
                    LaunchConfig::new("remote-chunk", spec.sm_count).stream(stream),
                    WorkEstimate::flops(flops),
                );
                stream = stream.wrapping_add(1);
            }
        }
    }

    // Local block spans, in charge order on the PCIe and device
    // tracks (the block occupies every stream; stream 0 stands for
    // the device).
    let t1 = local_start + sim.htod_sources_s;
    let t2 = t1 + sim.precompute_s;
    let t3 = t2 + sim.dtoh_charges_s;
    let t4 = t3 + sim.htod_let_s;
    let t5 = t4 + sim.compute_s;
    spans.push(Span::new(Track::Pcie(r), "htod-sources", local_start, t1).phase(Phase::SetupStage));
    spans.push(Span::new(Track::DeviceStream(r, 0), "precompute", t1, t2).phase(Phase::Precompute));
    spans.push(Span::new(Track::Pcie(r), "dtoh-charges", t2, t3).phase(Phase::Precompute));
    spans.push(Span::new(Track::Pcie(r), "htod-let", t3, t4).phase(Phase::SetupStage));
    spans.push(Span::new(Track::DeviceStream(r, 0), "local-compute", t4, t5).phase(Phase::Compute));
    dev.synchronize();
    let done_s = dev.now();
    // The log holds each chunk's `launches` records together, in chunk
    // order, and each kernel bills its even share of its chunk's exec
    // seconds and flops plus its enqueue and launch latency. Every chunk
    // with flops has launches (its flops are its interactions'), so the
    // spans bill the whole remote exec aggregate.
    let mut events = dev.into_kernel_events().into_iter();
    for (chunk, c) in all_chunks().enumerate() {
        let billed_s = exec_s(c) / c.launches as f64 + remote.launch_s;
        let flops = exec_flops(c) / c.launches as f64;
        for e in events.by_ref().take(c.launches as usize) {
            spans.push(
                Span::new(
                    Track::DeviceStream(r, e.stream as u32),
                    "remote-chunk",
                    e.start_s,
                    e.end_s,
                )
                .phase(Phase::Compute)
                .billed(billed_s)
                .flops(flops)
                .chunk(chunk as u32),
            );
        }
    }
    debug_assert!(events.next().is_none(), "one record per planned launch");
    let raw = done_s + sim.dtoh_potentials_s;

    // `pipelined ≤ serial` holds structurally (every serial second
    // appears in the DAG exactly once), so any real excess is a DAG
    // accounting bug — a phase billed twice, or work that was never part
    // of the serial sum. Fail loudly instead of letting the clamp below
    // silently absorb it; the clamp stays only to iron out harmless fp
    // reassociation at the equality boundary.
    debug_assert!(
        raw <= serial_total_s * (1.0 + 1e-9),
        "pipelined clock ({raw:.9e}s) exceeds the serial phase sum \
         ({serial_total_s:.9e}s): a phase is billed into the DAG that the \
         serial accounting never charged"
    );

    let pipelined_s = raw.min(serial_total_s);
    // The potentials DtH closes the epoch: anchor its end at the clamped
    // makespan so the latest span end *is* `pipelined_s`, and iron the
    // same fp-reassociation noise out of every other span (the clamp
    // above moves the makespan by at most ~1e-9 relative).
    spans.push(
        Span::new(
            Track::Pcie(r),
            "dtoh-potentials",
            (pipelined_s - sim.dtoh_potentials_s).max(0.0),
            pipelined_s,
        )
        .phase(Phase::Compute)
        .billed(sim.dtoh_potentials_s),
    );
    for s in &mut spans {
        s.end_s = s.end_s.min(pipelined_s);
        s.start_s = s.start_s.min(s.end_s);
    }

    PipelineReport { pipelined_s, spans }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::letree::ChunkKind;

    #[test]
    fn monotone_in_every_argument() {
        let m = HostModel::default();
        let base = m.setup_seconds(1000, 5, 100, 0);
        assert!(base > 0.0);
        assert!(m.setup_seconds(2000, 5, 100, 0) > base);
        assert!(m.setup_seconds(1000, 6, 100, 0) > base);
        assert!(m.setup_seconds(1000, 5, 200, 0) > base);
        assert!(m.setup_seconds(1000, 5, 100, 500) > base);
    }

    #[test]
    fn deterministic() {
        let m = HostModel::default();
        assert_eq!(
            m.setup_seconds(12345, 7, 999, 42),
            m.setup_seconds(12345, 7, 999, 42)
        );
    }

    #[test]
    fn zero_levels_clamped() {
        let m = HostModel::default();
        assert!(m.setup_seconds(1000, 0, 0, 0) > m.base_s);
    }

    #[test]
    fn repartition_cost_grows_with_particles_and_parts() {
        let m = HostModel::default();
        let base = m.repartition_seconds(10_000, 4);
        assert!(base > m.base_s);
        assert!(m.repartition_seconds(20_000, 4) > base);
        assert!(m.repartition_seconds(10_000, 16) > base);
        // One part still pays one pass over the particles.
        assert!(m.repartition_seconds(10_000, 1) > m.base_s);
        // Deterministic, like every clock in the workspace.
        assert_eq!(base, m.repartition_seconds(10_000, 4));
    }

    fn cfg() -> DistConfig {
        DistConfig::comet(bltc_core::config::BltcParams::new(0.8, 3, 60, 60))
    }

    /// A local block of 9·10⁻⁵ s on the device and a 10⁻⁵ s closing DtH.
    fn sim() -> GpuSimBreakdown {
        GpuSimBreakdown {
            htod_sources_s: 1e-5,
            precompute_s: 2e-5,
            dtoh_charges_s: 1e-5,
            htod_let_s: 1e-5,
            compute_s: 4e-5,
            dtoh_potentials_s: 1e-5,
            ..GpuSimBreakdown::default()
        }
    }

    /// A chunk of `launches` launches, `interactions` pairs and `bytes`
    /// payload bytes.
    fn chunk(launches: u64, interactions: u64, bytes: u64) -> ChunkPlan {
        ChunkPlan {
            kind: ChunkKind::Approx,
            first: 0,
            len: 1,
            messages: 1,
            bytes,
            fetched_particles: 0,
            launches,
            eval_targets: 60 * launches,
            eval_sources: 64 * launches,
            interactions,
        }
    }

    /// One LET per chunk list, viewing ranks 1, 2, ….
    fn lets(chunks: Vec<Vec<ChunkPlan>>) -> Vec<LetPlan> {
        let lets = chunks.into_iter().enumerate();
        lets.map(|(i, chunks)| LetPlan {
            target: i + 1,
            skeleton_bytes: 256,
            chunks,
        })
        .collect()
    }

    /// The phase DAG of rank 0 (1 000 particles, 4 levels, 20 local
    /// launches) over `plans`, for a one-column op of `flops_per_pair`,
    /// checked against the serial sum `serial_s`.
    fn dag(
        cfg: &DistConfig,
        plans: &[LetPlan],
        flops_per_pair: f64,
        serial_s: f64,
    ) -> PipelineReport {
        let remote = RemotePass::price(cfg, plans, flops_per_pair, 1);
        let build_s = cfg.host.build_seconds(1000, 4);
        pipelined_clock(cfg, 0, &sim(), build_s, 20, plans, &remote, serial_s)
    }

    fn named<'a>(rep: &'a PipelineReport, name: &str) -> Vec<&'a Span> {
        rep.spans.iter().filter(|s| s.name == name).collect()
    }

    /// A deliberately mis-billed phase DAG must trip the loud
    /// `pipelined ≤ serial` check instead of being silently clamped: here
    /// the chunk bills 10¹⁵ flops of device work while the claimed
    /// serial phase sum is a nanosecond, so the excess is structural,
    /// not fp reassociation.
    #[cfg(debug_assertions)]
    #[test]
    fn mis_billed_phase_trips_the_pipelined_clock_assert() {
        let cfg = cfg();
        let sim = GpuSimBreakdown::default();
        // 10¹⁴ interactions at 10 flops each.
        let plans = lets(vec![vec![chunk(1, 100_000_000_000_000, 1024)]]);
        let remote = RemotePass::price(&cfg, &plans, 10.0, 4);
        let build_s = cfg.host.build_seconds(100, 3);
        let trip = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pipelined_clock(&cfg, 0, &sim, build_s, 10, &plans, &remote, 1e-9)
        }));
        assert!(
            trip.is_err(),
            "understating the serial sum must fail the debug assert, not clamp silently"
        );
    }

    /// The remote spans are read off the device's log chunk by chunk:
    /// over two LETs with chunks of 3, 0 and 2 launches, each
    /// `remote-chunk` span carries its own chunk's id, starts once that
    /// chunk is staged, and the chunk's spans bill its exec share plus
    /// one enqueue and one launch latency per launch.
    #[test]
    fn remote_chunk_spans_carry_their_own_chunk() {
        let cfg = cfg();
        let plans = lets(vec![
            vec![chunk(3, 30_000, 4096), chunk(0, 0, 4096)],
            vec![chunk(2, 50_000, 4096)],
        ]);
        let flops_per_pair = 30.0;
        let rep = dag(&cfg, &plans, flops_per_pair, 1.0);
        // The reserved count is exact: 8 fixed, 2 per LET, 3 per chunk,
        // 1 per launch.
        assert_eq!(rep.spans.len(), 8 + 2 * 2 + 3 * 3 + 5);

        let remote = named(&rep, "remote-chunk");
        let ids: Vec<u32> = remote.iter().map(|s| s.chunk.expect("chunk id")).collect();
        assert_eq!(ids, [0, 0, 0, 2, 2]);
        for s in &remote {
            let stage = rep
                .spans
                .iter()
                .find(|t| t.name == "stage" && t.chunk == s.chunk)
                .expect("the chunk's stage span");
            assert!(s.start_s >= stage.end_s, "{s:?} starts before {stage:?}");
        }

        let total_flops = 80_000.0 * flops_per_pair;
        let exec_total = cfg
            .spec
            .exec_seconds(total_flops, remote_device_bytes(&plans, 1));
        let overhead = cfg.spec.host_enqueue_s + cfg.spec.launch_latency_s;
        for (chunk, launches, interactions) in [(0, 3.0, 30_000.0), (2, 2.0, 50_000.0)] {
            let billed: f64 = remote
                .iter()
                .filter(|s| s.chunk == Some(chunk))
                .map(|s| s.billed_s)
                .sum();
            let share = exec_total * (interactions * flops_per_pair / total_flops);
            let want = share + launches * overhead;
            assert!(
                (billed - want).abs() < 1e-12,
                "chunk {chunk}: {billed} vs {want}"
            );
        }
    }

    /// Without chunks the device runs the local block alone: the epoch
    /// ends one closing DtH after it, to the bit.
    #[test]
    fn no_chunks_is_exactly_the_local_block() {
        let rep = dag(&cfg(), &[], 30.0, 1.0);
        let s = sim();
        let local_start = named(&rep, "local-lists")[0].end_s;
        let block =
            s.htod_sources_s + s.precompute_s + s.dtoh_charges_s + s.htod_let_s + s.compute_s;
        assert_eq!(rep.pipelined_s, local_start + block + s.dtoh_potentials_s);
        assert!(named(&rep, "remote-chunk").is_empty());
        assert_eq!(rep.spans.len(), 8);
    }

    /// A chunk whose payload lands long after the local block cannot
    /// launch before it is staged, nor finish before its exec seconds
    /// have run after that.
    #[test]
    fn chunk_waits_for_its_data() {
        let cfg = cfg();
        let plans = lets(vec![vec![chunk(1, 1_000_000, 1 << 30)]]);
        let rep = dag(&cfg, &plans, 30.0, 10.0);
        let stage = named(&rep, "stage")[0];
        let local_end = named(&rep, "local-compute")[0].end_s;
        assert!(stage.end_s > 100.0 * local_end, "the data lands late");
        let [kernel] = named(&rep, "remote-chunk")[..] else {
            panic!("one launch, one span")
        };
        assert!(kernel.start_s >= stage.end_s + cfg.spec.launch_latency_s);
        let exec_s = cfg.spec.exec_seconds(30e6, remote_device_bytes(&plans, 1));
        assert!(rep.pipelined_s >= stage.end_s + exec_s, "{rep:?}");
    }

    /// Saturating kernels conserve exec time on any stream count: no
    /// schedule ends before the local block plus the remote exec seconds,
    /// and more streams never lose; with 8×16 launch latencies in play
    /// they win outright.
    #[test]
    fn exec_time_is_conserved_across_stream_counts() {
        let plans = lets(vec![(0..8).map(|_| chunk(16, 100_000, 4096)).collect()]);
        let on = |streams: usize| {
            let cfg = DistConfig { streams, ..cfg() };
            let rep = dag(&cfg, &plans, 30.0, 1.0);
            let local_end = named(&rep, "local-compute")[0].end_s;
            let exec_s = RemotePass::price(&cfg, &plans, 30.0, 1).exec_s;
            assert!(rep.pipelined_s >= local_end + exec_s, "{streams} streams");
            rep.pipelined_s
        };
        let (one, two, four) = (on(1), on(2), on(4));
        assert!(four <= two && two <= one, "{four} {two} {one}");
        assert!(four < one, "{four} !< {one}");
    }

    /// A launch-free chunk landing absurdly late (as a tight memory
    /// budget's padding can) neither launches nor drags the remote
    /// block's end to its ready time.
    #[test]
    fn zero_launch_chunks_neither_gate_nor_launch() {
        let cfg = cfg();
        let late = 1 << 40;
        assert!(cfg.link(0, 1).seconds_for(1, late) > 10.0);
        let plans = lets(vec![vec![chunk(2, 100_000, 4096), chunk(0, 0, late)]]);
        let rep = dag(&cfg, &plans, 30.0, 1e3);
        assert_eq!(named(&rep, "remote-chunk").len(), 2, "phantom kernels");
        assert!(rep.pipelined_s < 1.0, "gated at {}", rep.pipelined_s);
    }

    /// The DAG is a pure function of its arguments: the same clock and
    /// the same spans, to the bit.
    #[test]
    fn dag_is_deterministic() {
        let cfg = cfg();
        let plans = lets(vec![
            vec![chunk(7, 70_000, 8192), chunk(1, 5_000, 1024)],
            vec![chunk(4, 20_000, 2048)],
        ]);
        let (a, b) = (dag(&cfg, &plans, 30.0, 1.0), dag(&cfg, &plans, 30.0, 1.0));
        assert_eq!(a.pipelined_s, b.pipelined_s);
        assert_eq!(a.spans, b.spans);
    }

    /// One `remote-chunk` span per planned launch on any stream count,
    /// issued round-robin: the k-th launch runs on stream k mod streams,
    /// the counter carrying over from chunk to chunk.
    #[test]
    fn one_span_per_launch_round_robin() {
        let plans = lets(vec![
            vec![chunk(3, 30_000, 4096), chunk(0, 0, 4096)],
            vec![chunk(2, 20_000, 4096), chunk(5, 50_000, 4096)],
        ]);
        for streams in 1..=4 {
            let cfg = DistConfig { streams, ..cfg() };
            let rep = dag(&cfg, &plans, 30.0, 1.0);
            let remote = named(&rep, "remote-chunk");
            assert_eq!(remote.len(), 10, "{streams} streams");
            for (k, s) in remote.iter().enumerate() {
                let stream = (k % streams) as u32;
                assert_eq!(s.track, Track::DeviceStream(0, stream));
            }
        }
    }

    #[test]
    fn world_spawn_dwarfs_epoch_submission() {
        // The whole point of persistent sessions: respawning a world
        // every step costs orders of magnitude more host time than
        // submitting an epoch to live ranks.
        let m = HostModel::default();
        let spawn = m.world_spawn_seconds(10_000, 4);
        assert!(spawn > 100.0 * m.epoch_seconds(), "{spawn} vs epoch");
        // Monotone in ranks and particles.
        assert!(m.world_spawn_seconds(10_000, 8) > spawn);
        assert!(m.world_spawn_seconds(20_000, 4) > spawn);
        assert!(m.epoch_seconds() > 0.0);
    }
}
