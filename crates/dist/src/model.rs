//! Analytic host-side setup-time model and the pipelined critical-path
//! clock.
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
//! `pipelined_clock` adds the overlap-aware view: the same per-rank
//! work items, scheduled on four resources (host, NIC, PCIe, device) as
//! an explicit phase DAG instead of one serial chain. It never changes
//! what work exists — every second the serial phases charge appears in
//! the DAG exactly once — so its makespan is provably ≤ the serial
//! phase sum. Its LET work is the chunk plans the evaluation consumed
//! (`letree::LetPlan`), and its resident-byte stamps come from the one
//! residency rule beside them (`letree::resident_bytes`).

use bltc_gpu::{dispatch_remote_chunks, GpuSimBreakdown, RemoteChunkWork};
use bltc_trace::{Phase, Span, Track};

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
        self.base_s
            + self.per_particle_level_s * n as f64 * levels.max(1) as f64
            + self.per_launch_s * kernel_launches as f64
            + self.per_fetched_particle_s * fetched_particles as f64
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
/// - **device** — the local block (HtD staging, precompute, local
///   compute) starting when the local lists exist, then remote-eval
///   kernels dispatched onto `cfg.streams` simulated streams as their
///   chunks become ready, then the final DtH of the potentials.
///
/// Every serial phase component appears exactly once (chunk staging and
/// exec times are proportional shares of the serial aggregates), so the
/// makespan cannot exceed the serial sum; the result is clamped to
/// `serial_total_s` so the invariant survives floating-point
/// reassociation.
///
/// The LET work is the rank's chunk plans, weighted by the evaluating
/// op: `flops_per_pair` per interaction and `target_cols` `f64` per
/// target in each launch's device traffic.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pipelined_clock(
    cfg: &DistConfig,
    rank: usize,
    sim: &GpuSimBreakdown,
    n: usize,
    levels: usize,
    local_launches: u64,
    plans: &[LetPlan],
    flops_per_pair: f64,
    target_cols: usize,
    serial_total_s: f64,
) -> PipelineReport {
    let h = &cfg.host;
    let r = rank as u32;
    let mut spans: Vec<Span> = Vec::new();
    let build_s = h.base_s + h.per_particle_level_s * n as f64 * levels.max(1) as f64;
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

    // Aggregate remote work, apportioned to chunks as proportional
    // shares: Σ of shares equals the serial aggregate by construction
    // (a per-chunk roofline could exceed it — max is subadditive).
    let all_chunks = || plans.iter().flat_map(|p| &p.chunks);
    let exec_flops = |c: &ChunkPlan| c.interactions as f64 * flops_per_pair;
    let total_flops: f64 = all_chunks().map(exec_flops).sum();
    let total_eval_bytes = remote_device_bytes(plans, target_cols);
    let device_bytes: u64 = plans.iter().map(LetPlan::payload_bytes).sum();
    let num_chunks = all_chunks().count();
    let exec_total = cfg.spec.exec_seconds(total_flops, total_eval_bytes);
    let stage_total = if device_bytes > 0 {
        cfg.spec.transfer_seconds(device_bytes as f64)
    } else {
        0.0
    };

    let launch_overhead_s = cfg.spec.host_enqueue_s + cfg.spec.launch_latency_s;
    let resident: Vec<u64> = resident_bytes(plans, cfg.let_memory_budget).collect();
    let mut chunk_id = 0u32;
    // (chunk id, billed seconds, flops) of each kernel the dispatcher
    // will enqueue, in enqueue order — correlates `dispatch.events` back
    // to chunks and carries the exact serial billing of each kernel.
    // Every chunk with flops has launches (its flops are its
    // interactions'), so these bill the whole remote exec aggregate.
    let mut kernel_meta: Vec<(u32, f64, f64)> = Vec::new();

    let mut pcie_free = 0.0f64;
    let mut works = Vec::with_capacity(num_chunks);
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
            let stage_share = if device_bytes > 0 {
                stage_total * (c.bytes as f64 / device_bytes as f64)
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
            let chunk_flops = exec_flops(c);
            let exec_share = if total_flops > 0.0 {
                chunk_flops / total_flops
            } else {
                1.0 / num_chunks.max(1) as f64
            };
            if c.launches > 0 {
                let chunk_exec_s = exec_total * exec_share;
                let per_exec_s = chunk_exec_s / c.launches as f64;
                let per_flops = chunk_flops / c.launches as f64;
                for _ in 0..c.launches {
                    kernel_meta.push((chunk_id, per_exec_s + launch_overhead_s, per_flops));
                }
            }
            works.push(RemoteChunkWork {
                ready_s: ready,
                exec_s: exec_total * exec_share,
                launches: c.launches,
            });
            chunk_id += 1;
        }
    }

    // The local device block occupies the device from the moment the
    // local lists exist; remote chunks stream in behind it.
    let local_block_s =
        sim.htod_sources_s + sim.precompute_s + sim.dtoh_charges_s + sim.htod_let_s + sim.compute_s;
    {
        // Local block spans, in charge order on the PCIe and device
        // tracks (the block occupies every stream; stream 0 stands for
        // the device).
        let t1 = local_start + sim.htod_sources_s;
        let t2 = t1 + sim.precompute_s;
        let t3 = t2 + sim.dtoh_charges_s;
        let t4 = t3 + sim.htod_let_s;
        let t5 = t4 + sim.compute_s;
        spans.push(
            Span::new(Track::Pcie(r), "htod-sources", local_start, t1).phase(Phase::SetupStage),
        );
        spans.push(
            Span::new(Track::DeviceStream(r, 0), "precompute", t1, t2).phase(Phase::Precompute),
        );
        spans.push(Span::new(Track::Pcie(r), "dtoh-charges", t2, t3).phase(Phase::Precompute));
        spans.push(Span::new(Track::Pcie(r), "htod-let", t3, t4).phase(Phase::SetupStage));
        spans.push(
            Span::new(Track::DeviceStream(r, 0), "local-compute", t4, t5).phase(Phase::Compute),
        );
    }
    let dispatch =
        dispatch_remote_chunks(&cfg.spec, cfg.streams, local_start + local_block_s, &works);
    debug_assert_eq!(
        dispatch.events.len(),
        kernel_meta.len(),
        "one kernel event per planned launch"
    );
    for (e, &(chunk, billed_s, flops)) in dispatch.events.iter().zip(&kernel_meta) {
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
            .chunk(chunk),
        );
    }
    let raw = dispatch.done_s + sim.dtoh_potentials_s;

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

    /// A deliberately mis-billed phase DAG must trip the loud
    /// `pipelined ≤ serial` check instead of being silently clamped: here
    /// the chunk bills 10¹⁵ flops of device work while the claimed
    /// serial phase sum is a nanosecond, so the excess is structural,
    /// not fp reassociation.
    #[cfg(debug_assertions)]
    #[test]
    fn mis_billed_phase_trips_the_pipelined_clock_assert() {
        let cfg = DistConfig::comet(bltc_core::config::BltcParams::new(0.8, 3, 60, 60));
        let sim = GpuSimBreakdown {
            setup_host_s: 0.0,
            htod_sources_s: 0.0,
            precompute_s: 0.0,
            dtoh_charges_s: 0.0,
            htod_let_s: 0.0,
            compute_s: 0.0,
            dtoh_potentials_s: 0.0,
        };
        // 10¹⁴ interactions at 10 flops each.
        let plans = vec![LetPlan {
            target: 1,
            skeleton_bytes: 64,
            chunks: vec![ChunkPlan {
                kind: ChunkKind::Approx,
                first: 0,
                len: 1,
                messages: 1,
                bytes: 1024,
                fetched_particles: 0,
                launches: 1,
                eval_targets: 1,
                eval_sources: 1,
                interactions: 100_000_000_000_000,
            }],
        }];
        let trip = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pipelined_clock(&cfg, 0, &sim, 100, 3, 10, &plans, 10.0, 4, 1e-9)
        }));
        assert!(
            trip.is_err(),
            "understating the serial sum must fail the debug assert, not clamp silently"
        );
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
