//! The single-rank GPU engine: the full pipeline of §3.2 on one device.
//!
//! ```text
//!  build tree/batches/lists (host)            — setup
//!  HtD: source particles                      — setup
//!  for each cluster: phase1 + phase2 kernels  — precompute
//!  DtH: modified charges                      — precompute
//!  HtD: targets (the rank's LET)              — setup
//!  for each batch: walk interaction list,
//!     launching direct/approx kernels,
//!     cycling streamID                        — compute
//!  DtH: potentials                            — compute
//! ```
//!
//! The engine reports both the measured host wall time of the setup work
//! and the simulated device clock of every GPU phase.
//!
//! The host computes and the device prices. Every number comes from a
//! [`PreparedTreecode`] — the tree, batches and lists, every cluster's
//! modified charges, and core's one batch evaluation — and the
//! [`Device`] is told, step by step, what the paper's pipeline above
//! would cost: each transfer's bytes, and each launch's grid, stream and
//! work, in the order the OpenACC code issues them.
//!
//! The pipeline runs in two halves. [`GpuEngine::stage`] is everything
//! kernel-independent, up to and including the target copy; it returns a
//! [`StagedRun`] holding the preparation, whose modified charges are the
//! ones the modeled DtH brings back. [`StagedRun::finish`]
//! evaluates one pass (`&dyn Kernel`: potentials, `&dyn GradientKernel`:
//! potentials and gradients) and continues the same device clock with
//! its compute phase. `compute_detailed` / `compute_field_detailed` are
//! the two halves back to back; the distributed pipeline builds its RMA
//! windows and LETs from the staged data in between, so a rank prepares
//! once.

use std::time::Instant;

use bltc_core::charges::ClusterCharges;
use bltc_core::config::BltcParams;
use bltc_core::cost::OpCounts;
use bltc_core::engine::{ComputeResult, PhaseTimings, PreparedTreecode, TreecodeEngine};
use bltc_core::field::FieldResult;
use bltc_core::kernel::{GradientKernel, Kernel, TileOp};
use bltc_core::particles::ParticleSet;
use bltc_core::traversal::InteractionLists;
use bltc_core::tree::{SourceTree, TreeStats};
use gpu_sim::{Device, DeviceSpec, KernelEvent};

use crate::kernels::{launch_precompute, launch_tile};

/// Simulated-clock breakdown of one GPU run (seconds).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GpuSimBreakdown {
    /// Measured host wall time for tree/batch/list construction.
    pub setup_host_s: f64,
    /// HtD copy of the source particles.
    pub htod_sources_s: f64,
    /// Modified-charge kernels (both phases).
    pub precompute_s: f64,
    /// DtH copy of the modified charges (to the host RMA windows).
    pub dtoh_charges_s: f64,
    /// HtD copy of targets / LET.
    pub htod_let_s: f64,
    /// Potential-evaluation kernels.
    pub compute_s: f64,
    /// DtH copy of the potentials.
    pub dtoh_potentials_s: f64,
}

impl GpuSimBreakdown {
    /// Total modeled run time (host setup + all simulated device phases).
    pub fn total(&self) -> f64 {
        self.setup_host_s
            + self.htod_sources_s
            + self.precompute_s
            + self.dtoh_charges_s
            + self.htod_let_s
            + self.compute_s
            + self.dtoh_potentials_s
    }

    /// The paper's three reporting phases:
    /// setup (host work + data staging), precompute, compute.
    pub fn as_three_phases(&self) -> PhaseTimings {
        PhaseTimings {
            setup: self.setup_host_s + self.htod_sources_s + self.htod_let_s,
            precompute: self.precompute_s + self.dtoh_charges_s,
            compute: self.compute_s + self.dtoh_potentials_s,
        }
    }
}

/// Full report of a GPU engine run.
pub struct GpuRunReport {
    /// Potentials (original target order), op counts and phase timings
    /// (the timings here are the *modeled* three-phase split).
    pub result: ComputeResult,
    /// Fine-grained simulated breakdown.
    pub sim: GpuSimBreakdown,
    /// Total kernel launches issued.
    pub kernel_launches: u64,
}

/// Full report of a GPU **field** (potential + gradient) run.
pub struct GpuFieldRunReport {
    /// Potentials and gradients in original target order — bitwise
    /// identical to the CPU's field pass,
    /// [`PreparedTreecode::evaluate`] with the same gradient kernel.
    pub field: FieldResult,
    /// Exact op counts (interaction pairs are identical to the
    /// potential-only run; the *flops per pair* differ, see
    /// [`OpCounts::pass_flops`]).
    pub ops: OpCounts,
    /// Modeled three-phase split.
    pub timings: PhaseTimings,
    /// Source-tree shape statistics.
    pub tree_stats: TreeStats,
    /// Fine-grained simulated breakdown. `compute_s` reflects the ~4×
    /// gradient-kernel flop cost.
    pub sim: GpuSimBreakdown,
    /// Total kernel launches issued.
    pub kernel_launches: u64,
}

/// The kernel-independent first half of a GPU run ([`GpuEngine::stage`]):
/// host setup, HtD staging, the two precompute kernels, DtH of the
/// modified charges, and the target (LET) copy. [`StagedRun::finish`]
/// continues the device clock from here with the compute phase.
pub struct StagedRun {
    /// The host half: tree, batches, interaction lists, and the grid and
    /// modified charges of every cluster
    /// ([`ClusterCharges::compute_all`]). `finish` evaluates over it. Its
    /// charges stand for what the modeled DtH brings back (paper §3.1:
    /// the charges are computed on the GPU and copied to the host, where
    /// the RMA windows expose them); the distributed pipeline lays its
    /// `q̂` window out from them.
    pub prep: PreparedTreecode,
    streams: usize,
    dev: Device,
    sim: GpuSimBreakdown,
    mark: f64,
}

/// What a finished pass reports, for either column count.
pub struct GpuPass<const C: usize> {
    /// The pass's output columns in original target order (`[φ]`, or
    /// `[φ, ∂ₓφ, ∂ᵧφ, ∂_zφ]`).
    pub columns: [Vec<f64>; C],
    /// Exact op counts of the local interaction lists.
    pub ops: OpCounts,
    /// Source-tree shape statistics.
    pub tree_stats: TreeStats,
    /// Fine-grained simulated breakdown.
    pub sim: GpuSimBreakdown,
    /// The device's kernel log, one record per launch of the whole run
    /// (precompute and compute) in enqueue order: its length is the
    /// launch count, and [`gpu_sim::profile_table`] folds it into the
    /// per-class profile.
    pub events: Vec<KernelEvent>,
}

impl StagedRun {
    /// The compute phase of one pass: the host evaluates the `C` output
    /// columns with core's evaluation, and the device prices what the GPU
    /// does for them — per batch, in index order, one approximation
    /// launch per approximated cluster and then one direct launch per
    /// direct cluster, the stream id cycling across launches — and the
    /// copy of the columns back. The host's tiles over runs of batches
    /// are its own business: the modeled launches stay the paper's, one
    /// per batch–cluster pair. A field pass differs only in what the op
    /// supplies: four columns, ~4× the flops (visible in
    /// `sim.compute_s`) and four arrays in the closing DtH.
    pub fn finish<const C: usize, O: TileOp<C> + ?Sized>(mut self, op: &O) -> GpuPass<C> {
        let prep = &self.prep;
        let columns = prep.evaluate(op, false);

        // ---- compute: walk interaction lists, cycling streams -------------
        let dev = &mut self.dev;
        let m3 = prep.params.proxy_count();
        let streams = self.streams;
        let mut launch_counter = 0usize;
        let mut next_stream = || {
            let stream = launch_counter % streams;
            launch_counter += 1;
            stream
        };
        for (b, bl) in prep.batches.batches().iter().zip(&prep.lists.per_batch) {
            let nb = b.num_targets();
            for _ in &bl.approx {
                launch_tile(dev, O::APPROX_LAUNCH, (nb, m3), op, next_stream());
            }
            for &ci in &bl.direct {
                let nc = prep.tree.node(ci as usize).num_particles();
                launch_tile(dev, O::DIRECT_LAUNCH, (nb, nc), op, next_stream());
            }
        }
        dev.synchronize();
        self.sim.compute_s = dev.now() - self.mark;
        let mark = dev.now();

        // ---- DtH: the output columns ---------------------------------------
        for _ in 0..C {
            dev.transfer(prep.batches.particles().len() * 8);
        }
        self.sim.dtoh_potentials_s = dev.now() - mark;

        GpuPass {
            columns,
            ops: prep.ops,
            tree_stats: prep.tree.stats(),
            sim: self.sim,
            events: self.dev.into_kernel_events(),
        }
    }
}

/// The GPU treecode engine.
#[derive(Debug, Clone, Copy)]
pub struct GpuEngine {
    /// Treecode parameters.
    pub params: BltcParams,
    /// Device model.
    pub spec: DeviceSpec,
    /// Number of asynchronous streams to cycle through (clamped to the
    /// device's stream count; 1 disables overlap — the ablation knob).
    pub streams: usize,
}

impl GpuEngine {
    /// Engine on a Titan V with all four streams (the paper's Fig. 4
    /// configuration).
    pub fn new(params: BltcParams) -> Self {
        Self::with_spec(params, DeviceSpec::titan_v())
    }

    /// Engine on an explicit device model.
    pub fn with_spec(params: BltcParams, spec: DeviceSpec) -> Self {
        Self {
            params,
            spec,
            streams: spec.num_streams,
        }
    }

    /// Restrict stream cycling (ablation of §3.2's async streams).
    ///
    /// # Panics
    ///
    /// With the message of [`GpuEngine::validate_streams`].
    pub fn with_streams(mut self, streams: usize) -> Self {
        Self::validate_streams(streams).unwrap_or_else(|e| panic!("{e}"));
        self.streams = streams.min(self.spec.num_streams);
        self
    }

    /// A run cycles its launches over at least one stream.
    pub fn validate_streams(streams: usize) -> Result<(), String> {
        match streams {
            0 => Err(format!("streams must be at least 1, got {streams}")),
            _ => Ok(()),
        }
    }

    /// Run every phase up to (and including) the target/LET staging —
    /// the kernel-independent first half of a run, shared by both passes.
    pub fn stage(&self, targets: &ParticleSet, sources: &ParticleSet) -> StagedRun {
        let params = self.params;
        params.validate().unwrap_or_else(|e| panic!("{e}"));
        let mut sim = GpuSimBreakdown::default();

        // ---- host setup -------------------------------------------------
        let t_host = Instant::now();
        let (tree, batches) = SourceTree::build_with_batches(sources, targets, &params);
        let lists = InteractionLists::build(&batches, &tree, &params);
        sim.setup_host_s = t_host.elapsed().as_secs_f64();
        let t_charges = Instant::now();
        let charges = ClusterCharges::compute_all(&tree, params.degree);
        let precompute_seconds = t_charges.elapsed().as_secs_f64();
        let ops = OpCounts::from_lists(&lists, &batches, &tree, &params);

        // Two precompute launches per cluster, one compute launch per
        // batch–cluster pair.
        let mut dev = Device::new(self.spec);
        dev.reserve(2 * tree.num_nodes() + ops.kernel_launches as usize);

        // ---- HtD: source data (x, y, z, q) ---------------------------------
        for _ in 0..4 {
            dev.transfer(tree.particles().len() * 8);
        }
        dev.synchronize();
        let mut mark = dev.now();
        sim.htod_sources_s = mark;

        // ---- precompute: modified charges for every cluster --------------
        for (ni, node) in tree.nodes().iter().enumerate() {
            launch_precompute(
                &mut dev,
                params.degree,
                node.num_particles(),
                ni % self.streams,
            );
        }
        dev.synchronize();
        sim.precompute_s = dev.now() - mark;
        mark = dev.now();

        // ---- DtH: modified charges (host RMA windows in the MPI version) -
        dev.transfer(tree.num_nodes() * params.proxy_count() * 8);
        sim.dtoh_charges_s = dev.now() - mark;
        mark = dev.now();

        // ---- HtD: targets (the LET copy: x, y, z) --------------------------
        for _ in 0..3 {
            dev.transfer(batches.particles().len() * 8);
        }
        dev.synchronize();
        sim.htod_let_s = dev.now() - mark;
        mark = dev.now();

        StagedRun {
            prep: PreparedTreecode {
                params,
                tree,
                batches,
                lists,
                charges,
                ops,
                setup_seconds: sim.setup_host_s,
                precompute_seconds,
            },
            streams: self.streams,
            dev,
            sim,
            mark,
        }
    }

    /// Run the full pipeline, returning the detailed report.
    pub fn compute_detailed(
        &self,
        targets: &ParticleSet,
        sources: &ParticleSet,
        kernel: &dyn Kernel,
    ) -> GpuRunReport {
        let pass = self.stage(targets, sources).finish(kernel);
        let [potentials] = pass.columns;
        GpuRunReport {
            result: ComputeResult {
                potentials,
                ops: pass.ops,
                timings: pass.sim.as_three_phases(),
                tree_stats: pass.tree_stats,
            },
            sim: pass.sim,
            kernel_launches: pass.events.len() as u64,
        }
    }

    /// Run the full **field** pipeline: identical setup/precompute, then
    /// the gradient-capable batch–cluster kernels (four outputs per
    /// target, ~4× the flops — visible in `sim.compute_s`), then DtH of
    /// potentials *and* the three gradient components.
    pub fn compute_field_detailed(
        &self,
        targets: &ParticleSet,
        sources: &ParticleSet,
        kernel: &dyn GradientKernel,
    ) -> GpuFieldRunReport {
        let pass = self.stage(targets, sources).finish(kernel);
        GpuFieldRunReport {
            field: pass.columns.into(),
            ops: pass.ops,
            timings: pass.sim.as_three_phases(),
            tree_stats: pass.tree_stats,
            sim: pass.sim,
            kernel_launches: pass.events.len() as u64,
        }
    }
}

impl TreecodeEngine for GpuEngine {
    fn compute(
        &self,
        targets: &ParticleSet,
        sources: &ParticleSet,
        kernel: &dyn Kernel,
    ) -> ComputeResult {
        self.compute_detailed(targets, sources, kernel).result
    }

    fn name(&self) -> &'static str {
        "gpu-sim"
    }
}

/// Modeled seconds of the GPU direct sum: "one launch of the
/// batch-cluster direct sum kernel for a batch consisting of all target
/// particles and a cluster consisting of all source particles" (§4) —
/// the red dashed reference line of Fig. 4 — priced on a [`Device`]:
/// seven HtD copies (sources x/y/z/q, targets x/y/z), one
/// `direct_sum_full` launch with [`launch_tile`]'s work, and the DtH of
/// the potentials.
pub fn gpu_direct_sum_modeled_seconds(
    spec: DeviceSpec,
    n_targets: usize,
    n_sources: usize,
    kernel: &dyn Kernel,
) -> f64 {
    let mut dev = Device::new(spec);
    for len in [
        n_sources, n_sources, n_sources, n_sources, n_targets, n_targets, n_targets,
    ] {
        dev.transfer(len * 8);
    }
    let tile = (n_targets, n_sources);
    launch_tile(&mut dev, "direct_sum_full", tile, kernel, 0);
    dev.transfer(n_targets * 8);
    dev.now()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bltc_core::engine::{direct_sum, SerialEngine};
    use bltc_core::error::relative_l2_error;
    use bltc_core::kernel::{Coulomb, Priced, Yukawa};

    fn cube(n: usize, seed: u64) -> ParticleSet {
        ParticleSet::random_cube(n, seed)
    }

    #[test]
    fn gpu_engine_matches_cpu_engine_bitwise() {
        let ps = cube(2000, 80);
        let params = BltcParams::new(0.8, 4, 60, 60);
        let cpu = SerialEngine::new(params).compute(&ps, &ps, &Coulomb);
        let gpu = GpuEngine::new(params).compute(&ps, &ps, &Coulomb);
        assert_eq!(
            cpu.potentials, gpu.potentials,
            "CPU and simulated-GPU engines must agree bitwise"
        );
        assert_eq!(cpu.ops, gpu.ops);
    }

    #[test]
    fn gpu_engine_accuracy_vs_direct_sum() {
        let ps = cube(2500, 81);
        let params = BltcParams::new(0.7, 6, 80, 80);
        let gpu = GpuEngine::new(params).compute(&ps, &ps, &Yukawa::default());
        let exact = direct_sum(&ps, &ps, &Yukawa::default());
        let err = relative_l2_error(&exact, &gpu.potentials);
        assert!(err < 1e-4, "gpu engine error {err}");
    }

    #[test]
    fn simulated_phases_are_populated() {
        let ps = cube(1500, 82);
        let params = BltcParams::new(0.8, 4, 60, 60);
        let pass = GpuEngine::new(params)
            .stage(&ps, &ps)
            .finish(&Coulomb as &dyn Kernel);
        let s = pass.sim;
        assert!(s.setup_host_s > 0.0);
        assert!(s.htod_sources_s > 0.0);
        assert!(s.precompute_s > 0.0);
        assert!(s.dtoh_charges_s > 0.0);
        assert!(s.htod_let_s > 0.0);
        assert!(s.compute_s > 0.0);
        assert!(s.dtoh_potentials_s > 0.0);
        assert!((s.total() - s.as_three_phases().total()).abs() < 1e-12);
        assert!(!pass.events.is_empty());
        let table = gpu_sim::profile_table(&pass.events);
        assert!(table.contains("batch_cluster_direct"));
        assert!(table.contains("precompute_phase1"));
    }

    #[test]
    fn gpu_field_matches_cpu_field_bitwise() {
        use bltc_core::engine::PreparedTreecode;
        let ps = cube(2000, 90);
        let params = BltcParams::new(0.7, 5, 80, 80);
        let prep = PreparedTreecode::new(&ps, &ps, params);
        let yukawa = Yukawa::default();
        let yukawa = &yukawa as &dyn GradientKernel;
        let cpu: FieldResult = prep.evaluate(yukawa, false).into();
        let gpu = GpuEngine::new(params).stage(&ps, &ps).finish(yukawa);
        let [potentials, gx, gy, gz] = &gpu.columns;
        assert_eq!(&cpu.potentials, potentials);
        assert_eq!(&cpu.gx, gx);
        assert_eq!(&cpu.gy, gy);
        assert_eq!(&cpu.gz, gz);
        assert!(gpu_sim::profile_table(&gpu.events).contains("batch_cluster_direct_field"));
    }

    #[test]
    fn field_potentials_match_potential_only_run() {
        let ps = cube(1500, 91);
        let params = BltcParams::new(0.8, 4, 60, 60);
        let pot = GpuEngine::new(params).compute_detailed(&ps, &ps, &Coulomb);
        let fld = GpuEngine::new(params).compute_field_detailed(&ps, &ps, &Coulomb);
        // Same lists, same order, same scalar potential expressions.
        assert_eq!(pot.result.potentials, fld.field.potentials);
        assert_eq!(pot.result.ops, fld.ops);
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The premise the distributed `q̂` window rests on: the staged
    /// charges are, node by node and bit for bit,
    /// `ClusterCharges::compute_all` — at the widths the precompute
    /// kernels monomorphise (and one past them), targets = sources and
    /// targets ≠ sources. And the two halves are the whole run: `stage` +
    /// `finish` reproduces `compute_detailed` / `compute_field_detailed`
    /// in results, counts and every modeled clock (`setup_host_s` is wall
    /// time).
    #[test]
    fn staged_qhat_is_compute_all_and_stage_then_finish_is_the_whole_run() {
        use bltc_core::charges::ClusterCharges;
        let modeled = |sim: GpuSimBreakdown| GpuSimBreakdown {
            setup_host_s: 0.0,
            ..sim
        };
        let sources = cube(900, 94);
        let mut probes = cube(300, 95);
        for x in &mut probes.x {
            *x += 0.75;
        }
        for degree in [1usize, 4, 8, 13, 14] {
            let params = BltcParams::new(0.8, degree, 60, 60);
            let m3 = params.proxy_count();
            let engine = GpuEngine::new(params).with_streams(3);
            for targets in [&sources, &probes] {
                let staged = engine.stage(targets, &sources);
                let nodes = staged.prep.tree.num_nodes();
                let host = ClusterCharges::compute_all(&staged.prep.tree, degree);
                for i in 0..nodes {
                    assert_eq!(staged.prep.charges.charges(i).len(), m3);
                    assert_eq!(
                        bits(staged.prep.charges.charges(i)),
                        bits(host.charges(i)),
                        "degree {degree}, node {i}"
                    );
                }

                let pass = staged.finish(&Coulomb as &dyn Kernel);
                let whole = engine.compute_detailed(targets, &sources, &Coulomb);
                assert_eq!(bits(&pass.columns[0]), bits(&whole.result.potentials));
                assert_eq!(pass.ops, whole.result.ops);
                assert_eq!(pass.events.len() as u64, whole.kernel_launches);
                assert_eq!(modeled(pass.sim), modeled(whole.sim), "degree {degree}");

                let yukawa = Yukawa::default();
                let pass = (engine.stage(targets, &sources)).finish(&yukawa as &dyn GradientKernel);
                let whole = engine.compute_field_detailed(targets, &sources, &yukawa);
                let [p, gx, gy, gz] = &pass.columns;
                let f = &whole.field;
                for (a, b) in [(p, &f.potentials), (gx, &f.gx), (gy, &f.gy), (gz, &f.gz)] {
                    assert_eq!(bits(a), bits(b), "degree {degree}");
                }
                assert_eq!(pass.ops, whole.ops);
                assert_eq!(pass.events.len() as u64, whole.kernel_launches);
                assert_eq!(modeled(pass.sim), modeled(whole.sim), "degree {degree}");
            }
        }
    }

    /// What `stage` reserves the log for is what the pass launches: two
    /// precompute kernels per cluster and one compute kernel per
    /// batch–cluster pair, for either pass on any stream count.
    #[test]
    fn a_pass_logs_two_launches_per_cluster_and_one_per_pair() {
        let ps = cube(1200, 96);
        let (pot, fld) = (&Coulomb as &dyn Kernel, &Coulomb as &dyn GradientKernel);
        for degree in [1usize, 4, 8] {
            for streams in [1usize, 4] {
                let params = BltcParams::new(0.8, degree, 60, 60);
                let engine = GpuEngine::new(params).with_streams(streams);
                let staged = engine.stage(&ps, &ps);
                let launches =
                    2 * staged.prep.tree.num_nodes() + staged.prep.ops.kernel_launches as usize;
                let pot = staged.finish(&Priced(pot));
                assert_eq!(pot.events.len(), launches, "d{degree} s{streams} pot");
                let fld = engine.stage(&ps, &ps).finish(&Priced(fld));
                assert_eq!(fld.events.len(), launches, "d{degree} s{streams} fld");
            }
        }
    }

    #[test]
    fn gradient_kernels_cost_about_4x_on_the_device_clock() {
        // §cost model: a field launch charges grad_flops (~4× potential
        // flops). On a compute-bound configuration the modeled compute
        // phase must inflate accordingly (launch overhead dilutes it a
        // little, so accept a broad band around 4×).
        // Single batch vs single (root) cluster: one large launch, so
        // per-launch overhead is negligible next to the kernel flops.
        // Priced: the clocks are the real op's, the pairs are not run.
        let ps = cube(4000, 92);
        let params = BltcParams::new(0.7, 6, 4000, 4000);
        let engine = GpuEngine::new(params).with_streams(1);
        let (pot, fld) = (&Coulomb as &dyn Kernel, &Coulomb as &dyn GradientKernel);
        let pot = engine.stage(&ps, &ps).finish(&Priced(pot));
        let fld = engine.stage(&ps, &ps).finish(&Priced(fld));
        let ratio = fld.sim.compute_s / pot.sim.compute_s;
        assert!(
            ratio > 2.0 && ratio < 4.5,
            "field/potential compute ratio {ratio} not ~4x"
        );
        // DtH returns four arrays instead of one.
        assert!(fld.sim.dtoh_potentials_s > pot.sim.dtoh_potentials_s * 2.0);
    }

    #[test]
    fn field_stream_count_never_changes_results() {
        let ps = cube(2000, 93);
        let params = BltcParams::new(0.8, 4, 100, 100);
        let one = GpuEngine::new(params)
            .with_streams(1)
            .compute_field_detailed(&ps, &ps, &Coulomb);
        let four = GpuEngine::new(params)
            .with_streams(4)
            .compute_field_detailed(&ps, &ps, &Coulomb);
        assert_eq!(one.field.gx, four.field.gx);
        assert_eq!(one.field.gy, four.field.gy);
        assert_eq!(one.field.gz, four.field.gz);
        assert!(four.sim.compute_s <= one.sim.compute_s);
    }

    /// The stream rule is stated once: the builder panics with the
    /// message `DistConfig::validate` returns.
    #[test]
    #[should_panic(expected = "streams must be at least 1, got 0")]
    fn zero_streams_are_refused_by_the_one_rule() {
        assert_eq!(GpuEngine::validate_streams(1), Ok(()));
        let _ = GpuEngine::new(BltcParams::default()).with_streams(0);
    }

    #[test]
    fn four_streams_beat_one_stream() {
        // §3.2: asynchronous streams reduce compute time by ~25% on the
        // Fig. 4 workload; at minimum they must not be slower.
        let ps = cube(4000, 83);
        let params = BltcParams::new(0.8, 4, 100, 100);
        let one = GpuEngine::new(params)
            .with_streams(1)
            .compute_detailed(&ps, &ps, &Coulomb);
        let four = GpuEngine::new(params)
            .with_streams(4)
            .compute_detailed(&ps, &ps, &Coulomb);
        assert!(
            four.sim.compute_s < one.sim.compute_s,
            "4 streams {} !< 1 stream {}",
            four.sim.compute_s,
            one.sim.compute_s
        );
        // Results must be identical regardless of stream count.
        assert_eq!(one.result.potentials, four.result.potentials);
    }

    #[test]
    fn treecode_vs_direct_crossover_trend() {
        // Fig. 4, conclusion (4): the GPU direct sum wins at small N (the
        // treecode is launch-overhead bound) but loses at large N because
        // its O(N²) growth is quadratic while the treecode's is ~linear.
        // Verify the growth *rates* that force the crossover, on the
        // treecode's clock priced, not run.
        let params = BltcParams::new(0.8, 3, 1000, 1000);
        let time_tc = |n: usize, seed: u64| {
            let ps = cube(n, seed);
            let op = Priced(&Coulomb as &dyn Kernel);
            let r = GpuEngine::new(params).stage(&ps, &ps).finish(&op);
            r.sim.total() - r.sim.setup_host_s
        };
        let time_ds =
            |n: usize| gpu_direct_sum_modeled_seconds(DeviceSpec::titan_v(), n, n, &Coulomb);
        let (tc1, tc2) = (time_tc(10_000, 85), time_tc(20_000, 86));
        let (ds1, ds2) = (time_ds(10_000), time_ds(20_000));
        let tc_growth = tc2 / tc1;
        let ds_growth = ds2 / ds1;
        assert!(
            ds_growth > 3.0,
            "direct sum growth {ds_growth} should be ~4 (quadratic)"
        );
        assert!(
            tc_growth < 3.0,
            "treecode growth {tc_growth} should be ~2 (quasi-linear)"
        );
        assert!(tc_growth < ds_growth);
    }

    #[test]
    fn disjoint_targets_sources_on_gpu() {
        let sources = cube(1500, 86);
        let mut targets = cube(400, 87);
        for z in &mut targets.z {
            *z -= 0.25;
        }
        let params = BltcParams::new(0.7, 5, 80, 80);
        let gpu = GpuEngine::new(params).compute(&targets, &sources, &Coulomb);
        let exact = direct_sum(&targets, &sources, &Coulomb);
        assert!(relative_l2_error(&exact, &gpu.potentials) < 1e-4);
    }

    #[test]
    fn p100_is_slower_than_titan_v() {
        let ps = cube(3000, 88);
        let params = BltcParams::new(0.8, 4, 80, 80);
        let tv = GpuEngine::with_spec(params, DeviceSpec::titan_v())
            .compute_detailed(&ps, &ps, &Coulomb);
        let p1 =
            GpuEngine::with_spec(params, DeviceSpec::p100()).compute_detailed(&ps, &ps, &Coulomb);
        assert!(p1.sim.compute_s > tv.sim.compute_s);
        assert_eq!(tv.result.potentials, p1.result.potentials);
    }
}
