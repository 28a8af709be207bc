//! CPU compute engines: a serial reference and a shared-memory-parallel
//! engine (parallel over target batches — the analogue of the paper's
//! OpenMP port, which assigns each batch to one OpenMP thread), plus
//! direct summation as the accuracy/performance baseline.
//!
//! The expensive, kernel-*independent* state (tree, batches, interaction
//! lists, modified charges) is factored into [`PreparedTreecode`] so a
//! single preparation can be evaluated under several kernels — exactly
//! what the Fig. 4 sweep does with Coulomb and Yukawa.

use std::sync::Mutex;
use std::time::Instant;

use rayon::prelude::*;

use crate::charges::ClusterCharges;
use crate::config::BltcParams;
use crate::cost::OpCounts;
use crate::interp::tensor::TensorGrid;
use crate::kernel::{Kernel, TileOp};
use crate::particles::ParticleSet;
use crate::traversal::InteractionLists;
use crate::tree::{
    batch::{Batch, TargetBatches},
    SourceTree, TreeStats,
};

/// Measured wall-clock seconds per algorithm phase (§4's reporting
/// categories: setup, precompute, compute).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimings {
    /// Tree + batch construction and interaction-list creation.
    pub setup: f64,
    /// Modified-charge computation.
    pub precompute: f64,
    /// Potential evaluation.
    pub compute: f64,
}

impl PhaseTimings {
    /// Total wall time.
    pub fn total(&self) -> f64 {
        self.setup + self.precompute + self.compute
    }
}

/// Result of one treecode evaluation.
#[derive(Debug, Clone)]
pub struct ComputeResult {
    /// Potentials in the *original* target order.
    pub potentials: Vec<f64>,
    /// Exact operation counts.
    pub ops: OpCounts,
    /// Measured wall-clock phase timings.
    pub timings: PhaseTimings,
    /// Source-tree shape statistics.
    pub tree_stats: TreeStats,
}

/// Kernel-independent preparation: everything up to (and including) the
/// modified charges.
pub struct PreparedTreecode {
    /// The parameters used.
    pub params: BltcParams,
    /// Source cluster tree.
    pub tree: SourceTree,
    /// Target batches.
    pub batches: TargetBatches,
    /// Per-batch interaction lists.
    pub lists: InteractionLists,
    /// Per-cluster grids, and modified charges of (at least) every
    /// cluster on an approximation list of `lists`.
    pub charges: ClusterCharges,
    /// Operation counts implied by the lists.
    pub ops: OpCounts,
    /// Measured setup seconds (tree + batches + lists).
    pub setup_seconds: f64,
    /// Measured precompute seconds (modified charges).
    pub precompute_seconds: f64,
}

impl PreparedTreecode {
    /// Build trees, batches, interaction lists and the modified charges
    /// of the clusters those lists approximate.
    pub fn new(targets: &ParticleSet, sources: &ParticleSet, params: BltcParams) -> Self {
        params.validate().unwrap_or_else(|e| panic!("{e}"));
        let t0 = Instant::now();
        let (tree, batches) = SourceTree::build_with_batches(sources, targets, &params);
        let lists = InteractionLists::build(&batches, &tree, &params);
        let setup_seconds = t0.elapsed().as_secs_f64();

        // Only the clusters some batch approximates are ever read.
        let t1 = Instant::now();
        let used = lists.used_approx_nodes(tree.num_nodes());
        let charges = ClusterCharges::compute_selected(&tree, params.degree, &used);
        let precompute_seconds = t1.elapsed().as_secs_f64();

        let ops = OpCounts::from_lists(&lists, &batches, &tree, &params);
        Self {
            params,
            tree,
            batches,
            lists,
            charges,
            ops,
            setup_seconds,
            precompute_seconds,
        }
    }

    /// Evaluate the potentials serially. Returns (potentials in original
    /// target order, measured compute seconds).
    pub fn evaluate_serial(&self, kernel: &dyn Kernel) -> (Vec<f64>, f64) {
        let t0 = Instant::now();
        let [potentials] = self.evaluate(kernel, false);
        (potentials, t0.elapsed().as_secs_f64())
    }

    /// Evaluate the potentials in parallel over batches: the pool's
    /// workers claim chunks of `max(len / (4·workers), 1)` batches.
    /// Batches own disjoint contiguous target ranges, so results are
    /// deterministic and bitwise identical to the serial path.
    pub fn evaluate_parallel(&self, kernel: &dyn Kernel) -> (Vec<f64>, f64) {
        let t0 = Instant::now();
        let [potentials] = self.evaluate(kernel, true);
        (potentials, t0.elapsed().as_secs_f64())
    }

    /// The evaluation behind every `evaluate_*` door and the simulated
    /// GPU's compute phase: each target's `C` output columns from its
    /// batch's interaction lists, assembled into original target order.
    ///
    /// One run-wise pass ([`RunColumns`]): the batches in target order,
    /// in the pool's chunks when `parallel` and as one chunk otherwise;
    /// in a chunk, every approximated cluster and then every direct one,
    /// each set in source-tree pre-order (the order the traversal emits
    /// each list in), one tile per maximal run of consecutive batches
    /// that list the cluster. Every target receives exactly its own
    /// lists in their own order, each tile's sum added once into columns
    /// that start at `0.0`: the bits of a loop over batches, at any pool
    /// size.
    pub fn evaluate<const C: usize, O: TileOp<C> + ?Sized>(
        &self,
        op: &O,
        parallel: bool,
    ) -> [Vec<f64>; C] {
        let cols = RunColumns::new(&self.batches, parallel);
        let lists = |b: usize| {
            let bl = &self.lists.per_batch[b];
            [&bl.approx[..], &bl.direct[..]]
        };
        cols.eval(op, lists, [self.tree.preorder(); 2], self);
        cols.into_columns()
            .map(|col| self.batches.scatter_to_original(&col))
    }
}

/// Where a run-wise pass finds the clusters its lists name.
pub trait ClusterSources: Sync {
    /// The proxy grid and modified charges of approximated cluster `ci`.
    fn approx(&self, ci: usize) -> (&TensorGrid, &[f64]);
    /// The particles `(x, y, z, q)` of direct cluster `ci`.
    fn direct(&self, ci: usize) -> (&[f64], &[f64], &[f64], &[f64]);
}

impl ClusterSources for PreparedTreecode {
    fn approx(&self, ci: usize) -> (&TensorGrid, &[f64]) {
        (self.charges.grid(ci), self.charges.charges(ci))
    }

    fn direct(&self, ci: usize) -> (&[f64], &[f64], &[f64], &[f64]) {
        self.tree.node_particles(ci)
    }
}

/// What a run-wise pass evaluated, counted as the modeled device
/// launches it: one launch per batch–cluster pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunTally {
    /// Launches (`kernel_launches`) and target–source pairs per path.
    pub ops: OpCounts,
    /// Σ batch targets over the launches.
    pub targets: u64,
    /// Σ sources (proxies or particles) over the launches.
    pub sources: u64,
}

/// The `C` output columns of run-wise passes over one set of target
/// batches. The batches are taken in target order (ascending ranges)
/// and cut into the pool's chunks — `max(len / (4·workers), 1)` batches
/// each when `parallel` on more than one worker, one chunk otherwise —
/// and each chunk holds the columns of its targets, which start at `0.0`
/// once. Every [`RunColumns::eval`] adds into them, so passes over parts
/// of a cluster set (the LET's landed windows) accumulate as one pass
/// over the whole set would.
pub struct RunColumns<'a, const C: usize> {
    batches: &'a TargetBatches,
    parallel: bool,
    chunks: Vec<Chunk<C>>,
}

/// The batch indices of one chunk of a [`RunColumns`], and its columns.
type Chunk<const C: usize> = (Vec<u32>, Mutex<[Vec<f64>; C]>);

impl<'a, const C: usize> RunColumns<'a, C> {
    /// Zero columns over every target of `batches`, chunked as above.
    pub fn new(batches: &'a TargetBatches, parallel: bool) -> Self {
        let all = batches.batches();
        let mut order: Vec<u32> = (0..all.len() as u32).collect();
        order.sort_unstable_by_key(|&b| all[b as usize].start);
        let workers = parallel.then(rayon::current_num_threads).unwrap_or(1);
        let per_chunk = order.len() / if workers > 1 { 4 * workers } else { 1 };
        let chunks = (order.chunks(per_chunk.max(1)))
            .map(|chunk| {
                let targets =
                    all[chunk[chunk.len() - 1] as usize].end - all[chunk[0] as usize].start;
                let cols = std::array::from_fn(|_| vec![0.0; targets]);
                (chunk.to_vec(), Mutex::new(cols))
            })
            .collect();
        Self {
            batches,
            parallel,
            chunks,
        }
    }

    /// Adds one run-wise pass into the columns, chunk by chunk (over the
    /// pool's workers when `parallel`). `lists(b)` is batch `b`'s
    /// (approximation, direct) list, each naming its clusters in the
    /// order of `order[0]` / `order[1]`, which hold every cluster the
    /// lists may name. In a chunk, each cluster of `order[0]` and then
    /// of `order[1]` is one tile over each maximal run of consecutive
    /// batches that list it ([`TileOp::grid_tile`] over its proxies, or
    /// [`TileOp::tile`] over its particles, from `sources`); the run's
    /// targets are one contiguous range, so a tile of a cluster that
    /// sibling batches share holds many batches' targets and few pad
    /// lanes.
    pub fn eval<'l, O, S>(
        &self,
        op: &O,
        lists: impl Fn(usize) -> [&'l [u32]; 2] + Sync,
        order: [&[u32]; 2],
        sources: &S,
    ) -> RunTally
    where
        O: TileOp<C> + ?Sized,
        S: ClusterSources + ?Sized,
    {
        let walk = |(chunk, cols): &Chunk<C>| {
            let mut cols = cols.lock().expect("a run walk panicked");
            let tp = self.batches.particles();
            let batches: Vec<&Batch> = (chunk.iter())
                .map(|&b| &self.batches.batches()[b as usize])
                .collect();
            debug_assert!(batches.windows(2).all(|w| w[0].end == w[1].start));
            let lo = batches[0].start;
            let mut tally = RunTally::default();
            // Per path, each cluster's bucket of the chunk's batch positions
            // that list it (a count, an offset in `order`, a fill — not a
            // sort); the bucket's maximal runs of consecutive positions are
            // its tiles.
            for (path, order) in order.into_iter().enumerate() {
                let lists: Vec<&[u32]> = chunk.iter().map(|&b| lists(b as usize)[path]).collect();
                let (min, max) =
                    (order.iter()).fold((u32::MAX, 0), |(a, b), &c| (a.min(c), b.max(c)));
                let slot = |ci: u32| (ci - min) as usize;
                let mut count = vec![0u32; (max + 1).saturating_sub(min) as usize];
                for &ci in lists.iter().copied().flatten() {
                    count[slot(ci)] += 1;
                }
                let mut offset = vec![0u32; count.len()];
                let mut total = 0;
                for &ci in order {
                    offset[slot(ci)] = total;
                    total += count[slot(ci)];
                }
                debug_assert!(
                    total as usize == lists.iter().map(|l| l.len()).sum::<usize>()
                        && (lists.iter()).all(|l| l
                            .windows(2)
                            .all(|w| offset[slot(w[0])] < offset[slot(w[1])])),
                    "an interaction list names a cluster off its walk, or out of the walk's order"
                );
                let mut slots = vec![0u32; total as usize];
                for (at, list) in (0..).zip(&lists) {
                    for &ci in *list {
                        slots[offset[slot(ci)] as usize] = at;
                        offset[slot(ci)] += 1;
                    }
                }
                let mut rest = &slots[..];
                for &ci in order {
                    let (bucket, tail) = rest.split_at(count[slot(ci)] as usize);
                    rest = tail;
                    let mut first = 0;
                    for k in 1..=bucket.len() {
                        if k < bucket.len() && bucket[k] == bucket[k - 1] + 1 {
                            continue;
                        }
                        let run = bucket[first] as usize..bucket[k - 1] as usize + 1;
                        first = k;
                        let (start, end) = (batches[run.start].start, batches[run.end - 1].end);
                        let t = tp.xyz(start..end);
                        let mut out = cols.each_mut().map(|c| &mut c[start - lo..end - lo]);
                        let (ci, targets) = (ci as usize, (end - start) as u64);
                        let n_src = if path == 0 {
                            let (grid, qhat) = sources.approx(ci);
                            op.grid_tile(t, grid, qhat, &mut out);
                            tally.ops.approx_interactions += targets * qhat.len() as u64;
                            qhat.len() as u64
                        } else {
                            let s = sources.direct(ci);
                            op.tile(t, s, &mut out);
                            tally.ops.direct_interactions += targets * s.0.len() as u64;
                            s.0.len() as u64
                        };
                        tally.ops.kernel_launches += run.len() as u64;
                        tally.targets += targets;
                        tally.sources += run.len() as u64 * n_src;
                    }
                }
            }
            tally
        };
        let tallies: Vec<RunTally> = if self.parallel {
            self.chunks.par_iter().map(walk).collect()
        } else {
            self.chunks.iter().map(walk).collect()
        };
        tallies.iter().fold(RunTally::default(), |a, t| RunTally {
            ops: a.ops.merged(&t.ops),
            targets: a.targets + t.targets,
            sources: a.sources + t.sources,
        })
    }

    /// The columns over the targets in batch order.
    pub fn into_columns(self) -> [Vec<f64>; C] {
        let n = self.batches.particles().len();
        let mut cols: [Vec<f64>; C] = std::array::from_fn(|_| Vec::with_capacity(n));
        for (_, part) in self.chunks {
            let part = part.into_inner().expect("a run walk panicked");
            for (dst, src) in cols.iter_mut().zip(part) {
                dst.extend(src);
            }
        }
        cols
    }
}

/// A treecode engine: the object-safe entry point shared by the CPU
/// engines here and the GPU engine in `bltc-gpu`.
pub trait TreecodeEngine {
    /// Compute `phi(x_i) = Σ_j G(x_i, y_j) q_j` for all targets.
    fn compute(
        &self,
        targets: &ParticleSet,
        sources: &ParticleSet,
        kernel: &dyn Kernel,
    ) -> ComputeResult;

    /// Engine name for harness output.
    fn name(&self) -> &'static str;
}

/// Single-threaded reference engine.
#[derive(Debug, Clone, Copy)]
pub struct SerialEngine {
    /// Treecode parameters.
    pub params: BltcParams,
}

impl SerialEngine {
    /// Construct with the given parameters.
    pub fn new(params: BltcParams) -> Self {
        Self { params }
    }
}

/// The one body of both CPU engines: prepare, evaluate the potentials
/// (over the pool's workers when `parallel`, the same bits either way),
/// and report the counts and the measured phases.
fn compute_on_host(
    params: BltcParams,
    targets: &ParticleSet,
    sources: &ParticleSet,
    kernel: &dyn Kernel,
    parallel: bool,
) -> ComputeResult {
    let prep = PreparedTreecode::new(targets, sources, params);
    let t0 = Instant::now();
    let [potentials] = prep.evaluate(kernel, parallel);
    ComputeResult {
        potentials,
        ops: prep.ops,
        timings: PhaseTimings {
            setup: prep.setup_seconds,
            precompute: prep.precompute_seconds,
            compute: t0.elapsed().as_secs_f64(),
        },
        tree_stats: prep.tree.stats(),
    }
}

impl TreecodeEngine for SerialEngine {
    fn compute(
        &self,
        targets: &ParticleSet,
        sources: &ParticleSet,
        kernel: &dyn Kernel,
    ) -> ComputeResult {
        compute_on_host(self.params, targets, sources, kernel, false)
    }

    fn name(&self) -> &'static str {
        "cpu-serial"
    }
}

/// Shared-memory parallel engine (parallel over batches — the OpenMP
/// analogue of §4's CPU baseline).
#[derive(Debug, Clone, Copy)]
pub struct ParallelEngine {
    /// Treecode parameters.
    pub params: BltcParams,
}

impl ParallelEngine {
    /// Construct with the given parameters.
    pub fn new(params: BltcParams) -> Self {
        Self { params }
    }
}

impl TreecodeEngine for ParallelEngine {
    fn compute(
        &self,
        targets: &ParticleSet,
        sources: &ParticleSet,
        kernel: &dyn Kernel,
    ) -> ComputeResult {
        compute_on_host(self.params, targets, sources, kernel, true)
    }

    fn name(&self) -> &'static str {
        "cpu-parallel"
    }
}

/// Direct summation (Eq. 1): the `O(N²)` accuracy reference, parallelized
/// over targets.
pub fn direct_sum(targets: &ParticleSet, sources: &ParticleSet, kernel: &dyn Kernel) -> Vec<f64> {
    let n = targets.len();
    (0..n)
        .into_par_iter()
        .map(|i| {
            let (tx, ty, tz) = (targets.x[i], targets.y[i], targets.z[i]);
            let mut acc = 0.0;
            for j in 0..sources.len() {
                acc += kernel.eval(tx - sources.x[j], ty - sources.y[j], tz - sources.z[j])
                    * sources.q[j];
            }
            acc
        })
        .collect()
}

/// Direct summation restricted to the targets at `indices` (in `indices`
/// order) — the paper's sampled-error protocol for ≥8M-particle systems.
pub fn direct_sum_subset(
    targets: &ParticleSet,
    indices: &[usize],
    sources: &ParticleSet,
    kernel: &dyn Kernel,
) -> Vec<f64> {
    indices
        .par_iter()
        .map(|&i| {
            let (tx, ty, tz) = (targets.x[i], targets.y[i], targets.z[i]);
            let mut acc = 0.0;
            for j in 0..sources.len() {
                acc += kernel.eval(tx - sources.x[j], ty - sources.y[j], tz - sources.z[j])
                    * sources.q[j];
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::relative_l2_error;
    use crate::kernel::{Coulomb, Gaussian, GradientKernel, RegularizedCoulomb, Yukawa};

    fn cube(n: usize, seed: u64) -> ParticleSet {
        ParticleSet::random_cube(n, seed)
    }

    #[test]
    fn treecode_matches_direct_sum_to_mac_accuracy() {
        let ps = cube(3000, 60);
        let params = BltcParams::new(0.8, 6, 60, 60);
        let engine = SerialEngine::new(params);
        let result = engine.compute(&ps, &ps, &Coulomb);
        let exact = direct_sum(&ps, &ps, &Coulomb);
        let err = relative_l2_error(&exact, &result.potentials);
        assert!(err < 1e-4, "error {err} too large for θ=0.8, n=6");
        assert!(err > 0.0, "suspiciously exact — approximation unused?");
        assert!(result.ops.approx_interactions > 0);
    }

    #[test]
    fn serial_and_parallel_engines_agree_bitwise() {
        let ps = cube(2000, 61);
        let params = BltcParams::new(0.7, 5, 100, 100);
        let s = SerialEngine::new(params).compute(&ps, &ps, &Yukawa::default());
        let p = ParallelEngine::new(params).compute(&ps, &ps, &Yukawa::default());
        assert_eq!(s.potentials, p.potentials, "engines must agree bitwise");
        assert_eq!(s.ops, p.ops);
    }

    #[test]
    fn error_decreases_with_degree() {
        let ps = cube(2500, 62);
        let exact = direct_sum(&ps, &ps, &Coulomb);
        let mut prev = f64::INFINITY;
        for degree in [1, 3, 5, 7] {
            let params = BltcParams::new(0.8, degree, 120, 120);
            let r = SerialEngine::new(params).compute(&ps, &ps, &Coulomb);
            let err = relative_l2_error(&exact, &r.potentials);
            assert!(
                err < prev,
                "degree {degree}: error {err} did not decrease from {prev}"
            );
            prev = err;
        }
    }

    #[test]
    fn error_decreases_with_tighter_theta() {
        let ps = cube(2500, 63);
        let exact = direct_sum(&ps, &ps, &Coulomb);
        let err_at = |theta: f64| {
            let params = BltcParams::new(theta, 4, 120, 120);
            let r = SerialEngine::new(params).compute(&ps, &ps, &Coulomb);
            relative_l2_error(&exact, &r.potentials)
        };
        let e_loose = err_at(0.9);
        let e_tight = err_at(0.5);
        assert!(
            e_tight < e_loose,
            "θ=0.5 error {e_tight} !< θ=0.9 error {e_loose}"
        );
    }

    #[test]
    fn kernel_independence_all_kernels_converge() {
        let ps = cube(1500, 64);
        let params = BltcParams::new(0.7, 7, 100, 100);
        let kernels: Vec<Box<dyn Kernel>> = vec![
            Box::new(Coulomb),
            Box::new(Yukawa::new(0.5)),
            Box::new(RegularizedCoulomb::new(0.05)),
            Box::new(Gaussian::new(1.5)),
        ];
        for k in &kernels {
            let r = SerialEngine::new(params).compute(&ps, &ps, k.as_ref());
            let exact = direct_sum(&ps, &ps, k.as_ref());
            let err = relative_l2_error(&exact, &r.potentials);
            assert!(err < 1e-4, "{}: error {err}", k.name());
        }
    }

    #[test]
    fn disjoint_targets_and_sources() {
        // §2.4: targets and sources may be different sets.
        let sources = cube(2000, 65);
        let targets = {
            // Shifted cloud, partially overlapping the sources.
            let mut t = cube(500, 66);
            for x in &mut t.x {
                *x += 0.5;
            }
            t
        };
        let params = BltcParams::new(0.7, 6, 100, 100);
        let r = SerialEngine::new(params).compute(&targets, &sources, &Coulomb);
        let exact = direct_sum(&targets, &sources, &Coulomb);
        let err = relative_l2_error(&exact, &r.potentials);
        assert!(err < 1e-4, "disjoint sets error {err}");
        assert_eq!(r.potentials.len(), 500);
    }

    #[test]
    fn prepared_treecode_reuse_across_kernels() {
        let ps = cube(1200, 67);
        let prep = PreparedTreecode::new(&ps, &ps, BltcParams::new(0.7, 5, 100, 100));
        let (pc, _) = prep.evaluate_serial(&Coulomb);
        let (py, _) = prep.evaluate_serial(&Yukawa::default());
        // Same preparation must serve both kernels correctly.
        let ec = direct_sum(&ps, &ps, &Coulomb);
        let ey = direct_sum(&ps, &ps, &Yukawa::default());
        assert!(relative_l2_error(&ec, &pc) < 1e-4);
        assert!(relative_l2_error(&ey, &py) < 1e-4);
        assert_ne!(pc, py);
    }

    #[test]
    fn nonuniform_distributions_work() {
        let ps = ParticleSet::plummer(3000, 1.0, 68);
        let params = BltcParams::new(0.7, 6, 100, 100);
        let r = ParallelEngine::new(params).compute(&ps, &ps, &Coulomb);
        let exact = direct_sum(&ps, &ps, &Coulomb);
        let err = relative_l2_error(&exact, &r.potentials);
        assert!(err < 1e-4, "plummer error {err}");
        // Plummer potential of an all-positive-mass system is positive.
        assert!(r.potentials.iter().all(|&p| p > 0.0));
    }

    #[test]
    fn small_problem_degenerates_to_direct() {
        // Everything under one leaf: result must equal direct sum exactly.
        let ps = cube(100, 69);
        let params = BltcParams::new(0.7, 4, 1000, 1000);
        let r = SerialEngine::new(params).compute(&ps, &ps, &Coulomb);
        let exact = direct_sum(&ps, &ps, &Coulomb);
        for (a, b) in r.potentials.iter().zip(&exact) {
            assert!((a - b).abs() < 1e-12 * b.abs().max(1.0));
        }
        assert_eq!(r.ops.approx_interactions, 0);
        // Nothing is approximated, so no modified charges were computed.
        let prep = PreparedTreecode::new(&ps, &ps, params);
        assert!((0..prep.tree.num_nodes()).all(|i| !prep.charges.is_computed(i)));
        assert_eq!(prep.evaluate_serial(&Coulomb).0, r.potentials);
    }

    /// The same preparation assembled around `compute_all` (every
    /// cluster's charges present) — what a caller building the parts
    /// itself gets.
    fn prepared_around_compute_all(
        targets: &ParticleSet,
        sources: &ParticleSet,
        params: BltcParams,
    ) -> PreparedTreecode {
        let tree = SourceTree::build(sources, &params);
        let batches = TargetBatches::build(targets, &params);
        let lists = InteractionLists::build(&batches, &tree, &params);
        let charges = ClusterCharges::compute_all(&tree, params.degree);
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

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `PreparedTreecode::new` computes exactly the clusters its lists
    /// approximate, to the bits `compute_all` gives them, and every
    /// evaluation door returns the bits of the all-cluster preparation.
    fn assert_demand_driven_equals_compute_all(
        targets: &ParticleSet,
        sources: &ParticleSet,
        params: BltcParams,
    ) {
        let lazy = PreparedTreecode::new(targets, sources, params);
        let full = prepared_around_compute_all(targets, sources, params);
        let used = lazy.lists.used_approx_nodes(lazy.tree.num_nodes());
        assert!(used.contains(&true) && used.contains(&false));
        for (i, &u) in used.iter().enumerate() {
            assert_eq!(lazy.charges.is_computed(i), u, "cluster {i}");
            assert!(full.charges.is_computed(i));
            if u {
                let (a, b) = (lazy.charges.charges(i), full.charges.charges(i));
                assert_eq!(bits(a), bits(b), "cluster {i}");
            }
        }
        assert_eq!(lazy.ops, full.ops, "counts model the all-cluster pass");

        let k = Yukawa::new(0.5);
        let want = bits(&full.evaluate_serial(&k).0);
        assert_eq!(bits(&lazy.evaluate_serial(&k).0), want);
        assert_eq!(bits(&lazy.evaluate_parallel(&k).0), want);
        let (a, b) = (
            lazy.evaluate_field_parallel(&k),
            full.evaluate_field_parallel(&k),
        );
        assert_eq!(bits(&a.potentials), want);
        for (a, b) in [(a.gx, b.gx), (a.gy, b.gy), (a.gz, b.gz)] {
            assert_eq!(bits(&a), bits(&b), "field gradient");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4))]

        #[test]
        fn demand_driven_charges_equal_compute_all(
            n in 2000usize..3000,
            seed in 0u64..1000,
            degree in 1usize..5,
            theta in 0.6f64..0.9,
        ) {
            let params = BltcParams::new(theta, degree, 40, 40);
            let sources = cube(n, seed);
            // Probe targets beside the cloud: the far, heavy clusters
            // are approximated, the near ones opened.
            let mut probes = cube(n / 8, seed + 1);
            for x in &mut probes.x {
                *x += 1.25;
            }
            for workers in [1, 4] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(workers)
                    .build()
                    .expect("pool build");
                pool.install(|| {
                    assert_demand_driven_equals_compute_all(&sources, &sources, params);
                    assert_demand_driven_equals_compute_all(&probes, &sources, params);
                });
            }
        }
    }

    /// The per-batch loop the run-wise `evaluate` replaced: each batch's
    /// targets against its approximation list (flat tiles over the
    /// proxies), then its direct list, into columns that start at `0.0`.
    fn per_batch_reference<const C: usize, O: TileOp<C> + ?Sized>(
        prep: &PreparedTreecode,
        op: &O,
    ) -> [Vec<f64>; C] {
        let tp = prep.batches.particles();
        let mut cols: [Vec<f64>; C] = std::array::from_fn(|_| vec![0.0; tp.len()]);
        for (b, bl) in prep.batches.batches().iter().zip(&prep.lists.per_batch) {
            let t = tp.xyz(b.start..b.end);
            let mut out = cols.each_mut().map(|c| &mut c[b.start..b.end]);
            for &ci in &bl.approx {
                let (px, py, pz) = prep.charges.grid(ci as usize).proxies();
                op.tile(t, (px, py, pz, prep.charges.charges(ci as usize)), &mut out);
            }
            for &ci in &bl.direct {
                op.tile(t, prep.tree.node_particles(ci as usize), &mut out);
            }
        }
        cols.map(|c| prep.batches.scatter_to_original(&c))
    }

    /// Tiles and target slots of a pass, beside the op that computes it.
    struct Counting<'a, O: ?Sized>(&'a O, std::sync::atomic::AtomicUsize);

    impl<const C: usize, O: TileOp<C> + ?Sized> TileOp<C> for Counting<'_, O> {
        const APPROX_LAUNCH: &'static str = O::APPROX_LAUNCH;
        const DIRECT_LAUNCH: &'static str = O::DIRECT_LAUNCH;

        fn tile(
            &self,
            t: (&[f64], &[f64], &[f64]),
            s: (&[f64], &[f64], &[f64], &[f64]),
            out: &mut [&mut [f64]; C],
        ) {
            self.1.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.0.tile(t, s, out);
        }

        fn flops_per_pair(&self, gpu: bool) -> f64 {
            self.0.flops_per_pair(gpu)
        }
    }

    /// Run-wise `evaluate`, serial and parallel on pools of 1, 2 and 4
    /// workers, equals the per-batch loop bit for bit, in both passes:
    /// on a uniform cube and a Plummer sphere whose batches are the
    /// tree's leaves, and on probe targets beside the cloud batched on
    /// their own. On the cube, runs fold many batch–cluster pairs into
    /// one tile.
    #[test]
    fn run_wise_evaluate_equals_the_per_batch_loop_bitwise() {
        let sources = cube(3000, 72);
        let mut probes = cube(700, 73);
        for x in &mut probes.x {
            *x += 1.25;
        }
        let plummer = ParticleSet::plummer(2500, 1.0, 74);
        let cases = [
            (&sources, &sources, BltcParams::new(0.8, 4, 40, 40)),
            (&plummer, &plummer, BltcParams::new(0.7, 5, 50, 50)),
            (&probes, &sources, BltcParams::new(0.7, 3, 60, 24)),
        ];
        let yukawa = Yukawa::new(0.5);
        let softened = RegularizedCoulomb::new(0.05);
        for (c, &(targets, sources, params)) in cases.iter().enumerate() {
            let prep = PreparedTreecode::new(targets, sources, params);
            let pots: [&dyn Kernel; 3] = [&Coulomb, &yukawa, &softened];
            let fields: [&dyn GradientKernel; 2] = [&Coulomb, &softened];
            let want_pots = pots.map(|k| bits(&per_batch_reference(&prep, k)[0]));
            let want_fields = fields.map(|k| per_batch_reference(&prep, k).map(|c| bits(&c)));
            for workers in [1, 2, 4] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(workers)
                    .build()
                    .expect("pool build");
                pool.install(|| {
                    for parallel in [false, true] {
                        let at = (c, workers, parallel);
                        for (k, want) in pots.iter().zip(&want_pots) {
                            let [got] = prep.evaluate(*k, parallel);
                            assert_eq!(&bits(&got), want, "{} {at:?}", k.name());
                        }
                        for (k, want) in fields.iter().zip(&want_fields) {
                            let got = prep.evaluate(*k, parallel).map(|c| bits(&c));
                            assert_eq!(&got, want, "{} field {at:?}", k.name());
                        }
                    }
                });
            }
            if c == 0 {
                let counting = Counting(&Coulomb as &dyn Kernel, Default::default());
                prep.evaluate(&counting, false);
                let pairs = prep.lists.num_approx() + prep.lists.num_direct();
                let tiles = counting.1.into_inner();
                assert!(
                    3 * tiles < pairs,
                    "{tiles} tiles for {pairs} batch-cluster pairs"
                );
            }
        }
    }

    /// In a debug build the walk refuses a list that is out of its
    /// order, which the runs rely on.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "out of the walk's order")]
    fn a_list_out_of_the_walks_order_is_refused() {
        let ps = cube(1500, 75);
        let mut prep = PreparedTreecode::new(&ps, &ps, BltcParams::new(0.8, 3, 40, 40));
        let lists = prep.lists.per_batch.iter_mut();
        let bl = lists.max_by_key(|bl| bl.direct.len()).expect("a batch");
        bl.direct.reverse();
        prep.evaluate(&Coulomb as &dyn Kernel, false);
    }

    #[test]
    fn direct_sum_subset_matches_full() {
        let ps = cube(400, 70);
        let full = direct_sum(&ps, &ps, &Coulomb);
        let idx = vec![3usize, 17, 399, 0];
        let sub = direct_sum_subset(&ps, &idx, &ps, &Coulomb);
        for (s, &i) in sub.iter().zip(&idx) {
            assert_eq!(*s, full[i]);
        }
    }

    #[test]
    fn timings_are_recorded() {
        let ps = cube(1000, 71);
        let r = SerialEngine::new(BltcParams::default()).compute(&ps, &ps, &Coulomb);
        assert!(r.timings.setup > 0.0);
        assert!(r.timings.precompute > 0.0);
        assert!(r.timings.compute > 0.0);
        assert!(r.timings.total() < 60.0, "unexpectedly slow");
    }

    #[test]
    fn engine_names() {
        assert_eq!(
            SerialEngine::new(BltcParams::default()).name(),
            "cpu-serial"
        );
        assert_eq!(
            ParallelEngine::new(BltcParams::default()).name(),
            "cpu-parallel"
        );
    }
}
