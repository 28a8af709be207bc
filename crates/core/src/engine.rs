//! CPU compute engines: a serial reference and a shared-memory-parallel
//! engine (rayon task per target batch — the analogue of the paper's
//! OpenMP port, which assigns each batch to one OpenMP thread), plus
//! direct summation as the accuracy/performance baseline.
//!
//! The expensive, kernel-*independent* state (tree, batches, interaction
//! lists, modified charges) is factored into [`PreparedTreecode`] so a
//! single preparation can be evaluated under several kernels — exactly
//! what the Fig. 4 sweep does with Coulomb and Yukawa.

use std::time::Instant;

use rayon::prelude::*;

use crate::charges::ClusterCharges;
use crate::config::BltcParams;
use crate::cost::OpCounts;
use crate::kernel::{Kernel, TileOp};
use crate::particles::ParticleSet;
use crate::traversal::{BatchLists, InteractionLists};
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
        params.validate();
        let t0 = Instant::now();
        let tree = SourceTree::build(sources, &params);
        let batches = TargetBatches::build(targets, &params);
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

    /// Evaluate the potentials with one rayon task per batch (batches own
    /// disjoint contiguous target ranges, so results are deterministic and
    /// bitwise identical to the serial path).
    pub fn evaluate_parallel(&self, kernel: &dyn Kernel) -> (Vec<f64>, f64) {
        let t0 = Instant::now();
        let [potentials] = self.evaluate(kernel, true);
        (potentials, t0.elapsed().as_secs_f64())
    }

    /// The evaluation behind every `evaluate_*` door: each batch's `C`
    /// output columns from its interaction lists — one pool task per
    /// batch when `parallel`, a plain loop otherwise, the same bits
    /// either way — assembled into original target order.
    pub(crate) fn evaluate<const C: usize, O: TileOp<C> + ?Sized>(
        &self,
        op: &O,
        parallel: bool,
    ) -> [Vec<f64>; C] {
        let tp = self.batches.particles();
        let batches = self.batches.batches();
        let eval = |(b, bl): (&Batch, &BatchLists)| {
            let mut cols: [Vec<f64>; C] = std::array::from_fn(|_| vec![0.0; b.num_targets()]);
            let out = cols.each_mut().map(|c| &mut c[..]);
            eval_batch_into(b, bl, &self.tree, &self.charges, tp, op, out);
            cols
        };
        let per_batch: Vec<[Vec<f64>; C]> = if parallel {
            (batches.par_iter().zip(&self.lists.per_batch))
                .map(eval)
                .collect()
        } else {
            batches
                .iter()
                .zip(&self.lists.per_batch)
                .map(eval)
                .collect()
        };
        let mut reordered: [Vec<f64>; C] = std::array::from_fn(|_| vec![0.0; tp.len()]);
        for (b, cols) in batches.iter().zip(&per_batch) {
            for (dst, src) in reordered.iter_mut().zip(cols) {
                dst[b.start..b.end].copy_from_slice(src);
            }
        }
        reordered.map(|col| self.batches.scatter_to_original(&col))
    }
}

/// Evaluate one batch against its interaction lists, accumulating the
/// pass's `C` output columns for the batch's (reordered) targets into
/// `out` (each of length `batch.num_targets()`). The simulated-GPU
/// launches issue the same tile calls in the same order and so stay
/// bitwise identical to it.
fn eval_batch_into<const C: usize, O: TileOp<C> + ?Sized>(
    batch: &Batch,
    lists: &BatchLists,
    tree: &SourceTree,
    charges: &ClusterCharges,
    targets: &ParticleSet,
    op: &O,
    mut out: [&mut [f64]; C],
) {
    let t = targets.xyz(batch.start..batch.end);
    // Approximation path (Eq. 11): targets × Chebyshev proxies.
    for &ci in &lists.approx {
        let ci = ci as usize;
        let (px, py, pz) = charges.grid(ci).proxies();
        op.tile(t, (px, py, pz, charges.charges(ci)), &mut out);
    }
    // Direct path (Eq. 9): targets × cluster sources.
    for &ci in &lists.direct {
        op.tile(t, tree.node_particles(ci as usize), &mut out);
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

impl TreecodeEngine for SerialEngine {
    fn compute(
        &self,
        targets: &ParticleSet,
        sources: &ParticleSet,
        kernel: &dyn Kernel,
    ) -> ComputeResult {
        let prep = PreparedTreecode::new(targets, sources, self.params);
        let (potentials, compute) = prep.evaluate_serial(kernel);
        ComputeResult {
            potentials,
            ops: prep.ops,
            timings: PhaseTimings {
                setup: prep.setup_seconds,
                precompute: prep.precompute_seconds,
                compute,
            },
            tree_stats: prep.tree.stats(),
        }
    }

    fn name(&self) -> &'static str {
        "cpu-serial"
    }
}

/// Shared-memory parallel engine (rayon task per batch — the OpenMP
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
        let prep = PreparedTreecode::new(targets, sources, self.params);
        let (potentials, compute) = prep.evaluate_parallel(kernel);
        ComputeResult {
            potentials,
            ops: prep.ops,
            timings: PhaseTimings {
                setup: prep.setup_seconds,
                precompute: prep.precompute_seconds,
                compute,
            },
            tree_stats: prep.tree.stats(),
        }
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
    use crate::kernel::{Coulomb, Gaussian, RegularizedCoulomb, Yukawa};

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
