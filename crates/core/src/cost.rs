//! Operation accounting and analytic time models.
//!
//! Every engine counts the work it actually performs (kernel evaluations
//! on the direct and approximation paths, precompute terms). The counts
//! are exact — they are derived from the interaction lists — and feed two
//! consumers:
//!
//! 1. correctness/efficiency tests (e.g. *treecode does strictly less work
//!    than direct summation*, *work grows like N log N*), and
//! 2. the analytic clocks that stand in for the paper's hardware: a
//!    [`CpuSpec`] here and the device model in the `gpu-sim` crate. Both
//!    convert flop counts into seconds through a peak-throughput ×
//!    efficiency model, so CPU and (simulated) GPU run times are directly
//!    comparable — that is how the reproduction recovers the paper's
//!    ≥100× speedup *shape* without NVIDIA hardware.

use crate::config::BltcParams;
use crate::kernel::{GradientKernel, Kernel, TileOp};
use crate::traversal::InteractionLists;
use crate::tree::{batch::TargetBatches, SourceTree};

/// Flop-equivalents per phase-1 term (Eq. 14): three dimensions of
/// subtract + divide + accumulate.
pub const PHASE1_FLOPS_PER_TERM: f64 = 12.0;
/// Flop-equivalents per phase-2 term (Eq. 15): three term products plus
/// the accumulate.
pub const PHASE2_FLOPS_PER_TERM: f64 = 5.0;

/// Exact operation counts for one treecode evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Target×source pairs on the direct path (Eq. 9).
    pub direct_interactions: u64,
    /// Target×proxy pairs on the approximation path (Eq. 11).
    pub approx_interactions: u64,
    /// Phase-1 precompute terms: `Σ_clusters N_C · (n+1)` (per Eq. 14,
    /// counted once per (source, node) pair in one dimension; the flop
    /// constant covers the three dimensions).
    pub precompute_phase1_terms: u64,
    /// Phase-2 precompute terms: `Σ_clusters N_C · (n+1)³`.
    pub precompute_phase2_terms: u64,
    /// Number of target batches.
    pub num_batches: u64,
    /// Number of tree nodes.
    pub num_nodes: u64,
    /// Number of batch–cluster kernel launches (direct + approx).
    pub kernel_launches: u64,
}

impl OpCounts {
    /// Derive the counts implied by a set of interaction lists, assuming
    /// modified charges are precomputed for **all** clusters (the paper's
    /// choice, §3.2).
    ///
    /// The `precompute_*` terms are therefore the modeled device's
    /// all-cluster, two-kernel pass — what the simulated GPU launches
    /// and what the analytic clocks charge — and deliberately *not* the
    /// host's work: `PreparedTreecode::new` computes only the clusters
    /// its lists approximate, each in one fused pass.
    pub fn from_lists(
        lists: &InteractionLists,
        batches: &TargetBatches,
        tree: &SourceTree,
        params: &BltcParams,
    ) -> Self {
        let proxy = params.proxy_count() as u64;
        let nper = (params.degree + 1) as u64;
        let mut c = OpCounts {
            num_batches: batches.len() as u64,
            num_nodes: tree.num_nodes() as u64,
            ..Default::default()
        };
        for (bl, b) in lists.per_batch.iter().zip(batches.batches()) {
            let nb = b.num_targets() as u64;
            for &ci in &bl.approx {
                let _ = ci;
                c.approx_interactions += nb * proxy;
            }
            for &ci in &bl.direct {
                let nc = tree.node(ci as usize).num_particles() as u64;
                c.direct_interactions += nb * nc;
            }
            c.kernel_launches += (bl.approx.len() + bl.direct.len()) as u64;
        }
        for node in tree.nodes() {
            let nc = node.num_particles() as u64;
            c.precompute_phase1_terms += nc * nper;
            c.precompute_phase2_terms += nc * proxy;
        }
        c
    }

    /// Total kernel evaluations (the quantity with the `O(N log N)` vs
    /// `O(N²)` scaling).
    pub fn kernel_evals(&self) -> u64 {
        self.direct_interactions + self.approx_interactions
    }

    /// Compute-phase flops of a pass (`op` is `&dyn Kernel` for
    /// potentials, `&dyn GradientKernel` for fields) on a given device
    /// class.
    pub fn pass_flops<const C: usize>(&self, op: &(impl TileOp<C> + ?Sized), gpu: bool) -> f64 {
        self.kernel_evals() as f64 * op.flops_per_pair(gpu)
    }

    /// Compute-phase flops of a potential evaluation.
    pub fn compute_flops(&self, kernel: &dyn Kernel, gpu: bool) -> f64 {
        self.pass_flops(kernel, gpu)
    }

    /// Compute-phase flops of a **field** (potential + gradient)
    /// evaluation. Gradient kernels charge ~4× the potential-only flops
    /// (see [`GradientKernel::grad_flops_per_eval_gpu`]), which is how
    /// force evaluation shows up in the modeled clocks.
    pub fn field_flops(&self, kernel: &dyn GradientKernel, gpu: bool) -> f64 {
        self.pass_flops(kernel, gpu)
    }

    /// Precompute-phase flops (kernel-independent).
    pub fn precompute_flops(&self) -> f64 {
        self.precompute_phase1_terms as f64 * PHASE1_FLOPS_PER_TERM
            + self.precompute_phase2_terms as f64 * PHASE2_FLOPS_PER_TERM
    }

    /// Element-wise sum (used to aggregate ranks).
    pub fn merged(&self, other: &OpCounts) -> OpCounts {
        OpCounts {
            direct_interactions: self.direct_interactions + other.direct_interactions,
            approx_interactions: self.approx_interactions + other.approx_interactions,
            precompute_phase1_terms: self.precompute_phase1_terms + other.precompute_phase1_terms,
            precompute_phase2_terms: self.precompute_phase2_terms + other.precompute_phase2_terms,
            num_batches: self.num_batches + other.num_batches,
            num_nodes: self.num_nodes + other.num_nodes,
            kernel_launches: self.kernel_launches + other.kernel_launches,
        }
    }
}

/// An analytic CPU clock: peak throughput × sustained-efficiency model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuSpec {
    /// Human-readable name.
    pub name: &'static str,
    /// Physical cores used.
    pub cores: usize,
    /// Clock in GHz.
    pub clock_ghz: f64,
    /// Double-precision flops per cycle per core (SIMD width × FMA).
    pub flops_per_cycle: f64,
    /// Sustained fraction of peak on this workload.
    pub efficiency: f64,
}

impl CpuSpec {
    /// The paper's CPU baseline: 6-core 2.67 GHz Intel Xeon X5650
    /// (Westmere, 128-bit SSE ⇒ 4 DP flops/cycle with mul+add).
    pub fn xeon_x5650() -> Self {
        Self {
            name: "Xeon X5650 (6 cores)",
            cores: 6,
            clock_ghz: 2.67,
            flops_per_cycle: 4.0,
            efficiency: 0.30,
        }
    }

    /// Peak double-precision GFLOP/s.
    pub fn peak_gflops(&self) -> f64 {
        self.cores as f64 * self.clock_ghz * self.flops_per_cycle
    }

    /// Modeled seconds to execute `flops` flop-equivalents.
    pub fn seconds(&self, flops: f64) -> f64 {
        assert!(flops >= 0.0);
        flops / (self.peak_gflops() * 1e9 * self.efficiency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Coulomb, Yukawa};
    use crate::particles::ParticleSet;

    fn counts(n: usize, params: &BltcParams) -> OpCounts {
        let ps = ParticleSet::random_cube(n, 50);
        let tree = SourceTree::build(&ps, params);
        let batches = TargetBatches::build(&ps, params);
        let lists = InteractionLists::build(&batches, &tree, params);
        OpCounts::from_lists(&lists, &batches, &tree, params)
    }

    #[test]
    fn treecode_beats_direct_summation() {
        let params = BltcParams::new(0.8, 2, 50, 50);
        let n = 20_000;
        let tc = counts(n, &params);
        let direct = (n * n) as u64;
        assert!(
            tc.kernel_evals() < direct / 4,
            "treecode {} vs direct {direct}",
            tc.kernel_evals()
        );
    }

    #[test]
    fn work_scales_subquadratically() {
        // In the asymptotic regime (tree depth past the turn-on point)
        // doubling N should roughly double the work — far from the 4× of
        // direct summation.
        let params = BltcParams::new(0.8, 3, 50, 50);
        let w1 = counts(20_000, &params).kernel_evals() as f64;
        let w2 = counts(40_000, &params).kernel_evals() as f64;
        let growth = w2 / w1;
        assert!(
            growth < 3.0,
            "growth factor {growth} too close to quadratic"
        );
        assert!(growth > 1.5, "growth factor {growth} implausibly low");
    }

    #[test]
    fn yukawa_costs_more_flops_than_coulomb() {
        let params = BltcParams::new(0.7, 4, 100, 100);
        let c = counts(2_000, &params);
        let fc = c.compute_flops(&Coulomb, false);
        let fy = c.compute_flops(&Yukawa::default(), false);
        assert!((fy / fc - 1.8).abs() < 0.05);
        let gc = c.compute_flops(&Coulomb, true);
        let gy = c.compute_flops(&Yukawa::default(), true);
        assert!((gy / gc - 1.5).abs() < 0.05);
    }

    #[test]
    fn field_flops_are_about_4x_compute_flops() {
        let params = BltcParams::new(0.7, 4, 100, 100);
        let c = counts(2_000, &params);
        for gpu in [false, true] {
            let pot = c.compute_flops(&Coulomb, gpu);
            let fld = c.field_flops(&Coulomb, gpu);
            assert!((fld / pot - 4.0).abs() < 1e-12, "gpu={gpu}: {}", fld / pot);
        }
    }

    #[test]
    fn cpu_spec_peak_and_seconds() {
        let cpu = CpuSpec::xeon_x5650();
        assert!((cpu.peak_gflops() - 64.08).abs() < 1e-9);
        let t = cpu.seconds(1e9);
        assert!(t > 0.0 && t.is_finite());
    }

    #[test]
    fn merged_adds_fields() {
        let a = OpCounts {
            direct_interactions: 1,
            approx_interactions: 2,
            precompute_phase1_terms: 3,
            precompute_phase2_terms: 4,
            num_batches: 5,
            num_nodes: 6,
            kernel_launches: 7,
        };
        let b = a;
        let m = a.merged(&b);
        assert_eq!(m.direct_interactions, 2);
        assert_eq!(m.kernel_launches, 14);
        assert_eq!(m.kernel_evals(), 6);
    }

    #[test]
    fn precompute_flops_positive_and_degree_sensitive() {
        let lo = counts(2_000, &BltcParams::new(0.7, 2, 100, 100));
        let hi = counts(2_000, &BltcParams::new(0.7, 8, 100, 100));
        assert!(hi.precompute_flops() > lo.precompute_flops() * 10.0);
    }
}
