//! Modified charges `q̂_k` (Eq. 12): one per-particle term pass, one
//! tensor accumulate.
//!
//! Per source particle and dimension ℓ the barycentric terms
//! `t_k = w_k / (y_{jℓ} - s_kℓ)` are evaluated **once**
//! ([`dim_terms`]); their ascending-`k` sum is the denominator `D_ℓ`.
//! The particle then adds `t_{k1} t_{k2} t_{k3} · q_j / (D_1 D_2 D_3)`
//! to every proxy `k` — exactly the tensor Lagrange basis
//! `L_{k1} L_{k2} L_{k3}` of Eq. 12 times its charge.
//!
//! Removable singularities: a source coordinate on a box face coincides
//! with an endpoint node (guaranteed by minimal bounding boxes). Per §2.3
//! the coincident dimension's terms collapse to a Kronecker row and its
//! denominator to 1; [`dim_terms`] does both.
//!
//! **Why the bits cannot move.** Every cluster, whoever computes it,
//! goes through one of two bodies that perform the same operations. The
//! portable one is the private `term_pass` (three [`dim_terms`] calls per
//! particle) and `scatter` (the triple loop). The expressions and their
//! association are fixed — `q̃ = ((q·f₁)·f₂)·f₃`, `((t₁·q̃)·t₂)·t₃`,
//! ascending `k` in each denominator, ascending `j` into each proxy slot
//! — and the zero-skip branches of `scatter` keep a Kronecker row from
//! adding signed zeros or `0·∞` to the slots it does not own. Widths `n +
//! 1 = 2..=14` run the same body over `[f64; n + 1]` rows (the compiler
//! unrolls the rows); only the code shape differs, never the arithmetic.
//!
//! On an x86-64 host with AVX-512F (a run-time check, like the tiles'),
//! widths up to 8 (degrees 1–7) run the crate-private `kernel::avx512`
//! body instead, which changes the loop shape only:
//! - its term pass puts eight particles in lanes and performs
//!   [`dim_terms`]'s operations in its order in every lane; a lane on a
//!   node is handed to [`dim_terms`] itself;
//! - its scatter interchanges the loops. Per chunk of particles and per
//!   `k1` it keeps the `(k1, ·, ·)` block of `q̂` in registers while the
//!   chunk's particles stream past. Every slot still receives the same
//!   products `((t₁[k1]·q̃)·t₂[k2])·t₃[k3]`, and per slot the additions
//!   still come in ascending `j`: chunks in order, particles in order
//!   within a chunk. The zero skips become a branch (`t₁[k1]·q̃ = 0`) and
//!   a lane mask (a zero lane of `c₁₂`).
//!
//! Neither the operands of an addition nor their order change, so neither
//! do the bits. A `#[cfg(test)]` copy of the earlier scalar two-pass code
//! is the oracle the property tests compare both bodies against, bit for
//! bit. With finite particles no term is infinite, and a slot, which
//! starts at `+0`, never holds `−0`, so a skipped zero product would
//! change no bit: the oracle cannot see the skips. The AVX-512 module's
//! tests therefore also feed both scatters term rows with infinities,
//! where a missing skip does show.
//!
//! **Where the paper's two kernels survive.** §3.2 launches two kernels
//! per cluster, Eq. 14 (`q̃_j`) and Eq. 15 (`q̂_k` from `q̃`), with `q̃`
//! in a device buffer between them. They survive as two ledger records
//! per cluster on the simulated device, priced with
//! [`PHASE1_FLOPS_PER_TERM`] and [`PHASE2_FLOPS_PER_TERM`] work and the
//! `q̃` traffic; the numbers themselves come from the fused pass here
//! ([`compute_charges_into`]), which never materializes `q̃`.
//!
//! **Who computes what.** [`PreparedTreecode::new`] computes only the
//! clusters its interaction lists approximate
//! ([`ClusterCharges::compute_selected`]); [`ClusterCharges::compute_all`]
//! is the same constructor with every cluster selected — what the
//! simulated device's all-cluster precompute stands for, and whose
//! node-major concatenation the distributed `q̂` window exposes (remote
//! ranks choose what they read).
//!
//! Because `Σ_k L_k(y) = 1` in every dimension, the transform conserves
//! total charge: `Σ_k q̂_k = Σ_j q_j` — a key test invariant.
//!
//! [`PreparedTreecode::new`]: crate::engine::PreparedTreecode::new
//! [`PHASE1_FLOPS_PER_TERM`]: crate::cost::PHASE1_FLOPS_PER_TERM
//! [`PHASE2_FLOPS_PER_TERM`]: crate::cost::PHASE2_FLOPS_PER_TERM

use rayon::prelude::*;

use crate::interp::barycentric::dim_terms;
use crate::interp::tensor::TensorGrid;
use crate::tree::SourceTree;

/// One cluster's interpolation data.
#[derive(Debug, Clone)]
struct Cluster {
    grid: TensorGrid,
    /// `(n+1)³` modified charges in linear index order; empty if the
    /// cluster was not selected.
    qhat: Vec<f64>,
}

/// Per-cluster interpolation data: the tensor grid of every cluster and
/// the modified charges of the computed ones.
#[derive(Debug, Clone)]
pub struct ClusterCharges {
    degree: usize,
    clusters: Vec<Cluster>,
}

impl ClusterCharges {
    /// Compute the tensor grid and the modified charges of every cluster
    /// (the paper precomputes all clusters in the rank's subtree up
    /// front, §3.2). Costs as in [`Self::compute_selected`], per particle
    /// of every cluster.
    pub fn compute_all(tree: &SourceTree, degree: usize) -> Self {
        Self::compute_selected(tree, degree, &vec![true; tree.num_nodes()])
    }

    /// Compute the tensor grid of every cluster and the modified charges
    /// of the clusters with `selected[idx]`, in parallel over clusters
    /// (the paper: one OpenMP task per cluster; the pool's workers claim
    /// chunks of `max(len / (4·workers), 1)` clusters). A cluster's grid and
    /// charges depend only on that cluster's box and particles and land
    /// in that cluster's slot, so every computed slot is bitwise the
    /// same at any pool size and under any selection.
    ///
    /// A particle costs its work once per computed cluster that holds it.
    /// Per such particle–cluster membership, best of 15 on one thread of
    /// a 2-vCPU AVX-512F host, over the tree of 100 000 uniform sources
    /// with leaves of 300 (585 clusters, 400 000 memberships): the
    /// AVX-512 body takes 58–62 ns at degree 6 and 34 ns at degree 4, the
    /// portable body 150–162 ns and 73–80 ns. About half of the AVX-512
    /// figure is its term pass, bound by the divider (`n + 2` divides per
    /// particle and dimension), the rest its scatter, bound by the FP
    /// ports (a multiply and an add per slot).
    pub fn compute_selected(tree: &SourceTree, degree: usize, selected: &[bool]) -> Self {
        assert_eq!(selected.len(), tree.num_nodes(), "selection length");
        let clusters = (0..tree.num_nodes())
            .into_par_iter()
            .map(|idx| {
                let grid = TensorGrid::new(degree, &tree.node(idx).bbox);
                let qhat = if selected[idx] {
                    let (xs, ys, zs, qs) = tree.node_particles(idx);
                    compute_charges_from_slices(&grid, xs, ys, zs, qs)
                } else {
                    Vec::new()
                };
                Cluster { grid, qhat }
            })
            .collect();
        Self { degree, clusters }
    }

    /// Interpolation degree.
    #[inline]
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// The tensor grid of a node.
    #[inline]
    pub fn grid(&self, idx: usize) -> &TensorGrid {
        &self.clusters[idx].grid
    }

    /// The modified charges of a node.
    ///
    /// # Panics
    /// If the node's charges were not computed: an evaluation may read
    /// only the clusters on its own approximation lists.
    #[inline]
    pub fn charges(&self, idx: usize) -> &[f64] {
        let qhat = &self.clusters[idx].qhat;
        assert!(
            !qhat.is_empty(),
            "modified charges of cluster {idx} were never computed: \
             it is on no approximation list of this preparation"
        );
        qhat
    }

    /// Number of nodes tracked.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.clusters.len()
    }
}

/// The modified charges of one cluster over raw coordinate slices, as a
/// fresh vector ([`compute_charges_into`] is the in-place form).
pub fn compute_charges_from_slices(
    grid: &TensorGrid,
    xs: &[f64],
    ys: &[f64],
    zs: &[f64],
    qs: &[f64],
) -> Vec<f64> {
    let mut qhat = vec![0.0; grid.len()];
    compute_charges_into(grid, xs, ys, zs, qs, &mut qhat);
    qhat
}

/// The modified charges of one cluster, written over `qhat`
/// (`grid.len()` slots): Eq. 14 and Eq. 15 fused into one pass per
/// particle, no `q̃` vector in between. The AVX-512 body where the host
/// has AVX-512F and the grid is at most eight nodes wide, the portable
/// body everywhere else: the same bits either way (see the module doc),
/// so this is a selection the code observes, not an option.
pub fn compute_charges_into(
    grid: &TensorGrid,
    xs: &[f64],
    ys: &[f64],
    zs: &[f64],
    qs: &[f64],
    qhat: &mut [f64],
) {
    #[cfg(target_arch = "x86_64")]
    if crate::kernel::avx512::charges(grid, [xs, ys, zs], qs, qhat) {
        return;
    }
    portable_charges_into(grid, xs, ys, zs, qs, qhat);
}

/// The portable body of [`compute_charges_into`]: the term pass and
/// [`scatter`], one particle at a time.
fn portable_charges_into(
    grid: &TensorGrid,
    xs: &[f64],
    ys: &[f64],
    zs: &[f64],
    qs: &[f64],
    qhat: &mut [f64],
) {
    assert_eq!(qs.len(), xs.len(), "charge count mismatch");
    assert_eq!(qhat.len(), grid.len(), "modified charge count mismatch");
    qhat.fill(0.0);
    for_each_particle(grid, [xs, ys, zs], |j, [f1, f2, f3], terms| {
        scatter(qs[j] * f1 * f2 * f3, terms, qhat);
    });
}

/// Run the term pass over a cluster's particles at the grid's width:
/// `each(j, [f₁, f₂, f₃], [t₁, t₂, t₃])` per particle, ascending `j`.
///
/// Widths 2..=14 (degrees 1–13, the range Fig. 4 sweeps) get the body
/// monomorphised over `[f64; M]` rows; wider grids run it over vectors.
#[inline(always)]
fn for_each_particle(
    grid: &TensorGrid,
    coords: [&[f64]; 3],
    each: impl FnMut(usize, [f64; 3], [&[f64]; 3]),
) {
    match grid.nodes_per_dim() {
        2 => term_pass(grid, coords, [[0.0; 2]; 3], each),
        3 => term_pass(grid, coords, [[0.0; 3]; 3], each),
        4 => term_pass(grid, coords, [[0.0; 4]; 3], each),
        5 => term_pass(grid, coords, [[0.0; 5]; 3], each),
        6 => term_pass(grid, coords, [[0.0; 6]; 3], each),
        7 => term_pass(grid, coords, [[0.0; 7]; 3], each),
        8 => term_pass(grid, coords, [[0.0; 8]; 3], each),
        9 => term_pass(grid, coords, [[0.0; 9]; 3], each),
        10 => term_pass(grid, coords, [[0.0; 10]; 3], each),
        11 => term_pass(grid, coords, [[0.0; 11]; 3], each),
        12 => term_pass(grid, coords, [[0.0; 12]; 3], each),
        13 => term_pass(grid, coords, [[0.0; 13]; 3], each),
        14 => term_pass(grid, coords, [[0.0; 14]; 3], each),
        m => term_pass(grid, coords, [(); 3].map(|()| vec![0.0; m]), each),
    }
}

/// The term pass: per particle, the three [`dim_terms`] rows and their
/// phase-1 factors, handed to `each`. `rows` is the scratch the terms
/// live in.
#[inline(always)]
fn term_pass<R: AsMut<[f64]>>(
    grid: &TensorGrid,
    [xs, ys, zs]: [&[f64]; 3],
    mut rows: [R; 3],
    mut each: impl FnMut(usize, [f64; 3], [&[f64]; 3]),
) {
    assert!(ys.len() == xs.len() && zs.len() == xs.len());
    let [r1, r2, r3] = &mut rows;
    let (t1, t2, t3) = (r1.as_mut(), r2.as_mut(), r3.as_mut());
    for j in 0..xs.len() {
        let factors = [
            dim_terms(grid.dim(0), xs[j], t1),
            dim_terms(grid.dim(1), ys[j], t2),
            dim_terms(grid.dim(2), zs[j], t3),
        ];
        each(j, factors, [t1, t2, t3]);
    }
}

/// Add one particle's contribution `c · t₁[k1] · t₂[k2] · t₃[k3]` to
/// every proxy slot (`(k1·m + k2)·m + k3`, the linear proxy layout shared
/// with the distributed `q̂` window).
///
/// The zero skips leave the slots outside a Kronecker row untouched
/// instead of adding `±0` or `0·∞` to them. The AVX-512 scatter's tests
/// compare it with this one on term rows where `0·∞` occurs.
#[inline(always)]
pub(crate) fn scatter(c: f64, [t1, t2, t3]: [&[f64]; 3], qhat: &mut [f64]) {
    let m = t3.len();
    for (k1, &a) in t1.iter().enumerate() {
        let c1 = a * c;
        if c1 == 0.0 {
            continue;
        }
        for (k2, &b) in t2.iter().enumerate() {
            let c12 = c1 * b;
            if c12 == 0.0 {
                continue;
            }
            let base = (k1 * m + k2) * m;
            for (slot, &t) in qhat[base..base + m].iter_mut().zip(t3) {
                *slot += c12 * t;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BltcParams;
    use crate::geometry::Point3;
    use crate::kernel::{Coulomb, Kernel};
    use crate::particles::ParticleSet;

    impl ClusterCharges {
        /// Whether a node's charges have been computed.
        pub(crate) fn is_computed(&self, idx: usize) -> bool {
            !self.clusters[idx].qhat.is_empty()
        }
    }

    fn tree_of(ps: &ParticleSet, leaf_cap: usize) -> SourceTree {
        SourceTree::build(ps, &BltcParams::new(0.7, 4, leaf_cap, leaf_cap))
    }

    #[test]
    fn total_charge_is_conserved_per_cluster() {
        let ps = ParticleSet::random_cube(2000, 31);
        let tree = tree_of(&ps, 100);
        let cc = ClusterCharges::compute_all(&tree, 5);
        for idx in 0..tree.num_nodes() {
            let (_, _, _, qs) = tree.node_particles(idx);
            let direct: f64 = qs.iter().sum();
            let hat: f64 = cc.charges(idx).iter().sum();
            assert!(
                (direct - hat).abs() < 1e-9 * qs.len() as f64,
                "node {idx}: Σq = {direct}, Σq̂ = {hat}"
            );
        }
    }

    #[test]
    fn proxy_potential_approximates_cluster_potential() {
        // A far-away target evaluated against the proxies must match the
        // direct particle sum to interpolation accuracy.
        let ps = ParticleSet::random_cube(1000, 32);
        let tree = tree_of(&ps, 2000); // single node = whole cloud
        let cc = ClusterCharges::compute_all(&tree, 10);
        let kernel = Coulomb;
        let target = Point3::new(8.0, 1.5, -3.0);
        let (xs, ys, zs, qs) = tree.node_particles(0);
        let exact: f64 = (0..xs.len())
            .map(|j| kernel.eval(target.x - xs[j], target.y - ys[j], target.z - zs[j]) * qs[j])
            .sum();
        let grid = cc.grid(0);
        let approx: f64 = (0..grid.len())
            .map(|k| {
                let s = grid.point_linear(k);
                kernel.eval(target.x - s.x, target.y - s.y, target.z - s.z) * cc.charges(0)[k]
            })
            .sum();
        assert!(
            (exact - approx).abs() / exact.abs() < 1e-8,
            "exact {exact} vs approx {approx}"
        );
    }

    #[test]
    fn approximation_improves_with_degree() {
        let ps = ParticleSet::random_cube(500, 33);
        let tree = tree_of(&ps, 2000);
        let kernel = Coulomb;
        let target = Point3::new(5.0, 0.0, 0.0);
        let (xs, ys, zs, qs) = tree.node_particles(0);
        let exact: f64 = (0..xs.len())
            .map(|j| kernel.eval(target.x - xs[j], target.y - ys[j], target.z - zs[j]) * qs[j])
            .sum();
        let mut prev = f64::INFINITY;
        for degree in [2, 4, 6, 8] {
            let cc = ClusterCharges::compute_all(&tree, degree);
            let grid = cc.grid(0);
            let approx: f64 = (0..grid.len())
                .map(|k| {
                    let s = grid.point_linear(k);
                    kernel.eval(target.x - s.x, target.y - s.y, target.z - s.z) * cc.charges(0)[k]
                })
                .sum();
            let err = (exact - approx).abs() / exact.abs();
            assert!(err < prev, "degree {degree}: {err} !< {prev}");
            prev = err;
        }
        assert!(prev < 1e-7, "degree-8 error {prev}");
    }

    #[test]
    fn face_particles_hit_singularity_path_and_stay_finite() {
        // Particles exactly on the box corners/faces trigger the Exact
        // branch (minimal bbox ⇒ coincidence with endpoint nodes).
        let mut ps = ParticleSet::default();
        ps.push(Point3::new(0.0, 0.0, 0.0), 1.0); // corner = node (n,n,n)
        ps.push(Point3::new(1.0, 1.0, 1.0), -2.0); // corner = node (0,0,0)
        ps.push(Point3::new(0.5, 0.5, 0.5), 3.0);
        ps.push(Point3::new(1.0, 0.25, 0.75), 0.5); // face x = max
        let tree = tree_of(&ps, 100);
        let cc = ClusterCharges::compute_all(&tree, 4);
        for &v in cc.charges(0) {
            assert!(v.is_finite());
        }
        let total: f64 = cc.charges(0).iter().sum();
        assert!((total - 2.5).abs() < 1e-12, "Σq̂ = {total}");
    }

    #[test]
    fn corner_particle_charge_lands_on_corner_node() {
        // A single particle at the (max,max,max) corner must put all its
        // charge on proxy (0,0,0) — pure Kronecker in all three dims...
        // but a single particle has a degenerate (point) box, where every
        // node coincides. Use two particles to make the box real.
        let mut ps = ParticleSet::default();
        ps.push(Point3::new(1.0, 1.0, 1.0), 5.0);
        ps.push(Point3::new(0.0, 0.0, 0.0), 0.0); // zero charge anchor
        let tree = tree_of(&ps, 100);
        let cc = ClusterCharges::compute_all(&tree, 3);
        let grid = cc.grid(0);
        let idx = grid.flatten(0, 0, 0);
        assert_eq!(cc.charges(0)[idx], 5.0);
        let sum_abs: f64 = cc.charges(0).iter().map(|v| v.abs()).sum();
        assert_eq!(sum_abs, 5.0, "no charge leaked off the corner node");
    }

    #[test]
    #[should_panic(expected = "on no approximation list")]
    fn reading_an_unselected_cluster_panics() {
        let ps = ParticleSet::random_cube(300, 34);
        let tree = tree_of(&ps, 50);
        let mut selected = vec![true; tree.num_nodes()];
        selected[1] = false;
        let cc = ClusterCharges::compute_selected(&tree, 4, &selected);
        assert!(cc.is_computed(0) && !cc.is_computed(1));
        assert_eq!(cc.grid(1).len(), 125, "grids exist for every cluster");
        cc.charges(1);
    }

    /// The scalar two-pass code this module replaced, kept verbatim as
    /// the reference the kernel is compared against bit for bit: three
    /// evaluations of `w_k / (y − s_k)` per particle and dimension, a
    /// runtime-width triple loop.
    mod oracle {
        use crate::interp::barycentric::SINGULARITY_TOL;
        use crate::interp::chebyshev::ChebyshevGrid1D;
        use crate::interp::tensor::TensorGrid;

        #[derive(Debug, Clone, Copy, PartialEq)]
        pub enum DimEval {
            Regular { inv_denom: f64 },
            Exact { index: usize },
        }

        pub fn dim_eval(grid: &ChebyshevGrid1D, x: f64) -> DimEval {
            let mut denom = 0.0;
            for k in 0..grid.len() {
                let diff = x - grid.node(k);
                if diff.abs() < SINGULARITY_TOL {
                    return DimEval::Exact { index: k };
                }
                denom += grid.weight(k) / diff;
            }
            DimEval::Regular {
                inv_denom: 1.0 / denom,
            }
        }

        pub fn dim_term(grid: &ChebyshevGrid1D, eval: &DimEval, k: usize, x: f64) -> f64 {
            match *eval {
                DimEval::Regular { .. } => grid.weight(k) / (x - grid.node(k)),
                DimEval::Exact { index } => {
                    if k == index {
                        1.0
                    } else {
                        0.0
                    }
                }
            }
        }

        pub fn phase1_factor(eval: &DimEval) -> f64 {
            match *eval {
                DimEval::Regular { inv_denom } => inv_denom,
                DimEval::Exact { .. } => 1.0,
            }
        }

        pub fn compute_charges_from_slices(
            grid: &TensorGrid,
            xs: &[f64],
            ys: &[f64],
            zs: &[f64],
            qs: &[f64],
        ) -> Vec<f64> {
            let qt = phase1_intermediates(grid, xs, ys, zs, qs);
            phase2_accumulate(grid, xs, ys, zs, &qt)
        }

        pub fn phase1_intermediates(
            grid: &TensorGrid,
            xs: &[f64],
            ys: &[f64],
            zs: &[f64],
            qs: &[f64],
        ) -> Vec<f64> {
            let mut qt = Vec::with_capacity(xs.len());
            for j in 0..xs.len() {
                let e1 = dim_eval(grid.dim(0), xs[j]);
                let e2 = dim_eval(grid.dim(1), ys[j]);
                let e3 = dim_eval(grid.dim(2), zs[j]);
                qt.push(qs[j] * phase1_factor(&e1) * phase1_factor(&e2) * phase1_factor(&e3));
            }
            qt
        }

        pub fn phase2_accumulate(
            grid: &TensorGrid,
            xs: &[f64],
            ys: &[f64],
            zs: &[f64],
            qt: &[f64],
        ) -> Vec<f64> {
            assert_eq!(qt.len(), xs.len(), "intermediate count mismatch");
            let m = grid.nodes_per_dim();
            let mut qhat = vec![0.0; grid.len()];
            // Per-particle term vectors, reused across particles.
            let mut t1 = vec![0.0; m];
            let mut t2 = vec![0.0; m];
            let mut t3 = vec![0.0; m];
            for j in 0..xs.len() {
                let e1 = dim_eval(grid.dim(0), xs[j]);
                let e2 = dim_eval(grid.dim(1), ys[j]);
                let e3 = dim_eval(grid.dim(2), zs[j]);
                fill_terms(grid, 0, &e1, xs[j], &mut t1);
                fill_terms(grid, 1, &e2, ys[j], &mut t2);
                fill_terms(grid, 2, &e3, zs[j], &mut t3);
                #[allow(clippy::needless_range_loop)]
                for k1 in 0..m {
                    let c1 = t1[k1] * qt[j];
                    if c1 == 0.0 {
                        continue;
                    }
                    let base1 = k1 * m;
                    for k2 in 0..m {
                        let c12 = c1 * t2[k2];
                        if c12 == 0.0 {
                            continue;
                        }
                        let base = (base1 + k2) * m;
                        for (k3, &t) in t3.iter().enumerate() {
                            qhat[base + k3] += c12 * t;
                        }
                    }
                }
            }
            qhat
        }

        fn fill_terms(grid: &TensorGrid, dim: usize, eval: &DimEval, y: f64, out: &mut [f64]) {
            let g = grid.dim(dim);
            for (k, slot) in out.iter_mut().enumerate() {
                *slot = dim_term(g, eval, k, y);
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The fused pass against the two-pass oracle, bit for bit, on one
    /// cluster: the dispatched body (AVX-512 where the host has it and the
    /// grid is at most eight wide) and the portable body, called directly.
    /// The in-place forms write over whatever the buffer held.
    fn assert_matches_oracle(grid: &TensorGrid, [xs, ys, zs, qs]: [&[f64]; 4]) {
        let want = oracle::compute_charges_from_slices(grid, xs, ys, zs, qs);
        assert!(want.iter().all(|v| v.is_finite()));

        let fused = compute_charges_from_slices(grid, xs, ys, zs, qs);
        assert_eq!(bits(&fused), bits(&want), "fused pass");
        let mut into = vec![f64::NAN; grid.len()];
        compute_charges_into(grid, xs, ys, zs, qs, &mut into);
        assert_eq!(bits(&into), bits(&want), "in-place pass");
        let mut portable = vec![f64::NAN; grid.len()];
        portable_charges_into(grid, xs, ys, zs, qs, &mut portable);
        assert_eq!(bits(&portable), bits(&want), "portable pass");
    }

    /// One cluster built from `rows` of `(x, y, z, q, kind)` and checked
    /// against the oracle at `degree`. `kind` 0 zeroes the charge; 1–6
    /// move the particle onto a face, a corner or an interior node of the
    /// cluster's (minimal) box, or onto its predecessor. `collapse < 8`
    /// collapses the axes named by its low three bits (all three: a point
    /// box).
    fn check_cloud(degree: usize, rows: &[(f64, f64, f64, f64, usize)], collapse: usize) {
        let mut p: [Vec<f64>; 4] = Default::default();
        for &(x, y, z, q, kind) in rows {
            for (col, v) in p.iter_mut().zip([x, y, z, if kind == 0 { 0.0 } else { q }]) {
                col.push(v);
            }
        }
        for (d, col) in p.iter_mut().take(3).enumerate() {
            if collapse < 8 && collapse >> d & 1 == 1 {
                let first = col[0];
                col.fill(first);
            }
        }
        let bbox = crate::geometry::BoundingBox::from_points(&p[0], &p[1], &p[2]).unwrap();
        let grid = TensorGrid::new(degree, &bbox);
        for (j, &(.., kind)) in rows.iter().enumerate() {
            let node = |d: usize, k: usize| grid.dim(d).node(k % (degree + 1));
            match kind {
                1 => p[0][j] = bbox.max.x,
                2 => p[1][j] = bbox.min.y,
                3 => (p[0][j], p[1][j], p[2][j]) = (bbox.min.x, bbox.max.y, bbox.max.z),
                4 => p[j % 3][j] = node(j % 3, j),
                5 => (p[0][j], p[2][j]) = (node(0, j), node(2, j / 2)),
                6 if j > 0 => {
                    for col in &mut p {
                        col[j] = col[j - 1];
                    }
                }
                _ => {}
            }
        }
        assert_matches_oracle(&grid, [&p[0], &p[1], &p[2], &p[3]]);
    }

    /// `n` random rows for [`check_cloud`], half of them of a special kind.
    fn random_rows(n: usize, seed: u64) -> Vec<(f64, f64, f64, f64, usize)> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut row = || {
            let [x, y, z, q] = [(); 4].map(|()| rng.gen_range(-1.0..1.0));
            (x, y, z, q, rng.gen_range(0..12))
        };
        (0..n).map(|_| row()).collect()
    }

    /// The AVX-512 body's chunk, whose edges the sizes below straddle.
    #[cfg(target_arch = "x86_64")]
    const CH: usize = crate::kernel::avx512::CHARGE_CHUNK;
    #[cfg(not(target_arch = "x86_64"))]
    const CH: usize = 128;

    #[test]
    fn phase_split_equals_fused_computation() {
        let ps = ParticleSet::random_cube(400, 37);
        let tree = tree_of(&ps, 1000);
        let (xs, ys, zs, qs) = tree.node_particles(0);
        let grid = TensorGrid::new(6, &tree.node(0).bbox);
        assert_matches_oracle(&grid, [xs, ys, zs, qs]);
    }

    #[test]
    fn point_box_puts_all_charge_on_the_first_node_at_every_width() {
        // Every node of a point-degenerate box coincides with every
        // particle: the first index wins in all three dimensions.
        let p = Point3::new(0.25, -1.5, 3.0);
        let bbox = crate::geometry::BoundingBox::new(p, p);
        let (xs, ys, zs) = ([p.x; 3], [p.y; 3], [p.z; 3]);
        let qs = [1.0, -0.5, 2.0];
        for degree in 1..=15 {
            let grid = TensorGrid::new(degree, &bbox);
            assert_matches_oracle(&grid, [&xs, &ys, &zs, &qs]);
            let qhat = compute_charges_from_slices(&grid, &xs, &ys, &zs, &qs);
            assert_eq!(qhat[0], 2.5);
            assert!(qhat[1..].iter().all(|&v| v.to_bits() == 0));
        }
    }

    /// One particle, a group of eight lanes and its neighbours, a chunk
    /// and its neighbours, and two chunks and a partial group, at every
    /// width on both sides of eight lanes; with and without a collapsed
    /// axis.
    #[test]
    fn cluster_sizes_at_lane_and_chunk_edges_equal_the_oracle() {
        for n in [1, 7, 8, 9, CH - 1, CH, CH + 1, 2 * CH + 3] {
            let rows = random_rows(n, n as u64);
            for degree in 1..=9 {
                check_cloud(degree, &rows, 8);
                check_cloud(degree, &rows, 2);
            }
        }
    }

    /// A particle on a node — the Kronecker row that the lane body hands
    /// back to `dim_terms` — in every lane of two groups, in each
    /// dimension in turn, at every node index.
    #[test]
    fn a_singular_particle_in_every_lane_position_equals_the_oracle() {
        let ps = ParticleSet::random_cube(16, 16);
        let bbox = ps.bounding_box().unwrap();
        for degree in 1..=9 {
            let grid = TensorGrid::new(degree, &bbox);
            for lane in 0..16 {
                for d in 0..3 {
                    let mut p = [ps.x.clone(), ps.y.clone(), ps.z.clone()];
                    p[d][lane] = grid.dim(d).node((lane + d) % (degree + 1));
                    assert_matches_oracle(&grid, [&p[0], &p[1], &p[2], &ps.q]);
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// Degrees on both sides of the monomorphised range, cluster
        /// sizes 1..=600, and the inputs that take the singular path:
        /// particles on faces and corners of the (minimal) box, on
        /// interior nodes, duplicated, with zero charge, and boxes
        /// collapsed along any subset of the axes.
        #[test]
        fn kernel_equals_two_pass_oracle_bitwise(
            degree in 1usize..16,
            rows in proptest::collection::vec(
                (-1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0, 0usize..12),
                1..601,
            ),
            collapse in 0usize..24,
        ) {
            // Two thirds of the cases collapse no axis.
            check_cloud(degree, &rows, collapse);
        }
    }
}
