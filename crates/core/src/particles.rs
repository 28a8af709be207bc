//! Particle storage and workload generators.
//!
//! Particles are stored in structure-of-arrays layout (`x/y/z/q` vectors)
//! — the layout the GPU kernels and the cache both want. Generators are
//! deterministic given a seed so every experiment is reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::geometry::{BoundingBox, Point3};

/// A set of charged particles in SoA layout.
///
/// `q` holds charges (electrostatics), masses (gravitation), or quadrature
/// weights (boundary-element methods) depending on the application.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParticleSet {
    /// x-coordinates.
    pub x: Vec<f64>,
    /// y-coordinates.
    pub y: Vec<f64>,
    /// z-coordinates.
    pub z: Vec<f64>,
    /// Charges / masses / weights.
    pub q: Vec<f64>,
}

impl ParticleSet {
    /// Construct from coordinate and charge vectors (all equal length).
    pub fn new(x: Vec<f64>, y: Vec<f64>, z: Vec<f64>, q: Vec<f64>) -> Self {
        assert!(
            x.len() == y.len() && y.len() == z.len() && z.len() == q.len(),
            "SoA vectors must have equal lengths"
        );
        Self { x, y, z, q }
    }

    /// An empty set with room for `cap` particles.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            x: Vec::with_capacity(cap),
            y: Vec::with_capacity(cap),
            z: Vec::with_capacity(cap),
            q: Vec::with_capacity(cap),
        }
    }

    /// Number of particles.
    #[inline]
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Position of particle `i`.
    #[inline]
    pub fn position(&self, i: usize) -> Point3 {
        Point3::new(self.x[i], self.y[i], self.z[i])
    }

    /// The coordinate slices of a contiguous index range — the target or
    /// source side of one
    /// [`Kernel::accumulate_tile`](crate::kernel::Kernel::accumulate_tile).
    #[inline]
    pub fn xyz(&self, r: std::ops::Range<usize>) -> (&[f64], &[f64], &[f64]) {
        (&self.x[r.clone()], &self.y[r.clone()], &self.z[r])
    }

    /// Append one particle.
    pub fn push(&mut self, p: Point3, q: f64) {
        self.x.push(p.x);
        self.y.push(p.y);
        self.z.push(p.z);
        self.q.push(q);
    }

    /// Minimal bounding box of the set (`None` when empty).
    pub fn bounding_box(&self) -> Option<BoundingBox> {
        BoundingBox::from_points(&self.x, &self.y, &self.z)
    }

    /// Total charge `Σ_j q_j` (conserved by the modified-charge transform).
    pub fn total_charge(&self) -> f64 {
        self.q.iter().sum()
    }

    /// Gather a permuted copy: output particle `i` is input `perm[i]`.
    ///
    /// Used by tree construction to make every cluster own a contiguous
    /// index range. `perm` must be a permutation of `0..len`.
    pub fn gather(&self, perm: &[usize]) -> Self {
        assert_eq!(perm.len(), self.len(), "permutation length mismatch");
        let mut out = Self::with_capacity(self.len());
        for &j in perm {
            out.x.push(self.x[j]);
            out.y.push(self.y[j]);
            out.z.push(self.z[j]);
            out.q.push(self.q[j]);
        }
        out
    }

    /// Extract the sub-set at the given indices (not necessarily a
    /// permutation) — used by the distributed pipeline to slice a rank's
    /// partition out of a global set.
    pub fn subset(&self, indices: &[usize]) -> Self {
        let mut out = Self::with_capacity(indices.len());
        for &j in indices {
            out.x.push(self.x[j]);
            out.y.push(self.y[j]);
            out.z.push(self.z[j]);
            out.q.push(self.q[j]);
        }
        out
    }

    // ---------------------------------------------------------------
    // Generators (all deterministic in the seed)
    // ---------------------------------------------------------------

    /// The paper's test distribution: `n` particles uniform in the cube
    /// `[-1, 1]³` with charges uniform in `[-1, 1]`.
    pub fn random_cube(n: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Self::with_capacity(n);
        for _ in 0..n {
            let p = Point3::new(
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
            );
            out.push(p, rng.gen_range(-1.0..1.0));
        }
        out
    }

    /// A Plummer sphere of `n` unit-mass/`n` particles with scale radius
    /// `a` — the classic gravitational N-body initial condition (strongly
    /// non-uniform; exercises deep, uneven trees).
    pub fn plummer(n: usize, a: f64, seed: u64) -> Self {
        assert!(a > 0.0, "plummer scale radius must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Self::with_capacity(n);
        let mass = 1.0 / n.max(1) as f64;
        for _ in 0..n {
            // Inverse-CDF sampling of the Plummer radial profile; clamp the
            // tail to 10a to keep the box bounded.
            let r = loop {
                let u: f64 = rng.gen_range(1e-10..1.0);
                let r = a / (u.powf(-2.0 / 3.0) - 1.0).sqrt();
                if r.is_finite() && r < 10.0 * a {
                    break r;
                }
            };
            // Uniform direction on the sphere.
            let cos_t: f64 = rng.gen_range(-1.0..1.0);
            let sin_t = (1.0 - cos_t * cos_t).sqrt();
            let phi: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
            out.push(
                Point3::new(r * sin_t * phi.cos(), r * sin_t * phi.sin(), r * cos_t),
                mass,
            );
        }
        out
    }

    /// `blobs` Gaussian clusters of width `sigma` centred uniformly in the
    /// unit cube — a surrogate for solvated-biomolecule charge clouds.
    pub fn gaussian_blobs(n: usize, blobs: usize, sigma: f64, seed: u64) -> Self {
        assert!(blobs >= 1, "need at least one blob");
        assert!(sigma > 0.0, "blob width must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let centers: Vec<Point3> = (0..blobs)
            .map(|_| {
                Point3::new(
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                )
            })
            .collect();
        let mut out = Self::with_capacity(n);
        for i in 0..n {
            let c = centers[i % blobs];
            // Box–Muller pairs for the three normal coordinates.
            let mut normal = || {
                let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                let u2: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
                (-2.0 * u1.ln()).sqrt() * u2.cos()
            };
            let p = Point3::new(
                c.x + sigma * normal(),
                c.y + sigma * normal(),
                c.z + sigma * normal(),
            );
            let q = if i % 2 == 0 { 1.0 } else { -1.0 };
            out.push(p, q);
        }
        out
    }

    /// A jittered cubic lattice filling `[-1,1]³` with alternating unit
    /// charges — an NaCl-like ionic crystal surrogate.
    pub fn lattice_jitter(side: usize, jitter: f64, seed: u64) -> Self {
        assert!(side >= 1, "lattice side must be at least 1");
        assert!((0.0..0.5).contains(&jitter), "jitter must be in [0, 0.5)");
        let mut rng = StdRng::seed_from_u64(seed);
        let n = side * side * side;
        let mut out = Self::with_capacity(n);
        let h = if side > 1 {
            2.0 / (side - 1) as f64
        } else {
            0.0
        };
        for i in 0..side {
            for j in 0..side {
                for k in 0..side {
                    let jit = |rng: &mut StdRng| {
                        if jitter == 0.0 {
                            0.0
                        } else {
                            rng.gen_range(-jitter..jitter) * h
                        }
                    };
                    let p = Point3::new(
                        -1.0 + i as f64 * h + jit(&mut rng),
                        -1.0 + j as f64 * h + jit(&mut rng),
                        -1.0 + k as f64 * h + jit(&mut rng),
                    );
                    let q = if (i + j + k) % 2 == 0 { 1.0 } else { -1.0 };
                    out.push(p, q);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_cube_in_bounds_and_deterministic() {
        let a = ParticleSet::random_cube(500, 7);
        let b = ParticleSet::random_cube(500, 7);
        let c = ParticleSet::random_cube(500, 8);
        assert_eq!(a, b, "same seed must reproduce");
        assert_ne!(a, c, "different seeds must differ");
        assert_eq!(a.len(), 500);
        let bb = a.bounding_box().unwrap();
        assert!(bb.min.x >= -1.0 && bb.max.x <= 1.0);
        for &q in &a.q {
            assert!((-1.0..1.0).contains(&q));
        }
    }

    #[test]
    fn gather_permutes() {
        let p = ParticleSet::new(
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0, 6.0],
            vec![7.0, 8.0, 9.0],
            vec![0.1, 0.2, 0.3],
        );
        let g = p.gather(&[2, 0, 1]);
        assert_eq!(g.x, vec![3.0, 1.0, 2.0]);
        assert_eq!(g.q, vec![0.3, 0.1, 0.2]);
        assert_eq!(g.total_charge(), p.total_charge());
    }

    #[test]
    fn subset_slices() {
        let p = ParticleSet::random_cube(10, 1);
        let s = p.subset(&[0, 9]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.position(1), p.position(9));
    }

    #[test]
    fn plummer_is_centrally_concentrated() {
        let p = ParticleSet::plummer(4000, 1.0, 3);
        assert_eq!(p.len(), 4000);
        let within_a = (0..p.len()).filter(|&i| p.position(i).norm() < 1.0).count();
        let within_3a = (0..p.len()).filter(|&i| p.position(i).norm() < 3.0).count();
        // Theoretical enclosed-mass fractions: ~35% inside a, ~91% inside
        // 3a (before the 10a tail clamp). Allow generous slack.
        assert!(
            (0.25..0.45).contains(&(within_a as f64 / 4000.0)),
            "mass inside a: {within_a}"
        );
        assert!(within_3a as f64 / 4000.0 > 0.8);
        assert!((p.total_charge() - 1.0).abs() < 1e-9, "total mass is 1");
    }

    #[test]
    fn gaussian_blobs_cluster() {
        let p = ParticleSet::gaussian_blobs(900, 3, 0.05, 11);
        assert_eq!(p.len(), 900);
        // Net charge ±O(1) (alternating signs).
        assert!(p.total_charge().abs() <= 1.0 + 1e-12);
    }

    #[test]
    fn lattice_jitter_counts_and_neutrality() {
        let p = ParticleSet::lattice_jitter(4, 0.1, 5);
        assert_eq!(p.len(), 64);
        assert_eq!(p.total_charge(), 0.0, "even lattice is neutral");
        let p0 = ParticleSet::lattice_jitter(3, 0.0, 5);
        assert_eq!(p0.len(), 27);
        assert_eq!(p0.position(0), Point3::new(-1.0, -1.0, -1.0));
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn mismatched_soa_panics() {
        let _ = ParticleSet::new(vec![1.0], vec![], vec![1.0], vec![1.0]);
    }

    #[test]
    fn push_and_position() {
        let mut p = ParticleSet::default();
        p.push(Point3::new(1.0, 2.0, 3.0), -0.5);
        assert_eq!(p.len(), 1);
        assert_eq!(p.position(0), Point3::new(1.0, 2.0, 3.0));
        assert_eq!(p.q[0], -0.5);
    }
}
