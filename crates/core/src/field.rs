//! Potential **and gradient** evaluation — forces.
//!
//! Applications (MD, gravity, Poisson–Boltzmann) usually need
//! `E = -∇φ` alongside `φ`. The barycentric approximation
//! differentiates trivially with respect to the *target*: in
//! `φ(x) ≈ Σ_k G(x, s_k) q̂_k` only the kernel depends on `x`, so
//! `∇φ(x) ≈ Σ_k ∇_x G(x, s_k) q̂_k` — the same modified charges, the
//! same interaction lists, the same direct-sum structure; just a kernel
//! with four outputs. (This is the kernel-independent counterpart of
//! what expansion-based treecodes obtain from recurrence relations.)

use rayon::prelude::*;

use crate::engine::PreparedTreecode;
use crate::kernel::GradientKernel;
use crate::particles::ParticleSet;

/// Potentials and their gradients at every target, in original target
/// order. The force on charge `q_i` is `-q_i · (gx, gy, gz)[i]`.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldResult {
    /// Potentials `φ(x_i)`.
    pub potentials: Vec<f64>,
    /// `∂φ/∂x`.
    pub gx: Vec<f64>,
    /// `∂φ/∂y`.
    pub gy: Vec<f64>,
    /// `∂φ/∂z`.
    pub gz: Vec<f64>,
}

/// The four output columns of a field pass
/// ([`TileOp<4>`](crate::kernel::TileOp)), named.
impl From<[Vec<f64>; 4]> for FieldResult {
    fn from([potentials, gx, gy, gz]: [Vec<f64>; 4]) -> Self {
        Self {
            potentials,
            gx,
            gy,
            gz,
        }
    }
}

impl PreparedTreecode {
    /// Evaluate potentials and gradients serially over the interaction
    /// lists (same preparation as potential-only evaluation — the
    /// modified charges are shared).
    pub fn evaluate_field(&self, kernel: &dyn GradientKernel) -> FieldResult {
        self.evaluate(kernel, false).into()
    }

    /// Evaluate potentials and gradients with one rayon task per batch.
    /// Batches own disjoint contiguous target ranges, so the result is
    /// deterministic and bitwise identical to [`Self::evaluate_field`].
    pub fn evaluate_field_parallel(&self, kernel: &dyn GradientKernel) -> FieldResult {
        self.evaluate(kernel, true).into()
    }
}

/// Direct summation of potentials and gradients — the `O(N²)` reference.
pub fn direct_sum_field(
    targets: &ParticleSet,
    sources: &ParticleSet,
    kernel: &dyn GradientKernel,
) -> FieldResult {
    let n = targets.len();
    let rows: Vec<(f64, f64, f64, f64)> = (0..n)
        .into_par_iter()
        .map(|i| {
            let (tx, ty, tz) = (targets.x[i], targets.y[i], targets.z[i]);
            let (mut p, mut ax, mut ay, mut az) = (0.0, 0.0, 0.0, 0.0);
            for j in 0..sources.len() {
                let (g, dgx, dgy, dgz) =
                    kernel.eval_with_grad(tx - sources.x[j], ty - sources.y[j], tz - sources.z[j]);
                p += g * sources.q[j];
                ax += dgx * sources.q[j];
                ay += dgy * sources.q[j];
                az += dgz * sources.q[j];
            }
            (p, ax, ay, az)
        })
        .collect();
    let mut out = FieldResult {
        potentials: Vec::with_capacity(n),
        gx: Vec::with_capacity(n),
        gy: Vec::with_capacity(n),
        gz: Vec::with_capacity(n),
    };
    for (p, ax, ay, az) in rows {
        out.potentials.push(p);
        out.gx.push(ax);
        out.gy.push(ay);
        out.gz.push(az);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BltcParams;
    use crate::engine::direct_sum;
    use crate::error::relative_l2_error;
    use crate::geometry::Point3;
    use crate::kernel::{Coulomb, Gaussian, RegularizedCoulomb, Yukawa};

    /// Analytic gradients must match central finite differences of the
    /// potential for every built-in kernel.
    #[test]
    fn gradients_match_finite_differences() {
        let kernels: Vec<Box<dyn GradientKernel>> = vec![
            Box::new(Coulomb),
            Box::new(Yukawa::new(0.7)),
            Box::new(RegularizedCoulomb::new(0.1)),
            Box::new(Gaussian::new(1.3)),
        ];
        let h = 1e-6;
        for k in &kernels {
            for &(dx, dy, dz) in &[(0.8, -0.3, 0.5), (2.0, 1.0, -1.5), (0.1, 0.1, 0.1)] {
                let (_, gx, gy, gz) = k.eval_with_grad(dx, dy, dz);
                let fd_x = (k.eval(dx + h, dy, dz) - k.eval(dx - h, dy, dz)) / (2.0 * h);
                let fd_y = (k.eval(dx, dy + h, dz) - k.eval(dx, dy - h, dz)) / (2.0 * h);
                let fd_z = (k.eval(dx, dy, dz + h) - k.eval(dx, dy, dz - h)) / (2.0 * h);
                let scale = gx.abs().max(gy.abs()).max(gz.abs()).max(1e-10);
                assert!((gx - fd_x).abs() / scale < 1e-5, "{}: d/dx", k.name());
                assert!((gy - fd_y).abs() / scale < 1e-5, "{}: d/dy", k.name());
                assert!((gz - fd_z).abs() / scale < 1e-5, "{}: d/dz", k.name());
            }
        }
    }

    #[test]
    fn treecode_field_matches_direct_field() {
        let ps = ParticleSet::random_cube(2500, 500);
        let params = BltcParams::new(0.7, 7, 120, 120);
        let prep = PreparedTreecode::new(&ps, &ps, params);
        let tc = prep.evaluate_field(&Coulomb);
        let ds = direct_sum_field(&ps, &ps, &Coulomb);
        assert!(relative_l2_error(&ds.potentials, &tc.potentials) < 1e-4);
        // Gradients converge one order slower than potentials; still
        // well within usable force accuracy at n = 7.
        assert!(relative_l2_error(&ds.gx, &tc.gx) < 1e-3, "gx");
        assert!(relative_l2_error(&ds.gy, &tc.gy) < 1e-3, "gy");
        assert!(relative_l2_error(&ds.gz, &tc.gz) < 1e-3, "gz");
    }

    #[test]
    fn field_potentials_match_potential_only_path() {
        let ps = ParticleSet::random_cube(1500, 501);
        let params = BltcParams::new(0.8, 5, 100, 100);
        let prep = PreparedTreecode::new(&ps, &ps, params);
        let (pot_only, _) = prep.evaluate_serial(&Coulomb);
        let field = prep.evaluate_field(&Coulomb);
        // Same lists, same charges, same order ⇒ bitwise equal.
        assert_eq!(pot_only, field.potentials);
    }

    #[test]
    fn field_error_decreases_with_degree() {
        let ps = ParticleSet::random_cube(2000, 502);
        let ds = direct_sum_field(&ps, &ps, &Yukawa::default());
        let mut prev = f64::INFINITY;
        // Same (θ, caps) as the engine's degree-sweep test: deep tree,
        // approximation active at every degree.
        for degree in [1usize, 3, 5, 7] {
            let params = BltcParams::new(0.8, degree, 120, 120);
            let prep = PreparedTreecode::new(&ps, &ps, params);
            let tc = prep.evaluate_field(&Yukawa::default());
            let err = relative_l2_error(&ds.gx, &tc.gx);
            assert!(err < prev, "degree {degree}: {err} !< {prev}");
            prev = err;
        }
        assert!(prev < 1e-4);
    }

    #[test]
    fn parallel_field_matches_serial_bitwise() {
        let ps = ParticleSet::random_cube(1800, 504);
        let params = BltcParams::new(0.7, 5, 90, 90);
        let prep = PreparedTreecode::new(&ps, &ps, params);
        for k in [
            &Coulomb as &dyn GradientKernel,
            &Yukawa::new(0.5),
            &RegularizedCoulomb::new(0.05),
        ] {
            let s = prep.evaluate_field(k);
            let p = prep.evaluate_field_parallel(k);
            assert_eq!(s.potentials, p.potentials, "{}", k.name());
            assert_eq!(s.gx, p.gx, "{}", k.name());
            assert_eq!(s.gy, p.gy, "{}", k.name());
            assert_eq!(s.gz, p.gz, "{}", k.name());
        }
    }

    #[test]
    fn single_charge_field_is_radial() {
        // One unit charge at the origin: E = -∇φ points outward with
        // magnitude 1/r².
        let mut sources = ParticleSet::default();
        sources.push(Point3::new(0.0, 0.0, 0.0), 1.0);
        let mut targets = ParticleSet::default();
        targets.push(Point3::new(2.0, 0.0, 0.0), 0.0);
        targets.push(Point3::new(0.0, -3.0, 0.0), 0.0);
        let f = direct_sum_field(&targets, &sources, &Coulomb);
        assert!((f.gx[0] + 0.25).abs() < 1e-12, "∂φ/∂x = -1/4 at (2,0,0)");
        assert_eq!(f.gy[0], 0.0);
        assert!((f.gy[1] - 1.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn direct_field_potentials_match_direct_sum() {
        let ps = ParticleSet::random_cube(600, 503);
        let f = direct_sum_field(&ps, &ps, &Coulomb);
        let p = direct_sum(&ps, &ps, &Coulomb);
        assert_eq!(f.potentials, p);
    }
}
