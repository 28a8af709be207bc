//! The mechanical state a dynamics run advances: positions + kernel
//! weights ([`ParticleSet`]), velocities, inertial masses, and the
//! simulation clock.

use bltc_core::particles::ParticleSet;

/// Positions, velocities, masses, and simulation time of an N-body
/// system.
///
/// Positions and kernel weights live in the embedded [`ParticleSet`] —
/// exactly the structure every force evaluation consumes, so stepping
/// never copies coordinates. `particles.q` is the *kernel* weight
/// (mass for gravitation, charge for electrostatics); `mass` is the
/// *inertial* mass dividing the force. For gravity the two coincide,
/// for an electrolyte they do not — keeping them separate is what lets
/// one integrator serve both.
#[derive(Debug, Clone, PartialEq)]
pub struct SimState {
    /// Positions and kernel weights (charges / masses).
    pub particles: ParticleSet,
    /// x-velocities.
    pub vx: Vec<f64>,
    /// y-velocities.
    pub vy: Vec<f64>,
    /// z-velocities.
    pub vz: Vec<f64>,
    /// Inertial masses (all positive).
    pub mass: Vec<f64>,
    /// Simulation time, in units of the scenario.
    pub time: f64,
    /// Completed integration steps.
    pub step: u64,
}

impl SimState {
    /// A state at rest: zero velocities, time zero.
    ///
    /// # Panics
    ///
    /// Panics if `mass` does not match the particle count or contains a
    /// non-positive entry.
    pub fn at_rest(particles: ParticleSet, mass: Vec<f64>) -> Self {
        let n = particles.len();
        Self::with_velocities(particles, vec![0.0; n], vec![0.0; n], vec![0.0; n], mass)
    }

    /// A state with explicit initial velocities.
    ///
    /// # Panics
    ///
    /// Panics on any length mismatch, non-finite velocity, or
    /// non-positive or non-finite mass.
    pub fn with_velocities(
        particles: ParticleSet,
        vx: Vec<f64>,
        vy: Vec<f64>,
        vz: Vec<f64>,
        mass: Vec<f64>,
    ) -> Self {
        let n = particles.len();
        assert!(
            vx.len() == n && vy.len() == n && vz.len() == n && mass.len() == n,
            "velocity/mass vectors must match the particle count"
        );
        assert!(
            vx.iter().chain(&vy).chain(&vz).all(|v| v.is_finite()),
            "velocities must be finite"
        );
        assert!(
            mass.iter().all(|&m| m > 0.0 && m.is_finite()),
            "masses must be positive and finite"
        );
        Self {
            particles,
            vx,
            vy,
            vz,
            mass,
            time: 0.0,
            step: 0,
        }
    }

    /// Number of particles.
    #[inline]
    pub fn len(&self) -> usize {
        self.particles.len()
    }

    /// Whether the state holds no particles.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.particles.is_empty()
    }

    /// Total kinetic energy `Σ ½ m v²`.
    pub fn kinetic_energy(&self) -> f64 {
        (0..self.len())
            .map(|i| {
                0.5 * self.mass[i]
                    * (self.vx[i] * self.vx[i] + self.vy[i] * self.vy[i] + self.vz[i] * self.vz[i])
            })
            .sum()
    }

    /// Total linear momentum `(Σ m vx, Σ m vy, Σ m vz)` — conserved by
    /// any pairwise-symmetric force law, so a useful integrator
    /// diagnostic.
    pub fn momentum(&self) -> (f64, f64, f64) {
        let mut p = (0.0, 0.0, 0.0);
        for i in 0..self.len() {
            p.0 += self.mass[i] * self.vx[i];
            p.1 += self.mass[i] * self.vy[i];
            p.2 += self.mass[i] * self.vz[i];
        }
        p
    }

    /// Largest particle speed — the quantity a CFL-style `dt` check
    /// compares against the force softening scale.
    pub fn max_speed(&self) -> f64 {
        (0..self.len())
            .map(|i| {
                (self.vx[i] * self.vx[i] + self.vy[i] * self.vy[i] + self.vz[i] * self.vz[i]).sqrt()
            })
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_body() -> SimState {
        let ps = ParticleSet::new(
            vec![0.0, 1.0],
            vec![0.0, 0.0],
            vec![0.0, 0.0],
            vec![1.0, 1.0],
        );
        SimState::with_velocities(
            ps,
            vec![3.0, -3.0],
            vec![0.0, 4.0],
            vec![0.0, 0.0],
            vec![2.0, 2.0],
        )
    }

    #[test]
    fn kinetic_energy_and_momentum() {
        let s = two_body();
        // ½·2·9 + ½·2·25 = 9 + 25
        assert_eq!(s.kinetic_energy(), 34.0);
        assert_eq!(s.momentum(), (0.0, 8.0, 0.0));
        assert_eq!(s.max_speed(), 5.0);
    }

    #[test]
    fn at_rest_has_zero_energy() {
        let s = SimState::at_rest(ParticleSet::random_cube(10, 1), vec![1.0; 10]);
        assert_eq!(s.kinetic_energy(), 0.0);
        assert_eq!(s.max_speed(), 0.0);
        assert_eq!((s.time, s.step), (0.0, 0));
        assert_eq!(s.len(), 10);
        assert!(!s.is_empty());
    }

    #[test]
    #[should_panic(expected = "match the particle count")]
    fn mismatched_velocities_rejected() {
        let ps = ParticleSet::random_cube(4, 1);
        let _ =
            SimState::with_velocities(ps, vec![0.0; 3], vec![0.0; 4], vec![0.0; 4], vec![1.0; 4]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn nonpositive_mass_rejected() {
        let _ = SimState::at_rest(ParticleSet::random_cube(2, 1), vec![1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "velocities must be finite")]
    fn nonfinite_velocity_rejected() {
        let ps = ParticleSet::random_cube(2, 1);
        let vz = vec![0.0, f64::NEG_INFINITY];
        let _ = SimState::with_velocities(ps, vec![0.0; 2], vec![0.0; 2], vz, vec![1.0; 2]);
    }
}
