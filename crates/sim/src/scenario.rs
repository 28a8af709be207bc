//! Scenario front-ends: ready-to-integrate initial conditions plus
//! their force laws for the workloads the source paper targets.

use bltc_core::kernel::{RegularizedCoulomb, RegularizedYukawa, Yukawa};
use bltc_core::particles::ParticleSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::forces::ForceModel;
use crate::state::SimState;

/// A self-gravitating Plummer sphere in virial equilibrium
/// (`G = M = 1`, scale radius `a`), the classic collisionless N-body
/// initial condition.
///
/// Positions come from [`ParticleSet::plummer`]; speeds are drawn from
/// the isotropic Plummer distribution function by Aarseth–Hénon–Wielen
/// rejection sampling (speed fraction `v/v_esc = x` with density
/// `∝ x²(1 − x²)^{7/2}`, escape speed
/// `v_esc = √2 · M^{1/2} (r² + a²)^{-1/4}`), so the sphere starts in
/// statistical equilibrium rather than cold collapse. The force kernel
/// is Plummer-softened Coulomb with softening `softening` — smooth
/// everywhere, so the integrator conserves the *softened* Hamiltonian
/// and energy drift measures integration error only.
///
/// # Panics
///
/// With the message of [`validate_plummer_sphere`].
pub fn plummer_sphere(n: usize, a: f64, softening: f64, seed: u64) -> (SimState, ForceModel) {
    validate_plummer_sphere(n, a, softening).unwrap_or_else(|e| panic!("{e}"));
    let particles = ParticleSet::plummer(n, a, seed);
    let total_mass = particles.total_charge(); // = 1 by construction
    let mass = particles.q.clone();

    // Velocity sampling (independent stream from the position seed).
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut vx = Vec::with_capacity(n);
    let mut vy = Vec::with_capacity(n);
    let mut vz = Vec::with_capacity(n);
    for i in 0..n {
        let r = particles.position(i).norm();
        let v_esc = (2.0 * total_mass).sqrt() / (r * r + a * a).powf(0.25);
        // Rejection sampling of x = v / v_esc on [0, 1]:
        // density ∝ x²(1 − x²)^{7/2}, maximum ≈ 0.092 at x ≈ 0.424.
        let x = loop {
            let x: f64 = rng.gen_range(0.0..1.0);
            let y: f64 = rng.gen_range(0.0..0.1);
            if y < x * x * (1.0 - x * x).powf(3.5) {
                break x;
            }
        };
        let v = x * v_esc;
        // Isotropic direction.
        let cos_t: f64 = rng.gen_range(-1.0..1.0);
        let sin_t = (1.0 - cos_t * cos_t).sqrt();
        let phi: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
        vx.push(v * sin_t * phi.cos());
        vy.push(v * sin_t * phi.sin());
        vz.push(v * cos_t);
    }

    let state = SimState::with_velocities(particles, vx, vy, vz, mass);
    let model = ForceModel::gravitational(RegularizedCoulomb::new(softening), "plummer-sphere");
    (state, model)
}

/// A screened-electrolyte box: `n` ions with alternating unit charges
/// uniformly filling `[-1, 1]³` under the softened Yukawa
/// (screened-Coulomb) interaction with inverse Debye length `kappa` and
/// ion-core softening `softening`, open (periodic-free) boundaries,
/// unit ion masses, and isotropic Maxwell velocities with per-component
/// thermal speed `thermal_speed`.
///
/// This is the molecular-dynamics face of the treecode: the screening
/// makes far-field contributions decay fast (small LETs), while the
/// alternating charges keep the box near-neutral so the net force on
/// the box vanishes statistically. The softening is essential, not
/// cosmetic: with randomly placed ions, some opposite-charge pairs
/// start arbitrarily close, and the bare `e^{-κr}/r` singularity would
/// swallow them on the first step.
///
/// # Panics
///
/// With the message of [`validate_electrolyte_box`].
pub fn electrolyte_box(
    n: usize,
    kappa: f64,
    softening: f64,
    thermal_speed: f64,
    seed: u64,
) -> (SimState, ForceModel) {
    validate_electrolyte_box(n, kappa, softening, thermal_speed).unwrap_or_else(|e| panic!("{e}"));
    let mut particles = ParticleSet::random_cube(n, seed);
    for (i, q) in particles.q.iter_mut().enumerate() {
        *q = if i % 2 == 0 { 1.0 } else { -1.0 };
    }

    let mut rng = StdRng::seed_from_u64(seed ^ 0x2545_f491_4f6c_dd1d);
    // Box–Muller pairs for Maxwell velocity components.
    let normal = |rng: &mut StdRng| {
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
        (-2.0 * u1.ln()).sqrt() * u2.cos()
    };
    let mut vx = Vec::with_capacity(n);
    let mut vy = Vec::with_capacity(n);
    let mut vz = Vec::with_capacity(n);
    for _ in 0..n {
        vx.push(thermal_speed * normal(&mut rng));
        vy.push(thermal_speed * normal(&mut rng));
        vz.push(thermal_speed * normal(&mut rng));
    }

    let state = SimState::with_velocities(particles, vx, vy, vz, vec![1.0; n]);
    let model =
        ForceModel::electrostatic(RegularizedYukawa::new(kappa, softening), "electrolyte-box");
    (state, model)
}

/// The rules of [`plummer_sphere`]: at least two bodies,
/// [`ParticleSet::validate_plummer`] on `a`, and a positive, finite
/// softening.
pub fn validate_plummer_sphere(n: usize, a: f64, softening: f64) -> Result<(), String> {
    if n < 2 {
        return Err(format!("need at least two bodies, got {n}"));
    }
    ParticleSet::validate_plummer(a)?;
    validate_softening(softening)
}

/// The rules of [`electrolyte_box`]: at least two ions,
/// [`Yukawa::validate`] on `kappa`, a positive, finite softening and a
/// non-negative, finite thermal speed (an infinite one made every
/// velocity infinite).
pub fn validate_electrolyte_box(
    n: usize,
    kappa: f64,
    softening: f64,
    thermal_speed: f64,
) -> Result<(), String> {
    if n < 2 {
        return Err(format!("need at least two ions, got {n}"));
    }
    Yukawa { kappa }.validate()?;
    validate_softening(softening)?;
    if thermal_speed.is_finite() && thermal_speed >= 0.0 {
        Ok(())
    } else {
        Err(format!(
            "thermal speed must be non-negative and finite, got {thermal_speed}"
        ))
    }
}

/// Both scenarios soften their kernel by a positive, finite length.
fn validate_softening(softening: f64) -> Result<(), String> {
    if softening.is_finite() && softening > 0.0 {
        Ok(())
    } else {
        Err(format!(
            "softening must be positive and finite, got {softening}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plummer_sphere_is_bound_and_subvirial_speeds() {
        let (state, model) = plummer_sphere(600, 1.0, 0.05, 42);
        assert_eq!(state.len(), 600);
        assert_eq!(model.sign, 1.0);
        // Every speed is below the local escape speed (x < 1 in the
        // sampler), bounded by the central value √2.
        assert!(state.max_speed() < (2.0f64).sqrt());
        // Kinetic energy near the virial value ½|W| with
        // W = -3π/32 · M²/a ⇒ KE = 3π/64 ≈ 0.147 (generous tolerance —
        // finite sample).
        let ke = state.kinetic_energy();
        assert!((0.10..0.20).contains(&ke), "kinetic energy {ke}");
        // Deterministic in the seed.
        let (again, _) = plummer_sphere(600, 1.0, 0.05, 42);
        assert_eq!(state.vx, again.vx);
        let (other, _) = plummer_sphere(600, 1.0, 0.05, 43);
        assert_ne!(state.vx, other.vx);
    }

    #[test]
    fn electrolyte_box_is_neutral_and_thermal() {
        let (state, model) = electrolyte_box(500, 2.0, 0.1, 0.1, 7);
        assert_eq!(model.sign, -1.0);
        assert_eq!(state.particles.total_charge(), 0.0);
        assert!(state.mass.iter().all(|&m| m == 1.0));
        // KE ≈ (3/2) n v_th² for Maxwell components with σ = v_th.
        let ke = state.kinetic_energy();
        let expect = 1.5 * 500.0 * 0.01;
        assert!((ke - expect).abs() < 0.35 * expect, "kinetic energy {ke}");
    }

    #[test]
    fn cold_electrolyte_starts_at_rest() {
        let (state, _) = electrolyte_box(10, 0.5, 0.1, 0.0, 1);
        assert_eq!(state.kinetic_energy(), 0.0);
    }

    #[test]
    #[should_panic(expected = "softening")]
    fn zero_softening_rejected() {
        let _ = plummer_sphere(10, 1.0, 0.0, 1);
    }

    /// An infinite thermal speed passed `>= 0.0` and made every velocity
    /// infinite.
    #[test]
    #[should_panic(expected = "thermal speed must be non-negative and finite, got inf")]
    fn infinite_thermal_speed_rejected() {
        let _ = electrolyte_box(4, 0.5, 0.05, f64::INFINITY, 1);
    }
}
