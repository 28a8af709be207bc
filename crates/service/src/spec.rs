//! Job specifications: what a tenant submits.
//!
//! A [`JobSpec`] pins *everything* that determines a run — scenario,
//! particle count, seed, rank count, distributed configuration, step
//! count, and cadence — so that the same spec always produces the same
//! bits, whether it runs solo through
//! [`bltc_sim::PersistentIntegrator`] or multiplexed through the
//! service. That is the property the tenant-isolation harness pins.

use bltc_core::kernel::{Coulomb, Gaussian, RegularizedCoulomb, RegularizedYukawa, Yukawa};
use bltc_core::particles::ParticleSet;
use bltc_dist::DistConfig;
use bltc_sim::scenario::{
    electrolyte_box, plummer_sphere, validate_electrolyte_box, validate_plummer_sphere,
};
use bltc_sim::{ForceModel, RetryPolicy, SimConfig, SimState};

/// Kernel selection for [`Scenario::Custom`] jobs — the service-facing
/// mirror of the concrete [`bltc_core::kernel`] types (the trait
/// objects themselves are not `Copy`/comparable, specs must be).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KernelSpec {
    /// Bare `1/r`.
    Coulomb,
    /// Screened Coulomb `e^{-κr}/r`.
    Yukawa {
        /// Inverse Debye length `κ ≥ 0`.
        kappa: f64,
    },
    /// Plummer-regularized `1/√(r² + ε²)`.
    RegularizedCoulomb {
        /// Softening length `ε > 0`.
        epsilon: f64,
    },
    /// Gaussian `e^{-r²/σ²}`.
    Gaussian {
        /// Width `σ > 0`.
        sigma: f64,
    },
    /// Screened and regularized `e^{-κr}/√(r² + ε²)`.
    RegularizedYukawa {
        /// Inverse Debye length `κ ≥ 0`.
        kappa: f64,
        /// Softening length `ε > 0`.
        epsilon: f64,
    },
}

impl KernelSpec {
    /// The named kernel's own rule.
    fn validate(&self) -> Result<(), String> {
        match *self {
            KernelSpec::Coulomb => Ok(()),
            KernelSpec::Yukawa { kappa } => Yukawa { kappa }.validate(),
            KernelSpec::RegularizedCoulomb { epsilon } => RegularizedCoulomb { epsilon }.validate(),
            KernelSpec::Gaussian { sigma } => Gaussian { sigma }.validate(),
            KernelSpec::RegularizedYukawa { kappa, epsilon } => {
                RegularizedYukawa { kappa, epsilon }.validate()
            }
        }
    }

    /// Build the electrostatic [`ForceModel`] this spec names.
    pub fn force_model(&self) -> ForceModel {
        match *self {
            KernelSpec::Coulomb => ForceModel::electrostatic(Coulomb, "custom-coulomb"),
            KernelSpec::Yukawa { kappa } => {
                ForceModel::electrostatic(Yukawa::new(kappa), "custom-yukawa")
            }
            KernelSpec::RegularizedCoulomb { epsilon } => {
                ForceModel::electrostatic(RegularizedCoulomb::new(epsilon), "custom-reg-coulomb")
            }
            KernelSpec::Gaussian { sigma } => {
                ForceModel::electrostatic(Gaussian::new(sigma), "custom-gaussian")
            }
            KernelSpec::RegularizedYukawa { kappa, epsilon } => ForceModel::electrostatic(
                RegularizedYukawa::new(kappa, epsilon),
                "custom-reg-yukawa",
            ),
        }
    }
}

/// Which initial condition + force model a job simulates. Every
/// variant is deterministic in `(n, seed)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scenario {
    /// Self-gravitating Plummer sphere
    /// ([`bltc_sim::scenario::plummer_sphere`]).
    Plummer {
        /// Plummer scale radius `a > 0`.
        a: f64,
        /// Force softening length `ε > 0`.
        softening: f64,
    },
    /// Screened electrolyte box
    /// ([`bltc_sim::scenario::electrolyte_box`]).
    Electrolyte {
        /// Inverse Debye length `κ ≥ 0`.
        kappa: f64,
        /// Force softening length `ε > 0`.
        softening: f64,
        /// Maxwell thermal speed scale `≥ 0`.
        thermal_speed: f64,
    },
    /// Seeded random cube with unit masses, at rest, under a
    /// caller-chosen electrostatic kernel.
    Custom {
        /// The interaction kernel.
        kernel: KernelSpec,
    },
}

impl Scenario {
    /// The rules of the builder this scenario names, for `n` particles:
    /// [`validate_plummer_sphere`], [`validate_electrolyte_box`] or the
    /// kernel's own.
    fn validate(&self, n: usize) -> Result<(), String> {
        match *self {
            Scenario::Plummer { a, softening } => validate_plummer_sphere(n, a, softening),
            Scenario::Electrolyte {
                kappa,
                softening,
                thermal_speed,
            } => validate_electrolyte_box(n, kappa, softening, thermal_speed),
            Scenario::Custom { kernel } => kernel.validate(),
        }
    }

    /// Build the initial mechanical state and force model — the
    /// deterministic preparation step the service caches.
    pub fn build(&self, n: usize, seed: u64) -> (SimState, ForceModel) {
        match *self {
            Scenario::Plummer { a, softening } => plummer_sphere(n, a, softening, seed),
            Scenario::Electrolyte {
                kappa,
                softening,
                thermal_speed,
            } => electrolyte_box(n, kappa, softening, thermal_speed, seed),
            Scenario::Custom { kernel } => {
                let ps = ParticleSet::random_cube(n, seed);
                let state = SimState::at_rest(ps, vec![1.0; n]);
                (state, kernel.force_model())
            }
        }
    }
}

/// Fault injection for the isolation harness: a tenant whose world
/// panics mid-run must not perturb any other tenant's bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fault {
    /// No injected fault.
    #[default]
    None,
    /// Panic a rank as it enters velocity-Verlet step `step` (1-based)
    /// on **every** attempt — the job fails permanently after the
    /// retry budget.
    PanicAtStep(u64),
    /// Panic a rank as it enters step `step` on the **first** attempt
    /// only — the retry runs clean on a fresh world and must reproduce
    /// the fault-free bits.
    PanicOnceAtStep(u64),
    /// Hang a rank as it enters step `step` on the **first** attempt:
    /// the injected rank parks inside its epoch and never reports. The
    /// engine's epoch watchdog ([`crate::ServiceConfig::epoch_watchdog`])
    /// converts the hang into a poisoned world, so the attempt fails
    /// like a panic instead of deadlocking the worker; the retry runs
    /// clean.
    HangAtStep(u64),
    /// Permanently lose a rank as it enters step `step` on **every**
    /// attempt at the submitted world size — the job can only finish
    /// degraded ([`JobSpec::allow_degraded`]) on a smaller world
    /// re-partitioned over the surviving capacity.
    RankLossAtStep(u64),
}

/// One tenant-submitted simulation job: scenario, size, seed,
/// distributed configuration, and integration budget. `Copy`, so a
/// spec can be replayed solo to check the service's bits.
#[derive(Debug, Clone, Copy)]
pub struct JobSpec {
    /// Initial condition + force model.
    pub scenario: Scenario,
    /// Particle count.
    pub n: usize,
    /// Scenario RNG seed.
    pub seed: u64,
    /// Simulated ranks of the SPMD world.
    pub ranks: usize,
    /// Velocity-Verlet steps to integrate.
    pub steps: u64,
    /// Time step.
    pub dt: f64,
    /// RCB repartition cadence (see [`SimConfig::repartition_every`]).
    pub repartition_every: u64,
    /// Treecode / GPU / fabric / host configuration.
    pub dist: DistConfig,
    /// Injected fault, if any (test harness hook).
    pub fault: Fault,
    /// Checkpoint cadence in steps: `Some(c)` serializes rank-resident
    /// state into a driver-held [`bltc_sim::Checkpoint`] every `c`
    /// steps, and a panicked attempt retries by **restoring** the
    /// latest checkpoint onto a fresh world instead of restarting from
    /// scratch. Checkpointing is bitwise invisible: the recovered bits
    /// equal the fault-free run's.
    pub checkpoint_every: Option<u64>,
    /// Modeled deadline budget in seconds. The job's spend — final
    /// report clock plus deterministic exponential retry backoff plus
    /// lost-attempt spawn time — exceeding this fails the job as
    /// [`crate::JobError::DeadlineExceeded`] even if the bits were
    /// computed.
    pub deadline_s: Option<f64>,
    /// On permanent rank loss ([`Fault::RankLossAtStep`]) with the
    /// retry budget exhausted, re-admit the job onto a world one rank
    /// smaller (fresh RCB over surviving capacity) and finish as
    /// [`crate::JobOutcome::Degraded`] instead of failing.
    pub allow_degraded: bool,
}

impl JobSpec {
    /// Admission-time validation: at least two particles, the rules of
    /// the scenario's builder ([`validate_plummer_sphere`],
    /// [`validate_electrolyte_box`] or the kernel's),
    /// [`SimConfig::validate`] (which composes
    /// [`DistConfig::validate`]: ranks, whole nodes, treecode
    /// parameters, device and streams), a checkpoint cadence of at
    /// least one step ([`RetryPolicy::validate`]) and a positive finite
    /// deadline. Each rule is stated once, by the type that owns it, so
    /// every constraint the downstream layers would `assert!` is refused
    /// here with the same message instead of panicking a worker.
    pub fn validate(&self) -> Result<(), String> {
        if self.n < 2 {
            return Err(format!("need at least two particles, got {}", self.n));
        }
        self.scenario.validate(self.n)?;
        self.sim_config().validate(self.n)?;
        RetryPolicy {
            checkpoint_every: self.checkpoint_every,
            ..RetryPolicy::default()
        }
        .validate()?;
        if let Some(d) = self.deadline_s {
            if !(d.is_finite() && d > 0.0) {
                return Err(format!(
                    "deadline must be a positive, finite number of modeled seconds, got {d}"
                ));
            }
        }
        Ok(())
    }

    /// The integrator configuration this spec drives.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            dist: self.dist,
            ranks: self.ranks,
            dt: self.dt,
            repartition_every: self.repartition_every,
        }
    }

    /// The prepared-world cache key: everything that determines the
    /// *setup* — scenario construction and the initial RCB partition —
    /// but nothing about the integration budget (`steps`/`dt`/cadence
    /// shape the run, not the preparation) or the resilience policy
    /// (`fault`/`checkpoint_every`/`deadline_s`/`allow_degraded` — a
    /// faulted job shares its preparation with the clean job it must
    /// bitwise reproduce). `f64` fields format via
    /// `Debug` as their shortest round-trip decimal, so distinct bit
    /// patterns get distinct keys — the key is exact, never lossy.
    pub fn prep_key(&self) -> String {
        format!(
            "{:?}|n={}|seed={}|ranks={}|{:?}",
            self.scenario, self.n, self.seed, self.ranks, self.dist
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bltc_core::config::BltcParams;

    fn base() -> JobSpec {
        JobSpec {
            scenario: Scenario::Plummer {
                a: 1.0,
                softening: 0.05,
            },
            n: 120,
            seed: 7,
            ranks: 3,
            steps: 2,
            dt: 1e-3,
            repartition_every: 2,
            dist: DistConfig::comet(BltcParams::new(0.8, 3, 40, 40)),
            fault: Fault::None,
            checkpoint_every: None,
            deadline_s: None,
            allow_degraded: false,
        }
    }

    #[test]
    fn valid_spec_passes_and_builds() {
        let s = base();
        s.validate().expect("valid");
        let (state, model) = s.scenario.build(s.n, s.seed);
        assert_eq!(state.len(), 120);
        assert_eq!(model.name, "plummer-sphere");
        // Scenario construction is deterministic in (n, seed).
        let (again, _) = s.scenario.build(s.n, s.seed);
        assert_eq!(state.particles.x, again.particles.x);
        assert_eq!(state.vx, again.vx);
    }

    #[test]
    fn invalid_specs_are_descriptive() {
        let mut s = base();
        s.ranks = 500;
        assert!(s.validate().unwrap_err().contains("more ranks"));
        let mut s = base();
        s.dt = f64::NAN;
        assert!(s.validate().unwrap_err().contains("dt"));
        let mut s = base();
        s.dist.params.theta = 1.5;
        assert!(s.validate().unwrap_err().contains("theta"));
        let mut s = base();
        s.scenario = Scenario::Custom {
            kernel: KernelSpec::Gaussian { sigma: -1.0 },
        };
        assert!(s.validate().unwrap_err().contains("sigma"));
        // The builders' own rules, composed. Built, the first hung the
        // Plummer sampler and the second gave infinite velocities.
        let mut s = base();
        s.scenario = Scenario::Plummer {
            a: f64::INFINITY,
            softening: 0.05,
        };
        assert!(s.validate().unwrap_err().contains("scale radius"));
        let mut s = base();
        s.scenario = Scenario::Electrolyte {
            kappa: 0.5,
            softening: 0.05,
            thermal_speed: f64::INFINITY,
        };
        assert!(s.validate().unwrap_err().contains("thermal speed"));
        let mut s = base();
        s.checkpoint_every = Some(0);
        assert!(s.validate().unwrap_err().contains("checkpoint cadence"));
        let mut s = base();
        s.deadline_s = Some(-1.0);
        assert!(s.validate().unwrap_err().contains("deadline"));
        let mut s = base();
        s.dist.gpus_per_node = 2;
        assert!(s.validate().unwrap_err().contains("2-GPU nodes"));
        // Each of these once passed admission and then panicked inside
        // every rank of every attempt.
        let mut s = base();
        s.dist.streams = 0;
        assert!(s.validate().unwrap_err().contains("streams"));
        let mut s = base();
        s.dist.spec.efficiency = 0.0;
        assert!(s.validate().unwrap_err().contains("efficiency"));
        let mut s = base();
        s.dist.spec.num_streams = 0;
        assert!(s.validate().unwrap_err().contains("num_streams"));
    }

    #[test]
    fn prep_key_separates_setup_inputs_and_ignores_budget() {
        let a = base();
        let mut b = base();
        b.steps = 9; // budget only — same preparation
        assert_eq!(a.prep_key(), b.prep_key());
        // Resilience policy is not part of the preparation either: a
        // faulted job must share bits with the clean job it reproduces.
        let mut f = base();
        f.fault = Fault::PanicOnceAtStep(1);
        f.checkpoint_every = Some(1);
        f.deadline_s = Some(9.0);
        f.allow_degraded = true;
        assert_eq!(a.prep_key(), f.prep_key());
        let mut c = base();
        c.seed = 8;
        assert_ne!(a.prep_key(), c.prep_key());
        let mut d = base();
        d.dist.params.theta = 0.7;
        assert_ne!(a.prep_key(), d.prep_key());
        // f64 Debug is exact: adjacent bit patterns differ in the key.
        let mut e = base();
        e.dt = a.dt; // dt is budget, not setup
        e.scenario = Scenario::Plummer {
            a: f64::from_bits(1.0f64.to_bits() + 1),
            softening: 0.05,
        };
        assert_ne!(a.prep_key(), e.prep_key());
    }

    #[test]
    fn custom_scenarios_build_every_kernel() {
        for kernel in [
            KernelSpec::Coulomb,
            KernelSpec::Yukawa { kappa: 0.5 },
            KernelSpec::RegularizedCoulomb { epsilon: 0.1 },
            KernelSpec::Gaussian { sigma: 0.8 },
            KernelSpec::RegularizedYukawa {
                kappa: 0.5,
                epsilon: 0.1,
            },
        ] {
            let (state, model) = Scenario::Custom { kernel }.build(64, 3);
            assert_eq!(state.len(), 64);
            assert!(model.name.starts_with("custom-"));
            assert!(state.vx.iter().all(|&v| v == 0.0), "at rest");
        }
    }
}
