//! Integration tests of the distributed time integrator
//! (`bltc::sim::PersistentIntegrator`): velocity-Verlet energy
//! conservation over ≥100 steps, multi-rank vs single-rank trajectory
//! parity, repartition-cadence behavior, and the cumulative RMA-traffic
//! reconciliation the `SimReport` guarantees.

use bltc::core::prelude::*;
use bltc::dist::DistConfig;
use bltc::sim::{plummer_sphere, PersistentIntegrator, SimConfig, SimState};

/// Small-problem treecode parameters that keep debug-build steps cheap
/// while staying well inside MAC accuracy.
fn sim_cfg(ranks: usize, dt: f64) -> SimConfig {
    SimConfig::new(
        DistConfig::comet(BltcParams::new(0.7, 5, 60, 60)),
        ranks,
        dt,
    )
}

#[test]
fn plummer_energy_drift_bounded_over_100_steps() {
    // The ISSUE-3 acceptance bound, at test scale: a small Plummer
    // sphere integrated ≥100 velocity-Verlet steps on 4 ranks must hold
    // relative total-energy drift ≤ 1e-3. (The release-mode example
    // runs the full-size version; symplectic integration + treecode
    // forces typically land orders of magnitude below the bound.)
    let (state, model) = plummer_sphere(400, 1.0, 0.05, 9);
    let mut integrator =
        PersistentIntegrator::new(sim_cfg(4, 1e-3).with_repartition_every(10), &state, &model);
    integrator.run(110);

    let report = integrator.report();
    assert_eq!(report.steps, 110);
    assert!(
        report.initial_energy < 0.0,
        "a Plummer sphere is bound, E0 = {}",
        report.initial_energy
    );
    let drift = report.max_relative_energy_drift();
    assert!(drift <= 1e-3, "energy drift {drift} exceeds 1e-3");
    // The state clock advanced with the integrator.
    let state = integrator.snapshot();
    assert_eq!(state.step, 110);
    assert!((state.time - 0.11).abs() < 1e-12);
}

#[test]
fn momentum_is_conserved() {
    // Pairwise-antisymmetric forces conserve linear momentum; the
    // treecode approximation breaks exact antisymmetry only at MAC
    // accuracy, so drift must stay tiny relative to typical speeds.
    let (state, model) = plummer_sphere(300, 1.0, 0.05, 5);
    let p0 = state.momentum();
    let mut integrator = PersistentIntegrator::new(sim_cfg(3, 1e-3), &state, &model);
    integrator.run(30);
    let p1 = integrator.snapshot().momentum();
    let dp = ((p1.0 - p0.0).powi(2) + (p1.1 - p0.1).powi(2) + (p1.2 - p0.2).powi(2)).sqrt();
    assert!(dp < 1e-6, "momentum drift {dp}");
}

#[test]
fn multi_rank_trajectories_match_single_rank() {
    // 1/2/4-rank runs of the same initial state: distributing changes
    // the trees (and therefore the approximation), so trajectories
    // agree to MAC accuracy, not bitwise — but after 20 steps they must
    // still be far closer than any physical displacement.
    let run = |ranks: usize| -> SimState {
        let (state, model) = plummer_sphere(350, 1.0, 0.05, 17);
        let mut integrator = PersistentIntegrator::new(sim_cfg(ranks, 1e-3), &state, &model);
        integrator.run(20);
        integrator.snapshot()
    };
    let reference = run(1);
    for ranks in [2usize, 4] {
        let state = run(ranks);
        for (axis, a, b) in [
            ("x", &state.particles.x, &reference.particles.x),
            ("y", &state.particles.y, &reference.particles.y),
            ("z", &state.particles.z, &reference.particles.z),
            ("vx", &state.vx, &reference.vx),
        ] {
            let err = relative_l2_error(b, a);
            assert!(err < 1e-5, "{ranks}-rank {axis} deviation {err}");
        }
    }
}

#[test]
fn single_rank_runs_have_no_rma_traffic() {
    let (state, model) = plummer_sphere(200, 1.0, 0.05, 3);
    let mut integrator = PersistentIntegrator::new(sim_cfg(1, 1e-3), &state, &model);
    let steps = integrator.run(5);
    for s in &steps {
        assert_eq!(s.rank_bytes, 0);
        assert_eq!(s.matrix_bytes, 0);
    }
    assert_eq!(integrator.report().rma_bytes, 0);
}

#[test]
fn per_step_and_cumulative_traffic_reconcile() {
    let (state, model) = plummer_sphere(320, 1.0, 0.05, 23);
    let mut integrator =
        PersistentIntegrator::new(sim_cfg(4, 1e-3).with_repartition_every(4), &state, &model);
    let e0_msgs = integrator.report().rma_messages;
    let e0_bytes = integrator.report().rma_bytes;
    assert!(e0_bytes > 0, "initial evaluation already fetches LETs");

    let steps = integrator.run(9);
    let report = integrator.report();

    // Every step: the per-rank tallies of the LET plans equal the runtime
    // matrix totals (the RankReport invariant, per step).
    let (mut sum_msgs, mut sum_bytes) = (e0_msgs, e0_bytes);
    for s in &steps {
        assert_eq!(s.rank_msgs, s.matrix_msgs, "step {}", s.step);
        assert_eq!(s.rank_bytes, s.matrix_bytes, "step {}", s.step);
        assert!(s.rank_bytes > 0, "4-rank steps must fetch LETs");
        sum_msgs += s.rank_msgs;
        sum_bytes += s.rank_bytes;
    }

    // Cumulative: the accumulated TrafficMatrix reconciles exactly
    // against the summed per-step tallies.
    assert_eq!(report.rma_messages, sum_msgs);
    assert_eq!(report.rma_bytes, sum_bytes);
    assert_eq!(report.traffic.total_remote_messages(), sum_msgs);
    assert_eq!(report.traffic.total_remote_bytes(), sum_bytes);
    assert_eq!(report.force_evals, 10, "initial evaluation + 9 steps");
}

#[test]
fn repartition_cadence_is_respected_and_charged() {
    let (state, model) = plummer_sphere(250, 1.0, 0.05, 31);
    // Cadence 3 over 7 steps: repartitions at steps 3 and 6, plus the
    // initial decomposition.
    let mut integrator =
        PersistentIntegrator::new(sim_cfg(2, 1e-3).with_repartition_every(3), &state, &model);
    let steps = integrator.run(7);
    let taken: Vec<u64> = steps
        .iter()
        .filter(|s| s.repartitioned)
        .map(|s| s.step)
        .collect();
    assert_eq!(taken, vec![3, 6]);
    let report = integrator.report();
    assert_eq!(report.repartitions, 3);
    assert!(report.repartition_host_s > 0.0);
    // Non-repartition steps charge no repartition host time.
    for s in steps.iter().filter(|s| !s.repartitioned) {
        assert_eq!(s.repartition_host_s, 0.0);
    }
    // The modeled run clock contains every phase and nothing else:
    // per-step totals (max over ranks) can never exceed the sum of the
    // per-phase maxima.
    assert!(report.total_s > 0.0);
    assert!(
        report.total_s
            <= report.setup_s
                + report.precompute_s
                + report.compute_s
                + report.repartition_host_s
                + report.spawn_host_s
                + report.epoch_host_s
                + report.migration_comm_s
                + 1e-12,
        "phase clocks must bound the total"
    );
}

#[test]
fn stale_partitions_stay_correct() {
    // Never repartitioning within the run must not change the physics,
    // only the decomposition compactness: trajectories agree with the
    // every-step-repartition run to treecode accuracy.
    let steps = 12;
    let run = |every: u64| {
        let (state, model) = plummer_sphere(300, 1.0, 0.05, 41);
        let mut integrator = PersistentIntegrator::new(
            sim_cfg(3, 2e-3).with_repartition_every(every),
            &state,
            &model,
        );
        integrator.run(steps);
        (integrator.snapshot(), integrator.report().repartitions)
    };
    let (fresh, fresh_reparts) = run(1);
    let (stale, stale_reparts) = run(1000);
    assert_eq!(fresh_reparts, 1 + steps as u64);
    assert_eq!(stale_reparts, 1, "only the initial decomposition");
    for (axis, a, b) in [
        ("x", &fresh.particles.x, &stale.particles.x),
        ("y", &fresh.particles.y, &stale.particles.y),
        ("z", &fresh.particles.z, &stale.particles.z),
    ] {
        let err = relative_l2_error(a, b);
        assert!(err < 1e-5, "{axis} deviation {err} between cadences");
    }
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let (state, model) = plummer_sphere(200, 1.0, 0.05, 13);
        let mut integrator = PersistentIntegrator::new(sim_cfg(3, 1e-3), &state, &model);
        integrator.run(6);
        (integrator.snapshot(), integrator.report().clone())
    };
    let (s1, r1) = run();
    let (s2, r2) = run();
    assert_eq!(s1.particles.x, s2.particles.x);
    assert_eq!(s1.vx, s2.vx);
    assert_eq!(r1.total_s, r2.total_s);
    assert_eq!(r1.rma_bytes, r2.rma_bytes);
    assert_eq!(r1.final_energy, r2.final_energy);
}
