//! Integration tests of the persistent-session subsystem: the
//! persistent integrator against a driver-side velocity-Verlet oracle
//! (trajectories, phase clocks and LET traffic bit for bit, across
//! migrations), single-spawn/epoch accounting, and the particle-migration
//! invariants (multiset preservation, bitwise ownership against a fresh
//! RCB, exact traffic reconciliation) — including property-based
//! coverage.

use std::sync::Arc;

use bltc::core::prelude::*;
use bltc::dist::{run_distributed_on, DistConfig, FieldSession, PhaseMaxima};
use bltc::mpi_sim::TrafficMatrix;
use bltc::sim::{plummer_sphere, ForceModel, PersistentIntegrator, SimConfig, SimState};
use proptest::prelude::*;
use rcb::{rcb_partition, RcbPartition};

fn sim_cfg(ranks: usize, every: u64) -> SimConfig {
    SimConfig::new(
        DistConfig::comet(BltcParams::new(0.7, 5, 60, 60)),
        ranks,
        1e-3,
    )
    .with_repartition_every(every)
}

fn dist_cfg() -> DistConfig {
    DistConfig::comet(BltcParams::new(0.8, 3, 60, 60))
}

/// The velocity-Verlet loop run on the driver: half-kick and drift over
/// the global state, a fresh driver-side RCB on the repartition
/// cadence, one [`run_distributed_on`] per force evaluation, and the
/// closing half-kick. Returns the launch evaluation's phase clocks and
/// traffic followed by one pair per step.
fn driver_side_vv(
    cfg: SimConfig,
    state: &mut SimState,
    model: &ForceModel,
    steps: usize,
) -> Vec<(PhaseMaxima, TrafficMatrix)> {
    let n = state.len();
    let (dt, half) = (cfg.dt, 0.5 * cfg.dt);
    let evaluate = |state: &SimState, part: &RcbPartition, a: &mut [Vec<f64>; 3]| {
        let (columns, ranks, traffic) =
            run_distributed_on(&state.particles, part, &cfg.dist, model.kernel());
        let [ax, ay, az] = a;
        let field = FieldResult::from(columns);
        model.accelerations_into(&field, &state.particles.q, &state.mass, ax, ay, az);
        (PhaseMaxima::over(&ranks), traffic)
    };
    let kick = |state: &mut SimState, [ax, ay, az]: &[Vec<f64>; 3]| {
        for i in 0..n {
            state.vx[i] += half * ax[i];
            state.vy[i] += half * ay[i];
            state.vz[i] += half * az[i];
        }
    };
    let mut a = [vec![0.0; n], vec![0.0; n], vec![0.0; n]];
    let mut part = cfg.dist.partition(&state.particles, cfg.ranks);
    let mut reports = vec![evaluate(state, &part, &mut a)];
    for _ in 0..steps {
        kick(state, &a);
        for i in 0..n {
            state.particles.x[i] += dt * state.vx[i];
            state.particles.y[i] += dt * state.vy[i];
            state.particles.z[i] += dt * state.vz[i];
        }
        state.step += 1;
        state.time += dt;
        if state.step.is_multiple_of(cfg.repartition_every) {
            part = cfg.dist.partition(&state.particles, cfg.ranks);
        }
        reports.push(evaluate(state, &part, &mut a));
        kick(state, &a);
    }
    reports
}

#[test]
fn persistent_trajectory_matches_respawn_bitwise() {
    // One integrator running epochs against live ranks, with particles
    // migrating rank-to-rank on the cadence, against the same loop run
    // on the driver: resident local sets are kept in the order a
    // driver-side partition yields, so every step must agree bit for
    // bit — positions, velocities, the phase clocks and the LET traffic
    // matrix of each step's evaluation.
    for (ranks, every, steps) in [(4usize, 5u64, 25usize), (2, 3, 10)] {
        let (mut state, model) = plummer_sphere(400, 1.0, 0.05, 9);
        let mut persistent = PersistentIntegrator::new(sim_cfg(ranks, every), &state, &model);
        let oracle = driver_side_vv(sim_cfg(ranks, every), &mut state, &model, steps);
        let at = |step: u64| format!("{ranks} ranks, step {step}");

        let mut traffic = oracle[0].1.clone();
        assert_eq!(persistent.report().traffic, traffic, "{}", at(0));
        for (want, want_traffic) in &oracle[1..] {
            let got = persistent.step();
            let step = got.step;
            for (what, p, d) in [
                ("setup_s", got.setup_s, want.setup_s),
                ("precompute_s", got.precompute_s, want.precompute_s),
                ("compute_s", got.compute_s, want.compute_s),
                ("pipelined_s", got.pipelined_s, want.pipelined_s),
            ] {
                assert_eq!(p.to_bits(), d.to_bits(), "{} {what}", at(step));
            }
            assert!(got.pipelined_s > 0.0 && got.pipelined_s <= got.total_s);
            assert_eq!(got.repartitioned, step.is_multiple_of(every));
            // Per-step LET matrices agree exactly iff the running sums do.
            traffic.accumulate(want_traffic);
            assert_eq!(persistent.report().traffic, traffic, "{}", at(step));
            assert_eq!(got.matrix_bytes, want_traffic.total_remote_bytes());
        }
        let report = persistent.report();
        assert!(report.migrations > 0 && report.migrated_particles > 0);
        let pipelined = oracle.iter().fold(0.0, |acc, (r, _)| acc + r.pipelined_s);
        assert_eq!(report.pipelined_s.to_bits(), pipelined.to_bits());
        assert!(report.pipelined_s <= report.total_s);
        // Energy conservation holds on the persistent path by itself.
        let drift = report.max_relative_energy_drift();
        assert!(drift <= 1e-3, "{ranks} ranks: persistent drift {drift}");

        let snap = persistent.snapshot();
        for (axis, p, d) in [
            ("x", &snap.particles.x, &state.particles.x),
            ("y", &snap.particles.y, &state.particles.y),
            ("z", &snap.particles.z, &state.particles.z),
            ("vx", &snap.vx, &state.vx),
            ("vy", &snap.vy, &state.vy),
            ("vz", &snap.vz, &state.vz),
        ] {
            for (i, (p, d)) in p.iter().zip(d).enumerate() {
                assert_eq!(
                    p.to_bits(),
                    d.to_bits(),
                    "{ranks} ranks: particle {i} {axis}"
                );
            }
        }
        assert_eq!((snap.step, snap.time), (state.step, state.time));
    }
}

#[test]
fn persistent_run_spawns_exactly_one_world() {
    let steps = 8;
    let (state, model) = plummer_sphere(300, 1.0, 0.05, 21);
    let mut p = PersistentIntegrator::new(sim_cfg(3, 4), &state, &model);
    p.run(steps);
    let report = p.report();

    // One thread-spawn phase for the whole run; every evaluation after
    // it is an epoch on the live ranks.
    assert_eq!(report.world_spawns, 1);
    assert_eq!(report.force_evals, steps as u64 + 1);
    assert!(report.epoch_host_s > 0.0, "epochs charged instead");
}

#[test]
fn repartition_data_flows_rank_to_rank() {
    // The repartition exchange must appear in the rank-to-rank traffic
    // matrix (migration phase), with nothing gathered through the
    // driver.
    let steps = 10;
    let (state, model) = plummer_sphere(350, 1.0, 0.05, 33);
    let mut p = PersistentIntegrator::new(sim_cfg(4, 3), &state, &model);
    let reports = p.run(steps);
    let report = p.report();

    assert_eq!(report.migrations, 3, "steps 3, 6, 9");
    assert!(
        report.migration_traffic.total_remote_bytes() > 0,
        "repartition data crossed the simulated fabric"
    );
    assert_eq!(
        report.migration_bytes,
        report.migration_traffic.total_remote_bytes(),
        "migration tallies reconcile against the migration-phase matrix"
    );
    // Migration-phase and LET-phase traffic stay separate, and each
    // reconciles on its own.
    assert_eq!(report.rma_bytes, report.traffic.total_remote_bytes());

    for s in &reports {
        if s.repartitioned {
            assert!(s.migration_bytes > 0);
            assert!(
                s.migration_bytes < s.full_exchange_bytes,
                "delta migration ({}) must beat the full-exchange baseline ({})",
                s.migration_bytes,
                s.full_exchange_bytes
            );
        } else {
            assert_eq!(s.migration_bytes, 0);
            assert_eq!(s.full_exchange_bytes, 0);
        }
    }
}

#[test]
fn migration_ownership_matches_fresh_rcb_bitwise() {
    // Shuffle resident positions deterministically, migrate, and
    // compare ownership against a driver-side RCB of the same
    // positions: the per-rank id lists must match exactly.
    let ps = ParticleSet::random_cube(500, 77);
    let mut fs = FieldSession::launch(&ps, &[], 4, &dist_cfg());
    fs.run_epoch(|_c, slot| {
        for i in 0..slot.ps.len() {
            let id = slot.ids[i] as f64;
            slot.ps.x[i] += (id * 1.3).sin() * 0.8;
            slot.ps.z[i] += (id * 0.9).cos() * 0.6;
        }
    });
    let mig = fs.migrate();
    assert!(mig.migrated_particles > 0);

    let snap = fs.snapshot();
    let fresh = rcb_partition(&snap.ps, 4, None);
    assert_eq!(snap.ownership, fresh.part_indices);
}

#[test]
fn poisoned_session_surfaces_rank_panics() {
    // Satellite check at the dist level: an epoch closure that panics
    // on one rank must not hang the session — the driver sees the
    // original panic and later epochs fail fast.
    let ps = ParticleSet::random_cube(60, 3);
    let mut fs = FieldSession::launch(&ps, &[], 3, &dist_cfg());
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        fs.run_epoch(|comm, _slot| {
            if comm.rank() == 2 {
                panic!("rank 2 bug");
            }
            comm.barrier();
        })
    }));
    assert!(out.is_err(), "epoch panic must propagate");
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        fs.run_epoch(|comm, _slot| comm.barrier())
    }));
    assert!(out.is_err(), "poisoned session fails fast, not silently");
}

#[test]
fn field_session_eval_matches_run_distributed_on() {
    // The "execute as an epoch against live ranks" re-entry: identical
    // clocks and traffic to the one-shot pipeline on the same partition.
    let ps = ParticleSet::random_cube(800, 13);
    let c = dist_cfg();
    let part = rcb_partition(&ps, 4, None);
    let kernel: Arc<dyn GradientKernel> = Arc::new(Coulomb);
    let (_, ranks, traffic) = run_distributed_on(&ps, &part, &c, &*kernel);

    let mut fs = FieldSession::launch(&ps, &[], 4, &c);
    let rep = fs.eval_field(&kernel);
    assert_eq!(rep.total_s, PhaseMaxima::over(&ranks).total_s);
    assert_eq!(
        rep.traffic.total_remote_bytes(),
        traffic.total_remote_bytes()
    );
    for (a, b) in rep.ranks.iter().zip(&ranks) {
        assert_eq!(a.let_bytes, b.let_bytes);
        assert_eq!(a.ops, b.ops);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Migration preserves the global particle multiset: every id keeps
    /// exactly its (position, weight, aux) record, just on a new rank.
    #[test]
    fn migration_preserves_the_global_multiset(
        n in 60usize..220,
        ranks in 2usize..5,
        seed in 0u64..500,
        amp in 0.1f64..1.5,
    ) {
        let ps = ParticleSet::random_cube(n, seed);
        // Tag every particle with an id-derived aux value.
        let tag: Vec<f64> = (0..n).map(|i| i as f64 * 10.0 + 0.5).collect();
        let mut fs = FieldSession::launch(&ps, std::slice::from_ref(&tag), ranks, &dist_cfg());

        // Deterministic per-id displacement (rank-independent), so the
        // expected post-shuffle positions are known at the driver.
        fs.run_epoch(move |_c, slot| {
            for i in 0..slot.ps.len() {
                let id = slot.ids[i] as f64;
                slot.ps.x[i] += (id * 2.1).sin() * amp;
                slot.ps.y[i] += (id * 1.7).cos() * amp;
            }
        });
        let mig = fs.migrate();
        let snap = fs.snapshot();

        // Multiset: every id appears exactly once with its exact record.
        let mut seen = vec![false; n];
        for ids in &snap.ownership {
            for &id in ids {
                prop_assert!(!seen[id], "id {} owned twice", id);
                seen[id] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "every id owned exactly once");
        for (id, t) in tag.iter().enumerate() {
            let amp_x = (id as f64 * 2.1).sin() * amp;
            let amp_y = (id as f64 * 1.7).cos() * amp;
            prop_assert_eq!(snap.ps.x[id].to_bits(), (ps.x[id] + amp_x).to_bits());
            prop_assert_eq!(snap.ps.y[id].to_bits(), (ps.y[id] + amp_y).to_bits());
            prop_assert_eq!(snap.ps.z[id].to_bits(), ps.z[id].to_bits());
            prop_assert_eq!(snap.ps.q[id].to_bits(), ps.q[id].to_bits());
            prop_assert_eq!(snap.aux[0][id].to_bits(), t.to_bits());
        }

        // Ownership equals a fresh driver-side RCB, bitwise.
        let fresh = rcb_partition(&snap.ps, ranks, None);
        prop_assert_eq!(&snap.ownership, &fresh.part_indices);

        // Traffic reconciles exactly: per-rank call-site tallies vs the
        // migration epoch's drained matrix, and sent == received.
        let tallied_bytes: u64 = mig.ranks.iter().map(|s| s.gather_bytes + s.sent_bytes).sum();
        let tallied_msgs: u64 = mig.ranks.iter().map(|s| s.gather_msgs + s.sent_msgs).sum();
        prop_assert_eq!(tallied_bytes, mig.traffic.total_remote_bytes());
        prop_assert_eq!(tallied_msgs, mig.traffic.total_remote_messages());
        let recv: u64 = mig.ranks.iter().map(|s| s.recv_particles).sum();
        prop_assert_eq!(recv, mig.migrated_particles);
        let after: usize = mig.ranks.iter().map(|s| s.n_after).sum();
        prop_assert_eq!(after, n, "particle count conserved");
    }
}
