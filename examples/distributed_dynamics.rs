//! Distributed **dynamics** end-to-end: a gravitating Plummer sphere
//! integrated with velocity-Verlet for 100 steps on 4 simulated ranks —
//! ranks spawned once, state resident on the ranks, forces from the
//! distributed field pipeline each step, RCB repartitioning on a cadence
//! by rank-to-rank collectives and delta particle migration — followed
//! by a short screened-electrolyte (Yukawa) box run to show the MD face
//! of the same integrator.
//!
//! Checks performed (and asserted):
//! - relative total-energy drift over the run stays ≤ 1e-3,
//! - every step's per-rank RMA tallies reconcile **exactly** against
//!   the runtime's `TrafficMatrix`, and the cumulative matrix equals
//!   the sum of the per-step tallies,
//! - the run performs exactly **one** thread-spawn phase,
//! - repartition data flows rank-to-rank: migration bytes appear in
//!   their own traffic matrix, nothing is gathered through the driver,
//! - every migration step moves strictly fewer bytes than the modeled
//!   full-repartition exchange.
//!
//! ```text
//! cargo run --release --example distributed_dynamics
//! ```

use bltc::core::prelude::*;
use bltc::dist::DistConfig;
use bltc::sim::{electrolyte_box, plummer_sphere, PersistentIntegrator, SimConfig};

fn main() {
    // ---- scenario 1: gravitating Plummer sphere ---------------------
    let (n, ranks, steps) = (4_000, 4, 100);
    let (state, model) = plummer_sphere(n, 1.0, 0.05, 42);
    let dist = DistConfig::comet(BltcParams::new(0.7, 6, 200, 200));
    let cfg = SimConfig::new(dist, ranks, 1e-3).with_repartition_every(10);

    println!(
        "distributed dynamics: {} — N = {n}, {ranks} ranks",
        model.name
    );
    println!(
        "velocity-Verlet, dt = {}, {steps} steps, repartition every {}\n",
        cfg.dt, cfg.repartition_every
    );

    let mut integrator = PersistentIntegrator::new(cfg, &state, &model);
    let e0 = integrator.report().initial_energy;
    println!(
        "initial energy E0 = {e0:.6} (KE = {:.6})",
        state.kinetic_energy()
    );
    println!("\n step   time      E          |ΔE|/|E0|   RMA KiB  migrated   mig KiB   full KiB");

    for rep in integrator.run(steps) {
        // Acceptance: per-step traffic reconciles exactly against the
        // runtime's TrafficMatrix.
        assert_eq!(rep.rank_msgs, rep.matrix_msgs, "step {} messages", rep.step);
        assert_eq!(rep.rank_bytes, rep.matrix_bytes, "step {} bytes", rep.step);
        if rep.repartitioned {
            // Acceptance: migration moves strictly fewer bytes than a
            // full repartition exchange would.
            assert!(
                rep.migration_bytes < rep.full_exchange_bytes,
                "step {}: migration {} !< full {}",
                rep.step,
                rep.migration_bytes,
                rep.full_exchange_bytes
            );
            println!(
                "{:>5}  {:>5.3}  {:>9.6}  {:>9.2e}  {:>8.1}  {:>8}  {:>8.1}  {:>9.1}",
                rep.step,
                rep.time,
                rep.total_energy(),
                (rep.total_energy() - e0).abs() / e0.abs(),
                rep.rank_bytes as f64 / 1024.0,
                rep.migrated_particles,
                rep.migration_bytes as f64 / 1024.0,
                rep.full_exchange_bytes as f64 / 1024.0,
            );
        }
    }

    let report = integrator.report();
    let drift = report.max_relative_energy_drift();
    println!("\nafter {} steps:", report.steps);
    println!("  max |E - E0| / |E0|   : {drift:.2e}");
    println!(
        "  thread-spawn phases   : {} ({:.4} s once, epochs {:.4} s)",
        report.world_spawns, report.spawn_host_s, report.epoch_host_s
    );
    println!(
        "  migrations            : {} epochs, {} particles, {:.1} KiB total",
        report.migrations,
        report.migrated_particles,
        report.migration_bytes as f64 / 1024.0,
    );
    println!(
        "  modeled phase seconds : setup {:.4}, precompute {:.4}, compute {:.4}",
        report.setup_s, report.precompute_s, report.compute_s
    );
    println!(
        "  modeled s/step        : {:.6} ({} force evals)",
        report.seconds_per_step(),
        report.force_evals
    );
    println!(
        "  cumulative RMA        : {} msgs, {:.1} KiB",
        report.rma_messages,
        report.rma_bytes as f64 / 1024.0
    );

    // Cumulative matrix reconciles against summed per-step tallies.
    assert_eq!(report.traffic.total_remote_messages(), report.rma_messages);
    assert_eq!(report.traffic.total_remote_bytes(), report.rma_bytes);
    assert!(drift <= 1e-3, "energy drift {drift} exceeds 1e-3");
    assert_eq!(report.world_spawns, 1, "one thread-spawn phase");
    assert!(report.migration_traffic.total_remote_bytes() > 0);
    assert_eq!(
        report.migration_bytes,
        report.migration_traffic.total_remote_bytes(),
        "migration phase reconciles in its traffic matrix"
    );

    // ---- scenario 2: screened-electrolyte (Yukawa) box --------------
    let (ion_state, ion_model) = electrolyte_box(2_000, 2.0, 0.1, 0.05, 7);
    let ion_cfg = SimConfig::new(
        DistConfig::comet(BltcParams::new(0.7, 6, 200, 200)),
        ranks,
        5e-4,
    )
    .with_repartition_every(5);
    let mut ion_integrator = PersistentIntegrator::new(ion_cfg, &ion_state, &ion_model);
    let ion_e0 = ion_integrator.report().initial_energy;
    ion_integrator.run(40);
    let ion_report = ion_integrator.report();
    println!(
        "\n{} — N = 2000, κ = 2: 40 steps, E0 = {:.4}, E = {:.4}, drift {:.2e}",
        ion_model.name,
        ion_e0,
        ion_report.final_energy,
        ion_report.max_relative_energy_drift()
    );
    assert!(ion_report.max_relative_energy_drift() <= 1e-2);

    println!("\nOK — 4-rank Plummer integrated ≥100 steps on one world with energy drift ≤ 1e-3");
}
