//! Distributed **force** evaluation end-to-end on 4 simulated ranks:
//! the same RCB + LET pipeline as `distributed_let`, but every rank
//! evaluates potentials *and* 3-component gradients through the
//! gradient-capable GPU kernels (`run_distributed_on` with a
//! `&dyn GradientKernel`), so forces `F_i = -q_i ∇φ(x_i)` — the
//! astrophysics / MD quantity — come out of the distributed path
//! directly.
//!
//! ```text
//! cargo run --release --example distributed_forces
//! ```

use bltc::core::prelude::*;
use bltc::dist::{run_distributed, run_distributed_on, DistConfig, PhaseMaxima};

fn main() {
    let n = 12_000;
    let ranks = 4;
    let ps = ParticleSet::random_cube(n, 34);
    let params = BltcParams::new(0.7, 6, 400, 400);
    let cfg = DistConfig::comet(params);

    println!(
        "distributed BLTC forces: N = {n}, {ranks} ranks ({} per rank)",
        n / ranks
    );
    println!("device/rank: {}, fabric: {}\n", cfg.spec.name, cfg.net.name);

    let op: &dyn GradientKernel = &Coulomb;
    let (columns, ranks_rep, traffic) =
        run_distributed_on(&ps, &cfg.partition(&ps, ranks), &cfg, op);
    let field = FieldResult::from(columns);
    let clocks = PhaseMaxima::over(&ranks_rep);

    // Accuracy vs direct-sum forces (the O(N²) reference).
    let exact = direct_sum_field(&ps, &ps, &Coulomb);
    let err_pot = relative_l2_error(&exact.potentials, &field.potentials);
    let err_gx = relative_l2_error(&exact.gx, &field.gx);
    let err_gy = relative_l2_error(&exact.gy, &field.gy);
    let err_gz = relative_l2_error(&exact.gz, &field.gz);
    println!("relative 2-norm error vs direct summation:");
    println!("  potential : {err_pot:.2e}");
    println!("  ∂φ/∂x     : {err_gx:.2e}");
    println!("  ∂φ/∂y     : {err_gy:.2e}");
    println!("  ∂φ/∂z     : {err_gz:.2e}\n");

    println!("per-rank summary:");
    println!("rank  n_local  batches  LET:approx  LET:direct  RMA msgs  RMA KiB");
    for r in &ranks_rep {
        println!(
            "{:>4}  {:>7}  {:>7}  {:>10}  {:>10}  {:>8}  {:>7.1}",
            r.rank,
            r.n_local,
            r.num_batches,
            r.let_stats.remote_approx_nodes,
            r.let_stats.remote_direct_nodes,
            r.let_messages,
            r.let_bytes as f64 / 1024.0,
        );
    }

    // Gradient kernels charge ~4× the flops: visible as a fatter
    // compute phase than the potential-only run of the same problem.
    let pot_rep = run_distributed(&ps, ranks, &cfg, &Coulomb);
    println!("\nmodeled phases, field vs potential-only (max over ranks):");
    println!("                field        potential-only");
    println!(
        "  setup      : {:>9.3} ms   {:>9.3} ms",
        clocks.setup_s * 1e3,
        pot_rep.setup_s * 1e3
    );
    println!(
        "  precompute : {:>9.3} ms   {:>9.3} ms",
        clocks.precompute_s * 1e3,
        pot_rep.precompute_s * 1e3
    );
    println!(
        "  compute    : {:>9.3} ms   {:>9.3} ms",
        clocks.compute_s * 1e3,
        pot_rep.compute_s * 1e3
    );
    println!(
        "  total      : {:>9.3} ms   {:>9.3} ms",
        clocks.total_s * 1e3,
        pot_rep.total_s * 1e3
    );

    // A sample force, to make the physics concrete.
    let i = 0;
    let (fx, fy, fz) = (
        -ps.q[i] * field.gx[i],
        -ps.q[i] * field.gy[i],
        -ps.q[i] * field.gz[i],
    );
    println!(
        "\nforce on particle 0 (q = {:+.3}): ({fx:+.4}, {fy:+.4}, {fz:+.4})",
        ps.q[i]
    );

    assert!(err_gx <= 1e-3 && err_gy <= 1e-3 && err_gz <= 1e-3);
    assert!(clocks.compute_s > pot_rep.compute_s);
    assert_eq!(
        traffic.total_remote_bytes(),
        pot_rep.traffic.total_remote_bytes(),
        "gradient evaluation must add no RMA traffic"
    );
    println!("\nOK — distributed forces match direct summation to ≤1e-3");
}
