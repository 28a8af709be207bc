//! Integration tests of distributed **force** evaluation: the
//! `run_distributed_field` pipeline against single-rank references,
//! finite differences of the distributed potential, and the RMA traffic
//! accounting invariants the field path must preserve.

use bltc::core::prelude::*;
use bltc::dist::{run_distributed, run_distributed_field, DistConfig, DistFieldReport};

fn cfg(params: BltcParams) -> DistConfig {
    DistConfig::comet(params)
}

fn assert_all_finite(rep: &DistFieldReport) {
    for (name, v) in [
        ("potentials", &rep.field.potentials),
        ("gx", &rep.field.gx),
        ("gy", &rep.field.gy),
        ("gz", &rep.field.gz),
    ] {
        assert!(v.iter().all(|x| x.is_finite()), "{name} contains NaN/inf");
    }
}

#[test]
fn distributed_gradients_match_single_rank_evaluate_field() {
    // 1/2/4/7 ranks (odd counts included) against the single-rank CPU
    // field reference. Distributing changes the trees and thus the
    // approximation, so agreement is to MAC accuracy: potentials one
    // order tighter than gradients, as in the single-rank tests.
    let ps = ParticleSet::random_cube(2400, 400);
    let params = BltcParams::new(0.7, 6, 80, 80);
    let prep = PreparedTreecode::new(&ps, &ps, params);
    let reference = prep.evaluate_field(&Coulomb);
    for ranks in [1usize, 2, 4, 7] {
        let rep = run_distributed_field(&ps, ranks, &cfg(params), &Coulomb);
        assert_all_finite(&rep);
        let ep = relative_l2_error(&reference.potentials, &rep.field.potentials);
        let ex = relative_l2_error(&reference.gx, &rep.field.gx);
        let ey = relative_l2_error(&reference.gy, &rep.field.gy);
        let ez = relative_l2_error(&reference.gz, &rep.field.gz);
        assert!(ep < 1e-4, "{ranks} ranks: potential err {ep}");
        assert!(ex < 1e-3, "{ranks} ranks: gx err {ex}");
        assert!(ey < 1e-3, "{ranks} ranks: gy err {ey}");
        assert!(ez < 1e-3, "{ranks} ranks: gz err {ez}");
        assert_eq!(rep.ranks.len(), ranks);
    }
}

#[test]
fn distributed_gradients_match_direct_sum_forces() {
    let ps = ParticleSet::plummer(2000, 1.0, 401);
    let params = BltcParams::new(0.7, 6, 80, 80);
    let rep = run_distributed_field(&ps, 4, &cfg(params), &Coulomb);
    let exact = direct_sum_field(&ps, &ps, &Coulomb);
    assert!(relative_l2_error(&exact.gx, &rep.field.gx) < 1e-3);
    assert!(relative_l2_error(&exact.gy, &rep.field.gy) < 1e-3);
    assert!(relative_l2_error(&exact.gz, &rep.field.gz) < 1e-3);
}

#[test]
fn distributed_gradients_match_finite_differences_of_distributed_potential() {
    // Central finite differences of the *distributed* potential: move
    // one particle by ±h along an axis and re-run the distributed
    // potential pipeline. Because the self-interaction is excluded, the
    // displaced particle's own potential is exactly φ due to all other
    // (unmoved) particles, so (φ⁺ - φ⁻)/2h converges to the gradient
    // the field pipeline reports at that particle. A tight θ keeps the
    // MAC from approximating anything at this scale, so the only error
    // is the O(h²) FD truncation.
    let n = 300;
    let ps = ParticleSet::random_cube(n, 402);
    let params = BltcParams::new(0.1, 2, 1000, 1000);
    let c = cfg(params);
    let ranks = 3;
    let rep = run_distributed_field(&ps, ranks, &c, &Coulomb);
    let h = 1e-5;

    for (pi, axis) in [(7usize, 0usize), (120, 1), (288, 2)] {
        let fd = {
            let mut plus = ps.clone();
            let mut minus = ps.clone();
            match axis {
                0 => {
                    plus.x[pi] += h;
                    minus.x[pi] -= h;
                }
                1 => {
                    plus.y[pi] += h;
                    minus.y[pi] -= h;
                }
                _ => {
                    plus.z[pi] += h;
                    minus.z[pi] -= h;
                }
            }
            let fp = run_distributed(&plus, ranks, &c, &Coulomb).potentials[pi];
            let fm = run_distributed(&minus, ranks, &c, &Coulomb).potentials[pi];
            (fp - fm) / (2.0 * h)
        };
        let grad = match axis {
            0 => rep.field.gx[pi],
            1 => rep.field.gy[pi],
            _ => rep.field.gz[pi],
        };
        let scale = grad.abs().max(1.0);
        assert!(
            (fd - grad).abs() / scale < 1e-5,
            "particle {pi} axis {axis}: fd {fd} vs gradient {grad}"
        );
    }
}

#[test]
fn field_runs_are_deterministic() {
    let ps = ParticleSet::random_cube(900, 403);
    let params = BltcParams::new(0.8, 4, 70, 70);
    let a = run_distributed_field(&ps, 3, &cfg(params), &Yukawa::default());
    let b = run_distributed_field(&ps, 3, &cfg(params), &Yukawa::default());
    assert_eq!(a.field.potentials, b.field.potentials);
    assert_eq!(a.field.gx, b.field.gx);
    assert_eq!(a.field.gy, b.field.gy);
    assert_eq!(a.field.gz, b.field.gz);
    assert_eq!(a.total_s, b.total_s);
    assert_eq!(
        a.traffic.total_remote_bytes(),
        b.traffic.total_remote_bytes()
    );
}

#[test]
fn gradient_evaluation_adds_no_unaccounted_rma_bytes() {
    // The latent asymmetry this suite pins down: DistReport::traffic is
    // populated during setup (LET construction) only. The field run
    // must (a) record *identical* traffic to the potential-only run on
    // the same problem, and (b) reconcile the runtime's matrix exactly
    // with the per-rank tallies that drive the modeled comm clock — no
    // RMA byte may escape the phase accounting.
    //
    // Both runs are one rank body with a different op, so at every rank
    // count and under every LET memory budget (retained, a chunked
    // stream, one cluster per chunk) the field run's potentials are the
    // potential run's bit for bit, and each rank built, fetched, held
    // and launched exactly the same things.
    let ps = ParticleSet::random_cube(2500, 404);
    let params = BltcParams::new(0.8, 4, 80, 80);
    for ranks in [1usize, 2, 4, 7] {
        for let_memory_budget in [None, Some(16 * 1024), Some(1)] {
            let c = DistConfig {
                let_memory_budget,
                ..cfg(params)
            };
            let case = format!("{ranks} ranks, budget {let_memory_budget:?}");
            let pot = run_distributed(&ps, ranks, &c, &Coulomb);
            let fld = run_distributed_field(&ps, ranks, &c, &Coulomb);

            // (a) per-pair identical traffic.
            for o in 0..ranks {
                for t in 0..ranks {
                    let (tp, tf) = (pot.traffic.get(o, t), fld.traffic.get(o, t));
                    assert_eq!(tp.bytes, tf.bytes, "{case}: bytes mismatch at ({o},{t})");
                    assert_eq!(
                        tp.messages, tf.messages,
                        "{case}: messages mismatch at ({o},{t})"
                    );
                }
            }

            // (b) each run's runtime matrix and per-rank tallies agree
            // exactly.
            for (reps, traffic) in [(&pot.ranks, &pot.traffic), (&fld.ranks, &fld.traffic)] {
                let tally_bytes: u64 = reps.iter().map(|r| r.let_bytes).sum();
                let tally_msgs: u64 = reps.iter().map(|r| r.let_messages).sum();
                let matrix_bytes = traffic.total_remote_bytes();
                let matrix_msgs: u64 = (0..ranks).map(|o| traffic.remote_messages_from(o)).sum();
                assert_eq!(tally_bytes, matrix_bytes, "{case}: unaccounted RMA bytes");
                assert_eq!(tally_msgs, matrix_msgs, "{case}: unaccounted RMA messages");
            }

            // (c) same bits, same LET, same launches.
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&pot.potentials), bits(&fld.field.potentials), "{case}");
            for (p, f) in pot.ranks.iter().zip(&fld.ranks) {
                let case = format!("{case}, rank {}", p.rank);
                assert_eq!(p.let_stats, f.let_stats, "{case}");
                assert_eq!(p.peak_let_bytes, f.peak_let_bytes, "{case}");
                assert_eq!(
                    p.ops.approx_interactions, f.ops.approx_interactions,
                    "{case}"
                );
                assert_eq!(
                    p.ops.direct_interactions, f.ops.direct_interactions,
                    "{case}"
                );
                assert_eq!(p.ops.kernel_launches, f.ops.kernel_launches, "{case}");
            }
        }
    }
}

#[test]
fn field_phase_totals_are_consistent() {
    // phase_totals_are_consistent, extended to the field report.
    let ps = ParticleSet::random_cube(2000, 405);
    let params = BltcParams::new(0.8, 4, 80, 80);
    let rep = run_distributed_field(&ps, 3, &cfg(params), &Yukawa::default());
    for r in &rep.ranks {
        let total = r.total();
        assert!(total >= r.setup_total());
        assert!(total >= r.precompute_s);
        assert!(total >= r.compute_s);
        assert!(
            (r.setup_total() + r.precompute_s + r.compute_s - total).abs() < 1e-12,
            "phases must sum to the total"
        );
        // The pipelined critical path can only remove waiting, never
        // add work: it is bounded by the serial sum on every rank.
        assert!(r.pipelined_s() > 0.0);
        assert!(r.pipelined_s() <= total);
    }
    assert!(rep.total_s <= rep.setup_s + rep.precompute_s + rep.compute_s + 1e-12);
    assert!(rep.total_s >= rep.setup_s.max(rep.precompute_s).max(rep.compute_s));
    assert!(rep.pipelined_s > 0.0 && rep.pipelined_s <= rep.total_s);
    assert!(rep.total_ops().num_batches > 0);
}

#[test]
fn field_works_for_all_gradient_kernels() {
    let ps = ParticleSet::random_cube(1500, 406);
    let params = BltcParams::new(0.7, 5, 70, 70);
    let kernels: Vec<Box<dyn GradientKernel>> = vec![
        Box::new(Coulomb),
        Box::new(Yukawa::new(0.5)),
        Box::new(RegularizedCoulomb::new(0.05)),
    ];
    for k in &kernels {
        let rep = run_distributed_field(&ps, 3, &cfg(params), k.as_ref());
        assert_all_finite(&rep);
        let exact = direct_sum_field(&ps, &ps, k.as_ref());
        let err = relative_l2_error(&exact.gx, &rep.field.gx);
        assert!(err < 1e-3, "{}: gx err {err}", k.name());
    }
}
