//! Property-based tests (proptest) over the core data structures and the
//! numerical invariants the algorithm's correctness rests on.

use bltc::core::charges::{compute_charges_from_slices, ClusterCharges};
use bltc::core::interp::barycentric::lagrange_values;
use bltc::core::interp::chebyshev::ChebyshevGrid1D;
use bltc::core::interp::tensor::TensorGrid;
use bltc::core::prelude::*;
use proptest::prelude::*;

fn arb_particles(max_n: usize) -> impl Strategy<Value = ParticleSet> {
    (prop::collection::vec(
        (-1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0),
        2..max_n,
    ),)
        .prop_map(|(rows,)| {
            let mut ps = ParticleSet::with_capacity(rows.len());
            for (x, y, z, q) in rows {
                ps.push(Point3::new(x, y, z), q);
            }
            ps
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Σ_k L_k(x) = 1 for any x in the interval (partition of unity).
    #[test]
    fn basis_partition_of_unity(degree in 1usize..12, x in -1.0f64..1.0) {
        let g = ChebyshevGrid1D::canonical(degree);
        let mut vals = vec![0.0; g.len()];
        lagrange_values(&g, x, &mut vals);
        let sum: f64 = vals.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-10, "sum {} at x={}", sum, x);
    }

    /// Degree-n interpolation reproduces every polynomial of degree ≤ n.
    #[test]
    fn interpolation_reproduces_polynomials(
        degree in 2usize..9,
        c0 in -2.0f64..2.0, c1 in -2.0f64..2.0, c2 in -2.0f64..2.0,
        x in -1.0f64..1.0,
    ) {
        let poly = |t: f64| c0 + c1 * t + c2 * t * t;
        let g = ChebyshevGrid1D::canonical(degree);
        let vals: Vec<f64> = g.nodes().iter().map(|&s| poly(s)).collect();
        let mut basis = vec![0.0; g.len()];
        lagrange_values(&g, x, &mut basis);
        let p: f64 = vals.iter().zip(&basis).map(|(f, l)| f * l).sum();
        prop_assert!((p - poly(x)).abs() < 1e-9, "p={} expect={}", p, poly(x));
    }

    /// The tree partitions particles exactly: every particle in exactly
    /// one leaf, leaves within capacity (unless degenerate), boxes minimal.
    #[test]
    fn tree_partitions_particles(ps in arb_particles(300), cap in 4usize..64) {
        let params = BltcParams::new(0.7, 2, cap, cap);
        let tree = SourceTree::build(&ps, &params);
        let mut covered = vec![0u8; ps.len()];
        for li in (0..tree.num_nodes()).filter(|&i| tree.node(i).is_leaf()) {
            let n = tree.node(li);
            for slot in &mut covered[n.start..n.end] {
                *slot += 1;
            }
        }
        prop_assert!(covered.iter().all(|&c| c == 1));
        // Permutation bijective.
        let mut seen = vec![false; ps.len()];
        for &o in tree.perm() { prop_assert!(!seen[o]); seen[o] = true; }
    }

    /// Modified charges conserve total charge: Σ_k q̂_k = Σ_j q_j.
    #[test]
    fn modified_charges_conserve_charge(ps in arb_particles(200), degree in 1usize..7) {
        let params = BltcParams::new(0.7, degree, 1000, 1000);
        let tree = SourceTree::build(&ps, &params);
        let cc = ClusterCharges::compute_all(&tree, degree);
        let total: f64 = cc.charges(0).iter().sum();
        let direct: f64 = ps.total_charge();
        prop_assert!((total - direct).abs() < 1e-8 * (1.0 + direct.abs()) * ps.len() as f64,
            "Σq̂={} Σq={}", total, direct);
    }

    /// All interaction lists cover all sources exactly once per batch,
    /// for random particle sets and parameters.
    #[test]
    fn interaction_lists_cover(
        ps in arb_particles(400),
        theta in 0.3f64..0.95,
        degree in 1usize..5,
        cap in 8usize..64,
    ) {
        use bltc::core::traversal::InteractionLists;
        let params = BltcParams::new(theta, degree, cap, cap);
        let tree = SourceTree::build(&ps, &params);
        let batches = TargetBatches::build(&ps, &params);
        let lists = InteractionLists::build(&batches, &tree, &params);
        for bl in &lists.per_batch {
            let mut covered = vec![0u8; ps.len()];
            for &ci in bl.approx.iter().chain(&bl.direct) {
                let c = tree.node(ci as usize);
                for slot in &mut covered[c.start..c.end] { *slot += 1; }
            }
            prop_assert!(covered.iter().all(|&c| c == 1));
        }
    }

    /// RCB: parts disjoint, covering, balanced within one per part.
    #[test]
    fn rcb_balance(ps in arb_particles(500), k in 1usize..9) {
        let part = bltc::rcb_partition::rcb_partition(&ps, k, None);
        let total: usize = (0..k).map(|p| part.part_size(p)).sum();
        prop_assert_eq!(total, ps.len());
        if ps.len() >= k {
            let (max, min) = part.balance();
            prop_assert!(max - min <= k, "imbalance {}..{}", min, max);
        }
    }

    /// Serial and parallel engines agree bitwise on arbitrary inputs.
    #[test]
    fn engines_agree(ps in arb_particles(250), theta in 0.4f64..0.9, degree in 1usize..5) {
        let params = BltcParams::new(theta, degree, 32, 32);
        let s = SerialEngine::new(params).compute(&ps, &ps, &Coulomb);
        let p = ParallelEngine::new(params).compute(&ps, &ps, &Coulomb);
        prop_assert_eq!(s.potentials, p.potentials);
    }

    /// The cluster proxy representation approximates the far field: for a
    /// target far outside the cloud, proxy sum ≈ direct sum.
    #[test]
    fn proxy_far_field_accuracy(ps in arb_particles(150), dir in 0usize..6) {
        let degree = 8;
        let params = BltcParams::new(0.7, degree, 10_000, 10_000);
        let tree = SourceTree::build(&ps, &params);
        let grid = TensorGrid::new(degree, &tree.node(0).bbox);
        let (xs, ys, zs, qs) = tree.node_particles(0);
        let qhat = compute_charges_from_slices(&grid, xs, ys, zs, qs);
        let d = 6.0;
        let target = match dir {
            0 => Point3::new(d, 0.0, 0.0),
            1 => Point3::new(-d, 0.0, 0.0),
            2 => Point3::new(0.0, d, 0.0),
            3 => Point3::new(0.0, -d, 0.0),
            4 => Point3::new(0.0, 0.0, d),
            _ => Point3::new(0.0, 0.0, -d),
        };
        let kernel = Coulomb;
        let exact: f64 = (0..xs.len())
            .map(|j| kernel.eval(target.x - xs[j], target.y - ys[j], target.z - zs[j]) * qs[j])
            .sum();
        let approx: f64 = (0..grid.len())
            .map(|k| {
                let s = grid.point_linear(k);
                kernel.eval(target.x - s.x, target.y - s.y, target.z - s.z) * qhat[k]
            })
            .sum();
        // Absolute tolerance scaled by the charge magnitude (exact can be
        // near zero for balanced charges).
        let scale: f64 = qs.iter().map(|q| q.abs()).sum::<f64>().max(1e-3) / d;
        prop_assert!(
            (exact - approx).abs() < 1e-6 * scale,
            "exact {} approx {}", exact, approx
        );
    }
}

// Distributed-field invariants run real SPMD rank threads per case, so
// they get a smaller case budget than the in-process properties above.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `run_distributed_on` with a gradient kernel is deterministic: two
    /// runs over the same cloud produce bitwise-identical fields, clocks,
    /// and traffic — and LET gradient contributions are never NaN/inf.
    #[test]
    fn distributed_field_deterministic_and_finite(
        ps in arb_particles(60),
        ranks in 1usize..4,
    ) {
        use bltc::dist::{run_distributed_on, DistConfig, PhaseMaxima};
        let ranks = ranks.min(ps.len());
        let cfg = DistConfig::comet(BltcParams::new(0.7, 2, 16, 16));
        let (part, op) = (cfg.partition(&ps, ranks), &Coulomb as &dyn GradientKernel);
        let (a, a_ranks, a_traffic) = run_distributed_on(&ps, &part, &cfg, op);
        let (b, b_ranks, b_traffic) = run_distributed_on(&ps, &part, &cfg, op);
        let (a, b) = (FieldResult::from(a), FieldResult::from(b));
        prop_assert_eq!(&a.potentials, &b.potentials);
        prop_assert_eq!(&a.gx, &b.gx);
        prop_assert_eq!(&a.gy, &b.gy);
        prop_assert_eq!(&a.gz, &b.gz);
        prop_assert_eq!(PhaseMaxima::over(&a_ranks).total_s, PhaseMaxima::over(&b_ranks).total_s);
        prop_assert_eq!(a_traffic.total_remote_bytes(), b_traffic.total_remote_bytes());
        for v in [&a.potentials, &a.gx, &a.gy, &a.gz] {
            prop_assert!(v.iter().all(|x| x.is_finite()), "NaN/inf in field output");
        }
    }

    /// Distributing over more ranks changes the trees but not the
    /// physics: gradients stay within tolerance of the 1-rank result
    /// for random particle clouds.
    #[test]
    fn distributed_field_rank_count_invariant(ps in arb_particles(80), ranks in 2usize..4) {
        use bltc::dist::{run_distributed_on, DistConfig};
        let ranks = ranks.min(ps.len());
        // Tight θ and a shallow tree keep the MAC nearly exact at this
        // scale, so rank-count differences are pure roundoff + a tiny
        // approximation delta.
        let cfg = DistConfig::comet(BltcParams::new(0.4, 4, 16, 16));
        let op: &dyn GradientKernel = &Coulomb;
        let ([_, one @ ..], ..) = run_distributed_on(&ps, &cfg.partition(&ps, 1), &cfg, op);
        let ([_, many @ ..], ..) = run_distributed_on(&ps, &cfg.partition(&ps, ranks), &cfg, op);
        for ((name, a), b) in ["gx", "gy", "gz"].into_iter().zip(&one).zip(&many) {
            let scale = a.iter().fold(1.0f64, |m, v| m.max(v.abs()));
            for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
                prop_assert!(
                    (x - y).abs() <= 1e-3 * scale,
                    "{} diverges at {}: {} vs {} ({} ranks)", name, i, x, y, ranks
                );
            }
        }
    }
}

// A service spec is admitted iff its configs' own rules pass, and those
// rules are every config assert the run can reach: a spec that passes
// `JobSpec::validate` runs solo without panicking, and one that fails is
// refused at the door.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn validated_specs_reach_no_config_assert(
        streams in 0usize..8,
        efficiency in -0.1f64..1.1,
        num_streams in 0usize..8,
        theta in -0.1f64..1.1,
        ranks in 0usize..5,
        gpus_per_node in 0usize..3,
        dt in -0.002f64..0.01,
        checkpoint_every in 0u64..8,
    ) {
        use bltc::service::{Fault, JobSpec, RejectReason, Scenario, ServiceConfig, SimService};
        use bltc::sim::PersistentIntegrator;
        let mut dist = bltc::dist::DistConfig::comet(BltcParams::new(0.7, 2, 16, 16));
        dist.streams = streams;
        dist.spec.efficiency = efficiency;
        dist.spec.num_streams = num_streams;
        dist.params.theta = theta;
        dist.gpus_per_node = gpus_per_node;
        let spec = JobSpec {
            scenario: Scenario::Plummer { a: 1.0, softening: 0.05 },
            n: 40,
            seed: 3,
            ranks,
            steps: 1,
            dt,
            repartition_every: 1,
            dist,
            fault: Fault::None,
            checkpoint_every: Some(checkpoint_every),
            deadline_s: None,
            allow_degraded: false,
        };
        if spec.validate().is_ok() {
            let solo = std::panic::catch_unwind(|| {
                let (state, model) = spec.scenario.build(spec.n, spec.seed);
                PersistentIntegrator::new(spec.sim_config(), &state, &model).step();
            });
            prop_assert!(solo.is_ok(), "a validated spec panicked: {:?}", spec);
        } else {
            let svc = SimService::start(ServiceConfig::with_workers(1));
            let verdict = svc.submit(0, spec);
            prop_assert!(
                matches!(verdict, Err(RejectReason::Invalid(_))),
                "an invalid spec was not refused: {:?}", spec
            );
            svc.shutdown();
        }
    }
}
