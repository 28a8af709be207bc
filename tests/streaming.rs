//! Memory-bounded LET streaming is bitwise invisible:
//!
//! - potentials, forces, whole trajectories, and recorded traffic are
//!   bitwise identical whether a rank retains every remote payload or
//!   streams them through a byte budget — at 1/2/4/7 ranks, under 1-
//!   and 4-worker host pools, from an unbounded budget down to the
//!   pathological one-cluster-per-chunk budget of a single byte;
//! - every streaming rank reports `peak_let_bytes ≤ budget` whenever
//!   the budget admits the largest single cluster payload, and the
//!   streamed peak never exceeds the retain-everything footprint;
//! - the invariance holds in the two-level node×GPU hierarchy too;
//! - property-based sweep over random problems and random budgets.

use bltc_core::config::BltcParams;
use bltc_core::kernel::{Coulomb, Yukawa};
use bltc_core::particles::ParticleSet;
use bltc_dist::{run_distributed, run_distributed_field, DistConfig};
use bltc_sim::{plummer_sphere, PersistentIntegrator, SimConfig};
use proptest::prelude::*;

const RANK_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// Budgets under test: retain-everything, effectively unbounded
/// streaming, a tight-but-feasible cap, and the pathological floor that
/// forces one cluster per chunk.
const BUDGETS: [Option<u64>; 4] = [None, Some(u64::MAX), Some(16 * 1024), Some(1)];

fn pool(n: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .expect("pool build")
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn streaming_budgets_are_bitwise_invisible_to_potentials() {
    let ps = ParticleSet::random_cube(1500, 907);
    let params = BltcParams::new(0.8, 3, 70, 70);
    for &ranks in &RANK_COUNTS {
        let mut reference: Option<(Vec<u64>, u64, u64)> = None;
        for &workers in &[1usize, 4] {
            for &budget in &BUDGETS {
                let mut cfg = DistConfig::comet(params);
                cfg.let_memory_budget = budget;
                let rep = pool(workers).install(|| run_distributed(&ps, ranks, &cfg, &Coulomb));
                assert!(rep.pipelined_s > 0.0 && rep.pipelined_s <= rep.total_s);
                for r in &rep.ranks {
                    if let Some(b) = budget {
                        // Some(1) cannot admit a whole cluster, so the
                        // bound only binds for feasible budgets.
                        if b >= 16 * 1024 && b != u64::MAX {
                            assert!(
                                r.peak_let_bytes <= b,
                                "{ranks} ranks: rank {} peak {} > budget {b}",
                                r.rank,
                                r.peak_let_bytes
                            );
                        }
                    }
                }
                let got = (
                    bits(&rep.potentials),
                    rep.traffic.total_remote_messages(),
                    rep.traffic.total_remote_bytes(),
                );
                match &reference {
                    None => reference = Some(got),
                    Some(r) => assert_eq!(
                        r, &got,
                        "{ranks} ranks / {workers} workers / budget {budget:?}"
                    ),
                }
            }
        }
    }
}

#[test]
fn streaming_budgets_are_bitwise_invisible_to_forces() {
    let ps = ParticleSet::random_cube(1100, 908);
    let params = BltcParams::new(0.7, 3, 60, 60);
    for &ranks in &RANK_COUNTS {
        let mut reference: Option<Vec<Vec<u64>>> = None;
        for &workers in &[1usize, 4] {
            for &budget in &BUDGETS {
                let mut cfg = DistConfig::comet(params);
                cfg.let_memory_budget = budget;
                let rep = pool(workers)
                    .install(|| run_distributed_field(&ps, ranks, &cfg, &Yukawa::default()));
                let got = vec![
                    bits(&rep.field.potentials),
                    bits(&rep.field.gx),
                    bits(&rep.field.gy),
                    bits(&rep.field.gz),
                ];
                match &reference {
                    None => reference = Some(got),
                    Some(r) => assert_eq!(
                        r, &got,
                        "{ranks} ranks / {workers} workers / budget {budget:?}"
                    ),
                }
            }
        }
    }
}

#[test]
fn streaming_peak_is_bounded_and_below_the_retained_footprint() {
    let ps = ParticleSet::random_cube(2000, 909);
    let params = BltcParams::new(0.8, 3, 70, 70);
    let budget = 16 * 1024u64;

    let retained = run_distributed(&ps, 4, &DistConfig::comet(params), &Coulomb);
    let mut cfg = DistConfig::comet(params);
    cfg.let_memory_budget = Some(budget);
    let streamed = run_distributed(&ps, 4, &cfg, &Coulomb);

    for (r, s) in retained.ranks.iter().zip(&streamed.ranks) {
        assert!(s.peak_let_bytes > 0, "rank {}: no resident payload", s.rank);
        assert!(
            s.peak_let_bytes <= budget,
            "rank {}: peak {} > budget {budget}",
            s.rank,
            s.peak_let_bytes
        );
        assert!(
            s.peak_let_bytes < r.peak_let_bytes,
            "rank {}: streaming did not shrink the resident footprint \
             ({} !< {})",
            s.rank,
            s.peak_let_bytes,
            r.peak_let_bytes
        );
        // The modeled work is untouched: same fetches, same ops.
        assert_eq!(r.let_stats.fetched_particles, s.let_stats.fetched_particles);
        assert_eq!(r.ops.approx_interactions, s.ops.approx_interactions);
        assert_eq!(r.ops.direct_interactions, s.ops.direct_interactions);
    }
    assert_eq!(bits(&retained.potentials), bits(&streamed.potentials));
    assert_eq!(retained.total_s.to_bits(), streamed.total_s.to_bits());
}

#[test]
fn trajectories_bitwise_identical_across_budgets() {
    // Whole velocity-Verlet trajectories: the streaming budget must be
    // invisible to the dynamics, including across the migration epochs
    // at steps 2 and 4.
    let run = |budget: Option<u64>, workers: usize| {
        pool(workers).install(|| {
            let (state, model) = plummer_sphere(220, 1.0, 0.05, 41);
            let mut dist = DistConfig::comet(BltcParams::new(0.7, 3, 50, 50));
            dist.let_memory_budget = budget;
            let cfg = SimConfig::new(dist, 4, 1e-3).with_repartition_every(2);
            let mut integrator = PersistentIntegrator::new(cfg, &state, &model);
            let reports = integrator.run(5);
            (integrator.snapshot(), reports)
        })
    };
    let (ref_state, ref_reports) = run(None, 1);
    for rep in &ref_reports {
        assert!(rep.pipelined_s > 0.0 && rep.pipelined_s <= rep.total_s);
    }
    for &(budget, workers) in &[
        (Some(16 * 1024u64), 1usize),
        (Some(16 * 1024), 4),
        (Some(1), 4),
        (None, 4),
    ] {
        let (state, _) = run(budget, workers);
        assert_eq!(
            bits(&ref_state.particles.x),
            bits(&state.particles.x),
            "budget {budget:?} / {workers} workers: x"
        );
        assert_eq!(
            bits(&ref_state.vz),
            bits(&state.vz),
            "budget {budget:?} / {workers} workers: vz"
        );
        assert_eq!(ref_state.time.to_bits(), state.time.to_bits());
    }
}

#[test]
fn streaming_is_invisible_inside_the_node_gpu_hierarchy() {
    // 2 nodes × 2 GPUs: the budget sweep must stay bitwise against the
    // hierarchy's own retain-everything run (the hierarchy itself
    // changes the decomposition, so it is its own reference).
    let ps = ParticleSet::random_cube(1200, 910);
    let params = BltcParams::new(0.8, 3, 60, 60);
    let mut reference: Option<Vec<u64>> = None;
    for &budget in &BUDGETS {
        let mut cfg = DistConfig::comet(params);
        cfg.gpus_per_node = 2;
        cfg.let_memory_budget = budget;
        let rep = run_distributed(&ps, 4, &cfg, &Coulomb);
        match &reference {
            None => reference = Some(bits(&rep.potentials)),
            Some(r) => assert_eq!(r, &bits(&rep.potentials), "budget {budget:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random problems × random feasible budgets: streaming stays
    /// bitwise and respects the peak bound.
    #[test]
    fn prop_streaming_bitwise_and_peak_bounded(
        n in 200usize..700,
        theta in 0.5f64..0.9,
        ranks in 1usize..6,
        budget in 4096u64..200_000,
        seed in 0u64..1000,
    ) {
        let ps = ParticleSet::random_cube(n, seed);
        let params = BltcParams::new(theta, 3, 50, 50);
        let base = DistConfig::comet(params);
        let retained = run_distributed(&ps, ranks, &base, &Coulomb);

        let mut cfg = base;
        cfg.let_memory_budget = Some(budget);
        let streamed = run_distributed(&ps, ranks, &cfg, &Coulomb);

        prop_assert_eq!(bits(&retained.potentials), bits(&streamed.potentials));
        prop_assert_eq!(retained.total_s.to_bits(), streamed.total_s.to_bits());
        for s in &streamed.ranks {
            // 4 KiB always admits the largest single cluster here
            // (degree 3 ⇒ 512 B proxy payloads; leaves ≤ 50 particles
            // ⇒ 1600 B direct payloads).
            prop_assert!(s.peak_let_bytes <= budget,
                "rank {} peak {} > budget {}", s.rank, s.peak_let_bytes, budget);
        }
        prop_assert!(streamed.pipelined_s <= streamed.total_s);
    }
}
