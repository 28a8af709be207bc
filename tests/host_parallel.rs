//! The pool determinism contract, asserted across every layer: with
//! the work-stealing host pool at 1, 2, and 7 workers, every result —
//! single-rank engines, field evaluation, the distributed pipeline,
//! whole velocity-Verlet trajectories — must be **bitwise identical**.
//! Output is assembled by index (never by completion order) and every
//! reduction folds in a fixed order, so thread count is purely a
//! wall-clock knob.
//!
//! Plus pool torture: deeply nested joins under every pool size, and
//! panic-in-task propagation through a live distributed run without
//! deadlocking the workers for subsequent work.

use bltc_core::config::BltcParams;
use bltc_core::engine::{direct_sum, ParallelEngine, PreparedTreecode, TreecodeEngine};
use bltc_core::kernel::{Coulomb, Yukawa};
use bltc_core::particles::ParticleSet;
use bltc_dist::{run_distributed_field, DistConfig};
use bltc_sim::{plummer_sphere, PersistentIntegrator, SimConfig};
use proptest::prelude::*;

const POOL_SIZES: [usize; 3] = [1, 2, 7];

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
fn parallel_engine_bitwise_identical_across_pool_sizes() {
    let ps = ParticleSet::random_cube(3000, 77);
    let params = BltcParams::new(0.7, 5, 100, 100);
    let reference = pool(POOL_SIZES[0]).install(|| {
        ParallelEngine::new(params)
            .compute(&ps, &ps, &Yukawa::default())
            .potentials
    });
    for &w in &POOL_SIZES[1..] {
        let got = pool(w).install(|| {
            ParallelEngine::new(params)
                .compute(&ps, &ps, &Yukawa::default())
                .potentials
        });
        assert_eq!(bits(&reference), bits(&got), "{w} workers");
    }
    // And the parallel engine still equals the serial one bitwise.
    let serial = PreparedTreecode::new(&ps, &ps, params)
        .evaluate_serial(&Yukawa::default())
        .0;
    assert_eq!(bits(&reference), bits(&serial), "parallel vs serial");
}

#[test]
fn field_eval_bitwise_identical_across_pool_sizes() {
    let ps = ParticleSet::random_cube(2200, 78);
    let params = BltcParams::new(0.8, 4, 90, 90);
    let eval = || {
        let prep = PreparedTreecode::new(&ps, &ps, params);
        prep.evaluate_field_parallel(&Coulomb)
    };
    let reference = pool(POOL_SIZES[0]).install(eval);
    for &w in &POOL_SIZES[1..] {
        let got = pool(w).install(eval);
        assert_eq!(
            bits(&reference.potentials),
            bits(&got.potentials),
            "{w}: pot"
        );
        assert_eq!(bits(&reference.gx), bits(&got.gx), "{w}: gx");
        assert_eq!(bits(&reference.gy), bits(&got.gy), "{w}: gy");
        assert_eq!(bits(&reference.gz), bits(&got.gz), "{w}: gz");
    }
}

#[test]
fn direct_sum_bitwise_identical_across_pool_sizes() {
    let ps = ParticleSet::random_cube(1500, 79);
    let reference = pool(POOL_SIZES[0]).install(|| direct_sum(&ps, &ps, &Coulomb));
    for &w in &POOL_SIZES[1..] {
        let got = pool(w).install(|| direct_sum(&ps, &ps, &Coulomb));
        assert_eq!(bits(&reference), bits(&got), "{w} workers");
    }
}

#[test]
fn distributed_field_bitwise_identical_across_pool_sizes() {
    // The full pipeline: RCB, per-rank trees/windows, LET traversal,
    // remote eval — rank threads share the installed pool.
    let ps = ParticleSet::random_cube(1800, 80);
    let cfg = DistConfig::comet(BltcParams::new(0.8, 3, 70, 70));
    let run = || run_distributed_field(&ps, 3, &cfg, &Coulomb);
    let reference = pool(POOL_SIZES[0]).install(run);
    for &w in &POOL_SIZES[1..] {
        let got = pool(w).install(run);
        assert_eq!(
            bits(&reference.field.potentials),
            bits(&got.field.potentials),
            "{w}: potentials"
        );
        assert_eq!(bits(&reference.field.gx), bits(&got.field.gx), "{w}: gx");
        // The modeled clocks and traffic must match exactly too: the
        // pool must not leak into the model.
        assert_eq!(
            reference.total_s.to_bits(),
            got.total_s.to_bits(),
            "{w}: clock"
        );
        assert_eq!(
            reference.traffic.total_remote_bytes(),
            got.traffic.total_remote_bytes(),
            "{w}: traffic"
        );
    }
}

#[test]
fn trajectories_bitwise_identical_across_pool_sizes() {
    // Five velocity-Verlet steps on two ranks, with migration epochs at
    // steps 2 and 4: positions and velocities after the run must agree
    // to the bit.
    let run = || {
        let (state, model) = plummer_sphere(160, 1.0, 0.05, 31);
        let cfg = SimConfig::new(DistConfig::comet(BltcParams::new(0.7, 3, 50, 50)), 2, 1e-3)
            .with_repartition_every(2);
        let mut integrator = PersistentIntegrator::new(cfg, &state, &model);
        integrator.run(5);
        integrator.snapshot()
    };
    let reference = pool(POOL_SIZES[0]).install(run);
    for &w in &POOL_SIZES[1..] {
        let got = pool(w).install(run);
        assert_eq!(
            bits(&reference.particles.x),
            bits(&got.particles.x),
            "{w}: x"
        );
        assert_eq!(
            bits(&reference.particles.y),
            bits(&got.particles.y),
            "{w}: y"
        );
        assert_eq!(bits(&reference.vz), bits(&got.vz), "{w}: vz");
        assert_eq!(reference.time.to_bits(), got.time.to_bits(), "{w}: time");
    }
}

#[test]
fn pool_torture_nested_joins_inside_engine_work() {
    // A deep join tree running concurrently with engine evaluations on
    // the same pool: both must complete and agree with references.
    fn tree_sum(lo: u64, hi: u64) -> u64 {
        if hi - lo <= 3 {
            (lo..hi).map(|x| x.wrapping_mul(2654435761)).sum()
        } else {
            let mid = lo + (hi - lo) / 2;
            let (a, b) = rayon::join(|| tree_sum(lo, mid), || tree_sum(mid, hi));
            a.wrapping_add(b)
        }
    }
    let serial: u64 = (0..20_000u64).map(|x| x.wrapping_mul(2654435761)).sum();
    for &w in &POOL_SIZES {
        let p = pool(w);
        let (sum, pot) = p.install(|| {
            rayon::join(
                || tree_sum(0, 20_000),
                || {
                    let ps = ParticleSet::random_cube(800, 81);
                    ParallelEngine::new(BltcParams::new(0.7, 3, 60, 60))
                        .compute(&ps, &ps, &Coulomb)
                        .potentials
                },
            )
        });
        assert_eq!(sum, serial, "{w} workers");
        assert_eq!(pot.len(), 800);
    }
}

#[test]
fn pool_survives_panicking_task_and_keeps_serving() {
    let p = pool(2);
    // A panic inside a parallel map must propagate to the caller...
    let caught = p.install(|| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            use rayon::prelude::*;
            let _: Vec<f64> = (0..256usize)
                .into_par_iter()
                .map(|i| {
                    if i == 200 {
                        panic!("injected task failure");
                    }
                    i as f64
                })
                .collect();
        }))
    });
    assert!(caught.is_err(), "task panic must reach the caller");
    // ...and the same pool must then run a full distributed evaluation
    // without deadlock or corruption.
    let ps = ParticleSet::random_cube(600, 82);
    let cfg = DistConfig::comet(BltcParams::new(0.8, 3, 60, 60));
    let rep = p.install(|| run_distributed_field(&ps, 2, &cfg, &Coulomb));
    assert_eq!(rep.field.potentials.len(), 600);
    assert!(rep.field.potentials.iter().all(|v| v.is_finite()));
}

proptest! {
    /// Random problems: 2-worker and 7-worker runs of the parallel
    /// engine are bitwise identical to the serial path.
    #[test]
    fn prop_engine_bitwise_stable(
        n in 64usize..400,
        theta in 0.5f64..0.9,
        degree in 2usize..5,
        seed in 0u64..1000,
    ) {
        let ps = ParticleSet::random_cube(n, seed);
        let cap = 40;
        let params = BltcParams::new(theta, degree, cap, cap);
        let prep = PreparedTreecode::new(&ps, &ps, params);
        let serial = prep.evaluate_serial(&Coulomb).0;
        for &w in &[2usize, 7] {
            let par = pool(w).install(|| {
                PreparedTreecode::new(&ps, &ps, params).evaluate_parallel(&Coulomb).0
            });
            prop_assert_eq!(bits(&serial), bits(&par));
        }
    }
}
