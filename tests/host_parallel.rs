//! The pool determinism contract, asserted across every layer: with
//! the host pool at 1, 2, and 7 workers, every result — single-rank
//! engines, field evaluation, the distributed pipeline, whole
//! velocity-Verlet trajectories — must be **bitwise identical**.
//! Output is assembled by index (never by completion order) and every
//! reduction folds in a fixed order, so thread count is purely a
//! wall-clock knob.
//!
//! Plus pool torture, with every chunk body perturbed by a seeded
//! stream of yields, spins and sleeps: nested `par_iter` inside rank
//! bodies (through `run_spmd` and `Session` epochs, beside engine
//! work), a panic in one chunk while its siblings run, the owning pool
//! dropped mid-epoch, session spawn/drop churn, and a watchdog-released
//! hang while the pool is busy.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bltc_core::config::BltcParams;
use bltc_core::engine::{direct_sum, ParallelEngine, PreparedTreecode, TreecodeEngine};
use bltc_core::kernel::{Coulomb, GradientKernel, Yukawa};
use bltc_core::particles::ParticleSet;
use bltc_dist::{run_distributed_on, DistConfig, PhaseMaxima};
use bltc_sim::{plummer_sphere, PersistentIntegrator, SimConfig};
use mpi_sim::chaos::{ChaosSchedule, FaultKind, FaultSpec, HangReleased};
use mpi_sim::{run_spmd, Session};
use proptest::prelude::*;
use rayon::prelude::*;

const POOL_SIZES: [usize; 3] = [1, 2, 7];

/// Seeds of the perturbed torture legs. A failing leg prints its seed;
/// adding that seed here replays its chunk-body perturbation.
const SEEDS: [u64; 4] = [1, 0x5eed, 0xdead_beef, 424_242];

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Perturb one chunk body: the seed and the item pick a run-on, a
/// yield, a spin or a sleep of up to 200 µs.
fn jitter(seed: u64, item: usize) {
    let r = splitmix64(seed ^ splitmix64(item as u64));
    match r % 8 {
        0..=3 => {}
        4 | 5 => std::thread::yield_now(),
        6 => (0..(r >> 8) % 2048).for_each(|_| std::hint::spin_loop()),
        _ => std::thread::sleep(Duration::from_micros((r >> 8) % 200)),
    }
}

/// A rank body's host work: a perturbed `par_iter` whose every item
/// makes a nested `par_iter`, folded in index order.
fn nested_rank_work(seed: u64, rank: usize) -> Vec<u64> {
    (0..48usize)
        .into_par_iter()
        .map(|i| {
            jitter(seed, rank * 1000 + i);
            let inner: Vec<u64> = (0..(i % 7 + 1) as u64)
                .into_par_iter()
                .map(|j| j * 31 + i as u64)
                .collect();
            fold(rank, &inner)
        })
        .collect()
}

/// `nested_rank_work`'s serial twin.
fn nested_rank_twin(rank: usize) -> Vec<u64> {
    (0..48usize)
        .map(|i| {
            let inner: Vec<u64> = (0..(i % 7 + 1) as u64).map(|j| j * 31 + i as u64).collect();
            fold(rank, &inner)
        })
        .collect()
}

fn fold(rank: usize, items: &[u64]) -> u64 {
    items.iter().fold(rank as u64, |acc, &v| {
        acc.wrapping_mul(1_000_003).wrapping_add(v)
    })
}

fn assert_twins(results: &[Vec<u64>], ctx: &str) {
    for (rank, got) in results.iter().enumerate() {
        assert_eq!(*got, nested_rank_twin(rank), "rank {rank}: {ctx}");
    }
}

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
    let (part, op) = (cfg.partition(&ps, 3), &Coulomb as &dyn GradientKernel);
    let run = || run_distributed_on(&ps, &part, &cfg, op);
    let ([ref_pot, ref_gx, ..], ref_ranks, ref_traffic) = pool(POOL_SIZES[0]).install(run);
    for &w in &POOL_SIZES[1..] {
        let ([pot, gx, ..], ranks, traffic) = pool(w).install(run);
        assert_eq!(bits(&ref_pot), bits(&pot), "{w}: potentials");
        assert_eq!(bits(&ref_gx), bits(&gx), "{w}: gx");
        // The modeled clocks and traffic must match exactly too: the
        // pool must not leak into the model.
        assert_eq!(
            PhaseMaxima::over(&ref_ranks).total_s.to_bits(),
            PhaseMaxima::over(&ranks).total_s.to_bits(),
            "{w}: clock"
        );
        assert_eq!(
            ref_traffic.total_remote_bytes(),
            traffic.total_remote_bytes(),
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
    // Nested `par_iter` inside three rank bodies runs on the same pool
    // as a `ParallelEngine` evaluation on the driver: both complete,
    // the ranks match their serial twins, and the engine stays bitwise
    // equal to the serial path.
    let ps = ParticleSet::random_cube(800, 81);
    let params = BltcParams::new(0.7, 3, 60, 60);
    let serial = PreparedTreecode::new(&ps, &ps, params)
        .evaluate_serial(&Coulomb)
        .0;
    for seed in SEEDS {
        for &w in &POOL_SIZES {
            let p = pool(w);
            let (ranks, pot) = std::thread::scope(|s| {
                let ranks = s.spawn(|| {
                    p.install(|| run_spmd(3, |comm| nested_rank_work(seed, comm.rank())))
                });
                let pot = p.install(|| ParallelEngine::new(params).compute(&ps, &ps, &Coulomb));
                (ranks.join().expect("rank world"), pot.potentials)
            });
            let ctx = format!("seed {seed:#x}, {w} workers");
            assert_twins(&ranks.results, &ctx);
            assert_eq!(bits(&pot), bits(&serial), "{ctx}");
        }
    }
}

#[test]
fn torture_nested_par_iter_in_rank_bodies_under_seeds() {
    for seed in SEEDS {
        for w in [1, 2] {
            let ctx = format!("seed {seed:#x}, {w} workers");
            let p = pool(w);
            let out = p.install(|| {
                run_spmd(7, |comm| {
                    let v = nested_rank_work(seed, comm.rank());
                    comm.barrier();
                    v
                })
            });
            assert_twins(&out.results, &format!("run_spmd, {ctx}"));
            let mut session = p.install(|| Session::spawn(7));
            for epoch in 0..2 {
                let rep = session.run_epoch(move |comm| {
                    let v = nested_rank_work(seed ^ epoch, comm.rank());
                    comm.barrier();
                    v
                });
                assert_twins(&rep.results, &format!("epoch {epoch}, {ctx}"));
            }
        }
    }
}

#[test]
fn torture_panic_in_one_chunk_while_siblings_run() {
    for seed in SEEDS {
        for w in [2, 7] {
            let ctx = format!("seed {seed:#x}, {w} workers");
            let p = pool(w);
            let caught = p.install(|| {
                catch_unwind(AssertUnwindSafe(|| {
                    run_spmd(4, |comm| {
                        let rank = comm.rank();
                        let v: Vec<u64> = (0..64usize)
                            .into_par_iter()
                            .map(|i| {
                                jitter(seed, i);
                                if rank == 2 && i == 13 {
                                    panic!("chunk panic on rank 2");
                                }
                                i as u64
                            })
                            .collect();
                        comm.barrier();
                        v
                    })
                }))
            });
            let payload = caught.expect_err(&ctx);
            assert_eq!(
                mpi_sim::panic_message(payload.as_ref()),
                "chunk panic on rank 2",
                "{ctx}"
            );
            let out = p.install(|| run_spmd(3, |comm| nested_rank_work(seed, comm.rank())));
            assert_twins(&out.results, &format!("after the panic, {ctx}"));
        }
    }
}

#[test]
fn torture_owning_pool_dropped_mid_epoch() {
    for seed in SEEDS {
        let ctx = format!("seed {seed:#x}");
        let owner = Arc::new(Mutex::new(Some(pool(2))));
        let p = owner.lock().unwrap().clone().expect("owning handle");
        let mut session = p.install(|| Session::spawn(4));
        drop(p);
        // Rank 0 drops the last owning handle after its first round,
        // while the other ranks' calls are in flight on the workers.
        let held = Arc::clone(&owner);
        let rep = session.run_epoch(move |comm| {
            let rounds: Vec<Vec<u64>> = (0..3)
                .map(|round| {
                    if comm.rank() == 0 && round == 1 {
                        drop(held.lock().unwrap().take());
                    }
                    nested_rank_work(seed, comm.rank())
                })
                .collect();
            comm.barrier();
            rounds
        });
        assert!(owner.lock().unwrap().is_none(), "{ctx}");
        for round in 0..3 {
            let per_rank: Vec<Vec<u64>> = rep.results.iter().map(|r| r[round].clone()).collect();
            assert_twins(&per_rank, &format!("round {round}, {ctx}"));
        }
        // Later epochs run on the rank threads alone, with the same bits.
        let rep = session.run_epoch(move |comm| nested_rank_work(seed, comm.rank()));
        assert_twins(&rep.results, &format!("after the drop, {ctx}"));
    }
}

#[test]
fn torture_session_spawn_drop_churn() {
    for seed in SEEDS {
        let p = pool(2);
        for k in 0..8u64 {
            let ranks = 1 + (splitmix64(seed ^ k) % 4) as usize;
            let mut session = p.install(|| Session::spawn(ranks));
            if k % 3 != 2 {
                let rep = session.run_epoch(move |comm| nested_rank_work(seed ^ k, comm.rank()));
                assert_twins(&rep.results, &format!("seed {seed:#x}, session {k}"));
            }
        }
    }
}

#[test]
fn torture_watchdog_releases_a_hang_while_the_pool_is_busy() {
    for seed in SEEDS {
        let ctx = format!("seed {seed:#x}");
        let p = pool(2);
        let busy = AtomicBool::new(true);
        std::thread::scope(|s| {
            // A driver-side thread keeps the pool's workers busy.
            s.spawn(|| {
                p.install(|| {
                    while busy.load(Ordering::Relaxed) {
                        assert_twins(&[nested_rank_work(seed, 0)], &ctx);
                    }
                })
            });
            let mut session = p.install(|| Session::spawn(3));
            session.set_chaos(Some(ChaosSchedule::new(
                vec![FaultSpec {
                    epoch: 0,
                    rank: 2,
                    kind: FaultKind::Hang,
                    once: true,
                }],
                3,
            )));
            session.set_deadline(Some(Duration::from_millis(100)));
            let out = catch_unwind(AssertUnwindSafe(|| {
                session.run_epoch(move |comm| {
                    let v = nested_rank_work(seed, comm.rank());
                    comm.barrier();
                    v
                })
            }));
            busy.store(false, Ordering::Relaxed);
            let payload = out.expect_err(&ctx);
            let hang = payload.downcast_ref::<HangReleased>().expect(&ctx);
            assert_eq!((hang.rank, hang.epoch), (2, 0), "{ctx}");
            assert!(session.watchdog_fires() >= 1, "{ctx}");
        });
        let out = p.install(|| run_spmd(3, |comm| nested_rank_work(seed, comm.rank())));
        assert_twins(&out.results, &format!("after the hang, {ctx}"));
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
    let op: &dyn GradientKernel = &Coulomb;
    let ([potentials, ..], ..) =
        p.install(|| run_distributed_on(&ps, &cfg.partition(&ps, 2), &cfg, op));
    assert_eq!(potentials.len(), 600);
    assert!(potentials.iter().all(|v| v.is_finite()));
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
