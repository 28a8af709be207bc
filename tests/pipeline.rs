//! Invariants of the pipelined rank epoch (the phase-DAG clock):
//!
//! - `pipelined_s ≤ serial total` on **every** rank, potential and
//!   field paths, at 1/2/4/7 ranks — the critical path can remove
//!   waiting but never add work;
//! - at 1 rank the DAG degenerates to the serial chain (equality);
//! - the stream count and the LET chunk granularity are clock-model
//!   knobs only: potentials, forces, whole trajectories, and traffic
//!   stay bitwise identical across them, under 1- and 4-worker host
//!   pools, across migration epochs;
//! - property-based sweep of the bound over random problems.

use bltc_core::config::BltcParams;
use bltc_core::kernel::{Coulomb, Yukawa};
use bltc_core::particles::ParticleSet;
use bltc_dist::{run_distributed, run_distributed_field, DistConfig};
use bltc_sim::{plummer_sphere, PersistentIntegrator, SimConfig};
use proptest::prelude::*;

const RANK_COUNTS: [usize; 4] = [1, 2, 4, 7];

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
fn pipelined_bounded_by_serial_on_every_rank() {
    let ps = ParticleSet::random_cube(2400, 501);
    let params = BltcParams::new(0.7, 4, 80, 80);
    for &ranks in &RANK_COUNTS {
        let cfg = DistConfig::comet(params);
        let pot = run_distributed(&ps, ranks, &cfg, &Coulomb);
        let fld = run_distributed_field(&ps, ranks, &cfg, &Yukawa::default());
        for r in pot.ranks.iter().chain(fld.ranks.iter()) {
            assert!(
                r.pipelined_s() > 0.0,
                "{ranks} ranks: pipelined clock unset"
            );
            assert!(
                r.pipelined_s() <= r.total(),
                "{ranks} ranks: pipelined {} > serial {}",
                r.pipelined_s(),
                r.total()
            );
        }
        assert!(pot.pipelined_s > 0.0 && pot.pipelined_s <= pot.total_s);
        assert!(fld.pipelined_s > 0.0 && fld.pipelined_s <= fld.total_s);
        if ranks == 1 {
            // No remote work to overlap: the DAG is the serial chain.
            assert!((pot.pipelined_s - pot.total_s).abs() < 1e-12 * pot.total_s);
            assert!((fld.pipelined_s - fld.total_s).abs() < 1e-12 * fld.total_s);
        } else {
            // Remote fetches exist, so some overlap must materialize.
            assert!(pot.pipelined_s < pot.total_s);
        }
    }
}

#[test]
fn streams_and_chunking_are_bitwise_invisible_to_results() {
    // Stream count and LET chunk granularity reshape only the modeled
    // clocks; the evaluation itself — and the recorded traffic — must
    // not move, under either host-pool size.
    let ps = ParticleSet::random_cube(1600, 502);
    let params = BltcParams::new(0.8, 3, 70, 70);
    for &ranks in &RANK_COUNTS {
        let mut reference: Option<(Vec<u64>, u64, u64)> = None;
        for &workers in &[1usize, 4] {
            for &(streams, chunk) in &[(1usize, 32usize), (4, 32), (4, 5), (2, 1)] {
                let mut cfg = DistConfig::comet(params);
                cfg.streams = streams;
                cfg.let_chunk = chunk;
                let rep = pool(workers).install(|| run_distributed(&ps, ranks, &cfg, &Coulomb));
                assert!(rep.pipelined_s <= rep.total_s);
                let got = (
                    bits(&rep.potentials),
                    rep.traffic.total_remote_messages(),
                    rep.traffic.total_remote_bytes(),
                );
                match &reference {
                    None => reference = Some(got),
                    Some(r) => assert_eq!(
                        r, &got,
                        "{ranks} ranks / {workers} workers / {streams} streams / chunk {chunk}"
                    ),
                }
            }
        }
    }
}

#[test]
fn trajectories_bitwise_identical_across_streams_and_chunks() {
    // Whole velocity-Verlet trajectories through the sim layer: the
    // pipelined-epoch knobs must be invisible to the dynamics, across
    // the migration epochs at steps 2 and 4.
    let run = |streams: usize, chunk: usize, workers: usize| {
        pool(workers).install(|| {
            let (state, model) = plummer_sphere(220, 1.0, 0.05, 41);
            let mut dist = DistConfig::comet(BltcParams::new(0.7, 3, 50, 50));
            dist.streams = streams;
            dist.let_chunk = chunk;
            let cfg = SimConfig::new(dist, 4, 1e-3).with_repartition_every(2);
            let mut integrator = PersistentIntegrator::new(cfg, &state, &model);
            let reports = integrator.run(5);
            (integrator.snapshot(), reports)
        })
    };
    let (ref_state, ref_reports) = run(1, 32, 1);
    for rep in &ref_reports {
        assert!(rep.pipelined_s > 0.0 && rep.pipelined_s <= rep.total_s);
    }
    for &(streams, chunk, workers) in &[(4usize, 32usize, 1usize), (4, 7, 4), (1, 32, 4)] {
        let (state, _) = run(streams, chunk, workers);
        assert_eq!(
            bits(&ref_state.particles.x),
            bits(&state.particles.x),
            "{streams} streams / chunk {chunk} / {workers} workers: x"
        );
        assert_eq!(
            bits(&ref_state.vz),
            bits(&state.vz),
            "{streams}/{chunk}: vz"
        );
        assert_eq!(ref_state.time.to_bits(), state.time.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random problems: the pipelined clock respects its bound on
    /// every rank, and chunking stays invisible to the potentials.
    #[test]
    fn prop_pipelined_bounded_and_chunk_invisible(
        n in 200usize..700,
        theta in 0.5f64..0.9,
        ranks in 1usize..6,
        chunk in 1usize..48,
        seed in 0u64..1000,
    ) {
        let ps = ParticleSet::random_cube(n, seed);
        let params = BltcParams::new(theta, 3, 50, 50);
        let base = DistConfig::comet(params);
        let rep = run_distributed(&ps, ranks, &base, &Coulomb);
        for r in &rep.ranks {
            prop_assert!(r.pipelined_s() > 0.0);
            prop_assert!(r.pipelined_s() <= r.total());
        }
        prop_assert!(rep.pipelined_s <= rep.total_s);

        let mut chunked = base;
        chunked.let_chunk = chunk;
        let rep2 = run_distributed(&ps, ranks, &chunked, &Coulomb);
        prop_assert_eq!(bits(&rep.potentials), bits(&rep2.potentials));
        prop_assert!(rep2.pipelined_s <= rep2.total_s);
        prop_assert_eq!(rep.total_s.to_bits(), rep2.total_s.to_bits());
    }
}
