//! Integration tests of the distributed pipeline spanning mpi-sim, rcb,
//! gpu-sim and the treecode crates.

use bltc::core::prelude::*;
use bltc::dist::{run_distributed, DistConfig};
use bltc::mpi_sim::NetworkSpec;

fn cfg(params: BltcParams) -> DistConfig {
    DistConfig::comet(params)
}

#[test]
fn distributed_handles_nonuniform_particles() {
    let ps = ParticleSet::plummer(3000, 1.0, 300);
    let params = BltcParams::new(0.7, 5, 80, 80);
    let rep = run_distributed(&ps, 4, &cfg(params), &Coulomb);
    let exact = direct_sum(&ps, &ps, &Coulomb);
    let err = relative_l2_error(&exact, &rep.potentials);
    assert!(err < 1e-3, "plummer 4 ranks: {err}");
    // RCB balances counts even for centrally-concentrated clouds.
    let sizes: Vec<usize> = rep.ranks.iter().map(|r| r.n_local).collect();
    let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
    assert!(max - min <= 4, "imbalance {sizes:?}");
}

#[test]
fn odd_rank_counts_work() {
    // Non-power-of-two decompositions (Fig. 2b's six partitions).
    let ps = ParticleSet::random_cube(3000, 301);
    let params = BltcParams::new(0.8, 4, 70, 70);
    for ranks in [3usize, 5, 6, 7] {
        let rep = run_distributed(&ps, ranks, &cfg(params), &Coulomb);
        let exact = direct_sum(&ps, &ps, &Coulomb);
        let err = relative_l2_error(&exact, &rep.potentials);
        assert!(err < 1e-3, "{ranks} ranks: {err}");
        assert_eq!(rep.ranks.len(), ranks);
    }
}

#[test]
fn traffic_grows_with_rank_count() {
    // LET construction is all-to-all: more ranks, more skeleton
    // exchanges (each of bounded size).
    let ps = ParticleSet::random_cube(4000, 302);
    let params = BltcParams::new(0.8, 3, 100, 100);
    let t2 = run_distributed(&ps, 2, &cfg(params), &Coulomb)
        .traffic
        .total_remote_bytes();
    let t8 = run_distributed(&ps, 8, &cfg(params), &Coulomb)
        .traffic
        .total_remote_bytes();
    assert!(t8 > t2, "8-rank traffic {t8} !> 2-rank traffic {t2}");
}

#[test]
fn let_fetches_less_than_full_exchange() {
    // The LET's point: a rank needs O(log N) remote clusters, not every
    // remote particle. Fetched particle+charge volume must be well below
    // the full remote data volume.
    let ps = ParticleSet::random_cube(8000, 303);
    let params = BltcParams::new(0.5, 2, 50, 50);
    let rep = run_distributed(&ps, 4, &cfg(params), &Coulomb);
    for r in &rep.ranks {
        let remote_particles_total = (ps.len() - r.n_local) as u64;
        assert!(
            r.let_stats.fetched_particles < remote_particles_total,
            "rank {} fetched {} of {} remote particles — LET not sparse",
            r.rank,
            r.let_stats.fetched_particles,
            remote_particles_total
        );
    }
}

#[test]
fn slower_network_increases_setup_share() {
    let ps = ParticleSet::random_cube(4000, 304);
    let params = BltcParams::new(0.8, 3, 100, 100);
    let fast = cfg(params);
    let slow = DistConfig {
        net: NetworkSpec {
            name: "10 GbE",
            latency_s: 20e-6,
            bandwidth_gbs: 1.1,
        },
        ..fast
    };
    let rf = run_distributed(&ps, 4, &fast, &Coulomb);
    let rs = run_distributed(&ps, 4, &slow, &Coulomb);
    assert!(
        rs.setup_s > rf.setup_s,
        "slower fabric must inflate setup: {} !> {}",
        rs.setup_s,
        rf.setup_s
    );
    // Results are identical — the network model never touches data.
    assert_eq!(rf.potentials, rs.potentials);
}

#[test]
fn phase_totals_are_consistent() {
    let ps = ParticleSet::random_cube(3000, 305);
    let params = BltcParams::new(0.8, 4, 80, 80);
    let rep = run_distributed(&ps, 3, &cfg(params), &Yukawa::default());
    for r in &rep.ranks {
        let total = r.total();
        assert!(total >= r.setup_total());
        assert!(total >= r.precompute_s);
        assert!(total >= r.compute_s);
        assert!(
            (r.setup_total() + r.precompute_s + r.compute_s - total).abs() < 1e-12,
            "phases must sum to the total"
        );
        // The comm clock runs iff the rank originated RMA traffic, and
        // that traffic is fully visible in the report.
        assert_eq!(r.let_bytes > 0, r.setup_comm_s > 0.0, "rank {}", r.rank);
        assert!(r.let_messages > 0, "multi-rank LET must exchange skeletons");
    }
    // No unaccounted RMA: the runtime's matrix reconciles exactly with
    // the per-rank tallies that drive the modeled comm seconds.
    let tally_bytes: u64 = rep.ranks.iter().map(|r| r.let_bytes).sum();
    assert_eq!(tally_bytes, rep.traffic.total_remote_bytes());
    assert!(rep.total_s <= rep.setup_s + rep.precompute_s + rep.compute_s + 1e-12);
    assert!(rep.total_s >= rep.setup_s.max(rep.precompute_s).max(rep.compute_s));
}

#[test]
fn aggregate_ops_scale_with_problem() {
    let params = BltcParams::new(0.8, 3, 80, 80);
    let small = run_distributed(
        &ParticleSet::random_cube(2000, 306),
        2,
        &cfg(params),
        &Coulomb,
    );
    let large = run_distributed(
        &ParticleSet::random_cube(8000, 306),
        2,
        &cfg(params),
        &Coulomb,
    );
    let ws = small.total_ops().kernel_evals();
    let wl = large.total_ops().kernel_evals();
    assert!(wl > ws * 3, "4x particles should be >3x work: {ws} vs {wl}");
    assert!(
        wl < ws * 16,
        "4x particles should be ≪16x (quadratic) work: {ws} vs {wl}"
    );
}
