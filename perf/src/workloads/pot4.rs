//! Workload 3: one-shot distributed potentials on four ranks
//! (`run_distributed`) over a Plummer cloud — partitioning, world
//! spawn, local trees, LET construction, simulated-GPU evaluation and
//! gather, all paid on every call.

use std::time::Instant;

use crate::api::{self, DistConfig, DistReport, KernelChoice, ParticleSet};
use crate::harness::{
    closed_loop, set_bench_layer, set_end_to_end, ColdSetups, Outcome, RunCfg, Sampler,
    HOST_THREADS, PROBE_REPS,
};
use crate::spans::Recorder;
use crate::sys;
use crate::workloads::{mpi_probes, set_mpi_metrics, GpuTotals};

const RANKS: usize = 4;
const ACCURACY_SAMPLES: usize = 400;
/// Largest relative 2-norm error against direct summation that still
/// counts as correct at θ = 0.7, n = 6.
const TOLERANCE: f64 = 1e-4;

fn config() -> DistConfig {
    api::dist_config(api::params(0.7, 6, 200, 200))
}

fn generate(cfg: &RunCfg) -> ParticleSet {
    api::plummer_cloud(cfg.size(6_000, 1_200), 1.0, cfg.derive(1))
}

/// Run the workload: the untraced pass, or the traced pass.
pub fn run(cfg: &RunCfg) -> Outcome {
    let dist = config();
    let kernel = KernelChoice::Coulomb.kernel();
    let mut out = Outcome::default();

    let cold = || {
        let ps = generate(cfg);
        let pool = api::host_pool(HOST_THREADS);
        let first = pool.install(|| api::run_distributed(&ps, RANKS, &dist, kernel));
        (ps, pool, first)
    };
    let setups = (!cfg.trace).then(|| ColdSetups::before(cold));

    let ps = generate(cfg);
    let pool = api::host_pool(HOST_THREADS);
    pool.install(|| {
        let reference = api::run_distributed(&ps, RANKS, &dist, kernel);
        let check = |out: &mut Outcome, rep: &DistReport| {
            let tallied: u64 = rep.ranks.iter().map(|r| r.let_bytes).sum();
            let ok = rep.potentials == reference.potentials
                && rep.pipelined_s == reference.pipelined_s
                && tallied == rep.traffic.total_remote_bytes();
            out.check(ok, || {
                "potentials, modeled clock or LET byte tally differ from the first op's".into()
            });
        };

        if setups.is_some() {
            let window = closed_loop(
                cfg.seconds,
                1,
                || api::run_distributed(&ps, RANKS, &dist, kernel),
                |rep, warmup| {
                    if !warmup {
                        check(&mut out, &rep);
                    }
                    0
                },
            );
            set_end_to_end(&mut out, &window, &[1.0], cfg);
        } else {
            traced(cfg, &ps, &reference, &mut out, &check);
        }

        let indices = api::sample_indices(ps.len(), ACCURACY_SAMPLES, cfg.derive(3));
        let exact = api::direct_sum_subset(&ps, &indices, &ps, kernel);
        let err = api::sampled_relative_l2_error(&exact, &reference.potentials, &indices);
        out.check_at_most("relative error", err, TOLERANCE);
        if cfg.trace {
            out.set("bench.accuracy_err", err);
        }
    });
    if let Some(setups) = setups {
        out.set("setup_s", setups.after(cold));
    }
    out
}

fn traced(
    cfg: &RunCfg,
    ps: &ParticleSet,
    reference: &DistReport,
    out: &mut Outcome,
    check: &dyn Fn(&mut Outcome, &DistReport),
) {
    let dist = config();
    let kernel = KernelChoice::Coulomb.kernel();
    out.set("bench.calib_s", sys::calibration_seconds());

    let mut rec = Recorder::new();
    let (mut plain, mut via_spans) = (Sampler::default(), Sampler::default());
    let (mut partitioning, mut replays, mut one_rank) =
        (Sampler::default(), Sampler::default(), Sampler::default());
    let mut local = GpuTotals::default();
    let mut imbalance = 0.0;
    let start = Instant::now();
    for iteration in 0.. {
        let rep = plain.time(|| api::run_distributed(ps, RANKS, &dist, kernel));
        check(out, &rep);

        rec.next_op();
        let rep = via_spans.time(|| {
            let op = rec.begin("bench", "op");
            let rep = rec.time("dist", "run_distributed", || {
                api::run_distributed(ps, RANKS, &dist, kernel)
            });
            rec.end(op);
            rep
        });
        check(out, &rep);

        if iteration < PROBE_REPS {
            // The op's parts that can be called from outside, replayed
            // on the same input: the decomposition, then each rank's
            // local evaluation. What is left of the op's CPU time is
            // the distributed layer's own: LET build, remote
            // evaluation, runtime.
            let part = partitioning
                .time(|| rec.time("rcb", "partition", || api::partition(&dist, ps, RANKS)));
            let (max, min) = part.balance();
            imbalance = max as f64 / min as f64;
            let rank_sets = api::partition_particles(ps, &part);
            let replay = rec.begin("gpu", "compute");
            local = GpuTotals::default();
            for rank_ps in &rank_sets {
                let gpu = replays.time(|| api::gpu_compute_rank(&dist, rank_ps, kernel));
                local.add(
                    gpu.kernel_launches,
                    gpu.result.ops.kernel_evals(),
                    api::gpu_modeled_seconds(&gpu.sim),
                );
            }
            rec.end(replay);
            one_rank.time(|| {
                rec.time("dist", "run_1rank", || {
                    api::run_distributed(ps, 1, &dist, kernel)
                })
            });
            mpi_probes(&mut rec, RANKS);
        }
        if start.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }

    set_bench_layer(out, &plain, &via_spans);
    set_mpi_metrics(out, &rec);
    out.set_span_medians(
        &rec,
        &[
            ("dist.run_distributed_s", "dist", "run_distributed"),
            ("dist.run_1rank_s", "dist", "run_1rank"),
            ("rcb.partition_s", "rcb", "partition"),
            ("gpu.compute_s", "gpu", "compute"),
        ],
    );
    out.set("rcb.imbalance_x", imbalance);

    let replay_cpu_per_op = replays.cpu_s / (replays.len() / RANKS) as f64;
    out.set("dist.cpu_s_per_op", plain.cpu_s_per_call());
    // A smoke-sized probe can stay under one CPU tick.
    if one_rank.cpu_s > 0.0 {
        out.set(
            "dist.dist_overhead_x",
            plain.cpu_s_per_call() / one_rank.cpu_s_per_call(),
        );
    }
    out.set(
        "dist.nonlocal_cpu_s",
        plain.cpu_s_per_call() - partitioning.cpu_s_per_call() - replay_cpu_per_op,
    );
    set_let_metrics(out, &reference.ranks, ps.len());
    let total_evals = reference.total_ops().kernel_evals();
    out.set(
        "dist.remote_eval_share_frac",
        1.0 - local.evals as f64 / total_evals as f64,
    );
    out.set("dist.modeled_total_s", reference.total_s);
    out.set("dist.modeled_pipelined_s", reference.pipelined_s);
    out.set("bench.modeled_op_s", reference.pipelined_s);
    out.set("dist.modeled_setup_s", reference.setup_s);
    out.set("dist.modeled_precompute_s", reference.precompute_s);
    out.set("dist.modeled_compute_s", reference.compute_s);
    out.set(
        "dist.wall_over_model_x",
        plain.p50() / reference.pipelined_s,
    );

    let gpu_s = out.get("gpu.compute_s").expect("ran");
    local.set_metrics(out, gpu_s);
    out.spans = rec.spans().to_vec();
}

/// The LET tallies of one distributed evaluation, summed over ranks
/// (peak: the largest rank's).
pub fn set_let_metrics(out: &mut Outcome, ranks: &[api::RankReport], n_global: usize) {
    let sum = |f: &dyn Fn(&api::RankReport) -> u64| ranks.iter().map(f).sum::<u64>() as f64;
    let fetched = sum(&|r| r.let_stats.fetched_particles);
    let remote = sum(&|r| (n_global - r.n_local) as u64);
    out.set("dist.let_bytes", sum(&|r| r.let_bytes));
    out.set("dist.let_messages", sum(&|r| r.let_messages));
    out.set("dist.fetched_particles", fetched);
    out.set("dist.let_fetch_frac", fetched / remote);
    out.set(
        "dist.peak_let_bytes",
        ranks.iter().map(|r| r.peak_let_bytes).max().unwrap_or(0) as f64,
    );
}
