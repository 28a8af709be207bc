//! Workload 4: steady-state velocity-Verlet steps of a Plummer sphere
//! on a warm four-rank world (`PersistentIntegrator::step`) — the
//! field (gradient) twin of the LET path, two epochs per step and a
//! migration epoch every fourth.

use std::time::Instant;

use crate::api::{self, ForceModel, SimConfig, SimState, StepReport};
use crate::harness::{
    closed_loop, set_bench_layer, set_end_to_end, ColdSetups, Outcome, RunCfg, Sampler,
    HOST_THREADS, PROBE_REPS, WARMUP_OPS,
};
use crate::spans::Recorder;
use crate::workloads::pot4::set_let_metrics;
use crate::workloads::{mpi_probes, set_mpi_metrics, GpuTotals};
use crate::{stats, sys};

const RANKS: usize = 4;
const REPARTITION_EVERY: u64 = 4;
/// Largest relative energy drift that still counts as correct.
const MAX_DRIFT: f64 = 1e-3;
/// Step count (full size, smoke size) at which the traced pass reads
/// the figures that depend on how far the run got — modeled seconds
/// per step, energy drift, migration and span counts — so that a run
/// of any length reports the same values. A whole number of
/// repartition cycles; every traced pass takes at least this many
/// steps.
const READOUT_STEPS: (usize, usize) = (8, 4);

fn config() -> SimConfig {
    let dist = api::dist_config(api::params(0.7, 5, 150, 150));
    api::sim_config(dist, RANKS, 1e-3, REPARTITION_EVERY)
}

fn scenario(cfg: &RunCfg) -> (SimState, ForceModel) {
    api::plummer_sphere(cfg.size(4_000, 800), 1.0, 0.05, cfg.derive(1))
}

fn step_ok(rep: &StepReport) -> bool {
    rep.total_energy().is_finite()
        && rep.rank_bytes == rep.matrix_bytes
        && rep.repartitioned == rep.step.is_multiple_of(REPARTITION_EVERY)
}

/// Run the workload: the untraced pass, or the traced pass.
pub fn run(cfg: &RunCfg) -> Outcome {
    let sim = config();
    let mut out = Outcome::default();
    if cfg.trace {
        let pool = api::host_pool(HOST_THREADS);
        pool.install(|| traced(cfg, &mut out));
        return out;
    }

    let cold = || {
        let (state, model) = scenario(cfg);
        let pool = api::host_pool(HOST_THREADS);
        let integrator = pool.install(|| {
            let mut integrator = api::integrator_new(sim, &state, &model);
            integrator.step();
            integrator
        });
        (pool, integrator)
    };
    let setups = ColdSetups::before(cold);

    let (state, model) = scenario(cfg);
    let pool = api::host_pool(HOST_THREADS);
    pool.install(|| {
        let mut integrator = api::integrator_new(sim, &state, &model);
        let window = closed_loop(
            cfg.seconds,
            REPARTITION_EVERY as usize,
            || integrator.step(),
            |rep, warmup| {
                if !warmup {
                    out.check(step_ok(&rep), || {
                        format!("step {} broke an invariant", rep.step)
                    });
                }
                usize::from(rep.repartitioned)
            },
        );
        set_end_to_end(&mut out, &window, &[0.75, 0.25], cfg);
        let drift = integrator.report().max_relative_energy_drift();
        out.check_at_most("energy drift", drift, MAX_DRIFT);
    });
    out.set("setup_s", setups.after(cold));
    out
}

fn traced(cfg: &RunCfg, out: &mut Outcome) {
    let sim = config();
    let dist = sim.dist;
    let readout_step = cfg.size(READOUT_STEPS.0, READOUT_STEPS.1) as u64;
    out.set("bench.calib_s", sys::calibration_seconds());

    let mut rec = Recorder::new();
    let (state, model) = rec.time("sim", "scenario_build", || scenario(cfg));
    let kernel = model.kernel_shared();

    // Two integrators from the same state: one stepped plainly, one
    // with the library's tracer attached and a harness span around
    // every step. Alternating them step for step puts both under the
    // same machine conditions, and their states must stay bit-equal.
    let mut bare = rec.time("sim", "integrator_new", || {
        api::integrator_new(sim, &state, &model)
    });
    let mut observed = api::integrator_new(sim, &state, &model);
    let tracer = api::attach_tracer(&mut observed);
    for _ in 0..WARMUP_OPS {
        bare.step();
        observed.step();
    }

    let (mut plain, mut via_spans) = (Sampler::default(), Sampler::default());
    let (mut plain_steps, mut migrating_steps) = (Vec::new(), Vec::new());
    let (mut migrations, mut migrated, mut migration_bytes) = (0u64, 0u64, 0u64);
    let mut readout = None;
    let mut launch_eval = None;
    let mut local = GpuTotals::default();
    let mut imbalance = 0.0;
    let start = Instant::now();
    for iteration in 0.. {
        let rep = plain.time(|| bare.step());
        out.check(step_ok(&rep), || {
            format!("step {} broke an invariant", rep.step)
        });
        let latency = *plain.latencies.last().expect("just timed");
        if rep.repartitioned {
            migrating_steps.push(latency);
        } else {
            plain_steps.push(latency);
        }
        if rep.step <= readout_step && rep.repartitioned {
            migrations += 1;
            migrated += rep.migrated_particles;
            migration_bytes += rep.migration_bytes;
        }

        rec.next_op();
        let rep = via_spans.time(|| {
            let op = rec.begin("bench", "op");
            let rep = rec.time("sim", "step", || observed.step());
            rec.end(op);
            rep
        });
        out.check(step_ok(&rep), || {
            format!("traced step {} broke an invariant", rep.step)
        });
        if rep.step == readout_step {
            readout = Some((
                bare.report().clone(),
                rec.time("trace", "export", || api::export_tracer(&tracer)),
            ));
        } else if rep.step > readout_step {
            api::discard_tracer_spans(&tracer);
        }

        if iteration < PROBE_REPS {
            // Read-only epochs on the bare integrator: none of them
            // moves the trajectory.
            let checkpoint = rec.time("sim", "checkpoint", || bare.checkpoint());
            rec.time("sim", "restore", || {
                api::integrator_restore(sim, &model, &checkpoint)
            });
            rec.time("sim", "snapshot", || bare.snapshot());
            rec.time("sim", "last_field", || bare.last_field());
            rec.time("sim", "integrator_new", || {
                api::integrator_new(sim, &state, &model)
            });

            // The session underneath the integrator, driven directly
            // on the initial positions.
            let ps = &state.particles;
            let mut session = rec.time("dist", "session_launch", || {
                api::field_session_launch(ps, RANKS, &dist)
            });
            let eval = rec.time("dist", "eval_field_epoch", || {
                api::field_session_eval(&mut session, &kernel)
            });
            rec.time("dist", "migrate", || session.migrate());
            rec.time("dist", "snapshot", || session.snapshot());
            launch_eval = Some(eval);

            let part = rec.time("rcb", "partition", || api::partition(&dist, ps, RANKS));
            let (max, min) = part.balance();
            imbalance = max as f64 / min as f64;
            let replay = rec.begin("gpu", "compute_field");
            local = GpuTotals::default();
            for rank_ps in &api::partition_particles(ps, &part) {
                let gpu = api::gpu_compute_field_rank(&dist, rank_ps, &*kernel);
                local.add(
                    gpu.kernel_launches,
                    gpu.ops.kernel_evals(),
                    api::gpu_modeled_seconds(&gpu.sim),
                );
            }
            rec.end(replay);
            mpi_probes(&mut rec, RANKS);
        }
        if start.elapsed().as_secs_f64() >= cfg.seconds && readout.is_some() {
            break;
        }
    }

    // Tracing is deposit-only: same steps, same bits.
    let (bare_state, traced_state) = (bare.snapshot(), observed.snapshot());
    let same = api::digests(&bare_state, &bare.last_field())
        == api::digests(&traced_state, &observed.last_field());
    out.check(same, || {
        "state or field digest differs between the traced and the untraced integrator".into()
    });
    let drift = bare.report().max_relative_energy_drift();
    out.check_at_most("energy drift", drift, MAX_DRIFT);

    set_bench_layer(out, &plain, &via_spans);
    set_mpi_metrics(out, &rec);
    out.set_span_medians(
        &rec,
        &[
            ("sim.scenario_build_s", "sim", "scenario_build"),
            ("sim.integrator_new_s", "sim", "integrator_new"),
            ("sim.checkpoint_s", "sim", "checkpoint"),
            ("sim.restore_s", "sim", "restore"),
            ("sim.snapshot_s", "sim", "snapshot"),
            ("sim.last_field_s", "sim", "last_field"),
            ("dist.session_launch_s", "dist", "session_launch"),
            ("dist.eval_field_epoch_s", "dist", "eval_field_epoch"),
            ("dist.migrate_s", "dist", "migrate"),
            ("dist.snapshot_s", "dist", "snapshot"),
            ("rcb.partition_s", "rcb", "partition"),
            ("gpu.compute_field_s", "gpu", "compute_field"),
            ("trace.export_s", "trace", "export"),
        ],
    );
    out.set("rcb.imbalance_x", imbalance);
    if !plain_steps.is_empty() {
        out.set("sim.step_plain_s", stats::median(&plain_steps));
    }
    if !migrating_steps.is_empty() {
        out.set("sim.step_migrating_s", stats::median(&migrating_steps));
    }
    if migrations > 0 {
        out.set(
            "sim.migrated_per_migration",
            migrated as f64 / migrations as f64,
        );
        out.set(
            "sim.migration_bytes",
            migration_bytes as f64 / migrations as f64,
        );
    }
    out.set(
        "trace.step_overhead_frac",
        via_spans.p50() / plain.p50() - 1.0,
    );

    let (report, (spans, json)) = readout.expect("the loop runs to the read-out step");
    out.set(
        "trace.spans_per_step",
        spans as f64 / report.steps.max(1) as f64,
    );
    out.set("trace.export_bytes", json.len() as f64);
    out.set("bench.accuracy_err", report.max_relative_energy_drift());
    out.set("bench.modeled_op_s", report.seconds_per_step());
    out.set(
        "dist.wall_over_model_x",
        plain.p50() / report.seconds_per_step(),
    );

    let eval = launch_eval.expect("the first iteration probes");
    set_let_metrics(out, &eval.ranks, state.len());
    out.set("dist.modeled_total_s", eval.total_s);
    out.set("dist.modeled_pipelined_s", eval.pipelined_s);
    out.set("dist.modeled_setup_s", eval.setup_s);
    out.set("dist.modeled_precompute_s", eval.precompute_s);
    out.set("dist.modeled_compute_s", eval.compute_s);
    let total_evals: u64 = eval.ranks.iter().map(|r| r.ops.kernel_evals()).sum();
    out.set(
        "dist.remote_eval_share_frac",
        1.0 - local.evals as f64 / total_evals as f64,
    );
    let gpu_s = out.get("gpu.compute_field_s").expect("ran");
    local.set_metrics(out, gpu_s);
    out.spans = rec.spans().to_vec();
}
