//! Workload 6: a supervised run that survives two injected rank panics
//! (`run_supervised`): checkpoint every step, restore onto a fresh
//! world, resume — and land on the unfaulted run's bits.

use std::time::Instant;

use crate::api::{self, FaultPlan, ForceModel, SimConfig, SimState, SupervisedRun};
use crate::harness::{
    closed_loop, set_bench_layer, set_end_to_end, ColdSetups, Outcome, RunCfg, Sampler,
    HOST_THREADS, PROBE_REPS,
};
use crate::spans::Recorder;
use crate::sys;

const RANKS: usize = 4;
const STEPS: u64 = 6;
/// Largest relative energy drift that still counts as correct.
const MAX_DRIFT: f64 = 1e-3;

fn config() -> SimConfig {
    let dist = api::dist_config(api::params(0.7, 4, 80, 80));
    api::sim_config(dist, RANKS, 1e-3, 2)
}

fn scenario(cfg: &RunCfg) -> (SimState, ForceModel) {
    api::plummer_sphere(cfg.size(1_200, 300), 1.0, 0.05, cfg.derive(1))
}

/// Two rank panics. With a checkpoint after every step a fresh attempt
/// numbers its epochs 0 (launch evaluation), then kick, [migrate on
/// even steps], evaluate, checkpoint per step. Epoch 3 is step 1's
/// checkpoint: it never completes, so the first recovery restarts from
/// scratch and two evaluations are lost. Epoch 16 of that second
/// attempt is step 5's evaluation: the second recovery restores the
/// step-4 checkpoint and loses next to nothing.
fn plan() -> FaultPlan {
    api::panic_plan(RANKS, &[(3, 1), (16, RANKS - 1)])
}

/// Keep injected panics (the fault itself and the poison unwinds it
/// triggers on peer ranks) off the benchmark's output; anything else
/// still reaches the default hook.
fn silence_injected_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or_default();
        if !api::is_injected_panic(message) {
            default_hook(info);
        }
    }));
}

fn run_ok(run: &Result<SupervisedRun, String>, clean: &SupervisedRun, recoveries: u32) -> bool {
    run.as_ref().is_ok_and(|r| {
        r.recovery.recoveries == recoveries
            && r.final_state == clean.final_state
            && r.field == clean.field
            && r.report == clean.report
    })
}

/// Run the workload: the untraced pass, or the traced pass.
pub fn run(cfg: &RunCfg) -> Outcome {
    silence_injected_panics();
    let sim = config();
    let plan = plan();
    let mut out = Outcome::default();

    let cold = || {
        let (state, model) = scenario(cfg);
        api::plan_compile(&plan);
        let pool = api::host_pool(HOST_THREADS);
        let clean = pool.install(|| {
            api::run_supervised(sim, &state, &model, STEPS, &api::panic_plan(RANKS, &[]))
        });
        (pool, clean)
    };
    let setups = (!cfg.trace).then(|| ColdSetups::before(cold));

    let (state, model) = scenario(cfg);
    let pool = api::host_pool(HOST_THREADS);
    pool.install(|| {
        let no_faults = api::panic_plan(RANKS, &[]);
        let clean = api::run_supervised(sim, &state, &model, STEPS, &no_faults)
            .expect("the clean reference run has nothing to recover from");
        let drift = clean.report.max_relative_energy_drift();
        out.check_at_most("energy drift", drift, MAX_DRIFT);
        let faulted = || api::run_supervised(sim, &state, &model, STEPS, &plan);
        let check = |out: &mut Outcome, run: &Result<SupervisedRun, String>| {
            out.check(run_ok(run, &clean, 2), || match run {
                Ok(r) => format!(
                    "{} recoveries (expected 2), or bits differ from the clean run",
                    r.recovery.recoveries
                ),
                Err(e) => format!("supervised run failed: {e}"),
            });
        };

        if setups.is_some() {
            let window = closed_loop(cfg.seconds, 1, faulted, |run, warmup| {
                if !warmup {
                    check(&mut out, &run);
                }
                0
            });
            set_end_to_end(&mut out, &window, &[1.0], cfg);
            return;
        }

        out.set("bench.calib_s", sys::calibration_seconds());
        out.set("bench.accuracy_err", drift);
        let mut rec = Recorder::new();
        let (mut plain, mut via_spans, mut clean_runs) =
            (Sampler::default(), Sampler::default(), Sampler::default());
        let mut last = None;
        let start = Instant::now();
        for iteration in 0.. {
            let run = plain.time(faulted);
            check(&mut out, &run);

            rec.next_op();
            let run = via_spans.time(|| {
                let op = rec.begin("bench", "op");
                let run = rec.time("chaos", "faulted_run", faulted);
                rec.end(op);
                run
            });
            check(&mut out, &run);
            last = run.ok();

            let run = clean_runs.time(|| {
                rec.time("chaos", "clean_run", || {
                    api::run_supervised(sim, &state, &model, STEPS, &no_faults)
                })
            });
            out.check(run_ok(&run, &clean, 0), || {
                "the unfaulted run recovered, failed or changed its bits".into()
            });

            if iteration < PROBE_REPS {
                rec.time("chaos", "plan_compile", || api::plan_compile(&plan));
                // What one checkpoint and one restore cost at this
                // workload's size.
                let mut integrator = api::integrator_new(sim, &state, &model);
                let checkpoint = rec.time("sim", "checkpoint", || integrator.checkpoint());
                rec.time("sim", "restore", || {
                    api::integrator_restore(sim, &model, &checkpoint)
                });
            }
            if start.elapsed().as_secs_f64() >= cfg.seconds {
                break;
            }
        }

        set_bench_layer(&mut out, &plain, &via_spans);
        out.set_span_medians(
            &rec,
            &[
                ("chaos.clean_run_s", "chaos", "clean_run"),
                ("chaos.faulted_run_s", "chaos", "faulted_run"),
                ("chaos.plan_compile_s", "chaos", "plan_compile"),
                ("sim.checkpoint_s", "sim", "checkpoint"),
                ("sim.restore_s", "sim", "restore"),
            ],
        );
        out.set("chaos.recovery_tax_s", plain.p50() - clean_runs.p50());
        if let Some(run) = last {
            out.set("chaos.recoveries", f64::from(run.recovery.recoveries));
            out.set("chaos.faults_seen", run.recovery.faults_seen as f64);
            out.set("chaos.mttr_modeled_s", run.recovery.mttr_s);
            out.set(
                "bench.modeled_op_s",
                run.report.total_s + run.recovery.mttr_s,
            );
        }
        out.spans = rec.spans().to_vec();
    });
    if let Some(setups) = setups {
        out.set("setup_s", setups.after(cold));
    }
    out
}
