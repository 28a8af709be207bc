//! One recovery loop, two doors: the chaos supervisor and the service
//! both run `bltc_sim::run_with_retries`. The same fault stated in each
//! stack's vocabulary must recover the same way and land on the same
//! bits, and a retry policy the loop cannot bill is refused at both
//! doors before any attempt runs.

use std::panic::{catch_unwind, AssertUnwindSafe};

use bltc::chaos::{run_supervised, FaultPlan, SupervisorConfig};
use bltc::core::config::BltcParams;
use bltc::dist::DistConfig;
use bltc::mpi_sim::panic_message;
use bltc::service::{Fault, JobSpec, Scenario, ServiceConfig, SimService};
use bltc::sim::{PersistentIntegrator, RetryPolicy};

fn plummer(n: usize, seed: u64, ranks: usize, steps: u64) -> JobSpec {
    JobSpec {
        scenario: Scenario::Plummer {
            a: 1.0,
            softening: 0.05,
        },
        n,
        seed,
        ranks,
        steps,
        dt: 1e-3,
        repartition_every: 2,
        dist: DistConfig::comet(BltcParams::new(0.8, 3, 40, 40)),
        fault: Fault::None,
        checkpoint_every: None,
        deadline_s: None,
        allow_degraded: false,
    }
}

#[test]
fn the_same_fault_recovers_identically_through_the_service_and_the_supervisor() {
    let spec = plummer(64, 5, 2, 3);
    let cfg = spec.sim_config();
    let (state, model) = spec.scenario.build(spec.n, spec.seed);
    let base = 1e-3;

    // The unfaulted run.
    let mut clean = PersistentIntegrator::new(cfg, &state, &model);
    clean.run(spec.steps as usize);
    let clean_field = clean.last_field();
    let clean_state = clean.snapshot();

    // The service states the fault in steps.
    let mut flaky = spec;
    flaky.fault = Fault::PanicOnceAtStep(2);
    flaky.checkpoint_every = Some(1);
    let svc = SimService::start(ServiceConfig {
        max_retries: 1,
        backoff_base_s: base,
        ..ServiceConfig::with_workers(1)
    });
    let job = svc.submit(1, flaky).unwrap().wait().expect("recovers");
    drop(svc);

    // The supervisor states it in epochs: the epoch at which step 2
    // starts on a fresh attempt that checkpoints every step.
    let mut probe = PersistentIntegrator::new(cfg, &state, &model);
    probe.step();
    probe.checkpoint();
    let epoch = probe.epochs_run();
    drop(probe);
    let opts = SupervisorConfig {
        checkpoint_every: Some(1),
        max_recoveries: 1,
        backoff_base_s: base,
        ..SupervisorConfig::default()
    };
    let plan = FaultPlan::new(spec.ranks).panic_at(epoch, 0);
    let sup = run_supervised(cfg, &state, &model, spec.steps, &plan, &opts).expect("recovers");

    // One retry each, from the step-1 checkpoint, at the same backoff.
    assert_eq!((job.retries, job.recovery.recoveries), (1, 1));
    assert_eq!(sup.recovery.recoveries, 1);
    assert_eq!(sup.recovery.episodes[0].restored_from_step, 1);
    assert_eq!(job.recovery.backoff_s, base);
    assert_eq!(sup.recovery.backoff_s, job.recovery.backoff_s);

    // The same bits as each other and as the unfaulted run.
    assert_eq!(job.final_state, sup.final_state);
    assert_eq!(job.field, sup.field);
    assert_eq!(job.report, sup.report);
    assert_eq!(sup.final_state, clean_state);
    assert_eq!(sup.field, clean_field);
    assert_eq!(&sup.report, clean.report());
}

#[test]
fn a_backoff_base_the_loop_cannot_bill_is_refused_at_both_doors() {
    let spec = plummer(48, 3, 2, 2);
    let (state, model) = spec.scenario.build(spec.n, spec.seed);
    for base in [f64::NAN, -1e-3] {
        let expected = RetryPolicy {
            backoff_base_s: base,
            ..RetryPolicy::default()
        }
        .validate()
        .unwrap_err();

        // The service refuses to start. A NaN base once let a job that
        // overran its deadline through: `spent > deadline` on a NaN is
        // false.
        let service = catch_unwind(AssertUnwindSafe(|| {
            let svc = SimService::start(ServiceConfig {
                max_retries: 1,
                backoff_base_s: base,
                ..ServiceConfig::with_workers(1)
            });
            let mut flaky = spec;
            flaky.fault = Fault::PanicOnceAtStep(1);
            flaky.deadline_s = Some(1e-9);
            svc.submit(1, flaky).unwrap().wait().map(|_| ())
        }));
        let payload = service.expect_err("the service must refuse the policy");
        assert_eq!(panic_message(payload.as_ref()), expected, "base {base}");

        // The supervisor refuses before its first attempt.
        let opts = SupervisorConfig {
            backoff_base_s: base,
            ..SupervisorConfig::default()
        };
        let plan = FaultPlan::new(spec.ranks).panic_at(1, 0);
        let supervised = catch_unwind(AssertUnwindSafe(|| {
            run_supervised(spec.sim_config(), &state, &model, 2, &plan, &opts).map(|_| ())
        }));
        let payload = supervised.expect_err("the supervisor must refuse the policy");
        assert_eq!(panic_message(payload.as_ref()), expected, "base {base}");
    }
}
