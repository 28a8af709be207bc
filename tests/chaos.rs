//! Tier-1 chaos harness: deterministic fault injection, checkpoint/
//! restart, watchdogs, deadlines, and graceful degradation.
//!
//! The contract under test, at both the supervisor and the service
//! layer: a faulted-then-recovered trajectory is **bitwise identical**
//! to the unfaulted run — faults cost recovery metrics, never bits —
//! and with chaos disabled the whole machinery is bitwise invisible to
//! every existing golden digest.

mod golden;

use std::time::Duration;

use bltc::chaos::{run_supervised, FaultPlan, SupervisorConfig};
use bltc::core::config::BltcParams;
use bltc::core::field::FieldResult;
use bltc::dist::DistConfig;
use bltc::service::{
    Fault, JobError, JobOutcome, JobOutput, JobSpec, Scenario, ServiceConfig, SimService,
};
use bltc::sim::scenario::plummer_sphere;
use bltc::sim::{PersistentIntegrator, SimConfig, SimReport, SimState};
use golden::{GOLDEN_ELECTROLYTE_STATE, GOLDEN_PLUMMER_STATE};
use proptest::prelude::*;

fn dist_cfg() -> DistConfig {
    DistConfig::comet(BltcParams::new(0.8, 3, 40, 40))
}

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
        dist: dist_cfg(),
        fault: Fault::None,
        checkpoint_every: None,
        deadline_s: None,
        allow_degraded: false,
    }
}

fn electrolyte(n: usize, seed: u64, ranks: usize, steps: u64) -> JobSpec {
    JobSpec {
        scenario: Scenario::Electrolyte {
            kappa: 0.5,
            softening: 0.05,
            thermal_speed: 0.1,
        },
        ..plummer(n, seed, ranks, steps)
    }
}

struct SoloRun {
    state: SimState,
    field: FieldResult,
    report: SimReport,
}

fn solo(spec: &JobSpec) -> SoloRun {
    let (state, model) = spec.scenario.build(spec.n, spec.seed);
    let mut integ = PersistentIntegrator::new(spec.sim_config(), &state, &model);
    for _ in 0..spec.steps {
        integ.step();
    }
    let field = integ.last_field();
    let state = integ.snapshot();
    SoloRun {
        state,
        field,
        report: integ.report().clone(),
    }
}

/// Bitwise identity of everything a tenant observes — state, field,
/// and the full report (energies, clocks, per-pair traffic matrices).
/// Valid only when the successful attempt ran on a cold world, so the
/// spawn accounting matches solo exactly.
fn assert_bitwise(out: &JobOutput, reference: &SoloRun) {
    assert_eq!(out.final_state, reference.state, "trajectory diverged");
    assert_eq!(out.field, reference.field, "field diverged");
    assert_eq!(out.report, reference.report, "report diverged");
}

// ---------------------------------------------------------------- (a)

#[test]
fn recovered_runs_equal_unfaulted_at_ranks_2_and_4_for_both_scenarios() {
    // The acceptance matrix: {Plummer, electrolyte} × ranks {2, 4},
    // each panicking once mid-run and recovering from a checkpoint,
    // must land on the unfaulted bits through the service.
    for ranks in [2usize, 4] {
        for scenario in 0..2 {
            let clean = if scenario == 0 {
                plummer(64, 5, ranks, 3)
            } else {
                electrolyte(96, 7, ranks, 3)
            };
            let reference = solo(&clean);
            let mut flaky = clean;
            flaky.fault = Fault::PanicOnceAtStep(2);
            flaky.checkpoint_every = Some(1);

            let svc = SimService::start(ServiceConfig {
                max_retries: 1,
                ..ServiceConfig::with_workers(1)
            });
            let out = svc.submit(1, flaky).unwrap().wait().unwrap_or_else(|e| {
                panic!("scenario {scenario} at {ranks} ranks failed to recover: {e}")
            });
            assert_bitwise(&out, &reference);
            assert_eq!(out.retries, 1, "first attempt panicked");
            assert_eq!(
                out.recovery.recoveries, 1,
                "the retry must restore the step-1 checkpoint, not restart"
            );
            assert_eq!(out.outcome, JobOutcome::Completed);
            drop(svc);
        }
    }
}

#[test]
fn supervisor_recovers_bitwise_at_ranks_2_and_4() {
    // Same matrix through the chaos supervisor (epoch-level fault
    // plans instead of step-level service faults).
    for ranks in [2usize, 4] {
        let (state, model) = plummer_sphere(64, 1.0, 0.05, 11);
        let cfg = SimConfig::new(
            DistConfig::comet(BltcParams::new(0.8, 3, 24, 24)),
            ranks,
            1e-3,
        )
        .with_repartition_every(2);
        let clean = run_supervised(
            cfg,
            &state,
            &model,
            4,
            &FaultPlan::new(ranks),
            &SupervisorConfig::default(),
        )
        .unwrap();
        // The panic is pinned to an epoch and checkpoints are epochs too,
        // so the step it lands in (and the step restored from) moves with
        // the cadence; whatever it is, the recovered bits are the clean
        // run's and the restart point is one the cadence checkpoints.
        let plan = FaultPlan::new(ranks).panic_at(7, ranks - 1);
        for cadence in [None, Some(3), Some(2), Some(1)] {
            let opts = SupervisorConfig {
                checkpoint_every: cadence,
                ..SupervisorConfig::default()
            };
            let out = run_supervised(cfg, &state, &model, 4, &plan, &opts).unwrap();
            assert_eq!(out.final_state, clean.final_state);
            assert_eq!(out.field, clean.field);
            assert_eq!(out.report, clean.report);
            assert_eq!(out.recovery.recoveries, 1, "ranks {ranks}");
            let restored = out.recovery.episodes[0].restored_from_step;
            match cadence {
                None => assert_eq!(restored, 0, "ranks {ranks}: nothing to restore"),
                Some(k) => assert!(
                    restored.is_multiple_of(k) && restored < 4,
                    "ranks {ranks}, cadence {k}: restored from step {restored}"
                ),
            }
        }
    }
}

// ---------------------------------------------------------------- (b)

#[test]
fn hung_rank_resolves_via_watchdog_into_job_error() {
    // A hung rank must become a failed job, not a deadlocked worker:
    // the epoch watchdog poisons the world and the typed HangReleased
    // payload surfaces in the error message.
    let mut hung = plummer(60, 3, 2, 3);
    hung.fault = Fault::HangAtStep(2);
    let svc = SimService::start(ServiceConfig {
        max_retries: 0,
        epoch_watchdog: Duration::from_millis(150),
        ..ServiceConfig::with_workers(1)
    });
    match svc.submit(9, hung).unwrap().wait() {
        Err(JobError::Panicked {
            attempts, message, ..
        }) => {
            assert_eq!(attempts, 1);
            assert!(
                message.contains("resolved by the epoch watchdog"),
                "the typed hang payload must be classified, got: {message}"
            );
        }
        other => panic!("expected Panicked, got {other:?}"),
    }
    let stats = svc.shutdown();
    assert_eq!(stats.jobs_failed, 1);
}

#[test]
fn hung_rank_with_retry_budget_recovers_the_unfaulted_bits() {
    let clean = plummer(60, 3, 2, 3);
    let reference = solo(&clean);
    let mut hung = clean;
    hung.fault = Fault::HangAtStep(2);
    hung.checkpoint_every = Some(1);
    let svc = SimService::start(ServiceConfig {
        max_retries: 1,
        epoch_watchdog: Duration::from_millis(150),
        ..ServiceConfig::with_workers(1)
    });
    let out = svc
        .submit(1, hung)
        .unwrap()
        .wait()
        .expect("watchdog converts the hang, the retry recovers");
    assert_bitwise(&out, &reference);
    assert_eq!(out.retries, 1);
    assert_eq!(out.recovery.recoveries, 1);
    drop(svc);
}

// ---------------------------------------------------------------- (c)

#[test]
fn recovery_metrics_reconcile_against_modeled_clocks() {
    // MTTR is exactly recomputable: per episode, backoff doubles from
    // the base and the respawn is the host model's spawn clock. The
    // supervisor's counters and its chaos-track span bills must both
    // reconcile to ≤ 1e-12.
    let (state, model) = plummer_sphere(64, 1.0, 0.05, 13);
    let ranks = 2;
    let cfg = SimConfig::new(
        DistConfig::comet(BltcParams::new(0.8, 3, 24, 24)),
        ranks,
        1e-3,
    )
    .with_repartition_every(2);
    // Two fatal faults at distinct epochs → two recovery episodes.
    let plan = FaultPlan::new(ranks).panic_at(3, 0).panic_at(7, 1);
    let opts = SupervisorConfig {
        checkpoint_every: Some(1),
        ..SupervisorConfig::default()
    };
    let out = run_supervised(cfg, &state, &model, 4, &plan, &opts).unwrap();
    assert_eq!(out.recovery.recoveries, 2);

    let respawn = cfg.dist.host.world_spawn_seconds(64, ranks);
    let expect_backoff = opts.backoff_base_s * (1.0 + 2.0); // 2^0 + 2^1
    let expect_respawn = 2.0 * respawn;
    assert!((out.recovery.backoff_s - expect_backoff).abs() <= 1e-12);
    assert!((out.recovery.respawn_s - expect_respawn).abs() <= 1e-12);
    assert!((out.recovery.mttr_s - (expect_backoff + expect_respawn)).abs() <= 1e-12);

    // Span bills reconcile against the same clocks.
    let recovery_billed: f64 = out
        .chaos_spans
        .iter()
        .filter(|s| s.name == "recovery")
        .map(|s| s.billed_s)
        .sum();
    assert!((recovery_billed - out.recovery.mttr_s).abs() <= 1e-12);
    let fault_billed: f64 = out
        .chaos_spans
        .iter()
        .filter(|s| s.name != "recovery")
        .map(|s| s.billed_s)
        .sum();
    assert!((fault_billed - out.recovery.chaos_delay_s).abs() <= 1e-12);

    // The metrics surface carries the counters.
    let text = out.recovery.snapshot().render_text();
    assert!(text.contains("counter recoveries = 2"));
    assert!(text.contains("gauge mttr_s"));
}

#[test]
fn service_backoff_and_lost_spawns_are_exactly_recomputable() {
    let mut flaky = plummer(60, 3, 2, 3);
    flaky.fault = Fault::PanicOnceAtStep(2);
    flaky.checkpoint_every = Some(1);
    let cfg = ServiceConfig {
        max_retries: 1,
        ..ServiceConfig::with_workers(1)
    };
    let svc = SimService::start(cfg);
    let out = svc.submit(1, flaky).unwrap().wait().expect("recovers");
    // One failed attempt → one backoff at the base; the retry restored
    // onto a cold world → exactly one lost respawn (the first
    // attempt's spawn lives on inside the checkpoint's report).
    let respawn = flaky.dist.host.world_spawn_seconds(flaky.n, flaky.ranks);
    assert_eq!(out.recovery.backoff_s, cfg.backoff_base_s);
    assert_eq!(out.recovery.lost_spawns, 1);
    assert_eq!(out.recovery.lost_spawn_host_s, respawn);
    let meters = svc.meters();
    assert_eq!(
        meters[&1].recovery_s,
        out.recovery.backoff_s + out.recovery.lost_spawn_host_s
    );
    drop(svc);
}

// ---------------------------------------------------------------- (d)

/// Resilience knobs switched on but never firing must not move a single
/// bit of the two golden 4-rank trajectories.
#[test]
fn chaos_machinery_disabled_is_bitwise_invisible_to_goldens() {
    let mut p = plummer(128, 42, 4, 3);
    let mut e = electrolyte(96, 7, 4, 3);
    for spec in [&mut p, &mut e] {
        spec.checkpoint_every = Some(1); // checkpoints taken, never used
        spec.deadline_s = Some(1e6); // deadline armed, never exceeded
        spec.allow_degraded = true; // degradation allowed, never needed
    }
    let svc = SimService::start(ServiceConfig::with_workers(2));
    let po = svc.submit(1, p).unwrap().wait().expect("runs");
    let eo = svc.submit(2, e).unwrap().wait().expect("runs");
    assert_eq!(po.state_digest, GOLDEN_PLUMMER_STATE);
    assert_eq!(eo.state_digest, GOLDEN_ELECTROLYTE_STATE);
    assert_eq!(po.recovery, Default::default(), "no recovery charged");
    assert_eq!(po.outcome, JobOutcome::Completed);
    drop(svc);
}

// ------------------------------------------- deadline & degradation

#[test]
fn deadline_budget_converts_slow_jobs_into_deterministic_errors() {
    let mut tight = plummer(60, 3, 2, 3);
    tight.deadline_s = Some(1e-9); // no job is this fast
    let svc = SimService::start(ServiceConfig::with_workers(1));
    let spent_first = match svc.submit(1, tight).unwrap().wait() {
        Err(JobError::DeadlineExceeded {
            spent_s,
            deadline_s,
            ..
        }) => {
            assert!(spent_s > deadline_s);
            spent_s
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    };
    // Deterministic: the modeled spend is a pure function of the spec.
    let spent_again = match svc.submit(2, tight).unwrap().wait() {
        Err(JobError::DeadlineExceeded { spent_s, .. }) => spent_s,
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    };
    assert!(
        spent_first >= spent_again,
        "a warm-world rerun can only shave the spawn off the spend"
    );
    let stats = svc.shutdown();
    assert_eq!(stats.jobs_failed, 2);
    assert_eq!(stats.meters[&1].jobs_failed, 1);
}

#[test]
fn permanent_rank_loss_degrades_onto_a_smaller_world() {
    // Every full-world attempt dies; the spec allows degradation, so
    // the job is re-admitted onto ranks-1 with a fresh RCB and its
    // bits equal the same job run solo at the smaller world size.
    let reference = solo(&plummer(90, 13, 2, 3));
    let mut doomed = plummer(90, 13, 3, 3);
    doomed.fault = Fault::RankLossAtStep(2);
    doomed.allow_degraded = true;
    let svc = SimService::start(ServiceConfig {
        max_retries: 1,
        ..ServiceConfig::with_workers(1)
    });
    let out = svc
        .submit(1, doomed)
        .unwrap()
        .wait()
        .expect("degradation must save the job");
    assert_eq!(out.outcome, JobOutcome::Degraded { ranks_lost: 1 });
    assert_eq!(out.retries, 2, "both full-world attempts failed");
    assert_bitwise(&out, &reference);
    let stats = svc.shutdown();
    assert_eq!(stats.jobs_completed, 1);
    assert_eq!(stats.meters[&1].degraded_jobs, 1);

    // Without permission the same job fails permanently.
    let mut fatal = plummer(90, 13, 3, 3);
    fatal.fault = Fault::RankLossAtStep(2);
    let svc = SimService::start(ServiceConfig {
        max_retries: 1,
        ..ServiceConfig::with_workers(1)
    });
    match svc.submit(1, fatal).unwrap().wait() {
        Err(JobError::Panicked { attempts, .. }) => assert_eq!(attempts, 2),
        other => panic!("expected Panicked, got {other:?}"),
    }
    drop(svc);
}

// ------------------------------------------------------ satellite 1

#[test]
fn panicked_attempts_world_spawn_is_charged_to_the_meter() {
    // Regression: a panicked attempt's cold world used to vanish from
    // the tenant's bill because its report died in the unwind. The
    // recovery side channel now carges it: PanicOnceAtStep with no
    // checkpoint burns one world (lost) and the clean retry spawns a
    // second (reported) — the meter must show both.
    let mut flaky = plummer(60, 17, 2, 2);
    flaky.fault = Fault::PanicOnceAtStep(1);
    let svc = SimService::start(ServiceConfig {
        max_retries: 1,
        ..ServiceConfig::with_workers(1)
    });
    let out = svc.submit(4, flaky).unwrap().wait().expect("retry runs");
    assert_eq!(out.retries, 1);
    assert_eq!(out.report.world_spawns, 1, "the retry's own spawn");
    assert_eq!(out.recovery.lost_spawns, 1, "the panicked attempt's");

    let spawn_s = flaky.dist.host.world_spawn_seconds(flaky.n, flaky.ranks);
    let meters = svc.meters();
    let m = &meters[&4];
    assert_eq!(m.world_spawns, 2, "lost + successful spawn both billed");
    assert_eq!(m.spawn_host_s, 2.0 * spawn_s);
    assert_eq!(m.retries, 1);
    assert_eq!(m.recovery_s, out.recovery.backoff_s + spawn_s);
    drop(svc);
}

// ------------------------------------------------------ satellite 3

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random seeded fault plans over ranks {1, 2, 4} × checkpoint
    /// cadences {1, 3, never}: every recovered run's trajectory,
    /// traffic matrices, and energies (all inside the report) must be
    /// bitwise equal to the unfaulted golden run.
    #[test]
    fn seeded_fault_plans_always_recover_the_golden_bits(
        seed in 0u64..512,
        ranks_idx in 0usize..3,
        cadence_idx in 0usize..3,
    ) {
        let ranks = [1usize, 2, 4][ranks_idx];
        let cadence = [Some(1), Some(3), None][cadence_idx];
        let (state, model) = plummer_sphere(48, 1.0, 0.05, 9);
        let cfg = SimConfig::new(
            DistConfig::comet(BltcParams::new(0.8, 3, 24, 24)),
            ranks,
            1e-3,
        )
        .with_repartition_every(2);
        let clean = run_supervised(
            cfg, &state, &model, 3,
            &FaultPlan::new(ranks),
            &SupervisorConfig::default(),
        ).unwrap();
        let plan = FaultPlan::seeded(seed, ranks, 8);
        let opts = SupervisorConfig { checkpoint_every: cadence, ..SupervisorConfig::default() };
        let out = run_supervised(cfg, &state, &model, 3, &plan, &opts)
            .unwrap_or_else(|e| panic!("seed {seed} ranks {ranks}: {e}"));
        prop_assert_eq!(&out.final_state, &clean.final_state);
        prop_assert_eq!(&out.field, &clean.field);
        prop_assert_eq!(&out.report, &clean.report);
    }
}
