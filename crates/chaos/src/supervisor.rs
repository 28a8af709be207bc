//! The recovery supervisor: a compiled fault plan attached to every
//! attempt of the stack's one recovery loop,
//! [`bltc_sim::run_with_retries`].

use std::sync::Arc;
use std::time::Duration;

use bltc_core::field::FieldResult;
use bltc_sim::{
    run_with_retries, ForceModel, PersistentIntegrator, RetryPolicy, SimConfig, SimReport, SimState,
};
use bltc_trace::{MetricsSnapshot, Phase, Span, Track};

use crate::plan::FaultPlan;

/// Recovery policy for [`run_supervised`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisorConfig {
    /// Checkpoint cadence ([`RetryPolicy::checkpoint_every`]).
    pub checkpoint_every: Option<u64>,
    /// Recovery episodes allowed before giving up.
    pub max_recoveries: u32,
    /// Wall-clock epoch watchdog (see [`mpi_sim::Session::set_deadline`]).
    /// Required when the plan contains hang faults.
    pub epoch_deadline: Option<Duration>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            checkpoint_every: None,
            max_recoveries: 4,
            epoch_deadline: None,
        }
    }
}

/// One recovery episode's deterministic bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryEpisode {
    /// The attempt (1-based) that failed and triggered this recovery.
    pub attempt: u32,
    /// Step the replacement attempt resumed from (0 = from scratch —
    /// no checkpoint existed yet).
    pub restored_from_step: u64,
    /// Modeled backoff charged before the replacement attempt.
    pub backoff_s: f64,
    /// Modeled spawn cost of the replacement world.
    pub respawn_s: f64,
}

/// Deterministic recovery accounting for one supervised run — the side
/// channel that keeps fault overhead **out** of the [`SimReport`] (the
/// report must stay bitwise equal to the unfaulted run's).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryMetrics {
    /// Recovery episodes (failed attempts that were retried).
    pub recoveries: u32,
    /// Times the epoch watchdog resolved a hung rank.
    pub watchdog_fires: u64,
    /// Fault occurrences recorded by the schedule (a transient fault
    /// counts once per retried operation).
    pub faults_seen: u64,
    /// Total modeled backoff, `Σ BACKOFF_BASE_S · 2^(k-1)`
    /// ([`bltc_sim::BACKOFF_BASE_S`]).
    pub backoff_s: f64,
    /// Total modeled replacement-world spawn seconds.
    pub respawn_s: f64,
    /// Mean-time-to-repair total: `backoff_s + respawn_s` — exactly
    /// the sum billed on the `chaos` track's `recovery` spans.
    pub mttr_s: f64,
    /// Total modeled delay of the non-fatal faults (transient retries,
    /// stragglers, degraded links) — exactly the sum billed on the
    /// `chaos` track's fault spans.
    pub chaos_delay_s: f64,
    /// Per-episode breakdown, in order.
    pub episodes: Vec<RecoveryEpisode>,
}

impl RecoveryMetrics {
    /// Render as a deterministic [`MetricsSnapshot`] (the same surface
    /// the service meters export): counters verbatim plus the MTTR
    /// gauges.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot::new()
            .counter("recoveries", self.recoveries as u64)
            .counter("watchdog_fires", self.watchdog_fires)
            .counter("faults_seen", self.faults_seen)
            .gauge("backoff_s", self.backoff_s)
            .gauge("respawn_s", self.respawn_s)
            .gauge("mttr_s", self.mttr_s)
            .gauge("chaos_delay_s", self.chaos_delay_s)
    }
}

/// What a supervised run produced: the exact artifacts of an unfaulted
/// run plus the recovery side channel.
#[derive(Debug, Clone)]
pub struct SupervisedRun {
    /// Final mechanical state — bitwise equal to the unfaulted run's.
    pub final_state: SimState,
    /// Final force evaluation in global order — bitwise equal.
    pub field: FieldResult,
    /// Cumulative run report — bitwise equal (recovery overhead lives
    /// in `recovery`, not here).
    pub report: SimReport,
    /// Recovery accounting.
    pub recovery: RecoveryMetrics,
    /// Fault and recovery events as spans on [`Track::Chaos`]: one span
    /// per recorded [`mpi_sim::ChaosEvent`] (billed at its modeled
    /// delay, rank in [`Span::target`]) followed by one `recovery` span
    /// per episode (billed at backoff + respawn). Summed bills
    /// reconcile exactly against `recovery.chaos_delay_s` and
    /// `recovery.mttr_s`.
    pub chaos_spans: Vec<Span>,
}

/// Why a supervised run gave up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SupervisorError {
    /// The retry budget ran out: `attempts` attempts all died; the last
    /// panic's message is carried along.
    RecoveryBudgetExhausted {
        /// Total attempts made (`max_recoveries + 1`).
        attempts: u32,
        /// The final attempt's panic message.
        message: String,
    },
}

impl std::fmt::Display for SupervisorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SupervisorError::RecoveryBudgetExhausted { attempts, message } => write!(
                f,
                "recovery budget exhausted after {attempts} attempts: {message}"
            ),
        }
    }
}

impl std::error::Error for SupervisorError {}

/// Run `steps` velocity-Verlet steps of `(cfg, state, model)` under
/// `plan` in the recovery loop [`bltc_sim::run_with_retries`]: the
/// plan's schedule is attached to every attempt's world, and a retry
/// restores the latest checkpoint onto a **fresh** world (or restarts
/// from scratch). Fired faults stay spent across attempts, so the
/// replay runs clean past the fault site. Every retried failure is one
/// [`RecoveryEpisode`], whether or not a checkpoint existed.
///
/// On success the returned trajectory, field, and report are bitwise
/// identical to the run whose plan never fired; all fault and recovery
/// overhead is in [`SupervisedRun::recovery`] / `chaos_spans`.
///
/// Epoch numbering is session-local and restarts at zero on every
/// attempt. On a fresh attempt epoch 0 is the launch evaluation, which
/// runs while the integrator is constructed — before the schedule can
/// be attached — so epoch-0 faults only fire on restored attempts
/// (restores skip the launch evaluation).
///
/// # Panics
///
/// Panics if the plan's world size disagrees with `cfg.ranks`, if
/// the plan contains hang faults but `opts.epoch_deadline` is `None`
/// (an unwatched hang would block forever), if `opts.epoch_deadline`
/// is zero (every healthy epoch would die), or with the message of
/// [`RetryPolicy::validate`] or [`SimConfig::validate`]: bad input is
/// refused before any attempt, not retried as if it were a fault.
pub fn run_supervised(
    cfg: SimConfig,
    state: &SimState,
    model: &ForceModel,
    steps: u64,
    plan: &FaultPlan,
    opts: &SupervisorConfig,
) -> Result<SupervisedRun, SupervisorError> {
    assert_eq!(
        plan.ranks(),
        cfg.ranks,
        "fault plan targets {} ranks but the run uses {}",
        plan.ranks(),
        cfg.ranks
    );
    assert!(
        !plan.has_hang() || opts.epoch_deadline.is_some(),
        "fault plan contains hang faults; set SupervisorConfig::epoch_deadline \
         so the watchdog can resolve them"
    );
    assert!(
        opts.epoch_deadline != Some(Duration::ZERO),
        "SupervisorConfig::epoch_deadline must be positive: a zero deadline kills every \
         healthy epoch"
    );
    cfg.validate(state.len()).unwrap_or_else(|e| panic!("{e}"));

    let schedule = plan.compile();
    let start = |_, restore_from: Option<&_>| {
        let mut integ = match restore_from {
            Some(ck) => PersistentIntegrator::restore(cfg, model, ck, None).0,
            None => PersistentIntegrator::new(cfg, state, model),
        };
        integ.field_session().set_chaos(Some(Arc::clone(&schedule)));
        integ.field_session().set_deadline(opts.epoch_deadline);
        integ
    };
    let policy = RetryPolicy {
        checkpoint_every: opts.checkpoint_every,
        max_retries: opts.max_recoveries,
    };
    let run = run_with_retries(&policy, steps, start, |_, _, _| {}).map_err(|failures| {
        let last = failures.last().expect("an exhausted budget has a failure");
        SupervisorError::RecoveryBudgetExhausted {
            attempts: last.attempt,
            message: last.message.clone(),
        }
    })?;

    // The chaos track, laid end to end as a timeline of everything the
    // plan cost: fault events in deterministic (rank-major) order, then
    // one `recovery` episode per failure — all were retried, since the
    // run finished — billed its backoff and a replacement world's spawn.
    let events = schedule.drain_events();
    let respawn = cfg.dist.host.world_spawn_seconds(state.len(), cfg.ranks);
    let mut metrics = RecoveryMetrics::default();
    let mut chaos_spans = Vec::with_capacity(events.len() + run.failures.len());
    let mut cursor = 0.0;
    let mut bill = |name, dur: f64| {
        let span = Span::new(Track::Chaos, name, cursor, cursor + dur);
        cursor += dur;
        span.phase(Phase::Chaos).billed(dur)
    };
    for e in &events {
        chaos_spans.push(bill(e.label, e.delay_s).target(e.rank as u32));
        metrics.faults_seen += 1;
        metrics.chaos_delay_s += e.delay_s;
    }
    for f in &run.failures {
        chaos_spans.push(bill("recovery", f.backoff_s + respawn));
        metrics.recoveries += 1;
        metrics.watchdog_fires += u64::from(f.watchdog);
        metrics.backoff_s += f.backoff_s;
        metrics.respawn_s += respawn;
        metrics.episodes.push(RecoveryEpisode {
            attempt: f.attempt,
            restored_from_step: f.resume_from.unwrap_or(0),
            backoff_s: f.backoff_s,
            respawn_s: respawn,
        });
    }
    metrics.mttr_s = metrics.backoff_s + metrics.respawn_s;

    Ok(SupervisedRun {
        report: run.integrator.report().clone(),
        final_state: run.final_state,
        field: run.field,
        recovery: metrics,
        chaos_spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bltc_core::config::BltcParams;
    use bltc_dist::DistConfig;
    use bltc_sim::scenario::plummer_sphere;
    use bltc_sim::BACKOFF_BASE_S;
    use mpi_sim::panic_message;
    use std::panic::AssertUnwindSafe;

    fn cfg(ranks: usize) -> SimConfig {
        SimConfig::new(
            DistConfig::comet(BltcParams::new(0.8, 3, 24, 24)),
            ranks,
            1e-3,
        )
        .with_repartition_every(2)
    }

    fn assert_bitwise(a: &SupervisedRun, b: &SupervisedRun) {
        assert_eq!(a.final_state, b.final_state, "trajectories diverged");
        assert_eq!(a.field, b.field, "final fields diverged");
        assert_eq!(a.report, b.report, "reports diverged");
    }

    #[test]
    fn empty_plan_is_invisible_and_records_nothing() {
        let (state, model) = plummer_sphere(48, 1.0, 0.05, 11);
        let out = run_supervised(
            cfg(2),
            &state,
            &model,
            3,
            &FaultPlan::new(2),
            &SupervisorConfig::default(),
        )
        .unwrap();
        assert_eq!(out.recovery, RecoveryMetrics::default());
        assert!(out.chaos_spans.is_empty());
        // Identical to a bare integrator run.
        let mut integ = PersistentIntegrator::new(cfg(2), &state, &model);
        for _ in 0..3 {
            integ.step();
        }
        assert_eq!(&out.report, integ.report());
        assert_eq!(out.final_state, integ.snapshot());
    }

    #[test]
    fn panic_recovers_from_checkpoint_bitwise() {
        let (state, model) = plummer_sphere(64, 1.0, 0.05, 7);
        let c = cfg(2);
        let clean = run_supervised(
            c,
            &state,
            &model,
            5,
            &FaultPlan::new(2),
            &SupervisorConfig::default(),
        )
        .unwrap();
        let plan = FaultPlan::new(2).panic_at(9, 1);
        let opts = SupervisorConfig {
            checkpoint_every: Some(2),
            ..SupervisorConfig::default()
        };
        let out = run_supervised(c, &state, &model, 5, &plan, &opts).unwrap();
        assert_bitwise(&out, &clean);
        assert_eq!(out.recovery.recoveries, 1);
        assert_eq!(out.recovery.episodes.len(), 1);
        assert_eq!(
            out.recovery.episodes[0].restored_from_step, 2,
            "epoch 9 falls in step 3; the latest cadence-2 checkpoint is step 2"
        );
        // MTTR reconciles exactly against the modeled clocks.
        let expected_respawn = c.dist.host.world_spawn_seconds(64, 2);
        assert_eq!(out.recovery.backoff_s, BACKOFF_BASE_S);
        assert_eq!(out.recovery.respawn_s, expected_respawn);
        assert_eq!(
            out.recovery.mttr_s,
            out.recovery.backoff_s + out.recovery.respawn_s
        );
        // Span bills reconcile against the metrics.
        let recovery_billed: f64 = out
            .chaos_spans
            .iter()
            .filter(|s| s.name == "recovery")
            .map(|s| s.billed_s)
            .sum();
        assert_eq!(recovery_billed, out.recovery.mttr_s);
        assert!(out
            .chaos_spans
            .iter()
            .all(|s| s.track == Track::Chaos && s.phase == Phase::Chaos));
    }

    #[test]
    fn no_checkpoint_restarts_from_scratch() {
        let (state, model) = plummer_sphere(48, 1.0, 0.05, 3);
        let c = cfg(2);
        let clean = run_supervised(
            c,
            &state,
            &model,
            3,
            &FaultPlan::new(2),
            &SupervisorConfig::default(),
        )
        .unwrap();
        let plan = FaultPlan::new(2).panic_at(5, 0);
        let out =
            run_supervised(c, &state, &model, 3, &plan, &SupervisorConfig::default()).unwrap();
        assert_bitwise(&out, &clean);
        assert_eq!(out.recovery.recoveries, 1);
        assert_eq!(out.recovery.episodes[0].restored_from_step, 0);
    }

    #[test]
    fn hang_resolves_via_watchdog_and_recovers() {
        let (state, model) = plummer_sphere(48, 1.0, 0.05, 5);
        let c = cfg(2);
        let clean = run_supervised(
            c,
            &state,
            &model,
            4,
            &FaultPlan::new(2),
            &SupervisorConfig::default(),
        )
        .unwrap();
        let plan = FaultPlan::new(2).hang_at(4, 1);
        let opts = SupervisorConfig {
            checkpoint_every: Some(1),
            epoch_deadline: Some(Duration::from_millis(150)),
            ..SupervisorConfig::default()
        };
        let out = run_supervised(c, &state, &model, 4, &plan, &opts).unwrap();
        assert_bitwise(&out, &clean);
        assert_eq!(out.recovery.recoveries, 1);
        assert_eq!(out.recovery.watchdog_fires, 1);
    }

    #[test]
    fn hang_without_watchdog_is_rejected_up_front() {
        let (state, model) = plummer_sphere(48, 1.0, 0.05, 5);
        let plan = FaultPlan::new(2).hang_at(0, 0);
        let out = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_supervised(
                cfg(2),
                &state,
                &model,
                1,
                &plan,
                &SupervisorConfig::default(),
            )
        }));
        let payload = out.expect_err("must refuse to run an unwatched hang");
        let msg = panic_message(payload.as_ref());
        assert!(msg.contains("epoch_deadline"), "got: {msg}");
    }

    #[test]
    #[should_panic(expected = "epoch_deadline must be positive")]
    fn zero_deadline_is_rejected_up_front() {
        // A zero deadline used to be armed on every epoch of every
        // attempt and killed healthy worlds until the budget ran out.
        let (state, model) = plummer_sphere(48, 1.0, 0.05, 5);
        let opts = SupervisorConfig {
            epoch_deadline: Some(Duration::ZERO),
            ..SupervisorConfig::default()
        };
        let _ = run_supervised(cfg(2), &state, &model, 1, &FaultPlan::new(2), &opts);
    }

    #[test]
    fn bad_config_is_rejected_up_front() {
        // A config no attempt can run used to be retried as a fault:
        // five recoveries, backoff and respawns, then a budget error.
        let (state, model) = plummer_sphere(48, 1.0, 0.05, 5);
        let plan = FaultPlan::new(2);
        let nan_dt = SimConfig {
            dt: f64::NAN,
            ..cfg(2)
        };
        let mut no_streams = cfg(2);
        no_streams.dist.streams = 0;
        for (bad, expected) in [(nan_dt, "dt must be positive"), (no_streams, "streams")] {
            let out = std::panic::catch_unwind(AssertUnwindSafe(|| {
                run_supervised(bad, &state, &model, 1, &plan, &SupervisorConfig::default())
            }));
            let payload = out.expect_err("a bad config is not a fault to recover from");
            let msg = panic_message(payload.as_ref());
            assert!(msg.contains(expected), "got: {msg}");
        }
    }

    #[test]
    fn exhausted_budget_surfaces_the_last_panic() {
        let (state, model) = plummer_sphere(48, 1.0, 0.05, 5);
        // Epoch 0 is the launch evaluation performed while the integrator
        // is being constructed, before the supervisor can attach the
        // schedule — epoch 1 is the first covered epoch of a fresh run.
        let plan = FaultPlan::new(2).panic_at(1, 1);
        let opts = SupervisorConfig {
            max_recoveries: 0,
            ..SupervisorConfig::default()
        };
        let err = run_supervised(cfg(2), &state, &model, 2, &plan, &opts).unwrap_err();
        match err {
            SupervisorError::RecoveryBudgetExhausted { attempts, message } => {
                assert_eq!(attempts, 1);
                assert!(message.contains("injected panic"), "got: {message}");
            }
        }
    }

    #[test]
    fn observational_faults_cost_metrics_not_results() {
        let (state, model) = plummer_sphere(64, 1.0, 0.05, 13);
        let c = cfg(4);
        let clean = run_supervised(
            c,
            &state,
            &model,
            3,
            &FaultPlan::new(4),
            &SupervisorConfig::default(),
        )
        .unwrap();
        let plan = FaultPlan::new(4)
            .transient_at(2, 1, 3, 1e-4)
            .straggler_at(4, 2, 5e-4)
            .degraded_link_at(2, 0, 0.5, mpi_sim::NetworkSpec::infiniband_fdr());
        let out =
            run_supervised(c, &state, &model, 3, &plan, &SupervisorConfig::default()).unwrap();
        assert_bitwise(&out, &clean);
        assert_eq!(out.recovery.recoveries, 0);
        assert!(out.recovery.faults_seen > 0);
        assert!(out.recovery.chaos_delay_s > 0.0);
        let fault_billed: f64 = out
            .chaos_spans
            .iter()
            .filter(|s| s.name != "recovery")
            .map(|s| s.billed_s)
            .sum();
        assert_eq!(fault_billed, out.recovery.chaos_delay_s);
        // The snapshot surface carries the counters.
        let snap = out.recovery.snapshot();
        let text = snap.render_text();
        assert!(text.contains("counter recoveries = 0"));
        assert!(text.contains("counter faults_seen"));
    }

    #[test]
    fn seeded_plans_all_recover_bitwise() {
        let (state, model) = plummer_sphere(48, 1.0, 0.05, 21);
        let c = cfg(2);
        let clean = run_supervised(
            c,
            &state,
            &model,
            3,
            &FaultPlan::new(2),
            &SupervisorConfig::default(),
        )
        .unwrap();
        for seed in 0..8u64 {
            let plan = FaultPlan::seeded(seed, 2, 10);
            let opts = SupervisorConfig {
                checkpoint_every: Some(1),
                ..SupervisorConfig::default()
            };
            let out = run_supervised(c, &state, &model, 3, &plan, &opts)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_bitwise(&out, &clean);
        }
    }
}
