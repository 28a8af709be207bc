//! The stack's one recovery loop. The chaos supervisor and the service
//! both run [`run_with_retries`], and each derives its own accounting
//! from the [`FailedAttempt`] records it returns.

use std::panic::{catch_unwind, AssertUnwindSafe};

use bltc_core::field::FieldResult;
use mpi_sim::{panic_message, HangReleased};

use crate::persistent::{Checkpoint, PersistentIntegrator};
use crate::state::SimState;

/// Failed attempt `k` (1-based) charges `BACKOFF_BASE_S · 2^(k-1)`
/// **modeled** seconds before its retry — never slept.
pub const BACKOFF_BASE_S: f64 = 1e-3;

/// How [`run_with_retries`] recovers; the default never retries.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RetryPolicy {
    /// Checkpoint every `k` steps (`None` = never), the last step
    /// excepted; a retry restores the latest. Bitwise invisible.
    pub checkpoint_every: Option<u64>,
    /// Failed attempts that are retried before giving up, each after a
    /// backoff of [`BACKOFF_BASE_S`]` · 2^(k-1)`.
    pub max_retries: u32,
}

impl RetryPolicy {
    /// A cadence of at least one step.
    pub fn validate(&self) -> Result<(), String> {
        if self.checkpoint_every == Some(0) {
            Err("checkpoint cadence must be at least 1 step".into())
        } else {
            Ok(())
        }
    }
}

/// One attempt that died.
#[derive(Debug, Clone, PartialEq)]
pub struct FailedAttempt {
    /// The attempt's number, 1-based.
    pub attempt: u32,
    /// Step of the latest checkpoint when it died, where its retry
    /// resumes (`None`: the retry starts from scratch).
    pub resume_from: Option<u64>,
    /// Backoff charged before its retry; zero once the budget ran out.
    pub backoff_s: f64,
    /// The panic message ([`mpi_sim::panic_message`]).
    pub message: String,
    /// Whether the epoch watchdog resolved a hung rank ([`HangReleased`]).
    pub watchdog: bool,
}

/// A run that finished.
pub struct Recovered {
    /// The live integrator of the attempt that finished.
    pub integrator: PersistentIntegrator,
    /// Its final state, gathered inside the unwind guard.
    pub final_state: SimState,
    /// Its final field, gathered inside the unwind guard.
    pub field: FieldResult,
    /// Every attempt that died before it, in order.
    pub failures: Vec<FailedAttempt>,
}

/// Integrate to step `steps` under `policy`. An attempt is
/// `start(attempt, checkpoint)` — fresh when `checkpoint` is `None`,
/// else restored from it — then `before_step(integrator, attempt,
/// step)` and the step for each remaining step, checkpoints on the
/// cadence, and the final field and state gathers. A panic anywhere in
/// it drops its world and is recorded; the attempt is retried while the
/// budget lasts. `Err` carries every failed attempt.
///
/// # Panics
///
/// With the message of [`RetryPolicy::validate`], before any attempt.
pub fn run_with_retries<S, B>(
    policy: &RetryPolicy,
    steps: u64,
    mut start: S,
    mut before_step: B,
) -> Result<Recovered, Vec<FailedAttempt>>
where
    S: FnMut(u32, Option<&Checkpoint>) -> PersistentIntegrator,
    B: FnMut(&mut PersistentIntegrator, u32, u64),
{
    policy.validate().unwrap_or_else(|e| panic!("{e}"));
    let mut checkpoint: Option<Checkpoint> = None;
    let mut failures = Vec::new();
    loop {
        let attempt = failures.len() as u32 + 1;
        let run = catch_unwind(AssertUnwindSafe(|| {
            let mut integrator = start(attempt, checkpoint.as_ref());
            for s in (integrator.steps() + 1)..=steps {
                before_step(&mut integrator, attempt, s);
                integrator.step();
                if policy.checkpoint_every.is_some_and(|k| s.is_multiple_of(k)) && s < steps {
                    checkpoint = Some(integrator.checkpoint());
                }
            }
            let field = integrator.last_field();
            let final_state = integrator.snapshot();
            (integrator, final_state, field)
        }));
        let payload = match run {
            Ok((integrator, final_state, field)) => {
                return Ok(Recovered {
                    integrator,
                    final_state,
                    field,
                    failures,
                });
            }
            Err(payload) => payload,
        };
        let retry = attempt <= policy.max_retries;
        failures.push(FailedAttempt {
            attempt,
            resume_from: checkpoint.as_ref().map(Checkpoint::step),
            backoff_s: if retry {
                BACKOFF_BASE_S * 2f64.powi(attempt as i32 - 1)
            } else {
                0.0
            },
            message: panic_message(payload.as_ref()),
            watchdog: payload.is::<HangReleased>(),
        });
        if !retry {
            return Err(failures);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrator::SimConfig;
    use crate::scenario::plummer_sphere;
    use bltc_core::config::BltcParams;
    use bltc_dist::DistConfig;

    fn cfg() -> SimConfig {
        SimConfig::new(DistConfig::comet(BltcParams::new(0.8, 3, 24, 24)), 2, 1e-3)
            .with_repartition_every(2)
    }

    #[test]
    fn policy_refuses_a_zero_cadence_and_a_bad_base() {
        assert!(RetryPolicy::default().validate().is_ok());
        let zero = RetryPolicy {
            checkpoint_every: Some(0),
            ..RetryPolicy::default()
        };
        assert!(zero.validate().unwrap_err().contains("checkpoint cadence"));
    }

    #[test]
    fn failures_double_the_backoff_resume_from_the_checkpoint_and_keep_the_bits() {
        let (state, model) = plummer_sphere(48, 1.0, 0.05, 3);
        let start = |_: u32, ck: Option<&Checkpoint>| match ck {
            Some(ck) => PersistentIntegrator::restore(cfg(), &model, ck, None).0,
            None => PersistentIntegrator::new(cfg(), &state, &model),
        };
        let clean = run_with_retries(&RetryPolicy::default(), 3, start, |_, _, _| {}).unwrap();
        assert!(clean.failures.is_empty());

        let policy = RetryPolicy {
            checkpoint_every: Some(1),
            max_retries: 2,
        };
        // Attempts 1 and 2 die entering step 3, after the step-2 checkpoint.
        let out = run_with_retries(&policy, 3, start, |_, attempt, step| {
            assert!(attempt < 3 || step == 3, "attempt 3 resumes at step 3");
            if attempt < 3 && step == 3 {
                panic!("attempt {attempt} dies");
            }
        })
        .unwrap();
        let backoffs: Vec<f64> = out.failures.iter().map(|f| f.backoff_s).collect();
        assert_eq!(backoffs, [1e-3, 2e-3]);
        assert!(out.failures.iter().all(|f| f.resume_from == Some(2)));
        assert_eq!(out.failures[1].message, "attempt 2 dies");
        assert_eq!(out.final_state, clean.final_state);
        assert_eq!(out.field, clean.field);
        assert_eq!(out.integrator.report(), clean.integrator.report());
    }

    #[test]
    fn the_attempt_past_the_budget_charges_no_backoff() {
        let (state, model) = plummer_sphere(48, 1.0, 0.05, 3);
        let policy = RetryPolicy {
            max_retries: 1,
            ..RetryPolicy::default()
        };
        let failures = run_with_retries(
            &policy,
            2,
            |_, _| PersistentIntegrator::new(cfg(), &state, &model),
            |_, _, _| panic!("always"),
        )
        .err()
        .expect("every attempt dies");
        assert_eq!(failures.len(), 2);
        assert_eq!(failures[0].backoff_s, 1e-3);
        assert_eq!(failures[1].backoff_s, 0.0);
        assert!(failures
            .iter()
            .all(|f| f.resume_from.is_none() && !f.watchdog));
    }
}
