//! Per-tenant metering, assembled from the layers that already count:
//! every completed job's [`bltc_sim::SimReport`] carries the drained
//! per-epoch [`mpi_sim::TrafficMatrix`] sums (LET traffic and
//! migration traffic as separate phases) and the modeled phase clocks,
//! so the meter is a fold over reports — it never counts anything
//! itself, which is what makes the reconciliation test exact:
//! `meter.rma_bytes + meter.migration_bytes` equals the sum of the
//! tenant's drained matrices to the last byte.
//!
//! Beyond the plain counters the meter keeps two fixed-bucket
//! [`Histogram`]s — modeled job latency and queue depth at admission —
//! and renders everything as a deterministic
//! [`MetricsSnapshot`] via [`TenantMeter::snapshot`] (counters, derived
//! gauges such as spawn amortization, and the distributions), the
//! text/JSON surface the observability layer exports.

use bltc_sim::SimReport;
use bltc_trace::{Histogram, MetricsSnapshot};

use crate::engine::RecoveryCharge;

/// Modeled job-latency bucket bounds (seconds). Jobs in this stack run
/// from sub-millisecond smoke specs to multi-second campaigns.
const LATENCY_BOUNDS: [f64; 6] = [1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0];

/// Queue-depth-at-admission bucket bounds. `0` = dispatched
/// immediately; the overflow bucket catches pathological backlogs.
const QUEUE_BOUNDS: [f64; 4] = [0.0, 1.0, 3.0, 7.0];

/// Cumulative resource usage of one tenant across all its jobs.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantMeter {
    /// Jobs admitted (immediately or queued).
    pub jobs_admitted: u64,
    /// Jobs completed successfully.
    pub jobs_completed: u64,
    /// Jobs that failed permanently (retry budget exhausted).
    pub jobs_failed: u64,
    /// Submissions rejected at admission.
    pub jobs_rejected: u64,
    /// Velocity-Verlet steps integrated.
    pub steps: u64,
    /// Distributed force evaluations.
    pub force_evals: u64,
    /// One-sided LET messages (drained per-epoch matrix totals).
    pub rma_messages: u64,
    /// One-sided LET bytes.
    pub rma_bytes: u64,
    /// Migration-phase messages (coordinate gathers + delta exchanges).
    pub migration_messages: u64,
    /// Migration-phase bytes.
    pub migration_bytes: u64,
    /// Modeled device seconds: the bulk-synchronous GPU compute phase.
    pub device_seconds: f64,
    /// Modeled end-to-end seconds (host + communication + device).
    pub modeled_seconds: f64,
    /// SPMD worlds spawned for this tenant — cold checkouts of
    /// successful attempts **plus** the worlds consumed by panicked
    /// attempts and checkpoint restores ([`TenantMeter::charge_recovery`]):
    /// a lost world is still a world the tenant caused to spawn.
    pub world_spawns: u64,
    /// Modeled host seconds spent spawning those worlds (same coverage
    /// as `world_spawns`).
    pub spawn_host_s: f64,
    /// Jobs served on a recycled warm world.
    pub world_reuses: u64,
    /// Jobs whose preparation came from the cache.
    pub cache_hits: u64,
    /// Jobs that had to build their preparation.
    pub cache_misses: u64,
    /// Attempts beyond the first across all jobs.
    pub retries: u64,
    /// Attempts that resumed from a driver-held checkpoint instead of
    /// restarting from scratch.
    pub recoveries: u64,
    /// Modeled seconds of recovery overhead: exponential retry backoff
    /// plus lost-attempt/restore spawn time. Never part of any job's
    /// report — recovery overhead is metered, not folded into results.
    pub recovery_s: f64,
    /// Jobs that finished on a smaller world after permanent rank loss
    /// ([`crate::JobOutcome::Degraded`]).
    pub degraded_jobs: u64,
    /// Distribution of modeled end-to-end seconds per completed job.
    pub job_latency: Histogram,
    /// Distribution of queue depth at admission per completed job
    /// (0 = a worker slot was free when the job was submitted).
    pub queue_wait: Histogram,
}

impl Default for TenantMeter {
    fn default() -> Self {
        Self {
            jobs_admitted: 0,
            jobs_completed: 0,
            jobs_failed: 0,
            jobs_rejected: 0,
            steps: 0,
            force_evals: 0,
            rma_messages: 0,
            rma_bytes: 0,
            migration_messages: 0,
            migration_bytes: 0,
            device_seconds: 0.0,
            modeled_seconds: 0.0,
            world_spawns: 0,
            spawn_host_s: 0.0,
            world_reuses: 0,
            cache_hits: 0,
            cache_misses: 0,
            retries: 0,
            recoveries: 0,
            recovery_s: 0.0,
            degraded_jobs: 0,
            job_latency: Histogram::new(&LATENCY_BOUNDS),
            queue_wait: Histogram::new(&QUEUE_BOUNDS),
        }
    }
}

impl TenantMeter {
    /// Fold one completed job's report in. `world_reused` and
    /// `cache_hit` describe how the *successful* attempt was served;
    /// `retries` is the number of failed attempts before it;
    /// `queue_pos` is the queue depth the job was admitted at (0 for
    /// [`crate::Admission::Immediate`]).
    pub fn absorb(
        &mut self,
        report: &SimReport,
        world_reused: bool,
        cache_hit: bool,
        retries: u32,
        queue_pos: usize,
    ) {
        self.jobs_completed += 1;
        self.steps += report.steps;
        self.force_evals += report.force_evals;
        self.rma_messages += report.traffic.total_remote_messages();
        self.rma_bytes += report.traffic.total_remote_bytes();
        self.migration_messages += report.migration_traffic.total_remote_messages();
        self.migration_bytes += report.migration_traffic.total_remote_bytes();
        self.device_seconds += report.compute_s;
        self.modeled_seconds += report.total_s;
        self.world_spawns += report.world_spawns;
        self.spawn_host_s += report.spawn_host_s;
        if world_reused {
            self.world_reuses += 1;
        }
        if cache_hit {
            self.cache_hits += 1;
        } else {
            self.cache_misses += 1;
        }
        self.retries += retries as u64;
        self.job_latency.record(report.total_s);
        self.queue_wait.record(queue_pos as f64);
    }

    /// Charge the recovery overhead of one job, successful or not:
    /// worlds consumed by panicked attempts or checkpoint restores
    /// (spawns a panicked attempt's dying report would otherwise hide),
    /// the deterministic exponential retry backoff, and how many
    /// attempts resumed from a checkpoint.
    pub fn charge_recovery(&mut self, charge: &RecoveryCharge) {
        self.world_spawns += charge.lost_spawns;
        self.spawn_host_s += charge.lost_spawn_host_s;
        self.recovery_s += charge.backoff_s + charge.lost_spawn_host_s;
        self.recoveries += charge.recoveries as u64;
    }

    /// Render this meter as a deterministic [`MetricsSnapshot`]:
    /// counters verbatim, derived gauges (spawn amortization = jobs
    /// per world spawn, mean job latency), and the two distributions.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let amortization = if self.world_spawns > 0 {
            self.jobs_completed as f64 / self.world_spawns as f64
        } else {
            self.jobs_completed as f64
        };
        MetricsSnapshot::new()
            .counter("jobs_admitted", self.jobs_admitted)
            .counter("jobs_completed", self.jobs_completed)
            .counter("jobs_failed", self.jobs_failed)
            .counter("jobs_rejected", self.jobs_rejected)
            .counter("steps", self.steps)
            .counter("force_evals", self.force_evals)
            .counter("rma_messages", self.rma_messages)
            .counter("rma_bytes", self.rma_bytes)
            .counter("migration_messages", self.migration_messages)
            .counter("migration_bytes", self.migration_bytes)
            .counter("world_spawns", self.world_spawns)
            .counter("world_reuses", self.world_reuses)
            .counter("cache_hits", self.cache_hits)
            .counter("cache_misses", self.cache_misses)
            .counter("retries", self.retries)
            .counter("recoveries", self.recoveries)
            .counter("degraded_jobs", self.degraded_jobs)
            .gauge("device_seconds", self.device_seconds)
            .gauge("modeled_seconds", self.modeled_seconds)
            .gauge("spawn_host_s", self.spawn_host_s)
            .gauge("recovery_s", self.recovery_s)
            .gauge("jobs_per_world_spawn", amortization)
            .gauge("mean_job_latency_s", self.job_latency.mean())
            .histogram("job_latency_s", self.job_latency.clone())
            .histogram("queue_depth_at_admission", self.queue_wait.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates_report_totals() {
        let mut r = SimReport::starting(2, 0.0, 1, 0.5);
        r.steps = 3;
        r.force_evals = 4;
        r.compute_s = 0.25;
        r.total_s = 2.0;
        let mut m = TenantMeter::default();
        m.absorb(&r, false, false, 0, 0);
        m.absorb(&r, true, true, 2, 3);
        assert_eq!(m.jobs_completed, 2);
        assert_eq!(m.steps, 6);
        assert_eq!(m.force_evals, 8);
        assert_eq!(m.world_spawns, 2);
        assert_eq!(m.world_reuses, 1);
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.cache_misses, 1);
        assert_eq!(m.retries, 2);
        assert_eq!(m.device_seconds, 0.5);
        assert_eq!(m.modeled_seconds, 4.0);
        assert_eq!(m.job_latency.count(), 2);
        assert_eq!(m.job_latency.sum(), 4.0);
        assert_eq!(m.queue_wait.count(), 2);
        assert_eq!(m.queue_wait.min(), Some(0.0));
        assert_eq!(m.queue_wait.max(), Some(3.0));
    }

    #[test]
    fn recovery_charges_count_lost_worlds_and_backoff() {
        let mut r = SimReport::starting(2, 0.0, 1, 0.5);
        r.spawn_host_s = 0.25;
        let mut m = TenantMeter::default();
        m.absorb(&r, false, false, 1, 0);
        // The successful attempt's spawn came through the report…
        assert_eq!(m.world_spawns, 1);
        assert_eq!(m.spawn_host_s, 0.25);
        // …and the panicked attempt's lost world is charged on top.
        m.charge_recovery(&RecoveryCharge {
            lost_spawns: 1,
            lost_spawn_host_s: 0.25,
            backoff_s: 0.125,
            recoveries: 1,
        });
        assert_eq!(m.world_spawns, 2);
        assert_eq!(m.spawn_host_s, 0.5);
        assert_eq!(m.recoveries, 1);
        assert_eq!(m.recovery_s, 0.375);
        let snap = m.snapshot();
        let text = snap.render_text();
        assert!(text.contains("counter world_spawns = 2"));
        assert!(text.contains("counter recoveries = 1"));
        assert!(text.contains("gauge recovery_s"));
    }

    #[test]
    fn snapshot_exposes_amortization_and_distributions() {
        let mut r = SimReport::starting(2, 0.0, 1, 0.5);
        r.steps = 1;
        r.total_s = 0.5;
        let mut m = TenantMeter {
            jobs_admitted: 3,
            ..TenantMeter::default()
        };
        m.absorb(&r, false, false, 0, 0);
        r.world_spawns = 0;
        m.absorb(&r, true, true, 0, 1);
        m.absorb(&r, true, true, 0, 2);
        let snap = m.snapshot();
        let amort = snap
            .gauges
            .iter()
            .find(|(n, _)| *n == "jobs_per_world_spawn")
            .expect("gauge present")
            .1;
        assert_eq!(amort, 3.0, "3 jobs amortized over 1 spawn");
        assert_eq!(snap.histograms.len(), 2);
        let text = snap.render_text();
        assert!(text.contains("counter jobs_completed = 3"));
        assert!(text.contains("hist job_latency_s: count=3"));
        // Deterministic render: same meter, same bytes.
        assert_eq!(
            snap.to_json().render_compact(),
            m.snapshot().to_json().render_compact()
        );
    }
}
