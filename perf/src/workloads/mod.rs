//! The six workloads (`defs::WORKLOADS` names them), and the probes
//! and metric groups more than one of them shares.

use crate::api;
use crate::harness::Outcome;
use crate::spans::Recorder;

pub mod chaos4;
pub mod eval1;
pub mod pot4;
pub mod service;
pub mod vv4;

/// Repetitions of the sub-millisecond runtime probes per call.
const MPI_PROBE_REPS: usize = 8;

/// Time the SPMD runtime's fixed costs with empty rank bodies: a
/// one-shot world, a persistent world's spawn, an epoch's round trip,
/// and a warm checkout from the session pool.
pub fn mpi_probes(rec: &mut Recorder, ranks: usize) {
    rec.time("mpi", "spmd_spawn", || api::spmd_spawn_empty(ranks));
    rec.time("mpi", "session_spawn", || drop(api::session_spawn(ranks)));
    let mut session = api::session_spawn(ranks);
    for _ in 0..MPI_PROBE_REPS {
        rec.time("mpi", "epoch_roundtrip", || {
            api::session_empty_epoch(&mut session)
        });
    }
    let pool = api::session_pool(1);
    pool.checkin(session);
    for _ in 0..MPI_PROBE_REPS {
        rec.time("mpi", "pool_reuse", || {
            let (session, reused) = pool.checkout(ranks);
            assert!(reused, "the parked world has the requested size");
            pool.checkin(session);
        });
    }
    pool.drain();
}

/// The `mpi.*` metrics of [`mpi_probes`].
pub fn set_mpi_metrics(out: &mut Outcome, rec: &Recorder) {
    out.set_span_medians(
        rec,
        &[
            ("mpi.spmd_spawn_s", "mpi", "spmd_spawn"),
            ("mpi.session_spawn_s", "mpi", "session_spawn"),
            ("mpi.epoch_roundtrip_s", "mpi", "epoch_roundtrip"),
            ("mpi.pool_reuse_s", "mpi", "pool_reuse"),
        ],
    );
}

/// One op's local GPU-engine evaluations (one call on the single-rank
/// workloads, one replay per rank on the distributed ones), summed.
#[derive(Debug, Default, Clone, Copy)]
pub struct GpuTotals {
    /// Simulated kernel launches.
    pub launches: u64,
    /// Kernel evaluations.
    pub evals: u64,
    /// Modeled device seconds.
    pub modeled_s: f64,
}

impl GpuTotals {
    /// Add one evaluation's report.
    pub fn add(&mut self, launches: u64, evals: u64, modeled_s: f64) {
        self.launches += launches;
        self.evals += evals;
        self.modeled_s += modeled_s;
    }

    /// The `gpu.*` ratios, given the wall `seconds` the evaluations took.
    pub fn set_metrics(&self, out: &mut Outcome, seconds: f64) {
        out.set("gpu.launches", self.launches as f64);
        out.set(
            "gpu.wall_per_launch_us",
            seconds / self.launches as f64 * 1e6,
        );
        out.set("gpu.pair_rate", self.evals as f64 / seconds);
        out.set("gpu.modeled_s", self.modeled_s);
        out.set("gpu.wall_over_model_x", seconds / self.modeled_s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defs;
    use crate::harness::RunCfg;

    /// Metrics of the traced pass that one seed must reproduce exactly:
    /// counts, bytes, modeled seconds, and ratios of counts.
    fn repeats_exactly(name: &str) -> bool {
        let count_ratios = [
            "bench.accuracy_err",
            "core.approx_share_frac",
            "core.charges_used_frac",
            "dist.let_fetch_frac",
            "dist.remote_eval_share_frac",
            "rcb.imbalance_x",
            "service.cache_hit_frac",
            "service.worlds_reused_frac",
        ];
        let unit = defs::unit_of(name).expect("defined metric");
        name != "bench.samples"
            && (matches!(unit, "count" | "bytes")
                || name.contains("modeled")
                || count_ratios.contains(&name))
    }

    fn smoke(seed: u64, trace: bool, workload: &defs::Workload) -> RunCfg {
        RunCfg {
            seed,
            seconds: 0.0,
            trace,
            smoke: true,
            cycle_ops: workload.cycle_ops,
        }
    }

    /// Same seed ⇒ identical accuracy, modeled clocks and counts; a
    /// different seed ⇒ different inputs. Every check passes at both.
    #[test]
    fn seed_determines_every_count_and_modeled_clock() {
        for workload in &defs::WORKLOADS {
            let run = |seed, trace| {
                let out = (workload.run)(&smoke(seed, trace, workload));
                assert_eq!(out.failed, 0, "{}: {:?}", workload.name, out.failures);
                assert!(out.attempted > 0);
                for (name, value) in &out.metrics {
                    assert!(defs::unit_of(name).is_some(), "{name} is not defined");
                    assert!(value.is_finite(), "{name} = {value}");
                }
                out
            };
            let untraced = run(1, false);
            for metric in &defs::END_TO_END {
                assert!(
                    untraced.get(metric.name).is_some_and(|v| v > 0.0),
                    "{}",
                    metric.name
                );
            }

            let (first, again, other) = (run(1, true), run(1, true), run(2, true));
            let exact = |out: &Outcome| -> Vec<(&'static str, f64)> {
                let mut m: Vec<_> = out
                    .metrics
                    .iter()
                    .copied()
                    .filter(|(n, _)| repeats_exactly(n))
                    .collect();
                m.sort_by_key(|&(n, _)| n);
                m
            };
            assert!(
                exact(&first).len() >= 3,
                "{}: nothing to compare",
                workload.name
            );
            assert_eq!(exact(&first), exact(&again), "{}: same seed", workload.name);
            assert_ne!(
                exact(&first),
                exact(&other),
                "{}: other seed",
                workload.name
            );
        }
    }
}
