//! The benchmark's definitions: workloads, end-to-end metrics with
//! their bounds, per-layer metrics. `BENCHMARK.json` at the repository
//! root is `perf describe` of this file, and a unit test keeps the two
//! equal; README.md beside the manifest says what each metric should
//! move.

use crate::api::Json;
use crate::harness::{Outcome, RunCfg};
use crate::workloads::{chaos4, eval1, pot4, service, vv4};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload and the reason it exists.
pub struct Workload {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// Ops of one throughput cycle (see `harness::Window::ops_per_s`):
    /// a whole number of the workload's op periods (every fourth step
    /// migrates; 32 jobs sample the job mix), and no longer than that —
    /// the longer a cycle, the rarer one that no interference touched.
    pub cycle_ops: usize,
    /// Why this workload: one line.
    pub why: &'static str,
    /// One pass of the workload; `RunCfg::trace` selects which.
    pub run: fn(&RunCfg) -> Outcome,
}

/// The six workloads.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "cube_coulomb_1rank",
        cycle_ops: 2,
        why: "10k uniform particles, targets = sources, Coulomb, theta 0.9: the pair loop is over 85% of the op, so kernel, hot-path and pool changes show here and set-up changes do not",
        run: |cfg| eval1::run(&eval1::CUBE_COULOMB, cfg),
    },
    Workload {
        name: "probe_yukawa_1rank",
        cycle_ops: 2,
        why: "100k sources, 256 probe targets, Yukawa: tree build and modified charges are about 60% of the op and 7 of 8 clusters' charges are never read, so precompute and caching changes show here",
        run: |cfg| eval1::run(&eval1::PROBE_YUKAWA, cfg),
    },
    Workload {
        name: "plummer_pot_4rank",
        cycle_ops: 2,
        why: "one-shot run_distributed on a 6k Plummer cloud, 4 ranks: RCB, world spawn, LET build and the potential remote-evaluation path are paid on every call; sessions and migration are bypassed",
        run: pot4::run,
    },
    Workload {
        name: "plummer_vv_4rank",
        cycle_ops: 4,
        why: "velocity-Verlet steps on a warm 4-rank world: the field twin of the LET path, a migration every 4th step; spawn and RCB land in setup_s, so per-step rebuilds show here, spawn changes do not",
        run: vv4::run,
    },
    Workload {
        name: "service_small_jobs",
        cycle_ops: 32,
        why: "2 clients, 2 workers, jobs of N = 400 over 6 preparations in a cache of 4: admission, cache, warm-world checkout, metering and digests are visible in each op; kernels matter least",
        run: service::run,
    },
    Workload {
        name: "chaos_recovery_4rank",
        cycle_ops: 2,
        why: "a supervised 6-step run with two injected rank panics: the only workload that runs checkpoint, restore, respawn and catch_unwind",
        run: chaos4::run,
    },
];

/// The workload named `name`.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics; every workload reports every one.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "op_min_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// One per-layer metric of the traced pass. A workload that never
/// enters the layer reports 0 for it.
pub struct PerLayer {
    /// Metric name, `<layer>.<what>_<unit suffix>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The per-layer metrics, layer by layer (layer = crate).
pub const PER_LAYER: [PerLayer; 94] = [
    // core
    lower("core.tree_build_s", "s"),
    lower("core.batches_build_s", "s"),
    lower("core.lists_build_s", "s"),
    lower("core.charges_s", "s"),
    lower("core.eval_s", "s"),
    lower("core.eval_serial_s", "s"),
    lower("core.eval_field_s", "s"),
    higher("core.pool_speedup_x", "x"),
    lower("core.kernel_evals", "count"),
    higher("core.approx_share_frac", "frac"),
    higher("core.pair_rate", "1/s"),
    higher("core.pair_rate_frac", "frac"),
    higher("core.charges_used_frac", "frac"),
    lower("core.tree_nodes", "count"),
    lower("core.batches", "count"),
    // gpu-engine + gpu-sim
    lower("gpu.compute_s", "s"),
    lower("gpu.compute_field_s", "s"),
    lower("gpu.launches", "count"),
    lower("gpu.wall_per_launch_us", "us"),
    higher("gpu.pair_rate", "1/s"),
    lower("gpu.modeled_s", "s"),
    lower("gpu.wall_over_model_x", "x"),
    // rcb
    lower("rcb.partition_s", "s"),
    lower("rcb.imbalance_x", "x"),
    // mpi-sim
    lower("mpi.spmd_spawn_s", "s"),
    lower("mpi.session_spawn_s", "s"),
    lower("mpi.epoch_roundtrip_s", "s"),
    lower("mpi.pool_reuse_s", "s"),
    // dist
    lower("dist.run_distributed_s", "s"),
    lower("dist.run_1rank_s", "s"),
    lower("dist.cpu_s_per_op", "s"),
    lower("dist.dist_overhead_x", "x"),
    lower("dist.nonlocal_cpu_s", "s"),
    lower("dist.session_launch_s", "s"),
    lower("dist.eval_field_epoch_s", "s"),
    lower("dist.migrate_s", "s"),
    lower("dist.snapshot_s", "s"),
    lower("dist.let_bytes", "bytes"),
    lower("dist.let_messages", "count"),
    lower("dist.fetched_particles", "count"),
    lower("dist.let_fetch_frac", "frac"),
    lower("dist.peak_let_bytes", "bytes"),
    lower("dist.remote_eval_share_frac", "frac"),
    lower("dist.modeled_total_s", "s"),
    lower("dist.modeled_pipelined_s", "s"),
    lower("dist.modeled_setup_s", "s"),
    lower("dist.modeled_precompute_s", "s"),
    lower("dist.modeled_compute_s", "s"),
    lower("dist.wall_over_model_x", "x"),
    // sim
    lower("sim.scenario_build_s", "s"),
    lower("sim.integrator_new_s", "s"),
    lower("sim.step_plain_s", "s"),
    lower("sim.step_migrating_s", "s"),
    lower("sim.checkpoint_s", "s"),
    lower("sim.restore_s", "s"),
    lower("sim.snapshot_s", "s"),
    lower("sim.last_field_s", "s"),
    lower("sim.migrated_per_migration", "count"),
    lower("sim.migration_bytes", "bytes"),
    // service
    lower("service.start_s", "s"),
    lower("service.submit_s", "s"),
    lower("service.solo_job_s", "s"),
    lower("service.job_tax_s", "s"),
    higher("service.cache_hit_frac", "frac"),
    lower("service.worlds_spawned", "count"),
    higher("service.worlds_reused_frac", "frac"),
    lower("service.rejected", "count"),
    lower("service.digest_s", "s"),
    lower("service.shutdown_s", "s"),
    // chaos
    lower("chaos.clean_run_s", "s"),
    lower("chaos.faulted_run_s", "s"),
    lower("chaos.recovery_tax_s", "s"),
    lower("chaos.plan_compile_s", "s"),
    lower("chaos.recoveries", "count"),
    lower("chaos.faults_seen", "count"),
    lower("chaos.mttr_modeled_s", "s"),
    // trace
    lower("trace.step_overhead_frac", "frac"),
    lower("trace.spans_per_step", "count"),
    lower("trace.export_s", "s"),
    lower("trace.export_bytes", "bytes"),
    // bench: the harness's own diagnostics
    higher("bench.ref_pair_rate", "1/s"),
    lower("bench.calib_s", "s"),
    higher("bench.cpu_util_frac", "frac"),
    lower("bench.cpu_s_per_op", "s"),
    higher("bench.samples", "count"),
    lower("bench.op_min_s", "s"),
    lower("bench.op_p50_s", "s"),
    lower("bench.op_p90_s", "s"),
    lower("bench.op_tail_s", "s"),
    higher("bench.op_tail_pct", "%"),
    lower("bench.trace_overhead_frac", "frac"),
    lower("bench.accuracy_err", "frac"),
    lower("bench.modeled_op_s", "s"),
    lower("bench.peak_rss_mib", "MiB"),
];

/// Unit of the metric named `name`, end-to-end or per-layer.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|&(n, _)| n == name)
        .map(|(_, unit)| unit)
}

/// Seconds one run measures, as recorded in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 10;

/// `BENCHMARK.json`: the contract's six keys, nothing else.
pub fn benchmark_json() -> String {
    let strings = |items: &[&str]| Json::arr(items.iter().map(|s| Json::s(*s)).collect());
    let doc = Json::obj()
        .field(
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--offline",
                "--manifest-path",
                "perf/Cargo.toml",
                "--",
            ]),
        )
        .field("paths", strings(&["perf"]))
        .field("run_seconds", Json::u(RUN_SECONDS))
        .field(
            "workloads",
            Json::arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj()
                            .field("name", Json::s(w.name))
                            .field("why", Json::s(w.why))
                    })
                    .collect(),
            ),
        )
        .field(
            "end_to_end",
            Json::arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj()
                            .field("name", Json::s(m.name))
                            .field("unit", Json::s(m.unit))
                            .field("better", Json::s(m.better.word()))
                            .field("bound", Json::Num(format!("{}", m.bound)))
                    })
                    .collect(),
            ),
        )
        .field(
            "per_layer",
            Json::arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj()
                            .field("name", Json::s(m.name))
                            .field("unit", Json::s(m.unit))
                            .field("better", Json::s(m.better.word()))
                    })
                    .collect(),
            ),
        );
    doc.render_bench()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn definitions_fit_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");

        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n') && w.cycle_ops > 0));
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s takes the largest bound"
        );
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(names.iter().filter_map(|n| unit_of(n)).all(unit_ok));
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn benchmark_json_at_the_root_is_this_files_rendering() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `perf describe > BENCHMARK.json`"
        );
    }
}
