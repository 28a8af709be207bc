//! The measurement protocol every workload shares: seed derivation,
//! cold set-up repetitions, the closed measured loop, and the result a
//! workload hands back.

use std::time::Instant;

use crate::spans::{Recorder, WallSpan};
use crate::{stats, sys};

/// Host pool workers and `BLTC_HOST_THREADS`, pinned: the machine has
/// two hardware threads, and a pool that follows whatever the box
/// offers makes two recordings incomparable.
pub const HOST_THREADS: usize = 2;

/// Unmeasured ops before the measured window (caches fill, the pool's
/// workers are up, lazy statics are initialised).
pub const WARMUP_OPS: usize = 3;

/// Cold set-up repetitions before and after the measured window;
/// `setup_s` is the fastest of all of them. Two groups ten seconds
/// apart, so that one stretch of interference cannot cover them all.
pub const SETUP_REPS: (usize, usize) = (4, 3);

/// Iterations of the traced pass that also run the expensive sibling
/// probes (serial baseline, per-rank replays, spawn probes). Later
/// iterations only alternate the plain and the traced op, so the
/// overhead comparison gets many samples.
pub const PROBE_REPS: usize = 3;

/// What one invocation measures.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// Workload seed; every generated input derives from it.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the untraced pass
    /// (end-to-end metrics).
    pub trace: bool,
    /// Tiny sizes: every code path and check, no comparable timing.
    pub smoke: bool,
    /// Ops per throughput cycle (see [`Window::ops_per_s`]).
    pub cycle_ops: usize,
}

impl RunCfg {
    /// `full` at normal size, `tiny` under `--smoke`.
    pub fn size(&self, full: usize, tiny: usize) -> usize {
        if self.smoke {
            tiny
        } else {
            full
        }
    }

    /// An independent input seed for the stream named `tag`
    /// (SplitMix64 finaliser over `seed ⊕ tag`), so that two inputs of
    /// one workload never share a generator state.
    pub fn derive(&self, tag: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_add(tag.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// What a workload hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted in the measured window, plus one per check over
    /// the whole run (accuracy, drift, digests), so that `failed` never
    /// exceeds it.
    pub attempted: u64,
    /// Ops that errored, were rejected, or failed a correctness check.
    pub failed: u64,
    /// Metric values by name, in reporting order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Spans of the traced pass (empty in the untraced pass).
    pub spans: Vec<WallSpan>,
    /// The first few failure messages, for the human reading the run.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Record a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            !self.metrics.iter().any(|(n, _)| *n == name),
            "metric {name} set twice"
        );
        self.metrics.push((name, value));
    }

    /// The value recorded for `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Count one op (or one check over the whole run) and, when `ok`
    /// is false, one failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Check that `value` is at most `limit` (a NaN is not).
    pub fn check_at_most(&mut self, what: &str, value: f64, limit: f64) {
        self.check(value <= limit, || {
            format!("{what} {value:e} above {limit:e}")
        });
    }

    /// Record the median span duration of each `(layer, stem)` as the
    /// metric `name`, for the spans that ran.
    pub fn set_span_medians(&mut self, rec: &Recorder, names: &[(&'static str, &str, &str)]) {
        for &(metric, layer, stem) in names {
            if let Some(v) = rec.median(layer, stem) {
                self.set(metric, v);
            }
        }
    }
}

/// One measured op of the untraced pass.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    /// Which kind of op of the workload's mix this was (a plain or a
    /// migrating step, a job of preparation `k`); 0 where every op is
    /// alike.
    pub kind: usize,
    /// Wall seconds of the op.
    pub latency_s: f64,
    /// Seconds from the window's start to the op's completion.
    pub finished_s: f64,
}

/// The untraced pass's measured window: its ops in completion order.
///
/// Both timing metrics are taken over the *fastest* samples, not the
/// median ones. On the shared two-vCPU host this benchmark was sized
/// on, interference from outside the VM only ever adds time, and it
/// comes in stretches of seconds to minutes: between ten otherwise
/// identical runs the median op moved by 13-24%, the 10th percentile
/// by 4-12%, the minimum by 2-6% (README.md, "Protocol"). The median
/// and the tail are still printed, as `bench.op_p50_s` and
/// `bench.op_tail_s`.
#[derive(Debug, Clone)]
pub struct Window {
    /// The measured ops, ascending by `finished_s`.
    pub ops: Vec<OpSample>,
}

impl Window {
    /// Wall seconds of one op of the workload's mix when nothing
    /// interferes: the fastest op of each kind, weighted by the kind's
    /// share `mix[kind]` of the designed mix — so an op that is slow by
    /// design (every fourth step migrates, some jobs miss the cache)
    /// counts with its share however the window happened to sample it.
    /// Kinds the window never ran drop out of the weighting.
    pub fn op_min_s(&self, mix: &[f64]) -> f64 {
        let mut fastest = vec![f64::INFINITY; mix.len()];
        for op in &self.ops {
            fastest[op.kind] = fastest[op.kind].min(op.latency_s);
        }
        let present = || mix.iter().zip(&fastest).filter(|(_, f)| f.is_finite());
        present().map(|(share, f)| share * f).sum::<f64>() / present().map(|(s, _)| s).sum::<f64>()
    }

    /// Ops per wall second when nothing interferes, slow-by-design ops
    /// included: the window is cut into cycles of `cycle_ops`
    /// consecutive completions and the rate is that of the fastest
    /// cycle. A window shorter than one cycle reports its mean rate.
    pub fn ops_per_s(&self, cycle_ops: usize) -> f64 {
        let ends = self
            .ops
            .chunks_exact(cycle_ops)
            .map(|cycle| cycle[cycle_ops - 1].finished_s);
        let fastest = std::iter::once(0.0)
            .chain(ends.clone())
            .zip(ends)
            .map(|(from, to)| to - from)
            .fold(f64::INFINITY, f64::min);
        if fastest.is_finite() {
            cycle_ops as f64 / fastest
        } else {
            self.ops.len() as f64 / self.ops.last().map_or(f64::INFINITY, |op| op.finished_s)
        }
    }
}

/// Wall and process-CPU seconds of a series of calls, timed one by one
/// — the traced pass interleaves plain ops, traced ops and probes, so
/// each kind keeps its own sampler. One CPU reading has tick (10 ms)
/// resolution; only the sum over the series is meaningful.
#[derive(Debug, Clone, Default)]
pub struct Sampler {
    /// Wall seconds of each call, in order.
    pub latencies: Vec<f64>,
    /// Process CPU seconds summed over the calls.
    pub cpu_s: f64,
}

impl Sampler {
    /// Time one call.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let cpu0 = sys::cpu_seconds();
        let t = Instant::now();
        let out = f();
        self.latencies.push(t.elapsed().as_secs_f64());
        self.cpu_s += sys::cpu_seconds() - cpu0;
        out
    }

    /// Calls timed so far.
    pub fn len(&self) -> usize {
        self.latencies.len()
    }

    /// Whether no call has been timed.
    pub fn is_empty(&self) -> bool {
        self.latencies.is_empty()
    }

    /// Wall seconds summed over the calls.
    pub fn wall_s(&self) -> f64 {
        self.latencies.iter().sum()
    }

    /// Nearest-rank median wall seconds.
    pub fn p50(&self) -> f64 {
        stats::median(&self.latencies)
    }

    /// Mean process CPU seconds per call.
    pub fn cpu_s_per_call(&self) -> f64 {
        self.cpu_s / self.len().max(1) as f64
    }
}

/// The closed loop on one driver thread: [`WARMUP_OPS`] unmeasured ops,
/// then ops back to back until `seconds` have passed and at least
/// `min_ops` (and one) have run — the floor is for workloads that read
/// a figure off at a fixed op count, so that it is reached however
/// short the window. `op` is timed; `check` sees each result (and
/// whether it was a warm-up) outside the op's own timer and names the
/// op's kind.
pub fn closed_loop<T>(
    seconds: f64,
    min_ops: usize,
    mut op: impl FnMut() -> T,
    mut check: impl FnMut(T, bool) -> usize,
) -> Window {
    for _ in 0..WARMUP_OPS {
        let out = op();
        check(out, true);
    }
    let start = Instant::now();
    let mut ops = Vec::new();
    loop {
        let t = Instant::now();
        let out = op();
        let (latency_s, finished_s) = (t.elapsed().as_secs_f64(), start.elapsed().as_secs_f64());
        ops.push(OpSample {
            kind: check(out, false),
            latency_s,
            finished_s,
        });
        if start.elapsed().as_secs_f64() >= seconds && ops.len() >= min_ops {
            break;
        }
    }
    Window { ops }
}

/// Times cold set-ups, each on fresh objects, and keeps the fastest
/// (fastest for the reason given on [`Window`]).
#[derive(Debug)]
pub struct ColdSetups {
    fastest_s: f64,
}

impl ColdSetups {
    /// The first group of [`SETUP_REPS`], before the measured window.
    /// `cold` returns whatever it built so that dropping it is not
    /// timed.
    pub fn before<T>(cold: impl FnMut() -> T) -> Self {
        let mut this = Self {
            fastest_s: f64::INFINITY,
        };
        this.repeat(SETUP_REPS.0, cold);
        this
    }

    /// The second group, after the window; returns the fastest of both.
    pub fn after<T>(mut self, cold: impl FnMut() -> T) -> f64 {
        self.repeat(SETUP_REPS.1, cold);
        self.fastest_s
    }

    fn repeat<T>(&mut self, reps: usize, mut cold: impl FnMut() -> T) {
        for _ in 0..reps {
            let t = Instant::now();
            let built = cold();
            self.fastest_s = self.fastest_s.min(t.elapsed().as_secs_f64());
            drop(built);
        }
    }
}

/// The two end-to-end metrics of the measured window, derived the same
/// way for every workload (`setup_s` comes from [`ColdSetups`]). `mix[kind]` is the designed share of each
/// op kind (see [`Window::op_min_s`]).
pub fn set_end_to_end(out: &mut Outcome, window: &Window, mix: &[f64], cfg: &RunCfg) {
    out.set("op_min_s", window.op_min_s(mix));
    out.set("ops_per_s", window.ops_per_s(cfg.cycle_ops));
}

/// The `bench.*` diagnostics every workload derives the same way from
/// the plain ops of its traced pass, plus the traced ops' overhead.
pub fn set_bench_layer(out: &mut Outcome, plain: &Sampler, traced: &Sampler) {
    let sorted = stats::sorted(&plain.latencies);
    let n = sorted.len();
    let p50 = stats::percentile(&sorted, 50.0);
    out.set("bench.peak_rss_mib", sys::peak_rss_mib());
    out.set("bench.samples", n as f64);
    out.set("bench.op_p50_s", p50);
    out.set("bench.op_min_s", sorted[0]);
    out.set("bench.op_p90_s", stats::percentile(&sorted, 90.0));
    if let Some(p) = stats::tail_percentile(n) {
        out.set("bench.op_tail_pct", p);
        out.set("bench.op_tail_s", stats::percentile(&sorted, p));
    }
    out.set("bench.cpu_s_per_op", plain.cpu_s_per_call());
    out.set(
        "bench.cpu_util_frac",
        plain.cpu_s / (plain.wall_s() * HOST_THREADS as f64),
    );
    if !traced.is_empty() {
        out.set("bench.trace_overhead_frac", traced.p50() / p50 - 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_differ_by_tag_and_by_seed() {
        let a = RunCfg {
            seed: 1,
            seconds: 1.0,
            trace: false,
            smoke: true,
            cycle_ops: 4,
        };
        let b = RunCfg { seed: 2, ..a };
        assert_eq!(a.derive(7), a.derive(7));
        assert_ne!(a.derive(7), a.derive(8));
        assert_ne!(a.derive(7), b.derive(7));
        assert_eq!(a.size(100, 5), 5);
    }

    #[test]
    fn closed_loop_warms_up_then_measures_at_least_the_floor() {
        let mut calls = 0;
        let mut warm = 0;
        let w = closed_loop(
            0.0,
            0,
            || {
                calls += 1;
                calls
            },
            |_, warmup| {
                warm += usize::from(warmup);
                0
            },
        );
        assert_eq!(warm, WARMUP_OPS);
        assert_eq!(calls, WARMUP_OPS + 1);
        assert_eq!(w.ops.len(), 1);
        assert!(w.ops_per_s(4) > 0.0, "shorter than a cycle: the mean rate");
        let w = closed_loop(0.0, 9, || (), |(), _| 0);
        assert_eq!(w.ops.len(), 9);
    }

    fn window(ops: &[(usize, f64, f64)]) -> Window {
        Window {
            ops: ops
                .iter()
                .map(|&(kind, latency_s, finished_s)| OpSample {
                    kind,
                    latency_s,
                    finished_s,
                })
                .collect(),
        }
    }

    #[test]
    fn op_min_weights_the_fastest_op_of_each_kind_by_the_designed_mix() {
        // Three plain steps near 1.0 and one migrating step at 2.0; the
        // window over-samples the plain kind, the mix does not care.
        let w = window(&[(0, 1.3, 1.3), (0, 1.0, 2.3), (1, 2.0, 4.3), (0, 1.1, 5.4)]);
        assert!((w.op_min_s(&[0.75, 0.25]) - 1.25).abs() < 1e-12);
        assert_eq!(w.op_min_s(&[1.0, 0.0]), 1.0);
        // A kind that never ran drops out instead of poisoning the sum.
        assert_eq!(
            w.op_min_s(&[0.5, 0.25, 0.25]),
            (0.5 * 1.0 + 0.25 * 2.0) / 0.75
        );
    }

    #[test]
    fn throughput_is_that_of_the_fastest_whole_cycle() {
        // Cycles of two: [0, 3.0], (3.0, 4.0], (4.0, 6.5]; a fifth
        // cycle is incomplete and ignored.
        let w = window(&[
            (0, 1.0, 1.0),
            (0, 2.0, 3.0),
            (0, 0.5, 3.5),
            (0, 0.5, 4.0),
            (0, 1.0, 5.0),
            (0, 1.5, 6.5),
            (0, 0.1, 6.6),
        ]);
        assert_eq!(w.ops_per_s(2), 2.0);
        assert_eq!(w.ops_per_s(7), 7.0 / 6.6);
        assert_eq!(w.ops_per_s(8), 7.0 / 6.6, "no whole cycle: the mean rate");
    }

    #[test]
    fn outcome_counts_failed_ops() {
        let mut out = Outcome::default();
        out.check(true, || unreachable!());
        out.check(false, || "bits differ".into());
        out.check_at_most("error", 1e-3, 1e-2);
        out.check_at_most("error", 2e-2, 1e-2);
        out.check_at_most("drift", f64::NAN, 1e-2);
        assert_eq!((out.attempted, out.failed), (5, 3));
        assert_eq!(
            out.failures,
            [
                "bits differ",
                "error 2e-2 above 1e-2",
                "drift NaN above 1e-2"
            ]
        );
        out.set("x", 1.5);
        assert_eq!(out.get("x"), Some(1.5));
        assert_eq!(out.get("y"), None);
    }
}
