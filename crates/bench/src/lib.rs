//! # bltc-bench — figure-regeneration harnesses
//!
//! One binary per table/figure of the paper's evaluation (§4):
//!
//! | binary               | reproduces |
//! |----------------------|------------|
//! | `fig2_rcb`           | Fig. 2 — RCB of the unit square, 4 & 6 parts |
//! | `fig4_accuracy`      | Fig. 4 — run time vs error, CPU vs GPU, Coulomb & Yukawa |
//! | `fig5_weak`          | Fig. 5 — weak scaling, 1→32 GPUs; `--stream` adds the memory-bounded LET-streaming sweep |
//! | `fig6_strong`        | Fig. 6 — strong scaling + phase breakdown |
//! | `ablation_streams`   | §3.2 — async-stream ablation (~25% claim); `--multi` adds the multi-rank pipelined-epoch sweep |
//! | `ablation_precision` | §5 — mixed-precision ablation |
//!
//! Default problem sizes are scaled to a single-core container (the paper
//! ran 1M–1B particles on Titan V / 32×P100); every binary takes `--n`
//! style flags to raise them. Times on the GPU side are the `gpu-sim`
//! modeled clock; CPU-side times are modeled through
//! [`bltc_core::cost::CpuSpec`] so the two are comparable.
//!
//! Wall-clock speed is not measured here: that is the `perf` package's
//! job (`core.*` rows time the same calls with a real protocol).
//!
//! ## Example
//!
//! The flag parser every harness shares:
//!
//! ```
//! use bltc_bench::Args;
//!
//! let args = Args::from_vec(vec![
//!     "--n".into(), "5000".into(),
//!     "--theta".into(), "0.8".into(),
//!     "--forces".into(),
//! ]);
//! assert_eq!(args.usize("n", 1000), 5000);
//! assert_eq!(args.f64("theta", 0.5), 0.8);
//! assert!(args.flag("forces"));
//! assert_eq!(args.usize("missing", 7), 7);
//! ```

use bltc_core::cost::{CpuSpec, OpCounts};
use bltc_core::error::relative_l2_error;
use bltc_core::field::FieldResult;
use bltc_core::kernel::{GradientKernel, Kernel};

/// The shared deterministic JSON writer (re-exported from
/// [`bltc_trace`]): every `BENCH_*.json` artifact renders through
/// [`json::Json::render_bench`], so field order, float formatting, and
/// whitespace are identical across all bench binaries.
pub use bltc_trace::json;

/// Tiny argument parser: `--key value` pairs with typed lookup.
pub struct Args {
    pairs: Vec<(String, String)>,
}

impl Args {
    /// Parse `std::env::args()` (skipping the binary name).
    pub fn from_env() -> Self {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        Self::from_vec(argv)
    }

    /// Parse an explicit vector (for tests).
    pub fn from_vec(argv: Vec<String>) -> Self {
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let k = argv[i].trim_start_matches('-').to_string();
            if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                pairs.push((k, argv[i + 1].clone()));
                i += 2;
            } else {
                pairs.push((k, String::from("true")));
                i += 1;
            }
        }
        Self { pairs }
    }

    /// Look up a `usize` flag.
    pub fn usize(&self, key: &str, default: usize) -> usize {
        self.get(key)
            .map(|v| v.parse().unwrap_or_else(|_| panic!("bad --{key}: {v}")))
            .unwrap_or(default)
    }

    /// Look up an `f64` flag.
    pub fn f64(&self, key: &str, default: f64) -> f64 {
        self.get(key)
            .map(|v| v.parse().unwrap_or_else(|_| panic!("bad --{key}: {v}")))
            .unwrap_or(default)
    }

    /// Look up a boolean flag (present ⇒ true).
    pub fn flag(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Look up a raw string value, if present.
    pub fn get_opt(&self, key: &str) -> Option<String> {
        self.get(key).cloned()
    }

    fn get(&self, key: &str) -> Option<&String> {
        self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// Build a host pool honoring a bench's `--threads N` flag (0 ⇒ the
/// `BLTC_HOST_THREADS` / hardware default) and return it; run the
/// bench body inside `pool.install(..)` so every host phase — and,
/// through pool inheritance, every simulated rank — uses exactly `N`
/// workers.
pub fn host_pool(args: &Args) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(args.usize("threads", 0))
        .build()
        .expect("failed to build host pool")
}

/// Modeled CPU run time of a treecode evaluation on the paper's 6-core
/// Xeon X5650 baseline: compute + precompute flops through the CPU spec,
/// plus the (host-model) setup seconds supplied by the caller.
pub fn cpu_modeled_seconds(
    ops: &OpCounts,
    kernel: &dyn Kernel,
    setup_seconds: f64,
    cpu: &CpuSpec,
) -> f64 {
    let flops = ops.compute_flops(kernel, false) + ops.precompute_flops();
    setup_seconds + cpu.seconds(flops)
}

/// Modeled CPU run time of a treecode **field** (potential + gradient)
/// evaluation — the `--forces` counterpart of [`cpu_modeled_seconds`];
/// gradient kernels charge ~4× the compute flops.
pub fn cpu_modeled_field_seconds(
    ops: &OpCounts,
    kernel: &dyn GradientKernel,
    setup_seconds: f64,
    cpu: &CpuSpec,
) -> f64 {
    let flops = ops.field_flops(kernel, false) + ops.precompute_flops();
    setup_seconds + cpu.seconds(flops)
}

/// Relative 2-norm error over the three gradient components at sampled
/// targets. `exact` is indexed in sample order (0..idx.len()); `approx`
/// is a full-problem field indexed by the original ids in `idx`.
pub fn sampled_gradient_error(exact: &FieldResult, approx: &FieldResult, idx: &[usize]) -> f64 {
    let mut e = Vec::with_capacity(idx.len() * 3);
    let mut a = Vec::with_capacity(idx.len() * 3);
    for (s, &i) in idx.iter().enumerate() {
        e.extend_from_slice(&[exact.gx[s], exact.gy[s], exact.gz[s]]);
        a.extend_from_slice(&[approx.gx[i], approx.gy[i], approx.gz[i]]);
    }
    relative_l2_error(&e, &a)
}

/// Scientific-notation formatting for table cells.
pub fn sci(v: f64) -> String {
    if v == 0.0 {
        return "0".into();
    }
    format!("{v:9.3e}")
}

/// Honor a bench's `--trace <path>` flag: write the spans as a
/// Perfetto-loadable Chrome trace-event JSON file and print the text
/// flame summary. No-op (returns `false`) when the flag is absent.
/// Spans are sorted by their deterministic key before export, so the
/// written file is byte-identical run-to-run.
pub fn write_trace(args: &Args, spans: &[bltc_trace::Span]) -> bool {
    let Some(path) = args.get_opt("trace") else {
        return false;
    };
    let mut spans = spans.to_vec();
    bltc_trace::sort_spans(&mut spans);
    std::fs::write(&path, bltc_trace::chrome_trace(&spans)).expect("write trace json");
    println!("\n{}", bltc_trace::flame_summary(&spans));
    println!("wrote {path} ({} spans)", spans.len());
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use bltc_core::kernel::Coulomb;

    #[test]
    fn args_parse_pairs_and_flags() {
        let a = Args::from_vec(vec![
            "--n".into(),
            "5000".into(),
            "--theta".into(),
            "0.7".into(),
            "--full".into(),
        ]);
        assert_eq!(a.usize("n", 1), 5000);
        assert!((a.f64("theta", 0.0) - 0.7).abs() < 1e-12);
        assert!(a.flag("full"));
        assert!(!a.flag("missing"));
        assert_eq!(a.usize("absent", 7), 7);
    }

    #[test]
    fn field_model_is_4x_compute_portion() {
        let cpu = CpuSpec::xeon_x5650();
        let ops = OpCounts {
            direct_interactions: 1_000_000,
            ..Default::default()
        };
        let pot = cpu_modeled_seconds(&ops, &Coulomb, 0.0, &cpu);
        let fld = cpu_modeled_field_seconds(&ops, &Coulomb, 0.0, &cpu);
        assert!((fld / pot - 4.0).abs() < 1e-9);
    }

    #[test]
    fn sampled_gradient_error_indexes_correctly() {
        let idx = vec![4usize, 17, 42];
        let full = FieldResult {
            potentials: vec![0.0; 50],
            gx: (0..50).map(|i| i as f64).collect(),
            gy: vec![1.0; 50],
            gz: vec![2.0; 50],
        };
        let exact = FieldResult {
            potentials: vec![0.0; 3],
            gx: idx.iter().map(|&i| i as f64).collect(),
            gy: vec![1.0; 3],
            gz: vec![2.0; 3],
        };
        assert_eq!(sampled_gradient_error(&exact, &full, &idx), 0.0);
    }

    #[test]
    fn cpu_model_monotone_in_ops() {
        let cpu = CpuSpec::xeon_x5650();
        let small = OpCounts {
            direct_interactions: 1_000,
            ..Default::default()
        };
        let big = OpCounts {
            direct_interactions: 1_000_000,
            ..Default::default()
        };
        let ts = cpu_modeled_seconds(&small, &Coulomb, 0.0, &cpu);
        let tb = cpu_modeled_seconds(&big, &Coulomb, 0.0, &cpu);
        assert!(tb > ts * 100.0);
    }
}
