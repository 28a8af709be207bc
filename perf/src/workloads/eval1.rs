//! Workloads 1 and 2: one treecode evaluation on one rank
//! (`ParallelEngine::compute`), on two inputs that load the `core`
//! layer in opposite ways.

use std::time::Instant;

use crate::api::{self, KernelChoice, ParticleSet};
use crate::harness::{
    closed_loop, set_bench_layer, set_end_to_end, ColdSetups, Outcome, RunCfg, Sampler,
    HOST_THREADS, PROBE_REPS,
};
use crate::spans::Recorder;
use crate::sys;
use crate::workloads::GpuTotals;

/// Targets whose exact potential the accuracy figure is taken over.
const ACCURACY_SAMPLES: usize = 400;

/// What distinguishes the two single-rank evaluation workloads.
pub struct Spec {
    /// Source particles (full size, smoke size), uniform in the cube.
    pub sources: (usize, usize),
    /// `Some(n)`: `n` probe targets on the plane `z = 0`, distinct from
    /// the sources. `None`: targets are the sources.
    pub plane_targets: Option<usize>,
    /// Interaction kernel.
    pub kernel: KernelChoice,
    /// MAC parameter θ.
    pub theta: f64,
    /// Interpolation degree n.
    pub degree: usize,
    /// Leaf capacity N_L.
    pub leaf_cap: usize,
    /// Batch capacity N_B.
    pub batch_cap: usize,
    /// Largest relative 2-norm error against direct summation that
    /// still counts as correct at these parameters.
    pub tolerance: f64,
    /// Also time the gradient twins (`evaluate_field_parallel`,
    /// `compute_field_detailed`) in the traced pass.
    pub field_probes: bool,
}

/// Workload 1: the pair loop dominates.
pub const CUBE_COULOMB: Spec = Spec {
    sources: (10_000, 1_500),
    plane_targets: None,
    kernel: KernelChoice::Coulomb,
    theta: 0.9,
    degree: 4,
    leaf_cap: 50,
    batch_cap: 50,
    tolerance: 2e-2,
    field_probes: true,
};

/// Workload 2: tree build and modified charges dominate.
pub const PROBE_YUKAWA: Spec = Spec {
    sources: (100_000, 8_000),
    plane_targets: Some(256),
    kernel: KernelChoice::Yukawa,
    theta: 0.7,
    degree: 6,
    leaf_cap: 300,
    batch_cap: 32,
    tolerance: 1e-3,
    field_probes: false,
};

/// The generated inputs of one run.
pub struct Inputs {
    sources: ParticleSet,
    targets: Option<ParticleSet>,
}

impl Inputs {
    /// Generate from the run's seed.
    pub fn generate(spec: &Spec, cfg: &RunCfg) -> Self {
        Self {
            sources: api::random_cube(cfg.size(spec.sources.0, spec.sources.1), cfg.derive(1)),
            targets: spec
                .plane_targets
                .map(|n| api::plane_targets(n, cfg.derive(2))),
        }
    }

    /// The source particles.
    pub fn sources(&self) -> &ParticleSet {
        &self.sources
    }

    /// The targets (the sources themselves unless the workload has
    /// probe targets).
    pub fn targets(&self) -> &ParticleSet {
        self.targets.as_ref().unwrap_or(&self.sources)
    }
}

/// Run the workload: the untraced pass, or the traced pass.
pub fn run(spec: &Spec, cfg: &RunCfg) -> Outcome {
    let params = api::params(spec.theta, spec.degree, spec.leaf_cap, spec.batch_cap);
    let kernel = spec.kernel.kernel();
    let mut out = Outcome::default();

    let cold = || {
        let inputs = Inputs::generate(spec, cfg);
        let pool = api::host_pool(HOST_THREADS);
        let first =
            pool.install(|| api::cpu_compute(params, inputs.targets(), inputs.sources(), kernel));
        (inputs, pool, first)
    };
    let setups = (!cfg.trace).then(|| ColdSetups::before(cold));

    let inputs = Inputs::generate(spec, cfg);
    let (targets, sources) = (inputs.targets(), inputs.sources());
    let pool = api::host_pool(HOST_THREADS);
    pool.install(|| {
        // Every later op must reproduce the first op's bits.
        let reference = api::cpu_compute(params, targets, sources, kernel);
        let same_bits = |out: &mut Outcome, potentials: &[f64]| {
            out.check(potentials == reference.potentials, || {
                "potentials differ from the first op's".into()
            });
        };

        if setups.is_some() {
            let window = closed_loop(
                cfg.seconds,
                1,
                || api::cpu_compute(params, targets, sources, kernel),
                |r, warmup| {
                    if !warmup {
                        same_bits(&mut out, &r.potentials);
                    }
                    0
                },
            );
            set_end_to_end(&mut out, &window, &[1.0], cfg);
        } else {
            traced(spec, cfg, &inputs, &mut out, &same_bits);
        }

        let indices = api::sample_indices(targets.len(), ACCURACY_SAMPLES, cfg.derive(3));
        let exact = api::direct_sum_subset(targets, &indices, sources, kernel);
        let err = api::sampled_relative_l2_error(&exact, &reference.potentials, &indices);
        out.check_at_most("relative error", err, spec.tolerance);
        if cfg.trace {
            out.set("bench.accuracy_err", err);
        }
    });
    if let Some(setups) = setups {
        out.set("setup_s", setups.after(cold));
    }
    out
}

/// The traced pass: the op rebuilt call by call under spans, beside the
/// real op, plus the sibling probes on the same inputs.
fn traced(
    spec: &Spec,
    cfg: &RunCfg,
    inputs: &Inputs,
    out: &mut Outcome,
    same_bits: &dyn Fn(&mut Outcome, &[f64]),
) {
    let params = api::params(spec.theta, spec.degree, spec.leaf_cap, spec.batch_cap);
    let (kernel, gradient_kernel) = (spec.kernel.kernel(), spec.kernel.gradient_kernel());
    let (targets, sources) = (inputs.targets(), inputs.sources());

    out.set("bench.calib_s", sys::calibration_seconds());
    let ref_rate = reference_pair_rate(cfg);
    out.set("bench.ref_pair_rate", ref_rate);

    let mut rec = Recorder::new();
    let (mut plain, mut via_spans) = (Sampler::default(), Sampler::default());
    let mut last = None;
    let start = Instant::now();
    for iteration in 0.. {
        let r = plain.time(|| api::cpu_compute(params, targets, sources, kernel));
        same_bits(out, &r.potentials);

        rec.next_op();
        let (prep, potentials) = via_spans.time(|| {
            let op = rec.begin("bench", "op");
            let tree = rec.time("core", "tree_build", || api::tree_build(sources, &params));
            let batches = rec.time("core", "batches_build", || {
                api::batches_build(targets, &params)
            });
            let lists = rec.time("core", "lists_build", || {
                api::lists_build(&batches, &tree, &params)
            });
            let charges = rec.time("core", "charges", || {
                api::charges_compute_all(&tree, params.degree)
            });
            let prep = api::prepared_from_parts(params, tree, batches, lists, charges);
            let potentials = rec.time("core", "eval", || api::evaluate_parallel(&prep, kernel));
            rec.end(op);
            (prep, potentials)
        });
        same_bits(out, &potentials);

        if iteration < PROBE_REPS {
            let serial = rec.time("core", "eval_serial", || {
                api::evaluate_serial(&prep, kernel)
            });
            same_bits(out, &serial);
            let gpu = rec.time("gpu", "compute", || {
                api::gpu_compute(params, targets, sources, kernel)
            });
            same_bits(out, &gpu.result.potentials);
            if spec.field_probes {
                let field = rec.time("core", "eval_field", || {
                    api::evaluate_field_parallel(&prep, gradient_kernel)
                });
                same_bits(out, &field.potentials);
                let gpu_field = rec.time("gpu", "compute_field", || {
                    api::gpu_compute_field(params, targets, sources, gradient_kernel)
                });
                same_bits(out, &gpu_field.field.potentials);
            }
            last = Some((prep, gpu));
        }
        if start.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }

    set_bench_layer(out, &plain, &via_spans);
    out.set_span_medians(
        &rec,
        &[
            ("core.tree_build_s", "core", "tree_build"),
            ("core.batches_build_s", "core", "batches_build"),
            ("core.lists_build_s", "core", "lists_build"),
            ("core.charges_s", "core", "charges"),
            ("core.eval_s", "core", "eval"),
            ("core.eval_serial_s", "core", "eval_serial"),
            ("core.eval_field_s", "core", "eval_field"),
            ("gpu.compute_s", "gpu", "compute"),
            ("gpu.compute_field_s", "gpu", "compute_field"),
        ],
    );
    let (prep, gpu) = last.expect("the first iteration probes");
    let evals = prep.ops.kernel_evals() as f64;
    let (eval_s, serial_s, gpu_s) = (
        out.get("core.eval_s").expect("ran"),
        out.get("core.eval_serial_s").expect("ran"),
        out.get("gpu.compute_s").expect("ran"),
    );
    out.set("core.pool_speedup_x", serial_s / eval_s);
    out.set("core.kernel_evals", evals);
    out.set(
        "core.approx_share_frac",
        prep.ops.approx_interactions as f64 / evals,
    );
    out.set("core.pair_rate", evals / serial_s);
    out.set("core.pair_rate_frac", evals / serial_s / ref_rate);
    out.set("core.charges_used_frac", api::charges_used_frac(&prep));
    out.set("core.tree_nodes", api::tree_nodes(&prep) as f64);
    out.set("core.batches", api::num_batches(&prep) as f64);
    let modeled = api::gpu_modeled_seconds(&gpu.sim);
    let mut totals = GpuTotals::default();
    totals.add(gpu.kernel_launches, prep.ops.kernel_evals(), modeled);
    totals.set_metrics(out, gpu_s);
    out.set("bench.modeled_op_s", modeled);
    out.spans = rec.spans().to_vec();
}

/// Pairs per second of a Coulomb pair loop written the way the
/// library's inner loop would read with the kernel inlined: same
/// operations in the same order (`r²`, the `r² = 0` guard, `1/√r²`,
/// multiply by the charge, accumulate per target), one thread, no
/// `dyn` call. It is the rate the `&dyn Kernel` loop could reach on
/// this machine in this run — `core.pair_rate_frac` is how close it is.
fn reference_pair_rate(cfg: &RunCfg) -> f64 {
    let n = cfg.size(3_000, 600);
    let ps = api::random_cube(n, cfg.derive(4));
    let mut out = vec![0.0f64; n];
    let t = Instant::now();
    for (i, slot) in out.iter_mut().enumerate() {
        let (tx, ty, tz) = (ps.x[i], ps.y[i], ps.z[i]);
        let mut acc = 0.0;
        for j in 0..n {
            let (dx, dy, dz) = (tx - ps.x[j], ty - ps.y[j], tz - ps.z[j]);
            let r2 = dx * dx + dy * dy + dz * dz;
            let g = if r2 == 0.0 { 0.0 } else { 1.0 / r2.sqrt() };
            acc += g * ps.q[j];
        }
        *slot += acc;
    }
    let seconds = t.elapsed().as_secs_f64();
    std::hint::black_box(&out);
    (n * n) as f64 / seconds
}
