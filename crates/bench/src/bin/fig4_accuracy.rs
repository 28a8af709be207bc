//! Fig. 4 — run time versus error for 1 million random particles in a
//! cube: single GPU vs 6-core CPU, Coulomb (a) and Yukawa (b) potentials,
//! curves of constant MAC θ ∈ {0.5, 0.7, 0.9} with degree n = 1:2:13,
//! plus the direct-summation reference lines.
//!
//! Scaled default: N = 50 000 with `N_B = N_L = max(512, N/50)` — batch
//! sizes must stay near the paper's 2000 or the GPU becomes launch-bound
//! (the very effect §3.2's batching design avoids). Raise `--n 200000
//! --max-degree 13` for a fuller sweep (≈10 min); the GPU-treecode vs
//! GPU-direct crossover appears as N grows (paper conclusion (4)).
//! The GPU clock is the `gpu-sim` model; the CPU clock is the op-count
//! model for the paper's Xeon X5650. Errors are real (treecode vs direct
//! summation on the same machine, Eq. 16), sampled at `--samples` targets
//! when N is large.
//!
//! With `--forces` the sweep measures the **field** pipeline instead:
//! gradient-capable kernels (~4× the flops on both device clocks) and
//! the relative 2-norm error of the sampled gradient components vs the
//! direct-sum field.
//!
//! The run fails (exit status 1) if any error is not finite, or if along
//! a constant-θ curve the error at the last degree is not below the error
//! at degree 1 — the sweep walks every odd interpolation width through
//! the precompute kernels, so this is the smoke check CI runs on them.
//! (The check needs approximated pairs at degree 1, i.e. clusters of
//! more than 8 particles that some batch sees as well separated; at
//! small `--n` pass a small `--cap`.)
//!
//! ```text
//! cargo run --release --bin fig4_accuracy [-- --n 20000 --samples 500 --forces]
//! ```

use bltc_bench::{cpu_modeled_seconds, sampled_gradient_error, sci, Args};
use bltc_core::cost::CpuSpec;
use bltc_core::engine::direct_sum_subset;
use bltc_core::error::{sample_indices, sampled_relative_l2_error};
use bltc_core::field::direct_sum_field;
use bltc_core::kernel::{Coulomb, GradientKernel, Kernel, Yukawa};
use bltc_core::prelude::*;
use bltc_dist::model::HostModel;
use bltc_gpu::{gpu_direct_sum_modeled_seconds, GpuEngine};
use gpu_sim::DeviceSpec;

fn main() {
    let args = Args::from_env();
    let n = args.usize("n", 50_000);
    let samples = args.usize("samples", 300).min(n);
    let seed = args.usize("seed", 7) as u64;
    let cap = args.usize("cap", (n / 50).max(512));
    let max_degree = args.usize("max-degree", 9);
    let forces = args.flag("forces");

    let ps = ParticleSet::random_cube(n, seed);
    let cpu = CpuSpec::xeon_x5650();
    let spec = DeviceSpec::titan_v();
    let idx = sample_indices(n, samples, seed ^ 0xbeef);

    let mode = if forces { "forces" } else { "potentials" };
    println!("Fig. 4 — run time vs error ({mode}), N = {n}, N_B = N_L = {cap}");
    println!("device: {} (modeled) vs {} (modeled)", spec.name, cpu.name);
    println!("errors: relative 2-norm vs direct summation at {samples} sampled targets\n");

    let kernels: Vec<Box<dyn GradientKernel>> =
        vec![Box::new(Coulomb), Box::new(Yukawa::default())];
    let mut failures = Vec::new();
    for kernel in &kernels {
        let exact_pot = (!forces).then(|| direct_sum_subset(&ps, &idx, &ps, kernel.as_ref()));
        let exact_field = forces.then(|| direct_sum_field(&ps.subset(&idx), &ps, kernel.as_ref()));

        // Direct-summation reference lines (the red lines of Fig. 4),
        // scaled by the kernel's own gradient-flop ratio in forces mode.
        let (gpu_scale, cpu_scale) = if forces {
            (
                kernel.grad_flops_per_eval_gpu() / kernel.flops_per_eval_gpu(),
                kernel.grad_flops_per_eval_cpu() / kernel.flops_per_eval_cpu(),
            )
        } else {
            (1.0, 1.0)
        };
        let t_ds_gpu = gpu_scale * gpu_direct_sum_modeled_seconds(spec, n, n, kernel.as_ref());
        let t_ds_cpu = cpu_scale * cpu.seconds(n as f64 * n as f64 * kernel.flops_per_eval_cpu());
        println!("== {} ==", kernel.name());
        println!(
            "direct sum:  cpu {:>10} s   gpu {:>10} s",
            sci(t_ds_cpu),
            sci(t_ds_gpu)
        );
        println!("theta  degree      error      t_cpu(s)     t_gpu(s)   speedup  evals/N");

        let mut min_speedup = f64::INFINITY;
        let mut max_speedup: f64 = 0.0;
        for &theta in &[0.5, 0.7, 0.9] {
            let mut degree = 1;
            let (mut first_err, mut last_err) = (f64::NAN, f64::NAN);
            while degree <= max_degree {
                let params = BltcParams::new(theta, degree, cap, cap);
                let engine = GpuEngine::with_spec(params, spec);
                // (err, ops, tree levels, modeled device seconds sans host setup)
                let (err, ops, levels, sim_s) = if forces {
                    let report = engine.compute_field_detailed(&ps, &ps, kernel.as_ref());
                    let err =
                        sampled_gradient_error(exact_field.as_ref().unwrap(), &report.field, &idx);
                    let levels = report.tree_stats.max_level + 1;
                    (
                        err,
                        report.ops,
                        levels,
                        report.sim.total() - report.sim.setup_host_s,
                    )
                } else {
                    let report = engine.compute_detailed(&ps, &ps, kernel.as_ref());
                    let err = sampled_relative_l2_error(
                        exact_pot.as_ref().unwrap(),
                        &report.result.potentials,
                        &idx,
                    );
                    let levels = report.result.tree_stats.max_level + 1;
                    (
                        err,
                        report.result.ops,
                        levels,
                        report.sim.total() - report.sim.setup_host_s,
                    )
                };
                // Shared host-setup model for both devices.
                let setup = HostModel::default().setup_seconds(n, levels, ops.kernel_launches, 0);
                let t_gpu = sim_s + setup;
                let t_cpu = if forces {
                    cpu_modeled_seconds(&ops, kernel.as_ref(), setup, &cpu)
                } else {
                    cpu_modeled_seconds(&ops, kernel.as_ref() as &dyn Kernel, setup, &cpu)
                };
                let speedup = t_cpu / t_gpu;
                min_speedup = min_speedup.min(speedup);
                max_speedup = max_speedup.max(speedup);
                println!(
                    "{theta:>5}  {degree:>6}  {:>10}  {:>10}  {:>10}  {speedup:>7.1}x  {:>7.0}",
                    sci(err),
                    sci(t_cpu),
                    sci(t_gpu),
                    ops.kernel_evals() as f64 / n as f64,
                );
                if !err.is_finite() {
                    failures.push(format!(
                        "{} θ={theta} n={degree}: error {err}",
                        kernel.name()
                    ));
                }
                if degree == 1 {
                    first_err = err;
                }
                last_err = err;
                // Stop the sweep once machine precision is reached.
                if err < 1e-15 {
                    break;
                }
                degree += 2;
            }
            if max_degree > 1 && last_err >= first_err {
                failures.push(format!(
                    "{} θ={theta}: error {first_err:e} at n=1 did not drop ({last_err:e} at the last degree)",
                    kernel.name()
                ));
            }
        }
        println!(
            "treecode GPU speedup over CPU: {min_speedup:.0}x – {max_speedup:.0}x (paper: ≥100x)\n"
        );
    }
    println!("paper shape checks:");
    println!("  - error decreases along each constant-θ curve as n grows");
    println!("  - smaller θ reaches lower error at equal n");
    println!("  - Yukawa/Coulomb cost ratio ≈ 1.8 (CPU) / 1.5 (GPU) by the kernel flop model");
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAILED: {f}");
        }
        std::process::exit(1);
    }
}
