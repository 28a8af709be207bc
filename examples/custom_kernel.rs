//! Kernel independence: plug a user-defined interaction kernel into the
//! treecode with no kernel-specific code — only point evaluations.
//!
//! We define a Stokeslet-like `1/r + r/(2a²)`-regularized kernel and a
//! London/van-der-Waals-style `-1/(r⁶ + c)` kernel, then verify both
//! converge to the direct sum as the interpolation degree rises — the
//! property that distinguishes the BLTC from expansion-based treecodes.
//! Implementing `eval` is all it takes to run at full speed too: the
//! engines drive kernels through the provided `Kernel::accumulate_tile`,
//! which is instantiated per kernel type, so a custom kernel gets the
//! same monomorphic, vectorisable tile loop as the built-in ones.
//!
//! ```text
//! cargo run --release --example custom_kernel
//! ```

use bltc::core::kernel::Kernel;
use bltc::core::prelude::*;

/// A blob-regularized Stokeslet-style kernel (smooth at the origin).
struct RegularizedStokeslet {
    blob: f64,
}

impl Kernel for RegularizedStokeslet {
    fn eval(&self, dx: f64, dy: f64, dz: f64) -> f64 {
        let r2 = dx * dx + dy * dy + dz * dz;
        let d2 = r2 + self.blob * self.blob;
        (r2 + 2.0 * self.blob * self.blob) / (d2 * d2.sqrt())
    }
    fn name(&self) -> &'static str {
        "regularized-stokeslet"
    }
    fn flops_per_eval_cpu(&self) -> f64 {
        20.0
    }
    fn flops_per_eval_gpu(&self) -> f64 {
        11.0
    }
}

/// A London-dispersion-style attractive kernel, softened at the origin.
struct LondonDispersion {
    soft: f64,
}

impl Kernel for LondonDispersion {
    fn eval(&self, dx: f64, dy: f64, dz: f64) -> f64 {
        let r2 = dx * dx + dy * dy + dz * dz;
        -1.0 / (r2 * r2 * r2 + self.soft)
    }
    fn name(&self) -> &'static str {
        "london-dispersion"
    }
    fn flops_per_eval_cpu(&self) -> f64 {
        12.0
    }
    fn flops_per_eval_gpu(&self) -> f64 {
        8.0
    }
}

fn main() {
    let ps = ParticleSet::random_cube(6_000, 55);
    let kernels: Vec<Box<dyn Kernel>> = vec![
        Box::new(RegularizedStokeslet { blob: 0.05 }),
        Box::new(LondonDispersion { soft: 1e-4 }),
    ];

    for kernel in &kernels {
        println!("== {} ==", kernel.name());
        let exact = direct_sum(&ps, &ps, kernel.as_ref());
        println!("degree   error");
        let mut prev = f64::INFINITY;
        for degree in [2usize, 4, 6, 8] {
            let params = BltcParams::new(0.6, degree, 250, 250);
            let result = SerialEngine::new(params).compute(&ps, &ps, kernel.as_ref());
            let err = relative_l2_error(&exact, &result.potentials);
            println!("{degree:>6}   {err:.3e}");
            assert!(
                err < prev,
                "{}: error must fall with degree ({err} !< {prev})",
                kernel.name()
            );
            prev = err;
        }
        assert!(prev < 1e-4, "{}: degree-8 error too large", kernel.name());
        println!("converged — no kernel-specific machinery required\n");
    }
    println!("OK — the treecode is kernel-independent (only Kernel::eval was provided)");
}
