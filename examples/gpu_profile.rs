//! Inspect the simulated GPU execution of the BLTC: per-kernel-class
//! profile (the four kernels of §3.2), phase breakdown, occupancy, and
//! the effect of the asynchronous-stream count.
//!
//! Everything printed is the device's ledger — the kernel log the pass
//! hands back (`report.events`) and its modeled clocks — so the passes
//! run priced (`Priced`): the same launches and clocks, no pair math.
//!
//! ```text
//! cargo run --release --example gpu_profile
//! ```

use bltc::core::kernel::Priced;
use bltc::core::prelude::*;
use bltc::gpu::GpuEngine;
use bltc::gpu_sim::{profile_table, DeviceSpec};

fn main() {
    let n = 30_000;
    let ps = ParticleSet::random_cube(n, 21);
    let params = BltcParams::new(0.7, 6, 1000, 1000);
    let spec = DeviceSpec::titan_v();

    println!(
        "device: {} — {} SMs, {:.1} TF/s FP64 peak, {} streams",
        spec.name,
        spec.sm_count,
        spec.peak_dp_gflops / 1000.0,
        spec.num_streams
    );
    println!(
        "problem: N = {n}, θ = {}, n = {}, N_B = N_L = {}\n",
        params.theta, params.degree, params.batch_cap
    );

    let op = Priced(&Coulomb as &dyn Kernel);
    let engine = GpuEngine::with_spec(params, spec);
    let report = engine.stage(&ps, &ps).finish(&op);

    println!("kernel profile (Fig. 3's launch structure):");
    print!("{}", profile_table(&report.events));
    println!("\ntotal kernel launches: {}", report.events.len());

    let s = report.sim;
    println!("\nsimulated phase breakdown:");
    println!(
        "  host setup (tree/batches/lists) : {:>9.3} ms",
        s.setup_host_s * 1e3
    );
    println!(
        "  HtD sources                     : {:>9.3} ms",
        s.htod_sources_s * 1e3
    );
    println!(
        "  precompute kernels              : {:>9.3} ms",
        s.precompute_s * 1e3
    );
    println!(
        "  DtH modified charges            : {:>9.3} ms",
        s.dtoh_charges_s * 1e3
    );
    println!(
        "  HtD targets (LET)               : {:>9.3} ms",
        s.htod_let_s * 1e3
    );
    println!(
        "  compute kernels                 : {:>9.3} ms",
        s.compute_s * 1e3
    );
    println!(
        "  DtH potentials                  : {:>9.3} ms",
        s.dtoh_potentials_s * 1e3
    );
    println!(
        "  total                           : {:>9.3} ms",
        s.total() * 1e3
    );

    println!("\nasync-stream sweep (compute phase):");
    for streams in 1..=spec.num_streams {
        let r = engine.with_streams(streams).stage(&ps, &ps).finish(&op);
        println!(
            "  {streams} stream(s): {:>8.3} ms{}",
            r.sim.compute_s * 1e3,
            if streams == 1 { "  (baseline)" } else { "" }
        );
    }
    println!("\nthe paper reports ~25% compute-time reduction from 4 streams (§3.2)");
}
