//! The four BLTC kernels as the simulated device sees them: a grid of
//! blocks, a stream and an exact work estimate, appended to the device's
//! kernel log. The threads inside a block, described below as the
//! paper's kernels lay them out, are priced by nothing: a launch's
//! occupancy is its blocks over the device's SMs.
//!
//! No kernel here touches a number. The host computes every result with
//! the same code the CPU engines run (`bltc_core`'s tile and
//! modified-charge passes); these functions only tell the device what
//! the paper's OpenACC launch of that work would cost. The two
//! batch–cluster kernels are written once for either pass: the op decides
//! how many output columns a launch writes, what a pair costs and what
//! the launch is called in the profile.

use bltc_core::cost::{PHASE1_FLOPS_PER_TERM, PHASE2_FLOPS_PER_TERM};
use bltc_core::kernel::TileOp;
use gpu_sim::{Device, LaunchConfig, WorkEstimate};

/// Device-memory bytes of batch–cluster launches over `targets` targets
/// and `sources` sources in all (the roofline's memory term): every
/// launch reads and writes `target_cols` `f64` per target and reads four
/// per source. Linear in both counts, so it prices one launch as exactly
/// as a run's or a chunk's Σ targets and Σ sources.
pub fn tile_bytes(targets: u64, sources: u64, target_cols: usize) -> f64 {
    ((targets * target_cols as u64 + sources * 4) * 8) as f64
}

/// One batch–cluster launch of `nb` targets against `nc` sources: a
/// cluster's particles (Eq. 9, `name` = `O::DIRECT_LAUNCH`) or a node's
/// `(n+1)³` Chebyshev proxies with their modified charges (Eq. 11,
/// `O::APPROX_LAUNCH`) — the same kernel either way, the paper's key
/// GPU-enabling property. Grid: one block per target, one thread per
/// source, a block reduction and one atomic update per target and column.
pub fn launch_tile<const C: usize, O: TileOp<C> + ?Sized>(
    dev: &mut Device,
    name: &'static str,
    (nb, nc): (usize, usize),
    op: &O,
    stream: usize,
) {
    debug_assert!(nb > 0 && nc > 0);
    let work = WorkEstimate::new(
        nb as f64 * nc as f64 * op.flops_per_pair(true),
        tile_bytes(nb as u64, nc as u64, O::TARGET_COLS),
    );
    dev.launch(LaunchConfig::new(name, nb).stream(stream), work);
}

/// The two preprocessing kernels of one cluster of `nc` sources, back to
/// back on one stream:
///
/// 1. Eq. 14, the intermediates `q̃_j`: one block per source particle,
///    threads over the `n+1` terms of each dimension's denominator sum;
/// 2. Eq. 15, the modified charges `q̂_k` from `q̃`: one block per
///    Chebyshev point, threads over the cluster's sources.
pub fn launch_precompute(dev: &mut Device, degree: usize, nc: usize, stream: usize) {
    debug_assert!(nc > 0);
    let nper = (degree + 1) as f64;
    let m3 = (degree + 1).pow(3);
    dev.launch(
        LaunchConfig::new("precompute_phase1", nc).stream(stream),
        WorkEstimate::new(
            nc as f64 * nper * PHASE1_FLOPS_PER_TERM,
            (nc * 4 * 8) as f64,
        ),
    );
    dev.launch(
        LaunchConfig::new("precompute_phase2", m3).stream(stream),
        WorkEstimate::new(
            nc as f64 * m3 as f64 * PHASE2_FLOPS_PER_TERM,
            ((nc * 4 + m3) * 8) as f64,
        ),
    );
}
