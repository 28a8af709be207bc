//! The four BLTC compute kernels on the simulated device.
//!
//! Each launch carries the paper's grid/block geometry and an exact work
//! estimate; the body is the same [`Kernel::accumulate_tile`] call the
//! CPU engines make (bitwise-identical results), reading the device
//! buffers in place and accumulating straight into the output range —
//! no launch allocates. Cluster proxy data lives in
//! concatenated device buffers — node `i` owns the slice
//! `[i·(n+1)³, (i+1)·(n+1)³)` — so one index addresses both the proxy
//! coordinates and the modified charges, as a real GPU port would lay
//! them out.

use bltc_core::charges::{phase1_intermediates_into, phase2_accumulate_into};
use bltc_core::cost::{PHASE1_FLOPS_PER_TERM, PHASE2_FLOPS_PER_TERM};
use bltc_core::interp::tensor::TensorGrid;
use bltc_core::kernel::{GradientKernel, Kernel};
use gpu_sim::{BufF64, Device, LaunchConfig, WorkEstimate};

/// Threads per block used by all four kernels (the inner parallel width).
pub const THREADS_PER_BLOCK: usize = 128;

/// Device-resident treecode state shared by the kernels.
#[derive(Debug, Clone, Copy)]
pub struct DeviceArrays {
    /// Source coordinates/charges (tree order).
    pub sx: BufF64,
    /// Source y.
    pub sy: BufF64,
    /// Source z.
    pub sz: BufF64,
    /// Source charges.
    pub sq: BufF64,
    /// Target coordinates (batch order).
    pub tx: BufF64,
    /// Target y.
    pub ty: BufF64,
    /// Target z.
    pub tz: BufF64,
    /// Potentials (batch order), accumulated by the eval kernels.
    pub pot: BufF64,
    /// Concatenated proxy x-coordinates, `(n+1)³` per node.
    pub proxy_x: BufF64,
    /// Concatenated proxy y-coordinates.
    pub proxy_y: BufF64,
    /// Concatenated proxy z-coordinates.
    pub proxy_z: BufF64,
    /// Concatenated modified charges, `(n+1)³` per node.
    pub qhat: BufF64,
    /// Per-source intermediates `q̃` (tree order).
    pub qtilde: BufF64,
    /// Proxy points per node, `(n+1)³`.
    pub proxy_per_node: usize,
}

/// Device-resident gradient accumulators for the **field** kernels
/// (batch order, one slot per target; `E = -q·(gx, gy, gz)`).
#[derive(Debug, Clone, Copy)]
pub struct FieldBuffers {
    /// `∂φ/∂x` accumulator.
    pub gx: BufF64,
    /// `∂φ/∂y` accumulator.
    pub gy: BufF64,
    /// `∂φ/∂z` accumulator.
    pub gz: BufF64,
}

/// The source side of one batch–cluster launch: a cluster's particles
/// (Eq. 9) or a node's Chebyshev proxies with its modified charges
/// (Eq. 11) — the same loop either way, the paper's key GPU-enabling
/// property.
struct TileSources {
    /// Coordinate and weight buffers.
    xyzq: [BufF64; 4],
    /// Index range of the cluster within them.
    range: (usize, usize),
}

impl TileSources {
    fn particles(a: &DeviceArrays, cluster_range: (usize, usize)) -> Self {
        Self {
            xyzq: [a.sx, a.sy, a.sz, a.sq],
            range: cluster_range,
        }
    }

    fn proxies(a: &DeviceArrays, node_idx: usize) -> Self {
        let base = node_idx * a.proxy_per_node;
        Self {
            xyzq: [a.proxy_x, a.proxy_y, a.proxy_z, a.qhat],
            range: (base, base + a.proxy_per_node),
        }
    }
}

/// One potential launch. Grid: one block per target in the batch; one
/// thread per source; block reduction (the tile's per-target sequential
/// sum models it deterministically); one atomic update per target.
fn launch_tile(
    dev: &mut Device,
    name: &'static str,
    arrays: &DeviceArrays,
    (t0, t1): (usize, usize),
    src: TileSources,
    kernel: &dyn Kernel,
    stream: usize,
) {
    let (s0, s1) = src.range;
    let (nb, nc) = (t1 - t0, s1 - s0);
    debug_assert!(nb > 0 && nc > 0);
    let work = WorkEstimate::new(
        nb as f64 * nc as f64 * kernel.flops_per_eval_gpu(),
        ((nb * 4 + nc * 4) * 8) as f64,
    );
    let cfg = LaunchConfig::new(name, nb, THREADS_PER_BLOCK).stream(stream);
    let a = *arrays;
    let [bx, by, bz, bq] = src.xyzq;
    dev.launch(cfg, work, move |mem| {
        let ([tx, ty, tz, sx, sy, sz, sq], [pot]) =
            mem.f64_split([a.tx, a.ty, a.tz, bx, by, bz, bq], [a.pot]);
        kernel.accumulate_tile(
            &tx[t0..t1],
            &ty[t0..t1],
            &tz[t0..t1],
            &sx[s0..s1],
            &sy[s0..s1],
            &sz[s0..s1],
            &sq[s0..s1],
            &mut pot[t0..t1],
        );
    });
}

/// One field launch: four outputs (potential + gradient) per target,
/// same launch geometry as [`launch_tile`], ~4× the flops (see
/// [`GradientKernel::grad_flops_per_eval_gpu`]).
#[allow(clippy::too_many_arguments)]
fn launch_field_tile(
    dev: &mut Device,
    name: &'static str,
    arrays: &DeviceArrays,
    grads: &FieldBuffers,
    (t0, t1): (usize, usize),
    src: TileSources,
    kernel: &dyn GradientKernel,
    stream: usize,
) {
    let (s0, s1) = src.range;
    let (nb, nc) = (t1 - t0, s1 - s0);
    debug_assert!(nb > 0 && nc > 0);
    let work = WorkEstimate::new(
        nb as f64 * nc as f64 * kernel.grad_flops_per_eval_gpu(),
        ((nb * 7 + nc * 4) * 8) as f64,
    );
    let cfg = LaunchConfig::new(name, nb, THREADS_PER_BLOCK).stream(stream);
    let a = *arrays;
    let g = *grads;
    let [bx, by, bz, bq] = src.xyzq;
    dev.launch(cfg, work, move |mem| {
        let ([tx, ty, tz, sx, sy, sz, sq], [pot, gx, gy, gz]) = mem.f64_split(
            [a.tx, a.ty, a.tz, bx, by, bz, bq],
            [a.pot, g.gx, g.gy, g.gz],
        );
        kernel.accumulate_field_tile(
            &tx[t0..t1],
            &ty[t0..t1],
            &tz[t0..t1],
            &sx[s0..s1],
            &sy[s0..s1],
            &sz[s0..s1],
            &sq[s0..s1],
            &mut pot[t0..t1],
            &mut gx[t0..t1],
            &mut gy[t0..t1],
            &mut gz[t0..t1],
        );
    });
}

/// Batch–cluster **direct field** kernel: Eq. 9 differentiated with
/// respect to the target.
pub fn launch_direct_field_kernel(
    dev: &mut Device,
    arrays: &DeviceArrays,
    grads: &FieldBuffers,
    batch_range: (usize, usize),
    cluster_range: (usize, usize),
    kernel: &dyn GradientKernel,
    stream: usize,
) {
    let src = TileSources::particles(arrays, cluster_range);
    let name = "batch_cluster_direct_field";
    launch_field_tile(dev, name, arrays, grads, batch_range, src, kernel, stream);
}

/// Batch–cluster **approximation field** kernel: Eq. 11 differentiated
/// with respect to the target — the cluster's Chebyshev proxies and
/// modified charges in place of the sources.
pub fn launch_approx_field_kernel(
    dev: &mut Device,
    arrays: &DeviceArrays,
    grads: &FieldBuffers,
    batch_range: (usize, usize),
    node_idx: usize,
    kernel: &dyn GradientKernel,
    stream: usize,
) {
    let src = TileSources::proxies(arrays, node_idx);
    let name = "batch_cluster_approx_field";
    launch_field_tile(dev, name, arrays, grads, batch_range, src, kernel, stream);
}

/// Preprocessing kernel 1 (Eq. 14): intermediates `q̃_j` for one cluster.
///
/// Grid: one block per source particle; threads parallelize over the
/// `n+1` terms of each dimension's denominator sum, then reduce.
pub fn launch_precompute_phase1(
    dev: &mut Device,
    arrays: &DeviceArrays,
    grid: &TensorGrid,
    node_range: (usize, usize),
    stream: usize,
) {
    let (start, end) = node_range;
    let nc = end - start;
    debug_assert!(nc > 0);
    let nper = (grid.degree() + 1) as f64;
    let work = WorkEstimate::new(
        nc as f64 * nper * PHASE1_FLOPS_PER_TERM,
        (nc * 4 * 8) as f64,
    );
    let cfg = LaunchConfig::new("precompute_phase1", nc, THREADS_PER_BLOCK).stream(stream);
    let a = *arrays;
    dev.launch(cfg, work, move |mem| {
        let ([xs, ys, zs, qs], [qt]) = mem.f64_split([a.sx, a.sy, a.sz, a.sq], [a.qtilde]);
        let r = start..end;
        phase1_intermediates_into(
            grid,
            &xs[r.clone()],
            &ys[r.clone()],
            &zs[r.clone()],
            &qs[r.clone()],
            &mut qt[r],
        );
    });
}

/// Preprocessing kernel 2 (Eq. 15): modified charges `q̂_k` for one
/// cluster from its intermediates.
///
/// Grid: one block per Chebyshev point; threads parallelize over the
/// cluster's sources, then reduce into `q̂_k`.
pub fn launch_precompute_phase2(
    dev: &mut Device,
    arrays: &DeviceArrays,
    grid: &TensorGrid,
    node_idx: usize,
    node_range: (usize, usize),
    stream: usize,
) {
    let (start, end) = node_range;
    let nc = end - start;
    debug_assert!(nc > 0);
    let m3 = arrays.proxy_per_node;
    let work = WorkEstimate::new(
        nc as f64 * m3 as f64 * PHASE2_FLOPS_PER_TERM,
        ((nc * 4 + m3) * 8) as f64,
    );
    let cfg = LaunchConfig::new("precompute_phase2", m3, THREADS_PER_BLOCK).stream(stream);
    let a = *arrays;
    dev.launch(cfg, work, move |mem| {
        let ([xs, ys, zs, qt], [qhat]) = mem.f64_split([a.sx, a.sy, a.sz, a.qtilde], [a.qhat]);
        let r = start..end;
        let base = node_idx * m3;
        phase2_accumulate_into(
            grid,
            &xs[r.clone()],
            &ys[r.clone()],
            &zs[r.clone()],
            &qt[r],
            &mut qhat[base..base + m3],
        );
    });
}

/// Batch–cluster **direct sum** kernel (Eq. 9, Fig. 3).
pub fn launch_direct_kernel(
    dev: &mut Device,
    arrays: &DeviceArrays,
    batch_range: (usize, usize),
    cluster_range: (usize, usize),
    kernel: &dyn Kernel,
    stream: usize,
) {
    let src = TileSources::particles(arrays, cluster_range);
    launch_tile(
        dev,
        "batch_cluster_direct",
        arrays,
        batch_range,
        src,
        kernel,
        stream,
    );
}

/// Batch–cluster **approximation** kernel (Eq. 11): identical structure
/// to the direct-sum kernel with the cluster's `(n+1)³` Chebyshev proxies
/// (and their modified charges) in place of the sources.
pub fn launch_approx_kernel(
    dev: &mut Device,
    arrays: &DeviceArrays,
    batch_range: (usize, usize),
    node_idx: usize,
    kernel: &dyn Kernel,
    stream: usize,
) {
    let src = TileSources::proxies(arrays, node_idx);
    launch_tile(
        dev,
        "batch_cluster_approx",
        arrays,
        batch_range,
        src,
        kernel,
        stream,
    );
}
