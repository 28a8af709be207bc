//! The four BLTC compute kernels on the simulated device.
//!
//! Each launch carries the paper's grid/block geometry and an exact work
//! estimate; the body is the same [`TileOp::tile`] call the CPU engines
//! make (bitwise-identical results), reading the device buffers in place
//! and accumulating straight into the output range — no launch
//! allocates. The two batch–cluster kernels are written once for either
//! pass: the op decides how many output columns a launch accumulates
//! (potential, or potential + gradient), what a pair costs and what the
//! launch is called. Cluster proxy data lives in
//! concatenated device buffers — node `i` owns the slice
//! `[i·(n+1)³, (i+1)·(n+1)³)` — so one index addresses both the proxy
//! coordinates and the modified charges, as a real GPU port would lay
//! them out.

use bltc_core::charges::{phase1_intermediates_into, phase2_accumulate_into};
use bltc_core::cost::{PHASE1_FLOPS_PER_TERM, PHASE2_FLOPS_PER_TERM};
use bltc_core::interp::tensor::TensorGrid;
use bltc_core::kernel::TileOp;
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

/// One batch–cluster launch accumulating into the pass's `C` output
/// buffers (batch order, one slot per target). Grid: one block per target
/// in the batch; one thread per source; block reduction (the tile's
/// per-target sequential sum models it deterministically); one atomic
/// update per target and column.
#[allow(clippy::too_many_arguments)]
fn launch_tile<const C: usize, O: TileOp<C> + ?Sized>(
    dev: &mut Device,
    name: &'static str,
    arrays: &DeviceArrays,
    out: [BufF64; C],
    (t0, t1): (usize, usize),
    src: TileSources,
    op: &O,
    stream: usize,
) {
    let (s0, s1) = src.range;
    let (nb, nc) = (t1 - t0, s1 - s0);
    debug_assert!(nb > 0 && nc > 0);
    let work = WorkEstimate::new(
        nb as f64 * nc as f64 * op.flops_per_pair(true),
        ((nb * O::TARGET_COLS + nc * 4) * 8) as f64,
    );
    let cfg = LaunchConfig::new(name, nb, THREADS_PER_BLOCK).stream(stream);
    let a = *arrays;
    let [bx, by, bz, bq] = src.xyzq;
    dev.launch(cfg, work, move |mem| {
        let ([tx, ty, tz, sx, sy, sz, sq], out) =
            mem.f64_split([a.tx, a.ty, a.tz, bx, by, bz, bq], out);
        op.tile(
            (&tx[t0..t1], &ty[t0..t1], &tz[t0..t1]),
            (&sx[s0..s1], &sy[s0..s1], &sz[s0..s1], &sq[s0..s1]),
            &mut out.map(|col| &mut col[t0..t1]),
        );
    });
}

/// Batch–cluster **approximation** kernel (Eq. 11, differentiated with
/// respect to the target in a field pass): identical structure to the
/// direct-sum kernel with the cluster's `(n+1)³` Chebyshev proxies (and
/// their modified charges) in place of the sources.
pub fn launch_approx_kernel<const C: usize, O: TileOp<C> + ?Sized>(
    dev: &mut Device,
    arrays: &DeviceArrays,
    out: [BufF64; C],
    batch_range: (usize, usize),
    node_idx: usize,
    op: &O,
    stream: usize,
) {
    let src = TileSources::proxies(arrays, node_idx);
    launch_tile(
        dev,
        O::APPROX_LAUNCH,
        arrays,
        out,
        batch_range,
        src,
        op,
        stream,
    );
}

/// Batch–cluster **direct sum** kernel (Eq. 9, Fig. 3; differentiated
/// with respect to the target in a field pass).
pub fn launch_direct_kernel<const C: usize, O: TileOp<C> + ?Sized>(
    dev: &mut Device,
    arrays: &DeviceArrays,
    out: [BufF64; C],
    batch_range: (usize, usize),
    cluster_range: (usize, usize),
    op: &O,
    stream: usize,
) {
    let src = TileSources::particles(arrays, cluster_range);
    launch_tile(
        dev,
        O::DIRECT_LAUNCH,
        arrays,
        out,
        batch_range,
        src,
        op,
        stream,
    );
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
