//! # bltc-gpu — the BLTC mapped onto the simulated GPU
//!
//! This crate is the Rust analogue of the paper's OpenACC port (§3.2). It
//! implements the four compute kernels on the `gpu-sim` execution model:
//!
//! 1. **precompute phase 1** — per-source intermediates `q̃_j` (Eq. 14);
//!    one block per source particle, threads over the interpolation
//!    degree,
//! 2. **precompute phase 2** — modified charges `q̂_k` (Eq. 15); one block
//!    per Chebyshev point, threads over the cluster's sources,
//! 3. **batch–cluster direct-sum kernel** — Eq. 9; one block per target,
//!    one thread per source, block reduction, atomic accumulate,
//! 4. **batch–cluster approximation kernel** — Eq. 11; identical shape
//!    with proxies in place of sources (the direct-sum *form* of the
//!    barycentric approximation is exactly what makes this possible).
//!
//! Kernels 3 and 4 are written once for both passes: a
//! `bltc_core::kernel::TileOp` — `&dyn Kernel` for potentials,
//! `&dyn GradientKernel` for potentials and gradients — decides how many
//! output columns a launch accumulates, what a pair costs and what the
//! launch is called in the profile.
//!
//! A run has two halves that share one device clock:
//!
//! ```text
//!  GpuEngine::stage(targets, sources)          kernel-independent
//!    host: tree, batches, interaction lists
//!    HtD sources → precompute 1+2 per cluster → DtH q̂ → HtD targets
//!    ⇒ StagedRun { tree(), batches(), qhat_host }
//!  StagedRun::finish(op)                        one pass
//!    per batch: approx + direct launches, stream id cycling
//!    DtH of the pass's output columns
//!    ⇒ GpuPass { columns, ops, sim, profile, launches }
//! ```
//!
//! [`GpuEngine::compute_detailed`] and
//! [`GpuEngine::compute_field_detailed`] are the two halves back to back
//! — the full pipeline of the paper's "MPI + OpenACC BLTC" algorithm
//! restricted to one rank. The distributed version in `bltc-dist` works
//! between the halves: the modified charges the modeled DtH copied back
//! (`StagedRun::qhat_host`) are exactly what its RMA window exposes to
//! the other ranks (paper §3.1: computed on the GPU, copied to the host,
//! served from there), and its LET traversal runs against the staged
//! batches — so a rank prepares once per evaluation.
//!
//! Numerical results are produced by the same scalar code paths as the
//! CPU engines (same summation order, same product association), so CPU
//! and GPU potentials agree **bitwise**; only the *clock* differs.
//!
//! ## Example
//!
//! The bitwise-parity contract, demonstrated:
//!
//! ```
//! use bltc_core::config::BltcParams;
//! use bltc_core::engine::{SerialEngine, TreecodeEngine};
//! use bltc_core::kernel::Coulomb;
//! use bltc_core::particles::ParticleSet;
//! use bltc_gpu::GpuEngine;
//!
//! let ps = ParticleSet::random_cube(400, 3);
//! let params = BltcParams::new(0.8, 3, 50, 50);
//! let cpu = SerialEngine::new(params).compute(&ps, &ps, &Coulomb);
//! let gpu = GpuEngine::new(params).compute(&ps, &ps, &Coulomb);
//! assert_eq!(cpu.potentials, gpu.potentials, "same bits, different clock");
//! ```

pub mod engine;
pub mod kernels;
pub mod pipeline;

pub use engine::{
    gpu_direct_sum, gpu_direct_sum_modeled_seconds, GpuDirectSumResult, GpuEngine,
    GpuFieldRunReport, GpuPass, GpuRunReport, GpuSimBreakdown, StagedRun,
};
pub use gpu_sim::KernelEvent;
pub use pipeline::{dispatch_remote_chunks, ChunkDispatchReport, RemoteChunkWork};
