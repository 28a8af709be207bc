//! Interaction kernels `G(x, y)`.
//!
//! The treecode is *kernel-independent*: it needs only point evaluations
//! of `G`, never kernel-specific expansions. Any non-oscillatory kernel
//! that is smooth for `x ≠ y` works. The paper evaluates the Coulomb and
//! Yukawa potentials; we also ship a regularized Coulomb and a Gaussian to
//! exercise the kernel-independence claim (and to give the examples some
//! physical variety).
//!
//! ## Singularity policy
//!
//! For singular kernels the self-interaction term (`x == y`, which occurs
//! when targets and sources are the same particle set) is defined as `0`.
//! All engines — direct summation, CPU treecode, GPU treecode — share this
//! convention, so errors measured between them are not polluted by the
//! excluded term. The MAC guarantees proxy points of an *approximated*
//! cluster never coincide with a target (the boxes are well separated for
//! `θ < 1`), so the guard only fires on the direct paths.
//!
//! ## Cost accounting
//!
//! Each kernel reports an estimated flop-equivalent count per evaluation
//! for the CPU and for the GPU cost models. Transcendental functions are
//! far cheaper on GPU special-function units than in `libm`, which is
//! exactly why the paper observes Yukawa/Coulomb run-time ratios of ≈1.8×
//! on CPU but only ≈1.5× on GPU; the per-device numbers below encode that.
//!
//! ## Tiles
//!
//! No engine calls [`Kernel::eval`] pair by pair (only the `O(N²)`
//! `direct_sum*` oracles do, which is what makes them oracles). Every
//! batch–cluster interaction — CPU, LET, simulated GPU; sources or
//! Chebyshev proxies — is one call of [`Kernel::accumulate_tile`] (or its gradient twin
//! [`GradientKernel::accumulate_field_tile`]). Both are *provided*
//! methods, so each implementing type gets its own instantiation in
//! which `eval` is a static, inlinable call: a `&dyn Kernel` caller pays
//! one virtual call per tile, and user kernels get the same loop without
//! overriding anything.
//!
//! The engines do not call the two tile methods by name either. What a
//! pass produces per target — one column or four — is a [`TileOp`],
//! implemented by `dyn Kernel` and `dyn GradientKernel`; each layer's
//! loop is written once against it, and [`TileOp::tile`] is the only
//! caller of the tile methods.
//!
//! ### What an override may change, and the two that exist
//!
//! An override of a tile method may change **which unit computes a
//! correctly rounded result** and how many targets run side by side —
//! nothing else. IEEE 754 admits exactly one result for `+ − × ÷ √` of
//! given operands, so whatever delivers the correctly rounded value *is*
//! the hardware instruction as far as bits go, and "same bits" stays an
//! `assert_eq!` against it: no tolerance, no second set of goldens. What
//! it may not change is everything that picks *which* values get rounded:
//! `eval`'s operation sequence and association (`((dx·dx + dy·dy) +
//! dz·dz) [+ ε²]`), a multiply and an add where `eval` has a multiply and
//! an add (no FMA contraction), the `r² = 0 → 0` select before `· q`, the
//! ascending sources, the accumulator from `0.0` and the single final
//! `out[i] += acc`, also for an empty cluster. Re-associating or
//! re-approximating anything (a vectorised `exp`, an `rsqrt` without the
//! correction below) is a different engine with different bits.
//!
//! [`Coulomb`] and [`RegularizedCoulomb`] override both tiles on exactly
//! these terms. On an x86-64 host whose CPU reports AVX-512F (a run-time
//! check; there is nothing to configure) the private `avx512` module
//! walks sixteen targets per step with a masked last step — one lane body
//! for one column or four — and takes two operations off the divider, the
//! way a GPU, which has no FP64 divide or square-root unit at all,
//! computes the paper's `1.0/sqrt(r2)` (§3.2).
//!
//! *The square root* `s = √r²`, in both tiles: `y = rsqrt14(x)` (14
//! bits), `g = x·y ≈ √x`, `h = y/2 ≈ 1/(2√x)`; twice `r = ½ − g·h`, `g +=
//! g·r`, `h += h·r`, each round squaring the relative error (2⁻¹⁴ → 2⁻²⁷
//! → under an ulp); then `d = x − g·g`, exact in one FMA, and `s = g +
//! d·h` in one more, whose single rounding is the correct one: `√x` keeps
//! a distance of ~2⁻¹⁰⁷ or more from every rounding boundary, and `g +
//! d·h` is closer to `√x` than that (P. Markstein, *Computation of
//! elementary functions on the IBM RISC System/6000 processor*, IBM J.
//! Res. Dev. 34, 1990; M. Cornea, J. Harrison, P. T. P. Tang, *Scientific
//! Computing on Itanium-based Systems*, 2002 — the software `fsqrt` of
//! IA-64 and POWER and CUDA's `__dsqrt_rn`). Vectors with a lane outside
//! `[2⁻⁷⁶⁷, 2⁷⁶⁸)` — every self term, every garbage input — take
//! `vsqrtpd`.
//!
//! *The reciprocal* `inv = 1/s`, in the field tile, where
//! `eval_with_grad` divides twice (`inv = 1/s`, then `c = −inv/r²`). A
//! correctly rounded reciprocal is a function exactly as `√` is, and the
//! square root has already computed its seed: `y = h + h` is within about
//! two ulps of `1/s`. One Newton step on the FMA pipes, `e = 1 − s·y`, `y
//! += y·e`, brings it within one ulp, and from a `y` within one ulp the
//! same two FMAs *are* `RN(1/s)` — unless the significand of `s` is all
//! ones, the divisor just below a power of two, whose reciprocal lies
//! closest above one (the same two references: it is IA-64's `frcpa`
//! divide). `√r²` rounds to such an `s` exactly when `r²` is one of the
//! two doubles below a power of four, which one masked compare on the
//! bits of `r²` decides together with the range; a vector with such a
//! lane takes `vsqrtpd` and `vdivpd` like a vector out of range: a rare
//! slow vector, never a different bit. `c = −inv/r²` is a true quotient
//! and stays one hardware `vdivpd`; in the potential tile, which has no
//! other use for the divider, so does `1/s` (the FMA reciprocal there
//! measured 1.0 against 0.85 ns a pair).
//!
//! The module's tests compare `s` and `inv` with `f64::sqrt` and `1.0 /
//! s`, bit for bit, on 2·10⁸ random inputs, on the 141 579 doubles of
//! `[1, 4)` whose roots lie within 4·10⁵·2⁻¹⁰⁷ of a rounding boundary, on
//! the neighbourhood of every power of four — the all-ones `s` — and on
//! the reciprocals closest to a rounding boundary; the tile oracle tests
//! below run both bodies of both tiles. Everywhere else, and for every
//! other kernel, the provided bodies run — the same functions the
//! overrides fall back to.
//!
//! Measured on the 2-vCPU AVX-512 host of the benchmark (two 512-bit FMA
//! ports, ≈ 2.9 GHz under AVX-512 whatever its name says), nanoseconds
//! per pair. The portable potential tile needs 1.6, which is `sqrtpd` +
//! `divpd` back to back on the one unpipelined divider, at any vector
//! width; with the √ off the divider it is 0.8–0.95, and `op_min_s` of
//! `cube_coulomb_1rank` dropped by a third. The portable field tile
//! needs 2.4–2.5 (two lanes, `sqrtpd` + 2 × `divpd`; 4.5 for `Coulomb`
//! while its guard was an early return that kept the loop scalar, 2.6
//! since it is a select). The AVX-512 field tile needs 1.40 on a 150 ×
//! 216 tile (1.55–1.7 on a 50-target batch, whose seventh vector holds
//! two targets), and `op_min_s` of `plummer_vv_4rank` drops by more than
//! a quarter. What the parts are worth, same tile: with `√` on the FMA
//! pipes and *both* divides in hardware 1.50 — two `vdivpd` are 32 of
//! its ≈ 35 cycles per eight pairs, the divider is the limit, which is
//! why taking only the `√` off it once read as 3–8 % of a
//! velocity-Verlet step and looked like the ceiling; with the reciprocal
//! on the FMA pipes but its all-ones exception tested on `s`, in a
//! second branch behind the square root, 1.47; with both tests in one
//! mask on `r²`, 1.40; with no test at all (not an option: the tests
//! are what makes the sequences exact) 1.30. The loop now issues about
//! 50 µops per eight pairs on the two ports and runs at ≈ 32 cycles; the
//! one `vdivpd` (16 cycles) hides underneath, so re-defining `c` to drop
//! that divide would buy one µop, and what the figures above leave to be
//! had is in the ≈ 7 µops of the test. Left out: everything Yukawa spends
//! its time in glibc's `exp` (7.0 of 7.3 ns per pair), whose bits are
//! glibc's and cannot be reproduced by another algorithm.

#[cfg(target_arch = "x86_64")]
mod avx512;

/// Targets the portable bodies ([`portable_tile`] and
/// [`portable_field_tile`]) walk together. Each keeps its own accumulator,
/// so the block is `TILE_W` independent sums the compiler can put in SIMD
/// lanes without changing any target's operation order. (The AVX-512 body
/// has its own width, its register size.)
const TILE_W: usize = 4;

/// The panics of [`Kernel::accumulate_tile`] and
/// [`GradientKernel::accumulate_field_tile`], and the only length check
/// of every tile body: as many targets in each target slice as in each
/// output column, as many sources in each source slice as there are
/// weights.
#[inline]
fn assert_tile_shape(
    (tx, ty, tz): (&[f64], &[f64], &[f64]),
    (sx, sy, sz, sq): (&[f64], &[f64], &[f64], &[f64]),
    out: &[&mut [f64]],
) {
    let nt = out[0].len();
    assert!(
        tx.len() == nt && ty.len() == nt && tz.len() == nt,
        "tile target slices differ in length"
    );
    assert!(
        out.iter().all(|column| column.len() == nt),
        "tile output slices differ in length"
    );
    assert!(
        sx.len() == sq.len() && sy.len() == sq.len() && sz.len() == sq.len(),
        "tile source slices differ in length"
    );
}

/// The portable potential tile: the body of the provided
/// [`Kernel::accumulate_tile`], and what an override falls back to on a
/// host without its instructions — the one copy of this loop.
#[inline]
fn portable_tile<K: Kernel + ?Sized>(
    k: &K,
    t: (&[f64], &[f64], &[f64]),
    s: (&[f64], &[f64], &[f64], &[f64]),
    out: &mut [f64],
) {
    let ((tx, ty, tz), (sx, sy, sz, sq)) = (t, s);
    let (nt, ns) = (out.len(), sq.len());
    assert_tile_shape(t, s, &[&mut *out]);
    let blocked = nt - nt % TILE_W;
    for i in (0..blocked).step_by(TILE_W) {
        let x: [f64; TILE_W] = std::array::from_fn(|l| tx[i + l]);
        let y: [f64; TILE_W] = std::array::from_fn(|l| ty[i + l]);
        let z: [f64; TILE_W] = std::array::from_fn(|l| tz[i + l]);
        let mut acc = [0.0; TILE_W];
        for j in 0..ns {
            for l in 0..TILE_W {
                acc[l] += k.eval(x[l] - sx[j], y[l] - sy[j], z[l] - sz[j]) * sq[j];
            }
        }
        for l in 0..TILE_W {
            out[i + l] += acc[l];
        }
    }
    for i in blocked..nt {
        let mut acc = 0.0;
        for j in 0..ns {
            acc += k.eval(tx[i] - sx[j], ty[i] - sy[j], tz[i] - sz[j]) * sq[j];
        }
        out[i] += acc;
    }
}

/// The portable field tile: the body of the provided
/// [`GradientKernel::accumulate_field_tile`], and what an override falls
/// back to — the one copy of this loop. `out` is `[pot, gx, gy, gz]`.
#[inline]
fn portable_field_tile<K: GradientKernel + ?Sized>(
    k: &K,
    t: (&[f64], &[f64], &[f64]),
    s: (&[f64], &[f64], &[f64], &[f64]),
    out: &mut [&mut [f64]; 4],
) {
    let ((tx, ty, tz), (sx, sy, sz, sq)) = (t, s);
    assert_tile_shape(t, s, &*out);
    let [pot, gx, gy, gz] = out;
    let (nt, ns) = (pot.len(), sq.len());
    let blocked = nt - nt % TILE_W;
    for i in (0..blocked).step_by(TILE_W) {
        let x: [f64; TILE_W] = std::array::from_fn(|l| tx[i + l]);
        let y: [f64; TILE_W] = std::array::from_fn(|l| ty[i + l]);
        let z: [f64; TILE_W] = std::array::from_fn(|l| tz[i + l]);
        let (mut p, mut ax, mut ay, mut az) =
            ([0.0; TILE_W], [0.0; TILE_W], [0.0; TILE_W], [0.0; TILE_W]);
        for j in 0..ns {
            for l in 0..TILE_W {
                let (g, dgx, dgy, dgz) = k.eval_with_grad(x[l] - sx[j], y[l] - sy[j], z[l] - sz[j]);
                p[l] += g * sq[j];
                ax[l] += dgx * sq[j];
                ay[l] += dgy * sq[j];
                az[l] += dgz * sq[j];
            }
        }
        for l in 0..TILE_W {
            pot[i + l] += p[l];
            gx[i + l] += ax[l];
            gy[i + l] += ay[l];
            gz[i + l] += az[l];
        }
    }
    for i in blocked..nt {
        let (mut p, mut ax, mut ay, mut az) = (0.0, 0.0, 0.0, 0.0);
        for j in 0..ns {
            let (g, dgx, dgy, dgz) = k.eval_with_grad(tx[i] - sx[j], ty[i] - sy[j], tz[i] - sz[j]);
            p += g * sq[j];
            ax += dgx * sq[j];
            ay += dgy * sq[j];
            az += dgz * sq[j];
        }
        pot[i] += p;
        gx[i] += ax;
        gy[i] += ay;
        gz[i] += az;
    }
}

/// The potential tile of the two `1/√r²` kernels — `k` is [`Coulomb`]
/// (`GUARD`: `r² = 0 → 0`, `eps2` unused) or [`RegularizedCoulomb`]
/// (`eps2 = ε²`): the AVX-512 body where the host has it, `k`'s portable
/// body everywhere else. The same bits either way, so this is a selection
/// the code observes, not an option anyone sets.
#[inline]
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn inv_sqrt_tile<const GUARD: bool>(
    k: &impl Kernel,
    eps2: f64,
    t: (&[f64], &[f64], &[f64]),
    s: (&[f64], &[f64], &[f64], &[f64]),
    out: &mut [f64],
) {
    #[cfg(target_arch = "x86_64")]
    if avx512::tile::<GUARD, 1>(eps2, t, s, &mut [&mut *out]) {
        return;
    }
    portable_tile(k, t, s, out);
}

/// The field tile of the same two kernels, selected the same way.
#[inline]
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn inv_sqrt_field_tile<const GUARD: bool>(
    k: &impl GradientKernel,
    eps2: f64,
    t: (&[f64], &[f64], &[f64]),
    s: (&[f64], &[f64], &[f64], &[f64]),
    out: &mut [&mut [f64]; 4],
) {
    #[cfg(target_arch = "x86_64")]
    if avx512::tile::<GUARD, 4>(eps2, t, s, out) {
        return;
    }
    portable_field_tile(k, t, s, out);
}

/// A pairwise interaction kernel evaluated on the displacement `x - y`.
pub trait Kernel: Sync + Send {
    /// Evaluate `G(x, y)` given the displacement components `dx = x1 - y1`
    /// etc. Implementations must return `0.0` for a zero displacement if
    /// the kernel is singular at the origin (see the module docs).
    ///
    /// Must be a pure function of the displacement (and of `self`): the
    /// tile interleaves the evaluations of a block of targets, so a kernel
    /// that keeps state between calls would see a different call order
    /// than a per-target loop.
    fn eval(&self, dx: f64, dy: f64, dz: f64) -> f64;

    /// Accumulate one target-batch × source-cluster tile:
    /// `out[i] += Σ_j eval(t_i − s_j) · sq[j]`.
    ///
    /// The contract every engine's bitwise identity rests on — per
    /// target, exactly the scalar loop's operation sequence: an
    /// accumulator that starts at `0.0`, the sources in ascending order,
    /// each term `eval(tx − sx, ty − sy, tz − sz) * sq`, and a single
    /// final `out[i] += acc`. (Adding each term straight into `out[i]`
    /// would re-associate the sum against a pre-filled `out`.) Targets
    /// are independent of each other, which is what the blocked body
    /// exploits. An override must keep this contract.
    ///
    /// Panics if the target slices differ in length from `out`, or the
    /// source slices from `sq`.
    #[allow(clippy::too_many_arguments)]
    fn accumulate_tile(
        &self,
        tx: &[f64],
        ty: &[f64],
        tz: &[f64],
        sx: &[f64],
        sy: &[f64],
        sz: &[f64],
        sq: &[f64],
        out: &mut [f64],
    ) {
        portable_tile(self, (tx, ty, tz), (sx, sy, sz, sq), out);
    }

    /// Single-precision evaluation, for the mixed-precision mode the
    /// paper lists as future work (§5). The default round-trips through
    /// `eval`; performance-honest kernels override it with genuine `f32`
    /// arithmetic.
    fn eval_f32(&self, dx: f32, dy: f32, dz: f32) -> f32 {
        self.eval(dx as f64, dy as f64, dz as f64) as f32
    }

    /// Short human-readable name (used in harness output).
    fn name(&self) -> &'static str;

    /// Flop-equivalents per evaluation on a CPU core (libm transcendentals).
    fn flops_per_eval_cpu(&self) -> f64;

    /// Flop-equivalents per evaluation on a GPU (special-function units).
    fn flops_per_eval_gpu(&self) -> f64;
}

/// A kernel with an analytic gradient — what force computations need
/// (the paper's intro: "electrostatic or gravitational potentials and
/// forces"). The gradient is taken with respect to the **target**
/// coordinates; the force on a unit charge at the target is `-∇φ`.
pub trait GradientKernel: Kernel {
    /// Evaluate `(G, ∂G/∂x₁, ∂G/∂x₂, ∂G/∂x₃)` at displacement
    /// `(dx, dy, dz) = x - y`. Must return all zeros at zero displacement
    /// for singular kernels (the self-interaction convention).
    ///
    /// Must be a pure function of the displacement, for the same reason
    /// as [`Kernel::eval`].
    fn eval_with_grad(&self, dx: f64, dy: f64, dz: f64) -> (f64, f64, f64, f64);

    /// The four-column twin of [`Kernel::accumulate_tile`]: potential and
    /// gradient of one target-batch × source-cluster tile, accumulated
    /// into `pot`, `gx`, `gy`, `gz`.
    ///
    /// Same contract, per column: four accumulators per target starting
    /// at `0.0`, sources ascending, terms `g * sq`, `∂ₓg * sq`, `∂ᵧg * sq`,
    /// `∂_z g * sq` from one `eval_with_grad(tx − sx, ty − sy, tz − sz)`,
    /// and one final `+=` into each output.
    ///
    /// Panics on mismatched slice lengths.
    #[allow(clippy::too_many_arguments)]
    fn accumulate_field_tile(
        &self,
        tx: &[f64],
        ty: &[f64],
        tz: &[f64],
        sx: &[f64],
        sy: &[f64],
        sz: &[f64],
        sq: &[f64],
        pot: &mut [f64],
        gx: &mut [f64],
        gy: &mut [f64],
        gz: &mut [f64],
    ) {
        portable_field_tile(self, (tx, ty, tz), (sx, sy, sz, sq), &mut [pot, gx, gy, gz]);
    }

    /// Flop-equivalents per gradient evaluation on the GPU. A field
    /// evaluation produces four outputs (potential + three derivatives)
    /// and quadruples the multiply/accumulate traffic even though the
    /// radial subexpressions are shared — ~4× a potential-only
    /// evaluation, which is what the device clock charges.
    fn grad_flops_per_eval_gpu(&self) -> f64 {
        self.flops_per_eval_gpu() * 4.0
    }

    /// Flop-equivalents per gradient evaluation on a CPU core (same ~4×
    /// argument as [`GradientKernel::grad_flops_per_eval_gpu`]).
    fn grad_flops_per_eval_cpu(&self) -> f64 {
        self.flops_per_eval_cpu() * 4.0
    }
}

/// What one evaluation pass produces per target: `C` output columns —
/// the potential (`C = 1`, implemented by `dyn Kernel`) or the potential
/// and its gradient (`C = 4`, `[φ, ∂ₓφ, ∂ᵧφ, ∂_zφ]`, implemented by
/// `dyn GradientKernel`).
///
/// This is the only place the two passes differ. Every layer above the
/// tile — the CPU engines, the simulated-GPU launches, the LET
/// evaluation, the distributed rank body and its clocks — is written
/// once against this trait, so a pass is chosen by handing over
/// `&dyn Kernel` or `&dyn GradientKernel` and nothing else.
pub trait TileOp<const C: usize>: Sync {
    /// Simulated launch name of the batch–cluster approximation kernel
    /// (profile tables are keyed by it).
    const APPROX_LAUNCH: &'static str;

    /// Simulated launch name of the batch–cluster direct-sum kernel.
    const DIRECT_LAUNCH: &'static str;

    /// `f64` columns a launch touches per target: three coordinates and
    /// the `C` outputs (the `4` vs `7` of every device byte formula).
    const TARGET_COLS: usize = 3 + C;

    /// One target-batch × source-cluster tile accumulated into the `C`
    /// output columns: targets `(x, y, z)`, sources `(x, y, z, weight)` —
    /// a cluster's particles with their charges, or its Chebyshev
    /// proxies with its modified charges.
    fn tile(
        &self,
        t: (&[f64], &[f64], &[f64]),
        s: (&[f64], &[f64], &[f64], &[f64]),
        out: &mut [&mut [f64]; C],
    );

    /// Flop-equivalents per target–source pair on the GPU or a CPU core.
    fn flops_per_pair(&self, gpu: bool) -> f64;
}

impl TileOp<1> for dyn Kernel + '_ {
    const APPROX_LAUNCH: &'static str = "batch_cluster_approx";
    const DIRECT_LAUNCH: &'static str = "batch_cluster_direct";

    #[inline]
    fn tile(
        &self,
        (tx, ty, tz): (&[f64], &[f64], &[f64]),
        (sx, sy, sz, sq): (&[f64], &[f64], &[f64], &[f64]),
        [pot]: &mut [&mut [f64]; 1],
    ) {
        self.accumulate_tile(tx, ty, tz, sx, sy, sz, sq, pot);
    }

    fn flops_per_pair(&self, gpu: bool) -> f64 {
        if gpu {
            self.flops_per_eval_gpu()
        } else {
            self.flops_per_eval_cpu()
        }
    }
}

impl TileOp<4> for dyn GradientKernel + '_ {
    const APPROX_LAUNCH: &'static str = "batch_cluster_approx_field";
    const DIRECT_LAUNCH: &'static str = "batch_cluster_direct_field";

    #[inline]
    fn tile(
        &self,
        (tx, ty, tz): (&[f64], &[f64], &[f64]),
        (sx, sy, sz, sq): (&[f64], &[f64], &[f64], &[f64]),
        [pot, gx, gy, gz]: &mut [&mut [f64]; 4],
    ) {
        self.accumulate_field_tile(tx, ty, tz, sx, sy, sz, sq, pot, gx, gy, gz);
    }

    fn flops_per_pair(&self, gpu: bool) -> f64 {
        if gpu {
            self.grad_flops_per_eval_gpu()
        } else {
            self.grad_flops_per_eval_cpu()
        }
    }
}

impl GradientKernel for Coulomb {
    #[inline]
    fn eval_with_grad(&self, dx: f64, dy: f64, dz: f64) -> (f64, f64, f64, f64) {
        let r2 = dx * dx + dy * dy + dz * dz;
        let inv_r = 1.0 / r2.sqrt();
        // ∂(1/r)/∂dx = -dx / r³
        let c = -inv_r / r2;
        // Four selects, not an early return, so that the portable tile
        // vectorises (a plain `if` is turned back into a branch around the
        // divides); what a select discards at `r² = 0` is ∞ or NaN.
        let apart = |v: f64| std::hint::select_unpredictable(r2 == 0.0, 0.0, v);
        (apart(inv_r), apart(c * dx), apart(c * dy), apart(c * dz))
    }

    fn accumulate_field_tile(
        &self,
        tx: &[f64],
        ty: &[f64],
        tz: &[f64],
        sx: &[f64],
        sy: &[f64],
        sz: &[f64],
        sq: &[f64],
        pot: &mut [f64],
        gx: &mut [f64],
        gy: &mut [f64],
        gz: &mut [f64],
    ) {
        let (t, s) = ((tx, ty, tz), (sx, sy, sz, sq));
        inv_sqrt_field_tile::<true>(self, 0.0, t, s, &mut [pot, gx, gy, gz]);
    }
}

impl GradientKernel for Yukawa {
    #[inline]
    fn eval_with_grad(&self, dx: f64, dy: f64, dz: f64) -> (f64, f64, f64, f64) {
        let r2 = dx * dx + dy * dy + dz * dz;
        if r2 == 0.0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        let r = r2.sqrt();
        let g = (-self.kappa * r).exp() / r;
        // ∂(e^{-κr}/r)/∂dx = -dx (κ r + 1) e^{-κr} / r³
        let c = -g * (self.kappa * r + 1.0) / r2;
        (g, c * dx, c * dy, c * dz)
    }
}

impl GradientKernel for RegularizedCoulomb {
    #[inline]
    fn eval_with_grad(&self, dx: f64, dy: f64, dz: f64) -> (f64, f64, f64, f64) {
        let d2 = dx * dx + dy * dy + dz * dz + self.epsilon * self.epsilon;
        let inv_d = 1.0 / d2.sqrt();
        let c = -inv_d / d2;
        (inv_d, c * dx, c * dy, c * dz)
    }

    fn accumulate_field_tile(
        &self,
        tx: &[f64],
        ty: &[f64],
        tz: &[f64],
        sx: &[f64],
        sy: &[f64],
        sz: &[f64],
        sq: &[f64],
        pot: &mut [f64],
        gx: &mut [f64],
        gy: &mut [f64],
        gz: &mut [f64],
    ) {
        let (t, s) = ((tx, ty, tz), (sx, sy, sz, sq));
        let eps2 = self.epsilon * self.epsilon;
        inv_sqrt_field_tile::<false>(self, eps2, t, s, &mut [pot, gx, gy, gz]);
    }
}

impl GradientKernel for Gaussian {
    #[inline]
    fn eval_with_grad(&self, dx: f64, dy: f64, dz: f64) -> (f64, f64, f64, f64) {
        let r2 = dx * dx + dy * dy + dz * dz;
        let g = (-r2 / (self.sigma * self.sigma)).exp();
        let c = -2.0 / (self.sigma * self.sigma) * g;
        (g, c * dx, c * dy, c * dz)
    }
}

/// Mixed-precision wrapper (§5 future work): kernel evaluations in
/// `f32`, accumulation kept in `f64` by the engines.
///
/// On GPUs of the paper's era single-precision throughput is ≥2× the
/// double-precision rate (Titan V: 13.8 vs 6.9 TFLOP/s), which the GPU
/// flop estimate reflects; the price is an error floor near the `f32`
/// rounding level (~1e-7 relative), visible in the
/// `ablation_precision` harness.
#[derive(Debug, Clone, Copy)]
pub struct MixedPrecision<K: Kernel>(pub K);

impl<K: Kernel> Kernel for MixedPrecision<K> {
    #[inline]
    fn eval(&self, dx: f64, dy: f64, dz: f64) -> f64 {
        self.0.eval_f32(dx as f32, dy as f32, dz as f32) as f64
    }

    fn eval_f32(&self, dx: f32, dy: f32, dz: f32) -> f32 {
        self.0.eval_f32(dx, dy, dz)
    }

    fn name(&self) -> &'static str {
        "mixed-precision"
    }

    // f32 SIMD lanes double CPU throughput too.
    fn flops_per_eval_cpu(&self) -> f64 {
        self.0.flops_per_eval_cpu() * 0.5
    }

    fn flops_per_eval_gpu(&self) -> f64 {
        self.0.flops_per_eval_gpu() * 0.5
    }
}

/// The Coulomb potential `G(x, y) = 1 / |x - y|` (also the gravitational
/// monopole kernel when charges are masses).
#[derive(Debug, Clone, Copy, Default)]
pub struct Coulomb;

impl Kernel for Coulomb {
    #[inline]
    fn eval(&self, dx: f64, dy: f64, dz: f64) -> f64 {
        let r2 = dx * dx + dy * dy + dz * dz;
        if r2 == 0.0 {
            0.0
        } else {
            1.0 / r2.sqrt()
        }
    }

    fn accumulate_tile(
        &self,
        tx: &[f64],
        ty: &[f64],
        tz: &[f64],
        sx: &[f64],
        sy: &[f64],
        sz: &[f64],
        sq: &[f64],
        out: &mut [f64],
    ) {
        inv_sqrt_tile::<true>(self, 0.0, (tx, ty, tz), (sx, sy, sz, sq), out);
    }

    #[inline]
    fn eval_f32(&self, dx: f32, dy: f32, dz: f32) -> f32 {
        let r2 = dx * dx + dy * dy + dz * dz;
        if r2 == 0.0 {
            0.0
        } else {
            1.0 / r2.sqrt()
        }
    }

    fn name(&self) -> &'static str {
        "coulomb"
    }

    // 3 mul + 2 add for r², a divider √ ≈ 4, div ≈ 3 ⇒ ~12 flop-equivalents:
    // the price of `eval`'s own instructions, which the portable tile and
    // the oracles issue. The AVX-512 tile gets the same √ from the FMA
    // pipes; the modeled CPU clocks keep charging this number regardless.
    fn flops_per_eval_cpu(&self) -> f64 {
        12.0
    }

    // rsqrt is a single SFU op on the GPU: 3 mul + 2 add + rsqrt(1) + mul.
    fn flops_per_eval_gpu(&self) -> f64 {
        7.0
    }
}

/// The Yukawa (screened Coulomb) potential `G(x, y) = e^{-κ|x-y|} / |x-y|`
/// with inverse Debye length `κ`.
#[derive(Debug, Clone, Copy)]
pub struct Yukawa {
    /// Inverse Debye length κ.
    pub kappa: f64,
}

impl Yukawa {
    /// Construct with screening parameter `κ >= 0` (the paper uses 0.5).
    pub fn new(kappa: f64) -> Self {
        assert!(kappa >= 0.0 && kappa.is_finite(), "invalid kappa: {kappa}");
        Self { kappa }
    }
}

impl Default for Yukawa {
    /// The paper's choice, κ = 0.5.
    fn default() -> Self {
        Self { kappa: 0.5 }
    }
}

impl Kernel for Yukawa {
    #[inline]
    fn eval(&self, dx: f64, dy: f64, dz: f64) -> f64 {
        let r2 = dx * dx + dy * dy + dz * dz;
        if r2 == 0.0 {
            0.0
        } else {
            let r = r2.sqrt();
            (-self.kappa * r).exp() / r
        }
    }

    #[inline]
    fn eval_f32(&self, dx: f32, dy: f32, dz: f32) -> f32 {
        let r2 = dx * dx + dy * dy + dz * dz;
        if r2 == 0.0 {
            0.0
        } else {
            let r = r2.sqrt();
            (-(self.kappa as f32) * r).exp() / r
        }
    }

    fn name(&self) -> &'static str {
        "yukawa"
    }

    // Coulomb cost + libm exp ≈ 9 ⇒ ≈ 1.8× the Coulomb CPU cost.
    fn flops_per_eval_cpu(&self) -> f64 {
        21.6
    }

    // Coulomb cost + SFU exp ≈ 3.5 ⇒ ≈ 1.5× the Coulomb GPU cost.
    fn flops_per_eval_gpu(&self) -> f64 {
        10.5
    }
}

/// Regularized (softened) Yukawa
/// `G = e^{-κ d} / d` with `d = sqrt(|x-y|² + ε²)` — the screened
/// electrostatic kernel with a finite-ion-size core, the standard
/// interaction for electrolyte / coarse-grained MD boxes where bare
/// Yukawa ion pairs would collapse into the singularity. Smooth
/// everywhere; reduces to [`Yukawa`] as `ε → 0` and to
/// [`RegularizedCoulomb`] at `κ = 0`.
#[derive(Debug, Clone, Copy)]
pub struct RegularizedYukawa {
    /// Inverse Debye length κ ≥ 0.
    pub kappa: f64,
    /// Softening (ion-core) length ε > 0.
    pub epsilon: f64,
}

impl RegularizedYukawa {
    /// Construct with screening `κ ≥ 0` and softening `ε > 0`.
    pub fn new(kappa: f64, epsilon: f64) -> Self {
        assert!(kappa >= 0.0 && kappa.is_finite(), "invalid kappa: {kappa}");
        assert!(epsilon > 0.0 && epsilon.is_finite(), "invalid epsilon");
        Self { kappa, epsilon }
    }
}

impl Kernel for RegularizedYukawa {
    #[inline]
    fn eval(&self, dx: f64, dy: f64, dz: f64) -> f64 {
        let d2 = dx * dx + dy * dy + dz * dz + self.epsilon * self.epsilon;
        let d = d2.sqrt();
        (-self.kappa * d).exp() / d
    }

    fn name(&self) -> &'static str {
        "regularized-yukawa"
    }

    // Yukawa cost + the softening add.
    fn flops_per_eval_cpu(&self) -> f64 {
        23.6
    }

    fn flops_per_eval_gpu(&self) -> f64 {
        11.5
    }
}

impl GradientKernel for RegularizedYukawa {
    #[inline]
    fn eval_with_grad(&self, dx: f64, dy: f64, dz: f64) -> (f64, f64, f64, f64) {
        let d2 = dx * dx + dy * dy + dz * dz + self.epsilon * self.epsilon;
        let d = d2.sqrt();
        let g = (-self.kappa * d).exp() / d;
        // ∂(e^{-κd}/d)/∂dx = -dx (κ d + 1) e^{-κd} / d³
        let c = -g * (self.kappa * d + 1.0) / d2;
        (g, c * dx, c * dy, c * dz)
    }
}

/// Regularized (Plummer-softened) Coulomb `G = 1 / sqrt(|x-y|² + ε²)`,
/// ubiquitous in gravitational N-body codes; smooth everywhere, so no
/// singularity guard is needed.
#[derive(Debug, Clone, Copy)]
pub struct RegularizedCoulomb {
    /// Softening length ε > 0.
    pub epsilon: f64,
}

impl RegularizedCoulomb {
    /// Construct with softening length `ε > 0`.
    pub fn new(epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon.is_finite(), "invalid epsilon");
        Self { epsilon }
    }
}

impl Kernel for RegularizedCoulomb {
    #[inline]
    fn eval(&self, dx: f64, dy: f64, dz: f64) -> f64 {
        let r2 = dx * dx + dy * dy + dz * dz + self.epsilon * self.epsilon;
        1.0 / r2.sqrt()
    }

    fn accumulate_tile(
        &self,
        tx: &[f64],
        ty: &[f64],
        tz: &[f64],
        sx: &[f64],
        sy: &[f64],
        sz: &[f64],
        sq: &[f64],
        out: &mut [f64],
    ) {
        let eps2 = self.epsilon * self.epsilon;
        inv_sqrt_tile::<false>(self, eps2, (tx, ty, tz), (sx, sy, sz, sq), out);
    }

    fn name(&self) -> &'static str {
        "regularized-coulomb"
    }

    fn flops_per_eval_cpu(&self) -> f64 {
        14.0
    }

    fn flops_per_eval_gpu(&self) -> f64 {
        8.0
    }
}

/// Gaussian kernel `G = e^{-|x-y|²/σ²}`; smooth, rapidly decaying —
/// representative of RBF interpolation workloads.
#[derive(Debug, Clone, Copy)]
pub struct Gaussian {
    /// Length scale σ > 0.
    pub sigma: f64,
}

impl Gaussian {
    /// Construct with length scale `σ > 0`.
    pub fn new(sigma: f64) -> Self {
        assert!(sigma > 0.0 && sigma.is_finite(), "invalid sigma");
        Self { sigma }
    }
}

impl Kernel for Gaussian {
    #[inline]
    fn eval(&self, dx: f64, dy: f64, dz: f64) -> f64 {
        let r2 = dx * dx + dy * dy + dz * dz;
        (-r2 / (self.sigma * self.sigma)).exp()
    }

    fn name(&self) -> &'static str {
        "gaussian"
    }

    fn flops_per_eval_cpu(&self) -> f64 {
        16.0
    }

    fn flops_per_eval_gpu(&self) -> f64 {
        9.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::particles::ParticleSet;

    #[test]
    fn coulomb_values() {
        let g = Coulomb;
        assert_eq!(g.eval(1.0, 0.0, 0.0), 1.0);
        assert!((g.eval(3.0, 4.0, 0.0) - 0.2).abs() < 1e-15);
        assert_eq!(g.eval(0.0, 0.0, 0.0), 0.0, "self-interaction is zero");
    }

    #[test]
    fn yukawa_reduces_to_coulomb_at_zero_kappa() {
        let y = Yukawa::new(0.0);
        let c = Coulomb;
        for &(dx, dy, dz) in &[(1.0, 2.0, 3.0), (0.5, 0.0, 0.0), (-2.0, 1.0, -1.0)] {
            assert!((y.eval(dx, dy, dz) - c.eval(dx, dy, dz)).abs() < 1e-15);
        }
    }

    #[test]
    fn yukawa_screens() {
        let y = Yukawa::default();
        assert_eq!(y.kappa, 0.5);
        let r1 = y.eval(1.0, 0.0, 0.0);
        assert!((r1 - (-0.5f64).exp()).abs() < 1e-15);
        // Stronger screening at larger distance relative to Coulomb.
        let c = Coulomb;
        assert!(y.eval(10.0, 0.0, 0.0) / c.eval(10.0, 0.0, 0.0) < 0.01);
        assert_eq!(y.eval(0.0, 0.0, 0.0), 0.0);
    }

    #[test]
    fn regularized_yukawa_limits() {
        // ε → 0 recovers Yukawa away from the origin.
        let ry = RegularizedYukawa::new(0.5, 1e-9);
        let y = Yukawa::new(0.5);
        assert!((ry.eval(1.0, 2.0, -0.5) - y.eval(1.0, 2.0, -0.5)).abs() < 1e-12);
        // κ = 0 recovers the regularized Coulomb exactly.
        let rc = RegularizedCoulomb::new(0.1);
        let r0 = RegularizedYukawa::new(0.0, 0.1);
        assert_eq!(r0.eval(0.3, -0.4, 0.5), rc.eval(0.3, -0.4, 0.5));
        // Finite (no singularity guard needed) at zero displacement.
        let r = RegularizedYukawa::new(2.0, 0.1);
        assert!((r.eval(0.0, 0.0, 0.0) - (-0.2f64).exp() * 10.0).abs() < 1e-12);
    }

    #[test]
    fn regularized_yukawa_gradient_matches_finite_differences() {
        let k = RegularizedYukawa::new(2.0, 0.1);
        let (x, y, z) = (0.3, -0.7, 0.4);
        let h = 1e-6;
        let (_, gx, gy, gz) = k.eval_with_grad(x, y, z);
        let fd = |f: f64, b: f64| (f - b) / (2.0 * h);
        let dx = fd(k.eval(x + h, y, z), k.eval(x - h, y, z));
        let dy = fd(k.eval(x, y + h, z), k.eval(x, y - h, z));
        let dz = fd(k.eval(x, y, z + h), k.eval(x, y, z - h));
        assert!((gx - dx).abs() < 1e-7, "gx {gx} vs fd {dx}");
        assert!((gy - dy).abs() < 1e-7);
        assert!((gz - dz).abs() < 1e-7);
    }

    #[test]
    fn regularized_coulomb_is_finite_at_origin() {
        let g = RegularizedCoulomb::new(0.1);
        assert!((g.eval(0.0, 0.0, 0.0) - 10.0).abs() < 1e-12);
        // Approaches Coulomb at large r.
        let far = g.eval(100.0, 0.0, 0.0);
        assert!((far - 0.01).abs() < 1e-6);
    }

    #[test]
    fn gaussian_peaks_at_origin() {
        let g = Gaussian::new(2.0);
        assert_eq!(g.eval(0.0, 0.0, 0.0), 1.0);
        assert!(g.eval(2.0, 0.0, 0.0) < 1.0);
        assert!((g.eval(2.0, 0.0, 0.0) - (-1.0f64).exp()).abs() < 1e-15);
    }

    #[test]
    fn cost_ratios_match_paper_observations() {
        // §4: Yukawa is ≈1.8× Coulomb on CPU, ≈1.5× on GPU.
        let c = Coulomb;
        let y = Yukawa::default();
        let cpu_ratio = y.flops_per_eval_cpu() / c.flops_per_eval_cpu();
        let gpu_ratio = y.flops_per_eval_gpu() / c.flops_per_eval_gpu();
        assert!((cpu_ratio - 1.8).abs() < 0.05, "cpu ratio {cpu_ratio}");
        assert!((gpu_ratio - 1.5).abs() < 0.05, "gpu ratio {gpu_ratio}");
    }

    #[test]
    fn gradient_flop_model_is_4x_per_device() {
        // Force kernels (potential + three derivatives) charge ~4× the
        // potential-only flops on both device classes — the cost the
        // distributed field pipeline's clocks must reflect.
        let kernels: Vec<Box<dyn GradientKernel>> = vec![
            Box::new(Coulomb),
            Box::new(Yukawa::default()),
            Box::new(RegularizedCoulomb::new(0.1)),
            Box::new(Gaussian::new(1.0)),
        ];
        for k in &kernels {
            assert_eq!(k.grad_flops_per_eval_gpu(), k.flops_per_eval_gpu() * 4.0);
            assert_eq!(k.grad_flops_per_eval_cpu(), k.flops_per_eval_cpu() * 4.0);
        }
    }

    #[test]
    #[should_panic(expected = "invalid kappa")]
    fn negative_kappa_panics() {
        let _ = Yukawa::new(-1.0);
    }

    #[test]
    fn mixed_precision_tracks_f64_kernel() {
        let m = MixedPrecision(Coulomb);
        let exact = Coulomb.eval(0.3, -0.7, 1.1);
        let mixed = m.eval(0.3, -0.7, 1.1);
        let rel = ((exact - mixed) / exact).abs();
        assert!(rel > 0.0, "f32 path must actually round");
        assert!(rel < 1e-6, "f32 relative error too large: {rel}");
        assert_eq!(m.eval(0.0, 0.0, 0.0), 0.0);
        // Half the flop cost on both device classes.
        assert_eq!(m.flops_per_eval_gpu(), Coulomb.flops_per_eval_gpu() * 0.5);
        assert_eq!(m.flops_per_eval_cpu(), Coulomb.flops_per_eval_cpu() * 0.5);
    }

    #[test]
    fn mixed_precision_yukawa_screens_like_f64() {
        let y = Yukawa::new(0.5);
        let m = MixedPrecision(y);
        for &(dx, dy, dz) in &[(1.0, 0.0, 0.0), (0.2, -0.4, 0.6), (3.0, 3.0, 3.0)] {
            let rel = ((y.eval(dx, dy, dz) - m.eval(dx, dy, dz)) / y.eval(dx, dy, dz)).abs();
            assert!(rel < 1e-5, "rel {rel} at ({dx},{dy},{dz})");
        }
    }

    #[test]
    fn default_eval_f32_roundtrips_through_f64() {
        // Kernels without a native f32 path fall back to the f64 one.
        let g = Gaussian::new(1.0);
        let v32 = g.eval_f32(0.5, 0.5, 0.5);
        let v64 = g.eval(0.5, 0.5, 0.5);
        assert!((v32 as f64 - v64).abs() < 1e-7);
    }

    /// A test-local kernel no engine has seen: the provided tiles must
    /// serve it like a built-in.
    struct InverseSquare;

    impl Kernel for InverseSquare {
        fn eval(&self, dx: f64, dy: f64, dz: f64) -> f64 {
            let r2 = dx * dx + dy * dy + dz * dz;
            if r2 == 0.0 {
                0.0
            } else {
                1.0 / r2
            }
        }
        fn name(&self) -> &'static str {
            "inverse-square"
        }
        fn flops_per_eval_cpu(&self) -> f64 {
            8.0
        }
        fn flops_per_eval_gpu(&self) -> f64 {
            6.0
        }
    }

    impl GradientKernel for InverseSquare {
        fn eval_with_grad(&self, dx: f64, dy: f64, dz: f64) -> (f64, f64, f64, f64) {
            let r2 = dx * dx + dy * dy + dz * dz;
            if r2 == 0.0 {
                return (0.0, 0.0, 0.0, 0.0);
            }
            let g = 1.0 / r2;
            let c = -2.0 * g / r2;
            (g, c * dx, c * dy, c * dz)
        }
    }

    /// Every target count up to past two AVX-512 vectors (0..=17: each lane
    /// of both accumulators, each length of the masked final step, and the
    /// portable block width 4 several times over), around the next vector
    /// pair (31, 32, 33) and a batch-sized 50, against empty, single,
    /// odd-sized and proxy-sized clusters. Every other target — even or odd
    /// ones, alternating with the cluster size, so every lane gets its turn
    /// — sits exactly on a source (the `r² = 0` self term, which also sends
    /// its vector down `sqrt_cr`'s hardware path while its neighbours take
    /// the FMA one), and the outputs start non-zero so a tile that sums
    /// straight into them is caught.
    ///
    /// One last case leaves the range the FMA square root accepts: from a
    /// source at the origin, targets at 1e-160 (`r²` subnormal), ±1e-170
    /// (`r²` underflows to 0 although the points differ: the guard fires,
    /// and with a negative `dy` the discarded gradient term is not `+0`, so
    /// the sign of the zero the guard hands to `· q` is compared too), 1e200
    /// (`r² = ∞`) and NaN, spread over every lane position among ordinary
    /// targets, with ordinary sources around.
    fn tile_cases() -> Vec<(ParticleSet, ParticleSet)> {
        let mut cases = Vec::new();
        for (a, nt) in (0..=17).chain([31, 32, 33, 50]).enumerate() {
            for (b, &ns) in [0usize, 1, 7, 125].iter().enumerate() {
                let seed = (10 * a + b) as u64;
                let sources = ParticleSet::random_cube(ns, 900 + seed);
                let mut targets = ParticleSet::random_cube(nt, 950 + seed);
                for i in (b % 2..nt).step_by(2).filter(|_| ns > 0) {
                    let j = (7 * i) % ns;
                    targets.x[i] = sources.x[j];
                    targets.y[i] = sources.y[j];
                    targets.z[i] = sources.z[j];
                }
                cases.push((targets, sources));
            }
        }
        let mut sources = ParticleSet::random_cube(9, 1900);
        (sources.x[4], sources.y[4], sources.z[4]) = (0.0, 0.0, 0.0);
        let mut targets = ParticleSet::random_cube(37, 1950);
        // Targets 0, 3, …, 36: all eight lanes, both accumulators, the tail.
        let separations = [1e-160, 1e-170, 1e200, f64::NAN, -1e-170];
        for (i, at) in (0..targets.len()).step_by(3).enumerate() {
            (targets.x[at], targets.y[at], targets.z[at]) = (0.0, separations[i % 5], 0.0);
        }
        cases.push((targets, sources));
        cases
    }

    fn prefilled(n: usize, salt: f64) -> Vec<f64> {
        (0..n).map(|i| salt + 0.37 * i as f64).collect()
    }

    /// Bit patterns, with every NaN mapped to one: which NaN an operation
    /// returns (sign, payload) is not part of any contract here.
    fn bits(v: &[f64]) -> Vec<u64> {
        let canonical = |x: &f64| if x.is_nan() { f64::NAN } else { *x };
        v.iter().map(|x| canonical(x).to_bits()).collect()
    }

    #[test]
    fn tile_equals_per_target_eval_loop_bitwise() {
        let kernels: Vec<Box<dyn Kernel>> = vec![
            Box::new(Coulomb),
            Box::new(Yukawa::new(0.5)),
            Box::new(RegularizedCoulomb::new(0.05)),
            Box::new(RegularizedYukawa::new(0.5, 0.05)),
            Box::new(Gaussian::new(1.5)),
            Box::new(MixedPrecision(Coulomb)),
            Box::new(InverseSquare),
        ];
        for k in &kernels {
            for (t, s) in tile_cases() {
                // What the engines call (for `Coulomb` and
                // `RegularizedCoulomb` the AVX-512 body, where the host has
                // it), and the portable body whatever the dispatch picked.
                let mut tile = prefilled(t.len(), -3.25);
                k.accumulate_tile(&t.x, &t.y, &t.z, &s.x, &s.y, &s.z, &s.q, &mut tile);
                let mut portable = prefilled(t.len(), -3.25);
                let (tt, ss) = ((&*t.x, &*t.y, &*t.z), (&*s.x, &*s.y, &*s.z, &*s.q));
                portable_tile(k.as_ref(), tt, ss, &mut portable);
                let mut oracle = prefilled(t.len(), -3.25);
                for (i, slot) in oracle.iter_mut().enumerate() {
                    let mut acc = 0.0;
                    for j in 0..s.len() {
                        acc += k.eval(t.x[i] - s.x[j], t.y[i] - s.y[j], t.z[i] - s.z[j]) * s.q[j];
                    }
                    *slot += acc;
                }
                let shape = (k.name(), t.len(), s.len());
                assert_eq!(bits(&tile), bits(&oracle), "{shape:?}");
                assert_eq!(bits(&portable), bits(&oracle), "portable {shape:?}");
            }
        }
    }

    #[test]
    fn field_tile_equals_per_target_eval_loop_bitwise() {
        let kernels: Vec<Box<dyn GradientKernel>> = vec![
            Box::new(Coulomb),
            Box::new(Yukawa::new(0.5)),
            Box::new(RegularizedCoulomb::new(0.05)),
            Box::new(RegularizedYukawa::new(0.5, 0.05)),
            Box::new(Gaussian::new(1.5)),
            Box::new(InverseSquare),
        ];
        for k in &kernels {
            for (t, s) in tile_cases() {
                // As in the potential test: what the engines call, and the
                // portable body whatever the dispatch picked.
                let n = t.len();
                let mut tile = [1.5, -0.75, 2.0, 9.0].map(|salt| prefilled(n, salt));
                let [p, gx, gy, gz] = &mut tile;
                k.accumulate_field_tile(&t.x, &t.y, &t.z, &s.x, &s.y, &s.z, &s.q, p, gx, gy, gz);
                let mut portable = [1.5, -0.75, 2.0, 9.0].map(|salt| prefilled(n, salt));
                let (tt, ss) = ((&*t.x, &*t.y, &*t.z), (&*s.x, &*s.y, &*s.z, &*s.q));
                portable_field_tile(
                    k.as_ref(),
                    tt,
                    ss,
                    &mut portable.each_mut().map(|c| &mut c[..]),
                );
                let mut oracle = [1.5, -0.75, 2.0, 9.0].map(|salt| prefilled(n, salt));
                for i in 0..n {
                    let mut acc = [0.0; 4];
                    for j in 0..s.len() {
                        let (g, dx, dy, dz) =
                            k.eval_with_grad(t.x[i] - s.x[j], t.y[i] - s.y[j], t.z[i] - s.z[j]);
                        acc[0] += g * s.q[j];
                        acc[1] += dx * s.q[j];
                        acc[2] += dy * s.q[j];
                        acc[3] += dz * s.q[j];
                    }
                    for (col, a) in oracle.iter_mut().zip(acc) {
                        col[i] += a;
                    }
                }
                let shape = (k.name(), n, s.len());
                for c in 0..4 {
                    assert_eq!(bits(&tile[c]), bits(&oracle[c]), "{shape:?} column {c}");
                    assert_eq!(
                        bits(&portable[c]),
                        bits(&oracle[c]),
                        "portable {shape:?} column {c}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "tile source slices differ")]
    fn tile_rejects_mismatched_source_lengths() {
        let mut out = [0.0];
        Coulomb.accumulate_tile(
            &[0.0],
            &[0.0],
            &[0.0],
            &[1.0, 2.0],
            &[1.0],
            &[1.0],
            &[1.0],
            &mut out,
        );
    }

    #[test]
    #[should_panic(expected = "tile output slices differ")]
    fn field_tile_rejects_a_short_gradient_column() {
        let (mut pot, mut gx, mut gy, mut gz) = ([0.0; 2], [0.0; 2], [0.0; 1], [0.0; 2]);
        let t = [0.0, 1.0];
        RegularizedCoulomb::new(0.1).accumulate_field_tile(
            &t,
            &t,
            &t,
            &[1.0],
            &[1.0],
            &[1.0],
            &[1.0],
            &mut pot,
            &mut gx,
            &mut gy,
            &mut gz,
        );
    }

    #[test]
    fn kernels_are_object_safe() {
        let kernels: Vec<Box<dyn Kernel>> = vec![
            Box::new(Coulomb),
            Box::new(Yukawa::default()),
            Box::new(RegularizedCoulomb::new(0.05)),
            Box::new(Gaussian::new(1.0)),
        ];
        for k in &kernels {
            assert!(k.eval(1.0, 1.0, 1.0).is_finite());
            assert!(!k.name().is_empty());
        }
    }
}
