//! The AVX-512 potential and field tiles of the Coulomb family (`1/√r²`,
//! bare or softened), and the two correctly rounded FMA sequences inside
//! them: the square root, and the reciprocal of that square root. The
//! same per-pair body runs in two walks over the sources: [`tile`], over
//! flat source slices (a cluster's particles), and [`grid_tile`], over
//! the tensor grid of a cluster's Chebyshev proxies (degree ≤ 7), which
//! forms each axis' differences and squares once per node instead of
//! once per pair. Beside them, [`exp_tile`]: the exp family's portable
//! lane body, compiled a second time for AVX-512F. And [`charges`]: the
//! modified-charge body of [`crate::charges`] for grids up to eight nodes
//! wide, a term pass with eight particles in lanes and a scatter that
//! keeps a block of `q̂` in registers (measured in
//! `ClusterCharges::compute_selected`'s doc).
//!
//! Everything here computes exactly what the portable bodies compute —
//! see "Tiles" in the [parent module](super), and "Why the bits cannot
//! move" in [`crate::charges`], for what that means and why it can be
//! asserted with `==`. This is the only module of the library crates that
//! contains `unsafe`: masked memory accesses, and the four calls, from
//! [`tile`], [`grid_tile`], [`exp_tile`] and [`charges`], into
//! `#[target_feature]` code.
//!
//! Neither [`sqrt_fma`]'s nor [`recip_fma`]'s operation sequence may be
//! shortened, reordered or given a wider accepted range: each is correct
//! because every step has the accuracy the next one needs, not because
//! each step looks reasonable. For the square root the corpus in this
//! file's tests is the check (`cargo test --release -p bltc-core kernel`
//! for the full 2·10⁸ samples). **For the reciprocal it is not enough.**
//! Mutation-checked when the sequence was written: without the all-ones
//! exception the neighbourhood and hardest-case tests fail (`x =
//! 0x3feffffffffffffe`: 1.0 instead of 1.0000000000000002) but 2·10⁸
//! random inputs do not; with *one* refinement step instead of two —
//! straight from `2h` — nothing fails at all, in 2·10⁸ random and 2·10⁷
//! constructed cases. The second step is there because the theorem that
//! makes the last step round correctly assumes a seed within one ulp, and
//! `2h` is only within two; it may not be removed on the strength of the
//! corpus.

use std::arch::x86_64::*;

use crate::interp::barycentric::{dim_terms, SINGULARITY_TOL};
use crate::interp::tensor::TensorGrid;

/// Targets in one `__m512d`.
const LANES: usize = 8;

/// Bit patterns of the bounds of the range `[2⁻⁷⁶⁷, 2⁷⁶⁸)` in which
/// [`sqrt_fma`] is trusted: none of its intermediates (`g·g`, the
/// `2⁻⁵³`-relative residual `d`) can overflow or lose bits to underflow.
const LO_BITS: u64 = (1023 - 767) << 52;
const HI_BITS: u64 = (1023 + 768) << 52;

/// Mask of the lanes of `x` in `[2⁻⁷⁶⁷, 2⁷⁶⁸)`. One unsigned compare on
/// the bit patterns, `bits(x) − LO <ᵤ HI − LO`, rejects zero, subnormal,
/// tiny, huge, negative, ∞ and NaN lanes alike.
#[inline]
#[target_feature(enable = "avx512f")]
fn fast_range_lanes(x: __m512d) -> __mmask8 {
    let above_lo = _mm512_sub_epi64(_mm512_castpd_si512(x), _mm512_set1_epi64(LO_BITS as i64));
    let span = _mm512_set1_epi64((HI_BITS - LO_BITS) as i64);
    _mm512_cmplt_epu64_mask(above_lo, span)
}

/// Whether every lane of `x` is one [`sqrt_fma`] is trusted for.
#[inline]
#[target_feature(enable = "avx512f")]
fn all_in_fast_range(x: __m512d) -> bool {
    fast_range_lanes(x) == 0xff
}

/// Bits 52..1 of a double — the lowest exponent bit and all of the
/// fraction but its last bit — and their value in the two doubles below a
/// power of four, `4ᵏ(1 − 2⁻⁵³)` and `4ᵏ(1 − 2⁻⁵²)`: an odd exponent
/// `2k − 1` (biased: even, the bit clear) under a fraction of ones.
const BELOW_POWER_OF_FOUR_FIELD: i64 = ((1 << 52) - 1) << 1;
const BELOW_POWER_OF_FOUR: i64 = ((1 << 51) - 1) << 1;

/// Whether every lane of `x` is one both [`sqrt_fma`] and [`recip_fma`]
/// are trusted for: in the fast range, and with a square root whose
/// significand is not all ones, the one kind of divisor [`recip_fma`] may
/// round wrongly.
///
/// `RN(√x)` is the all-ones `2ᵏ(1 − 2⁻⁵³)` exactly for the two doubles
/// below `4ᵏ`: their roots, `2ᵏ(1 − 2⁻⁵⁴ − …)` and `2ᵏ(1 − 2⁻⁵³ − …)`,
/// lie within half an ulp of it, the root of the third, `2ᵏ(1 − 1.5·2⁻⁵³
/// − 1.125·2⁻¹⁰⁶ − …)`, lies just beyond the midpoint below, and no root
/// of the binade under those comes near. So the exception is decided on
/// `x`, before either sequence starts, in the same mask as the range.
#[inline]
#[target_feature(enable = "avx512f")]
fn all_in_recip_range(x: __m512d) -> bool {
    let field = _mm512_set1_epi64(BELOW_POWER_OF_FOUR_FIELD);
    let field = _mm512_and_si512(_mm512_castpd_si512(x), field);
    let below_power_of_four = _mm512_set1_epi64(BELOW_POWER_OF_FOUR);
    _mm512_mask_cmpneq_epu64_mask(fast_range_lanes(x), field, below_power_of_four) == 0xff
}

/// `√x` per lane on the FMA pipes, correctly rounded **for lanes in the
/// fast range only** (Markstein 1990; Cornea, Harrison & Tang 2002), and
/// the sequence's by-product `h ≈ 1/(2√x)`, the seed of [`recip_fma`].
///
/// `y ≈ 1/√x` to 14 bits; `g = x·y ≈ √x` and `h = y/2 ≈ 1/(2√x)` are
/// refined together, twice, by `r = ½ − g·h; g += g·r; h += h·r` (each
/// round squares the relative error: 2⁻¹⁴ → 2⁻²⁷ → below one ulp); then
/// Markstein's correction `d = x − g·g` (exact in an FMA, as `g` is within
/// an ulp of `√x`), `s = g + d·h`, whose single rounding is the correct one
/// because `√x` cannot lie closer than ~2⁻¹⁰⁷ to a rounding boundary and
/// `g + d·h` is closer than that to `√x`.
#[inline]
#[target_feature(enable = "avx512f")]
fn sqrt_fma(x: __m512d) -> (__m512d, __m512d) {
    let half = _mm512_set1_pd(0.5);
    let y = _mm512_rsqrt14_pd(x);
    let mut g = _mm512_mul_pd(x, y);
    let mut h = _mm512_mul_pd(half, y);
    for _ in 0..2 {
        let r = _mm512_fnmadd_pd(g, h, half);
        g = _mm512_fmadd_pd(g, r, g);
        h = _mm512_fmadd_pd(h, r, h);
    }
    let d = _mm512_fnmadd_pd(g, g, x);
    (_mm512_fmadd_pd(d, h, g), h)
}

/// `√x` per lane, correctly rounded (round to nearest even) for every
/// input, hence equal in every bit to `vsqrtpd`: [`sqrt_fma`] when all
/// lanes are in its range, the hardware instruction for a vector with any
/// lane outside it — a rare slow vector, never a different bit.
#[inline]
#[target_feature(enable = "avx512f")]
fn sqrt_cr(x: __m512d) -> __m512d {
    if all_in_fast_range(x) {
        sqrt_fma(x).0
    } else {
        _mm512_sqrt_pd(x)
    }
}

/// `1/s` per lane on the FMA pipes, correctly rounded, for `s` and `h`
/// returned by [`sqrt_fma`] **unless the significand of `s` is all ones**
/// (Markstein 1990, Theorem 8.3; Cornea, Harrison & Tang 2002 — IA-64's
/// `frcpa` divide).
///
/// `y = h + h` is within about two ulps of `1/s`. One Newton step, `e =
/// 1 − s·y` (exact to one rounding: `s·y` is within 2⁻⁵¹ of 1) and `y +=
/// y·e`, brings it within one ulp. From a `y` within one ulp the same step
/// *is* `RN(1/s)`: the theorem's hypothesis is that seed, and its one
/// exception is the all-ones `s`, the divisor just below a power of two
/// whose reciprocal sits closest above one. So neither step can be
/// dropped, although no test input of this file tells a single step from
/// two (see the module doc).
#[inline]
#[target_feature(enable = "avx512f")]
fn recip_fma(s: __m512d, h: __m512d) -> __m512d {
    let one = _mm512_set1_pd(1.0);
    let mut y = _mm512_add_pd(h, h);
    for _ in 0..2 {
        let e = _mm512_fnmadd_pd(s, y, one);
        y = _mm512_fmadd_pd(y, e, y);
    }
    y
}

/// `(s, 1/s)` per lane for `s = √x`, both correctly rounded for every
/// input, hence equal in every bit to `vsqrtpd` and `vdivpd`:
/// [`sqrt_fma`] and [`recip_fma`] for a vector they are both proved for,
/// the two hardware instructions for any other.
#[inline]
#[target_feature(enable = "avx512f")]
fn sqrt_recip_cr(x: __m512d) -> (__m512d, __m512d) {
    if all_in_recip_range(x) {
        let (s, h) = sqrt_fma(x);
        (s, recip_fma(s, h))
    } else {
        let s = _mm512_sqrt_pd(x);
        (s, _mm512_div_pd(_mm512_set1_pd(1.0), s))
    }
}

/// Mask of the first `min(n, LANES)` lanes.
#[inline]
fn first_lanes(n: usize) -> __mmask8 {
    ((1u16 << n.min(LANES)) - 1) as u8
}

/// `c[..LANES]`, or all of a shorter `c` with the missing lanes filled by
/// copies of `c[0]`: a pad lane then holds a live target, so it can send
/// its vector to a hardware fallback only when a real lane does too.
#[inline]
#[target_feature(enable = "avx512f")]
fn load_padded(c: &[f64]) -> __m512d {
    let pad = _mm512_set1_pd(c[0]);
    // SAFETY: a masked load touches only the lanes in its mask (faults on
    // the others are suppressed), and those are `c[..min(len, LANES)]`.
    unsafe { _mm512_mask_loadu_pd(pad, first_lanes(c.len()), c.as_ptr()) }
}

/// `c[..min(len, LANES)]`, the other lanes zero.
#[inline]
#[target_feature(enable = "avx512f")]
fn load_lanes(c: &[f64]) -> __m512d {
    // SAFETY: a masked load touches only the lanes in its mask (faults on
    // the others are suppressed), and those are `c[..min(len, LANES)]`.
    unsafe { _mm512_maskz_loadu_pd(first_lanes(c.len()), c.as_ptr()) }
}

/// `out[l] = v[l]` for the first `min(out.len(), LANES)` lanes.
#[inline]
#[target_feature(enable = "avx512f")]
fn store_lanes(out: &mut [f64], v: __m512d) {
    // SAFETY: a masked store touches only lanes `..min(len, LANES)` of
    // `out`, which the exclusive borrow makes ours to write.
    unsafe { _mm512_mask_storeu_pd(out.as_mut_ptr(), first_lanes(out.len()), v) }
}

/// `out[l] += acc[l]` for the first `min(out.len(), LANES)` lanes.
#[inline]
#[target_feature(enable = "avx512f")]
fn add_into(out: &mut [f64], acc: __m512d) {
    store_lanes(out, _mm512_add_pd(load_lanes(out), acc));
}

/// What one pair contributes to each of the `C` columns before `· q`:
/// `eval`'s `[1/s]` (`C = 1`, the divide in hardware) or
/// `eval_with_grad`'s `[inv, c·dx, c·dy, c·dz]` with `inv = 1/s` and `c =
/// (−inv)/r²` (`C = 4`; the reciprocal on the FMA pipes, the one true
/// divide in hardware), for `s = √r²`.
#[inline]
#[target_feature(enable = "avx512f")]
fn pair_terms<const C: usize>(
    r2: __m512d,
    (dx, dy, dz): (__m512d, __m512d, __m512d),
) -> [__m512d; C] {
    let mut terms = [_mm512_setzero_pd(); C];
    if C == 1 {
        terms[0] = _mm512_div_pd(_mm512_set1_pd(1.0), sqrt_cr(r2));
    } else {
        let inv = sqrt_recip_cr(r2).1;
        let sign = _mm512_set1_epi64(i64::MIN);
        let neg_inv = _mm512_castsi512_pd(_mm512_xor_si512(_mm512_castpd_si512(inv), sign));
        let c = _mm512_div_pd(neg_inv, r2);
        terms[0] = inv;
        terms[1] = _mm512_mul_pd(c, dx);
        terms[2] = _mm512_mul_pd(c, dy);
        terms[3] = _mm512_mul_pd(c, dz);
    }
    terms
}

/// One pair per lane into the `C` accumulators, from `r² = (dx·dx +
/// dy·dy) + dz·dz`: `+ ε²` (`!GUARD`), the terms, the guard's select
/// (`GUARD`: `r² = 0 → 0`), `· q` and the sum — the per-pair sequence
/// that both walks over the sources, [`block`] and [`grid_block`], share.
#[inline]
#[target_feature(enable = "avx512f")]
fn accumulate_pair<const GUARD: bool, const C: usize>(
    acc: &mut [__m512d; C],
    mut r2: __m512d,
    eps2: __m512d,
    d: (__m512d, __m512d, __m512d),
    q: __m512d,
) {
    if !GUARD {
        r2 = _mm512_add_pd(r2, eps2);
    }
    let mut terms = pair_terms::<C>(r2, d);
    if GUARD {
        let apart = _mm512_cmpneq_pd_mask(r2, _mm512_setzero_pd());
        for term in &mut terms {
            *term = _mm512_maskz_mov_pd(apart, *term);
        }
    }
    for (acc, term) in acc.iter_mut().zip(terms) {
        *acc = _mm512_add_pd(*acc, _mm512_mul_pd(term, q));
    }
}

/// `V` vectors of targets starting at target `i` (the last one padded if
/// the slices run out) against all sources, into `C` columns: per lane,
/// `eval`'s (`C = 1`) or `eval_with_grad`'s (`C = 4`) operations in their
/// order, separately rounded — the only fused operations are inside
/// [`sqrt_fma`] and [`recip_fma`].
#[inline]
#[target_feature(enable = "avx512f")]
fn block<const GUARD: bool, const V: usize, const C: usize>(
    eps2: f64,
    i: usize,
    (tx, ty, tz): (&[f64], &[f64], &[f64]),
    (sx, sy, sz, sq): (&[f64], &[f64], &[f64], &[f64]),
    out: &mut [&mut [f64]; C],
) {
    let zero = _mm512_setzero_pd();
    let eps2 = _mm512_set1_pd(eps2);
    let (mut x, mut y, mut z, mut acc) = ([zero; V], [zero; V], [zero; V], [[zero; C]; V]);
    for v in 0..V {
        x[v] = load_padded(&tx[i + v * LANES..]);
        y[v] = load_padded(&ty[i + v * LANES..]);
        z[v] = load_padded(&tz[i + v * LANES..]);
    }
    for (((&sx, &sy), &sz), &sq) in sx.iter().zip(sy).zip(sz).zip(sq) {
        let (xs, ys, zs) = (_mm512_set1_pd(sx), _mm512_set1_pd(sy), _mm512_set1_pd(sz));
        let q = _mm512_set1_pd(sq);
        for v in 0..V {
            let dx = _mm512_sub_pd(x[v], xs);
            let dy = _mm512_sub_pd(y[v], ys);
            let dz = _mm512_sub_pd(z[v], zs);
            let xx_yy = _mm512_add_pd(_mm512_mul_pd(dx, dx), _mm512_mul_pd(dy, dy));
            let r2 = _mm512_add_pd(xx_yy, _mm512_mul_pd(dz, dz));
            accumulate_pair::<GUARD, C>(&mut acc[v], r2, eps2, (dx, dy, dz), q);
        }
    }
    for (out, c) in out.iter_mut().zip(0..) {
        for v in 0..V {
            add_into(&mut out[i + v * LANES..], acc[v][c]);
        }
    }
}

/// Sixteen targets per step in two accumulator sets, so that one vector's
/// divide overlaps the other's FMA chain; a masked final step instead of
/// a scalar remainder.
#[target_feature(enable = "avx512f")]
fn tile_avx512<const GUARD: bool, const C: usize>(
    eps2: f64,
    t: (&[f64], &[f64], &[f64]),
    s: (&[f64], &[f64], &[f64], &[f64]),
    out: &mut [&mut [f64]; C],
) {
    let nt = out[0].len();
    for i in (0..nt).step_by(2 * LANES) {
        if nt - i > LANES {
            block::<GUARD, 2, C>(eps2, i, t, s, out);
        } else {
            block::<GUARD, 1, C>(eps2, i, t, s, out);
        }
    }
}

/// `out[c][i] += Σ_j term_c(t_i − s_j) · sq[j]` under the contract of
/// [`Kernel::potential_tile`](super::Kernel::potential_tile) (`C = 1`:
/// the potential) or of
/// [`GradientKernel::field_tile`](super::GradientKernel::field_tile)
/// (`C = 4`: potential and gradient), for `g = 1/√r²` with `g(0) = 0` and
/// `∇g(0) = 0` (`GUARD`; `eps2` unused) or for `g = 1/√(r² + eps2)`
/// (`!GUARD`).
///
/// Returns `false`, having done nothing, on a host without AVX-512F: the
/// caller then runs the portable body. Panics like the portable body on
/// mismatched slice lengths.
pub(super) fn tile<const GUARD: bool, const C: usize>(
    eps2: f64,
    t: (&[f64], &[f64], &[f64]),
    s: (&[f64], &[f64], &[f64], &[f64]),
    out: &mut [&mut [f64]; C],
) -> bool {
    const { assert!(C == 1 || C == 4, "eval's column or eval_with_grad's four") };
    if !is_x86_feature_detected!("avx512f") {
        return false;
    }
    super::assert_tile_shape(t, s, &*out);
    // SAFETY: AVX-512F, the one feature `tile_avx512` is compiled for,
    // was detected above.
    unsafe { tile_avx512::<GUARD, C>(eps2, t, s, out) };
    true
}

/// Widest grid, in nodes per axis, that [`grid_tile`] takes: its per-node
/// vectors live in arrays of this length (degree 7; the flat tile serves
/// wider grids).
const GRID_NODES: usize = 8;

/// [`block`] against the `m³` proxies of `grid` (`m ≤` [`GRID_NODES`]),
/// in the grid's linear order (`k3` fastest), with the modified charges
/// `sq`. Proxy `(k1, k2, k3)` is `(x_{k1}, y_{k2}, z_{k3})`, so each axis
/// has only `m` distinct differences: `dy` and `dz` and their squares are
/// formed once per node, `dx²` once per `k1`, and `xx_yy = dx² + dy²` once
/// per `(k1, k2)`. Each of them is the very operation `block` performs on
/// the same operands, so every pair, sources ascending, reaches
/// [`accumulate_pair`] with `block`'s values: `r² = xx_yy + dz²` and the
/// differences.
#[inline]
#[target_feature(enable = "avx512f")]
fn grid_block<const GUARD: bool, const V: usize, const C: usize>(
    eps2: f64,
    i: usize,
    (tx, ty, tz): (&[f64], &[f64], &[f64]),
    grid: &TensorGrid,
    sq: &[f64],
    out: &mut [&mut [f64]; C],
) {
    let zero = _mm512_setzero_pd();
    let eps2 = _mm512_set1_pd(eps2);
    let m = grid.nodes_per_dim();
    let [nx, ny, nz] = [0, 1, 2].map(|d| &grid.dim(d).nodes()[..m]);
    let mut x = [zero; V];
    let (mut dy, mut dz) = ([[zero; GRID_NODES]; V], [[zero; GRID_NODES]; V]);
    let (mut dy2, mut dz2) = ([[zero; GRID_NODES]; V], [[zero; GRID_NODES]; V]);
    for v in 0..V {
        x[v] = load_padded(&tx[i + v * LANES..]);
        let y = load_padded(&ty[i + v * LANES..]);
        let z = load_padded(&tz[i + v * LANES..]);
        for k in 0..m {
            dy[v][k] = _mm512_sub_pd(y, _mm512_set1_pd(ny[k]));
            dy2[v][k] = _mm512_mul_pd(dy[v][k], dy[v][k]);
            dz[v][k] = _mm512_sub_pd(z, _mm512_set1_pd(nz[k]));
            dz2[v][k] = _mm512_mul_pd(dz[v][k], dz[v][k]);
        }
    }
    let mut acc = [[zero; C]; V];
    let mut rows = sq.chunks_exact(m);
    for &xs in nx {
        let (mut dx, mut dx2) = ([zero; V], [zero; V]);
        for v in 0..V {
            dx[v] = _mm512_sub_pd(x[v], _mm512_set1_pd(xs));
            dx2[v] = _mm512_mul_pd(dx[v], dx[v]);
        }
        for k2 in 0..m {
            let row = rows.next().expect("one charge per proxy");
            let mut xx_yy = [zero; V];
            for v in 0..V {
                xx_yy[v] = _mm512_add_pd(dx2[v], dy2[v][k2]);
            }
            for (k3, &sq) in row.iter().enumerate() {
                let q = _mm512_set1_pd(sq);
                for v in 0..V {
                    let r2 = _mm512_add_pd(xx_yy[v], dz2[v][k3]);
                    let d = (dx[v], dy[v][k2], dz[v][k3]);
                    accumulate_pair::<GUARD, C>(&mut acc[v], r2, eps2, d, q);
                }
            }
        }
    }
    for (out, c) in out.iter_mut().zip(0..) {
        for v in 0..V {
            add_into(&mut out[i + v * LANES..], acc[v][c]);
        }
    }
}

/// [`tile_avx512`]'s walk over the targets with [`grid_block`] for
/// [`block`].
#[target_feature(enable = "avx512f")]
fn grid_tile_avx512<const GUARD: bool, const C: usize>(
    eps2: f64,
    t: (&[f64], &[f64], &[f64]),
    grid: &TensorGrid,
    sq: &[f64],
    out: &mut [&mut [f64]; C],
) {
    let nt = out[0].len();
    for i in (0..nt).step_by(2 * LANES) {
        if nt - i > LANES {
            grid_block::<GUARD, 2, C>(eps2, i, t, grid, sq, out);
        } else {
            grid_block::<GUARD, 1, C>(eps2, i, t, grid, sq, out);
        }
    }
}

/// [`tile`] against the Chebyshev proxies of `grid` with the modified
/// charges `sq`: the bits of `tile` over
/// [`TensorGrid::proxies`](crate::interp::tensor::TensorGrid::proxies).
///
/// Returns `false`, having done nothing, on a host without AVX-512F or
/// for a grid wider than [`GRID_NODES`] nodes: the caller then runs the
/// flat tile. Panics like the flat tile on mismatched slice lengths.
pub(super) fn grid_tile<const GUARD: bool, const C: usize>(
    eps2: f64,
    t: (&[f64], &[f64], &[f64]),
    grid: &TensorGrid,
    sq: &[f64],
    out: &mut [&mut [f64]; C],
) -> bool {
    const { assert!(C == 1 || C == 4, "eval's column or eval_with_grad's four") };
    if grid.nodes_per_dim() > GRID_NODES || !is_x86_feature_detected!("avx512f") {
        return false;
    }
    let (px, py, pz) = grid.proxies();
    super::assert_tile_shape(t, (px, py, pz, sq), &*out);
    // SAFETY: AVX-512F, the one feature `grid_tile_avx512` is compiled
    // for, was detected above.
    unsafe { grid_tile_avx512::<GUARD, C>(eps2, t, grid, sq, out) };
    true
}

/// The exp-family tile body of the parent module, compiled for AVX-512F:
/// the same Rust, hence the same operations in the same order — Rust
/// never contracts a multiply and an add into an FMA — in 512-bit lanes,
/// with a hardware gather for the exponential's table.
#[target_feature(enable = "avx512f")]
fn exp_tile_avx512<const GUARD: bool, const C: usize>(
    kappa: f64,
    eps2: f64,
    t: (&[f64], &[f64], &[f64]),
    s: (&[f64], &[f64], &[f64], &[f64]),
    out: &mut [&mut [f64]; C],
) {
    super::portable_exp_tile::<GUARD, C>(kappa, eps2, t, s, out);
}

/// The parent module's `exp_tile` on AVX-512F: `e^{−κr}/r` with the guard
/// (`GUARD`) or `e^{−κd}/d` with `d = √(r² + eps2)`, one column or four.
/// Returns `false`, having done nothing, on a host without AVX-512F.
pub(super) fn exp_tile<const GUARD: bool, const C: usize>(
    kappa: f64,
    eps2: f64,
    t: (&[f64], &[f64], &[f64]),
    s: (&[f64], &[f64], &[f64], &[f64]),
    out: &mut [&mut [f64]; C],
) -> bool {
    if !is_x86_feature_detected!("avx512f") {
        return false;
    }
    // SAFETY: AVX-512F, the one feature `exp_tile_avx512` is compiled
    // for, was detected above.
    unsafe { exp_tile_avx512::<GUARD, C>(kappa, eps2, t, s, out) };
    true
}

/// Particles whose terms the charge body keeps at a time: its term pass
/// fills three `[f64; 8]` rows and one `c` per particle of a chunk (25
/// KiB at most, within L1), and its scatter then walks the chunk once
/// per `k1`.
pub(crate) const CHARGE_CHUNK: usize = 128;

/// The 8 × 8 transpose in registers: lane `r` of `v[c]` becomes lane `c`
/// of the result's `r`-th vector. Pairs of lanes, then pairs of pairs,
/// then halves.
#[inline]
#[target_feature(enable = "avx512f")]
fn transpose(v: [__m512d; LANES]) -> [__m512d; LANES] {
    // `a[2i]` holds the even lanes of `v[2i]` and `v[2i + 1]`, interleaved
    // (`v[2i][0], v[2i+1][0], v[2i][2], …`), `a[2i + 1]` the odd ones.
    let mut a = [_mm512_setzero_pd(); LANES];
    for i in 0..LANES / 2 {
        a[2 * i] = _mm512_unpacklo_pd(v[2 * i], v[2 * i + 1]);
        a[2 * i + 1] = _mm512_unpackhi_pd(v[2 * i], v[2 * i + 1]);
    }
    // `0x88` takes the even 128-bit blocks of each operand, `0xdd` the odd.
    let mut out = [_mm512_setzero_pd(); LANES];
    for p in 0..2 {
        let even_lo = _mm512_shuffle_f64x2::<0x88>(a[p], a[p + 2]);
        let odd_lo = _mm512_shuffle_f64x2::<0xdd>(a[p], a[p + 2]);
        let even_hi = _mm512_shuffle_f64x2::<0x88>(a[p + 4], a[p + 6]);
        let odd_hi = _mm512_shuffle_f64x2::<0xdd>(a[p + 4], a[p + 6]);
        out[p] = _mm512_shuffle_f64x2::<0x88>(even_lo, even_hi);
        out[p + 4] = _mm512_shuffle_f64x2::<0xdd>(even_lo, even_hi);
        out[p + 2] = _mm512_shuffle_f64x2::<0x88>(odd_lo, odd_hi);
        out[p + 6] = _mm512_shuffle_f64x2::<0xdd>(odd_lo, odd_hi);
    }
    out
}

/// One chunk's worth of the term pass: per dimension and particle the
/// row of [`dim_terms`] (`M` terms, zero beyond), and per particle `c =
/// ((q·f₁)·f₂)·f₃`.
struct ChunkTerms {
    rows: [Vec<[f64; LANES]>; 3],
    c: Vec<f64>,
}

/// The term pass over the particles `group` (at most eight, one per lane)
/// into rows `at..at + 8` of `terms`. Per dimension and node: `diff = x −
/// s_k`, `t_k = w_k / diff` and `D += t_k` in ascending `k`, then `f =
/// 1/D` — [`dim_terms`]'s operations in its order. A lane where some
/// `|diff| <` [`SINGULARITY_TOL`] is then done again by [`dim_terms`]
/// itself, which writes its Kronecker row and returns the factor 1. Pad
/// lanes are copies of the group's first particle, and nothing reads
/// them.
#[inline]
#[target_feature(enable = "avx512f")]
fn term_group<const M: usize>(
    grid: &TensorGrid,
    coords: [&[f64]; 3],
    qs: &[f64],
    group: std::ops::Range<usize>,
    terms: &mut ChunkTerms,
    at: usize,
) {
    let tol = _mm512_set1_pd(SINGULARITY_TOL);
    let mut factors = [[0.0; LANES]; 3];
    for (d, factor) in factors.iter_mut().enumerate() {
        let (g, xs) = (grid.dim(d), &coords[d][group.clone()]);
        let (nodes, weights) = (&g.nodes()[..M], &g.weights()[..M]);
        let x = load_padded(xs);
        let mut t = [_mm512_setzero_pd(); LANES];
        let (mut denom, mut singular) = (_mm512_setzero_pd(), 0);
        for k in 0..M {
            let diff = _mm512_sub_pd(x, _mm512_set1_pd(nodes[k]));
            singular |= _mm512_cmp_pd_mask::<_CMP_LT_OQ>(_mm512_abs_pd(diff), tol);
            t[k] = _mm512_div_pd(_mm512_set1_pd(weights[k]), diff);
            denom = _mm512_add_pd(denom, t[k]);
        }
        store_lanes(factor, _mm512_div_pd(_mm512_set1_pd(1.0), denom));
        let rows = &mut terms.rows[d][at..at + LANES];
        for (row, v) in rows.iter_mut().zip(transpose(t)) {
            store_lanes(row, v);
        }
        let mut singular = singular & first_lanes(xs.len());
        while singular != 0 {
            let r = singular.trailing_zeros() as usize;
            factor[r] = dim_terms(g, xs[r], &mut rows[r][..M]);
            singular &= singular - 1;
        }
    }
    let q = load_padded(&qs[group]);
    let qf1 = _mm512_mul_pd(q, load_lanes(&factors[0]));
    let qf12 = _mm512_mul_pd(qf1, load_lanes(&factors[1]));
    let c = _mm512_mul_pd(qf12, load_lanes(&factors[2]));
    store_lanes(&mut terms.c[at..at + LANES], c);
}

/// Adds the first `len` particles of `terms` to `qhat`, interchanged and
/// register-blocked. Per `k1`, the `M × M` block of slots `(k1, ·, ·)`
/// stays in registers, transposed: register `k3` holds slot `(k1, k2,
/// k3)` in lane `k2`. Every particle then forms `c₁ = t₁[k1]·c` and `c₁₂
/// = c₁·t₂` (one multiply for all `k2`) and adds `c₁₂ · t₃[k3]` to
/// register `k3`. A zero `c₁` skips the particle, and a zero lane of `c₁₂`
/// is masked out of every add: the two zero skips of the portable
/// `scatter`. Per slot the additions come in ascending `j`, as there.
#[inline]
#[target_feature(enable = "avx512f")]
fn scatter_chunk<const M: usize>(terms: &ChunkTerms, len: usize, qhat: &mut [f64]) {
    let (t1, t2, t3) = (
        &terms.rows[0][..len],
        &terms.rows[1][..len],
        &terms.rows[2][..len],
    );
    let c = &terms.c[..len];
    let zero = _mm512_setzero_pd();
    for k1 in 0..M {
        let block = &mut qhat[k1 * M * M..(k1 + 1) * M * M];
        let mut rows = [zero; LANES];
        for (k2, row) in rows.iter_mut().take(M).enumerate() {
            *row = load_lanes(&block[k2 * M..(k2 + 1) * M]);
        }
        let mut acc = transpose(rows);
        for j in 0..len {
            let c1 = t1[j][k1] * c[j];
            if c1 == 0.0 {
                continue;
            }
            let c12 = _mm512_mul_pd(_mm512_set1_pd(c1), load_lanes(&t2[j]));
            let live = _mm512_cmpneq_pd_mask(c12, zero);
            for (acc, &t) in acc.iter_mut().zip(&t3[j][..M]) {
                let term = _mm512_mul_pd(c12, _mm512_set1_pd(t));
                *acc = _mm512_mask_add_pd(*acc, live, *acc, term);
            }
        }
        for (k2, row) in transpose(acc).into_iter().take(M).enumerate() {
            store_lanes(&mut block[k2 * M..(k2 + 1) * M], row);
        }
    }
}

/// The charge body at grid width `M`: per chunk of [`CHARGE_CHUNK`]
/// particles, in ascending order, the term pass eight particles at a
/// time and then the scatter.
#[target_feature(enable = "avx512f")]
fn charges_avx512<const M: usize>(
    grid: &TensorGrid,
    coords: [&[f64]; 3],
    qs: &[f64],
    qhat: &mut [f64],
) {
    qhat.fill(0.0);
    let n = qs.len();
    let cap = n.min(CHARGE_CHUNK).next_multiple_of(LANES);
    let mut terms = ChunkTerms {
        rows: [
            vec![[0.0; LANES]; cap],
            vec![[0.0; LANES]; cap],
            vec![[0.0; LANES]; cap],
        ],
        c: vec![0.0; cap],
    };
    for start in (0..n).step_by(CHARGE_CHUNK) {
        let end = n.min(start + CHARGE_CHUNK);
        for at in (0..end - start).step_by(LANES) {
            let group = start + at..end.min(start + at + LANES);
            term_group::<M>(grid, coords, qs, group, &mut terms, at);
        }
        scatter_chunk::<M>(&terms, end - start, qhat);
    }
}

/// The modified charges of one cluster, written over `qhat`, under the
/// contract of [`compute_charges_into`](crate::charges::compute_charges_into)
/// and with its bits: a term pass with eight particles in lanes, and a
/// scatter that keeps a block of `q̂` in registers while the particles
/// stream past (see "Why the bits cannot move" in [`crate::charges`]).
///
/// Returns `false`, having done nothing, on a host without AVX-512F or
/// for a grid wider than eight nodes: the caller then runs the portable
/// body. Panics on mismatched slice lengths.
pub(crate) fn charges(
    grid: &TensorGrid,
    coords: [&[f64]; 3],
    qs: &[f64],
    qhat: &mut [f64],
) -> bool {
    let m = grid.nodes_per_dim();
    if m > LANES || !is_x86_feature_detected!("avx512f") {
        return false;
    }
    assert!(
        coords.iter().all(|c| c.len() == qs.len()),
        "charge count mismatch"
    );
    assert_eq!(qhat.len(), grid.len(), "modified charge count mismatch");
    let body = match m {
        2 => charges_avx512::<2>,
        3 => charges_avx512::<3>,
        4 => charges_avx512::<4>,
        5 => charges_avx512::<5>,
        6 => charges_avx512::<6>,
        7 => charges_avx512::<7>,
        8 => charges_avx512::<8>,
        _ => unreachable!("a grid has at least two nodes per dimension"),
    };
    // SAFETY: AVX-512F, the one feature `charges_avx512` is compiled for,
    // was detected above.
    unsafe { body(grid, coords, qs, qhat) };
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// What [`compare`] did.
    #[derive(Debug, Default)]
    struct Seen {
        /// Inputs compared, and the vectors they came in.
        inputs: usize,
        vectors: usize,
        /// Vectors whose reciprocal was checked on [`recip_fma`].
        fma_recips: usize,
        /// Inputs whose hardware `√x` has an all-ones significand.
        all_ones: usize,
    }

    fn all_ones_significand(s: f64) -> bool {
        s.to_bits() << 12 == u64::MAX << 12
    }

    /// Checks `s = √x` and `1/s` of this module against the hardware
    /// instructions (`f64::sqrt`, `1.0 / s`), bit for bit, for every `x`,
    /// eight to a vector; a NaN must be a NaN (its sign and payload are
    /// not contract). Every vector goes through [`sqrt_cr`] and
    /// [`sqrt_recip_cr`], as the tiles call them. `!fast`: the range check
    /// must reject every vector. `fast`: it must accept every vector, and
    /// then [`sqrt_fma`] and [`recip_fma`] are also called directly, so
    /// that the sequences are what is tested whatever the dispatch does —
    /// the reciprocal on every vector but those in which the *hardware*
    /// square root finds an all-ones significand, which must be exactly
    /// the in-range vectors [`all_in_recip_range`] rejects. `None`, after
    /// a printed note, on a host without AVX-512F.
    fn compare(fast: bool, xs: impl Iterator<Item = f64>) -> Option<Seen> {
        #[target_feature(enable = "avx512f")]
        fn assert_lanes(what: &str, x: &[f64], got: __m512d, hardware: &[f64]) {
            let mut lanes = [0.0; LANES];
            // SAFETY: `lanes` is `LANES` doubles, all written.
            unsafe { _mm512_storeu_pd(lanes.as_mut_ptr(), got) };
            for ((&x, &got), &hw) in x.iter().zip(&lanes).zip(hardware) {
                assert!(
                    got.to_bits() == hw.to_bits() || (got.is_nan() && hw.is_nan()),
                    "{what} at x = {x:e} ({:#018x}): {got:e} ({:#018x}), hardware {hw:e} ({:#018x})",
                    x.to_bits(),
                    got.to_bits(),
                    hw.to_bits()
                );
            }
        }
        #[target_feature(enable = "avx512f")]
        fn go(fast: bool, mut xs: impl Iterator<Item = f64>) -> Seen {
            let (mut seen, mut x) = (Seen::default(), [0.0; LANES]);
            loop {
                let live = x.iter_mut().zip(&mut xs).map(|(slot, x)| *slot = x).count();
                if live == 0 {
                    return seen;
                }
                let (hw_s, x) = (x.map(f64::sqrt), &x[..live]);
                let hw_inv = hw_s.map(|s| 1.0 / s);
                let all_ones = hw_s[..live].iter().filter(|&&s| all_ones_significand(s));
                let all_ones = all_ones.count();
                let v = load_padded(x);
                assert_eq!(all_in_fast_range(v), fast, "range check on {x:?}");
                let (s, inv) = sqrt_recip_cr(v);
                assert_lanes("sqrt_cr", x, sqrt_cr(v), &hw_s);
                assert_lanes("sqrt_recip_cr.0", x, s, &hw_s);
                assert_lanes("sqrt_recip_cr.1", x, inv, &hw_inv);
                let recip = all_in_recip_range(v);
                assert_eq!(recip, fast && all_ones == 0, "all-ones check on {x:?}");
                if fast {
                    let (s, h) = sqrt_fma(v);
                    assert_lanes("sqrt_fma", x, s, &hw_s);
                    if recip {
                        assert_lanes("recip_fma", x, recip_fma(s, h), &hw_inv);
                        seen.fma_recips += 1;
                    }
                }
                seen.inputs += live;
                seen.vectors += 1;
                seen.all_ones += all_ones;
            }
        }
        if !is_x86_feature_detected!("avx512f") {
            eprintln!("no avx512f on this host: nothing is compared, portable tiles only");
            return None;
        }
        // SAFETY: AVX-512F was detected above.
        Some(unsafe { go(fast, xs) })
    }

    /// `n` random bit patterns of `[lo, hi)`, none of which may have an
    /// all-ones square root: every vector's reciprocal is the FMA one.
    fn compare_random(seed: u64, lo: u64, hi: u64) {
        let n = if cfg!(debug_assertions) {
            2_000_000
        } else {
            100_000_000
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let xs = (0..n).map(|_| f64::from_bits(rng.gen_range(lo..hi)));
        let Some(seen) = compare(true, xs) else {
            return;
        };
        assert_eq!((seen.inputs, seen.all_ones), (n, 0));
        assert_eq!(seen.fma_recips, seen.vectors);
    }

    #[test]
    fn sqrt_fma_equals_hardware_sqrt_on_random_bit_patterns_of_the_whole_range() {
        compare_random(0x5147, LO_BITS, HI_BITS);
    }

    #[test]
    fn recip_fma_equals_hardware_divide_on_random_bit_patterns_of_one_to_four() {
        compare_random(0x1417, 1f64.to_bits(), 4f64.to_bits());
    }

    /// Every double `x ∈ [1, 4)` whose root lies within `|c|·2⁻¹⁰⁷` of a
    /// rounding boundary, for `|c| < c_max`: a boundary of `[1, 2)` is
    /// `M·2⁻⁵³` with `M` odd, so `x = X·2⁻⁵²` is that close iff
    /// `X·2⁵⁴ = M² − c` (`x ∈ [1, 2)`, `M ∈ (2⁵³, 2⁵³·⁵)`) or `x = X·2⁻⁵¹`
    /// and `X·2⁵⁵ = M² − c` (`x ∈ [2, 4)`, `M ∈ (2⁵³·⁵, 2⁵⁴)`). `M² ≡ 1
    /// (mod 8)` forces `c ≡ 1 (mod 8)`, and then `M² ≡ c (mod 2ⁿ)` has the
    /// four roots `±r`, `±r + 2ⁿ⁻¹`, with `r` lifted bit by bit from
    /// `r ≡ 1 (mod 8)`.
    fn hardest_cases(c_max: i128) -> Vec<f64> {
        let mut cases = Vec::new();
        for c in (1 - c_max..c_max).filter(|c| c.rem_euclid(8) == 1) {
            // (n, exponent of x = X·2ᵉ, M² ∈ (2ˡ, 2ˡ⁺¹))
            for (n, x_exp, sq_log2) in [(54u32, -52, 106), (55, -51, 107)] {
                let modulus = 1i128 << n;
                // Invariant: r² ≡ c (mod 2ᵏ); adding 2ᵏ⁻¹ flips bit k of r².
                let mut r = 1i128;
                for k in 3..n {
                    if (r * r - c).rem_euclid(1 << (k + 1)) != 0 {
                        r += 1 << (k - 1);
                    }
                }
                for m in [r, modulus - r, r + modulus / 2, modulus / 2 - r] {
                    let m = m.rem_euclid(modulus);
                    if (m * m) >> sq_log2 != 1 {
                        continue;
                    }
                    assert_eq!((m * m - c) % modulus, 0);
                    let x = (m * m - c) >> n;
                    if (1 << 52..1 << 53).contains(&x) {
                        let x = x as f64 * 2f64.powi(x_exp);
                        // The boundary M·2⁻⁵³ is the one next to √x.
                        let root = (x.sqrt() * 2f64.powi(52)) as i128;
                        assert_eq!((2 * root - m).abs(), 1, "{x:e}");
                        cases.push(x);
                    }
                }
            }
        }
        cases
    }

    #[test]
    fn sqrt_fma_equals_hardware_sqrt_on_the_hardest_cases_that_exist() {
        let cases = hardest_cases(400_000);
        assert_eq!(cases.len(), 141_579, "the generator changed");
        let scaled = cases
            .iter()
            .flat_map(|&x| [-600, -300, -40, -2, 0, 2, 40, 300, 600].map(|e| x * 2f64.powi(e)));
        if let Some(seen) = compare(true, scaled) {
            assert_eq!(seen.inputs, 9 * cases.len());
        }
    }

    /// ±`radius` ulps around each centre.
    fn neighbours(centres: &[f64], radius: u64) -> impl Iterator<Item = f64> + '_ {
        let around = move |c: &f64| c.to_bits() - radius..=c.to_bits() + radius;
        centres.iter().flat_map(around).map(f64::from_bits)
    }

    #[test]
    fn sqrt_fma_equals_hardware_sqrt_around_exact_squares_and_binade_ends() {
        let centres = [1.0, 2.0, 4.0 - 1e-9, 2.25, 1.0 + 2f64.powi(-26)];
        if let Some(seen) = compare(true, neighbours(&centres, 100_000)) {
            assert_eq!(seen.inputs, 5 * 200_001);
        }
    }

    /// Below each `4ᵏ` sit the two doubles whose square root is the
    /// all-ones `2ᵏ(1 − 2⁻⁵³)`, the divisor [`recip_fma`] gets wrong
    /// (`x = 0x3feffffffffffffe`: 1.0 instead of 1.0000000000000002), and
    /// its neighbours, which it must get right.
    #[test]
    fn recip_fma_equals_hardware_divide_around_the_all_ones_square_roots() {
        let powers_of_four = [0.25, 1.0, 4.0, 16.0];
        let others = [
            2.0,
            2.25,
            3.0,
            6.25,
            1.0 + 2f64.powi(-26),
            4.0 - 1e-9,
            1e200,
            1e-200,
        ];
        let Some(seen) = compare(true, neighbours(&powers_of_four, 300_000)) else {
            return;
        };
        assert_eq!((seen.inputs, seen.all_ones), (4 * 600_001, 4 * 2));
        let slow = seen.vectors - seen.fma_recips;
        assert!((4..=8).contains(&slow), "{seen:?}");
        let seen = compare(true, neighbours(&others, 300_000)).expect("avx512f");
        assert_eq!((seen.inputs, seen.all_ones), (8 * 600_001, 0));
        assert_eq!(seen.fma_recips, seen.vectors);
        // Every `4ᵏ` of the range: the three doubles below it and, where
        // they are in range, itself and the all-ones fraction under the
        // other exponent parity, `2·4ᵏ − 1 ulp`.
        let below = |x: f64, ulps: u64| f64::from_bits(x.to_bits() - ulps);
        let every_power = (-383..=384).flat_map(|k| {
            let p = 4f64.powi(k);
            let inside = [p, below(2.0 * p, 1)];
            let inside = inside.into_iter().filter(move |_| k < 384);
            [1, 2, 3]
                .map(|ulps| below(p, ulps))
                .into_iter()
                .chain(inside)
        });
        let seen = compare(true, every_power).expect("avx512f");
        assert_eq!((seen.inputs, seen.all_ones), (768 * 5 - 2, 768 * 2));
    }

    /// The hardest reciprocals there are: for `s = 2 − k·2⁻⁵²`, `1/s = ½ +
    /// k·2⁻⁵⁴ + k²·2⁻¹⁰⁷ + …`, which for odd `k` is `k²·2⁻⁵⁴` ulp above the
    /// midpoint of two doubles; for `s = 1 + k·2⁻⁵²` it is as close above a
    /// double. `x = s² ± {0, 1, 2}` ulps are the inputs whose root is `s` or
    /// its neighbour, in four binades and (odd exponents) two with
    /// unrelated significands. `k = 0, 1` of the first family are the
    /// all-ones `s` again.
    #[test]
    fn recip_fma_equals_hardware_divide_on_the_hardest_reciprocals_that_exist() {
        let ulp = 2f64.powi(-52);
        let xs = (0..200_000u32)
            .flat_map(|k| [2.0 - f64::from(k) * ulp, 1.0 + f64::from(k) * ulp])
            .flat_map(|s| {
                (-2i64..=2).map(move |d| f64::from_bits(((s * s).to_bits() as i64 + d) as u64))
            })
            .flat_map(|x| [-600, -41, 0, 2, 301, 600].map(|e| x * 2f64.powi(e)));
        let Some(seen) = compare(true, xs) else {
            return;
        };
        assert_eq!((seen.inputs, seen.all_ones), (200_000 * 2 * 5 * 6, 28));
        assert!(
            (1..=28).contains(&(seen.vectors - seen.fma_recips)),
            "{seen:?}"
        );
    }

    /// The register-blocked scatter against the portable one, bit for bit
    /// (a NaN must be a NaN), on term rows no cluster produces: zeros and
    /// Kronecker rows beside infinities and NaNs. With finite particles
    /// no term is infinite, and a slot that starts at `+0` never holds
    /// `−0`, so adding a zero product changes no bit and the oracle tests
    /// cannot see the two zero skips. Here `0·∞` can: without the `c₁`
    /// skip or the `c₁₂` mask a NaN lands in a slot the portable scatter
    /// leaves alone.
    #[test]
    fn charge_scatter_equals_the_portable_scatter_on_non_finite_rows() {
        #[target_feature(enable = "avx512f")]
        fn go<const M: usize>(rng: &mut StdRng) {
            let specials = [
                0.0,
                -0.0,
                1.0,
                -0.5,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NAN,
            ];
            let value = |rng: &mut StdRng| {
                if rng.gen_range(0..3usize) == 0 {
                    specials[rng.gen_range(0..specials.len())]
                } else {
                    rng.gen_range(-2.0..2.0)
                }
            };
            for len in [1, 3, 8, 19] {
                for case in 0..40 {
                    let mut rows = [(); 3].map(|()| vec![[0.0; LANES]; len]);
                    for (d, rows) in rows.iter_mut().enumerate() {
                        for (j, row) in rows.iter_mut().enumerate() {
                            // Every other row of a dimension is a Kronecker row.
                            if (j + d + case) % 2 == 0 {
                                row[(j + case) % M] = 1.0;
                            } else {
                                row[..M].iter_mut().for_each(|t| *t = value(rng));
                            }
                        }
                    }
                    let c: Vec<f64> = (0..len).map(|_| value(rng)).collect();
                    let mut want = vec![0.0; M * M * M];
                    for j in 0..len {
                        let [t1, t2, t3] = [0, 1, 2].map(|d| &rows[d][j][..M]);
                        crate::charges::scatter(c[j], [t1, t2, t3], &mut want);
                    }
                    let mut got = vec![0.0; M * M * M];
                    scatter_chunk::<M>(
                        &ChunkTerms {
                            rows: rows.clone(),
                            c,
                        },
                        len,
                        &mut got,
                    );
                    for (slot, (g, w)) in got.iter().zip(&want).enumerate() {
                        assert!(
                            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                            "width {M}, {len} particles, case {case}, slot {slot}: {g:e}, portable {w:e}"
                        );
                    }
                }
            }
        }
        if !is_x86_feature_detected!("avx512f") {
            eprintln!("no avx512f on this host: nothing is compared, portable scatter only");
            return;
        }
        let mut rng = StdRng::seed_from_u64(0x5ca7);
        // SAFETY: AVX-512F was detected above.
        unsafe {
            go::<2>(&mut rng);
            go::<3>(&mut rng);
            go::<5>(&mut rng);
            go::<7>(&mut rng);
            go::<8>(&mut rng);
        }
    }

    #[test]
    fn sqrt_cr_leaves_everything_outside_the_range_to_the_hardware() {
        let (lo, hi) = (f64::from_bits(LO_BITS), f64::from_bits(HI_BITS));
        let (below_lo, below_hi) = (f64::from_bits(LO_BITS - 1), f64::from_bits(HI_BITS - 1));
        if compare(true, [lo, below_hi].into_iter()).is_none() {
            return;
        }
        let outside = [
            below_lo,
            hi,
            0.0,
            -0.0,
            5e-324,
            1e-310,
            f64::MIN_POSITIVE,
            f64::MAX,
            -1.0,
            -1e-300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        // Alone (padded with itself), and as the one bad lane among good
        // ones: either way the check must send the vector to the hardware.
        for x in outside {
            compare(false, [x].into_iter());
            for at in 0..LANES {
                let mut mixed = [1.5, lo, 2.25, below_hi, 1e-3, 7.0, 1e10, 0.3];
                mixed[at] = x;
                compare(false, mixed.into_iter());
            }
        }
    }
}
