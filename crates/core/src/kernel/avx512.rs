//! The AVX-512 potential and field tiles of the Coulomb family (`1/√r²`,
//! bare or softened), and the two correctly rounded FMA sequences inside
//! them: the square root, and the reciprocal of that square root.
//!
//! Everything here computes exactly what the portable tiles compute — see
//! "Tiles" in the [parent module](super) for what that means and why it
//! can be asserted with `==`. This is the only module of the library
//! crates that contains `unsafe`: two masked memory accesses and the one
//! call from [`tile`] into `#[target_feature]` code.
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

/// `out[l] += acc[l]` for the first `min(out.len(), LANES)` lanes.
#[inline]
#[target_feature(enable = "avx512f")]
fn add_into(out: &mut [f64], acc: __m512d) {
    let k = first_lanes(out.len());
    // SAFETY: masked load and store touch only lanes `..min(len, LANES)`
    // of `out`, which the exclusive borrow makes ours to read and write.
    unsafe {
        let sum = _mm512_add_pd(_mm512_maskz_loadu_pd(k, out.as_ptr()), acc);
        _mm512_mask_storeu_pd(out.as_mut_ptr(), k, sum);
    }
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
            let mut r2 = _mm512_add_pd(xx_yy, _mm512_mul_pd(dz, dz));
            if !GUARD {
                r2 = _mm512_add_pd(r2, eps2);
            }
            let mut terms = pair_terms::<C>(r2, (dx, dy, dz));
            if GUARD {
                let apart = _mm512_cmpneq_pd_mask(r2, zero);
                for term in &mut terms {
                    *term = _mm512_maskz_mov_pd(apart, *term);
                }
            }
            for (acc, term) in acc[v].iter_mut().zip(terms) {
                *acc = _mm512_add_pd(*acc, _mm512_mul_pd(term, q));
            }
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
/// [`Kernel::accumulate_tile`](super::Kernel::accumulate_tile) (`C = 1`:
/// the potential) or of
/// [`GradientKernel::accumulate_field_tile`](super::GradientKernel::accumulate_field_tile)
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
