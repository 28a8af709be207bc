//! The AVX-512 potential tile of the Coulomb family (`1/√r²`, bare or
//! softened), and the correctly rounded FMA square root inside it.
//!
//! Everything here computes exactly what the portable tile computes — see
//! "Tiles" in the [parent module](super) for what that means and why it
//! can be asserted with `==`. This is the only module of the library
//! crates that contains `unsafe`: two masked memory accesses and the one
//! call from [`tile`] into `#[target_feature]` code.
//!
//! [`sqrt_fma`]'s operation sequence may not be shortened, reordered or
//! given a wider accepted range without the corpus in this file's tests
//! passing (`cargo test --release -p bltc-core kernel` for the full 10⁸
//! samples): it is correct because every step has the accuracy the next
//! one needs, not because each step looks reasonable.

use std::arch::x86_64::*;

/// Targets in one `__m512d`.
const LANES: usize = 8;

/// Bit patterns of the bounds of the range `[2⁻⁷⁶⁷, 2⁷⁶⁸)` in which
/// [`sqrt_fma`] is trusted: none of its intermediates (`g·g`, the
/// `2⁻⁵³`-relative residual `d`) can overflow or lose bits to underflow.
const LO_BITS: u64 = (1023 - 767) << 52;
const HI_BITS: u64 = (1023 + 768) << 52;

/// Whether every lane of `x` lies in `[2⁻⁷⁶⁷, 2⁷⁶⁸)`. One unsigned compare
/// on the bit patterns, `bits(x) − LO <ᵤ HI − LO`, rejects zero, subnormal,
/// tiny, huge, negative, ∞ and NaN lanes alike.
#[inline]
#[target_feature(enable = "avx512f")]
fn all_in_fast_range(x: __m512d) -> bool {
    let above_lo = _mm512_sub_epi64(_mm512_castpd_si512(x), _mm512_set1_epi64(LO_BITS as i64));
    let span = _mm512_set1_epi64((HI_BITS - LO_BITS) as i64);
    _mm512_cmplt_epu64_mask(above_lo, span) == 0xff
}

/// `√x` per lane on the FMA pipes, correctly rounded **for lanes in the
/// fast range only** (Markstein 1990; Cornea, Harrison & Tang 2002).
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
fn sqrt_fma(x: __m512d) -> __m512d {
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
    _mm512_fmadd_pd(d, h, g)
}

/// `√x` per lane, correctly rounded (round to nearest even) for every
/// input, hence equal in every bit to `vsqrtpd`: [`sqrt_fma`] when all
/// lanes are in its range, the hardware instruction for a vector with any
/// lane outside it — a rare slow vector, never a different bit.
#[inline]
#[target_feature(enable = "avx512f")]
fn sqrt_cr(x: __m512d) -> __m512d {
    if all_in_fast_range(x) {
        sqrt_fma(x)
    } else {
        _mm512_sqrt_pd(x)
    }
}

/// Mask of the first `min(n, LANES)` lanes.
#[inline]
fn first_lanes(n: usize) -> __mmask8 {
    ((1u16 << n.min(LANES)) - 1) as u8
}

/// `c[..LANES]`, or all of a shorter `c` with the missing lanes filled by
/// copies of `c[0]`: a pad lane then holds a live target, so it can send
/// its vector to [`sqrt_cr`]'s fallback only when a real lane does too.
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

/// `V` vectors of targets starting at `t.*[0]` (the last one padded if the
/// slices run out) against all sources: per lane, `eval`'s operations in
/// `eval`'s order, separately rounded — the only fused operations are
/// inside [`sqrt_cr`].
#[inline]
#[target_feature(enable = "avx512f")]
fn block<const GUARD: bool, const V: usize>(
    eps2: f64,
    (tx, ty, tz): (&[f64], &[f64], &[f64]),
    (sx, sy, sz, sq): (&[f64], &[f64], &[f64], &[f64]),
    out: &mut [f64],
) {
    let (zero, one) = (_mm512_setzero_pd(), _mm512_set1_pd(1.0));
    let eps2 = _mm512_set1_pd(eps2);
    let (mut x, mut y, mut z, mut acc) = ([zero; V], [zero; V], [zero; V], [zero; V]);
    for v in 0..V {
        x[v] = load_padded(&tx[v * LANES..]);
        y[v] = load_padded(&ty[v * LANES..]);
        z[v] = load_padded(&tz[v * LANES..]);
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
            let mut g = _mm512_div_pd(one, sqrt_cr(r2));
            if GUARD {
                g = _mm512_maskz_mov_pd(_mm512_cmpneq_pd_mask(r2, zero), g);
            }
            acc[v] = _mm512_add_pd(acc[v], _mm512_mul_pd(g, q));
        }
    }
    for v in 0..V {
        add_into(&mut out[v * LANES..], acc[v]);
    }
}

/// Sixteen targets per step in two accumulators, so that one vector's
/// divide overlaps the other's FMA chain; a masked final step instead of
/// a scalar remainder.
#[target_feature(enable = "avx512f")]
fn tile_avx512<const GUARD: bool>(
    eps2: f64,
    (tx, ty, tz): (&[f64], &[f64], &[f64]),
    s: (&[f64], &[f64], &[f64], &[f64]),
    out: &mut [f64],
) {
    for i in (0..out.len()).step_by(2 * LANES) {
        let t = (&tx[i..], &ty[i..], &tz[i..]);
        if out.len() - i > LANES {
            block::<GUARD, 2>(eps2, t, s, &mut out[i..]);
        } else {
            block::<GUARD, 1>(eps2, t, s, &mut out[i..]);
        }
    }
}

/// `out[i] += Σ_j g(t_i − s_j) · sq[j]` under the contract of
/// [`Kernel::accumulate_tile`](super::Kernel::accumulate_tile), for
/// `g = 1/√r²` with `g(0) = 0` (`GUARD`; `eps2` unused) or for
/// `g = 1/√(r² + eps2)` (`!GUARD`).
///
/// Returns `false`, having done nothing, on a host without AVX-512F: the
/// caller then runs the portable body. Panics like the portable body on
/// mismatched slice lengths.
pub(super) fn tile<const GUARD: bool>(
    eps2: f64,
    t: (&[f64], &[f64], &[f64]),
    s: (&[f64], &[f64], &[f64], &[f64]),
    out: &mut [f64],
) -> bool {
    if !is_x86_feature_detected!("avx512f") {
        return false;
    }
    super::assert_tile_shape(t, s, out.len());
    // SAFETY: AVX-512F, the one feature `tile_avx512` is compiled for,
    // was detected above.
    unsafe { tile_avx512::<GUARD>(eps2, t, s, out) };
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Checks `√x` of this module against the hardware instruction
    /// (`f64::sqrt`), bit for bit, for every `x`, eight to a vector.
    /// `fast`: the range check must accept every vector, and [`sqrt_fma`]
    /// is called directly, so that the sequence is what is tested whatever
    /// the check does; `!fast`: it must reject every vector, which goes
    /// through [`sqrt_cr`], where a NaN result must be a NaN (its sign and
    /// payload are not contract). Returns how many inputs were compared:
    /// none, after a printed note, on a host without AVX-512F.
    fn compare(fast: bool, xs: impl Iterator<Item = f64>) -> usize {
        #[target_feature(enable = "avx512f")]
        fn go(fast: bool, mut xs: impl Iterator<Item = f64>) -> usize {
            let (mut n, mut x, mut got) = (0, [0.0; LANES], [0.0; LANES]);
            loop {
                let live = x.iter_mut().zip(&mut xs).map(|(slot, x)| *slot = x).count();
                if live == 0 {
                    return n;
                }
                let v = load_padded(&x[..live]);
                assert_eq!(all_in_fast_range(v), fast, "range check on {x:?}");
                let s = if fast { sqrt_fma(v) } else { sqrt_cr(v) };
                // SAFETY: `got` is `LANES` doubles, all written.
                unsafe { _mm512_storeu_pd(got.as_mut_ptr(), s) };
                for (&x, &s) in x[..live].iter().zip(&got) {
                    let hw = x.sqrt();
                    assert!(
                        s.to_bits() == hw.to_bits() || (s.is_nan() && hw.is_nan()),
                        "√{x:e} ({:#018x}): {s:e} ({:#018x}), hardware {hw:e} ({:#018x})",
                        x.to_bits(),
                        s.to_bits(),
                        hw.to_bits()
                    );
                }
                n += live;
            }
        }
        if !is_x86_feature_detected!("avx512f") {
            eprintln!("no avx512f on this host: sqrt_cr is not compared, portable tile only");
            return 0;
        }
        // SAFETY: AVX-512F was detected above.
        unsafe { go(fast, xs) }
    }

    #[test]
    fn sqrt_fma_equals_hardware_sqrt_on_random_bit_patterns_of_the_whole_range() {
        let n = if cfg!(debug_assertions) {
            2_000_000
        } else {
            100_000_000
        };
        let mut rng = StdRng::seed_from_u64(0x5147);
        let xs = (0..n).map(|_| f64::from_bits(rng.gen_range(LO_BITS..HI_BITS)));
        let compared = compare(true, xs);
        assert!(compared == n || compared == 0);
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
        let compared = compare(true, scaled);
        assert!(compared == 9 * cases.len() || compared == 0);
    }

    #[test]
    fn sqrt_fma_equals_hardware_sqrt_around_exact_squares_and_binade_ends() {
        let centres = [1.0, 2.0, 4.0 - 1e-9, 2.25, 1.0 + 2f64.powi(-26)];
        let xs = centres.iter().flat_map(|c: &f64| {
            (c.to_bits() - 100_000..=c.to_bits() + 100_000).map(f64::from_bits)
        });
        let compared = compare(true, xs);
        assert!(compared == 5 * 200_001 || compared == 0);
    }

    #[test]
    fn sqrt_cr_leaves_everything_outside_the_range_to_the_hardware() {
        let (lo, hi) = (f64::from_bits(LO_BITS), f64::from_bits(HI_BITS));
        let (below_lo, below_hi) = (f64::from_bits(LO_BITS - 1), f64::from_bits(HI_BITS - 1));
        compare(true, [lo, below_hi].into_iter());
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
