//! Deterministic `f32` transcendentals: [`exp`], [`tanh`] and [`sigmoid`].
//!
//! Every `f32` exponential, hyperbolic tangent and logistic sigmoid in the
//! workspace — the tape ops, the fused activations, softmax, the LSTM/GRU
//! cells, word2vec and the RL policy — goes through these three functions,
//! so every backend and every [`crate::simd`] level computes the same bits.
//! The [`crate::simd`] lane kernels (`exp_in_place`, `tanh_in_place`,
//! `sigmoid_in_place`) run the *same* operation sequence per lane: each
//! function is a fixed chain of IEEE `mul`/`add`/`sub`/`div`, bitwise sign
//! operations, compare-selects and one integer exponent add, with no FMA
//! and no table lookup, so an f32x4 or f32x8 lane reproduces the scalar
//! result bit for bit (a property test in `simd.rs` checks this over the
//! whole `f32` range at every level and remainder width).
//!
//! - **`exp`** clamps its argument to `[-104, 89]` (each clamp written as
//!   `if HI < x { HI } else { x }`, which is what `MINPS`/`MAXPS` compute,
//!   so a NaN passes through), reduces it Cody–Waite style — `n` is
//!   `x·log₂e` rounded to nearest by the `1.5·2²³` magic add, and
//!   `r = (x − n·C1) − n·C2` with the 9-bit `C1` making `n·C1` exact — and
//!   evaluates the Cephes `expf` polynomial on `r`. `2ⁿ` is applied as two
//!   factors built by integer adds into the exponent field, so a result
//!   past `f32::MAX` overflows to `inf` and a tiny one rounds once, to a
//!   subnormal or to zero.
//! - **`tanh`** evaluates the Cephes `tanhf` odd polynomial on `|x|` below
//!   0.625 and `1 − 2/(e^{2|x|} + 1)` above, then puts the input's sign on
//!   the result (so `tanh(-0.0)` is `-0.0`, and a NaN keeps its sign).
//! - **`sigmoid`** is `q = num / (1 + e)` with `e = exp(−|x|)` and `num`
//!   equal to `1` for `x ≥ 0` and `e` for `x < 0`, so `e` never overflows
//!   and a very negative input gives its subnormal value rather than a
//!   flush to zero. Below `x = −1` it returns `e − e·q` instead, the same
//!   value with the rounding of `1 + e` scaled down by `e` — that keeps the
//!   tail within 2 ulp, where `q` alone reaches 2.4.
//!
//! **Accuracy.** The maximum error against an `f64` reference, over every
//! 5th `f32` bit pattern of both signs plus every value within 2000 ulp of
//! the edges (±0.625, ±1, 88.72, −87.34, −103.97):
//!
//! | function  | max error (ulp) | at          |
//! |-----------|-----------------|-------------|
//! | `exp`     | 0.98            | −5.8606462  |
//! | `tanh`    | 1.33            | 0.62830955  |
//! | `sigmoid` | 1.81            | −1.1208787  |
//!
//! The unit test `max_ulp_error_is_within_two_ulp` reruns the sweep on
//! every 509th pattern and holds the bounds at 1, 1.5 and 2 ulp.
//!
//! `ln` and `sqrt` stay on std, and the `f64` CRF paths in `ner-core` stay
//! on libm.

/// `exp` clamps its argument below this: `exp(89)` already overflows.
pub(crate) const EXP_HI: f32 = 89.0;
/// `exp` clamps its argument above this: `exp(-104)` rounds to zero.
pub(crate) const EXP_LO: f32 = -104.0;
/// `log₂ e`.
pub(crate) const LOG2E: f32 = std::f32::consts::LOG2_E;
/// `1.5·2²³`: adding it rounds `x·log₂e` to the nearest integer, which
/// then sits in the low mantissa bits.
pub(crate) const ROUND: f32 = 12_582_912.0;
/// High part of `ln 2`, 9 significant bits (355/512), so `n·C1` is exact.
#[allow(clippy::excessive_precision)]
pub(crate) const LN2_HI: f32 = 0.693_359_375;
/// Low part of `ln 2`: `LN2_HI + LN2_LO ≈ ln 2`.
#[allow(clippy::excessive_precision)]
pub(crate) const LN2_LO: f32 = -2.121_944_40e-4;
/// Cephes `expf` polynomial for `(e^r − 1 − r) / r²`, highest degree first
/// (the Cephes decimals, rounded to `f32`).
#[allow(clippy::excessive_precision)]
pub(crate) const EXP_POLY: [f32; 6] = [
    1.987_569_150_0e-4,
    1.398_199_950_7e-3,
    8.333_451_907_3e-3,
    4.166_579_589_4e-2,
    1.666_666_545_9e-1,
    5.000_000_120_1e-1,
];
/// `tanh` uses its polynomial below this `|x|`.
pub(crate) const TANH_SMALL: f32 = 0.625;
/// Cephes `tanhf` polynomial for `(tanh z − z) / z³` in `s = z²`, highest
/// degree first.
#[allow(clippy::excessive_precision)]
pub(crate) const TANH_POLY: [f32; 5] = [
    -5.704_988_727_45e-3,
    2.063_908_879_54e-2,
    -5.373_971_555_31e-2,
    1.333_144_220_36e-1,
    -3.333_328_194_22e-1,
];
/// Below this `sigmoid` returns `e − e·q` instead of `q = e/(1 + e)`.
pub(crate) const SIGMOID_TAIL: f32 = -1.0;
/// The `f32` sign bit.
pub(crate) const SIGN: u32 = 0x8000_0000;

/// `2ⁿ` as two normal factors, `n = bits(t) − bits(ROUND)` being the
/// integer the magic add left in `t`'s mantissa. Splitting keeps each
/// factor inside the normal exponent range for every clamped argument
/// (`n ∈ [-150, 128]`). Integer arithmetic wraps, as the lanes' does.
#[inline(always)]
pub(crate) fn pow2_split(t: f32) -> (f32, f32) {
    let n = (t.to_bits() as i32).wrapping_sub(ROUND.to_bits() as i32);
    let n1 = n >> 1;
    let n2 = n.wrapping_sub(n1);
    let scale = |k: i32| f32::from_bits((k.wrapping_add(127) as u32) << 23);
    (scale(n1), scale(n2))
}

/// `eˣ`, within 1 ulp; `exp(-inf) = 0`, `exp(inf) = inf`, NaN → NaN.
#[inline]
pub fn exp(x: f32) -> f32 {
    let x = if EXP_HI < x { EXP_HI } else { x };
    let x = if x < EXP_LO { EXP_LO } else { x };
    let t = x * LOG2E + ROUND;
    let n = t - ROUND;
    let r = (x - n * LN2_HI) - n * LN2_LO;
    let mut q = EXP_POLY[0];
    for &c in &EXP_POLY[1..] {
        q = q * r + c;
    }
    let y = (q * (r * r) + r) + 1.0;
    let (s1, s2) = pow2_split(t);
    (y * s1) * s2
}

/// `tanh x`, within 1.5 ulp; odd (`tanh(-0.0) = -0.0`), `±1` at `±inf`.
#[inline]
pub fn tanh(x: f32) -> f32 {
    let sign = x.to_bits() & SIGN;
    let z = f32::from_bits(x.to_bits() ^ sign);
    let r = if z < TANH_SMALL {
        let s = z * z;
        let mut q = TANH_POLY[0];
        for &c in &TANH_POLY[1..] {
            q = q * s + c;
        }
        (q * s) * z + z
    } else {
        1.0 - 2.0 / (exp(z + z) + 1.0)
    };
    f32::from_bits(r.to_bits() | sign)
}

/// The logistic function `1 / (1 + e⁻ˣ)`, within 2 ulp.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    let e = exp(-x.abs());
    let num = if x < 0.0 { e } else { 1.0 };
    let q = num / (1.0 + e);
    if x < SIGMOID_TAIL {
        e - e * q
    } else {
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `|got − want|` in units of the `f32` spacing at `want` (the
    /// subnormal spacing below `f32::MIN_POSITIVE`).
    fn ulp_error(got: f32, want: f64) -> f64 {
        if got as f64 == want {
            return 0.0;
        }
        let w = want.abs();
        let binade = ((w.to_bits() >> 52) & 0x7ff) as i32 - 1023;
        let ulp = 2f64.powi(binade.max(-126) - 23);
        (got as f64 - want).abs() / ulp
    }

    /// Arguments for the accuracy sweep: every `stride`-th bit pattern of
    /// both signs, plus dense windows around `edges`.
    fn sweep(stride: u32, edges: &[f32]) -> Vec<f32> {
        let mut xs = Vec::new();
        let mut b = 0u32;
        while b < 0x7f80_0000 {
            xs.push(f32::from_bits(b));
            xs.push(f32::from_bits(b | SIGN));
            b += stride;
        }
        for &e in edges {
            for d in -2000i32..=2000 {
                xs.push(f32::from_bits((e.to_bits() as i32 + d) as u32));
            }
        }
        xs
    }

    fn max_ulp(f: fn(f32) -> f32, reference: fn(f64) -> f64, xs: &[f32]) -> (f64, f32) {
        let mut worst = (0.0, 0.0);
        for &x in xs {
            let want = reference(x as f64);
            // Past f32's range the right answer is the overflow itself.
            if (want as f32).is_infinite() {
                assert_eq!(f(x), f32::INFINITY, "x = {x:e}");
                continue;
            }
            let e = ulp_error(f(x), want);
            if e > worst.0 {
                worst = (e, x);
            }
        }
        worst
    }

    #[test]
    fn max_ulp_error_is_within_two_ulp() {
        let edges = [88.72, -87.34, -103.97, 0.625, -0.625, 1.0, -1.0];
        let xs = sweep(509, &edges);
        let (e_exp, x_exp) = max_ulp(exp, f64::exp, &xs);
        let (e_tanh, x_tanh) = max_ulp(tanh, f64::tanh, &xs);
        let (e_sig, x_sig) = max_ulp(sigmoid, |x| 1.0 / (1.0 + (-x).exp()), &xs);
        assert!(e_exp <= 1.0, "exp: {e_exp} ulp at {x_exp:e}");
        assert!(e_tanh <= 1.5, "tanh: {e_tanh} ulp at {x_tanh:e}");
        assert!(e_sig <= 2.0, "sigmoid: {e_sig} ulp at {x_sig:e}");
    }

    #[test]
    fn special_values() {
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        assert_eq!(exp(f32::INFINITY), f32::INFINITY);
        assert_eq!(exp(f32::NEG_INFINITY).to_bits(), 0);
        assert_eq!(exp(89.0), f32::INFINITY);
        assert_eq!(exp(-104.0).to_bits(), 0);
        assert!(exp(-100.0) > 0.0 && exp(-100.0) < f32::MIN_POSITIVE, "subnormal result");
        assert!(exp(f32::NAN).is_nan());

        assert_eq!(tanh(0.0).to_bits(), 0);
        assert_eq!(tanh(-0.0).to_bits(), 0x8000_0000, "tanh(-0.0) is -0.0");
        assert_eq!(tanh(f32::INFINITY), 1.0);
        assert_eq!(tanh(f32::NEG_INFINITY), -1.0);
        assert_eq!(tanh(50.0), 1.0);
        assert_eq!(tanh(f32::MIN_POSITIVE * 0.5), f32::MIN_POSITIVE * 0.5);
        assert!(tanh(f32::NAN).is_nan());
        assert!(tanh(-f32::NAN).is_sign_negative(), "NaN keeps its sign");

        assert_eq!(sigmoid(0.0), 0.5);
        assert_eq!(sigmoid(-0.0), 0.5);
        assert_eq!(sigmoid(f32::INFINITY), 1.0);
        assert_eq!(sigmoid(f32::NEG_INFINITY), 0.0);
        assert!(sigmoid(-100.0) > 0.0, "no flush to zero below -88.7");
        assert!(sigmoid(f32::NAN).is_nan());
    }

    #[test]
    fn functions_are_odd_or_symmetric() {
        for i in 0..10_000 {
            let x = i as f32 * 0.003_7;
            assert_eq!(tanh(-x).to_bits(), tanh(x).to_bits() ^ SIGN, "tanh odd at {x}");
            let (lo, hi) = (sigmoid(-x) as f64, sigmoid(x) as f64);
            assert!((lo + hi - 1.0).abs() < 2e-7, "sigmoid symmetry at {x}");
        }
    }
}
