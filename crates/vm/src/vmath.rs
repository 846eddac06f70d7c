//! Vectorized math kernels — the stand-in for Intel's SVML.
//!
//! The paper links the generated code against `libsvml` so that calls like
//! `exp` on vector operands stay vectorized (§4, footnote 2; §A.8). This
//! module provides the same capability: block functions over `W` lanes
//! implemented with polynomial range reduction. [`exp_block`] and
//! [`log_block`] — and with them `tanh`, `sinh`, `cosh`, `expm1`, `pow`,
//! `log10` and `log2`, which are built on them — are branch-free: special
//! cases are selects over a main path every lane runs, so the lane loop
//! has no data-dependent control flow for the Rust compiler to give up
//! on. `sin`/`cos` still branch per lane on non-finite and huge inputs,
//! `log1p` on tiny ones. Functions without a polynomial implementation
//! fall back to per-lane `std` calls (as SVML itself does for rarely-used
//! functions).
//!
//! Accuracy target is ~1e-12 relative over the ranges ionic models use;
//! the test suite checks each kernel against `std` on dense grids.

#![allow(clippy::needless_range_loop)] // index loops vectorize predictably here

/// Lanes of stack scratch the kernels that need a second buffer work
/// through at a time; longer inputs are processed in chunks of this.
const SCRATCH: usize = 64;

/// 1.5·2⁵²: adding it to a float below 2⁵¹ in magnitude leaves that float
/// rounded to an integer (ties to even) in the low mantissa bits.
pub(crate) const SHIFTER: f64 = 6_755_399_441_055_744.0;

/// `t` rounded half away from zero, as a float and as an integer, for
/// `|t| < 2³¹`: what `t.round()` and `t.round() as i32` give.
///
/// Float arithmetic and integer arithmetic on the bits only. A saturating
/// `as` cast from float to integer is a per-lane scalar sequence to LLVM
/// (`vcvttsd2si` with its clamps), so a lane loop holding one is not
/// vectorized; `round`, `trunc` and `floor` are libm calls on the portable
/// SSE2 build.
#[inline(always)]
pub(crate) fn round_half_away(t: f64) -> (f64, i32) {
    // Ties to even, then a tie the even way moves one further from zero:
    // `t - r` is exact, so a tie is seen exactly.
    let r = (t + SHIFTER) - SHIFTER;
    let tie = t - r == 0.5f64.copysign(t);
    // The sign of `t`, as `round` keeps it: `-0.3` rounds to `-0.0`.
    let r = if tie { r + 1.0f64.copysign(t) } else { r }.copysign(t);
    // `r + SHIFTER` is exact; its low 32 bits are `r` in two's complement.
    (r, (r + SHIFTER).to_bits() as i32)
}

/// Computes `e^x` per lane.
///
/// Range-reduces `x = k·ln2 + r` with `|r| ≤ ln2/2` and evaluates a
/// degree-11 Taylor polynomial for `e^r`, reconstructing with exponent
/// arithmetic. Overflow saturates to `inf`, underflow to `0`.
///
/// Branch-free: every lane runs the main path on its input clamped into
/// the representable range, and saturation and NaN are selected in at
/// the end, so the lane loop has no data-dependent control flow, no call
/// and no float-to-integer cast (see `round_half_away`).
#[inline(always)]
pub fn exp_block(x: &mut [f64]) {
    const LOG2E: f64 = std::f64::consts::LOG2_E;
    const LN2_HI: f64 = 6.931_471_803_691_238e-1;
    const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
    // Inputs beyond these saturate.
    const HI: f64 = 709.782_712_893_384;
    const LO: f64 = -745.133_219_101_941_1;
    for v in x.iter_mut() {
        let xi = *v;
        // NaN compares false and takes `LO`; the last select overrides it.
        let xc = if xi > LO { xi } else { LO };
        let xc = if xc < HI { xc } else { HI };
        let (k, ki) = round_half_away(xc * LOG2E);
        let r = (xc - k * LN2_HI) - k * LN2_LO;
        // e^r by Horner, degree 11 (|r| <= 0.3466 ⇒ error < 1e-16).
        let p = 1.0
            + r * (1.0
                + r * (0.5
                    + r * (1.0 / 6.0
                        + r * (1.0 / 24.0
                            + r * (1.0 / 120.0
                                + r * (1.0 / 720.0
                                    + r * (1.0 / 5040.0
                                        + r * (1.0 / 40320.0
                                            + r * (1.0 / 362880.0
                                                + r * (1.0 / 3628800.0
                                                    + r * (1.0 / 39916800.0)))))))))));
        // 2^k via exponent bits; -1075 <= k <= 1024, so split into two
        // halves to stay in the normal range during reconstruction.
        let k1 = ki / 2;
        let k2 = ki - k1;
        let two_k1 = f64::from_bits(((k1 + 1023) as u64) << 52);
        let two_k2 = f64::from_bits(((k2 + 1023) as u64) << 52);
        let y = p * two_k1 * two_k2;
        let y = if xi > HI { f64::INFINITY } else { y };
        let y = if xi < LO { 0.0 } else { y };
        *v = if xi.is_nan() { f64::NAN } else { y };
    }
}

/// Computes `ln(x)` per lane.
///
/// Reduces `x = m·2^e` with `m ∈ [√½, √2)` and evaluates the `atanh`
/// series in `s = (m−1)/(m+1)`. Non-positive inputs produce `NaN`/`-inf`
/// like `std`.
///
/// Branch-free like [`exp_block`]: subnormal renormalization and the
/// mantissa fold are selects, and the special cases (negative, NaN, zero,
/// infinity) override the main path's result at the end.
#[inline(always)]
pub fn log_block(x: &mut [f64]) {
    const LN2: f64 = std::f64::consts::LN_2;
    const EXP_MASK: u64 = 0x7FF;
    const MANTISSA: u64 = 0x000F_FFFF_FFFF_FFFF;
    const ONE: u64 = 0x3FF0_0000_0000_0000;
    for v in x.iter_mut() {
        let xi = *v;
        // Subnormals: renormalize by 2^53.
        let subnormal = (xi.to_bits() >> 52) & EXP_MASK == 0;
        let n = if subnormal {
            xi * 9_007_199_254_740_992.0
        } else {
            xi
        };
        let bias = if subnormal { 1023 + 53 } else { 1023 };
        let bits = n.to_bits();
        let e = ((bits >> 52) & EXP_MASK) as i32 - bias;
        let m = f64::from_bits((bits & MANTISSA) | ONE);
        let fold = m > std::f64::consts::SQRT_2;
        let m = if fold { m * 0.5 } else { m };
        let e = e + i32::from(fold);
        let s = (m - 1.0) / (m + 1.0);
        let s2 = s * s;
        // ln(m) = 2 s (1 + s²/3 + s⁴/5 + …): degree 13 is ample for
        // |s| ≤ 0.1716.
        let p = 1.0
            + s2 * (1.0 / 3.0
                + s2 * (1.0 / 5.0
                    + s2 * (1.0 / 7.0
                        + s2 * (1.0 / 9.0
                            + s2 * (1.0 / 11.0
                                + s2 * (1.0 / 13.0 + s2 * (1.0 / 15.0 + s2 / 17.0)))))));
        let y = 2.0 * s * p + f64::from(e) * LN2;
        let y = if xi == f64::INFINITY { xi } else { y };
        let y = if xi == 0.0 { f64::NEG_INFINITY } else { y };
        *v = if xi < 0.0 || xi.is_nan() { f64::NAN } else { y };
    }
}

/// Computes `tanh(x)` per lane via `1 − 2/(e^{2x}+1)`.
#[inline(always)]
pub fn tanh_block(x: &mut [f64]) {
    for x in x.chunks_mut(SCRATCH) {
        let mut t = [0.0f64; SCRATCH];
        let n = x.len();
        let t = &mut t[..n];
        for i in 0..n {
            t[i] = 2.0 * x[i];
        }
        exp_block(t);
        for i in 0..n {
            x[i] = if x[i].is_nan() {
                f64::NAN
            } else {
                1.0 - 2.0 / (t[i] + 1.0)
            };
        }
    }
}

/// Computes `sinh(x)` per lane via `(e^x − e^{−x})/2`.
#[inline(always)]
pub fn sinh_block(x: &mut [f64]) {
    for x in x.chunks_mut(SCRATCH) {
        let n = x.len();
        let mut ep = [0.0f64; SCRATCH];
        let ep = &mut ep[..n];
        ep.copy_from_slice(x);
        exp_block(ep);
        for i in 0..n {
            x[i] = 0.5 * (ep[i] - 1.0 / ep[i]);
        }
    }
}

/// Computes `cosh(x)` per lane via `(e^x + e^{−x})/2`.
#[inline(always)]
pub fn cosh_block(x: &mut [f64]) {
    for x in x.chunks_mut(SCRATCH) {
        let n = x.len();
        let mut ep = [0.0f64; SCRATCH];
        let ep = &mut ep[..n];
        ep.copy_from_slice(x);
        exp_block(ep);
        for i in 0..n {
            x[i] = 0.5 * (ep[i] + 1.0 / ep[i]);
        }
    }
}

/// Computes `e^x − 1` per lane (via `exp`; adequate for ionic-model use
/// where `expm1` appears in rate formulas away from 0).
#[inline(always)]
pub fn expm1_block(x: &mut [f64]) {
    for x in x.chunks_mut(SCRATCH) {
        let n = x.len();
        let mut orig = [0.0f64; SCRATCH];
        let orig = &mut orig[..n];
        orig.copy_from_slice(x);
        exp_block(x);
        for i in 0..n {
            x[i] = if orig[i].abs() < 1e-5 {
                // Series for tiny arguments keeps relative accuracy.
                orig[i] * (1.0 + orig[i] * (0.5 + orig[i] / 6.0))
            } else {
                x[i] - 1.0
            };
        }
    }
}

/// Computes `ln(1+x)` per lane.
#[inline(always)]
pub fn log1p_block(x: &mut [f64]) {
    let n = x.len();
    for i in 0..n {
        // Small arguments: series; otherwise delegate to log.
        if x[i].abs() < 1e-5 {
            let v = x[i];
            x[i] = v * (1.0 - v * (0.5 - v / 3.0));
        } else {
            let mut one = [1.0 + x[i]];
            log_block(&mut one);
            x[i] = one[0];
        }
    }
}

/// Computes `log10(x)` per lane.
#[inline(always)]
pub fn log10_block(x: &mut [f64]) {
    log_block(x);
    for v in x.iter_mut() {
        *v *= std::f64::consts::LOG10_E;
    }
}

/// Computes `log2(x)` per lane.
#[inline(always)]
pub fn log2_block(x: &mut [f64]) {
    log_block(x);
    for v in x.iter_mut() {
        *v *= std::f64::consts::LOG2_E;
    }
}

/// Computes `x^y` per lane via `exp(y·ln x)`, with the usual edge cases
/// (`x ≤ 0` delegates to `std`).
#[inline(always)]
#[allow(clippy::neg_cmp_op_on_partial_ord)] // `!(x > 0)` deliberately catches NaN
pub fn pow_block(x: &mut [f64], y: &[f64]) {
    for (x, y) in x.chunks_mut(SCRATCH).zip(y.chunks(SCRATCH)) {
        let n = x.len();
        let mut lx = [0.0f64; SCRATCH];
        let lx = &mut lx[..n];
        lx.copy_from_slice(x);
        let mut any_special = false;
        for i in 0..n {
            if !(x[i] > 0.0) {
                any_special = true;
            }
        }
        log_block(lx);
        for i in 0..n {
            lx[i] *= y[i];
        }
        exp_block(lx);
        for i in 0..n {
            x[i] = if any_special && !(x[i] > 0.0) {
                x[i].powf(y[i])
            } else {
                lx[i]
            };
        }
    }
}

/// Computes `sqrt(x)` per lane (hardware instruction; `std` is already
/// vector-friendly here).
#[inline(always)]
pub fn sqrt_block(x: &mut [f64]) {
    for v in x.iter_mut() {
        *v = v.sqrt();
    }
}

/// Computes `sin(x)` per lane with Cody–Waite reduction to `[−π/4, π/4]`
/// and sin/cos minimax polynomials. Falls back to `std` for |x| ≥ 2^20.
#[inline(always)]
pub fn sin_block(x: &mut [f64]) {
    sincos_block(x, false);
}

/// Computes `cos(x)` per lane (see [`sin_block`]).
#[inline(always)]
pub fn cos_block(x: &mut [f64]) {
    sincos_block(x, true);
}

#[inline(always)]
fn sincos_block(x: &mut [f64], want_cos: bool) {
    const FRAC_2_PI: f64 = std::f64::consts::FRAC_2_PI;
    // fdlibm-style split of pi/2 for Cody-Waite reduction.
    const PIO2_HI: f64 = 1.570_796_326_734_125_6;
    const PIO2_LO: f64 = 6.077_100_506_506_192e-11;
    const PIO2_LO2: f64 = 2.022_266_248_795_950_7e-21;
    for v in x.iter_mut() {
        let xi = *v;
        if !xi.is_finite() {
            *v = f64::NAN;
            continue;
        }
        if xi.abs() >= 1_048_576.0 {
            *v = if want_cos { xi.cos() } else { xi.sin() };
            continue;
        }
        let (q, qi) = round_half_away(xi * FRAC_2_PI);
        let r = ((xi - q * PIO2_HI) - q * PIO2_LO) - q * PIO2_LO2;
        // `q` modulo 4, non-negative: two's complement makes it a mask.
        let quadrant = qi & 3;
        let r2 = r * r;
        let sin_r = r
            * (1.0
                + r2 * (-1.0 / 6.0
                    + r2 * (1.0 / 120.0
                        + r2 * (-1.0 / 5040.0
                            + r2 * (1.0 / 362880.0
                                + r2 * (-1.0 / 39916800.0 + r2 * (1.0 / 6227020800.0)))))));
        let cos_r = 1.0
            + r2 * (-0.5
                + r2 * (1.0 / 24.0
                    + r2 * (-1.0 / 720.0
                        + r2 * (1.0 / 40320.0
                            + r2 * (-1.0 / 3628800.0 + r2 * (1.0 / 479001600.0))))));
        let eff = (quadrant + i32::from(want_cos)) & 3;
        *v = match eff {
            0 => sin_r,
            1 => cos_r,
            2 => -sin_r,
            _ => -cos_r,
        };
    }
}

/// Computes `tan(x)` per lane as `sin/cos`.
#[inline(always)]
pub fn tan_block(x: &mut [f64]) {
    for x in x.chunks_mut(SCRATCH) {
        let n = x.len();
        let mut c = [0.0f64; SCRATCH];
        let c = &mut c[..n];
        c.copy_from_slice(x);
        sin_block(x);
        cos_block(c);
        for i in 0..n {
            x[i] /= c[i];
        }
    }
}

macro_rules! scalar_fallback {
    ($(#[$doc:meta])* $name:ident, $method:ident) => {
        $(#[$doc])*
        #[inline(always)]
        pub fn $name(x: &mut [f64]) {
            for v in x.iter_mut() {
                *v = v.$method();
            }
        }
    };
}

scalar_fallback!(
    /// Per-lane `asin` (scalar `std` fallback, as SVML does for rare calls).
    asin_block, asin);
scalar_fallback!(
    /// Per-lane `acos` (scalar fallback).
    acos_block, acos);
scalar_fallback!(
    /// Per-lane `atan` (scalar fallback).
    atan_block, atan);
scalar_fallback!(
    /// Per-lane `cbrt` (scalar fallback).
    cbrt_block, cbrt);
scalar_fallback!(
    /// Per-lane `floor`.
    floor_block, floor);
scalar_fallback!(
    /// Per-lane `ceil`.
    ceil_block, ceil);
scalar_fallback!(
    /// Per-lane `round`.
    round_block, round);
scalar_fallback!(
    /// Per-lane `abs`.
    abs_block, abs);

/// Per-lane `atan2(y, x)` (scalar fallback).
#[inline(always)]
pub fn atan2_block(y: &mut [f64], x: &[f64]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = yi.atan2(*xi);
    }
}

/// Per-lane `copysign`.
#[inline(always)]
pub fn copysign_block(a: &mut [f64], b: &[f64]) {
    for (ai, bi) in a.iter_mut().zip(b) {
        *ai = ai.copysign(*bi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_grid(f: fn(&mut [f64]), reference: fn(f64) -> f64, lo: f64, hi: f64, tol: f64) {
        let n = 4001;
        for chunk_start in 0..(n / 8) {
            let mut xs = [0.0f64; 8];
            for (i, x) in xs.iter_mut().enumerate() {
                let k = chunk_start * 8 + i;
                *x = lo + (hi - lo) * (k as f64) / (n as f64 - 1.0);
            }
            let inputs = xs;
            f(&mut xs);
            for (x, &input) in xs.iter().zip(&inputs) {
                let want = reference(input);
                let got = *x;
                let denom = want.abs().max(1e-300);
                let rel = (got - want).abs() / denom;
                assert!(
                    rel < tol || (got - want).abs() < 1e-300,
                    "f({input}) = {got}, want {want} (rel {rel:.3e})"
                );
            }
        }
    }

    #[test]
    fn exp_matches_std() {
        check_grid(exp_block, f64::exp, -700.0, 700.0, 1e-12);
        check_grid(exp_block, f64::exp, -1.0, 1.0, 1e-14);
    }

    #[test]
    fn exp_edge_cases() {
        let mut v = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            800.0,
            -800.0,
        ];
        exp_block(&mut v);
        assert!(v[0].is_nan());
        assert_eq!(v[1], f64::INFINITY);
        assert_eq!(v[2], 0.0);
        assert_eq!(v[3], 1.0);
        assert_eq!(v[4], f64::INFINITY);
        assert_eq!(v[5], 0.0);
    }

    #[test]
    fn log_matches_std() {
        check_grid(log_block, f64::ln, 1e-8, 10.0, 1e-12);
        check_grid(log_block, f64::ln, 10.0, 1e6, 1e-13);
    }

    #[test]
    fn log_edge_cases() {
        let mut v = [0.0, -1.0, f64::INFINITY, 1.0];
        log_block(&mut v);
        assert_eq!(v[0], f64::NEG_INFINITY);
        assert!(v[1].is_nan());
        assert_eq!(v[2], f64::INFINITY);
        assert_eq!(v[3], 0.0);
    }

    #[test]
    fn tanh_matches_std() {
        check_grid(tanh_block, f64::tanh, -20.0, 20.0, 1e-12);
    }

    #[test]
    fn sinh_cosh_match_std() {
        check_grid(sinh_block, f64::sinh, -20.0, 20.0, 1e-11);
        check_grid(cosh_block, f64::cosh, -20.0, 20.0, 1e-12);
    }

    #[test]
    fn expm1_log1p_match_std() {
        check_grid(expm1_block, f64::exp_m1, -5.0, 5.0, 1e-11);
        check_grid(expm1_block, f64::exp_m1, -1e-6, 1e-6, 1e-10);
        check_grid(log1p_block, f64::ln_1p, -0.9, 10.0, 1e-11);
    }

    #[test]
    fn log10_log2_match_std() {
        check_grid(log10_block, f64::log10, 1e-6, 1e6, 1e-12);
        check_grid(log2_block, f64::log2, 1e-6, 1e6, 1e-12);
    }

    #[test]
    fn trig_matches_std() {
        check_grid(sin_block, f64::sin, -100.0, 100.0, 1e-10);
        check_grid(cos_block, f64::cos, -100.0, 100.0, 1e-10);
        check_grid(tan_block, f64::tan, -1.5, 1.5, 1e-9);
    }

    #[test]
    fn pow_matches_std() {
        for base in [0.5, 1.0, 2.0, 10.0, 123.456] {
            for expo in [-3.0, -0.5, 0.0, 0.5, 1.0, 2.5, 7.0] {
                let mut x = [base; 4];
                let y = [expo; 4];
                pow_block(&mut x, &y);
                let want = base.powf(expo);
                let rel = (x[0] - want).abs() / want.abs().max(1e-300);
                assert!(rel < 1e-11, "pow({base},{expo}) = {}, want {want}", x[0]);
            }
        }
        // Negative base edge case delegates to std.
        let mut x = [-2.0];
        pow_block(&mut x, &[2.0]);
        assert_eq!(x[0], 4.0);
    }

    #[test]
    fn block_functions_handle_any_len_up_to_64() {
        for n in [1usize, 2, 3, 7, 8, 16, 64] {
            let mut v = vec![0.5; n];
            tanh_block(&mut v);
            assert!((v[0] - 0.5f64.tanh()).abs() < 1e-12);
        }
    }

    #[test]
    fn scratch_kernels_take_any_length_and_equal_their_per_lane_result() {
        let mut rng = Bits(0x243f_6a88_85a3_08d3);
        let unary: [fn(&mut [f64]); 5] =
            [tanh_block, sinh_block, cosh_block, expm1_block, tan_block];
        for n in [1usize, 63, 64, 65, 200] {
            let mut xs: Vec<f64> = (0..n).map(|_| rng.uniform(-30.0, 30.0)).collect();
            // Every branch of `expm1` and `pow`, on both sides of a chunk edge.
            for at in [0, 62, 63, 64, 65, n - 1] {
                if at < n {
                    xs[at] = [1e-7, -2.5, 0.0, f64::NAN][at % 4];
                }
            }
            let ys: Vec<f64> = (0..n).map(|_| rng.uniform(-3.0, 3.0).round()).collect();
            for f in unary {
                let mut whole = xs.clone();
                f(&mut whole);
                for (i, x) in xs.iter().enumerate() {
                    let mut one = [*x];
                    f(&mut one);
                    assert_eq!(whole[i].to_bits(), one[0].to_bits(), "n={n} lane {i} f({x})");
                }
            }
            let mut whole = xs.clone();
            pow_block(&mut whole, &ys);
            for i in 0..n {
                let mut one = [xs[i]];
                pow_block(&mut one, &ys[i..=i]);
                assert_eq!(whole[i].to_bits(), one[0].to_bits(), "n={n} pow({}, {})", xs[i], ys[i]);
            }
        }
    }

    // The implementations of `exp_block` and `log_block` at f9ea60c (per-lane
    // `continue`s and a libm `round()`), verbatim: the oracles the
    // branch-free versions must equal bit for bit.
    fn exp_block_parent(x: &mut [f64]) {
        const LOG2E: f64 = std::f64::consts::LOG2_E;
        const LN2_HI: f64 = 6.931_471_803_691_238e-1;
        const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
        for v in x.iter_mut() {
            let xi = *v;
            // Saturate outside the representable range.
            if xi > 709.782_712_893_384 {
                *v = f64::INFINITY;
                continue;
            }
            if xi < -745.133_219_101_941_1 {
                *v = 0.0;
                continue;
            }
            if xi.is_nan() {
                *v = f64::NAN;
                continue;
            }
            let k = (xi * LOG2E).round();
            let r = (xi - k * LN2_HI) - k * LN2_LO;
            // e^r by Horner, degree 11 (|r| <= 0.3466 ⇒ error < 1e-16).
            let p = 1.0
                + r * (1.0
                    + r * (0.5
                        + r * (1.0 / 6.0
                            + r * (1.0 / 24.0
                                + r * (1.0 / 120.0
                                    + r * (1.0 / 720.0
                                        + r * (1.0 / 5040.0
                                            + r * (1.0 / 40320.0
                                                + r * (1.0 / 362880.0
                                                    + r * (1.0 / 3628800.0
                                                        + r * (1.0 / 39916800.0)))))))))));
            // 2^k via exponent bits; |k| < 1100 so split into two halves to
            // stay in the normal range during reconstruction.
            let k = k as i64;
            let (k1, k2) = (k / 2, k - k / 2);
            let two_k1 = f64::from_bits((((k1 + 1023) as u64) << 52).min(0x7FE0_0000_0000_0000));
            let two_k2 = f64::from_bits((((k2 + 1023) as u64) << 52).min(0x7FE0_0000_0000_0000));
            *v = p * two_k1 * two_k2;
        }
    }

    fn log_block_parent(x: &mut [f64]) {
        const LN2: f64 = std::f64::consts::LN_2;
        for v in x.iter_mut() {
            let xi = *v;
            if xi < 0.0 || xi.is_nan() {
                *v = f64::NAN;
                continue;
            }
            if xi == 0.0 {
                *v = f64::NEG_INFINITY;
                continue;
            }
            if xi.is_infinite() {
                continue;
            }
            let bits = xi.to_bits();
            let mut e = ((bits >> 52) & 0x7FF) as i64 - 1023;
            let mut m = f64::from_bits((bits & 0x000F_FFFF_FFFF_FFFF) | 0x3FF0_0000_0000_0000);
            // Subnormals: renormalize.
            if (bits >> 52) & 0x7FF == 0 {
                let n = xi * 9_007_199_254_740_992.0; // 2^53
                let nb = n.to_bits();
                e = ((nb >> 52) & 0x7FF) as i64 - 1023 - 53;
                m = f64::from_bits((nb & 0x000F_FFFF_FFFF_FFFF) | 0x3FF0_0000_0000_0000);
            }
            if m > std::f64::consts::SQRT_2 {
                m *= 0.5;
                e += 1;
            }
            let s = (m - 1.0) / (m + 1.0);
            let s2 = s * s;
            // ln(m) = 2 s (1 + s²/3 + s⁴/5 + …): degree 13 is ample for
            // |s| ≤ 0.1716.
            let p = 1.0
                + s2 * (1.0 / 3.0
                    + s2 * (1.0 / 5.0
                        + s2 * (1.0 / 7.0
                            + s2 * (1.0 / 9.0
                                + s2 * (1.0 / 11.0
                                    + s2 * (1.0 / 13.0 + s2 * (1.0 / 15.0 + s2 / 17.0)))))));
            *v = 2.0 * s * p + e as f64 * LN2;
        }
    }

    /// `sincos_block` before its quadrant lost the libm `round()` and the
    /// saturating `q as i64`, verbatim: the oracle for the current one.
    fn sincos_block_parent(x: &mut [f64], want_cos: bool) {
        const FRAC_2_PI: f64 = std::f64::consts::FRAC_2_PI;
        const PIO2_HI: f64 = 1.570_796_326_734_125_6;
        const PIO2_LO: f64 = 6.077_100_506_506_192e-11;
        const PIO2_LO2: f64 = 2.022_266_248_795_950_7e-21;
        for v in x.iter_mut() {
            let xi = *v;
            if !xi.is_finite() {
                *v = f64::NAN;
                continue;
            }
            if xi.abs() >= 1_048_576.0 {
                *v = if want_cos { xi.cos() } else { xi.sin() };
                continue;
            }
            let q = (xi * FRAC_2_PI).round();
            let r = ((xi - q * PIO2_HI) - q * PIO2_LO) - q * PIO2_LO2;
            let quadrant = ((q as i64 % 4) + 4) % 4;
            let r2 = r * r;
            let sin_r = r
                * (1.0
                    + r2 * (-1.0 / 6.0
                        + r2 * (1.0 / 120.0
                            + r2 * (-1.0 / 5040.0
                                + r2 * (1.0 / 362880.0
                                    + r2 * (-1.0 / 39916800.0 + r2 * (1.0 / 6227020800.0)))))));
            let cos_r = 1.0
                + r2 * (-0.5
                    + r2 * (1.0 / 24.0
                        + r2 * (-1.0 / 720.0
                            + r2 * (1.0 / 40320.0
                                + r2 * (-1.0 / 3628800.0 + r2 * (1.0 / 479001600.0))))));
            let eff = if want_cos { quadrant + 1 } else { quadrant } % 4;
            *v = match eff {
                0 => sin_r,
                1 => cos_r,
                2 => -sin_r,
                _ => -cos_r,
            };
        }
    }

    #[test]
    fn round_half_away_equals_round_and_its_cast_at_every_tie() {
        let check = |t: f64| {
            let (r, ri) = round_half_away(t);
            assert_eq!(r.to_bits(), t.round().to_bits(), "round({t:e})");
            assert_eq!(ri, t.round() as i32, "round({t:e}) as i32");
        };
        // Every tie `k + 1/2` of exp's range reduction — the first tie fix
        // tried got the negative ones wrong — each with its neighbours,
        // and every integer.
        for k in -1075..=1024 {
            let tie = f64::from(k) + 0.5;
            with_neighbours(tie).into_iter().for_each(check);
            // Zero's bit neighbours below it are NaNs; it is checked below.
            if k != 0 {
                with_neighbours(f64::from(k)).into_iter().for_each(check);
            }
        }
        // Both zeros and the smallest subnormals, the ties nearest zero, the
        // largest double below one half, the edges of the range the sin/cos
        // quadrant uses.
        for t in [0.0, -0.0, 5e-324, -5e-324] {
            check(t);
        }
        for t in [0.5, 1.5, 0.499_999_999_999_999_94, 1e-300] {
            with_neighbours(t).into_iter().for_each(check);
            with_neighbours(-t).into_iter().for_each(check);
        }
        for t in [667_544.0, 667_544.5, 2_147_483_647.0, -2_147_483_648.0] {
            with_neighbours(t).into_iter().for_each(check);
        }
        let mut rng = Bits(0x5851_f42d_4c95_7f2d);
        for _ in 0..200_000 {
            check(rng.uniform(-1100.0, 1100.0));
            check(rng.uniform(-1e6, 1e6));
        }
    }

    #[test]
    fn exp_at_every_rounding_tie_and_subnormal_result_matches_the_parent() {
        // An `x` whose `x·log2e` is exactly a tie `k + 1/2`, where one lies
        // within a few ulps of `(k + 1/2)·ln2`, for every `k` the clamp lets
        // through.
        let mut inputs = Vec::new();
        for k in -1075..=1024 {
            let tie = f64::from(k) + 0.5;
            let near = tie / std::f64::consts::LOG2_E;
            for by in -4i64..=4 {
                let x = f64::from_bits((near.to_bits() as i64 + by) as u64);
                if x * std::f64::consts::LOG2_E == tie {
                    inputs.push(x);
                }
            }
        }
        assert!(inputs.len() > 500, "{} exact ties", inputs.len());
        // Results below the smallest normal, down to the last subnormal.
        let mut rng = Bits(0x2545_f491_4f6c_dd1d);
        for _ in 0..200_000 {
            inputs.push(rng.uniform(-745.2, -708.3));
        }
        for i in 0..=20_000 {
            inputs.push(-745.14 + f64::from(i) * (745.14 - 708.39) / 20_000.0);
        }
        let mut got = inputs.clone();
        exp_block(&mut got);
        assert!(got.iter().any(|y| *y > 0.0 && *y < f64::MIN_POSITIVE));
        assert_same_bits(exp_block, exp_block_parent, &inputs);
    }

    #[test]
    fn sin_cos_are_bit_identical_to_their_parent_quadrant_code() {
        let mut rng = Bits(0x1405_7b7e_f767_814f);
        let mut inputs: Vec<f64> = SPECIALS.iter().map(|&b| f64::from_bits(b)).collect();
        // Every quadrant boundary and quadrant tie (`x·2/π = k` and
        // `k + 1/2`) of a few thousand quadrants on either side of zero,
        // and the fallback edge.
        for k in -4000..=4000 {
            let q = f64::from(k) * 0.5 / std::f64::consts::FRAC_2_PI;
            inputs.extend(with_neighbours(q));
        }
        inputs.extend(with_neighbours(1_048_576.0));
        inputs.extend(with_neighbours(-1_048_576.0));
        for _ in 0..200_000 {
            inputs.push(rng.uniform(-10.0, 10.0));
            inputs.push(rng.uniform(-1_100_000.0, 1_100_000.0));
        }
        assert_same_bits(sin_block, |x| sincos_block_parent(x, false), &inputs);
        assert_same_bits(cos_block, |x| sincos_block_parent(x, true), &inputs);
    }

    /// xorshift64*: reproducible inputs without a dependency.
    struct Bits(u64);

    impl Bits {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        /// Uniform in `[lo, hi)`.
        fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * ((self.next() >> 11) as f64 / (1u64 << 53) as f64)
        }
    }

    /// `x` and its two neighbours on either side.
    fn with_neighbours(x: f64) -> [f64; 5] {
        let step = |v: f64, by: i64| f64::from_bits((v.to_bits() as i64 + by) as u64);
        [step(x, -2), step(x, -1), x, step(x, 1), step(x, 2)]
    }

    /// Runs both implementations over `inputs` in blocks of 8 (and a ragged
    /// tail) and demands identical bits, NaN payloads included.
    fn assert_same_bits(new: fn(&mut [f64]), parent: fn(&mut [f64]), inputs: &[f64]) {
        for block in inputs.chunks(8) {
            let (mut got, mut want) = (block.to_vec(), block.to_vec());
            new(&mut got);
            parent(&mut want);
            for ((g, w), x) in got.iter().zip(&want).zip(block) {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "f({x:e}) [{:016x}]: {g:e} vs parent {w:e}",
                    x.to_bits()
                );
            }
        }
    }

    const SPECIALS: [u64; 12] = [
        0x0000_0000_0000_0000, // +0.0
        0x8000_0000_0000_0000, // -0.0
        0x0000_0000_0000_0001, // smallest subnormal
        0x000f_ffff_ffff_ffff, // largest subnormal
        0x0010_0000_0000_0000, // smallest normal
        0x7fef_ffff_ffff_ffff, // largest finite
        0x7ff0_0000_0000_0000, // +inf
        0xfff0_0000_0000_0000, // -inf
        0x7ff8_0000_0000_0000, // canonical quiet NaN
        0x7ff0_0000_0000_0001, // signalling NaN
        0xfff8_dead_beef_cafe, // negative NaN with a payload
        0xffff_ffff_ffff_ffff, // all ones
    ];

    #[test]
    fn exp_is_bit_identical_to_the_parent_implementation() {
        let mut rng = Bits(0x9e37_79b9_7f4a_7c15);
        let mut inputs: Vec<f64> = SPECIALS.iter().map(|&b| f64::from_bits(b)).collect();
        // Rounding ties of the range reduction: every half-integer of
        // x·log2e the clamp lets through, and every integer.
        for twice_k in -2200..=2100 {
            let x = f64::from(twice_k) * 0.5 / std::f64::consts::LOG2_E;
            inputs.extend(with_neighbours(x));
        }
        // Saturation edges and the tie the rounding constant exists for.
        for edge in [
            709.782_712_893_384,
            -745.133_219_101_941_1,
            -708.396_418_532_264_1, // ln(smallest normal)
            0.499_999_999_999_999_94 / std::f64::consts::LOG2_E,
            0.5 / std::f64::consts::LOG2_E,
        ] {
            inputs.extend(with_neighbours(edge));
            inputs.extend(with_neighbours(-edge));
        }
        for _ in 0..500_000 {
            inputs.push(rng.uniform(-800.0, 800.0));
            inputs.push(f64::from_bits(rng.next()));
        }
        assert!(inputs.len() > 1_000_000);
        assert_same_bits(exp_block, exp_block_parent, &inputs);
    }

    #[test]
    fn log_is_bit_identical_to_the_parent_implementation() {
        let mut rng = Bits(0xd1b5_4a32_d192_ed03);
        let mut inputs: Vec<f64> = SPECIALS.iter().map(|&b| f64::from_bits(b)).collect();
        // Every binade, subnormal ones too: at the power of two and at the
        // mantissa fold (m = √2).
        for e in -1074..=1023 {
            let two_e = 2f64.powi(e);
            inputs.extend(with_neighbours(two_e));
            inputs.extend(with_neighbours(two_e * std::f64::consts::SQRT_2));
            inputs.push(-two_e);
        }
        for _ in 0..300_000 {
            inputs.push(rng.uniform(0.0, 10.0));
            inputs.push(rng.uniform(0.0, 1e-300) * 1e-10); // subnormal and tiny
            inputs.push(f64::from_bits(rng.next()));
            inputs.push(f64::from_bits(rng.next() >> 1)); // non-negative
        }
        assert!(inputs.len() > 1_000_000);
        assert_same_bits(log_block, log_block_parent, &inputs);
    }
}
