//! Counter-based, block-keyed random sampling for the streaming Monte
//! Carlo engine.
//!
//! The engine's determinism guarantee rests on this module: every sample
//! block draws from a [`BlockRng`] seeded purely by `(seed, block_index)`,
//! never by which worker thread happens to run the block. Results are
//! therefore bit-identical at any worker count, and any block can be
//! re-executed in isolation.
//!
//! The generator is splitmix64 — the same core the vendored `rand`
//! stand-in uses — with the block index folded into the initial state
//! through two full mixing rounds so adjacent blocks are decorrelated.
//!
//! ## The normal stream (`v2`, see [`RNG_STREAM`])
//!
//! Normals come from Box–Muller **pairs** over consecutive raw words:
//! `u1 = 1 − next_f64()`, `u2 = next_f64()`, `r = √(−2·ln u1)`, then
//! `z₂ᵢ = r·cos 2πu2` and `z₂ᵢ₊₁ = r·sin 2πu2` — both outputs are used.
//! Pairs are transformed eight at a time as fixed-size `[f64; N]`
//! loops that LLVM autovectorizes; [`BlockRng::fill_normals`] writes whole
//! chunks straight into the caller's slice, and [`BlockRng::normal`] pops
//! from a one-chunk buffer refilled by the same routine, so the scalar and
//! block sequences are bit-identical by construction.
//!
//! `ln`, `sin`/`cos` and `exp` are fdlibm-style polynomial kernels
//! (`ln_v2`, `sincos_v2`, `exp_v2`) built only from IEEE `+ − × ÷`,
//! `sqrt` and bit manipulation. Nothing on the sampling path calls the
//! platform libm and rustc never contracts `a·b + c` into an FMA, so the
//! stream is the same bits on every target, profile and libc. The golden
//! test at the bottom pins it; changing any of it is a new stream name.

/// Name of the normal/log-normal stream this module produces. Reports
/// carry it (`rng_stream`) so a committed result names the stream that
/// reproduces it.
pub const RNG_STREAM: &str = "v2";

/// splitmix64's output mixing function.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Uniform in `[0, 1)` from a raw word's top 53 bits.
#[inline]
fn unit(w: u64) -> f64 {
    (w >> 11) as f64 / (1u64 << 53) as f64
}

/// Box–Muller pairs transformed per chunk.
const PAIRS: usize = 8;
/// Normals per chunk: both outputs of every pair.
const CHUNK: usize = 2 * PAIRS;

/// A deterministic per-block random stream: `(seed, block)` fully
/// determines every draw.
#[derive(Debug, Clone)]
pub struct BlockRng {
    state: u64,
    /// Normals generated but not yet handed out are `buf[next..]`.
    buf: [f64; CHUNK],
    next: usize,
}

impl BlockRng {
    /// Stream for block `block` of the run keyed by `seed`.
    pub fn new(seed: u64, block: u64) -> Self {
        // Two mix rounds over seed and counter: blocks 0 and 1 of the same
        // seed share no low-entropy prefix, and the same block index under
        // different seeds is unrelated.
        let state = mix64(mix64(seed ^ GOLDEN) ^ block.wrapping_mul(GOLDEN).wrapping_add(1));
        BlockRng {
            state,
            buf: [0.0; CHUNK],
            next: CHUNK,
        }
    }

    /// Next raw 64-bit word (splitmix64 step).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN);
        mix64(self.state)
    }

    /// Uniform `f64` in `[0, 1)` (53-bit mantissa).
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        unit(self.next_u64())
    }

    /// The next standard normal of the block's normal sequence.
    ///
    /// Normals are generated a chunk of eight Box–Muller pairs at a time,
    /// so the first call consumes sixteen raw words and a raw draw made
    /// after it continues past that whole chunk.
    #[inline]
    pub fn normal(&mut self) -> f64 {
        if self.next == CHUNK {
            self.buf = self.chunk();
            self.next = 0;
        }
        let z = self.buf[self.next];
        self.next += 1;
        z
    }

    /// Fills `out` with the next `out.len()` normals — bit-identical to
    /// calling [`BlockRng::normal`] that many times, but whole chunks are
    /// transformed straight into `out`.
    pub fn fill_normals(&mut self, out: &mut [f64]) {
        let buffered = (CHUNK - self.next).min(out.len());
        let (head, rest) = out.split_at_mut(buffered);
        head.copy_from_slice(&self.buf[self.next..self.next + buffered]);
        self.next += buffered;
        let mut chunks = rest.chunks_exact_mut(CHUNK);
        for c in &mut chunks {
            c.copy_from_slice(&self.chunk());
        }
        let tail = chunks.into_remainder();
        if !tail.is_empty() {
            self.buf = self.chunk();
            tail.copy_from_slice(&self.buf[..tail.len()]);
            self.next = tail.len();
        }
    }

    /// Log-normal multiplier `exp(sigma · z)` with median 1 — the process
    /// variation model the examples use (a σ-sized geometric spread).
    #[inline]
    pub fn log_normal(&mut self, sigma: f64) -> f64 {
        exp_v2(sigma * self.normal())
    }

    /// The next `PAIRS` Box–Muller pairs, `[z₀, z₁, …]`, from the next
    /// `CHUNK` raw words.
    #[inline]
    fn chunk(&mut self) -> [f64; CHUNK] {
        // Word `i` of the chunk is splitmix64 step `i + 1` from `base`, in
        // closed form so the words are independent lanes.
        let base = self.state;
        let word = |i: usize| mix64(base.wrapping_add(GOLDEN.wrapping_mul(i as u64 + 1)));
        self.state = base.wrapping_add(GOLDEN.wrapping_mul(CHUNK as u64));
        let mut u1 = [0.0; PAIRS];
        let mut u2 = [0.0; PAIRS];
        for i in 0..PAIRS {
            // 1 − u ∈ (0, 1] keeps the log argument away from zero.
            u1[i] = 1.0 - unit(word(2 * i));
            u2[i] = unit(word(2 * i + 1));
        }
        // Transform into separate columns, then interleave: a loop that
        // stores the pair interleaved does not vectorize.
        let mut r = [0.0; PAIRS];
        let mut sin = [0.0; PAIRS];
        let mut cos = [0.0; PAIRS];
        for i in 0..PAIRS {
            r[i] = (-2.0 * ln_v2(u1[i])).sqrt();
            (sin[i], cos[i]) = sincos_v2(u2[i]);
        }
        let mut out = [0.0; CHUNK];
        for i in 0..PAIRS {
            out[2 * i] = r[i] * cos[i];
            out[2 * i + 1] = r[i] * sin[i];
        }
        out
    }
}

/// `1.5·2⁵²`: adding it to `|t| < 2⁵¹` rounds `t` to the nearest integer
/// (ties to even), and that integer sits in the sum's low mantissa bits.
const SHIFTER: f64 = 6_755_399_441_055_744.0;
/// Bits of √2/2, the lower edge of the reduced `ln` mantissa range.
const SQRT1_2_BITS: u64 = 0x3FE6_A09E_667F_3BCD;
const ONE_BITS: u64 = 0x3FF0_0000_0000_0000;
const MANTISSA: u64 = 0x000F_FFFF_FFFF_FFFF;
/// `ln 2` split so `k·LN2_HI` is exact for `|k| < 2¹¹` (bit patterns, as
/// are fdlibm's coefficients in the kernels below).
const LN2_HI: f64 = f64::from_bits(0x3FE6_2E42_FEE0_0000);
const LN2_LO: f64 = f64::from_bits(0x3DEA_39EF_3579_3C76);

/// Natural log of a positive normal `x` (fdlibm `e_log.c` kernel), within
/// 1 ulp of the exact value. The sampler only passes `u1 ∈ [2⁻⁵³, 1]`;
/// zero, negative, subnormal and non-finite inputs are outside the domain.
#[inline]
pub(crate) fn ln_v2(x: f64) -> f64 {
    const LG1: f64 = f64::from_bits(0x3FE5_5555_5555_5593);
    const LG2: f64 = f64::from_bits(0x3FD9_9999_9997_FA04);
    const LG3: f64 = f64::from_bits(0x3FD2_4924_9422_9359);
    const LG4: f64 = f64::from_bits(0x3FCC_71C5_1D8E_78AF);
    const LG5: f64 = f64::from_bits(0x3FC7_4664_96CB_03DE);
    const LG6: f64 = f64::from_bits(0x3FC3_9A09_D078_C69F);
    const LG7: f64 = f64::from_bits(0x3FC2_F112_DF3E_5244);
    // x = 2ᵏ·m with m ∈ [√2/2, √2): offset the bits so the exponent field
    // steps at √2/2 instead of 1, read k off it, and put the mantissa back
    // over √2/2's exponent.
    let ix = x.to_bits().wrapping_add(ONE_BITS - SQRT1_2_BITS);
    // The biased exponent as an exact f64 without an int→float conversion.
    let k = f64::from_bits(0x4330_0000_0000_0000 | (ix >> 52)) - (4_503_599_627_370_496.0 + 1023.0);
    let f = f64::from_bits((ix & MANTISSA) + SQRT1_2_BITS) - 1.0;
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t2 + t1;
    s * (hfsq + r) + k * LN2_LO - hfsq + f + k * LN2_HI
}

/// `(sin 2πu, cos 2πu)` for `u ∈ [0, 1)` (fdlibm `k_sin.c`/`k_cos.c`
/// kernels on `[−π/4, π/4]`).
///
/// The quadrant reduction works on `4u` in turns: `4u` and its distance
/// to the nearest integer are exact, so no rounded `2π·u` product is ever
/// reduced — the only rounding before the kernels is `f·π/2`, relative
/// to an angle of at most π/4.
#[inline]
pub(crate) fn sincos_v2(u: f64) -> (f64, f64) {
    const S1: f64 = f64::from_bits(0xBFC5_5555_5555_5549);
    const S2: f64 = f64::from_bits(0x3F81_1111_1110_F8A6);
    const S3: f64 = f64::from_bits(0xBF2A_01A0_19C1_61D5);
    const S4: f64 = f64::from_bits(0x3EC7_1DE3_57B1_FE7D);
    const S5: f64 = f64::from_bits(0xBE5A_E5E6_8A2B_9CEB);
    const S6: f64 = f64::from_bits(0x3DE5_D93A_5ACF_D57C);
    const C1: f64 = f64::from_bits(0x3FA5_5555_5555_554C);
    const C2: f64 = f64::from_bits(0xBF56_C16C_16C1_5177);
    const C3: f64 = f64::from_bits(0x3EFA_01A0_19CB_1590);
    const C4: f64 = f64::from_bits(0xBE92_7E4F_809C_52AD);
    const C5: f64 = f64::from_bits(0x3E21_EE9E_BDB4_B1C4);
    const C6: f64 = f64::from_bits(0xBDA8_FAE9_BE88_38D4);
    let t = 4.0 * u;
    let sh = t + SHIFTER;
    let q = sh.to_bits() & 3;
    let x = (t - (sh - SHIFTER)) * std::f64::consts::FRAC_PI_2;
    let z = x * x;
    let w = z * z;
    let sin = x + z * x * (S1 + z * (S2 + z * (S3 + z * (S4 + z * (S5 + z * S6)))));
    let r = z * (C1 + z * (C2 + z * C3)) + w * w * (C4 + z * (C5 + z * C6));
    let hz = 0.5 * z;
    let one_minus_hz = 1.0 - hz;
    let cos = one_minus_hz + (((1.0 - one_minus_hz) - hz) + z * r);
    // Rotate by q quarter turns: odd quadrants swap sin and cos; sin is
    // negative in quadrants 2 and 3, cos in 1 and 2.
    let (s, c) = if q & 1 == 1 { (cos, sin) } else { (sin, cos) };
    let s_sign = (q >> 1) << 63;
    let c_sign = ((q ^ (q >> 1)) & 1) << 63;
    (
        f64::from_bits(s.to_bits() ^ s_sign),
        f64::from_bits(c.to_bits() ^ c_sign),
    )
}

/// `eˣ` (fdlibm `e_exp.c` kernel), within 1 ulp of the exact value for a
/// normal result. `x ≥ 710` gives `+∞`, `x ≤ −746` gives `0`, NaN stays
/// NaN.
#[inline]
pub(crate) fn exp_v2(x: f64) -> f64 {
    const INV_LN2: f64 = std::f64::consts::LOG2_E;
    const P1: f64 = f64::from_bits(0x3FC5_5555_5555_553E);
    const P2: f64 = f64::from_bits(0xBF66_C16C_16BE_BD93);
    const P3: f64 = f64::from_bits(0x3F11_566A_AF25_DE2C);
    const P4: f64 = f64::from_bits(0xBEBB_BD41_C5D2_6BF1);
    const P5: f64 = f64::from_bits(0x3E66_3769_72BE_A4D0);
    // Past the clamp the result is already 0 or +∞; the clamp keeps k in
    // [−1077, 1025] so the scale factors below stay normal.
    let x = x.clamp(-746.0, 710.0);
    let sh = x * INV_LN2 + SHIFTER;
    let k = sh - SHIFTER;
    let hi = x - k * LN2_HI;
    let lo = k * LN2_LO;
    let r = hi - lo;
    let rr = r * r;
    let c = r - rr * (P1 + rr * (P2 + rr * (P3 + rr * (P4 + rr * P5))));
    let y = 1.0 + (r * c / (2.0 - c) - lo + hi);
    // 2ᵏ as two normal factors with biased exponents e1 + e2 = k + 2046:
    // y·2^e1 is exact, so a subnormal or overflowing result rounds once.
    let kb = sh
        .to_bits()
        .wrapping_sub(SHIFTER.to_bits())
        .wrapping_add(2046);
    let e1 = kb >> 1;
    y * f64::from_bits(e1 << 52) * f64::from_bits((kb - e1) << 52)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pinned output sequence. If this test fails, the determinism
    /// guarantee documented in docs/timing.md is broken: committed yield
    /// reports and the bit-identical-across-workers property both assume
    /// this exact stream.
    #[test]
    fn golden_sequence_is_pinned() {
        let mut r = BlockRng::new(0x5EED, 0);
        assert_eq!(r.next_u64(), 0x983f053f7ab9aea6);
        assert_eq!(r.next_u64(), 0x86f7d9b1206516a2);
        assert_eq!(r.next_u64(), 0xb1f6410d2cc33d7a);
        let mut r = BlockRng::new(0x5EED, 0);
        let u: Vec<f64> = (0..3).map(|_| r.next_f64()).collect();
        assert_eq!(u[0], 0.5947116165141099);
        assert_eq!(u[1], 0.5272193963468406);
        assert_eq!(u[2], 0.6951637894787951);
        let mut r = BlockRng::new(0x5EED, 0);
        // z₀ and its sine partner z₁ come from u[0], u[1] above; the
        // log-normal uses z₂ (words 3 and 4).
        assert_eq!(r.normal(), -1.3243837774034724);
        assert_eq!(r.normal(), -0.22873658366781308);
        assert_eq!(r.log_normal(0.25), 0.7830085430924648);
        // z₁₆ opens the second chunk: the buffer refill is part of the
        // stream.
        let mut rest = [0.0; CHUNK];
        r.fill_normals(&mut rest);
        assert_eq!(rest[CHUNK - 3], 0.38314187820595);
    }

    #[test]
    fn fill_normals_matches_repeated_normal() {
        for len in 1..=40 {
            // Start at every buffer position, so fills begin mid-chunk,
            // at a chunk edge, and span refills.
            for offset in 0..CHUNK {
                let mut a = BlockRng::new(0xB10C, len as u64);
                let mut b = a.clone();
                for _ in 0..offset {
                    a.normal();
                }
                b.fill_normals(&mut vec![0.0; offset]);
                let mut got = vec![0.0; len];
                b.fill_normals(&mut got);
                for (i, g) in got.iter().enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        a.normal().to_bits(),
                        "len {len} offset {offset} i {i}"
                    );
                }
                // Both streams continue identically.
                assert_eq!(a.normal().to_bits(), b.normal().to_bits());
            }
        }
    }

    /// Distance in representable doubles between two finite values of
    /// the same sign.
    fn ulps(a: f64, b: f64) -> u64 {
        (a.to_bits() as i64 - b.to_bits() as i64).unsigned_abs()
    }

    #[test]
    fn ln_within_one_ulp_of_std() {
        let mut r = BlockRng::new(0x1, 0);
        let mut worst = 0;
        for i in 0..1_000_000 {
            let w = r.next_u64();
            // Alternate the sampler's inputs with normals spread over every
            // exponent of (0, 1].
            let x = if i % 2 == 0 {
                1.0 - r.next_f64()
            } else {
                f64::from_bits(((1 + w % 1022) << 52) | (w >> 12))
            };
            worst = worst.max(ulps(ln_v2(x), x.ln()));
        }
        assert_eq!(ln_v2(1.0), 0.0);
        assert!(worst <= 1, "ln off by {worst} ulp");
    }

    #[test]
    fn exp_within_one_ulp_of_std() {
        let mut r = BlockRng::new(0x2, 0);
        let mut worst = 0;
        for _ in 0..1_000_000 {
            let x = -40.0 + 80.0 * r.next_f64();
            worst = worst.max(ulps(exp_v2(x), x.exp()));
        }
        assert_eq!(exp_v2(0.0), 1.0);
        assert!(worst <= 1, "exp off by {worst} ulp");
    }

    #[test]
    fn exp_edge_cases() {
        for x in [710.0, 800.0, 1e300, f64::INFINITY] {
            assert_eq!(exp_v2(x), f64::INFINITY, "exp({x})");
        }
        for x in [-746.0, -800.0, -1e300, f64::NEG_INFINITY] {
            assert_eq!(exp_v2(x).to_bits(), 0, "exp({x})");
        }
        assert!(exp_v2(f64::NAN).is_nan());
        // Near the ends of the range: finite below overflow, subnormal
        // above total underflow, each within 1 ulp of std.
        for x in [709.7, 709.78, -708.0, -740.0, -745.0] {
            assert!(ulps(exp_v2(x), x.exp()) <= 1, "exp({x})");
        }
    }

    #[test]
    fn sincos_within_2e15_of_std() {
        let mut r = BlockRng::new(0x3, 0);
        let mut worst: f64 = 0.0;
        for i in 0..1_000_000 {
            // Quarter-turn boundaries and their neighbors, then uniforms.
            let u = if i < 16 {
                (i / 4) as f64 * 0.25 + [0.0, 1e-16, -1e-16, 0.125][i % 4]
            } else {
                r.next_f64()
            };
            let u = u.clamp(0.0, 1.0 - f64::EPSILON / 2.0);
            let (s, c) = sincos_v2(u);
            let a = 2.0 * std::f64::consts::PI * u;
            worst = worst.max((s - a.sin()).abs()).max((c - a.cos()).abs());
        }
        assert!(worst <= 2e-15, "sincos off by {worst:e}");
    }

    /// Standard normal CDF; `erfc` is Numerical Recipes' Chebyshev fit
    /// (fractional error < 1.2e-7, far below the KS critical value).
    fn normal_cdf(x: f64) -> f64 {
        let z = x.abs() / std::f64::consts::SQRT_2;
        let t = 1.0 / (1.0 + 0.5 * z);
        let poly = -z * z - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77))))))));
        let erfc = t * poly.exp();
        if x >= 0.0 {
            1.0 - 0.5 * erfc
        } else {
            0.5 * erfc
        }
    }

    #[test]
    fn normal_statistics_on_2_pow_20_draws() {
        let n = 1 << 20;
        let mut z = vec![0.0; n];
        BlockRng::new(0x5747, 0).fill_normals(&mut z);
        let nf = n as f64;
        let mean = z.iter().sum::<f64>() / nf;
        let var = z.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / nf;
        // The two outputs of a pair must be uncorrelated.
        let pair_corr = z.chunks_exact(2).map(|p| p[0] * p[1]).sum::<f64>() / (nf / 2.0);
        // ~5 standard errors: 1/√n ≈ 9.8e-4 for the mean, √(2/n) ≈ 1.4e-3
        // for the variance and the pair correlation.
        assert!(mean.abs() < 5e-3, "mean {mean}");
        assert!((var - 1.0).abs() < 7e-3, "variance {var}");
        assert!(pair_corr.abs() < 7e-3, "pair correlation {pair_corr}");
        // Kolmogorov–Smirnov against N(0,1) at the 1 % level.
        z.sort_by(f64::total_cmp);
        let d = z
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let f = normal_cdf(x);
                (f - i as f64 / nf).max((i + 1) as f64 / nf - f)
            })
            .fold(0.0, f64::max);
        let critical = 1.628 / nf.sqrt();
        assert!(d < critical, "KS D {d:e} >= {critical:e}");
    }

    #[test]
    fn blocks_are_independent_streams() {
        let a: Vec<u64> = {
            let mut r = BlockRng::new(7, 0);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = BlockRng::new(7, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, b);
        // Re-keying reproduces the block exactly.
        let a2: Vec<u64> = {
            let mut r = BlockRng::new(7, 0);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, a2);
    }

    #[test]
    fn uniforms_cover_unit_interval() {
        let mut r = BlockRng::new(1, 42);
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u = r.next_f64();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "uniform mean {mean}");
    }

    #[test]
    fn normal_moments_are_sane() {
        let mut r = BlockRng::new(3, 9);
        let n = 50_000;
        let (mut s1, mut s2) = (0.0, 0.0);
        for _ in 0..n {
            let z = r.normal();
            s1 += z;
            s2 += z * z;
        }
        let mean = s1 / n as f64;
        let var = s2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "normal mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "normal var {var}");
    }

    #[test]
    fn log_normal_median_is_one() {
        let mut r = BlockRng::new(11, 2);
        let mut v: Vec<f64> = (0..20_001).map(|_| r.log_normal(0.3)).collect();
        v.sort_by(f64::total_cmp);
        let median = v[v.len() / 2];
        assert!((median - 1.0).abs() < 0.03, "log-normal median {median}");
        assert!(v.iter().all(|&x| x > 0.0));
    }
}
