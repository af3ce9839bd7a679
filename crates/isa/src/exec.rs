//! Pure functional semantics of the arithmetic instructions.
//!
//! Shared by the constant-folding pass and the simulator's lane execution so
//! that "what the optimizer proves" and "what the machine computes" can never
//! disagree.

use crate::inst::{AluOp, CmpOp, Scalar, SfuOp, UnOp};
use crate::Value;

/// Evaluates a two-source ALU operation.
pub fn eval_alu(op: AluOp, a: Value, b: Value) -> Value {
    match op {
        AluOp::FAdd => Value::from_f32(a.as_f32() + b.as_f32()),
        AluOp::FSub => Value::from_f32(a.as_f32() - b.as_f32()),
        AluOp::FMul => Value::from_f32(a.as_f32() * b.as_f32()),
        AluOp::FMin => Value::from_f32(a.as_f32().min(b.as_f32())),
        AluOp::FMax => Value::from_f32(a.as_f32().max(b.as_f32())),
        AluOp::IAdd => Value::from_u32(a.as_u32().wrapping_add(b.as_u32())),
        AluOp::ISub => Value::from_u32(a.as_u32().wrapping_sub(b.as_u32())),
        AluOp::IMul => Value::from_u32(a.as_u32().wrapping_mul(b.as_u32())),
        AluOp::UMin => Value::from_u32(a.as_u32().min(b.as_u32())),
        AluOp::UMax => Value::from_u32(a.as_u32().max(b.as_u32())),
        AluOp::IMin => Value::from_i32(a.as_i32().min(b.as_i32())),
        AluOp::IMax => Value::from_i32(a.as_i32().max(b.as_i32())),
        AluOp::And => Value::from_u32(a.as_u32() & b.as_u32()),
        AluOp::Or => Value::from_u32(a.as_u32() | b.as_u32()),
        AluOp::Xor => Value::from_u32(a.as_u32() ^ b.as_u32()),
        AluOp::Shl => Value::from_u32(a.as_u32().wrapping_shl(b.as_u32() & 31)),
        AluOp::ShrU => Value::from_u32(a.as_u32().wrapping_shr(b.as_u32() & 31)),
        AluOp::ShrS => Value::from_i32(a.as_i32().wrapping_shr(b.as_u32() & 31)),
        AluOp::Rotl => Value::from_u32(a.as_u32().rotate_left(b.as_u32() & 31)),
    }
}

/// Evaluates a one-source operation.
pub fn eval_un(op: UnOp, a: Value) -> Value {
    match op {
        UnOp::Mov => a,
        UnOp::FNeg => Value::from_f32(-a.as_f32()),
        UnOp::FAbs => Value::from_f32(a.as_f32().abs()),
        UnOp::Not => Value::from_u32(!a.as_u32()),
        UnOp::CvtF2I => Value::from_i32(a.as_f32() as i32),
        UnOp::CvtI2F => Value::from_f32(a.as_i32() as f32),
        UnOp::CvtF2U => Value::from_u32(a.as_f32() as u32),
        UnOp::CvtU2F => Value::from_f32(a.as_u32() as f32),
        UnOp::FFloor => Value::from_f32(a.as_f32().floor()),
    }
}

/// Evaluates a fused multiply-add: `a * b + c` (f32).
///
/// The G80 multiply-add truncated the intermediate product rather than fusing
/// with infinite precision; we use the host's separate multiply-then-add,
/// which matches that behaviour more closely than `f32::mul_add`.
pub fn eval_ffma(a: Value, b: Value, c: Value) -> Value {
    Value::from_f32(a.as_f32() * b.as_f32() + c.as_f32())
}

/// Evaluates an integer multiply-add: `a * b + c` (wrapping).
pub fn eval_imad(a: Value, b: Value, c: Value) -> Value {
    Value::from_u32(a.as_u32().wrapping_mul(b.as_u32()).wrapping_add(c.as_u32()))
}

/// Evaluates an SFU operation.
///
/// The simulated SFU is defined here, not borrowed from the host's libm, so
/// a result depends on neither the glibc version nor which engine asked:
///
/// - `Rcp`, `Rsqrt`, `Sqrt` are the correctly rounded IEEE `1/x`,
///   `1/sqrt(x)` (two roundings) and `sqrt(x)`.
/// - `Sin`, `Cos` are a Cephes-style single-precision kernel: octant
///   `j = (trunc(|x|·4/π) + 1) & !1`, three-part Cody–Waite reduction
///   `r = |x| − j·π/4`, a degree-3-in-`r²` minimax polynomial for sine or
///   cosine chosen by the quadrant, sign from the quadrant (and from `x` for
///   sine). Every step is a separate IEEE `mul`/`add`/`sub` — never an FMA,
///   like [`eval_ffma`] — so [`eval_sfu_row`]'s 8-wide form is the same
///   operation sequence and agrees bit for bit on all 2³² inputs. Absolute
///   error is below 1e-6 for `|x| ≤ 8192`; beyond that the argument is first
///   reduced by the exact `f64` remainder modulo the `f64` 2π, which keeps
///   every finite result in [−1, 1] but lets the error grow with `|x|`. NaN
///   and ±∞ give the one canonical quiet NaN `0x7fc0_0000`.
/// - `Ex2`, `Lg2` are still the host's `exp2f`/`log2f` (RPES is their only
///   user).
///
/// The G80's own SFUs interpolate from tables to about 22 good mantissa
/// bits (`__sinf` is specified to 2⁻²¹·⁴ absolute error on [−π, π] and
/// degrades outside it), so this definition is at least as accurate as the
/// hardware everywhere the paper's kernels evaluate it; tests compare
/// against host references with an FP tolerance.
pub fn eval_sfu(op: SfuOp, a: Value) -> Value {
    let x = a.as_f32();
    let r = match op {
        SfuOp::Rcp => sfu_rcp(x),
        SfuOp::Rsqrt => sfu_rsqrt(x),
        SfuOp::Sqrt => x.sqrt(),
        SfuOp::Sin => sfu_trig::<false>(x),
        SfuOp::Cos => sfu_trig::<true>(x),
        SfuOp::Ex2 => x.exp2(),
        SfuOp::Lg2 => x.log2(),
    };
    Value::from_f32(r)
}

#[inline(always)]
fn sfu_rcp(x: f32) -> f32 {
    1.0 / x
}

#[inline(always)]
fn sfu_rsqrt(x: f32) -> f32 {
    1.0 / x.sqrt()
}

/// 4/π, and π/4 split into three parts of 8, 12 and 24 significant bits
/// (Cephes' constants for a 24-bit significand): `j·TRIG_DP1` is exact for
/// every octant index the fast path sees, so the big cancellation in
/// `|x| − j·TRIG_DP1` is exact too.
const TRIG_FOPI: f32 = 1.273_239_5;
const TRIG_DP1: f32 = 0.785_156_25;
const TRIG_DP2: f32 = 2.418_756_5e-4;
const TRIG_DP3: f32 = 3.774_895e-8;
/// Cephes' minimax coefficients on [−π/4, π/4], highest degree first:
/// `sin r ≈ r + r·z·S(z)` and `cos r ≈ 1 − z/2 + z²·C(z)` with `z = r²`.
const TRIG_SIN: [f32; 3] = [-1.951_529_6e-4, 8.332_161e-3, -1.666_665_5e-1];
const TRIG_COS: [f32; 3] = [2.443_315_7e-5, -1.388_731_6e-3, 4.166_664_6e-2];
/// Largest `|x|` the Cody–Waite reduction is accurate (and its float→int
/// conversion in range) for.
const TRIG_FAST_MAX: f32 = 8192.0;
const TRIG_NAN: u32 = 0x7fc0_0000;

/// `sin x` (`COS = false`) or `cos x` of the simulated SFU.
#[inline]
fn sfu_trig<const COS: bool>(x: f32) -> f32 {
    if x.abs() <= TRIG_FAST_MAX {
        trig_fast::<COS>(x)
    } else {
        trig_slow::<COS>(x)
    }
}

/// Large, infinite and NaN arguments; shared by the scalar and row forms.
#[cold]
fn trig_slow<const COS: bool>(x: f32) -> f32 {
    if x.is_finite() {
        // `%` on floats is exact, and the remainder is below 2π in magnitude.
        trig_fast::<COS>((x as f64 % std::f64::consts::TAU) as f32)
    } else {
        f32::from_bits(TRIG_NAN)
    }
}

/// The kernel for `|x| ≤ TRIG_FAST_MAX`. `simd::trig8` is this function
/// eight lanes at a time: change one and the other must change with it.
#[inline(always)]
fn trig_fast<const COS: bool>(x: f32) -> f32 {
    let ax = x.abs();
    // Even octant index nearest |x|/(π/4), so r lands in [−π/4, π/4].
    let j = ((ax * TRIG_FOPI) as i32 + 1) & !1;
    let y = j as f32;
    let r = ((ax - y * TRIG_DP1) - y * TRIG_DP2) - y * TRIG_DP3;
    let z = r * r;
    // |x| = r + q·π/2 with quadrant q = j/2: sin |x| is sin r, cos r,
    // −sin r, −cos r for q = 0..3 (mod 4) and cos |x| is cos r, −sin r,
    // −cos r, sin r.
    let v = if (j & 2 != 0) != COS {
        (((TRIG_COS[0] * z + TRIG_COS[1]) * z + TRIG_COS[2]) * (z * z) - 0.5 * z) + 1.0
    } else {
        ((TRIG_SIN[0] * z + TRIG_SIN[1]) * z + TRIG_SIN[2]) * (z * r) + r
    };
    let flip = if COS {
        (((j << 1) ^ j) & 4) as u32
    } else {
        (j & 4) as u32 ^ (x.to_bits() >> 29 & 4)
    };
    f32::from_bits(v.to_bits() ^ flip << 29)
}

/// Evaluates a comparison, returning the 1/0 predicate value.
pub fn eval_cmp(op: CmpOp, ty: Scalar, a: Value, b: Value) -> Value {
    let t = match ty {
        Scalar::F32 => {
            let (x, y) = (a.as_f32(), b.as_f32());
            match op {
                CmpOp::Eq => x == y,
                CmpOp::Ne => x != y,
                CmpOp::Lt => x < y,
                CmpOp::Le => x <= y,
                CmpOp::Gt => x > y,
                CmpOp::Ge => x >= y,
            }
        }
        Scalar::U32 => {
            let (x, y) = (a.as_u32(), b.as_u32());
            match op {
                CmpOp::Eq => x == y,
                CmpOp::Ne => x != y,
                CmpOp::Lt => x < y,
                CmpOp::Le => x <= y,
                CmpOp::Gt => x > y,
                CmpOp::Ge => x >= y,
            }
        }
        Scalar::I32 => {
            let (x, y) = (a.as_i32(), b.as_i32());
            match op {
                CmpOp::Eq => x == y,
                CmpOp::Ne => x != y,
                CmpOp::Lt => x < y,
                CmpOp::Le => x <= y,
                CmpOp::Gt => x > y,
                CmpOp::Ge => x >= y,
            }
        }
    };
    Value::from_bool(t)
}

/// A whole-warp register row: one value per lane.
pub type Row = [Value; 32];

/// Runtime-detected AVX2 row kernels: the full-mask `alu`/`un`/`ffma`/`imad`
/// rows, and the SFU rows under any mask.
///
/// Only ops whose AVX2 form is **bit-identical** to the scalar evaluator
/// are implemented; the row kernels return `false` — having written
/// nothing — for the rest, and the caller falls back to the scalar chunked
/// loop. Deliberately excluded:
///
/// - `FMin`/`FMax`: `_mm256_min_ps` returns the second operand when either
///   input is NaN and makes no ±0.0 guarantee, while `f32::min` returns
///   the non-NaN operand.
/// - `CvtF2I`/`CvtF2U`/`CvtU2F`: `_mm256_cvttps_epi32` answers
///   `0x8000_0000` for NaN and out-of-range inputs, while scalar `as` casts
///   saturate to the target type's MIN/MAX and map NaN to 0; AVX2 has no
///   unsigned conversions.
/// - `Ex2`/`Lg2`: still the host's libm, one lane at a time.
///
/// Nothing here fuses a multiply with an add: `Ffma` stays
/// `_mm256_mul_ps` + `_mm256_add_ps` (the G80 model truncates the
/// intermediate product), and `trig8` must round exactly where the scalar
/// [`trig_fast`] rounds.
#[cfg(target_arch = "x86_64")]
mod simd {
    use super::*;
    use core::arch::x86_64::*;
    use std::sync::atomic::{AtomicU8, Ordering};

    /// 0 = unprobed, 1 = absent, 2 = present.
    static AVX2: AtomicU8 = AtomicU8::new(0);

    /// Whether the AVX2 row kernels may run, probed once per process.
    #[inline]
    pub fn avx2() -> bool {
        match AVX2.load(Ordering::Relaxed) {
            0 => {
                let has = std::arch::is_x86_feature_detected!("avx2");
                AVX2.store(1 + has as u8, Ordering::Relaxed);
                has
            }
            v => v == 2,
        }
    }

    // `Value` is repr(transparent) over u32, so a `Row` is layout-compatible
    // with `[u32; 32]` and 32-byte-unaligned loads/stores cover it exactly.
    #[inline(always)]
    unsafe fn ld(r: &Row, i: usize) -> __m256i {
        _mm256_loadu_si256(r.as_ptr().add(i).cast())
    }

    #[inline(always)]
    unsafe fn st(r: &mut Row, i: usize, v: __m256i) {
        _mm256_storeu_si256(r.as_mut_ptr().add(i).cast(), v)
    }

    /// # Safety
    /// AVX2 must be available (gate on [`avx2`]).
    #[target_feature(enable = "avx2")]
    pub unsafe fn alu_row(op: AluOp, a: &Row, b: &Row, dst: &mut Row) -> bool {
        macro_rules! bin {
            (|$x:ident, $y:ident| $e:expr) => {{
                for i in [0usize, 8, 16, 24] {
                    let $x = ld(a, i);
                    let $y = ld(b, i);
                    st(dst, i, $e);
                }
                true
            }};
        }
        macro_rules! binf {
            ($f:ident) => {
                bin!(|x, y| _mm256_castps_si256($f(_mm256_castsi256_ps(x), _mm256_castsi256_ps(y))))
            };
        }
        match op {
            AluOp::FAdd => binf!(_mm256_add_ps),
            AluOp::FSub => binf!(_mm256_sub_ps),
            AluOp::FMul => binf!(_mm256_mul_ps),
            AluOp::IAdd => bin!(|x, y| _mm256_add_epi32(x, y)),
            AluOp::ISub => bin!(|x, y| _mm256_sub_epi32(x, y)),
            AluOp::IMul => bin!(|x, y| _mm256_mullo_epi32(x, y)),
            AluOp::UMin => bin!(|x, y| _mm256_min_epu32(x, y)),
            AluOp::UMax => bin!(|x, y| _mm256_max_epu32(x, y)),
            AluOp::IMin => bin!(|x, y| _mm256_min_epi32(x, y)),
            AluOp::IMax => bin!(|x, y| _mm256_max_epi32(x, y)),
            AluOp::And => bin!(|x, y| _mm256_and_si256(x, y)),
            AluOp::Or => bin!(|x, y| _mm256_or_si256(x, y)),
            AluOp::Xor => bin!(|x, y| _mm256_xor_si256(x, y)),
            // The scalar shifts mask the count to 5 bits; the variable-shift
            // intrinsics shift out everything >= 32, so mask first.
            AluOp::Shl => {
                let m31 = _mm256_set1_epi32(31);
                bin!(|x, y| _mm256_sllv_epi32(x, _mm256_and_si256(y, m31)))
            }
            AluOp::ShrU => {
                let m31 = _mm256_set1_epi32(31);
                bin!(|x, y| _mm256_srlv_epi32(x, _mm256_and_si256(y, m31)))
            }
            AluOp::ShrS => {
                let m31 = _mm256_set1_epi32(31);
                bin!(|x, y| _mm256_srav_epi32(x, _mm256_and_si256(y, m31)))
            }
            // Lanes with a zero count shift right by 32, which `srlv` defines
            // as 0, so the OR leaves `x` — `rotate_left(0)`.
            AluOp::Rotl => {
                let m31 = _mm256_set1_epi32(31);
                let n32 = _mm256_set1_epi32(32);
                bin!(|x, y| {
                    let c = _mm256_and_si256(y, m31);
                    _mm256_or_si256(
                        _mm256_sllv_epi32(x, c),
                        _mm256_srlv_epi32(x, _mm256_sub_epi32(n32, c)),
                    )
                })
            }
            AluOp::FMin | AluOp::FMax => false,
        }
    }

    /// # Safety
    /// AVX2 must be available (gate on [`avx2`]).
    #[target_feature(enable = "avx2")]
    pub unsafe fn un_row(op: UnOp, a: &Row, dst: &mut Row) -> bool {
        macro_rules! un {
            (|$x:ident| $e:expr) => {{
                for i in [0usize, 8, 16, 24] {
                    let $x = ld(a, i);
                    st(dst, i, $e);
                }
                true
            }};
        }
        match op {
            UnOp::Mov => un!(|x| x),
            UnOp::Not => {
                let ones = _mm256_set1_epi32(-1);
                un!(|x| _mm256_xor_si256(x, ones))
            }
            // Sign-bit ops are bit-exact on every input, NaNs included.
            UnOp::FNeg => {
                let sign = _mm256_set1_epi32(i32::MIN);
                un!(|x| _mm256_xor_si256(x, sign))
            }
            UnOp::FAbs => {
                let magnitude = _mm256_set1_epi32(i32::MAX);
                un!(|x| _mm256_and_si256(x, magnitude))
            }
            // Both round to nearest-even, like the scalar `as f32`.
            UnOp::CvtI2F => un!(|x| _mm256_castps_si256(_mm256_cvtepi32_ps(x))),
            UnOp::FFloor => un!(|x| _mm256_castps_si256(_mm256_floor_ps(_mm256_castsi256_ps(x)))),
            // Scalar only: `cvttps` answers 0x8000_0000 for NaN and every
            // out-of-range input where `as` saturates and maps NaN to 0, and
            // AVX2 has no unsigned conversion in either direction.
            UnOp::CvtF2I | UnOp::CvtF2U | UnOp::CvtU2F => false,
        }
    }

    /// Stores the lanes of `v` whose bit is set in the low 8 bits of `bits`.
    ///
    /// # Safety
    /// AVX2 must be available, and `i + 8 <= 32`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn st_masked(r: &mut Row, i: usize, v: __m256i, bits: u32) {
        let bit = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
        let on = _mm256_cmpeq_epi32(_mm256_and_si256(_mm256_set1_epi32(bits as i32), bit), bit);
        _mm256_maskstore_epi32(r.as_mut_ptr().add(i).cast(), on, v)
    }

    /// Eight lanes of [`trig_fast`]: the same operations in the same order.
    /// Lanes outside its domain hold garbage, never trap.
    ///
    /// # Safety
    /// AVX2 must be available.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn trig8<const COS: bool>(xi: __m256i) -> __m256i {
        let ps = |v: f32| _mm256_set1_ps(v);
        let sign = _mm256_set1_epi32(i32::MIN);
        let ax = _mm256_castsi256_ps(_mm256_andnot_si256(sign, xi));
        let j = _mm256_and_si256(
            _mm256_add_epi32(
                _mm256_cvttps_epi32(_mm256_mul_ps(ax, ps(TRIG_FOPI))),
                _mm256_set1_epi32(1),
            ),
            _mm256_set1_epi32(!1),
        );
        let y = _mm256_cvtepi32_ps(j);
        let r = _mm256_sub_ps(
            _mm256_sub_ps(
                _mm256_sub_ps(ax, _mm256_mul_ps(y, ps(TRIG_DP1))),
                _mm256_mul_ps(y, ps(TRIG_DP2)),
            ),
            _mm256_mul_ps(y, ps(TRIG_DP3)),
        );
        let z = _mm256_mul_ps(r, r);
        let horner = |c: [f32; 3]| {
            let p = _mm256_add_ps(_mm256_mul_ps(ps(c[0]), z), ps(c[1]));
            _mm256_add_ps(_mm256_mul_ps(p, z), ps(c[2]))
        };
        let c = _mm256_add_ps(
            _mm256_sub_ps(
                _mm256_mul_ps(horner(TRIG_COS), _mm256_mul_ps(z, z)),
                _mm256_mul_ps(ps(0.5), z),
            ),
            ps(1.0),
        );
        let s = _mm256_add_ps(_mm256_mul_ps(horner(TRIG_SIN), _mm256_mul_ps(z, r)), r);
        let even = _mm256_castsi256_ps(_mm256_cmpeq_epi32(
            _mm256_and_si256(j, _mm256_set1_epi32(2)),
            _mm256_setzero_si256(),
        ));
        let four = _mm256_set1_epi32(4);
        let (v, flip) = if COS {
            let q = _mm256_xor_si256(_mm256_slli_epi32::<1>(j), j);
            (
                _mm256_blendv_ps(s, c, even),
                _mm256_slli_epi32::<29>(_mm256_and_si256(q, four)),
            )
        } else {
            let q = _mm256_slli_epi32::<29>(_mm256_and_si256(j, four));
            (
                _mm256_blendv_ps(c, s, even),
                _mm256_xor_si256(q, _mm256_and_si256(xi, sign)),
            )
        };
        _mm256_xor_si256(_mm256_castps_si256(v), flip)
    }

    /// `Sin`/`Cos` row: the vector kernel under the lane mask, then the
    /// shared scalar slow path for active lanes beyond its domain.
    ///
    /// # Safety
    /// AVX2 must be available.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn trig_row<const COS: bool>(a: &Row, dst: &mut Row, mask: u32) {
        let sign = _mm256_set1_epi32(i32::MIN);
        let fast_max = _mm256_set1_ps(TRIG_FAST_MAX);
        for i in [0usize, 8, 16, 24] {
            let x = ld(a, i);
            st_masked(dst, i, trig8::<COS>(x), mask >> i);
            // Not-less-or-equal, unordered: large, infinite or NaN.
            let ax = _mm256_castsi256_ps(_mm256_andnot_si256(sign, x));
            let mut slow = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_NLE_UQ>(ax, fast_max)) as u32
                & (mask >> i)
                & 0xff;
            while slow != 0 {
                let l = i + slow.trailing_zeros() as usize;
                dst[l] = Value::from_f32(trig_slow::<COS>(a[l].as_f32()));
                slow &= slow - 1;
            }
        }
    }

    /// Writes the lanes set in `mask`; `false` — nothing written — for the
    /// ops with no vector form (`Ex2`, `Lg2`). `vdivps`/`vsqrtps` round
    /// correctly, so they are the scalar `/` and `sqrt` on every input.
    ///
    /// # Safety
    /// AVX2 must be available (gate on [`avx2`]).
    #[target_feature(enable = "avx2")]
    pub unsafe fn sfu_row(op: SfuOp, a: &Row, dst: &mut Row, mask: u32) -> bool {
        macro_rules! un {
            (|$x:ident| $e:expr) => {{
                for i in [0usize, 8, 16, 24] {
                    let $x = _mm256_castsi256_ps(ld(a, i));
                    st_masked(dst, i, _mm256_castps_si256($e), mask >> i);
                }
            }};
        }
        let one = _mm256_set1_ps(1.0);
        match op {
            SfuOp::Rcp => un!(|x| _mm256_div_ps(one, x)),
            SfuOp::Rsqrt => un!(|x| _mm256_div_ps(one, _mm256_sqrt_ps(x))),
            SfuOp::Sqrt => un!(|x| _mm256_sqrt_ps(x)),
            SfuOp::Sin => trig_row::<false>(a, dst, mask),
            SfuOp::Cos => trig_row::<true>(a, dst, mask),
            SfuOp::Ex2 | SfuOp::Lg2 => return false,
        }
        true
    }

    /// # Safety
    /// AVX2 must be available (gate on [`avx2`]).
    #[target_feature(enable = "avx2")]
    pub unsafe fn ffma_row(a: &Row, b: &Row, c: &Row, dst: &mut Row) {
        for i in [0usize, 8, 16, 24] {
            let p = _mm256_mul_ps(_mm256_castsi256_ps(ld(a, i)), _mm256_castsi256_ps(ld(b, i)));
            let r = _mm256_add_ps(p, _mm256_castsi256_ps(ld(c, i)));
            st(dst, i, _mm256_castps_si256(r));
        }
    }

    /// # Safety
    /// AVX2 must be available (gate on [`avx2`]).
    #[target_feature(enable = "avx2")]
    pub unsafe fn imad_row(a: &Row, b: &Row, c: &Row, dst: &mut Row) {
        for i in [0usize, 8, 16, 24] {
            let p = _mm256_mullo_epi32(ld(a, i), ld(b, i));
            st(dst, i, _mm256_add_epi32(p, ld(c, i)));
        }
    }
}

/// Only lanes set in `mask` are written; the rest keep their old value.
/// The full-mask case runs the AVX2 kernel when the op has a bit-identical
/// vector form (see [`simd`]), else an 8-lane chunked loop with the op
/// match hoisted out, shaped for autovectorization. One call per warp
/// instruction instead of one per lane.
#[inline]
pub fn eval_alu_row(op: AluOp, a: &Row, b: &Row, dst: &mut Row, mask: u32) {
    if mask == u32::MAX {
        #[cfg(target_arch = "x86_64")]
        if simd::avx2() && unsafe { simd::alu_row(op, a, b, dst) } {
            return;
        }
        for o in [0usize, 8, 16, 24] {
            for j in 0..8 {
                dst[o + j] = eval_alu(op, a[o + j], b[o + j]);
            }
        }
    } else {
        for l in 0..32 {
            if mask >> l & 1 == 1 {
                dst[l] = eval_alu(op, a[l], b[l]);
            }
        }
    }
}

/// Row form of [`eval_un`].
#[inline]
pub fn eval_un_row(op: UnOp, a: &Row, dst: &mut Row, mask: u32) {
    if mask == u32::MAX {
        #[cfg(target_arch = "x86_64")]
        if simd::avx2() && unsafe { simd::un_row(op, a, dst) } {
            return;
        }
        for o in [0usize, 8, 16, 24] {
            for j in 0..8 {
                dst[o + j] = eval_un(op, a[o + j]);
            }
        }
    } else {
        for l in 0..32 {
            if mask >> l & 1 == 1 {
                dst[l] = eval_un(op, a[l]);
            }
        }
    }
}

/// Row form of [`eval_sfu`]. Takes the AVX2 kernel under **any** mask
/// (it stores only the active lanes); without AVX2, and for `Ex2`/`Lg2`,
/// the scalar lane loop with the op match hoisted out of it.
#[inline]
pub fn eval_sfu_row(op: SfuOp, a: &Row, dst: &mut Row, mask: u32) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `sfu_row` only requires AVX2, which `avx2()` just probed.
    if simd::avx2() && unsafe { simd::sfu_row(op, a, dst, mask) } {
        return;
    }
    #[inline(always)]
    fn lanes(a: &Row, dst: &mut Row, mask: u32, f: impl Fn(f32) -> f32) {
        for l in 0..32 {
            if mask >> l & 1 == 1 {
                dst[l] = Value::from_f32(f(a[l].as_f32()));
            }
        }
    }
    match op {
        SfuOp::Rcp => lanes(a, dst, mask, sfu_rcp),
        SfuOp::Rsqrt => lanes(a, dst, mask, sfu_rsqrt),
        SfuOp::Sqrt => lanes(a, dst, mask, f32::sqrt),
        SfuOp::Sin => lanes(a, dst, mask, sfu_trig::<false>),
        SfuOp::Cos => lanes(a, dst, mask, sfu_trig::<true>),
        SfuOp::Ex2 => lanes(a, dst, mask, f32::exp2),
        SfuOp::Lg2 => lanes(a, dst, mask, f32::log2),
    }
}

/// Row form of [`eval_ffma`].
#[inline]
pub fn eval_ffma_row(a: &Row, b: &Row, c: &Row, dst: &mut Row, mask: u32) {
    if mask == u32::MAX {
        #[cfg(target_arch = "x86_64")]
        if simd::avx2() {
            unsafe { simd::ffma_row(a, b, c, dst) };
            return;
        }
        for o in [0usize, 8, 16, 24] {
            for j in 0..8 {
                dst[o + j] = eval_ffma(a[o + j], b[o + j], c[o + j]);
            }
        }
    } else {
        for l in 0..32 {
            if mask >> l & 1 == 1 {
                dst[l] = eval_ffma(a[l], b[l], c[l]);
            }
        }
    }
}

/// Row form of [`eval_imad`].
#[inline]
pub fn eval_imad_row(a: &Row, b: &Row, c: &Row, dst: &mut Row, mask: u32) {
    if mask == u32::MAX {
        #[cfg(target_arch = "x86_64")]
        if simd::avx2() {
            unsafe { simd::imad_row(a, b, c, dst) };
            return;
        }
        for o in [0usize, 8, 16, 24] {
            for j in 0..8 {
                dst[o + j] = eval_imad(a[o + j], b[o + j], c[o + j]);
            }
        }
    } else {
        for l in 0..32 {
            if mask >> l & 1 == 1 {
                dst[l] = eval_imad(a[l], b[l], c[l]);
            }
        }
    }
}

/// Row form of [`eval_cmp`].
#[inline]
pub fn eval_cmp_row(op: CmpOp, ty: Scalar, a: &Row, b: &Row, dst: &mut Row, mask: u32) {
    for l in 0..32 {
        if mask >> l & 1 == 1 {
            dst[l] = eval_cmp(op, ty, a[l], b[l]);
        }
    }
}

/// Row select: `dst[l] = if c[l] { a[l] } else { b[l] }`.
#[inline]
pub fn eval_sel_row(c: &Row, a: &Row, b: &Row, dst: &mut Row, mask: u32) {
    for l in 0..32 {
        if mask >> l & 1 == 1 {
            dst[l] = if c[l].as_bool() { a[l] } else { b[l] };
        }
    }
}

/// Applies an atomic op, returning (new_value, old_value).
pub fn eval_atom(op: crate::inst::AtomOp, old: Value, src: Value) -> (Value, Value) {
    use crate::inst::AtomOp;
    let new = match op {
        AtomOp::Add => Value::from_u32(old.as_u32().wrapping_add(src.as_u32())),
        AtomOp::Min => Value::from_u32(old.as_u32().min(src.as_u32())),
        AtomOp::Max => Value::from_u32(old.as_u32().max(src.as_u32())),
        AtomOp::Exch => src,
    };
    (new, old)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(v: f32) -> Value {
        Value::from_f32(v)
    }
    fn u(v: u32) -> Value {
        Value::from_u32(v)
    }
    fn i(v: i32) -> Value {
        Value::from_i32(v)
    }

    #[test]
    fn float_alu() {
        assert_eq!(eval_alu(AluOp::FAdd, f(1.5), f(2.0)).as_f32(), 3.5);
        assert_eq!(eval_alu(AluOp::FSub, f(1.0), f(3.0)).as_f32(), -2.0);
        assert_eq!(eval_alu(AluOp::FMul, f(-2.0), f(4.0)).as_f32(), -8.0);
        assert_eq!(eval_alu(AluOp::FMin, f(-2.0), f(4.0)).as_f32(), -2.0);
        assert_eq!(eval_alu(AluOp::FMax, f(-2.0), f(4.0)).as_f32(), 4.0);
    }

    #[test]
    fn int_alu_wraps() {
        assert_eq!(eval_alu(AluOp::IAdd, u(u32::MAX), u(1)).as_u32(), 0);
        assert_eq!(eval_alu(AluOp::ISub, u(0), u(1)).as_u32(), u32::MAX);
        assert_eq!(
            eval_alu(AluOp::IMul, u(0x10000), u(0x10000)).as_u32(),
            0 // low 32 bits
        );
    }

    #[test]
    fn signed_vs_unsigned_minmax() {
        assert_eq!(eval_alu(AluOp::IMin, i(-5), i(3)).as_i32(), -5);
        assert_eq!(eval_alu(AluOp::UMin, i(-5), i(3)).as_u32(), 3); // -5 is huge unsigned
        assert_eq!(eval_alu(AluOp::IMax, i(-5), i(3)).as_i32(), 3);
        assert_eq!(eval_alu(AluOp::UMax, i(-5), i(3)).as_i32(), -5);
    }

    #[test]
    fn shifts_mask_count() {
        assert_eq!(eval_alu(AluOp::Shl, u(1), u(33)).as_u32(), 2); // 33 & 31 == 1
        assert_eq!(eval_alu(AluOp::ShrU, u(0x8000_0000), u(31)).as_u32(), 1);
        assert_eq!(eval_alu(AluOp::ShrS, i(-8), u(2)).as_i32(), -2);
    }

    #[test]
    fn unary_ops() {
        assert_eq!(eval_un(UnOp::FNeg, f(2.0)).as_f32(), -2.0);
        assert_eq!(eval_un(UnOp::FAbs, f(-2.0)).as_f32(), 2.0);
        assert_eq!(eval_un(UnOp::Not, u(0)).as_u32(), u32::MAX);
        assert_eq!(eval_un(UnOp::CvtF2I, f(-3.7)).as_i32(), -3);
        assert_eq!(eval_un(UnOp::CvtI2F, i(-3)).as_f32(), -3.0);
        assert_eq!(eval_un(UnOp::CvtF2U, f(3.7)).as_u32(), 3);
        assert_eq!(eval_un(UnOp::CvtU2F, u(7)).as_f32(), 7.0);
        assert_eq!(eval_un(UnOp::FFloor, f(3.7)).as_f32(), 3.0);
        assert_eq!(eval_un(UnOp::FFloor, f(-3.2)).as_f32(), -4.0);
    }

    #[test]
    fn fma_is_mul_then_add() {
        // 2*3+4
        assert_eq!(eval_ffma(f(2.0), f(3.0), f(4.0)).as_f32(), 10.0);
        assert_eq!(eval_imad(u(5), u(7), u(1)).as_u32(), 36);
    }

    #[test]
    fn sfu_accuracy() {
        assert!((eval_sfu(SfuOp::Rsqrt, f(4.0)).as_f32() - 0.5).abs() < 1e-6);
        assert!((eval_sfu(SfuOp::Rcp, f(8.0)).as_f32() - 0.125).abs() < 1e-6);
        assert!((eval_sfu(SfuOp::Sin, f(std::f32::consts::FRAC_PI_2)).as_f32() - 1.0).abs() < 1e-6);
        assert_eq!(eval_sfu(SfuOp::Cos, f(0.0)).as_f32(), 1.0);
        assert_eq!(eval_sfu(SfuOp::Sin, f(-0.0)).0, (-0.0f32).to_bits());
        assert_eq!(eval_sfu(SfuOp::Sin, f(f32::NEG_INFINITY)).0, TRIG_NAN);
        assert_eq!(eval_sfu(SfuOp::Ex2, f(3.0)).as_f32(), 8.0);
        assert_eq!(eval_sfu(SfuOp::Lg2, f(8.0)).as_f32(), 3.0);
        assert_eq!(eval_sfu(SfuOp::Sqrt, f(9.0)).as_f32(), 3.0);
    }

    #[test]
    fn comparisons_respect_type() {
        use CmpOp::*;
        assert!(eval_cmp(Lt, Scalar::I32, i(-1), i(0)).as_bool());
        assert!(!eval_cmp(Lt, Scalar::U32, i(-1), i(0)).as_bool()); // -1 = u32::MAX
        assert!(eval_cmp(Ge, Scalar::F32, f(2.0), f(2.0)).as_bool());
        assert!(!eval_cmp(Ne, Scalar::F32, f(2.0), f(2.0)).as_bool());
        // NaN compares false for everything except Ne.
        let nan = f(f32::NAN);
        assert!(!eval_cmp(Eq, Scalar::F32, nan, nan).as_bool());
        assert!(eval_cmp(Ne, Scalar::F32, nan, nan).as_bool());
        assert!(!eval_cmp(Le, Scalar::F32, nan, f(0.0)).as_bool());
    }

    #[test]
    fn row_evaluators_match_lane_evaluators() {
        let a: Row = std::array::from_fn(|l| Value::from_f32(l as f32 - 7.5));
        let b: Row = std::array::from_fn(|l| Value::from_f32(2.0 - l as f32));
        let c: Row = std::array::from_fn(|l| Value::from_u32((l % 2) as u32));
        for mask in [u32::MAX, 0x0f0f_0f0f, 0] {
            let keep: Row = std::array::from_fn(|l| Value::from_u32(0xdead_0000 + l as u32));

            let mut dst = keep;
            eval_alu_row(AluOp::FAdd, &a, &b, &mut dst, mask);
            for l in 0..32 {
                let want = if mask >> l & 1 == 1 {
                    eval_alu(AluOp::FAdd, a[l], b[l])
                } else {
                    keep[l]
                };
                assert_eq!(dst[l], want, "alu lane {l} mask {mask:#x}");
            }

            let mut dst = keep;
            eval_ffma_row(&a, &b, &c, &mut dst, mask);
            for l in 0..32 {
                let want = if mask >> l & 1 == 1 {
                    eval_ffma(a[l], b[l], c[l])
                } else {
                    keep[l]
                };
                assert_eq!(dst[l], want, "ffma lane {l} mask {mask:#x}");
            }

            let mut dst = keep;
            eval_imad_row(&a, &b, &c, &mut dst, mask);
            for l in 0..32 {
                let want = if mask >> l & 1 == 1 {
                    eval_imad(a[l], b[l], c[l])
                } else {
                    keep[l]
                };
                assert_eq!(dst[l], want, "imad lane {l} mask {mask:#x}");
            }

            let mut dst = keep;
            eval_un_row(UnOp::FNeg, &a, &mut dst, mask);
            for l in 0..32 {
                let want = if mask >> l & 1 == 1 {
                    eval_un(UnOp::FNeg, a[l])
                } else {
                    keep[l]
                };
                assert_eq!(dst[l], want, "un lane {l} mask {mask:#x}");
            }

            let mut dst = keep;
            eval_sfu_row(SfuOp::Rcp, &b, &mut dst, mask);
            for l in 0..32 {
                let want = if mask >> l & 1 == 1 {
                    eval_sfu(SfuOp::Rcp, b[l])
                } else {
                    keep[l]
                };
                assert_eq!(dst[l], want, "sfu lane {l} mask {mask:#x}");
            }

            let mut dst = keep;
            eval_cmp_row(CmpOp::Lt, Scalar::F32, &a, &b, &mut dst, mask);
            for l in 0..32 {
                let want = if mask >> l & 1 == 1 {
                    eval_cmp(CmpOp::Lt, Scalar::F32, a[l], b[l])
                } else {
                    keep[l]
                };
                assert_eq!(dst[l], want, "cmp lane {l} mask {mask:#x}");
            }

            let mut dst = keep;
            eval_sel_row(&c, &a, &b, &mut dst, mask);
            for l in 0..32 {
                let want = if mask >> l & 1 == 1 {
                    if c[l].as_bool() {
                        a[l]
                    } else {
                        b[l]
                    }
                } else {
                    keep[l]
                };
                assert_eq!(dst[l], want, "sel lane {l} mask {mask:#x}");
            }
        }
    }

    #[test]
    fn atomics() {
        use crate::inst::AtomOp;
        let (new, old) = eval_atom(AtomOp::Add, u(10), u(5));
        assert_eq!((new.as_u32(), old.as_u32()), (15, 10));
        let (new, _) = eval_atom(AtomOp::Min, u(10), u(5));
        assert_eq!(new.as_u32(), 5);
        let (new, _) = eval_atom(AtomOp::Max, u(10), u(5));
        assert_eq!(new.as_u32(), 10);
        let (new, old) = eval_atom(AtomOp::Exch, u(10), u(5));
        assert_eq!((new.as_u32(), old.as_u32()), (5, 10));
    }
}
