//! Pure functional semantics of the arithmetic instructions.
//!
//! Shared by the constant-folding pass and the simulator's lane execution so
//! that "what the optimizer proves" and "what the machine computes" can never
//! disagree.

use crate::inst::{AluOp, CmpOp, Scalar, SfuOp, UnOp};
use crate::Value;

/// The NaN rule of `+`, `-`, `*` (each step of `ffma` included) and
/// `floor`, in lane and row form alike: an op with a NaN operand returns its
/// *first* NaN operand, quieted; a NaN made from numbers (`∞ − ∞`, `0 · ∞`)
/// is the host's default NaN (`0xffc0_0000` on x86, the one host with row
/// kernels). x86 itself returns the NaN in the destination register, and
/// which operand the compiler puts there varies with register allocation,
/// so the rule is applied explicitly to a NaN result `r` of `a op b`. The
/// rule *is* x86's for a fixed source order, which the row kernels pin
/// instead; `floor`'s `vroundps` quiets a NaN as the rule does.
/// Sign-bit ops (`FNeg`, `FAbs`) and moves copy NaN bits untouched.
#[inline(always)]
fn nan_rule(r: f32, a: f32, b: f32) -> f32 {
    #[cold]
    fn slow(r: f32, a: f32, b: f32) -> f32 {
        // Sets the quiet bit.
        let quiet = |x: f32| f32::from_bits(x.to_bits() | 0x0040_0000);
        if a.is_nan() {
            quiet(a)
        } else if b.is_nan() {
            quiet(b)
        } else {
            r
        }
    }
    if r.is_nan() {
        slow(r, a, b)
    } else {
        r
    }
}

/// `a op b` on f32 lanes under [`nan_rule`].
#[inline(always)]
fn arith(a: Value, b: Value, op: impl Fn(f32, f32) -> f32) -> Value {
    let (x, y) = (a.as_f32(), b.as_f32());
    Value::from_f32(nan_rule(op(x, y), x, y))
}

/// Evaluates a two-source ALU operation.
pub fn eval_alu(op: AluOp, a: Value, b: Value) -> Value {
    match op {
        AluOp::FAdd => arith(a, b, |x, y| x + y),
        AluOp::FSub => arith(a, b, |x, y| x - y),
        AluOp::FMul => arith(a, b, |x, y| x * y),
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
        UnOp::FFloor => arith(a, a, |x, _| x.floor()),
    }
}

/// Evaluates a fused multiply-add: `a * b + c` (f32).
///
/// The G80 multiply-add truncated the intermediate product rather than fusing
/// with infinite precision; we use the host's separate multiply-then-add,
/// which matches that behaviour more closely than `f32::mul_add`.
pub fn eval_ffma(a: Value, b: Value, c: Value) -> Value {
    arith(arith(a, b, |x, y| x * y), c, |p, z| p + z)
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

/// Runtime-detected AVX2 row kernels. Each writes a whole row — the
/// dispatchers below run it under a partial mask through [`simd::masked`] —
/// except the SFU rows, which store only the active lanes themselves.
///
/// Only ops whose AVX2 form is **bit-identical** to the lane evaluator
/// are implemented; the row kernels return `false` — having written
/// nothing — for the rest, and the caller falls back to the portable lane
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
/// Nothing here fuses a multiply with an add: `Ffma` stays `vmulps` then
/// `vaddps` (the G80 model truncates the intermediate product). `+`, `-`,
/// `*` keep their source order (`ps!`) so that x86's NaN propagation is
/// [`nan_rule`], and `trig8` must round exactly where the scalar
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
    pub(super) fn avx2() -> bool {
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

    /// `$op dst, x, [y]` (`vaddps`, `vsubps`, `vmulps`) on `x` and the
    /// eight lanes of `row` from the constant lane `i` on (a `chunks!`
    /// index), with the source order pinned. x86 answers the first NaN
    /// source, quieted — [`nan_rule`] — but the compiler swaps the sources
    /// of an op it knows commutes: for register allocation, and in the
    /// assembler to reach the 2-byte VEX prefix (`vaddps y0, y8, y0` for
    /// `y0 + y8`) unless `{vex3}` forces the 3-byte one. The load and the
    /// lane offset fold into the memory operand, so the instructions are
    /// the intrinsics' own. Only for AVX2 functions.
    macro_rules! ps {
        ($op:literal, $x:expr, $row:expr, $i:expr) => {{
            let r: __m256;
            core::arch::asm!(
                concat!("{{vex3}} ", $op, " {r}, {x}, ymmword ptr [{y} + {o}]"),
                r = lateout(ymm_reg) r,
                x = in(ymm_reg) $x,
                y = in(reg) $row.as_ptr(),
                o = const 4 * $i,
                options(pure, readonly, nostack, preserves_flags)
            );
            r
        }};
    }

    /// `$body` once per 8-lane chunk of a row, `$i` the chunk's first lane
    /// as a constant.
    macro_rules! chunks {
        ($i:ident => $body:block) => {
            chunks!($i => $body; 0 8 16 24)
        };
        ($i:ident => $body:block; $($lane:literal)*) => {
            $({
                const $i: usize = $lane;
                $body
            })*
        };
    }

    /// # Safety
    /// AVX2 must be available (gate on [`avx2`]).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn alu_row(op: AluOp, a: &Row, b: &Row, dst: &mut Row) -> bool {
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
            ($op:literal) => {{
                chunks!(I => {
                    let x = _mm256_castsi256_ps(ld(a, I));
                    st(dst, I, _mm256_castps_si256(ps!($op, x, b, I)));
                });
                true
            }};
        }
        match op {
            AluOp::FAdd => binf!("vaddps"),
            AluOp::FSub => binf!("vsubps"),
            AluOp::FMul => binf!("vmulps"),
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
    pub(super) unsafe fn un_row(op: UnOp, a: &Row, dst: &mut Row) -> bool {
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
            // `vroundps` quiets a signalling NaN: [`nan_rule`] as it stands.
            UnOp::FFloor => un!(|x| _mm256_castps_si256(_mm256_floor_ps(_mm256_castsi256_ps(x)))),
            // Scalar only: `cvttps` answers 0x8000_0000 for NaN and every
            // out-of-range input where `as` saturates and maps NaN to 0, and
            // AVX2 has no unsigned conversion in either direction.
            UnOp::CvtF2I | UnOp::CvtF2U | UnOp::CvtU2F => false,
        }
    }

    /// `setp` row: 1 where the predicate holds, else 0. The f32 predicates
    /// are ordered except `Ne`, which is unordered — Rust's operators on a
    /// NaN. `U32` flips both sign bits and compares signed.
    ///
    /// # Safety
    /// AVX2 must be available (gate on [`avx2`]).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn cmp_row(op: CmpOp, ty: Scalar, a: &Row, b: &Row, dst: &mut Row) -> bool {
        let one = _mm256_set1_epi32(1);
        // `is!` answers 1 in the all-ones lanes of `$e`, `not!` in the rest.
        macro_rules! is {
            (|$x:ident, $y:ident| $e:expr) => {{
                for i in [0usize, 8, 16, 24] {
                    let ($x, $y) = (ld(a, i), ld(b, i));
                    st(dst, i, _mm256_and_si256($e, one));
                }
                true
            }};
        }
        macro_rules! not {
            (|$x:ident, $y:ident| $e:expr) => {{
                for i in [0usize, 8, 16, 24] {
                    let ($x, $y) = (ld(a, i), ld(b, i));
                    st(dst, i, _mm256_andnot_si256($e, one));
                }
                true
            }};
        }
        macro_rules! fp {
            ($p:ident) => {
                is!(|x, y| _mm256_castps_si256(_mm256_cmp_ps::<$p>(
                    _mm256_castsi256_ps(x),
                    _mm256_castsi256_ps(y)
                )))
            };
        }
        let flip = _mm256_set1_epi32(if ty == Scalar::U32 { i32::MIN } else { 0 });
        let gt = |x, y| _mm256_cmpgt_epi32(_mm256_xor_si256(x, flip), _mm256_xor_si256(y, flip));
        match (ty, op) {
            (Scalar::F32, CmpOp::Eq) => fp!(_CMP_EQ_OQ),
            (Scalar::F32, CmpOp::Ne) => fp!(_CMP_NEQ_UQ),
            (Scalar::F32, CmpOp::Lt) => fp!(_CMP_LT_OQ),
            (Scalar::F32, CmpOp::Le) => fp!(_CMP_LE_OQ),
            (Scalar::F32, CmpOp::Gt) => fp!(_CMP_GT_OQ),
            (Scalar::F32, CmpOp::Ge) => fp!(_CMP_GE_OQ),
            (_, CmpOp::Eq) => is!(|x, y| _mm256_cmpeq_epi32(x, y)),
            (_, CmpOp::Ne) => not!(|x, y| _mm256_cmpeq_epi32(x, y)),
            (_, CmpOp::Lt) => is!(|x, y| gt(y, x)),
            (_, CmpOp::Le) => not!(|x, y| gt(x, y)),
            (_, CmpOp::Gt) => is!(|x, y| gt(x, y)),
            (_, CmpOp::Ge) => not!(|x, y| gt(y, x)),
        }
    }

    /// `sel` row: `a` where `c` is nonzero, else `b`.
    ///
    /// # Safety
    /// AVX2 must be available (gate on [`avx2`]).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sel_row(c: &Row, a: &Row, b: &Row, dst: &mut Row) -> bool {
        let zero = _mm256_setzero_si256();
        for i in [0usize, 8, 16, 24] {
            let take_b = _mm256_cmpeq_epi32(ld(c, i), zero);
            st(dst, i, _mm256_blendv_epi8(ld(a, i), ld(b, i), take_b));
        }
        true
    }

    /// Bit `l` set where lane `l` of `a` is nonzero.
    ///
    /// # Safety
    /// AVX2 must be available (gate on [`avx2`]).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn true_mask(a: &Row) -> u32 {
        let zero = _mm256_setzero_si256();
        let mut zeros = 0u32;
        for i in [0usize, 8, 16, 24] {
            let z = _mm256_cmpeq_epi32(ld(a, i), zero);
            zeros |= (_mm256_movemask_ps(_mm256_castsi256_ps(z)) as u32) << i;
        }
        !zeros
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

    /// Copies the lanes of `src` set in `mask` into `dst`.
    ///
    /// # Safety
    /// AVX2 must be available.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn merge(dst: &mut Row, src: &Row, mask: u32) {
        for i in [0usize, 8, 16, 24] {
            st_masked(dst, i, ld(src, i), mask >> i);
        }
    }

    /// Runs the whole-row `kernel` under a partial `mask`: into a scratch
    /// row whose active lanes are then [`merge`]d into `dst`. `false` —
    /// nothing written — when the kernel has no vector form for the op.
    ///
    /// # Safety
    /// AVX2 must be available (gate on [`avx2`]).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(super) unsafe fn masked(
        dst: &mut Row,
        mask: u32,
        kernel: impl FnOnce(&mut Row) -> bool,
    ) -> bool {
        let mut tmp = [Value::ZERO; 32];
        if !kernel(&mut tmp) {
            return false;
        }
        merge(dst, &tmp, mask);
        true
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
    pub(super) unsafe fn sfu_row(op: SfuOp, a: &Row, dst: &mut Row, mask: u32) -> bool {
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
    pub(super) unsafe fn ffma_row(a: &Row, b: &Row, c: &Row, dst: &mut Row) -> bool {
        chunks!(I => {
            let p = ps!("vmulps", _mm256_castsi256_ps(ld(a, I)), b, I);
            st(dst, I, _mm256_castps_si256(ps!("vaddps", p, c, I)));
        });
        true
    }

    /// # Safety
    /// AVX2 must be available (gate on [`avx2`]).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn imad_row(a: &Row, b: &Row, c: &Row, dst: &mut Row) -> bool {
        for i in [0usize, 8, 16, 24] {
            let p = _mm256_mullo_epi32(ld(a, i), ld(b, i));
            st(dst, i, _mm256_add_epi32(p, ld(c, i)));
        }
        true
    }
}

/// The portable row bodies: every host runs them where [`simd`] has no
/// kernel, and hosts without AVX2 run nothing else.
mod portable {
    use super::*;

    /// `f(l)` into every lane `l` of `mask`: an 8-lane chunked loop,
    /// shaped for autovectorization, at full mask, else a lane loop.
    #[inline(always)]
    fn lanes(dst: &mut Row, mask: u32, f: impl Fn(usize) -> Value) {
        if mask == u32::MAX {
            for o in [0usize, 8, 16, 24] {
                for j in 0..8 {
                    dst[o + j] = f(o + j);
                }
            }
        } else {
            for (l, d) in dst.iter_mut().enumerate() {
                if mask >> l & 1 == 1 {
                    *d = f(l);
                }
            }
        }
    }

    pub(super) fn alu(op: AluOp, a: &Row, b: &Row, dst: &mut Row, mask: u32) {
        lanes(dst, mask, |l| eval_alu(op, a[l], b[l]))
    }

    pub(super) fn un(op: UnOp, a: &Row, dst: &mut Row, mask: u32) {
        lanes(dst, mask, |l| eval_un(op, a[l]))
    }

    pub(super) fn ffma(a: &Row, b: &Row, c: &Row, dst: &mut Row, mask: u32) {
        lanes(dst, mask, |l| eval_ffma(a[l], b[l], c[l]))
    }

    pub(super) fn imad(a: &Row, b: &Row, c: &Row, dst: &mut Row, mask: u32) {
        lanes(dst, mask, |l| eval_imad(a[l], b[l], c[l]))
    }

    pub(super) fn cmp(op: CmpOp, ty: Scalar, a: &Row, b: &Row, dst: &mut Row, mask: u32) {
        lanes(dst, mask, |l| eval_cmp(op, ty, a[l], b[l]))
    }

    pub(super) fn sel(c: &Row, a: &Row, b: &Row, dst: &mut Row, mask: u32) {
        lanes(dst, mask, |l| if c[l].as_bool() { a[l] } else { b[l] })
    }

    /// The op match is hoisted out of the lane loop.
    pub(super) fn sfu(op: SfuOp, a: &Row, dst: &mut Row, mask: u32) {
        #[inline(always)]
        fn each(a: &Row, dst: &mut Row, mask: u32, f: impl Fn(f32) -> f32) {
            lanes(dst, mask, |l| Value::from_f32(f(a[l].as_f32())))
        }
        match op {
            SfuOp::Rcp => each(a, dst, mask, sfu_rcp),
            SfuOp::Rsqrt => each(a, dst, mask, sfu_rsqrt),
            SfuOp::Sqrt => each(a, dst, mask, f32::sqrt),
            SfuOp::Sin => each(a, dst, mask, sfu_trig::<false>),
            SfuOp::Cos => each(a, dst, mask, sfu_trig::<true>),
            SfuOp::Ex2 => each(a, dst, mask, f32::exp2),
            SfuOp::Lg2 => each(a, dst, mask, f32::log2),
        }
    }

    pub(super) fn true_mask(a: &Row) -> u32 {
        (0..32).fold(0, |m, l| m | (a[l].as_bool() as u32) << l)
    }
}

/// Runs the AVX2 row kernel call `$k`, which writes the row `$d`, under
/// `$mask`: into `$dst` itself at full mask — today's plain stores — else
/// through [`simd::masked`]. `false`, nothing written, on a host without
/// AVX2 or for an op the kernel has no vector form for.
macro_rules! avx2_row {
    ($dst:ident, $mask:ident, |$d:ident| $k:expr) => {{
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the kernels only require AVX2, which `avx2()` just probed.
        let done = simd::avx2()
            && unsafe {
                if $mask == u32::MAX {
                    let $d = &mut *$dst;
                    $k
                } else {
                    simd::masked($dst, $mask, |$d| $k)
                }
            };
        #[cfg(not(target_arch = "x86_64"))]
        let done = false;
        done
    }};
}

/// Row form of [`eval_alu`]. Only lanes set in `mask` are written; the
/// rest keep their old value. On AVX2 hosts the ops with a bit-identical
/// vector form (see [`simd`]) run eight lanes at a time under any mask;
/// the rest take the [`portable`] lane loop. One call per warp
/// instruction instead of one per lane — and so for every row form below.
#[inline]
pub fn eval_alu_row(op: AluOp, a: &Row, b: &Row, dst: &mut Row, mask: u32) {
    if !avx2_row!(dst, mask, |d| simd::alu_row(op, a, b, d)) {
        portable::alu(op, a, b, dst, mask)
    }
}

/// Row form of [`eval_un`].
#[inline]
pub fn eval_un_row(op: UnOp, a: &Row, dst: &mut Row, mask: u32) {
    if !avx2_row!(dst, mask, |d| simd::un_row(op, a, d)) {
        portable::un(op, a, dst, mask)
    }
}

/// Row form of [`eval_sfu`]. The AVX2 kernel stores only the active lanes
/// itself; without AVX2, and for `Ex2`/`Lg2`, the portable lane loop.
#[inline]
pub fn eval_sfu_row(op: SfuOp, a: &Row, dst: &mut Row, mask: u32) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: as in `eval_alu_row`.
    if simd::avx2() && unsafe { simd::sfu_row(op, a, dst, mask) } {
        return;
    }
    portable::sfu(op, a, dst, mask)
}

/// Row form of [`eval_ffma`].
#[inline]
pub fn eval_ffma_row(a: &Row, b: &Row, c: &Row, dst: &mut Row, mask: u32) {
    if !avx2_row!(dst, mask, |d| simd::ffma_row(a, b, c, d)) {
        portable::ffma(a, b, c, dst, mask)
    }
}

/// Row form of [`eval_imad`].
#[inline]
pub fn eval_imad_row(a: &Row, b: &Row, c: &Row, dst: &mut Row, mask: u32) {
    if !avx2_row!(dst, mask, |d| simd::imad_row(a, b, c, d)) {
        portable::imad(a, b, c, dst, mask)
    }
}

/// Row form of [`eval_cmp`].
#[inline]
pub fn eval_cmp_row(op: CmpOp, ty: Scalar, a: &Row, b: &Row, dst: &mut Row, mask: u32) {
    if !avx2_row!(dst, mask, |d| simd::cmp_row(op, ty, a, b, d)) {
        portable::cmp(op, ty, a, b, dst, mask)
    }
}

/// Row select: `dst[l] = if c[l] { a[l] } else { b[l] }`.
#[inline]
pub fn eval_sel_row(c: &Row, a: &Row, b: &Row, dst: &mut Row, mask: u32) {
    if !avx2_row!(dst, mask, |d| simd::sel_row(c, a, b, d)) {
        portable::sel(c, a, b, dst, mask)
    }
}

/// The lanes of a predicate row that are true (nonzero, as
/// [`Value::as_bool`]): bit `l` for lane `l`.
#[inline]
pub fn true_mask(a: &Row) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if simd::avx2() {
        // SAFETY: as in `eval_alu_row`.
        return unsafe { simd::true_mask(a) };
    }
    portable::true_mask(a)
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

    /// Rows of words that break naive SIMD equivalence — ±0, ±∞,
    /// subnormals, quiet and signalling NaNs of both signs, the sign-bit
    /// and `i32::MAX` patterns — mixed with random words.
    struct Rows(u64);
    impl Rows {
        fn word(&mut self) -> u32 {
            const EDGES: [u32; 14] = [
                0x0000_0000, // +0
                0x8000_0000, // -0, i32::MIN
                0x7f80_0000, // +inf
                0xff80_0000, // -inf
                0x0000_0001, // subnormals
                0x807f_ffff,
                0x7fc0_0000, // quiet NaNs
                0xffc0_0001,
                0x7f80_0001, // signalling NaNs
                0xff87_6201,
                0x7fff_ffff, // i32::MAX, a quiet NaN
                0xffff_ffff,
                0x3f80_0000, // 1.0
                0x7f7f_ffff, // f32::MAX
            ];
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            let r = self.0;
            if r & 1 == 0 {
                EDGES[(r >> 8) as usize % EDGES.len()]
            } else {
                (r >> 32) as u32
            }
        }
        fn row(&mut self) -> Row {
            std::array::from_fn(|_| Value(self.word()))
        }
    }

    /// Every row evaluator, through its dispatcher (the AVX2 kernels on an
    /// AVX2 host) and through its portable body, against the lane
    /// evaluator bit for bit: every op, under full, empty, one-lane,
    /// `init_mask`-prefix and random masks.
    #[test]
    fn row_evaluators_match_lane_evaluators() {
        type RowFn<'a> = Box<dyn Fn(&mut Row, u32) + 'a>;
        type LaneFn<'a> = Box<dyn Fn(usize) -> Value + 'a>;
        let mut rows = Rows(0x2545_f491_4f6c_dd1d);
        for iter in 0..60 {
            let [a, b, c, keep] = std::array::from_fn(|_| rows.row());
            let random = rows.word();
            let masks = [
                u32::MAX,
                0,
                1 << (iter % 32),
                u32::MAX >> (iter % 32),
                random,
            ];
            let mut cases: Vec<(String, RowFn, RowFn, LaneFn)> = Vec::new();
            for op in AluOp::ALL {
                cases.push((
                    format!("{op:?}"),
                    Box::new(move |d, m| eval_alu_row(op, &a, &b, d, m)),
                    Box::new(move |d, m| portable::alu(op, &a, &b, d, m)),
                    Box::new(move |l| eval_alu(op, a[l], b[l])),
                ));
            }
            for op in UnOp::ALL {
                cases.push((
                    format!("{op:?}"),
                    Box::new(move |d, m| eval_un_row(op, &a, d, m)),
                    Box::new(move |d, m| portable::un(op, &a, d, m)),
                    Box::new(move |l| eval_un(op, a[l])),
                ));
            }
            for op in SfuOp::ALL {
                cases.push((
                    format!("{op:?}"),
                    Box::new(move |d, m| eval_sfu_row(op, &a, d, m)),
                    Box::new(move |d, m| portable::sfu(op, &a, d, m)),
                    Box::new(move |l| eval_sfu(op, a[l])),
                ));
            }
            for op in CmpOp::ALL {
                for ty in Scalar::ALL {
                    cases.push((
                        format!("{op:?} {ty:?}"),
                        Box::new(move |d, m| eval_cmp_row(op, ty, &a, &b, d, m)),
                        Box::new(move |d, m| portable::cmp(op, ty, &a, &b, d, m)),
                        Box::new(move |l| eval_cmp(op, ty, a[l], b[l])),
                    ));
                }
            }
            cases.push((
                "ffma".into(),
                Box::new(|d, m| eval_ffma_row(&a, &b, &c, d, m)),
                Box::new(|d, m| portable::ffma(&a, &b, &c, d, m)),
                Box::new(|l| eval_ffma(a[l], b[l], c[l])),
            ));
            cases.push((
                "imad".into(),
                Box::new(|d, m| eval_imad_row(&a, &b, &c, d, m)),
                Box::new(|d, m| portable::imad(&a, &b, &c, d, m)),
                Box::new(|l| eval_imad(a[l], b[l], c[l])),
            ));
            cases.push((
                "sel".into(),
                Box::new(|d, m| eval_sel_row(&c, &a, &b, d, m)),
                Box::new(|d, m| portable::sel(&c, &a, &b, d, m)),
                Box::new(|l| if c[l].as_bool() { a[l] } else { b[l] }),
            ));
            for (name, dispatch, portable, lane) in &cases {
                for mask in masks {
                    for (form, run) in [("dispatch", dispatch), ("portable", portable)] {
                        let mut dst = keep;
                        run(&mut dst, mask);
                        for l in 0..32 {
                            let want = if mask >> l & 1 == 1 { lane(l) } else { keep[l] };
                            assert_eq!(
                                dst[l].0, want.0,
                                "{name} {form} lane {l} mask {mask:#010x}: a {:#010x} b {:#010x} c {:#010x}",
                                a[l].0, b[l].0, c[l].0
                            );
                        }
                    }
                }
            }
            assert_eq!(true_mask(&c), portable::true_mask(&c));
            let want = (0..32).fold(0u32, |m, l| m | (c[l].as_bool() as u32) << l);
            assert_eq!(true_mask(&c), want);
        }
    }

    #[test]
    fn nan_rule_is_the_first_nan_operand_quieted() {
        let (qnan, neg_qnan, snan) = (u(0x7fff_ffff), u(0xffff_ffff), u(0xff87_6201));
        for op in [AluOp::FAdd, AluOp::FSub, AluOp::FMul] {
            assert_eq!(eval_alu(op, qnan, neg_qnan).0, 0x7fff_ffff, "{op:?}");
            assert_eq!(eval_alu(op, neg_qnan, qnan).0, 0xffff_ffff, "{op:?}");
            assert_eq!(eval_alu(op, f(1.0), snan).0, 0xffc7_6201, "{op:?}");
        }
        assert_eq!(eval_un(UnOp::FFloor, snan).0, 0xffc7_6201);
        assert_eq!(eval_un(UnOp::FNeg, snan).0, 0x7f87_6201);
        assert_eq!(eval_ffma(f(2.0), snan, qnan).0, 0xffc7_6201);
        assert_eq!(eval_ffma(f(2.0), f(3.0), snan).0, 0xffc7_6201);
        // A NaN made from numbers is the host's own; numbers are untouched.
        assert!(eval_alu(AluOp::FSub, f(f32::INFINITY), f(f32::INFINITY))
            .as_f32()
            .is_nan());
        assert_eq!(eval_alu(AluOp::FAdd, f(1.5), f(-0.25)).as_f32(), 1.25);
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
